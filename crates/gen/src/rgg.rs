//! Random geometric graphs (the paper's `rggX` family).
//!
//! `n` points are drawn uniformly at random in the unit square and two points
//! are connected if their Euclidean distance is below
//! `0.55 · sqrt(ln n / n)` — the exact radius used in the paper (taken from
//! Holtgrewe, Sanders & Schulz). A uniform grid with cells of side `radius`
//! reduces neighbor search to the 3×3 surrounding cells, giving an
//! `O(n + m)` expected running time.
//!
//! Node ids are assigned in spatially sorted (cell-major) order, so the
//! natural stream order has the same locality a mesh-like graph stored on
//! disk would have.

use oms_graph::{CsrGraph, GraphBuilder, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The connection radius used by the paper for `n` nodes.
fn rgg_radius(n: usize) -> f64 {
    assert!(n >= 2, "radius undefined for fewer than two nodes");
    0.55 * ((n as f64).ln() / n as f64).sqrt()
}

/// Cells per side of the neighbour-search grid: cells of side at least
/// `radius`, so every pair within the radius lies in adjacent cells.
fn cells_per_side(radius: f64) -> usize {
    (1.0 / radius).floor().max(1.0) as usize
}

/// The grid cell `(x, y)` of point `p`.
fn cell_of(p: (f64, f64), cells: usize) -> (usize, usize) {
    let cx = ((p.0 * cells as f64) as usize).min(cells - 1);
    let cy = ((p.1 * cells as f64) as usize).min(cells - 1);
    (cx, cy)
}

/// The `n` seeded points in node-id order: sorted by grid cell (row-major),
/// so that node ids are spatially coherent, then by position.
fn sorted_points(n: usize, cells: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut points: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
    points.sort_by(|a, b| {
        let ca = cell_of(*a, cells);
        let cb = cell_of(*b, cells);
        (ca.1, ca.0)
            .cmp(&(cb.1, cb.0))
            .then(a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    });
    points
}

/// Generates a random geometric graph with `n` nodes in the unit square and
/// the paper's radius.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn random_geometric_graph(n: usize, seed: u64) -> CsrGraph {
    let radius = rgg_radius(n);
    let cells_per_side = cells_per_side(radius);
    let points = sorted_points(n, cells_per_side, seed);

    // Bucket points per cell.
    let mut cell_points: Vec<Vec<u32>> = vec![Vec::new(); cells_per_side * cells_per_side];
    for (i, &p) in points.iter().enumerate() {
        let (cx, cy) = cell_of(p, cells_per_side);
        cell_points[cy * cells_per_side + cx].push(i as u32);
    }

    let r2 = radius * radius;
    let mut builder = GraphBuilder::new(n);
    for (i, &p) in points.iter().enumerate() {
        let (cx, cy) = cell_of(p, cells_per_side);
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let nx = cx as i64 + dx;
                let ny = cy as i64 + dy;
                if nx < 0 || ny < 0 || nx >= cells_per_side as i64 || ny >= cells_per_side as i64 {
                    continue;
                }
                for &j in &cell_points[ny as usize * cells_per_side + nx as usize] {
                    if (j as usize) <= i {
                        continue;
                    }
                    let q = points[j as usize];
                    let d2 = (p.0 - q.0) * (p.0 - q.0) + (p.1 - q.1) * (p.1 - q.1);
                    if d2 <= r2 {
                        builder.add_edge(i as NodeId, j as NodeId).unwrap();
                    }
                }
            }
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radius_matches_paper_formula() {
        let n = 1 << 15;
        let expected = 0.55 * ((n as f64).ln() / n as f64).sqrt();
        assert!((rgg_radius(n) - expected).abs() < 1e-15);
    }

    #[test]
    fn rgg_is_deterministic_per_seed() {
        assert_eq!(
            random_geometric_graph(500, 3),
            random_geometric_graph(500, 3)
        );
        assert_ne!(
            random_geometric_graph(500, 3),
            random_geometric_graph(500, 4)
        );
    }

    #[test]
    fn rgg_density_is_near_expectation() {
        // Expected degree ≈ n · π r² (ignoring boundary effects, which lower it).
        let n = 4000;
        let g = random_geometric_graph(n, 11);
        let r = rgg_radius(n);
        let expected_degree = n as f64 * std::f64::consts::PI * r * r;
        let avg = g.average_degree();
        assert!(
            avg > 0.5 * expected_degree && avg < 1.2 * expected_degree,
            "avg degree {avg}, expected ≈ {expected_degree}"
        );
        g.validate().unwrap();
    }

    #[test]
    fn edges_are_exactly_the_pairs_within_the_radius() {
        // O(n²) oracle: every pair of points within the radius, and no other
        // pair, is an edge.
        for n in [2, 3, 60, 500, 2_000] {
            for seed in [5, 17] {
                let radius = rgg_radius(n);
                let points = sorted_points(n, cells_per_side(radius), seed);
                let mut want = Vec::new();
                for (i, p) in points.iter().enumerate() {
                    for (j, q) in points.iter().enumerate().skip(i + 1) {
                        let d2 = (p.0 - q.0) * (p.0 - q.0) + (p.1 - q.1) * (p.1 - q.1);
                        if d2 <= radius * radius {
                            want.push((i as NodeId, j as NodeId));
                        }
                    }
                }
                let g = random_geometric_graph(n, seed);
                let got: Vec<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
                assert_eq!(got, want, "n = {n}, seed = {seed}");
            }
        }
    }

    #[test]
    fn spatial_ordering_gives_stream_locality() {
        // Neighboring ids should frequently be close in space, which shows up
        // as a small average id distance along edges compared to random ids.
        let n = 3000;
        let g = random_geometric_graph(n, 21);
        let avg_gap: f64 = g
            .edges()
            .map(|(u, v, _)| (v as f64 - u as f64).abs())
            .sum::<f64>()
            / g.num_edges() as f64;
        assert!(
            avg_gap < n as f64 / 8.0,
            "average id gap {avg_gap} suggests no locality"
        );
    }

    #[test]
    #[should_panic]
    fn fewer_than_two_nodes_panics() {
        random_geometric_graph(1, 1);
    }
}
