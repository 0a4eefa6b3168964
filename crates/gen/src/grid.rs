//! Regular grid meshes.
//!
//! Structured meshes stand in for the finite-element matrices of the paper's
//! corpus (`Dubcova1`, `ML_Laplace`, `Flan_1565`, `HV15R`, `Bump_2911`): low,
//! nearly constant degree and strong locality in the natural node order —
//! the regime in which streaming partitioners produce their best cuts.

use oms_graph::{CsrGraph, GraphBuilder, NodeId};

/// Generates a `width × height` 4-connected grid graph.
///
/// Node `(x, y)` has id `y * width + x`, so the natural stream order is
/// row-major, giving the same strong stream locality a mesh stored in
/// lexicographic order has.
pub fn grid_2d(width: usize, height: usize) -> CsrGraph {
    let n = width * height;
    let mut builder = GraphBuilder::with_capacity(n, 2 * n);
    let id = |x: usize, y: usize| (y * width + x) as NodeId;
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                builder.add_edge(id(x, y), id(x + 1, y)).unwrap();
            }
            if y + 1 < height {
                builder.add_edge(id(x, y), id(x, y + 1)).unwrap();
            }
        }
    }
    builder.build()
}

/// Generates an `nx × ny × nz` 6-connected 3D grid graph.
///
/// Node `(x, y, z)` has id `z * nx * ny + y * nx + x`.
pub(crate) fn grid_3d(nx: usize, ny: usize, nz: usize) -> CsrGraph {
    let n = nx * ny * nz;
    let mut builder = GraphBuilder::with_capacity(n, 3 * n);
    let id = |x: usize, y: usize, z: usize| (z * nx * ny + y * nx + x) as NodeId;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    builder.add_edge(id(x, y, z), id(x + 1, y, z)).unwrap();
                }
                if y + 1 < ny {
                    builder.add_edge(id(x, y, z), id(x, y + 1, z)).unwrap();
                }
                if z + 1 < nz {
                    builder.add_edge(id(x, y, z), id(x, y, z + 1)).unwrap();
                }
            }
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oms_graph::traversal::is_connected;

    #[test]
    fn grid_2d_counts() {
        let g = grid_2d(10, 7);
        assert_eq!(g.num_nodes(), 70);
        // horizontal: 9*7, vertical: 10*6
        assert_eq!(g.num_edges(), 9 * 7 + 10 * 6);
        g.validate().unwrap();
        assert!(is_connected(&g));
    }

    #[test]
    fn grid_2d_corner_and_interior_degrees() {
        let g = grid_2d(5, 5);
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(12), 4); // center (2,2)
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn grid_3d_counts() {
        let g = grid_3d(4, 3, 2);
        assert_eq!(g.num_nodes(), 24);
        let expected = 3 * 3 * 2 + 4 * 2 * 2 + 4 * 3;
        assert_eq!(g.num_edges(), expected);
        assert_eq!(g.max_degree(), 6.min(g.max_degree()));
        assert!(is_connected(&g));
    }

    #[test]
    fn degenerate_grids() {
        let line = grid_2d(10, 1);
        assert_eq!(line.num_edges(), 9);
        let single = grid_2d(1, 1);
        assert_eq!(single.num_nodes(), 1);
        assert_eq!(single.num_edges(), 0);
    }
}
