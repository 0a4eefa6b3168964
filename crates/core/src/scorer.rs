//! Scoring primitives shared by the flat baselines and the multi-section
//! subproblems: the deterministic node hash of the Hashing scorer and
//! Fennel's global `α`.
//!
//! The Fennel and LDG objectives themselves have a single definition,
//! [`crate::FlatObjective`]; both the flat kernel (`onepass`) and the
//! tree-descent kernel (`oms`) evaluate it through pre-computed per-block
//! penalty arenas.

use oms_graph::NodeId;

/// Deterministic node hash used by the Hashing scorer. Splitmix64 over the
/// node id and the seed: cheap, uniform, reproducible.
#[inline]
pub fn hash_node(node: NodeId, seed: u64) -> u64 {
    let mut x = (node as u64)
        .wrapping_add(seed)
        .wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Picks a candidate uniformly by hashing the node id.
pub fn select_hashing(num_candidates: usize, node: NodeId, seed: u64) -> usize {
    debug_assert!(num_candidates > 0);
    (hash_node(node, seed) % num_candidates as u64) as usize
}

/// The global Fennel parameter `α = √k · m / n^{3/2}` of a `k`-way
/// partitioning problem on a graph with `n` nodes and `m` edges.
pub fn fennel_alpha(k: u32, m: usize, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    (k as f64).sqrt() * m as f64 / (n as f64).powf(1.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_and_in_range() {
        for node in 0..1000u32 {
            let a = select_hashing(7, node, 42);
            let b = select_hashing(7, node, 42);
            assert_eq!(a, b);
            assert!(a < 7);
        }
    }

    #[test]
    fn hashing_spreads_nodes_roughly_uniformly() {
        let k = 8;
        let mut counts = vec![0usize; k];
        for node in 0..8000u32 {
            counts[select_hashing(k, node, 1)] += 1;
        }
        for &c in &counts {
            assert!(c > 800 && c < 1200, "bucket count {c} far from uniform");
        }
    }

    #[test]
    fn alpha_formula() {
        // α = sqrt(k) * m / n^1.5
        let alpha = fennel_alpha(4, 1000, 100);
        assert!((alpha - 2.0 * 1000.0 / 1000.0).abs() < 1e-12);
        assert_eq!(fennel_alpha(4, 10, 0), 0.0);
    }
}
