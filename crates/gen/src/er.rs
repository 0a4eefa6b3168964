//! Erdős–Rényi random graphs.
//!
//! `G(n, m)` graphs are used as a stand-in for circuit-like instances: sparse,
//! close-to-regular degree distribution and no locality in the natural node
//! order.

use oms_graph::{CsrGraph, GraphBuilder, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// Generates a `G(n, m)` graph: `m` distinct undirected edges chosen
/// uniformly at random among all node pairs.
///
/// `m` is clamped to the maximum possible number of edges `n·(n−1)/2`.
///
/// # Panics
///
/// Panics if `n == 0` and `m > 0`.
pub fn erdos_renyi_gnm(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(n > 0 || m == 0, "cannot place edges in an empty graph");
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    let m = m.min(max_edges);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut chosen: HashSet<(NodeId, NodeId)> = HashSet::with_capacity(m * 2);
    let mut builder = GraphBuilder::with_capacity(n, m);
    while chosen.len() < m {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if chosen.insert(key) {
            builder
                .add_edge(key.0, key.1)
                .expect("generated edge within range");
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_has_exactly_m_edges() {
        let g = erdos_renyi_gnm(100, 300, 7);
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.num_edges(), 300);
        g.validate().unwrap();
    }

    #[test]
    fn gnm_is_deterministic_per_seed() {
        let a = erdos_renyi_gnm(50, 100, 3);
        let b = erdos_renyi_gnm(50, 100, 3);
        let c = erdos_renyi_gnm(50, 100, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gnm_clamps_to_complete_graph() {
        let g = erdos_renyi_gnm(5, 1000, 1);
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn gnm_empty() {
        let g = erdos_renyi_gnm(10, 0, 1);
        assert_eq!(g.num_edges(), 0);
    }
}
