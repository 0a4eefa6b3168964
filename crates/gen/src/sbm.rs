//! Planted-partition (stochastic block model) graphs.
//!
//! These graphs have a known community structure, which makes them ideal for
//! sanity checks of partition quality: a good partitioner at `k = number of
//! planted blocks` should cut far fewer edges than a random assignment.

use oms_graph::{CsrGraph, GraphBuilder, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Generates a planted-partition graph.
///
/// `n` nodes are split into `blocks` equal-sized communities (the last one
/// takes the remainder). Node pairs inside the same community are connected
/// with probability `p_in`, pairs across communities with probability
/// `p_out`. Nodes of the same community are contiguous in the natural order,
/// which mirrors how community-structured graphs are usually stored.
pub fn planted_partition(n: usize, blocks: usize, p_in: f64, p_out: f64, seed: u64) -> CsrGraph {
    assert!(blocks > 0, "need at least one block");
    assert!((0.0..=1.0).contains(&p_in) && (0.0..=1.0).contains(&p_out));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let p = if block_of(u, n, blocks) == block_of(v, n, blocks) {
                p_in
            } else {
                p_out
            };
            if p > 0.0 && rng.gen::<f64>() < p {
                builder.add_edge(u as NodeId, v as NodeId).unwrap();
            }
        }
    }
    builder.build()
}

/// Ground-truth community of node `v` in a planted partition of `n` nodes
/// into `blocks` communities.
fn block_of(v: usize, n: usize, blocks: usize) -> usize {
    (v * blocks / n.max(1)).min(blocks - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_edges_dominate() {
        let n = 200;
        let blocks = 4;
        let g = planted_partition(n, blocks, 0.2, 0.01, 7);
        let mut internal = 0usize;
        let mut external = 0usize;
        for (u, v, _) in g.edges() {
            if block_of(u as usize, n, blocks) == block_of(v as usize, n, blocks) {
                internal += 1;
            } else {
                external += 1;
            }
        }
        assert!(
            internal > 3 * external,
            "internal {internal} external {external}"
        );
        g.validate().unwrap();
    }

    #[test]
    fn zero_out_probability_gives_disconnected_communities() {
        let g = planted_partition(80, 4, 0.3, 0.0, 3);
        let (_, components) = oms_graph::traversal::connected_components(&g);
        assert!(components >= 4);
    }

    #[test]
    fn block_assignment_covers_all_blocks_evenly() {
        let n = 100;
        let blocks = 5;
        let mut counts = vec![0usize; blocks];
        for v in 0..n {
            counts[block_of(v, n, blocks)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 20));
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            planted_partition(60, 3, 0.2, 0.02, 11),
            planted_partition(60, 3, 0.2, 0.02, 11)
        );
    }

    #[test]
    fn single_block_is_plain_gnp() {
        let g = planted_partition(50, 1, 0.1, 0.9, 2);
        assert_eq!(g.num_nodes(), 50);
        g.validate().unwrap();
    }
}
