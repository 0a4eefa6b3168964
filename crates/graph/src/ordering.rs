//! Stream orderings.
//!
//! One-pass streaming partitioners are sensitive to the order in which nodes
//! arrive. The paper streams every graph in its *natural* (given) order, but
//! related work (Awadelkarim & Ugander) studies random, BFS/DFS and
//! degree-based orders, so the framework exposes all of them.

use crate::{traversal, CsrGraph, NodeId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The order in which a graph is streamed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NodeOrdering {
    /// Natural order `0, 1, …, n-1` — the order used in the paper's
    /// experiments.
    #[default]
    Natural,
    /// Uniformly random permutation with the given seed.
    Random(u64),
    /// Breadth-first search order (restarting at the smallest unvisited id).
    Bfs,
    /// Depth-first search order (restarting at the smallest unvisited id).
    Dfs,
    /// Nodes sorted by increasing degree (ties by id).
    DegreeAscending,
    /// Nodes sorted by decreasing degree (ties by id).
    DegreeDescending,
}

impl NodeOrdering {
    /// Computes the permutation of node ids realising this ordering for the
    /// given graph. The result has length `n` and contains every node id
    /// exactly once.
    pub(crate) fn permutation(&self, graph: &CsrGraph) -> Vec<NodeId> {
        let n = graph.num_nodes();
        match self {
            NodeOrdering::Natural => (0..n as NodeId).collect(),
            NodeOrdering::Random(seed) => {
                let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
                let mut rng = ChaCha8Rng::seed_from_u64(*seed);
                perm.shuffle(&mut rng);
                perm
            }
            NodeOrdering::Bfs => traversal::bfs_order(graph),
            NodeOrdering::Dfs => traversal::dfs_order(graph),
            NodeOrdering::DegreeAscending => {
                let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
                perm.sort_by_key(|&v| (graph.degree(v), v));
                perm
            }
            NodeOrdering::DegreeDescending => {
                let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
                perm.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
                perm
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> CsrGraph {
        // Star with an attached path so that degrees differ.
        CsrGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)]).unwrap()
    }

    fn is_permutation(perm: &[NodeId], n: usize) -> bool {
        let mut seen = vec![false; n];
        for &v in perm {
            if seen[v as usize] {
                return false;
            }
            seen[v as usize] = true;
        }
        perm.len() == n
    }

    #[test]
    fn all_orderings_produce_permutations() {
        let g = sample_graph();
        for ord in [
            NodeOrdering::Natural,
            NodeOrdering::Random(1),
            NodeOrdering::Bfs,
            NodeOrdering::Dfs,
            NodeOrdering::DegreeAscending,
            NodeOrdering::DegreeDescending,
        ] {
            assert!(
                is_permutation(&ord.permutation(&g), g.num_nodes()),
                "{ord:?}"
            );
        }
    }

    #[test]
    fn natural_is_identity() {
        let g = sample_graph();
        assert_eq!(
            NodeOrdering::Natural.permutation(&g),
            vec![0, 1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let g = sample_graph();
        let a = NodeOrdering::Random(42).permutation(&g);
        let b = NodeOrdering::Random(42).permutation(&g);
        let c = NodeOrdering::Random(43).permutation(&g);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn degree_descending_puts_hub_first() {
        let g = sample_graph();
        let perm = NodeOrdering::DegreeDescending.permutation(&g);
        assert_eq!(perm[0], 0); // the star center has the highest degree
    }

    #[test]
    fn degree_ascending_puts_leaf_first() {
        let g = sample_graph();
        let perm = NodeOrdering::DegreeAscending.permutation(&g);
        assert_eq!(g.degree(perm[0]), 1);
    }

    #[test]
    fn natural_is_the_default_order() {
        assert_eq!(NodeOrdering::default(), NodeOrdering::Natural);
    }
}
