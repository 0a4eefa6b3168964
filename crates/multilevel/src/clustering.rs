//! Size-constrained label propagation clustering (the coarsening heart of
//! the multilevel partitioner).
//!
//! Every node starts as its own cluster; in each round nodes adopt the
//! cluster with which they share the most edge weight, provided the cluster
//! stays below a weight limit. A handful of rounds suffices to shrink
//! real-world graphs by a large factor per level.

use oms_core::scorer::hash_node;
use oms_graph::{CsrGraph, NodeId, NodeWeight};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Options of the label propagation clustering.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ClusteringConfig {
    /// Upper bound on the weight of a cluster.
    pub(crate) max_cluster_weight: NodeWeight,
    /// Number of label propagation rounds.
    pub(crate) rounds: usize,
    /// Seed for the node visit order.
    pub(crate) seed: u64,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        ClusteringConfig {
            max_cluster_weight: NodeWeight::MAX,
            rounds: 3,
            seed: 0,
        }
    }
}

/// Runs label propagation and returns one cluster id per node.
///
/// Cluster ids are arbitrary node ids (the "label" that won); use
/// [`crate::contract::relabel`] to compact them before contraction.
pub(crate) fn label_propagation(graph: &CsrGraph, config: &ClusteringConfig) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let mut cluster: Vec<NodeId> = (0..n as NodeId).collect();
    let mut cluster_weight: Vec<NodeWeight> =
        (0..n as NodeId).map(|v| graph.node_weight(v)).collect();

    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut gains: HashMap<NodeId, u64> = HashMap::new();

    for round in 0..config.rounds {
        order.shuffle(&mut rng);
        let mut moved = 0usize;
        for &v in &order {
            if graph.degree(v) == 0 {
                continue;
            }
            let current = cluster[v as usize];
            let v_weight = graph.node_weight(v);
            gains.clear();
            for (u, w) in graph.neighbors_weighted(v) {
                *gains.entry(cluster[u as usize]).or_insert(0) += w;
            }
            // Best target: maximum shared edge weight, respecting the weight
            // limit. A node only moves on a *strict* gain over its current
            // cluster (hysteresis), and equal-gain targets are ranked by a
            // seeded hash rather than by id — a global "smallest id wins"
            // rule would turn low-id nodes into attractors that can drag
            // whole communities across a single bridge edge. The hash makes
            // the choice independent of the HashMap iteration order, keeping
            // the clustering deterministic per seed across processes.
            let tie_key = |target: NodeId| {
                hash_node(
                    target,
                    config.seed ^ ((round as u64) << 48) ^ ((v as u64) << 16),
                )
            };
            let mut best = current;
            let mut best_gain = gains.get(&current).copied().unwrap_or(0);
            for (&target, &gain) in &gains {
                if target == current {
                    continue;
                }
                let fits = cluster_weight[target as usize] + v_weight <= config.max_cluster_weight;
                if !fits {
                    continue;
                }
                if gain > best_gain
                    || (gain == best_gain && best != current && tie_key(target) > tie_key(best))
                {
                    best = target;
                    best_gain = gain;
                }
            }
            if best != current {
                cluster_weight[current as usize] -= v_weight;
                cluster_weight[best as usize] += v_weight;
                cluster[v as usize] = best;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
    cluster
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cliques(size: usize) -> CsrGraph {
        let mut edges = Vec::new();
        let s = size as NodeId;
        for u in 0..s {
            for v in (u + 1)..s {
                edges.push((u, v));
                edges.push((u + s, v + s));
            }
        }
        edges.push((0, s));
        CsrGraph::from_edges(2 * size, &edges).unwrap()
    }

    fn num_clusters(cluster: &[NodeId]) -> usize {
        let mut c = cluster.to_vec();
        c.sort_unstable();
        c.dedup();
        c.len()
    }

    #[test]
    fn cliques_collapse_into_their_own_clusters() {
        let g = two_cliques(6);
        let cluster = label_propagation(&g, &ClusteringConfig::default());
        // All nodes of the first clique share a label, ditto for the second,
        // and the two labels differ (the single bridge edge cannot win
        // against 5 internal neighbors).
        for v in 1..6 {
            assert_eq!(cluster[v], cluster[0]);
        }
        for v in 7..12 {
            assert_eq!(cluster[v], cluster[6]);
        }
        assert_ne!(cluster[0], cluster[6]);
    }

    #[test]
    fn weight_limit_is_respected() {
        let g = two_cliques(8);
        let config = ClusteringConfig {
            max_cluster_weight: 4,
            rounds: 5,
            seed: 1,
        };
        let cluster = label_propagation(&g, &config);
        let mut weights: HashMap<NodeId, u64> = HashMap::new();
        for v in 0..g.num_nodes() as NodeId {
            *weights.entry(cluster[v as usize]).or_insert(0) += g.node_weight(v);
        }
        assert!(weights.values().all(|&w| w <= 4));
        assert!(num_clusters(&cluster) >= 4);
    }

    #[test]
    fn isolated_nodes_stay_alone() {
        let g = CsrGraph::from_edges(5, &[(0, 1)]).unwrap();
        let cluster = label_propagation(&g, &ClusteringConfig::default());
        assert_eq!(cluster[2], 2);
        assert_eq!(cluster[3], 3);
        assert_eq!(cluster[4], 4);
    }

    #[test]
    fn clustering_shrinks_community_graphs() {
        let g = oms_gen::planted_partition(300, 10, 0.2, 0.002, 5);
        let cluster = label_propagation(&g, &ClusteringConfig::default());
        assert!(
            num_clusters(&cluster) < 100,
            "expected strong shrinkage, got {} clusters",
            num_clusters(&cluster)
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = oms_gen::planted_partition(200, 4, 0.1, 0.01, 9);
        let cfg = ClusteringConfig::default();
        assert_eq!(label_propagation(&g, &cfg), label_propagation(&g, &cfg));
    }
}
