//! Graph contraction: collapse each cluster into a single coarse node.

use oms_graph::{CsrGraph, GraphBuilder, NodeId};
use std::collections::HashMap;

/// Compacts arbitrary cluster labels into consecutive ids `0..num_clusters`.
///
/// Returns `(compact_label_per_node, num_clusters)`; the compact ids are
/// assigned in order of first appearance.
pub(crate) fn relabel(cluster: &[NodeId]) -> (Vec<NodeId>, usize) {
    let mut mapping: HashMap<NodeId, NodeId> = HashMap::new();
    let mut compact = Vec::with_capacity(cluster.len());
    for &c in cluster {
        let next = mapping.len() as NodeId;
        let id = *mapping.entry(c).or_insert(next);
        compact.push(id);
    }
    (compact, mapping.len())
}

/// Contracts `graph` according to the (already compacted) cluster labels.
///
/// The coarse node `c` has weight equal to the sum of its members' weights;
/// the coarse edge `{c, d}` has weight equal to the total weight of fine
/// edges between the two clusters. Intra-cluster edges disappear.
///
/// Returns the coarse graph; `cluster[v]` is the coarse node of fine node
/// `v`, which is all the information needed to project a coarse partition
/// back onto the fine graph.
pub(crate) fn contract(graph: &CsrGraph, cluster: &[NodeId], num_clusters: usize) -> CsrGraph {
    assert_eq!(cluster.len(), graph.num_nodes());
    let mut builder = GraphBuilder::with_capacity(num_clusters, graph.num_edges());
    // Coarse node weights.
    let mut weights = vec![0u64; num_clusters];
    for v in graph.nodes() {
        weights[cluster[v as usize] as usize] += graph.node_weight(v);
    }
    for (c, &w) in weights.iter().enumerate() {
        builder.set_node_weight(c as NodeId, w.max(1)).unwrap();
    }
    // Coarse edges (GraphBuilder sums duplicate edges).
    for (u, v, w) in graph.edges() {
        let cu = cluster[u as usize];
        let cv = cluster[v as usize];
        if cu != cv {
            builder.add_weighted_edge(cu, cv, w).unwrap();
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabel_compacts_labels() {
        let (compact, count) = relabel(&[7, 7, 3, 9, 3]);
        assert_eq!(count, 3);
        assert_eq!(compact, vec![0, 0, 1, 2, 1]);
    }

    #[test]
    fn contraction_sums_node_and_edge_weights() {
        // Path 0-1-2-3 with clusters {0,1} and {2,3}.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let coarse = contract(&g, &[0, 0, 1, 1], 2);
        assert_eq!(coarse.num_nodes(), 2);
        assert_eq!(coarse.num_edges(), 1);
        assert_eq!(coarse.node_weight(0), 2);
        assert_eq!(coarse.node_weight(1), 2);
        assert_eq!(coarse.edge_weight(0, 1), Some(1));
    }

    #[test]
    fn parallel_fine_edges_accumulate_in_coarse_edge() {
        // Two clusters joined by three fine edges of weight 1.
        let g = CsrGraph::from_edges(6, &[(0, 3), (1, 4), (2, 5), (0, 1), (3, 4)]).unwrap();
        let coarse = contract(&g, &[0, 0, 0, 1, 1, 1], 2);
        assert_eq!(coarse.edge_weight(0, 1), Some(3));
        assert_eq!(coarse.num_edges(), 1);
    }

    #[test]
    fn total_weights_are_preserved() {
        let g = oms_gen::planted_partition(200, 5, 0.1, 0.01, 3);
        let cluster: Vec<NodeId> = (0..200).map(|v| v % 17).collect();
        let (compact, count) = relabel(&cluster);
        let coarse = contract(&g, &compact, count);
        assert_eq!(coarse.total_node_weight(), g.total_node_weight());
        // The coarse cut weight equals the fine weight of inter-cluster edges.
        let fine_cross: u64 = g
            .edges()
            .filter(|&(u, v, _)| compact[u as usize] != compact[v as usize])
            .map(|(_, _, w)| w)
            .sum();
        assert_eq!(coarse.total_edge_weight(), fine_cross);
    }

    #[test]
    fn empty_cluster_ids_are_not_required_to_be_dense_after_relabel() {
        let (compact, count) = relabel(&[5]);
        assert_eq!(count, 1);
        assert_eq!(compact, vec![0]);
    }
}
