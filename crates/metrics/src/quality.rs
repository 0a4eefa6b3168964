//! Partition quality metrics.

use oms_core::BlockId;
use oms_graph::CsrGraph;

/// Weight of the edges whose endpoints lie in different blocks.
pub fn edge_cut(graph: &CsrGraph, assignment: &[BlockId]) -> u64 {
    assert!(assignment.len() >= graph.num_nodes());
    (0..graph.num_nodes() as u32)
        .map(|u| {
            graph
                .neighbors_weighted(u)
                .filter(|&(v, _)| u < v && assignment[u as usize] != assignment[v as usize])
                .map(|(_, w)| w)
                .sum::<u64>()
        })
        .sum()
}

/// Imbalance `max_i c(V_i)/(c(V)/k) − 1` of an assignment into `k` blocks.
pub fn imbalance(graph: &CsrGraph, assignment: &[BlockId], k: u32) -> f64 {
    let weights = block_weights(graph, assignment, k);
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let max = *weights.iter().max().unwrap() as f64;
    max / (total as f64 / k as f64) - 1.0
}

/// Per-block total node weights `c(V_i)` of an assignment into `k` blocks —
/// the weighted face of "block sizes" (the two coincide only on unweighted
/// graphs).
pub fn block_weights(graph: &CsrGraph, assignment: &[BlockId], k: u32) -> Vec<u64> {
    assert!(assignment.len() >= graph.num_nodes());
    let mut weights = vec![0u64; k as usize];
    for v in graph.nodes() {
        weights[assignment[v as usize] as usize] += graph.node_weight(v);
    }
    weights
}

/// Weight of the heaviest block, `max_i c(V_i)` — the quantity the balance
/// constraint `L_max = ⌈(1+ε)·c(V)/k⌉` bounds.
pub fn max_block_weight(graph: &CsrGraph, assignment: &[BlockId], k: u32) -> u64 {
    block_weights(graph, assignment, k)
        .into_iter()
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_cut_matches_partition_method() {
        let g = oms_gen::planted_partition(200, 4, 0.1, 0.02, 3);
        let assignment: Vec<BlockId> = (0..200).map(|v| (v % 4) as BlockId).collect();
        let p = oms_core::Partition::from_assignments_unit(4, assignment.clone());
        assert_eq!(edge_cut(&g, &assignment), p.edge_cut(&g));
    }

    #[test]
    fn cut_of_uniform_assignment_is_zero() {
        let g = oms_gen::erdos_renyi_gnm(50, 200, 1);
        assert_eq!(edge_cut(&g, &[0; 50]), 0);
    }

    #[test]
    fn imbalance_of_even_split() {
        let g = CsrGraph::empty(8);
        let assignment: Vec<BlockId> = (0..8).map(|v| (v % 2) as BlockId).collect();
        assert!(imbalance(&g, &assignment, 2).abs() < 1e-12);
    }

    #[test]
    fn imbalance_of_everything_in_one_block() {
        let g = CsrGraph::empty(8);
        let assignment = vec![0 as BlockId; 8];
        assert!((imbalance(&g, &assignment, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn block_weights_respect_node_weights() {
        let mut b = oms_graph::GraphBuilder::new(4);
        b.set_node_weight(0, 10).unwrap();
        b.set_node_weight(3, 5).unwrap();
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        let g = b.build();
        let assignment = vec![0, 0, 1, 1];
        assert_eq!(block_weights(&g, &assignment, 2), vec![11, 6]);
        assert_eq!(max_block_weight(&g, &assignment, 2), 11);
        // Weighted imbalance diverges from the unweighted count-based one.
        assert!((imbalance(&g, &assignment, 2) - (11.0 / 8.5 - 1.0)).abs() < 1e-12);
    }
}
