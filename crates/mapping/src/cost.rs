//! Evaluation of the process-mapping objective `J(C, D, Π)`.
//!
//! The communication matrix `C` is given as a graph (`GC` in the paper): each
//! edge `{u, v}` with weight `w` represents `C_{u,v} = C_{v,u} = w`. A
//! partition whose blocks are PEs therefore has cost
//! `J = Σ_{ {u,v} ∈ E } ω(u,v) · D(Π(u), Π(v))`
//! (each undirected edge counted once, consistent with the symmetric-matrix
//! convention of §2.1).

use crate::topology::Topology;
use oms_core::BlockId;
use oms_graph::CsrGraph;

/// Total communication cost `J` of assigning node `v` to PE
/// `assignment[v]`.
///
/// # Panics
///
/// Panics if `assignment` is shorter than the number of nodes.
pub fn mapping_cost(graph: &CsrGraph, assignment: &[BlockId], topology: &Topology) -> u64 {
    assert!(assignment.len() >= graph.num_nodes());
    graph
        .edges()
        .map(|(u, v, w)| w * topology.distance(assignment[u as usize], assignment[v as usize]))
        .sum()
}

/// Communication volume broken down by hierarchy level.
///
/// Index 0 holds the edge weight between nodes on the *same* PE (cost 0),
/// index `i ≥ 1` the edge weight between PEs whose lowest shared level is
/// `i` (each weighted edge counted once, unscaled by the distance).
pub fn mapping_cost_per_level(
    graph: &CsrGraph,
    assignment: &[BlockId],
    topology: &Topology,
) -> Vec<u64> {
    assert!(assignment.len() >= graph.num_nodes());
    let levels = topology.hierarchy().num_levels();
    let mut volume = vec![0u64; levels + 1];
    for (u, v, w) in graph.edges() {
        let level = topology
            .hierarchy()
            .shared_level(assignment[u as usize], assignment[v as usize]);
        volume[level] += w;
    }
    volume
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn cost_of_single_pe_mapping_is_zero() {
        let g = square();
        let t = Topology::parse("2:2", "1:10").unwrap();
        assert_eq!(mapping_cost(&g, &[0, 0, 0, 0], &t), 0);
    }

    #[test]
    fn cost_reflects_distance_levels() {
        let g = square();
        let t = Topology::parse("2:2", "1:10").unwrap();
        // Edges: (0,1) same processor (PEs 0,1 → d=1), (1,2) PEs 1,2 → d=10,
        // (2,3) PEs 2,3 → d=1, (3,0) PEs 3,0 → d=10.
        let cost = mapping_cost(&g, &[0, 1, 2, 3], &t);
        assert_eq!(cost, 1 + 10 + 1 + 10);
    }

    #[test]
    fn cost_respects_edge_weights() {
        let mut b = oms_graph::GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 7).unwrap();
        let g = b.build();
        let t = Topology::parse("2:2", "1:10").unwrap();
        assert_eq!(mapping_cost(&g, &[0, 2], &t), 70);
        assert_eq!(mapping_cost(&g, &[0, 1], &t), 7);
    }

    #[test]
    fn per_level_volume_sums_to_total_edge_weight() {
        let g = oms_gen::erdos_renyi_gnm(200, 800, 5);
        let t = Topology::parse("2:2:2", "1:10:100").unwrap();
        let assignment: Vec<BlockId> = (0..200).map(|v| (v % 8) as BlockId).collect();
        let per_level = mapping_cost_per_level(&g, &assignment, &t);
        assert_eq!(per_level.len(), 4);
        assert_eq!(per_level.iter().sum::<u64>(), g.total_edge_weight());
    }

    #[test]
    fn per_level_volume_consistent_with_cost() {
        let g = square();
        let t = Topology::parse("2:2", "1:10").unwrap();
        let assignment = [0, 1, 2, 3];
        let per_level = mapping_cost_per_level(&g, &assignment, &t);
        let d = [0u64, 1, 10];
        let reconstructed: u64 = per_level
            .iter()
            .zip(d.iter())
            .map(|(&vol, &dist)| vol * dist)
            .sum();
        assert_eq!(reconstructed, mapping_cost(&g, &assignment, &t));
    }
}
