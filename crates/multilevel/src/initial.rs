//! Initial partitioning of the coarsest graph.
//!
//! Once coarsening has shrunk the graph to a few thousand (weighted) nodes,
//! the initial `k`-way partition is computed by a greedy streaming pass
//! (Fennel objective, which is balance-aware on weighted nodes) followed by
//! a couple of refinement rounds. This mirrors the "initial partitioning via
//! simple greedy + refinement" design of fast multilevel partitioners.

use crate::refine::{refine, RefineConfig};
use oms_core::{BlockId, JobSpec};
use oms_graph::{CsrGraph, InMemoryStream};

/// Computes an initial `k`-way assignment of (the coarsest) `graph`.
///
/// The greedy pass is internal to the multilevel solve — it streams the
/// coarse graph, not the job's input — so it runs unobserved: its passes
/// and scored nodes stay out of the job's trace and counters.
pub(crate) fn initial_partition(graph: &CsrGraph, k: u32, epsilon: f64, seed: u64) -> Vec<BlockId> {
    let fennel = JobSpec::flat("fennel", k).epsilon(epsilon).seed(seed);
    let fennel = fennel.build().expect("the caller validated k and ε");
    let unobserved = oms_obs::unobserved();
    let partition = fennel
        .partition(&mut InMemoryStream::new(graph))
        .expect("an in-memory graph is symmetric");
    drop(unobserved);
    let mut assignment = partition.assignments().to_vec();
    refine(
        graph,
        &mut assignment,
        k,
        &RefineConfig { epsilon, rounds: 5 },
    );
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use oms_core::Partition;

    #[test]
    fn initial_partition_covers_all_blocks_and_stays_balanced() {
        let g = oms_gen::planted_partition(300, 8, 0.15, 0.01, 3);
        let assignment = initial_partition(&g, 8, 0.03, 1);
        let p = Partition::from_assignments(8, assignment, &vec![1; 300]);
        assert_eq!(p.used_blocks(), 8);
        assert!(p.is_balanced(0.03 + 1e-9), "imbalance {}", p.imbalance());
    }

    #[test]
    fn initial_partition_on_weighted_coarse_graph() {
        // Simulate a coarse graph with heterogeneous node weights.
        let mut b = oms_graph::GraphBuilder::new(6);
        for v in 0..6u32 {
            b.set_node_weight(v, (v as u64 % 3) * 4 + 1).unwrap();
        }
        for &(u, v) in &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)] {
            b.add_weighted_edge(u, v, 2).unwrap();
        }
        let g = b.build();
        let assignment = initial_partition(&g, 2, 0.1, 3);
        let p = Partition::from_assignments(2, assignment, g.node_weights());
        assert_eq!(p.num_nodes(), 6);
        // Balance is checked against the weighted capacity.
        assert!(p.max_block_weight() <= Partition::capacity(g.total_node_weight(), 2, 0.1) + 5);
    }

    #[test]
    fn initial_partition_quality_beats_round_robin() {
        let g = oms_gen::planted_partition(400, 4, 0.2, 0.005, 7);
        let assignment = initial_partition(&g, 4, 0.03, 5);
        let p = Partition::from_assignments(4, assignment, &vec![1; 400]);
        let round_robin: Vec<BlockId> = (0..400).map(|v| (v % 4) as BlockId).collect();
        let rr = Partition::from_assignments(4, round_robin, &vec![1; 400]);
        assert!(p.edge_cut(&g) < rr.edge_cut(&g));
    }
}
