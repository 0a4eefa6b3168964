//! Offline recursive multi-section (the IntMap stand-in).
//!
//! The offline counterpart of OMS (§3 of the paper, following Schulz & Träff
//! and Kirchbach et al.): first partition the whole graph into `aℓ` blocks
//! with a high-quality in-memory partitioner, then recursively partition the
//! subgraph induced by each block into `a_{ℓ−1}` sub-blocks, and so on. The
//! leaf numbering matches [`oms_core::HierarchySpec`], so the result is a
//! process mapping onto the hierarchical machine.

use crate::partitioner::MultilevelPartitioner;
use oms_core::{BlockId, HierarchySpec, Partition, Result};
use oms_graph::{CsrGraph, NodeId};

/// Offline recursive multi-section along a communication hierarchy (the
/// `rms` job).
#[derive(Clone, Debug)]
pub(crate) struct RecursiveMultisection {
    hierarchy: HierarchySpec,
    epsilon: f64,
    seed: u64,
}

impl RecursiveMultisection {
    /// A mapper onto `hierarchy` whose every split is a multilevel solve
    /// under the allowed imbalance `epsilon` and `seed`.
    pub(crate) fn new(hierarchy: HierarchySpec, epsilon: f64, seed: u64) -> Self {
        RecursiveMultisection {
            hierarchy,
            epsilon,
            seed,
        }
    }

    /// Total number of PEs.
    pub(crate) fn num_blocks(&self) -> u32 {
        self.hierarchy.total_blocks()
    }

    /// Computes the hierarchical partition / process mapping of `graph`.
    pub(crate) fn partition(&self, graph: &CsrGraph) -> Result<Partition> {
        let k = self.hierarchy.total_blocks();
        let n = graph.num_nodes();
        let mut assignment: Vec<BlockId> = vec![0; n];
        if n > 0 {
            let all_nodes: Vec<NodeId> = (0..n as NodeId).collect();
            let levels = self.hierarchy.num_levels();
            self.split(graph, &all_nodes, levels, 0, k, &mut assignment)?;
        }
        Ok(Partition::from_assignments(
            k,
            assignment,
            graph.node_weights(),
        ))
    }

    /// Recursively splits `nodes` (ids in the original graph) covering the PE
    /// range `[pe_lo, pe_lo + pe_span)` at hierarchy level `level`
    /// (`level = ℓ` at the top, 0 when a single PE remains).
    fn split(
        &self,
        graph: &CsrGraph,
        nodes: &[NodeId],
        level: usize,
        pe_lo: u32,
        pe_span: u32,
        assignment: &mut [BlockId],
    ) -> Result<()> {
        if level == 0 || pe_span == 1 {
            for &v in nodes {
                assignment[v as usize] = pe_lo;
            }
            return Ok(());
        }
        // The factor of the current (topmost remaining) level.
        let fan_out = self.hierarchy.factors()[level - 1];
        let sub_span = pe_span / fan_out;

        let (subgraph, mapping) = graph.induced_subgraph(nodes);
        let partition =
            MultilevelPartitioner::new(fan_out, self.epsilon, self.seed).partition(&subgraph)?;
        // Group the nodes by their block and recurse.
        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); fan_out as usize];
        for (local, &original) in mapping.iter().enumerate() {
            groups[partition.block_of(local as NodeId) as usize].push(original);
        }
        for (i, group) in groups.into_iter().enumerate() {
            self.split(
                graph,
                &group,
                level - 1,
                pe_lo + i as u32 * sub_span,
                sub_span,
                assignment,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition;
    use oms_core::api::stream_mapping_cost;
    use oms_core::DistanceSpec;
    use oms_graph::InMemoryStream;

    #[test]
    fn recursive_multisection_produces_valid_partition() {
        let g = oms_gen::planted_partition(400, 8, 0.12, 0.005, 3);
        let p = partition("rms:2:2:2", &g);
        assert_eq!(p.num_blocks(), 8);
        assert_eq!(p.num_nodes(), 400);
        assert!(p.validate(&vec![1; 400]));
        // Recursive bisection compounds imbalance slightly; stay well below
        // 10 % on this easy instance.
        assert!(p.imbalance() < 0.12, "imbalance {}", p.imbalance());
    }

    #[test]
    fn offline_mapping_beats_streaming_oms_on_quality() {
        // The in-memory baseline exists to show what quality is attainable
        // with full graph access (paper: IntMap/KaMinPar ≫ streaming tools).
        let g = oms_gen::planted_partition(600, 16, 0.1, 0.004, 7);
        let h = HierarchySpec::parse("2:2:4").unwrap();
        let d = DistanceSpec::paper_default();
        let j = |job: &str| {
            let p = partition(job, &g);
            stream_mapping_cost(&mut InMemoryStream::new(&g), p.assignments(), &h, &d).unwrap()
        };
        let (off_cost, on_cost) = (j("rms:2:2:4"), j("oms:2:2:4"));
        assert!(
            off_cost <= on_cost,
            "offline {off_cost} should not be worse than streaming {on_cost}"
        );
    }

    #[test]
    fn single_level_hierarchy_reduces_to_flat_partitioning() {
        let g = oms_gen::planted_partition(200, 4, 0.15, 0.01, 9);
        // A job's one-number shape is flat (`rms:4` is refused), so the
        // one-level hierarchy is built here directly.
        let h = HierarchySpec::parse("4").unwrap();
        let p = RecursiveMultisection::new(h, 0.03, 0)
            .partition(&g)
            .unwrap();
        assert_eq!(p.num_blocks(), 4);
        assert!(p.used_blocks() == 4);
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = CsrGraph::empty(0);
        assert_eq!(partition("rms:2:2", &g).num_nodes(), 0);
    }
}
