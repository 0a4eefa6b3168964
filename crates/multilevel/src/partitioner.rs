//! The multilevel V-cycle: coarsen → initial partition → uncoarsen + refine.

use crate::clustering::{label_propagation, ClusteringConfig};
use crate::contract::{contract, relabel};
use crate::initial::initial_partition;
use crate::refine::{refine, RefineConfig};
use oms_core::{BlockId, Partition, PartitionError, Result};
use oms_graph::{CsrGraph, NodeId};

/// Label-propagation rounds per coarsening level.
const LP_ROUNDS: usize = 3;
/// Refinement rounds per uncoarsening level.
const REFINE_ROUNDS: usize = 3;
/// Coarsening stops once the graph has at most `COARSE_FACTOR · k` nodes
/// (and never below 512).
const COARSE_FACTOR: usize = 40;

/// The in-memory multilevel `k`-way partitioner (KaMinPar stand-in): the
/// `multilevel` job, and the solver inside `rms` and `buffered`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MultilevelPartitioner {
    k: u32,
    epsilon: f64,
    seed: u64,
}

impl MultilevelPartitioner {
    /// A partitioner for `k` blocks under the allowed imbalance `epsilon`;
    /// `seed` drives the coarsening's visit order and the initial pass.
    pub(crate) fn new(k: u32, epsilon: f64, seed: u64) -> Self {
        MultilevelPartitioner { k, epsilon, seed }
    }

    /// Number of blocks.
    pub(crate) fn num_blocks(&self) -> u32 {
        self.k
    }

    /// Partitions `graph` into `k` blocks.
    pub(crate) fn partition(&self, graph: &CsrGraph) -> Result<Partition> {
        if self.k == 0 {
            return Err(PartitionError::InvalidConfig(
                "the number of blocks k must be positive".into(),
            ));
        }
        let (k, epsilon, seed) = (self.k, self.epsilon, self.seed);
        if graph.num_nodes() == 0 {
            return Ok(Partition::from_assignments(k, Vec::new(), &[]));
        }

        // ---- Coarsening ------------------------------------------------
        // Keep contracting until the graph is small relative to k or label
        // propagation stops making progress.
        let coarse_limit = (COARSE_FACTOR * k as usize).max(512);
        let max_cluster_weight = (graph.total_node_weight() as f64 * (1.0 + epsilon)
            / (k as f64 * 4.0))
            .ceil()
            .max(1.0) as u64;

        let mut levels: Vec<(CsrGraph, Vec<NodeId>)> = Vec::new();
        let mut current = graph.clone();
        while current.num_nodes() > coarse_limit {
            let clustering_cfg = ClusteringConfig {
                max_cluster_weight,
                rounds: LP_ROUNDS,
                seed: seed.wrapping_add(levels.len() as u64),
            };
            let cluster = label_propagation(&current, &clustering_cfg);
            let (compact, num_clusters) = relabel(&cluster);
            // Stop if the graph barely shrinks (less than 10 %).
            if num_clusters as f64 > 0.9 * current.num_nodes() as f64 {
                break;
            }
            let coarse = contract(&current, &compact, num_clusters);
            levels.push((current, compact));
            current = coarse;
        }

        // ---- Initial partitioning --------------------------------------
        let mut assignment = initial_partition(&current, k, epsilon, seed);

        // ---- Uncoarsening + refinement ----------------------------------
        let refine_cfg = RefineConfig {
            epsilon,
            rounds: REFINE_ROUNDS,
        };
        refine(&current, &mut assignment, k, &refine_cfg);
        while let Some((fine, mapping)) = levels.pop() {
            let mut fine_assignment = vec![0 as BlockId; fine.num_nodes()];
            for v in 0..fine.num_nodes() {
                fine_assignment[v] = assignment[mapping[v] as usize];
            }
            refine(&fine, &mut fine_assignment, k, &refine_cfg);
            assignment = fine_assignment;
        }

        Ok(Partition::from_assignments(
            k,
            assignment,
            graph.node_weights(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition, register_algorithms};
    use oms_core::JobSpec;

    #[test]
    fn multilevel_produces_valid_balanced_partition() {
        let g = oms_gen::planted_partition(600, 8, 0.1, 0.005, 3);
        let p = partition("multilevel:8", &g);
        assert_eq!(p.num_nodes(), 600);
        assert!(p.validate(&vec![1; 600]));
        assert!(p.is_balanced(0.03 + 1e-9), "imbalance {}", p.imbalance());
    }

    #[test]
    fn multilevel_beats_streaming_fennel_on_quality() {
        // The whole point of the in-memory baseline: much better cuts than
        // one-pass streaming (Fig. 2b shows KaMinPar far ahead of Fennel).
        let g = oms_gen::planted_partition(800, 16, 0.08, 0.004, 7);
        let ml = partition("multilevel:16", &g);
        let fennel = partition("fennel:16", &g);
        assert!(
            ml.edge_cut(&g) < fennel.edge_cut(&g),
            "multilevel {} vs fennel {}",
            ml.edge_cut(&g),
            fennel.edge_cut(&g)
        );
    }

    #[test]
    fn multilevel_works_when_graph_is_already_small() {
        let g = oms_gen::erdos_renyi_gnm(100, 300, 5);
        let p = partition("multilevel:4", &g);
        assert_eq!(p.num_nodes(), 100);
        assert!(p.is_balanced(0.04));
    }

    #[test]
    fn multilevel_on_mesh_graphs() {
        let g = oms_gen::grid_2d(40, 40);
        let p = partition("multilevel:4", &g);
        assert!(p.is_balanced(0.031));
        // A 40×40 grid split into 4 balanced parts needs to cut roughly 2×40
        // edges; accept anything clearly below a random assignment.
        assert!(p.edge_cut(&g) < 400, "cut {}", p.edge_cut(&g));
    }

    #[test]
    fn zero_blocks_is_rejected_and_empty_graph_is_fine() {
        let g = CsrGraph::empty(0);
        register_algorithms();
        assert!(JobSpec::flat("multilevel", 0).build().is_err());
        // The solver itself refuses k = 0 too, should a row's constructor
        // be called past the registry's validation.
        assert!(MultilevelPartitioner::new(0, 0.03, 0)
            .partition(&g)
            .is_err());
        assert_eq!(partition("multilevel:4", &g).num_nodes(), 0);
    }
}
