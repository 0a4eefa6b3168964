//! The multilevel V-cycle: coarsen → initial partition → uncoarsen + refine.

use crate::clustering::{label_propagation, ClusteringConfig};
use crate::contract::{contract, relabel};
use crate::initial::initial_partition;
use crate::refine::{refine, RefineConfig};
use oms_core::{BlockId, Partition, PartitionError, Result};
use oms_graph::{CsrGraph, NodeId};

/// Configuration of the multilevel partitioner.
#[derive(Clone, Copy, Debug)]
pub struct MultilevelConfig {
    /// Allowed imbalance ε.
    pub epsilon: f64,
    /// Number of label propagation rounds per coarsening level.
    pub lp_rounds: usize,
    /// Number of refinement rounds per uncoarsening level.
    pub refine_rounds: usize,
    /// Coarsening stops once the graph has at most `coarse_factor · k` nodes.
    pub coarse_factor: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            epsilon: 0.03,
            lp_rounds: 3,
            refine_rounds: 3,
            coarse_factor: 40,
            seed: 0,
        }
    }
}

/// The in-memory multilevel `k`-way partitioner (KaMinPar stand-in).
#[derive(Clone, Copy, Debug)]
pub struct MultilevelPartitioner {
    k: u32,
    config: MultilevelConfig,
}

impl MultilevelPartitioner {
    /// Creates a partitioner for `k` blocks.
    pub fn new(k: u32, config: MultilevelConfig) -> Self {
        MultilevelPartitioner { k, config }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> u32 {
        self.k
    }

    /// Partitions `graph` into `k` blocks.
    pub fn partition(&self, graph: &CsrGraph) -> Result<Partition> {
        if self.k == 0 {
            return Err(PartitionError::InvalidConfig(
                "the number of blocks k must be positive".into(),
            ));
        }
        let k = self.k;
        let cfg = &self.config;
        if graph.num_nodes() == 0 {
            return Ok(Partition::from_assignments(k, Vec::new(), &[]));
        }

        // ---- Coarsening ------------------------------------------------
        // Keep contracting until the graph is small relative to k or label
        // propagation stops making progress.
        let coarse_limit = (cfg.coarse_factor * k as usize).max(512);
        let max_cluster_weight = (graph.total_node_weight() as f64 * (1.0 + cfg.epsilon)
            / (k as f64 * 4.0))
            .ceil()
            .max(1.0) as u64;

        let mut levels: Vec<(CsrGraph, Vec<NodeId>)> = Vec::new();
        let mut current = graph.clone();
        while current.num_nodes() > coarse_limit {
            let clustering_cfg = ClusteringConfig {
                max_cluster_weight,
                rounds: cfg.lp_rounds,
                seed: cfg.seed.wrapping_add(levels.len() as u64),
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
        let mut assignment = initial_partition(&current, k, cfg.epsilon, cfg.seed);

        // ---- Uncoarsening + refinement ----------------------------------
        let refine_cfg = RefineConfig {
            epsilon: cfg.epsilon,
            rounds: cfg.refine_rounds,
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
    use oms_core::JobSpec;
    use oms_graph::InMemoryStream;

    #[test]
    fn multilevel_produces_valid_balanced_partition() {
        let g = oms_gen::planted_partition(600, 8, 0.1, 0.005, 3);
        let p = MultilevelPartitioner::new(8, MultilevelConfig::default())
            .partition(&g)
            .unwrap();
        assert_eq!(p.num_nodes(), 600);
        assert!(p.validate(&vec![1; 600]));
        assert!(p.is_balanced(0.03 + 1e-9), "imbalance {}", p.imbalance());
    }

    #[test]
    fn multilevel_beats_streaming_fennel_on_quality() {
        // The whole point of the in-memory baseline: much better cuts than
        // one-pass streaming (Fig. 2b shows KaMinPar far ahead of Fennel).
        let g = oms_gen::planted_partition(800, 16, 0.08, 0.004, 7);
        let ml = MultilevelPartitioner::new(16, MultilevelConfig::default())
            .partition(&g)
            .unwrap();
        let fennel = JobSpec::flat("fennel", 16).build().unwrap();
        let fennel = fennel.partition(&mut InMemoryStream::new(&g)).unwrap();
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
        let p = MultilevelPartitioner::new(4, MultilevelConfig::default())
            .partition(&g)
            .unwrap();
        assert_eq!(p.num_nodes(), 100);
        assert!(p.is_balanced(0.04));
    }

    #[test]
    fn multilevel_on_mesh_graphs() {
        let g = oms_gen::grid_2d(40, 40);
        let p = MultilevelPartitioner::new(4, MultilevelConfig::default())
            .partition(&g)
            .unwrap();
        assert!(p.is_balanced(0.031));
        // A 40×40 grid split into 4 balanced parts needs to cut roughly 2×40
        // edges; accept anything clearly below a random assignment.
        assert!(p.edge_cut(&g) < 400, "cut {}", p.edge_cut(&g));
    }

    #[test]
    fn zero_blocks_is_rejected_and_empty_graph_is_fine() {
        let g = CsrGraph::empty(0);
        assert!(MultilevelPartitioner::new(0, MultilevelConfig::default())
            .partition(&g)
            .is_err());
        let p = MultilevelPartitioner::new(4, MultilevelConfig::default())
            .partition(&g)
            .unwrap();
        assert_eq!(p.num_nodes(), 0);
    }
}
