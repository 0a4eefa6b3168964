//! Buffered streaming partitioning (HeiStream-style).
//!
//! The strict one-pass model assigns every node the moment it arrives; the
//! authors' follow-up direction — *buffered* streaming — relaxes this to
//! "assign every node by the end of its batch". That small delay buys a lot
//! of context: a whole batch can be loaded into memory, turned into a *model
//! graph* and solved with the multilevel machinery before any of its nodes
//! is committed.
//!
//! [`BufferedMultilevel`] implements the recipe on top of the batch
//! executor:
//!
//! 1. **Accumulate** a batch of `buffer` nodes from the stream (the batch
//!    layer in `oms-graph` prefetches the next batch from disk while this
//!    one is being solved).
//! 2. **Model**: build a [`CsrGraph`](oms_graph::CsrGraph) over the batch's
//!    nodes with all batch-internal edges and the streamed node weights.
//! 3. **Partition** the model into `min(k, |batch|)` blocks with the
//!    in-memory multilevel partitioner (coarsen → initial partition →
//!    refine).
//! 4. **Commit**: greedily map each model block to the global block
//!    maximising a Fennel-style score (connectivity towards already-assigned
//!    neighbors minus the load penalty) under the global balance constraint
//!    `L_max`, then assign all of the model block's nodes at once.
//!
//! Memory stays `O(buffer + k)` — the streaming guarantee is kept, the
//! multilevel quality is (partially) imported. One model graph per batch,
//! assignments of earlier batches feed the connectivity term of later ones,
//! so the algorithm degrades gracefully to plain multilevel when
//! `buffer ≥ n` and to a Fennel-flavoured heuristic when `buffer` is tiny.

use crate::partitioner::{MultilevelConfig, MultilevelPartitioner};
use oms_core::executor::{
    measure_pass, BatchExecutor, PassOutcome, PassTracker, PassTrajectory, RestreamOptions,
};
use oms_core::partition::UNASSIGNED;
use oms_core::scorer::fennel_alpha;
use oms_core::{BlockId, Partition, PartitionError, Result};
use oms_graph::{GraphBuilder, NodeBatch, NodeStream, NodeWeight};
use oms_obs::Stopwatch;
use std::collections::HashMap;

/// Default buffer size (nodes per model graph).
pub const DEFAULT_BUFFER: usize = 4096;

/// Fennel's γ, reused for the commit score.
const GAMMA: f64 = 1.5;

/// The buffered streaming partitioner: per-batch multilevel model solves
/// with a greedy global commit. `passes > 1` restreams the graph: in later
/// passes the nodes of each batch are first *released* from their previous
/// blocks and the batch is re-solved and re-committed under the global
/// balance constraint, now seeing the connectivity of the whole previous
/// assignment instead of only the prefix streamed so far.
#[derive(Clone, Copy, Debug)]
pub struct BufferedMultilevel {
    k: u32,
    buffer: usize,
    passes: usize,
    convergence: f64,
    config: MultilevelConfig,
}

impl BufferedMultilevel {
    /// Creates a buffered partitioner for `k` blocks with a buffer of
    /// `buffer` nodes (`0` selects [`DEFAULT_BUFFER`]). `config` drives the
    /// per-batch multilevel solves and carries ε and the seed.
    pub fn new(k: u32, buffer: usize, config: MultilevelConfig) -> Self {
        BufferedMultilevel {
            k,
            buffer: if buffer == 0 { DEFAULT_BUFFER } else { buffer },
            passes: 1,
            convergence: 0.0,
            config,
        }
    }

    /// Sets the number of restreaming passes (≥ 1).
    pub fn passes(mut self, passes: usize) -> Self {
        self.passes = passes.max(1);
        self
    }

    /// Sets the relative edge-cut improvement below which a multi-pass run
    /// stops early.
    pub fn convergence(mut self, min_improvement: f64) -> Self {
        self.convergence = min_improvement.max(0.0);
        self
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> u32 {
        self.k
    }

    /// Buffer size in nodes.
    pub fn buffer(&self) -> usize {
        self.buffer
    }

    /// Partitions the nodes delivered by `stream`, batch by batch.
    pub fn partition_stream(&self, stream: &mut dyn NodeStream) -> Result<Partition> {
        Ok(self.partition_restream(stream, false)?.0)
    }

    /// Like [`BufferedMultilevel::partition_stream`], returning the
    /// per-pass quality trajectory of a multi-pass run as well. The pass
    /// loop follows the engine's rules: the stream is rewound between
    /// passes, the run stops once no node moved or the relative cut
    /// improvement fell below the convergence threshold, and a pass that
    /// worsened the cut is rolled back.
    pub fn partition_restream(
        &self,
        stream: &mut dyn NodeStream,
        tracked: bool,
    ) -> Result<(Partition, PassTrajectory)> {
        if self.k == 0 {
            return Err(PartitionError::InvalidConfig(
                "the number of blocks k must be positive".into(),
            ));
        }
        let n = stream.num_nodes();
        let k = self.k as usize;
        let passes = self.passes.max(1);
        let capacity = Partition::capacity(stream.total_node_weight(), self.k, self.config.epsilon);
        let alpha = fennel_alpha(self.k, stream.num_edges(), n);

        let mut state = CommitState {
            assignments: vec![UNASSIGNED; n],
            node_weights: vec![0; n],
            block_weights: vec![0; k],
            capacity,
            alpha,
        };
        let mut local: HashMap<u32, u32> = HashMap::new();
        let measure = tracked || passes > 1;
        let mut tracker = PassTracker::new(RestreamOptions::tracked(passes, self.convergence));
        let mut prev_assign: Vec<BlockId> = Vec::new();
        let mut needs_reset = false;
        let reset = |stream: &mut dyn NodeStream, needs_reset: &mut bool| -> Result<()> {
            if *needs_reset {
                stream.reset().map_err(PartitionError::Graph)?;
            }
            *needs_reset = true;
            Ok(())
        };

        for pass in 0..passes {
            reset(stream, &mut needs_reset)?;
            if measure {
                prev_assign.clear();
                prev_assign.extend_from_slice(&state.assignments);
            }
            let restreaming = pass > 0;
            let mut error: Option<PartitionError> = None;
            let clock = Stopwatch::start();
            BatchExecutor::new(self.buffer).run_batches(stream, &mut |batch| {
                if error.is_some() || batch.is_empty() {
                    return;
                }
                if let Err(e) = self.commit_batch(batch, &mut local, &mut state, restreaming) {
                    error = Some(e);
                }
            })?;
            if let Some(e) = error {
                return Err(e);
            }
            let seconds = clock.seconds();

            if !measure {
                continue;
            }
            let moved = prev_assign
                .iter()
                .zip(&state.assignments)
                .filter(|(a, b)| a != b)
                .count();
            reset(stream, &mut needs_reset)?;
            let (edge_cut, imbalance) = measure_pass(stream, &state.assignments, self.k)?;
            match tracker.observe(
                pass + 1 == passes,
                moved,
                seconds,
                edge_cut,
                imbalance,
                &state.assignments,
            ) {
                PassOutcome::Continue => {}
                PassOutcome::Stop => break,
                PassOutcome::Revert(best) => {
                    state.restore(&best);
                    break;
                }
            }
        }
        Ok((
            Partition::from_assignments(self.k, state.assignments, &state.node_weights),
            tracker.finish(),
        ))
    }

    /// Solves one batch (steps 2–4 of the module-level recipe). In a
    /// restreaming pass the batch's nodes are first released from their
    /// previous blocks, so the re-commit decides under up-to-date weights.
    fn commit_batch(
        &self,
        batch: &NodeBatch,
        local: &mut HashMap<u32, u32>,
        state: &mut CommitState,
        restreaming: bool,
    ) -> Result<()> {
        let b = batch.len();
        let k = self.k as usize;
        let q = (self.k.min(b as u32)).max(1) as usize;

        local.clear();
        for (i, &id) in batch.ids().iter().enumerate() {
            local.insert(id, i as u32);
        }

        if restreaming {
            // Release the whole batch from its previous blocks before
            // re-deciding: the re-commit must see block weights without the
            // batch, or full blocks could never be re-entered (or left).
            for node in batch.iter() {
                let b = state.assignments[node.node as usize];
                if b != UNASSIGNED {
                    state.block_weights[b as usize] -= state.node_weights[node.node as usize];
                    state.assignments[node.node as usize] = UNASSIGNED;
                }
            }
        }

        // Model graph: batch nodes + batch-internal edges.
        let mut builder = GraphBuilder::with_capacity(b, batch.total_edge_entries() / 2 + 1);
        for (i, node) in batch.iter().enumerate() {
            let li = i as u32;
            builder
                .set_node_weight(li, node.weight)
                .map_err(PartitionError::Graph)?;
            for (u, w) in node.neighbors_weighted() {
                if let Some(&lu) = local.get(&u) {
                    if lu > li {
                        builder
                            .add_weighted_edge(li, lu, w)
                            .map_err(PartitionError::Graph)?;
                    }
                }
            }
        }
        let model = builder.build();

        // Solve the model with the multilevel machinery.
        let model_blocks: Vec<BlockId> = if q == 1 {
            vec![0; b]
        } else {
            MultilevelPartitioner::new(q as u32, self.config)
                .partition(&model)?
                .assignments()
                .to_vec()
        };

        // Connectivity of every model block towards every global block
        // (through neighbors assigned in earlier batches), plus membership.
        let mut conn = vec![0u64; q * k];
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); q];
        let mut mb_weight = vec![0u64; q];
        for (i, node) in batch.iter().enumerate() {
            let mb = model_blocks[i] as usize;
            members[mb].push(i);
            mb_weight[mb] += node.weight;
            for (u, w) in node.neighbors_weighted() {
                if local.contains_key(&u) {
                    continue; // internal edge, already used by the model solve
                }
                let gb = state.assignments[u as usize];
                if gb != UNASSIGNED {
                    conn[mb * k + gb as usize] += w;
                }
            }
        }

        // Commit model blocks in order of decreasing external pull so the
        // strongest affinities are honoured before capacities tighten.
        let mut order: Vec<usize> = (0..q).collect();
        let pull = |mb: usize| conn[mb * k..(mb + 1) * k].iter().sum::<u64>();
        order.sort_by_cached_key(|&mb| (std::cmp::Reverse(pull(mb)), mb));
        for mb in order {
            if members[mb].is_empty() {
                continue;
            }
            let chosen = state.choose_block(&conn[mb * k..(mb + 1) * k], mb_weight[mb]);
            state.block_weights[chosen] += mb_weight[mb];
            for &i in &members[mb] {
                let node = batch.get(i);
                state.assignments[node.node as usize] = chosen as BlockId;
                state.node_weights[node.node as usize] = node.weight;
            }
        }
        Ok(())
    }
}

/// Global assignment state shared by all batches.
struct CommitState {
    assignments: Vec<BlockId>,
    node_weights: Vec<NodeWeight>,
    block_weights: Vec<NodeWeight>,
    capacity: NodeWeight,
    alpha: f64,
}

impl CommitState {
    /// Picks the global block for a model block of weight `weight` with
    /// external connectivities `conn`: the Fennel-style best feasible block,
    /// or the least relatively loaded one when nothing fits.
    fn choose_block(&self, conn: &[u64], weight: NodeWeight) -> usize {
        let mut best: Option<(usize, f64, NodeWeight)> = None;
        let mut fallback = 0usize;
        let mut fallback_load = f64::INFINITY;
        for (gb, (&c, &bw)) in conn.iter().zip(self.block_weights.iter()).enumerate() {
            let load = bw as f64 / self.capacity.max(1) as f64;
            if load < fallback_load {
                fallback_load = load;
                fallback = gb;
            }
            if bw + weight > self.capacity {
                continue;
            }
            let score = c as f64 - self.alpha * GAMMA * (bw as f64).powf(GAMMA - 1.0);
            match best {
                None => best = Some((gb, score, bw)),
                Some((_, bs, bbw)) => {
                    if score > bs || (score == bs && bw < bbw) {
                        best = Some((gb, score, bw));
                    }
                }
            }
        }
        best.map(|(gb, _, _)| gb).unwrap_or(fallback)
    }

    /// Rolls the state back to a previously observed assignment (the pass
    /// loop's revert-on-worsen guard), rebuilding the block weights.
    fn restore(&mut self, assignments: &[BlockId]) {
        self.assignments.copy_from_slice(assignments);
        self.block_weights.fill(0);
        for (v, &b) in self.assignments.iter().enumerate() {
            if b != UNASSIGNED {
                self.block_weights[b as usize] += self.node_weights[v];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oms_core::{Hashing, OnePassConfig, StreamingPartitioner};
    use oms_graph::{CsrGraph, InMemoryStream};

    fn buffered(k: u32, buffer: usize, seed: u64) -> BufferedMultilevel {
        BufferedMultilevel::new(
            k,
            buffer,
            MultilevelConfig {
                seed,
                ..MultilevelConfig::default()
            },
        )
    }

    fn run(p: &BufferedMultilevel, g: &CsrGraph) -> Partition {
        p.partition_stream(&mut InMemoryStream::new(g)).unwrap()
    }

    #[test]
    fn produces_a_valid_complete_partition() {
        let g = oms_gen::planted_partition(500, 8, 0.1, 0.01, 3);
        for buffer in [32, 100, 4096] {
            let p = run(&buffered(8, buffer, 0), &g);
            assert_eq!(p.num_nodes(), 500);
            assert_eq!(p.num_blocks(), 8);
            assert!(p.validate(&vec![1; 500]), "buffer {buffer}");
        }
    }

    #[test]
    fn beats_hashing_on_community_graphs() {
        let g = oms_gen::planted_partition(600, 8, 0.12, 0.005, 7);
        let buf = run(&buffered(8, 200, 0), &g);
        let hash = Hashing::new(8, OnePassConfig::default())
            .partition_graph(&g)
            .unwrap();
        assert!(
            buf.edge_cut(&g) < hash.edge_cut(&g),
            "buffered {} vs hashing {}",
            buf.edge_cut(&g),
            hash.edge_cut(&g)
        );
    }

    #[test]
    fn stays_reasonably_balanced() {
        let g = oms_gen::planted_partition(800, 16, 0.08, 0.004, 9);
        let p = run(&buffered(16, 256, 0), &g);
        assert!(p.imbalance() < 0.25, "imbalance {}", p.imbalance());
    }

    #[test]
    fn is_deterministic_for_a_fixed_seed() {
        let g = oms_gen::planted_partition(400, 8, 0.1, 0.01, 11);
        let a = run(&buffered(8, 128, 5), &g);
        let b = run(&buffered(8, 128, 5), &g);
        assert_eq!(a, b);
    }

    #[test]
    fn single_block_and_tiny_batches_work() {
        let g = oms_gen::planted_partition(50, 2, 0.3, 0.05, 13);
        let p = run(&buffered(1, 7, 0), &g);
        assert_eq!(p.edge_cut(&g), 0);
        assert!(p.assignments().iter().all(|&b| b == 0));
        // More blocks than nodes per batch (q = |batch|).
        let p = run(&buffered(16, 4, 0), &g);
        assert_eq!(p.num_nodes(), 50);
        assert!(p.validate(&vec![1; 50]));
    }

    #[test]
    fn zero_buffer_selects_the_default() {
        assert_eq!(buffered(4, 0, 0).buffer(), DEFAULT_BUFFER);
        assert_eq!(buffered(4, 123, 0).buffer(), 123);
    }

    #[test]
    fn empty_graph_yields_empty_partition() {
        let g = CsrGraph::empty(0);
        let p = run(&buffered(4, 64, 0), &g);
        assert_eq!(p.num_nodes(), 0);
    }

    #[test]
    fn zero_blocks_is_rejected() {
        let g = CsrGraph::empty(5);
        assert!(buffered(0, 64, 0)
            .partition_stream(&mut InMemoryStream::new(&g))
            .is_err());
    }
}
