//! Buffered streaming partitioning (HeiStream-style).
//!
//! The strict one-pass model assigns every node the moment it arrives; the
//! authors' follow-up direction — *buffered* streaming — relaxes this to
//! "assign every node by the end of its batch". That small delay buys a lot
//! of context: a whole batch can be loaded into memory, turned into a *model
//! graph* and solved with the multilevel machinery before any of its nodes
//! is committed.
//!
//! [`BufferedMultilevel`] implements the recipe as a private [`NodeSink`]
//! that one untracked pass of the executor's drive loop ([`executor::run`])
//! feeds, so it traces the engine's pass events:
//!
//! 1. **Accumulate** a batch of `buffer` nodes as the engine streams them
//!    in; every batch but the last of a pass holds exactly `buffer` nodes,
//!    however the source batches its reads.
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
//!
//! The sink holds nodes back until their batch commits, so the drive loop
//! cannot tally its pass while it streams: the registry measures the
//! partition with one walk afterwards, and `passes > 1` refines it with the
//! restreaming refinement `multilevel` and `rms` use.

use crate::partitioner::MultilevelPartitioner;
use oms_core::executor::{self, NodeSink};
use oms_core::partition::UNASSIGNED;
use oms_core::scorer::fennel_alpha;
use oms_core::{BlockId, JobSpec, Partition, PartitionError, Result};
use oms_graph::{GraphBuilder, NodeBatch, NodeStream, NodeWeight, StreamedNode};
use oms_obs::Event;
use std::collections::HashMap;

/// Default buffer size (nodes per model graph), what `buf=0` selects.
const DEFAULT_BUFFER: usize = 4096;

/// Fennel's γ, reused for the commit score.
const GAMMA: f64 = 1.5;

/// The buffered streaming partitioner: per-batch multilevel model solves
/// with a greedy global commit, in one pass.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BufferedMultilevel {
    k: u32,
    buffer: usize,
    epsilon: f64,
    seed: u64,
}

impl BufferedMultilevel {
    /// The `buffered` job `spec`: its `k` and buffer (`buf=0` selects
    /// [`DEFAULT_BUFFER`]); ε and the seed also drive the per-batch
    /// multilevel solves.
    pub(crate) fn new(spec: &JobSpec) -> Self {
        BufferedMultilevel {
            k: spec.num_blocks(),
            buffer: if spec.buffer == 0 {
                DEFAULT_BUFFER
            } else {
                spec.buffer
            },
            epsilon: spec.epsilon,
            seed: spec.seed,
        }
    }

    /// Number of blocks.
    pub(crate) fn num_blocks(&self) -> u32 {
        self.k
    }

    /// Partitions the nodes delivered by `stream` in one untracked pass of
    /// the executor ([`executor::run`]); nothing is measured.
    pub(crate) fn run_pass(&self, stream: &mut dyn NodeStream) -> Result<Partition> {
        if self.k == 0 {
            return Err(PartitionError::InvalidConfig(
                "the number of blocks k must be positive".into(),
            ));
        }
        let mut sink = self.sink(stream);
        executor::run(stream, &mut sink)?;
        if let Some(e) = sink.error {
            return Err(e);
        }
        let state = sink.state;
        Ok(Partition::from_block_weights(
            self.k,
            state.assignments,
            state.block_weights,
        ))
    }

    /// A fresh sink for `stream`: every node unassigned, every block empty.
    fn sink(&self, stream: &dyn NodeStream) -> BufferedSink<'_> {
        let n = stream.num_nodes();
        BufferedSink {
            algorithm: self,
            state: CommitState {
                assignments: vec![UNASSIGNED; n],
                block_weights: vec![0; self.k as usize],
                capacity: Partition::capacity(stream.total_node_weight(), self.k, self.epsilon),
                alpha: fennel_alpha(self.k, stream.num_edges(), n),
            },
            pending: NodeBatch::new(),
            local: HashMap::new(),
            batch: 0,
            error: None,
        }
    }

    /// Solves one batch (steps 2–4 of the module-level recipe).
    fn commit_batch(
        &self,
        batch: &NodeBatch,
        local: &mut HashMap<u32, u32>,
        state: &mut CommitState,
    ) -> Result<()> {
        let b = batch.len();
        let k = self.k as usize;
        let q = (self.k.min(b as u32)).max(1) as usize;

        local.clear();
        for (i, &id) in batch.ids().iter().enumerate() {
            local.insert(id, i as u32);
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
            MultilevelPartitioner::new(q as u32, self.epsilon, self.seed)
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
                state.assignments[batch.get(i).node as usize] = chosen as BlockId;
            }
        }
        Ok(())
    }
}

/// The buffered algorithm as the engine's [`NodeSink`]: collects the
/// streamed nodes into batches of `buffer` and solves and commits each one
/// (steps 2–4 of the module-level recipe) as it fills; the rest of the pass
/// is committed at its end.
struct BufferedSink<'a> {
    algorithm: &'a BufferedMultilevel,
    state: CommitState,
    /// The nodes of the batch being collected.
    pending: NodeBatch,
    /// Global → model id of the batch being committed.
    local: HashMap<u32, u32>,
    /// Index of the next batch (for the trace).
    batch: u64,
    /// The first commit that failed; later batches are skipped.
    error: Option<PartitionError>,
}

impl BufferedSink<'_> {
    /// Solves and commits the pending batch, then starts the next one.
    fn commit(&mut self) {
        if self.error.is_none() {
            let (local, state) = (&mut self.local, &mut self.state);
            let committed = self.algorithm.commit_batch(&self.pending, local, state);
            self.error = committed.err();
        }
        oms_obs::observe(Event::BatchScored {
            batch: self.batch,
            nodes: self.pending.len() as u64,
        });
        self.batch += 1;
        self.pending.clear();
    }
}

impl NodeSink for BufferedSink<'_> {
    fn process(&mut self, node: StreamedNode<'_>) {
        self.pending.push(node);
        if self.pending.len() == self.algorithm.buffer {
            self.commit();
        }
    }

    fn end_pass(&mut self, _pass: usize) {
        if !self.pending.is_empty() {
            self.commit();
        }
    }

    fn assignments(&self) -> &[BlockId] {
        &self.state.assignments
    }

    fn num_blocks(&self) -> u32 {
        self.algorithm.k
    }

    fn block_weights(&self, out: &mut Vec<NodeWeight>) {
        out.clone_from(&self.state.block_weights);
    }

    fn restore(&mut self, assignments: &[BlockId], block_weights: &[NodeWeight]) {
        self.state.assignments.copy_from_slice(assignments);
        self.state.block_weights.copy_from_slice(block_weights);
    }
}

/// Global assignment state shared by all batches: one block id per node and
/// the `k` block loads.
struct CommitState {
    assignments: Vec<BlockId>,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition, register_algorithms};
    use oms_graph::{CsrGraph, InMemoryStream};

    #[test]
    fn produces_a_valid_complete_partition() {
        let g = oms_gen::planted_partition(500, 8, 0.1, 0.01, 3);
        for buffer in [32, 100, 4096] {
            let p = partition(&format!("buffered:8@buf={buffer}"), &g);
            assert_eq!(p.num_nodes(), 500);
            assert_eq!(p.num_blocks(), 8);
            assert!(p.validate(&vec![1; 500]), "buffer {buffer}");
        }
    }

    #[test]
    fn beats_hashing_on_community_graphs() {
        let g = oms_gen::planted_partition(600, 8, 0.12, 0.005, 7);
        let buf = partition("buffered:8@buf=200", &g);
        let hash = partition("hashing:8", &g);
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
        let p = partition("buffered:16@buf=256", &g);
        assert!(p.imbalance() < 0.25, "imbalance {}", p.imbalance());
    }

    #[test]
    fn is_deterministic_for_a_fixed_seed() {
        let g = oms_gen::planted_partition(400, 8, 0.1, 0.01, 11);
        let job = "buffered:8@seed=5,buf=128";
        assert_eq!(partition(job, &g), partition(job, &g));
    }

    #[test]
    fn single_block_and_tiny_batches_work() {
        let g = oms_gen::planted_partition(50, 2, 0.3, 0.05, 13);
        let p = partition("buffered:1@buf=7", &g);
        assert_eq!(p.edge_cut(&g), 0);
        assert!(p.assignments().iter().all(|&b| b == 0));
        // More blocks than nodes per batch (q = |batch|).
        let p = partition("buffered:16@buf=4", &g);
        assert_eq!(p.num_nodes(), 50);
        assert!(p.validate(&vec![1; 50]));
    }

    /// A job without `buf=` solves batches of [`DEFAULT_BUFFER`] nodes: on
    /// a graph of more than one such batch it partitions exactly like
    /// `buf=4096`, and unlike a job with batches half that size.
    #[test]
    fn the_default_buffer_is_what_buf_4096_selects() {
        let g = oms_gen::planted_partition(5000, 8, 0.01, 0.001, 17);
        let default = partition("buffered:8", &g);
        assert_eq!(default, partition("buffered:8@buf=4096", &g));
        assert_ne!(default, partition("buffered:8@buf=2048", &g));
    }

    #[test]
    fn empty_graph_yields_empty_partition() {
        let g = CsrGraph::empty(0);
        assert_eq!(partition("buffered:4@buf=64", &g).num_nodes(), 0);
    }

    #[test]
    fn zero_blocks_is_rejected() {
        register_algorithms();
        let spec = JobSpec::flat("buffered", 0);
        assert!(spec.build().is_err());
        // Past the registry's validation the sink still refuses k = 0.
        let g = CsrGraph::empty(5);
        let direct = BufferedMultilevel::new(&spec).run_pass(&mut InMemoryStream::new(&g));
        assert!(direct.is_err());
    }

    #[test]
    fn batches_do_not_depend_on_how_the_source_batches_its_reads() {
        /// Closes every batch after at most 3 nodes, as a disk stream does
        /// at its entry bound.
        struct Short<'g>(InMemoryStream<'g>);
        impl NodeStream for Short<'_> {
            fn num_nodes(&self) -> usize {
                self.0.num_nodes()
            }
            fn num_edges(&self) -> usize {
                self.0.num_edges()
            }
            fn total_node_weight(&self) -> NodeWeight {
                self.0.total_node_weight()
            }
            fn for_each_node(
                &mut self,
                f: &mut dyn FnMut(StreamedNode<'_>),
            ) -> oms_graph::Result<()> {
                self.0
                    .for_each_batch(3, &mut |batch| batch.iter().for_each(&mut *f))
            }
            fn for_each_batch(
                &mut self,
                batch_size: usize,
                f: &mut dyn FnMut(&NodeBatch),
            ) -> oms_graph::Result<()> {
                self.0.for_each_batch(batch_size.min(3), f)
            }
        }
        register_algorithms();
        let g = oms_gen::planted_partition(250, 4, 0.1, 0.01, 1);
        for buffer in [7, 100] {
            for passes in [1, 3] {
                let job = format!("buffered:4@seed=1,buf={buffer},passes={passes}");
                let built = JobSpec::parse(&job).unwrap().build().unwrap();
                let short = built
                    .partition(&mut Short(InMemoryStream::new(&g)))
                    .unwrap();
                assert_eq!(short, partition(&job, &g), "{job}");
            }
        }
    }
}
