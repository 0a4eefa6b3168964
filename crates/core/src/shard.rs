//! Sharded streaming partitioning: an S-way bulk-synchronous drive loop
//! with deterministic, seeded message exchange.
//!
//! The paper's streaming partitioner is inherently sequential — every node
//! scores against the load vector left behind by *all* previous nodes. A
//! sharded deployment (the ROADMAP's "serve millions of users" target)
//! cannot afford that total order: the stream is split across `S` shard
//! workers, each owning
//!
//! * a contiguous **block range** `[s·k/S, (s+1)·k/S)` for which its load
//!   values are authoritative, and
//! * a contiguous **slice of each round** of the node stream.
//!
//! Rounds are bulk-synchronous: `S · round_nodes` nodes are buffered, each
//! worker greedily assigns its slice against its own full replica of the
//! scoring state (`FlatState`), and then the workers reconcile through two
//! phases of explicit messages:
//!
//! 1. **Deltas** — every worker sends each block owner the net load change
//!    its round inflicted on that owner's blocks, and broadcasts its
//!    assignments (node, weight, block) to every other worker so all
//!    replicas agree on who lives where.
//! 2. **Gossip** — every owner broadcasts the authoritative load sub-vector
//!    of its block range, which overwrites the corresponding entries of
//!    every other replica.
//!
//! After phase 2 all `S` replicas are identical, so the next round starts
//! from a consistent global view no matter which worker a node lands on.
//! Message *content* is commutative within a phase (disjoint per-node
//! assignments, additive load deltas, disjoint gossip ranges), so the final
//! state does not depend on delivery order — but the delivery order itself
//! is still fixed by a seeded shuffle and folded into a running log hash, so
//! two runs with the same seed produce bit-identical message logs. That is
//! the property CI gates on: on the 1-CPU box determinism is the point, not
//! wall-clock.
//!
//! With `S = 1` there are no messages and every "round" degenerates to an
//! in-order replay of the buffered slice against the single replica — the
//! sequence of `FlatState` transitions is exactly the classic engine's,
//! so the result is byte-identical to [`Fennel`](crate::Fennel) /
//! [`Ldg`](crate::Ldg) (and their restreaming variants) by construction.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Mutex;

use oms_graph::{EdgeWeight, NodeId, NodeStream, NodeWeight, StreamedNode};
use oms_obs::{CounterId, Event, HistId};
use rayon::prelude::*;

use crate::config::OnePassConfig;
use crate::executor::{BatchExecutor, NodeSink, PassTrajectory};
use crate::onepass::{FlatObjective, FlatState};
use crate::partition::{BlockId, Partition, UNASSIGNED};
use crate::{PartitionError, Result};

/// Upper bound on the number of stream nodes each shard processes per
/// round.
///
/// Smaller rounds exchange messages more often (fresher load views, more
/// traffic); larger rounds amortize the barrier but let replicas drift
/// further within a round. The effective round size is additionally capped
/// by the balance-driven `auto_round_nodes` bound.
pub const DEFAULT_ROUND_NODES: usize = 256;

/// Balance-driven round-size cap.
///
/// Within a round every worker assigns against the round-start load view,
/// so in the worst case the whole round's weight (`S · round_nodes` nodes)
/// lands on a single block before anyone notices — the block can overshoot
/// the capacity it appeared to have by the round's total weight. Capping
/// the round at `n / (4·k·S)` nodes per shard bounds that overshoot by a
/// quarter of the average block load, which keeps S>1 runs inside the
/// golden quality bounds; the floor of 4 keeps rounds (and the message
/// amortization) from degenerating on tiny inputs.
fn auto_round_nodes(n: usize, k: u32, shards: usize) -> usize {
    (n / (4 * (k as usize).max(1) * shards.max(1))).max(4)
}

// ---------------------------------------------------------------------------
// Deterministic RNG (SplitMix64) and seeded shuffle
// ---------------------------------------------------------------------------

/// SplitMix64: tiny, high-quality, dependency-free. Seeds the per-round
/// delivery shuffle.
struct SplitMix64(u64);

impl SplitMix64 {
    /// One RNG stream per (seed, pass, round, phase) so no two shuffles
    /// share state.
    fn for_phase(seed: u64, pass: u64, round: u64, phase: u64) -> Self {
        let mut mix = SplitMix64(
            seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03)
                ^ phase.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7),
        );
        // One warm-up step decorrelates nearby (pass, round) seeds.
        mix.next_u64();
        mix
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` (modulo bias is irrelevant here — the
    /// shuffle only needs reproducibility, not statistical perfection).
    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Seeded Fisher–Yates: the reproducible delivery order of one phase.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// One inter-shard message. All reconciliation between rounds travels as
/// these — shard workers never read each other's state directly.
enum Message {
    /// Phase 1, worker → block owner: net load change this worker's round
    /// inflicted on one of the owner's blocks.
    LoadDelta {
        /// The block whose load changed.
        block: BlockId,
        /// Signed net weight change (moves out are negative).
        delta: i64,
    },
    /// Phase 1, worker → every other worker: one assignment made this
    /// round. Carrying the weight keeps every replica's `node_weights`
    /// complete, so the executor's revert guard can rebuild any replica.
    Assign {
        /// The assigned node.
        node: NodeId,
        /// Its node weight.
        weight: NodeWeight,
        /// The block it now lives in.
        block: BlockId,
    },
    /// Phase 2, block owner → every other worker: the authoritative load
    /// sub-vector of the owner's contiguous block range.
    LoadVector {
        /// First block of the range.
        start: BlockId,
        /// Authoritative loads for `start..start + weights.len()`.
        weights: Vec<NodeWeight>,
    },
}

struct Envelope {
    from: usize,
    to: usize,
    msg: Message,
}

/// Per-run message statistics of the sharded engine, reported through
/// [`PartitionReport`](crate::PartitionReport).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shard workers.
    pub shards: usize,
    /// Synchronization rounds executed (across all passes).
    pub rounds: u64,
    /// Messages sent by each shard, indexed by shard.
    pub messages_sent: Vec<u64>,
    /// Messages received by each shard, indexed by shard.
    pub messages_received: Vec<u64>,
    /// Load reconciliation messages (deltas plus gossiped sub-vectors).
    pub load_messages: u64,
    /// Assignment broadcast messages.
    pub assignment_messages: u64,
    /// FNV-1a hash over the full delivery-ordered message log. Two runs
    /// with the same seed must agree bit-for-bit.
    pub log_hash: u64,
}

impl ShardStats {
    fn new(shards: usize) -> Self {
        ShardStats {
            shards,
            rounds: 0,
            messages_sent: vec![0; shards],
            messages_received: vec![0; shards],
            load_messages: 0,
            assignment_messages: 0,
            log_hash: FNV_OFFSET,
        }
    }

    /// Total messages exchanged over the run.
    pub fn total_messages(&self) -> u64 {
        self.messages_sent.iter().sum()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_0000_01b3;

#[inline]
fn fnv_fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

// ---------------------------------------------------------------------------
// Round buffer and shard workers
// ---------------------------------------------------------------------------

/// One buffered stream node: an index into the buffer's flattened neighbor
/// and edge-weight arenas.
struct BufNode {
    node: NodeId,
    weight: NodeWeight,
    start: usize,
    len: usize,
    /// Whether the source stream carried explicit edge weights for this
    /// node (an empty `edge_weights` slice means unweighted).
    weighted: bool,
}

/// SoA buffer holding one round of stream nodes; reused across rounds.
#[derive(Default)]
struct RoundBuffer {
    nodes: Vec<BufNode>,
    neighbors: Vec<NodeId>,
    edge_weights: Vec<EdgeWeight>,
}

impl RoundBuffer {
    fn push(&mut self, node: StreamedNode<'_>) {
        let start = self.neighbors.len();
        self.neighbors.extend_from_slice(node.neighbors);
        let weighted = !node.edge_weights.is_empty();
        if weighted {
            self.edge_weights.extend_from_slice(node.edge_weights);
        }
        self.nodes.push(BufNode {
            node: node.node,
            weight: node.weight,
            start,
            len: node.neighbors.len(),
            weighted,
        });
    }

    /// Reconstructs the borrowed view the sinks consume.
    fn streamed(&self, i: usize) -> StreamedNode<'_> {
        let b = &self.nodes[i];
        StreamedNode {
            node: b.node,
            weight: b.weight,
            neighbors: &self.neighbors[b.start..b.start + b.len],
            edge_weights: if b.weighted {
                &self.edge_weights[b.start..b.start + b.len]
            } else {
                &[]
            },
        }
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.neighbors.clear();
        self.edge_weights.clear();
    }
}

/// One assignment made by a worker within a round, pending exchange.
struct Move {
    node: NodeId,
    weight: NodeWeight,
    old: BlockId,
    new: BlockId,
}

/// A shard worker: a full replica of the scoring state plus the moves of
/// the current round, pending exchange.
struct ShardWorker {
    state: FlatState,
    moves: Vec<Move>,
}

impl ShardWorker {
    /// Greedily assigns `range` of the round buffer against this worker's
    /// replica, recording each move for the exchange phase.
    fn run_chunk(&mut self, buffer: &RoundBuffer, range: Range<usize>, restreaming: bool) {
        for i in range {
            let node = buffer.streamed(i);
            let old = self.state.assignments[node.node as usize];
            if restreaming {
                self.state.unassign(node.node, node.weight);
            }
            self.state.assign(node);
            let new = self.state.assignments[node.node as usize];
            self.moves.push(Move {
                node: node.node,
                weight: node.weight,
                old,
                new,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// The sharded sink
// ---------------------------------------------------------------------------

/// [`NodeSink`] implementing the S-way bulk-synchronous round loop. Plugs
/// into [`BatchExecutor::run_restream`] like any other sink, so multi-pass
/// restreaming, convergence tracking and the revert guard all apply
/// unchanged.
pub(crate) struct ShardedSink {
    workers: Vec<ShardWorker>,
    /// Contiguous owned block range per shard.
    block_ranges: Vec<Range<usize>>,
    /// Owning shard of each block.
    owner_of_block: Vec<u32>,
    buffer: RoundBuffer,
    round_nodes: usize,
    seed: u64,
    pass: usize,
    restreaming: bool,
    stats: ShardStats,
}

impl ShardedSink {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        k: u32,
        shards: usize,
        n: usize,
        m: usize,
        total_weight: NodeWeight,
        config: OnePassConfig,
        objective: FlatObjective,
        round_nodes: usize,
    ) -> Self {
        debug_assert!(shards >= 1);
        let workers = (0..shards)
            .map(|_| ShardWorker {
                state: FlatState::with_counts(k, n, m, total_weight, config, objective),
                moves: Vec::new(),
            })
            .collect();
        let block_ranges: Vec<Range<usize>> = (0..shards)
            .map(|s| (s * k as usize) / shards..((s + 1) * k as usize) / shards)
            .collect();
        let mut owner_of_block = vec![0u32; k as usize];
        for (s, range) in block_ranges.iter().enumerate() {
            for b in range.clone() {
                owner_of_block[b] = s as u32;
            }
        }
        ShardedSink {
            workers,
            block_ranges,
            owner_of_block,
            buffer: RoundBuffer::default(),
            round_nodes: round_nodes.max(1).min(auto_round_nodes(n, k, shards)),
            seed: config.seed,
            pass: 0,
            restreaming: false,
            stats: ShardStats::new(shards),
        }
    }

    pub(crate) fn stats(&self) -> &ShardStats {
        &self.stats
    }

    pub(crate) fn into_partition(mut self, k: u32) -> Partition {
        self.workers.remove(0).state.into_partition(k)
    }

    /// Assigns the buffered round — each worker its contiguous slice — and
    /// reconciles the replicas through the two-phase exchange.
    fn flush_round(&mut self) {
        if self.buffer.nodes.is_empty() {
            return;
        }
        let shards = self.workers.len();
        let round_nodes = self.round_nodes;
        let restreaming = self.restreaming;
        let buffer = &self.buffer;
        if shards == 1 {
            // Fast path: no threads, no messages. The replay below is
            // exactly the classic sequential engine.
            self.workers[0].run_chunk(buffer, 0..buffer.nodes.len(), restreaming);
        } else {
            crate::executor::build_pool(shards).install(|| {
                self.workers
                    .par_iter_mut()
                    .enumerate()
                    .for_each(|(s, worker)| {
                        let lo = (s * round_nodes).min(buffer.nodes.len());
                        let hi = ((s + 1) * round_nodes).min(buffer.nodes.len());
                        worker.run_chunk(buffer, lo..hi, restreaming);
                    });
            });
        }
        let before = self.stats.total_messages();
        self.exchange();
        let messages = self.stats.total_messages() - before;
        oms_obs::observe(Event::ShardRound {
            round: self.stats.rounds,
            messages,
        });
        oms_obs::hist_record(HistId::ShardRoundMessages, messages);
        self.stats.rounds += 1;
        self.buffer.clear();
    }

    /// The two-phase message exchange reconciling all replicas after a
    /// round. See the module docs for the protocol.
    fn exchange(&mut self) {
        let shards = self.workers.len();
        if shards == 1 {
            self.workers[0].moves.clear();
            return;
        }

        // Phase 1: per-owner load deltas plus assignment broadcasts.
        let mut envelopes: Vec<Envelope> = Vec::new();
        for s in 0..shards {
            // Net per-block load change of this worker's slice; BTreeMap
            // iteration gives a deterministic emission order.
            let mut deltas: BTreeMap<BlockId, i64> = BTreeMap::new();
            for mv in &self.workers[s].moves {
                if mv.old != UNASSIGNED {
                    *deltas.entry(mv.old).or_insert(0) -= mv.weight as i64;
                }
                if mv.new != UNASSIGNED {
                    *deltas.entry(mv.new).or_insert(0) += mv.weight as i64;
                }
            }
            for (&block, &delta) in &deltas {
                let owner = self.owner_of_block[block as usize] as usize;
                if delta != 0 && owner != s {
                    envelopes.push(Envelope {
                        from: s,
                        to: owner,
                        msg: Message::LoadDelta { block, delta },
                    });
                }
            }
            for mv in &self.workers[s].moves {
                if mv.new == UNASSIGNED {
                    continue;
                }
                for t in 0..shards {
                    if t != s {
                        envelopes.push(Envelope {
                            from: s,
                            to: t,
                            msg: Message::Assign {
                                node: mv.node,
                                weight: mv.weight,
                                block: mv.new,
                            },
                        });
                    }
                }
            }
        }
        let phase1_messages = envelopes.len() as u64;
        self.deliver(envelopes, 1);
        oms_obs::observe(Event::ExchangePhase {
            round: self.stats.rounds,
            phase: 1,
            messages: phase1_messages,
        });

        // Phase 2: owners gossip their now-authoritative sub-vectors.
        let mut envelopes: Vec<Envelope> = Vec::new();
        for s in 0..shards {
            let range = self.block_ranges[s].clone();
            if range.is_empty() {
                continue;
            }
            let weights = self.workers[s].state.block_weights[range.clone()].to_vec();
            for t in 0..shards {
                if t != s {
                    envelopes.push(Envelope {
                        from: s,
                        to: t,
                        msg: Message::LoadVector {
                            start: range.start as BlockId,
                            weights: weights.clone(),
                        },
                    });
                }
            }
        }
        let phase2_messages = envelopes.len() as u64;
        self.deliver(envelopes, 2);
        oms_obs::observe(Event::ExchangePhase {
            round: self.stats.rounds,
            phase: 2,
            messages: phase2_messages,
        });

        for worker in &mut self.workers {
            worker.moves.clear();
        }
    }

    /// Shuffles one phase's envelopes into the seeded delivery order, then
    /// applies each to its recipient while folding it into the stats and
    /// the log hash.
    fn deliver(&mut self, mut envelopes: Vec<Envelope>, phase: u64) {
        let mut rng = SplitMix64::for_phase(self.seed, self.pass as u64, self.stats.rounds, phase);
        shuffle(&mut envelopes, &mut rng);
        for env in envelopes {
            self.record(&env, phase);
            let state = &mut self.workers[env.to].state;
            match env.msg {
                Message::LoadDelta { block, delta } => {
                    let current = state.block_weights[block as usize] as i64;
                    let next = current + delta;
                    // Every unassigned weight was part of the round-start
                    // load, so no partial sum of deltas can drive a block
                    // negative.
                    debug_assert!(next >= 0, "load delta drove block {block} negative");
                    state.set_block_weight(block as usize, next.max(0) as NodeWeight);
                }
                Message::Assign {
                    node,
                    weight,
                    block,
                } => {
                    state.assignments[node as usize] = block;
                    state.node_weights[node as usize] = weight;
                }
                Message::LoadVector { start, weights } => {
                    for (i, &w) in weights.iter().enumerate() {
                        state.set_block_weight(start as usize + i, w);
                    }
                }
            }
        }
    }

    fn record(&mut self, env: &Envelope, phase: u64) {
        self.stats.messages_sent[env.from] += 1;
        self.stats.messages_received[env.to] += 1;
        let mut h = self.stats.log_hash;
        for word in [phase, env.from as u64, env.to as u64] {
            h = fnv_fold(h, word);
        }
        match &env.msg {
            Message::LoadDelta { block, delta } => {
                self.stats.load_messages += 1;
                h = fnv_fold(h, 1);
                h = fnv_fold(h, *block as u64);
                h = fnv_fold(h, *delta as u64);
            }
            Message::Assign {
                node,
                weight,
                block,
            } => {
                self.stats.assignment_messages += 1;
                h = fnv_fold(h, 2);
                h = fnv_fold(h, *node as u64);
                h = fnv_fold(h, *weight);
                h = fnv_fold(h, *block as u64);
            }
            Message::LoadVector { start, weights } => {
                self.stats.load_messages += 1;
                h = fnv_fold(h, 3);
                h = fnv_fold(h, *start as u64);
                h = fnv_fold(h, weights.len() as u64);
                for &w in weights {
                    h = fnv_fold(h, w);
                }
            }
        }
        self.stats.log_hash = h;
    }
}

impl NodeSink for ShardedSink {
    fn begin_pass(&mut self, pass: usize) {
        debug_assert!(self.buffer.nodes.is_empty());
        self.pass = pass;
        self.restreaming = pass > 0;
    }

    fn process(&mut self, node: StreamedNode<'_>) {
        self.buffer.push(node);
        if self.buffer.nodes.len() >= self.workers.len() * self.round_nodes {
            self.flush_round();
        }
    }

    fn end_pass(&mut self, _pass: usize) {
        self.flush_round();
        // Worker replicas score on pool threads where no observer is
        // installed, so their hot tallies are drained here on the driver
        // thread instead of flushed in place.
        let (mut scored, mut fast_path) = (0u64, 0u64);
        for worker in &mut self.workers {
            let (s, f) = worker.state.take_hot_counters();
            scored += s;
            fast_path += f;
        }
        oms_obs::counter_add(CounterId::NodesScored, scored);
        oms_obs::counter_add(CounterId::DegLe2FastPath, fast_path);
    }

    fn assignments(&self) -> Option<&[BlockId]> {
        // All replicas agree between rounds; replica 0 speaks for the run.
        Some(&self.workers[0].state.assignments)
    }

    fn num_blocks(&self) -> u32 {
        self.workers[0].state.block_weights.len() as u32
    }

    fn restore(&mut self, assignments: &[BlockId]) -> bool {
        // The revert guard rewinds *every* replica; each rebuilds its block
        // weights from its (complete) node weights.
        for worker in &mut self.workers {
            worker.state.restore(assignments);
        }
        true
    }
}

// ---------------------------------------------------------------------------
// The public partitioner
// ---------------------------------------------------------------------------

/// Sharded flat partitioner: Fennel or LDG driven through the S-way
/// bulk-synchronous engine.
///
/// With `shards == 1` the run is byte-identical to the classic sequential
/// engine ([`Fennel`](crate::Fennel), [`Ldg`](crate::Ldg), and their
/// restreaming wrappers); with `shards > 1` the assignment quality stays
/// within the golden bounds while the message log — hash, counts, delivery
/// order — is a pure function of the seed.
pub struct ShardedFlat {
    k: u32,
    config: OnePassConfig,
    objective: FlatObjective,
    shards: usize,
    passes: usize,
    convergence: f64,
    round_nodes: usize,
    last_stats: Mutex<Option<ShardStats>>,
}

impl ShardedFlat {
    /// Creates a sharded partitioner with `shards` workers.
    pub fn new(k: u32, config: OnePassConfig, objective: FlatObjective, shards: usize) -> Self {
        ShardedFlat {
            k,
            config,
            objective,
            shards,
            passes: 1,
            convergence: 0.0,
            round_nodes: DEFAULT_ROUND_NODES,
            last_stats: Mutex::new(None),
        }
    }

    /// Sets the number of restreaming passes (default 1).
    pub fn passes(mut self, passes: usize) -> Self {
        self.passes = passes;
        self
    }

    /// Sets the convergence threshold of multi-pass runs (default 0).
    pub fn convergence(mut self, convergence: f64) -> Self {
        self.convergence = convergence;
        self
    }

    /// Sets the per-shard round size (default [`DEFAULT_ROUND_NODES`]).
    /// Mostly a testing knob: smaller rounds force more exchanges.
    pub fn round_nodes(mut self, round_nodes: usize) -> Self {
        self.round_nodes = round_nodes.max(1);
        self
    }

    /// Message statistics of the most recent run, if any.
    pub fn last_stats(&self) -> Option<ShardStats> {
        self.last_stats.lock().unwrap().clone()
    }

    fn run_engine(
        &self,
        stream: &mut dyn NodeStream,
        tracked: bool,
    ) -> Result<(Partition, PassTrajectory)> {
        if self.shards == 0 {
            return Err(PartitionError::InvalidConfig(
                "sharded engine needs at least one shard".into(),
            ));
        }
        if self.passes == 0 {
            return Err(PartitionError::InvalidConfig(
                "restreaming needs at least one pass".into(),
            ));
        }
        let mut sink = ShardedSink::new(
            self.k,
            self.shards,
            stream.num_nodes(),
            stream.num_edges(),
            stream.total_node_weight(),
            self.config,
            self.objective,
            self.round_nodes,
        );
        let executor = BatchExecutor::default();
        let opts = crate::restream::options(self.passes, self.convergence, tracked);
        let trajectory = executor.run_restream(stream, &mut sink, &opts)?;
        let stats = sink.stats();
        oms_obs::observe(Event::ShardSummary {
            shards: stats.shards as u32,
            rounds: stats.rounds,
            messages: stats.total_messages(),
            load_messages: stats.load_messages,
            assignment_messages: stats.assignment_messages,
            log_hash: stats.log_hash,
        });
        oms_obs::counter_add(CounterId::ShardRounds, stats.rounds);
        oms_obs::counter_add(CounterId::ShardMessages, stats.total_messages());
        oms_obs::counter_add(CounterId::ShardLoadMessages, stats.load_messages);
        oms_obs::counter_add(
            CounterId::ShardAssignmentMessages,
            stats.assignment_messages,
        );
        *self.last_stats.lock().unwrap() = Some(sink.stats().clone());
        Ok((sink.into_partition(self.k), trajectory))
    }
}

impl crate::api::Partitioner for ShardedFlat {
    fn name(&self) -> String {
        self.objective.name().to_string()
    }

    fn num_blocks(&self) -> u32 {
        self.k
    }

    fn partition(&self, stream: &mut dyn NodeStream) -> Result<Partition> {
        self.run_engine(stream, false).map(|(p, _)| p)
    }

    fn partition_tracked(
        &self,
        stream: &mut dyn NodeStream,
    ) -> Result<(Partition, PassTrajectory)> {
        self.run_engine(stream, true)
    }

    fn shard_stats(&self) -> Option<ShardStats> {
        self.last_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Partitioner;
    use crate::onepass::{Fennel, Ldg, StreamingPartitioner};
    use oms_graph::{CsrGraph, InMemoryStream};

    fn test_graph() -> CsrGraph {
        // A graph big enough for several rounds at tiny round sizes:
        // a ring with chords.
        let n = 300u32;
        let mut edges = Vec::new();
        for v in 0..n {
            edges.push((v, (v + 1) % n));
            if v % 7 == 0 {
                edges.push((v, (v + n / 2) % n));
            }
        }
        CsrGraph::from_edges(n as usize, &edges).unwrap()
    }

    #[test]
    fn one_shard_matches_sequential_fennel_and_ldg() {
        let g = test_graph();
        let config = OnePassConfig::default();
        for (objective, classic) in [
            (
                FlatObjective::Fennel,
                Fennel::new(8, config).partition_stream(&mut InMemoryStream::new(&g)),
            ),
            (
                FlatObjective::Ldg,
                Ldg::new(8, config).partition_stream(&mut InMemoryStream::new(&g)),
            ),
        ] {
            let classic = classic.unwrap();
            let sharded = ShardedFlat::new(8, config, objective, 1)
                .partition(&mut InMemoryStream::new(&g))
                .unwrap();
            assert_eq!(
                classic.assignments(),
                sharded.assignments(),
                "{objective:?} S=1 must be byte-identical"
            );
        }
    }

    #[test]
    fn one_shard_matches_restreaming() {
        let g = test_graph();
        let config = OnePassConfig::default();
        let classic = Fennel::new(8, config)
            .passes(4)
            .partition_stream(&mut InMemoryStream::new(&g))
            .unwrap();
        let sharded = ShardedFlat::new(8, config, FlatObjective::Fennel, 1)
            .passes(4)
            .partition(&mut InMemoryStream::new(&g))
            .unwrap();
        assert_eq!(classic.assignments(), sharded.assignments());

        let classic = Ldg::new(8, config)
            .passes(3)
            .partition_stream(&mut InMemoryStream::new(&g))
            .unwrap();
        let sharded = ShardedFlat::new(8, config, FlatObjective::Ldg, 1)
            .passes(3)
            .partition(&mut InMemoryStream::new(&g))
            .unwrap();
        assert_eq!(classic.assignments(), sharded.assignments());
    }

    #[test]
    fn one_shard_run_exchanges_no_messages() {
        let g = test_graph();
        let p = ShardedFlat::new(8, OnePassConfig::default(), FlatObjective::Fennel, 1);
        p.partition(&mut InMemoryStream::new(&g)).unwrap();
        let stats = p.last_stats().unwrap();
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.total_messages(), 0);
        assert_eq!(stats.log_hash, FNV_OFFSET);
    }

    #[test]
    fn sharded_runs_are_valid_and_deterministic() {
        let g = test_graph();
        let config = OnePassConfig::default();
        for shards in [2, 4] {
            let run = |_: usize| {
                let p = ShardedFlat::new(8, config, FlatObjective::Fennel, shards)
                    .passes(3)
                    .round_nodes(16);
                let part = p.partition(&mut InMemoryStream::new(&g)).unwrap();
                (part, p.last_stats().unwrap())
            };
            let (p1, s1) = run(0);
            let (p2, s2) = run(1);
            assert!(p1.validate(&vec![1; g.num_nodes()]));
            assert_eq!(
                p1.assignments(),
                p2.assignments(),
                "S={shards}: same seed must reproduce the partition"
            );
            assert_eq!(
                s1, s2,
                "S={shards}: same seed must reproduce the message log"
            );
            assert_eq!(s1.shards, shards);
            assert!(s1.total_messages() > 0);
            assert!(s1.rounds > 0);
            assert_eq!(
                s1.messages_sent.iter().sum::<u64>(),
                s1.messages_received.iter().sum::<u64>()
            );
            assert_eq!(
                s1.total_messages(),
                s1.load_messages + s1.assignment_messages
            );
        }
    }

    #[test]
    fn different_seeds_change_the_message_log_hash() {
        let g = test_graph();
        let hash = |seed: u64| {
            let p = ShardedFlat::new(
                8,
                OnePassConfig::default().seed(seed),
                FlatObjective::Fennel,
                2,
            )
            .round_nodes(16);
            p.partition(&mut InMemoryStream::new(&g)).unwrap();
            p.last_stats().unwrap().log_hash
        };
        assert_ne!(hash(1), hash(2));
    }

    #[test]
    fn replicas_stay_consistent_between_rounds() {
        // Drive the sink manually and check that after every exchange all
        // replicas agree on assignments, node weights, and block loads.
        let g = test_graph();
        let mut stream = InMemoryStream::new(&g);
        let mut sink = ShardedSink::new(
            8,
            4,
            stream.num_nodes(),
            stream.num_edges(),
            stream.total_node_weight(),
            OnePassConfig::default(),
            FlatObjective::Fennel,
            8,
        );
        BatchExecutor::default()
            .run(&mut stream, &mut sink)
            .unwrap();
        let reference = &sink.workers[0].state;
        for worker in &sink.workers[1..] {
            assert_eq!(reference.assignments, worker.state.assignments);
            assert_eq!(reference.node_weights, worker.state.node_weights);
            assert_eq!(reference.block_weights, worker.state.block_weights);
        }
        let total: NodeWeight = reference.block_weights.iter().sum();
        assert_eq!(total, g.num_nodes() as NodeWeight);
    }
}
