//! The long-lived partition maintenance service.
//!
//! [`PartitionState`] wraps a repair-capable streaming algorithm
//! ([`RepairSink`] — `oms-core`'s one scoring kernel, the multi-section
//! descent, on the depth-1 tree that is flat Fennel / LDG) around a
//! [`DynamicGraph`] and keeps the partition valid as [`DeltaBatch`]es
//! arrive:
//!
//! * every delta mutates the graph and the per-block loads, `L_max` and
//!   Fennel's `α` are re-derived in place (no `powf`, no allocation), and
//!   the delta is filed in the drive loop's histogram ([`LevelTally`]),
//!   which the cut and imbalance are read off (no metric pass per delta);
//! * under [`RepairPolicy::Local`] the nodes a delta touches are re-scored
//!   in place (one ReFennel step each, under the live balance constraint
//!   `L_max`); [`RepairPolicy::Boundary`] adds one cascade wave over the
//!   neighbors of every node that changed blocks, rescoring those that are
//!   boundary nodes (a neighbor in another block) when the wave reaches
//!   them — checked from their adjacency then, not kept per node;
//! * the slab is read ahead of the work ([`DynamicGraph::read_ahead`]):
//!   once every [`READ_AHEAD`] deltas for the endpoints of the next ones,
//!   and for each cascade wave before it is walked, in runs of independent
//!   loads, so their cache misses overlap instead of queueing one node at a
//!   time. It only reads, so no output changes, and it takes the deltas'
//!   ids before any mutation has validated them: a hostile id is refused
//!   by the delta that names it, as before;
//! * a *drift* metric — cumulative moved node mass plus cut regression
//!   since the last full pass — triggers a full restream fallback through
//!   the multi-pass engine once it exceeds the job's `drift=` threshold.
//!   The fallback is seeded with the maintained assignment and histogram,
//!   so the engine's revert guard ensures it never returns something worse;
//! * [`PartitionState::save`] persists assignments, trajectory and drift
//!   counters as a trailer of the service's stream file, and
//!   [`PartitionState::resume`] restores a byte-identical service state
//!   from the trailer plus the delta trace.
//!
//! All repair decisions are deterministic (the flat scorers use no RNG), so
//! a resumed service continues exactly as the uninterrupted one would —
//! the property the `dynamic_quality` suite asserts byte for byte.

use crate::{ColdRestream, DynamicGraph};
use oms_core::executor::{run_restream, run_restream_seeded, LevelTally};
use oms_core::{
    BlockId, JobSpec, NodeSink, PartitionError, PassStats, RepairPolicy, RepairSink,
    RestreamOptions, Result, UNASSIGNED,
};
use oms_graph::io::{
    read_snapshot, write_snapshot, DiskStream, DriftCounters, PartitionSnapshot, SnapshotPass,
};
use oms_graph::{Delta, DeltaBatch, EdgeWeight, NodeId, NodeStream, NodeWeight};
use oms_obs::{CounterId, Event, HistId, Stopwatch};

/// How many deltas [`PartitionState::apply_from`] reads the slab ahead
/// for, once per that many deltas. On the `dynamic_fennel_k32` bench trace
/// (seed 11, 2-vCPU x86-64, CPU time of alternating pairs of
/// `apply-deltas` runs), 16 against no read-ahead: −15.7 % (8 of 8 pairs
/// faster) and −20.7 % (12/12) in a second series; 8 against 16: −1.7 %
/// (8/12) and the same in an earlier series; 32 against 16: +0.5 % (6/12),
/// +10 % (6/16) in an earlier series. 8 and 16 do not separate, and 32
/// gains nothing.
const READ_AHEAD: usize = 16;

/// Bookkeeping of one [`PartitionState::apply`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ApplyStats {
    /// Deltas applied.
    pub deltas: usize,
    /// Local re-scoring steps performed (including ones that kept the
    /// node's block).
    pub rescored: usize,
    /// Re-scored nodes that changed blocks.
    pub moved: usize,
    /// Full restream fallbacks triggered.
    pub restreams: usize,
    /// Wall-clock seconds of the whole call.
    pub seconds: f64,
}

/// Position in a delta trace (a slice of [`DeltaBatch`]es) where processing
/// should continue after [`PartitionState::resume`]: `batch` indexes the
/// slice (equal to its length when the trace was fully consumed), `op` the
/// operation within that batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCursor {
    /// Index of the first unapplied batch.
    pub batch: usize,
    /// Index of the first unapplied operation within that batch.
    pub op: usize,
}

/// A maintained partition: the dynamic graph, the repair sink, its
/// histogram and the drift bookkeeping. See the [crate docs](crate).
pub struct PartitionState {
    job: JobSpec,
    graph: DynamicGraph,
    sink: RepairSink,
    policy: RepairPolicy,
    /// The flat histogram of the sink's assignment over the live graph.
    tally: LevelTally<'static>,
    /// The drift counters but `current_cut`, which is read off `tally`.
    counters: DriftCounters,
    trajectory: Vec<PassStats>,
    /// Per-delta scratch, reused so a warm delta allocates nothing: the
    /// adjacency a node delete removed, and the cascade wave of a repair.
    removed: Vec<(NodeId, EdgeWeight)>,
    wave: Vec<NodeId>,
}

impl std::fmt::Debug for PartitionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionState")
            .field("algorithm", &self.job.algorithm)
            .field("num_blocks", &self.sink.num_blocks())
            .field("live_nodes", &self.graph.num_live_nodes())
            .field("live_edges", &self.graph.num_live_edges())
            .field("edge_cut", &self.edge_cut())
            .field("drift", &self.drift())
            .finish_non_exhaustive()
    }
}

impl PartitionState {
    /// Brings up the service: reads `stream` once into the graph's slab —
    /// which proves the adjacency symmetric, so a one-sided input is a
    /// graph error here — runs the initial (re)streaming passes of `job`'s
    /// algorithm over it, keeps the histogram they tallied and records the
    /// resulting cut as the drift baseline.
    pub fn new(job: &JobSpec, stream: &mut dyn NodeStream) -> Result<Self> {
        // `DynamicGraph::from_stream` takes its counts from the stream
        // header, so the sink is built — and a job that cannot be repaired
        // refused — before the input is read.
        let (n, m) = (stream.num_nodes(), stream.num_edges());
        let mut sink = RepairSink::new(job, n, m, stream.total_node_weight())?;
        let mut graph = DynamicGraph::from_stream(stream)?;
        let opts = RestreamOptions::new(job.passes, job.convergence);
        let mut tally = LevelTally::new(n, sink.num_blocks(), None)?;
        let trajectory = run_restream_seeded(&mut graph, &mut sink, &opts, None, Some(&mut tally))?;
        let cut = tally.edge_cut()?;
        Ok(PartitionState {
            job: job.clone(),
            policy: job.repair,
            graph,
            sink,
            tally,
            counters: DriftCounters {
                baseline_cut: cut,
                ..DriftCounters::default()
            },
            trajectory: trajectory.stats,
            removed: Vec::new(),
            wave: Vec::new(),
        })
    }

    // ------------------------------------------------------------ accessors

    /// The job this service maintains.
    pub fn job(&self) -> &JobSpec {
        &self.job
    }

    /// The live graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Mutable access to the live graph *as a stream* — for running
    /// reference partitioners over the current state. Mutating the graph
    /// directly would desynchronise the maintained partition; apply deltas
    /// through [`PartitionState::apply`] instead.
    pub fn graph_stream(&mut self) -> &mut DynamicGraph {
        &mut self.graph
    }

    /// The maintained edge cut.
    pub fn edge_cut(&self) -> u64 {
        self.tally
            .edge_cut()
            .expect("`apply` refuses a cut past u64::MAX")
    }

    /// The maintained imbalance `max_i c(V_i)/(c(V)/k) − 1`.
    pub fn imbalance(&self) -> f64 {
        self.tally.imbalance()
    }

    /// The maintained assignment, one entry per id-space slot
    /// ([`UNASSIGNED`] for dead ids).
    pub fn assignments(&self) -> &[BlockId] {
        self.sink.assignments()
    }

    /// Current per-block loads.
    pub fn block_weights(&self) -> &[NodeWeight] {
        self.sink.block_weights()
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> u32 {
        self.sink.num_blocks()
    }

    /// The drift counters (cumulative, as persisted in snapshots).
    pub fn counters(&self) -> DriftCounters {
        DriftCounters {
            current_cut: self.edge_cut(),
            ..self.counters
        }
    }

    /// Concatenated pass trajectory of the initial run and every restream
    /// fallback so far.
    pub fn trajectory(&self) -> &[PassStats] {
        &self.trajectory
    }

    /// The drift of the maintained partition since its last full pass:
    /// moved node mass (as a fraction of the live weight) plus relative cut
    /// regression. [`PartitionState::apply`] falls back to a full restream
    /// once this exceeds the job's `drift=` threshold.
    pub fn drift(&self) -> f64 {
        let total = self.graph.live_weight();
        let moved = if total == 0 {
            0.0
        } else {
            self.counters.moved_weight as f64 / total as f64
        };
        let regression = if self.counters.baseline_cut == 0 {
            if self.edge_cut() > 0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            (self.edge_cut() as f64 / self.counters.baseline_cut as f64 - 1.0).max(0.0)
        };
        moved + regression
    }

    // -------------------------------------------------------------- ingest

    /// Applies every delta of `batch`: graph mutation, histogram and load
    /// maintenance, local repair per the job's `repair=` policy, and —
    /// checked after every delta — the drift-triggered full-restream
    /// fallback.
    ///
    /// Fails with a typed error (and stops at the offending delta) when the
    /// batch is inconsistent with the graph: duplicate edge inserts,
    /// deletes of absent edges, self-loop inserts or deletes, references to
    /// dead nodes — or when a delta leaves an edge cut past `u64::MAX`.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<ApplyStats> {
        self.apply_from(batch, 0)
    }

    /// [`PartitionState::apply`] starting at operation `start` of `batch` —
    /// for continuing a batch that was partially applied before a snapshot
    /// (see [`TraceCursor`]).
    pub fn apply_from(&mut self, batch: &DeltaBatch, start: usize) -> Result<ApplyStats> {
        let clock = Stopwatch::start();
        let mut stats = ApplyStats::default();
        for i in start..batch.len() {
            if (i - start).is_multiple_of(READ_AHEAD) {
                self.read_ahead(batch, i);
            }
            self.apply_delta(batch.get(i), &mut stats)?;
            // The cut's readers (`edge_cut`, `drift`) rely on this check.
            self.tally.edge_cut()?;
            self.counters.deltas_applied += 1;
            stats.deltas += 1;
            if self.drift() > self.job.drift {
                self.full_restream()?;
                stats.restreams += 1;
            }
        }
        stats.seconds = clock.seconds();
        self.sink.flush_hot_counters();
        oms_obs::observe(Event::DeltaBatchApplied {
            deltas: stats.deltas as u64,
            rescored: stats.rescored as u64,
            moved: stats.moved as u64,
            restreams: stats.restreams as u64,
            edge_cut: self.edge_cut(),
        });
        oms_obs::counter_add(CounterId::DeltasApplied, stats.deltas as u64);
        oms_obs::counter_add(CounterId::RepairRescored, stats.rescored as u64);
        oms_obs::counter_add(CounterId::RepairMoves, stats.moved as u64);
        oms_obs::hist_record(HistId::DeltaBatchDeltas, stats.deltas as u64);
        Ok(stats)
    }

    /// Reads the slab ahead for deltas `from..from + READ_AHEAD` of `batch`
    /// ([`DynamicGraph::read_ahead`]): the endpoints of an edge delta and a
    /// deleted node. The deltas are not validated yet, and need not be.
    fn read_ahead(&self, batch: &DeltaBatch, from: usize) {
        let mut nodes = [0; 2 * READ_AHEAD];
        let mut len = 0;
        for i in from..batch.len().min(from + READ_AHEAD) {
            match batch.get(i) {
                Delta::EdgeInsert { u, v, .. } | Delta::EdgeDelete { u, v } => {
                    nodes[len..len + 2].copy_from_slice(&[u, v]);
                    len += 2;
                }
                Delta::NodeDelete { node } => {
                    nodes[len] = node;
                    len += 1;
                }
                Delta::NodeInsert { .. } => {}
            }
        }
        std::hint::black_box(self.graph.read_ahead(&nodes[..len]));
    }

    fn apply_delta(&mut self, delta: Delta, stats: &mut ApplyStats) -> Result<()> {
        match delta {
            Delta::EdgeInsert { u, v, w } => {
                self.graph.insert_edge(u, v, w)?;
                self.tally
                    .insert_edge(self.sink.assignment(u), self.sink.assignment(v), w);
                self.retune();
                if self.policy != RepairPolicy::Off {
                    self.repair([u, v], stats);
                }
            }
            Delta::EdgeDelete { u, v } => {
                let w = self.graph.delete_edge(u, v)?;
                self.tally
                    .delete_edge(self.sink.assignment(u), self.sink.assignment(v), w);
                self.retune();
                if self.policy != RepairPolicy::Off {
                    self.repair([u, v], stats);
                }
            }
            Delta::NodeInsert { node, weight } => {
                self.graph.insert_node(node, weight)?;
                self.tally.insert_node(weight);
                self.sink.grow(self.graph.id_space());
                self.retune();
                // A new node must be placed even under `repair=off` — an
                // unassigned live node would leave the partition invalid.
                self.rescore_node(node, stats);
            }
            Delta::NodeDelete { node } => {
                let weight = self.graph.node_weight(node);
                self.graph.delete_node(node, &mut self.removed)?;
                let block = self.sink.assignment(node);
                let removed = std::mem::take(&mut self.removed);
                let assignments = self.sink.assignments();
                self.tally
                    .delete_node(node, block, weight, &removed, assignments);
                self.sink.forget(node, weight);
                self.retune();
                if self.policy != RepairPolicy::Off {
                    self.repair(removed.iter().map(|&(nbr, _)| nbr), stats);
                }
                self.removed = removed;
            }
        }
        Ok(())
    }

    /// Re-derives `L_max` and the Fennel `α` from the live counts.
    fn retune(&mut self) {
        self.sink.retune(
            self.graph.num_live_nodes().max(1),
            self.graph.num_live_edges(),
            self.graph.live_weight(),
        );
    }

    /// One ReFennel step on `v`: unassign, re-score under the live `L_max`,
    /// and fold the (possible) move into the histogram and the drift.
    /// Returns whether `v` changed blocks.
    fn rescore_node(&mut self, v: NodeId, stats: &mut ApplyStats) -> bool {
        if !self.graph.is_alive(v) {
            return false;
        }
        let old = self.sink.assignment(v);
        let new = self.sink.rescore(self.graph.streamed(v));
        stats.rescored += 1;
        if new == old {
            return false;
        }
        // Neighbor assignments are untouched by v's move, so moving v's own
        // entries keeps the histogram that of the sink's assignment.
        let (node, assignments) = (self.graph.streamed(v), self.sink.assignments());
        self.tally.move_node(node, old, new, assignments);
        stats.moved += 1;
        self.counters.moved_weight += self.graph.node_weight(v);
        true
    }

    /// Local repair: one ReFennel step per seed; under
    /// [`RepairPolicy::Boundary`], the neighbors of every moved seed form
    /// one deterministic cascade wave (in id order), which rescores each
    /// that is a boundary node when its turn comes.
    fn repair(&mut self, seeds: impl IntoIterator<Item = NodeId>, stats: &mut ApplyStats) {
        let mut wave = std::mem::take(&mut self.wave);
        wave.clear();
        for v in seeds {
            let moved = self.rescore_node(v, stats);
            if moved && self.policy == RepairPolicy::Boundary {
                wave.extend_from_slice(self.graph.neighbors(v).0);
            }
        }
        wave.sort_unstable();
        wave.dedup();
        std::hint::black_box(self.graph.read_ahead(&wave));
        for &u in &wave {
            if self.is_boundary(u) {
                self.rescore_node(u, stats);
            }
        }
        self.wave = wave;
    }

    /// Whether `v` is a live node with a neighbor in another block.
    fn is_boundary(&self, v: NodeId) -> bool {
        if !self.graph.is_alive(v) {
            return false;
        }
        let b = self.sink.assignment(v);
        let (nbrs, _) = self.graph.neighbors(v);
        nbrs.iter().any(|&u| self.sink.assignment(u) != b)
    }

    // ------------------------------------------------------------ fallback

    /// The full-restream fallback: up to the job's `passes` seeded
    /// restreaming passes over the live graph, guarded so the result is
    /// never worse than the maintained assignment. Resets the drift
    /// baseline. Called automatically by [`PartitionState::apply`]; public
    /// so a service can force a full pass (e.g. before a planned shutdown).
    pub fn full_restream(&mut self) -> Result<()> {
        let baseline: Vec<BlockId> = self.sink.assignments().to_vec();
        // The engine takes the seed's histogram in place of a walk and hands
        // back the one of the partition it leaves.
        let opts = RestreamOptions::new(self.job.passes, self.job.convergence);
        let trajectory = run_restream_seeded(
            &mut self.graph,
            &mut self.sink,
            &opts,
            Some(&baseline),
            Some(&mut self.tally),
        )?;
        self.trajectory.extend(trajectory.stats);
        self.counters.restreams += 1;
        self.counters.moved_weight = 0;
        self.counters.baseline_cut = self.tally.edge_cut()?;
        oms_obs::observe(Event::DriftFallback {
            restreams: self.counters.restreams,
            edge_cut: self.counters.baseline_cut,
        });
        oms_obs::counter_add(CounterId::DriftFallbacks, 1);
        Ok(())
    }

    /// A cold reference solution for the *current* graph: a fresh sink of
    /// the same algorithm, streamed from scratch with the job's pass
    /// budget. This is the quality yardstick incremental maintenance is
    /// compared against (and the cost yardstick: its time is what a
    /// restream-per-checkpoint strategy would pay).
    pub fn cold_restream_reference(&mut self) -> Result<ColdRestream> {
        let mut sink = RepairSink::new(
            &self.job,
            self.graph.id_space(),
            self.graph.num_live_edges(),
            self.graph.live_weight(),
        )?;
        let opts = RestreamOptions::new(self.job.passes, self.job.convergence);
        let clock = Stopwatch::start();
        let trajectory = run_restream(&mut self.graph, &mut sink, &opts)?;
        let seconds = clock.seconds();
        let last = trajectory.stats.last().copied().unwrap_or(PassStats {
            pass: 0,
            edge_cut: 0,
            imbalance: 0.0,
            moved: 0,
            seconds: 0.0,
        });
        Ok(ColdRestream {
            edge_cut: last.edge_cut,
            imbalance: last.imbalance,
            seconds,
        })
    }

    // ------------------------------------------------------------ snapshot

    /// The current service state as a [`PartitionSnapshot`].
    pub fn snapshot(&self) -> PartitionSnapshot {
        PartitionSnapshot {
            num_blocks: self.sink.num_blocks(),
            assignments: self.sink.assignments().to_vec(),
            counters: self.counters(),
            trajectory: self
                .trajectory
                .iter()
                .map(|s| SnapshotPass {
                    pass: s.pass as u32,
                    edge_cut: s.edge_cut,
                    imbalance: s.imbalance,
                    moved: s.moved as u64,
                    seconds: s.seconds,
                })
                .collect(),
        }
    }

    /// Persists the service state as a trailer of its stream file (see
    /// [`oms_graph::io::write_snapshot`]).
    pub fn save(&self, stream: &DiskStream) -> Result<()> {
        write_snapshot(stream, &self.snapshot())?;
        oms_obs::observe(Event::SnapshotWritten {
            deltas_applied: self.counters.deltas_applied,
            edge_cut: self.edge_cut(),
        });
        oms_obs::counter_add(CounterId::SnapshotsWritten, 1);
        Ok(())
    }

    /// Restores a service from `stream`'s snapshot trailer plus the delta
    /// trace it had been fed: the base graph is re-materialised, the first
    /// `deltas_applied` trace operations are replayed as pure graph
    /// mutations (assignments come from the snapshot), and the histogram is
    /// walked from the assignments, its cut checked against the snapshot's.
    /// Returns the state and the [`TraceCursor`] where ingest should
    /// continue.
    ///
    /// Because repair is deterministic, the resumed service is
    /// byte-identical to one that never stopped.
    pub fn resume(
        job: &JobSpec,
        stream: &mut DiskStream,
        trace: &[DeltaBatch],
    ) -> Result<(Self, TraceCursor)> {
        let k = job.num_blocks();
        let snap = read_snapshot(stream)?.ok_or_else(|| {
            PartitionError::InvalidConfig(
                "stream file carries no snapshot trailer to resume from".into(),
            )
        })?;
        if snap.num_blocks != k {
            return Err(PartitionError::InvalidConfig(format!(
                "snapshot was taken for k={} but the job asks for k={k}",
                snap.num_blocks
            )));
        }
        let mut graph = DynamicGraph::from_stream(stream)?;
        let mut removed = Vec::new();
        let mut remaining = snap.counters.deltas_applied;
        let mut cursor = TraceCursor {
            batch: trace.len(),
            op: 0,
        };
        'outer: for (bi, batch) in trace.iter().enumerate() {
            for op in 0..batch.len() {
                if remaining == 0 {
                    cursor = TraceCursor { batch: bi, op };
                    break 'outer;
                }
                Self::replay_delta(&mut graph, batch.get(op), &mut removed)?;
                remaining -= 1;
            }
        }
        if remaining > 0 {
            return Err(PartitionError::InvalidConfig(format!(
                "snapshot records {} applied deltas but the trace holds only {}",
                snap.counters.deltas_applied,
                snap.counters.deltas_applied - remaining
            )));
        }
        if snap.assignments.len() != graph.id_space() {
            return Err(PartitionError::InvalidConfig(format!(
                "snapshot covers {} ids but the replayed trace produces {} — \
                 snapshot and trace disagree",
                snap.assignments.len(),
                graph.id_space()
            )));
        }
        let mut weights: Vec<NodeWeight> = Vec::with_capacity(graph.id_space());
        for v in 0..graph.id_space() {
            let v = v as NodeId;
            let assigned = snap.assignments[v as usize] != UNASSIGNED;
            if assigned != graph.is_alive(v) {
                return Err(PartitionError::InvalidConfig(format!(
                    "node {v} is {} in the replayed graph but {} in the snapshot",
                    if graph.is_alive(v) { "alive" } else { "dead" },
                    if assigned { "assigned" } else { "unassigned" },
                )));
            }
            weights.push(graph.node_weight(v));
        }
        let mut sink = RepairSink::new(
            job,
            graph.id_space(),
            graph.num_live_edges(),
            graph.live_weight(),
        )?;
        sink.seed(&snap.assignments, &weights);
        let mut tally = LevelTally::new(graph.id_space(), k, None)?;
        tally.walk(&mut graph, &snap.assignments)?;
        let measured = tally.edge_cut()?;
        if measured != snap.counters.current_cut {
            return Err(PartitionError::InvalidConfig(format!(
                "snapshot cut {} does not match the replayed graph (measured {measured}) — \
                 the trace is not the one the snapshot was taken under",
                snap.counters.current_cut
            )));
        }
        let trajectory = snap
            .trajectory
            .iter()
            .map(|s| PassStats {
                pass: s.pass as usize,
                edge_cut: s.edge_cut,
                imbalance: s.imbalance,
                moved: s.moved as usize,
                seconds: s.seconds,
            })
            .collect();
        let mut state = PartitionState {
            job: job.clone(),
            policy: job.repair,
            graph,
            sink,
            tally,
            counters: snap.counters,
            trajectory,
            removed: Vec::new(),
            wave: Vec::new(),
        };
        state.retune();
        oms_obs::observe(Event::SnapshotResumed {
            deltas_applied: state.counters.deltas_applied,
            edge_cut: measured,
        });
        oms_obs::counter_add(CounterId::SnapshotsResumed, 1);
        Ok((state, cursor))
    }

    /// Replays one delta as a pure graph mutation (resume path: the
    /// partition state comes from the snapshot, not from repair).
    fn replay_delta(
        graph: &mut DynamicGraph,
        delta: Delta,
        removed: &mut Vec<(NodeId, EdgeWeight)>,
    ) -> Result<()> {
        match delta {
            Delta::EdgeInsert { u, v, w } => graph.insert_edge(u, v, w)?,
            Delta::EdgeDelete { u, v } => {
                graph.delete_edge(u, v)?;
            }
            Delta::NodeInsert { node, weight } => graph.insert_node(node, weight)?,
            Delta::NodeDelete { node } => graph.delete_node(node, removed)?,
        }
        Ok(())
    }
}
