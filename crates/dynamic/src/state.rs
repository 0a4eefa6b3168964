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
//!   the edge cut is maintained incrementally (no metric pass per delta);
//! * under [`RepairPolicy::Local`] the nodes a delta touches are re-scored
//!   in place (one ReFennel step each, under the live balance constraint
//!   `L_max`); [`RepairPolicy::Boundary`] adds one cascade wave over the
//!   boundary neighbors of every node that changed blocks;
//! * a *drift* metric — cumulative moved node mass plus cut regression
//!   since the last full pass — triggers a full restream fallback through
//!   the multi-pass engine once it exceeds the job's `drift=` threshold.
//!   The fallback is seeded with the maintained assignment, so the engine's
//!   revert guard ensures it never returns something worse;
//! * [`PartitionState::save`] persists assignments, trajectory and drift
//!   counters as a trailer of the service's stream file, and
//!   [`PartitionState::resume`] restores a byte-identical service state
//!   from the trailer plus the delta trace.
//!
//! All repair decisions are deterministic (the flat scorers use no RNG), so
//! a resumed service continues exactly as the uninterrupted one would —
//! the property the `dynamic_quality` suite asserts byte for byte.

use crate::{ColdRestream, DynamicGraph};
use oms_core::executor::{run_restream, run_restream_seeded};
use oms_core::{
    measure_pass, BlockId, FlatObjective, JobSpec, NodeSink, PartitionError, PassStats,
    RepairPolicy, RepairSink, RestreamOptions, Result, ALGORITHMS, UNASSIGNED,
};
use oms_graph::io::{
    read_snapshot, write_snapshot, DiskStream, DriftCounters, PartitionSnapshot, SnapshotPass,
};
use oms_graph::{Delta, DeltaBatch, EdgeWeight, NodeId, NodeStream, NodeWeight};
use oms_obs::{CounterId, Event, HistId, Stopwatch};

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

/// A maintained partition: the dynamic graph, the repair sink and the drift
/// bookkeeping. See the [crate docs](crate).
pub struct PartitionState {
    job: JobSpec,
    graph: DynamicGraph,
    sink: RepairSink,
    policy: RepairPolicy,
    cut: u64,
    counters: DriftCounters,
    trajectory: Vec<PassStats>,
    boundary: Vec<bool>,
    boundary_count: usize,
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
            .field("edge_cut", &self.cut)
            .field("drift", &self.drift())
            .finish_non_exhaustive()
    }
}

impl PartitionState {
    /// Resolves `job` (validated like every other consumer of a job does)
    /// to a repair-capable flat objective, or explains why the algorithm
    /// cannot be maintained incrementally.
    fn repair_objective(job: &JobSpec) -> Result<(FlatObjective, u32)> {
        let entry = ALGORITHMS.resolve(job)?;
        let objective = entry
            .supports_repair
            .then(|| FlatObjective::for_algorithm(entry.name))
            .flatten();
        let Some(objective) = objective else {
            return Err(PartitionError::InvalidConfig(format!(
                "algorithm '{}' does not support incremental repair (see `oms algorithms` \
                 for the ones that do)",
                entry.name
            )));
        };
        Ok((objective, job.num_blocks()))
    }

    /// Brings up the service: reads `stream` once into the graph's slab,
    /// runs the initial (re)streaming passes of `job`'s algorithm over it —
    /// whose first pass proves the adjacency symmetric, so a one-sided input
    /// is a graph error here — and records the resulting cut as the drift
    /// baseline.
    pub fn new(job: &JobSpec, stream: &mut dyn NodeStream) -> Result<Self> {
        let (objective, k) = Self::repair_objective(job)?;
        let mut graph = DynamicGraph::from_stream(stream)?;
        let mut sink = RepairSink::new(
            k,
            graph.id_space(),
            graph.num_live_edges(),
            graph.live_weight(),
            job.one_pass_config(),
            objective,
        )?;
        let opts = RestreamOptions::new(job.passes, job.convergence);
        let trajectory = run_restream(&mut graph, &mut sink, &opts)?;
        let cut = trajectory.final_edge_cut().unwrap_or(0);
        let mut state = PartitionState {
            job: job.clone(),
            policy: job.repair,
            graph,
            sink,
            cut,
            counters: DriftCounters {
                baseline_cut: cut,
                current_cut: cut,
                ..DriftCounters::default()
            },
            trajectory: trajectory.stats,
            boundary: Vec::new(),
            boundary_count: 0,
            removed: Vec::new(),
            wave: Vec::new(),
        };
        state.rebuild_boundary();
        Ok(state)
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
        self.cut
    }

    /// The maintained imbalance `max_i c(V_i)/(c(V)/k) − 1`.
    pub fn imbalance(&self) -> f64 {
        let total = self.graph.live_weight();
        if total == 0 {
            return 0.0;
        }
        let avg = total as f64 / self.sink.num_blocks() as f64;
        let max = self.sink.block_weights().iter().copied().max().unwrap_or(0);
        max as f64 / avg - 1.0
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

    /// Number of live boundary nodes (nodes with a neighbor in another
    /// block) — the candidate set of cascade repair.
    pub fn boundary_size(&self) -> usize {
        self.boundary_count
    }

    /// The drift counters (cumulative, as persisted in snapshots).
    pub fn counters(&self) -> DriftCounters {
        DriftCounters {
            current_cut: self.cut,
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
            if self.cut > 0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            (self.cut as f64 / self.counters.baseline_cut as f64 - 1.0).max(0.0)
        };
        moved + regression
    }

    // -------------------------------------------------------------- ingest

    /// Applies every delta of `batch`: graph mutation, incremental cut and
    /// load maintenance, local repair per the job's `repair=` policy, and —
    /// checked after every delta — the drift-triggered full-restream
    /// fallback.
    ///
    /// Fails with a typed error (and stops at the offending delta) when the
    /// batch is inconsistent with the graph: duplicate edge inserts,
    /// deletes of absent edges, references to dead nodes.
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
            self.apply_delta(batch.get(i), &mut stats)?;
            self.counters.deltas_applied += 1;
            stats.deltas += 1;
            if self.drift() > self.job.drift {
                self.full_restream()?;
                stats.restreams += 1;
            }
        }
        self.counters.current_cut = self.cut;
        stats.seconds = clock.seconds();
        self.sink.flush_hot_counters();
        oms_obs::observe(Event::DeltaBatchApplied {
            deltas: stats.deltas as u64,
            rescored: stats.rescored as u64,
            moved: stats.moved as u64,
            restreams: stats.restreams as u64,
            edge_cut: self.cut,
        });
        oms_obs::counter_add(CounterId::DeltasApplied, stats.deltas as u64);
        oms_obs::counter_add(CounterId::RepairRescored, stats.rescored as u64);
        oms_obs::counter_add(CounterId::RepairMoves, stats.moved as u64);
        oms_obs::hist_record(HistId::DeltaBatchDeltas, stats.deltas as u64);
        Ok(stats)
    }

    fn apply_delta(&mut self, delta: Delta, stats: &mut ApplyStats) -> Result<()> {
        match delta {
            Delta::EdgeInsert { u, v, w } => {
                self.graph.insert_edge(u, v, w)?;
                if self.sink.assignment(u) != self.sink.assignment(v) {
                    self.cut += w;
                }
                self.retune();
                self.refresh_boundary(u);
                self.refresh_boundary(v);
                if self.policy != RepairPolicy::Off {
                    self.repair([u, v], stats);
                }
            }
            Delta::EdgeDelete { u, v } => {
                let w = self.graph.delete_edge(u, v)?;
                if self.sink.assignment(u) != self.sink.assignment(v) {
                    self.cut -= w;
                }
                self.retune();
                self.refresh_boundary(u);
                self.refresh_boundary(v);
                if self.policy != RepairPolicy::Off {
                    self.repair([u, v], stats);
                }
            }
            Delta::NodeInsert { node, weight } => {
                self.graph.insert_node(node, weight)?;
                self.sink.grow(self.graph.id_space());
                self.boundary.resize(self.graph.id_space(), false);
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
                for &(nbr, w) in &removed {
                    if self.sink.assignment(nbr) != block {
                        self.cut -= w;
                    }
                }
                self.sink.forget(node, weight);
                self.retune();
                self.refresh_boundary(node);
                for &(nbr, _) in &removed {
                    self.refresh_boundary(nbr);
                }
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

    /// Weight of `v`'s incident edges that cross out of block `b`.
    fn cross_weight(&self, v: NodeId, b: BlockId) -> u64 {
        let (nbrs, wts) = self.graph.neighbors(v);
        nbrs.iter()
            .zip(wts)
            .filter(|&(&u, _)| b == UNASSIGNED || self.sink.assignment(u) != b)
            .map(|(_, &w)| w)
            .sum()
    }

    /// One ReFennel step on `v`: unassign, re-score under the live `L_max`,
    /// and fold the (possible) move into cut, drift and boundary state.
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
        // Neighbor assignments are untouched by v's move, so the cut shifts
        // by exactly v's cross-weight difference.
        let before = self.cross_weight(v, old);
        let after = self.cross_weight(v, new);
        self.cut = self.cut - before + after;
        stats.moved += 1;
        self.counters.moved_weight += self.graph.node_weight(v);
        self.refresh_boundary(v);
        // Refreshing boundary flags leaves the adjacency as it is.
        for i in 0..self.graph.degree(v) {
            self.refresh_boundary(self.graph.neighbors(v).0[i]);
        }
        true
    }

    /// Local repair: one ReFennel step per seed; under
    /// [`RepairPolicy::Boundary`], boundary neighbors of every moved seed
    /// form one deterministic cascade wave.
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
        for &u in &wave {
            if self.boundary.get(u as usize).copied().unwrap_or(false) {
                self.rescore_node(u, stats);
            }
        }
        self.wave = wave;
    }

    // ------------------------------------------------------------ boundary

    fn compute_boundary(&self, v: NodeId) -> bool {
        if !self.graph.is_alive(v) {
            return false;
        }
        let b = self.sink.assignment(v);
        let (nbrs, _) = self.graph.neighbors(v);
        nbrs.iter().any(|&u| self.sink.assignment(u) != b)
    }

    fn refresh_boundary(&mut self, v: NodeId) {
        let now = self.compute_boundary(v);
        let slot = &mut self.boundary[v as usize];
        if now != *slot {
            *slot = now;
            if now {
                self.boundary_count += 1;
            } else {
                self.boundary_count -= 1;
            }
        }
    }

    fn rebuild_boundary(&mut self) {
        self.boundary = vec![false; self.graph.id_space()];
        self.boundary_count = 0;
        for v in 0..self.graph.id_space() {
            let flag = self.compute_boundary(v as NodeId);
            self.boundary[v] = flag;
            self.boundary_count += flag as usize;
        }
    }

    // ------------------------------------------------------------ fallback

    /// The full-restream fallback: up to the job's `passes` seeded
    /// restreaming passes over the live graph, guarded so the result is
    /// never worse than the maintained assignment. Resets the drift
    /// baseline. Called automatically by [`PartitionState::apply`]; public
    /// so a service can force a full pass (e.g. before a planned shutdown).
    pub fn full_restream(&mut self) -> Result<()> {
        let baseline: Vec<BlockId> = self.sink.assignments().to_vec();
        // The seed is the partition this service maintains: its cut and
        // imbalance are already tracked delta by delta, so hand them to the
        // engine instead of paying a second full metric walk (debug builds
        // re-measure and assert agreement).
        let opts = RestreamOptions::new(self.job.passes, self.job.convergence)
            .with_seed_stats(self.cut, self.imbalance());
        let trajectory =
            run_restream_seeded(&mut self.graph, &mut self.sink, &opts, Some(&baseline))?;
        self.cut = trajectory.final_edge_cut().unwrap_or(self.cut);
        self.trajectory.extend(trajectory.stats);
        self.counters.restreams += 1;
        self.counters.moved_weight = 0;
        self.counters.baseline_cut = self.cut;
        self.counters.current_cut = self.cut;
        self.rebuild_boundary();
        oms_obs::observe(Event::DriftFallback {
            restreams: self.counters.restreams,
            edge_cut: self.cut,
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
        let (objective, k) = Self::repair_objective(&self.job)?;
        let mut sink = RepairSink::new(
            k,
            self.graph.id_space(),
            self.graph.num_live_edges(),
            self.graph.live_weight(),
            self.job.one_pass_config(),
            objective,
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
            edge_cut: self.cut,
        });
        oms_obs::counter_add(CounterId::SnapshotsWritten, 1);
        Ok(())
    }

    /// Restores a service from `stream`'s snapshot trailer plus the delta
    /// trace it had been fed: the base graph is re-materialised, the first
    /// `deltas_applied` trace operations are replayed as pure graph
    /// mutations (assignments come from the snapshot), and the maintained
    /// cut is re-measured as a consistency check. Returns the state and the
    /// [`TraceCursor`] where ingest should continue.
    ///
    /// Because repair is deterministic, the resumed service is
    /// byte-identical to one that never stopped.
    pub fn resume(
        job: &JobSpec,
        stream: &mut DiskStream,
        trace: &[DeltaBatch],
    ) -> Result<(Self, TraceCursor)> {
        let (objective, k) = Self::repair_objective(job)?;
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
            k,
            graph.id_space(),
            graph.num_live_edges(),
            graph.live_weight(),
            job.one_pass_config(),
            objective,
        )?;
        sink.seed(&snap.assignments, &weights);
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
            cut: snap.counters.current_cut,
            counters: snap.counters,
            trajectory,
            boundary: Vec::new(),
            boundary_count: 0,
            removed: Vec::new(),
            wave: Vec::new(),
        };
        state.retune();
        state.rebuild_boundary();
        let (measured, _) = measure_pass(&mut state.graph, state.sink.assignments(), k)?;
        if measured != state.cut {
            return Err(PartitionError::InvalidConfig(format!(
                "snapshot cut {} does not match the replayed graph (measured {measured}) — \
                 the trace is not the one the snapshot was taken under",
                state.cut
            )));
        }
        oms_obs::observe(Event::SnapshotResumed {
            deltas_applied: state.counters.deltas_applied,
            edge_cut: state.cut,
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
