//! The executor: one drive loop for every node partitioner.
//!
//! `oms.rs`, `onepass.rs`, `restream.rs` and `oms-multilevel`'s `buffered`
//! plug a [`NodeSink`] (their scoring/assignment state) into the loop and
//! never touch the stream themselves. Every run is sequential, in stream
//! order, node by node through [`NodeStream::for_each_node`]: in-memory
//! sources hand out borrowed CSR slices with no copy, file sources walk the
//! batches they decode. A sink that works on batches (`buffered` solves
//! every `buf` nodes as one model graph) collects them itself.
//!
//! Three entry points share the loop:
//!
//! * [`run`] — one untracked pass;
//! * [`run_restream`] — up to `P` passes over the same (rewound) stream,
//!   calling [`NodeSink::begin_pass`] before each one so multi-pass
//!   algorithms reuse the same sink. Every pass is measured into a per-pass
//!   [`PassStats`] trajectory, and [`PassTracker`] decides whether the run
//!   goes on, has converged (no node moved, or the edge-cut improvement
//!   dropped below the configured threshold) or reverts a pass that made
//!   the cut worse;
//! * [`run_restream_seeded`] — the same over a sink seeded from an existing
//!   partition, which becomes pass 0.
//!
//! Reports come out of one level tally (`LevelTally`) with two walks. A
//! one-pass job decides every node for good as it streams, so its report is
//! tallied in the drive loop itself, right after each node is placed
//! (`run_measured`): one scan of the input per job. A job that revises
//! decisions is measured by [`measure`], one more walk over the rewound
//! stream — the same walk the multi-pass engine makes after every pass.

use crate::hierarchy::{DistanceSpec, HierarchySpec};
use crate::partition::UNASSIGNED;
use crate::scorer::mix64;
use crate::{BlockId, PartitionError, Result};
use oms_graph::{EdgeWeight, NodeId, NodeStream, NodeWeight, StreamedNode};
use oms_obs::{CounterId, Event, HistId, Stopwatch};

/// A consumer of streamed nodes: the per-algorithm scoring/assignment state
/// that the executor drives.
pub trait NodeSink {
    /// Called once before each pass (`pass` counts from 0). Restreaming
    /// sinks use this to switch into unassign-then-reassign mode.
    fn begin_pass(&mut self, pass: usize) {
        let _ = pass;
    }

    /// Consumes the next node of the stream.
    fn process(&mut self, node: StreamedNode<'_>);

    /// Called once after the last node of each pass, *before* the executor
    /// reads [`NodeSink::assignments`] for the pass's statistics. Sinks
    /// that hold nodes back (a pending batch) place them here, and sinks
    /// drain their per-pass tallies into the observer's counters; the
    /// default does nothing.
    fn end_pass(&mut self, pass: usize) {
        let _ = pass;
    }

    /// The sink's current per-node assignment array ([`UNASSIGNED`] for a
    /// node not placed yet): what [`run_restream`] measures, counts moved
    /// nodes against and snapshots for its revert-on-worsen guard.
    fn assignments(&self) -> &[BlockId];

    /// Number of blocks the sink assigns into (the imbalance of per-pass
    /// stats is over this many blocks).
    fn num_blocks(&self) -> u32;

    /// Restores a previously observed assignment array (same length as
    /// [`NodeSink::assignments`]), rebuilding any derived state (block or
    /// tree weights).
    fn restore(&mut self, assignments: &[BlockId]);
}

/// Quality and movement statistics of one accepted restreaming pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PassStats {
    /// Pass index (0 = the initial streaming pass).
    pub pass: usize,
    /// Edge-cut of the assignment after this pass.
    pub edge_cut: u64,
    /// Imbalance `max_i c(V_i)/(c(V)/k) − 1` after this pass.
    pub imbalance: f64,
    /// Number of nodes whose block changed in this pass, compared with the
    /// state before the pass (`n` for the initial pass of a fresh run,
    /// where every node goes from unassigned to assigned; `0` for a
    /// measured seed partition).
    pub moved: usize,
    /// Wall time of the pass itself (metric passes excluded), in seconds
    /// (`0.0` for a measured seed partition).
    pub seconds: f64,
}

/// The outcome of a multi-pass run: the per-pass quality trajectory and
/// whether the engine stopped before exhausting its pass budget.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassTrajectory {
    /// Stats of every *accepted* pass, in order. A pass that worsened the
    /// edge cut is reverted and not recorded. Empty for an untracked run
    /// ([`run`]).
    pub stats: Vec<PassStats>,
    /// Whether the run stopped before its pass budget was exhausted (no
    /// node moved, improvement below the threshold, or a reverted pass).
    pub converged: bool,
}

impl PassTrajectory {
    /// Final edge-cut of the run, when the trajectory was tracked.
    pub fn final_edge_cut(&self) -> Option<u64> {
        self.stats.last().map(|s| s.edge_cut)
    }

    /// Number of accepted passes.
    pub fn num_passes(&self) -> usize {
        self.stats.len()
    }

    /// Whether every recorded pass kept or improved the edge cut.
    pub fn is_non_increasing(&self) -> bool {
        self.stats
            .windows(2)
            .all(|w| w[1].edge_cut <= w[0].edge_cut)
    }
}

/// Configuration of a multi-pass restreaming run.
#[derive(Clone, Copy, Debug)]
pub struct RestreamOptions {
    /// Maximum number of passes (≥ 1).
    pub passes: usize,
    /// Relative edge-cut improvement below which the run stops (`0.02` =
    /// stop once a pass improves the cut by less than 2 %). `0.0` disables
    /// the threshold; the run still stops when no node moves at all.
    pub min_improvement: f64,
    /// Known `(edge_cut, imbalance)` of the seed baseline, for callers that
    /// already maintain these incrementally (the dynamic layer). When set,
    /// the seeded engine records them instead of recounting the cut with an
    /// extra full metric pass; debug builds still walk the stream once and
    /// assert agreement.
    pub seed_stats: Option<(u64, f64)>,
}

impl RestreamOptions {
    /// A run of up to `passes` passes (at least one) that stops early once a
    /// pass improves the cut by less than `min_improvement` (relative).
    pub fn new(passes: usize, min_improvement: f64) -> Self {
        RestreamOptions {
            passes: passes.max(1),
            min_improvement: min_improvement.max(0.0),
            seed_stats: None,
        }
    }

    /// Declares the seed baseline's already-known `(edge_cut, imbalance)`,
    /// eliminating the engine's seed-measurement pass.
    pub fn with_seed_stats(mut self, edge_cut: u64, imbalance: f64) -> Self {
        self.seed_stats = Some((edge_cut, imbalance));
        self
    }
}

/// The verdict of [`PassTracker::observe`] for one measured pass.
#[derive(Clone, Debug, PartialEq)]
pub enum PassOutcome {
    /// The pass kept or improved the best cut and the run has budget left:
    /// keep going.
    Continue,
    /// The run converged (fixed point, improvement below the threshold, or
    /// a zero cut): stop; the current assignment stands and is recorded.
    Stop,
    /// The pass worsened the cut: restore the contained (best) assignment,
    /// then stop.
    Revert(Vec<BlockId>),
}

/// The accept / converge / revert bookkeeping shared by every multi-pass
/// driver (this module's engine and `oms-edgepart`'s vertex-cut engine,
/// which feeds it the total replica count as its cut): feed it one measured
/// pass at a time, act on the returned [`PassOutcome`], and take the
/// trajectory at the end. Keeping the rules in one place guarantees that
/// `passes=N` means the same thing no matter what is partitioned.
#[derive(Clone, Debug)]
pub struct PassTracker {
    opts: RestreamOptions,
    trajectory: PassTrajectory,
    best: Option<(u64, Vec<BlockId>)>,
    pass_no: usize,
}

impl PassTracker {
    /// A tracker for one run under `opts`.
    pub fn new(opts: RestreamOptions) -> Self {
        PassTracker {
            opts,
            trajectory: PassTrajectory::default(),
            best: None,
            pass_no: 0,
        }
    }

    /// Records a pre-existing partition as pass 0 of the trajectory (used
    /// when the passes refine a seed solution); the revert guard then
    /// protects the seed. Returns `true` when the seed is already optimal
    /// (cut 0) and no pass needs to run.
    pub fn seed(&mut self, edge_cut: u64, imbalance: f64, snapshot: &[BlockId]) -> bool {
        self.trajectory.stats.push(PassStats {
            pass: 0,
            edge_cut,
            imbalance,
            moved: 0,
            seconds: 0.0,
        });
        self.best = Some((edge_cut, snapshot.to_vec()));
        self.pass_no = 1;
        if edge_cut == 0 {
            self.trajectory.converged = true;
            return true;
        }
        false
    }

    /// Records one measured pass (`snapshot` is the assignment it
    /// produced) and decides how the run continues. `last_pass` marks the
    /// final budgeted pass, so the trajectory can distinguish early
    /// convergence from an exhausted budget.
    pub fn observe(
        &mut self,
        last_pass: bool,
        moved: usize,
        seconds: f64,
        edge_cut: u64,
        imbalance: f64,
        snapshot: &[BlockId],
    ) -> PassOutcome {
        if let Some((best_cut, best_assign)) = &self.best {
            if edge_cut > *best_cut {
                self.trajectory.converged = true;
                return PassOutcome::Revert(best_assign.clone());
            }
        }
        self.trajectory.stats.push(PassStats {
            pass: self.pass_no,
            edge_cut,
            imbalance,
            moved,
            seconds,
        });
        let improvement_too_small = match &self.best {
            Some((best_cut, _)) => {
                let gained = best_cut.saturating_sub(edge_cut) as f64;
                self.opts.min_improvement > 0.0
                    && gained < self.opts.min_improvement * (*best_cut).max(1) as f64
            }
            None => false,
        };
        if self.best.as_ref().is_none_or(|(c, _)| edge_cut <= *c) {
            self.best = Some((edge_cut, snapshot.to_vec()));
        }
        let has_prev_state = self.pass_no > 0;
        self.pass_no += 1;
        if has_prev_state && (moved == 0 || improvement_too_small) || edge_cut == 0 {
            self.trajectory.converged = !last_pass;
            return PassOutcome::Stop;
        }
        PassOutcome::Continue
    }

    /// Edge cut of the best assignment seen so far (the one a revert
    /// restores), when any pass or seed has been recorded.
    pub fn best_cut(&self) -> Option<u64> {
        self.best.as_ref().map(|(cut, _)| *cut)
    }

    /// The recorded trajectory.
    pub fn finish(self) -> PassTrajectory {
        self.trajectory
    }
}

/// One untracked pass: feeds `sink` every node of `stream`, in stream order.
pub fn run(stream: &mut dyn NodeStream, sink: &mut dyn NodeSink) -> Result<()> {
    drive(stream, sink, None, None, None).map(|_| ())
}

/// The multi-pass restreaming engine: up to [`RestreamOptions::passes`]
/// sequential passes over the same stream, rewinding it
/// ([`NodeStream::reset`]) before every additional pass.
///
/// From the second pass on, the sink re-scores every node against the
/// previous pass's assignment (its [`NodeSink::begin_pass`] switches it into
/// unassign-then-reassign mode). Each pass is followed by one metric pass
/// measuring edge-cut and imbalance, and the engine
///
/// * stops once no node moved in a pass (the run has reached a fixed point —
///   all further passes would reproduce it exactly),
/// * stops once the relative cut improvement falls below
///   [`RestreamOptions::min_improvement`], or the cut is zero, and
/// * reverts a pass that *worsened* the cut (restreaming is greedy and can
///   overshoot) through [`NodeSink::restore`], keeping the best assignment
///   seen.
///
/// A single-pass run (`passes == 1`) performs exactly the same stream pass
/// as [`run`]; tracking only adds the metric pass.
pub fn run_restream(
    stream: &mut dyn NodeStream,
    sink: &mut dyn NodeSink,
    opts: &RestreamOptions,
) -> Result<PassTrajectory> {
    run_restream_seeded(stream, sink, opts, None)
}

/// [`run_restream`] for a sink seeded from an existing partition
/// (`baseline`): the baseline is measured and recorded as pass 0 of the
/// trajectory, and the revert-on-worsen guard protects it — the run never
/// returns an assignment worse than the seed. Used by the in-memory
/// algorithms whose additional passes are restreaming refinement of their
/// one-shot solution.
pub fn run_restream_seeded(
    stream: &mut dyn NodeStream,
    sink: &mut dyn NodeSink,
    opts: &RestreamOptions,
    baseline: Option<&[BlockId]>,
) -> Result<PassTrajectory> {
    drive(stream, sink, Some(opts), baseline, None)
}

/// The single pass of a one-pass job whose caller reports on the result:
/// [`run`], with the [`Measurement`] of the assignment under `topology`
/// tallied as the nodes are placed — nothing reads the stream a second time.
/// `sink` must be fresh (every node [`UNASSIGNED`]). The tally holds on
/// symmetric adjacency lists only and checks that itself: input that lists
/// an edge from one side only fails with a typed graph error instead of a
/// wrong report.
pub(crate) fn run_measured(
    stream: &mut dyn NodeStream,
    sink: &mut dyn NodeSink,
    topology: ReportTopology<'_>,
) -> Result<Measurement> {
    let mut tally = LevelTally::new(stream.num_nodes(), sink.num_blocks(), topology)?;
    drive(stream, sink, None, None, Some(&mut tally))?;
    tally.finish_proven()
}

/// The one drive loop: one untracked pass without `opts`, a tracked run of
/// up to `opts.passes` passes with them. `placed` is [`run_measured`]'s
/// tally, fed each node right after the sink placed it.
fn drive(
    stream: &mut dyn NodeStream,
    sink: &mut dyn NodeSink,
    opts: Option<&RestreamOptions>,
    baseline: Option<&[BlockId]>,
    mut placed: Option<&mut LevelTally<'_>>,
) -> Result<PassTrajectory> {
    let mut passes = opts.map_or(1, |opts| opts.passes.max(1));
    let mut tracker = opts.map(|opts| PassTracker::new(*opts));
    let mut prev_assign: Vec<BlockId> = Vec::new();
    // The stream starts rewound; every use after the first must rewind it
    // again.
    let mut needs_reset = false;
    let reset = |stream: &mut dyn NodeStream, needs_reset: &mut bool| -> Result<()> {
        if *needs_reset {
            stream.reset()?;
        }
        *needs_reset = true;
        Ok(())
    };

    if let (Some(tracker), Some(opts), Some(seed)) = (tracker.as_mut(), opts, baseline) {
        let (edge_cut, imbalance) = match opts.seed_stats {
            Some((cut, imbalance)) => {
                // The caller maintains the seed's cut incrementally; trust it
                // instead of recounting with a full walk — but verify the
                // bookkeeping in debug builds.
                #[cfg(debug_assertions)]
                {
                    reset(stream, &mut needs_reset)?;
                    let (measured, _) = measure_pass(stream, seed, sink.num_blocks())?;
                    debug_assert_eq!(
                        measured, cut,
                        "incrementally maintained seed cut disagrees with a measured metric pass"
                    );
                }
                (cut, imbalance)
            }
            None => {
                reset(stream, &mut needs_reset)?;
                measure_pass(stream, seed, sink.num_blocks())?
            }
        };
        if tracker.seed(edge_cut, imbalance, seed) {
            // The seed is optimal already: no pass runs.
            passes = 0;
        }
    }

    for i in 0..passes {
        reset(stream, &mut needs_reset)?;
        if tracker.is_some() {
            prev_assign.clear();
            prev_assign.extend_from_slice(sink.assignments());
        }

        sink.begin_pass(i);
        oms_obs::observe(Event::PassStart { pass: i as u32 });
        let clock = Stopwatch::start();
        // for_each_node, not for_each_batch: in-memory sources serve
        // borrowed CSR slices with no copy, and file sources implement it on
        // top of their batch decoder anyway.
        let mut pass_nodes = 0u64;
        // Two closures, not one that branches on `placed`: the tally inlines
        // into its closure, and a shared one paid that frame on every node of
        // every untallied pass (≈ 16 ns per node).
        match placed.as_deref_mut() {
            None => stream.for_each_node(&mut |node| {
                pass_nodes += 1;
                sink.process(node)
            })?,
            Some(tally) => stream.for_each_node(&mut |node| {
                pass_nodes += 1;
                sink.process(node);
                tally.second_sightings(node, sink.assignments());
            })?,
        }
        // Flush before the timing stops: a buffering sink's flush is part of
        // the pass's work, and `assignments` below must see the complete
        // pass.
        sink.end_pass(i);
        let seconds = clock.seconds();
        oms_obs::counter_add(CounterId::RestreamPasses, 1);
        oms_obs::hist_record(HistId::PassMicros, (seconds * 1e6) as u64);

        let Some(tracker) = tracker.as_mut() else {
            oms_obs::observe(Event::PassEnd {
                pass: i as u32,
                nodes: pass_nodes,
                edge_cut: 0,
                moved: 0,
            });
            continue;
        };
        let assignments = sink.assignments();
        let moved = prev_assign
            .iter()
            .zip(assignments)
            .filter(|(a, b)| a != b)
            .count();
        reset(stream, &mut needs_reset)?;
        let (edge_cut, imbalance) = measure_pass(stream, assignments, sink.num_blocks())?;
        let last_pass = i + 1 == passes;
        match tracker.observe(last_pass, moved, seconds, edge_cut, imbalance, assignments) {
            PassOutcome::Revert(best) => {
                // The pass overshot; put the best assignment back.
                sink.restore(&best);
                oms_obs::counter_add(CounterId::RestreamReverts, 1);
                oms_obs::observe(Event::PassReverted {
                    pass: i as u32,
                    kept_cut: tracker.best_cut().unwrap_or(edge_cut),
                });
                break;
            }
            outcome => {
                oms_obs::observe(Event::PassEnd {
                    pass: i as u32,
                    nodes: pass_nodes,
                    edge_cut,
                    moved: moved as u64,
                });
                oms_obs::hist_record(HistId::PassMoved, moved as u64);
                if outcome == PassOutcome::Stop {
                    break;
                }
            }
        }
    }
    Ok(tracker.map_or_else(PassTrajectory::default, PassTracker::finish))
}

/// What one measurement walk finds for an assignment (see [`measure`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measurement {
    /// Weighted edge-cut: total weight of the edges whose endpoints sit in
    /// different blocks or have an unassigned endpoint.
    pub edge_cut: u64,
    /// Imbalance `max_i c(V_i)/(c(V)/k) − 1`.
    pub imbalance: f64,
    /// Total edge weight `ω(E)` of the streamed graph.
    pub total_edge_weight: u64,
    /// Mapping cost `J(C, D, Π) = Σ ω(u,v) · D(Π(u), Π(v))`, when a
    /// topology was given (saturating at `u64::MAX`).
    pub mapping_cost: Option<u64>,
}

/// The topology a measurement maps onto — hierarchy and PE distances — or
/// `None` for a plain `k`-way report.
pub type ReportTopology<'a> = Option<(&'a HierarchySpec, &'a DistanceSpec)>;

/// Direction-independent hash of one adjacency entry (one [`mix64`] over the
/// ordered endpoint pair and the weight): `u`'s entry for `v` and `v`'s
/// entry for `u` hash alike exactly when their weights agree.
#[inline]
fn entry_hash(u: NodeId, v: NodeId, w: EdgeWeight) -> u64 {
    let (lo, hi) = if u < v { (u, v) } else { (v, u) };
    mix64((((lo as u64) << 32) | hi as u64) ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Everything a report says about an assignment, tallied one node at a time:
/// block weights for the imbalance and edge weight per *shared level* of the
/// two endpoints' blocks (0 = same block, ℓ = they only share the whole
/// machine; without a topology, 1 = different blocks) — cut, `ω(E)` and `J`
/// all fall out of that one histogram.
///
/// The histogram counts in adjacency *entries*, two per undirected edge, and
/// [`LevelTally::finish`] halves it. Two walks fill it:
///
/// * [`LevelTally::every_entry`] — the measurement walk ([`measure`]) over a
///   finished assignment: every entry, as it comes;
/// * [`LevelTally::second_sightings`] — the drive loop of a one-pass job,
///   right after each node is placed: of an edge's two entries exactly one
///   is streamed while the other endpoint is already placed, and that
///   *second sighting* is tallied for both. This is only the same histogram
///   when the adjacency lists are symmetric, so the walk proves it as it
///   goes ([`LevelTally::finish_proven`]).
///
/// Under a topology the level comes from [`HierarchySpec::group_table`];
/// block ids the table does not cover ([`UNASSIGNED`], ids `≥ k`, or every
/// id when the table would outgrow the assignment array) take
/// [`HierarchySpec::shared_level`]'s divisions, so any `u32` is a valid
/// block id here.
pub(crate) struct LevelTally<'a> {
    topology: ReportTopology<'a>,
    levels: usize,
    /// [`HierarchySpec::group_table`]: `levels` columns per covered block.
    table: Vec<u32>,
    k: u32,
    block_weights: Vec<NodeWeight>,
    total_node_weight: NodeWeight,
    level_weights: Vec<EdgeWeight>,
    /// Entries between two unassigned nodes sit on level 0 (same "block",
    /// distance 0) yet count as cut.
    both_unassigned: EdgeWeight,
    /// The symmetry proof of the second-sightings walk: a wrapping sum of
    /// `+entry_hash` per first sighting and `−entry_hash` per second, and
    /// the edge weight seen either way. Unlike an XOR it counts
    /// multiplicities: an edge listed four times from one side and never
    /// from the other does not cancel.
    fingerprint: u64,
    first_sighted: EdgeWeight,
    second_sighted: EdgeWeight,
}

impl<'a> LevelTally<'a> {
    /// A tally over `k` blocks for an assignment array of `n` nodes.
    pub(crate) fn new(n: usize, k: u32, topology: ReportTopology<'a>) -> Result<Self> {
        let levels = match topology {
            Some((hierarchy, distances)) if distances.num_levels() < hierarchy.num_levels() => {
                return Err(PartitionError::InvalidSpec(format!(
                    "the distance spec has {} levels but the hierarchy has {}",
                    distances.num_levels(),
                    hierarchy.num_levels()
                )))
            }
            Some((hierarchy, _)) => hierarchy.num_levels(),
            None => 1,
        };
        let table = match topology {
            Some((hierarchy, _)) if hierarchy.total_blocks() as usize <= n => {
                hierarchy.group_table()
            }
            _ => Vec::new(),
        };
        Ok(LevelTally {
            topology,
            levels,
            table,
            k,
            block_weights: vec![0; k as usize],
            total_node_weight: 0,
            level_weights: vec![0; levels + 1],
            both_unassigned: 0,
            fingerprint: 0,
            first_sighted: 0,
            second_sighted: 0,
        })
    }

    /// Tallies one node of weight `weight` in block `own` and the given
    /// `(other endpoint's block, entry weight)` pairs of its adjacency.
    #[inline(always)]
    fn node(
        &mut self,
        own: BlockId,
        weight: NodeWeight,
        entries: impl Iterator<Item = (BlockId, EdgeWeight)>,
    ) {
        self.total_node_weight += weight;
        if let Some(block) = self.block_weights.get_mut(own as usize) {
            *block += weight;
        }
        match self.topology {
            None => {
                let (mut all, mut cut) = (0u64, 0u64);
                for (other, w) in entries {
                    all += w;
                    if other != own {
                        cut += w;
                    }
                }
                self.level_weights[0] += all - cut;
                self.level_weights[1] += cut;
            }
            Some((hierarchy, _)) => {
                let (table, levels) = (&self.table, self.levels);
                let covered = table.len() / levels;
                let row = |block: BlockId| {
                    ((block as usize) < covered)
                        .then(|| &table[block as usize * levels..][..levels])
                };
                let own_row = row(own);
                for (other, w) in entries {
                    let level = match (own_row, row(other)) {
                        (Some(a), Some(b)) => a.iter().zip(b).filter(|(x, y)| x != y).count(),
                        _ => hierarchy.shared_level(own, other),
                    };
                    self.level_weights[level] += w;
                }
            }
        }
    }

    /// The measurement walk's step: every adjacency entry of `node` under
    /// the finished `assignments`.
    #[inline]
    fn every_entry(&mut self, node: StreamedNode<'_>, assignments: &[BlockId]) {
        let own = assignments[node.node as usize];
        let entries = node.neighbors_weighted();
        self.node(
            own,
            node.weight,
            entries.map(|(u, w)| (assignments[u as usize], w)),
        );
        if own == UNASSIGNED {
            for (u, w) in node.neighbors_weighted() {
                if assignments[u as usize] == UNASSIGNED {
                    self.both_unassigned += w;
                }
            }
        }
    }

    /// The one-pass drive loop's step, right after `node` was placed for
    /// good: an entry whose other endpoint is placed already is its edge's
    /// second sighting and stands for both entries of it; one whose other
    /// endpoint is still [`UNASSIGNED`] is a first sighting, left to the
    /// other side. A self-loop entry is one entry of the histogram, as
    /// [`LevelTally::every_entry`] files it.
    #[inline]
    pub(crate) fn second_sightings(&mut self, node: StreamedNode<'_>, assignments: &[BlockId]) {
        let (this, own) = (node.node, assignments[node.node as usize]);
        let (mut fingerprint, mut first, mut second) = (0u64, 0u64, 0u64);
        let entries = node.neighbors_weighted().filter_map(|(u, w)| {
            if u == this {
                return Some((own, w));
            }
            let other = assignments[u as usize];
            let hash = entry_hash(this, u, w);
            if other == UNASSIGNED {
                fingerprint = fingerprint.wrapping_add(hash);
                first += w;
                None
            } else {
                fingerprint = fingerprint.wrapping_sub(hash);
                second += w;
                Some((other, 2 * w))
            }
        });
        self.node(own, node.weight, entries);
        self.fingerprint = self.fingerprint.wrapping_add(fingerprint);
        self.first_sighted += first;
        self.second_sighted += second;
    }

    /// [`LevelTally::finish`] for the second-sightings walk, which is only
    /// as good as the symmetry it assumed: every first sighting must have
    /// met its second.
    pub(crate) fn finish_proven(self) -> Result<Measurement> {
        if self.fingerprint != 0 || self.first_sighted != self.second_sighted {
            return Err(oms_graph::GraphError::Invalid(
                "adjacency lists are not symmetric: some edge is not listed from both of its \
                 endpoints equally often with the same weight"
                    .into(),
            )
            .into());
        }
        Ok(self.finish())
    }

    /// Halves the doubled sums into the [`Measurement`].
    fn finish(self) -> Measurement {
        let max = self.block_weights.iter().copied().max().unwrap_or(0);
        let average = self.total_node_weight as f64 / self.k.max(1) as f64;
        let imbalance = if average > 0.0 {
            max as f64 / average - 1.0
        } else {
            0.0
        };
        let twice_cut = self.level_weights[1..].iter().sum::<u64>() + self.both_unassigned;
        let mapping_cost = self.topology.map(|(_, distances)| {
            let twice = self.level_weights[1..]
                .iter()
                .zip(distances.distances())
                .fold(0u64, |sum, (&w, &d)| {
                    sum.saturating_add(w.saturating_mul(d))
                });
            twice / 2
        });
        Measurement {
            edge_cut: twice_cut / 2,
            imbalance,
            total_edge_weight: self.level_weights.iter().sum::<u64>() / 2,
            mapping_cost,
        }
    }
}

/// The measurement walk: a single pass over the stream that measures
/// everything a report says about `assignments` — edge-cut, imbalance over
/// `k` blocks (`k == 0` derives the block count from the assignments),
/// `ω(E)` and, under a `topology`, the mapping cost.
///
/// A one-pass job does not come here: its decisions are final as each node
/// streams, so [`Partitioner::run`](crate::Partitioner::run) gets the same
/// numbers out of the partition pass itself (`LevelTally`'s other walk).
/// This walk is for what that cannot cover — the per-pass cut of a
/// multi-pass run and the seed of a refinement (through [`measure_pass`]),
/// the report of a job that revises its decisions (`passes > 1`, `buffered`,
/// `multilevel`, `rms`), an assignment that comes from elsewhere
/// ([`stream_edge_cut`](crate::stream_edge_cut),
/// [`stream_mapping_cost`](crate::api::stream_mapping_cost)) — and it is the
/// reference `tests/equivalence.rs` holds the one-pass tally to.
///
/// Three per-edge references stay beside it on purpose, each a loop over a
/// materialised graph that shares no code with this walk:
/// [`Partition::edge_cut`](crate::Partition::edge_cut),
/// `oms_metrics::edge_cut` (tied to each other by `tests/properties.rs` and
/// to this walk's cut by `tests/weighted_equivalence.rs`) and
/// `oms_mapping::mapping_cost` (tied to this walk's `J` by
/// `tests/properties.rs::mapping_cost_bounds` on random hierarchies).
///
/// Each undirected edge is seen from both endpoints, so the doubled sums are
/// halved. Any `u32` is a valid entry of `assignments`: nodes without a
/// valid block count towards no block, and an unassigned endpoint makes an
/// edge cut whatever the other side holds.
pub fn measure(
    stream: &mut dyn NodeStream,
    assignments: &[BlockId],
    k: u32,
    topology: ReportTopology<'_>,
) -> Result<Measurement> {
    let k = if k == 0 {
        assignments
            .iter()
            .filter(|&&b| b != UNASSIGNED)
            .map(|&b| b + 1)
            .max()
            .unwrap_or(1)
    } else {
        k
    };
    let mut tally = LevelTally::new(assignments.len(), k, topology)?;
    stream.for_each_node(&mut |node| tally.every_entry(node, assignments))?;
    Ok(tally.finish())
}

/// Edge-cut and imbalance of `assignments` over `k` blocks: [`measure`]
/// without a topology.
pub fn measure_pass(
    stream: &mut dyn NodeStream,
    assignments: &[BlockId],
    k: u32,
) -> Result<(u64, f64)> {
    measure(stream, assignments, k, None).map(|m| (m.edge_cut, m.imbalance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oms_graph::{InMemoryStream, NodeId};

    #[test]
    fn executor_feeds_sink_in_stream_order() {
        /// Records the stream order and puts node `v` into block
        /// `(v + pass) % 2`: every pass moves every node and cuts the same
        /// edges, so a tracked run neither converges nor reverts early.
        struct Collect {
            order: Vec<NodeId>,
            passes: usize,
            assignments: Vec<BlockId>,
        }
        impl NodeSink for Collect {
            fn begin_pass(&mut self, pass: usize) {
                self.passes = pass + 1;
            }
            fn process(&mut self, node: StreamedNode<'_>) {
                self.order.push(node.node);
                self.assignments[node.node as usize] = (node.node + self.passes as u32) % 2;
            }
            fn assignments(&self) -> &[BlockId] {
                &self.assignments
            }
            fn num_blocks(&self) -> u32 {
                2
            }
            fn restore(&mut self, assignments: &[BlockId]) {
                self.assignments.copy_from_slice(assignments);
            }
        }
        let g = oms_gen::planted_partition(97, 4, 0.2, 0.02, 1);
        let mut sink = Collect {
            order: Vec::new(),
            passes: 0,
            assignments: vec![UNASSIGNED; 97],
        };
        run(&mut InMemoryStream::new(&g), &mut sink).unwrap();
        assert_eq!(sink.order, (0..97).collect::<Vec<NodeId>>());
        assert_eq!(sink.passes, 1);

        sink.order.clear();
        sink.assignments.fill(UNASSIGNED);
        let opts = RestreamOptions::new(3, 0.0);
        let trajectory = run_restream(&mut InMemoryStream::new(&g), &mut sink, &opts).unwrap();
        assert_eq!(sink.order.len(), 3 * 97);
        assert_eq!(sink.passes, 3);
        assert_eq!(trajectory.num_passes(), 3);
        assert!(!trajectory.converged);
        assert!(trajectory.stats.iter().all(|s| s.moved == 97));
    }
}
