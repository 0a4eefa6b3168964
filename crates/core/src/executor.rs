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
//! Reports come out of one level tally (`LevelTally`) with two walks. Within
//! a pass every node is placed exactly once and keeps its block until the
//! next pass, so a measured pass — every pass of a tracked run, and the one
//! pass of a one-pass job whose caller reports on it — is tallied in the
//! drive loop itself, right after each node is placed (`PassTally`): one
//! scan of the input per pass. [`measure`] is one more walk over the rewound
//! stream, for what that cannot cover: a sink that commits later than
//! [`NodeSink::process`] (`buffered`, see [`NodeSink::commits_per_node`]),
//! the seed of a refinement, and assignments that come from elsewhere.

use crate::hierarchy::{DistanceSpec, HierarchySpec, LevelCodes};
use crate::partition::UNASSIGNED;
use crate::{BlockId, PartitionError, Result};
use oms_graph::{GraphError, NodeId, NodeStream, NodeWeight, StreamedNode, SymmetryProof};
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

    /// Writes the sink's current per-block loads `c(V_i)` — the
    /// [`NodeSink::num_blocks`] weights the sink keeps in `O(k)` state
    /// anyway — into `out`, replacing what it held.
    fn block_weights(&self, out: &mut Vec<NodeWeight>);

    /// Puts back a state the sink held before: `assignments` (as long as
    /// [`NodeSink::assignments`]) and the per-block loads
    /// [`NodeSink::block_weights`] reported for them then. A sink keeps one
    /// word per node, its block id, so the loads cannot be re-summed from
    /// node weights; everything else it derives from them (the tree weights
    /// and penalties of the scoring kernel) is rebuilt in `O(k)`. The drive
    /// loop's revert-on-worsen guard is the caller: it keeps the accepted
    /// pass's loads beside its best assignment.
    fn restore(&mut self, assignments: &[BlockId], block_weights: &[NodeWeight]);

    /// Whether [`NodeSink::process`] settles the streamed node's block for
    /// the rest of the pass, as every sink that places a node when it
    /// arrives does (the default): the drive loop then tallies a pass while
    /// it streams. A sink that holds nodes back and commits them later (a
    /// pending batch) returns `false`, and each of its measured passes
    /// costs one more walk over the rewound stream after
    /// [`NodeSink::end_pass`].
    fn commits_per_node(&self) -> bool {
        true
    }
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
    /// Wall time of the pass in seconds, including the tally of its own
    /// cut and imbalance as its nodes are placed (`0.0` for a measured seed
    /// partition). The walk that measures a sink which does not commit per
    /// node ([`NodeSink::commits_per_node`]) is not included.
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassOutcome {
    /// The pass kept or improved the best cut and the run has budget left:
    /// keep going.
    Continue,
    /// The run converged (fixed point, improvement below the threshold, or
    /// a zero cut): stop; the current assignment stands and is recorded.
    Stop,
    /// The pass worsened the cut: restore
    /// [`PassTracker::best_assignment`], then stop.
    Revert,
}

/// The accept / converge / revert bookkeeping shared by every multi-pass
/// driver (this module's engine and `oms-edgepart`'s vertex-cut engine,
/// which feeds it the total replica count as its cut): feed it one measured
/// pass at a time, act on the returned [`PassOutcome`], and take the
/// trajectory at the end. Keeping the rules in one place guarantees that
/// `passes=N` means the same thing no matter what is partitioned.
///
/// A pass is accepted only if it keeps or improves the best cut, so the
/// best assignment is always the last accepted one — the state the next
/// pass starts from, which [`PassTracker::moved`] counts against.
#[derive(Clone, Debug)]
pub struct PassTracker {
    opts: RestreamOptions,
    trajectory: PassTrajectory,
    /// Cut of the best (last accepted) assignment, once there is one.
    best_cut: Option<u64>,
    /// That assignment, overwritten in place by every accepted pass.
    best: Vec<BlockId>,
    pass_no: usize,
}

impl PassTracker {
    /// A tracker for one run under `opts`.
    pub fn new(opts: RestreamOptions) -> Self {
        PassTracker {
            opts,
            trajectory: PassTrajectory::default(),
            best_cut: None,
            best: Vec::new(),
            pass_no: 0,
        }
    }

    /// Records `snapshot` as the best assignment, reusing the buffer.
    fn keep(&mut self, edge_cut: u64, snapshot: &[BlockId]) {
        self.best_cut = Some(edge_cut);
        self.best.clear();
        self.best.extend_from_slice(snapshot);
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
        self.keep(edge_cut, snapshot);
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
        if self.best_cut.is_some_and(|best_cut| edge_cut > best_cut) {
            self.trajectory.converged = true;
            return PassOutcome::Revert;
        }
        self.trajectory.stats.push(PassStats {
            pass: self.pass_no,
            edge_cut,
            imbalance,
            moved,
            seconds,
        });
        let improvement_too_small = self.best_cut.is_some_and(|best_cut| {
            let gained = best_cut.saturating_sub(edge_cut) as f64;
            self.opts.min_improvement > 0.0
                && gained < self.opts.min_improvement * best_cut.max(1) as f64
        });
        self.keep(edge_cut, snapshot);
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
        self.best_cut
    }

    /// The best assignment seen so far — what a [`PassOutcome::Revert`]
    /// restores; empty before any pass or seed was recorded.
    pub fn best_assignment(&self) -> &[BlockId] {
        &self.best
    }

    /// The number of entries of `assignments` — the state a pass left —
    /// that differ from the best assignment, which is the state the pass
    /// started from. Before anything was recorded the run started from
    /// scratch, and every assigned entry counts.
    pub fn moved(&self, assignments: &[BlockId]) -> usize {
        match self.best_cut {
            Some(_) => self
                .best
                .iter()
                .zip(assignments)
                .filter(|(a, b)| a != b)
                .count(),
            None => assignments.iter().filter(|&&b| b != UNASSIGNED).count(),
        }
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
/// unassign-then-reassign mode). Each pass tallies its own edge-cut and
/// imbalance while its nodes are placed — a sink that does not commit per
/// node is measured by a walk after the pass instead — and the engine
///
/// * stops once no node moved in a pass (the run has reached a fixed point —
///   all further passes would reproduce it exactly),
/// * stops once the relative cut improvement falls below
///   [`RestreamOptions::min_improvement`], or the cut is zero, and
/// * reverts a pass that *worsened* the cut (restreaming is greedy and can
///   overshoot) through [`NodeSink::restore`], keeping the best assignment
///   seen and its `k` block loads.
///
/// The tally holds on symmetric adjacency lists only, and the first pass
/// proves that (later passes replay the same stream, see
/// [`NodeStream::reset`], and are proven again in debug builds only): input
/// that lists an edge from one side only fails with a typed graph error.
///
/// A single-pass run (`passes == 1`) places exactly the nodes [`run`] does;
/// tracking only adds the tally.
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
///
/// The caller seeds `sink` with the baseline first (its assignments *are*
/// `baseline`; debug builds assert it): the guard takes the baseline's block
/// loads from the sink.
pub fn run_restream_seeded(
    stream: &mut dyn NodeStream,
    sink: &mut dyn NodeSink,
    opts: &RestreamOptions,
    baseline: Option<&[BlockId]>,
) -> Result<PassTrajectory> {
    drive(stream, sink, Some(opts), baseline, None).map(|(trajectory, _)| trajectory)
}

/// The one drive loop: one untracked pass without `opts`, a tracked run of
/// up to `opts.passes` passes with them, refining `baseline` when one is
/// given.
///
/// `report` asks for the [`Measurement`] of the result under its topology:
/// the one pass of an untracked run is then tallied as its nodes are
/// placed, and a tracked run — which measures every pass
/// anyway — tallies its passes under that topology and returns the
/// measurement of the last accepted pass, the one it leaves in `sink`
/// (`None` when no pass was accepted over a seed). Nothing reads the stream
/// a second time for it. Without `report` the returned measurement is
/// `None`, and an untracked pass tallies nothing.
pub(crate) fn drive(
    stream: &mut dyn NodeStream,
    sink: &mut dyn NodeSink,
    opts: Option<&RestreamOptions>,
    baseline: Option<&[BlockId]>,
    report: Option<ReportTopology<'_>>,
) -> Result<(PassTrajectory, Option<Measurement>)> {
    let mut passes = opts.map_or(1, |opts| opts.passes.max(1));
    let mut tracker = opts.map(|opts| PassTracker::new(*opts));
    let topology = report.flatten();
    let (n, k) = (sink.assignments().len(), sink.num_blocks());
    let mut tally = match (opts, report) {
        (None, None) => None,
        _ => Some(PassTally::new(n, k, topology)?),
    };
    let commits_per_node = sink.commits_per_node();
    let mut accepted: Option<Measurement> = None;
    // The block loads of the tracker's best assignment, overwritten in place
    // like it: what a revert hands back to the sink.
    let mut best_loads: Vec<NodeWeight> = Vec::new();
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
        debug_assert!(
            sink.assignments() == seed,
            "a seeded run's sink must hold the baseline when the run starts"
        );
        sink.block_weights(&mut best_loads);
        let (edge_cut, imbalance) = match opts.seed_stats {
            Some((cut, imbalance)) => {
                // The caller maintains the seed's cut incrementally; trust it
                // instead of recounting with a full walk — but verify the
                // bookkeeping in debug builds.
                #[cfg(debug_assertions)]
                {
                    reset(stream, &mut needs_reset)?;
                    let (measured, _) = measure_pass(stream, seed, k)?;
                    debug_assert_eq!(
                        measured, cut,
                        "incrementally maintained seed cut disagrees with a measured metric pass"
                    );
                }
                (cut, imbalance)
            }
            None => {
                reset(stream, &mut needs_reset)?;
                measure_pass(stream, seed, k)?
            }
        };
        if tracker.seed(edge_cut, imbalance, seed) {
            // The seed is optimal already: no pass runs.
            passes = 0;
        }
    }

    for i in 0..passes {
        reset(stream, &mut needs_reset)?;
        sink.begin_pass(i);
        oms_obs::observe(Event::PassStart { pass: i as u32 });
        let clock = Stopwatch::start();
        // for_each_node, not for_each_batch: in-memory sources serve
        // borrowed CSR slices with no copy, and file sources implement it on
        // top of their batch decoder anyway.
        let mut pass_nodes = 0u64;
        // The first pass proves the symmetry the tally relies on; later
        // passes replay the same stream, so only debug builds prove them
        // again.
        let proving = i == 0 || cfg!(debug_assertions);
        // One closure per case, not one that branches per node: the tally
        // inlines into its closure, and a shared one paid that frame on every
        // node of every untallied pass (≈ 16 ns per node).
        match tally.as_mut().filter(|_| commits_per_node) {
            None => stream.for_each_node(&mut |node| {
                pass_nodes += 1;
                sink.process(node)
            })?,
            Some(tally) if proving => {
                tally.begin_pass();
                stream.for_each_node(&mut |node| {
                    pass_nodes += 1;
                    sink.process(node);
                    tally.second_sightings::<true>(node, sink.assignments());
                })?
            }
            Some(tally) => {
                tally.begin_pass();
                stream.for_each_node(&mut |node| {
                    pass_nodes += 1;
                    sink.process(node);
                    tally.second_sightings::<false>(node, sink.assignments());
                })?
            }
        }
        // Flush before the timing stops: a buffering sink's flush is part of
        // the pass's work, and `assignments` below must see the complete
        // pass.
        sink.end_pass(i);
        let seconds = clock.seconds();
        oms_obs::counter_add(CounterId::RestreamPasses, 1);
        oms_obs::hist_record(HistId::PassMicros, (seconds * 1e6) as u64);

        let untracked_end = || {
            oms_obs::observe(Event::PassEnd {
                pass: i as u32,
                nodes: pass_nodes,
                edge_cut: 0,
                moved: 0,
            })
        };
        let measured = match &tally {
            None => {
                untracked_end();
                continue;
            }
            Some(tally) if commits_per_node => tally.finish()?,
            Some(_) => {
                reset(stream, &mut needs_reset)?;
                measure(stream, sink.assignments(), k, topology)?
            }
        };
        let Some(tracker) = tracker.as_mut() else {
            accepted = Some(measured);
            untracked_end();
            continue;
        };
        let assignments = sink.assignments();
        let moved = tracker.moved(assignments);
        let (edge_cut, imbalance) = (measured.edge_cut, measured.imbalance);
        let last_pass = i + 1 == passes;
        match tracker.observe(last_pass, moved, seconds, edge_cut, imbalance, assignments) {
            PassOutcome::Revert => {
                // The pass overshot; put the best assignment and its loads
                // back. It is the last accepted one, whose measurement is kept
                // already.
                sink.restore(tracker.best_assignment(), &best_loads);
                oms_obs::counter_add(CounterId::RestreamReverts, 1);
                oms_obs::observe(Event::PassReverted {
                    pass: i as u32,
                    kept_cut: tracker.best_cut().unwrap_or(edge_cut),
                });
                break;
            }
            outcome => {
                accepted = Some(measured);
                sink.block_weights(&mut best_loads);
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
    let trajectory = tracker.map_or_else(PassTrajectory::default, PassTracker::finish);
    Ok((trajectory, report.and(accepted)))
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
    /// topology was given.
    pub mapping_cost: Option<u64>,
}

/// The topology a measurement maps onto — hierarchy and PE distances — or
/// `None` for a plain `k`-way report.
pub type ReportTopology<'a> = Option<(&'a HierarchySpec, &'a DistanceSpec)>;

/// Everything a report says about an assignment, tallied one node at a time:
/// block weights for the imbalance and edge weight per *shared level* of the
/// two endpoints' blocks (0 = same block, ℓ = they only share the whole
/// machine; without a topology, 1 = different blocks) — cut, `ω(E)` and `J`
/// all fall out of that one histogram.
///
/// The histogram counts in adjacency *entries*, two per undirected edge, and
/// [`LevelTally::finish`] halves it. Its sums are `u128`, so a doubled sum
/// never wraps: every reported value is exact up to `u64::MAX`, and one past
/// it is a typed graph error. Two walks fill it:
///
/// * [`LevelTally::every_entry`] — the measurement walk ([`measure`]) over a
///   finished assignment: every entry, as it comes;
/// * [`PassTally::second_sightings`] — the drive loop, right after each node
///   is placed: of an edge's two entries exactly one is streamed while the
///   other endpoint is already placed in this pass, and that *second
///   sighting* is tallied for both.
///
/// Under a topology the level comes from the XOR of the two blocks'
/// [`HierarchySpec::level_codes`]; block ids without a code ([`UNASSIGNED`],
/// ids `≥ k`, or every id when the codes would outgrow the assignment array)
/// take [`HierarchySpec::shared_level`]'s divisions, so any `u32` is a valid
/// block id here.
pub(crate) struct LevelTally<'a> {
    topology: ReportTopology<'a>,
    /// [`HierarchySpec::level_codes`], or [`LevelCodes::NONE`] without a
    /// topology or when `k` exceeds the assignment array.
    codes: LevelCodes,
    k: u32,
    block_weights: Vec<NodeWeight>,
    total_node_weight: NodeWeight,
    level_weights: Vec<u128>,
    /// Entries between two unassigned nodes sit on level 0 (same "block",
    /// distance 0) yet count as cut.
    both_unassigned: u128,
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
        let codes = match topology {
            Some((hierarchy, _)) if hierarchy.total_blocks() as usize <= n => {
                hierarchy.level_codes()
            }
            _ => LevelCodes::NONE,
        };
        Ok(LevelTally {
            topology,
            codes,
            k,
            block_weights: vec![0; k as usize],
            total_node_weight: 0,
            level_weights: vec![0; levels + 1],
            both_unassigned: 0,
        })
    }

    /// Empties the histogram for another assignment.
    fn clear(&mut self) {
        self.block_weights.fill(0);
        self.total_node_weight = 0;
        self.level_weights.fill(0);
        self.both_unassigned = 0;
    }

    /// Tallies one node of weight `weight` in block `own` and the given
    /// `(other endpoint's block, entry weight)` pairs of its adjacency.
    #[inline(always)]
    fn node(
        &mut self,
        own: BlockId,
        weight: NodeWeight,
        entries: impl Iterator<Item = (BlockId, u128)>,
    ) {
        self.total_node_weight += weight;
        if let Some(block) = self.block_weights.get_mut(own as usize) {
            *block += weight;
        }
        match self.topology {
            None => {
                let (mut all, mut cut) = (0u128, 0u128);
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
                let codes = &self.codes;
                let own_code = codes.code(own);
                for (other, w) in entries {
                    let level = match (own_code, codes.code(other)) {
                        (Some(a), Some(b)) => codes.shared_level(a, b),
                        _ => hierarchy.shared_level(own, other),
                    };
                    self.level_weights[level] += w;
                }
            }
        }
    }

    /// The measurement walk's step: every adjacency entry of `node` under
    /// the finished `assignments`, each filed in `proof` as well.
    #[inline]
    fn every_entry(
        &mut self,
        node: StreamedNode<'_>,
        assignments: &[BlockId],
        proof: &mut SymmetryProof,
    ) {
        let (this, own) = (node.node, assignments[node.node as usize]);
        let entries = node.neighbors_weighted().map(|(u, w)| {
            proof.walk_entry(this, u, w);
            (assignments[u as usize], u128::from(w))
        });
        self.node(own, node.weight, entries);
        if own == UNASSIGNED {
            for (u, w) in node.neighbors_weighted() {
                if assignments[u as usize] == UNASSIGNED {
                    self.both_unassigned += u128::from(w);
                }
            }
        }
    }

    /// Halves the doubled sums into the [`Measurement`], or fails with a
    /// typed graph error naming a value that exceeds `u64::MAX`.
    fn finish(&self) -> Result<Measurement> {
        let max = self.block_weights.iter().copied().max().unwrap_or(0);
        let average = self.total_node_weight as f64 / self.k.max(1) as f64;
        let imbalance = if average > 0.0 {
            max as f64 / average - 1.0
        } else {
            0.0
        };
        let twice_cut = self.level_weights[1..].iter().sum::<u128>() + self.both_unassigned;
        let mapping_cost = self.topology.map(|(_, distances)| {
            // Saturated, the sum is still beyond `2 · u64::MAX`.
            let twice = self.level_weights[1..]
                .iter()
                .zip(distances.distances())
                .fold(0u128, |sum, (&w, &d)| {
                    sum.saturating_add(w.saturating_mul(u128::from(d)))
                });
            halve(twice, "mapping cost J")
        });
        Ok(Measurement {
            edge_cut: halve(twice_cut, "edge-cut")?,
            imbalance,
            total_edge_weight: halve(self.level_weights.iter().sum(), "total edge weight ω(E)")?,
            mapping_cost: mapping_cost.transpose()?,
        })
    }
}

/// Half of a doubled sum, or a typed graph error naming the `quantity` when
/// the half does not fit in a `u64`.
fn halve(twice: u128, quantity: &str) -> Result<u64> {
    u64::try_from(twice / 2)
        .map_err(|_| GraphError::Invalid(format!("the {quantity} exceeds u64::MAX")).into())
}

/// The drive loop's tally of one pass: a [`LevelTally`] fed right after each
/// node is placed, with the one rule that makes that the measurement of the
/// pass — *visited this pass*. Within a pass every node is processed exactly
/// once and keeps its block until the next pass, so an entry whose other
/// endpoint was visited already sees both endpoints' final blocks for the
/// pass: that second sighting stands for both entries of its edge, and the
/// first one is left to the other side. The rule needs no particular
/// starting state: it holds for a fresh sink, for later passes and for a
/// seeded one alike.
///
/// This is only the measurement walk's histogram when the adjacency lists
/// are symmetric, so a proving pass checks it as it goes
/// ([`PassTally::finish`]).
pub(crate) struct PassTally<'a> {
    levels: LevelTally<'a>,
    /// One bit per slot of the assignment array: processed in this pass.
    visited: Vec<u64>,
    /// The symmetry proof, an entry being the second sighting of its edge
    /// when its other endpoint was visited this pass; empty in a pass that
    /// does not prove.
    proof: SymmetryProof,
}

impl<'a> PassTally<'a> {
    /// A pass tally over `k` blocks for an assignment array of `n` slots
    /// (the sink's, which may exceed the stream's live node count).
    fn new(n: usize, k: u32, topology: ReportTopology<'a>) -> Result<Self> {
        Ok(PassTally {
            levels: LevelTally::new(n, k, topology)?,
            visited: vec![0; n.div_ceil(64)],
            proof: SymmetryProof::default(),
        })
    }

    /// Starts a pass: nothing tallied, nothing visited.
    fn begin_pass(&mut self) {
        self.levels.clear();
        self.visited.fill(0);
        self.proof = SymmetryProof::default();
    }

    /// The drive loop's step, right after `node` was placed for this pass.
    /// An entry whose other endpoint was visited this pass is a second
    /// sighting, one whose other endpoint was not is a first; a self-loop
    /// entry is one entry of the histogram, as [`LevelTally::every_entry`]
    /// files it. `PROVE` adds the entries to the symmetry proof.
    #[inline]
    fn second_sightings<const PROVE: bool>(
        &mut self,
        node: StreamedNode<'_>,
        assignments: &[BlockId],
    ) {
        let (this, own) = (node.node, assignments[node.node as usize]);
        let visited = &self.visited;
        let seen = |u: NodeId| visited[u as usize / 64] & (1 << (u % 64)) != 0;
        let mut sightings = SymmetryProof::default();
        let entries = node.neighbors_weighted().filter_map(|(u, w)| {
            if u == this {
                return Some((own, u128::from(w)));
            }
            let placed = seen(u);
            if PROVE {
                sightings.sight(this, u, w, placed);
            }
            placed.then(|| (assignments[u as usize], 2 * u128::from(w)))
        });
        self.levels.node(own, node.weight, entries);
        if own == UNASSIGNED {
            // What `every_entry` files under `both_unassigned`, doubled for a
            // second sighting like the rest.
            for (u, w) in node.neighbors_weighted() {
                if u == this {
                    self.levels.both_unassigned += u128::from(w);
                } else if seen(u) && assignments[u as usize] == UNASSIGNED {
                    self.levels.both_unassigned += 2 * u128::from(w);
                }
            }
        }
        if PROVE {
            self.proof.merge(sightings);
        }
        self.visited[this as usize / 64] |= 1 << (this % 64);
    }

    /// The pass's [`Measurement`] — only as good as the symmetry the tally
    /// assumed, so a proving pass fails with a typed graph error unless
    /// every first sighting met its second.
    fn finish(&self) -> Result<Measurement> {
        self.proof.check()?;
        self.levels.finish()
    }
}

/// The measurement walk: a single pass over the stream that measures
/// everything a report says about `assignments` — edge-cut, imbalance over
/// `k` blocks (`k == 0` derives the block count from the assignments),
/// `ω(E)` and, under a `topology`, the mapping cost.
///
/// A streaming pass does not come here: every node keeps the block it is
/// placed in until the next pass, so the drive loop tallies the same
/// numbers while it places them (`PassTally`) — the report of a one-pass
/// job and every pass of a multi-pass run. This walk is for what that
/// cannot cover: the seed of a refinement (through [`measure_pass`]), the
/// passes of a sink that commits later than it is fed (`buffered`), the
/// report of a job that is not a streaming pass (`buffered`, `multilevel`,
/// `rms`), an assignment that comes from elsewhere
/// ([`stream_edge_cut`](crate::stream_edge_cut),
/// [`stream_mapping_cost`](crate::api::stream_mapping_cost)) — and it is the
/// reference `tests/equivalence.rs` holds the in-pass tally to.
///
/// Per-edge references stay beside it on purpose, each a loop over a
/// materialised graph that shares no code with this walk:
/// [`Partition::edge_cut`](crate::Partition::edge_cut) (tied to this walk's
/// cut by `tests/properties.rs` and `tests/weighted_equivalence.rs`, which
/// also recounts it per adjacency entry) and `oms_mapping::mapping_cost`
/// (tied to this walk's `J` by `tests/properties.rs::mapping_cost_bounds` on
/// random hierarchies).
///
/// Each undirected edge is seen from both endpoints, so the doubled sums are
/// halved — which holds on symmetric adjacency lists only, so the walk proves
/// them symmetric as it goes ([`SymmetryProof::walk_entry`]) and fails with a
/// typed graph error otherwise. Any `u32` is a valid entry of `assignments`:
/// nodes without a valid block count towards no block, and an unassigned
/// endpoint makes an edge cut whatever the other side holds.
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
    let mut proof = SymmetryProof::default();
    stream.for_each_node(&mut |node| tally.every_entry(node, assignments, &mut proof))?;
    proof.check()?;
    tally.finish()
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
            /// No loads are kept.
            fn block_weights(&self, out: &mut Vec<NodeWeight>) {
                out.clear();
            }
            fn restore(&mut self, assignments: &[BlockId], _: &[NodeWeight]) {
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

    /// Snapshots the wrapped sink's assignment at every `end_pass`: the
    /// assignment each pass left, reverted passes included.
    struct Recording<S> {
        inner: S,
        snapshots: Vec<Vec<BlockId>>,
    }

    impl<S: NodeSink> NodeSink for Recording<S> {
        fn begin_pass(&mut self, pass: usize) {
            self.inner.begin_pass(pass);
        }
        fn process(&mut self, node: StreamedNode<'_>) {
            self.inner.process(node);
        }
        fn end_pass(&mut self, pass: usize) {
            self.inner.end_pass(pass);
            self.snapshots.push(self.inner.assignments().to_vec());
        }
        fn assignments(&self) -> &[BlockId] {
            self.inner.assignments()
        }
        fn num_blocks(&self) -> u32 {
            self.inner.num_blocks()
        }
        fn block_weights(&self, out: &mut Vec<NodeWeight>) {
            self.inner.block_weights(out);
        }
        fn restore(&mut self, assignments: &[BlockId], block_weights: &[NodeWeight]) {
            self.inner.restore(assignments, block_weights);
        }
        fn commits_per_node(&self) -> bool {
            self.inner.commits_per_node()
        }
    }

    /// What a revert must leave in `restored`: the loads its assignment adds
    /// up to under `graph`'s node weights, and a state from which one more
    /// pass over `stream` places every node as it does from `fresh(assignment,
    /// loads)`, a sink seeded with that assignment from scratch.
    fn assert_restored_exactly<S: NodeSink>(
        stream: &mut dyn NodeStream,
        graph: &oms_graph::CsrGraph,
        restored: &mut S,
        fresh: impl FnOnce(&[BlockId], &[NodeWeight]) -> S,
        tag: &str,
    ) {
        let assignments = restored.assignments().to_vec();
        let mut recounted = vec![0; restored.num_blocks() as usize];
        for v in graph.nodes() {
            recounted[assignments[v as usize] as usize] += graph.node_weight(v);
        }
        let mut loads = Vec::new();
        restored.block_weights(&mut loads);
        assert_eq!(loads, recounted, "{tag}: the loads a revert restores");
        let mut fresh = fresh(&assignments, &recounted);
        let mut after = Vec::new();
        for sink in [&mut *restored, &mut fresh] {
            stream.reset().unwrap();
            sink.begin_pass(1);
            stream
                .for_each_node(&mut |node| sink.process(node))
                .unwrap();
            sink.end_pass(1);
            sink.block_weights(&mut loads);
            after.push((sink.assignments().to_vec(), loads.clone()));
        }
        assert!(after[0] == after[1], "{tag}: a pass from the restored sink");
    }

    /// Places node `v` in block `(v + pass) % 3` but leaves every fifth node
    /// unassigned, over an id space `extra` slots larger than the stream (as
    /// a dynamic graph's is): edges between two unassigned nodes count as
    /// cut, and slots nobody streams count towards nothing.
    struct Sparse {
        pass: u32,
        assignments: Vec<BlockId>,
    }

    impl NodeSink for Sparse {
        fn begin_pass(&mut self, pass: usize) {
            self.pass = pass as u32;
        }
        fn process(&mut self, node: StreamedNode<'_>) {
            let v = node.node;
            self.assignments[v as usize] = if v.is_multiple_of(5) {
                UNASSIGNED
            } else {
                (v + self.pass) % 3
            };
        }
        fn assignments(&self) -> &[BlockId] {
            &self.assignments
        }
        fn num_blocks(&self) -> u32 {
            3
        }
        /// No loads are kept.
        fn block_weights(&self, out: &mut Vec<NodeWeight>) {
            out.clear();
        }
        fn restore(&mut self, assignments: &[BlockId], _: &[NodeWeight]) {
            self.assignments.copy_from_slice(assignments);
        }
    }

    /// Every tracked pass tallies its own cut and imbalance while it places
    /// its nodes; the measurement walk over the assignment that pass left
    /// (snapshotted at `end_pass`) is the reference, exactly — for the flat
    /// rules and tree descents of the one kernel, fresh and seeded (the
    /// refinement behind `multilevel:…@passes=`), over every source, unit
    /// and fully weighted. The returned report is the walk over the final
    /// assignment, `J` included, and a reverted pass leaves the last
    /// accepted one in place. On the fully weighted graph a revert restores
    /// the loads exactly, from the `k` the drive loop kept rather than from
    /// node weights (see `assert_restored_exactly`): flat and tree kernels
    /// revert there, and so does the Hashing sink, seeded with a partition
    /// its pass can only cut worse.
    #[test]
    fn every_tracked_pass_tallies_what_the_measurement_walk_finds() {
        use crate::mstree::MultisectionTree;
        use crate::oms::{OmsSink, OnlineMultiSection};
        use crate::onepass::HashingSink;
        use crate::scorer::FlatObjective;
        use crate::{DistanceSpec, HierarchySpec, JobSpec};
        use oms_gen::{barabasi_albert, erdos_renyi_gnm, WeightScheme};
        use oms_graph::io::{write_metis, write_stream_file, DiskStream, MetisStream};
        use oms_graph::NodeOrdering;

        let dir = std::env::temp_dir().join("oms-core-executor-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let (h444, h222) = (HierarchySpec::parse("4:4:4"), HierarchySpec::parse("2:2:2"));
        let (h444, h222) = (h444.unwrap(), h222.unwrap());
        let distances = DistanceSpec::parse("1:10:100").unwrap();
        let job = |text: &str| JobSpec::parse(text).unwrap().seed(3);
        let flat = |text: &str, objective| OnlineMultiSection::flat(&job(text), Some(objective));
        let tree = |text: &str, h: &HierarchySpec| {
            let tree = MultisectionTree::from_hierarchy(h);
            OnlineMultiSection::new(&job(text), tree, Some(FlatObjective::Fennel))
        };
        let kernels: [(&str, OnlineMultiSection, ReportTopology<'_>); 4] = [
            ("fennel:7", flat("fennel:7", FlatObjective::Fennel), None),
            ("ldg:3", flat("ldg:3", FlatObjective::Ldg), None),
            ("oms:4:4:4", tree("oms:4:4:4", &h444), None),
            (
                "oms:2:2:2@dist=1:10:100",
                tree("oms:2:2:2", &h222),
                Some((&h222, &distances)),
            ),
        ];
        let refine = flat("fennel:16", FlatObjective::Fennel);
        let partition = |text: &str, graph| {
            let partitioner = job(text).build().unwrap();
            partitioner
                .partition(&mut InMemoryStream::new(graph))
                .unwrap()
        };
        let graphs = [
            ("er", erdos_renyi_gnm(300, 1500, 41)),
            (
                "ba",
                WeightScheme::Full.apply(&barabasi_albert(300, 3, 7), 9),
            ),
        ];
        let opts = RestreamOptions::new(4, 0.0);
        let mut reverts = 0;
        // Reverts on the fully weighted graph: (flat kernel, tree kernel,
        // Hashing sink).
        let mut weighted_reverts = (0, 0, 0);
        for (name, graph) in &graphs {
            let weighted = *name == "ba";
            let metis_path = dir.join(format!("{name}.graph"));
            let stream_path = dir.join(format!("{name}.oms"));
            write_metis(graph, &metis_path).unwrap();
            write_stream_file(graph, &stream_path).unwrap();
            let seed = partition("hashing:16", graph);
            let (n, m, weight) = (
                graph.num_nodes(),
                graph.num_edges(),
                graph.total_node_weight(),
            );
            let mut sources: Vec<(&str, Box<dyn NodeStream + '_>)> = vec![
                ("memory", Box::new(InMemoryStream::new(graph))),
                (
                    "memory, random order",
                    Box::new(InMemoryStream::with_ordering(
                        graph,
                        NodeOrdering::Random(5),
                    )),
                ),
                ("METIS", Box::new(MetisStream::open(&metis_path).unwrap())),
                (".oms", Box::new(DiskStream::open(&stream_path).unwrap())),
            ];
            for (source, stream) in &mut sources {
                let runs = kernels
                    .iter()
                    .map(|(spec, oms, topology)| (*spec, oms, *topology, None))
                    .chain([("refined fennel:16", &refine, None, Some(&seed))]);
                for (spec, oms, topology, seeded) in runs {
                    let tag = format!("{spec} over {name}, {source}");
                    let mut sink = Recording {
                        inner: OmsSink::new(oms, n, m, weight),
                        snapshots: Vec::new(),
                    };
                    let baseline = seeded.map(|seed| {
                        sink.inner.seed(seed.assignments(), seed.block_weights());
                        seed.assignments()
                    });
                    stream.reset().unwrap();
                    let (trajectory, report) = drive(
                        stream.as_mut(),
                        &mut sink,
                        Some(&opts),
                        baseline,
                        Some(topology),
                    )
                    .unwrap();
                    let k = sink.num_blocks();
                    let mut walk = |assignments: &[BlockId], topology| {
                        stream.reset().unwrap();
                        measure(stream.as_mut(), assignments, k, topology).unwrap()
                    };
                    // A seed is pass 0 of the trajectory; the loop's passes
                    // follow it.
                    let first = baseline.is_some() as usize;
                    let accepted = &trajectory.stats[first..];
                    let mut before = baseline.map_or(vec![UNASSIGNED; n], <[_]>::to_vec);
                    for stats in accepted {
                        let snapshot = &sink.snapshots[stats.pass - first];
                        let measured = walk(snapshot, None);
                        assert_eq!(
                            (stats.edge_cut, stats.imbalance),
                            (measured.edge_cut, measured.imbalance),
                            "{tag}, pass {}",
                            stats.pass
                        );
                        let moved = before.iter().zip(snapshot).filter(|(a, b)| a != b);
                        assert_eq!(stats.moved, moved.count(), "{tag}, pass {}", stats.pass);
                        before.clone_from(snapshot);
                    }
                    let last = sink.assignments().to_vec();
                    let expected = (!accepted.is_empty()).then(|| walk(&last, topology));
                    assert_eq!(report, expected, "{tag}: the report");
                    if sink.snapshots.len() > accepted.len() {
                        assert_eq!(sink.snapshots.len(), accepted.len() + 1, "{tag}");
                        assert_eq!(sink.assignments(), &before[..], "{tag}: reverted");
                        reverts += 1;
                        if weighted {
                            let fresh = |assignments: &[BlockId], loads: &[NodeWeight]| {
                                let mut fresh = OmsSink::new(oms, n, m, weight);
                                fresh.seed(assignments, loads);
                                fresh
                            };
                            let (stream, restored) = (stream.as_mut(), &mut sink.inner);
                            assert_restored_exactly(stream, graph, restored, fresh, &tag);
                            match spec.starts_with("oms") {
                                false => weighted_reverts.0 += 1,
                                true => weighted_reverts.1 += 1,
                            }
                        }
                    }
                }
                if weighted {
                    // A Hashing pass over Fennel's partition cuts far more:
                    // it reverts, and the Fennel loads come back.
                    let fennel = partition("fennel:16", graph);
                    let seeded = |assignments: &[BlockId], loads: &[NodeWeight]| HashingSink {
                        assignments: assignments.to_vec(),
                        block_weights: loads.to_vec(),
                        seed: 3,
                    };
                    let (assignments, loads) = (fennel.assignments(), fennel.block_weights());
                    let mut sink = seeded(assignments, loads);
                    stream.reset().unwrap();
                    let stream = stream.as_mut();
                    let (trajectory, _) =
                        drive(stream, &mut sink, Some(&opts), Some(assignments), None).unwrap();
                    assert_eq!(trajectory.num_passes(), 1, "hashing over {name}, {source}");
                    assert_eq!(sink.assignments(), assignments);
                    let tag = format!("hashing over {name}, {source}");
                    assert_restored_exactly(stream, graph, &mut sink, seeded, &tag);
                    weighted_reverts.2 += 1;
                }
            }
            std::fs::remove_file(&metis_path).ok();
            std::fs::remove_file(&stream_path).ok();
        }
        assert!(reverts > 0, "no run of the matrix reverted a pass");
        let (flat, tree, hashing) = weighted_reverts;
        assert!(
            flat > 0 && tree > 0 && hashing > 0,
            "reverts on the weighted graph: {flat} flat, {tree} tree, {hashing} hashing"
        );

        // Unassigned nodes, and an id space larger than the stream.
        let graph = erdos_renyi_gnm(120, 600, 5);
        for extra in [0, 70] {
            let mut sink = Recording {
                inner: Sparse {
                    pass: 0,
                    assignments: vec![UNASSIGNED; 120 + extra],
                },
                snapshots: Vec::new(),
            };
            let stream = &mut InMemoryStream::new(&graph);
            let (trajectory, report) =
                drive(stream, &mut sink, Some(&opts), None, Some(None)).unwrap();
            for (stats, snapshot) in trajectory.stats.iter().zip(&sink.snapshots) {
                let measured = measure(stream, snapshot, 3, None).unwrap();
                let tally = (stats.edge_cut, stats.imbalance);
                assert_eq!(tally, (measured.edge_cut, measured.imbalance), "{stats:?}");
            }
            let last = measure(stream, sink.assignments(), 3, None).unwrap();
            assert_eq!(report, Some(last));
        }
    }

    /// Ids without a level code — `UNASSIGNED`, ids from `k` on, and every
    /// id of a tally over more blocks than nodes, which builds no codes —
    /// file their entries at `HierarchySpec::shared_level`, as coded ids do.
    #[test]
    fn ids_without_a_level_code_take_the_division_fallback() {
        use crate::{DistanceSpec, HierarchySpec};
        let h = HierarchySpec::parse("3:5:2").unwrap();
        let d = DistanceSpec::parse("1:10:100").unwrap();
        let k = h.total_blocks();
        let ids = [0, 1, 4, 7, 15, 29, k, k + 1, 1000, UNASSIGNED];
        for n in [k as usize, k as usize - 1] {
            let mut tally = LevelTally::new(n, k, Some((&h, &d))).unwrap();
            assert_eq!(tally.codes.code(0).is_some(), n >= k as usize);
            let mut expected = [0u128; 4];
            for (i, &own) in ids.iter().enumerate() {
                let entries = ids.iter().map(|&other| (other, 1 << i));
                tally.node(own, 1, entries);
                for &other in &ids {
                    expected[h.shared_level(own, other)] += 1 << i;
                }
            }
            assert_eq!(tally.level_weights, expected, "n = {n}");
        }
    }

    /// The path 0–1–2 with both edges of weight `w`.
    fn heavy_path(w: oms_graph::EdgeWeight) -> oms_graph::CsrGraph {
        let mut builder = oms_graph::GraphBuilder::new(3);
        builder.add_weighted_edge(0, 1, w).unwrap();
        builder.add_weighted_edge(1, 2, w).unwrap();
        builder.build()
    }

    /// Each edge is tallied from both endpoints, and the doubled sums of
    /// edges of weight `2^62` reach `2^64`: they must not wrap (they gave
    /// a cut, `ω(E)` and `J` of 0), and a value that does not fit in a `u64`
    /// is a typed error naming it, not a saturated `2^64 − 1`. Both walks:
    /// `measure`, and the tally of a job's pass.
    #[test]
    fn measure_is_exact_up_to_u64_max_and_refuses_larger_values() {
        use crate::{DistanceSpec, HierarchySpec, JobSpec};
        let big = 1u64 << 62;
        let path = heavy_path(big);
        let stream = &mut InMemoryStream::new(&path);
        // Blocks 1 2 1: both edges cut.
        let m = measure(stream, &[1, 2, 1], 3, None).unwrap();
        assert_eq!((m.edge_cut, m.total_edge_weight), (2 * big, 2 * big));
        let report = JobSpec::parse("hashing:3").unwrap().build().unwrap();
        let report = report.run(stream).unwrap();
        assert_eq!(report.partition.assignments(), &[1, 2, 1]);
        assert_eq!(report.edge_cut, 2 * big);
        assert_eq!(report.total_edge_weight, Some(2 * big));

        let h = HierarchySpec::parse("3:2").unwrap();
        for (dist, exact) in [("1:1", true), ("1:2", false)] {
            let d = DistanceSpec::parse(dist).unwrap();
            // Blocks 0 and 3 sit in different groups of 3: distance 1 or 2.
            let measured = measure(stream, &[0, 3, 0], 6, Some((&h, &d)));
            match measured {
                Ok(m) if exact => assert_eq!(m.mapping_cost, Some(2 * big), "{dist}"),
                Err(PartitionError::Graph(e)) if !exact => {
                    assert!(e.to_string().contains("mapping cost J"), "{e}")
                }
                other => panic!("dist={dist}: {other:?}"),
            }
        }

        // ω(E) = 2^64.
        let heavier = heavy_path(1 << 63);
        let stream = &mut InMemoryStream::new(&heavier);
        let Err(PartitionError::Graph(e)) = measure(stream, &[0, 0, 0], 1, None) else {
            panic!("ω(E) = 2^64 must not fit");
        };
        assert!(e.to_string().contains("total edge weight ω(E)"), "{e}");
        let fennel = JobSpec::parse("fennel:1").unwrap().build().unwrap();
        assert!(matches!(fennel.run(stream), Err(PartitionError::Graph(_))));
    }
}
