//! The executor: one drive loop for every node partitioner.
//!
//! `oms.rs`, `onepass.rs`, `restream.rs` and `oms-multilevel`'s `buffered`
//! plug a [`NodeSink`] (their scoring/assignment state) into the loop and
//! never touch the stream themselves. Every run is sequential, in stream
//! order, node by node through [`NodeStream::for_each_node`]: in-memory
//! sources hand out borrowed CSR slices with no copy, file sources walk the
//! batches they decode. A sink that works on batches (`buffered` solves
//! every `buf` nodes as one model graph) collects them itself, and is
//! driven by [`run`] alone.
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
//! Reports come out of one level tally ([`LevelTally`]; the dynamic layer
//! keeps one across its deltas). Within a pass every
//! node is placed exactly once and keeps its block until the next pass, so a
//! measured pass — every pass of a tracked run, and the one pass of a
//! one-pass job whose caller reports on it — is tallied in the drive loop
//! itself (`PassTally`), with no scan of its own. The first walk of a run
//! fills the whole histogram: pass 0, right after each node is placed, or
//! the measurement of a seed. Every later pass starts from the last accepted
//! histogram and moves only the entries of the nodes it moves, so a pass
//! that has nearly converged costs `O(Σ deg(moved))` to measure, not
//! `O(m)`. [`measure`] is one more walk over the rewound stream, for what
//! that cannot cover: the partition of a job that is not a streaming pass
//! (`buffered`, `multilevel`, `rms`), the seed of a refinement, and
//! assignments that come from elsewhere.

use crate::hierarchy::{DistanceSpec, HierarchySpec, LevelCodes};
use crate::partition::UNASSIGNED;
use crate::{BlockId, PartitionError, Result};
use oms_graph::{
    EdgeWeight, GraphError, NodeId, NodeStream, NodeWeight, StreamedNode, SymmetryProof,
};
use oms_obs::{CounterId, Event, HistId, Stopwatch};

/// A consumer of streamed nodes: the per-algorithm scoring/assignment state
/// that the executor drives.
///
/// A tracked or reporting drive measures a pass while it streams: it reads
/// the node's block before and after [`NodeSink::process`], and when the
/// two differ it moves that node's adjacency entries in the histogram of
/// the assignment the pass started from. So `process(node)` must settle
/// `node`'s block for the rest of the pass and change no block but `node`'s
/// own, as every sink that places a node when it arrives does. A sink that
/// holds nodes back and commits them later (a pending batch) may be driven
/// only untracked, through [`run`]; its caller measures the result.
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
    /// cut and imbalance as its nodes are placed or moved (`0.0` for a
    /// measured seed partition, or the time of the solve that produced it
    /// when an in-memory job refines its own partition).
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
}

impl RestreamOptions {
    /// A run of up to `passes` passes (at least one) that stops early once a
    /// pass improves the cut by less than `min_improvement` (relative).
    pub fn new(passes: usize, min_improvement: f64) -> Self {
        RestreamOptions {
            passes: passes.max(1),
            min_improvement: min_improvement.max(0.0),
        }
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
/// The only drive for a sink that holds nodes back (see [`NodeSink`]).
pub fn run(stream: &mut dyn NodeStream, sink: &mut dyn NodeSink) -> Result<()> {
    drive(stream, sink, None, None, None, None).map(|_| ())
}

/// The multi-pass restreaming engine: up to [`RestreamOptions::passes`]
/// sequential passes over the same stream, rewinding it
/// ([`NodeStream::reset`]) before every additional pass.
///
/// From the second pass on, the sink re-scores every node against the
/// previous pass's assignment (its [`NodeSink::begin_pass`] switches it into
/// unassign-then-reassign mode). Each pass is measured — edge-cut and
/// imbalance — while it places its nodes: the first one tallies every
/// adjacency entry, and each later one updates the histogram of the last
/// accepted pass for the nodes it moves alone. The engine
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
    run_restream_seeded(stream, sink, opts, None, None)
}

/// [`run_restream`] for a sink seeded from an existing partition
/// (`baseline`): the baseline is measured and recorded as pass 0 of the
/// trajectory, and the revert-on-worsen guard protects it — the run never
/// returns an assignment worse than the seed. Used by the in-memory
/// algorithms whose additional passes are restreaming refinement of their
/// one-shot solution. The seed's measurement walk is the run's full tally
/// (and its symmetry proof): every pass after it measures only the nodes it
/// moves. A `histogram` the caller keeps (the dynamic layer) replaces that
/// walk over a stream that proves its passes ([`NodeStream::proves_symmetry`];
/// debug builds walk the seed and compare), and receives the histogram of the
/// assignment the run leaves in `sink`, copied as each pass is accepted, so a
/// revert walks nothing. Without a baseline it only receives.
///
/// The caller seeds `sink` with the baseline first (its assignments *are*
/// `baseline`; debug builds assert it): the guard takes the baseline's block
/// loads from the sink.
pub fn run_restream_seeded(
    stream: &mut dyn NodeStream,
    sink: &mut dyn NodeSink,
    opts: &RestreamOptions,
    baseline: Option<&[BlockId]>,
    histogram: Option<&mut LevelTally<'_>>,
) -> Result<PassTrajectory> {
    drive(stream, sink, Some(opts), baseline, None, histogram).map(|(trajectory, _)| trajectory)
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
///
/// A tracked run fills its histogram once, in its first walk over the
/// stream — pass 0's tally ([`PassTally::second_sightings`]), or the seed's
/// measurement walk — which also proves the lists symmetric. From then on
/// the histogram is the full tally of the sink's current assignment, and a
/// pass keeps it so by moving the entries of each node whose block
/// `process` changed ([`PassTally::moved`]); after an accepted pass it is
/// that pass's histogram. Debug builds tally each such pass the first way
/// as well, proving it, and assert that both give the same [`Measurement`].
/// `oms_tally_entries_total` counts the entries the histogram reads: all of
/// them in the first walk, a mover's in a later pass, none of a handed-in
/// `histogram` ([`run_restream_seeded`]; its topology is the run's).
pub(crate) fn drive(
    stream: &mut dyn NodeStream,
    sink: &mut dyn NodeSink,
    opts: Option<&RestreamOptions>,
    baseline: Option<&[BlockId]>,
    report: Option<ReportTopology<'_>>,
    mut histogram: Option<&mut LevelTally<'_>>,
) -> Result<(PassTrajectory, Option<Measurement>)> {
    let mut passes = opts.map_or(1, |opts| opts.passes.max(1));
    let mut tracker = opts.map(|opts| PassTracker::new(*opts));
    let topology = histogram
        .as_ref()
        .map_or(report.flatten(), |histogram| histogram.topology);
    let (n, k) = (sink.assignments().len(), sink.num_blocks());
    let mut tally = match (opts, report) {
        (None, None) => None,
        _ => Some(PassTally::new(n, k, topology)?),
    };
    let stream_proves = stream.proves_symmetry();
    // A full tally proves the symmetry it relies on, unless the stream
    // proves each pass itself and fails it through `for_each_node`, before
    // the tally is read.
    let proving = !stream_proves;
    // Whether the tally's histogram is the full tally of the sink's current
    // assignment, so that a pass measures itself by its movers.
    let mut primed = false;
    // The debug builds' second tally of a pass measured by its movers.
    #[cfg(debug_assertions)]
    let mut cross_check = opts.map(|_| PassTally::new(n, k, topology)).transpose()?;
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

    if let (Some(tracker), Some(seed), Some(tally)) = (tracker.as_mut(), baseline, tally.as_mut()) {
        debug_assert!(
            sink.assignments() == seed,
            "a seeded run's sink must hold the baseline when the run starts"
        );
        sink.block_weights(&mut best_loads);
        let levels = &mut tally.levels;
        match histogram.as_deref_mut() {
            // The caller keeps the seed's histogram: take it instead of
            // walking — but check it in debug builds.
            Some(histogram) if stream_proves => {
                levels.copy_from(histogram);
                #[cfg(debug_assertions)]
                {
                    reset(stream, &mut needs_reset)?;
                    let mut walked = LevelTally::new(n, k, topology)?;
                    walked.walk(stream, seed)?;
                    assert!(
                        walked.histogram() == levels.histogram(),
                        "the histogram handed in disagrees with a walk of the seed"
                    );
                }
            }
            histogram => {
                reset(stream, &mut needs_reset)?;
                levels.walk(stream, seed)?;
                if let Some(histogram) = histogram {
                    histogram.copy_from(levels);
                }
            }
        }
        let measured = levels.flat()?;
        oms_obs::counter_add(CounterId::TallyEntries, levels.take_entries());
        primed = true;
        if tracker.seed(measured.edge_cut, measured.imbalance, seed) {
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
        // One closure per case, not one that branches per node: the tally
        // inlines into its closure, and a shared one paid that frame on every
        // node of every untallied pass (≈ 16 ns per node).
        match tally.as_mut() {
            None => stream.for_each_node(&mut |node| {
                pass_nodes += 1;
                sink.process(node)
            })?,
            Some(tally) if primed => {
                #[cfg(debug_assertions)]
                let check = {
                    let check = cross_check.as_mut().expect("a tracked run's cross-check");
                    check.begin_pass();
                    check
                };
                stream.for_each_node(&mut |node| {
                    pass_nodes += 1;
                    let old = sink.assignments()[node.node as usize];
                    sink.process(node);
                    tally.moved(node, old, sink.assignments());
                    #[cfg(debug_assertions)]
                    match proving {
                        true => check.second_sightings::<true>(node, sink.assignments()),
                        false => check.second_sightings::<false>(node, sink.assignments()),
                    }
                })?
            }
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
        let Some(tally) = tally.as_mut() else {
            untracked_end();
            continue;
        };
        oms_obs::counter_add(CounterId::TallyEntries, tally.levels.take_entries());
        let measured = tally.finish()?;
        #[cfg(debug_assertions)]
        if primed {
            let check = cross_check.as_ref().expect("a tracked run's cross-check");
            assert_eq!(
                measured,
                check.finish()?,
                "pass {i}: the movers' update disagrees with the full tally"
            );
        }
        primed = true;
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
                // back. It is the last accepted one, whose measurement — and
                // histogram, when the caller keeps one — is kept already. The
                // tally now describes the reverted pass, but no pass follows
                // to read it.
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
                if let Some(histogram) = histogram.as_deref_mut() {
                    histogram.copy_from(&tally.levels);
                }
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
/// `finish` halves it. Its sums are `u128`, so a doubled sum never wraps:
/// every reported value is exact up to `u64::MAX`, and one past it is a
/// typed graph error. Two walks fill it:
///
/// * `every_entry` — the measurement walk ([`LevelTally::walk`], [`measure`])
///   over a finished assignment: every entry, as it comes;
/// * `PassTally::second_sightings` — the drive loop, right after each node
///   is placed: of an edge's two entries exactly one is streamed while the
///   other endpoint is already placed in this pass, and that *second
///   sighting* is tallied for both.
///
/// Once full, [`LevelTally::move_node`] keeps it the full tally of an
/// assignment in which one node changes its block, from that node's
/// adjacency alone, and the `insert_*` / `delete_*` methods keep it that of
/// a graph that changes under the assignment (the dynamic layer's deltas).
///
/// Under a topology the level comes from the XOR of the two blocks'
/// `HierarchySpec::level_codes`; block ids without a code ([`UNASSIGNED`],
/// ids `≥ k`, or every id when the codes would outgrow the assignment array)
/// take [`HierarchySpec::shared_level`]'s divisions, so any `u32` is a valid
/// block id here.
pub struct LevelTally<'a> {
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
    /// Adjacency entries read into the histogram since the drive loop last
    /// flushed them to `oms_tally_entries_total`.
    entries: u64,
}

impl<'a> LevelTally<'a> {
    /// An empty tally over `k` blocks for an assignment array of `n` nodes,
    /// under `topology` (`None`: a plain `k`-way histogram).
    pub fn new(n: usize, k: u32, topology: ReportTopology<'a>) -> Result<Self> {
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
            entries: 0,
        })
    }

    /// Empties the histogram for another assignment.
    fn clear(&mut self) {
        self.block_weights.fill(0);
        self.total_node_weight = 0;
        self.level_weights.fill(0);
        self.both_unassigned = 0;
    }

    /// The histogram itself: block weights, total node weight, edge weight
    /// per level and between two unassigned nodes.
    #[cfg(any(test, debug_assertions))]
    fn histogram(&self) -> (&[NodeWeight], NodeWeight, &[u128], u128) {
        let (blocks, levels) = (&self.block_weights[..], &self.level_weights[..]);
        (blocks, self.total_node_weight, levels, self.both_unassigned)
    }

    /// The entries read since the last call.
    fn take_entries(&mut self) -> u64 {
        std::mem::take(&mut self.entries)
    }

    /// Makes this histogram a copy of `other`'s, a tally over the same
    /// blocks and levels: `k` plus `ℓ` plus three words, no walk.
    fn copy_from(&mut self, other: &LevelTally<'_>) {
        self.block_weights.copy_from_slice(&other.block_weights);
        self.total_node_weight = other.total_node_weight;
        self.level_weights.copy_from_slice(&other.level_weights);
        self.both_unassigned = other.both_unassigned;
    }

    /// The shared level at which an entry between blocks `own` and `other`
    /// is filed; symmetric in the two.
    #[inline(always)]
    fn level(&self, own: BlockId, other: BlockId) -> usize {
        match self.topology {
            None => usize::from(own != other),
            Some((hierarchy, _)) => match (self.codes.code(own), self.codes.code(other)) {
                (Some(a), Some(b)) => self.codes.shared_level(a, b),
                _ => hierarchy.shared_level(own, other),
            },
        }
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
    /// the finished `assignments`; `PROVE` files each in `proof` as well.
    #[inline]
    fn every_entry<const PROVE: bool>(
        &mut self,
        node: StreamedNode<'_>,
        assignments: &[BlockId],
        proof: &mut SymmetryProof,
    ) {
        let (this, own) = (node.node, assignments[node.node as usize]);
        self.entries += node.neighbors.len() as u64;
        let entries = node.neighbors_weighted().map(|(u, w)| {
            if PROVE {
                proof.walk_entry(this, u, w);
            }
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

    /// The measurement walk: the full histogram of `assignments` over one
    /// pass of `stream`, proven symmetric unless the stream proves its
    /// passes itself.
    pub fn walk(&mut self, stream: &mut dyn NodeStream, assignments: &[BlockId]) -> Result<()> {
        self.clear();
        let mut proof = SymmetryProof::default();
        if stream.proves_symmetry() {
            stream.for_each_node(&mut |node| {
                self.every_entry::<false>(node, assignments, &mut proof)
            })?;
        } else {
            stream.for_each_node(&mut |node| {
                self.every_entry::<true>(node, assignments, &mut proof)
            })?;
            proof.check()?;
        }
        Ok(())
    }

    /// Moves `node` of the tallied assignment from block `old` to block
    /// `new`; `assignments` is the assignment after the move. The histogram
    /// must be the full tally of the assignment before it, which differs
    /// from `assignments` in `node`'s entry alone: each entry then leaves
    /// the level it was filed at, so no sum can underflow, and afterwards
    /// the histogram is the full tally of `assignments`.
    ///
    /// An edge to another node was filed twice at `level(old, b_u)`, once
    /// from each end, and moves to `level(new, b_u)`; a self-loop entry was
    /// filed once at level 0 and stays. Both count towards
    /// `both_unassigned` the way the measurement walk counts them.
    #[inline]
    pub fn move_node(
        &mut self,
        node: StreamedNode<'_>,
        old: BlockId,
        new: BlockId,
        assignments: &[BlockId],
    ) {
        self.entries += node.neighbors.len() as u64;
        if let Some(block) = self.block_weights.get_mut(old as usize) {
            *block -= node.weight;
        }
        if let Some(block) = self.block_weights.get_mut(new as usize) {
            *block += node.weight;
        }
        let this = node.node;
        for (u, w) in node.neighbors_weighted() {
            let (w, other_unassigned) = if u == this {
                (u128::from(w), true)
            } else {
                let other = assignments[u as usize];
                let w = 2 * u128::from(w);
                let (from, to) = (self.level(old, other), self.level(new, other));
                self.level_weights[from] -= w;
                self.level_weights[to] += w;
                (w, other == UNASSIGNED)
            };
            // Between two unassigned nodes; a self-loop entry is, while its
            // node is.
            if other_unassigned {
                if old == UNASSIGNED {
                    self.both_unassigned -= w;
                }
                if new == UNASSIGNED {
                    self.both_unassigned += w;
                }
            }
        }
    }

    /// Files (`insert`) or unfiles `w` of adjacency entries between blocks
    /// `own` and `other`, where [`LevelTally::every_entry`] files them.
    fn file(&mut self, own: BlockId, other: BlockId, w: u128, insert: bool) {
        let level = self.level(own, other);
        let both_unassigned = w * u128::from(own == UNASSIGNED && other == UNASSIGNED);
        if insert {
            self.level_weights[level] += w;
            self.both_unassigned += both_unassigned;
        } else {
            self.level_weights[level] -= w;
            self.both_unassigned -= both_unassigned;
        }
    }

    /// Files the two entries of a new edge of weight `w` between a node in
    /// block `own` and one in block `other`.
    pub fn insert_edge(&mut self, own: BlockId, other: BlockId, w: EdgeWeight) {
        self.file(own, other, 2 * u128::from(w), true);
    }

    /// Unfiles the two entries of a deleted edge of weight `w` between a
    /// node in block `own` and one in block `other`.
    pub fn delete_edge(&mut self, own: BlockId, other: BlockId, w: EdgeWeight) {
        self.file(own, other, 2 * u128::from(w), false);
    }

    /// Adds a new node of weight `weight`: unassigned, without adjacency.
    pub fn insert_node(&mut self, weight: NodeWeight) {
        self.total_node_weight += weight;
    }

    /// Takes `node` out — its weight `weight`, its block `own` and its
    /// adjacency `entries`, as `(neighbor, edge weight)` pairs (a self-loop
    /// is one entry, filed once); `assignments` holds the neighbors' blocks.
    pub fn delete_node(
        &mut self,
        node: NodeId,
        own: BlockId,
        weight: NodeWeight,
        entries: &[(NodeId, EdgeWeight)],
        assignments: &[BlockId],
    ) {
        self.total_node_weight -= weight;
        if let Some(block) = self.block_weights.get_mut(own as usize) {
            *block -= weight;
        }
        for &(u, w) in entries {
            match u == node {
                true => self.file(own, own, u128::from(w), false),
                false => self.file(own, assignments[u as usize], 2 * u128::from(w), false),
            }
        }
    }

    /// The edge-cut of the tallied assignment, read in `O(ℓ)`, or a typed
    /// graph error when it exceeds `u64::MAX`.
    pub fn edge_cut(&self) -> Result<u64> {
        let twice_cut = self.level_weights[1..].iter().sum::<u128>() + self.both_unassigned;
        halve(twice_cut, "edge-cut")
    }

    /// The imbalance `max_i c(V_i)/(c(V)/k) − 1` of the tallied assignment
    /// (0 without node weight), read in `O(k)`.
    pub fn imbalance(&self) -> f64 {
        let max = self.block_weights.iter().copied().max().unwrap_or(0);
        let average = self.total_node_weight as f64 / self.k.max(1) as f64;
        if average > 0.0 {
            max as f64 / average - 1.0
        } else {
            0.0
        }
    }

    /// Edge-cut, imbalance and `ω(E)` of the tallied assignment — the
    /// [`Measurement`] without `J` — or a typed graph error naming a value
    /// that exceeds `u64::MAX`.
    fn flat(&self) -> Result<Measurement> {
        Ok(Measurement {
            edge_cut: self.edge_cut()?,
            imbalance: self.imbalance(),
            total_edge_weight: halve(self.level_weights.iter().sum(), "total edge weight ω(E)")?,
            mapping_cost: None,
        })
    }

    /// Halves the doubled sums into the [`Measurement`], or fails with a
    /// typed graph error naming a value that exceeds `u64::MAX`.
    fn finish(&self) -> Result<Measurement> {
        let mut measurement = self.flat()?;
        measurement.mapping_cost = self
            .topology
            .map(|(_, distances)| {
                // Saturated, the sum is still beyond `2 · u64::MAX`.
                let twice = self.level_weights[1..]
                    .iter()
                    .zip(distances.distances())
                    .fold(0u128, |sum, (&w, &d)| {
                        sum.saturating_add(w.saturating_mul(u128::from(d)))
                    });
                halve(twice, "mapping cost J")
            })
            .transpose()?;
        Ok(measurement)
    }
}

/// Half of a doubled sum, or a typed graph error naming the `quantity` when
/// the half does not fit in a `u64`.
fn halve(twice: u128, quantity: &str) -> Result<u64> {
    u64::try_from(twice / 2)
        .map_err(|_| GraphError::Invalid(format!("the {quantity} exceeds u64::MAX")).into())
}

/// The drive loop's tally: a [`LevelTally`] fed while a pass places its
/// nodes, in one of two ways.
///
/// * A full pass ([`PassTally::second_sightings`], right after each node is
///   placed) fills the histogram from empty with the one rule that makes
///   that the measurement of the pass — *visited this pass*. Within a pass
///   every node is processed exactly once and keeps its block until the
///   next pass, so an entry whose other endpoint was visited already sees
///   both endpoints' final blocks for the pass: that second sighting stands
///   for both entries of its edge, and the first one is left to the other
///   side. The rule needs no particular starting state: it holds for a
///   fresh sink, for later passes and for a seeded one alike. This is only
///   the measurement walk's histogram when the adjacency lists are
///   symmetric, so a proving pass checks it as it goes
///   ([`PassTally::finish`]) — unless the stream proves its passes itself
///   ([`NodeStream::proves_symmetry`]), and a pass over one-sided lists
///   fails before its tally is finished.
/// * A pass over a full histogram ([`PassTally::moved`], around each
///   node's `process`) moves the entries of each node that changed its
///   block ([`LevelTally::move_node`]) and reads no other: a driven sink
///   changes no assignment but the processed node's ([`NodeSink`]), so the
///   histogram stays the full tally of the sink's assignment.
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

    /// Starts a full pass: nothing tallied, nothing visited.
    fn begin_pass(&mut self) {
        self.levels.clear();
        self.visited.fill(0);
        self.proof = SymmetryProof::default();
    }

    /// The full pass's step, right after `node` was placed for this pass.
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
        self.levels.entries += node.neighbors.len() as u64;
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

    /// The step of a pass over a full histogram, right after `node` was
    /// processed: `old` is its block before, `assignments` the sink's
    /// assignment after.
    #[inline]
    fn moved(&mut self, node: StreamedNode<'_>, old: BlockId, assignments: &[BlockId]) {
        let new = assignments[node.node as usize];
        if new != old {
            self.levels.move_node(node, old, new, assignments);
        }
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
/// job and every pass of a multi-pass run — and walks the seed of a
/// refinement into that tally itself. This walk is for what that cannot
/// cover: the report of a job that is not a streaming pass (`buffered`,
/// whose sink commits later than it is fed, `multilevel`, `rms`), an
/// assignment that comes from
/// elsewhere ([`stream_edge_cut`](crate::stream_edge_cut),
/// [`stream_mapping_cost`](crate::api::stream_mapping_cost)) — and it is the
/// reference `tests/equivalence.rs` holds the in-pass tally to.
///
/// Per-edge references stay beside it on purpose, each a loop over a
/// materialised graph that shares no code with this walk:
/// [`Partition::edge_cut`](crate::Partition::edge_cut) (tied to this walk's
/// cut by `tests/properties.rs` and `tests/weighted_equivalence.rs`, which
/// also recounts it per adjacency entry) and the naive `J` loop `naive_j` in
/// `tests/properties.rs` (tied to this walk's `J` by `mapping_cost_bounds`
/// on random hierarchies). This walk is the one production `J`.
///
/// Each undirected edge is seen from both endpoints, so the doubled sums are
/// halved — which holds on symmetric adjacency lists only, so the walk proves
/// them symmetric as it goes ([`SymmetryProof::walk_entry`]) and fails with a
/// typed graph error otherwise; over a stream that proves its passes itself
/// ([`NodeStream::proves_symmetry`]) the stream's pass fails instead. Any
/// `u32` is a valid entry of `assignments`:
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
    tally.walk(stream, assignments)?;
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
    /// assignment each pass left, reverted passes included. It also checks
    /// the invariant the drive loop's update by movers relies on: a sink
    /// changes no assignment in `process(node)` but `node`'s own.
    struct Recording<S> {
        inner: S,
        snapshots: Vec<Vec<BlockId>>,
        /// The assignment before the current `process`.
        before: Vec<BlockId>,
    }

    impl<S> Recording<S> {
        fn new(inner: S) -> Self {
            Recording {
                inner,
                snapshots: Vec::new(),
                before: Vec::new(),
            }
        }
    }

    impl<S: NodeSink> NodeSink for Recording<S> {
        fn begin_pass(&mut self, pass: usize) {
            self.inner.begin_pass(pass);
        }
        fn process(&mut self, node: StreamedNode<'_>) {
            self.before.clear();
            self.before.extend_from_slice(self.inner.assignments());
            self.inner.process(node);
            let after = self.inner.assignments().iter().enumerate();
            let mut changed = after.filter(|&(v, b)| *b != self.before[v]);
            assert!(
                changed.all(|(v, _)| v == node.node as usize),
                "processing node {} changed another node's assignment",
                node.node
            );
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

    /// A stream that says it proves its passes, over a graph that is
    /// symmetric by construction; everything else is the wrapped stream's.
    struct Proven<'s>(&'s mut dyn NodeStream);

    impl NodeStream for Proven<'_> {
        fn num_nodes(&self) -> usize {
            self.0.num_nodes()
        }
        fn num_edges(&self) -> usize {
            self.0.num_edges()
        }
        fn total_node_weight(&self) -> NodeWeight {
            self.0.total_node_weight()
        }
        fn reset(&mut self) -> oms_graph::Result<()> {
            self.0.reset()
        }
        fn for_each_node(&mut self, f: &mut dyn FnMut(StreamedNode<'_>)) -> oms_graph::Result<()> {
            self.0.for_each_node(f)
        }
        fn proves_symmetry(&self) -> bool {
            true
        }
    }

    /// Every tracked pass tallies its own cut and imbalance while it places
    /// its nodes; the measurement walk over the assignment that pass left
    /// (snapshotted at `end_pass`) is the reference, exactly — for the flat
    /// rules and tree descents of the one kernel, fresh and seeded (the
    /// refinement behind `multilevel:…@passes=`), seeded with the seed's
    /// histogram handed in (the dynamic layer's fallback restream, which
    /// walks no entry for its seed), over every source, unit and fully
    /// weighted. The returned report is the walk over the final
    /// assignment, `J` included, a reverted pass leaves the last accepted
    /// one in place, and a histogram handed to a fresh or seeded run comes
    /// back as the walk's histogram of the assignment the run left — after a
    /// revert too. On the fully weighted graph a revert restores
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
        let (mut reverts, mut handed_reverts) = (0, 0);
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
            let seed8 = partition("hashing:8", graph);
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
                // The fresh runs take a histogram back. The handed-in legs
                // give the seed's histogram as well, as the dynamic layer
                // does, over a stream that says it proves itself, so neither
                // walks its seed; the plain refinement walks it.
                let dist222 = kernels[3].2;
                let runs = kernels
                    .iter()
                    .map(|(spec, oms, topology)| (*spec, oms, *topology, None, true))
                    .chain([
                        ("refined fennel:16", &refine, None, Some(&seed), false),
                        ("fennel:16, handed in", &refine, None, Some(&seed), true),
                        (
                            "oms:2:2:2, handed in",
                            &kernels[3].1,
                            dist222,
                            Some(&seed8),
                            true,
                        ),
                    ]);
                for (spec, oms, topology, seeded, handed) in runs {
                    let tag = format!("{spec} over {name}, {source}");
                    let mut sink = Recording::new(OmsSink::new(oms, n, m, weight));
                    let baseline = seeded.map(|seed| {
                        sink.inner.seed(seed.assignments(), seed.block_weights());
                        seed.assignments()
                    });
                    let k = sink.num_blocks();
                    let mut histogram = LevelTally::new(n, k, topology).unwrap();
                    if let (Some(seed), true) = (baseline, handed) {
                        stream.reset().unwrap();
                        histogram.walk(stream.as_mut(), seed).unwrap();
                    }
                    stream.reset().unwrap();
                    let mut proven = Proven(stream.as_mut());
                    let run_stream: &mut dyn NodeStream = match handed && seeded.is_some() {
                        true => &mut proven,
                        false => proven.0,
                    };
                    let handed_in = handed.then_some(&mut histogram);
                    let (trajectory, report) = drive(
                        run_stream,
                        &mut sink,
                        Some(&opts),
                        baseline,
                        Some(topology),
                        handed_in,
                    )
                    .unwrap();
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
                    if handed {
                        let mut walked = LevelTally::new(n, k, topology).unwrap();
                        stream.reset().unwrap();
                        walked.walk(stream.as_mut(), &last).unwrap();
                        let tag = format!("{tag}: the histogram handed back");
                        assert!(histogram.histogram() == walked.histogram(), "{tag}");
                    }
                    if sink.snapshots.len() > accepted.len() {
                        assert_eq!(sink.snapshots.len(), accepted.len() + 1, "{tag}");
                        assert_eq!(sink.assignments(), &before[..], "{tag}: reverted");
                        reverts += 1;
                        handed_reverts += usize::from(handed);
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
                    let (trajectory, _) = drive(
                        stream,
                        &mut sink,
                        Some(&opts),
                        Some(assignments),
                        None,
                        None,
                    )
                    .unwrap();
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
        assert!(
            handed_reverts > 0,
            "no run that took a histogram back reverted"
        );
        let (flat, tree, hashing) = weighted_reverts;
        assert!(
            flat > 0 && tree > 0 && hashing > 0,
            "reverts on the weighted graph: {flat} flat, {tree} tree, {hashing} hashing"
        );

        // Unassigned nodes, and an id space larger than the stream.
        let graph = erdos_renyi_gnm(120, 600, 5);
        for extra in [0, 70] {
            let mut sink = Recording::new(Sparse {
                pass: 0,
                assignments: vec![UNASSIGNED; 120 + extra],
            });
            let stream = &mut InMemoryStream::new(&graph);
            let (trajectory, report) =
                drive(stream, &mut sink, Some(&opts), None, Some(None), None).unwrap();
            for (stats, snapshot) in trajectory.stats.iter().zip(&sink.snapshots) {
                let measured = measure(stream, snapshot, 3, None).unwrap();
                let tally = (stats.edge_cut, stats.imbalance);
                assert_eq!(tally, (measured.edge_cut, measured.imbalance), "{stats:?}");
            }
            let last = measure(stream, sink.assignments(), 3, None).unwrap();
            assert_eq!(report, Some(last));
        }
    }

    /// Each pass is proven symmetric once (`NodeStream::proves_symmetry`).
    /// Over one asymmetric adjacency list, the drive loop's tally — one
    /// pass with a report, or every pass of a tracked run — and the
    /// measurement walk refuse a stream that does not prove its passes, and
    /// leave one that says it does to prove itself: this one says so and
    /// proves nothing, so nothing refuses it.
    #[test]
    fn only_a_stream_that_does_not_prove_itself_is_proven_by_its_consumer() {
        /// Node 0 lists node 1 twice, node 1 lists nobody: two entries for
        /// the one edge the header announces.
        struct OneSided {
            proves: bool,
        }
        impl NodeStream for OneSided {
            fn num_nodes(&self) -> usize {
                2
            }
            fn num_edges(&self) -> usize {
                1
            }
            fn total_node_weight(&self) -> NodeWeight {
                2
            }
            fn for_each_node(
                &mut self,
                f: &mut dyn FnMut(StreamedNode<'_>),
            ) -> oms_graph::Result<()> {
                for (node, neighbors) in [(0, &[1, 1][..]), (1, &[][..])] {
                    f(StreamedNode {
                        node,
                        weight: 1,
                        neighbors,
                        edge_weights: &[1, 1][..neighbors.len()],
                    });
                }
                Ok(())
            }
            fn proves_symmetry(&self) -> bool {
                self.proves
            }
        }
        for proves in [false, true] {
            let sink = || Sparse {
                pass: 0,
                assignments: vec![UNASSIGNED; 2],
            };
            let report = drive(
                &mut OneSided { proves },
                &mut sink(),
                None,
                None,
                Some(None),
                None,
            );
            let opts = RestreamOptions::new(2, 0.0);
            let tracked = run_restream(&mut OneSided { proves }, &mut sink(), &opts);
            let walk = measure(&mut OneSided { proves }, &[0, 1], 2, None);
            let outcomes = [
                ("one reported pass", report.map(drop)),
                ("a tracked run", tracked.map(drop)),
                ("the measurement walk", walk.map(drop)),
            ];
            for (what, outcome) in outcomes {
                match outcome {
                    Ok(()) => assert!(proves, "{what} accepted one-sided lists"),
                    Err(err) => {
                        assert!(!proves, "{what} proved a stream that proves itself: {err}");
                        assert!(err.to_string().contains("not symmetric"), "{what}: {err}");
                    }
                }
            }
        }
    }

    /// A full histogram kept by single moves (`LevelTally::move_node`) and
    /// the dynamic layer's graph deltas (edge and node inserts and deletes)
    /// is the measurement walk's histogram of the current assignment and
    /// graph, exactly, after every step: random moves and deltas on a random
    /// assignment of adjacency lists with self-loops, repeated entries and
    /// weighted edges, to and from `UNASSIGNED` and ids `≥ k` (edges between
    /// them too), flat and under the 4:4:4 (more blocks than nodes: no level
    /// codes) and 3:5:2 topologies, `J` included. A deleted node weighs 0,
    /// keeps no entry and is unassigned until an insert revives it.
    #[test]
    fn a_full_histogram_follows_single_moves_exactly() {
        use crate::{DistanceSpec, HierarchySpec};
        use oms_graph::EdgeWeight;
        /// Adjacency lists as built, streamed in id order.
        #[derive(Clone)]
        struct Lists(Vec<(NodeWeight, Vec<NodeId>, Vec<EdgeWeight>)>);
        impl Lists {
            /// Removes one entry `(to, w)` from `from`'s list.
            fn detach(&mut self, from: NodeId, to: NodeId, w: EdgeWeight) {
                let (_, nbrs, wts) = &mut self.0[from as usize];
                let j = (0..nbrs.len()).find(|&j| (nbrs[j], wts[j]) == (to, w));
                let j = j.unwrap();
                nbrs.swap_remove(j);
                wts.swap_remove(j);
            }
            fn node(&self, v: NodeId) -> StreamedNode<'_> {
                let (weight, neighbors, edge_weights) = &self.0[v as usize];
                StreamedNode {
                    node: v,
                    weight: *weight,
                    neighbors,
                    edge_weights,
                }
            }
        }
        impl NodeStream for Lists {
            fn num_nodes(&self) -> usize {
                self.0.len()
            }
            fn num_edges(&self) -> usize {
                self.0.iter().map(|list| list.1.len()).sum::<usize>() / 2
            }
            fn total_node_weight(&self) -> NodeWeight {
                self.0.iter().map(|list| list.0).sum()
            }
            fn for_each_node(
                &mut self,
                f: &mut dyn FnMut(StreamedNode<'_>),
            ) -> oms_graph::Result<()> {
                for v in 0..self.0.len() as NodeId {
                    f(self.node(v));
                }
                Ok(())
            }
        }
        /// xorshift64: a number below `below`.
        fn draw(state: &mut u64, below: u64) -> u64 {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state % below
        }
        /// `UNASSIGNED`, `k` or `k + 1` (no block), or a block.
        fn block(state: &mut u64, k: u32) -> BlockId {
            match draw(state, 4) {
                0 => UNASSIGNED,
                1 => k + draw(state, 2) as BlockId,
                _ => draw(state, u64::from(k)) as BlockId,
            }
        }

        let (n, mut state) = (48u64, 0x2545_f491_4f6c_dd1d);
        let mut built = Lists(
            (0..n)
                .map(|_| (1 + draw(&mut state, 3), Vec::new(), Vec::new()))
                .collect(),
        );
        for _ in 0..160 {
            let (u, v) = (draw(&mut state, n) as usize, draw(&mut state, n) as usize);
            let w = 1 + draw(&mut state, 5);
            built.0[u].1.push(v as NodeId);
            built.0[u].2.push(w);
            if u != v {
                built.0[v].1.push(u as NodeId);
                built.0[v].2.push(w);
            }
        }
        let self_loops = (0..n as usize).filter(|&v| built.0[v].1.contains(&(v as NodeId)));
        assert!(self_loops.count() > 0);
        let d = DistanceSpec::parse("1:10:100").unwrap();
        let h444 = HierarchySpec::parse("4:4:4").unwrap();
        let h352 = HierarchySpec::parse("3:5:2").unwrap();
        let cases: [(u32, ReportTopology<'_>); 3] =
            [(7, None), (64, Some((&h444, &d))), (30, Some((&h352, &d)))];
        for (k, topology) in cases {
            let mut lists = built.clone();
            let mut assignments: Vec<BlockId> = (0..n).map(|_| block(&mut state, k)).collect();
            let mut tally = LevelTally::new(n as usize, k, topology).unwrap();
            tally.walk(&mut lists, &assignments).unwrap();
            let (mut moves, mut deltas, mut both_unassigned) = (0, [0; 4], 0);
            for step in 0..1000 {
                let v = draw(&mut state, n) as NodeId;
                // Edge inserts, edge deletes, node deletes, node inserts and
                // moves, the inserts twice as likely as the deletes.
                let kind = [0, 0, 1, 2, 3, 3][..].get(draw(&mut state, 16) as usize);
                let kind = kind.copied().unwrap_or(4);
                let (weight, nbrs, wts) = &mut lists.0[v as usize];
                let own = assignments[v as usize];
                let tag = match kind {
                    0 | 1 if *weight == 0 => continue,
                    0 => {
                        let u = draw(&mut state, n) as NodeId;
                        let w = 1 + draw(&mut state, 5);
                        if u == v || lists.0[u as usize].0 == 0 {
                            continue;
                        }
                        for (a, b) in [(u, v), (v, u)] {
                            lists.0[a as usize].1.push(b);
                            lists.0[a as usize].2.push(w);
                        }
                        tally.insert_edge(own, assignments[u as usize], w);
                        format!("edge {v}-{u} of weight {w} inserted")
                    }
                    1 => {
                        let others: Vec<usize> =
                            (0..nbrs.len()).filter(|&i| nbrs[i] != v).collect();
                        if others.is_empty() {
                            continue;
                        }
                        let i = others[draw(&mut state, others.len() as u64) as usize];
                        let (u, w) = (nbrs[i], wts[i]);
                        lists.detach(v, u, w);
                        lists.detach(u, v, w);
                        tally.delete_edge(own, assignments[u as usize], w);
                        format!("edge {v}-{u} of weight {w} deleted")
                    }
                    2 if *weight > 0 => {
                        let entries: Vec<(NodeId, EdgeWeight)> =
                            nbrs.drain(..).zip(wts.drain(..)).collect();
                        let removed = std::mem::take(weight);
                        for &(u, w) in entries.iter().filter(|&&(u, _)| u != v) {
                            lists.detach(u, v, w);
                        }
                        tally.delete_node(v, own, removed, &entries, &assignments);
                        assignments[v as usize] = UNASSIGNED;
                        format!("node {v} of weight {removed} in {own} deleted")
                    }
                    3 if *weight == 0 => {
                        *weight = 1 + draw(&mut state, 3);
                        tally.insert_node(*weight);
                        format!("node {v} of weight {weight} inserted")
                    }
                    2 | 3 => continue,
                    _ if *weight == 0 => continue,
                    _ => {
                        let new = block(&mut state, k);
                        assignments[v as usize] = new;
                        if own != new {
                            tally.move_node(lists.node(v), own, new, &assignments);
                            moves += 1;
                        }
                        format!("node {v} from {own} to {new}")
                    }
                };
                if let Some(count) = deltas.get_mut(kind) {
                    *count += 1;
                }
                let mut walked = LevelTally::new(n as usize, k, topology).unwrap();
                walked.walk(&mut lists, &assignments).unwrap();
                let tag = format!("k = {k}, step {step}: {tag}");
                assert!(tally.histogram() == walked.histogram(), "{tag}");
                let measured = measure(&mut lists, &assignments, k, topology).unwrap();
                assert_eq!(tally.finish().unwrap(), measured, "{tag}");
                both_unassigned += usize::from(tally.both_unassigned > 0);
            }
            assert!(
                moves > 250 && both_unassigned > 100,
                "k = {k}: {moves} moves"
            );
            assert!(deltas.iter().all(|&d| d > 10), "k = {k}: deltas {deltas:?}");
        }
    }

    /// `oms_tally_entries_total` counts what the drive loop's tally reads:
    /// under `oms:4:4:4@passes=4`, every entry (2m) in pass 0 and the degree
    /// sum of the nodes each later pass moved, from the pass snapshots — less
    /// than half the entries per later pass on this graph. A
    /// seeded run walks its seed's 2m entries, unless it is handed the
    /// seed's histogram over a stream that proves itself; then it reads the
    /// movers' entries alone — not the entries the caller's walk read into
    /// that histogram either.
    #[test]
    fn tally_entries_count_the_first_walk_and_the_movers() {
        use crate::mstree::MultisectionTree;
        use crate::oms::{OmsSink, OnlineMultiSection};
        use crate::scorer::FlatObjective;
        use crate::{HierarchySpec, JobSpec};

        let graph = oms_gen::erdos_renyi_gnm(3000, 15000, 11);
        let (n, m) = (graph.num_nodes(), graph.num_edges());
        let job = JobSpec::parse("oms:4:4:4@passes=4").unwrap().seed(3);
        let tree = MultisectionTree::from_hierarchy(&HierarchySpec::parse("4:4:4").unwrap());
        let oms = OnlineMultiSection::new(&job, tree, Some(FlatObjective::Fennel));
        let opts = RestreamOptions::new(job.passes, 0.0);
        let moved_entries = |from: &[BlockId], snapshots: &[Vec<BlockId>]| -> u64 {
            let mut before = from;
            let mut entries = 0;
            for snapshot in snapshots {
                let moved = graph
                    .nodes()
                    .filter(|&v| before[v as usize] != snapshot[v as usize]);
                entries += moved.map(|v| graph.degree(v) as u64).sum::<u64>();
                before = snapshot;
            }
            entries
        };
        let seed = JobSpec::parse("hashing:64").unwrap().build().unwrap();
        let seed = seed.partition(&mut InMemoryStream::new(&graph)).unwrap();
        let runs = [
            ("fresh", None, false),
            ("seeded", Some(&seed), false),
            ("seeded with its histogram", Some(&seed), true),
        ];
        for (run, seeded, handed) in runs {
            let mut sink = Recording::new(OmsSink::new(&oms, n, m, graph.total_node_weight()));
            let baseline = seeded.map(|seed| {
                sink.inner.seed(seed.assignments(), seed.block_weights());
                seed.assignments()
            });
            let mut histogram = LevelTally::new(n, 64, None).unwrap();
            let histogram = handed.then(|| {
                let stream = &mut InMemoryStream::new(&graph);
                histogram.walk(stream, seed.assignments()).unwrap();
                &mut histogram
            });
            let stream = &mut Proven(&mut InMemoryStream::new(&graph));
            let (core, guard) = oms_obs::recording(oms_obs::DEFAULT_CAPACITY);
            let (trajectory, _) =
                drive(stream, &mut sink, Some(&opts), baseline, None, histogram).unwrap();
            drop(guard);
            let snapshots = &sink.snapshots;
            assert!(snapshots.len() >= 3, "{run}: {trajectory:?}");
            let (first_walk, from) = match baseline {
                Some(seed) if handed => (0, seed.to_vec()),
                Some(seed) => (2 * m as u64, seed.to_vec()),
                None => (2 * m as u64, snapshots[0].clone()),
            };
            let later = if baseline.is_some() {
                &snapshots[..]
            } else {
                &snapshots[1..]
            };
            let expected = first_walk + moved_entries(&from, later);
            let read = core.counter(oms_obs::CounterId::TallyEntries);
            assert_eq!(read, expected, "{run}");
            if baseline.is_none() {
                // The later passes of the fresh run read fewer than half the
                // entries each.
                let later = (snapshots.len() - 1) as u64;
                assert!(read - 2 * m as u64 <= later * m as u64, "{read} entries");
            }
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
