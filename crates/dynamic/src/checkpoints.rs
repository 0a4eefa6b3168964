//! Checkpoint cadence and the one checkpoint loop.
//!
//! Every consumer of a delta trace — `oms apply-deltas`, the churn and
//! temporal suites — asks the same two questions: after which batches is a
//! quality checkpoint taken, and what does the maintained partition look like
//! there? [`Checkpoints`] answers the first: a cadence of `window` batches
//! with the final batch always checkpointing, so a trace whose length is not a
//! multiple of the cadence still ends on a measured state.
//!
//! [`PartitionState::drive_windows`] answers the second, and is the one loop
//! that does: it ingests a whole trace under the job's `window=` knob and
//! returns one [`WindowStats`] row per checkpoint — the quality-over-time
//! curve of the maintained partition. At each checkpoint it hands the state
//! and the row to the caller, who may attach a [`ColdRestream`] reference or
//! measure anything else about the state.

use crate::PartitionState;
use oms_core::Result;
use oms_graph::DeltaBatch;

/// A checkpoint cadence over a delta trace: batch `i` (0-based) is a
/// checkpoint when `i + 1` is a multiple of the cadence, and the final
/// batch of a trace always checkpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checkpoints {
    cadence: usize,
}

impl Checkpoints {
    /// A cadence of one checkpoint every `cadence` batches (clamped to
    /// ≥ 1).
    pub fn every(cadence: usize) -> Self {
        Checkpoints {
            cadence: cadence.max(1),
        }
    }

    /// Whether batch `index` (0-based) of a trace of `len` batches is a
    /// checkpoint.
    pub fn is_checkpoint(&self, index: usize, len: usize) -> bool {
        index + 1 == len || (index + 1).is_multiple_of(self.cadence)
    }

    /// Number of checkpoints a trace of `len` batches produces.
    pub fn count(&self, len: usize) -> usize {
        len.div_ceil(self.cadence)
    }
}

/// A cold reference solution for one graph state: a fresh sink of the job's
/// algorithm, streamed from scratch with the job's pass budget (see
/// [`PartitionState::cold_restream_reference`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ColdRestream {
    /// Edge cut of the reference.
    pub edge_cut: u64,
    /// Imbalance of the reference.
    pub imbalance: f64,
    /// Wall-clock seconds the reference took — what a
    /// restream-per-checkpoint strategy would pay.
    pub seconds: f64,
}

/// One row of a quality-over-time curve: the maintained partition measured
/// at a sliding-window checkpoint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowStats {
    /// Checkpoint number (0-based, dense).
    pub checkpoint: usize,
    /// 0-based index of the trace batch this checkpoint measured after.
    pub batch_index: usize,
    /// Deltas ingested since the previous checkpoint.
    pub deltas: usize,
    /// Maintained edge cut at the checkpoint.
    pub edge_cut: u64,
    /// Maintained imbalance at the checkpoint.
    pub imbalance: f64,
    /// Wall-clock seconds spent ingesting this window's batches.
    pub seconds: f64,
    /// Drift metric at the checkpoint.
    pub drift: f64,
    /// A cold restream of the same graph state, when the caller took one.
    pub reference: Option<ColdRestream>,
}

impl WindowStats {
    /// Maintained cut relative to the reference's: `1.0` without a
    /// reference or when both cuts are zero, `+∞` when only the reference
    /// reached zero.
    pub fn cut_ratio(&self) -> f64 {
        match (self.edge_cut, self.reference.map(|r| r.edge_cut)) {
            (_, None) | (0, Some(0)) => 1.0,
            (_, Some(0)) => f64::INFINITY,
            (maintained, Some(reference)) => maintained as f64 / reference as f64,
        }
    }
}

/// The worst (largest) [`WindowStats::cut_ratio`] of a curve — the number
/// the churn suites bound. `1.0` for an empty curve.
pub fn max_cut_ratio(curve: &[WindowStats]) -> f64 {
    curve.iter().map(WindowStats::cut_ratio).fold(1.0, f64::max)
}

/// End-to-end speedup of incremental maintenance over restreaming at every
/// checkpoint: total reference seconds divided by total ingest seconds.
/// `+∞` when ingest took no measurable time, `1.0` for an empty curve.
pub fn repair_vs_restream_speedup(curve: &[WindowStats]) -> f64 {
    if curve.is_empty() {
        return 1.0;
    }
    let ingest: f64 = curve.iter().map(|w| w.seconds).sum();
    let restream: f64 = curve
        .iter()
        .filter_map(|w| w.reference)
        .map(|r| r.seconds)
        .sum();
    if ingest > 0.0 {
        restream / ingest
    } else {
        f64::INFINITY
    }
}

impl PartitionState {
    /// Ingests `trace` batch by batch under the job's `window=` cadence and
    /// returns one [`WindowStats`] per checkpoint — the partition's
    /// quality-over-time curve. The final batch always checkpoints; an
    /// empty trace produces no rows.
    ///
    /// At every checkpoint `at_checkpoint` sees the state and the row before
    /// the row is recorded: it may fill in the row's
    /// [`reference`](WindowStats::reference) or measure the state itself.
    /// Its error stops the loop.
    pub fn drive_windows(
        &mut self,
        trace: &[DeltaBatch],
        mut at_checkpoint: impl FnMut(&mut PartitionState, &mut WindowStats) -> Result<()>,
    ) -> Result<Vec<WindowStats>> {
        let checkpoints = Checkpoints::every(self.job().window);
        let mut curve = Vec::with_capacity(checkpoints.count(trace.len()));
        let mut deltas = 0usize;
        let mut seconds = 0.0f64;
        for (i, batch) in trace.iter().enumerate() {
            let stats = self.apply(batch)?;
            deltas += stats.deltas;
            seconds += stats.seconds;
            if !checkpoints.is_checkpoint(i, trace.len()) {
                continue;
            }
            oms_obs::observe(oms_obs::Event::WindowClosed {
                checkpoint: curve.len() as u64,
                batch: i as u64,
                deltas: deltas as u64,
                edge_cut: self.edge_cut(),
            });
            let mut window = WindowStats {
                checkpoint: curve.len(),
                batch_index: i,
                deltas,
                edge_cut: self.edge_cut(),
                imbalance: self.imbalance(),
                seconds,
                drift: self.drift(),
                reference: None,
            };
            at_checkpoint(self, &mut window)?;
            curve.push(window);
            deltas = 0;
            seconds = 0.0;
        }
        Ok(curve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions(checkpoints: Checkpoints, len: usize) -> Vec<usize> {
        (0..len)
            .filter(|&i| checkpoints.is_checkpoint(i, len))
            .collect()
    }

    #[test]
    fn final_batch_always_checkpoints() {
        // Regression: a trace whose length is not a multiple of the
        // cadence must still checkpoint its last batch.
        let c = Checkpoints::every(3);
        assert_eq!(positions(c, 7), vec![2, 5, 6]);
        assert_eq!(c.count(7), 3);
    }

    #[test]
    fn cadence_one_checkpoints_every_batch() {
        assert_eq!(positions(Checkpoints::every(1), 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_cadence_is_clamped() {
        assert_eq!(Checkpoints::every(0), Checkpoints::every(1));
    }

    #[test]
    fn exact_multiple_has_no_duplicate_final() {
        let c = Checkpoints::every(2);
        assert_eq!(positions(c, 6), vec![1, 3, 5]);
        assert_eq!(c.count(6), 3);
    }

    #[test]
    fn empty_trace_has_no_checkpoints() {
        assert_eq!(positions(Checkpoints::every(3), 0), Vec::<usize>::new());
        assert_eq!(Checkpoints::every(3).count(0), 0);
    }

    fn window(edge_cut: u64, reference: Option<(u64, f64)>, seconds: f64) -> WindowStats {
        WindowStats {
            checkpoint: 0,
            batch_index: 0,
            deltas: 10,
            edge_cut,
            imbalance: 0.02,
            seconds,
            drift: 0.0,
            reference: reference.map(|(edge_cut, seconds)| ColdRestream {
                edge_cut,
                imbalance: 0.02,
                seconds,
            }),
        }
    }

    #[test]
    fn cut_ratio_handles_zero_cuts_and_missing_references() {
        assert_eq!(window(120, Some((100, 1.0)), 0.1).cut_ratio(), 1.2);
        assert_eq!(window(0, Some((0, 1.0)), 0.1).cut_ratio(), 1.0);
        assert_eq!(window(5, Some((0, 1.0)), 0.1).cut_ratio(), f64::INFINITY);
        assert_eq!(window(5, None, 0.1).cut_ratio(), 1.0);
    }

    #[test]
    fn aggregates_cover_the_whole_curve() {
        let curve = [
            window(110, Some((100, 1.0)), 0.1),
            window(150, Some((100, 1.5)), 0.2),
            window(90, Some((100, 0.5)), 0.1),
        ];
        assert_eq!(max_cut_ratio(&curve), 1.5);
        let speedup = repair_vs_restream_speedup(&curve);
        assert!((speedup - 3.0 / 0.4).abs() < 1e-12);
        assert_eq!(max_cut_ratio(&[]), 1.0);
        assert_eq!(repair_vs_restream_speedup(&[]), 1.0);
    }
}
