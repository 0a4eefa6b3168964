//! Checkpoint-level comparison of incremental maintenance against cold
//! restreaming.
//!
//! The dynamic layer (`oms-dynamic`) applies delta batches and reports
//! quality at a checkpoint after every batch; the natural yardstick at each
//! checkpoint is a cold restream of the *current* graph from scratch. This
//! module holds the record type for one such comparison plus the aggregates
//! the churn suites assert on: the worst cut ratio across checkpoints and
//! the end-to-end repair-vs-restream speedup.

use crate::report::Table;

/// One checkpoint's quality/cost of incremental maintenance next to a cold
/// restream of the same graph state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckpointComparison {
    /// Checkpoint index (0-based; one per applied batch).
    pub checkpoint: usize,
    /// Deltas applied in the batch that ended at this checkpoint.
    pub deltas: usize,
    /// Edge cut of the incrementally maintained partition.
    pub incremental_cut: u64,
    /// Imbalance of the incrementally maintained partition.
    pub incremental_imbalance: f64,
    /// Wall-clock seconds spent applying the batch incrementally.
    pub incremental_seconds: f64,
    /// Edge cut of the cold-restream reference.
    pub restream_cut: u64,
    /// Imbalance of the cold-restream reference.
    pub restream_imbalance: f64,
    /// Wall-clock seconds of the cold-restream reference.
    pub restream_seconds: f64,
}

impl CheckpointComparison {
    /// Incremental cut relative to the restream reference. `1.0` when both
    /// cuts are zero; `+∞` when only the reference reached zero.
    pub fn cut_ratio(&self) -> f64 {
        match (self.incremental_cut, self.restream_cut) {
            (0, 0) => 1.0,
            (_, 0) => f64::INFINITY,
            (inc, re) => inc as f64 / re as f64,
        }
    }
}

/// The worst (largest) [`CheckpointComparison::cut_ratio`] across the run —
/// the number the churn suites bound. `1.0` for an empty run.
pub fn max_cut_ratio(checkpoints: &[CheckpointComparison]) -> f64 {
    checkpoints
        .iter()
        .map(CheckpointComparison::cut_ratio)
        .fold(1.0, f64::max)
}

/// End-to-end speedup of incremental maintenance over restreaming at every
/// checkpoint: total restream seconds divided by total incremental seconds.
/// `+∞` when the incremental path took no measurable time, `1.0` for an
/// empty run.
pub fn repair_vs_restream_speedup(checkpoints: &[CheckpointComparison]) -> f64 {
    if checkpoints.is_empty() {
        return 1.0;
    }
    let inc: f64 = checkpoints.iter().map(|c| c.incremental_seconds).sum();
    let re: f64 = checkpoints.iter().map(|c| c.restream_seconds).sum();
    if inc > 0.0 {
        re / inc
    } else {
        f64::INFINITY
    }
}

/// Renders the comparison as a table with one row per checkpoint
/// (`checkpoint, deltas, inc_cut, re_cut, ratio, inc_imb, re_imb,
/// inc_sec, re_sec`).
pub fn checkpoint_table(title: &str, checkpoints: &[CheckpointComparison]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "checkpoint",
            "deltas",
            "inc_cut",
            "re_cut",
            "ratio",
            "inc_imb",
            "re_imb",
            "inc_sec",
            "re_sec",
        ],
    );
    for c in checkpoints {
        table.add_row(vec![
            c.checkpoint.to_string(),
            c.deltas.to_string(),
            c.incremental_cut.to_string(),
            c.restream_cut.to_string(),
            format!("{:.3}", c.cut_ratio()),
            format!("{:.4}", c.incremental_imbalance),
            format!("{:.4}", c.restream_imbalance),
            format!("{:.4}", c.incremental_seconds),
            format!("{:.4}", c.restream_seconds),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(inc_cut: u64, re_cut: u64, inc_sec: f64, re_sec: f64) -> CheckpointComparison {
        CheckpointComparison {
            checkpoint: 0,
            deltas: 10,
            incremental_cut: inc_cut,
            incremental_imbalance: 0.02,
            incremental_seconds: inc_sec,
            restream_cut: re_cut,
            restream_imbalance: 0.02,
            restream_seconds: re_sec,
        }
    }

    #[test]
    fn cut_ratio_handles_zero_cuts() {
        assert_eq!(sample(120, 100, 0.1, 1.0).cut_ratio(), 1.2);
        assert_eq!(sample(0, 0, 0.1, 1.0).cut_ratio(), 1.0);
        assert_eq!(sample(5, 0, 0.1, 1.0).cut_ratio(), f64::INFINITY);
    }

    #[test]
    fn aggregates_cover_the_whole_run() {
        let run = [
            sample(110, 100, 0.1, 1.0),
            sample(150, 100, 0.2, 1.5),
            sample(90, 100, 0.1, 0.5),
        ];
        assert_eq!(max_cut_ratio(&run), 1.5);
        let speedup = repair_vs_restream_speedup(&run);
        assert!((speedup - 3.0 / 0.4).abs() < 1e-12);
        assert_eq!(max_cut_ratio(&[]), 1.0);
        assert_eq!(repair_vs_restream_speedup(&[]), 1.0);
    }

    #[test]
    fn table_has_one_row_per_checkpoint() {
        let t = checkpoint_table("churn", &[sample(110, 100, 0.1, 1.0)]);
        assert_eq!(t.num_rows(), 1);
        assert!(t
            .to_csv()
            .contains("checkpoint,deltas,inc_cut,re_cut,ratio"));
        assert!(t.to_csv().contains("1.100"));
    }
}
