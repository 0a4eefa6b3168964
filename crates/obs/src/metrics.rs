//! The metric vocabulary: named counters and log-bucketed histograms for
//! hot-path signals.
//!
//! [`crate::ObsCore`] keeps one `u64` per [`CounterId`] and one
//! [`Histogram`] per [`HistId`] in fixed arrays, so recording never
//! allocates and instrumented hot paths still pass the counting-allocator
//! gate. Histograms use power-of-two (HDR-style) buckets: value `v` lands
//! in bucket `bit_length(v)`, so 65 buckets cover the full `u64` range
//! with ≤ 2× relative error.

/// Identifies one monotone counter in the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterId {
    /// Nodes scored by the scoring kernel, whatever drives it: a streaming
    /// pass of a flat or multi-section job, refinement, repair re-scoring.
    NodesScored,
    /// Children scored by the scoring kernel over all its decisions: a
    /// sibling group's fan-out where the exact loop or the narrow select
    /// decides; the touched children plus the champion (and a rescore's
    /// stale leaf) where the champion select does, plus the fan-out when it
    /// falls back to the exact loop.
    CandidatesScored,
    /// Restream passes executed by the batch executor.
    RestreamPasses,
    /// Restream passes that were reverted.
    RestreamReverts,
    /// Adjacency entries the drive loop's tally read to measure its passes:
    /// every entry in a run's first walk (pass 0, or a seed's measurement),
    /// a moved node's entries in each later pass. Flushed once per pass;
    /// debug builds' second tally of a pass is not counted.
    TallyEntries,
    /// Deltas applied to maintained partitions.
    DeltasApplied,
    /// Local repair re-scoring steps.
    RepairRescored,
    /// Repair steps that moved a node between blocks.
    RepairMoves,
    /// Drift-triggered full restream fallbacks.
    DriftFallbacks,
    /// Partition snapshots written.
    SnapshotsWritten,
    /// Partition services resumed from snapshots.
    SnapshotsResumed,
    /// Replay requests issued.
    ReplayRequests,
    /// Replay requests served to completion.
    ReplayServed,
    /// Replay requests shed at admission.
    ReplayRejected,
    /// Replay vertex touches executed.
    ReplayHops,
    /// Replay touches that crossed a block boundary.
    ReplayCrossBlockHops,
    /// Edge-partitioning passes executed.
    EdgePasses,
    /// Events evicted from the flight recorder's ring buffer.
    EventsDropped,
}

impl CounterId {
    /// Every counter, in registry order.
    pub(crate) const ALL: [CounterId; 18] = [
        CounterId::NodesScored,
        CounterId::CandidatesScored,
        CounterId::RestreamPasses,
        CounterId::RestreamReverts,
        CounterId::TallyEntries,
        CounterId::DeltasApplied,
        CounterId::RepairRescored,
        CounterId::RepairMoves,
        CounterId::DriftFallbacks,
        CounterId::SnapshotsWritten,
        CounterId::SnapshotsResumed,
        CounterId::ReplayRequests,
        CounterId::ReplayServed,
        CounterId::ReplayRejected,
        CounterId::ReplayHops,
        CounterId::ReplayCrossBlockHops,
        CounterId::EdgePasses,
        CounterId::EventsDropped,
    ];

    /// The counter's snake_case name (also its Prometheus base name).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            CounterId::NodesScored => "nodes_scored",
            CounterId::CandidatesScored => "candidates_scored",
            CounterId::RestreamPasses => "restream_passes",
            CounterId::RestreamReverts => "restream_reverts",
            CounterId::TallyEntries => "tally_entries",
            CounterId::DeltasApplied => "deltas_applied",
            CounterId::RepairRescored => "repair_rescored",
            CounterId::RepairMoves => "repair_moves",
            CounterId::DriftFallbacks => "drift_fallbacks",
            CounterId::SnapshotsWritten => "snapshots_written",
            CounterId::SnapshotsResumed => "snapshots_resumed",
            CounterId::ReplayRequests => "replay_requests",
            CounterId::ReplayServed => "replay_served",
            CounterId::ReplayRejected => "replay_rejected",
            CounterId::ReplayHops => "replay_hops",
            CounterId::ReplayCrossBlockHops => "replay_cross_block_hops",
            CounterId::EdgePasses => "edge_passes",
            CounterId::EventsDropped => "events_dropped",
        }
    }
}

/// Identifies one histogram in the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistId {
    /// Nodes moved per accepted restream pass.
    PassMoved,
    /// Deltas per applied batch.
    DeltaBatchDeltas,
    /// Entry-block backlog (queue ticks ahead) per admitted replay
    /// request.
    ReplayQueueDepth,
    /// Simulated latency (ticks) per served replay request.
    ReplayLatencyTicks,
    /// Wall microseconds per restream pass. The one non-deterministic
    /// signal in the registry — it feeds `--metrics` exposition only and
    /// never enters the event trace or its hash.
    PassMicros,
}

impl HistId {
    /// Every histogram, in registry order.
    pub(crate) const ALL: [HistId; 5] = [
        HistId::PassMoved,
        HistId::DeltaBatchDeltas,
        HistId::ReplayQueueDepth,
        HistId::ReplayLatencyTicks,
        HistId::PassMicros,
    ];

    /// The histogram's snake_case name (also its Prometheus base name).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            HistId::PassMoved => "pass_moved",
            HistId::DeltaBatchDeltas => "delta_batch_deltas",
            HistId::ReplayQueueDepth => "replay_queue_depth",
            HistId::ReplayLatencyTicks => "replay_latency_ticks",
            HistId::PassMicros => "pass_micros",
        }
    }
}

/// Number of log₂ buckets a histogram holds (`bit_length(u64)` + 1).
pub const HIST_BUCKETS: usize = 65;

/// The bucket index of `value`: 0 for 0, otherwise the value's bit
/// length, so bucket `b ≥ 1` spans `[2^(b−1), 2^b)`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The inclusive upper bound of bucket `index` (the Prometheus `le`
/// label).
pub fn bucket_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// One log-bucketed histogram of `u64` samples, recordable without
/// allocation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Histogram {
    /// Sample count per log₂ bucket (see [`bucket_index`]).
    pub(crate) buckets: [u64; HIST_BUCKETS],
    /// Total samples recorded.
    pub(crate) count: u64,
    /// Sum of all recorded values, saturating rather than wrapping.
    pub(crate) sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Records one sample. The running sum saturates rather than wraps,
    /// so extreme samples cannot corrupt the mean's sign.
    pub(crate) fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// The smallest bucket upper bound at or above quantile `q` of the
    /// recorded samples (0 when empty) — a ≤ 2× overestimate of the true
    /// quantile, like any log-bucketed sketch.
    pub(crate) fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(HIST_BUCKETS - 1)
    }

    /// Arithmetic mean of the recorded samples (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for b in 1..64usize {
            let low = 1u64 << (b - 1);
            assert_eq!(bucket_index(low), b);
            assert_eq!(bucket_index(bucket_bound(b)), b);
        }
    }

    #[test]
    fn counter_names_are_unique() {
        let mut names: Vec<_> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.extend(HistId::ALL.iter().map(|h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must not collide");
    }

    #[test]
    fn quantile_bound_brackets_samples() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1106);
        assert!(h.quantile_bound(0.5) >= 3);
        assert!(h.quantile_bound(1.0) >= 1000);
        assert!(h.quantile_bound(1.0) < 2048);
    }
}
