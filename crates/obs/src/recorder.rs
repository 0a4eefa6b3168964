//! The flight recorder: a bounded ring of recent events plus the FNV-1a
//! event-log hash over *all* events ever recorded.
//!
//! The ring keeps the newest events (oldest are evicted once the bound is
//! hit, counted in [`FlightRecorder::dropped`]), while the log hash folds
//! every event whether or not it survives eviction — so the hash is a pure
//! function of `(stream, seed)` regardless of the ring's capacity.

use crate::event::{Event, MAX_EVENT_WORDS};
use crate::metrics::{CounterId, HistId, Metrics};
use crate::Observer;
use std::collections::VecDeque;
use std::sync::Mutex;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x1_0000_0000_01b3;

/// Folds one word into an FNV-1a running hash.
fn fnv_fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// Default ring capacity: large enough that the test and CLI workloads
/// never evict, small enough to bound memory on long-running services.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// A bounded ring of `(sequence, event)` pairs with a running event-log
/// hash (see the [module docs](self)).
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<(u64, Event)>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    hash: u64,
}

impl FlightRecorder {
    /// An empty recorder holding at most `capacity` events (clamped to
    /// ≥ 1). The ring is allocated up front; recording never allocates.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            next_seq: 0,
            dropped: 0,
            hash: FNV_OFFSET,
        }
    }

    /// Records one event: assigns the next sequence number, folds the
    /// event into the log hash, and appends it to the ring (evicting the
    /// oldest event when full).
    pub fn record(&mut self, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut words = [0u64; MAX_EVENT_WORDS];
        let n = event.encode(&mut words);
        for &word in &words[..n] {
            self.hash = fnv_fold(self.hash, word);
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back((seq, event));
    }

    /// Events currently held, oldest first, with their sequence numbers.
    pub fn events(&self) -> impl Iterator<Item = (u64, Event)> + '_ {
        self.ring.iter().copied()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no event has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The ring's capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The FNV-1a hash over every event ever recorded (including evicted
    /// ones) — a pure function of the recorded event sequence.
    pub fn log_hash(&self) -> u64 {
        self.hash
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    }
}

/// Recomputes the event-log hash of a full (non-evicted) event sequence —
/// the check `oms trace` runs against a trace file's recorded hash.
pub fn replay_hash(events: impl IntoIterator<Item = Event>) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut words = [0u64; MAX_EVENT_WORDS];
    for event in events {
        let n = event.encode(&mut words);
        for &word in &words[..n] {
            hash = fnv_fold(hash, word);
        }
    }
    hash
}

/// The standard recording observer: a [`FlightRecorder`] behind a mutex
/// plus a lock-free [`Metrics`] registry. Install one with
/// [`crate::install`] and export it with the `crate::export` helpers.
#[derive(Debug, Default)]
pub struct ObsCore {
    recorder: Mutex<FlightRecorder>,
    metrics: Metrics,
}

impl ObsCore {
    /// A core with the default ring capacity.
    pub fn new() -> Self {
        ObsCore::default()
    }

    /// A core whose ring holds at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        ObsCore {
            recorder: Mutex::new(FlightRecorder::with_capacity(capacity)),
            metrics: Metrics::new(),
        }
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<(u64, Event)> {
        self.recorder
            .lock()
            .expect("recorder poisoned")
            .events()
            .collect()
    }

    /// Total events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.recorder.lock().expect("recorder poisoned").recorded()
    }

    /// Events evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.recorder.lock().expect("recorder poisoned").dropped()
    }

    /// The event-log hash (see [`FlightRecorder::log_hash`]).
    pub fn log_hash(&self) -> u64 {
        self.recorder.lock().expect("recorder poisoned").log_hash()
    }
}

impl Observer for ObsCore {
    fn record(&self, event: Event) {
        let mut recorder = self.recorder.lock().expect("recorder poisoned");
        recorder.record(event);
        if recorder.dropped() > 0 {
            // Keep the metrics view of eviction in sync with the ring.
            let dropped = recorder.dropped();
            drop(recorder);
            let seen = self.metrics.counter(CounterId::EventsDropped);
            if dropped > seen {
                self.metrics
                    .counter_add(CounterId::EventsDropped, dropped - seen);
            }
        }
    }

    fn counter_add(&self, id: CounterId, n: u64) {
        self.metrics.counter_add(id, n);
    }

    fn hist_record(&self, id: HistId, value: u64) {
        self.metrics.hist_record(id, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_keeps_newest_and_counts_drops() {
        let mut rec = FlightRecorder::with_capacity(4);
        for pass in 0..10u32 {
            rec.record(Event::PassStart { pass });
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        assert_eq!(rec.recorded(), 10);
        let held: Vec<_> = rec.events().collect();
        assert_eq!(
            held,
            (6..10)
                .map(|p| (p as u64, Event::PassStart { pass: p }))
                .collect::<Vec<_>>(),
            "the ring must keep the newest events with their sequence numbers"
        );
    }

    #[test]
    fn hash_covers_evicted_events() {
        let mut small = FlightRecorder::with_capacity(2);
        let mut large = FlightRecorder::with_capacity(1024);
        for pass in 0..50u32 {
            small.record(Event::PassStart { pass });
            large.record(Event::PassStart { pass });
        }
        assert_eq!(
            small.log_hash(),
            large.log_hash(),
            "the log hash must not depend on ring capacity"
        );
        assert_eq!(
            large.log_hash(),
            replay_hash((0..50u32).map(|pass| Event::PassStart { pass })),
            "replay_hash must reproduce the recorder's hash"
        );
    }

    #[test]
    fn hash_is_order_sensitive() {
        let a = replay_hash([Event::PassStart { pass: 0 }, Event::PassStart { pass: 1 }]);
        let b = replay_hash([Event::PassStart { pass: 1 }, Event::PassStart { pass: 0 }]);
        assert_ne!(a, b);
    }
}
