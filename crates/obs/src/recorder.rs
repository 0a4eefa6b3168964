//! The recording observer: a bounded ring of recent events, the FNV-1a
//! event-log hash over *all* events ever recorded, and the metric cells.
//!
//! The ring keeps the newest events (oldest are evicted once the bound is
//! hit, counted in [`CounterId::EventsDropped`]), while the log hash folds
//! every event whether or not it survives eviction — so the hash is a pure
//! function of `(stream, seed)` regardless of the ring's capacity.

use crate::event::{Event, MAX_EVENT_WORDS};
use crate::metrics::{CounterId, HistId, Histogram};
use std::cell::RefCell;
use std::collections::VecDeque;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The multiplier of the log hash: 2^48 + 0x1b3. FNV's 64-bit prime is
/// 2^40 + 0x1b3; this one is kept because every recorded footer's
/// `log_hash` depends on it.
const FNV_PRIME: u64 = 0x1_0000_0000_01b3;

/// Folds an event's encoded words into a running FNV-1a-style log hash.
fn fold_event(hash: u64, event: &Event) -> u64 {
    let mut words = [0u64; MAX_EVENT_WORDS];
    let n = event.encode(&mut words);
    words[..n]
        .iter()
        .fold(hash, |hash, &word| (hash ^ word).wrapping_mul(FNV_PRIME))
}

/// Default ring capacity: large enough that the test and CLI workloads
/// never evict, small enough to bound memory on long-running services.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// What one recording holds; see [`ObsCore`].
#[derive(Debug)]
struct State {
    ring: VecDeque<(u64, Event)>,
    next_seq: u64,
    hash: u64,
    counters: [u64; CounterId::ALL.len()],
    hists: [Histogram; HistId::ALL.len()],
}

/// The recording observer: a ring of the newest `(sequence, event)` pairs,
/// a running event-log hash over every event ever recorded (evicted ones
/// included), one counter per [`CounterId`] and one histogram per
/// [`HistId`]. Build and install one
/// with [`crate::recording`]; export it with [`crate::trace_jsonl`] and
/// [`crate::prometheus`].
#[derive(Debug)]
pub struct ObsCore {
    capacity: usize,
    state: RefCell<State>,
}

impl ObsCore {
    /// A core whose ring holds at most `capacity` events (clamped to
    /// ≥ 1). The ring is allocated up front; recording never allocates.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        ObsCore {
            capacity,
            state: RefCell::new(State {
                ring: VecDeque::with_capacity(capacity),
                next_seq: 0,
                hash: FNV_OFFSET,
                counters: [0; CounterId::ALL.len()],
                hists: [Histogram::default(); HistId::ALL.len()],
            }),
        }
    }

    /// Records one event: assigns the next sequence number, folds the
    /// event into the log hash, and appends it to the ring (evicting the
    /// oldest event when full).
    pub(crate) fn record(&self, event: Event) {
        let mut state = self.state.borrow_mut();
        let seq = state.next_seq;
        state.next_seq += 1;
        state.hash = fold_event(state.hash, &event);
        if state.ring.len() == self.capacity {
            state.ring.pop_front();
            state.counters[CounterId::EventsDropped as usize] += 1;
        }
        state.ring.push_back((seq, event));
    }

    /// Adds `n` to a counter (wrapping; never allocates).
    pub(crate) fn counter_add(&self, id: CounterId, n: u64) {
        let cell = &mut self.state.borrow_mut().counters[id as usize];
        *cell = cell.wrapping_add(n);
    }

    /// Records one histogram sample (never allocates).
    pub(crate) fn hist_record(&self, id: HistId, value: u64) {
        self.state.borrow_mut().hists[id as usize].record(value);
    }

    /// The current value of a counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.state.borrow().counters[id as usize]
    }

    /// A copy of one histogram.
    pub(crate) fn hist(&self, id: HistId) -> Histogram {
        self.state.borrow().hists[id as usize]
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<(u64, Event)> {
        self.state.borrow().ring.iter().copied().collect()
    }

    /// Total events ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.state.borrow().next_seq
    }

    /// Events evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.counter(CounterId::EventsDropped)
    }

    /// The FNV-1a hash over every event ever recorded (including evicted
    /// ones) — a pure function of the recorded event sequence.
    pub fn log_hash(&self) -> u64 {
        self.state.borrow().hash
    }
}

/// Recomputes the event-log hash of a full (non-evicted) event sequence —
/// the check `oms trace` runs against a trace file's recorded hash.
pub(crate) fn replay_hash(events: impl IntoIterator<Item = Event>) -> u64 {
    events
        .into_iter()
        .fold(FNV_OFFSET, |hash, event| fold_event(hash, &event))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_keeps_newest_and_counts_drops() {
        let core = ObsCore::with_capacity(4);
        for pass in 0..10u32 {
            core.record(Event::PassStart { pass });
        }
        assert_eq!(core.dropped(), 6);
        assert_eq!(core.recorded(), 10);
        assert_eq!(
            core.events(),
            (6..10)
                .map(|p| (p as u64, Event::PassStart { pass: p }))
                .collect::<Vec<_>>(),
            "the ring must keep the newest events with their sequence numbers"
        );
    }

    #[test]
    fn hash_covers_evicted_events() {
        let small = ObsCore::with_capacity(2);
        let large = ObsCore::with_capacity(1024);
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
