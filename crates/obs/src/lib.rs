//! Deterministic runtime observability for the OMS engines.
//!
//! Every engine in the workspace (the batch executor, the dynamic
//! maintenance service, the edge restream engine, the traffic replay
//! simulator) reports its milestones through this crate:
//!
//! * **Events** ([`Event`]) — typed milestones with deterministic scalar
//!   payloads (counts, cuts, hashes; never wall-clock), recorded into a
//!   bounded flight-recorder ring ([`FlightRecorder`]) with monotone
//!   sequence numbers and an FNV-1a event-log hash. Because payloads are
//!   pure functions of `(stream, seed)`, the hash doubles as a
//!   determinism oracle, like the replay simulator's request-log hash.
//! * **Metrics** ([`Metrics`]) — allocation-free counters and
//!   log-bucketed histograms for hot-path signals (nodes scored, replay
//!   queue depths). Recording is one relaxed atomic op, so instrumented paths still pass the workspace's
//!   counting-allocator and throughput gates.
//! * **Exporters** (`export`) — JSON-lines trace, greppable table, and
//!   Prometheus-style exposition; `trace` parses a written trace back and
//!   verifies its hash.
//! * **[`Stopwatch`]** — the one wall-clock source every report and bench
//!   shares. Wall time feeds reports and `--metrics` only, never the
//!   event trace.
//!
//! # Enabling
//!
//! Observability is **off by default and free when off**: engines call the
//! [`observe`] / [`counter_add`] / [`hist_record`] free functions, which
//! consult a thread-local observer slot. With nothing installed (or with
//! [`NoopObserver`] installed) the call is a thread-local load and a
//! branch — no allocation, no locking, no event construction cost beyond
//! a few scalar copies. To record, install an observer for a scope:
//!
//! ```
//! use oms_obs::{recording, Event};
//!
//! let (core, guard) = recording(1 << 16);
//! oms_obs::observe(Event::PassStart { pass: 0 }); // recorded
//! drop(guard); // slot restored; later calls are no-ops again
//! assert_eq!(core.recorded(), 1);
//! ```
//!
//! The slot is thread-local, so concurrent tests (and engines on other
//! threads) never observe each other's runs; engines emit events from
//! their driving thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod stopwatch;
pub mod trace;

pub use event::Event;
pub use export::{prometheus, trace_jsonl, trace_table};
pub use metrics::{
    bucket_bound, bucket_index, CounterId, HistId, Histogram, HistogramSnapshot, Metrics,
    HIST_BUCKETS,
};
pub use recorder::{replay_hash, FlightRecorder, ObsCore, DEFAULT_CAPACITY};
pub use stopwatch::{time, Stopwatch};
pub use trace::{parse_trace, summarize, ParsedTrace, TraceFooter, TraceSummary};

use std::cell::RefCell;
use std::sync::Arc;

/// A consumer of engine telemetry. [`ObsCore`] is the standard recording
/// implementation; [`NoopObserver`] discards everything.
///
/// Implementations must not call back into [`observe`] /
/// [`counter_add`] / [`hist_record`] (the thread-local slot is borrowed
/// while an observer runs).
pub trait Observer: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: Event);

    /// Adds `n` to a counter. Defaults to discarding.
    fn counter_add(&self, id: CounterId, n: u64) {
        let _ = (id, n);
    }

    /// Records one histogram sample. Defaults to discarding.
    fn hist_record(&self, id: HistId, value: u64) {
        let _ = (id, value);
    }
}

/// The observer that discards everything — behaviorally identical to
/// having no observer installed, and just as free on the hot path.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    fn record(&self, _event: Event) {}
}

thread_local! {
    static OBSERVER: RefCell<Option<Arc<dyn Observer>>> = const { RefCell::new(None) };
}

/// Restores the previously installed observer (if any) when dropped.
#[must_use = "dropping the guard immediately uninstalls the observer"]
pub struct ObsGuard {
    prev: Option<Arc<dyn Observer>>,
    done: bool,
}

impl std::fmt::Debug for ObsGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsGuard")
            .field("restores_previous", &self.prev.is_some())
            .finish()
    }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        if !self.done {
            self.done = true;
            let prev = self.prev.take();
            OBSERVER.with(|slot| *slot.borrow_mut() = prev);
        }
    }
}

/// Installs `observer` in this thread's slot for the guard's lifetime;
/// the previous observer (if any) is restored when the guard drops.
pub fn install(observer: Arc<dyn Observer>) -> ObsGuard {
    let prev = OBSERVER.with(|slot| slot.borrow_mut().replace(observer));
    ObsGuard { prev, done: false }
}

/// Builds an [`ObsCore`] with the given ring capacity and installs it,
/// returning the core (for export) and the install guard.
pub fn recording(capacity: usize) -> (Arc<ObsCore>, ObsGuard) {
    let core = Arc::new(ObsCore::with_capacity(capacity));
    let guard = install(core.clone());
    (core, guard)
}

/// Whether an observer is installed on this thread.
#[inline]
pub fn is_enabled() -> bool {
    OBSERVER.with(|slot| slot.borrow().is_some())
}

/// Sends one event to the installed observer; free no-op when none is.
#[inline]
pub fn observe(event: Event) {
    OBSERVER.with(|slot| {
        if let Some(observer) = slot.borrow().as_ref() {
            observer.record(event);
        }
    });
}

/// Adds `n` to a counter of the installed observer; free no-op when none
/// is.
#[inline]
pub fn counter_add(id: CounterId, n: u64) {
    OBSERVER.with(|slot| {
        if let Some(observer) = slot.borrow().as_ref() {
            observer.counter_add(id, n);
        }
    });
}

/// Records a histogram sample on the installed observer; free no-op when
/// none is.
#[inline]
pub fn hist_record(id: HistId, value: u64) {
    OBSERVER.with(|slot| {
        if let Some(observer) = slot.borrow().as_ref() {
            observer.hist_record(id, value);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_slot_discards_everything() {
        assert!(!is_enabled());
        observe(Event::PassStart { pass: 0 });
        counter_add(CounterId::NodesScored, 5);
        hist_record(HistId::PassMoved, 5);
        assert!(!is_enabled());
    }

    #[test]
    fn guard_scopes_recording_and_restores_previous() {
        let (outer, outer_guard) = recording(16);
        observe(Event::PassStart { pass: 0 });
        {
            let (inner, inner_guard) = recording(16);
            observe(Event::PassStart { pass: 1 });
            assert_eq!(inner.recorded(), 1);
            drop(inner_guard);
        }
        observe(Event::PassStart { pass: 2 });
        drop(outer_guard);
        observe(Event::PassStart { pass: 3 });
        assert_eq!(
            outer
                .events()
                .into_iter()
                .map(|(_, e)| e)
                .collect::<Vec<_>>(),
            vec![Event::PassStart { pass: 0 }, Event::PassStart { pass: 2 }],
            "the outer observer must miss the inner scope and everything after its guard"
        );
        assert!(!is_enabled());
    }

    #[test]
    fn noop_observer_records_nothing_observable() {
        let guard = install(Arc::new(NoopObserver));
        assert!(is_enabled());
        observe(Event::PassStart { pass: 0 });
        counter_add(CounterId::NodesScored, 1);
        hist_record(HistId::PassMoved, 1);
        drop(guard);
    }

    #[test]
    fn counters_and_histograms_flow_to_the_core() {
        let (core, guard) = recording(16);
        counter_add(CounterId::NodesScored, 3);
        counter_add(CounterId::NodesScored, 4);
        hist_record(HistId::ReplayQueueDepth, 9);
        drop(guard);
        assert_eq!(core.metrics().counter(CounterId::NodesScored), 7);
        let hist = core.metrics().hist(HistId::ReplayQueueDepth);
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum, 9);
    }
}
