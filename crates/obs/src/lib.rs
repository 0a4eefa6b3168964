//! Deterministic runtime observability for the OMS engines.
//!
//! Every engine in the workspace (the batch executor, the dynamic
//! maintenance service, the edge restream engine, the traffic replay
//! simulator) reports its milestones through this crate:
//!
//! * **Events** ([`Event`]) — typed milestones with deterministic scalar
//!   payloads (counts, cuts, hashes; never wall-clock), recorded into the
//!   bounded ring of an [`ObsCore`] with monotone sequence numbers and an
//!   FNV-1a-style event-log hash. Because payloads are pure functions of
//!   `(stream, seed)`, the hash doubles as a determinism oracle, like the
//!   replay simulator's request-log hash.
//! * **Metrics** ([`CounterId`], [`HistId`]) — allocation-free counters
//!   and log-bucketed histograms for hot-path signals (nodes scored,
//!   replay queue depths), kept in fixed arrays of the same [`ObsCore`],
//!   so instrumented paths still pass the workspace's counting-allocator
//!   and throughput gates.
//! * **Exporters** — the JSON-lines trace ([`trace_jsonl`]) and a
//!   Prometheus-style exposition ([`prometheus`]); [`summarize`] parses a
//!   written trace back and verifies its hash.
//! * **[`Stopwatch`]** — the one wall-clock source every report and bench
//!   shares. Wall time feeds reports and `--metrics` only, never the
//!   event trace.
//!
//! # Enabling
//!
//! Observability is **off by default and free when off**: engines call the
//! [`observe`] / [`counter_add`] / [`hist_record`] free functions, which
//! consult a thread-local slot. With nothing installed the call is a
//! thread-local load and a branch — no allocation, no locking, no event
//! construction cost beyond a few scalar copies. To record, install a core
//! for a scope:
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
//! [`unobserved`] empties the slot for a scope instead. The slot is
//! thread-local and neither an [`ObsCore`] handle nor an [`ObsGuard`] can
//! leave its thread, so concurrent tests never observe each other's runs;
//! engines emit events from their driving thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

mod event;
mod export;
mod metrics;
mod recorder;
mod stopwatch;
mod trace;

pub use event::Event;
pub use export::{prometheus, trace_jsonl};
pub use metrics::{bucket_bound, bucket_index, CounterId, HistId, HIST_BUCKETS};
pub use recorder::{ObsCore, DEFAULT_CAPACITY};
pub use stopwatch::Stopwatch;
pub use trace::{summarize, TraceFooter, TraceSummary};

use std::cell::RefCell;
use std::rc::Rc;

thread_local! {
    static OBSERVER: RefCell<Option<Rc<ObsCore>>> = const { RefCell::new(None) };
}

/// Restores the previously installed core (if any) when dropped.
///
/// The guard belongs to the thread whose slot it changed:
///
/// ```compile_fail
/// fn send<T: Send>(_: T) {}
/// let (_core, guard) = oms_obs::recording(16);
/// send(guard);
/// ```
#[must_use = "dropping the guard immediately restores the previous slot"]
#[derive(Debug)]
pub struct ObsGuard {
    prev: Option<Rc<ObsCore>>,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        OBSERVER.with(|slot| *slot.borrow_mut() = prev);
    }
}

/// Puts `core` in this thread's slot for the guard's lifetime.
fn install(core: Option<Rc<ObsCore>>) -> ObsGuard {
    let prev = OBSERVER.with(|slot| slot.replace(core));
    ObsGuard { prev }
}

/// Builds an [`ObsCore`] with the given ring capacity and installs it,
/// returning the core (for export) and the install guard.
pub fn recording(capacity: usize) -> (Rc<ObsCore>, ObsGuard) {
    let core = Rc::new(ObsCore::with_capacity(capacity));
    let guard = install(Some(core.clone()));
    (core, guard)
}

/// Empties this thread's slot for the guard's lifetime, so a nested
/// computation stays out of an enclosing recording.
pub fn unobserved() -> ObsGuard {
    install(None)
}

/// Whether a core is installed on this thread.
#[inline]
pub fn is_enabled() -> bool {
    OBSERVER.with(|slot| slot.borrow().is_some())
}

/// Runs `f` on the installed core; a free no-op when none is.
#[inline]
fn with_core(f: impl FnOnce(&ObsCore)) {
    OBSERVER.with(|slot| {
        if let Some(core) = slot.borrow().as_deref() {
            f(core);
        }
    });
}

/// Sends one event to the installed core; free no-op when none is.
#[inline]
pub fn observe(event: Event) {
    with_core(|core| core.record(event));
}

/// Adds `n` to a counter of the installed core; free no-op when none is.
#[inline]
pub fn counter_add(id: CounterId, n: u64) {
    with_core(|core| core.counter_add(id, n));
}

/// Records a histogram sample on the installed core; free no-op when none
/// is.
#[inline]
pub fn hist_record(id: HistId, value: u64) {
    with_core(|core| core.hist_record(id, value));
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
        {
            let silent = unobserved();
            assert!(!is_enabled());
            observe(Event::PassStart { pass: 9 });
            counter_add(CounterId::NodesScored, 1);
            hist_record(HistId::PassMoved, 1);
            drop(silent);
        }
        assert!(is_enabled());
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
            "the outer core must miss the inner and unobserved scopes and everything after its guard"
        );
        assert_eq!(outer.counter(CounterId::NodesScored), 0);
        assert_eq!(outer.hist(HistId::PassMoved).count, 0);
        assert!(!is_enabled());
    }

    #[test]
    fn counters_and_histograms_flow_to_the_core() {
        let (core, guard) = recording(16);
        counter_add(CounterId::NodesScored, 3);
        counter_add(CounterId::NodesScored, 4);
        hist_record(HistId::ReplayQueueDepth, 9);
        drop(guard);
        assert_eq!(core.counter(CounterId::NodesScored), 7);
        let hist = core.hist(HistId::ReplayQueueDepth);
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum, 9);
    }
}
