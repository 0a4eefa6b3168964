//! The one wall-clock source of the workspace.
//!
//! Every engine, bench bin and report field that needs a duration goes
//! through [`Stopwatch`] (or the [`time`] helper), so "seconds" means the
//! same thing everywhere by construction. Wall-clock readings stay out of
//! the event trace — they feed reports and the `--metrics` exposition
//! only. The workspace's `clippy.toml` disallows `std::time::Instant`
//! everywhere else to keep it that way.

#![allow(clippy::disallowed_types)]

use std::time::Instant;

/// A monotonic stopwatch, started on construction.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since the stopwatch started.
    pub fn seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whole microseconds elapsed since the stopwatch started (saturating
    /// at `u64::MAX`) — the unit histogram timings are recorded in.
    pub fn micros(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

/// Runs `f` and returns its result with the elapsed wall seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let clock = Stopwatch::start();
    let value = f();
    (value, clock.seconds())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone() {
        let clock = Stopwatch::start();
        let first = clock.seconds();
        let second = clock.seconds();
        assert!(first >= 0.0);
        assert!(second >= first);
        assert!(clock.micros() < 10_000_000, "a fresh stopwatch reads small");
    }

    #[test]
    fn time_returns_value_and_duration() {
        let (value, seconds) = time(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(seconds >= 0.0);
    }
}
