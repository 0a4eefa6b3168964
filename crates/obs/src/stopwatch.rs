//! The one wall-clock source of the workspace.
//!
//! Every engine, bench bin and report field that needs a duration goes
//! through [`Stopwatch`], so "seconds" means the same thing everywhere by
//! construction. Wall-clock readings stay out of the event trace — they
//! feed reports and the `--metrics` exposition only. The workspace's `clippy.toml` disallows `std::time::Instant`
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
    }
}
