//! Calibration against machine-speed drift.
//!
//! On the shared 2-vCPU guest this benchmark was sized on, the same binary
//! on the same input drifts by 12–25 % over half an hour, and child CPU time
//! drifts with it: the machine's speed changes, not the scheduling. Raw
//! wall-clock is therefore unusable for a 10 % bound. A fixed probe run
//! right before and right after every timed operation sees the same machine
//! speed, so dividing by it takes the drift out:
//!
//! ```text
//! calibrated = raw × CAL_REF_S / mean(probe_before, probe_after)
//! ```
//!
//! The probe is a child process (`pipeline __probe`), timed from spawn to
//! exit exactly like the jobs, that does in small what the jobs do (see
//! [`probe_work`]). It is a child and not a function call so that the
//! measuring process stays small (see `child.rs`).

use crate::child;
use std::io;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// The probe time, in seconds, that calibrated values are normalised to:
/// the probe's median on the box the baseline in `BENCHMARK.json` was taken
/// on. Committed once; changing it rescales every `_s` metric.
pub const CAL_REF_S: f64 = 0.062;

/// Raw seconds rescaled by the probes adjacent to the measurement.
pub fn calibrated(raw_s: f64, probe_before_s: f64, probe_after_s: f64) -> f64 {
    raw_s * CAL_REF_S / ((probe_before_s + probe_after_s) / 2.0)
}

/// The fixed work of one probe; runs in the `__probe` child. Four phases of
/// roughly equal length, one for each way the jobs can be slowed: fresh
/// pages and memory bandwidth (graph load), dependent cache-missing gathers
/// (neighbour lookups), a throughput-bound compare/select sweep over
/// L1-resident `f64` arrays (the flat scoring loop; this is the phase a busy
/// sibling hyperthread slows), and a latency-bound `powf` chain (the penalty
/// term).
pub fn probe_work() -> u64 {
    const WORDS: usize = 4 << 20; // 32 MiB of u64
    const GATHERS: usize = 150_000;
    const BLOCKS: usize = 1024;
    const SWEEPS: usize = 120_000;
    const POWS: usize = 250_000;
    // Fresh zero pages, a sequential write that faults each one in, a read.
    let mut buf = vec![0u64; WORDS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for word in buf.iter_mut() {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *word = x;
    }
    let mut acc = buf.iter().fold(0u64, |a, &w| a.wrapping_add(w));
    // Dependent random gathers: the next index comes out of the loaded word.
    let mut i = acc as usize % WORDS;
    for _ in 0..GATHERS {
        i = (buf[i] >> 24) as usize % WORDS;
        acc ^= i as u64;
    }
    // Max-select of `gain − penalty` over all blocks, eight lanes wide.
    let gain: Vec<f64> = (0..BLOCKS).map(|b| (buf[b] >> 40) as f64).collect();
    let mut penalty: Vec<f64> = (0..BLOCKS)
        .map(|b| (buf[b + BLOCKS] >> 40) as f64)
        .collect();
    let mut best = [f64::MIN; 8];
    for sweep in 0..SWEEPS {
        for (g, p) in gain.chunks_exact(8).zip(penalty.chunks_exact(8)) {
            for lane in 0..8 {
                let score = g[lane] - p[lane];
                best[lane] = if score > best[lane] {
                    score
                } else {
                    best[lane]
                };
            }
        }
        // One block's load changes per assignment.
        penalty[sweep % BLOCKS] += 1.0;
    }
    acc ^= best.iter().sum::<f64>().to_bits();
    // The penalty term itself is a powf.
    let mut f = 1.000_001f64;
    for _ in 0..POWS {
        f = f.powf(1.000_000_1) + 1e-9;
    }
    acc ^ f.to_bits()
}

/// Runs probes and remembers the last one, so that consecutive timed
/// operations share the probe between them.
pub struct Prober {
    exe: PathBuf,
    last_s: f64,
    /// Every probe time of this run, for `bench.calib_s`.
    pub samples: Vec<f64>,
}

impl Prober {
    /// Warms the probe up (first exec pages the binary in) and takes the
    /// first sample.
    pub fn new() -> io::Result<Prober> {
        let mut prober = Prober {
            exe: std::env::current_exe()?,
            last_s: 0.0,
            samples: Vec::new(),
        };
        prober.probe()?;
        prober.samples.clear();
        prober.probe()?;
        Ok(prober)
    }

    fn probe(&mut self) -> io::Result<f64> {
        let usage = child::run(
            Command::new(&self.exe)
                .arg("__probe")
                .stdin(Stdio::null())
                .stdout(Stdio::null()),
        )?;
        if !usage.success {
            return Err(io::Error::other("calibration probe failed"));
        }
        self.last_s = usage.wall_s;
        self.samples.push(usage.wall_s);
        Ok(usage.wall_s)
    }

    /// Runs `op` between two probes and returns its result, the raw seconds
    /// `op` reported and those seconds calibrated. The probe after `op` is
    /// the probe before the next one.
    pub fn around<T>(
        &mut self,
        op: impl FnOnce() -> io::Result<(T, f64)>,
    ) -> io::Result<(T, f64, f64)> {
        let before = self.last_s;
        let (value, raw_s) = op()?;
        let after = self.probe()?;
        Ok((value, raw_s, calibrated(raw_s, before, after)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_divides_the_drift_out() {
        // A machine running 25 % slow stretches job and probes alike.
        let fast = calibrated(2.0, CAL_REF_S, CAL_REF_S);
        let slow = calibrated(2.5, CAL_REF_S * 1.25, CAL_REF_S * 1.25);
        assert!((fast - 2.0).abs() < 1e-12);
        assert!((slow - 2.0).abs() < 1e-12);
        // Speed changing during the rep: the mean of both probes is used.
        let mixed = calibrated(2.2, CAL_REF_S, CAL_REF_S * 1.2);
        assert!((mixed - 2.0).abs() < 1e-12);
    }
}
