//! Minimal command-line argument handling shared by all benchmark binaries.
//!
//! Only a handful of flags are needed, so this avoids an external argument
//! parser: `--scale <f64>`, `--reps <usize>`, `--out <dir>`, `--k <u32>`
//! (repeatable), `--quick`, `--weights <unit|nodes|edges|full>` (the
//! weighted-corpus knob).

use oms_gen::WeightScheme;
use std::path::PathBuf;

/// Parsed benchmark options.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Corpus size multiplier (1.0 ≈ tens of thousands of nodes per graph).
    pub scale: f64,
    /// Repetitions per algorithm/instance (arithmetically averaged).
    pub reps: usize,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Explicit list of k values (or hierarchy extensions `r` where k = 64r).
    pub ks: Vec<u32>,
    /// Quick mode: smallest possible configuration (used by CI / tests).
    pub quick: bool,
    /// Corpus weighting scheme (`--weights unit|nodes|edges|full`).
    pub weights: WeightScheme,
    /// Remaining positional arguments.
    pub rest: Vec<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: 0.05,
            reps: 2,
            out_dir: PathBuf::from("target/experiments"),
            ks: Vec::new(),
            quick: false,
            weights: WeightScheme::Unit,
            rest: Vec::new(),
        }
    }
}

impl BenchArgs {
    /// Parses `std::env::args` (skipping the binary name).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument iterator (used by tests).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut parsed = BenchArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    if let Some(v) = iter.next().and_then(|s| s.parse().ok()) {
                        parsed.scale = v;
                    }
                }
                "--reps" => {
                    if let Some(v) = iter.next().and_then(|s| s.parse().ok()) {
                        parsed.reps = v;
                    }
                }
                "--out" => {
                    if let Some(v) = iter.next() {
                        parsed.out_dir = PathBuf::from(v);
                    }
                }
                "--k" => {
                    if let Some(v) = iter.next().and_then(|s| s.parse().ok()) {
                        parsed.ks.push(v);
                    }
                }
                "--quick" => parsed.quick = true,
                "--weights" => {
                    if let Some(v) = iter.next().and_then(|s| WeightScheme::parse(&s)) {
                        parsed.weights = v;
                    }
                }
                other => parsed.rest.push(other.to_string()),
            }
        }
        if parsed.quick {
            parsed.scale = parsed.scale.min(0.02);
            parsed.reps = 1;
        }
        parsed
    }

    /// The k values to sweep (`k = 64·r`, mirroring the paper's
    /// `r ∈ {1, 2, 4, …}` sweep), falling back to a small default grid.
    pub fn k_values(&self) -> Vec<u32> {
        if !self.ks.is_empty() {
            return self.ks.clone();
        }
        if self.quick {
            vec![64, 256]
        } else {
            vec![64, 128, 256, 512, 1024]
        }
    }

    /// Ensures the output directory exists and returns it.
    pub fn ensure_out_dir(&self) -> PathBuf {
        std::fs::create_dir_all(&self.out_dir).ok();
        self.out_dir.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_sensible() {
        let a = parse(&[]);
        assert!(a.scale > 0.0);
        assert!(a.reps >= 1);
        assert!(!a.quick);
        assert!(!a.k_values().is_empty());
    }

    #[test]
    fn parses_scale_reps_and_out() {
        let a = parse(&["--scale", "0.5", "--reps", "7", "--out", "/tmp/x"]);
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.reps, 7);
        assert_eq!(a.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn repeated_k_accumulates() {
        let a = parse(&["--k", "64", "--k", "512"]);
        assert_eq!(a.k_values(), vec![64, 512]);
    }

    #[test]
    fn quick_mode_shrinks_everything() {
        let a = parse(&["--quick", "--scale", "1.0"]);
        assert!(a.quick);
        assert!(a.scale <= 0.02);
        assert_eq!(a.reps, 1);
        assert_eq!(a.k_values(), vec![64, 256]);
    }

    #[test]
    fn weights_knob_parses() {
        assert_eq!(parse(&[]).weights, WeightScheme::Unit);
        assert_eq!(parse(&["--weights", "full"]).weights, WeightScheme::Full);
        assert_eq!(parse(&["--weights", "nodes"]).weights, WeightScheme::Nodes);
    }

    #[test]
    fn unknown_arguments_are_collected() {
        let a = parse(&["--objective", "mapping"]);
        assert_eq!(
            a.rest,
            vec!["--objective".to_string(), "mapping".to_string()]
        );
    }
}
