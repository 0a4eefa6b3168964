//! # oms-bench
//!
//! The benchmark harness that regenerates every table and figure of the OMS
//! paper's evaluation (§4). Each binary corresponds to one experiment:
//!
//! | binary          | paper artefact                                      |
//! |-----------------|------------------------------------------------------|
//! | `corpus_table`  | Table 1 (benchmark instances)                         |
//! | `tuning`        | §4 parameter-tuning results                           |
//! | `fig2_quality`  | Fig. 2a/2b (quality) and Fig. 2d/2e (profiles)         |
//! | `fig2_runtime`  | Fig. 2c (speedup over Fennel) and Fig. 2f (profile)    |
//! | `memory`        | §4.1 memory-requirements paragraph                     |
//! | `edgepart`      | vertex-cut replication factor (beyond the paper)       |
//!
//! All binaries accept `--scale <f>` (instance size multiplier, default
//! 0.05), `--reps <n>` (repetitions, default 2), `--out <dir>` (CSV output
//! directory, default `target/experiments`) and `--quick`. The absolute
//! numbers depend on the host machine and on the synthetic corpus, but the
//! *relationships* the paper reports (who wins, by roughly which factor, how
//! results change with `k`) are reproduced. The paper's thread-scaling
//! results (Table 2, Fig. 3) are not: every run here is sequential.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod runners;

pub use args::BenchArgs;
pub use runners::{
    mapping_suite, partitioning_suite, quality_corpus, run_job, scalability_corpus, AlgoResult,
};
