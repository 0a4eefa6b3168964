//! # oms-bench
//!
//! Two kinds of binary live here. `pipeline` (`src/bin/pipeline/`, its own
//! README) is the repository's benchmark: the five CLI jobs of
//! `BENCHMARK.json` timed end to end and per layer. The other five each
//! regenerate one artefact of the paper's evaluation (§4) that no `pipeline`
//! workload covers, and stay until `pipeline` draws those curves itself:
//!
//! | binary          | paper artefact                                       | what `pipeline` lacks            |
//! |-----------------|-------------------------------------------------------|----------------------------------|
//! | `corpus_table`  | Table 1 (benchmark instances)                          | it runs on two generated graphs  |
//! | `tuning`        | §4 parameter-tuning results                            | it runs each job at one setting  |
//! | `fig2_quality`  | Fig. 2a/2b (quality) and Fig. 2d/2e (profiles)          | a sweep over `k` and the corpus  |
//! | `fig2_runtime`  | Fig. 2c (speedup over Fennel) and Fig. 2f (profile)     | a sweep over `k` and the corpus  |
//! | `memory`        | §4.1 memory-requirements paragraph                      | the `O(n + k)` vs `O(n + m)` model at k = 8192; it reads peak RSS only |
//!
//! Those five accept `--scale <f>` (instance size multiplier, default
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
