//! # oms-metrics
//!
//! Quality metrics, experiment statistics and reporting for the OMS
//! evaluation.
//!
//! The paper's methodology (§4) averages ten repetitions per instance
//! arithmetically, then aggregates over instances with the geometric mean,
//! expresses results as *improvement over* a baseline
//! (`(σ_B/σ_A − 1)·100 %`) and presents per-instance *performance profiles*.
//! This crate implements exactly that pipeline so that every benchmark
//! binary reports numbers in the paper's own terms:
//!
//! * [`quality`] — edge-cut and balance of a partition;
//! * [`stats`] — arithmetic/geometric means, improvements, speedups;
//! * [`profile`] — performance profiles (the τ-curves of Fig. 2d–f);
//! * [`memory`] — the `O(n + k)` vs `O(n + m)` memory accounting of §4.1;
//! * [`timing`] — wall-clock measurement with repetitions;
//! * [`report`] — plain-text and CSV table output;
//! * [`trajectory`] — per-pass quality trajectories of restreaming runs;
//! * [`vertex_cut`] — replication factor and edge-balance of vertex-cut
//!   (edge) partitions;
//! * [`replay`] — quality-over-time curves mixing maintained cut with
//!   traffic-replay latency at sliding-window checkpoints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamic;
pub mod memory;
pub mod profile;
pub mod quality;
pub mod replay;
pub mod report;
pub mod stats;
pub mod timing;
pub mod trajectory;
pub mod vertex_cut;

pub use dynamic::{
    checkpoint_table, max_cut_ratio, repair_vs_restream_speedup, CheckpointComparison,
};
pub use memory::{graph_memory_bytes, streaming_memory_bytes, MemoryEstimate};
pub use profile::PerformanceProfile;
pub use quality::{block_weights, edge_cut, imbalance, max_block_weight};
pub use replay::{
    max_cut_ratio_over_time, max_p99, quality_over_time_table, replay_gap_percent, ReplayPoint,
};
pub use report::Table;
pub use stats::{arithmetic_mean, geometric_mean, improvement_percent, speedup};
pub use timing::{measure, measure_repeated};
pub use trajectory::{cut_reduction_percent, effective_convergence_pass, trajectory_table};
pub use vertex_cut::{replication_factor, vertex_cut_metrics, VertexCutMetrics};
