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
//! * [`stats`] — geometric mean, improvements, speedups;
//! * [`profile`] — performance profiles (the τ-curves of Fig. 2d–f);
//! * [`memory`] — the `O(n + k)` vs `O(n + m)` memory accounting of §4.1;
//! * [`timing`] — wall-clock measurement with repetitions;
//! * [`report`] — plain-text and CSV table output;
//! * [`dynamic`] — maintained-vs-cold-restream checkpoint comparison, the
//!   table `oms apply-deltas` prints;
//! * [`vertex_cut`] — replication factor and edge-balance of vertex-cut
//!   (edge) partitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamic;
pub mod memory;
pub mod profile;
pub mod quality;
pub mod report;
pub mod stats;
pub mod timing;
pub mod vertex_cut;

pub use dynamic::{
    checkpoint_table, max_cut_ratio, repair_vs_restream_speedup, CheckpointComparison,
};
pub use memory::{graph_memory_bytes, streaming_memory_bytes, MemoryEstimate};
pub use profile::PerformanceProfile;
pub use quality::{block_weights, edge_cut, imbalance, max_block_weight};
pub use report::Table;
pub use stats::{geometric_mean, improvement_percent, speedup};
pub use timing::{measure, measure_repeated};
pub use vertex_cut::{replication_factor, vertex_cut_metrics, VertexCutMetrics};
