//! # oms — Recursive Multi-Section on the Fly
//!
//! A Rust reproduction of *"Recursive Multi-Section on the Fly: Shared-Memory
//! Streaming Algorithms for Hierarchical Graph Partitioning and Process
//! Mapping"* (Faraj & Schulz, CLUSTER 2022).
//!
//! This facade crate re-exports the whole workspace behind one dependency:
//!
//! * [`graph`] (`oms-graph`) — CSR graphs, builders, streaming iterators, I/O;
//! * [`gen`] (`oms-gen`) — synthetic benchmark graph generators;
//! * [`core`](mod@core) (`oms-core`) — the streaming jobs `fennel`, `ldg`,
//!   `hashing` and the paper's online recursive multi-section (`oms` /
//!   `nh-oms`), including the restreaming variants, behind the unified
//!   object-safe [`Partitioner`](prelude::Partitioner) API;
//! * [`multilevel`] (`oms-multilevel`) — the in-memory `multilevel` and
//!   `rms` baselines and the `buffered` streaming job, whose registry rows
//!   [`register_multilevel_algorithms`](prelude::register_multilevel_algorithms)
//!   adds, and the offline comparator
//!   [`offline_block_mapping`](prelude::offline_block_mapping), which places
//!   the blocks of a finished partition on the PEs of a hierarchy (the
//!   crate's whole public surface). The mapping cost `J(C, D, Π)` of any
//!   assignment is [`PartitionReport::mapping_cost`](prelude::PartitionReport)
//!   of a job with `@dist=`, or
//!   [`stream_mapping_cost`](crate::core::api::stream_mapping_cost);
//! * [`edgepart`] (`oms-edgepart`) — streaming **vertex-cut** edge
//!   partitioning (`e-hash`, `e-dbh`, the HDRF-style `e-greedy`) with
//!   replication-factor tracking and multi-pass re-streaming, built from a
//!   job by [`build_edge_partitioner`](prelude::build_edge_partitioner);
//! * [`dynamic`] (`oms-dynamic`) — long-lived partition maintenance on
//!   evolving graphs: delta ingestion, local repair, drift-triggered
//!   restream fallback and warm restart from on-disk snapshots;
//! * [`workload`] (`oms-workload`) — the seeded traffic-replay simulator:
//!   Zipf-skewed random-walk requests with per-block queueing, measuring a
//!   partition by the latency users would see;
//! * [`obs`] (`oms-obs`) — the runtime observability layer: deterministic
//!   event tracing with a bounded flight recorder and an event-log hash,
//!   allocation-free counters and log-bucketed histograms, plus JSON-lines,
//!   text-table and Prometheus-style exporters.
//!
//! ## Quickstart
//!
//! Every algorithm in the workspace is built from a
//! [`JobSpec`](prelude::JobSpec) string and from nothing else: node and
//! mapping jobs through the shared dispatch registry
//! ([`JobSpec::build`](prelude::JobSpec::build)), `e-*` jobs through the
//! edge registry ([`build_edge_partitioner`](prelude::build_edge_partitioner))
//! and maintained jobs through
//! [`PartitionState::new`](prelude::PartitionState::new); no registered
//! algorithm has a typed constructor of its own. The [`prelude`] is the
//! supported surface; the per-crate modules above re-export the rest (disk
//! I/O, the drive loop, the trace exporters) for tools and tests.
//!
//! ```
//! use oms::prelude::*;
//!
//! // A graph with two communities joined by a single bridge.
//! let graph = CsrGraph::from_edges(8, &[
//!     (0, 1), (1, 2), (2, 3), (3, 0),
//!     (4, 5), (5, 6), (6, 7), (7, 4),
//!     (0, 4),
//! ]).unwrap();
//!
//! // Stream it onto a 2-processors × 2-cores machine in a single pass and
//! // evaluate both objectives (edge-cut and the mapping cost J).
//! let job: JobSpec = "oms:2:2@dist=1:10".parse().unwrap();
//! let report = job.build().unwrap()
//!     .run(&mut InMemoryStream::new(&graph)).unwrap();
//!
//! assert_eq!(report.partition.num_blocks(), 4);
//! assert_eq!(report.partition.assignments().len(), 8);
//! assert!(report.mapping_cost.unwrap() >= report.edge_cut);
//!
//! // The in-memory baselines plug into the same registry:
//! register_multilevel_algorithms();
//! let baseline = JobSpec::parse("multilevel:4").unwrap().build().unwrap()
//!     .run(&mut InMemoryStream::new(&graph)).unwrap();
//! assert_eq!(baseline.partition.num_nodes(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

pub use oms_core as core;
pub use oms_dynamic as dynamic;
pub use oms_edgepart as edgepart;
pub use oms_gen as gen;
pub use oms_graph as graph;
pub use oms_multilevel as multilevel;
pub use oms_obs as obs;
pub use oms_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use oms_core::{
        refine_partition, AlgorithmInfo, BlockId, DistanceSpec, Entry, FlatObjective,
        HierarchySpec, JobShape, JobSpec, NodeSink, Partition, PartitionReport, Partitioner,
        PassStats, PassTrajectory, Registry, RepairPolicy, RestreamOptions, ALGORITHMS,
    };
    pub use oms_dynamic::{
        max_cut_ratio, repair_vs_restream_speedup, ApplyStats, Checkpoints, ColdRestream,
        DynamicGraph, PartitionState, TraceCursor, WindowStats,
    };
    pub use oms_edgepart::{
        build_edge_partitioner, is_edge_algorithm, EdgePartition, EdgePartitionReport,
        EdgePassStats, EDGE_ALGORITHMS,
    };
    pub use oms_gen::{
        barabasi_albert, churn_trace, delaunay_graph, erdos_renyi_gnm, grid_2d, planted_partition,
        random_geometric_graph, rmat_graph, temporal_trace, ChurnConfig, ChurnScheme,
        TemporalConfig, TemporalScheme, WeightScheme,
    };
    pub use oms_graph::{
        read_delta_trace, write_delta_trace, CsrGraph, Delta, DeltaBatch, GraphBuilder,
        InMemoryStream, NodeBatch, NodeOrdering, NodeStream,
    };
    pub use oms_multilevel::{
        offline_block_mapping, register_algorithms as register_multilevel_algorithms,
    };
    pub use oms_obs::{CounterId, Event, HistId, ObsCore, ObsGuard, Stopwatch, TraceSummary};
    pub use oms_workload::{
        replay_edge_partition, replay_graph, replay_stream, replica_sets, ReplayConfig,
        ReplayReport, ZipfSampler,
    };
}
