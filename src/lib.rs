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
//! * [`core`](mod@core) (`oms-core`) — the streaming partitioners: Fennel, LDG,
//!   Hashing, and the paper's online recursive multi-section (OMS / nh-OMS),
//!   including the restreaming variants, plus the unified object-safe
//!   [`Partitioner`](prelude::Partitioner) API;
//! * [`mapping`] (`oms-mapping`) — hierarchical topologies, the mapping
//!   objective `J(C, D, Π)`, greedy block→PE construction and local search;
//! * [`multilevel`] (`oms-multilevel`) — the in-memory multilevel baseline;
//! * [`edgepart`] (`oms-edgepart`) — streaming **vertex-cut** edge
//!   partitioning (`e-hash`, `e-dbh`, the HDRF-style `e-greedy`) with
//!   replication-factor tracking and multi-pass re-streaming;
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
//! Any algorithm in the workspace can be driven from one
//! [`JobSpec`](prelude::JobSpec) string through the shared dispatch
//! registry:
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
//!
//! The classic concrete-type APIs
//! ([`OnlineMultiSection`](prelude::OnlineMultiSection),
//! [`Fennel`](prelude::Fennel), …) remain available for callers that want
//! compile-time dispatch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use oms_core as core;
pub use oms_dynamic as dynamic;
pub use oms_edgepart as edgepart;
pub use oms_gen as gen;
pub use oms_graph as graph;
pub use oms_mapping as mapping;
pub use oms_multilevel as multilevel;
pub use oms_obs as obs;
pub use oms_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use oms_core::{
        refine_partition, AlgorithmInfo, AlphaMode, BlockId, DistanceSpec, Entry, Fennel,
        FlatObjective, Hashing, HierarchySpec, JobShape, JobSpec, Ldg, NodeSink, OmsConfig,
        OnePassConfig, OnlineMultiSection, Partition, PartitionReport, Partitioner, PassStats,
        PassTrajectory, Registry, RepairPolicy, RestreamOptions, ScorerKind, StreamingPartitioner,
        ALGORITHMS,
    };
    pub use oms_dynamic::{
        max_cut_ratio, repair_vs_restream_speedup, ApplyStats, Checkpoints, ColdRestream,
        DynamicGraph, PartitionState, TraceCursor, WindowStats,
    };
    pub use oms_edgepart::{
        build_edge_partitioner, is_edge_algorithm, EdgePartition, EdgePartitionReport,
        EdgePartitioner, EdgePassStats, StreamingEdgePartitioner, EDGE_ALGORITHMS,
    };
    pub use oms_gen::{
        barabasi_albert, churn_trace, degree_proportional_edge_weights, delaunay_graph,
        erdos_renyi_gnm, grid_2d, planted_partition, power_law_node_weights,
        random_geometric_graph, rmat_graph, temporal_trace, ChurnConfig, ChurnScheme,
        TemporalConfig, TemporalScheme, WeightScheme,
    };
    pub use oms_graph::{
        read_delta_trace, write_delta_trace, CsrGraph, Delta, DeltaBatch, EdgeBatch, EdgeStream,
        EdgesOf, GraphBuilder, InMemoryStream, NodeBatch, NodeOrdering, NodeStream, StreamedEdge,
    };
    pub use oms_mapping::{mapping_cost, offline_block_mapping, remap_partition, Topology};
    pub use oms_multilevel::{
        register_algorithms as register_multilevel_algorithms, BufferedMultilevel,
        MultilevelConfig, MultilevelPartitioner, RecursiveMultisection,
    };
    pub use oms_obs::{
        CounterId, Event, FlightRecorder, HistId, Histogram, HistogramSnapshot, Metrics,
        NoopObserver, ObsCore, ObsGuard, Observer, Stopwatch, TraceSummary,
    };
    pub use oms_workload::{
        replay_edge_partition, replay_graph, replay_stream, replica_sets, ReplayConfig,
        ReplayReport, ZipfSampler,
    };
}
