//! # oms-core
//!
//! The heart of the reproduction: **online recursive multi-section** (OMS),
//! a one-pass streaming algorithm that computes hierarchical graph
//! partitionings and process mappings on the fly, plus the one-pass
//! state-of-the-art baselines it is compared against (Fennel, LDG, Hashing).
//!
//! ## Streaming partitioning in one pass
//!
//! All algorithms in this crate follow the one-pass model: a node arrives
//! together with its adjacency list and is immediately and permanently
//! assigned to a block. The only global quantities available are `n`, `m`
//! and the total node weight.
//!
//! * The `hashing`, `ldg` and `fennel` jobs are the flat `k`-way baselines
//!   (§2.2 of the paper).
//! * The `oms` and `nh-oms` jobs are the paper's contribution (§3): each
//!   node is routed down a *multi-section tree* — either the communication
//!   hierarchy `S = a1:a2:…:aℓ` (process mapping, "OMS") or an artificial
//!   recursive `b`-section tree for arbitrary `k` (plain partitioning,
//!   "nh-OMS"). Its descent ([`oms`]) is the crate's one scoring kernel: a
//!   hierarchy with the single layer `S = k` is the flat problem, so `ldg`
//!   and `fennel` run it on the depth-1 tree, and [`RepairSink`] re-scores
//!   single nodes on it for dynamic-graph maintenance. All five are one job
//!   type, OMS on the tree their registry row picks.
//! * [`executor`] is the single drive loop behind all of them (and behind
//!   the one untracked pass of `oms-multilevel`'s buffered algorithm,
//!   through [`executor::run`]): [`executor::run`] and
//!   [`executor::run_restream`] walk any stream sequentially, in stream
//!   order, and feed it node by node to a [`NodeSink`].
//! * [`restream`] holds the pass policy of multi-pass restreaming (ReFennel /
//!   ReLDG style, §3.2). There are no restreaming types: every job above
//!   carries `passes=`/`conv=` and runs through the executor's
//!   multi-pass engine — the stream is rewound between passes, a per-pass
//!   quality trajectory is recorded, runs stop early on convergence, and a
//!   pass that worsened the cut is reverted. [`refine_partition`] reuses
//!   the same loop to refine partitions of the algorithms whose solve is
//!   not a streaming pass (`multilevel`, `rms`, `buffered`).
//! * [`api`] is the unified entry point and the only way to build a
//!   partitioner: an object-safe [`Partitioner`] trait, the [`JobSpec`]
//!   string format + factory, and the shared dispatch registry every
//!   frontend resolves algorithms against.
//!   [`knobs`] is the one table of the job grammar's options, from which
//!   parsing, display, validation, help texts and the CLI's job flags are
//!   derived; [`registry`] is the generic name → constructor store that
//!   both the node and the edge pipeline instantiate.
//!
//! ## Quick example
//!
//! Any algorithm can be selected, configured and run from one job string:
//!
//! ```
//! use oms_core::JobSpec;
//! use oms_graph::{CsrGraph, InMemoryStream};
//!
//! let graph = CsrGraph::from_edges(8, &[
//!     (0, 1), (1, 2), (2, 3), (3, 0),      // one community
//!     (4, 5), (5, 6), (6, 7), (7, 4),      // another community
//!     (0, 4),                              // a single bridge
//! ]).unwrap();
//! // OMS on a 2×2 hierarchy (k = 4 PEs), with the mapping objective J.
//! let job: JobSpec = "oms:2:2@dist=1:10".parse().unwrap();
//! let report = job.build().unwrap()
//!     .run(&mut InMemoryStream::new(&graph)).unwrap();
//! assert_eq!(report.partition.num_blocks(), 4);
//! assert_eq!(report.partition.assignments().len(), 8);
//! assert!(report.mapping_cost.unwrap() >= report.edge_cut);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

pub mod api;
pub mod executor;
pub mod hierarchy;
pub mod knobs;
pub mod mstree;
pub mod oms;
pub mod onepass;
pub mod partition;
pub mod registry;
pub mod restream;
pub mod scorer;

pub use api::{
    materialize_stream, stream_edge_cut, AlgorithmInfo, JobShape, JobSpec, PartitionReport,
    Partitioner, RepairPolicy, ALGORITHMS,
};
pub use executor::{
    measure, measure_pass, Measurement, NodeSink, PassStats, PassTrajectory, ReportTopology,
    RestreamOptions,
};
pub use hierarchy::{DistanceSpec, HierarchySpec};
pub use mstree::MultisectionTree;
pub use onepass::RepairSink;
pub use partition::{BlockId, Partition, UNASSIGNED};
pub use registry::{Entry, Registry};
pub use restream::refine_partition;
pub use scorer::FlatObjective;

/// Errors produced by the partitioning algorithms.
#[derive(Debug)]
pub enum PartitionError {
    /// A hierarchy or distance string could not be parsed.
    InvalidSpec(String),
    /// The requested configuration is inconsistent (e.g. `k = 0`).
    InvalidConfig(String),
    /// The underlying graph stream failed.
    Graph(oms_graph::GraphError),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::InvalidSpec(msg) => write!(f, "invalid specification: {msg}"),
            PartitionError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PartitionError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for PartitionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartitionError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<oms_graph::GraphError> for PartitionError {
    fn from(e: oms_graph::GraphError) -> Self {
        PartitionError::Graph(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, PartitionError>;
