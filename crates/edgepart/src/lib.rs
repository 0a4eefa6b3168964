//! # oms-edgepart
//!
//! Streaming **edge partitioning** under the vertex-cut objective.
//!
//! The rest of the workspace partitions *nodes* and minimises the edge-cut.
//! Production graph systems that serve heavy traffic overwhelmingly shard by
//! *edges* instead: power-law graphs (the RMAT / Barabási–Albert families of
//! the corpus) have hub vertices whose adjacency no balanced edge-cut
//! partition can localise, while a vertex-cut partition simply *replicates*
//! the hub across blocks. The quality objective becomes the **replication
//! factor**
//!
//! ```text
//! RF(Π) = (Σ_v |R(v)|) / |{v : deg(v) > 0}|,   R(v) = { b : some edge of v is in block b }
//! ```
//!
//! — the average number of block replicas per (non-isolated) vertex — under
//! an edge-count (edge-weight) balance constraint over the blocks.
//!
//! Three streaming edge partitioners are provided, mirroring the classic
//! line-up (PowerGraph / DBH / HDRF):
//!
//! * `e-hash` — uniform hashing of the edge key; perfectly balanced in
//!   expectation, worst replication.
//! * `e-dbh` — degree-based hashing: an edge follows the hash of its
//!   *lower-degree* endpoint, so hub adjacency lists stay spread while
//!   low-degree vertices keep their edges together.
//! * `e-greedy` — an HDRF-style greedy: blocks are scored by partial-degree
//!   replica affinity plus a λ-weighted balance term ([`JobSpec::lambda`]).
//!
//! All three run single- or multi-pass through one pass loop that re-streams
//! the edges and un-assigns and re-scores each one. It takes every accept /
//! converge / revert verdict from `oms-core`'s `PassTracker` — the rules of
//! the node restreaming engine, with the total replica count as the cut —
//! and records a per-pass [`EdgePassStats`] trajectory that is
//! non-increasing in the total replica count by construction.
//!
//! A job reads the same [`oms_graph::NodeStream`] the node partitioners
//! read — in-memory, `.oms` or METIS text, unit or weighted — and takes each
//! undirected edge at its smaller endpoint, so edge partitioning needs no
//! edge format of its own and its assignments are byte-identical across
//! sources. Each pass is proven symmetric, as the node engine's first pass
//! is — by the job, or by a stream that proves its passes itself (METIS
//! text): one-sided lists are a typed graph error.
//!
//! A job is described by the same [`JobSpec`] grammar as the node
//! partitioners (`"e-greedy:32@seed=3,passes=3,lambda=1.5"`), and a
//! `JobSpec` is the only way to build one: [`build_edge_partitioner`]
//! resolves it through this crate's instance of the generic registry,
//! validates its options and returns the [`StreamingEdgePartitioner`] whose
//! [`run`](StreamingEdgePartitioner::run) yields an [`EdgePartitionReport`].
//! [`EDGE_ALGORITHMS`] / [`is_edge_algorithm`] let frontends enumerate and
//! route `e-*` algorithm names.
//!
//! ## Example
//!
//! ```
//! use oms_core::JobSpec;
//! use oms_edgepart::build_edge_partitioner;
//! use oms_graph::{CsrGraph, InMemoryStream};
//!
//! let graph = CsrGraph::from_edges(6, &[
//!     (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (3, 4),
//! ]).unwrap();
//! let job: JobSpec = "e-greedy:2@lambda=1".parse().unwrap();
//! let partitioner = build_edge_partitioner(&job).unwrap();
//! let report = partitioner.run(&mut InMemoryStream::new(&graph)).unwrap();
//! assert_eq!(report.partition.num_edges(), 7);
//! assert!(report.replication_factor >= 1.0);
//! ```
//!
//! [`JobSpec`]: oms_core::JobSpec
//! [`JobSpec::lambda`]: oms_core::JobSpec::lambda

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

mod algorithms;
mod api;
mod engine;
mod partition;

pub use algorithms::StreamingEdgePartitioner;
pub use api::{build_edge_partitioner, is_edge_algorithm, EdgePartitionReport, EDGE_ALGORITHMS};
pub use engine::EdgePassStats;
pub use partition::EdgePartition;
