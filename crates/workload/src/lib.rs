//! # oms-workload
//!
//! A seeded traffic-replay simulator: does a better partition actually
//! *serve users* faster?
//!
//! Edge-cut, imbalance and the mapping cost `J` are proxies. This crate
//! closes the loop by firing a reproducible stream of simulated user
//! requests at a finished partition and measuring what users would see:
//!
//! * requests start at hub vertices — starts are drawn Zipf-skewed over the
//!   degree ranking ([`ZipfSampler`]), the classic web/social access
//!   pattern;
//! * each request performs a multi-hop random walk (its length drawn
//!   uniformly in `1..=hops`, uniform steps over the adjacency), modelling
//!   traversal sessions of varying depth — the long sessions are the
//!   latency tail;
//! * every touched vertex costs one service tick on its block's FIFO queue;
//!   when consecutive touches land on *different* blocks the request pays a
//!   cross-block `hop_penalty` in transit — the network round trip a cut
//!   edge buys, delaying the request without occupying any server;
//! * per-block queues serialize service, so load skew turns directly into
//!   queueing delay, and a request whose entry block is backlogged past
//!   `max_backlog` is rejected up front (load shedding).
//!
//! The outcome is a [`ReplayReport`] — cross-block hop rate, per-block
//! queue loads, p50/p99 simulated latency and an FNV-1a request-log hash —
//! designed to ride beside `oms-core`'s `PartitionReport`. Everything is
//! integer-tick arithmetic driven by one `ChaCha8` stream, so a fixed
//! `(graph, assignment, config)` triple reproduces the identical report on
//! every platform and from every stream source.
//!
//! Node partitions replay through [`replay_stream`] / [`replay_graph`];
//! vertex-cut **edge** partitions replay through [`replay_edge_partition`],
//! where a hop is served by the block owning the traversed edge (a block
//! both endpoints hold a replica in, by definition of the vertex-cut) and
//! [`replica_sets`] exposes the per-vertex replica structure.
//!
//! ```
//! use oms_graph::CsrGraph;
//! use oms_workload::{replay_graph, ReplayConfig};
//!
//! let graph = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
//! let assignments = vec![0, 0, 0, 1, 1, 1];
//! let report = replay_graph(&graph, &assignments, &ReplayConfig::default());
//! assert_eq!(report.requests, report.served + report.rejected);
//! assert!(report.p50_latency <= report.p99_latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

pub mod replay;
pub mod zipf;

pub use replay::{
    replay_edge_partition, replay_graph, replay_stream, replica_sets, ReplayConfig, ReplayReport,
};
pub use zipf::ZipfSampler;
