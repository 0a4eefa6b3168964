//! # oms-gen
//!
//! Synthetic graph generators used to reproduce the evaluation of the OMS
//! paper on commodity hardware.
//!
//! The paper benchmarks on 26 real-world graphs (SNAP, DIMACS, SuiteSparse)
//! spanning six structural classes — meshes, circuits, citations, web, social
//! and road networks — plus two artificial families (`rggX`, `delX`). The
//! real datasets are not redistributable here, so this crate provides
//! generators whose outputs match the structural properties that matter for
//! one-pass streaming partitioners (degree distribution, locality of the
//! natural stream order, density):
//!
//! * [`random_geometric_graph`] — the paper's `rggX` family.
//! * [`delaunay_graph`] — the paper's `delX` family (Bowyer–Watson).
//! * [`grid_2d`] — 2D meshes (stand-in for the FE meshes such as `HV15R`).
//! * [`barabasi_albert`] and [`rmat_graph`] — heavy-tailed social / web /
//!   citation-like graphs.
//! * [`erdos_renyi_gnm`] — sparse quasi-regular graphs (circuit-like).
//! * [`planted_partition`] — community-structured graphs with a known
//!   ground truth, useful for sanity-checking partition quality.
//! * [`scaled_corpus`] — a named benchmark corpus mirroring Table 1 of the
//!   paper, scaled by a user-chosen factor.
//! * [`WeightScheme`] — deterministic reweighting (power-law node weights,
//!   degree-proportional edge weights) behind `oms generate --weights`,
//!   opening the weighted workload axis on any generated graph.
//! * [`churn_trace`] — seeded, valid-by-construction delta traces (uniform,
//!   community-drift, burst) feeding the `oms-dynamic` maintenance layer.
//! * [`temporal_trace`] — timestamped temporal edge streams (preferential
//!   attachment over time, migrating communities, burst arrivals) emitted
//!   as delta traces, one batch per timestamp window.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

mod ba;
mod churn;
mod corpus;
mod delaunay;
mod er;
mod grid;
mod rgg;
mod rmat;
mod sbm;
mod temporal;
mod weights;

pub use ba::barabasi_albert;
pub use churn::{churn_trace, ChurnConfig, ChurnScheme};
pub use corpus::scaled_corpus;
pub use delaunay::delaunay_graph;
pub use er::erdos_renyi_gnm;
pub use grid::grid_2d;
pub use rgg::random_geometric_graph;
pub use rmat::{rmat_graph, RmatParams};
pub use sbm::planted_partition;
pub use temporal::{temporal_trace, TemporalConfig, TemporalScheme};
pub use weights::{WeightScheme, DEFAULT_MAX_NODE_WEIGHT};
