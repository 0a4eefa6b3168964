//! # oms-mapping
//!
//! Process-mapping support for the OMS reproduction.
//!
//! Process mapping assigns the `n` processes of a communication graph to the
//! `k` PEs of a hierarchically organised parallel machine while minimising
//! the total communication cost
//! `J(C, D, Π) = Σ_{i,j} C_{i,j} · D_{Π(i),Π(j)}` (§2.1 of the paper).
//!
//! This crate provides:
//!
//! * [`Topology`] — a hierarchical machine model combining a
//!   [`oms_core::HierarchySpec`] and a [`oms_core::DistanceSpec`];
//! * [`cost`] — evaluation of `J` and per-level communication statistics;
//! * [`comm_graph`] — the block-level communication matrix induced by a
//!   partition, the input of every block→PE mapping algorithm;
//! * [`greedy`] — the greedy construction heuristic in the spirit of
//!   Müller-Merbach / GreedyAllC used by offline mapping tools;
//! * [`local_search`] — pair-exchange refinement (Brandfass et al.) of a
//!   block→PE mapping;
//! * [`offline`] — an offline mapping pipeline (greedy construction +
//!   local search) used to build the "IntMap"-like internal-memory baseline
//!   of the evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm_graph;
pub mod cost;
pub mod greedy;
pub mod local_search;
pub mod offline;
pub mod topology;

pub use comm_graph::CommGraph;
pub use cost::{mapping_cost, mapping_cost_per_level};
pub use greedy::greedy_mapping;
pub use local_search::pair_exchange;
pub use offline::{identity_mapping, offline_block_mapping, remap_partition};
pub use topology::Topology;
