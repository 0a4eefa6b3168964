//! # oms-multilevel
//!
//! A self-contained, shared-memory **multilevel graph partitioner** used as
//! the internal-memory reference point of the evaluation.
//!
//! The paper compares its streaming algorithms against two in-memory tools:
//! KaMinPar (a very fast parallel multilevel partitioner) and IntMap (an
//! integrated multilevel process-mapping algorithm). Neither is
//! redistributable here, so this crate implements the same algorithmic
//! recipe from scratch:
//!
//! 1. **Coarsening** by size-constrained label propagation clustering and
//!    graph contraction ([`clustering`], [`contract`]);
//! 2. **Initial partitioning** of the coarsest graph with a greedy streaming
//!    pass followed by refinement ([`initial`]);
//! 3. **Uncoarsening** with size-constrained label-propagation refinement at
//!    every level ([`refine`]).
//!
//! [`MultilevelPartitioner`] (the KaMinPar stand-in) solves plain `k`-way
//! partitioning; [`hierarchical::RecursiveMultisection`] (the IntMap
//! stand-in) applies it recursively along a communication hierarchy so the
//! result is simultaneously a process mapping.
//!
//! [`BufferedMultilevel`] bridges the two worlds: a *buffered streaming*
//! algorithm (HeiStream-style) that runs as a sink on `oms-core`'s drive
//! loop, collects the streamed nodes into batches, solves each batch as an
//! in-memory model graph with the multilevel machinery and commits the
//! result under the global balance constraint — streaming memory,
//! multilevel quality.
//!
//! Both are orders of magnitude slower and more memory-hungry than the
//! streaming algorithms in `oms-core` — exactly the trade-off the paper's
//! Figure 2 illustrates — but produce much better cuts and mappings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffered;
pub mod clustering;
pub mod contract;
pub mod hierarchical;
pub mod initial;
pub mod partitioner;
pub mod refine;
pub mod registry;

pub use buffered::BufferedMultilevel;
pub use hierarchical::RecursiveMultisection;
pub use partitioner::{MultilevelConfig, MultilevelPartitioner};
pub use registry::register_algorithms;
