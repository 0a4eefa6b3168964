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
//!    graph contraction;
//! 2. **Initial partitioning** of the coarsest graph with a greedy streaming
//!    pass followed by refinement;
//! 3. **Uncoarsening** with size-constrained label-propagation refinement at
//!    every level.
//!
//! Three jobs run it, each built from a [`JobSpec`](oms_core::JobSpec) like
//! every other algorithm once [`register_algorithms`] has added their rows
//! to `oms-core`'s registry:
//!
//! * `multilevel:k` (the KaMinPar stand-in) solves plain `k`-way
//!   partitioning;
//! * `rms:a1:…:al` (the IntMap stand-in) applies it recursively along a
//!   communication hierarchy, so the result is simultaneously a process
//!   mapping;
//! * `buffered:k@buf=N` bridges the two worlds: a *buffered streaming*
//!   algorithm (HeiStream-style) that runs as a sink on `oms-core`'s drive
//!   loop, collects the streamed nodes into batches, solves each batch as an
//!   in-memory model graph with the multilevel machinery and commits the
//!   result under the global balance constraint — streaming memory,
//!   multilevel quality.
//!
//! All three solve outside a streaming pass, so `passes > 1` treats the
//! extra passes alike: restreaming refinement of the solution
//! ([`refine_partition`](oms_core::refine_partition)).
//!
//! Beside `rms`, [`offline_block_mapping`] is the other route from a whole
//! graph to a process mapping: it places the blocks of any finished
//! partition on the PEs afterwards (greedy construction, then pair exchange
//! on the quotient graph) — the "partition first, then map" comparator that
//! the paper's on-the-fly mapping is measured against. The two functions are
//! the crate's whole public surface.
//!
//! ε and the seed come from the job; the solver's round counts and its
//! coarsening limit are constants. `multilevel` and `rms` are orders of
//! magnitude slower and more memory-hungry than the streaming algorithms in
//! `oms-core` — exactly the trade-off the paper's Figure 2 illustrates — but
//! produce much better cuts and mappings.
//!
//! ```
//! use oms_core::JobSpec;
//! use oms_graph::InMemoryStream;
//!
//! oms_multilevel::register_algorithms();
//! let graph = oms_gen::planted_partition(400, 8, 0.1, 0.01, 3);
//! let report = JobSpec::parse("rms:2:4@dist=1:10").unwrap().build().unwrap()
//!     .run(&mut InMemoryStream::new(&graph)).unwrap();
//! assert_eq!(report.num_blocks(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

mod block_mapping;
mod buffered;
mod clustering;
mod contract;
mod hierarchical;
mod initial;
mod partitioner;
mod refine;
mod registry;

pub use block_mapping::offline_block_mapping;
pub use registry::register_algorithms;

/// The partition the registered job `job` computes for `graph`.
#[cfg(test)]
fn partition(job: &str, graph: &oms_graph::CsrGraph) -> oms_core::Partition {
    register_algorithms();
    oms_core::JobSpec::parse(job)
        .and_then(|job| job.build())
        .and_then(|p| p.partition(&mut oms_graph::InMemoryStream::new(graph)))
        .unwrap_or_else(|e| panic!("{job}: {e}"))
}
