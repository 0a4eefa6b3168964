//! Offline block→PE mapping pipelines.
//!
//! The paper's internal-memory competitors (IntMap, and KaMinPar followed by
//! an identity mapping) work offline: they first compute a high-quality
//! `k`-way partition of the whole graph and then assign the blocks to PEs.
//! This module provides the second step so that any in-memory partitioner
//! (in this repository: `oms-multilevel`) can be turned into a process
//! mapper:
//!
//! 1. build the block communication matrix ([`crate::CommGraph`]),
//! 2. construct a mapping greedily ([`crate::greedy_mapping`]),
//! 3. refine it by pair-exchange ([`crate::pair_exchange`]).

use crate::comm_graph::CommGraph;
use crate::greedy::greedy_mapping;
use crate::local_search::{pair_exchange, PairExchangeConfig};
use crate::topology::Topology;
use oms_core::{BlockId, Partition};
use oms_graph::CsrGraph;

/// The identity block→PE mapping (block `i` on PE `i`), the mapping
/// implicitly used when a plain partitioner such as Fennel "ignores the
/// given hierarchy".
pub fn identity_mapping(k: u32) -> Vec<BlockId> {
    (0..k).collect()
}

/// Computes a block→PE mapping for an existing partition: greedy
/// construction followed by pair-exchange refinement.
///
/// Returns `pe_of_block` (length `k`).
pub fn offline_block_mapping(
    graph: &CsrGraph,
    partition: &Partition,
    topology: &Topology,
) -> Vec<BlockId> {
    let k = partition.num_blocks();
    let comm = CommGraph::from_partition(graph, partition.assignments(), k);
    let mut mapping = greedy_mapping(&comm, topology);
    // Restrict the quadratic pair-exchange on large k, mirroring the
    // search-space pruning of Brandfass et al.
    let window = if k > 256 { Some(64) } else { None };
    pair_exchange(
        &comm,
        topology,
        &mut mapping,
        PairExchangeConfig {
            max_rounds: 10,
            window,
        },
    );
    mapping
}

/// Applies a block→PE mapping to a partition, producing the PE-level
/// assignment of every node (the composition `Π = pe_of_block ∘ partition`).
pub fn remap_partition(partition: &Partition, pe_of_block: &[BlockId]) -> Vec<BlockId> {
    assert_eq!(pe_of_block.len(), partition.num_blocks() as usize);
    partition
        .assignments()
        .iter()
        .map(|&b| pe_of_block[b as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::mapping_cost;
    use oms_core::JobSpec;
    use oms_graph::{CsrGraph, InMemoryStream};

    /// The partition the job `text` computes for `g`.
    fn run(text: &str, g: &CsrGraph) -> Partition {
        let partitioner = JobSpec::parse(text).unwrap().build().unwrap();
        partitioner.partition(&mut InMemoryStream::new(g)).unwrap()
    }

    #[test]
    fn identity_mapping_is_the_identity() {
        assert_eq!(identity_mapping(4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn remap_composes_assignments() {
        let p = Partition::from_assignments_unit(3, vec![0, 1, 2, 1]);
        let remapped = remap_partition(&p, &[2, 0, 1]);
        assert_eq!(remapped, vec![2, 0, 1, 0]);
    }

    #[test]
    fn offline_mapping_never_worse_than_identity() {
        // Partition a community graph with a plain streaming partitioner
        // (which ignores the hierarchy) and check that the offline block
        // mapping reduces — or at least does not increase — the mapping cost
        // relative to the identity mapping.
        let g = oms_gen::planted_partition(400, 16, 0.1, 0.01, 3);
        let t = Topology::parse("2:2:2:2", "1:10:100:1000").unwrap();
        let p = run("fennel:16", &g);
        let identity_cost = mapping_cost(&g, p.assignments(), &t);
        let mapping = offline_block_mapping(&g, &p, &t);
        let remapped = remap_partition(&p, &mapping);
        let mapped_cost = mapping_cost(&g, &remapped, &t);
        assert!(
            mapped_cost <= identity_cost,
            "offline mapping {mapped_cost} must not exceed identity {identity_cost}"
        );
    }

    #[test]
    fn offline_mapping_is_a_permutation() {
        let g = oms_gen::planted_partition(200, 8, 0.15, 0.01, 7);
        let t = Topology::parse("2:2:2", "1:10:100").unwrap();
        let p = run("hashing:8", &g);
        let mut mapping = offline_block_mapping(&g, &p, &t);
        mapping.sort_unstable();
        mapping.dedup();
        assert_eq!(mapping.len(), 8);
    }
}
