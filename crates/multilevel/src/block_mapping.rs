//! Offline block→PE mapping: the "partition first, then assign blocks to
//! PEs" comparator of the evaluation.
//!
//! A hierarchy-oblivious partition (Fennel, `multilevel`) becomes a process
//! mapping once its `k` blocks are placed on the PEs of the machine. The input
//! of that step is the quotient graph — one node per block, one edge per pair
//! of communicating blocks, weighted by their communication volume — which
//! [`contract`] builds sparsely. Two classic steps then place the blocks:
//!
//! 1. greedy construction (Müller-Merbach's ordering, GreedyAllC of Glantz et
//!    al.): the unmapped block with the most weight towards mapped blocks goes
//!    to the free PE where that weight costs least;
//! 2. pair exchange (Heider, accelerated by Brandfass et al.): swap the PEs of
//!    two blocks whenever that lowers `J`, for up to [`ROUNDS`] sweeps.
//!
//! Both read only the neighbourhoods of the blocks they touch — a swap of `a`
//! and `b` changes the length of edges at N(a) and N(b) only, the sparse
//! quadratic assignment view of Schulz & Träff (SEA 2017) — so memory stays
//! O(k + quotient edges).

use crate::contract::contract;
use oms_core::{BlockId, DistanceSpec, HierarchySpec, Partition};
use oms_graph::{CsrGraph, NodeId};
use std::cmp::Reverse;

/// Sweeps of the pair exchange over all candidate pairs.
const ROUNDS: usize = 10;
/// Above this many blocks, block `a` is swapped only with the next [`WINDOW`]
/// blocks (Brandfass et al.'s search-space pruning); up to it, with all.
const FULL_SEARCH_MAX_BLOCKS: usize = 256;
/// The pair-exchange window on more than [`FULL_SEARCH_MAX_BLOCKS`] blocks.
const WINDOW: usize = 64;

/// Marks a block without a PE during the greedy construction.
const FREE: BlockId = BlockId::MAX;

/// A block→PE mapping for an existing partition: greedy construction, then
/// pair exchange. Returns `pe_of_block`, one distinct PE per block; node `v`
/// then runs on PE `pe_of_block[partition.block_of(v)]`.
///
/// # Panics
///
/// Panics if the partition has more blocks than `hierarchy` has PEs, or if
/// `distances` has fewer levels than `hierarchy`.
pub fn offline_block_mapping(
    graph: &CsrGraph,
    partition: &Partition,
    hierarchy: &HierarchySpec,
    distances: &DistanceSpec,
) -> Vec<BlockId> {
    let k = partition.num_blocks() as usize;
    let quotient = contract(graph, partition.assignments(), k);
    let mut pe_of_block = greedy(&quotient, hierarchy, distances);
    pair_exchange(&quotient, hierarchy, distances, &mut pe_of_block);
    pe_of_block
}

/// The greedy construction on the quotient graph.
fn greedy(
    quotient: &CsrGraph,
    hierarchy: &HierarchySpec,
    distances: &DistanceSpec,
) -> Vec<BlockId> {
    let distance = |p, q| distances.distance(hierarchy, p, q);
    let (k, num_pes) = (quotient.num_nodes(), hierarchy.total_blocks() as usize);
    assert!(
        k <= num_pes,
        "cannot map {k} blocks onto {num_pes} PEs one-to-one"
    );
    let volume: Vec<u64> = (0..k as NodeId)
        .map(|b| quotient.incident_edge_weights(b).iter().sum())
        .collect();
    let mut towards_mapped = vec![0u64; k];
    let mut pe_of_block = vec![FREE; k];
    let mut pe_used = vec![false; num_pes];

    // The block with the largest volume goes first (the last of equals): its
    // placement constrains the solution the most.
    let mut next = (0..k).max_by_key(|&b| volume[b]);
    while let Some(block) = next {
        let mapped: Vec<(BlockId, u64)> = quotient
            .neighbors_weighted(block as NodeId)
            .map(|(c, w)| (pe_of_block[c as usize], w))
            .filter(|&(pe, _)| pe != FREE)
            .collect();
        // The first free PE of least cost towards the mapped neighbours.
        let cost = |pe| -> u64 { mapped.iter().map(|&(at, w)| w * distance(pe, at)).sum() };
        let pe = (0..num_pes as BlockId)
            .filter(|&pe| !pe_used[pe as usize])
            .min_by_key(|&pe| cost(pe))
            .expect("a free PE always exists while blocks remain");
        pe_of_block[block] = pe;
        pe_used[pe as usize] = true;
        for (c, w) in quotient.neighbors_weighted(block as NodeId) {
            towards_mapped[c as usize] += w;
        }
        // Most weight towards the mapped blocks, then the larger volume, then
        // the smaller id.
        next = (0..k)
            .filter(|&b| pe_of_block[b] == FREE)
            .max_by_key(|&b| (towards_mapped[b], volume[b], Reverse(b)));
    }
    pe_of_block
}

/// Improves `pe_of_block` in place: every improving swap of two blocks' PEs
/// is taken at once, sweep after sweep, until a sweep finds none or
/// [`ROUNDS`] sweeps have run.
fn pair_exchange(
    quotient: &CsrGraph,
    hierarchy: &HierarchySpec,
    distances: &DistanceSpec,
    pe_of_block: &mut [BlockId],
) {
    let k = pe_of_block.len();
    let window = if k > FULL_SEARCH_MAX_BLOCKS {
        WINDOW
    } else {
        k
    };
    for _ in 0..ROUNDS {
        let mut improved = false;
        for a in 0..k {
            for b in a + 1..(a + window + 1).min(k) {
                if swap_gain(quotient, hierarchy, distances, pe_of_block, a, b) > 0 {
                    pe_of_block.swap(a, b);
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
}

/// `J` before minus `J` after swapping the PEs of blocks `a` and `b`. Only
/// the edges at `a` and `b` change length, and the `a`–`b` edge keeps its
/// own.
fn swap_gain(
    quotient: &CsrGraph,
    hierarchy: &HierarchySpec,
    distances: &DistanceSpec,
    pe_of_block: &[BlockId],
    a: usize,
    b: usize,
) -> i64 {
    let distance = |p, q| distances.distance(hierarchy, p, q);
    // What moving `x` from PE `from` to PE `to` saves on its edges, the one
    // to `other` aside.
    let saved = |x: usize, other: usize, from: BlockId, to: BlockId| -> i64 {
        quotient
            .neighbors_weighted(x as NodeId)
            .filter(|&(c, _)| c as usize != other)
            .map(|(c, w)| {
                let at = pe_of_block[c as usize];
                w as i64 * (distance(from, at) as i64 - distance(to, at) as i64)
            })
            .sum()
    };
    let (pa, pb) = (pe_of_block[a], pe_of_block[b]);
    saved(a, b, pa, pb) + saved(b, a, pb, pa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition;
    use oms_core::api::stream_mapping_cost;
    use oms_graph::{GraphBuilder, InMemoryStream};
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A quotient graph on `k` blocks with the given weighted block pairs.
    fn quotient(k: usize, entries: &[(NodeId, NodeId, u64)]) -> CsrGraph {
        let mut builder = GraphBuilder::new(k);
        for &(a, b, w) in entries {
            builder.add_weighted_edge(a, b, w).unwrap();
        }
        builder.build()
    }

    /// The hierarchy and distances of `"2:2"`-style strings.
    fn machine(hierarchy: &str, distances: &str) -> (HierarchySpec, DistanceSpec) {
        (
            HierarchySpec::parse(hierarchy).unwrap(),
            DistanceSpec::parse(distances).unwrap(),
        )
    }

    /// `J` of running node `v` of `graph` on PE `pe[v]`, through the
    /// production measurement walk.
    fn j(graph: &CsrGraph, pe: &[BlockId], h: &HierarchySpec, d: &DistanceSpec) -> u64 {
        stream_mapping_cost(&mut InMemoryStream::new(graph), pe, h, d).unwrap()
    }

    fn assert_permutation(pe: &[BlockId], num_pes: u32) {
        let mut sorted = pe.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), pe.len(), "mapping must be one-to-one");
        assert!(pe.iter().all(|&p| p < num_pes));
    }

    #[test]
    fn greedy_produces_a_permutation() {
        let q = quotient(8, &[(0, 1, 5), (2, 3, 4), (4, 5, 3), (6, 7, 2)]);
        let (h, d) = machine("2:2:2", "1:10:100");
        assert_permutation(&greedy(&q, &h, &d), 8);
    }

    #[test]
    fn heavily_communicating_blocks_land_close_together() {
        let q = quotient(4, &[(0, 1, 100), (2, 3, 100), (0, 2, 1)]);
        let (h, d) = machine("2:2", "1:10");
        let pe = greedy(&q, &h, &d);
        assert_eq!(d.distance(&h, pe[0], pe[1]), 1);
        assert_eq!(d.distance(&h, pe[2], pe[3]), 1);
    }

    #[test]
    fn greedy_beats_identity_on_adversarial_input() {
        // Block 0 talks to block 7, 1 to 6, … — at odds with the identity.
        let q = quotient(8, &[(0, 7, 50), (1, 6, 50), (2, 5, 50), (3, 4, 50)]);
        let (h, d) = machine("2:2:2", "1:10:100");
        let identity: Vec<BlockId> = (0..8).collect();
        assert!(j(&q, &greedy(&q, &h, &d), &h, &d) < j(&q, &identity, &h, &d));
    }

    #[test]
    fn single_block_maps_to_pe_zero() {
        let (h, d) = machine("2:2", "1:10");
        assert_eq!(greedy(&quotient(1, &[]), &h, &d), [0]);
    }

    #[test]
    fn fewer_blocks_than_pes_is_allowed() {
        let q = quotient(3, &[(0, 1, 2), (1, 2, 3)]);
        let (h, d) = machine("2:2:2", "1:10:100");
        assert_permutation(&greedy(&q, &h, &d), 8);
    }

    #[test]
    #[should_panic(expected = "cannot map 5 blocks onto 4 PEs")]
    fn more_blocks_than_pes_panics() {
        let (h, d) = machine("2:2", "1:10");
        greedy(&quotient(5, &[]), &h, &d);
    }

    #[test]
    fn pair_exchange_fixes_an_adversarial_identity_mapping() {
        let q = quotient(4, &[(0, 3, 100), (1, 2, 100)]);
        let (h, d) = machine("2:2", "1:10");
        let mut pe: Vec<BlockId> = (0..4).collect();
        let before = j(&q, &pe, &h, &d);
        pair_exchange(&q, &h, &d, &mut pe);
        assert!(j(&q, &pe, &h, &d) < before);
        assert_eq!(d.distance(&h, pe[0], pe[3]), 1);
        assert_eq!(d.distance(&h, pe[1], pe[2]), 1);
    }

    #[test]
    fn pair_exchange_never_worsens_greedy() {
        let pairs = [
            (0, 1, 9),
            (0, 2, 7),
            (1, 3, 6),
            (4, 5, 8),
            (5, 6, 4),
            (6, 7, 5),
            (3, 4, 2),
        ];
        let q = quotient(8, &pairs);
        let (h, d) = machine("2:2:2", "1:10:100");
        let mut pe = greedy(&q, &h, &d);
        let before = j(&q, &pe, &h, &d);
        pair_exchange(&q, &h, &d, &mut pe);
        assert!(j(&q, &pe, &h, &d) <= before);
        assert_permutation(&pe, 8);
    }

    /// On random quotient graphs and random injective mappings, every swap's
    /// gain is the change of `J` the swap makes.
    #[test]
    fn swap_gain_is_the_change_in_j() {
        for case in 0..64u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(0x5EA ^ case);
            let levels = rng.gen_range(1..4usize);
            let h = HierarchySpec::new((0..levels).map(|_| rng.gen_range(2..5)).collect()).unwrap();
            let d = DistanceSpec::new((0..levels).map(|_| rng.gen_range(1..50)).collect()).unwrap();
            let k = rng.gen_range(2..h.total_blocks().min(16) + 1) as usize;
            let pairs: Vec<(NodeId, NodeId, u64)> = (0..rng.gen_range(0..3 * k))
                .map(|_| {
                    let a = rng.gen_range(0..k as NodeId);
                    (a, rng.gen_range(0..k as NodeId), rng.gen_range(1..20))
                })
                .filter(|&(a, b, _)| a != b)
                .collect();
            let q = quotient(k, &pairs);
            let mut pes: Vec<BlockId> = (0..h.total_blocks()).collect();
            pes.shuffle(&mut rng);
            let pe = &pes[..k];
            for a in 0..k {
                for b in a + 1..k {
                    let mut swapped = pe.to_vec();
                    swapped.swap(a, b);
                    let change = j(&q, pe, &h, &d) as i64 - j(&q, &swapped, &h, &d) as i64;
                    let gain = swap_gain(&q, &h, &d, pe, a, b);
                    assert_eq!(gain, change, "case {case}: swap {a}, {b}");
                }
            }
        }
    }

    #[test]
    fn offline_mapping_never_worse_than_identity() {
        // Fennel ignores the hierarchy; placing its blocks afterwards must
        // not raise J above running block i on PE i.
        let g = oms_gen::planted_partition(400, 16, 0.1, 0.01, 3);
        let (h, d) = machine("2:2:2:2", "1:10:100:1000");
        let p = partition("fennel:16", &g);
        let pe_of_block = offline_block_mapping(&g, &p, &h, &d);
        assert_permutation(&pe_of_block, 16);
        let remapped: Vec<BlockId> = p
            .assignments()
            .iter()
            .map(|&b| pe_of_block[b as usize])
            .collect();
        let (mapped, identity) = (j(&g, &remapped, &h, &d), j(&g, p.assignments(), &h, &d));
        assert!(
            mapped <= identity,
            "offline mapping {mapped} must not exceed identity {identity}"
        );
    }
}
