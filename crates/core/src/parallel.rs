//! Shared-memory parallelisation (§3.4 of the paper).
//!
//! All streaming algorithms in this crate are vertex-centric, so they are
//! parallelised by splitting the stream of nodes among threads. The paper's
//! OpenMP `parallel for` becomes the batch executor's parallel dispatch
//! ([`BatchExecutor::run_parallel`]): contiguous node chunks balanced by
//! *edge mass* rather than node count, so skewed degree distributions do not
//! starve some threads while a hub-heavy chunk hogs another. This module
//! only contains the scoring kernels; chunking and pool management live in
//! [`crate::executor`]. The only shared mutable state are
//!
//! * the block (or tree-node) weights, updated with atomic additions so that
//!   the balance constraint stays consistent, and
//! * the assignment array, written once per node by exactly one thread and
//!   read (racily but harmlessly) by the others when they look up the blocks
//!   of already-streamed neighbors.
//!
//! As in the paper, a block could in principle be overloaded if several
//! threads decide to use its last free slot simultaneously; this is rare and
//! deliberately not synchronised.

use crate::config::{OmsConfig, OnePassConfig};
use crate::executor::{
    measure_pass, BatchExecutor, PassOutcome, PassTracker, PassTrajectory, RestreamOptions,
};
use crate::oms::OnlineMultiSection;
use crate::onepass::FlatObjective;
use crate::partition::{Partition, UNASSIGNED};
use crate::scorer::{fennel_alpha, hash_node};
use crate::{BlockId, Result};
use oms_graph::{CsrGraph, EdgeWeight, InMemoryStream, NodeWeight};
use oms_obs::Stopwatch;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

fn collect_partition(
    k: u32,
    assignments: Vec<AtomicU32>,
    node_weights: &[NodeWeight],
) -> Partition {
    let assignments: Vec<BlockId> = assignments.into_iter().map(|a| a.into_inner()).collect();
    Partition::from_assignments(k, assignments, node_weights)
}

/// One tracked pass of a parallel restreaming driver: snapshot the atomic
/// assignment array, measure it on the in-memory graph, and let the shared
/// [`PassTracker`] apply the engine's accept / converge / revert rules.
/// `restore` puts a snapshot back into the kernel's atomic state. Returns
/// `true` when the pass loop should stop.
#[allow(clippy::too_many_arguments)]
fn track_parallel_pass(
    graph: &CsrGraph,
    assignments: &[AtomicU32],
    num_blocks: u32,
    last_pass: bool,
    moved: usize,
    seconds: f64,
    tracker: &mut PassTracker,
    restore: &mut dyn FnMut(&[BlockId]),
) -> Result<bool> {
    let snapshot: Vec<BlockId> = assignments
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect();
    let (edge_cut, imbalance) =
        measure_pass(&mut InMemoryStream::new(graph), &snapshot, num_blocks)?;
    Ok(
        match tracker.observe(last_pass, moved, seconds, edge_cut, imbalance, &snapshot) {
            PassOutcome::Continue => false,
            PassOutcome::Stop => true,
            PassOutcome::Revert(best) => {
                restore(&best);
                true
            }
        },
    )
}

/// Parallel Hashing: embarrassingly parallel, provided for the scalability
/// comparison (it is so cheap that parallel overheads dominate, exactly as
/// the paper observes).
pub fn hashing_parallel(
    graph: &CsrGraph,
    k: u32,
    config: OnePassConfig,
    threads: usize,
) -> Result<Partition> {
    let n = graph.num_nodes();
    let mut assignments: Vec<BlockId> = vec![UNASSIGNED; n];
    BatchExecutor::default().run_parallel_mut(graph, threads, &mut assignments, |lo, _hi, out| {
        for (slot, v) in out.iter_mut().zip(lo..) {
            *slot = (hash_node(v, config.seed) % k as u64) as BlockId;
        }
    });
    Ok(Partition::from_assignments(
        k,
        assignments,
        graph.node_weights(),
    ))
}

/// Per-thread cache of the pre-evaluated per-block penalty bases — the
/// parallel counterpart of the sequential `score_base` arena. The penalty
/// ([`FlatObjective::base`]) is a pure function of the block's load, so an
/// entry is recomputed only when the atomically-read load differs from the
/// cached one: one `powf` per observed load change instead of `k` per node,
/// with bit-identical scores.
struct CachedBases {
    weights: Vec<NodeWeight>,
    bases: Vec<f64>,
}

impl CachedBases {
    fn new(len: usize) -> Self {
        CachedBases {
            // `NodeWeight::MAX` never matches a real load, so every entry is
            // computed on first use.
            weights: vec![NodeWeight::MAX; len],
            bases: vec![0.0; len],
        }
    }

    #[inline(always)]
    fn get(
        &mut self,
        idx: usize,
        weight: NodeWeight,
        objective: FlatObjective,
        capacity: NodeWeight,
        alpha: f64,
        gamma: f64,
    ) -> f64 {
        if self.weights[idx] != weight {
            self.weights[idx] = weight;
            self.bases[idx] = objective.base(weight, capacity, alpha, gamma);
        }
        self.bases[idx]
    }
}

/// Parallel flat one-pass partitioning (Fennel or LDG) with the
/// vertex-centric scheme of §3.4.
pub fn onepass_parallel(
    graph: &CsrGraph,
    k: u32,
    scorer: FlatObjective,
    config: OnePassConfig,
    threads: usize,
) -> Result<Partition> {
    onepass_parallel_restream(graph, k, scorer, config, threads, 1, 0.0, false).map(|(p, _)| p)
}

/// Multi-pass parallel flat partitioning: up to `passes` vertex-centric
/// parallel passes; from the second pass on each node is unassigned (its
/// weight atomically removed from its block) before being re-scored against
/// the previous pass's assignment.
///
/// Per-pass quality is measured on the in-memory graph with the same
/// early-exit rules as the sequential engine: the loop stops once no node
/// moved, once the relative cut improvement drops below `convergence`, and
/// a pass that worsened the cut is reverted. With `threads > 1` the node
/// moves inside one pass are racy (the paper's relaxation), so the
/// trajectory — while always non-increasing — is not deterministic.
#[allow(clippy::too_many_arguments)]
pub fn onepass_parallel_restream(
    graph: &CsrGraph,
    k: u32,
    scorer: FlatObjective,
    config: OnePassConfig,
    threads: usize,
    passes: usize,
    convergence: f64,
    tracked: bool,
) -> Result<(Partition, PassTrajectory)> {
    let n = graph.num_nodes();
    let passes = passes.max(1);
    let capacity = Partition::capacity(graph.total_node_weight(), k, config.epsilon);
    let alpha = fennel_alpha(k, graph.num_edges(), n);
    let gamma = config.gamma;

    let assignments: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNASSIGNED)).collect();
    let block_weights: Vec<AtomicU64> = (0..k as usize).map(|_| AtomicU64::new(0)).collect();
    let mut tracker = PassTracker::new(RestreamOptions::tracked(passes, convergence));
    let measure = tracked || passes > 1;

    for pass in 0..passes {
        let moved = AtomicUsize::new(0);
        let clock = Stopwatch::start();
        BatchExecutor::default().run_parallel(graph, threads, |lo, hi| {
            let mut conn: Vec<EdgeWeight> = vec![0; k as usize];
            let mut touched: Vec<BlockId> = Vec::new();
            let mut bases = CachedBases::new(k as usize);
            let mut local_moved = 0usize;
            for v in lo..hi {
                let node_weight = graph.node_weight(v);
                let old = if pass > 0 {
                    // Restreaming: *publish* the unassignment (an atomic swap
                    // on the slot) before removing the weight, so a scoring
                    // thread that still sees the node in its block also still
                    // sees its weight in the load vector — the load may be
                    // transiently overstated, never understated.
                    let prev = assignments[v as usize].swap(UNASSIGNED, Ordering::AcqRel);
                    if prev != UNASSIGNED {
                        block_weights[prev as usize].fetch_sub(node_weight, Ordering::AcqRel);
                    }
                    prev
                } else {
                    assignments[v as usize].load(Ordering::Relaxed)
                };
                for (u, w) in graph.neighbors_weighted(v) {
                    let b = assignments[u as usize].load(Ordering::Acquire);
                    if b != UNASSIGNED {
                        if conn[b as usize] == 0 {
                            touched.push(b);
                        }
                        conn[b as usize] += w;
                    }
                }
                let mut best: Option<(usize, f64, NodeWeight)> = None;
                let mut fallback = 0usize;
                let mut fallback_load = f64::INFINITY;
                for b in 0..k as usize {
                    let weight = block_weights[b].load(Ordering::Acquire);
                    let load = weight as f64 / capacity.max(1) as f64;
                    if load < fallback_load {
                        fallback_load = load;
                        fallback = b;
                    }
                    if weight + node_weight > capacity {
                        continue;
                    }
                    let base = bases.get(b, weight, scorer, capacity, alpha, gamma);
                    let s = scorer.combine(conn[b] as f64, base);
                    match best {
                        None => best = Some((b, s, weight)),
                        Some((_, bs, bw)) => {
                            if s > bs || (s == bs && weight < bw) {
                                best = Some((b, s, weight));
                            }
                        }
                    }
                }
                let chosen = best.map(|(b, _, _)| b).unwrap_or(fallback);
                // Mirror image of the unassignment: stage the weight first,
                // then publish the assignment.
                block_weights[chosen].fetch_add(node_weight, Ordering::AcqRel);
                assignments[v as usize].store(chosen as BlockId, Ordering::Release);
                if chosen as BlockId != old {
                    local_moved += 1;
                }
                for &b in &touched {
                    conn[b as usize] = 0;
                }
                touched.clear();
            }
            if local_moved > 0 {
                moved.fetch_add(local_moved, Ordering::Relaxed);
            }
        });
        let seconds = clock.seconds();

        if measure {
            let mut restore = |snapshot: &[BlockId]| {
                for w in &block_weights {
                    w.store(0, Ordering::Relaxed);
                }
                for (v, &b) in snapshot.iter().enumerate() {
                    assignments[v].store(b, Ordering::Relaxed);
                    if b != UNASSIGNED {
                        block_weights[b as usize]
                            .fetch_add(graph.node_weight(v as u32), Ordering::Relaxed);
                    }
                }
            };
            let stop = track_parallel_pass(
                graph,
                &assignments,
                k,
                pass + 1 == passes,
                moved.into_inner(),
                seconds,
                &mut tracker,
                &mut restore,
            )?;
            if stop {
                break;
            }
        }
    }
    Ok((
        collect_partition(k, assignments, graph.node_weights()),
        tracker.finish(),
    ))
}

impl OnlineMultiSection {
    /// Shared-memory parallel OMS / nh-OMS over an in-memory graph.
    ///
    /// Semantically identical to [`OnlineMultiSection::partition_graph`]
    /// except that nodes streamed concurrently by other threads may not yet
    /// be visible when a node gathers its neighbors' assignments — the same
    /// relaxation the paper's OpenMP implementation makes.
    pub fn partition_graph_parallel(&self, graph: &CsrGraph, threads: usize) -> Result<Partition> {
        self.partition_graph_parallel_restream(graph, threads, 1, 0.0, false)
            .map(|(p, _)| p)
    }

    /// Multi-pass parallel OMS: up to `passes` parallel passes; from the
    /// second pass on, a node's weight is removed along its whole tree path
    /// before the descent is re-run against the previous pass's assignment
    /// (restreaming / remapping). Per-pass quality tracking, convergence
    /// early exit and the revert-on-worsen guard follow the sequential
    /// engine ([`BatchExecutor::run_restream`]).
    pub fn partition_graph_parallel_restream(
        &self,
        graph: &CsrGraph,
        threads: usize,
        passes: usize,
        convergence: f64,
        tracked: bool,
    ) -> Result<(Partition, PassTrajectory)> {
        let tree = self.tree();
        let config: &OmsConfig = self.config();
        let n = graph.num_nodes();
        let passes = passes.max(1);
        let capacities = tree.capacities(graph.total_node_weight(), config.epsilon);
        let alphas = tree.alphas(graph.num_edges(), n, config.alpha_mode);

        let assignments: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNASSIGNED)).collect();
        let tree_weights: Vec<AtomicU64> =
            (0..tree.num_nodes()).map(|_| AtomicU64::new(0)).collect();
        let mut tracker = PassTracker::new(RestreamOptions::tracked(passes, convergence));
        let measure = tracked || passes > 1;

        for pass in 0..passes {
            let moved = AtomicUsize::new(0);
            let clock = Stopwatch::start();
            self.parallel_pass(
                graph,
                threads,
                pass,
                &assignments,
                &tree_weights,
                &capacities,
                &alphas,
                &moved,
            );
            let seconds = clock.seconds();

            if measure {
                let mut restore = |snapshot: &[BlockId]| {
                    for w in &tree_weights {
                        w.store(0, Ordering::Relaxed);
                    }
                    for (v, &b) in snapshot.iter().enumerate() {
                        assignments[v].store(b, Ordering::Relaxed);
                        if b == UNASSIGNED {
                            continue;
                        }
                        let w = graph.node_weight(v as u32);
                        for &tree_node in tree.path_of_block(b) {
                            tree_weights[tree_node as usize].fetch_add(w, Ordering::Relaxed);
                        }
                    }
                };
                let stop = track_parallel_pass(
                    graph,
                    &assignments,
                    tree.num_blocks(),
                    pass + 1 == passes,
                    moved.into_inner(),
                    seconds,
                    &mut tracker,
                    &mut restore,
                )?;
                if stop {
                    break;
                }
            }
        }
        Ok((
            collect_partition(tree.num_blocks(), assignments, graph.node_weights()),
            tracker.finish(),
        ))
    }

    /// One vertex-centric parallel pass of the multi-section descent.
    #[allow(clippy::too_many_arguments)]
    fn parallel_pass(
        &self,
        graph: &CsrGraph,
        threads: usize,
        pass: usize,
        assignments: &[AtomicU32],
        tree_weights: &[AtomicU64],
        capacities: &[NodeWeight],
        alphas: &[f64],
        moved: &AtomicUsize,
    ) {
        let tree = self.tree();
        let config: &OmsConfig = self.config();
        let scoring = self.scoring();
        let max_fan_out = tree.max_fan_out();
        BatchExecutor::default().run_parallel(graph, threads, |lo, hi| {
            let mut conn: Vec<EdgeWeight> = vec![0; max_fan_out];
            let mut bases = CachedBases::new(tree.num_nodes());
            let mut local_moved = 0usize;
            for v in lo..hi {
                let node_weight = graph.node_weight(v);
                let old = if pass > 0 {
                    // Restreaming: publish the unassignment (swap on the
                    // slot) before removing the node along its previous tree
                    // path, so concurrently-read tree weights are only ever
                    // overstated mid-move, never understated.
                    let prev = assignments[v as usize].swap(UNASSIGNED, Ordering::AcqRel);
                    if prev != UNASSIGNED {
                        for &tree_node in tree.path_of_block(prev) {
                            tree_weights[tree_node as usize]
                                .fetch_sub(node_weight, Ordering::AcqRel);
                        }
                    }
                    prev
                } else {
                    assignments[v as usize].load(Ordering::Relaxed)
                };
                let mut cur = tree.root();
                while !tree.children(cur).is_empty() {
                    let children = tree.children(cur);
                    let path_index = tree.depth(cur) as usize;
                    let chosen_idx = match scoring {
                        Some((objective, layers)) if path_index < layers => {
                            conn[..children.len()].fill(0);
                            for (u, w) in graph.neighbors_weighted(v) {
                                let b = assignments[u as usize].load(Ordering::Relaxed);
                                if b == UNASSIGNED {
                                    continue;
                                }
                                // `cur` is internal, so every block below it
                                // has a path node at the next depth.
                                if path_index > 0 && tree.path_node(b, path_index - 1) != cur {
                                    continue;
                                }
                                let child = tree.path_node(b, path_index);
                                conn[(child - children.start) as usize] += w;
                            }
                            let mut best: Option<(usize, f64, NodeWeight)> = None;
                            let mut fallback = 0usize;
                            let mut fallback_load = f64::INFINITY;
                            for (i, child) in children.clone().enumerate() {
                                let weight = tree_weights[child as usize].load(Ordering::Acquire);
                                let capacity = capacities[child as usize];
                                let load = weight as f64 / capacity.max(1) as f64;
                                if load < fallback_load {
                                    fallback_load = load;
                                    fallback = i;
                                }
                                if weight + node_weight > capacity {
                                    continue;
                                }
                                // Tree-node-indexed cache: each tree node has its
                                // own fixed capacity and α, so the cached base is
                                // a pure function of its observed load.
                                let base = bases.get(
                                    child as usize,
                                    weight,
                                    objective,
                                    capacity,
                                    alphas[child as usize],
                                    config.gamma,
                                );
                                let s = objective.combine(conn[i] as f64, base);
                                match best {
                                    None => best = Some((i, s, weight)),
                                    Some((_, bs, bw)) => {
                                        if s > bs || (s == bs && weight < bw) {
                                            best = Some((i, s, weight));
                                        }
                                    }
                                }
                            }
                            best.map(|(i, _, _)| i).unwrap_or(fallback)
                        }
                        _ => {
                            (hash_node(
                                v,
                                config.seed ^ (cur as u64).wrapping_mul(0x9E3779B97F4A7C15),
                            ) % children.len() as u64) as usize
                        }
                    };
                    let chosen = children.start + chosen_idx as u32;
                    // Stage the weight along the path before the assignment
                    // is published below.
                    tree_weights[chosen as usize].fetch_add(node_weight, Ordering::AcqRel);
                    cur = chosen;
                }
                let block = tree.leaf_block_or_unassigned(cur);
                assignments[v as usize].store(block, Ordering::Release);
                if block != old {
                    local_moved += 1;
                }
            }
            if local_moved > 0 {
                moved.fetch_add(local_moved, Ordering::Relaxed);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onepass::{Fennel, StreamingPartitioner};
    use crate::{HierarchySpec, OmsConfig};
    use oms_gen::planted_partition;

    #[test]
    fn parallel_hashing_matches_sequential_hashing() {
        let g = planted_partition(300, 4, 0.1, 0.01, 3);
        let cfg = OnePassConfig::default().seed(7);
        let seq = crate::Hashing::new(8, cfg).partition_graph(&g).unwrap();
        let par = hashing_parallel(&g, 8, cfg, 4).unwrap();
        assert_eq!(
            seq, par,
            "hashing is deterministic, threads must not matter"
        );
    }

    #[test]
    fn parallel_fennel_produces_valid_balanced_partition() {
        let g = planted_partition(600, 8, 0.1, 0.005, 5);
        let p =
            onepass_parallel(&g, 8, FlatObjective::Fennel, OnePassConfig::default(), 4).unwrap();
        assert_eq!(p.num_nodes(), 600);
        assert!(p.validate(&vec![1; 600]));
        assert!(p.imbalance() < 0.1, "imbalance {}", p.imbalance());
    }

    #[test]
    fn parallel_ldg_produces_valid_partition() {
        let g = planted_partition(400, 8, 0.1, 0.01, 7);
        let p = onepass_parallel(&g, 8, FlatObjective::Ldg, OnePassConfig::default(), 3).unwrap();
        assert_eq!(p.num_nodes(), 400);
        assert!(p.imbalance() < 0.2);
    }

    #[test]
    fn parallel_fennel_single_thread_matches_sequential() {
        // With one thread the chunked driver processes nodes in natural
        // order, so it must coincide with the sequential implementation.
        let g = planted_partition(300, 8, 0.12, 0.01, 9);
        let cfg = OnePassConfig::default();
        let seq = Fennel::new(8, cfg).partition_graph(&g).unwrap();
        let par = onepass_parallel(&g, 8, FlatObjective::Fennel, cfg, 1).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_oms_single_thread_matches_sequential() {
        let g = planted_partition(300, 8, 0.12, 0.01, 11);
        let oms = crate::OnlineMultiSection::flat(8, OmsConfig::default()).unwrap();
        let seq = oms.partition_graph(&g).unwrap();
        let par = oms.partition_graph_parallel(&g, 1).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_oms_many_threads_still_beats_hashing() {
        let g = planted_partition(800, 16, 0.08, 0.003, 13);
        let h = HierarchySpec::parse("4:4").unwrap();
        let oms = crate::OnlineMultiSection::with_hierarchy(h, OmsConfig::default());
        let p = oms.partition_graph_parallel(&g, 8).unwrap();
        let hash = hashing_parallel(&g, 16, OnePassConfig::default(), 8).unwrap();
        assert_eq!(p.num_nodes(), 800);
        assert!(p.validate(&vec![1; 800]));
        assert!(p.edge_cut(&g) < hash.edge_cut(&g));
        // Atomic weight updates keep the imbalance low even under contention.
        assert!(p.imbalance() < 0.25, "imbalance {}", p.imbalance());
    }

    #[test]
    fn parallel_fennel_balances_skewed_degrees_across_threads() {
        // A graph with a few hubs: the edge-mass chunking must still produce
        // a valid, reasonably balanced partition.
        let g = oms_gen::barabasi_albert(800, 6, 11);
        let p =
            onepass_parallel(&g, 8, FlatObjective::Fennel, OnePassConfig::default(), 4).unwrap();
        assert_eq!(p.num_nodes(), 800);
        assert!(p.validate(&vec![1; 800]));
        assert!(p.imbalance() < 0.25, "imbalance {}", p.imbalance());
    }

    #[test]
    fn parallel_oms_on_empty_graph() {
        let g = CsrGraph::empty(0);
        let oms = crate::OnlineMultiSection::flat(4, OmsConfig::default()).unwrap();
        let p = oms.partition_graph_parallel(&g, 4).unwrap();
        assert_eq!(p.num_nodes(), 0);
    }

    #[test]
    fn move_protocol_never_understates_a_visible_assignment() {
        // Regression for the unassign ordering bug: the kernels used to
        // `fetch_sub` the weight *before* clearing the assignment slot,
        // leaving a window where a concurrent scorer saw the node in its
        // block but its weight already gone from the load vector. The fixed
        // protocol is: swap the slot to UNASSIGNED, then subtract; add,
        // then publish the new assignment. This walks every observation
        // point of that four-step protocol and checks the invariant scoring
        // threads rely on — whenever the slot points at a block, the
        // block's weight includes the node (overstatement is allowed,
        // understatement never).
        let w = 5u64;
        let slot = AtomicU32::new(0);
        let weights = [AtomicU64::new(w), AtomicU64::new(0)];
        let check = |step: &str| {
            let b = slot.load(Ordering::Acquire);
            if b != UNASSIGNED {
                assert!(
                    weights[b as usize].load(Ordering::Acquire) >= w,
                    "block {b} visibly underweighted after {step}"
                );
            }
        };
        check("init");
        // Step 1: publish the unassignment first (kernel: swap).
        let old = slot.swap(UNASSIGNED, Ordering::AcqRel);
        assert_eq!(old, 0);
        check("swap");
        // Step 2: only then retire the weight.
        weights[old as usize].fetch_sub(w, Ordering::AcqRel);
        check("fetch_sub");
        // Step 3: stage the weight in the target block...
        weights[1].fetch_add(w, Ordering::AcqRel);
        check("fetch_add");
        // Step 4: ...and only then publish the assignment.
        slot.store(1, Ordering::Release);
        check("store");
    }

    #[test]
    fn parallel_restream_stress_stays_consistent() {
        // Multi-threaded, multi-pass restreaming under contention: whatever
        // interleaving the threads produce, the unassign/assign protocol
        // must keep the shared load vector consistent enough that the final
        // partition is complete and within the racy-capacity slack. An
        // ordering bug here shows up as a u64 wrap-around (a block weight
        // near 2^64 makes every block look full and the fallback path
        // explodes the imbalance) or as systematic capacity overshoot.
        let g = planted_partition(600, 8, 0.1, 0.01, 29);
        for seed in 0..4 {
            let cfg = OnePassConfig::default().seed(seed);
            let (p, trajectory) =
                onepass_parallel_restream(&g, 8, FlatObjective::Fennel, cfg, 4, 3, 0.0, true)
                    .unwrap();
            assert_eq!(p.num_nodes(), 600);
            assert!(p.validate(&vec![1; 600]));
            assert!(p.imbalance() < 0.25, "imbalance {}", p.imbalance());
            assert!(trajectory.is_non_increasing(), "{trajectory:?}");
        }
    }
}
