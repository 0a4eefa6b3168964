//! Online recursive multi-section (Algorithm 1 of the paper).
//!
//! Every streamed node is routed down the multi-section tree: it is first
//! assigned to one of the root's children (the topmost hierarchy layer),
//! then, within the chosen block, to one of its children, and so on until a
//! leaf — i.e. an actual block / PE — is reached. Because each layer's
//! decision only depends on nodes streamed earlier, the result is *identical*
//! to running `ℓ` successive passes of the per-layer partitioner, but needs
//! only a single pass.
//!
//! Per layer the candidate children are scored with Fennel (using the
//! adapted `αᵢ` of §3.2 by default), LDG or Hashing; the hybrid mode solves
//! the bottom layers with Hashing for an additional speedup at some quality
//! cost (Theorem 3).
//!
//! # Cost per streamed node
//!
//! On a tree `a₁:…:aℓ` a node of degree `deg` costs
//!
//! * **one gather** of its `≤ deg` already-assigned neighbours into a
//!   reusable `(block, edge weight)` list. Each layer walks only what is
//!   left of that list, buckets it by child through the tree's path table
//!   (indexed loads from the block's row, no child lists to chase) and drops
//!   the entries outside the chosen child's subtree, so the list shrinks to
//!   the chosen path prefix instead of the neighbourhood being re-read `ℓ`
//!   times;
//! * **`Σ aᵢ` fused adds** (multiplies for LDG) in the select loops: the
//!   objective of a child is `conn ⊕ base`, where the penalty `base` of
//!   every tree node lives pre-evaluated in a dense arena that is contiguous
//!   over each sibling group;
//! * **`ℓ` penalty refreshes**: an assignment changes the weight of exactly
//!   the `ℓ` tree nodes on one root-to-leaf path, so only those `powf`s are
//!   paid (not `Σ aᵢ`). Each tree node also remembers its previous
//!   `(weight, base)` pair, which makes the unassign → reassign round trip
//!   of a restreaming pass `powf`-free for a node that does not move.
//!
//! A hashed layer costs one hash and one weight update; a run whose layers
//! are all hashed skips the gather.
//!
//! # Bit-exactness
//!
//! The kernel picks exactly the child that evaluating the objectives
//! directly (`conn − α·γ·c^{γ−1}`, `conn·(1 − c/L)`) for every child would:
//! `base` is [`FlatObjective::base`] — the single definition the flat kernel
//! uses — and a pure function of the tree node's weight and fixed
//! parameters, so a cached value equals a recomputed one; IEEE 754
//! guarantees `a − b ≡ a + (−b)`; integer connectivity sums do not depend
//! on the order or grouping of the additions; and the select loop keeps the
//! tie-break (higher score, then lighter, then lower index) and the `f64`
//! least-relative-load fallback. `tests/oms_oracle.rs` checks this against a
//! naive from-the-pseudocode descent.

use crate::config::{OmsConfig, ScorerKind};
use crate::executor::{NodeSink, PassTrajectory};
use crate::hierarchy::HierarchySpec;
use crate::mstree::MultisectionTree;
use crate::onepass::{FlatObjective, StreamingPartitioner};
use crate::partition::{Partition, UNASSIGNED};
use crate::scorer::select_hashing;
use crate::{BlockId, PartitionError, Result};
use oms_graph::{CsrGraph, EdgeWeight, InMemoryStream, NodeStream, NodeWeight};

/// The online recursive multi-section partitioner (OMS / nh-OMS).
#[derive(Clone, Debug)]
pub struct OnlineMultiSection {
    tree: MultisectionTree,
    config: OmsConfig,
    passes: usize,
    convergence: f64,
}

impl OnlineMultiSection {
    /// OMS: multi-section along an explicit communication hierarchy.
    pub fn with_hierarchy(hierarchy: HierarchySpec, config: OmsConfig) -> Self {
        Self::with_tree(MultisectionTree::from_hierarchy(&hierarchy), config)
    }

    /// nh-OMS: plain `k`-way partitioning through an artificial recursive
    /// `b`-section hierarchy (`b` comes from [`OmsConfig::base_b`]).
    pub fn flat(k: u32, config: OmsConfig) -> Result<Self> {
        if k == 0 {
            return Err(PartitionError::InvalidConfig(
                "the number of blocks k must be positive".into(),
            ));
        }
        if config.base_b < 2 {
            return Err(PartitionError::InvalidConfig(
                "the multi-section base must be at least 2".into(),
            ));
        }
        Ok(Self::with_tree(
            MultisectionTree::flat(k, config.base_b),
            config,
        ))
    }

    /// Builds an OMS instance from an explicit, pre-built multi-section tree.
    pub fn with_tree(tree: MultisectionTree, config: OmsConfig) -> Self {
        OnlineMultiSection {
            tree,
            config,
            passes: 1,
            convergence: 0.0,
        }
    }

    /// Restreams ("remapping", §3.2): runs up to `passes` passes, removing
    /// each node's previous assignment along its whole tree path before the
    /// descent is re-run.
    pub fn passes(mut self, passes: usize) -> Self {
        self.passes = passes;
        self
    }

    /// Sets the relative edge-cut improvement below which a multi-pass run
    /// stops.
    pub fn convergence(mut self, min_improvement: f64) -> Self {
        self.convergence = min_improvement.max(0.0);
        self
    }

    /// The underlying multi-section tree.
    pub fn tree(&self) -> &MultisectionTree {
        &self.tree
    }

    /// The configuration in use.
    pub fn config(&self) -> &OmsConfig {
        &self.config
    }

    /// The objective of the scored layers and their number — decisions among
    /// children at tree depths `1..=layers` use the objective, deeper ones
    /// (the hybrid configuration's bottom layers) use Hashing — or `None`
    /// when every layer is hashed.
    pub(crate) fn scoring(&self) -> Option<(FlatObjective, usize)> {
        let objective = match self.config.scorer {
            ScorerKind::Fennel => FlatObjective::Fennel,
            ScorerKind::Ldg => FlatObjective::Ldg,
            ScorerKind::Hashing => return None,
        };
        let layers = self.tree.max_depth();
        (layers > self.config.hashing_bottom_layers)
            .then(|| (objective, layers - self.config.hashing_bottom_layers))
    }
}

/// Start capacity of the gather list; a hub with more assigned neighbours
/// grows it by doubling, so growth is `O(log Δ)` reallocations per run.
const GATHER_CAPACITY: usize = 1024;

/// The multi-section descent as a [`NodeSink`]: the per-run mutable state of
/// an OMS run, kept alive across passes by the restreaming driver. From the
/// second pass on (restreaming / remapping), each node's previous assignment
/// is removed along its whole tree path before the descent is re-run.
pub(crate) struct OmsSink<'a> {
    tree: &'a MultisectionTree,
    restreaming: bool,
    assignments: Vec<BlockId>,
    node_weights: Vec<NodeWeight>,
    /// Weight of every tree node (block or sub-block). Lemma 1: `O(k)` many.
    tree_weights: Vec<NodeWeight>,
    capacities: Vec<NodeWeight>,
    alphas: Vec<f64>,
    /// Pre-evaluated penalty of every tree node in a scored layer:
    /// `base[t]` is [`FlatObjective::base`] of `tree_weights[t]`, refreshed
    /// whenever that weight changes. Hashed layers never read theirs.
    base: Vec<f64>,
    /// The `(weight, base)` pair every tree node held before its last
    /// refresh.
    prev: Vec<(NodeWeight, f64)>,
    /// [`OnlineMultiSection::scoring`], resolved once.
    scoring: Option<(FlatObjective, usize)>,
    gamma: f64,
    seed: u64,
    /// Connectivity towards the children of the current tree node and their
    /// scores, sized to the maximum fan-out. `conn` is all-zero between
    /// levels: the select loop zeroes what it reads.
    conn: Vec<EdgeWeight>,
    scores: Vec<f64>,
    /// The streamed node's already-assigned neighbours, compacted to the
    /// chosen subtree layer by layer.
    gathered: Vec<(BlockId, EdgeWeight)>,
    /// Hot-path tally drained into the `oms-obs` counters at pass ends.
    scored: u64,
}

impl<'a> OmsSink<'a> {
    pub(crate) fn new<S: NodeStream>(oms: &'a OnlineMultiSection, stream: &S) -> Self {
        let tree = &oms.tree;
        let n = stream.num_nodes();
        let mut sink = OmsSink {
            tree,
            restreaming: false,
            assignments: vec![UNASSIGNED; n],
            node_weights: vec![0; n],
            tree_weights: vec![0; tree.num_nodes()],
            capacities: tree.capacities(stream.total_node_weight(), oms.config.epsilon),
            alphas: tree.alphas(stream.num_edges(), n, oms.config.alpha_mode),
            base: vec![0.0; tree.num_nodes()],
            // `NodeWeight::MAX` never matches a real weight.
            prev: vec![(NodeWeight::MAX, 0.0); tree.num_nodes()],
            scoring: oms.scoring(),
            gamma: oms.config.gamma,
            seed: oms.config.seed,
            conn: vec![0; tree.max_fan_out()],
            scores: vec![0.0; tree.max_fan_out()],
            gathered: Vec::with_capacity(GATHER_CAPACITY),
            scored: 0,
        };
        sink.refresh_all_bases();
        sink
    }

    pub(crate) fn into_partition(self) -> Partition {
        Partition::from_assignments(self.tree.num_blocks(), self.assignments, &self.node_weights)
    }

    /// Re-evaluates every tree node's penalty (bulk weight changes).
    fn refresh_all_bases(&mut self) {
        if let Some((objective, _)) = self.scoring {
            for t in 0..self.base.len() {
                self.base[t] = objective.base(
                    self.tree_weights[t],
                    self.capacities[t],
                    self.alphas[t],
                    self.gamma,
                );
            }
        }
    }

    /// Changes the weight of a tree node in a scored layer and refreshes its
    /// penalty — from the remembered previous pair when the weight merely
    /// returns to it.
    #[inline]
    fn set_weight(&mut self, objective: FlatObjective, t: usize, weight: NodeWeight) {
        let (prev_weight, prev_base) = self.prev[t];
        let base = if prev_weight == weight {
            prev_base
        } else {
            objective.base(weight, self.capacities[t], self.alphas[t], self.gamma)
        };
        self.prev[t] = (self.tree_weights[t], self.base[t]);
        self.base[t] = base;
        self.tree_weights[t] = weight;
    }

    /// Routes one streamed node down the tree and records its assignment.
    fn assign(&mut self, node: oms_graph::StreamedNode<'_>) {
        self.scored += 1;
        let tree = self.tree;
        let mut cur = tree.root();
        if let Some((objective, scored_layers)) = self.scoring {
            let assignments = &self.assignments;
            self.gathered.clear();
            self.gathered
                .extend(node.neighbors_weighted().filter_map(|(u, w)| {
                    let b = assignments[u as usize];
                    (b != UNASSIGNED).then_some((b, w))
                }));
            let mut live = self.gathered.len();
            for level in 0..scored_layers {
                let children = tree.children(cur);
                if children.is_empty() {
                    break;
                }
                let (first, fan_out) = (children.start as usize, children.len());
                // One walk over the surviving neighbours: drop those outside
                // `cur`'s subtree, bucket the rest by the child on their
                // block's path.
                let mut kept = 0;
                for i in 0..live {
                    let (b, w) = self.gathered[i];
                    if level > 0 && tree.path_node(b, level - 1) != cur {
                        continue;
                    }
                    self.conn[tree.path_node(b, level) as usize - first] += w;
                    self.gathered[kept] = (b, w);
                    kept += 1;
                }
                live = kept;
                let chosen = first + self.select_child(objective, first, fan_out, node.weight);
                self.set_weight(objective, chosen, self.tree_weights[chosen] + node.weight);
                cur = chosen as u32;
            }
        }
        // The hybrid configuration's bottom layers (all layers under the
        // Hashing scorer).
        while !tree.children(cur).is_empty() {
            let children = tree.children(cur);
            // Mix the subproblem id into the seed so different subproblems
            // shuffle nodes independently.
            let seed = self.seed ^ (cur as u64).wrapping_mul(0x9E3779B97F4A7C15);
            cur = children.start + select_hashing(children.len(), node.node, seed) as u32;
            self.tree_weights[cur as usize] += node.weight;
        }
        self.assignments[node.node as usize] = tree.leaf_block_or_unassigned(cur);
        self.node_weights[node.node as usize] = node.weight;
    }

    /// The max-score feasible child among the sibling group starting at
    /// tree node `first` (ties: lighter, then lower index), or the least
    /// relatively loaded one when no child can take the node. Consumes
    /// `conn[..fan_out]` and leaves it zeroed.
    ///
    /// Like the flat kernel's `select_block`, the score is computed for
    /// infeasible children too and feasibility is folded into the comparison.
    /// With fan-outs this small the running-best dependency chain dominates,
    /// so the loop is split in two: an independent-iteration maximum over the
    /// feasible children, then the tie-break among those that attain it.
    #[inline(always)]
    fn select_child(
        &mut self,
        objective: FlatObjective,
        first: usize,
        fan_out: usize,
        node_weight: NodeWeight,
    ) -> usize {
        let weights = &self.tree_weights[first..first + fan_out];
        let capacities = &self.capacities[first..first + fan_out];
        let bases = &self.base[first..first + fan_out];
        let conn = &mut self.conn[..fan_out];
        let scores = &mut self.scores[..fan_out];
        let fits = |i: usize| weights[i] + node_weight <= capacities[i];
        let mut any_fits = false;
        let mut max = f64::NEG_INFINITY;
        for i in 0..fan_out {
            let s = objective.combine(conn[i] as f64, bases[i]);
            conn[i] = 0;
            scores[i] = s;
            any_fits |= fits(i);
            max = if fits(i) && s > max { s } else { max };
        }
        let mut best = 0usize;
        if any_fits {
            let mut best_weight = NodeWeight::MAX;
            for i in 0..fan_out {
                let better = fits(i) && scores[i] == max && weights[i] < best_weight;
                best = if better { i } else { best };
                best_weight = if better { weights[i] } else { best_weight };
            }
            return best;
        }
        // Every child is full: spread the overload by relative load,
        // compared in `f64`; the first minimum wins.
        let mut best_load = f64::INFINITY;
        for i in 0..fan_out {
            let load = weights[i] as f64 / capacities[i].max(1) as f64;
            if load < best_load {
                best_load = load;
                best = i;
            }
        }
        best
    }

    /// Removes a node's previous assignment along its whole tree path.
    fn unassign(&mut self, node: oms_graph::NodeId) {
        let b = self.assignments[node as usize];
        if b == UNASSIGNED {
            return;
        }
        let w = self.node_weights[node as usize];
        for (level, &t) in self.tree.path_of_block(b).iter().enumerate() {
            let weight = self.tree_weights[t as usize] - w;
            match self.scoring {
                Some((objective, layers)) if level < layers => {
                    self.set_weight(objective, t as usize, weight)
                }
                _ => self.tree_weights[t as usize] = weight,
            }
        }
        self.assignments[node as usize] = UNASSIGNED;
    }
}

impl NodeSink for OmsSink<'_> {
    fn begin_pass(&mut self, pass: usize) {
        self.restreaming = pass > 0;
    }

    fn process(&mut self, node: oms_graph::StreamedNode<'_>) {
        if self.restreaming {
            self.unassign(node.node);
        }
        self.assign(node);
    }

    fn end_pass(&mut self, _pass: usize) {
        oms_obs::counter_add(
            oms_obs::CounterId::NodesScored,
            std::mem::take(&mut self.scored),
        );
    }

    fn assignments(&self) -> Option<&[BlockId]> {
        Some(&self.assignments)
    }

    fn num_blocks(&self) -> u32 {
        self.tree.num_blocks()
    }

    /// Replaces the assignment array and rebuilds every tree-node weight
    /// along the blocks' paths (the executor's revert-on-worsen guard).
    fn restore(&mut self, assignments: &[BlockId]) -> bool {
        self.assignments.copy_from_slice(assignments);
        self.tree_weights.fill(0);
        for (v, &b) in self.assignments.iter().enumerate() {
            if b != UNASSIGNED {
                for &t in self.tree.path_of_block(b) {
                    self.tree_weights[t as usize] += self.node_weights[v];
                }
            }
        }
        self.refresh_all_bases();
        true
    }
}

impl StreamingPartitioner for OnlineMultiSection {
    fn partition_stream_tracked<S: NodeStream>(
        &self,
        stream: &mut S,
    ) -> Result<(Partition, PassTrajectory)> {
        let mut sink = OmsSink::new(self, stream);
        let trajectory = crate::restream::run(stream, &mut sink, self.passes, self.convergence)?;
        Ok((sink.into_partition(), trajectory))
    }

    fn num_blocks(&self) -> u32 {
        self.tree.num_blocks()
    }

    fn name(&self) -> &'static str {
        if self.passes > 1 {
            "reoms"
        } else {
            "oms"
        }
    }
}

impl OnlineMultiSection {
    /// Convenience wrapper streaming an in-memory graph in natural order.
    pub fn partition_graph(&self, graph: &CsrGraph) -> Result<Partition> {
        self.partition_stream(&mut InMemoryStream::new(graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AlphaMode, OmsConfig, ScorerKind};
    use crate::onepass::{Fennel, Hashing};
    use crate::OnePassConfig;
    use oms_gen::planted_partition;

    fn two_cliques() -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
                edges.push((u + 5, v + 5));
            }
        }
        edges.push((0, 5));
        CsrGraph::from_edges(10, &edges).unwrap()
    }

    #[test]
    fn oms_with_hierarchy_produces_valid_partition() {
        let g = planted_partition(200, 8, 0.2, 0.01, 3);
        let h = HierarchySpec::parse("2:2:2").unwrap();
        let oms = OnlineMultiSection::with_hierarchy(h, OmsConfig::default());
        let p = oms.partition_graph(&g).unwrap();
        assert_eq!(p.num_blocks(), 8);
        assert_eq!(p.num_nodes(), 200);
        assert!(p.validate(&vec![1; 200]));
        assert!(p.is_balanced(0.03 + 1e-9), "imbalance {}", p.imbalance());
    }

    #[test]
    fn oms_flat_produces_valid_partition_for_non_power_of_base() {
        let g = planted_partition(300, 10, 0.15, 0.01, 5);
        for k in [3u32, 5, 10, 13, 37] {
            let oms = OnlineMultiSection::flat(k, OmsConfig::default()).unwrap();
            let p = oms.partition_graph(&g).unwrap();
            assert_eq!(p.num_blocks(), k);
            assert!(
                p.is_balanced(0.03 + 1e-9),
                "k={k} imbalance {}",
                p.imbalance()
            );
            assert_eq!(p.num_nodes(), 300);
        }
    }

    #[test]
    fn oms_separates_two_cliques_with_ldg_scorer() {
        // With the LDG scorer and ε = 0, the first clique exactly fills one
        // block and the second clique is forced into the other, cutting only
        // the bridge edge (the Fennel scorer's additive penalty spreads the
        // first few nodes on such tiny graphs — see the baseline tests).
        let g = two_cliques();
        let oms =
            OnlineMultiSection::flat(2, OmsConfig::default().epsilon(0.0).scorer(ScorerKind::Ldg))
                .unwrap();
        let p = oms.partition_graph(&g).unwrap();
        assert_eq!(p.edge_cut(&g), 1);
        assert!(p.is_balanced(0.0));
    }

    #[test]
    fn nh_oms_cut_is_close_to_fennel_and_better_than_hashing() {
        // Headline relationship of the paper (Fig. 2b): Fennel cuts slightly
        // fewer edges than nh-OMS; both cut far fewer than Hashing.
        let g = planted_partition(600, 16, 0.12, 0.004, 11);
        let k = 16;
        let fennel = Fennel::new(k, OnePassConfig::default())
            .partition_graph(&g)
            .unwrap();
        let hashing = Hashing::new(k, OnePassConfig::default())
            .partition_graph(&g)
            .unwrap();
        let oms = OnlineMultiSection::flat(k, OmsConfig::default())
            .unwrap()
            .partition_graph(&g)
            .unwrap();
        let (c_f, c_h, c_o) = (fennel.edge_cut(&g), hashing.edge_cut(&g), oms.edge_cut(&g));
        assert!(c_o < c_h, "oms {c_o} must beat hashing {c_h}");
        // nh-OMS may cut somewhat more than Fennel (paper: ~5 % more); allow
        // a generous factor to keep the test robust.
        assert!(
            (c_o as f64) < 2.0 * c_f as f64 + 10.0,
            "oms {c_o} too far from fennel {c_f}"
        );
    }

    #[test]
    fn oms_single_block_assigns_everything_to_block_zero() {
        // `nh-oms:1`: the root is the leaf, every block path is empty and no
        // layer is ever scored or hashed — under every scorer, and across
        // the unassign → reassign round trip of restreaming passes.
        let g = two_cliques();
        for scorer in [ScorerKind::Fennel, ScorerKind::Ldg, ScorerKind::Hashing] {
            let oms = OnlineMultiSection::flat(1, OmsConfig::default().scorer(scorer)).unwrap();
            assert_eq!(oms.scoring(), None);
            let p = oms.partition_graph(&g).unwrap();
            assert!(p.assignments().iter().all(|&b| b == 0));
            let re = oms.passes(3).partition_graph(&g).unwrap();
            assert_eq!(re, p);
        }
    }

    #[test]
    fn more_blocks_than_nodes_is_a_valid_partition() {
        // k = 64 > n = 10: most leaves stay empty, L_max is 1, and every node
        // still lands in a real block without overloading any.
        let g = two_cliques();
        let h = HierarchySpec::parse("4:4:4").unwrap();
        for oms in [
            OnlineMultiSection::with_hierarchy(h, OmsConfig::default()),
            OnlineMultiSection::flat(64, OmsConfig::default().scorer(ScorerKind::Ldg)).unwrap(),
        ] {
            let p = oms.partition_graph(&g).unwrap();
            assert_eq!(p.num_blocks(), 64);
            assert!(p.validate(&[1; 10]));
            assert!(p.block_weights().iter().all(|&w| w <= 1));
            let re = oms.passes(3).partition_graph(&g).unwrap();
            assert!(re.validate(&[1; 10]));
        }
    }

    #[test]
    fn oms_with_ldg_scorer_works() {
        let g = planted_partition(200, 8, 0.2, 0.01, 7);
        let oms =
            OnlineMultiSection::flat(8, OmsConfig::default().scorer(ScorerKind::Ldg)).unwrap();
        let p = oms.partition_graph(&g).unwrap();
        assert!(p.is_balanced(0.03 + 1e-9));
        let hashing = Hashing::new(8, OnePassConfig::default())
            .partition_graph(&g)
            .unwrap();
        assert!(p.edge_cut(&g) <= hashing.edge_cut(&g));
    }

    #[test]
    fn oms_with_hashing_scorer_matches_multi_level_hashing_balance() {
        let g = planted_partition(400, 8, 0.1, 0.01, 9);
        let oms =
            OnlineMultiSection::flat(8, OmsConfig::default().scorer(ScorerKind::Hashing)).unwrap();
        let p = oms.partition_graph(&g).unwrap();
        assert_eq!(p.num_nodes(), 400);
        // Hashing ignores balance constraints but should remain statistically
        // balanced.
        assert!(p.imbalance() < 0.5, "imbalance {}", p.imbalance());
    }

    #[test]
    fn hybrid_hashing_layers_degrade_quality_but_keep_validity() {
        let g = planted_partition(500, 16, 0.12, 0.004, 13);
        let h = HierarchySpec::parse("2:2:2:2").unwrap();
        let pure = OnlineMultiSection::with_hierarchy(h.clone(), OmsConfig::default())
            .partition_graph(&g)
            .unwrap();
        let hybrid =
            OnlineMultiSection::with_hierarchy(h, OmsConfig::default().hashing_bottom_layers(2))
                .partition_graph(&g)
                .unwrap();
        assert_eq!(hybrid.num_nodes(), 500);
        assert!(hybrid.edge_cut(&g) >= pure.edge_cut(&g));
    }

    #[test]
    fn hybrid_layer_selection_counts_from_bottom() {
        let h = HierarchySpec::parse("2:2:2").unwrap();
        let oms =
            OnlineMultiSection::with_hierarchy(h, OmsConfig::default().hashing_bottom_layers(2));
        // Tree depth 3: the decision at child depth 1 (top layer) stays with
        // Fennel, the ones at depths 2 and 3 use Hashing.
        assert_eq!(oms.scoring(), Some((FlatObjective::Fennel, 1)));
        // More hashing layers than the tree has, or the Hashing scorer
        // itself: nothing is scored.
        let h = HierarchySpec::parse("2:2:2").unwrap();
        let all = OmsConfig::default().hashing_bottom_layers(7);
        assert_eq!(
            OnlineMultiSection::with_hierarchy(h.clone(), all).scoring(),
            None
        );
        let hashing = OmsConfig::default().scorer(ScorerKind::Hashing);
        assert_eq!(
            OnlineMultiSection::with_hierarchy(h, hashing).scoring(),
            None
        );
    }

    #[test]
    fn adapted_alpha_differs_from_global_alpha_in_results_or_quality() {
        let g = planted_partition(400, 16, 0.1, 0.01, 17);
        let h = HierarchySpec::parse("4:4").unwrap();
        let adapted = OnlineMultiSection::with_hierarchy(h.clone(), OmsConfig::default())
            .partition_graph(&g)
            .unwrap();
        let global = OnlineMultiSection::with_hierarchy(
            h,
            OmsConfig::default().alpha_mode(AlphaMode::Global),
        )
        .partition_graph(&g)
        .unwrap();
        // Both must be valid; they will usually differ.
        assert!(adapted.is_balanced(0.031));
        assert_eq!(global.num_nodes(), 400);
    }

    #[test]
    fn oms_is_deterministic() {
        let g = planted_partition(300, 8, 0.15, 0.01, 19);
        let make = || {
            OnlineMultiSection::flat(8, OmsConfig::default().seed(5))
                .unwrap()
                .partition_graph(&g)
                .unwrap()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn zero_blocks_is_rejected() {
        assert!(OnlineMultiSection::flat(0, OmsConfig::default()).is_err());
        assert!(OnlineMultiSection::flat(4, OmsConfig::default().base_b(1)).is_err());
    }

    #[test]
    fn streaming_partitioner_trait_is_implemented() {
        let oms = OnlineMultiSection::flat(4, OmsConfig::default()).unwrap();
        assert_eq!(oms.name(), "oms");
        assert_eq!(oms.num_blocks(), 4);
    }

    #[test]
    fn hierarchy_partition_has_lower_mapping_cost_than_hashing() {
        // The headline process-mapping claim (Fig. 2a): on a hierarchy
        // S = 2:2:2 with distances D = 1:10:100, OMS produces a mapping with
        // a far lower communication cost J than a random (Hashing)
        // assignment.
        let g = planted_partition(400, 8, 0.15, 0.004, 23);
        let h = HierarchySpec::parse("2:2:2").unwrap();
        let d = crate::DistanceSpec::paper_default();
        let cost = |p: &Partition| -> u64 {
            g.edges()
                .map(|(u, v, w)| w * d.distance(&h, p.block_of(u), p.block_of(v)))
                .sum()
        };
        let oms = OnlineMultiSection::with_hierarchy(h.clone(), OmsConfig::default())
            .partition_graph(&g)
            .unwrap();
        let hashing = Hashing::new(8, OnePassConfig::default())
            .partition_graph(&g)
            .unwrap();
        assert!(
            cost(&oms) < cost(&hashing),
            "OMS mapping cost {} must beat Hashing {}",
            cost(&oms),
            cost(&hashing)
        );
    }
}
