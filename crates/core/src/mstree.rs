//! The multi-section tree, stored flat.
//!
//! Online recursive multi-section keeps the *whole hierarchy* of blocks and
//! sub-blocks in memory (Lemma 1 of the paper shows this is only `O(k)`
//! weights). The tree comes in two flavours:
//!
//! * built from a communication hierarchy `S = a1:…:aℓ` — every internal
//!   node at depth `d` has `a_{ℓ−d}` children and all leaves sit at depth
//!   `ℓ`; the leaf order matches the PE numbering of
//!   [`crate::HierarchySpec`], so a leaf assignment *is* a process mapping;
//! * built by recursive `b`-section for an arbitrary number of blocks `k`
//!   (Algorithm 2, `BuildHierarchy`) — used by nh-OMS when no hierarchy is
//!   given. When `k` is not a power of `b` the tree is irregular and blocks
//!   cover different numbers of original blocks `t`, which is reflected in
//!   their capacities (`t·L_max`) and their adapted Fennel `α`.
//!
//! # Layout
//!
//! Both builders create all children of a node in one go, so siblings have
//! consecutive node ids in ascending block-range order. The tree therefore
//! needs no per-node child list: [`MultisectionTree::children`] is the id
//! range of consecutive ids, per-tree-node arrays (weights, capacities,
//! penalties) are contiguous over a sibling group, and a node's index among
//! its siblings is its id minus its parent's first child id.
//! The root-to-leaf path of every block is one row of a dense
//! `k × max_depth` table (`O(k·ℓ)` words), so "which child of the depth-`d`
//! node on block `b`'s path comes next" — the descent kernel's only
//! per-neighbour question — is a single indexed load (`path_node`).

use crate::hierarchy::HierarchySpec;
use crate::scorer::fennel_alpha;
use crate::{BlockId, UNASSIGNED};
use oms_graph::NodeWeight;
use std::ops::Range;

/// Absent parent (the root's) and the padding of path rows whose leaf sits
/// above `max_depth`.
const NO_NODE: u32 = u32::MAX;

/// A static tree of partitioning subproblems.
#[derive(Clone, Debug)]
pub struct MultisectionTree {
    parent: Vec<u32>,
    /// The consecutive ids of every node's children (empty for leaves).
    children: Vec<Range<u32>>,
    depth: Vec<u32>,
    covered: Vec<u32>,
    /// The original block id of every leaf, [`UNASSIGNED`] for internal
    /// nodes.
    leaf_block: Vec<BlockId>,
    /// The leaf node of every original block id.
    block_leaf: Vec<u32>,
    /// Row `b` holds the tree nodes on the path from depth 1 down to block
    /// `b`'s leaf (the root is implicit), padded with [`NO_NODE`].
    paths: Vec<u32>,
    k: u32,
    max_depth: usize,
}

impl MultisectionTree {
    /// Builds the tree mirroring a communication hierarchy `S = a1:…:aℓ`.
    ///
    /// The root's children correspond to the *top* hierarchy level `aℓ`
    /// (assigned first by Algorithm 1), leaves to single PEs.
    pub fn from_hierarchy(hierarchy: &HierarchySpec) -> Self {
        let factors = hierarchy.factors();
        let levels = factors.len();
        // At depth `d` the children count is `a_{ℓ-d}` (factors are stored
        // lowest level first) and the covered range splits evenly.
        Self::build(hierarchy.total_blocks(), |depth, _| {
            factors[levels - 1 - depth as usize]
        })
    }

    /// Builds an artificial recursive `b`-section tree over `k` blocks
    /// (Algorithm 2 generalised from bisection to `b`-section).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `base_b < 2`.
    pub fn flat(k: u32, base_b: u32) -> Self {
        assert!(k > 0, "cannot build a tree over zero blocks");
        assert!(base_b >= 2, "the multi-section base must be at least 2");
        Self::build(k, |_, size| base_b.min(size))
    }

    /// Recursive splitting over contiguous block-id ranges: a node covering
    /// `size > 1` blocks at `depth` gets `fan_out(depth, size)` children
    /// whose ranges differ in size by at most one (BuildHierarchy's
    /// `⌊(kL+kR)/2⌋` split generalised), created consecutively in ascending
    /// range order.
    fn build(k: u32, fan_out: impl Fn(u32, u32) -> u32) -> Self {
        let mut tree = MultisectionTree {
            parent: Vec::new(),
            children: Vec::new(),
            depth: Vec::new(),
            covered: Vec::new(),
            leaf_block: Vec::new(),
            block_leaf: vec![0; k as usize],
            paths: Vec::new(),
            k,
            max_depth: 0,
        };
        let root = tree.add_node(NO_NODE, 0, k);
        let mut stack: Vec<(u32, u32)> = vec![(root, 0)];
        while let Some((node, lo)) = stack.pop() {
            let size = tree.covered[node as usize];
            if size == 1 {
                tree.leaf_block[node as usize] = lo;
                tree.block_leaf[lo as usize] = node;
                continue;
            }
            let d = tree.depth[node as usize];
            let fan_out = fan_out(d, size);
            let (base, remainder) = (size / fan_out, size % fan_out);
            let first = tree.parent.len() as u32;
            tree.children[node as usize] = first..first + fan_out;
            let mut c_lo = lo;
            for i in 0..fan_out {
                let extent = base + u32::from(i < remainder);
                let child = tree.add_node(node, d + 1, extent);
                stack.push((child, c_lo));
                c_lo += extent;
            }
            debug_assert_eq!(c_lo, lo + size);
        }
        tree.fill_paths();
        tree
    }

    fn add_node(&mut self, parent: u32, depth: u32, covered: u32) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(parent);
        self.children.push(0..0);
        self.depth.push(depth);
        self.covered.push(covered);
        self.leaf_block.push(UNASSIGNED);
        self.max_depth = self.max_depth.max(depth as usize);
        id
    }

    /// Records the root-to-leaf path of every block in the dense table.
    fn fill_paths(&mut self) {
        let stride = self.max_depth;
        self.paths = vec![NO_NODE; self.k as usize * stride];
        for (block, &leaf) in self.block_leaf.iter().enumerate() {
            let mut cur = leaf;
            for slot in (0..self.depth[leaf as usize] as usize).rev() {
                self.paths[block * stride + slot] = cur;
                cur = self.parent[cur as usize];
            }
        }
    }

    /// Total number of tree nodes (internal + leaves).
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// The root node id.
    pub fn root(&self) -> u32 {
        0
    }

    /// Number of original blocks `k` covered by the whole tree.
    pub fn num_blocks(&self) -> u32 {
        self.k
    }

    /// Maximum leaf depth (the number of assignment layers `ℓ`).
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Largest number of children of any node (0 for the single-block tree).
    pub fn max_fan_out(&self) -> usize {
        self.children.iter().map(|c| c.len()).max().unwrap_or(0)
    }

    /// Children of a node, as a range of consecutive node ids in ascending
    /// block-range order (empty for leaves).
    #[inline]
    pub fn children(&self, node: u32) -> Range<u32> {
        self.children[node as usize].clone()
    }

    /// Parent of a node (`None` for the root).
    pub fn parent(&self, node: u32) -> Option<u32> {
        let p = self.parent[node as usize];
        (p != NO_NODE).then_some(p)
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, node: u32) -> u32 {
        self.depth[node as usize]
    }

    /// Number of original blocks covered by a node (`t` in §3.3).
    pub fn covered(&self, node: u32) -> u32 {
        self.covered[node as usize]
    }

    /// Index of a node within its parent's children (0 for the root).
    pub fn child_index(&self, node: u32) -> u32 {
        match self.parent(node) {
            Some(p) => node - self.children[p as usize].start,
            None => 0,
        }
    }

    /// The original block id of a leaf node, `None` for internal nodes.
    pub fn leaf_block(&self, node: u32) -> Option<BlockId> {
        let b = self.leaf_block_or_unassigned(node);
        (b != UNASSIGNED).then_some(b)
    }

    /// [`MultisectionTree::leaf_block`] as a plain table lookup:
    /// [`UNASSIGNED`] for internal nodes.
    #[inline]
    pub(crate) fn leaf_block_or_unassigned(&self, node: u32) -> BlockId {
        self.leaf_block[node as usize]
    }

    /// The tree nodes on the path from depth 1 to the leaf of `block`
    /// (empty for the single-block tree, whose root is the leaf).
    #[inline]
    pub fn path_of_block(&self, block: BlockId) -> &[u32] {
        let start = block as usize * self.max_depth;
        let len = self.depth[self.block_leaf[block as usize] as usize] as usize;
        &self.paths[start..start + len]
    }

    /// The node at depth `level + 1` on `block`'s path. Only meaningful
    /// while the path is that long, i.e. when the depth-`level` node on it
    /// is internal — which is all the descent ever asks.
    #[inline]
    pub(crate) fn path_node(&self, block: BlockId, level: usize) -> u32 {
        self.paths[block as usize * self.max_depth + level]
    }

    /// The leaf node of `block`. For the degenerate single-block tree the
    /// root itself is the leaf.
    pub fn leaf_of_block(&self, block: BlockId) -> u32 {
        self.block_leaf[block as usize]
    }

    /// Capacity of every tree node: `t · L_max` where `L_max` is the balance
    /// constraint of the original `k`-way problem (§3.2/§3.3).
    pub fn capacities(&self, total_weight: NodeWeight, epsilon: f64) -> Vec<NodeWeight> {
        let lmax = crate::Partition::capacity(total_weight, self.k, epsilon);
        (0..self.num_nodes())
            .map(|node| self.capacity_of(node, lmax))
            .collect()
    }

    /// `t · L_max` of one tree node. Saturating: a huge `ε` makes `L_max`
    /// exceed every reachable load, and a capacity above the total weight is
    /// already "unbounded" — it must not wrap back to a small one.
    #[inline]
    pub(crate) fn capacity_of(&self, node: usize, lmax: NodeWeight) -> NodeWeight {
        (self.covered[node] as NodeWeight).saturating_mul(lmax)
    }

    /// Fennel `α` of every tree node seen as a *candidate block* of its
    /// parent's subproblem: `√(k/t)·m/n^{3/2}`, which specialises to the
    /// paper's adapted `αᵢ = α/√(Π_{r<i} a_r)` for homogeneous hierarchies
    /// and to the `√t`-scaled correction of §3.3 for heterogeneous
    /// subproblems.
    pub fn alphas(&self, m: usize, n: usize) -> Vec<f64> {
        let global = fennel_alpha(self.k, m, n);
        self.alpha_divisors()
            .iter()
            .map(|divisor| global / divisor)
            .collect()
    }

    /// What the global `α` is divided by per tree node: `√t`. It depends on
    /// the tree alone, so a caller whose `m` and `n` change keeps it.
    pub(crate) fn alpha_divisors(&self) -> Vec<f64> {
        self.covered.iter().map(|&t| (t as f64).sqrt()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_tree_shape() {
        let h = HierarchySpec::parse("2:3").unwrap(); // k = 6, top level 3
        let tree = MultisectionTree::from_hierarchy(&h);
        assert_eq!(tree.num_blocks(), 6);
        assert_eq!(tree.max_depth(), 2);
        assert_eq!(tree.children(tree.root()).len(), 3);
        for child in tree.children(tree.root()) {
            assert_eq!(tree.children(child).len(), 2);
            assert_eq!(tree.covered(child), 2);
        }
        // 1 root + 3 internals + 6 leaves
        assert_eq!(tree.num_nodes(), 10);
    }

    #[test]
    fn hierarchy_leaf_numbering_matches_pe_ids() {
        // S = 2:2: PE id = x1 + 2*x2. The root's first child covers PEs {0,1}
        // (x2 = 0), its second child PEs {2,3}.
        let h = HierarchySpec::parse("2:2").unwrap();
        let tree = MultisectionTree::from_hierarchy(&h);
        let top = tree.children(tree.root());
        let blocks_under = |node: u32| -> Vec<BlockId> {
            let mut blocks: Vec<BlockId> = (0..tree.num_blocks())
                .filter(|&b| tree.path_of_block(b).contains(&node))
                .collect();
            blocks.sort_unstable();
            blocks
        };
        assert_eq!(blocks_under(top.start), vec![0, 1]);
        assert_eq!(blocks_under(top.start + 1), vec![2, 3]);
    }

    #[test]
    fn block_paths_have_hierarchy_depth() {
        let h = HierarchySpec::parse("4:16:8").unwrap();
        let tree = MultisectionTree::from_hierarchy(&h);
        assert_eq!(tree.num_blocks(), 512);
        for b in 0..512 {
            let path = tree.path_of_block(b);
            assert_eq!(path.len(), 3);
            assert_eq!(tree.leaf_block(*path.last().unwrap()), Some(b));
            // The path must be a parent chain starting below the root.
            assert_eq!(tree.parent(path[0]), Some(tree.root()));
            for w in path.windows(2) {
                assert_eq!(tree.parent(w[1]), Some(w[0]));
            }
        }
    }

    #[test]
    fn storage_is_linear_in_k() {
        // Lemma 1: the whole tree stores at most 2k block weights.
        for spec in ["2:2:2:2:2", "4:4:4", "2:3:5"] {
            let h = HierarchySpec::parse(spec).unwrap();
            let tree = MultisectionTree::from_hierarchy(&h);
            assert!(tree.num_nodes() <= 2 * tree.num_blocks() as usize + 1);
        }
    }

    #[test]
    fn flat_tree_power_of_base_is_uniform() {
        let tree = MultisectionTree::flat(16, 4);
        assert_eq!(tree.max_depth(), 2);
        assert_eq!(tree.children(tree.root()).len(), 4);
        for c in tree.children(tree.root()) {
            assert_eq!(tree.children(c).len(), 4);
            assert_eq!(tree.covered(c), 4);
        }
    }

    #[test]
    fn flat_tree_heterogeneous_coverage() {
        // k = 5 with bisection: root children cover 3 and 2 blocks.
        let tree = MultisectionTree::flat(5, 2);
        let top = tree.children(tree.root());
        assert_eq!(top.len(), 2);
        let mut coverage: Vec<u32> = top.map(|c| tree.covered(c)).collect();
        coverage.sort_unstable();
        assert_eq!(coverage, vec![2, 3]);
        // Every block has a distinct leaf.
        let mut leaves: Vec<u32> = (0..5).map(|b| tree.leaf_of_block(b)).collect();
        leaves.sort_unstable();
        leaves.dedup();
        assert_eq!(leaves.len(), 5);
    }

    #[test]
    fn flat_tree_single_block() {
        let tree = MultisectionTree::flat(1, 4);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.max_depth(), 0);
        assert_eq!(tree.leaf_block(tree.root()), Some(0));
        assert_eq!(tree.path_of_block(0).len(), 0);
        assert!(tree.children(tree.root()).is_empty());
        assert_eq!(tree.max_fan_out(), 0);
        assert_eq!(tree.leaf_of_block(0), tree.root());
    }

    #[test]
    fn irregular_paths_end_at_their_leaf_and_match_the_path_table() {
        // k = 5 with 4-section: leaves sit at depths 1 and 2, so the path
        // rows of the shallow leaves are padded.
        let tree = MultisectionTree::flat(5, 4);
        assert_eq!(tree.max_depth(), 2);
        for b in 0..5 {
            let path = tree.path_of_block(b);
            let leaf = tree.leaf_of_block(b);
            assert_eq!(path.len(), tree.depth(leaf) as usize);
            assert_eq!(path.last(), Some(&leaf));
            assert_eq!(tree.leaf_block(leaf), Some(b));
            for (level, &node) in path.iter().enumerate() {
                assert_eq!(tree.path_node(b, level), node);
                assert_eq!(tree.depth(node) as usize, level + 1);
            }
        }
        for node in 0..tree.num_nodes() as u32 {
            assert_eq!(
                tree.leaf_block(node).is_none(),
                !tree.children(node).is_empty()
            );
        }
    }

    #[test]
    fn capacities_scale_with_coverage() {
        let tree = MultisectionTree::flat(5, 2);
        // total weight 100, eps 0 → Lmax = 20; root capacity 100.
        let caps = tree.capacities(100, 0.0);
        assert_eq!(caps[tree.root() as usize], 100);
        let top = tree.children(tree.root());
        let mut top_caps: Vec<_> = top.map(|c| caps[c as usize]).collect();
        top_caps.sort_unstable();
        assert_eq!(top_caps, vec![40, 60]);
    }

    #[test]
    fn capacities_saturate_instead_of_wrapping() {
        // L_max = 2^63 (ε ≈ 1.8e16 on a small graph): `t · L_max` used to
        // wrap to 0 for even `t`, closing every top-level block.
        let h = HierarchySpec::parse("2:2:3").unwrap();
        for tree in [
            MultisectionTree::from_hierarchy(&h),
            MultisectionTree::flat(13, 4),
        ] {
            for epsilon in [0.0, 3.0, 1e19] {
                let caps = tree.capacities(u64::MAX / 2, epsilon);
                for node in 1..tree.num_nodes() as u32 {
                    let parent = tree.parent(node).unwrap();
                    assert!(tree.covered(parent) >= tree.covered(node));
                    assert!(
                        caps[parent as usize] >= caps[node as usize] && caps[node as usize] > 0,
                        "capacity must never decrease with t: {caps:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn adapted_alpha_matches_paper_formula_for_uniform_hierarchy() {
        // S = 4:4, k = 16. A child of the root covers t = 4 blocks, so its α
        // must be α_global / 2 = α / sqrt(Π_{r<ℓ} a_r).
        let h = HierarchySpec::parse("4:4").unwrap();
        let tree = MultisectionTree::from_hierarchy(&h);
        let m = 10_000;
        let n = 1_000;
        let alphas = tree.alphas(m, n);
        let global = fennel_alpha(16, m, n);
        let top_child = tree.children(tree.root()).start;
        assert!((alphas[top_child as usize] - global / 2.0).abs() < 1e-12);
        let leaf = tree.leaf_of_block(0);
        assert!((alphas[leaf as usize] - global).abs() < 1e-12);
    }

    #[test]
    fn child_indices_are_consistent() {
        let tree = MultisectionTree::flat(13, 4);
        for node in 0..tree.num_nodes() as u32 {
            for (i, child) in tree.children(node).enumerate() {
                assert_eq!(tree.child_index(child) as usize, i);
                assert_eq!(tree.parent(child), Some(node));
                assert_eq!(tree.depth(child), tree.depth(node) + 1);
            }
        }
    }

    #[test]
    fn covered_counts_sum_to_parent() {
        let tree = MultisectionTree::flat(37, 3);
        for node in 0..tree.num_nodes() as u32 {
            let kids = tree.children(node);
            if !kids.is_empty() {
                let sum: u32 = kids.clone().map(|c| tree.covered(c)).sum();
                assert_eq!(sum, tree.covered(node));
            }
        }
    }

    #[test]
    #[should_panic]
    fn flat_tree_with_base_one_panics() {
        MultisectionTree::flat(8, 1);
    }
}
