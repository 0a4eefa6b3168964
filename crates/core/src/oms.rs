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
//! Per layer the candidate children are scored with Fennel (the adapted `αᵢ`
//! of §3.2, `γ = 1.5`), or with LDG on the depth-1 tree of the `ldg` job;
//! the hybrid mode (`hybrid=`) solves the bottom layers with Hashing for an
//! additional speedup at some quality cost (Theorem 3).
//!
//! # One kernel, three drivers
//!
//! The descent below (`OmsSink`) is the only scoring state in this crate.
//! Every streaming job is OMS on some tree, so the five built-in registry
//! rows build one job type, `OnlineMultiSection`: `oms` on a hierarchy,
//! `nh-oms` (and `oms` with a flat `k`) on a `b`-section tree, and `fennel`,
//! `ldg` and `hashing` on the depth-1 tree (one layer `S = k`: the flat
//! problem). A stream pass of that job drives the kernel — `hashing`
//! excepted, which needs no scoring state and runs the stateless
//! `HashingSink`; [`refine_partition`](crate::refine_partition) seeds the
//! kernel with an existing partition first; and
//! [`RepairSink`](crate::RepairSink) re-scores single nodes on it as a graph
//! changes, retuning `L_max` and `α` in place.
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
//!   over each sibling group. A group of fewer than `NARROW_SELECT` (8)
//!   children runs the exact loop (`select_child`): one pass that scores
//!   every child and folds the `u64` feasibility test into a maximum, and
//!   one tie-break pass. A group of 8 to 47 runs the **narrow select**
//!   (`pick_narrow`): connectivity bucketed in `u64` and converted once per
//!   child, feasibility read off a per-tree-node `f64` headroom, one pass of
//!   four independent lane maxima and one tie-break pass that takes the
//!   least `(load, index)` key among the children at the maximum, both free
//!   of data-dependent branches. A group of at least `WIDE_SELECT` (48)
//!   runs the **wide select** (`pick_wide`) on connectivity bucketed as
//!   `f64` and on a per-tree-node `f64` headroom: a read-only pass of four
//!   independent lane maxima, with no store, no integer compare and no
//!   `u64 → f64` conversion, which vectorises on the baseline x86-64 target
//!   (safe Rust only: no intrinsics, no target feature), then a pass that
//!   compares eight scores at a time with the maximum and resolves ties in
//!   scalar code only where one is equal. In a microbenchmark at
//!   `k = 1024` (2-vCPU x86-64 box) that is ≈ 0.8 ns per candidate, against
//!   ≈ 3 ns for the exact loop. Both fall back to the exact loop where they
//!   cannot decide;
//! * **`ℓ` penalty refreshes**: an assignment changes the weight of exactly
//!   the `ℓ` tree nodes on one root-to-leaf path, so only those penalties
//!   are refreshed (not `Σ aᵢ`). The load term behind a penalty — Fennel's
//!   `powf` — comes from a direct-mapped memo of the last `(weight, term)`
//!   pair per slot: sibling loads grow in lockstep and the unassign →
//!   reassign round trip of a restreaming pass or a repair step returns a
//!   weight to a value it just had, so one pass of `4:16:16` on the
//!   benchmark's RMAT graph evaluates a `powf` for 70 810 of its 787 729
//!   refreshes. A refresh also rewrites the tree node's headroom; a
//!   `retune` rewrites only the headrooms whose capacity moved.
//!
//! The flat rules are the case `ℓ = 1`, `a₁ = k`: one gather, `k` fused
//! adds, one refresh — `O(deg + k)` per node, the `O(m + nk)` of §2.2. The
//! narrow select and the exact loop zero the connectivity they read, and the
//! wide select zeroes its `f64` row through the `≤ deg` gathered
//! neighbours, so no per-node reset pass over `k` entries exists at any
//! fan-out.
//!
//! A hashed layer costs one hash and one weight update; a run whose layers
//! are all hashed skips the gather.
//!
//! Per delta, the repair driver pays one such descent per re-scored node
//! plus one `retune` — a multiply-add per tree node over the stored load
//! terms, no `powf`, no allocation.
//!
//! # Bit-exactness
//!
//! The kernel picks exactly the child that evaluating the objectives
//! directly (`conn − α·γ·c^{γ−1}`, `conn·(1 − c/L)`) for every child would:
//! `base` is [`FlatObjective::base`] — the single definition of both
//! objectives — and a pure function of the tree node's weight and the
//! current parameters, so a cached or rescaled value equals a recomputed
//! one; IEEE 754 guarantees `a − b ≡ a + (−b)`; integer connectivity sums
//! do not depend on the order or grouping of the additions; and the select
//! loop keeps the tie-break (higher score, then lighter, then lower index)
//! and the `f64` least-relative-load fallback. `tests/oms_oracle.rs` checks
//! this against a naive from-the-pseudocode descent, on hierarchies and on
//! the depth-1 tree of the flat rules.
//!
//! The narrow and the wide select pick the same child as the exact loop, for
//! these reasons:
//!
//! * **Connectivity.** The narrow select converts the `u64` sums the exact
//!   loop scores, through `i64`: below `2^63` that is the same integer,
//!   rounded the same way. The wide one sums in `f64`: integers below
//!   `2^53`, and sums of them that stay below it, are exact in `f64`. Its
//!   bucketing walk also sums the weight it buckets, so while that sum is
//!   `< 2^53` every `f64` bucket equals the `conn as f64` the exact loop
//!   scores.
//! * **Feasibility.** For a node weight `1 ≤ w < 2^53` and
//!   `room = capacity.saturating_sub(weight) as f64`, `w as f64 <= room`
//!   holds exactly when `weight + w <= capacity`: `w` is exact and rounding
//!   is monotone. A full or overloaded child has `room = 0 < w`.
//! * **Maximum.** An infeasible child scores `−∞` and a NaN is flagged, so
//!   with no NaN the lane maxima give the exact loop's maximum; the
//!   maximum of a set does not depend on the order it is taken in, and `±0`
//!   compare equal in both selects.
//! * **Ties.** With no NaN and a maximum above `−∞`, "not below the
//!   maximum" is "equal to it", and both keep the exact loop's order:
//!   lighter, then lower index. The wide select scans in that order; the
//!   narrow one takes the least key `load · 2^6 + index`, which orders
//!   the same way and is exact in `f64` for loads below `2^47`.
//!
//! Every other case falls back to the exact loop: a node weight of 0 or
//! from `2^53` on skips both, gathered weight from `2^53` on is bucketed
//! again in `u64` at a wide level, and either select declines when a
//! feasible score is NaN (the exact loop counts it as tied) or the maximum
//! is `−∞` (no child fits) — the narrow one also on a connectivity from
//! `2^63` or a load from `2^47` on. No job's parameters give a feasible
//! child a NaN or an infinite penalty, but the selects do not rely on that:
//! the unit tests in this module hold each of them to the exact loop on
//! adversarial groups that carry both.

use crate::api::{JobSpec, Partitioner};
use crate::executor::{Measurement, NodeSink, PassTrajectory, ReportTopology};
use crate::mstree::MultisectionTree;
use crate::onepass::HashingSink;
use crate::partition::{Partition, UNASSIGNED};
use crate::scorer::{fennel_alpha, select_hashing, FlatObjective, FENNEL_GAMMA};
use crate::{BlockId, Result};
use oms_graph::{EdgeWeight, NodeStream, NodeWeight};

/// A streaming job: online recursive multi-section on one tree, which is
/// what [`JobSpec::build`] makes of every built-in row (`hashing`, `ldg`,
/// `fennel`, `oms`, `nh-oms`). The registry row picks the tree and the
/// objective; everything else comes from the job.
#[derive(Clone, Debug)]
pub(crate) struct OnlineMultiSection {
    tree: MultisectionTree,
    /// The objective of the scored layers and their number — decisions among
    /// children at tree depths `1..=layers` use the objective, deeper ones
    /// (the hybrid configuration's bottom layers) use Hashing — or `None`
    /// when every layer is hashed.
    scoring: Option<(FlatObjective, usize)>,
    /// The `hashing` row: its one hashed layer runs on the stateless
    /// [`HashingSink`], which places every node where the kernel would
    /// without the kernel's `O(k)` arrays.
    hashing: bool,
    epsilon: f64,
    seed: u64,
    passes: usize,
    convergence: f64,
}

impl OnlineMultiSection {
    /// The job `spec` describes on `tree`, its layers scored with
    /// `objective` (all but the bottom `hybrid=` ones) — or, for `None`, the
    /// `hashing` row.
    pub(crate) fn new(
        spec: &JobSpec,
        tree: MultisectionTree,
        objective: Option<FlatObjective>,
    ) -> Self {
        let (layers, hashed) = (tree.max_depth(), spec.hashing_bottom_layers);
        OnlineMultiSection {
            scoring: objective
                .filter(|_| layers > hashed)
                .map(|objective| (objective, layers - hashed)),
            hashing: objective.is_none(),
            tree,
            epsilon: spec.epsilon,
            seed: spec.seed,
            passes: spec.passes,
            convergence: spec.convergence,
        }
    }

    /// A flat rule (`None` = Hashing) as the multi-section it is: the job
    /// `spec` on the depth-1 tree over `k` blocks (the root alone for
    /// `k = 1`).
    pub(crate) fn flat(spec: &JobSpec, objective: Option<FlatObjective>) -> Self {
        let k = spec.num_blocks();
        Self::new(spec, MultisectionTree::flat(k, k.max(2)), objective)
    }

    /// Up to `passes` passes of the job's sink over `stream`; see
    /// [`Partitioner::partition_measured`] for `report`.
    fn run(
        &self,
        stream: &mut dyn NodeStream,
        report: Option<ReportTopology<'_>>,
    ) -> Result<(Partition, PassTrajectory, Option<Measurement>)> {
        let (passes, convergence) = (self.passes, self.convergence);
        let k = self.tree.num_blocks();
        if self.hashing {
            let mut sink = HashingSink {
                assignments: vec![UNASSIGNED; stream.num_nodes()],
                block_weights: vec![0; k as usize],
                seed: self.seed,
            };
            let (trajectory, measured) =
                crate::restream::run(stream, &mut sink, passes, convergence, report)?;
            let partition = Partition::from_block_weights(k, sink.assignments, sink.block_weights);
            return Ok((partition, trajectory, measured));
        }
        let (n, m) = (stream.num_nodes(), stream.num_edges());
        let mut sink = OmsSink::new(self, n, m, stream.total_node_weight());
        let (trajectory, measured) =
            crate::restream::run(stream, &mut sink, passes, convergence, report)?;
        Ok((sink.into_partition(), trajectory, measured))
    }
}

/// [`JobSpec::build`] wraps the job, and the wrapper reports the registry
/// name.
impl Partitioner for OnlineMultiSection {
    fn name(&self) -> String {
        "oms".into()
    }

    fn num_blocks(&self) -> u32 {
        self.tree.num_blocks()
    }

    fn partition(&self, stream: &mut dyn NodeStream) -> Result<Partition> {
        Ok(self.run(stream, None)?.0)
    }

    fn partition_tracked(
        &self,
        stream: &mut dyn NodeStream,
    ) -> Result<(Partition, PassTrajectory)> {
        let (partition, trajectory, _) = self.run(stream, None)?;
        Ok((partition, trajectory))
    }

    fn partition_measured(
        &self,
        stream: &mut dyn NodeStream,
        topology: ReportTopology<'_>,
    ) -> Result<(Partition, PassTrajectory, Option<Measurement>)> {
        self.run(stream, Some(topology))
    }
}

/// Start capacity of the gather list; a hub with more assigned neighbours
/// grows it by doubling, so growth is `O(log Δ)` reallocations per run.
const GATHER_CAPACITY: usize = 1024;

/// Sibling groups at least this wide are scored by the wide select
/// ([`pick_wide`]); narrower ones by the narrow select ([`pick_narrow`]).
/// From a sweep of flat Fennel with every group on the wide select against
/// every group on the narrow one (wall time, RMAT scale 18, seed 11, direct
/// CLI runs, 8 alternating pairs per `k` on a 2-vCPU x86-64 box, four
/// passes to lift the kernel above the I/O; the wide select's change): k =
/// 8 +6.7 %, 16 +6.1 %, 24 +2.5 %, 32 +2.0 %, 36 +0.4 %, 40 −1.6 % (faster
/// in 7 of 8 pairs), 44 −1.3 % (6/8), 48 −3.5 % (7/8), 64 −11 % (8/8); one
/// pass at 96: −7.5 % (8/8). Against the exact loop the wide select gained
/// from 32 on; the narrow select moves the crossover to 36–48, and 48 is
/// still the narrowest width with a gain outside the noise.
const WIDE_SELECT: usize = 48;

/// Sibling groups at least this wide (and narrower than [`WIDE_SELECT`])
/// are scored by the narrow select ([`pick_narrow`]); narrower ones by the
/// exact loop alone, whose branches a group of a few children predicts
/// well. From flat Fennel with every narrow group on the narrow select
/// against every one on the exact loop (wall time, RMAT scale 18, seed 11,
/// four passes, direct CLI runs, 8 alternating pairs per `k` on a 2-vCPU
/// x86-64 box; the narrow select's change): k = 4 +5.6 %, 6 +2.2 %, 8
/// −0.1 % (faster in 6 of 8 pairs), 12 −2.4 % (8/8), 16 −6.1 % (8/8). 8 is
/// the narrowest width at which it does not lose.
const NARROW_SELECT: usize = 8;

/// Slots of the load-term memo ([`OmsSink::load_term`]).
const MEMO: usize = 256;

/// Integers below `2^53` — and sums of them that stay below it — are exact
/// in `f64`.
const F64_EXACT: u64 = 1 << 53;

/// Lanes of the wide select's maximum: four independent running maxima,
/// two SSE2 registers on the baseline x86-64 target.
const LANES: usize = 4;

/// Candidates per tie-break probe of the wide select: a chunk is resolved in
/// scalar code only when one of them attains the maximum.
const PROBE: usize = 8;

/// The multi-section descent as a [`NodeSink`] — the one scoring kernel.
/// It holds the per-run mutable state of a run on any tree (the paper's
/// hierarchies, nh-OMS's `b`-section trees, and the depth-1 tree that *is*
/// flat Fennel / LDG), is kept alive across passes by the restreaming
/// driver, and is what [`RepairSink`](crate::RepairSink) re-scores single
/// nodes on. Every streamed node's previous assignment (if it has one: a
/// later pass, or a seeded run) is removed along its whole tree path before
/// the descent is re-run, with the weight the stream hands over again.
///
/// Per node the kernel keeps one word, the block id; everything else is
/// `O(k)`. The leaves' tree weights are the block loads, so a revert, a seed
/// and the final [`Partition`] all come from them.
pub(crate) struct OmsSink {
    tree: MultisectionTree,
    epsilon: f64,
    /// Fennel's `γ`, read at run time: a constant would let the compiler
    /// lower `powf(w, γ − 1)` to a square root, which differs from `powf` in
    /// the last bit for some loads — enough to move a node.
    gamma: f64,
    /// Seed of the hashed layers.
    seed: u64,
    assignments: Vec<BlockId>,
    /// Weight of every tree node (block or sub-block; the root's is the
    /// total assigned weight). Lemma 1: `O(k)` many.
    tree_weights: Vec<NodeWeight>,
    capacities: Vec<NodeWeight>,
    alphas: Vec<f64>,
    /// [`MultisectionTree::alpha_divisors`]: what [`OmsSink::retune`]
    /// divides a new global `α` by.
    alpha_divisors: Vec<f64>,
    /// Pre-evaluated penalty of every tree node in a scored layer:
    /// `base[t]` is [`FlatObjective::base`] of `tree_weights[t]`, refreshed
    /// whenever that weight changes. Hashed layers never read theirs.
    base: Vec<f64>,
    /// `FlatObjective::load_term` of every tree node's weight — the only
    /// part of `base` that costs a `powf`, and the part a change of `α` or
    /// `L_max` leaves alone.
    term: Vec<f64>,
    /// The load-term memo of [`OmsSink::load_term`]: slot `w % MEMO` holds
    /// the last `(w, term)` pair evaluated there.
    memo: Vec<(NodeWeight, f64)>,
    /// Headroom of every tree node in a scored layer,
    /// `capacities[t].saturating_sub(tree_weights[t]) as f64`, refreshed
    /// with its weight and its capacity: a node of weight `1 ≤ w < 2^53`
    /// fits under `t` exactly when `w as f64 <= room[t]`.
    room: Vec<f64>,
    /// [`OnlineMultiSection`]'s scoring.
    scoring: Option<(FlatObjective, usize)>,
    /// Connectivity towards the children of the current tree node and their
    /// scores, sized to the maximum fan-out. `conn` is all-zero between
    /// levels: the narrow select and the exact loop zero what they read.
    conn: Vec<EdgeWeight>,
    scores: Vec<f64>,
    /// The connectivity of a wide sibling group, bucketed as `f64`; all-zero
    /// between levels, zeroed through the gather list.
    conn_f: Vec<f64>,
    /// The streamed node's already-assigned neighbours, compacted to the
    /// chosen subtree layer by layer.
    gathered: Vec<(BlockId, EdgeWeight)>,
    /// Hot-path tally drained into the `oms-obs` counters at pass ends.
    scored: u64,
}

impl OmsSink {
    /// The kernel of the job `oms` (it keeps its own copy of the tree) over
    /// an id space of `n` nodes, for a graph of `m` edges and total node
    /// weight `total_weight`. All nodes start unassigned.
    pub(crate) fn new(
        oms: &OnlineMultiSection,
        n: usize,
        m: usize,
        total_weight: NodeWeight,
    ) -> Self {
        let tree = oms.tree.clone();
        let nodes = tree.num_nodes();
        let mut sink = OmsSink {
            epsilon: oms.epsilon,
            gamma: std::hint::black_box(FENNEL_GAMMA),
            seed: oms.seed,
            assignments: vec![UNASSIGNED; n],
            tree_weights: vec![0; nodes],
            capacities: vec![0; nodes],
            alphas: vec![0.0; nodes],
            alpha_divisors: tree.alpha_divisors(),
            base: vec![0.0; nodes],
            term: vec![0.0; nodes],
            // Slot `i` starts with the weight `i + 1`, which maps to another
            // slot, so no lookup matches it.
            memo: (1..=MEMO as NodeWeight).map(|w| (w, 0.0)).collect(),
            room: vec![0.0; nodes],
            scoring: oms.scoring,
            conn: vec![0; tree.max_fan_out()],
            scores: vec![0.0; tree.max_fan_out()],
            conn_f: vec![0.0; tree.max_fan_out()],
            gathered: Vec::with_capacity(GATHER_CAPACITY),
            scored: 0,
            tree,
        };
        sink.refresh_terms();
        sink.retune(n, m, total_weight);
        sink
    }

    /// The partition the kernel holds; every node must be assigned.
    pub(crate) fn into_partition(self) -> Partition {
        let mut loads = Vec::new();
        NodeSink::block_weights(&self, &mut loads);
        Partition::from_block_weights(self.tree.num_blocks(), self.assignments, loads)
    }

    /// Where the `k` blocks sit in the per-tree-node arrays when the leaves
    /// are one sibling group in block order — the depth-1 tree — or the root
    /// itself (`k = 1`): the shapes the flat rules run on.
    fn blocks(&self) -> std::ops::Range<usize> {
        debug_assert!(self.tree.max_depth() <= 1);
        let first = self.tree.leaf_of_block(0) as usize;
        first..first + self.tree.num_blocks() as usize
    }

    /// Current per-block loads of a depth-1 (or single-block) tree, in
    /// place.
    pub(crate) fn flat_loads(&self) -> &[NodeWeight] {
        &self.tree_weights[self.blocks()]
    }

    /// The balance limit `L_max` of a depth-1 (or single-block) tree.
    pub(crate) fn block_capacity(&self) -> NodeWeight {
        self.capacities[self.blocks().start]
    }

    /// Current per-block penalties of a depth-1 tree.
    #[cfg(test)]
    pub(crate) fn block_bases(&self) -> &[f64] {
        &self.base[self.blocks()]
    }

    /// Extends the id space to `n` nodes; new slots start unassigned. Never
    /// shrinks.
    pub(crate) fn grow(&mut self, n: usize) {
        if n > self.assignments.len() {
            self.assignments.resize(n, UNASSIGNED);
        }
    }

    /// Derives every tree node's capacity `t·L_max` and Fennel `α` from the
    /// graph counts. The loads did not move, so every penalty is rescaled in
    /// place from its stored load term — bit for bit what a from-scratch
    /// evaluation computes, without a `powf` per tree node or an allocation
    /// — and a headroom is refreshed only where its capacity moved.
    pub(crate) fn retune(&mut self, n: usize, m: usize, total_weight: NodeWeight) {
        let k = self.tree.num_blocks();
        let lmax = Partition::capacity(total_weight, k, self.epsilon);
        let global = fennel_alpha(k, m, n);
        for t in 0..self.base.len() {
            let capacity = self.tree.capacity_of(t, lmax);
            if capacity != self.capacities[t] {
                self.capacities[t] = capacity;
                self.room[t] = headroom(capacity, self.tree_weights[t]);
            }
            self.alphas[t] = global / self.alpha_divisors[t];
        }
        self.rebase();
    }

    /// Re-evaluates every tree node's penalty from its stored load term
    /// (the parameters changed).
    fn rebase(&mut self) {
        if let Some((objective, _)) = self.scoring {
            for t in 0..self.base.len() {
                self.base[t] = objective.base_of_term(
                    self.term[t],
                    self.capacities[t],
                    self.alphas[t],
                    self.gamma,
                );
            }
        }
    }

    /// Re-evaluates every tree node's load term and headroom from its weight
    /// (bulk weight changes); the penalties follow through
    /// [`OmsSink::rebase`].
    fn refresh_terms(&mut self) {
        if let Some((objective, _)) = self.scoring {
            for t in 0..self.term.len() {
                let weight = self.tree_weights[t];
                self.term[t] = self.load_term(objective, weight);
                self.room[t] = headroom(self.capacities[t], weight);
            }
        }
    }

    /// `objective`'s load term of `weight` through the memo, which evaluates
    /// it (a `powf` for Fennel) only when the weight's slot holds another
    /// one. Sibling loads grow in lockstep, and a node that is unassigned
    /// and placed again returns a weight to a value it just had, so a few
    /// hundred slots answer nearly every call; a hit returns the stored
    /// result of the same evaluation, so the bits are the same.
    #[inline]
    fn load_term(&mut self, objective: FlatObjective, weight: NodeWeight) -> f64 {
        let slot = &mut self.memo[(weight % MEMO as NodeWeight) as usize];
        if slot.0 != weight {
            *slot = (weight, objective.load_term(weight, self.gamma));
        }
        slot.1
    }

    /// Changes the weight of a tree node in a scored layer and refreshes its
    /// penalty and headroom.
    #[inline]
    fn set_weight(&mut self, objective: FlatObjective, t: usize, weight: NodeWeight) {
        let term = self.load_term(objective, weight);
        self.term[t] = term;
        self.base[t] = objective.base_of_term(term, self.capacities[t], self.alphas[t], self.gamma);
        self.room[t] = headroom(self.capacities[t], weight);
        self.tree_weights[t] = weight;
    }

    /// Adds `weight` to every tree node above and including `block`'s leaf.
    fn add_along_path(&mut self, block: BlockId, weight: NodeWeight) {
        self.tree_weights[self.tree.root() as usize] += weight;
        for &t in self.tree.path_of_block(block) {
            self.tree_weights[t as usize] += weight;
        }
    }

    /// Adopts an existing partition given by its assignments and per-block
    /// loads: a refinement's seed, or a revert. `O(k·ℓ)` beside the copy of
    /// the assignments — [`OmsSink::unassign`] takes a node's weight from the
    /// streamed node, so no per-node weight is needed.
    pub(crate) fn seed(&mut self, assignments: &[BlockId], block_weights: &[NodeWeight]) {
        let loads = block_weights.iter().enumerate();
        self.reload(
            assignments,
            loads.map(|(b, &weight)| (b as BlockId, weight)),
        );
    }

    /// Adopts an existing partition whose node weights are known (one entry
    /// per id-space slot): each assigned node's weight is folded into its
    /// block's path as it is read.
    pub(crate) fn adopt(&mut self, assignments: &[BlockId], node_weights: &[NodeWeight]) {
        let placed = assignments
            .iter()
            .copied()
            .zip(node_weights.iter().copied());
        self.reload(assignments, placed.filter(|&(b, _)| b != UNASSIGNED));
    }

    /// Takes `assignments` and rebuilds every tree-node weight from
    /// `(block, weight)` pairs, then every load term, headroom and penalty.
    fn reload(
        &mut self,
        assignments: &[BlockId],
        loads: impl Iterator<Item = (BlockId, NodeWeight)>,
    ) {
        self.assignments.copy_from_slice(assignments);
        self.tree_weights.fill(0);
        for (b, weight) in loads {
            self.add_along_path(b, weight);
        }
        self.refresh_terms();
        self.rebase();
    }

    /// Unassigns `node` (if assigned) and routes it down the tree against
    /// the current assignment: a streamed node of any pass, or one
    /// restreaming step applied to a single node. Returns its block.
    #[inline]
    pub(crate) fn rescore(&mut self, node: oms_graph::StreamedNode<'_>) -> BlockId {
        self.unassign(node.node, node.weight);
        self.assign(node);
        self.assignments[node.node as usize]
    }

    /// Routes one streamed node down the tree and records its assignment.
    fn assign(&mut self, node: oms_graph::StreamedNode<'_>) {
        self.scored += 1;
        let mut cur = self.tree.root();
        self.tree_weights[cur as usize] += node.weight;
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
                let children = self.tree.children(cur);
                if children.is_empty() {
                    break;
                }
                let (first, fan_out) = (children.start as usize, children.len());
                let in_f64 = (1..F64_EXACT).contains(&node.weight);
                let chosen = if fan_out >= WIDE_SELECT && in_f64 {
                    let (chosen, kept) = self.select_wide(objective, level, cur, live, node.weight);
                    live = kept;
                    chosen
                } else {
                    live = self.bucket_u64(level, cur, live);
                    first
                        + if in_f64 && fan_out >= NARROW_SELECT {
                            self.select_narrow(objective, level, first, fan_out, live, node.weight)
                        } else {
                            self.select_child(objective, first, fan_out, node.weight)
                        }
                };
                self.set_weight(objective, chosen, self.tree_weights[chosen] + node.weight);
                cur = chosen as u32;
            }
        }
        // The hybrid configuration's bottom layers (every layer when
        // nothing is scored).
        while !self.tree.children(cur).is_empty() {
            let children = self.tree.children(cur);
            // Mix the subproblem id into the seed so different subproblems
            // shuffle nodes independently.
            let seed = self.seed ^ (cur as u64).wrapping_mul(0x9E3779B97F4A7C15);
            cur = children.start + select_hashing(children.len(), node.node, seed) as u32;
            self.tree_weights[cur as usize] += node.weight;
        }
        self.assignments[node.node as usize] = self.tree.leaf_block_or_unassigned(cur);
    }

    /// The max-score feasible child among the sibling group starting at
    /// tree node `first` (ties: lighter, then lower index), or the least
    /// relatively loaded one when no child can take the node. Consumes
    /// `conn[..fan_out]` and leaves it zeroed.
    ///
    /// The score is computed for infeasible children too and feasibility is
    /// folded into the comparison. A running best would chain every
    /// iteration to the one before it, so the loop is split in two: an
    /// independent-iteration maximum over the feasible children, then the
    /// tie-break among those that attain it.
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
                // "Not below the maximum" is "equal to it" for every real
                // score; a NaN one (no job's parameters produce one) counts
                // as tied, so a feasible child always wins.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let better = fits(i) && !(scores[i] < max) && weights[i] < best_weight;
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

    /// [`bucket_by_child`] of the `live` surviving neighbours into `conn`,
    /// for the narrow select or the exact loop at tree `level` under `cur`.
    ///
    /// Not inlined: inlined into the descent, the loop kept its count of
    /// survivors on the stack (a store-to-load chain on every entry), which
    /// cost `oms:4:4:4@passes=2` and `oms:4:16:16` ≈ 2 % of wall time (2-vCPU
    /// x86-64 box).
    #[inline(never)]
    fn bucket_u64(&mut self, level: usize, cur: u32, live: usize) -> usize {
        let gathered = &mut self.gathered[..live];
        bucket_by_child(&self.tree, gathered, level, cur, &mut self.conn, |c, w| {
            *c += w
        })
    }

    /// [`OmsSink::select_child`] for the narrow sibling group of `fan_out`
    /// children starting at tree node `first`, at tree `level`, for a node of
    /// weight `1 ≤ node_weight < 2^53`: [`pick_narrow`] decides, or declines
    /// after consuming `conn`, which is then bucketed again from the `live`
    /// surviving neighbours for the exact loop. Leaves `conn` zeroed.
    ///
    /// Not inlined, like [`OmsSink::bucket_u64`]: inlined into the descent, it
    /// cost `oms:4:4:4@passes=4` ≈ 4 % and `oms:4:16:16` ≈ 1 % of wall
    /// time (2-vCPU x86-64 box).
    #[inline(never)]
    fn select_narrow(
        &mut self,
        objective: FlatObjective,
        level: usize,
        first: usize,
        fan_out: usize,
        live: usize,
        node_weight: NodeWeight,
    ) -> usize {
        let group = first..first + fan_out;
        let picked = pick_narrow(
            objective,
            &mut self.conn[..fan_out],
            &self.base[group.clone()],
            &self.room[group.clone()],
            &self.tree_weights[group],
            node_weight,
            &mut self.scores[..fan_out],
        );
        picked.unwrap_or_else(|| {
            for &(b, w) in &self.gathered[..live] {
                self.conn[self.tree.path_node(b, level) as usize - first] += w;
            }
            self.select_child(objective, first, fan_out, node_weight)
        })
    }

    /// [`OmsSink::select_child`] for the wide sibling group under `cur`, at
    /// tree `level`, for a node of weight `1 ≤ node_weight < 2^53`: buckets
    /// the `live` surviving neighbours as `f64` and lets [`pick_wide`]
    /// decide while their weight sums are exact; otherwise, or where it
    /// declines, re-buckets them in `u64` for the exact loop. Returns the
    /// chosen tree node and how many neighbours survive; leaves `conn_f`
    /// zeroed.
    fn select_wide(
        &mut self,
        objective: FlatObjective,
        level: usize,
        cur: u32,
        live: usize,
        node_weight: NodeWeight,
    ) -> (usize, usize) {
        let children = self.tree.children(cur);
        let group = children.start as usize..children.end as usize;
        let (first, fan_out) = (group.start, group.len());
        let mut bucketed = 0u64;
        let gathered = &mut self.gathered[..live];
        let live = bucket_by_child(
            &self.tree,
            gathered,
            level,
            cur,
            &mut self.conn_f,
            |c, w| {
                *c += w as f64;
                bucketed = bucketed.saturating_add(w);
            },
        );
        let picked = (bucketed < F64_EXACT)
            .then(|| {
                pick_wide(
                    objective,
                    &self.conn_f[..fan_out],
                    &self.base[group.clone()],
                    &self.room[group.clone()],
                    &self.tree_weights[group],
                    node_weight,
                )
            })
            .flatten();
        for &(b, w) in &self.gathered[..live] {
            let child = self.tree.path_node(b, level) as usize - first;
            self.conn_f[child] = 0.0;
            if picked.is_none() {
                self.conn[child] += w;
            }
        }
        let chosen =
            picked.unwrap_or_else(|| self.select_child(objective, first, fan_out, node_weight));
        (first + chosen, live)
    }

    /// Removes a node of weight `weight` from its block along the whole tree
    /// path, if it is assigned. The weight comes from the caller (the
    /// streamed node), so this is correct for a seeded kernel whose nodes
    /// have not been streamed yet.
    pub(crate) fn unassign(&mut self, node: oms_graph::NodeId, weight: NodeWeight) {
        let b = self.assignments[node as usize];
        if b == UNASSIGNED {
            return;
        }
        self.tree_weights[self.tree.root() as usize] -= weight;
        for level in 0..self.tree.path_of_block(b).len() {
            let t = self.tree.path_node(b, level) as usize;
            let lighter = self.tree_weights[t] - weight;
            match self.scoring {
                Some((objective, layers)) if level < layers => {
                    self.set_weight(objective, t, lighter)
                }
                _ => self.tree_weights[t] = lighter,
            }
        }
        self.assignments[node as usize] = UNASSIGNED;
    }

    /// Drains the hot-path tally into the installed observer's counters (a
    /// no-op that still zeroes the tally when none is installed).
    pub(crate) fn flush_hot_counters(&mut self) {
        oms_obs::counter_add(
            oms_obs::CounterId::NodesScored,
            std::mem::take(&mut self.scored),
        );
    }
}

/// One walk over the surviving neighbours `gathered` of a node descending
/// from tree node `cur` at tree `level`: drops those outside `cur`'s
/// subtree, `add`s the rest into the bucket of the child on their block's
/// path, and compacts them to the front. Returns how many survive.
#[inline(always)]
fn bucket_by_child<T>(
    tree: &MultisectionTree,
    gathered: &mut [(BlockId, EdgeWeight)],
    level: usize,
    cur: u32,
    buckets: &mut [T],
    mut add: impl FnMut(&mut T, EdgeWeight),
) -> usize {
    let first = tree.children(cur).start as usize;
    let mut kept = 0;
    for i in 0..gathered.len() {
        let (b, w) = gathered[i];
        if level > 0 && tree.path_node(b, level - 1) != cur {
            continue;
        }
        add(&mut buckets[tree.path_node(b, level) as usize - first], w);
        gathered[kept] = (b, w);
        kept += 1;
    }
    kept
}

/// How much more weight a tree node of weight `weight` takes under
/// `capacity`, as `f64` (0 when it is full or over).
#[inline]
fn headroom(capacity: NodeWeight, weight: NodeWeight) -> f64 {
    capacity.saturating_sub(weight) as f64
}

/// The wide select over one sibling group: the child the exact loop
/// ([`OmsSink::select_child`]) picks, or `None` where that loop must decide.
///
/// `conn` is each child's connectivity, exact in `f64`; `bases`, `room` and
/// `weights` are the children's penalties, headrooms and loads; the node
/// weighs `1 ≤ node_weight < 2^53`, so "fits" is `node_weight as f64 <=
/// room` exactly. `None` when a feasible score is NaN (the exact loop counts
/// it as tied) or the maximum is `−∞` (no child fits, or every one that
/// does scores `−∞`).
#[inline(always)]
fn pick_wide(
    objective: FlatObjective,
    conn: &[f64],
    bases: &[f64],
    room: &[f64],
    weights: &[NodeWeight],
    node_weight: NodeWeight,
) -> Option<usize> {
    // One copy per objective, so neither pass branches on it.
    match objective {
        FlatObjective::Fennel => pick_wide_by(
            |conn, base| FlatObjective::Fennel.combine(conn, base),
            conn,
            bases,
            room,
            weights,
            node_weight,
        ),
        FlatObjective::Ldg => pick_wide_by(
            |conn, base| FlatObjective::Ldg.combine(conn, base),
            conn,
            bases,
            room,
            weights,
            node_weight,
        ),
    }
}

/// The narrow select over one sibling group of fewer than [`WIDE_SELECT`]
/// children: the child the exact loop ([`OmsSink::select_child`]) picks, or
/// `None` where that loop must decide.
///
/// `conn` is each child's connectivity, consumed (zeroed) whatever the
/// outcome; `bases`, `room` and `weights` are the children's penalties,
/// headrooms and loads; `scores` is scratch. The node weighs `1 ≤
/// node_weight < 2^53`, so "fits" is `node_weight as f64 <= room` exactly.
/// `None` where the wide select declines (a feasible NaN score, a maximum of
/// `−∞`), for a connectivity from `2^63` on or a load from `2^47` on.
#[inline(always)]
fn pick_narrow(
    objective: FlatObjective,
    conn: &mut [EdgeWeight],
    bases: &[f64],
    room: &[f64],
    weights: &[NodeWeight],
    node_weight: NodeWeight,
    scores: &mut [f64],
) -> Option<usize> {
    // One copy per objective, so neither pass branches on it.
    match objective {
        FlatObjective::Fennel => pick_narrow_by(
            |conn, base| FlatObjective::Fennel.combine(conn, base),
            conn,
            bases,
            room,
            weights,
            node_weight,
            scores,
        ),
        FlatObjective::Ldg => pick_narrow_by(
            |conn, base| FlatObjective::Ldg.combine(conn, base),
            conn,
            bases,
            room,
            weights,
            node_weight,
            scores,
        ),
    }
}

/// Bits of the child index in a tie-break key of [`pick_narrow_by`]; loads
/// below `2^(53 − INDEX_BITS)` leave the key exact in `f64`.
const INDEX_BITS: u32 = 6;
const _: () = assert!(WIDE_SELECT <= 1 << INDEX_BITS);

/// [`pick_narrow`] for one objective's `combine`.
///
/// The first pass scores every child — masked to `−∞` where the node does
/// not fit — and takes their maximum; it is the only pass that reads `conn`.
/// Below `2^63` the signed conversion gives the `f64` the exact loop's
/// unsigned one does, in one instruction on the baseline target instead of
/// several. The second pass finds the lightest, then lowest-index, child
/// that attains the maximum as the least key `load · 2^INDEX_BITS + index`
/// among the children whose score `==` it: `f64` compares and minima, which
/// compile to no branch, where a branch on the position of the maximum
/// mispredicts. Both passes keep [`LANES`] independent running extrema, so
/// no chain of `maxsd` / `minsd` latencies runs through the group.
#[inline(always)]
fn pick_narrow_by(
    combine: impl Fn(f64, f64) -> f64,
    conn: &mut [EdgeWeight],
    bases: &[f64],
    room: &[f64],
    weights: &[NodeWeight],
    node_weight: NodeWeight,
    scores: &mut [f64],
) -> Option<usize> {
    let fan_out = conn.len();
    let (bases, room) = (&bases[..fan_out], &room[..fan_out]);
    let (weights, scores) = (&weights[..fan_out], &mut scores[..fan_out]);
    let need = node_weight as f64;
    let (mut max, mut nan) = ([f64::NEG_INFINITY; LANES], [false; LANES]);
    let (mut conn_bits, mut weight_bits) = (0, 0);
    by_lane(fan_out, |i, lane| {
        let c = conn[i];
        conn[i] = 0;
        let s = combine(c as i64 as f64, bases[i]);
        let s = if need <= room[i] {
            s
        } else {
            f64::NEG_INFINITY
        };
        scores[i] = s;
        nan[lane] |= s.is_nan();
        conn_bits |= c;
        weight_bits |= weights[i];
        max[lane] = if s > max[lane] { s } else { max[lane] };
    });
    let max = across_lanes(max, |a, b| if b > a { b } else { a });
    let exact = conn_bits <= i64::MAX as u64 && weight_bits < F64_EXACT >> INDEX_BITS;
    if nan.contains(&true) || max == f64::NEG_INFINITY || !exact {
        return None;
    }
    // No feasible score is NaN and `max > −∞`: a child attains the maximum
    // exactly when its score `==` it.
    let mut least = [f64::INFINITY; LANES];
    by_lane(fan_out, |i, lane| {
        let key = ((weights[i] << INDEX_BITS) | i as u64) as i64 as f64;
        let key = if scores[i] == max { key } else { f64::INFINITY };
        least[lane] = if key < least[lane] { key } else { least[lane] };
    });
    let least = across_lanes(least, |a, b| if b < a { b } else { a });
    Some((least as i64 & ((1 << INDEX_BITS) - 1)) as usize)
}

/// Calls `f(i, lane)` for every child `i < fan_out`: `lane = i % LANES`,
/// except that the last `fan_out % LANES` children all go to lane 0.
#[inline(always)]
fn by_lane(fan_out: usize, mut f: impl FnMut(usize, usize)) {
    for chunk in 0..fan_out / LANES {
        for lane in 0..LANES {
            f(chunk * LANES + lane, lane);
        }
    }
    for i in fan_out - fan_out % LANES..fan_out {
        f(i, 0);
    }
}

/// The extremum `pick` of the [`LANES`] lane extrema, as a tree of depth 2.
#[inline(always)]
fn across_lanes(lanes: [f64; LANES], pick: impl Fn(f64, f64) -> f64) -> f64 {
    pick(pick(lanes[0], lanes[1]), pick(lanes[2], lanes[3]))
}

/// [`pick_wide`] for one objective's `combine`.
///
/// Pass A is read-only and lane-parallel: [`LANES`] independent maxima of
/// the scores, each masked to `−∞` where the node does not fit, with no
/// store, no integer compare and no loop-carried dependency but the maxima
/// — so it vectorises on the baseline target. Pass B finds the lightest,
/// then lowest-index, feasible child that attains the maximum: it tests
/// [`PROBE`] scores at a time for equality with it and resolves in scalar
/// code only the chunks where one is equal.
#[inline(always)]
fn pick_wide_by(
    combine: impl Fn(f64, f64) -> f64,
    conn: &[f64],
    bases: &[f64],
    room: &[f64],
    weights: &[NodeWeight],
    node_weight: NodeWeight,
) -> Option<usize> {
    let fan_out = conn.len();
    let (bases, room, weights) = (&bases[..fan_out], &room[..fan_out], &weights[..fan_out]);
    let need = node_weight as f64;
    let score = |conn: f64, base: f64, room: f64| {
        let s = combine(conn, base);
        if need <= room {
            s
        } else {
            f64::NEG_INFINITY
        }
    };

    // Pass A.
    let mut max = [f64::NEG_INFINITY; LANES];
    let mut nan = [false; LANES];
    let lanes = conn
        .chunks_exact(LANES)
        .zip(bases.chunks_exact(LANES))
        .zip(room.chunks_exact(LANES));
    for ((conn, bases), room) in lanes {
        for j in 0..LANES {
            let s = score(conn[j], bases[j], room[j]);
            nan[j] |= s.is_nan();
            max[j] = if s > max[j] { s } else { max[j] };
        }
    }
    for i in fan_out - fan_out % LANES..fan_out {
        let s = score(conn[i], bases[i], room[i]);
        nan[0] |= s.is_nan();
        max[0] = if s > max[0] { s } else { max[0] };
    }
    let max = max.into_iter().fold(f64::NEG_INFINITY, f64::max);
    if nan.contains(&true) || max == f64::NEG_INFINITY {
        return None;
    }

    // Pass B. No feasible score is NaN and `max > −∞`, so a feasible child
    // attains the maximum exactly when its score `==` it.
    let (mut best, mut best_weight) = (0, NodeWeight::MAX);
    let mut resolve = |range: std::ops::Range<usize>| {
        for i in range {
            if score(conn[i], bases[i], room[i]) == max && weights[i] < best_weight {
                best = i;
                best_weight = weights[i];
            }
        }
    };
    let probes = conn.chunks_exact(PROBE).zip(bases.chunks_exact(PROBE));
    for (c, (conn, bases)) in probes.enumerate() {
        // Unmasked: a child that does not fit may only cost a resolve.
        let mut equal = [false; PROBE];
        for j in 0..PROBE {
            equal[j] = combine(conn[j], bases[j]) == max;
        }
        if equal.contains(&true) {
            resolve(c * PROBE..(c + 1) * PROBE);
        }
    }
    resolve(fan_out - fan_out % PROBE..fan_out);
    Some(best)
}

impl NodeSink for OmsSink {
    fn process(&mut self, node: oms_graph::StreamedNode<'_>) {
        self.rescore(node);
    }

    fn end_pass(&mut self, _pass: usize) {
        self.flush_hot_counters();
    }

    fn assignments(&self) -> &[BlockId] {
        &self.assignments
    }

    fn num_blocks(&self) -> u32 {
        self.tree.num_blocks()
    }

    /// The leaves' tree weights, in block order.
    fn block_weights(&self, out: &mut Vec<NodeWeight>) {
        let leaves = (0..self.tree.num_blocks()).map(|b| self.tree.leaf_of_block(b));
        out.clear();
        out.extend(leaves.map(|leaf| self.tree_weights[leaf as usize]));
    }

    /// [`OmsSink::seed`]: the tree-node weights are rebuilt along the blocks'
    /// paths from the `k` loads.
    fn restore(&mut self, assignments: &[BlockId], block_weights: &[NodeWeight]) {
        self.seed(assignments, block_weights);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HierarchySpec;
    use oms_gen::planted_partition;
    use oms_graph::{CsrGraph, InMemoryStream};

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

    /// The partition the job `spec` computes for `g`.
    fn run(spec: &JobSpec, g: &CsrGraph) -> Partition {
        let partitioner = spec.build().unwrap_or_else(|e| panic!("{spec}: {e}"));
        partitioner.partition(&mut InMemoryStream::new(g)).unwrap()
    }

    /// [`run`] of a job string.
    fn run_text(text: &str, g: &CsrGraph) -> Partition {
        run(&JobSpec::parse(text).unwrap(), g)
    }

    #[test]
    fn oms_with_hierarchy_produces_valid_partition() {
        let g = planted_partition(200, 8, 0.2, 0.01, 3);
        let p = run_text("oms:2:2:2", &g);
        assert_eq!(p.num_blocks(), 8);
        assert_eq!(p.num_nodes(), 200);
        assert!(p.validate(&vec![1; 200]));
        assert!(p.is_balanced(0.03 + 1e-9), "imbalance {}", p.imbalance());
    }

    #[test]
    fn oms_flat_produces_valid_partition_for_non_power_of_base() {
        let g = planted_partition(300, 10, 0.15, 0.01, 5);
        for k in [3u32, 5, 10, 13, 37] {
            let p = run_text(&format!("nh-oms:{k}"), &g);
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
    fn nh_oms_cut_is_close_to_fennel_and_better_than_hashing() {
        // Headline relationship of the paper (Fig. 2b): Fennel cuts slightly
        // fewer edges than nh-OMS; both cut far fewer than Hashing.
        let g = planted_partition(600, 16, 0.12, 0.004, 11);
        let fennel = run_text("fennel:16", &g);
        let hashing = run_text("hashing:16", &g);
        let oms = run_text("nh-oms:16", &g);
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
        // layer is ever scored or hashed — whatever the job, and across the
        // unassign → reassign round trip of restreaming passes.
        let root_only = MultisectionTree::flat(1, 2);
        for objective in [Some(FlatObjective::Fennel), Some(FlatObjective::Ldg), None] {
            let job =
                OnlineMultiSection::new(&JobSpec::flat("oms", 1), root_only.clone(), objective);
            assert_eq!(job.scoring, None);
        }
        let g = two_cliques();
        for text in [
            "nh-oms:1",
            "oms:1@hybrid=1",
            "fennel:1",
            "ldg:1",
            "hashing:1",
        ] {
            let spec = JobSpec::parse(text).unwrap();
            let p = run(&spec, &g);
            assert!(p.assignments().iter().all(|&b| b == 0), "{text}");
            assert_eq!(run(&spec.clone().passes(3), &g), p, "{text}");
        }
    }

    #[test]
    fn more_blocks_than_nodes_is_a_valid_partition() {
        // k = 64 > n = 10: most leaves stay empty, L_max is 1, and every node
        // still lands in a real block without overloading any.
        let g = two_cliques();
        for text in ["oms:4:4:4", "ldg:64"] {
            let spec = JobSpec::parse(text).unwrap();
            let p = run(&spec, &g);
            assert_eq!(p.num_blocks(), 64);
            assert!(p.validate(&[1; 10]));
            assert!(p.block_weights().iter().all(|&w| w <= 1));
            let re = run(&spec.passes(3), &g);
            assert!(re.validate(&[1; 10]));
        }
    }

    #[test]
    fn a_huge_epsilon_means_unbounded_blocks_not_wrapped_capacities() {
        // ε ≈ 1.8e16 makes L_max = 2^63 here: `t · L_max` wrapped to 0 for
        // even `t` (overflow panic in debug), closing every top-level block
        // and sending each node through the all-children-full fallback.
        let g = oms_gen::erdos_renyi_gnm(2_000, 8_000, 3);
        for shape in ["oms:2:2", "nh-oms:8"] {
            let run = |epsilon: f64| run(&JobSpec::parse(shape).unwrap().epsilon(epsilon), &g);
            let unbounded = run(1e3);
            // 500·ε = 2^63: the `eps=1.8446744073709552e16` of the report.
            let wraps = (1u64 << 63) as f64 / 500.0;
            for epsilon in [wraps, 2.0 * wraps, 1e19] {
                assert_eq!(run(epsilon), unbounded, "{shape} eps={epsilon}");
            }
        }
    }

    #[test]
    fn all_hashed_layers_stay_statistically_balanced() {
        // `hybrid=` at least the tree depth hashes every layer, which
        // ignores the balance constraint.
        let g = planted_partition(400, 8, 0.1, 0.01, 9);
        let p = run_text("nh-oms:8@hybrid=2", &g);
        assert_eq!(p.num_nodes(), 400);
        assert!(p.imbalance() < 0.5, "imbalance {}", p.imbalance());
    }

    #[test]
    fn hybrid_hashing_layers_degrade_quality_but_keep_validity() {
        let g = planted_partition(500, 16, 0.12, 0.004, 13);
        let pure = run_text("oms:2:2:2:2", &g);
        let hybrid = run_text("oms:2:2:2:2@hybrid=2", &g);
        assert_eq!(hybrid.num_nodes(), 500);
        assert!(hybrid.edge_cut(&g) >= pure.edge_cut(&g));
    }

    #[test]
    fn hybrid_layer_selection_counts_from_bottom() {
        let tree = MultisectionTree::from_hierarchy(&HierarchySpec::parse("2:2:2").unwrap());
        let job = |text: &str, objective| {
            let spec = JobSpec::parse(text).unwrap();
            OnlineMultiSection::new(&spec, tree.clone(), objective).scoring
        };
        // Tree depth 3: the decision at child depth 1 (top layer) stays with
        // Fennel, the ones at depths 2 and 3 use Hashing.
        let fennel = Some(FlatObjective::Fennel);
        assert_eq!(
            job("oms:2:2:2@hybrid=2", fennel),
            Some((FlatObjective::Fennel, 1))
        );
        // More hashing layers than the tree has, or the Hashing row itself:
        // nothing is scored.
        assert_eq!(job("oms:2:2:2@hybrid=7", fennel), None);
        assert_eq!(job("hashing:2:2:2", None), None);
    }

    #[test]
    fn oms_is_deterministic() {
        let g = planted_partition(300, 8, 0.15, 0.01, 19);
        let make = || run_text("nh-oms:8@seed=5", &g);
        assert_eq!(make(), make());
    }

    #[test]
    fn zero_blocks_and_a_base_below_two_are_rejected() {
        for text in ["nh-oms:0", "oms:0", "nh-oms:4@base=1", "oms:4@base=0"] {
            assert!(JobSpec::parse(text).unwrap().build().is_err(), "{text}");
        }
    }

    #[test]
    fn jobs_report_their_registry_name_and_block_count() {
        for (text, name) in [("nh-oms:4", "nh-oms"), ("reoms:4@passes=2", "oms")] {
            let partitioner = JobSpec::parse(text).unwrap().build().unwrap();
            assert_eq!(partitioner.name(), name);
            assert_eq!(partitioner.num_blocks(), 4);
        }
    }

    /// A seeded SplitMix64 stream.
    struct Rng(u64);

    impl Rng {
        fn draw(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            crate::scorer::mix64(self.0)
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[(self.draw() % from.len() as u64) as usize]
        }
    }

    /// Narrow widths below and above the lane width, either side of the
    /// wide select's threshold, and two widths that are not multiples of its
    /// lane or probe width.
    const WIDTHS: [u32; 9] = [
        2,
        3,
        5,
        16,
        WIDE_SELECT as u32 - 1,
        WIDE_SELECT as u32,
        WIDE_SELECT as u32 + 1,
        100,
        1024,
    ];

    const OBJECTIVES: [FlatObjective; 2] = [FlatObjective::Fennel, FlatObjective::Ldg];

    /// The depth-1 kernel of `width` blocks: one sibling group, block `i`
    /// at child `i`.
    fn depth_one(
        width: u32,
        objective: FlatObjective,
        n: usize,
        total_weight: NodeWeight,
    ) -> OmsSink {
        let spec = JobSpec::flat(objective.name(), width);
        OmsSink::new(
            &OnlineMultiSection::flat(&spec, Some(objective)),
            n,
            4 * n,
            total_weight,
        )
    }

    /// The narrow select at every width below [`WIDE_SELECT`] and the wide
    /// select on [`WIDTHS`] from the threshold on, against the exact loop on
    /// one sibling group, over seeded groups full of exact ties and of the
    /// values IEEE 754, the `f64` headroom and the narrow select's
    /// conversions could get wrong: each decides exactly where the exact
    /// loop's answer does not rest on a NaN or on `−∞` (and, for the narrow
    /// select, no connectivity reaches `2^63` and no load `2^47`), and then
    /// agrees.
    #[test]
    fn f64_selects_pick_the_child_the_exact_loop_picks() {
        const BIG: u64 = F64_EXACT - 1;
        let mut rng = Rng(7);
        let (mut decided, mut declined) = (0, 0);
        let narrow = 1..WIDE_SELECT as u32;
        let wide = WIDTHS.into_iter().filter(|&w| w >= WIDE_SELECT as u32);
        for width in narrow.chain(wide) {
            for objective in OBJECTIVES {
                // No tree has a group of one child: take the first child of
                // two.
                let mut sink = depth_one(width.max(2), objective, 1, 0);
                let width = width as usize;
                let first = sink.blocks().start;
                let group = first..first + width;
                for trial in 0..300 {
                    // Few distinct values per trial, so that equal scores —
                    // at equal and at different weights — are common.
                    let mut loads: [NodeWeight; 2] =
                        [rng.pick(&[0, 1, 7, 250]), rng.pick(&[263, 264, 1 << 40])];
                    let mut links = [0, rng.pick(&[0, 1, 2]), rng.pick(&[3, 1 << 52, BIG])];
                    // What the narrow select's conversions cannot take.
                    if trial % 13 == 0 {
                        loads[1] = 1 << 47;
                    }
                    if trial % 17 == 0 {
                        links[2] = 1 << 63;
                    }
                    let need = rng.pick(&[1, 1, 1, 3, BIG]);
                    let specials: &[f64] = match trial % 3 {
                        0 => &[-0.0, 0.0, -3.5],
                        1 => &[f64::INFINITY, f64::NEG_INFINITY],
                        _ => &[],
                    };
                    let untouched = trial % 5 == 0;
                    let saturated = trial % 7 == 0;
                    let full = trial % 11 == 0;
                    for i in group.clone() {
                        let weight = rng.pick(&loads);
                        let capacity = if full {
                            weight
                        } else if saturated {
                            NodeWeight::MAX
                        } else {
                            // Headroom `need − 1`, `need` or `need + 1`, or
                            // a plain limit.
                            let edge = weight.saturating_add(need);
                            rng.pick(&[264, 264, edge - 1, edge, edge.saturating_add(1), 0])
                        };
                        sink.tree_weights[i] = weight;
                        sink.capacities[i] = capacity;
                        sink.room[i] = headroom(capacity, weight);
                        sink.base[i] = if !specials.is_empty() && rng.draw().is_multiple_of(8) {
                            rng.pick(specials)
                        } else {
                            objective.base(weight, capacity, 0.47, 1.5)
                        };
                        sink.conn[i - first] = if untouched { 0 } else { rng.pick(&links) };
                    }
                    if trial % 4 == 3 {
                        // One NaN penalty, on a child that may or may not fit.
                        sink.base[first + (rng.draw() % width as u64) as usize] = f64::NAN;
                    }
                    let conn_f: Vec<f64> = sink.conn[..width].iter().map(|&c| c as f64).collect();
                    // What the exact loop's answer rests on.
                    let fits = |i: usize| sink.tree_weights[i] + need <= sink.capacities[i];
                    let score = |i: usize| objective.combine(conn_f[i - first], sink.base[i]);
                    let nan = group.clone().any(|i| fits(i) && score(i).is_nan());
                    let top = group
                        .clone()
                        .filter(|&i| fits(i))
                        .map(score)
                        .fold(f64::NEG_INFINITY, f64::max);
                    let (bases, room) = (&sink.base[group.clone()], &sink.room[group.clone()]);
                    let weights = &sink.tree_weights[group.clone()];
                    let (picked, converts) = if width < WIDE_SELECT {
                        let mut conn = sink.conn[..width].to_vec();
                        let converts = conn.iter().all(|&c| c < 1 << 63)
                            && weights.iter().all(|&w| w < 1 << 47);
                        let mut scores = vec![0.0; width];
                        let picked = pick_narrow(
                            objective,
                            &mut conn,
                            bases,
                            room,
                            weights,
                            need,
                            &mut scores,
                        );
                        assert!(conn.iter().all(|&c| c == 0));
                        (picked, converts)
                    } else {
                        let picked = pick_wide(objective, &conn_f, bases, room, weights, need);
                        (picked, true)
                    };
                    let expected = sink.select_child(objective, first, width, need);
                    let case = format!("{objective:?} width {width} trial {trial} need {need}");
                    assert_eq!(
                        picked.is_none(),
                        nan || top == f64::NEG_INFINITY || !converts,
                        "{case}: declines exactly on NaN, −∞ or a value it cannot convert"
                    );
                    if let Some(i) = picked {
                        assert_eq!(i, expected, "{case}");
                        decided += 1;
                    } else {
                        declined += 1;
                    }
                    assert!(sink.conn.iter().all(|&c| c == 0));
                }
            }
        }
        assert!(
            decided > declined && declined > 100,
            "{decided} / {declined}"
        );
    }

    /// Whole descents on narrow and wide depth-1 kernels — both passes of
    /// a restreaming run — against the exact loop on the same state: node
    /// weights 0, `2^53 − 1` and `2^53` (which skip both `f64` selects), and
    /// edge weights whose gathered sums reach `2^53` (which a wide level
    /// re-buckets in `u64`). Both connectivity rows are zero again after
    /// every node.
    #[test]
    fn f64_levels_route_nodes_like_the_exact_loop() {
        let mut rng = Rng(11);
        for width in WIDTHS {
            for objective in OBJECTIVES {
                let n = 4 * width as usize;
                let node_weights = (0..n)
                    .map(|_| rng.pick(&[1, 1, 1, 1, 2, 0, F64_EXACT - 1, F64_EXACT]))
                    .collect::<Vec<NodeWeight>>();
                let adjacency: Vec<(Vec<u32>, Vec<EdgeWeight>)> = (0..n)
                    .map(|_| {
                        let degree = rng.draw() % 9;
                        let neighbors = (0..degree).map(|_| (rng.draw() % n as u64) as u32);
                        let neighbors = neighbors.collect();
                        let weights = (0..degree).map(|_| rng.pick(&[1, 1, 3, 1 << 52]));
                        (neighbors, weights.collect())
                    })
                    .collect();
                let total = node_weights.iter().sum();
                let mut sink = depth_one(width, objective, n, total);
                let first = sink.blocks().start;
                for pass in 0..2 {
                    for v in 0..n {
                        let (neighbors, edge_weights) = &adjacency[v];
                        let weight = node_weights[v];
                        sink.unassign(v as u32, weight);
                        for (&u, &w) in neighbors.iter().zip(edge_weights) {
                            let b = sink.assignments[u as usize];
                            if b != UNASSIGNED {
                                sink.conn[b as usize] += w;
                            }
                        }
                        let expected = sink.select_child(objective, first, width as usize, weight);
                        let node = oms_graph::StreamedNode {
                            node: v as u32,
                            weight,
                            neighbors,
                            edge_weights,
                        };
                        assert_eq!(
                            sink.rescore(node),
                            expected as BlockId,
                            "{objective:?} width {width} pass {pass} node {v}"
                        );
                        assert!(sink.conn.iter().all(|&c| c == 0));
                        assert!(sink.conn_f.iter().all(|&c| c == 0.0));
                    }
                }
            }
        }
    }

    /// The memoised load term is [`FlatObjective::load_term`] — Fennel's
    /// `powf` — bit for bit: for weights that share a memo slot, taken in
    /// turns, and for weights from `2^53` on; and so is every tree node's
    /// stored term, and its penalty [`FlatObjective::base`], after `seed`,
    /// `retune`, `adopt`, `restore` and a restreaming pass.
    #[test]
    fn memoised_load_terms_are_the_evaluated_bits() {
        let spec = JobSpec::parse("oms:2:3").unwrap();
        let tree = MultisectionTree::from_hierarchy(&HierarchySpec::parse("2:3").unwrap());
        let slot = MEMO as NodeWeight;
        for objective in OBJECTIVES {
            let job = OnlineMultiSection::new(&spec, tree.clone(), Some(objective));
            let mut sink = OmsSink::new(&job, 8, 12, 8);
            let gamma = sink.gamma;
            let bits = |w: NodeWeight| objective.load_term(w, gamma).to_bits();
            for w in [
                0,
                1,
                5,
                slot - 1,
                1 << 40,
                F64_EXACT - 1,
                F64_EXACT,
                F64_EXACT + 1,
            ] {
                for w in [w, w + slot, w, w + slot, w] {
                    assert_eq!(sink.load_term(objective, w).to_bits(), bits(w), "{w}");
                }
            }
            for w in [
                NodeWeight::MAX - slot,
                NodeWeight::MAX,
                NodeWeight::MAX - slot,
            ] {
                assert_eq!(sink.load_term(objective, w).to_bits(), bits(w), "{w}");
            }
            // Every tree node but the root, whose weight the descent moves
            // without a penalty: no select reads it.
            let stored = |sink: &OmsSink, when: &str| {
                let root = sink.tree.root() as usize;
                for t in (0..sink.term.len()).filter(|&t| t != root) {
                    let w = sink.tree_weights[t];
                    let base = objective.base(w, sink.capacities[t], sink.alphas[t], gamma);
                    let case = format!("{objective:?} {when}: node {t}, weight {w}");
                    assert_eq!(sink.term[t].to_bits(), bits(w), "{case}");
                    assert_eq!(sink.base[t].to_bits(), base.to_bits(), "{case}");
                }
            };
            let assignments = [0, 1, 2, 3, 4, 5, UNASSIGNED, 1];
            let loads = [F64_EXACT, F64_EXACT + 1, 3, slot, 2 * slot, 1 << 40];
            sink.seed(&assignments, &loads);
            stored(&sink, "seed");
            sink.retune(8, 20, loads.iter().sum());
            stored(&sink, "retune");
            let node_weights = [1, 2, 1 + slot, 1, F64_EXACT, 7, 0, 1];
            sink.adopt(&assignments, &node_weights);
            stored(&sink, "adopt");
            // The loads of the adopted partition, which the rescoring below
            // takes the node weights out of again.
            let mut adopted = Vec::new();
            NodeSink::block_weights(&sink, &mut adopted);
            sink.seed(&assignments, &loads);
            NodeSink::restore(&mut sink, &assignments, &adopted);
            stored(&sink, "restore");
            for v in [0u32, 2, 4, 6, 7] {
                let node = oms_graph::StreamedNode {
                    node: v,
                    weight: node_weights[v as usize],
                    neighbors: &[0, 3, 5],
                    edge_weights: &[1, 2, 3],
                };
                sink.rescore(node);
                stored(&sink, &format!("rescoring node {v}"));
            }
        }
    }

    /// Gathered weight from `2^53` on is not summed in `f64`: block 0 gets
    /// `2^53 + 1 + 1` and block 1 gets `2^53 + 2`, equal in `u64`, so the
    /// lower index wins the tie; step-by-step `f64` sums would round block
    /// 0's down to `2^53` and hand the node to block 1.
    #[test]
    fn gathered_sums_from_two_to_the_53_are_bucketed_in_u64() {
        for objective in OBJECTIVES {
            let mut sink = depth_one(WIDE_SELECT as u32, objective, 8, 100 * WIDE_SELECT as u64);
            // Three nodes in each of blocks 0 and 1: equal loads and
            // penalties.
            let assignments = [0, 0, 0, 1, 1, 1, UNASSIGNED, UNASSIGNED];
            sink.adopt(&assignments, &[1; 8]);
            let node = oms_graph::StreamedNode {
                node: 7,
                weight: 1,
                neighbors: &[0, 1, 2, 3],
                edge_weights: &[F64_EXACT, 1, 1, F64_EXACT + 2],
            };
            assert_eq!(sink.rescore(node), 0, "{objective:?}");
        }
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
        let oms = run_text("oms:2:2:2", &g);
        let hashing = run_text("hashing:8", &g);
        assert!(
            cost(&oms) < cost(&hashing),
            "OMS mapping cost {} must beat Hashing {}",
            cost(&oms),
            cost(&hashing)
        );
    }
}
