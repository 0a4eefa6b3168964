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
//! * **at most `Σ aᵢ` fused adds** (multiplies for LDG) in the select
//!   loops: the objective of a child is `conn ⊕ base`, where the penalty
//!   `base` of every tree node lives pre-evaluated in a dense arena that is
//!   contiguous over each sibling group. A group of fewer than
//!   `NARROW_SELECT` (8) children runs the exact loop (`select_child`): one
//!   pass that scores every child and folds the `u64` feasibility test into
//!   a maximum, and one tie-break pass. A group of 8 to 47 runs the
//!   **narrow select** (`pick_narrow`): connectivity bucketed in `u64`,
//!   then three passes over the group's slices, free of bounds checks and
//!   of data-dependent branches, which LLVM packs into SSE2 registers on
//!   the baseline x86-64 target: one scores every child, its connectivity
//!   converted exactly through the `2^52` constant and its feasibility read
//!   off a per-tree-node `f64` headroom; one takes four independent lane
//!   maxima; one takes the least `(load, index)` key among the children at
//!   the maximum. A group of at least
//!   `WIDE_SELECT` (48) keeps a **champion tree** and runs the **champion
//!   select** (`select_champion`), which scores only the children the
//!   node's neighbours touch, the champion and, on a rescore, the child the
//!   node left: `O(deg)` candidates instead of the group's width, plus one
//!   `O(log aᵢ)` replay of the champion tree when the node changes a
//!   child's load. Where the champion cannot stand in for the untouched
//!   children it falls back to the exact loop, as the narrow select does
//!   where it cannot decide. `--metrics` counts the candidates
//!   (`oms_candidates_scored_total`);
//! * **`ℓ` penalty refreshes**: an assignment changes the weight of exactly
//!   the `ℓ` tree nodes on one root-to-leaf path, so only those penalties
//!   are refreshed (not `Σ aᵢ`). The load term behind a penalty — Fennel's
//!   `powf` — comes from a direct-mapped memo of the last `(weight, term)`
//!   pair per slot: sibling loads grow in lockstep and the unassign →
//!   reassign round trip of a restreaming pass or a repair step returns a
//!   weight to a value it just had, so one pass of `4:16:16` on the
//!   benchmark's RMAT graph evaluates a `powf` for 70 810 of its 787 729
//!   refreshes. A refresh also rewrites the tree node's headroom; a
//!   `retune` rewrites only the headrooms whose capacity moved, and under
//!   Fennel rebuilds every champion tree (an LDG group's order does not
//!   depend on the parameters a retune changes).
//!
//! The flat rules are the case `ℓ = 1`, `a₁ = k`: one gather, one refresh
//! and, for `k ≥ 48`, the champion select — `O(deg + log k)` per node where
//! the champion stands in, instead of the `O(deg + k)` of a Fennel that
//! scores every block (the `O(m + nk)` of §2.2). This is FREIGHT's
//! observation (Eyubov, Faraj & Schulz, SEA 2023): a block no neighbour
//! lies in scores its penalty alone, so among those only the best-penalty
//! block can win. The assignments are the same as the full scan's. The
//! narrow select and the exact loop zero the connectivity they read, and
//! the champion select zeroes the touched children's, so no per-node reset
//! pass over `k` entries exists at any fan-out.
//!
//! A hashed layer costs one hash and one weight update; a run whose layers
//! are all hashed skips the gather.
//!
//! Per delta, the repair driver pays one such descent per re-scored node
//! plus one `retune` — a multiply-add per tree node over the stored load
//! terms and, under Fennel, a rebuild of the champion trees (one match per
//! tree node of a wide group), no `powf`, no allocation.
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
//! The narrow select picks the same child as the exact loop, for these
//! reasons:
//!
//! * **Connectivity.** It converts each `u64` sum `c` the exact loop
//!   scores as the `f64` whose bits are those of `2^52` ORed with `c`,
//!   minus `2^52`: below `2^52` that is `2^52 + c − 2^52`, every term exact,
//!   so `c` itself, as the exact loop's conversion gives it.
//! * **Feasibility.** For a node weight `1 ≤ w < 2^53` and
//!   `room = capacity.saturating_sub(weight) as f64`, `w as f64 <= room`
//!   holds exactly when `weight + w <= capacity`: `w` is exact and rounding
//!   is monotone. A full or overloaded child has `room = 0 < w`.
//! * **Maximum.** An infeasible child scores `−∞` and a NaN is flagged, so
//!   with no NaN the lane maxima give the exact loop's maximum; the
//!   maximum of a set does not depend on the order it is taken in, and `±0`
//!   compare equal in both.
//! * **Ties.** With no NaN and a maximum above `−∞`, "not below the
//!   maximum" is "equal to it", and the least key `load · 2^6 + index`
//!   orders the children at the maximum as the exact loop does — lighter,
//!   then lower index — and stays below `2^52`, where the connectivity's
//!   conversion is exact, for loads below `2^46`.
//!
//! Every other case falls back to the exact loop: a node weight of 0 or
//! from `2^53` on skips it, and it declines when a feasible score is NaN
//! (the exact loop counts it as tied), the maximum is `−∞` (no child fits),
//! a connectivity reaches `2^52` or a load `2^46`.
//!
//! The champion select scores with the exact loop's own `u64` sums, `u64`
//! feasibility test and rules, only over fewer children; it picks the same
//! child because the children it skips cannot win. Let `K_j =
//! combine(0, base_j)` be child `j`'s key, what it scores untouched, and
//! `T` the champion: the first child in the order (key descending, load
//! ascending, index ascending), which `±0` keys treat as equal, as the
//! exact loop does. When the group holds no NaN key, `T` fits and
//! `score(T) ≥ K_T`, every untouched child `j` that fits scores
//! `K_j ≤ K_T ≤ score(T) ≤ max`; it reaches the maximum only when all four
//! are equal, and then `T`, a candidate, is lighter or as light with a
//! lower index, so the exact loop's tie-break prefers `T` to `j`. Where
//! any of the three conditions fails (a NaN key, which the exact loop
//! counts as tied; a champion that does not fit; an LDG champion with a
//! negative penalty, whose connectivity lowers its score below its key) the
//! exact loop decides over the whole group.
//!
//! A rescore defers the champion tree's update for the child the node
//! leaves, the stale leaf, when its key did not drop (under a job's
//! parameters it never does: a lighter load has a higher Fennel penalty and
//! the same LDG key): the tree then ranks that child by its
//! old key and load, which the select makes harmless by scoring it as a
//! candidate. If the tree's champion is the stale leaf itself, its new key
//! is at least the old one and its load lower, so it still precedes every
//! child the old ranking put behind it. A node that lands back in the same
//! child restores exactly the load and key the tree holds (the penalty is a
//! pure function of the load), so the tree needs no update; otherwise the
//! stale leaf is replayed after the descent. No job's parameters give a
//! child a NaN or an infinite penalty, but no select relies on that: the
//! unit tests in this module hold each of them to the exact loop on
//! adversarial groups that carry both, and the champion trees to a
//! brute-force argmax after random rescores, `forget`s, `retune`s, `seed`s
//! and `adopt`s.

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

/// Sibling groups at least this wide keep a champion tree ([`Champions`])
/// and are scored by the champion select ([`OmsSink::select_champion`]):
/// the touched children, the champion and a rescore's stale leaf, with the
/// exact loop as the fallback. Narrower ones go to the narrow select
/// ([`pick_narrow`]) or the exact loop.
///
/// 48 is where the `f64` wide select that the champion select replaced
/// took over from the narrow select, and every width from it on gained
/// again: flat jobs against that wide select (wall time, RMAT scale 18, seed
/// 11, direct CLI runs, 8 alternating pairs per job on a 2-vCPU x86-64 box;
/// the champion select's change; one pass / `passes=4`): `fennel` at k = 48
/// −20 % / −12 %, 64 −16 % / −14 %, 96 −18 % / −18 %, 128 −32 % / −22 %,
/// 256 −47 % / −39 %, 1024 −76 % / −72 %; `ldg` at 48 −9 % / −8 %, 64
/// −10 % / −14 %, 96 −23 % / −18 %, 128 −31 % / −27 %, 256 −50 % / −50 %,
/// 1024 −81 % / −80 %, faster in at least 6 of 8 pairs each. A Fennel
/// `retune` rebuilds every champion tree, and `apply-deltas` retunes on every
/// delta: on the benchmark's churn trace (`fennel`, ER n = 200 000, 60
/// batches of 2 500 deltas) `--k 64` got 11 % slower (faster in 1 of 8
/// pairs), while `--k 256` gained 4 % and `--k 1024` 15 %. An LDG `retune`
/// rebuilds none ([`OmsSink::retune`]): against rebuilding them, `--algo ldg
/// --k 64 --reference off` on that trace (seed 7) is 4.2 % faster (10
/// alternating pairs, 8 faster).
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

/// Lanes of the narrow select's maxima and least keys: four independent
/// running extrema per pass, taken chunk by chunk (`as_chunks`), two SSE2
/// registers on the baseline x86-64 target.
const LANES: usize = 4;

/// No tree node: the stale-leaf slot of a level without one.
const NO_LEAF: u32 = u32::MAX;

/// A tree node outside every champion group.
const NO_GROUP: u32 = u32::MAX;

/// One scored sibling group of at least [`WIDE_SELECT`] children and its
/// champion tree: a tournament over the children, ordered by key
/// `objective.combine(0.0, base)` descending, then load ascending, then
/// index ascending ([`ahead`]). The key is what an untouched child — one no
/// assigned neighbour lies under — scores.
#[derive(Clone, Copy, Debug)]
struct Champions {
    /// The group's first tree node.
    first: usize,
    fan_out: usize,
    /// Where the group's slice of [`OmsSink::winners`] starts. Entry `p` of
    /// the slice, `1 ≤ p < fan_out`, is the winner (a child index) of the
    /// match between entrants `2p` and `2p + 1`, where entrant `c ≥ fan_out`
    /// is child `c − fan_out`; entry 1 is the champion, entry 0 is unused.
    offset: usize,
    /// Children whose key is NaN: the order is not total while one is.
    nans: usize,
}

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
    /// The children of the current wide group that a neighbour with a
    /// nonzero edge weight lies under, each once; sized to the maximum
    /// fan-out, so it never grows.
    touched: Vec<u32>,
    /// Every scored sibling group of at least [`WIDE_SELECT`] children.
    champions: Vec<Champions>,
    /// The index into `champions` of every tree node's sibling group, or
    /// [`NO_GROUP`].
    group_of: Vec<u32>,
    /// The champion trees' winners, one slice per group.
    winners: Vec<u32>,
    /// Per level, the wide-group child a rescored node left whose champion
    /// tree still holds its old load and key ([`NO_LEAF`] for none).
    stale: Vec<u32>,
    /// How many levels hold a stale leaf; 0 between nodes.
    pending: usize,
    /// The streamed node's already-assigned neighbours, compacted to the
    /// chosen subtree layer by layer.
    gathered: Vec<(BlockId, EdgeWeight)>,
    /// Hot-path tallies drained into the `oms-obs` counters at pass ends:
    /// nodes scored, and children scored over all their decisions.
    scored: u64,
    candidates: u64,
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
        let (mut champions, mut group_of, mut width) = (Vec::new(), vec![NO_GROUP; nodes], 0);
        let layers = oms.scoring.map_or(0, |(_, layers)| layers);
        for parent in 0..nodes as u32 {
            let children = tree.children(parent);
            if children.len() >= WIDE_SELECT && (tree.depth(parent) as usize) < layers {
                for t in children.clone() {
                    group_of[t as usize] = champions.len() as u32;
                }
                champions.push(Champions {
                    first: children.start as usize,
                    fan_out: children.len(),
                    offset: width,
                    nans: 0,
                });
                width += children.len();
            }
        }
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
            touched: Vec::with_capacity(tree.max_fan_out()),
            champions,
            group_of,
            winners: vec![0; width],
            stale: vec![NO_LEAF; tree.max_depth()],
            pending: 0,
            gathered: Vec::with_capacity(GATHER_CAPACITY),
            scored: 0,
            candidates: 0,
            tree,
        };
        sink.refresh_terms();
        sink.tune(n, m, total_weight);
        sink.rebase(true);
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
    ///
    /// Only Fennel's champion trees are rebuilt. An LDG penalty `1 − load /
    /// capacity` is finite, so every LDG key is `0 × base = ±0`: a group's
    /// order is (load, index), which a retune leaves as it is.
    pub(crate) fn retune(&mut self, n: usize, m: usize, total_weight: NodeWeight) {
        self.tune(n, m, total_weight);
        self.rebase(matches!(self.scoring, Some((FlatObjective::Fennel, _))));
    }

    /// [`OmsSink::retune`]'s capacities, headrooms and `α`s, without the
    /// penalties.
    fn tune(&mut self, n: usize, m: usize, total_weight: NodeWeight) {
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
    }

    /// Re-evaluates every tree node's penalty from its stored load term
    /// (the parameters changed or the loads were rebuilt), then, with
    /// `champions`, every champion tree.
    fn rebase(&mut self, champions: bool) {
        if let Some((objective, _)) = self.scoring {
            for t in 0..self.base.len() {
                self.base[t] = objective.base_of_term(
                    self.term[t],
                    self.capacities[t],
                    self.alphas[t],
                    self.gamma,
                );
            }
            if champions {
                self.rebuild_champions(objective);
            }
        }
    }

    /// Plays every champion tree's matches again from the leaves up, and
    /// recounts each group's NaN keys.
    fn rebuild_champions(&mut self, objective: FlatObjective) {
        for group in &mut self.champions {
            let Champions {
                first,
                fan_out,
                offset,
                ..
            } = *group;
            let bases = &self.base[first..first + fan_out];
            let weights = &self.tree_weights[first..first + fan_out];
            let winners = &mut self.winners[offset..offset + fan_out];
            for p in (1..fan_out).rev() {
                winners[p] = play(objective, bases, weights, winners, p) as u32;
            }
            group.nans = bases
                .iter()
                .filter(|&&base| objective.combine(0.0, base).is_nan())
                .count();
        }
    }

    /// Replays the matches on the path of tree node `t`'s leaf in its
    /// group's champion tree, whose key or load changed. A match whose
    /// winner stays the same child, and that child is not `t`, decides
    /// nothing above it anew, so the replay stops there.
    fn replay(&mut self, objective: FlatObjective, t: usize) {
        let group = self.champions[self.group_of[t] as usize];
        let (first, fan_out) = (group.first, group.fan_out);
        let bases = &self.base[first..first + fan_out];
        let weights = &self.tree_weights[first..first + fan_out];
        let winners = &mut self.winners[group.offset..group.offset + fan_out];
        let leaf = t - first;
        let mut p = (fan_out + leaf) / 2;
        while p > 0 {
            let winner = play(objective, bases, weights, winners, p);
            if winners[p] as usize == winner && winner != leaf {
                break;
            }
            winners[p] = winner as u32;
            p /= 2;
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
    /// penalty, its headroom and, in a wide group, its champion tree. A
    /// scored tree node's weight changes only here and, where a rescore
    /// defers the champion tree's update, in [`OmsSink::reweigh`].
    #[inline]
    fn set_weight(&mut self, objective: FlatObjective, t: usize, weight: NodeWeight) {
        if self.group_of[t] == NO_GROUP {
            return self.reweigh(objective, t, weight);
        }
        let before = self.base[t];
        self.reweigh(objective, t, weight);
        self.settle(objective, t, before);
    }

    /// [`OmsSink::set_weight`] without the champion tree.
    #[inline]
    fn reweigh(&mut self, objective: FlatObjective, t: usize, weight: NodeWeight) {
        let term = self.load_term(objective, weight);
        self.term[t] = term;
        self.base[t] = objective.base_of_term(term, self.capacities[t], self.alphas[t], self.gamma);
        self.room[t] = headroom(self.capacities[t], weight);
        self.tree_weights[t] = weight;
    }

    /// Brings the champion tree of wide-group node `t`, whose penalty was
    /// `before`, up to its current penalty and load.
    ///
    /// Not inlined, so that the descent of a tree without a wide group,
    /// which never calls it, does not carry its code.
    #[inline(never)]
    fn settle(&mut self, objective: FlatObjective, t: usize, before: f64) {
        let nan = |base: f64| objective.combine(0.0, base).is_nan() as usize;
        let group = &mut self.champions[self.group_of[t] as usize];
        group.nans = group.nans + nan(self.base[t]) - nan(before);
        self.replay(objective, t);
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
        self.rebase(true);
    }

    /// Unassigns `node` (if assigned) and routes it down the tree against
    /// the current assignment: a streamed node of any pass, or one
    /// restreaming step applied to a single node. Returns its block.
    #[inline]
    pub(crate) fn rescore(&mut self, node: oms_graph::StreamedNode<'_>) -> BlockId {
        self.take_out(node.node, node.weight, true);
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
                cur = if fan_out >= WIDE_SELECT {
                    let (chosen, kept) =
                        self.select_champion(objective, level, cur, live, node.weight);
                    live = kept;
                    self.commit_wide(objective, level, chosen, node.weight);
                    chosen
                } else {
                    self.candidates += fan_out as u64;
                    live = self.bucket_u64(level, cur, live);
                    let chosen = first
                        + if (1..F64_EXACT).contains(&node.weight) && fan_out >= NARROW_SELECT {
                            self.select_narrow(objective, level, first, fan_out, live, node.weight)
                        } else {
                            self.select_child(objective, first, fan_out, node.weight)
                        };
                    self.set_weight(objective, chosen, self.tree_weights[chosen] + node.weight);
                    chosen
                } as u32;
            }
            if self.pending > 0 {
                self.flush_stale(objective);
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
        let (gathered, conn) = (&mut self.gathered[..live], &mut self.conn);
        bucket_by_child(&self.tree, gathered, level, cur, |child, w| {
            conn[child] += w
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
    /// tree `level`: the champion select. Buckets the `live` surviving
    /// neighbours into `conn`, noting the children they touch, and applies
    /// the exact loop's rules — the feasible maximum, then lighter, then
    /// lower index — to those children, the group's champion and a
    /// rescored node's stale leaf at this level. Falls back to the exact
    /// loop over the whole group where the champion cannot stand in for
    /// the untouched children: it does not fit, the group holds a NaN key,
    /// or it scores below its key. Returns the chosen tree node and how
    /// many neighbours survive; leaves `conn` zeroed.
    ///
    /// Not inlined, like [`OmsSink::bucket_u64`].
    #[inline(never)]
    fn select_champion(
        &mut self,
        objective: FlatObjective,
        level: usize,
        cur: u32,
        live: usize,
        node_weight: NodeWeight,
    ) -> (usize, usize) {
        let first = self.tree.children(cur).start as usize;
        let (conn, touched) = (&mut self.conn, &mut self.touched);
        touched.clear();
        let gathered = &mut self.gathered[..live];
        let live = bucket_by_child(&self.tree, gathered, level, cur, |child, w| {
            if conn[child] == 0 && w != 0 {
                touched.push(child as u32);
            }
            conn[child] += w;
        });
        let group = self.champions[self.group_of[first] as usize];
        let fan_out = group.fan_out;
        let weights = &self.tree_weights[first..first + fan_out];
        let capacities = &self.capacities[first..first + fan_out];
        let bases = &self.base[first..first + fan_out];
        let conn = &self.conn[..fan_out];
        let fits = |i: usize| weights[i] + node_weight <= capacities[i];
        let score = |i: usize| objective.combine(conn[i] as f64, bases[i]);
        let champion = self.winners[group.offset + 1] as usize;
        self.candidates += self.touched.len() as u64 + 1;
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let stands_in = group.nans == 0
            && fits(champion)
            && !(score(champion) < objective.combine(0.0, bases[champion]));
        if !stands_in {
            self.candidates += fan_out as u64;
            let chosen = self.select_child(objective, first, fan_out, node_weight);
            return (first + chosen, live);
        }
        // A stale leaf of another group is not a candidate here.
        let stale = (self.stale[level] as usize).wrapping_sub(first);
        let stale = (stale < fan_out).then_some(stale);
        self.candidates += stale.is_some() as u64;
        // The exact loop's rules as one running best, from the champion,
        // which fits: no score is NaN, so the maximum is the highest score
        // and the children at it are those whose score equals it.
        let mut best = (score(champion), champion);
        for i in self.touched.iter().map(|&c| c as usize).chain(stale) {
            let s = score(i);
            let lighter = (weights[i], i) < (weights[best.1], best.1);
            if fits(i) && (s > best.0 || (s == best.0 && lighter)) {
                best = (s, i);
            }
        }
        let chosen = best.1;
        for &c in &self.touched {
            self.conn[c as usize] = 0;
        }
        (first + chosen, live)
    }

    /// Adds a node of weight `node_weight` to tree node `chosen` of a wide
    /// group at `level`. A rescored node that lands back in the leaf it
    /// left, its level's stale leaf, restores the load and key that leaf's
    /// champion tree holds, so the tree needs no update.
    fn commit_wide(
        &mut self,
        objective: FlatObjective,
        level: usize,
        chosen: usize,
        node_weight: NodeWeight,
    ) {
        let weight = self.tree_weights[chosen] + node_weight;
        if self.stale[level] as usize == chosen {
            self.stale[level] = NO_LEAF;
            self.pending -= 1;
            self.reweigh(objective, chosen, weight);
        } else {
            self.set_weight(objective, chosen, weight);
        }
    }

    /// Replays every stale leaf the descent did not land back in.
    #[inline(never)]
    fn flush_stale(&mut self, objective: FlatObjective) {
        for level in 0..self.stale.len() {
            let stale = std::mem::replace(&mut self.stale[level], NO_LEAF);
            if stale != NO_LEAF {
                self.replay(objective, stale as usize);
            }
        }
        self.pending = 0;
    }

    /// Removes a node of weight `weight` from its block along the whole tree
    /// path, if it is assigned. The weight comes from the caller (the
    /// streamed node), so this is correct for a seeded kernel whose nodes
    /// have not been streamed yet.
    pub(crate) fn unassign(&mut self, node: oms_graph::NodeId, weight: NodeWeight) {
        self.take_out(node, weight, false);
    }

    /// [`OmsSink::unassign`]; for a rescore (`defer`), the wide-group
    /// children on the node's path go through [`OmsSink::leave_wide`].
    fn take_out(&mut self, node: oms_graph::NodeId, weight: NodeWeight, defer: bool) {
        debug_assert_eq!(self.pending, 0);
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
                    if defer && self.group_of[t] != NO_GROUP {
                        self.leave_wide(objective, level, t, lighter)
                    } else {
                        self.set_weight(objective, t, lighter)
                    }
                }
                _ => self.tree_weights[t] = lighter,
            }
        }
        self.assignments[node as usize] = UNASSIGNED;
    }

    /// [`OmsSink::set_weight`] for the wide-group child `t` at `level` that a
    /// rescored node leaves. A child whose key did not drop becomes the
    /// level's stale leaf instead of being replayed: it joins the select's
    /// candidates, which keeps the champion exact, and the descent settles
    /// it. A key that dropped would let the champion tree overrate the
    /// child, so that one is replayed at once.
    #[inline(never)]
    fn leave_wide(&mut self, objective: FlatObjective, level: usize, t: usize, weight: NodeWeight) {
        let before = self.base[t];
        self.reweigh(objective, t, weight);
        if objective.combine(0.0, self.base[t]) >= objective.combine(0.0, before) {
            self.stale[level] = t as u32;
            self.pending += 1;
        } else {
            self.settle(objective, t, before);
        }
    }

    /// Drains the hot-path tally into the installed observer's counters (a
    /// no-op that still zeroes the tally when none is installed).
    pub(crate) fn flush_hot_counters(&mut self) {
        oms_obs::counter_add(
            oms_obs::CounterId::NodesScored,
            std::mem::take(&mut self.scored),
        );
        oms_obs::counter_add(
            oms_obs::CounterId::CandidatesScored,
            std::mem::take(&mut self.candidates),
        );
    }
}

/// One walk over the surviving neighbours `gathered` of a node descending
/// from tree node `cur` at tree `level`: drops those outside `cur`'s
/// subtree, `add`s the rest's edge weight to the child (its index among
/// `cur`'s children) on their block's path, and compacts them to the front.
/// Returns how many survive.
#[inline(always)]
fn bucket_by_child(
    tree: &MultisectionTree,
    gathered: &mut [(BlockId, EdgeWeight)],
    level: usize,
    cur: u32,
    mut add: impl FnMut(usize, EdgeWeight),
) -> usize {
    let first = tree.children(cur).start as usize;
    let mut kept = 0;
    for i in 0..gathered.len() {
        let (b, w) = gathered[i];
        if level > 0 && tree.path_node(b, level - 1) != cur {
            continue;
        }
        add(tree.path_node(b, level) as usize - first, w);
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

/// Whether child `a` of a champion group ranks ahead of child `b`: a higher
/// key `objective.combine(0.0, base)`, then a lighter load, then a lower
/// index. `±0` keys are equal, as in the exact loop; with no NaN key this is
/// a strict total order.
#[inline(always)]
fn ahead(
    objective: FlatObjective,
    bases: &[f64],
    weights: &[NodeWeight],
    a: usize,
    b: usize,
) -> bool {
    let (key_a, key_b) = (
        objective.combine(0.0, bases[a]),
        objective.combine(0.0, bases[b]),
    );
    let (load_a, load_b) = (weights[a], weights[b]);
    // Non-short-circuit operators: the outcome is data-dependent, so a
    // branch per operand would mispredict.
    let lighter = (load_a < load_b) | ((load_a == load_b) & (a < b));
    // A NaN key ties with every key, so the order stays deterministic.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    let not_behind = !(key_b > key_a);
    (key_a > key_b) | (not_behind & lighter)
}

/// The winner of the match at internal node `p` of a champion tree over the
/// children with penalties `bases` and loads `weights` ([`Champions`]).
#[inline(always)]
fn play(
    objective: FlatObjective,
    bases: &[f64],
    weights: &[NodeWeight],
    winners: &[u32],
    p: usize,
) -> usize {
    let fan_out = bases.len();
    let entrant = |c: usize| {
        if c >= fan_out {
            c - fan_out
        } else {
            winners[c] as usize
        }
    };
    let (a, b) = (entrant(2 * p), entrant(2 * p + 1));
    if ahead(objective, bases, weights, a, b) {
        a
    } else {
        b
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
/// `None` where a feasible score is NaN, the maximum is `−∞`, a
/// connectivity reaches `2^52` or a load `2^46`.
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
/// below `2^(52 − INDEX_BITS)` leave the key below `2^52`, where [`small`]
/// converts it exactly.
const INDEX_BITS: u32 = 6;
const _: () = assert!(WIDE_SELECT <= 1 << INDEX_BITS);

/// The bits of `2^52` as an `f64`. ORed into an integer `c < 2^52` they
/// make the `f64` `2^52 + c`: the exponent of `2^52` and `c` as the
/// mantissa.
const TWO_52_BITS: u64 = 0x4330_0000_0000_0000;

/// `c` as an `f64`, exactly for `c < 2^52`; meaningless (NaN or infinite,
/// possibly) from `2^52` on, where every caller declines. An OR and a
/// subtraction, which pack into SSE2 registers where the baseline x86-64
/// target has no packed `u64 → f64` conversion.
#[inline(always)]
fn small(c: u64) -> f64 {
    f64::from_bits(c | TWO_52_BITS) - f64::from_bits(TWO_52_BITS)
}

/// [`pick_narrow`] for one objective's `combine`.
///
/// Three passes over zipped slices and their [`LANES`]-wide chunks, with
/// no bounds check, each of which LLVM packs on its own:
///
/// 1. score every child — connectivity consumed and converted by [`small`],
///    masked to `−∞` where the node does not fit — into `scores`, and OR
///    the connectivities together;
/// 2. take [`LANES`] lane maxima and NaN flags over `scores`, and OR the
///    loads together;
/// 3. take the least key `small(load << INDEX_BITS | index)` among the
///    children whose score `==` the maximum: the lightest, then
///    lowest-index, child that attains it, by `f64` compares and minima,
///    which compile to no branch, where a branch on the position of the
///    maximum mispredicts.
///
/// A connectivity from `2^52` on or a load from `2^(52 − INDEX_BITS)` on
/// makes it decline. The passes stay apart: one loop that kept each lane's
/// maximum and least key together was not packed.
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
    let need = node_weight as f64;
    let mut conn_bits = 0;
    let children = conn.iter_mut().zip(bases).zip(room);
    for (((c, &base), &room), score) in children.zip(scores.iter_mut()) {
        let c = std::mem::take(c);
        conn_bits |= c;
        let s = combine(small(c), base);
        *score = if need <= room { s } else { f64::NEG_INFINITY };
    }
    let scores = &scores[..conn.len()];
    let (mut max, mut nan) = ([f64::NEG_INFINITY; LANES], [false; LANES]);
    let (chunks, tail) = scores.as_chunks::<LANES>();
    for chunk in chunks {
        for ((max, nan), &s) in max.iter_mut().zip(&mut nan).zip(chunk) {
            *max = if s > *max { s } else { *max };
            *nan |= s.is_nan();
        }
    }
    for &s in tail {
        max[0] = if s > max[0] { s } else { max[0] };
        nan[0] |= s.is_nan();
    }
    let weights = &weights[..conn.len()];
    let weight_bits = weights.iter().fold(0, |bits, &w| bits | w);
    let max = across_lanes(max, |a, b| if b > a { b } else { a });
    let exact = conn_bits < 1 << 52 && weight_bits < 1 << (52 - INDEX_BITS);
    if nan.contains(&true) || max == f64::NEG_INFINITY || !exact {
        return None;
    }
    // No feasible score is NaN and `max > −∞`: a child attains the maximum
    // exactly when its score `==` it.
    let key = |s: f64, w: NodeWeight, i: u64| {
        let key = small((w << INDEX_BITS) | i);
        if s == max {
            key
        } else {
            f64::INFINITY
        }
    };
    let mut least = [f64::INFINITY; LANES];
    let mut index: [u64; LANES] = std::array::from_fn(|lane| lane as u64);
    let (score_chunks, score_tail) = scores.as_chunks::<LANES>();
    let (weight_chunks, weight_tail) = weights.as_chunks::<LANES>();
    for (s, w) in score_chunks.iter().zip(weight_chunks) {
        for lane in 0..LANES {
            let k = key(s[lane], w[lane], index[lane]);
            least[lane] = if k < least[lane] { k } else { least[lane] };
            index[lane] += LANES as u64;
        }
    }
    for ((&s, &w), i) in score_tail.iter().zip(weight_tail).zip(index[0]..) {
        let k = key(s, w, i);
        least[0] = if k < least[0] { k } else { least[0] };
    }
    let least = across_lanes(least, |a, b| if b < a { b } else { a });
    Some(least as usize & ((1 << INDEX_BITS) - 1))
}

/// The extremum `pick` of the [`LANES`] lane extrema, as a tree of depth 2.
/// Lanes 0 and 1 share one SSE2 register and lanes 2 and 3 the other, so
/// pairing lane `i` with `i + 2` first is one packed `pick` of the two
/// registers; the tie-break pass's lanes, paired the other way, were
/// packed from shuffled loads.
#[inline(always)]
fn across_lanes(lanes: [f64; LANES], pick: impl Fn(f64, f64) -> f64) -> f64 {
    pick(pick(lanes[0], lanes[2]), pick(lanes[1], lanes[3]))
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
    /// champion select's threshold, and two wide widths that are not powers
    /// of two, so their champion trees are not complete.
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

    /// The narrow select at every width below [`WIDE_SELECT`] against the
    /// exact loop on one sibling group, over seeded groups full of exact
    /// ties and of the values IEEE 754, the `f64` headroom and the narrow
    /// select's conversions could get wrong: it decides exactly where the
    /// exact loop's answer does not rest on a NaN or on `−∞`, no
    /// connectivity reaches `2^52` and no load `2^46`, and then agrees.
    /// The draws sit on both sides of both limits.
    #[test]
    fn narrow_select_picks_the_child_the_exact_loop_picks() {
        const BIG: u64 = F64_EXACT - 1;
        let mut rng = Rng(7);
        let (mut decided, mut declined) = (0, 0);
        for width in 1..WIDE_SELECT as u32 {
            for objective in OBJECTIVES {
                // No tree has a group of one child: take the first child of
                // two.
                let mut sink = depth_one(width.max(2), objective, 1, 0);
                let width = width as usize;
                let first = sink.blocks().start;
                let group = first..first + width;
                for trial in 0..300 {
                    // Few distinct values per trial, so that equal scores —
                    // at equal and at different weights — are common, among
                    // them the largest load and connectivity it converts.
                    let mut loads: [NodeWeight; 2] = [
                        rng.pick(&[0, 1, 7, 250]),
                        rng.pick(&[263, 264, (1 << 46) - 1]),
                    ];
                    let mut links = [0, rng.pick(&[0, 1, 2]), rng.pick(&[3, (1 << 52) - 1])];
                    // The least it cannot, and far beyond.
                    if trial % 13 == 0 {
                        loads[1] = 1 << 46;
                    }
                    if trial % 17 == 0 {
                        links[2] = 1 << 52;
                    } else if trial % 19 == 0 {
                        links[2] = rng.pick(&[BIG, 1 << 63]);
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
                    // What the exact loop's answer rests on.
                    let fits = |i: usize| sink.tree_weights[i] + need <= sink.capacities[i];
                    let score =
                        |i: usize| objective.combine(sink.conn[i - first] as f64, sink.base[i]);
                    let nan = group.clone().any(|i| fits(i) && score(i).is_nan());
                    let top = group
                        .clone()
                        .filter(|&i| fits(i))
                        .map(score)
                        .fold(f64::NEG_INFINITY, f64::max);
                    let (bases, room) = (&sink.base[group.clone()], &sink.room[group.clone()]);
                    let weights = &sink.tree_weights[group.clone()];
                    let mut conn = sink.conn[..width].to_vec();
                    let converts =
                        conn.iter().all(|&c| c < 1 << 52) && weights.iter().all(|&w| w < 1 << 46);
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
    /// weights 0, `2^53 − 1` and `2^53` (which skip the narrow select) and
    /// `2^45` (whose block loads cross its `2^46`), and edge weights
    /// `2^52 − 1` and `2^52`, whose gathered sums fall on both sides of its
    /// `2^52` and reach `2^53`. `sink` rescores each node as a pass does,
    /// on the deferred path of a wide group; `exact` unassigns it first, so
    /// the exact loop scores the state both start from, and then rescores
    /// it too. The connectivity row is zero again after every node.
    ///
    /// A third leg negates Fennel's `α`, which no job does: the penalty then
    /// rises as the load falls, so a child's key drops when the node leaves
    /// it, and the rescore replays that child's tree path at once.
    #[test]
    fn levels_route_nodes_like_the_exact_loop() {
        let mut rng = Rng(11);
        let legs = [
            (FlatObjective::Fennel, false),
            (FlatObjective::Ldg, false),
            (FlatObjective::Fennel, true),
        ];
        for width in WIDTHS {
            for (objective, negated) in legs {
                let n = 4 * width as usize;
                let node_weights = (0..n)
                    .map(|_| rng.pick(&[1, 1, 1, 1, 2, 0, 1 << 45, F64_EXACT - 1, F64_EXACT]))
                    .collect::<Vec<NodeWeight>>();
                let adjacency: Vec<(Vec<u32>, Vec<EdgeWeight>)> = (0..n)
                    .map(|_| {
                        let degree = rng.draw() % 9;
                        let neighbors = (0..degree).map(|_| (rng.draw() % n as u64) as u32);
                        let neighbors = neighbors.collect();
                        let weights =
                            (0..degree).map(|_| rng.pick(&[1, 1, 3, (1 << 52) - 1, 1 << 52]));
                        (neighbors, weights.collect())
                    })
                    .collect();
                let total = node_weights.iter().sum();
                let mut sink = depth_one(width, objective, n, total);
                let mut exact = depth_one(width, objective, n, total);
                if negated {
                    for kernel in [&mut sink, &mut exact] {
                        kernel.alphas.iter_mut().for_each(|alpha| *alpha = -*alpha);
                        kernel.rebase(true);
                    }
                }
                let first = exact.blocks().start;
                for pass in 0..2 {
                    for v in 0..n {
                        let (neighbors, edge_weights) = &adjacency[v];
                        let weight = node_weights[v];
                        exact.unassign(v as u32, weight);
                        for (&u, &w) in neighbors.iter().zip(edge_weights) {
                            let b = exact.assignments[u as usize];
                            if b != UNASSIGNED {
                                exact.conn[b as usize] += w;
                            }
                        }
                        let expected = exact.select_child(objective, first, width as usize, weight);
                        let node = oms_graph::StreamedNode {
                            node: v as u32,
                            weight,
                            neighbors,
                            edge_weights,
                        };
                        let case = format!("{objective:?} (α negated: {negated}) width {width} pass {pass} node {v}");
                        assert_eq!(exact.rescore(node), expected as BlockId, "{case}");
                        assert_eq!(sink.rescore(node), expected as BlockId, "{case}");
                        assert!(sink.conn.iter().all(|&c| c == 0));
                    }
                }
            }
        }
    }

    /// The key an untouched child of a champion group scores.
    fn key(sink: &OmsSink, objective: FlatObjective, t: usize) -> f64 {
        objective.combine(0.0, sink.base[t])
    }

    /// The champion select against the exact loop on one wide sibling group,
    /// over seeded adversarial groups: equal penalties at different loads,
    /// `±0`, `±∞` and negative penalties, NaN penalties (which must fall
    /// back), a champion that does not fit, a champion among the touched
    /// children, LDG with an overloaded champion, and loads and node weights from
    /// `2^53` on. It picks the exact loop's child every time, falls back
    /// exactly where the champion cannot stand in for the untouched
    /// children, and counts its candidates as `CandidatesScored` says.
    #[test]
    fn champion_select_picks_the_child_the_exact_loop_picks() {
        const BIG: u64 = F64_EXACT - 1;
        let mut rng = Rng(5);
        // Trials per case: decided by the candidates, fell back, a tie at
        // the maximum between different loads, a ±0 or ±∞ penalty decided,
        // NaN, a full champion, a touched champion decided, LDG with a
        // champion whose penalty is negative (an overloaded block's, or one
        // that scores below its key once touched), a load or node weight
        // from 2^53 on decided.
        let mut seen = [0usize; 9];
        for width in WIDTHS.into_iter().filter(|&w| w >= WIDE_SELECT as u32) {
            for objective in OBJECTIVES {
                let mut sink = depth_one(width, objective, 1, 0);
                let (width, root) = (width as usize, sink.tree.root());
                let group = sink.blocks();
                let first = group.start;
                for trial in 0..400 {
                    let mut loads: [NodeWeight; 3] = [
                        rng.pick(&[0, 1, 7, 250]),
                        rng.pick(&[263, 264, 1 << 40]),
                        rng.pick(&[250, 263]),
                    ];
                    if trial % 9 == 0 {
                        loads[1] = F64_EXACT + 1;
                    }
                    let links = [
                        rng.pick(&[1, 2]),
                        rng.pick(&[3, 1 << 52, BIG, F64_EXACT + 2]),
                    ];
                    let need = rng.pick(&[0, 1, 1, 1, 3, BIG, F64_EXACT, F64_EXACT + 1]);
                    let specials: &[f64] = match trial % 4 {
                        0 => &[-0.0, 0.0, -3.5],
                        1 => &[f64::INFINITY, f64::NEG_INFINITY],
                        2 => &[f64::NAN],
                        _ => &[],
                    };
                    let touched_share = rng.pick(&[0, 2, 8, 64]);
                    let (saturated, full) = (trial % 7 == 0, trial % 11 == 0);
                    let mut conn = vec![0; width];
                    for i in group.clone() {
                        let weight = rng.pick(&loads);
                        let capacity = if full {
                            weight
                        } else if saturated {
                            NodeWeight::MAX / 2
                        } else {
                            let edge = weight + need;
                            let plain = rng.pick(&[264, F64_EXACT + 3]);
                            rng.pick(&[plain, plain, edge.saturating_sub(1), edge, edge + 1, 0])
                        };
                        sink.tree_weights[i] = weight;
                        sink.capacities[i] = capacity;
                        sink.room[i] = headroom(capacity, weight);
                        sink.base[i] = if !specials.is_empty() && rng.draw().is_multiple_of(16) {
                            rng.pick(specials)
                        } else {
                            objective.base(weight, capacity, 0.47, 1.5)
                        };
                        if touched_share > 0 && rng.draw().is_multiple_of(touched_share) {
                            conn[i - first] = rng.pick(&links);
                        }
                    }
                    sink.rebuild_champions(objective);
                    let champion = sink.winners[1] as usize;
                    if trial % 5 == 0 {
                        // Touch the champion.
                        conn[champion] = rng.pick(&links);
                    }
                    // Every touched child's connectivity over two neighbours,
                    // one of them of edge weight 0, in a seeded order.
                    sink.gathered.clear();
                    for (child, &c) in conn.iter().enumerate().filter(|(_, &c)| c > 0) {
                        let b = child as BlockId;
                        sink.gathered.extend([(b, c / 2), (b, 0), (b, c - c / 2)]);
                    }
                    let live = sink.gathered.len();
                    for i in (1..live).rev() {
                        sink.gathered
                            .swap(i, (rng.draw() % (i as u64 + 1)) as usize);
                    }
                    sink.conn[..width].copy_from_slice(&conn);
                    let expected = sink.select_child(objective, first, width, need);
                    let before = sink.candidates;
                    let (chosen, kept) = sink.select_champion(objective, 0, root, live, need);
                    let case = format!("{objective:?} width {width} trial {trial} need {need}");
                    assert_eq!(chosen - first, expected, "{case}");
                    assert_eq!(kept, live, "{case}");
                    assert!(sink.conn.iter().all(|&c| c == 0), "{case}");
                    // What the proof needs of the champion.
                    let t = first + champion;
                    let fits = sink.tree_weights[t] + need <= sink.capacities[t];
                    let score = objective.combine(conn[champion] as f64, sink.base[t]);
                    let nan = group.clone().any(|i| key(&sink, objective, i).is_nan());
                    #[allow(clippy::neg_cmp_op_on_partial_ord)]
                    let stands_in = !nan && fits && !(score < key(&sink, objective, t));
                    let touched = conn.iter().filter(|&&c| c > 0).count() as u64;
                    let fallback = if stands_in { 0 } else { width as u64 };
                    assert_eq!(sink.candidates - before, touched + 1 + fallback, "{case}");
                    let bases = &sink.base[group.clone()];
                    let scores = group.clone().map(|i| {
                        let fits = sink.tree_weights[i] + need <= sink.capacities[i];
                        fits.then(|| objective.combine(conn[i - first] as f64, sink.base[i]))
                    });
                    let scores: Vec<Option<f64>> = scores.collect();
                    let top = scores
                        .iter()
                        .flatten()
                        .fold(f64::NEG_INFINITY, |m, &s| m.max(s));
                    let mut at_top = group.clone().filter(|&i| scores[i - first] == Some(top));
                    let tied = at_top.next().is_some_and(|i| {
                        at_top.any(|j| sink.tree_weights[j] != sink.tree_weights[i])
                    });
                    let special = bases.iter().any(|&b| b == 0.0 || b.is_infinite());
                    let big = need >= F64_EXACT || loads.iter().any(|&w| w >= F64_EXACT);
                    let cases = [
                        stands_in,
                        !stands_in,
                        stands_in && tied,
                        stands_in && special,
                        nan,
                        !fits,
                        stands_in && conn[champion] > 0,
                        objective == FlatObjective::Ldg && sink.base[t] < 0.0,
                        stands_in && big,
                    ];
                    for (count, case) in seen.iter_mut().zip(cases) {
                        *count += case as usize;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&c| c > 100), "{seen:?}");
    }

    /// A rescored node whose leaving lowers its old child's key — which no
    /// job's parameters do; a negated Fennel `α` does — has that child
    /// replayed at once: deferred, the champion tree would still rank the
    /// child by its old key above a sibling that now beats it. Blocks 0 and
    /// 1 both weigh 2, block 0 ranks first on the index, and once node 0
    /// leaves it, block 1's higher load scores higher.
    #[test]
    fn a_key_that_drops_is_replayed_at_once() {
        let mut sink = depth_one(WIDE_SELECT as u32, FlatObjective::Fennel, 4, 48_000);
        sink.alphas.iter_mut().for_each(|alpha| *alpha = -*alpha);
        sink.adopt(&[0, 0, 1, 1], &[1; 4]);
        assert_eq!(sink.winners[1], 0);
        let node = oms_graph::StreamedNode {
            node: 0,
            weight: 1,
            neighbors: &[],
            edge_weights: &[],
        };
        assert_eq!(sink.rescore(node), 1);
    }

    /// The root of `sink`'s champion group `g`, and the child a brute-force
    /// scan ranks first by key, load and index.
    fn champion_and_argmax(sink: &OmsSink, objective: FlatObjective, g: usize) -> (usize, usize) {
        let Champions {
            first,
            fan_out,
            offset,
            nans,
        } = sink.champions[g];
        assert_eq!(nans, 0, "no job's parameters give a NaN key");
        let mut best = 0;
        for i in 1..fan_out {
            let (k_i, k_b) = (
                key(sink, objective, first + i),
                key(sink, objective, first + best),
            );
            let (w_i, w_b) = (
                sink.tree_weights[first + i],
                sink.tree_weights[first + best],
            );
            if k_i > k_b || (k_i == k_b && w_i < w_b) {
                best = i;
            }
        }
        (sink.winners[offset + 1] as usize, best)
    }

    /// Every champion tree holds the brute-force argmax of its group after
    /// every step of seeded random sequences of rescores (the deferred
    /// path), `forget`s, `retune`s, `seed`s and `adopt`s, on depth-1 trees,
    /// a hierarchy with wide lower groups and an irregular `b`-section tree
    /// whose leaves sit at two depths; and no stale leaf outlives a step.
    ///
    /// A retune between two positive `α`s scales every Fennel key of a group
    /// alike, so only `α = 0` and back reorders one. The irregular tree's
    /// siblings have different `α` divisors, and there `α → 0` turns key
    /// order into (load, index) order once no child is empty: its run loads
    /// every block and forces retunes to `m = 0` and back, which a uniform
    /// draw of `m` over mostly empty blocks almost never exercises.
    #[test]
    fn champion_trees_hold_the_brute_force_argmax() {
        let mut rng = Rng(23);
        let shapes: [(&str, MultisectionTree); 4] = [
            ("flat 48", MultisectionTree::flat(48, 48)),
            ("flat 100", MultisectionTree::flat(100, 100)),
            (
                "3:50",
                MultisectionTree::from_hierarchy(&HierarchySpec::parse("3:50").unwrap()),
            ),
            ("4000 base 60", MultisectionTree::flat(4000, 60)),
        ];
        for (shape, tree) in shapes {
            for objective in OBJECTIVES {
                let job = OnlineMultiSection::new(
                    &JobSpec::flat("oms", 1),
                    tree.clone(),
                    Some(objective),
                );
                let n = 600;
                let weight_of: Vec<NodeWeight> =
                    (0..n).map(|_| rng.pick(&[0, 1, 1, 2, 5])).collect();
                let total: NodeWeight = weight_of.iter().sum();
                let adjacency: Vec<(Vec<u32>, Vec<EdgeWeight>)> = (0..n)
                    .map(|_| {
                        let degree = rng.draw() % 12;
                        let neighbors = (0..degree).map(|_| (rng.draw() % n as u64) as u32);
                        let neighbors = neighbors.collect();
                        let weights = (0..degree).map(|_| rng.pick(&[0, 1, 1, 4]));
                        (neighbors, weights.collect())
                    })
                    .collect();
                let mut sink = OmsSink::new(&job, n, 4 * n, total);
                assert!(!sink.champions.is_empty(), "{shape}");
                let irregular = shape == "4000 base 60";
                for step in 0..3000 {
                    let v = (rng.draw() % n as u64) as usize;
                    let op = rng.draw() % 100;
                    if irregular && step % 100 == 50 {
                        let m = if step % 200 == 50 {
                            // Every block about 100 heavier (over its own
                            // load, so no forget underflows): no child of a
                            // group is empty, and the two orders differ.
                            let mut loads = Vec::new();
                            NodeSink::block_weights(&sink, &mut loads);
                            for load in &mut loads {
                                *load += 100 + rng.draw() % 8;
                            }
                            let assignments = sink.assignments.clone();
                            sink.seed(&assignments, &loads);
                            0
                        } else {
                            4 * n
                        };
                        sink.retune(n, m, total);
                    } else if op < 85 {
                        let (neighbors, edge_weights) = &adjacency[v];
                        sink.rescore(oms_graph::StreamedNode {
                            node: v as u32,
                            weight: weight_of[v],
                            neighbors,
                            edge_weights,
                        });
                    } else if op < 92 {
                        sink.unassign(v as u32, weight_of[v]);
                    } else if op < 95 {
                        let m = (rng.draw() % (8 * n as u64)) as usize;
                        sink.retune(n, m, total + rng.draw() % 64);
                    } else if op < 98 {
                        let mut loads = Vec::new();
                        NodeSink::block_weights(&sink, &mut loads);
                        let assignments = sink.assignments.clone();
                        sink.seed(&assignments, &loads);
                    } else {
                        let k = sink.tree.num_blocks() as u64;
                        let assignments: Vec<BlockId> = (0..n)
                            .map(|_| match rng.draw() % (k + 4) {
                                b if b < k => b as BlockId,
                                _ => UNASSIGNED,
                            })
                            .collect();
                        sink.adopt(&assignments, &weight_of);
                    }
                    assert_eq!(sink.pending, 0);
                    assert!(sink.stale.iter().all(|&t| t == NO_LEAF));
                    for g in 0..sink.champions.len() {
                        let (champion, argmax) = champion_and_argmax(&sink, objective, g);
                        assert_eq!(
                            champion, argmax,
                            "{shape} {objective:?} step {step} group {g}"
                        );
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

    /// Gathered weight from `2^53` on is summed in `u64` at a wide level:
    /// block 0 gets `2^53 + 1 + 1` and block 1 gets `2^53 + 2`, equal in
    /// `u64`, so the lower index wins the tie; step-by-step `f64` sums would
    /// round block 0's down to `2^53` and hand the node to block 1.
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
        let j = |job: &str| {
            let (stream, p) = (&mut InMemoryStream::new(&g), run_text(job, &g));
            crate::api::stream_mapping_cost(stream, p.assignments(), &h, &d).unwrap()
        };
        let (oms, hashing) = (j("oms:2:2:2"), j("hashing:8"));
        assert!(
            oms < hashing,
            "OMS mapping cost {oms} must beat Hashing {hashing}"
        );
    }
}
