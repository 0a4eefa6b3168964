//! Flat partitioning baselines: Hashing, LDG and Fennel.
//!
//! These are the non-buffered streaming state of the art the paper compares
//! against (§2.2). All three follow the same skeleton — load a node, score
//! all `k` blocks, assign — and differ only in the scoring rule:
//!
//! * **Hashing** assigns `hash(v) mod k`; `O(n)` time, poor quality.
//! * **LDG** maximises `ω(N(v) ∩ Vᵢ)·(1 − c(Vᵢ)/L_max)`; `O(m + nk)` time.
//! * **Fennel** maximises `ω(N(v) ∩ Vᵢ) − α·γ·c(Vᵢ)^{γ−1}`; `O(m + nk)` time.
//!
//! There is one pass-aware type per rule ([`Hashing`], [`Ldg`], [`Fennel`]):
//! one pass by default, and `.passes(p)` / `.convergence(c)` turn the same
//! value into its restreaming variant (ReLDG, ReFennel — Nishimura &
//! Ugander), where from the second pass on a node's previous assignment is
//! removed before it is re-scored. Every run, one pass or many, goes through
//! the one engine loop (`restream::run` on
//! [`BatchExecutor::run_restream`](crate::executor::BatchExecutor::run_restream)).

use crate::config::OnePassConfig;
use crate::executor::{NodeSink, PassTrajectory};
use crate::partition::{Partition, UNASSIGNED};
use crate::scorer::{fennel_alpha, hash_node};
use crate::{BlockId, PartitionError, Result};
use oms_graph::{CsrGraph, InMemoryStream, NodeStream, NodeWeight};

/// Common interface of all sequential streaming partitioners, flat or
/// hierarchical.
pub trait StreamingPartitioner {
    /// Partitions the nodes delivered by `stream` in the partitioner's
    /// configured number of passes (one unless it was asked to restream).
    fn partition_stream<S: NodeStream>(&self, stream: &mut S) -> Result<Partition> {
        Ok(self.partition_stream_tracked(stream)?.0)
    }

    /// Like [`StreamingPartitioner::partition_stream`], but additionally
    /// returns the per-pass quality trajectory recorded by the multi-pass
    /// engine — empty for a one-pass run, which is not quality-tracked.
    fn partition_stream_tracked<S: NodeStream>(
        &self,
        stream: &mut S,
    ) -> Result<(Partition, PassTrajectory)>;

    /// Number of blocks this partitioner produces.
    fn num_blocks(&self) -> u32;

    /// Short algorithm name used in experiment reports.
    fn name(&self) -> &'static str;

    /// Convenience wrapper streaming an in-memory graph in natural order.
    fn partition_graph(&self, graph: &CsrGraph) -> Result<Partition> {
        self.partition_stream(&mut InMemoryStream::new(graph))
    }
}

fn check_k(k: u32) -> Result<()> {
    if k == 0 {
        Err(PartitionError::InvalidConfig(
            "the number of blocks k must be positive".into(),
        ))
    } else {
        Ok(())
    }
}

/// The one run of the flat rules (`None` = Hashing): up to `passes` passes
/// of the rule's sink over `stream`.
pub(crate) fn run_flat(
    k: u32,
    config: OnePassConfig,
    rule: Option<FlatObjective>,
    passes: usize,
    convergence: f64,
    stream: &mut dyn NodeStream,
) -> Result<(Partition, PassTrajectory)> {
    check_k(k)?;
    let Some(objective) = rule else {
        let n = stream.num_nodes();
        let mut sink = HashingSink {
            assignments: vec![UNASSIGNED; n],
            node_weights: vec![0; n],
            k: k as u64,
            seed: config.seed,
        };
        let trajectory = crate::restream::run(stream, &mut sink, passes, convergence)?;
        let partition = Partition::from_assignments(k, sink.assignments, &sink.node_weights);
        return Ok((partition, trajectory));
    };
    let mut sink = FlatSink::new(FlatState::new(k, &stream, config, objective));
    let trajectory = crate::restream::run(stream, &mut sink, passes, convergence)?;
    Ok((sink.into_partition(k), trajectory))
}

/// Defines the pass-aware partitioner type of one flat rule.
macro_rules! flat_baseline {
    ($(#[$doc:meta])* $name:ident, $rule:expr, $one_pass:literal, $restreamed:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug)]
        pub struct $name {
            k: u32,
            config: OnePassConfig,
            passes: usize,
            convergence: f64,
        }

        impl $name {
            /// Creates the one-pass partitioner for `k` blocks.
            pub fn new(k: u32, config: OnePassConfig) -> Self {
                $name {
                    k,
                    config,
                    passes: 1,
                    convergence: 0.0,
                }
            }

            /// Restreams: runs up to `passes` passes, unassigning each node
            /// before re-scoring it from the second pass on.
            pub fn passes(mut self, passes: usize) -> Self {
                self.passes = passes;
                self
            }

            /// Sets the relative edge-cut improvement below which a
            /// multi-pass run stops.
            pub fn convergence(mut self, min_improvement: f64) -> Self {
                self.convergence = min_improvement.max(0.0);
                self
            }
        }

        impl StreamingPartitioner for $name {
            fn partition_stream_tracked<S: NodeStream>(
                &self,
                stream: &mut S,
            ) -> Result<(Partition, PassTrajectory)> {
                run_flat(self.k, self.config, $rule, self.passes, self.convergence, stream)
            }

            fn num_blocks(&self) -> u32 {
                self.k
            }

            fn name(&self) -> &'static str {
                if self.passes > 1 {
                    $restreamed
                } else {
                    $one_pass
                }
            }
        }
    };
}

flat_baseline!(
    /// The Hashing baseline: `block(v) = hash(v) mod k`. `passes > 1` is
    /// provided for uniformity: the hash of a node never changes, so the
    /// second pass moves nothing and the engine's fixed-point exit fires.
    Hashing,
    None,
    "hashing",
    "rehashing"
);
flat_baseline!(
    /// The linear deterministic greedy (LDG) baseline; ReLDG with
    /// `passes > 1`.
    Ldg,
    Some(FlatObjective::Ldg),
    "ldg",
    "reldg"
);
flat_baseline!(
    /// The Fennel baseline (Tsourakakis et al.) with
    /// `α = √k·m/n^{3/2}`, `γ = 1.5`; ReFennel with `passes > 1`.
    Fennel,
    Some(FlatObjective::Fennel),
    "fennel",
    "refennel"
);

/// The scoring rule of a flat one-pass algorithm, as a value.
///
/// The flat algorithms ([`Fennel`], [`Ldg`]) share one state machine and
/// differ only in how a candidate block is scored; this enum names the rule
/// so dynamic maintenance ([`RepairSink`]) can be constructed for whichever
/// flat algorithm a job selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlatObjective {
    /// Fennel's additive objective `conn − α·γ·c(Vᵢ)^{γ−1}`.
    Fennel,
    /// LDG's multiplicative objective `conn · (1 − c(Vᵢ)/L_max)`.
    Ldg,
}

impl FlatObjective {
    /// The registry name of the flat algorithm scoring with this rule.
    pub fn name(&self) -> &'static str {
        match self {
            FlatObjective::Fennel => "fennel",
            FlatObjective::Ldg => "ldg",
        }
    }

    /// The objective of the *canonical* algorithm name (aliases must be
    /// resolved first, e.g. through the registry), or `None` when the
    /// algorithm is not a flat one-pass scorer and therefore supports no
    /// incremental repair.
    pub fn for_algorithm(name: &str) -> Option<FlatObjective> {
        [FlatObjective::Fennel, FlatObjective::Ldg]
            .into_iter()
            .find(|objective| objective.name() == name)
    }

    /// Scores one candidate block: `conn` is the connectivity towards the
    /// block, `weight` its current load, `capacity` the balance limit
    /// `L_max` and `alpha`/`gamma` the Fennel parameters.
    pub fn score(
        &self,
        conn: u64,
        weight: NodeWeight,
        capacity: NodeWeight,
        alpha: f64,
        gamma: f64,
    ) -> f64 {
        self.combine(conn as f64, self.base(weight, capacity, alpha, gamma))
    }

    /// The pre-evaluated per-block penalty term of the objective: a pure
    /// function of the block's current load `weight` (and the fixed
    /// parameters), so callers only need to recompute it when that load
    /// changes. Combining it with a connectivity via
    /// [`FlatObjective::combine`] reproduces the direct objective bit for
    /// bit:
    ///
    /// * Fennel: `base = −(α·γ·c(Vᵢ)^{γ−1})`, score `= conn + base`
    ///   (IEEE 754 guarantees `a − b ≡ a + (−b)`);
    /// * LDG: `base = 1 − c(Vᵢ)/L_max`, score `= conn · base`
    ///   (the same operations in the same order as the direct form).
    ///
    /// This is the single definition of both objectives; the flat
    /// `score_base` arena and the OMS per-tree-node arena both evaluate it.
    /// It factors into `load_term` (the only part that costs a `powf`) and
    /// `base_of_term`.
    #[inline]
    pub fn base(&self, weight: NodeWeight, capacity: NodeWeight, alpha: f64, gamma: f64) -> f64 {
        self.base_of_term(self.load_term(weight, gamma), capacity, alpha, gamma)
    }

    /// The part of [`FlatObjective::base`] that depends on the block's load
    /// and `γ` alone — `c(Vᵢ)^{γ−1}` for Fennel, `c(Vᵢ)` for LDG — so it
    /// survives a change of `α` or `L_max`.
    #[inline]
    fn load_term(&self, weight: NodeWeight, gamma: f64) -> f64 {
        match self {
            FlatObjective::Fennel => (weight as f64).powf(gamma - 1.0),
            FlatObjective::Ldg => weight as f64,
        }
    }

    /// [`FlatObjective::base`] from a `load_term`: the same operations in
    /// the same order as the undivided form (`α·γ·term` associates to the
    /// left), so the result has the same bits.
    #[inline]
    fn base_of_term(&self, term: f64, capacity: NodeWeight, alpha: f64, gamma: f64) -> f64 {
        match self {
            FlatObjective::Fennel => -(alpha * gamma * term),
            FlatObjective::Ldg => 1.0 - term / capacity.max(1) as f64,
        }
    }

    /// Combines a connectivity with a penalty base pre-evaluated by
    /// [`FlatObjective::base`].
    #[inline]
    pub fn combine(&self, conn: f64, base: f64) -> f64 {
        match self {
            FlatObjective::Fennel => conn + base,
            FlatObjective::Ldg => conn * base,
        }
    }
}

/// The Hashing algorithm as a [`NodeSink`]: stateless per node, no scoring.
pub(crate) struct HashingSink {
    pub(crate) assignments: Vec<BlockId>,
    pub(crate) node_weights: Vec<NodeWeight>,
    pub(crate) k: u64,
    pub(crate) seed: u64,
}

impl NodeSink for HashingSink {
    fn process(&mut self, node: oms_graph::StreamedNode<'_>) {
        self.assignments[node.node as usize] =
            (hash_node(node.node, self.seed) % self.k) as BlockId;
        self.node_weights[node.node as usize] = node.weight;
    }

    fn assignments(&self) -> Option<&[BlockId]> {
        Some(&self.assignments)
    }

    fn num_blocks(&self) -> u32 {
        self.k as u32
    }

    fn restore(&mut self, assignments: &[BlockId]) -> bool {
        self.assignments.copy_from_slice(assignments);
        true
    }
}

/// A flat one-pass algorithm as a [`NodeSink`]: [`FlatState`] plus its
/// scoring objective. From the second pass on (restreaming), each node is
/// unassigned before being re-scored; a *seeded* sink (refinement of an
/// existing partition) restreams from the very first pass.
pub(crate) struct FlatSink {
    state: FlatState,
    restreaming: bool,
    seeded: bool,
}

impl FlatSink {
    pub(crate) fn new(state: FlatState) -> Self {
        FlatSink {
            state,
            restreaming: false,
            seeded: false,
        }
    }

    /// A sink whose state was seeded from an existing partition: every pass
    /// (including the first) unassigns each node before re-scoring it.
    pub(crate) fn seeded(state: FlatState) -> Self {
        FlatSink {
            state,
            restreaming: true,
            seeded: true,
        }
    }

    pub(crate) fn into_partition(self, k: u32) -> Partition {
        self.state.into_partition(k)
    }
}

impl NodeSink for FlatSink {
    fn begin_pass(&mut self, pass: usize) {
        self.restreaming = self.seeded || pass > 0;
    }

    fn process(&mut self, node: oms_graph::StreamedNode<'_>) {
        if self.restreaming {
            self.state.unassign(node.node, node.weight);
        }
        self.state.assign(node);
    }

    fn end_pass(&mut self, _pass: usize) {
        self.state.flush_hot_counters();
    }

    fn assignments(&self) -> Option<&[BlockId]> {
        Some(&self.state.assignments)
    }

    fn num_blocks(&self) -> u32 {
        self.state.block_weights.len() as u32
    }

    fn restore(&mut self, assignments: &[BlockId]) -> bool {
        self.state.restore(assignments);
        true
    }
}

/// Shared mutable state of the flat `O(m + nk)` partitioners.
///
/// The per-block penalty term of both objectives depends only on the block's
/// current load (and the fixed parameters `α`, `γ`, `L_max`), and a node
/// assignment changes the load of exactly one block — so the penalty is kept
/// pre-evaluated in the dense `score_base` arena and refreshed incrementally.
/// This turns Fennel's inner loop from `k` `powf` calls per node into one
/// `powf` per assignment plus `k` adds, without changing a single bit of the
/// scores:
///
/// * Fennel: `base[b] = −(α·γ·c(Vᵢ)^{γ−1})`, score `= conn + base[b]`
///   (IEEE 754 guarantees `a − b ≡ a + (−b)`).
/// * LDG: `base[b] = 1 − c(Vᵢ)/L_max`, score `= conn · base[b]`
///   (the same operations in the same order as the direct form).
pub(crate) struct FlatState {
    pub(crate) assignments: Vec<BlockId>,
    pub(crate) node_weights: Vec<NodeWeight>,
    pub(crate) block_weights: Vec<NodeWeight>,
    objective: FlatObjective,
    /// Pre-evaluated per-block penalty; `score_base[b]` is a pure function
    /// of `block_weights[b]`, refreshed whenever that load changes.
    score_base: Vec<f64>,
    /// `FlatObjective::load_term` of every block's load, kept next to
    /// `score_base` so a change of `α` / `L_max` ([`FlatState::retune`])
    /// rescales the penalties without a `powf`.
    load_term: Vec<f64>,
    conn: Vec<u64>,
    touched: Vec<BlockId>,
    capacity: NodeWeight,
    alpha: f64,
    gamma: f64,
    /// Hot-path tallies: nodes scored and degree ≤ 2 fast-path hits. Plain
    /// fields (one register add each on the scoring path) drained into the
    /// `oms-obs` counter registry at pass boundaries, so per-node work
    /// never touches the observer slot.
    scored: u64,
    fast_path: u64,
}

impl FlatState {
    pub(crate) fn new<S: NodeStream>(
        k: u32,
        stream: &S,
        config: OnePassConfig,
        objective: FlatObjective,
    ) -> Self {
        Self::with_counts(
            k,
            stream.num_nodes(),
            stream.num_edges(),
            stream.total_node_weight(),
            config,
            objective,
        )
    }

    /// [`FlatState::new`] from explicit counts instead of a stream (used by
    /// the dynamic layer, whose counts change as deltas arrive).
    pub(crate) fn with_counts(
        k: u32,
        n: usize,
        m: usize,
        total_weight: NodeWeight,
        config: OnePassConfig,
        objective: FlatObjective,
    ) -> Self {
        let mut state = FlatState {
            assignments: vec![UNASSIGNED; n],
            node_weights: vec![0; n],
            block_weights: vec![0; k as usize],
            objective,
            score_base: vec![0.0; k as usize],
            load_term: vec![0.0; k as usize],
            conn: vec![0; k as usize],
            touched: Vec::new(),
            capacity: Partition::capacity(total_weight, k, config.epsilon),
            alpha: fennel_alpha(k, m, n),
            gamma: config.gamma,
            scored: 0,
            fast_path: 0,
        };
        state.refresh_all_bases();
        state
    }

    pub(crate) fn objective(&self) -> FlatObjective {
        self.objective
    }

    /// Re-evaluates the penalty of one block from its current load.
    #[inline]
    fn refresh_base(&mut self, b: usize) {
        let term = self.objective.load_term(self.block_weights[b], self.gamma);
        self.load_term[b] = term;
        self.score_base[b] =
            self.objective
                .base_of_term(term, self.capacity, self.alpha, self.gamma);
    }

    /// Re-evaluates every block's penalty (bulk load changes).
    fn refresh_all_bases(&mut self) {
        for b in 0..self.block_weights.len() {
            self.refresh_base(b);
        }
    }

    /// Adopts a new balance limit and Fennel `α`: the loads did not move, so
    /// every penalty is rescaled from its stored load term — bit for bit
    /// what [`FlatState::refresh_all_bases`] would compute, minus `k` `powf`
    /// calls.
    fn retune(&mut self, capacity: NodeWeight, alpha: f64) {
        self.capacity = capacity;
        self.alpha = alpha;
        for (base, &term) in self.score_base.iter_mut().zip(&self.load_term) {
            *base = self
                .objective
                .base_of_term(term, capacity, alpha, self.gamma);
        }
    }

    /// Scores all blocks for `node` under the state's objective and assigns
    /// it to the best feasible one (least loaded block if every block is
    /// full). Ties break towards the lighter block, then the lower index —
    /// identical to evaluating the objective directly for every block.
    pub(crate) fn assign(&mut self, node: oms_graph::StreamedNode<'_>) {
        self.scored += 1;
        // Degree-bucketed fast path: with at most two assigned neighbors the
        // connectivity fits in registers, skipping the dense gather arena and
        // its dirty-list reset entirely.
        if node.neighbors.len() <= 2 {
            self.fast_path += 1;
            let mut b0 = UNASSIGNED;
            let mut w0 = 0u64;
            let mut b1 = UNASSIGNED;
            let mut w1 = 0u64;
            for (u, w) in node.neighbors_weighted() {
                let b = self.assignments[u as usize];
                if b == UNASSIGNED {
                    continue;
                }
                if b == b0 {
                    w0 += w;
                } else if b0 == UNASSIGNED {
                    b0 = b;
                    w0 = w;
                } else {
                    b1 = b;
                    w1 = w;
                }
            }
            // `b` never equals UNASSIGNED inside the scan, so empty slots
            // contribute zero connectivity.
            let chosen = self.select_block(node.weight, |b| {
                (b as BlockId == b0) as u64 * w0 + (b as BlockId == b1) as u64 * w1
            });
            self.commit(node, chosen);
            return;
        }

        // General path: gather connectivity towards already-assigned
        // neighbors into the dense arena, tracking touched blocks so the
        // reset is O(distinct blocks), not O(k).
        for (u, w) in node.neighbors_weighted() {
            let b = self.assignments[u as usize];
            if b != UNASSIGNED {
                if self.conn[b as usize] == 0 {
                    self.touched.push(b);
                }
                self.conn[b as usize] += w;
            }
        }

        let chosen = self.select_block(node.weight, |b| self.conn[b]);
        self.commit(node, chosen);

        // Reset the connectivity scratchpad for the next node.
        for &b in &self.touched {
            self.conn[b as usize] = 0;
        }
        self.touched.clear();
    }

    /// The max-score feasible block (ties: lighter, then lower index), or
    /// the least relatively loaded block when no block can take the node.
    /// The select loop is branch-free in its hot comparisons: the score is
    /// computed for infeasible blocks too (the value is never used) and the
    /// running best is updated with conditional moves.
    #[inline(always)]
    fn select_block<C: Fn(usize) -> u64>(&self, node_weight: NodeWeight, conn_of: C) -> usize {
        let k = self.block_weights.len();
        let objective = self.objective;
        let mut has_best = false;
        let mut best_b = 0usize;
        let mut best_s = 0.0f64;
        let mut best_w: NodeWeight = 0;
        for b in 0..k {
            let weight = self.block_weights[b];
            let conn = conn_of(b) as f64;
            let s = objective.combine(conn, self.score_base[b]);
            let feasible = weight + node_weight <= self.capacity;
            let better = feasible && (!has_best || s > best_s || (s == best_s && weight < best_w));
            best_b = if better { b } else { best_b };
            best_s = if better { s } else { best_s };
            best_w = if better { weight } else { best_w };
            has_best |= better;
        }
        if has_best {
            best_b
        } else {
            self.least_loaded_block()
        }
    }

    /// The fallback target when every block is over capacity: the block with
    /// the smallest relative load, compared in `f64` exactly like the
    /// original inline scan (a `u64` weight compare could order differently
    /// for loads that round to the same double).
    fn least_loaded_block(&self) -> usize {
        let cap = self.capacity.max(1) as f64;
        let mut fallback = 0usize;
        let mut fallback_load = f64::INFINITY;
        for (b, &weight) in self.block_weights.iter().enumerate() {
            let load = weight as f64 / cap;
            if load < fallback_load {
                fallback_load = load;
                fallback = b;
            }
        }
        fallback
    }

    /// Records the assignment and refreshes the chosen block's penalty.
    #[inline]
    fn commit(&mut self, node: oms_graph::StreamedNode<'_>, chosen: usize) {
        self.assignments[node.node as usize] = chosen as BlockId;
        self.node_weights[node.node as usize] = node.weight;
        self.block_weights[chosen] += node.weight;
        self.refresh_base(chosen);
    }

    /// Removes a node's previous assignment before it is re-scored (used
    /// by restreaming passes). The weight comes from the streamed node, so
    /// unassignment is correct even when the state was seeded from an
    /// existing partition and the node has not been streamed yet.
    pub(crate) fn unassign(&mut self, node: oms_graph::NodeId, weight: NodeWeight) {
        let b = self.assignments[node as usize];
        if b != UNASSIGNED {
            self.block_weights[b as usize] -= weight;
            self.assignments[node as usize] = UNASSIGNED;
            self.refresh_base(b as usize);
        }
    }

    /// Seeds the state from an existing partition (refinement mode). The
    /// per-node weights fill in as the first pass streams them;
    /// [`FlatState::unassign`] takes the weight from the streamed node, so
    /// they are not needed up front.
    pub(crate) fn seed_from(&mut self, assignments: &[BlockId], block_weights: &[NodeWeight]) {
        self.assignments.copy_from_slice(assignments);
        self.block_weights.copy_from_slice(block_weights);
        self.refresh_all_bases();
    }

    /// Replaces the assignment array and rebuilds the block weights (the
    /// executor's revert-on-worsen guard).
    pub(crate) fn restore(&mut self, assignments: &[BlockId]) {
        self.assignments.copy_from_slice(assignments);
        self.rebuild_block_weights();
    }

    fn rebuild_block_weights(&mut self) {
        self.block_weights.fill(0);
        for (v, &b) in self.assignments.iter().enumerate() {
            if b != UNASSIGNED {
                self.block_weights[b as usize] += self.node_weights[v];
            }
        }
        self.refresh_all_bases();
    }

    pub(crate) fn into_partition(self, k: u32) -> Partition {
        Partition::from_assignments(k, self.assignments, &self.node_weights)
    }

    /// Drains the hot-path tallies into the installed observer's counters
    /// (a no-op that still zeroes the tallies when none is installed).
    pub(crate) fn flush_hot_counters(&mut self) {
        let scored = std::mem::take(&mut self.scored);
        let fast_path = std::mem::take(&mut self.fast_path);
        oms_obs::counter_add(oms_obs::CounterId::NodesScored, scored);
        oms_obs::counter_add(oms_obs::CounterId::DegLe2FastPath, fast_path);
    }

    /// Extends the id space to `n` nodes; new slots start unassigned with
    /// weight 0. Never shrinks.
    pub(crate) fn grow(&mut self, n: usize) {
        if n > self.assignments.len() {
            self.assignments.resize(n, UNASSIGNED);
            self.node_weights.resize(n, 0);
        }
    }
}

/// The repair-capable face of a flat one-pass algorithm, for dynamic-graph
/// maintenance: the same `O(k)` scoring state the streaming pass uses
/// ([`Fennel`] / [`Ldg`]), exposed so single nodes can be re-scored in place
/// under the balance constraint `L_max` as the graph changes.
///
/// Differences from the one-shot sinks:
///
/// * [`RepairSink::rescore`] unassigns and re-scores *one* node against the
///   current assignment — the ReFennel step, applied locally.
/// * [`RepairSink::retune`] re-derives `L_max` and Fennel's `α` when node or
///   edge counts change (deltas shift both).
/// * The [`NodeSink`] impl restreams on *every* pass (seeded semantics), so
///   the multi-pass engine can run a full restream fallback over the live
///   graph, guarded against worsening the maintained assignment.
pub struct RepairSink {
    state: FlatState,
    config: OnePassConfig,
}

impl RepairSink {
    /// A repair sink for `k` blocks over an id space of `n` nodes with `m`
    /// edges and total node weight `total_weight`. All nodes start
    /// unassigned; use [`RepairSink::seed`] to adopt an existing partition.
    pub fn new(
        k: u32,
        n: usize,
        m: usize,
        total_weight: NodeWeight,
        config: OnePassConfig,
        objective: FlatObjective,
    ) -> Result<Self> {
        check_k(k)?;
        Ok(RepairSink {
            state: FlatState::with_counts(k, n, m, total_weight, config, objective),
            config,
        })
    }

    /// The scoring rule in use.
    pub fn objective(&self) -> FlatObjective {
        self.state.objective()
    }

    /// Adopts an existing partition: per-block loads are rebuilt from the
    /// assignments and `node_weights` (one entry per id-space slot; deleted
    /// or unassigned nodes must carry [`UNASSIGNED`]).
    pub fn seed(&mut self, assignments: &[BlockId], node_weights: &[NodeWeight]) {
        self.state.assignments.copy_from_slice(assignments);
        self.state.node_weights.copy_from_slice(node_weights);
        self.state.rebuild_block_weights();
    }

    /// Extends the id space to `n` nodes (new slots unassigned). Never
    /// shrinks: deleted ids stay allocated but unassigned.
    pub fn grow(&mut self, n: usize) {
        self.state.grow(n);
    }

    /// Re-derives the balance limit `L_max` and Fennel's `α` from the
    /// current graph counts. Call after deltas changed `n`, `m` or the
    /// total node weight.
    pub fn retune(&mut self, n: usize, m: usize, total_weight: NodeWeight) {
        let k = self.state.block_weights.len() as u32;
        let capacity = Partition::capacity(total_weight, k, self.config.epsilon);
        self.state.retune(capacity, fennel_alpha(k, m, n));
    }

    /// Unassigns `node` (if assigned) and re-scores it against the current
    /// assignment, exactly like one restreaming step. Returns the block the
    /// node ends up in.
    pub fn rescore(&mut self, node: oms_graph::StreamedNode<'_>) -> BlockId {
        self.state.unassign(node.node, node.weight);
        self.state.assign(node);
        self.state.assignments[node.node as usize]
    }

    /// Records a node that joined the graph with `weight` but has not been
    /// scored yet (its slot must exist, see [`RepairSink::grow`]).
    pub fn admit(&mut self, node: oms_graph::NodeId, weight: NodeWeight) {
        self.state.node_weights[node as usize] = weight;
    }

    /// Removes `node` from its block (node deletion); its slot stays
    /// allocated but unassigned.
    pub fn forget(&mut self, node: oms_graph::NodeId, weight: NodeWeight) {
        self.state.unassign(node, weight);
        self.state.node_weights[node as usize] = 0;
    }

    /// The current assignment, one entry per id-space slot ([`UNASSIGNED`]
    /// for deleted or not-yet-scored nodes).
    pub fn assignments(&self) -> &[BlockId] {
        &self.state.assignments
    }

    /// The block of one node.
    pub fn assignment(&self, node: oms_graph::NodeId) -> BlockId {
        self.state.assignments[node as usize]
    }

    /// Current per-block loads.
    pub fn block_weights(&self) -> &[NodeWeight] {
        &self.state.block_weights
    }

    /// The balance limit `L_max` currently enforced.
    pub fn capacity(&self) -> NodeWeight {
        self.state.capacity
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> u32 {
        self.state.block_weights.len() as u32
    }

    /// Drains the hot-path scoring tallies into the installed observer's
    /// counters. The dynamic layer calls this at batch boundaries, so
    /// per-delta repair steps pay only register adds.
    pub fn flush_hot_counters(&mut self) {
        self.state.flush_hot_counters();
    }
}

impl NodeSink for RepairSink {
    fn process(&mut self, node: oms_graph::StreamedNode<'_>) {
        self.rescore(node);
    }

    fn end_pass(&mut self, _pass: usize) {
        self.state.flush_hot_counters();
    }

    fn assignments(&self) -> Option<&[BlockId]> {
        Some(&self.state.assignments)
    }

    fn num_blocks(&self) -> u32 {
        RepairSink::num_blocks(self)
    }

    fn restore(&mut self, assignments: &[BlockId]) -> bool {
        self.state.restore(assignments);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oms_graph::InMemoryStream;

    /// Two 5-cliques joined by a single edge: any sensible 2-way streaming
    /// partitioner should separate the cliques.
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
    fn hashing_assigns_every_node() {
        let g = two_cliques();
        let p = Hashing::new(4, OnePassConfig::default())
            .partition_graph(&g)
            .unwrap();
        assert_eq!(p.num_nodes(), 10);
        assert_eq!(p.num_blocks(), 4);
        assert!(p.validate(&[1; 10]));
    }

    #[test]
    fn hashing_is_deterministic_per_seed() {
        let g = two_cliques();
        let a = Hashing::new(4, OnePassConfig::default().seed(3))
            .partition_graph(&g)
            .unwrap();
        let b = Hashing::new(4, OnePassConfig::default().seed(3))
            .partition_graph(&g)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fennel_respects_strict_balance_with_zero_epsilon() {
        // ε = 0 forces a perfect 5/5 split on ten unit-weight nodes.
        let g = two_cliques();
        let cfg = OnePassConfig::default().epsilon(0.0);
        let p = Fennel::new(2, cfg).partition_graph(&g).unwrap();
        assert!(p.is_balanced(0.0));
        assert_eq!(p.block_weights(), &[5, 5]);
    }

    #[test]
    fn ldg_separates_cliques() {
        // LDG's multiplicative penalty keeps a node with the block holding
        // more of its neighbors, so the two cliques end up separated and only
        // the single bridge edge is cut.
        let g = two_cliques();
        let cfg = OnePassConfig::default().epsilon(0.0);
        let p = Ldg::new(2, cfg).partition_graph(&g).unwrap();
        assert_eq!(p.edge_cut(&g), 1);
        assert!(p.is_balanced(0.0));
    }

    #[test]
    fn fennel_beats_hashing_on_structured_graph() {
        let g = oms_gen::planted_partition(400, 8, 0.15, 0.005, 5);
        let cfg = OnePassConfig::default();
        let fennel = Fennel::new(8, cfg).partition_graph(&g).unwrap();
        let hashing = Hashing::new(8, cfg).partition_graph(&g).unwrap();
        assert!(
            fennel.edge_cut(&g) < hashing.edge_cut(&g),
            "fennel {} vs hashing {}",
            fennel.edge_cut(&g),
            hashing.edge_cut(&g)
        );
    }

    #[test]
    fn ldg_beats_hashing_on_structured_graph() {
        let g = oms_gen::planted_partition(400, 8, 0.15, 0.005, 6);
        let cfg = OnePassConfig::default();
        let ldg = Ldg::new(8, cfg).partition_graph(&g).unwrap();
        let hashing = Hashing::new(8, cfg).partition_graph(&g).unwrap();
        assert!(ldg.edge_cut(&g) < hashing.edge_cut(&g));
    }

    #[test]
    fn all_baselines_respect_balance_on_random_graph() {
        let g = oms_gen::erdos_renyi_gnm(600, 3000, 9);
        for k in [2u32, 7, 16, 33] {
            let cfg = OnePassConfig::default();
            for p in [
                Fennel::new(k, cfg).partition_graph(&g).unwrap(),
                Ldg::new(k, cfg).partition_graph(&g).unwrap(),
            ] {
                assert!(
                    p.is_balanced(0.03 + 1e-9) || p.max_block_weight() <= (600 / k as u64) + 2,
                    "k={k} imbalance {}",
                    p.imbalance()
                );
                assert_eq!(p.num_nodes(), 600);
            }
        }
    }

    #[test]
    fn zero_blocks_is_rejected() {
        let g = two_cliques();
        assert!(Fennel::new(0, OnePassConfig::default())
            .partition_graph(&g)
            .is_err());
        assert!(Ldg::new(0, OnePassConfig::default())
            .partition_graph(&g)
            .is_err());
        assert!(Hashing::new(0, OnePassConfig::default())
            .partition_graph(&g)
            .is_err());
    }

    #[test]
    fn partitioner_names() {
        let cfg = OnePassConfig::default();
        assert_eq!(Fennel::new(2, cfg).name(), "fennel");
        assert_eq!(Ldg::new(2, cfg).name(), "ldg");
        assert_eq!(Hashing::new(2, cfg).name(), "hashing");
        assert_eq!(Fennel::new(5, cfg).num_blocks(), 5);
    }

    #[test]
    fn works_on_streams_with_isolated_nodes() {
        let g = CsrGraph::empty(20);
        let p = Fennel::new(4, OnePassConfig::default())
            .partition_stream(&mut InMemoryStream::new(&g))
            .unwrap();
        assert_eq!(p.num_nodes(), 20);
        assert!(p.is_balanced(0.03));
    }

    #[test]
    fn single_block_puts_everything_together() {
        let g = two_cliques();
        let p = Fennel::new(1, OnePassConfig::default())
            .partition_graph(&g)
            .unwrap();
        assert_eq!(p.edge_cut(&g), 0);
        assert_eq!(p.used_blocks(), 1);
    }

    #[test]
    fn penalties_match_a_from_scratch_evaluation_after_any_retune_sequence() {
        // `retune` rescales `score_base` from the stored load terms; every
        // bit must equal `FlatObjective::base` of the live load under the
        // live parameters, whatever assignments and retunes came before.
        let g = oms_gen::erdos_renyi_gnm(300, 1500, 4);
        let (k, n) = (7u32, g.num_nodes());
        let cases = [
            (FlatObjective::Fennel, 1.5),
            (FlatObjective::Fennel, 2.0),
            (FlatObjective::Fennel, 0.5),
            (FlatObjective::Ldg, 1.5),
        ];
        for (objective, gamma) in cases {
            let cfg = OnePassConfig::default().gamma(gamma);
            let mut sink = RepairSink::new(k, n, g.num_edges(), n as u64, cfg, objective).unwrap();
            let mut rng = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = |bound: u64| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (rng >> 33) % bound
            };
            let (mut live_n, mut live_m, mut live_weight) = (n, g.num_edges(), n as u64);
            for step in 0..2_000 {
                let v = next(n as u64) as u32;
                match next(4) {
                    0 => sink.forget(v, 1),
                    1 => {
                        // What a delta does to the counts: anything goes.
                        live_n = 1 + next(2 * n as u64) as usize;
                        live_m = next(4 * g.num_edges() as u64) as usize;
                        live_weight = 1 + next(3 * n as u64);
                        sink.retune(live_n, live_m, live_weight);
                    }
                    _ => {
                        sink.rescore(oms_graph::StreamedNode {
                            node: v,
                            weight: 1,
                            neighbors: g.neighbors(v),
                            edge_weights: g.incident_edge_weights(v),
                        });
                    }
                }
                let state = &sink.state;
                let capacity = Partition::capacity(live_weight, k, cfg.epsilon);
                assert_eq!(state.capacity, capacity);
                let alpha = fennel_alpha(k, live_m, live_n);
                for (b, &load) in state.block_weights.iter().enumerate() {
                    let expected = objective.base(load, capacity, alpha, gamma);
                    assert_eq!(
                        state.score_base[b].to_bits(),
                        expected.to_bits(),
                        "{objective:?} γ={gamma} step {step} block {b} (load {load})"
                    );
                }
            }
        }
    }
}
