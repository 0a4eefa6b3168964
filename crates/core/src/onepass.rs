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
//! A hierarchy with the single layer `S = k` *is* the flat problem, so LDG
//! and Fennel are Algorithm 1 on the depth-1 multi-section tree
//! (`MultisectionTree::flat(k, k)`): every leaf covers one block, hence
//! `t·L_max` and `α/√t` are the flat `L_max` and `α` bit for bit, and the
//! one descent kernel (`oms`) scores the root's `k` children. There is no
//! second scoring state in this file. What is left here: the
//! [`StreamingPartitioner`] trait, one pass-aware type per rule
//! ([`Hashing`], [`Ldg`], [`Fennel`]), the stateless Hashing sink, and
//! [`RepairSink`], the kernel's face for dynamic-graph maintenance.
//!
//! The pass-aware types do one pass by default, and `.passes(p)` /
//! `.convergence(c)` turn the same value into its restreaming variant
//! (ReLDG, ReFennel — Nishimura & Ugander), where a node's previous
//! assignment is removed before it is re-scored. Every run, one pass or
//! many, goes through the one engine loop (`restream::run` on
//! [`executor::run_restream`](crate::executor::run_restream)).

use crate::config::{OmsConfig, OnePassConfig, ScorerKind};
use crate::executor::{Measurement, NodeSink, PassTrajectory, ReportTopology};
use crate::mstree::MultisectionTree;
use crate::oms::{OmsSink, OnlineMultiSection};
use crate::partition::{Partition, UNASSIGNED};
use crate::scorer::{hash_node, FlatObjective};
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
    ) -> Result<(Partition, PassTrajectory)> {
        let (partition, trajectory, _) = self.partition_stream_measured(stream, None)?;
        Ok((partition, trajectory))
    }

    /// The run behind both methods above and behind
    /// [`Partitioner::run`](crate::Partitioner::run), which sets `report` to
    /// the topology it reports under: the run then also returns the
    /// [`Measurement`] of its partition, tallied during its passes. A run
    /// with `report` unset returns `None` there; a one-pass one pays nothing
    /// for a tally.
    fn partition_stream_measured<S: NodeStream>(
        &self,
        stream: &mut S,
        report: Option<ReportTopology<'_>>,
    ) -> Result<(Partition, PassTrajectory, Option<Measurement>)>;

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

/// A flat rule as the multi-section it is: the depth-1 tree over `k` blocks
/// (the root alone for `k = 1`), every layer scored with `objective`.
pub(crate) fn depth_one(
    k: u32,
    config: OnePassConfig,
    objective: FlatObjective,
) -> Result<OnlineMultiSection> {
    check_k(k)?;
    let scorer = match objective {
        FlatObjective::Fennel => ScorerKind::Fennel,
        FlatObjective::Ldg => ScorerKind::Ldg,
    };
    let config = OmsConfig::default()
        .epsilon(config.epsilon)
        .gamma(config.gamma)
        .seed(config.seed)
        .scorer(scorer);
    Ok(OnlineMultiSection::with_tree(
        MultisectionTree::flat(k, k.max(2)),
        config,
    ))
}

/// The one run of the flat rules (`None` = Hashing): up to `passes` passes
/// of the rule's sink over `stream`.
pub(crate) fn run_flat(
    k: u32,
    config: OnePassConfig,
    rule: Option<FlatObjective>,
    passes: usize,
    convergence: f64,
    mut stream: &mut dyn NodeStream,
    report: Option<ReportTopology<'_>>,
) -> Result<(Partition, PassTrajectory, Option<Measurement>)> {
    let Some(objective) = rule else {
        check_k(k)?;
        let mut sink = HashingSink {
            assignments: vec![UNASSIGNED; stream.num_nodes()],
            block_weights: vec![0; k as usize],
            seed: config.seed,
        };
        let (trajectory, measured) =
            crate::restream::run(stream, &mut sink, passes, convergence, report)?;
        let partition = Partition::from_block_weights(k, sink.assignments, sink.block_weights);
        return Ok((partition, trajectory, measured));
    };
    depth_one(k, config, objective)?
        .passes(passes)
        .convergence(convergence)
        .partition_stream_measured(&mut stream, report)
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
            fn partition_stream_measured<S: NodeStream>(
                &self,
                stream: &mut S,
                report: Option<ReportTopology<'_>>,
            ) -> Result<(Partition, PassTrajectory, Option<Measurement>)> {
                let (passes, convergence) = (self.passes, self.convergence);
                run_flat(self.k, self.config, $rule, passes, convergence, stream, report)
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

/// The Hashing algorithm as a [`NodeSink`]: no scoring, one block id per
/// node and the `k` block loads.
pub(crate) struct HashingSink {
    pub(crate) assignments: Vec<BlockId>,
    pub(crate) block_weights: Vec<NodeWeight>,
    pub(crate) seed: u64,
}

impl NodeSink for HashingSink {
    /// Hashes the node into its block, moving its weight there from the
    /// block a previous pass (or a seed) put it in.
    fn process(&mut self, node: oms_graph::StreamedNode<'_>) {
        let k = self.block_weights.len() as u64;
        let block = (hash_node(node.node, self.seed) % k) as BlockId;
        let slot = &mut self.assignments[node.node as usize];
        if *slot != UNASSIGNED {
            self.block_weights[*slot as usize] -= node.weight;
        }
        self.block_weights[block as usize] += node.weight;
        *slot = block;
    }

    fn assignments(&self) -> &[BlockId] {
        &self.assignments
    }

    fn num_blocks(&self) -> u32 {
        self.block_weights.len() as u32
    }

    fn block_weights(&self, out: &mut Vec<NodeWeight>) {
        out.clone_from(&self.block_weights);
    }

    fn restore(&mut self, assignments: &[BlockId], block_weights: &[NodeWeight]) {
        self.assignments.copy_from_slice(assignments);
        self.block_weights.copy_from_slice(block_weights);
    }
}

/// The repair-capable face of a flat one-pass algorithm, for dynamic-graph
/// maintenance: the scoring kernel the streaming pass uses ([`Fennel`] /
/// [`Ldg`], i.e. the descent on the depth-1 tree), exposed so single nodes
/// can be re-scored in place under the balance constraint `L_max` as the
/// graph changes.
///
/// Differences from the one-shot runs:
///
/// * [`RepairSink::rescore`] unassigns and re-scores *one* node against the
///   current assignment — the ReFennel step, applied locally.
/// * [`RepairSink::retune`] re-derives `L_max` and Fennel's `α` when node or
///   edge counts change (deltas shift both).
/// * As a [`NodeSink`] it lets the multi-pass engine run a full restream
///   fallback over the live graph, guarded against worsening the maintained
///   assignment; its assignment array and block count are read through
///   that trait too.
pub struct RepairSink {
    kernel: OmsSink,
    objective: FlatObjective,
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
        let kernel = OmsSink::new(&depth_one(k, config, objective)?, n, m, total_weight);
        Ok(RepairSink { kernel, objective })
    }

    /// The scoring rule in use.
    pub fn objective(&self) -> FlatObjective {
        self.objective
    }

    /// Adopts an existing partition: per-block loads are rebuilt from the
    /// assignments and `node_weights` (one entry per id-space slot; deleted
    /// or unassigned nodes must carry [`UNASSIGNED`]).
    pub fn seed(&mut self, assignments: &[BlockId], node_weights: &[NodeWeight]) {
        self.kernel.adopt(assignments, node_weights);
    }

    /// Extends the id space to `n` nodes (new slots unassigned). Never
    /// shrinks: deleted ids stay allocated but unassigned.
    pub fn grow(&mut self, n: usize) {
        self.kernel.grow(n);
    }

    /// Re-derives the balance limit `L_max` and Fennel's `α` from the
    /// current graph counts. Call after deltas changed `n`, `m` or the
    /// total node weight.
    pub fn retune(&mut self, n: usize, m: usize, total_weight: NodeWeight) {
        self.kernel.retune(n, m, total_weight);
    }

    /// Unassigns `node` (if assigned) and re-scores it against the current
    /// assignment, exactly like one restreaming step. Returns the block the
    /// node ends up in.
    pub fn rescore(&mut self, node: oms_graph::StreamedNode<'_>) -> BlockId {
        self.kernel.rescore(node)
    }

    /// Removes `node`, of weight `weight`, from its block (node deletion);
    /// its slot stays allocated but unassigned.
    pub fn forget(&mut self, node: oms_graph::NodeId, weight: NodeWeight) {
        self.kernel.unassign(node, weight);
    }

    /// The block of one node.
    pub fn assignment(&self, node: oms_graph::NodeId) -> BlockId {
        self.kernel.assignments()[node as usize]
    }

    /// Current per-block loads.
    pub fn block_weights(&self) -> &[NodeWeight] {
        self.kernel.flat_loads()
    }

    /// The balance limit `L_max` currently enforced.
    pub fn capacity(&self) -> NodeWeight {
        self.kernel.block_capacity()
    }

    /// Drains the hot-path scoring tallies into the installed observer's
    /// counters. The dynamic layer calls this at batch boundaries, so
    /// per-delta repair steps pay only register adds.
    pub fn flush_hot_counters(&mut self) {
        self.kernel.flush_hot_counters();
    }
}

impl NodeSink for RepairSink {
    fn process(&mut self, node: oms_graph::StreamedNode<'_>) {
        self.kernel.process(node);
    }

    fn end_pass(&mut self, pass: usize) {
        self.kernel.end_pass(pass);
    }

    /// The current assignment, one entry per id-space slot ([`UNASSIGNED`]
    /// for deleted or not-yet-scored nodes).
    fn assignments(&self) -> &[BlockId] {
        self.kernel.assignments()
    }

    fn num_blocks(&self) -> u32 {
        self.kernel.num_blocks()
    }

    fn block_weights(&self, out: &mut Vec<NodeWeight>) {
        NodeSink::block_weights(&self.kernel, out);
    }

    fn restore(&mut self, assignments: &[BlockId], block_weights: &[NodeWeight]) {
        self.kernel.restore(assignments, block_weights);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::fennel_alpha;

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
    fn single_block_jobs_and_repair_run_on_the_root_is_leaf_tree() {
        // k = 1 is the one tree shape where the blocks are not the root's
        // children: the root is the block.
        let g = two_cliques();
        for spec in ["fennel:1", "ldg:1@passes=3"] {
            let partitioner = crate::JobSpec::parse(spec).unwrap().build().unwrap();
            let p = partitioner.partition(&mut InMemoryStream::new(&g)).unwrap();
            assert!(p.assignments().iter().all(|&b| b == 0), "{spec}");
            assert_eq!(p.block_weights(), &[10], "{spec}");
        }
        for objective in [FlatObjective::Fennel, FlatObjective::Ldg] {
            let cfg = OnePassConfig::default();
            let mut sink = RepairSink::new(1, 10, g.num_edges(), 10, cfg, objective).unwrap();
            assert_eq!(sink.block_weights(), &[0]);
            crate::executor::run(&mut InMemoryStream::new(&g), &mut sink).unwrap();
            assert_eq!(sink.block_weights(), &[10]);
            sink.forget(3, 1);
            assert_eq!(
                (sink.block_weights(), sink.assignment(3)),
                (&[9][..], UNASSIGNED)
            );
            sink.retune(9, g.num_edges() - 4, 9);
            assert_eq!(sink.capacity(), Partition::capacity(9, 1, cfg.epsilon));
            let block = sink.rescore(oms_graph::StreamedNode {
                node: 3,
                weight: 1,
                neighbors: g.neighbors(3),
                edge_weights: g.incident_edge_weights(3),
            });
            assert_eq!((block, sink.block_weights()), (0, &[10][..]));
            let assignments = sink.assignments().to_vec();
            sink.seed(&assignments, &[2; 10]);
            assert_eq!(sink.block_weights(), &[20]);
        }
    }

    #[test]
    fn nan_scores_never_beat_a_feasible_block() {
        // γ < 1 on an edgeless graph: α = 0 and an empty block's load term
        // is ∞, so its score is NaN. Such blocks tie with the best real
        // score instead of losing to an infeasible block 0.
        let g = CsrGraph::empty(40);
        let cfg = OnePassConfig::default().gamma(0.5);
        let p = Fennel::new(4, cfg).passes(2).partition_graph(&g).unwrap();
        assert!(p.is_balanced(cfg.epsilon), "{:?}", p.block_weights());
    }

    #[test]
    fn penalties_match_a_from_scratch_evaluation_after_any_retune_sequence() {
        // `retune` rescales the kernel's penalties in place from the stored
        // load terms; every bit must equal `FlatObjective::base` of the live
        // load under the live parameters, whatever assignments and retunes
        // came before.
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
                let capacity = Partition::capacity(live_weight, k, cfg.epsilon);
                assert_eq!(sink.capacity(), capacity);
                let alpha = fennel_alpha(k, live_m, live_n);
                for (b, &load) in sink.block_weights().iter().enumerate() {
                    let expected = objective.base(load, capacity, alpha, gamma);
                    assert_eq!(
                        sink.kernel.block_bases()[b].to_bits(),
                        expected.to_bits(),
                        "{objective:?} γ={gamma} step {step} block {b} (load {load})"
                    );
                }
            }
        }
    }
}
