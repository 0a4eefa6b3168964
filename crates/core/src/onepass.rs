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
//! A hierarchy with the single layer `S = k` *is* the flat problem, so the
//! `hashing`, `ldg` and `fennel` jobs are Algorithm 1 on the depth-1
//! multi-section tree (`MultisectionTree::flat(k, k)`): every leaf covers
//! one block, hence `t·L_max` and `α/√t` are the flat `L_max` and `α` bit
//! for bit, and the one descent kernel (`oms`) scores the root's `k`
//! children. [`JobSpec::build`](crate::JobSpec::build) makes them the job
//! type every streaming row builds (`oms`'s `OnlineMultiSection`), and
//! there is no second scoring state in this file. What is left here: the
//! stateless Hashing sink the `hashing` job runs instead of the kernel, and
//! [`RepairSink`], the kernel's face for dynamic-graph maintenance.
//!
//! A job does one pass by default, and `passes=` / `conv=` turn it into its
//! restreaming variant (ReLDG, ReFennel — Nishimura & Ugander), where a
//! node's previous assignment is removed before it is re-scored. Every run,
//! one pass or many, goes through the one engine loop (`restream::run` on
//! [`executor::run_restream`](crate::executor::run_restream)).

use crate::api::{JobSpec, ALGORITHMS};
use crate::executor::NodeSink;
use crate::oms::{OmsSink, OnlineMultiSection};
use crate::partition::UNASSIGNED;
use crate::scorer::{hash_node, FlatObjective};
use crate::{BlockId, PartitionError, Result};
use oms_graph::NodeWeight;

/// The flat rule `objective` under the imbalance `epsilon` on the depth-1
/// tree over `k` blocks: what [`RepairSink`] and
/// [`refine_partition`](crate::refine_partition) score with. No layer is
/// hashed, so neither needs a seed.
pub(crate) fn depth_one(
    k: u32,
    epsilon: f64,
    objective: FlatObjective,
) -> Result<OnlineMultiSection> {
    if k == 0 {
        return Err(PartitionError::InvalidConfig(
            "the number of blocks k must be positive".into(),
        ));
    }
    let spec = JobSpec::flat(objective.name(), k).epsilon(epsilon);
    Ok(OnlineMultiSection::flat(&spec, Some(objective)))
}

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
/// maintenance: the scoring kernel the streaming pass of the `fennel` /
/// `ldg` job uses (the descent on the depth-1 tree), exposed so single
/// nodes can be re-scored in place under the balance constraint `L_max` as
/// the graph changes.
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
}

impl RepairSink {
    /// The repair sink of `job` over an id space of `n` nodes with `m` edges
    /// and total node weight `total_weight`: the job's `k` blocks under its
    /// allowed imbalance ε, scored by the flat rule of its algorithm. The
    /// job is resolved and validated through [`ALGORITHMS`]; an algorithm
    /// without a flat rule ([`FlatObjective::for_algorithm`]) is a typed
    /// error, as it cannot be repaired incrementally. All nodes start
    /// unassigned; use [`RepairSink::seed`] to adopt an existing partition.
    pub fn new(job: &JobSpec, n: usize, m: usize, total_weight: NodeWeight) -> Result<Self> {
        let entry = ALGORITHMS.resolve(job)?;
        let Some(objective) = FlatObjective::for_algorithm(entry.name) else {
            return Err(PartitionError::InvalidConfig(format!(
                "algorithm '{}' does not support incremental repair (see `oms algorithms` \
                 for the ones that do)",
                entry.name
            )));
        };
        let tree = depth_one(job.num_blocks(), job.epsilon, objective)?;
        Ok(RepairSink {
            kernel: OmsSink::new(&tree, n, m, total_weight),
        })
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
    use crate::api::DEFAULT_EPSILON;
    use crate::scorer::{fennel_alpha, FENNEL_GAMMA};
    use crate::Partition;
    use oms_graph::{CsrGraph, InMemoryStream};

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

    /// The partition the job `text` computes for `g`.
    fn run(text: &str, g: &CsrGraph) -> Result<Partition> {
        let partitioner = JobSpec::parse(text)?.build()?;
        partitioner.partition(&mut InMemoryStream::new(g))
    }

    #[test]
    fn hashing_assigns_every_node() {
        let g = two_cliques();
        let p = run("hashing:4", &g).unwrap();
        assert_eq!(p.num_nodes(), 10);
        assert_eq!(p.num_blocks(), 4);
        assert!(p.validate(&[1; 10]));
    }

    #[test]
    fn hashing_is_deterministic_per_seed() {
        let g = two_cliques();
        let a = run("hashing:4@seed=3", &g).unwrap();
        let b = run("hashing:4@seed=3", &g).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fennel_respects_strict_balance_with_zero_epsilon() {
        // ε = 0 forces a perfect 5/5 split on ten unit-weight nodes.
        let g = two_cliques();
        let p = run("fennel:2@eps=0", &g).unwrap();
        assert!(p.is_balanced(0.0));
        assert_eq!(p.block_weights(), &[5, 5]);
    }

    #[test]
    fn ldg_separates_cliques() {
        // LDG's multiplicative penalty keeps a node with the block holding
        // more of its neighbors, so the two cliques end up separated and only
        // the single bridge edge is cut.
        let g = two_cliques();
        let p = run("ldg:2@eps=0", &g).unwrap();
        assert_eq!(p.edge_cut(&g), 1);
        assert!(p.is_balanced(0.0));
    }

    #[test]
    fn fennel_beats_hashing_on_structured_graph() {
        let g = oms_gen::planted_partition(400, 8, 0.15, 0.005, 5);
        let fennel = run("fennel:8", &g).unwrap();
        let hashing = run("hashing:8", &g).unwrap();
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
        let ldg = run("ldg:8", &g).unwrap();
        let hashing = run("hashing:8", &g).unwrap();
        assert!(ldg.edge_cut(&g) < hashing.edge_cut(&g));
    }

    #[test]
    fn all_baselines_respect_balance_on_random_graph() {
        let g = oms_gen::erdos_renyi_gnm(600, 3000, 9);
        for k in [2u32, 7, 16, 33] {
            for p in [
                run(&format!("fennel:{k}"), &g).unwrap(),
                run(&format!("ldg:{k}"), &g).unwrap(),
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
        for text in ["fennel:0", "ldg:0", "hashing:0"] {
            assert!(run(text, &g).is_err(), "{text}");
        }
        for text in ["fennel:0", "ldg:0"] {
            let err = RepairSink::new(&JobSpec::parse(text).unwrap(), 10, 11, 10).err();
            assert!(err.unwrap().to_string().contains("positive"), "{text}");
        }
    }

    #[test]
    fn only_jobs_with_a_flat_rule_build_a_repair_sink() {
        for text in ["fennel:4@eps=0.1", "ldg:4@drift=0.5,repair=boundary"] {
            let job = JobSpec::parse(text).unwrap();
            assert_eq!(RepairSink::new(&job, 10, 11, 10).unwrap().num_blocks(), 4);
        }
        for text in ["hashing:4", "oms:2:2", "nh-oms:8"] {
            let err = RepairSink::new(&JobSpec::parse(text).unwrap(), 10, 11, 10).err();
            let err = err.unwrap().to_string();
            assert!(
                err.contains("does not support incremental repair"),
                "{text}: {err}"
            );
        }
    }

    #[test]
    fn works_on_streams_with_isolated_nodes() {
        let g = CsrGraph::empty(20);
        let p = run("fennel:4", &g).unwrap();
        assert_eq!(p.num_nodes(), 20);
        assert!(p.is_balanced(0.03));
    }

    #[test]
    fn single_block_puts_everything_together() {
        let g = two_cliques();
        let p = run("fennel:1", &g).unwrap();
        assert_eq!(p.edge_cut(&g), 0);
        assert_eq!(p.used_blocks(), 1);
    }

    #[test]
    fn single_block_jobs_and_repair_run_on_the_root_is_leaf_tree() {
        // k = 1 is the one tree shape where the blocks are not the root's
        // children: the root is the block.
        let g = two_cliques();
        for spec in ["fennel:1", "ldg:1@passes=3"] {
            let p = run(spec, &g).unwrap();
            assert!(p.assignments().iter().all(|&b| b == 0), "{spec}");
            assert_eq!(p.block_weights(), &[10], "{spec}");
        }
        for objective in [FlatObjective::Fennel, FlatObjective::Ldg] {
            let epsilon = DEFAULT_EPSILON;
            let job = JobSpec::flat(objective.name(), 1);
            let mut sink = RepairSink::new(&job, 10, g.num_edges(), 10).unwrap();
            assert_eq!(sink.block_weights(), &[0]);
            crate::executor::run(&mut InMemoryStream::new(&g), &mut sink).unwrap();
            assert_eq!(sink.block_weights(), &[10]);
            sink.forget(3, 1);
            assert_eq!(
                (sink.block_weights(), sink.assignment(3)),
                (&[9][..], UNASSIGNED)
            );
            sink.retune(9, g.num_edges() - 4, 9);
            assert_eq!(sink.capacity(), Partition::capacity(9, 1, epsilon));
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
    fn penalties_match_a_from_scratch_evaluation_after_any_retune_sequence() {
        // `retune` rescales the kernel's penalties in place from the stored
        // load terms; every bit must equal `FlatObjective::base` of the live
        // load under the live parameters, whatever assignments and retunes
        // came before.
        let g = oms_gen::erdos_renyi_gnm(300, 1500, 4);
        let (k, n, epsilon) = (7u32, g.num_nodes(), DEFAULT_EPSILON);
        for objective in [FlatObjective::Fennel, FlatObjective::Ldg] {
            let job = JobSpec::flat(objective.name(), k);
            let mut sink = RepairSink::new(&job, n, g.num_edges(), n as u64).unwrap();
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
                let capacity = Partition::capacity(live_weight, k, epsilon);
                assert_eq!(sink.capacity(), capacity);
                let alpha = fennel_alpha(k, live_m, live_n);
                for (b, &load) in sink.block_weights().iter().enumerate() {
                    let expected = objective.base(load, capacity, alpha, FENNEL_GAMMA);
                    assert_eq!(
                        sink.kernel.block_bases()[b].to_bits(),
                        expected.to_bits(),
                        "{objective:?} step {step} block {b} (load {load})"
                    );
                }
            }
        }
    }
}
