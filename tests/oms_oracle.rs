//! Differential oracle for the scoring kernel: the OMS tree descent, and the
//! flat rules that are its depth-1 case.
//!
//! `oms-core`'s production descent is an amortised kernel (per-tree-node
//! penalty arena, one prefix-filtered neighbour gather, flat tree tables,
//! split select loop). This suite keeps the formulation it replaced — a
//! deliberately naive descent written straight from Algorithm 1 — as a
//! test-only reference and demands **identical assignments**. Production
//! is built only through `JobSpec::build`, like every other caller builds
//! it; the reference derives its tree, capacities, `α` and hashed layers
//! from the same spec, not from the object it checks. It covers `oms` on
//! hierarchies, `nh-oms` on `b`-section trees, `fennel` and `ldg` on the
//! one-layer tree `S = k`, and `hashing` — whose production sink does not
//! run the kernel — as the hashed layer of that tree:
//!
//! * every layer re-walks the streamed node's whole neighbourhood and climbs
//!   parent links to find which child a neighbour's block lies under
//!   (`O(deg · ℓ)` gathers, no path table);
//! * every child is scored directly (`conn − α·γ·c^{γ−1}` with one `powf`
//!   per child, `conn·(1 − c/L)`) into a fresh `Vec<Candidate>`;
//! * `select_by` is the branchy `Option`-carrying scan: feasible children
//!   only, higher score, then lighter, then lower index; all full → least
//!   relative load, first minimum.
//!
//! Both sides run under the same multi-pass engine
//! (`executor::run_restream`), so restreaming, convergence exit and the
//! revert-on-worsen guard are exercised too: on a fixed grid, and on
//! seeded random jobs whose failure message is the spec string `oms
//! partition --job` reproduces. A last leg rescores single nodes of a warm
//! `RepairSink` against the reference. CI runs this in release next to
//! `weighted_equivalence`.

use oms::core::executor;
use oms::core::scorer::hash_node;
use oms::core::{MultisectionTree, RepairSink};
use oms::graph::{EdgeWeight, NodeWeight, StreamedNode};
use oms::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;

const UNASSIGNED: BlockId = oms::core::UNASSIGNED;

// ------------------------------------------------------------------ oracle

/// A candidate block as seen by a scorer.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    weight: NodeWeight,
    capacity: NodeWeight,
    connectivity: EdgeWeight,
    alpha: f64,
}

/// Fennel: `ω(N(v) ∩ Vᵢ) − α·γ·c(Vᵢ)^{γ−1}`.
fn fennel_score(c: &Candidate, gamma: f64) -> f64 {
    c.connectivity as f64 - c.alpha * gamma * (c.weight as f64).powf(gamma - 1.0)
}

/// LDG: `ω(N(v) ∩ Vᵢ) · (1 − c(Vᵢ)/Lᵢ)`.
fn ldg_score(c: &Candidate) -> f64 {
    let remaining = 1.0 - c.weight as f64 / c.capacity.max(1) as f64;
    c.connectivity as f64 * remaining
}

/// Picks the best feasible candidate; `None` from the scan means every
/// candidate is full and the least relatively loaded one is used. The flag
/// reports whether that fallback fired.
fn select_by(
    candidates: &[Candidate],
    node_weight: NodeWeight,
    score: impl Fn(&Candidate) -> f64,
) -> (usize, bool) {
    let mut best: Option<(usize, f64, NodeWeight)> = None;
    for (i, c) in candidates.iter().enumerate() {
        if c.weight + node_weight > c.capacity {
            continue;
        }
        let s = score(c);
        match best {
            None => best = Some((i, s, c.weight)),
            Some((_, bs, bw)) => {
                if s > bs || (s == bs && c.weight < bw) {
                    best = Some((i, s, c.weight));
                }
            }
        }
    }
    if let Some((i, _, _)) = best {
        return (i, false);
    }
    let fallback = candidates
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            let la = a.weight as f64 / a.capacity.max(1) as f64;
            let lb = b.weight as f64 / b.capacity.max(1) as f64;
            la.partial_cmp(&lb).unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
        .unwrap_or(0);
    (fallback, true)
}

fn select_fennel(candidates: &[Candidate], node_weight: NodeWeight, gamma: f64) -> (usize, bool) {
    select_by(candidates, node_weight, |c| fennel_score(c, gamma))
}

fn select_ldg(candidates: &[Candidate], node_weight: NodeWeight) -> (usize, bool) {
    select_by(candidates, node_weight, ldg_score)
}

/// How a job's layers decide.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Rule {
    Fennel,
    Ldg,
    /// Every layer hashed: the `hashing` job.
    Hashing,
}

/// What Algorithm 1 needs of a job, read off its spec: the tree the
/// algorithm runs on and how each layer decides.
struct Job {
    tree: MultisectionTree,
    rule: Rule,
    /// Bottom layers decided by hashing (`hybrid=`).
    hashed_layers: usize,
}

impl Job {
    /// The job `spec` names: the flat rules on the depth-1 tree over their
    /// `k` blocks (a hierarchy is flattened), `oms` on its hierarchy or, for
    /// a flat `k`, on the `base=`-section tree like `nh-oms`.
    fn of(spec: &JobSpec) -> Job {
        let k = spec.num_blocks();
        let depth_one = MultisectionTree::flat(k, k.max(2));
        let b_section = MultisectionTree::flat(k, spec.base_b);
        let (tree, rule) = match (spec.algorithm.as_str(), &spec.shape) {
            ("hashing", _) => (depth_one, Rule::Hashing),
            ("ldg", _) => (depth_one, Rule::Ldg),
            ("fennel", _) => (depth_one, Rule::Fennel),
            ("oms", JobShape::Hierarchy(h)) => (MultisectionTree::from_hierarchy(h), Rule::Fennel),
            ("oms" | "nh-oms", _) => (b_section, Rule::Fennel),
            (other, _) => panic!("no reference for '{other}'"),
        };
        let hashed_layers = spec.hashing_bottom_layers;
        Job {
            tree,
            rule,
            hashed_layers,
        }
    }
}

/// Algorithm 1, naively, as a [`NodeSink`].
struct NaiveOms<'a> {
    job: Job,
    seed: u64,
    /// Fennel's `γ`, held at run time like production holds it: as a
    /// constant, `powf(w, γ − 1)` may compile to a square root that differs
    /// from `powf` in the last bit.
    gamma: f64,
    assignments: Vec<BlockId>,
    node_weights: Vec<NodeWeight>,
    tree_weights: Vec<NodeWeight>,
    capacities: Vec<NodeWeight>,
    alphas: Vec<f64>,
    restreaming: bool,
    fallbacks: &'a Cell<u64>,
}

impl<'a> NaiveOms<'a> {
    fn new(spec: &JobSpec, stream: &dyn NodeStream, fallbacks: &'a Cell<u64>) -> Self {
        let job = Job::of(spec);
        let n = stream.num_nodes();
        NaiveOms {
            seed: spec.seed,
            gamma: std::hint::black_box(1.5),
            assignments: vec![UNASSIGNED; n],
            node_weights: vec![0; n],
            tree_weights: vec![0; job.tree.num_nodes()],
            capacities: job
                .tree
                .capacities(stream.total_node_weight(), spec.epsilon),
            alphas: job.tree.alphas(stream.num_edges(), n),
            job,
            restreaming: false,
            fallbacks,
        }
    }

    fn tree(&self) -> &MultisectionTree {
        &self.job.tree
    }

    /// The ancestor of `block`'s leaf whose parent is `cur`, if the leaf lies
    /// strictly below `cur`.
    fn child_towards(&self, cur: u32, block: BlockId) -> Option<u32> {
        let mut node = self.tree().leaf_of_block(block);
        while let Some(parent) = self.tree().parent(node) {
            if parent == cur {
                return Some(node);
            }
            node = parent;
        }
        None
    }

    /// Whether the decision among children at `child_depth` is hashed:
    /// always for the `hashing` job, else for the configured number of
    /// layers counted from the bottom (the deepest decision is layer 1).
    fn uses_hashing(&self, child_depth: usize) -> bool {
        self.job.rule == Rule::Hashing
            || self.tree().max_depth() + 1 - child_depth <= self.job.hashed_layers
    }

    /// Adds (or removes) `weight` along the tree path of `block`.
    fn shift_path(&mut self, block: BlockId, weight: NodeWeight, add: bool) {
        let mut node = self.tree().leaf_of_block(block);
        while let Some(parent) = self.tree().parent(node) {
            if add {
                self.tree_weights[node as usize] += weight;
            } else {
                self.tree_weights[node as usize] -= weight;
            }
            node = parent;
        }
    }
}

impl NodeSink for NaiveOms<'_> {
    fn begin_pass(&mut self, pass: usize) {
        self.restreaming = pass > 0;
    }

    fn process(&mut self, node: StreamedNode<'_>) {
        let v = node.node as usize;
        if self.restreaming && self.assignments[v] != UNASSIGNED {
            self.shift_path(self.assignments[v], self.node_weights[v], false);
            self.assignments[v] = UNASSIGNED;
        }
        let mut cur = self.tree().root();
        while !self.tree().children(cur).is_empty() {
            let children: Vec<u32> = self.tree().children(cur).collect();
            let child_depth = self.tree().depth(cur) as usize + 1;
            let chosen_idx = if self.uses_hashing(child_depth) {
                let seed = self.seed ^ (cur as u64).wrapping_mul(0x9E3779B97F4A7C15);
                (hash_node(node.node, seed) % children.len() as u64) as usize
            } else {
                // One walk of the whole neighbourhood for this layer.
                let mut connectivity = vec![0; children.len()];
                for (u, w) in node.neighbors_weighted() {
                    let b = self.assignments[u as usize];
                    if b == UNASSIGNED {
                        continue;
                    }
                    if let Some(child) = self.child_towards(cur, b) {
                        connectivity[(child - children[0]) as usize] += w;
                    }
                }
                let candidates: Vec<Candidate> = children
                    .iter()
                    .zip(connectivity)
                    .map(|(&child, connectivity)| Candidate {
                        weight: self.tree_weights[child as usize],
                        capacity: self.capacities[child as usize],
                        connectivity,
                        alpha: self.alphas[child as usize],
                    })
                    .collect();
                let (idx, fell_back) = match self.job.rule {
                    Rule::Ldg => select_ldg(&candidates, node.weight),
                    _ => select_fennel(&candidates, node.weight, self.gamma),
                };
                self.fallbacks.set(self.fallbacks.get() + fell_back as u64);
                idx
            };
            cur = children[chosen_idx];
            self.tree_weights[cur as usize] += node.weight;
        }
        self.assignments[v] = self
            .tree()
            .leaf_block(cur)
            .expect("leaves carry a block id");
        self.node_weights[v] = node.weight;
    }

    fn assignments(&self) -> &[BlockId] {
        &self.assignments
    }

    fn num_blocks(&self) -> u32 {
        self.tree().num_blocks()
    }

    fn block_weights(&self, out: &mut Vec<NodeWeight>) {
        let leaves = (0..self.tree().num_blocks()).map(|b| self.tree().leaf_of_block(b));
        *out = leaves
            .map(|leaf| self.tree_weights[leaf as usize])
            .collect();
    }

    /// Re-sums the tree weights from the oracle's own node weights, and
    /// holds the loads the engine kept to them.
    fn restore(&mut self, assignments: &[BlockId], block_weights: &[NodeWeight]) {
        self.assignments.copy_from_slice(assignments);
        self.tree_weights.fill(0);
        for v in 0..self.assignments.len() {
            if self.assignments[v] != UNASSIGNED {
                self.shift_path(self.assignments[v], self.node_weights[v], true);
            }
        }
        let mut recounted = Vec::new();
        self.block_weights(&mut recounted);
        assert_eq!(recounted, block_weights, "the loads a revert restores");
    }
}

/// The reference's assignment for the job `spec` on `graph`, under the
/// engine options the job asks for: one untracked pass, or a tracked run
/// from two passes on.
fn oracle_assignments(spec: &JobSpec, graph: &CsrGraph, fallbacks: &Cell<u64>) -> Vec<BlockId> {
    let mut stream = InMemoryStream::new(graph);
    let mut sink = NaiveOms::new(spec, &stream, fallbacks);
    if spec.passes > 1 {
        let options = RestreamOptions::new(spec.passes, spec.convergence);
        executor::run_restream(&mut stream, &mut sink, &options).unwrap();
    } else {
        executor::run(&mut stream, &mut sink).unwrap();
    }
    sink.assignments
}

/// Production's assignment for the job `spec` on `graph`.
fn production_assignments(spec: &JobSpec, graph: &CsrGraph) -> Vec<BlockId> {
    let partitioner = spec.build().unwrap_or_else(|e| panic!("{spec}: {e}"));
    let partition = partitioner.partition(&mut InMemoryStream::new(graph));
    partition.unwrap().assignments().to_vec()
}

/// Production against the reference on one job; `context` says where the
/// graph came from.
fn assert_matches(spec: &JobSpec, graph: &CsrGraph, fallbacks: &Cell<u64>, context: &str) {
    let before = fallbacks.get();
    let expected = oracle_assignments(spec, graph, fallbacks);
    assert_eq!(
        production_assignments(spec, graph),
        expected,
        "--job '{spec}' on {context} ({} oracle fallbacks in this run)",
        fallbacks.get() - before
    );
}

// ------------------------------------------------------------------ matrix

/// The tree jobs of the grid: `oms` on hierarchies and `nh-oms`.
fn tree_jobs() -> Vec<JobSpec> {
    let mut out = Vec::new();
    // `2:128` and `3:101` have one level wide enough for the kernel's
    // champion select (101 children: an incomplete champion tree).
    for shape in ["2:2:2", "4:16:16", "3:5", "2:128", "3:101"] {
        out.push(JobSpec::parse(&format!("oms:{shape}")).unwrap());
    }
    for k in [1u32, 3, 13, 37] {
        for base in [2u32, 4] {
            out.push(JobSpec::flat("nh-oms", k).base_b(base));
        }
    }
    out
}

fn graphs() -> Vec<(String, CsrGraph)> {
    let mut out = Vec::new();
    for (name, graph) in [
        ("planted-240", planted_partition(240, 6, 0.2, 0.02, 5)),
        ("er-150", erdos_renyi_gnm(150, 600, 9)),
        // Sparse: isolated and degree-1 nodes, and k > n for 4:16:16.
        ("er-sparse-90", erdos_renyi_gnm(90, 70, 13)),
    ] {
        let weighted = WeightScheme::Full.apply(&graph, 7);
        assert!(!weighted.is_unweighted());
        out.push((format!("{name}/unit"), graph));
        out.push((format!("{name}/weighted"), weighted));
    }
    out
}

#[test]
fn production_kernel_matches_the_naive_descent() {
    let fallbacks = Cell::new(0u64);
    let mut runs = 0;
    for (graph_name, graph) in graphs() {
        for job in tree_jobs() {
            for hybrid in [0, 1] {
                for epsilon in [0.0, 0.03] {
                    for passes in [1usize, 3] {
                        let spec = job
                            .clone()
                            .hashing_bottom_layers(hybrid)
                            .epsilon(epsilon)
                            .seed(11)
                            .passes(passes);
                        assert_matches(&spec, &graph, &fallbacks, &graph_name);
                        runs += 1;
                    }
                }
            }
        }
    }
    assert_eq!(runs, 6 * 13 * 2 * 2 * 2);
    assert!(
        fallbacks.get() > 1_000,
        "the matrix must exercise the all-children-full fallback (fired {} times)",
        fallbacks.get()
    );
}

/// One pass through the one-shot entry point on a larger graph, with more
/// hashed layers than the kernel scores (`hybrid=3`: every layer).
#[test]
fn one_shot_entry_point_matches_the_naive_descent() {
    let graph = WeightScheme::Nodes.apply(&planted_partition(1_200, 8, 0.05, 0.004, 21), 3);
    let fallbacks = Cell::new(0u64);
    for text in [
        "oms:2:3:4",
        "oms:2:3:4@hybrid=2",
        "oms:2:3:4@hybrid=3",
        "oms:2:3:4@hybrid=5",
    ] {
        let spec = JobSpec::parse(text).unwrap();
        assert_matches(&spec, &graph, &fallbacks, "planted-1200/nodes");
    }
}

/// The flat jobs against the naive descent on the one-layer tree `S = k`
/// — the only reference `fennel`, `ldg` and `hashing` have that is not the
/// code under test.
#[test]
fn flat_rules_match_the_naive_descent_on_the_depth_one_tree() {
    let fallbacks = Cell::new(0u64);
    let mut runs = 0;
    for (graph_name, graph) in graphs() {
        // 1 is the root-is-leaf tree; 300 exceeds every n in `graphs()`.
        for k in [1u32, 2, 7, 33, 300] {
            for rule in ["fennel", "ldg", "hashing"] {
                for epsilon in [0.0, 0.03] {
                    for passes in [1usize, 3] {
                        let spec = JobSpec::flat(rule, k).epsilon(epsilon).passes(passes);
                        assert_matches(&spec, &graph, &fallbacks, &graph_name);
                        runs += 1;
                    }
                }
            }
        }
    }
    assert_eq!(runs, 6 * 5 * 3 * 2 * 2);
    assert!(
        fallbacks.get() > 100,
        "ε = 0 must exercise the all-blocks-full fallback (fired {} times)",
        fallbacks.get()
    );
}

/// The flat rules at `k` wide enough for the kernel's champion select, on graphs
/// with `n = 8k` nodes — so most decisions are made among blocks with room,
/// not by the all-full fallback — unit and weighted, under both objectives,
/// one pass and three.
#[test]
fn flat_rules_match_the_naive_descent_on_wide_sibling_groups() {
    let fallbacks = Cell::new(0u64);
    let mut runs = 0;
    for k in [64u32, 256, 1024] {
        let n = 8 * k as usize;
        let unit = erdos_renyi_gnm(n, 3 * n, u64::from(k));
        let weighted = WeightScheme::Full.apply(&unit, 7);
        for (graph_name, graph) in [("unit", &unit), ("weighted", &weighted)] {
            for rule in ["fennel", "ldg"] {
                for epsilon in [0.0, 0.03] {
                    for passes in [1usize, 3] {
                        let spec = JobSpec::flat(rule, k).epsilon(epsilon).passes(passes);
                        let context = format!("{graph_name} n={n}");
                        assert_matches(&spec, graph, &fallbacks, &context);
                        runs += 1;
                    }
                }
            }
        }
    }
    assert_eq!(runs, 3 * 2 * 2 * 2 * 2);
    assert!(
        fallbacks.get() > 0,
        "ε = 0 must reach the all-blocks-full fallback"
    );
}

/// Seeded random jobs against the reference: an ER or planted graph of at
/// most 300 nodes, unit or fully weighted, and any streaming job — a flat
/// `k ≤ 64` or `48 ≤ k ≤ 1024`, or one to four hierarchy factors of 2..=6,
/// one of them sometimes 48..=96, `eps` (0 included), `seed`, 1–4 passes,
/// `conv`, and for the tree jobs `base` (2..=6, or 48..=64) and `hybrid` up
/// to one past the tree's depth. Wide sibling groups take the kernel's
/// champion select, and restreamed nodes its deferred tree updates.
#[test]
fn random_jobs_match_the_naive_descent() {
    const DRAWS: u64 = 400;
    let fallbacks = Cell::new(0u64);
    let mut per_algorithm = std::collections::HashMap::<&str, usize>::new();
    let (mut hierarchies, mut multi_pass, mut hybrids, mut wide) = (0, 0, 0, 0);
    for draw in 0..DRAWS {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0AC1E ^ draw);
        let n = rng.gen_range(1..=300usize);
        let graph_seed = rng.gen_range(0..1_000u64);
        let (name, graph) = if rng.gen_bool(0.5) {
            let m = rng.gen_range(0..=3 * n);
            ("er", erdos_renyi_gnm(n, m, graph_seed))
        } else {
            let blocks = rng.gen_range(1..=8usize);
            (
                "planted",
                planted_partition(n, blocks, 0.2, 0.01, graph_seed),
            )
        };
        let (graph, weights) = if rng.gen_bool(0.5) {
            (WeightScheme::Full.apply(&graph, graph_seed), "weighted")
        } else {
            (graph, "unit")
        };
        let algorithm = ["hashing", "ldg", "fennel", "oms", "nh-oms"][rng.gen_range(0..5usize)];
        let shape = if rng.gen_bool(0.5) {
            let k = if rng.gen_bool(0.5) {
                rng.gen_range(1..=64u32)
            } else {
                rng.gen_range(48..=1024u32)
            };
            k.to_string()
        } else {
            let levels = rng.gen_range(1..=4usize);
            let wide_level = rng.gen_range(0..3 * levels);
            let factors: Vec<String> = (0..levels)
                .map(|level| {
                    let factor = if level == wide_level {
                        rng.gen_range(48..=96u32)
                    } else {
                        rng.gen_range(2..=6u32)
                    };
                    factor.to_string()
                })
                .collect();
            factors.join(":")
        };
        let epsilon = [0.0, 0.01, 0.03, 0.1, 0.5][rng.gen_range(0..5usize)];
        let passes = rng.gen_range(1..=4usize);
        let mut text = format!(
            "{algorithm}:{shape}@eps={epsilon},seed={},passes={passes}",
            rng.gen_range(0..1_000u64)
        );
        if passes > 1 {
            let convergence = [0.0, 0.001, 0.05][rng.gen_range(0..3usize)];
            text += &format!(",conv={convergence}");
        }
        if matches!(algorithm, "oms" | "nh-oms") {
            let base = if rng.gen_bool(0.25) {
                rng.gen_range(48..=64u32)
            } else {
                rng.gen_range(2..=6u32)
            };
            text += &format!(",base={base}");
            let depth = Job::of(&JobSpec::parse(&text).unwrap()).tree.max_depth();
            let hybrid = rng.gen_range(0..=depth + 1);
            text += &format!(",hybrid={hybrid}");
            hybrids += (hybrid > 0) as usize;
        }
        let spec = JobSpec::parse(&text).unwrap();
        let context = format!("{name} n={n} {weights} (seed {graph_seed}), draw {draw}");
        assert_matches(&spec, &graph, &fallbacks, &context);
        *per_algorithm.entry(algorithm).or_default() += 1;
        hierarchies += matches!(spec.shape, JobShape::Hierarchy(_)) as usize;
        multi_pass += (passes > 1) as usize;
        wide += (algorithm != "hashing" && has_wide_scored_group(&Job::of(&spec))) as usize;
    }
    assert!(
        per_algorithm.len() == 5 && per_algorithm.values().all(|&c| c >= 30),
        "{per_algorithm:?}"
    );
    assert!(hierarchies >= 60 && multi_pass >= 120 && hybrids >= 30 && wide >= 80);
    assert!(fallbacks.get() > 0);
}

/// Whether a scored layer of `job` decides among at least 48 children: a
/// group the kernel scores with its champion select.
fn has_wide_scored_group(job: &Job) -> bool {
    let tree = &job.tree;
    (0..tree.num_nodes() as u32).any(|t| {
        let child_depth = tree.depth(t) as usize + 1;
        let scored = tree.max_depth() + 1 - child_depth > job.hashed_layers;
        scored && tree.children(t).len() >= 48
    })
}

/// The streamed form of node `v` of `graph`.
fn streamed(graph: &CsrGraph, v: u32) -> StreamedNode<'_> {
    StreamedNode {
        node: v,
        weight: graph.node_weight(v),
        neighbors: graph.neighbors(v),
        edge_weights: graph.incident_edge_weights(v),
    }
}

/// A warm repair sink against the reference, one node at a time: on the
/// flat jobs at `k` = 32 (the narrow select), 64 and 1024 (the champion
/// select), unit and weighted, `RepairSink::rescore` first places every
/// node once, then re-scores seeded single nodes — the rescore of a repair
/// step, whose wide-group tree update is deferred — and each time picks the
/// block the naive sink picks for the same assignment and loads.
#[test]
fn repair_rescores_pick_the_naive_block() {
    for k in [32u32, 64, 1024] {
        let n = 8 * k as usize;
        let unit = erdos_renyi_gnm(n, 3 * n, u64::from(k) + 1);
        let weighted = WeightScheme::Full.apply(&unit, 5);
        for (graph_name, graph) in [("unit", &unit), ("weighted", &weighted)] {
            for rule in ["fennel", "ldg"] {
                let spec = JobSpec::flat(rule, k);
                let stream = InMemoryStream::new(graph);
                let fallbacks = Cell::new(0u64);
                let mut naive = NaiveOms::new(&spec, &stream, &fallbacks);
                let (m, total) = (graph.num_edges(), graph.total_node_weight());
                let mut repair = RepairSink::new(&spec, n, m, total).unwrap();
                let mut rng = ChaCha8Rng::seed_from_u64(u64::from(k));
                let warm = (0..n as u32).map(|v| (0, v));
                let steps = (0..n).map(|step| (step + 1, rng.gen_range(0..n as u32)));
                for (step, v) in warm.collect::<Vec<_>>().into_iter().chain(steps) {
                    naive.begin_pass(step.min(1));
                    naive.process(streamed(graph, v));
                    let expected = naive.assignments[v as usize];
                    assert_eq!(
                        repair.rescore(streamed(graph, v)),
                        expected,
                        "--job '{spec}' on {graph_name} n={n}: step {step}, node {v}"
                    );
                }
            }
        }
    }
}

/// The paper's identity, stated through the job grammar: a hierarchy with
/// the single layer `S = K` is the flat one-pass partitioner.
#[test]
fn fennel_is_nh_oms_with_base_k() {
    let graph = WeightScheme::Full.apply(&planted_partition(1_200, 8, 0.05, 0.004, 21), 3);
    for k in [8u32, 64, 1000] {
        for restream in ["", ",passes=3"] {
            let run = |spec: String| {
                let partitioner = JobSpec::parse(&spec).unwrap().build().unwrap();
                partitioner
                    .partition(&mut InMemoryStream::new(&graph))
                    .unwrap()
            };
            let flat = run(format!("fennel:{k}@eps=0.03{restream}"));
            let tree = run(format!("nh-oms:{k}@base={k}{restream}"));
            assert_eq!(flat.assignments(), tree.assignments(), "k={k}{restream}");
        }
    }
}

// -------------------------------------------- the oracle from first principles

fn cand(weight: NodeWeight, capacity: NodeWeight, connectivity: EdgeWeight) -> Candidate {
    Candidate {
        weight,
        capacity,
        connectivity,
        alpha: 1.0,
    }
}

#[test]
fn oracle_fennel_prefers_connectivity_penalises_weight_and_respects_capacity() {
    assert_eq!(
        select_fennel(&[cand(10, 100, 0), cand(10, 100, 5)], 1, 1.5).0,
        1
    );
    // Equal connectivity: the lighter block wins through the penalty.
    assert_eq!(
        select_fennel(&[cand(90, 100, 3), cand(10, 100, 3)], 1, 1.5).0,
        1
    );
    // Block 1 has more neighbours but is full.
    assert_eq!(
        select_fennel(&[cand(10, 100, 0), cand(100, 100, 9)], 1, 1.5),
        (0, false)
    );
    let c = Candidate {
        weight: 4,
        capacity: 100,
        connectivity: 7,
        alpha: 0.5,
    };
    assert!((fennel_score(&c, 1.5) - (7.0 - 0.5 * 1.5 * 2.0)).abs() < 1e-12);
}

#[test]
fn oracle_ldg_scales_by_remaining_capacity_and_breaks_ties_towards_lighter() {
    // Block 0: 4 neighbours but nearly full; block 1: 3 neighbours, empty.
    assert_eq!(select_ldg(&[cand(90, 100, 4), cand(0, 100, 3)], 1).0, 1);
    // No neighbours anywhere: all scores are 0, the lighter block wins.
    assert_eq!(
        select_ldg(&[cand(5, 100, 0), cand(2, 100, 0), cand(9, 100, 0)], 1).0,
        1
    );
    assert!((ldg_score(&cand(25, 100, 4)) - 3.0).abs() < 1e-12);
}

#[test]
fn oracle_fallback_picks_the_least_loaded_when_everything_is_full() {
    let full = [cand(100, 100, 0), cand(99, 100, 0), cand(100, 100, 5)];
    assert_eq!(select_fennel(&full, 5, 1.5), (1, true));
    assert_eq!(select_ldg(&full, 5), (1, true));
    // Equal relative loads: the first minimum wins.
    let tied = [cand(50, 50, 0), cand(100, 100, 0)];
    assert_eq!(select_ldg(&tied, 1), (0, true));
}
