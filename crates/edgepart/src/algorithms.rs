//! The streaming edge-partitioning algorithms: `e-hash`, `e-dbh` and the
//! HDRF-style `e-greedy`.
//!
//! All three share one crate-internal sink (`AlgoSink`) holding the
//! vertex-cut state — per-edge assignments, per-block edge loads, per-vertex
//! partial degrees and per-vertex replica multisets — and differ only in how
//! a block is chosen for the edge at hand:
//!
//! * **`e-hash`** hashes the edge key `(u, v)`: perfectly balanced in
//!   expectation and oblivious to structure — the quality floor every
//!   smarter partitioner must beat. A fixed point after one pass.
//! * **`e-dbh`** (degree-based hashing) hashes the endpoint with the
//!   *smaller* partial degree: a hub's edges follow the hashes of its many
//!   low-degree neighbors and spread across blocks, while each low-degree
//!   vertex keeps its edges together. On the first pass degrees are the
//!   partial counts observed so far; once a pass completes they are exact,
//!   so a second pass re-hashes under full degrees and a third pass is a
//!   fixed point.
//! * **`e-greedy`** (HDRF) scores every block `b` by replica affinity plus a
//!   λ-weighted balance term and assigns greedily:
//!
//!   ```text
//!   score(b) = g(u, b) + g(v, b) + λ · (maxload − load(b)) / (1 + maxload − minload)
//!   g(x, b)  = 1 + (1 − θ(x))   if b ∈ R(x), else 0,    θ(x) = δ(x) / (δ(u) + δ(v))
//!   ```
//!
//!   The degree-normalised affinity `1 + (1 − θ)` prefers co-locating the
//!   *lower*-degree endpoint's replicas (its few edges are cheap to keep
//!   together; the hub is replicated anyway — the highest-degree-replicated
//!   intuition HDRF is named after). Ties break towards the smallest block
//!   id, so the algorithm is deterministic.
//!
//!   The soft term alone cannot guarantee balance: affinity contributes at
//!   least 1 whenever an endpoint is already replicated, while the balance
//!   term is bounded by λ — on a connected graph streamed in vertex order
//!   every edge after the first has a replicated endpoint, so small λ would
//!   collapse the whole stream into one block. `e-greedy` therefore also
//!   enforces a **hard capacity** of `L_max = ⌈(1+ε)·m/k⌉` *edges* per
//!   block (`m` is announced by every stream up front, weighted or not):
//!   full blocks are excluded from selection, and since the capacities sum
//!   to more than `m` a feasible block always remains. λ then tunes the
//!   replication-vs-balance trade-off *inside* the feasible region.
//!
//! Multi-pass behavior re-streams the edges through the sink's pass loop
//! (rules in [`crate::engine`]): each edge is un-assigned (replica counts
//! and loads are decremented) and re-scored against the rest of the current
//! assignment.

use crate::api::EdgePartitionReport;
use crate::engine::{EdgePassStats, EdgeQuality};
use crate::partition::EdgePartition;
use oms_core::executor::{PassOutcome, PassTracker};
use oms_core::partition::UNASSIGNED;
use oms_core::{BlockId, JobSpec, PartitionError, RestreamOptions, Result};
use oms_graph::{EdgeWeight, GraphError, NodeId, NodeStream, SymmetryProof};
use oms_obs::{CounterId, Event, Stopwatch};

/// Which block-selection rule a [`StreamingEdgePartitioner`] applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EdgeAlgoKind {
    /// Uniform hashing of the edge key (`e-hash`).
    Hash,
    /// Degree-based hashing of the lower-degree endpoint (`e-dbh`).
    Dbh,
    /// HDRF-style greedy with the λ balance knob (`e-greedy`).
    Greedy,
}

impl EdgeAlgoKind {
    /// Registry name of the rule.
    fn name(self) -> &'static str {
        match self {
            EdgeAlgoKind::Hash => "e-hash",
            EdgeAlgoKind::Dbh => "e-dbh",
            EdgeAlgoKind::Greedy => "e-greedy",
        }
    }
}

/// An undirected edge as a pass hands it to the sink: both endpoints, the
/// smaller first, and the weight.
#[derive(Clone, Copy, Debug)]
struct Edge {
    u: NodeId,
    v: NodeId,
    weight: EdgeWeight,
}

/// A streaming edge partitioner (any of the three rules), as
/// [`build_edge_partitioner`](crate::build_edge_partitioner) builds it from
/// a [`JobSpec`]: the job's `k`, seed, λ, ε, pass budget and convergence
/// threshold, validated by the registry.
#[derive(Clone, Copy, Debug)]
pub struct StreamingEdgePartitioner {
    kind: EdgeAlgoKind,
    k: u32,
    seed: u64,
    lambda: f64,
    epsilon: f64,
    passes: usize,
    convergence: f64,
}

impl StreamingEdgePartitioner {
    /// The `kind` rule with the options of `spec`.
    pub(crate) fn new(kind: EdgeAlgoKind, spec: &JobSpec) -> Self {
        StreamingEdgePartitioner {
            kind,
            k: spec.num_blocks(),
            seed: spec.seed,
            lambda: spec.lambda,
            epsilon: spec.epsilon,
            passes: spec.passes,
            convergence: spec.convergence,
        }
    }

    /// Partitions the edges of the graph `stream` delivers — each at its
    /// smaller endpoint, up to the job's pass budget, rewinding the stream
    /// between passes — into an [`EdgePartitionReport`]. All quality numbers
    /// come from the sink's incrementally maintained state; no extra metric
    /// pass is paid. Adjacency lists that are not symmetric, or that hold a
    /// different number of edges than the stream announces, are a typed
    /// graph error.
    pub fn run(&self, stream: &mut dyn NodeStream) -> Result<EdgePartitionReport> {
        if self.k == 0 {
            return Err(PartitionError::InvalidConfig(
                "the number of blocks k must be positive".into(),
            ));
        }
        let clock = Stopwatch::start();
        let mut sink = AlgoSink::new(
            self.kind,
            self.k,
            self.seed,
            self.lambda,
            self.epsilon,
            stream.num_nodes(),
            stream.num_edges(),
        );
        let opts = RestreamOptions::new(self.passes, self.convergence);
        let trajectory = sink.restream(stream, &opts)?;
        let partition = sink.into_partition();
        Ok(EdgePartitionReport {
            algorithm: self.kind.name().to_string(),
            replication_factor: partition.replication_factor(),
            total_replicas: partition.total_replicas(),
            max_replicas: partition.max_replicas(),
            imbalance: partition.imbalance(),
            seconds: clock.seconds(),
            trajectory,
            partition,
        })
    }
}

/// SplitMix64-style finalizer shared by both hashing rules.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Hash of the undirected edge key `(u, v)` (with `u < v` on the stream the
/// key is already canonical).
fn hash_edge(u: NodeId, v: NodeId, seed: u64) -> u64 {
    mix(((u as u64) << 32 | v as u64).wrapping_add(seed))
}

/// Hash of a single vertex.
fn hash_vertex(x: NodeId, seed: u64) -> u64 {
    mix((x as u64).wrapping_add(seed))
}

/// The shared vertex-cut sink: assignment array, block loads, partial
/// degrees and per-vertex replica multisets (block → incident-edge count,
/// so un-assignment can shrink a replica set exactly).
struct AlgoSink {
    kind: EdgeAlgoKind,
    k: u32,
    seed: u64,
    lambda: f64,
    pass: usize,
    assignments: Vec<BlockId>,
    block_loads: Vec<u64>,
    /// Edges per block (`e-greedy`'s hard capacity counts edges, so it is
    /// enforceable even when the total edge *weight* is unknown up front).
    block_counts: Vec<u64>,
    /// `e-greedy`'s hard capacity `L_max = ⌈(1+ε)·m/k⌉` in edges.
    count_capacity: u64,
    degrees: Vec<u64>,
    replicas: Vec<Vec<(BlockId, u32)>>,
    total_replicas: u64,
    /// ω(E) of the edges pass 0 has seen, `None` once it passed
    /// `u64::MAX`. No block load exceeds it, so while it fits every load
    /// does.
    total_weight: Option<u64>,
}

impl AlgoSink {
    fn new(
        kind: EdgeAlgoKind,
        k: u32,
        seed: u64,
        lambda: f64,
        epsilon: f64,
        n: usize,
        m: usize,
    ) -> Self {
        AlgoSink {
            kind,
            k,
            seed,
            lambda,
            pass: 0,
            assignments: vec![UNASSIGNED; m],
            block_loads: vec![0; k as usize],
            block_counts: vec![0; k as usize],
            count_capacity: oms_core::Partition::capacity(m as u64, k.max(1), epsilon),
            degrees: vec![0; n],
            replicas: vec![Vec::new(); n],
            total_replicas: 0,
            total_weight: Some(0),
        }
    }

    fn has_replica(&self, x: NodeId, b: BlockId) -> bool {
        self.replicas[x as usize].iter().any(|&(rb, _)| rb == b)
    }

    fn add_replica(&mut self, x: NodeId, b: BlockId) {
        let set = &mut self.replicas[x as usize];
        match set.iter_mut().find(|(rb, _)| *rb == b) {
            Some((_, count)) => *count += 1,
            None => {
                set.push((b, 1));
                self.total_replicas += 1;
            }
        }
    }

    fn remove_replica(&mut self, x: NodeId, b: BlockId) {
        let set = &mut self.replicas[x as usize];
        let i = set
            .iter()
            .position(|&(rb, _)| rb == b)
            .expect("removing a replica that was never added");
        set[i].1 -= 1;
        if set[i].1 == 0 {
            set.swap_remove(i);
            self.total_replicas -= 1;
        }
    }

    fn assign(&mut self, index: usize, edge: Edge, b: BlockId) {
        self.assignments[index] = b;
        self.block_loads[b as usize] += edge.weight;
        self.block_counts[b as usize] += 1;
        self.add_replica(edge.u, b);
        self.add_replica(edge.v, b);
    }

    fn unassign(&mut self, index: usize, edge: Edge) {
        let b = self.assignments[index];
        self.assignments[index] = UNASSIGNED;
        self.block_loads[b as usize] -= edge.weight;
        self.block_counts[b as usize] -= 1;
        self.remove_replica(edge.u, b);
        self.remove_replica(edge.v, b);
    }

    /// HDRF block selection (see the [module docs](self)).
    fn select_greedy(&self, edge: Edge) -> BlockId {
        let du = self.degrees[edge.u as usize] as f64;
        let dv = self.degrees[edge.v as usize] as f64;
        // Both degrees count the current edge, so du + dv ≥ 2.
        let theta_u = du / (du + dv);
        let theta_v = 1.0 - theta_u;
        let min_load = self.block_loads.iter().copied().min().unwrap_or(0);
        let max_load = self.block_loads.iter().copied().max().unwrap_or(0);
        let denom = 1.0 + (max_load - min_load) as f64;
        let mut best = 0 as BlockId;
        let mut best_score = f64::NEG_INFINITY;
        for b in 0..self.k {
            // The hard capacity: a full block is not a candidate. The
            // capacities sum to more than m, so some block always remains.
            if self.block_counts[b as usize] >= self.count_capacity {
                continue;
            }
            let mut score = self.lambda * (max_load - self.block_loads[b as usize]) as f64 / denom;
            if self.has_replica(edge.u, b) {
                score += 1.0 + (1.0 - theta_u);
            }
            if self.has_replica(edge.v, b) {
                score += 1.0 + (1.0 - theta_v);
            }
            if score > best_score {
                best_score = score;
                best = b;
            }
        }
        best
    }

    fn select(&self, edge: Edge) -> BlockId {
        match self.kind {
            EdgeAlgoKind::Hash => (hash_edge(edge.u, edge.v, self.seed) % self.k as u64) as BlockId,
            EdgeAlgoKind::Dbh => {
                let du = self.degrees[edge.u as usize];
                let dv = self.degrees[edge.v as usize];
                let key = match du.cmp(&dv) {
                    std::cmp::Ordering::Less => edge.u,
                    std::cmp::Ordering::Greater => edge.v,
                    std::cmp::Ordering::Equal => edge.u.min(edge.v),
                };
                (hash_vertex(key, self.seed) % self.k as u64) as BlockId
            }
            EdgeAlgoKind::Greedy => self.select_greedy(edge),
        }
    }

    /// Consumes the next edge of the stream; `index` is its stream
    /// position, stable across passes and sources.
    fn process(&mut self, index: usize, edge: Edge) {
        if self.pass == 0 {
            // From the edge that takes ω(E) past `u64::MAX` on, no edge is
            // placed, and the pass ends in a typed error.
            self.total_weight = self.total_weight.and_then(|t| t.checked_add(edge.weight));
            if self.total_weight.is_none() {
                return;
            }
            // Partial degrees, counted up to and including the current
            // edge; after the first pass they are exact and stay fixed.
            self.degrees[edge.u as usize] += 1;
            self.degrees[edge.v as usize] += 1;
        } else {
            self.unassign(index, edge);
        }
        let b = self.select(edge);
        self.assign(index, edge, b);
    }

    /// The pass loop: up to `opts.passes` passes over the stream, which is
    /// rewound before every pass but the first, with every verdict taken
    /// from [`PassTracker`] (rules in [`crate::engine`]). Returns the
    /// trajectory of the accepted passes; the sink is left on the last one.
    fn restream(
        &mut self,
        stream: &mut dyn NodeStream,
        opts: &RestreamOptions,
    ) -> Result<Vec<EdgePassStats>> {
        let m = stream.num_edges();
        let passes = opts.passes.max(1);
        let mut tracker = PassTracker::new(*opts);
        let mut trajectory: Vec<EdgePassStats> = Vec::new();

        for pass in 0..passes {
            if pass > 0 {
                stream.reset()?;
            }
            self.pass = pass;
            let clock = Stopwatch::start();
            drive_pass(stream, m, &mut |index, edge| self.process(index, edge))?;
            let seconds = clock.seconds();
            if self.total_weight.is_none() {
                return Err(GraphError::Invalid(
                    "the total edge weight ω(E) exceeds u64::MAX".into(),
                )
                .into());
            }

            let quality = self.quality();
            let imbalance = quality.imbalance(self.k);
            let replicas = quality.total_replicas;
            let moved = tracker.moved(&self.assignments);
            let last_pass = pass + 1 == passes;
            match tracker.observe(
                last_pass,
                moved,
                seconds,
                replicas,
                imbalance,
                &self.assignments,
            ) {
                PassOutcome::Revert => {
                    // The pass overshot: replay the stream once, re-applying
                    // the best assignment, so the returned state matches the
                    // last recorded trajectory entry.
                    stream.reset()?;
                    self.clear_assignments();
                    let best = tracker.best_assignment();
                    drive_pass(stream, m, &mut |index, edge| {
                        self.assign(index, edge, best[index])
                    })?;
                    oms_obs::observe(Event::EdgePassReverted {
                        pass: pass as u32,
                        kept_replicas: tracker.best_cut().unwrap_or(replicas),
                    });
                    break;
                }
                outcome => {
                    oms_obs::observe(Event::EdgePassEnd {
                        pass: pass as u32,
                        total_replicas: replicas,
                        moved: moved as u64,
                    });
                    oms_obs::counter_add(CounterId::EdgePasses, 1);
                    trajectory.push(EdgePassStats {
                        pass,
                        total_replicas: replicas,
                        replication_factor: quality.replication_factor(),
                        imbalance,
                        moved,
                        seconds,
                    });
                    if outcome == PassOutcome::Stop {
                        break;
                    }
                }
            }
        }
        Ok(trajectory)
    }

    /// The sink's current quality (replicas, loads), maintained
    /// incrementally.
    fn quality(&self) -> EdgeQuality {
        let covered = self.replicas.iter().filter(|r| !r.is_empty()).count() as u64;
        let max_replicas = self
            .replicas
            .iter()
            .map(|r| r.len() as u32)
            .max()
            .unwrap_or(0);
        EdgeQuality {
            total_replicas: self.total_replicas,
            covered_vertices: covered,
            max_replicas,
            max_load: self.block_loads.iter().copied().max().unwrap_or(0),
            total_load: self.block_loads.iter().sum(),
        }
    }

    /// Clears all assignment-derived state before a restore replay (the
    /// degrees stay: they are exact after the first pass).
    fn clear_assignments(&mut self) {
        self.assignments.fill(UNASSIGNED);
        self.block_loads.fill(0);
        self.block_counts.fill(0);
        for set in &mut self.replicas {
            set.clear();
        }
        self.total_replicas = 0;
    }

    /// Consumes the sink into the finished [`EdgePartition`].
    fn into_partition(self) -> EdgePartition {
        let quality = self.quality();
        EdgePartition::new(
            self.k,
            self.assignments,
            self.block_loads,
            quality.total_replicas,
            quality.covered_vertices,
            quality.max_replicas,
        )
    }
}

/// One full pass of `stream` through `f`: every undirected edge once, at its
/// smaller endpoint (`u < v`), numbered by its position in the pass — a pure
/// function of the node order, so identical across every source that streams
/// the same nodes and stable across passes.
///
/// The pass verifies that it delivered exactly the announced number of edges
/// (the assignment array could not address more) and then proves the
/// adjacency lists symmetric ([`SymmetryProof::walk_entry`]) — unless the
/// stream proves its passes itself ([`NodeStream::proves_symmetry`]) and
/// has failed this one already: an edge listed only from one endpoint would
/// otherwise be placed once or never, whatever the count says.
fn drive_pass(
    stream: &mut dyn NodeStream,
    expected_edges: usize,
    f: &mut dyn FnMut(usize, Edge),
) -> Result<()> {
    let mut index = 0usize;
    let prove = !stream.proves_symmetry();
    let mut proof = SymmetryProof::default();
    stream.for_each_node(&mut |node| {
        let u = node.node;
        for (v, weight) in node.neighbors_weighted() {
            if prove {
                proof.walk_entry(u, v, weight);
            }
            if u < v {
                if index < expected_edges {
                    f(index, Edge { u, v, weight });
                }
                index += 1;
            }
        }
    })?;
    if index != expected_edges {
        return Err(GraphError::CountMismatch {
            what: "edges (each undirected edge streamed once)",
            expected: expected_edges as u64,
            found: index as u64,
        }
        .into());
    }
    proof.check()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_edge_partitioner;
    use oms_graph::io::{write_stream_file, DiskStream};
    use oms_graph::{CsrGraph, InMemoryStream, StreamedNode};

    const KINDS: [&str; 3] = ["e-hash", "e-dbh", "e-greedy"];

    fn star_plus_path() -> CsrGraph {
        // Node 0 is a hub; 6..9 form a path appended to keep some
        // low-degree structure.
        CsrGraph::from_edges(
            10,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (6, 7),
                (7, 8),
                (8, 9),
                (5, 6),
            ],
        )
        .unwrap()
    }

    /// The report of `job` over the edges of `stream`.
    fn report(job: &str, stream: &mut dyn NodeStream) -> Result<EdgePartitionReport> {
        build_edge_partitioner(&JobSpec::parse(job).unwrap())?.run(stream)
    }

    fn run(job: &str, g: &CsrGraph) -> EdgePartitionReport {
        report(job, &mut InMemoryStream::new(g)).unwrap_or_else(|e| panic!("{job}: {e}"))
    }

    /// Re-measures the replication summary of an assignment of `g`'s edges,
    /// in [`CsrGraph::edges`] order (the order a natural-order pass hands
    /// them out), from scratch — a cross-check of the sink's incremental
    /// state that shares no code with it.
    fn recount_replicas(g: &CsrGraph, assignments: &[BlockId], k: u32) -> EdgeQuality {
        assert_eq!(assignments.len(), g.num_edges());
        let mut replicas: Vec<Vec<BlockId>> = vec![Vec::new(); g.num_nodes()];
        let mut block_loads = vec![0u64; k as usize];
        for ((u, v, w), &b) in g.edges().zip(assignments) {
            block_loads[b as usize] += w;
            for x in [u, v] {
                let set = &mut replicas[x as usize];
                if !set.contains(&b) {
                    set.push(b);
                }
            }
        }
        EdgeQuality {
            total_replicas: replicas.iter().map(|r| r.len() as u64).sum(),
            covered_vertices: replicas.iter().filter(|r| !r.is_empty()).count() as u64,
            max_replicas: replicas.iter().map(|r| r.len() as u32).max().unwrap_or(0),
            max_load: block_loads.iter().copied().max().unwrap_or(0),
            total_load: block_loads.iter().sum(),
        }
    }

    /// Hand-written adjacency lists of nodes `0..lists.len()` under a header
    /// of `m` edges, every entry `(neighbor, weight)`.
    struct Lists {
        m: usize,
        lists: Vec<Vec<(NodeId, EdgeWeight)>>,
    }

    fn lists(m: usize, lists: &[&[(NodeId, EdgeWeight)]]) -> Lists {
        let lists = lists.iter().map(|list| list.to_vec()).collect();
        Lists { m, lists }
    }

    impl NodeStream for Lists {
        fn num_nodes(&self) -> usize {
            self.lists.len()
        }
        fn num_edges(&self) -> usize {
            self.m
        }
        fn total_node_weight(&self) -> u64 {
            self.lists.len() as u64
        }
        fn for_each_node(&mut self, f: &mut dyn FnMut(StreamedNode<'_>)) -> oms_graph::Result<()> {
            for (node, list) in (0..).zip(&self.lists) {
                let (neighbors, edge_weights): (Vec<_>, Vec<_>) = list.iter().copied().unzip();
                f(StreamedNode {
                    node,
                    weight: 1,
                    neighbors: &neighbors,
                    edge_weights: &edge_weights,
                });
            }
            Ok(())
        }
    }

    #[test]
    fn every_algorithm_assigns_every_edge() {
        // A weighted graph too: every edge's weight reaches its block.
        let mut weighted = oms_graph::GraphBuilder::new(4);
        for (u, v, w) in [(0, 1, 7), (1, 2, 9), (2, 3, 2), (3, 0, 5)] {
            weighted.add_weighted_edge(u, v, w).unwrap();
        }
        for g in [star_plus_path(), weighted.build()] {
            for kind in KINDS {
                let partition = run(&format!("{kind}:3"), &g).partition;
                assert_eq!(partition.num_edges(), g.num_edges());
                assert!(partition.validate());
                assert_eq!(partition.total_load(), g.total_edge_weight());
                assert!(partition.replication_factor() >= 1.0);
            }
        }
    }

    #[test]
    fn an_edge_stream_longer_than_its_header_is_a_typed_error() {
        // Node 0 lists node 1 twice and node 1 lists nobody, under a header
        // of one edge: the pass hands out each edge from its smaller
        // endpoint, so it delivers two.
        let one_sided = || lists(1, &[&[(1, 1), (1, 1)], &[]]);
        for kind in KINDS {
            let err = report(&format!("{kind}:2"), &mut one_sided())
                .unwrap_err()
                .to_string();
            let expected = "header implies 1 edges (each undirected edge streamed once) but the \
                            body holds 2";
            assert!(err.contains(expected), "{kind}: {err}");
        }
    }

    #[test]
    fn one_sided_adjacency_lists_are_a_typed_error() {
        // Node 0 lists 1 and 2, node 3 lists 0 and 1, nobody lists them
        // back: 2m entries and m of them with `u < v`, so both counts agree
        // with the header, and only the symmetry proof refuses the lists.
        let one_sided = || lists(2, &[&[(1, 1), (2, 1)], &[], &[], &[(0, 1), (1, 1)]]);
        for kind in KINDS {
            for passes in [1, 3] {
                let job = format!("{kind}:2@passes={passes}");
                let err = report(&job, &mut one_sided()).unwrap_err();
                assert!(
                    matches!(&err, PartitionError::Graph(GraphError::Invalid(message))
                        if message.contains("not symmetric")),
                    "{job}: {err}"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = star_plus_path();
        // A disk stream run twice, rewound in between, gives the same pass.
        let path = std::env::temp_dir().join(format!(
            "oms-edgepart-deterministic-{}.oms",
            std::process::id()
        ));
        write_stream_file(&g, &path).unwrap();
        let mut disk = DiskStream::open(&path).unwrap();
        for kind in KINDS {
            let job = format!("{kind}:4@seed=9");
            let first = run(&job, &g).partition;
            assert_eq!(first, run(&job, &g).partition, "{kind}");
            disk.reset().unwrap();
            assert_eq!(first, report(&job, &mut disk).unwrap().partition, "{kind}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn k_equals_one_gives_replication_factor_one() {
        let g = star_plus_path();
        for kind in KINDS {
            let partition = run(&format!("{kind}:1"), &g).partition;
            assert!(
                (partition.replication_factor() - 1.0).abs() < 1e-12,
                "{kind}"
            );
            assert_eq!(partition.max_replicas(), 1);
        }
    }

    #[test]
    fn greedy_keeps_low_degree_vertices_together() {
        // On the path 6-7-8-9 HDRF should not scatter the edges of a
        // degree-2 vertex without need: its replication factor must beat
        // plain hashing on this structure-rich graph.
        let g = star_plus_path();
        let greedy = run("e-greedy:3", &g);
        let hash = run("e-hash:3", &g);
        assert!(
            greedy.total_replicas <= hash.total_replicas,
            "greedy {} vs hash {}",
            greedy.total_replicas,
            hash.total_replicas
        );
    }

    #[test]
    fn hash_reaches_its_fixed_point_after_one_extra_pass() {
        let g = star_plus_path();
        let report = run("e-hash:4@passes=6", &g);
        let trajectory = &report.trajectory;
        assert!(trajectory.len() <= 2, "{trajectory:?}");
        assert_eq!(trajectory.last().unwrap().moved, 0);
        assert_eq!(report.partition, run("e-hash:4", &g).partition);
    }

    #[test]
    fn multi_pass_trajectory_is_non_increasing_and_ends_on_the_result() {
        let g = oms_gen::barabasi_albert(300, 4, 11);
        for kind in ["e-dbh", "e-greedy"] {
            let report = run(&format!("{kind}:8@passes=4"), &g);
            let trajectory = &report.trajectory;
            assert!(!trajectory.is_empty());
            assert!(
                trajectory
                    .windows(2)
                    .all(|w| w[1].total_replicas <= w[0].total_replicas),
                "{kind}: {trajectory:?}"
            );
            assert_eq!(
                trajectory.last().unwrap().total_replicas,
                report.partition.total_replicas(),
                "{kind}: the trajectory must end on the returned assignment"
            );
        }
    }

    #[test]
    fn incremental_state_agrees_with_a_cold_recount() {
        let g = oms_gen::rmat_graph(9, 4096, oms_gen::RmatParams::GRAPH500, 5);
        for kind in KINDS {
            let partition = run(&format!("{kind}:8@passes=2"), &g).partition;
            let recount = recount_replicas(&g, partition.assignments(), 8);
            assert_eq!(recount.total_replicas, partition.total_replicas(), "{kind}");
            assert_eq!(recount.max_replicas, partition.max_replicas(), "{kind}");
            assert_eq!(
                recount.covered_vertices,
                partition.covered_vertices(),
                "{kind}"
            );
            assert_eq!(recount.total_load, partition.total_load(), "{kind}");
        }
    }

    #[test]
    fn lambda_zero_still_respects_the_hard_capacity() {
        // With λ = 0 the soft balance term vanishes and ties break to the
        // lowest block id — but the hard capacity L_max = ⌈(1+ε)·m/k⌉
        // still forces the stream to spill into fresh blocks instead of
        // collapsing into block 0.
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let partition = run("e-greedy:4@lambda=0", &g).partition;
        // m = 2, k = 4 → capacity 1: the two edges must use two blocks.
        assert_eq!(partition.assignments(), &[0, 1]);
    }

    #[test]
    fn greedy_never_exceeds_the_hard_capacity() {
        let g = oms_gen::barabasi_albert(400, 3, 7);
        for lambda in [0.0, 0.1, 1.0, 10.0] {
            for passes in [1, 3] {
                let job = format!("e-greedy:8@lambda={lambda},passes={passes}");
                let partition = run(&job, &g).partition;
                let capacity = oms_core::Partition::capacity(g.num_edges() as u64, 8, 0.03);
                let mut counts = [0u64; 8];
                for &b in partition.assignments() {
                    counts[b as usize] += 1;
                }
                let max = counts.iter().copied().max().unwrap();
                assert!(
                    max <= capacity,
                    "{job}: max block count {max} > L_max {capacity}"
                );
            }
        }
    }

    #[test]
    fn an_edgeless_graph_stops_after_pass_zero() {
        // Zero replicas is the zero cut of the node engine's rule: nothing
        // is left to improve, so no second pass runs.
        let g = CsrGraph::empty(6);
        for kind in KINDS {
            let report = run(&format!("{kind}:3@passes=4"), &g);
            let trajectory = &report.trajectory;
            assert_eq!(report.partition.num_edges(), 0, "{kind}");
            assert_eq!(trajectory.len(), 1, "{kind}: {trajectory:?}");
            assert_eq!((trajectory[0].total_replicas, trajectory[0].moved), (0, 0));
        }
    }

    #[test]
    fn an_edge_weight_sum_past_u64_max_is_a_typed_error() {
        const HALF: u64 = 1 << 63;
        // The path 0 - 1 - 2 with edge weights `w01` and `w12`.
        let path = |w01, w12| lists(2, &[&[(1, w01)], &[(0, w01), (2, w12)], &[(1, w12)]]);
        for kind in KINDS {
            for (k, passes) in [(1, 1), (2, 1), (2, 3)] {
                let job = format!("{kind}:{k}@passes={passes}");
                let err = report(&job, &mut path(HALF, HALF)).unwrap_err();
                assert!(
                    matches!(&err, PartitionError::Graph(GraphError::Invalid(message))
                        if message == "the total edge weight ω(E) exceeds u64::MAX"),
                    "{job}: {err}"
                );
                // Exactly u64::MAX still fits, in any block.
                let fits = report(&job, &mut path(HALF, HALF - 1)).unwrap();
                assert_eq!(fits.partition.total_load(), u64::MAX, "{job}");
            }
        }
    }

    #[test]
    fn an_edge_stream_that_miscounts_its_edges_is_a_graph_error() {
        // One edge, listed from both endpoints, under a header of two.
        let short = || lists(2, &[&[(1, 1)], &[(0, 1)]]);
        for kind in KINDS {
            for passes in [1, 2] {
                let err = report(&format!("{kind}:2@passes={passes}"), &mut short()).unwrap_err();
                assert!(
                    matches!(
                        err,
                        PartitionError::Graph(GraphError::CountMismatch {
                            expected: 2,
                            found: 1,
                            ..
                        })
                    ),
                    "{kind}, passes={passes}: {err}"
                );
            }
        }
    }

    #[test]
    fn zero_blocks_is_a_typed_error() {
        // The registry's validation refuses k = 0; a row's constructor
        // called past it still does not divide by zero.
        let spec = JobSpec::flat("e-hash", 0);
        let build = crate::EDGE_ALGORITHMS.find("e-hash").unwrap().build;
        let err = build(&spec)
            .unwrap()
            .run(&mut InMemoryStream::new(&star_plus_path()))
            .unwrap_err();
        assert!(err.to_string().contains("positive"), "{err}");
    }
}
