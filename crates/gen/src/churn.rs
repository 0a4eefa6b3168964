//! Seeded churn-trace generation for the dynamic-maintenance workloads.
//!
//! A churn trace is a sequence of [`DeltaBatch`]es — edge/node inserts and
//! deletes with a checkpoint after every batch — that is *valid by
//! construction* against a given start graph: no duplicate edge inserts, no
//! deletes of absent edges, no references to dead nodes. The generator
//! mirrors the evolving graph internally, so traces can be written to disk
//! ([`oms_graph::write_delta_trace`]) and replayed later without any
//! validity re-checking.
//!
//! Three churn shapes cover the dynamic-graph literature's usual suspects:
//!
//! * [`ChurnScheme::Uniform`] — endpoints chosen uniformly among live
//!   nodes; the "background noise" workload.
//! * [`ChurnScheme::CommunityDrift`] — nodes belong to `communities` (by id
//!   modulo), and each batch concentrates inserts on a rotating pair of
//!   communities while deleting inside the pair's first member: community
//!   structure migrates over time, the hardest case for a partition that
//!   wants to stay put.
//! * [`ChurnScheme::Burst`] — each batch hammers a sliding window of the id
//!   space (a hotspot), modeling localized update storms.
//!
//! Everything is driven by one `ChaCha8` stream per trace, so a fixed
//! `(graph, config)` pair reproduces the identical trace on every platform.

use oms_graph::{CsrGraph, DeltaBatch, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How churn endpoints are chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChurnScheme {
    /// Uniformly random live endpoints.
    Uniform,
    /// Inserts between a rotating pair of id-modulo communities, deletes
    /// inside the pair's first member.
    CommunityDrift {
        /// Number of communities (≥ 2).
        communities: u32,
    },
    /// All operations inside a sliding id window.
    Burst {
        /// Window size as a fraction of the id space (clamped to ≥ 2
        /// nodes).
        window: f64,
    },
}

/// Parameters of a churn trace.
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Endpoint-selection scheme.
    pub scheme: ChurnScheme,
    /// Number of batches (one checkpoint after each).
    pub batches: usize,
    /// Operations attempted per batch (an attempt is skipped when no valid
    /// operation of the drawn kind exists, so batches can come up slightly
    /// short).
    pub ops_per_batch: usize,
    /// Fraction of *edge* operations that are inserts (the rest delete).
    pub insert_fraction: f64,
    /// Fraction of operations that are *node* inserts/deletes instead of
    /// edge operations.
    pub node_churn_fraction: f64,
    /// RNG seed; together with the start graph it fully determines the
    /// trace.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            scheme: ChurnScheme::Uniform,
            batches: 8,
            ops_per_batch: 64,
            insert_fraction: 0.6,
            node_churn_fraction: 0.1,
            seed: 0,
        }
    }
}

/// Never delete nodes below this live count — a churned-to-nothing graph
/// makes no workload.
const MIN_LIVE_NODES: usize = 8;
/// Retries when rejection-sampling an endpoint with a constraint, an absent
/// pair or an edge; shared with [`crate::temporal`].
pub(crate) const RETRIES: usize = 64;

/// The generator's mirror of the evolving graph: adjacency, liveness and an
/// O(1)-sample list of live ids. Shared with the temporal generators in
/// [`crate::temporal`].
pub(crate) struct Mirror {
    pub(crate) nbrs: Vec<Vec<NodeId>>,
    pub(crate) alive: Vec<bool>,
    /// Live ids, unordered; `pos[v]` is v's index in it (usize::MAX when
    /// dead).
    pub(crate) live_ids: Vec<NodeId>,
    pos: Vec<usize>,
}

impl Mirror {
    pub(crate) fn new(graph: &CsrGraph) -> Self {
        let n = graph.num_nodes();
        Mirror {
            nbrs: (0..n)
                .map(|v| graph.neighbors(v as NodeId).to_vec())
                .collect(),
            alive: vec![true; n],
            live_ids: (0..n as NodeId).collect(),
            pos: (0..n).collect(),
        }
    }

    pub(crate) fn id_space(&self) -> usize {
        self.nbrs.len()
    }

    pub(crate) fn sample_live(&self, rng: &mut ChaCha8Rng) -> Option<NodeId> {
        if self.live_ids.is_empty() {
            return None;
        }
        Some(self.live_ids[rng.gen_range(0..self.live_ids.len())])
    }

    /// Rejection-samples a live node satisfying `want`; after [`RETRIES`]
    /// misses, any live node. `None` when no node is live.
    pub(crate) fn sample_live_where(
        &self,
        rng: &mut ChaCha8Rng,
        want: impl Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        for _ in 0..RETRIES {
            let v = self.sample_live(rng)?;
            if want(v) {
                return Some(v);
            }
        }
        self.sample_live(rng)
    }

    /// Draws endpoint pairs, `u` under `u_in` and `v` under `v_in` (see
    /// [`Mirror::sample_live_where`]), until one is an absent, non-loop
    /// edge; `None` after [`RETRIES`] misses or when no node is live.
    pub(crate) fn absent_pair(
        &self,
        rng: &mut ChaCha8Rng,
        u_in: impl Fn(NodeId) -> bool,
        v_in: impl Fn(NodeId) -> bool,
    ) -> Option<(NodeId, NodeId)> {
        for _ in 0..RETRIES {
            let u = self.sample_live_where(rng, &u_in)?;
            let v = self.sample_live_where(rng, &v_in)?;
            if u != v && !self.has_edge(u, v) {
                return Some((u, v));
            }
        }
        None
    }

    pub(crate) fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.nbrs[u as usize].contains(&v)
    }

    pub(crate) fn insert_edge(&mut self, u: NodeId, v: NodeId) {
        self.nbrs[u as usize].push(v);
        self.nbrs[v as usize].push(u);
    }

    pub(crate) fn delete_edge(&mut self, u: NodeId, v: NodeId) {
        for (a, b) in [(u, v), (v, u)] {
            let list = &mut self.nbrs[a as usize];
            let i = list.iter().position(|&x| x == b).expect("mirror edge");
            list.swap_remove(i);
        }
    }

    pub(crate) fn insert_node(&mut self) -> NodeId {
        let id = self.nbrs.len() as NodeId;
        self.nbrs.push(Vec::new());
        self.alive.push(true);
        self.pos.push(self.live_ids.len());
        self.live_ids.push(id);
        id
    }

    pub(crate) fn delete_node(&mut self, v: NodeId) -> Vec<NodeId> {
        let removed = std::mem::take(&mut self.nbrs[v as usize]);
        for &nbr in &removed {
            let list = &mut self.nbrs[nbr as usize];
            let i = list.iter().position(|&x| x == v).expect("mirror edge");
            list.swap_remove(i);
        }
        self.alive[v as usize] = false;
        let slot = self.pos[v as usize];
        self.live_ids.swap_remove(slot);
        if let Some(&moved) = self.live_ids.get(slot) {
            self.pos[moved as usize] = slot;
        }
        self.pos[v as usize] = usize::MAX;
        removed
    }
}

/// Samples an insert endpoint pair per the scheme; `None` when rejection
/// sampling found no absent, non-loop pair.
fn sample_insert(
    mirror: &Mirror,
    scheme: ChurnScheme,
    batch_no: usize,
    rng: &mut ChaCha8Rng,
) -> Option<(NodeId, NodeId)> {
    match scheme {
        ChurnScheme::Uniform => mirror.absent_pair(rng, |_| true, |_| true),
        ChurnScheme::CommunityDrift { communities } => {
            drift_edge(mirror, communities, batch_no, rng)
        }
        ChurnScheme::Burst { window } => {
            let width = (window.clamp(0.0, 1.0) * mirror.id_space() as f64) as usize;
            window_edge(mirror, width, batch_no, rng)
        }
    }
}

/// Drift insertion: an absent edge between the batch's active community
/// pair (`batch_no % c` and `(batch_no + 1) % c` of `c` id-modulo
/// communities).
pub(crate) fn drift_edge(
    mirror: &Mirror,
    communities: u32,
    batch_no: usize,
    rng: &mut ChaCha8Rng,
) -> Option<(NodeId, NodeId)> {
    let c = communities.max(2);
    let (a, b) = ((batch_no as u32) % c, (batch_no as u32 + 1) % c);
    mirror.absent_pair(rng, |v| v % c == a, |v| v % c == b)
}

/// Hotspot insertion: an absent edge inside the batch's sliding window of
/// `w` ids (`width` clamped to `2..=n`), which starts `batch_no · w` ids
/// into the id space and wraps around it. An empty id space has no window
/// and no edge.
pub(crate) fn window_edge(
    mirror: &Mirror,
    width: usize,
    batch_no: usize,
    rng: &mut ChaCha8Rng,
) -> Option<(NodeId, NodeId)> {
    let n = mirror.id_space();
    if n == 0 {
        return None;
    }
    let w = width.max(2).min(n);
    let start = (batch_no * w) % n;
    let end = start + w;
    let inside = |v: NodeId| {
        let v = v as usize;
        if end <= n {
            v >= start && v < end
        } else {
            v >= start || v < end - n
        }
    };
    mirror.absent_pair(rng, inside, inside)
}

/// Samples an existing edge to delete; under [`ChurnScheme::CommunityDrift`]
/// the edge is biased to lie inside the batch's first active community.
fn sample_delete(
    mirror: &Mirror,
    scheme: ChurnScheme,
    batch_no: usize,
    rng: &mut ChaCha8Rng,
) -> Option<(NodeId, NodeId)> {
    for attempt in 0..RETRIES {
        let u = mirror.sample_live(rng)?;
        if let ChurnScheme::CommunityDrift { communities } = scheme {
            let c = communities.max(2);
            // Prefer shedding edges of the community the drift leaves
            // behind; give up on the bias after half the retries.
            if attempt < RETRIES / 2 && u % c != (batch_no as u32) % c {
                continue;
            }
        }
        let nbrs = &mirror.nbrs[u as usize];
        if nbrs.is_empty() {
            continue;
        }
        let v = nbrs[rng.gen_range(0..nbrs.len())];
        return Some((u, v));
    }
    None
}

/// Generates a churn trace over `graph`: `config.batches` delta batches,
/// each valid against the graph state left by its predecessors (no
/// duplicate edge inserts, no deletes of absent edges, no references to
/// dead nodes) and fully determined by `(graph, config)`.
pub fn churn_trace(graph: &CsrGraph, config: &ChurnConfig) -> Vec<DeltaBatch> {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut mirror = Mirror::new(graph);
    let mut trace = Vec::with_capacity(config.batches);
    for batch_no in 0..config.batches {
        let mut batch = DeltaBatch::with_capacity(config.ops_per_batch);
        for _ in 0..config.ops_per_batch {
            let node_op = rng.gen_bool(config.node_churn_fraction);
            let insert = rng.gen_bool(config.insert_fraction);
            if node_op {
                if insert || mirror.live_ids.len() <= MIN_LIVE_NODES {
                    let id = mirror.insert_node();
                    let weight = 1 + rng.gen_range(0..2u64);
                    batch.insert_node(id, weight);
                } else if let Some(v) = mirror.sample_live(&mut rng) {
                    mirror.delete_node(v);
                    batch.delete_node(v);
                }
            } else if insert {
                if let Some((u, v)) = sample_insert(&mirror, config.scheme, batch_no, &mut rng) {
                    mirror.insert_edge(u, v);
                    batch.insert_edge(u, v, 1);
                }
            } else if let Some((u, v)) = sample_delete(&mirror, config.scheme, batch_no, &mut rng) {
                mirror.delete_edge(u, v);
                batch.delete_edge(u, v);
            }
        }
        trace.push(batch);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erdos_renyi_gnm;
    use oms_graph::Delta;

    fn base() -> CsrGraph {
        erdos_renyi_gnm(100, 400, 3)
    }

    fn ops(trace: &[DeltaBatch]) -> usize {
        trace.iter().map(DeltaBatch::len).sum()
    }

    #[test]
    fn traces_are_reproducible_at_fixed_seeds() {
        let g = base();
        let config = ChurnConfig::default();
        let a = churn_trace(&g, &config);
        let b = churn_trace(&g, &config);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), y.len());
            for i in 0..x.len() {
                assert_eq!(x.get(i), y.get(i));
            }
        }
        let other = churn_trace(&g, &ChurnConfig { seed: 1, ..config });
        assert!(
            ops(&a) != ops(&other)
                || (0..a[0].len().min(other[0].len())).any(|i| a[0].get(i) != other[0].get(i)),
            "different seeds produced the identical trace"
        );
    }

    #[test]
    fn traces_are_valid_against_an_independent_mirror() {
        // Replay through a second, independent bookkeeping of the graph:
        // every op must be applicable at its position.
        for scheme in [
            ChurnScheme::Uniform,
            ChurnScheme::CommunityDrift { communities: 4 },
            ChurnScheme::Burst { window: 0.1 },
        ] {
            let g = base();
            let trace = churn_trace(
                &g,
                &ChurnConfig {
                    scheme,
                    batches: 6,
                    ops_per_batch: 80,
                    node_churn_fraction: 0.2,
                    ..ChurnConfig::default()
                },
            );
            assert_eq!(trace.len(), 6);
            assert!(ops(&trace) > 0);
            let mut mirror = Mirror::new(&g);
            for batch in &trace {
                for delta in batch.iter() {
                    match delta {
                        Delta::EdgeInsert { u, v, .. } => {
                            assert!(u != v && mirror.alive[u as usize] && mirror.alive[v as usize]);
                            assert!(!mirror.has_edge(u, v), "duplicate insert {u}-{v}");
                            mirror.insert_edge(u, v);
                        }
                        Delta::EdgeDelete { u, v } => {
                            assert!(mirror.has_edge(u, v), "deleting absent edge {u}-{v}");
                            mirror.delete_edge(u, v);
                        }
                        Delta::NodeInsert { node, weight } => {
                            assert_eq!(node as usize, mirror.id_space(), "non-fresh id");
                            assert!(weight >= 1);
                            mirror.insert_node();
                        }
                        Delta::NodeDelete { node } => {
                            assert!(mirror.alive[node as usize], "deleting dead node {node}");
                            mirror.delete_node(node);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn burst_concentrates_edge_ops_in_the_window() {
        let g = base();
        let trace = churn_trace(
            &g,
            &ChurnConfig {
                scheme: ChurnScheme::Burst { window: 0.1 },
                batches: 1,
                ops_per_batch: 60,
                node_churn_fraction: 0.0,
                insert_fraction: 1.0,
                ..ChurnConfig::default()
            },
        );
        // Window of batch 0 is ids [0, 10): every insert endpoint pair
        // should fall inside unless rejection sampling had to bail.
        let mut inside = 0;
        let mut total = 0;
        for i in 0..trace[0].len() {
            if let Delta::EdgeInsert { u, v, .. } = trace[0].get(i) {
                total += 1;
                if u < 10 && v < 10 {
                    inside += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            inside * 2 >= total,
            "burst window ignored: {inside}/{total} inside"
        );
    }

    #[test]
    fn node_churn_fraction_zero_keeps_the_node_set() {
        let g = base();
        let trace = churn_trace(
            &g,
            &ChurnConfig {
                node_churn_fraction: 0.0,
                ..ChurnConfig::default()
            },
        );
        for batch in &trace {
            for delta in batch.iter() {
                assert!(matches!(
                    delta,
                    Delta::EdgeInsert { .. } | Delta::EdgeDelete { .. }
                ));
            }
        }
    }
}
