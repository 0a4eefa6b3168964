//! Timestamped temporal edge streams, emitted as delta traces.
//!
//! Where [`crate::churn`] models *maintenance noise* (random edits around a
//! standing graph), this module models *graphs that grow through time*:
//! each [`DeltaBatch`] is one timestamp window of an evolving network, so a
//! trace replayed checkpoint by checkpoint traces the network's history.
//! Three temporal shapes cover the usual dynamics of the temporal-graph
//! literature:
//!
//! * [`TemporalScheme::PreferentialAttachment`] — new nodes arrive over
//!   time and wire degree-proportionally into the existing graph (rich get
//!   richer): hubs intensify as the trace advances.
//! * [`TemporalScheme::CommunityDrift`] — the active community pair
//!   rotates per window while the community left behind ages out its
//!   internal edges: the community structure *migrates*, forcing a
//!   partition to follow.
//! * [`TemporalScheme::BurstArrivals`] — quiet windows carrying a trickle
//!   of background edges are punctuated every `period`-th window by a
//!   burst concentrated in a sliding id hotspot.
//!
//! All schemes additionally *age* the graph: a `delete_fraction` of each
//! window's operations remove the globally oldest live edges (a FIFO over
//! insertion time), so long traces do not grow without bound.
//!
//! Traces are valid by construction against the start graph (same
//! guarantee as [`crate::churn`]) and fully determined by
//! `(graph, config)` — one `ChaCha8` stream per trace.

use crate::churn::{drift_edge, window_edge, Mirror, RETRIES};
use oms_graph::{CsrGraph, DeltaBatch, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How a temporal window's edges are produced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TemporalScheme {
    /// New nodes arrive and attach degree-proportionally.
    PreferentialAttachment {
        /// Edges each arriving node wires into the existing graph.
        edges_per_node: usize,
    },
    /// The active community pair rotates per window; the community left
    /// behind ages out its internal edges.
    CommunityDrift {
        /// Number of id-modulo communities (≥ 2).
        communities: u32,
    },
    /// Quiet windows punctuated by hotspot bursts.
    BurstArrivals {
        /// A burst fires every `period`-th window (≥ 1).
        period: usize,
    },
}

/// Parameters of a temporal trace.
#[derive(Clone, Copy, Debug)]
pub struct TemporalConfig {
    /// Temporal shape.
    pub scheme: TemporalScheme,
    /// Number of timestamp windows (= delta batches).
    pub batches: usize,
    /// Operations attempted per window (bursty schemes modulate this per
    /// window; an attempt is skipped when no valid operation exists).
    pub ops_per_batch: usize,
    /// Fraction of each window's operations that age out the oldest live
    /// edges instead of inserting.
    pub delete_fraction: f64,
    /// RNG seed; together with the start graph it fully determines the
    /// trace.
    pub seed: u64,
}

impl Default for TemporalConfig {
    fn default() -> Self {
        TemporalConfig {
            scheme: TemporalScheme::PreferentialAttachment { edges_per_node: 3 },
            batches: 8,
            ops_per_batch: 64,
            delete_fraction: 0.25,
            seed: 0,
        }
    }
}

/// Oldest-first queue of live edges: insertion order is age, deletions are
/// lazily skipped on pop.
struct EdgeAge {
    fifo: std::collections::VecDeque<(NodeId, NodeId)>,
}

impl EdgeAge {
    fn new(graph: &CsrGraph) -> Self {
        EdgeAge {
            fifo: graph.edges().map(|(u, v, _)| (u, v)).collect(),
        }
    }

    fn push(&mut self, u: NodeId, v: NodeId) {
        self.fifo.push_back((u, v));
    }

    /// Pops the oldest edge still present in `mirror` (skipping entries
    /// deleted through other paths, e.g. node removal).
    fn pop_oldest(&mut self, mirror: &Mirror) -> Option<(NodeId, NodeId)> {
        while let Some((u, v)) = self.fifo.pop_front() {
            if mirror.alive[u as usize] && mirror.alive[v as usize] && mirror.has_edge(u, v) {
                return Some((u, v));
            }
        }
        None
    }
}

/// Degree-proportional endpoint draw via the endpoint list trick: every
/// insertion pushes both endpoints, so a uniform draw over the list is a
/// degree-weighted draw over nodes. Dead entries are rejected.
struct EndpointList {
    ends: Vec<NodeId>,
}

impl EndpointList {
    fn new(graph: &CsrGraph) -> Self {
        let mut ends = Vec::with_capacity(graph.num_edges() * 2);
        for (u, v, _) in graph.edges() {
            ends.push(u);
            ends.push(v);
        }
        EndpointList { ends }
    }

    fn push(&mut self, u: NodeId, v: NodeId) {
        self.ends.push(u);
        self.ends.push(v);
    }

    fn sample(&self, mirror: &Mirror, rng: &mut ChaCha8Rng) -> Option<NodeId> {
        if self.ends.is_empty() {
            return mirror.sample_live(rng);
        }
        for _ in 0..RETRIES {
            let v = self.ends[rng.gen_range(0..self.ends.len())];
            if mirror.alive[v as usize] {
                return Some(v);
            }
        }
        mirror.sample_live(rng)
    }
}

/// Ops budget of window `batch_no` under the scheme: bursty schemes run
/// quiet windows at a quarter budget and burst windows at full budget.
fn window_budget(scheme: TemporalScheme, batch_no: usize, ops: usize) -> usize {
    match scheme {
        TemporalScheme::BurstArrivals { period } => {
            let period = period.max(1);
            if (batch_no + 1).is_multiple_of(period) {
                ops
            } else {
                (ops / 4).max(1)
            }
        }
        _ => ops,
    }
}

/// Generates a temporal trace over `graph`: `config.batches` timestamp
/// windows, each a [`DeltaBatch`] valid against the graph state left by
/// its predecessors. A `delete_fraction` of each window's operations ages
/// out the oldest live edges.
pub fn temporal_trace(graph: &CsrGraph, config: &TemporalConfig) -> Vec<DeltaBatch> {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut mirror = Mirror::new(graph);
    let mut ages = EdgeAge::new(graph);
    let mut endpoints = EndpointList::new(graph);
    let mut trace = Vec::with_capacity(config.batches);
    let delete_fraction = config.delete_fraction.clamp(0.0, 1.0);

    for batch_no in 0..config.batches {
        let budget = window_budget(config.scheme, batch_no, config.ops_per_batch);
        let mut batch = DeltaBatch::with_capacity(budget);
        let mut pending_attach = 0usize; // PA: edges still owed by the newest node
        let mut newest: NodeId = 0;

        for _ in 0..budget {
            // Aging first: it is scheme-independent.
            if rng.gen_bool(delete_fraction) {
                let victim = match config.scheme {
                    // Drift ages the community left behind when possible.
                    TemporalScheme::CommunityDrift { communities } => {
                        age_in_community(&mut ages, &mirror, communities, batch_no)
                    }
                    _ => ages.pop_oldest(&mirror),
                };
                if let Some((u, v)) = victim {
                    mirror.delete_edge(u, v);
                    batch.delete_edge(u, v);
                }
                continue;
            }

            let edge = match config.scheme {
                TemporalScheme::PreferentialAttachment { edges_per_node } => {
                    if pending_attach == 0 {
                        // A new node arrives at this timestamp.
                        newest = mirror.insert_node();
                        batch.insert_node(newest, 1);
                        pending_attach = edges_per_node.max(1);
                        None
                    } else {
                        let edge = attach_edge(&mirror, &endpoints, newest, &mut rng);
                        pending_attach = if edge.is_some() {
                            pending_attach - 1
                        } else {
                            0
                        };
                        edge
                    }
                }
                TemporalScheme::CommunityDrift { communities } => {
                    drift_edge(&mirror, communities, batch_no, &mut rng)
                }
                TemporalScheme::BurstArrivals { period } => {
                    if (batch_no + 1).is_multiple_of(period.max(1)) {
                        // A tenth of the id space is the hotspot.
                        window_edge(&mirror, mirror.id_space() / 10, batch_no, &mut rng)
                    } else {
                        mirror.absent_pair(&mut rng, |_| true, |_| true)
                    }
                }
            };
            if let Some((u, v)) = edge {
                mirror.insert_edge(u, v);
                endpoints.push(u, v);
                ages.push(u, v);
                batch.insert_edge(u, v, 1);
            }
        }
        trace.push(batch);
    }
    trace
}

/// PA attachment: wire `newest` to a degree-proportional partner that is
/// not itself and not already adjacent.
fn attach_edge(
    mirror: &Mirror,
    endpoints: &EndpointList,
    newest: NodeId,
    rng: &mut ChaCha8Rng,
) -> Option<(NodeId, NodeId)> {
    for _ in 0..RETRIES {
        let partner = endpoints.sample(mirror, rng)?;
        if partner != newest && !mirror.has_edge(newest, partner) {
            return Some((newest, partner));
        }
    }
    None
}

/// Drift aging: pop the oldest edge with an endpoint in the community the
/// drift leaves behind; falls back to the globally oldest edge.
fn age_in_community(
    ages: &mut EdgeAge,
    mirror: &Mirror,
    communities: u32,
    batch_no: usize,
) -> Option<(NodeId, NodeId)> {
    let c = communities.max(2);
    let left_behind = (batch_no as u32) % c;
    // Scan a bounded prefix of the age queue for a community match so the
    // bias cannot degenerate into an O(m) search per delete.
    for _ in 0..RETRIES {
        let (u, v) = ages.pop_oldest(mirror)?;
        if u % c == left_behind || v % c == left_behind {
            return Some((u, v));
        }
        ages.push(u, v); // recycle: no longer oldest, but still live
    }
    ages.pop_oldest(mirror)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erdos_renyi_gnm;
    use oms_graph::Delta;

    fn base() -> CsrGraph {
        erdos_renyi_gnm(120, 480, 5)
    }

    fn schemes() -> [TemporalScheme; 3] {
        [
            TemporalScheme::PreferentialAttachment { edges_per_node: 3 },
            TemporalScheme::CommunityDrift { communities: 5 },
            TemporalScheme::BurstArrivals { period: 3 },
        ]
    }

    #[test]
    fn traces_are_reproducible_at_fixed_seeds() {
        for scheme in schemes() {
            let g = base();
            let config = TemporalConfig {
                scheme,
                ..TemporalConfig::default()
            };
            let (a, b) = (temporal_trace(&g, &config), temporal_trace(&g, &config));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.len(), y.len());
                for i in 0..x.len() {
                    assert_eq!(x.get(i), y.get(i));
                }
            }
        }
    }

    #[test]
    fn traces_are_valid_against_an_independent_mirror() {
        for scheme in schemes() {
            let g = base();
            let trace = temporal_trace(
                &g,
                &TemporalConfig {
                    scheme,
                    batches: 10,
                    ops_per_batch: 90,
                    ..TemporalConfig::default()
                },
            );
            assert_eq!(trace.len(), 10);
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
                        Delta::NodeInsert { node, .. } => {
                            assert_eq!(node as usize, mirror.id_space(), "non-fresh id");
                            mirror.insert_node();
                        }
                        Delta::NodeDelete { node } => {
                            mirror.delete_node(node);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn preferential_attachment_grows_the_id_space() {
        let g = base();
        let trace = temporal_trace(
            &g,
            &TemporalConfig {
                scheme: TemporalScheme::PreferentialAttachment { edges_per_node: 3 },
                batches: 6,
                ops_per_batch: 80,
                delete_fraction: 0.1,
                seed: 2,
            },
        );
        let arrivals: usize = trace
            .iter()
            .map(|b| {
                (0..b.len())
                    .filter(|&i| matches!(b.get(i), Delta::NodeInsert { .. }))
                    .count()
            })
            .sum();
        assert!(
            arrivals >= 6,
            "PA must grow the node set: {arrivals} arrivals"
        );
    }

    #[test]
    fn aging_deletes_oldest_edges_first() {
        let g = base();
        let first_edge = g.edges().next().map(|(u, v, _)| (u, v)).unwrap();
        let trace = temporal_trace(
            &g,
            &TemporalConfig {
                scheme: TemporalScheme::BurstArrivals { period: 2 },
                batches: 4,
                ops_per_batch: 100,
                delete_fraction: 0.5,
                seed: 7,
            },
        );
        // The very first delete the trace performs must be the graph's
        // oldest edge (stream order = age for the seed graph).
        let first_delete = trace.iter().flat_map(|b| b.iter()).find_map(|d| match d {
            Delta::EdgeDelete { u, v } => Some((u, v)),
            _ => None,
        });
        assert_eq!(first_delete, Some(first_edge));
    }

    #[test]
    fn bursts_modulate_window_size() {
        let g = base();
        let trace = temporal_trace(
            &g,
            &TemporalConfig {
                scheme: TemporalScheme::BurstArrivals { period: 4 },
                batches: 8,
                ops_per_batch: 80,
                delete_fraction: 0.0,
                seed: 3,
            },
        );
        // Windows 3 and 7 (1-based 4 and 8) burst; the rest idle at a
        // quarter budget. Compare realized batch sizes.
        let sizes: Vec<usize> = trace.iter().map(DeltaBatch::len).collect();
        assert!(
            sizes[3] > sizes[2] * 2,
            "burst window not larger: {sizes:?}"
        );
        assert!(
            sizes[7] > sizes[6] * 2,
            "burst window not larger: {sizes:?}"
        );
    }
}
