//! The traffic-replay simulator (see the [crate docs](crate) for the
//! request model).
//!
//! The simulator is a pure function of `(adjacency, assignment, config)`:
//! all timing is integer ticks, all randomness comes from one `ChaCha8`
//! stream, and the adjacency is materialised from whatever
//! [`NodeStream`] source the caller holds — since every source of the same
//! graph delivers identical content in identical order, replays are
//! byte-identical across in-memory and on-disk streams.

use crate::zipf::ZipfSampler;
use oms_graph::{CsrGraph, NodeId, NodeStream, Result};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Block ids use the same representation as `oms-core`'s partitions.
type BlockId = u32;

/// Parameters of one replay run.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Number of simulated user requests.
    pub requests: usize,
    /// Maximum random-walk steps per request: each request draws its own
    /// length uniformly in `1..=hops` (simulated session lengths vary, and
    /// the long sessions dominate the latency tail). A request touches
    /// `length + 1` vertices; walks stop early at a dead end.
    pub hops: usize,
    /// Zipf exponent of the start-vertex draw over the degree ranking
    /// (rank 0 = highest degree). `0` = uniform, larger = hub-heavier.
    pub zipf_exponent: f64,
    /// Extra latency ticks a hop pays in transit when it crosses a block
    /// boundary — the simulated network round trip of a cut edge. Travel
    /// delays the request but occupies no server.
    pub hop_penalty: u64,
    /// Ticks between consecutive request arrivals (`0` = all requests
    /// arrive at tick 0, a pure stress burst). The default keeps the
    /// system below saturation so latency reflects path quality rather
    /// than pure overload.
    pub arrival_every: u64,
    /// Load shedding: a request is rejected up front when its entry
    /// block's backlog (queue ticks already ahead of it) exceeds this.
    /// `0` disables rejection.
    pub max_backlog: u64,
    /// RNG seed of the request stream.
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            requests: 2000,
            hops: 16,
            zipf_exponent: 1.1,
            hop_penalty: 8,
            arrival_every: 8,
            max_backlog: 0,
            seed: 0,
        }
    }
}

/// The measured outcome of one replay run — the partition's quality as
/// users would see it. Rides beside `oms-core`'s `PartitionReport`.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayReport {
    /// Number of blocks of the replayed partition.
    pub num_blocks: u32,
    /// Requests issued (always `served + rejected`).
    pub requests: usize,
    /// Requests that completed their walk.
    pub served: usize,
    /// Requests shed at admission because their entry block was backlogged
    /// past [`ReplayConfig::max_backlog`].
    pub rejected: usize,
    /// Vertex touches executed by served requests (the per-block
    /// [`ReplayReport::block_load`] entries sum to exactly this).
    pub total_hops: u64,
    /// Touches whose serving block differed from the previous touch —
    /// each one paid the cross-block travel penalty.
    pub cross_block_hops: u64,
    /// Per-block queue load: service ticks each block performed (one per
    /// hop it served).
    pub block_load: Vec<u64>,
    /// Median simulated request latency, in ticks.
    pub p50_latency: u64,
    /// 99th-percentile simulated request latency, in ticks.
    pub p99_latency: u64,
    /// Arithmetic mean latency of served requests, in ticks.
    pub mean_latency: f64,
    /// Tick at which the last request completed.
    pub makespan: u64,
    /// FNV-1a hash over the full request log (starts, walks, admissions,
    /// latencies) — one number that pins the entire run for determinism
    /// checks.
    pub request_log_hash: u64,
}

impl ReplayReport {
    /// Fraction of served hops that crossed a block boundary — the
    /// headline "does a lower cut serve better?" number. `0.0` when no
    /// hop was served.
    pub fn cross_block_hop_rate(&self) -> f64 {
        if self.total_hops == 0 {
            0.0
        } else {
            self.cross_block_hops as f64 / self.total_hops as f64
        }
    }

    /// Queue-load skew: the heaviest block's load over the mean block
    /// load (`1.0` = perfectly even).
    pub fn load_skew(&self) -> f64 {
        let total: u64 = self.block_load.iter().sum();
        if total == 0 || self.block_load.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.block_load.len() as f64;
        let max = *self.block_load.iter().max().expect("non-empty") as f64;
        max / mean
    }

    /// Fraction of issued requests that were rejected.
    pub fn rejection_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.rejected as f64 / self.requests as f64
        }
    }
}

/// The materialised view the simulator walks: per-vertex adjacency in
/// stream-delivery order, plus the ids that actually exist (live), so
/// dynamic graphs with dead ids replay cleanly.
struct ReplayGraph {
    nbrs: Vec<Vec<NodeId>>,
    live: Vec<NodeId>,
}

impl ReplayGraph {
    fn from_stream(stream: &mut dyn NodeStream) -> Result<Self> {
        let mut nbrs: Vec<Vec<NodeId>> = Vec::new();
        let mut live: Vec<NodeId> = Vec::new();
        stream.reset()?;
        stream.for_each_node(&mut |node| {
            let v = node.node as usize;
            if nbrs.len() <= v {
                nbrs.resize_with(v + 1, Vec::new);
            }
            nbrs[v] = node.neighbors.to_vec();
            live.push(node.node);
        })?;
        Ok(ReplayGraph { nbrs, live })
    }

    /// Live ids ranked by degree descending (ties by id ascending) — the
    /// hub ranking the Zipf draw runs over.
    fn degree_ranking(&self) -> Vec<NodeId> {
        let mut ranking = self.live.clone();
        ranking.sort_by(|&a, &b| {
            self.nbrs[b as usize]
                .len()
                .cmp(&self.nbrs[a as usize].len())
                .then(a.cmp(&b))
        });
        ranking
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// How a touch's serving block is chosen — the one seam between node- and
/// edge-partition replay.
enum Serving<'a> {
    /// Node partitions: a touch of `v` is served by `assignment[v]`.
    Node(&'a [BlockId]),
    /// Edge partitions: the walk step `u → v` is served by the block
    /// owning that edge (both endpoints hold a replica there); the start
    /// touch is served by the vertex's primary replica.
    Edge {
        /// `edge_block[v]` holds `(neighbor, block)` pairs in incidence
        /// order.
        incident: &'a [Vec<(NodeId, BlockId)>],
        /// Primary replica per vertex (most incident edges, lowest block
        /// id on ties).
        primary: &'a [BlockId],
    },
}

impl Serving<'_> {
    fn start_block(&self, v: NodeId) -> BlockId {
        match self {
            Serving::Node(assignments) => assignments[v as usize],
            Serving::Edge { primary, .. } => primary[v as usize],
        }
    }

    fn hop_block(&self, from: NodeId, nbr_index: usize, to: NodeId) -> BlockId {
        match self {
            Serving::Node(assignments) => assignments[to as usize],
            Serving::Edge { incident, .. } => {
                let (nbr, block) = incident[from as usize][nbr_index];
                debug_assert_eq!(nbr, to);
                block
            }
        }
    }
}

/// The simulator core shared by node- and edge-partition replay.
fn simulate(
    graph: &ReplayGraph,
    serving: &Serving<'_>,
    num_blocks: u32,
    config: &ReplayConfig,
) -> ReplayReport {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let ranking = graph.degree_ranking();
    let zipf = ZipfSampler::new(ranking.len().max(1), config.zipf_exponent);

    let mut block_free = vec![0u64; num_blocks as usize];
    let mut block_load = vec![0u64; num_blocks as usize];
    let mut latencies: Vec<u64> = Vec::with_capacity(config.requests);
    let mut hash = FNV_OFFSET;
    let (mut served, mut rejected) = (0usize, 0usize);
    let (mut total_hops, mut cross_block_hops) = (0u64, 0u64);
    let mut makespan = 0u64;

    for request in 0..config.requests {
        let arrival = request as u64 * config.arrival_every;
        if ranking.is_empty() {
            break;
        }
        let start = ranking[zipf.sample(&mut rng)];
        fnv1a(&mut hash, start as u64);
        let entry = serving.start_block(start);
        let backlog = block_free[entry as usize].saturating_sub(arrival);
        oms_obs::hist_record(oms_obs::HistId::ReplayQueueDepth, backlog);
        if config.max_backlog > 0 && backlog > config.max_backlog {
            rejected += 1;
            fnv1a(&mut hash, u64::MAX); // admission refused
            continue;
        }

        // This request's session length: long walks are the latency tail.
        let length = if config.hops == 0 {
            0
        } else {
            rng.gen_range(1..=config.hops)
        };
        fnv1a(&mut hash, length as u64);

        // Serve the start vertex, then up to `length` walk steps.
        let mut t = arrival;
        let mut current = start;
        let mut prev_block: Option<BlockId> = None;
        let mut block = entry;
        let mut step = 0usize;
        loop {
            // A cross-block hop is travel: the request pays the penalty in
            // transit, but no server is occupied by it.
            if let Some(prev) = prev_block {
                if prev != block {
                    cross_block_hops += 1;
                    t += config.hop_penalty;
                }
            }
            // One tick of real work on the block's queue. The queue's
            // clock advances from the request's *arrival* (work
            // conservation): a request delayed in transit does not
            // reserve the server while it travels.
            let slot = block_free[block as usize].max(arrival);
            block_free[block as usize] = slot + 1;
            t = t.max(slot) + 1;
            block_load[block as usize] += 1;
            total_hops += 1;
            prev_block = Some(block);
            fnv1a(&mut hash, current as u64);

            if step >= length {
                break;
            }
            let nbrs = &graph.nbrs[current as usize];
            if nbrs.is_empty() {
                break; // dead end: the walk stops early
            }
            let nbr_index = rng.gen_range(0..nbrs.len());
            let next = nbrs[nbr_index];
            block = serving.hop_block(current, nbr_index, next);
            current = next;
            step += 1;
        }

        let latency = t - arrival;
        latencies.push(latency);
        fnv1a(&mut hash, latency);
        oms_obs::hist_record(oms_obs::HistId::ReplayLatencyTicks, latency);
        makespan = makespan.max(t);
        served += 1;
    }

    oms_obs::observe(oms_obs::Event::ReplaySummary {
        requests: config.requests as u64,
        served: served as u64,
        rejected: rejected as u64,
        total_hops,
        cross_block_hops,
        log_hash: hash,
    });
    oms_obs::counter_add(oms_obs::CounterId::ReplayRequests, config.requests as u64);
    oms_obs::counter_add(oms_obs::CounterId::ReplayServed, served as u64);
    oms_obs::counter_add(oms_obs::CounterId::ReplayRejected, rejected as u64);
    oms_obs::counter_add(oms_obs::CounterId::ReplayHops, total_hops);
    oms_obs::counter_add(oms_obs::CounterId::ReplayCrossBlockHops, cross_block_hops);

    latencies.sort_unstable();
    let percentile = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let rank = ((latencies.len() as f64 * q).ceil() as usize).max(1) - 1;
        latencies[rank.min(latencies.len() - 1)]
    };
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };

    ReplayReport {
        num_blocks,
        requests: config.requests,
        served,
        rejected,
        total_hops,
        cross_block_hops,
        block_load,
        p50_latency: percentile(0.50),
        p99_latency: percentile(0.99),
        mean_latency: mean,
        makespan,
        request_log_hash: hash,
    }
}

/// Replays the request stream against a node partition delivered by any
/// [`NodeStream`] source. `assignments[v]` is the block of node `v` and
/// must cover every id the stream delivers; `num_blocks` is taken as
/// `max(assignment) + 1` over the live nodes.
pub fn replay_stream(
    stream: &mut dyn NodeStream,
    assignments: &[BlockId],
    config: &ReplayConfig,
) -> Result<ReplayReport> {
    let graph = ReplayGraph::from_stream(stream)?;
    let num_blocks = graph
        .live
        .iter()
        .map(|&v| assignments[v as usize] + 1)
        .max()
        .unwrap_or(1);
    Ok(simulate(
        &graph,
        &Serving::Node(assignments),
        num_blocks,
        config,
    ))
}

/// [`replay_stream`] over an in-memory graph.
pub fn replay_graph(
    graph: &CsrGraph,
    assignments: &[BlockId],
    config: &ReplayConfig,
) -> ReplayReport {
    replay_stream(
        &mut oms_graph::InMemoryStream::new(graph),
        assignments,
        config,
    )
    .expect("in-memory streams cannot fail")
}

/// The replica set of every vertex under an edge partition: the sorted,
/// deduplicated blocks of its incident edges (`edge_assignments` is in
/// [`CsrGraph::edges`] stream order, as produced by `oms-edgepart`).
/// Vertices with no incident edge have an empty replica set.
pub fn replica_sets(graph: &CsrGraph, edge_assignments: &[BlockId]) -> Vec<Vec<BlockId>> {
    let mut sets: Vec<Vec<BlockId>> = vec![Vec::new(); graph.num_nodes()];
    for (i, (u, v, _)) in graph.edges().enumerate() {
        let block = edge_assignments[i];
        for w in [u, v] {
            let set = &mut sets[w as usize];
            if !set.contains(&block) {
                set.push(block);
            }
        }
    }
    for set in &mut sets {
        set.sort_unstable();
    }
    sets
}

/// Replays the request stream against a vertex-cut **edge** partition:
/// each walk step `u → v` is served by the block owning the traversed
/// edge (a block both endpoints hold a replica in), and the start touch is
/// served by the vertex's primary replica — the block holding most of its
/// incident edges (lowest block id on ties), or block 0 for isolated
/// vertices.
pub fn replay_edge_partition(
    graph: &CsrGraph,
    edge_assignments: &[BlockId],
    num_blocks: u32,
    config: &ReplayConfig,
) -> ReplayReport {
    let n = graph.num_nodes();
    // Incident (neighbor, owning block) lists, mirroring the adjacency the
    // replay graph materialises from the stream.
    let mut incident: Vec<Vec<(NodeId, BlockId)>> = vec![Vec::new(); n];
    for (i, (u, v, _)) in graph.edges().enumerate() {
        let block = edge_assignments[i];
        incident[u as usize].push((v, block));
        incident[v as usize].push((u, block));
    }
    let mut primary = vec![0 as BlockId; n];
    let mut counts = vec![0u64; num_blocks as usize];
    for (v, edges) in incident.iter().enumerate() {
        for &(_, block) in edges {
            counts[block as usize] += 1;
        }
        let mut best = 0 as BlockId;
        let mut best_count = 0u64;
        for &(_, block) in edges {
            let c = counts[block as usize];
            if c > best_count || (c == best_count && block < best && best_count > 0) {
                best = block;
                best_count = c;
            }
        }
        primary[v] = best;
        for &(_, block) in edges {
            counts[block as usize] = 0;
        }
    }

    // The walk itself follows the same adjacency a node replay would see.
    let nbrs: Vec<Vec<NodeId>> = incident
        .iter()
        .map(|edges| edges.iter().map(|&(w, _)| w).collect())
        .collect();
    let live: Vec<NodeId> = (0..n as NodeId).collect();
    let replay = ReplayGraph { nbrs, live };
    simulate(
        &replay,
        &Serving::Edge {
            incident: &incident,
            primary: &primary,
        },
        num_blocks,
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use oms_gen::{barabasi_albert, erdos_renyi_gnm};
    use oms_graph::InMemoryStream;

    fn hash_assignment(n: usize, k: u32) -> Vec<BlockId> {
        (0..n as u32).map(|v| v % k).collect()
    }

    #[test]
    fn replay_is_deterministic_per_seed() {
        let graph = barabasi_albert(300, 4, 7);
        let assignments = hash_assignment(graph.num_nodes(), 8);
        let config = ReplayConfig {
            requests: 500,
            seed: 11,
            ..ReplayConfig::default()
        };
        let a = replay_graph(&graph, &assignments, &config);
        let b = replay_graph(&graph, &assignments, &config);
        assert_eq!(a, b, "same seed must reproduce the full report");
        let other = replay_graph(&graph, &assignments, &ReplayConfig { seed: 12, ..config });
        assert_ne!(
            a.request_log_hash, other.request_log_hash,
            "different seeds must produce different request logs"
        );
    }

    #[test]
    fn conservation_holds() {
        let graph = erdos_renyi_gnm(200, 800, 3);
        let assignments = hash_assignment(graph.num_nodes(), 5);
        let config = ReplayConfig {
            requests: 400,
            hops: 3,
            arrival_every: 0,
            max_backlog: 40,
            ..ReplayConfig::default()
        };
        let report = replay_graph(&graph, &assignments, &config);
        assert_eq!(report.requests, report.served + report.rejected);
        assert!(report.rejected > 0, "a tight backlog must shed load");
        assert_eq!(report.block_load.iter().sum::<u64>(), report.total_hops);
        assert!(report.p50_latency <= report.p99_latency);
        assert!(report.p99_latency <= report.makespan);
    }

    #[test]
    fn single_block_has_no_cross_hops() {
        let graph = erdos_renyi_gnm(150, 600, 5);
        let assignments = vec![0; graph.num_nodes()];
        let report = replay_graph(&graph, &assignments, &ReplayConfig::default());
        assert_eq!(report.cross_block_hops, 0);
        assert_eq!(report.cross_block_hop_rate(), 0.0);
        assert_eq!(report.num_blocks, 1);
        assert_eq!(report.load_skew(), 1.0);
    }

    #[test]
    fn stream_and_graph_replays_agree() {
        let graph = barabasi_albert(250, 4, 9);
        let assignments = hash_assignment(graph.num_nodes(), 6);
        let config = ReplayConfig::default();
        let direct = replay_graph(&graph, &assignments, &config);
        let streamed =
            replay_stream(&mut InMemoryStream::new(&graph), &assignments, &config).unwrap();
        assert_eq!(direct, streamed);
    }

    #[test]
    fn replica_sets_cover_every_edge_endpoint() {
        let graph = erdos_renyi_gnm(120, 480, 1);
        let m = graph.num_edges();
        let edge_assignments: Vec<BlockId> = (0..m as u32).map(|e| e % 4).collect();
        let sets = replica_sets(&graph, &edge_assignments);
        for (i, (u, v, _)) in graph.edges().enumerate() {
            let block = edge_assignments[i];
            assert!(sets[u as usize].contains(&block));
            assert!(sets[v as usize].contains(&block));
        }
        let report = replay_edge_partition(&graph, &edge_assignments, 4, &ReplayConfig::default());
        assert_eq!(report.requests, report.served + report.rejected);
        assert_eq!(report.block_load.iter().sum::<u64>(), report.total_hops);
    }

    #[test]
    fn worse_cut_means_more_cross_hops() {
        // Two cliques joined by one bridge: the aligned 2-way split has a
        // near-zero hop rate, the interleaved split pays on almost every
        // hop — the simulator must see the difference.
        let mut edges = Vec::new();
        for a in 0..10u32 {
            for b in (a + 1)..10 {
                edges.push((a, b));
                edges.push((a + 10, b + 10));
            }
        }
        edges.push((0, 10));
        let graph = CsrGraph::from_edges(20, &edges).unwrap();
        let aligned: Vec<BlockId> = (0..20).map(|v| if v < 10 { 0 } else { 1 }).collect();
        let interleaved: Vec<BlockId> = (0..20u32).map(|v| v % 2).collect();
        let config = ReplayConfig {
            requests: 800,
            ..ReplayConfig::default()
        };
        let good = replay_graph(&graph, &aligned, &config);
        let bad = replay_graph(&graph, &interleaved, &config);
        assert!(good.cross_block_hop_rate() < bad.cross_block_hop_rate());
        assert!(good.p99_latency < bad.p99_latency);
    }
}
