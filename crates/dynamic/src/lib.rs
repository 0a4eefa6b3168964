//! # oms-dynamic
//!
//! Dynamic-graph partition maintenance: a long-lived service layer that
//! keeps a streaming partition valid while the graph changes underneath it.
//!
//! The streaming partitioners of `oms-core` answer "partition this graph
//! once"; this crate answers "*keep* it partitioned". A
//! [`PartitionState`] runs a registered repair-capable algorithm (`fennel`
//! or `ldg`: the jobs
//! [`RepairSink::new`](oms_core::RepairSink::new) builds a repair sink
//! from, refusing any other with a typed error) once over the initial
//! graph, then ingests
//! [`DeltaBatch`](oms_graph::DeltaBatch)es of edge/node insertions and
//! deletions:
//!
//! * the [`DynamicGraph`] holds the graph once, in one pooled `O(n + m)`
//!   adjacency slab built in a single pass straight off any
//!   [`NodeStream`](oms_graph::NodeStream) (`oms apply-deltas` hands it the
//!   METIS or `.oms` file itself); it absorbs each mutation and streams the
//!   live graph on demand;
//! * every delta is filed in the drive loop's histogram (`oms-core`'s
//!   `LevelTally`), which the cut and imbalance are read off, and touched
//!   nodes are re-scored in place (ReFennel steps under the live `L_max`)
//!   per the job's `repair=` policy — on reused scratch buffers, so a warm
//!   delta allocates nothing but slab growth. No boundary set is kept:
//!   `repair=boundary` reads from a neighbor's adjacency whether it sits on
//!   a block boundary when its cascade reaches it. The slab is read ahead
//!   of each run of deltas and of each cascade wave, in independent loads
//!   whose misses overlap; the read-ahead only reads, allocates nothing and
//!   tolerates ids that no mutation has validated yet;
//! * a drift metric triggers a seeded full-restream fallback through the
//!   multi-pass engine once the job's `drift=` threshold is exceeded; it
//!   takes the histogram in place of a walk of its seed;
//! * snapshots persist the whole service state as a trailer after the
//!   padded body of the stream file, and [`PartitionState::resume`]
//!   restores it byte-identically from the trailer plus the delta trace.
//!
//! ```
//! use oms_core::JobSpec;
//! use oms_dynamic::PartitionState;
//! use oms_graph::{CsrGraph, DeltaBatch, InMemoryStream};
//!
//! let graph = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
//! let job: JobSpec = "fennel:2@drift=0.5".parse().unwrap();
//! let mut state = PartitionState::new(&job, &mut InMemoryStream::new(&graph)).unwrap();
//!
//! let mut batch = DeltaBatch::new();
//! batch.insert_edge(2, 3, 1);   // bridge the two paths
//! batch.delete_edge(0, 1);
//! let stats = state.apply(&batch).unwrap();
//! assert_eq!(stats.deltas, 2);
//! assert_eq!(state.assignments().len(), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

mod checkpoints;
mod graph;
mod state;

pub use checkpoints::{
    max_cut_ratio, repair_vs_restream_speedup, Checkpoints, ColdRestream, WindowStats,
};
pub use graph::DynamicGraph;
pub use state::{ApplyStats, PartitionState, TraceCursor};

#[cfg(test)]
mod tests {
    use super::*;
    use oms_core::{measure_pass, JobSpec, RepairPolicy, UNASSIGNED};
    use oms_gen::erdos_renyi_gnm;
    use oms_graph::io::{write_stream_file, DiskStream};
    use oms_graph::{
        CsrGraph, Delta, DeltaBatch, EdgeWeight, InMemoryStream, NodeId, NodeStream, NodeWeight,
        StreamedNode,
    };
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn er_graph(n: usize, seed: u64) -> CsrGraph {
        erdos_renyi_gnm(n, n * 4, seed)
    }

    fn job(k: u32) -> JobSpec {
        JobSpec::flat("fennel", k)
    }

    fn state_over(n: usize, k: u32, seed: u64) -> PartitionState {
        let graph = er_graph(n, seed);
        PartitionState::new(&job(k), &mut InMemoryStream::new(&graph)).unwrap()
    }

    /// A graph with a self-loop of weight 3 on every node, which a
    /// `CsrGraph` does not keep (a `.oms` file does): its lists, streamed in
    /// id order.
    struct Looped(Vec<(NodeWeight, Vec<NodeId>, Vec<EdgeWeight>)>);

    impl Looped {
        fn new(graph: &CsrGraph) -> Self {
            Looped(
                graph
                    .nodes()
                    .map(|v| {
                        let (mut nbrs, mut wts): (Vec<_>, Vec<_>) =
                            graph.neighbors_weighted(v).unzip();
                        nbrs.push(v);
                        wts.push(3);
                        (graph.node_weight(v), nbrs, wts)
                    })
                    .collect(),
            )
        }
    }

    impl NodeStream for Looped {
        fn num_nodes(&self) -> usize {
            self.0.len()
        }
        /// Every edge, a loop counted once.
        fn num_edges(&self) -> usize {
            self.0.iter().map(|list| list.1.len() + 1).sum::<usize>() / 2
        }
        fn total_node_weight(&self) -> NodeWeight {
            self.0.iter().map(|list| list.0).sum()
        }
        fn for_each_node(&mut self, f: &mut dyn FnMut(StreamedNode<'_>)) -> oms_graph::Result<()> {
            for (v, (weight, neighbors, edge_weights)) in self.0.iter().enumerate() {
                f(StreamedNode {
                    node: v as NodeId,
                    weight: *weight,
                    neighbors,
                    edge_weights,
                });
            }
            Ok(())
        }
    }

    /// The maintained cut and imbalance must equal a from-scratch metric
    /// pass at all times — this is the invariant everything else (drift,
    /// fallback, snapshots) is built on.
    fn assert_cut_consistent(state: &mut PartitionState) {
        let maintained = (state.edge_cut(), state.imbalance());
        let k = state.num_blocks();
        let assignments = state.assignments().to_vec();
        let measured = measure_pass(state.graph_stream(), &assignments, k).unwrap();
        assert_eq!(maintained, measured, "maintained cut or imbalance diverged");
    }

    /// A random but always-valid churn batch over the live graph.
    fn random_batch(state: &PartitionState, rng: &mut ChaCha8Rng, ops: usize) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        let mut graph = state.graph().clone();
        for _ in 0..ops {
            let alive: Vec<u32> = (0..graph.id_space() as u32)
                .filter(|&v| graph.is_alive(v))
                .collect();
            match rng.gen_range(0..10u32) {
                0 => {
                    // node insert at a fresh id
                    let id = graph.id_space() as u32;
                    graph.insert_node(id, 1 + rng.gen_range(0..3u64)).unwrap();
                    batch.insert_node(id, graph.node_weight(id));
                }
                1 if alive.len() > 4 => {
                    let v = alive[rng.gen_range(0..alive.len())];
                    graph.delete_node(v, &mut Vec::new()).unwrap();
                    batch.delete_node(v);
                }
                2 | 3 if graph.num_live_edges() > 0 => {
                    // delete a random existing edge
                    let with_edges: Vec<u32> = alive
                        .iter()
                        .copied()
                        .filter(|&v| graph.degree(v) > 0)
                        .collect();
                    let u = with_edges[rng.gen_range(0..with_edges.len())];
                    let (nbrs, _) = graph.neighbors(u);
                    let v = nbrs[rng.gen_range(0..nbrs.len())];
                    // A loop is not deleted on its own (it goes with its
                    // node).
                    if v != u {
                        graph.delete_edge(u, v).unwrap();
                        batch.delete_edge(u, v);
                    }
                }
                _ => {
                    // insert a random absent edge
                    for _ in 0..32 {
                        let u = alive[rng.gen_range(0..alive.len())];
                        let v = alive[rng.gen_range(0..alive.len())];
                        if u != v && !graph.has_edge(u, v) {
                            graph.insert_edge(u, v, 1).unwrap();
                            batch.insert_edge(u, v, 1);
                            break;
                        }
                    }
                }
            }
        }
        batch
    }

    #[test]
    fn initial_run_matches_restream_quality_invariants() {
        let mut state = state_over(200, 4, 7);
        assert!(state.edge_cut() > 0);
        assert!(!state.trajectory().is_empty());
        assert_eq!(state.counters().baseline_cut, state.edge_cut());
        assert_cut_consistent(&mut state);
        // Every live node is assigned, dead ids do not exist yet.
        assert!(state.assignments().iter().all(|&b| b != UNASSIGNED));
    }

    #[test]
    fn non_repairable_algorithms_are_rejected() {
        let graph = er_graph(50, 1);
        for spec in ["hashing:4", "oms:2:2", "nh-oms:4"] {
            let job: JobSpec = spec.parse().unwrap();
            let err = PartitionState::new(&job, &mut InMemoryStream::new(&graph)).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("repair"), "unexpected error: {msg}");
        }
    }

    /// The maintained cut is the measured one after every batch, under
    /// every repair policy — also on a graph whose nodes carry self-loops,
    /// whose entries a moving node keeps on its own side (counted as cut
    /// before a move and not after, they dropped the cut by 3 per move).
    #[test]
    fn incremental_cut_stays_exact_under_churn() {
        let graph = er_graph(150, 11);
        for looped in [false, true] {
            for policy in [
                RepairPolicy::Off,
                RepairPolicy::Local,
                RepairPolicy::Boundary,
            ] {
                let mut spec = job(4);
                spec.repair = policy;
                spec.drift = 1e9; // never fall back: stress the incremental path
                let mut state = match looped {
                    false => PartitionState::new(&spec, &mut InMemoryStream::new(&graph)),
                    true => PartitionState::new(&spec, &mut Looped::new(&graph)),
                }
                .unwrap();
                assert_eq!(state.graph().has_edge(0, 0), looped);
                let mut rng = ChaCha8Rng::seed_from_u64(42);
                for _ in 0..8 {
                    let batch = random_batch(&state, &mut rng, 40);
                    state.apply(&batch).unwrap();
                    assert_cut_consistent(&mut state);
                }
            }
        }
    }

    /// `repair=boundary`'s cascade rescores the neighbors of a moved seed
    /// that sit on a block boundary when the wave reaches them, and no
    /// others. In an edge delta that moved exactly one node — a seed, since
    /// a wave only follows a seed's move — the wave ran over the state the
    /// delta left, so its rescores are the two seeds plus that seed's
    /// boundary neighbors in the final assignment.
    #[test]
    fn boundary_wave_rescores_boundary_neighbors_and_no_interior_ones() {
        let graph = oms_gen::planted_partition(400, 4, 0.08, 0.004, 3);
        let mut spec = job(4);
        spec.repair = RepairPolicy::Boundary;
        spec.drift = 1e9; // never fall back
        let mut state = PartitionState::new(&spec, &mut InMemoryStream::new(&graph)).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let (mut cases, mut boundary, mut interior) = (0, 0, 0);
        for _ in 0..1500 {
            let batch = random_batch(&state, &mut rng, 1);
            let seeds = match batch.get(0) {
                Delta::EdgeInsert { u, v, .. } | Delta::EdgeDelete { u, v } => [u, v],
                _ => {
                    state.apply(&batch).unwrap();
                    continue;
                }
            };
            let before = state.assignments().to_vec();
            let stats = state.apply(&batch).unwrap();
            if stats.moved != 1 {
                continue;
            }
            let after = state.assignments();
            let moved: Vec<NodeId> = (0..after.len() as NodeId)
                .filter(|&v| before[v as usize] != after[v as usize])
                .collect();
            assert!(moved.len() == 1 && seeds.contains(&moved[0]), "{moved:?}");
            let on_boundary = |w: NodeId| {
                let (nbrs, _) = state.graph().neighbors(w);
                nbrs.iter().any(|&x| after[x as usize] != after[w as usize])
            };
            let (nbrs, _) = state.graph().neighbors(moved[0]);
            let rescored_neighbors = nbrs.iter().filter(|&&w| on_boundary(w)).count();
            assert_eq!(stats.rescored, 2 + rescored_neighbors, "seeds {seeds:?}");
            cases += 1;
            boundary += rescored_neighbors;
            interior += nbrs.len() - rescored_neighbors;
        }
        assert_cut_consistent(&mut state);
        assert!(
            cases >= 20 && boundary > 0 && interior > 0,
            "{cases} single-move deltas, {boundary} boundary and {interior} interior neighbors"
        );
    }

    #[test]
    fn drift_threshold_triggers_full_restream() {
        let graph = er_graph(150, 3);
        let mut spec = job(4);
        spec.drift = 1e-6; // any movement at all must trip the fallback
        let mut state = PartitionState::new(&spec, &mut InMemoryStream::new(&graph)).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut restreams = 0;
        for _ in 0..4 {
            let batch = random_batch(&state, &mut rng, 25);
            restreams += state.apply(&batch).unwrap().restreams;
        }
        assert!(restreams > 0, "fallback never triggered");
        assert_eq!(state.counters().restreams, restreams as u64);
        assert_cut_consistent(&mut state);
    }

    /// Over a graph without loops and over one whose nodes carry them: a
    /// delete of the loop `0–0` deletes an absent edge in the first and is
    /// refused in the second, where it would have removed one entry of two.
    /// An insert that leaves a cut past `u64::MAX` is refused as well.
    #[test]
    fn inconsistent_deltas_are_typed_errors() {
        let graph = er_graph(50, 2);
        for looped in [false, true] {
            let mut state = match looped {
                false => state_over(50, 2, 2),
                true => PartitionState::new(&job(2), &mut Looped::new(&graph)).unwrap(),
            };
            assert_eq!(state.graph().has_edge(0, 0), looped);

            let mut dup = DeltaBatch::new();
            let (nbrs, _) = state.graph().neighbors(0);
            let existing = nbrs.first().copied();
            if let Some(v) = existing.filter(|&v| v != 0) {
                dup.insert_edge(0, v, 1);
                assert!(state.apply(&dup).is_err());
            }
            let mut missing = DeltaBatch::new();
            missing.delete_edge(0, 0);
            assert!(state.apply(&missing).is_err());
            assert_eq!(state.graph().has_edge(0, 0), looped);

            let mut dead = DeltaBatch::new();
            dead.delete_node(49);
            state.apply(&dead).unwrap();
            let mut again = DeltaBatch::new();
            again.delete_node(49);
            assert!(state.apply(&again).is_err());

            // The maintained state is still sound after the failures.
            assert_cut_consistent(&mut state);
        }

        // So is a delta after which the cut no longer fits in a u64.
        let mut spec = job(2);
        spec.repair = RepairPolicy::Off;
        let mut state = PartitionState::new(&spec, &mut InMemoryStream::new(&graph)).unwrap();
        let blocks = state.assignments();
        let pairs = (0..50).flat_map(|u| (0..50).map(move |v| (u, v)));
        let mut cut = pairs.filter(|&(u, v)| blocks[u as usize] != blocks[v as usize]);
        let (u, v) = cut.find(|&(u, v)| !state.graph().has_edge(u, v)).unwrap();
        let mut heavy = DeltaBatch::new();
        heavy.insert_edge(u, v, u64::MAX);
        let err = state.apply(&heavy).unwrap_err().to_string();
        assert!(err.contains("edge-cut exceeds u64::MAX"), "{err}");
    }

    fn append(batch: &mut DeltaBatch, delta: Delta) {
        match delta {
            Delta::EdgeInsert { u, v, w } => batch.insert_edge(u, v, w),
            Delta::EdgeDelete { u, v } => batch.delete_edge(u, v),
            Delta::NodeInsert { node, weight } => batch.insert_node(node, weight),
            Delta::NodeDelete { node } => batch.delete_node(node),
        }
    }

    /// `apply` reads the slab ahead for deltas it has not validated yet. A
    /// delta inside the window read ahead — in the first window and in the
    /// second — that names an id past the id space, a node deleted earlier
    /// in the batch, or one node as both endpoints is still the typed error
    /// at that delta: the deltas before it are applied, as by a batch that
    /// ends there, and nothing panics.
    #[test]
    fn hostile_deltas_read_ahead_fail_at_their_own_delta() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for prefix_len in [8, 19] {
            let mut reference = state_over(120, 4, 5);
            let mut prefix = random_batch(&reference, &mut rng, prefix_len);
            reference.apply(&prefix).unwrap();
            let graph = reference.graph();
            let doomed = (0..).find(|&v| graph.degree(v) > 0).unwrap();
            let beyond = graph.id_space() as NodeId;
            let mut delete = DeltaBatch::new();
            delete.delete_node(doomed);
            reference.apply(&delete).unwrap();
            append(&mut prefix, delete.get(0));
            let live = (0..).find(|&v| reference.graph().is_alive(v)).unwrap();
            let mut hostile = DeltaBatch::new();
            hostile.insert_edge(live, beyond, 1);
            hostile.delete_edge(NodeId::MAX, live);
            hostile.delete_node(NodeId::MAX);
            hostile.insert_edge(doomed, live, 1);
            hostile.delete_edge(live, doomed);
            hostile.delete_node(doomed);
            hostile.insert_edge(live, live, 1);
            hostile.delete_edge(live, live);
            let messages = ["not alive"; 6].into_iter();
            let messages = messages.chain(["self-loop insert", "self-loop delete"]);
            for (delta, message) in hostile.iter().zip(messages) {
                let mut batch = DeltaBatch::new();
                for op in prefix.iter().chain([delta]).chain(prefix.iter()) {
                    append(&mut batch, op);
                }
                let mut state = state_over(120, 4, 5);
                let err = state.apply(&batch).unwrap_err();
                assert!(
                    matches!(err, oms_core::PartitionError::Graph(_)),
                    "{delta}: {err}"
                );
                assert!(err.to_string().contains(message), "{delta}: {err}");
                assert_eq!(state.assignments(), reference.assignments(), "{delta}");
                assert_eq!(state.counters(), reference.counters(), "{delta}");
                let (got, want) = (state.graph(), reference.graph());
                assert_eq!(got.id_space(), want.id_space(), "{delta}");
                assert_eq!(got.num_live_edges(), want.num_live_edges(), "{delta}");
                assert_cut_consistent(&mut state);
            }
        }
    }

    #[test]
    fn snapshot_resume_is_byte_identical() {
        let dir = std::env::temp_dir().join("oms-dynamic-test-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("service.oms");
        let graph = er_graph(180, 13);
        write_stream_file(&graph, &path).unwrap();

        let spec = job(4);
        let mut rng = ChaCha8Rng::seed_from_u64(77);

        // Reference service: never interrupted.
        let mut reference = PartitionState::new(&spec, &mut InMemoryStream::new(&graph)).unwrap();
        let mut trace: Vec<DeltaBatch> = Vec::new();
        for _ in 0..3 {
            let batch = random_batch(&reference, &mut rng, 30);
            reference.apply(&batch).unwrap();
            trace.push(batch);
        }

        // Interrupted service: replay the first two batches, snapshot,
        // "crash", resume from disk, apply the rest.
        let mut stream = DiskStream::open(&path).unwrap();
        let mut service = PartitionState::new(&spec, &mut stream).unwrap();
        service.apply(&trace[0]).unwrap();
        service.apply(&trace[1]).unwrap();
        service.save(&stream).unwrap();
        drop(service);

        let mut stream = DiskStream::open(&path).unwrap();
        let (mut resumed, cursor) = PartitionState::resume(&spec, &mut stream, &trace).unwrap();
        assert_eq!(cursor, TraceCursor { batch: 2, op: 0 });
        for batch in &trace[cursor.batch..] {
            resumed.apply(batch).unwrap();
        }

        assert_eq!(resumed.assignments(), reference.assignments());
        assert_eq!(resumed.edge_cut(), reference.edge_cut());
        assert_eq!(resumed.counters(), reference.counters());
        std::fs::remove_file(&path).ok();
    }

    /// One-sided adjacency lists are refused when the slab loads: by
    /// `PartitionState::new`, and by `resume` under a valid snapshot.
    #[test]
    fn one_sided_lists_fail_new_and_resume() {
        use oms_graph::io::{write_snapshot, PartitionSnapshot};
        let dir = std::env::temp_dir().join("oms-dynamic-test-one-sided");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one-sided.oms");
        // n = 2, m = 1, c(V) = 2, no flags; degrees 2 0; node 0 lists node 1
        // twice and node 1 lists nobody.
        let mut bytes = b"OMSSTRM3".to_vec();
        for field in [2u64, 1, 2, 0] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        for word in [2u32, 0, 1, 1] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        std::fs::write(&path, bytes).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        let err = PartitionState::new(&job(2), &mut stream).unwrap_err();
        assert!(err.to_string().contains("not symmetric"), "{err}");
        let snapshot = PartitionSnapshot {
            num_blocks: 2,
            assignments: vec![0, 1],
            counters: Default::default(),
            trajectory: Vec::new(),
        };
        write_snapshot(&stream, &snapshot).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        let err = PartitionState::resume(&job(2), &mut stream, &[]).unwrap_err();
        assert!(err.to_string().contains("not symmetric"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_with_wrong_trace_is_rejected() {
        let dir = std::env::temp_dir().join("oms-dynamic-test-badtrace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("service.oms");
        let graph = er_graph(80, 21);
        write_stream_file(&graph, &path).unwrap();

        let spec = job(2);
        let mut stream = DiskStream::open(&path).unwrap();
        let mut service = PartitionState::new(&spec, &mut stream).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let batch = random_batch(&service, &mut rng, 20);
        service.apply(&batch).unwrap();
        service.save(&stream).unwrap();
        drop(service);

        let mut stream = DiskStream::open(&path).unwrap();
        // Too-short trace: fewer ops than the snapshot recorded.
        let err = PartitionState::resume(&spec, &mut stream, &[]).unwrap_err();
        assert!(err.to_string().contains("trace"), "{err}");
        // No snapshot at all.
        oms_graph::io::clear_snapshot(&stream).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        let err = PartitionState::resume(&spec, &mut stream, &[batch]).unwrap_err();
        assert!(err.to_string().contains("snapshot"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
