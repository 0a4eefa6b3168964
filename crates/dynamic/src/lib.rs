//! # oms-dynamic
//!
//! Dynamic-graph partition maintenance: a long-lived service layer that
//! keeps a streaming partition valid while the graph changes underneath it.
//!
//! The streaming partitioners of `oms-core` answer "partition this graph
//! once"; this crate answers "*keep* it partitioned". A
//! [`PartitionState`] runs a registered repair-capable algorithm (`fennel`
//! or `ldg`, see the `supports_repair` flag of
//! [`AlgorithmInfo`](oms_core::AlgorithmInfo)) once over the initial graph,
//! then ingests [`DeltaBatch`](oms_graph::DeltaBatch)es of edge/node
//! insertions and deletions:
//!
//! * the [`DynamicGraph`] holds the graph once, in one pooled `O(n + m)`
//!   adjacency slab built in a single pass straight off any
//!   [`NodeStream`](oms_graph::NodeStream) (`oms apply-deltas` hands it the
//!   METIS or `.oms` file itself); it absorbs each mutation and streams the
//!   live graph on demand;
//! * per-block loads, the boundary set and the edge cut are maintained
//!   incrementally, and touched nodes are re-scored in place (ReFennel
//!   steps under the live `L_max`) per the job's `repair=` policy — on
//!   reused scratch buffers, so a warm delta allocates nothing but slab
//!   growth;
//! * a drift metric triggers a seeded full-restream fallback through the
//!   multi-pass engine once the job's `drift=` threshold is exceeded;
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
    use oms_graph::{CsrGraph, DeltaBatch, InMemoryStream};
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

    /// The maintained cut must equal a from-scratch metric pass at all
    /// times — this is the invariant everything else (drift, fallback,
    /// snapshots) is built on.
    fn assert_cut_consistent(state: &mut PartitionState) {
        let maintained = state.edge_cut();
        let k = state.num_blocks();
        let assignments = state.assignments().to_vec();
        let (measured, _) = measure_pass(state.graph_stream(), &assignments, k).unwrap();
        assert_eq!(maintained, measured, "maintained cut diverged");
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
                    graph.delete_edge(u, v).unwrap();
                    batch.delete_edge(u, v);
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
        assert!(state.boundary_size() > 0);
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

    #[test]
    fn incremental_cut_stays_exact_under_churn() {
        for policy in [
            RepairPolicy::Off,
            RepairPolicy::Local,
            RepairPolicy::Boundary,
        ] {
            let graph = er_graph(150, 11);
            let mut spec = job(4);
            spec.repair = policy;
            spec.drift = 1e9; // never fall back: stress the incremental path
            let mut state = PartitionState::new(&spec, &mut InMemoryStream::new(&graph)).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            for _ in 0..8 {
                let batch = random_batch(&state, &mut rng, 40);
                state.apply(&batch).unwrap();
                assert_cut_consistent(&mut state);
            }
        }
    }

    #[test]
    fn boundary_set_stays_exact_under_churn() {
        let graph = er_graph(120, 5);
        let mut state = PartitionState::new(&job(3), &mut InMemoryStream::new(&graph)).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..6 {
            let batch = random_batch(&state, &mut rng, 30);
            state.apply(&batch).unwrap();
            let expected: usize = (0..state.graph().id_space() as u32)
                .filter(|&v| {
                    state.graph().is_alive(v) && {
                        let b = state.assignments()[v as usize];
                        let (nbrs, _) = state.graph().neighbors(v);
                        nbrs.iter().any(|&u| state.assignments()[u as usize] != b)
                    }
                })
                .count();
            assert_eq!(state.boundary_size(), expected);
        }
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

    #[test]
    fn inconsistent_deltas_are_typed_errors() {
        let mut state = state_over(50, 2, 2);

        let mut dup = DeltaBatch::new();
        let (nbrs, _) = state.graph().neighbors(0);
        let existing = nbrs.first().copied();
        if let Some(v) = existing {
            dup.insert_edge(0, v, 1);
            assert!(state.apply(&dup).is_err());
        }
        let mut missing = DeltaBatch::new();
        missing.delete_edge(0, 0);
        assert!(state.apply(&missing).is_err());

        let mut dead = DeltaBatch::new();
        dead.delete_node(49);
        state.apply(&dead).unwrap();
        let mut again = DeltaBatch::new();
        again.delete_node(49);
        assert!(state.apply(&again).is_err());

        // The maintained state is still sound after the failures.
        assert_cut_consistent(&mut state);
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
