//! Churn suite for the dynamic maintenance layer (`oms-dynamic`): on
//! er/ba/rmat graphs at fixed seeds, the incrementally maintained partition
//! must stay within a committed factor of a cold restream of the same graph
//! state at *every* checkpoint, a snapshotted service must resume
//! byte-identically, and (in release builds, where timing means something)
//! applying deltas must be at least 5× cheaper than restreaming at every
//! checkpoint.

use oms::gen::RmatParams;
use oms::graph::io::{write_stream_file, DiskStream};
use oms::graph::NodeId;
use oms::prelude::*;

/// The committed quality bound: incremental cut ≤ `CUT_FACTOR` × the
/// cold-restream cut at every checkpoint.
const CUT_FACTOR: f64 = 2.0;

/// Committed cost bound (release builds): the whole churn trace applies at
/// least this many times faster than restreaming at every checkpoint.
const MIN_SPEEDUP: f64 = 5.0;

fn corpus() -> Vec<(&'static str, CsrGraph, ChurnScheme, JobSpec)> {
    vec![
        (
            "er",
            erdos_renyi_gnm(600, 2400, 11),
            ChurnScheme::Uniform,
            "fennel:8".parse().unwrap(),
        ),
        (
            "ba",
            barabasi_albert(600, 4, 12),
            ChurnScheme::CommunityDrift { communities: 6 },
            "ldg:8".parse().unwrap(),
        ),
        (
            "rmat",
            rmat_graph(9, 2400, RmatParams::GRAPH500, 13),
            ChurnScheme::Burst { window: 0.08 },
            "fennel:8@repair=local".parse().unwrap(),
        ),
    ]
}

fn run_churn(
    graph: &CsrGraph,
    scheme: ChurnScheme,
    job: &JobSpec,
    batches: usize,
    ops: usize,
    seed: u64,
) -> (PartitionState, Vec<WindowStats>) {
    let trace = churn_trace(
        graph,
        &ChurnConfig {
            scheme,
            batches,
            ops_per_batch: ops,
            seed,
            ..ChurnConfig::default()
        },
    );
    let mut state = PartitionState::new(job, &mut InMemoryStream::new(graph)).unwrap();
    // The job's `window=` knob drives the one checkpoint loop (the one
    // `apply-deltas` runs), so the final batch is always compared even when
    // the trace length is not a multiple of it.
    let checkpoints = state
        .drive_windows(&trace, |state, window| {
            window.reference = Some(state.cold_restream_reference()?);
            Ok(())
        })
        .unwrap();
    (state, checkpoints)
}

/// At every checkpoint of every corpus entry, the incrementally maintained
/// cut stays within [`CUT_FACTOR`] of a cold restream of the current graph,
/// and the balance constraint does not silently erode.
#[test]
fn churn_quality_tracks_cold_restream() {
    for (name, graph, scheme, job) in corpus() {
        let (state, checkpoints) = run_churn(&graph, scheme, &job, 6, 60, 0xD1CE);
        assert_eq!(checkpoints.len(), 6, "{name}: one checkpoint per batch");
        for c in &checkpoints {
            assert!(
                c.cut_ratio() <= CUT_FACTOR,
                "{name}: checkpoint {} cut {} exceeds {CUT_FACTOR}x the cold-restream cut {}",
                c.checkpoint,
                c.edge_cut,
                c.reference.unwrap().edge_cut
            );
            assert!(
                c.imbalance <= 0.25,
                "{name}: checkpoint {} imbalance {} out of bounds",
                c.checkpoint,
                c.imbalance
            );
        }
        assert!(
            state.counters().deltas_applied > 0,
            "{name}: trace applied no deltas"
        );
    }
}

/// Regression: when the trace length is not a multiple of the window
/// cadence, the final partial window still closes with a checkpoint, so no
/// trailing deltas escape the quality comparison. (The old hard-coded
/// cadence compared after every batch and could not express this case at
/// all; the shared [`Checkpoints`] cadence of the one checkpoint loop pins
/// the corrected rule.)
#[test]
fn partial_final_window_still_checkpoints() {
    let graph = erdos_renyi_gnm(400, 1_600, 31);
    let job: JobSpec = "fennel:8@window=4".parse().unwrap();
    let (state, checkpoints) = run_churn(&graph, ChurnScheme::Uniform, &job, 6, 40, 0xACE5);
    // 6 batches at window 4 close after batches 4 and 6 — the helper and
    // the observed comparisons must agree.
    assert_eq!(checkpoints.len(), Checkpoints::every(4).count(6));
    assert_eq!(checkpoints.len(), 2);
    let compared: usize = checkpoints.iter().map(|c| c.deltas).sum();
    assert_eq!(
        compared as u64,
        state.counters().deltas_applied,
        "every applied delta must fall inside some compared window"
    );
}

/// Exceeding the drift threshold falls back to a full restream, and the
/// fallback resets the drift measure.
#[test]
fn drift_fallback_restreams_and_resets() {
    let graph = erdos_renyi_gnm(600, 2400, 11);
    let job: JobSpec = "fennel:8@drift=0.000001".parse().unwrap();
    let (state, _) = run_churn(&graph, ChurnScheme::Uniform, &job, 3, 40, 0xD1CE);
    assert!(
        state.counters().restreams > 0,
        "a near-zero drift threshold must trigger restream fallbacks"
    );
    assert!(
        state.drift() <= 1.0,
        "drift is reset by the fallback, got {}",
        state.drift()
    );
}

/// A service killed after a snapshot resumes byte-identically: same
/// assignments, same cut, same counters as a service that never stopped.
#[test]
fn snapshot_resume_is_byte_identical_across_restarts() {
    let graph = erdos_renyi_gnm(500, 2000, 21);
    let job: JobSpec = "fennel:6".parse().unwrap();
    let trace = churn_trace(
        &graph,
        &ChurnConfig {
            scheme: ChurnScheme::CommunityDrift { communities: 5 },
            batches: 4,
            ops_per_batch: 50,
            seed: 0xBEEF,
            ..ChurnConfig::default()
        },
    );
    let dir = std::env::temp_dir().join(format!("oms_dynamic_quality_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("service.oms");
    write_stream_file(&graph, &path).unwrap();

    // The control service never stops.
    let mut control = PartitionState::new(&job, &mut InMemoryStream::new(&graph)).unwrap();
    for batch in &trace {
        control.apply(batch).unwrap();
    }

    // The disk-backed service applies half the trace, snapshots, dies, and
    // a fresh process resumes it.
    let mut disk = DiskStream::open(&path).unwrap();
    let mut service = PartitionState::new(&job, &mut disk).unwrap();
    for batch in &trace[..2] {
        service.apply(batch).unwrap();
    }
    service.save(&disk).unwrap();
    drop(service);
    drop(disk);

    let mut disk = DiskStream::open(&path).unwrap();
    let (mut resumed, cursor) = PartitionState::resume(&job, &mut disk, &trace).unwrap();
    assert_eq!((cursor.batch, cursor.op), (2, 0));
    for batch in &trace[cursor.batch..] {
        resumed.apply(batch).unwrap();
    }

    assert_eq!(resumed.assignments(), control.assignments());
    assert_eq!(resumed.edge_cut(), control.edge_cut());
    assert_eq!(resumed.counters(), control.counters());
    std::fs::remove_dir_all(&dir).ok();
}

/// Release-gated cost bound: applying the whole churn trace is at least
/// [`MIN_SPEEDUP`]× faster than restreaming the graph at every checkpoint.
/// Debug builds skip the assertion — unoptimised timings measure the build
/// profile, not the algorithm.
#[test]
fn incremental_apply_is_at_least_5x_faster_than_restreaming() {
    if cfg!(debug_assertions) {
        return;
    }
    let graph = erdos_renyi_gnm(20_000, 80_000, 31);
    // A huge drift threshold isolates the repair path: no fallbacks, so the
    // timing compares pure delta ingestion against full restreams.
    let job: JobSpec = "fennel:16@drift=1000000000".parse().unwrap();
    let (state, checkpoints) = run_churn(&graph, ChurnScheme::Uniform, &job, 5, 200, 0xFA57);
    assert_eq!(state.counters().restreams, 0);
    let speedup = repair_vs_restream_speedup(&checkpoints);
    assert!(
        speedup >= MIN_SPEEDUP,
        "delta ingestion is only {speedup:.1}x faster than restreaming"
    );
}

/// FNV-1a over the maintained assignment, each block id as four
/// little-endian bytes, then the cut as eight.
fn state_digest(state: &PartitionState) -> u64 {
    let bytes = state
        .assignments()
        .iter()
        .flat_map(|b| b.to_le_bytes())
        .chain(state.edge_cut().to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Applies `trace` batch by batch; with `upgrade`, a batch of one weight-3
/// edge insert goes in after the first half of the trace, between the
/// first two live ids `u < v` that are not adjacent and that no later
/// insert names.
fn maintain(graph: &CsrGraph, trace: &[DeltaBatch], job: &str, upgrade: bool) -> PartitionState {
    let job: JobSpec = job.parse().unwrap();
    let mut state = PartitionState::new(&job, &mut InMemoryStream::new(graph)).unwrap();
    let mid = trace.len() / 2;
    for batch in &trace[..mid] {
        state.apply(batch).unwrap();
    }
    if upgrade {
        let later: Vec<(NodeId, NodeId)> = trace[mid..]
            .iter()
            .flat_map(|batch| batch.iter())
            .filter_map(|delta| match delta {
                Delta::EdgeInsert { u, v, .. } => Some((u.min(v), u.max(v))),
                _ => None,
            })
            .collect();
        let g = state.graph();
        let live = (0..g.id_space() as NodeId).filter(|&v| g.is_alive(v));
        let (u, v) = live
            .clone()
            .flat_map(|u| live.clone().filter(move |&v| u < v).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(u, v) && !later.contains(&(u, v)))
            .unwrap();
        let mut batch = DeltaBatch::new();
        batch.insert_edge(u, v, 3);
        state.apply(&batch).unwrap();
    }
    for batch in &trace[mid..] {
        state.apply(batch).unwrap();
    }
    state
}

/// The maintained partition is pinned bit for bit: the digest of the
/// assignment and the final cut after a full drift-churn trace, for
/// `fennel` and `ldg` under `repair=boundary` and `repair=off`, on a unit
/// ER graph, on the same graph with degree-proportional edge weights, and
/// on the unit graph with one weight-3 edge insert in the middle of its
/// trace. How the graph stores its adjacency must not move any of them.
/// (On the unit graph `fennel` and `ldg` place every node alike, so their
/// `repair=off` digests agree there.)
#[test]
fn maintained_partition_is_pinned() {
    let unit = erdos_renyi_gnm(3_000, 12_000, 17);
    let weighted = WeightScheme::Edges.apply(&unit, 17);
    let trace_of = |graph: &CsrGraph| {
        churn_trace(
            graph,
            &ChurnConfig {
                scheme: ChurnScheme::CommunityDrift { communities: 8 },
                batches: 8,
                ops_per_batch: 250,
                seed: 0x5EED,
                ..ChurnConfig::default()
            },
        )
    };
    let (unit_trace, weighted_trace) = (trace_of(&unit), trace_of(&weighted));
    let pins: [(&str, [u64; 3]); 4] = [
        (
            "fennel:16@repair=boundary",
            [
                0xb735_b769_7dc1_bbc5,
                0x1424_cc72_cc34_9698,
                0x91aa_dd27_a36d_a36a,
            ],
        ),
        (
            "fennel:16@repair=off",
            [
                0x1498_d235_d213_b16a,
                0x822b_341b_4291_bac5,
                0xb7a8_7d1a_b145_d307,
            ],
        ),
        (
            "ldg:16@repair=boundary",
            [
                0xa5a9_7918_1f16_7de7,
                0x0ebc_da58_c1bb_b4a4,
                0xe07e_4183_40b9_e1ae,
            ],
        ),
        (
            "ldg:16@repair=off",
            [
                0x1498_d235_d213_b16a,
                0x5eb3_3f55_bf61_cb4b,
                0xb7a8_7d1a_b145_d307,
            ],
        ),
    ];
    for (job, digests) in pins {
        let got = [
            maintain(&unit, &unit_trace, job, false),
            maintain(&weighted, &weighted_trace, job, false),
            maintain(&unit, &unit_trace, job, true),
        ]
        .map(|state| state_digest(&state));
        assert_eq!(got, digests, "{job}: unit, edge-weighted, upgraded");
    }
}
