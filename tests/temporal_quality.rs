//! Temporal workload suite: quality **over time** under realistic churn.
//!
//! The temporal generators (`oms-gen`'s preferential attachment, community
//! drift and burst arrivals) produce timestamped delta traces; the dynamic
//! maintenance layer ingests them through the one checkpoint loop
//! ([`PartitionState::drive_windows`] on the [`Checkpoints`] cadence). At
//! every window close the suite pins:
//!
//! * **cut tracking** — the incrementally maintained cut stays within a
//!   committed factor of a cold restream of the same graph state, so
//!   quality cannot silently erode as the graph evolves;
//! * **curve agreement** — the checkpoint loop's curve matches a
//!   hand-rolled apply loop field for field;
//! * **monotone counters** — cumulative drift counters only ever grow, and
//!   every traced operation is accounted for;
//! * **served quality over time** (release builds) — replaying a Zipf
//!   workload against the maintained partition at every checkpoint keeps
//!   p99 latency under a committed ceiling for the whole trace.

use oms::gen::RmatParams;
use oms::prelude::*;

/// Incremental cut ≤ `CUT_FACTOR` × the cold-restream cut at every window.
const CUT_FACTOR: f64 = 2.0;

/// Release-gated ceiling on replay p99 latency at every checkpoint,
/// per temporal scheme (measured max plus ~15 % headroom).
const P99_CEILINGS: &[(&str, u64)] = &[("pa", 140), ("drift", 140), ("burst", 140)];

fn corpus() -> Vec<(&'static str, CsrGraph, TemporalScheme)> {
    vec![
        (
            "pa",
            barabasi_albert(600, 4, 12),
            TemporalScheme::PreferentialAttachment { edges_per_node: 3 },
        ),
        (
            "drift",
            erdos_renyi_gnm(600, 2_400, 11),
            TemporalScheme::CommunityDrift { communities: 6 },
        ),
        (
            "burst",
            rmat_graph(9, 2_400, RmatParams::GRAPH500, 13),
            TemporalScheme::BurstArrivals { period: 4 },
        ),
    ]
}

fn trace_for(graph: &CsrGraph, scheme: TemporalScheme) -> Vec<oms::graph::DeltaBatch> {
    temporal_trace(
        graph,
        &TemporalConfig {
            scheme,
            batches: 8,
            ops_per_batch: 64,
            seed: 0x7E4A,
            ..TemporalConfig::default()
        },
    )
}

fn job() -> JobSpec {
    "fennel:8@window=2".parse().unwrap()
}

/// At every sliding-window checkpoint of every temporal scheme, the
/// incrementally maintained cut stays within [`CUT_FACTOR`] of a cold
/// restream of the evolved graph, and balance does not erode.
#[test]
fn temporal_windows_track_cold_restream() {
    for (name, graph, scheme) in corpus() {
        let trace = trace_for(&graph, scheme);
        let job = job();
        let mut state = PartitionState::new(&job, &mut InMemoryStream::new(&graph)).unwrap();
        let curve = state
            .drive_windows(&trace, |state, window| {
                window.reference = Some(state.cold_restream_reference()?);
                Ok(())
            })
            .unwrap();
        for w in &curve {
            let restream_cut = w.reference.unwrap().edge_cut;
            let bound = (restream_cut as f64 * CUT_FACTOR).max(1.0);
            assert!(
                (w.edge_cut as f64) <= bound,
                "{name}: window at batch {} cut {} exceeds {CUT_FACTOR}x \
                 the cold-restream cut {restream_cut}",
                w.batch_index,
                w.edge_cut
            );
            assert!(
                w.imbalance <= 0.25,
                "{name}: window at batch {} imbalance {} out of bounds",
                w.batch_index,
                w.imbalance
            );
        }
        assert_eq!(
            curve.len(),
            Checkpoints::every(job.window).count(trace.len()),
            "{name}: cadence helper and checkpoint loop disagree on window count"
        );
    }
}

/// `drive_windows`, the one checkpoint loop, against a hand-rolled apply
/// loop: same cadence, same deterministic per-window fields, every delta in
/// some window, and the last window closing on the last batch.
#[test]
fn drive_windows_matches_manual_apply_loop() {
    for (name, graph, scheme) in corpus() {
        let trace = trace_for(&graph, scheme);
        let job = job();

        // Manual loop, recording the deterministic fields at each window.
        let cadence = Checkpoints::every(job.window);
        let mut state = PartitionState::new(&job, &mut InMemoryStream::new(&graph)).unwrap();
        let mut manual = Vec::new();
        let mut window_deltas = 0usize;
        for (i, batch) in trace.iter().enumerate() {
            let stats = state.apply(batch).unwrap();
            window_deltas += stats.deltas;
            if cadence.is_checkpoint(i, trace.len()) {
                manual.push((
                    manual.len(),
                    i,
                    window_deltas,
                    state.edge_cut(),
                    state.imbalance(),
                ));
                window_deltas = 0;
            }
        }

        let mut fresh = PartitionState::new(&job, &mut InMemoryStream::new(&graph)).unwrap();
        let curve = fresh.drive_windows(&trace, |_, _| Ok(())).unwrap();
        assert_eq!(curve.len(), manual.len(), "{name}: window counts differ");
        for (w, (checkpoint, batch_index, deltas, cut, imbalance)) in curve.iter().zip(&manual) {
            assert_eq!(w.checkpoint, *checkpoint, "{name}: checkpoint index");
            assert_eq!(w.batch_index, *batch_index, "{name}: batch index");
            assert_eq!(w.deltas, *deltas, "{name}: window delta count");
            assert_eq!(w.edge_cut, *cut, "{name}: window edge cut");
            assert_eq!(w.imbalance, *imbalance, "{name}: window imbalance");
            assert_eq!(w.reference, None, "{name}: nobody asked for a reference");
        }
        assert_eq!(
            curve.iter().map(|w| w.deltas).sum::<usize>(),
            trace.iter().map(DeltaBatch::len).sum::<usize>(),
            "{name}: every delta falls in some window"
        );
        assert_eq!(curve.last().unwrap().batch_index, trace.len() - 1);
    }
}

/// Cumulative drift counters are monotone across the whole trace, and the
/// final tally accounts for every traced operation.
#[test]
fn drift_counters_are_monotone_and_complete() {
    for (name, graph, scheme) in corpus() {
        let trace = trace_for(&graph, scheme);
        let mut state = PartitionState::new(&job(), &mut InMemoryStream::new(&graph)).unwrap();
        let mut prev = state.counters();
        assert_eq!(prev.deltas_applied, 0, "{name}: fresh service starts at 0");
        for batch in &trace {
            state.apply(batch).unwrap();
            let now = state.counters();
            assert!(
                now.deltas_applied > prev.deltas_applied,
                "{name}: deltas_applied must strictly grow per non-empty batch"
            );
            assert!(
                now.restreams >= prev.restreams,
                "{name}: restream count can never shrink"
            );
            prev = now;
        }
        let total_ops: u64 = trace.iter().map(|b| b.len() as u64).sum();
        assert_eq!(
            prev.deltas_applied, total_ops,
            "{name}: every traced op must be applied exactly once"
        );
    }
}

/// Release-gated: the *served* quality curve. At every window checkpoint a
/// fixed Zipf workload replays against the maintained partition; p99
/// simulated latency must stay under the committed per-scheme ceiling for
/// the entire trace. Debug builds skip it for runtime, not determinism —
/// the replay itself is integer-tick exact in both profiles.
#[test]
fn replay_p99_stays_bounded_across_windows() {
    if cfg!(debug_assertions) {
        return;
    }
    let replay_config = ReplayConfig {
        requests: 1_000,
        ..ReplayConfig::default()
    };
    for (name, graph, scheme) in corpus() {
        let ceiling = P99_CEILINGS
            .iter()
            .find(|(s, _)| *s == name)
            .map(|(_, p)| *p)
            .unwrap();
        let trace = trace_for(&graph, scheme);
        let mut state = PartitionState::new(&job(), &mut InMemoryStream::new(&graph)).unwrap();
        state
            .drive_windows(&trace, |state, window| {
                let i = window.batch_index;
                let assignments = state.assignments().to_vec();
                let report =
                    replay_stream(state.graph_stream(), &assignments, &replay_config).unwrap();
                println!(
                    "{name}: batch {i} replay p99 {} (<= {ceiling}), hop rate {:.4}",
                    report.p99_latency,
                    report.cross_block_hop_rate()
                );
                assert!(
                    report.p99_latency <= ceiling,
                    "{name}: replay p99 {} at batch {i} exceeds ceiling {ceiling}",
                    report.p99_latency
                );
                Ok(())
            })
            .unwrap();
    }
}
