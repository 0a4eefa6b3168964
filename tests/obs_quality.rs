//! Acceptance suite for the observability layer (`oms-obs`).
//!
//! Three properties are gated here:
//!
//! 1. **Trace determinism.** The recorded event trace is a pure function
//!    of `(stream, seed)`: the same run produces a byte-identical
//!    JSON-lines trace and an equal event-log hash no matter whether the
//!    stream comes from memory (natural or explicit order) or disk — for
//!    the flat engine, dynamic maintenance and traffic replay. Wall-clock
//!    never enters the trace, so this holds on any machine.
//! 2. **Bounded recording.** The flight recorder keeps the *newest*
//!    events when it overflows, counts the evicted ones, and the log hash
//!    still covers every event ever recorded.
//! 3. **Round-tripping.** A trace written by `--trace` parses back,
//!    recomputes to the footer's hash (`oms trace`'s check), and its
//!    counters reconcile with the `PartitionReport` of the run.
//!
//! Observability must also be *inert*: recording a run must not change
//! its result, and the disabled (default) observer must leave the engines
//! untouched — every `pipeline` job runs under it, so its cost is part of
//! each workload's `wall_cal_s`; `obs.overhead_frac` times the recording
//! observer against it.

use oms::graph::io::{write_stream_file, DiskStream};
use oms::obs::{self, CounterId, Event};
use oms::prelude::*;
use std::path::PathBuf;

fn temp_stream_file(graph: &CsrGraph, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("oms-obs-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    write_stream_file(graph, &path).unwrap();
    path
}

/// A second memory source: the natural order, given as a permutation.
fn identity_order(graph: &CsrGraph) -> InMemoryStream<'_> {
    InMemoryStream::with_permutation(graph, graph.nodes().collect())
}

/// Runs `f` under a fresh recording observer and returns its result plus
/// the JSON-lines trace and the event-log hash.
fn record<T>(f: impl FnOnce() -> T) -> (T, String, u64) {
    let (core, guard) = obs::recording(obs::DEFAULT_CAPACITY);
    let out = f();
    drop(guard);
    let hash = core.log_hash();
    (out, obs::trace_jsonl(&core), hash)
}

// ------------------------------------------------------------ determinism

#[test]
fn flat_trace_is_identical_across_sources() {
    register_multilevel_algorithms();
    let graph = planted_partition(600, 8, 0.1, 0.005, 11);
    let path = temp_stream_file(&graph, "flat-sources.oms");
    for spec in [
        "fennel:8@seed=3,passes=3",
        "ldg:8@seed=5,passes=2",
        "buffered:8@seed=3,buf=100,passes=3",
    ] {
        let job = JobSpec::parse(spec).unwrap();
        let run = |stream: &mut dyn NodeStream| {
            let partitioner = job.build().unwrap();
            record(|| partitioner.run(stream).unwrap())
        };
        let (report, memory, memory_hash) = run(&mut InMemoryStream::new(&graph));
        let (_, permuted, permuted_hash) = run(&mut identity_order(&graph));
        let (_, disk, disk_hash) = run(&mut DiskStream::open(&path).unwrap());
        assert_eq!(memory, permuted, "{spec}: permuted trace differs");
        assert_eq!(memory, disk, "{spec}: disk trace differs");
        assert_eq!(memory_hash, permuted_hash, "{spec}: permuted hash differs");
        assert_eq!(memory_hash, disk_hash, "{spec}: disk hash differs");
        // The trace records the job's own passes and nothing else: one
        // `pass_end` per accepted pass, the last one at the reported cut.
        let cuts: Vec<u64> = memory
            .lines()
            .filter(|line| line.contains("\"event\":\"pass_end\""))
            .map(|line| {
                let (_, rest) = line.split_once("\"edge_cut\":").unwrap();
                let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
                digits.unwrap().parse().unwrap()
            })
            .collect();
        assert_eq!(cuts.len(), report.trajectory.len(), "{spec}: {memory}");
        assert_eq!(cuts.last(), Some(&report.edge_cut), "{spec}: {memory}");
    }
}

#[test]
fn dynamic_trace_is_identical_across_sources() {
    let graph = planted_partition(500, 8, 0.1, 0.005, 11);
    let path = temp_stream_file(&graph, "dynamic-sources.oms");
    let job = JobSpec::parse("fennel:8@seed=3").unwrap().drift(0.15);
    let trace = churn_trace(
        &graph,
        &ChurnConfig {
            scheme: ChurnScheme::Uniform,
            batches: 5,
            ops_per_batch: 80,
            seed: 7,
            ..ChurnConfig::default()
        },
    );
    let run = |stream: &mut dyn NodeStream| {
        record(|| {
            let mut state = PartitionState::new(&job, stream).unwrap();
            for batch in &trace {
                state.apply(batch).unwrap();
            }
            state.edge_cut()
        })
    };
    let (memory_cut, memory, memory_hash) = run(&mut InMemoryStream::new(&graph));
    let (disk_cut, disk, disk_hash) = run(&mut DiskStream::open(&path).unwrap());
    assert_eq!(
        memory_cut, disk_cut,
        "maintained cut differs across sources"
    );
    assert_eq!(memory, disk, "dynamic trace differs across sources");
    assert_eq!(memory_hash, disk_hash);
    assert!(memory.contains("\"event\":\"delta_batch_applied\""));
}

#[test]
fn replay_trace_is_identical_across_sources() {
    let graph = planted_partition(500, 8, 0.1, 0.005, 11);
    let path = temp_stream_file(&graph, "replay-sources.oms");
    let partitioner = JobSpec::parse("fennel:8@seed=3").unwrap().build().unwrap();
    let assignments = partitioner
        .partition(&mut InMemoryStream::new(&graph))
        .unwrap()
        .assignments()
        .to_vec();
    let config = ReplayConfig {
        requests: 400,
        seed: 9,
        ..ReplayConfig::default()
    };
    let run = |stream: &mut dyn NodeStream| {
        record(|| {
            replay_stream(stream, &assignments, &config)
                .unwrap()
                .request_log_hash
        })
    };
    let (memory_req_hash, memory, memory_hash) = run(&mut InMemoryStream::new(&graph));
    let (permuted_req_hash, permuted, _) = run(&mut identity_order(&graph));
    let (disk_req_hash, disk, disk_hash) = run(&mut DiskStream::open(&path).unwrap());
    assert_eq!(memory, permuted, "replay trace differs from permuted");
    assert_eq!(memory, disk, "replay trace differs from disk source");
    assert_eq!(memory_hash, disk_hash);
    assert_eq!(memory_req_hash, permuted_req_hash);
    assert_eq!(memory_req_hash, disk_req_hash);
    assert!(memory.contains("\"event\":\"replay_summary\""));
}

// ------------------------------------------------------------ bounded ring

#[test]
fn ring_overflow_keeps_newest_events_and_counts_dropped() {
    let (core, guard) = obs::recording(8);
    let partitioner = JobSpec::parse("fennel:8@seed=3,passes=6")
        .unwrap()
        .build()
        .unwrap();
    let graph = planted_partition(400, 8, 0.1, 0.005, 11);
    partitioner.run(&mut InMemoryStream::new(&graph)).unwrap();
    drop(guard);

    assert!(
        core.recorded() > 8,
        "run must emit more events than the ring holds"
    );
    assert_eq!(core.dropped(), core.recorded() - 8);
    assert_eq!(core.counter(CounterId::EventsDropped), core.dropped());
    let events = core.events();
    assert_eq!(events.len(), 8);
    // Newest survive: the retained sequence numbers are the final ones.
    let first_kept = core.recorded() - 8;
    for (i, (seq, _)) in events.iter().enumerate() {
        assert_eq!(*seq, first_kept + i as u64);
    }
    // The hash covers evicted events too, so a truncated trace cannot
    // silently pose as complete: the summary skips verification.
    let summary = obs::summarize(&obs::trace_jsonl(&core)).unwrap();
    assert_eq!(summary.hash_verified(), None);
    assert_ne!(summary.recomputed_hash, core.log_hash());
}

// ------------------------------------------------------------ round-trip

#[test]
fn recorded_trace_round_trips_through_the_summary() {
    let graph = planted_partition(600, 8, 0.1, 0.005, 11);
    let partitioner = JobSpec::parse("fennel:8@seed=3,passes=3")
        .unwrap()
        .build()
        .unwrap();
    let (report, text, _) = record(|| partitioner.run(&mut InMemoryStream::new(&graph)).unwrap());
    let summary = obs::summarize(&text).expect("recorded trace parses back");
    assert_eq!(summary.hash_verified(), Some(true), "hash must recompute");
    assert_eq!(summary.retained as u64, summary.footer.unwrap().events);
    assert!(summary.nodes_scored >= graph.num_nodes() as u128);
    assert_eq!(
        summary.final_edge_cut,
        Some(report.edge_cut),
        "summary's final cut must match the report"
    );
}

#[test]
fn counters_reconcile_with_the_partition_report() {
    let graph = planted_partition(600, 8, 0.1, 0.005, 11);
    let (core, guard) = obs::recording(obs::DEFAULT_CAPACITY);
    let partitioner = JobSpec::parse("fennel:8@seed=3").unwrap().build().unwrap();
    let report = partitioner.run(&mut InMemoryStream::new(&graph)).unwrap();
    drop(guard);

    // Single pass, no reverts: every streamed node is scored exactly once.
    let n = graph.num_nodes() as u64;
    assert_eq!(report.partition.num_nodes() as u64, n);
    assert_eq!(core.counter(CounterId::NodesScored), n);
    let pass_nodes: u64 = core
        .events()
        .iter()
        .map(|&(_, e)| match e {
            Event::PassEnd { nodes, .. } => nodes,
            _ => 0,
        })
        .sum();
    assert_eq!(pass_nodes, n, "pass_end payloads must cover the stream");
    assert_eq!(core.counter(CounterId::RestreamPasses), 1);

    // The tree-descent kernel keeps the same books: one scored node per
    // streamed node and pass, drained at pass ends.
    let (core, guard) = obs::recording(obs::DEFAULT_CAPACITY);
    let partitioner = JobSpec::parse("oms:2:2:2@seed=3,passes=2")
        .unwrap()
        .build()
        .unwrap();
    let report = partitioner.run(&mut InMemoryStream::new(&graph)).unwrap();
    drop(guard);
    let passes = report.trajectory.len() as u64;
    assert_eq!(passes, 2, "both passes of the oms job must be accepted");
    assert_eq!(core.counter(CounterId::RestreamPasses), passes);
    assert_eq!(core.counter(CounterId::NodesScored), passes * n);
}

// ------------------------------------------------------------ inertness

#[test]
fn recording_does_not_perturb_the_partition() {
    let graph = planted_partition(600, 8, 0.1, 0.005, 11);
    let run = || {
        let partitioner = JobSpec::parse("fennel:8@seed=3,passes=3")
            .unwrap()
            .build()
            .unwrap();
        partitioner
            .partition(&mut InMemoryStream::new(&graph))
            .unwrap()
            .assignments()
            .to_vec()
    };
    let bare = run();
    let (recorded, _, _) = record(run);
    let (outer, outer_guard) = obs::recording(obs::DEFAULT_CAPACITY);
    let unobserved = {
        let _guard = obs::unobserved();
        run()
    };
    drop(outer_guard);
    assert_eq!(bare, recorded, "recording changed the partition");
    assert_eq!(
        bare, unobserved,
        "an unobserved scope changed the partition"
    );
    assert_eq!(
        outer.recorded(),
        0,
        "the unobserved run reached the recording"
    );
    assert!(
        !obs::is_enabled(),
        "guards must restore the disabled default"
    );
}

// ------------------------------------------------------------ histograms

#[test]
fn histogram_buckets_are_monotone_and_cover_every_value() {
    let mut previous_bound = None;
    for b in 0..obs::HIST_BUCKETS {
        let bound = obs::bucket_bound(b);
        if let Some(prev) = previous_bound {
            assert!(bound > prev, "bucket bounds must strictly increase");
        }
        previous_bound = Some(bound);
    }
    let mut previous_index = 0;
    for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX / 2, u64::MAX] {
        let index = obs::bucket_index(v);
        assert!(
            index >= previous_index,
            "bucket index must be monotone in v"
        );
        assert!(
            v <= obs::bucket_bound(index),
            "value must fall inside its bucket"
        );
        if index > 0 {
            assert!(
                v > obs::bucket_bound(index - 1),
                "value must exceed the bucket below"
            );
        }
        previous_index = index;
    }
}
