//! The traced run of one workload: the CLI's pipeline replayed in-process
//! through each layer's public functions under a root span `job`, then
//! isolating probes as further root spans. End-to-end metrics never come
//! from here.
//!
//! Only spec strings and the narrow public API are used, so that the
//! kernels, sinks and parallel engines behind them can be rewritten without
//! editing this file. A probe whose spec no longer parses leaves its metric
//! absent.

use crate::calib::Prober;
use crate::endtoend::{collect_rep, load_graph, run_cli, run_setup, Context};
use crate::metrics::{Outcome, Values};
use crate::stats::{median, spread};
use crate::trace::Tracer;
use crate::verify::{self, Tally};
use crate::workloads::{Input, Paths, Scale, Workload, DISTANCES};
use oms_core::api::stream_mapping_cost;
use oms_core::{stream_edge_cut, BlockId, DistanceSpec, HierarchySpec, JobSpec, Partitioner};
use oms_dynamic::PartitionState;
use oms_graph::io::{write_stream_file, DiskStream};
use oms_graph::{read_delta_trace, CsrGraph, InMemoryStream, NodeStream, DEFAULT_BATCH_SIZE};
use oms_obs::Stopwatch;
use std::io;
use std::path::Path;

/// Traced iterations go on until the run's seconds are used up, but at
/// least this many are taken, so that every per-layer number is a median
/// and `bench.wall_spread` has two reps to compare.
const MIN_ITERATIONS: usize = 2;

/// Spans of one iteration plus the numbers that are not durations.
struct Iteration {
    tracer: Tracer,
    /// Counts and ratios, by metric name.
    counts: Values,
    /// `PassStats::seconds` of the main job's trajectory.
    pass_seconds: Vec<f64>,
    num_nodes: usize,
    edge_entries: u64,
}

fn part_err(e: oms_core::PartitionError) -> String {
    e.to_string()
}

fn graph_err(e: oms_graph::GraphError) -> String {
    e.to_string()
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `spec` with one more `key=value` option.
fn with_option(spec: &str, option: &str) -> String {
    let separator = if spec.contains('@') { ',' } else { '@' };
    format!("{spec}{separator}{option}")
}

/// One pass over `stream` that only fills batches.
fn scan(stream: &mut dyn NodeStream) -> Result<u64, String> {
    let mut nodes = 0u64;
    stream
        .for_each_batch(DEFAULT_BATCH_SIZE, &mut |batch| {
            nodes += std::hint::black_box(batch).len() as u64;
        })
        .map_err(graph_err)?;
    Ok(nodes)
}

/// Runs `partitioner` over `stream` inside a span called `name`.
fn traced_partition(
    t: &mut Tracer,
    name: &'static str,
    partitioner: &dyn Partitioner,
    stream: &mut dyn NodeStream,
) -> Result<(oms_core::Partition, oms_core::PassTrajectory), String> {
    let nodes = stream.num_nodes() as u64;
    let span = t.enter(name);
    let result = partitioner.partition_tracked(stream).map_err(part_err)?;
    t.exit_counted(span, nodes, "nodes");
    Ok(result)
}

/// The scan probes shared by every workload.
fn scan_probes(t: &mut Tracer, graph: &CsrGraph, stream_file: &Path) -> Result<(), String> {
    let span = t.enter("graph.scan_mem");
    let nodes = scan(&mut InMemoryStream::new(graph))?;
    t.exit_counted(span, nodes, "nodes");
    let bytes = file_len(stream_file)?;
    let span = t.enter("graph.scan_disk");
    scan(&mut DiskStream::open(stream_file).map_err(graph_err)?)?;
    t.exit_counted(span, bytes, "bytes");
    Ok(())
}

/// `partition` / `map`: build → load → partition → measure → mapping cost,
/// as `Partitioner::run` does behind the CLI, then the probes.
fn static_iteration(
    w: &Workload,
    paths: &Paths,
    stream_file: &Path,
    reference: &[BlockId],
    tally: &mut Tally,
) -> Result<Iteration, String> {
    let mut t = Tracer::new();
    let mut counts = Values::new();
    let graph_bytes = file_len(&paths.graph)?;

    let job_span = t.enter("job");
    let span = t.enter("core.api_build");
    let partitioner = JobSpec::parse(w.spec)
        .and_then(|job| job.build())
        .map_err(part_err)?;
    t.exit(span);
    let span = t.enter("graph.load");
    let graph = load_graph(w.input, paths)?;
    t.exit_counted(span, graph_bytes, "bytes");
    let (partition, trajectory) = traced_partition(
        &mut t,
        "core.partition",
        partitioner.as_ref(),
        &mut InMemoryStream::new(&graph),
    )?;
    let assignments = partition.assignments();
    let mut measured = false;
    if trajectory.final_edge_cut().is_none() {
        let span = t.enter("core.measure");
        stream_edge_cut(&mut InMemoryStream::new(&graph), assignments).map_err(part_err)?;
        t.exit(span);
        measured = true;
    }
    let mut costed = false;
    if let Some((hierarchy, distances)) = partitioner.topology() {
        let span = t.enter("core.mapping_cost");
        stream_mapping_cost(
            &mut InMemoryStream::new(&graph),
            assignments,
            hierarchy,
            distances,
        )
        .map_err(part_err)?;
        t.exit(span);
        costed = true;
    }
    t.exit(job_span);
    tally.record(verify::identical(
        "in-process vs CLI",
        reference,
        assignments,
    ));

    scan_probes(&mut t, &graph, stream_file)?;
    let (on_disk, _) = traced_partition(
        &mut t,
        "core.partition_disk",
        partitioner.as_ref(),
        &mut DiskStream::open(stream_file).map_err(graph_err)?,
    )?;
    tally.record(verify::identical(
        "disk stream vs memory stream",
        assignments,
        on_disk.assignments(),
    ));
    let floor = JobSpec::parse(&format!("hashing:{}", w.k))
        .and_then(|job| job.build())
        .map_err(part_err)?;
    traced_partition(
        &mut t,
        "core.floor",
        floor.as_ref(),
        &mut InMemoryStream::new(&graph),
    )?;
    if !measured {
        let span = t.enter("core.measure");
        stream_edge_cut(&mut InMemoryStream::new(&graph), assignments).map_err(part_err)?;
        t.exit(span);
    }
    if !costed {
        let span = t.enter("core.mapping_cost");
        stream_mapping_cost(
            &mut InMemoryStream::new(&graph),
            assignments,
            &HierarchySpec::parse(w.hierarchy).map_err(part_err)?,
            &DistanceSpec::parse(DISTANCES).map_err(part_err)?,
        )
        .map_err(part_err)?;
        t.exit(span);
    }
    // The parallel knobs are reached through spec strings only; a spec that
    // no longer parses or builds is an absent metric, not a failure.
    for (name, option) in [("core.threads2", "threads=2"), ("core.shards2", "shards=2")] {
        let built = JobSpec::parse(&with_option(w.spec, option)).and_then(|job| job.build());
        if let Ok(parallel) = built {
            traced_partition(
                &mut t,
                name,
                parallel.as_ref(),
                &mut InMemoryStream::new(&graph),
            )?;
        }
    }
    {
        let (core, guard) = oms_obs::recording(oms_obs::DEFAULT_CAPACITY);
        let recorded = traced_partition(
            &mut t,
            "obs.recorded_partition",
            partitioner.as_ref(),
            &mut InMemoryStream::new(&graph),
        );
        drop(guard);
        let (recorded, _) = recorded?;
        counts.insert("obs.events", core.recorded() as f64);
        tally.record(verify::identical(
            "recorded vs plain run",
            assignments,
            recorded.assignments(),
        ));
    }
    Ok(Iteration {
        tracer: t,
        counts,
        pass_seconds: trajectory.stats.iter().map(|s| s.seconds).collect(),
        num_nodes: graph.num_nodes(),
        edge_entries: 2 * graph.num_edges() as u64,
    })
}

/// `apply-deltas`: build → load → parse trace → initial partition → one
/// `apply` per batch, then the snapshot probes.
fn dynamic_iteration(
    w: &Workload,
    paths: &Paths,
    reference: &[BlockId],
    tally: &mut Tally,
) -> Result<Iteration, String> {
    let mut t = Tracer::new();
    let mut counts = Values::new();
    let graph_bytes = file_len(&paths.graph)?;
    let delta_bytes = file_len(&paths.deltas)?;

    let job_span = t.enter("job");
    let span = t.enter("core.api_build");
    let job = JobSpec::parse(w.spec).map_err(part_err)?;
    t.exit(span);
    let span = t.enter("graph.load");
    let graph = load_graph(w.input, paths)?;
    t.exit_counted(span, graph_bytes, "bytes");
    let span = t.enter("graph.delta_parse");
    let batches = read_delta_trace(&paths.deltas).map_err(graph_err)?;
    t.exit_counted(span, delta_bytes, "bytes");
    let span = t.enter("dynamic.init");
    let mut state =
        PartitionState::new(&job, &mut InMemoryStream::new(&graph)).map_err(part_err)?;
    t.exit_counted(span, graph.num_nodes() as u64, "nodes");
    let apply_span = t.enter("dynamic.apply");
    let mut deltas = 0u64;
    for batch in &batches {
        let span = t.enter("dynamic.apply_batch");
        let stats = state.apply(batch).map_err(part_err)?;
        t.exit_counted(span, stats.deltas as u64, "deltas");
        deltas += stats.deltas as u64;
    }
    t.exit_counted(apply_span, deltas, "deltas");
    t.exit(job_span);
    tally.record(verify::identical(
        "in-process vs CLI",
        reference,
        state.assignments(),
    ));
    counts.insert("dynamic.full_restreams", state.counters().restreams as f64);

    scan_probes(&mut t, &graph, &paths.graph)?;
    // `save` appends a trailer to the stream file: give it a copy.
    let snapshot_file = paths.dir.join("snapshot.oms");
    std::fs::copy(&paths.graph, &snapshot_file).map_err(|e| e.to_string())?;
    let span = t.enter("dynamic.save");
    state
        .save(&DiskStream::open(&snapshot_file).map_err(graph_err)?)
        .map_err(part_err)?;
    let snapshot_bytes = file_len(&snapshot_file)? - graph_bytes;
    t.exit_counted(span, snapshot_bytes, "bytes");
    counts.insert("dynamic.snapshot_bytes", snapshot_bytes as f64);
    let span = t.enter("dynamic.resume");
    let mut disk = DiskStream::open(&snapshot_file).map_err(graph_err)?;
    let (resumed, _) = PartitionState::resume(&job, &mut disk, &batches).map_err(part_err)?;
    t.exit(span);
    tally.record(verify::identical(
        "resumed vs live state",
        state.assignments(),
        resumed.assignments(),
    ));
    let edge_entries = 2 * state.graph_stream().num_edges() as u64;
    Ok(Iteration {
        tracer: t,
        counts,
        pass_seconds: Vec::new(),
        num_nodes: state.assignments().len(),
        edge_entries,
    })
}

/// Turns one iteration's spans into metric values. `factor` is the
/// iteration's calibration factor (calibrated / raw), applied to every
/// duration before rates are derived from it.
fn derive(w: &Workload, it: &Iteration, factor: f64) -> Values {
    let t = &it.tracer;
    let mut v = it.counts.clone();
    let secs = |name: &str| t.seconds_of(name).map(|s| s * factor);
    for (metric, span) in [
        ("graph.load_s", "graph.load"),
        ("graph.scan_mem_s", "graph.scan_mem"),
        ("graph.scan_disk_s", "graph.scan_disk"),
        ("graph.delta_parse_s", "graph.delta_parse"),
        ("core.api_build_s", "core.api_build"),
        ("core.partition_s", "core.partition"),
        ("core.partition_disk_s", "core.partition_disk"),
        ("core.floor_s", "core.floor"),
        ("core.measure_s", "core.measure"),
        ("core.mapping_cost_s", "core.mapping_cost"),
        ("core.threads2_s", "core.threads2"),
        ("core.shards2_s", "core.shards2"),
        ("obs.recorded_partition_s", "obs.recorded_partition"),
        ("dynamic.init_s", "dynamic.init"),
        ("dynamic.apply_s", "dynamic.apply"),
        ("dynamic.save_s", "dynamic.save"),
        ("dynamic.resume_s", "dynamic.resume"),
    ] {
        if let Some(s) = secs(span) {
            v.insert(metric, s);
        }
    }
    let mib = |span: &str| t.find(span).map(|s| s.count as f64 / (1u64 << 20) as f64);
    for (metric, span) in [
        ("graph.load_mib_per_s", "graph.load"),
        ("graph.scan_disk_mib_per_s", "graph.scan_disk"),
    ] {
        if let (Some(mib), Some(s)) = (mib(span), secs(span)) {
            v.insert(metric, mib / s);
        }
    }
    if let (Some(partition), Some(floor)) = (secs("core.partition"), secs("core.floor")) {
        let passes = it.pass_seconds.len().max(1);
        let in_passes: f64 = it.pass_seconds.iter().sum::<f64>() * factor;
        if let Some((first, later)) = it.pass_seconds.split_first() {
            v.insert("core.pass_first_s", first * factor);
            v.insert("core.pass_later_s", later.iter().sum::<f64>() * factor);
            v.insert("core.pass_metric_s", partition - in_passes);
        }
        // Scoring = what the job costs beyond the drive loop + commit that
        // hashing also pays, per pass actually run.
        let score = if passes > 1 {
            in_passes - passes as f64 * floor
        } else {
            partition - floor
        };
        let candidates = f64::from(w.candidates_per_node);
        v.insert("core.score_s", score);
        v.insert("core.candidates_per_node", candidates);
        v.insert(
            "core.ns_per_candidate",
            score * 1e9 / (it.num_nodes as f64 * candidates * passes as f64),
        );
        v.insert(
            "core.ns_per_edge_entry",
            score * 1e9 / (it.edge_entries as f64 * passes as f64),
        );
        for (metric, span) in [
            ("core.threads2_speedup", "core.threads2"),
            ("core.shards2_speedup", "core.shards2"),
        ] {
            if let Some(parallel) = secs(span) {
                v.insert(metric, partition / parallel);
            }
        }
        if let Some(recorded) = secs("obs.recorded_partition") {
            v.insert("obs.overhead_frac", recorded / partition - 1.0);
        }
    }
    if let Some(apply) = t.find("dynamic.apply") {
        v.insert(
            "dynamic.deltas_per_s",
            apply.count as f64 / (apply.seconds() * factor),
        );
        let batch_ms: Vec<f64> = t
            .all("dynamic.apply_batch")
            .map(|s| s.seconds() * factor * 1e3)
            .collect();
        v.insert("dynamic.apply_batch_p50_ms", median(&batch_ms));
        v.insert(
            "dynamic.apply_batch_max_ms",
            batch_ms.iter().copied().fold(0.0, f64::max),
        );
    }
    v
}

/// Per-metric median over the iterations that report the metric.
fn medians(iterations: &[Values]) -> Values {
    let mut out = Values::new();
    for name in iterations.iter().flat_map(|v| v.keys()) {
        let samples: Vec<f64> = iterations
            .iter()
            .filter_map(|v| v.get(name).copied())
            .collect();
        out.insert(*name, median(&samples));
    }
    out
}

pub fn run(
    ctx: &Context,
    w: &Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
) -> Result<Outcome, String> {
    let io_err = |e: io::Error| e.to_string();
    let paths = Paths::new(&ctx.work_root, w);
    let mut prober = Prober::new().map_err(io_err)?;
    run_setup(ctx, w, seed, scale).map_err(io_err)?;

    // Warm-up rep of the CLI: the reference output. Its cut and block range
    // are checked by the end-to-end run; here the CLI reps have to succeed
    // and agree with each other, and the in-process runs have to reproduce
    // them.
    let mut reference = None;
    let warm = run_cli(ctx, w, &paths).map_err(io_err)?;
    let mut reps = vec![collect_rep(&paths, warm, 0.0, &mut reference)];
    let reference_assignments =
        verify::parse_assignments(reference.as_deref().expect("the warm-up rep set it"))?;

    // The disk probes need a stream file also when the job reads METIS.
    let stream_file = if w.input == Input::RmatMetis {
        let file = paths.dir.join("probe.oms");
        write_stream_file(&load_graph(w.input, &paths)?, &file).map_err(graph_err)?;
        file
    } else {
        paths.graph.clone()
    };

    // Each iteration runs the CLI and then the in-process replay, so that
    // `cli.residual_s` compares two measurements taken seconds apart, not
    // across the machine's drift.
    let mut tally = Tally::default();
    let clock = Stopwatch::start();
    let mut per_iteration = Vec::new();
    let mut residual = Vec::new();
    let mut jsonl = Vec::new();
    loop {
        let round = Stopwatch::start();
        let (usage, _, cli_cal) = prober
            .around(|| run_cli(ctx, w, &paths).map(|u| (u, u.wall_s)))
            .map_err(io_err)?;
        reps.push(collect_rep(&paths, usage, cli_cal, &mut reference));
        let (it, raw_s, cal_s) = prober
            .around(|| {
                let clock = Stopwatch::start();
                let it = if w.input == Input::ErStreamWithDeltas {
                    dynamic_iteration(w, &paths, &reference_assignments, &mut tally)
                } else {
                    static_iteration(w, &paths, &stream_file, &reference_assignments, &mut tally)
                };
                it.map(|it| (it, clock.seconds())).map_err(io::Error::other)
            })
            .map_err(io_err)?;
        it.tracer
            .write_jsonl(&mut jsonl, w.name, per_iteration.len())
            .map_err(io_err)?;
        let job_s = it
            .tracer
            .seconds_of("job")
            .expect("every iteration has a job span");
        residual.push(usage.wall_s - job_s);
        per_iteration.push(derive(w, &it, cal_s / raw_s));
        // Another iteration only if it fits into the run's seconds.
        if per_iteration.len() >= MIN_ITERATIONS && clock.seconds() + round.seconds() > seconds {
            break;
        }
    }
    for (i, rep) in reps.iter().enumerate() {
        tally.record(rep.failure(i));
    }
    let trace_file = ctx.work_root.join(format!("trace-{}.jsonl", w.name));
    std::fs::write(&trace_file, &jsonl).map_err(io_err)?;

    let mut values = medians(&per_iteration);
    let timed = &reps[1..];
    let raw: Vec<f64> = timed.iter().map(|r| r.usage.wall_s).collect();
    let cal: Vec<f64> = timed.iter().map(|r| r.calibrated_s).collect();
    let cpu: Vec<f64> = timed.iter().map(|r| r.usage.cpu_s).collect();
    values.insert("cli.wall_raw_s", median(&raw));
    values.insert("cli.cpu_s", median(&cpu));
    // What the in-process replay does not see: process start, flag parsing,
    // report printing, the assignment write and teardown.
    values.insert("cli.residual_s", median(&residual));
    values.insert("bench.calib_s", median(&prober.samples));
    values.insert("bench.wall_spread", spread(&cal));
    values.insert("bench.trace_total_s", clock.seconds());
    for reason in &tally.reasons {
        eprintln!("FAILED {}: {reason}", w.name);
    }
    eprintln!(
        "{}: {} traced iterations, {} spans in {}",
        w.name,
        per_iteration.len(),
        jsonl.iter().filter(|&&b| b == b'\n').count(),
        trace_file.display()
    );
    Ok(Outcome { values, tally })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_are_appended_with_the_right_separator() {
        assert_eq!(
            with_option("fennel:1024", "threads=2"),
            "fennel:1024@threads=2"
        );
        assert_eq!(
            with_option("oms:4:4:4@passes=4", "shards=2"),
            "oms:4:4:4@passes=4,shards=2"
        );
    }

    #[test]
    fn medians_skip_iterations_that_lack_a_metric() {
        let a = Values::from([("core.partition_s", 1.0), ("core.shards2_s", 4.0)]);
        let b = Values::from([("core.partition_s", 3.0)]);
        let c = Values::from([("core.partition_s", 2.0)]);
        let m = medians(&[a, b, c]);
        assert_eq!(m["core.partition_s"], 2.0);
        assert_eq!(m["core.shards2_s"], 4.0);
    }
}
