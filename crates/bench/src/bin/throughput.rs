//! Hot-path throughput benchmark: nodes/s and edges/s per algorithm × source.
//!
//! Measures the single-pass streaming rate of the flat partitioners
//! (hashing, LDG, Fennel, `k = 64`) over three stream sources:
//!
//! * **memory** — `InMemoryStream`, pure scoring-kernel throughput;
//! * **disk v2** — the interleaved per-field stream format, cold page cache;
//! * **disk v3** — the sectioned fixed-stride format decoded by bulk copy.
//!
//! An extra row scans the stream through the [`EdgesOf`] adapter (no
//! scoring), isolating raw edge-ingest throughput. Every partitioning run
//! asserts **byte-identical assignments** across the three sources, so the
//! throughput numbers can never drift apart from correctness.
//!
//! Results are printed as a table and recorded in `BENCH_throughput.json`
//! (committed — the repo's nodes/sec trajectory). The JSON always includes a
//! `quick_fennel_memory_nodes_per_s` field measured at the `--quick` scale,
//! so CI can compare a quick run against the committed full-scale file with
//! `--check-baseline`:
//!
//! ```text
//! cargo run --release -p oms-bench --bin throughput -- \
//!     [--quick] [--reps R] [--json FILE] [--check-baseline FILE]
//! ```
//!
//! `--check-baseline FILE` exits non-zero when the current same-scale Fennel
//! memory nodes/s falls more than 20% below the value recorded in `FILE`.

use oms_bench::BenchArgs;
use oms_core::{Fennel, Hashing, Ldg, OnePassConfig, StreamingPartitioner};
use oms_graph::io::{write_stream_file_with, DiskStream, StreamFormatVersion, StreamWriteOptions};
use oms_graph::{CsrGraph, EdgeStream, EdgesOf, InMemoryStream};
use oms_obs::Stopwatch;
use std::io::Write;

const K: u32 = 64;
/// Allowed relative drop of nodes/s vs the committed baseline.
const REGRESSION_TOLERANCE: f64 = 0.20;

/// Best-of-`reps` wall time of `f`, which returns the partition assignments
/// for the cross-source byte-equality check.
fn measure<F: FnMut() -> Vec<u32>>(reps: usize, mut f: F) -> (f64, Vec<u32>) {
    let mut best = f64::INFINITY;
    let mut assignments = Vec::new();
    for _ in 0..reps.max(1) {
        let clock = Stopwatch::start();
        assignments = f();
        best = best.min(clock.seconds());
    }
    (best, assignments)
}

/// Tries to flush and drop the page cache; returns whether it worked.
fn drop_page_cache() -> bool {
    let _ = std::process::Command::new("sync").status();
    std::fs::write("/proc/sys/vm/drop_caches", "3").is_ok()
}

fn write_version(graph: &CsrGraph, path: &std::path::Path, version: StreamFormatVersion) {
    let options = StreamWriteOptions {
        version,
        ..StreamWriteOptions::default()
    };
    write_stream_file_with(graph, path, options).expect("can write the stream file");
}

struct Row {
    label: String,
    seconds: f64,
    nodes_per_s: f64,
    edges_per_s: f64,
}

/// Extracts the number following `"key":` from a hand-formatted JSON report.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn flag_value(rest: &[String], flag: &str) -> Option<String> {
    rest.iter()
        .position(|a| a == flag)
        .and_then(|i| rest.get(i + 1).cloned())
}

/// One algorithm over the three sources; returns (rows, edge cut) and
/// asserts byte-identical assignments everywhere.
fn run_algorithm<P: StreamingPartitioner>(
    name: &str,
    algo: &P,
    graph: &CsrGraph,
    reps: usize,
    cold: bool,
    rows: &mut Vec<Row>,
) -> f64 {
    let n = graph.num_nodes() as f64;
    let m = graph.num_edges() as f64;
    let dir = std::env::temp_dir();

    let (mem_s, mem_assign) = measure(reps, || {
        algo.partition_stream(&mut InMemoryStream::new(graph))
            .unwrap()
            .assignments()
            .to_vec()
    });
    rows.push(Row {
        label: format!("{name} / memory"),
        seconds: mem_s,
        nodes_per_s: n / mem_s,
        edges_per_s: m / mem_s,
    });

    for version in [StreamFormatVersion::V2, StreamFormatVersion::V3] {
        let mut best = f64::INFINITY;
        for i in 0..reps.max(1) {
            let path = dir.join(format!("oms-bench-tp-{name}-{}-{i}.oms", version.number()));
            write_version(graph, &path, version);
            if cold {
                drop_page_cache();
            }
            let clock = Stopwatch::start();
            let assign = algo
                .partition_stream(&mut DiskStream::open(&path).unwrap())
                .unwrap()
                .assignments()
                .to_vec();
            best = best.min(clock.seconds());
            std::fs::remove_file(&path).ok();
            assert_eq!(
                assign,
                mem_assign,
                "{name}: v{} disk assignments must be byte-identical to memory",
                version.number()
            );
        }
        rows.push(Row {
            label: format!("{name} / disk v{}", version.number()),
            seconds: best,
            nodes_per_s: n / best,
            edges_per_s: m / best,
        });
    }
    mem_s
}

/// Fennel memory nodes/s at the quick scale (the CI comparison anchor).
/// Always best-of-3 at least: the anchor gates CI with a 20% tolerance, so
/// it must reflect steady throughput, not a lucky single run.
fn quick_fennel_rate(reps: usize) -> f64 {
    let reps = reps.max(3);
    let nodes = 1 << 16;
    let graph = oms_gen::rmat_graph(16, nodes * 8, oms_gen::RmatParams::GRAPH500, 7);
    let fennel = Fennel::new(K, OnePassConfig::default());
    let (s, _) = measure(reps, || {
        fennel
            .partition_stream(&mut InMemoryStream::new(&graph))
            .unwrap()
            .assignments()
            .to_vec()
    });
    graph.num_nodes() as f64 / s
}

fn main() {
    let args = BenchArgs::from_env();
    let quick = args.quick;
    let nodes = if quick { 1 << 16 } else { 1 << 20 };
    let scale = if quick { 16 } else { 20 };
    let reps = args.reps.max(1);

    let clock = Stopwatch::start();
    let graph: CsrGraph = oms_gen::rmat_graph(scale, nodes * 8, oms_gen::RmatParams::GRAPH500, 7);
    let n = graph.num_nodes();
    let m = graph.num_edges();
    println!(
        "rmat scale {scale}: n = {n}, m = {m}, k = {K}, reps = {reps} (generated in {:.1}s)\n",
        clock.seconds()
    );

    let cold = drop_page_cache();
    let mut rows = Vec::new();
    let cfg = OnePassConfig::default();

    let hashing = Hashing::new(K, cfg);
    run_algorithm("hashing", &hashing, &graph, reps, cold, &mut rows);
    let ldg = Ldg::new(K, cfg);
    run_algorithm("ldg", &ldg, &graph, reps, cold, &mut rows);
    let fennel = Fennel::new(K, cfg);
    let fennel_mem_s = run_algorithm("fennel", &fennel, &graph, reps, cold, &mut rows);

    // Raw edge-scan throughput through the EdgesOf adapter (no scoring):
    // memory and sectioned disk.
    let (scan_mem_s, _) = measure(reps, || {
        let mut edges = 0u64;
        EdgesOf(InMemoryStream::new(&graph))
            .for_each_edge(&mut |_| edges += 1)
            .unwrap();
        vec![edges as u32]
    });
    rows.push(Row {
        label: "edge scan / memory".into(),
        seconds: scan_mem_s,
        nodes_per_s: n as f64 / scan_mem_s,
        edges_per_s: m as f64 / scan_mem_s,
    });
    {
        let path = std::env::temp_dir().join("oms-bench-tp-scan.oms");
        write_version(&graph, &path, StreamFormatVersion::V3);
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            if cold {
                drop_page_cache();
            }
            let clock = Stopwatch::start();
            let mut edges = 0u64;
            EdgesOf(DiskStream::open(&path).unwrap())
                .for_each_edge(&mut |_| edges += 1)
                .unwrap();
            assert_eq!(edges as usize, m, "edge scan must visit every edge once");
            best = best.min(clock.seconds());
        }
        std::fs::remove_file(&path).ok();
        rows.push(Row {
            label: "edge scan / disk v3".into(),
            seconds: best,
            nodes_per_s: n as f64 / best,
            edges_per_s: m as f64 / best,
        });
    }

    println!(
        "{:<26} {:>9} {:>13} {:>13}",
        "configuration", "seconds", "nodes/s", "edges/s"
    );
    for row in &rows {
        println!(
            "{:<26} {:>9.3} {:>13.0} {:>13.0}",
            row.label, row.seconds, row.nodes_per_s, row.edges_per_s
        );
    }

    // The quick-scale anchor CI compares against (measured in every run so
    // the committed full-scale file also carries it). Quick mode forces
    // reps = 1 for the table, but the anchor is always a dedicated
    // best-of-3 measurement — it gates CI and must not be a single sample.
    let quick_rate = quick_fennel_rate(reps);
    println!("\nquick-scale fennel memory anchor: {quick_rate:.0} nodes/s");

    if let Some(baseline_path) = flag_value(&args.rest, "--check-baseline") {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
        let key = if quick {
            "quick_fennel_memory_nodes_per_s"
        } else {
            "fennel_memory_nodes_per_s"
        };
        let baseline = json_number(&text, key)
            .unwrap_or_else(|| panic!("baseline {baseline_path} has no {key} field"));
        let current = if quick {
            quick_rate
        } else {
            n as f64 / fennel_mem_s
        };
        let floor = baseline * (1.0 - REGRESSION_TOLERANCE);
        println!(
            "baseline check ({key}): current {current:.0} vs committed {baseline:.0} \
             (floor {floor:.0})"
        );
        if current < floor {
            eprintln!(
                "THROUGHPUT REGRESSION: {current:.0} nodes/s is more than \
                 {:.0}% below the committed {baseline:.0}",
                REGRESSION_TOLERANCE * 100.0
            );
            std::process::exit(1);
        }
        println!("baseline check passed");
        return; // check mode never rewrites the committed report
    }

    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let out = flag_value(&args.rest, "--json").unwrap_or_else(|| "BENCH_throughput.json".into());
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"throughput\",\n");
    json.push_str(&format!("  \"graph\": \"rmat_scale{scale}\",\n"));
    json.push_str(&format!("  \"nodes\": {n},\n  \"edges\": {m},\n"));
    json.push_str(&format!(
        "  \"k\": {K},\n  \"reps\": {reps},\n  \"cpus\": {cpus},\n"
    ));
    json.push_str(&format!(
        "  \"cold_page_cache\": {cold},\n  \"quick\": {quick},\n"
    ));
    for row in &rows {
        let key = row.label.replace(" / ", "_").replace([' ', '-'], "_");
        json.push_str(&format!("  \"{key}_s\": {:.4},\n", row.seconds));
        json.push_str(&format!(
            "  \"{key}_nodes_per_s\": {:.0},\n",
            row.nodes_per_s
        ));
        json.push_str(&format!(
            "  \"{key}_edges_per_s\": {:.0},\n",
            row.edges_per_s
        ));
    }
    json.push_str(&format!(
        "  \"quick_fennel_memory_nodes_per_s\": {quick_rate:.0}\n}}\n"
    ));
    let mut file = std::fs::File::create(&out).expect("can create the JSON report");
    file.write_all(json.as_bytes())
        .expect("can write the JSON report");
    println!("recorded {out}");
}
