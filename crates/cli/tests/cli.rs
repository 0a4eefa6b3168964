//! End-to-end tests of the `oms` command-line tool: generate a graph,
//! inspect it, convert it, partition it and map it, checking exit codes and
//! output files.

use std::path::PathBuf;
use std::process::Command;

fn oms() -> Command {
    Command::new(env!("CARGO_BIN_EXE_oms"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("oms-cli-tests").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let output = oms().output().unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage"), "stderr was: {stderr}");
}

#[test]
fn unknown_command_fails_with_exit_code_one() {
    let output = oms().arg("frobnicate").output().unwrap();
    assert_eq!(output.status.code(), Some(1));
}

#[test]
fn generate_info_partition_roundtrip() {
    let dir = temp_dir("roundtrip");
    let graph_path = dir.join("rgg.metis");
    let partition_path = dir.join("partition.txt");

    // generate
    let output = oms()
        .args(["generate", "rgg", "2000"])
        .arg(&graph_path)
        .args(["--seed", "7"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(graph_path.exists());

    // info
    let output = oms().arg("info").arg(&graph_path).output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("nodes        : 2000"),
        "stdout was: {stdout}"
    );

    // partition with nh-OMS and write the assignment file
    let output = oms()
        .arg("partition")
        .arg(&graph_path)
        .args(["--k", "16", "--algo", "oms", "--output"])
        .arg(&partition_path)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("edge-cut"), "stdout was: {stdout}");
    let lines = std::fs::read_to_string(&partition_path).unwrap();
    assert_eq!(lines.lines().count(), 2000);
    assert!(lines
        .lines()
        .all(|l| l.parse::<u32>().map(|b| b < 16).unwrap_or(false)));
}

#[test]
fn convert_and_map_from_stream_format() {
    let dir = temp_dir("map");
    let metis_path = dir.join("ba.metis");
    let stream_path = dir.join("ba.oms");

    let output = oms()
        .args(["generate", "ba", "1500"])
        .arg(&metis_path)
        .output()
        .unwrap();
    assert!(output.status.success());

    let output = oms()
        .arg("convert")
        .arg(&metis_path)
        .arg(&stream_path)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stream_path.exists());

    let output = oms()
        .arg("map")
        .arg(&stream_path)
        .args(["--hierarchy", "2:2:4", "--distances", "1:10:100"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("mapping cost"), "stdout was: {stdout}");
    assert!(stdout.contains("k = 16 PEs"), "stdout was: {stdout}");
}

#[test]
fn unknown_option_is_rejected() {
    let dir = temp_dir("unknown-option");
    let graph_path = dir.join("g.metis");
    oms()
        .args(["generate", "grid", "100"])
        .arg(&graph_path)
        .output()
        .unwrap();
    let output = oms()
        .arg("partition")
        .arg(&graph_path)
        .args(["--k", "4", "--frobnicate", "1"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown option"), "stderr was: {stderr}");
}

#[test]
fn option_without_value_is_rejected() {
    let dir = temp_dir("dangling-option");
    let graph_path = dir.join("g.metis");
    oms()
        .args(["generate", "grid", "100"])
        .arg(&graph_path)
        .output()
        .unwrap();
    let output = oms()
        .arg("partition")
        .arg(&graph_path)
        .arg("--k")
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("requires a value"), "stderr was: {stderr}");
}

#[test]
fn algorithms_command_lists_the_registry() {
    let output = oms().arg("algorithms").output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for name in [
        "hashing",
        "ldg",
        "fennel",
        "oms",
        "nh-oms",
        "multilevel",
        "rms",
        "buffered",
        "e-hash",
        "e-dbh",
        "e-greedy",
    ] {
        assert!(stdout.contains(name), "missing '{name}' in: {stdout}");
    }
    assert!(stdout.contains("vertex-cut"), "stdout was: {stdout}");
    assert!(stdout.contains("[repairable]"), "stdout was: {stdout}");
    assert!(!stdout.contains("[shardable]"), "stdout was: {stdout}");
}

#[test]
fn info_prints_the_degree_skew_summary() {
    let dir = temp_dir("degree-skew");
    let graph_path = dir.join("ba.metis");
    let output = oms()
        .args(["generate", "ba", "2000"])
        .arg(&graph_path)
        .args(["--seed", "5"])
        .output()
        .unwrap();
    assert!(output.status.success());

    let output = oms().arg("info").arg(&graph_path).output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("p99 degree   :"), "stdout was: {stdout}");
    assert!(stdout.contains("degree skew  :"), "stdout was: {stdout}");
    assert!(stdout.contains("p99/max"), "stdout was: {stdout}");
    // Preferential attachment produces hubs: the skew ratio must come out
    // well below 1 on a BA graph.
    let skew: f64 = stdout
        .lines()
        .find(|l| l.starts_with("degree skew"))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|v| v.trim().split(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no skew value in: {stdout}"));
    assert!(skew < 0.8, "BA graphs are hub-dominated, got skew {skew}");
}

#[test]
fn edge_partitioning_reports_replication_and_writes_edge_assignments() {
    let dir = temp_dir("edgepart");
    let graph_path = dir.join("ba.metis");
    let out_path = dir.join("edges.txt");
    let output = oms()
        .args(["generate", "ba", "1500"])
        .arg(&graph_path)
        .args(["--seed", "7"])
        .output()
        .unwrap();
    assert!(output.status.success());

    let output = oms()
        .arg("partition")
        .arg(&graph_path)
        .args([
            "--k", "8", "--algo", "e-greedy", "--lambda", "1.5", "--output",
        ])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("vertex-cut"), "stdout was: {stdout}");
    assert!(stdout.contains("replication :"), "stdout was: {stdout}");
    assert!(stdout.contains("lambda=1.5"), "stdout was: {stdout}");
    assert!(stdout.contains("edge-balance:"), "stdout was: {stdout}");

    // One "u v block" line per edge, blocks in range.
    let lines = std::fs::read_to_string(&out_path).unwrap();
    assert!(lines.lines().count() > 1000);
    for line in lines.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 3, "line was: {line}");
        let b: u32 = fields[2].parse().unwrap();
        assert!(b < 8, "line was: {line}");
    }

    // Multi-pass e-* runs print a replication trajectory.
    let output = oms()
        .arg("partition")
        .arg(&graph_path)
        .args(["--k", "8", "--algo", "e-greedy", "--passes", "3"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("pass  0"), "stdout was: {stdout}");
    assert!(stdout.contains("replication"), "stdout was: {stdout}");

    // --threads is not a flag: every run, edge pipeline included, is
    // sequential.
    let output = oms()
        .arg("partition")
        .arg(&graph_path)
        .args(["--k", "8", "--algo", "e-hash", "--threads", "4"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown option '--threads'"), "{stderr}");
}

#[test]
fn partition_with_buffered_algorithm_and_buffer_flag() {
    let dir = temp_dir("buffered");
    let graph_path = dir.join("g.metis");
    oms()
        .args(["generate", "rgg", "1200"])
        .arg(&graph_path)
        .output()
        .unwrap();
    let output = oms()
        .arg("partition")
        .arg(&graph_path)
        .args(["--k", "8", "--algo", "buffered", "--buffer", "256"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("buffered:8@buf=256"),
        "the job line must carry buf=: {stdout}"
    );
    assert!(stdout.contains("algorithm  : buffered"), "{stdout}");

    // The same job via --job round-trips through the spec string.
    let output = oms()
        .arg("partition")
        .arg(&graph_path)
        .args(["--job", "buffered:8@buf=256"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn partition_accepts_a_full_job_spec() {
    let dir = temp_dir("job-spec");
    let graph_path = dir.join("g.metis");
    oms()
        .args(["generate", "rgg", "1000"])
        .arg(&graph_path)
        .output()
        .unwrap();
    let output = oms()
        .arg("partition")
        .arg(&graph_path)
        .args(["--job", "fennel:8@passes=2,eps=0.05"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("fennel:8@eps=0.05,passes=2"),
        "stdout was: {stdout}"
    );
    assert!(stdout.contains("edge-cut"), "stdout was: {stdout}");

    // --job plus a conflicting per-field flag is a usage error.
    let output = oms()
        .arg("partition")
        .arg(&graph_path)
        .args(["--job", "fennel:8", "--k", "4"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
}

#[test]
fn partition_requires_k() {
    let dir = temp_dir("missing-k");
    let graph_path = dir.join("g.metis");
    oms()
        .args(["generate", "grid", "100"])
        .arg(&graph_path)
        .output()
        .unwrap();
    let output = oms().arg("partition").arg(&graph_path).output().unwrap();
    assert_eq!(output.status.code(), Some(1));
}

#[test]
fn partition_with_passes_prints_the_trajectory() {
    let dir = temp_dir("passes");
    let graph_path = dir.join("sbm.metis");
    let output = oms()
        .args(["generate", "er", "1500"])
        .arg(&graph_path)
        .args(["--seed", "11"])
        .output()
        .unwrap();
    assert!(output.status.success());

    let output = oms()
        .arg("partition")
        .arg(&graph_path)
        .args([
            "--k", "8", "--algo", "fennel", "--passes", "3", "--seed", "3",
        ])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("passes=3"), "stdout was: {stdout}");
    assert!(stdout.contains("pass  0"), "stdout was: {stdout}");
    assert!(stdout.contains("pass  1"), "stdout was: {stdout}");

    // --converge plumbs through to the job spec (conv=).
    let output = oms()
        .arg("partition")
        .arg(&graph_path)
        .args([
            "--k",
            "8",
            "--algo",
            "ldg",
            "--passes",
            "5",
            "--converge",
            "0.05",
        ])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("passes=5,conv=0.05"),
        "stdout was: {stdout}"
    );
}

#[test]
fn weighted_generate_partition_and_info() {
    let dir = temp_dir("weighted");
    let graph_path = dir.join("weighted.metis");

    // generate with the full weighting scheme
    let output = oms()
        .args(["generate", "ba", "1500"])
        .arg(&graph_path)
        .args(["--seed", "7", "--weights", "full"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("weights = full"), "stdout was: {stdout}");

    // info reports it as weighted
    let output = oms().arg("info").arg(&graph_path).output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("unweighted   : false"),
        "stdout was: {stdout}"
    );
    assert!(stdout.contains("edge weight"), "stdout was: {stdout}");

    // weighted partitions surface c(V), ω(E) and the heaviest block
    let output = oms()
        .arg("partition")
        .arg(&graph_path)
        .args(["--k", "8", "--algo", "fennel"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("weights    : c(V) ="),
        "stdout was: {stdout}"
    );
    assert!(stdout.contains("max block ="), "stdout was: {stdout}");

    // a bad --weights value is a usage error
    let output = oms()
        .args(["generate", "ba", "100"])
        .arg(dir.join("bad.metis"))
        .args(["--weights", "frobnicate"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
}

#[test]
fn format_flag_overrides_extension_sniffing() {
    let dir = temp_dir("format-flag");
    // A METIS file under an extension that auto-sniffs as edge list.
    let metis_path = dir.join("g.metis");
    let odd_path = dir.join("g.txt");
    let output = oms()
        .args(["generate", "grid", "400"])
        .arg(&metis_path)
        .output()
        .unwrap();
    assert!(output.status.success());
    std::fs::copy(&metis_path, &odd_path).unwrap();

    // Auto-sniffing misreads it; --format metis fixes it.
    let output = oms()
        .arg("info")
        .arg(&odd_path)
        .args(["--format", "metis"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("nodes        : 400"),
        "stdout was: {stdout}"
    );

    // An unknown format value is a usage error.
    let output = oms()
        .arg("info")
        .arg(&metis_path)
        .args(["--format", "hdf5"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown input format"), "stderr: {stderr}");

    // partition accepts --format too.
    let output = oms()
        .arg("partition")
        .arg(&odd_path)
        .args(["--format", "metis", "--k", "4", "--algo", "ldg"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn convert_round_trips_weighted_graphs_through_both_formats() {
    let dir = temp_dir("weighted-convert");
    let metis_path = dir.join("w.metis");
    let stream_path = dir.join("w.oms");
    let back_path = dir.join("w-back.metis");

    let output = oms()
        .args(["generate", "er", "600"])
        .arg(&metis_path)
        .args(["--seed", "3", "--weights", "full"])
        .output()
        .unwrap();
    assert!(output.status.success());

    // METIS → vertex stream → METIS; the final info must agree with the
    // first (identical n, m and total weights).
    for (from, to) in [(&metis_path, &stream_path), (&stream_path, &back_path)] {
        let output = oms().arg("convert").arg(from).arg(to).output().unwrap();
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let info = |path: &std::path::Path| {
        let output = oms().arg("info").arg(path).output().unwrap();
        assert!(output.status.success());
        let text = String::from_utf8_lossy(&output.stdout).to_string();
        // Strip the file line and the stream-only section breakdown (which
        // METIS inputs don't have); the shared stats must match.
        text.lines()
            .filter(|l| !l.starts_with("file"))
            .take_while(|l| !l.starts_with("stream format"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(info(&metis_path), info(&stream_path));
    assert_eq!(info(&metis_path), info(&back_path));
    assert_eq!(
        std::fs::read(&metis_path).unwrap(),
        std::fs::read(&back_path).unwrap()
    );
    let output = oms().arg("info").arg(&stream_path).output().unwrap();
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("stream format: v3"), "{text}");
}

#[test]
fn an_edge_list_drops_directions_and_repeats_and_round_trips() {
    let dir = temp_dir("edge-list-repeats");
    let input = dir.join("dup.el");
    let back = dir.join("back.el");
    // Two edges, {0, 1} listed both ways and {1, 2} three times.
    std::fs::write(&input, "0 1\n1 0\n1 2\n1 2\n1 2\n").unwrap();

    let output = oms().arg("info").arg(&input).output().unwrap();
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    for line in [
        "edges        : 2",
        "edge weight  : 2",
        "unweighted   : true",
    ] {
        assert!(text.contains(line), "missing '{line}' in\n{text}");
    }

    let output = oms()
        .arg("convert")
        .arg(&input)
        .arg(&back)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&back).unwrap(),
        "# nodes 3 edges 2\n0 1\n1 2\n"
    );
}

#[test]
fn partition_passes_works_for_in_memory_and_buffered_algorithms() {
    let dir = temp_dir("passes-registry");
    let graph_path = dir.join("er.metis");
    let output = oms()
        .args(["generate", "er", "800"])
        .arg(&graph_path)
        .args(["--seed", "13"])
        .output()
        .unwrap();
    assert!(output.status.success());
    for algo in ["multilevel", "buffered", "hashing", "oms"] {
        let output = oms()
            .arg("partition")
            .arg(&graph_path)
            .args(["--k", "4", "--algo", algo, "--passes", "2"])
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
}

/// `oms map` takes the job commands' shared flag set: the run can be traced,
/// and the trace round-trips through `oms trace` with a verified hash.
#[test]
fn map_records_a_trace_that_verifies() {
    let dir = temp_dir("map-trace");
    let graph_path = dir.join("ba.metis");
    let trace_path = dir.join("map.jsonl");
    let output = oms()
        .args(["generate", "ba", "1500"])
        .arg(&graph_path)
        .output()
        .unwrap();
    assert!(output.status.success());

    let output = oms()
        .arg("map")
        .arg(&graph_path)
        .args([
            "--hierarchy",
            "2:2:4",
            "--passes",
            "2",
            "--metrics",
            "--trace",
        ])
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("mapping cost"), "stdout was: {stdout}");
    assert!(stdout.contains("oms_nodes_scored_total"), "{stdout}");

    let output = oms().arg("trace").arg(&trace_path).output().unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("hash check       ok"), "{stdout}");
    assert!(stdout.contains("pass_end"), "{stdout}");
}

/// What `oms trace` finds wrong with a file's *content* is exit 2 with one
/// `error: trace error: …` line and no usage text: a line outside the
/// grammar, an event of the removed sharded engine (unknown like any other,
/// with its line number), and a trace cut off before its `trace_end` footer
/// — which still prints its summary first.
#[test]
fn broken_traces_are_content_errors_not_usage_errors() {
    let dir = temp_dir("broken-traces");
    let start = "{\"seq\":0,\"event\":\"pass_start\",\"pass\":0}\n";
    let end =
        "{\"seq\":1,\"event\":\"pass_end\",\"pass\":0,\"nodes\":5,\"edge_cut\":2,\"moved\":5}\n";
    let footer = "{\"event\":\"trace_end\",\"events\":2,\"dropped\":0,\"log_hash\":1}\n";
    let shard_round = "{\"seq\":2,\"event\":\"shard_round\",\"round\":1,\"messages\":4}\n";
    let cases = [
        (
            "malformed.jsonl",
            format!("{start}{end}this is not a trace line\n{footer}"),
            "line 3: not a JSON object line",
            false,
        ),
        (
            "removed-event.jsonl",
            format!("{start}{end}{shard_round}{footer}"),
            "line 3: unknown or incomplete event 'shard_round'",
            false,
        ),
        (
            "torn.jsonl",
            format!("{start}{end}"),
            "no trace_end footer",
            true,
        ),
    ];
    for (name, text, message, summarised) in cases {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let output = oms().arg("trace").arg(&path).output().unwrap();
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.starts_with("error: trace error: "),
            "{name}: {stderr}"
        );
        assert!(stderr.contains(message), "{name}: {stderr}");
        assert!(!stderr.contains("usage:"), "{name}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{name}: {stderr}");
        assert_eq!(
            stdout.contains("events retained  2"),
            summarised,
            "{name}: {stdout}"
        );
    }
}

/// `threads=` / `shards=` and their flags left with the two parallel
/// engines; naming one is a usage error on every job command, never
/// accepted and ignored — and never an abort (`shards=100000000` used to
/// die allocating 24 GB).
#[test]
fn the_removed_parallel_options_are_usage_errors_everywhere() {
    let dir = temp_dir("removed-options");
    let graph_path = dir.join("er.metis");
    let deltas_path = dir.join("er.deltas");
    let output = oms()
        .args(["generate", "er", "300"])
        .arg(&graph_path)
        .output()
        .unwrap();
    assert!(output.status.success());
    let output = oms()
        .arg("gen-deltas")
        .arg(&graph_path)
        .arg(&deltas_path)
        .args(["--batches", "2", "--ops", "10"])
        .output()
        .unwrap();
    assert!(output.status.success());

    let graph = graph_path.to_str().unwrap();
    let commands: [(&str, Vec<&str>); 4] = [
        ("partition", vec![graph]),
        ("map", vec![graph]),
        ("apply-deltas", vec![graph, deltas_path.to_str().unwrap()]),
        ("replay", vec![graph]),
    ];
    let refused = |command: &str, positional: &[&str], args: &[&str], message: &str| {
        let mut oms = oms();
        oms.arg(command).args(positional).args(args);
        let output = oms.output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{command} {args:?}: {stderr}"
        );
        assert!(stderr.contains(message), "{command} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command} {args:?}: {stderr}");
    };
    for (command, positional) in &commands {
        let shape = if *command == "map" {
            ["--hierarchy", "2:2"]
        } else {
            ["--k", "4"]
        };
        for flag in ["--threads", "--shards"] {
            let args = [shape[0], shape[1], flag, "2"];
            let message = format!("unknown option '{flag}'");
            refused(command, positional, &args, &message);
        }
        for (spec, key) in [
            ("fennel:4@threads=2", "threads"),
            ("oms:2:2@threads=2", "threads"),
            ("fennel:4@shards=2", "shards"),
            ("fennel:4@shards=100000000", "shards"),
            ("multilevel:4@threads=4", "threads"),
            ("e-greedy:4@threads=4", "threads"),
        ] {
            let message = format!("unknown job option '{key}' (known: eps, seed, passes,");
            refused(command, positional, &["--job", spec], &message);
        }
    }
}

/// `--job` encodes the whole job for every job command and every job flag —
/// including the dynamic-maintenance ones, which used to override the job
/// string silently.
#[test]
fn job_flag_conflicts_with_every_job_flag_on_every_job_command() {
    let dir = temp_dir("job-conflicts");
    let graph_path = dir.join("er.metis");
    let deltas_path = dir.join("er.deltas");
    let output = oms()
        .args(["generate", "er", "600"])
        .arg(&graph_path)
        .output()
        .unwrap();
    assert!(output.status.success());
    let output = oms()
        .arg("gen-deltas")
        .arg(&graph_path)
        .arg(&deltas_path)
        .args(["--batches", "2", "--ops", "20"])
        .output()
        .unwrap();
    assert!(output.status.success());

    for (flag, value) in [("--drift", "0.5"), ("--repair", "off"), ("--window", "2")] {
        let output = oms()
            .arg("apply-deltas")
            .arg(&graph_path)
            .arg(&deltas_path)
            .args(["--job", "fennel:8", flag, value])
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1), "{flag}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("--job already encodes the whole job; drop {flag}")),
            "{flag}: {stderr}"
        );
    }
    // Without --job the same flags set the job's options.
    let output = oms()
        .arg("apply-deltas")
        .arg(&graph_path)
        .arg(&deltas_path)
        .args(["--k", "8", "--drift", "0.5", "--window", "2"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("fennel:8@drift=0.5,window=2"), "{stdout}");

    // Every flag of the table conflicts with --job on the other commands too.
    for knob in &oms_core::knobs::KNOBS {
        let Some(flag) = knob.flag else { continue };
        let output = oms()
            .arg("partition")
            .arg(&graph_path)
            .args(["--job", "fennel:8", &format!("--{flag}"), "1"])
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1), "--{flag}");
    }
}

/// An option the chosen algorithm never reads is a usage error on both
/// pipelines instead of being echoed back and ignored.
#[test]
fn options_the_algorithm_does_not_read_are_usage_errors() {
    let dir = temp_dir("stray-options");
    let graph_path = dir.join("g.metis");
    oms()
        .args(["generate", "grid", "100"])
        .arg(&graph_path)
        .output()
        .unwrap();
    for args in [
        vec!["--job", "fennel:8@buf=5"],
        vec!["--job", "oms:4:4@lambda=2"],
        vec!["--k", "8", "--algo", "fennel", "--buffer", "64"],
    ] {
        let mut command = oms();
        command.arg("partition").arg(&graph_path).args(&args);
        let output = command.output().unwrap();
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("does not apply to"), "{args:?}: {stderr}");
    }
}

/// An infinite or NaN value of a float option is refused as not finite —
/// through `--job` and through the option's flag — not as out of range.
#[test]
fn non_finite_float_options_are_refused_as_not_finite() {
    let dir = temp_dir("non-finite");
    let graph_path = dir.join("g.metis");
    oms()
        .args(["generate", "grid", "100"])
        .arg(&graph_path)
        .output()
        .unwrap();
    let mut checked = 0;
    for knob in &oms_core::knobs::KNOBS {
        if knob.value_hint() != "<float>" {
            continue;
        }
        let flag = knob.flag.expect("every float option has a flag");
        let range = if knob.key == "drift" {
            "positive"
        } else {
            "non-negative"
        };
        let why = format!("{} must be a finite {range} number", knob.key);
        for value in ["inf", "-inf", "nan"] {
            let job = format!("fennel:8@{}={value}", knob.key);
            let by_job = ["--job", job.as_str()];
            let by_flag = ["--k", "8", &format!("--{flag}"), value];
            for (args, said) in [
                (
                    &by_job[..],
                    format!("job option '{}={value}': {why}", knob.key),
                ),
                (&by_flag[..], format!("--{flag} {value}: {why}")),
            ] {
                let output = oms()
                    .arg("partition")
                    .arg(&graph_path)
                    .args(args)
                    .output()
                    .unwrap();
                let stderr = String::from_utf8_lossy(&output.stderr);
                assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
                assert!(stderr.contains(&said), "{args:?}: {stderr}");
                checked += 1;
            }
        }
    }
    // eps, conv, lambda, drift.
    assert_eq!(checked, 4 * 3 * 2);
}

/// Every row of the job-option table shows up wherever the CLI describes
/// the grammar: the usage text and the `oms algorithms` listing.
#[test]
fn usage_and_algorithms_list_every_job_option() {
    let usage = oms().output().unwrap();
    let usage = String::from_utf8_lossy(&usage.stderr).to_string();
    let listing = oms().arg("algorithms").output().unwrap();
    let listing = String::from_utf8_lossy(&listing.stdout).to_string();
    let grammar_line = listing
        .lines()
        .find(|line| line.starts_with("job spec grammar:"))
        .expect("`oms algorithms` prints the grammar");
    for knob in &oms_core::knobs::KNOBS {
        let option = format!("{}=", knob.key);
        assert!(usage.contains(&option), "usage lacks {option}: {usage}");
        assert!(grammar_line.contains(&option), "{grammar_line}");
        if let Some(flag) = knob.flag {
            assert!(
                usage.contains(&format!("--{flag} ")),
                "usage lacks --{flag}"
            );
        }
    }
    for line in oms_core::knobs::help_lines() {
        assert!(listing.contains(&line), "`oms algorithms` lacks: {line}");
    }
}

/// Runs `oms <args> --output F --trace T` on `graph` and returns the report
/// (stdout with the run's own file names masked, minus the wall-time lines)
/// and the bytes of the two files.
fn job_outputs(
    dir: &std::path::Path,
    graph: &str,
    tag: &str,
    args: &[&str],
) -> (String, Vec<u8>, Vec<u8>) {
    let (out, trace) = (
        dir.join(format!("{tag}.out")),
        dir.join(format!("{tag}.jsonl")),
    );
    let output = oms()
        .arg(args[0])
        .arg(dir.join(graph))
        .args(&args[1..])
        .arg("--output")
        .arg(&out)
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{graph} {args:?}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report: String = String::from_utf8_lossy(&output.stdout)
        .replace(dir.join(graph).to_str().unwrap(), "<graph>")
        .replace(out.to_str().unwrap(), "<output>")
        .replace(trace.to_str().unwrap(), "<trace>")
        .lines()
        .filter(|line| !line.starts_with("time"))
        .map(|line| match line.rsplit_once(", ") {
            // Per-pass trajectory rows end in the pass's wall time.
            Some((row, seconds)) if seconds.ends_with(" s)") => format!("{row})\n"),
            _ => format!("{line}\n"),
        })
        .collect();
    (
        report,
        std::fs::read(&out).unwrap(),
        std::fs::read(&trace).unwrap(),
    )
}

#[test]
fn streamed_and_materialised_inputs_give_identical_reports_outputs_and_traces() {
    // Every job runs straight off its input, METIS text or `.oms`, one pass
    // or two. Nothing a user can see may tell the sources apart, and the
    // streamed runs must say what the library says about the materialised
    // graph.
    let dir = temp_dir("streamed-vs-materialised");
    for weights in ["unit", "full"] {
        let metis = format!("{weights}.metis");
        let stream = format!("{weights}.oms");
        let generated = oms()
            .args(["generate", "ba", "3000"])
            .arg(dir.join(&metis))
            .args(["--seed", "5", "--weights", weights])
            .output()
            .unwrap();
        assert!(generated.status.success());
        let converted = oms()
            .arg("convert")
            .arg(dir.join(&metis))
            .arg(dir.join(&stream))
            .output()
            .unwrap();
        assert!(converted.status.success());
        let graph = oms_graph::io::read_metis(dir.join(&metis)).unwrap();

        for (command, one_pass, two_passes) in [
            ("map", "oms:4:4@dist=1:10", "oms:4:4@passes=2,dist=1:10"),
            ("partition", "fennel:8", "fennel:8@passes=2"),
            ("partition", "hashing:8", "hashing:8@passes=2"),
        ] {
            let mut outputs = Vec::new();
            for job in [one_pass, two_passes] {
                let args = [command, "--job", job];
                let tag = format!("{weights}-{}", job.replace(':', "_"));
                let on_stream = job_outputs(&dir, &stream, &format!("{tag}-s"), &args);
                let on_metis = job_outputs(&dir, &metis, &format!("{tag}-m"), &args);
                assert_eq!(on_stream, on_metis, "{weights} {job}");
                assert_eq!(
                    on_stream.0.contains("weights    :"),
                    weights == "full" && command == "partition",
                    "{}",
                    on_stream.0
                );
                outputs.push(on_metis);
            }

            // The materialised leg of both jobs: the library run over the
            // loaded graph.
            for (job, (text, assignments, _)) in [one_pass, two_passes].iter().zip(&outputs) {
                let partitioner = job.parse::<oms_core::JobSpec>().unwrap();
                let partitioner = partitioner.build().unwrap();
                let report = partitioner
                    .run(&mut oms_graph::InMemoryStream::new(&graph))
                    .unwrap();
                let lines: String = report
                    .partition
                    .assignments()
                    .iter()
                    .map(|block| format!("{block}\n"))
                    .collect();
                assert_eq!(assignments, lines.as_bytes(), "{weights} {job}");
                let printed = |label: &str| {
                    let line = text.lines().find(|line| line.starts_with(label));
                    let value = line.and_then(|line| line.split(": ").nth(1));
                    value.map(|value| value.parse::<u64>().unwrap())
                };
                assert_eq!(printed("edge-cut"), Some(report.edge_cut), "{text}");
                assert_eq!(printed("mapping cost"), report.mapping_cost, "{text}");
            }
            if one_pass.starts_with("hashing") {
                // Hashing is a function of the node id: its second pass
                // moves nothing.
                assert_eq!(outputs[0].1, outputs[1].1, "{weights} hashing passes=2");
            }
        }
    }
}

/// Each of `commands` (`[subcommand, args…]`, `path` goes in between) must
/// exit 2 with a typed `graph error` saying `message` and print no report —
/// never panic (101) or abort on an allocation (134).
fn assert_graph_error(path: &std::path::Path, commands: &[&[&str]], message: &str) {
    for command in commands {
        let output = oms()
            .arg(command[0])
            .arg(path)
            .args(&command[1..])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{path:?} {command:?}: {stderr}"
        );
        assert!(
            stderr.starts_with("error: graph error: ") && !stderr.contains("panicked"),
            "{path:?} {command:?}: {stderr}"
        );
        assert!(stderr.contains(message), "{path:?} {command:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{path:?} {command:?}: a report");
    }
}

/// Every way of reading `path` as a graph — streamed one-pass jobs and
/// materialising commands alike — must fail as [`assert_graph_error`] says.
/// (`apply-deltas` loads its graph before its trace, which need not exist.)
fn assert_graph_error_everywhere(path: &std::path::Path, convert_to: &str, message: &str) {
    let converted = path.with_extension(convert_to);
    let commands = [
        &["apply-deltas", "no.deltas", "--k", "4"][..],
        &["partition", "--k", "4"][..],
        &["partition", "--k", "4", "--algo", "hashing"][..],
        &["partition", "--k", "4", "--passes", "2"][..],
        &["map", "--hierarchy", "2:2"][..],
        &["info"][..],
        &["convert", converted.to_str().unwrap()][..],
    ];
    assert_graph_error(path, &commands, message);
}

/// Every way of reading `path` as a graph must refuse adjacency lists that
/// are not symmetric: every streaming job — one pass or several, each
/// tallied while it partitions, `apply-deltas`' initial run included —
/// `buffered`, whose passes the measurement walk measures, and everything
/// that materialises the graph through `collect_graph`: `multilevel`,
/// `info`, `convert` and the vertex-cut jobs of `partition` and `replay`.
fn assert_every_leg_refuses_asymmetry(path: &std::path::Path, convert_to: &str) {
    let converted = path.with_extension(convert_to);
    let commands = [
        &["partition", "--job", "buffered:2"][..],
        &["partition", "--job", "buffered:2@passes=2"][..],
        &["partition", "--job", "multilevel:2"][..],
        &["partition", "--job", "multilevel:2@passes=2"][..],
        &["info"][..],
        &["convert", converted.to_str().unwrap()][..],
        &["partition", "--job", "e-hash:2"][..],
        &["partition", "--job", "e-greedy:2@passes=2"][..],
        &["replay", "--job", "e-hash:2"][..],
        &["apply-deltas", "no.deltas", "--k", "2"][..],
        &["partition", "--job", "hashing:2"][..],
        &["partition", "--job", "ldg:2"][..],
        &["partition", "--job", "fennel:2"][..],
        &["partition", "--job", "nh-oms:3@base=2"][..],
        &["partition", "--k", "2"][..],
        &["map", "--hierarchy", "2:2"][..],
        &["partition", "--job", "fennel:2@passes=2"][..],
        &["partition", "--job", "oms:2@passes=3"][..],
        &[
            "map",
            "--hierarchy",
            "2:2",
            "--distances",
            "1:10",
            "--passes",
            "2",
        ][..],
    ];
    assert_graph_error(path, &commands, "not symmetric");
}

#[test]
fn hostile_stream_files_are_typed_errors_not_panics_or_aborts() {
    let dir = temp_dir("hostile-streams");
    // The 40-byte header: magic, n, m, c(V) = n, the flags byte and its
    // padding.
    let header = |n: u64, m: u64| {
        let mut bytes = b"OMSSTRM3".to_vec();
        for field in [n, m, n, 0] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        bytes
    };
    let words = |words: [u32; 4]| words.into_iter().flat_map(u32::to_le_bytes);
    // One node whose degree field announces 2^32 - 1 neighbors (the degrees
    // section padded to 48, then the two neighbor ids the header promises).
    let mut degree_bomb = header(1, 1);
    degree_bomb.extend(words([u32::MAX, 0, 0, 0]));
    // A header announcing 2^60 nodes.
    let mut header_bomb = header(1 << 60, 0);
    header_bomb.extend_from_slice(&[0; 64]);
    // Two nodes, one edge (degrees 1 1), node 0's neighbor is node 7.
    let mut range = header(2, 1);
    range.extend(words([1, 1, 7, 0]));
    // The same graph intact — but flagged with bits no layout assigns, cut
    // four bytes short, or under the magic of an interleaved layout.
    let mut intact = header(2, 1);
    intact.extend(words([1, 1, 1, 0]));
    let mut flagged = intact.clone();
    flagged[32] = 0x84;
    let cut = intact[..intact.len() - 4].to_vec();
    let legacy = |version: u8| {
        let mut bytes = intact.clone();
        bytes[7] = b'0' + version;
        bytes
    };
    for (name, bytes, message) in [
        ("degree.oms", degree_bomb, "count mismatch"),
        ("header.oms", header_bomb, "truncated"),
        ("range.oms", range, "node 7 out of range for graph with 2"),
        ("flagged.oms", flagged, "unknown header flag bits 0x84"),
        ("cut.oms", cut, "truncated"),
        ("v1.oms", legacy(1), "v1 (interleaved) is no longer read"),
        ("v2.oms", legacy(2), "v2 (interleaved) is no longer read"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        assert_graph_error_everywhere(&path, "metis", message);
    }
    // Two nodes, one edge, two adjacency entries as the header says — but
    // node 0 lists node 1 twice and node 1 lists nobody (degrees 2 0,
    // neighbors 1 1). `DiskStream` checks counts and ranges, not symmetry.
    let mut one_sided = header(2, 1);
    one_sided.extend(words([2, 0, 1, 1]));
    let path = dir.join("one-sided.oms");
    std::fs::write(&path, one_sided).unwrap();
    assert_every_leg_refuses_asymmetry(&path, "metis");
}

#[test]
fn a_k_too_large_to_allocate_is_a_usage_error_not_an_abort() {
    let dir = temp_dir("huge-k");
    let graph_path = dir.join("g.metis");
    oms()
        .args(["generate", "grid", "100"])
        .arg(&graph_path)
        .output()
        .unwrap();
    for algo in ["fennel", "hashing", "oms"] {
        let output = oms()
            .arg("partition")
            .arg(&graph_path)
            .args(["--k", "4294967295", "--algo", algo])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{algo}: {stderr}");
        assert!(stderr.contains("k = 4294967295"), "{algo}: {stderr}");
        assert!(!stderr.contains("panicked"), "{algo}: {stderr}");
    }
}

#[test]
fn a_huge_epsilon_is_an_unbounded_capacity_not_a_wrapped_one_or_a_panic() {
    // `t · L_max` used to wrap (release: both top-level capacities 0, every
    // node through the all-full fallback, exit 0 with a worse cut) or panic
    // (debug) once ε pushed L_max past 2^63.
    let dir = temp_dir("huge-eps");
    let graph_path = dir.join("g.metis");
    oms()
        .args(["generate", "er", "2000"])
        .arg(&graph_path)
        .output()
        .unwrap();
    let run = |epsilon: &str| {
        let out_path = dir.join(format!("p-{epsilon}.txt"));
        let output = oms()
            .arg("partition")
            .arg(&graph_path)
            .args(["--job", &format!("oms:2:2@eps={epsilon}"), "--output"])
            .arg(&out_path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "eps={epsilon}: {stderr}");
        assert!(!stderr.contains("panicked"), "eps={epsilon}: {stderr}");
        std::fs::read(&out_path).unwrap()
    };
    let unbounded = run("1e3");
    for epsilon in ["1.8446744073709552e16", "1e19"] {
        assert!(
            run(epsilon) == unbounded,
            "eps={epsilon} partitions differently"
        );
    }
}

#[test]
fn report_sums_are_exact_up_to_u64_max_and_a_typed_error_past_it() {
    // A report tallies every edge from both endpoints and halves the sums.
    // They wrapped (the path below: cut, ω(E) and J of 0) or saturated (the
    // RMAT map: J = 2^63 − 1 for 9 500 000 000 000 000 489), with exit 0.
    let dir = temp_dir("report-sums");
    let path = dir.join("path.metis");
    let w = 1u64 << 62;
    std::fs::write(&path, format!("3 2 1\n2 {w}\n1 {w} 3 {w}\n2 {w}\n")).unwrap();
    let report = |command: &str, graph: &std::path::Path, job: &str| {
        let output = oms()
            .arg(command)
            .arg(graph)
            .args(["--job", job])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr).to_string();
        let stdout = String::from_utf8_lossy(&output.stdout).to_string();
        (output.status.code(), stdout, stderr)
    };
    let field = |stdout: &str, name: &str| {
        let line = stdout.lines().find(|l| l.starts_with(name));
        let line = line.unwrap_or_else(|| panic!("no {name} in {stdout}"));
        line.split_once(':').unwrap().1.trim().to_string()
    };
    let twice = (2 * w).to_string();
    for (command, job, mapped) in [
        // Blocks 1 2 1: both edges cut.
        ("partition", "hashing:3", false),
        ("partition", "fennel:3", false),
        ("map", "oms:3:2@dist=1:10", true),
    ] {
        let (code, stdout, stderr) = report(command, &path, job);
        assert_eq!(code, Some(0), "{job}: {stderr}");
        assert!(
            stdout.contains(&format!("ω(E) = {twice},")),
            "{job}: {stdout}"
        );
        if job != "fennel:3" {
            assert_eq!(field(&stdout, "edge-cut"), twice, "{job}");
        }
        if mapped {
            assert_eq!(field(&stdout, "mapping cost"), twice, "{job}");
        }
    }

    // J = 19·D + 489 on this graph: 19 489 at D = 1000.
    let rmat = dir.join("rmat.metis");
    let (code, _, stderr) = run_oms(&["generate", "rmat", "14", rmat.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stderr}");
    for (d, expected) in [
        ("1000", "19489"),
        ("500000000000000000", "9500000000000000489"),
    ] {
        let (code, stdout, stderr) = report("map", &rmat, &format!("oms:4:4:4@dist=1:10:{d}"));
        assert_eq!(code, Some(0), "D = {d}: {stderr}");
        assert_eq!(field(&stdout, "mapping cost"), expected, "D = {d}");
    }
    // Ten times that does not fit in a u64.
    assert_graph_error(
        &rmat,
        &[&["map", "--job", "oms:4:4:4@dist=1:10:5000000000000000000"]],
        "the mapping cost J exceeds u64::MAX",
    );
}

/// Vertex-cut jobs add edge weights into block loads. On a graph whose
/// total edge weight passes `u64::MAX` those sums wrapped (`ω(E) = 0` in the
/// report, exit 0; a panic in debug builds); now such a graph is the typed
/// error the node jobs give, under `partition` and `replay` alike.
#[test]
fn edge_jobs_refuse_a_total_edge_weight_past_u64_max() {
    let dir = temp_dir("edge-weight-sum");
    let path = dir.join("heavy.metis");
    let w = 1u64 << 63;
    std::fs::write(&path, format!("3 2 001\n2 {w}\n1 {w} 3 {w}\n2 {w}\n")).unwrap();
    let message = "the total edge weight ω(E) exceeds u64::MAX";
    let jobs = ["fennel:1", "e-hash:1", "e-dbh:2", "e-greedy:2@passes=3"];
    let partitions: Vec<[&str; 3]> = jobs.iter().map(|job| ["partition", "--job", job]).collect();
    let commands: Vec<&[&str]> = partitions.iter().map(|c| &c[..]).collect();
    assert_graph_error(&path, &commands, message);
    for job in ["e-hash:1", "e-dbh:2", "e-greedy:2"] {
        let (code, _, stderr) = run_oms(&["replay", path.to_str().unwrap(), "--job", job]);
        assert_eq!(code, Some(2), "replay {job}: {stderr}");
        assert!(
            stderr.starts_with("error: graph error: ") && stderr.contains(message),
            "replay {job}: {stderr}"
        );
    }
}

#[test]
fn hostile_metis_files_are_typed_errors_not_panics_or_aborts() {
    let dir = temp_dir("hostile-metis");
    for (name, text) in [
        // 24 bytes announcing four billion nodes and edges.
        ("header-bomb.metis", "4000000000 4000000000\n1\n"),
        ("edge-bomb.metis", "2 4000000000\n2\n1\n"),
        // Node 1 lists 3 and node 3 lists 2, neither the other way round.
        ("asymmetric.metis", "3 2\n2 3\n1\n2\n"),
        ("truncated.metis", "4 1\n2\n1\n"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        assert_graph_error_everywhere(&path, "oms", "METIS parse error");
    }
    // Node 1 lists node 2 four times, node 2 never lists node 1: the right
    // entry count, and an XOR of the entries cancels in pairs.
    let path = dir.join("four-times.metis");
    std::fs::write(&path, "3 2\n2 2 2 2\n\n\n").unwrap();
    assert_every_leg_refuses_asymmetry(&path, "oms");
}

/// `apply-deltas` streams a METIS or `.oms` graph into its slab and
/// materialises only an edge list; the three give one partition.
#[test]
fn apply_deltas_gives_one_partition_off_every_source() {
    let dir = temp_dir("apply-deltas-sources");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (metis, deltas) = (path("g.metis"), path("g.deltas"));
    let run = |args: &[&str]| {
        let output = oms().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{args:?}: {stderr}");
    };
    run(&["generate", "er", "3000", &metis]);
    let churn = ["--scheme", "drift", "--batches", "4", "--ops", "300"];
    run(&[&["gen-deltas", &metis, &deltas][..], &churn].concat());
    let mut outputs = Vec::new();
    for ext in ["metis", "oms", "el"] {
        let graph = path(&format!("g.{ext}"));
        if ext != "metis" {
            run(&["convert", &metis, &graph]);
        }
        let out = path(&format!("p-{ext}.txt"));
        run(&[
            "apply-deltas",
            &graph,
            &deltas,
            "--k",
            "8",
            "--repair",
            "boundary",
            "--output",
            &out,
        ]);
        outputs.push(std::fs::read(&out).unwrap());
    }
    assert!(!outputs[0].is_empty());
    assert!(outputs[0] == outputs[1], "METIS vs .oms");
    assert!(outputs[0] == outputs[2], "METIS vs edge list");
}

/// `+n v` must revive a dead id or take the next fresh one. A trace line
/// naming a far larger id used to size every per-id column from it and
/// abort on the allocation (exit 134).
#[test]
fn a_node_insert_that_skips_ids_is_a_graph_error_not_an_abort() {
    let dir = temp_dir("apply-deltas-huge-id");
    let graph = dir.join("g.metis");
    let deltas = dir.join("huge.deltas");
    std::fs::write(&graph, "3 2\n2\n1 3\n2\n").unwrap();
    std::fs::write(&deltas, "+n 4000000000\n!\n").unwrap();
    let output = oms()
        .arg("apply-deltas")
        .arg(&graph)
        .arg(&deltas)
        .args(["--k", "2"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: graph error: ") && stderr.contains("next fresh one, 3"),
        "{stderr}"
    );
}

/// A reader that goes away (`oms … | head -1`) is nothing the program did
/// wrong: the first write to the readerless pipe ends the command quietly.
#[test]
fn a_closed_stdout_ends_the_command_quietly_not_with_a_panic() {
    let dir = temp_dir("closed-stdout");
    let graph = dir.join("er.metis");
    let generated = oms()
        .args(["generate", "er", "500"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(generated.status.success());
    let graph = graph.to_str().unwrap();
    for args in [
        vec!["algorithms"],
        vec!["info", graph],
        vec!["partition", graph, "--k", "8"],
    ] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let output = oms().args(&args).stdout(writer).output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(141), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

/// Runs `oms <args>` and returns (exit code, stdout, stderr).
fn run_oms(args: &[&str]) -> (Option<i32>, String, String) {
    let output = oms().args(args).output().unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    (output.status.code(), stdout, stderr)
}

/// The usage text `oms` prints without arguments, from its `usage:` line on.
fn usage_text() -> String {
    let (_, _, stderr) = run_oms(&[]);
    let start = stderr.find("usage:").expect("oms prints its usage");
    stderr[start..].trim_end().to_string()
}

/// The `[--flag VALUE]` (value flags) and `[--switch]` (switches) names in
/// `text`.
fn bracketed_flags(text: &str) -> (Vec<String>, Vec<String>) {
    let (mut flags, mut switches) = (Vec::new(), Vec::new());
    for piece in text.split("[--").skip(1) {
        let inside = &piece[..piece.find(']').unwrap()];
        let mut words = inside.split_whitespace();
        let name = words.next().unwrap().to_string();
        match words.next() {
            Some(_) => flags.push(name),
            None => switches.push(name),
        }
    }
    (flags, switches)
}

/// Every command the usage text names parses its command line against the
/// row it is listed with: an unknown flag is refused with exactly the flags
/// that row lists (its own and, on a job command, the job flags), and too
/// few or too many positional arguments are usage errors, never a panic.
#[test]
fn every_command_in_the_usage_text_refuses_unknown_flags_and_a_wrong_arity() {
    let usage = usage_text();
    let job_flags_at = usage
        .find("\n  job flags:")
        .expect("usage lists the job flags");
    let job_flags_text = &usage[job_flags_at..usage.find("\n  job spec").unwrap()];
    let (job_flags, _) = bracketed_flags(job_flags_text);
    let mut commands: Vec<(String, usize, String)> = Vec::new();
    for line in usage[..job_flags_at].lines() {
        if let Some(rest) = line.strip_prefix("  oms ") {
            let mut words = rest.split_whitespace();
            let name = words.next().unwrap().to_string();
            let positional = words.take_while(|w| w.starts_with('<')).count();
            commands.push((name, positional, String::new()));
        }
        if let Some((_, _, block)) = commands.last_mut() {
            *block += line;
        }
    }
    let names: Vec<&str> = commands.iter().map(|(name, ..)| name.as_str()).collect();
    for expected in ["partition", "map", "algorithms", "convert", "generate"] {
        assert!(
            names.contains(&expected),
            "{expected} missing from {names:?}"
        );
    }
    assert_eq!(names.len(), 10, "{names:?}");
    for (name, positional, block) in &commands {
        let (mut expected, _) = bracketed_flags(block);
        if block.contains("[job flags]") {
            expected.extend(job_flags.iter().cloned());
        }
        expected.sort();

        let (code, _, stderr) = run_oms(&[name, "--no-such-flag", "x"]);
        assert_eq!(code, Some(1), "{name}: {stderr}");
        let prefix = "error: unknown option '--no-such-flag' (allowed here: ";
        let listed = stderr
            .strip_prefix(prefix)
            .and_then(|rest| rest.split_once(")\n"))
            .unwrap_or_else(|| panic!("{name}: {stderr}"))
            .0;
        let mut listed: Vec<String> = listed
            .split(", ")
            .filter(|flag| !flag.is_empty())
            .map(|flag| flag.trim_start_matches("--").to_string())
            .collect();
        listed.sort();
        assert_eq!(listed, expected, "{name}");

        let dummies = vec!["x"; positional + 1];
        let mut arities = vec![&dummies[..*positional + 1]];
        if *positional > 0 {
            arities.push(&dummies[..positional - 1]);
        }
        for given in arities {
            let mut args = vec![name.as_str()];
            args.extend(given);
            let (code, _, stderr) = run_oms(&args);
            assert_eq!(code, Some(1), "{args:?}: {stderr}");
            assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
            assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        }
    }
}

/// README's "Command line" section shows the usage text the program prints.
#[test]
fn readme_shows_the_generated_usage() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md at the workspace root");
    let usage = usage_text();
    assert!(
        readme.contains(&format!("```text\n{usage}\n```")),
        "README.md's usage block differs from `oms`'s:\n{usage}"
    );
}

/// `generate` refuses an `<n>` outside its family's range — below the
/// generator's minimum, or a node count (after `grid` rounds up to side²
/// and `rmat` to a power of two) past what a `NodeId` numbers — as a usage
/// error, never an assertion panic or an allocation abort.
#[test]
fn generate_refuses_sizes_outside_each_familys_range_without_panicking() {
    let dir = temp_dir("generate-sizes");
    let huge = (u64::MAX).to_string();
    let past_u32 = ((1u64 << 32) + 1).to_string();
    for family in ["rgg", "delaunay", "ba", "rmat", "grid", "er"] {
        for n in ["0", "1", "2", &past_u32, &huge] {
            let out = dir.join(format!("{family}-{n}.metis"));
            let output = oms()
                .args(["generate", family, n])
                .arg(&out)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&output.stderr);
            let code = output.status.code();
            assert!(
                code == Some(0) || code == Some(1),
                "{family} {n}: {code:?} {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{family} {n}: {stderr}");
            if code == Some(1) {
                let message = format!("error: generate {family}: <n> must be between ");
                assert!(stderr.starts_with(&message), "{family} {n}: {stderr}");
            }
            if n == past_u32 || n == huge {
                assert_eq!(code, Some(1), "{family} {n}: {stderr}");
            }
        }
    }
}

/// A small ER graph for the flag-value tests.
fn small_graph(name: &str) -> (PathBuf, String) {
    let dir = temp_dir(name);
    let graph = dir.join("er.metis");
    let output = oms()
        .args(["generate", "er", "300"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(output.status.success());
    let graph = graph.to_str().unwrap().to_string();
    (dir, graph)
}

/// `gen-deltas <graph> <out> <extra…> --<flag> <value>` for every value in
/// `bad` is a usage error that prints `message`; `good` still runs.
fn assert_gen_deltas_refuses(flag: &str, extra: &[&str], bad: &[&str], good: &str) {
    let (dir, graph) = small_graph(&format!("gen-deltas-{flag}"));
    let out = dir.join("out.deltas");
    let out = out.to_str().unwrap();
    let flag = format!("--{flag}");
    let args = |value| {
        let mut args = vec!["gen-deltas", &graph, out, "--batches", "2", "--ops", "10"];
        args.extend(extra);
        args.extend([flag.as_str(), value]);
        args
    };
    for &value in bad {
        let (code, _, stderr) = run_oms(&args(value));
        assert_eq!(code, Some(1), "{flag} {value}: {stderr}");
        let message = format!("error: {flag} must be a fraction in [0, 1], got '{value}'");
        assert!(stderr.starts_with(&message), "{flag} {value}: {stderr}");
    }
    let (code, _, stderr) = run_oms(&args(good));
    assert_eq!(code, Some(0), "{flag} {good}: {stderr}");
}

#[test]
fn gen_deltas_refuses_a_node_churn_outside_the_unit_interval() {
    assert_gen_deltas_refuses("node-churn", &[], &["5", "-1", "nan"], "0.5");
}

#[test]
fn gen_deltas_refuses_an_insert_fraction_outside_the_unit_interval() {
    assert_gen_deltas_refuses("insert-frac", &[], &["5", "-1", "nan"], "0.5");
}

#[test]
fn gen_deltas_refuses_a_delete_fraction_outside_the_unit_interval() {
    let temporal = ["--temporal", "pa"];
    assert_gen_deltas_refuses("delete-frac", &temporal, &["5", "-1", "nan"], "0.5");
}

#[test]
fn replay_refuses_a_zipf_exponent_that_is_negative_or_not_finite() {
    let (_dir, graph) = small_graph("replay-zipf");
    let args = |zipf| {
        [
            "replay",
            &graph,
            "--k",
            "4",
            "--requests",
            "50",
            "--zipf",
            zipf,
        ]
    };
    for zipf in ["-1", "nan", "inf"] {
        let (code, _, stderr) = run_oms(&args(zipf));
        assert_eq!(code, Some(1), "--zipf {zipf}: {stderr}");
        let message = format!("error: --zipf must be a non-negative number, got '{zipf}'");
        assert!(stderr.starts_with(&message), "--zipf {zipf}: {stderr}");
    }
    let (code, _, stderr) = run_oms(&args("1.5"));
    assert_eq!(code, Some(0), "{stderr}");
}

/// `map` is `partition` with a hierarchy and the paper's distances: the same
/// job written either way gives the same mapping.
#[test]
fn map_and_the_same_partition_job_write_identical_files() {
    let (dir, graph) = small_graph("map-is-partition");
    let (mapped, partitioned) = (dir.join("map.txt"), dir.join("partition.txt"));
    let (mapped, partitioned) = (mapped.to_str().unwrap(), partitioned.to_str().unwrap());
    let map = ["map", &graph, "--hierarchy", "4:4:4", "--output", mapped];
    let (code, _, stderr) = run_oms(&map);
    assert_eq!(code, Some(0), "{stderr}");
    let job = "oms:4:4:4@dist=1:10:100";
    let partition = ["partition", &graph, "--job", job, "--output", partitioned];
    let (code, _, stderr) = run_oms(&partition);
    assert_eq!(code, Some(0), "{stderr}");
    let (mapped, partitioned) = (std::fs::read(mapped), std::fs::read(partitioned));
    assert_eq!(mapped.unwrap(), partitioned.unwrap());
}

/// `map` reports `c(V)`, `ω(E)` and the heaviest block on a weighted graph
/// (RMAT merges its duplicate edges into edge weights), as `partition` does,
/// and no weights line on an unweighted one.
#[test]
fn map_reports_the_weights_of_a_weighted_graph() {
    let (dir, unweighted) = small_graph("map-weights");
    let weighted = dir.join("rmat.metis");
    let weighted = weighted.to_str().unwrap();
    let (code, _, stderr) = run_oms(&["generate", "rmat", "2048", weighted, "--seed", "7"]);
    assert_eq!(code, Some(0), "{stderr}");
    let weights_of = |stdout: &str| -> Option<String> {
        let line = stdout.lines().find(|line| line.starts_with("weights"))?;
        // c(V) and ω(E) belong to the graph; the heaviest block to the job.
        Some(
            line.split_once(": ")?
                .1
                .split(", max block")
                .next()?
                .to_string(),
        )
    };
    let (code, mapped, stderr) = run_oms(&["map", weighted, "--hierarchy", "2:2:4"]);
    assert_eq!(code, Some(0), "{stderr}");
    let (code, partitioned, stderr) = run_oms(&["partition", weighted, "--k", "16"]);
    assert_eq!(code, Some(0), "{stderr}");
    let weights = weights_of(&mapped).unwrap_or_else(|| panic!("no weights line: {mapped}"));
    assert!(
        mapped.contains("\nweights      : c(V) = 2048, ω(E) = "),
        "{mapped}"
    );
    assert_eq!(Some(weights), weights_of(&partitioned), "{partitioned}");

    let (code, mapped, stderr) = run_oms(&["map", &unweighted, "--hierarchy", "2:2:4"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(weights_of(&mapped), None, "{mapped}");
}
