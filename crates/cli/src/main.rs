//! `oms` — command-line streaming graph partitioning and process mapping.
//!
//! ```text
//! oms partition <graph.metis|graph.oms> --k 256 [--algo oms|fennel|ldg|hashing|buffered|multilevel|...]
//!               [job flags] [--format metis|edgelist|stream] [--output partition.txt]
//! oms partition <graph> --k 256 --algo e-hash|e-dbh|e-greedy [--lambda 1.0] [--passes P]
//!               # vertex-cut edge partitioning: reports the replication factor and
//!               # writes one "u v block" line per edge
//! oms partition <graph> --job "oms:4:16:8@eps=0.03,passes=3" [--output FILE]
//! oms map       <graph.metis|graph.oms> --hierarchy 4:16:8 [--distances 1:10:100]
//!               [--algo oms|fennel|hashing|rms] [job flags] [--output mapping.txt]
//! oms algorithms                              # list the registered algorithms
//! oms convert   <graph.metis> <graph.oms>     # to/from the binary vertex-stream format
//! oms generate  <family> <n> <out.metis>      # rgg | delaunay | ba | rmat | grid | er
//!               [--weights unit|nodes|edges|full]   # weighted variants
//! oms gen-deltas <graph> <out.deltas> [--scheme uniform|drift|burst] [--batches B] [--ops O]
//!               [--temporal pa|drift|burst]    # timestamped temporal streams instead of churn
//! oms apply-deltas <graph> <trace.deltas> --k 8 [--algo fennel|ldg|...] [--drift 0.2]
//!               [--repair off|local|boundary] [--window W]  # incremental maintenance vs cold restream
//! oms replay    <graph> --k 8 [--algo fennel|hashing|e-greedy|...] [--requests N] [--hops H]
//!               [--zipf S] [--penalty P] [--replay-seed S]  # traffic replay: hop rate + latency
//! oms trace     <trace.jsonl>                 # summarize a recorded trace, verify its hash
//! oms info      <graph.metis|graph.oms>
//! ```
//!
//! The four job commands (`partition`, `map`, `apply-deltas`, `replay`)
//! share one flag set, derived from the job-option table
//! (`oms_core::knobs`): `--job SPEC` or `--algo NAME` plus one `--flag` per
//! option that has one (`--epsilon`, `--seed`, `--passes`, `--converge`,
//! `--buffer`, `--lambda`, `--drift`, `--repair`, `--window`,
//! `--distances`); `--job` excludes all the others. They also accept
//! `--trace FILE` (record the run's deterministic JSON-lines event trace)
//! and `--metrics` (print a Prometheus-style exposition after the run).
//!
//! `--format` overrides the extension-based sniffing (`.oms` = binary
//! vertex stream, `.txt`/`.edges`/`.el` = edge list, everything else =
//! METIS text); node/edge-weighted graphs are supported in all formats and
//! weighted runs report `c(V)`, `ω(E)` and the heaviest block next to the
//! cut.
//!
//! Every algorithm is dispatched through the shared `oms-core::api` registry:
//! the CLI builds one [`JobSpec`] per invocation and runs whatever
//! `Box<dyn Partitioner>` the registry produces, so new backends registered
//! by library crates are immediately available here.
//!
//! Exit code 0 on success, 1 on user error, 2 on internal error. A reader
//! that closes stdout early (`oms algorithms | head -1`) ends the command
//! quietly with 141, the status a shell reports for a `SIGPIPE` death.

// Everything printed goes through `emit`, which turns a failed write into an
// `Error`; `println!` would panic on it.
#![deny(clippy::print_stdout)]

use oms_core::knobs::{self, KNOBS};
use oms_core::{JobShape, JobSpec, PartitionReport, Partitioner, ALGORITHMS};
use oms_graph::io::{
    read_edge_list, read_metis, read_stream_file, write_edge_list, write_metis, write_stream_file,
    DiskStream, MetisStream,
};
use oms_graph::{CsrGraph, EdgesOf, InMemoryStream, NodeStream};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    // Make the in-memory baselines (multilevel, rms) resolvable by name.
    oms_multilevel::register_algorithms();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Error::Usage(msg)) => {
            eprintln!("error: {msg}\n");
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
        Err(Error::Internal(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        Err(Error::StdoutClosed) => ExitCode::from(141),
    }
}

/// The usage text; the job flags and the job grammar come from the
/// job-option table.
fn usage() -> String {
    let job_flags: Vec<String> = knob_flags()
        .map(|(knob, flag)| format!("[--{flag} {}]", knob.value_hint()))
        .collect();
    format!(
        "usage:
  oms partition  <graph> --k <k> [--algo NAME] [job flags] [--format F] [--output FILE]
  oms partition  <graph> --job <spec>  (e.g. \"oms:4:16:8@eps=0.03,passes=3\" or \"e-greedy:256@lambda=1.5\") [--output FILE]
  oms map        <graph> --hierarchy a1:a2:... [--distances 1:10:100] [--algo NAME | --job SPEC] [job flags] [--format F] [--output FILE]
  oms algorithms
  oms convert    <in> <out>  (out format by extension: .oms = vertex stream, .txt/.edges/.el = edge list, else METIS) [--format F]
  oms generate   <rgg|delaunay|ba|rmat|grid|er> <n> <out.metis> [--seed S] [--weights unit|nodes|edges|full]
  oms gen-deltas <graph> <out.deltas> [--scheme uniform|drift|burst] [--temporal pa|drift|burst] [--batches B] [--ops O] [--node-churn F] [--insert-frac F] [--delete-frac F] [--seed S] [--format F]
  oms apply-deltas <graph> <trace.deltas> --k <k> [--algo NAME | --job SPEC] [--reference on|off] [job flags] [--format F] [--output FILE]
  oms replay     <graph> --k <k> [--algo NAME | --job SPEC] [--requests N] [--hops H] [--zipf S] [--penalty P] [--arrival T] [--max-backlog B] [--replay-seed S] [job flags] [--format F]
  oms trace      <trace.jsonl>  (summarize a trace recorded with --trace and verify its event-log hash)
  oms info       <graph> [--format F]

  job flags: {}
  job spec : {}  (--job replaces --algo, the shape and every job flag)
  --format F selects the input format (auto | metis | edgelist | stream); auto sniffs the extension.
  partition, map, apply-deltas and replay also accept --trace FILE (record a JSON-lines event trace)
  and --metrics (print a Prometheus-style exposition of the run's counters and histograms).",
        job_flags.join(" "),
        knobs::grammar()
    )
}

enum Error {
    Usage(String),
    Internal(String),
    /// The reader closed stdout; there is nobody left to tell.
    StdoutClosed,
}

/// The one path to stdout.
fn emit(args: std::fmt::Arguments<'_>) -> Result<(), Error> {
    std::io::stdout()
        .write_fmt(args)
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe => Error::StdoutClosed,
            _ => Error::Internal(format!("cannot write to stdout: {e}")),
        })
}

/// `println!` through [`emit`]: evaluates to a `Result` instead of panicking.
macro_rules! outln {
    () => { emit(format_args!("\n")) };
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

impl From<oms_graph::GraphError> for Error {
    fn from(e: oms_graph::GraphError) -> Self {
        Error::Internal(format!("graph error: {e}"))
    }
}

impl From<oms_core::PartitionError> for Error {
    fn from(e: oms_core::PartitionError) -> Self {
        match e {
            // Bad specs are user errors: show the usage text.
            oms_core::PartitionError::InvalidSpec(msg)
            | oms_core::PartitionError::InvalidConfig(msg) => Error::Usage(msg),
            // A bad file reads the same whether it fails when opened or
            // mid-pass under a streamed job.
            oms_core::PartitionError::Graph(e) => e.into(),
        }
    }
}

fn run(args: &[String]) -> Result<(), Error> {
    let Some(command) = args.first() else {
        return Err(Error::Usage("missing command".into()));
    };
    let rest = &args[1..];
    match command.as_str() {
        "partition" => partition_command(rest),
        "map" => map_command(rest),
        "algorithms" => algorithms_command(rest),
        "convert" => convert_command(rest),
        "generate" => generate_command(rest),
        "gen-deltas" => gen_deltas_command(rest),
        "apply-deltas" => apply_deltas_command(rest),
        "replay" => replay_command(rest),
        "trace" => trace_command(rest),
        "info" => info_command(rest),
        other => Err(Error::Usage(format!("unknown command '{other}'"))),
    }
}

/// Splits positional arguments from `--flag value` options.
///
/// Every option must carry a value and appear in `allowed`; a dangling
/// `--flag` or an unknown flag is a usage error rather than being silently
/// swallowed.
fn split_options(
    args: &[String],
    allowed: &[&str],
) -> Result<(Vec<String>, HashMap<String, String>), Error> {
    let mut positional = Vec::new();
    let mut options = HashMap::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if !allowed.contains(&name) {
                return Err(Error::Usage(format!(
                    "unknown option '--{name}' (allowed here: {})",
                    allowed
                        .iter()
                        .map(|o| format!("--{o}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
            let Some(value) = iter.next() else {
                return Err(Error::Usage(format!("option '--{name}' requires a value")));
            };
            if value.starts_with("--") {
                return Err(Error::Usage(format!(
                    "option '--{name}' requires a value, found '{value}'"
                )));
            }
            options.insert(name.to_string(), value.clone());
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((positional, options))
}

/// Strips a valueless `--flag` from the raw argument list before
/// [`split_options`] (which requires every option to carry a value).
fn take_flag(args: &[String], flag: &str) -> (Vec<String>, bool) {
    let mut present = false;
    let mut rest = Vec::with_capacity(args.len());
    for arg in args {
        if arg == flag {
            present = true;
        } else {
            rest.push(arg.clone());
        }
    }
    (rest, present)
}

/// Observability wiring behind `--trace FILE` / `--metrics`: installs a
/// recording observer for the duration of the command; [`ObsSession::finish`]
/// writes the JSON-lines trace and/or prints the Prometheus exposition.
/// With neither flag set, nothing is installed and the engines run with the
/// free no-op observer.
struct ObsSession {
    recording: Option<(std::sync::Arc<oms_obs::ObsCore>, oms_obs::ObsGuard)>,
    trace_path: Option<String>,
    metrics: bool,
}

impl ObsSession {
    fn start(options: &HashMap<String, String>, metrics: bool) -> ObsSession {
        let trace_path = options.get("trace").cloned();
        let recording = (trace_path.is_some() || metrics)
            .then(|| oms_obs::recording(oms_obs::DEFAULT_CAPACITY));
        ObsSession {
            recording,
            trace_path,
            metrics,
        }
    }

    fn finish(self) -> Result<(), Error> {
        let Some((core, guard)) = self.recording else {
            return Ok(());
        };
        drop(guard);
        if let Some(path) = &self.trace_path {
            std::fs::write(path, oms_obs::trace_jsonl(&core))
                .map_err(|e| Error::Internal(format!("cannot write {path}: {e}")))?;
            outln!(
                "trace      : {path} ({} events, {} dropped, log hash {:016x})",
                core.recorded(),
                core.dropped(),
                core.log_hash()
            )?;
        }
        if self.metrics {
            outln!()?;
            emit(format_args!("{}", oms_obs::prometheus(&core)))?;
        }
        Ok(())
    }
}

/// Input formats accepted by `--format` (default `auto` sniffs the
/// extension: `.oms` = vertex stream, `.txt`/`.edges`/`.el` = edge list,
/// anything else = METIS).
const FORMATS: &[&str] = &["auto", "metis", "edgelist", "stream"];

/// The one extension table shared by input sniffing and `convert`'s output
/// dispatch, so a file written under some extension is read back the same
/// way.
fn sniff_format(path: &Path) -> &'static str {
    match path.extension().and_then(|e| e.to_str()).unwrap_or("") {
        "oms" => "stream",
        "txt" | "edges" | "el" => "edgelist",
        _ => "metis",
    }
}

/// The input format of `path`: `--format` when given (and not `auto`), else
/// sniffed from the extension.
fn input_format(path: &str, options: &HashMap<String, String>) -> Result<&'static str, Error> {
    let explicit = options.get("format").map(|f| f.to_ascii_lowercase());
    match explicit.as_deref().unwrap_or("auto") {
        "auto" => Ok(sniff_format(Path::new(path))),
        explicit => match FORMATS.iter().find(|&&known| known == explicit) {
            Some(&known) => Ok(known),
            None => Err(Error::Usage(format!(
                "unknown input format '{explicit}' (known: {})",
                FORMATS.join(", ")
            ))),
        },
    }
}

fn load_graph_opt(path: &str, options: &HashMap<String, String>) -> Result<CsrGraph, Error> {
    Ok(match input_format(path, options)? {
        "stream" => read_stream_file(path)?,
        "edgelist" => read_edge_list(path, None)?,
        _ => read_metis(path)?,
    })
}

/// Where `partition` / `map` / `apply-deltas` read their graph from. The
/// choice follows from the file alone: a METIS or vertex-stream file runs
/// straight off the file in `O(n + batch)` memory, whatever the job — one
/// scan per pass for the five streaming algorithms, whose report is tallied
/// while they partition, and one more walk for `buffered` / `multilevel` /
/// `rms`, which are measured afterwards. Every one of those walks proves the
/// adjacency lists symmetric, so each job refuses a file that is not.
/// `apply-deltas` reads it once, into the
/// dynamic graph's one `O(n + m)` slab. An edge list does not group its
/// edges by node, so it is materialised.
enum Source {
    /// The file itself.
    Streamed(Box<dyn NodeStream>),
    Materialised(CsrGraph),
}

impl Source {
    fn open(path: &str, options: &HashMap<String, String>) -> Result<Self, Error> {
        Ok(match input_format(path, options)? {
            "edgelist" => Source::Materialised(read_edge_list(path, None)?),
            "stream" => Source::Streamed(Box::new(DiskStream::open(path)?)),
            _ => Source::Streamed(Box::new(MetisStream::open(path)?)),
        })
    }

    /// Calls `f` with the graph as a node stream.
    fn with_stream<T>(&mut self, f: impl FnOnce(&mut dyn NodeStream) -> T) -> T {
        match self {
            Source::Streamed(stream) => f(stream.as_mut()),
            Source::Materialised(graph) => f(&mut InMemoryStream::new(graph)),
        }
    }

    fn run(&mut self, partitioner: &dyn Partitioner) -> Result<PartitionReport, Error> {
        Ok(self.with_stream(|stream| partitioner.run(stream))?)
    }

    /// `(n, m)` of the graph.
    fn counts(&self) -> (usize, usize) {
        match self {
            Source::Streamed(stream) => (stream.num_nodes(), stream.num_edges()),
            Source::Materialised(graph) => (graph.num_nodes(), graph.num_edges()),
        }
    }

    /// `ω(E)` when some node or edge weight differs from 1, `None` for an
    /// unweighted graph. A streamed source takes `ω(E)` from the run's
    /// report (weights are ≥ 1, so unit weights ⇔ `c(V) = n` and
    /// `ω(E) = m`) and re-reads the file only when the run measured none.
    fn total_edge_weight_if_weighted(
        &mut self,
        report: &PartitionReport,
    ) -> Result<Option<u64>, Error> {
        match self {
            Source::Materialised(graph) => {
                Ok((!graph.is_unweighted()).then(|| graph.total_edge_weight()))
            }
            Source::Streamed(stream) => {
                let total = match report.total_edge_weight {
                    Some(total) => total,
                    None => {
                        stream.reset()?;
                        let assignments = report.partition.assignments();
                        oms_core::measure(stream.as_mut(), assignments, 0, None)?.total_edge_weight
                    }
                };
                let unweighted = stream.total_node_weight() == stream.num_nodes() as u64
                    && total == stream.num_edges() as u64;
                Ok((!unweighted).then_some(total))
            }
        }
    }
}

/// Writes one block id per line through a sizeable buffer with manual
/// itoa-style integer encoding, skipping the `fmt` machinery on the
/// per-node hot path of million-node partitions.
fn write_assignments(path: &str, assignments: &[u32]) -> Result<(), Error> {
    let io_err = |e: std::io::Error| Error::Internal(format!("cannot write {path}: {e}"));
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut w = std::io::BufWriter::with_capacity(1 << 20, file);
    let mut digits = [0u8; 11]; // u32::MAX has 10 digits, plus the newline
    for &block in assignments {
        w.write_all(encode_line(block, &mut digits))
            .map_err(io_err)?;
    }
    w.flush().map_err(io_err)
}

/// Encodes `value` as decimal digits followed by `\n`, filling `buf` from
/// the back, and returns the used slice.
fn encode_line(mut value: u32, buf: &mut [u8; 11]) -> &[u8] {
    buf[10] = b'\n';
    let mut start = 10;
    loop {
        start -= 1;
        buf[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    &buf[start..]
}

fn parse_option<T: std::str::FromStr>(
    options: &HashMap<String, String>,
    key: &str,
    what: &str,
) -> Result<Option<T>, Error> {
    match options.get(key) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| Error::Usage(format!("--{key} must be {what}, got '{raw}'"))),
    }
}

/// The job-option table rows that have a CLI flag, with that flag.
fn knob_flags() -> impl Iterator<Item = (&'static knobs::Knob, &'static str)> {
    KNOBS
        .iter()
        .filter_map(|knob| knob.flag.map(|flag| (knob, flag)))
}

/// The flags a job command accepts: `--job`/`--algo`, the job-option
/// table's flags, `--trace`, and the command's `own`.
fn job_flags(own: &[&'static str]) -> Vec<&'static str> {
    let shared = ["job", "algo", "trace"].into_iter();
    shared
        .chain(knob_flags().map(|(_, flag)| flag))
        .chain(own.iter().copied())
        .collect()
}

/// Builds the job of `command` from its flags: `--job` verbatim, or
/// `--algo` (default `default_algo`) with the shape from `--<shape_flag>`
/// (`k` or `hierarchy`) and one option per job flag given.
fn job_from_options(
    options: &HashMap<String, String>,
    command: &str,
    shape_flag: &str,
    default_algo: &str,
) -> Result<JobSpec, Error> {
    if let Some(spec) = options.get("job") {
        let mut encoded = ["algo", shape_flag]
            .into_iter()
            .chain(knob_flags().map(|(_, flag)| flag));
        if let Some(flag) = encoded.find(|flag| options.contains_key(*flag)) {
            return Err(Error::Usage(format!(
                "--job already encodes the whole job; drop --{flag}"
            )));
        }
        return Ok(spec.parse()?);
    }
    let shape = if shape_flag == "hierarchy" {
        let hierarchy = options.get("hierarchy");
        let hierarchy = hierarchy.map(|h| oms_core::HierarchySpec::parse(h));
        hierarchy.transpose()?.map(JobShape::Hierarchy)
    } else {
        parse_option(options, "k", "a positive integer")?.map(JobShape::Flat)
    };
    let Some(shape) = shape else {
        return Err(Error::Usage(format!(
            "{command}: --{shape_flag} (or --job) is required"
        )));
    };
    let algo = options.get("algo").map_or(default_algo, String::as_str);
    let mut job = JobSpec::flat(algo, 0);
    job.shape = shape;
    for (knob, flag) in knob_flags() {
        if let Some(raw) = options.get(flag) {
            knob.set(&mut job, raw)
                .map_err(|why| Error::Usage(format!("--{flag} {raw}: {why}")))?;
        }
    }
    Ok(job)
}

/// Prints the per-pass quality trajectory of a multi-pass run, one line per
/// accepted pass.
fn print_trajectory(trajectory: &[oms_core::PassStats]) -> Result<(), Error> {
    if trajectory.len() < 2 {
        return Ok(());
    }
    for stats in trajectory {
        outln!(
            "  pass {:>2}  : cut {} (imbalance {:.4}, {} moved, {:.4} s)",
            stats.pass,
            stats.edge_cut,
            stats.imbalance,
            stats.moved,
            stats.seconds
        )?;
    }
    Ok(())
}

fn partition_command(args: &[String]) -> Result<(), Error> {
    let (args, metrics) = take_flag(args, "--metrics");
    let (positional, options) = split_options(&args, &job_flags(&["k", "format", "output"]))?;
    let Some(path) = positional.first() else {
        return Err(Error::Usage("partition: missing graph file".into()));
    };
    let job = job_from_options(&options, "partition", "k", "oms")?;
    let obs = ObsSession::start(&options, metrics);
    if oms_edgepart::is_edge_algorithm(&job.algorithm) {
        // The e-* algorithms partition *edges* (vertex-cut objective);
        // they report the replication factor instead of the edge-cut.
        edge_partition_command(path, &options, &job)?;
        return obs.finish();
    }
    let partitioner = job.build()?;

    let mut source = Source::open(path, &options)?;
    let report = source.run(partitioner.as_ref())?;

    let (n, m) = source.counts();
    outln!("graph      : {path} (n = {n}, m = {m})")?;
    outln!("job        : {job}")?;
    outln!(
        "algorithm  : {}, k = {}",
        report.algorithm,
        report.num_blocks()
    )?;
    outln!("edge-cut   : {}", report.edge_cut)?;
    outln!("imbalance  : {:.4}", report.imbalance)?;
    if let Some(total_edge_weight) = source.total_edge_weight_if_weighted(&report)? {
        outln!(
            "weights    : c(V) = {}, ω(E) = {total_edge_weight}, max block = {}",
            report.total_node_weight(),
            report.max_block_weight()
        )?;
    }
    outln!("time       : {:.4} s", report.seconds)?;
    print_trajectory(&report.trajectory)?;
    if let Some(output) = options.get("output") {
        write_assignments(output, report.partition.assignments())?;
        outln!("partition written to {output}")?;
    }
    obs.finish()
}

/// The vertex-cut pipeline behind `partition --algo e-*`: runs an edge
/// partitioner from the `oms-edgepart` registry, reports the replication
/// factor and (with `--output`) writes one `u v block` line per edge in
/// stream order.
fn edge_partition_command(
    path: &str,
    options: &HashMap<String, String>,
    job: &JobSpec,
) -> Result<(), Error> {
    let partitioner = oms_edgepart::build_edge_partitioner(job)?;
    let graph = load_graph_opt(path, options)?;
    let report = partitioner.run(&mut EdgesOf(InMemoryStream::new(&graph)))?;

    outln!(
        "graph       : {path} (n = {}, m = {})",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    outln!("job         : {job}")?;
    outln!(
        "algorithm   : {}, k = {} (vertex-cut)",
        report.algorithm,
        report.num_blocks()
    )?;
    outln!(
        "replication : {:.4} (total replicas {}, max {})",
        report.replication_factor,
        report.total_replicas,
        report.max_replicas
    )?;
    outln!("edge-balance: {:.4}", report.imbalance)?;
    if !graph.is_unweighted() {
        outln!(
            "weights     : ω(E) = {}, max block load = {}",
            report.partition.total_load(),
            report.partition.max_block_load()
        )?;
    }
    outln!("time        : {:.4} s", report.seconds)?;
    if report.trajectory.len() >= 2 {
        for stats in &report.trajectory {
            outln!(
                "  pass {:>2}  : replication {:.4} (imbalance {:.4}, {} moved, {:.4} s)",
                stats.pass,
                stats.replication_factor,
                stats.imbalance,
                stats.moved,
                stats.seconds
            )?;
        }
    }
    if let Some(output) = options.get("output") {
        write_edge_assignments(output, &graph, report.partition.assignments())?;
        outln!("edge partition written to {output}")?;
    }
    Ok(())
}

/// Writes one `u v block` line per edge, in the edge-stream order the
/// assignment was produced in.
fn write_edge_assignments(path: &str, graph: &CsrGraph, assignments: &[u32]) -> Result<(), Error> {
    let io_err = |e: std::io::Error| Error::Internal(format!("cannot write {path}: {e}"));
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut w = std::io::BufWriter::with_capacity(1 << 20, file);
    for (i, (u, v, _)) in graph.edges().enumerate() {
        writeln!(w, "{u} {v} {}", assignments[i]).map_err(io_err)?;
    }
    w.flush().map_err(io_err)
}

fn map_command(args: &[String]) -> Result<(), Error> {
    let (args, metrics) = take_flag(args, "--metrics");
    let (positional, options) =
        split_options(&args, &job_flags(&["hierarchy", "format", "output"]))?;
    let Some(path) = positional.first() else {
        return Err(Error::Usage("map: missing graph file".into()));
    };
    let mut job = job_from_options(&options, "map", "hierarchy", "oms")?;
    if job.distances.is_none() && !options.contains_key("job") {
        job = job.distances(oms_core::DistanceSpec::paper_default());
    }
    let (Some(hierarchy), Some(distances)) = (job.shape.hierarchy(), &job.distances) else {
        return Err(Error::Usage(
            "map: the job needs a hierarchy and PE distances (dist= in --job)".into(),
        ));
    };
    let obs = ObsSession::start(&options, metrics);
    let partitioner = job.build()?;

    let mut source = Source::open(path, &options)?;
    let report = source.run(partitioner.as_ref())?;

    let (n, m) = source.counts();
    outln!("graph        : {path} (n = {n}, m = {m})")?;
    outln!(
        "topology     : S = {}, D = {}",
        hierarchy.to_string_spec(),
        distances
            .distances()
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(":")
    )?;
    outln!("job          : {job}")?;
    outln!(
        "algorithm    : {}, k = {} PEs",
        report.algorithm,
        report.num_blocks()
    )?;
    outln!(
        "mapping cost : {}",
        report.mapping_cost.expect("distances were attached")
    )?;
    outln!("edge-cut     : {}", report.edge_cut)?;
    outln!("imbalance    : {:.4}", report.imbalance)?;
    outln!("time         : {:.4} s", report.seconds)?;
    print_trajectory(&report.trajectory)?;
    if let Some(output) = options.get("output") {
        write_assignments(output, report.partition.assignments())?;
        outln!("mapping written to {output}")?;
    }
    obs.finish()
}

fn algorithms_command(args: &[String]) -> Result<(), Error> {
    let (positional, _) = split_options(args, &[])?;
    if !positional.is_empty() {
        return Err(Error::Usage("algorithms: takes no arguments".into()));
    }
    outln!("registered algorithms (use with --algo or in a --job spec):\n")?;
    let aliases = |aliases: &[&str]| match aliases {
        [] => String::new(),
        aliases => format!(" (aliases: {})", aliases.join(", ")),
    };
    for algo in ALGORITHMS.list() {
        let marker = if algo.supports_repair {
            " [repairable]"
        } else {
            ""
        };
        outln!(
            "  {:<12} {}{}{marker}",
            algo.name,
            algo.description,
            aliases(algo.aliases)
        )?;
    }
    outln!(
        "\n[repairable] algorithms support incremental repair under `oms apply-deltas` \
         (drift=/repair= job options)."
    )?;
    outln!("\nedge (vertex-cut) algorithms — partition edges, report the replication factor:\n")?;
    for algo in oms_edgepart::EDGE_ALGORITHMS.list() {
        outln!(
            "  {:<12} {}{}",
            algo.name,
            algo.description,
            aliases(algo.aliases)
        )?;
    }
    outln!("\njob spec grammar: {}", knobs::grammar())?;
    for line in knobs::help_lines() {
        outln!("  {line}")?;
    }
    Ok(())
}

fn convert_command(args: &[String]) -> Result<(), Error> {
    let (positional, options) = split_options(args, &["format"])?;
    let (Some(input), Some(output)) = (positional.first(), positional.get(1)) else {
        return Err(Error::Usage("convert: need <input> and <output>".into()));
    };
    let graph = load_graph_opt(input, &options)?;
    // The output format follows the same extension table as input
    // sniffing, so `convert a.metis b.edges && info b.edges` round-trips.
    match sniff_format(Path::new(output)) {
        "metis" => write_metis(&graph, output)?,
        "edgelist" => {
            // The edge-list format has no weight columns; refusing beats
            // silently stripping the weights.
            if !graph.is_unweighted() {
                return Err(Error::Usage(format!(
                    "convert: the edge-list format drops node/edge weights; \
                     write {output} as .metis or .oms instead"
                )));
            }
            write_edge_list(&graph, output)?
        }
        _ => {
            write_stream_file(&graph, output)?;
            // Round-trip validation: a stream file that does not decode
            // back to the exact source graph must never leave `convert`.
            let back = oms_graph::io::read_stream_file(output)?;
            if back != graph {
                return Err(Error::Internal(format!(
                    "convert: round-trip validation failed — {output} does not decode \
                     back to the source graph (this is a bug, the file was kept for \
                     inspection)"
                )));
            }
        }
    }
    outln!(
        "wrote {output} (n = {}, m = {}, c(V) = {})",
        graph.num_nodes(),
        graph.num_edges(),
        graph.total_node_weight()
    )?;
    Ok(())
}

fn generate_command(args: &[String]) -> Result<(), Error> {
    let (positional, options) = split_options(args, &["seed", "weights"])?;
    let (Some(family), Some(n), Some(output)) =
        (positional.first(), positional.get(1), positional.get(2))
    else {
        return Err(Error::Usage("generate: need <family> <n> <output>".into()));
    };
    let n: usize = n
        .parse()
        .map_err(|_| Error::Usage("generate: <n> must be an integer".into()))?;
    let seed: u64 = parse_option(&options, "seed", "an integer")?.unwrap_or(42);
    let scheme = match options.get("weights") {
        None => oms_gen::WeightScheme::Unit,
        Some(raw) => oms_gen::WeightScheme::parse(raw).ok_or_else(|| {
            Error::Usage(format!(
                "--weights must be unit, nodes, edges or full, got '{raw}'"
            ))
        })?,
    };
    let graph = match family.as_str() {
        "rgg" => oms_gen::random_geometric_graph(n, seed),
        "delaunay" => oms_gen::delaunay_graph(n, seed),
        "ba" => oms_gen::barabasi_albert(n.max(5), 4, seed),
        "rmat" => {
            let scale = (n as f64).log2().ceil() as u32;
            oms_gen::rmat_graph(scale, n * 8, oms_gen::RmatParams::GRAPH500, seed)
        }
        "grid" => {
            let side = (n as f64).sqrt().ceil() as usize;
            oms_gen::grid_2d(side, side)
        }
        "er" => oms_gen::erdos_renyi_gnm(n, n * 4, seed),
        other => return Err(Error::Usage(format!("unknown graph family '{other}'"))),
    };
    let graph = scheme.apply(&graph, seed);
    write_metis(&graph, output)?;
    outln!(
        "wrote {output} ({family}, weights = {}, n = {}, m = {}, c(V) = {})",
        scheme.name(),
        graph.num_nodes(),
        graph.num_edges(),
        graph.total_node_weight()
    )?;
    Ok(())
}

/// Generates a seeded churn or temporal trace (`gen-deltas`) in the textual
/// delta grammar (`+e u v [w]`, `-e u v`, `+n v [w]`, `-n v`, `!`
/// checkpoints) so the result feeds straight into `apply-deltas` or the
/// library's `read_delta_trace`. `--temporal pa|drift|burst` switches from
/// churn noise to timestamped temporal streams (one batch per timestamp
/// window).
fn gen_deltas_command(args: &[String]) -> Result<(), Error> {
    let (positional, options) = split_options(
        args,
        &[
            "scheme",
            "temporal",
            "batches",
            "ops",
            "node-churn",
            "insert-frac",
            "delete-frac",
            "seed",
            "format",
        ],
    )?;
    let (Some(path), Some(output)) = (positional.first(), positional.get(1)) else {
        return Err(Error::Usage(
            "gen-deltas: need <graph> and <out.deltas>".into(),
        ));
    };
    let graph = load_graph_opt(path, &options)?;
    if let Some(shape) = options.get("temporal") {
        if options.contains_key("scheme") {
            return Err(Error::Usage(
                "--temporal replaces --scheme; drop one of them".into(),
            ));
        }
        let mut config = oms_gen::TemporalConfig {
            seed: parse_option(&options, "seed", "an integer")?.unwrap_or(42),
            ..oms_gen::TemporalConfig::default()
        };
        config.scheme = match shape.as_str() {
            "pa" => oms_gen::TemporalScheme::PreferentialAttachment { edges_per_node: 3 },
            "drift" => oms_gen::TemporalScheme::CommunityDrift { communities: 8 },
            "burst" => oms_gen::TemporalScheme::BurstArrivals { period: 4 },
            other => {
                return Err(Error::Usage(format!(
                    "--temporal must be pa, drift or burst, got '{other}'"
                )))
            }
        };
        if let Some(batches) = parse_option(&options, "batches", "a positive integer")? {
            config.batches = batches;
        }
        if let Some(ops) = parse_option(&options, "ops", "a positive integer")? {
            config.ops_per_batch = ops;
        }
        if let Some(frac) = parse_option(&options, "delete-frac", "a fraction in [0, 1]")? {
            config.delete_fraction = frac;
        }
        let trace = oms_gen::temporal_trace(&graph, &config);
        oms_graph::write_delta_trace(output, &trace)?;
        outln!(
            "wrote {output} ({} batches, {} deltas, temporal = {:?}, seed = {})",
            trace.len(),
            trace.iter().map(oms_graph::DeltaBatch::len).sum::<usize>(),
            config.scheme,
            config.seed
        )?;
        return Ok(());
    }
    if options.contains_key("delete-frac") {
        return Err(Error::Usage(
            "--delete-frac only applies to --temporal traces".into(),
        ));
    }
    let mut config = oms_gen::ChurnConfig {
        seed: parse_option(&options, "seed", "an integer")?.unwrap_or(42),
        ..oms_gen::ChurnConfig::default()
    };
    if let Some(batches) = parse_option(&options, "batches", "a positive integer")? {
        config.batches = batches;
    }
    if let Some(ops) = parse_option(&options, "ops", "a positive integer")? {
        config.ops_per_batch = ops;
    }
    if let Some(frac) = parse_option(&options, "node-churn", "a fraction in [0, 1]")? {
        config.node_churn_fraction = frac;
    }
    if let Some(frac) = parse_option(&options, "insert-frac", "a fraction in [0, 1]")? {
        config.insert_fraction = frac;
    }
    config.scheme = match options
        .get("scheme")
        .map(|s| s.as_str())
        .unwrap_or("uniform")
    {
        "uniform" => oms_gen::ChurnScheme::Uniform,
        "drift" => oms_gen::ChurnScheme::CommunityDrift { communities: 8 },
        "burst" => oms_gen::ChurnScheme::Burst { window: 0.05 },
        other => {
            return Err(Error::Usage(format!(
                "--scheme must be uniform, drift or burst, got '{other}'"
            )))
        }
    };
    let trace = oms_gen::churn_trace(&graph, &config);
    oms_graph::write_delta_trace(output, &trace)?;
    outln!(
        "wrote {output} ({} batches, {} deltas, scheme = {:?}, seed = {})",
        trace.len(),
        trace.iter().map(oms_graph::DeltaBatch::len).sum::<usize>(),
        config.scheme,
        config.seed
    )?;
    Ok(())
}

/// The dynamic-maintenance pipeline behind `apply-deltas`: builds a
/// long-lived [`oms_dynamic::PartitionState`] over the graph (read once from
/// the [`Source`] into the state's slab, then dropped), applies the
/// trace batch by batch and prints one checkpoint row per `--window` batches
/// (default 1; the final batch always checkpoints) comparing the
/// incrementally maintained partition against a cold restream of the same
/// graph state (unless `--reference off`).
fn apply_deltas_command(args: &[String]) -> Result<(), Error> {
    let (args, metrics) = take_flag(args, "--metrics");
    let (positional, options) =
        split_options(&args, &job_flags(&["k", "reference", "format", "output"]))?;
    let (Some(path), Some(trace_path)) = (positional.first(), positional.get(1)) else {
        return Err(Error::Usage(
            "apply-deltas: need <graph> and <trace.deltas>".into(),
        ));
    };
    let job = job_from_options(&options, "apply-deltas", "k", "fennel")?;
    let reference = match options.get("reference").map(|s| s.as_str()).unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => {
            return Err(Error::Usage(format!(
                "--reference must be on or off, got '{other}'"
            )))
        }
    };
    let mut source = Source::open(path, &options)?;
    let (n, m) = source.counts();
    let obs = ObsSession::start(&options, metrics);
    let mut state = source.with_stream(|stream| oms_dynamic::PartitionState::new(&job, stream))?;
    // The state holds the graph now; an edge list's CSR goes with the source.
    drop(source);
    // Read after the graph, so a bad graph is reported before a bad trace.
    let trace = oms_graph::read_delta_trace(trace_path)?;
    outln!("graph      : {path} (n = {n}, m = {m})")?;
    outln!(
        "trace      : {trace_path} ({} batches, {} deltas)",
        trace.len(),
        trace.iter().map(oms_graph::DeltaBatch::len).sum::<usize>()
    )?;
    outln!("job        : {job}")?;
    outln!(
        "initial    : cut {} (imbalance {:.4})",
        state.edge_cut(),
        state.imbalance()
    )?;
    let cadence = oms_dynamic::Checkpoints::every(job.window);
    let mut checkpoints = Vec::with_capacity(cadence.count(trace.len()));
    let mut window_deltas = 0usize;
    let mut window_seconds = 0.0f64;
    for (i, batch) in trace.iter().enumerate() {
        let stats = state.apply(batch)?;
        window_deltas += stats.deltas;
        window_seconds += stats.seconds;
        if !cadence.is_checkpoint(i, trace.len()) {
            continue;
        }
        let (restream_cut, restream_imbalance, restream_seconds) = if reference {
            state.cold_restream_reference()?
        } else {
            (state.edge_cut(), state.imbalance(), 0.0)
        };
        checkpoints.push(oms_metrics::CheckpointComparison {
            checkpoint: checkpoints.len(),
            deltas: window_deltas,
            incremental_cut: state.edge_cut(),
            incremental_imbalance: state.imbalance(),
            incremental_seconds: window_seconds,
            restream_cut,
            restream_imbalance,
            restream_seconds,
        });
        window_deltas = 0;
        window_seconds = 0.0;
    }
    outln!()?;
    emit(format_args!(
        "{}",
        oms_metrics::checkpoint_table("incremental vs cold restream", &checkpoints).to_text()
    ))?;
    if reference {
        outln!(
            "\nmax cut ratio  : {:.3}",
            oms_metrics::max_cut_ratio(&checkpoints)
        )?;
        outln!(
            "repair speedup : {:.1}x",
            oms_metrics::repair_vs_restream_speedup(&checkpoints)
        )?;
    }
    let counters = state.counters();
    outln!(
        "drift          : {:.4} (threshold {}, {} full restreams, {} deltas applied)",
        state.drift(),
        job.drift,
        counters.restreams,
        counters.deltas_applied
    )?;
    if let Some(output) = options.get("output") {
        write_assignments(output, state.assignments())?;
        outln!("partition written to {output}")?;
    }
    obs.finish()
}

/// The traffic-replay pipeline behind `replay`: partitions the graph with
/// the requested job, then fires a seeded stream of Zipf-skewed random-walk
/// requests at the result and reports what simulated users would see —
/// cross-block hop rate, queue-load skew and p50/p99 latency. Both
/// node-partition algorithms and the vertex-cut `e-*` family are supported;
/// the latter serves each hop at the block owning the traversed edge.
fn replay_command(args: &[String]) -> Result<(), Error> {
    let (args, metrics) = take_flag(args, "--metrics");
    let (positional, options) = split_options(
        &args,
        &job_flags(&[
            "k",
            "requests",
            "hops",
            "zipf",
            "penalty",
            "arrival",
            "max-backlog",
            "replay-seed",
            "format",
        ]),
    )?;
    let Some(path) = positional.first() else {
        return Err(Error::Usage("replay: missing graph file".into()));
    };
    let job = job_from_options(&options, "replay", "k", "fennel")?;

    let mut config = oms_workload::ReplayConfig {
        seed: parse_option(&options, "replay-seed", "an integer")?.unwrap_or(0),
        ..oms_workload::ReplayConfig::default()
    };
    if let Some(requests) = parse_option(&options, "requests", "a positive integer")? {
        config.requests = requests;
    }
    if let Some(hops) = parse_option(&options, "hops", "a non-negative integer")? {
        config.hops = hops;
    }
    if let Some(zipf) = parse_option(&options, "zipf", "a non-negative number")? {
        config.zipf_exponent = zipf;
    }
    if let Some(penalty) = parse_option(&options, "penalty", "a non-negative integer")? {
        config.hop_penalty = penalty;
    }
    if let Some(arrival) = parse_option(&options, "arrival", "a non-negative integer")? {
        config.arrival_every = arrival;
    }
    if let Some(backlog) = parse_option(&options, "max-backlog", "a non-negative integer")? {
        config.max_backlog = backlog;
    }

    let graph = load_graph_opt(path, &options)?;
    outln!(
        "graph      : {path} (n = {}, m = {})",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    outln!("job        : {job}")?;
    outln!(
        "workload   : {} requests x {} hops (zipf {:.2}, penalty {}, arrival {}, seed {})",
        config.requests,
        config.hops,
        config.zipf_exponent,
        config.hop_penalty,
        config.arrival_every,
        config.seed
    )?;

    let obs = ObsSession::start(&options, metrics);
    let report = if oms_edgepart::is_edge_algorithm(&job.algorithm) {
        let partitioner = oms_edgepart::build_edge_partitioner(&job)?;
        let part = partitioner.run(&mut EdgesOf(InMemoryStream::new(&graph)))?;
        outln!(
            "partition  : {} (vertex-cut, replication {:.4})",
            part.algorithm,
            part.replication_factor
        )?;
        oms_workload::replay_edge_partition(
            &graph,
            part.partition.assignments(),
            part.num_blocks(),
            &config,
        )
    } else {
        let partitioner = job.build()?;
        let part = partitioner.run(&mut InMemoryStream::new(&graph))?;
        outln!(
            "partition  : {} (cut {}, imbalance {:.4})",
            part.algorithm,
            part.edge_cut,
            part.imbalance
        )?;
        oms_workload::replay_graph(&graph, part.partition.assignments(), &config)
    };

    outln!(
        "served     : {} of {} requests ({} rejected, {:.1}% shed)",
        report.served,
        report.requests,
        report.rejected,
        report.rejection_rate() * 100.0
    )?;
    outln!(
        "hop rate   : {:.4} cross-block ({} of {} hops)",
        report.cross_block_hop_rate(),
        report.cross_block_hops,
        report.total_hops
    )?;
    outln!(
        "load skew  : {:.3} (max block over mean; 1.000 = even)",
        report.load_skew()
    )?;
    outln!("p50 latency: {} ticks", report.p50_latency)?;
    outln!("p99 latency: {} ticks", report.p99_latency)?;
    outln!(
        "mean       : {:.1} ticks (makespan {}, log hash {:016x})",
        report.mean_latency,
        report.makespan,
        report.request_log_hash
    )?;
    obs.finish()
}

/// The `oms trace` subcommand: parses a JSON-lines trace recorded with
/// `--trace`, prints the summary and verifies the event-log hash against
/// the `trace_end` footer. What is wrong with the file's content — a line
/// outside the grammar, a missing footer (a torn write), a hash mismatch —
/// is an internal error (exit 2): the file does not describe the run it
/// claims to.
fn trace_command(args: &[String]) -> Result<(), Error> {
    let (positional, _options) = split_options(args, &[])?;
    let Some(path) = positional.first() else {
        return Err(Error::Usage("trace: missing trace file".into()));
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::Internal(format!("cannot read {path}: {e}")))?;
    let summary =
        oms_obs::summarize(&text).map_err(|e| Error::Internal(format!("trace error: {e}")))?;
    outln!("trace            {path}")?;
    emit(format_args!("{summary}"))?;
    let Some(footer) = summary.footer else {
        return Err(Error::Internal(
            "trace error: no trace_end footer — the file was cut off before the trace was \
             completely written"
                .into(),
        ));
    };
    if summary.hash_verified() == Some(false) {
        return Err(Error::Internal(format!(
            "event-log hash mismatch: footer {:#018x}, recomputed {:#018x}",
            footer.log_hash, summary.recomputed_hash
        )));
    }
    Ok(())
}

fn info_command(args: &[String]) -> Result<(), Error> {
    let (positional, options) = split_options(args, &["format"])?;
    let Some(path) = positional.first() else {
        return Err(Error::Usage("info: missing graph file".into()));
    };
    let graph = load_graph_opt(path, &options)?;
    outln!("file         : {path}")?;
    outln!("nodes        : {}", graph.num_nodes())?;
    outln!("edges        : {}", graph.num_edges())?;
    outln!("max degree   : {}", graph.max_degree())?;
    outln!("avg degree   : {:.2}", graph.average_degree())?;
    // Degree skew: a p99/max ratio near 0 means a few hubs dominate — the
    // signal that vertex-cut (e-*) partitioning will beat edge-cut.
    let p99 = graph.degree_percentile(0.99);
    let skew = if graph.max_degree() == 0 {
        1.0
    } else {
        p99 as f64 / graph.max_degree() as f64
    };
    outln!("p99 degree   : {p99}")?;
    outln!("degree skew  : {skew:.4} (p99/max; small = hub-dominated, favors vertex-cut)")?;
    outln!("total weight : {}", graph.total_node_weight())?;
    outln!("edge weight  : {}", graph.total_edge_weight())?;
    outln!("unweighted   : {}", graph.is_unweighted())?;
    outln!(
        "connected    : {}",
        oms_graph::traversal::is_connected(&graph)
    )?;
    // For stream files, break the on-disk layout down by section.
    if input_format(path, &options)? == "stream" {
        let info = oms_graph::io::stream_file_info(path)?;
        outln!("stream format: v3")?;
        outln!("  header       : {:>12} B", info.header_bytes)?;
        outln!("  degrees      : {:>12} B", info.degree_bytes)?;
        outln!(
            "  node weights : {:>12} B{}",
            info.node_weight_bytes,
            if info.has_node_weights {
                ""
            } else {
                " (unit, omitted)"
            }
        )?;
        outln!("  neighbors    : {:>12} B", info.neighbor_bytes)?;
        outln!(
            "  edge weights : {:>12} B{}",
            info.edge_weight_bytes,
            if info.has_edge_weights {
                ""
            } else {
                " (unit, omitted)"
            }
        )?;
        outln!("  padding      : {:>12} B", info.padding_bytes)?;
        outln!("  trailer      : {:>12} B", info.trailer_bytes)?;
        outln!("  total        : {:>12} B", info.file_bytes)?;
    }
    Ok(())
}
