//! `oms` — command-line streaming graph partitioning and process mapping.
//!
//! Every subcommand is one row of [`COMMANDS`]: its name, positional
//! arguments, flags, switches, help line and handler. [`run`] parses a
//! command line against its row once — arity, unknown flags, missing values
//! — and `oms` without arguments prints the usage text the table generates.
//!
//! The four job commands (`partition`, `map`, `apply-deltas`, `replay`)
//! share one flag set, derived from the job-option table
//! (`oms_core::knobs`): `--job SPEC` or `--algo NAME` plus one `--flag` per
//! option that has one; `--job` excludes all the others. They also accept
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
use oms_core::{FlatObjective, JobShape, JobSpec, PartitionReport, Partitioner, ALGORITHMS};
use oms_graph::io::{write_edge_list, write_metis, write_stream_file, DiskStream, MetisStream};
use oms_graph::{CsrGraph, InMemoryStream, NodeId, NodeStream};
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

/// One subcommand: what [`Args::parse`] checks a command line against, what
/// [`usage`] prints, and the handler that runs it.
struct Command {
    name: &'static str,
    /// The positional arguments, all required, in order.
    positional: &'static [&'static str],
    /// The command's own `--flag value` options, with the value the usage
    /// text shows.
    flags: &'static [(&'static str, &'static str)],
    /// Valueless `--flag`s.
    switches: &'static [&'static str],
    /// The job a job command builds from its flags; such a command also
    /// takes `--job`, `--algo`, the job-option table's flags and `--trace`.
    job: Option<JobRow>,
    help: &'static str,
    handler: fn(&Args) -> Result<(), Error>,
}

/// How a job command reads the job's shape and algorithm.
struct JobRow {
    /// The flag that gives the shape: `k`, or `hierarchy` for `map`.
    shape: &'static str,
    /// `--algo` when the command line names none.
    algo: &'static str,
}

const GRAPH: &[&str] = &["graph"];
const FORMAT: (&str, &str) = ("format", "F");
const OUTPUT: (&str, &str) = ("output", "FILE");
const METRICS: &[&str] = &["metrics"];

/// The subcommands, in the order the usage text lists them.
#[rustfmt::skip] // one row per command, so the table reads column-wise
static COMMANDS: [Command; 10] = [
    Command { name: "partition",    positional: GRAPH, flags: &[("k", "<k>"), FORMAT, OUTPUT], switches: METRICS, job: Some(JobRow { shape: "k", algo: "oms" }), handler: job_command,
              help: "k blocks (--k or --job); e-* algorithms partition the edges (vertex-cut)" },
    Command { name: "map",          positional: GRAPH, flags: &[("hierarchy", "a1:a2:..."), FORMAT, OUTPUT], switches: METRICS, job: Some(JobRow { shape: "hierarchy", algo: "oms" }), handler: job_command,
              help: "process mapping onto S = a1:a2:...; PE distances default to 1:10:100" },
    Command { name: "algorithms",   positional: &[], flags: &[], switches: &[], job: None, handler: algorithms_command,
              help: "list the registered algorithms and the job options" },
    Command { name: "convert",      positional: &["input", "output"], flags: &[FORMAT], switches: &[], job: None, handler: convert_command,
              help: "the output's extension picks its format, as --format auto does for the input" },
    Command { name: "generate",     positional: &["family", "n", "output"], flags: &[("seed", "S"), ("weights", "unit|nodes|edges|full")], switches: &[], job: None, handler: generate_command,
              help: "a METIS graph of the family rgg, delaunay, ba, rmat, grid or er" },
    Command { name: "gen-deltas",   positional: &["graph", "out.deltas"], flags: &[("scheme", "uniform|drift|burst"), ("temporal", "pa|drift|burst"), ("batches", "B"), ("ops", "O"), ("node-churn", "F"), ("insert-frac", "F"), ("delete-frac", "F"), ("seed", "S"), FORMAT], switches: &[], job: None, handler: gen_deltas_command,
              help: "a churn trace, or with --temporal a timestamped one, for apply-deltas" },
    Command { name: "apply-deltas", positional: &["graph", "trace.deltas"], flags: &[("k", "<k>"), ("reference", "on|off"), FORMAT, OUTPUT], switches: METRICS, job: Some(JobRow { shape: "k", algo: "fennel" }), handler: apply_deltas_command,
              help: "incremental maintenance under the trace vs. a cold restream per checkpoint" },
    Command { name: "replay",       positional: GRAPH, flags: &[("k", "<k>"), ("requests", "N"), ("hops", "H"), ("zipf", "S"), ("penalty", "P"), ("arrival", "T"), ("max-backlog", "B"), ("replay-seed", "S"), FORMAT], switches: METRICS, job: Some(JobRow { shape: "k", algo: "fennel" }), handler: replay_command,
              help: "partition, then replay random-walk requests: hop rate, load skew, latency" },
    Command { name: "trace",        positional: &["trace.jsonl"], flags: &[], switches: &[], job: None, handler: trace_command,
              help: "summarize a trace recorded with --trace and verify its event-log hash" },
    Command { name: "info",         positional: GRAPH, flags: &[FORMAT], switches: &[], job: None, handler: info_command,
              help: "size, degrees, weights and connectivity (and a .oms file's layout)" },
];

/// The flags every job command takes beside the job-option table's.
const JOB_FLAGS: [(&str, &str); 3] = [("job", "SPEC"), ("algo", "NAME"), ("trace", "FILE")];

/// The `--flag value` options of a job command that are not its own, with
/// the value the usage text shows.
fn job_flags() -> impl Iterator<Item = (&'static str, &'static str)> {
    let knobs = KNOBS
        .iter()
        .filter_map(|knob| Some((knob.flag?, knob.value_hint())));
    JOB_FLAGS.into_iter().chain(knobs)
}

/// `<name>` for each positional argument.
fn placeholders(names: &[&str]) -> Vec<String> {
    names.iter().map(|name| format!("<{name}>")).collect()
}

/// The usage text, generated from [`COMMANDS`] and the job-option table.
fn usage() -> String {
    let mut text = String::from("usage: oms <command> <arguments> [flags]\n");
    for command in &COMMANDS {
        let flags = command.flags.iter();
        let words: Vec<String> = (placeholders(command.positional).into_iter())
            .chain(flags.map(|(flag, hint)| format!("[--{flag} {hint}]")))
            .chain(command.job.iter().map(|_| "[job flags]".to_string()))
            .chain(command.switches.iter().map(|s| format!("[--{s}]")))
            .collect();
        text += &wrap(&format!("\n  oms {:<12}", command.name), &words);
        text += &format!("{:19}{}\n", "", command.help);
    }
    let flags: Vec<String> = job_flags()
        .map(|(flag, hint)| format!("[--{flag} {hint}]"))
        .collect();
    text += &wrap("\n  job flags:", &flags);
    text += &format!(
        "  job spec : {}
             e.g. \"oms:4:16:8@eps=0.03,passes=3\"; --job replaces --algo, the shape and every job flag
  --format F selects the input format (auto | metis | edgelist | stream); auto sniffs the extension.
  --metrics prints a Prometheus-style exposition of the run's counters and histograms.",
        knobs::grammar()
    );
    text
}

/// `head` and then `words`, broken before a word that would pass column
/// 100; continuation lines start under the first word.
fn wrap(head: &str, words: &[String]) -> String {
    let indent = head.trim_start_matches('\n').len();
    let mut text = head.to_string();
    let mut column = indent;
    for word in words {
        if column > indent && column + 1 + word.len() > 100 {
            text += &format!("\n{:indent$}", "");
            column = indent;
        }
        text += &format!(" {word}");
        column += 1 + word.len();
    }
    text.truncate(text.trim_end().len());
    text + "\n"
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

/// Looks up the command's row, parses the rest of the line against it and
/// runs its handler.
fn run(args: &[String]) -> Result<(), Error> {
    let Some(name) = args.first() else {
        return Err(Error::Usage("missing command".into()));
    };
    let Some(command) = COMMANDS.iter().find(|command| command.name == name) else {
        return Err(Error::Usage(format!("unknown command '{name}'")));
    };
    (command.handler)(&Args::parse(command, &args[1..])?)
}

/// A command line parsed against its row: exactly the row's positional
/// arguments and the options given.
struct Args {
    command: &'static Command,
    positional: Vec<String>,
    options: HashMap<String, String>,
}

impl Args {
    /// Switches may stand anywhere; every other `--flag` must be one of the
    /// row's and carry a value, and the positional arguments must number
    /// exactly the row's.
    fn parse(command: &'static Command, args: &[String]) -> Result<Args, Error> {
        let switch = |arg: &&String| {
            let name = arg.strip_prefix("--");
            name.is_some_and(|name| command.switches.contains(&name))
        };
        let shared = job_flags().filter(|_| command.job.is_some());
        let allowed: Vec<&str> = shared
            .chain(command.flags.iter().copied())
            .map(|f| f.0)
            .collect();
        let mut parsed = Args {
            command,
            positional: Vec::new(),
            // A switch is an option with an empty value.
            options: args
                .iter()
                .filter(switch)
                .map(|s| (s[2..].to_string(), String::new()))
                .collect(),
        };
        let mut iter = args.iter().filter(|arg| !switch(arg));
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                parsed.positional.push(arg.clone());
                continue;
            };
            if !allowed.contains(&name) {
                let allowed: Vec<String> = allowed.iter().map(|o| format!("--{o}")).collect();
                return Err(Error::Usage(format!(
                    "unknown option '--{name}' (allowed here: {})",
                    allowed.join(", ")
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
            parsed.options.insert(name.to_string(), value.clone());
        }
        if parsed.positional.len() != command.positional.len() {
            let (name, want) = (command.name, placeholders(command.positional));
            return Err(Error::Usage(match want.is_empty() {
                true => format!("{name}: takes no arguments"),
                false => format!("{name}: takes {}", want.join(" ")),
            }));
        }
        Ok(parsed)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.options.get(flag).map(String::as_str)
    }

    /// `--flag` parsed as a `T` that passes `valid`; a usage error says the
    /// value must be `what`.
    fn flag_if<T: std::str::FromStr>(
        &self,
        flag: &str,
        what: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, Error> {
        let Some(raw) = self.get(flag) else {
            return Ok(None);
        };
        match raw.parse() {
            Ok(value) if valid(&value) => Ok(Some(value)),
            _ => Err(Error::Usage(format!(
                "--{flag} must be {what}, got '{raw}'"
            ))),
        }
    }

    fn flag<T: std::str::FromStr>(&self, flag: &str, what: &str) -> Result<Option<T>, Error> {
        self.flag_if(flag, what, |_| true)
    }

    fn flag_or<T: std::str::FromStr>(&self, flag: &str, what: &str, or: T) -> Result<T, Error> {
        Ok(self.flag(flag, what)?.unwrap_or(or))
    }

    /// The job part of a job command's row.
    fn row(&self) -> &'static JobRow {
        let job = self.command.job.as_ref();
        job.expect("only the handlers of job commands, whose rows have one, ask")
    }

    /// The job of a job command: `--job` verbatim, or `--algo` (default
    /// the row's) with the shape from the row's shape flag and one option
    /// per job flag given.
    fn job(&self) -> Result<JobSpec, Error> {
        let row = self.row();
        if let Some(spec) = self.get("job") {
            let knob_flags = KNOBS.iter().filter_map(|knob| knob.flag);
            let mut encoded = ["algo", row.shape].into_iter().chain(knob_flags);
            if let Some(flag) = encoded.find(|flag| self.get(flag).is_some()) {
                return Err(Error::Usage(format!(
                    "--job already encodes the whole job; drop --{flag}"
                )));
            }
            return Ok(spec.parse()?);
        }
        let shape = if row.shape == "hierarchy" {
            let hierarchy = self.get("hierarchy").map(oms_core::HierarchySpec::parse);
            hierarchy.transpose()?.map(JobShape::Hierarchy)
        } else {
            self.flag("k", "a positive integer")?.map(JobShape::Flat)
        };
        let Some(shape) = shape else {
            return Err(Error::Usage(format!(
                "{}: --{} (or --job) is required",
                self.command.name, row.shape
            )));
        };
        let mut job = JobSpec::flat(self.get("algo").unwrap_or(row.algo), 0);
        job.shape = shape;
        for knob in &KNOBS {
            if let Some((flag, raw)) = knob.flag.and_then(|flag| Some((flag, self.get(flag)?))) {
                knob.set(&mut job, raw)
                    .map_err(|why| Error::Usage(format!("--{flag} {raw}: {why}")))?;
            }
        }
        Ok(job)
    }
}

/// Observability wiring behind `--trace FILE` / `--metrics`: installs a
/// recording observer for the duration of the command; [`ObsSession::finish`]
/// writes the JSON-lines trace and/or prints the Prometheus exposition.
/// With neither flag set, nothing is installed and the engines run
/// unobserved, which is free.
struct ObsSession {
    recording: Option<(std::rc::Rc<oms_obs::ObsCore>, oms_obs::ObsGuard)>,
    trace_path: Option<String>,
    metrics: bool,
}

impl ObsSession {
    fn start(args: &Args) -> ObsSession {
        let trace_path = args.get("trace").map(String::from);
        let metrics = args.get("metrics").is_some();
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
fn input_format(path: &str, args: &Args) -> Result<&'static str, Error> {
    let explicit = args.get("format").map(|f| f.to_ascii_lowercase());
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

/// Where every command reads its graph from. The choice follows from the
/// file alone: a METIS or vertex-stream file runs straight off the file in
/// `O(n + batch)` memory, whatever the job — one scan per pass for the five
/// streaming algorithms, whose report is tallied while they partition, and
/// one more walk for `buffered` / `multilevel` / `rms`, which are measured
/// afterwards. Every one of those walks is proven symmetric — by the METIS
/// reader itself, or by its consumer off a `.oms` file — so each job
/// refuses a file that is not. `apply-deltas` reads
/// it once, into the dynamic graph's one `O(n + m)` slab; the commands that
/// need a CSR take [`Source::into_graph`]. An edge list does not group its
/// edges by node, so it is materialised.
enum Source {
    /// The file itself.
    Streamed(Box<dyn NodeStream>),
    Materialised(CsrGraph),
}

impl Source {
    fn open(path: &str, args: &Args) -> Result<Self, Error> {
        Ok(match input_format(path, args)? {
            "edgelist" => Source::Materialised(oms_graph::io::read_edge_list(path, None)?),
            "stream" => Source::Streamed(Box::new(DiskStream::open(path)?)),
            _ => Source::Streamed(Box::new(MetisStream::open(path)?)),
        })
    }

    /// The graph as a CSR: a streamed file is collected (`collect_graph`,
    /// which proves it symmetric unless the stream does), an edge list
    /// already is one.
    fn into_graph(self) -> Result<CsrGraph, Error> {
        Ok(match self {
            Source::Streamed(mut stream) => oms_graph::collect_graph(stream.as_mut())?,
            Source::Materialised(graph) => graph,
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

/// Creates `path` and lets `lines` write it through one 1 MiB buffer.
fn write_buffered(
    path: &str,
    lines: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<(), Error> {
    let io_err = |e: std::io::Error| Error::Internal(format!("cannot write {path}: {e}"));
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut w = std::io::BufWriter::with_capacity(1 << 20, file);
    lines(&mut w).and_then(|()| w.flush()).map_err(io_err)
}

/// Writes one block id per line with manual itoa-style integer encoding,
/// skipping the `fmt` machinery on the per-node hot path of million-node
/// partitions.
fn write_assignments(path: &str, assignments: &[u32]) -> Result<(), Error> {
    write_buffered(path, |w| {
        let mut digits = [0u8; 11]; // u32::MAX has 10 digits, plus the newline
        assignments
            .iter()
            .try_for_each(|&block| w.write_all(encode_line(block, &mut digits)))
    })
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

/// `partition` and `map`: one job off the graph file and its report. A row
/// whose shape is a hierarchy is `map`: its job gets the paper's PE
/// distances unless `--job` names its own, and its report adds the topology
/// and the mapping cost. On `partition` the `e-*` algorithms partition the
/// graph's edges instead.
fn job_command(args: &Args) -> Result<(), Error> {
    let path = &args.positional[0];
    let mapping = args.row().shape == "hierarchy";
    let mut job = args.job()?;
    if mapping {
        if job.distances.is_none() && args.get("job").is_none() {
            job = job.distances(oms_core::DistanceSpec::paper_default());
        }
        if job.shape.hierarchy().is_none() || job.distances.is_none() {
            return Err(Error::Usage(
                "map: the job needs a hierarchy and PE distances (dist= in --job)".into(),
            ));
        }
    }
    let obs = ObsSession::start(args);
    if !mapping && oms_edgepart::is_edge_algorithm(&job.algorithm) {
        let graph = Source::open(path, args)?.into_graph()?;
        let report = edge_run(&job, &graph)?;
        print_edge_report(path, &graph, &job, &report, args.get("output"))?;
        return obs.finish();
    }
    let partitioner = job.build()?;
    let mut source = Source::open(path, args)?;
    let report = source.run(partitioner.as_ref())?;
    let weights = source.total_edge_weight_if_weighted(&report)?;
    print_job_report(path, source.counts(), &job, &report, weights, mapping)?;
    if let Some(output) = args.get("output") {
        write_assignments(output, report.partition.assignments())?;
        let what = if mapping { "mapping" } else { "partition" };
        outln!("{what} written to {output}")?;
    }
    obs.finish()
}

/// The report of a node job; a mapping's adds the topology and the mapping
/// cost and pads its labels to the longer "mapping cost".
fn print_job_report(
    path: &str,
    (n, m): (usize, usize),
    job: &JobSpec,
    report: &PartitionReport,
    total_edge_weight: Option<u64>,
    mapping: bool,
) -> Result<(), Error> {
    let w = if mapping { 13 } else { 11 };
    outln!("{:<w$}: {path} (n = {n}, m = {m})", "graph")?;
    if let (true, Some(hierarchy), Some(distances)) =
        (mapping, job.shape.hierarchy(), &job.distances)
    {
        let d: Vec<String> = distances.distances().iter().map(u64::to_string).collect();
        let s = hierarchy.to_string_spec();
        outln!("{:<w$}: S = {s}, D = {}", "topology", d.join(":"))?;
    }
    outln!("{:<w$}: {job}", "job")?;
    let (algorithm, k) = (&report.algorithm, report.num_blocks());
    let pes = if mapping { " PEs" } else { "" };
    outln!("{:<w$}: {algorithm}, k = {k}{pes}", "algorithm")?;
    if let (true, Some(cost)) = (mapping, report.mapping_cost) {
        outln!("{:<w$}: {cost}", "mapping cost")?;
    }
    outln!("{:<w$}: {}", "edge-cut", report.edge_cut)?;
    outln!("{:<w$}: {:.4}", "imbalance", report.imbalance)?;
    if let Some(total) = total_edge_weight {
        let (c, max) = (report.total_node_weight(), report.max_block_weight());
        outln!(
            "{:<w$}: c(V) = {c}, ω(E) = {total}, max block = {max}",
            "weights"
        )?;
    }
    outln!("{:<w$}: {:.4} s", "time", report.seconds)?;
    print_trajectory(&report.trajectory)
}

/// The vertex-cut run behind `partition --algo e-*` and `replay --algo e-*`:
/// the job's edge partitioner over the graph's edges, in CSR order.
fn edge_run(job: &JobSpec, graph: &CsrGraph) -> Result<oms_edgepart::EdgePartitionReport, Error> {
    let partitioner = oms_edgepart::build_edge_partitioner(job)?;
    Ok(partitioner.run(&mut InMemoryStream::new(graph))?)
}

/// The report of an edge job: the replication factor instead of the
/// edge-cut; with `output`, one `u v block` line per edge in stream order.
fn print_edge_report(
    path: &str,
    graph: &CsrGraph,
    job: &JobSpec,
    report: &oms_edgepart::EdgePartitionReport,
    output: Option<&str>,
) -> Result<(), Error> {
    let (n, m) = (graph.num_nodes(), graph.num_edges());
    outln!("graph       : {path} (n = {n}, m = {m})")?;
    outln!("job         : {job}")?;
    let (algorithm, k) = (&report.algorithm, report.num_blocks());
    outln!("algorithm   : {algorithm}, k = {k} (vertex-cut)")?;
    outln!(
        "replication : {:.4} (total replicas {}, max {})",
        report.replication_factor,
        report.total_replicas,
        report.max_replicas
    )?;
    outln!("edge-balance: {:.4}", report.imbalance)?;
    if !graph.is_unweighted() {
        let (total, max) = (
            report.partition.total_load(),
            report.partition.max_block_load(),
        );
        outln!("weights     : ω(E) = {total}, max block load = {max}")?;
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
    if let Some(output) = output {
        let blocks = report.partition.assignments();
        write_buffered(output, |w| {
            let mut edges = graph.edges().zip(blocks);
            edges.try_for_each(|((u, v, _), block)| writeln!(w, "{u} {v} {block}"))
        })?;
        outln!("edge partition written to {output}")?;
    }
    Ok(())
}

fn algorithms_command(_: &Args) -> Result<(), Error> {
    outln!("registered algorithms (use with --algo or in a --job spec):\n")?;
    let aliases = |aliases: &[&str]| match aliases {
        [] => String::new(),
        aliases => format!(" (aliases: {})", aliases.join(", ")),
    };
    for algo in ALGORITHMS.list() {
        let marker = if FlatObjective::for_algorithm(algo.name).is_some() {
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

fn convert_command(args: &Args) -> Result<(), Error> {
    let (input, output) = (&args.positional[0], &args.positional[1]);
    let graph = Source::open(input, args)?.into_graph()?;
    // The output format follows the same extension table as input
    // sniffing, so `convert a.metis b.edges && info b.edges` round-trips.
    // The text formats write no self-loop (their readers drop them), so the
    // file counts the graph's edges without its loops; a `.oms` file keeps
    // every entry.
    let edges = match sniff_format(Path::new(output)) {
        "metis" => {
            write_metis(&graph, output)?;
            graph.edges().count()
        }
        "edgelist" => {
            // The edge-list format has no weight columns; refusing beats
            // silently stripping the weights.
            if !graph.is_unweighted() {
                return Err(Error::Usage(format!(
                    "convert: the edge-list format drops node/edge weights; \
                     write {output} as .metis or .oms instead"
                )));
            }
            write_edge_list(&graph, output)?;
            graph.edges().count()
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
            graph.num_edges()
        }
    };
    outln!(
        "wrote {output} (n = {}, m = {edges}, c(V) = {})",
        graph.num_nodes(),
        graph.total_node_weight()
    )?;
    Ok(())
}

/// The largest node count a `NodeId` can number.
const MAX_NODES: u64 = NodeId::MAX as u64;

type Generator = fn(usize, u64) -> CsrGraph;

/// The `generate` families: name, the `<n>` range it accepts and its
/// generator. Below the range the generator has no graph; above it the node
/// count made of `n` does not fit a `NodeId` — `grid` rounds `n` up to a
/// square side², `rmat` to a power of two that its generator caps at 2^30.
const FAMILIES: [(&str, u64, u64, Generator); 6] = [
    ("rgg", 2, MAX_NODES, oms_gen::random_geometric_graph),
    ("delaunay", 3, MAX_NODES, oms_gen::delaunay_graph),
    ("ba", 0, MAX_NODES, |n, seed| {
        oms_gen::barabasi_albert(n.max(5), 4, seed)
    }),
    ("rmat", 0, 1 << 30, |n, seed| {
        let scale = (n as f64).log2().ceil() as u32;
        oms_gen::rmat_graph(scale, n * 8, oms_gen::RmatParams::GRAPH500, seed)
    }),
    ("grid", 0, 65_535 * 65_535, |n, _| {
        let side = (n as f64).sqrt().ceil() as usize;
        oms_gen::grid_2d(side, side)
    }),
    ("er", 0, MAX_NODES, |n, seed| {
        oms_gen::erdos_renyi_gnm(n, n * 4, seed)
    }),
];

fn generate_command(args: &Args) -> Result<(), Error> {
    let (family, output) = (&args.positional[0], &args.positional[2]);
    let n: u64 = args.positional[1]
        .parse()
        .map_err(|_| Error::Usage("generate: <n> must be an integer".into()))?;
    let seed: u64 = args.flag_or("seed", "an integer", 42)?;
    let scheme = match args.get("weights") {
        None => oms_gen::WeightScheme::Unit,
        Some(raw) => oms_gen::WeightScheme::parse(raw).ok_or_else(|| {
            Error::Usage(format!(
                "--weights must be unit, nodes, edges or full, got '{raw}'"
            ))
        })?,
    };
    let Some(&(_, min, max, generator)) = FAMILIES.iter().find(|row| row.0 == family) else {
        return Err(Error::Usage(format!("unknown graph family '{family}'")));
    };
    if !(min..=max).contains(&n) {
        return Err(Error::Usage(format!(
            "generate {family}: <n> must be between {min} and {max}, got {n}"
        )));
    }
    let graph = scheme.apply(&generator(n as usize, seed), seed);
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
fn gen_deltas_command(args: &Args) -> Result<(), Error> {
    let (path, output) = (&args.positional[0], &args.positional[1]);
    let graph = Source::open(path, args)?.into_graph()?;
    let seed = args.flag_or("seed", "an integer", 42)?;
    let batches = args.flag("batches", "a positive integer")?;
    let ops = args.flag("ops", "a positive integer")?;
    let fraction = |flag: &str| {
        args.flag_if(flag, "a fraction in [0, 1]", |f: &f64| {
            (0.0..=1.0).contains(f)
        })
    };
    let (node_churn, insert, delete) = (
        fraction("node-churn")?,
        fraction("insert-frac")?,
        fraction("delete-frac")?,
    );
    let (trace, kind, scheme) = if let Some(shape) = args.get("temporal") {
        if args.get("scheme").is_some() {
            return Err(Error::Usage(
                "--temporal replaces --scheme; drop one of them".into(),
            ));
        }
        let defaults = oms_gen::TemporalConfig::default();
        let config = oms_gen::TemporalConfig {
            seed,
            scheme: match shape {
                "pa" => oms_gen::TemporalScheme::PreferentialAttachment { edges_per_node: 3 },
                "drift" => oms_gen::TemporalScheme::CommunityDrift { communities: 8 },
                "burst" => oms_gen::TemporalScheme::BurstArrivals { period: 4 },
                other => {
                    return Err(Error::Usage(format!(
                        "--temporal must be pa, drift or burst, got '{other}'"
                    )))
                }
            },
            batches: batches.unwrap_or(defaults.batches),
            ops_per_batch: ops.unwrap_or(defaults.ops_per_batch),
            delete_fraction: delete.unwrap_or(defaults.delete_fraction),
        };
        let scheme = format!("{:?}", config.scheme);
        (oms_gen::temporal_trace(&graph, &config), "temporal", scheme)
    } else {
        if delete.is_some() {
            return Err(Error::Usage(
                "--delete-frac only applies to --temporal traces".into(),
            ));
        }
        let defaults = oms_gen::ChurnConfig::default();
        let config = oms_gen::ChurnConfig {
            seed,
            scheme: match args.get("scheme").unwrap_or("uniform") {
                "uniform" => oms_gen::ChurnScheme::Uniform,
                "drift" => oms_gen::ChurnScheme::CommunityDrift { communities: 8 },
                "burst" => oms_gen::ChurnScheme::Burst { window: 0.05 },
                other => {
                    return Err(Error::Usage(format!(
                        "--scheme must be uniform, drift or burst, got '{other}'"
                    )))
                }
            },
            batches: batches.unwrap_or(defaults.batches),
            ops_per_batch: ops.unwrap_or(defaults.ops_per_batch),
            node_churn_fraction: node_churn.unwrap_or(defaults.node_churn_fraction),
            insert_fraction: insert.unwrap_or(defaults.insert_fraction),
        };
        let scheme = format!("{:?}", config.scheme);
        (oms_gen::churn_trace(&graph, &config), "scheme", scheme)
    };
    oms_graph::write_delta_trace(output, &trace)?;
    let deltas: usize = trace.iter().map(oms_graph::DeltaBatch::len).sum();
    outln!(
        "wrote {output} ({} batches, {deltas} deltas, {kind} = {scheme}, seed = {seed})",
        trace.len()
    )
}

/// The dynamic-maintenance pipeline behind `apply-deltas`: builds a
/// long-lived [`oms_dynamic::PartitionState`] over the graph (read once from
/// the [`Source`] into the state's slab, then dropped), applies the trace
/// through the one checkpoint loop
/// ([`oms_dynamic::PartitionState::drive_windows`]) and prints one checkpoint
/// row per `--window` batches
/// (default 1; the final batch always checkpoints) comparing the
/// incrementally maintained partition against a cold restream of the same
/// graph state (unless `--reference off`).
fn apply_deltas_command(args: &Args) -> Result<(), Error> {
    let (path, trace_path) = (&args.positional[0], &args.positional[1]);
    let job = args.job()?;
    let reference = match args.get("reference").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => {
            return Err(Error::Usage(format!(
                "--reference must be on or off, got '{other}'"
            )))
        }
    };
    let mut source = Source::open(path, args)?;
    let (n, m) = source.counts();
    let obs = ObsSession::start(args);
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
    let curve = state.drive_windows(&trace, |state, window| {
        if reference {
            window.reference = Some(state.cold_restream_reference()?);
        }
        Ok(())
    })?;
    outln!()?;
    emit(format_args!("{}", checkpoint_table(&curve)))?;
    if reference {
        outln!(
            "\nmax cut ratio  : {:.3}",
            oms_dynamic::max_cut_ratio(&curve)
        )?;
        outln!(
            "repair speedup : {:.1}x",
            oms_dynamic::repair_vs_restream_speedup(&curve)
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
    if let Some(output) = args.get("output") {
        write_assignments(output, state.assignments())?;
        outln!("partition written to {output}")?;
    }
    obs.finish()
}

/// `apply-deltas`' checkpoint table: one right-aligned row per window, the
/// maintained partition next to its cold-restream reference (under
/// `--reference off`, the maintained numbers again at 0 s).
fn checkpoint_table(curve: &[oms_dynamic::WindowStats]) -> String {
    let header = [
        "checkpoint",
        "deltas",
        "inc_cut",
        "re_cut",
        "ratio",
        "inc_imb",
        "re_imb",
        "inc_sec",
        "re_sec",
    ]
    .map(String::from);
    let rows: Vec<[String; 9]> = std::iter::once(header)
        .chain(curve.iter().map(|w| {
            let re = w.reference.unwrap_or(oms_dynamic::ColdRestream {
                edge_cut: w.edge_cut,
                imbalance: w.imbalance,
                seconds: 0.0,
            });
            [
                w.checkpoint.to_string(),
                w.deltas.to_string(),
                w.edge_cut.to_string(),
                re.edge_cut.to_string(),
                format!("{:.3}", w.cut_ratio()),
                format!("{:.4}", w.imbalance),
                format!("{:.4}", re.imbalance),
                format!("{:.4}", w.seconds),
                format!("{:.4}", re.seconds),
            ]
        }))
        .collect();
    let mut widths = [0usize; 9];
    for row in &rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let mut table = String::from("== incremental vs cold restream ==\n");
    for (i, row) in rows.iter().enumerate() {
        let cells: Vec<String> = row
            .iter()
            .zip(widths)
            .map(|(cell, width)| format!("{cell:>width$}"))
            .collect();
        table += &(cells.join("  ") + "\n");
        if i == 0 {
            table += &("-".repeat(widths.iter().sum::<usize>() + 2 * 8) + "\n");
        }
    }
    table
}

/// The traffic-replay pipeline behind `replay`: partitions the graph with
/// the requested job, then fires a seeded stream of Zipf-skewed random-walk
/// requests at the result and reports what simulated users would see —
/// cross-block hop rate, queue-load skew and p50/p99 latency. Both
/// node-partition algorithms and the vertex-cut `e-*` family are supported;
/// the latter serves each hop at the block owning the traversed edge.
fn replay_command(args: &Args) -> Result<(), Error> {
    let path = &args.positional[0];
    let job = args.job()?;
    let d = oms_workload::ReplayConfig::default();
    let count = "a non-negative integer";
    let zipf = |z: &f64| z.is_finite() && *z >= 0.0;
    let config = oms_workload::ReplayConfig {
        seed: args.flag_or("replay-seed", "an integer", 0)?,
        requests: args.flag_or("requests", "a positive integer", d.requests)?,
        hops: args.flag_or("hops", count, d.hops)?,
        zipf_exponent: (args.flag_if("zipf", "a non-negative number", zipf)?)
            .unwrap_or(d.zipf_exponent),
        hop_penalty: args.flag_or("penalty", count, d.hop_penalty)?,
        arrival_every: args.flag_or("arrival", count, d.arrival_every)?,
        max_backlog: args.flag_or("max-backlog", count, d.max_backlog)?,
    };

    let graph = Source::open(path, args)?.into_graph()?;
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

    let obs = ObsSession::start(args);
    let report = if oms_edgepart::is_edge_algorithm(&job.algorithm) {
        let part = edge_run(&job, &graph)?;
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
fn trace_command(args: &Args) -> Result<(), Error> {
    let path = &args.positional[0];
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

fn info_command(args: &Args) -> Result<(), Error> {
    let path = &args.positional[0];
    let graph = Source::open(path, args)?.into_graph()?;
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
    if input_format(path, args)? == "stream" {
        let info = oms_graph::io::stream_file_info(path)?;
        outln!("stream format: v3")?;
        outln!("  header       : {:>12} B", info.header_bytes)?;
        outln!("  degrees      : {:>12} B", info.degree_bytes)?;
        let omitted = |present| if present { "" } else { " (unit, omitted)" };
        let node_weights = (info.node_weight_bytes, omitted(info.has_node_weights));
        outln!(
            "  node weights : {:>12} B{}",
            node_weights.0,
            node_weights.1
        )?;
        outln!("  neighbors    : {:>12} B", info.neighbor_bytes)?;
        let edge_weights = (info.edge_weight_bytes, omitted(info.has_edge_weights));
        outln!(
            "  edge weights : {:>12} B{}",
            edge_weights.0,
            edge_weights.1
        )?;
        outln!("  padding      : {:>12} B", info.padding_bytes)?;
        outln!("  trailer      : {:>12} B", info.trailer_bytes)?;
        outln!("  total        : {:>12} B", info.file_bytes)?;
    }
    Ok(())
}
