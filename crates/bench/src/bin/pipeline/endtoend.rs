//! The end-to-end run of one workload: tracing off, the real `oms` CLI as a
//! child process, timed from `spawn` to exit with the assignments file
//! complete. Closed loop, one job at a time, warm page cache, one warm-up
//! rep.
//!
//! Order matters for `peak_rss_mib` (see `child.rs`): inputs are generated
//! in a `__setup` child, and this process loads a graph only after the last
//! timed rep.

use crate::calib::Prober;
use crate::child::{self, ChildUsage};
use crate::metrics::{Outcome, Values};
use crate::stats::{median, spread};
use crate::verify::{self, Quality, Tally};
use crate::workloads::{Input, Paths, Scale, Workload, DISTANCES};
use oms_core::{JobSpec, UNASSIGNED};
use oms_dynamic::PartitionState;
use oms_graph::io::{read_metis, read_stream_file};
use oms_graph::{read_delta_trace, CsrGraph, InMemoryStream};
use oms_obs::Stopwatch;
use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Inputs are set up this many times; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Timed reps go on until the run's seconds are used up, but at least this
/// many are taken.
const MIN_REPS: usize = 3;

/// Where the binaries and the scratch files of this invocation are.
pub struct Context {
    /// The `oms` CLI under test.
    pub cli: PathBuf,
    /// This binary, for the `__setup` and `__probe` children.
    pub exe: PathBuf,
    /// Directory under the build's target directory for inputs and outputs.
    pub work_root: PathBuf,
}

/// Generates the workload's inputs in a child and returns its wall seconds.
pub fn run_setup(ctx: &Context, w: &Workload, seed: u64, scale: Scale) -> io::Result<f64> {
    let usage = child::run(
        Command::new(&ctx.exe)
            .args(["__setup", w.name, &seed.to_string(), scale.word()])
            .arg(&ctx.work_root)
            .stdin(Stdio::null())
            .stdout(Stdio::null()),
    )?;
    if !usage.success {
        return Err(io::Error::other(format!("setup of {} failed", w.name)));
    }
    Ok(usage.wall_s)
}

/// One CLI job: removes the previous output, runs the child with its report
/// going to a file, and returns the child's usage.
pub fn run_cli(ctx: &Context, w: &Workload, paths: &Paths) -> io::Result<ChildUsage> {
    match std::fs::remove_file(&paths.out) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    let report = File::create(&paths.cli_stdout)?;
    child::run(
        Command::new(&ctx.cli)
            .args(paths.cli_args(w))
            .stdin(Stdio::null())
            .stdout(report),
    )
}

/// What is kept of one rep until the graph may be loaded.
pub struct Rep {
    pub usage: ChildUsage,
    pub calibrated_s: f64,
    cli_cut: Option<u64>,
    same_bytes: bool,
}

/// Reads back what the rep wrote; `reference` is the first rep's output.
pub fn collect_rep(
    paths: &Paths,
    usage: ChildUsage,
    calibrated_s: f64,
    reference: &mut Option<Vec<u8>>,
) -> Rep {
    let bytes = std::fs::read(&paths.out).unwrap_or_default();
    let report = std::fs::read_to_string(&paths.cli_stdout).unwrap_or_default();
    let same_bytes = match reference {
        Some(first) => *first == bytes,
        None => {
            *reference = Some(bytes);
            true
        }
    };
    Rep {
        usage,
        calibrated_s,
        cli_cut: verify::parse_cli_cut(&report),
        same_bytes,
    }
}

/// The first rep's output checked against the graph, and its quality.
pub struct Verified {
    pub quality: Quality,
    pub edge_entries: u64,
}

pub fn load_graph(input: Input, paths: &Paths) -> Result<CsrGraph, String> {
    match input {
        Input::RmatMetis => read_metis(&paths.graph),
        Input::RmatStream | Input::ErStreamWithDeltas => read_stream_file(&paths.graph),
    }
    .map_err(|e| e.to_string())
}

/// Loads the inputs and scores the reference output; an `Err` is the reason
/// every rep of the workload counts as failed. For the dynamic workload the
/// graph the output describes is the one after the whole trace, which this
/// obtains by replaying the job in-process; `tally` then also takes the
/// in-process ≡ CLI check.
pub fn verify_reference(
    w: &Workload,
    paths: &Paths,
    reference: &[u8],
    tally: &mut Tally,
) -> Result<Verified, String> {
    let assignments = verify::parse_assignments(reference)?;
    let graph = load_graph(w.input, paths)?;
    if w.input != Input::ErStreamWithDeltas {
        if let Some(reason) = verify::check_assignments(&assignments, graph.num_nodes(), w.k, None)
        {
            return Err(reason);
        }
        let quality = verify::quality(
            &mut InMemoryStream::new(&graph),
            &assignments,
            w.k,
            w.hierarchy,
            DISTANCES,
        )?;
        return Ok(Verified {
            quality,
            edge_entries: 2 * graph.num_edges() as u64,
        });
    }
    let err = |e: oms_core::PartitionError| e.to_string();
    let trace = read_delta_trace(&paths.deltas).map_err(|e| e.to_string())?;
    let job = JobSpec::parse(w.spec).map_err(err)?;
    let mut state = PartitionState::new(&job, &mut InMemoryStream::new(&graph)).map_err(err)?;
    for batch in &trace {
        state.apply(batch).map_err(err)?;
    }
    let in_process = state.assignments().to_vec();
    let dead = |v: usize| in_process[v] == UNASSIGNED;
    if let Some(reason) =
        verify::check_assignments(&assignments, in_process.len(), w.k, Some(&dead))
    {
        return Err(reason);
    }
    tally.record(verify::identical(
        "in-process vs CLI",
        &assignments,
        &in_process,
    ));
    let stream = state.graph_stream();
    let quality = verify::quality(stream, &assignments, w.k, w.hierarchy, DISTANCES)?;
    Ok(Verified {
        quality,
        edge_entries: 2 * oms_graph::NodeStream::num_edges(stream) as u64,
    })
}

impl Rep {
    /// Why rep `i` failed on its own evidence (exit code, output bytes), if
    /// it did.
    pub fn failure(&self, i: usize) -> Option<String> {
        if !self.usage.success {
            Some(format!("rep {i}: the CLI exited non-zero"))
        } else if !self.same_bytes {
            Some(format!("rep {i}: output differs from the first rep's"))
        } else {
            None
        }
    }
}

/// Folds the reps into `tally` by the failure rules of `verify.rs`.
fn tally_reps(reps: &[Rep], verified: &Result<Verified, String>, tally: &mut Tally) {
    for (i, rep) in reps.iter().enumerate() {
        let failure = rep.failure(i).or_else(|| match verified {
            Err(reason) => Some(format!("rep {i}: {reason}")),
            Ok(v) if rep.cli_cut != Some(v.quality.edge_cut) => Some(format!(
                "rep {i}: CLI printed edge-cut {:?}, recomputed {}",
                rep.cli_cut, v.quality.edge_cut
            )),
            Ok(_) => None,
        });
        tally.record(failure);
    }
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

    let mut setup_cal = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let (_, _, cal) = prober
            .around(|| run_setup(ctx, w, seed, scale).map(|wall| ((), wall)))
            .map_err(io_err)?;
        setup_cal.push(cal);
    }

    // Warm-up rep: untimed, but verified like the others, and its output is
    // the reference for byte-identity.
    let mut reference = None;
    let warm = run_cli(ctx, w, &paths).map_err(io_err)?;
    let mut reps = vec![collect_rep(&paths, warm, 0.0, &mut reference)];
    let clock = Stopwatch::start();
    while clock.seconds() < seconds || reps.len() <= MIN_REPS {
        let (usage, _, cal) = prober
            .around(|| run_cli(ctx, w, &paths).map(|u| (u, u.wall_s)))
            .map_err(io_err)?;
        reps.push(collect_rep(&paths, usage, cal, &mut reference));
    }

    // The last measured child has exited: from here on this process may grow.
    let mut tally = Tally::default();
    let reference = reference.expect("the warm-up rep set it");
    let verified = verify_reference(w, &paths, &reference, &mut tally);
    tally_reps(&reps, &verified, &mut tally);
    for reason in &tally.reasons {
        eprintln!("FAILED {}: {reason}", w.name);
    }

    let timed = &reps[1..];
    let cal: Vec<f64> = timed.iter().map(|r| r.calibrated_s).collect();
    let raw: Vec<f64> = timed.iter().map(|r| r.usage.wall_s).collect();
    let peak_kib = reps.iter().map(|r| r.usage.max_rss_kib).max().unwrap_or(0);
    let mut values = Values::new();
    values.insert("setup_s", median(&setup_cal));
    values.insert("wall_cal_s", median(&cal));
    values.insert("peak_rss_mib", peak_kib as f64 / 1024.0);
    if let Ok(v) = &verified {
        values.insert("edge_cut_frac", v.quality.edge_cut_frac());
        values.insert("mapping_cost_per_edge", v.quality.mapping_cost_per_edge());
        values.insert("max_block_over_mean", v.quality.max_block_over_mean);
        // For orientation only, not a metric.
        eprintln!(
            "{}: {} timed reps, raw median {:.4} s, calibrated median {:.4} s (spread {:.3}), \
             probe {:.4} s, {:.2} M edge-entries/s",
            w.name,
            timed.len(),
            median(&raw),
            median(&cal),
            spread(&cal),
            median(&prober.samples),
            v.edge_entries as f64 / median(&raw) / 1e6,
        );
    }
    Ok(Outcome { values, tally })
}
