//! `pipeline` — the repository's benchmark: the CLI partitioning jobs end to
//! end (the real `oms` binary as a child process, spawn → assignments file
//! on disk) and layer by layer (the same pipeline replayed in-process under
//! spans). See `README.md` next to this file and `BENCHMARK.json` at the
//! repository root.
//!
//! ```text
//! pipeline --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//!     one workload; the last stdout line is the result object
//!     (--trace 0: end-to-end metrics, --trace 1: per-layer metrics)
//! pipeline [--seed N] [--seconds S] [--quick] [--repeat-check]
//!     every workload, both ways, as a table; --repeat-check runs the
//!     end-to-end set twice and compares the two against the bounds
//! ```
//!
//! Run from the repository root: the CLI is built there with
//! `cargo build --release -p oms-cli`, and inputs, outputs and span traces
//! go to `pipeline/` under the build's target directory.

mod calib;
mod child;
mod endtoend;
mod json;
mod layers;
mod metrics;
mod stats;
mod suite;
mod trace;
mod verify;
mod workloads;

use endtoend::Context;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Paths, Scale};

const USAGE: &str = "usage:
  pipeline --workload NAME --seed N --seconds S --trace 0|1 [--quick]
  pipeline [--seed N] [--seconds S] [--quick] [--repeat-check]";

/// Parsed command line of the two public modes.
#[derive(Debug, Default, PartialEq)]
struct Options {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    repeat_check: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("option '{arg}' requires a value"))
        };
        match arg.as_str() {
            "--workload" => options.workload = Some(value()?.clone()),
            "--seed" => {
                let raw = value()?;
                options.seed = Some(
                    raw.parse()
                        .map_err(|_| format!("--seed must be an integer, got '{raw}'"))?,
                );
            }
            "--seconds" => {
                let raw = value()?;
                let seconds: f64 = raw
                    .parse()
                    .map_err(|_| format!("--seconds must be a number, got '{raw}'"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got '{raw}'"));
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                })
            }
            "--quick" => options.quick = true,
            "--repeat-check" => options.repeat_check = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if options.workload.is_none() && options.trace.is_some() {
        return Err("--trace needs --workload".into());
    }
    if options.workload.is_some() && options.repeat_check {
        return Err("--repeat-check runs every workload; drop --workload".into());
    }
    Ok(options)
}

/// The build's target directory, as cargo resolves it from the repository
/// root.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Builds the CLI under test from source (a no-op when it is fresh) and
/// returns where things are.
fn prepare() -> Result<Context, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "-p", "oms-cli"])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(
            "`cargo build --release -p oms-cli` failed; run from the repository root".into(),
        );
    }
    let target = target_dir();
    let cli = target.join("release").join("oms");
    if !cli.is_file() {
        return Err(format!("{} was not built", cli.display()));
    }
    Ok(Context {
        cli,
        exe: std::env::current_exe().map_err(|e| e.to_string())?,
        work_root: target.join("pipeline"),
    })
}

/// `__setup NAME SEED quick|bench WORK_ROOT`: the input generator child.
fn setup_child(args: &[String]) -> Result<(), String> {
    let [name, seed, scale, work_root] = args else {
        return Err("__setup NAME SEED quick|bench WORK_ROOT".into());
    };
    let workload = workloads::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = seed.parse().map_err(|_| format!("bad seed '{seed}'"))?;
    let scale = Scale::from_word(scale).ok_or_else(|| format!("bad scale '{scale}'"))?;
    let paths = Paths::new(&PathBuf::from(work_root), workload);
    workloads::write_inputs(workload, seed, scale, &paths)
}

/// One workload, one way; prints the result object last.
fn run_one(name: &str, options: &Options) -> Result<bool, String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let known: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", known.join(", "))
    })?;
    let seed = options.seed.unwrap_or(suite::DEFAULT_SEED);
    let scale = Scale::new(options.quick);
    let seconds = options
        .seconds
        .unwrap_or_else(|| suite::default_seconds(options.quick));
    let ctx = prepare()?;
    let (defs, outcome) = if options.trace == Some(true) {
        let outcome = layers::run(&ctx, workload, seed, seconds, scale)?;
        (metrics::PER_LAYER, outcome)
    } else {
        let outcome = endtoend::run(&ctx, workload, seed, seconds, scale)?;
        (metrics::END_TO_END, outcome)
    };
    println!("{}", metrics::result_line(defs, &outcome));
    Ok(outcome.tally.all_passed())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("__probe") => {
            std::hint::black_box(calib::probe_work());
            Ok(true)
        }
        Some("__setup") => setup_child(&args[1..]).map(|()| true),
        _ => match parse_options(&args) {
            Err(msg) => {
                eprintln!("error: {msg}\n\n{USAGE}");
                return ExitCode::from(2);
            }
            Ok(options) => match &options.workload {
                Some(name) => run_one(name, &options),
                None => suite::run(&options),
            },
        },
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // Every metric was printed; some operation failed or a bound broke.
        Ok(false) => ExitCode::FAILURE,
        // No result could be produced at all.
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let options = parse(&[
            "--workload",
            "fennel_k1024",
            "--seed",
            "11",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            options,
            Options {
                workload: Some("fennel_k1024".into()),
                seed: Some(11),
                seconds: Some(10.0),
                trace: Some(true),
                quick: false,
                repeat_check: false,
            }
        );
        assert_eq!(parse(&[]).unwrap(), Options::default());
        assert!(parse(&["--quick", "--repeat-check"]).unwrap().repeat_check);
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--trace", "2", "--workload", "w"],
            &["--trace", "1"],
            &["--workload", "w", "--repeat-check"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
