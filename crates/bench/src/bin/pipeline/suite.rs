//! Every workload, both ways, as a table — and `--repeat-check`.
//!
//! Each (workload, mode) runs as a child `pipeline --workload …` of its own,
//! exactly as the driver runs it, so that no run inherits the memory high
//! water of an earlier one (see `child.rs`). Bounds, directions and the run
//! length come from `BENCHMARK.json` in the current directory.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::{Workload, WORKLOADS};
use crate::Options;
use std::process::{Command, Stdio};

pub const DEFAULT_SEED: u64 = 7;
/// Seconds per run at the smoke size: the three-rep minimum decides.
const QUICK_SECONDS: f64 = 0.5;

/// Seconds one run measures for when `--seconds` is not given: the
/// manifest's `run_seconds`, so that a bare run measures what the driver
/// measures.
pub fn default_seconds(quick: bool) -> f64 {
    if quick {
        return QUICK_SECONDS;
    }
    manifest()
        .ok()
        .and_then(|doc| doc.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(10.0)
}

fn manifest() -> Result<Json, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    Json::parse(&text)
}

/// The parsed result object of one child run.
struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Json,
}

impl RunResult {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }
}

fn run_child(
    w: &Workload,
    options: &Options,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", w.name])
        .args(["--seed", &options.seed.unwrap_or(DEFAULT_SEED).to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if options.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: the run printed no result", w.name))?;
    let doc = Json::parse(line).map_err(|e| format!("{}: {e}", w.name))?;
    let field = |name: &str| {
        doc.get(name)
            .cloned()
            .ok_or_else(|| format!("{}: result lacks '{name}'", w.name))
    };
    Ok(RunResult {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics: field("metrics")?,
    })
}

/// Prints one row per metric and one column per workload.
fn print_table(title: &str, defs: &[MetricDef], results: &[RunResult]) {
    println!("\n== {title} ==");
    print!("{:<28}{:>7}", "metric", "unit");
    for w in &WORKLOADS {
        print!("{:>21}", w.name);
    }
    println!();
    for def in defs {
        print!("{:<28}{:>7}", def.name, def.unit);
        for result in results {
            print!("{:>21}", format_value(result.value(def.name)));
        }
        println!();
    }
    for (label, pick) in [
        (
            "attempted",
            (|r: &RunResult| r.attempted) as fn(&RunResult) -> f64,
        ),
        ("failed", |r: &RunResult| r.failed),
    ] {
        print!("{label:<28}{:>7}", "count");
        for result in results {
            print!("{:>21}", pick(result));
        }
        println!();
    }
}

/// Whole numbers as they are, others with six significant digits and
/// without an exponent for the usual magnitudes.
fn format_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        return format!("{value}");
    }
    let magnitude = value.abs().log10().floor() as i32;
    if !(-5..9).contains(&magnitude) {
        return format!("{value:.5e}");
    }
    let decimals = (5 - magnitude).clamp(0, 9) as usize;
    format!("{value:.decimals$}")
}

fn run_set(options: &Options, seconds: f64, trace: bool) -> Result<Vec<RunResult>, String> {
    WORKLOADS
        .iter()
        .map(|w| run_child(w, options, seconds, trace))
        .collect()
}

fn all_correct(results: &[RunResult]) -> bool {
    results.iter().all(|r| r.correct)
}

/// The bound of each end-to-end metric, from the manifest.
fn bounds(doc: &Json) -> Result<Vec<(String, f64)>, String> {
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks end_to_end")?
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::as_str);
            let bound = entry.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name/bound".to_string())
        })
        .collect()
}

/// Relative distance of `second` from `first`.
fn relative_difference(first: f64, second: f64) -> f64 {
    if first == second {
        0.0
    } else {
        (second - first).abs() / first.abs()
    }
}

/// Two end-to-end sets back to back; every pair must agree within the
/// metric's bound.
fn repeat_check(options: &Options, seconds: f64) -> Result<bool, String> {
    let bounds = bounds(&manifest()?)?;
    let first = run_set(options, seconds, false)?;
    let second = run_set(options, seconds, false)?;
    let mut ok = all_correct(&first) && all_correct(&second);
    println!("\n== repeat check: two end-to-end sets of the same code ==");
    println!(
        "{:<22}{:<24}{:>14}{:>14}{:>10}{:>8}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((w, a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
        for (name, bound) in &bounds {
            let (x, y) = (a.value(name), b.value(name));
            let diff = relative_difference(x, y);
            let verdict = if diff > *bound { "  EXCEEDED" } else { "" };
            ok &= diff <= *bound;
            println!(
                "{:<22}{:<24}{:>14}{:>14}{:>10.4}{:>8}{verdict}",
                w.name,
                name,
                format_value(x),
                format_value(y),
                diff,
                bound
            );
        }
    }
    println!("\nrepeat check: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

fn to_json(defs: &[MetricDef], result: &RunResult) -> Json {
    Json::obj(
        defs.iter()
            .map(|def| (def.name, Json::Num(result.value(def.name)))),
    )
}

pub fn run(options: &Options) -> Result<bool, String> {
    let seconds = options
        .seconds
        .unwrap_or_else(|| default_seconds(options.quick));
    if options.repeat_check {
        return repeat_check(options, seconds);
    }
    let end_to_end = run_set(options, seconds, false)?;
    let per_layer = run_set(options, seconds, true)?;
    let seed = options.seed.unwrap_or(DEFAULT_SEED);
    println!(
        "pipeline benchmark: seed {seed}, {seconds} s per run, {} size",
        if options.quick { "quick" } else { "benchmark" }
    );
    for w in &WORKLOADS {
        println!("  {:<21}{}", w.name, w.why);
    }
    print_table(
        "end to end (CLI as a child process, tracing off)",
        END_TO_END,
        &end_to_end,
    );
    print_table(
        "per layer (traced in-process run; 0 = not on this workload)",
        PER_LAYER,
        &per_layer,
    );

    // The paper's headline reading: same graph, same k = 1024.
    let row = |name: &str| {
        WORKLOADS
            .iter()
            .position(|w| w.name == name)
            .expect("known workload")
    };
    let (fennel, oms) = (row("fennel_k1024"), row("oms_map_4x16x16"));
    println!("\n== OMS vs Fennel at k = 1024 (oms_map_4x16x16 vs fennel_k1024) ==");
    for (metric, set) in [
        ("wall_cal_s", &end_to_end),
        ("mapping_cost_per_edge", &end_to_end),
        ("edge_cut_frac", &end_to_end),
        ("core.partition_s", &per_layer),
        ("core.candidates_per_node", &per_layer),
        ("core.ns_per_candidate", &per_layer),
    ] {
        let (o, f) = (set[oms].value(metric), set[fennel].value(metric));
        println!(
            "{metric:<28} oms {:>12}   fennel {:>12}   oms/fennel {:.3}",
            format_value(o),
            format_value(f),
            o / f
        );
    }

    let workloads = WORKLOADS
        .iter()
        .zip(&end_to_end)
        .zip(&per_layer)
        .map(|((w, e), p)| {
            (
                w.name,
                Json::obj([
                    ("attempted", Json::Num(e.attempted + p.attempted)),
                    ("failed", Json::Num(e.failed + p.failed)),
                    ("end_to_end", to_json(END_TO_END, e)),
                    ("per_layer", to_json(PER_LAYER, p)),
                ]),
            )
        });
    let summary = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(options.quick)),
        ("workloads", Json::obj(workloads)),
        // This benchmark measures; it claims nothing.
        ("claim", Json::Null),
    ]);
    println!("\n{}", summary.to_line());
    Ok(all_correct(&end_to_end) && all_correct(&per_layer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_print_with_six_significant_digits() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(0.912_345_678), "0.912346");
        assert_eq!(format_value(61.507_8), "61.5078");
        assert_eq!(format_value(1024.0), "1024");
        assert_eq!(format_value(73_400_320.0), "73400320");
        assert_eq!(format_value(-0.012_345_678), "-0.0123457");
        assert_eq!(format_value(1.5e-9), "1.50000e-9");
    }

    #[test]
    fn relative_difference_is_symmetric_in_sign() {
        assert_eq!(relative_difference(2.0, 2.0), 0.0);
        assert_eq!(relative_difference(0.0, 0.0), 0.0);
        assert!((relative_difference(2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((relative_difference(2.0, 1.8) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn bounds_are_read_from_the_manifest() {
        let doc = Json::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.15},
                               {"name": "wall_cal_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(
            bounds(&doc).unwrap(),
            vec![
                ("setup_s".to_string(), 0.15),
                ("wall_cal_s".to_string(), 0.1)
            ]
        );
        assert!(bounds(&Json::parse("{}").unwrap()).is_err());
    }
}
