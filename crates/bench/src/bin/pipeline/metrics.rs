//! The metric names and units this benchmark emits, and the result line.
//! `BENCHMARK.json` lists the same names (a test holds the two together);
//! bounds and directions live only there.

use crate::json::Json;
use crate::verify::Tally;
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the CLI sees. Measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("wall_cal_s", "s"),
    m("peak_rss_mib", "MiB"),
    m("edge_cut_frac", "ratio"),
    m("mapping_cost_per_edge", "ratio"),
    m("max_block_over_mean", "ratio"),
];

/// Single layers (layer = crate), from the traced in-process run. A metric
/// whose layer does no work on a workload, or whose probe spec no longer
/// parses, reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    m("graph.load_s", "s"),
    m("graph.load_mib_per_s", "MiB/s"),
    m("graph.scan_mem_s", "s"),
    m("graph.scan_disk_s", "s"),
    m("graph.scan_disk_mib_per_s", "MiB/s"),
    m("graph.delta_parse_s", "s"),
    m("core.api_build_s", "s"),
    m("core.partition_s", "s"),
    m("core.partition_disk_s", "s"),
    m("core.floor_s", "s"),
    m("core.score_s", "s"),
    m("core.candidates_per_node", "count"),
    m("core.ns_per_candidate", "ns"),
    m("core.ns_per_edge_entry", "ns"),
    m("core.pass_first_s", "s"),
    m("core.pass_later_s", "s"),
    m("core.pass_metric_s", "s"),
    m("core.measure_s", "s"),
    m("core.mapping_cost_s", "s"),
    m("core.threads2_s", "s"),
    m("core.shards2_s", "s"),
    m("core.threads2_speedup", "ratio"),
    m("core.shards2_speedup", "ratio"),
    m("obs.recorded_partition_s", "s"),
    m("obs.overhead_frac", "ratio"),
    m("obs.events", "count"),
    m("dynamic.init_s", "s"),
    m("dynamic.apply_s", "s"),
    m("dynamic.deltas_per_s", "1/s"),
    m("dynamic.apply_batch_p50_ms", "ms"),
    m("dynamic.apply_batch_max_ms", "ms"),
    m("dynamic.full_restreams", "count"),
    m("dynamic.save_s", "s"),
    m("dynamic.resume_s", "s"),
    m("dynamic.snapshot_bytes", "bytes"),
    m("cli.wall_raw_s", "s"),
    m("cli.cpu_s", "s"),
    m("cli.residual_s", "s"),
    m("bench.calib_s", "s"),
    m("bench.wall_spread", "ratio"),
    m("bench.trace_total_s", "s"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run of one workload produced.
pub struct Outcome {
    pub values: Values,
    pub tally: Tally,
}

/// The result object the contract asks for on the last line of stdout.
pub fn result_line(defs: &[MetricDef], outcome: &Outcome) -> String {
    let metrics = defs.iter().map(|def| {
        let value = outcome.values.get(def.name).copied().unwrap_or(0.0);
        (
            def.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(outcome.tally.all_passed())),
        ("attempted", Json::Num(outcome.tally.attempted as f64)),
        ("failed", Json::Num(outcome.tally.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use std::path::PathBuf;

    /// `BENCHMARK.json` sits at the repository root, above whichever of the
    /// two manifests builds this file.
    fn benchmark_json() -> Json {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.exists() {
                return Json::parse(&std::fs::read_to_string(candidate).unwrap()).unwrap();
            }
            assert!(dir.pop(), "no BENCHMARK.json above the manifest");
        }
    }

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|entry| entry.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_bin_emits() {
        let doc = benchmark_json();
        let emitted =
            |defs: &[MetricDef]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names(doc.get("end_to_end").unwrap()), emitted(END_TO_END));
        assert_eq!(names(doc.get("per_layer").unwrap()), emitted(PER_LAYER));
        let workloads: Vec<_> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names(doc.get("workloads").unwrap()), workloads);
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for (entry, def) in doc.get(section).unwrap().as_arr().unwrap().iter().zip(defs) {
                assert_eq!(
                    entry.get("unit").unwrap().as_str(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn result_line_has_the_contract_keys_and_zero_for_absent_metrics() {
        let mut outcome = Outcome {
            values: Values::new(),
            tally: Tally::default(),
        };
        outcome.tally.record(None);
        outcome.values.insert("wall_cal_s", 0.75);
        let parsed = Json::parse(&result_line(END_TO_END, &outcome)).unwrap();
        let Json::Obj(pairs) = &parsed else {
            panic!("object")
        };
        let keys: Vec<_> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").unwrap().as_bool(), Some(true));
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("wall_cal_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.75)
        );
        assert_eq!(
            metrics
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        assert_eq!(
            metrics
                .get("peak_rss_mib")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("MiB")
        );
    }
}
