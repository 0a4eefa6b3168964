//! Exporters: JSON-lines trace and Prometheus-style text exposition.
//!
//! Trace grammar (one JSON object per line, fixed key order):
//!
//! ```text
//! {"seq":0,"event":"pass_start","pass":0}
//! {"seq":1,"event":"pass_end","pass":0,"nodes":20000,"edge_cut":10547,"moved":20000}
//! {"event":"trace_end","events":2,"dropped":0,"log_hash":1234567890}
//! ```
//!
//! All values are decimal `u64`s; the final `trace_end` line carries the
//! totals and the event-log hash (which covers evicted events too). The
//! writer and `crate::trace`'s reader share `Event`'s field tables, so a
//! written trace always parses back.

use crate::metrics::{bucket_bound, CounterId, HistId, HIST_BUCKETS};
use crate::recorder::ObsCore;
use std::fmt::Write;

/// Renders the recorder's retained events as a JSON-lines trace,
/// terminated by the `trace_end` footer.
pub fn trace_jsonl(core: &ObsCore) -> String {
    let events = core.events();
    let mut out = String::with_capacity(events.len() * 64 + 64);
    for (seq, event) in &events {
        event.write_jsonl(*seq, &mut out);
    }
    let _ = writeln!(
        out,
        "{{\"event\":\"trace_end\",\"events\":{},\"dropped\":{},\"log_hash\":{}}}",
        core.recorded(),
        core.dropped(),
        core.log_hash()
    );
    out
}

/// Renders the metrics registry as a Prometheus-style text exposition:
/// `# TYPE` lines, `oms_<name>_total` counters, and cumulative
/// `oms_<name>_bucket{le="..."}` histogram series with `_sum` and
/// `_count`. Zero-valued counters and empty histograms are included, so
/// the exposition's shape is workload-independent.
pub fn prometheus(core: &ObsCore) -> String {
    let mut out = String::new();
    for id in CounterId::ALL {
        let name = id.name();
        let _ = writeln!(out, "# TYPE oms_{name}_total counter");
        let _ = writeln!(out, "oms_{name}_total {}", core.counter(id));
    }
    for id in HistId::ALL {
        let name = id.name();
        let hist = core.hist(id);
        let _ = writeln!(out, "# TYPE oms_{name} histogram");
        let mut cumulative = 0u64;
        for b in 0..HIST_BUCKETS {
            cumulative += hist.buckets[b];
            if hist.buckets[b] > 0 || b == 0 {
                let _ = writeln!(
                    out,
                    "oms_{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_bound(b)
                );
            }
        }
        let _ = writeln!(out, "oms_{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "oms_{name}_sum {}", hist.sum);
        let _ = writeln!(out, "oms_{name}_count {}", hist.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::DEFAULT_CAPACITY;
    use crate::Event;

    fn sample_core() -> ObsCore {
        let core = ObsCore::with_capacity(DEFAULT_CAPACITY);
        core.record(Event::PassStart { pass: 0 });
        core.record(Event::PassEnd {
            pass: 0,
            nodes: 100,
            edge_cut: 42,
            moved: 100,
        });
        core.counter_add(CounterId::NodesScored, 100);
        core.hist_record(HistId::PassMoved, 100);
        core
    }

    #[test]
    fn jsonl_ends_with_footer() {
        let text = trace_jsonl(&sample_core());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"seq\":0,\"event\":\"pass_start\""));
        assert!(lines[2].contains("\"event\":\"trace_end\""));
        assert!(lines[2].contains("\"events\":2"));
    }

    #[test]
    fn prometheus_lines_are_well_formed_and_unique() {
        let text = prometheus(&sample_core());
        let mut series: Vec<String> = Vec::new();
        for line in text.lines() {
            assert!(!line.is_empty(), "no blank lines");
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().expect("metric name");
                let kind = it.next().expect("metric kind");
                assert!(matches!(kind, "counter" | "histogram"), "kind {kind}");
                assert!(name.starts_with("oms_"));
                series.push(format!("# {name}"));
                continue;
            }
            let (name_labels, value) = line.rsplit_once(' ').expect("name value");
            assert!(
                value.parse::<u64>().is_ok(),
                "value must be a decimal integer: {line}"
            );
            assert!(name_labels.starts_with("oms_"), "metric prefix: {line}");
            series.push(name_labels.to_string());
        }
        let total = series.len();
        series.sort();
        series.dedup();
        assert_eq!(series.len(), total, "no duplicate series lines");
    }
}
