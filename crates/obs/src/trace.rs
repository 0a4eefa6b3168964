//! Reading recorded traces back: the flat JSON-lines parser and the
//! summary behind the `oms trace` subcommand.
//!
//! The parser understands exactly the grammar `crate::export::trace_jsonl`
//! writes (flat objects, string event names, decimal `u64` values) and
//! reconstructs typed [`Event`]s through [`Event::from_parts`], so a
//! summary can recompute the event-log hash and verify it against the
//! `trace_end` footer — the trace file proves its own integrity.

use crate::event::Event;
use crate::metrics::Histogram;
use crate::recorder::replay_hash;
use std::fmt;

/// One parsed trace line: `(event name, numeric fields, seq)`.
pub(crate) type ParsedLine = (String, Vec<(String, u64)>, Option<u64>);

/// Splits one flat JSON object line into `(event name, numeric fields,
/// seq)`. Returns an error message for lines outside the trace grammar.
pub(crate) fn parse_line(line: &str) -> Result<ParsedLine, String> {
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|rest| rest.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object line: {line}"))?;
    let mut name = None;
    let mut seq = None;
    let mut fields = Vec::new();
    for pair in inner.split(',') {
        let (key, value) = pair
            .split_once(':')
            .ok_or_else(|| format!("malformed pair '{pair}' in: {line}"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted key '{key}' in: {line}"))?;
        let value = value.trim();
        if key == "event" {
            let value = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("event name must be a string in: {line}"))?;
            name = Some(value.to_string());
        } else {
            let number: u64 = value
                .parse()
                .map_err(|_| format!("non-integer value '{value}' for '{key}' in: {line}"))?;
            if key == "seq" {
                seq = Some(number);
            } else {
                fields.push((key.to_string(), number));
            }
        }
    }
    let name = name.ok_or_else(|| format!("line carries no \"event\" key: {line}"))?;
    Ok((name, fields, seq))
}

/// The `trace_end` footer of a recorded trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceFooter {
    /// Total events the recorder saw (retained + dropped).
    pub events: u64,
    /// Events evicted from the ring before export.
    pub(crate) dropped: u64,
    /// The recorder's event-log hash.
    pub log_hash: u64,
}

/// A parsed trace: the retained events and the footer.
#[derive(Clone, Debug)]
pub(crate) struct ParsedTrace {
    /// Retained `(seq, event)` pairs, oldest first.
    pub(crate) events: Vec<(u64, Event)>,
    /// The `trace_end` footer, when the trace was fully written.
    pub(crate) footer: Option<TraceFooter>,
}

/// Parses a full JSON-lines trace (as written by
/// `crate::export::trace_jsonl`). Unknown event names are an error — a
/// trace that cannot be reconstructed cannot be verified. Every error
/// starts with the 1-based number of the offending line.
pub(crate) fn parse_trace(text: &str) -> Result<ParsedTrace, String> {
    let mut events = Vec::new();
    let mut footer = None;
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let numbered = |why: String| format!("line {}: {why}", index + 1);
        let (name, fields, seq) = parse_line(line).map_err(numbered)?;
        if name == "trace_end" {
            let get = |key: &str| -> Result<u64, String> {
                fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|&(_, v)| v)
                    .ok_or_else(|| numbered(format!("trace_end misses '{key}': {line}")))
            };
            footer = Some(TraceFooter {
                events: get("events")?,
                dropped: get("dropped")?,
                log_hash: get("log_hash")?,
            });
            continue;
        }
        let event = Event::from_parts(&name, &fields)
            .ok_or_else(|| numbered(format!("unknown or incomplete event '{name}': {line}")))?;
        events.push((
            seq.ok_or_else(|| numbered(format!("event line misses seq: {line}")))?,
            event,
        ));
    }
    Ok(ParsedTrace { events, footer })
}

/// One derived histogram row of a [`TraceSummary`]: a signal rebuilt from
/// event payloads.
#[derive(Clone, Debug)]
pub(crate) struct SummaryHistogram {
    /// Signal name.
    name: &'static str,
    /// The log-bucketed sketch of the signal.
    hist: Histogram,
}

/// What `oms trace` prints: totals, integrity, per-engine and per-kind
/// event counts, headline aggregates, and histograms rebuilt from the
/// event payloads.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// Events retained in the file.
    pub retained: usize,
    /// The footer, when present.
    pub footer: Option<TraceFooter>,
    /// Hash recomputed over the retained events — equals the footer hash
    /// exactly when the trace is complete (`dropped == 0`).
    pub recomputed_hash: u64,
    /// `(engine, events)` counts, in first-seen order.
    pub(crate) engines: Vec<(&'static str, usize)>,
    /// `(event name, count)` counts, in first-seen order.
    pub(crate) kinds: Vec<(&'static str, usize)>,
    /// Sum of nodes over `pass_end` events (a `u128`, so no count of
    /// `u64` payloads can overflow it).
    pub nodes_scored: u128,
    /// Edge cut of the last `pass_end` / maintained event carrying one.
    pub final_edge_cut: Option<u64>,
    /// Histograms rebuilt from event payloads, densest first.
    pub(crate) histograms: Vec<SummaryHistogram>,
}

impl TraceSummary {
    /// Whether the retained events reproduce the footer hash (only
    /// possible for complete traces; `None` without a footer).
    pub fn hash_verified(&self) -> Option<bool> {
        self.footer
            .filter(|f| f.dropped == 0)
            .map(|f| f.log_hash == self.recomputed_hash)
    }
}

/// Summarizes a recorded JSON-lines trace (see [`TraceSummary`]).
pub fn summarize(text: &str) -> Result<TraceSummary, String> {
    let parsed = parse_trace(text)?;
    let mut engines: Vec<(&'static str, usize)> = Vec::new();
    let mut kinds: Vec<(&'static str, usize)> = Vec::new();
    let mut nodes_scored = 0u128;
    let mut final_edge_cut = None;
    let mut pass_moved = Histogram::default();
    let mut batch_deltas = Histogram::default();
    let bump = |table: &mut Vec<(&'static str, usize)>, key: &'static str| match table
        .iter_mut()
        .find(|(k, _)| *k == key)
    {
        Some((_, n)) => *n += 1,
        None => table.push((key, 1)),
    };
    for &(_, event) in &parsed.events {
        bump(&mut engines, event.engine());
        bump(&mut kinds, event.name());
        match event {
            Event::PassEnd {
                nodes,
                edge_cut,
                moved,
                ..
            } => {
                nodes_scored += u128::from(nodes);
                final_edge_cut = Some(edge_cut);
                pass_moved.record(moved);
            }
            Event::DeltaBatchApplied {
                deltas, edge_cut, ..
            } => {
                batch_deltas.record(deltas);
                final_edge_cut = Some(edge_cut);
            }
            Event::WindowClosed { edge_cut, .. } | Event::DriftFallback { edge_cut, .. } => {
                final_edge_cut = Some(edge_cut);
            }
            _ => {}
        }
    }
    let mut histograms: Vec<SummaryHistogram> = [
        ("pass_moved", pass_moved),
        ("delta_batch_deltas", batch_deltas),
    ]
    .into_iter()
    .filter(|(_, hist)| hist.count > 0)
    .map(|(name, hist)| SummaryHistogram { name, hist })
    .collect();
    histograms.sort_by_key(|h| std::cmp::Reverse(h.hist.count));
    Ok(TraceSummary {
        retained: parsed.events.len(),
        footer: parsed.footer,
        recomputed_hash: replay_hash(parsed.events.iter().map(|&(_, e)| e)),
        engines,
        kinds,
        nodes_scored,
        final_edge_cut,
        histograms,
    })
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "events retained  {}", self.retained)?;
        if let Some(footer) = self.footer {
            writeln!(f, "events recorded  {}", footer.events)?;
            writeln!(f, "events dropped   {}", footer.dropped)?;
            writeln!(f, "log hash         {:#018x}", footer.log_hash)?;
            match self.hash_verified() {
                Some(true) => writeln!(f, "hash check       ok (recomputed from events)")?,
                Some(false) => writeln!(f, "hash check       MISMATCH")?,
                None => writeln!(f, "hash check       skipped (ring dropped events)")?,
            }
        } else {
            writeln!(f, "log hash         (no trace_end footer)")?;
        }
        writeln!(f, "engines:")?;
        for (engine, count) in &self.engines {
            writeln!(f, "  {engine:<10} {count:>8}")?;
        }
        writeln!(f, "events:")?;
        for (kind, count) in &self.kinds {
            writeln!(f, "  {kind:<22} {count:>8}")?;
        }
        if self.nodes_scored > 0 {
            writeln!(f, "nodes scored     {}", self.nodes_scored)?;
        }
        if let Some(cut) = self.final_edge_cut {
            writeln!(f, "final edge cut   {cut}")?;
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms (from event payloads):")?;
            for row in &self.histograms {
                writeln!(
                    f,
                    "  {:<22} count={} mean={:.1} p50<={} p99<={}",
                    row.name,
                    row.hist.count,
                    row.hist.mean(),
                    row.hist.quantile_bound(0.5),
                    row.hist.quantile_bound(0.99),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::trace_jsonl;
    use crate::recorder::{ObsCore, DEFAULT_CAPACITY};

    #[test]
    fn summary_round_trips_a_recorded_trace() {
        let core = ObsCore::with_capacity(DEFAULT_CAPACITY);
        core.record(Event::PassStart { pass: 0 });
        core.record(Event::PassEnd {
            pass: 0,
            nodes: 500,
            edge_cut: 77,
            moved: 500,
        });
        core.record(Event::PassStart { pass: 1 });
        core.record(Event::PassEnd {
            pass: 1,
            nodes: 500,
            edge_cut: 70,
            moved: 31,
        });
        let text = trace_jsonl(&core);
        let summary = summarize(&text).expect("summary parses");
        assert_eq!(summary.retained, 4);
        assert_eq!(summary.footer.unwrap().events, 4);
        assert_eq!(summary.hash_verified(), Some(true));
        assert_eq!(summary.recomputed_hash, core.log_hash());
        assert_eq!(summary.nodes_scored, 1000);
        assert_eq!(summary.final_edge_cut, Some(70));
        assert_eq!(summary.engines, vec![("restream", 4)]);
        let rendered = summary.to_string();
        assert!(rendered.contains("pass_end"));
        assert!(rendered.contains("hash check       ok"));
    }

    #[test]
    fn tampered_trace_fails_the_hash_check() {
        let core = ObsCore::with_capacity(DEFAULT_CAPACITY);
        core.record(Event::PassEnd {
            pass: 0,
            nodes: 500,
            edge_cut: 77,
            moved: 500,
        });
        let tampered = trace_jsonl(&core).replace("\"edge_cut\":77", "\"edge_cut\":78");
        let summary = summarize(&tampered).expect("still parses");
        assert_eq!(summary.hash_verified(), Some(false));
    }

    #[test]
    fn malformed_lines_are_rejected_with_their_line_number() {
        let good = "{\"seq\":0,\"event\":\"pass_start\",\"pass\":0}\n";
        for bad in [
            "not json",
            "{\"seq\":1,\"event\":\"no_such_event\"}",
            "{\"seq\":1,\"pass\":1}",
            "{\"event\":\"pass_start\",\"pass\":1}",
            "{\"event\":\"trace_end\",\"events\":1}",
            // An event of the removed sharded engine is unknown like any other.
            "{\"seq\":1,\"event\":\"shard_round\",\"round\":1,\"messages\":4}",
            // A pass index must fit the `u32` the event carries.
            "{\"seq\":1,\"event\":\"pass_start\",\"pass\":4294967296}",
        ] {
            let err = parse_trace(&format!("{good}\n{bad}\n")).unwrap_err();
            assert!(err.starts_with("line 3: "), "{bad}: {err}");
        }
    }

    #[test]
    fn node_sums_cannot_overflow() {
        let events = [0, 1].map(|pass| Event::PassEnd {
            pass,
            nodes: u64::MAX,
            edge_cut: 1,
            moved: 1,
        });
        let mut text = String::new();
        for (seq, event) in events.iter().enumerate() {
            event.write_jsonl(seq as u64, &mut text);
        }
        text.push_str(&format!(
            "{{\"event\":\"trace_end\",\"events\":2,\"dropped\":0,\"log_hash\":{}}}\n",
            replay_hash(events)
        ));
        let summary = summarize(&text).expect("summary parses");
        assert_eq!(summary.hash_verified(), Some(true));
        assert_eq!(summary.nodes_scored, 2 * u128::from(u64::MAX));
    }
}
