//! The typed event vocabulary of the observability layer.
//!
//! Every engine milestone — a restream pass, a delta batch, a replay run —
//! is one [`Event`] value. Payloads are deterministic scalars only (counts,
//! seeds, cut values — never wall-clock), so a recorded event log is a pure
//! function of `(stream, seed)` and can serve as a correctness oracle: hash
//! it, and two runs that should agree must produce the same hash.
//!
//! Events serialize to one flat JSON object per line (see
//! [`Event::write_jsonl`]) and back (see [`Event::from_parts`]); the two
//! directions share the [`Event::parts`] field table, so the trace grammar
//! cannot drift between writer and reader.

/// Maximum number of `u64` words one event encodes to (tag + fields).
pub(crate) const MAX_EVENT_WORDS: usize = 8;

/// One engine milestone with its deterministic payload.
///
/// Field values are counts, ids and quality scalars; wall-clock durations
/// are deliberately impossible to carry, so a recorded event log is a pure
/// function of `(stream, seed)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A restream pass over the node stream is starting.
    PassStart {
        /// Pass index (0 = initial streaming pass).
        pass: u32,
    },
    /// A restream pass finished and was accepted.
    PassEnd {
        /// Pass index.
        pass: u32,
        /// Nodes the stream delivered to the sink in this pass.
        nodes: u64,
        /// Edge cut measured after the pass (0 when the run is untracked).
        edge_cut: u64,
        /// Nodes that changed blocks in this pass (0 when untracked).
        moved: u64,
    },
    /// A restream pass regressed quality and was rolled back to the best
    /// assignment seen.
    PassReverted {
        /// Index of the reverted pass.
        pass: u32,
        /// Edge cut of the restored (kept) assignment.
        kept_cut: u64,
    },
    /// A buffered algorithm scored one batch of nodes.
    BatchScored {
        /// Batch index within the pass.
        batch: u64,
        /// Nodes scored in the batch.
        nodes: u64,
    },
    /// A delta batch was applied to a maintained partition.
    DeltaBatchApplied {
        /// Deltas applied by the call.
        deltas: u64,
        /// Local re-scoring steps performed.
        rescored: u64,
        /// Re-scored nodes that changed blocks.
        moved: u64,
        /// Full restream fallbacks the call triggered.
        restreams: u64,
        /// Maintained edge cut after the batch.
        edge_cut: u64,
    },
    /// Drift exceeded the job's threshold and a full restream fallback ran.
    DriftFallback {
        /// Cumulative fallback count (including this one).
        restreams: u64,
        /// Maintained edge cut after the fallback.
        edge_cut: u64,
    },
    /// A partition snapshot was persisted.
    SnapshotWritten {
        /// Cumulative deltas applied at snapshot time.
        deltas_applied: u64,
        /// Maintained edge cut at snapshot time.
        edge_cut: u64,
    },
    /// A partition service resumed from a snapshot.
    SnapshotResumed {
        /// Cumulative deltas the snapshot had applied.
        deltas_applied: u64,
        /// Maintained edge cut restored from the snapshot.
        edge_cut: u64,
    },
    /// A sliding-window checkpoint closed during trace driving.
    WindowClosed {
        /// Checkpoint number (0-based, dense).
        checkpoint: u64,
        /// 0-based index of the trace batch the window ended on.
        batch: u64,
        /// Deltas ingested in the window.
        deltas: u64,
        /// Maintained edge cut at the checkpoint.
        edge_cut: u64,
    },
    /// An edge-partitioning pass finished and was accepted.
    EdgePassEnd {
        /// Pass index.
        pass: u32,
        /// Total replica count after the pass.
        total_replicas: u64,
        /// Edges that changed blocks in the pass.
        moved: u64,
    },
    /// An edge-partitioning pass regressed and was rolled back.
    EdgePassReverted {
        /// Index of the reverted pass.
        pass: u32,
        /// Total replica count of the restored assignment.
        kept_replicas: u64,
    },
    /// A traffic replay finished; the simulator's outcome in one event.
    ReplaySummary {
        /// Requests issued.
        requests: u64,
        /// Requests served to completion.
        served: u64,
        /// Requests shed at admission.
        rejected: u64,
        /// Vertex touches executed.
        total_hops: u64,
        /// Touches that crossed a block boundary.
        cross_block_hops: u64,
        /// The simulator's FNV-1a request-log hash.
        log_hash: u64,
    },
}

/// One `(field name, value)` table per event — the single source of truth
/// for serialization, parsing and hashing. Tags feed the log hash, so they
/// are never renumbered: 5–7 belonged to events that no longer exist.
macro_rules! event_table {
    ($self:expr, $f:expr) => {
        match $self {
            Event::PassStart { pass } => $f(1, "pass_start", &[("pass", *pass as u64)]),
            Event::PassEnd {
                pass,
                nodes,
                edge_cut,
                moved,
            } => $f(
                2,
                "pass_end",
                &[
                    ("pass", *pass as u64),
                    ("nodes", *nodes),
                    ("edge_cut", *edge_cut),
                    ("moved", *moved),
                ],
            ),
            Event::PassReverted { pass, kept_cut } => $f(
                3,
                "pass_reverted",
                &[("pass", *pass as u64), ("kept_cut", *kept_cut)],
            ),
            Event::BatchScored { batch, nodes } => {
                $f(4, "batch_scored", &[("batch", *batch), ("nodes", *nodes)])
            }
            Event::DeltaBatchApplied {
                deltas,
                rescored,
                moved,
                restreams,
                edge_cut,
            } => $f(
                8,
                "delta_batch_applied",
                &[
                    ("deltas", *deltas),
                    ("rescored", *rescored),
                    ("moved", *moved),
                    ("restreams", *restreams),
                    ("edge_cut", *edge_cut),
                ],
            ),
            Event::DriftFallback {
                restreams,
                edge_cut,
            } => $f(
                9,
                "drift_fallback",
                &[("restreams", *restreams), ("edge_cut", *edge_cut)],
            ),
            Event::SnapshotWritten {
                deltas_applied,
                edge_cut,
            } => $f(
                10,
                "snapshot_written",
                &[("deltas_applied", *deltas_applied), ("edge_cut", *edge_cut)],
            ),
            Event::SnapshotResumed {
                deltas_applied,
                edge_cut,
            } => $f(
                11,
                "snapshot_resumed",
                &[("deltas_applied", *deltas_applied), ("edge_cut", *edge_cut)],
            ),
            Event::WindowClosed {
                checkpoint,
                batch,
                deltas,
                edge_cut,
            } => $f(
                12,
                "window_closed",
                &[
                    ("checkpoint", *checkpoint),
                    ("batch", *batch),
                    ("deltas", *deltas),
                    ("edge_cut", *edge_cut),
                ],
            ),
            Event::EdgePassEnd {
                pass,
                total_replicas,
                moved,
            } => $f(
                13,
                "edge_pass_end",
                &[
                    ("pass", *pass as u64),
                    ("total_replicas", *total_replicas),
                    ("moved", *moved),
                ],
            ),
            Event::EdgePassReverted {
                pass,
                kept_replicas,
            } => $f(
                14,
                "edge_pass_reverted",
                &[("pass", *pass as u64), ("kept_replicas", *kept_replicas)],
            ),
            Event::ReplaySummary {
                requests,
                served,
                rejected,
                total_hops,
                cross_block_hops,
                log_hash,
            } => $f(
                15,
                "replay_summary",
                &[
                    ("requests", *requests),
                    ("served", *served),
                    ("rejected", *rejected),
                    ("total_hops", *total_hops),
                    ("cross_block_hops", *cross_block_hops),
                    ("log_hash", *log_hash),
                ],
            ),
        }
    };
}

impl Event {
    /// The event's snake_case name, as it appears in every exporter.
    pub(crate) fn name(&self) -> &'static str {
        event_table!(self, |_tag, name, _fields: &[(&'static str, u64)]| name)
    }

    /// The engine family the event belongs to — the grouping `oms trace`
    /// summarizes by.
    pub(crate) fn engine(&self) -> &'static str {
        match self {
            Event::PassStart { .. }
            | Event::PassEnd { .. }
            | Event::PassReverted { .. }
            | Event::BatchScored { .. } => "restream",
            Event::DeltaBatchApplied { .. }
            | Event::DriftFallback { .. }
            | Event::SnapshotWritten { .. }
            | Event::SnapshotResumed { .. }
            | Event::WindowClosed { .. } => "dynamic",
            Event::EdgePassEnd { .. } | Event::EdgePassReverted { .. } => "edgepart",
            Event::ReplaySummary { .. } => "replay",
        }
    }

    /// Calls `visit` with the event's name and `(field, value)` table.
    pub(crate) fn parts<R>(
        &self,
        visit: impl FnOnce(&'static str, &[(&'static str, u64)]) -> R,
    ) -> R {
        event_table!(self, |_tag, name, fields: &[(&'static str, u64)]| visit(
            name, fields
        ))
    }

    /// Encodes the event as `u64` words (tag followed by field values) —
    /// the representation the recorder's event-log hash folds.
    /// Returns the filled prefix of the buffer. Never allocates.
    pub(crate) fn encode(&self, buf: &mut [u64; MAX_EVENT_WORDS]) -> usize {
        event_table!(self, |tag: u64, _name, fields: &[(&'static str, u64)]| {
            buf[0] = tag;
            for (i, &(_, value)) in fields.iter().enumerate() {
                buf[i + 1] = value;
            }
            fields.len() + 1
        })
    }

    /// Appends the event as one flat JSON object line
    /// (`{"seq":N,"event":"...","field":value,...}\n`) to `out`.
    pub(crate) fn write_jsonl(&self, seq: u64, out: &mut String) {
        use std::fmt::Write;
        self.parts(|name, fields| {
            let _ = write!(out, "{{\"seq\":{seq},\"event\":\"{name}\"");
            for &(key, value) in fields {
                let _ = write!(out, ",\"{key}\":{value}");
            }
            out.push_str("}\n");
        });
    }

    /// Reconstructs an event from its name and parsed `(field, value)`
    /// pairs — the inverse of [`Event::write_jsonl`]. Returns `None` for
    /// unknown names or missing fields (extra fields are ignored).
    pub(crate) fn from_parts(name: &str, fields: &[(String, u64)]) -> Option<Event> {
        let get =
            |key: &str| -> Option<u64> { fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v) };
        // A pass index outside `u32` is not an event the writer can emit.
        let pass = || u32::try_from(get("pass")?).ok();
        let event = match name {
            "pass_start" => Event::PassStart { pass: pass()? },
            "pass_end" => Event::PassEnd {
                pass: pass()?,
                nodes: get("nodes")?,
                edge_cut: get("edge_cut")?,
                moved: get("moved")?,
            },
            "pass_reverted" => Event::PassReverted {
                pass: pass()?,
                kept_cut: get("kept_cut")?,
            },
            "batch_scored" => Event::BatchScored {
                batch: get("batch")?,
                nodes: get("nodes")?,
            },
            "delta_batch_applied" => Event::DeltaBatchApplied {
                deltas: get("deltas")?,
                rescored: get("rescored")?,
                moved: get("moved")?,
                restreams: get("restreams")?,
                edge_cut: get("edge_cut")?,
            },
            "drift_fallback" => Event::DriftFallback {
                restreams: get("restreams")?,
                edge_cut: get("edge_cut")?,
            },
            "snapshot_written" => Event::SnapshotWritten {
                deltas_applied: get("deltas_applied")?,
                edge_cut: get("edge_cut")?,
            },
            "snapshot_resumed" => Event::SnapshotResumed {
                deltas_applied: get("deltas_applied")?,
                edge_cut: get("edge_cut")?,
            },
            "window_closed" => Event::WindowClosed {
                checkpoint: get("checkpoint")?,
                batch: get("batch")?,
                deltas: get("deltas")?,
                edge_cut: get("edge_cut")?,
            },
            "edge_pass_end" => Event::EdgePassEnd {
                pass: pass()?,
                total_replicas: get("total_replicas")?,
                moved: get("moved")?,
            },
            "edge_pass_reverted" => Event::EdgePassReverted {
                pass: pass()?,
                kept_replicas: get("kept_replicas")?,
            },
            "replay_summary" => Event::ReplaySummary {
                requests: get("requests")?,
                served: get("served")?,
                rejected: get("rejected")?,
                total_hops: get("total_hops")?,
                cross_block_hops: get("cross_block_hops")?,
                log_hash: get("log_hash")?,
            },
            _ => return None,
        };
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::PassStart { pass: 0 },
            Event::PassEnd {
                pass: 1,
                nodes: 1000,
                edge_cut: 42,
                moved: 7,
            },
            Event::PassReverted {
                pass: 2,
                kept_cut: 40,
            },
            Event::BatchScored {
                batch: 3,
                nodes: 512,
            },
            Event::DeltaBatchApplied {
                deltas: 200,
                rescored: 300,
                moved: 12,
                restreams: 1,
                edge_cut: 999,
            },
            Event::DriftFallback {
                restreams: 2,
                edge_cut: 950,
            },
            Event::SnapshotWritten {
                deltas_applied: 400,
                edge_cut: 950,
            },
            Event::SnapshotResumed {
                deltas_applied: 400,
                edge_cut: 950,
            },
            Event::WindowClosed {
                checkpoint: 1,
                batch: 3,
                deltas: 600,
                edge_cut: 940,
            },
            Event::EdgePassEnd {
                pass: 0,
                total_replicas: 1234,
                moved: 500,
            },
            Event::EdgePassReverted {
                pass: 1,
                kept_replicas: 1200,
            },
            Event::ReplaySummary {
                requests: 2000,
                served: 1990,
                rejected: 10,
                total_hops: 16000,
                cross_block_hops: 4000,
                log_hash: 0xcbf29ce484222325,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        for (seq, event) in samples().into_iter().enumerate() {
            let mut line = String::new();
            event.write_jsonl(seq as u64, &mut line);
            let parsed = crate::trace::parse_line(line.trim_end()).expect("line parses");
            let (name, fields, seq_back) = parsed;
            assert_eq!(seq_back, Some(seq as u64));
            let back = Event::from_parts(&name, &fields).expect("event reconstructs");
            assert_eq!(back, event, "round trip must be lossless");
        }
    }

    #[test]
    fn tags_are_unique() {
        let mut tags: Vec<u64> = samples()
            .iter()
            .map(|e| {
                let mut buf = [0u64; MAX_EVENT_WORDS];
                e.encode(&mut buf);
                buf[0]
            })
            .collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), samples().len(), "event tags must be distinct");
    }

    #[test]
    fn encode_covers_every_field() {
        for event in samples() {
            let mut buf = [0u64; MAX_EVENT_WORDS];
            let words = event.encode(&mut buf);
            let fields = event.parts(|_, fields| fields.len());
            assert_eq!(words, fields + 1, "tag plus one word per field");
            assert!(words <= MAX_EVENT_WORDS);
        }
    }
}
