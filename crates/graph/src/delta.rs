//! Graph change sets for dynamic-graph maintenance.
//!
//! A long-lived partitioning service does not see a static stream: edges and
//! nodes appear and disappear over time. This module defines the unit of
//! change the dynamic layer ingests — the [`DeltaBatch`], a
//! structure-of-arrays change set mirroring [`NodeBatch`](crate::NodeBatch)
//! — together with a small text *trace* format so churn workloads can be
//! generated once, stored and replayed reproducibly.
//!
//! ## Trace grammar
//!
//! One operation per line; `#` starts a comment, blank lines are ignored:
//!
//! ```text
//! +e u v [w]    insert undirected edge {u, v} with weight w (default 1)
//! -e u v        delete edge {u, v}
//! +n v [w]      insert node v with weight w (default 1)
//! -n v          delete node v (its incident edges go with it)
//! !             checkpoint: ends the current batch
//! ```
//!
//! [`read_delta_trace`] splits a trace at its checkpoints into one
//! [`DeltaBatch`] per section; [`write_delta_trace`] is its inverse.

use crate::{EdgeWeight, GraphError, NodeId, NodeWeight, Result};
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// The kind of one graph mutation in a [`DeltaBatch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DeltaKind {
    /// Insert an undirected edge `{u, v}` with a weight.
    EdgeInsert,
    /// Delete the edge `{u, v}`.
    EdgeDelete,
    /// Insert a new node `u` with a node weight (`v` unused).
    NodeInsert,
    /// Delete node `u` and all its incident edges (`v` unused).
    NodeDelete,
}

/// One decoded graph mutation, the per-operation view of a [`DeltaBatch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delta {
    /// Insert the undirected edge `{u, v}` with weight `w`.
    EdgeInsert {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
        /// Edge weight (≥ 1).
        w: EdgeWeight,
    },
    /// Delete the undirected edge `{u, v}`.
    EdgeDelete {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
    },
    /// Insert node `node` with weight `weight`: a dead id, which is revived,
    /// or the graph's next fresh id. The node starts isolated; subsequent
    /// edge inserts attach it.
    NodeInsert {
        /// The new node id.
        node: NodeId,
        /// Its node weight (≥ 1).
        weight: NodeWeight,
    },
    /// Delete `node` together with all its incident edges.
    NodeDelete {
        /// The node to remove.
        node: NodeId,
    },
}

/// A batch of graph mutations in structure-of-arrays layout, mirroring
/// [`NodeBatch`](crate::NodeBatch): four parallel arrays (kind, two node
/// operands, weight). One batch is the unit of ingestion — the dynamic
/// layer applies a whole batch, then reports quality at the checkpoint.
#[derive(Clone, Debug, Default)]
pub struct DeltaBatch {
    kinds: Vec<DeltaKind>,
    a: Vec<NodeId>,
    b: Vec<NodeId>,
    weights: Vec<u64>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    /// An empty batch with room for `ops` operations.
    pub fn with_capacity(ops: usize) -> Self {
        DeltaBatch {
            kinds: Vec::with_capacity(ops),
            a: Vec::with_capacity(ops),
            b: Vec::with_capacity(ops),
            weights: Vec::with_capacity(ops),
        }
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Appends one operation.
    pub(crate) fn push(&mut self, delta: Delta) {
        let (kind, a, b, w) = match delta {
            Delta::EdgeInsert { u, v, w } => (DeltaKind::EdgeInsert, u, v, w),
            Delta::EdgeDelete { u, v } => (DeltaKind::EdgeDelete, u, v, 0),
            Delta::NodeInsert { node, weight } => (DeltaKind::NodeInsert, node, 0, weight),
            Delta::NodeDelete { node } => (DeltaKind::NodeDelete, node, 0, 0),
        };
        self.kinds.push(kind);
        self.a.push(a);
        self.b.push(b);
        self.weights.push(w);
    }

    /// Appends an edge insert.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, w: EdgeWeight) {
        self.push(Delta::EdgeInsert { u, v, w });
    }

    /// Appends an edge delete.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) {
        self.push(Delta::EdgeDelete { u, v });
    }

    /// Appends a node insert.
    pub fn insert_node(&mut self, node: NodeId, weight: NodeWeight) {
        self.push(Delta::NodeInsert { node, weight });
    }

    /// Appends a node delete.
    pub fn delete_node(&mut self, node: NodeId) {
        self.push(Delta::NodeDelete { node });
    }

    /// The `i`-th operation.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn get(&self, i: usize) -> Delta {
        match self.kinds[i] {
            DeltaKind::EdgeInsert => Delta::EdgeInsert {
                u: self.a[i],
                v: self.b[i],
                w: self.weights[i],
            },
            DeltaKind::EdgeDelete => Delta::EdgeDelete {
                u: self.a[i],
                v: self.b[i],
            },
            DeltaKind::NodeInsert => Delta::NodeInsert {
                node: self.a[i],
                weight: self.weights[i],
            },
            DeltaKind::NodeDelete => Delta::NodeDelete { node: self.a[i] },
        }
    }

    /// Iterates over the operations in order.
    pub fn iter(&self) -> impl Iterator<Item = Delta> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Delta::EdgeInsert { u, v, w: 1 } => write!(f, "+e {u} {v}"),
            Delta::EdgeInsert { u, v, w } => write!(f, "+e {u} {v} {w}"),
            Delta::EdgeDelete { u, v } => write!(f, "-e {u} {v}"),
            Delta::NodeInsert { node, weight: 1 } => write!(f, "+n {node}"),
            Delta::NodeInsert { node, weight } => write!(f, "+n {node} {weight}"),
            Delta::NodeDelete { node } => write!(f, "-n {node}"),
        }
    }
}

fn trace_err(line: u64, msg: impl Into<String>) -> GraphError {
    GraphError::Parse(format!("delta trace line {line}: {}", msg.into()))
}

fn parse_id(tok: &str, line: u64, what: &str) -> Result<NodeId> {
    tok.parse::<NodeId>()
        .map_err(|_| trace_err(line, format!("invalid {what} '{tok}'")))
}

fn parse_weight(tok: Option<&str>, line: u64) -> Result<u64> {
    let Some(tok) = tok else { return Ok(1) };
    let w = tok
        .parse::<u64>()
        .map_err(|_| trace_err(line, format!("invalid weight '{tok}'")))?;
    if w == 0 {
        return Err(trace_err(line, "weights must be >= 1"));
    }
    Ok(w)
}

/// Parses one trace line into an operation; `Ok(None)` marks a checkpoint
/// (`!`). Comments and blank lines must be filtered before calling.
fn parse_line(text: &str, line: u64) -> Result<Option<Delta>> {
    let mut tok = text.split_ascii_whitespace();
    let op = tok.next().expect("caller filters blank lines");
    if op == "!" {
        return match tok.next() {
            None => Ok(None),
            Some(extra) => Err(trace_err(line, format!("unexpected '{extra}' after '!'"))),
        };
    }
    let delta = match op {
        "+e" | "-e" => {
            let u = parse_id(
                tok.next().ok_or_else(|| trace_err(line, "missing u"))?,
                line,
                "node id",
            )?;
            let v = parse_id(
                tok.next().ok_or_else(|| trace_err(line, "missing v"))?,
                line,
                "node id",
            )?;
            if u == v {
                return Err(trace_err(line, "self loops are not allowed"));
            }
            if op == "+e" {
                Delta::EdgeInsert {
                    u,
                    v,
                    w: parse_weight(tok.next(), line)?,
                }
            } else {
                Delta::EdgeDelete { u, v }
            }
        }
        "+n" => {
            let node = parse_id(
                tok.next()
                    .ok_or_else(|| trace_err(line, "missing node id"))?,
                line,
                "node id",
            )?;
            Delta::NodeInsert {
                node,
                weight: parse_weight(tok.next(), line)?,
            }
        }
        "-n" => Delta::NodeDelete {
            node: parse_id(
                tok.next()
                    .ok_or_else(|| trace_err(line, "missing node id"))?,
                line,
                "node id",
            )?,
        },
        other => {
            return Err(trace_err(
                line,
                format!("unknown operation '{other}' (expected +e, -e, +n, -n or !)"),
            ))
        }
    };
    match (tok.next(), delta) {
        (Some(extra), _) => Err(trace_err(line, format!("trailing input '{extra}'"))),
        (None, delta) => Ok(Some(delta)),
    }
}

/// Parses a delta trace from text, splitting it at `!` checkpoints into one
/// [`DeltaBatch`] per section. A final section without a trailing `!` forms
/// a last batch; empty sections are dropped.
pub(crate) fn parse_delta_trace(text: &str) -> Result<Vec<DeltaBatch>> {
    let mut batches = Vec::new();
    let mut current = DeltaBatch::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        match parse_line(line, i as u64 + 1)? {
            Some(delta) => current.push(delta),
            None => {
                if !current.is_empty() {
                    batches.push(std::mem::take(&mut current));
                }
            }
        }
    }
    if !current.is_empty() {
        batches.push(current);
    }
    Ok(batches)
}

/// Reads a delta trace file: one operation per line (`+e u v [w]`, `-e u v`,
/// `+n v [w]`, `-n v`; `#` starts a comment), `!` ending a batch.
pub fn read_delta_trace(path: impl AsRef<Path>) -> Result<Vec<DeltaBatch>> {
    let mut text = String::new();
    BufReader::new(File::open(path)?).read_to_string(&mut text)?;
    parse_delta_trace(&text)
}

/// Serializes batches into the trace text format; every batch ends with a
/// `!` checkpoint line.
pub(crate) fn format_delta_trace(batches: &[DeltaBatch]) -> String {
    let mut out = String::new();
    for batch in batches {
        for delta in batch.iter() {
            out.push_str(&delta.to_string());
            out.push('\n');
        }
        out.push_str("!\n");
    }
    out
}

/// Writes batches as a delta trace file, one `!` checkpoint per batch.
pub fn write_delta_trace(path: impl AsRef<Path>, batches: &[DeltaBatch]) -> Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(format_delta_trace(batches).as_bytes())?;
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_push_get_round_trip() {
        let mut batch = DeltaBatch::with_capacity(4);
        batch.insert_edge(1, 2, 5);
        batch.delete_edge(3, 4);
        batch.insert_node(9, 2);
        batch.delete_node(7);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.get(0), Delta::EdgeInsert { u: 1, v: 2, w: 5 });
        assert_eq!(batch.get(1), Delta::EdgeDelete { u: 3, v: 4 });
        assert_eq!(batch.get(2), Delta::NodeInsert { node: 9, weight: 2 });
        assert_eq!(batch.get(3), Delta::NodeDelete { node: 7 });
        assert!(!batch.is_empty());
        assert!(DeltaBatch::new().is_empty());
    }

    #[test]
    fn trace_text_round_trips() {
        let text = "\
# a comment
+e 0 1
+e 1 2 7
!
-e 0 1   # inline comment
+n 10 3
!
-n 2
";
        let batches = parse_delta_trace(text).unwrap();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 2);
        assert_eq!(batches[0].get(1), Delta::EdgeInsert { u: 1, v: 2, w: 7 });
        assert_eq!(
            batches[1].get(1),
            Delta::NodeInsert {
                node: 10,
                weight: 3
            }
        );
        assert_eq!(batches[2].get(0), Delta::NodeDelete { node: 2 });

        let formatted = format_delta_trace(&batches);
        let reparsed = parse_delta_trace(&formatted).unwrap();
        assert_eq!(reparsed.len(), batches.len());
        for (a, b) in reparsed.iter().zip(&batches) {
            assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_sections_are_dropped() {
        let batches = parse_delta_trace("!\n!\n+e 0 1\n!\n!\n").unwrap();
        assert_eq!(batches.len(), 1);
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        for bad in [
            "xx 1 2",
            "+e 1",
            "+e 1 1",
            "+e 1 2 0",
            "+e 1 2 3 4",
            "-n",
            "+n -3",
            "! extra",
        ] {
            let err = parse_delta_trace(bad).unwrap_err();
            assert!(matches!(err, GraphError::Parse(_)), "{bad:?} gave {err:?}");
            assert!(err.to_string().contains("line 1"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("oms-graph-test-delta");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.deltas");
        let mut batch = DeltaBatch::new();
        batch.insert_edge(0, 1, 1);
        batch.delete_node(5);
        write_delta_trace(&path, std::slice::from_ref(&batch)).unwrap();
        let read = read_delta_trace(&path).unwrap();
        assert_eq!(read.len(), 1);
        assert_eq!(
            read[0].iter().collect::<Vec<_>>(),
            batch.iter().collect::<Vec<_>>()
        );
        std::fs::remove_file(&path).ok();
    }
}
