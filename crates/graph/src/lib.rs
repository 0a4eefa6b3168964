//! # oms-graph
//!
//! Graph substrate for the OMS (Online Multi-Section) streaming partitioning
//! framework.
//!
//! This crate provides everything the streaming partitioners need to know
//! about graphs, while keeping the partitioning logic itself out:
//!
//! * [`CsrGraph`] — a compact, immutable, undirected graph in compressed
//!   sparse row form with node and edge weights.
//! * [`GraphBuilder`] — an edge-list accumulator that merges parallel
//!   edges (summing their weights), drops self loops and produces a
//!   [`CsrGraph`].
//! * [`NodeStream`] and its implementations — the *one-pass streaming model*
//!   used throughout the paper, and the crate's one stream model: nodes
//!   arrive one at a time together with their adjacency lists and must be
//!   assigned to blocks immediately. Vertex-cut (edge) partitioners read the
//!   same stream and take each edge at its smaller endpoint, so no source
//!   needs an edge format of its own.
//! * [`NodeBatch`] and [`NodeStream::for_each_batch`] — the bulk face of
//!   the same contract: sources fill reusable structure-of-arrays batches
//!   ([`io::DiskStream`] and [`io::MetisStream`] decode straight into their
//!   columns), and the buffered partitioner collects its buffer in one.
//! * [`SymmetryProof`] — the proof, filed entry by entry during a pass, that
//!   every edge is listed from both of its endpoints alike.
//! * Graph I/O — the METIS text format, plain edge lists and a compact
//!   binary *vertex-stream* format that can be streamed from disk.
//! * [`NodeOrdering`] — stream orders (natural, random, BFS, DFS, degree)
//!   used in streaming-order experiments.
//!
//! The crate is deliberately independent of any partitioning concept so that
//! generators, partitioners, mappers and metrics can all share it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod builder;
mod csr;
mod delta;
pub mod io;
mod ordering;
mod stream;
pub mod traversal;

pub use batch::NodeBatch;
pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use delta::{read_delta_trace, write_delta_trace, Delta, DeltaBatch};
pub use ordering::NodeOrdering;
pub use stream::{
    collect_graph, InMemoryStream, NodeStream, StreamedNode, SymmetryProof, DEFAULT_BATCH_SIZE,
};

/// Identifier of a node. Graphs in this project are laptop-scale (tens of
/// millions of nodes at most), so 32 bits are sufficient and halve the memory
/// traffic of the adjacency array compared to `usize`.
pub type NodeId = u32;

/// Weight of a node. The paper uses unit node weights, but the whole pipeline
/// is written for weighted nodes so that coarsened graphs (multilevel
/// baseline) can reuse it.
pub type NodeWeight = u64;

/// Weight of an edge.
pub type EdgeWeight = u64;

/// Errors produced when constructing or reading graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a node outside `0..n`.
    NodeOutOfRange {
        /// The offending node id.
        node: u64,
        /// Number of nodes in the graph.
        num_nodes: u64,
    },
    /// The input file or stream was malformed.
    Parse(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A structural invariant of the CSR representation was violated.
    Invalid(String),
    /// A vertex-stream file ended before all nodes announced by its header
    /// were read.
    Truncated {
        /// Number of nodes the header announced.
        expected_nodes: u64,
        /// Number of complete node records actually read.
        read_nodes: u64,
    },
    /// The body of a vertex-stream file contradicts its header counts.
    CountMismatch {
        /// Which count disagreed (e.g. `"edge entries"`).
        what: &'static str,
        /// Value implied by the header.
        expected: u64,
        /// Value actually found in the body.
        found: u64,
    },
    /// A node or edge weight outside the valid range of the format being
    /// read or written (zero, or larger than the format can represent).
    WeightOutOfRange {
        /// `"node"` or `"edge"`.
        what: &'static str,
        /// Node the weight belongs to (for edge weights, the node whose
        /// adjacency list carried the weight).
        node: u64,
        /// The offending weight value.
        value: u64,
        /// Largest weight the format can represent.
        max: u64,
    },
    /// A METIS text file was malformed; `line` is the 1-based line number
    /// of the offending input line (0 when the file ended prematurely).
    MetisParse {
        /// 1-based line number of the offending line.
        line: u64,
        /// What was wrong.
        msg: String,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of range for graph with {num_nodes} nodes"
                )
            }
            GraphError::Parse(msg) => write!(f, "parse error: {msg}"),
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Invalid(msg) => write!(f, "invalid graph: {msg}"),
            GraphError::Truncated {
                expected_nodes,
                read_nodes,
            } => write!(
                f,
                "truncated vertex stream: header announces {expected_nodes} nodes but the file ends after {read_nodes}"
            ),
            GraphError::CountMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "vertex stream count mismatch: header implies {expected} {what} but the body holds {found}"
            ),
            GraphError::WeightOutOfRange {
                what,
                node,
                value,
                max,
            } => write!(
                f,
                "invalid {what} weight {value} at node {node}: weights must be between 1 and {max}"
            ),
            GraphError::MetisParse { line, msg } => {
                if *line == 0 {
                    write!(f, "METIS parse error: {msg}")
                } else {
                    write!(f, "METIS parse error at line {line}: {msg}")
                }
            }
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
