//! Binary vertex-stream format.
//!
//! The paper converts every benchmark graph to a *vertex-stream* format so
//! that one-pass algorithms can consume it either from memory or directly
//! from disk with `O(Δ)` working memory. The layout is sectioned — one
//! fixed-stride section per field:
//!
//! ```text
//!   magic   : 8 bytes  "OMSSTRM3"
//!   n       : u64 LE   number of nodes
//!   m       : u64 LE   number of undirected edges
//!   c(V)    : u64 LE   total node weight (n when node weights are absent)
//!   flags   : u8       bit 0 = node weights present, bit 1 = edge weights
//!                      present, bits 2–7 zero
//!   pad     : 7 bytes  zero (header is 40 bytes, 8-byte aligned)
//!   sections, each starting 8-byte aligned (zero padding between):
//!     degrees      : n  × u32 LE
//!     [node weights: n  × u64 LE]   (if flag bit 0)
//!     neighbors    : 2m × u32 LE
//!     [edge weights: 2m × u64 LE]   (if flag bit 1)
//!   zero padding to the next 8-byte boundary (trailer alignment)
//! ```
//!
//! Each field is its own section instead of being interleaved per node, so
//! a pass fills [`NodeBatch`]'s structure-of-arrays columns by bulk byte
//! reads — one `read_exact` per column per batch. The columns are exactly
//! the sections; decode is a little-endian widening copy with no per-node
//! branching. `c(V)` lives in the header because streaming algorithms need
//! it up front to compute `L_max`.
//!
//! Weights are `u64` and default to 1 when their flag is clear. Zero
//! weights are invalid — reads and writes reject them with
//! [`GraphError::WeightOutOfRange`] instead of letting a weight-0 node
//! corrupt capacity math downstream. The interleaved `OMSSTRM1` /
//! `OMSSTRM2` layouts of earlier releases are refused by name; such a file
//! is re-imported from its METIS or edge-list source.
//!
//! [`DiskStream`] implements [`NodeStream`] on top of the format, so every
//! streaming partitioner in `oms-core` can run straight off disk.
//!
//! ## Working memory and hostile headers
//!
//! A pass holds one [`NodeBatch`] plus a fixed 64 KiB staging buffer, and a
//! batch closes at `batch_size` nodes or [`BATCH_ENTRY_BOUND`] adjacency
//! entries, so a pass runs in `O(batch)` memory whatever the degree
//! distribution — with the consumer's own `O(n)` state that is the
//! `O(n + batch)` contract of the CLI's one-pass jobs. The body is decoded
//! column-wise: each column of a batch is read from the file in chunks of at
//! most 64 KiB into the staging buffer, and each chunk is decoded into the
//! batch by a bulk little-endian copy as it lands.
//!
//! Nothing is sized from a count the file has not backed: the header's `n`
//! and `m` fix the length of the body, and [`DiskStream::open`] rejects a
//! file shorter than that. A degree field is checked against the `2m`
//! entries the header announces *before* the batch's adjacency is buffered.

use crate::batch::NodeBatch;
use crate::stream::{
    collect_graph, NodeStream, StreamedNode, BATCH_ENTRY_BOUND, DEFAULT_BATCH_SIZE,
};
use crate::{CsrGraph, GraphError, NodeId, NodeWeight, Result};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"OMSSTRM3";
/// Magic, `n`, `m`, `c(V)`, the flags byte and 7 bytes of zero padding.
const HEADER_LEN: u64 = 8 + 8 + 8 + 8 + 1 + 7;
const FLAG_NODE_WEIGHTS: u8 = 0b01;
const FLAG_EDGE_WEIGHTS: u8 = 0b10;
/// Section alignment.
const ALIGN: u64 = 8;

/// Byte layout of a stream file's body, derived from the header counts
/// alone: every offset is computable without touching the body, which is
/// what lets each column be read with one bulk cursor.
#[derive(Clone, Copy, Debug)]
struct BodyLayout {
    degree_bytes: u64,
    node_weights_off: u64,
    node_weight_bytes: u64,
    neighbors_off: u64,
    neighbor_bytes: u64,
    edge_weights_off: u64,
    edge_weight_bytes: u64,
    /// Header plus padded body; a snapshot trailer starts here.
    body_len: u64,
    /// Total zero padding between sections (excludes the header pad).
    padding: u64,
}

/// The layout `n` nodes and `m` edges imply, or `None` when it does not fit
/// `u64` — header counts come from the file, so every step is checked.
fn body_layout(n: u64, m: u64, flags: u8) -> Option<BodyLayout> {
    let align_up = |x: u64| Some(x.checked_add(ALIGN - 1)? / ALIGN * ALIGN);
    let entries = m.checked_mul(2)?;
    let degree_bytes = n.checked_mul(4)?;
    let node_weight_bytes = match flags & FLAG_NODE_WEIGHTS {
        0 => 0,
        _ => n.checked_mul(8)?,
    };
    let neighbor_bytes = entries.checked_mul(4)?;
    let edge_weight_bytes = match flags & FLAG_EDGE_WEIGHTS {
        0 => 0,
        _ => entries.checked_mul(8)?,
    };
    let node_weights_off = align_up(HEADER_LEN.checked_add(degree_bytes)?)?;
    let neighbors_off = node_weights_off.checked_add(node_weight_bytes)?;
    let edge_weights_off = align_up(neighbors_off.checked_add(neighbor_bytes)?)?;
    let body_len = edge_weights_off.checked_add(edge_weight_bytes)?;
    Some(BodyLayout {
        degree_bytes,
        node_weights_off,
        node_weight_bytes,
        neighbors_off,
        neighbor_bytes,
        edge_weights_off,
        edge_weight_bytes,
        body_len,
        padding: body_len
            - HEADER_LEN
            - degree_bytes
            - node_weight_bytes
            - neighbor_bytes
            - edge_weight_bytes,
    })
}

/// Reads the header of the file at `path` and checks its counts against
/// the file's length — the gate every reader passes before anything is
/// sized from `n` or `m`. Returns the header, the layout it implies and the
/// file's length.
///
/// Counts whose layout overflows `u64` are a [`GraphError::CountMismatch`];
/// a file shorter than the body they imply is [`GraphError::Truncated`]. A
/// file longer than its body passes (a snapshot trailer).
fn read_checked_header(path: &Path) -> Result<(Header, BodyLayout, u64)> {
    let mut file = File::open(path)?;
    let file_bytes = file.metadata()?.len();
    let header = read_header(&mut file)?;
    let (n, m) = (header.n as u64, header.m as u64);
    let layout = body_layout(n, m, header.flags).ok_or(GraphError::CountMismatch {
        what: "body bytes (the header's node and edge counts overflow u64)",
        expected: u64::MAX,
        found: file_bytes,
    })?;
    if file_bytes < layout.body_len {
        // Raised without decoding the body: the number of complete nodes is
        // estimated from the byte position where the file ends — always
        // strictly below `n`, matching the invariant of the read path's
        // `Truncated`.
        let payload = (layout.body_len - HEADER_LEN).max(1);
        let available = file_bytes.saturating_sub(HEADER_LEN).min(payload - 1);
        return Err(GraphError::Truncated {
            expected_nodes: n,
            read_nodes: (n as u128 * available as u128 / payload as u128) as u64,
        });
    }
    Ok((header, layout, file_bytes))
}

/// Options of [`write_stream_file_with`].
///
/// By default the writer emits weight sections only when some weight
/// differs from 1. The `force_*` flags emit the sections regardless — the
/// equivalence test-suite uses them to prove that a file with *explicit*
/// unit weights streams byte-identically to one with implicit unit weights.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamWriteOptions {
    /// Write the node-weight section even when all node weights are 1.
    pub force_node_weights: bool,
    /// Write the edge-weight section even when all edge weights are 1.
    pub force_edge_weights: bool,
}

/// Writes `graph` to `path` in the vertex-stream format.
pub fn write_stream_file<P: AsRef<Path>>(graph: &CsrGraph, path: P) -> Result<()> {
    write_stream_file_with(graph, path, StreamWriteOptions::default())
}

/// Writes `graph` to `path` in the vertex-stream format, with the weight
/// sections `options` asks for.
pub fn write_stream_file_with<P: AsRef<Path>>(
    graph: &CsrGraph,
    path: P,
    options: StreamWriteOptions,
) -> Result<()> {
    // Validate weights up front so a bad graph never leaves a half-written
    // file with a valid header behind.
    let zero_weight = |what, v: NodeId| GraphError::WeightOutOfRange {
        what,
        node: v as u64,
        value: 0,
        max: u64::MAX,
    };
    for v in graph.nodes() {
        if graph.node_weight(v) == 0 {
            return Err(zero_weight("node", v));
        }
        if graph.incident_edge_weights(v).contains(&0) {
            return Err(zero_weight("edge", v));
        }
    }

    let mut flags = 0u8;
    if options.force_node_weights || graph.node_weights().iter().any(|&x| x != 1) {
        flags |= FLAG_NODE_WEIGHTS;
    }
    if options.force_edge_weights || graph.edge_weights().iter().any(|&x| x != 1) {
        flags |= FLAG_EDGE_WEIGHTS;
    }
    let (n, m) = (graph.num_nodes() as u64, graph.num_edges() as u64);
    let layout = body_layout(n, m, flags).expect("an in-memory graph's layout fits u64");

    const PAD: [u8; 8] = [0u8; 8];
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&n.to_le_bytes())?;
    w.write_all(&m.to_le_bytes())?;
    w.write_all(&graph.total_node_weight().to_le_bytes())?;
    w.write_all(&[flags])?;
    w.write_all(&PAD[..7])?;
    for v in graph.nodes() {
        w.write_all(&(graph.neighbors(v).len() as u32).to_le_bytes())?;
    }
    let degrees_end = HEADER_LEN + layout.degree_bytes;
    w.write_all(&PAD[..(layout.node_weights_off - degrees_end) as usize])?;
    if flags & FLAG_NODE_WEIGHTS != 0 {
        for &nw in graph.node_weights() {
            w.write_all(&nw.to_le_bytes())?;
        }
    }
    for v in graph.nodes() {
        for &u in graph.neighbors(v) {
            w.write_all(&u.to_le_bytes())?;
        }
    }
    let neighbors_end = layout.neighbors_off + layout.neighbor_bytes;
    w.write_all(&PAD[..(layout.edge_weights_off - neighbors_end) as usize])?;
    if flags & FLAG_EDGE_WEIGHTS != 0 {
        for v in graph.nodes() {
            for &ew in graph.incident_edge_weights(v) {
                w.write_all(&ew.to_le_bytes())?;
            }
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads a whole vertex-stream file back into an in-memory [`CsrGraph`]:
/// [`collect_graph`] over a [`DiskStream`].
pub fn read_stream_file<P: AsRef<Path>>(path: P) -> Result<CsrGraph> {
    collect_graph(&mut DiskStream::open(path)?)
}

/// Per-section byte accounting of a vertex-stream file, as reported by
/// `oms info`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamFileInfo {
    /// Whether a node-weight section is present.
    pub has_node_weights: bool,
    /// Whether an edge-weight section is present.
    pub has_edge_weights: bool,
    /// Nodes announced by the header.
    pub num_nodes: u64,
    /// Undirected edges announced by the header.
    pub num_edges: u64,
    /// Header bytes (including the header padding).
    pub header_bytes: u64,
    /// Bytes of the degree section.
    pub degree_bytes: u64,
    /// Bytes spent on node weights.
    pub node_weight_bytes: u64,
    /// Bytes spent on adjacency entries.
    pub neighbor_bytes: u64,
    /// Bytes spent on edge weights.
    pub edge_weight_bytes: u64,
    /// Zero padding between sections.
    pub padding_bytes: u64,
    /// Header + body size implied by the header counts.
    pub body_bytes: u64,
    /// Bytes past the body — a snapshot trailer, if any.
    pub trailer_bytes: u64,
    /// Actual file size.
    pub file_bytes: u64,
}

/// Reads a vertex-stream file's header and reports its per-section byte
/// layout without decoding the body.
///
/// A file *shorter* than the body implied by the header counts is reported
/// as the same typed [`GraphError::Truncated`] [`DiskStream::open`] raises —
/// never as a zero-byte trailer.
pub fn stream_file_info<P: AsRef<Path>>(path: P) -> Result<StreamFileInfo> {
    let (header, layout, file_bytes) = read_checked_header(path.as_ref())?;
    Ok(StreamFileInfo {
        has_node_weights: header.flags & FLAG_NODE_WEIGHTS != 0,
        has_edge_weights: header.flags & FLAG_EDGE_WEIGHTS != 0,
        num_nodes: header.n as u64,
        num_edges: header.m as u64,
        header_bytes: HEADER_LEN,
        degree_bytes: layout.degree_bytes,
        node_weight_bytes: layout.node_weight_bytes,
        neighbor_bytes: layout.neighbor_bytes,
        edge_weight_bytes: layout.edge_weight_bytes,
        padding_bytes: layout.padding,
        body_bytes: layout.body_len,
        trailer_bytes: file_bytes - layout.body_len,
        file_bytes,
    })
}

/// A one-pass stream read from a vertex-stream file on disk.
///
/// Each pass re-opens the file, so restreaming algorithms can reuse the same
/// value. Ingest is synchronous: the pass decodes a batch on the caller's
/// thread, hands it to the consumer, and refills the same buffer.
///
/// Every pass validates the file body against the header: a file that ends
/// before all `n` announced nodes (it was cut after [`DiskStream::open`]
/// measured it) is a [`GraphError::Truncated`] error, a body whose
/// adjacency lists do not sum to `2m` entries is a
/// [`GraphError::CountMismatch`], a body whose node weights do not sum to
/// the header's `c(V)` is a [`GraphError::CountMismatch`] too, and a
/// neighbor id `≥ n` is a [`GraphError::NodeOutOfRange`] raised before the
/// batch holding it is handed on — a corrupt file never silently streams
/// wrong data. Zero weights anywhere in the body are a
/// [`GraphError::WeightOutOfRange`] error.
#[derive(Debug)]
pub struct DiskStream {
    path: PathBuf,
    num_nodes: usize,
    num_edges: usize,
    total_node_weight: NodeWeight,
    flags: u8,
    layout: BodyLayout,
}

/// The header of a vertex-stream file, as read from disk.
struct Header {
    n: usize,
    m: usize,
    total_node_weight: NodeWeight,
    flags: u8,
}

fn read_header<R: Read>(r: &mut R) -> Result<Header> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    match &magic {
        MAGIC => {}
        b"OMSSTRM1" | b"OMSSTRM2" => {
            return Err(GraphError::Parse(format!(
                "vertex-stream format v{} (interleaved) is no longer read: re-import the \
                 graph from its METIS or edge-list source with `oms convert`",
                magic[7] as char
            )))
        }
        _ => return Err(GraphError::Parse("not an OMS vertex-stream file".into())),
    }
    let mut fields = [0u8; HEADER_LEN as usize - 8];
    r.read_exact(&mut fields)?;
    let word = |i: usize| u64::from_le_bytes(fields[8 * i..8 * i + 8].try_into().unwrap());
    let (n, m, total_node_weight) = (word(0) as usize, word(1) as usize, word(2));
    let (flags, pad) = (fields[24], &fields[25..]);
    // The unassigned bits are the only room for a future layout change: a
    // reader that ignored them would silently misread such a file.
    if flags & !(FLAG_NODE_WEIGHTS | FLAG_EDGE_WEIGHTS) != 0 {
        return Err(GraphError::Parse(format!(
            "unknown header flag bits {flags:#04x} (written by a newer version, or corrupt)"
        )));
    }
    // The sections are 8-byte aligned; non-zero header padding means the
    // layout math would read misaligned garbage.
    if pad != [0u8; 7] {
        return Err(GraphError::Parse(
            "header padding is not zero (misaligned or corrupt file)".into(),
        ));
    }
    // A header claiming unit weights must state c(V) = n.
    if flags & FLAG_NODE_WEIGHTS == 0 && total_node_weight != n as u64 {
        return Err(GraphError::CountMismatch {
            what: "header total node weight (unit weights imply n)",
            expected: n as u64,
            found: total_node_weight,
        });
    }
    Ok(Header {
        n,
        m,
        total_node_weight,
        flags,
    })
}

impl DiskStream {
    /// Opens a vertex-stream file and reads its header.
    ///
    /// The header's counts are checked against the file's length, so
    /// `num_nodes`/`num_edges` are safe to size buffers from.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let (header, layout, _) = read_checked_header(&path)?;
        Ok(DiskStream {
            path,
            num_nodes: header.n,
            num_edges: header.m,
            total_node_weight: header.total_node_weight,
            flags: header.flags,
            layout,
        })
    }

    /// Path of the underlying file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Re-reads the file header and checks it against the counts this
    /// stream was opened with — the same check [`NodeStream::reset`] runs
    /// between restreaming passes, where a file swapped or rewritten
    /// *between* passes would otherwise silently change the data under a
    /// restreaming run.
    ///
    /// The [snapshot layer](crate::io::snapshot) calls this before touching
    /// the trailer section, so a stream file that was truncated or swapped
    /// between a warm resume and the next delta ingest surfaces as a typed
    /// [`GraphError`] instead of silently reading a different graph.
    pub(crate) fn revalidate(&self) -> Result<()> {
        let (header, _, _) = read_checked_header(&self.path)?;
        if header.n != self.num_nodes {
            return Err(GraphError::CountMismatch {
                what: "header nodes after rewind",
                expected: self.num_nodes as u64,
                found: header.n as u64,
            });
        }
        if header.m != self.num_edges {
            return Err(GraphError::CountMismatch {
                what: "header edges after rewind",
                expected: self.num_edges as u64,
                found: header.m as u64,
            });
        }
        if header.total_node_weight != self.total_node_weight {
            return Err(GraphError::CountMismatch {
                what: "header total node weight after rewind",
                expected: self.total_node_weight,
                found: header.total_node_weight,
            });
        }
        if header.flags != self.flags {
            return Err(GraphError::Parse(
                "vertex-stream flags changed between passes".into(),
            ));
        }
        Ok(())
    }
}

/// Maps an early EOF in the batch starting at node `read_nodes` to the
/// typed truncation error.
fn truncated_at(e: std::io::Error, expected_nodes: u64, read_nodes: u64) -> GraphError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        GraphError::Truncated {
            expected_nodes,
            read_nodes,
        }
    } else {
        GraphError::Io(e)
    }
}

/// Rejects a decoded neighbor column holding an id outside `0..num_nodes`:
/// consumers index their `O(n)` state with these ids. The common case is one
/// branch-free max-scan; the first offender is located on the error path
/// only, so the error does not depend on where batches close.
fn check_neighbor_range(neighbors: &[NodeId], num_nodes: usize) -> Result<()> {
    let in_range = |u: NodeId| (u as usize) < num_nodes;
    if neighbors.iter().copied().max().is_none_or(in_range) {
        return Ok(());
    }
    let first = neighbors.iter().copied().find(|&u| !in_range(u));
    Err(GraphError::NodeOutOfRange {
        node: first.expect("the column's maximum is out of range") as u64,
        num_nodes: num_nodes as u64,
    })
}

/// Bytes of the one staging buffer a pass reads every column through: a
/// multiple of both value widths, so no value straddles two reads.
const STAGING_BYTES: usize = 1 << 16;

/// The decode state of one pass: one independent sequential cursor per
/// section. Decode is a little-endian widening copy into the batch's SoA
/// columns — no per-node field dispatch, no per-value reads.
///
/// Every column is read through one fixed [`STAGING_BYTES`] buffer, in
/// chunks of at most its size, and decoded chunk by chunk into the batch:
/// the bytes of a batch are never held whole beside its decoded columns. The
/// degrees cursor is buffered as well, because a batch that closes on the
/// entry bound hands its unused degrees back with a seek inside that buffer.
struct SectionedReader {
    degrees: BufReader<File>,
    node_weights: Option<File>,
    neighbors: File,
    edge_weights: Option<File>,
    expected_nodes: usize,
    expected_edge_entries: u64,
    /// `c(V)` announced by the header; validated against the body sum.
    expected_total_weight: NodeWeight,
    next_node: usize,
    edge_entries: u64,
    weight_sum: NodeWeight,
    staging: Vec<u8>,
    scratch_degrees: Vec<u32>,
}

/// Appends the little-endian `u32`s in `bytes` to `dst` (bulk decode; the
/// compiler vectorises this into a straight copy).
fn decode_u32s(bytes: &[u8], dst: &mut Vec<u32>) {
    debug_assert_eq!(bytes.len() % 4, 0);
    dst.extend(
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
    );
}

/// Appends the little-endian `u64`s in `bytes` to `dst`.
fn decode_u64s(bytes: &[u8], dst: &mut Vec<u64>) {
    debug_assert_eq!(bytes.len() % 8, 0);
    dst.extend(
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
    );
}

impl SectionedReader {
    fn open(stream: &DiskStream) -> Result<Self> {
        let layout = &stream.layout;
        let cursor = |off: u64| -> Result<File> {
            let mut f = File::open(&stream.path)?;
            f.seek(SeekFrom::Start(off))?;
            Ok(f)
        };
        let has_nw = stream.flags & FLAG_NODE_WEIGHTS != 0;
        let has_ew = stream.flags & FLAG_EDGE_WEIGHTS != 0;
        Ok(SectionedReader {
            degrees: BufReader::with_capacity(1 << 16, cursor(HEADER_LEN)?),
            node_weights: if has_nw {
                Some(cursor(layout.node_weights_off)?)
            } else {
                None
            },
            neighbors: cursor(layout.neighbors_off)?,
            edge_weights: if has_ew {
                Some(cursor(layout.edge_weights_off)?)
            } else {
                None
            },
            expected_nodes: stream.num_nodes,
            // Each undirected edge appears in both endpoints' lists.
            expected_edge_entries: 2 * stream.num_edges as u64,
            expected_total_weight: stream.total_node_weight,
            next_node: 0,
            edge_entries: 0,
            weight_sum: 0,
            staging: vec![0; STAGING_BYTES],
            scratch_degrees: Vec::new(),
        })
    }

    /// Reads exactly `len` bytes from `reader` through `staging`, handing
    /// each chunk of at most `staging.len()` bytes to `decode` as it lands.
    fn read_column(
        reader: &mut impl Read,
        staging: &mut [u8],
        len: usize,
        mut decode: impl FnMut(&[u8]),
    ) -> std::io::Result<()> {
        let mut left = len;
        while left > 0 {
            let size = left.min(staging.len());
            let chunk = &mut staging[..size];
            reader.read_exact(chunk)?;
            decode(chunk);
            left -= chunk.len();
        }
        Ok(())
    }

    /// Clears `batch` and refills it with decoded nodes until it holds
    /// `max_nodes` nodes or [`BATCH_ENTRY_BOUND`] adjacency entries. Returns
    /// `true` while more nodes remain after this batch.
    fn fill(&mut self, batch: &mut NodeBatch, max_nodes: usize) -> Result<bool> {
        batch.clear();
        let (expected_nodes, first) = (self.expected_nodes as u64, self.next_node as u64);
        let truncated = |e: std::io::Error| truncated_at(e, expected_nodes, first);
        let max_nodes = max_nodes.max(1);
        let wanted = max_nodes.min(self.expected_nodes - self.next_node);
        if wanted > 0 {
            // Degrees column → ids + CSR offsets. The batch takes degrees
            // until it reaches the entry bound; the rest go back to the
            // cursor (a seek within its buffer).
            self.scratch_degrees.clear();
            let degrees = &mut self.scratch_degrees;
            Self::read_column(&mut self.degrees, &mut self.staging, 4 * wanted, |bytes| {
                decode_u32s(bytes, degrees)
            })
            .map_err(truncated)?;
            let (mut count, mut batch_entries) = (0, 0u64);
            while count < wanted && batch_entries < BATCH_ENTRY_BOUND as u64 {
                batch_entries += self.scratch_degrees[count] as u64;
                count += 1;
            }
            self.scratch_degrees.truncate(count);
            self.degrees.seek_relative(-4 * (wanted - count) as i64)?;
            let total_entries = self.edge_entries.saturating_add(batch_entries);
            if total_entries > self.expected_edge_entries {
                // An oversized degree would walk the neighbor cursor into
                // padding or a later section, and sizes the read below:
                // stop on the degrees column before anything is buffered.
                return Err(GraphError::CountMismatch {
                    what: "edge entries",
                    expected: self.expected_edge_entries,
                    found: total_entries,
                });
            }
            batch.extend_ids_sequential(self.next_node as NodeId, count);
            batch.extend_offsets_from_degrees(&self.scratch_degrees);
            batch.reserve_entries_exact(batch_entries as usize);

            // Node-weight column.
            if let Some(reader) = self.node_weights.as_mut() {
                let weights = batch.weights_vec_mut();
                Self::read_column(reader, &mut self.staging, 8 * count, |bytes| {
                    decode_u64s(bytes, weights)
                })
                .map_err(truncated)?;
                let weights = &batch.weights_vec_mut()[..];
                let mut sum = self.weight_sum;
                for (i, &w) in weights.iter().enumerate() {
                    if w == 0 {
                        return Err(GraphError::WeightOutOfRange {
                            what: "node",
                            node: (self.next_node + i) as u64,
                            value: 0,
                            max: u64::MAX,
                        });
                    }
                    // An adversarial file can hold weights that individually
                    // fit u64 but overflow the running total; that must be a
                    // typed error, not a debug-build panic / release-build
                    // wraparound that could collide with a crafted header
                    // total.
                    sum = sum.checked_add(w).ok_or_else(|| {
                        GraphError::Parse(format!(
                            "total node weight overflows u64 at node {}",
                            self.next_node + i
                        ))
                    })?;
                }
                self.weight_sum = sum;
            } else {
                batch.extend_unit_weights(count);
                self.weight_sum += count as u64;
            }

            // Neighbor column.
            let batch_entries = batch_entries as usize;
            let neighbors = batch.neighbors_vec_mut();
            Self::read_column(
                &mut self.neighbors,
                &mut self.staging,
                4 * batch_entries,
                |bytes| decode_u32s(bytes, neighbors),
            )
            .map_err(truncated)?;
            check_neighbor_range(batch.neighbors_vec_mut(), self.expected_nodes)?;

            // Edge-weight column.
            if let Some(reader) = self.edge_weights.as_mut() {
                let edge_weights = batch.edge_weights_vec_mut();
                Self::read_column(reader, &mut self.staging, 8 * batch_entries, |bytes| {
                    decode_u64s(bytes, edge_weights)
                })
                .map_err(truncated)?;
                let ews = &batch.edge_weights_vec_mut()[..];
                if let Some(j) = ews.iter().position(|&w| w == 0) {
                    // Walk the degree prefix sums only on the error path to
                    // name the owning node in the typed error.
                    let mut node = self.next_node;
                    let mut end = 0usize;
                    for &d in &self.scratch_degrees {
                        end += d as usize;
                        if j < end {
                            break;
                        }
                        node += 1;
                    }
                    return Err(GraphError::WeightOutOfRange {
                        what: "edge",
                        node: node as u64,
                        value: 0,
                        max: u64::MAX,
                    });
                }
            } else {
                batch.unit_fill_edge_weights();
            }
            batch.debug_validate();
            self.edge_entries = total_entries;
            self.next_node += count;
        }
        let more = self.next_node < self.expected_nodes;
        if !more {
            if self.edge_entries != self.expected_edge_entries {
                return Err(GraphError::CountMismatch {
                    what: "edge entries",
                    expected: self.expected_edge_entries,
                    found: self.edge_entries,
                });
            }
            if self.node_weights.is_some() && self.weight_sum != self.expected_total_weight {
                return Err(GraphError::CountMismatch {
                    what: "total node weight",
                    expected: self.expected_total_weight,
                    found: self.weight_sum,
                });
            }
        }
        Ok(more)
    }
}

impl NodeStream for DiskStream {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn total_node_weight(&self) -> NodeWeight {
        self.total_node_weight
    }

    fn reset(&mut self) -> Result<()> {
        self.revalidate()
    }

    fn for_each_node(&mut self, f: &mut dyn FnMut(StreamedNode<'_>)) -> Result<()> {
        self.for_each_batch(DEFAULT_BATCH_SIZE, &mut |batch| {
            for node in batch.iter() {
                f(node);
            }
        })
    }

    fn for_each_batch(&mut self, batch_size: usize, f: &mut dyn FnMut(&NodeBatch)) -> Result<()> {
        let batch_size = batch_size.max(1);
        let mut reader = SectionedReader::open(self)?;
        let mut batch = NodeBatch::new();
        loop {
            let more = reader.fill(&mut batch, batch_size)?;
            if !batch.is_empty() {
                f(&batch);
            }
            if !more {
                return Ok(());
            }
        }
    }
}

pub(crate) fn read_u64<R: Read>(r: &mut R) -> Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

pub(crate) fn read_u32<R: Read>(r: &mut R) -> Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeWeight, GraphBuilder};

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("oms-graph-test-stream");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn weighted_sample() -> CsrGraph {
        let mut b = GraphBuilder::new(4);
        b.set_node_weight(0, 3).unwrap();
        b.set_node_weight(3, 7).unwrap();
        b.add_weighted_edge(0, 1, 2).unwrap();
        b.add_weighted_edge(1, 2, 5).unwrap();
        b.add_weighted_edge(2, 3, 1).unwrap();
        b.build()
    }

    /// Writes `graph` to a fresh file and returns its path and bytes, for
    /// the tests that tamper with them.
    fn written(name: &str, graph: &CsrGraph) -> (PathBuf, Vec<u8>) {
        let path = temp_path(name);
        write_stream_file(graph, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    /// A bare header announcing `n` nodes and `m` edges, unit weights.
    fn raw_header(n: u64, m: u64) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for word in [n, m, n, 0] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn roundtrip_unweighted() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        let path = temp_path("unweighted.oms");
        write_stream_file(&g, &path).unwrap();
        let back = read_stream_file(&path).unwrap();
        assert_eq!(g, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_weighted() {
        let g = weighted_sample();
        let path = temp_path("weighted.oms");
        write_stream_file(&g, &path).unwrap();
        let back = read_stream_file(&path).unwrap();
        assert_eq!(g, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weights_beyond_u32_round_trip_losslessly() {
        let mut b = GraphBuilder::new(2);
        b.set_node_weight(0, u32::MAX as u64 + 1).unwrap();
        b.add_weighted_edge(0, 1, u32::MAX as u64 + 2).unwrap();
        let g = b.build();
        let path = temp_path("wide-weights.oms");
        write_stream_file(&g, &path).unwrap();
        assert_eq!(read_stream_file(&path).unwrap(), g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn forced_weight_sections_stream_identically() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let plain = temp_path("forced-plain.oms");
        let forced = temp_path("forced-explicit.oms");
        write_stream_file(&g, &plain).unwrap();
        write_stream_file_with(
            &g,
            &forced,
            StreamWriteOptions {
                force_node_weights: true,
                force_edge_weights: true,
            },
        )
        .unwrap();
        let collect = |path: &Path| {
            let mut seen: Vec<(NodeId, NodeWeight, Vec<NodeId>, Vec<EdgeWeight>)> = Vec::new();
            DiskStream::open(path)
                .unwrap()
                .for_each_node(&mut |n| {
                    seen.push((
                        n.node,
                        n.weight,
                        n.neighbors.to_vec(),
                        n.edge_weights.to_vec(),
                    ));
                })
                .unwrap();
            seen
        };
        assert_eq!(collect(&plain), collect(&forced));
        std::fs::remove_file(&plain).ok();
        std::fs::remove_file(&forced).ok();
    }

    #[test]
    fn header_total_weight_mismatch_is_a_typed_error() {
        let (path, mut bytes) = written("total-mismatch.oms", &weighted_sample());
        // Corrupt the header total (bytes 24..32).
        bytes[24..32].copy_from_slice(&99u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        assert_eq!(stream.total_node_weight(), 99);
        match stream.for_each_node(&mut |_| {}).unwrap_err() {
            GraphError::CountMismatch {
                what,
                expected,
                found,
            } => {
                assert_eq!(what, "total node weight");
                assert_eq!(expected, 99);
                assert_eq!(found, 12);
            }
            other => panic!("expected CountMismatch, got: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unit_weight_header_total_must_equal_n() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let (path, mut bytes) = written("unit-total.oms", &g);
        bytes[24..32].copy_from_slice(&17u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match DiskStream::open(&path).unwrap_err() {
            GraphError::CountMismatch {
                expected, found, ..
            } => {
                assert_eq!(expected, 4);
                assert_eq!(found, 17);
            }
            other => panic!("expected CountMismatch, got: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_weight_in_body_is_a_typed_error() {
        let (path, bytes) = written("zero-weight.oms", &weighted_sample());
        let info = stream_file_info(&path).unwrap();
        // The node-weight section follows the padded degrees section; the
        // edge-weight section closes the body. Node 1 owns entries 1 and 2.
        let node_weights = (info.header_bytes + info.degree_bytes).div_ceil(8) * 8;
        let edge_weights = info.body_bytes - info.edge_weight_bytes;
        for (what, offset, owner) in [("node", node_weights, 0), ("edge", edge_weights + 2 * 8, 1)]
        {
            let mut bytes = bytes.clone();
            bytes[offset as usize..offset as usize + 8].copy_from_slice(&0u64.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let mut stream = DiskStream::open(&path).unwrap();
            match stream.for_each_node(&mut |_| {}).unwrap_err() {
                GraphError::WeightOutOfRange {
                    what: found,
                    node,
                    value,
                    ..
                } => assert_eq!((found, node, value), (what, owner, 0)),
                other => panic!("{what}: expected WeightOutOfRange, got: {other}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overflowing_weight_total_is_a_typed_error_not_a_panic() {
        // Two node weights of 2^63 each fit u64 individually but overflow
        // the running total; the reader must return a typed error.
        let mut b = GraphBuilder::new(2);
        b.set_node_weight(0, 2).unwrap();
        b.set_node_weight(1, 3).unwrap();
        b.add_edge(0, 1).unwrap();
        let (path, mut bytes) = written("overflow-total.oms", &b.build());
        let half = 1u64 << 63;
        // The 40-byte header and the two degrees end 8-byte aligned at 48,
        // where the node-weight section starts.
        bytes[48..56].copy_from_slice(&half.to_le_bytes());
        bytes[56..64].copy_from_slice(&half.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        match stream.for_each_node(&mut |_| {}).unwrap_err() {
            GraphError::Parse(msg) => assert!(msg.contains("overflow"), "{msg}"),
            other => panic!("expected a typed overflow error, got: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_weight_graph_is_rejected_at_write_time() {
        // A hand-built graph with a zero edge weight must not produce a file.
        let g = CsrGraph::from_csr_unchecked(vec![0, 1, 2], vec![1, 0], vec![0, 0], vec![1, 1]);
        let path = temp_path("zero-write.oms");
        std::fs::remove_file(&path).ok();
        match write_stream_file(&g, &path).unwrap_err() {
            GraphError::WeightOutOfRange { what, value, .. } => {
                assert_eq!(what, "edge");
                assert_eq!(value, 0);
            }
            other => panic!("expected WeightOutOfRange, got: {other}"),
        }
        assert!(!path.exists(), "no half-written file may remain");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_stream_header_and_counts() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let path = temp_path("header.oms");
        write_stream_file(&g, &path).unwrap();
        let stream = DiskStream::open(&path).unwrap();
        assert_eq!(stream.num_nodes(), 5);
        assert_eq!(stream.num_edges(), 4);
        assert_eq!(stream.total_node_weight(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_stream_total_weight_with_node_weights() {
        let mut b = GraphBuilder::new(3);
        b.set_node_weight(0, 10).unwrap();
        b.set_node_weight(1, 20).unwrap();
        b.add_edge(0, 1).unwrap();
        let path = temp_path("weights.oms");
        write_stream_file(&b.build(), &path).unwrap();
        let stream = DiskStream::open(&path).unwrap();
        assert_eq!(stream.total_node_weight(), 31);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_stream_can_be_streamed_twice() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let path = temp_path("twice.oms");
        write_stream_file(&g, &path).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        let mut first = Vec::new();
        stream.for_each_node(&mut |n| first.push(n.node)).unwrap();
        let mut second = Vec::new();
        stream.for_each_node(&mut |n| second.push(n.node)).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, vec![0, 1, 2, 3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_magic_is_rejected() {
        let path = temp_path("garbage.oms");
        std::fs::write(&path, b"NOTAGRAPHFILE....").unwrap();
        assert!(DiskStream::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// A header-only file carrying the magic of interleaved layout `version`.
    fn legacy_file(version: u8) -> Vec<u8> {
        let mut bytes = raw_header(0, 0);
        bytes[7] = b'0' + version;
        bytes
    }

    #[test]
    fn legacy_magics_are_refused_by_name() {
        for version in [1, 2] {
            let path = temp_path(&format!("legacy-v{version}.oms"));
            std::fs::write(&path, legacy_file(version)).unwrap();
            for result in [
                DiskStream::open(&path).map(|_| ()),
                stream_file_info(&path).map(|_| ()),
                read_stream_file(&path).map(|_| ()),
            ] {
                match result.unwrap_err() {
                    GraphError::Parse(msg) => {
                        assert!(msg.contains(&format!("format v{version}")), "{msg}");
                        assert!(msg.contains("oms convert"), "{msg}");
                    }
                    other => panic!("v{version}: expected Parse, got: {other}"),
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn unknown_header_flag_bits_are_rejected() {
        // Regression: bits 2–7 of the flags byte were never looked at, so a
        // file flagged `0x84` partitioned as a plain unweighted one.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let (path, mut bytes) = written("flag-bits.oms", &g);
        for flags in [0x04u8, 0x80, 0x84, 0xFF] {
            bytes[32] = flags;
            std::fs::write(&path, &bytes).unwrap();
            for result in [
                DiskStream::open(&path).map(|_| ()),
                stream_file_info(&path).map(|_| ()),
            ] {
                match result.unwrap_err() {
                    GraphError::Parse(msg) => assert!(msg.contains("flag bits"), "{msg}"),
                    other => panic!("{flags:#x}: expected Parse, got: {other}"),
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_batches_match_per_node_pass() {
        let g = weighted_sample();
        let path = temp_path("batches.oms");
        write_stream_file(&g, &path).unwrap();
        let mut reference = Vec::new();
        let mut stream = DiskStream::open(&path).unwrap();
        stream
            .for_each_node(&mut |n| {
                reference.push((
                    n.node,
                    n.weight,
                    n.neighbors.to_vec(),
                    n.edge_weights.to_vec(),
                ))
            })
            .unwrap();
        assert_eq!(reference.len(), 4);
        for batch_size in [1, 2, 3, 100] {
            let mut seen = Vec::new();
            stream
                .for_each_batch(batch_size, &mut |batch| {
                    for n in batch.iter() {
                        seen.push((
                            n.node,
                            n.weight,
                            n.neighbors.to_vec(),
                            n.edge_weights.to_vec(),
                        ));
                    }
                })
                .unwrap();
            assert_eq!(seen, reference, "batch={batch_size}");
        }
        std::fs::remove_file(&path).ok();
    }

    fn expect_truncated(err: GraphError) -> (u64, u64) {
        match err {
            GraphError::Truncated {
                expected_nodes,
                read_nodes,
            } => (expected_nodes, read_nodes),
            other => panic!("expected Truncated, got: {other}"),
        }
    }

    #[test]
    fn truncated_file_is_a_typed_error_at_open() {
        // The header fixes the body's length, so a short file is refused
        // before a pass starts — by `open` and `stream_file_info` alike,
        // never reported as a zero-byte trailer.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let (path, bytes) = written("truncated.oms", &g);
        assert_eq!(stream_file_info(&path).unwrap().trailer_bytes, 0);
        for cut in [1, 6, 10, bytes.len() - 40] {
            std::fs::write(&path, &bytes[..bytes.len() - cut]).unwrap();
            for result in [
                DiskStream::open(&path).map(|_| ()),
                stream_file_info(&path).map(|_| ()),
                read_stream_file(&path).map(|_| ()),
            ] {
                let (expected_nodes, read_nodes) = expect_truncated(result.unwrap_err());
                assert_eq!(expected_nodes, 6, "cut {cut}");
                assert!(read_nodes < 6, "cut {cut}: read {read_nodes} of 6");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_after_open_fails_every_pass_identically() {
        // Regression: after a pass died on a truncated file, streaming
        // again must fail with the *same* typed error from the top of the
        // file — never resume mid-file or stream short. `open` refuses a
        // short file, so the cut happens under an open stream; a rewind
        // then refuses it too.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let (path, bytes) = written("truncated-rewind.oms", &g);
        let mut stream = DiskStream::open(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();
        let mut count_first = 0usize;
        let first = expect_truncated(stream.for_each_node(&mut |_| count_first += 1).unwrap_err());
        assert_eq!(expect_truncated(stream.reset().unwrap_err()).0, 6);
        let mut count_second = 0usize;
        let second = expect_truncated(
            stream
                .for_each_node(&mut |_| count_second += 1)
                .unwrap_err(),
        );
        assert_eq!(first, second, "second pass must restart from the top");
        assert_eq!(
            count_first, count_second,
            "second pass must deliver the same (truncated) prefix, not resume mid-file"
        );
        assert!(count_second < 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rewind_after_count_mismatch_fails_identically() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let (path, mut bytes) = written("mismatch-rewind.oms", &g);
        bytes[16..24].copy_from_slice(&2u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        let as_mismatch = |err: GraphError| match err {
            GraphError::CountMismatch {
                what,
                expected,
                found,
            } => (what, expected, found),
            other => panic!("expected CountMismatch, got: {other}"),
        };
        let first = as_mismatch(stream.for_each_node(&mut |_| {}).unwrap_err());
        stream.reset().unwrap();
        let second = as_mismatch(stream.for_each_node(&mut |_| {}).unwrap_err());
        assert_eq!(first, second);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_detects_a_file_swapped_between_passes() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let path = temp_path("swapped.oms");
        write_stream_file(&g, &path).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        stream.for_each_node(&mut |_| {}).unwrap();
        // Swap in a file with a different node count under the same path.
        let other = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        write_stream_file(&other, &path).unwrap();
        match stream.reset().unwrap_err() {
            GraphError::CountMismatch {
                what,
                expected,
                found,
            } => {
                assert_eq!(what, "header nodes after rewind");
                assert_eq!(expected, 5);
                assert_eq!(found, 3);
            }
            other => panic!("expected CountMismatch, got: {other}"),
        }
        // A deleted file is an I/O error, not a silent empty pass.
        std::fs::remove_file(&path).unwrap();
        assert!(stream.reset().is_err());
    }

    #[test]
    fn reset_detects_a_version_swap_between_passes() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let path = temp_path("version-swap.oms");
        write_stream_file(&g, &path).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        stream.for_each_node(&mut |_| {}).unwrap();
        std::fs::write(&path, legacy_file(2)).unwrap();
        match stream.reset().unwrap_err() {
            GraphError::Parse(msg) => assert!(msg.contains("format v2"), "{msg}"),
            other => panic!("expected Parse, got: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_on_an_intact_file_allows_further_passes() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let path = temp_path("reset-ok.oms");
        write_stream_file(&g, &path).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        let mut first = Vec::new();
        stream.for_each_node(&mut |n| first.push(n.node)).unwrap();
        stream.reset().unwrap();
        let mut second = Vec::new();
        stream.for_each_node(&mut |n| second.push(n.node)).unwrap();
        assert_eq!(first, second);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nonzero_header_padding_is_a_typed_error() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let (path, mut bytes) = written("misaligned.oms", &g);
        // Byte 33 is the first of the 7 header padding bytes.
        bytes[33] = 1;
        std::fs::write(&path, &bytes).unwrap();
        match DiskStream::open(&path).unwrap_err() {
            GraphError::Parse(msg) => assert!(msg.contains("padding"), "{msg}"),
            other => panic!("expected Parse, got: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_info_reports_sections() {
        let g = weighted_sample();
        let path = temp_path("info.oms");
        write_stream_file(&g, &path).unwrap();
        let info = stream_file_info(&path).unwrap();
        assert!(info.has_node_weights && info.has_edge_weights);
        assert_eq!(info.num_nodes, 4);
        assert_eq!(info.num_edges, 3);
        assert_eq!(info.header_bytes, 40);
        assert_eq!(info.degree_bytes, 16);
        assert_eq!(info.node_weight_bytes, 32);
        assert_eq!(info.neighbor_bytes, 24);
        assert_eq!(info.edge_weight_bytes, 48);
        assert_eq!(info.body_bytes, info.file_bytes);
        assert_eq!(info.trailer_bytes, 0);
        assert_eq!(
            info.header_bytes
                + info.degree_bytes
                + info.node_weight_bytes
                + info.neighbor_bytes
                + info.edge_weight_bytes
                + info.padding_bytes,
            info.body_bytes
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_degree_field_is_rejected_before_anything_is_buffered() {
        // Regression: a file whose first degree field is 0xFFFF_FFFF made
        // the reader reserve 16 GiB before looking at it. Header, one
        // degree (padded to 48) and the two neighbor ids the header
        // announces.
        let mut bytes = raw_header(1, 1);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.resize(56, 0);
        let path = temp_path("degree-bomb.oms");
        std::fs::write(&path, &bytes).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        match stream.for_each_node(&mut |_| {}).unwrap_err() {
            GraphError::CountMismatch {
                what,
                expected,
                found,
            } => {
                assert_eq!(what, "edge entries");
                assert_eq!(expected, 2);
                assert_eq!(found, u32::MAX as u64);
            }
            other => panic!("expected CountMismatch, got: {other}"),
        }
        assert!(read_stream_file(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn neighbor_id_beyond_n_is_a_typed_error_before_the_batch_is_handed_on() {
        // Regression: the reader did not range-check neighbor ids, so a
        // file with one id ≥ n panicked every consumer that indexes its
        // per-node state with them (n = 2, m = 1, one neighbor 7).
        for bad_node in [0u32, 1] {
            let neighbors = if bad_node == 0 { [7, 0] } else { [1, 7] };
            let mut bytes = raw_header(2, 1);
            bytes.extend([1, 1].iter().flat_map(|w: &u32| w.to_le_bytes()));
            bytes.extend(neighbors.iter().flat_map(|w: &u32| w.to_le_bytes()));
            let path = temp_path(&format!("range-{bad_node}.oms"));
            std::fs::write(&path, &bytes).unwrap();
            for batch_size in [1, 4096] {
                let mut stream = DiskStream::open(&path).unwrap();
                let mut delivered = 0;
                let err = stream
                    .for_each_batch(batch_size, &mut |batch| delivered += batch.len())
                    .unwrap_err();
                match err {
                    GraphError::NodeOutOfRange { node, num_nodes } => {
                        assert_eq!((node, num_nodes), (7, 2))
                    }
                    other => panic!("expected NodeOutOfRange, got: {other}"),
                }
                // Only batches that close before the bad record arrive.
                let clean_prefix = if batch_size == 1 { bad_node } else { 0 };
                assert_eq!(delivered, clean_prefix as usize);
            }
            assert!(matches!(
                read_stream_file(&path).unwrap_err(),
                GraphError::NodeOutOfRange { node: 7, .. }
            ));
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn header_counts_the_file_cannot_hold_are_rejected_at_open() {
        // Regression: `n = 2^60` reached `Vec::with_capacity(n + 1)` (a
        // capacity-overflow panic); consumers size their state from the
        // header, so `open` must refuse counts the file cannot back.
        let huge = 1u64 << 60;
        for (case, n, m) in [
            ("huge n", huge, 0),
            ("huge m", 4, huge),
            ("overflowing n", u64::MAX / 2, 0),
            ("overflowing m", 4, u64::MAX / 2),
            ("4n > file", 64, 0),
            ("8m > file", 4, 32),
            ("one edge more than the body holds", 4, 11),
        ] {
            // Header plus 100 body bytes: room for 4 nodes and 10 edges.
            let mut bytes = raw_header(n, m);
            bytes.resize(bytes.len() + 100, 0);
            let path = temp_path("header-bomb.oms");
            std::fs::write(&path, &bytes).unwrap();
            for result in [
                DiskStream::open(&path).map(|_| ()),
                stream_file_info(&path).map(|_| ()),
                read_stream_file(&path).map(|_| ()),
            ] {
                match result.unwrap_err() {
                    GraphError::Truncated {
                        expected_nodes,
                        read_nodes,
                    } => {
                        assert_eq!(expected_nodes, n, "{case}");
                        assert!(read_nodes < n, "{case}");
                    }
                    GraphError::CountMismatch { .. } => {
                        assert!(case.starts_with("overflowing"), "{case}")
                    }
                    other => panic!("{case}: unexpected error: {other}"),
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn a_file_longer_than_its_body_still_opens() {
        // A snapshot trailer makes the file longer than the header's counts
        // imply; only too-short files are refused.
        let g = weighted_sample();
        let (path, mut bytes) = written("trailing.oms", &g);
        bytes.extend_from_slice(b"OMSSNAP1 and then some trailer bytes");
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_stream_file(&path).unwrap(), g);
        assert_eq!(stream_file_info(&path).unwrap().trailer_bytes, 36);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batches_split_on_edge_mass_and_still_cover_the_stream() {
        // A hub whose degree alone exceeds the entry bound, followed by its
        // low-degree leaves: every batch size must deliver the same node
        // sequence, in batches that respect both bounds (a batch may
        // overshoot the entry bound by its last node).
        let leaves = BATCH_ENTRY_BOUND as u32 + 500;
        let mut b = GraphBuilder::new(leaves as usize + 1);
        for v in 1..=leaves {
            b.add_weighted_edge(0, v, 1 + (v % 3) as u64).unwrap();
        }
        b.set_node_weight(7, 5).unwrap();
        let g = b.build();
        let path = temp_path("hub.oms");
        write_stream_file(&g, &path).unwrap();
        assert_eq!(read_stream_file(&path).unwrap(), g);
        let mut stream = DiskStream::open(&path).unwrap();
        for batch_size in [1, 7, 4096] {
            let mut next = 0u32;
            let mut sizes = Vec::new();
            stream
                .for_each_batch(batch_size, &mut |batch| {
                    sizes.push((batch.len(), batch.total_edge_entries()));
                    for node in batch.iter() {
                        assert_eq!(node.node, next);
                        assert_eq!(node.neighbors, g.neighbors(next));
                        assert_eq!(node.edge_weights, g.incident_edge_weights(next));
                        assert_eq!(node.weight, g.node_weight(next));
                        next += 1;
                    }
                })
                .unwrap();
            assert_eq!(next, leaves + 1);
            // The hub closes the first batch on its own.
            assert_eq!(sizes[0], (1, leaves as usize));
            for &(nodes, entries) in &sizes[1..] {
                assert!(nodes <= batch_size && entries <= BATCH_ENTRY_BOUND);
            }
            // Past the hub only the node bound binds.
            let full = sizes[1..sizes.len() - 1].iter();
            assert!(full.clone().all(|&(nodes, _)| nodes == batch_size));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_body_count_mismatch_is_a_typed_error() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        // Lie in the header: claim one edge fewer than the degrees sum to
        // (the surplus bytes read as a trailer) …
        let (path, mut bytes) = written("mismatch.oms", &g);
        bytes[16..24].copy_from_slice(&2u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        match stream.for_each_node(&mut |_| {}).unwrap_err() {
            GraphError::CountMismatch {
                what,
                expected,
                found,
            } => assert_eq!((what, expected, found), ("edge entries", 4, 6)),
            other => panic!("expected CountMismatch, got: {other}"),
        }
        // … or keep the header and shrink a degree: the pass ends short.
        let (path, mut bytes) = written("mismatch.oms", &g);
        bytes[40..44].copy_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        match stream.for_each_node(&mut |_| {}).unwrap_err() {
            GraphError::CountMismatch {
                what,
                expected,
                found,
            } => assert_eq!((what, expected, found), ("edge entries", 6, 5)),
            other => panic!("expected CountMismatch, got: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
