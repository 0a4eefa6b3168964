//! Binary vertex-stream format.
//!
//! The paper converts every benchmark graph to a *vertex-stream* format so
//! that one-pass algorithms can consume it either from memory or directly
//! from disk with `O(Δ)` working memory. Three on-disk versions exist:
//!
//! ```text
//! v3 (current, magic "OMSSTRM3") — sectioned / fixed-stride:
//!   magic   : 8 bytes  "OMSSTRM3"
//!   n       : u64 LE   number of nodes
//!   m       : u64 LE   number of undirected edges
//!   c(V)    : u64 LE   total node weight (n when node weights are absent)
//!   flags   : u8       bit 0 = node weights present, bit 1 = edge weights present
//!   pad     : 7 bytes  zero (header is 40 bytes, 8-byte aligned)
//!   sections, each starting 8-byte aligned (zero padding between):
//!     degrees      : n  × u32 LE
//!     [node weights: n  × u64 LE]   (if flag bit 0)
//!     neighbors    : 2m × u32 LE
//!     [edge weights: 2m × u64 LE]   (if flag bit 1)
//!   zero padding to the next 8-byte boundary (trailer alignment)
//! ```
//!
//! v3 stores each field as its own fixed-stride section instead of
//! interleaving them per node, so a pass fills [`NodeBatch`]'s
//! structure-of-arrays columns by bulk byte reads — one `read_exact` per
//! column per batch — instead of decoding every field through its own small
//! read. The columns are exactly the sections; decode is a little-endian
//! widening copy with no per-node branching.
//!
//! ```text
//! v2 (magic "OMSSTRM2") — interleaved:
//!   magic   : 8 bytes  "OMSSTRM2"
//!   n       : u64 LE   number of nodes
//!   m       : u64 LE   number of undirected edges
//!   c(V)    : u64 LE   total node weight (n when node weights are absent)
//!   flags   : u8       bit 0 = node weights present, bit 1 = edge weights present
//!   per node (in id order):
//!     [node weight : u64 LE]            (if flag bit 0)
//!     degree       : u32 LE
//!     neighbors    : degree × u32 LE
//!     [edge weights: degree × u64 LE]   (if flag bit 1)
//!
//! v1 (legacy, magic "OMSSTRM1"):
//!   same layout but without the c(V) header field and with u32 weights.
//! ```
//!
//! Version 2 fixes two weighted-graph defects of v1: weights are stored as
//! `u64` (v1 silently truncated weights above `u32::MAX`; writing such a
//! weight is now a typed [`GraphError::WeightOutOfRange`] error in v1 and
//! lossless in v2), and the total node weight `c(V)` lives in the header, so
//! [`DiskStream::open`] no longer needs a full decode pass over a weighted
//! file just to learn the capacity input `c(V)`.
//!
//! v1 and v2 files remain fully readable (weights default to 1 when the
//! flags are clear, exactly as before); [`write_stream_file`] writes v2 —
//! the interchange default — and `oms convert --stream-version 3` (or
//! [`StreamWriteOptions`]) upgrades a file to v3. Zero weights
//! are invalid in both versions — reads and writes reject them with
//! [`GraphError::WeightOutOfRange`] instead of letting a weight-0 node
//! corrupt capacity math downstream.
//!
//! [`DiskStream`] implements [`NodeStream`] on top of the format, so every
//! streaming partitioner in `oms-core` can run straight off disk.
//!
//! ## Working memory and hostile headers
//!
//! A pass holds one [`NodeBatch`] plus a byte scratch of the same order,
//! and a batch closes at `batch_size` nodes or [`BATCH_ENTRY_BOUND`]
//! adjacency entries, so a pass runs in `O(batch)` memory whatever the
//! degree distribution — with the consumer's own `O(n)` state that is the
//! `O(n + batch)` contract of the CLI's one-pass jobs. Both body layouts are decoded column-wise: one
//! `read_exact` per column and a bulk little-endian copy into the batch
//! (per record for v1/v2, per batch for v3).
//!
//! Nothing is sized from a count the file has not backed:
//! [`DiskStream::open`] rejects a header whose `n` and `m` the file cannot
//! hold (each node costs at least its 4-byte degree field, each adjacency
//! entry its 4-byte id), and a degree field is checked against the `2m`
//! entries the header announces *before* the record is buffered.

use crate::batch::NodeBatch;
use crate::stream::{
    collect_graph, NodeStream, StreamedNode, BATCH_ENTRY_BOUND, DEFAULT_BATCH_SIZE,
};
use crate::{CsrGraph, GraphError, NodeId, NodeWeight, Result};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC_V1: &[u8; 8] = b"OMSSTRM1";
const MAGIC_V2: &[u8; 8] = b"OMSSTRM2";
const MAGIC_V3: &[u8; 8] = b"OMSSTRM3";
const FLAG_NODE_WEIGHTS: u8 = 0b01;
const FLAG_EDGE_WEIGHTS: u8 = 0b10;
/// Section alignment of the v3 layout.
const V3_ALIGN: u64 = 8;

/// On-disk version of the vertex-stream format.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StreamFormatVersion {
    /// Legacy format: u32 weights, no total weight in the header.
    V1,
    /// Interleaved format: u64 weights, total node weight in the header.
    #[default]
    V2,
    /// Sectioned format: v2's header (8-byte aligned) followed by
    /// fixed-stride per-field sections decoded by bulk copy.
    V3,
}

impl StreamFormatVersion {
    fn magic(self) -> &'static [u8; 8] {
        match self {
            StreamFormatVersion::V1 => MAGIC_V1,
            StreamFormatVersion::V2 => MAGIC_V2,
            StreamFormatVersion::V3 => MAGIC_V3,
        }
    }

    fn header_len(self) -> usize {
        match self {
            StreamFormatVersion::V1 => 8 + 8 + 8 + 1,
            StreamFormatVersion::V2 => 8 + 8 + 8 + 8 + 1,
            // v2's fields plus zero padding to an 8-byte boundary.
            StreamFormatVersion::V3 => 8 + 8 + 8 + 8 + 1 + 7,
        }
    }

    /// Bytes a stored node or edge weight takes.
    fn weight_width(self) -> usize {
        match self {
            StreamFormatVersion::V1 => 4,
            StreamFormatVersion::V2 | StreamFormatVersion::V3 => 8,
        }
    }

    /// Largest weight this version can represent.
    fn max_weight(self) -> u64 {
        match self {
            StreamFormatVersion::V1 => u32::MAX as u64,
            StreamFormatVersion::V2 | StreamFormatVersion::V3 => u64::MAX,
        }
    }

    /// Version selector as it appears on the `convert` command line.
    pub fn from_cli(s: &str) -> Option<Self> {
        match s {
            "1" => Some(StreamFormatVersion::V1),
            "2" => Some(StreamFormatVersion::V2),
            "3" => Some(StreamFormatVersion::V3),
            _ => None,
        }
    }

    /// The version number as a small integer (for display).
    pub fn number(self) -> u32 {
        match self {
            StreamFormatVersion::V1 => 1,
            StreamFormatVersion::V2 => 2,
            StreamFormatVersion::V3 => 3,
        }
    }
}

/// Byte layout of a stream file's body, derived from the header counts
/// alone. For v3 the sections are physical and every offset is computable
/// without touching the body, which is what lets each column be read with
/// one bulk cursor; for the interleaved v1/v2 layouts the per-field totals
/// are the logical byte counts of each field class and the offsets unused.
#[derive(Clone, Copy, Debug)]
struct BodyLayout {
    degrees_off: u64,
    degree_bytes: u64,
    node_weights_off: u64,
    node_weight_bytes: u64,
    neighbors_off: u64,
    neighbor_bytes: u64,
    edge_weights_off: u64,
    edge_weight_bytes: u64,
    /// Header plus (padded) body; a snapshot trailer starts here.
    body_len: u64,
    /// Total zero padding between sections (v3 only; excludes the header
    /// pad).
    padding: u64,
}

/// The layout `n` nodes and `m` edges imply, or `None` when it does not fit
/// `u64` — header counts come from the file, so every step is checked.
fn body_layout(version: StreamFormatVersion, n: u64, m: u64, flags: u8) -> Option<BodyLayout> {
    let weight_width = version.weight_width() as u64;
    let align = match version {
        StreamFormatVersion::V1 | StreamFormatVersion::V2 => 1,
        StreamFormatVersion::V3 => V3_ALIGN,
    };
    let align_up = |x: u64| Some(x.checked_add(align - 1)? / align * align);
    let entries = m.checked_mul(2)?;
    let degree_bytes = n.checked_mul(4)?;
    let node_weight_bytes = match flags & FLAG_NODE_WEIGHTS {
        0 => 0,
        _ => n.checked_mul(weight_width)?,
    };
    let neighbor_bytes = entries.checked_mul(4)?;
    let edge_weight_bytes = match flags & FLAG_EDGE_WEIGHTS {
        0 => 0,
        _ => entries.checked_mul(weight_width)?,
    };
    let degrees_off = version.header_len() as u64;
    let node_weights_off = align_up(degrees_off.checked_add(degree_bytes)?)?;
    let neighbors_off = node_weights_off.checked_add(node_weight_bytes)?;
    let edge_weights_off = align_up(neighbors_off.checked_add(neighbor_bytes)?)?;
    let body_len = edge_weights_off.checked_add(edge_weight_bytes)?;
    Some(BodyLayout {
        degrees_off,
        degree_bytes,
        node_weights_off,
        node_weight_bytes,
        neighbors_off,
        neighbor_bytes,
        edge_weights_off,
        edge_weight_bytes,
        body_len,
        padding: body_len
            - degrees_off
            - degree_bytes
            - node_weight_bytes
            - neighbor_bytes
            - edge_weight_bytes,
    })
}

/// Checks a header's counts against the length of the file they came from
/// and returns the layout they imply — the gate every reader passes before
/// anything is sized from `n` or `m`.
///
/// Counts whose layout overflows `u64` are a [`GraphError::CountMismatch`].
/// A file too short to hold even the 4-byte degree field of every announced
/// node and the 4-byte id of every announced adjacency entry is
/// [`GraphError::Truncated`]; a file missing less than that passes (a pass
/// over it fails with the exact count of complete records), as does one
/// longer than its body (a snapshot trailer).
fn checked_layout(header: &Header, file_bytes: u64) -> Result<BodyLayout> {
    let (n, m) = (header.n as u64, header.m as u64);
    let layout =
        body_layout(header.version, n, m, header.flags).ok_or(GraphError::CountMismatch {
            what: "body bytes (the header's node and edge counts overflow u64)",
            expected: u64::MAX,
            found: file_bytes,
        })?;
    if layout.degree_bytes + layout.neighbor_bytes > file_bytes {
        return Err(truncated_error(n, &layout, file_bytes));
    }
    Ok(layout)
}

/// The typed error for a file shorter than the body its header announces,
/// raised without decoding the body: the number of complete node records is
/// estimated from the byte position where the file ends — always strictly
/// below `n`, matching the invariant of the read path's
/// [`GraphError::Truncated`].
fn truncated_error(n: u64, layout: &BodyLayout, file_bytes: u64) -> GraphError {
    let payload = (layout.body_len - layout.degrees_off).max(1);
    let available = file_bytes
        .saturating_sub(layout.degrees_off)
        .min(payload - 1);
    GraphError::Truncated {
        expected_nodes: n,
        read_nodes: (n as u128 * available as u128 / payload as u128) as u64,
    }
}

/// Options of [`write_stream_file_with`].
///
/// By default the writer picks v2 and emits weight sections only when some
/// weight differs from 1. The `force_*` flags emit the sections regardless —
/// the equivalence test-suite uses them to prove that a file with *explicit*
/// unit weights streams byte-identically to one with implicit unit weights.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamWriteOptions {
    /// On-disk version to write.
    pub version: StreamFormatVersion,
    /// Write the node-weight section even when all node weights are 1.
    pub force_node_weights: bool,
    /// Write the edge-weight section even when all edge weights are 1.
    pub force_edge_weights: bool,
}

/// Writes `graph` to `path` in the current (v2) vertex-stream format.
pub fn write_stream_file<P: AsRef<Path>>(graph: &CsrGraph, path: P) -> Result<()> {
    write_stream_file_with(graph, path, StreamWriteOptions::default())
}

/// Writes `graph` to `path` in the legacy v1 vertex-stream format.
///
/// Returns [`GraphError::WeightOutOfRange`] when a weight exceeds `u32::MAX`
/// (v1 cannot represent it); v1 files written by this function are readable
/// by every past and present reader.
pub fn write_stream_file_v1<P: AsRef<Path>>(graph: &CsrGraph, path: P) -> Result<()> {
    write_stream_file_with(
        graph,
        path,
        StreamWriteOptions {
            version: StreamFormatVersion::V1,
            ..StreamWriteOptions::default()
        },
    )
}

/// Writes `graph` to `path` in the vertex-stream format described by
/// `options`.
pub fn write_stream_file_with<P: AsRef<Path>>(
    graph: &CsrGraph,
    path: P,
    options: StreamWriteOptions,
) -> Result<()> {
    let version = options.version;
    let max = version.max_weight();
    // Validate weights up front so a bad graph never leaves a half-written
    // file with a valid header behind.
    for v in graph.nodes() {
        let w = graph.node_weight(v);
        if w == 0 || w > max {
            return Err(GraphError::WeightOutOfRange {
                what: "node",
                node: v as u64,
                value: w,
                max,
            });
        }
        for &ew in graph.incident_edge_weights(v) {
            if ew == 0 || ew > max {
                return Err(GraphError::WeightOutOfRange {
                    what: "edge",
                    node: v as u64,
                    value: ew,
                    max,
                });
            }
        }
    }

    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    let has_nw = options.force_node_weights || graph.node_weights().iter().any(|&x| x != 1);
    let has_ew = options.force_edge_weights || graph.edge_weights().iter().any(|&x| x != 1);
    let mut flags = 0u8;
    if has_nw {
        flags |= FLAG_NODE_WEIGHTS;
    }
    if has_ew {
        flags |= FLAG_EDGE_WEIGHTS;
    }
    w.write_all(version.magic())?;
    w.write_all(&(graph.num_nodes() as u64).to_le_bytes())?;
    w.write_all(&(graph.num_edges() as u64).to_le_bytes())?;
    if version != StreamFormatVersion::V1 {
        w.write_all(&graph.total_node_weight().to_le_bytes())?;
    }
    w.write_all(&[flags])?;

    if version == StreamFormatVersion::V3 {
        return write_v3_body(graph, w, flags);
    }

    let write_weight = |w: &mut BufWriter<File>, value: u64| -> Result<()> {
        match version {
            StreamFormatVersion::V1 => w.write_all(&(value as u32).to_le_bytes())?,
            _ => w.write_all(&value.to_le_bytes())?,
        }
        Ok(())
    };
    for v in graph.nodes() {
        if has_nw {
            write_weight(&mut w, graph.node_weight(v))?;
        }
        let neighbors = graph.neighbors(v);
        w.write_all(&(neighbors.len() as u32).to_le_bytes())?;
        for &u in neighbors {
            w.write_all(&u.to_le_bytes())?;
        }
        if has_ew {
            for &ew in graph.incident_edge_weights(v) {
                write_weight(&mut w, ew)?;
            }
        }
    }
    w.flush()?;
    Ok(())
}

/// Writes the sectioned v3 body (the header, including its padding byte run
/// up to the flags byte, has already been written).
fn write_v3_body(graph: &CsrGraph, mut w: BufWriter<File>, flags: u8) -> Result<()> {
    const PAD: [u8; 8] = [0u8; 8];
    // Header padding: flags byte at offset 32, zero-fill up to 40.
    w.write_all(&PAD[..7])?;
    let (n, m) = (graph.num_nodes() as u64, graph.num_edges() as u64);
    let layout = body_layout(StreamFormatVersion::V3, n, m, flags)
        .expect("an in-memory graph's layout fits u64");
    for v in graph.nodes() {
        w.write_all(&(graph.neighbors(v).len() as u32).to_le_bytes())?;
    }
    let degrees_end = layout.degrees_off + layout.degree_bytes;
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

/// Reads a whole vertex-stream file (any version) back into an in-memory
/// [`CsrGraph`]: [`collect_graph`] over a [`DiskStream`].
pub fn read_stream_file<P: AsRef<Path>>(path: P) -> Result<CsrGraph> {
    collect_graph(&mut DiskStream::open(path)?)
}

/// Per-section byte accounting of a vertex-stream file, as reported by
/// `oms info`. For the interleaved v1/v2 layouts the "sections" are the
/// logical byte totals of each field class; for v3 they are the physical
/// sections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamFileInfo {
    /// On-disk format version.
    pub version: StreamFormatVersion,
    /// Whether a node-weight section/field is present.
    pub has_node_weights: bool,
    /// Whether an edge-weight section/field is present.
    pub has_edge_weights: bool,
    /// Nodes announced by the header.
    pub num_nodes: u64,
    /// Undirected edges announced by the header.
    pub num_edges: u64,
    /// Header bytes (including the v3 header padding).
    pub header_bytes: u64,
    /// Bytes spent on degree fields (v1/v2) or the degree section (v3).
    pub degree_bytes: u64,
    /// Bytes spent on node weights.
    pub node_weight_bytes: u64,
    /// Bytes spent on adjacency entries.
    pub neighbor_bytes: u64,
    /// Bytes spent on edge weights.
    pub edge_weight_bytes: u64,
    /// Zero padding between sections (v3 only).
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
/// as the same typed [`GraphError::Truncated`] the read path raises —
/// never as a zero-byte trailer.
pub fn stream_file_info<P: AsRef<Path>>(path: P) -> Result<StreamFileInfo> {
    let file = File::open(path.as_ref())?;
    let file_bytes = file.metadata()?.len();
    let header = read_header(&mut BufReader::new(file))?;
    let layout = checked_layout(&header, file_bytes)?;
    if file_bytes < layout.body_len {
        return Err(truncated_error(header.n as u64, &layout, file_bytes));
    }
    Ok(StreamFileInfo {
        version: header.version,
        has_node_weights: header.flags & FLAG_NODE_WEIGHTS != 0,
        has_edge_weights: header.flags & FLAG_EDGE_WEIGHTS != 0,
        num_nodes: header.n as u64,
        num_edges: header.m as u64,
        header_bytes: layout.degrees_off,
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
/// Every pass validates the file body against the header: a file ending
/// before all `n` announced nodes is a [`GraphError::Truncated`] error, a
/// body whose adjacency lists do not sum to `2m` entries is a
/// [`GraphError::CountMismatch`], (v2) a body whose node weights do not
/// sum to the header's `c(V)` is a [`GraphError::CountMismatch`] too, and a
/// neighbor id `≥ n` is a [`GraphError::NodeOutOfRange`] raised before the
/// batch holding it is handed on — a corrupt file never silently streams
/// wrong data. Zero weights anywhere in the body are a
/// [`GraphError::WeightOutOfRange`] error.
#[derive(Debug)]
pub struct DiskStream {
    path: PathBuf,
    version: StreamFormatVersion,
    num_nodes: usize,
    num_edges: usize,
    total_node_weight: NodeWeight,
    flags: u8,
}

/// The header of a vertex-stream file, as read from disk.
struct Header {
    version: StreamFormatVersion,
    n: usize,
    m: usize,
    /// Total node weight; `None` for v1 files with node weights (they carry
    /// no total in the header, it must be counted).
    total_node_weight: Option<NodeWeight>,
    flags: u8,
}

fn read_header<R: Read>(r: &mut R) -> Result<Header> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    let version = if &magic == MAGIC_V3 {
        StreamFormatVersion::V3
    } else if &magic == MAGIC_V2 {
        StreamFormatVersion::V2
    } else if &magic == MAGIC_V1 {
        StreamFormatVersion::V1
    } else {
        return Err(GraphError::Parse("not an OMS vertex-stream file".into()));
    };
    let n = read_u64(r)? as usize;
    let m = read_u64(r)? as usize;
    let header_total = if version == StreamFormatVersion::V1 {
        None
    } else {
        Some(read_u64(r)?)
    };
    let mut flags = [0u8; 1];
    r.read_exact(&mut flags)?;
    let flags = flags[0];
    if version == StreamFormatVersion::V3 {
        // The sections of a v3 file are 8-byte aligned; non-zero header
        // padding means the layout math would read misaligned garbage.
        let mut pad = [0u8; 7];
        r.read_exact(&mut pad)?;
        if pad != [0u8; 7] {
            return Err(GraphError::Parse(
                "v3 header padding is not zero (misaligned or corrupt file)".into(),
            ));
        }
    }
    let total_node_weight = match (version, flags & FLAG_NODE_WEIGHTS != 0) {
        // v2/v3 always state c(V); a header claiming unit weights must
        // state n.
        (StreamFormatVersion::V2 | StreamFormatVersion::V3, false) => {
            let total = header_total.expect("v2/v3 headers carry a total");
            if total != n as u64 {
                return Err(GraphError::CountMismatch {
                    what: "header total node weight (unit weights imply n)",
                    expected: n as u64,
                    found: total,
                });
            }
            Some(total)
        }
        (StreamFormatVersion::V2 | StreamFormatVersion::V3, true) => header_total,
        (StreamFormatVersion::V1, false) => Some(n as u64),
        // v1 with node weights: the total is not in the header.
        (StreamFormatVersion::V1, true) => None,
    };
    Ok(Header {
        version,
        n,
        m,
        total_node_weight,
        flags,
    })
}

impl DiskStream {
    /// Opens a vertex-stream file (any version) and reads its header.
    ///
    /// v2/v3 headers state the total node weight `c(V)` directly (streaming
    /// algorithms need it up front to compute `L_max`); for legacy v1 files
    /// with node weights it is computed with one lightweight pass over the
    /// file. The header's counts are checked against the file's length
    /// (see the [module docs](self)), so `num_nodes`/`num_edges` are safe to
    /// size buffers from.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let file_bytes = file.metadata()?.len();
        let header = read_header(&mut BufReader::new(file))?;
        // Consumers size their state from `n` and `m`: refuse counts the
        // file cannot back before handing them out.
        checked_layout(&header, file_bytes)?;

        let mut stream = DiskStream {
            path,
            version: header.version,
            num_nodes: header.n,
            num_edges: header.m,
            total_node_weight: header.total_node_weight.unwrap_or(header.n as u64),
            flags: header.flags,
        };
        if header.total_node_weight.is_none() {
            // The reader's own checked accumulator supplies the total.
            let mut reader = PassReader::open(&stream)?;
            let mut batch = NodeBatch::new();
            while reader.fill(&mut batch, DEFAULT_BATCH_SIZE)? {}
            stream.total_node_weight = reader.weight_sum();
        }
        Ok(stream)
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// On-disk format version of the underlying file.
    pub fn version(&self) -> StreamFormatVersion {
        self.version
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
    pub fn revalidate(&self) -> Result<()> {
        self.revalidate_header()
    }

    fn revalidate_header(&self) -> Result<()> {
        let file = File::open(&self.path)?;
        let mut r = BufReader::new(file);
        let header = read_header(&mut r).map_err(|e| match e {
            GraphError::Parse(_) => GraphError::Parse(
                "not an OMS vertex-stream file (header changed between passes)".into(),
            ),
            other => other,
        })?;
        if header.version != self.version {
            return Err(GraphError::Parse(
                "vertex-stream format version changed between passes".into(),
            ));
        }
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
        if let Some(total) = header.total_node_weight {
            if total != self.total_node_weight {
                return Err(GraphError::CountMismatch {
                    what: "header total node weight after rewind",
                    expected: self.total_node_weight,
                    found: total,
                });
            }
        }
        if header.flags != self.flags {
            return Err(GraphError::Parse(
                "vertex-stream flags changed between passes".into(),
            ));
        }
        Ok(())
    }
}

/// The decode state of one pass over a vertex-stream file.
///
/// The two variants match the two body layouts: v1/v2 interleave fields per
/// node and are decoded field by field; v3 stores each field as its own
/// section and is decoded by bulk copy straight into the batch's SoA columns.
enum PassReader {
    Interleaved(InterleavedReader),
    Sectioned(SectionedReader),
}

impl PassReader {
    fn open(stream: &DiskStream) -> Result<Self> {
        if stream.version == StreamFormatVersion::V3 {
            Ok(PassReader::Sectioned(SectionedReader::open(stream)?))
        } else {
            Ok(PassReader::Interleaved(InterleavedReader::open(stream)?))
        }
    }

    /// Clears `batch` and refills it with up to `max_nodes` decoded nodes.
    /// Returns `true` while more nodes remain after this batch.
    fn fill(&mut self, batch: &mut NodeBatch, max_nodes: usize) -> Result<bool> {
        match self {
            PassReader::Interleaved(r) => r.fill(batch, max_nodes),
            PassReader::Sectioned(r) => r.fill(batch, max_nodes),
        }
    }

    /// Checked sum of the node weights decoded so far.
    fn weight_sum(&self) -> NodeWeight {
        match self {
            PassReader::Interleaved(r) => r.weight_sum,
            PassReader::Sectioned(r) => r.weight_sum,
        }
    }
}

/// Record-by-record decoder for the interleaved v1/v2 body layouts: the
/// fixed-size head of a record (node weight, degree) is read first, the
/// degree is checked against the entries the header still allows, and the
/// record's adjacency columns are then read with one `read_exact` and
/// bulk-decoded straight into the batch columns.
struct InterleavedReader {
    r: BufReader<File>,
    version: StreamFormatVersion,
    has_node_weights: bool,
    has_edge_weights: bool,
    expected_nodes: usize,
    expected_edge_entries: u64,
    /// `c(V)` announced by a v2 header; validated against the body sum.
    expected_total_weight: Option<NodeWeight>,
    next_node: usize,
    edge_entries: u64,
    weight_sum: NodeWeight,
    scratch_bytes: Vec<u8>,
}

impl InterleavedReader {
    fn open(stream: &DiskStream) -> Result<Self> {
        let file = File::open(&stream.path)?;
        // A deep read buffer keeps the kernel's readahead busy; the default
        // 8 KiB would issue one syscall per handful of adjacency lists.
        let mut r = BufReader::with_capacity(1 << 20, file);
        let mut skip = vec![0u8; stream.version.header_len()];
        r.read_exact(&mut skip)?;
        let has_node_weights = stream.flags & FLAG_NODE_WEIGHTS != 0;
        Ok(InterleavedReader {
            r,
            version: stream.version,
            has_node_weights,
            has_edge_weights: stream.flags & FLAG_EDGE_WEIGHTS != 0,
            expected_nodes: stream.num_nodes,
            // Each undirected edge appears in both endpoints' lists.
            expected_edge_entries: 2 * stream.num_edges as u64,
            expected_total_weight: (stream.version == StreamFormatVersion::V2 && has_node_weights)
                .then_some(stream.total_node_weight),
            next_node: 0,
            edge_entries: 0,
            weight_sum: 0,
            scratch_bytes: Vec::new(),
        })
    }

    /// Clears `batch` and refills it with decoded nodes until it holds
    /// `max_nodes` nodes or [`BATCH_ENTRY_BOUND`] adjacency entries. Returns
    /// `true` while more nodes remain after this batch.
    fn fill(&mut self, batch: &mut NodeBatch, max_nodes: usize) -> Result<bool> {
        batch.clear();
        let max_nodes = max_nodes.max(1);
        // v1 stores weights as u32, v2 as u64 (v3 bodies never get here).
        let weight_width = self.version.weight_width();
        let decode_weights: fn(&[u8], &mut Vec<u64>) = match self.version {
            StreamFormatVersion::V1 => decode_u32s_widening,
            StreamFormatVersion::V2 | StreamFormatVersion::V3 => decode_u64s,
        };
        let (expected_nodes, max_weight) = (self.expected_nodes as u64, self.version.max_weight());
        while batch.len() < max_nodes
            && batch.total_edge_entries() < BATCH_ENTRY_BOUND
            && self.next_node < self.expected_nodes
        {
            let node = self.next_node as u64;
            let truncated = |e: std::io::Error| truncated_at(e, expected_nodes, node);
            let zero_weight = |what| GraphError::WeightOutOfRange {
                what,
                node,
                value: 0,
                max: max_weight,
            };

            // Record head: [node weight] degree.
            let mut head = [0u8; 12];
            let head = &mut head[..4 + weight_width * usize::from(self.has_node_weights)];
            self.r.read_exact(head).map_err(truncated)?;
            let (weight_bytes, degree_bytes) = head.split_at(head.len() - 4);
            let weight: NodeWeight = match weight_bytes.len() {
                0 => 1,
                4 => u32::from_le_bytes(weight_bytes.try_into().unwrap()) as u64,
                _ => u64::from_le_bytes(weight_bytes.try_into().unwrap()),
            };
            if weight == 0 {
                return Err(zero_weight("node"));
            }
            let degree = u32::from_le_bytes(degree_bytes.try_into().unwrap()) as usize;
            // The degree sizes the read below: check it against the entries
            // the header still allows before buffering anything.
            let total_entries = self.edge_entries + degree as u64;
            if total_entries > self.expected_edge_entries {
                return Err(GraphError::CountMismatch {
                    what: "edge entries",
                    expected: self.expected_edge_entries,
                    found: total_entries,
                });
            }

            // Record tail: the neighbor column, then the edge-weight column.
            let tail = degree * (4 + weight_width * usize::from(self.has_edge_weights));
            if self.scratch_bytes.len() < tail {
                self.scratch_bytes.resize(tail, 0);
            }
            let tail = &mut self.scratch_bytes[..tail];
            self.r.read_exact(tail).map_err(truncated)?;
            let (neighbor_bytes, edge_weight_bytes) = tail.split_at(4 * degree);
            decode_u32s(neighbor_bytes, batch.neighbors_vec_mut());
            if self.has_edge_weights {
                let edge_weights = batch.edge_weights_vec_mut();
                decode_weights(edge_weight_bytes, edge_weights);
                if edge_weights[edge_weights.len() - degree..].contains(&0) {
                    return Err(zero_weight("edge"));
                }
            } else {
                batch.unit_fill_edge_weights();
            }
            batch.finish_node(self.next_node as NodeId, weight);

            self.edge_entries = total_entries;
            // An adversarial file can hold weights that individually fit u64
            // but overflow the running total; that must be a typed error,
            // not a debug-build panic / release-build wraparound that could
            // collide with a crafted header total.
            self.weight_sum = self.weight_sum.checked_add(weight).ok_or_else(|| {
                GraphError::Parse(format!(
                    "total node weight overflows u64 at node {}",
                    self.next_node
                ))
            })?;
            self.next_node += 1;
        }
        check_neighbor_range(batch.neighbors_vec_mut(), self.expected_nodes)?;
        let more = self.next_node < self.expected_nodes;
        if !more {
            if self.edge_entries != self.expected_edge_entries {
                return Err(GraphError::CountMismatch {
                    what: "edge entries",
                    expected: self.expected_edge_entries,
                    found: self.edge_entries,
                });
            }
            if let Some(expected) = self.expected_total_weight {
                if self.weight_sum != expected {
                    return Err(GraphError::CountMismatch {
                        what: "total node weight",
                        expected,
                        found: self.weight_sum,
                    });
                }
            }
        }
        Ok(more)
    }
}

/// Maps an early EOF at node `read_nodes` to the typed truncation error.
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

/// Bulk decoder for the sectioned v3 layout: one independent sequential
/// cursor per section, one `read_exact` per batch per column. Decode is a
/// little-endian widening copy into the batch's SoA columns — no per-node
/// field dispatch, no per-value reads.
struct SectionedReader {
    degrees: BufReader<File>,
    node_weights: Option<BufReader<File>>,
    neighbors: BufReader<File>,
    edge_weights: Option<BufReader<File>>,
    expected_nodes: usize,
    expected_edge_entries: u64,
    /// `c(V)` announced by the header; validated against the body sum.
    expected_total_weight: NodeWeight,
    next_node: usize,
    edge_entries: u64,
    weight_sum: NodeWeight,
    scratch_bytes: Vec<u8>,
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

/// Appends the little-endian `u32`s in `bytes` to `dst`, widened to `u64`
/// (the weight columns of the v1 layout).
fn decode_u32s_widening(bytes: &[u8], dst: &mut Vec<u64>) {
    debug_assert_eq!(bytes.len() % 4, 0);
    dst.extend(
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()) as u64),
    );
}

impl SectionedReader {
    fn open(stream: &DiskStream) -> Result<Self> {
        let layout = body_layout(
            StreamFormatVersion::V3,
            stream.num_nodes as u64,
            stream.num_edges as u64,
            stream.flags,
        )
        .expect("DiskStream::open checked the layout");
        let cursor = |off: u64, cap: usize| -> Result<BufReader<File>> {
            let mut f = File::open(&stream.path)?;
            f.seek(SeekFrom::Start(off))?;
            Ok(BufReader::with_capacity(cap, f))
        };
        let has_nw = stream.flags & FLAG_NODE_WEIGHTS != 0;
        let has_ew = stream.flags & FLAG_EDGE_WEIGHTS != 0;
        Ok(SectionedReader {
            degrees: cursor(layout.degrees_off, 1 << 16)?,
            node_weights: if has_nw {
                Some(cursor(layout.node_weights_off, 1 << 17)?)
            } else {
                None
            },
            neighbors: cursor(layout.neighbors_off, 1 << 20)?,
            edge_weights: if has_ew {
                Some(cursor(layout.edge_weights_off, 1 << 20)?)
            } else {
                None
            },
            expected_nodes: stream.num_nodes,
            expected_edge_entries: 2 * stream.num_edges as u64,
            expected_total_weight: stream.total_node_weight,
            next_node: 0,
            edge_entries: 0,
            weight_sum: 0,
            scratch_bytes: Vec::new(),
            scratch_degrees: Vec::new(),
        })
    }

    /// Reads exactly `len` bytes from `reader` into the front of `scratch`
    /// (grown on demand, never shrunk) and returns them.
    fn read_column<'a>(
        reader: &mut BufReader<File>,
        scratch: &'a mut Vec<u8>,
        len: usize,
    ) -> std::io::Result<&'a [u8]> {
        if scratch.len() < len {
            scratch.resize(len, 0);
        }
        reader.read_exact(&mut scratch[..len])?;
        Ok(&scratch[..len])
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
            let bytes = Self::read_column(&mut self.degrees, &mut self.scratch_bytes, 4 * wanted)
                .map_err(truncated)?;
            self.scratch_degrees.clear();
            decode_u32s(bytes, &mut self.scratch_degrees);
            let (mut count, mut batch_entries) = (0, 0u64);
            while count < wanted && batch_entries < BATCH_ENTRY_BOUND as u64 {
                batch_entries += self.scratch_degrees[count] as u64;
                count += 1;
            }
            self.scratch_degrees.truncate(count);
            self.degrees.seek_relative(-4 * (wanted - count) as i64)?;
            let total_entries = self.edge_entries.saturating_add(batch_entries);
            if total_entries > self.expected_edge_entries {
                // In a sectioned file an oversized degree would walk the
                // neighbor cursor into padding or a later section; stop on
                // the degrees column instead of decoding garbage.
                return Err(GraphError::CountMismatch {
                    what: "edge entries",
                    expected: self.expected_edge_entries,
                    found: total_entries,
                });
            }
            batch.extend_ids_sequential(self.next_node as NodeId, count);
            batch.extend_offsets_from_degrees(&self.scratch_degrees);

            // Node-weight column.
            if let Some(reader) = self.node_weights.as_mut() {
                let bytes = Self::read_column(reader, &mut self.scratch_bytes, 8 * count)
                    .map_err(truncated)?;
                decode_u64s(bytes, batch.weights_vec_mut());
                let weights = &batch.weights_vec_mut()[..];
                let mut sum = self.weight_sum;
                for (i, &w) in weights.iter().enumerate() {
                    if w == 0 {
                        return Err(GraphError::WeightOutOfRange {
                            what: "node",
                            node: (self.next_node + i) as u64,
                            value: 0,
                            max: StreamFormatVersion::V3.max_weight(),
                        });
                    }
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
            let bytes = Self::read_column(
                &mut self.neighbors,
                &mut self.scratch_bytes,
                4 * batch_entries,
            )
            .map_err(truncated)?;
            decode_u32s(bytes, batch.neighbors_vec_mut());
            check_neighbor_range(batch.neighbors_vec_mut(), self.expected_nodes)?;

            // Edge-weight column.
            if let Some(reader) = self.edge_weights.as_mut() {
                let bytes = Self::read_column(reader, &mut self.scratch_bytes, 8 * batch_entries)
                    .map_err(truncated)?;
                decode_u64s(bytes, batch.edge_weights_vec_mut());
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
                        max: StreamFormatVersion::V3.max_weight(),
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
        self.revalidate_header()
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
        let mut reader = PassReader::open(self)?;
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
    fn roundtrip_weighted_v1() {
        let g = weighted_sample();
        let path = temp_path("weighted-v1.oms");
        write_stream_file_v1(&g, &path).unwrap();
        let stream = DiskStream::open(&path).unwrap();
        assert_eq!(stream.version(), StreamFormatVersion::V1);
        assert_eq!(stream.total_node_weight(), g.total_node_weight());
        let back = read_stream_file(&path).unwrap();
        assert_eq!(g, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_files_read_with_implicit_unit_weights() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let path = temp_path("v1-implicit.oms");
        write_stream_file_v1(&g, &path).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        assert_eq!(stream.version(), StreamFormatVersion::V1);
        assert_eq!(stream.total_node_weight(), 5);
        stream
            .stream_nodes(|node| {
                assert_eq!(node.weight, 1);
                assert!(node.edge_weights.iter().all(|&w| w == 1));
            })
            .unwrap();
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
                ..StreamWriteOptions::default()
            },
        )
        .unwrap();
        let collect = |path: &Path| {
            let mut seen: Vec<(NodeId, NodeWeight, Vec<NodeId>, Vec<EdgeWeight>)> = Vec::new();
            DiskStream::open(path)
                .unwrap()
                .stream_nodes(|n| {
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
    fn v2_header_carries_total_weight_without_a_counting_pass() {
        let g = weighted_sample();
        let path = temp_path("header-total.oms");
        write_stream_file(&g, &path).unwrap();
        let stream = DiskStream::open(&path).unwrap();
        assert_eq!(stream.version(), StreamFormatVersion::V2);
        assert_eq!(stream.total_node_weight(), 3 + 1 + 1 + 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_total_weight_mismatch_is_a_typed_error() {
        let g = weighted_sample();
        let path = temp_path("total-mismatch.oms");
        write_stream_file(&g, &path).unwrap();
        // Corrupt the header total (bytes 24..32 in v2).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[24..32].copy_from_slice(&99u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        assert_eq!(stream.total_node_weight(), 99);
        match stream.stream_nodes(|_| {}).unwrap_err() {
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
    fn v2_unit_weight_header_total_must_equal_n() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let path = temp_path("unit-total.oms");
        write_stream_file(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
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
    fn zero_node_weight_in_body_is_a_typed_error() {
        let g = weighted_sample();
        let path = temp_path("zero-weight.oms");
        write_stream_file(&g, &path).unwrap();
        // First body byte after the 33-byte v2 header is node 0's weight.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[33..41].copy_from_slice(&0u64.to_le_bytes());
        // Keep the header total consistent with the tampered body so the
        // zero-weight check is what fires.
        bytes[24..32].copy_from_slice(&(12u64 - 3).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        match stream.stream_nodes(|_| {}).unwrap_err() {
            GraphError::WeightOutOfRange {
                what, node, value, ..
            } => {
                assert_eq!(what, "node");
                assert_eq!(node, 0);
                assert_eq!(value, 0);
            }
            other => panic!("expected WeightOutOfRange, got: {other}"),
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
        let g = b.build();
        let path = temp_path("overflow-total.oms");
        write_stream_file(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let half = 1u64 << 63;
        // v2 header is 33 bytes; node 0's weight follows, node 1's weight
        // sits after node 0's degree (4) + one neighbor (4).
        bytes[33..41].copy_from_slice(&half.to_le_bytes());
        bytes[49..57].copy_from_slice(&half.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        match stream.stream_nodes(|_| {}).unwrap_err() {
            GraphError::Parse(msg) => assert!(msg.contains("overflow"), "{msg}"),
            other => panic!("expected a typed overflow error, got: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_write_rejects_weights_beyond_u32() {
        let mut b = GraphBuilder::new(2);
        b.set_node_weight(0, u32::MAX as u64 + 1).unwrap();
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        let path = temp_path("overflow-v1.oms");
        match write_stream_file_v1(&g, &path).unwrap_err() {
            GraphError::WeightOutOfRange {
                what, value, max, ..
            } => {
                assert_eq!(what, "node");
                assert_eq!(value, u32::MAX as u64 + 1);
                assert_eq!(max, u32::MAX as u64);
            }
            other => panic!("expected WeightOutOfRange, got: {other}"),
        }
        // v2 represents the same weight losslessly.
        write_stream_file(&g, &path).unwrap();
        let back = read_stream_file(&path).unwrap();
        assert_eq!(back.node_weight(0), u32::MAX as u64 + 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_weight_graph_is_rejected_at_write_time() {
        // A hand-built graph with a zero edge weight must not produce a file.
        let g = CsrGraph::from_csr(vec![0, 1, 2], vec![1, 0], vec![0, 0], vec![1, 1]).unwrap();
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
        let g = b.build();
        for (name, version) in [
            ("weights-v2.oms", StreamFormatVersion::V2),
            ("weights-v1.oms", StreamFormatVersion::V1),
        ] {
            let path = temp_path(name);
            write_stream_file_with(
                &g,
                &path,
                StreamWriteOptions {
                    version,
                    ..StreamWriteOptions::default()
                },
            )
            .unwrap();
            let stream = DiskStream::open(&path).unwrap();
            assert_eq!(stream.total_node_weight(), 31, "{name}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn disk_stream_can_be_streamed_twice() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let path = temp_path("twice.oms");
        write_stream_file(&g, &path).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        let mut first = Vec::new();
        stream.stream_nodes(|n| first.push(n.node)).unwrap();
        let mut second = Vec::new();
        stream.stream_nodes(|n| second.push(n.node)).unwrap();
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

    #[test]
    fn disk_batches_match_per_node_pass() {
        let g = CsrGraph::from_edges(9, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (7, 8)])
            .unwrap();
        let path = temp_path("batches.oms");
        write_stream_file(&g, &path).unwrap();
        let collect = |stream: &mut DiskStream, batch_size: usize| {
            let mut seen: Vec<(u32, Vec<u32>)> = Vec::new();
            stream
                .for_each_batch(batch_size, &mut |batch| {
                    for n in batch.iter() {
                        seen.push((n.node, n.neighbors.to_vec()));
                    }
                })
                .unwrap();
            seen
        };
        let mut reference = Vec::new();
        let mut stream = DiskStream::open(&path).unwrap();
        stream
            .stream_nodes(|n| reference.push((n.node, n.neighbors.to_vec())))
            .unwrap();
        for batch_size in [1, 2, 4, 100] {
            assert_eq!(collect(&mut stream, batch_size), reference);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_a_typed_error() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        for (name, version) in [
            ("truncated-v2.oms", StreamFormatVersion::V2),
            ("truncated-v1.oms", StreamFormatVersion::V1),
        ] {
            let path = temp_path(name);
            write_stream_file_with(
                &g,
                &path,
                StreamWriteOptions {
                    version,
                    ..StreamWriteOptions::default()
                },
            )
            .unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();
            let mut stream = DiskStream::open(&path).unwrap();
            match stream.stream_nodes(|_| {}).unwrap_err() {
                GraphError::Truncated {
                    expected_nodes,
                    read_nodes,
                } => {
                    assert_eq!(expected_nodes, 6);
                    assert!(read_nodes < 6, "read {read_nodes} of 6");
                }
                other => panic!("expected Truncated, got: {other}"),
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn rewind_after_truncation_error_fails_identically() {
        // Regression: after a pass died on a truncated file, rewinding and
        // streaming again must fail with the *same* typed error from the
        // top of the file — never resume mid-file or stream short.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let path = temp_path("truncated-rewind.oms");
        write_stream_file(&g, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        let expect_truncated = |err: GraphError| match err {
            GraphError::Truncated {
                expected_nodes,
                read_nodes,
            } => (expected_nodes, read_nodes),
            other => panic!("expected Truncated, got: {other}"),
        };
        let mut count_first = 0usize;
        let first = expect_truncated(stream.stream_nodes(|_| count_first += 1).unwrap_err());
        stream.reset().unwrap();
        let mut count_second = 0usize;
        let second = expect_truncated(stream.stream_nodes(|_| count_second += 1).unwrap_err());
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
        let path = temp_path("mismatch-rewind.oms");
        write_stream_file(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[16..24].copy_from_slice(&4u64.to_le_bytes());
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
        let first = as_mismatch(stream.stream_nodes(|_| {}).unwrap_err());
        stream.reset().unwrap();
        let second = as_mismatch(stream.stream_nodes(|_| {}).unwrap_err());
        assert_eq!(first, second);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_detects_a_file_swapped_between_passes() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let path = temp_path("swapped.oms");
        write_stream_file(&g, &path).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        stream.stream_nodes(|_| {}).unwrap();
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
        stream.stream_nodes(|_| {}).unwrap();
        write_stream_file_v1(&g, &path).unwrap();
        assert!(stream.reset().is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_on_an_intact_file_allows_further_passes() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let path = temp_path("reset-ok.oms");
        write_stream_file(&g, &path).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        let mut first = Vec::new();
        stream.stream_nodes(|n| first.push(n.node)).unwrap();
        stream.reset().unwrap();
        let mut second = Vec::new();
        stream.stream_nodes(|n| second.push(n.node)).unwrap();
        assert_eq!(first, second);
        std::fs::remove_file(&path).ok();
    }

    fn write_v3(graph: &CsrGraph, path: &Path) {
        write_stream_file_with(
            graph,
            path,
            StreamWriteOptions {
                version: StreamFormatVersion::V3,
                ..StreamWriteOptions::default()
            },
        )
        .unwrap();
    }

    #[test]
    fn v3_roundtrip_unweighted() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        let path = temp_path("v3-unweighted.oms");
        write_v3(&g, &path);
        let stream = DiskStream::open(&path).unwrap();
        assert_eq!(stream.version(), StreamFormatVersion::V3);
        assert_eq!(stream.total_node_weight(), 6);
        let back = read_stream_file(&path).unwrap();
        assert_eq!(g, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v3_roundtrip_weighted() {
        let g = weighted_sample();
        let path = temp_path("v3-weighted.oms");
        write_v3(&g, &path);
        let stream = DiskStream::open(&path).unwrap();
        assert_eq!(stream.version(), StreamFormatVersion::V3);
        assert_eq!(stream.total_node_weight(), g.total_node_weight());
        let back = read_stream_file(&path).unwrap();
        assert_eq!(g, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v3_batches_match_per_node_pass() {
        let g = weighted_sample();
        let path = temp_path("v3-batches.oms");
        write_v3(&g, &path);
        let mut reference = Vec::new();
        let mut stream = DiskStream::open(&path).unwrap();
        stream
            .stream_nodes(|n| {
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

    #[test]
    fn v3_truncated_file_is_a_typed_error() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let path = temp_path("v3-truncated.oms");
        write_v3(&g, &path);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        match stream.stream_nodes(|_| {}).unwrap_err() {
            GraphError::Truncated { expected_nodes, .. } => assert_eq!(expected_nodes, 6),
            other => panic!("expected Truncated, got: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_info_is_a_typed_error() {
        // Regression: `stream_file_info` used to compute the trailer with a
        // saturating subtraction, silently reporting a 0-byte trailer for a
        // file whose header announces a body longer than the file. It must
        // raise the same typed error as the read path instead.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        for (name, version) in [
            ("info-truncated-v2.oms", StreamFormatVersion::V2),
            ("info-truncated-v3.oms", StreamFormatVersion::V3),
        ] {
            let path = temp_path(name);
            let options = StreamWriteOptions {
                version,
                ..StreamWriteOptions::default()
            };
            write_stream_file_with(&g, &path, options).unwrap();
            let intact = stream_file_info(&path).unwrap();
            assert_eq!(intact.trailer_bytes, 0, "{version:?}");
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
            match stream_file_info(&path).unwrap_err() {
                GraphError::Truncated {
                    expected_nodes,
                    read_nodes,
                } => {
                    assert_eq!(expected_nodes, 6, "{version:?}");
                    assert!(read_nodes < 6, "{version:?}: read {read_nodes} of 6");
                }
                other => panic!("{version:?}: expected Truncated, got: {other}"),
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn v3_nonzero_header_padding_is_a_typed_error() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let path = temp_path("v3-misaligned.oms");
        write_v3(&g, &path);
        let mut bytes = std::fs::read(&path).unwrap();
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
    fn v3_oversized_degree_is_a_typed_error() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let path = temp_path("v3-degree.oms");
        write_v3(&g, &path);
        let mut bytes = std::fs::read(&path).unwrap();
        // Node 0's degree is the first u32 of the degrees section (offset 40).
        bytes[40..44].copy_from_slice(&1000u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        match stream.stream_nodes(|_| {}).unwrap_err() {
            GraphError::CountMismatch { what, .. } => assert_eq!(what, "edge entries"),
            other => panic!("expected CountMismatch, got: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v3_zero_node_weight_is_a_typed_error() {
        let g = weighted_sample();
        let path = temp_path("v3-zero-weight.oms");
        write_v3(&g, &path);
        let info = stream_file_info(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The node-weight section follows the padded degrees section.
        let woff = (info.header_bytes + info.degree_bytes).div_ceil(8) * 8;
        bytes[woff as usize..woff as usize + 8].copy_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        match stream.stream_nodes(|_| {}).unwrap_err() {
            GraphError::WeightOutOfRange { what, node, .. } => {
                assert_eq!(what, "node");
                assert_eq!(node, 0);
            }
            other => panic!("expected WeightOutOfRange, got: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v3_header_total_mismatch_is_a_typed_error() {
        let g = weighted_sample();
        let path = temp_path("v3-total.oms");
        write_v3(&g, &path);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[24..32].copy_from_slice(&99u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        match stream.stream_nodes(|_| {}).unwrap_err() {
            GraphError::CountMismatch { what, expected, .. } => {
                assert_eq!(what, "total node weight");
                assert_eq!(expected, 99);
            }
            other => panic!("expected CountMismatch, got: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v3_streams_identically_to_v2() {
        let g = weighted_sample();
        let v2 = temp_path("ident-v2.oms");
        let v3 = temp_path("ident-v3.oms");
        write_stream_file(&g, &v2).unwrap();
        write_v3(&g, &v3);
        let collect = |path: &Path| {
            let mut seen: Vec<(NodeId, NodeWeight, Vec<NodeId>, Vec<EdgeWeight>)> = Vec::new();
            DiskStream::open(path)
                .unwrap()
                .stream_nodes(|n| {
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
        assert_eq!(collect(&v2), collect(&v3));
        std::fs::remove_file(&v2).ok();
        std::fs::remove_file(&v3).ok();
    }

    #[test]
    fn v2_to_v3_to_v2_conversion_is_content_identical() {
        for (name, g) in [
            (
                "conv-unweighted",
                CsrGraph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]).unwrap(),
            ),
            ("conv-weighted", weighted_sample()),
        ] {
            let a = temp_path(&format!("{name}-a.oms"));
            let b = temp_path(&format!("{name}-b.oms"));
            let c = temp_path(&format!("{name}-c.oms"));
            write_stream_file(&g, &a).unwrap();
            write_v3(&read_stream_file(&a).unwrap(), &b);
            write_stream_file(&read_stream_file(&b).unwrap(), &c).unwrap();
            assert_eq!(
                std::fs::read(&a).unwrap(),
                std::fs::read(&c).unwrap(),
                "{name}: v2→v3→v2 must be byte-identical"
            );
            for p in [&a, &b, &c] {
                std::fs::remove_file(p).ok();
            }
        }
    }

    #[test]
    fn v3_file_info_reports_sections() {
        let g = weighted_sample();
        let path = temp_path("v3-info.oms");
        write_v3(&g, &path);
        let info = stream_file_info(&path).unwrap();
        assert_eq!(info.version, StreamFormatVersion::V3);
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

    /// A bare header of `version` announcing `n` nodes and `m` edges, unit
    /// weights.
    fn raw_header(version: StreamFormatVersion, n: u64, m: u64) -> Vec<u8> {
        let mut bytes = version.magic().to_vec();
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&m.to_le_bytes());
        if version != StreamFormatVersion::V1 {
            bytes.extend_from_slice(&n.to_le_bytes());
        }
        bytes.push(0);
        bytes.resize(version.header_len(), 0);
        bytes
    }

    const ALL_VERSIONS: [StreamFormatVersion; 3] = [
        StreamFormatVersion::V1,
        StreamFormatVersion::V2,
        StreamFormatVersion::V3,
    ];

    #[test]
    fn oversized_degree_field_is_rejected_before_anything_is_buffered() {
        // Regression: a 37-byte v2 file whose first degree field is
        // 0xFFFF_FFFF made the reader reserve 16 GiB before looking at it.
        for version in [StreamFormatVersion::V1, StreamFormatVersion::V2] {
            let mut bytes = raw_header(version, 1, 1);
            bytes.extend_from_slice(&u32::MAX.to_le_bytes());
            let path = temp_path(&format!("degree-bomb-v{}.oms", version.number()));
            std::fs::write(&path, &bytes).unwrap();
            let mut stream = DiskStream::open(&path).unwrap();
            match stream.stream_nodes(|_| {}).unwrap_err() {
                GraphError::CountMismatch {
                    what,
                    expected,
                    found,
                } => {
                    assert_eq!(what, "edge entries");
                    assert_eq!(expected, 2);
                    assert_eq!(found, u32::MAX as u64);
                }
                other => panic!("{version:?}: expected CountMismatch, got: {other}"),
            }
            assert!(read_stream_file(&path).is_err());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn neighbor_id_beyond_n_is_a_typed_error_before_the_batch_is_handed_on() {
        // Regression: neither reader range-checked neighbor ids, so a file
        // with one id ≥ n panicked every consumer that indexes its per-node
        // state with them (49 bytes in v1/v2: n = 2, m = 1, one neighbor 7).
        for version in ALL_VERSIONS {
            for bad_node in [0u32, 1] {
                let neighbors = if bad_node == 0 { [7, 0] } else { [1, 7] };
                let words = match version {
                    StreamFormatVersion::V3 => [1, 1, neighbors[0], neighbors[1]],
                    _ => [1, neighbors[0], 1, neighbors[1]],
                };
                let mut bytes = raw_header(version, 2, 1);
                bytes.extend(words.iter().flat_map(|w: &u32| w.to_le_bytes()));
                let path = temp_path(&format!("range-v{}-{bad_node}.oms", version.number()));
                std::fs::write(&path, &bytes).unwrap();
                for batch_size in [1, 4096] {
                    let mut stream = DiskStream::open(&path).unwrap();
                    let mut delivered = 0;
                    let err = stream
                        .for_each_batch(batch_size, &mut |batch| delivered += batch.len())
                        .unwrap_err();
                    match err {
                        GraphError::NodeOutOfRange { node, num_nodes } => {
                            assert_eq!((node, num_nodes), (7, 2), "{version:?}")
                        }
                        other => panic!("{version:?}: expected NodeOutOfRange, got: {other}"),
                    }
                    // Only batches that close before the bad record arrive.
                    let clean_prefix = if batch_size == 1 { bad_node } else { 0 };
                    assert_eq!(delivered, clean_prefix as usize, "{version:?}");
                }
                assert!(matches!(
                    read_stream_file(&path).unwrap_err(),
                    GraphError::NodeOutOfRange { node: 7, .. }
                ));
                std::fs::remove_file(&path).ok();
            }
        }
    }

    #[test]
    fn header_counts_the_file_cannot_hold_are_rejected_at_open() {
        // Regression: `n = 2^60` reached `Vec::with_capacity(n + 1)` (a
        // capacity-overflow panic); consumers size their state from the
        // header, so `open` must refuse counts the file cannot back.
        let huge = 1u64 << 60;
        for version in ALL_VERSIONS {
            for (case, n, m) in [
                ("huge n", huge, 0),
                ("huge m", 4, huge),
                ("overflowing n", u64::MAX / 2, 0),
                ("overflowing m", 4, u64::MAX / 2),
                ("4n > file", 64, 0),
                ("8m > file", 4, 32),
            ] {
                // Header plus 100 body bytes: room for 4 nodes, not for 64.
                let mut bytes = raw_header(version, n, m);
                bytes.resize(version.header_len() + 100, 0);
                let path = temp_path(&format!("header-bomb-v{}.oms", version.number()));
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
                            assert_eq!(expected_nodes, n, "{version:?} {case}");
                            assert!(read_nodes < n, "{version:?} {case}");
                        }
                        GraphError::CountMismatch { .. } => {
                            assert!(case.starts_with("overflowing"), "{version:?} {case}")
                        }
                        other => panic!("{version:?} {case}: unexpected error: {other}"),
                    }
                }
                std::fs::remove_file(&path).ok();
            }
        }
    }

    #[test]
    fn a_file_longer_than_its_body_still_opens() {
        // A snapshot trailer makes the file longer than the header's counts
        // imply; only too-short files are refused.
        let g = weighted_sample();
        for version in ALL_VERSIONS {
            let path = temp_path(&format!("trailing-v{}.oms", version.number()));
            let options = StreamWriteOptions {
                version,
                ..StreamWriteOptions::default()
            };
            write_stream_file_with(&g, &path, options).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.extend_from_slice(b"OMSSNAP1 and then some trailer bytes");
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(read_stream_file(&path).unwrap(), g, "{version:?}");
            assert_eq!(stream_file_info(&path).unwrap().trailer_bytes, 36);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn batches_split_on_edge_mass_and_still_cover_the_stream() {
        // A hub whose degree alone exceeds the entry bound, followed by its
        // low-degree leaves: every version and batch size must deliver the
        // same node sequence, in batches that respect both bounds (a batch
        // may overshoot the entry bound by its last node).
        let leaves = BATCH_ENTRY_BOUND as u32 + 500;
        let mut b = GraphBuilder::new(leaves as usize + 1);
        for v in 1..=leaves {
            b.add_weighted_edge(0, v, 1 + (v % 3) as u64).unwrap();
        }
        b.set_node_weight(7, 5).unwrap();
        let g = b.build();
        for version in ALL_VERSIONS {
            let path = temp_path(&format!("hub-v{}.oms", version.number()));
            let options = StreamWriteOptions {
                version,
                ..StreamWriteOptions::default()
            };
            write_stream_file_with(&g, &path, options).unwrap();
            assert_eq!(read_stream_file(&path).unwrap(), g, "{version:?}");
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
                assert_eq!(sizes[0], (1, leaves as usize), "{version:?}");
                for &(nodes, entries) in &sizes[1..] {
                    assert!(nodes <= batch_size && entries <= BATCH_ENTRY_BOUND);
                }
                // Past the hub only the node bound binds.
                let full = sizes[1..sizes.len() - 1].iter();
                assert!(full.clone().all(|&(nodes, _)| nodes == batch_size));
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn header_body_count_mismatch_is_a_typed_error() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let path = temp_path("mismatch.oms");
        write_stream_file(&g, &path).unwrap();
        // Lie in the header: claim one edge more than the body holds.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[16..24].copy_from_slice(&4u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut stream = DiskStream::open(&path).unwrap();
        let err = stream.stream_nodes(|_| {}).unwrap_err();
        match err {
            GraphError::CountMismatch {
                what,
                expected,
                found,
            } => {
                assert_eq!(what, "edge entries");
                assert_eq!(expected, 8);
                assert_eq!(found, 6);
            }
            other => panic!("expected CountMismatch, got: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
