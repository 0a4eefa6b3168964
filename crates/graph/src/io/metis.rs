//! The METIS / KaHIP graph text format.
//!
//! The header line is `n m [fmt]` where `fmt` is a three-digit flag string:
//! the last digit enables edge weights, the middle digit node weights (the
//! first digit, vertex sizes, is not supported). Node ids in the body are
//! 1-based. Comment lines start with `%`.
//!
//! ## One tokenizer, streamed
//!
//! There is one reader: [`MetisStream`], a [`NodeStream`] whose every pass
//! re-opens the input and scans it with a chunked `read` and a hand-rolled
//! decimal tokenizer that fills [`NodeBatch`] columns directly — `O(batch)`
//! memory, no per-line `String`, no edge list. [`read_metis`] and
//! [`read_metis_str`] are [`collect_graph`] over it, so the materialised and
//! the streamed load parse, check and fail identically. Nodes are delivered
//! 0-based in file order with their adjacency in file order; self-loop
//! entries are dropped.
//!
//! ## What is checked
//!
//! Every malformed input is a typed [`GraphError::MetisParse`] carrying the
//! 1-based line number of the offending line (line 0 = a property of the
//! whole file, found at its end), so corpus tooling can point at the byte
//! that broke. Zero node or edge weights are rejected — the METIS balance
//! constraint divides by block weights, and a weight-0 node would silently
//! corrupt every capacity computation downstream.
//!
//! * **Header, before anything is sized from it:** `n` is at most the bytes
//!   after the header line + 1 (every node owns a line) and `2m` at most
//!   half of them (every adjacency entry is a digit and a separator), so a
//!   24-byte file announcing four billion nodes is an error, not an
//!   allocation.
//! * **Per token:** ids in `1..=n`, weights positive and within `u64`.
//! * **At the end of every pass,** what one pass can verify in `O(1)`
//!   memory: the node-line count is `n`, the adjacency entries sum to `2m`,
//!   and the lists are symmetric — every entry is filed in a
//!   [`SymmetryProof`](crate::SymmetryProof), which balances when every
//!   undirected edge is listed from both endpoints equally often with the
//!   same weight. The stream says so ([`NodeStream::proves_symmetry`]), and
//!   its consumers — the drive loop's tally and the measurement walk in
//!   `oms-core`, [`collect_graph`], the `e-*` edge jobs — rely on this
//!   proof instead of making their own: a pass over lists that are not
//!   symmetric fails here, through the `for_each_node` / `for_each_batch`
//!   that delivered it, before any of them reads what it tallied.
//! * **Between passes:** [`NodeStream::reset`] re-opens the input and
//!   compares its length and header with what [`MetisStream::open`] saw.

use crate::batch::NodeBatch;
use crate::stream::{
    collect_graph, NodeStream, StreamedNode, SymmetryProof, BATCH_ENTRY_BOUND, DEFAULT_BATCH_SIZE,
};
use crate::{CsrGraph, EdgeWeight, GraphError, NodeId, NodeWeight, Result};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Reads a graph in METIS format from a file: [`collect_graph`] over a
/// [`MetisStream`].
pub fn read_metis<P: AsRef<Path>>(path: P) -> Result<CsrGraph> {
    collect_graph(&mut MetisStream::open(path)?)
}

/// Reads a graph in METIS format from a string: [`collect_graph`] over a
/// [`MetisStream`].
pub fn read_metis_str(contents: &str) -> Result<CsrGraph> {
    collect_graph(&mut MetisStream::from_text(contents)?)
}

/// Builds the typed METIS error for 1-based line `line` (0 = whole file).
fn metis_err(line: u64, msg: impl Into<String>) -> GraphError {
    GraphError::MetisParse {
        line,
        msg: msg.into(),
    }
}

/// Bytes read per `read` call of a pass. Deep enough to keep the kernel's
/// readahead busy; a line longer than this carries over to the next chunk.
const READ_BUFFER_BYTES: usize = 1 << 20;

/// Smallest read buffer: room for any valid token (20 digits) with slack.
const MIN_BUFFER_BYTES: usize = 64;

/// What the header line declares, and where it is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Header {
    n: usize,
    m: usize,
    node_weights: bool,
    edge_weights: bool,
    /// 1-based physical line of the header.
    line: u64,
}

/// Where the text comes from; every pass opens it anew.
#[derive(Debug)]
enum Input<'a> {
    File(PathBuf),
    Text(&'a [u8]),
}

/// A one-pass stream over METIS text, read straight off the file in
/// `O(batch)` memory. Every pass checks the node-line count, the entry count
/// and the symmetry of the lists; [`NodeStream::reset`] re-opens the input
/// and compares it with what [`MetisStream::open`] saw.
///
/// The header is parsed — and bounded against the input's length — when the
/// stream is opened, so `num_nodes`/`num_edges` are safe to size buffers
/// from. `c(V)` is `n` for files without node weights; a file with node
/// weights (fmt 10/11) pays one extra weight-only scan at open, because
/// streaming algorithms need the total up front to compute `L_max`.
#[derive(Debug)]
pub struct MetisStream<'a> {
    input: Input<'a>,
    header: Header,
    /// Length of the input when it was opened; a pass over an input of
    /// another length is a pass over another file.
    bytes: u64,
    total_node_weight: NodeWeight,
    /// Bytes read per chunk of a pass; results never depend on it.
    buffer_bytes: usize,
}

impl MetisStream<'static> {
    /// Opens a METIS file and reads its header (and, for fmt 10/11, sums
    /// its node weights).
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        Self::new(Input::File(path.as_ref().to_path_buf()))
    }
}

impl<'a> MetisStream<'a> {
    /// Streams METIS text held in memory; otherwise like
    /// [`MetisStream::open`].
    pub(crate) fn from_text(text: &'a str) -> Result<Self> {
        Self::new(Input::Text(text.as_bytes()))
    }

    fn new(input: Input<'a>) -> Result<Self> {
        let mut scanner = Scanner::new(&input, READ_BUFFER_BYTES)?;
        scanner.read_header()?;
        let (header, bytes) = (scanner.header, scanner.bytes);
        let total_node_weight = if header.node_weights {
            scanner.sum_node_weights()?
        } else {
            header.n as NodeWeight
        };
        Ok(MetisStream {
            input,
            header,
            bytes,
            total_node_weight,
            buffer_bytes: READ_BUFFER_BYTES,
        })
    }

    /// Opens the input for one pass, checks that it is still the input this
    /// stream was opened on, and leaves the scanner on the first body line.
    fn open_pass(&self, buffer_bytes: usize) -> Result<Scanner<'a>> {
        let mut scanner = Scanner::new(&self.input, buffer_bytes)?;
        // An input of another length is another file: its header stays
        // unread (and so unequal), whatever it says.
        if scanner.bytes == self.bytes {
            scanner.read_header()?;
        }
        if scanner.header != self.header {
            return Err(metis_err(
                self.header.line,
                format!(
                    "the file changed between passes: it was opened with {} bytes and the \
                     header 'n = {}, m = {}', and now has {} bytes",
                    self.bytes, self.header.n, self.header.m, scanner.bytes
                ),
            ));
        }
        Ok(scanner)
    }
}

impl NodeStream for MetisStream<'_> {
    fn num_nodes(&self) -> usize {
        self.header.n
    }

    fn num_edges(&self) -> usize {
        self.header.m
    }

    fn total_node_weight(&self) -> NodeWeight {
        self.total_node_weight
    }

    fn reset(&mut self) -> Result<()> {
        // The header sits in the first few bytes; the pass itself re-checks
        // it with the full buffer.
        self.open_pass(MIN_BUFFER_BYTES).map(drop)
    }

    /// Every pass files its entries in a [`SymmetryProof`] and fails at its
    /// end, with a [`GraphError::MetisParse`] on line 0, unless the proof
    /// balances.
    fn proves_symmetry(&self) -> bool {
        true
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
        let mut scanner = self.open_pass(self.buffer_bytes)?;
        // Sized once: a batch closes at `BATCH_ENTRY_BOUND` entries, plus
        // the one node that crossed it.
        let entries = (2 * self.header.m).min(2 * BATCH_ENTRY_BOUND);
        let mut batch = NodeBatch::with_capacity(batch_size.min(self.header.n), entries);
        loop {
            let more = scanner.fill(&mut batch, batch_size)?;
            if !batch.is_empty() {
                f(&batch);
            }
            if !more {
                return Ok(());
            }
        }
    }
}

/// Blanks separate tokens within a line.
#[inline]
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

/// A token ends at a blank or at the end of its line.
#[inline]
fn is_delimiter(b: u8) -> bool {
    b == b'\n' || is_blank(b)
}

/// The decode state of one pass: a chunked reader, the byte-level tokenizer
/// on top of it, and the running totals the end-of-pass checks compare
/// with the header.
///
/// `buf[pos..end]` is the unread text that is safe to tokenize: it ends
/// right after a delimiter, so no token in it continues in the next chunk
/// (the bytes in `buf[end..len]` are the head of a token that does, and move
/// to the front on the next refill). The last line always ends in `\n`: one
/// is appended when the input does not.
struct Scanner<'a> {
    source: Box<dyn Read + 'a>,
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    len: usize,
    eof: bool,
    /// Last byte the source delivered (`\n` before any).
    last_byte: u8,
    /// Offset of `buf[0]` in the input.
    offset: u64,
    /// 1-based number of the line `pos` is on.
    line: u64,
    header: Header,
    /// Length of the input.
    bytes: u64,
    /// Node lines read so far.
    node: usize,
    /// Adjacency entries read so far (self-loops excluded).
    entries: u64,
    /// Those entries, filed by id order.
    proof: SymmetryProof,
    weight_sum: NodeWeight,
}

impl<'a> Scanner<'a> {
    /// Opens `input` at its first byte, header unread.
    fn new(input: &Input<'a>, buffer_bytes: usize) -> Result<Self> {
        let (source, bytes): (Box<dyn Read + 'a>, u64) = match *input {
            Input::File(ref path) => {
                let file = File::open(path)?;
                let bytes = file.metadata()?.len();
                (Box::new(file), bytes)
            }
            Input::Text(text) => (Box::new(text), text.len() as u64),
        };
        // No larger than the input; one spare byte for the final newline.
        let capacity = buffer_bytes
            .min(usize::try_from(bytes).unwrap_or(usize::MAX))
            .max(MIN_BUFFER_BYTES);
        Ok(Scanner {
            source,
            buf: vec![0; capacity + 1],
            pos: 0,
            end: 0,
            len: 0,
            eof: false,
            last_byte: b'\n',
            offset: 0,
            line: 1,
            header: Header::default(),
            bytes,
            node: 0,
            entries: 0,
            proof: SymmetryProof::default(),
            weight_sum: 0,
        })
    }

    fn err(&self, msg: impl Into<String>) -> GraphError {
        metis_err(self.line, msg)
    }

    /// Moves the unread tail to the front of the buffer and reads on.
    /// Returns `false` once the input is exhausted and consumed.
    #[cold]
    fn refill(&mut self) -> Result<bool> {
        if self.eof {
            // `end == len` since the read that hit the end of the input.
            return Ok(false);
        }
        self.buf.copy_within(self.pos..self.len, 0);
        self.offset += self.pos as u64;
        self.len -= self.pos;
        self.pos = 0;
        let capacity = self.buf.len() - 1;
        while self.len < capacity && !self.eof {
            match self.source.read(&mut self.buf[self.len..capacity]) {
                Ok(0) => {
                    self.eof = true;
                    if self.last_byte != b'\n' {
                        self.buf[self.len] = b'\n';
                        self.len += 1;
                    }
                }
                Ok(read) => {
                    self.len += read;
                    self.last_byte = self.buf[self.len - 1];
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        let unread = &self.buf[..self.len];
        self.end = unread
            .iter()
            .rposition(|&b| is_delimiter(b))
            .map_or(0, |last| last + 1);
        Ok(self.len > 0)
    }

    /// Skips blanks and returns the next byte of the current line without
    /// consuming it (`\n` at its end), or `None` at the end of the input.
    /// The byte may open a token that does not end within the buffer; see
    /// [`Scanner::check_token_fits`].
    #[inline(always)]
    fn peek(&mut self) -> Result<Option<u8>> {
        loop {
            while self.pos < self.end {
                let b = self.buf[self.pos];
                if !is_blank(b) {
                    return Ok(Some(b));
                }
                self.pos += 1;
            }
            if !self.refill()? {
                return Ok(None);
            }
            if self.end == 0 {
                return Ok(Some(self.buf[0]));
            }
        }
    }

    /// After a [`Scanner::peek`] that found a token: the token is whole,
    /// unless a full buffer holds no delimiter at all.
    #[inline(always)]
    fn check_token_fits(&self) -> Result<()> {
        if self.pos < self.end {
            return Ok(());
        }
        Err(self.err(format!(
            "token longer than the {}-byte read buffer",
            self.buf.len() - 1
        )))
    }

    /// The next token of the current line as text, or `None` at its end.
    fn token(&mut self) -> Result<Option<String>> {
        match self.peek()? {
            None | Some(b'\n') => Ok(None),
            Some(_) => {
                self.check_token_fits()?;
                let rest = &self.buf[self.pos..self.end];
                let len = rest.iter().position(|&b| is_delimiter(b));
                let len = len.expect("the tokenizable region ends in a delimiter");
                let token = String::from_utf8_lossy(&rest[..len]).into_owned();
                self.pos += len;
                Ok(Some(token))
            }
        }
    }

    /// The next number of the current line, or `None` at its end (the `\n`
    /// stays unread, see [`Scanner::end_line`]). `what` names the field in
    /// the error for a token that is not a `u64`.
    ///
    /// `inline(always)`, like [`Scanner::peek`]: called out of line, the
    /// `Result<Option<u64>>` of every token travels through memory and the
    /// scan of the scale-18 RMAT file takes 0.11 s instead of 0.07 s.
    #[inline(always)]
    fn number(&mut self, what: &'static str) -> Result<Option<u64>> {
        match self.peek()? {
            // (`None`: every line ends in `\n`, so only an empty input.)
            None | Some(b'\n') => return Ok(None),
            Some(_) => self.check_token_fits()?,
        }
        // The region ends in a delimiter, which stops the digit loop.
        let (mut i, mut value) = (self.pos, 0u64);
        loop {
            let digit = self.buf[i].wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            value = value.wrapping_mul(10).wrapping_add(digit as u64);
            i += 1;
        }
        // Up to 19 digits cannot overflow; anything else takes the slow road.
        let digits = i - self.pos;
        if (1..=19).contains(&digits) && is_delimiter(self.buf[i]) {
            self.pos = i;
            return Ok(Some(value));
        }
        self.number_slow(what)
    }

    /// `str::parse` on the token: long numbers, a leading `+`, and the
    /// error for everything else.
    #[cold]
    fn number_slow(&mut self, what: &'static str) -> Result<Option<u64>> {
        let line = self.line;
        let token = self.token()?.expect("the caller saw a token");
        match token.parse() {
            Ok(value) => Ok(Some(value)),
            Err(_) => Err(metis_err(line, format!("invalid {what} '{token}'"))),
        }
    }

    /// Consumes the `\n` a `None` of [`Scanner::peek`]'s callers stopped at.
    #[inline]
    fn end_line(&mut self) {
        debug_assert_eq!(self.buf[self.pos], b'\n');
        self.pos += 1;
        self.line += 1;
    }

    /// Skips the rest of the current line, whatever it holds.
    fn skip_line(&mut self) -> Result<()> {
        loop {
            // Every `\n` is a delimiter, hence before `end`.
            let rest = &self.buf[self.pos..self.end];
            if let Some(newline) = rest.iter().position(|&b| b == b'\n') {
                self.pos += newline + 1;
                self.line += 1;
                return Ok(());
            }
            // Nothing buffered belongs to another line: drop it all.
            self.pos = self.len;
            if !self.refill()? {
                return Ok(());
            }
        }
    }

    /// Skips comment and blank lines up to the header line and parses it
    /// into `self.header`; the counts are bounded by the bytes that follow
    /// it. Leaves the scanner on the first body line.
    fn read_header(&mut self) -> Result<()> {
        loop {
            match self.peek()? {
                None => return Err(metis_err(0, "missing METIS header line")),
                Some(b'%') => self.skip_line()?,
                Some(b'\n') => self.end_line(),
                Some(_) => break,
            }
        }
        let n = self.number("node count")?;
        let n = n.ok_or_else(|| self.err("missing node count"))?;
        let m = self.number("edge count")?;
        let m = m.ok_or_else(|| self.err("missing edge count"))?;
        let fmt = self.token()?.unwrap_or_else(|| "0".into());
        let (node_weights, edge_weights) = match fmt.as_str() {
            "0" | "00" | "000" => (false, false),
            "1" | "01" | "001" => (false, true),
            "10" | "010" => (true, false),
            "11" | "011" => (true, true),
            other if other.len() == 3 && other.starts_with('1') => {
                return Err(self.err(format!(
                    "METIS fmt '{other}' requests vertex sizes, which are not supported"
                )))
            }
            other => {
                return Err(self.err(format!(
                    "unsupported METIS fmt field '{other}' (expected 0, 1, 10 or 11)"
                )))
            }
        };
        if let Some(extra) = self.token()? {
            return Err(self.err(format!(
                "unexpected extra header token '{extra}' (header is 'n m [fmt]')"
            )));
        }
        let line = self.line;
        self.end_line();

        // Everything downstream sizes its state from `n` and `m`: refuse
        // counts the rest of the file cannot hold. A node line is at least
        // its `\n` (the last may lack it), an adjacency entry at least a
        // digit and a separator.
        let body = self.bytes.saturating_sub(self.offset + self.pos as u64);
        if n > body + 1 {
            return Err(metis_err(
                line,
                format!("header declares {n} nodes but only {body} bytes follow it"),
            ));
        }
        if m > (body + 1) / 4 {
            return Err(metis_err(
                line,
                format!(
                    "header declares {m} edges (two entries each) but only {body} bytes follow it"
                ),
            ));
        }
        if n > NodeId::MAX as u64 + 1 {
            return Err(metis_err(
                line,
                format!("node count {n} exceeds the 32-bit node id space"),
            ));
        }
        self.header = Header {
            n: n as usize,
            m: m as usize,
            node_weights,
            edge_weights,
            line,
        };
        Ok(())
    }

    /// Skips comment lines — and, past the last node, blank lines — up to
    /// the next node line. Returns `false` at the end of the input.
    fn seek_node_line(&mut self) -> Result<bool> {
        let complete = self.node == self.header.n;
        loop {
            match self.peek()? {
                None => return Ok(false),
                Some(b'%') => self.skip_line()?,
                Some(b'\n') if complete => self.end_line(),
                Some(_) if complete => {
                    return Err(self.err(format!(
                        "more than {} node lines in METIS file",
                        self.header.n
                    )))
                }
                Some(_) => return Ok(true),
            }
        }
    }

    /// Reads the weight that opens the current node line (1 when the format
    /// has none) and adds it to the running total.
    fn node_weight(&mut self) -> Result<NodeWeight> {
        if !self.header.node_weights {
            return Ok(1);
        }
        let weight = self.number("node weight")?;
        let weight = weight.ok_or_else(|| self.err("missing node weight"))?;
        if weight == 0 {
            return Err(self.err(format!(
                "node {} has weight 0 (weights must be positive)",
                self.node + 1
            )));
        }
        let sum = self.weight_sum.checked_add(weight);
        self.weight_sum = sum.ok_or_else(|| self.err("total node weight overflows u64"))?;
        Ok(weight)
    }

    /// The weight-only scan behind [`MetisStream::open`] for fmt 10/11: the
    /// first token of every node line, the rest of the line skipped.
    fn sum_node_weights(mut self) -> Result<NodeWeight> {
        while self.seek_node_line()? {
            self.node_weight()?;
            self.skip_line()?;
            self.node += 1;
        }
        self.check_node_count()?;
        Ok(self.weight_sum)
    }

    /// Clears `batch` and refills it with node lines until it holds
    /// `max_nodes` nodes or [`BATCH_ENTRY_BOUND`] adjacency entries. Returns
    /// `true` while the input has not ended; the pass's checks run when it
    /// does.
    fn fill(&mut self, batch: &mut NodeBatch, max_nodes: usize) -> Result<bool> {
        batch.clear();
        let n = self.header.n as u64;
        let edge_weights = self.header.edge_weights;
        while batch.len() < max_nodes && batch.total_edge_entries() < BATCH_ENTRY_BOUND {
            if !self.seek_node_line()? {
                self.check_pass()?;
                return Ok(false);
            }
            let node = self.node as NodeId;
            let weight = self.node_weight()?;
            while let Some(id) = self.number("neighbor id")? {
                if id == 0 || id > n {
                    return Err(self.err(format!("neighbor id {id} out of range 1..={n}")));
                }
                let neighbor = (id - 1) as NodeId;
                let edge_weight = if edge_weights {
                    match self.number("edge weight")? {
                        None => return Err(self.err("missing edge weight")),
                        Some(0) => {
                            return Err(self.err(format!(
                                "edge {{{}, {id}}} has weight 0 (weights must be positive)",
                                self.node + 1
                            )))
                        }
                        Some(w) => w,
                    }
                } else {
                    1
                };
                if neighbor == node {
                    continue; // self-loops are dropped
                }
                self.entries += 1;
                self.proof.walk_entry(node, neighbor, edge_weight);
                batch.neighbors_vec_mut().push(neighbor);
                if edge_weights {
                    batch.edge_weights_vec_mut().push(edge_weight);
                }
            }
            if !edge_weights {
                batch.unit_fill_edge_weights();
            }
            self.end_line();
            batch.finish_node(node, weight);
            self.node += 1;
        }
        Ok(true)
    }

    fn check_node_count(&self) -> Result<()> {
        if self.node != self.header.n {
            return Err(metis_err(
                0,
                format!("expected {} node lines, found {}", self.header.n, self.node),
            ));
        }
        Ok(())
    }

    /// The end-of-pass checks: node lines, adjacency entries, symmetry.
    fn check_pass(&self) -> Result<()> {
        self.check_node_count()?;
        let m = self.header.m;
        if self.entries != 2 * m as u64 {
            return Err(metis_err(
                self.header.line,
                format!(
                    "header declares {m} edges but {} adjacency entries were read \
                     (every edge is listed from both endpoints: expected {})",
                    self.entries,
                    2 * m
                ),
            ));
        }
        if self.proof.check().is_err() {
            return Err(metis_err(
                0,
                "adjacency lists are not symmetric: some edge is not listed from both of \
                 its endpoints with the same weight",
            ));
        }
        Ok(())
    }
}

/// Writes a graph in METIS format to a file.
pub fn write_metis<P: AsRef<Path>>(graph: &CsrGraph, path: P) -> Result<()> {
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    write_metis_to(graph, &mut writer)
}

/// Serialises a graph to a METIS-format string.
///
/// Errors only when the graph carries a zero weight (which the format
/// round-trip would reject on read anyway).
pub fn write_metis_string(graph: &CsrGraph) -> Result<String> {
    let mut buf = Vec::new();
    write_metis_to(graph, &mut buf)?;
    Ok(String::from_utf8(buf).expect("METIS output is ASCII"))
}

fn write_metis_to<W: Write>(graph: &CsrGraph, writer: &mut W) -> Result<()> {
    if let Some(v) = graph.node_weights().iter().position(|&w| w == 0) {
        return Err(GraphError::WeightOutOfRange {
            what: "node",
            node: v as u64,
            value: 0,
            max: NodeWeight::MAX,
        });
    }
    if graph.edge_weights().contains(&0) {
        let v = graph
            .nodes()
            .find(|&v| graph.incident_edge_weights(v).contains(&0))
            .unwrap_or(0);
        return Err(GraphError::WeightOutOfRange {
            what: "edge",
            node: v as u64,
            value: 0,
            max: EdgeWeight::MAX,
        });
    }
    // The METIS reader drops self-loops, so none is written, counted or
    // weighed: the text reads back as the graph without its loops.
    let (mut loops, mut has_edge_weights) = (0, false);
    for v in graph.nodes() {
        for (u, w) in graph.neighbors_weighted(v) {
            loops += usize::from(u == v);
            has_edge_weights |= u != v && w != 1;
        }
    }
    let m = (graph.num_arcs() - loops) / 2;
    let has_node_weights = graph.node_weights().iter().any(|&w| w != 1);
    let fmt = match (has_node_weights, has_edge_weights) {
        (false, false) => "0",
        (false, true) => "1",
        (true, false) => "10",
        (true, true) => "11",
    };
    if fmt == "0" {
        writeln!(writer, "{} {m}", graph.num_nodes())?;
    } else {
        writeln!(writer, "{} {m} {fmt}", graph.num_nodes())?;
    }
    let mut line = Vec::new();
    for v in graph.nodes() {
        line.clear();
        if has_node_weights {
            push_decimal(&mut line, graph.node_weight(v));
        }
        for (u, w) in graph.neighbors_weighted(v).filter(|&(u, _)| u != v) {
            if !line.is_empty() {
                line.push(b' ');
            }
            push_decimal(&mut line, u as u64 + 1);
            if has_edge_weights {
                line.push(b' ');
                push_decimal(&mut line, w);
            }
        }
        line.push(b'\n');
        writer.write_all(&line)?;
    }
    Ok(())
}

/// Appends the decimal digits of `x` to `line`, as `x.to_string()` spells
/// them, without allocating.
fn push_decimal(line: &mut Vec<u8>, mut x: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    line.extend_from_slice(&digits[start..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    type Nodes = Vec<(NodeId, NodeWeight, Vec<NodeId>, Vec<EdgeWeight>)>;

    /// One pass of `stream` in batches of `batch_size`, as owned nodes.
    fn pass(stream: &mut MetisStream<'_>, batch_size: usize) -> Result<Nodes> {
        let mut nodes = Nodes::new();
        stream.for_each_batch(batch_size, &mut |batch| {
            assert!(batch.len() <= batch_size);
            for n in batch.iter() {
                nodes.push((
                    n.node,
                    n.weight,
                    n.neighbors.to_vec(),
                    n.edge_weights.to_vec(),
                ));
            }
        })?;
        Ok(nodes)
    }

    /// What `read_metis_str` would deliver as a stream.
    fn nodes_of(graph: &CsrGraph) -> Nodes {
        graph
            .nodes()
            .map(|v| {
                (
                    v,
                    graph.node_weight(v),
                    graph.neighbors(v).to_vec(),
                    graph.incident_edge_weights(v).to_vec(),
                )
            })
            .collect()
    }

    /// Parses `text` through both entry points — `read_metis_str` and
    /// `MetisStream` passes over a 64-byte read buffer in batches of 1 and
    /// 4096 — and checks that they agree before returning the graph.
    fn parse(text: &str) -> Result<CsrGraph> {
        let graph = read_metis_str(text);
        let streamed = MetisStream::from_text(text).and_then(|stream| {
            let mut stream = stream;
            stream.buffer_bytes = MIN_BUFFER_BYTES;
            let single = pass(&mut stream, 1)?;
            stream.reset()?;
            assert_eq!(
                single,
                pass(&mut stream, 4096)?,
                "batch size changed the pass"
            );
            Ok((stream.num_edges(), stream.total_node_weight(), single))
        });
        match (&graph, &streamed) {
            (Ok(graph), Ok((m, total, nodes))) => {
                assert_eq!(graph.num_edges(), *m);
                assert_eq!(graph.total_node_weight(), *total);
                assert_eq!(&nodes_of(graph), nodes);
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!(
                "entry points disagree on {text:?}: {:?} vs {:?}",
                a.as_ref().map(|_| ()),
                b.as_ref().map(|_| ())
            ),
        }
        graph
    }

    /// The typed (line, message) pair both entry points fail with.
    fn expect_metis_err(text: &str) -> (u64, String) {
        match parse(text).unwrap_err() {
            GraphError::MetisParse { line, msg } => (line, msg),
            other => panic!("expected MetisParse, got: {other}"),
        }
    }

    #[test]
    fn roundtrip_unweighted() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let s = write_metis_string(&g).unwrap();
        let back = parse(&s).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn roundtrip_weighted() {
        let mut b = GraphBuilder::new(3);
        b.set_node_weight(0, 4).unwrap();
        b.add_weighted_edge(0, 1, 2).unwrap();
        b.add_weighted_edge(1, 2, 9).unwrap();
        let g = b.build();
        let s = write_metis_string(&g).unwrap();
        let back = parse(&s).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn bad_fmt_codes_are_typed_errors() {
        for fmt in ["2", "abc", "12", "012", "0110"] {
            let (line, msg) = expect_metis_err(&format!("2 1 {fmt}\n2\n1\n"));
            assert_eq!(line, 1, "fmt '{fmt}'");
            assert!(msg.contains("fmt"), "fmt '{fmt}': {msg}");
        }
        // The vertex-size digit gets its own diagnostic.
        let (line, msg) = expect_metis_err("2 1 100\n2\n1\n");
        assert_eq!(line, 1);
        assert!(msg.contains("vertex sizes"), "{msg}");
    }

    #[test]
    fn truncated_file_reports_missing_lines() {
        // Header says 4 nodes, body holds 2.
        let (line, msg) = expect_metis_err("4 1\n2\n1\n");
        assert_eq!(line, 0);
        assert!(msg.contains("expected 4 node lines"), "{msg}");
        // Cut below what its header needs at the very least, a file fails
        // on the header line, before anything is read.
        let (line, msg) = expect_metis_err("4 3\n2\n1 3\n");
        assert_eq!(line, 1);
        assert!(msg.contains("3 edges"), "{msg}");
    }

    #[test]
    fn weight_count_mismatch_is_a_typed_error_with_line() {
        // fmt=1: every neighbor needs a weight; node 2's line has a dangling
        // neighbor without one.
        let (line, msg) = expect_metis_err("3 2 1\n2 5\n1 5 3\n2 7\n");
        assert_eq!(line, 3);
        assert!(msg.contains("edge weight"), "{msg}");
        // fmt=10: the first token is the node weight; a line with no token
        // at all is a missing node weight.
        let (line, msg) = expect_metis_err("2 0 10\n\n4\n");
        assert_eq!(line, 2);
        assert!(msg.contains("node weight"), "{msg}");
    }

    #[test]
    fn zero_weights_are_rejected() {
        let (line, msg) = expect_metis_err("2 1 10\n0 2\n4 1\n");
        assert_eq!(line, 2);
        assert!(msg.contains("weight 0"), "{msg}");
        let (line, msg) = expect_metis_err("2 1 1\n2 0\n1 0\n");
        assert_eq!(line, 2);
        assert!(msg.contains("weight 0"), "{msg}");
    }

    #[test]
    fn overflowing_weights_are_typed_errors() {
        // 2^64 does not fit a u64 weight.
        let text = "2 1 10\n18446744073709551616 2\n1 1\n";
        let (line, msg) = expect_metis_err(text);
        assert_eq!(line, 2);
        assert!(msg.contains("invalid node weight"), "{msg}");
        // 2^64 - 1 does (20 digits: the tokenizer's slow road), twice it
        // overflows the total.
        let g = parse("2 1 10\n18446744073709551615 2\n1 1\n");
        let (line, msg) = match g.unwrap_err() {
            GraphError::MetisParse { line, msg } => (line, msg),
            other => panic!("{other}"),
        };
        assert_eq!(line, 3);
        assert!(msg.contains("total node weight overflows"), "{msg}");
    }

    #[test]
    fn header_garbage_is_a_typed_error() {
        let (line, _) = expect_metis_err("x y\n");
        assert_eq!(line, 1);
        let (line, msg) = expect_metis_err("2 1 0 9\n2\n1\n");
        assert_eq!(line, 1);
        assert!(msg.contains("extra header token"), "{msg}");
        let (line, msg) = expect_metis_err("2\n2\n1\n");
        assert_eq!(line, 1);
        assert!(msg.contains("missing edge count"), "{msg}");
    }

    #[test]
    fn error_lines_account_for_comments() {
        // Comment lines shift the body; the error must name the physical
        // line in the file, not the logical node index.
        let text = "% leading comment\n3 2\n2\n% body comment\n1 3\nbroken\n";
        let (line, msg) = expect_metis_err(text);
        assert_eq!(line, 6);
        assert!(msg.contains("invalid neighbor id"), "{msg}");
    }

    #[test]
    fn zero_weight_graph_is_rejected_at_write_time() {
        let g = CsrGraph::from_csr_unchecked(vec![0, 1, 2], vec![1, 0], vec![0, 0], vec![1, 1]);
        match write_metis_string(&g).unwrap_err() {
            GraphError::WeightOutOfRange { what, value, .. } => {
                assert_eq!(what, "edge");
                assert_eq!(value, 0);
            }
            other => panic!("expected WeightOutOfRange, got: {other}"),
        }
    }

    #[test]
    fn parse_simple_file_with_comments() {
        let text = "% a triangle plus a pendant\n4 4\n2 3\n1 3 4\n1 2\n2\n";
        let g = parse(text).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(g.edge_weight(0, 1).is_some());
        assert!(g.edge_weight(1, 3).is_some());
    }

    #[test]
    fn parse_edge_weighted_file() {
        let text = "3 2 1\n2 5\n1 5 3 7\n2 7\n";
        let g = parse(text).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.edge_weight(1, 2), Some(7));
    }

    #[test]
    fn parse_node_weighted_file() {
        let text = "2 1 10\n3 2\n8 1\n";
        let g = parse(text).unwrap();
        assert_eq!(g.node_weight(0), 3);
        assert_eq!(g.node_weight(1), 8);
        assert_eq!(g.num_edges(), 1);
        let stream = MetisStream::from_text(text).unwrap();
        assert!(stream.header.node_weights && !stream.header.edge_weights);
        assert_eq!(stream.total_node_weight(), 11);
    }

    #[test]
    fn header_edge_count_mismatch_is_error() {
        let text = "3 5\n2\n1 3\n2\n";
        assert!(parse(text).is_err());
        // Within what the file could hold, the count is checked against the
        // entries read, and reported on the header line.
        let (line, msg) = expect_metis_err("% c\n3 1\n2\n1 3\n2\n");
        assert_eq!(line, 2);
        assert!(msg.contains("header declares 1 edges"), "{msg}");
    }

    #[test]
    fn missing_header_is_error() {
        assert!(parse("% only a comment\n").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn neighbor_out_of_range_is_error() {
        let text = "2 1\n5\n1\n";
        assert!(parse(text).is_err());
        let (line, msg) = expect_metis_err("2 1\n2\n0\n");
        assert_eq!(line, 3);
        assert!(msg.contains("out of range"), "{msg}");
        // Bytes that are neither digits nor blanks are part of a bad token.
        for junk in ["é", "\0", "-1", "1.0", "1e0", "0x1"] {
            let (line, msg) = expect_metis_err(&format!("2 1\n2\n{junk}\n"));
            assert_eq!(line, 3, "{junk:?}");
            assert!(msg.contains("invalid neighbor id"), "{junk:?}: {msg}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let dir = std::env::temp_dir().join("oms-graph-test-metis");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.graph");
        write_metis(&g, &path).unwrap();
        let back = read_metis(&path).unwrap();
        assert_eq!(g, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn asymmetric_adjacency_is_a_typed_error() {
        // Node 1 lists 3 and node 3 lists 2, neither the other way round; the
        // entry count still matches the header.
        let (line, msg) = expect_metis_err("3 2\n2 3\n1\n2\n");
        assert_eq!(line, 0);
        assert!(msg.contains("not symmetric"), "{msg}");
        // Both directions listed, with different weights.
        let (line, msg) = expect_metis_err("2 1 1\n2 5\n1 6\n");
        assert_eq!(line, 0);
        assert!(msg.contains("not symmetric"), "{msg}");
        // Four times from one side: an XOR of the entries cancels.
        let (line, msg) = expect_metis_err("3 2\n2 2 2 2\n\n\n");
        assert_eq!(line, 0);
        assert!(msg.contains("not symmetric"), "{msg}");
    }

    #[test]
    fn duplicate_entry_in_a_line_breaks_the_entry_count() {
        let (line, msg) = expect_metis_err("2 1\n2 2\n1\n");
        assert_eq!(line, 1);
        assert!(msg.contains("3 adjacency entries"), "{msg}");
    }

    #[test]
    fn self_loops_are_dropped_and_not_counted() {
        let g = parse("3 2\n1 2\n1 2 3\n2 3\n").unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        g.validate().unwrap();
        // A self-loop's weight is still checked.
        let (line, msg) = expect_metis_err("2 1 1\n1 0 2 4\n1 4\n");
        assert_eq!(line, 2);
        assert!(msg.contains("weight 0"), "{msg}");
    }

    /// A graph that carries self-loops (as a `.oms` file may) is written
    /// without them, its header counting the other edges, so the text
    /// reads back as the graph minus its loops; a loop's weight does not
    /// make the text edge-weighted.
    #[test]
    fn the_writer_drops_self_loops() {
        // Triangle 0–1–2 with loops 0–0 (weight 5) and 2–2.
        let looped = CsrGraph::from_csr_unchecked(
            vec![0, 3, 5, 8],
            vec![0, 1, 2, 0, 2, 0, 1, 2],
            vec![5, 1, 1, 1, 1, 1, 1, 1],
            vec![1; 3],
        );
        let text = write_metis_string(&looped).unwrap();
        assert_eq!(text, "3 3\n2 3\n1 3\n1 2\n");
        let read = parse(&text).unwrap();
        assert_eq!((read.num_nodes(), read.num_edges()), (3, 3));
        assert_eq!(write_metis_string(&read).unwrap(), text);
    }

    #[test]
    fn line_endings_blank_lines_and_comments_do_not_change_the_graph() {
        let plain = parse("4 4\n2 3\n1 3 4\n1 2\n2\n").unwrap();
        for (what, text) in [
            ("CRLF", "4 4\r\n2 3\r\n1 3 4\r\n1 2\r\n2\r\n"),
            ("no trailing newline", "4 4\n2 3\n1 3 4\n1 2\n2"),
            (
                "trailing blank lines",
                "4 4\n2 3\n1 3 4\n1 2\n2\n\n  \n\r\n",
            ),
            (
                "comments mid-body",
                "4 4\n2 3\n% one\n1 3 4\n  % two\n1 2\n2\n%",
            ),
            (
                "tabs and padding",
                "\n \n  4\t4  \n 2  3\t\n1 3 4\n1 2\n2 \n",
            ),
            ("explicit fmt", "4 4 000\n2 3\n1 3 4\n1 2\n2\n"),
        ] {
            assert_eq!(parse(text).unwrap(), plain, "{what}");
        }
        // A blank line *inside* the body is a node without neighbors...
        let g = parse("3 1\n3\n\n1\n").unwrap();
        assert_eq!(g.degree(1), 0);
        // ...so one too many of them is a node line too many,
        let (line, msg) = expect_metis_err("2 1\n2\n1\n\n3\n");
        assert_eq!(line, 5);
        assert!(msg.contains("more than 2 node lines"), "{msg}");
        // and a `%` after the first token is not a comment.
        let (line, msg) = expect_metis_err("2 1\n2 % no\n1\n");
        assert_eq!(line, 2);
        assert!(msg.contains("invalid neighbor id '%'"), "{msg}");
    }

    /// A star whose hub line is far longer than the read buffer, optionally
    /// node- and edge-weighted.
    fn star(leaves: usize, node_weights: bool, edge_weights: bool) -> CsrGraph {
        let mut b = GraphBuilder::new(leaves + 1);
        for leaf in 1..=leaves as NodeId {
            let w = if edge_weights { leaf as u64 % 7 + 1 } else { 1 };
            b.add_weighted_edge(0, leaf, w).unwrap();
            if node_weights {
                b.set_node_weight(leaf, leaf as u64 % 5 + 1).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn a_line_longer_than_the_read_buffer_carries_over() {
        for (node_weights, edge_weights) in [(false, false), (true, false), (false, true)] {
            let g = star(300, node_weights, edge_weights);
            let text = write_metis_string(&g).unwrap();
            assert!(text.lines().nth(1).unwrap().len() > 10 * MIN_BUFFER_BYTES);
            assert_eq!(parse(&text).unwrap(), g);
        }
    }

    #[test]
    fn the_read_buffer_size_never_changes_the_pass() {
        let mut b = GraphBuilder::new(40);
        for u in 0..40u32 {
            b.set_node_weight(u, 1 + u as u64 * 1_000_003).unwrap();
            for v in [(u * 7 + 1) % 40, (u * 11 + 3) % 40, (u + 1) % 40] {
                b.add_weighted_edge(u, v, 1 + ((u + v) as u64) * 999_983)
                    .unwrap();
            }
        }
        let g = b.build();
        let text = write_metis_string(&g).unwrap().replace('\n', " \r\n");
        let expected = nodes_of(&g);
        for bytes in (MIN_BUFFER_BYTES..MIN_BUFFER_BYTES + 80).chain([4096]) {
            let mut stream = MetisStream::from_text(&text).unwrap();
            stream.buffer_bytes = bytes;
            assert_eq!(
                pass(&mut stream, 7).unwrap(),
                expected,
                "{bytes}-byte buffer"
            );
        }
    }

    #[test]
    fn a_token_longer_than_the_read_buffer_is_a_typed_error() {
        let text = format!("2 1\n{}\n1\n", "7".repeat(3 * MIN_BUFFER_BYTES));
        let mut stream = MetisStream::from_text(&text).unwrap();
        stream.buffer_bytes = MIN_BUFFER_BYTES;
        match pass(&mut stream, 4096).unwrap_err() {
            GraphError::MetisParse { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("longer than the 64-byte read buffer"), "{msg}");
            }
            other => panic!("{other}"),
        }
        // With room for the token it is what it always was: not a u64.
        let (line, msg) = match read_metis_str(&text).unwrap_err() {
            GraphError::MetisParse { line, msg } => (line, msg),
            other => panic!("{other}"),
        };
        assert_eq!(line, 2);
        assert!(msg.contains("invalid neighbor id"), "{msg}");
        // A comment of any length is skipped, delimiters or not.
        let text = format!("%{}\n2 1\n2\n%{}\n1\n", "x".repeat(500), " y".repeat(500));
        assert_eq!(parse(&text).unwrap().num_edges(), 1);
    }

    #[test]
    fn header_counts_the_file_cannot_hold_are_rejected_before_anything_is_sized() {
        for (text, keyword) in [
            (
                "4000000000 4000000000\n1\n",
                "4000000000 nodes but only 2 bytes",
            ),
            ("2 4000000000\n2\n1\n", "4000000000 edges"),
            // n·m and 2m overflow u64.
            (
                "18446744073709551615 18446744073709551615\n1\n",
                "nodes but only 2 bytes",
            ),
            ("2 9223372036854775808\n2\n1\n", "9223372036854775808 edges"),
            // Fewer bytes than the declared nodes need newlines.
            ("3 0\n\n", "3 nodes but only 1 bytes"),
            ("3 0", "3 nodes but only 0 bytes"),
        ] {
            let (line, msg) = expect_metis_err(text);
            assert_eq!(line, 1, "{text:?}");
            assert!(msg.contains(keyword), "{text:?}: {msg}");
        }
        // The smallest files that hold their counts pass.
        assert_eq!(parse("3 0\n\n\n\n").unwrap().num_nodes(), 3);
        assert_eq!(parse("2 1\n2\n1").unwrap().num_edges(), 1);
    }

    #[test]
    fn reset_detects_a_file_that_changed_between_passes() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let dir = std::env::temp_dir().join("oms-graph-test-metis");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("changes-between-passes.graph");
        write_metis(&g, &path).unwrap();
        let mut stream = MetisStream::open(&path).unwrap();
        assert_eq!(pass(&mut stream, 2).unwrap(), nodes_of(&g));
        stream.reset().unwrap();
        assert_eq!(pass(&mut stream, 4096).unwrap(), nodes_of(&g));

        let changed = |stream: &mut MetisStream<'_>| {
            let reset = stream.reset().unwrap_err();
            let passed = pass(stream, 4096).unwrap_err();
            assert_eq!(reset.to_string(), passed.to_string());
            match reset {
                GraphError::MetisParse { line, msg } => {
                    assert_eq!(line, 1);
                    assert!(msg.contains("changed between passes"), "{msg}");
                }
                other => panic!("{other}"),
            }
        };
        // Truncated after the second node line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 6]).unwrap();
        changed(&mut stream);
        // Same length, another header.
        std::fs::write(&path, text.replacen("5 4", "5 3", 1)).unwrap();
        changed(&mut stream);
        // Restored, the stream works again.
        std::fs::write(&path, &text).unwrap();
        stream.reset().unwrap();
        assert_eq!(pass(&mut stream, 3).unwrap(), nodes_of(&g));
        std::fs::remove_file(&path).ok();
    }
}
