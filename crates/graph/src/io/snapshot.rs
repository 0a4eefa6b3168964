//! Partition snapshots as a trailer after the padded body of the
//! vertex-stream file.
//!
//! A long-lived dynamic-partitioning service must survive restarts without
//! losing its state. This module persists the service state — block
//! assignments, the restream trajectory and the drift counters — *inside*
//! the stream-format file the service already owns, as a trailer section
//! appended after the padded body. The header's counts fix where the body
//! ends and the reader never looks past it, so a file carrying a trailer
//! remains a perfectly valid vertex-stream file.
//!
//! ## Trailer layout
//!
//! All integers are little-endian; the trailer sits between the end of the
//! body and a fixed-size footer at end of file:
//!
//! ```text
//! trailer:
//!   magic        8 bytes  "OMSSNAP1"
//!   k            u32      number of blocks
//!   n            u64      number of assignment entries (≥ header n: node
//!                         inserts grow the dynamic id space past the base
//!                         graph, deletions never shrink it)
//!   assignments  n × u32  block per node (u32::MAX = unassigned)
//!   counters     5 × u64  deltas_applied, moved_weight, baseline_cut,
//!                         current_cut, restreams
//!   t            u32      number of trajectory entries
//!   trajectory   t × (pass u32, edge_cut u64, imbalance f64,
//!                      moved u64, seconds f64)
//! footer (last 16 bytes of the file):
//!   trailer_offset u64    absolute file offset of the trailer magic
//!   magic          8 bytes "OMSSNAP1"
//! ```
//!
//! The footer makes the trailer discoverable without decoding the body;
//! rewriting a snapshot truncates the file at the previous trailer
//! offset and appends the new trailer, so the node body is never touched.
//!
//! Every entry point first runs [`DiskStream::revalidate`], so a stream file
//! truncated or swapped between a warm resume and the next ingest surfaces
//! as a typed [`GraphError`] instead of being silently misread.

use crate::io::stream_format::{read_u32, read_u64};
use crate::io::DiskStream;
use crate::stream::NodeStream;
use crate::{GraphError, Result};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};

/// Magic bytes of both the snapshot trailer and the footer.
const SNAP_MAGIC: &[u8; 8] = b"OMSSNAP1";
/// Size of the footer: trailer offset (u64) + magic (8 bytes).
const FOOTER_LEN: u64 = 16;
/// Fixed-size part of the trailer: magic + k + n + counters + t.
const TRAILER_FIXED: u64 = 8 + 4 + 8 + 5 * 8 + 4;
/// Bytes per trajectory entry.
const PASS_LEN: u64 = 4 + 8 + 8 + 8 + 8;

/// Cumulative drift bookkeeping of a dynamic partition, persisted with the
/// snapshot so a restarted service resumes with the same fallback behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriftCounters {
    /// Total number of deltas applied since the service started.
    pub deltas_applied: u64,
    /// Node weight moved by local repair since the last full restream.
    pub moved_weight: u64,
    /// Edge cut right after the last full pass (the drift baseline).
    pub baseline_cut: u64,
    /// Edge cut as currently maintained.
    pub current_cut: u64,
    /// Number of full restream fallbacks triggered so far.
    pub restreams: u64,
}

/// One recorded pass of a snapshot trajectory (mirror of the executor's
/// per-pass stats, kept here so the on-disk format has no dependency on the
/// partitioning crates).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SnapshotPass {
    /// Pass number within its restream run.
    pub pass: u32,
    /// Edge cut after the pass.
    pub edge_cut: u64,
    /// Imbalance after the pass.
    pub imbalance: f64,
    /// Number of nodes that changed blocks in the pass.
    pub moved: u64,
    /// Wall-clock seconds of the pass.
    pub seconds: f64,
}

/// The persisted state of a dynamic partition: assignments, restream
/// trajectory and drift counters, kept as a trailer behind the node body of
/// the `.oms` file ([`write_snapshot`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PartitionSnapshot {
    /// Number of blocks.
    pub num_blocks: u32,
    /// Block per node; `u32::MAX` marks an unassigned (deleted) node.
    pub assignments: Vec<u32>,
    /// Drift bookkeeping at snapshot time.
    pub counters: DriftCounters,
    /// Concatenated trajectory of the initial run and every restream
    /// fallback so far.
    pub trajectory: Vec<SnapshotPass>,
}

fn snap_err(msg: impl Into<String>) -> GraphError {
    GraphError::Parse(format!("snapshot trailer: {}", msg.into()))
}

/// Locates the trailer via the footer. `Ok(None)` when the file carries no
/// snapshot; a footer with valid magic but an impossible offset is a typed
/// error (the file was cut or spliced).
fn trailer_offset(file: &mut File) -> Result<Option<u64>> {
    let len = file.seek(SeekFrom::End(0))?;
    if len < FOOTER_LEN {
        return Ok(None);
    }
    file.seek(SeekFrom::Start(len - FOOTER_LEN))?;
    let offset = read_u64(file)?;
    let mut magic = [0u8; 8];
    file.read_exact(&mut magic)?;
    if &magic != SNAP_MAGIC {
        return Ok(None);
    }
    if offset + TRAILER_FIXED + FOOTER_LEN > len {
        return Err(snap_err(format!(
            "footer points at offset {offset} but the file holds only {len} bytes"
        )));
    }
    Ok(Some(offset))
}

/// Reads the snapshot trailer of `stream`'s file, if present.
///
/// Checks first that the file still matches the header [`DiskStream::open`]
/// read, so a swapped or rewritten stream
/// file is a typed error rather than a stale snapshot. Returns `Ok(None)`
/// for a file without a trailer.
pub fn read_snapshot(stream: &DiskStream) -> Result<Option<PartitionSnapshot>> {
    stream.revalidate()?;
    let mut file = File::open(stream.path())?;
    let Some(offset) = trailer_offset(&mut file)? else {
        return Ok(None);
    };
    let body_len = file.seek(SeekFrom::End(0))? - FOOTER_LEN - offset;
    file.seek(SeekFrom::Start(offset))?;
    let mut r = BufReader::new(file).take(body_len);

    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|_| snap_err("truncated before the trailer magic"))?;
    if &magic != SNAP_MAGIC {
        return Err(snap_err("footer offset does not point at a trailer"));
    }
    let num_blocks = read_u32(&mut r)?;
    if num_blocks == 0 {
        return Err(snap_err("snapshot announces zero blocks"));
    }
    let n = read_u64(&mut r)?;
    // Node inserts can have grown the id space beyond the base graph, but a
    // snapshot can never cover fewer nodes than the file it trails.
    if n < stream.num_nodes() as u64 {
        return Err(GraphError::CountMismatch {
            what: "snapshot assignments",
            expected: stream.num_nodes() as u64,
            found: n,
        });
    }
    let expected_len = |t: u64| TRAILER_FIXED + n * 4 + t * PASS_LEN;
    if body_len < expected_len(0) {
        return Err(GraphError::Truncated {
            expected_nodes: n,
            read_nodes: (body_len.saturating_sub(TRAILER_FIXED)) / 4,
        });
    }
    let mut assignments = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let block = read_u32(&mut r)?;
        if block != u32::MAX && block >= num_blocks {
            return Err(snap_err(format!(
                "assignment {block} out of range for {num_blocks} blocks"
            )));
        }
        assignments.push(block);
    }
    let counters = DriftCounters {
        deltas_applied: read_u64(&mut r)?,
        moved_weight: read_u64(&mut r)?,
        baseline_cut: read_u64(&mut r)?,
        current_cut: read_u64(&mut r)?,
        restreams: read_u64(&mut r)?,
    };
    let t = read_u32(&mut r)? as u64;
    if body_len != expected_len(t) {
        return Err(GraphError::CountMismatch {
            what: "snapshot trajectory entries",
            expected: t,
            found: (body_len.saturating_sub(expected_len(0))) / PASS_LEN,
        });
    }
    let mut trajectory = Vec::with_capacity(t as usize);
    for _ in 0..t {
        trajectory.push(SnapshotPass {
            pass: read_u32(&mut r)?,
            edge_cut: read_u64(&mut r)?,
            imbalance: f64::from_le_bytes(read_u64(&mut r)?.to_le_bytes()),
            moved: read_u64(&mut r)?,
            seconds: f64::from_le_bytes(read_u64(&mut r)?.to_le_bytes()),
        });
    }
    Ok(Some(PartitionSnapshot {
        num_blocks,
        assignments,
        counters,
        trajectory,
    }))
}

/// Writes (or replaces) the snapshot trailer of `stream`'s file.
///
/// Checks first that the file still matches the header [`DiskStream::open`]
/// read; requires at least one assignment
/// per node announced by the header (the dynamic id space can only grow past
/// the base graph). The node body is never modified: a previous trailer is
/// truncated away and the new one appended in its place.
pub fn write_snapshot(stream: &DiskStream, snapshot: &PartitionSnapshot) -> Result<()> {
    stream.revalidate()?;
    if snapshot.num_blocks == 0 {
        return Err(snap_err("snapshot announces zero blocks"));
    }
    if snapshot.assignments.len() < stream.num_nodes() {
        return Err(GraphError::CountMismatch {
            what: "snapshot assignments",
            expected: stream.num_nodes() as u64,
            found: snapshot.assignments.len() as u64,
        });
    }
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(stream.path())?;
    let offset = match trailer_offset(&mut file)? {
        Some(previous) => {
            file.set_len(previous)?;
            previous
        }
        None => file.seek(SeekFrom::End(0))?,
    };
    file.seek(SeekFrom::Start(offset))?;
    let mut w = BufWriter::new(file);
    w.write_all(SNAP_MAGIC)?;
    w.write_all(&snapshot.num_blocks.to_le_bytes())?;
    w.write_all(&(snapshot.assignments.len() as u64).to_le_bytes())?;
    for &block in &snapshot.assignments {
        w.write_all(&block.to_le_bytes())?;
    }
    let c = &snapshot.counters;
    for value in [
        c.deltas_applied,
        c.moved_weight,
        c.baseline_cut,
        c.current_cut,
        c.restreams,
    ] {
        w.write_all(&value.to_le_bytes())?;
    }
    w.write_all(&(snapshot.trajectory.len() as u32).to_le_bytes())?;
    for pass in &snapshot.trajectory {
        w.write_all(&pass.pass.to_le_bytes())?;
        w.write_all(&pass.edge_cut.to_le_bytes())?;
        w.write_all(&pass.imbalance.to_le_bytes())?;
        w.write_all(&pass.moved.to_le_bytes())?;
        w.write_all(&pass.seconds.to_le_bytes())?;
    }
    w.write_all(&offset.to_le_bytes())?;
    w.write_all(SNAP_MAGIC)?;
    w.flush()?;
    Ok(())
}

/// Removes the snapshot trailer of `stream`'s file, if present; returns
/// whether one was removed. Checks first that the file still matches the
/// header [`DiskStream::open`] read.
pub fn clear_snapshot(stream: &DiskStream) -> Result<bool> {
    stream.revalidate()?;
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(stream.path())?;
    match trailer_offset(&mut file)? {
        Some(offset) => {
            file.set_len(offset)?;
            Ok(true)
        }
        None => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{read_stream_file, write_stream_file};
    use crate::CsrGraph;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("oms-graph-test-snapshot");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn ring(n: u32) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        CsrGraph::from_edges(n as usize, &edges).unwrap()
    }

    fn sample_snapshot(n: usize) -> PartitionSnapshot {
        PartitionSnapshot {
            num_blocks: 4,
            assignments: (0..n as u32).map(|i| i % 4).collect(),
            counters: DriftCounters {
                deltas_applied: 123,
                moved_weight: 45,
                baseline_cut: 10,
                current_cut: 12,
                restreams: 2,
            },
            trajectory: vec![
                SnapshotPass {
                    pass: 0,
                    edge_cut: 14,
                    imbalance: 0.02,
                    moved: 0,
                    seconds: 0.5,
                },
                SnapshotPass {
                    pass: 1,
                    edge_cut: 10,
                    imbalance: 0.01,
                    moved: 3,
                    seconds: 0.25,
                },
            ],
        }
    }

    #[test]
    fn snapshot_round_trips_and_body_stays_readable() {
        let path = temp_path("roundtrip.oms");
        let graph = ring(16);
        write_stream_file(&graph, &path).unwrap();
        let stream = DiskStream::open(&path).unwrap();
        assert_eq!(read_snapshot(&stream).unwrap(), None);

        let snap = sample_snapshot(16);
        write_snapshot(&stream, &snap).unwrap();
        assert_eq!(read_snapshot(&stream).unwrap(), Some(snap.clone()));

        // The trailer sits past the body and is invisible to the reader,
        // also through a stream opened on the trailer-bearing file.
        assert_eq!(read_stream_file(&path).unwrap(), graph);
        let reopened = DiskStream::open(&path).unwrap();
        assert_eq!(read_snapshot(&reopened).unwrap(), Some(snap.clone()));

        // Rewriting replaces the trailer instead of stacking a second one.
        let len_one = std::fs::metadata(&path).unwrap().len();
        let mut snap2 = snap;
        snap2.counters.deltas_applied = 999;
        snap2.trajectory.pop();
        write_snapshot(&stream, &snap2).unwrap();
        let len_two = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len_two, len_one - PASS_LEN);
        assert_eq!(read_snapshot(&stream).unwrap(), Some(snap2));

        assert!(clear_snapshot(&stream).unwrap());
        assert!(!clear_snapshot(&stream).unwrap());
        assert_eq!(read_snapshot(&stream).unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_write_torn_at_any_byte_is_a_typed_error_or_a_whole_stream() {
        // A small fully weighted file, with and without a trailer, cut at
        // every byte offset: `open`, one pass and `read_snapshot` must give
        // a typed error — or, only when the cut spares the whole body, the
        // intact stream with no snapshot or a typed snapshot error. Never a
        // panic, never the snapshot of a file that lost bytes.
        use crate::stream::NodeStream;
        let mut b = crate::GraphBuilder::new(5);
        b.set_node_weight(2, 9).unwrap();
        for (u, v, w) in [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 0, 6)] {
            b.add_weighted_edge(u, v, w).unwrap();
        }
        let graph = b.build();
        let path = temp_path("torn.oms");
        write_stream_file(&graph, &path).unwrap();
        let body_len = std::fs::metadata(&path).unwrap().len() as usize;
        let snap = sample_snapshot(5);
        for with_trailer in [false, true] {
            if with_trailer {
                write_snapshot(&DiskStream::open(&path).unwrap(), &snap).unwrap();
            }
            let bytes = std::fs::read(&path).unwrap();
            for cut in 0..=bytes.len() {
                std::fs::write(&path, &bytes[..cut]).unwrap();
                let Ok(mut stream) = DiskStream::open(&path) else {
                    assert!(cut < body_len, "cut {cut}: a whole body must open");
                    continue;
                };
                assert!(cut >= body_len, "cut {cut}: opened a torn body");
                let mut nodes = 0;
                stream.for_each_node(&mut |_| nodes += 1).unwrap();
                assert_eq!(nodes, 5, "cut {cut}");
                match read_snapshot(&stream) {
                    Ok(Some(read)) => {
                        assert_eq!(cut, bytes.len(), "cut {cut}: resumed from a torn trailer");
                        assert_eq!(read, snap);
                    }
                    Ok(None) | Err(_) => assert!(cut < bytes.len() || !with_trailer),
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn too_few_assignments_are_rejected() {
        let path = temp_path("wrongcount.oms");
        write_stream_file(&ring(8), &path).unwrap();
        let stream = DiskStream::open(&path).unwrap();
        let snap = sample_snapshot(5);
        let err = write_snapshot(&stream, &snap).unwrap_err();
        assert!(matches!(err, GraphError::CountMismatch { .. }), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn grown_id_space_round_trips() {
        // After node inserts the dynamic id space is larger than the base
        // graph on disk; the trailer stores one assignment per dynamic id.
        let path = temp_path("grown.oms");
        write_stream_file(&ring(8), &path).unwrap();
        let stream = DiskStream::open(&path).unwrap();
        let snap = sample_snapshot(11);
        write_snapshot(&stream, &snap).unwrap();
        assert_eq!(read_snapshot(&stream).unwrap(), Some(snap));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn swapped_file_between_resume_and_ingest_is_a_typed_error() {
        let path = temp_path("swapped.oms");
        write_stream_file(&ring(12), &path).unwrap();
        let stream = DiskStream::open(&path).unwrap();
        write_snapshot(&stream, &sample_snapshot(12)).unwrap();

        // Another process replaces the stream file with a different graph
        // while our handle still describes the old one: the re-validation
        // inherited from the restream engine catches it.
        write_stream_file(&ring(20), &path).unwrap();
        let err = read_snapshot(&stream).unwrap_err();
        assert!(matches!(err, GraphError::CountMismatch { .. }), "{err:?}");
        let err = write_snapshot(&stream, &sample_snapshot(12)).unwrap_err();
        assert!(matches!(err, GraphError::CountMismatch { .. }), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_trailer_is_a_typed_error() {
        let path = temp_path("corrupt.oms");
        write_stream_file(&ring(10), &path).unwrap();
        let stream = DiskStream::open(&path).unwrap();
        write_snapshot(&stream, &sample_snapshot(10)).unwrap();

        // Flip the stored assignment count inside the trailer.
        let bytes = std::fs::read(&path).unwrap();
        let mut cut = bytes.clone();
        let len = cut.len();
        let offset = u64::from_le_bytes(cut[len - 16..len - 8].try_into().unwrap()) as usize;
        cut[offset + 12..offset + 20].copy_from_slice(&999u64.to_le_bytes());
        std::fs::write(&path, &cut).unwrap();
        let err = read_snapshot(&stream).unwrap_err();
        assert!(matches!(err, GraphError::Truncated { .. }), "{err:?}");

        // A footer whose offset points outside the file (trailer truncated
        // by a crashed writer, footer spliced from elsewhere).
        let mut forged = bytes[..bytes.len() - 16].to_vec();
        forged.truncate(offset + 4);
        forged.extend_from_slice(&(offset as u64).to_le_bytes());
        forged.extend_from_slice(SNAP_MAGIC);
        std::fs::write(&path, &forged).unwrap();
        let err = read_snapshot(&stream).unwrap_err();
        assert!(matches!(err, GraphError::Parse(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }
}
