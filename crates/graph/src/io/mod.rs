//! Graph input/output.
//!
//! Three formats are supported:
//!
//! * METIS text — the METIS/KaHIP text format used by the graph-partitioning
//!   community (and by the paper's framework). It groups its edges by node,
//!   so it streams: [`MetisStream`] is a [`NodeStream`](crate::NodeStream)
//!   straight off the text, and [`read_metis`] collects one pass of it.
//! * Edge lists — plain whitespace-separated edge lists, the format most
//!   SNAP graphs ship in. Edges arrive in any order, so an edge list is
//!   always materialised.
//! * `.oms` files — a compact binary *vertex-stream* format that can be
//!   written once and then streamed from disk with `O(Δ)` memory
//!   ([`DiskStream`]), mirroring the paper's conversion of all inputs to a
//!   vertex-stream format.

mod edgelist;
mod metis;
mod snapshot;
mod stream_format;

pub use edgelist::{read_edge_list, write_edge_list};
pub use metis::{read_metis, read_metis_str, write_metis, write_metis_string, MetisStream};
pub use snapshot::{
    clear_snapshot, read_snapshot, write_snapshot, DriftCounters, PartitionSnapshot, SnapshotPass,
};
pub use stream_format::{
    read_stream_file, stream_file_info, write_stream_file, write_stream_file_with, DiskStream,
    StreamWriteOptions,
};
