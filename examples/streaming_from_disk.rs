//! Streaming from disk: convert a graph to the binary vertex-stream format,
//! then partition it while reading it back one node at a time — the
//! `O(n + k)` memory regime that makes streaming partitioning attractive for
//! huge graphs.
//!
//! Because the unified [`Partitioner`] API takes `&mut dyn NodeStream`, the
//! exact same boxed partitioner runs off the disk stream and off the
//! in-memory stream — and produces identical results.
//!
//! ```text
//! cargo run --release --example streaming_from_disk
//! ```

use oms::graph::io::{write_stream_file, DiskStream};
use oms::prelude::*;

fn main() {
    // Generate a mesh-like graph and persist it in vertex-stream format.
    let graph = random_geometric_graph(50_000, 3);
    let path = std::env::temp_dir().join("oms-example-rgg.oms");
    write_stream_file(&graph, &path).expect("can write the stream file");
    println!(
        "wrote {} ({} nodes, {} edges)",
        path.display(),
        graph.num_nodes(),
        graph.num_edges()
    );

    // One partitioner, two streams: the dyn-compatible NodeStream lets the
    // same Box<dyn Partitioner> consume either source.
    let k = 256;
    let partitioner = JobSpec::parse(&format!("nh-oms:{k}"))
        .expect("valid job spec")
        .build()
        .expect("registered algorithm");

    let mut disk = DiskStream::open(&path).expect("can open the stream file");
    let from_disk = partitioner.run(&mut disk).expect("disk run succeeds");
    let from_memory = partitioner
        .run(&mut InMemoryStream::new(&graph))
        .expect("memory run succeeds");

    // The algorithm only ever sees one node and its neighborhood at a time,
    // so the source of the stream cannot change the result.
    assert_eq!(from_disk.partition, from_memory.partition);

    println!(
        "nh-OMS from disk: edge-cut = {}, imbalance = {:.3}",
        from_disk.edge_cut, from_disk.imbalance
    );

    // The memory argument of §4.1: one block id per node plus a weight per
    // tree node (Lemma 1), vs. the whole CSR graph.
    let tree_nodes = oms::core::MultisectionTree::flat(k, 4).num_nodes();
    let assignment_bytes = graph.num_nodes() * std::mem::size_of::<BlockId>();
    let streaming = assignment_bytes + tree_nodes * std::mem::size_of::<u64>();
    let in_memory = graph.memory_bytes() + assignment_bytes;
    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    println!(
        "streaming working set ≈ {:.2} MiB  vs  in-memory graph ≈ {:.2} MiB",
        mib(streaming),
        mib(in_memory)
    );

    std::fs::remove_file(&path).ok();
}
