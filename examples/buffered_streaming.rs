//! Buffered streaming: trading a little latency for a lot of quality.
//!
//! The strict one-pass model assigns each node the instant it arrives. The
//! `buffered` algorithm relaxes this to "assign by the end of the batch":
//! every `buf` streamed nodes form a batch that becomes an in-memory *model
//! graph*, is solved with the multilevel machinery, and is then committed to
//! the global blocks under the balance constraint. Memory stays
//! `O(buffer + k)`, but the cut closes much of the gap towards the fully
//! in-memory multilevel baseline.
//!
//! The example sweeps the buffer size on a community graph, compares against
//! the one-pass baselines, and runs the same job straight from a disk
//! stream.
//!
//! ```text
//! cargo run --release --example buffered_streaming
//! ```

use oms::graph::io::{write_stream_file, DiskStream};
use oms::prelude::*;

fn main() {
    register_multilevel_algorithms();

    // A graph with 32 planted communities: plenty of structure for the
    // model solves to find.
    let graph = planted_partition(20_000, 32, 0.02, 0.0005, 42);
    let k = 32;
    println!(
        "planted partition: n = {}, m = {}, k = {k}\n",
        graph.num_nodes(),
        graph.num_edges()
    );

    // One-pass baselines vs the buffered algorithm at several buffer sizes.
    let mut jobs = vec![
        format!("hashing:{k}"),
        format!("ldg:{k}"),
        format!("fennel:{k}"),
        format!("nh-oms:{k}"),
    ];
    for buf in [512, 4096, 16384] {
        jobs.push(format!("buffered:{k}@buf={buf}"));
    }
    jobs.push(format!("multilevel:{k}"));

    println!(
        "{:<26} {:>9} {:>10} {:>9}",
        "job", "edge-cut", "imbalance", "time"
    );
    for job_text in &jobs {
        let job: JobSpec = job_text.parse().expect("valid job spec");
        let report = job
            .build()
            .expect("registered algorithm")
            .run(&mut InMemoryStream::new(&graph))
            .expect("run succeeds");
        println!(
            "{:<26} {:>9} {:>10.4} {:>8.3}s",
            job_text, report.edge_cut, report.imbalance, report.seconds
        );
    }

    // The same buffered job also runs straight off disk, one decoded batch
    // at a time.
    let path = std::env::temp_dir().join("oms-example-buffered.oms");
    write_stream_file(&graph, &path).expect("can write the stream file");
    let job: JobSpec = format!("buffered:{k}@buf=4096").parse().unwrap();
    let partitioner = job.build().unwrap();
    let mut disk = DiskStream::open(&path).expect("can open the stream file");
    let from_disk = partitioner.run(&mut disk).expect("disk run succeeds");
    let from_memory = partitioner
        .run(&mut InMemoryStream::new(&graph))
        .expect("memory run succeeds");
    assert_eq!(
        from_disk.partition, from_memory.partition,
        "the stream source must not change the result"
    );
    println!(
        "\nbuffered from disk: edge-cut = {}, identical to in-memory ✓",
        from_disk.edge_cut
    );
    std::fs::remove_file(&path).ok();
}
