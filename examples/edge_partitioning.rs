//! Edge partitioning (vertex-cut): replicating hubs instead of cutting them.
//!
//! Power-law graphs have hub vertices whose adjacency no balanced *node*
//! partition can localise — most hub edges cross blocks no matter what. A
//! vertex-cut partition assigns **edges** to blocks and lets vertices be
//! *replicated*; quality becomes the replication factor `RF` (average
//! replicas per vertex, 1.0 = nothing replicated) under an edge-count
//! balance constraint.
//!
//! This example runs the three streaming edge partitioners on a skewed RMAT
//! graph — `e-hash` (the balanced-but-oblivious floor), `e-dbh`
//! (degree-based hashing) and `e-greedy` (HDRF-style scoring) — then sweeps
//! `e-greedy`'s λ balance knob (the RF-vs-balance trade-off behind the
//! README table) and shows the multi-pass trajectory and the same job
//! running off a rewound disk stream.
//!
//! ```text
//! cargo run --release --example edge_partitioning
//! ```

use oms::edgepart::build_edge_partitioner;
use oms::graph::io::{write_stream_file, DiskStream};
use oms::prelude::*;

fn run(job: &str, graph: &CsrGraph) -> oms::edgepart::EdgePartitionReport {
    let spec = JobSpec::parse(job).unwrap();
    build_edge_partitioner(&spec)
        .unwrap()
        .run(&mut InMemoryStream::new(graph))
        .unwrap_or_else(|e| panic!("{job}: {e}"))
}

fn main() {
    let graph = rmat_graph(16, 1 << 19, oms::gen::RmatParams::GRAPH500, 42);
    let k = 32;
    println!(
        "rmat: n = {}, m = {}, max degree = {}, p99 degree = {} (hub-dominated)\n",
        graph.num_nodes(),
        graph.num_edges(),
        graph.max_degree(),
        graph.degree_percentile(0.99),
    );

    println!("== the three streaming edge partitioners, k = {k} ==");
    for algo in ["e-hash", "e-dbh", "e-greedy"] {
        let report = run(&format!("{algo}:{k}@seed=3"), &graph);
        println!(
            "{algo:<9} RF {:.4}  max replicas {:>3}  edge imbalance {:.4}  ({:.3} s)",
            report.replication_factor, report.max_replicas, report.imbalance, report.seconds
        );
    }

    println!("\n== e-greedy: the λ balance knob (RF vs. edge balance) ==");
    for lambda in [0.1, 0.5, 1.0, 2.0, 5.0] {
        let report = run(&format!("e-greedy:{k}@seed=3,lambda={lambda}"), &graph);
        println!(
            "lambda = {lambda:<4} RF {:.4}  edge imbalance {:.4}",
            report.replication_factor, report.imbalance
        );
    }

    println!("\n== multi-pass re-streaming (e-greedy, pass budget 4) ==");
    let report = run(&format!("e-greedy:{k}@seed=3,passes=4"), &graph);
    for stats in &report.trajectory {
        println!(
            "    pass {}: RF {:.4}  moved {:>7}  imbalance {:.4}",
            stats.pass, stats.replication_factor, stats.moved, stats.imbalance
        );
    }

    // The same pipeline runs off any node-stream source: here the binary
    // disk format, rewound (re-opened and re-validated) between passes.
    println!("\n== edge partitioning straight off a disk stream ==");
    let dir = std::env::temp_dir().join("oms-edgepart-example");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.oms");
    write_stream_file(&graph, &path).unwrap();
    let spec = JobSpec::parse(&format!("e-greedy:{k}@seed=3,passes=2")).unwrap();
    let report = build_edge_partitioner(&spec)
        .unwrap()
        .run(&mut DiskStream::open(&path).unwrap())
        .unwrap();
    println!(
        "e-greedy (disk): RF {:.4} over {} passes ({:.3} s)",
        report.replication_factor,
        report.trajectory.len(),
        report.seconds
    );
    std::fs::remove_file(&path).ok();
}
