//! Restreaming: iterative quality at streaming memory cost.
//!
//! A one-pass streaming partitioner decides each node with only the prefix
//! streamed before it. *Restreaming* runs more passes over the same stream:
//! from the second pass on every node is unassigned and re-scored against
//! the **complete** previous assignment, so each pass can only get better
//! information — near-in-memory quality without ever holding the graph.
//!
//! The multi-pass engine behind `passes=N` records a per-pass quality
//! trajectory, stops early once the partition converges (no node moved, or
//! the improvement fell below the `conv=` threshold) and rolls back a pass
//! that overshot. This example shows the trajectory for several algorithms,
//! the convergence early-exit, and the same job running straight off a
//! disk stream that is rewound between passes.
//!
//! ```text
//! cargo run --release --example restreaming
//! ```

use oms::graph::io::{write_stream_file, DiskStream};
use oms::prelude::*;

fn print_trajectory(label: &str, report: &PartitionReport) {
    println!(
        "{label}: final cut {} ({:.4} s)",
        report.edge_cut, report.seconds
    );
    for stats in &report.trajectory {
        println!(
            "    pass {}: cut {:>6}  moved {:>6}  imbalance {:.4}",
            stats.pass, stats.edge_cut, stats.moved, stats.imbalance
        );
    }
}

fn main() {
    register_multilevel_algorithms();

    let graph = planted_partition(20_000, 16, 0.02, 0.001, 42);
    let k = 16;
    println!(
        "planted partition: n = {}, m = {}, k = {k}\n",
        graph.num_nodes(),
        graph.num_edges()
    );

    // Every algorithm in the registry understands passes=N.
    println!("== quality vs. passes (pass budget 5) ==");
    for algo in ["fennel", "ldg", "nh-oms", "buffered", "multilevel"] {
        let job = JobSpec::parse(&format!("{algo}:{k}@seed=3,passes=5")).unwrap();
        let report = job
            .build()
            .unwrap()
            .run(&mut InMemoryStream::new(&graph))
            .unwrap();
        print_trajectory(algo, &report);
    }

    // The convergence threshold stops a run once a pass improves the cut by
    // less than the given fraction — here 2 %.
    println!("\n== convergence early exit (conv=0.02, budget 10) ==");
    let report = JobSpec::parse(&format!("fennel:{k}@seed=3,passes=10,conv=0.02"))
        .unwrap()
        .build()
        .unwrap()
        .run(&mut InMemoryStream::new(&graph))
        .unwrap();
    print_trajectory("fennel", &report);
    println!(
        "    stopped after {} of 10 budgeted passes",
        report.trajectory.len()
    );

    // Restreaming straight off disk: the engine rewinds the stream between
    // passes (each pass re-opens and re-validates the file).
    println!("\n== restreaming from a disk stream ==");
    let dir = std::env::temp_dir().join("oms-restreaming-example");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.oms");
    write_stream_file(&graph, &path).unwrap();
    let mut stream = DiskStream::open(&path).unwrap();
    let report = JobSpec::parse(&format!("fennel:{k}@seed=3,passes=3"))
        .unwrap()
        .build()
        .unwrap()
        .run(&mut stream)
        .unwrap();
    print_trajectory("fennel (disk)", &report);
    std::fs::remove_file(&path).ok();
}
