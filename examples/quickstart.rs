//! Quickstart: partition a small community graph with nh-OMS in one pass and
//! compare it against the Fennel and Hashing baselines — all driven through
//! the unified `JobSpec` API.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use oms::prelude::*;

fn main() {
    // A synthetic graph with 16 planted communities — the kind of structure
    // a streaming partitioner should be able to exploit.
    let graph = planted_partition(4_000, 16, 0.02, 0.0005, 42);
    println!(
        "graph: {} nodes, {} edges, average degree {:.1}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.average_degree()
    );

    let k = 16;
    println!("partitioning into k = {k} blocks (ε = 3 %)\n");

    // One job spec string per algorithm: the factory resolves each against
    // the shared registry and returns a Box<dyn Partitioner>.
    let mut reports = Vec::new();
    for spec in [
        format!("nh-oms:{k}"),
        format!("fennel:{k}"),
        format!("hashing:{k}"),
    ] {
        let job: JobSpec = spec.parse().expect("valid job spec");
        let report = job
            .build()
            .expect("registered algorithm")
            .run(&mut InMemoryStream::new(&graph))
            .expect("partitioning succeeds");
        println!(
            "{:>8}: edge-cut = {:>7}, imbalance = {:.3}, non-empty blocks = {}",
            report.algorithm,
            report.edge_cut,
            report.imbalance,
            report.partition.used_blocks()
        );
        reports.push(report);
    }

    // The paper's "improvement over" a baseline: (cut_B / cut_A − 1) · 100 %.
    let oms_cut = reports[0].edge_cut as f64;
    let hash_cut = reports[2].edge_cut as f64;
    println!(
        "\nnh-OMS improves {:.0} % over Hashing (paper's Fig. 2b relationship)",
        (hash_cut / oms_cut.max(1.0) - 1.0) * 100.0
    );
}
