//! Process mapping: stream a communication graph onto a hierarchical machine
//! (`S = 4:8:4`, `D = 1:10:100`) and compare the mapping cost `J` of
//! OMS against Fennel (which ignores the hierarchy), Hashing, and the
//! offline in-memory recursive multi-section — each selected by a `JobSpec`
//! string and evaluated through the unified `PartitionReport`.
//!
//! ```text
//! cargo run --release --example process_mapping
//! ```

use oms::prelude::*;

fn main() {
    // The in-memory baselines live behind the same registry; register them
    // once so "rms:..." resolves.
    register_multilevel_algorithms();

    // A social-network-like communication graph (heavy-tailed degrees).
    let graph = barabasi_albert(6_000, 6, 7);
    println!(
        "communication graph: {} processes, {} edges\n",
        graph.num_nodes(),
        graph.num_edges()
    );

    // The machine: 4 cores per processor, 8 processors per node, 4 nodes.
    println!("machine: S = 4:8:4 (128 PEs), D = 1:10:100\n");

    println!("{:<24} {:>14} {:>10}", "job", "mapping cost J", "edge-cut");
    let mut fennel_partition: Option<Partition> = None;
    for (label, spec) in [
        ("OMS (streaming)", "oms:4:8:4@dist=1:10:100"),
        ("Fennel (no hierarchy)", "fennel:4:8:4@dist=1:10:100"),
        ("Hashing", "hashing:4:8:4@dist=1:10:100"),
        ("offline multi-section", "rms:4:8:4@dist=1:10:100"),
    ] {
        let report = JobSpec::parse(spec)
            .expect("valid job spec")
            .build()
            .expect("registered algorithm")
            .run(&mut InMemoryStream::new(&graph))
            .expect("mapping succeeds");
        println!(
            "{:<24} {:>14} {:>10}",
            label,
            report.mapping_cost.expect("dist= given"),
            report.edge_cut,
        );
        if report.algorithm == "fennel" {
            fennel_partition = Some(report.partition);
        }
    }

    // A plain partitioner can be turned into a mapper after the fact by
    // assigning its blocks to PEs (greedy construction, then pair exchange
    // on the quotient graph) — still worse than building the hierarchy into
    // the streaming pass itself.
    let hierarchy = HierarchySpec::parse("4:8:4").unwrap();
    let distances = DistanceSpec::parse("1:10:100").unwrap();
    let fennel = fennel_partition.expect("fennel ran");
    let pe_of_block = offline_block_mapping(&graph, &fennel, &hierarchy, &distances);
    let remapped: Vec<BlockId> = fennel
        .assignments()
        .iter()
        .map(|&b| pe_of_block[b as usize])
        .collect();
    let j = oms::core::api::stream_mapping_cost(
        &mut InMemoryStream::new(&graph),
        &remapped,
        &hierarchy,
        &distances,
    )
    .expect("an in-memory graph measures");
    println!(
        "{:<24} {:>14} {:>10}",
        "Fennel + block remap",
        j,
        // Remapping relabels blocks, so the cut is Fennel's.
        fennel.edge_cut(&graph),
    );
}
