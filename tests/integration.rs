//! Cross-crate integration tests: end-to-end pipelines combining generators,
//! streaming partitioners, the in-memory baseline, process mapping and
//! metrics — the same compositions the benchmark harness and the examples
//! rely on.

use oms::graph::io::{read_metis_str, write_metis_string, write_stream_file, DiskStream};
use oms::prelude::*;

/// The relationships of Fig. 2a/2b on a single structured instance:
/// in-memory multilevel ≤ streaming (Fennel/OMS) ≤ Hashing for both
/// objectives.
#[test]
fn quality_ordering_matches_the_paper() {
    let graph = planted_partition(1_500, 16, 0.04, 0.001, 11);
    let k = 64u32;
    let hierarchy = HierarchySpec::parse("4:4:4").unwrap();
    let topology = Topology::parse("4:4:4", "1:10:100").unwrap();

    let hashing = Hashing::new(k, OnePassConfig::default())
        .partition_graph(&graph)
        .unwrap();
    let fennel = Fennel::new(k, OnePassConfig::default())
        .partition_graph(&graph)
        .unwrap();
    let nh_oms = OnlineMultiSection::flat(k, OmsConfig::default())
        .unwrap()
        .partition_graph(&graph)
        .unwrap();
    let oms = OnlineMultiSection::with_hierarchy(hierarchy.clone(), OmsConfig::default())
        .partition_graph(&graph)
        .unwrap();
    let multilevel = MultilevelPartitioner::new(k, MultilevelConfig::default())
        .partition(&graph)
        .unwrap();
    let offline = RecursiveMultisection::new(hierarchy, MultilevelConfig::default())
        .partition(&graph)
        .unwrap();

    // Edge-cut ordering (Fig. 2b).
    let cut = |p: &Partition| p.edge_cut(&graph);
    assert!(
        cut(&multilevel) <= cut(&fennel),
        "multilevel must beat fennel"
    );
    assert!(cut(&fennel) < cut(&hashing), "fennel must beat hashing");
    assert!(cut(&nh_oms) < cut(&hashing), "nh-oms must beat hashing");

    // Mapping-cost ordering (Fig. 2a).
    let j = |p: &Partition| mapping_cost(&graph, p.assignments(), &topology);
    assert!(
        j(&offline) <= j(&oms),
        "offline mapping must beat streaming OMS"
    );
    assert!(j(&oms) < j(&hashing), "OMS must beat hashing");

    // Everything streaming stays balanced at the paper's 3 %.
    for p in [&hashing, &fennel, &nh_oms, &oms] {
        assert_eq!(p.num_nodes(), graph.num_nodes());
    }
    for p in [&fennel, &nh_oms, &oms] {
        assert!(p.is_balanced(0.03 + 1e-9), "imbalance {}", p.imbalance());
    }
}

/// OMS exploits the hierarchy: its mapping cost should not be worse than the
/// hierarchy-oblivious Fennel partition evaluated under the same topology
/// (the paper reports 41 % better on average).
#[test]
fn oms_mapping_not_worse_than_fennel_identity_mapping() {
    let graph = barabasi_albert(3_000, 5, 3);
    let topology = Topology::parse("4:4:4", "1:10:100").unwrap();
    let k = topology.num_pes();

    let fennel = Fennel::new(k, OnePassConfig::default())
        .partition_graph(&graph)
        .unwrap();
    let oms = OnlineMultiSection::with_hierarchy(
        HierarchySpec::parse("4:4:4").unwrap(),
        OmsConfig::default(),
    )
    .partition_graph(&graph)
    .unwrap();

    let fennel_j = mapping_cost(&graph, fennel.assignments(), &topology);
    let oms_j = mapping_cost(&graph, oms.assignments(), &topology);
    assert!(
        oms_j as f64 <= 1.1 * fennel_j as f64,
        "OMS mapping {oms_j} should be at least comparable to Fennel {fennel_j}"
    );
}

/// Streaming from disk and from memory must give identical results — the
/// one-pass model only ever sees one node at a time either way.
#[test]
fn disk_stream_and_memory_stream_agree() {
    let graph = random_geometric_graph(3_000, 9);
    let path = std::env::temp_dir().join("oms-integration-disk-stream.oms");
    write_stream_file(&graph, &path).unwrap();

    let oms = OnlineMultiSection::flat(128, OmsConfig::default()).unwrap();
    let from_memory = oms.partition_graph(&graph).unwrap();
    let mut disk = DiskStream::open(&path).unwrap();
    let from_disk = oms.partition_stream(&mut disk).unwrap();
    assert_eq!(from_memory, from_disk);

    let fennel = Fennel::new(128, OnePassConfig::default());
    let mut disk = DiskStream::open(&path).unwrap();
    assert_eq!(
        fennel.partition_graph(&graph).unwrap(),
        fennel.partition_stream(&mut disk).unwrap()
    );
    std::fs::remove_file(&path).ok();
}

/// METIS round-trip composed with partitioning: the partition of a re-read
/// graph is identical because the graph is identical.
#[test]
fn metis_roundtrip_preserves_partitioning() {
    let graph = delaunay_graph(1_000, 5);
    let text = write_metis_string(&graph).unwrap();
    let reread = read_metis_str(&text).unwrap();
    assert_eq!(graph, reread);

    let oms = OnlineMultiSection::flat(32, OmsConfig::default()).unwrap();
    assert_eq!(
        oms.partition_graph(&graph).unwrap(),
        oms.partition_graph(&reread).unwrap()
    );
}

/// Offline remapping of a hierarchy-oblivious partition (greedy + local
/// search over the block communication graph) never increases the mapping
/// cost.
#[test]
fn offline_remapping_improves_fennel() {
    let graph = rmat_graph(12, 40_000, oms::gen::RmatParams::GRAPH500, 3);
    let topology = Topology::parse("2:2:2:2:2:2", "1:2:4:8:16:32").unwrap();
    let k = topology.num_pes();
    let fennel = Fennel::new(k, OnePassConfig::default())
        .partition_graph(&graph)
        .unwrap();
    let before = mapping_cost(&graph, fennel.assignments(), &topology);
    let remapped = remap_partition(&fennel, &offline_block_mapping(&graph, &fennel, &topology));
    let after = mapping_cost(&graph, &remapped, &topology);
    assert!(
        after <= before,
        "remapping {after} must not exceed {before}"
    );
}

/// The whole synthetic corpus can be generated, streamed and partitioned —
/// the smoke test behind every benchmark binary.
#[test]
fn corpus_smoke_test() {
    for (name, _class, graph) in oms::gen::scaled_corpus(0.01, 7) {
        let k = 16;
        let p = OnlineMultiSection::flat(k, OmsConfig::default())
            .unwrap()
            .partition_graph(&graph)
            .unwrap();
        assert_eq!(p.num_nodes(), graph.num_nodes(), "{name}");
        assert!(p.is_balanced(0.031), "{name}: imbalance {}", p.imbalance());
    }
}

/// Every algorithm in the shared dispatch registry — streaming baselines,
/// OMS/nh-OMS, and the in-memory baselines contributed by `oms-multilevel`
/// — builds from a single `JobSpec` string and produces a complete, valid,
/// balanced partition on the quickstart community graph.
#[test]
fn every_registered_algorithm_partitions_the_quickstart_graph() {
    register_multilevel_algorithms();
    let graph = planted_partition(600, 8, 0.1, 0.005, 42);

    let registered: Vec<String> = ALGORITHMS
        .list()
        .iter()
        .map(|a| a.name.to_string())
        .collect();
    for required in [
        "hashing",
        "ldg",
        "fennel",
        "oms",
        "nh-oms",
        "multilevel",
        "rms",
    ] {
        assert!(
            registered.iter().any(|n| n == required),
            "registry is missing '{required}' (has: {registered:?})"
        );
    }

    for algo in ALGORITHMS.list() {
        // rms insists on a hierarchy; give every hierarchy-aware algorithm
        // one and the rest a flat k = 8.
        let spec = if algo.supports_hierarchy {
            format!("{}:2:2:2", algo.name)
        } else {
            format!("{}:8", algo.name)
        };
        let job = JobSpec::parse(&spec).unwrap();
        let partitioner = job.build().unwrap_or_else(|e| panic!("{spec}: {e}"));
        let report = partitioner
            .run(&mut InMemoryStream::new(&graph))
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(report.partition.num_nodes(), 600, "{spec}");
        assert_eq!(report.num_blocks(), 8, "{spec}");
        assert!(report.partition.validate(graph.node_weights()), "{spec}");
        // Hashing ignores the balance constraint but must stay statistically
        // balanced; everything else respects the paper's 3 %.
        if algo.name == "hashing" {
            assert!(
                report.imbalance < 0.5,
                "{spec}: imbalance {}",
                report.imbalance
            );
        } else {
            assert!(
                report.is_balanced(0.1),
                "{spec}: imbalance {}",
                report.imbalance
            );
        }
    }
}

/// The restreaming modifier `passes=` is part of the same job string and
/// drives the restreaming variants through the identical
/// `Box<dyn Partitioner>` entry point.
#[test]
fn jobspec_modifiers_drive_restreaming_and_parallel_variants() {
    let graph = planted_partition(600, 8, 0.1, 0.005, 43);
    for spec in ["fennel:8@passes=3", "ldg:8@passes=2", "oms:8@passes=2"] {
        let report = JobSpec::parse(spec)
            .unwrap()
            .build()
            .unwrap_or_else(|e| panic!("{spec}: {e}"))
            .run(&mut InMemoryStream::new(&graph))
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(report.partition.num_nodes(), 600, "{spec}");
        assert!(report.partition.validate(graph.node_weights()), "{spec}");
        assert!(
            report.imbalance < 0.25,
            "{spec}: imbalance {}",
            report.imbalance
        );
    }
}

/// Restreaming (the ReFennel-style extension) never loses to the single-pass
/// run on edge-cut.
#[test]
fn restreaming_improves_or_matches_single_pass() {
    let graph = planted_partition(1_200, 8, 0.05, 0.002, 23);
    let k = 32;
    let single = Fennel::new(k, OnePassConfig::default())
        .partition_graph(&graph)
        .unwrap();
    let restreamed = Fennel::new(k, OnePassConfig::default())
        .passes(3)
        .partition_graph(&graph)
        .unwrap();
    assert!(
        restreamed.edge_cut(&graph) <= single.edge_cut(&graph),
        "restreaming must not worsen the cut"
    );
}
