//! Cross-crate integration tests: end-to-end pipelines combining generators,
//! streaming partitioners, the in-memory baseline, process mapping and
//! metrics — the same compositions the benchmark harness and the examples
//! rely on.

use oms::graph::io::{read_metis_str, write_metis_string, write_stream_file, DiskStream};
use oms::prelude::*;

/// The partition the job `text` computes for the stream.
fn partition(text: &str, stream: &mut dyn NodeStream) -> Partition {
    let partitioner = JobSpec::parse(text).unwrap().build().unwrap();
    partitioner
        .partition(stream)
        .unwrap_or_else(|e| panic!("{text}: {e}"))
}

/// The partition the job `text` computes for `graph`.
fn run(text: &str, graph: &CsrGraph) -> Partition {
    partition(text, &mut InMemoryStream::new(graph))
}

/// The machine of `"4:4:4"`-style hierarchy and distance strings.
fn machine(hierarchy: &str, distances: &str) -> (HierarchySpec, DistanceSpec) {
    (
        HierarchySpec::parse(hierarchy).unwrap(),
        DistanceSpec::parse(distances).unwrap(),
    )
}

/// The mapping cost `J` of running node `v` of `graph` on PE `pe[v]`, through
/// the production measurement walk.
fn j_of(graph: &CsrGraph, pe: &[BlockId], h: &HierarchySpec, d: &DistanceSpec) -> u64 {
    oms::core::api::stream_mapping_cost(&mut InMemoryStream::new(graph), pe, h, d).unwrap()
}

/// Node `v` on PE `pe_of_block[p.block_of(v)]`.
fn remap(p: &Partition, pe_of_block: &[BlockId]) -> Vec<BlockId> {
    p.assignments()
        .iter()
        .map(|&b| pe_of_block[b as usize])
        .collect()
}

/// The relationships of Fig. 2a/2b on a single structured instance:
/// in-memory multilevel ≤ streaming (Fennel/OMS) ≤ Hashing for both
/// objectives.
#[test]
fn quality_ordering_matches_the_paper() {
    register_multilevel_algorithms();
    let graph = planted_partition(1_500, 16, 0.04, 0.001, 11);
    let k = 64u32;
    let (h, d) = machine("4:4:4", "1:10:100");

    let hashing = run(&format!("hashing:{k}"), &graph);
    let fennel = run(&format!("fennel:{k}"), &graph);
    let nh_oms = run(&format!("nh-oms:{k}"), &graph);
    let oms = run("oms:4:4:4", &graph);
    let multilevel = run(&format!("multilevel:{k}"), &graph);
    let offline = run("rms:4:4:4", &graph);

    // Edge-cut ordering (Fig. 2b).
    let cut = |p: &Partition| p.edge_cut(&graph);
    assert!(
        cut(&multilevel) <= cut(&fennel),
        "multilevel must beat fennel"
    );
    assert!(cut(&fennel) < cut(&hashing), "fennel must beat hashing");
    assert!(cut(&nh_oms) < cut(&hashing), "nh-oms must beat hashing");

    // Mapping-cost ordering (Fig. 2a).
    let j = |p: &Partition| j_of(&graph, p.assignments(), &h, &d);
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

/// OMS exploits the hierarchy: its mapping cost is below that of the
/// hierarchy-oblivious Fennel partition evaluated under the same topology
/// (the paper reports 41 % better on average; this instance, 6.6 %).
#[test]
fn oms_mapping_not_worse_than_fennel_identity_mapping() {
    let graph = barabasi_albert(3_000, 5, 3);
    let j = |job: &str| {
        let report = JobSpec::parse(job).unwrap().build().unwrap();
        let report = report.run(&mut InMemoryStream::new(&graph)).unwrap();
        report.mapping_cost.expect("dist= given")
    };
    let fennel_j = j("fennel:4:4:4@dist=1:10:100");
    let oms_j = j("oms:4:4:4@dist=1:10:100");
    assert!(
        oms_j < fennel_j,
        "OMS mapping {oms_j} must beat Fennel's {fennel_j}"
    );
}

/// Streaming from disk and from memory must give identical results — the
/// one-pass model only ever sees one node at a time either way.
#[test]
fn disk_stream_and_memory_stream_agree() {
    let graph = random_geometric_graph(3_000, 9);
    let path = std::env::temp_dir().join("oms-integration-disk-stream.oms");
    write_stream_file(&graph, &path).unwrap();

    for text in ["nh-oms:128", "fennel:128"] {
        let from_memory = run(text, &graph);
        let from_disk = partition(text, &mut DiskStream::open(&path).unwrap());
        assert_eq!(from_memory, from_disk, "{text}");
    }
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

    assert_eq!(run("nh-oms:32", &graph), run("nh-oms:32", &reread));
}

/// Offline remapping of a hierarchy-oblivious partition (greedy + local
/// search over the block communication graph) never increases the mapping
/// cost.
#[test]
fn offline_remapping_improves_fennel() {
    let graph = rmat_graph(12, 40_000, oms::gen::RmatParams::GRAPH500, 3);
    let (h, d) = machine("2:2:2:2:2:2", "1:2:4:8:16:32");
    let fennel = run("fennel:64", &graph);
    let before = j_of(&graph, fennel.assignments(), &h, &d);
    let pe_of_block = offline_block_mapping(&graph, &fennel, &h, &d);
    let after = j_of(&graph, &remap(&fennel, &pe_of_block), &h, &d);
    assert!(
        after <= before,
        "remapping {after} must not exceed {before}"
    );
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: &[u32]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The offline comparator is pinned bit for bit: the FNV-1a digest of its
/// `pe_of_block` and the J of the remapped partition, on three fixed
/// instances. k = 512 > 256 takes the windowed pair exchange.
#[test]
fn offline_block_mapping_is_pinned() {
    let graphs = [
        planted_partition(400, 8, 0.1, 0.01, 3),
        barabasi_albert(2_000, 4, 5),
        rmat_graph(11, 16_000, oms::gen::RmatParams::GRAPH500, 7),
    ];
    let pins = [
        ("fennel:8", "2:2:2", 0xca66_0902_7ae3_01f5, 55_942),
        ("hashing:64", "4:4:4", 0x09b2_e066_2069_a9b5, 576_206),
        ("fennel:512", "8:8:8", 0x8073_1633_d055_28e9, 886_986),
    ];
    for (graph, (job, hierarchy, digest, j)) in graphs.iter().zip(pins) {
        let p = run(job, graph);
        let (h, d) = machine(hierarchy, "1:10:100");
        let pe_of_block = offline_block_mapping(graph, &p, &h, &d);
        let remapped_j = j_of(graph, &remap(&p, &pe_of_block), &h, &d);
        assert_eq!(
            (fnv1a(&pe_of_block), remapped_j),
            (digest, j),
            "{job} on {hierarchy}"
        );
    }
}

/// Every instance of the synthetic corpus (one per Table 1 class and
/// artificial family) can be generated, streamed and partitioned.
#[test]
fn corpus_smoke_test() {
    for (name, graph) in oms::gen::scaled_corpus(0.01, 7) {
        let k = 16;
        let p = run(&format!("nh-oms:{k}"), &graph);
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
        // rms insists on a hierarchy and oms maps onto one; the rest get a
        // flat k = 8.
        let spec = if matches!(algo.name, "rms" | "oms") {
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
    let single = run(&format!("fennel:{k}"), &graph);
    let restreamed = run(&format!("fennel:{k}@passes=3"), &graph);
    assert!(
        restreamed.edge_cut(&graph) <= single.edge_cut(&graph),
        "restreaming must not worsen the cut"
    );
}
