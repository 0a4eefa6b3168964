//! Unit-weight equivalence suite (the C-FAR contract of the weighted
//! pipeline).
//!
//! Threading node and edge weights through the stream format, the scorers,
//! the capacity constraint and the metrics must leave the unweighted world
//! *exactly* as it was: a graph whose weights are all 1 has to produce
//! **byte-identical** assignments and per-pass trajectories no matter
//!
//! * whether the weights are implicit (no weight sections on disk, the
//!   pre-existing unweighted path) or explicit (forced weight sections full
//!   of 1s, the weighted path),
//! * which stream source delivers the nodes (in-memory in natural or
//!   explicit order, disk), and
//! * how many restreaming passes run (1 or 3).
//!
//! On top of the unit-weight contract, the suite checks that *weighted*
//! runs are themselves source-independent, that the balance constraint
//! bounds block **weights** (not node counts), and that the one shared
//! weighted-cut implementation agrees with the in-memory reference.

use oms::graph::io::{write_stream_file, write_stream_file_with, DiskStream, StreamWriteOptions};
use oms::graph::GraphError;
use oms::prelude::*;
use std::path::PathBuf;

/// A trajectory stripped to its comparable fields (pass, cut, imbalance,
/// moved).
type Trajectory = Vec<(usize, u64, f64, usize)>;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("oms-weighted-equivalence-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every registered algorithm family × passes ∈ {1, 3}, pinned to a fixed
/// seed.
fn registry_specs() -> Vec<String> {
    let bases = [
        "fennel:8@seed=3",
        "ldg:8@seed=3",
        "hashing:8@seed=3",
        "oms:2:2:2@seed=3",
        "nh-oms:8@seed=3",
        "multilevel:8@seed=3",
        "rms:2:2:2@seed=3",
        "buffered:8@seed=3,buf=100",
    ];
    let mut specs = Vec::new();
    for base in bases {
        specs.push(base.to_string());
        specs.push(format!("{base},passes=3"));
    }
    specs
}

fn strip(t: PassTrajectory) -> Trajectory {
    t.stats
        .into_iter()
        .map(|s| (s.pass, s.edge_cut, s.imbalance, s.moved))
        .collect()
}

fn run(partitioner: &dyn Partitioner, stream: &mut dyn NodeStream) -> (Vec<BlockId>, Trajectory) {
    let (partition, trajectory) = partitioner
        .partition_tracked(stream)
        .expect("partitioning succeeds");
    (partition.assignments().to_vec(), strip(trajectory))
}

/// The heart of the suite: a unit-weight graph streamed through every
/// weighted representation must reproduce the classic unweighted run
/// byte for byte — assignments *and* trajectories.
#[test]
fn unit_weights_are_byte_identical_across_all_sources_and_passes() {
    register_multilevel_algorithms();
    let graph = planted_partition(600, 8, 0.1, 0.005, 23);
    assert!(graph.is_unweighted());

    // The same topology with *explicit* unit weights, built through the
    // weighted APIs.
    let explicit = graph
        .with_node_weights(vec![1; graph.num_nodes()])
        .unwrap()
        .map_edge_weights(|_, _, w| w)
        .unwrap();
    assert_eq!(graph, explicit);

    let dir = temp_dir();
    let plain_path = dir.join("unit.oms");
    let forced_path = dir.join("unit-forced.oms");
    write_stream_file(&graph, &plain_path).unwrap();
    // Forced sections: the file carries full weight arrays of 1s, so the
    // decoder takes the weighted path end to end.
    write_stream_file_with(
        &graph,
        &forced_path,
        StreamWriteOptions {
            force_node_weights: true,
            force_edge_weights: true,
        },
    )
    .unwrap();

    for spec in registry_specs() {
        let partitioner = JobSpec::parse(&spec).unwrap().build().unwrap();
        // The pre-existing unweighted path: in-memory, implicit weights.
        let reference = run(&*partitioner, &mut InMemoryStream::new(&graph));
        assert_eq!(
            reference.0.len(),
            graph.num_nodes(),
            "{spec}: incomplete partition"
        );

        let explicit_mem = run(&*partitioner, &mut InMemoryStream::new(&explicit));
        assert_eq!(
            reference, explicit_mem,
            "{spec}: explicit in-memory weights differ"
        );

        let permuted = run(
            &*partitioner,
            &mut InMemoryStream::with_permutation(&graph, graph.nodes().collect()),
        );
        assert_eq!(reference, permuted, "{spec}: explicit-order stream differs");

        for (name, path) in [
            ("disk", &plain_path),
            ("disk, forced weight sections", &forced_path),
        ] {
            let mut disk = DiskStream::open(path).unwrap();
            assert_eq!(
                reference,
                run(&*partitioner, &mut disk),
                "{spec}: {name} differs"
            );
        }
    }
    for path in [&plain_path, &forced_path] {
        std::fs::remove_file(path).ok();
    }
}

/// Genuinely weighted runs must be just as source-independent as
/// unweighted ones: memory (natural and explicit order) and disk agree
/// byte for byte on a node- and edge-weighted graph.
#[test]
fn weighted_runs_are_source_independent() {
    register_multilevel_algorithms();
    let base = planted_partition(500, 8, 0.1, 0.005, 29);
    let graph = WeightScheme::Full.apply(&base, 11);
    assert!(!graph.is_unweighted());

    let dir = temp_dir();
    let path = dir.join("weighted.oms");
    write_stream_file(&graph, &path).unwrap();
    // The header states c(V); it must agree before any algorithm runs.
    assert_eq!(
        DiskStream::open(&path).unwrap().total_node_weight(),
        graph.total_node_weight()
    );

    for spec in registry_specs() {
        let partitioner = JobSpec::parse(&spec).unwrap().build().unwrap();
        let reference = run(&*partitioner, &mut InMemoryStream::new(&graph));
        let permuted = run(
            &*partitioner,
            &mut InMemoryStream::with_permutation(&graph, graph.nodes().collect()),
        );
        assert_eq!(
            reference, permuted,
            "{spec}: explicit order differs on weighted graph"
        );
        let mut disk = DiskStream::open(&path).unwrap();
        assert_eq!(
            reference,
            run(&*partitioner, &mut disk),
            "{spec}: disk differs on weighted graph"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// `L_max` is a *weight* capacity: on a weighted graph, the streaming
/// scorers must keep every block's total node weight within
/// `⌈(1+ε)·c(V)/k⌉` whenever a feasible block exists, and the partition's
/// bookkeeping must sum weights, not node counts.
#[test]
fn balance_constraint_bounds_block_weights() {
    register_multilevel_algorithms();
    let base = erdos_renyi_gnm(800, 3200, 7);
    let graph = WeightScheme::Nodes.apply(&base, 13);
    let capacity = Partition::capacity(graph.total_node_weight(), 8, 0.03);
    for spec in ["fennel:8@seed=3", "ldg:8@seed=3", "oms:2:2:2@seed=3"] {
        let report = JobSpec::parse(spec)
            .unwrap()
            .build()
            .unwrap()
            .run(&mut InMemoryStream::new(&graph))
            .unwrap();
        assert_eq!(
            report.total_node_weight(),
            graph.total_node_weight(),
            "{spec}: block weights must sum to c(V)"
        );
        // A single node may weigh up to DEFAULT_MAX_NODE_WEIGHT; the greedy
        // fallback can overfill by at most one node's weight.
        let slack = oms::gen::DEFAULT_MAX_NODE_WEIGHT;
        assert!(
            report.max_block_weight() <= capacity + slack,
            "{spec}: max block weight {} far exceeds L_max {capacity}",
            report.max_block_weight()
        );
        assert!(
            report.partition.validate(graph.node_weights()),
            "{spec}: cached block weights disagree with the node weights"
        );
    }
}

/// The one shared weighted-cut implementation: the stream-side cut
/// (`measure_pass` / `stream_edge_cut`) and the in-memory
/// `Partition::edge_cut` agree on weighted graphs, and the multi-pass
/// trajectory's final entry is the weighted cut of the returned partition.
#[test]
fn weighted_cut_agrees_between_stream_and_memory() {
    let base = barabasi_albert(600, 3, 17);
    let graph = WeightScheme::Full.apply(&base, 19);
    let report = JobSpec::parse("fennel:8@seed=3,passes=3")
        .unwrap()
        .build()
        .unwrap()
        .run(&mut InMemoryStream::new(&graph))
        .unwrap();
    assert_eq!(report.edge_cut, report.partition.edge_cut(&graph));
    assert_eq!(
        oms::core::stream_edge_cut(
            &mut InMemoryStream::new(&graph),
            report.partition.assignments()
        )
        .unwrap(),
        report.edge_cut
    );
    // A third count, per adjacency entry from the smaller endpoint, that
    // shares no code with either.
    let assignments = report.partition.assignments();
    let recounted: u64 = graph
        .nodes()
        .flat_map(|u| graph.neighbors_weighted(u).map(move |(v, w)| (u, v, w)))
        .filter(|&(u, v, _)| u < v && assignments[u as usize] != assignments[v as usize])
        .map(|(_, _, w)| w)
        .sum();
    assert_eq!(recounted, report.edge_cut);
    let last = report.trajectory.last().expect("multi-pass trajectory");
    assert_eq!(last.edge_cut, report.edge_cut);
}

/// Weighted multi-pass runs over a corrupted weighted file die with the
/// typed error on every pass — never with a panic, and never partitioning a
/// prefix.
#[test]
fn weighted_multi_pass_over_corrupt_files_is_a_typed_error() {
    let base = planted_partition(300, 4, 0.1, 0.01, 31);
    let graph = WeightScheme::Full.apply(&base, 5);
    let dir = temp_dir();

    // Weighted file cut under the open stream (`open` refuses a short file
    // outright).
    let path = dir.join("weighted-truncated.oms");
    write_stream_file(&graph, &path).unwrap();
    let mut stream = DiskStream::open(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
    let partitioner = JobSpec::parse("fennel:4@seed=3,passes=3")
        .unwrap()
        .build()
        .unwrap();
    let err = partitioner.partition(&mut stream).unwrap_err();
    assert!(
        err.to_string().contains("truncated"),
        "expected the typed truncation error, got: {err}"
    );

    // Zero node weight smuggled into the body: node 0's weight opens the
    // node-weight section, which follows the padded degrees section.
    let zero_path = dir.join("weighted-zero.oms");
    write_stream_file(&graph, &zero_path).unwrap();
    let info = oms::graph::io::stream_file_info(&zero_path).unwrap();
    let w0 = (info.header_bytes + info.degree_bytes).div_ceil(8) as usize * 8;
    let mut bytes = std::fs::read(&zero_path).unwrap();
    bytes[w0..w0 + 8].copy_from_slice(&0u64.to_le_bytes());
    std::fs::write(&zero_path, &bytes).unwrap();
    let mut stream = DiskStream::open(&zero_path).unwrap();
    match partitioner.partition(&mut stream).unwrap_err() {
        oms::core::PartitionError::Graph(GraphError::WeightOutOfRange { what, value, .. }) => {
            assert_eq!(what, "node");
            assert_eq!(value, 0);
        }
        other => panic!("expected WeightOutOfRange, got: {other}"),
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&zero_path).ok();
}

/// METIS round trip composed with the weighted pipeline: write → parse →
/// partition gives the identical report for the original and re-read graph.
#[test]
fn weighted_metis_roundtrip_preserves_partitioning() {
    use oms::graph::io::{read_metis_str, write_metis_string};
    let base = erdos_renyi_gnm(400, 1600, 3);
    let graph = WeightScheme::Full.apply(&base, 7);
    let text = write_metis_string(&graph).unwrap();
    let reread = read_metis_str(&text).unwrap();
    assert_eq!(graph, reread);
    let partitioner = JobSpec::parse("oms:2:2:2@seed=3").unwrap().build().unwrap();
    let a = partitioner.run(&mut InMemoryStream::new(&graph)).unwrap();
    let b = partitioner.run(&mut InMemoryStream::new(&reread)).unwrap();
    assert_eq!(a.partition, b.partition);
    assert_eq!(a.edge_cut, b.edge_cut);
}

/// Edge weights must actually steer the scorers: on a graph whose
/// intra-community edges are heavy and whose bridges are light, the
/// weighted cut of a quality scorer beats hashing by a wide margin — and
/// differs from what the same scorer produces when the weights are
/// stripped (proof that the weights reach the objective).
#[test]
fn edge_weights_steer_the_scorers() {
    let base = planted_partition(600, 4, 0.1, 0.01, 41);
    // Heavy inside communities (same block in the planted ground truth ≈
    // close ids), light across.
    let weighted = base
        .map_edge_weights(|u, v, _| if u / 150 == v / 150 { 100 } else { 1 })
        .unwrap();
    let fennel = JobSpec::parse("fennel:4@seed=3").unwrap().build().unwrap();
    let hashing = JobSpec::parse("hashing:4@seed=3").unwrap().build().unwrap();
    let weighted_cut = fennel
        .run(&mut InMemoryStream::new(&weighted))
        .unwrap()
        .edge_cut;
    let hashing_cut = hashing
        .run(&mut InMemoryStream::new(&weighted))
        .unwrap()
        .edge_cut;
    assert!(
        weighted_cut * 2 < hashing_cut,
        "fennel {weighted_cut} should be far below hashing {hashing_cut} on weighted communities"
    );
    // The weighted assignment differs from the unweighted one: weights are
    // not decorative.
    let unweighted_assign = fennel
        .run(&mut InMemoryStream::new(&base))
        .unwrap()
        .partition;
    let weighted_assign = fennel
        .run(&mut InMemoryStream::new(&weighted))
        .unwrap()
        .partition;
    assert_ne!(
        unweighted_assign.assignments(),
        weighted_assign.assignments(),
        "edge weights must influence the scoring decisions"
    );
}
