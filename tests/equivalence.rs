//! Equivalence suite for the batch executor.
//!
//! The batched streaming pipeline must be a pure execution-model change:
//! for a fixed seed, every registered algorithm has to produce **byte
//! identical** assignments no matter
//!
//! * how the stream is batched (the per-node path — batch size 1, via the
//!   test-local [`Rebatched`] — against the default batched path), and
//! * where the stream comes from (in-memory in natural or explicitly
//!   permuted order, or disk — the binary vertex-stream format and METIS
//!   text in all four weight formats).

use oms::graph::io::{write_metis, write_stream_file, DiskStream, MetisStream};
use oms::graph::{NodeWeight, StreamedNode};
use oms::prelude::*;
use std::path::PathBuf;

fn temp_stream_file(graph: &CsrGraph, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("oms-equivalence-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    write_stream_file(graph, &path).unwrap();
    path
}

/// The registry's algorithm families, pinned to a fixed seed. The drive loop
/// feeds every one of them node by node — `buffered` collects its own
/// batches of `buf` — so how the source batches its reads must not change
/// anything.
fn algorithm_specs() -> Vec<&'static str> {
    vec![
        "fennel:8@seed=3",
        "ldg:8@seed=3",
        "hashing:8@seed=3",
        "oms:2:2:2@seed=3",
        "nh-oms:8@seed=3",
        "fennel:8@seed=3,passes=3",
        "oms:8@seed=3,passes=2",
        "ldg:8@seed=3,passes=2",
        "hashing:8@seed=3,passes=2",
        "fennel:8@seed=3,passes=4,conv=0.01",
        "multilevel:8@seed=3",
        "multilevel:8@seed=3,passes=2",
        "rms:2:2:2@seed=3",
        "buffered:8@seed=3,buf=100",
        "buffered:8@seed=3,buf=100,passes=2",
    ]
}

fn assignments(partitioner: &dyn Partitioner, stream: &mut dyn NodeStream) -> Vec<BlockId> {
    partitioner
        .partition(stream)
        .expect("partitioning succeeds")
        .assignments()
        .to_vec()
}

#[test]
fn batch_executor_matches_per_node_path_for_every_algorithm() {
    register_multilevel_algorithms();
    let graph = planted_partition(700, 8, 0.1, 0.005, 17);
    for spec in algorithm_specs() {
        let partitioner = JobSpec::parse(spec).unwrap().build().unwrap();
        let batched = assignments(&*partitioner, &mut InMemoryStream::new(&graph));
        let per_node = assignments(
            &*partitioner,
            &mut Rebatched(InMemoryStream::new(&graph), 1),
        );
        assert_eq!(
            batched, per_node,
            "{spec}: batched and per-node assignments must be byte-identical"
        );
    }
}

#[test]
fn all_stream_sources_produce_identical_assignments() {
    register_multilevel_algorithms();
    let graph = planted_partition(600, 8, 0.1, 0.005, 23);
    let path = temp_stream_file(&graph, "sources.oms");
    for spec in algorithm_specs() {
        let partitioner = JobSpec::parse(spec).unwrap().build().unwrap();
        let reference = assignments(&*partitioner, &mut InMemoryStream::new(&graph));

        let permuted = assignments(
            &*partitioner,
            &mut InMemoryStream::with_permutation(&graph, graph.nodes().collect()),
        );
        assert_eq!(reference, permuted, "{spec}: explicit-order stream differs");

        let mut disk = DiskStream::open(&path).unwrap();
        assert_eq!(
            reference,
            assignments(&*partitioner, &mut disk),
            "{spec}: disk stream differs"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Serves every pass in batches of at most `.1` nodes, whatever the
/// consumer asks for.
struct Rebatched<S>(S, usize);

impl<S: NodeStream> NodeStream for Rebatched<S> {
    fn num_nodes(&self) -> usize {
        self.0.num_nodes()
    }
    fn num_edges(&self) -> usize {
        self.0.num_edges()
    }
    fn total_node_weight(&self) -> NodeWeight {
        self.0.total_node_weight()
    }
    fn reset(&mut self) -> oms::graph::Result<()> {
        self.0.reset()
    }
    fn for_each_node(&mut self, f: &mut dyn FnMut(StreamedNode<'_>)) -> oms::graph::Result<()> {
        let size = self.1;
        self.0
            .for_each_batch(size, &mut |batch| batch.iter().for_each(&mut *f))
    }
    fn for_each_batch(
        &mut self,
        _batch_size: usize,
        f: &mut dyn FnMut(&NodeBatch),
    ) -> oms::graph::Result<()> {
        self.0.for_each_batch(self.1, f)
    }
}

/// One pass as owned `(id, weight, neighbors, edge weights)` tuples.
fn node_sequence(stream: &mut dyn NodeStream) -> Vec<(u32, u64, Vec<u32>, Vec<u64>)> {
    let mut nodes = Vec::new();
    let mut push = |n: StreamedNode<'_>| {
        nodes.push((
            n.node,
            n.weight,
            n.neighbors.to_vec(),
            n.edge_weights.to_vec(),
        ))
    };
    stream.for_each_node(&mut push).unwrap();
    nodes
}

/// METIS text streams like everything else: over the suite's graphs in all
/// four weight formats (fmt 0, 10, 1, 11), a `MetisStream` delivers the node
/// sequence of `InMemoryStream(read_metis)` and of a `DiskStream` over the
/// converted file, at every batch size — and so the one-pass algorithms
/// assign identically from all three.
#[test]
fn metis_text_streams_like_the_graph_it_describes() {
    let dir = std::env::temp_dir().join("oms-equivalence-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let graphs = [
        planted_partition(700, 8, 0.1, 0.005, 17),
        planted_partition(600, 8, 0.1, 0.005, 23),
        planted_partition(500, 8, 0.12, 0.005, 29),
    ];
    let schemes = [
        (WeightScheme::Unit, "0"),
        (WeightScheme::Nodes, "10"),
        (WeightScheme::Edges, "1"),
        (WeightScheme::Full, "11"),
    ];
    let specs = [
        "hashing:8@seed=3",
        "ldg:8@seed=3",
        "fennel:8@seed=3",
        "oms:4:4@seed=3",
        "nh-oms:8@seed=3",
    ];
    for (i, base) in graphs.iter().enumerate() {
        for (scheme, fmt) in schemes {
            let graph = scheme.apply(base, 7);
            let tag = format!("metis-{i}-{}", scheme.name());
            let metis_path = dir.join(format!("{tag}.graph"));
            write_metis(&graph, &metis_path).unwrap();
            let stream_path = temp_stream_file(&graph, &format!("{tag}.oms"));

            let read_back = oms::graph::io::read_metis(&metis_path).unwrap();
            assert_eq!(read_back, graph, "{tag}: read_metis");
            let text = std::fs::read_to_string(&metis_path).unwrap();
            let header = text.lines().next().unwrap();
            assert_eq!(header.split(' ').nth(2).unwrap_or("0"), fmt, "{tag}");
            let metis = MetisStream::open(&metis_path).unwrap();
            assert_eq!(metis.num_edges(), graph.num_edges(), "{tag}");
            assert_eq!(
                metis.total_node_weight(),
                graph.total_node_weight(),
                "{tag}"
            );

            let reference_nodes = node_sequence(&mut InMemoryStream::new(&read_back));
            let references: Vec<Vec<BlockId>> = specs
                .iter()
                .map(|spec| {
                    let partitioner = JobSpec::parse(spec).unwrap().build().unwrap();
                    assignments(&*partitioner, &mut InMemoryStream::new(&read_back))
                })
                .collect();
            for batch_size in [1, 7, 4096] {
                let mut metis = Rebatched(MetisStream::open(&metis_path).unwrap(), batch_size);
                let mut disk = Rebatched(DiskStream::open(&stream_path).unwrap(), batch_size);
                assert_eq!(
                    node_sequence(&mut metis),
                    reference_nodes,
                    "{tag}, batches of {batch_size}: METIS node sequence"
                );
                assert_eq!(
                    node_sequence(&mut disk),
                    reference_nodes,
                    "{tag}, batches of {batch_size}: disk node sequence"
                );
                for (spec, reference) in specs.iter().zip(&references) {
                    let partitioner = JobSpec::parse(spec).unwrap().build().unwrap();
                    metis.reset().unwrap();
                    assert_eq!(
                        &assignments(&*partitioner, &mut metis),
                        reference,
                        "{tag}, {spec}, batches of {batch_size}: METIS stream differs"
                    );
                    assert_eq!(
                        &assignments(&*partitioner, &mut disk),
                        reference,
                        "{tag}, {spec}, batches of {batch_size}: disk stream differs"
                    );
                }
            }
            std::fs::remove_file(&metis_path).ok();
            std::fs::remove_file(&stream_path).ok();
        }
    }
}

#[test]
fn batch_size_does_not_change_sequential_results() {
    // The executor's batch size is an implementation detail of the drive
    // loop; streaming scorers only ever see one node at a time, so any
    // batching must yield the same partition.
    let graph = planted_partition(500, 8, 0.12, 0.005, 29);
    let fennel = JobSpec::parse("fennel:8@seed=7").unwrap().build().unwrap();
    let reference = fennel
        .partition(&mut Rebatched(InMemoryStream::new(&graph), 1))
        .unwrap();
    for permuted in [false, true] {
        let mut stream = if permuted {
            InMemoryStream::with_ordering(&graph, NodeOrdering::Random(5))
        } else {
            InMemoryStream::new(&graph)
        };
        let batched = fennel.partition(&mut stream).unwrap();
        if !permuted {
            assert_eq!(reference, batched);
        } else {
            // A different stream order legitimately changes the result; it
            // must still be a complete, valid partition.
            assert_eq!(batched.num_nodes(), 500);
            assert!(batched.validate(&vec![1; 500]));
        }
    }
}

#[test]
fn restreaming_equivalence_holds_across_sources() {
    // Multi-pass algorithms re-open the stream once per pass; disk and
    // memory must still agree pass for pass.
    let graph = planted_partition(400, 4, 0.15, 0.01, 31);
    let path = temp_stream_file(&graph, "restream.oms");
    let job = JobSpec::parse("fennel:4@seed=1,passes=4").unwrap();
    let partitioner = job.build().unwrap();
    let memory = assignments(&*partitioner, &mut InMemoryStream::new(&graph));
    let mut disk = DiskStream::open(&path).unwrap();
    assert_eq!(memory, assignments(&*partitioner, &mut disk));
    std::fs::remove_file(&path).ok();
}

#[test]
fn multi_pass_over_a_corrupt_disk_file_fails_with_the_typed_error() {
    // The multi-pass engine rewinds the stream between passes; over a file
    // cut under the open stream (`open` refuses a short file outright) the
    // run must die with the typed truncation error — never stream short and
    // partition a prefix.
    let graph = planted_partition(200, 4, 0.1, 0.01, 31);
    let path = temp_stream_file(&graph, "corrupt-multipass.oms");
    let mut stream = DiskStream::open(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
    let partitioner = JobSpec::parse("fennel:4@seed=3,passes=3")
        .unwrap()
        .build()
        .unwrap();
    let err = partitioner.partition(&mut stream).unwrap_err();
    assert!(
        err.to_string().contains("truncated"),
        "expected the typed truncation error, got: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn multi_pass_trajectories_agree_across_stream_sources() {
    // Not only the final assignment: the whole per-pass quality trajectory
    // (cuts, moved counts, early-exit behavior) must be identical no matter
    // where the stream comes from.
    register_multilevel_algorithms();
    let graph = planted_partition(500, 8, 0.1, 0.005, 37);
    let path = temp_stream_file(&graph, "trajectory-sources.oms");
    for spec in [
        "fennel:8@seed=3,passes=4",
        "ldg:8@seed=3,passes=3,conv=0.01",
        "buffered:8@seed=3,buf=100,passes=3",
    ] {
        let partitioner = JobSpec::parse(spec).unwrap().build().unwrap();
        let strip = |t: Vec<oms::core::PassStats>| -> Vec<(usize, u64, usize)> {
            t.into_iter()
                .map(|s| (s.pass, s.edge_cut, s.moved))
                .collect()
        };
        let (_, reference) = partitioner
            .partition_tracked(&mut InMemoryStream::new(&graph))
            .unwrap();
        let reference = strip(reference.stats);
        assert!(!reference.is_empty(), "{spec}");

        let (_, permuted) = partitioner
            .partition_tracked(&mut InMemoryStream::with_permutation(
                &graph,
                graph.nodes().collect(),
            ))
            .unwrap();
        assert_eq!(
            reference,
            strip(permuted.stats),
            "{spec}: explicit order differs"
        );

        let mut disk = DiskStream::open(&path).unwrap();
        let (_, disk_t) = partitioner.partition_tracked(&mut disk).unwrap();
        assert_eq!(reference, strip(disk_t.stats), "{spec}: disk differs");
    }
    std::fs::remove_file(&path).ok();
}

/// The fused measurement walk against per-edge references written the slow
/// way: the cut and the imbalance straight from their definitions, on random
/// weighted graphs × hierarchies (powers of two and not) × distance specs
/// with ℓ and ℓ+1 levels — including assignments with unassigned nodes and
/// block ids beyond `k`, which have no level code, and graphs with fewer
/// nodes than blocks, whose walk builds no codes at all. The walk's `J` on
/// such assignments is held to the one naive `J` reference in
/// `tests/properties.rs`.
#[test]
fn fused_measurement_walk_matches_the_per_edge_references() {
    use oms::core::api::stream_mapping_cost;
    use oms::core::{measure, measure_pass, stream_edge_cut, UNASSIGNED};

    for (seed, hierarchy) in ["2:2", "4:16:16", "3:5:2", "3:7:2:5"]
        .into_iter()
        .enumerate()
    {
        let hierarchy = HierarchySpec::parse(hierarchy).unwrap();
        let (k, levels) = (hierarchy.total_blocks(), hierarchy.num_levels());
        // More nodes than blocks (the codes are used) and fewer (they are
        // not).
        for n in [3 * k as usize + 50, (k as usize / 2).max(6)] {
            let seed = seed as u64 + n as u64;
            let graph = WeightScheme::Full.apply(&erdos_renyi_gnm(n, 4 * n, seed), seed);
            let clean: Vec<BlockId> = (0..n as u64)
                .map(|v| (v.wrapping_mul(2654435761).wrapping_add(seed) % k as u64) as BlockId)
                .collect();
            let mut hostile = clean.clone();
            hostile[0] = UNASSIGNED;
            hostile[n / 2] = UNASSIGNED;
            hostile[graph.neighbors(0).first().copied().unwrap_or(1) as usize] = UNASSIGNED;
            hostile[n - 1] = k + 5;
            hostile[n - 2] = u32::MAX - 1;

            for assignments in [&clean, &hostile] {
                let valid = |b: BlockId| b < k;
                let mut twice_cut = 0u64;
                let mut block_weights = vec![0u64; k as usize];
                for v in graph.nodes() {
                    let own = assignments[v as usize];
                    if valid(own) {
                        block_weights[own as usize] += graph.node_weight(v);
                    }
                    for (u, w) in graph.neighbors_weighted(v) {
                        if own == UNASSIGNED || assignments[u as usize] != own {
                            twice_cut += w;
                        }
                    }
                }
                let heaviest = *block_weights.iter().max().unwrap() as f64;
                let imbalance = heaviest / (graph.total_node_weight() as f64 / k as f64) - 1.0;

                for extra_level in [0, 1] {
                    let distances: Vec<u64> = (0..levels + extra_level)
                        .map(|level| 10u64.pow(level as u32) + level as u64)
                        .collect();
                    let distances = DistanceSpec::new(distances).unwrap();

                    let stream = &mut InMemoryStream::new(&graph);
                    let topology = Some((&hierarchy, &distances));
                    let fused = measure(stream, assignments, k, topology).unwrap();
                    assert_eq!(fused.edge_cut, twice_cut / 2);
                    assert_eq!(fused.imbalance, imbalance);
                    assert_eq!(fused.total_edge_weight, graph.total_edge_weight());

                    // The wrappers the benchmark calls read the same walk.
                    assert_eq!(
                        measure_pass(stream, assignments, k).unwrap(),
                        (fused.edge_cut, fused.imbalance)
                    );
                    assert_eq!(
                        stream_mapping_cost(stream, assignments, &hierarchy, &distances).ok(),
                        fused.mapping_cost
                    );
                }
                if assignments == &clean {
                    assert_eq!(
                        stream_edge_cut(&mut InMemoryStream::new(&graph), assignments).unwrap(),
                        twice_cut / 2
                    );
                }
            }
        }
    }
}

#[test]
fn a_distance_spec_shorter_than_the_hierarchy_is_a_typed_error() {
    let graph = planted_partition(40, 4, 0.3, 0.05, 3);
    let hierarchy = HierarchySpec::parse("2:2:2").unwrap();
    let distances = DistanceSpec::parse("1:10").unwrap();
    let err = oms::core::api::stream_mapping_cost(
        &mut InMemoryStream::new(&graph),
        &[0; 40],
        &hierarchy,
        &distances,
    )
    .unwrap_err();
    assert!(err.to_string().contains("levels"), "{err}");
}

/// A hand-built stream: whatever adjacency lists the test writes down, in
/// the order it writes them — multi-edges, self-loop entries and lists that
/// are not symmetric included, none of which a [`CsrGraph`] can hold.
struct Listed {
    nodes: Vec<(u32, NodeWeight, Vec<u32>, Vec<u64>)>,
}

/// One node's `(neighbor, edge weight)` list.
type Adjacency<'a> = &'a [(u32, u64)];

/// A triangle whose 0–1 edge is listed twice from both sides with different
/// weights, a doubled 2–3 edge, and self-loop entries on nodes 1 (once, odd
/// weight: the halved sum rounds) and 3 (twice).
const MULTI_EDGES_AND_SELF_LOOPS: [Adjacency<'static>; 5] = [
    &[(1, 2), (2, 1), (1, 5)],
    &[(0, 5), (1, 3), (0, 2), (2, 4)],
    &[(0, 1), (1, 4), (3, 1), (3, 1)],
    &[(2, 1), (3, 6), (2, 1), (3, 6)],
    &[],
];

impl Listed {
    /// Unit node weights; `lists[v]` is `v`'s list.
    fn new(lists: &[Adjacency<'_>]) -> Self {
        let unzip = |list: &Adjacency<'_>| list.iter().copied().unzip();
        let lists = lists.iter().map(unzip).enumerate();
        Listed {
            nodes: lists.map(|(v, (ids, ws))| (v as u32, 1, ids, ws)).collect(),
        }
    }
}

impl NodeStream for Listed {
    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
    fn num_edges(&self) -> usize {
        self.nodes.iter().map(|node| node.2.len()).sum::<usize>() / 2
    }
    fn total_node_weight(&self) -> NodeWeight {
        self.nodes.iter().map(|node| node.1).sum()
    }
    fn for_each_node(&mut self, f: &mut dyn FnMut(StreamedNode<'_>)) -> oms::graph::Result<()> {
        for (node, weight, neighbors, edge_weights) in &self.nodes {
            f(StreamedNode {
                node: *node,
                weight: *weight,
                neighbors,
                edge_weights,
            });
        }
        Ok(())
    }
}

/// Counts the passes and rewinds a job asks of its stream.
struct Counting<S> {
    inner: S,
    passes: usize,
    resets: usize,
}

impl<S: NodeStream> Counting<S> {
    fn new(inner: S) -> Self {
        Counting {
            inner,
            passes: 0,
            resets: 0,
        }
    }
}

impl<S: NodeStream> NodeStream for Counting<S> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }
    fn total_node_weight(&self) -> NodeWeight {
        self.inner.total_node_weight()
    }
    fn reset(&mut self) -> oms::graph::Result<()> {
        self.resets += 1;
        self.inner.reset()
    }
    fn for_each_node(&mut self, f: &mut dyn FnMut(StreamedNode<'_>)) -> oms::graph::Result<()> {
        self.passes += 1;
        self.inner.for_each_node(f)
    }
    fn for_each_batch(
        &mut self,
        batch_size: usize,
        f: &mut dyn FnMut(&NodeBatch),
    ) -> oms::graph::Result<()> {
        self.passes += 1;
        self.inner.for_each_batch(batch_size, f)
    }
}

/// `run()`'s report of `spec` over `stream` against the two-scan reference:
/// [`oms::core::measure`] of the returned partition on the rewound stream.
/// Every number must agree exactly.
fn assert_report_equals_the_measurement_walk(spec: &str, stream: &mut dyn NodeStream, tag: &str) {
    let partitioner = JobSpec::parse(spec).unwrap().build().unwrap();
    let report = partitioner
        .run(stream)
        .unwrap_or_else(|e| panic!("{spec} over {tag}: {e}"));
    stream.reset().unwrap();
    let (assignments, k) = (report.partition.assignments(), report.num_blocks());
    let reference = oms::core::measure(stream, assignments, k, partitioner.topology()).unwrap();
    assert_eq!(
        (
            report.edge_cut,
            report.mapping_cost,
            report.total_edge_weight,
            report.imbalance
        ),
        (
            reference.edge_cut,
            reference.mapping_cost,
            Some(reference.total_edge_weight),
            reference.imbalance
        ),
        "{spec} over {tag}: (cut, J, ω(E), imbalance) of the report vs. the measurement walk"
    );
    assert_eq!(reference.mapping_cost.is_some(), spec.contains("dist="));
}

/// The one-pass jobs tally their report while they partition; the two-scan
/// path (partition, rewind, [`oms::core::measure`]) is the reference. Every
/// per-node registry algorithm × every source × unit and fully weighted
/// graphs × with and without `dist=` × k ∈ {1, 7, 64, k > n}, plus
/// hand-built streams with multi-edges and a self-loop entry, which the
/// measurement walk files under level 0.
#[test]
fn one_pass_reports_equal_the_measurement_walk_on_the_rewound_stream() {
    let dir = std::env::temp_dir().join("oms-equivalence-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let n = 300;
    let mut specs: Vec<String> = Vec::new();
    for k in [1, 7, 64, n + 50] {
        for algorithm in ["hashing", "ldg", "fennel", "oms", "nh-oms"] {
            specs.push(format!("{algorithm}:{k}@seed=3"));
        }
    }
    specs.push("nh-oms:24@seed=3,base=3,hybrid=1".into());
    // `dist=` needs a hierarchy: k = 8, 64 and 512 > n.
    for (hierarchy, distances) in [
        ("2:2:2", "1:10:100"),
        ("4:4:4", "1:10:100"),
        ("8:8:8", "1:7:50:900"),
    ] {
        specs.push(format!("oms:{hierarchy}@seed=3"));
        specs.push(format!("oms:{hierarchy}@seed=3,dist={distances}"));
        specs.push(format!("oms:{hierarchy}@seed=3,hybrid=1,dist={distances}"));
    }

    for scheme in [WeightScheme::Unit, WeightScheme::Full] {
        let graph = scheme.apply(&erdos_renyi_gnm(n as usize, 5 * n as usize, 41), 9);
        let name = scheme.name();
        let metis_path = dir.join(format!("one-pass-{name}.graph"));
        write_metis(&graph, &metis_path).unwrap();
        let stream_path = dir.join(format!("one-pass-{name}.oms"));
        write_stream_file(&graph, &stream_path).unwrap();
        for spec in &specs {
            let mut sources: Vec<(&str, Box<dyn NodeStream + '_>)> = vec![
                ("memory", Box::new(InMemoryStream::new(&graph))),
                (
                    "memory, random order",
                    Box::new(InMemoryStream::with_ordering(
                        &graph,
                        NodeOrdering::Random(5),
                    )),
                ),
                ("METIS", Box::new(MetisStream::open(&metis_path).unwrap())),
                (".oms", Box::new(DiskStream::open(&stream_path).unwrap())),
            ];
            for (source, stream) in &mut sources {
                let tag = format!("{name} weights, {source}");
                assert_report_equals_the_measurement_walk(spec, stream.as_mut(), &tag);
            }
        }
        std::fs::remove_file(&metis_path).ok();
        std::fs::remove_file(&stream_path).ok();
    }

    for spec in [
        "hashing:3@seed=1",
        "ldg:2",
        "fennel:3",
        "fennel:1",
        "nh-oms:4@base=2",
        "oms:2:2@dist=1:10",
        "oms:2:2:2@dist=1:10:100",
    ] {
        assert_report_equals_the_measurement_walk(
            spec,
            &mut Listed::new(&MULTI_EDGES_AND_SELF_LOOPS),
            "multi-edges and self-loops",
        );
    }
}

/// Multi-pass runs tally every pass inside the pass, and their report is
/// their last accepted pass. The measurement walk over the rewound stream is
/// the reference for both:
///
/// * the report of every streaming algorithm × every source × unit and
///   fully weighted graphs × with and without `dist=`, plus the hand-built
///   stream with multi-edges and self-loop entries;
/// * every pass of the trajectory, `multilevel`'s seeded refinement
///   included: a run with a budget of `p` passes makes the first `p` passes
///   of the full run, so the walk over its result must find the full run's
///   last accepted pass among them.
#[test]
fn multi_pass_reports_and_trajectories_equal_the_measurement_walk() {
    register_multilevel_algorithms();
    let dir = std::env::temp_dir().join("oms-equivalence-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let specs = [
        "fennel:7@seed=3,passes=3",
        "ldg:7@seed=3,passes=3",
        "oms:4:4:4@seed=3,passes=3",
        "oms:2:2:2@seed=3,passes=3,dist=1:10:100",
        "multilevel:16@seed=3,passes=3",
    ];
    for scheme in [WeightScheme::Unit, WeightScheme::Full] {
        let graph = scheme.apply(&erdos_renyi_gnm(300, 1500, 43), 9);
        let name = scheme.name();
        let metis_path = dir.join(format!("multi-pass-{name}.graph"));
        write_metis(&graph, &metis_path).unwrap();
        let stream_path = dir.join(format!("multi-pass-{name}.oms"));
        write_stream_file(&graph, &stream_path).unwrap();
        for spec in specs {
            let mut sources: Vec<(&str, Box<dyn NodeStream + '_>)> = vec![
                ("memory", Box::new(InMemoryStream::new(&graph))),
                (
                    "memory, random order",
                    Box::new(InMemoryStream::with_ordering(
                        &graph,
                        NodeOrdering::Random(5),
                    )),
                ),
                ("METIS", Box::new(MetisStream::open(&metis_path).unwrap())),
                (".oms", Box::new(DiskStream::open(&stream_path).unwrap())),
            ];
            for (source, stream) in &mut sources {
                let tag = format!("{name} weights, {source}");
                let stream = stream.as_mut();
                if !spec.starts_with("multilevel") {
                    assert_report_equals_the_measurement_walk(spec, stream, &tag);
                }
                let job = JobSpec::parse(spec).unwrap();
                stream.reset().unwrap();
                let (_, full) = job.build().unwrap().partition_tracked(stream).unwrap();
                for budget in 1..=job.passes {
                    let partitioner = job.clone().passes(budget).build().unwrap();
                    stream.reset().unwrap();
                    let partition = partitioner.partition(stream).unwrap();
                    stream.reset().unwrap();
                    let (assignments, k) = (partition.assignments(), partition.num_blocks());
                    let walk = oms::core::measure(stream, assignments, k, None).unwrap();
                    let pass = full
                        .stats
                        .iter()
                        .rfind(|stats| stats.pass < budget)
                        .unwrap();
                    assert_eq!(
                        (pass.edge_cut, pass.imbalance),
                        (walk.edge_cut, walk.imbalance),
                        "{spec} over {tag}: pass {} vs. a budget of {budget}",
                        pass.pass
                    );
                }
            }
        }
        std::fs::remove_file(&metis_path).ok();
        std::fs::remove_file(&stream_path).ok();
    }

    for spec in [
        "ldg:2@passes=3",
        "fennel:3@passes=3",
        "nh-oms:4@base=2,passes=3",
        "oms:2:2:2@passes=3,dist=1:10:100",
    ] {
        assert_report_equals_the_measurement_walk(
            spec,
            &mut Listed::new(&MULTI_EDGES_AND_SELF_LOOPS),
            "multi-edges and self-loops",
        );
    }
}

/// The tally is only the measurement walk's histogram when every edge is
/// listed from both endpoints equally often with the same weight, so it
/// proves that instead of assuming it: a stream that breaks it gets a typed
/// graph error from every streaming job, never a wrong report. A one-pass
/// job tallies only when a report is asked for; a multi-pass run tallies
/// every pass for its own verdicts, so `partition()` refuses such a stream
/// too. So do `buffered`, whose passes the measurement walk measures, and
/// `multilevel`, which materialises the stream through `collect_graph`:
/// both walks prove the symmetry they count on.
#[test]
fn one_pass_reports_refuse_adjacency_lists_that_are_not_symmetric() {
    register_multilevel_algorithms();
    let cases: [(&str, &[Adjacency<'_>]); 5] = [
        ("one side only", &[&[(1, 1)], &[]]),
        // What an XOR fingerprint cannot see: the hashes cancel in pairs.
        (
            "four times from one side",
            &[&[(1, 1), (1, 1), (1, 1), (1, 1)], &[], &[]],
        ),
        (
            "twice from one side, never from the other",
            &[&[(1, 1), (1, 1)], &[(2, 1)], &[(1, 1)]],
        ),
        ("weights disagree", &[&[(1, 2)], &[(0, 3)]]),
        (
            "two against one",
            &[&[(1, 1), (1, 1), (2, 1)], &[(0, 1)], &[(0, 1)]],
        ),
    ];
    for (what, lists) in cases {
        for spec in [
            "hashing:2",
            "ldg:2",
            "fennel:2",
            "nh-oms:3@base=2",
            "oms:2:2@dist=1:10",
            "fennel:2@passes=2",
            "oms:2:2@passes=3,dist=1:10",
            "buffered:2",
            "buffered:2@passes=2",
            "multilevel:2",
            "multilevel:2@passes=2",
        ] {
            let partitioner = JobSpec::parse(spec).unwrap().build().unwrap();
            let refused = |err: oms::core::PartitionError| {
                matches!(
                    err,
                    oms::core::PartitionError::Graph(oms::graph::GraphError::Invalid(_))
                ) && err.to_string().contains("not symmetric")
            };
            let err = partitioner.run(&mut Listed::new(lists)).unwrap_err();
            assert!(refused(err), "{what}, {spec}: run");
            let partitioned = partitioner.partition(&mut Listed::new(lists));
            let walks_anyway = ["buffered", "multilevel"]
                .iter()
                .any(|a| spec.starts_with(a));
            if spec.contains("passes=") || walks_anyway {
                assert!(partitioned.is_err_and(refused), "{what}, {spec}: partition");
            } else {
                // Nobody asked for a report: nothing is tallied, nothing
                // proven.
                assert!(partitioned.is_ok(), "{what}, {spec}: partition");
            }
        }
    }
}

/// One scan per pass: `run()` of a streaming job reads its input once per
/// pass and rewinds only between passes, whatever the algorithm and with or
/// without a topology — cut, `J` and ω(E) come out of the passes. `buffered`
/// commits per batch, not per node, so each of its passes is still followed
/// by a measurement walk, and `multilevel` is measured by a walk of its own.
#[test]
fn every_streaming_pass_reads_its_input_once_and_buffered_still_measures() {
    register_multilevel_algorithms();
    let graph = planted_partition(400, 8, 0.1, 0.01, 7);
    let scans = |spec: &str| {
        let mut stream = Counting::new(Rebatched(InMemoryStream::new(&graph), 64));
        let partitioner = JobSpec::parse(spec).unwrap().build().unwrap();
        let report = partitioner.run(&mut stream).unwrap();
        assert!(report.total_edge_weight.is_some() || !report.trajectory.is_empty());
        (stream.passes, stream.resets)
    };
    for spec in [
        "hashing:8",
        "ldg:8",
        "fennel:8",
        "oms:2:2:2@dist=1:10:100",
        "nh-oms:24@base=4",
    ] {
        assert_eq!(scans(spec), (1, 0), "{spec}: (passes, rewinds)");
    }
    assert_eq!(scans("fennel:8@passes=2"), (2, 1));
    assert_eq!(scans("oms:2:2:2@passes=2,dist=1:10:100"), (2, 1));
    // Two batch-committing passes, a measurement walk after each.
    assert_eq!(scans("buffered:16@passes=2"), (4, 3));
    // One pass of their own, then the measurement walk.
    assert_eq!(scans("buffered:16"), (2, 1));
    assert_eq!(scans("multilevel:16"), (2, 1));
}
