//! Golden quality-regression and equivalence suite for the vertex-cut
//! (edge-partitioning) pipeline.
//!
//! Mirrors `tests/quality.rs` for the replication-factor objective: every
//! registered edge algorithm runs over the er/ba/rmat corpus at fixed
//! seeds, and the resulting replication factor and edge-load imbalance are
//! checked against committed per-(graph, job) bounds. On top of the golden
//! bounds the suite pins the acceptance criteria of the subsystem:
//!
//! * `e-greedy` beats `e-hash` on replication factor on every ba/rmat
//!   golden job (the hub-dominated corpora vertex-cut exists for);
//! * multi-pass trajectories are non-increasing in the total replica count
//!   and end on the returned assignment;
//! * all three edge partitioners produce **byte-identical** edge
//!   assignments across memory (natural and explicit order) / disk (implicit
//!   and forced weight sections) / METIS text sources at 1 and 3 passes, on
//!   unit-weight and weighted graphs alike, and a random node order still
//!   assigns every edge exactly once;
//! * the incrementally maintained replication summary agrees with an
//!   independent recount from the edge assignment.
//!
//! The bounds were measured on the committed implementation and carry ~5 %
//! headroom on the replication factor and +0.02 absolute on the imbalance.
//! Regenerate with
//! `cargo test --test edgepart_quality print_actuals -- --nocapture --ignored`.

use oms::gen::RmatParams;
use oms::graph::io::{
    write_metis, write_stream_file, write_stream_file_with, DiskStream, MetisStream,
    StreamWriteOptions,
};
use oms::graph::NodeId;
use oms::prelude::*;
use std::path::PathBuf;

/// The corpus: the er/ba/rmat instances of the node-side golden suite, at
/// the same fixed seeds. The rmat instance carries multiplicity edge
/// weights (the generator folds parallel edges into weights), so the
/// weighted scoring path is under golden control too.
fn corpus() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("er", erdos_renyi_gnm(1200, 4800, 42)),
        ("ba", barabasi_albert(1200, 4, 42)),
        ("rmat", rmat_graph(10, 8192, RmatParams::GRAPH500, 42)),
    ]
}

/// The job strings under regression control (`k = 8`, fixed seed): every
/// registered edge algorithm, the λ knob at both ends, and multi-pass.
fn jobs() -> Vec<&'static str> {
    vec![
        "e-hash:8@seed=3",
        "e-dbh:8@seed=3",
        "e-greedy:8@seed=3",
        "e-greedy:8@seed=3,lambda=5",
        "e-greedy:8@seed=3,passes=3",
        "e-dbh:8@seed=3,passes=3",
    ]
}

/// Committed bounds: `(graph, job, max replication factor, max edge-load
/// imbalance)`.
const BOUNDS: &[(&str, &str, f64, f64)] = &[
    ("er", "e-hash:8@seed=3", 5.29, 0.1083),
    ("er", "e-dbh:8@seed=3", 3.72, 0.1717),
    ("er", "e-greedy:8@seed=3", 3.08, 0.0250),
    ("er", "e-greedy:8@seed=3,lambda=5", 4.22, 0.0200),
    ("er", "e-greedy:8@seed=3,passes=3", 2.65, 0.0200),
    ("er", "e-dbh:8@seed=3,passes=3", 3.57, 0.2317),
    ("ba", "e-hash:8@seed=3", 4.78, 0.0722),
    ("ba", "e-dbh:8@seed=3", 2.95, 0.1757),
    ("ba", "e-greedy:8@seed=3", 2.99, 0.0505),
    ("ba", "e-greedy:8@seed=3,lambda=5", 3.60, 0.0204),
    ("ba", "e-greedy:8@seed=3,passes=3", 2.56, 0.0505),
    ("ba", "e-dbh:8@seed=3,passes=3", 2.91, 0.1891),
    // rmat carries multiplicity edge weights: at λ = 1 the count capacity
    // is tight but the *weight* imbalance runs free (hub edges are heavy);
    // λ = 5 buys weight balance for ~0.45 RF.
    ("rmat", "e-hash:8@seed=3", 4.67, 0.1161),
    ("rmat", "e-dbh:8@seed=3", 2.73, 0.2184),
    ("rmat", "e-greedy:8@seed=3", 3.06, 0.7844),
    ("rmat", "e-greedy:8@seed=3,lambda=5", 3.53, 0.0216),
    ("rmat", "e-greedy:8@seed=3,passes=3", 2.77, 0.1520),
    ("rmat", "e-dbh:8@seed=3,passes=3", 2.69, 0.1908),
];

fn bound_for(graph: &str, job: &str) -> (f64, f64) {
    BOUNDS
        .iter()
        .find(|&&(g, j, _, _)| g == graph && j == job)
        .map(|&(_, _, rf, imb)| (rf, imb))
        .unwrap_or_else(|| panic!("no committed bound for ({graph}, {job}) — add it to BOUNDS"))
}

fn report_for(job: &str, graph: &CsrGraph) -> EdgePartitionReport {
    let spec = JobSpec::parse(job).unwrap();
    build_edge_partitioner(&spec)
        .unwrap()
        .run(&mut InMemoryStream::new(graph))
        .unwrap_or_else(|e| panic!("{job}: {e}"))
}

#[test]
fn corpus_replication_stays_within_committed_bounds() {
    let mut failures = Vec::new();
    for (name, graph) in corpus() {
        for job in jobs() {
            let report = report_for(job, &graph);
            assert_eq!(
                report.partition.num_edges(),
                graph.num_edges(),
                "({name}, {job}): incomplete edge partition"
            );
            assert!(report.partition.validate(), "({name}, {job})");
            assert_eq!(
                report.partition.total_load(),
                graph.total_edge_weight(),
                "({name}, {job}): block loads must sum to ω(E)"
            );
            let (max_rf, max_imbalance) = bound_for(name, job);
            if report.replication_factor > max_rf {
                failures.push(format!(
                    "({name}, {job}): replication factor {:.4} exceeds the committed bound {max_rf}",
                    report.replication_factor
                ));
            }
            if report.imbalance > max_imbalance {
                failures.push(format!(
                    "({name}, {job}): imbalance {:.4} exceeds the committed bound {max_imbalance}",
                    report.imbalance
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "vertex-cut quality regressions detected:\n{}",
        failures.join("\n")
    );
}

/// The headline acceptance criterion: on the hub-dominated corpora (ba,
/// rmat) the HDRF-style greedy must beat oblivious edge hashing on the
/// replication factor, for every golden job configuration.
#[test]
fn e_greedy_beats_e_hash_on_every_ba_rmat_golden_job() {
    for (name, graph) in corpus() {
        if name == "er" {
            continue; // the criterion targets the power-law corpora
        }
        for k in [8u32, 32] {
            for passes in [1usize, 3] {
                let hash = report_for(&format!("e-hash:{k}@seed=3,passes={passes}"), &graph);
                let greedy = report_for(&format!("e-greedy:{k}@seed=3,passes={passes}"), &graph);
                assert!(
                    greedy.replication_factor < hash.replication_factor,
                    "({name}, k={k}, passes={passes}): e-greedy RF {:.4} must beat e-hash RF {:.4}",
                    greedy.replication_factor,
                    hash.replication_factor
                );
            }
        }
    }
}

/// Multi-pass trajectories are non-increasing in the exact quality scalar
/// (total replicas), end on the returned assignment, and the e-hash fixed
/// point exits after at most one extra pass.
#[test]
fn multi_pass_trajectories_are_non_increasing_on_the_corpus() {
    for (name, graph) in corpus() {
        for job in [
            "e-greedy:8@seed=3,passes=4",
            "e-dbh:8@seed=3,passes=4",
            "e-greedy:8@seed=3,passes=6,conv=0.01",
        ] {
            let report = report_for(job, &graph);
            assert!(!report.trajectory.is_empty(), "({name}, {job})");
            assert!(
                report
                    .trajectory
                    .windows(2)
                    .all(|w| w[1].total_replicas <= w[0].total_replicas),
                "({name}, {job}): trajectory must be non-increasing: {:?}",
                report.trajectory
            );
            assert_eq!(
                report.trajectory.last().unwrap().total_replicas,
                report.partition.total_replicas(),
                "({name}, {job}): the trajectory ends on the returned assignment"
            );
        }
        let hash = report_for("e-hash:8@seed=3,passes=9", &graph);
        assert!(
            hash.trajectory.len() <= 2,
            "({name}): e-hash must reach its fixed point after one extra pass: {:?}",
            hash.trajectory
        );
    }
}

/// The replication summary of an assignment of `edges` (the edges of a graph
/// on `n` nodes, in the order the job numbered them) into `k` blocks,
/// recounted from scratch: per-vertex replica sets built edge by edge. It
/// shares no code with the sinks' incremental upkeep.
struct Recount {
    total_replicas: u64,
    max_replicas: u32,
    replication_factor: f64,
    imbalance: f64,
    block_loads: Vec<u64>,
}

fn recount(n: usize, edges: &[(NodeId, NodeId, u64)], assignments: &[BlockId], k: u32) -> Recount {
    assert_eq!(assignments.len(), edges.len());
    let mut replicas: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    let mut block_loads = vec![0u64; k as usize];
    for (&(u, v, w), &b) in edges.iter().zip(assignments) {
        block_loads[b as usize] += w;
        for x in [u, v] {
            if !replicas[x as usize].contains(&b) {
                replicas[x as usize].push(b);
            }
        }
    }
    let covered = replicas.iter().filter(|r| !r.is_empty()).count();
    let total_replicas = replicas.iter().map(|r| r.len() as u64).sum::<u64>();
    let total_load = block_loads.iter().sum::<u64>();
    let max_load = block_loads.iter().copied().max().unwrap_or(0);
    Recount {
        total_replicas,
        max_replicas: replicas.iter().map(|r| r.len() as u32).max().unwrap_or(0),
        replication_factor: if covered == 0 {
            1.0
        } else {
            total_replicas as f64 / covered as f64
        },
        imbalance: if total_load == 0 {
            0.0
        } else {
            max_load as f64 / (total_load as f64 / k as f64) - 1.0
        },
        block_loads,
    }
}

/// The sink's incrementally maintained replication summary must agree with
/// the independent cold [`recount`] — two implementations, one truth — and
/// no vertex has more replicas than there are blocks or than it has edges.
#[test]
fn incremental_summary_agrees_with_an_independent_recount() {
    for (name, graph) in corpus() {
        for job in ["e-hash:8@seed=3", "e-greedy:8@seed=3,passes=3"] {
            let report = report_for(job, &graph);
            assert!(
                report.max_replicas as usize <= graph.max_degree().min(8),
                "({name}, {job})"
            );
            // A natural-order pass numbers the edges in `CsrGraph::edges`
            // order.
            let edges: Vec<_> = graph.edges().collect();
            let metrics = recount(graph.num_nodes(), &edges, report.partition.assignments(), 8);
            assert_eq!(
                metrics.total_replicas, report.total_replicas,
                "({name}, {job})"
            );
            assert_eq!(metrics.max_replicas, report.max_replicas, "({name}, {job})");
            assert!(
                (metrics.replication_factor - report.replication_factor).abs() < 1e-12,
                "({name}, {job})"
            );
            assert!(
                (metrics.imbalance - report.imbalance).abs() < 1e-12,
                "({name}, {job})"
            );
            assert_eq!(
                metrics.block_loads,
                report.partition.block_loads(),
                "({name}, {job})"
            );
        }
    }
}

// ------------------------------------------------------ source equivalence

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("oms-edgepart-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn edge_assignments(job: &str, stream: &mut dyn NodeStream) -> (Vec<BlockId>, Vec<u64>) {
    let spec = JobSpec::parse(job).unwrap();
    let report = build_edge_partitioner(&spec)
        .unwrap()
        .run(stream)
        .unwrap_or_else(|e| panic!("{job}: {e}"));
    let replicas: Vec<u64> = report.trajectory.iter().map(|s| s.total_replicas).collect();
    (report.partition.assignments().to_vec(), replicas)
}

/// Every edge algorithm × passes ∈ {1, 3} must produce byte-identical edge
/// assignments (and per-pass replica trajectories) no matter which source
/// streams the graph — in-memory in natural or explicit order, disk with
/// implicit or forced weight sections, METIS text — on unit-weight and
/// weighted graphs alike. A random node order numbers the edges differently,
/// but still assigns every edge exactly once.
#[test]
fn edge_assignments_are_byte_identical_across_sources_and_passes() {
    let unit = planted_partition(600, 8, 0.1, 0.005, 23);
    assert!(unit.is_unweighted());
    let weighted = WeightScheme::Full.apply(&unit, 7);
    assert!(!weighted.is_unweighted());

    let dir = temp_dir();
    for (label, graph) in [("unit", &unit), ("weighted", &weighted)] {
        let plain_path = dir.join(format!("{label}.oms"));
        let forced_path = dir.join(format!("{label}-forced.oms"));
        let metis_path = dir.join(format!("{label}.metis"));
        write_stream_file(graph, &plain_path).unwrap();
        write_metis(graph, &metis_path).unwrap();
        let forced = StreamWriteOptions {
            force_node_weights: true,
            force_edge_weights: true,
        };
        write_stream_file_with(graph, &forced_path, forced).unwrap();

        for algo in ["e-hash", "e-dbh", "e-greedy"] {
            for passes in [1usize, 3] {
                let job = format!("{algo}:8@seed=3,passes={passes}");
                let reference = edge_assignments(&job, &mut InMemoryStream::new(graph));
                assert_eq!(reference.0.len(), graph.num_edges(), "{label}/{job}");

                let mut identity = InMemoryStream::with_permutation(graph, graph.nodes().collect());
                let permuted = edge_assignments(&job, &mut identity);
                assert_eq!(reference, permuted, "{label}/{job}: explicit order differs");

                for (name, path) in [("disk", &plain_path), ("forced disk", &forced_path)] {
                    let mut disk = DiskStream::open(path).unwrap();
                    let from_disk = edge_assignments(&job, &mut disk);
                    assert_eq!(reference, from_disk, "{label}/{job}: {name} differs");
                }
                let mut metis = MetisStream::open(&metis_path).unwrap();
                let from_metis = edge_assignments(&job, &mut metis);
                assert_eq!(reference, from_metis, "{label}/{job}: METIS text differs");

                // A random order: the edges, each at its smaller endpoint in
                // the order the nodes arrive, are every edge of the graph
                // once, and the assignment recounts to the reported summary.
                let mut random = InMemoryStream::with_ordering(graph, NodeOrdering::Random(5));
                let mut edges = Vec::new();
                random
                    .for_each_node(&mut |node| {
                        let u = node.node;
                        let later = node.neighbors_weighted().filter(|&(v, _)| u < v);
                        edges.extend(later.map(|(v, w)| (u, v, w)));
                    })
                    .unwrap();
                let mut sorted = edges.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, graph.edges().collect::<Vec<_>>(), "{label}/{job}");
                let report = build_edge_partitioner(&JobSpec::parse(&job).unwrap())
                    .and_then(|p| p.run(&mut random))
                    .unwrap_or_else(|e| panic!("{label}/{job}, random order: {e}"));
                let assignments = report.partition.assignments();
                let metrics = recount(graph.num_nodes(), &edges, assignments, 8);
                assert_eq!(
                    metrics.total_replicas, report.total_replicas,
                    "{label}/{job}"
                );
                assert_eq!(
                    metrics.block_loads,
                    report.partition.block_loads(),
                    "{label}/{job}"
                );
            }
        }
        for path in [plain_path, forced_path, metis_path] {
            std::fs::remove_file(path).ok();
        }
    }
}

/// Multi-pass edge partitioning over a disk file cut under the open stream
/// (`open` refuses a short file outright) dies with the typed truncation
/// error — an edge job rewinds the node stream itself, so it inherits the
/// disk stream's re-open-and-revalidate discipline.
#[test]
fn multi_pass_over_a_corrupt_disk_file_fails_with_the_typed_error() {
    let graph = planted_partition(200, 4, 0.1, 0.01, 31);
    let dir = temp_dir();
    let path = dir.join("corrupt.oms");
    write_stream_file(&graph, &path).unwrap();
    let mut stream = DiskStream::open(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();

    let spec = JobSpec::parse("e-greedy:4@seed=3,passes=3").unwrap();
    let err = build_edge_partitioner(&spec)
        .unwrap()
        .run(&mut stream)
        .map(|report| report.partition.num_edges())
        .unwrap_err();
    assert!(
        err.to_string().contains("truncated"),
        "expected the typed truncation error, got: {err}"
    );
    std::fs::remove_file(&path).ok();
}

/// Regenerates the `BOUNDS` table (run manually, see the module docs).
#[test]
#[ignore = "manual helper for regenerating the BOUNDS table"]
fn print_actuals() {
    for (name, graph) in corpus() {
        for job in jobs() {
            let report = report_for(job, &graph);
            println!(
                "(\"{name}\", \"{job}\", {:.4}, {:.4}),",
                report.replication_factor, report.imbalance
            );
        }
    }
}
