//! Golden quality-regression suite.
//!
//! Every registered algorithm family runs over a small scaled `oms-gen`
//! corpus (one instance per generator family: er / ba / rmat / grid / sbm)
//! at fixed seeds, and the resulting edge-cut and imbalance are checked
//! against committed per-(graph, algorithm) bounds. A quality regression —
//! a scorer change that silently cuts more edges, a balance constraint
//! that drifts — now fails CI exactly like a correctness bug.
//!
//! The bounds were measured on the committed implementation and carry
//! ~10 % headroom on the edge-cut (quality may fluctuate slightly when
//! scoring internals are legitimately reworked) and +0.02 absolute on the
//! imbalance. If an intentional improvement lowers a cut far below its
//! bound, tighten the bound so the gain is locked in: regenerate the table
//! with `cargo test --test quality print_actuals -- --nocapture --ignored`
//! and re-apply the headroom.

use oms::gen::RmatParams;
use oms::prelude::*;

/// The corpus: one instance per generator family, at fixed seeds, so every
/// run sees byte-identical graphs.
fn corpus() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("er", erdos_renyi_gnm(1200, 4800, 42)),
        ("ba", barabasi_albert(1200, 4, 42)),
        ("rmat", rmat_graph(10, 8192, RmatParams::GRAPH500, 42)),
        ("grid", grid_2d(35, 35)),
        ("sbm", planted_partition(1200, 8, 0.1, 0.01, 42)),
    ]
}

/// The job strings under regression control (`k = 8` everywhere, fixed
/// seed). Every algorithm family in the registry is represented: the flat
/// one-pass baselines, OMS/nh-OMS, restreaming, the in-memory baselines
/// and buffered streaming.
fn jobs() -> Vec<&'static str> {
    vec![
        "hashing:8@seed=3",
        "ldg:8@seed=3",
        "fennel:8@seed=3",
        "oms:2:2:2@seed=3",
        "nh-oms:8@seed=3",
        "fennel:8@seed=3,passes=3",
        "multilevel:8@seed=3",
        "rms:2:2:2@seed=3",
        "buffered:8@seed=3,buf=128",
        "buffered:8@seed=3,buf=128,passes=3",
    ]
}

/// Committed bounds: `(graph, job, max edge-cut, max imbalance)`.
const BOUNDS: &[(&str, &str, u64, f64)] = &[
    ("er", "hashing:8@seed=3", 4584, 0.1733),
    ("er", "ldg:8@seed=3", 3230, 0.0267),
    ("er", "fennel:8@seed=3", 3228, 0.0333),
    ("er", "oms:2:2:2@seed=3", 3313, 0.0400),
    ("er", "nh-oms:8@seed=3", 3259, 0.0333),
    ("er", "fennel:8@seed=3,passes=3", 3001, 0.0267),
    ("er", "multilevel:8@seed=3", 2944, 0.0533),
    ("er", "rms:2:2:2@seed=3", 3086, 0.0867),
    ("er", "buffered:8@seed=3,buf=128", 4086, 0.0533),
    ("er", "buffered:8@seed=3,buf=128,passes=3", 3182, 0.0533),
    ("ba", "hashing:8@seed=3", 4647, 0.1733),
    ("ba", "ldg:8@seed=3", 3380, 0.0533),
    ("ba", "fennel:8@seed=3", 3270, 0.0533),
    ("ba", "oms:2:2:2@seed=3", 3803, 0.0533),
    ("ba", "nh-oms:8@seed=3", 3532, 0.0533),
    ("ba", "fennel:8@seed=3,passes=3", 3130, 0.0533),
    ("ba", "multilevel:8@seed=3", 3007, 0.0533),
    ("ba", "rms:2:2:2@seed=3", 3221, 0.1133),
    ("ba", "buffered:8@seed=3,buf=128", 4063, 0.0533),
    ("ba", "buffered:8@seed=3,buf=128,passes=3", 3302, 0.0533),
    ("rmat", "hashing:8@seed=3", 7793, 0.1372),
    ("rmat", "ldg:8@seed=3", 5763, 0.0512),
    ("rmat", "fennel:8@seed=3", 5082, 0.0512),
    ("rmat", "oms:2:2:2@seed=3", 5334, 0.0512),
    ("rmat", "nh-oms:8@seed=3", 5243, 0.0512),
    ("rmat", "fennel:8@seed=3,passes=3", 5011, 0.0512),
    ("rmat", "multilevel:8@seed=3", 6084, 0.0512),
    ("rmat", "rms:2:2:2@seed=3", 4869, 0.1216),
    ("rmat", "buffered:8@seed=3,buf=128", 6815, 0.0356),
    ("rmat", "buffered:8@seed=3,buf=128,passes=3", 6211, 0.0512),
    ("grid", "hashing:8@seed=3", 2277, 0.1563),
    ("grid", "ldg:8@seed=3", 250, 0.0518),
    ("grid", "fennel:8@seed=3", 538, 0.0518),
    ("grid", "oms:2:2:2@seed=3", 541, 0.0518),
    ("grid", "nh-oms:8@seed=3", 588, 0.0518),
    ("grid", "fennel:8@seed=3,passes=3", 492, 0.0518),
    ("grid", "multilevel:8@seed=3", 357, 0.0518),
    ("grid", "rms:2:2:2@seed=3", 350, 0.0845),
    ("grid", "buffered:8@seed=3,buf=128", 568, 0.0518),
    ("grid", "buffered:8@seed=3,buf=128,passes=3", 470, 0.0388),
    ("sbm", "hashing:8@seed=3", 14825, 0.1733),
    ("sbm", "ldg:8@seed=3", 11827, 0.0333),
    ("sbm", "fennel:8@seed=3", 11953, 0.0533),
    ("sbm", "oms:2:2:2@seed=3", 11816, 0.0533),
    ("sbm", "nh-oms:8@seed=3", 12149, 0.0533),
    ("sbm", "fennel:8@seed=3,passes=3", 11299, 0.0533),
    ("sbm", "multilevel:8@seed=3", 8430, 0.0533),
    ("sbm", "rms:2:2:2@seed=3", 9740, 0.0733),
    ("sbm", "buffered:8@seed=3,buf=128", 12084, 0.0533),
    ("sbm", "buffered:8@seed=3,buf=128,passes=3", 11013, 0.0533),
];

fn bound_for(graph: &str, job: &str) -> (u64, f64) {
    BOUNDS
        .iter()
        .find(|&&(g, j, _, _)| g == graph && j == job)
        .map(|&(_, _, cut, imb)| (cut, imb))
        .unwrap_or_else(|| panic!("no committed bound for ({graph}, {job}) — add it to BOUNDS"))
}

#[test]
fn corpus_quality_stays_within_committed_bounds() {
    register_multilevel_algorithms();
    let mut failures = Vec::new();
    for (name, graph) in corpus() {
        for job in jobs() {
            let report = JobSpec::parse(job)
                .unwrap()
                .build()
                .unwrap()
                .run(&mut InMemoryStream::new(&graph))
                .unwrap();
            assert_eq!(
                report.partition.num_nodes(),
                graph.num_nodes(),
                "({name}, {job}): incomplete partition"
            );
            let (max_cut, max_imbalance) = bound_for(name, job);
            if report.edge_cut > max_cut {
                failures.push(format!(
                    "({name}, {job}): edge-cut {} exceeds the committed bound {max_cut}",
                    report.edge_cut
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
        "quality regressions detected:\n{}",
        failures.join("\n")
    );
}

/// The multi-pass acceptance criterion: on the corpus, restreaming
/// trajectories are non-increasing in edge-cut, and a convergence threshold
/// makes the early exit fire before the pass budget is exhausted.
#[test]
fn restreaming_improves_monotonically_and_converges_on_the_corpus() {
    register_multilevel_algorithms();
    for (name, graph) in corpus() {
        for job in ["fennel:8@seed=3,passes=4", "ldg:8@seed=3,passes=4"] {
            let report = JobSpec::parse(job)
                .unwrap()
                .build()
                .unwrap()
                .run(&mut InMemoryStream::new(&graph))
                .unwrap();
            assert!(!report.trajectory.is_empty(), "({name}, {job})");
            assert!(
                report
                    .trajectory
                    .windows(2)
                    .all(|w| w[1].edge_cut <= w[0].edge_cut),
                "({name}, {job}): trajectory must be non-increasing: {:?}",
                report.trajectory
            );
            assert_eq!(
                report.trajectory.last().unwrap().edge_cut,
                report.edge_cut,
                "({name}, {job}): the reported cut is the final accepted pass"
            );
        }
        // With an unreachable improvement requirement (100 % per pass) the
        // convergence exit must fire long before the 20-pass budget.
        let report = JobSpec::parse("fennel:8@seed=3,passes=20,conv=1.0")
            .unwrap()
            .build()
            .unwrap()
            .run(&mut InMemoryStream::new(&graph))
            .unwrap();
        assert!(
            report.trajectory.len() <= 2,
            "({name}): conv=1.0 must stop after at most one extra pass, got {:?}",
            report.trajectory
        );
    }
}

// --------------------------------------------------------- weighted corpus

/// The weighted corpus: the er/ba/rmat instances of [`corpus`] reweighted
/// with the `full` scheme (power-law node weights + degree-proportional
/// edge weights) at a fixed seed, so the *weighted* quality path — weighted
/// scoring, weight-capacity `L_max`, weighted cut and imbalance — is under
/// the same golden-bound regression control as the unweighted one.
fn weighted_corpus() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "er-w",
            WeightScheme::Full.apply(&erdos_renyi_gnm(1200, 4800, 42), 42),
        ),
        (
            "ba-w",
            WeightScheme::Full.apply(&barabasi_albert(1200, 4, 42), 42),
        ),
        (
            "rmat-w",
            WeightScheme::Full.apply(&rmat_graph(10, 8192, RmatParams::GRAPH500, 42), 42),
        ),
    ]
}

/// The weighted job strings under regression control.
fn weighted_jobs() -> Vec<&'static str> {
    vec![
        "ldg:8@seed=3",
        "fennel:8@seed=3",
        "oms:2:2:2@seed=3",
        "nh-oms:8@seed=3",
        "fennel:8@seed=3,passes=3",
        "multilevel:8@seed=3",
        "buffered:8@seed=3,buf=128",
        "buffered:8@seed=3,buf=128,passes=3",
    ]
}

/// Committed weighted bounds: `(graph, job, max weighted cut, max
/// imbalance)`. Regenerate with
/// `cargo test --release --test quality print_weighted_actuals -- --nocapture --ignored`
/// and re-apply ~10 % cut headroom / +0.02 imbalance headroom.
const WEIGHTED_BOUNDS: &[(&str, &str, u64, f64)] = &[
    ("er-w", "ldg:8@seed=3", 31241, 0.0373),
    ("er-w", "fennel:8@seed=3", 31746, 0.0518),
    ("er-w", "oms:2:2:2@seed=3", 33721, 0.0518),
    ("er-w", "nh-oms:8@seed=3", 32998, 0.0518),
    ("er-w", "fennel:8@seed=3,passes=3", 28793, 0.0518),
    ("er-w", "multilevel:8@seed=3", 29278, 0.0518),
    ("er-w", "buffered:8@seed=3,buf=128", 40681, 0.0518),
    ("er-w", "buffered:8@seed=3,buf=128,passes=3", 32450, 0.0518),
    ("ba-w", "ldg:8@seed=3", 68168, 0.0518),
    ("ba-w", "fennel:8@seed=3", 68470, 0.0518),
    ("ba-w", "oms:2:2:2@seed=3", 73440, 0.0518),
    ("ba-w", "nh-oms:8@seed=3", 70887, 0.0518),
    ("ba-w", "fennel:8@seed=3,passes=3", 67714, 0.0518),
    ("ba-w", "multilevel:8@seed=3", 61777, 0.0518),
    ("ba-w", "buffered:8@seed=3,buf=128", 79626, 0.0518),
    ("ba-w", "buffered:8@seed=3,buf=128,passes=3", 71550, 0.0518),
    ("rmat-w", "ldg:8@seed=3", 306516, 0.0507),
    ("rmat-w", "fennel:8@seed=3", 303882, 0.0507),
    ("rmat-w", "oms:2:2:2@seed=3", 316811, 0.0507),
    ("rmat-w", "nh-oms:8@seed=3", 310940, 0.0507),
    ("rmat-w", "fennel:8@seed=3,passes=3", 300839, 0.0507),
    ("rmat-w", "multilevel:8@seed=3", 319459, 0.0507),
    ("rmat-w", "buffered:8@seed=3,buf=128", 345474, 0.0608),
    (
        "rmat-w",
        "buffered:8@seed=3,buf=128,passes=3",
        314094,
        0.0507,
    ),
];

fn weighted_bound_for(graph: &str, job: &str) -> (u64, f64) {
    WEIGHTED_BOUNDS
        .iter()
        .find(|&&(g, j, _, _)| g == graph && j == job)
        .map(|&(_, _, cut, imb)| (cut, imb))
        .unwrap_or_else(|| {
            panic!("no committed weighted bound for ({graph}, {job}) — add it to WEIGHTED_BOUNDS")
        })
}

#[test]
fn weighted_corpus_quality_stays_within_committed_bounds() {
    register_multilevel_algorithms();
    let mut failures = Vec::new();
    for (name, graph) in weighted_corpus() {
        assert!(!graph.is_unweighted(), "{name} must be weighted");
        for job in weighted_jobs() {
            let report = JobSpec::parse(job)
                .unwrap()
                .build()
                .unwrap()
                .run(&mut InMemoryStream::new(&graph))
                .unwrap();
            assert_eq!(
                report.partition.num_nodes(),
                graph.num_nodes(),
                "({name}, {job}): incomplete partition"
            );
            assert_eq!(
                report.total_node_weight(),
                graph.total_node_weight(),
                "({name}, {job}): block weights must sum to c(V)"
            );
            let (max_cut, max_imbalance) = weighted_bound_for(name, job);
            if report.edge_cut > max_cut {
                failures.push(format!(
                    "({name}, {job}): weighted cut {} exceeds the committed bound {max_cut}",
                    report.edge_cut
                ));
            }
            if report.imbalance > max_imbalance {
                failures.push(format!(
                    "({name}, {job}): weighted imbalance {:.4} exceeds the committed bound {max_imbalance}",
                    report.imbalance
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "weighted quality regressions detected:\n{}",
        failures.join("\n")
    );
}

/// Weighted restreaming trajectories are non-increasing in the *weighted*
/// cut and end on the reported value — the multi-pass engine's guarantees
/// carry over verbatim to weighted graphs.
#[test]
fn weighted_restreaming_improves_monotonically() {
    register_multilevel_algorithms();
    for (name, graph) in weighted_corpus() {
        for job in ["fennel:8@seed=3,passes=4", "ldg:8@seed=3,passes=4"] {
            let report = JobSpec::parse(job)
                .unwrap()
                .build()
                .unwrap()
                .run(&mut InMemoryStream::new(&graph))
                .unwrap();
            assert!(!report.trajectory.is_empty(), "({name}, {job})");
            assert!(
                report
                    .trajectory
                    .windows(2)
                    .all(|w| w[1].edge_cut <= w[0].edge_cut),
                "({name}, {job}): weighted trajectory must be non-increasing: {:?}",
                report.trajectory
            );
            assert_eq!(
                report.trajectory.last().unwrap().edge_cut,
                report.edge_cut,
                "({name}, {job}): the reported weighted cut is the final accepted pass"
            );
        }
    }
}

/// `buffered` restreams through the shared refinement, which starts from the
/// one-pass partition and keeps a pass only if it cuts no more: on every
/// graph of both corpora the restreamed job cuts at most what its one pass
/// does.
#[test]
fn buffered_restreaming_never_cuts_more_than_its_one_pass() {
    register_multilevel_algorithms();
    let cut = |job: &str, graph: &CsrGraph| {
        let partitioner = JobSpec::parse(job).unwrap().build().unwrap();
        let report = partitioner.run(&mut InMemoryStream::new(graph)).unwrap();
        report.edge_cut
    };
    for (name, graph) in corpus().into_iter().chain(weighted_corpus()) {
        let once = cut("buffered:8@seed=3,buf=128", &graph);
        let restreamed = cut("buffered:8@seed=3,buf=128,passes=3", &graph);
        assert!(restreamed <= once, "({name}): {restreamed} > {once}");
    }
}

/// Regenerates the `BOUNDS` table (run manually, see the module docs).
#[test]
#[ignore = "manual helper for regenerating the BOUNDS table"]
fn print_actuals() {
    register_multilevel_algorithms();
    for (name, graph) in corpus() {
        for job in jobs() {
            let report = JobSpec::parse(job)
                .unwrap()
                .build()
                .unwrap()
                .run(&mut InMemoryStream::new(&graph))
                .unwrap();
            println!(
                "(\"{name}\", \"{job}\", {}, {:.4}),",
                report.edge_cut, report.imbalance
            );
        }
    }
}

/// Regenerates the `WEIGHTED_BOUNDS` table (run manually).
#[test]
#[ignore = "manual helper for regenerating the WEIGHTED_BOUNDS table"]
fn print_weighted_actuals() {
    register_multilevel_algorithms();
    for (name, graph) in weighted_corpus() {
        for job in weighted_jobs() {
            let report = JobSpec::parse(job)
                .unwrap()
                .build()
                .unwrap()
                .run(&mut InMemoryStream::new(&graph))
                .unwrap();
            println!(
                "(\"{name}\", \"{job}\", {}, {:.4}),",
                report.edge_cut, report.imbalance
            );
        }
    }
}
