//! Property-based tests on the core invariants of the framework: whatever
//! the random graph, stream order, hierarchy or `k`, the streaming
//! partitioners must produce complete, in-range, balance-respecting
//! assignments, the multi-section tree must stay structurally sound, and the
//! quality/mapping metrics must obey their algebraic identities.
//!
//! The build environment has no crates.io access, so instead of proptest
//! these tests use a small self-contained harness: [`run_cases`] drives a
//! deterministic ChaCha8 generator through a fixed number of random cases
//! and reports the case seed on failure so a run can be reproduced exactly.

use oms::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Deterministic random-case driver: runs `cases` cases, each with a fresh
/// seeded generator, and labels panics with the failing case number.
fn run_cases(cases: u64, test: impl Fn(&mut ChaCha8Rng)) {
    for case in 0..cases {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE ^ case);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| test(&mut rng)));
        if let Err(panic) = outcome {
            eprintln!(
                "property failed on case {case} (seed {:#x})",
                0xC0FFEEu64 ^ case
            );
            std::panic::resume_unwind(panic);
        }
    }
}

/// A random undirected graph with `n ∈ [nmin, nmax]` nodes and a random edge
/// list (self loops and duplicates are removed by the builder).
fn arbitrary_graph(rng: &mut ChaCha8Rng, nmin: usize, nmax: usize) -> CsrGraph {
    let n = rng.gen_range(nmin..nmax + 1);
    let max_edges = (n * 3).max(1);
    let num_edges = rng.gen_range(0..max_edges);
    let edges: Vec<(u32, u32)> = (0..num_edges)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .collect();
    CsrGraph::from_edges(n, &edges).unwrap()
}

/// Every streaming partitioner assigns every node to a block < k.
#[test]
fn streaming_partitioners_assign_every_node() {
    run_cases(48, |rng| {
        let graph = arbitrary_graph(rng, 1, 120);
        let k = rng.gen_range(1u32..20);
        let seed = rng.gen_range(0u64..1000);
        let cfg = OnePassConfig::default().seed(seed);
        for partition in [
            Hashing::new(k, cfg).partition_graph(&graph).unwrap(),
            Ldg::new(k, cfg).partition_graph(&graph).unwrap(),
            Fennel::new(k, cfg).partition_graph(&graph).unwrap(),
        ] {
            assert_eq!(partition.num_nodes(), graph.num_nodes());
            assert!(partition.assignments().iter().all(|&b| b < k));
            assert!(partition.validate(graph.node_weights()));
        }
    });
}

/// Fennel and LDG respect the paper's balance constraint
/// `L_max = ⌈(1+ε)·c(V)/k⌉` on unit-weight graphs whenever a feasible
/// assignment exists (k ≤ n guarantees it).
#[test]
fn one_pass_baselines_respect_balance() {
    run_cases(48, |rng| {
        let graph = arbitrary_graph(rng, 20, 150);
        let k = rng.gen_range(2u32..10);
        let cfg = OnePassConfig::default();
        let capacity = Partition::capacity(graph.total_node_weight(), k, 0.03);
        for partition in [
            Ldg::new(k, cfg).partition_graph(&graph).unwrap(),
            Fennel::new(k, cfg).partition_graph(&graph).unwrap(),
        ] {
            assert!(partition.max_block_weight() <= capacity);
        }
    });
}

/// nh-OMS produces complete, balanced partitions for arbitrary k and bases,
/// including k values that are not powers of the base.
#[test]
fn nh_oms_valid_for_arbitrary_k_and_base() {
    run_cases(48, |rng| {
        let graph = arbitrary_graph(rng, 30, 150);
        let k = rng.gen_range(1u32..40);
        let base = rng.gen_range(2u32..6);
        let oms = OnlineMultiSection::flat(k, OmsConfig::default().base_b(base)).unwrap();
        let partition = oms.partition_graph(&graph).unwrap();
        assert_eq!(partition.num_blocks(), k);
        assert_eq!(partition.num_nodes(), graph.num_nodes());
        assert!(partition.assignments().iter().all(|&b| b < k));
        let capacity = Partition::capacity(graph.total_node_weight(), k, 0.03);
        assert!(partition.max_block_weight() <= capacity);
    });
}

fn arbitrary_factors(rng: &mut ChaCha8Rng, len_min: usize, len_max: usize, max: u32) -> Vec<u32> {
    let len = rng.gen_range(len_min..len_max);
    (0..len).map(|_| rng.gen_range(2u32..max)).collect()
}

/// OMS along a hierarchy assigns within range, and its partition's edge
/// cut matches the one the measurement walk finds on the stream.
#[test]
fn oms_hierarchy_consistent_with_metrics() {
    run_cases(48, |rng| {
        let graph = arbitrary_graph(rng, 20, 120);
        let factors = arbitrary_factors(rng, 1, 4, 4);
        let seed = rng.gen_range(0u64..100);
        let hierarchy = HierarchySpec::new(factors).unwrap();
        let k = hierarchy.total_blocks();
        let oms = OnlineMultiSection::with_hierarchy(hierarchy, OmsConfig::default().seed(seed));
        let partition = oms.partition_graph(&graph).unwrap();
        assert_eq!(partition.num_blocks(), k);
        assert_eq!(
            partition.edge_cut(&graph),
            oms::core::stream_edge_cut(&mut InMemoryStream::new(&graph), partition.assignments())
                .unwrap()
        );
    });
}

/// The stream order changes the result but never its validity.
#[test]
fn stream_order_does_not_break_validity() {
    run_cases(32, |rng| {
        let graph = arbitrary_graph(rng, 10, 100);
        let seed = rng.gen_range(0u64..500);
        let oms = OnlineMultiSection::flat(8, OmsConfig::default()).unwrap();
        for ordering in [
            NodeOrdering::Natural,
            NodeOrdering::Random(seed),
            NodeOrdering::Bfs,
            NodeOrdering::DegreeDescending,
        ] {
            let mut stream = InMemoryStream::with_ordering(&graph, ordering);
            let partition = oms.partition_stream(&mut stream).unwrap();
            assert_eq!(partition.num_nodes(), graph.num_nodes());
            assert!(partition.validate(graph.node_weights()));
        }
    });
}

/// Mapping cost is bounded below by the edge-cut (every cut edge pays at
/// least the smallest distance d1 ≥ 1) and above by cut · d_max.
#[test]
fn mapping_cost_bounds() {
    run_cases(48, |rng| {
        let graph = arbitrary_graph(rng, 10, 100);
        let factors = arbitrary_factors(rng, 2, 4, 4);
        let hierarchy = HierarchySpec::new(factors.clone()).unwrap();
        let spec = hierarchy.to_string_spec();
        let distances: Vec<String> = (0..factors.len())
            .map(|i| (10u64.pow(i as u32)).to_string())
            .collect();
        let topology = Topology::parse(&spec, &distances.join(":")).unwrap();
        let oms = OnlineMultiSection::with_hierarchy(hierarchy, OmsConfig::default());
        let partition = oms.partition_graph(&graph).unwrap();

        let cut = partition.edge_cut(&graph);
        let j = mapping_cost(&graph, partition.assignments(), &topology);
        let d_max = 10u64.pow((factors.len() - 1) as u32);
        assert!(j >= cut);
        assert!(j <= cut * d_max);
        // The offline reference agrees with the fused walk behind
        // `PartitionReport::mapping_cost`.
        let measured = oms::core::measure(
            &mut InMemoryStream::new(&graph),
            partition.assignments(),
            partition.num_blocks(),
            Some((topology.hierarchy(), topology.distances())),
        );
        assert_eq!(measured.unwrap().mapping_cost, Some(j));
    });
}

/// The multi-section tree keeps Lemma 1's O(k) bound and its coverage counts
/// always sum up along the tree, for arbitrary k and base.
#[test]
fn multisection_tree_invariants() {
    run_cases(64, |rng| {
        let k = rng.gen_range(1u32..200);
        let base = rng.gen_range(2u32..6);
        let tree = oms::core::MultisectionTree::flat(k, base);
        assert!(tree.num_nodes() <= 2 * k as usize + 1);
        assert_eq!(tree.covered(tree.root()), k);
        for node in 0..tree.num_nodes() as u32 {
            let children = tree.children(node);
            if children.is_empty() {
                assert!(tree.leaf_block(node).is_some() || k == 1);
            } else {
                let sum: u32 = children.clone().map(|c| tree.covered(c)).sum();
                assert_eq!(sum, tree.covered(node));
                assert!(children.len() <= base as usize);
            }
        }
        // Every block has a unique leaf.
        let mut leaves: Vec<u32> = (0..k).map(|b| tree.leaf_of_block(b)).collect();
        leaves.sort_unstable();
        leaves.dedup();
        assert_eq!(leaves.len(), k as usize);
    });
}

/// PE coordinates and shared levels of the hierarchy are consistent: the
/// shared level is the first level at which the coordinates agree when read
/// from the top.
#[test]
fn hierarchy_shared_level_consistent_with_coordinates() {
    run_cases(64, |rng| {
        let factors = arbitrary_factors(rng, 1, 4, 5);
        let hierarchy = HierarchySpec::new(factors).unwrap();
        let k = hierarchy.total_blocks();
        let a = rng.gen_range(0u32..500) % k;
        let b = rng.gen_range(0u32..500) % k;
        let level = hierarchy.shared_level(a, b);
        if a == b {
            assert_eq!(level, 0);
        } else {
            let ca = hierarchy.coordinates(a);
            let cb = hierarchy.coordinates(b);
            // They must differ somewhere at or below `level` and agree above.
            assert!(ca[..level] != cb[..level]);
            assert_eq!(&ca[level..], &cb[level..]);
        }
    });
}

/// Restreaming never increases the edge-cut relative to a single pass.
#[test]
fn restreaming_monotone() {
    run_cases(24, |rng| {
        let graph = arbitrary_graph(rng, 30, 120);
        let k = rng.gen_range(2u32..10);
        let cfg = OnePassConfig::default();
        let single = Fennel::new(k, cfg).partition_graph(&graph).unwrap();
        let re = Fennel::new(k, cfg)
            .passes(2)
            .partition_graph(&graph)
            .unwrap();
        assert!(re.edge_cut(&graph) <= single.edge_cut(&graph));
    });
}

/// A random, canonical-form [`JobSpec`]: hierarchies always have at least
/// two levels (single-level shapes are written as flat `k`).
fn arbitrary_jobspec(rng: &mut ChaCha8Rng) -> JobSpec {
    let algorithms = [
        "hashing",
        "ldg",
        "fennel",
        "oms",
        "nh-oms",
        "multilevel",
        "rms",
        "e-hash",
        "e-dbh",
        "e-greedy",
    ];
    let algorithm = algorithms[rng.gen_range(0..algorithms.len())];
    let mut spec = if rng.gen_range(0..2usize) == 0 {
        JobSpec::flat(algorithm, rng.gen_range(1u32..512))
    } else {
        let factors = arbitrary_factors(rng, 2, 5, 9);
        JobSpec::hierarchical(algorithm, HierarchySpec::new(factors).unwrap())
    };
    // Every row of the job-option table is drawn, so a new option is covered
    // the moment it is added.
    for knob in &oms::core::knobs::KNOBS {
        if rng.gen_range(0..3usize) != 0 {
            continue;
        }
        let value = match knob.value_hint() {
            "<int>" => rng.gen_range(1u64..1_000).to_string(),
            "<float>" => {
                [0.01, 0.02, 0.05, 0.25, 0.5, 1.5, 4.0][rng.gen_range(0..7usize)].to_string()
            }
            "off|local|boundary" => {
                ["off", "local", "boundary"][rng.gen_range(0..3usize)].to_string()
            }
            "d1:d2:..." => {
                let levels = rng.gen_range(1usize..5);
                let distances: Vec<String> = (0..levels)
                    .map(|_| rng.gen_range(1u64..1000).to_string())
                    .collect();
                distances.join(":")
            }
            other => panic!("no generator for a '{other}' option ({})", knob.key),
        };
        knob.set(&mut spec, &value)
            .unwrap_or_else(|why| panic!("{}={value}: {why}", knob.key));
    }
    spec
}

/// `JobSpec` round-trips through its canonical string form: whatever the
/// algorithm, shape and option combination, `parse(to_string(spec)) == spec`.
#[test]
fn jobspec_display_parse_round_trip() {
    run_cases(256, |rng| {
        let spec = arbitrary_jobspec(rng);
        let text = spec.to_string();
        let reparsed = JobSpec::parse(&text)
            .unwrap_or_else(|e| panic!("canonical form '{text}' must parse: {e}"));
        assert_eq!(reparsed, spec, "round trip through '{text}'");
        // And the canonical form is a fixed point of parse ∘ display.
        assert_eq!(reparsed.to_string(), text);
    });
}

/// The multilevel baseline produces valid partitions on arbitrary graphs.
#[test]
fn multilevel_valid_on_arbitrary_graphs() {
    run_cases(24, |rng| {
        let graph = arbitrary_graph(rng, 40, 150);
        let k = rng.gen_range(2u32..8);
        let p = MultilevelPartitioner::new(k, MultilevelConfig::default())
            .partition(&graph)
            .unwrap();
        assert_eq!(p.num_nodes(), graph.num_nodes());
        assert!(p.validate(graph.node_weights()));
    });
}

/// A restreaming run with `passes=1` is byte-identical to the plain
/// single-pass algorithm: the multi-pass engine must be a pure superset of
/// today's single-pass behavior.
#[test]
fn single_pass_restream_is_byte_identical_to_one_pass() {
    run_cases(32, |rng| {
        let graph = arbitrary_graph(rng, 20, 150);
        let k = rng.gen_range(1u32..12);
        let seed = rng.gen_range(0u64..1000);
        for (multi, single) in [
            (
                format!("fennel:{k}@seed={seed},passes=1"),
                format!("fennel:{k}@seed={seed}"),
            ),
            (
                format!("ldg:{k}@seed={seed},passes=1"),
                format!("ldg:{k}@seed={seed}"),
            ),
            (
                format!("hashing:{k}@seed={seed},passes=1"),
                format!("hashing:{k}@seed={seed}"),
            ),
            (
                format!("nh-oms:{k}@seed={seed},passes=1"),
                format!("nh-oms:{k}@seed={seed}"),
            ),
        ] {
            let a = JobSpec::parse(&multi)
                .unwrap()
                .build()
                .unwrap()
                .partition(&mut InMemoryStream::new(&graph))
                .unwrap();
            let b = JobSpec::parse(&single)
                .unwrap()
                .build()
                .unwrap()
                .partition(&mut InMemoryStream::new(&graph))
                .unwrap();
            assert_eq!(a, b, "{multi} vs {single}");
        }
    });
}

/// Multi-pass restreaming keeps the balance constraint
/// `L_max = ⌈(1+ε)·c(V)/k⌉` in *every* accepted pass, and the recorded
/// edge-cut trajectory is non-increasing (the engine reverts a pass that
/// overshoots).
#[test]
fn multi_pass_balance_holds_and_cut_never_increases() {
    run_cases(24, |rng| {
        let graph = arbitrary_graph(rng, 30, 150);
        let n = graph.num_nodes() as u64;
        let k = rng.gen_range(2u32..8);
        let seed = rng.gen_range(0u64..1000);
        let passes = rng.gen_range(2usize..5);
        let capacity = Partition::capacity(graph.total_node_weight(), k, 0.03);
        let allowed = capacity as f64 / (n as f64 / k as f64) - 1.0;
        for algo in ["fennel", "ldg", "nh-oms"] {
            let spec = format!("{algo}:{k}@seed={seed},passes={passes}");
            let report = JobSpec::parse(&spec)
                .unwrap()
                .build()
                .unwrap()
                .run(&mut InMemoryStream::new(&graph))
                .unwrap();
            assert!(!report.trajectory.is_empty(), "{spec}");
            assert!(
                report
                    .trajectory
                    .windows(2)
                    .all(|w| w[1].edge_cut <= w[0].edge_cut),
                "{spec}: non-increasing trajectory violated: {:?}",
                report.trajectory
            );
            for stats in &report.trajectory {
                assert!(
                    stats.imbalance <= allowed + 1e-9,
                    "{spec}: pass {} violates L_max: {stats:?} (allowed {allowed:.4})",
                    stats.pass
                );
            }
            assert_eq!(
                report.trajectory.last().unwrap().edge_cut,
                report.edge_cut,
                "{spec}: final pass is the returned partition"
            );
            assert!(report.partition.max_block_weight() <= capacity, "{spec}");
        }
    });
}

/// Traffic replay conserves its accounting on arbitrary graphs,
/// assignments and admission policies: every request is either served or
/// rejected, the per-block queue totals sum to exactly the request-hop
/// count, cross-block hops never exceed total hops, and the percentile
/// ordering holds. A stress variant (all requests at tick 0 against a tiny
/// backlog cap) forces the rejection path.
#[test]
fn replay_conservation_holds_for_arbitrary_workloads() {
    run_cases(32, |rng| {
        let graph = arbitrary_graph(rng, 2, 120);
        let k = rng.gen_range(1u32..10);
        let assignments: Vec<BlockId> = (0..graph.num_nodes())
            .map(|_| rng.gen_range(0..k))
            .collect();
        let base = ReplayConfig {
            requests: rng.gen_range(1usize..400),
            hops: rng.gen_range(0usize..12),
            zipf_exponent: [0.0, 0.8, 1.1, 1.6][rng.gen_range(0..4usize)],
            hop_penalty: rng.gen_range(0u64..10),
            arrival_every: rng.gen_range(0u64..4),
            max_backlog: 0,
            seed: rng.gen_range(0u64..1000),
        };
        let stress = ReplayConfig {
            arrival_every: 0,
            max_backlog: rng.gen_range(1u64..6),
            ..base
        };
        for config in [base, stress] {
            let report = replay_graph(&graph, &assignments, &config);
            assert_eq!(report.requests, report.served + report.rejected);
            assert_eq!(
                report.block_load.iter().sum::<u64>(),
                report.total_hops,
                "per-block queue totals must sum to the request-hop count"
            );
            assert!(report.cross_block_hops <= report.total_hops);
            assert!(report.p50_latency <= report.p99_latency);
            if report.served > 0 {
                assert!(report.total_hops >= report.served as u64);
            } else {
                assert_eq!(report.total_hops, 0);
            }
        }
    });
}

/// The Zipf sampler is sane: samples stay in range, a skewed exponent
/// prefers the top rank over the bottom rank, and a fixed seed reproduces
/// the exact draw sequence.
#[test]
fn zipf_sampler_is_skewed_in_range_and_deterministic() {
    run_cases(32, |rng| {
        let n = rng.gen_range(2usize..200);
        let exponent = [0.8, 1.1, 1.5][rng.gen_range(0..3usize)];
        let sampler = ZipfSampler::new(n, exponent);
        let seed = rng.gen_range(0u64..1000);
        let mut counts = vec![0u64; n];
        let mut draw_rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..2000 {
            let rank = sampler.sample(&mut draw_rng);
            assert!(rank < n, "sampled rank {rank} out of range 0..{n}");
            counts[rank] += 1;
        }
        assert!(
            counts[0] >= counts[n - 1],
            "rank 0 ({}) must be drawn at least as often as rank {} ({})",
            counts[0],
            n - 1,
            counts[n - 1]
        );
        // Reproducibility: the same seed replays the identical sequence.
        let mut a = ChaCha8Rng::seed_from_u64(seed);
        let mut b = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut a), sampler.sample(&mut b));
        }
    });
}

/// The engine's fixed-point exit: once a pass moves no node, further
/// passes are skipped — a generous pass budget therefore never runs the
/// full budget on a converged instance (hashing converges after pass 1 by
/// construction).
#[test]
fn fixed_point_exit_fires_for_hashing() {
    run_cases(24, |rng| {
        let graph = arbitrary_graph(rng, 10, 100);
        let k = rng.gen_range(1u32..8);
        let seed = rng.gen_range(0u64..1000);
        let report = JobSpec::parse(&format!("hashing:{k}@seed={seed},passes=9"))
            .unwrap()
            .build()
            .unwrap()
            .run(&mut InMemoryStream::new(&graph))
            .unwrap();
        assert!(
            report.trajectory.len() <= 2,
            "hashing must reach its fixed point after one pass: {:?}",
            report.trajectory
        );
    });
}
