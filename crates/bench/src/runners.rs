//! Shared experiment drivers: corpus selection and algorithm suites.
//!
//! Every suite is a data-driven list of [`JobSpec`] strings resolved through
//! the shared `oms-core::api` registry — adding an algorithm to an
//! experiment means adding one spec string, not another construction match
//! arm.

use oms_core::{JobSpec, Partition};
use oms_gen::{scaled_corpus, CorpusClass};
use oms_graph::{CsrGraph, InMemoryStream};
use oms_mapping::{mapping_cost, Topology};
use oms_metrics::{edge_cut, measure_repeated};

/// The outcome of running one algorithm on one instance.
#[derive(Clone, Debug)]
pub struct AlgoResult {
    /// Registry name of the algorithm (`hashing`, `fennel`, `nh-oms`,
    /// `oms`, `multilevel`, `rms`, …).
    pub algorithm: String,
    /// Instance name.
    pub instance: String,
    /// Number of blocks / PEs.
    pub k: u32,
    /// Edge-cut of the produced partition.
    pub edge_cut: u64,
    /// Process-mapping cost `J` (0 when no topology is involved).
    pub mapping_cost: u64,
    /// Mean running time in seconds.
    pub seconds: f64,
}

/// The corpus used by the quality and runtime experiments (all instances).
pub fn quality_corpus(scale: f64, seed: u64) -> Vec<(String, CsrGraph)> {
    scaled_corpus(scale, seed)
        .into_iter()
        .map(|(name, _, graph)| (name, graph))
        .collect()
}

/// The corpus of the memory experiment: like the paper's scalability runs
/// it is restricted to the largest instances, so this keeps only the graphs
/// above the median node count (and always at least three).
pub fn scalability_corpus(scale: f64, seed: u64) -> Vec<(String, CsrGraph)> {
    let mut all: Vec<(String, CorpusClass, CsrGraph)> = scaled_corpus(scale, seed);
    all.sort_by_key(|(_, _, g)| std::cmp::Reverse(g.num_nodes()));
    let keep = (all.len() / 2).max(3).min(all.len());
    all.truncate(keep);
    all.into_iter().map(|(name, _, g)| (name, g)).collect()
}

/// Builds and runs one job on one instance, timing `reps` repetitions of
/// the partitioning itself and evaluating quality on the final partition.
pub fn run_job(
    instance: &str,
    spec: &str,
    graph: &CsrGraph,
    reps: usize,
    topology: Option<&Topology>,
) -> AlgoResult {
    let job: JobSpec = spec
        .parse()
        .unwrap_or_else(|e| panic!("bad suite spec '{spec}': {e}"));
    let partitioner = job
        .build()
        .unwrap_or_else(|e| panic!("cannot build suite spec '{spec}': {e}"));
    let (partition, seconds) = measure_repeated(reps, || {
        partitioner
            .partition(&mut InMemoryStream::new(graph))
            .unwrap_or_else(|e| panic!("'{spec}' failed on {instance}: {e}"))
    });
    result(
        instance,
        &partitioner.name(),
        job.num_blocks(),
        graph,
        &partition,
        topology,
        seconds,
    )
}

/// Runs the graph-partitioning suite (Hashing, Fennel, nh-OMS, buffered,
/// multilevel) for one instance and one `k`, measuring edge-cut and running
/// time. `buffered` sits between the one-pass streamers and the in-memory
/// baseline: streaming memory, per-batch multilevel model solves.
pub fn partitioning_suite(
    name: &str,
    graph: &CsrGraph,
    k: u32,
    reps: usize,
    include_in_memory: bool,
) -> Vec<AlgoResult> {
    oms_multilevel::register_algorithms();
    let mut specs = vec![
        format!("hashing:{k}"),
        format!("fennel:{k}"),
        format!("nh-oms:{k}"),
        format!("buffered:{k}"),
    ];
    if include_in_memory {
        specs.push(format!("multilevel:{k}"));
    }
    specs
        .iter()
        .map(|spec| run_job(name, spec, graph, reps, None))
        .collect()
}

/// Runs the process-mapping suite (Hashing, Fennel with identity mapping,
/// OMS, offline recursive multi-section) for one instance and one topology.
pub fn mapping_suite(
    name: &str,
    graph: &CsrGraph,
    topology: &Topology,
    reps: usize,
    include_in_memory: bool,
) -> Vec<AlgoResult> {
    oms_multilevel::register_algorithms();
    let k = topology.num_pes();
    let hierarchy = topology.hierarchy().to_string_spec();
    let mut specs = vec![
        format!("hashing:{k}"),
        format!("fennel:{k}"),
        format!("oms:{hierarchy}"),
    ];
    if include_in_memory {
        specs.push(format!("rms:{hierarchy}"));
    }
    specs
        .iter()
        .map(|spec| run_job(name, spec, graph, reps, Some(topology)))
        .collect()
}

fn result(
    instance: &str,
    algorithm: &str,
    k: u32,
    graph: &CsrGraph,
    partition: &Partition,
    topology: Option<&Topology>,
    seconds: f64,
) -> AlgoResult {
    AlgoResult {
        algorithm: algorithm.to_string(),
        instance: instance.to_string(),
        k,
        edge_cut: edge_cut(graph, partition.assignments()),
        mapping_cost: topology
            .map(|t| mapping_cost(graph, partition.assignments(), t))
            .unwrap_or(0),
        seconds,
    }
}

/// Builds the paper's default topology `S = 4:16:r`, `D = 1:10:100` for a
/// given extension factor `r` (`k = 64·r`).
pub fn paper_topology(r: u32) -> Topology {
    Topology::paper_default(r.max(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_corpus_is_nonempty_and_valid() {
        let corpus = quality_corpus(0.02, 1);
        assert!(corpus.len() >= 10);
        for (name, g) in &corpus {
            assert!(g.num_nodes() > 0, "{name}");
        }
    }

    #[test]
    fn scalability_corpus_keeps_the_larger_half() {
        let all = quality_corpus(0.02, 1);
        let big = scalability_corpus(0.02, 1);
        assert!(big.len() < all.len());
        assert!(big.len() >= 3);
        let min_big = big.iter().map(|(_, g)| g.num_nodes()).min().unwrap();
        let max_all = all.iter().map(|(_, g)| g.num_nodes()).max().unwrap();
        assert!(min_big <= max_all);
    }

    #[test]
    fn partitioning_suite_reports_all_algorithms() {
        let g = oms_gen::planted_partition(300, 8, 0.1, 0.01, 3);
        let results = partitioning_suite("test", &g, 16, 1, true);
        let names: Vec<&str> = results.iter().map(|r| r.algorithm.as_str()).collect();
        assert_eq!(
            names,
            vec!["hashing", "fennel", "nh-oms", "buffered", "multilevel"]
        );
        // Quality ordering of the paper: multilevel ≤ fennel-ish ≤ hashing,
        // with buffered in the streaming-with-multilevel-quality middle.
        let cut = |a: &str| results.iter().find(|r| r.algorithm == a).unwrap().edge_cut;
        assert!(cut("multilevel") <= cut("hashing"));
        assert!(cut("fennel") <= cut("hashing"));
        assert!(cut("nh-oms") <= cut("hashing"));
        assert!(cut("buffered") <= cut("hashing"));
    }

    #[test]
    fn mapping_suite_reports_mapping_costs() {
        let g = oms_gen::planted_partition(300, 8, 0.1, 0.01, 5);
        let topology = Topology::parse("2:2:2", "1:10:100").unwrap();
        let results = mapping_suite("test", &g, &topology, 1, false);
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.mapping_cost > 0));
        let cost = |a: &str| {
            results
                .iter()
                .find(|r| r.algorithm == a)
                .unwrap()
                .mapping_cost
        };
        assert!(cost("oms") <= cost("hashing"));
    }

    #[test]
    fn run_job_accepts_any_registered_spec() {
        oms_multilevel::register_algorithms();
        let g = oms_gen::planted_partition(200, 4, 0.1, 0.01, 7);
        let r = run_job("test", "fennel:8@passes=2", &g, 1, None);
        assert_eq!(r.algorithm, "fennel");
        assert_eq!(r.k, 8);
        assert_eq!(r.mapping_cost, 0);
    }

    #[test]
    fn paper_topology_has_64r_pes() {
        assert_eq!(paper_topology(8).num_pes(), 512);
        assert_eq!(paper_topology(2).num_pes(), 128);
    }
}
