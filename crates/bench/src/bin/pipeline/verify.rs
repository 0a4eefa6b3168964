//! Output verification and failure accounting.
//!
//! A rep of a workload fails when the CLI exits non-zero, when its output
//! file does not hold exactly one valid block id per node, when the cut the
//! CLI printed is not the cut recomputed here from the output file, or when
//! the output bytes differ from the first rep's (the jobs are sequential
//! and deterministic). The traced run adds identity checks through
//! [`identical`]: in-process ≡ the CLI's file, disk stream ≡ memory stream,
//! recorded ≡ plain run, resumed ≡ live state.

use oms_core::api::stream_mapping_cost;
use oms_core::{measure_pass, BlockId, DistanceSpec, HierarchySpec, UNASSIGNED};
use oms_graph::{NodeStream, DEFAULT_BATCH_SIZE};

/// Operations attempted and failed, with the reason of each failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation; `failure` is why it failed, if it did.
    pub fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.failed += 1;
            self.reasons.push(reason);
        }
    }

    pub fn all_passed(&self) -> bool {
        self.failed == 0
    }
}

/// The edge cut the CLI printed: the `edge-cut :` line of `partition` and
/// `map`, or the `inc_cut` column of the last checkpoint row of
/// `apply-deltas`.
pub fn parse_cli_cut(stdout: &str) -> Option<u64> {
    let mut cut = None;
    for line in stdout.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("edge-cut") {
            cut = rest.trim_start().strip_prefix(':')?.trim().parse().ok();
        } else {
            // checkpoint  deltas  inc_cut  re_cut  ratio  ...
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() >= 5 && fields[..4].iter().all(|f| f.parse::<u64>().is_ok()) {
                cut = fields[2].parse().ok();
            }
        }
    }
    cut
}

/// Parses an assignments file: one decimal block id per line.
pub fn parse_assignments(bytes: &[u8]) -> Result<Vec<BlockId>, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "output is not UTF-8".to_string())?;
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            line.parse::<BlockId>()
                .map_err(|_| format!("output line {}: '{line}' is not a block id", i + 1))
        })
        .collect()
}

/// Checks that `assignments` has one entry per node and that every entry is
/// a block below `k`. `dead` lists, for dynamic graphs, which ids the final
/// graph no longer holds: exactly those must read [`UNASSIGNED`].
pub fn check_assignments(
    assignments: &[BlockId],
    num_nodes: usize,
    k: u32,
    dead: Option<&dyn Fn(usize) -> bool>,
) -> Option<String> {
    if assignments.len() != num_nodes {
        return Some(format!(
            "output has {} lines for {num_nodes} nodes",
            assignments.len()
        ));
    }
    for (v, &block) in assignments.iter().enumerate() {
        let is_dead = dead.is_some_and(|dead| dead(v));
        if is_dead != (block == UNASSIGNED) || (!is_dead && block >= k) {
            return Some(format!("node {v}: block id {block} with k = {k}"));
        }
    }
    None
}

/// Why `found` is not byte-identical to `expected`, if it is not.
pub fn identical(what: &str, expected: &[BlockId], found: &[BlockId]) -> Option<String> {
    if expected == found {
        return None;
    }
    let first = expected
        .iter()
        .zip(found)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(found.len()));
    Some(format!(
        "{what}: assignments differ (lengths {} vs {}, first difference at node {first})",
        expected.len(),
        found.len()
    ))
}

/// Partition quality recomputed by the benchmark from an assignments vector.
#[derive(Clone, Copy, Debug)]
pub struct Quality {
    pub edge_cut: u64,
    pub mapping_cost: u64,
    pub total_edge_weight: u64,
    /// `max_i c(V_i) / (c(V)/k)`, i.e. 1 + imbalance.
    pub max_block_over_mean: f64,
}

impl Quality {
    pub fn edge_cut_frac(&self) -> f64 {
        self.edge_cut as f64 / self.total_edge_weight as f64
    }

    pub fn mapping_cost_per_edge(&self) -> f64 {
        self.mapping_cost as f64 / self.total_edge_weight as f64
    }
}

/// Total edge weight ω(E) of the streamed graph.
pub fn total_edge_weight(stream: &mut dyn NodeStream) -> Result<u64, String> {
    let mut twice = 0u64;
    stream
        .for_each_batch(DEFAULT_BATCH_SIZE, &mut |batch| {
            for node in batch.iter() {
                twice += node.neighbors_weighted().map(|(_, w)| w).sum::<u64>();
            }
        })
        .map_err(|e| e.to_string())?;
    Ok(twice / 2)
}

/// Scores `assignments` over `stream`: cut and balance through
/// `measure_pass`, `J` through `stream_mapping_cost` under the given
/// topology.
pub fn quality(
    stream: &mut dyn NodeStream,
    assignments: &[BlockId],
    k: u32,
    hierarchy: &str,
    distances: &str,
) -> Result<Quality, String> {
    let err = |e: oms_core::PartitionError| e.to_string();
    let hierarchy = HierarchySpec::parse(hierarchy).map_err(err)?;
    let distances = DistanceSpec::parse(distances).map_err(err)?;
    stream.reset().map_err(|e| e.to_string())?;
    let total_edge_weight = total_edge_weight(stream)?;
    stream.reset().map_err(|e| e.to_string())?;
    let (edge_cut, imbalance) = measure_pass(stream, assignments, k).map_err(err)?;
    stream.reset().map_err(|e| e.to_string())?;
    let mapping_cost =
        stream_mapping_cost(stream, assignments, &hierarchy, &distances).map_err(err)?;
    Ok(Quality {
        edge_cut,
        mapping_cost,
        total_edge_weight,
        max_block_over_mean: 1.0 + imbalance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oms_graph::{CsrGraph, InMemoryStream};

    #[test]
    fn cli_cut_is_read_from_partition_and_map_reports() {
        let partition = "graph      : g.oms (n = 8, m = 9)\njob        : fennel:4\n\
                         algorithm  : fennel, k = 4\nedge-cut   : 894528\nimbalance  : 0.0303\n\
                         time       : 0.2925 s\n  pass  0  : cut 896638 (imbalance 0.0303, 8 moved, 0.06 s)\n";
        assert_eq!(parse_cli_cut(partition), Some(894_528));
        let map = "mapping cost : 68889197\nedge-cut     : 1001090\nimbalance    : 0.0312\n";
        assert_eq!(parse_cli_cut(map), Some(1_001_090));
        assert_eq!(parse_cli_cut("error: no such file\n"), None);
    }

    #[test]
    fn cli_cut_is_read_from_the_last_checkpoint_row() {
        let report = "initial    : cut 287567 (imbalance 0.0010)\n\n\
            == incremental vs cold restream ==\n\
            checkpoint  deltas  inc_cut  re_cut  ratio  inc_imb  re_imb  inc_sec  re_sec\n\
            ----------------------------------------------------------------------------\n\
            \x20        0    1250   286695  286695  1.000   0.0007  0.0007   0.0058  0.0000\n\
            \x20       59    1250   264922  264922  1.000   0.0006  0.0006   0.0034  0.0000\n\
            drift          : 0.0760 (threshold 0.2, 2 full restreams, 75000 deltas applied)\n";
        assert_eq!(parse_cli_cut(report), Some(264_922));
    }

    #[test]
    fn assignments_parse_and_are_range_checked() {
        assert_eq!(parse_assignments(b"0\n3\n1\n").unwrap(), vec![0, 3, 1]);
        assert!(parse_assignments(b"0\nx\n").is_err());
        assert!(parse_assignments(b"0\n-1\n").is_err());
        assert_eq!(check_assignments(&[0, 3, 1], 3, 4, None), None);
        assert!(
            check_assignments(&[0, 3], 3, 4, None).is_some(),
            "too short"
        );
        assert!(
            check_assignments(&[0, 4, 1], 3, 4, None).is_some(),
            "id = k"
        );
        let dead = |v: usize| v == 1;
        assert_eq!(
            check_assignments(&[0, UNASSIGNED, 1], 3, 4, Some(&dead)),
            None
        );
        assert!(check_assignments(&[0, 2, 1], 3, 4, Some(&dead)).is_some());
        assert!(check_assignments(&[UNASSIGNED, UNASSIGNED, 1], 3, 4, Some(&dead)).is_some());
    }

    #[test]
    fn identical_names_the_first_difference() {
        assert_eq!(identical("x", &[1, 2, 3], &[1, 2, 3]), None);
        let reason = identical("disk vs memory", &[1, 2, 3], &[1, 9, 3]).unwrap();
        assert!(reason.contains("disk vs memory") && reason.contains("node 1"));
        assert!(identical("x", &[1, 2], &[1, 2, 3])
            .unwrap()
            .contains("node 2"));
    }

    #[test]
    fn tally_counts_failures() {
        let mut tally = Tally::default();
        tally.record(None);
        tally.record(Some("exit code".into()));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(!tally.all_passed());
    }

    #[test]
    fn quality_of_a_two_community_graph() {
        // Two 4-cycles joined by one bridge, split along the bridge.
        let graph = CsrGraph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
                (0, 4),
            ],
        )
        .unwrap();
        let assignments = [0, 0, 0, 0, 1, 1, 1, 1];
        let q = quality(&mut InMemoryStream::new(&graph), &assignments, 2, "2", "10").unwrap();
        assert_eq!(
            (q.edge_cut, q.total_edge_weight, q.mapping_cost),
            (1, 9, 10)
        );
        assert!((q.max_block_over_mean - 1.0).abs() < 1e-12);
        assert!((q.edge_cut_frac() - 1.0 / 9.0).abs() < 1e-12);
    }
}
