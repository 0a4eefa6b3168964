//! The edge-job report and the `e-*` dispatch registry.
//!
//! Mirrors `oms_core::api` for the vertex-cut objective: a job is built from
//! the same [`JobSpec`] strings the node pipeline uses
//! (`"e-greedy:32@seed=3,passes=3,lambda=1.5"`), and [`EDGE_ALGORITHMS`] —
//! `oms-core`'s generic [`Registry`] instantiated for the one edge
//! partitioner type — is the one name → constructor table every frontend
//! resolves `e-*` jobs against. [`build_edge_partitioner`] is the only
//! constructor; [`is_edge_algorithm`] is the routing predicate frontends use
//! to decide between the node and the edge pipeline.

use crate::algorithms::{EdgeAlgoKind, StreamingEdgePartitioner};
use crate::engine::EdgePassStats;
use crate::partition::EdgePartition;
use oms_core::{Entry, JobSpec, PartitionError, Registry, Result};

/// The unified result of one edge-partitioning run.
#[derive(Clone, Debug)]
pub struct EdgePartitionReport {
    /// Registry name of the algorithm that produced the partition.
    pub algorithm: String,
    /// Replication factor `RF(Π)` of the produced vertex-cut.
    pub replication_factor: f64,
    /// Total replica count `Σ_v |R(v)|` (the exact integer behind `RF`).
    pub total_replicas: u64,
    /// Largest per-vertex replica set `max_v |R(v)|`.
    pub max_replicas: u32,
    /// Edge-load imbalance `max_b ω(E_b) / (ω(E)/k) − 1`.
    pub imbalance: f64,
    /// Wall time of the partitioning passes in seconds.
    pub seconds: f64,
    /// Per-pass quality trajectory of a multi-pass run, in pass order
    /// (a single entry for single-pass runs).
    pub trajectory: Vec<EdgePassStats>,
    /// The edge partition itself.
    pub partition: EdgePartition,
}

impl EdgePartitionReport {
    /// Number of blocks of the underlying partition.
    pub fn num_blocks(&self) -> u32 {
        self.partition.num_blocks()
    }
}

// ----------------------------------------------------------------- registry

/// The edge-algorithm registry (names are `e-`-prefixed). Edge partitioners
/// are sequential and flat: no algorithm-scoped option applies to all of
/// them.
pub static EDGE_ALGORITHMS: Registry<StreamingEdgePartitioner> =
    Registry::new("edge algorithm", &[], builtin_edge_algorithms);

/// Whether `name` resolves to a registered edge (vertex-cut) algorithm —
/// the predicate frontends use to route a [`JobSpec`] to the edge pipeline.
pub fn is_edge_algorithm(name: &str) -> bool {
    EDGE_ALGORITHMS.find(name).is_some()
}

/// Builds the edge partitioner described by `spec`, dispatching through the
/// edge registry. The shared option-validation rules of the node pipeline
/// apply ([`JobSpec::validate`]), and options that cannot mean anything for
/// the chosen vertex-cut algorithm (`dist=`, `buf=`, `base=`, `hybrid=`;
/// `lambda=` outside `e-greedy`) or a hierarchical shape are rejected
/// rather than silently ignored.
pub fn build_edge_partitioner(spec: &JobSpec) -> Result<StreamingEdgePartitioner> {
    let entry = EDGE_ALGORITHMS.resolve(spec)?;
    if spec.shape.hierarchy().is_some() {
        return Err(PartitionError::InvalidConfig(
            "edge partitioners are flat; write the shape as a plain block count k".into(),
        ));
    }
    Ok(*(entry.build)(spec)?)
}

/// The constructor of the `kind` row, which `build_edge_partitioner` calls
/// on a validated job.
fn row(kind: EdgeAlgoKind, spec: &JobSpec) -> Result<Box<StreamingEdgePartitioner>> {
    Ok(Box::new(StreamingEdgePartitioner::new(kind, spec)))
}

fn builtin_edge_algorithms() -> Vec<Entry<StreamingEdgePartitioner>> {
    vec![
        Entry {
            name: "e-hash",
            aliases: &["ehash"],
            description: "edge hashing (vertex-cut; balanced, worst replication)",
            reads: &[],
            build: |spec| row(EdgeAlgoKind::Hash, spec),
        },
        Entry {
            name: "e-dbh",
            aliases: &["edbh", "dbh"],
            description: "degree-based hashing (vertex-cut; hashes the lower-degree endpoint)",
            reads: &[],
            build: |spec| row(EdgeAlgoKind::Dbh, spec),
        },
        Entry {
            name: "e-greedy",
            aliases: &["egreedy", "hdrf"],
            description:
                "HDRF-style greedy (vertex-cut; replica affinity + lambda-weighted balance)",
            reads: &["lambda"],
            build: |spec| row(EdgeAlgoKind::Greedy, spec),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use oms_graph::{CsrGraph, InMemoryStream};

    fn sample() -> CsrGraph {
        oms_gen::planted_partition(300, 4, 0.1, 0.01, 3)
    }

    #[test]
    fn registry_lists_the_three_builtins() {
        let names: Vec<&str> = EDGE_ALGORITHMS.list().iter().map(|a| a.name).collect();
        for name in ["e-hash", "e-dbh", "e-greedy"] {
            assert!(names.contains(&name), "{name} missing from {names:?}");
        }
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(EDGE_ALGORITHMS.find("hdrf").unwrap().name, "e-greedy");
        assert_eq!(EDGE_ALGORITHMS.find("E-DBH").unwrap().name, "e-dbh");
        assert!(EDGE_ALGORITHMS.find("fennel").is_none());
        assert!(is_edge_algorithm("e-hash"));
        assert!(!is_edge_algorithm("oms"));
    }

    #[test]
    fn specs_build_and_run_to_reports() {
        let graph = sample();
        for text in [
            "e-hash:8@seed=3",
            "e-dbh:8@seed=3",
            "e-greedy:8@seed=3",
            "e-greedy:8@seed=3,lambda=2.5",
            "e-greedy:8@seed=3,passes=3",
            "e-dbh:8@passes=4,conv=0.01",
        ] {
            let spec = JobSpec::parse(text).unwrap();
            let report = build_edge_partitioner(&spec)
                .and_then(|p| p.run(&mut InMemoryStream::new(&graph)))
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(report.num_blocks(), 8, "{text}");
            assert_eq!(report.partition.num_edges(), graph.num_edges(), "{text}");
            assert!(report.partition.validate(), "{text}");
            assert!(report.replication_factor >= 1.0, "{text}");
            assert!(!report.trajectory.is_empty(), "{text}");
            assert_eq!(
                report.trajectory.last().unwrap().total_replicas,
                report.total_replicas,
                "{text}: the trajectory ends on the reported quality"
            );
        }
    }

    #[test]
    fn invalid_edge_specs_are_rejected() {
        for (text, needle) in [
            ("e-frobnicate:8", "unknown edge algorithm"),
            ("e-greedy:0", "positive"),
            ("e-greedy:8@conv=0.1", "multi-pass"),
            ("e-greedy:4:4", "flat"),
            ("e-greedy:8@buf=4096", "buf="),
            ("e-greedy:8@base=8", "base="),
            ("e-greedy:8@hybrid=2", "hybrid="),
            ("e-hash:8@lambda=2", "taken by: e-greedy"),
        ] {
            let spec = JobSpec::parse(text).unwrap();
            let Err(err) = build_edge_partitioner(&spec) else {
                panic!("'{text}' must not build");
            };
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
        let spec = JobSpec::parse("e-greedy:2:2@dist=1:10").unwrap();
        let Err(err) = build_edge_partitioner(&spec) else {
            panic!("dist= must not build for edge algorithms");
        };
        assert!(err.to_string().contains("mapping objective"), "{err}");
    }

    #[test]
    fn entries_only_read_algorithm_scoped_options() {
        for entry in EDGE_ALGORITHMS.list() {
            for key in entry.reads {
                let knob = oms_core::knobs::Knob::find(key).expect("a table key");
                assert_eq!(knob.scope, oms_core::knobs::Scope::Algorithm, "{key}");
            }
        }
    }

    #[test]
    fn registry_can_be_extended_and_replaced() {
        let dummy = |description| Entry {
            name: "e-dummy",
            description,
            ..EDGE_ALGORITHMS.find("e-hash").unwrap()
        };
        EDGE_ALGORITHMS.register(dummy("test-only"));
        assert!(is_edge_algorithm("e-dummy"));
        EDGE_ALGORITHMS.register(dummy("replaced"));
        let count = EDGE_ALGORITHMS
            .list()
            .iter()
            .filter(|a| a.name == "e-dummy")
            .count();
        assert_eq!(count, 1);
    }
}
