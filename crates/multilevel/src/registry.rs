//! Plugs the in-memory baselines into the shared `oms-core::api` registry.
//!
//! `oms-core` cannot depend on this crate, so the `multilevel` and `rms`
//! entries are contributed from here: frontends call
//! [`register_algorithms`] once at startup and every
//! [`JobSpec`] string can then select the in-memory
//! baselines exactly like the streaming algorithms.

use crate::buffered::BufferedMultilevel;
use crate::hierarchical::RecursiveMultisection;
use crate::partitioner::MultilevelPartitioner;
use oms_core::api::{materialize_stream, JobSpec, Partitioner, ALGORITHMS};
use oms_core::executor::{self, Measurement, PassTrajectory, ReportTopology};
use oms_core::{refine_partition, Entry, Partition, PartitionError, Result};
use oms_graph::NodeStream;
use oms_obs::Stopwatch;

impl Partitioner for MultilevelPartitioner {
    fn name(&self) -> String {
        "multilevel".to_string()
    }

    fn num_blocks(&self) -> u32 {
        MultilevelPartitioner::num_blocks(self)
    }

    fn partition(&self, stream: &mut dyn NodeStream) -> Result<Partition> {
        let graph = materialize_stream(stream)?;
        MultilevelPartitioner::partition(self, &graph)
    }
}

impl Partitioner for RecursiveMultisection {
    fn name(&self) -> String {
        "rms".to_string()
    }

    fn num_blocks(&self) -> u32 {
        RecursiveMultisection::num_blocks(self)
    }

    fn partition(&self, stream: &mut dyn NodeStream) -> Result<Partition> {
        let graph = materialize_stream(stream)?;
        RecursiveMultisection::partition(self, &graph)
    }
}

impl Partitioner for BufferedMultilevel {
    fn name(&self) -> String {
        "buffered".to_string()
    }

    fn num_blocks(&self) -> u32 {
        BufferedMultilevel::num_blocks(self)
    }

    /// The partition [`Partitioner::partition_measured`] returns: its
    /// measurement walk proves the lists symmetric here too.
    fn partition(&self, stream: &mut dyn NodeStream) -> Result<Partition> {
        Ok(self.partition_measured(stream, None)?.0)
    }

    /// The one pass, then one measurement walk over the rewound stream
    /// under `topology`: the sink commits whole batches, so the pass cannot
    /// tally itself.
    fn partition_measured(
        &self,
        stream: &mut dyn NodeStream,
        topology: ReportTopology<'_>,
    ) -> Result<(Partition, PassTrajectory, Option<Measurement>)> {
        let partition = self.run_pass(stream)?;
        stream.reset()?;
        let (assignments, k) = (partition.assignments(), partition.num_blocks());
        let measured = executor::measure(stream, assignments, k, topology)?;
        Ok((partition, PassTrajectory::default(), Some(measured)))
    }
}

/// `passes > 1` for the algorithms that are not streaming passes
/// (`multilevel`, `rms`, `buffered`): the base solve becomes pass 0 and the
/// remaining passes are restreaming refinement ([`refine_partition`]) of its
/// partition under the balance constraint — the engine's guard makes the
/// result never worse than the base solve.
struct RefinedInMemory {
    base: Box<dyn Partitioner>,
    epsilon: f64,
    passes: usize,
    convergence: f64,
}

impl RefinedInMemory {
    fn run(&self, stream: &mut dyn NodeStream) -> Result<(Partition, PassTrajectory)> {
        let clock = Stopwatch::start();
        let seed = self.base.partition(stream)?;
        let solve_seconds = clock.seconds();
        // The base solve consumed (at least) one pass; the refinement
        // streams the same source from the top.
        stream.reset()?;
        let (refined, mut trajectory) = refine_partition(
            stream,
            seed,
            self.epsilon,
            self.passes - 1,
            self.convergence,
        )?;
        if let Some(first) = trajectory.stats.first_mut() {
            first.seconds = solve_seconds;
        }
        Ok((refined, trajectory))
    }
}

impl Partitioner for RefinedInMemory {
    fn name(&self) -> String {
        self.base.name()
    }

    fn num_blocks(&self) -> u32 {
        self.base.num_blocks()
    }

    fn partition(&self, stream: &mut dyn NodeStream) -> Result<Partition> {
        Ok(self.run(stream)?.0)
    }

    fn partition_tracked(
        &self,
        stream: &mut dyn NodeStream,
    ) -> Result<(Partition, PassTrajectory)> {
        self.run(stream)
    }
}

/// Wraps `base` for restreaming refinement when the job asks for more than
/// one pass.
fn with_refinement(base: Box<dyn Partitioner>, spec: &JobSpec) -> Box<dyn Partitioner> {
    if spec.passes <= 1 {
        return base;
    }
    Box::new(RefinedInMemory {
        base,
        epsilon: spec.epsilon,
        passes: spec.passes,
        convergence: spec.convergence,
    })
}

fn build_multilevel(spec: &JobSpec) -> Result<Box<dyn Partitioner>> {
    Ok(with_refinement(
        Box::new(MultilevelPartitioner::new(
            spec.num_blocks(),
            spec.epsilon,
            spec.seed,
        )),
        spec,
    ))
}

fn build_rms(spec: &JobSpec) -> Result<Box<dyn Partitioner>> {
    let Some(hierarchy) = spec.shape.hierarchy() else {
        return Err(PartitionError::InvalidSpec(
            "rms needs a hierarchical shape (e.g. rms:4:16:8)".into(),
        ));
    };
    // The refinement passes optimize edge-cut with a flat objective; on a
    // mapping job (dist=) they could silently worsen the objective J the
    // run is evaluated on, so the combination is rejected.
    if spec.passes > 1 && spec.distances.is_some() {
        return Err(PartitionError::InvalidSpec(
            "rms: passes>1 refines the edge-cut only and cannot be combined with dist= \
             (it could worsen the mapping objective J); drop dist= or use oms with passes>1"
                .into(),
        ));
    }
    Ok(with_refinement(
        Box::new(RecursiveMultisection::new(
            hierarchy.clone(),
            spec.epsilon,
            spec.seed,
        )),
        spec,
    ))
}

fn build_buffered(spec: &JobSpec) -> Result<Box<dyn Partitioner>> {
    Ok(with_refinement(
        Box::new(BufferedMultilevel::new(spec)),
        spec,
    ))
}

/// Registers the in-memory baselines (`multilevel`, `rms`) and the buffered
/// streaming algorithm (`buffered`) in the shared algorithm registry.
/// Idempotent; call once at frontend startup.
pub fn register_algorithms() {
    ALGORITHMS.register(Entry {
        name: "multilevel",
        aliases: &["ml", "kaminpar"],
        description: "in-memory multilevel k-way baseline; passes>1 adds restream refinement",
        reads: &[],
        build: build_multilevel,
    });
    ALGORITHMS.register(Entry {
        name: "rms",
        aliases: &["offline-oms", "intmap"],
        description: "offline recursive multi-section along a hierarchy; passes>1 refines",
        reads: &[],
        build: build_rms,
    });
    ALGORITHMS.register(Entry {
        name: "buffered",
        aliases: &["heistream", "buffered-multilevel"],
        description:
            "buffered streaming: per-batch multilevel solves (buf=<nodes>); passes>1 refines",
        reads: &["buf"],
        build: build_buffered,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use oms_core::PassStats;
    use oms_graph::io::{write_metis, write_stream_file, DiskStream, MetisStream};
    use oms_graph::InMemoryStream;

    #[test]
    fn jobspec_builds_and_runs_multilevel() {
        register_algorithms();
        let g = oms_gen::planted_partition(300, 8, 0.1, 0.01, 3);
        let report = oms_core::JobSpec::parse("multilevel:8")
            .unwrap()
            .build()
            .unwrap()
            .run(&mut InMemoryStream::new(&g))
            .unwrap();
        assert_eq!(report.algorithm, "multilevel");
        assert_eq!(report.partition.num_nodes(), 300);
        assert!(report.is_balanced(0.031));
    }

    #[test]
    fn jobspec_builds_and_runs_rms_with_mapping_cost() {
        register_algorithms();
        let g = oms_gen::planted_partition(300, 8, 0.1, 0.01, 5);
        let report = oms_core::JobSpec::parse("rms:2:2:2@dist=1:10:100")
            .unwrap()
            .build()
            .unwrap()
            .run(&mut InMemoryStream::new(&g))
            .unwrap();
        assert_eq!(report.algorithm, "rms");
        assert_eq!(report.num_blocks(), 8);
        assert!(report.mapping_cost.unwrap() >= report.edge_cut);
    }

    #[test]
    fn rms_requires_a_hierarchy() {
        register_algorithms();
        assert!(oms_core::JobSpec::parse("rms:8").unwrap().build().is_err());
    }

    #[test]
    fn jobspec_builds_and_runs_buffered_with_buf_parameter() {
        register_algorithms();
        let g = oms_gen::planted_partition(300, 8, 0.1, 0.01, 7);
        let job = oms_core::JobSpec::parse("buffered:8@seed=3,buf=64").unwrap();
        assert_eq!(job.buffer, 64);
        assert_eq!(job.to_string(), "buffered:8@seed=3,buf=64");
        let report = job
            .build()
            .unwrap()
            .run(&mut InMemoryStream::new(&g))
            .unwrap();
        assert_eq!(report.algorithm, "buffered");
        assert_eq!(report.partition.num_nodes(), 300);
        assert!(report.partition.validate(&vec![1; 300]));
    }

    /// `passes > 1` is the shared refinement of the one-pass partition:
    /// `buffered:8@seed=3,buf=64,passes=3` returns exactly what
    /// [`refine_partition`] makes of `buffered:8@seed=3,buf=64`'s partition
    /// under the job's ε, `passes − 1` and `conv` — the same assignment and
    /// the same cut pass for pass — off memory, a `.oms` file and METIS text.
    #[test]
    fn buffered_restreams_and_resolves_aliases() {
        register_algorithms();
        let g = oms_gen::planted_partition(300, 8, 0.1, 0.01, 9);
        let dir = std::env::temp_dir().join("oms-multilevel-registry-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let (metis_path, stream_path) = (dir.join("buffered.graph"), dir.join("buffered.oms"));
        write_metis(&g, &metis_path).unwrap();
        write_stream_file(&g, &stream_path).unwrap();
        let job = JobSpec::parse("buffered:8@seed=3,buf=64,passes=3").unwrap();
        let (restreamed, one_pass) = (job.build().unwrap(), job.clone().passes(1).build().unwrap());
        let cuts = |stats: &[PassStats]| -> Vec<(usize, u64)> {
            stats.iter().map(|s| (s.pass, s.edge_cut)).collect()
        };
        let mut sources: Vec<(&str, Box<dyn NodeStream>)> = vec![
            ("memory", Box::new(InMemoryStream::new(&g))),
            (".oms", Box::new(DiskStream::open(&stream_path).unwrap())),
            ("METIS", Box::new(MetisStream::open(&metis_path).unwrap())),
        ];
        for (source, stream) in &mut sources {
            let stream = stream.as_mut();
            let report = restreamed.run(stream).unwrap();
            stream.reset().unwrap();
            let seed = one_pass.partition(stream).unwrap();
            stream.reset().unwrap();
            let (epsilon, passes, convergence) = (job.epsilon, job.passes - 1, job.convergence);
            let (refined, trajectory) =
                refine_partition(stream, seed, epsilon, passes, convergence).unwrap();
            assert!(trajectory.num_passes() > 1, "{source}: {trajectory:?}");
            assert_eq!(
                report.partition.assignments(),
                refined.assignments(),
                "{source}"
            );
            assert_eq!(
                cuts(&report.trajectory),
                cuts(&trajectory.stats),
                "{source}"
            );
            assert_eq!(
                report.trajectory.last().unwrap().edge_cut,
                report.edge_cut,
                "{source}: the reported cut is the last accepted pass"
            );
        }
        std::fs::remove_file(&metis_path).ok();
        std::fs::remove_file(&stream_path).ok();
        assert_eq!(ALGORITHMS.find("heistream").unwrap().name, "buffered");
    }

    #[test]
    fn rms_rejects_refinement_passes_on_mapping_jobs() {
        register_algorithms();
        let Err(err) = oms_core::JobSpec::parse("rms:2:2:2@dist=1:10:100,passes=2")
            .unwrap()
            .build()
        else {
            panic!("rms with dist= and passes>1 must be rejected");
        };
        assert!(err.to_string().contains("dist="), "{err}");
        // Without distances the refinement is fine.
        assert!(oms_core::JobSpec::parse("rms:2:2:2@passes=2")
            .unwrap()
            .build()
            .is_ok());
    }

    #[test]
    fn multilevel_and_rms_support_refinement_passes() {
        register_algorithms();
        let g = oms_gen::planted_partition(300, 8, 0.1, 0.01, 11);
        for spec in ["multilevel:8@seed=3,passes=3", "rms:2:2:2@seed=3,passes=2"] {
            let report = oms_core::JobSpec::parse(spec)
                .unwrap()
                .build()
                .unwrap()
                .run(&mut InMemoryStream::new(&g))
                .unwrap();
            assert!(!report.trajectory.is_empty(), "{spec}");
            assert!(
                report
                    .trajectory
                    .windows(2)
                    .all(|w| w[1].edge_cut <= w[0].edge_cut),
                "{spec}: refinement must not worsen the base solve: {:?}",
                report.trajectory
            );
            assert_eq!(report.trajectory.last().unwrap().edge_cut, report.edge_cut);
            assert_eq!(report.partition.num_nodes(), 300, "{spec}");
        }
    }
}
