//! Restreaming: the pass policy shared by every multi-pass run.
//!
//! Restreaming (Nishimura & Ugander) performs several passes over the same
//! stream; from the second pass on, a node's previous assignment is removed
//! before it is re-scored, so each pass can only improve on the information
//! available to the previous one. The paper lists remapping through
//! restreaming as a natural extension of OMS (§3.2).
//!
//! There are no restreaming *types*: every streaming job (`hashing`, `ldg`,
//! `fennel`, `oms`, `nh-oms`) carries the job's `passes=`/`conv=` (defaults
//! 1/0) and runs through `run` — a one-pass run *is* the drive loop of the
//! multi-pass engine ([`executor::run_restream`]) with a budget of one. The engine
//! rewinds the stream between passes and measures each pass's quality while
//! the pass places its nodes: the first pass tallies every adjacency entry,
//! and each later one moves only the entries of the nodes it moves in the
//! last accepted pass's histogram, so a pass near convergence costs
//! `O(Σ deg(moved))` to measure. It records the per-pass trajectory, stops
//! early once the partition converges and reverts a pass that worsened the
//! edge cut. [`refine_partition`] exposes the same loop as
//! restreaming *refinement* of an existing partition, used by the in-memory
//! algorithms to support `passes > 1`.

use crate::executor::{
    self, Measurement, NodeSink, PassTrajectory, ReportTopology, RestreamOptions,
};
use crate::oms::OmsSink;
use crate::onepass::depth_one;
use crate::partition::Partition;
use crate::scorer::FlatObjective;
use crate::{PartitionError, Result};
use oms_graph::NodeStream;

/// The one run of the streaming jobs: up to `passes` (at least one, as
/// [`JobSpec::validate`](crate::JobSpec::validate) demands) passes of the
/// fresh `sink` over `stream`. A single pass is untracked (its
/// trajectory is empty); from two passes on every pass is measured, so the
/// early exit and the revert guard apply no matter how the caller obtains
/// the partition.
///
/// `report` is set by a caller that will report on the result, to the
/// topology it reports under. Every pass places each node for good until
/// the next one, so the run then returns the [`Measurement`] of its result
/// tallied while it partitioned: the single pass of a one-pass run, or the
/// last accepted pass of a multi-pass run (`executor::drive`). Nothing reads
/// the stream again for the report.
pub(crate) fn run(
    stream: &mut dyn NodeStream,
    sink: &mut dyn NodeSink,
    passes: usize,
    convergence: f64,
    report: Option<ReportTopology<'_>>,
) -> Result<(PassTrajectory, Option<Measurement>)> {
    let options = (passes > 1).then(|| RestreamOptions::new(passes, convergence));
    executor::drive(stream, sink, options.as_ref(), None, report, None)
}

/// Restreaming refinement of an existing partition.
///
/// Seeds the Fennel-scored kernel on the depth-1 tree with `seed`, then runs
/// up to `passes` unassign-and-re-score passes over the stream under the
/// balance constraint of the allowed imbalance `epsilon` — the multi-pass
/// bridge for algorithms that are not themselves streaming (multilevel,
/// rms): the seed becomes pass 0 of the trajectory and the engine's guard
/// ensures the result is never worse than it. Works on any stream source
/// (the graph is never materialised here).
pub fn refine_partition(
    stream: &mut dyn NodeStream,
    seed: Partition,
    epsilon: f64,
    passes: usize,
    convergence: f64,
) -> Result<(Partition, PassTrajectory)> {
    if passes == 0 {
        return Err(PartitionError::InvalidConfig(
            "restreaming needs at least one pass".into(),
        ));
    }
    let mut sink = OmsSink::new(
        &depth_one(seed.num_blocks(), epsilon, FlatObjective::Fennel)?,
        stream.num_nodes(),
        stream.num_edges(),
        stream.total_node_weight(),
    );
    sink.seed(seed.assignments(), seed.block_weights());
    let trajectory = executor::run_restream_seeded(
        stream,
        &mut sink,
        &RestreamOptions::new(passes, convergence),
        Some(seed.assignments()),
        None,
    )?;
    if trajectory.num_passes() <= 1 {
        // Nothing beyond the seed was accepted (already optimal, or the
        // only refinement pass was reverted): the seed *is* the result.
        return Ok((seed, trajectory));
    }
    Ok((sink.into_partition(), trajectory))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{JobSpec, DEFAULT_EPSILON};
    use oms_gen::planted_partition;
    use oms_graph::{CsrGraph, InMemoryStream};

    /// The partition and trajectory the job `text` computes for `g`.
    fn run_tracked(text: &str, g: &CsrGraph) -> Result<(Partition, PassTrajectory)> {
        let partitioner = JobSpec::parse(text)?.build()?;
        partitioner.partition_tracked(&mut InMemoryStream::new(g))
    }

    fn run(text: &str, g: &CsrGraph) -> Partition {
        run_tracked(text, g).unwrap().0
    }

    #[test]
    fn refennel_with_one_pass_equals_fennel() {
        let g = planted_partition(300, 8, 0.12, 0.01, 3);
        assert_eq!(run("fennel:8", &g), run("fennel:8@passes=1", &g));
    }

    #[test]
    fn refennel_never_worsens_the_cut() {
        let g = planted_partition(500, 8, 0.1, 0.01, 5);
        let once = run("fennel:8", &g);
        let re = run("fennel:8@passes=3", &g);
        assert!(
            re.edge_cut(&g) <= once.edge_cut(&g),
            "restreaming should not worsen the cut: {} vs {}",
            re.edge_cut(&g),
            once.edge_cut(&g)
        );
        assert!(re.is_balanced(0.031));
    }

    #[test]
    fn reldg_multiple_passes_stay_balanced() {
        let g = planted_partition(400, 4, 0.1, 0.01, 7);
        let p = run("ldg:4@passes=3", &g);
        assert!(p.is_balanced(0.031));
        assert_eq!(p.num_nodes(), 400);
    }

    #[test]
    fn reoms_one_pass_equals_oms() {
        let g = planted_partition(300, 8, 0.12, 0.01, 9);
        assert_eq!(run("nh-oms:8", &g), run("nh-oms:8@passes=1", &g));
    }

    #[test]
    fn reoms_improves_or_matches_cut() {
        let g = planted_partition(600, 16, 0.08, 0.004, 11);
        let once = run("nh-oms:16", &g);
        let re = run("nh-oms:16@passes=3", &g);
        // The engine's revert guard makes this a hard guarantee now.
        assert!(re.edge_cut(&g) <= once.edge_cut(&g));
        assert!(re.is_balanced(0.031));
    }

    #[test]
    fn rehashing_is_a_fixed_point_after_one_pass() {
        let g = planted_partition(300, 4, 0.1, 0.01, 13);
        let once = run("hashing:8@seed=5", &g);
        let (p, trajectory) = run_tracked("hashing:8@seed=5,passes=4", &g).unwrap();
        assert_eq!(once, p, "hashing never moves a node across passes");
        assert!(
            trajectory.converged,
            "the fixed-point exit must fire before the pass budget"
        );
        assert!(trajectory.num_passes() <= 2, "{trajectory:?}");
    }

    #[test]
    fn tracked_trajectories_are_non_increasing_and_balanced() {
        let g = planted_partition(500, 8, 0.1, 0.008, 17);
        let (p, trajectory) = run_tracked("fennel:8@passes=4", &g).unwrap();
        assert!(!trajectory.stats.is_empty());
        assert!(trajectory.is_non_increasing(), "{trajectory:?}");
        assert_eq!(
            trajectory.final_edge_cut().unwrap(),
            p.edge_cut(&g),
            "the last accepted pass is the returned partition"
        );
        // Every pass honours L_max = ceil((1+ε)·c(V)/k); the ceiling allows
        // an imbalance slightly above ε itself.
        let allowed = Partition::capacity(500, 8, 0.03) as f64 / (500.0 / 8.0) - 1.0;
        for stats in &trajectory.stats {
            assert!(stats.imbalance <= allowed + 1e-9, "{stats:?}");
        }
    }

    #[test]
    fn convergence_threshold_stops_early() {
        let g = planted_partition(500, 8, 0.1, 0.008, 19);
        // A 100 % improvement requirement can never be met: exactly one
        // additional pass runs, then the threshold exit fires.
        let (_, trajectory) = run_tracked("fennel:8@passes=6,conv=1", &g).unwrap();
        assert!(trajectory.num_passes() <= 2, "{trajectory:?}");
        assert!(trajectory.converged);
    }

    #[test]
    fn refinement_never_worsens_the_seed() {
        let g = planted_partition(400, 8, 0.1, 0.01, 23);
        let seed_partition = run("hashing:8", &g);
        let seed_cut = seed_partition.edge_cut(&g);
        let (refined, trajectory) = refine_partition(
            &mut InMemoryStream::new(&g),
            seed_partition,
            DEFAULT_EPSILON,
            3,
            0.0,
        )
        .unwrap();
        assert_eq!(trajectory.stats[0].edge_cut, seed_cut, "pass 0 = the seed");
        assert!(
            refined.edge_cut(&g) <= seed_cut,
            "refinement must not worsen the seed: {} vs {seed_cut}",
            refined.edge_cut(&g)
        );
        assert!(trajectory.is_non_increasing(), "{trajectory:?}");
    }

    #[test]
    fn zero_passes_is_rejected() {
        let g = planted_partition(100, 4, 0.1, 0.01, 13);
        for text in ["fennel:4", "ldg:4", "hashing:4", "nh-oms:4"] {
            let spec = JobSpec::parse(text).unwrap().passes(0);
            assert!(spec.build().is_err(), "{text}");
        }
        let seed = run("hashing:4", &g);
        let mut stream = InMemoryStream::new(&g);
        assert!(refine_partition(&mut stream, seed, DEFAULT_EPSILON, 0, 0.0).is_err());
    }
}
