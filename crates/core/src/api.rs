//! The unified, object-safe partitioning API.
//!
//! Every algorithm family in this workspace — the flat baselines (`hashing`,
//! `ldg`, `fennel`), online recursive multi-section (`oms`, `nh-oms`), their
//! restreaming runs and the in-memory multilevel baseline (registered by
//! `oms-multilevel`) — is reachable through three pieces:
//!
//! * [`Partitioner`] — a dyn-compatible trait: `run` takes any
//!   `&mut dyn NodeStream` and returns a [`PartitionReport`].
//! * [`JobSpec`] — a parseable, round-trippable description of a
//!   partitioning job (`"oms:4:16:8@eps=0.03,passes=3"`), with
//!   [`JobSpec::build`] as the factory producing a `Box<dyn Partitioner>` —
//!   the only way to build one. The five built-in streaming rows build one
//!   job type, OMS on the tree the row picks (`oms`'s
//!   `OnlineMultiSection`). Its options are the rows of the job-option
//!   table ([`crate::knobs`]).
//! * The **dispatch registry** [`ALGORITHMS`] — a shared name → constructor
//!   table ([`Registry`]) that downstream crates extend
//!   (`oms_multilevel::register_algorithms()` adds the `multilevel` and
//!   `rms` baselines) and every frontend (CLI, bench harness, examples)
//!   resolves jobs against.
//!
//! ## Job specification grammar
//!
//! The option list below is [`knobs::help_lines`] verbatim (a test keeps
//! the two in sync).
//!
//! ```text
//! <algorithm>:<shape>[@<options>]
//!
//! shape    := k                   flat k-way partitioning, e.g. "fennel:64"
//!           | a1:a2:...:aℓ        hierarchical multi-section, e.g. "oms:4:16:8"
//! options  := key=value[,key=value]*   each key at most once
//!
//! eps=<float>                allowed imbalance ε (default 0.03)
//! seed=<int>                 RNG seed (default 0)
//! passes=<int>               restreaming passes (an upper bound when conv= is set) (default 1)
//! conv=<float>               relative cut improvement below which a multi-pass run stops early; 0 = never (default 0)
//! base=<int>                 nh-OMS multi-section base (default 4)
//! hybrid=<int>               bottom tree layers solved with Hashing, the hybrid mapping of §3.2 (default 0)
//! buf=<int>                  buffer size of the buffered algorithms in nodes; 0 = algorithm default (default 0)
//! lambda=<float>             balance weight λ of the vertex-cut edge partitioners (default 1)
//! drift=<float>              drift past which dynamic maintenance falls back to a full restream (default 0.2)
//! repair=off|local|boundary  local-repair policy of dynamic maintenance (default boundary)
//! window=<int>               delta batches per quality checkpoint of dynamic maintenance (default 1)
//! dist=d1:d2:...             PE distances; enables the mapping objective J in the report (default none)
//! ```
//!
//! `eps`, `seed`, `passes` and `conv` apply to every algorithm, and
//! `drift`, `repair` and `window` are read by the dynamic-maintenance
//! frontend whatever the algorithm. The others are algorithm-scoped: a job
//! may only set one its algorithm reads (`base`/`hybrid` for
//! `oms`/`nh-oms`, `buf` for `buffered`, `lambda` for `e-greedy`; `dist`
//! for every node partitioner). A multi-pass run always stops once no node
//! moves; with `window`, the final delta batch always checkpoints.
//!
//! Algorithm names starting with `e-` (`e-hash`, `e-dbh`, `e-greedy`)
//! describe **edge partitioning** jobs under the vertex-cut objective; they
//! share this grammar (the shape is the flat block count `k`, `lambda=`
//! tunes the balance term) but are dispatched through the edge-partitioner
//! registry of the `oms-edgepart` crate rather than [`JobSpec::build`].
//!
//! `Display` renders the canonical form (options at non-default values only,
//! in the fixed order above), so `JobSpec` round-trips through strings.
//!
//! ## Working memory: one scan per pass
//!
//! [`Partitioner::run`] needs nothing of its stream but passes over it: a
//! streaming job holds its own `O(n)` state (the assignment array — one block
//! id per node, no node weight — `O(k)` loads, one bit per node for the
//! in-pass tally, for a multi-pass run the best pass's assignment) plus one
//! batch of the source, and a disk source bounds its batches
//! by adjacency entries (64 Ki) as well as by nodes — `O(n + batch)` in total, which is
//! what lets the CLI run such jobs straight off a stream file, one pass or
//! many. Each pass reads the input once: a node keeps the block a pass
//! places it in until the next pass, each undirected edge is streamed from
//! both endpoints, and exactly one of the two sightings finds the other
//! endpoint visited in this pass already — so edge-cut, imbalance, `ω(E)`
//! and, under a topology, the mapping cost `J` are tallied as the nodes are
//! placed, in `O(k·ℓ)` extra memory. That is the report of a one-pass job
//! and every per-pass measurement of a multi-pass one, whose report is its
//! last accepted pass. The identity needs symmetric adjacency lists; the
//! first pass proves that with a multiplicity-exact fingerprint and fails
//! with a typed graph error otherwise. A job that is not a streaming pass
//! (`buffered`, `multilevel`, `rms`) is measured afterwards by **one** more
//! walk, [`measure`], which returns all of the above for any assignment and
//! proves the symmetry it counts on as well. Neither proves a stream that
//! proves each pass itself ([`NodeStream::proves_symmetry`]: METIS text),
//! whose pass fails on one-sided lists before its tally is read;
//! [`stream_edge_cut`], [`stream_mapping_cost`] and
//! [`measure_pass`](crate::executor::measure_pass) are thin wrappers over
//! it. Algorithms that need random access call [`materialize_stream`] and
//! give the memory bound up.
//!
//! ## Example
//!
//! ```
//! use oms_core::api::JobSpec;
//! use oms_graph::{CsrGraph, InMemoryStream};
//!
//! let graph = CsrGraph::from_edges(8, &[
//!     (0, 1), (1, 2), (2, 3), (3, 0),
//!     (4, 5), (5, 6), (6, 7), (7, 4),
//!     (0, 4),
//! ]).unwrap();
//! let job: JobSpec = "oms:2:2@dist=1:10".parse().unwrap();
//! let partitioner = job.build().unwrap();
//! let report = partitioner.run(&mut InMemoryStream::new(&graph)).unwrap();
//! assert_eq!(report.partition.num_blocks(), 4);
//! assert!(report.mapping_cost.unwrap() >= report.edge_cut);
//! ```

use crate::executor::{measure, Measurement, PassStats, PassTrajectory, ReportTopology};
use crate::hierarchy::{DistanceSpec, HierarchySpec};
use crate::knobs::{self, Knob, KNOBS};
use crate::mstree::MultisectionTree;
use crate::oms::OnlineMultiSection;
use crate::partition::{Partition, UNASSIGNED};
use crate::registry::{Entry, Registry};
use crate::scorer::FlatObjective;
use crate::{BlockId, PartitionError, Result};
use oms_graph::{CsrGraph, NodeStream, NodeWeight};
use oms_obs::Stopwatch;
use std::fmt;
use std::str::FromStr;

// ----------------------------------------------------------------- the trait

/// The unified result of one partitioning run.
///
/// The partition itself, the edge-cut `cut(Π)`, the imbalance
/// `max_i c(V_i)/(c(V)/k) − 1`, the process-mapping objective `J(C, D, Π)`
/// when a topology was attached to the job, and the wall time of the
/// partitioning.
#[derive(Clone, Debug)]
pub struct PartitionReport {
    /// Registry name of the algorithm that produced the partition.
    pub algorithm: String,
    /// Edge-cut of the produced partition.
    pub edge_cut: u64,
    /// Imbalance of the produced partition.
    pub imbalance: f64,
    /// Mapping cost `J`, present when the job carries a topology (`dist=`).
    pub mapping_cost: Option<u64>,
    /// Total edge weight `ω(E)` of the partitioned graph, present when
    /// [`Partitioner::run`] measured the result — in the passes of a
    /// streaming job, else with its own walk over the stream (it makes none
    /// when the engine's trajectory already supplies the cut and no topology
    /// is attached).
    pub total_edge_weight: Option<u64>,
    /// Wall time of the partitioning in seconds: every pass over the input,
    /// its tally included. A measurement walk after the last pass is not.
    pub seconds: f64,
    /// Per-pass quality trajectory of a multi-pass (restreaming) run, in
    /// pass order. Empty for algorithms that do not track passes.
    pub trajectory: Vec<PassStats>,
    /// The partition itself.
    pub partition: Partition,
}

impl PartitionReport {
    /// Number of blocks of the underlying partition.
    pub fn num_blocks(&self) -> u32 {
        self.partition.num_blocks()
    }

    /// Whether the partition satisfies the balance constraint for `epsilon`.
    pub fn is_balanced(&self, epsilon: f64) -> bool {
        self.partition.is_balanced(epsilon)
    }

    /// Total node weight `c(V)` of the partitioned graph. Equals `n` on
    /// unweighted graphs.
    pub fn total_node_weight(&self) -> NodeWeight {
        self.partition.total_weight()
    }

    /// Weight of the heaviest block `max_i c(V_i)` — the quantity the
    /// balance constraint `L_max` bounds. Equals the largest block *size*
    /// only on unweighted graphs.
    pub fn max_block_weight(&self) -> NodeWeight {
        self.partition.max_block_weight()
    }
}

/// An object-safe partitioner: any algorithm that can turn a node stream
/// into a [`Partition`].
///
/// The trait is deliberately dyn-compatible so heterogeneous frontends can
/// hold `Box<dyn Partitioner>` built from a [`JobSpec`] and drive any
/// algorithm — streaming, restreaming or in-memory — through one entry
/// point. Algorithms that need random access to the graph (multilevel) use
/// [`NodeStream::as_graph`] / [`materialize_stream`] to obtain one.
pub trait Partitioner {
    /// Registry name of the algorithm (used in reports).
    fn name(&self) -> String;

    /// Number of blocks this partitioner produces.
    fn num_blocks(&self) -> u32;

    /// Computes the partition for the nodes delivered by `stream`.
    fn partition(&self, stream: &mut dyn NodeStream) -> Result<Partition>;

    /// Like [`Partitioner::partition`], but additionally returns the
    /// per-pass quality trajectory of multi-pass (restreaming) runs. The
    /// default wraps [`Partitioner::partition`] with an empty trajectory;
    /// restreaming algorithms override it.
    fn partition_tracked(
        &self,
        stream: &mut dyn NodeStream,
    ) -> Result<(Partition, PassTrajectory)> {
        Ok((self.partition(stream)?, PassTrajectory::default()))
    }

    /// [`Partitioner::partition_tracked`] for a caller that reports on the
    /// result under `topology` ([`Partitioner::run`]): an algorithm whose
    /// decision is final for the pass when the node is streamed — any
    /// number of passes of `hashing`, `ldg`, `fennel`, `oms`, `nh-oms` —
    /// also returns the [`Measurement`] of its partition, tallied as the
    /// nodes were placed, so the caller need not read the stream again;
    /// one-pass `buffered` returns the walk it makes after its pass anyway.
    /// Everything else (the default) returns `None`.
    fn partition_measured(
        &self,
        stream: &mut dyn NodeStream,
        topology: ReportTopology<'_>,
    ) -> Result<(Partition, PassTrajectory, Option<Measurement>)> {
        let _ = topology;
        let (partition, trajectory) = self.partition_tracked(stream)?;
        Ok((partition, trajectory, None))
    }

    /// The topology this job maps onto, when one was specified.
    fn topology(&self) -> ReportTopology<'_> {
        None
    }

    /// Runs the partitioner and evaluates the result into a
    /// [`PartitionReport`] (edge-cut, imbalance, optional mapping cost `J`,
    /// wall time). A streaming job reads its input **once per pass**: its
    /// report is tallied during the passes
    /// ([`Partitioner::partition_measured`]), with or without a topology.
    /// For any other job, whatever the engine has not measured itself comes
    /// from one extra walk over the stream ([`measure`]): the cut of an
    /// untracked run and the `J` of a job with a topology, together; a
    /// tracked run without a topology pays no walk — its trajectory's last
    /// accepted pass is the returned partition. `seconds` covers everything
    /// [`Partitioner::partition_measured`] does — the passes with their
    /// tallies, and the walk `buffered` makes after its own pass.
    fn run(&self, stream: &mut dyn NodeStream) -> Result<PartitionReport> {
        let topology = self.topology();
        let clock = Stopwatch::start();
        let (partition, trajectory, tallied) = self.partition_measured(stream, topology)?;
        let seconds = clock.seconds();
        let tracked_cut = trajectory.final_edge_cut();
        let measured = match tallied {
            None if tracked_cut.is_none() || topology.is_some() => {
                stream.reset()?;
                let (assignments, k) = (partition.assignments(), partition.num_blocks());
                Some(measure(stream, assignments, k, topology)?)
            }
            tallied => tallied,
        };
        Ok(PartitionReport {
            algorithm: self.name(),
            edge_cut: tracked_cut
                .or(measured.map(|m| m.edge_cut))
                .expect("tracked or measured"),
            imbalance: partition.imbalance(),
            mapping_cost: measured.and_then(|m| m.mapping_cost),
            total_edge_weight: measured.map(|m| m.total_edge_weight),
            seconds,
            trajectory: trajectory.stats,
            partition,
        })
    }
}

// ------------------------------------------------------------ stream metrics

/// Weighted edge-cut of `assignments`, computed with one pass over the
/// stream. An edge incident to an unassigned node counts as cut.
///
/// A thin wrapper around [`measure`] — the *one* weighted edge walk in the
/// workspace — so the cut reported here can never drift from the per-pass
/// cut the restreaming engine measures.
pub fn stream_edge_cut(stream: &mut dyn NodeStream, assignments: &[BlockId]) -> Result<u64> {
    measure(stream, assignments, 0, None).map(|m| m.edge_cut)
}

/// Mapping cost `J(C, D, Π) = Σ_{u,v} ω(u,v) · D(Π(u), Π(v))`, computed with
/// one pass over the stream: [`measure`] under the given topology.
pub fn stream_mapping_cost(
    stream: &mut dyn NodeStream,
    assignments: &[BlockId],
    hierarchy: &HierarchySpec,
    distances: &DistanceSpec,
) -> Result<u64> {
    let topology = Some((hierarchy, distances));
    let measured = measure(stream, assignments, hierarchy.total_blocks(), topology)?;
    Ok(measured.mapping_cost.expect("a topology was given"))
}

/// A full [`CsrGraph`] of the stream: the graph behind it when there is one
/// ([`NodeStream::as_graph`]), else one pass collected by
/// [`oms_graph::collect_graph`].
///
/// Random-access algorithms behind the unified API (multilevel) call this,
/// trading the streaming memory guarantee for applicability.
pub fn materialize_stream(stream: &mut dyn NodeStream) -> Result<CsrGraph> {
    if let Some(graph) = stream.as_graph() {
        return Ok(graph.clone());
    }
    Ok(oms_graph::collect_graph(stream)?)
}

// ------------------------------------------------------------ job adapters

/// The partitioner produced by [`JobSpec::build`]: the algorithm picked from
/// the registry, labelled with its registry name and optionally carrying the
/// job's topology for mapping-cost evaluation.
struct JobPartitioner {
    name: String,
    topology: Option<(HierarchySpec, DistanceSpec)>,
    inner: Box<dyn Partitioner>,
}

impl Partitioner for JobPartitioner {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn num_blocks(&self) -> u32 {
        self.inner.num_blocks()
    }

    fn partition(&self, stream: &mut dyn NodeStream) -> Result<Partition> {
        self.inner.partition(stream)
    }

    fn partition_tracked(
        &self,
        stream: &mut dyn NodeStream,
    ) -> Result<(Partition, PassTrajectory)> {
        self.inner.partition_tracked(stream)
    }

    fn partition_measured(
        &self,
        stream: &mut dyn NodeStream,
        topology: ReportTopology<'_>,
    ) -> Result<(Partition, PassTrajectory, Option<Measurement>)> {
        self.inner.partition_measured(stream, topology)
    }

    fn topology(&self) -> ReportTopology<'_> {
        self.topology.as_ref().map(|(h, d)| (h, d))
    }
}

// ----------------------------------------------------------------- job spec

/// Default allowed imbalance ε (the paper's 3 %).
pub const DEFAULT_EPSILON: f64 = 0.03;
/// Default nh-OMS multi-section base (the paper's tuned `b = 4`).
pub const DEFAULT_BASE_B: u32 = 4;
/// Default balance weight λ of the vertex-cut edge partitioners (HDRF's
/// recommended λ = 1: replica affinity and balance weighted equally).
pub const DEFAULT_LAMBDA: f64 = 1.0;
/// Default drift threshold of dynamic maintenance (`drift=`): a full
/// restream triggers once moved mass plus cut regression exceed 20 % since
/// the last full pass.
pub const DEFAULT_DRIFT: f64 = 0.2;

/// How dynamic maintenance (`oms-dynamic`) repairs a partition as deltas
/// arrive — the `repair=` job option.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RepairPolicy {
    /// Apply graph mutations and load bookkeeping only; no node is ever
    /// re-scored (newly inserted nodes are still placed once).
    Off,
    /// Re-score exactly the nodes a delta touches (the endpoints of a
    /// changed edge, the former neighbors of a deleted node).
    Local,
    /// Like `Local`, plus one cascade wave: when a touched node changes
    /// blocks, its boundary neighbors are re-scored as well.
    #[default]
    Boundary,
}

impl RepairPolicy {
    /// The canonical spelling used by the job grammar.
    pub fn name(&self) -> &'static str {
        match self {
            RepairPolicy::Off => "off",
            RepairPolicy::Local => "local",
            RepairPolicy::Boundary => "boundary",
        }
    }

    /// Parses a `repair=` value.
    pub fn parse(s: &str) -> Result<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Ok(RepairPolicy::Off),
            "local" => Ok(RepairPolicy::Local),
            "boundary" => Ok(RepairPolicy::Boundary),
            other => Err(PartitionError::InvalidSpec(format!(
                "unknown repair policy '{other}' (known: off, local, boundary)"
            ))),
        }
    }
}

impl fmt::Display for RepairPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The block structure a job asks for: flat `k`-way or hierarchical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobShape {
    /// Plain `k`-way partitioning.
    Flat(u32),
    /// Multi-section along a communication hierarchy `a1:a2:…:aℓ`.
    Hierarchy(HierarchySpec),
}

impl JobShape {
    /// Total number of blocks / PEs.
    pub fn num_blocks(&self) -> u32 {
        match self {
            JobShape::Flat(k) => *k,
            JobShape::Hierarchy(h) => h.total_blocks(),
        }
    }

    /// The hierarchy, when the shape is hierarchical.
    pub fn hierarchy(&self) -> Option<&HierarchySpec> {
        match self {
            JobShape::Flat(_) => None,
            JobShape::Hierarchy(h) => Some(h),
        }
    }
}

impl fmt::Display for JobShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobShape::Flat(k) => write!(f, "{k}"),
            JobShape::Hierarchy(h) => write!(f, "{}", h.to_string_spec()),
        }
    }
}

/// Defines one by-value builder method per listed [`JobSpec`] field.
macro_rules! setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty,)*) => {
        $($(#[$doc])*
        pub fn $field(mut self, $field: $ty) -> Self {
            self.$field = $field;
            self
        })*
    };
}

/// A complete, serialisable description of one partitioning job.
///
/// See the [module documentation](self) for the string grammar.
/// `JobSpec` ↔ string conversion round-trips: `Display` prints the
/// canonical form and [`FromStr`] parses it back to an equal value.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Registry name of the algorithm (`hashing`, `ldg`, `fennel`, `oms`,
    /// `nh-oms`, `multilevel`, …).
    pub algorithm: String,
    /// Flat `k` or hierarchy.
    pub shape: JobShape,
    /// Allowed imbalance ε.
    pub epsilon: f64,
    /// RNG seed.
    pub seed: u64,
    /// Stream passes (`> 1` selects the restreaming variants; an upper
    /// bound when `convergence` is set).
    pub passes: usize,
    /// Relative edge-cut improvement below which a multi-pass run stops
    /// early (`0.0` = run the fixed number of passes; the engine still
    /// stops once no node moves between passes).
    pub convergence: f64,
    /// Multi-section base for nh-OMS.
    pub base_b: u32,
    /// Number of bottom tree layers solved with Hashing (the hybrid mapping
    /// of §3.2); only meaningful for `oms` / `nh-oms`.
    pub hashing_bottom_layers: usize,
    /// Buffer size (in nodes) of the buffered streaming algorithms; `0`
    /// selects the algorithm's default.
    pub buffer: usize,
    /// Balance weight λ of the vertex-cut edge partitioners (the `e-*`
    /// algorithms); larger values trade replication factor for edge-count
    /// balance. Ignored by node partitioners.
    pub lambda: f64,
    /// Drift threshold of dynamic maintenance: once cumulative moved mass
    /// plus cut regression since the last full pass exceed this fraction,
    /// the `oms-dynamic` layer falls back to a full restream. Ignored by
    /// one-shot runs.
    pub drift: f64,
    /// Local-repair policy of dynamic maintenance. Ignored by one-shot
    /// runs.
    pub repair: RepairPolicy,
    /// Sliding-window cadence of dynamic maintenance: quality checkpoints
    /// are taken every `window` delta batches (the final batch of a trace
    /// always checkpoints, whatever the cadence). Ignored by one-shot runs.
    pub window: usize,
    /// PE distances; when present, [`Partitioner::run`] also reports the
    /// mapping objective `J`. Requires a hierarchical shape.
    pub distances: Option<DistanceSpec>,
}

impl JobSpec {
    /// A flat `k`-way job with default options.
    pub fn flat(algorithm: impl Into<String>, k: u32) -> Self {
        JobSpec {
            algorithm: algorithm.into(),
            shape: JobShape::Flat(k),
            epsilon: DEFAULT_EPSILON,
            seed: 0,
            passes: 1,
            convergence: 0.0,
            base_b: DEFAULT_BASE_B,
            hashing_bottom_layers: 0,
            buffer: 0,
            lambda: DEFAULT_LAMBDA,
            drift: DEFAULT_DRIFT,
            repair: RepairPolicy::default(),
            window: 1,
            distances: None,
        }
    }

    /// A hierarchical job with default options.
    pub fn hierarchical(algorithm: impl Into<String>, hierarchy: HierarchySpec) -> Self {
        let mut spec = JobSpec::flat(algorithm, 0);
        spec.shape = JobShape::Hierarchy(hierarchy);
        spec
    }

    /// Parses the `<algorithm>:<shape>[@<options>]` form (same as
    /// [`FromStr`]).
    pub fn parse(s: &str) -> Result<Self> {
        s.parse()
    }

    setters! {
        /// Sets the allowed imbalance ε.
        epsilon: f64,
        /// Sets the RNG seed.
        seed: u64,
        /// Sets the number of restreaming passes.
        passes: usize,
        /// Sets the convergence threshold of multi-pass runs (relative
        /// edge-cut improvement below which the run stops early).
        convergence: f64,
        /// Sets the nh-OMS multi-section base.
        base_b: u32,
        /// Solves the given number of bottom tree layers with Hashing (the
        /// hybrid mapping of §3.2).
        hashing_bottom_layers: usize,
        /// Sets the buffer size (in nodes) of the buffered streaming
        /// algorithms.
        buffer: usize,
        /// Sets the balance weight λ of the vertex-cut edge partitioners.
        lambda: f64,
        /// Sets the drift threshold of dynamic maintenance.
        drift: f64,
        /// Sets the local-repair policy of dynamic maintenance.
        repair: RepairPolicy,
        /// Sets the sliding-window checkpoint cadence of dynamic
        /// maintenance.
        window: usize,
    }

    /// Attaches PE distances (enables the mapping objective `J`).
    pub fn distances(mut self, distances: DistanceSpec) -> Self {
        self.distances = Some(distances);
        self
    }

    /// Total number of blocks / PEs the job produces.
    pub fn num_blocks(&self) -> u32 {
        self.shape.num_blocks()
    }

    /// Checks the job's options on their own, whatever algorithm runs them:
    /// every option within the range its [`knobs`] row declares, `k > 0`
    /// and small enough that per-block state can be allocated, and the
    /// cross-option rules. Called by every consumer of a job
    /// ([`JobSpec::build`], the edge pipeline, dynamic maintenance) through
    /// [`Registry::resolve`].
    pub fn validate(&self) -> Result<()> {
        for knob in &KNOBS {
            knob.check(self).map_err(PartitionError::InvalidConfig)?;
        }
        let k = self.num_blocks();
        if k == UNASSIGNED {
            return Err(PartitionError::InvalidSpec(format!(
                "k = {k} is reserved for the unassigned marker; the largest k is {}",
                UNASSIGNED - 1
            )));
        }
        // Every engine keeps a few 8-byte columns per block (loads, score
        // terms); probing one here turns a k no machine can hold into a
        // typed error instead of an allocation abort mid-run.
        if Vec::<u64>::new().try_reserve_exact(k as usize).is_err() {
            return Err(PartitionError::InvalidConfig(format!(
                "k = {k} is too large: {} bytes of per-block state cannot be allocated",
                8 * k as u64
            )));
        }
        let broken_rule = if k == 0 {
            "the number of blocks k must be positive"
        } else if self.convergence > 0.0 && self.passes <= 1 {
            "conv= only applies to multi-pass runs; set passes=<N> (the pass budget) as well"
        } else {
            return Ok(());
        };
        Err(PartitionError::InvalidConfig(broken_rule.into()))
    }

    /// Builds the partitioner this job describes, dispatching through the
    /// shared algorithm registry ([`ALGORITHMS`]).
    ///
    /// The returned `Box<dyn Partitioner>` reports under the registry name
    /// and, when `dist=` was given, evaluates the mapping objective `J` in
    /// [`Partitioner::run`].
    pub fn build(&self) -> Result<Box<dyn Partitioner>> {
        let entry = ALGORITHMS.resolve(self)?;
        let inner = (entry.build)(self)?;
        let topology = match (&self.shape, &self.distances) {
            (_, None) => None,
            (JobShape::Hierarchy(h), Some(d)) => {
                if d.num_levels() < h.num_levels() {
                    return Err(PartitionError::InvalidSpec(format!(
                        "dist= has {} levels but the hierarchy has {}",
                        d.num_levels(),
                        h.num_levels()
                    )));
                }
                Some((h.clone(), d.clone()))
            }
            (JobShape::Flat(_), Some(_)) => {
                return Err(PartitionError::InvalidSpec(
                    "dist= requires a hierarchical shape (a1:a2:...)".into(),
                ))
            }
        };
        Ok(Box::new(JobPartitioner {
            name: entry.name.to_string(),
            topology,
            inner,
        }))
    }
}

impl fmt::Display for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.algorithm, self.shape)?;
        let mut separator = '@';
        for knob in &KNOBS {
            if let Some(value) = knob.render(self) {
                write!(f, "{separator}{}={value}", knob.key)?;
                separator = ',';
            }
        }
        Ok(())
    }
}

impl FromStr for JobSpec {
    type Err = PartitionError;

    fn from_str(s: &str) -> Result<Self> {
        let (head, options) = s.split_once('@').unwrap_or((s, ""));
        let (algorithm, shape) = head.split_once(':').unwrap_or((head, ""));
        let (algorithm, shape) = (algorithm.trim(), shape.trim());
        if algorithm.is_empty() {
            return Err(PartitionError::InvalidSpec(format!(
                "job spec '{s}' is missing an algorithm name"
            )));
        }
        let shape = if shape.is_empty() {
            return Err(PartitionError::InvalidSpec(format!(
                "job spec '{s}' is missing a shape: use '{algorithm}:<k>' or '{algorithm}:<a1:a2:...>'"
            )));
        } else if shape.contains(':') {
            JobShape::Hierarchy(HierarchySpec::parse(shape)?)
        } else {
            JobShape::Flat(shape.parse().map_err(|_| {
                PartitionError::InvalidSpec(format!(
                    "job spec '{s}': the shape after '{algorithm}:' must be a k or a1:a2:... list"
                ))
            })?)
        };

        let mut spec = JobSpec::flat(algorithm, 0);
        spec.shape = shape;
        let mut seen: Vec<&str> = Vec::new();
        for pair in options.split(',').map(str::trim) {
            if pair.is_empty() {
                continue;
            }
            let Some((key, value)) = pair.split_once('=') else {
                return Err(PartitionError::InvalidSpec(format!(
                    "job option '{pair}' is not of the form key=value"
                )));
            };
            let (key, value) = (key.trim(), value.trim());
            let knob = Knob::find(key).ok_or_else(|| {
                PartitionError::InvalidSpec(format!(
                    "unknown job option '{key}' (known: {})",
                    knobs::keys()
                ))
            })?;
            if seen.contains(&knob.key) {
                return Err(PartitionError::InvalidSpec(format!(
                    "job option '{}' is given more than once",
                    knob.key
                )));
            }
            seen.push(knob.key);
            knob.set(&mut spec, value).map_err(|why| {
                PartitionError::InvalidSpec(format!("job option '{key}={value}': {why}"))
            })?;
        }
        Ok(spec)
    }
}

// ----------------------------------------------------------------- registry

/// One entry of the node-partitioner registry.
pub type AlgorithmInfo = Entry<dyn Partitioner>;

/// The shared node-partitioner registry every frontend resolves jobs
/// against. Downstream crates plug additional backends into
/// [`JobSpec::build`] with [`Registry::register`];
/// `oms_multilevel::register_algorithms()` adds the in-memory `multilevel`
/// and `rms` baselines and `buffered` this way. Every node algorithm takes
/// `dist=`.
pub static ALGORITHMS: Registry<dyn Partitioner> =
    Registry::new("algorithm", &["dist"], builtin_algorithms);

/// OMS on `tree`, its layers scored with Fennel.
fn oms_on(spec: &JobSpec, tree: MultisectionTree) -> Result<Box<dyn Partitioner>> {
    let objective = Some(FlatObjective::Fennel);
    Ok(Box::new(OnlineMultiSection::new(spec, tree, objective)))
}

/// The flat rule `objective` (`None` = Hashing) on the depth-1 tree; a
/// hierarchical shape is flattened to its `k`.
fn flat(spec: &JobSpec, objective: Option<FlatObjective>) -> Result<Box<dyn Partitioner>> {
    Ok(Box::new(OnlineMultiSection::flat(spec, objective)))
}

/// nh-OMS's artificial recursive `base=`-section tree over `k` blocks.
fn b_section(k: u32, base: u32) -> Result<MultisectionTree> {
    if base < 2 {
        return Err(PartitionError::InvalidConfig(
            "the multi-section base must be at least 2".into(),
        ));
    }
    Ok(MultisectionTree::flat(k, base))
}

fn builtin_algorithms() -> Vec<AlgorithmInfo> {
    vec![
        Entry {
            name: "hashing",
            aliases: &["hash"],
            description: "random hash assignment (fastest, worst quality)",
            reads: &[],
            build: |spec| flat(spec, None),
        },
        Entry {
            name: "ldg",
            aliases: &["reldg"],
            description: "linear deterministic greedy; passes>1 = ReLDG",
            reads: &[],
            build: |spec| flat(spec, Some(FlatObjective::Ldg)),
        },
        Entry {
            name: "fennel",
            aliases: &["refennel"],
            description: "Fennel one-pass; passes>1 = ReFennel",
            reads: &[],
            build: |spec| flat(spec, Some(FlatObjective::Fennel)),
        },
        Entry {
            name: "oms",
            aliases: &["reoms"],
            description: "online recursive multi-section (hierarchy shape = OMS, flat k = nh-OMS)",
            reads: &["base", "hybrid"],
            build: |spec| {
                let tree = match &spec.shape {
                    JobShape::Hierarchy(h) => MultisectionTree::from_hierarchy(h),
                    JobShape::Flat(k) => b_section(*k, spec.base_b)?,
                };
                oms_on(spec, tree)
            },
        },
        Entry {
            name: "nh-oms",
            aliases: &["nhoms"],
            description: "nh-OMS: k-way partitioning through the artificial base-b tree",
            reads: &["base", "hybrid"],
            // Always the artificial base-b tree, even when the shape was
            // written as a hierarchy (only the product k matters).
            build: |spec| oms_on(spec, b_section(spec.num_blocks(), spec.base_b)?),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use oms_graph::InMemoryStream;

    fn two_communities() -> CsrGraph {
        CsrGraph::from_edges(
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
        .unwrap()
    }

    #[test]
    fn parse_flat_spec() {
        let spec = JobSpec::parse("fennel:64").unwrap();
        assert_eq!(spec.algorithm, "fennel");
        assert_eq!(spec.shape, JobShape::Flat(64));
        assert_eq!(spec.epsilon, DEFAULT_EPSILON);
        assert_eq!(spec.num_blocks(), 64);
    }

    #[test]
    fn parse_hierarchy_spec_with_options() {
        let spec = JobSpec::parse("oms:4:16:8@eps=0.05,passes=8,seed=3").unwrap();
        assert_eq!(spec.algorithm, "oms");
        assert_eq!(
            spec.shape,
            JobShape::Hierarchy(HierarchySpec::parse("4:16:8").unwrap())
        );
        assert_eq!(spec.epsilon, 0.05);
        assert_eq!(spec.passes, 8);
        assert_eq!(spec.seed, 3);
        assert_eq!(spec.num_blocks(), 512);
    }

    #[test]
    fn display_is_canonical_and_round_trips() {
        for text in [
            "fennel:64",
            "oms:4:16:8",
            "oms:4:16:8@eps=0.05,passes=8",
            "ldg:16@passes=3",
            "ldg:16@seed=5,passes=3",
            "nh-oms:10@seed=7,base=2",
            "ldg:16@passes=4,conv=0.02",
            "oms:2:2:2@dist=1:10:100",
            "oms:4:4:4@hybrid=2",
            "buffered:4@buf=4096",
            "buffered:8@eps=0.05,seed=3,buf=2048",
            "e-greedy:32@lambda=1.5",
            "e-hash:8@seed=7",
            "e-dbh:16@passes=3",
            "e-greedy:8@seed=3,passes=3,lambda=0.5",
            "fennel:8@drift=0.5",
            "fennel:8@repair=local",
            "ldg:16@seed=3,drift=0.05,repair=off",
            "fennel:8@eps=0.05,passes=2,drift=0.4,repair=local",
            "fennel:8@window=4",
            "ldg:16@drift=0.05,repair=local,window=3",
        ] {
            let spec = JobSpec::parse(text).unwrap();
            assert_eq!(spec.to_string(), text, "canonical form");
            assert_eq!(
                JobSpec::parse(&spec.to_string()).unwrap(),
                spec,
                "round trip"
            );
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        for bad in [
            "",
            "fennel",
            "fennel:abc",
            "fennel:16@wat=1",
            "fennel:16@passes",
            "fennel:16@passes=0",
            "fennel:16@passes=abc",
            "fennel:16@eps=-1",
            "oms:4:1:8",
            "e-greedy:8@lambda=-1",
            "e-greedy:8@lambda=abc",
            "fennel:8@drift=0",
            "fennel:8@drift=-0.5",
            "fennel:8@drift=abc",
            "fennel:8@repair=sometimes",
            "fennel:8@window=0",
            "fennel:8@window=abc",
        ] {
            assert!(JobSpec::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn unknown_algorithm_is_rejected_at_build_time() {
        let Err(err) = JobSpec::parse("frobnicate:8").unwrap().build() else {
            panic!("unknown algorithm should not build");
        };
        let msg = err.to_string();
        assert!(msg.contains("unknown algorithm"), "{msg}");
        assert!(
            msg.contains("fennel"),
            "should list known algorithms: {msg}"
        );
    }

    #[test]
    fn zero_blocks_rejected_at_build_time() {
        assert!(JobSpec::parse("fennel:0").unwrap().build().is_err());
    }

    #[test]
    fn a_k_no_machine_can_hold_is_a_typed_error_not_an_allocation_abort() {
        // Regression: `fennel:4294967295` aborted in `vec![0; k]` (32 GiB).
        for algorithm in ["fennel", "hashing", "oms", "ldg"] {
            let sentinel = format!("{algorithm}:{}", u32::MAX);
            match JobSpec::parse(&sentinel).unwrap().build() {
                Err(PartitionError::InvalidSpec(msg)) => {
                    assert!(msg.contains("k = 4294967295"), "{msg}")
                }
                other => panic!("{sentinel}: expected InvalidSpec, got {:?}", other.err()),
            }
        }
        // A hierarchy whose product is the sentinel is refused alike.
        let job = JobSpec::parse("oms:65535:65537").unwrap();
        assert!(matches!(job.build(), Err(PartitionError::InvalidSpec(_))));
        // Below the sentinel the answer depends on the machine: a typed
        // error naming k where the reservation fails, a partitioner where
        // it does not — never an abort.
        match JobSpec::parse("hashing:4294967294").unwrap().validate() {
            Err(PartitionError::InvalidConfig(msg)) => {
                assert!(msg.contains("k = 4294967294"), "{msg}")
            }
            other => other.expect("only the reservation can fail"),
        }
    }

    #[test]
    fn overflowing_hierarchy_is_a_typed_parse_error() {
        // 65536^4 = 2^64 used to overflow the product: a panic in debug
        // builds, k = 0 ("k must be positive") in release.
        let Err(err) = JobSpec::parse("oms:65536:65536:65536:65536") else {
            panic!("an overflowing hierarchy must not parse");
        };
        assert!(matches!(err, PartitionError::InvalidSpec(_)), "{err}");
        assert!(err.to_string().contains("exceeds the supported maximum"));
    }

    #[test]
    fn options_the_algorithm_never_reads_are_rejected() {
        for (text, knob, takers) in [
            ("fennel:8@buf=5", "buf=", ""),
            ("fennel:8@hybrid=3", "hybrid=", "oms, nh-oms"),
            ("ldg:8@base=2", "base=", "oms, nh-oms"),
            ("oms:4:4@lambda=2", "lambda=", ""),
        ] {
            let Err(err) = JobSpec::parse(text).unwrap().build() else {
                panic!("'{text}' must not build");
            };
            assert!(matches!(err, PartitionError::InvalidConfig(_)), "{err}");
            let msg = err.to_string();
            assert!(msg.contains(knob), "{text}: {msg}");
            assert!(msg.contains(takers), "{text}: {msg}");
        }
        // At its default the option is not "set"; the frontend's options are
        // accepted with every node algorithm.
        for text in [
            "fennel:8@buf=0",
            "ldg:8@base=4",
            "hashing:8@drift=0.5,repair=off,window=3",
            "oms:4:4@drift=0.5",
            "nh-oms:8@base=2,hybrid=1",
        ] {
            let built = JobSpec::parse(text).unwrap().build();
            assert!(built.is_ok(), "{text}: {:?}", built.err());
        }
    }

    #[test]
    fn the_removed_parallel_options_are_unknown_options() {
        // `threads=` and `shards=` left the grammar with their engines: a
        // spec naming one is refused while parsing, before anything is
        // sized (`shards=100000000` used to abort on a 24 GB allocation).
        for (text, key) in [
            ("fennel:8@threads=2", "threads"),
            ("oms:2:2@threads=2", "threads"),
            ("fennel:8@shards=2", "shards"),
            ("multilevel:8@threads=4", "threads"),
            ("e-greedy:8@threads=4", "threads"),
            ("fennel:8@shards=100000000", "shards"),
            ("hashing:8@threads=2", "threads"),
            ("fennel:4@shards=2,threads=2", "shards"),
            ("fennel:4@passes=2,threads=2", "threads"),
        ] {
            let Err(PartitionError::InvalidSpec(msg)) = JobSpec::parse(text) else {
                panic!("'{text}' must be an InvalidSpec");
            };
            let expected = format!("unknown job option '{key}' (known: {})", knobs::keys());
            assert_eq!(msg, expected, "{text}");
        }
        assert_eq!(KNOBS.len(), 12);
    }

    #[test]
    fn dist_requires_hierarchy() {
        assert!(JobSpec::parse("fennel:8@dist=1:10")
            .unwrap()
            .build()
            .is_err());
        assert!(JobSpec::parse("oms:2:2@dist=1").unwrap().build().is_err());
        assert!(JobSpec::parse("oms:2:2@dist=1:10").unwrap().build().is_ok());
    }

    #[test]
    fn built_partitioners_run_and_report() {
        let graph = two_communities();
        for text in [
            "hashing:4",
            "ldg:4",
            "fennel:4",
            "oms:4",
            "oms:2:2",
            "nh-oms:4",
            "fennel:4@passes=3",
            "ldg:4@passes=2",
            "oms:4@passes=2",
        ] {
            let job = JobSpec::parse(text).unwrap();
            let partitioner = job.build().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(partitioner.num_blocks(), 4, "{text}");
            let report = partitioner
                .run(&mut InMemoryStream::new(&graph))
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(report.partition.num_nodes(), 8, "{text}");
            assert!(report.partition.validate(&[1; 8]), "{text}");
            assert!(report.mapping_cost.is_none(), "{text}");
        }
    }

    #[test]
    fn report_includes_mapping_cost_with_distances() {
        let graph = two_communities();
        let job = JobSpec::parse("oms:2:2@dist=1:10").unwrap();
        let report = job
            .build()
            .unwrap()
            .run(&mut InMemoryStream::new(&graph))
            .unwrap();
        let j = report.mapping_cost.expect("topology given");
        assert!(j >= report.edge_cut, "J = {j} < cut = {}", report.edge_cut);
        assert_eq!(report.algorithm, "oms");
    }

    #[test]
    fn stream_edge_cut_matches_partition_edge_cut() {
        let graph = two_communities();
        let partition = JobSpec::parse("fennel:2")
            .unwrap()
            .build()
            .unwrap()
            .partition(&mut InMemoryStream::new(&graph))
            .unwrap();
        let via_stream =
            stream_edge_cut(&mut InMemoryStream::new(&graph), partition.assignments()).unwrap();
        assert_eq!(via_stream, partition.edge_cut(&graph));
    }

    #[test]
    fn materialize_stream_round_trips_the_graph() {
        let graph = two_communities();
        let rebuilt = materialize_stream(&mut InMemoryStream::new(&graph)).unwrap();
        assert_eq!(graph, rebuilt);
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(ALGORITHMS.find("refennel").unwrap().name, "fennel");
        assert_eq!(ALGORITHMS.find("OMS").unwrap().name, "oms");
        assert!(ALGORITHMS.find("does-not-exist").is_none());
    }

    #[test]
    fn registry_can_be_extended_and_replaced() {
        fn build_dummy(spec: &JobSpec) -> Result<Box<dyn Partitioner>> {
            JobSpec::flat("hashing", spec.num_blocks()).build()
        }
        ALGORITHMS.register(Entry {
            name: "dummy-test-algo",
            aliases: &[],
            description: "test-only",
            reads: &[],
            build: build_dummy,
        });
        assert!(ALGORITHMS.find("dummy-test-algo").is_some());
        let p = JobSpec::parse("dummy-test-algo:4")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(p.name(), "dummy-test-algo");
        // Re-registering replaces rather than duplicates.
        ALGORITHMS.register(Entry {
            name: "dummy-test-algo",
            aliases: &[],
            description: "replaced",
            reads: &[],
            build: build_dummy,
        });
        let count = ALGORITHMS
            .list()
            .iter()
            .filter(|a| a.name == "dummy-test-algo")
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn every_builtin_supports_passes() {
        let graph = two_communities();
        for text in [
            "hashing:4@passes=3",
            "ldg:4@passes=3",
            "fennel:4@passes=2",
            "oms:4@passes=2",
            "nh-oms:4@passes=2",
        ] {
            let report = JobSpec::parse(text)
                .unwrap()
                .build()
                .unwrap_or_else(|e| panic!("{text}: {e}"))
                .run(&mut InMemoryStream::new(&graph))
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(report.partition.num_nodes(), 8, "{text}");
            assert!(report.partition.validate(&[1; 8]), "{text}");
        }
    }

    #[test]
    fn multi_pass_reports_carry_a_trajectory() {
        let graph = two_communities();
        let report = JobSpec::parse("fennel:2@passes=4,seed=1")
            .unwrap()
            .build()
            .unwrap()
            .run(&mut InMemoryStream::new(&graph))
            .unwrap();
        assert!(!report.trajectory.is_empty());
        assert!(
            report
                .trajectory
                .windows(2)
                .all(|w| w[1].edge_cut <= w[0].edge_cut),
            "trajectory must be non-increasing: {:?}",
            report.trajectory
        );
        assert_eq!(
            report.trajectory.last().unwrap().edge_cut,
            report.edge_cut,
            "the reported cut is the final accepted pass"
        );
        // Single-pass runs keep an empty trajectory.
        let single = JobSpec::parse("fennel:2@seed=1")
            .unwrap()
            .build()
            .unwrap()
            .run(&mut InMemoryStream::new(&graph))
            .unwrap();
        assert!(single.trajectory.is_empty());
    }

    #[test]
    fn convergence_spec_round_trips_and_validates() {
        let spec = JobSpec::parse("fennel:8@passes=5,conv=0.01").unwrap();
        assert_eq!(spec.passes, 5);
        assert_eq!(spec.convergence, 0.01);
        assert_eq!(spec.to_string(), "fennel:8@passes=5,conv=0.01");
        assert!(JobSpec::parse("fennel:8@conv=-0.5").is_err());
        assert!(JobSpec::parse("fennel:8@conv=abc").is_err());
        // conv without a multi-pass budget parses but does not build: a
        // single pass can never converge, so the flag would silently do
        // nothing.
        assert!(JobSpec::parse("fennel:8@conv=0.01")
            .unwrap()
            .build()
            .is_err());
    }
}
