//! What the multi-pass edge engine records.
//!
//! Every `e-*` job runs one vertex-cut pass loop
//! ([`StreamingEdgePartitioner::run`](crate::StreamingEdgePartitioner::run),
//! built from the job by [`build_edge_partitioner`](crate::build_edge_partitioner)):
//! up to the job's `passes=` budget of passes over the same (rewound) edge
//! stream, re-scoring every edge against the previous pass's assignment
//! from the second pass on (un-assign, then re-assign). After every pass the
//! loop reads the sink's incrementally maintained quality — no extra metric
//! pass is needed — and takes its verdict from the node engine's
//! [`PassTracker`](oms_core::executor::PassTracker), so `passes=N` follows
//! the same rules for nodes and edges: the run
//!
//! * stops once no edge moved (fixed point), or the total replica count is
//!   zero (an edgeless graph),
//! * stops once the relative improvement of the total replica count falls
//!   below the job's `conv=` threshold, and
//! * **reverts** a pass that *increased* the total replica count by
//!   replaying the stream once with the best assignment seen, so the
//!   recorded [`EdgePassStats`] trajectory is non-increasing by construction
//!   and always ends on the assignment actually returned.
//!
//! Quality is compared on the **total replica count** `Σ_v |R(v)|` — an
//! exact integer — rather than the replication factor (its quotient by the
//! covered-vertex count), so the accept/revert decisions are free of
//! floating-point tie ambiguity.

/// Quality snapshot of an edge partition, maintained by the sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct EdgeQuality {
    /// Total replica count `Σ_v |R(v)|`.
    pub(crate) total_replicas: u64,
    /// Number of vertices with at least one replica (non-isolated).
    pub(crate) covered_vertices: u64,
    /// Largest per-vertex replica set.
    pub(crate) max_replicas: u32,
    /// Heaviest block load (assigned edge weight).
    pub(crate) max_load: u64,
    /// Total assigned edge weight.
    pub(crate) total_load: u64,
}

impl EdgeQuality {
    /// The replication factor `Σ_v |R(v)| / covered` (`1.0` when empty).
    pub(crate) fn replication_factor(&self) -> f64 {
        if self.covered_vertices == 0 {
            return 1.0;
        }
        self.total_replicas as f64 / self.covered_vertices as f64
    }

    /// Edge-load imbalance over `k` blocks.
    pub(crate) fn imbalance(&self, k: u32) -> f64 {
        if self.total_load == 0 {
            return 0.0;
        }
        let average = self.total_load as f64 / k.max(1) as f64;
        self.max_load as f64 / average - 1.0
    }
}

/// Quality and movement statistics of one accepted edge-partitioning pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgePassStats {
    /// Pass index (0 = the initial streaming pass).
    pub pass: usize,
    /// Total replica count after this pass (the engine's exact quality
    /// scalar; lower is better).
    pub total_replicas: u64,
    /// Replication factor after this pass.
    pub replication_factor: f64,
    /// Edge-load imbalance after this pass.
    pub imbalance: f64,
    /// Number of edges whose block changed in this pass (`m` for the
    /// initial pass, where every edge goes from unassigned to assigned).
    pub moved: usize,
    /// Wall time of the pass itself, in seconds.
    pub seconds: f64,
}
