//! The result of one edge-partitioning run.

use oms_core::BlockId;

/// A partition of the **edges** of a graph into `k` blocks (a vertex-cut).
///
/// Assignments are indexed by *stream position*: the `i`-th entry is the
/// block of the `i`-th edge of the pass, each edge taken at its smaller
/// endpoint as the [`oms_graph::NodeStream`] delivers the nodes. The order
/// is a pure function of the node order, so the index is stable across
/// sources and passes (in natural order it is [`oms_graph::CsrGraph::edges`]
/// order).
///
/// Alongside the assignment the partition carries the replication summary
/// the producing sink maintained incrementally: the total replica count
/// `Σ_v |R(v)|`, the number of covered (non-isolated) vertices, the maximum
/// per-vertex replica count, and the per-block edge loads (total assigned
/// edge weight).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgePartition {
    k: u32,
    assignments: Vec<BlockId>,
    block_loads: Vec<u64>,
    total_replicas: u64,
    covered_vertices: u64,
    max_replicas: u32,
}

impl EdgePartition {
    /// Assembles a partition from the sink state (crate-internal).
    pub(crate) fn new(
        k: u32,
        assignments: Vec<BlockId>,
        block_loads: Vec<u64>,
        total_replicas: u64,
        covered_vertices: u64,
        max_replicas: u32,
    ) -> Self {
        EdgePartition {
            k,
            assignments,
            block_loads,
            total_replicas,
            covered_vertices,
            max_replicas,
        }
    }

    /// Number of blocks of the partition.
    pub(crate) fn num_blocks(&self) -> u32 {
        self.k
    }

    /// Number of partitioned edges.
    pub fn num_edges(&self) -> usize {
        self.assignments.len()
    }

    /// The per-edge block assignment, in edge-stream order.
    pub fn assignments(&self) -> &[BlockId] {
        &self.assignments
    }

    /// Total assigned edge weight per block.
    pub fn block_loads(&self) -> &[u64] {
        &self.block_loads
    }

    /// Total edge weight over all blocks, `ω(E)`.
    pub fn total_load(&self) -> u64 {
        self.block_loads.iter().sum()
    }

    /// Heaviest block load `max_b ω(E_b)` — the quantity the edge balance
    /// constraint bounds.
    pub fn max_block_load(&self) -> u64 {
        self.block_loads.iter().copied().max().unwrap_or(0)
    }

    /// Total replica count `Σ_v |R(v)|`.
    pub fn total_replicas(&self) -> u64 {
        self.total_replicas
    }

    /// Number of vertices with at least one incident edge (the denominator
    /// of the replication factor).
    #[cfg(test)]
    pub(crate) fn covered_vertices(&self) -> u64 {
        self.covered_vertices
    }

    /// Largest per-vertex replica set, `max_v |R(v)|`.
    pub(crate) fn max_replicas(&self) -> u32 {
        self.max_replicas
    }

    /// The replication factor `RF(Π) = Σ_v |R(v)| / |{v : deg(v) > 0}|`
    /// (`1.0` for graphs without edges: nothing is replicated).
    pub(crate) fn replication_factor(&self) -> f64 {
        if self.covered_vertices == 0 {
            return 1.0;
        }
        self.total_replicas as f64 / self.covered_vertices as f64
    }

    /// Edge-load imbalance `max_b ω(E_b) / (ω(E)/k) − 1`.
    pub(crate) fn imbalance(&self) -> f64 {
        let total = self.total_load();
        if total == 0 {
            return 0.0;
        }
        let average = total as f64 / self.k.max(1) as f64;
        self.max_block_load() as f64 / average - 1.0
    }

    /// Whether every edge is assigned to a block `< k`.
    pub fn validate(&self) -> bool {
        self.assignments.iter().all(|&b| b < self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_derive_from_the_summary() {
        let p = EdgePartition::new(2, vec![0, 1, 0], vec![2, 1], 5, 4, 2);
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.num_edges(), 3);
        assert_eq!(p.total_load(), 3);
        assert_eq!(p.max_block_load(), 2);
        assert!((p.replication_factor() - 1.25).abs() < 1e-12);
        assert!((p.imbalance() - (2.0 / 1.5 - 1.0)).abs() < 1e-12);
        assert!(p.validate());
    }

    #[test]
    fn empty_partition_is_unreplicated_and_balanced() {
        let p = EdgePartition::new(4, Vec::new(), vec![0; 4], 0, 0, 0);
        assert_eq!(p.replication_factor(), 1.0);
        assert_eq!(p.imbalance(), 0.0);
        assert!(p.validate());
    }
}
