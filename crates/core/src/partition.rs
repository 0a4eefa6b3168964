//! Partition assignments and balance bookkeeping.

use oms_graph::{CsrGraph, NodeWeight};

/// Identifier of a block (equivalently, of a processing element for process
/// mapping).
pub type BlockId = u32;

/// Sentinel value for "not yet assigned".
pub const UNASSIGNED: BlockId = BlockId::MAX;

/// The result of a (hierarchical or flat) partitioning run: a permanent
/// block assignment for every node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    k: u32,
    assignments: Vec<BlockId>,
    block_weights: Vec<NodeWeight>,
}

impl Partition {
    /// Creates a partition from raw assignments, recomputing block weights
    /// from the given per-node weights.
    ///
    /// # Panics
    ///
    /// Panics if an assignment is `≥ k` (unassigned sentinels are not
    /// allowed either) or if the weight slice length differs from the
    /// assignment length.
    pub fn from_assignments(
        k: u32,
        assignments: Vec<BlockId>,
        node_weights: &[NodeWeight],
    ) -> Self {
        assert_eq!(
            assignments.len(),
            node_weights.len(),
            "assignments and node weights must have the same length"
        );
        let mut block_weights = vec![0; k as usize];
        for (v, &b) in assignments.iter().enumerate() {
            assert!(b < k, "node {v} assigned to block {b} but k = {k}");
            block_weights[b as usize] += node_weights[v];
        }
        Partition {
            k,
            assignments,
            block_weights,
        }
    }

    /// Creates a partition from raw assignments and the block weights `c(V_i)`
    /// they add up to — what a sink that keeps one block id per node and its
    /// loads in `O(k)` state hands over without a walk over node weights.
    /// The caller vouches for the loads; [`Partition::validate`] checks them
    /// against node weights.
    ///
    /// # Panics
    ///
    /// Panics if `block_weights` does not hold `k` loads, and in debug builds
    /// if an assignment is `≥ k`.
    pub fn from_block_weights(
        k: u32,
        assignments: Vec<BlockId>,
        block_weights: Vec<NodeWeight>,
    ) -> Self {
        assert_eq!(block_weights.len(), k as usize, "one load per block");
        debug_assert!(
            assignments.iter().all(|&b| b < k),
            "every node assigned to a block below k = {k}"
        );
        Partition {
            k,
            assignments,
            block_weights,
        }
    }

    /// Creates a partition for a graph with unit node weights.
    pub fn from_assignments_unit(k: u32, assignments: Vec<BlockId>) -> Self {
        let weights = vec![1; assignments.len()];
        Partition::from_assignments(k, assignments, &weights)
    }

    /// Number of blocks `k`.
    pub fn num_blocks(&self) -> u32 {
        self.k
    }

    /// Number of nodes covered by this partition.
    pub fn num_nodes(&self) -> usize {
        self.assignments.len()
    }

    /// Block of node `v`.
    pub fn block_of(&self, v: oms_graph::NodeId) -> BlockId {
        self.assignments[v as usize]
    }

    /// The full assignment array.
    pub fn assignments(&self) -> &[BlockId] {
        &self.assignments
    }

    /// Weight `c(V_i)` of every block.
    pub fn block_weights(&self) -> &[NodeWeight] {
        &self.block_weights
    }

    /// Total node weight `c(V)` of the partitioned graph.
    pub fn total_weight(&self) -> NodeWeight {
        self.block_weights.iter().sum()
    }

    /// The heaviest block weight.
    pub fn max_block_weight(&self) -> NodeWeight {
        self.block_weights.iter().copied().max().unwrap_or(0)
    }

    /// The perfectly balanced block weight `⌈c(V)/k⌉`.
    pub fn average_block_weight(&self) -> f64 {
        self.total_weight() as f64 / self.k as f64
    }

    /// The balance constraint `L_max = ⌈(1 + ε)·c(V)/k⌉` for imbalance `ε`.
    pub fn capacity(total_weight: NodeWeight, k: u32, epsilon: f64) -> NodeWeight {
        (((1.0 + epsilon) * total_weight as f64) / k as f64).ceil() as NodeWeight
    }

    /// Measured imbalance: `max_i c(V_i) / (c(V)/k) − 1`.
    pub fn imbalance(&self) -> f64 {
        if self.total_weight() == 0 {
            return 0.0;
        }
        self.max_block_weight() as f64 / self.average_block_weight() - 1.0
    }

    /// `true` if every block respects the balance constraint for `epsilon`.
    pub fn is_balanced(&self, epsilon: f64) -> bool {
        let cap = Self::capacity(self.total_weight(), self.k, epsilon);
        self.block_weights.iter().all(|&w| w <= cap)
    }

    /// Number of non-empty blocks.
    pub fn used_blocks(&self) -> usize {
        self.block_weights.iter().filter(|&&w| w > 0).count()
    }

    /// Weight of the edges crossing blocks (the *edge-cut* objective).
    ///
    /// # Panics
    ///
    /// Panics if the graph has a different number of nodes than the
    /// partition.
    pub fn edge_cut(&self, graph: &CsrGraph) -> u64 {
        assert_eq!(graph.num_nodes(), self.num_nodes());
        let mut cut = 0u64;
        for (u, v, w) in graph.edges() {
            if self.assignments[u as usize] != self.assignments[v as usize] {
                cut += w;
            }
        }
        cut
    }

    /// Consistency check: every node assigned to a block `< k` and the cached
    /// block weights match the assignment.
    pub fn validate(&self, node_weights: &[NodeWeight]) -> bool {
        if node_weights.len() != self.assignments.len() {
            return false;
        }
        let mut weights = vec![0; self.k as usize];
        for (v, &b) in self.assignments.iter().enumerate() {
            if b >= self.k {
                return false;
            }
            weights[b as usize] += node_weights[v];
        }
        weights == self.block_weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_assignments_computes_block_weights() {
        let p = Partition::from_assignments(3, vec![0, 1, 1, 2, 2, 2], &[1, 1, 1, 1, 1, 1]);
        assert_eq!(p.block_weights(), &[1, 2, 3]);
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(p.total_weight(), 6);
        assert_eq!(p.max_block_weight(), 3);
        assert_eq!(p.used_blocks(), 3);
    }

    #[test]
    fn imbalance_of_perfectly_balanced_partition_is_zero() {
        let p = Partition::from_assignments_unit(2, vec![0, 0, 1, 1]);
        assert!(p.imbalance().abs() < 1e-12);
        assert!(p.is_balanced(0.0));
    }

    #[test]
    fn imbalance_of_skewed_partition() {
        let p = Partition::from_assignments_unit(2, vec![0, 0, 0, 0, 0, 1]);
        let expected = 5.0 / 3.0 - 1.0;
        assert!((p.imbalance() - expected).abs() < 1e-12);
        assert!(!p.is_balanced(0.03));
        assert!(p.is_balanced(0.7));
    }

    #[test]
    fn capacity_formula_matches_paper() {
        // L_max = ceil((1 + eps) * c(V) / k)
        assert_eq!(Partition::capacity(100, 4, 0.03), 26);
        assert_eq!(Partition::capacity(64, 64, 0.0), 1);
        assert_eq!(Partition::capacity(10, 3, 0.0), 4);
    }

    #[test]
    fn edge_cut_counts_crossing_edges_only() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let p = Partition::from_assignments_unit(2, vec![0, 0, 1, 1]);
        assert_eq!(p.edge_cut(&g), 2);
        let all_same = Partition::from_assignments_unit(2, vec![0, 0, 0, 0]);
        assert_eq!(all_same.edge_cut(&g), 0);
    }

    #[test]
    fn edge_cut_respects_edge_weights() {
        let mut b = oms_graph::GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 10).unwrap();
        b.add_weighted_edge(1, 2, 1).unwrap();
        let g = b.build();
        let p = Partition::from_assignments_unit(2, vec![0, 1, 1]);
        assert_eq!(p.edge_cut(&g), 10);
    }

    #[test]
    fn validate_detects_tampered_weights() {
        let p = Partition::from_assignments_unit(2, vec![0, 1]);
        assert!(p.validate(&[1, 1]));
        assert!(!p.validate(&[1, 2]));
        assert!(!p.validate(&[1]));
    }

    #[test]
    #[should_panic]
    fn out_of_range_assignment_panics() {
        Partition::from_assignments_unit(2, vec![0, 5]);
    }

    #[test]
    fn weighted_nodes_affect_balance() {
        let p = Partition::from_assignments(2, vec![0, 1], &[9, 1]);
        assert_eq!(p.block_weights(), &[9, 1]);
        assert!((p.imbalance() - 0.8).abs() < 1e-12);
    }
}
