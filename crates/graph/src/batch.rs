//! Reusable batch buffers for the batched streaming pipeline.
//!
//! A [`NodeBatch`] holds a contiguous run of streamed nodes in
//! structure-of-arrays form: node ids, node weights and a CSR-style adjacency
//! (offsets into shared neighbor / edge-weight arrays). Batches are the unit
//! of work of the batch executor in `oms-core`: stream sources fill them,
//! partitioners consume them node by node or as a whole (the buffered
//! algorithms build model graphs out of them).
//!
//! The buffer is designed to be *recycled*: [`NodeBatch::clear`] resets the
//! logical content but keeps every allocation, so a steady-state pipeline
//! performs no allocation per batch.

use crate::stream::StreamedNode;
use crate::{EdgeWeight, NodeId, NodeWeight};

/// A batch of streamed nodes in structure-of-arrays layout.
#[derive(Clone, Debug, Default)]
pub struct NodeBatch {
    ids: Vec<NodeId>,
    weights: Vec<NodeWeight>,
    /// CSR-style offsets into `neighbors` / `edge_weights`; `offsets[i]..offsets[i+1]`
    /// is the adjacency of the batch's `i`-th node. Always `len() + 1` long.
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
    edge_weights: Vec<EdgeWeight>,
}

impl NodeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        NodeBatch {
            ids: Vec::new(),
            weights: Vec::new(),
            offsets: vec![0],
            neighbors: Vec::new(),
            edge_weights: Vec::new(),
        }
    }

    /// An empty batch with room for `nodes` nodes and `edge_entries`
    /// adjacency entries.
    pub(crate) fn with_capacity(nodes: usize, edge_entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        NodeBatch {
            ids: Vec::with_capacity(nodes),
            weights: Vec::with_capacity(nodes),
            offsets,
            neighbors: Vec::with_capacity(edge_entries),
            edge_weights: Vec::with_capacity(edge_entries),
        }
    }

    /// Number of nodes currently in the batch.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the batch holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Total number of adjacency entries in the batch (the batch's edge
    /// mass; each undirected edge with both endpoints in the batch counts
    /// twice).
    pub fn total_edge_entries(&self) -> usize {
        self.neighbors.len()
    }

    /// Removes all nodes but keeps the allocations for reuse.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.weights.clear();
        self.offsets.truncate(1);
        self.neighbors.clear();
        self.edge_weights.clear();
    }

    /// Appends a streamed node (copying its adjacency into the batch).
    pub fn push(&mut self, node: StreamedNode<'_>) {
        self.push_parts(node.node, node.weight, node.neighbors, node.edge_weights);
    }

    /// Appends a node given as raw parts. `neighbors` and `edge_weights`
    /// must be aligned.
    pub(crate) fn push_parts(
        &mut self,
        id: NodeId,
        weight: NodeWeight,
        neighbors: &[NodeId],
        edge_weights: &[EdgeWeight],
    ) {
        debug_assert_eq!(neighbors.len(), edge_weights.len());
        self.ids.push(id);
        self.weights.push(weight);
        self.neighbors.extend_from_slice(neighbors);
        self.edge_weights.extend_from_slice(edge_weights);
        self.offsets.push(self.neighbors.len());
    }

    /// Closes a node whose adjacency was appended straight to the neighbor
    /// and edge-weight columns (the METIS text decode path):
    /// records its id, weight and end offset.
    pub(crate) fn finish_node(&mut self, id: NodeId, weight: NodeWeight) {
        debug_assert_eq!(self.neighbors.len(), self.edge_weights.len());
        self.ids.push(id);
        self.weights.push(weight);
        self.offsets.push(self.neighbors.len());
    }

    /// Bulk-appends `count` nodes with consecutive ids starting at
    /// `first_id`. Only the id column is filled; the caller must follow up
    /// with matching weight / offset / adjacency appends (the sectioned
    /// stream-format decode path fills each column in one pass).
    pub(crate) fn extend_ids_sequential(&mut self, first_id: NodeId, count: usize) {
        self.ids.extend((0..count).map(|i| first_id + i as NodeId));
    }

    /// Appends `count` unit node weights.
    pub(crate) fn extend_unit_weights(&mut self, count: usize) {
        let new_len = self.weights.len() + count;
        self.weights.resize(new_len, 1);
    }

    /// Extends the CSR offsets column from per-node degrees, continuing from
    /// the current end of the adjacency arrays.
    pub(crate) fn extend_offsets_from_degrees(&mut self, degrees: &[u32]) {
        let mut end = *self.offsets.last().expect("offsets always non-empty");
        self.offsets.reserve(degrees.len());
        for &d in degrees {
            end += d as usize;
            self.offsets.push(end);
        }
    }

    /// Makes room for `entries` more adjacency entries in both adjacency
    /// columns, exactly: a decoder that knows the size of every batch before
    /// it decodes one grows the columns to the largest batch it has seen,
    /// never to twice a smaller one.
    pub(crate) fn reserve_entries_exact(&mut self, entries: usize) {
        self.neighbors.reserve_exact(entries);
        self.edge_weights.reserve_exact(entries);
    }

    /// Pads the edge-weight column with unit weights up to the neighbor
    /// column's length (decode of a file without edge weights).
    pub(crate) fn unit_fill_edge_weights(&mut self) {
        let n = self.neighbors.len();
        self.edge_weights.resize(n, 1);
    }

    /// Direct append access to the node-weight column (bulk decode).
    pub(crate) fn weights_vec_mut(&mut self) -> &mut Vec<NodeWeight> {
        &mut self.weights
    }

    /// Direct append access to the neighbor column (bulk decode).
    pub(crate) fn neighbors_vec_mut(&mut self) -> &mut Vec<NodeId> {
        &mut self.neighbors
    }

    /// Direct append access to the edge-weight column (bulk decode).
    pub(crate) fn edge_weights_vec_mut(&mut self) -> &mut Vec<EdgeWeight> {
        &mut self.edge_weights
    }

    /// Cheap structural invariant check for the bulk-append paths: every
    /// column consistent with the offsets table.
    pub(crate) fn debug_validate(&self) {
        debug_assert_eq!(self.offsets.len(), self.ids.len() + 1);
        debug_assert_eq!(self.weights.len(), self.ids.len());
        debug_assert_eq!(*self.offsets.last().unwrap(), self.neighbors.len());
        debug_assert_eq!(self.edge_weights.len(), self.neighbors.len());
    }

    /// The `i`-th node of the batch as a [`StreamedNode`] view.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> StreamedNode<'_> {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        StreamedNode {
            node: self.ids[i],
            weight: self.weights[i],
            neighbors: &self.neighbors[lo..hi],
            edge_weights: &self.edge_weights[lo..hi],
        }
    }

    /// Iterates over the batch's nodes in stream order.
    pub fn iter(&self) -> impl Iterator<Item = StreamedNode<'_>> {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The ids of the batch's nodes in stream order.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut batch = NodeBatch::new();
        batch.push_parts(7, 2, &[1, 2, 3], &[10, 20, 30]);
        batch.push_parts(8, 1, &[], &[]);
        batch.neighbors_vec_mut().push(4);
        batch.unit_fill_edge_weights();
        batch.finish_node(9, 5);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.total_edge_entries(), 4);

        let first = batch.get(0);
        assert_eq!(first.node, 7);
        assert_eq!(first.weight, 2);
        assert_eq!(first.neighbors, &[1, 2, 3]);
        assert_eq!(first.edge_weights, &[10, 20, 30]);

        let second = batch.get(1);
        assert!(second.neighbors.is_empty());

        let third = batch.get(2);
        assert_eq!(third.neighbors, &[4]);
        assert_eq!(third.edge_weights, &[1]);

        let ids: Vec<NodeId> = batch.iter().map(|n| n.node).collect();
        assert_eq!(ids, vec![7, 8, 9]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut batch = NodeBatch::with_capacity(4, 16);
        batch.push_parts(0, 1, &[1, 2], &[1, 1]);
        let neighbors_cap = 16;
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.total_edge_entries(), 0);
        assert!(batch.ids.capacity() >= 4);
        assert!(batch.neighbors.capacity() >= neighbors_cap);
        // Reusable after clearing.
        batch.push_parts(3, 1, &[0], &[9]);
        assert_eq!(batch.get(0).edge_weights, &[9]);
    }
}
