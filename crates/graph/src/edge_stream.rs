//! The streaming *edge*-partitioning model.
//!
//! Vertex-cut partitioners assign **edges** (not nodes) to blocks, so they
//! consume the graph as a stream of `(u, v, w)` triples. [`EdgeStream`]
//! captures that contract in the same spirit as [`crate::NodeStream`]: one
//! full pass per call, a [`EdgeStream::reset`] rewind for multi-pass
//! (re-streaming) drivers, and only the global counts `n` and `m` as up-front
//! knowledge.
//!
//! No new on-disk format is required: [`EdgesOf`] adapts *any*
//! [`crate::NodeStream`] — in-memory or the binary vertex-stream
//! files on disk (unit and weighted) — into an edge stream by
//! emitting each undirected edge exactly once, at the moment its smaller
//! endpoint is streamed. Because every node-stream source delivers the same
//! node order, the induced *edge order* is identical across sources too,
//! which is what makes byte-identical edge assignments across
//! memory/disk possible.

use crate::batch::NodeBatch;
use crate::stream::NodeStream;
use crate::{CsrGraph, EdgeWeight, NodeId, Result};

/// Default number of edges per batch when a caller does not specify one.
pub const DEFAULT_EDGE_BATCH_SIZE: usize = 8192;

/// An edge as it appears on the stream: both endpoints and the weight.
///
/// The adapter emits `u < v` (self loops cannot occur; the graph builder
/// drops them), and each undirected edge appears exactly once per pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamedEdge {
    /// The smaller endpoint.
    pub u: NodeId,
    /// The larger endpoint.
    pub v: NodeId,
    /// Weight of the edge.
    pub weight: EdgeWeight,
}

/// A reusable structure-of-arrays batch of streamed edges.
#[derive(Clone, Debug, Default)]
pub struct EdgeBatch {
    us: Vec<NodeId>,
    vs: Vec<NodeId>,
    weights: Vec<EdgeWeight>,
}

impl EdgeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        EdgeBatch::default()
    }

    /// An empty batch with room for `capacity` edges.
    pub fn with_capacity(capacity: usize) -> Self {
        EdgeBatch {
            us: Vec::with_capacity(capacity),
            vs: Vec::with_capacity(capacity),
            weights: Vec::with_capacity(capacity),
        }
    }

    /// Number of edges currently in the batch.
    pub fn len(&self) -> usize {
        self.us.len()
    }

    /// Whether the batch holds no edges.
    pub fn is_empty(&self) -> bool {
        self.us.is_empty()
    }

    /// Appends one edge.
    pub fn push(&mut self, edge: StreamedEdge) {
        self.us.push(edge.u);
        self.vs.push(edge.v);
        self.weights.push(edge.weight);
    }

    /// Removes all edges, keeping the allocations.
    pub fn clear(&mut self) {
        self.us.clear();
        self.vs.clear();
        self.weights.clear();
    }

    /// The `i`-th edge of the batch.
    pub fn get(&self, i: usize) -> StreamedEdge {
        StreamedEdge {
            u: self.us[i],
            v: self.vs[i],
            weight: self.weights[i],
        }
    }

    /// Iterator over the edges of the batch.
    pub fn iter(&self) -> impl Iterator<Item = StreamedEdge> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// A single pass over the undirected edges of a graph.
///
/// Implementors must visit every edge exactly once per call to
/// [`EdgeStream::for_each_edge`], in an order that is stable across passes
/// (multi-pass drivers address edges by their stream position). The trait is
/// dyn-compatible, mirroring [`crate::NodeStream`].
pub trait EdgeStream {
    /// Number of nodes `n` of the streamed graph.
    fn num_nodes(&self) -> usize;

    /// Number of undirected edges `m` of the streamed graph.
    fn num_edges(&self) -> usize;

    /// Rewinds the stream so the next [`EdgeStream::for_each_edge`] call
    /// delivers a full pass starting from the first edge. Sources with
    /// external state re-open and re-validate it (see
    /// [`crate::NodeStream::reset`]).
    fn reset(&mut self) -> Result<()> {
        Ok(())
    }

    /// Performs one pass, invoking `f` for every edge in stream order.
    fn for_each_edge(&mut self, f: &mut dyn FnMut(StreamedEdge)) -> Result<()>;

    /// Performs one pass delivering the stream in [`EdgeBatch`]es of up to
    /// `batch_size` edges (concatenating all batches yields exactly one
    /// full pass).
    fn for_each_edge_batch(
        &mut self,
        batch_size: usize,
        f: &mut dyn FnMut(&EdgeBatch),
    ) -> Result<()> {
        let batch_size = batch_size.max(1);
        let mut batch = EdgeBatch::with_capacity(batch_size);
        self.for_each_edge(&mut |edge| {
            batch.push(edge);
            if batch.len() >= batch_size {
                f(&batch);
                batch.clear();
            }
        })?;
        if !batch.is_empty() {
            f(&batch);
        }
        Ok(())
    }

    /// The in-memory graph behind this stream, when there is one.
    fn as_graph(&self) -> Option<&CsrGraph> {
        None
    }
}

impl<E: EdgeStream + ?Sized> EdgeStream for &mut E {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    fn reset(&mut self) -> Result<()> {
        (**self).reset()
    }

    fn for_each_edge(&mut self, f: &mut dyn FnMut(StreamedEdge)) -> Result<()> {
        (**self).for_each_edge(f)
    }

    fn for_each_edge_batch(
        &mut self,
        batch_size: usize,
        f: &mut dyn FnMut(&EdgeBatch),
    ) -> Result<()> {
        (**self).for_each_edge_batch(batch_size, f)
    }

    fn as_graph(&self) -> Option<&CsrGraph> {
        (**self).as_graph()
    }
}

/// Adapts any [`NodeStream`] into an [`EdgeStream`].
///
/// A node stream delivers every undirected edge twice (once from each
/// endpoint's adjacency list); the adapter emits it exactly once, at the
/// moment the **smaller** endpoint is streamed. The resulting edge order is
/// therefore a pure function of the node order — identical across every
/// source that streams the same node sequence — and rewinding the adapter
/// rewinds the wrapped source, so multi-pass edge partitioners inherit the
/// disk streams' re-open-and-revalidate discipline for free.
pub struct EdgesOf<S>(pub S);

impl<S: NodeStream> EdgeStream for EdgesOf<S> {
    fn num_nodes(&self) -> usize {
        self.0.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.0.num_edges()
    }

    fn reset(&mut self) -> Result<()> {
        self.0.reset()
    }

    fn for_each_edge(&mut self, f: &mut dyn FnMut(StreamedEdge)) -> Result<()> {
        // Drive the batch-level reader rather than the per-node adapter, so
        // disk sources decode whole batches (one bulk copy per section)
        // before edges are emitted.
        self.0
            .for_each_batch(crate::DEFAULT_BATCH_SIZE, &mut |nodes: &NodeBatch| {
                for node in nodes.iter() {
                    let u = node.node;
                    for (v, w) in node.neighbors_weighted() {
                        if u < v {
                            f(StreamedEdge { u, v, weight: w });
                        }
                    }
                }
            })
    }

    fn for_each_edge_batch(
        &mut self,
        batch_size: usize,
        f: &mut dyn FnMut(&EdgeBatch),
    ) -> Result<()> {
        // Fill batches straight from the node batches, skipping the
        // per-edge closure round trip of the default implementation.
        let batch_size = batch_size.max(1);
        let mut batch = EdgeBatch::with_capacity(batch_size);
        self.0
            .for_each_batch(crate::DEFAULT_BATCH_SIZE, &mut |nodes: &NodeBatch| {
                for node in nodes.iter() {
                    let u = node.node;
                    for (v, w) in node.neighbors_weighted() {
                        if u < v {
                            batch.push(StreamedEdge { u, v, weight: w });
                            if batch.len() >= batch_size {
                                f(&batch);
                                batch.clear();
                            }
                        }
                    }
                }
            })?;
        if !batch.is_empty() {
            f(&batch);
        }
        Ok(())
    }

    fn as_graph(&self) -> Option<&CsrGraph> {
        self.0.as_graph()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InMemoryStream, NodeOrdering};

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]).unwrap()
    }

    fn collect_edges(stream: &mut dyn EdgeStream) -> Vec<(NodeId, NodeId, EdgeWeight)> {
        let mut edges = Vec::new();
        stream
            .for_each_edge(&mut |e| edges.push((e.u, e.v, e.weight)))
            .unwrap();
        edges
    }

    #[test]
    fn adapter_emits_every_edge_exactly_once() {
        let g = sample();
        let mut stream = EdgesOf(InMemoryStream::new(&g));
        let edges = collect_edges(&mut stream);
        assert_eq!(edges.len(), g.num_edges());
        let from_graph: Vec<_> = g.edges().collect();
        assert_eq!(edges, from_graph, "natural order matches CsrGraph::edges");
    }

    #[test]
    fn adapter_counts_match_graph() {
        let g = sample();
        let stream = EdgesOf(InMemoryStream::new(&g));
        assert_eq!(stream.num_nodes(), 5);
        assert_eq!(stream.num_edges(), 6);
        assert!(stream.as_graph().is_some());
    }

    #[test]
    fn permuted_node_order_still_covers_every_edge_once() {
        let g = sample();
        let mut stream = EdgesOf(InMemoryStream::with_ordering(&g, NodeOrdering::Random(3)));
        let mut edges = collect_edges(&mut stream);
        edges.sort_unstable();
        let mut expected: Vec<_> = g.edges().collect();
        expected.sort_unstable();
        assert_eq!(edges, expected);
    }

    #[test]
    fn reset_allows_a_second_identical_pass() {
        let g = sample();
        let mut stream = EdgesOf(InMemoryStream::new(&g));
        let first = collect_edges(&mut stream);
        stream.reset().unwrap();
        let second = collect_edges(&mut stream);
        assert_eq!(first, second);
    }

    #[test]
    fn edge_batches_match_per_edge_pass() {
        let g = sample();
        for batch_size in [1, 2, 3, 100] {
            let mut stream = EdgesOf(InMemoryStream::new(&g));
            let per_edge = collect_edges(&mut stream);
            stream.reset().unwrap();
            let mut batched = Vec::new();
            let mut sizes = Vec::new();
            stream
                .for_each_edge_batch(batch_size, &mut |batch| {
                    sizes.push(batch.len());
                    batched.extend(batch.iter().map(|e| (e.u, e.v, e.weight)));
                })
                .unwrap();
            assert_eq!(per_edge, batched, "batch size {batch_size}");
            assert!(sizes.iter().all(|&s| s <= batch_size));
        }
    }

    #[test]
    fn default_batch_impl_flushes_partial_tail() {
        // A thin wrapper without a batch override exercises the default.
        struct Wrapper<'g>(EdgesOf<InMemoryStream<'g>>);
        impl EdgeStream for Wrapper<'_> {
            fn num_nodes(&self) -> usize {
                self.0.num_nodes()
            }
            fn num_edges(&self) -> usize {
                self.0.num_edges()
            }
            fn for_each_edge(&mut self, f: &mut dyn FnMut(StreamedEdge)) -> Result<()> {
                self.0.for_each_edge(f)
            }
        }
        let g = sample();
        let mut sizes = Vec::new();
        Wrapper(EdgesOf(InMemoryStream::new(&g)))
            .for_each_edge_batch(4, &mut |batch| sizes.push(batch.len()))
            .unwrap();
        assert_eq!(sizes, vec![4, 2]);
    }

    #[test]
    fn weighted_edges_carry_their_weights() {
        let mut b = crate::GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 7).unwrap();
        b.add_weighted_edge(1, 2, 9).unwrap();
        let g = b.build();
        let mut stream = EdgesOf(InMemoryStream::new(&g));
        let edges = collect_edges(&mut stream);
        assert_eq!(edges, vec![(0, 1, 7), (1, 2, 9)]);
    }
}
