//! The one-pass streaming model.
//!
//! In the one-pass model (Stanton & Kliot), nodes arrive one at a time
//! together with their adjacency lists and must be assigned to a block
//! immediately and permanently. The only global information a streaming
//! partitioner may rely on are the *counts* `n` and `m` and the total node
//! weight (needed by Fennel to compute its `α` and by every algorithm to
//! compute the balance constraint `L_max`).
//!
//! [`NodeStream`] captures exactly that contract. [`InMemoryStream`] streams
//! from RAM, as in the paper's running-time experiments; two more sources
//! stream files from disk: [`crate::io::DiskStream`] the binary
//! vertex-stream format, [`crate::io::MetisStream`] METIS text.
//!
//! ## Working memory
//!
//! A consumer of a [`NodeStream`] holds `O(n)` state of its own — for the
//! sinks of `oms-core`, the assignment array: one 4-byte block id per node,
//! every weight a node carries being handed over again by the stream — plus
//! **one batch** of the source and the fixed buffer a file source reads
//! through (64 KiB for the vertex-stream format, 1 MiB for METIS text). A
//! disk source closes a batch at `batch_size` nodes *or* once it holds
//! [`BATCH_ENTRY_BOUND`] adjacency entries, whichever comes first, so a
//! batch is at most `BATCH_ENTRY_BOUND + Δ` entries however the degrees are
//! distributed (RMAT-style inputs keep their hubs at the low ids: bounded by
//! node count alone, the first 4096-node batch of a scale-18 RMAT is
//! ≈ 14 MiB). That is the `O(n + batch)` contract the CLI's one-pass jobs
//! run under. [`collect_graph`] is the one place that trades it for a whole
//! [`CsrGraph`].

use crate::batch::NodeBatch;
use crate::{CsrGraph, EdgeWeight, GraphError, NodeId, NodeOrdering, NodeWeight, Result};

/// Default number of nodes per batch when a caller does not specify one.
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// Adjacency entries after which a disk source closes a batch early (see the
/// [module docs](self)): 64 Ki entries = 768 KiB of neighbor ids and edge
/// weights, the size of a default batch at average degree 16.
pub(crate) const BATCH_ENTRY_BOUND: usize = 1 << 16;

/// A node as it appears on the stream: its id, weight and adjacency list.
#[derive(Clone, Copy, Debug)]
pub struct StreamedNode<'a> {
    /// The node's id in the original graph.
    pub node: NodeId,
    /// The node's weight.
    pub weight: NodeWeight,
    /// Neighbors of the node (ids in the original graph).
    pub neighbors: &'a [NodeId],
    /// Weights of the incident edges, aligned with `neighbors`.
    pub edge_weights: &'a [EdgeWeight],
}

impl<'a> StreamedNode<'a> {
    /// Iterator over `(neighbor, edge weight)` pairs.
    pub fn neighbors_weighted(&self) -> impl Iterator<Item = (NodeId, EdgeWeight)> + 'a {
        self.neighbors
            .iter()
            .copied()
            .zip(self.edge_weights.iter().copied())
    }
}

/// A single pass over the nodes of a graph.
///
/// Implementors must visit every node exactly once per call to
/// [`NodeStream::for_each_node`]. Re-streaming algorithms simply call it
/// again.
///
/// A pass has two faces, and both are part of the contract:
///
/// * [`NodeStream::for_each_node`] is the **drive contract**: the drive loop
///   and the measurement walk in `oms-core`, the `e-*` edge jobs (each edge
///   at its smaller endpoint), [`collect_graph`] and the dynamic graph all
///   consume it. A memory source serves each node as
///   borrowed slices of its CSR arrays, so a per-node pass copies nothing —
///   routing those consumers through [`NodeBatch`]es instead would copy
///   12 bytes per adjacency entry on every in-memory pass.
/// * [`NodeStream::for_each_batch`] is the **bulk face**, for consumers that
///   need a run of nodes at once. It is the native face of the disk and METIS
///   sources, which decode straight into batch columns and serve
///   `for_each_node` by walking those batches.
///
/// The trait is dyn-compatible (`for_each_node` takes `&mut dyn FnMut`), so
/// heterogeneous frontends can pass `&mut dyn NodeStream` to the object-safe
/// partitioner API in `oms-core` without monomorphising per stream type.
pub trait NodeStream {
    /// Number of nodes `n` of the streamed graph.
    fn num_nodes(&self) -> usize;

    /// Number of undirected edges `m` of the streamed graph.
    fn num_edges(&self) -> usize;

    /// Total node weight `c(V)` of the streamed graph.
    fn total_node_weight(&self) -> NodeWeight;

    /// Rewinds the stream to its beginning, so the next
    /// [`NodeStream::for_each_node`] / [`NodeStream::for_each_batch`] call
    /// delivers a full pass starting from the first node.
    ///
    /// Multi-pass (restreaming) drivers call this between passes and rely on
    /// every pass delivering the same nodes, adjacency lists and weights in
    /// the same order (`oms-core` proves the symmetry of a stream that does
    /// not prove it itself on a run's first pass only — see
    /// [`NodeStream::proves_symmetry`]). In-memory sources rewind trivially
    /// (every pass starts from the front anyway);
    /// sources with external state re-open and re-validate it — e.g.
    /// [`crate::io::DiskStream`] re-opens the file and checks that its header
    /// still matches the counts announced when the stream was first opened,
    /// so a file that was truncated or swapped between passes fails with a
    /// typed error instead of silently streaming different data.
    fn reset(&mut self) -> Result<()> {
        Ok(())
    }

    /// Performs one pass, invoking `f` for every node in stream order.
    fn for_each_node(&mut self, f: &mut dyn FnMut(StreamedNode<'_>)) -> Result<()>;

    /// Performs one pass delivering the stream in [`NodeBatch`]es of up to
    /// `batch_size` nodes (in stream order; concatenating all batches yields
    /// exactly one full pass). A source may close a batch early — disk
    /// sources do at 64 Ki adjacency entries — so only the upper bound is
    /// part of the contract.
    ///
    /// The default implementation accumulates `for_each_node` output into a
    /// reused batch buffer; sources override it to fill batches directly
    /// ([`InMemoryStream`] from the CSR arrays, [`crate::io::DiskStream`] and
    /// [`crate::io::MetisStream`] from the file).
    fn for_each_batch(&mut self, batch_size: usize, f: &mut dyn FnMut(&NodeBatch)) -> Result<()> {
        let batch_size = batch_size.max(1);
        let mut batch = NodeBatch::new();
        self.for_each_node(&mut |node| {
            batch.push(node);
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
    ///
    /// Random-access drivers (the multilevel baseline) use this to skip
    /// materialisation; disk streams return `None` and are materialised on
    /// demand.
    fn as_graph(&self) -> Option<&CsrGraph> {
        None
    }

    /// Whether every pass proves its own adjacency lists symmetric and fails
    /// — through the [`NodeStream::for_each_node`] / [`NodeStream::for_each_batch`]
    /// that delivered them — when they are not (see [`SymmetryProof`]).
    ///
    /// A consumer that needs symmetric lists proves them itself unless this
    /// says the stream does, so each pass is proven exactly once: by
    /// [`crate::io::MetisStream`], which files every entry it parses, or
    /// else by the consumer. A stream may also prove its lists once, when
    /// it loads them, if they stay symmetric by construction from then on:
    /// `oms-dynamic`'s `DynamicGraph` proves its slab when it loads it
    /// ([`SymmetryProof::walk_pass`]) and keeps it symmetric through every
    /// mutation. The default is `false`, and a wrapper that could change the
    /// adjacency it passes on keeps it.
    fn proves_symmetry(&self) -> bool {
        false
    }
}

impl<S: NodeStream + ?Sized> NodeStream for &mut S {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    fn total_node_weight(&self) -> NodeWeight {
        (**self).total_node_weight()
    }

    fn reset(&mut self) -> Result<()> {
        (**self).reset()
    }

    fn for_each_node(&mut self, f: &mut dyn FnMut(StreamedNode<'_>)) -> Result<()> {
        (**self).for_each_node(f)
    }

    fn for_each_batch(&mut self, batch_size: usize, f: &mut dyn FnMut(&NodeBatch)) -> Result<()> {
        (**self).for_each_batch(batch_size, f)
    }

    fn as_graph(&self) -> Option<&CsrGraph> {
        (**self).as_graph()
    }

    fn proves_symmetry(&self) -> bool {
        (**self).proves_symmetry()
    }
}

/// Fills batches straight from a CSR graph for the node sequence `order`,
/// avoiding the per-node closure round trip of the default implementation.
fn batches_from_graph(
    graph: &CsrGraph,
    order: impl Iterator<Item = NodeId>,
    batch_size: usize,
    f: &mut dyn FnMut(&NodeBatch),
) {
    let batch_size = batch_size.max(1);
    let mut batch = NodeBatch::with_capacity(batch_size, 0);
    for v in order {
        batch.push_parts(
            v,
            graph.node_weight(v),
            graph.neighbors(v),
            graph.incident_edge_weights(v),
        );
        if batch.len() >= batch_size {
            f(&batch);
            batch.clear();
        }
    }
    if !batch.is_empty() {
        f(&batch);
    }
}

/// SplitMix64's finaliser: a bijective 64-bit mixer.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The proof that a pass over adjacency lists saw every edge listed from both
/// of its endpoints equally often with the same weight — what a walk that
/// counts each undirected edge once per endpoint, and halves, relies on.
///
/// Every non-loop entry is filed either as the *first* or as the *second*
/// sighting of its edge, by a rule that gives the two endpoints' entries of a
/// symmetric edge opposite sides: a wrapping sum adds a direction-independent
/// hash of the endpoints and the weight for a first sighting and subtracts it
/// for a second, and the entry weights seen either way are summed. Unlike an
/// XOR the sum counts multiplicities: an edge listed four times from one side
/// and never from the other does not cancel. Two rules are in use:
///
/// * [`SymmetryProof::sight`] takes the side from the caller — `oms-core`'s
///   in-pass tally files an entry as the second sighting when its other
///   endpoint was visited earlier in the pass;
/// * [`SymmetryProof::walk_entry`] needs no state per node: the entry from
///   the endpoint with the larger id is the second sighting.
///   [`SymmetryProof::walk_pass`] (behind [`collect_graph`] and the load of
///   `oms-dynamic`'s slab), [`MetisStream`](crate::io::MetisStream)'s
///   end-of-pass check, the `e-*` edge jobs' passes and `oms-core`'s
///   measurement walk prove with it.
///
/// Each pass is proven once. The stream proves it when it can — a
/// [`MetisStream`](crate::io::MetisStream) files every entry it parses and
/// says so through [`NodeStream::proves_symmetry`] — and otherwise the
/// consumer does; never both.
#[derive(Clone, Copy, Debug, Default)]
pub struct SymmetryProof {
    fingerprint: u64,
    first: EdgeWeight,
    second: EdgeWeight,
}

/// Direction-independent hash of one adjacency entry (one [`mix64`] over the
/// ordered endpoint pair and the weight): `u`'s entry for `v` and `v`'s entry
/// for `u` hash alike exactly when their weights agree.
#[inline]
fn entry_hash(u: NodeId, v: NodeId, w: EdgeWeight) -> u64 {
    let (lo, hi) = if u < v { (u, v) } else { (v, u) };
    mix64((((lo as u64) << 32) | hi as u64) ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl SymmetryProof {
    /// Files `this`'s entry for `other` (weight `w`) as the `second` sighting
    /// of its edge, or as the first.
    #[inline(always)]
    pub fn sight(&mut self, this: NodeId, other: NodeId, w: EdgeWeight, second: bool) {
        let hash = entry_hash(this, other, w);
        if second {
            self.fingerprint = self.fingerprint.wrapping_sub(hash);
            self.second = self.second.wrapping_add(w);
        } else {
            self.fingerprint = self.fingerprint.wrapping_add(hash);
            self.first = self.first.wrapping_add(w);
        }
    }

    /// Files `this`'s entry for `other` by id order (see the type docs); a
    /// self-loop entry is nobody's sighting.
    #[inline(always)]
    pub fn walk_entry(&mut self, this: NodeId, other: NodeId, w: EdgeWeight) {
        if other != this {
            self.sight(this, other, w, other < this);
        }
    }

    /// One pass of `stream` through `f`, every entry filed by
    /// [`SymmetryProof::walk_entry`] as it goes — unless the stream
    /// [proves its passes](NodeStream::proves_symmetry) itself, which fails
    /// the pass instead. The returned proof is for the caller to
    /// [`check`](SymmetryProof::check) once it has made its own checks of
    /// the pass (an empty one checks).
    pub fn walk_pass(
        stream: &mut dyn NodeStream,
        mut f: impl FnMut(StreamedNode<'_>),
    ) -> Result<SymmetryProof> {
        let prove = !stream.proves_symmetry();
        let mut proof = SymmetryProof::default();
        stream.for_each_node(&mut |node| {
            if prove {
                for (u, w) in node.neighbors_weighted() {
                    proof.walk_entry(node.node, u, w);
                }
            }
            f(node);
        })?;
        Ok(proof)
    }

    /// Adds the sightings of `other` (one node's, accumulated apart).
    #[inline(always)]
    pub fn merge(&mut self, other: SymmetryProof) {
        self.fingerprint = self.fingerprint.wrapping_add(other.fingerprint);
        self.first = self.first.wrapping_add(other.first);
        self.second = self.second.wrapping_add(other.second);
    }

    /// A typed [`GraphError::Invalid`] unless every first sighting met its
    /// second.
    pub fn check(&self) -> Result<()> {
        if self.fingerprint != 0 || self.first != self.second {
            return Err(GraphError::Invalid(
                "adjacency lists are not symmetric: some edge is not listed from both of its \
                 endpoints equally often with the same weight"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Collects one pass of `stream` into a [`CsrGraph`] — the single
/// materialisation path behind `read_stream_file`, `read_metis` and
/// `oms-core`'s `materialize_stream`.
///
/// Every array is sized once from the stream's announced `n` and `m`; nodes
/// are appended as they arrive. A stream that delivers its nodes out of id
/// order, or skips ids (a dynamic graph's dead nodes, which become isolated
/// unit-weight nodes), pays one extra scatter copy at the end. Neighbor ids
/// are range-checked, and the adjacency lists must be symmetric: a
/// [`CsrGraph`] counts each undirected edge once per endpoint, so a list
/// that holds an edge its other endpoint does not list would become a graph
/// whose edge count, cut and output files are wrong. Such a stream is a
/// typed error — the stream's own when it
/// [proves its passes](NodeStream::proves_symmetry), otherwise a
/// [`GraphError::Invalid`] from this pass's [`SymmetryProof::walk_pass`].
pub fn collect_graph(stream: &mut dyn NodeStream) -> Result<CsrGraph> {
    let n = stream.num_nodes();
    let entries = 2 * stream.num_edges();
    let mut ids: Vec<NodeId> = Vec::with_capacity(n);
    let mut nweights: Vec<NodeWeight> = Vec::with_capacity(n);
    let mut xadj: Vec<usize> = Vec::with_capacity(n + 1);
    xadj.push(0);
    let mut adjncy: Vec<NodeId> = Vec::with_capacity(entries);
    let mut eweights: Vec<EdgeWeight> = Vec::with_capacity(entries);
    let proof = SymmetryProof::walk_pass(stream, |node| {
        ids.push(node.node);
        nweights.push(node.weight);
        adjncy.extend_from_slice(node.neighbors);
        eweights.extend_from_slice(node.edge_weights);
        xadj.push(adjncy.len());
    })?;
    let out_of_range = |node: NodeId| GraphError::NodeOutOfRange {
        node: node as u64,
        num_nodes: n as u64,
    };
    if let Some(&u) = adjncy.iter().find(|&&u| u as usize >= n) {
        return Err(out_of_range(u));
    }
    if ids.len() == n && ids.iter().enumerate().all(|(i, &v)| v as usize == i) {
        proof.check()?;
        return Ok(CsrGraph::from_csr_unchecked(
            xadj, adjncy, eweights, nweights,
        ));
    }

    // Arrival order differs from id order: scatter into place.
    let mut arrival = vec![usize::MAX; n];
    for (i, &v) in ids.iter().enumerate() {
        let slot = arrival.get_mut(v as usize).ok_or(out_of_range(v))?;
        if *slot != usize::MAX {
            return Err(GraphError::Invalid(format!("node {v} streamed twice")));
        }
        *slot = i;
    }
    proof.check()?;
    let mut sorted_xadj = Vec::with_capacity(n + 1);
    sorted_xadj.push(0);
    let mut sorted_adjncy = Vec::with_capacity(adjncy.len());
    let mut sorted_eweights = Vec::with_capacity(adjncy.len());
    let mut sorted_nweights = Vec::with_capacity(n);
    for &i in &arrival {
        if i == usize::MAX {
            sorted_nweights.push(1);
        } else {
            sorted_nweights.push(nweights[i]);
            sorted_adjncy.extend_from_slice(&adjncy[xadj[i]..xadj[i + 1]]);
            sorted_eweights.extend_from_slice(&eweights[xadj[i]..xadj[i + 1]]);
        }
        sorted_xadj.push(sorted_adjncy.len());
    }
    Ok(CsrGraph::from_csr_unchecked(
        sorted_xadj,
        sorted_adjncy,
        sorted_eweights,
        sorted_nweights,
    ))
}

/// Streams a [`CsrGraph`] held in memory, optionally permuted.
///
/// This mirrors the paper's experimental setup: "we stream the input directly
/// from the internal memory to obtain clear running time comparisons".
pub struct InMemoryStream<'g> {
    graph: &'g CsrGraph,
    order: Option<Vec<NodeId>>,
}

impl<'g> InMemoryStream<'g> {
    /// Streams `graph` in natural order.
    pub fn new(graph: &'g CsrGraph) -> Self {
        InMemoryStream { graph, order: None }
    }

    /// Streams `graph` in the order produced by `ordering`.
    pub fn with_ordering(graph: &'g CsrGraph, ordering: NodeOrdering) -> Self {
        let order = match ordering {
            NodeOrdering::Natural => None,
            other => Some(other.permutation(graph)),
        };
        InMemoryStream { graph, order }
    }

    /// Streams `graph` in an explicitly given order.
    pub fn with_permutation(graph: &'g CsrGraph, permutation: Vec<NodeId>) -> Self {
        InMemoryStream {
            graph,
            order: Some(permutation),
        }
    }

    fn streamed(&self, v: NodeId) -> StreamedNode<'_> {
        StreamedNode {
            node: v,
            weight: self.graph.node_weight(v),
            neighbors: self.graph.neighbors(v),
            edge_weights: self.graph.incident_edge_weights(v),
        }
    }
}

impl<'g> NodeStream for InMemoryStream<'g> {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    fn total_node_weight(&self) -> NodeWeight {
        self.graph.total_node_weight()
    }

    fn as_graph(&self) -> Option<&CsrGraph> {
        Some(self.graph)
    }

    fn for_each_node(&mut self, f: &mut dyn FnMut(StreamedNode<'_>)) -> Result<()> {
        match &self.order {
            None => {
                for v in self.graph.nodes() {
                    f(self.streamed(v));
                }
            }
            Some(order) => {
                for &v in order {
                    f(self.streamed(v));
                }
            }
        }
        Ok(())
    }

    fn for_each_batch(&mut self, batch_size: usize, f: &mut dyn FnMut(&NodeBatch)) -> Result<()> {
        match &self.order {
            None => batches_from_graph(self.graph, self.graph.nodes(), batch_size, f),
            Some(order) => batches_from_graph(self.graph, order.iter().copied(), batch_size, f),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]).unwrap()
    }

    #[test]
    fn in_memory_stream_visits_all_nodes_in_order() {
        let g = sample();
        let mut stream = InMemoryStream::new(&g);
        let mut seen = Vec::new();
        stream
            .for_each_node(&mut |node| {
                seen.push(node.node);
                assert_eq!(node.neighbors.len(), g.degree(node.node));
            })
            .unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn stream_counts_match_graph() {
        let g = sample();
        let stream = InMemoryStream::new(&g);
        assert_eq!(stream.num_nodes(), 5);
        assert_eq!(stream.num_edges(), 6);
        assert_eq!(stream.total_node_weight(), 5);
    }

    #[test]
    fn permuted_stream_respects_permutation() {
        let g = sample();
        let perm = vec![4, 3, 2, 1, 0];
        let mut stream = InMemoryStream::with_permutation(&g, perm.clone());
        let mut seen = Vec::new();
        stream
            .for_each_node(&mut |node| seen.push(node.node))
            .unwrap();
        assert_eq!(seen, perm);
    }

    #[test]
    fn ordered_stream_with_random_order_is_a_permutation() {
        let g = sample();
        let mut stream = InMemoryStream::with_ordering(&g, NodeOrdering::Random(9));
        let mut seen = Vec::new();
        stream
            .for_each_node(&mut |node| seen.push(node.node))
            .unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn streamed_node_exposes_weighted_neighbors() {
        let g = sample();
        let mut stream = InMemoryStream::new(&g);
        stream
            .for_each_node(&mut |node| {
                if node.node == 1 {
                    let pairs: Vec<_> = node.neighbors_weighted().collect();
                    assert_eq!(pairs.len(), 3);
                    assert!(pairs.iter().all(|&(_, w)| w == 1));
                }
            })
            .unwrap();
    }

    /// Replays a full pass through `for_each_batch` and checks it matches the
    /// per-node pass exactly (ids, weights, adjacency, order).
    fn assert_batches_match_nodes<S: NodeStream>(stream: &mut S, batch_size: usize) {
        let mut per_node: Vec<(NodeId, NodeWeight, Vec<NodeId>, Vec<EdgeWeight>)> = Vec::new();
        stream
            .for_each_node(&mut |n| {
                per_node.push((
                    n.node,
                    n.weight,
                    n.neighbors.to_vec(),
                    n.edge_weights.to_vec(),
                ));
            })
            .unwrap();
        let mut batched = Vec::new();
        let mut sizes = Vec::new();
        stream
            .for_each_batch(batch_size, &mut |batch| {
                sizes.push(batch.len());
                for n in batch.iter() {
                    batched.push((
                        n.node,
                        n.weight,
                        n.neighbors.to_vec(),
                        n.edge_weights.to_vec(),
                    ));
                }
            })
            .unwrap();
        assert_eq!(per_node, batched);
        assert!(sizes.iter().all(|&s| s <= batch_size.max(1)));
    }

    #[test]
    fn in_memory_batches_match_per_node_pass() {
        let g = sample();
        for batch_size in [1, 2, 3, 100] {
            assert_batches_match_nodes(&mut InMemoryStream::new(&g), batch_size);
            assert_batches_match_nodes(
                &mut InMemoryStream::with_ordering(&g, NodeOrdering::Random(7)),
                batch_size,
            );
        }
    }

    /// A stream without a batch override and without `as_graph`, optionally
    /// withholding one node.
    struct Wrapper<'g>(InMemoryStream<'g>, Option<NodeId>);
    impl NodeStream for Wrapper<'_> {
        fn num_nodes(&self) -> usize {
            self.0.num_nodes()
        }
        fn num_edges(&self) -> usize {
            self.0.num_edges()
        }
        fn total_node_weight(&self) -> NodeWeight {
            self.0.total_node_weight()
        }
        fn for_each_node(&mut self, f: &mut dyn FnMut(StreamedNode<'_>)) -> Result<()> {
            let skipped = self.1;
            self.0.for_each_node(&mut |node| {
                if Some(node.node) != skipped {
                    f(node)
                }
            })
        }
    }

    #[test]
    fn collect_graph_rebuilds_the_graph_in_any_stream_order() {
        let mut b = crate::GraphBuilder::new(5);
        b.set_node_weight(2, 9).unwrap();
        for (u, v, w) in [(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 4, 7), (4, 0, 1)] {
            b.add_weighted_edge(u, v, w).unwrap();
        }
        let g = b.build();
        let natural = Wrapper(InMemoryStream::new(&g), None);
        let permuted = Wrapper(
            InMemoryStream::with_permutation(&g, vec![3, 0, 4, 2, 1]),
            None,
        );
        for mut stream in [natural, permuted] {
            assert_eq!(collect_graph(&mut stream).unwrap(), g);
        }
    }

    #[test]
    fn collect_graph_fills_skipped_ids_with_isolated_unit_nodes() {
        // An id that is never streamed (a dynamic graph's dead node, which
        // no live node lists) comes out isolated with unit weight, wherever
        // it sits in the id range.
        let g = CsrGraph::from_edges(6, &[(1, 3), (3, 4), (4, 1)]).unwrap();
        for skipped in [0, 2, 5] {
            let stream = &mut Wrapper(InMemoryStream::new(&g), Some(skipped));
            assert_eq!(collect_graph(stream).unwrap(), g, "node {skipped} skipped");
        }
    }

    #[test]
    fn collect_graph_rejects_ids_outside_the_announced_range() {
        struct Bogus(Vec<(NodeId, Vec<NodeId>)>);
        impl NodeStream for Bogus {
            fn num_nodes(&self) -> usize {
                2
            }
            fn num_edges(&self) -> usize {
                1
            }
            fn total_node_weight(&self) -> NodeWeight {
                2
            }
            fn for_each_node(&mut self, f: &mut dyn FnMut(StreamedNode<'_>)) -> Result<()> {
                for (node, neighbors) in &self.0 {
                    f(StreamedNode {
                        node: *node,
                        weight: 1,
                        neighbors,
                        edge_weights: &vec![1; neighbors.len()],
                    });
                }
                Ok(())
            }
        }
        for bogus in [
            vec![(0, vec![7]), (1, vec![0])], // neighbor id ≥ n
            vec![(1, vec![0]), (5, vec![1])], // node id ≥ n
        ] {
            let err = collect_graph(&mut Bogus(bogus)).unwrap_err();
            assert!(matches!(err, GraphError::NodeOutOfRange { .. }), "{err}");
        }
        let twice = collect_graph(&mut Bogus(vec![(1, vec![0]), (1, vec![0])])).unwrap_err();
        assert!(matches!(twice, GraphError::Invalid(_)), "{twice}");
    }

    /// A hand-written stream of adjacency lists, in id order.
    struct Lists(Vec<Vec<(NodeId, EdgeWeight)>>);

    impl NodeStream for Lists {
        fn num_nodes(&self) -> usize {
            self.0.len()
        }
        fn num_edges(&self) -> usize {
            self.0.iter().map(Vec::len).sum::<usize>() / 2
        }
        fn total_node_weight(&self) -> NodeWeight {
            self.0.len() as NodeWeight
        }
        fn for_each_node(&mut self, f: &mut dyn FnMut(StreamedNode<'_>)) -> Result<()> {
            for (v, list) in self.0.iter().enumerate() {
                let (neighbors, edge_weights): (Vec<_>, Vec<_>) = list.iter().copied().unzip();
                f(StreamedNode {
                    node: v as NodeId,
                    weight: 1,
                    neighbors: &neighbors,
                    edge_weights: &edge_weights,
                });
            }
            Ok(())
        }
    }

    #[test]
    fn collect_graph_refuses_adjacency_lists_that_are_not_symmetric() {
        let one_sided: [Vec<Vec<(NodeId, EdgeWeight)>>; 4] = [
            // Node 0 lists node 1 twice, node 1 lists nobody.
            vec![vec![(1, 1), (1, 1)], vec![]],
            // Four times from one side: an XOR of the entries cancels.
            vec![vec![(1, 1); 4], vec![], vec![]],
            vec![vec![(1, 2)], vec![(0, 3)]],
            vec![vec![(1, 1), (1, 1), (2, 1)], vec![(0, 1)], vec![(0, 1)]],
        ];
        for lists in one_sided {
            let err = collect_graph(&mut Lists(lists.clone())).unwrap_err();
            let refused =
                matches!(err, GraphError::Invalid(ref msg) if msg.contains("not symmetric"));
            assert!(refused, "{lists:?}: {err}");
        }
        // Multi-edges listed equally often from both sides, with their
        // weights, and self-loop entries are symmetric.
        let symmetric = vec![
            vec![(1, 2), (1, 5), (0, 4)],
            vec![(0, 5), (2, 1), (0, 2)],
            vec![(1, 1)],
        ];
        assert!(collect_graph(&mut Lists(symmetric)).is_ok());
    }

    #[test]
    fn default_for_each_batch_flushes_partial_tail() {
        // A stream type without a batch override exercises the default impl.
        let g = sample();
        let mut sizes = Vec::new();
        Wrapper(InMemoryStream::new(&g), None)
            .for_each_batch(2, &mut |batch| sizes.push(batch.len()))
            .unwrap();
        assert_eq!(sizes, vec![2, 2, 1]);
    }
}
