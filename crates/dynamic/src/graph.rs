//! The mutable adjacency structure behind a maintained partition.
//!
//! [`DynamicGraph`] is an adjacency-list graph that absorbs
//! [`Delta`](oms_graph::Delta)s: edges and nodes come and go, the id space
//! only ever grows (a deleted node's id stays allocated but *dead*), and the
//! live counts `n`, `m` and `c(V)` are maintained incrementally. It
//! implements [`NodeStream`] over the live nodes, so the restreaming engine
//! of `oms-core` — and any registered streaming algorithm — can run over the
//! current graph state at any time.
//!
//! Conventions:
//!
//! * [`NodeStream::num_nodes`] reports the *id-space* size (the length every
//!   assignment array must have), while only live nodes are streamed. Dead
//!   ids therefore keep the sentinel assignment and, per
//!   [`measure_pass`](oms_core::measure_pass)'s contract, never contribute
//!   to cut or balance because no live node is adjacent to them.
//! * Every mutation validates its preconditions and fails with a typed
//!   [`GraphError`] — a delta stream that inserts an existing edge or
//!   touches a dead node is corrupt and must not be half-applied.
//! * The slab is symmetric: [`DynamicGraph::from_stream`] proves the
//!   streamed lists symmetric (unless the source proves its passes itself)
//!   and refuses one-sided ones, and every mutation writes or removes both
//!   entries of an edge, with the same weight. So the graph
//!   [proves its own passes](NodeStream::proves_symmetry), and nothing that
//!   streams it proves them again.
//!
//! # Layout: one pooled slab
//!
//! The graph is one `O(n + m)` copy: every adjacency list is a *span* of
//! the neighbour-id pool, and each id owns one 16-byte span
//! `{ start, len, cap }`. [`DynamicGraph::from_stream`] appends each
//! streamed list at the pool's tail with `cap = len`, so the pool holds
//! exactly the entries the stream delivered.
//!
//! A *unit* slab — every edge weight 1, as on an unweighted input — stores
//! no weights: 4 B per adjacency entry. [`DynamicGraph::neighbors`] serves
//! its weights as a prefix of one shared buffer of 1s, at least as long as
//! the longest span, which grows only when a span outgrows it. The first
//! weight that is not 1, streamed or inserted, materialises a second pool
//! indexed like the first (filled with 1s, then 12 B per entry), and the
//! slab stays weighted from then on. Every rule below moves a weighted
//! slab's weights along with its ids.
//!
//! * An insert into a span with room writes at `start + len`. A full span
//!   grows to `len + 1 + len/8`: in place when it ends at the pool's tail,
//!   else by moving to the tail, which abandons its old slots.
//! * A delete swap-removes inside the span, so every list keeps the order
//!   a `Vec` with `push` / `swap_remove` would give it (the order repair
//!   visits neighbours in). A deleted node abandons its whole span.
//! * Once the abandoned slots exceed 1/8 of the pool, the live spans slide
//!   to the front in pool order, each keeping its `cap`, and the pool is
//!   truncated: compaction needs no second pool.

use oms_graph::{
    CsrGraph, EdgeWeight, GraphError, NodeId, NodeStream, NodeWeight, Result, StreamedNode,
    SymmetryProof,
};
use std::ops::Range;

/// One id's slice of the pools: `len` live entries from `start`, room for
/// `cap`.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    start: usize,
    len: u32,
    cap: u32,
}

impl Span {
    fn live(self) -> Range<usize> {
        self.start..self.start + self.len as usize
    }
}

/// A mutable graph under churn: one pooled adjacency slab plus live/dead
/// marks. Each id owns a span of the neighbour-id pool, and of an aligned
/// edge-weight pool once some weight is not 1; a full span grows to
/// `len + 1 + len/8`, in place at the pool's tail or by moving there, and
/// the pools compact in place once more than 1/8 of them is abandoned. The
/// docs of the `graph` module give the details.
///
/// See the [crate docs](crate) for the id-space conventions.
#[derive(Clone, Debug, Default)]
pub struct DynamicGraph {
    spans: Vec<Span>,
    nbrs: Vec<NodeId>,
    /// Edge weights aligned with `nbrs` once `weighted`; empty before.
    wts: Vec<EdgeWeight>,
    /// Whether some edge weight has not been 1, i.e. `wts` is in use.
    weighted: bool,
    /// A unit slab's weights: 1s, at least as many as the longest span.
    ones: Vec<EdgeWeight>,
    /// Pool slots no span owns (left behind by moves and node deletes).
    abandoned: usize,
    node_weights: Vec<NodeWeight>,
    alive: Vec<bool>,
    live_nodes: usize,
    /// Live adjacency entries: two per edge, one per listed self-loop, so
    /// half of them is the edge count a stream's header gives.
    entries: usize,
    total_weight: NodeWeight,
}

fn invalid(msg: impl Into<String>) -> GraphError {
    GraphError::Invalid(msg.into())
}

impl DynamicGraph {
    /// An empty graph.
    pub fn new() -> Self {
        DynamicGraph::default()
    }

    /// Materialises the current state of `stream` (one full pass) into the
    /// slab. Every streamed node starts live. Lists that are not symmetric
    /// are a typed error: the pass is proven here unless the stream proves
    /// it itself.
    pub fn from_stream(stream: &mut dyn NodeStream) -> Result<Self> {
        let n = stream.num_nodes();
        let mut g = DynamicGraph {
            spans: vec![Span::default(); n],
            node_weights: vec![0; n],
            alive: vec![true; n],
            live_nodes: n,
            total_weight: stream.total_node_weight(),
            ..DynamicGraph::default()
        };
        let (mut too_long, mut longest) = (None, 0);
        stream.reset()?;
        let proof = SymmetryProof::walk_pass(stream, |node| {
            let v = node.node as usize;
            let Ok(len) = u32::try_from(node.neighbors.len()) else {
                too_long.get_or_insert(node.node);
                return;
            };
            g.node_weights[v] = node.weight;
            // An empty list owns no slots and keeps the default span, which
            // compaction never has to move.
            if len > 0 {
                g.spans[v] = Span {
                    start: g.nbrs.len(),
                    len,
                    cap: len,
                };
            }
            longest = longest.max(len as usize);
            g.entries += len as usize;
            if !g.weighted && node.edge_weights.iter().any(|&w| w != 1) {
                g.weigh();
            }
            g.nbrs.extend_from_slice(node.neighbors);
            if g.weighted {
                g.wts.extend_from_slice(node.edge_weights);
            }
        })?;
        if let Some(v) = too_long {
            return Err(invalid(format!("node {v} has 2^32 or more neighbors")));
        }
        proof.check()?;
        if !g.weighted {
            g.ones = vec![1; longest];
        }
        Ok(g)
    }

    /// Materialises a [`CsrGraph`].
    pub fn from_graph(graph: &CsrGraph) -> Self {
        let mut stream = oms_graph::InMemoryStream::new(graph);
        DynamicGraph::from_stream(&mut stream)
            .expect("a CsrGraph's lists are symmetric, and in-memory streams cannot fail")
    }

    /// Size of the id space (live and dead ids). Assignment arrays over this
    /// graph must have exactly this length.
    pub fn id_space(&self) -> usize {
        self.spans.len()
    }

    /// Number of live nodes.
    pub fn num_live_nodes(&self) -> usize {
        self.live_nodes
    }

    /// Number of live undirected edges, a self-loop counting as half of
    /// one (rounded down), as in a stream's header.
    pub fn num_live_edges(&self) -> usize {
        self.entries / 2
    }

    /// Total weight of the live nodes.
    pub fn live_weight(&self) -> NodeWeight {
        self.total_weight
    }

    /// Whether `v` is inside the id space and live.
    pub fn is_alive(&self, v: NodeId) -> bool {
        self.alive.get(v as usize).copied().unwrap_or(false)
    }

    /// Weight of node `v` (0 for dead ids).
    pub fn node_weight(&self, v: NodeId) -> NodeWeight {
        self.node_weights.get(v as usize).copied().unwrap_or(0)
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.spans
            .get(v as usize)
            .map_or(0, |span| span.len as usize)
    }

    /// Adjacency of `v`: neighbor ids and the aligned edge weights.
    pub fn neighbors(&self, v: NodeId) -> (&[NodeId], &[EdgeWeight]) {
        let live = self.spans[v as usize].live();
        let wts = if self.weighted {
            &self.wts[live.clone()]
        } else {
            &self.ones[..live.len()]
        };
        (&self.nbrs[live], wts)
    }

    /// Reads ahead of the work on `nodes`: first the span of every node,
    /// then each node's first adjacency entry and its weight, and returns a
    /// value folded from all of them, which the caller hands to
    /// [`std::hint::black_box`] so the loads stay. No load in either run
    /// depends on another of the same run, so the core keeps many misses
    /// in flight at once where the work that follows would take them one
    /// dependent chain (span, adjacency line, weight) at a time.
    ///
    /// It only reads, and tolerates any id: an id past the id space is
    /// skipped, and a dead id or an empty span has no adjacency entry to
    /// read. So a caller may pass ids no mutation has validated yet — even
    /// a valid trace does, when an edge delta names a node that a node
    /// insert earlier in the same look-ahead window creates.
    pub(crate) fn read_ahead(&self, nodes: &[NodeId]) -> u64 {
        let mut folded = 0u64;
        for &v in nodes {
            if let Some(span) = self.spans.get(v as usize) {
                folded = folded.wrapping_add(span.start as u64);
            }
        }
        for &v in nodes {
            let Some(span) = self.spans.get(v as usize) else {
                continue;
            };
            if span.len > 0 {
                let first = self.nbrs.get(span.start).copied().unwrap_or(0);
                folded = folded.wrapping_add(first as u64);
            }
            let weight = self.node_weights.get(v as usize).copied().unwrap_or(0);
            folded = folded.wrapping_add(weight);
        }
        folded
    }

    /// Materialises the weight pool, one 1 per pool slot so far; the slab
    /// is weighted from then on.
    fn weigh(&mut self) {
        if !self.weighted {
            self.weighted = true;
            self.wts = vec![1; self.nbrs.len()];
            self.ones = Vec::new();
        }
    }

    /// The [`StreamedNode`] view of live node `v`.
    pub fn streamed(&self, v: NodeId) -> StreamedNode<'_> {
        let (neighbors, edge_weights) = self.neighbors(v);
        StreamedNode {
            node: v,
            weight: self.node_weights[v as usize],
            neighbors,
            edge_weights,
        }
    }

    /// Whether the live edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.spans
            .get(u as usize)
            .is_some_and(|span| self.nbrs[span.live()].contains(&v))
    }

    fn require_alive(&self, v: NodeId) -> Result<()> {
        if !self.is_alive(v) {
            return Err(invalid(format!(
                "node {v} is not alive (id space {})",
                self.id_space()
            )));
        }
        Ok(())
    }

    /// Inserts the undirected edge `{u, v}` with weight `w`.
    ///
    /// Fails on self-loops, zero weights, dead endpoints and duplicate
    /// edges.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, w: EdgeWeight) -> Result<()> {
        if u == v {
            return Err(invalid(format!("self-loop insert on node {u}")));
        }
        if w == 0 {
            return Err(invalid(format!("zero-weight edge {u}-{v}")));
        }
        self.require_alive(u)?;
        self.require_alive(v)?;
        if self.has_edge(u, v) {
            return Err(invalid(format!("edge {u}-{v} already exists")));
        }
        self.push(u, v, w);
        self.push(v, u, w);
        self.entries += 2;
        Ok(())
    }

    /// Appends `(to, w)` to `from`'s list, growing its span when full; a
    /// weight that is not 1 makes the slab weighted.
    fn push(&mut self, from: NodeId, to: NodeId, w: EdgeWeight) {
        if w != 1 {
            self.weigh();
        }
        let slot = from as usize;
        if self.spans[slot].len == self.spans[slot].cap {
            self.grow(slot);
        }
        let span = &mut self.spans[slot];
        let at = span.start + span.len as usize;
        span.len += 1;
        self.nbrs[at] = to;
        if self.weighted {
            self.wts[at] = w;
        } else if span.len as usize > self.ones.len() {
            self.ones.push(1);
        }
    }

    /// Gives the full span of `slot` room for `len + 1 + len/8` entries: in
    /// place at the pool's tail, else by moving it there.
    fn grow(&mut self, slot: usize) {
        let Span { start, len, cap } = self.spans[slot];
        let new_cap = u32::try_from(len as usize + 1 + len as usize / 8).unwrap_or(u32::MAX);
        let tail = self.nbrs.len();
        if start + cap as usize == tail {
            self.nbrs.resize(start + new_cap as usize, 0);
            if self.weighted {
                self.wts.resize(start + new_cap as usize, 0);
            }
            self.spans[slot].cap = new_cap;
            return;
        }
        self.nbrs.extend_from_within(start..start + len as usize);
        self.nbrs.resize(tail + new_cap as usize, 0);
        if self.weighted {
            self.wts.extend_from_within(start..start + len as usize);
            self.wts.resize(tail + new_cap as usize, 0);
        }
        self.spans[slot] = Span {
            start: tail,
            len,
            cap: new_cap,
        };
        self.abandon(cap as usize);
    }

    /// Records `slots` more abandoned pool slots and compacts the pool once
    /// they exceed 1/8 of it.
    fn abandon(&mut self, slots: usize) {
        self.abandoned += slots;
        if self.abandoned * 8 > self.nbrs.len() {
            self.compact();
        }
    }

    /// Slides every span with room to the front, in pool order, keeping its
    /// `cap`; the pool then holds no abandoned slot.
    fn compact(&mut self) {
        let mut order: Vec<NodeId> = (0..self.spans.len() as NodeId)
            .filter(|&v| self.spans[v as usize].cap > 0)
            .collect();
        order.sort_unstable_by_key(|&v| self.spans[v as usize].start);
        let mut to = 0;
        for v in order {
            let span = &mut self.spans[v as usize];
            let live = span.live();
            span.start = to;
            to += span.cap as usize;
            self.nbrs.copy_within(live.clone(), span.start);
            if self.weighted {
                self.wts.copy_within(live, span.start);
            }
        }
        self.nbrs.truncate(to);
        self.wts.truncate(to);
        self.abandoned = 0;
    }

    /// Swap-removes `to` from `from`'s list, returning the edge's weight:
    /// the first entry for `to`, or with `weight`, the first of that weight
    /// — the far side of an entry already removed, which keeps the slab
    /// symmetric when an edge is listed more than once.
    fn detach(
        &mut self,
        from: NodeId,
        to: NodeId,
        weight: Option<EdgeWeight>,
    ) -> Option<EdgeWeight> {
        let live = self.spans[from as usize].live();
        let nbrs = &self.nbrs[live.clone()];
        let offset = match weight.filter(|_| self.weighted) {
            None => nbrs.iter().position(|&x| x == to),
            Some(w) => {
                let mut entries = nbrs.iter().zip(&self.wts[live.clone()]);
                entries.position(|(&x, &y)| (x, y) == (to, w))
            }
        };
        let pos = live.start + offset?;
        let last = live.end - 1;
        self.nbrs[pos] = self.nbrs[last];
        self.spans[from as usize].len -= 1;
        if !self.weighted {
            return Some(1);
        }
        let w = self.wts[pos];
        self.wts[pos] = self.wts[last];
        Some(w)
    }

    /// Deletes the undirected edge `{u, v}`, returning its weight.
    ///
    /// Fails on self-loops (a loop the base graph carried goes with its
    /// node), dead endpoints and absent edges.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeWeight> {
        if u == v {
            return Err(invalid(format!("self-loop delete on node {u}")));
        }
        self.require_alive(u)?;
        self.require_alive(v)?;
        let Some(w) = self.detach(u, v, None) else {
            return Err(invalid(format!("edge {u}-{v} does not exist")));
        };
        self.detach(v, u, Some(w))
            .expect("adjacency lists out of sync (edge present on one side only)");
        self.entries -= 2;
        Ok(w)
    }

    /// Inserts node `id` with `weight`: either a dead id, which is revived
    /// as a fresh isolated node, or exactly [`DynamicGraph::id_space`],
    /// which grows the id space by one. Any larger id is an error — it would
    /// size every per-id column from one line of the delta trace.
    pub fn insert_node(&mut self, id: NodeId, weight: NodeWeight) -> Result<()> {
        if weight == 0 {
            return Err(invalid(format!("zero-weight node {id}")));
        }
        let slot = id as usize;
        if slot < self.id_space() && self.alive[slot] {
            return Err(invalid(format!("node {id} is already alive")));
        }
        if slot > self.id_space() {
            return Err(invalid(format!(
                "node insert {id} skips ids: a new node must revive a dead id or take the \
                 next fresh one, {}",
                self.id_space()
            )));
        }
        if slot == self.id_space() {
            self.spans.push(Span::default());
            self.node_weights.push(0);
            self.alive.push(false);
        }
        self.alive[slot] = true;
        self.node_weights[slot] = weight;
        self.total_weight += weight;
        self.live_nodes += 1;
        Ok(())
    }

    /// Deletes node `id` with all incident edges. `removed` is cleared and
    /// receives the removed `(neighbor, edge weight)` pairs, in list order,
    /// so the caller can adjust derived state (the cut, the repair seeds) —
    /// into a buffer it reuses from delete to delete.
    pub fn delete_node(
        &mut self,
        id: NodeId,
        removed: &mut Vec<(NodeId, EdgeWeight)>,
    ) -> Result<()> {
        self.require_alive(id)?;
        let slot = id as usize;
        let span = self.spans[slot];
        let (nbrs, wts) = self.neighbors(id);
        removed.clear();
        removed.extend(nbrs.iter().copied().zip(wts.iter().copied()));
        for &(nbr, w) in removed.iter() {
            self.detach(nbr, id, Some(w))
                .expect("adjacency lists out of sync (edge present on one side only)");
        }
        self.spans[slot] = Span::default();
        // An edge goes with both its entries, a self-loop with its one.
        let loops = removed.iter().filter(|&&(nbr, _)| nbr == id).count();
        self.entries -= 2 * removed.len() - loops;
        self.total_weight -= self.node_weights[slot];
        self.node_weights[slot] = 0;
        self.alive[slot] = false;
        self.live_nodes -= 1;
        self.abandon(span.cap as usize);
        Ok(())
    }
}

impl NodeStream for DynamicGraph {
    /// The id-space size (see the [crate docs](crate); dead ids are counted
    /// but never streamed).
    fn num_nodes(&self) -> usize {
        self.id_space()
    }

    fn num_edges(&self) -> usize {
        self.num_live_edges()
    }

    fn total_node_weight(&self) -> NodeWeight {
        self.total_weight
    }

    /// The slab was proven symmetric when it loaded
    /// ([`DynamicGraph::from_stream`]), and every mutation writes or removes
    /// both entries of an edge, with the same weight.
    fn proves_symmetry(&self) -> bool {
        true
    }

    fn for_each_node(&mut self, f: &mut dyn FnMut(StreamedNode<'_>)) -> Result<()> {
        for v in 0..self.id_space() {
            if self.alive[v] {
                f(self.streamed(v as NodeId));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn path3() -> DynamicGraph {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        DynamicGraph::from_graph(&g)
    }

    #[test]
    fn materialisation_matches_source_counts() {
        let g = path3();
        assert_eq!(g.id_space(), 3);
        assert_eq!(g.num_live_nodes(), 3);
        assert_eq!(g.num_live_edges(), 2);
        assert_eq!(g.live_weight(), 3);
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        // The id pool holds exactly the streamed entries; a unit slab holds
        // no weight pool, and its 1s cover the longest span.
        assert_eq!((g.nbrs.len(), g.wts.len(), g.ones.len()), (4, 0, 2));
        assert_eq!(g.neighbors(1), (&[0, 2][..], &[1, 1][..]));

        // A weight that is not 1 in the stream materialises the pool,
        // aligned with the ids (1s included).
        let mut builder = oms_graph::GraphBuilder::new(3);
        builder.add_edge(0, 1).unwrap();
        builder.add_weighted_edge(1, 2, 4).unwrap();
        let g = DynamicGraph::from_graph(&builder.build());
        assert_eq!((g.nbrs.len(), g.wts.len(), g.ones.len()), (4, 4, 0));
        assert_eq!(g.neighbors(1), (&[0, 2][..], &[1, 4][..]));
    }

    #[test]
    fn edge_churn_updates_counts_and_adjacency() {
        let mut g = path3();
        g.insert_edge(0, 2, 5).unwrap();
        assert_eq!(g.neighbors(0), (&[1, 2][..], &[1, 5][..]), "upgraded");
        assert_eq!(g.num_live_edges(), 3);
        assert!(g.has_edge(2, 0));
        assert_eq!(g.delete_edge(0, 1).unwrap(), 1);
        assert_eq!(g.num_live_edges(), 2);
        assert!(!g.has_edge(1, 0));
        // Typed errors, nothing half-applied.
        assert!(g.insert_edge(0, 2, 1).is_err()); // duplicate
        assert!(g.insert_edge(1, 1, 1).is_err()); // self-loop
        assert!(g.delete_edge(0, 1).is_err()); // already gone
        assert_eq!(g.num_live_edges(), 2);
    }

    #[test]
    fn node_churn_grows_id_space_and_keeps_dead_ids() {
        let mut g = path3();
        g.insert_node(3, 4).unwrap();
        assert_eq!(g.id_space(), 4);
        assert_eq!(g.num_live_nodes(), 4);
        assert_eq!(g.live_weight(), 7);
        g.insert_edge(3, 1, 2).unwrap();
        // An id past the next fresh one would skip ids: refused, and the id
        // space stays as it was.
        let err = g.insert_node(5, 1).unwrap_err().to_string();
        assert!(err.contains("next fresh one, 4"), "{err}");
        assert!(g.insert_node(4_000_000_000, 1).is_err());
        assert_eq!(g.id_space(), 4);

        let mut removed = Vec::new();
        g.delete_node(1, &mut removed).unwrap();
        assert_eq!(removed, vec![(0, 1), (2, 1), (3, 2)]);
        assert_eq!(g.num_live_edges(), 0);
        assert_eq!(g.num_live_nodes(), 3);
        assert_eq!(g.id_space(), 4); // ids never disappear
        assert!(g.insert_edge(0, 1, 1).is_err()); // dead endpoint
        assert!(g.delete_node(1, &mut removed).is_err()); // already dead

        // A deleted id can be revived as a fresh node.
        g.insert_node(1, 9).unwrap();
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.node_weight(1), 9);
    }

    #[test]
    fn streaming_skips_dead_nodes() {
        let mut g = path3();
        g.delete_node(1, &mut Vec::new()).unwrap();
        let mut seen = Vec::new();
        g.for_each_node(&mut |node| seen.push(node.node)).unwrap();
        assert_eq!(seen, vec![0, 2]);
        assert_eq!(g.num_nodes(), 3); // id space, not live count
    }

    /// An empty list owns no slots: a node streamed isolated after every
    /// other list must stay readable and growable once compaction has
    /// truncated the pool below where it was streamed.
    #[test]
    fn an_isolated_node_streamed_last_survives_compaction() {
        let csr = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2)]).unwrap();
        let mut g = DynamicGraph::from_graph(&csr);
        g.delete_node(0, &mut Vec::new()).unwrap(); // 2 of 6 slots abandoned
        assert_eq!(g.nbrs.len(), 4, "compacted");
        assert_eq!(g.neighbors(3), (&[][..], &[][..]));
        g.insert_edge(3, 1, 7).unwrap();
        assert_eq!(g.neighbors(3), (&[1][..], &[7][..]));
        assert_eq!(g.neighbors(1), (&[2, 3][..], &[1, 7][..]));
    }

    /// `read_ahead` takes ids nothing has validated: ids past the id space,
    /// dead ids and empty spans are read past, and every list, weight and
    /// count stays as it was.
    #[test]
    fn read_ahead_tolerates_any_id_and_changes_nothing() {
        // Nodes 3 and 4 are isolated; node 2 dies and abandons its span.
        let csr = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2)]).unwrap();
        let mut g = DynamicGraph::from_graph(&csr);
        g.delete_node(2, &mut Vec::new()).unwrap();
        let view = |g: &DynamicGraph| {
            let ids = 0..g.id_space() as NodeId;
            let lists: Vec<_> = ids
                .map(|v| {
                    let (nbrs, wts) = g.neighbors(v);
                    let node = g.streamed(v);
                    (g.is_alive(v), node.weight, nbrs.to_vec(), wts.to_vec())
                })
                .collect();
            let counts = (g.num_live_nodes(), g.num_live_edges(), g.live_weight());
            (g.id_space(), counts, (g.nbrs.len(), g.abandoned), lists)
        };
        let before = view(&g);
        assert_eq!(g.read_ahead(&[]), 0);
        assert_eq!(g.read_ahead(&[5, NodeId::MAX]), 0, "past the id space");
        // Dead node 2 and isolated node 3 fold their span starts (0) and
        // weights (0 and 1); live node 1 its start 2, first entry 0 and
        // weight 1.
        assert_eq!(g.read_ahead(&[2, 3]), 1);
        assert_eq!(g.read_ahead(&[1]), 3);
        let hostile = [NodeId::MAX, 5, 2, 3, 4, 0, 1, 2, NodeId::MAX - 1, 0];
        g.read_ahead(&hostile);
        assert_eq!(view(&g), before);
    }

    /// Lists as given, streamed in id order.
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

    /// The slab is proven symmetric when it loads and stays so: one-sided
    /// lists are refused, and deleting an edge listed twice with two
    /// weights removes one entry of the same weight from each side, and a
    /// self-loop delete is refused, not half applied.
    #[test]
    fn the_slab_is_proven_at_load_and_stays_symmetric() {
        let one_sided = DynamicGraph::from_stream(&mut Lists(vec![vec![(1, 1), (1, 1)], vec![]]));
        let err = one_sided.unwrap_err().to_string();
        assert!(err.contains("not symmetric"), "{err}");

        let lists = vec![
            vec![(1, 5), (1, 7)],
            vec![(0, 7), (0, 5), (2, 2)],
            vec![(1, 2), (2, 3)],
        ];
        let mut g = DynamicGraph::from_stream(&mut Lists(lists)).unwrap();
        assert!(g.proves_symmetry());
        assert_eq!(g.delete_edge(0, 1).unwrap(), 5);
        assert_eq!(g.neighbors(0), (&[1][..], &[7][..]));
        assert_eq!(g.neighbors(1), (&[0, 2][..], &[7, 2][..]));
        let err = g.delete_edge(2, 2).unwrap_err().to_string();
        assert!(err.contains("self-loop delete on node 2"), "{err}");
        assert_eq!(g.neighbors(2), (&[1, 2][..], &[2, 3][..]));
        let mut removed = Vec::new();
        g.delete_node(2, &mut removed).unwrap();
        assert_eq!(removed, vec![(1, 2), (2, 3)]);
        g.insert_edge(0, 2, 4).unwrap_err(); // 2 is dead
        g.insert_node(2, 1).unwrap();
        g.insert_edge(0, 2, 4).unwrap();
        // The lists the slab streams load again, proven.
        let mut lists = Lists(vec![Vec::new(); g.id_space()]);
        g.for_each_node(&mut |node| lists.0[node.node as usize].extend(node.neighbors_weighted()))
            .unwrap();
        DynamicGraph::from_stream(&mut lists).unwrap();
    }

    /// A self-loop is one adjacency entry, half an edge as a stream's header
    /// counts it, and a node delete takes away that half, not a whole edge:
    /// the live edge count stays half the entries the slab streams as the
    /// nodes of a 6-node graph with two self-loops are deleted.
    #[test]
    fn a_node_delete_counts_a_self_loop_as_half_an_edge() {
        let lists = [
            vec![0, 1, 2],
            vec![1, 0, 2],
            vec![0, 1, 3],
            vec![2, 4, 5],
            vec![3, 5],
            vec![3, 4],
        ];
        let lists = lists.map(|list| list.into_iter().map(|u| (u, 1)).collect());
        let mut g = DynamicGraph::from_stream(&mut Lists(lists.to_vec())).unwrap();
        assert_eq!(g.num_live_edges(), 8);
        let mut removed = Vec::new();
        for v in 0..5 {
            g.delete_node(v, &mut removed).unwrap();
            let mut entries = 0;
            g.for_each_node(&mut |node| entries += node.neighbors.len())
                .unwrap();
            assert_eq!(g.num_live_edges(), entries / 2, "after deleting node {v}");
        }
    }

    /// The naive reference: one `Vec` per id, mutated with `push` and
    /// `swap_remove` as the slab's lists must behave.
    #[derive(Clone, Default)]
    struct ModelNode {
        alive: bool,
        weight: NodeWeight,
        adjacency: Vec<(NodeId, EdgeWeight)>,
    }

    fn model_detach(model: &mut [ModelNode], from: NodeId, to: NodeId) -> EdgeWeight {
        let list = &mut model[from as usize].adjacency;
        let pos = list.iter().position(|&(x, _)| x == to).unwrap();
        list.swap_remove(pos).1
    }

    fn assert_matches(g: &mut DynamicGraph, model: &[ModelNode]) {
        assert_eq!(g.id_space(), model.len());
        for (v, node) in model.iter().enumerate() {
            let (nbrs, wts) = g.neighbors(v as NodeId);
            let (want_nbrs, want_wts): (Vec<NodeId>, Vec<EdgeWeight>) =
                node.adjacency.iter().copied().unzip();
            assert_eq!((nbrs, wts), (&want_nbrs[..], &want_wts[..]), "node {v}");
            assert_eq!(g.is_alive(v as NodeId), node.alive, "node {v}");
        }
        let mut streamed = Vec::new();
        g.for_each_node(&mut |node| {
            let adjacency = node.neighbors_weighted().collect::<Vec<_>>();
            streamed.push((node.node, node.weight, adjacency));
        })
        .unwrap();
        let expected: Vec<_> = (0..model.len() as NodeId)
            .zip(model)
            .filter(|(_, node)| node.alive)
            .map(|(v, node)| (v, node.weight, node.adjacency.clone()))
            .collect();
        assert_eq!(streamed, expected);
    }

    /// How the churn test's edge weights come about.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Regime {
        /// Every weight is 1, streamed and inserted.
        Unit,
        /// Weights 1 to 4 in the stream and in every insert.
        Weighted,
        /// A unit slab until a weight-3 insert after its first compaction,
        /// weights 1 to 4 after that.
        Upgraded,
    }

    /// Seeded churn — edge inserts and deletes, node deletes, revivals and
    /// fresh ids — on the slab and on the naive model: every list matches,
    /// order included, after every operation, through span moves and
    /// compactions. A unit slab holds no weight pool and 1s for its longest
    /// span; a weighted one holds a pool aligned with the ids.
    #[test]
    fn the_slab_matches_a_vec_per_node_model_under_churn() {
        for regime in [Regime::Unit, Regime::Weighted, Regime::Upgraded] {
            churn_against_the_model(regime);
        }
    }

    fn churn_against_the_model(regime: Regime) {
        let n = 60;
        let mut builder = oms_graph::GraphBuilder::new(n);
        for v in 0..n as NodeId {
            for (i, u) in [(v + 1) % n as NodeId, (v + 7) % n as NodeId]
                .into_iter()
                .enumerate()
            {
                let w = match regime {
                    Regime::Weighted => 1 + (v as EdgeWeight + i as EdgeWeight) % 4,
                    _ => 1,
                };
                builder.add_weighted_edge(v, u, w).unwrap();
            }
        }
        let mut g = DynamicGraph::from_graph(&builder.build());
        let mut model: Vec<ModelNode> = (0..n as NodeId)
            .map(|v| {
                let (nbrs, wts) = g.neighbors(v);
                ModelNode {
                    alive: true,
                    weight: 1,
                    adjacency: nbrs.iter().copied().zip(wts.iter().copied()).collect(),
                }
            })
            .collect();
        assert_matches(&mut g, &model);

        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut weighted = regime == Regime::Weighted;
        let (mut moves, mut compactions) = (0, 0);
        let mut removed = Vec::new();
        for _ in 0..6_000 {
            let (pool, starts) = (g.nbrs.len(), g.spans.iter().map(|s| s.start).sum::<usize>());
            let alive: Vec<NodeId> = (0..model.len() as NodeId)
                .filter(|&v| model[v as usize].alive)
                .collect();
            let pick = |rng: &mut ChaCha8Rng| alive[rng.gen_range(0..alive.len())];
            match rng.gen_range(0..20u32) {
                0 if alive.len() > 10 => {
                    let v = pick(&mut rng);
                    g.delete_node(v, &mut removed).unwrap();
                    let list = std::mem::take(&mut model[v as usize].adjacency);
                    assert_eq!(removed, list);
                    for &(u, _) in &list {
                        model_detach(&mut model, u, v);
                    }
                    model[v as usize] = ModelNode::default();
                }
                1 => {
                    let dead: Vec<usize> = (0..model.len()).filter(|&v| !model[v].alive).collect();
                    let id = if dead.is_empty() || rng.gen_range(0..2u32) == 0 {
                        model.len()
                    } else {
                        dead[rng.gen_range(0..dead.len())]
                    };
                    let weight = rng.gen_range(1..4u64);
                    g.insert_node(id as NodeId, weight).unwrap();
                    if id == model.len() {
                        model.push(ModelNode::default());
                    }
                    model[id] = ModelNode {
                        alive: true,
                        weight,
                        adjacency: Vec::new(),
                    };
                }
                2..=8 => {
                    let u = pick(&mut rng);
                    let list = &model[u as usize].adjacency;
                    if !list.is_empty() {
                        let v = list[rng.gen_range(0..list.len())].0;
                        let w = g.delete_edge(u, v).unwrap();
                        assert_eq!(w, model_detach(&mut model, u, v));
                        model_detach(&mut model, v, u);
                    }
                }
                _ => {
                    let (u, v) = (pick(&mut rng), pick(&mut rng));
                    let drawn = rng.gen_range(1..5u64);
                    let absent =
                        u != v && !model[u as usize].adjacency.iter().any(|&(x, _)| x == v);
                    let w = match regime {
                        _ if weighted => drawn,
                        Regime::Upgraded if absent && compactions > 0 => {
                            weighted = true;
                            3
                        }
                        _ => 1,
                    };
                    assert_eq!(g.insert_edge(u, v, w).is_ok(), absent);
                    if absent {
                        model[u as usize].adjacency.push((v, w));
                        model[v as usize].adjacency.push((u, w));
                    }
                }
            }
            if g.nbrs.len() < pool {
                compactions += 1;
            } else if g.spans.iter().map(|s| s.start).sum::<usize>() != starts {
                moves += 1;
            }
            if weighted {
                assert_eq!(g.wts.len(), g.nbrs.len(), "{regime:?}");
            } else {
                let longest = g.spans.iter().map(|s| s.len as usize).max().unwrap_or(0);
                assert!(g.wts.is_empty() && g.ones.len() >= longest, "{regime:?}");
            }
            assert!(g.abandoned * 8 <= g.nbrs.len());
            assert_matches(&mut g, &model);
        }
        assert_eq!(weighted, regime != Regime::Unit, "{regime:?}");
        assert!(moves > 100, "{regime:?}: {moves} span moves");
        assert!(compactions >= 2, "{regime:?}: {compactions} compactions");
        let live: usize = model.iter().map(|node| node.adjacency.len()).sum();
        assert_eq!(g.num_live_edges() * 2, live);
    }
}
