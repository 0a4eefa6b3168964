//! Compressed sparse row (CSR) representation of an undirected graph.
//!
//! Every undirected edge `{u, v}` is stored twice (once in the adjacency list
//! of `u`, once in that of `v`), exactly like in the METIS format the paper
//! streams its graphs from. The structure is immutable after construction;
//! all mutation happens through [`crate::GraphBuilder`].

use crate::{EdgeWeight, GraphError, NodeId, NodeWeight, Result};

/// An immutable, undirected, weighted graph in CSR form.
///
/// Invariants (checked by [`CsrGraph::validate`]):
///
/// * `xadj.len() == n + 1`, `xadj[0] == 0`, `xadj` is non-decreasing and
///   `xadj[n] == adjncy.len()`.
/// * `adjncy.len() == eweights.len()` and every entry is `< n`.
/// * no self loops, and the adjacency is symmetric with matching weights.
/// * `nweights.len() == n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    xadj: Vec<usize>,
    adjncy: Vec<NodeId>,
    eweights: Vec<EdgeWeight>,
    nweights: Vec<NodeWeight>,
    total_node_weight: NodeWeight,
    total_edge_weight: EdgeWeight,
}

/// Half the sum of the adjacency entries' weights — every undirected edge
/// is stored from both endpoints — summed without wrapping and saturating
/// at `u64::MAX`.
fn half_sum(eweights: &[EdgeWeight]) -> EdgeWeight {
    let twice = eweights.iter().map(|&w| u128::from(w)).sum::<u128>();
    EdgeWeight::try_from(twice / 2).unwrap_or(EdgeWeight::MAX)
}

impl CsrGraph {
    /// Builds a graph from CSR arrays without validating symmetry.
    ///
    /// Used internally by builders that construct the arrays in a way that is
    /// symmetric by construction; the cheap invariants are still checked.
    pub(crate) fn from_csr_unchecked(
        xadj: Vec<usize>,
        adjncy: Vec<NodeId>,
        eweights: Vec<EdgeWeight>,
        nweights: Vec<NodeWeight>,
    ) -> Self {
        debug_assert_eq!(xadj.len(), nweights.len() + 1);
        debug_assert_eq!(adjncy.len(), eweights.len());
        let total_node_weight = nweights.iter().sum();
        let total_edge_weight = half_sum(&eweights);
        CsrGraph {
            xadj,
            adjncy,
            eweights,
            nweights,
            total_node_weight,
            total_edge_weight,
        }
    }

    /// An empty graph with `n` isolated nodes of unit weight.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            xadj: vec![0; n + 1],
            adjncy: Vec::new(),
            eweights: Vec::new(),
            nweights: vec![1; n],
            total_node_weight: n as NodeWeight,
            total_edge_weight: 0,
        }
    }

    /// Convenience constructor from an undirected edge list with unit weights.
    ///
    /// Parallel edges and self loops are removed, matching the preprocessing
    /// applied to every benchmark graph in the paper.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self> {
        let mut b = crate::GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nweights.len()
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Number of directed arcs stored (`2m`).
    #[inline]
    pub(crate) fn num_arcs(&self) -> usize {
        self.adjncy.len()
    }

    /// Sum of all node weights `c(V)`.
    #[inline]
    pub fn total_node_weight(&self) -> NodeWeight {
        self.total_node_weight
    }

    /// Sum of all edge weights `ω(E)`, saturating at `u64::MAX`.
    #[inline]
    pub fn total_edge_weight(&self) -> EdgeWeight {
        self.total_edge_weight
    }

    /// Weight of node `v`.
    #[inline]
    pub fn node_weight(&self, v: NodeId) -> NodeWeight {
        self.nweights[v as usize]
    }

    /// Degree of node `v` (number of incident edges).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Maximum degree `Δ` of the graph.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes() as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2m / n` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.num_nodes() as f64
        }
    }

    /// The `p`-quantile of the degree distribution (`p ∈ [0, 1]`): the
    /// smallest degree `d` such that at least `⌈p·n⌉` nodes have degree
    /// `≤ d`. Computed with one counting pass over a degree histogram, so
    /// it stays `O(n + Δ)` even on million-node graphs.
    ///
    /// `degree_percentile(0.99)` against [`CsrGraph::max_degree`] is the
    /// degree-skew signal: a tiny `p99/max` ratio means a few hub vertices
    /// dominate — the regime where vertex-cut (edge) partitioning beats
    /// edge-cut node partitioning.
    pub fn degree_percentile(&self, p: f64) -> usize {
        let n = self.num_nodes();
        if n == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let mut histogram = vec![0usize; self.max_degree() + 1];
        for v in self.nodes() {
            histogram[self.degree(v)] += 1;
        }
        let rank = ((p * n as f64).ceil() as usize).max(1);
        let mut seen = 0usize;
        for (degree, &count) in histogram.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return degree;
            }
        }
        self.max_degree()
    }

    /// Neighbors of `v` as a slice.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Edge weights incident to `v`, aligned with [`CsrGraph::neighbors`].
    #[inline]
    pub fn incident_edge_weights(&self, v: NodeId) -> &[EdgeWeight] {
        let v = v as usize;
        &self.eweights[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Iterator over `(neighbor, edge_weight)` pairs of `v`.
    #[inline]
    pub fn neighbors_weighted(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.incident_edge_weights(v).iter().copied())
    }

    /// Iterator over all node ids `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over every undirected edge `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeWeight)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors_weighted(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| (u, v, w))
        })
    }

    /// Returns the weight of edge `{u, v}` if it exists.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<EdgeWeight> {
        self.neighbors_weighted(u)
            .find(|&(x, _)| x == v)
            .map(|(_, w)| w)
    }

    /// Raw CSR offsets (mostly useful for I/O and tests).
    #[inline]
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Raw adjacency array (mostly useful for I/O and tests).
    #[inline]
    pub fn adjncy(&self) -> &[NodeId] {
        &self.adjncy
    }

    /// Raw node-weight array.
    #[inline]
    pub fn node_weights(&self) -> &[NodeWeight] {
        &self.nweights
    }

    /// Raw edge-weight array aligned with [`CsrGraph::adjncy`].
    #[inline]
    pub fn edge_weights(&self) -> &[EdgeWeight] {
        &self.eweights
    }

    /// `true` if every node and edge has weight one.
    pub fn is_unweighted(&self) -> bool {
        self.nweights.iter().all(|&w| w == 1) && self.eweights.iter().all(|&w| w == 1)
    }

    /// Checks all structural invariants of the CSR representation.
    pub fn validate(&self) -> Result<()> {
        let n = self.num_nodes();
        if self.xadj.len() != n + 1 {
            return Err(GraphError::Invalid(format!(
                "xadj has length {} but expected {}",
                self.xadj.len(),
                n + 1
            )));
        }
        if self.xadj[0] != 0 {
            return Err(GraphError::Invalid("xadj[0] must be 0".into()));
        }
        if self.xadj.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::Invalid("xadj must be non-decreasing".into()));
        }
        if *self.xadj.last().unwrap() != self.adjncy.len() {
            return Err(GraphError::Invalid(
                "xadj[n] must equal the adjacency length".into(),
            ));
        }
        if self.adjncy.len() != self.eweights.len() {
            return Err(GraphError::Invalid(
                "edge weight array must align with adjacency array".into(),
            ));
        }
        for v in self.nodes() {
            for (u, w) in self.neighbors_weighted(v) {
                if u as usize >= n {
                    return Err(GraphError::NodeOutOfRange {
                        node: u as u64,
                        num_nodes: n as u64,
                    });
                }
                if u == v {
                    return Err(GraphError::Invalid(format!("self loop at node {v}")));
                }
                match self.edge_weight(u, v) {
                    Some(back) if back == w => {}
                    Some(back) => {
                        return Err(GraphError::Invalid(format!(
                            "asymmetric edge weight for {{{u},{v}}}: {w} vs {back}"
                        )))
                    }
                    None => {
                        return Err(GraphError::Invalid(format!(
                            "edge ({v},{u}) present but reverse arc missing"
                        )))
                    }
                }
            }
        }
        Ok(())
    }

    /// Extracts the subgraph induced by `nodes`.
    ///
    /// Returns the induced [`CsrGraph`] together with the mapping from new
    /// node ids to the original ids (`mapping[new] == old`). Nodes listed
    /// more than once are collapsed to a single occurrence; the order of
    /// first occurrence defines the new ids.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (CsrGraph, Vec<NodeId>) {
        let n = self.num_nodes();
        let mut new_id = vec![NodeId::MAX; n];
        let mut mapping = Vec::with_capacity(nodes.len());
        for &v in nodes {
            if new_id[v as usize] == NodeId::MAX {
                new_id[v as usize] = mapping.len() as NodeId;
                mapping.push(v);
            }
        }
        let mut xadj = Vec::with_capacity(mapping.len() + 1);
        xadj.push(0usize);
        let mut adjncy = Vec::new();
        let mut eweights = Vec::new();
        let mut nweights = Vec::with_capacity(mapping.len());
        for &old in &mapping {
            nweights.push(self.node_weight(old));
            for (u, w) in self.neighbors_weighted(old) {
                let nu = new_id[u as usize];
                if nu != NodeId::MAX {
                    adjncy.push(nu);
                    eweights.push(w);
                }
            }
            xadj.push(adjncy.len());
        }
        (
            CsrGraph::from_csr_unchecked(xadj, adjncy, eweights, nweights),
            mapping,
        )
    }

    /// Returns a copy of this graph with the node weights replaced.
    ///
    /// The adjacency arrays are copied as-is — an `O(n + m)` memcpy with
    /// **no** symmetry re-check. Errors when the weight slice length differs from
    /// the node count or a weight is zero.
    pub fn with_node_weights(&self, nweights: Vec<NodeWeight>) -> Result<Self> {
        if nweights.len() != self.num_nodes() {
            return Err(GraphError::Invalid(format!(
                "node weight array has length {} but the graph has {} nodes",
                nweights.len(),
                self.num_nodes()
            )));
        }
        if let Some(v) = nweights.iter().position(|&w| w == 0) {
            return Err(GraphError::WeightOutOfRange {
                what: "node",
                node: v as u64,
                value: 0,
                max: NodeWeight::MAX,
            });
        }
        let total_node_weight = nweights.iter().sum();
        Ok(CsrGraph {
            xadj: self.xadj.clone(),
            adjncy: self.adjncy.clone(),
            eweights: self.eweights.clone(),
            nweights,
            total_node_weight,
            total_edge_weight: self.total_edge_weight,
        })
    }

    /// Returns a copy of this graph with every edge weight replaced by
    /// `f(u, v, w)`, where `u < v` are the edge's endpoints and `w` its
    /// current weight.
    ///
    /// `f` is evaluated exactly **once per undirected edge** and the value
    /// is written to both arc slots, so the result is symmetric even for
    /// stateful or randomized closures; `f` returning zero is an error.
    pub fn map_edge_weights(
        &self,
        mut f: impl FnMut(NodeId, NodeId, EdgeWeight) -> EdgeWeight,
    ) -> Result<Self> {
        let mut eweights = self.eweights.clone();
        let mut computed: std::collections::HashMap<(NodeId, NodeId), EdgeWeight> =
            std::collections::HashMap::with_capacity(self.num_edges());
        for v in self.nodes() {
            for (i, (u, w)) in self.neighbors_weighted(v).enumerate() {
                let key = if v < u { (v, u) } else { (u, v) };
                let nw = *computed.entry(key).or_insert_with(|| f(key.0, key.1, w));
                if nw == 0 {
                    return Err(GraphError::WeightOutOfRange {
                        what: "edge",
                        node: v as u64,
                        value: 0,
                        max: EdgeWeight::MAX,
                    });
                }
                eweights[self.xadj[v as usize] + i] = nw;
            }
        }
        let total_edge_weight = half_sum(&eweights);
        Ok(CsrGraph {
            xadj: self.xadj.clone(),
            adjncy: self.adjncy.clone(),
            eweights,
            nweights: self.nweights.clone(),
            total_node_weight: self.total_node_weight,
            total_edge_weight,
        })
    }

    /// Approximate number of bytes used by the CSR arrays.
    ///
    /// Used by the memory experiment (§4.1 of the paper) to contrast the
    /// in-memory baseline, which must hold the whole graph, with the
    /// streaming algorithms whose state is `O(n + k)`.
    pub fn memory_bytes(&self) -> usize {
        self.xadj.len() * std::mem::size_of::<usize>()
            + self.adjncy.len() * std::mem::size_of::<NodeId>()
            + self.eweights.len() * std::mem::size_of::<EdgeWeight>()
            + self.nweights.len() * std::mem::size_of::<NodeWeight>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> CsrGraph {
        let edges: Vec<(NodeId, NodeId)> = (0..n as NodeId - 1).map(|i| (i, i + 1)).collect();
        CsrGraph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.total_node_weight(), 5);
        assert_eq!(g.max_degree(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn triangle_basic_properties() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        assert!(g.edge_weight(0, 2).is_some());
        assert!(g.edge_weight(0, 0).is_none());
        assert_eq!(g.edge_weight(1, 2), Some(1));
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        g.validate().unwrap();
    }

    #[test]
    fn path_graph_degrees() {
        let g = path_graph(10);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(5), 2);
        assert_eq!(g.degree(9), 1);
        assert_eq!(g.num_edges(), 9);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 5);
        for (u, v, _) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn from_edges_removes_duplicates_and_self_loops() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let mut b = crate::GraphBuilder::new(3);
        assert!(b.add_edge(0, 7).is_err());
    }

    #[test]
    fn induced_subgraph_of_cycle() {
        // 0-1-2-3-4-0 cycle; take nodes {0,1,2}: expect path 0-1-2.
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let (s, mapping) = g.induced_subgraph(&[0, 1, 2]);
        assert_eq!(s.num_nodes(), 3);
        assert_eq!(s.num_edges(), 2);
        assert_eq!(mapping, vec![0, 1, 2]);
        assert!(s.edge_weight(0, 1).is_some());
        assert!(s.edge_weight(1, 2).is_some());
        assert!(s.edge_weight(0, 2).is_none());
        s.validate().unwrap();
    }

    #[test]
    fn induced_subgraph_deduplicates_node_list() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let (s, mapping) = g.induced_subgraph(&[2, 2, 3, 2]);
        assert_eq!(s.num_nodes(), 2);
        assert_eq!(mapping, vec![2, 3]);
        assert!(s.edge_weight(0, 1).is_some());
    }

    #[test]
    fn validate_detects_asymmetry() {
        // Construct a deliberately broken graph: arc 0->1 without 1->0.
        let g = CsrGraph {
            xadj: vec![0, 1, 1],
            adjncy: vec![1],
            eweights: vec![1],
            nweights: vec![1, 1],
            total_node_weight: 2,
            total_edge_weight: 0,
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_detects_self_loop() {
        let g = CsrGraph {
            xadj: vec![0, 2, 2],
            adjncy: vec![0, 0],
            eweights: vec![1, 1],
            nweights: vec![1, 1],
            total_node_weight: 2,
            total_edge_weight: 1,
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn memory_bytes_scales_with_size() {
        let small = path_graph(10);
        let large = path_graph(1000);
        assert!(large.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn with_node_weights_replaces_weights_and_rejects_zero() {
        let g = path_graph(4);
        let w = g.with_node_weights(vec![2, 3, 4, 5]).unwrap();
        assert_eq!(w.total_node_weight(), 14);
        assert_eq!(w.adjncy(), g.adjncy());
        w.validate().unwrap();
        assert!(g.with_node_weights(vec![1, 1]).is_err(), "wrong length");
        assert!(
            g.with_node_weights(vec![1, 0, 1, 1]).is_err(),
            "zero weight"
        );
    }

    #[test]
    fn map_edge_weights_calls_f_once_per_edge_and_stays_symmetric() {
        // A stateful (counting) closure must still produce a symmetric
        // graph: f runs once per undirected edge, not once per arc.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let mut calls = 0u64;
        let w = g
            .map_edge_weights(|_, _, _| {
                calls += 1;
                calls
            })
            .unwrap();
        assert_eq!(calls, g.num_edges() as u64);
        w.validate().unwrap();
        for (u, v, ew) in w.edges() {
            assert_eq!(w.edge_weight(v, u), Some(ew));
        }
        assert!(g.map_edge_weights(|_, _, _| 0).is_err(), "zero weight");
    }

    #[test]
    fn incident_weights_sum_to_the_weighted_degree() {
        let mut b = crate::GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 5).unwrap();
        b.add_weighted_edge(0, 2, 7).unwrap();
        let g = b.build();
        assert_eq!(g.incident_edge_weights(0).iter().sum::<u64>(), 12);
        assert_eq!(g.incident_edge_weights(1), &[5]);
        assert_eq!(g.total_edge_weight(), 12);
    }

    #[test]
    fn degree_percentile_matches_a_sorted_scan() {
        // A star: 99 leaves of degree 1 and one hub of degree 99.
        let mut b = crate::GraphBuilder::new(100);
        for v in 1..100u32 {
            b.add_edge(0, v).unwrap();
        }
        let g = b.build();
        assert_eq!(g.degree_percentile(0.0), 1);
        assert_eq!(g.degree_percentile(0.5), 1);
        assert_eq!(g.degree_percentile(0.99), 1);
        assert_eq!(g.degree_percentile(1.0), 99);
        // Cross-check against the brute-force definition on a random graph.
        let r = crate::CsrGraph::from_edges(
            50,
            &[(0, 1), (1, 2), (2, 3), (0, 2), (4, 5), (5, 6), (0, 6)],
        )
        .unwrap();
        let mut degrees: Vec<usize> = r.nodes().map(|v| r.degree(v)).collect();
        degrees.sort_unstable();
        for p in [0.1f64, 0.5, 0.9, 0.99] {
            let rank = ((p * 50.0).ceil() as usize).max(1);
            assert_eq!(r.degree_percentile(p), degrees[rank - 1], "p = {p}");
        }
        assert_eq!(crate::CsrGraph::empty(0).degree_percentile(0.99), 0);
    }
}
