//! Edge-list accumulator producing [`CsrGraph`]s.
//!
//! The paper preprocesses every benchmark graph by removing parallel edges,
//! self loops and edge directions and assigning unit weights. This builder
//! removes self loops and directions and merges parallel edges into one edge
//! whose weight is the sum of theirs — so unit edges added `r` times become
//! one edge of weight `r`. A reader that must drop parallel edges (the
//! edge-list reader) dedups its pairs before adding them.

use crate::{CsrGraph, EdgeWeight, GraphError, NodeId, NodeWeight, Result};

/// Incremental builder for undirected graphs.
///
/// Edges may be added in any order and in either direction; the builder
/// stores each edge once and materialises both arcs when [`GraphBuilder::build`]
/// is called. Self loops are silently dropped, duplicate edges are merged by
/// summing their weights.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Edges,
    node_weights: Vec<NodeWeight>,
}

/// The canonical edges `{u < v}`, each as the packed key `u << 32 | v`,
/// whose order is the lexicographic `(u, v)` order.
#[derive(Clone, Debug)]
enum Edges {
    /// Every edge added so far has weight 1: the keys alone, half the bytes
    /// to hold and sort (generated graphs never leave this variant).
    Unit(Vec<u64>),
    /// Some edge has another weight: every key with its weight.
    Weighted(Vec<(u64, EdgeWeight)>),
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes of unit weight.
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// Creates a builder with a capacity hint for the number of edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            num_nodes: n,
            edges: Edges::Unit(Vec::with_capacity(m)),
            node_weights: vec![1; n],
        }
    }

    /// Sets the weight of node `v`.
    pub fn set_node_weight(&mut self, v: NodeId, w: NodeWeight) -> Result<()> {
        self.check_node(v)?;
        self.node_weights[v as usize] = w;
        Ok(())
    }

    /// Adds the undirected edge `{u, v}` with unit weight.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        self.add_weighted_edge(u, v, 1)
    }

    /// Adds the undirected edge `{u, v}` with weight `w`.
    ///
    /// Self loops are ignored. Duplicate edges are merged at build time by
    /// summing weights.
    pub fn add_weighted_edge(&mut self, u: NodeId, v: NodeId, w: EdgeWeight) -> Result<()> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Ok(());
        }
        let key = (u.min(v) as u64) << 32 | u.max(v) as u64;
        match &mut self.edges {
            Edges::Unit(keys) if w == 1 => keys.push(key),
            Edges::Unit(keys) => {
                let mut edges: Vec<_> = keys.iter().map(|&k| (k, 1)).collect();
                edges.push((key, w));
                self.edges = Edges::Weighted(edges);
            }
            Edges::Weighted(edges) => edges.push((key, w)),
        }
        Ok(())
    }

    fn check_node(&self, v: NodeId) -> Result<()> {
        if (v as usize) < self.num_nodes {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: v as u64,
                num_nodes: self.num_nodes as u64,
            })
        }
    }

    /// Consumes the builder and produces the CSR graph.
    pub fn build(self) -> CsrGraph {
        let (n, node_weights) = (self.num_nodes, self.node_weights);
        match self.edges {
            Edges::Unit(mut keys) => {
                keys.sort_unstable();
                from_sorted(n, &keys, |&k| (k, 1), node_weights)
            }
            Edges::Weighted(mut edges) => {
                edges.sort_unstable_by_key(|&(k, _)| k);
                from_sorted(n, &edges, |&e| e, node_weights)
            }
        }
    }
}

/// The CSR graph of canonical edges sorted by key. Each run of equal keys is
/// one edge carrying the sum of the run's weights (the order of a run does
/// not change a sum, so an unstable sort gives the same graph).
fn from_sorted<T>(
    n: usize,
    sorted: &[T],
    edge: impl Fn(&T) -> (u64, EdgeWeight),
    node_weights: Vec<NodeWeight>,
) -> CsrGraph {
    let key = |e: &T| edge(e).0;
    let merged = || {
        sorted.chunk_by(|a, b| key(a) == key(b)).map(|run| {
            let k = key(&run[0]);
            let w: EdgeWeight = run.iter().map(|e| edge(e).1).sum();
            ((k >> 32) as NodeId, k as NodeId, w)
        })
    };

    // Counting sort into CSR.
    let mut xadj = vec![0usize; n + 1];
    for (u, v, _) in merged() {
        xadj[u as usize + 1] += 1;
        xadj[v as usize + 1] += 1;
    }
    for v in 0..n {
        xadj[v + 1] += xadj[v];
    }
    let mut cursor = xadj[..n].to_vec();
    let mut adjncy = vec![0 as NodeId; xadj[n]];
    let mut eweights = vec![0 as EdgeWeight; xadj[n]];
    // Filled in sorted `(u, v)` order, every list comes out sorted: a node
    // `x`'s smaller neighbours arrive from the runs of the nodes `u < x`, in
    // increasing `u`, before the runs of `x` itself append its larger
    // neighbours in increasing `v`.
    for (u, v, w) in merged() {
        let cu = cursor[u as usize];
        adjncy[cu] = v;
        eweights[cu] = w;
        cursor[u as usize] += 1;
        let cv = cursor[v as usize];
        adjncy[cv] = u;
        eweights[cv] = w;
        cursor[v as usize] += 1;
    }
    debug_assert!(
        (0..n).all(|v| adjncy[xadj[v]..xadj[v + 1]].windows(2).all(|p| p[0] < p[1])),
        "every adjacency list comes out strictly increasing"
    );

    CsrGraph::from_csr_unchecked(xadj, adjncy, eweights, node_weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;

    #[test]
    fn build_simple_square() {
        let mut b = GraphBuilder::new(4);
        for &(u, v) in &[(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(u, v).unwrap();
        }
        let g = b.build();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        g.validate().unwrap();
    }

    #[test]
    fn duplicate_weighted_edges_are_merged() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 3).unwrap();
        b.add_weighted_edge(1, 0, 4).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(7));
    }

    #[test]
    fn self_loops_are_dropped() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 1).unwrap();
        b.add_edge(0, 2).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(1), 0);
    }

    #[test]
    fn node_weights_are_preserved() {
        let mut b = GraphBuilder::new(3);
        b.set_node_weight(0, 10).unwrap();
        b.set_node_weight(2, 5).unwrap();
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        assert_eq!(g.node_weight(0), 10);
        assert_eq!(g.node_weight(1), 1);
        assert_eq!(g.node_weight(2), 5);
        assert_eq!(g.total_node_weight(), 16);
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let mut b = GraphBuilder::new(5);
        for &v in &[4, 2, 3, 1] {
            b.add_edge(0, v).unwrap();
        }
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn out_of_range_node_weight_rejected() {
        let mut b = GraphBuilder::new(2);
        assert!(b.set_node_weight(5, 1).is_err());
    }

    #[test]
    fn capacity_constructor_counts_nodes() {
        let g = GraphBuilder::with_capacity(7, 100).build();
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.num_edges(), 0);
    }

    /// The CSR arrays a `BTreeMap<(u, v), w>` of the canonical edges gives,
    /// built the naive way: one sorted `Vec` per node.
    fn reference_csr(
        n: usize,
        edges: &BTreeMap<(NodeId, NodeId), EdgeWeight>,
    ) -> (Vec<usize>, Vec<NodeId>, Vec<EdgeWeight>) {
        let mut lists = vec![Vec::new(); n];
        for (&(u, v), &w) in edges {
            lists[u as usize].push((v, w));
            lists[v as usize].push((u, w));
        }
        let mut xadj = vec![0];
        let (mut adjncy, mut eweights) = (Vec::new(), Vec::new());
        for mut list in lists {
            list.sort_unstable();
            xadj.push(xadj.last().unwrap() + list.len());
            adjncy.extend(list.iter().map(|&(v, _)| v));
            eweights.extend(list.iter().map(|&(_, w)| w));
        }
        (xadj, adjncy, eweights)
    }

    #[test]
    fn build_equals_the_btreemap_reference_on_random_multisets() {
        for seed in 0..300u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(1usize..40);
            // Even seeds add unit edges only, odd ones switch to explicit
            // weights part-way through.
            let weighted = seed % 2 == 1;
            let mut builder = GraphBuilder::new(n);
            let mut node_weights = vec![1; n];
            let mut edges = BTreeMap::new();
            let mut added: Vec<(NodeId, NodeId)> = Vec::new();
            for _ in 0..rng.gen_range(0..4 * n) {
                let node = |rng: &mut ChaCha8Rng| rng.gen_range(0..n) as NodeId;
                // Self loops, and repeats of earlier pairs in either
                // orientation.
                let (u, v) = match rng.gen_range(0..10u32) {
                    0 => {
                        let u = node(&mut rng);
                        (u, u)
                    }
                    1..=3 if !added.is_empty() => {
                        let (a, b) = *added.choose(&mut rng).unwrap();
                        if rng.gen_bool(0.5) {
                            (b, a)
                        } else {
                            (a, b)
                        }
                    }
                    _ => (node(&mut rng), node(&mut rng)),
                };
                added.push((u, v));
                let w = if weighted && rng.gen_bool(0.5) {
                    rng.gen_range(1..1000u64)
                } else {
                    1
                };
                builder.add_weighted_edge(u, v, w).unwrap();
                if u != v {
                    *edges.entry((u.min(v), u.max(v))).or_insert(0) += w;
                }
                if rng.gen_bool(0.1) {
                    let w = rng.gen_range(1..100u64);
                    node_weights[u as usize] = w;
                    builder.set_node_weight(u, w).unwrap();
                }
            }
            let g = builder.build();
            let (xadj, adjncy, eweights) = reference_csr(n, &edges);
            assert_eq!(g.xadj(), &xadj[..], "seed {seed}");
            assert_eq!(g.adjncy(), &adjncy[..], "seed {seed}");
            assert_eq!(g.edge_weights(), &eweights[..], "seed {seed}");
            assert_eq!(g.node_weights(), &node_weights[..], "seed {seed}");
            g.validate().unwrap();
        }
    }
}
