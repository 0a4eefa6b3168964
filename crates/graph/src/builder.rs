//! Edge-list accumulator producing [`CsrGraph`]s.
//!
//! The paper preprocesses every benchmark graph by removing parallel edges,
//! self loops and edge directions and assigning unit weights; this builder
//! performs exactly that normalisation (weights of parallel edges are summed
//! when they are explicitly weighted).

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
    edges: Vec<(NodeId, NodeId, EdgeWeight)>,
    node_weights: Vec<NodeWeight>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes of unit weight.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            num_nodes: n,
            edges: Vec::new(),
            node_weights: vec![1; n],
        }
    }

    /// Creates a builder with a capacity hint for the number of edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            num_nodes: n,
            edges: Vec::with_capacity(m),
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
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, w));
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
    pub fn build(mut self) -> CsrGraph {
        // Deduplicate: sort canonical (u < v) edges and merge weights.
        self.edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        let mut dedup: Vec<(NodeId, NodeId, EdgeWeight)> = Vec::with_capacity(self.edges.len());
        for (u, v, w) in self.edges {
            match dedup.last_mut() {
                Some(last) if last.0 == u && last.1 == v => last.2 += w,
                _ => dedup.push((u, v, w)),
            }
        }

        // Counting sort into CSR.
        let n = self.num_nodes;
        let mut degree = vec![0usize; n];
        for &(u, v, _) in &dedup {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0usize);
        for d in &degree {
            xadj.push(xadj.last().unwrap() + d);
        }
        let mut cursor = xadj.clone();
        let mut adjncy = vec![0 as NodeId; 2 * dedup.len()];
        let mut eweights = vec![0 as EdgeWeight; 2 * dedup.len()];
        for &(u, v, w) in &dedup {
            let cu = cursor[u as usize];
            adjncy[cu] = v;
            eweights[cu] = w;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize];
            adjncy[cv] = u;
            eweights[cv] = w;
            cursor[v as usize] += 1;
        }
        // Keep each adjacency list sorted for deterministic iteration and
        // O(log d) membership queries if ever needed.
        for v in 0..n {
            let range = xadj[v]..xadj[v + 1];
            let mut pairs: Vec<(NodeId, EdgeWeight)> = adjncy[range.clone()]
                .iter()
                .copied()
                .zip(eweights[range.clone()].iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|&(x, _)| x);
            for (i, (x, w)) in pairs.into_iter().enumerate() {
                adjncy[xadj[v] + i] = x;
                eweights[xadj[v] + i] = w;
            }
        }

        CsrGraph::from_csr_unchecked(xadj, adjncy, eweights, self.node_weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
