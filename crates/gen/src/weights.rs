//! Weighted variants of the synthetic graphs.
//!
//! The paper's framework partitions node- and edge-weighted METIS inputs,
//! but every generator in this crate produces unit weights. This module
//! turns any generated graph into a weighted one with two deterministic
//! schemes that mirror how real weighted corpora look:
//!
//! * **power-law node weights** — node weights follow a bounded Pareto
//!   distribution (most nodes light, a heavy tail), the shape of
//!   vertex-weighted circuit and hypergraph-derived instances;
//! * **degree-proportional edge weights** — the weight of `{u, v}` grows
//!   with `deg(u) + deg(v)`, mimicking similarity/co-occurrence graphs
//!   where hub–hub edges carry the most mass.
//!
//! Both schemes reuse the unweighted graph's topology unchanged, so a
//! weighted instance is streamed in exactly the same node order as its
//! unweighted twin — which is what makes weighted-vs-unweighted quality
//! comparisons meaningful. [`WeightScheme`] (`oms generate --weights`) is the
//! one public way to apply them.

use oms_graph::{CsrGraph, NodeWeight};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Upper bound applied to generated node weights so that a single node can
/// never exceed a block capacity at the corpus' default ε and k.
pub const DEFAULT_MAX_NODE_WEIGHT: NodeWeight = 64;

/// Pareto shape parameter of the power-law node weights (smaller = heavier
/// tail); 1.5 gives a pronounced but not degenerate skew.
const PARETO_SHAPE: f64 = 1.5;

/// Replaces every node weight with a bounded power-law sample in
/// `1..=DEFAULT_MAX_NODE_WEIGHT` (deterministic in `seed`); the adjacency
/// structure and edge weights are untouched.
fn power_law_node_weights(graph: &CsrGraph, seed: u64) -> CsrGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weights: Vec<NodeWeight> = (0..graph.num_nodes())
        .map(|_| {
            // Bounded Pareto via inversion: w = 1 / u^(1/shape), clamped.
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let w = u.powf(-1.0 / PARETO_SHAPE);
            (w.floor() as NodeWeight).clamp(1, DEFAULT_MAX_NODE_WEIGHT)
        })
        .collect();
    graph
        .with_node_weights(weights)
        .expect("generated weights are positive and of the right length")
}

/// Replaces every edge weight `{u, v}` with
/// `1 + (deg(u) + deg(v)) / 2` (deterministic, symmetric); node weights are
/// untouched.
fn degree_proportional_edge_weights(graph: &CsrGraph) -> CsrGraph {
    graph
        .map_edge_weights(|u, v, _| 1 + (graph.degree(u) + graph.degree(v)) as u64 / 2)
        .expect("degree-derived weights are positive")
}

/// How a generated graph is reweighted (`oms generate --weights`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightScheme {
    /// Keep unit weights (the unweighted baseline).
    Unit,
    /// Power-law node weights, unit edge weights.
    Nodes,
    /// Degree-proportional edge weights, unit node weights.
    Edges,
    /// Both node and edge weights.
    Full,
}

impl WeightScheme {
    /// Parses a scheme name: `unit`/`none`, `nodes`, `edges` or `full`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "unit" | "none" => Some(WeightScheme::Unit),
            "nodes" => Some(WeightScheme::Nodes),
            "edges" => Some(WeightScheme::Edges),
            "full" => Some(WeightScheme::Full),
            _ => None,
        }
    }

    /// Canonical scheme name.
    pub fn name(&self) -> &'static str {
        match self {
            WeightScheme::Unit => "unit",
            WeightScheme::Nodes => "nodes",
            WeightScheme::Edges => "edges",
            WeightScheme::Full => "full",
        }
    }

    /// Applies the scheme to `graph` (node weights drawn with `seed`).
    pub fn apply(&self, graph: &CsrGraph, seed: u64) -> CsrGraph {
        match self {
            WeightScheme::Unit => graph.clone(),
            WeightScheme::Nodes => power_law_node_weights(graph, seed),
            WeightScheme::Edges => degree_proportional_edge_weights(graph),
            WeightScheme::Full => {
                let nodes = power_law_node_weights(graph, seed);
                degree_proportional_edge_weights(&nodes)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erdos_renyi_gnm;

    #[test]
    fn power_law_weights_are_bounded_deterministic_and_skewed() {
        let g = erdos_renyi_gnm(2000, 6000, 7);
        let a = power_law_node_weights(&g, 9);
        let b = power_law_node_weights(&g, 9);
        assert_eq!(a, b, "same seed, same weights");
        assert_ne!(
            a.node_weights(),
            power_law_node_weights(&g, 10).node_weights(),
            "different seed, different weights"
        );
        assert!(a
            .node_weights()
            .iter()
            .all(|&w| (1..=DEFAULT_MAX_NODE_WEIGHT).contains(&w)));
        // Skew: at least half the nodes stay at weight 1 under shape 1.5
        // (P(w = 1) = 1 - 2^{-1.5} ≈ 0.65), and a tail above 8 exists.
        let ones = a.node_weights().iter().filter(|&&w| w == 1).count();
        assert!(ones * 2 > a.num_nodes(), "expected ≥50% weight-1 nodes");
        assert!(a.node_weights().iter().any(|&w| w > 8), "expected a tail");
        a.validate().unwrap();
        // Adjacency untouched.
        assert_eq!(a.xadj(), g.xadj());
        assert_eq!(a.adjncy(), g.adjncy());
        assert_eq!(a.edge_weights(), g.edge_weights());
    }

    #[test]
    fn degree_edge_weights_are_symmetric_and_positive() {
        let g = crate::barabasi_albert(500, 3, 11);
        let w = degree_proportional_edge_weights(&g);
        w.validate().unwrap();
        assert_eq!(w.node_weights(), g.node_weights());
        for (u, v, ew) in w.edges() {
            assert_eq!(ew, 1 + (g.degree(u) + g.degree(v)) as u64 / 2);
            assert_eq!(w.edge_weight(v, u), Some(ew), "symmetry");
        }
        // A hub graph has genuinely heterogeneous edge weights.
        let distinct: std::collections::HashSet<u64> = w.edges().map(|(_, _, ew)| ew).collect();
        assert!(distinct.len() > 4, "expected varied weights: {distinct:?}");
    }

    #[test]
    fn scheme_parse_round_trips() {
        for scheme in [
            WeightScheme::Unit,
            WeightScheme::Nodes,
            WeightScheme::Edges,
            WeightScheme::Full,
        ] {
            assert_eq!(WeightScheme::parse(scheme.name()), Some(scheme));
        }
        assert_eq!(WeightScheme::parse("none"), Some(WeightScheme::Unit));
        assert_eq!(WeightScheme::parse("bogus"), None);
    }

    #[test]
    fn unit_scheme_is_identity_and_full_weights_both_sides() {
        let g = erdos_renyi_gnm(300, 900, 3);
        assert_eq!(WeightScheme::Unit.apply(&g, 5), g);
        let full = WeightScheme::Full.apply(&g, 5);
        assert!(!full.is_unweighted());
        assert!(full.node_weights().iter().any(|&w| w > 1));
        assert!(full.edge_weights().iter().any(|&w| w > 1));
        full.validate().unwrap();
        // The node weights of `full` match the `nodes` scheme at the same
        // seed — the schemes compose deterministically.
        assert_eq!(
            full.node_weights(),
            WeightScheme::Nodes.apply(&g, 5).node_weights()
        );
    }
}
