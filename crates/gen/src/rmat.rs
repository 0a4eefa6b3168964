//! R-MAT (recursive matrix) graphs.
//!
//! R-MAT produces graphs with skewed degree distributions and community-like
//! structure; with the classic `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`
//! parameters it is a standard model for web crawls and social networks
//! (`eu-2005`, `web-Google`, `soc-orkut-dir` in the paper's corpus).

use oms_graph::{CsrGraph, GraphBuilder, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Quadrant probabilities of the R-MAT recursion.
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Probability of the bottom-right quadrant.
    pub d: f64,
}

impl RmatParams {
    /// The classic Graph500-style parameters producing a heavy-tailed,
    /// community-structured graph.
    pub const GRAPH500: RmatParams = RmatParams {
        a: 0.57,
        b: 0.19,
        c: 0.19,
        d: 0.05,
    };

    /// Uniform parameters, equivalent to an Erdős–Rényi graph.
    pub const UNIFORM: RmatParams = RmatParams {
        a: 0.25,
        b: 0.25,
        c: 0.25,
        d: 0.25,
    };

    fn validate(&self) {
        let sum = self.a + self.b + self.c + self.d;
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "R-MAT probabilities must sum to 1 (got {sum})"
        );
        assert!(self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && self.d >= 0.0);
    }
}

impl Default for RmatParams {
    fn default() -> Self {
        RmatParams::GRAPH500
    }
}

/// Generates an R-MAT graph with `2^scale` nodes from `num_edges` sampled
/// node pairs.
///
/// Self loops produced by the recursion are dropped. Duplicate pairs (in
/// either direction) are merged by [`GraphBuilder`] into one edge whose
/// weight is their multiplicity, so the edge count is below `num_edges` and
/// the graph is edge-weighted: at scale 18 with `8 · 2^18` samples and seed
/// 11 (the benchmark's input), m = 1 969 476 edges carry ω(E) = 2 096 777.
pub fn rmat_graph(scale: u32, num_edges: usize, params: RmatParams, seed: u64) -> CsrGraph {
    params.validate();
    assert!(scale < 31, "scale must keep node ids within u32");
    let n = 1usize << scale;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_capacity(n, num_edges);
    for _ in 0..num_edges {
        let (u, v) = sample_edge(scale, &params, &mut rng);
        builder.add_edge(u, v).unwrap();
    }
    builder.build()
}

/// One edge of the recursion: `scale` uniform draws, one bit of `u` and one
/// of `v` per draw. The quadrant of a draw `r` is read from three compares
/// against the cumulative thresholds instead of a chain of branches:
///
/// | `r` in            | `r ≥ a` | `r ≥ a+b` | `r ≥ a+b+c` | `u` | `v` |
/// |-------------------|---------|-----------|-------------|-----|-----|
/// | `[0, a)`          | 0       | 0         | 0           | 0   | 0   |
/// | `[a, a+b)`        | 1       | 0         | 0           | 0   | 1   |
/// | `[a+b, a+b+c)`    | 1       | 1         | 0           | 1   | 0   |
/// | `[a+b+c, 1)`      | 1       | 1         | 1           | 1   | 1   |
///
/// so `u` is the second compare and `v` the XOR of all three. The thresholds
/// are the same `f64` sums, in the same order, as `r < a`, `r < a + b` and
/// `r < a + b + c`, and the probabilities are non-negative, so the compares
/// are monotone and every edge is the one the branches gave.
fn sample_edge(scale: u32, p: &RmatParams, rng: &mut ChaCha8Rng) -> (NodeId, NodeId) {
    let (t1, t2, t3) = (p.a, p.a + p.b, p.a + p.b + p.c);
    let mut u: u32 = 0;
    let mut v: u32 = 0;
    for _ in 0..scale {
        let r: f64 = rng.gen();
        let (x1, x2, x3) = ((r >= t1) as u32, (r >= t2) as u32, (r >= t3) as u32);
        u = u << 1 | x2;
        v = v << 1 | (x1 ^ x2 ^ x3);
    }
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count_is_power_of_two() {
        let g = rmat_graph(10, 4000, RmatParams::default(), 3);
        assert_eq!(g.num_nodes(), 1024);
        g.validate().unwrap();
    }

    #[test]
    fn edge_count_is_close_to_requested() {
        let g = rmat_graph(12, 20_000, RmatParams::default(), 17);
        assert!(g.num_edges() <= 20_000);
        // Duplicate collisions remove some edges but the bulk must survive.
        assert!(g.num_edges() > 15_000, "only {} edges", g.num_edges());
    }

    #[test]
    fn graph500_parameters_give_skewed_degrees() {
        let g = rmat_graph(12, 30_000, RmatParams::GRAPH500, 23);
        let avg = g.average_degree();
        assert!(g.max_degree() as f64 > 8.0 * avg);
    }

    #[test]
    fn uniform_parameters_give_flat_degrees() {
        let skewed = rmat_graph(12, 30_000, RmatParams::GRAPH500, 23);
        let uniform = rmat_graph(12, 30_000, RmatParams::UNIFORM, 23);
        assert!(uniform.max_degree() < skewed.max_degree());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = rmat_graph(8, 1000, RmatParams::default(), 5);
        let b = rmat_graph(8, 1000, RmatParams::default(), 5);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn invalid_probabilities_panic() {
        let params = RmatParams {
            a: 0.9,
            b: 0.9,
            c: 0.0,
            d: 0.0,
        };
        rmat_graph(4, 10, params, 1);
    }
}
