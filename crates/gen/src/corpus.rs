//! A named synthetic corpus mirroring Table 1 of the paper.
//!
//! The paper evaluates on 26 real-world and 2 artificial graph families.
//! Redistribution of the real datasets is not possible here, so each instance
//! is replaced by a synthetic graph of the same *structural class* (meshes,
//! circuits, citations, web, social, roads, similarity, artificial) and of a
//! configurable size. The default sizes are chosen so that the full
//! evaluation pipeline runs on a laptop in minutes; the `scale` parameter
//! grows every instance proportionally for larger experiments.

use crate::{
    ba::barabasi_albert,
    delaunay::delaunay_graph,
    er::erdos_renyi_gnm,
    grid::{grid_2d, grid_3d},
    rgg::random_geometric_graph,
    rmat::{rmat_graph, RmatParams},
    sbm::planted_partition,
};
use oms_graph::CsrGraph;

/// Recipe used to synthesise one corpus instance.
#[derive(Clone, Copy, Debug)]
enum GenSpec {
    Grid2D { width: usize, height: usize },
    Grid3D { nx: usize, ny: usize, nz: usize },
    Rgg { n: usize },
    Delaunay { n: usize },
    BarabasiAlbert { n: usize, attach: usize },
    Rmat { scale_exp: u32, edge_factor: usize },
    ErGnm { n: usize, m: usize },
    Planted { n: usize, blocks: usize },
}

/// One named instance of the synthetic corpus.
#[derive(Clone, Copy, Debug)]
struct CorpusEntry {
    /// Instance name; matches the corresponding Table 1 name with a `syn-`
    /// prefix to make the substitution explicit.
    name: &'static str,
    spec: GenSpec,
}

/// The full corpus specification (15 instances covering every class of
/// Table 1 — meshes, circuits, citations, web, social, roads, similarity —
/// plus the two artificial families), in Table 1 order.
const CORPUS: &[CorpusEntry] = &[
    CorpusEntry {
        name: "syn-Dubcova1",
        spec: GenSpec::Grid2D {
            width: 128,
            height: 126,
        },
    },
    CorpusEntry {
        name: "syn-ML_Laplace",
        spec: GenSpec::Grid3D {
            nx: 32,
            ny: 32,
            nz: 30,
        },
    },
    CorpusEntry {
        name: "syn-HV15R",
        spec: GenSpec::Grid3D {
            nx: 40,
            ny: 36,
            nz: 32,
        },
    },
    CorpusEntry {
        name: "syn-hcircuit",
        spec: GenSpec::ErGnm {
            n: 26_000,
            m: 52_000,
        },
    },
    CorpusEntry {
        name: "syn-FullChip",
        spec: GenSpec::ErGnm {
            n: 48_000,
            m: 190_000,
        },
    },
    CorpusEntry {
        name: "syn-coAuthorsDBLP",
        spec: GenSpec::BarabasiAlbert {
            n: 30_000,
            attach: 3,
        },
    },
    CorpusEntry {
        name: "syn-cit-Patents",
        spec: GenSpec::BarabasiAlbert {
            n: 60_000,
            attach: 4,
        },
    },
    CorpusEntry {
        name: "syn-web-Google",
        spec: GenSpec::Rmat {
            scale_exp: 15,
            edge_factor: 5,
        },
    },
    CorpusEntry {
        name: "syn-eu-2005",
        spec: GenSpec::Rmat {
            scale_exp: 14,
            edge_factor: 18,
        },
    },
    CorpusEntry {
        name: "syn-soc-LiveJournal1",
        spec: GenSpec::Rmat {
            scale_exp: 16,
            edge_factor: 9,
        },
    },
    CorpusEntry {
        name: "syn-soc-orkut-dir",
        spec: GenSpec::Rmat {
            scale_exp: 15,
            edge_factor: 38,
        },
    },
    CorpusEntry {
        name: "syn-italy-osm",
        spec: GenSpec::Rgg { n: 65_000 },
    },
    CorpusEntry {
        name: "syn-Amazon-2008",
        spec: GenSpec::Planted {
            n: 40_000,
            blocks: 64,
        },
    },
    CorpusEntry {
        name: "syn-del18",
        spec: GenSpec::Delaunay { n: 50_000 },
    },
    CorpusEntry {
        name: "syn-rgg18",
        spec: GenSpec::Rgg { n: 60_000 },
    },
];

/// Builds a single corpus instance at the given `scale`.
///
/// `scale` multiplies the number of nodes (and edges where applicable);
/// `seed` makes the instance reproducible.
fn corpus_graph(entry: &CorpusEntry, scale: f64, seed: u64) -> CsrGraph {
    assert!(scale > 0.0, "scale must be positive");
    let s = |x: usize| ((x as f64 * scale).round() as usize).max(4);
    let sdim = |x: usize| ((x as f64 * scale.cbrt()).round() as usize).max(2);
    let sdim2 = |x: usize| ((x as f64 * scale.sqrt()).round() as usize).max(2);
    match entry.spec {
        GenSpec::Grid2D { width, height } => grid_2d(sdim2(width), sdim2(height)),
        GenSpec::Grid3D { nx, ny, nz } => grid_3d(sdim(nx), sdim(ny), sdim(nz)),
        GenSpec::Rgg { n } => random_geometric_graph(s(n), seed),
        GenSpec::Delaunay { n } => delaunay_graph(s(n), seed),
        GenSpec::BarabasiAlbert { n, attach } => barabasi_albert(s(n), attach, seed),
        GenSpec::Rmat {
            scale_exp,
            edge_factor,
        } => {
            // Scale the implicit node count 2^scale_exp by adjusting the
            // exponent with log2(scale); edges follow the edge factor.
            let extra = scale.log2().round() as i32;
            let exp = (scale_exp as i32 + extra).clamp(8, 26) as u32;
            let n = 1usize << exp;
            rmat_graph(exp, n * edge_factor, RmatParams::GRAPH500, seed)
        }
        GenSpec::ErGnm { n, m } => erdos_renyi_gnm(s(n), s(m), seed),
        GenSpec::Planted { n, blocks } => {
            // The planted partition can come out too sparse at very small
            // scales; keep the denser of it and a G(n, 2n) graph.
            let planted = planted_partition(s(n), blocks, 0.004, 0.00002, seed);
            let fallback = erdos_renyi_gnm(s(n), 2 * s(n), seed.wrapping_add(1));
            if planted.num_edges() >= fallback.num_edges() {
                planted
            } else {
                fallback
            }
        }
    }
}

/// Builds the whole corpus at the given scale. Returns `(name, graph)` pairs
/// in Table 1 order.
pub fn scaled_corpus(scale: f64, seed: u64) -> Vec<(&'static str, CsrGraph)> {
    CORPUS
        .iter()
        .map(|entry| (entry.name, corpus_graph(entry, scale, seed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_corpus_builds_and_validates() {
        for entry in CORPUS {
            let g = corpus_graph(entry, 0.02, 7);
            assert!(g.num_nodes() >= 4, "{} too small", entry.name);
            g.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        }
    }

    #[test]
    fn scale_grows_instances() {
        let entry = &CORPUS[0];
        let small = corpus_graph(entry, 0.05, 1);
        let large = corpus_graph(entry, 0.2, 1);
        assert!(large.num_nodes() > small.num_nodes());
    }

    #[test]
    fn corpus_is_deterministic() {
        let entry = CORPUS
            .iter()
            .find(|e| e.name == "syn-coAuthorsDBLP")
            .unwrap();
        assert_eq!(corpus_graph(entry, 0.05, 3), corpus_graph(entry, 0.05, 3));
    }

    #[test]
    fn scaled_corpus_returns_all_entries() {
        let corpus = scaled_corpus(0.02, 5);
        assert_eq!(corpus.len(), CORPUS.len());
        assert!(corpus.iter().all(|(_, g)| g.num_nodes() > 0));
    }
}
