//! Golden digests of the seeded generators.
//!
//! Every benchmark input, corpus instance and delta trace in this workspace is
//! regenerated from a seed, so a generator (or the RNG, `GraphBuilder` or a
//! writer beneath it) that changes its output silently changes every result.
//! These tests pin the output: a 64-bit FNV-1a over the CSR arrays of each
//! graph, and over the bytes the METIS and delta-trace writers produce. A
//! speed-up of any of these layers must leave every digest unchanged.
//!
//! Run them in release (`cargo test --release -p oms-gen --test pinned`); the
//! R-MAT graph has 2^14 nodes and each churn trace 37 500 operations.

use oms_gen::{
    barabasi_albert, churn_trace, delaunay_graph, erdos_renyi_gnm, grid_2d, planted_partition,
    random_geometric_graph, rmat_graph, scaled_corpus, temporal_trace, ChurnConfig, ChurnScheme,
    RmatParams, TemporalConfig, TemporalScheme, WeightScheme,
};
use oms_graph::io::write_metis_string;
use oms_graph::{write_delta_trace, CsrGraph, DeltaBatch};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over xadj, adjncy, edge weights and node weights, each entry as
/// little-endian `u64`.
fn csr_digest(g: &CsrGraph) -> u64 {
    let words = g
        .xadj()
        .iter()
        .map(|&x| x as u64)
        .chain(g.adjncy().iter().map(|&x| x as u64))
        .chain(g.edge_weights().iter().copied())
        .chain(g.node_weights().iter().copied());
    words.fold(FNV_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()))
}

fn rmat() -> CsrGraph {
    rmat_graph(14, 8 << 14, RmatParams::GRAPH500, 11)
}

fn er() -> CsrGraph {
    erdos_renyi_gnm(20_000, 80_000, 11)
}

#[track_caller]
fn pin(what: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{what}: digest {got:#018x}, pinned {want:#018x} — the generated bytes changed"
    );
}

#[test]
fn rmat_graph_is_pinned() {
    let g = rmat();
    assert_eq!((g.num_nodes(), g.num_edges()), (16_384, 114_262));
    pin(
        "rmat_graph(14, 8·2^14, GRAPH500, 11)",
        csr_digest(&g),
        0x9e75_b166_df11_12c2,
    );
}

#[test]
fn erdos_renyi_is_pinned() {
    let g = er();
    assert_eq!((g.num_nodes(), g.num_edges()), (20_000, 80_000));
    pin(
        "erdos_renyi_gnm(20 000, 80 000, 11)",
        csr_digest(&g),
        0xaf59_8ef9_6265_c415,
    );
}

#[test]
fn small_families_are_pinned() {
    pin(
        "barabasi_albert(5 000, 4, 11)",
        csr_digest(&barabasi_albert(5_000, 4, 11)),
        0xb2b2_aef7_b4e8_03e5,
    );
    pin(
        "random_geometric_graph(5 000, 11)",
        csr_digest(&random_geometric_graph(5_000, 11)),
        0x178e_2387_e42a_b8f2,
    );
    pin(
        "delaunay_graph(2 000, 11)",
        csr_digest(&delaunay_graph(2_000, 11)),
        0x05b6_ecc3_76c1_73d5,
    );
    pin(
        "grid_2d(70, 50)",
        csr_digest(&grid_2d(70, 50)),
        0xadeb_c762_1365_adea,
    );
}

#[test]
fn full_weights_on_rmat_are_pinned() {
    let g = WeightScheme::Full.apply(&rmat(), 11);
    pin(
        "WeightScheme::Full on the R-MAT graph",
        csr_digest(&g),
        0xd9fd_6a7d_a700_6f62,
    );
}

#[test]
fn metis_bytes_of_rmat_are_pinned() {
    let text = write_metis_string(&rmat()).unwrap();
    pin(
        "write_metis of the R-MAT graph",
        fnv1a(FNV_OFFSET, text.as_bytes()),
        0xd857_ee49_3666_95ad,
    );
    let weighted = write_metis_string(&WeightScheme::Full.apply(&rmat(), 11)).unwrap();
    pin(
        "write_metis of the fully weighted R-MAT graph",
        fnv1a(FNV_OFFSET, weighted.as_bytes()),
        0x3243_d7ba_ea36_072c,
    );
}

/// FNV-1a over the bytes `write_delta_trace` writes for `trace`.
fn trace_digest(trace: &[DeltaBatch]) -> u64 {
    let path = std::env::temp_dir().join(format!(
        "oms-gen-pinned-{}-{:?}.deltas",
        std::process::id(),
        std::thread::current().id()
    ));
    write_delta_trace(&path, trace).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    fnv1a(FNV_OFFSET, &bytes)
}

#[test]
fn churn_trace_bytes_are_pinned() {
    for (scheme, want) in [
        (
            ChurnScheme::CommunityDrift { communities: 8 },
            0x1fb2_523d_755c_9c70,
        ),
        (ChurnScheme::Uniform, 0xc4f1_faa2_8641_83a2),
        (ChurnScheme::Burst { window: 0.05 }, 0x56a2_5711_29f6_1138),
    ] {
        let config = ChurnConfig {
            scheme,
            batches: 60,
            ops_per_batch: 625,
            seed: 11,
            ..ChurnConfig::default()
        };
        pin(
            &format!("write_delta_trace of the {scheme:?} churn trace"),
            trace_digest(&churn_trace(&er(), &config)),
            want,
        );
    }
}

#[test]
fn temporal_trace_bytes_are_pinned() {
    let graph = barabasi_albert(3_000, 3, 9);
    for (scheme, want) in [
        (
            TemporalScheme::PreferentialAttachment { edges_per_node: 3 },
            0x61b0_4695_bda9_50ae,
        ),
        (
            TemporalScheme::CommunityDrift { communities: 8 },
            0x3327_e72b_2158_3c29,
        ),
        (
            TemporalScheme::BurstArrivals { period: 4 },
            0x2197_04fa_5b45_1be4,
        ),
    ] {
        let config = TemporalConfig {
            scheme,
            batches: 20,
            ops_per_batch: 200,
            delete_fraction: 0.25,
            seed: 13,
        };
        pin(
            &format!("write_delta_trace of the {scheme:?} temporal trace"),
            trace_digest(&temporal_trace(&graph, &config)),
            want,
        );
    }
}

#[test]
fn planted_partition_is_pinned() {
    pin(
        "planted_partition(2 000, 8, 0.05, 0.002, 5)",
        csr_digest(&planted_partition(2_000, 8, 0.05, 0.002, 5)),
        0xeb38_4545_27da_ca58,
    );
}

/// FNV-1a over each corpus entry's name bytes followed by its
/// [`csr_digest`] as little-endian bytes, in corpus order.
fn corpus_digest(scale: f64, seed: u64) -> u64 {
    scaled_corpus(scale, seed)
        .iter()
        .fold(FNV_OFFSET, |h, (name, graph)| {
            fnv1a(fnv1a(h, name.as_bytes()), &csr_digest(graph).to_le_bytes())
        })
}

#[test]
fn scaled_corpus_is_pinned() {
    pin(
        "scaled_corpus(0.01, 7)",
        corpus_digest(0.01, 7),
        0x6921_6eb5_df81_af16,
    );
    pin(
        "scaled_corpus(0.05, 3)",
        corpus_digest(0.05, 3),
        0xa70e_c3c9_9847_2169,
    );
}
