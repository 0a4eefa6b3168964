//! Shim-level allocation counting: proves the one scoring kernel performs
//! **zero heap allocations per node** once warm under each of its drivers —
//! a stream pass of the flat rules, the per-delta repair path
//! (`retune` / `rescore` / `forget`) — and that a one-shot run's
//! allocation count, flat or multi-section, one pass or several, does not
//! depend on `n`.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after one
//! warm pass (the kernel sizes its per-tree-node arenas and its gather list
//! at construction), a second full pass over an in-memory stream must not
//! allocate at all — the per-node hot path runs entirely on pre-sized
//! buffers. CI runs this in release, where an accidental allocation in the
//! inlined kernel would otherwise be invisible.
//!
//! `oms-dynamic`'s per-delta path — edge churn with boundary repair — is held
//! to the same rule once warm, and its set-up to an allocation count that
//! does not depend on `n`.
//!
//! The same allocator tracks **live bytes** (current and peak), which turns
//! the CLI's `O(n + batch)` working-memory claim into a test: a one-pass or
//! multi-pass job run straight off a [`DiskStream`] or a [`MetisStream`]
//! must peak below `c₁·n + c₂` bytes on a dense graph, with constants the
//! materialised run of the same job exceeds — report included: every pass
//! tallies itself while it partitions, in `O(k·ℓ)` (block weights, the
//! topology's level codes, one weight per shared level) plus one bit per
//! node, and nothing `O(m)`. Per node that is one word: the peak grows by at
//! most 4.5 B per node from `n` to `4n` nodes (8.5 B for a multi-pass run,
//! which keeps its best pass), so no sink holds a node weight beside the
//! block id. The dynamic service holds the graph once: its
//! set-up off a [`DiskStream`] stays under a per-entry bound that loading a
//! CSR and copying it exceeds, and off an unweighted file, whose slab
//! stores no edge weights, under a tighter one that an edge-weighted
//! slab exceeds.
//!
//! Everything lives in a single `#[test]` because the counters are global:
//! parallel test threads would attribute each other's allocations.

use oms::core::executor::run;
use oms::core::RepairSink;
use oms::dynamic::PartitionState;
use oms::graph::io::{read_stream_file, write_metis, write_stream_file, DiskStream, MetisStream};
use oms::graph::{DeltaBatch, StreamedNode};
use oms::prelude::{erdos_renyi_gnm, planted_partition, InMemoryStream, JobSpec, WeightScheme};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts one allocator call that made `grown` bytes live and released
/// `shrunk`.
fn record(grown: usize, shrunk: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let before = LIVE_BYTES.fetch_add(grown as u64, Ordering::Relaxed);
    PEAK_LIVE_BYTES.fetch_max(before + grown as u64, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(shrunk as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during<F: FnOnce()>(f: F) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Peak of the live heap bytes while `f` runs, over what was live before.
fn peak_live_bytes_during<F: FnOnce()>(f: F) -> u64 {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_LIVE_BYTES.store(before, Ordering::Relaxed);
    f();
    PEAK_LIVE_BYTES.load(Ordering::Relaxed) - before
}

/// Warm steady-state passes and per-delta repair steps of both flat
/// objectives over graphs of two sizes, at a `k` under the kernel's wide
/// select and at one over it: allocation-free, independent of `n`.
#[test]
fn steady_state_scoring_is_allocation_free() {
    for (k, n) in [(32, 2_000usize), (32, 8_000), (1024, 2_000), (1024, 8_000)] {
        let g = planted_partition(n, 8, 0.05, 0.005, 11);
        for objective in ["fennel", "ldg"] {
            let mut stream = InMemoryStream::new(&g);
            let job = JobSpec::flat(objective, k);
            let (m, weight) = (g.num_edges(), g.total_node_weight());
            let mut sink = RepairSink::new(&job, g.num_nodes(), m, weight).unwrap();
            // Warm pass: every node assigned, every buffer at its final size.
            run(&mut stream, &mut sink).unwrap();
            let allocs = allocations_during(|| {
                run(&mut stream, &mut sink).unwrap();
            });
            assert_eq!(
                allocs, 0,
                "{objective}:{k} steady-state pass over n={n} allocated {allocs} times; \
                 the hot path must run on pre-sized buffers only"
            );
            // What `oms-dynamic` does per delta: counts shift, so `L_max`
            // and `α` are re-derived in place, and the touched nodes are
            // removed and re-scored one by one.
            let allocs = allocations_during(|| {
                for step in 0..2_000usize {
                    let v = (step * 7919 % n) as u32;
                    sink.retune(
                        n - step % 3,
                        g.num_edges() + step % 7,
                        n as u64 + (step % 5) as u64,
                    );
                    if step % 4 == 0 {
                        sink.forget(v, 1);
                    }
                    sink.rescore(StreamedNode {
                        node: v,
                        weight: 1,
                        neighbors: g.neighbors(v),
                        edge_weights: g.incident_edge_weights(v),
                    });
                }
            });
            assert_eq!(
                allocs, 0,
                "{objective}:{k} per-delta repair steps over n={n} allocated {allocs} times"
            );
        }
    }
    let k = 32;

    // The one-shot partitioners allocate their state per call, but that
    // setup must stay O(k + n) one-time work, not O(n) *per-node* churn: a
    // 4x bigger graph may not cost 4x the allocations.
    let small = planted_partition(2_000, 8, 0.05, 0.005, 11);
    let large = planted_partition(8_000, 8, 0.05, 0.005, 11);
    let fennel = JobSpec::flat("fennel", k).build().unwrap();
    let ldg = JobSpec::flat("ldg", k).build().unwrap();
    let count = |g: &oms::graph::CsrGraph| {
        allocations_during(|| {
            fennel.partition(&mut InMemoryStream::new(g)).unwrap();
            ldg.partition(&mut InMemoryStream::new(g)).unwrap();
        })
    };
    let (a_small, a_large) = (count(&small), count(&large));
    assert!(
        a_large < a_small + 64,
        "allocation count grew with n ({a_small} -> {a_large}): a per-node allocation \
         crept into the single-pass pipeline"
    );

    // The tree-descent kernel sizes its arenas, path table and gather list
    // once per run: OMS and nh-OMS allocate *exactly* as often on a 4x
    // bigger graph (O(1) set-up allocations, zero per node). So does a
    // multi-pass run, report included: its pass tally and visited bits are
    // sized once, and every accepted pass overwrites the one best snapshot
    // in place — no pass allocates O(n).
    for spec in [
        "oms:4:4:4",
        "nh-oms:32",
        "oms:4:4:4@passes=4",
        "fennel:32@passes=3",
        "oms:4:4:4@passes=2,dist=1:10:100",
    ] {
        let partitioner = JobSpec::parse(spec).unwrap().build().unwrap();
        let count = |g: &oms::graph::CsrGraph| {
            allocations_during(|| {
                partitioner.run(&mut InMemoryStream::new(g)).unwrap();
            })
        };
        let (a_small, a_large) = (count(&small), count(&large));
        assert_eq!(
            a_small, a_large,
            "{spec}: allocation count depends on n ({a_small} for n=2000, {a_large} for \
             n=8000): a per-node or per-pass allocation crept into the tree-descent kernel \
             or the pass loop"
        );
    }

    // The CLI's working-memory contract: a job run straight off the stream
    // file holds O(n) state plus one edge-bounded batch, however dense the
    // graph — here 2m/n = 70 adjacency entries per node, 8.4 MB as a CSR —
    // one pass or several. The same job over the materialised graph (what
    // the CLI did for every input before it streamed, and for every
    // multi-pass job before each pass tallied itself) must exceed the very
    // same bound, so the constants are shown to separate the two. `run`
    // reports cut, J and ω(E) out of the passes, with and without a
    // topology.
    let n = 10_000usize;
    let dense = erdos_renyi_gnm(n, 35 * n, 5);
    let path = std::env::temp_dir().join("oms-alloc-counter-dense.oms");
    let metis_path = std::env::temp_dir().join("oms-alloc-counter-dense.graph");
    let weighted_path = std::env::temp_dir().join("oms-alloc-counter-dense-weighted.oms");
    write_stream_file(&dense, &path).unwrap();
    write_metis(&dense, &metis_path).unwrap();
    write_stream_file(&WeightScheme::Edges.apply(&dense, 5), &weighted_path).unwrap();
    drop(dense);
    let bound = 128 * n as u64 + (4 << 20);
    for spec in [
        "oms:4:4:4",
        "fennel:32",
        "oms:4:4:4@dist=1:10:100",
        "hashing:32",
        "oms:4:4:4@passes=4",
        "fennel:32@passes=3",
        "oms:4:4:4@passes=2,dist=1:10:100",
    ] {
        let partitioner = JobSpec::parse(spec).unwrap().build().unwrap();
        let streamed = peak_live_bytes_during(|| {
            let mut stream = DiskStream::open(&path).unwrap();
            partitioner.run(&mut stream).unwrap();
        });
        let streamed_text = peak_live_bytes_during(|| {
            partitioner
                .run(&mut MetisStream::open(&metis_path).unwrap())
                .unwrap();
        });
        let materialised = peak_live_bytes_during(|| {
            let graph = read_stream_file(&path).unwrap();
            partitioner.run(&mut InMemoryStream::new(&graph)).unwrap();
        });
        assert!(
            streamed < bound && streamed_text < bound && bound < materialised,
            "{spec}: streamed runs peaked at {streamed} B (.oms) and {streamed_text} B (METIS), \
             the materialised one at {materialised} B; the O(n + batch) bound for n = {n} is \
             {bound} B"
        );
    }

    // Per node, a streamed job holds one word — the block id — and one bit
    // for its in-pass tally, plus one more word for a multi-pass run's best
    // pass: the slope of its peak between n and 4n nodes at the same average
    // degree stays under 4.5 B (8.5 B for passes ≥ 2) off the `.oms` file
    // and off the METIS text alike. A sink that kept a `u64` weight per node
    // beside the block id paid 12 B (16 B). The graphs are circulant, every
    // node of degree 12: a reader's batches are then alike at both sizes, so
    // its columns are sized by the first batch and never grow.
    let sizes = [20_000usize, 80_000];
    let files = sizes.map(|n| {
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|v| (1..=6).map(move |j| (v as u32, ((v + j) % n) as u32)))
            .collect();
        let graph = oms::graph::CsrGraph::from_edges(n, &edges).unwrap();
        let stream = std::env::temp_dir().join(format!("oms-alloc-counter-slope-{n}.oms"));
        let text = std::env::temp_dir().join(format!("oms-alloc-counter-slope-{n}.graph"));
        write_stream_file(&graph, &stream).unwrap();
        write_metis(&graph, &text).unwrap();
        (stream, text)
    });
    for (spec, limit) in [
        ("hashing:64", 4.5),
        ("fennel:64", 4.5),
        ("oms:4:4:4", 4.5),
        ("oms:4:4:4@dist=1:10:100", 4.5),
        ("oms:4:4:4@passes=3", 8.5),
        ("fennel:64@passes=2", 8.5),
    ] {
        let partitioner = JobSpec::parse(spec).unwrap().build().unwrap();
        let [small, large] = files.each_ref().map(|(stream, text)| {
            let oms = peak_live_bytes_during(|| {
                partitioner
                    .run(&mut DiskStream::open(stream).unwrap())
                    .unwrap();
            });
            let metis = peak_live_bytes_during(|| {
                partitioner
                    .run(&mut MetisStream::open(text).unwrap())
                    .unwrap();
            });
            [oms, metis]
        });
        let added = (sizes[1] - sizes[0]) as f64;
        let [oms, metis] = [0, 1].map(|i| (large[i] as f64 - small[i] as f64) / added);
        assert!(
            oms <= limit && metis <= limit,
            "{spec}: the peak grew by {oms:.2} B per node off .oms and {metis:.2} B off METIS \
             between n = {} and n = {}; the limit is {limit} B",
            sizes[0],
            sizes[1]
        );
    }
    for (stream, text) in &files {
        std::fs::remove_file(stream).ok();
        std::fs::remove_file(text).ok();
    }

    // `apply-deltas` holds the graph once: `PartitionState::new` streams the
    // file into the dynamic graph's slab, in pools that grow by doubling
    // (the allocator briefly holds a pool's old half as it doubles). The
    // edge-weighted graph's slab stores 12 B per adjacency entry, ids and
    // weights, and stays under 28 B per entry. The unweighted graph's unit
    // slab stores the 4 B ids alone and stays under a bound of 12 B per
    // entry, which the weighted slab — what every slab stored before unit
    // weights went unstored — exceeds. Loading a CSR first and copying it —
    // what the CLI did before it streamed — holds another 12 B per entry,
    // which neither bound has room for.
    let job = JobSpec::parse("fennel:32").unwrap();
    let entries = 2 * 35 * n as u64;
    let [unit_bound, weighted_bound] =
        [12, 28].map(|per_entry| per_entry * entries + 128 * n as u64 + (4 << 20));
    let [unit, weighted] = [&path, &weighted_path].map(|file| {
        let slab = peak_live_bytes_during(|| {
            PartitionState::new(&job, &mut DiskStream::open(file).unwrap()).unwrap();
        });
        let twice = peak_live_bytes_during(|| {
            let graph = read_stream_file(file).unwrap();
            PartitionState::new(&job, &mut InMemoryStream::new(&graph)).unwrap();
        });
        (slab, twice)
    });
    assert!(
        unit.0 < unit_bound && unit_bound < unit.1 && unit_bound < weighted.0,
        "PartitionState::new peaked at {} B off the unit file, {} B off the edge-weighted \
         one and {} B over a loaded unit CSR; the unit slab's bound for n = {n}, {entries} \
         adjacency entries is {unit_bound} B",
        unit.0,
        weighted.0,
        unit.1
    );
    assert!(
        weighted.0 < weighted_bound && weighted_bound < weighted.1,
        "PartitionState::new peaked at {} B off the edge-weighted file and at {} B over a \
         loaded CSR; the one-copy bound for n = {n}, {entries} adjacency entries is \
         {weighted_bound} B",
        weighted.0,
        weighted.1
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&weighted_path).ok();

    // Its set-up allocates per pool growth, not per node: one slab, no
    // list per id.
    let dynamic_path = std::env::temp_dir().join("oms-alloc-counter-dynamic.oms");
    let [a_small, a_large] = [&small, &large].map(|graph| {
        write_stream_file(graph, &dynamic_path).unwrap();
        allocations_during(|| {
            PartitionState::new(&job, &mut DiskStream::open(&dynamic_path).unwrap()).unwrap();
        })
    });
    std::fs::remove_file(&dynamic_path).ok();
    assert!(
        a_large < a_small + 64,
        "PartitionState::new: allocation count grew with n ({a_small} for n=2000, {a_large} \
         for n=8000): a per-node allocation crept into the slab build"
    );

    // A warm batch of edge churn under `repair=boundary` — graph mutation,
    // cut and boundary upkeep, re-scoring and the cascade wave — runs on
    // the state's reused scratch: only a growing pool (or a unit slab's
    // buffer of 1s) may allocate, on a unit slab and on a weighted one.
    let job = JobSpec::parse("fennel:32@repair=boundary,drift=1000").unwrap();
    let churn = |state: &PartitionState, offset: u32| {
        let mut batch = DeltaBatch::new();
        let pairs: Vec<(u32, u32)> = (0..1_000u32)
            .map(|u| (u, u + offset))
            .filter(|&(u, v)| !state.graph().has_edge(u, v))
            .collect();
        for &(u, v) in &pairs {
            batch.insert_edge(u, v, 1);
        }
        for &(u, v) in &pairs {
            batch.delete_edge(u, v);
        }
        batch
    };
    for (name, graph) in [
        ("unit", large.clone()),
        ("edge-weighted", WeightScheme::Edges.apply(&large, 11)),
    ] {
        let mut state = PartitionState::new(&job, &mut InMemoryStream::new(&graph)).unwrap();
        let warm = churn(&state, 4_000);
        state.apply(&warm).unwrap();
        let batch = churn(&state, 4_001);
        assert!(batch.len() > 1_900);
        let allocs = allocations_during(|| {
            state.apply(&batch).unwrap();
        });
        assert!(
            allocs < 64,
            "a warm batch of {} edge deltas on the {name} graph allocated {allocs} times; the \
             per-delta path must reuse its buffers",
            batch.len()
        );
    }

    // A METIS pass sizes its read buffer and its batch once: the same jobs
    // straight off the text allocate exactly as often on a 4x bigger graph.
    let counts = [&small, &large].map(|graph| {
        write_metis(graph, &metis_path).unwrap();
        ["oms:4:4:4@dist=1:10:100", "fennel:32"].map(|spec| {
            let partitioner = JobSpec::parse(spec).unwrap().build().unwrap();
            allocations_during(|| {
                partitioner
                    .run(&mut MetisStream::open(&metis_path).unwrap())
                    .unwrap();
            })
        })
    });
    assert_eq!(
        counts[0], counts[1],
        "one-pass jobs over a MetisStream: allocation counts (oms, fennel) depend on n \
         (n=2000 vs n=8000): a per-node or per-line allocation crept into the tokenizer"
    );
    std::fs::remove_file(&metis_path).ok();
}
