//! Shim-level allocation counting: proves the flat scoring kernel performs
//! **zero heap allocations per node** once warm, and that the OMS
//! tree-descent kernel's allocation count does not depend on `n`.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after one
//! warm pass (which sizes the connectivity arena, the dirty list and the
//! penalty arena), a second full pass over an in-memory stream must not
//! allocate at all — the per-node hot path runs entirely on pre-sized
//! buffers. CI runs this in release, where an accidental allocation in the
//! inlined kernel would otherwise be invisible.
//!
//! Everything lives in a single `#[test]` because the counter is global:
//! parallel test threads would attribute each other's allocations.

use oms::core::{BatchExecutor, FlatObjective, OnePassConfig, RepairSink, StreamingPartitioner};
use oms::prelude::{planted_partition, Fennel, InMemoryStream, JobSpec, Ldg};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

/// Warm steady-state passes of both flat objectives over graphs of two
/// sizes: the second pass must be allocation-free, independent of `n`.
#[test]
fn steady_state_scoring_is_allocation_free() {
    let k = 32;
    let cfg = OnePassConfig::default();
    for n in [2_000usize, 8_000] {
        let g = planted_partition(n, 8, 0.05, 0.005, 11);
        for objective in [FlatObjective::Fennel, FlatObjective::Ldg] {
            let mut stream = InMemoryStream::new(&g);
            let mut sink = RepairSink::new(
                k,
                g.num_nodes(),
                g.num_edges(),
                g.total_node_weight(),
                cfg,
                objective,
            )
            .unwrap();
            let executor = BatchExecutor::default();
            // Warm pass: grows the dirty list / arenas to their final size.
            executor.run(&mut stream, &mut sink).unwrap();
            let allocs = allocations_during(|| {
                executor.run(&mut stream, &mut sink).unwrap();
            });
            assert_eq!(
                allocs, 0,
                "{objective:?} steady-state pass over n={n} allocated {allocs} times; \
                 the hot path must run on pre-sized buffers only"
            );
        }
    }

    // The one-shot partitioners allocate their state per call, but that
    // setup must stay O(k + n) one-time work, not O(n) *per-node* churn: a
    // 4x bigger graph may not cost 4x the allocations.
    let small = planted_partition(2_000, 8, 0.05, 0.005, 11);
    let large = planted_partition(8_000, 8, 0.05, 0.005, 11);
    let count = |g: &oms::graph::CsrGraph| {
        allocations_during(|| {
            Fennel::new(k, cfg)
                .partition_stream(&mut InMemoryStream::new(g))
                .unwrap();
            Ldg::new(k, cfg)
                .partition_stream(&mut InMemoryStream::new(g))
                .unwrap();
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
    // bigger graph (O(1) set-up allocations, zero per node).
    for spec in ["oms:4:4:4", "nh-oms:32"] {
        let partitioner = JobSpec::parse(spec).unwrap().build().unwrap();
        let count = |g: &oms::graph::CsrGraph| {
            allocations_during(|| {
                partitioner.partition(&mut InMemoryStream::new(g)).unwrap();
            })
        };
        let (a_small, a_large) = (count(&small), count(&large));
        assert_eq!(
            a_small, a_large,
            "{spec}: allocation count depends on n ({a_small} for n=2000, {a_large} for \
             n=8000): a per-node allocation crept into the tree-descent kernel"
        );
    }
}
