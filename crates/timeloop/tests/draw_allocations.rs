//! Heap allocations of one random-mapper draw.
//!
//! Random search and BB-BO draw, check and evaluate millions of mappings per
//! job. This test counts heap allocations with a counting global allocator
//! and asserts that `MapSampler::draw`, `fits` and `evaluate_layer` allocate
//! nothing, for every unique ResNet-50 layer. Only building the sampler
//! allocates, once per layer and design. A draw that allocated would keep
//! the worker's allocator busy, and with it any thread sharing its arena.

use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_timeloop::{evaluate_layer, fits, MapSampler};
use dosa_workload::{unique_layers, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations made on the current thread
/// (so the test harness's own threads cannot perturb the count).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialised thread-local `Cell` that never allocates. The default
// `alloc_zeroed` goes through `alloc`, so it is counted.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    // SAFETY: forwarded verbatim; `ptr` came from `alloc`, that is from
    // `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwarded verbatim; `ptr` came from `System` with `layout`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn a_draw_allocates_nothing() {
    let hier = Hierarchy::gemmini();
    let hw = HardwareConfig::gemmini_default();
    let mut rng = StdRng::seed_from_u64(7);
    let mut evaluated = 0;
    for layer in unique_layers(Network::ResNet50) {
        let p = &layer.problem;
        let sampler = MapSampler::new(p, &hier, hw.pe_side());
        for _ in 0..50 {
            let (m, n) = allocations(|| sampler.draw(&mut rng));
            assert_eq!(n, 0, "MapSampler::draw allocated on {}", p.name());
            let (ok, n) = allocations(|| fits(p, &m, &hw, &hier));
            assert_eq!(n, 0, "fits allocated on {}", p.name());
            if ok {
                let (perf, n) = allocations(|| evaluate_layer(p, &m, &hw, &hier));
                assert!(perf.energy_uj > 0.0);
                assert_eq!(n, 0, "evaluate_layer allocated on {}", p.name());
                evaluated += 1;
            }
        }
    }
    assert!(evaluated > 0, "no draw fit; the test checked nothing");
}
