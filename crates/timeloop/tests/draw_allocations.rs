//! Heap allocations of one random-mapper draw.
//!
//! Random search and BB-BO draw, check and evaluate millions of mappings per
//! job. These tests count heap allocations with a counting global allocator
//! and assert that `MapSampler::draw`, `fits` and `evaluate_layer` allocate
//! nothing, and that neither does `LayerEvaluator::evaluate_below`, whether
//! its bound skips the draw or it evaluates it, for every unique ResNet-50
//! layer. Only building the sampler allocates, once per layer and design. A
//! draw that allocated would keep the worker's allocator busy, and with it
//! any thread sharing its arena.

use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_timeloop::{evaluate_layer, fits, LayerEvaluator, MapSampler};
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

#[test]
fn a_bounded_skip_and_a_bounded_evaluation_allocate_nothing() {
    let hier = Hierarchy::gemmini();
    let hw = HardwareConfig::gemmini_default();
    let mut rng = StdRng::seed_from_u64(7);
    let mut checked = 0;
    for layer in unique_layers(Network::ResNet50) {
        let p = &layer.problem;
        let sampler = MapSampler::new(p, &hier, hw.pe_side());
        let (eval, n) = allocations(|| LayerEvaluator::new(p, &hw, &hier));
        assert_eq!(n, 0, "LayerEvaluator::new allocated on {}", p.name());
        for _ in 0..50 {
            let (m, n) = allocations(|| sampler.draw(&mut rng));
            assert_eq!(n, 0, "MapSampler::draw allocated on {}", p.name());
            if !fits(p, &m, &hw, &hier) {
                continue;
            }
            let bound = eval.edp_lower_bound(&m);
            let (skip, n) = allocations(|| eval.evaluate_below(&m, bound));
            assert!(skip.is_none(), "a threshold at the bound must skip");
            assert_eq!(n, 0, "a bounded skip allocated on {}", p.name());
            let (perf, n) = allocations(|| eval.evaluate_below(&m, f64::INFINITY));
            assert!(perf.is_some_and(|perf| perf.energy_uj > 0.0));
            assert_eq!(n, 0, "a bounded evaluation allocated on {}", p.name());
            checked += 1;
        }
    }
    assert!(checked > 0, "no draw fit; the test checked nothing");
}
