//! Heap allocations of batch expected-improvement scoring.
//!
//! Every BB-BO proposal step scores a thousand candidates against a fresh
//! Gaussian process. This test counts heap allocations with a counting
//! global allocator and asserts that an [`EiScorer`] allocates its buffers
//! once, when it is made: scoring 8 or 1,000 candidates into a reused
//! output buffer makes the same number of allocations, so none is made
//! per candidate.

use dosa_search::GaussianProcess;
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

/// A deterministic 3-feature point cloud (no RNG, so the fixture itself
/// is allocation-stable).
fn point(i: usize) -> [f64; 3] {
    let t = i as f64;
    [
        (t * 0.37).sin() * 2.0,
        (t * 0.11).cos() + 3.0,
        (t * 0.23).sin() - 1.0,
    ]
}

#[test]
fn scoring_allocates_only_when_the_scorer_is_made() {
    let xs: Vec<Vec<f64>> = (0..99).map(|i| point(i).to_vec()).collect();
    let ys: Vec<f64> = (0..99).map(|i| (i as f64 * 0.7).sin() + 25.0).collect();
    let gp = GaussianProcess::fit(xs, ys, 1.0, 0.05);
    let few: Vec<[f64; 3]> = (0..8).map(|i| point(1000 + i)).collect();
    let many: Vec<[f64; 3]> = (0..1000).map(|i| point(1000 + i)).collect();
    let mut out = Vec::with_capacity(many.len());

    let (_, made) = allocations(|| gp.ei_scorer(24.5));
    let mut counts = Vec::new();
    for cands in [&few, &many, &few] {
        out.clear();
        let ((), n) = allocations(|| gp.ei_scorer(24.5).score_into(cands, &mut out));
        assert_eq!(out.len(), cands.len());
        counts.push(n);
    }
    assert_eq!(
        counts, [made; 3],
        "allocations scoring 8, 1000, 8 candidates"
    );

    // A scorer kept across calls allocates nothing more.
    let mut scorer = gp.ei_scorer(24.5);
    out.clear();
    let ((), n) = allocations(|| scorer.score_into(&many, &mut out));
    assert_eq!(n, 0, "scoring 1000 candidates with a made scorer");
}
