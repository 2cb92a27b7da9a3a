//! Heap allocations of one recorded gradient step.
//!
//! A descent step re-records the loss on a reused tape and leaf buffer.
//! This test counts the heap allocations of the third such
//! `build_loss_with` (the first two grow the reused buffers) with a counting
//! global allocator, and asserts that the count does not depend on the
//! number of layers: 1, 2 and 21 ResNet-50 layers must allocate equally
//! often, under both loop-ordering losses. Whatever a step still allocates
//! is per step, never per layer.

use dosa_accel::Hierarchy;
use dosa_autodiff::{Tape, Var};
use dosa_model::{analytical, build_loss_with, LossOptions, RelaxedMapping};
use dosa_timeloop::Stationarity;
use dosa_workload::{unique_layers, Layer, Network};
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

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialised thread-local `Cell` that never allocates. The default
// `alloc_zeroed` and `realloc` go through `alloc`, so they are counted.
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
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by the third `build_loss_with` on one reused tape and
/// leaf buffer.
fn third_step_allocations(layers: &[Layer], opts: &LossOptions) -> u64 {
    let relaxed = vec![RelaxedMapping::identity(Stationarity::WeightStationary); layers.len()];
    let hier = Hierarchy::gemmini();
    let tape = Tape::new();
    let mut leaves: Vec<Var<'_>> = Vec::new();
    let mut count = 0;
    for _ in 0..3 {
        tape.clear();
        leaves.clear();
        let before = ALLOCS.with(Cell::get);
        let built = build_loss_with(
            &tape,
            layers,
            &relaxed,
            &hier,
            opts,
            &mut leaves,
            analytical,
        );
        count = ALLOCS.with(Cell::get) - before;
        assert!(built.loss.value().is_finite());
    }
    count
}

#[test]
fn step_allocations_do_not_grow_with_layers() {
    let resnet = unique_layers(Network::ResNet50);
    for softmax_ordering in [false, true] {
        let opts = LossOptions {
            softmax_ordering,
            ..LossOptions::default()
        };
        let counts: Vec<u64> = [1, 2, resnet.len()]
            .iter()
            .map(|&n| third_step_allocations(&resnet[..n], &opts))
            .collect();
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "softmax_ordering = {softmax_ordering}: allocations per step for \
             1/2/21 layers are {counts:?}"
        );
    }
}
