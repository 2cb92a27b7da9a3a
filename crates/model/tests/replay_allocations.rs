//! Heap allocations of one replayed gradient step.
//!
//! A replayed step re-evaluates a recorded tape on new leaf values
//! (`Tape::replay_stem`, `Tape::guards_hold`, `Tape::replay`), sweeps it
//! with `Tape::backward_into` and gathers the leaf gradients, all into
//! buffers reused from the step before. This test counts the heap
//! allocations of the third such step with a counting global allocator:
//! there must be none, for 1, 2 and 21 ResNet-50 layers, under both
//! loop-ordering losses.

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

/// Allocations made by the third replayed step of one recording.
fn third_replay_allocations(layers: &[Layer], opts: &LossOptions) -> u64 {
    let relaxed = vec![RelaxedMapping::identity(Stationarity::WeightStationary); layers.len()];
    let hier = Hierarchy::gemmini();
    let tape = Tape::new();
    let mut leaves: Vec<Var<'_>> = Vec::new();
    let built = build_loss_with(
        &tape,
        layers,
        &relaxed,
        &hier,
        opts,
        &mut leaves,
        analytical,
    );
    let mut params: Vec<f64> = Vec::new();
    for r in &relaxed {
        r.params_into(&mut params);
    }
    let (mut values, mut adj, mut grads) = (Vec::new(), Vec::new(), Vec::new());
    let mut count = 0;
    for _ in 0..3 {
        let before = ALLOCS.with(Cell::get);
        tape.replay_stem(&params, &mut values);
        assert!(tape.guards_hold(&values));
        let loss = tape.replay(tape.stem_len(), built.loss, &params, &mut values);
        tape.backward_into(built.loss, &mut adj)
            .wrt_into(&leaves, &mut grads);
        count = ALLOCS.with(Cell::get) - before;
        assert_eq!(loss.to_bits(), built.loss.value().to_bits());
    }
    count
}

#[test]
fn replayed_steps_do_not_allocate() {
    let resnet = unique_layers(Network::ResNet50);
    for softmax_ordering in [false, true] {
        let opts = LossOptions {
            softmax_ordering,
            ..LossOptions::default()
        };
        let counts: Vec<u64> = [1, 2, resnet.len()]
            .iter()
            .map(|&n| third_replay_allocations(&resnet[..n], &opts))
            .collect();
        assert_eq!(
            counts,
            [0, 0, 0],
            "softmax_ordering = {softmax_ordering}: allocations per replayed step for 1/2/21 layers"
        );
    }
}
