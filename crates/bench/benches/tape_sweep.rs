//! Criterion microbenchmarks of the autodiff tape itself: forward
//! recording of the model loss and the backward sweep on the node-record
//! tape, at several depths.
//!
//! The authoritative medians live in `BENCH_6.json` (regenerated by
//! `repro bench`); this bench is the interactive view of the same kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use dosa_accel::Hierarchy;
use dosa_autodiff::{Tape, Var};
use dosa_bench::perf::{fixture_layers, fixture_starts, LAYER_COUNTS};
use dosa_model::{analytical, build_loss_with, LossOptions};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let hier = Hierarchy::gemmini();
    let opts = LossOptions::default();
    for n in LAYER_COUNTS {
        let layers = fixture_layers(n);
        let relaxed = fixture_starts(&layers);

        let tape = Tape::new();
        let mut leaves: Vec<Var<'_>> = Vec::new();
        c.bench_function(&format!("tape_record_{n}layers"), |b| {
            b.iter(|| {
                tape.clear();
                leaves.clear();
                let built = build_loss_with(
                    &tape,
                    &layers,
                    &relaxed,
                    &hier,
                    &opts,
                    &mut leaves,
                    analytical,
                );
                black_box(built.loss.value())
            })
        });

        tape.clear();
        leaves.clear();
        let built = build_loss_with(
            &tape,
            &layers,
            &relaxed,
            &hier,
            &opts,
            &mut leaves,
            analytical,
        );
        let loss = built.loss;
        let mut adj: Vec<f64> = Vec::new();
        c.bench_function(&format!("tape_sweep_{n}layers"), |b| {
            b.iter(|| {
                let view = tape.backward_into(loss, &mut adj);
                black_box(view.wrt(leaves[0]))
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
