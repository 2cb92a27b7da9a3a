//! End-to-end descent-step benchmark: set params, record the loss,
//! backward sweep, gather gradients, update — the per-step work of a
//! recording step of the engine's `run_segment` — at several depths. The
//! `gd_step_replay` cases run the same step through the engine's
//! `ProgramCache`, which replays the recorded program while its guards
//! hold and records again when they do not.
//!
//! The authoritative medians live in `BENCH_6.json`, regenerated only by
//! `repro bench`; this bench is the interactive view of the same kernels
//! and writes no file.

use criterion::{criterion_group, criterion_main, Criterion};
use dosa_accel::Hierarchy;
use dosa_autodiff::{Tape, Var};
use dosa_bench::perf::{fixture_layers, fixture_starts, LAYER_COUNTS};
use dosa_model::{analytical, build_loss_with, LossOptions, PARAMS_PER_LAYER};
use dosa_search::{EdpLoss, LoopOrderStrategy, ProgramCache, PROGRAM_SLOTS};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let hier = Hierarchy::gemmini();
    let opts = LossOptions::default();
    for n in LAYER_COUNTS {
        let layers = fixture_layers(n);

        let tape = Tape::new();
        let mut leaves: Vec<Var<'_>> = Vec::new();
        let mut adj: Vec<f64> = Vec::new();
        let mut relaxed = fixture_starts(&layers);
        let mut params: Vec<f64> = Vec::new();
        for r in &relaxed {
            r.params_into(&mut params);
        }
        let mut flat: Vec<f64> = Vec::new();
        c.bench_function(&format!("gd_step_{n}layers"), |b| {
            b.iter(|| {
                for (r, chunk) in relaxed.iter_mut().zip(params.chunks(PARAMS_PER_LAYER)) {
                    r.set_params(chunk);
                }
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
                let view = tape.backward_into(built.loss, &mut adj);
                view.wrt_into(&leaves, &mut flat);
                for (p, g) in params.iter_mut().zip(&flat) {
                    if g.is_finite() {
                        *p -= 1e-4 * g;
                    }
                }
                black_box(params[0])
            })
        });

        let loss = EdpLoss {
            layers: &layers,
            hier: &hier,
            opts,
            strategy: LoopOrderStrategy::Iterate,
            fixed_pe_side: None,
            spatial_cap: dosa_accel::MAX_PE_SIDE,
        };
        let tapes: [Tape; PROGRAM_SLOTS] = Default::default();
        let mut programs = ProgramCache::new(&tapes);
        let mut relaxed = fixture_starts(&layers);
        let mut params: Vec<f64> = Vec::new();
        for r in &relaxed {
            r.params_into(&mut params);
        }
        c.bench_function(&format!("gd_step_replay_{n}layers"), |b| {
            b.iter(|| {
                programs.step(&loss, &mut relaxed, &params, &mut flat);
                for (p, g) in params.iter_mut().zip(&flat) {
                    if g.is_finite() {
                        *p -= 1e-4 * g;
                    }
                }
                black_box(params[0])
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
