//! Criterion benchmark of one BB-BO proposal step's scoring: expected
//! improvement of 1,000 random hardware candidates under a Gaussian
//! process fit to 99 observed designs (the last step of the paper's
//! 100-design budget), then the first-maximum pick. It compares
//! per-candidate `GaussianProcess::expected_improvement` calls against the
//! lane-batched `EiScorer`, which returns the same bits.

use criterion::{criterion_group, criterion_main, Criterion};
use dosa_accel::HardwareConfig;
use dosa_search::{random_hw, GaussianProcess};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// BB-BO's GP input features of a design.
fn features(hw: &HardwareConfig) -> [f64; 3] {
    [
        (hw.pe_side() as f64).ln(),
        hw.acc_kb().ln(),
        hw.spad_kb().ln(),
    ]
}

/// Index of the first maximum, as BB-BO picks it.
fn first_max(scores: impl Iterator<Item = f64>) -> usize {
    let mut pick = (0, f64::NEG_INFINITY);
    for (i, ei) in scores.enumerate() {
        if ei > pick.1 {
            pick = (i, ei);
        }
    }
    pick.0
}

fn bench(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let xs: Vec<Vec<f64>> = (0..99)
        .map(|_| features(&random_hw(&mut rng)).to_vec())
        .collect();
    let ys: Vec<f64> = (0..99).map(|_| rng.gen_range(20.0..40.0)).collect();
    let best = ys.iter().cloned().fold(f64::INFINITY, f64::min);
    let gp = GaussianProcess::fit(xs, ys, 1.0, 0.05);
    let cands: Vec<[f64; 3]> = (0..1000).map(|_| features(&random_hw(&mut rng))).collect();

    c.bench_function("ei_step_99obs_1000cands_per_candidate", |b| {
        b.iter(|| first_max(cands.iter().map(|x| gp.expected_improvement(x, best))))
    });
    let mut scores = Vec::with_capacity(cands.len());
    c.bench_function("ei_step_99obs_1000cands_batch", |b| {
        b.iter(|| {
            scores.clear();
            gp.ei_scorer(best).score_into(&cands, &mut scores);
            first_max(scores.iter().copied())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
