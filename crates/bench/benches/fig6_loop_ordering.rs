//! Figure 6 harness bench: regenerates the loop-ordering comparison on a
//! reduced BERT run (printed once), then times one gradient step under the
//! softmax-ordering loss.

use criterion::{criterion_group, criterion_main, Criterion};
use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_autodiff::Tape;
use dosa_model::{build_loss, LossOptions, RelaxedMapping};
use dosa_search::{cosa_mapping, dosa_search, GdConfig, LoopOrderStrategy, SearchService};
use dosa_workload::{unique_layers, Network};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().build();
    let layers: Vec<_> = unique_layers(Network::Bert).into_iter().take(3).collect();
    for strat in [
        LoopOrderStrategy::Baseline,
        LoopOrderStrategy::Iterate,
        LoopOrderStrategy::Softmax,
    ] {
        let cfg = GdConfig {
            start_points: 1,
            steps_per_start: 90,
            round_every: 45,
            strategy: strat,
            ..GdConfig::default()
        };
        let res = dosa_search(&service, &layers, &hier, &cfg);
        println!("fig6 mini {strat:?}: best EDP {:.3e}", res.best_edp);
    }

    let hw = HardwareConfig::gemmini_default();
    let relaxed: Vec<RelaxedMapping> = layers
        .iter()
        .map(|l| RelaxedMapping::from_mapping(&cosa_mapping(&l.problem, &hw, &hier)))
        .collect();
    let tape = Tape::new();
    let opts = LossOptions {
        softmax_ordering: true,
        ..LossOptions::default()
    };
    c.bench_function("fig6_softmax_gd_step", |b| {
        b.iter(|| {
            tape.clear();
            let built = build_loss(&tape, &layers, &relaxed, &hier, &opts);
            black_box(tape.backward(built.loss))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
