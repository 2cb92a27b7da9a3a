//! Figure 9 harness bench: regenerates the hardware/mapping attribution on
//! a reduced workload (printed once), then times the CoSA constant mapper.

use criterion::{criterion_group, criterion_main, Criterion};
use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_search::{cosa_mapping, dosa_search, evaluate_with_cosa, GdConfig, SearchService};
use dosa_workload::{unique_layers, Network};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().build();
    let layers: Vec<_> = unique_layers(Network::Bert).into_iter().take(4).collect();

    let dosa = dosa_search(
        &service,
        &layers,
        &hier,
        &GdConfig {
            start_points: 1,
            steps_per_start: 120,
            round_every: 60,
            ..GdConfig::default()
        },
    );
    let cosa_on_dosa_hw = evaluate_with_cosa(&layers, &dosa.best_hw, &hier);
    println!(
        "fig9 mini: DOSA full {:.3e} | DOSA HW + CoSA {:.3e} ({:.2}x gap from mapping search)",
        dosa.best_edp,
        cosa_on_dosa_hw.edp(),
        cosa_on_dosa_hw.edp() / dosa.best_edp
    );

    let hw = HardwareConfig::gemmini_default();
    c.bench_function("fig9_cosa_constant_mapper", |b| {
        b.iter(|| {
            for l in &layers {
                black_box(cosa_mapping(&l.problem, &hw, &hier));
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
