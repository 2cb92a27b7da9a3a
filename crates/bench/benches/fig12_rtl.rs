//! Figure 12 harness bench: a reduced fixed-PE RTL optimization on BERT
//! (printed once, including the Table 7-style buffer choice), then times
//! one RTL-model gradient step.

use criterion::{criterion_group, criterion_main, Criterion};
use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_rtl::RtlConfig;
use dosa_search::{
    cosa_mapping, dosa_search_rtl, evaluate_rtl, GdConfig, LatencyPredictor, SearchService,
};
use dosa_timeloop::Mapping;
use dosa_workload::{unique_layers, Network};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().build();
    let rtl_cfg = RtlConfig::default();
    let layers = unique_layers(Network::Bert);

    let default_hw = HardwareConfig::gemmini_default();
    let default_maps: Vec<Mapping> = layers
        .iter()
        .map(|l| cosa_mapping(&l.problem, &default_hw, &hier))
        .collect();
    let default = evaluate_rtl(&layers, &default_maps, &default_hw, &hier, &rtl_cfg);

    let cfg = GdConfig {
        start_points: 1,
        steps_per_start: 120,
        round_every: 60,
        fixed_pe_side: Some(16),
        ..GdConfig::default()
    };
    let res = dosa_search_rtl(
        &service,
        &layers,
        &hier,
        &cfg,
        &LatencyPredictor::analytical(),
    );
    let measured = evaluate_rtl(&layers, &res.best_mappings, &res.best_hw, &hier, &rtl_cfg);
    println!(
        "fig12 mini (BERT): default {:.3e} | DOSA analytical {:.3e} ({:.2}x) | buffers {}",
        default.edp(),
        measured.edp(),
        default.edp() / measured.edp(),
        res.best_hw
    );

    c.bench_function("fig12_rtl_gd_steps_10", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let cfg = GdConfig {
                start_points: 1,
                steps_per_start: 10,
                round_every: 10,
                fixed_pe_side: Some(16),
                seed,
                ..GdConfig::default()
            };
            black_box(dosa_search_rtl(
                &service,
                &layers[..2],
                &hier,
                &cfg,
                &LatencyPredictor::analytical(),
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
