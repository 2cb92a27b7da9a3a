//! Figure 8 harness bench: regenerates the expert-baseline comparison on a
//! reduced BERT workload (printed once), then times a random-pruned mapper
//! search on one baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use dosa_accel::{all_baselines, Hierarchy};
use dosa_search::{dosa_search, evaluate_with_random_mapper, GdConfig, SearchService};
use dosa_timeloop::random_pruned_search;
use dosa_workload::{unique_layers, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().build();
    let layers = unique_layers(Network::Bert);

    for baseline in all_baselines() {
        let perf = evaluate_with_random_mapper(&layers, &baseline.config, &hier, 100, 3);
        println!("fig8 mini {}: EDP {:.3e}", baseline.name, perf.edp());
    }
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
    println!("fig8 mini Gemmini DOSA: EDP {:.3e}", dosa.best_edp);

    let eyeriss = all_baselines()[0];
    let mut rng = StdRng::seed_from_u64(5);
    c.bench_function("fig8_random_pruned_mapper_50", |b| {
        b.iter(|| {
            black_box(random_pruned_search(
                &mut rng,
                &layers[0].problem,
                &eyeriss.config,
                &hier,
                50,
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
