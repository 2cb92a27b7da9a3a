//! Figure 7 harness bench: regenerates the three-searcher comparison on a
//! reduced BERT workload (printed once), then times one joint random-search
//! sample (the baselines' unit of work): a draw from each layer's
//! prebuilt sampler, the fit check and the reference evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use dosa_accel::Hierarchy;
use dosa_search::{
    bayesian_search, dosa_search, random_hw, random_search, BbboConfig, GdConfig,
    RandomSearchConfig, SearchService,
};
use dosa_timeloop::{evaluate_layer, fits, MapSampler};
use dosa_workload::{unique_layers, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().build();
    let layers = unique_layers(Network::Bert);

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
    let random = random_search(
        &service,
        &layers,
        &hier,
        &RandomSearchConfig {
            num_hw: 2,
            samples_per_hw: 60,
            seed: 0,
        },
    );
    let bo = bayesian_search(
        &service,
        &layers,
        &hier,
        &BbboConfig {
            num_hw: 4,
            init_random: 2,
            samples_per_hw: 30,
            candidates: 50,
            seed: 0,
        },
    );
    println!(
        "fig7 mini (BERT): DOSA {:.3e} | Random {:.3e} | BB-BO {:.3e}",
        dosa.best_edp, random.best_edp, bo.best_edp
    );

    // One sampler per layer, built once per design as the searches do.
    let mut rng = StdRng::seed_from_u64(1);
    let hw = random_hw(&mut rng);
    let samplers: Vec<MapSampler> = layers
        .iter()
        .map(|l| MapSampler::new(&l.problem, &hier, hw.pe_side()))
        .collect();
    c.bench_function("fig7_joint_random_sample", |b| {
        b.iter(|| {
            for (layer, sampler) in layers.iter().zip(&samplers) {
                let m = sampler.draw(&mut rng);
                if fits(&layer.problem, &m, &hw, &hier) {
                    black_box(evaluate_layer(&layer.problem, &m, &hw, &hier));
                }
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
