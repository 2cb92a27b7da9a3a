//! A miniature Figure 7 through one request API: the three search
//! strategies — DOSA's differentiable gradient descent, random search,
//! and Spotlight-style BB-BO — each submitted as one batched job over the
//! same two networks to a single `SearchService`, with live progress and
//! a final comparison table.
//!
//! Every (network, strategy) result is bit-identical to a standalone run
//! with the same seed, for any service thread budget; the example
//! spot-checks that for the random strategy at the end.
//!
//! ```text
//! cargo run --release --example strategy_comparison
//! ```

use dosa::prelude::*;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(4).build();

    // Two small networks shared by all three strategy jobs.
    let resnet_subset: Vec<Layer> = unique_layers(Network::ResNet50)
        .into_iter()
        .take(3)
        .collect();
    let gemm = vec![Layer::once(Problem::matmul("gemm", 64, 256, 256)?)];
    let networks = [("resnet50-subset", &resnet_subset), ("gemm", &gemm)];

    // Reduced budgets so the example finishes in seconds. Roughly equal
    // sample counts per strategy keep the comparison fair-ish.
    let strategies = [
        (
            "gradient-descent",
            Strategy::GradientDescent(GdConfig {
                start_points: 2,
                steps_per_start: 150,
                round_every: 50,
                ..GdConfig::default()
            }),
        ),
        (
            "random",
            Strategy::Random(RandomSearchConfig {
                num_hw: 4,
                samples_per_hw: 80,
                seed: 0,
            }),
        ),
        (
            "bayes-opt",
            Strategy::BayesOpt(BbboConfig {
                num_hw: 8,
                init_random: 3,
                samples_per_hw: 40,
                candidates: 100,
                seed: 0,
            }),
        ),
    ];

    // Submit all three jobs up front; the service runs them concurrently,
    // each fanning its work items (starts / designs / inner samples) into
    // the same 4-slot worker budget — results don't depend on how the
    // jobs interleave.
    let jobs: Vec<(&str, JobHandle)> = strategies
        .iter()
        .map(|(label, strategy)| {
            let mut builder = SearchRequest::builder(hier.clone()).strategy(strategy.clone());
            for (i, (name, layers)) in networks.iter().enumerate() {
                builder = builder.network_seeded(*name, (*layers).clone(), 1 + i as u64);
            }
            let job = service.submit(builder.build()).expect("valid request");
            println!("submitted {label} as job {}", job.id());
            (*label, job)
        })
        .collect();

    // Watch each job drain, in submission order.
    for (label, job) in &jobs {
        while !job.status().is_terminal() {
            let p = job.progress();
            println!(
                "  [{label} {:?}] {} samples, best {}",
                p.status,
                p.total_samples(),
                if p.best_edp().is_finite() {
                    format!("{:.3e}", p.best_edp())
                } else {
                    "-".to_string()
                }
            );
            std::thread::sleep(Duration::from_millis(200));
        }
    }

    // The mini Figure 7: final EDP per (network, strategy).
    println!("\nfinal best EDP (uJ*cycles):");
    let mut finals: Vec<(&str, Vec<f64>)> = Vec::new();
    for (label, job) in &jobs {
        let batch = job.wait().unwrap();
        let edps: Vec<f64> = networks
            .iter()
            .map(|(name, _)| batch.get(name).expect("network present").best_edp)
            .collect();
        finals.push((label, edps));
    }
    for (i, (name, _)) in networks.iter().enumerate() {
        let dosa = finals[0].1[i];
        let row: Vec<String> = finals
            .iter()
            .map(|(label, edps)| format!("{label} {:.3e} (x{:.2})", edps[i], edps[i] / dosa))
            .collect();
        println!("  {:<16} {}", name, row.join(" | "));
    }

    // The strategy guarantee, spot-checked: a batched random-search
    // network equals the standalone free function with the same seed.
    let (_, random_job) = &jobs[1];
    let standalone = random_search(
        &service,
        &gemm,
        &hier,
        &RandomSearchConfig {
            num_hw: 4,
            samples_per_hw: 80,
            seed: 2, // the gemm entry's per-network seed
        },
    );
    let batched = random_job.wait().unwrap();
    let batched_gemm = batched.get("gemm").expect("present");
    assert_eq!(
        batched_gemm.best_edp.to_bits(),
        standalone.best_edp.to_bits()
    );
    assert_eq!(batched_gemm.history, standalone.history);
    println!(
        "\nbit-parity check passed: batched random == standalone ({:.4e})",
        standalone.best_edp
    );
    Ok(())
}
