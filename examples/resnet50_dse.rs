//! Full-model design-space exploration for ResNet-50: DOSA's one-loop
//! search against the random-search baseline, with the best design compared
//! to Gemmini's hand-tuned default (the Figure 7 / Figure 8 workflow on one
//! workload). The DOSA run goes through the search service so its best-EDP
//! trajectory can be watched live while the worker fleet descends.
//!
//! ```text
//! cargo run --release --example resnet50_dse [-- steps]
//! ```

use dosa::prelude::*;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let steps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);

    let layers = unique_layers(Network::ResNet50);
    let hier = Hierarchy::gemmini();
    println!(
        "ResNet-50: {} unique layers, {:.2} GMACs",
        layers.len(),
        layers
            .iter()
            .map(|l| l.problem.macs() * l.count)
            .sum::<u64>() as f64
            / 1e9
    );

    // DOSA one-loop gradient descent, submitted as a service job and
    // observed while it runs (progress() is non-blocking and monotone).
    let cfg = GdConfig {
        start_points: 2,
        steps_per_start: steps,
        round_every: (steps / 3).max(1),
        ..GdConfig::default()
    };
    let service = SearchService::builder().build();
    let job = service.submit(
        SearchRequest::builder(hier.clone())
            .network("resnet50", layers.clone())
            .config(cfg)
            .build(),
    )?;
    while !job.status().is_terminal() {
        let p = job.progress();
        if p.total_samples() > 0 {
            let best = p.best_edp();
            if best.is_finite() {
                println!(
                    "  live: {:>6} samples, best EDP {best:.4e}",
                    p.total_samples()
                );
            } else {
                println!(
                    "  live: {:>6} samples, first rounding pending",
                    p.total_samples()
                );
            }
        }
        std::thread::sleep(Duration::from_millis(300));
    }
    let dosa = job.wait().unwrap().into_single();
    println!(
        "\nDOSA:   best EDP {:.4e} after {} samples on {}",
        dosa.best_edp, dosa.samples, dosa.best_hw
    );

    // Random search with a similar sample budget.
    let rs_cfg = RandomSearchConfig {
        num_hw: 4,
        samples_per_hw: dosa.samples / 4,
        seed: 7,
    };
    let random = random_search(&service, &layers, &hier, &rs_cfg);
    println!(
        "Random: best EDP {:.4e} after {} samples on {}",
        random.best_edp, random.samples, random.best_hw
    );
    println!(
        "DOSA improvement over random search: {:.2}x",
        random.best_edp / dosa.best_edp
    );

    // Compare against the hand-tuned Gemmini default with its heuristic
    // mapper (CoSA substitute), like Figure 8's last two bars.
    let default_hw = HardwareConfig::gemmini_default();
    let default_mappings: Vec<Mapping> = layers
        .iter()
        .map(|l| cosa_mapping(&l.problem, &default_hw, &hier))
        .collect();
    let default_perf = evaluate_model(&layers, &default_mappings, &default_hw, &hier);
    println!(
        "\nGemmini default ({default_hw}): EDP {:.4e} => DOSA is {:.2}x better",
        default_perf.edp(),
        default_perf.edp() / dosa.best_edp
    );
    Ok(())
}
