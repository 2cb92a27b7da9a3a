//! Figure 7: DOSA vs random search vs Bayesian optimization on the four
//! target workloads (best EDP versus number of model evaluations, mean of
//! 5 runs with 95% CI).
//!
//! Paper headline: at ~10k samples DOSA is 2.80× better than random search
//! and 12.59× better than BB-BO (geometric mean over workloads).

use crate::fig6::mean_curve;
use crate::plot::{ascii_log_chart, geomean, write_csv, Series};
use crate::scale::Scale;
use dosa_accel::Hierarchy;
use dosa_search::{JobHandle, SearchRequest, SearchResult, SearchService, Strategy};
use dosa_workload::{unique_layers, Layer, Network};
use std::path::Path;

/// Aggregated outcome of one searcher on one workload.
#[derive(Debug, Clone)]
pub struct SearcherOutcome {
    /// Searcher label ("DOSA" / "Random" / "BB-BO").
    pub label: &'static str,
    /// Geometric-mean final best EDP across runs.
    pub final_edp: f64,
    /// Mean best-so-far curve.
    pub curve: Vec<(f64, f64)>,
    /// The per-run results (for downstream reuse, e.g. Figure 8).
    pub runs: Vec<SearchResult>,
}

/// Per-workload Figure 7 result.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Workload evaluated.
    pub network: Network,
    /// DOSA, Random, BB-BO outcomes in that order.
    pub outcomes: Vec<SearcherOutcome>,
}

impl Fig7Result {
    /// Final-EDP ratio of `label` over DOSA.
    pub fn ratio_vs_dosa(&self, label: &str) -> f64 {
        let dosa = self.outcomes[0].final_edp;
        let other = self
            .outcomes
            .iter()
            .find(|o| o.label == label)
            .map(|o| o.final_edp)
            .unwrap_or(f64::NAN);
        other / dosa
    }
}

/// Submit one searcher's repeated runs as a single batched service job
/// (entries `run0..runN`, seeded `base_seed + r` — the same per-run seeds
/// the standalone drivers used).
fn submit_runs(
    service: &SearchService,
    layers: &[Layer],
    strategy: Strategy,
    runs: usize,
    base_seed: u64,
) -> JobHandle {
    let mut builder = SearchRequest::builder(Hierarchy::gemmini()).strategy(strategy);
    for r in 0..runs {
        builder = builder.network_seeded(format!("run{r}"), layers.to_vec(), base_seed + r as u64);
    }
    service
        .submit(builder.build())
        .expect("scale presets always validate")
}

fn collect_runs(job: JobHandle) -> Vec<SearchResult> {
    job.wait()
        .expect("strategy job failed")
        .networks
        .into_iter()
        .map(|n| n.result)
        .collect()
}

/// Run Figure 7 for one workload: the three searchers are three batched
/// [`Strategy`] jobs queued on one service (each run a batch entry), not
/// three hand-rolled loops. Every run is bit-identical to a standalone
/// submission with the same seed.
pub fn run_network(
    service: &SearchService,
    scale: Scale,
    network: Network,
    seed: u64,
    out_dir: &Path,
) -> Fig7Result {
    let layers = unique_layers(network);
    let runs = scale.runs(5);

    // All three jobs are submitted up front and run concurrently, their
    // work items sharing the service's worker slots; results are
    // interleaving-invariant, so this only shortens wall-clock time.
    let dosa_job = submit_runs(
        service,
        &layers,
        Strategy::GradientDescent(scale.gd_main(seed)),
        runs,
        seed,
    );
    let random_job = submit_runs(
        service,
        &layers,
        Strategy::Random(scale.random_search(seed)),
        runs,
        seed + 100,
    );
    let bbbo_job = submit_runs(
        service,
        &layers,
        Strategy::BayesOpt(scale.bbbo(seed)),
        runs,
        seed + 200,
    );
    let dosa_runs = collect_runs(dosa_job);
    let random_runs = collect_runs(random_job);
    let bbbo_runs = collect_runs(bbbo_job);

    let mut outcomes = Vec::new();
    let mut csv_rows = Vec::new();
    for (label, rs) in [
        ("DOSA", dosa_runs),
        ("Random", random_runs),
        ("BB-BO", bbbo_runs),
    ] {
        let finals: Vec<f64> = rs.iter().map(|r| r.best_edp).collect();
        let curve = mean_curve(&rs, 40);
        for (x, y) in &curve {
            csv_rows.push(vec![
                network.name().to_string(),
                label.to_string(),
                format!("{x:.0}"),
                format!("{y:.6e}"),
            ]);
        }
        outcomes.push(SearcherOutcome {
            label,
            final_edp: geomean(&finals),
            curve,
            runs: rs,
        });
    }
    write_csv(
        out_dir,
        &format!(
            "fig7_{}.csv",
            network.name().to_ascii_lowercase().replace('-', "")
        ),
        &["network", "searcher", "samples", "best_edp"],
        &csv_rows,
    );

    let series: Vec<Series> = outcomes
        .iter()
        .map(|o| Series {
            label: o.label.to_string(),
            points: o.curve.clone(),
        })
        .collect();
    println!(
        "{}",
        ascii_log_chart(
            &format!("Figure 7 ({}) — EDP vs samples", network.name()),
            &series,
            64,
            14
        )
    );
    let result = Fig7Result { network, outcomes };
    println!(
        "  final EDP: DOSA {:.3e} | Random {:.3e} (x{:.2}) | BB-BO {:.3e} (x{:.2})\n",
        result.outcomes[0].final_edp,
        result.outcomes[1].final_edp,
        result.ratio_vs_dosa("Random"),
        result.outcomes[2].final_edp,
        result.ratio_vs_dosa("BB-BO"),
    );
    result
}

/// Run Figure 7 across all four target workloads and report the geometric
/// mean improvements.
pub fn run(service: &SearchService, scale: Scale, seed: u64, out_dir: &Path) -> Vec<Fig7Result> {
    let results: Vec<Fig7Result> = Network::TARGETS
        .into_iter()
        .map(|n| run_network(service, scale, n, seed, out_dir))
        .collect();
    let vs_random: Vec<f64> = results.iter().map(|r| r.ratio_vs_dosa("Random")).collect();
    let vs_bbbo: Vec<f64> = results.iter().map(|r| r.ratio_vs_dosa("BB-BO")).collect();
    println!(
        "Figure 7 summary — geomean EDP improvement of DOSA: {:.2}x vs random, {:.2}x vs BB-BO",
        geomean(&vs_random),
        geomean(&vs_bbbo)
    );
    println!("  paper: 2.80x vs random, 12.59x vs BB-BO\n");
    results
}
