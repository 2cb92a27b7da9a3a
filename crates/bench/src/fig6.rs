//! Figure 6: comparing loop-ordering optimization strategies — no search
//! ("Baseline"), iterating at every rounding ("Iterate"), and the
//! gradient-based softmax weighting ("Softmax") — on ResNet-50 and BERT.
//!
//! The paper finds Iterate ≈1.70× and Softmax ≈1.58× better than Baseline
//! after 7000 samples, with Iterate the cheaper of the two.

use crate::plot::{ascii_log_chart, mean_ci, write_csv, Series};
use crate::scale::Scale;
use dosa_accel::Hierarchy;
use dosa_search::{dosa_search, LoopOrderStrategy, SearchResult, SearchService};
use dosa_workload::{unique_layers, Network};
use std::path::Path;

/// One strategy's aggregated outcome on one workload.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    /// Strategy label.
    pub label: &'static str,
    /// Mean final best EDP across runs.
    pub final_edp: f64,
    /// 95% CI half-width of the final EDP.
    pub final_ci: f64,
    /// Mean best-so-far curve: (samples, edp).
    pub curve: Vec<(f64, f64)>,
}

/// Results per workload.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Workload evaluated.
    pub network: Network,
    /// Outcomes for Baseline / Iterate / Softmax (in that order).
    pub outcomes: Vec<StrategyOutcome>,
}

/// Average best-so-far histories across runs onto a common sample grid.
pub fn mean_curve(results: &[SearchResult], grid_points: usize) -> Vec<(f64, f64)> {
    let max_samples = results.iter().map(|r| r.samples).max().unwrap_or(0).max(1);
    let mut curve = Vec::with_capacity(grid_points);
    for gi in 1..=grid_points {
        let x = (max_samples * gi) as f64 / grid_points as f64;
        let mut ys = Vec::new();
        for r in results {
            let mut best = f64::INFINITY;
            for p in &r.history {
                if (p.samples as f64) <= x && p.best_edp < best {
                    best = p.best_edp;
                }
            }
            if best.is_finite() {
                ys.push(best.ln());
            }
        }
        if !ys.is_empty() {
            let mean = ys.iter().sum::<f64>() / ys.len() as f64;
            curve.push((x, mean.exp()));
        }
    }
    curve
}

/// Run Figure 6 for one workload.
pub fn run_network(
    service: &SearchService,
    scale: Scale,
    network: Network,
    seed: u64,
    out_dir: &Path,
) -> Fig6Result {
    let layers = unique_layers(network);
    let hier = Hierarchy::gemmini();
    let strategies = [
        ("Baseline", LoopOrderStrategy::Baseline),
        ("Iterate", LoopOrderStrategy::Iterate),
        ("Softmax", LoopOrderStrategy::Softmax),
    ];
    let runs = scale.runs(3);

    let mut outcomes = Vec::new();
    let mut csv_rows = Vec::new();
    for (label, strat) in strategies {
        let results: Vec<_> = (0..runs)
            .map(|r| {
                // Same start points across methods (§6.2): seed depends on
                // the run index only.
                let cfg = scale.gd_fig6(strat, seed + r as u64);
                dosa_search(service, &layers, &hier, &cfg)
            })
            .collect();
        let finals: Vec<f64> = results.iter().map(|r| r.best_edp).collect();
        let logs: Vec<f64> = finals.iter().map(|e| e.ln()).collect();
        let (log_mean, log_ci) = mean_ci(&logs);
        let curve = mean_curve(&results, 40);
        for (x, y) in &curve {
            csv_rows.push(vec![
                network.name().to_string(),
                label.to_string(),
                format!("{x:.0}"),
                format!("{y:.6e}"),
            ]);
        }
        outcomes.push(StrategyOutcome {
            label,
            final_edp: log_mean.exp(),
            final_ci: log_ci,
            curve,
        });
    }
    write_csv(
        out_dir,
        &format!(
            "fig6_{}.csv",
            network.name().to_ascii_lowercase().replace('-', "")
        ),
        &["network", "strategy", "samples", "best_edp"],
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
            &format!("Figure 6 ({}) — loop ordering strategies", network.name()),
            &series,
            64,
            14
        )
    );
    let base = outcomes[0].final_edp;
    for o in &outcomes {
        println!(
            "  {:<8} final EDP {:.3e} (x{:.2} vs Baseline, ±{:.2} log-CI)",
            o.label,
            o.final_edp,
            base / o.final_edp,
            o.final_ci
        );
    }
    println!("  paper: Iterate 1.70x, Softmax 1.58x over Baseline @7000 samples\n");
    Fig6Result { network, outcomes }
}

/// Run Figure 6 on the paper's two workloads (ResNet-50 and BERT).
pub fn run(service: &SearchService, scale: Scale, seed: u64, out_dir: &Path) -> Vec<Fig6Result> {
    [Network::ResNet50, Network::Bert]
        .into_iter()
        .map(|n| run_network(service, scale, n, seed, out_dir))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosa_search::SearchPoint;

    #[test]
    fn mean_curve_is_monotone() {
        let r1 = SearchResult {
            best_edp: 1.0,
            best_hw: dosa_accel::HardwareConfig::gemmini_default(),
            best_mappings: vec![],
            history: vec![
                SearchPoint {
                    samples: 10,
                    best_edp: 100.0,
                },
                SearchPoint {
                    samples: 20,
                    best_edp: 10.0,
                },
            ],
            samples: 20,
        };
        let curve = mean_curve(&[r1], 10);
        assert!(!curve.is_empty());
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9);
        }
    }
}
