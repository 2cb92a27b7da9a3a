//! Figure 8: EDP of expert-designed baseline accelerators (Eyeriss,
//! NVDLA-small, NVDLA-large, Gemmini default) versus DOSA-optimized
//! Gemmini-TL, each baseline searched with the random-pruned mapper.
//!
//! Paper shape: DOSA wins on every workload by >2×, with NVDLA-small the
//! weakest baseline (up to ~40×) and Gemmini-default / NVDLA-large within
//! 2–5×.

use crate::plot::{ascii_bars, write_csv};
use crate::scale::Scale;
use dosa_accel::{all_baselines, Hierarchy};
use dosa_search::{dosa_search, evaluate_with_random_mapper, SearchService};
use dosa_workload::{unique_layers, Network};
use std::path::Path;

/// Per-workload Figure 8 rows: `(name, edp)` with DOSA last.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Workload evaluated.
    pub network: Network,
    /// `(accelerator name, whole-model EDP)`; the final row is DOSA.
    pub rows: Vec<(String, f64)>,
}

impl Fig8Result {
    /// Ratio of each baseline's EDP to DOSA's.
    pub fn normalized(&self) -> Vec<(String, f64)> {
        let dosa = self.rows.last().map(|r| r.1).unwrap_or(f64::NAN);
        self.rows
            .iter()
            .map(|(n, e)| (n.clone(), e / dosa))
            .collect()
    }
}

/// Run Figure 8 for one workload.
pub fn run_network(
    service: &SearchService,
    scale: Scale,
    network: Network,
    seed: u64,
    out_dir: &Path,
) -> Fig8Result {
    let layers = unique_layers(network);
    let hier = Hierarchy::gemmini();
    let per_layer = scale.fig8_mappings_per_layer();

    let mut rows = Vec::new();
    for baseline in all_baselines() {
        let perf =
            evaluate_with_random_mapper(&layers, &baseline.config, &hier, per_layer, seed + 7);
        rows.push((baseline.name.to_string(), perf.edp()));
    }

    // DOSA-optimized Gemmini-TL (one full search run).
    let dosa = dosa_search(service, &layers, &hier, &scale.gd_main(seed));
    rows.push(("Gemmini DOSA".to_string(), dosa.best_edp));

    let csv: Vec<Vec<String>> = rows
        .iter()
        .map(|(n, e)| vec![network.name().to_string(), n.clone(), format!("{e:.6e}")])
        .collect();
    write_csv(
        out_dir,
        &format!(
            "fig8_{}.csv",
            network.name().to_ascii_lowercase().replace('-', "")
        ),
        &["network", "accelerator", "edp"],
        &csv,
    );

    println!(
        "{}",
        ascii_bars(
            &format!("Figure 8 ({}) — EDP vs expert baselines", network.name()),
            &rows,
            36
        )
    );
    println!(
        "  DOSA config: {} | paper shape: all baselines >2x DOSA\n",
        dosa.best_hw
    );
    Fig8Result { network, rows }
}

/// Run Figure 8 across the four target workloads.
pub fn run(service: &SearchService, scale: Scale, seed: u64, out_dir: &Path) -> Vec<Fig8Result> {
    Network::TARGETS
        .into_iter()
        .map(|n| run_network(service, scale, n, seed, out_dir))
        .collect()
}
