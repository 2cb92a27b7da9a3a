//! Figure 12 + Table 7: optimizing Gemmini-RTL with the three latency
//! models, against the hand-tuned default configuration and mapper.
//!
//! PE dimensions are fixed at 16×16; buffer sizes and mappings are
//! searched; latency is measured on the RTL simulator and energy with the
//! reference model. Paper: analytical-only 1.48×, DNN-only 1.66×, combined
//! 1.82× EDP improvement over the default; Table 7 shows the combined
//! model upsizing both buffers (acc 64–196 KB, spad 251–322 KB vs the
//! default 32/128).

use crate::fig10_11::train_predictors;
use crate::plot::{geomean, table, write_csv};
use crate::scale::Scale;
use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_rtl::RtlConfig;
use dosa_search::{cosa_mapping, dosa_search_rtl, evaluate_rtl, GdConfig, SearchService};
use dosa_timeloop::Mapping;
use dosa_workload::{unique_layers, Network};
use std::path::Path;

/// One workload's Figure 12 outcome.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Workload evaluated.
    pub network: Network,
    /// Measured EDP of the default configuration + default mapper.
    pub default_edp: f64,
    /// Measured EDP per model: analytical, DNN-only, combined.
    pub model_edps: [f64; 3],
    /// The hardware selected by the combined model (Table 7).
    pub combined_hw: HardwareConfig,
}

/// Full Figure 12 result.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// Per-workload rows.
    pub rows: Vec<Fig12Row>,
}

/// Run Figure 12 (and print Table 7).
pub fn run(service: &SearchService, scale: Scale, seed: u64, out_dir: &Path) -> Fig12Result {
    let hier = Hierarchy::gemmini();
    let rtl_cfg = RtlConfig::default();
    let (predictors, _) = train_predictors(scale, seed, &hier);

    let mut rows = Vec::new();
    for (wi, network) in Network::TARGETS.into_iter().enumerate() {
        let layers = unique_layers(network);

        // Default: hand-tuned 16x16 / 32 KB / 128 KB with the heuristic
        // mapper (our CoSA substitute plays Gemmini's default mapper role).
        let default_hw = HardwareConfig::gemmini_default();
        let default_mappings: Vec<Mapping> = layers
            .iter()
            .map(|l| cosa_mapping(&l.problem, &default_hw, &hier))
            .collect();
        let default_perf = evaluate_rtl(&layers, &default_mappings, &default_hw, &hier, &rtl_cfg);

        let mut model_edps = [0.0f64; 3];
        let mut combined_hw = default_hw;
        for (pi, predictor) in predictors.iter().enumerate() {
            let cfg = GdConfig {
                fixed_pe_side: Some(16),
                seed: seed + (wi * 3 + pi) as u64,
                ..scale.gd_main(seed + (wi * 3 + pi) as u64)
            };
            let res = dosa_search_rtl(service, &layers, &hier, &cfg, predictor);
            let measured = evaluate_rtl(&layers, &res.best_mappings, &res.best_hw, &hier, &rtl_cfg);
            model_edps[pi] = measured.edp();
            if pi == 2 {
                combined_hw = res.best_hw;
            }
        }

        rows.push(Fig12Row {
            network,
            default_edp: default_perf.edp(),
            model_edps,
            combined_hw,
        });
    }

    // --- Figure 12 table ---------------------------------------------------
    let mut fig_rows = Vec::new();
    let mut csv = Vec::new();
    for r in &rows {
        fig_rows.push(vec![
            r.network.name().to_string(),
            "1.000".to_string(),
            format!("{:.3}", r.model_edps[0] / r.default_edp),
            format!("{:.3}", r.model_edps[1] / r.default_edp),
            format!("{:.3}", r.model_edps[2] / r.default_edp),
        ]);
        csv.push(vec![
            r.network.name().to_string(),
            format!("{:.6e}", r.default_edp),
            format!("{:.6e}", r.model_edps[0]),
            format!("{:.6e}", r.model_edps[1]),
            format!("{:.6e}", r.model_edps[2]),
        ]);
    }
    let improvements = |idx: usize| -> f64 {
        geomean(
            &rows
                .iter()
                .map(|r| r.default_edp / r.model_edps[idx])
                .collect::<Vec<_>>(),
        )
    };
    fig_rows.push(vec![
        "GEOMEAN improvement".to_string(),
        "1.00x".to_string(),
        format!("{:.2}x", improvements(0)),
        format!("{:.2}x", improvements(1)),
        format!("{:.2}x", improvements(2)),
    ]);
    write_csv(
        out_dir,
        "fig12_rtl.csv",
        &[
            "network",
            "default_edp",
            "analytical_edp",
            "dnn_only_edp",
            "combined_edp",
        ],
        &csv,
    );
    println!("Figure 12 — Gemmini-RTL optimization (EDP normalized to the default config)");
    println!(
        "{}",
        table(
            &[
                "workload",
                "Default",
                "Analytical",
                "DNN-Only",
                "Analytical+DNN"
            ],
            &fig_rows
        )
    );
    println!("  paper: analytical 1.48x, DNN-only 1.66x, combined 1.82x improvement\n");

    // --- Table 7 -------------------------------------------------------------
    let mut t7 = vec![vec![
        "Gemmini Default".to_string(),
        "32".to_string(),
        "128".to_string(),
    ]];
    let mut t7_csv = Vec::new();
    for r in &rows {
        t7.push(vec![
            r.network.name().to_string(),
            format!("{:.0}", r.combined_hw.acc_kb()),
            format!("{:.0}", r.combined_hw.spad_kb()),
        ]);
        t7_csv.push(vec![
            r.network.name().to_string(),
            format!("{:.0}", r.combined_hw.acc_kb()),
            format!("{:.0}", r.combined_hw.spad_kb()),
        ]);
    }
    write_csv(
        out_dir,
        "table7_buffers.csv",
        &["network", "accumulator_kb", "scratchpad_kb"],
        &t7_csv,
    );
    println!("Table 7 — buffer sizes selected by DOSA Analytical+DNN");
    println!(
        "{}",
        table(
            &["configuration", "Accumulator (KB)", "Scratchpad (KB)"],
            &t7
        )
    );
    println!("  paper: acc 64-196 KB, spad 251-322 KB (both well above the default)\n");

    Fig12Result { rows }
}
