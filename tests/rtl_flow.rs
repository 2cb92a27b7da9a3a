//! Integration of the §6.5 real-hardware flow: RTL dataset generation,
//! learned-model training, fixed-PE search, and RTL measurement.

use dosa::nn::TrainConfig;
use dosa::prelude::*;
use dosa::rtl::RtlConfig;
use dosa::search::{evaluate_rtl, generate_rtl_dataset};

fn layers() -> Vec<Layer> {
    vec![
        Layer::once(Problem::conv("a", 3, 3, 14, 14, 64, 64, 1).unwrap()),
        Layer::once(Problem::matmul("b", 64, 256, 256).unwrap()),
    ]
}

#[test]
fn combined_predictor_tracks_rtl_better_than_analytical_in_mse() {
    let hier = Hierarchy::gemmini();
    let train = generate_rtl_dataset(&layers(), 200, &hier, &RtlConfig::default(), 3);
    let test = generate_rtl_dataset(&layers(), 50, &hier, &RtlConfig::default(), 4);
    let cfg = TrainConfig {
        epochs: 150,
        ..TrainConfig::default()
    };
    let combined = LatencyPredictor::fit(LatencyModelKind::Combined, &train, &cfg, 1);
    let analytical = LatencyPredictor::analytical();

    let log_mse = |p: &LatencyPredictor| {
        test.samples
            .iter()
            .map(|s| {
                let pred = p.predict(&s.problem, &s.mapping, &s.hw, &hier).max(1.0);
                let d = pred.ln() - s.rtl_cycles.ln();
                d * d
            })
            .sum::<f64>()
            / test.samples.len() as f64
    };
    let mse_combined = log_mse(&combined);
    let mse_analytical = log_mse(&analytical);
    assert!(
        mse_combined < mse_analytical,
        "combined {mse_combined} vs analytical {mse_analytical}"
    );
}

#[test]
fn rtl_search_produces_measurable_configurations() {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().build();
    let rtl_cfg = RtlConfig::default();
    let cfg = GdConfig {
        start_points: 1,
        steps_per_start: 60,
        round_every: 30,
        fixed_pe_side: Some(16),
        ..GdConfig::default()
    };
    let res = dosa_search_rtl(
        &service,
        &layers(),
        &hier,
        &cfg,
        &LatencyPredictor::analytical(),
    );
    assert_eq!(res.best_hw.pe_side(), 16);
    let measured = evaluate_rtl(&layers(), &res.best_mappings, &res.best_hw, &hier, &rtl_cfg);
    assert!(measured.edp().is_finite() && measured.edp() > 0.0);
    // RTL latency strictly exceeds the analytical roofline.
    let analytical = evaluate_model(&layers(), &res.best_mappings, &res.best_hw, &hier);
    assert!(measured.latency_cycles > analytical.latency_cycles);
}

#[test]
fn optimized_rtl_config_beats_naive_default_mapping() {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().build();
    let rtl_cfg = RtlConfig::default();
    let ls = layers();
    // Naive: everything at DRAM on default hardware.
    let naive: Vec<Mapping> = ls
        .iter()
        .map(|l| Mapping::all_at_dram(&l.problem))
        .collect();
    let hw = HardwareConfig::gemmini_default();
    let naive_perf = evaluate_rtl(&ls, &naive, &hw, &hier, &rtl_cfg);

    let cfg = GdConfig {
        start_points: 1,
        steps_per_start: 60,
        round_every: 30,
        fixed_pe_side: Some(16),
        ..GdConfig::default()
    };
    let res = dosa_search_rtl(&service, &ls, &hier, &cfg, &LatencyPredictor::analytical());
    let tuned = evaluate_rtl(&ls, &res.best_mappings, &res.best_hw, &hier, &rtl_cfg);
    assert!(
        tuned.edp() < naive_perf.edp(),
        "tuned {} vs naive {}",
        tuned.edp(),
        naive_perf.edp()
    );
}
