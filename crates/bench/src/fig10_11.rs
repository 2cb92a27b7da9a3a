//! Figures 10 and 11: accuracy of the three Gemmini-RTL latency models.
//!
//! Figure 10 evaluates on a held-out split of random mappings of the
//! *training* workloads (paper Spearman ρ: analytical 0.87, DNN-only 0.84,
//! combined 0.92). Figure 11 evaluates on DOSA-generated mappings of the
//! *target* workloads, where the DNN-only model degrades off-distribution
//! (ρ: 0.97 / 0.79 / 0.97).

use crate::plot::{table, write_csv};
use crate::scale::Scale;
use dosa_accel::Hierarchy;
use dosa_nn::{spearman, TrainConfig};
use dosa_rtl::simulate_latency;
use dosa_rtl::RtlConfig;
use dosa_search::{
    dosa_search_rtl, generate_rtl_dataset, GdConfig, LatencyModelKind, LatencyPredictor,
    RtlDataset, RtlSample, SearchService,
};
use dosa_timeloop::min_hw_for_all;
use dosa_workload::{dedup_layers, unique_layers, Network};
use std::path::Path;

/// Spearman correlations of the three models on one dataset.
#[derive(Debug, Clone, Copy)]
pub struct ModelAccuracy {
    /// Analytical-only correlation.
    pub analytical: f64,
    /// DNN-only correlation.
    pub dnn_only: f64,
    /// Analytical + DNN correlation.
    pub combined: f64,
}

/// Results of the prediction-accuracy study.
#[derive(Debug, Clone)]
pub struct Fig1011Result {
    /// Figure 10: random-mapping test split of training workloads.
    pub fig10: ModelAccuracy,
    /// Figure 11: DOSA-generated mappings of target workloads.
    pub fig11: ModelAccuracy,
    /// The trained predictors (reused by Figure 12).
    pub predictors: Vec<LatencyPredictor>,
}

fn accuracy(
    predictors: &[LatencyPredictor],
    data: &[RtlSample],
    hier: &Hierarchy,
) -> ModelAccuracy {
    let truth: Vec<f64> = data.iter().map(|s| s.rtl_cycles.ln()).collect();
    let corr = |p: &LatencyPredictor| {
        let pred: Vec<f64> = data
            .iter()
            .map(|s| p.predict(&s.problem, &s.mapping, &s.hw, hier).max(1.0).ln())
            .collect();
        spearman(&pred, &truth)
    };
    ModelAccuracy {
        analytical: corr(&predictors[0]),
        dnn_only: corr(&predictors[1]),
        combined: corr(&predictors[2]),
    }
}

/// Train the three predictors on the §6.5.1 dataset and return them with
/// the held-out test split.
pub fn train_predictors(
    scale: Scale,
    seed: u64,
    hier: &Hierarchy,
) -> (Vec<LatencyPredictor>, Vec<RtlSample>) {
    // Training corpus: the unique layers of the four training workloads.
    let corpus = dedup_layers(Network::TRAINING.into_iter().flat_map(unique_layers));
    let n = scale.rtl_dataset();
    let dataset = generate_rtl_dataset(&corpus, n, hier, &RtlConfig::default(), seed);
    // 80/20 split by index parity-of-five (deterministic).
    let mut train = RtlDataset::default();
    let mut test = Vec::new();
    for (i, s) in dataset.samples.into_iter().enumerate() {
        if i % 5 == 0 {
            test.push(s);
        } else {
            train.samples.push(s);
        }
    }
    let cfg = TrainConfig {
        epochs: scale.rtl_epochs(),
        batch_size: 64,
        learning_rate: 3e-3,
    };
    let predictors = vec![
        LatencyPredictor::analytical(),
        LatencyPredictor::fit(LatencyModelKind::DnnOnly, &train, &cfg, seed + 1),
        LatencyPredictor::fit(LatencyModelKind::Combined, &train, &cfg, seed + 2),
    ];
    (predictors, test)
}

/// Collect DOSA-generated mappings of the target workloads by running the
/// fixed-PE RTL search with the analytical model, then measuring each
/// chosen mapping on the RTL simulator (the Figure 11 dataset).
pub fn dosa_generated_samples(
    service: &SearchService,
    scale: Scale,
    seed: u64,
    hier: &Hierarchy,
) -> Vec<RtlSample> {
    let mut samples = Vec::new();
    let rtl_cfg = RtlConfig::default();
    for (i, network) in Network::TARGETS.into_iter().enumerate() {
        let layers = unique_layers(network);
        let cfg = GdConfig {
            fixed_pe_side: Some(16),
            ..match scale {
                Scale::Quick => GdConfig {
                    start_points: 1,
                    steps_per_start: 120,
                    round_every: 60,
                    seed: seed + i as u64,
                    ..GdConfig::default()
                },
                Scale::Paper => GdConfig {
                    start_points: 2,
                    steps_per_start: 500,
                    round_every: 250,
                    seed: seed + i as u64,
                    ..GdConfig::default()
                },
            }
        };
        let res = dosa_search_rtl(
            service,
            &layers,
            hier,
            &cfg,
            &LatencyPredictor::analytical(),
        );
        let pairs: Vec<_> = layers
            .iter()
            .zip(&res.best_mappings)
            .map(|(l, m)| (&l.problem, m))
            .collect();
        let min = min_hw_for_all(pairs, hier);
        let hw = dosa_accel::HardwareConfig::new(16, min.acc_kb(), min.spad_kb()).expect("valid");
        for (layer, m) in layers.iter().zip(&res.best_mappings) {
            let analytical =
                dosa_timeloop::evaluate_layer(&layer.problem, m, &hw, hier).latency_cycles;
            let rtl = simulate_latency(&layer.problem, m, &hw, hier, &rtl_cfg);
            samples.push(RtlSample {
                problem: layer.problem.clone(),
                mapping: m.clone(),
                hw,
                rtl_cycles: rtl,
                analytical_cycles: analytical,
            });
        }
    }
    samples
}

/// Run the Figure 10 + 11 studies.
pub fn run(service: &SearchService, scale: Scale, seed: u64, out_dir: &Path) -> Fig1011Result {
    let hier = Hierarchy::gemmini();
    let (predictors, test) = train_predictors(scale, seed, &hier);
    let fig10 = accuracy(&predictors, &test, &hier);
    let dosa_samples = dosa_generated_samples(service, scale, seed + 1000, &hier);
    let fig11 = accuracy(&predictors, &dosa_samples, &hier);

    let rows = vec![
        vec![
            "Fig 10 (random test split)".to_string(),
            format!("{:.3}", fig10.analytical),
            format!("{:.3}", fig10.dnn_only),
            format!("{:.3}", fig10.combined),
        ],
        vec![
            "Fig 11 (DOSA-generated)".to_string(),
            format!("{:.3}", fig11.analytical),
            format!("{:.3}", fig11.dnn_only),
            format!("{:.3}", fig11.combined),
        ],
    ];
    write_csv(
        out_dir,
        "fig10_11_accuracy.csv",
        &["dataset", "analytical", "dnn_only", "combined"],
        &rows,
    );
    println!("Figures 10 & 11 — Gemmini-RTL latency model accuracy (Spearman rank correlation)");
    println!(
        "{}",
        table(
            &["dataset", "Analytical", "DNN-only", "Analytical+DNN"],
            &rows
        )
    );
    println!("  paper: Fig 10 = 0.87 / 0.84 / 0.92; Fig 11 = 0.97 / 0.79 / 0.97\n");
    Fig1011Result {
        fig10,
        fig11,
        predictors,
    }
}
