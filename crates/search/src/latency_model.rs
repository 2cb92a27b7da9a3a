//! Latency models for real-hardware DSE (§4.7, §6.5): the analytical-only
//! model, a DNN-only model trained from "measured" RTL latencies, and the
//! DNN-augmented analytical model — plus the one-loop GD search built on
//! top of them (Figure 12) and the feature extraction they share.

use crate::gd::{GdConfig, SearchResult};
use crate::random_search::samplers;
use crate::request::{SearchRequest, Surrogate};
use crate::service::{run_blocking, SearchService};
use dosa_accel::{HardwareConfig, Hierarchy, ACC_WORD_BYTES};
use dosa_autodiff::{Tape, Var};
use dosa_model::{HwVars, RelaxedMapping, PARAMS_PER_LAYER};
use dosa_nn::{train, Dataset, Mlp, TrainConfig};
use dosa_rtl::{simulate_latency, RtlConfig};
use dosa_timeloop::{evaluate_layer, fits, LayerPerf, Mapping, ModelPerf};
use dosa_workload::{Dim, Layer, Problem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of input features of the learned latency model: 7 log layer
/// dimensions + the per-layer mapping parameters + 3 log hardware
/// parameters (§4.7: "the model's inputs include the layer's dimensions, a
/// mapping, and a hardware configuration").
pub const NUM_FEATURES: usize = 7 + PARAMS_PER_LAYER + 3;

/// Plain-value feature vector for one (layer, mapping, hardware) triple.
pub fn features(problem: &Problem, relaxed: &RelaxedMapping, hw: &HardwareConfig) -> Vec<f64> {
    let mut f = Vec::with_capacity(NUM_FEATURES);
    for d in Dim::ALL {
        f.push((problem.size(d) as f64).ln());
    }
    f.extend(relaxed.params());
    f.push((hw.pe_side() as f64).ln());
    f.push(hw.acc_kb().ln());
    f.push(hw.spad_kb().ln());
    f
}

/// Tape-recorded feature vector: constants for the layer dimensions, the
/// raw log-factor leaves for the mapping, and (possibly derived) hardware
/// variables — keeping the learned model differentiable w.r.t. the search
/// variables.
fn feature_vars<'t>(
    tape: &'t Tape,
    problem: &Problem,
    leaves: &[Var<'t>],
    hw: &HwVars<Var<'t>>,
) -> Vec<Var<'t>> {
    let mut f = Vec::with_capacity(NUM_FEATURES);
    for d in Dim::ALL {
        f.push(tape.constant((problem.size(d) as f64).ln()));
    }
    f.extend_from_slice(leaves);
    f.push(hw.pe_side.ln());
    f.push((hw.acc_words * (ACC_WORD_BYTES as f64 / 1024.0)).ln());
    f.push((hw.spad_words * (1.0 / 1024.0)).ln());
    f
}

/// One "FireSim measurement": a layer, mapping, hardware configuration and
/// the simulated RTL latency alongside the analytical prediction.
#[derive(Debug, Clone)]
pub struct RtlSample {
    /// The layer shape.
    pub problem: Problem,
    /// The evaluated mapping.
    pub mapping: Mapping,
    /// The hardware configuration it ran on.
    pub hw: HardwareConfig,
    /// Simulated Gemmini-RTL latency (cycles).
    pub rtl_cycles: f64,
    /// Analytical-model latency (cycles).
    pub analytical_cycles: f64,
}

/// A dataset of RTL measurements (the paper's 1567 random mappings,
/// §6.5.1).
#[derive(Debug, Clone, Default)]
pub struct RtlDataset {
    /// The samples.
    pub samples: Vec<RtlSample>,
}

/// Generate an RTL training dataset: `n` random mappings roughly evenly
/// distributed over `layers` (§6.5.1), on 16×16-PE hardware with randomized
/// buffer sizes. Empty `layers` give an empty dataset.
pub fn generate_rtl_dataset(
    layers: &[Layer],
    n: usize,
    hier: &Hierarchy,
    rtl_cfg: &RtlConfig,
    seed: u64,
) -> RtlDataset {
    if layers.is_empty() {
        return RtlDataset::default();
    }
    // Every design has a 16×16 array, so one sampler per layer serves all.
    const PE_SIDE: u64 = 16;
    let samplers = samplers(layers, hier, PE_SIDE);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut samples = Vec::with_capacity(n);
    let mut i = 0usize;
    let mut attempts = 0usize;
    while samples.len() < n && attempts < 50 * n {
        attempts += 1;
        let layer = &layers[i % layers.len()];
        let acc_kb = 2f64.powf(rng.gen_range(4.0..8.0)).round(); // 16..256 KB
        let spad_kb = 2f64.powf(rng.gen_range(6.0..10.0)).round(); // 64..1024 KB

        // dosa-lint: allow(panic-perimeter) — the sampled ranges (16 PEs,
        // 16..256 KB acc, 64..1024 KB spad) are valid by construction; a
        // failure here means the sampler itself broke.
        let hw = HardwareConfig::new(PE_SIDE, acc_kb, spad_kb).expect("valid");
        let mapping = samplers[i % layers.len()].draw(&mut rng);
        if !fits(&layer.problem, &mapping, &hw, hier) {
            continue;
        }
        let analytical = evaluate_layer(&layer.problem, &mapping, &hw, hier).latency_cycles;
        let rtl = simulate_latency(&layer.problem, &mapping, &hw, hier, rtl_cfg);
        samples.push(RtlSample {
            problem: layer.problem.clone(),
            mapping,
            hw,
            rtl_cycles: rtl,
            analytical_cycles: analytical,
        });
        i += 1;
    }
    RtlDataset { samples }
}

/// Which latency model drives the search (§6.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModelKind {
    /// The differentiable analytical model alone (§4.1–4.5).
    Analytical,
    /// A DNN trained from scratch on measured latencies.
    DnnOnly,
    /// The analytical model corrected by a DNN trained on residuals (§4.7).
    Combined,
}

impl LatencyModelKind {
    /// Display name matching Figure 12's legend.
    pub fn name(self) -> &'static str {
        match self {
            LatencyModelKind::Analytical => "DOSA Analytical",
            LatencyModelKind::DnnOnly => "DOSA DNN-Only",
            LatencyModelKind::Combined => "DOSA Analytical+DNN",
        }
    }
}

/// A trained latency predictor.
#[derive(Debug, Clone)]
pub struct LatencyPredictor {
    /// The model kind.
    pub kind: LatencyModelKind,
    mlp: Option<Mlp>,
}

impl LatencyPredictor {
    /// The analytical-only predictor (no learned component).
    pub fn analytical() -> LatencyPredictor {
        LatencyPredictor {
            kind: LatencyModelKind::Analytical,
            mlp: None,
        }
    }

    /// Train a predictor of the given kind on `data`. For
    /// [`LatencyModelKind::Analytical`] this is a no-op returning the
    /// analytical predictor. Both learned models share the architecture
    /// and hyperparameters (§6.5.1).
    pub fn fit(
        kind: LatencyModelKind,
        data: &RtlDataset,
        cfg: &TrainConfig,
        seed: u64,
    ) -> LatencyPredictor {
        if kind == LatencyModelKind::Analytical {
            return LatencyPredictor::analytical();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mlp = Mlp::paper_architecture(NUM_FEATURES, &mut rng);
        let mut ds = Dataset::default();
        for s in &data.samples {
            let relaxed = RelaxedMapping::from_mapping(&s.mapping);
            let f = features(&s.problem, &relaxed, &s.hw);
            let target = match kind {
                LatencyModelKind::DnnOnly => s.rtl_cycles.ln(),
                LatencyModelKind::Combined => (s.rtl_cycles / s.analytical_cycles).ln(),
                LatencyModelKind::Analytical => unreachable!(),
            };
            ds.push(f, target);
        }
        let _ = train(&mut mlp, &ds, cfg, &mut rng);
        LatencyPredictor {
            kind,
            mlp: Some(mlp),
        }
    }

    /// Predicted latency in cycles for an integer mapping.
    pub fn predict(
        &self,
        problem: &Problem,
        mapping: &Mapping,
        hw: &HardwareConfig,
        hier: &Hierarchy,
    ) -> f64 {
        let analytical = evaluate_layer(problem, mapping, hw, hier).latency_cycles;
        match (self.kind, &self.mlp) {
            (LatencyModelKind::Analytical, _) => analytical,
            (kind, Some(mlp)) => {
                let relaxed = RelaxedMapping::from_mapping(mapping);
                let out = mlp.forward(&features(problem, &relaxed, hw));
                match kind {
                    LatencyModelKind::DnnOnly => out.clamp(0.0, 40.0).exp(),
                    LatencyModelKind::Combined => analytical * out.clamp(-2.0, 6.0).exp(),
                    LatencyModelKind::Analytical => unreachable!(),
                }
            }
            _ => analytical,
        }
    }

    /// Tape-recorded latency prediction, differentiable w.r.t. the leaves.
    pub(crate) fn latency_var<'t>(
        &self,
        tape: &'t Tape,
        problem: &Problem,
        leaves: &[Var<'t>],
        hw: &HwVars<Var<'t>>,
        analytical: Var<'t>,
    ) -> Var<'t> {
        match (self.kind, &self.mlp) {
            (LatencyModelKind::Analytical, _) => analytical,
            (kind, Some(mlp)) => {
                let f = feature_vars(tape, problem, leaves, hw);
                let out = mlp.forward_in(tape, &f);
                match kind {
                    LatencyModelKind::DnnOnly => {
                        out.min(tape.constant(40.0)).max(tape.constant(0.0)).exp()
                    }
                    LatencyModelKind::Combined => {
                        analytical * out.min(tape.constant(6.0)).max(tape.constant(-2.0)).exp()
                    }
                    LatencyModelKind::Analytical => unreachable!(),
                }
            }
            _ => analytical,
        }
    }

    /// Whole-model performance prediction for rounded mappings: energy from
    /// the reference model (energy is always analytical, §6.5), latency
    /// from this predictor.
    pub fn predict_model(
        &self,
        layers: &[Layer],
        mappings: &[Mapping],
        hw: &HardwareConfig,
        hier: &Hierarchy,
    ) -> ModelPerf {
        ModelPerf::sum(layers.iter().zip(mappings).map(|(layer, m)| {
            let perf = LayerPerf {
                latency_cycles: self.predict(&layer.problem, m, hw, hier),
                energy_uj: evaluate_layer(&layer.problem, m, hw, hier).energy_uj,
            };
            (layer, perf)
        }))
    }
}

/// "Measured" whole-model performance: RTL-simulated latency (the FireSim
/// role) combined with reference-model energy, as in §6.5's evaluation.
pub fn evaluate_rtl(
    layers: &[Layer],
    mappings: &[Mapping],
    hw: &HardwareConfig,
    hier: &Hierarchy,
    rtl_cfg: &RtlConfig,
) -> ModelPerf {
    ModelPerf::sum(layers.iter().zip(mappings).map(|(layer, m)| {
        let perf = LayerPerf {
            latency_cycles: simulate_latency(&layer.problem, m, hw, hier, rtl_cfg),
            energy_uj: evaluate_layer(&layer.problem, m, hw, hier).energy_uj,
        };
        (layer, perf)
    }))
}

/// One-loop GD search against a (possibly learned) latency model, with the
/// PE side pinned and buffer sizes + mappings searched — the Figure 12
/// flow. Best points are selected by *predicted* EDP (the paper selects
/// mappings by predicted performance before measuring them on FireSim).
///
/// This is a thin blocking shim over the job service: it submits one
/// single-network
/// [`Surrogate::PredictedLatency`](crate::Surrogate::PredictedLatency)
/// request to `service` and waits; start points descend in parallel and
/// merge deterministically.
///
/// # Panics
///
/// Panics if `layers` is empty or `cfg` fails
/// [`GdConfig::validate`](GdConfig::validate).
pub fn dosa_search_rtl(
    service: &SearchService,
    layers: &[Layer],
    hier: &Hierarchy,
    cfg: &GdConfig,
    predictor: &LatencyPredictor,
) -> SearchResult {
    let request = SearchRequest::builder(hier.clone())
        .network("network", layers.to_vec())
        .surrogate(Surrogate::PredictedLatency(predictor.clone()))
        .config(*cfg)
        .build();
    run_blocking(service, request, "GdConfig")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosa_nn::spearman;

    fn layers() -> Vec<Layer> {
        vec![
            Layer::once(Problem::conv("a", 3, 3, 28, 28, 64, 64, 1).unwrap()),
            Layer::once(Problem::matmul("b", 64, 256, 256).unwrap()),
        ]
    }

    #[test]
    fn dataset_generation_is_even_and_deterministic() {
        let hier = Hierarchy::gemmini();
        let ds = generate_rtl_dataset(&layers(), 40, &hier, &RtlConfig::default(), 5);
        assert_eq!(ds.samples.len(), 40);
        let a_count = ds
            .samples
            .iter()
            .filter(|s| s.problem.name() == "a")
            .count();
        assert!((15..=25).contains(&a_count), "uneven split: {a_count}");
        let ds2 = generate_rtl_dataset(&layers(), 40, &hier, &RtlConfig::default(), 5);
        assert_eq!(ds.samples.len(), ds2.samples.len());
        assert_eq!(ds.samples[0].rtl_cycles, ds2.samples[0].rtl_cycles);
        let none = generate_rtl_dataset(&[], 40, &hier, &RtlConfig::default(), 5);
        assert!(none.samples.is_empty());
    }

    #[test]
    fn combined_model_beats_analytical_correlation_on_train_distribution() {
        let hier = Hierarchy::gemmini();
        let train_ds = generate_rtl_dataset(&layers(), 220, &hier, &RtlConfig::default(), 1);
        let test_ds = generate_rtl_dataset(&layers(), 60, &hier, &RtlConfig::default(), 2);
        let cfg = TrainConfig {
            epochs: 150,
            batch_size: 32,
            learning_rate: 3e-3,
        };
        let combined = LatencyPredictor::fit(LatencyModelKind::Combined, &train_ds, &cfg, 0);
        let analytical = LatencyPredictor::analytical();

        let truth: Vec<f64> = test_ds.samples.iter().map(|s| s.rtl_cycles.ln()).collect();
        let corr = |p: &LatencyPredictor| {
            let pred: Vec<f64> = test_ds
                .samples
                .iter()
                .map(|s| p.predict(&s.problem, &s.mapping, &s.hw, &hier).ln())
                .collect();
            spearman(&pred, &truth)
        };
        let c_comb = corr(&combined);
        let c_ana = corr(&analytical);
        assert!(c_comb > 0.6, "combined corr {c_comb}");
        assert!(
            c_comb >= c_ana - 0.1,
            "combined {c_comb} vs analytical {c_ana}"
        );
    }

    #[test]
    fn rtl_search_respects_fixed_pe() {
        let service = SearchService::builder().build();
        let hier = Hierarchy::gemmini();
        let cfg = GdConfig {
            start_points: 1,
            steps_per_start: 40,
            round_every: 20,
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
        assert!(res.best_edp.is_finite());
        for (l, m) in layers().iter().zip(&res.best_mappings) {
            m.validate(&l.problem, &hier).unwrap();
        }
    }

    #[test]
    fn evaluate_rtl_composes_energy_and_latency() {
        let hier = Hierarchy::gemmini();
        let hw = HardwareConfig::gemmini_default();
        let ls = layers();
        let mappings: Vec<Mapping> = ls
            .iter()
            .map(|l| crate::cosa::cosa_mapping(&l.problem, &hw, &hier))
            .collect();
        let perf = evaluate_rtl(&ls, &mappings, &hw, &hier, &RtlConfig::default());
        assert!(perf.edp() > 0.0);
        // RTL latency must exceed the analytical roofline.
        let ref_perf = dosa_timeloop::evaluate_model(&ls, &mappings, &hw, &hier);
        assert!(perf.latency_cycles > ref_perf.latency_cycles);
        assert!((perf.energy_uj - ref_perf.energy_uj).abs() < 1e-9);
    }
}
