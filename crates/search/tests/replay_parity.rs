//! Replayed gradient steps against fresh recordings.
//!
//! The engine records a step's loss once and replays the recorded tape on
//! later steps whose guards still hold ([`ProgramCache`]). These tests walk
//! Adam-like descents from random start points and check every step
//! against a fresh `DiffLoss::build` on a new tape: the loss bits and every
//! leaf-gradient bit must match, whether the step replayed or recorded. The
//! surrogates are `EdpLoss` under the Baseline, Iterate and Softmax
//! loop-ordering strategies and `PredictedLatencyLoss` with the analytical,
//! DNN-only and analytical+DNN predictors.

use dosa_accel::{Hierarchy, MAX_PE_SIDE};
use dosa_autodiff::{SegmentPlan, Tape, Var};
use dosa_model::{LossOptions, RelaxedMapping};
use dosa_nn::TrainConfig;
use dosa_rtl::RtlConfig;
use dosa_search::engine::DiffLoss;
use dosa_search::{
    generate_rtl_dataset, generate_start_point, Adam, EdpLoss, LatencyModelKind, LatencyPredictor,
    LoopOrderStrategy, PredictedLatencyLoss, ProgramCache, PROGRAM_SLOTS,
};
use dosa_timeloop::Stationarity;
use dosa_workload::{Dim, Layer, Problem};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn layers() -> Vec<Layer> {
    vec![
        Layer::repeated(Problem::conv("c", 3, 3, 14, 14, 32, 64, 1).unwrap(), 2),
        Layer::once(Problem::matmul("m", 64, 128, 96).unwrap()),
    ]
}

fn edp_loss<'a>(
    layers: &'a [Layer],
    hier: &'a Hierarchy,
    strategy: LoopOrderStrategy,
) -> EdpLoss<'a> {
    EdpLoss {
        layers,
        hier,
        opts: LossOptions {
            softmax_ordering: strategy == LoopOrderStrategy::Softmax,
            ..LossOptions::default()
        },
        strategy,
        fixed_pe_side: None,
        spatial_cap: MAX_PE_SIDE,
    }
}

/// Loss bits and leaf-gradient bits of a fresh recording at `params`.
fn fresh<L: DiffLoss + ?Sized>(
    loss: &L,
    relaxed: &[RelaxedMapping],
    params: &[f64],
) -> (u64, Vec<u64>) {
    let mut relaxed = relaxed.to_vec();
    for (r, chunk) in relaxed
        .iter_mut()
        .zip(params.chunks(dosa_model::PARAMS_PER_LAYER))
    {
        r.set_params(chunk);
    }
    let tape = Tape::new();
    let mut leaves: Vec<Var<'_>> = Vec::new();
    let out = loss.build(&tape, &relaxed, &mut SegmentPlan, &mut leaves);
    let mut adj = Vec::new();
    let mut grads = Vec::new();
    tape.backward_into(out, &mut adj)
        .wrt_into(&leaves, &mut grads);
    (
        out.value().to_bits(),
        grads.iter().map(|g| g.to_bits()).collect(),
    )
}

/// Walk `steps` steps through one program cache, moving the parameters
/// with `walk(step, params, grads)`, and check every step against a fresh
/// recording. Returns which steps recorded.
fn walk_and_compare<L: DiffLoss + ?Sized>(
    loss: &L,
    relaxed: &[RelaxedMapping],
    steps: usize,
    mut walk: impl FnMut(usize, &mut Vec<f64>, &[f64]),
) -> Vec<bool> {
    let mut params = Vec::new();
    for r in relaxed {
        r.params_into(&mut params);
    }
    let tapes: [Tape; PROGRAM_SLOTS] = Default::default();
    let mut cache = ProgramCache::new(&tapes);
    let mut working = relaxed.to_vec();
    let mut grads = Vec::new();
    let mut recorded = Vec::with_capacity(steps);
    for step in 0..steps {
        let (value, rec) = cache.step(loss, &mut working, &params, &mut grads);
        let (want_value, want_grads) = fresh(loss, relaxed, &params);
        let got: Vec<u64> = grads.iter().map(|g| g.to_bits()).collect();
        assert_eq!(
            value.to_bits(),
            want_value,
            "step {step} (recorded: {rec}): loss bits differ"
        );
        assert_eq!(
            got, want_grads,
            "step {step} (recorded: {rec}): gradient bits differ"
        );
        recorded.push(rec);
        walk(step, &mut params, &grads);
    }
    recorded
}

/// An Adam walk at learning rate `lr` that zeroes non-finite gradients,
/// as the engine does.
fn adam_walk(n: usize, lr: f64) -> impl FnMut(usize, &mut Vec<f64>, &[f64]) {
    let mut adam = Adam::new(n, lr);
    move |_, params, grads| {
        let clean: Vec<f64> = grads
            .iter()
            .map(|&g| if g.is_finite() { g } else { 0.0 })
            .collect();
        adam.step(params, &clean);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn replayed_steps_match_fresh_recordings(seed in 0u64..1_000_000, lr in 0.01f64..0.08) {
        let layers = layers();
        let hier = Hierarchy::gemmini();
        let mut rng = StdRng::seed_from_u64(seed);
        let start = generate_start_point(&mut rng, &layers, &hier, &LossOptions::default()).relaxed;
        let n = start.len() * dosa_model::PARAMS_PER_LAYER;
        let predictor = LatencyPredictor::analytical();
        let predicted = PredictedLatencyLoss {
            layers: &layers,
            hier: &hier,
            predictor: &predictor,
            pe_side: 16,
        };
        let data = generate_rtl_dataset(&layers, 60, &hier, &RtlConfig::default(), seed);
        let train = TrainConfig { epochs: 10, ..TrainConfig::default() };
        let dnn_only = LatencyPredictor::fit(LatencyModelKind::DnnOnly, &data, &train, seed);
        let combined = LatencyPredictor::fit(LatencyModelKind::Combined, &data, &train, seed);
        let predicted_dnn = PredictedLatencyLoss { predictor: &dnn_only, ..predicted };
        let predicted_combined = PredictedLatencyLoss { predictor: &combined, ..predicted };
        let baseline = edp_loss(&layers, &hier, LoopOrderStrategy::Baseline);
        let iterate = edp_loss(&layers, &hier, LoopOrderStrategy::Iterate);
        let softmax = edp_loss(&layers, &hier, LoopOrderStrategy::Softmax);
        let losses: [(&str, &dyn DiffLoss); 6] = [
            ("baseline", &baseline),
            ("iterate", &iterate),
            ("softmax", &softmax),
            ("predicted latency", &predicted),
            ("predicted latency, DNN-only", &predicted_dnn),
            ("predicted latency, analytical+DNN", &predicted_combined),
        ];
        for (name, loss) in losses {
            let recorded = walk_and_compare(loss, &start, 60, adam_walk(n, lr));
            prop_assert!(recorded[0], "{name}: the first step has nothing to replay");
            prop_assert!(
                recorded.iter().any(|&r| !r),
                "{name}: no step of the walk replayed: {recorded:?}"
            );
        }
    }
}

/// A walk that pushes one factor up across the refetch mask's unit
/// threshold: the step that crosses it must record, and every other step
/// after the first replays.
#[test]
fn crossing_the_unit_threshold_records_again() {
    let layers = layers();
    let hier = Hierarchy::gemmini();
    // All factors at one: no relevant loop is non-unit yet, so raising the
    // registers-level K factor (the registers hold weights, and K is a
    // weight dimension) above one moves the innermost relevant loop of
    // the weights and changes what gets recorded.
    let start = vec![RelaxedMapping::identity(Stationarity::WeightStationary); layers.len()];
    let walked = Dim::K.index();
    let below = -0.02;
    let per_step = 0.005;
    let steps = 10;
    for strategy in [
        LoopOrderStrategy::Baseline,
        LoopOrderStrategy::Iterate,
        LoopOrderStrategy::Softmax,
    ] {
        let loss = edp_loss(&layers, &hier, strategy);
        let walk = |step: usize, params: &mut Vec<f64>, _: &[f64]| {
            params[walked] = below + per_step * (step + 1) as f64;
        };
        let mut start = start.clone();
        start[0].log_temporal[0][walked] = below;
        let recorded = walk_and_compare(&loss, &start, steps, walk);
        // exp(x) exceeds 1 + 1e-9 from the first step with x > 0.
        let crossing = (0..steps)
            .find(|&s| below + per_step * s as f64 > 1e-6)
            .unwrap();
        let expect: Vec<bool> = (0..steps).map(|s| s == 0 || s == crossing).collect();
        assert_eq!(recorded, expect, "{strategy:?}");
    }
}
