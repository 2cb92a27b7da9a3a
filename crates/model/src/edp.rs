//! Whole-model loss assembly (Eq. 14, Eq. 17, Eq. 18).
//!
//! DOSA's gradient-descent loss is the model EDP — the product of summed
//! per-layer energies and latencies — plus the invalid-mapping penalty. We
//! optimize `ln(EDP) + w·penalty`: the logarithm makes gradient magnitudes
//! scale-free across workloads (EDPs span 1e9–1e16 µJ·cycles) so the O(1)
//! penalty term stays effective; minima are unchanged.
//!
//! The softmax loop-ordering loss (Eq. 15–17) weights the WS/IS/OS variants
//! of each layer by a softmax over `−τ·ln(EDP)` — a numerically robust
//! stand-in for the paper's softmax over inverse EDPs, which degenerates to
//! uniform weights at the magnitudes involved: inverse EDPs between 1e-16
//! and 1e-9 differ by less than 1e-9, so their softmax is uniform to about
//! nine digits.
//!
//! [`build_loss_with`] is generic over the recording [`Ctx`]: it records
//! each layer's factor construction, the cross-layer hardware derivation,
//! each layer's performance terms and the final sums, and the caller runs
//! one flat `Tape::backward_into` sweep over the result. A per-layer
//! latency hook lets a learned latency model replace or correct the
//! analytical latency inside the same loss (§6.5); [`analytical`] is the
//! hook that keeps the model's own latency.

use crate::diff::{layer_perf_vars, FactorVars, HwVars};
use crate::relaxed::{RelaxedMapping, PARAMS_PER_LAYER};
use dosa_accel::Hierarchy;
use dosa_autodiff::{sum, Ctx, Scalar, Tape, Values, Var};
use dosa_timeloop::{LoopOrder, Stationarity};
use dosa_workload::Layer;

/// Weight of the invalid-mapping penalty (Eq. 18) in the loss.
const PENALTY_WEIGHT: f64 = 1.0;

/// Configuration for [`build_loss`].
#[derive(Debug, Clone, Copy)]
pub struct LossOptions {
    /// Pin the PE array side instead of deriving it from spatial factors
    /// (the Fig. 12 setting).
    pub fixed_pe_side: Option<u64>,
    /// Use the gradient-based softmax loop-ordering loss (§5.2.2) instead
    /// of the fixed per-layer orderings.
    pub softmax_ordering: bool,
    /// Temperature `τ` of the softmax weighting.
    pub softmax_temperature: f64,
}

impl Default for LossOptions {
    fn default() -> Self {
        LossOptions {
            fixed_pe_side: None,
            softmax_ordering: false,
            softmax_temperature: 4.0,
        }
    }
}

/// A fully assembled differentiable loss for one gradient step, generic
/// over the recording context ([`build_loss_with`]).
pub struct BuiltLossG<N> {
    /// The loss to backpropagate: `ln(EDP) + w·penalty`.
    pub loss: N,
    /// Forward model EDP in µJ·cycles.
    pub edp: f64,
    /// Forward model energy in µJ.
    pub energy_uj: f64,
    /// Forward model latency in cycles.
    pub latency: f64,
    /// Forward penalty value.
    pub penalty: f64,
}

/// A fully assembled differentiable loss for one gradient step.
pub struct BuiltLoss<'t> {
    /// The loss to backpropagate: `ln(EDP) + w·penalty`.
    pub loss: Var<'t>,
    /// Leaf variables per layer (in [`RelaxedMapping::params`] order).
    pub leaves: Vec<Vec<Var<'t>>>,
    /// Forward model EDP in µJ·cycles.
    pub edp: f64,
    /// Forward model energy in µJ.
    pub energy_uj: f64,
    /// Forward model latency in cycles.
    pub latency: f64,
    /// Forward penalty value.
    pub penalty: f64,
}

/// The latency hook of [`build_loss_with`] that keeps the analytical
/// model's latency.
pub fn analytical<N>(_: &Layer, _: &[N], _: &HwVars<N>, latency: N) -> N {
    latency
}

/// Assemble the differentiable loss for `layers` at the point `relaxed`,
/// appending every leaf (layer by layer, [`RelaxedMapping::params`] order)
/// to `leaves_out`.
///
/// `latency(layer, leaves, hw, analytical)` gives the latency of one
/// execution of `layer` that the sums use, from that layer's leaves, the
/// hardware variables and the analytical model's latency: a learned
/// latency model plugs in here (§4.7, §6.5). The softmax ordering loss
/// applies it to each ordering variant.
///
/// Callers that reuse `leaves_out` across steps (clearing it first) make a
/// fixed number of heap allocations here, independent of the number of
/// layers: a handful of per-step vectors sized once
/// (`crates/model/tests/step_allocations.rs` pins this), plus whatever
/// `latency` allocates.
///
/// # Panics
///
/// Panics if `layers` and `relaxed` have different lengths or are empty.
pub fn build_loss_with<C: Ctx>(
    cx: C,
    layers: &[Layer],
    relaxed: &[RelaxedMapping],
    hier: &Hierarchy,
    opts: &LossOptions,
    leaves_out: &mut Vec<C::N>,
    mut latency: impl FnMut(&Layer, &[C::N], &HwVars<C::N>, C::N) -> C::N,
) -> BuiltLossG<C::N> {
    assert_eq!(layers.len(), relaxed.len(), "one relaxed mapping per layer");
    assert!(!layers.is_empty(), "need at least one layer");

    // Per-layer factor variables (leaves, exps, DRAM inference).
    let first_leaf = leaves_out.len();
    let mut factor_vars = Vec::with_capacity(layers.len());
    for (layer, r) in layers.iter().zip(relaxed) {
        factor_vars.push(FactorVars::from_relaxed_in(
            cx,
            &layer.problem,
            r,
            leaves_out,
        ));
    }

    let refs: Vec<(&dosa_workload::Problem, &FactorVars<C::N>)> = layers
        .iter()
        .zip(&factor_vars)
        .map(|(l, fv)| (&l.problem, fv))
        .collect();
    // Per-layer capacity terms, then the cross-layer max.
    let hw = HwVars::derive_with_pe(cx, &refs, opts.fixed_pe_side);

    // Per-layer performance terms (including the softmax ordering variants).
    let mut energies = Vec::with_capacity(layers.len());
    let mut latencies = Vec::with_capacity(layers.len());
    for (i, (layer, fv)) in layers.iter().zip(&factor_vars).enumerate() {
        let count = layer.count as f64;
        let start = first_leaf + i * PARAMS_PER_LAYER;
        let leaves = &leaves_out[start..start + PARAMS_PER_LAYER];
        if opts.softmax_ordering {
            // Evaluate all three canonical orderings and weight them by a
            // softmax over -tau * ln(EDP) (Eq. 15-17). Fixed arrays keep
            // the step allocation-free; the softmax and the two dot
            // products record the operations of `dosa_autodiff::softmax`
            // and `dosa_autodiff::dot`, in their order.
            let options = Stationarity::ALL.map(|s| {
                let mut fv_s = *fv;
                fv_s.orders = [LoopOrder::canonical(s); dosa_accel::NUM_LEVELS];
                let perf = layer_perf_vars(cx, &layer.problem, &fv_s, &hw, hier);
                let lat = latency(layer, leaves, &hw, perf.latency);
                let score = -(perf.energy_uj * lat).ln() * opts.softmax_temperature;
                (score, perf.energy_uj, lat)
            });
            let scores = options.map(|o| o.0);
            let exps = scores.map(|s| s.sub_max(&scores).exp());
            let denom = exps[0] + exps[1] + exps[2];
            let w = exps.map(|x| x / denom);
            let dot = |v: [C::N; 3]| {
                let terms = [w[0] * v[0], w[1] * v[1], w[2] * v[2]];
                terms[0] + terms[1] + terms[2]
            };
            let e = dot(options.map(|o| o.1));
            let l = dot(options.map(|o| o.2));
            energies.push(e * count);
            latencies.push(l * count);
        } else {
            let perf = layer_perf_vars(cx, &layer.problem, fv, &hw, hier);
            let lat = latency(layer, leaves, &hw, perf.latency);
            energies.push(perf.energy_uj * count);
            latencies.push(lat * count);
        }
    }

    // Cross-layer sums, EDP, penalty and the final loss.
    let energy = sum(cx, &energies);
    let latency = sum(cx, &latencies);
    let edp = energy * latency;

    let mut pen = cx.constant(0.0);
    for fv in &factor_vars {
        pen = pen + fv.penalty(cx);
    }
    let loss = edp.ln() + pen * PENALTY_WEIGHT;

    BuiltLossG {
        loss,
        edp: edp.value(),
        energy_uj: energy.value(),
        latency: latency.value(),
        penalty: pen.value(),
    }
}

/// Assemble the differentiable loss for `layers` at the point `relaxed`.
///
/// Convenience form of [`build_loss_with`] on the analytical latency,
/// returning per-layer leaf vectors.
///
/// # Panics
///
/// Panics if `layers` and `relaxed` have different lengths or are empty.
pub fn build_loss<'t>(
    tape: &'t Tape,
    layers: &[Layer],
    relaxed: &[RelaxedMapping],
    hier: &Hierarchy,
    opts: &LossOptions,
) -> BuiltLoss<'t> {
    let mut flat = Vec::new();
    let built = build_loss_with(tape, layers, relaxed, hier, opts, &mut flat, analytical);
    let leaves = flat.chunks(PARAMS_PER_LAYER).map(|c| c.to_vec()).collect();
    BuiltLoss {
        loss: built.loss,
        leaves,
        edp: built.edp,
        energy_uj: built.energy_uj,
        latency: built.latency,
        penalty: built.penalty,
    }
}

/// Forward-only model prediction (energy µJ, latency cycles, EDP) at a
/// relaxed point — runs on the tape-free [`Values`] context, so value-only
/// re-evaluations record nothing and allocate almost nothing.
pub fn predict(
    layers: &[Layer],
    relaxed: &[RelaxedMapping],
    hier: &Hierarchy,
    opts: &LossOptions,
) -> (f64, f64, f64) {
    let mut leaves = Vec::new();
    let built = build_loss_with(Values, layers, relaxed, hier, opts, &mut leaves, analytical);
    (built.energy_uj, built.latency, built.edp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosa_workload::Problem;

    fn layers() -> Vec<Layer> {
        vec![
            Layer::repeated(Problem::conv("a", 3, 3, 28, 28, 64, 64, 1).unwrap(), 2),
            Layer::once(Problem::matmul("b", 128, 256, 512).unwrap()),
        ]
    }

    fn start(layers: &[Layer]) -> Vec<RelaxedMapping> {
        layers
            .iter()
            .map(|_| {
                let mut r = RelaxedMapping::identity(Stationarity::WeightStationary);
                let v: Vec<f64> = (0..crate::relaxed::PARAMS_PER_LAYER)
                    .map(|i| 0.2 + 0.03 * i as f64)
                    .collect();
                r.set_params(&v);
                r
            })
            .collect()
    }

    #[test]
    fn loss_is_finite_and_backpropagates() {
        let layers = layers();
        let relaxed = start(&layers);
        let tape = Tape::new();
        let built = build_loss(
            &tape,
            &layers,
            &relaxed,
            &Hierarchy::gemmini(),
            &LossOptions::default(),
        );
        assert!(built.loss.value().is_finite());
        assert!(built.edp > 0.0);
        let grads = tape.backward(built.loss);
        let active: usize = built
            .leaves
            .iter()
            .flatten()
            .filter(|l| grads.wrt(**l) != 0.0)
            .count();
        assert!(active > 10);
    }

    #[test]
    fn predict_matches_tape_forward_bits() {
        let layers = layers();
        let relaxed = start(&layers);
        let hier = Hierarchy::gemmini();
        for opts in [
            LossOptions::default(),
            LossOptions {
                softmax_ordering: true,
                ..LossOptions::default()
            },
        ] {
            let tape = Tape::new();
            let built = build_loss(&tape, &layers, &relaxed, &hier, &opts);
            let (e, l, edp) = predict(&layers, &relaxed, &hier, &opts);
            assert_eq!(e.to_bits(), built.energy_uj.to_bits());
            assert_eq!(l.to_bits(), built.latency.to_bits());
            assert_eq!(edp.to_bits(), built.edp.to_bits());
        }
    }

    #[test]
    fn softmax_ordering_loss_close_to_best_fixed_ordering() {
        let layers = layers();
        let relaxed = start(&layers);
        let hier = Hierarchy::gemmini();
        let soft = LossOptions {
            softmax_ordering: true,
            ..LossOptions::default()
        };
        let (_, _, edp_soft) = predict(&layers, &relaxed, &hier, &soft);
        // Best fixed uniform ordering.
        let mut best = f64::INFINITY;
        for s in Stationarity::ALL {
            let fixed: Vec<RelaxedMapping> = relaxed
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    r.orders = [s; 4];
                    r
                })
                .collect();
            let (_, _, edp) = predict(&layers, &fixed, &hier, &LossOptions::default());
            best = best.min(edp);
        }
        // The softmax blend is bounded between best and worst options, and
        // with modest temperature should sit near the best.
        assert!(edp_soft >= best * 0.99);
        assert!(edp_soft <= best * 10.0);
    }

    #[test]
    fn repeat_counts_scale_sums() {
        let p = Problem::conv("a", 3, 3, 28, 28, 64, 64, 1).unwrap();
        let hier = Hierarchy::gemmini();
        let relaxed = vec![RelaxedMapping::identity(Stationarity::WeightStationary)];
        let one = vec![Layer::once(p.clone())];
        let three = vec![Layer::repeated(p, 3)];
        let (e1, l1, _) = predict(&one, &relaxed, &hier, &LossOptions::default());
        let (e3, l3, _) = predict(&three, &relaxed, &hier, &LossOptions::default());
        assert!((e3 - 3.0 * e1).abs() / e3 < 1e-12);
        assert!((l3 - 3.0 * l1).abs() / l3 < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one relaxed mapping per layer")]
    fn mismatched_lengths_panic() {
        let tape = Tape::new();
        let layers = layers();
        let _ = build_loss(
            &tape,
            &layers,
            &[],
            &Hierarchy::gemmini(),
            &LossOptions::default(),
        );
    }
}
