//! The DOSA differentiable performance model (§4): closed-form capacity,
//! traffic, latency and energy expressions on the autodiff tape.
//!
//! The structure mirrors `dosa_timeloop::traffic` exactly — same tile,
//! refetch, broadcast and elision semantics — with two deliberate
//! differences (§4.6): all arithmetic is smooth (no integer ceilings) and
//! DRAM energy is counted per element rather than per block. Evaluated at an
//! integer mapping, latency matches the reference bit-for-bit and energy
//! differs only by the DRAM block ceiling, reproducing Figure 4.
//!
//! Everything here is generic over a [`Ctx`]: instantiate with `&Tape` for
//! gradients or [`Values`](dosa_autodiff::Values) for a tape-free forward
//! evaluation. The model knows which factors are exactly one (the *unit*
//! mask) and skips recording those multiplications — `x * 1` is `x` down
//! to the last bit, and unit factors are always constants, so no gradient
//! is lost.

use crate::relaxed::RelaxedMapping;
use dosa_accel::{
    level, HardwareConfig, Hierarchy, EPA_ACC_BASE, EPA_ACC_SLOPE, EPA_DRAM, EPA_MAC,
    EPA_REGISTERS, EPA_SPAD_BASE, EPA_SPAD_SLOPE, MAX_PE_SIDE, NUM_LEVELS,
};
use dosa_autodiff::{max_of, Ctx, Scalar};
use dosa_timeloop::{LoopOrder, Mapping};
use dosa_workload::{Dim, DimSet, Problem, Tensor, NUM_DIMS};

/// Threshold above which a continuous loop bound is considered non-unit for
/// the refetch mask (bound-1 loops are transparent).
const UNIT_EPS: f64 = 1.0 + 1e-9;

/// A product accumulator that starts empty instead of at a recorded `1.0`
/// constant: unit factors are skipped entirely, and an all-unit product
/// resolves to the shared unit node via [`UnitProd::finish`].
#[derive(Clone, Copy)]
struct UnitProd<N> {
    acc: Option<N>,
}

impl<N: Scalar> UnitProd<N> {
    #[inline]
    fn new() -> UnitProd<N> {
        UnitProd { acc: None }
    }

    #[inline]
    fn mul(&mut self, f: N) {
        self.acc = Some(match self.acc {
            Some(a) => a * f,
            None => f,
        });
    }

    #[inline]
    fn finish(self, unit: N) -> N {
        self.acc.unwrap_or(unit)
    }
}

/// Differentiable tiling factors for one layer, including the inferred
/// DRAM-level factors (§5.3.3).
#[derive(Clone, Copy)]
pub struct FactorVars<N> {
    /// Temporal factor variables per level per dim (level 3 inferred).
    pub temporal: [[N; NUM_DIMS]; NUM_LEVELS],
    /// Spatial factor variables per level per dim.
    pub spatial: [[N; NUM_DIMS]; NUM_LEVELS],
    /// Loop orders (fixed during a gradient step).
    pub orders: [LoopOrder; NUM_LEVELS],
    /// The shared constant-one node unit entries alias.
    unit: N,
    /// Bit `d` set ⇒ `temporal[lvl][d]` is the unit constant.
    temporal_unit: [u8; NUM_LEVELS],
    /// Bit `d` set ⇒ `spatial[lvl][d]` is the unit constant.
    spatial_unit: [u8; NUM_LEVELS],
}

impl<N: Scalar> FactorVars<N> {
    /// Build factor variables from a relaxed mapping, appending the leaf
    /// variables (the raw log-space parameters, in
    /// [`RelaxedMapping::params`] order) to `leaves_out` — no allocation
    /// when the caller reuses its buffer across steps.
    pub fn from_relaxed_in<C: Ctx<N = N>>(
        cx: C,
        problem: &Problem,
        relaxed: &RelaxedMapping,
        leaves_out: &mut Vec<N>,
    ) -> FactorVars<N> {
        let base = leaves_out.len();
        for row in &relaxed.log_temporal {
            for &x in row {
                leaves_out.push(cx.leaf(x));
            }
        }
        leaves_out.push(cx.leaf(relaxed.log_spatial_c));
        leaves_out.push(cx.leaf(relaxed.log_spatial_k));
        let leaves = &leaves_out[base..];
        let one = cx.constant(1.0);
        let mut temporal = [[one; NUM_DIMS]; NUM_LEVELS];
        let mut spatial = [[one; NUM_DIMS]; NUM_LEVELS];
        for lvl in 0..3 {
            for d in Dim::ALL {
                temporal[lvl][d.index()] = leaves[lvl * NUM_DIMS + d.index()].exp();
            }
        }
        spatial[level::ACCUMULATOR][Dim::C.index()] = leaves[3 * NUM_DIMS].exp();
        spatial[level::SCRATCHPAD][Dim::K.index()] = leaves[3 * NUM_DIMS + 1].exp();
        // Every temporal factor is a live exp (or the inferred DRAM ratio
        // below); among spatial factors only ACC/C and SPAD/K are live.
        let mut spatial_unit = [(1u8 << NUM_DIMS) - 1; NUM_LEVELS];
        spatial_unit[level::ACCUMULATOR] &= !(1 << Dim::C.index());
        spatial_unit[level::SCRATCHPAD] &= !(1 << Dim::K.index());
        let fv_partial = FactorVars {
            temporal,
            spatial,
            orders: [LoopOrder::canonical(relaxed.orders[0]); NUM_LEVELS],
            unit: one,
            temporal_unit: [0; NUM_LEVELS],
            spatial_unit,
        };
        // Inferred DRAM factors: problem size over the product of inner
        // factors. Gradients flow through the division.
        let mut temporal = fv_partial.temporal;
        for d in Dim::ALL {
            let mut inner = UnitProd::new();
            for lvl in 0..3 {
                fv_partial.mul_temporal(&mut inner, lvl, d);
            }
            for lvl in 0..NUM_LEVELS {
                fv_partial.mul_spatial(&mut inner, lvl, d);
            }
            temporal[level::DRAM][d.index()] =
                cx.constant(problem.size(d) as f64) / inner.finish(one);
        }
        let orders = core::array::from_fn(|i| LoopOrder::canonical(relaxed.orders[i]));
        FactorVars {
            temporal,
            orders,
            ..fv_partial
        }
    }

    /// Build constant factor variables from an integer mapping (used for
    /// model-correlation studies; no useful gradients). Factors that are
    /// exactly 1 share a single unit node instead of recording their own
    /// constants.
    pub fn from_mapping<C: Ctx<N = N>>(cx: C, mapping: &Mapping) -> FactorVars<N> {
        let one = cx.constant(1.0);
        let mut temporal = [[one; NUM_DIMS]; NUM_LEVELS];
        let mut spatial = [[one; NUM_DIMS]; NUM_LEVELS];
        let mut temporal_unit = [0u8; NUM_LEVELS];
        let mut spatial_unit = [0u8; NUM_LEVELS];
        for i in 0..NUM_LEVELS {
            for d in 0..NUM_DIMS {
                let t = mapping.temporal[i][d] as f64;
                // dosa-lint: allow(float-eq) — `t` is an integer tile factor
                // cast to f64; 1.0 is exactly representable, so `== 1.0` is an
                // exact unit-factor test, not a tolerance question.
                if t == 1.0 {
                    temporal_unit[i] |= 1 << d;
                } else {
                    temporal[i][d] = cx.constant(t);
                }
                let s = mapping.spatial[i][d] as f64;
                // dosa-lint: allow(float-eq) — same as the temporal factor
                // above: integer-valued f64, exact unit test.
                if s == 1.0 {
                    spatial_unit[i] |= 1 << d;
                } else {
                    spatial[i][d] = cx.constant(s);
                }
            }
        }
        FactorVars {
            temporal,
            spatial,
            orders: mapping.orders,
            unit: one,
            temporal_unit,
            spatial_unit,
        }
    }

    fn temporal(&self, lvl: usize, d: Dim) -> N {
        self.temporal[lvl][d.index()]
    }

    fn spatial(&self, lvl: usize, d: Dim) -> N {
        self.spatial[lvl][d.index()]
    }

    #[inline]
    fn temporal_is_unit(&self, lvl: usize, d: Dim) -> bool {
        self.temporal_unit[lvl] & (1 << d.index()) != 0
    }

    #[inline]
    fn spatial_is_unit(&self, lvl: usize, d: Dim) -> bool {
        self.spatial_unit[lvl] & (1 << d.index()) != 0
    }

    /// Multiply the temporal factor at `(lvl, d)` into `p` unless it is a
    /// unit constant.
    #[inline]
    fn mul_temporal(&self, p: &mut UnitProd<N>, lvl: usize, d: Dim) {
        if !self.temporal_is_unit(lvl, d) {
            p.mul(self.temporal(lvl, d));
        }
    }

    /// Multiply the spatial factor at `(lvl, d)` into `p` unless it is a
    /// unit constant.
    #[inline]
    fn mul_spatial(&self, p: &mut UnitProd<N>, lvl: usize, d: Dim) {
        if !self.spatial_is_unit(lvl, d) {
            p.mul(self.spatial(lvl, d));
        }
    }

    /// Product of all spatial factors (utilized PEs, Eq. 12).
    pub fn spatial_product<C: Ctx<N = N>>(&self, _cx: C) -> N {
        let mut p = UnitProd::new();
        for lvl in 0..NUM_LEVELS {
            for d in Dim::ALL {
                self.mul_spatial(&mut p, lvl, d);
            }
        }
        p.finish(self.unit)
    }

    /// The invalid-mapping penalty (Eq. 18): `Σ max(1 − f, 0)` over every
    /// factor, including the inferred DRAM factors. Unit factors contribute
    /// an exact zero and are skipped.
    pub fn penalty<C: Ctx<N = N>>(&self, cx: C) -> N {
        let mut pen = cx.constant(0.0);
        for lvl in 0..NUM_LEVELS {
            for d in Dim::ALL {
                if !self.temporal_is_unit(lvl, d) {
                    pen = pen + self.temporal(lvl, d).hinge_below(1.0);
                }
                if !self.spatial_is_unit(lvl, d) {
                    pen = pen + self.spatial(lvl, d).hinge_below(1.0);
                }
            }
        }
        pen
    }
}

/// Differentiable hardware parameters (the minimal parameterization of
/// Figure 3, or constants when evaluating a fixed design).
pub struct HwVars<N> {
    /// PE array side (`√C_PE`).
    pub pe_side: N,
    /// Accumulator capacity in words.
    pub acc_words: N,
    /// Scratchpad capacity in words.
    pub spad_words: N,
}

impl<N: Scalar> HwVars<N> {
    /// Constants from a concrete configuration.
    pub fn fixed<C: Ctx<N = N>>(cx: C, hw: &HardwareConfig) -> HwVars<N> {
        HwVars {
            pe_side: cx.constant(hw.pe_side() as f64),
            acc_words: cx.constant(hw.acc_words() as f64),
            spad_words: cx.constant(hw.spad_words() as f64),
        }
    }

    /// Derive the minimal hardware supporting all `layers` (Eqs. 1–5 plus
    /// the cross-layer max of Figure 3), on the tape so gradients flow from
    /// hardware-dependent energy and bandwidth back into tiling factors.
    pub fn derive<C: Ctx<N = N>>(cx: C, layers: &[(&Problem, &FactorVars<N>)]) -> HwVars<N> {
        Self::derive_with_pe(cx, layers, None)
    }

    /// Like [`HwVars::derive`] but with the PE side pinned (the Fig. 12
    /// setting: 16×16 PEs fixed, buffers and mappings searched).
    pub fn derive_with_pe<C: Ctx<N = N>>(
        cx: C,
        layers: &[(&Problem, &FactorVars<N>)],
        fixed_pe_side: Option<u64>,
    ) -> HwVars<N> {
        // Sized once: at most the unit stand-in plus every spatial factor
        // per layer, so recording never regrows these.
        let mut sides = Vec::with_capacity(layers.len() * (1 + NUM_LEVELS * NUM_DIMS));
        let mut accs = Vec::with_capacity(layers.len());
        let mut spads = Vec::with_capacity(layers.len());
        for (p, fv) in layers {
            // The unit stand-in goes first so max-fold tie routing matches
            // a full 28-entry scan (unit-valued entries precede the live
            // ACC/C and SPAD/K factors in level-major order).
            sides.push(fv.unit);
            for lvl in 0..NUM_LEVELS {
                for d in Dim::ALL {
                    if !fv.spatial_is_unit(lvl, d) {
                        sides.push(fv.spatial(lvl, d));
                    }
                }
            }
            accs.push(tile_words_var(
                cx,
                p,
                fv,
                level::ACCUMULATOR,
                Tensor::Outputs,
            ));
            let w = tile_words_var(cx, p, fv, level::SCRATCHPAD, Tensor::Weights);
            let i = tile_words_var(cx, p, fv, level::SCRATCHPAD, Tensor::Inputs);
            spads.push(w + i);
        }
        let pe_side = match fixed_pe_side {
            Some(s) => cx.constant(s as f64),
            None => {
                let side = max_of(cx, &sides);
                // Cap at the architectural maximum (§6.1).
                side.min(cx.constant(MAX_PE_SIDE as f64))
            }
        };
        HwVars {
            pe_side,
            acc_words: max_of(cx, &accs),
            spad_words: max_of(cx, &spads),
        }
    }

    /// Round the current values into a concrete [`HardwareConfig`]
    /// (buffers up to whole KB, §6.1).
    pub fn to_config(&self) -> HardwareConfig {
        let side = (self.pe_side.value().round() as u64).clamp(1, MAX_PE_SIDE);
        let acc_kb = (self.acc_words.value() * 4.0 / 1024.0).ceil().max(1.0);
        let spad_kb = (self.spad_words.value() / 1024.0).ceil().max(1.0);
        HardwareConfig::new(side, acc_kb, spad_kb).expect("derived hardware is valid")
    }
}

/// Differentiable tile footprint of tensor `t` at level `i` (Eqs. 2–4):
/// temporal factors below `i` times all spatial factors of relevant dims,
/// with the stride halo for inputs.
pub fn tile_words_var<C: Ctx>(
    cx: C,
    problem: &Problem,
    fv: &FactorVars<C::N>,
    i: usize,
    t: Tensor,
) -> C::N {
    let _ = cx;
    let inner = |d: Dim| -> C::N {
        let mut f = UnitProd::new();
        for j in 0..i {
            fv.mul_temporal(&mut f, j, d);
        }
        for j in 0..NUM_LEVELS {
            fv.mul_spatial(&mut f, j, d);
        }
        f.finish(fv.unit)
    };
    match t {
        Tensor::Weights => inner(Dim::R) * inner(Dim::S) * inner(Dim::C) * inner(Dim::K),
        Tensor::Outputs => inner(Dim::P) * inner(Dim::Q) * inner(Dim::K) * inner(Dim::N),
        Tensor::Inputs => {
            let h = (inner(Dim::P) - 1.0) * problem.stride_p() as f64 + inner(Dim::R);
            let w = (inner(Dim::Q) - 1.0) * problem.stride_q() as f64 + inner(Dim::S);
            inner(Dim::C) * inner(Dim::N) * h * w
        }
    }
}

/// Differentiable refetch analysis (mirror of `dosa_timeloop::refetch`):
/// `(rel, x)` over the temporal loops above level `i`. The mask — which
/// loops are outer to the innermost non-unit relevant loop — is decided
/// from current forward values, keeping integer evaluations exact.
///
/// The mask is the model's only value-dependent structure, so it is
/// decided through [`Scalar::any_exceeds`], which a tape records as
/// replay guards. The question is asked only where the answer changes
/// what gets recorded: at each non-unit irrelevant loop met before the
/// innermost non-unit relevant loop is found, "does any relevant factor
/// since the last question exceed one?". The recorded structure and the
/// guard answers then determine each other.
fn refetch_var<N: Scalar>(fv: &FactorVars<N>, i: usize, relevant: DimSet) -> (N, N) {
    let mut rel = UnitProd::new();
    let mut x = UnitProd::new();
    let mut past_innermost_relevant = false;
    // Relevant factors met since the last question.
    let mut pending = [fv.unit; NUM_LEVELS * NUM_DIMS];
    let mut n = 0;
    for j in i..NUM_LEVELS {
        for &d in fv.orders[j].dims() {
            if relevant.contains(d) {
                fv.mul_temporal(&mut rel, j, d);
                if !past_innermost_relevant && !fv.temporal_is_unit(j, d) {
                    pending[n] = fv.temporal(j, d);
                    n += 1;
                }
            } else if !fv.temporal_is_unit(j, d) {
                if !past_innermost_relevant && n > 0 {
                    past_innermost_relevant = N::any_exceeds(&pending[..n], UNIT_EPS);
                    n = 0;
                }
                if past_innermost_relevant {
                    fv.mul_temporal(&mut x, j, d);
                }
            }
        }
    }
    (rel.finish(fv.unit), x.finish(fv.unit))
}

/// Differentiable broadcast / spatial-reduction discount over levels
/// `lo..=hi` (Eqs. 8, 10).
fn spatial_discount_var<N: Scalar>(
    fv: &FactorVars<N>,
    lo: usize,
    hi: usize,
    relevant: DimSet,
) -> N {
    let mut f = UnitProd::new();
    for j in lo..=hi {
        for d in Dim::ALL {
            if !relevant.contains(d) {
                fv.mul_spatial(&mut f, j, d);
            }
        }
    }
    f.finish(fv.unit)
}

/// Differentiable latency and energy of one layer (Eqs. 12–13).
pub struct LayerPerfVars<N> {
    /// Latency in cycles.
    pub latency: N,
    /// Energy in µJ.
    pub energy_uj: N,
}

/// Evaluate the differentiable model for one layer on hardware `hw`.
pub fn layer_perf_vars<C: Ctx>(
    cx: C,
    problem: &Problem,
    fv: &FactorVars<C::N>,
    hw: &HwVars<C::N>,
    hier: &Hierarchy,
) -> LayerPerfVars<C::N> {
    let macs = cx.constant(problem.macs() as f64);
    let mut accesses: [C::N; NUM_LEVELS] = [cx.constant(0.0); NUM_LEVELS];

    for t in Tensor::ALL {
        let rel_dims = t.dims();
        // The levels holding `t`, innermost first, with their tiles and
        // refetch factors. Fixed arrays keep recording allocation-free;
        // slots past `n` keep the unit placeholder and are never read.
        let mut holding = [0usize; NUM_LEVELS];
        let mut tiles = [fv.unit; NUM_LEVELS];
        let mut refetches = [(fv.unit, fv.unit); NUM_LEVELS];
        let mut n = 0;
        for i in (0..NUM_LEVELS).filter(|&i| hier.level(i).stores(t)) {
            holding[n] = i;
            tiles[n] = tile_words_var(cx, problem, fv, i, t);
            refetches[n] = refetch_var(fv, i, rel_dims);
            n += 1;
        }
        let holding = &holding[..n];
        let outermost = *holding.last().expect("DRAM stores everything");

        for (pos, &i) in holding.iter().enumerate() {
            let (rel, x) = refetches[pos];
            let tile = tiles[pos];
            let child = if pos > 0 { Some(pos - 1) } else { None };
            let is_outer = i == outermost;
            let mut level_total = cx.constant(0.0);

            match t {
                Tensor::Weights | Tensor::Inputs => {
                    if !is_outer {
                        level_total = level_total + tile * rel * x; // fills
                    }
                    let reads = match child {
                        None => macs / spatial_discount_var(fv, 0, i, rel_dims),
                        Some(c) => {
                            let (crel, cx_) = refetches[c];
                            let child_fills = tiles[c] * crel * cx_;
                            child_fills / spatial_discount_var(fv, holding[c] + 1, i, rel_dims)
                        }
                    };
                    level_total = level_total + reads;
                }
                Tensor::Outputs => {
                    let residencies = rel * x;
                    if !is_outer {
                        // Drain reads + partial reloads (fills on revisits).
                        let drains = tile * residencies;
                        let fills = tile * rel * (x - 1.0);
                        level_total = level_total + drains + fills;
                    }
                    let updates = match child {
                        None => macs / spatial_discount_var(fv, 0, i, rel_dims),
                        Some(c) => {
                            let (crel, cx_) = refetches[c];
                            let child_drains = tiles[c] * crel * cx_;
                            child_drains / spatial_discount_var(fv, holding[c] + 1, i, rel_dims)
                        }
                    };
                    level_total = level_total + updates;
                    match child {
                        None => {
                            // RMW reads with first-update elision.
                            let rmw = (updates - tile * residencies).relu();
                            level_total = level_total + rmw;
                        }
                        Some(c) => {
                            let (crel, cx_) = refetches[c];
                            let child_refills = tiles[c] * crel * (cx_ - 1.0);
                            let serve = child_refills
                                / spatial_discount_var(fv, holding[c] + 1, i, rel_dims);
                            level_total = level_total + serve;
                        }
                    }
                }
            }
            accesses[i] = accesses[i] + level_total;
        }
    }

    // Latency (Eq. 12): roofline over compute and memory levels.
    let compute = macs / fv.spatial_product(cx);
    let pe2 = hw.pe_side * hw.pe_side;
    let bw: [C::N; NUM_LEVELS] = [
        pe2 * 2.0,
        hw.pe_side * 2.0,
        hw.pe_side * 2.0,
        cx.constant(8.0),
    ];
    let mut latency = compute;
    for i in 0..NUM_LEVELS {
        latency = latency.max(accesses[i] / bw[i]);
    }

    // Energy (Eq. 13) with capacity-dependent SRAM EPAs (Table 2).
    let acc_kb = hw.acc_words * (4.0 / 1024.0);
    let spad_kb = hw.spad_words * (1.0 / 1024.0);
    let epa_acc = acc_kb / hw.pe_side * EPA_ACC_SLOPE + EPA_ACC_BASE;
    let epa_spad = spad_kb * EPA_SPAD_SLOPE + EPA_SPAD_BASE;
    let pj = macs * EPA_MAC
        + accesses[level::REGISTERS] * EPA_REGISTERS
        + accesses[level::ACCUMULATOR] * epa_acc
        + accesses[level::SCRATCHPAD] * epa_spad
        + accesses[level::DRAM] * EPA_DRAM;
    let energy_uj = pj * 1e-6;

    LayerPerfVars { latency, energy_uj }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosa_autodiff::Tape;
    use dosa_timeloop::{compute_traffic, evaluate_layer, random_mapping};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn diff_perf(problem: &Problem, mapping: &Mapping, hw: &HardwareConfig) -> (f64, f64) {
        let tape = Tape::new();
        let hier = Hierarchy::gemmini();
        let fv = FactorVars::from_mapping(&tape, mapping);
        let hwv = HwVars::fixed(&tape, hw);
        let perf = layer_perf_vars(&tape, problem, &fv, &hwv, &hier);
        (perf.latency.value(), perf.energy_uj.value())
    }

    #[test]
    fn latency_matches_reference_exactly_on_integer_mappings() {
        let hier = Hierarchy::gemmini();
        let hw = HardwareConfig::gemmini_default();
        let mut rng = StdRng::seed_from_u64(1234);
        let problems = [
            Problem::conv("a", 3, 3, 56, 56, 64, 64, 1).unwrap(),
            Problem::conv("b", 1, 1, 14, 14, 256, 1024, 1).unwrap(),
            Problem::conv("c", 7, 7, 112, 112, 3, 64, 2).unwrap(),
            Problem::matmul("d", 512, 768, 768).unwrap(),
        ];
        for p in &problems {
            for _ in 0..25 {
                let m = random_mapping(&mut rng, p, &hier, 16);
                let reference = evaluate_layer(p, &m, &hw, &hier);
                let (lat, _) = diff_perf(p, &m, &hw);
                let rel =
                    (lat - reference.latency_cycles).abs() / reference.latency_cycles.max(1.0);
                assert!(
                    rel < 1e-9,
                    "{p}: diff {lat} vs ref {}",
                    reference.latency_cycles
                );
            }
        }
    }

    #[test]
    fn eval_ctx_matches_tape_forward_bits() {
        use dosa_autodiff::Values;
        let hier = Hierarchy::gemmini();
        let hw = HardwareConfig::gemmini_default();
        let mut rng = StdRng::seed_from_u64(77);
        let p = Problem::conv("e", 3, 3, 28, 28, 32, 64, 1).unwrap();
        for _ in 0..10 {
            let m = random_mapping(&mut rng, &p, &hier, 16);
            let (lat_t, e_t) = diff_perf(&p, &m, &hw);
            let fv = FactorVars::from_mapping(Values, &m);
            let hwv = HwVars::fixed(Values, &hw);
            let perf = layer_perf_vars(Values, &p, &fv, &hwv, &hier);
            assert_eq!(perf.latency.to_bits(), lat_t.to_bits());
            assert_eq!(perf.energy_uj.to_bits(), e_t.to_bits());
        }
    }

    #[test]
    fn energy_differs_only_by_dram_block_ceiling() {
        let hier = Hierarchy::gemmini();
        let hw = HardwareConfig::gemmini_default();
        let mut rng = StdRng::seed_from_u64(99);
        let p = Problem::conv("a", 3, 3, 28, 28, 128, 128, 1).unwrap();
        for _ in 0..25 {
            let m = random_mapping(&mut rng, &p, &hier, 16);
            let reference = evaluate_layer(&p, &m, &hw, &hier);
            let (_, energy) = diff_perf(&p, &m, &hw);
            // Reference >= diff (ceiling only adds energy), and the gap is
            // exactly the DRAM padding.
            let traffic = compute_traffic(&p, &m, &hier);
            let padded: u64 = traffic
                .dram_streams
                .iter()
                .map(|s| (s.tile_words * s.transfers).div_ceil(64) * 64)
                .sum();
            let pad_uj = (padded - traffic.accesses(3)) as f64 * 100.0 * 1e-6;
            assert!(
                (reference.energy_uj - energy - pad_uj).abs() / reference.energy_uj.max(1e-12)
                    < 1e-9,
                "gap mismatch"
            );
        }
    }

    #[test]
    fn gradients_flow_to_every_parameter() {
        let p = Problem::conv("g", 3, 3, 28, 28, 64, 64, 1).unwrap();
        let hier = Hierarchy::gemmini();
        let tape = Tape::new();
        let mut relaxed =
            crate::relaxed::RelaxedMapping::identity(dosa_timeloop::Stationarity::WeightStationary);
        // Start away from 1 so masks are active.
        let v: Vec<f64> = (0..crate::relaxed::PARAMS_PER_LAYER)
            .map(|i| 0.3 + 0.05 * i as f64)
            .collect();
        relaxed.set_params(&v);
        let mut leaves = Vec::new();
        let fv = FactorVars::from_relaxed_in(&tape, &p, &relaxed, &mut leaves);
        let hw = HwVars::derive(&tape, &[(&p, &fv)]);
        let perf = layer_perf_vars(&tape, &p, &fv, &hw, &hier);
        let loss = perf.latency * perf.energy_uj;
        let grads = tape.backward(loss);
        let nonzero = leaves.iter().filter(|l| grads.wrt(**l) != 0.0).count();
        // Every log-factor should influence EDP (a few may sit on flat
        // max() branches, but most must be active).
        assert!(nonzero > leaves.len() / 2, "only {nonzero} active grads");
    }

    #[test]
    fn derived_hw_matches_integer_min_hw() {
        let hier = Hierarchy::gemmini();
        let mut rng = StdRng::seed_from_u64(5);
        let p = Problem::conv("h", 1, 1, 56, 56, 64, 64, 1).unwrap();
        for _ in 0..20 {
            let m = random_mapping(&mut rng, &p, &hier, 64);
            let expect = dosa_timeloop::min_hw(&p, &m, &hier);
            let tape = Tape::new();
            let fv = FactorVars::from_mapping(&tape, &m);
            let hw = HwVars::derive(&tape, &[(&p, &fv)]);
            let got = hw.to_config();
            assert_eq!(got.pe_side(), expect.pe_side());
            assert_eq!(got.acc_kb(), expect.acc_kb());
            assert_eq!(got.spad_kb(), expect.spad_kb());
        }
    }

    #[test]
    fn penalty_zero_for_valid_relaxed_points() {
        let p = Problem::conv("v", 1, 1, 8, 8, 16, 16, 1).unwrap();
        let tape = Tape::new();
        let relaxed =
            crate::relaxed::RelaxedMapping::identity(dosa_timeloop::Stationarity::WeightStationary);
        let fv = FactorVars::from_relaxed_in(&tape, &p, &relaxed, &mut Vec::new());
        assert_eq!(fv.penalty(&tape).value(), 0.0);
    }

    #[test]
    fn penalty_positive_when_products_overflow() {
        let p = Problem::conv("v", 1, 1, 8, 8, 16, 16, 1).unwrap();
        let tape = Tape::new();
        let mut relaxed =
            crate::relaxed::RelaxedMapping::identity(dosa_timeloop::Stationarity::WeightStationary);
        relaxed.log_temporal[0][Dim::P.index()] = (32.0f64).ln(); // > P=8
        let mut leaves = Vec::new();
        let fv = FactorVars::from_relaxed_in(&tape, &p, &relaxed, &mut leaves);
        let pen = fv.penalty(&tape);
        assert!(pen.value() > 0.0);
        // The gradient should push the offending factor down.
        let grads = tape.backward(pen);
        let p_idx = Dim::P.index();
        assert!(grads.wrt(leaves[p_idx]) > 0.0);
    }
}
