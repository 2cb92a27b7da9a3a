//! Reference latency / energy / EDP evaluation (Eqs. 12–14), playing the
//! role of Timeloop + Accelergy.

use crate::mapping::Mapping;
use crate::minhw::Capacity;
use crate::traffic::{compute_traffic, DramStream, DramTraffic, Extents, LayerNest, Traffic};
use dosa_accel::level::DRAM;
use dosa_accel::{pj_to_uj, EnergyModel, HardwareConfig, Hierarchy, DRAM_BLOCK_WORDS, NUM_LEVELS};
use dosa_workload::{Layer, Problem};

/// Latency and energy of one layer under one mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPerf {
    /// Latency in cycles (Eq. 12).
    pub latency_cycles: f64,
    /// Energy in µJ (Eq. 13).
    pub energy_uj: f64,
}

impl LayerPerf {
    /// Per-layer energy-delay product in µJ·cycles.
    pub fn edp(&self) -> f64 {
        self.latency_cycles * self.energy_uj
    }
}

/// Performance of a whole model: per-layer sums combined per Eq. 14.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelPerf {
    /// Sum of per-layer latencies (weighted by repeat count), cycles.
    pub latency_cycles: f64,
    /// Sum of per-layer energies (weighted by repeat count), µJ.
    pub energy_uj: f64,
}

impl ModelPerf {
    /// Combine per-layer results per Eq. 14: each layer's latency and
    /// energy, weighted by its repeat count, summed in iteration order.
    pub fn sum<'a>(parts: impl IntoIterator<Item = (&'a Layer, LayerPerf)>) -> ModelPerf {
        let mut latency = 0.0;
        let mut energy = 0.0;
        for (layer, p) in parts {
            latency += p.latency_cycles * layer.count as f64;
            energy += p.energy_uj * layer.count as f64;
        }
        ModelPerf {
            latency_cycles: latency,
            energy_uj: energy,
        }
    }

    /// Whole-model EDP (Eq. 14): `(Σ energy) × (Σ latency)`.
    pub fn edp(&self) -> f64 {
        self.latency_cycles * self.energy_uj
    }
}

/// Evaluate one layer with the exact reference model, including Timeloop's
/// per-block DRAM energy ceiling (§4.6).
pub fn evaluate_layer(
    problem: &Problem,
    mapping: &Mapping,
    hw: &HardwareConfig,
    hier: &Hierarchy,
) -> LayerPerf {
    let traffic = compute_traffic(problem, mapping, hier);
    perf_from_traffic(&traffic, mapping, hw, hier)
}

/// Evaluate from a precomputed [`Traffic`] summary.
pub fn perf_from_traffic(
    traffic: &Traffic,
    mapping: &Mapping,
    hw: &HardwareConfig,
    hier: &Hierarchy,
) -> LayerPerf {
    Costs::new(hw, hier).perf(traffic, mapping)
}

/// A hardware design's per-access energies and per-level bandwidths.
#[derive(Debug, Clone, Copy)]
struct Costs {
    energy: EnergyModel,
    bandwidth: [f64; NUM_LEVELS],
}

impl Costs {
    fn new(hw: &HardwareConfig, hier: &Hierarchy) -> Costs {
        Costs {
            energy: EnergyModel::for_config(hw),
            bandwidth: std::array::from_fn(|i| hier.bandwidth(i, hw)),
        }
    }

    fn perf(&self, traffic: &Traffic, mapping: &Mapping) -> LayerPerf {
        // Latency: roofline over compute and each memory level (Eq. 12).
        let mut latency = compute_cycles(traffic.macs, mapping);
        for i in 0..NUM_LEVELS {
            let mem = traffic.accesses(i) as f64 / self.bandwidth[i];
            latency = latency.max(mem);
        }

        // Energy (Eq. 13); DRAM counted per block transferred, like Timeloop.
        let mut pj = traffic.macs as f64 * self.energy.epa_mac();
        for i in 0..NUM_LEVELS - 1 {
            pj += traffic.accesses(i) as f64 * self.energy.epa(i);
        }
        pj += dram_block_words(&traffic.dram_streams) as f64 * self.energy.epa(DRAM);

        LayerPerf {
            latency_cycles: latency,
            energy_uj: pj_to_uj(pj),
        }
    }

    /// [`perf`](Costs::perf)'s EDP with every on-chip term left out:
    /// latency `max(compute, DRAM accesses / DRAM bandwidth)` and energy
    /// from the MACs and DRAM blocks alone. Each omitted term is a
    /// non-negative `max` operand or addend, and rounded `max`, `+` and
    /// `×` are monotone, so the bound never exceeds the computed EDP. It
    /// is finite: its factors come from `u64` counts.
    fn edp_lower_bound(&self, macs: u64, dram: &DramTraffic, mapping: &Mapping) -> f64 {
        let mem = dram.accesses as f64 / self.bandwidth[DRAM];
        let latency = compute_cycles(macs, mapping).max(mem);
        let pj = macs as f64 * self.energy.epa_mac()
            + dram_block_words(&dram.streams) as f64 * self.energy.epa(DRAM);
        latency * pj_to_uj(pj)
    }
}

/// Cycles of the MACs alone, spread over the mapping's spatial fanout.
#[inline]
fn compute_cycles(macs: u64, mapping: &Mapping) -> f64 {
    macs as f64 / mapping.spatial_product() as f64
}

/// Timeloop counts DRAM energy per block accessed: each tensor stream's
/// total word count is rounded up to whole blocks (§4.6 — the source of
/// the small-layer divergence in Figure 4).
fn dram_block_words(streams: &[DramStream]) -> u64 {
    streams
        .iter()
        .map(|s| (s.tile_words * s.transfers).div_ceil(DRAM_BLOCK_WORDS) * DRAM_BLOCK_WORDS)
        .sum()
}

/// One layer's reference evaluation on one hardware design, for loops
/// that evaluate many mappings of the layer and keep the best: everything
/// that does not depend on the mapping (energies per access, bandwidths,
/// capacities, the MAC count and the levels holding each tensor) is
/// worked out once, in [`new`](LayerEvaluator::new).
///
/// [`evaluate_below`](LayerEvaluator::evaluate_below) checks that a
/// mapping fits, computes its DRAM traffic and from it a lower bound on
/// its EDP, and evaluates the rest only if the bound is below a
/// threshold. An evaluation returns [`evaluate_layer`]'s result bit for
/// bit. Building an evaluator or evaluating with it allocates nothing.
///
/// # Examples
///
/// ```
/// use dosa_accel::{HardwareConfig, Hierarchy};
/// use dosa_timeloop::{evaluate_layer, fits, LayerEvaluator, Mapping};
/// use dosa_workload::Problem;
///
/// let p = Problem::conv("l", 3, 3, 28, 28, 64, 64, 1)?;
/// let (hw, hier) = (HardwareConfig::gemmini_default(), Hierarchy::gemmini());
/// let m = Mapping::all_at_dram(&p);
/// assert!(fits(&p, &m, &hw, &hier));
/// let eval = LayerEvaluator::new(&p, &hw, &hier);
/// let exact = evaluate_layer(&p, &m, &hw, &hier);
/// assert_eq!(eval.evaluate_below(&m, f64::INFINITY), Some(exact));
/// assert!(eval.edp_lower_bound(&m) <= exact.edp());
/// assert_eq!(eval.evaluate_below(&m, eval.edp_lower_bound(&m)), None);
/// # Ok::<(), dosa_workload::ProblemError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LayerEvaluator<'a> {
    nest: LayerNest<'a>,
    capacity: Capacity,
    costs: Costs,
}

impl<'a> LayerEvaluator<'a> {
    /// The evaluator of `problem` on design `hw` of `hier`.
    pub fn new(problem: &'a Problem, hw: &HardwareConfig, hier: &Hierarchy) -> LayerEvaluator<'a> {
        LayerEvaluator {
            nest: LayerNest::new(problem, hier),
            capacity: Capacity::new(hw),
            costs: Costs::new(hw, hier),
        }
    }

    /// `Some(evaluate_layer(..))` of `mapping` if it [`fits`](crate::fits)
    /// and its [`edp_lower_bound`](LayerEvaluator::edp_lower_bound) is below
    /// `threshold` (or NaN); `None` otherwise. A search keeping a mapping
    /// only if its EDP beats the best so far can pass that best as the
    /// threshold and lose no keeper. The bound is finite, so an infinite
    /// threshold evaluates every fitting mapping.
    pub fn evaluate_below(&self, mapping: &Mapping, threshold: f64) -> Option<LayerPerf> {
        self.fitting_below(mapping, threshold).flatten()
    }

    /// [`evaluate_below`](LayerEvaluator::evaluate_below) for a search that
    /// also counts the mappings that fit: `None` if `mapping` does not
    /// [`fits`](crate::fits), otherwise `Some` of `evaluate_below`'s result.
    pub fn fitting_below(&self, mapping: &Mapping, threshold: f64) -> Option<Option<LayerPerf>> {
        let extents = self.capacity.admit(self.nest.problem(), mapping)?;
        let nests = self.nest.dram_nests(mapping, &extents);
        let dram = self.nest.dram_traffic(&nests);
        if self.costs.edp_lower_bound(self.nest.macs(), &dram, mapping) >= threshold {
            return Some(None);
        }
        let traffic = self.nest.traffic(nests, mapping, &extents);
        Some(Some(self.costs.perf(&traffic, mapping)))
    }

    /// A lower bound on `evaluate_layer(..).edp()` of `mapping` from its
    /// MACs and DRAM traffic alone: at most the EDP as computed, rounding
    /// included.
    pub fn edp_lower_bound(&self, mapping: &Mapping) -> f64 {
        let nests = self.nest.dram_nests(mapping, &Extents::new(mapping));
        let dram = self.nest.dram_traffic(&nests);
        self.costs.edp_lower_bound(self.nest.macs(), &dram, mapping)
    }
}

/// Evaluate `layers` under `mappings` (one per layer) on one hardware
/// configuration, combining per-layer results per Eq. 14
/// ([`ModelPerf::sum`]).
///
/// # Panics
///
/// Panics if `layers` and `mappings` have different lengths.
pub fn evaluate_model(
    layers: &[Layer],
    mappings: &[Mapping],
    hw: &HardwareConfig,
    hier: &Hierarchy,
) -> ModelPerf {
    assert_eq!(layers.len(), mappings.len(), "one mapping per layer");
    ModelPerf::sum(
        layers
            .iter()
            .zip(mappings)
            .map(|(l, m)| (l, evaluate_layer(&l.problem, m, hw, hier))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::fig3_mapping;
    use dosa_workload::Layer;

    fn fig3() -> (Problem, Mapping, HardwareConfig, Hierarchy) {
        let p = Problem::conv("fig3", 1, 1, 56, 56, 64, 64, 1).unwrap();
        let hw = HardwareConfig::new(64, 4.0, 5.0).unwrap();
        (p, fig3_mapping(), hw, Hierarchy::gemmini())
    }

    #[test]
    fn fig3_latency_is_dram_bound() {
        let (p, m, hw, h) = fig3();
        let perf = evaluate_layer(&p, &m, &hw, &h);
        // Hand-computed in the traffic tests: DRAM moves 405,504 words at
        // 8 words/cycle.
        assert_eq!(perf.latency_cycles, 405_504.0 / 8.0);
        assert!(perf.energy_uj > 0.0);
    }

    #[test]
    fn edp_composes_multiplicatively() {
        let (p, m, hw, h) = fig3();
        let lp = evaluate_layer(&p, &m, &hw, &h);
        assert!((lp.edp() - lp.latency_cycles * lp.energy_uj).abs() < 1e-9);

        let layers = [Layer::repeated(p.clone(), 3), Layer::once(p.clone())];
        let mp = evaluate_model(&layers, &[m.clone(), m], &hw, &h);
        assert!((mp.latency_cycles - 4.0 * lp.latency_cycles).abs() < 1e-6);
        assert!((mp.energy_uj - 4.0 * lp.energy_uj).abs() < 1e-9);
        // Eq. 14: EDP of the model is (4E)(4L) = 16 * per-layer EDP.
        assert!((mp.edp() - 16.0 * lp.edp()).abs() / mp.edp() < 1e-9);
    }

    #[test]
    fn block_ceiling_penalizes_tiny_tiles() {
        // A tiny layer: every DRAM transfer is one element, padded to a
        // 64-word block by the reference model.
        let p = Problem::conv("tiny", 1, 1, 2, 2, 2, 2, 1).unwrap();
        let h = Hierarchy::gemmini();
        let hw = HardwareConfig::gemmini_default();
        let m = Mapping::all_at_dram(&p);
        let t = compute_traffic(&p, &m, &h);
        let perf = perf_from_traffic(&t, &m, &hw, &h);
        // Energy with per-word accounting would be far smaller.
        let word_pj: f64 = t.accesses(3) as f64 * 100.0;
        let block_words: u64 = t
            .dram_streams
            .iter()
            .map(|s| (s.tile_words * s.transfers).div_ceil(64) * 64)
            .sum();
        assert!(block_words > t.accesses(3));
        assert!(perf.energy_uj > pj_to_uj(word_pj));
    }

    #[test]
    fn bigger_arrays_reduce_compute_latency() {
        let p = Problem::conv("c", 3, 3, 32, 32, 64, 64, 1).unwrap();
        let h = Hierarchy::gemmini();
        let mut small = Mapping::all_at_dram(&p);
        small.temporal[3][dosa_workload::Dim::C.index()] = 16;
        small.spatial[1][dosa_workload::Dim::C.index()] = 4;
        small.validate(&p, &h).unwrap();
        let mut large = Mapping::all_at_dram(&p);
        large.temporal[3][dosa_workload::Dim::C.index()] = 1;
        large.spatial[1][dosa_workload::Dim::C.index()] = 64;
        large.validate(&p, &h).unwrap();
        let hw = HardwareConfig::new(64, 32.0, 128.0).unwrap();
        let t_small = compute_traffic(&p, &small, &h);
        let t_large = compute_traffic(&p, &large, &h);
        let c_small = t_small.macs as f64 / small.spatial_product() as f64;
        let c_large = t_large.macs as f64 / large.spatial_product() as f64;
        assert!(c_large < c_small);
        let _ = hw;
    }
}
