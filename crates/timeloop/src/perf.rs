//! Reference latency / energy / EDP evaluation (Eqs. 12–14), playing the
//! role of Timeloop + Accelergy.

use crate::mapping::Mapping;
use crate::traffic::{compute_traffic, Traffic};
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
    let energy = EnergyModel::for_config(hw);

    // Latency: roofline over compute and each memory level (Eq. 12).
    let compute = traffic.macs as f64 / mapping.spatial_product() as f64;
    let mut latency = compute;
    for i in 0..NUM_LEVELS {
        let mem = traffic.accesses(i) as f64 / hier.bandwidth(i, hw);
        latency = latency.max(mem);
    }

    // Energy (Eq. 13); DRAM counted per block transferred, like Timeloop.
    let mut pj = traffic.macs as f64 * energy.epa_mac();
    for i in 0..NUM_LEVELS - 1 {
        pj += traffic.accesses(i) as f64 * energy.epa(i);
    }
    // Timeloop counts DRAM energy per block accessed: each tensor stream's
    // total word count is rounded up to whole blocks (§4.6 — the source of
    // the small-layer divergence in Figure 4).
    let dram_words: u64 = traffic
        .dram_streams
        .iter()
        .map(|s| (s.tile_words * s.transfers).div_ceil(DRAM_BLOCK_WORDS) * DRAM_BLOCK_WORDS)
        .sum();
    pj += dram_words as f64 * energy.epa(NUM_LEVELS - 1);

    LayerPerf {
        latency_cycles: latency,
        energy_uj: pj_to_uj(pj),
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
