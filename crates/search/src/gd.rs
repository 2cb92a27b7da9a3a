//! DOSA's one-loop gradient-descent co-search (§3.2, §5).
//!
//! One search run follows the paper's toolflow: generate start points
//! (random hardware + CoSA mappings, with the §5.3.1 rejection rule), run
//! Adam on all layers' log tiling factors simultaneously against the
//! differentiable EDP loss, round to valid mappings every N steps
//! (§5.3.2), optionally re-select loop orderings on each rounding (§5.2.1)
//! or blend them with the softmax loss (§5.2.2), and evaluate every rounded
//! point with the reference model, tracking the best hardware + mapping
//! configuration found. Every model evaluation — one gradient step or one
//! reference evaluation — counts as one *sample*, making the histories
//! comparable to the black-box baselines (§6.3).

use crate::request::SearchRequest;
use crate::service::{run_blocking, SearchService};
use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_timeloop::{evaluate_layer, min_hw_for_all, LoopOrder, Mapping, Stationarity};
use dosa_workload::Layer;

/// Loop-ordering search strategy (§5.2, Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopOrderStrategy {
    /// No loop-ordering search: keep the start point's orderings.
    Baseline,
    /// Re-select the best of WS/IS/OS per layer at every rounding (§5.2.1).
    Iterate,
    /// Gradient-based softmax weighting of WS/IS/OS (§5.2.2).
    Softmax,
}

/// Configuration of one DOSA search run.
#[derive(Debug, Clone, Copy)]
pub struct GdConfig {
    /// Number of start points (the paper uses 7).
    pub start_points: usize,
    /// Gradient steps per start point (890 in §6.2, 1490 in §6.3–6.5).
    pub steps_per_start: usize,
    /// Round to a valid mapping every this many steps (300 / 500).
    pub round_every: usize,
    /// Adam learning rate on the log tiling factors.
    pub learning_rate: f64,
    /// Loop-ordering strategy.
    pub strategy: LoopOrderStrategy,
    /// Pin the PE array side (Fig. 12), in `1..=MAX_PE_SIDE`; `None`
    /// derives it from mappings.
    pub fixed_pe_side: Option<u64>,
    /// Start-point rejection factor (§5.3.1; the paper uses 10).
    pub rejection_factor: f64,
    /// RNG seed; runs are deterministic given the seed.
    pub seed: u64,
    /// Run each start point in bounded segments of this many gradient
    /// steps: after a segment the descent checkpoints its full state
    /// (parameters, Adam moments, partial history) and re-enqueues, so
    /// long descents cannot monopolize the service's worker pool.
    /// `None` (the default) runs each start to completion in one item.
    /// Segmentation is bit-exact: any `k` produces the same result as
    /// the unsegmented run, so it is deliberately **excluded** from the
    /// result-cache fingerprint.
    pub segment_steps: Option<usize>,
}

impl Default for GdConfig {
    fn default() -> Self {
        GdConfig {
            start_points: 7,
            steps_per_start: 890,
            round_every: 300,
            learning_rate: 0.04,
            strategy: LoopOrderStrategy::Iterate,
            fixed_pe_side: None,
            rejection_factor: 10.0,
            seed: 0,
            segment_steps: None,
        }
    }
}

/// One point of a best-so-far history: reference-model EDP after a number
/// of model evaluations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchPoint {
    /// Model evaluations consumed so far.
    pub samples: usize,
    /// Best reference-evaluated EDP found so far (µJ·cycles; infinite
    /// until the first valid evaluation).
    pub best_edp: f64,
}

/// Result of a search run (DOSA or a baseline).
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best reference-model EDP found.
    pub best_edp: f64,
    /// Hardware configuration of the best point.
    pub best_hw: HardwareConfig,
    /// Per-layer mappings of the best point.
    pub best_mappings: Vec<Mapping>,
    /// Best-so-far history over samples.
    pub history: Vec<SearchPoint>,
    /// Total model evaluations consumed.
    pub samples: usize,
}

impl SearchResult {
    pub(crate) fn empty() -> SearchResult {
        SearchResult {
            best_edp: f64::INFINITY,
            best_hw: HardwareConfig::gemmini_default(),
            best_mappings: Vec::new(),
            history: Vec::new(),
            samples: 0,
        }
    }

    pub(crate) fn consider(&mut self, edp: f64, hw: &HardwareConfig, mappings: &[Mapping]) {
        if edp < self.best_edp {
            self.best_edp = edp;
            self.best_hw = *hw;
            self.best_mappings = mappings.to_vec();
        }
    }

    pub(crate) fn record(&mut self) {
        self.history.push(SearchPoint {
            samples: self.samples,
            best_edp: self.best_edp,
        });
    }

    /// Record the final best-so-far point unless the last record already
    /// captured the current sample count — the black-box searchers used
    /// to push a duplicated trailing `SearchPoint` whenever the
    /// `record_every` cadence landed on the last sample. Keeps the
    /// history's `samples` axis strictly increasing.
    pub(crate) fn record_final(&mut self) {
        if self.samples == 0 {
            return;
        }
        if self.history.last().is_none_or(|p| p.samples < self.samples) {
            self.record();
        }
        debug_assert!(
            self.history.windows(2).all(|w| w[0].samples < w[1].samples),
            "history must have strictly increasing sample counts"
        );
    }
}

/// The hardware a rounding evaluates `mappings` on: their minimal
/// hardware, with the PE side pinned to `fixed_pe_side` if given. It
/// depends on the tiling factors only, not on the loop orders.
pub(crate) fn rounded_hw(
    layers: &[Layer],
    mappings: &[Mapping],
    fixed_pe_side: Option<u64>,
    hier: &Hierarchy,
) -> HardwareConfig {
    let pairs = layers.iter().zip(mappings).map(|(l, m)| (&l.problem, m));
    let hw = min_hw_for_all(pairs, hier);
    let Some(side) = fixed_pe_side else {
        return hw;
    };
    // dosa-lint: allow(panic-perimeter) — `GdConfig::validate` keeps `side`
    // in 1..=MAX_PE_SIDE (a surrogate's default PE side is in range too) and
    // the SRAM sizes from `min_hw_for_all` are in range, so the constructor
    // cannot fail; an `Err` is a bug.
    HardwareConfig::new(side, hw.acc_kb(), hw.spad_kb()).expect("valid pe side")
}

/// Greedy per-layer, per-level loop-ordering selection (§5.2.1: "three
/// loop orderings per layer per level"): for each layer and memory level,
/// pick the WS/IS/OS ordering minimizing whole-model EDP given every other
/// current choice. Returns the chosen stationarity per layer per level and
/// updates `mappings` in place.
#[allow(clippy::needless_range_loop)] // (layer, level) coordinate descent reads clearest indexed
pub fn choose_best_orderings(
    layers: &[Layer],
    mappings: &mut [Mapping],
    hw: &HardwareConfig,
    hier: &Hierarchy,
) -> Vec<[Stationarity; dosa_accel::NUM_LEVELS]> {
    const NL: usize = dosa_accel::NUM_LEVELS;
    let n = layers.len();
    let mut choices = vec![[Stationarity::WeightStationary; NL]; n];
    // Seed choices and totals from the current orderings.
    let eval = |layer: &Layer, m: &Mapping| {
        let perf = evaluate_layer(&layer.problem, m, hw, hier);
        (
            perf.energy_uj * layer.count as f64,
            perf.latency_cycles * layer.count as f64,
        )
    };
    for (i, m) in mappings.iter_mut().enumerate() {
        for lvl in 0..NL {
            let s = *Stationarity::ALL
                .iter()
                .find(|s| LoopOrder::canonical(**s) == m.orders[lvl])
                .unwrap_or(&Stationarity::WeightStationary);
            choices[i][lvl] = s;
            m.orders[lvl] = LoopOrder::canonical(s);
        }
    }
    let mut per_layer: Vec<(f64, f64)> = layers
        .iter()
        .zip(mappings.iter())
        .map(|(l, m)| eval(l, m))
        .collect();
    let mut energy: f64 = per_layer.iter().map(|p| p.0).sum();
    let mut latency: f64 = per_layer.iter().map(|p| p.1).sum();

    // Two greedy coordinate passes over (layer, level) choices.
    for _ in 0..2 {
        for i in 0..n {
            for lvl in 0..NL {
                let (e_cur, l_cur) = per_layer[i];
                let mut best = (choices[i][lvl], e_cur, l_cur);
                let mut best_edp = energy * latency;
                for s in Stationarity::ALL {
                    if s == choices[i][lvl] {
                        continue;
                    }
                    let mut m = mappings[i].clone();
                    m.orders[lvl] = LoopOrder::canonical(s);
                    let (e, l) = eval(&layers[i], &m);
                    let edp = (energy - e_cur + e) * (latency - l_cur + l);
                    if edp < best_edp {
                        best_edp = edp;
                        best = (s, e, l);
                    }
                }
                if best.0 != choices[i][lvl] {
                    choices[i][lvl] = best.0;
                    mappings[i].orders[lvl] = LoopOrder::canonical(best.0);
                    energy += best.1 - e_cur;
                    latency += best.2 - l_cur;
                    per_layer[i] = (best.1, best.2);
                }
            }
        }
    }
    choices
}

/// Run the full DOSA one-loop search on `layers`, blocking until done.
///
/// This is a thin shim over the job service: it submits one
/// single-network [`Surrogate::Edp`](crate::Surrogate::Edp) request to
/// `service` and waits. Start points are generated sequentially from
/// `cfg.seed`, descended in parallel on the service's workers, and merged
/// deterministically — the result is bit-identical for every worker-thread
/// count. For batching, live progress, or cancellation, use
/// [`SearchService::submit`] directly.
///
/// # Panics
///
/// Panics if `layers` is empty or `cfg` fails
/// [`GdConfig::validate`](GdConfig::validate).
pub fn dosa_search(
    service: &SearchService,
    layers: &[Layer],
    hier: &Hierarchy,
    cfg: &GdConfig,
) -> SearchResult {
    let request = SearchRequest::builder(hier.clone())
        .network("network", layers.to_vec())
        .config(*cfg)
        .build();
    run_blocking(service, request, "GdConfig")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosa_timeloop::evaluate_model;
    use dosa_workload::Problem;

    fn tiny_layers() -> Vec<Layer> {
        vec![
            Layer::repeated(Problem::conv("a", 3, 3, 28, 28, 64, 64, 1).unwrap(), 2),
            Layer::once(Problem::matmul("b", 64, 256, 256).unwrap()),
        ]
    }

    fn tiny_cfg() -> GdConfig {
        GdConfig {
            start_points: 2,
            steps_per_start: 60,
            round_every: 30,
            ..GdConfig::default()
        }
    }

    #[test]
    fn search_finds_valid_configuration() {
        let service = SearchService::builder().build();
        let layers = tiny_layers();
        let hier = Hierarchy::gemmini();
        let res = dosa_search(&service, &layers, &hier, &tiny_cfg());
        assert!(res.best_edp.is_finite());
        assert_eq!(res.best_mappings.len(), 2);
        for (l, m) in layers.iter().zip(&res.best_mappings) {
            m.validate(&l.problem, &hier).unwrap();
        }
        assert!(res.samples >= 120);
        // History is monotone non-increasing.
        for w in res.history.windows(2) {
            assert!(w[1].best_edp <= w[0].best_edp);
        }
    }

    #[test]
    fn gd_improves_over_first_rounding() {
        let service = SearchService::builder().build();
        let layers = tiny_layers();
        let hier = Hierarchy::gemmini();
        let cfg = GdConfig {
            start_points: 1,
            steps_per_start: 300,
            round_every: 60,
            seed: 3,
            ..GdConfig::default()
        };
        let res = dosa_search(&service, &layers, &hier, &cfg);
        let first = res
            .history
            .iter()
            .find(|p| p.best_edp.is_finite())
            .expect("some evaluation");
        assert!(
            res.best_edp <= first.best_edp,
            "final {} vs first {}",
            res.best_edp,
            first.best_edp
        );
    }

    #[test]
    fn fixed_pe_side_is_respected() {
        let service = SearchService::builder().build();
        let layers = tiny_layers();
        let hier = Hierarchy::gemmini();
        let cfg = GdConfig {
            fixed_pe_side: Some(16),
            ..tiny_cfg()
        };
        let res = dosa_search(&service, &layers, &hier, &cfg);
        assert_eq!(res.best_hw.pe_side(), 16);
        for m in &res.best_mappings {
            assert!(m.spatial_product() <= 16 * 16);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let service = SearchService::builder().build();
        let layers = tiny_layers();
        let hier = Hierarchy::gemmini();
        let a = dosa_search(&service, &layers, &hier, &tiny_cfg());
        let b = dosa_search(&service, &layers, &hier, &tiny_cfg());
        assert_eq!(a.best_edp, b.best_edp);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    #[should_panic(expected = "invalid GdConfig: round_every must be at least 1")]
    fn degenerate_round_every_panics_with_a_typed_message() {
        let service = SearchService::builder().build();
        // Formerly a bare divide-by-zero deep in the gradient loop; now a
        // ConfigError surfaced at the service boundary.
        let cfg = GdConfig {
            round_every: 0,
            ..tiny_cfg()
        };
        dosa_search(&service, &tiny_layers(), &Hierarchy::gemmini(), &cfg);
    }

    #[test]
    fn ordering_selection_never_hurts() {
        let layers = tiny_layers();
        let hier = Hierarchy::gemmini();
        let hw = HardwareConfig::gemmini_default();
        let mut mappings: Vec<Mapping> = layers
            .iter()
            .map(|l| crate::cosa::cosa_mapping(&l.problem, &hw, &hier))
            .collect();
        let before = evaluate_model(&layers, &mappings, &hw, &hier).edp();
        choose_best_orderings(&layers, &mut mappings, &hw, &hier);
        let after = evaluate_model(&layers, &mappings, &hw, &hier).edp();
        assert!(after <= before * (1.0 + 1e-9), "{after} vs {before}");
    }
}
