//! Two-loop Bayesian-optimization baseline (§6.1): a Gaussian-process
//! surrogate over the hardware design space with an inner random mapper,
//! following Spotlight's hyperparameters — 100 hardware designs, 100
//! mapping samples per layer per design, candidates selected from 1000
//! random proposals by expected improvement.
//!
//! The searcher runs as [`Strategy::BayesOpt`]: each network is one work
//! item on a [`SearchService`](crate::SearchService) worker. The outer GP
//! loop is sequential and seed-deterministic (design proposals come off
//! one RNG stream in a fixed order); every joint mapping sample of a
//! design's inner search draws from its own RNG stream, and EI scoring
//! takes the first (lowest-index) maximum. Results are bit-identical for
//! every thread budget and batch composition. [`bayesian_search`] is the
//! blocking single-network shim.

use crate::engine::StartControl;
use crate::gd::SearchResult;
use crate::gp::{GaussianProcess, EI_LANES};
use crate::random_search::DesignSearch;
use crate::request::SearchRequest;
use crate::service::{run_blocking, SearchService};
use crate::startpoints::random_hw;
use crate::strategy::{stream_seed, Strategy};
use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_workload::Layer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the BB-BO baseline ([`Strategy::BayesOpt`]).
/// Validated by [`BbboConfig::validate`] at
/// [`SearchService::submit`](crate::SearchService::submit).
#[derive(Debug, Clone, Copy)]
pub struct BbboConfig {
    /// Total hardware designs to evaluate (paper: 100).
    pub num_hw: usize,
    /// Initial random designs before the surrogate takes over (must be
    /// in `1..=num_hw`; values below 2 are raised to `min(2, num_hw)` at
    /// runtime, since a Gaussian process fit on a single observation has
    /// a degenerate posterior).
    pub init_random: usize,
    /// Joint mapping samples per hardware design (paper: 100).
    pub samples_per_hw: usize,
    /// Random hardware candidates scored by EI per BO step (paper: 1000).
    pub candidates: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BbboConfig {
    fn default() -> Self {
        BbboConfig {
            num_hw: 100,
            init_random: 20,
            samples_per_hw: 100,
            candidates: 1000,
            seed: 0,
        }
    }
}

fn hw_features(hw: &HardwareConfig) -> [f64; 3] {
    [
        (hw.pe_side() as f64).ln(),
        hw.acc_kb().ln(),
        hw.spad_kb().ln(),
    ]
}

/// The inner random-mapper loop of one BB-BO design, shared by every
/// outer step: joint samples are drawn from per-sample RNG streams and
/// folded in sample order.
struct InnerLoop<'a> {
    layers: &'a [Layer],
    hier: &'a Hierarchy,
    samples: usize,
    record_every: usize,
    ctrl: StartControl<'a>,
}

impl InnerLoop<'_> {
    /// Search `hw` with `self.samples` random joint samples, updating the
    /// global `result`. Returns `ln(best model EDP)` for the GP (or a
    /// large finite penalty when no sample fit, so the GP learns to avoid
    /// the region).
    fn search(&self, hw: &HardwareConfig, design_seed: u64, result: &mut SearchResult) -> f64 {
        let mut search = DesignSearch::new(self.layers, self.hier, *hw);
        for s in 0..self.samples {
            // Cancellation stops at a sample boundary, so the fold is a
            // prefix of the uncancelled run.
            if self.ctrl.cancelled() {
                break;
            }
            let mut rng = StdRng::seed_from_u64(stream_seed(design_seed, s as u64));
            search.sample(&mut rng, s, self.record_every, result, self.ctrl);
        }
        let edp = search.model_edp();
        if edp.is_finite() {
            edp.ln()
        } else {
            // Penalize infeasible designs with a large but finite score so
            // the GP learns to avoid the region.
            1e3
        }
    }
}

/// One BO step's design proposal: fit the GP, draw `candidates` random
/// designs sequentially off the outer RNG (keeping the outer loop
/// seed-deterministic), and take the first maximum of their expected
/// improvement (ties and all-NaN scores resolve to the lowest candidate
/// index).
///
/// Candidates are drawn and scored sixteen at a time (`EI_LANES`), so
/// no candidate list is built, and the stop word is checked between
/// groups: `None` means the job stopped mid-proposal and the step is
/// abandoned.
fn propose_by_ei(
    rng: &mut impl Rng,
    observed_x: &[Vec<f64>],
    observed_y: &[f64],
    candidates: usize,
    ctrl: StartControl<'_>,
) -> Option<HardwareConfig> {
    let gp = GaussianProcess::fit(observed_x.to_vec(), observed_y.to_vec(), 1.0, 0.05);
    let best_y = observed_y.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut scorer = gp.ei_scorer(best_y);
    let mut lane_hw = [HardwareConfig::gemmini_default(); EI_LANES];
    let mut lane_x = [[0.0; 3]; EI_LANES];
    let mut scores = Vec::with_capacity(EI_LANES);
    let mut pick = None;
    let mut best_ei = f64::NEG_INFINITY;
    let mut left = candidates;
    while left > 0 {
        if ctrl.cancelled() {
            return None;
        }
        let k = left.min(EI_LANES);
        for (hw, x) in lane_hw[..k].iter_mut().zip(&mut lane_x) {
            *hw = random_hw(rng);
            *x = hw_features(hw);
        }
        scores.clear();
        scorer.score_into(&lane_x[..k], &mut scores);
        for (hw, &ei) in lane_hw.iter().zip(&scores) {
            // The running best starts at -inf and a NaN never raises it,
            // so the first candidate stands until a score beats -inf.
            if ei > best_ei || pick.is_none() {
                pick = Some(*hw);
                best_ei = best_ei.max(ei);
            }
        }
        left -= k;
    }
    pick
}

/// Run the BB-BO baseline on `layers` for one network of a
/// [`Strategy::BayesOpt`] job: a sequential outer GP loop over
/// `cfg.num_hw` designs.
pub(crate) fn run_bayesian_search(
    layers: &[Layer],
    hier: &Hierarchy,
    cfg: &BbboConfig,
    ctrl: StartControl<'_>,
) -> SearchResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut result = SearchResult::empty();
    let inner = InnerLoop {
        layers,
        hier,
        samples: cfg.samples_per_hw,
        record_every: (cfg.samples_per_hw / 4).max(1),
        ctrl,
    };

    let mut observed_x: Vec<Vec<f64>> = Vec::new();
    let mut observed_y: Vec<f64> = Vec::new();

    // At least two random designs before the GP takes over (a one-point
    // fit has near-zero posterior variance everywhere, making EI
    // useless), bounded by the total budget.
    let init_random = cfg.init_random.max(2).min(cfg.num_hw);
    for step in 0..cfg.num_hw {
        if ctrl.cancelled() {
            break;
        }
        let hw = if step < init_random {
            random_hw(&mut rng)
        } else {
            match propose_by_ei(&mut rng, &observed_x, &observed_y, cfg.candidates, ctrl) {
                Some(hw) => hw,
                None => break,
            }
        };
        let score = inner.search(&hw, stream_seed(cfg.seed, step as u64), &mut result);
        observed_x.push(hw_features(&hw).to_vec());
        observed_y.push(score);
    }
    result
}

/// Run the BB-BO baseline on `layers`, blocking until done.
///
/// This is a thin shim over the job service: it submits one
/// single-network [`Strategy::BayesOpt`] request to `service` and waits.
/// The result is bit-identical for every worker budget. For batching, live
/// progress, or cancellation, use [`SearchService::submit`] directly.
///
/// # Panics
///
/// Panics if `layers` is empty or `cfg` fails [`BbboConfig::validate`].
pub fn bayesian_search(
    service: &SearchService,
    layers: &[Layer],
    hier: &Hierarchy,
    cfg: &BbboConfig,
) -> SearchResult {
    let request = SearchRequest::builder(hier.clone())
        .network("network", layers.to_vec())
        .strategy(Strategy::BayesOpt(*cfg))
        .build();
    run_blocking(service, request, "BB-BO request")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosa_workload::Problem;

    fn layers() -> Vec<Layer> {
        vec![
            Layer::once(Problem::conv("a", 3, 3, 28, 28, 64, 64, 1).unwrap()),
            Layer::once(Problem::matmul("b", 64, 128, 256).unwrap()),
        ]
    }

    #[test]
    fn bo_runs_and_improves() {
        let service = SearchService::builder().build();
        let hier = Hierarchy::gemmini();
        let cfg = BbboConfig {
            num_hw: 8,
            init_random: 3,
            samples_per_hw: 20,
            candidates: 50,
            seed: 2,
        };
        let res = bayesian_search(&service, &layers(), &hier, &cfg);
        assert!(res.best_edp.is_finite());
        assert_eq!(res.samples, 8 * 20);
        for w in res.history.windows(2) {
            assert!(w[1].best_edp <= w[0].best_edp);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let service = SearchService::builder().build();
        let hier = Hierarchy::gemmini();
        let cfg = BbboConfig {
            num_hw: 5,
            init_random: 2,
            samples_per_hw: 10,
            candidates: 20,
            seed: 11,
        };
        let a = bayesian_search(&service, &layers(), &hier, &cfg);
        let b = bayesian_search(&service, &layers(), &hier, &cfg);
        assert_eq!(a.best_edp, b.best_edp);
    }

    #[test]
    fn history_samples_increase_strictly_with_no_duplicated_tail() {
        let service = SearchService::builder().build();
        let hier = Hierarchy::gemmini();
        // samples_per_hw = 5 makes the record cadence (every sample) land
        // on the final sample — the duplicated-tail case before dedup.
        let cfg = BbboConfig {
            num_hw: 3,
            init_random: 2,
            samples_per_hw: 5,
            candidates: 20,
            seed: 3,
        };
        let res = bayesian_search(&service, &layers(), &hier, &cfg);
        for w in res.history.windows(2) {
            assert!(
                w[1].samples > w[0].samples,
                "history samples not strictly increasing: {} then {}",
                w[0].samples,
                w[1].samples
            );
        }
        assert_eq!(res.history.last().unwrap().samples, res.samples);
    }
}
