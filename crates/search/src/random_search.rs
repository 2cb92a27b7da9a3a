//! Random-search baseline and constant-mapper evaluation helpers
//! (§6.1: "the random search baseline evaluates 10 hardware designs with
//! 1000 mappings per layer per hardware design"; §6.4's CoSA / random
//! constant mappers).
//!
//! The searcher runs as [`Strategy::Random`] on the
//! [`SearchService`](crate::SearchService)'s worker fleet: hardware
//! designs are drawn sequentially from the seed, then each design is
//! searched as an independent work item with a private RNG stream, so
//! the result is bit-identical for every thread budget and batch
//! composition. [`random_search`] is the blocking single-network shim.

use crate::cosa::cosa_mapping;
use crate::engine::StartControl;
use crate::gd::SearchResult;
use crate::request::SearchRequest;
use crate::service::{run_blocking, SearchService};
use crate::startpoints::random_hw;
use crate::strategy::{stream_seed, Strategy};
use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_timeloop::{LayerEvaluator, LayerPerf, MapSampler, Mapping, ModelPerf};
use dosa_workload::Layer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the random-search baseline
/// ([`Strategy::Random`]). Validated by
/// [`RandomSearchConfig::validate`] at
/// [`SearchService::submit`](crate::SearchService::submit).
#[derive(Debug, Clone, Copy)]
pub struct RandomSearchConfig {
    /// Number of hardware designs to sample (paper: 10).
    pub num_hw: usize,
    /// Joint mapping samples per hardware design (paper: 1000 per layer;
    /// one joint sample draws one mapping per layer).
    pub samples_per_hw: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomSearchConfig {
    fn default() -> Self {
        RandomSearchConfig {
            num_hw: 10,
            samples_per_hw: 1000,
            seed: 0,
        }
    }
}

/// One hardware design's share of a [`Strategy::Random`] job: the design
/// itself and the seed of its private mapping-RNG stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RandomDesign {
    pub(crate) hw: HardwareConfig,
    pub(crate) rng_seed: u64,
}

/// Draw the job's hardware designs sequentially from `cfg.seed` (exactly
/// like GD start points are generated before any parallelism) and derive
/// one private RNG stream per design, so the per-design searches can fan
/// out over any number of workers bit-identically.
pub(crate) fn plan_random_designs(cfg: &RandomSearchConfig) -> Vec<RandomDesign> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.num_hw)
        .map(|i| RandomDesign {
            hw: random_hw(&mut rng),
            rng_seed: stream_seed(cfg.seed, i as u64),
        })
        .collect()
}

/// One [`MapSampler`] per layer for a design whose array side is
/// `pe_side`, built before the design's sample loop.
pub(crate) fn samplers(layers: &[Layer], hier: &Hierarchy, pe_side: u64) -> Vec<MapSampler> {
    layers
        .iter()
        .map(|l| MapSampler::new(&l.problem, hier, pe_side))
        .collect()
}

/// One hardware design's joint-sample search, the kernel of both
/// black-box baselines: each joint sample draws one mapping per layer,
/// keeps each layer's best fitting mapping by [`LayerPerf::edp`], and
/// scores the design by the whole-model EDP of those bests (Eq. 14).
///
/// A draw is evaluated only if the lower bound of
/// [`LayerEvaluator::evaluate_below`] says it could beat its layer's
/// best; one that cannot would not be kept, so skipping it moves no
/// result bit.
pub(crate) struct DesignSearch<'a> {
    layers: &'a [Layer],
    hw: HardwareConfig,
    samplers: Vec<MapSampler>,
    evaluators: Vec<LayerEvaluator<'a>>,
    best: Vec<Option<(Mapping, LayerPerf)>>,
}

impl<'a> DesignSearch<'a> {
    pub(crate) fn new(layers: &'a [Layer], hier: &Hierarchy, hw: HardwareConfig) -> Self {
        DesignSearch {
            layers,
            hw,
            samplers: samplers(layers, hier, hw.pe_side()),
            evaluators: layers
                .iter()
                .map(|l| LayerEvaluator::new(&l.problem, &hw, hier))
                .collect(),
            best: vec![None; layers.len()],
        }
    }

    /// Joint sample `s`: draw one mapping per layer from `rng`, keep the
    /// fitting ones that beat their layer's best, then count the sample
    /// in `result`, take this design into it if the model EDP improved,
    /// and record a history point every `record_every` samples.
    pub(crate) fn sample(
        &mut self,
        rng: &mut impl Rng,
        s: usize,
        record_every: usize,
        result: &mut SearchResult,
        ctrl: StartControl<'_>,
    ) {
        let kernels = self.samplers.iter().zip(&self.evaluators);
        for ((sampler, eval), best) in kernels.zip(&mut self.best) {
            let m = sampler.draw(rng);
            let threshold = best.as_ref().map_or(f64::INFINITY, |(_, old)| old.edp());
            let Some(perf) = eval.evaluate_below(&m, threshold) else {
                continue;
            };
            if best.as_ref().is_none_or(|(_, old)| perf.edp() < old.edp()) {
                *best = Some((m, perf));
            }
        }
        result.samples += 1;
        ctrl.count_samples(1);
        let edp = self.model_edp();
        if edp < result.best_edp {
            result.best_edp = edp;
            result.best_hw = self.hw;
            result.best_mappings = self.best.iter().flatten().map(|(m, _)| m.clone()).collect();
            ctrl.observe_best(edp);
        }
        if s.is_multiple_of(record_every) {
            result.record();
        }
    }

    /// Whole-model EDP of the per-layer bests, infinite until every layer
    /// has a fitting mapping.
    pub(crate) fn model_edp(&self) -> f64 {
        if self.best.iter().any(Option::is_none) {
            return f64::INFINITY;
        }
        let parts = self.layers.iter().zip(self.best.iter().flatten());
        ModelPerf::sum(parts.map(|(layer, (_, perf))| (layer, *perf))).edp()
    }
}

/// Search one hardware design with random mappings: one work item of a
/// [`Strategy::Random`] job. Returns a design-local [`SearchResult`]
/// whose history offsets and running minima are restored by the
/// deterministic merge
/// ([`merge_start_results`](crate::engine::merge_start_results)).
pub(crate) fn run_random_design(
    layers: &[Layer],
    hier: &Hierarchy,
    design: &RandomDesign,
    samples: usize,
    ctrl: StartControl<'_>,
) -> SearchResult {
    let record_every = (samples / 20).max(1);
    let mut rng = StdRng::seed_from_u64(design.rng_seed);
    let mut search = DesignSearch::new(layers, hier, design.hw);
    let mut result = SearchResult::empty();
    for s in 0..samples {
        if ctrl.cancelled() {
            break;
        }
        search.sample(&mut rng, s, record_every, &mut result, ctrl);
    }
    result
}

/// Run the random-search baseline of §6.1/§6.3, blocking until done.
///
/// This is a thin shim over the job service: it submits one
/// single-network [`Strategy::Random`] request to `service` and waits.
/// The result is bit-identical for every worker budget (each hardware
/// design is searched by a private RNG stream derived from the seed). For
/// batching, live progress, or cancellation, use
/// [`SearchService::submit`] directly.
///
/// # Panics
///
/// Panics if `layers` is empty or `cfg` fails
/// [`RandomSearchConfig::validate`].
pub fn random_search(
    service: &SearchService,
    layers: &[Layer],
    hier: &Hierarchy,
    cfg: &RandomSearchConfig,
) -> SearchResult {
    let request = SearchRequest::builder(hier.clone())
        .network("network", layers.to_vec())
        .strategy(Strategy::Random(*cfg))
        .build();
    run_blocking(service, request, "random-search request")
}

/// Evaluate `layers` on fixed hardware with CoSA as a constant mapper
/// (§6.4). Returns whole-model performance.
pub fn evaluate_with_cosa(layers: &[Layer], hw: &HardwareConfig, hier: &Hierarchy) -> ModelPerf {
    let mappings: Vec<Mapping> = layers
        .iter()
        .map(|l| cosa_mapping(&l.problem, hw, hier))
        .collect();
    dosa_timeloop::evaluate_model(layers, &mappings, hw, hier)
}

/// Evaluate `layers` on fixed hardware with an N-sample random mapper per
/// layer (§6.4's "1000-sample random mapper"). Layers with no fitting
/// sample fall back to the CoSA mapping.
pub fn evaluate_with_random_mapper(
    layers: &[Layer],
    hw: &HardwareConfig,
    hier: &Hierarchy,
    samples_per_layer: usize,
    seed: u64,
) -> ModelPerf {
    let mut rng = StdRng::seed_from_u64(seed);
    let mappings: Vec<Mapping> = layers
        .iter()
        .map(|l| {
            let found = dosa_timeloop::random_pruned_search(
                &mut rng,
                &l.problem,
                hw,
                hier,
                samples_per_layer,
            );
            match found {
                Some(r) => r.mapping,
                None => cosa_mapping(&l.problem, hw, hier),
            }
        })
        .collect();
    dosa_timeloop::evaluate_model(layers, &mappings, hw, hier)
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
    fn random_search_produces_valid_result() {
        let service = SearchService::builder().build();
        let hier = Hierarchy::gemmini();
        let cfg = RandomSearchConfig {
            num_hw: 3,
            samples_per_hw: 40,
            seed: 1,
        };
        let res = random_search(&service, &layers(), &hier, &cfg);
        assert!(res.best_edp.is_finite());
        assert_eq!(res.samples, 120);
        assert_eq!(res.best_mappings.len(), 2);
        for w in res.history.windows(2) {
            assert!(w[1].best_edp <= w[0].best_edp);
        }
    }

    #[test]
    fn history_samples_increase_strictly_with_no_duplicated_tail() {
        let service = SearchService::builder().build();
        let hier = Hierarchy::gemmini();
        // samples_per_hw chosen so the record cadence lands exactly on the
        // final sample — the case that used to produce a duplicated
        // trailing history point.
        for samples_per_hw in [21, 40] {
            let cfg = RandomSearchConfig {
                num_hw: 2,
                samples_per_hw,
                seed: 4,
            };
            let res = random_search(&service, &layers(), &hier, &cfg);
            for w in res.history.windows(2) {
                assert!(
                    w[1].samples > w[0].samples,
                    "history samples not strictly increasing: {} then {}",
                    w[0].samples,
                    w[1].samples
                );
            }
            assert_eq!(
                res.history.last().unwrap().samples,
                res.samples,
                "history must end at the final sample count"
            );
        }
    }

    #[test]
    fn more_samples_never_worse() {
        let service = SearchService::builder().build();
        let hier = Hierarchy::gemmini();
        let small = random_search(
            &service,
            &layers(),
            &hier,
            &RandomSearchConfig {
                num_hw: 2,
                samples_per_hw: 10,
                seed: 7,
            },
        );
        let large = random_search(
            &service,
            &layers(),
            &hier,
            &RandomSearchConfig {
                num_hw: 2,
                samples_per_hw: 100,
                seed: 7,
            },
        );
        assert!(large.best_edp <= small.best_edp);
    }

    #[test]
    fn constant_mappers_evaluate() {
        let hier = Hierarchy::gemmini();
        let hw = HardwareConfig::gemmini_default();
        let cosa = evaluate_with_cosa(&layers(), &hw, &hier);
        let rand = evaluate_with_random_mapper(&layers(), &hw, &hier, 50, 3);
        assert!(cosa.edp().is_finite() && cosa.edp() > 0.0);
        assert!(rand.edp().is_finite() && rand.edp() > 0.0);
    }
}
