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
use crate::service::run_blocking;
use crate::startpoints::random_hw;
use crate::strategy::{stream_seed, Strategy};
use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_timeloop::{evaluate_layer, fits, LayerPerf, MapSampler, Mapping, ModelPerf};
use dosa_workload::Layer;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Per-layer best-so-far tracker for a fixed hardware design.
struct PerLayerBest {
    perf: Vec<Option<(Mapping, LayerPerf)>>,
}

impl PerLayerBest {
    fn new(n: usize) -> PerLayerBest {
        PerLayerBest {
            perf: (0..n).map(|_| None).collect(),
        }
    }

    fn offer(&mut self, i: usize, mapping: Mapping, perf: LayerPerf) {
        let better = match &self.perf[i] {
            None => true,
            Some((_, old)) => perf.edp() < old.edp(),
        };
        if better {
            self.perf[i] = Some((mapping, perf));
        }
    }

    /// Whole-model EDP of the current per-layer bests (Eq. 14), infinite
    /// until every layer has a fitting mapping.
    fn model_edp(&self, layers: &[Layer]) -> f64 {
        let mut energy = 0.0;
        let mut latency = 0.0;
        for (layer, slot) in layers.iter().zip(&self.perf) {
            match slot {
                None => return f64::INFINITY,
                Some((_, p)) => {
                    energy += p.energy_uj * layer.count as f64;
                    latency += p.latency_cycles * layer.count as f64;
                }
            }
        }
        energy * latency
    }

    fn mappings(&self) -> Option<Vec<Mapping>> {
        self.perf
            .iter()
            .map(|s| s.as_ref().map(|(m, _)| m.clone()))
            .collect()
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
    let mut best = PerLayerBest::new(layers.len());
    let mut result = SearchResult::empty();
    let samplers = samplers(layers, hier, design.hw.pe_side());
    for s in 0..samples {
        if ctrl.cancelled() {
            break;
        }
        for (i, (layer, sampler)) in layers.iter().zip(&samplers).enumerate() {
            let m = sampler.draw(&mut rng);
            if fits(&layer.problem, &m, &design.hw, hier) {
                let perf = evaluate_layer(&layer.problem, &m, &design.hw, hier);
                best.offer(i, m, perf);
            }
        }
        result.samples += 1;
        ctrl.count_samples(1);
        let edp = best.model_edp(layers);
        if edp < result.best_edp {
            if let Some(mappings) = best.mappings() {
                result.best_edp = edp;
                result.best_hw = design.hw;
                result.best_mappings = mappings;
                ctrl.observe_best(edp);
            }
        }
        if s % record_every == 0 {
            result.record();
        }
    }
    result
}

/// Run the random-search baseline of §6.1/§6.3, blocking until done.
///
/// This is a thin shim over the job service: it submits one
/// single-network [`Strategy::Random`] request to a throwaway
/// [`SearchService`](crate::SearchService) and waits. The worker-thread
/// budget is read from the calling thread's rayon configuration, and the
/// result is bit-identical for every budget (each hardware design is
/// searched by a private RNG stream derived from the seed). For
/// batching, live progress, or cancellation, use the service directly.
///
/// # Panics
///
/// Panics if `layers` is empty or `cfg` fails
/// [`RandomSearchConfig::validate`].
pub fn random_search(layers: &[Layer], hier: &Hierarchy, cfg: &RandomSearchConfig) -> SearchResult {
    let request = SearchRequest::builder(hier.clone())
        .network("network", layers.to_vec())
        .strategy(Strategy::Random(*cfg))
        .build();
    run_blocking(request, "random-search request")
}

/// Evaluate `layers` on fixed hardware with CoSA as a constant mapper
/// (§6.4). Returns whole-model performance.
pub fn evaluate_with_cosa(layers: &[Layer], hw: &HardwareConfig, hier: &Hierarchy) -> ModelPerf {
    let paired: Vec<(Layer, Mapping)> = layers
        .iter()
        .map(|l| (l.clone(), cosa_mapping(&l.problem, hw, hier)))
        .collect();
    dosa_timeloop::evaluate_model(&paired, hw, hier)
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
    let paired: Vec<(Layer, Mapping)> = layers
        .iter()
        .map(|l| {
            let found = dosa_timeloop::random_pruned_search(
                &mut rng,
                &l.problem,
                hw,
                hier,
                samples_per_layer,
            );
            let m = match found {
                Some(r) => r.mapping,
                None => cosa_mapping(&l.problem, hw, hier),
            };
            (l.clone(), m)
        })
        .collect();
    dosa_timeloop::evaluate_model(&paired, hw, hier)
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
        let hier = Hierarchy::gemmini();
        let cfg = RandomSearchConfig {
            num_hw: 3,
            samples_per_hw: 40,
            seed: 1,
        };
        let res = random_search(&layers(), &hier, &cfg);
        assert!(res.best_edp.is_finite());
        assert_eq!(res.samples, 120);
        assert_eq!(res.best_mappings.len(), 2);
        for w in res.history.windows(2) {
            assert!(w[1].best_edp <= w[0].best_edp);
        }
    }

    #[test]
    fn history_samples_increase_strictly_with_no_duplicated_tail() {
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
            let res = random_search(&layers(), &hier, &cfg);
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
        let hier = Hierarchy::gemmini();
        let small = random_search(
            &layers(),
            &hier,
            &RandomSearchConfig {
                num_hw: 2,
                samples_per_hw: 10,
                seed: 7,
            },
        );
        let large = random_search(
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
