//! The traced replay: each strategy's work re-driven through the layers'
//! public functions with a timer around every call, one function per
//! strategy. This is the only part of the benchmark coupled to layer
//! signatures; the timed run goes through the service's request API.
//!
//! Each replay must reproduce the service's best EDP bit for bit (the
//! caller checks), which pins that the timed calls are the calls the
//! service makes. Two private library helpers are copied here for that:
//! the splitmix64 [`stream_seed`] and BB-BO's [`hw_features`].

use dosa_accel::{HardwareConfig, Hierarchy, MAX_PE_SIDE};
use dosa_autodiff::{SegScratch, SegmentPlan, Tape, Var};
use dosa_model::{LossOptions, RelaxedMapping, PARAMS_PER_LAYER};
use dosa_search::cache::{bayes_network_key, gd_item_key, random_item_key};
use dosa_search::{
    generate_start_points, random_hw, Adam, BbboConfig, DiffLoss, EdpLoss, GaussianProcess,
    GdConfig, LoopOrderStrategy, RandomSearchConfig, Surrogate,
};
use dosa_timeloop::{evaluate_layer, fits, random_mapping, LayerPerf, Mapping};
use dosa_workload::Layer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Copy of the library's private per-stream seed derivation.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Copy of BB-BO's private GP input features.
fn hw_features(hw: &HardwareConfig) -> Vec<f64> {
    vec![
        (hw.pe_side() as f64).ln(),
        hw.acc_kb().ln(),
        hw.spad_kb().ln(),
    ]
}

/// Run `f`, adding its wall time to `acc`.
fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

/// Per-stage time of the gradient-descent replays.
#[derive(Debug, Default, Clone)]
pub struct GdStages {
    pub start_points: Duration,
    pub record: Duration,
    pub sweep: Duration,
    pub adam: Duration,
    pub round: Duration,
    pub total: Duration,
    pub steps: u64,
    pub roundings: u64,
}

impl GdStages {
    pub fn unattributed(&self) -> Duration {
        self.total
            .saturating_sub(self.start_points + self.record + self.sweep + self.adam + self.round)
    }
}

/// Per-stage time of the black-box replays (random search and BB-BO).
#[derive(Debug, Default, Clone)]
pub struct BlackBoxStages {
    pub draw: Duration,
    pub fits: Duration,
    pub eval: Duration,
    pub gp_fit: Duration,
    pub ei: Duration,
    pub total: Duration,
    pub draws: u64,
    pub fitting: u64,
    pub candidates: u64,
}

impl BlackBoxStages {
    pub fn unattributed(&self) -> Duration {
        self.total
            .saturating_sub(self.draw + self.fits + self.eval + self.gp_fit + self.ei)
    }

    pub fn fit_ratio(&self) -> f64 {
        self.fitting as f64 / self.draws.max(1) as f64
    }
}

/// What one replay found: the network's best EDP and its sample count.
#[derive(Debug, Clone, Copy)]
pub struct Replayed {
    pub best_edp: f64,
    pub samples: usize,
}

/// Replay one network of a [`Strategy::GradientDescent`] job with the EDP
/// surrogate: start points, then per start the step loop of the engine —
/// record, backward sweep, Adam — with a rounding plus reference
/// evaluation every `round_every` steps and at the last step.
///
/// [`Strategy::GradientDescent`]: dosa_search::Strategy::GradientDescent
pub fn gd(layers: &[Layer], hier: &Hierarchy, cfg: &GdConfig, st: &mut GdStages) -> Replayed {
    let t0 = Instant::now();
    let opts = LossOptions {
        fixed_pe_side: cfg.fixed_pe_side,
        softmax_ordering: cfg.strategy == LoopOrderStrategy::Softmax,
        ..LossOptions::default()
    };
    let loss = EdpLoss {
        layers,
        hier,
        opts,
        strategy: cfg.strategy,
        fixed_pe_side: cfg.fixed_pe_side,
        spatial_cap: cfg.fixed_pe_side.unwrap_or(MAX_PE_SIDE),
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let starts = timed(&mut st.start_points, || {
        generate_start_points(
            &mut rng,
            layers,
            hier,
            &opts,
            cfg.start_points,
            cfg.rejection_factor,
        )
    });
    let mut best = f64::INFINITY;
    let mut samples = 0usize;
    for (index, start) in starts.into_iter().enumerate() {
        let mut relaxed = start.relaxed;
        let mut start_rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(index as u64));
        loss.prepare_start(&mut relaxed, &mut start_rng);
        let mut params: Vec<f64> = Vec::new();
        for r in &relaxed {
            r.params_into(&mut params);
        }
        let mut adam = Adam::new(params.len(), cfg.learning_rate);
        let tape = Tape::new();
        let mut scratch = SegScratch::new();
        let mut plan = SegmentPlan::new();
        let mut leaves: Vec<Var<'_>> = Vec::new();
        let mut flat: Vec<f64> = Vec::new();
        for step in 1..=cfg.steps_per_start {
            for (r, chunk) in relaxed.iter_mut().zip(params.chunks(PARAMS_PER_LAYER)) {
                r.set_params(chunk);
            }
            tape.clear();
            plan.clear();
            leaves.clear();
            let loss_var = timed(&mut st.record, || {
                loss.build(&tape, &relaxed, &mut plan, &mut leaves)
            });
            timed(&mut st.sweep, || {
                tape.backward_segmented(loss_var, &plan, 1, &mut scratch)
                    .wrt_into(&leaves, &mut flat)
            });
            for g in flat.iter_mut() {
                if !g.is_finite() {
                    *g = 0.0;
                }
            }
            timed(&mut st.adam, || adam.step(&mut params, &flat));
            st.steps += 1;
            samples += 1;
            if step % cfg.round_every == 0 || step == cfg.steps_per_start {
                let t = Instant::now();
                for (r, chunk) in relaxed.iter_mut().zip(params.chunks(PARAMS_PER_LAYER)) {
                    r.set_params(chunk);
                }
                let mut mappings: Vec<Mapping> = layers
                    .iter()
                    .zip(&relaxed)
                    .map(|(l, r)| r.round_with_cap(&l.problem, loss.spatial_cap()))
                    .collect();
                let (_, edp) = loss.finish_round(&mut relaxed, &mut mappings);
                if edp < best {
                    best = edp;
                }
                for (m, r) in mappings.iter().zip(relaxed.iter_mut()) {
                    let orders = r.orders;
                    *r = RelaxedMapping::from_mapping(m);
                    r.orders = orders;
                }
                params.clear();
                for r in &relaxed {
                    r.params_into(&mut params);
                }
                adam.reset();
                st.round += t.elapsed();
                st.roundings += 1;
                samples += 1;
            }
        }
    }
    st.total += t0.elapsed();
    Replayed {
        best_edp: best,
        samples,
    }
}

/// Draw, check and evaluate one random mapping of `layer` on `hw`,
/// returning its performance if it fits.
fn sample_layer(
    rng: &mut StdRng,
    layer: &Layer,
    hier: &Hierarchy,
    hw: &HardwareConfig,
    st: &mut BlackBoxStages,
) -> Option<LayerPerf> {
    let m = timed(&mut st.draw, || {
        random_mapping(rng, &layer.problem, hier, hw.pe_side())
    });
    let ok = timed(&mut st.fits, || fits(&layer.problem, &m, hw, hier));
    st.draws += 1;
    if !ok {
        return None;
    }
    st.fitting += 1;
    Some(timed(&mut st.eval, || {
        evaluate_layer(&layer.problem, &m, hw, hier)
    }))
}

/// Whole-model EDP (Eq. 14) of per-layer bests, infinite until every layer
/// has one.
fn model_edp(layers: &[Layer], best: &[Option<LayerPerf>]) -> f64 {
    let mut energy = 0.0;
    let mut latency = 0.0;
    for (layer, b) in layers.iter().zip(best) {
        let Some(p) = b else {
            return f64::INFINITY;
        };
        energy += p.energy_uj * layer.count as f64;
        latency += p.latency_cycles * layer.count as f64;
    }
    energy * latency
}

/// Replay one network of a [`Strategy::Random`] job: designs drawn from
/// the seed, each searched by its own RNG stream; a layer's best mapping
/// is the one with the lowest per-layer EDP.
///
/// [`Strategy::Random`]: dosa_search::Strategy::Random
pub fn random(
    layers: &[Layer],
    hier: &Hierarchy,
    cfg: &RandomSearchConfig,
    st: &mut BlackBoxStages,
) -> Replayed {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let designs: Vec<HardwareConfig> = (0..cfg.num_hw).map(|_| random_hw(&mut rng)).collect();
    let mut best_edp = f64::INFINITY;
    for (i, hw) in designs.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, i as u64));
        let mut best: Vec<Option<LayerPerf>> = vec![None; layers.len()];
        for _ in 0..cfg.samples_per_hw {
            for (slot, layer) in best.iter_mut().zip(layers) {
                if let Some(perf) = sample_layer(&mut rng, layer, hier, hw, st) {
                    if slot.is_none_or(|old| perf.edp() < old.edp()) {
                        *slot = Some(perf);
                    }
                }
            }
            best_edp = best_edp.min(model_edp(layers, &best));
        }
    }
    st.total += t0.elapsed();
    Replayed {
        best_edp,
        samples: cfg.num_hw * cfg.samples_per_hw,
    }
}

/// Replay one network of a [`Strategy::BayesOpt`] job: the sequential
/// outer loop (random designs, then GP fit plus expected-improvement
/// argmax over fresh candidates), each design searched by per-sample RNG
/// streams; a layer's best mapping is the one with the lowest count-scaled
/// energy × latency.
///
/// [`Strategy::BayesOpt`]: dosa_search::Strategy::BayesOpt
pub fn bbbo(
    layers: &[Layer],
    hier: &Hierarchy,
    cfg: &BbboConfig,
    st: &mut BlackBoxStages,
) -> Replayed {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let init_random = cfg.init_random.max(2).min(cfg.num_hw);
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut best_edp = f64::INFINITY;
    for step in 0..cfg.num_hw {
        let hw = if step < init_random {
            random_hw(&mut rng)
        } else {
            let gp = timed(&mut st.gp_fit, || {
                GaussianProcess::fit(xs.clone(), ys.clone(), 1.0, 0.05)
            });
            let best_y = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            let cands: Vec<HardwareConfig> =
                (0..cfg.candidates).map(|_| random_hw(&mut rng)).collect();
            let pick = timed(&mut st.ei, || {
                let mut pick = (0, f64::NEG_INFINITY);
                for (i, c) in cands.iter().enumerate() {
                    let ei = gp.expected_improvement(&hw_features(c), best_y);
                    if ei > pick.1 {
                        pick = (i, ei);
                    }
                }
                pick.0
            });
            st.candidates += cfg.candidates as u64;
            cands[pick]
        };
        let design_seed = stream_seed(cfg.seed, step as u64);
        let mut best: Vec<Option<(f64, f64)>> = vec![None; layers.len()];
        for s in 0..cfg.samples_per_hw {
            let mut srng = StdRng::seed_from_u64(stream_seed(design_seed, s as u64));
            for (slot, layer) in best.iter_mut().zip(layers) {
                if let Some(perf) = sample_layer(&mut srng, layer, hier, &hw, st) {
                    let e = perf.energy_uj * layer.count as f64;
                    let l = perf.latency_cycles * layer.count as f64;
                    if slot.is_none_or(|(be, bl)| e * l < be * bl) {
                        *slot = Some((e, l));
                    }
                }
            }
            best_edp = best_edp.min(scaled_edp(&best));
        }
        let edp = scaled_edp(&best);
        xs.push(hw_features(&hw));
        ys.push(if edp.is_finite() { edp.ln() } else { 1e3 });
    }
    st.total += t0.elapsed();
    Replayed {
        best_edp,
        samples: cfg.num_hw * cfg.samples_per_hw,
    }
}

/// Eq. 14 over count-scaled `(energy, latency)` per-layer bests.
fn scaled_edp(best: &[Option<(f64, f64)>]) -> f64 {
    let mut energy = 0.0;
    let mut latency = 0.0;
    for b in best {
        let Some((e, l)) = b else {
            return f64::INFINITY;
        };
        energy += e;
        latency += l;
    }
    energy * latency
}

/// Compute the result-cache fingerprints the service plans for one
/// network of each strategy, returning how many were computed.
pub fn cache_keys(
    layers: &[Layer],
    hier: &Hierarchy,
    strategy: &dosa_search::Strategy,
    acc: &mut Duration,
) -> u64 {
    use dosa_search::Strategy;
    match strategy {
        Strategy::GradientDescent(cfg) => {
            for i in 0..cfg.start_points {
                timed(acc, || gd_item_key(hier, layers, &Surrogate::Edp, cfg, i));
            }
            cfg.start_points as u64
        }
        Strategy::Random(cfg) => {
            for i in 0..cfg.num_hw {
                timed(acc, || random_item_key(hier, layers, cfg, i));
            }
            cfg.num_hw as u64
        }
        Strategy::BayesOpt(cfg) => {
            timed(acc, || bayes_network_key(hier, layers, cfg));
            1
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosa_search::{SearchRequest, SearchService, Strategy};
    use dosa_workload::Problem;

    fn layers() -> Vec<Layer> {
        vec![
            Layer::repeated(Problem::conv("a", 3, 3, 14, 14, 32, 32, 1).unwrap(), 2),
            Layer::once(Problem::matmul("b", 32, 64, 64).unwrap()),
        ]
    }

    fn service_best(strategy: Strategy) -> f64 {
        let service = SearchService::builder().threads(1).build();
        let request = SearchRequest::builder(Hierarchy::gemmini())
            .network_seeded("n", layers(), 5)
            .strategy(strategy)
            .build();
        service
            .submit(request)
            .unwrap()
            .wait()
            .unwrap()
            .into_single()
            .best_edp
    }

    #[test]
    fn replays_match_the_service_bit_for_bit() {
        let hier = Hierarchy::gemmini();
        let gd_cfg = GdConfig {
            start_points: 2,
            steps_per_start: 25,
            round_every: 10,
            seed: 5,
            ..GdConfig::default()
        };
        let mut g = GdStages::default();
        let got = gd(&layers(), &hier, &gd_cfg, &mut g);
        assert_eq!(
            got.best_edp.to_bits(),
            service_best(Strategy::GradientDescent(gd_cfg)).to_bits()
        );
        assert_eq!(got.samples, 2 * (25 + 3));
        assert_eq!((g.steps, g.roundings), (50, 6));

        let r_cfg = RandomSearchConfig {
            num_hw: 2,
            samples_per_hw: 30,
            seed: 5,
        };
        let mut b = BlackBoxStages::default();
        let got = random(&layers(), &hier, &r_cfg, &mut b);
        assert_eq!(
            got.best_edp.to_bits(),
            service_best(Strategy::Random(r_cfg)).to_bits()
        );
        assert_eq!(b.draws, 2 * 30 * 2);

        let b_cfg = BbboConfig {
            num_hw: 5,
            init_random: 2,
            samples_per_hw: 8,
            candidates: 20,
            seed: 5,
        };
        let mut b = BlackBoxStages::default();
        let got = bbbo(&layers(), &hier, &b_cfg, &mut b);
        assert_eq!(
            got.best_edp.to_bits(),
            service_best(Strategy::BayesOpt(b_cfg)).to_bits()
        );
        assert_eq!(b.candidates, 3 * 20);
        assert!(b.total >= b.draw + b.fits + b.eval + b.gp_fit + b.ei);
    }
}
