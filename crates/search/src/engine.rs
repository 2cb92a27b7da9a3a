//! The unified one-loop GD search engine.
//!
//! DOSA runs the same optimization loop against different differentiable
//! surrogates: the plain EDP loss of §5 ([`dosa_search`](crate::dosa_search))
//! and the predictor-adjusted latency loss of §6.5
//! ([`dosa_search_rtl`](crate::dosa_search_rtl)). This module factors that
//! loop out once — Adam stepping over the log tiling factors, recording
//! each step's graph once and replaying it ([`ProgramCache`]),
//! the §5.3.2 rounding cadence, and sample accounting — behind the
//! [`DiffLoss`] trait. The [`SearchService`](crate::SearchService) runs
//! each start point's descent as one work item on a persistent worker.
//!
//! ## Determinism
//!
//! A gradient-descent job produces bit-identical results for a given seed
//! regardless of the service's worker count:
//!
//! * start points are generated sequentially from the run's seed before
//!   any work item is dispatched;
//! * each start point descends independently on its **own** program
//!   tapes (replayed or cleared, never reallocated, between steps; a
//!   replayed step gives a fresh recording's bits), its own [`Adam`] state
//!   and its own RNG seeded `cfg.seed + start_index`, so no worker
//!   observes another's scheduling;
//! * per-start results are merged by a deterministic reduction: best EDP
//!   wins with ties broken by the lowest start index, and histories are
//!   concatenated in start order with each start's sample counts offset by
//!   the samples of the starts before it (recovering exactly the
//!   sequential run's accounting), then re-sorted by cumulative sample
//!   count and rewritten to the running global minimum.
//!
//! This purity — every start's descent is a function of `(loss inputs,
//! cfg, seed, start_index)` alone — is also what makes per-start results
//! content-addressable: the service's result cache
//! ([`crate::cache`]) fingerprints exactly these inputs and replays a
//! finished descent's output bit for bit.

use crate::fault::StopWord;
use crate::gd::{
    choose_best_orderings, rounded_hw, GdConfig, LoopOrderStrategy, SearchPoint, SearchResult,
};
use crate::latency_model::LatencyPredictor;
use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_autodiff::{Adam, SegmentPlan, Tape, Var};
use dosa_model::{analytical, build_loss_with, LossOptions, RelaxedMapping, PARAMS_PER_LAYER};
use dosa_timeloop::{evaluate_layer, evaluate_model, LoopOrder, Mapping, Stationarity};
use dosa_workload::Layer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Record a best-so-far history point every this many gradient steps (in
/// addition to every rounding).
const RECORD_EVERY: usize = 50;

/// A differentiable surrogate loss the GD engine can descend on.
///
/// Implementations own everything layer- and model-specific; the engine
/// owns everything loop-specific. All methods must be deterministic pure
/// functions of their arguments (plus the RNG handed to
/// [`prepare_start`](DiffLoss::prepare_start)) — that is what makes a
/// search bit-identical across thread counts.
pub trait DiffLoss: Sync {
    /// The layers being co-optimized.
    fn layers(&self) -> &[Layer];

    /// Per-dimension spatial cap applied when rounding relaxed mappings.
    fn spatial_cap(&self) -> u64;

    /// Adjust a fresh start point before descent begins (e.g. pin loop
    /// orderings). `rng` is private to this start point and seeded
    /// `cfg.seed + start_index`, so stochastic adjustments stay
    /// deterministic under any thread count.
    fn prepare_start(&self, _relaxed: &mut [RelaxedMapping], _rng: &mut StdRng) {}

    /// Record the loss at the point `relaxed` on `tape`, returning the
    /// scalar to backpropagate. Leaf variables are appended to `leaves`
    /// flattened in [`RelaxedMapping::params`] order; `leaves` arrives
    /// cleared and is reused across steps. The model itself records with a
    /// fixed number of heap allocations per step, never one per layer; a
    /// learned predictor's feature and activation vectors still allocate
    /// per layer. Either way only steps that record pay this: the engine
    /// replays a cached recording otherwise ([`ProgramCache`]).
    /// `plan` is an ignored placeholder kept so existing callers compile.
    ///
    /// **Replay contract.** The engine replays the recorded tape on new
    /// parameters instead of calling `build` again, so an implementation
    /// must record a graph whose structure depends on values only through
    /// [`Scalar::any_exceeds`](dosa_autodiff::Scalar::any_exceeds) guards, and
    /// whose guards read only nodes recorded before the first guard.
    /// Every constant must be independent of the parameters (a
    /// value-derived shift goes through
    /// [`Scalar::sub_max`](dosa_autodiff::Scalar::sub_max)), and the
    /// leaves must be exactly the [`Tape::var`] calls, in `leaves` order —
    /// the `i`-th leaf replays `params[i]`. The loop orders in `relaxed`
    /// may differ between calls only across a rounding, where the cache is
    /// cleared.
    fn build<'t>(
        &self,
        tape: &'t Tape,
        relaxed: &[RelaxedMapping],
        plan: &mut SegmentPlan,
        leaves: &mut Vec<Var<'t>>,
    ) -> Var<'t>;

    /// Finish one §5.3.2 rounding: given freshly rounded `mappings`, apply
    /// this loss's ordering-selection behavior (updating `mappings` and the
    /// orderings stored in `relaxed` in place) and evaluate the rounded
    /// point with this loss's reference objective. Returns the hardware
    /// configuration and the objective EDP used for best-point tracking.
    fn finish_round(
        &self,
        relaxed: &mut [RelaxedMapping],
        mappings: &mut [Mapping],
    ) -> (HardwareConfig, f64);
}

/// The plain differentiable-EDP loss of §5 — the surrogate behind
/// [`dosa_search`](crate::dosa_search), including the Baseline / Iterate /
/// Softmax loop-ordering strategies of Figure 6.
pub struct EdpLoss<'a> {
    /// Layers being optimized.
    pub layers: &'a [Layer],
    /// The memory hierarchy.
    pub hier: &'a Hierarchy,
    /// Options of the underlying [`build_loss_with`].
    pub opts: LossOptions,
    /// Loop-ordering strategy applied at each rounding.
    pub strategy: LoopOrderStrategy,
    /// Pin the PE array side (Fig. 12); `None` derives it from mappings.
    pub fixed_pe_side: Option<u64>,
    /// Spatial cap for rounding.
    pub spatial_cap: u64,
}

impl DiffLoss for EdpLoss<'_> {
    fn layers(&self) -> &[Layer] {
        self.layers
    }

    fn spatial_cap(&self) -> u64 {
        self.spatial_cap
    }

    fn prepare_start(&self, relaxed: &mut [RelaxedMapping], _rng: &mut StdRng) {
        if self.strategy == LoopOrderStrategy::Baseline {
            // "No loop ordering optimization": hold the fixed canonical
            // weight-stationary ordering throughout (§6.2's Baseline).
            for r in relaxed.iter_mut() {
                r.orders = [Stationarity::WeightStationary; dosa_accel::NUM_LEVELS];
            }
        }
    }

    fn build<'t>(
        &self,
        tape: &'t Tape,
        relaxed: &[RelaxedMapping],
        _plan: &mut SegmentPlan,
        leaves: &mut Vec<Var<'t>>,
    ) -> Var<'t> {
        build_loss_with(
            tape,
            self.layers,
            relaxed,
            self.hier,
            &self.opts,
            leaves,
            analytical,
        )
        .loss
    }

    fn finish_round(
        &self,
        relaxed: &mut [RelaxedMapping],
        mappings: &mut [Mapping],
    ) -> (HardwareConfig, f64) {
        // Ordering selection changes loop orders only, so the hardware
        // stays the rounded point's.
        let hw = rounded_hw(self.layers, mappings, self.fixed_pe_side, self.hier);
        match self.strategy {
            LoopOrderStrategy::Iterate => {
                let chosen = choose_best_orderings(self.layers, mappings, &hw, self.hier);
                for (r, s) in relaxed.iter_mut().zip(chosen) {
                    r.orders = s;
                }
            }
            LoopOrderStrategy::Softmax => {
                // Select each layer's model-predicted best uniform ordering
                // (the argmax of the softmax weights).
                for ((layer, m), r) in self
                    .layers
                    .iter()
                    .zip(mappings.iter_mut())
                    .zip(relaxed.iter_mut())
                {
                    let mut best = (f64::INFINITY, Stationarity::WeightStationary);
                    for s in Stationarity::ALL {
                        let mut cand = m.clone();
                        cand.orders = [LoopOrder::canonical(s); dosa_accel::NUM_LEVELS];
                        let perf = evaluate_layer(&layer.problem, &cand, &hw, self.hier);
                        if perf.edp() < best.0 {
                            best = (perf.edp(), s);
                        }
                    }
                    m.orders = [LoopOrder::canonical(best.1); dosa_accel::NUM_LEVELS];
                    r.orders = [best.1; dosa_accel::NUM_LEVELS];
                }
            }
            LoopOrderStrategy::Baseline => {}
        }
        let edp = evaluate_model(self.layers, mappings, &hw, self.hier).edp();
        (hw, edp)
    }
}

/// The predictor-adjusted latency loss of §6.5 — the surrogate behind
/// [`dosa_search_rtl`](crate::dosa_search_rtl): analytical energy, latency
/// passed through a (possibly learned) [`LatencyPredictor`], PE side
/// pinned, and best points selected by *predicted* EDP.
pub struct PredictedLatencyLoss<'a> {
    /// Layers being optimized.
    pub layers: &'a [Layer],
    /// The memory hierarchy.
    pub hier: &'a Hierarchy,
    /// The latency model driving the search.
    pub predictor: &'a LatencyPredictor,
    /// The pinned PE array side.
    pub pe_side: u64,
}

impl DiffLoss for PredictedLatencyLoss<'_> {
    fn layers(&self) -> &[Layer] {
        self.layers
    }

    fn spatial_cap(&self) -> u64 {
        self.pe_side
    }

    fn build<'t>(
        &self,
        tape: &'t Tape,
        relaxed: &[RelaxedMapping],
        _plan: &mut SegmentPlan,
        leaves: &mut Vec<Var<'t>>,
    ) -> Var<'t> {
        let opts = LossOptions {
            fixed_pe_side: Some(self.pe_side),
            ..LossOptions::default()
        };
        build_loss_with(
            tape,
            self.layers,
            relaxed,
            self.hier,
            &opts,
            leaves,
            |layer, leaves, hw, analytical| {
                self.predictor
                    .latency_var(tape, &layer.problem, leaves, hw, analytical)
            },
        )
        .loss
    }

    fn finish_round(
        &self,
        relaxed: &mut [RelaxedMapping],
        mappings: &mut [Mapping],
    ) -> (HardwareConfig, f64) {
        let hw = rounded_hw(self.layers, mappings, Some(self.pe_side), self.hier);
        let chosen = choose_best_orderings(self.layers, mappings, &hw, self.hier);
        for (r, s) in relaxed.iter_mut().zip(chosen) {
            r.orders = s;
        }
        let perf = self
            .predictor
            .predict_model(self.layers, mappings, &hw, self.hier);
        (hw, perf.edp())
    }
}

/// Step programs one descent segment keeps for replay.
pub const PROGRAM_SLOTS: usize = 4;

/// One cached program: the loss node and leaves recorded on its tape.
struct Program<'t> {
    output: Option<Var<'t>>,
    leaves: Vec<Var<'t>>,
}

/// The recorded step programs of one descent segment, most recently used
/// first: at most [`PROGRAM_SLOTS`] tapes, each holding one recording of
/// [`DiffLoss::build`] and its guards.
///
/// A step first replays the stem — the nodes before the first guard,
/// which every program recorded since the last [`clear`](Self::clear)
/// shares — on the most recently used tape. It then replays the rest of
/// the first program whose guards all hold (the whole program, if that is
/// not the most recently used one, so its stem partials are current too)
/// and moves it to the front. When no program fits, the step records into
/// the least recently used tape; programs are never copied. Either way
/// the backward sweep is [`Tape::backward_into`] over the program's
/// records, so a replayed step gives the recorded step's loss and
/// gradient bits.
///
/// The descent clears the cache at every rounding, where loop orders may
/// change. The tapes live for one segment, so a segment boundary starts
/// with an empty cache too.
pub struct ProgramCache<'t> {
    tapes: &'t [Tape; PROGRAM_SLOTS],
    programs: [Program<'t>; PROGRAM_SLOTS],
    /// Slot indices, most recently used first; the first `live` hold
    /// programs.
    order: [usize; PROGRAM_SLOTS],
    live: usize,
    values: Vec<f64>,
    adj: Vec<f64>,
}

impl<'t> ProgramCache<'t> {
    /// An empty cache recording onto `tapes`.
    pub fn new(tapes: &'t [Tape; PROGRAM_SLOTS]) -> ProgramCache<'t> {
        ProgramCache {
            tapes,
            programs: std::array::from_fn(|_| Program {
                output: None,
                leaves: Vec::new(),
            }),
            order: std::array::from_fn(|i| i),
            live: 0,
            values: Vec::new(),
            adj: Vec::new(),
        }
    }

    /// Forget every program; the next step records.
    pub fn clear(&mut self) {
        self.live = 0;
    }

    /// Evaluate `loss` at `params` (flattened [`RelaxedMapping::params`]
    /// of `relaxed`) and write its leaf gradients into `grads`. Returns the
    /// loss value and whether the step recorded; only a recording step
    /// writes `params` into `relaxed` and calls [`DiffLoss::build`].
    pub fn step<L: DiffLoss + ?Sized>(
        &mut self,
        loss: &L,
        relaxed: &mut [RelaxedMapping],
        params: &[f64],
        grads: &mut Vec<f64>,
    ) -> (f64, bool) {
        let tapes = self.tapes;
        if let Some(pos) = self.find(params) {
            self.order[..=pos].rotate_right(1);
            let slot = self.order[0];
            let program = &self.programs[slot];
            if let Some(output) = program.output {
                let tape = &tapes[slot];
                let from = if pos == 0 { tape.stem_len() } else { 0 };
                let value = tape.replay(from, output, params, &mut self.values);
                tape.backward_into(output, &mut self.adj)
                    .wrt_into(&program.leaves, grads);
                return (value, false);
            }
        }
        if self.live < PROGRAM_SLOTS {
            self.live += 1;
        }
        self.order[..self.live].rotate_right(1);
        let slot = self.order[0];
        let tape = &tapes[slot];
        let program = &mut self.programs[slot];
        for (r, chunk) in relaxed.iter_mut().zip(params.chunks(PARAMS_PER_LAYER)) {
            r.set_params(chunk);
        }
        tape.clear();
        program.leaves.clear();
        let output = loss.build(tape, relaxed, &mut SegmentPlan, &mut program.leaves);
        debug_assert_eq!(tape.leaf_count(), params.len(), "one leaf per parameter");
        program.output = Some(output);
        tape.backward_into(output, &mut self.adj)
            .wrt_into(&program.leaves, grads);
        (output.value(), true)
    }

    /// Replay the shared stem on the most recently used tape and return the
    /// position of the first program whose guards hold at `params`.
    fn find(&mut self, params: &[f64]) -> Option<usize> {
        let tapes = self.tapes;
        let cached = &self.order[..self.live];
        let mru = &tapes[*cached.first()?];
        let stem = mru.stem_len();
        mru.replay_stem(params, &mut self.values);
        cached.iter().position(|&slot| {
            tapes[slot].stem_len() == stem && tapes[slot].guards_hold(&self.values)
        })
    }
}

/// Live, lock-free counters one network's descents publish into so a
/// service job's `progress()` can be observed without blocking the
/// workers: a sample total and a best-EDP running minimum, both monotone.
pub(crate) struct ProgressCounters {
    samples: AtomicUsize,
    best_edp_bits: AtomicU64,
}

impl ProgressCounters {
    pub(crate) fn new() -> ProgressCounters {
        ProgressCounters {
            samples: AtomicUsize::new(0),
            best_edp_bits: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }

    fn add_samples(&self, n: usize) {
        self.samples.fetch_add(n, Ordering::Relaxed);
    }

    /// Lower the published best EDP to `edp` if it improves on it (CAS
    /// loop, so the published value is monotone non-increasing).
    fn update_best(&self, edp: f64) {
        let mut cur = self.best_edp_bits.load(Ordering::Relaxed);
        while edp < f64::from_bits(cur) {
            match self.best_edp_bits.compare_exchange_weak(
                cur,
                edp.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current `(samples, best_edp)` snapshot (best is `INFINITY` until
    /// the first rounding evaluation lands).
    pub(crate) fn snapshot(&self) -> (usize, f64) {
        (
            self.samples.load(Ordering::Relaxed),
            f64::from_bits(self.best_edp_bits.load(Ordering::Relaxed)),
        )
    }
}

/// Control surface handed to every work item: the job's stop word
/// (checked once per gradient step or black-box sample) and the job's
/// progress sinks.
#[derive(Clone, Copy)]
pub(crate) struct StartControl<'a> {
    /// Once it reports stopping (a cancel or a `Kill` deadline), descents
    /// return their partial result at the next step boundary, and
    /// not-yet-started work items return empty results.
    pub(crate) stop: &'a StopWord,
    /// Live observation counters for the network this start belongs to.
    pub(crate) progress: &'a ProgressCounters,
    /// The job's count of gradient steps that recorded their loss
    /// ([`JobStats::gd_steps_recorded`](crate::JobStats)).
    pub(crate) steps_recorded: &'a AtomicUsize,
    /// Fault injection ([`FaultKind::NonFiniteLoss`](crate::FaultKind)):
    /// report the first gradient step's loss as NaN *and* poison the
    /// rounding checkpoint's reference EDP, so the descent's real
    /// two-half guard (suspect mark, then rounding adjudication) trips
    /// end to end. Never set outside the test-only fault hook.
    pub(crate) force_non_finite: bool,
}

impl StartControl<'_> {
    pub(crate) fn cancelled(&self) -> bool {
        self.stop.stopping()
    }

    pub(crate) fn count_samples(&self, n: usize) {
        self.progress.add_samples(n);
    }

    fn count_recorded(&self) {
        self.steps_recorded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn observe_best(&self, edp: f64) {
        self.progress.update_best(edp);
    }
}

/// A gradient step whose loss went NaN: the typed per-item failure
/// [`run_segment`] reports instead of letting a poisoned descent merge a
/// silently bogus `best_edp`. The service surfaces it as
/// [`JobError::NonFiniteLoss`](crate::JobError).
#[derive(Debug, Clone, Copy)]
pub(crate) struct NonFiniteLoss {
    /// The 1-based gradient step at which the loss went non-finite.
    pub(crate) step: usize,
}

/// The full, RNG-free checkpoint of one start point's descent between
/// gradient steps: everything [`run_segment`] needs to resume
/// bit-identically to an uninterrupted run. The only RNG a descent ever
/// draws from is consumed inside [`DescentState::begin`] (the
/// `prepare_start` hook), so the checkpoint carries no stream position;
/// the program cache and scratch buffers are pure caches and are
/// recreated fresh by each segment (a replayed step is bit-identical to a
/// recorded one, and a fresh [`Tape`] to a cleared one).
///
/// This is what makes GD work items **resumable in bounded segments** on
/// the service's persistent worker pool: a segment runs `k` steps,
/// re-enqueues the checkpoint, and the slot turns over.
pub(crate) struct DescentState {
    relaxed: Vec<RelaxedMapping>,
    params: Vec<f64>,
    adam: Adam,
    result: SearchResult,
    /// First gradient step whose loss went NaN since the last rounding
    /// that evaluated finite; see the guard comments in [`run_segment`].
    suspect_since: Option<usize>,
    /// The next 1-based gradient step to run
    /// (`> cfg.steps_per_start` once the descent is complete).
    next_step: usize,
}

impl DescentState {
    /// Prepare a start point for descent: seed and consume this start's
    /// private RNG (`cfg.seed + index`, used only by
    /// [`DiffLoss::prepare_start`]) and materialize the initial
    /// parameters and Adam state.
    pub(crate) fn begin<L: DiffLoss + ?Sized>(
        loss: &L,
        mut relaxed: Vec<RelaxedMapping>,
        index: usize,
        cfg: &GdConfig,
    ) -> DescentState {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(index as u64));
        loss.prepare_start(&mut relaxed, &mut rng);
        let mut params: Vec<f64> = Vec::new();
        for r in &relaxed {
            r.params_into(&mut params);
        }
        let adam = Adam::new(params.len(), cfg.learning_rate);
        DescentState {
            relaxed,
            params,
            adam,
            result: SearchResult::empty(),
            suspect_since: None,
            next_step: 1,
        }
    }

    /// The completed (or cancelled-partial) result. Call only after
    /// [`run_segment`] reported the descent finished.
    pub(crate) fn into_result(self) -> SearchResult {
        self.result
    }
}

/// Run up to `max_steps` gradient steps of one start point's descent,
/// advancing `state` in place. Returns `Ok(true)` when the descent is
/// finished (budget exhausted or cancelled — `state.into_result()` holds
/// the result), `Ok(false)` when it yielded with steps remaining, and
/// fails with [`NonFiniteLoss`] the moment a rounding checkpoint's
/// reference EDP goes NaN, so a poisoned descent can never contribute a
/// silently bogus best point to the merge.
///
/// Segmentation is bit-exact: the per-segment [`ProgramCache`] and
/// scratch buffers are pure caches (a replayed step gives the bits of a
/// fresh recording, and a fresh tape records exactly what a cleared one
/// does), so any `max_steps` schedule produces the same result as one
/// uninterrupted run — the invariant the segment-resume parity tests pin.
/// Only the number of recording steps depends on the schedule: every
/// segment starts with an empty program cache.
pub(crate) fn run_segment<L: DiffLoss + ?Sized>(
    loss: &L,
    state: &mut DescentState,
    cfg: &GdConfig,
    ctrl: StartControl<'_>,
    max_steps: usize,
) -> Result<bool, NonFiniteLoss> {
    let layers = loss.layers();
    // One program cache and one gradient buffer per segment, reused (never
    // reallocated) across its gradient steps.
    let tapes: [Tape; PROGRAM_SLOTS] = Default::default();
    let mut programs = ProgramCache::new(&tapes);
    let mut flat: Vec<f64> = Vec::new();
    let mut ran = 0usize;

    while state.next_step <= cfg.steps_per_start {
        if ran == max_steps {
            // Segment budget exhausted with steps remaining: yield so the
            // checkpoint can re-enqueue and the worker slot turns over.
            return Ok(false);
        }
        let step = state.next_step;
        // Cooperative cancellation: stop issuing gradient steps at the
        // next step boundary and finish with the partial (still monotone)
        // result.
        if ctrl.cancelled() {
            return Ok(true);
        }
        // One differentiable-model evaluation + gradient step: a replay of
        // a cached program, or a fresh recording.
        let (loss_value, recorded) =
            programs.step(loss, &mut state.relaxed, &state.params, &mut flat);
        if recorded {
            ctrl.count_recorded();
        }
        // Non-finite loss guard, step half: a NaN loss marks the descent
        // suspect from this step on. It is not failed yet — extreme but
        // honest points overflow the surrogate transiently (inf, and
        // through inf−inf even NaN) and the zeroed-gradient step below
        // recovers them, as this loop always did — but the *next* rounding
        // checkpoint must adjudicate: a finite reference EDP proves the
        // recovery and clears the mark, a NaN one fails the item with the
        // step where the poisoning began. Every step has a next rounding
        // (the final step always rounds), so no NaN episode goes
        // unadjudicated and a poisoned descent can never merge a silently
        // bogus best point. (`force_non_finite` is the test-only fault
        // injection forcing exactly this path.)
        let loss_value = if ctrl.force_non_finite && step == 1 {
            f64::NAN
        } else {
            loss_value
        };
        if loss_value.is_nan() {
            state.suspect_since.get_or_insert(step);
        }
        for g in flat.iter_mut() {
            if !g.is_finite() {
                *g = 0.0;
            }
        }
        state.adam.step(&mut state.params, &flat);
        state.result.samples += 1;
        ctrl.count_samples(1);

        // Periodic rounding + reference evaluation (§5.3.2).
        if step.is_multiple_of(cfg.round_every) || step == cfg.steps_per_start {
            for (r, chunk) in state
                .relaxed
                .iter_mut()
                .zip(state.params.chunks(PARAMS_PER_LAYER))
            {
                r.set_params(chunk);
            }
            let mut mappings: Vec<Mapping> = layers
                .iter()
                .zip(&state.relaxed)
                .map(|(l, r)| r.round_with_cap(&l.problem, loss.spatial_cap()))
                .collect();
            let (hw, edp) = loss.finish_round(&mut state.relaxed, &mut mappings);
            // Non-finite loss guard, rounding half: a NaN reference EDP
            // would never win `consider`'s comparison and so would vanish
            // silently — surface it as the typed failure, attributed to
            // the gradient step where the descent first went NaN (this
            // step, if the descent itself looked healthy). A finite EDP
            // proves any suspect episode recovered. `INFINITY` stays
            // legal — it is the "nothing landed yet" sentinel.
            let edp = if ctrl.force_non_finite { f64::NAN } else { edp };
            if edp.is_nan() {
                return Err(NonFiniteLoss {
                    step: state.suspect_since.unwrap_or(step),
                });
            }
            state.suspect_since = None;
            state.result.samples += 1;
            ctrl.count_samples(1);
            state.result.consider(edp, &hw, &mappings);
            state.result.record();
            ctrl.observe_best(state.result.best_edp);

            // Restart descent from the rounded point (§5.2.1), rewriting
            // the existing relaxed mappings and parameter buffer in place.
            for (m, r) in mappings.iter().zip(state.relaxed.iter_mut()) {
                let orders = r.orders;
                *r = RelaxedMapping::from_mapping(m);
                r.orders = orders;
            }
            state.params.clear();
            for r in &state.relaxed {
                r.params_into(&mut state.params);
            }
            state.adam.reset();
            // Loop orders may have changed: no recorded program applies.
            programs.clear();
        } else if step.is_multiple_of(RECORD_EVERY) {
            state.result.record();
        }
        state.next_step += 1;
        ran += 1;
    }
    Ok(true)
}

/// Deterministic reduction of per-start results: best EDP wins (ties to
/// the lowest start index), sample counts are re-offset to the sequential
/// accounting, and the concatenated history is rewritten to the running
/// global best. Items are read by reference (a job's items are shared
/// with the result cache); only the winner's mappings are cloned.
pub(crate) fn merge_start_results<R: Borrow<SearchResult>>(per_start: Vec<R>) -> SearchResult {
    let mut merged = SearchResult::empty();
    merged.history = Vec::with_capacity(per_start.iter().map(|r| r.borrow().history.len()).sum());
    let mut winner: Option<&SearchResult> = None;
    // Each start's points lie in `(offset, offset + r.samples]`, so the
    // concatenation is already ordered by sample count.
    let mut best = f64::INFINITY;
    for r in &per_start {
        let r = r.borrow();
        let offset = merged.samples;
        merged.history.extend(r.history.iter().map(|p| {
            best = best.min(p.best_edp);
            SearchPoint {
                samples: offset + p.samples,
                best_edp: best,
            }
        }));
        if r.best_edp < merged.best_edp {
            merged.best_edp = r.best_edp;
            winner = Some(r);
        }
        merged.samples += r.samples;
    }
    if let Some(r) = winner {
        merged.best_hw = r.best_hw;
        merged.best_mappings = r.best_mappings.clone();
    }
    debug_assert!(
        merged
            .history
            .windows(2)
            .all(|w| w[0].samples < w[1].samples),
        "merged history must have strictly increasing sample counts"
    );
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gd::SearchPoint;
    use dosa_accel::HardwareConfig;

    fn result(samples: usize, best: f64, history: Vec<(usize, f64)>) -> SearchResult {
        SearchResult {
            best_edp: best,
            best_hw: HardwareConfig::gemmini_default(),
            best_mappings: Vec::new(),
            history: history
                .into_iter()
                .map(|(samples, best_edp)| SearchPoint { samples, best_edp })
                .collect(),
            samples,
        }
    }

    #[test]
    fn merge_offsets_samples_and_takes_running_min() {
        let a = result(10, 5.0, vec![(4, 8.0), (10, 5.0)]);
        let b = result(6, 3.0, vec![(3, 9.0), (6, 3.0)]);
        let m = merge_start_results(vec![a, b]);
        assert_eq!(m.samples, 16);
        assert_eq!(
            m.history,
            vec![
                SearchPoint {
                    samples: 4,
                    best_edp: 8.0
                },
                SearchPoint {
                    samples: 10,
                    best_edp: 5.0
                },
                SearchPoint {
                    samples: 13,
                    best_edp: 5.0
                },
                SearchPoint {
                    samples: 16,
                    best_edp: 3.0
                },
            ]
        );
        assert_eq!(m.best_edp, 3.0);
    }

    #[test]
    fn merge_ties_break_to_lowest_start_index() {
        let mut a = result(5, 2.0, vec![(5, 2.0)]);
        a.best_hw = HardwareConfig::new(8, 64.0, 128.0).unwrap();
        let mut b = result(5, 2.0, vec![(5, 2.0)]);
        b.best_hw = HardwareConfig::new(32, 64.0, 128.0).unwrap();
        let m = merge_start_results(vec![a, b]);
        assert_eq!(m.best_hw.pe_side(), 8);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let m = merge_start_results(Vec::<SearchResult>::new());
        assert_eq!(m.samples, 0);
        assert!(m.history.is_empty());
        assert!(m.best_edp.is_infinite());
    }
}
