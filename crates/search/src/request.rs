//! Search-job descriptions: the [`SearchRequest`] builder submitted to a
//! [`SearchService`](crate::SearchService), the [`Surrogate`] selecting
//! which differentiable loss a gradient-descent job descends on, and the
//! typed [`ConfigError`] validation applied at the service boundary.
//!
//! A request owns everything a job needs — the memory hierarchy, one or
//! more named networks (a *batch*), and a [`Strategy`] carrying the
//! search algorithm and its budget — so jobs can run on the service's
//! background workers with no borrowed state. Per-network seeds keep
//! every network's result bit-identical to a standalone submission with
//! the same seed (see [`SearchService`](crate::SearchService) for the
//! guarantee).

use crate::fault::{DeadlinePolicy, FaultPlan};
use crate::gd::GdConfig;
use crate::latency_model::LatencyPredictor;
use crate::sched::SchedPolicy;
use crate::strategy::Strategy;
use dosa_accel::{Hierarchy, MAX_PE_SIDE};
use dosa_workload::Layer;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A strategy configuration or [`SearchRequest`] rejected at the service
/// boundary.
///
/// Returned by [`GdConfig::validate`],
/// [`RandomSearchConfig::validate`](crate::RandomSearchConfig::validate),
/// [`BbboConfig::validate`](crate::BbboConfig::validate) and
/// [`SearchService::submit`](crate::SearchService::submit); the variants
/// name the field that would otherwise panic (or silently misbehave) deep
/// inside a searcher — most notably `round_every == 0`, which used to hit
/// a divide-by-zero in the gradient loop, and `init_random == 0`, which
/// used to let BB-BO's Gaussian process fit on an empty design set.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `start_points` was zero: the search would have nothing to descend.
    ZeroStartPoints,
    /// `steps_per_start` was zero: no gradient steps would run.
    ZeroStepsPerStart,
    /// `round_every` was zero: the rounding cadence `step % round_every`
    /// would divide by zero.
    ZeroRoundEvery,
    /// `learning_rate` was non-finite or not positive.
    BadLearningRate(f64),
    /// `num_hw` was zero: a black-box search would evaluate no designs.
    ZeroHwDesigns,
    /// `samples_per_hw` was zero: every design would go unsampled.
    ZeroSamplesPerHw,
    /// `candidates` was zero: a BB-BO step would have no candidate
    /// designs to score by expected improvement.
    ZeroCandidates,
    /// `init_random` was zero or exceeded `num_hw`: BB-BO's Gaussian
    /// process would fit on an empty (or impossibly short) design set.
    BadInitRandom {
        /// The rejected `init_random` value.
        init_random: usize,
        /// The configured total number of hardware designs.
        num_hw: usize,
    },
    /// A non-default [`Surrogate`] was combined with a black-box strategy
    /// (named by the payload) that cannot descend on it; surrogates apply
    /// to [`Strategy::GradientDescent`] only.
    SurrogateNotApplicable(&'static str),
    /// The request named no networks.
    EmptyBatch,
    /// A network in the request had no layers.
    EmptyNetwork(String),
    /// Two networks in one request share a name, making their results
    /// indistinguishable on demultiplex.
    DuplicateNetwork(String),
    /// `max_parallelism` was set to zero: the job could never hold a
    /// worker slot and would sit admitted-but-idle forever.
    ZeroParallelism,
    /// A deadline of zero duration was set: the job would expire before
    /// its first work item could start.
    ZeroDeadline,
    /// `segment_steps` was `Some(0)`: a zero-step segment would re-enqueue
    /// forever without ever advancing the descent.
    ZeroSegmentSteps,
    /// `fixed_pe_side` was outside `1..=MAX_PE_SIDE`: no hardware
    /// configuration has that PE array side.
    BadPeSide(u64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroStartPoints => write!(f, "start_points must be at least 1"),
            ConfigError::ZeroStepsPerStart => write!(f, "steps_per_start must be at least 1"),
            ConfigError::ZeroRoundEvery => {
                write!(
                    f,
                    "round_every must be at least 1 (the rounding cadence divides by it)"
                )
            }
            ConfigError::BadLearningRate(lr) => {
                write!(f, "learning_rate must be finite and positive, got {lr}")
            }
            ConfigError::ZeroHwDesigns => write!(f, "num_hw must be at least 1"),
            ConfigError::ZeroSamplesPerHw => write!(f, "samples_per_hw must be at least 1"),
            ConfigError::ZeroCandidates => write!(f, "candidates must be at least 1"),
            ConfigError::BadInitRandom {
                init_random,
                num_hw,
            } => {
                write!(
                    f,
                    "init_random must be in 1..=num_hw (got {init_random} with num_hw {num_hw}); \
                     the GP would fit on an empty or short design set"
                )
            }
            ConfigError::SurrogateNotApplicable(strategy) => {
                write!(
                    f,
                    "a non-default surrogate was set but the {strategy} strategy cannot use one \
                     (surrogates apply to gradient descent only)"
                )
            }
            ConfigError::EmptyBatch => write!(f, "request contains no networks"),
            ConfigError::EmptyNetwork(name) => write!(f, "network {name:?} has no layers"),
            ConfigError::DuplicateNetwork(name) => {
                write!(
                    f,
                    "network name {name:?} appears more than once in the batch"
                )
            }
            ConfigError::ZeroParallelism => {
                write!(
                    f,
                    "max_parallelism must be at least 1 when set (the job could \
                     never hold a worker slot)"
                )
            }
            ConfigError::ZeroDeadline => {
                write!(
                    f,
                    "deadline must be non-zero (a zero deadline expires before the \
                     first work item can start)"
                )
            }
            ConfigError::ZeroSegmentSteps => {
                write!(
                    f,
                    "segment_steps must be at least 1 when set (a zero-step segment \
                     would re-enqueue forever without advancing)"
                )
            }
            ConfigError::BadPeSide(side) => {
                write!(f, "fixed_pe_side must be in 1..={MAX_PE_SIDE}, got {side}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl GdConfig {
    /// Check this configuration for values the engine cannot run on,
    /// returning the first offending field as a typed [`ConfigError`].
    ///
    /// [`SearchService::submit`](crate::SearchService::submit) calls this
    /// on every request; the blocking shims
    /// ([`dosa_search`](crate::dosa_search),
    /// [`dosa_search_rtl`](crate::dosa_search_rtl)) panic on the error it
    /// returns.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.start_points == 0 {
            return Err(ConfigError::ZeroStartPoints);
        }
        if self.steps_per_start == 0 {
            return Err(ConfigError::ZeroStepsPerStart);
        }
        if self.round_every == 0 {
            return Err(ConfigError::ZeroRoundEvery);
        }
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return Err(ConfigError::BadLearningRate(self.learning_rate));
        }
        if self.segment_steps == Some(0) {
            return Err(ConfigError::ZeroSegmentSteps);
        }
        if let Some(side) = self.fixed_pe_side {
            if !(1..=MAX_PE_SIDE).contains(&side) {
                return Err(ConfigError::BadPeSide(side));
            }
        }
        Ok(())
    }
}

/// Which differentiable loss a job descends on.
#[derive(Clone, Default)]
pub enum Surrogate {
    /// The plain differentiable-EDP loss of §5
    /// ([`EdpLoss`](crate::EdpLoss)), honoring `GdConfig::strategy` and
    /// `GdConfig::fixed_pe_side` — the surrogate behind
    /// [`dosa_search`](crate::dosa_search).
    #[default]
    Edp,
    /// The §6.5 predictor-adjusted latency loss
    /// ([`PredictedLatencyLoss`](crate::PredictedLatencyLoss)) with the PE
    /// side pinned to `GdConfig::fixed_pe_side` (default 16) — the
    /// surrogate behind [`dosa_search_rtl`](crate::dosa_search_rtl).
    PredictedLatency(LatencyPredictor),
}

impl fmt::Debug for Surrogate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Surrogate::Edp => f.write_str("Surrogate::Edp"),
            Surrogate::PredictedLatency(p) => {
                write!(f, "Surrogate::PredictedLatency({:?})", p.kind)
            }
        }
    }
}

/// One named network inside a (possibly batched) request.
#[derive(Debug, Clone)]
pub struct NetworkSpec {
    /// Name the per-network result is demultiplexed under.
    pub name: String,
    /// The layers being co-optimized (one entry per unique layer).
    pub layers: Vec<Layer>,
    /// Seed for this network's start points and descents; `None` inherits
    /// the strategy's seed. A network's result is bit-identical to a
    /// standalone submission with the same effective seed.
    pub seed: Option<u64>,
}

/// A search job: one network or a batch of named networks, a
/// [`Strategy`] (the algorithm plus its budget and seed), scheduling
/// knobs (a [`SchedPolicy`] and an optional parallelism cap), and — for
/// gradient descent — a surrogate, all owned so the job can run on
/// background workers. Build one with [`SearchRequest::builder`] and
/// submit it with [`SearchService::submit`](crate::SearchService::submit).
#[derive(Debug, Clone)]
pub struct SearchRequest {
    pub(crate) hier: Hierarchy,
    pub(crate) networks: Vec<NetworkSpec>,
    pub(crate) surrogate: Surrogate,
    pub(crate) strategy: Strategy,
    pub(crate) policy: SchedPolicy,
    pub(crate) max_parallelism: Option<usize>,
    pub(crate) deadline: Option<Duration>,
    pub(crate) deadline_policy: DeadlinePolicy,
    pub(crate) fault_plan: Option<Arc<FaultPlan>>,
}

impl SearchRequest {
    /// Start building a request against `hier`.
    pub fn builder(hier: Hierarchy) -> SearchRequestBuilder {
        SearchRequestBuilder {
            request: SearchRequest {
                hier,
                networks: Vec::new(),
                surrogate: Surrogate::Edp,
                strategy: Strategy::default(),
                policy: SchedPolicy::default(),
                max_parallelism: None,
                deadline: None,
                deadline_policy: DeadlinePolicy::default(),
                fault_plan: None,
            },
        }
    }

    /// The search strategy this job runs.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// The networks in submission order.
    pub fn networks(&self) -> &[NetworkSpec] {
        &self.networks
    }

    /// The surrogate a gradient-descent job will descend on.
    pub fn surrogate(&self) -> &Surrogate {
        &self.surrogate
    }

    /// How this job competes for worker slots against the other jobs on
    /// its service ([`SchedPolicy::Fifo`] unless set via
    /// [`SearchRequestBuilder::policy`]).
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// The job's worker-slot cap, if it declared one
    /// ([`SearchRequestBuilder::max_parallelism`]); `None` lets the job
    /// use the service's whole budget when nothing else is running.
    pub fn max_parallelism(&self) -> Option<usize> {
        self.max_parallelism
    }

    /// The job's deadline, if it declared one
    /// ([`SearchRequestBuilder::deadline`]). Measured from submission.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// What happens when the deadline expires
    /// ([`DeadlinePolicy::Kill`] unless set via
    /// [`SearchRequestBuilder::deadline_policy`]). Meaningless without a
    /// deadline.
    pub fn deadline_policy(&self) -> DeadlinePolicy {
        self.deadline_policy
    }

    /// The deterministic fault-injection plan attached to this request,
    /// if any (the test-only chaos hook; see
    /// [`SearchRequestBuilder::fault_plan`]).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_deref()
    }

    /// Coarse estimate of the total model evaluations this request will
    /// consume: the strategy's per-network estimate
    /// ([`Strategy::estimated_samples`]) times the batch size. Used as
    /// the [`SchedPolicy::ShortestFirst`] ranking key — it orders jobs,
    /// it does not bound them.
    pub fn estimated_samples(&self) -> u64 {
        self.strategy
            .estimated_samples()
            .saturating_mul(self.networks.len().max(1) as u64)
    }

    /// Full service-boundary validation: the strategy configuration
    /// ([`Strategy::validate`]), surrogate applicability (non-default
    /// surrogates require [`Strategy::GradientDescent`]), the scheduling
    /// knobs (a declared parallelism cap must be at least 1), plus the
    /// batch shape (non-empty, non-empty layers, unique names).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.strategy.validate()?;
        if self.max_parallelism == Some(0) {
            return Err(ConfigError::ZeroParallelism);
        }
        if self.deadline == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroDeadline);
        }
        if !matches!(self.strategy, Strategy::GradientDescent(_))
            && !matches!(self.surrogate, Surrogate::Edp)
        {
            return Err(ConfigError::SurrogateNotApplicable(self.strategy.name()));
        }
        if self.networks.is_empty() {
            return Err(ConfigError::EmptyBatch);
        }
        for (i, net) in self.networks.iter().enumerate() {
            if net.layers.is_empty() {
                return Err(ConfigError::EmptyNetwork(net.name.clone()));
            }
            if self.networks[..i].iter().any(|n| n.name == net.name) {
                return Err(ConfigError::DuplicateNetwork(net.name.clone()));
            }
        }
        Ok(())
    }

    /// The effective seed of network `index` (its own, or the
    /// strategy's).
    pub(crate) fn network_seed(&self, index: usize) -> u64 {
        self.networks[index].seed.unwrap_or(self.strategy.seed())
    }
}

/// Builder for [`SearchRequest`]; see [`SearchRequest::builder`].
#[derive(Debug, Clone)]
pub struct SearchRequestBuilder {
    request: SearchRequest,
}

impl SearchRequestBuilder {
    /// Add a network to the batch, seeded by the strategy's seed.
    pub fn network(self, name: impl Into<String>, layers: Vec<Layer>) -> SearchRequestBuilder {
        self.push_network(name.into(), layers, None)
    }

    /// Add a network with its own seed, decoupling its start points and
    /// descents from the other networks in the batch.
    pub fn network_seeded(
        self,
        name: impl Into<String>,
        layers: Vec<Layer>,
        seed: u64,
    ) -> SearchRequestBuilder {
        self.push_network(name.into(), layers, Some(seed))
    }

    fn push_network(
        mut self,
        name: String,
        layers: Vec<Layer>,
        seed: Option<u64>,
    ) -> SearchRequestBuilder {
        self.request
            .networks
            .push(NetworkSpec { name, layers, seed });
        self
    }

    /// Select the surrogate loss a gradient-descent job descends on
    /// (default: [`Surrogate::Edp`]). Rejected at validation if the
    /// request's strategy is not [`Strategy::GradientDescent`] and the
    /// surrogate is not the default.
    pub fn surrogate(mut self, surrogate: Surrogate) -> SearchRequestBuilder {
        self.request.surrogate = surrogate;
        self
    }

    /// Select the search algorithm and its budget (default:
    /// gradient descent with [`GdConfig::default`]).
    pub fn strategy(mut self, strategy: Strategy) -> SearchRequestBuilder {
        self.request.strategy = strategy;
        self
    }

    /// Set a gradient-descent budget and seed — shorthand for
    /// `.strategy(Strategy::GradientDescent(cfg))`, kept so existing
    /// GD-only callers read naturally.
    pub fn config(mut self, cfg: GdConfig) -> SearchRequestBuilder {
        self.request.strategy = Strategy::GradientDescent(cfg);
        self
    }

    /// Select how this job competes for worker slots against the other
    /// jobs on its service (default: [`SchedPolicy::Fifo`]). The policy
    /// reorders wall-clock time only — results are bit-identical under
    /// every policy and interleaving.
    pub fn policy(mut self, policy: SchedPolicy) -> SearchRequestBuilder {
        self.request.policy = policy;
        self
    }

    /// Cap how many worker slots this job may hold at once (default: the
    /// service's whole thread budget). A long job capped at `n` provably
    /// leaves `threads - n` slots for the jobs submitted after it.
    /// Rejected at validation if zero; silently clamped down to the
    /// service budget at submission.
    pub fn max_parallelism(mut self, n: usize) -> SearchRequestBuilder {
        self.request.max_parallelism = Some(n);
        self
    }

    /// Give the job a deadline, measured from **submission** (queue time
    /// counts — this is the SLO a caller experiences). What happens at
    /// expiry is decided by [`deadline_policy`](Self::deadline_policy):
    /// the default [`DeadlinePolicy::Kill`] fails the job with
    /// [`JobError::DeadlineExceeded`](crate::JobError::DeadlineExceeded);
    /// [`DeadlinePolicy::Degrade`] returns the deterministic merge of the
    /// work items completed so far, flagged
    /// [`degraded`](crate::BatchResult::degraded). Rejected at validation
    /// if zero.
    pub fn deadline(mut self, deadline: Duration) -> SearchRequestBuilder {
        self.request.deadline = Some(deadline);
        self
    }

    /// Select what happens when the [`deadline`](Self::deadline) expires
    /// (default: [`DeadlinePolicy::Kill`]). Has no effect without a
    /// deadline.
    pub fn deadline_policy(mut self, policy: DeadlinePolicy) -> SearchRequestBuilder {
        self.request.deadline_policy = policy;
        self
    }

    /// Attach a deterministic [`FaultPlan`] — the service's **test-only
    /// chaos hook**, used by the robustness tests in
    /// `crates/search/tests/faults.rs` to inject panics, delays, and non-finite losses at chosen work-item
    /// positions. An empty plan is a guaranteed bit-exact no-op; a plan
    /// only ever affects the job it is attached to.
    pub fn fault_plan(mut self, plan: FaultPlan) -> SearchRequestBuilder {
        self.request.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Finish building. Validation happens at
    /// [`SearchService::submit`](crate::SearchService::submit) (or call
    /// [`SearchRequest::validate`] directly).
    pub fn build(self) -> SearchRequest {
        self.request
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosa_workload::Problem;

    fn layer() -> Layer {
        Layer::once(Problem::matmul("m", 8, 32, 32).unwrap())
    }

    #[test]
    fn default_config_is_valid() {
        GdConfig::default().validate().unwrap();
    }

    #[test]
    fn validate_rejects_each_degenerate_field() {
        let cases = [
            (
                GdConfig {
                    start_points: 0,
                    ..GdConfig::default()
                },
                ConfigError::ZeroStartPoints,
            ),
            (
                GdConfig {
                    steps_per_start: 0,
                    ..GdConfig::default()
                },
                ConfigError::ZeroStepsPerStart,
            ),
            (
                GdConfig {
                    round_every: 0,
                    ..GdConfig::default()
                },
                ConfigError::ZeroRoundEvery,
            ),
            (
                GdConfig {
                    learning_rate: f64::NAN,
                    ..GdConfig::default()
                },
                ConfigError::BadLearningRate(f64::NAN),
            ),
            (
                GdConfig {
                    learning_rate: -0.5,
                    ..GdConfig::default()
                },
                ConfigError::BadLearningRate(-0.5),
            ),
            (
                GdConfig {
                    segment_steps: Some(0),
                    ..GdConfig::default()
                },
                ConfigError::ZeroSegmentSteps,
            ),
            (
                GdConfig {
                    fixed_pe_side: Some(0),
                    ..GdConfig::default()
                },
                ConfigError::BadPeSide(0),
            ),
            (
                GdConfig {
                    fixed_pe_side: Some(MAX_PE_SIDE + 1),
                    ..GdConfig::default()
                },
                ConfigError::BadPeSide(MAX_PE_SIDE + 1),
            ),
        ];
        for (cfg, expected) in cases {
            let err = cfg.validate().unwrap_err();
            // NaN != NaN; compare the discriminants via Debug.
            assert_eq!(format!("{err:?}"), format!("{expected:?}"));
        }
    }

    #[test]
    fn request_validation_covers_batch_shape() {
        let hier = Hierarchy::gemmini();
        let empty = SearchRequest::builder(hier.clone()).build();
        assert_eq!(empty.validate(), Err(ConfigError::EmptyBatch));

        let no_layers = SearchRequest::builder(hier.clone())
            .network("empty", Vec::new())
            .build();
        assert_eq!(
            no_layers.validate(),
            Err(ConfigError::EmptyNetwork("empty".into()))
        );

        let dup = SearchRequest::builder(hier.clone())
            .network("a", vec![layer()])
            .network("a", vec![layer()])
            .build();
        assert_eq!(
            dup.validate(),
            Err(ConfigError::DuplicateNetwork("a".into()))
        );

        let ok = SearchRequest::builder(hier)
            .network("a", vec![layer()])
            .network_seeded("b", vec![layer()], 9)
            .build();
        ok.validate().unwrap();
        assert_eq!(ok.network_seed(0), ok.strategy().seed());
        assert_eq!(ok.network_seed(1), 9);
    }

    #[test]
    fn request_validation_dispatches_to_the_strategy_config() {
        use crate::{BbboConfig, RandomSearchConfig};
        let hier = Hierarchy::gemmini();
        let bad_random = SearchRequest::builder(hier.clone())
            .network("a", vec![layer()])
            .strategy(Strategy::Random(RandomSearchConfig {
                num_hw: 0,
                ..RandomSearchConfig::default()
            }))
            .build();
        assert_eq!(bad_random.validate(), Err(ConfigError::ZeroHwDesigns));

        let bad_bbbo = SearchRequest::builder(hier.clone())
            .network("a", vec![layer()])
            .strategy(Strategy::BayesOpt(BbboConfig {
                init_random: 0,
                ..BbboConfig::default()
            }))
            .build();
        assert_eq!(
            bad_bbbo.validate(),
            Err(ConfigError::BadInitRandom {
                init_random: 0,
                num_hw: 100
            })
        );

        let ok = SearchRequest::builder(hier)
            .network("a", vec![layer()])
            .strategy(Strategy::Random(RandomSearchConfig::default()))
            .build();
        ok.validate().unwrap();
    }

    #[test]
    fn non_default_surrogate_requires_gradient_descent() {
        use crate::{LatencyPredictor, RandomSearchConfig};
        let hier = Hierarchy::gemmini();
        let mixed = SearchRequest::builder(hier)
            .network("a", vec![layer()])
            .surrogate(Surrogate::PredictedLatency(LatencyPredictor::analytical()))
            .strategy(Strategy::Random(RandomSearchConfig::default()))
            .build();
        assert_eq!(
            mixed.validate(),
            Err(ConfigError::SurrogateNotApplicable("random"))
        );
    }

    #[test]
    fn scheduling_knobs_default_validate_and_estimate() {
        let hier = Hierarchy::gemmini();
        let request = SearchRequest::builder(hier.clone())
            .network("a", vec![layer()])
            .network("b", vec![layer()])
            .config(GdConfig {
                start_points: 3,
                steps_per_start: 100,
                ..GdConfig::default()
            })
            .build();
        assert_eq!(request.policy(), SchedPolicy::Fifo);
        assert_eq!(request.max_parallelism(), None);
        assert_eq!(request.estimated_samples(), 2 * 3 * 100);
        request.validate().unwrap();

        let tuned = SearchRequest::builder(hier.clone())
            .network("a", vec![layer()])
            .policy(SchedPolicy::Priority(3))
            .max_parallelism(2)
            .build();
        assert_eq!(tuned.policy(), SchedPolicy::Priority(3));
        assert_eq!(tuned.max_parallelism(), Some(2));
        tuned.validate().unwrap();

        let zero = SearchRequest::builder(hier)
            .network("a", vec![layer()])
            .max_parallelism(0)
            .build();
        assert_eq!(zero.validate(), Err(ConfigError::ZeroParallelism));
    }

    #[test]
    fn deadline_knobs_default_and_validate() {
        let hier = Hierarchy::gemmini();
        let plain = SearchRequest::builder(hier.clone())
            .network("a", vec![layer()])
            .build();
        assert_eq!(plain.deadline(), None);
        assert_eq!(plain.deadline_policy(), DeadlinePolicy::Kill);
        assert!(plain.fault_plan().is_none());
        plain.validate().unwrap();

        let dl = SearchRequest::builder(hier.clone())
            .network("a", vec![layer()])
            .deadline(Duration::from_millis(200))
            .deadline_policy(DeadlinePolicy::Degrade)
            .fault_plan(FaultPlan::new().inject(0, crate::FaultKind::Delay(1)))
            .build();
        assert_eq!(dl.deadline(), Some(Duration::from_millis(200)));
        assert_eq!(dl.deadline_policy(), DeadlinePolicy::Degrade);
        assert_eq!(dl.fault_plan().map(FaultPlan::len), Some(1));
        dl.validate().unwrap();

        let zero = SearchRequest::builder(hier)
            .network("a", vec![layer()])
            .deadline(Duration::ZERO)
            .build();
        assert_eq!(zero.validate(), Err(ConfigError::ZeroDeadline));
    }
}
