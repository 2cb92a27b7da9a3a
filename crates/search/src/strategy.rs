//! The pluggable search-strategy layer: [`Strategy`] selects which
//! algorithm a [`SearchRequest`](crate::SearchRequest) runs — the
//! differentiable one-loop gradient descent or one of the paper's
//! black-box baselines — while the [`SearchService`](crate::SearchService)
//! supplies the same job lifecycle (queueing, live progress, cooperative
//! cancellation, batching, per-network determinism) to all of them.
//!
//! Every strategy owns its own configuration and seed; a request's
//! networks may override the seed individually
//! ([`SearchRequestBuilder::network_seeded`](crate::SearchRequestBuilder::network_seeded)).
//! Strategy configurations are validated at
//! [`SearchService::submit`](crate::SearchService::submit) via
//! [`Strategy::validate`], which dispatches to the per-config `validate`
//! methods ([`GdConfig::validate`], [`RandomSearchConfig::validate`],
//! [`BbboConfig::validate`]).

use crate::bbbo::BbboConfig;
use crate::gd::GdConfig;
use crate::random_search::RandomSearchConfig;
use crate::request::ConfigError;

/// Which search algorithm a job runs. Every variant executes through the
/// same [`SearchService`](crate::SearchService) lifecycle — queued,
/// observable, cancellable, batchable — and every variant is
/// bit-identical per network to a standalone run with the same seed, for
/// any worker-thread budget.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Strategy {
    /// DOSA's differentiable one-loop gradient descent (§3.2, §5),
    /// descending the request's [`Surrogate`](crate::Surrogate). Start
    /// points fan out across the worker fleet. The default.
    GradientDescent(GdConfig),
    /// The random-search baseline (§6.1: N hardware designs × M joint
    /// mapping samples). Hardware designs fan out across the worker
    /// fleet, each searched by a private RNG stream derived from the
    /// seed.
    Random(RandomSearchConfig),
    /// The two-loop Bayesian-optimization baseline (Spotlight-style
    /// BB-BO, §6.1). Each network's outer Gaussian-process loop, with
    /// its inner random-mapper samples and expected-improvement scoring,
    /// runs in order as one work item.
    BayesOpt(BbboConfig),
}

impl Default for Strategy {
    fn default() -> Strategy {
        Strategy::GradientDescent(GdConfig::default())
    }
}

impl Strategy {
    /// Short human-readable name ("gradient-descent" / "random" /
    /// "bayes-opt"), used in errors and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::GradientDescent(_) => "gradient-descent",
            Strategy::Random(_) => "random",
            Strategy::BayesOpt(_) => "bayes-opt",
        }
    }

    /// The strategy's base RNG seed — the default for networks that do
    /// not carry their own.
    pub fn seed(&self) -> u64 {
        match self {
            Strategy::GradientDescent(cfg) => cfg.seed,
            Strategy::Random(cfg) => cfg.seed,
            Strategy::BayesOpt(cfg) => cfg.seed,
        }
    }

    /// Validate this strategy's configuration, dispatching to the
    /// per-config `validate` method. Called on every request at
    /// [`SearchService::submit`](crate::SearchService::submit).
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            Strategy::GradientDescent(cfg) => cfg.validate(),
            Strategy::Random(cfg) => cfg.validate(),
            Strategy::BayesOpt(cfg) => cfg.validate(),
        }
    }

    /// Coarse per-network estimate of the model evaluations this
    /// strategy's budget implies — gradient steps for
    /// [`Strategy::GradientDescent`], design × mapping samples for the
    /// black-box strategies. The scheduler uses it as the
    /// [`SchedPolicy::ShortestFirst`](crate::SchedPolicy::ShortestFirst)
    /// ranking key; it orders jobs by expected size and is **not** a
    /// bound (rounding evaluations and EI scoring are excluded).
    pub fn estimated_samples(&self) -> u64 {
        match self {
            Strategy::GradientDescent(cfg) => {
                (cfg.start_points as u64).saturating_mul(cfg.steps_per_start as u64)
            }
            Strategy::Random(cfg) => (cfg.num_hw as u64).saturating_mul(cfg.samples_per_hw as u64),
            Strategy::BayesOpt(cfg) => {
                (cfg.num_hw as u64).saturating_mul(cfg.samples_per_hw as u64)
            }
        }
    }
}

impl RandomSearchConfig {
    /// Check this configuration for values the random searcher cannot run
    /// on, returning the first offending field as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_hw == 0 {
            return Err(ConfigError::ZeroHwDesigns);
        }
        if self.samples_per_hw == 0 {
            return Err(ConfigError::ZeroSamplesPerHw);
        }
        Ok(())
    }
}

impl BbboConfig {
    /// Check this configuration for values BB-BO cannot run on, returning
    /// the first offending field as a typed [`ConfigError`] — notably
    /// `init_random` of 0 or above `num_hw`, which used to let the
    /// Gaussian process fit on an empty or impossibly short design set.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_hw == 0 {
            return Err(ConfigError::ZeroHwDesigns);
        }
        if self.samples_per_hw == 0 {
            return Err(ConfigError::ZeroSamplesPerHw);
        }
        if self.candidates == 0 {
            return Err(ConfigError::ZeroCandidates);
        }
        if self.init_random == 0 || self.init_random > self.num_hw {
            return Err(ConfigError::BadInitRandom {
                init_random: self.init_random,
                num_hw: self.num_hw,
            });
        }
        Ok(())
    }
}

/// Derive the seed of an independent RNG stream from a base seed and a
/// stream index (splitmix64-style finalizer). The black-box strategies
/// give each hardware design in random search and each joint mapping
/// sample in BB-BO's inner loop its own stream, so scheduling can never
/// perturb the drawn values: results stay bit-identical for every worker
/// count and batch composition.
pub(crate) fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_strategy_is_gd_with_default_config() {
        let s = Strategy::default();
        assert_eq!(s.name(), "gradient-descent");
        assert_eq!(s.seed(), GdConfig::default().seed);
        s.validate().unwrap();
    }

    #[test]
    fn random_config_validation_rejects_degenerate_fields() {
        RandomSearchConfig::default().validate().unwrap();
        let zero_hw = RandomSearchConfig {
            num_hw: 0,
            ..RandomSearchConfig::default()
        };
        assert_eq!(zero_hw.validate(), Err(ConfigError::ZeroHwDesigns));
        let zero_samples = RandomSearchConfig {
            samples_per_hw: 0,
            ..RandomSearchConfig::default()
        };
        assert_eq!(zero_samples.validate(), Err(ConfigError::ZeroSamplesPerHw));
    }

    #[test]
    fn bbbo_config_validation_rejects_degenerate_fields() {
        BbboConfig::default().validate().unwrap();
        let cases = [
            (
                BbboConfig {
                    num_hw: 0,
                    ..BbboConfig::default()
                },
                ConfigError::ZeroHwDesigns,
            ),
            (
                BbboConfig {
                    samples_per_hw: 0,
                    ..BbboConfig::default()
                },
                ConfigError::ZeroSamplesPerHw,
            ),
            (
                BbboConfig {
                    candidates: 0,
                    ..BbboConfig::default()
                },
                ConfigError::ZeroCandidates,
            ),
            (
                BbboConfig {
                    init_random: 0,
                    ..BbboConfig::default()
                },
                ConfigError::BadInitRandom {
                    init_random: 0,
                    num_hw: 100,
                },
            ),
            (
                BbboConfig {
                    num_hw: 4,
                    init_random: 5,
                    ..BbboConfig::default()
                },
                ConfigError::BadInitRandom {
                    init_random: 5,
                    num_hw: 4,
                },
            ),
        ];
        for (cfg, expected) in cases {
            assert_eq!(cfg.validate(), Err(expected));
        }
    }

    #[test]
    fn estimated_samples_track_the_configured_budgets() {
        let gd = Strategy::GradientDescent(GdConfig {
            start_points: 7,
            steps_per_start: 890,
            ..GdConfig::default()
        });
        assert_eq!(gd.estimated_samples(), 7 * 890);
        let random = Strategy::Random(RandomSearchConfig {
            num_hw: 10,
            samples_per_hw: 1000,
            seed: 0,
        });
        assert_eq!(random.estimated_samples(), 10 * 1000);
        let bayes = Strategy::BayesOpt(BbboConfig::default());
        assert_eq!(bayes.estimated_samples(), 100 * 100);
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        let a = stream_seed(0, 0);
        assert_eq!(a, stream_seed(0, 0), "stream seeds must be deterministic");
        let mut seen = std::collections::HashSet::new();
        for seed in 0..8u64 {
            for stream in 0..64u64 {
                seen.insert(stream_seed(seed, stream));
            }
        }
        assert_eq!(seen.len(), 8 * 64, "stream seeds should not collide");
    }
}
