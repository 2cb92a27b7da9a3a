//! The service-level result cache: content-addressed replay of completed
//! work items and checkpoint/resume journaling.
//!
//! ## Why work items are cacheable at all
//!
//! Every work item the service fans out — a `(network, start point)`
//! gradient descent, a `(network, hardware design)` random-search
//! evaluation, a whole network's BB-BO run — is a **pure function** of
//! its inputs: the workload dimensions, the memory hierarchy, the
//! strategy configuration, the surrogate, the effective seed, and the
//! item's stream index. That purity is the determinism invariant the CI
//! parity gates already enforce (see `ARCHITECTURE.md`), which makes
//! results content-addressable: fingerprint the inputs, and the cached
//! result **is** the recomputed result, bit for bit.
//!
//! ## Key schema
//!
//! Keys are built with [`dosa_cache::Fingerprinter`] — an injective,
//! type-tagged, length-prefixed encoding with canonicalized floats
//! (`-0.0` → `0.0`, one NaN pattern) — under a versioned schema string
//! per item kind:
//!
//! | builder | schema | covers |
//! | --- | --- | --- |
//! | [`gd_item_key`] | `gd-item-v1` | hierarchy, layer shapes, surrogate id, every **result-affecting** `GdConfig` field, effective seed, start index |
//! | [`random_item_key`] | `random-item-v1` | hierarchy, layer shapes, `samples_per_hw`, effective seed, design index |
//! | [`bayes_network_key`] | `bayes-net-v1` | hierarchy, layer shapes, every `BbboConfig` field, effective seed |
//!
//! Layer *names* are deliberately excluded — two networks with identical
//! shapes share results. `GdConfig::start_points` and `rejection_factor`
//! are included even though a single descent never reads them: the §5.3.1
//! rejection rule's forced-acceptance bound depends on the total count,
//! so the start point at index `i` is only a pure function of the seed
//! *given* those fields. Conversely, a random-search design at index `i`
//! is independent of `num_hw`, so that field is excluded and a shorter
//! budget's items replay into a longer one's. `GdConfig::segment_steps`
//! is likewise **deliberately excluded**: segmentation moves descents
//! between worker dispatches but never changes a result bit (a tested
//! invariant), so a descent journaled under one segment length replays
//! under any other — including a cancelled segmented job resuming
//! unsegmented, and vice versa.
//!
//! Every field but the item index (`start`, `design`) is the same for all
//! of a network's items, and the index is written last. Planning
//! therefore fingerprints each network once into a key prefix, writes its
//! first item's key as the prefix plus the index into one buffer of the
//! key's size, and rewrites only the index bytes for each further item
//! ([`Fingerprinter::indexed_keys`]). The public builders are thin
//! wrappers over the same prefixes, so a key has the same bytes and hash
//! however it was built; `tests/cache_keys.rs` pins them.
//!
//! Not everything has a stable canonical identity: a learned
//! [`LatencyPredictor`](crate::LatencyPredictor) (its MLP weights live
//! only in memory) yields a `None` key, and its work items simply bypass
//! the cache.
//!
//! ## Replay and journaling
//!
//! [`ResultCache`] wraps any [`CacheStore`] (the in-memory
//! [`ShardedLru`] by default). The service plans a job from its keys:
//! it looks every item up *before* generating any item's search work, and
//! generates a network's start points or designs only when one of its
//! items misses. It journals each item's result the moment the item
//! completes (never on cancellation, so partial results are never
//! replayed), as an `Arc` the job's item slot shares. See
//! `ARCHITECTURE.md` ("Result cache & resume") for the lifecycle diagram
//! and the determinism argument.

use crate::bbbo::BbboConfig;
use crate::gd::SearchResult;
use crate::gd::{GdConfig, LoopOrderStrategy};
use crate::latency_model::LatencyModelKind;
use crate::random_search::RandomSearchConfig;
use crate::request::Surrogate;
use dosa_accel::Hierarchy;
use dosa_cache::{CacheKey, CacheStore, Fingerprinter, ShardedLru};
use dosa_workload::Layer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default entry capacity of [`ResultCache::in_memory`].
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Start a key under `schema` with one network's hierarchy and layer
/// shapes, the fields every builder shares. The buffer is sized for the
/// whole key up front: a layer's shape takes about 100 bytes, and the
/// hierarchy, config and item fields a few hundred.
fn network_fingerprint(schema: &str, hier: &Hierarchy, layers: &[Layer]) -> Fingerprinter {
    let fp = Fingerprinter::with_capacity(schema, 512 + 112 * layers.len());
    fingerprint_layers(fingerprint_hierarchy(fp, hier), layers)
}

/// Append one memory level per field: name, tensor placement, spatial
/// fanout dimension.
fn fingerprint_hierarchy(mut fp: Fingerprinter, hier: &Hierarchy) -> Fingerprinter {
    fp = fp.field("hierarchy");
    for level in hier.levels() {
        fp = fp.str(level.name);
        for &stores in &level.stores {
            fp = fp.bool(stores);
        }
        fp = fp.i64(level.spatial_dim.map_or(-1, |d| d as i64));
    }
    fp
}

/// Append every layer's *shape*: kind, the seven dimension sizes, the
/// strides, and the repeat count. Names are excluded on purpose — the
/// models never read them, so equally-shaped networks share cache lines.
fn fingerprint_layers(mut fp: Fingerprinter, layers: &[Layer]) -> Fingerprinter {
    fp = fp.field("layers").u64(layers.len() as u64);
    for layer in layers {
        let p = &layer.problem;
        fp = fp.str(p.kind().name());
        for size in p.sizes() {
            fp = fp.u64(size);
        }
        fp = fp.u64(p.stride_p()).u64(p.stride_q()).u64(layer.count);
    }
    fp
}

/// The surrogate's stable identity, or `None` if it has none (learned
/// predictor weights live only in memory, so their items must bypass the
/// cache rather than risk aliasing).
fn surrogate_id(surrogate: &Surrogate) -> Option<&'static str> {
    match surrogate {
        Surrogate::Edp => Some("edp"),
        Surrogate::PredictedLatency(p) if p.kind == LatencyModelKind::Analytical => {
            Some("latency-analytical")
        }
        Surrogate::PredictedLatency(_) => None,
    }
}

fn loop_order_name(strategy: LoopOrderStrategy) -> &'static str {
    match strategy {
        LoopOrderStrategy::Baseline => "baseline",
        LoopOrderStrategy::Iterate => "iterate",
        LoopOrderStrategy::Softmax => "softmax",
    }
}

/// Everything in one network's item keys but the item index: schema,
/// hierarchy, layer shapes, the strategy config and the effective seed.
/// Planning builds one per network and extends it into each item's key,
/// so a job fingerprints each network once.
pub(crate) struct KeyPrefix {
    fp: Fingerprinter,
    /// The field name the item index is written under.
    item: &'static str,
}

impl KeyPrefix {
    /// The key of the network's item `index`.
    pub(crate) fn item_key(&self, index: usize) -> CacheKey {
        self.fp
            .finish_extended(|fp| fp.field(self.item).u64(index as u64))
    }

    /// The keys of items `0..count` in order, each written over the last
    /// ([`Fingerprinter::indexed_keys`]).
    pub(crate) fn item_keys(&self, count: usize) -> impl Iterator<Item = CacheKey> {
        self.fp.indexed_keys(self.item, 0..count as u64)
    }
}

/// The key prefix of one network's gradient-descent items, or `None` when
/// the surrogate has no stable identity (see [`gd_item_key`]).
pub(crate) fn gd_key_prefix(
    hier: &Hierarchy,
    layers: &[Layer],
    surrogate: &Surrogate,
    cfg: &GdConfig,
) -> Option<KeyPrefix> {
    let surrogate = surrogate_id(surrogate)?;
    let fp = network_fingerprint("gd-item-v1", hier, layers)
        .field("surrogate")
        .str(surrogate)
        .field("gd-config")
        .u64(cfg.start_points as u64)
        .u64(cfg.steps_per_start as u64)
        .u64(cfg.round_every as u64)
        .f64(cfg.learning_rate)
        .str(loop_order_name(cfg.strategy))
        .i64(cfg.fixed_pe_side.map_or(-1, |s| s as i64))
        .f64(cfg.rejection_factor)
        .field("seed")
        .u64(cfg.seed);
    Some(KeyPrefix { fp, item: "start" })
}

/// Content-address of one `(network, start point)` gradient-descent work
/// item, or `None` when the surrogate has no stable identity. `cfg` must
/// be the **network-effective** config (its `seed` already resolved via
/// `SearchRequest::network_seed`).
///
/// Every result-affecting [`GdConfig`] field enters the key — including
/// `start_points`/`rejection_factor`, which shape the §5.3.1 start-point
/// sequence itself, but **not** `segment_steps`, which only re-buckets
/// the same gradient steps into worker dispatches and is bit-invisible
/// in results (see the module docs).
pub fn gd_item_key(
    hier: &Hierarchy,
    layers: &[Layer],
    surrogate: &Surrogate,
    cfg: &GdConfig,
    start_index: usize,
) -> Option<CacheKey> {
    Some(gd_key_prefix(hier, layers, surrogate, cfg)?.item_key(start_index))
}

/// The key prefix of one network's random-search items (see
/// [`random_item_key`]).
pub(crate) fn random_key_prefix(
    hier: &Hierarchy,
    layers: &[Layer],
    cfg: &RandomSearchConfig,
) -> KeyPrefix {
    let fp = network_fingerprint("random-item-v1", hier, layers)
        .field("samples-per-hw")
        .u64(cfg.samples_per_hw as u64)
        .field("seed")
        .u64(cfg.seed);
    KeyPrefix { fp, item: "design" }
}

/// Content-address of one `(network, hardware design)` random-search work
/// item. `num_hw` is deliberately excluded: design `i` is drawn by a
/// fixed number of RNG values, so it is a pure function of `(seed, i)`
/// regardless of the total budget — a shorter run's items replay into a
/// longer one's. `cfg` must be the network-effective config.
pub fn random_item_key(
    hier: &Hierarchy,
    layers: &[Layer],
    cfg: &RandomSearchConfig,
    design_index: usize,
) -> CacheKey {
    random_key_prefix(hier, layers, cfg).item_key(design_index)
}

/// Content-address of one network's whole BB-BO run. The outer Gaussian
/// process is sequential and every step conditions on all previous
/// observations, so the cacheable unit is the whole network, not a step,
/// and the network's prefix is the whole key. `cfg` must be the
/// network-effective config.
pub fn bayes_network_key(hier: &Hierarchy, layers: &[Layer], cfg: &BbboConfig) -> CacheKey {
    network_fingerprint("bayes-net-v1", hier, layers)
        .field("bbbo-config")
        .u64(cfg.num_hw as u64)
        .u64(cfg.init_random as u64)
        .u64(cfg.samples_per_hw as u64)
        .u64(cfg.candidates as u64)
        .field("seed")
        .u64(cfg.seed)
        .finish()
}

/// Observability counters of one [`ResultCache`] (service-wide, across
/// all jobs; per-job counters live on
/// [`JobHandle::stats`](crate::JobHandle::stats)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResultCacheStats {
    /// Work-item lookups served from the cache.
    pub hits: u64,
    /// Work-item lookups that missed and ran on the fleet.
    pub misses: u64,
    /// Completed work items journaled into the store.
    pub journaled: u64,
}

/// The search-facing result cache a
/// [`SearchService`](crate::SearchService) consults per work item (see
/// [`SearchServiceBuilder::cache`](crate::SearchServiceBuilder::cache)):
/// a content-addressed [`CacheStore`] of completed work-item results
/// plus lock-free hit/miss/journal counters.
///
/// One `ResultCache` may back any number of services; sharing one is how
/// a resubmitted (e.g. previously cancelled) job replays its completed
/// work items, and how repeated traffic for popular networks is served
/// for a hash lookup instead of a descent.
pub struct ResultCache {
    store: Arc<dyn CacheStore<Arc<SearchResult>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    journaled: AtomicU64,
}

impl ResultCache {
    /// A cache over an in-memory [`ShardedLru`] holding at most
    /// `capacity` work-item results
    /// ([`DEFAULT_CACHE_CAPACITY`] is a reasonable default).
    pub fn in_memory(capacity: usize) -> Arc<ResultCache> {
        ResultCache::with_store(Arc::new(ShardedLru::new(capacity)))
    }

    /// A cache over any [`CacheStore`] backend — the seam a persistent
    /// store slots into.
    pub fn with_store(store: Arc<dyn CacheStore<Arc<SearchResult>>>) -> Arc<ResultCache> {
        Arc::new(ResultCache {
            store,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            journaled: AtomicU64::new(0),
        })
    }

    /// Current hit/miss/journal counters (monotone, lock-free reads).
    pub fn stats(&self) -> ResultCacheStats {
        ResultCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            journaled: self.journaled.load(Ordering::Relaxed),
        }
    }

    /// Number of work-item results currently stored.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether no work-item results are stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Look one work item up, counting the hit or miss.
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<Arc<SearchResult>> {
        let found = self.store.get(key);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Journal one **completed** work item under its content address,
    /// sharing the result with the job's item slot. Callers must never
    /// journal a cancelled (partial) result — a replayed partial would
    /// break the bit-parity contract.
    pub(crate) fn journal(&self, key: CacheKey, result: Arc<SearchResult>) {
        self.store.put(key, result);
        self.journaled.fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ResultCache")
            .field("entries", &self.len())
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("journaled", &stats.journaled)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosa_workload::Problem;

    fn layers() -> Vec<Layer> {
        vec![
            Layer::repeated(Problem::conv("a", 3, 3, 28, 28, 64, 64, 1).unwrap(), 2),
            Layer::once(Problem::matmul("b", 64, 256, 256).unwrap()),
        ]
    }

    #[test]
    fn layer_names_do_not_enter_keys() {
        let hier = Hierarchy::gemmini();
        let renamed = vec![
            Layer::repeated(Problem::conv("z", 3, 3, 28, 28, 64, 64, 1).unwrap(), 2),
            Layer::once(Problem::matmul("y", 64, 256, 256).unwrap()),
        ];
        let cfg = RandomSearchConfig::default();
        assert_eq!(
            random_item_key(&hier, &layers(), &cfg, 0),
            random_item_key(&hier, &renamed, &cfg, 0)
        );
    }

    #[test]
    fn layer_shape_changes_do_enter_keys() {
        let hier = Hierarchy::gemmini();
        let wider = vec![
            Layer::repeated(Problem::conv("a", 3, 3, 28, 28, 64, 128, 1).unwrap(), 2),
            Layer::once(Problem::matmul("b", 64, 256, 256).unwrap()),
        ];
        let recount = vec![
            Layer::repeated(Problem::conv("a", 3, 3, 28, 28, 64, 64, 1).unwrap(), 3),
            Layer::once(Problem::matmul("b", 64, 256, 256).unwrap()),
        ];
        let cfg = RandomSearchConfig::default();
        let key = |layers: &[Layer]| random_item_key(&hier, layers, &cfg, 0);
        let base = key(&layers());
        assert_ne!(base, key(&wider));
        assert_ne!(base, key(&recount));
    }

    #[test]
    fn uncacheable_surrogates_yield_no_key() {
        let hier = Hierarchy::gemmini();
        let cfg = GdConfig::default();
        assert!(gd_item_key(&hier, &layers(), &Surrogate::Edp, &cfg, 0).is_some());
        let analytical = Surrogate::PredictedLatency(crate::LatencyPredictor::analytical());
        assert!(gd_item_key(&hier, &layers(), &analytical, &cfg, 0).is_some());
    }

    #[test]
    fn item_keys_equal_extended_prefix_clones() {
        let hier = Hierarchy::gemmini();
        let prefixes = [
            gd_key_prefix(&hier, &layers(), &Surrogate::Edp, &GdConfig::default()).unwrap(),
            random_key_prefix(&hier, &layers(), &RandomSearchConfig::default()),
        ];
        for prefix in &prefixes {
            let cloned = |i: u64| prefix.fp.clone().field(prefix.item).u64(i).finish();
            for i in [0, 1, 255, 256, usize::MAX] {
                let key = prefix.item_key(i);
                let old = cloned(i as u64);
                assert_eq!(key.as_bytes(), old.as_bytes());
                assert_eq!(key, old);
                assert_eq!(key.cmp(&old), std::cmp::Ordering::Equal);
                assert_eq!(key.cmp(&cloned(7)), old.cmp(&cloned(7)));
            }
            for (i, key) in prefix.item_keys(300).enumerate() {
                assert_eq!(key, prefix.item_key(i));
            }
        }
    }

    #[test]
    fn random_keys_ignore_num_hw_but_nothing_else() {
        let hier = Hierarchy::gemmini();
        let cfg = RandomSearchConfig {
            num_hw: 10,
            samples_per_hw: 100,
            seed: 7,
        };
        let other_budget = RandomSearchConfig { num_hw: 3, ..cfg };
        assert_eq!(
            random_item_key(&hier, &layers(), &cfg, 2),
            random_item_key(&hier, &layers(), &other_budget, 2)
        );
        let other_seed = RandomSearchConfig { seed: 8, ..cfg };
        assert_ne!(
            random_item_key(&hier, &layers(), &cfg, 2),
            random_item_key(&hier, &layers(), &other_seed, 2)
        );
        assert_ne!(
            random_item_key(&hier, &layers(), &cfg, 2),
            random_item_key(&hier, &layers(), &cfg, 3)
        );
    }
}
