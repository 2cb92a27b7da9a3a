//! Integration tests of the content-addressed result cache: enabling the
//! cache must never change a result bit, a repeated identical batch must
//! replay entirely from the cache, a batch whose cache kept only some
//! items must replay those and re-run the rest bit-identically, a
//! cancelled job resubmitted identically must re-run only its remainder,
//! and request-level fingerprints must be injective field by field.

use dosa_accel::Hierarchy;
use dosa_cache::{CacheKey, CacheStore, ShardedLru};
use dosa_search::cache::{gd_item_key, random_item_key};
use dosa_search::{
    dosa_search, GdConfig, JobStats, RandomSearchConfig, ResultCache, SearchRequest, SearchResult,
    SearchService, Strategy, Surrogate,
};
use dosa_workload::{Layer, Problem};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn matmul_net() -> Vec<Layer> {
    vec![Layer::once(Problem::matmul("gemm", 64, 256, 256).unwrap())]
}

fn conv_net() -> Vec<Layer> {
    vec![
        Layer::once(Problem::conv("c", 3, 3, 14, 14, 32, 32, 1).unwrap()),
        Layer::once(Problem::matmul("fc", 32, 64, 64).unwrap()),
    ]
}

fn tiny_cfg(seed: u64) -> GdConfig {
    GdConfig {
        start_points: 2,
        steps_per_start: 40,
        round_every: 20,
        seed,
        ..GdConfig::default()
    }
}

fn batched_request(seed: u64) -> SearchRequest {
    SearchRequest::builder(Hierarchy::gemmini())
        .network("gemm", matmul_net())
        .network_seeded("conv", conv_net(), seed + 1)
        .config(tiny_cfg(seed))
        .build()
}

/// Bit-level equality of two search results (the same check the repro
/// driver's parity gates apply).
fn assert_bit_identical(a: &SearchResult, b: &SearchResult, what: &str) {
    assert_eq!(
        a.best_edp.to_bits(),
        b.best_edp.to_bits(),
        "{what}: best_edp differs"
    );
    assert_eq!(a.best_hw, b.best_hw, "{what}: best_hw differs");
    assert_eq!(a.samples, b.samples, "{what}: samples differ");
    assert_eq!(a.history, b.history, "{what}: history differs");
}

#[test]
fn cache_on_equals_cache_off_and_repeat_hits_fully() {
    let request = batched_request(11);

    // Cold reference: no cache anywhere.
    let plain = SearchService::builder().threads(2).build();
    let reference = plain.submit(request.clone()).unwrap().wait().unwrap();

    let cache = ResultCache::in_memory(256);
    let service = SearchService::builder()
        .threads(2)
        .cache(Arc::clone(&cache))
        .build();

    // First cached run: all misses, results bit-identical to no-cache.
    let first = service.submit(request.clone()).unwrap();
    let first_results = first.wait().unwrap();
    let stats = first.stats();
    assert_eq!(stats.work_items, 4, "2 networks x 2 start points");
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, stats.work_items);
    for net in ["gemm", "conv"] {
        assert_bit_identical(
            first_results.get(net).unwrap(),
            reference.get(net).unwrap(),
            &format!("{net}: cache-on vs cache-off"),
        );
    }

    // Identical resubmission: 100% work-item hits, bit-identical batch.
    let second = service.submit(request).unwrap();
    let second_results = second.wait().unwrap();
    let stats = second.stats();
    assert_eq!(stats.cache_hits, stats.work_items, "expected a full replay");
    assert_eq!(stats.cache_misses, 0);
    for net in ["gemm", "conv"] {
        assert_bit_identical(
            second_results.get(net).unwrap(),
            reference.get(net).unwrap(),
            &format!("{net}: replayed vs cold"),
        );
    }
    assert!(cache.stats().hits >= 4);
    assert_eq!(cache.stats().journaled, 4);
}

/// A store that keeps only the puts of the keys in `keep`, so a
/// resubmitted job hits exactly those items and runs the rest. It logs
/// every put, kept or not, so a test can compare item by item.
struct KeepOnly {
    inner: ShardedLru<Arc<SearchResult>>,
    keep: Vec<CacheKey>,
    puts: Mutex<Vec<(CacheKey, Arc<SearchResult>)>>,
}

impl KeepOnly {
    fn puts(&self) -> MutexGuard<'_, Vec<(CacheKey, Arc<SearchResult>)>> {
        // dosa-lint: allow(raw-mutex-lock) — test-local log: poison is
        // recovered inline via into_inner, the same recovery fault::lock provides.
        self.puts.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn take_puts(&self) -> Vec<(CacheKey, Arc<SearchResult>)> {
        std::mem::take(&mut self.puts())
    }
}

impl CacheStore<Arc<SearchResult>> for KeepOnly {
    fn get(&self, key: &CacheKey) -> Option<Arc<SearchResult>> {
        self.inner.get(key)
    }

    fn put(&self, key: CacheKey, value: Arc<SearchResult>) {
        self.puts().push((key.clone(), value.clone()));
        if self.keep.contains(&key) {
            self.inner.put(key, value);
        }
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Partial hits: a resubmitted job whose cache kept only some of its
/// items replays those and runs the rest, bit-identical to a cache-off
/// run. The GD case keeps the odd-position starts of each network, so the
/// misses are not a prefix: each must still descend from its own start
/// point. The Random case keeps every other design. The merged result can
/// hide a rerun item that went wrong but did not beat the best, so each
/// rerun item is also checked against its own cold result.
#[test]
fn partial_hits_replay_kept_items_and_rerun_the_rest_bit_identically() {
    let hier = Hierarchy::gemmini();
    let gd_cfg = GdConfig {
        start_points: 4,
        ..tiny_cfg(17)
    };
    let gd = SearchRequest::builder(hier.clone())
        .network("gemm", matmul_net())
        .network_seeded("conv", conv_net(), 18)
        .config(gd_cfg)
        .build();
    let gd_keep: Vec<CacheKey> = [(matmul_net(), 17), (conv_net(), 18)]
        .iter()
        .flat_map(|(layers, seed)| {
            let cfg = GdConfig {
                seed: *seed,
                ..gd_cfg
            };
            [1, 3].map(|start| gd_item_key(&hier, layers, &Surrogate::Edp, &cfg, start).unwrap())
        })
        .collect();
    let random_cfg = RandomSearchConfig {
        num_hw: 5,
        samples_per_hw: 40,
        seed: 23,
    };
    let random = SearchRequest::builder(hier.clone())
        .network("conv", conv_net())
        .strategy(Strategy::Random(random_cfg))
        .build();
    let random_keep: Vec<CacheKey> = [0, 2, 4]
        .map(|design| random_item_key(&hier, &conv_net(), &random_cfg, design))
        .to_vec();

    for (what, request, keep) in [("gd", gd, gd_keep), ("random", random, random_keep)] {
        let plain = SearchService::builder().threads(2).build();
        let reference = plain.submit(request.clone()).unwrap().wait().unwrap();
        let kept = keep.len();
        let store = Arc::new(KeepOnly {
            inner: ShardedLru::new(64),
            keep,
            puts: Mutex::new(Vec::new()),
        });
        let service = SearchService::builder()
            .threads(2)
            .cache(ResultCache::with_store(store.clone()))
            .build();
        service.submit(request.clone()).unwrap().wait().unwrap();
        assert_eq!(
            store.len(),
            kept,
            "{what}: the cold run journals the kept items"
        );
        let cold = store.take_puts();

        let rerun = service.submit(request).unwrap();
        let results = rerun.wait().unwrap();
        let stats = rerun.stats();
        assert_eq!(stats.cache_hits, kept, "{what}: one hit per kept item");
        assert_eq!(stats.cache_hits + stats.cache_misses, stats.work_items);
        for (got, want) in results.networks.iter().zip(&reference.networks) {
            let net = format!("{what}/{}: partial hit vs cache-off", want.network);
            assert_bit_identical(&got.result, &want.result, &net);
            assert_eq!(got.result.best_mappings, want.result.best_mappings, "{net}");
        }
        let rerun_puts = store.take_puts();
        assert_eq!(rerun_puts.len(), stats.cache_misses);
        for (key, result) in rerun_puts {
            let (_, first) = cold.iter().find(|(k, _)| *k == key).unwrap();
            let item = format!("{what}: rerun item {key:?} vs its cold result");
            assert_bit_identical(&result, first, &item);
            assert_eq!(result.best_mappings, first.best_mappings, "{item}");
        }
    }
}

#[test]
fn jobs_without_a_cache_report_zeroed_cache_stats() {
    let service = SearchService::builder().threads(2).build();
    let job = service.submit(batched_request(3)).unwrap();
    job.wait().unwrap();
    let stats = job.stats();
    // The cache counters stay zero; the scheduler counters do not (every
    // planned item runs on the pool, and `max_queue_wait` depends on the
    // dispatch interleaving, so it is only bounded, not fixed).
    assert_eq!(
        JobStats {
            max_queue_wait: 0,
            gd_steps_recorded: 0,
            ..stats
        },
        JobStats {
            work_items: 4,
            segments_run: 4,
            ..JobStats::default()
        }
    );
    assert!(
        stats.max_queue_wait <= 4,
        "4 items + a plan dispatch bound the wait, got {}",
        stats.max_queue_wait
    );
}

/// `gd_steps_recorded` counts the gradient steps that recorded their
/// loss instead of replaying a cached recording. It is the same under any
/// worker count, with or without segmentation, and zero when every work
/// item replays from the result cache.
#[test]
fn recorded_step_counts_are_deterministic_and_zero_on_a_full_hit() {
    let recorded = |request: &SearchRequest, threads: usize| {
        let service = SearchService::builder().threads(threads).build();
        let job = service.submit(request.clone()).unwrap();
        job.wait().unwrap();
        job.stats().gd_steps_recorded
    };
    let whole = batched_request(5);
    let mut cfg = tiny_cfg(5);
    cfg.segment_steps = Some(7);
    let segmented = SearchRequest::builder(Hierarchy::gemmini())
        .network("gemm", matmul_net())
        .network_seeded("conv", conv_net(), 6)
        .config(cfg)
        .build();
    // 4 starts x 40 steps, each start rounding at steps 20 and 40: the
    // first step and the step after each rounding find an empty cache.
    for request in [&whole, &segmented] {
        let one = recorded(request, 1);
        assert_eq!(one, recorded(request, 2), "worker count changed the count");
        assert!((8..160).contains(&one), "recorded {one} of 160 steps");
    }

    let cache = ResultCache::in_memory(64);
    let service = SearchService::builder()
        .threads(2)
        .cache(Arc::clone(&cache))
        .build();
    let cold = service.submit(whole.clone()).unwrap();
    cold.wait().unwrap();
    assert_eq!(cold.stats().gd_steps_recorded, recorded(&whole, 1));
    let replay = service.submit(whole).unwrap();
    replay.wait().unwrap();
    assert_eq!(replay.stats().cache_hits, replay.stats().work_items);
    assert_eq!(replay.stats().gd_steps_recorded, 0);
}

#[test]
fn resume_after_cancel_reruns_only_the_remainder() {
    // Work items chunky enough that cancellation lands mid-job: random
    // search designs on one worker thread.
    let request = SearchRequest::builder(Hierarchy::gemmini())
        .network("conv", conv_net())
        .strategy(Strategy::Random(RandomSearchConfig {
            num_hw: 6,
            samples_per_hw: 2500,
            seed: 5,
        }))
        .build();

    // Uninterrupted reference, no cache.
    let plain = SearchService::builder().threads(1).build();
    let reference = plain
        .submit(request.clone())
        .unwrap()
        .wait()
        .unwrap()
        .into_single();

    let cache = ResultCache::in_memory(256);
    let service = SearchService::builder()
        .threads(1)
        .cache(Arc::clone(&cache))
        .build();

    // Run until at least one work item has been journaled, then cancel.
    let interrupted = service.submit(request.clone()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while cache.stats().journaled == 0 {
        assert!(
            Instant::now() < deadline,
            "no work item completed within 60s"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    interrupted.cancel();
    interrupted.wait().unwrap();

    // Identical resubmission: completed items replay, only the remainder
    // re-runs, and the final result is bit-identical to the
    // uninterrupted reference.
    let resumed = service.submit(request).unwrap();
    let resumed_result = resumed.wait().unwrap().into_single();
    let stats = resumed.stats();
    assert_eq!(stats.work_items, 6);
    assert!(stats.cache_hits >= 1, "resume must replay completed items");
    assert!(
        stats.cache_misses < stats.work_items,
        "resume must not re-run everything (hits {}, misses {})",
        stats.cache_hits,
        stats.cache_misses
    );
    assert_bit_identical(&resumed_result, &reference, "resumed vs uninterrupted");
}

/// Segment-resume parity: a GD start split into bounded segments of any
/// length `k ∈ {1, 7, 64}` produces bitwise-identical history and
/// best-EDP to the unsegmented (`k = ∞`) run. Segmentation only
/// re-buckets the same gradient steps into worker dispatches — the
/// per-segment tape/scratch buffers are pure caches and the checkpoint
/// carries the full descent state (Adam moments included, no live RNG),
/// so no segment schedule can move a result bit.
#[test]
fn gd_segment_length_never_changes_a_result_bit() {
    let hier = Hierarchy::gemmini();
    let base = tiny_cfg(31);
    assert_eq!(
        base.segment_steps, None,
        "the reference must be unsegmented"
    );
    let service = SearchService::builder().threads(2).build();
    let reference = dosa_search(&service, &matmul_net(), &hier, &base);
    for k in [1usize, 7, 64] {
        let job = service
            .submit(
                SearchRequest::builder(hier.clone())
                    .network("gemm", matmul_net())
                    .config(GdConfig {
                        segment_steps: Some(k),
                        ..base
                    })
                    .build(),
            )
            .unwrap();
        let result = job.wait().unwrap().into_single();
        assert_eq!(
            job.stats().segments_run,
            2 * 40usize.div_ceil(k),
            "2 starts x ceil(40 / {k}) segments"
        );
        assert_bit_identical(&result, &reference, &format!("k = {k} vs unsegmented"));
    }
}

/// Segmented checkpoint/resume through the cache: a segmented GD job
/// cancelled mid-run and resubmitted identically replays its journaled
/// descents and re-runs only the remainder, landing bit-identical to the
/// unsegmented uninterrupted reference. And because `segment_steps` is
/// deliberately excluded from the item fingerprint (it is bit-invisible
/// in results), a descent journaled under one segment length replays
/// under any other — including the unsegmented path.
#[test]
fn segmented_cancel_plus_cached_resubmit_is_bit_identical() {
    let hier = Hierarchy::gemmini();
    let cfg = GdConfig {
        start_points: 3,
        steps_per_start: 2_000,
        round_every: 500,
        seed: 41,
        segment_steps: Some(25),
        ..GdConfig::default()
    };
    let request = SearchRequest::builder(hier.clone())
        .network("gemm", matmul_net())
        .config(cfg)
        .build();

    // Unsegmented, uninterrupted, cache-free reference.
    let reference = dosa_search(
        &SearchService::builder().build(),
        &matmul_net(),
        &hier,
        &GdConfig {
            segment_steps: None,
            ..cfg
        },
    );

    let cache = ResultCache::in_memory(256);
    let service = SearchService::builder()
        .threads(1)
        .cache(Arc::clone(&cache))
        .build();

    // The three segmented descents round-robin on the single worker, so
    // the first journal entry lands late in the run; cancelling then
    // almost always interrupts the remaining descents between segments.
    let interrupted = service.submit(request.clone()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while cache.stats().journaled == 0 {
        assert!(Instant::now() < deadline, "no descent completed within 60s");
        std::thread::sleep(Duration::from_millis(1));
    }
    interrupted.cancel();
    interrupted.wait().unwrap();

    // Identical resubmission: journaled descents replay; the remainder
    // re-runs from step 1 (checkpoints live only on the in-memory queue,
    // they are never journaled) and merges bit-identical to the
    // reference.
    let resumed = service.submit(request).unwrap();
    let resumed_result = resumed.wait().unwrap().into_single();
    let stats = resumed.stats();
    assert_eq!(stats.work_items, 3);
    assert!(
        stats.cache_hits >= 1,
        "resume must replay the journaled descent"
    );
    assert!(
        stats.cache_misses < stats.work_items,
        "resume must not re-run everything (hits {}, misses {})",
        stats.cache_hits,
        stats.cache_misses
    );
    assert_bit_identical(
        &resumed_result,
        &reference,
        "segmented resume vs unsegmented reference",
    );

    // Cross-segment-length replay: the journal written under k = 25
    // fully serves the same request under k = 64 and k = ∞.
    for k in [Some(64), None] {
        let replay = service
            .submit(
                SearchRequest::builder(hier.clone())
                    .network("gemm", matmul_net())
                    .config(GdConfig {
                        segment_steps: k,
                        ..cfg
                    })
                    .build(),
            )
            .unwrap();
        let replay_result = replay.wait().unwrap().into_single();
        let stats = replay.stats();
        assert_eq!(
            stats.cache_hits, 3,
            "segment_steps must be invisible to the item fingerprint (k = {k:?})"
        );
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(
            stats.segments_run, 0,
            "a full replay dispatches no descent segments"
        );
        assert_bit_identical(&replay_result, &reference, "cross-segment-length replay");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Request-level fingerprints: perturbing any single field of a GD
    /// work item's identity produces a different key.
    #[test]
    fn gd_item_keys_are_injective_per_field(
        seed in 0u64..u64::MAX - 1,
        start_index in 0usize..64,
        lr in 1e-4f64..1.0,
        steps in 1usize..2000,
    ) {
        let hier = Hierarchy::gemmini();
        let layers = conv_net();
        let cfg = GdConfig { learning_rate: lr, steps_per_start: steps, seed, ..GdConfig::default() };
        let base = gd_item_key(&hier, &layers, &Surrogate::Edp, &cfg, start_index).unwrap();

        let other_seed = GdConfig { seed: seed + 1, ..cfg };
        prop_assert!(base != gd_item_key(&hier, &layers, &Surrogate::Edp, &other_seed, start_index).unwrap());

        let other_steps = GdConfig { steps_per_start: steps + 1, ..cfg };
        prop_assert!(base != gd_item_key(&hier, &layers, &Surrogate::Edp, &other_steps, start_index).unwrap());

        let other_lr = GdConfig { learning_rate: f64::from_bits(lr.to_bits() + 1), ..cfg };
        prop_assert!(base != gd_item_key(&hier, &layers, &Surrogate::Edp, &other_lr, start_index).unwrap());

        prop_assert!(base != gd_item_key(&hier, &layers, &Surrogate::Edp, &cfg, start_index + 1).unwrap());

        let other_net = matmul_net();
        prop_assert!(base != gd_item_key(&hier, &other_net, &Surrogate::Edp, &cfg, start_index).unwrap());
    }

    /// `-0.0` and `0.0` learning rates canonicalize to one key (the only
    /// f64 pair IEEE `==` conflates).
    #[test]
    fn float_zero_canonicalization_and_shape_keys(seed in 0u64..u64::MAX) {
        let hier = Hierarchy::gemmini();
        let layers = matmul_net();
        let pos = GdConfig { learning_rate: 0.0, seed, ..GdConfig::default() };
        let neg = GdConfig { learning_rate: -0.0, seed, ..GdConfig::default() };
        prop_assert_eq!(
            gd_item_key(&hier, &layers, &Surrogate::Edp, &pos, 0).unwrap(),
            gd_item_key(&hier, &layers, &Surrogate::Edp, &neg, 0).unwrap()
        );
    }
}
