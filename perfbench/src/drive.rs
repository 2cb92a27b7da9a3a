//! Driving the service through its request API: closed-loop
//! one-at-a-time runs, observed bursts and burst replays, with the
//! service-level observations the traced run reports and the host-speed
//! calibration of every timed phase.

use crate::probe::{threads_now, Calibrator, TimingStore};
use dosa_search::{
    BatchResult, JobHandle, JobStats, ResultCache, SearchRequest, SearchResult, SearchService,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll interval for completions in an observed burst: the resolution of
/// a measured latency.
const POLL: Duration = Duration::from_micros(500);

/// Poll interval for a closed-loop job's result.
const CLOSED_POLL: Duration = Duration::from_micros(100);

/// Longest a closed-loop job runs between calibration passes.
const CALIBRATION_PERIOD: Duration = Duration::from_millis(10);

/// Fewest calibration passes a closed-loop job's slowdown is taken over.
const JOB_PASSES: usize = 8;

/// Spin every core for a moment before anything is timed: a freshly
/// started process on an idle host runs its first second or so markedly
/// slower (clock ramp-up), which would otherwise land in the first
/// measurement of every run.
pub fn warm_up() {
    const SPIN: Duration = Duration::from_millis(1000);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        for _ in 0..cores {
            s.spawn(|| {
                let start = Instant::now();
                let mut x = 1u64;
                while start.elapsed() < SPIN {
                    for _ in 0..1000 {
                        x = std::hint::black_box(
                            x.wrapping_mul(6364136223846793005).wrapping_add(1),
                        );
                    }
                }
            });
        }
    });
}

/// One submitted job, observed from outside.
pub struct Outcome {
    /// When the job was due to be submitted.
    pub due: Instant,
    /// When its result was observed.
    pub finished: Instant,
    pub result: Result<BatchResult, String>,
    pub stats: JobStats,
}

impl Outcome {
    /// Latency from the due time; a rejected or failed job has none.
    pub fn latency(&self) -> Option<Duration> {
        self.result.as_ref().ok().map(|_| self.finished - self.due)
    }
}

/// Service-level observations accumulated over a whole run.
pub struct Observer {
    /// A traced run: time the cache store and sample the thread count.
    traced: bool,
    pub threads_peak: usize,
    pub submit_calls: u64,
    pub submit_time: Duration,
    /// Latest any submission ran behind its due time.
    pub max_lag: Duration,
    stores: Vec<Arc<TimingStore<Arc<SearchResult>>>>,
    caches: Vec<Arc<ResultCache>>,
    cal: Calibrator,
}

impl Observer {
    pub fn new(traced: bool) -> Observer {
        Observer {
            traced,
            threads_peak: 0,
            submit_calls: 0,
            submit_time: Duration::ZERO,
            max_lag: Duration::ZERO,
            stores: Vec::new(),
            caches: Vec::new(),
            cal: Calibrator::new(),
        }
    }

    /// Open a timed phase (see [`Calibrator`]); pass the result to
    /// [`Observer::slowdown_since`] when it ends.
    pub fn mark(&mut self) -> usize {
        self.cal.mark()
    }

    /// How much slower than the reference host the phase opened at `mark`
    /// ran; its times are divided by this.
    pub fn slowdown_since(&mut self, mark: usize) -> f64 {
        self.cal.since(mark)
    }

    fn probe(&mut self) {
        if self.traced {
            self.threads_peak = self.threads_peak.max(threads_now());
        }
    }

    fn submit(
        &mut self,
        service: &SearchService,
        request: SearchRequest,
        due: Instant,
    ) -> Result<JobHandle, String> {
        let t = Instant::now();
        let handle = service.submit(request);
        self.submit_time += t.elapsed();
        self.submit_calls += 1;
        self.max_lag = self.max_lag.max(t.saturating_duration_since(due));
        handle.map_err(|e| format!("rejected: {e}"))
    }

    /// A result cache holding `capacity` items; traced runs time its
    /// store through a [`TimingStore`].
    pub fn cache(&mut self, capacity: usize) -> Arc<ResultCache> {
        let cache = if self.traced {
            let store = Arc::new(TimingStore::new(capacity));
            self.stores.push(Arc::clone(&store));
            ResultCache::with_store(store)
        } else {
            ResultCache::in_memory(capacity)
        };
        self.caches.push(Arc::clone(&cache));
        cache
    }

    /// A service with `threads` workers and an optional cache.
    pub fn service(&mut self, threads: usize, cache: Option<Arc<ResultCache>>) -> SearchService {
        let mut b = SearchService::builder().threads(threads);
        if let Some(c) = cache {
            b = b.cache(c);
        }
        let service = b.build();
        self.probe();
        service
    }

    /// `(get calls, get time, put calls, put time)` over every timed store.
    pub fn store_times(&self) -> (u64, Duration, u64, Duration) {
        let mut out = (0, Duration::ZERO, 0, Duration::ZERO);
        for s in &self.stores {
            out.0 += s.get.calls();
            out.1 += Duration::from_nanos(s.get.nanos());
            out.2 += s.put.calls();
            out.3 += Duration::from_nanos(s.put.nanos());
        }
        out
    }

    /// `(hits, misses, journaled)` over every cache of the run.
    pub fn cache_counts(&self) -> (u64, u64, u64) {
        self.caches.iter().fold((0, 0, 0), |acc, c| {
            let s = c.stats();
            (acc.0 + s.hits, acc.1 + s.misses, acc.2 + s.journaled)
        })
    }
}

fn observe(handle: &JobHandle, due: Instant) -> Outcome {
    let result = handle.wait().map_err(|e| format!("failed: {e}"));
    Outcome {
        due,
        finished: Instant::now(),
        result,
        stats: handle.stats(),
    }
}

fn rejected(due: Instant, err: String) -> Outcome {
    Outcome {
        due,
        finished: Instant::now(),
        result: Err(err),
        stats: JobStats::default(),
    }
}

/// Submit every request at once (a burst, closed over the whole batch),
/// then poll for completions, timing each job from the burst's start.
pub fn burst_observed(
    service: &SearchService,
    requests: Vec<SearchRequest>,
    obs: &mut Observer,
) -> (Instant, Vec<Outcome>) {
    let n = requests.len();
    let mut done: Vec<Option<Outcome>> = (0..n).map(|_| None).collect();
    let mut live: Vec<(usize, JobHandle)> = Vec::new();
    let start = Instant::now();
    for (i, request) in requests.into_iter().enumerate() {
        match obs.submit(service, request, start) {
            Ok(handle) => live.push((i, handle)),
            Err(e) => done[i] = Some(rejected(start, e)),
        }
    }
    while !live.is_empty() {
        obs.probe();
        live.retain(|(i, handle)| {
            if !handle.status().is_terminal() {
                return true;
            }
            done[*i] = Some(observe(handle, start));
            false
        });
        std::thread::sleep(POLL);
    }
    let outcomes = done
        .into_iter()
        .map(|o| o.expect("every job resolved"))
        .collect();
    (start, outcomes)
}

/// One client, one job at a time: submit, wait, submit the next (a
/// closed loop; each job is due when the previous one returned). The
/// client polls for the result and times a calibration pass (see
/// [`Calibrator`]) every [`CALIBRATION_PERIOD`] of a running job and once
/// after every job. Returns the outcomes and, per job, the host slowdown
/// while it ran: the median of the passes since its submission, or of
/// the last [`JOB_PASSES`] when there were fewer. (Passes back to back
/// slowed the millisecond jobs of the deck; one slowdown per phase missed
/// the drift within the seconds-long Fig. 7 jobs.)
pub fn one_at_a_time(
    service: &SearchService,
    requests: Vec<SearchRequest>,
    obs: &mut Observer,
) -> (Vec<Outcome>, Vec<f64>) {
    for _ in 0..JOB_PASSES {
        obs.cal.pass();
    }
    requests
        .into_iter()
        .map(|request| {
            let first_pass = obs.cal.passes();
            let due = Instant::now();
            let outcome = match obs.submit(service, request, due) {
                Ok(handle) => {
                    obs.probe();
                    let mut last_pass = Instant::now();
                    while !handle.status().is_terminal() {
                        if last_pass.elapsed() >= CALIBRATION_PERIOD {
                            obs.cal.pass();
                            last_pass = Instant::now();
                        } else {
                            std::thread::sleep(CLOSED_POLL);
                        }
                    }
                    observe(&handle, due)
                }
                Err(e) => rejected(due, e),
            };
            obs.probe();
            obs.cal.pass();
            (outcome, obs.cal.recent(first_pass, JOB_PASSES))
        })
        .unzip()
}

/// Submit every request at once and wait for all of them, returning the
/// wall time of the whole burst (no per-job timing, so nothing but the
/// service runs between submit and the last result). Completion is polled
/// every [`BURST_POLL`] rather than blocked on job by job: on a VM, waking
/// a blocked thread for every job added a host-dependent latency per job
/// that swamped millisecond-scale replays. One calibration pass follows
/// the burst; the host slowdown returned with it is the median of the
/// last [`JOB_PASSES`] passes, which tracks the host's drift from burst
/// to burst.
pub fn burst(
    service: &SearchService,
    requests: Vec<SearchRequest>,
    obs: &mut Observer,
) -> (Duration, Vec<Outcome>, f64) {
    const BURST_POLL: Duration = Duration::from_micros(100);
    let start = Instant::now();
    let handles: Vec<Result<JobHandle, String>> = requests
        .into_iter()
        .map(|r| obs.submit(service, r, start))
        .collect();
    while !handles
        .iter()
        .all(|h| h.as_ref().map_or(true, |h| h.status().is_terminal()))
    {
        std::thread::sleep(BURST_POLL);
    }
    let wall = start.elapsed();
    let outcomes: Vec<Outcome> = handles
        .iter()
        .map(|h| match h {
            Ok(handle) => observe(handle, start),
            Err(e) => rejected(start, e.clone()),
        })
        .collect();
    obs.probe();
    obs.cal.pass();
    let slowdown = obs.cal.recent(obs.cal.passes(), JOB_PASSES);
    (wall, outcomes, slowdown)
}
