//! Outside-in probes: host-speed calibration and the set-up timer, and
//! for the traced run a timing [`CacheStore`] wrapper around the
//! service's store and the process thread count.

use dosa_cache::{CacheKey, CacheStore, ShardedLru};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Call counts and busy nanoseconds of one store operation.
#[derive(Default)]
pub struct OpTimer {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl OpTimer {
    fn record(&self, since: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

/// A [`ShardedLru`] that times every `get` and `put`, handed to the
/// service through `ResultCache::with_store`.
pub struct TimingStore<V> {
    inner: ShardedLru<V>,
    pub get: OpTimer,
    pub put: OpTimer,
}

impl<V: Clone + Send> TimingStore<V> {
    pub fn new(capacity: usize) -> TimingStore<V> {
        TimingStore {
            inner: ShardedLru::new(capacity),
            get: OpTimer::default(),
            put: OpTimer::default(),
        }
    }
}

impl<V: Clone + Send + Sync> CacheStore<V> for TimingStore<V> {
    fn get(&self, key: &CacheKey) -> Option<V> {
        let t = Instant::now();
        let found = self.inner.get(key);
        self.get.record(t);
        found
    }

    fn put(&self, key: CacheKey, value: V) {
        let t = Instant::now();
        self.inner.put(key, value);
        self.put.record(t);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// One pass of the reference kernel: a fixed integer loop over the
/// cache-resident `buf`, rounds of small allocations like the tape's, and
/// a fresh 1 MiB buffer (past the allocator's mmap threshold, so its pages
/// are mapped, faulted in and unmapped, as large search buffers and thread
/// stacks are). Owned by the benchmark, so a change to the program cannot
/// move it.
fn reference_pass(buf: &mut [u64]) -> Duration {
    let start = Instant::now();
    let mut acc = 0u64;
    for round in 0..32 {
        for x in buf.iter_mut() {
            *x = x.wrapping_mul(6364136223846793005).wrapping_add(round);
            acc ^= *x >> 7;
        }
    }
    for round in 0..16 {
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|i| vec![i as f64; 8 + (i * 7 + round) % 64])
            .collect();
        acc ^= std::hint::black_box(&rows).len() as u64;
    }
    let mut pages = vec![0u8; 1 << 20];
    for i in (0..pages.len()).step_by(4096) {
        pages[i] = i as u8;
    }
    acc ^= u64::from(std::hint::black_box(&pages)[4096]);
    std::hint::black_box(acc);
    start.elapsed()
}

/// [`reference_pass`] time on an unloaded 2-core x86-64 VM: the speed
/// every end-to-end time is reported at.
const REFERENCE_PASS: Duration = Duration::from_micros(900);

/// Words the reference kernel loops over (128 KiB).
const REFERENCE_WORDS: u64 = 16_384;

/// Reference passes run on each side of a timed phase.
const BRACKET_PASSES: usize = 50;

/// Host-speed calibration. The shared 2-core VM this benchmark was tuned
/// on drifted in speed by tens of percent over tens of seconds. A probe
/// thread running beside the service's workers did not see the slowdown
/// the workers saw; reference passes on the driving thread did (over 10 s
/// windows of small-deck jobs run alone, their times correlated with the
/// jobs' at r = 0.9–0.95, and dividing by them cut the jobs' variation
/// from 8–14% to 3–4%). So the driving thread times passes around and
/// between the work it drives — bracketing a phase ([`Calibrator::mark`],
/// [`Calibrator::since`]) or around each job or burst
/// ([`Calibrator::recent`]) — and the work is reported at the reference
/// host's speed by the median pass.
pub struct Calibrator {
    buf: Vec<u64>,
    /// Pass times over [`REFERENCE_PASS`], in order.
    slowdowns: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            buf: (0..REFERENCE_WORDS).collect(),
            slowdowns: Vec::new(),
        }
    }

    /// Time one reference pass on this thread.
    pub fn pass(&mut self) {
        let t = reference_pass(&mut self.buf);
        self.slowdowns
            .push(t.as_secs_f64() / REFERENCE_PASS.as_secs_f64());
    }

    fn bracket(&mut self) {
        for _ in 0..BRACKET_PASSES {
            self.pass();
        }
    }

    /// Open a timed phase with bracket passes; returns where its passes
    /// start, for [`Calibrator::since`].
    pub fn mark(&mut self) -> usize {
        let mark = self.slowdowns.len();
        self.bracket();
        mark
    }

    /// Close the phase opened at `mark`: bracket passes, then how much
    /// slower than the reference host the phase ran (the median pass).
    pub fn since(&mut self, mark: usize) -> f64 {
        self.bracket();
        crate::stats::median(&self.slowdowns[mark..])
    }

    /// Passes timed so far.
    pub fn passes(&self) -> usize {
        self.slowdowns.len()
    }

    /// The median slowdown of the passes from `from` on, widened back to
    /// the last `at_least` passes when there are fewer.
    pub fn recent(&self, from: usize, at_least: usize) -> f64 {
        let start = from.min(self.slowdowns.len().saturating_sub(at_least));
        crate::stats::median(&self.slowdowns[start..])
    }
}

/// Set-up times at the reference host's speed: every set-up is followed
/// by one reference pass on the same thread, and `setup_s` is the median
/// set-up over the median pass. Set-ups are spread over the run
/// ([`SetupTimer::repeat`] between phases), so the median samples the host
/// across the run.
pub struct SetupTimer {
    times: Vec<f64>,
    cal: Calibrator,
}

impl SetupTimer {
    pub fn new() -> SetupTimer {
        SetupTimer {
            times: Vec::new(),
            cal: Calibrator::new(),
        }
    }

    /// Run and time one set-up, then one reference pass.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.times.push(t.elapsed().as_secs_f64());
        self.cal.pass();
        out
    }

    /// Time `n` set-ups whose results are dropped.
    pub fn repeat<T>(&mut self, n: usize, mut f: impl FnMut() -> T) {
        for _ in 0..n {
            self.time(&mut f);
        }
    }

    /// `(median set-up seconds at reference speed, raw median, slowdown)`.
    pub fn seconds(&self) -> (f64, f64, f64) {
        let raw = crate::stats::median(&self.times);
        let slowdown = crate::stats::median(&self.cal.slowdowns);
        (raw / slowdown, raw, slowdown)
    }
}

/// This process's live OS-thread count, from the `Threads:` row of
/// `/proc/self/status` (0 where that file does not exist).
pub fn threads_now() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|line| line.strip_prefix("Threads:"))
                .and_then(|n| n.trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosa_cache::Fingerprinter;

    #[test]
    fn timing_store_counts_and_forwards() {
        let store: TimingStore<u32> = TimingStore::new(8);
        let key = Fingerprinter::new("t").u64(1).finish();
        assert_eq!(store.get(&key), None);
        store.put(key.clone(), 7);
        assert_eq!(store.get(&key), Some(7));
        assert_eq!(
            (store.get.calls(), store.put.calls(), store.len()),
            (2, 1, 1)
        );
    }

    #[test]
    fn thread_probe_sees_a_spawned_thread() {
        if threads_now() == 0 {
            return; // no procfs
        }
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || rx.recv());
        // This test's thread plus the one just spawned, at least.
        assert!(threads_now() >= 2);
        tx.send(()).unwrap();
        t.join().unwrap().unwrap();
    }
}
