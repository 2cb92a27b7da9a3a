//! Failure domains of the [`SearchService`](crate::SearchService): the
//! typed [`JobError`] a failed job reports, the [`DeadlinePolicy`]
//! deciding what happens when a job's deadline expires, the per-job stop
//! word that cancellation and deadlines share, the deterministic
//! [`FaultPlan`] injection harness the robustness tests drive the
//! service with, and the poison-recovering lock helpers that keep one
//! panicking worker from wedging every other job.
//!
//! ## Failure domains
//!
//! One work item is one failure domain. A panic (or a non-finite loss)
//! inside an item is caught at the item boundary, fails **only that
//! item's job** with a typed [`JobError`], and the persistent worker
//! that ran the item survives to pull the next one — sibling jobs on
//! the same service keep their bit-identical results. Should a defect
//! ever escape an item's unwind boundary and kill a worker thread, the
//! dying worker respawns a replacement on its way down, so the pool
//! never silently loses capacity. Service-wide state (the ready queue,
//! the per-job execution ledgers) is never left poisoned: the handful
//! of mutexes guarding it are locked through this
//! module's `lock`/`wait` helpers, which recover a poisoned guard instead
//! of propagating the panic. That recovery is sound because every panic
//! that could occur while those locks are held is contained *before* it
//! reaches them: work items (including
//! job planning and the final merge) run inside per-dispatch
//! `catch_unwind` boundaries on the workers — the critical sections
//! themselves only move plain values and never unwind mid-update.
//!
//! A user cancel, a [`DeadlinePolicy::Kill`] expiry and a
//! [`DeadlinePolicy::Degrade`] expiry all land in one per-job `StopWord`;
//! no thread watches the clock (see the service docs for where the
//! deadline is checked). `Deadline` holds the service's only clock read.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Why a job ended in [`JobStatus::Failed`](crate::JobStatus::Failed).
///
/// Retrieved from [`JobHandle::error`](crate::JobHandle::error) (the
/// typed companion of [`status()`](crate::JobHandle::status)) or as the
/// `Err` of [`JobHandle::wait`](crate::JobHandle::wait). Every variant
/// names exactly one failure domain; none of them affects any other job
/// on the service.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JobError {
    /// A work item panicked. The panic was caught at the item boundary
    /// (the item's worker slot was released normally), the job's
    /// remaining items ran to completion — journaling into the result
    /// cache as usual, so a resubmit resumes — and the job as a whole
    /// failed with the lowest-indexed faulting item.
    WorkerPanic {
        /// The faulting work item's planned position (GD: the
        /// `(network, start)` item index in plan order; random: the
        /// `(network, design)` index; BB-BO: the network index).
        item: usize,
        /// The panic payload, stringified (`"<non-string panic>"` when
        /// the payload was neither `String` nor `&str`).
        payload: String,
    },
    /// A descent's loss went NaN and never recovered: the periodic
    /// rounding checkpoint that adjudicates a suspect descent also
    /// evaluated NaN, so the item reported a typed failure instead of
    /// merging a bogus `best_edp`. (A transiently NaN loss that the next
    /// rounding proves recovered is tolerated, as the descent loop's
    /// zeroed-gradient fallback has always done.)
    NonFiniteLoss {
        /// The faulting work item's planned position.
        item: usize,
        /// The 1-based gradient step at which the loss first went NaN.
        step: usize,
    },
    /// The job's [`deadline`](crate::SearchRequestBuilder::deadline)
    /// expired under [`DeadlinePolicy::Kill`]: in-flight items stopped at
    /// their next step boundary and the job terminated with this error
    /// instead of a result.
    DeadlineExceeded,
    /// The job's runner thread panicked outside any work item (planning,
    /// merging). The job still reached a terminal state — handle methods
    /// never hang or propagate the panic.
    RunnerPanic {
        /// The panic payload, stringified.
        payload: String,
    },
    /// The runner died without storing results or an error — a defensive
    /// variant so [`JobHandle::wait`](crate::JobHandle::wait) stays total
    /// instead of panicking on a terminal job with no results.
    ResultsUnavailable,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::WorkerPanic { item, payload } => {
                write!(f, "work item {item} panicked: {payload}")
            }
            JobError::NonFiniteLoss { item, step } => {
                write!(
                    f,
                    "work item {item} produced a non-finite loss at gradient step {step}"
                )
            }
            JobError::DeadlineExceeded => {
                write!(f, "job deadline expired under DeadlinePolicy::Kill")
            }
            JobError::RunnerPanic { payload } => {
                write!(f, "job runner panicked outside any work item: {payload}")
            }
            JobError::ResultsUnavailable => {
                write!(f, "job reached a terminal state without storing results")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// What happens when a job's
/// [`deadline`](crate::SearchRequestBuilder::deadline) expires before the
/// job completes. Deadlines are measured from **submission**, so time
/// spent queued counts against the budget — exactly the SLO a caller
/// experiences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum DeadlinePolicy {
    /// Terminate the job: in-flight items stop at their next step or
    /// sample boundary, queued items resolve as no-ops — exactly as
    /// promptly as a user cancel — and the job ends
    /// [`Failed`](crate::JobStatus::Failed) with
    /// [`JobError::DeadlineExceeded`]. The default.
    #[default]
    Kill,
    /// Degrade gracefully: at the deadline the job stops admitting **new**
    /// work items (in-flight items run to completion, so every per-item
    /// result stays bit-exact), and the job completes with the
    /// deterministic merge of all items finished so far, flagged
    /// [`degraded`](crate::BatchResult::degraded). Under sequential
    /// per-network execution the degraded result is a bitwise prefix of
    /// the uninterrupted run's history; completed items still journal to
    /// the result cache, so an identical resubmit resumes from them.
    Degrade,
}

// dosa-lint: allow(wall-clock) — the deadline perimeter: a private alias
// so the clock is reachable only through `Deadline`, which never feeds a result.
type Clock = std::time::Instant;

/// When a job's deadline expires: its submission instant plus the
/// request's [`deadline`](crate::SearchRequestBuilder::deadline), or never.
/// A request without a deadline never reads the clock, and a budget too
/// large for the clock to represent (e.g. `Duration::MAX`) means never.
#[derive(Debug, Clone, Copy)]
struct Deadline(Option<Clock>);

impl Deadline {
    /// The deadline `budget` after now (`None`: no deadline).
    fn after(budget: Option<Duration>) -> Deadline {
        Deadline(budget.and_then(|d| Clock::now().checked_add(d)))
    }

    /// Whether the deadline has passed; `false` without a clock read
    /// when there is none.
    fn expired(&self) -> bool {
        self.0.is_some_and(|due| Clock::now() >= due)
    }
}

/// [`StopWord`] bits: a user cancel, a `Kill` expiry that beat any
/// cancel, and a `Degrade` expiry (never-started items are skipped).
const CANCELLED: u8 = 1;
const KILLED: u8 = 1 << 1;
const HALTED: u8 = 1 << 2;

/// One job's stop state: a word of monotone flags — bits are only ever
/// set — plus the deadline that may set them. Because the word only
/// grows, a reader that saw a bit keeps seeing it, and the first of a
/// user cancel and a `Kill` expiry to land decides the terminal state.
#[derive(Debug)]
pub(crate) struct StopWord {
    bits: AtomicU8,
    deadline: Deadline,
    policy: DeadlinePolicy,
}

impl StopWord {
    /// A job's stop word, built at submission: the deadline is measured
    /// from now, so queue time counts.
    pub(crate) fn new(deadline: Option<Duration>, policy: DeadlinePolicy) -> StopWord {
        StopWord {
            bits: AtomicU8::new(0),
            deadline: Deadline::after(deadline),
            policy,
        }
    }

    /// Record a user cancel. A deadline that has already passed lands
    /// first, so wall-clock order — not whether a check point happened to
    /// run in between — decides a race between a cancel and a `Kill`.
    pub(crate) fn cancel(&self) {
        self.poll_deadline();
        self.bits.fetch_or(CANCELLED, Ordering::Relaxed);
    }

    /// Apply the deadline policy if the deadline has passed. A `Kill`
    /// expiry only lands on a job nobody cancelled yet, so a user cancel
    /// that won the race stays a cancel.
    pub(crate) fn poll_deadline(&self) {
        if !self.deadline.expired() {
            return;
        }
        match self.policy {
            DeadlinePolicy::Kill => {
                let _ = self
                    .bits
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                        (bits & CANCELLED == 0).then_some(bits | KILLED)
                    });
            }
            DeadlinePolicy::Degrade => {
                self.bits.fetch_or(HALTED, Ordering::Relaxed);
            }
        }
    }

    /// The per-step / per-sample check: whether running work should stop
    /// at this boundary. Only a `Kill` deadline is evaluated here; a
    /// `Degrade` deadline lets running work finish bit-exactly.
    pub(crate) fn stopping(&self) -> bool {
        if self.policy == DeadlinePolicy::Kill {
            self.poll_deadline();
        }
        self.bits.load(Ordering::Relaxed) & (CANCELLED | KILLED) != 0
    }

    /// Whether a user cancel landed (as opposed to a `Kill` expiry).
    pub(crate) fn user_cancelled(&self) -> bool {
        self.bits.load(Ordering::Relaxed) & CANCELLED != 0
    }

    /// Whether a `Kill` deadline ended the job.
    pub(crate) fn killed(&self) -> bool {
        self.bits.load(Ordering::Relaxed) & KILLED != 0
    }

    /// Whether a `Degrade` deadline stopped admitting new work items.
    pub(crate) fn halted(&self) -> bool {
        self.bits.load(Ordering::Relaxed) & HALTED != 0
    }
}

/// One injected fault of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// Panic inside the work item (exercises the `catch_unwind`
    /// containment path → [`JobError::WorkerPanic`]).
    Panic,
    /// Sleep this many milliseconds before running the item normally.
    /// Result-neutral by construction — the item's output is bit-exact —
    /// so delays move wall-clock time only (used to hold a deadline open
    /// over a chosen item).
    Delay(u64),
    /// Force the item's first gradient step to report a non-finite loss,
    /// exercising the real NaN guard in the descent loop
    /// (→ [`JobError::NonFiniteLoss`]). Only gradient-descent items
    /// descend, so the injection is a no-op on black-box work items.
    NonFiniteLoss,
}

/// A deterministic fault-injection plan, threaded through a request via
/// [`SearchRequestBuilder::fault_plan`](crate::SearchRequestBuilder::fault_plan)
/// — the service's **test-only chaos hook**, driving the robustness
/// tests in `crates/search/tests/faults.rs`.
///
/// Faults are keyed by *planned work-item position* (the same plan order
/// the result cache and the merge use), so a plan is a pure function of
/// the request it is attached to: same request + same plan → same faults
/// at the same items, every run. An empty plan is a bit-exact no-op — the
/// consultation itself never perturbs a result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<usize, FaultKind>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; bit-exact no-op).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Inject `kind` at planned work-item position `item` (builder
    /// style). A later injection at the same position replaces the
    /// earlier one.
    pub fn inject(mut self, item: usize, kind: FaultKind) -> FaultPlan {
        self.faults.insert(item, kind);
        self
    }

    /// A seeded plan over `items` work items: a tiny deterministic PRNG
    /// (splitmix64) picks roughly `density` of the positions and assigns
    /// each a fault kind. Same `(seed, items, density)` → same plan,
    /// every run — the property the interleaving proptest relies on.
    pub fn seeded(seed: u64, items: usize, density: f64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for item in 0..items {
            let roll = (next() >> 11) as f64 / (1u64 << 53) as f64;
            if roll < density {
                let kind = match next() % 3 {
                    0 => FaultKind::Panic,
                    1 => FaultKind::Delay(next() % 5),
                    _ => FaultKind::NonFiniteLoss,
                };
                plan.faults.insert(item, kind);
            }
        }
        plan
    }

    /// The fault injected at planned position `item`, if any.
    pub fn fault_at(&self, item: usize) -> Option<FaultKind> {
        self.faults.get(&item).copied()
    }

    /// Whether the plan injects nothing (guaranteed bit-exact no-op).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of injected faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }
}

/// Stringify a caught panic payload for a [`JobError`]. `panic!("...")`
/// payloads are `&str` or `String`; anything else is summarized.
pub(crate) fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Ok(s) = payload.downcast::<String>() {
        *s
    } else {
        "<non-string panic>".to_string()
    }
}

/// Lock `mutex`, recovering the guard if a previous holder panicked.
///
/// Poison recovery is sound service-wide because panics are contained at
/// the work-item / runner boundary *before* they can unwind through a
/// critical section — the sections guarded by these mutexes only move
/// plain values (queue entries, slot counts, terminal states) and never
/// call panicking user code; see the module docs.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // dosa-lint: allow(raw-mutex-lock) — this IS the poisoning-recovery perimeter:
    // the single raw lock every service mutex is routed through.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`lock`].
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_is_deterministic_and_positional() {
        let a = FaultPlan::seeded(7, 32, 0.5);
        let b = FaultPlan::seeded(7, 32, 0.5);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = FaultPlan::seeded(8, 32, 0.5);
        assert_ne!(a, c, "different seeds should disagree somewhere");

        let manual = FaultPlan::new()
            .inject(3, FaultKind::Panic)
            .inject(3, FaultKind::Delay(10));
        assert_eq!(manual.fault_at(3), Some(FaultKind::Delay(10)));
        assert_eq!(manual.fault_at(4), None);
        assert_eq!(manual.len(), 1);
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.fault_at(0), None);
        let sparse = FaultPlan::seeded(1, 100, 0.0);
        assert!(sparse.is_empty());
    }

    #[test]
    fn stop_word_transitions_are_monotone_and_the_first_stop_wins() {
        // A zero budget has expired by the first poll.
        let expired = Some(Duration::ZERO);

        let kill = StopWord::new(expired, DeadlinePolicy::Kill);
        assert!(
            kill.stopping(),
            "the per-step check evaluates a Kill deadline"
        );
        assert!(kill.killed() && !kill.user_cancelled());
        kill.cancel();
        assert!(kill.killed(), "a later cancel cannot undo a kill");

        let late = StopWord::new(expired, DeadlinePolicy::Kill);
        late.cancel();
        assert!(
            late.killed(),
            "a cancel after the deadline passed loses, even with no check point in between"
        );

        // A cancel that lands before the deadline passes stays a cancel.
        let mut cancelled = StopWord::new(Some(Duration::from_secs(3600)), DeadlinePolicy::Kill);
        cancelled.cancel();
        cancelled.deadline = Deadline::after(expired);
        cancelled.poll_deadline();
        assert!(cancelled.user_cancelled() && !cancelled.killed());

        let degrade = StopWord::new(expired, DeadlinePolicy::Degrade);
        assert!(!degrade.stopping(), "Degrade never stops running work");
        assert!(!degrade.halted(), "the per-step check leaves Degrade alone");
        degrade.poll_deadline();
        assert!(degrade.halted() && !degrade.killed());

        // No deadline, and one past the clock's range, never expire.
        for budget in [None, Some(Duration::MAX)] {
            for policy in [DeadlinePolicy::Kill, DeadlinePolicy::Degrade] {
                let never = StopWord::new(budget, policy);
                never.poll_deadline();
                assert!(!never.stopping() && !never.halted() && !never.killed());
            }
        }
    }

    #[test]
    fn lock_recovers_a_poisoned_mutex() {
        let m = Mutex::new(5u32);
        let _ = std::panic::catch_unwind(|| {
            // dosa-lint: allow(raw-mutex-lock) — deliberately poisons a raw guard to
            // prove the helper under test recovers it; fault::lock here would be circular.
            let _guard = m.lock().unwrap();
            panic!("poison it");
        });
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 5);
    }

    #[test]
    fn payloads_stringify() {
        let caught = std::panic::catch_unwind(|| panic!("boom {}", 7)).expect_err("panics");
        assert_eq!(payload_string(caught), "boom 7");
        let caught = std::panic::catch_unwind(|| panic!("literal")).expect_err("panics");
        assert_eq!(payload_string(caught), "literal");
    }

    #[test]
    fn errors_display() {
        let e = JobError::WorkerPanic {
            item: 3,
            payload: "x".into(),
        };
        assert!(e.to_string().contains("work item 3"));
        assert!(JobError::DeadlineExceeded.to_string().contains("deadline"));
    }
}
