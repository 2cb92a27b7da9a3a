//! The two workloads. Each runs its timed phases through the service's
//! request API only, checks the outputs, and — in a traced run — re-drives
//! the same units through [`crate::trace`] for the per-layer breakdown.
//!
//! Every workload reports every end-to-end metric, each meaning the same
//! thing on the workload's own jobs (see `perfbench/README.md`). Every
//! timed phase is reported at the reference host's speed: divided by the
//! phase's slowdown from [`crate::probe::Calibrator`].

use crate::deck::{self, Budgets, Job, Kind, Targets, Unit};
use crate::drive::{self, Observer, Outcome};
use crate::probe::SetupTimer;
use crate::report::Report;
use crate::stats::{geomean, lower_quartile, median, tail};
use crate::trace::{self, BlackBoxStages, GdStages};
use dosa_search::{BatchResult, SearchRequest, Strategy};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Times `cache-replay` runs every job alone; each strategy's seconds are
/// the median over the repeats.
const ALONE_REPEATS: usize = 4;

/// Units per (strategy, target) in the `cache-replay` deck: 9·m jobs.
const CACHE_DECK_M: usize = 8;

/// Set-ups timed (and dropped) at the start of a run and after each of
/// its passes; the median of all set-ups is `setup_s`.
const SETUP_BATCH: usize = 10;

/// Replays of a pass run for at least this long, and at least
/// [`MIN_REPLAYS`] times.
const REPLAY_TIME: Duration = Duration::from_millis(1000);
const MIN_REPLAYS: usize = 10;

/// One unit's outcome: best EDP and sample count.
type UnitResult = (f64, usize);

/// `setup_s`: the median set-up at the reference host's speed.
fn set_setup(setups: &SetupTimer, rep: &mut Report) {
    let (at_reference, raw, slowdown) = setups.seconds();
    eprintln!("set-up: median {:.1} us raw, slowdown {slowdown:.3}", raw * 1e6);
    rep.set("setup_s", at_reference);
}

/// Everything a pass needs, built in the timed set-up.
struct Inputs {
    targets: Targets,
    jobs: Vec<Job>,
    requests: Vec<SearchRequest>,
}

fn inputs(jobs: Vec<Job>, budgets: &Budgets) -> Inputs {
    let targets = Targets::load();
    let requests = jobs.iter().map(|j| j.request(&targets, budgets)).collect();
    Inputs {
        targets,
        jobs,
        requests,
    }
}

/// Per-unit results of one job's outcome (none if it failed).
fn unit_results(job: &Job, targets: &Targets, outcome: &Outcome) -> Vec<(Unit, UnitResult)> {
    let Ok(batch) = &outcome.result else {
        return Vec::new();
    };
    job.units
        .iter()
        .filter_map(|u| {
            batch
                .get(&u.name(targets))
                .map(|r| (*u, (r.best_edp, r.samples)))
        })
        .collect()
}

fn degraded(outcome: &Outcome) -> bool {
    outcome
        .result
        .as_ref()
        .is_ok_and(|b: &BatchResult| b.degraded)
}

/// All units' results over a set of outcomes, failing a check for every
/// failed job, missing network, non-finite EDP, or short sample count.
fn collect(
    inp: &Inputs,
    outcomes: &[Outcome],
    budgets: &Budgets,
    what: &str,
    rep: &mut Report,
) -> BTreeMap<Unit, UnitResult> {
    let mut out = BTreeMap::new();
    for (job, o) in inp.jobs.iter().zip(outcomes) {
        if let Err(e) = &o.result {
            rep.errors
                .push(format!("{what}: a {} job {e}", job.kind.label()));
            continue;
        }
        let got = unit_results(job, &inp.targets, o);
        rep.check(got.len() == job.units.len(), || {
            format!("{what}: a job is missing networks")
        });
        for (u, (edp, samples)) in got {
            rep.check(edp.is_finite() && edp > 0.0, || {
                format!("{what}: {} EDP {edp}", u.name(&inp.targets))
            });
            if !degraded(o) {
                let planned = budgets.planned_samples(u.kind);
                rep.check(samples == planned, || {
                    format!(
                        "{what}: {} {} samples, planned {planned}",
                        u.kind.label(),
                        u.name(&inp.targets)
                    )
                });
            }
            out.insert(u, (edp, samples));
        }
    }
    out
}

/// Fail a check for every unit whose result differs in any bit.
fn same_bits(
    a: &BTreeMap<Unit, UnitResult>,
    b: &BTreeMap<Unit, UnitResult>,
    what: &str,
    rep: &mut Report,
) {
    for (u, (edp, samples)) in a {
        match b.get(u) {
            Some((e, s)) if e.to_bits() == edp.to_bits() && s == samples => {}
            other => rep
                .errors
                .push(format!("{what}: {u:?} {edp:e}/{samples} vs {other:?}")),
        }
    }
}

/// `dosa_edp`, `edp_vs_random`, `edp_vs_bbbo`: per target, the geomean of
/// each strategy's best EDP over the workload's units; then the geomean
/// over targets of DOSA's EDP and of each baseline's ratio over DOSA.
fn quality(results: &BTreeMap<Unit, UnitResult>, rep: &mut Report) {
    let per_target = |kind: Kind| -> Vec<f64> {
        (0..4)
            .map(|net| {
                let edps: Vec<f64> = results
                    .iter()
                    .filter(|(u, _)| u.kind == kind && u.net == net)
                    .map(|(_, (edp, _))| *edp)
                    .collect();
                geomean(&edps)
            })
            .collect()
    };
    let gd = per_target(Kind::Gd);
    let ratio = |kind: Kind| -> f64 {
        let other = per_target(kind);
        geomean(
            &other
                .iter()
                .zip(&gd)
                .map(|(o, d)| o / d)
                .collect::<Vec<_>>(),
        )
    };
    rep.set("dosa_edp", geomean(&gd));
    rep.set("edp_vs_random", ratio(Kind::Random));
    rep.set("edp_vs_bbbo", ratio(Kind::Bbbo));
}

/// A job's latency in ms; a rejected or failed job counts as an infinite
/// latency, missing every limit.
fn latency_ms(o: &Outcome) -> f64 {
    o.latency().map_or(f64::INFINITY, |d| d.as_secs_f64() * 1e3)
}

/// A job's latency over passes that run the same jobs in the same order:
/// the median of its calibrated latencies; infinite when any pass failed
/// or rejected it.
fn pass_latency(ms: impl IntoIterator<Item = f64>) -> f64 {
    let ms: Vec<f64> = ms.into_iter().collect();
    if ms.iter().any(|m| m.is_infinite()) {
        f64::INFINITY
    } else {
        median(&ms)
    }
}

/// The latency percentiles of `ms`.
fn latencies(ms: &[f64], rep: &mut Report) {
    let (q, p) = tail(ms);
    eprintln!(
        "latency over {} jobs: p50 {:.3} ms, tail p{:.1} {:.3} ms",
        ms.len(),
        median(ms),
        q * 100.0,
        p
    );
    rep.set("latency_p50_ms", median(ms));
    rep.set("latency_p95_ms", p);
}

/// A closed-loop job's seconds, from submit to result.
fn job_seconds(o: &Outcome) -> f64 {
    (o.finished - o.due).as_secs_f64()
}

/// `time` of every closed-loop outcome, divided by the host slowdown
/// while that job ran.
fn calibrated(outcomes: &[Outcome], slowdowns: &[f64], time: impl Fn(&Outcome) -> f64) -> Vec<f64> {
    outcomes
        .iter()
        .zip(slowdowns)
        .map(|(o, s)| time(o) / s)
        .collect()
}

/// Seconds per strategy, given each job's seconds.
fn seconds_by_kind(jobs: &[Job], secs: &[f64]) -> BTreeMap<Kind, f64> {
    let mut out: BTreeMap<Kind, f64> = Kind::ALL.into_iter().map(|k| (k, 0.0)).collect();
    for (job, s) in jobs.iter().zip(secs) {
        *out.get_mut(&job.kind).expect("all kinds present") += s;
    }
    out
}

/// Per strategy, the median over passes or repeats.
fn medians(by_kind: &BTreeMap<Kind, Vec<f64>>) -> BTreeMap<Kind, f64> {
    by_kind.iter().map(|(k, v)| (*k, median(v))).collect()
}

fn set_seconds(by_kind: &BTreeMap<Kind, f64>, rep: &mut Report) {
    rep.set("gd_s", by_kind[&Kind::Gd]);
    rep.set("random_s", by_kind[&Kind::Random]);
    rep.set("bbbo_s", by_kind[&Kind::Bbbo]);
}

/// Replay `inp`'s requests from `service`'s warm cache, as bursts, for
/// [`REPLAY_TIME`]; check every job was served wholly from the cache with
/// the results in `expect`; return the lower quartile of µs per job over
/// bursts (a burst takes milliseconds, so a slow spell of the host
/// swallows whole bursts; the lower quartile sees past them), at the
/// reference host's speed.
fn replays(
    service: &dosa_search::SearchService,
    inp: &Inputs,
    budgets: &Budgets,
    expect: &BTreeMap<Unit, UnitResult>,
    obs: &mut Observer,
    rep: &mut Report,
) -> f64 {
    let n = inp.requests.len();
    let start = Instant::now();
    let mut per_job_us = Vec::new();
    while per_job_us.len() < MIN_REPLAYS || start.elapsed() < REPLAY_TIME {
        let round = per_job_us.len();
        let batch = inp.requests.clone();
        let (wall, outcomes, slowdown) = drive::burst(service, batch, obs);
        per_job_us.push(wall.as_secs_f64() * 1e6 / n as f64 / slowdown);
        if round == 0 {
            for o in &outcomes {
                rep.check(
                    o.stats.cache_hits == o.stats.work_items && o.stats.cache_misses == 0,
                    || {
                        format!(
                            "replay: {} of {} items hit",
                            o.stats.cache_hits, o.stats.work_items
                        )
                    },
                );
            }
            let got = collect(inp, &outcomes, budgets, "replay", rep);
            same_bits(expect, &got, "replay vs first run", rep);
        }
    }
    lower_quartile(&per_job_us)
}

/// The service-level per-layer metrics of a traced run.
fn service_layers(obs: &Observer, main: &[&Outcome], lag: Duration, rep: &mut Report) {
    let (gets, get_t, puts, put_t) = obs.store_times();
    let (hits, misses, journaled) = obs.cache_counts();
    let per_call_us = |t: Duration, n: u64| t.as_secs_f64() * 1e6 / n.max(1) as f64;
    rep.set("cache.get_us", per_call_us(get_t, gets));
    rep.set("cache.put_us", per_call_us(put_t, puts));
    rep.set("cache.hits", hits as f64);
    rep.set("cache.misses", misses as f64);
    rep.set("cache.journaled", journaled as f64);
    rep.set(
        "service.submit_us",
        per_call_us(obs.submit_time, obs.submit_calls),
    );
    rep.set("service.threads_peak", obs.threads_peak as f64);
    rep.set(
        "service.degraded_jobs",
        main.iter().filter(|o| degraded(o)).count() as f64,
    );
    rep.set(
        "sched.max_queue_wait",
        main.iter()
            .map(|o| o.stats.max_queue_wait)
            .max()
            .unwrap_or(0) as f64,
    );
    rep.set(
        "sched.segments_run",
        main.iter().map(|o| o.stats.segments_run).sum::<usize>() as f64,
    );
    rep.set("generator.lag_ms", lag.as_secs_f64() * 1e3);
}

/// The traced replay of every unit: per-layer stage times (as measured),
/// bit parity with `expect`, and tracing overhead against the untraced
/// per-strategy seconds `untraced`, both at the reference host's speed.
fn traced(
    targets: &Targets,
    budgets: &Budgets,
    expect: &BTreeMap<Unit, UnitResult>,
    untraced: &BTreeMap<Kind, f64>,
    obs: &mut Observer,
    rep: &mut Report,
) {
    let mark = obs.mark();
    let mut g = GdStages::default();
    let mut r = BlackBoxStages::default();
    let mut b = BlackBoxStages::default();
    let mut key_time = Duration::ZERO;
    let mut keys = 0u64;
    for (unit, (edp, samples)) in expect {
        let layers = &targets.layers[unit.net].1;
        let hier = &targets.hier;
        let strategy = match budgets.strategy(unit.kind, None) {
            Strategy::GradientDescent(cfg) => Strategy::GradientDescent(dosa_search::GdConfig {
                seed: unit.seed,
                ..cfg
            }),
            Strategy::Random(cfg) => Strategy::Random(dosa_search::RandomSearchConfig {
                seed: unit.seed,
                ..cfg
            }),
            Strategy::BayesOpt(cfg) => Strategy::BayesOpt(dosa_search::BbboConfig {
                seed: unit.seed,
                ..cfg
            }),
            other => other,
        };
        keys += trace::cache_keys(layers, hier, &strategy, &mut key_time);
        let got = match &strategy {
            Strategy::GradientDescent(cfg) => trace::gd(layers, hier, cfg, &mut g),
            Strategy::Random(cfg) => trace::random(layers, hier, cfg, &mut r),
            Strategy::BayesOpt(cfg) => trace::bbbo(layers, hier, cfg, &mut b),
            _ => unreachable!("the benchmark builds only these strategies"),
        };
        rep.check(
            got.best_edp.to_bits() == edp.to_bits() && got.samples == *samples,
            || {
                format!(
                    "trace parity: {} {} traced {:e}/{} vs service {edp:e}/{samples}",
                    unit.kind.label(),
                    unit.name(targets),
                    got.best_edp,
                    got.samples
                )
            },
        );
    }
    let s = |d: Duration| d.as_secs_f64();
    rep.set("gd.cosa.start_points_s", s(g.start_points));
    rep.set("gd.tape.record_s", s(g.record));
    rep.set("gd.tape.sweep_s", s(g.sweep));
    rep.set("gd.adam.step_s", s(g.adam));
    rep.set("gd.round.reference_s", s(g.round));
    rep.set("gd.unattributed_s", s(g.unattributed()));
    rep.set("gd.traced_s", s(g.total));
    rep.set("gd.steps", g.steps as f64);
    rep.set("gd.roundings", g.roundings as f64);
    rep.set("random.mapper.draw_s", s(r.draw));
    rep.set("random.mapper.fits_s", s(r.fits));
    rep.set("random.timeloop.eval_s", s(r.eval));
    rep.set("random.unattributed_s", s(r.unattributed()));
    rep.set("random.traced_s", s(r.total));
    rep.set("random.mapper.fit_ratio", r.fit_ratio());
    rep.set("bbbo.mapper.draw_s", s(b.draw));
    rep.set("bbbo.mapper.fits_s", s(b.fits));
    rep.set("bbbo.timeloop.eval_s", s(b.eval));
    rep.set("bbbo.unattributed_s", s(b.unattributed()));
    rep.set("bbbo.traced_s", s(b.total));
    rep.set("bbbo.mapper.fit_ratio", b.fit_ratio());
    rep.set("bbbo.gp.fit_s", s(b.gp_fit));
    rep.set("bbbo.gp.ei_s", s(b.ei));
    rep.set("bbbo.gp.candidates", b.candidates as f64);
    rep.set(
        "cache.key_us",
        key_time.as_secs_f64() * 1e6 / keys.max(1) as f64,
    );
    let slowdown = obs.slowdown_since(mark);
    let over = |t: Duration, k: Kind| s(t) / slowdown - untraced[&k];
    let (og, or, ob) = (
        over(g.total, Kind::Gd),
        over(r.total, Kind::Random),
        over(b.total, Kind::Bbbo),
    );
    rep.set("gd.trace.overhead_s", og);
    rep.set("random.trace.overhead_s", or);
    rep.set("bbbo.trace.overhead_s", ob);
    rep.set("trace.overhead_s", og + or + ob);
}

/// `fig7-paper`: the paper's Fig. 7 experiment, one job per strategy over
/// the four targets, closed loop with one client on a 1-worker service,
/// in [`fig7_passes`] passes (every pass must repeat the first bit for
/// bit), each pass followed by cache replays of its three jobs.
pub fn fig7_paper(args: &Args, obs: &mut Observer) -> Report {
    let mut rep = Report::default();
    let budgets = Budgets::paper();
    let build = |obs: &mut Observer| {
        let inp = inputs(deck::fig7_jobs(), &budgets);
        let cache = obs.cache(1024);
        let service = obs.service(1, Some(cache));
        (inp, service)
    };
    let mut setups = SetupTimer::new();
    setups.repeat(SETUP_BATCH, || build(obs));
    let mut first: Option<BTreeMap<Unit, UnitResult>> = None;
    let mut all: Vec<Outcome> = Vec::new();
    let mut pass_ms: Vec<Vec<f64>> = Vec::new();
    let mut by_kind: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let mut jobs_per_s = Vec::new();
    let mut replay_us = Vec::new();
    let mut lag = Duration::ZERO;
    for _ in 0..fig7_passes(args.seconds) {
        let (inp, service) = setups.time(|| build(obs));
        obs.max_lag = Duration::ZERO;
        let (outcomes, slowdowns) = drive::one_at_a_time(&service, inp.requests.clone(), obs);
        lag = lag.max(obs.max_lag);
        rep.attempted += outcomes.len() as u64;
        rep.failed += outcomes.iter().filter(|o| o.result.is_err()).count() as u64;
        let results = collect(&inp, &outcomes, &budgets, "fig7", &mut rep);
        let secs = calibrated(&outcomes, &slowdowns, job_seconds);
        jobs_per_s.push(outcomes.len() as f64 / secs.iter().sum::<f64>());
        pass_ms.push(calibrated(&outcomes, &slowdowns, latency_ms));
        for (k, v) in seconds_by_kind(&inp.jobs, &secs) {
            by_kind.entry(k).or_default().push(v);
        }
        replay_us.push(replays(&service, &inp, &budgets, &results, obs, &mut rep));
        match &first {
            None => first = Some(results),
            Some(f) => same_bits(f, &results, "fig7 pass vs first pass", &mut rep),
        }
        all.extend(outcomes);
        setups.repeat(SETUP_BATCH, || build(obs));
    }
    let results = first.expect("at least one pass");
    // DOSA must beat both baselines on every target.
    for net in 0..4 {
        let edp = |kind: Kind| {
            results
                .iter()
                .find(|(u, _)| u.kind == kind && u.net == net)
                .map_or(f64::NAN, |(_, (e, _))| *e)
        };
        let (d, r, b) = (edp(Kind::Gd), edp(Kind::Random), edp(Kind::Bbbo));
        rep.check(d < r && d < b, || {
            format!("fig7 target {net}: DOSA {d:e} does not beat Random {r:e} and BB-BO {b:e}")
        });
    }
    // Every timing is the median over passes of the pass's calibrated
    // timing (each pass runs the same jobs in the same order). A best-of
    // would pick the pass whose calibration read slowest.
    let by_kind = medians(&by_kind);
    set_seconds(&by_kind, &mut rep);
    quality(&results, &mut rep);
    let jobs = deck::fig7_jobs().len();
    let job_ms: Vec<f64> = (0..jobs)
        .map(|i| pass_latency(pass_ms.iter().map(|p| p[i])))
        .collect();
    latencies(&job_ms, &mut rep);
    rep.set("served_ratio", served(&rep));
    rep.set("cold_jobs_per_s", median(&jobs_per_s));
    rep.set("replay_us_per_job", median(&replay_us));
    set_setup(&setups, &mut rep);
    if args.trace {
        service_layers(obs, &all.iter().collect::<Vec<_>>(), lag, &mut rep);
        traced(&Targets::load(), &budgets, &results, &by_kind, obs, &mut rep);
    }
    rep
}

/// Fig. 7 passes for `seconds`: one per 7.5 s, a fixed count rather than
/// a deadline, so a faster build measures the same work. (A pass with its
/// replays takes 10–13 s on a shared 2-core x86-64 VM.)
fn fig7_passes(seconds: f64) -> usize {
    ((seconds / 7.5).round() as usize).max(1)
}

fn served(rep: &Report) -> f64 {
    (rep.attempted - rep.failed) as f64 / rep.attempted.max(1) as f64
}

/// Run every job alone, one at a time on a fresh 1-worker service (a
/// closed loop), [`ALONE_REPEATS`] times: the reference results (every
/// repeat must agree bit for bit) and each strategy's host seconds at the
/// reference host's speed, the median over the repeats.
fn alone(
    inp: &Inputs,
    budgets: &Budgets,
    obs: &mut Observer,
    rep: &mut Report,
) -> (BTreeMap<Unit, UnitResult>, BTreeMap<Kind, f64>) {
    let mut reference: Option<BTreeMap<Unit, UnitResult>> = None;
    let mut by_kind: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    for _ in 0..ALONE_REPEATS {
        let service = obs.service(1, None);
        let (outcomes, slowdowns) = drive::one_at_a_time(&service, inp.requests.clone(), obs);
        for o in &outcomes {
            rep.check(!degraded(o), || "a job degraded when run alone".to_string());
        }
        let secs = calibrated(&outcomes, &slowdowns, job_seconds);
        for (k, v) in seconds_by_kind(&inp.jobs, &secs) {
            by_kind.entry(k).or_default().push(v);
        }
        let results = collect(inp, &outcomes, budgets, "alone", rep);
        match &reference {
            None => reference = Some(results),
            Some(r) => same_bits(r, &results, "alone repeat vs first", rep),
        }
    }
    (reference.expect("at least one repeat"), medians(&by_kind))
}

/// A cache that holds every item of the deck with room to spare (the
/// store shards by key hash, so a tight capacity could evict).
fn deck_capacity(inp: &Inputs) -> usize {
    let units: usize = inp.jobs.iter().map(|j| j.units.len()).sum();
    16 * units.max(64)
}

/// `cache-replay`: the small-job deck submitted as one burst to a
/// 2-worker service with a cache that holds it all (closed loop over the
/// deck), then replayed from the warm cache; repeated on a fresh cache
/// until `--seconds` elapse, every timing the median over these passes.
/// Every job then runs alone for the reference results and per-strategy
/// seconds.
pub fn cache_replay(args: &Args, obs: &mut Observer) -> Report {
    let mut rep = Report::default();
    let budgets = Budgets::small();
    let build = |obs: &mut Observer| {
        let inp = inputs(deck::deck(args.seed, CACHE_DECK_M), &budgets);
        let cache = obs.cache(deck_capacity(&inp));
        let service = obs.service(2, Some(cache));
        (inp, service)
    };
    let mut setups = SetupTimer::new();
    setups.repeat(SETUP_BATCH, || build(obs));
    let start = Instant::now();
    let mut first: Option<BTreeMap<Unit, UnitResult>> = None;
    let mut all: Vec<Outcome> = Vec::new();
    let mut pass_ms: Vec<Vec<f64>> = Vec::new();
    let mut burst_s = Vec::new();
    let mut replay_us = Vec::new();
    let mut lag = Duration::ZERO;
    let mut inp_last = None;
    while first.is_none() || start.elapsed().as_secs_f64() < args.seconds {
        let (inp, service) = setups.time(|| build(obs));
        obs.max_lag = Duration::ZERO;
        let mark = obs.mark();
        let (t0, outcomes) = drive::burst_observed(&service, inp.requests.clone(), obs);
        let slowdown = obs.slowdown_since(mark);
        lag = lag.max(obs.max_lag);
        let last = outcomes.iter().map(|o| o.finished).max().unwrap_or(t0);
        burst_s.push((last - t0).as_secs_f64() / slowdown);
        pass_ms.push(outcomes.iter().map(|o| latency_ms(o) / slowdown).collect());
        rep.attempted += outcomes.len() as u64;
        rep.failed += outcomes.iter().filter(|o| o.result.is_err()).count() as u64;
        let results = collect(&inp, &outcomes, &budgets, "cold", &mut rep);
        replay_us.push(replays(&service, &inp, &budgets, &results, obs, &mut rep));
        match &first {
            None => first = Some(results),
            Some(f) => same_bits(f, &results, "cold pass vs first pass", &mut rep),
        }
        all.extend(outcomes);
        inp_last = Some(inp);
        setups.repeat(SETUP_BATCH, || build(obs));
    }
    let cold = first.expect("at least one pass");
    let inp = inp_last.expect("at least one pass");
    let jobs = inp.jobs.len();
    // Every pass submits the same jobs in the same order.
    let job_ms: Vec<f64> = (0..jobs)
        .map(|i| pass_latency(pass_ms.iter().map(|p| p[i])))
        .collect();
    latencies(&job_ms, &mut rep);
    rep.set("cold_jobs_per_s", jobs as f64 / median(&burst_s));
    rep.set("replay_us_per_job", median(&replay_us));
    rep.set("served_ratio", served(&rep));

    let (reference, secs) = alone(&inp, &budgets, obs, &mut rep);
    same_bits(&cold, &reference, "burst vs alone", &mut rep);
    set_seconds(&secs, &mut rep);
    quality(&reference, &mut rep);
    set_setup(&setups, &mut rep);
    if args.trace {
        service_layers(obs, &all.iter().collect::<Vec<_>>(), lag, &mut rep);
        traced(&inp.targets, &budgets, &reference, &secs, obs, &mut rep);
    }
    rep
}
