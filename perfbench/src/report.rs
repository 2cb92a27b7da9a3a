//! The result line: the metric names and units every run prints, and the
//! final JSON object.

use crate::json::Json;
use crate::spec::Spec;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 12] = [
    ("gd_s", "s"),
    ("random_s", "s"),
    ("bbbo_s", "s"),
    ("dosa_edp", "uJ.cycles"),
    ("edp_vs_random", "ratio"),
    ("edp_vs_bbbo", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("served_ratio", "ratio"),
    ("cold_jobs_per_s", "1/s"),
    ("replay_us_per_job", "us"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("gd.cosa.start_points_s", "s"),
    ("gd.tape.record_s", "s"),
    ("gd.tape.sweep_s", "s"),
    ("gd.adam.step_s", "s"),
    ("gd.round.reference_s", "s"),
    ("gd.unattributed_s", "s"),
    ("gd.traced_s", "s"),
    ("gd.steps", "count"),
    ("gd.roundings", "count"),
    ("random.mapper.draw_s", "s"),
    ("random.mapper.fits_s", "s"),
    ("random.timeloop.eval_s", "s"),
    ("random.unattributed_s", "s"),
    ("random.traced_s", "s"),
    ("random.mapper.fit_ratio", "ratio"),
    ("bbbo.mapper.draw_s", "s"),
    ("bbbo.mapper.fits_s", "s"),
    ("bbbo.timeloop.eval_s", "s"),
    ("bbbo.gp.fit_s", "s"),
    ("bbbo.gp.ei_s", "s"),
    ("bbbo.unattributed_s", "s"),
    ("bbbo.traced_s", "s"),
    ("bbbo.mapper.fit_ratio", "ratio"),
    ("bbbo.gp.candidates", "count"),
    ("cache.key_us", "us"),
    ("cache.get_us", "us"),
    ("cache.put_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.journaled", "count"),
    ("service.submit_us", "us"),
    ("service.threads_peak", "count"),
    ("service.degraded_jobs", "count"),
    ("sched.max_queue_wait", "count"),
    ("sched.segments_run", "count"),
    ("generator.lag_ms", "ms"),
    ("gd.trace.overhead_s", "s"),
    ("random.trace.overhead_s", "s"),
    ("bbbo.trace.overhead_s", "s"),
    ("trace.overhead_s", "s"),
];

/// What one run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Jobs submitted in the timed phases.
    pub attempted: u64,
    /// Of those, jobs rejected at submit or ending failed.
    pub failed: u64,
    /// Every failed output check, as a message.
    pub errors: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The result line for the metrics `spec` declares for this mode,
    /// recording an error for any declared metric that is missing,
    /// undeclared, or not finite.
    pub fn finish(mut self, spec: &Spec, trace: bool) -> (bool, String) {
        let declared = spec.metrics_for(trace);
        let reported: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let matches = declared.len() == reported.len()
            && declared
                .iter()
                .zip(reported)
                .all(|(m, (name, unit))| m.name == *name && m.unit == *unit);
        if !matches {
            self.errors.push(
                "BENCHMARK.json and the program disagree on the metric names or units".into(),
            );
        }
        let mut metrics = BTreeMap::new();
        for m in declared {
            match self.metrics.get(m.name.as_str()) {
                Some(v) if v.is_finite() => {
                    let mut o = BTreeMap::new();
                    o.insert("value".to_string(), Json::Num(*v));
                    o.insert("unit".to_string(), Json::Str(m.unit.clone()));
                    metrics.insert(m.name.clone(), Json::Obj(o));
                }
                Some(v) => self.errors.push(format!("metric {} is {v}", m.name)),
                None => self
                    .errors
                    .push(format!("metric {} was not measured", m.name)),
            }
        }
        for (name, value) in &self.metrics {
            let mut all = spec.end_to_end.iter().chain(&spec.per_layer);
            if !all.any(|m| m.name == *name) {
                self.errors
                    .push(format!("metric {name} is not declared in BENCHMARK.json"));
            }
            eprintln!("  {name:<26} {value}");
        }
        let correct = self.errors.is_empty();
        let mut top = BTreeMap::new();
        top.insert("correct".to_string(), Json::Bool(correct));
        top.insert(
            "attempted".to_string(),
            Json::Num(self.attempted.max(1) as f64),
        );
        top.insert("failed".to_string(), Json::Num(self.failed as f64));
        top.insert("metrics".to_string(), Json::Obj(metrics));
        for e in &self.errors {
            eprintln!("check failed: {e}");
        }
        (correct, Json::Obj(top).to_string())
    }
}
