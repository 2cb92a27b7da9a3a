//! Hot-path performance trajectory: measured medians for tape recording,
//! the backward sweep, and a full gradient-descent step at several network
//! depths, on the node-record tape — written to `BENCH_6.json` at the
//! repository root.
//!
//! `repro bench` regenerates the file under [`SCHEMA`]; `repro --smoke
//! bench` re-runs a seconds-scale measurement to prove the kernels still
//! execute, then validates every checked-in `BENCH_*.json` at the
//! repository root by its schema tag without overwriting any: [`SCHEMA`]
//! or the older [`SCHEMA_V1`] for this module's kernel record,
//! [`E2E_SCHEMA`] for end-to-end before/after records of the repository
//! benchmark.

use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_autodiff::{Tape, Var};
use dosa_model::{analytical, build_loss_with, LossOptions, RelaxedMapping, PARAMS_PER_LAYER};
use dosa_search::cosa_mapping;
use dosa_workload::{Layer, Problem};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The network depths each kernel is measured at.
pub const LAYER_COUNTS: [usize; 3] = [1, 4, 16];

/// Identifies the JSON layout; bumped on any incompatible change.
pub const SCHEMA: &str = "dosa-hotpath-bench-v2";

/// The kernel record's first layout, which also measured the pre-refactor
/// tape: each row adds `legacy_record_ns`, `legacy_sweep_ns`,
/// `legacy_gd_step_ns` and their `gd_step_speedup`. Still validated, so a
/// record written under it stays checkable.
pub const SCHEMA_V1: &str = "dosa-hotpath-bench-v1";

/// The keys of a [`SCHEMA`] result row.
const KEYS: [&str; 3] = ["record_ns", "sweep_ns", "gd_step_ns"];

/// The keys of a [`SCHEMA_V1`] result row.
const KEYS_V1: [&str; 7] = [
    "record_ns",
    "sweep_ns",
    "gd_step_ns",
    "legacy_record_ns",
    "legacy_sweep_ns",
    "legacy_gd_step_ns",
    "gd_step_speedup",
];

/// Identifies an end-to-end before/after record: one row per line, each
/// carrying a `"parent"` and a `"change"` side (a number, or an object of
/// numbers such as median and quartiles).
pub const E2E_SCHEMA: &str = "dosa-e2e-delta-v1";

/// Measured medians (nanoseconds per operation) at one network depth.
#[derive(Debug, Clone, Copy)]
pub struct PerfRow {
    /// Number of layers in the measured loss.
    pub layers: usize,
    /// Forward recording of the whole loss on the current tape.
    pub record_ns: f64,
    /// Serial backward sweep on reused scratch (current tape).
    pub sweep_ns: f64,
    /// Full descent step: set params, record, sweep, gather, update.
    pub gd_step_ns: f64,
}

/// One full measurement run across all [`LAYER_COUNTS`].
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// One row per measured network depth.
    pub rows: Vec<PerfRow>,
}

/// A cyclic mix of convolution and matmul layers, `n` deep — the fixture
/// shared by this module and the Criterion benches.
pub fn fixture_layers(n: usize) -> Vec<Layer> {
    let base = [
        Problem::conv("a", 3, 3, 28, 28, 64, 64, 1).unwrap(),
        Problem::matmul("b", 128, 256, 512).unwrap(),
        Problem::conv("c", 1, 1, 14, 14, 256, 128, 1).unwrap(),
        Problem::conv("d", 3, 3, 14, 14, 128, 256, 2).unwrap(),
    ];
    (0..n)
        .map(|i| Layer::once(base[i % base.len()].clone()))
        .collect()
}

/// Deterministic CoSA start points for [`fixture_layers`] on the default
/// Gemmini configuration.
pub fn fixture_starts(layers: &[Layer]) -> Vec<RelaxedMapping> {
    let hw = HardwareConfig::gemmini_default();
    let hier = Hierarchy::gemmini();
    layers
        .iter()
        .map(|l| RelaxedMapping::from_mapping(&cosa_mapping(&l.problem, &hw, &hier)))
        .collect()
}

/// Median nanoseconds per call of `f`, over `samples` timed batches of
/// `batch` calls each.
fn median_ns<F: FnMut()>(samples: usize, batch: usize, mut f: F) -> f64 {
    // One untimed warm-up batch populates caches and scratch buffers.
    for _ in 0..batch {
        f();
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_call.sort_by(|a, b| a.total_cmp(b));
    per_call[per_call.len() / 2]
}

/// Measure every kernel at one depth. `samples`/`batch` control how long
/// the run takes; the smoke mode passes small values.
fn measure_depth(n: usize, samples: usize, batch: usize) -> PerfRow {
    let layers = fixture_layers(n);
    let relaxed = fixture_starts(&layers);
    let hier = Hierarchy::gemmini();
    let opts = LossOptions::default();

    // Record / sweep / full step, all on reused buffers.
    let tape = Tape::new();
    let mut leaves: Vec<Var<'_>> = Vec::new();
    let mut adj: Vec<f64> = Vec::new();

    let record_ns = median_ns(samples, batch, || {
        tape.clear();
        leaves.clear();
        let built = build_loss_with(
            &tape,
            &layers,
            &relaxed,
            &hier,
            &opts,
            &mut leaves,
            analytical,
        );
        std::hint::black_box(built.loss.value());
    });

    tape.clear();
    leaves.clear();
    let built = build_loss_with(
        &tape,
        &layers,
        &relaxed,
        &hier,
        &opts,
        &mut leaves,
        analytical,
    );
    let loss = built.loss;
    let sweep_ns = median_ns(samples, batch, || {
        let view = tape.backward_into(loss, &mut adj);
        std::hint::black_box(view.wrt(leaves[0]));
    });

    let mut params: Vec<f64> = Vec::new();
    let mut relaxed_step = relaxed.clone();
    for r in &relaxed_step {
        r.params_into(&mut params);
    }
    let mut flat: Vec<f64> = Vec::new();
    let gd_step_ns = median_ns(samples, batch, || {
        for (r, chunk) in relaxed_step.iter_mut().zip(params.chunks(PARAMS_PER_LAYER)) {
            r.set_params(chunk);
        }
        tape.clear();
        leaves.clear();
        let built = build_loss_with(
            &tape,
            &layers,
            &relaxed_step,
            &hier,
            &opts,
            &mut leaves,
            analytical,
        );
        let view = tape.backward_into(built.loss, &mut adj);
        view.wrt_into(&leaves, &mut flat);
        for (p, g) in params.iter_mut().zip(&flat) {
            if g.is_finite() {
                *p -= 1e-4 * g;
            }
        }
        std::hint::black_box(params[0]);
    });

    PerfRow {
        layers: n,
        record_ns,
        sweep_ns,
        gd_step_ns,
    }
}

/// Measure all depths. `quick` trades precision for seconds-scale runtime
/// (used by the CI smoke); the full mode is what `BENCH_6.json` records.
pub fn measure(quick: bool) -> PerfReport {
    let (samples, batch) = if quick { (5, 4) } else { (21, 16) };
    PerfReport {
        rows: LAYER_COUNTS
            .iter()
            .map(|&n| measure_depth(n, samples, batch))
            .collect(),
    }
}

impl PerfReport {
    /// Hand-rolled JSON encoding (the workspace carries no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str("  \"unit\": \"ns_per_op_median\",\n");
        s.push_str("  \"results\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"layers\": {}, \"record_ns\": {:.1}, \"sweep_ns\": {:.1}, \
                 \"gd_step_ns\": {:.1}}}{}\n",
                r.layers,
                r.record_ns,
                r.sweep_ns,
                r.gd_step_ns,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Print the report as an aligned terminal table.
    pub fn print(&self) {
        println!(
            "{:>7} {:>12} {:>12} {:>12}",
            "layers", "record_ns", "sweep_ns", "gd_step_ns"
        );
        for r in &self.rows {
            println!(
                "{:>7} {:>12.1} {:>12.1} {:>12.1}",
                r.layers, r.record_ns, r.sweep_ns, r.gd_step_ns
            );
        }
    }
}

/// Where the perf trajectory lives: `BENCH_6.json` at the repository root.
pub fn bench_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_6.json")
}

/// Pull the number following `"key":` out of a JSON object line.
fn scan_number(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Validate a `BENCH_6.json` body: a [`SCHEMA`] or [`SCHEMA_V1`] tag,
/// one result row per entry of [`LAYER_COUNTS`], and every key of that
/// schema's rows present with a finite positive value. The scanning
/// parser mirrors [`PerfReport::to_json`]'s line-oriented layout.
pub fn validate_json(text: &str) -> Result<(), String> {
    let keys: &[&str] = match schema_tag(text) {
        Some(SCHEMA) => &KEYS,
        Some(SCHEMA_V1) => &KEYS_V1,
        _ => return Err(format!("missing or stale schema tag (want {SCHEMA})")),
    };
    let mut seen = Vec::new();
    for line in text.lines() {
        let Some(layers) = scan_number(line, "layers") else {
            continue;
        };
        seen.push(layers as usize);
        for &key in keys {
            let v = scan_number(line, key)
                .ok_or_else(|| format!("row layers={layers}: missing key {key}"))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "row layers={layers}: {key}={v} not finite-positive"
                ));
            }
        }
    }
    if seen != LAYER_COUNTS {
        return Err(format!(
            "layer counts {seen:?} do not match the measured set {:?}",
            LAYER_COUNTS
        ));
    }
    Ok(())
}

/// The value of the top-level `"schema"` tag.
fn schema_tag(text: &str) -> Option<&str> {
    let tag = "\"schema\": \"";
    let rest = &text[text.find(tag)? + tag.len()..];
    Some(&rest[..rest.find('"')?])
}

/// Every number in one side of an [`E2E_SCHEMA`] row. A value is what
/// follows a `:`, unless it opens an object or a string; each must parse
/// as a finite number.
fn side_values(side: &str) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for piece in side.split(':').skip(1) {
        let v = piece.trim_start();
        if v.starts_with('{') || v.starts_with('"') {
            continue;
        }
        let end = v.find([',', '}']).unwrap_or(v.len());
        let x: f64 = v[..end]
            .trim()
            .parse()
            .map_err(|_| format!("{:?} is not a number", v[..end].trim()))?;
        if !x.is_finite() {
            return Err(format!("{x} is not finite"));
        }
        out.push(x);
    }
    if out.is_empty() {
        return Err("side carries no value".into());
    }
    Ok(out)
}

/// Validate an [`E2E_SCHEMA`] body: at least one row, every row (a line
/// with a `"parent"` side) also has a `"change"` side after it, and both
/// sides hold only finite numbers.
pub fn validate_e2e_json(text: &str) -> Result<(), String> {
    if schema_tag(text) != Some(E2E_SCHEMA) {
        return Err(format!("missing or stale schema tag (want {E2E_SCHEMA})"));
    }
    let mut rows = 0;
    for (n, line) in text.lines().enumerate() {
        let Some(p) = line.find("\"parent\":") else {
            continue;
        };
        let c = line[p..]
            .find("\"change\":")
            .map(|c| p + c)
            .ok_or_else(|| format!("line {}: no change side", n + 1))?;
        for side in [&line[p..c], &line[c..]] {
            side_values(side).map_err(|e| format!("line {}: {e}", n + 1))?;
        }
        rows += 1;
    }
    if rows == 0 {
        return Err("no parent/change rows".into());
    }
    Ok(())
}

/// Validate one `BENCH_*.json` body with the validator its schema tag
/// names; an unknown tag is an error.
pub fn validate_bench(text: &str) -> Result<(), String> {
    match schema_tag(text) {
        Some(SCHEMA | SCHEMA_V1) => validate_json(text),
        Some(E2E_SCHEMA) => validate_e2e_json(text),
        Some(other) => Err(format!("unknown schema tag {other:?}")),
        None => Err("no schema tag".into()),
    }
}

/// Every `BENCH_*.json` at the repository root, sorted by name.
pub fn bench_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let entries =
        std::fs::read_dir(&root).unwrap_or_else(|e| panic!("cannot list {}: {e}", root.display()));
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

/// `repro bench`: full measurement, table to stdout, regenerate
/// `BENCH_6.json`.
pub fn run() {
    let report = measure(false);
    report.print();
    let json = report.to_json();
    validate_json(&json).expect("generated report must validate");
    let path = bench_json_path();
    std::fs::write(&path, json).expect("write BENCH_6.json");
    println!("\nwrote {}", path.display());
}

/// `repro --smoke bench`: seconds-scale re-measurement proving the
/// kernels run, then validation of every checked-in `BENCH_*.json` by its
/// schema tag (none is overwritten). Panics on a stale file, an unknown
/// tag or a missing `BENCH_6.json` — the CI gate.
pub fn run_smoke() {
    let report = measure(true);
    report.print();
    for r in &report.rows {
        assert!(
            r.record_ns.is_finite() && r.record_ns > 0.0,
            "smoke measurement produced a non-positive record median"
        );
    }
    let files = bench_files();
    assert!(
        files.iter().any(|p| p.ends_with("BENCH_6.json")),
        "missing {}",
        bench_json_path().display()
    );
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        if let Err(e) = validate_bench(&text) {
            panic!("stale {}: {e}", path.display());
        }
        println!("smoke bench OK: {} validates", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed kernel report with one row per measured depth.
    fn sample_report() -> PerfReport {
        PerfReport {
            rows: LAYER_COUNTS
                .iter()
                .map(|&n| PerfRow {
                    layers: n,
                    record_ns: 100.0,
                    sweep_ns: 50.0,
                    gd_step_ns: 200.0,
                })
                .collect(),
        }
    }

    /// A well-formed [`SCHEMA_V1`] body, in the layout that schema's
    /// records were written in.
    fn v1_sample() -> String {
        let rows: Vec<String> = LAYER_COUNTS
            .iter()
            .map(|n| {
                format!(
                    "    {{\"layers\": {n}, \"record_ns\": 100.0, \"sweep_ns\": 50.0, \
                     \"gd_step_ns\": 200.0, \"legacy_record_ns\": 250.0, \
                     \"legacy_sweep_ns\": 120.0, \"legacy_gd_step_ns\": 400.0, \
                     \"gd_step_speedup\": 2.000}}"
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"{SCHEMA_V1}\",\n  \"unit\": \"ns_per_op_median\",\n  \
             \"results\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }

    #[test]
    fn generated_json_roundtrips_through_validator() {
        let json = sample_report().to_json();
        assert!(json.contains(&format!("\"schema\": \"{SCHEMA}\"")));
        validate_json(&json).unwrap();
        validate_bench(&json).unwrap();
    }

    #[test]
    fn v1_records_keep_their_full_key_list() {
        validate_bench(&v1_sample()).unwrap();
        for key in &KEYS_V1[KEYS.len()..] {
            let text = v1_sample().replace(&format!("\"{key}\":"), "\"dropped\":");
            assert!(
                validate_bench(&text).is_err(),
                "v1 row without {key} accepted"
            );
        }
        // A current row under the old tag lacks the legacy columns.
        let relabelled = sample_report().to_json().replace(SCHEMA, SCHEMA_V1);
        assert!(validate_bench(&relabelled).is_err());
    }

    #[test]
    fn validator_rejects_bad_inputs() {
        assert!(validate_json("{}").is_err());
        let mut report = sample_report();
        report.rows[1].sweep_ns = f64::NAN;
        assert!(validate_json(&report.to_json()).is_err());
        report.rows[1].sweep_ns = 50.0;
        report.rows.pop();
        assert!(validate_json(&report.to_json()).is_err());
    }

    /// A well-formed [`E2E_SCHEMA`] body with one row of each shape.
    fn e2e_sample() -> String {
        format!(
            "{{\n  \"schema\": \"{E2E_SCHEMA}\",\n  \"pairs\": 10,\n  \"end_to_end\": [\n    \
             {{\"workload\": \"w\", \"metric\": \"gd_s\", \"parent\": {{\"median\": 4.9, \
             \"q1\": 4.8, \"q3\": 5.0}}, \"change\": {{\"median\": 2.5, \"q1\": 2.4, \
             \"q3\": 2.6}}}}\n  ],\n  \"stages\": [\n    {{\"stage\": \"gd.tape.record_s\", \
             \"parent\": 6.09, \"change\": 2.38}}\n  ]\n}}\n"
        )
    }

    #[test]
    fn e2e_validator_rejects_bad_inputs() {
        validate_e2e_json(&e2e_sample()).unwrap();
        validate_bench(&e2e_sample()).unwrap();
        assert!(validate_e2e_json("{}").is_err());
        // A non-finite or non-numeric value on either side.
        for bad in ["NaN", "inf", "null", "\"x\""] {
            let text = e2e_sample().replace("2.38", bad);
            assert!(validate_e2e_json(&text).is_err(), "{bad} accepted");
        }
        assert!(validate_e2e_json(&e2e_sample().replace("4.8", "NaN")).is_err());
        // A row missing its change side fails; a line with neither side
        // is not a row, and a body without rows fails.
        let text = e2e_sample().replace(", \"change\": 2.38", "");
        assert!(validate_e2e_json(&text).is_err());
        let text = e2e_sample().replace("\"parent\": 6.09, \"change\": 2.38", "\"n\": 1");
        validate_e2e_json(&text).unwrap();
        let rows_gone = text.replace("\"parent\": {", "\"before\": {");
        assert!(validate_e2e_json(&rows_gone).is_err());
        // An empty side.
        let text = e2e_sample().replace("\"change\": 2.38", "\"change\": {}");
        assert!(validate_e2e_json(&text).is_err());
    }

    #[test]
    fn bench_dispatch_follows_the_schema_tag() {
        let report = sample_report();
        validate_bench(&report.to_json()).unwrap();
        // Each body fails the other schema's validator.
        assert!(validate_json(&e2e_sample()).is_err());
        assert!(validate_e2e_json(&report.to_json()).is_err());
        assert!(validate_e2e_json(&v1_sample()).is_err());
        let unknown = e2e_sample().replace(E2E_SCHEMA, "dosa-e2e-delta-v0");
        assert!(validate_bench(&unknown).is_err());
        assert!(validate_bench("{\"results\": []}").is_err());
    }

    #[test]
    fn checked_in_bench_files_validate() {
        let files = bench_files();
        assert!(files.iter().any(|p| p.ends_with("BENCH_6.json")));
        for path in files {
            let text = std::fs::read_to_string(&path).unwrap();
            if let Err(e) = validate_bench(&text) {
                panic!("{}: {e}", path.display());
            }
        }
    }

    #[test]
    fn quick_measurement_is_finite_and_positive() {
        let row = measure_depth(1, 3, 2);
        for v in [row.record_ns, row.sweep_ns, row.gd_step_ns] {
            assert!(v.is_finite() && v > 0.0);
        }
    }
}
