//! Every `BENCH_*.json` at the repository root validates by its schema tag.
//!
//! Two layouts are checked in, and no code writes either one:
//! - [`SCHEMA_V1`]: `BENCH_6.json`, the frozen hot-path kernel record
//!   (tape recording, backward sweep and a full GD step at 1, 4 and 16
//!   layers, on the current and on the since-deleted pre-refactor tape);
//! - [`E2E_SCHEMA`]: the end-to-end before/after records of the
//!   repository benchmark (`perfbench/`), one per change that claimed or
//!   checked a metric.
//!
//! An unknown tag fails, and so does a missing `BENCH_6.json`.

use std::path::{Path, PathBuf};

/// The network depths the kernel record holds one row for.
const LAYER_COUNTS: [usize; 3] = [1, 4, 16];

/// The kernel record's layout. Each row carries the current tape's
/// `record_ns`, `sweep_ns` and `gd_step_ns`, the pre-refactor tape's
/// `legacy_*` medians, and their `gd_step_speedup`.
const SCHEMA_V1: &str = "dosa-hotpath-bench-v1";

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
const E2E_SCHEMA: &str = "dosa-e2e-delta-v1";

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

/// The value of the top-level `"schema"` tag.
fn schema_tag(text: &str) -> Option<&str> {
    let tag = "\"schema\": \"";
    let rest = &text[text.find(tag)? + tag.len()..];
    Some(&rest[..rest.find('"')?])
}

/// Validate a [`SCHEMA_V1`] body: the tag, one result row per entry of
/// [`LAYER_COUNTS`], and every key of [`KEYS_V1`] present in each row with
/// a finite positive value. Rows are scanned line by line, one object per
/// line, as the record was written.
fn validate_v1(text: &str) -> Result<(), String> {
    if schema_tag(text) != Some(SCHEMA_V1) {
        return Err(format!("missing or stale schema tag (want {SCHEMA_V1})"));
    }
    let mut seen = Vec::new();
    for line in text.lines() {
        let Some(layers) = scan_number(line, "layers") else {
            continue;
        };
        seen.push(layers as usize);
        for key in KEYS_V1 {
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
            "layer counts {seen:?} do not match the measured set {LAYER_COUNTS:?}"
        ));
    }
    Ok(())
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
fn validate_e2e(text: &str) -> Result<(), String> {
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
fn validate_bench(text: &str) -> Result<(), String> {
    match schema_tag(text) {
        Some(SCHEMA_V1) => validate_v1(text),
        Some(E2E_SCHEMA) => validate_e2e(text),
        Some(other) => Err(format!("unknown schema tag {other:?}")),
        None => Err("no schema tag".into()),
    }
}

/// Every `BENCH_*.json` at the repository root, sorted by name.
fn bench_files() -> Vec<PathBuf> {
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

/// A well-formed [`SCHEMA_V1`] body, in the layout `BENCH_6.json` was
/// written in.
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
fn v1_records_keep_their_full_key_list() {
    validate_bench(&v1_sample()).unwrap();
    for key in KEYS_V1 {
        let text = v1_sample().replace(&format!("\"{key}\":"), "\"dropped\":");
        assert!(
            validate_bench(&text).is_err(),
            "v1 row without {key} accepted"
        );
    }
}

#[test]
fn validator_rejects_bad_inputs() {
    assert!(validate_v1("{}").is_err());
    let non_finite = v1_sample().replacen("\"sweep_ns\": 50.0", "\"sweep_ns\": NaN", 1);
    assert!(validate_v1(&non_finite).is_err());
    let non_positive = v1_sample().replacen("\"gd_step_ns\": 200.0", "\"gd_step_ns\": 0", 1);
    assert!(validate_v1(&non_positive).is_err());
    // A depth missing from the record.
    let row_gone: String = v1_sample()
        .lines()
        .filter(|line| !line.contains("\"layers\": 16"))
        .map(|line| format!("{line}\n"))
        .collect();
    assert!(validate_v1(&row_gone).is_err());
}

#[test]
fn e2e_validator_rejects_bad_inputs() {
    validate_e2e(&e2e_sample()).unwrap();
    validate_bench(&e2e_sample()).unwrap();
    assert!(validate_e2e("{}").is_err());
    // A non-finite or non-numeric value on either side.
    for bad in ["NaN", "inf", "null", "\"x\""] {
        let text = e2e_sample().replace("2.38", bad);
        assert!(validate_e2e(&text).is_err(), "{bad} accepted");
    }
    assert!(validate_e2e(&e2e_sample().replace("4.8", "NaN")).is_err());
    // A row missing its change side fails; a line with neither side
    // is not a row, and a body without rows fails.
    let text = e2e_sample().replace(", \"change\": 2.38", "");
    assert!(validate_e2e(&text).is_err());
    let text = e2e_sample().replace("\"parent\": 6.09, \"change\": 2.38", "\"n\": 1");
    validate_e2e(&text).unwrap();
    let rows_gone = text.replace("\"parent\": {", "\"before\": {");
    assert!(validate_e2e(&rows_gone).is_err());
    // An empty side.
    let text = e2e_sample().replace("\"change\": 2.38", "\"change\": {}");
    assert!(validate_e2e(&text).is_err());
}

#[test]
fn bench_dispatch_follows_the_schema_tag() {
    // Each body fails the other schema's validator.
    assert!(validate_v1(&e2e_sample()).is_err());
    assert!(validate_e2e(&v1_sample()).is_err());
    // Tags with no record behind them are unknown, the kernel record's
    // unwritten v2 layout among them.
    let unknown = e2e_sample().replace(E2E_SCHEMA, "dosa-e2e-delta-v0");
    assert!(validate_bench(&unknown).is_err());
    let v2 = v1_sample().replace(SCHEMA_V1, "dosa-hotpath-bench-v2");
    assert!(validate_bench(&v2).is_err());
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
