//! `BENCHMARK.json`: the benchmark's declaration of its command, workloads
//! and metrics, and the validator that enforces the file's schema.
//!
//! The program cross-checks every result it prints against this file, so
//! a metric cannot be added to or dropped from the code without the
//! declaration following.

use crate::json::{self, Json};
use std::collections::{BTreeMap, BTreeSet};

/// Largest accepted `BENCHMARK.json`.
const MAX_BYTES: usize = 64 * 1024;

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median a metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn is_rel_path(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && !s.split('/').any(|part| part == "..")
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
}

fn keys_exactly(obj: &BTreeMap<String, Json>, keys: &[&str], what: &str) -> Result<(), String> {
    let have: BTreeSet<&str> = obj.keys().map(String::as_str).collect();
    let want: BTreeSet<&str> = keys.iter().copied().collect();
    if have != want {
        return Err(format!(
            "{what} must have exactly the keys {want:?}, has {have:?}"
        ));
    }
    Ok(())
}

fn str_field<'a>(
    obj: &'a BTreeMap<String, Json>,
    key: &str,
    what: &str,
) -> Result<&'a str, String> {
    obj[key]
        .as_str()
        .ok_or_else(|| format!("{what}.{key} must be a string"))
}

fn list<'a>(v: &'a Json, what: &str, lo: usize, hi: usize) -> Result<&'a [Json], String> {
    let items = v.as_arr().ok_or_else(|| format!("{what} must be a list"))?;
    if items.len() < lo || items.len() > hi {
        return Err(format!(
            "{what} must hold {lo} to {hi} entries, holds {}",
            items.len()
        ));
    }
    Ok(items)
}

fn metrics(v: &Json, what: &str, hi: usize, bounded: bool) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    for item in list(v, what, 1, hi)? {
        let obj = item
            .as_obj()
            .ok_or_else(|| format!("{what} entries must be objects"))?;
        let keys: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        keys_exactly(obj, keys, what)?;
        let name = str_field(obj, "name", what)?;
        if !is_name(name) {
            return Err(format!("{what}: bad metric name {name:?}"));
        }
        let unit = str_field(obj, "unit", what)?;
        if !is_unit(unit) {
            return Err(format!("{what}.{name}: bad unit {unit:?}"));
        }
        let lower_is_better = match str_field(obj, "better", what)? {
            "lower" => true,
            "higher" => false,
            other => {
                return Err(format!(
                    "{what}.{name}: better must be lower|higher, not {other:?}"
                ))
            }
        };
        let bound = if bounded {
            let b = obj["bound"]
                .as_f64()
                .ok_or_else(|| format!("{what}.{name}: bound must be a number"))?;
            if !(b > 0.0 && b <= 0.25) {
                return Err(format!("{what}.{name}: bound {b} outside (0, 0.25]"));
            }
            Some(b)
        } else {
            None
        };
        out.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            lower_is_better,
            bound,
        });
    }
    Ok(out)
}

/// Parse and validate the text of a `BENCHMARK.json`.
pub fn parse(text: &str) -> Result<Spec, String> {
    if text.len() > MAX_BYTES {
        return Err(format!("file is {} bytes, limit {MAX_BYTES}", text.len()));
    }
    let doc = json::parse(text)?;
    let top = doc.as_obj().ok_or("top level must be an object")?;
    keys_exactly(
        top,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "BENCHMARK.json",
    )?;

    let mut command = Vec::new();
    for arg in list(&top["command"], "command", 1, 32)? {
        let arg = arg.as_str().ok_or("command entries must be strings")?;
        if arg.len() > 200 || arg.starts_with('/') || arg.split('/').any(|p| p == "..") {
            return Err(format!("bad command argument {arg:?}"));
        }
        command.push(arg.to_string());
    }
    let mut paths = Vec::new();
    for p in list(&top["paths"], "paths", 1, 16)? {
        let p = p.as_str().ok_or("paths entries must be strings")?;
        if !is_rel_path(p) {
            return Err(format!("bad path {p:?}"));
        }
        paths.push(p.to_string());
    }
    let run_seconds = top["run_seconds"]
        .as_f64()
        .filter(|s| *s == s.trunc() && (1.0..=60.0).contains(s))
        .ok_or("run_seconds must be a whole number from 1 to 60")? as u64;

    let mut workloads = Vec::new();
    for w in list(&top["workloads"], "workloads", 2, 8)? {
        let obj = w.as_obj().ok_or("workloads entries must be objects")?;
        keys_exactly(obj, &["name", "why"], "workload")?;
        let name = str_field(obj, "name", "workload")?;
        let why = str_field(obj, "why", "workload")?;
        if !is_name(name) {
            return Err(format!("bad workload name {name:?}"));
        }
        if why.is_empty() || why.chars().count() > 200 || why.contains('\n') {
            return Err(format!(
                "workload {name}: why must be one line of at most 200 characters"
            ));
        }
        workloads.push(Workload {
            name: name.to_string(),
            why: why.to_string(),
        });
    }
    let end_to_end = metrics(&top["end_to_end"], "end_to_end", 16, true)?;
    let per_layer = metrics(&top["per_layer"], "per_layer", 128, false)?;

    match end_to_end.iter().find(|m| m.name == "setup_s") {
        Some(m) if m.unit == "s" && m.lower_is_better => {}
        _ => return Err("end_to_end must declare setup_s in s, better lower".into()),
    }
    let mut seen = BTreeSet::new();
    let names = workloads
        .iter()
        .map(|w| &w.name)
        .chain(end_to_end.iter().map(|m| &m.name))
        .chain(per_layer.iter().map(|m| &m.name));
    for name in names {
        if !seen.insert(name.as_str()) {
            return Err(format!("name {name:?} is used more than once"));
        }
    }
    Ok(Spec {
        command,
        paths,
        run_seconds,
        workloads,
        end_to_end,
        per_layer,
    })
}

impl Spec {
    /// The canonical JSON form (object keys sorted).
    #[cfg(test)]
    pub fn to_json(&self) -> Json {
        let s = |v: &str| Json::Str(v.to_string());
        let metric = |m: &Metric| {
            let mut o = BTreeMap::new();
            o.insert("name".into(), s(&m.name));
            o.insert("unit".into(), s(&m.unit));
            o.insert(
                "better".into(),
                s(if m.lower_is_better { "lower" } else { "higher" }),
            );
            if let Some(b) = m.bound {
                o.insert("bound".into(), Json::Num(b));
            }
            Json::Obj(o)
        };
        let mut top = BTreeMap::new();
        top.insert(
            "command".into(),
            Json::Arr(self.command.iter().map(|c| s(c)).collect()),
        );
        top.insert(
            "paths".into(),
            Json::Arr(self.paths.iter().map(|p| s(p)).collect()),
        );
        top.insert("run_seconds".into(), Json::Num(self.run_seconds as f64));
        top.insert(
            "workloads".into(),
            Json::Arr(
                self.workloads
                    .iter()
                    .map(|w| {
                        let mut o = BTreeMap::new();
                        o.insert("name".into(), s(&w.name));
                        o.insert("why".into(), s(&w.why));
                        Json::Obj(o)
                    })
                    .collect(),
            ),
        );
        top.insert(
            "end_to_end".into(),
            Json::Arr(self.end_to_end.iter().map(metric).collect()),
        );
        top.insert(
            "per_layer".into(),
            Json::Arr(self.per_layer.iter().map(metric).collect()),
        );
        Json::Obj(top)
    }

    /// The metrics a run with `trace` must print.
    pub fn metrics_for(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checked_in() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
    }

    #[test]
    fn checked_in_file_round_trips_through_the_validator() {
        let spec = parse(&checked_in()).unwrap();
        let again = parse(&spec.to_json().to_string()).unwrap();
        assert_eq!(spec, again);
        assert!(spec.workloads.len() >= 2);
    }

    #[test]
    fn checked_in_file_declares_what_the_program_reports() {
        let spec = parse(&checked_in()).unwrap();
        let declared: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(declared, crate::WORKLOADS);
        let e2e: Vec<(&str, &str)> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(e2e, crate::report::END_TO_END);
        let layer: Vec<(&str, &str)> = spec
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(layer, crate::report::PER_LAYER);
    }

    #[test]
    fn rejects_schema_violations() {
        let good = checked_in();
        let cases = [
            good.replacen("\"run_seconds\"", "\"run_secs\"", 1),
            good.replacen("\"setup_s\"", "\"setup-time\"", 1),
            good.replacen("\"bound\": 0.25", "\"bound\": 0.5", 1),
            good.replacen("\"better\": \"lower\"", "\"better\": \"less\"", 1),
            good.replacen("\"perfbench\"]", "\"../perfbench\"]", 1),
        ];
        for (i, bad) in cases.iter().enumerate() {
            assert_ne!(bad, &good, "case {i} did not change the file");
            assert!(parse(bad).is_err(), "case {i} was accepted");
        }
    }
}
