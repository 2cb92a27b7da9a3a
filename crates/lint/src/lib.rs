//! # dosa-lint
//!
//! The workspace invariant checker: a hand-rolled, comment/string/raw-
//! string-aware Rust lexer ([`lexer`]) feeding a rule engine ([`rules`])
//! that walks every workspace `.rs` file and mechanically enforces the
//! project's load-bearing conventions — bit-exact determinism, service-
//! wide panic containment, and the unsafe audit trail. The workspace is
//! offline-vendored, so there is no `syn`; the lexer is the whole
//! front-end, and every rule is a short token-sequence pattern.
//!
//! `cargo test` runs it over the workspace (`tests/workspace.rs`), and the
//! standalone `dosa-lint` binary prints the full report, exiting nonzero
//! on any unsuppressed violation. Suppressions are explicit, per-line, and
//! auditable:
//!
//! ```text
//! // dosa-lint: allow(panic-perimeter) — validated at submit(); index is in bounds
//! let cfg = self.configs.get(i).unwrap();
//! ```
//!
//! A pragma without a written justification is itself a violation
//! (`invalid-pragma`). See `ARCHITECTURE.md`, "Static analysis &
//! invariant enforcement", for the rule table and how each rule maps to a
//! determinism or containment invariant.
//!
//! `vendor/` is deliberately **not** walked: the vendored stand-ins are
//! third-party API shims kept byte-stable (they use raw locks and hash
//! maps internally by design) and are covered by the `cargo clippy`
//! allowlist instead.

#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

pub use rules::{Diagnostic, FileLint, FileScope, Rule};

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never walked: generated output, third-party code, and VCS
/// internals.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "output_dir", "node_modules"];

/// The outcome of linting a whole workspace tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files checked.
    pub files: usize,
    /// Unsuppressed violations across all files, in (file, line) order.
    pub violations: Vec<Diagnostic>,
    /// Violations silenced by justified pragmas, across all files.
    pub suppressed: usize,
}

impl Report {
    /// Whether the tree passes (zero unsuppressed violations).
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Per-rule violation counts, in [`Rule::ALL`] order (zero-count rules
    /// included, so the summary always shows the full rule set).
    pub fn counts(&self) -> Vec<(Rule, usize)> {
        let mut by_rule: BTreeMap<Rule, usize> = Rule::ALL.iter().map(|&r| (r, 0)).collect();
        for d in &self.violations {
            *by_rule.entry(d.rule).or_default() += 1;
        }
        Rule::ALL.iter().map(|&r| (r, by_rule[&r])).collect()
    }

    /// Render the full report: every diagnostic, then the per-rule
    /// summary table and the verdict line.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for d in &self.violations {
            let _ = writeln!(out, "{d}");
        }
        if !self.violations.is_empty() {
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "rule                 violations");
        for (rule, n) in self.counts() {
            let _ = writeln!(out, "{:<20} {n}", rule.name());
        }
        let _ = writeln!(
            out,
            "\n{} file(s) checked, {} violation(s), {} suppressed by pragma — {}",
            self.files,
            self.violations.len(),
            self.suppressed,
            if self.clean() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Ascend from `start` to the workspace root: the nearest ancestor whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Every lintable `.rs` file under `root`, as workspace-relative paths
/// with forward slashes, sorted for deterministic reports.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Lint every workspace `.rs` file under `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    for rel in workspace_files(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let file = rules::lint_source(&rel, &src);
        report.files += 1;
        report.suppressed += file.suppressed;
        report.violations.extend(file.violations);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_classification() {
        let s = FileScope::from_path("crates/search/src/service.rs");
        assert!(s.deterministic_crate && s.service_crate && !s.test_file);
        let s = FileScope::from_path("crates/model/src/edp.rs");
        assert!(s.deterministic_crate && !s.service_crate);
        let s = FileScope::from_path("crates/search/tests/service.rs");
        assert!(s.test_file && !s.deterministic_crate && !s.service_crate);
        let s = FileScope::from_path("crates/bench/src/main.rs");
        assert!(!s.deterministic_crate && !s.service_crate && !s.test_file);
        let s = FileScope::from_path("examples/batched_service.rs");
        assert!(s.test_file);
        let s = FileScope::from_path("src/lib.rs");
        assert!(!s.deterministic_crate && !s.test_file);
    }

    #[test]
    fn report_renders_counts_and_verdict() {
        let mut r = Report {
            files: 3,
            ..Default::default()
        };
        assert!(r.clean());
        assert!(r.render().contains("PASS"));
        r.violations.push(Diagnostic {
            file: "x.rs".into(),
            line: 1,
            rule: Rule::FloatEq,
            message: "m".into(),
        });
        assert!(!r.clean());
        let rendered = r.render();
        assert!(rendered.contains("FAIL"));
        assert!(rendered.contains("float-eq"));
        assert!(rendered.contains("x.rs:1:"));
    }
}
