//! The rule engine: named project-invariant rules over one file's token
//! stream, pragma-based suppression, and `#[cfg(test)]` scoping.
//!
//! Every rule guards a documented workspace invariant (see
//! `ARCHITECTURE.md`, "Static analysis & invariant enforcement"):
//!
//! | rule | invariant |
//! | --- | --- |
//! | `raw-mutex-lock` | poisoning recovery: all locking goes through `fault::lock`/`wait` or the `dosa-cache` store-lock helper |
//! | `undocumented-unsafe` | unsafe audit: every `unsafe` block/fn carries a `// SAFETY:` comment |
//! | `nondet-iteration` | bit-exact determinism: no `HashMap`/`HashSet` in deterministic crates' non-test code |
//! | `panic-perimeter` | panic containment: no `.unwrap()`/`.expect(`/`panic!` in service-facing library code |
//! | `float-eq` | bit-parity discipline: no `==`/`!=` against float literals outside tests |
//! | `wall-clock` | time cannot feed results: no `Instant`/`SystemTime` in deterministic crates' non-test code |
//!
//! Suppression is explicit and auditable: a
//! `// dosa-lint: allow(<rule>) — <justification>` comment suppresses that
//! rule on its own line and on the next code line, and the justification
//! text is **required** — a bare pragma is itself a violation
//! (`invalid-pragma`).

use crate::lexer::{Token, TokenKind};

/// The named rules. `invalid-pragma` is the meta-rule that fires on
/// malformed or unjustified suppression pragmas; it is deliberately not
/// suppressible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `.lock()` outside the poisoning-recovery helpers.
    RawMutexLock,
    /// `unsafe` without an immediately preceding `// SAFETY:` comment.
    UndocumentedUnsafe,
    /// `HashMap`/`HashSet` in a deterministic crate's non-test code.
    NondetIteration,
    /// `.unwrap()`/`.expect(`/`panic!` in service-facing library code.
    PanicPerimeter,
    /// `==`/`!=` against a float literal or float constant.
    FloatEq,
    /// `Instant`/`SystemTime` in a deterministic crate's non-test code.
    WallClock,
    /// A malformed, unknown, or unjustified `dosa-lint:` pragma.
    InvalidPragma,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 7] = [
        Rule::RawMutexLock,
        Rule::UndocumentedUnsafe,
        Rule::NondetIteration,
        Rule::PanicPerimeter,
        Rule::FloatEq,
        Rule::WallClock,
        Rule::InvalidPragma,
    ];

    /// The rule's kebab-case name as written in pragmas and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::RawMutexLock => "raw-mutex-lock",
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::NondetIteration => "nondet-iteration",
            Rule::PanicPerimeter => "panic-perimeter",
            Rule::FloatEq => "float-eq",
            Rule::WallClock => "wall-clock",
            Rule::InvalidPragma => "invalid-pragma",
        }
    }

    /// Parse a pragma rule name. `invalid-pragma` is not allowable, so it
    /// does not parse.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "raw-mutex-lock" => Some(Rule::RawMutexLock),
            "undocumented-unsafe" => Some(Rule::UndocumentedUnsafe),
            "nondet-iteration" => Some(Rule::NondetIteration),
            "panic-perimeter" => Some(Rule::PanicPerimeter),
            "float-eq" => Some(Rule::FloatEq),
            "wall-clock" => Some(Rule::WallClock),
            _ => None,
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable description with the expected remedy.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Which rule families apply to a file, derived from its
/// workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileScope {
    /// The whole file is test/bench/example code (`tests/`, `benches/`,
    /// `examples/` directories).
    pub test_file: bool,
    /// Library code of a crate whose results must be bit-exact
    /// (`search`, `model`, `autodiff`, `cache`): `nondet-iteration` and
    /// `wall-clock` apply.
    pub deterministic_crate: bool,
    /// Library code of a service-facing crate (`search`, `cache`):
    /// `panic-perimeter` applies.
    pub service_crate: bool,
}

/// Crates whose non-test code must iterate deterministically and never
/// read the clock.
pub const DETERMINISTIC_CRATES: [&str; 4] = ["autodiff", "cache", "model", "search"];

/// Crates whose library code faces the service and must stay panic-free
/// outside documented perimeters.
pub const SERVICE_CRATES: [&str; 2] = ["cache", "search"];

impl FileScope {
    /// Classify a workspace-relative path (forward slashes).
    pub fn from_path(rel: &str) -> FileScope {
        let rel = rel.replace('\\', "/");
        let in_dir =
            |dir: &str| rel.starts_with(&format!("{dir}/")) || rel.contains(&format!("/{dir}/"));
        let test_file = in_dir("tests") || in_dir("benches") || in_dir("examples");
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .filter(|_| rel.contains("/src/"));
        let deterministic_crate =
            crate_name.is_some_and(|c| DETERMINISTIC_CRATES.contains(&c)) && !test_file;
        let service_crate = crate_name.is_some_and(|c| SERVICE_CRATES.contains(&c)) && !test_file;
        FileScope {
            test_file,
            deterministic_crate,
            service_crate,
        }
    }
}

/// A parsed `// dosa-lint: allow(<rule>) — <justification>` pragma.
struct Pragma {
    rule: Rule,
    /// The pragma comment's own line; it suppresses `rule` here and on
    /// the next code line.
    line: u32,
}

/// Minimum justification length (after stripping separator punctuation).
/// Short enough to never reject a real sentence, long enough that `— ok`
/// does not count as an audit trail.
const MIN_JUSTIFICATION: usize = 10;

/// The outcome of linting one file.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Unsuppressed violations, in line order.
    pub violations: Vec<Diagnostic>,
    /// Violations silenced by a justified pragma.
    pub suppressed: usize,
}

/// Lint one file's source. `rel_path` decides rule scoping (see
/// [`FileScope`]); pass paths exactly as they appear in the workspace
/// (e.g. `crates/search/src/service.rs`).
pub fn lint_source(rel_path: &str, src: &str) -> FileLint {
    let scope = FileScope::from_path(rel_path);
    let tokens = crate::lexer::lex(src);
    // Code view: indices of non-comment tokens, the stream rules match on.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].kind.is_comment())
        .collect();

    let test_regions = find_test_regions(&tokens, &code);
    let in_test = |line: u32| {
        scope.test_file
            || test_regions
                .iter()
                .any(|&(lo, hi)| lo <= line && line <= hi)
    };

    let mut raw: Vec<(Rule, u32, String)> = Vec::new();

    raw_mutex_lock(&tokens, &code, &mut raw);
    undocumented_unsafe(&tokens, &mut raw);
    if scope.deterministic_crate {
        nondet_iteration(&tokens, &code, &in_test, &mut raw);
        wall_clock(&tokens, &code, &in_test, &mut raw);
    }
    if scope.service_crate {
        panic_perimeter(&tokens, &code, &in_test, &mut raw);
    }
    float_eq(&tokens, &code, &in_test, &mut raw);

    let (pragmas, mut violations) = collect_pragmas(rel_path, &tokens);
    // A pragma covers its own line and the next line holding code.
    let next_code_line = |after: u32| {
        code.iter()
            .map(|&i| tokens[i].line)
            .filter(|&l| l > after)
            .min()
    };

    let mut suppressed = 0usize;
    for (rule, line, message) in raw {
        let covered = pragmas
            .iter()
            .any(|p| p.rule == rule && (p.line == line || next_code_line(p.line) == Some(line)));
        if covered {
            suppressed += 1;
        } else {
            violations.push(Diagnostic {
                file: rel_path.to_string(),
                line,
                rule,
                message,
            });
        }
    }
    violations.sort_by_key(|d| (d.line, d.rule));
    FileLint {
        violations,
        suppressed,
    }
}

/// Parse every `dosa-lint:` pragma; malformed ones become
/// [`Rule::InvalidPragma`] diagnostics (never suppressible).
fn collect_pragmas(rel_path: &str, tokens: &[Token]) -> (Vec<Pragma>, Vec<Diagnostic>) {
    let mut pragmas = Vec::new();
    let mut bad = Vec::new();
    for tok in tokens {
        let Some(text) = tok.kind.comment_text() else {
            continue;
        };
        // A pragma must START the comment (doc markers `/`/`!` and
        // whitespace aside) — prose that merely mentions dosa-lint, like
        // this sentence or the syntax examples in the docs, is not a
        // pragma attempt.
        let trimmed = text.trim_start_matches(['/', '!', ' ', '\t']);
        if !trimmed.starts_with("dosa-lint") {
            continue;
        }
        let at = text.find("dosa-lint").expect("starts_with implies find");
        let mut fail = |message: String| {
            bad.push(Diagnostic {
                file: rel_path.to_string(),
                line: tok.line,
                rule: Rule::InvalidPragma,
                message,
            });
        };
        let rest = text[at + "dosa-lint".len()..].trim_start();
        let Some(rest) = rest.strip_prefix(':') else {
            fail("pragma must read `dosa-lint: allow(<rule>) — <justification>`".into());
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            fail("pragma must read `dosa-lint: allow(<rule>) — <justification>`".into());
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('(') else {
            fail("missing `(` after `allow`".into());
            continue;
        };
        let Some(close) = rest.find(')') else {
            fail("missing `)` after the rule name".into());
            continue;
        };
        let names = &rest[..close];
        let justification = rest[close + 1..]
            .trim_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':' | ','));
        let mut rules = Vec::new();
        let mut ok = true;
        for name in names.split(',') {
            match Rule::from_name(name.trim()) {
                Some(rule) => rules.push(rule),
                None => {
                    fail(format!(
                        "unknown rule `{}` (known: {})",
                        name.trim(),
                        Rule::ALL
                            .iter()
                            .filter(|r| **r != Rule::InvalidPragma)
                            .map(|r| r.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                    ok = false;
                }
            }
        }
        if !ok {
            continue;
        }
        if justification.chars().count() < MIN_JUSTIFICATION {
            fail(format!(
                "pragma needs a written justification (≥ {MIN_JUSTIFICATION} chars) after `allow(…)`"
            ));
            continue;
        }
        for rule in rules {
            pragmas.push(Pragma {
                rule,
                line: tok.line,
            });
        }
    }
    (pragmas, bad)
}

/// Line ranges covered by `#[cfg(test)]`- or `#[test]`-attributed items
/// (the braces of the item the attribute precedes). Files under `tests/`
/// etc. are handled by [`FileScope::test_file`] instead.
fn find_test_regions(tokens: &[Token], code: &[usize]) -> Vec<(u32, u32)> {
    let tok = |k: usize| &tokens[code[k]];
    let mut regions: Vec<(u32, u32)> = Vec::new();
    let mut k = 0usize;
    while k + 2 < code.len() {
        // `#[cfg(test)]` => # [ cfg ( test ) ] ; `#[test]` => # [ test ].
        let is_cfg_test = k + 6 < code.len()
            && tok(k).kind == TokenKind::Punct('#')
            && tok(k + 1).kind == TokenKind::Punct('[')
            && tok(k + 2).kind.is_ident("cfg")
            && tok(k + 3).kind == TokenKind::Punct('(')
            && tok(k + 4).kind.is_ident("test")
            && tok(k + 5).kind == TokenKind::Punct(')')
            && tok(k + 6).kind == TokenKind::Punct(']');
        let is_test_attr = tok(k).kind == TokenKind::Punct('#')
            && tok(k + 1).kind == TokenKind::Punct('[')
            && tok(k + 2).kind.is_ident("test")
            && k + 3 < code.len()
            && tok(k + 3).kind == TokenKind::Punct(']');
        if !(is_cfg_test || is_test_attr) {
            k += 1;
            continue;
        }
        let mut j = k + if is_cfg_test { 7 } else { 4 };
        // Skip any further attributes between the test marker and the item.
        while j + 1 < code.len() && tok(j).kind == TokenKind::Punct('#') {
            let mut depth = 0usize;
            j += 1;
            while j < code.len() {
                match tok(j).kind {
                    TokenKind::Punct('[') => depth += 1,
                    TokenKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // The attributed item: everything to its matching closing brace
        // (or nothing, for brace-less items like `mod tests;`).
        while j < code.len()
            && tok(j).kind != TokenKind::Punct('{')
            && tok(j).kind != TokenKind::Punct(';')
        {
            j += 1;
        }
        if j < code.len() && tok(j).kind == TokenKind::Punct('{') {
            let open_line = tok(j).line;
            let mut depth = 0usize;
            while j < code.len() {
                match tok(j).kind {
                    TokenKind::Punct('{') => depth += 1,
                    TokenKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let close_line = if j < code.len() {
                tok(j).end_line
            } else {
                u32::MAX
            };
            regions.push((open_line, close_line));
            k = j.max(k + 1);
        } else {
            k = j.max(k + 1);
        }
    }
    regions
}

/// `raw-mutex-lock`: any `.lock(` call. Applies everywhere, tests
/// included — a poisoned test mutex wedges the suite exactly like a
/// production one. The helpers themselves carry pragmas.
fn raw_mutex_lock(tokens: &[Token], code: &[usize], out: &mut Vec<(Rule, u32, String)>) {
    for w in code.windows(3) {
        let [a, b, c] = [&tokens[w[0]], &tokens[w[1]], &tokens[w[2]]];
        if a.kind == TokenKind::Punct('.')
            && b.kind.is_ident("lock")
            && c.kind == TokenKind::Punct('(')
        {
            out.push((
                Rule::RawMutexLock,
                b.line,
                "raw `.lock()` bypasses poisoning recovery; use `fault::lock`/`wait` \
                 (crates/search/src/fault.rs) or the dosa-cache store-lock helper"
                    .into(),
            ));
        }
    }
}

/// `undocumented-unsafe`: every `unsafe` token must have a `// SAFETY:`
/// comment immediately above it (attribute lines and earlier code on the
/// same line are looked through).
fn undocumented_unsafe(tokens: &[Token], out: &mut Vec<(Rule, u32, String)>) {
    // Lines whose first non-comment token is `#` — attribute lines the
    // backward scan may step over.
    let mut first_code_on_line: std::collections::BTreeMap<u32, char> = Default::default();
    for t in tokens {
        if t.kind.is_comment() {
            continue;
        }
        first_code_on_line.entry(t.line).or_insert(match t.kind {
            TokenKind::Punct(c) => c,
            _ => '\0',
        });
    }
    let attr_line = |l: u32| first_code_on_line.get(&l) == Some(&'#');

    for i in 0..tokens.len() {
        if !tokens[i].kind.is_ident("unsafe") {
            continue;
        }
        let line = tokens[i].line;
        let mut documented = false;
        for j in (0..i).rev() {
            let t = &tokens[j];
            if let Some(text) = t.kind.comment_text() {
                if text.contains("SAFETY:") {
                    documented = true;
                    break;
                }
                continue; // scan up through a comment stack
            }
            if t.end_line == line || attr_line(t.line) {
                continue; // earlier code on the same line, or an attribute
            }
            break; // real code on an earlier line: the comment isn't adjacent
        }
        if !documented {
            out.push((
                Rule::UndocumentedUnsafe,
                line,
                "`unsafe` without an immediately preceding `// SAFETY:` comment stating the \
                 invariant that makes it sound"
                    .into(),
            ));
        }
    }
}

/// `nondet-iteration`: `HashMap`/`HashSet` in deterministic crates'
/// non-test code — iteration order varies run to run (and by hasher
/// seed), which can leak into result ordering and tie-breaking.
fn nondet_iteration(
    tokens: &[Token],
    code: &[usize],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<(Rule, u32, String)>,
) {
    for &i in code {
        let t = &tokens[i];
        let name = match &t.kind {
            TokenKind::Ident(n) if n == "HashMap" || n == "HashSet" => n,
            _ => continue,
        };
        if in_test(t.line) {
            continue;
        }
        let replacement = if name == "HashMap" {
            "BTreeMap"
        } else {
            "BTreeSet"
        };
        out.push((
            Rule::NondetIteration,
            t.line,
            format!(
                "`{name}` iteration order is nondeterministic; deterministic crates must use \
                 `{replacement}` in non-test code"
            ),
        ));
    }
}

/// `wall-clock`: `Instant`/`SystemTime` in deterministic crates' non-test
/// code — a clock read that reached a result would make it vary run to
/// run. The one sanctioned read, the service's deadline, carries a pragma.
fn wall_clock(
    tokens: &[Token],
    code: &[usize],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<(Rule, u32, String)>,
) {
    for &i in code {
        let t = &tokens[i];
        let name = match &t.kind {
            TokenKind::Ident(n) if n == "Instant" || n == "SystemTime" => n,
            _ => continue,
        };
        if in_test(t.line) {
            continue;
        }
        out.push((
            Rule::WallClock,
            t.line,
            format!(
                "`{name}` reads the wall clock; deterministic crates must not let time reach \
                 a result — keep timing out of non-test code or justify the perimeter with a pragma"
            ),
        ));
    }
}

/// `panic-perimeter`: `.unwrap()`, `.expect(`, and `panic!` in
/// service-facing library code. Jobs must fail typed (`JobError`), never
/// by unwinding through the service.
fn panic_perimeter(
    tokens: &[Token],
    code: &[usize],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<(Rule, u32, String)>,
) {
    for w in code.windows(3) {
        let [a, b, c] = [&tokens[w[0]], &tokens[w[1]], &tokens[w[2]]];
        if in_test(b.line) {
            continue;
        }
        let method_call = a.kind == TokenKind::Punct('.') && c.kind == TokenKind::Punct('(');
        let what = match &b.kind {
            TokenKind::Ident(n) if method_call && (n == "unwrap" || n == "expect") => {
                format!(".{n}()")
            }
            _ => {
                if a.kind.is_ident("panic") && b.kind == TokenKind::Punct('!') && !in_test(a.line) {
                    "panic!".to_string()
                } else {
                    continue;
                }
            }
        };
        let line = if what == "panic!" { a.line } else { b.line };
        out.push((
            Rule::PanicPerimeter,
            line,
            format!(
                "`{what}` in service-facing library code can unwind through the service; \
                 return a typed error or justify the perimeter with a pragma"
            ),
        ));
    }
}

const FLOAT_CONSTS: [&str; 3] = ["NAN", "INFINITY", "NEG_INFINITY"];

fn is_float_const(kind: &TokenKind) -> bool {
    matches!(kind, TokenKind::Ident(n) if FLOAT_CONSTS.contains(&n.as_str()))
}

/// `float-eq`: `==`/`!=` where one operand is literally a float (or a
/// named float constant). Exact float comparison is only sound in
/// bit-parity helpers, which live in test code; library code must compare
/// bits explicitly or use tolerances.
fn float_eq(
    tokens: &[Token],
    code: &[usize],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<(Rule, u32, String)>,
) {
    for k in 0..code.len() {
        let op = &tokens[code[k]];
        if op.kind != TokenKind::EqEq && op.kind != TokenKind::NotEq {
            continue;
        }
        if in_test(op.line) {
            continue;
        }
        let at = |d: isize| {
            let idx = k as isize + d;
            (idx >= 0 && (idx as usize) < code.len()).then(|| &tokens[code[idx as usize]].kind)
        };
        let prev_hit =
            matches!(at(-1), Some(TokenKind::Float)) || at(-1).is_some_and(is_float_const);
        let next_hit = matches!(at(1), Some(TokenKind::Float))
            || at(1).is_some_and(is_float_const)
            || (matches!(at(1), Some(TokenKind::Punct('-')))
                && matches!(at(2), Some(TokenKind::Float)))
            || (matches!(at(1), Some(TokenKind::Ident(n)) if n == "f64" || n == "f32")
                && matches!(at(2), Some(TokenKind::Punct(':')))
                && matches!(at(3), Some(TokenKind::Punct(':')))
                && at(4).is_some_and(is_float_const));
        if prev_hit || next_hit {
            let op_name = if op.kind == TokenKind::EqEq {
                "=="
            } else {
                "!="
            };
            out.push((
                Rule::FloatEq,
                op.line,
                format!(
                    "`{op_name}` against a float literal outside bit-parity test helpers; \
                     compare bits/tolerances explicitly or justify with a pragma"
                ),
            ));
        }
    }
}
