//! Fixture self-tests for every lint rule: each rule must **fire** on a
//! bad fixture, stay **silent** on a good one, and be silenced — with the
//! suppression counted — by a justified pragma. A linter that can't prove
//! both directions on known input can't be trusted as a CI gate.

use dosa_lint::rules::lint_source;
use dosa_lint::Rule;

/// Path under a service-facing *and* deterministic crate: every rule
/// family applies.
const SEARCH: &str = "crates/search/src/fixture.rs";
/// Deterministic but not service-facing: `nondet-iteration` applies,
/// `panic-perimeter` does not.
const MODEL: &str = "crates/model/src/fixture.rs";
/// Neither deterministic nor service-facing.
const NN: &str = "crates/nn/src/fixture.rs";
/// A test file: only the always-on rules apply.
const TEST_FILE: &str = "crates/search/tests/fixture.rs";

fn rules_fired(path: &str, src: &str) -> Vec<Rule> {
    lint_source(path, src)
        .violations
        .iter()
        .map(|d| d.rule)
        .collect()
}

// ---------------------------------------------------------------- raw-mutex-lock

#[test]
fn raw_mutex_lock_fires_on_bad_input() {
    let src = "fn f(m: &std::sync::Mutex<u32>) -> u32 {\n    *m.lock().unwrap()\n}\n";
    let fired = rules_fired(NN, src);
    assert!(fired.contains(&Rule::RawMutexLock), "got {fired:?}");
    // Diagnostic points at the line holding `.lock(`.
    let lint = lint_source(NN, src);
    assert_eq!(lint.violations[0].line, 2);
}

#[test]
fn raw_mutex_lock_applies_even_in_test_code() {
    // A poisoned test mutex wedges the whole suite, so tests get no pass.
    let src = "#[test]\nfn t() {\n    let _ = M.lock();\n}\n";
    assert!(rules_fired(TEST_FILE, src).contains(&Rule::RawMutexLock));
}

#[test]
fn raw_mutex_lock_silent_on_good_input() {
    let src = "fn f(m: &std::sync::Mutex<u32>) -> u32 {\n    *crate::fault::lock(m)\n}\n";
    assert!(rules_fired(NN, src).is_empty());
}

#[test]
fn raw_mutex_lock_suppressed_by_pragma() {
    let src = "fn lock_shard(m: &std::sync::Mutex<u32>) -> u32 {\n    \
               // dosa-lint: allow(raw-mutex-lock) — this helper is the documented perimeter.\n    \
               *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)\n}\n";
    let lint = lint_source(NN, src);
    assert!(lint.violations.is_empty(), "got {:?}", lint.violations);
    assert_eq!(lint.suppressed, 1);
}

// ------------------------------------------------------------ undocumented-unsafe

#[test]
fn undocumented_unsafe_fires_on_bad_input() {
    let src = "fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n";
    assert!(rules_fired(NN, src).contains(&Rule::UndocumentedUnsafe));
}

#[test]
fn undocumented_unsafe_silent_with_safety_comment() {
    let src = "fn f(p: *const u32) -> u32 {\n    \
               // SAFETY: callers pass a valid, aligned, live pointer.\n    \
               unsafe { *p }\n}\n";
    assert!(rules_fired(NN, src).is_empty());
}

#[test]
fn undocumented_unsafe_fires_on_unsafe_fn_without_comment() {
    let src = "pub unsafe fn f(p: *const u32) -> u32 {\n    *p\n}\n";
    assert!(rules_fired(NN, src).contains(&Rule::UndocumentedUnsafe));
}

#[test]
fn undocumented_unsafe_suppressed_by_pragma() {
    let src = "fn f(p: *const u32) -> u32 {\n    \
               // dosa-lint: allow(undocumented-unsafe) — documented at the call site instead.\n    \
               unsafe { *p }\n}\n";
    let lint = lint_source(NN, src);
    assert!(lint.violations.is_empty());
    assert_eq!(lint.suppressed, 1);
}

// -------------------------------------------------------------- nondet-iteration

#[test]
fn nondet_iteration_fires_in_deterministic_crate() {
    let src =
        "use std::collections::HashMap;\nfn f() -> HashMap<u32, u32> {\n    HashMap::new()\n}\n";
    let fired = rules_fired(MODEL, src);
    assert!(fired.contains(&Rule::NondetIteration), "got {fired:?}");
}

#[test]
fn nondet_iteration_fires_on_hashset_too() {
    let src =
        "fn f() -> std::collections::HashSet<u32> {\n    std::collections::HashSet::new()\n}\n";
    assert!(rules_fired(MODEL, src).contains(&Rule::NondetIteration));
}

#[test]
fn nondet_iteration_ignores_non_deterministic_crates_and_tests() {
    let src =
        "use std::collections::HashMap;\nfn f() -> HashMap<u32, u32> {\n    HashMap::new()\n}\n";
    assert!(rules_fired(NN, src).is_empty());
    assert!(rules_fired(TEST_FILE, src).is_empty());
    // ... and #[cfg(test)] modules inside a deterministic crate.
    let in_mod = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    \
                  #[test]\n    fn t() {\n        let _ = HashMap::<u32, u32>::new();\n    }\n}\n";
    assert!(rules_fired(MODEL, in_mod).is_empty());
}

#[test]
fn nondet_iteration_silent_on_btreemap() {
    let src =
        "use std::collections::BTreeMap;\nfn f() -> BTreeMap<u32, u32> {\n    BTreeMap::new()\n}\n";
    assert!(rules_fired(MODEL, src).is_empty());
}

#[test]
fn nondet_iteration_suppressed_by_pragma() {
    let src = "// dosa-lint: allow(nondet-iteration) — keyed by id, never iterated.\n\
               use std::collections::HashMap;\nfn f() {\n    let _: Option<HashMap<u32, u32>> = None;\n}\n";
    let lint = lint_source(MODEL, src);
    // The pragma covers the `use` line; the body mention two lines down
    // still fires — suppression is deliberately line-scoped, not file-wide.
    assert_eq!(lint.suppressed, 1);
    assert!(lint.violations.iter().all(|d| d.line > 2));
}

// --------------------------------------------------------------- panic-perimeter

#[test]
fn panic_perimeter_fires_on_unwrap_expect_and_panic() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n\
               fn g(x: Option<u32>) -> u32 {\n    x.expect(\"present\")\n}\n\
               fn h() {\n    panic!(\"boom\");\n}\n";
    let fired = rules_fired(SEARCH, src);
    assert_eq!(
        fired.iter().filter(|r| **r == Rule::PanicPerimeter).count(),
        3,
        "got {fired:?}"
    );
}

#[test]
fn panic_perimeter_only_applies_to_service_crates() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert!(rules_fired(NN, src).is_empty());
    assert!(rules_fired(MODEL, src).is_empty());
}

#[test]
fn panic_perimeter_exempts_test_code() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert!(rules_fired(TEST_FILE, src).is_empty());
    let in_mod = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                  Some(1u32).unwrap();\n    }\n}\n";
    assert!(rules_fired(SEARCH, in_mod).is_empty());
}

#[test]
fn panic_perimeter_suppressed_by_pragma() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    \
               // dosa-lint: allow(panic-perimeter) — unreachable: validated at submit.\n    \
               x.unwrap()\n}\n";
    let lint = lint_source(SEARCH, src);
    assert!(lint.violations.is_empty());
    assert_eq!(lint.suppressed, 1);
}

// --------------------------------------------------------------------- float-eq

#[test]
fn float_eq_fires_on_literal_and_nan_comparisons() {
    let src = "fn f(x: f64) -> bool {\n    x == 1.5\n}\n\
               fn g(x: f64) -> bool {\n    x != f64::NAN\n}\n";
    let fired = rules_fired(NN, src);
    assert_eq!(
        fired.iter().filter(|r| **r == Rule::FloatEq).count(),
        2,
        "got {fired:?}"
    );
}

#[test]
fn float_eq_silent_on_integer_compare_and_tolerance() {
    let src = "fn f(x: i64) -> bool {\n    x == 1\n}\n\
               fn g(a: f64, b: f64) -> bool {\n    (a - b).abs() < 1e-12\n}\n\
               fn h(a: f64, b: f64) -> bool {\n    a.to_bits() == b.to_bits()\n}\n";
    assert!(rules_fired(NN, src).is_empty());
}

#[test]
fn float_eq_exempts_test_code() {
    let src = "#[test]\nfn t() {\n    assert!(1.0 == compute());\n}\n";
    assert!(rules_fired(TEST_FILE, src).is_empty());
}

#[test]
fn float_eq_suppressed_by_pragma() {
    let src = "fn f(x: f64) -> u64 {\n    \
               // dosa-lint: allow(float-eq) — IEEE == is the canonicalization.\n    \
               if x == 0.0 { 0 } else { x.to_bits() }\n}\n";
    let lint = lint_source(NN, src);
    assert!(lint.violations.is_empty());
    assert_eq!(lint.suppressed, 1);
}

// ------------------------------------------------------------------- wall-clock

#[test]
fn wall_clock_fires_on_instant_and_system_time_in_deterministic_crates() {
    let src = "fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n\
               fn g() -> std::time::SystemTime {\n    std::time::SystemTime::now()\n}\n";
    let fired = rules_fired(SEARCH, src);
    assert_eq!(
        fired.iter().filter(|r| **r == Rule::WallClock).count(),
        4,
        "got {fired:?}"
    );
    assert!(rules_fired(MODEL, src).contains(&Rule::WallClock));
}

#[test]
fn wall_clock_ignores_test_code_and_other_crates() {
    let src = "use std::time::Instant;\nfn f() {\n    let _ = Instant::now();\n}\n";
    assert!(rules_fired(NN, src).is_empty());
    assert!(rules_fired(TEST_FILE, src).is_empty());
    let in_mod = "#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    \
                  #[test]\n    fn t() {\n        let _ = Instant::now();\n    }\n}\n";
    assert!(rules_fired(SEARCH, in_mod).is_empty());
}

#[test]
fn wall_clock_suppressed_by_pragma() {
    let src = "// dosa-lint: allow(wall-clock) — the deadline perimeter, never feeds a result.\n\
               type Clock = std::time::Instant;\n";
    let lint = lint_source(SEARCH, src);
    assert!(lint.violations.is_empty(), "got {:?}", lint.violations);
    assert_eq!(lint.suppressed, 1);
}

// ---------------------------------------------------------------- invalid-pragma

#[test]
fn bare_pragma_without_justification_is_invalid_and_does_not_suppress() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    \
               // dosa-lint: allow(panic-perimeter)\n    \
               x.unwrap()\n}\n";
    let lint = lint_source(SEARCH, src);
    let fired: Vec<Rule> = lint.violations.iter().map(|d| d.rule).collect();
    assert!(fired.contains(&Rule::InvalidPragma), "got {fired:?}");
    assert!(fired.contains(&Rule::PanicPerimeter), "got {fired:?}");
    assert_eq!(lint.suppressed, 0);
}

#[test]
fn unknown_rule_name_in_pragma_is_invalid() {
    let src = "// dosa-lint: allow(made-up-rule) — a perfectly sincere justification.\nfn f() {}\n";
    assert!(rules_fired(NN, src).contains(&Rule::InvalidPragma));
}

#[test]
fn pragma_cannot_allow_invalid_pragma_itself() {
    let src = "// dosa-lint: allow(invalid-pragma) — trying to silence the meta-rule.\nfn f() {}\n";
    assert!(rules_fired(NN, src).contains(&Rule::InvalidPragma));
}

#[test]
fn prose_mentioning_the_tool_is_not_a_pragma() {
    let src = "// The dosa-lint: style pragmas are documented in ARCHITECTURE.md.\n\
               //! Run dosa-lint via `repro lint`.\nfn f() {}\n";
    let lint = lint_source(NN, src);
    assert!(lint.violations.is_empty(), "got {:?}", lint.violations);
    assert_eq!(lint.suppressed, 0);
}
