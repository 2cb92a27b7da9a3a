//! The workspace itself passes every lint rule, so `cargo test` blocks a
//! change that breaks an invariant. On failure the full report names each
//! violation and its rule.

use dosa_lint::{find_workspace_root, lint_workspace};
use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("crate lies inside a Cargo workspace");
    let report = lint_workspace(&root).expect("workspace sources are readable");
    assert!(
        report.files > 0,
        "no .rs files found under {}",
        root.display()
    );
    assert!(report.clean(), "\n{}", report.render());
}
