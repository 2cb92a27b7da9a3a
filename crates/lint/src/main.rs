//! Standalone entry point: `dosa-lint [ROOT]`.
//!
//! With no argument, ascends from the current directory to the enclosing
//! Cargo workspace root. Prints every unsuppressed violation plus the
//! per-rule summary and exits nonzero on any violation — the same check
//! `cargo test` runs in `tests/workspace.rs`.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = match std::env::args().nth(1) {
        Some(arg) if arg == "--help" || arg == "-h" => {
            eprintln!("usage: dosa-lint [WORKSPACE_ROOT]");
            return ExitCode::SUCCESS;
        }
        Some(arg) => PathBuf::from(arg),
        None => {
            let cwd = std::env::current_dir().expect("cannot read current directory");
            match dosa_lint::find_workspace_root(&cwd) {
                Some(root) => root,
                None => {
                    eprintln!("dosa-lint: no enclosing Cargo workspace found");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    match dosa_lint::lint_workspace(&root) {
        Ok(report) => {
            print!("{}", report.render());
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("dosa-lint: {e}");
            ExitCode::FAILURE
        }
    }
}
