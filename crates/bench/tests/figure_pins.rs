//! Figure pins: the exact CSVs that `repro --scale quick --seed 1` writes
//! for Figures 6, 7, 8 and 9, at one and at two worker threads.
//!
//! `golden.rs` (in `dosa-search`) pins single jobs; this file pins what the
//! figure harness makes of them, through the real binary. Per CSV it holds
//! the byte length and a 64-bit FNV-1a hash of the file. The CSVs print
//! seven significant digits, so these pins add to the bit pins and do not
//! replace them.
//!
//! On a mismatch the test prints the complete replacement table.
//! Regenerating is a deliberate hand edit of [`PINS`] — only do it for a
//! change that is meant to alter a figure, and say so in review.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// `(CSV file name, FNV-1a hash of its bytes, byte length)`, one line per
/// file in the format the mismatch report prints.
#[rustfmt::skip]
const PINS: &[(&str, u64, usize)] = &[
    ("fig6_bert.csv", 0x33eeff32c47c09a0, 3020),
    ("fig6_resnet50.csv", 0xd2820127e5bc1e92, 3530),
    ("fig7_bert.csv", 0x328524e0334f2b17, 3106),
    ("fig7_resnet50.csv", 0x837bc5a7ae66ca1e, 3676),
    ("fig7_retinanet.csv", 0x061c62cdf215a1f8, 3676),
    ("fig7_unet.csv", 0x0df8f3f8b33ce494, 3220),
    ("fig8_bert.csv", 0x0cb1d59999aeebfd, 170),
    ("fig8_resnet50.csv", 0xa761df945713b41c, 195),
    ("fig8_retinanet.csv", 0x20477836b22524ea, 195),
    ("fig8_unet.csv", 0x342b51dbc831cf60, 175),
    ("fig9_attribution.csv", 0x2f74bcb6c7748835, 280),
];

/// The figure commands the pins cover.
const FIGURES: [&str; 4] = ["fig6", "fig7", "fig8", "fig9"];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fresh, empty output directory for one test.
fn out_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dosa-figure-pins-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn repro(out: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "quick", "--seed", "1", "--out"])
        .arg(out)
        .args(args)
        .output()
        .expect("repro starts")
}

/// The CSV files under `dir`, sorted by name (none if `dir` is absent).
fn csvs(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<(String, Vec<u8>)> = entries
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "csv"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

fn check_pins(threads: usize) {
    let out = out_dir(&format!("threads{threads}"));
    let threads = threads.to_string();
    for figure in FIGURES {
        let run = repro(&out, &["--threads", &threads, figure]);
        assert!(
            run.status.success(),
            "repro {figure} failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
    }
    let actual: Vec<(String, u64, usize)> = csvs(&out)
        .into_iter()
        .map(|(name, bytes)| (name, fnv1a(&bytes), bytes.len()))
        .collect();
    let _ = fs::remove_dir_all(&out);

    let pinned: Vec<(String, u64, usize)> = PINS
        .iter()
        .map(|&(name, hash, len)| (name.to_string(), hash, len))
        .collect();
    if actual != pinned {
        println!("replacement table:\nconst PINS: &[(&str, u64, usize)] = &[");
        for (name, hash, len) in &actual {
            println!("    ({name:?}, {hash:#018x}, {len}),");
        }
        println!("];");
        let mut differing: Vec<&str> = actual
            .iter()
            .filter(|file| !pinned.contains(file))
            .chain(pinned.iter().filter(|file| !actual.contains(file)))
            .map(|(name, _, _)| name.as_str())
            .collect();
        differing.sort_unstable();
        differing.dedup();
        panic!(
            "figure pin mismatch at --threads {threads} in {differing:?} (replacement table above)"
        );
    }
}

#[test]
fn quick_figures_reproduce_their_pins_at_one_thread() {
    check_pins(1);
}

#[test]
fn quick_figures_reproduce_their_pins_at_two_threads() {
    check_pins(2);
}

/// An argument `repro` does not serve is a usage error: nonzero exit, and
/// no CSV written. That covers a workload argument the command would
/// ignore, an unknown command and an unknown option.
#[test]
fn unserved_arguments_are_rejected() {
    for args in [
        &["fig8", "unet", "bert"][..],
        &["fig9", "unet"],
        &["info", "bert"],
        &["bench"],
        &["lint"],
        &["--smoke", "info"],
    ] {
        let out = out_dir(&args.join("-"));
        let run = repro(&out, args);
        assert!(!run.status.success(), "repro {args:?} exited 0");
        assert!(csvs(&out).is_empty(), "repro {args:?} wrote a CSV");
        let _ = fs::remove_dir_all(&out);
    }
    let run = repro(&out_dir("smoke"), &["--smoke", "fig7"]);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("unknown option --smoke"), "{stderr}");
}
