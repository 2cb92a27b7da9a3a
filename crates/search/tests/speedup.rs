//! Manual wall-clock check that parallel start points beat one worker.
//! Ignored by default (timing-sensitive); run explicitly with
//! `cargo test --release -p dosa-search --test speedup -- --ignored --nocapture`.

use dosa_accel::Hierarchy;
use dosa_search::{dosa_search, GdConfig, SearchService};
use dosa_workload::{Layer, Problem};
use std::time::Instant;

#[test]
#[ignore = "wall-clock measurement; run with --ignored --nocapture"]
fn parallel_starts_beat_one_worker() {
    let layers = vec![
        Layer::repeated(Problem::conv("a", 3, 3, 28, 28, 64, 64, 1).unwrap(), 2),
        Layer::once(Problem::matmul("b", 64, 256, 256).unwrap()),
    ];
    let hier = Hierarchy::gemmini();
    // Default cadence (890 steps, round every 300) with 4+ start points.
    let cfg = GdConfig {
        start_points: 4,
        ..GdConfig::default()
    };
    let (one, four) = (
        SearchService::builder().threads(1).build(),
        SearchService::builder().threads(4).build(),
    );

    let t = Instant::now();
    let seq = dosa_search(&one, &layers, &hier, &cfg);
    let t_seq = t.elapsed();

    let t = Instant::now();
    let par = dosa_search(&four, &layers, &hier, &cfg);
    let t_par = t.elapsed();

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "{cores} cores; 1 thread: {t_seq:?}, 4 threads: {t_par:?}, speedup {:.2}x",
        t_seq.as_secs_f64() / t_par.as_secs_f64()
    );
    assert_eq!(seq.best_edp.to_bits(), par.best_edp.to_bits());
    if cores >= 2 {
        assert!(
            t_par < t_seq,
            "expected parallel ({t_par:?}) to beat sequential ({t_seq:?})"
        );
    } else {
        // Single-core machine: no speedup is possible; require the
        // parallel path to stay within 30% of sequential (bounded
        // scheduling overhead).
        assert!(
            t_par.as_secs_f64() < t_seq.as_secs_f64() * 1.3,
            "parallel overhead too high on one core: {t_par:?} vs {t_seq:?}"
        );
    }
}
