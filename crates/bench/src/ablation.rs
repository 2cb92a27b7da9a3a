//! Ablations of DOSA's design choices beyond the paper's figures:
//!
//! * **rounding frequency** (§5.3.2: round every N steps — too often wastes
//!   descent, too rarely drifts from the valid mapspace),
//! * **learning rate** of the Adam descent,
//! * **start-point budget split** (many short descents vs. few long ones
//!   at a fixed total sample budget),
//! * **exhaustive-optimum gap**: how close the GD + rounding pipeline gets
//!   to the brute-force best mapping on an enumerable layer.
//!
//! Run with `repro ablation`.

use crate::plot::{table, write_csv};
use crate::scale::Scale;
use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_search::{dosa_search, GdConfig, SearchService};
use dosa_timeloop::exhaustive_best;
use dosa_workload::{unique_layers, Layer, Network, Problem};
use std::path::Path;

fn bert_subset() -> Vec<Layer> {
    unique_layers(Network::Bert)
}

fn base_cfg(scale: Scale, seed: u64) -> GdConfig {
    match scale {
        Scale::Quick => GdConfig {
            start_points: 2,
            steps_per_start: 240,
            round_every: 80,
            seed,
            ..GdConfig::default()
        },
        Scale::Paper => GdConfig {
            start_points: 4,
            steps_per_start: 900,
            round_every: 300,
            seed,
            ..GdConfig::default()
        },
    }
}

/// Ablation: rounding frequency sweep at a fixed step budget.
pub fn rounding_frequency(service: &SearchService, scale: Scale, seed: u64) -> Vec<(usize, f64)> {
    let layers = bert_subset();
    let hier = Hierarchy::gemmini();
    let base = base_cfg(scale, seed);
    let mut rows = Vec::new();
    for divisor in [1usize, 3, 6, 12] {
        let cfg = GdConfig {
            round_every: (base.steps_per_start / divisor).max(1),
            ..base
        };
        let res = dosa_search(service, &layers, &hier, &cfg);
        rows.push((cfg.round_every, res.best_edp));
    }
    rows
}

/// Ablation: learning-rate sweep.
pub fn learning_rate(service: &SearchService, scale: Scale, seed: u64) -> Vec<(f64, f64)> {
    let layers = bert_subset();
    let hier = Hierarchy::gemmini();
    let base = base_cfg(scale, seed);
    [0.005, 0.02, 0.04, 0.1, 0.3]
        .into_iter()
        .map(|lr| {
            let cfg = GdConfig {
                learning_rate: lr,
                ..base
            };
            (lr, dosa_search(service, &layers, &hier, &cfg).best_edp)
        })
        .collect()
}

/// Ablation: budget split between start points and steps per start, at a
/// constant total number of gradient steps.
pub fn startpoint_split(
    service: &SearchService,
    scale: Scale,
    seed: u64,
) -> Vec<(usize, usize, f64)> {
    let layers = bert_subset();
    let hier = Hierarchy::gemmini();
    let base = base_cfg(scale, seed);
    let total = base.start_points * base.steps_per_start;
    let mut rows = Vec::new();
    for starts in [1usize, 2, 4, 8] {
        let steps = (total / starts).max(1);
        let cfg = GdConfig {
            start_points: starts,
            steps_per_start: steps,
            round_every: (steps / 3).max(1),
            ..base
        };
        let res = dosa_search(service, &layers, &hier, &cfg);
        rows.push((starts, steps, res.best_edp));
    }
    rows
}

/// Ablation: gap between the GD pipeline and the exhaustive optimum on an
/// enumerable layer with fixed hardware. Returns `(gd_edp, optimal_edp)`.
pub fn optimality_gap(service: &SearchService, scale: Scale, seed: u64) -> (f64, f64) {
    let problem = Problem::conv("enum", 1, 1, 4, 4, 16, 16, 1).expect("valid");
    let hier = Hierarchy::gemmini();
    let hw = HardwareConfig::new(8, 4.0, 8.0).expect("valid");
    let (_, best) = exhaustive_best(&problem, &hw, &hier).expect("enumerable");

    // One-loop GD constrained to this hardware scale via the PE pin; the
    // mapping it finds is then re-evaluated on the fixed hw.
    let layers = vec![Layer::once(problem.clone())];
    let cfg = GdConfig {
        fixed_pe_side: Some(8),
        ..base_cfg(scale, seed)
    };
    let res = dosa_search(service, &layers, &hier, &cfg);
    let perf = dosa_timeloop::evaluate_layer(&problem, &res.best_mappings[0], &hw, &hier);
    (perf.edp(), best.edp())
}

/// Run and print every ablation.
pub fn run(service: &SearchService, scale: Scale, seed: u64, out_dir: &Path) {
    println!("Ablation — rounding frequency (BERT, fixed step budget)");
    let rf = rounding_frequency(service, scale, seed);
    let rows: Vec<Vec<String>> = rf
        .iter()
        .map(|(n, e)| vec![format!("every {n} steps"), format!("{e:.3e}")])
        .collect();
    println!("{}", table(&["rounding", "best EDP"], &rows));
    write_csv(
        out_dir,
        "ablation_rounding.csv",
        &["round_every", "best_edp"],
        &rf.iter()
            .map(|(n, e)| vec![n.to_string(), format!("{e:.6e}")])
            .collect::<Vec<_>>(),
    );

    println!("Ablation — Adam learning rate");
    let lr = learning_rate(service, scale, seed);
    let rows: Vec<Vec<String>> = lr
        .iter()
        .map(|(l, e)| vec![format!("{l}"), format!("{e:.3e}")])
        .collect();
    println!("{}", table(&["learning rate", "best EDP"], &rows));
    write_csv(
        out_dir,
        "ablation_lr.csv",
        &["learning_rate", "best_edp"],
        &lr.iter()
            .map(|(l, e)| vec![l.to_string(), format!("{e:.6e}")])
            .collect::<Vec<_>>(),
    );

    println!("Ablation — start points vs steps (constant budget)");
    let sp = startpoint_split(service, scale, seed);
    let rows: Vec<Vec<String>> = sp
        .iter()
        .map(|(s, st, e)| vec![format!("{s} x {st}"), format!("{e:.3e}")])
        .collect();
    println!("{}", table(&["starts x steps", "best EDP"], &rows));
    write_csv(
        out_dir,
        "ablation_starts.csv",
        &["start_points", "steps", "best_edp"],
        &sp.iter()
            .map(|(s, st, e)| vec![s.to_string(), st.to_string(), format!("{e:.6e}")])
            .collect::<Vec<_>>(),
    );

    println!("Ablation — GD vs exhaustive optimum (enumerable layer, fixed HW)");
    let (gd, opt) = optimality_gap(service, scale, seed);
    println!(
        "  GD pipeline: {gd:.4e}  exhaustive optimum: {opt:.4e}  gap: {:.2}x\n",
        gd / opt
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gd_lands_near_the_exhaustive_optimum() {
        let (gd, opt) = optimality_gap(&SearchService::builder().build(), Scale::Quick, 3);
        assert!(gd >= opt * (1.0 - 1e-12), "gd beat the oracle?");
        assert!(
            gd <= opt * 5.0,
            "gd {gd} is {:.1}x off optimum {opt}",
            gd / opt
        );
    }

    #[test]
    fn rounding_sweep_returns_all_points() {
        // Smoke-level: a smaller custom sweep so the test stays fast.
        let layers = vec![Layer::once(
            Problem::conv("s", 1, 1, 8, 8, 16, 16, 1).unwrap(),
        )];
        let hier = Hierarchy::gemmini();
        let service = SearchService::builder().build();
        for divisor in [1usize, 2] {
            let cfg = GdConfig {
                start_points: 1,
                steps_per_start: 40,
                round_every: (40 / divisor).max(1),
                ..GdConfig::default()
            };
            let res = dosa_search(&service, &layers, &hier, &cfg);
            assert!(res.best_edp.is_finite());
        }
    }
}
