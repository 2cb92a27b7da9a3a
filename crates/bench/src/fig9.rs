//! Figure 9: separating the effects of hardware search and mapping search.
//!
//! For several GD restarts per workload, compare:
//! 1. start-point hardware + CoSA mappings (the GD starting condition),
//! 2. DOSA hardware + CoSA mappings (constant-mapper attribution),
//! 3. DOSA hardware + random-mapper mappings,
//! 4. DOSA hardware + DOSA mappings (the GD end point).
//!
//! Paper: DOSA end points improve 5.75× over start points; DOSA hardware
//! under CoSA improves 3.21×; DOSA mappings beat CoSA by 1.79× and a
//! 1000-sample random mapper by 2.78× on the same hardware.

use crate::plot::{geomean, table, write_csv};
use crate::scale::Scale;
use dosa_accel::Hierarchy;
use dosa_model::{round_all, LossOptions};
use dosa_search::{
    evaluate_with_cosa, evaluate_with_random_mapper, generate_start_point, GdConfig, SearchRequest,
    SearchResult, SearchService, Strategy,
};
use dosa_timeloop::evaluate_model;
use dosa_workload::{unique_layers, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// The four evaluation conditions of Figure 9 (geomean EDP across
/// restarts), in plot order.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Row {
    /// Start-point hardware, CoSA mappings.
    pub start_cosa: f64,
    /// DOSA hardware, CoSA mappings.
    pub dosa_hw_cosa: f64,
    /// DOSA hardware, random-mapper mappings.
    pub dosa_hw_random: f64,
    /// DOSA hardware, DOSA mappings.
    pub dosa_full: f64,
}

impl Fig9Row {
    /// Normalize each condition to the start point (start = 1.0).
    pub fn normalized(&self) -> [f64; 4] {
        [
            1.0,
            self.dosa_hw_cosa / self.start_cosa,
            self.dosa_hw_random / self.start_cosa,
            self.dosa_full / self.start_cosa,
        ]
    }
}

/// Per-workload result.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Workload evaluated.
    pub network: Network,
    /// Geomean EDPs of the four conditions.
    pub row: Fig9Row,
}

/// Run Figure 9 for one workload.
pub fn run_network(
    service: &SearchService,
    scale: Scale,
    network: Network,
    seed: u64,
) -> Fig9Result {
    let layers = unique_layers(network);
    let hier = Hierarchy::gemmini();
    let restarts = scale.fig9_restarts();
    let problems: Vec<_> = layers.iter().map(|l| l.problem.clone()).collect();

    let mut start_edps = Vec::new();
    let mut hw_cosa_edps = Vec::new();
    let mut hw_random_edps = Vec::new();
    let mut full_edps = Vec::new();

    // All GD restarts run as one batched service job (entries
    // `restart0..restartN`, each seeded like the old standalone runs and
    // bit-identical to them), fanning into one worker fleet.
    let mut builder =
        SearchRequest::builder(hier.clone()).strategy(Strategy::GradientDescent(GdConfig {
            start_points: 1,
            ..scale.gd_main(seed)
        }));
    for r in 0..restarts {
        builder =
            builder.network_seeded(format!("restart{r}"), layers.clone(), seed + 31 * r as u64);
    }
    let dosa_runs: Vec<SearchResult> = service
        .submit(builder.build())
        .expect("scale presets always validate")
        .wait()
        .expect("Figure 9 job failed")
        .networks
        .into_iter()
        .map(|n| n.result)
        .collect();

    for (r, dosa) in dosa_runs.iter().enumerate() {
        let run_seed = seed + 31 * r as u64;
        // Start point: random hardware + CoSA mappings (evaluated with the
        // reference model, like every bar here).
        let mut rng = StdRng::seed_from_u64(run_seed);
        let start = generate_start_point(&mut rng, &layers, &hier, &LossOptions::default());
        let start_mappings = round_all(&start.relaxed, &problems, &hier);
        let start_perf = evaluate_model(&layers, &start_mappings, &start.seed_hw, &hier);
        start_edps.push(start_perf.edp());
        full_edps.push(dosa.best_edp);

        // DOSA hardware under constant mappers.
        hw_cosa_edps.push(evaluate_with_cosa(&layers, &dosa.best_hw, &hier).edp());
        hw_random_edps.push(
            evaluate_with_random_mapper(
                &layers,
                &dosa.best_hw,
                &hier,
                scale.fig9_random_mapper_samples(),
                run_seed + 1,
            )
            .edp(),
        );
    }

    Fig9Result {
        network,
        row: Fig9Row {
            start_cosa: geomean(&start_edps),
            dosa_hw_cosa: geomean(&hw_cosa_edps),
            dosa_hw_random: geomean(&hw_random_edps),
            dosa_full: geomean(&full_edps),
        },
    }
}

/// Run Figure 9 across the four target workloads and print the attribution
/// table.
pub fn run(service: &SearchService, scale: Scale, seed: u64, out_dir: &Path) -> Vec<Fig9Result> {
    let results: Vec<Fig9Result> = Network::TARGETS
        .into_iter()
        .map(|n| run_network(service, scale, n, seed))
        .collect();

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for r in &results {
        let n = r.row.normalized();
        rows.push(vec![
            r.network.name().to_string(),
            format!("{:.3}", n[0]),
            format!("{:.3}", n[1]),
            format!("{:.3}", n[2]),
            format!("{:.3}", n[3]),
        ]);
        csv.push(vec![
            r.network.name().to_string(),
            format!("{:.6e}", r.row.start_cosa),
            format!("{:.6e}", r.row.dosa_hw_cosa),
            format!("{:.6e}", r.row.dosa_hw_random),
            format!("{:.6e}", r.row.dosa_full),
        ]);
    }
    // Geomean row.
    let gm =
        |f: fn(&Fig9Row) -> f64| geomean(&results.iter().map(|r| f(&r.row)).collect::<Vec<_>>());
    let start = gm(|r| r.start_cosa);
    let hw_cosa = gm(|r| r.dosa_hw_cosa);
    let hw_rand = gm(|r| r.dosa_hw_random);
    let full = gm(|r| r.dosa_full);
    rows.push(vec![
        "GEOMEAN".to_string(),
        "1.000".to_string(),
        format!("{:.3}", hw_cosa / start),
        format!("{:.3}", hw_rand / start),
        format!("{:.3}", full / start),
    ]);
    write_csv(
        out_dir,
        "fig9_attribution.csv",
        &[
            "network",
            "start_cosa",
            "dosa_hw_cosa",
            "dosa_hw_random",
            "dosa_full",
        ],
        &csv,
    );

    println!("Figure 9 — hardware vs mapping attribution (EDP normalized to start point)");
    println!(
        "{}",
        table(
            &[
                "workload",
                "start+CoSA",
                "DOSA HW+CoSA",
                "DOSA HW+random",
                "DOSA full"
            ],
            &rows
        )
    );
    println!(
        "  improvements: DOSA full {:.2}x over start | DOSA HW under CoSA {:.2}x | DOSA mapping vs CoSA {:.2}x | vs random {:.2}x",
        start / full,
        start / hw_cosa,
        hw_cosa / full,
        hw_rand / full
    );
    println!("  paper: 5.75x over start, 3.21x constant-mapper, 1.79x vs CoSA, 2.78x vs random\n");
    results
}
