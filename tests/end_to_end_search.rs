//! End-to-end integration: the full one-loop search pipeline across
//! workload -> model -> search -> timeloop crates.

use dosa::prelude::*;

fn toy_layers() -> Vec<Layer> {
    vec![
        Layer::once(Problem::conv("c1", 3, 3, 28, 28, 64, 64, 1).unwrap()),
        Layer::repeated(Problem::conv("c2", 1, 1, 28, 28, 64, 128, 1).unwrap(), 2),
        Layer::once(Problem::matmul("fc", 1, 512, 1000).unwrap()),
    ]
}

#[test]
fn one_loop_search_produces_consistent_configuration() {
    let layers = toy_layers();
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().build();
    let cfg = GdConfig {
        start_points: 2,
        steps_per_start: 80,
        round_every: 40,
        ..GdConfig::default()
    };
    let res = dosa_search(&service, &layers, &hier, &cfg);

    // Mappings valid and consistent with the reported hardware.
    assert_eq!(res.best_mappings.len(), layers.len());
    for (l, m) in layers.iter().zip(&res.best_mappings) {
        m.validate(&l.problem, &hier).unwrap();
        assert!(dosa::timeloop::fits(&l.problem, m, &res.best_hw, &hier));
    }

    // The reported EDP is reproducible from the artifacts.
    let perf = evaluate_model(&layers, &res.best_mappings, &res.best_hw, &hier);
    assert!(
        (perf.edp() - res.best_edp).abs() / res.best_edp < 1e-9,
        "reported {} vs recomputed {}",
        res.best_edp,
        perf.edp()
    );

    // The hardware is the parameter-wise max of per-layer minima.
    let pairs: Vec<_> = layers
        .iter()
        .zip(&res.best_mappings)
        .map(|(l, m)| (&l.problem, m))
        .collect();
    let min = min_hw_for_all(pairs, &hier);
    assert_eq!(min.pe_side(), res.best_hw.pe_side());
    assert_eq!(min.acc_kb(), res.best_hw.acc_kb());
    assert_eq!(min.spad_kb(), res.best_hw.spad_kb());
}

#[test]
fn search_beats_the_trivial_mapping() {
    let layers = toy_layers();
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().build();
    // Trivial: everything at DRAM on minimal hardware.
    let trivial: Vec<Mapping> = layers
        .iter()
        .map(|l| Mapping::all_at_dram(&l.problem))
        .collect();
    let pairs: Vec<_> = layers
        .iter()
        .zip(&trivial)
        .map(|(l, m)| (&l.problem, m))
        .collect();
    let hw = min_hw_for_all(pairs, &hier);
    let trivial_edp = evaluate_model(&layers, &trivial, &hw, &hier).edp();

    let cfg = GdConfig {
        start_points: 1,
        steps_per_start: 80,
        round_every: 40,
        ..GdConfig::default()
    };
    let res = dosa_search(&service, &layers, &hier, &cfg);
    assert!(
        res.best_edp < trivial_edp / 10.0,
        "search {} vs trivial {}",
        res.best_edp,
        trivial_edp
    );
}

#[test]
fn all_strategies_return_finite_results() {
    let layers = toy_layers();
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().build();
    for strategy in [
        LoopOrderStrategy::Baseline,
        LoopOrderStrategy::Iterate,
        LoopOrderStrategy::Softmax,
    ] {
        let cfg = GdConfig {
            start_points: 1,
            steps_per_start: 40,
            round_every: 20,
            strategy,
            ..GdConfig::default()
        };
        let res = dosa_search(&service, &layers, &hier, &cfg);
        assert!(res.best_edp.is_finite(), "{strategy:?}");
    }
}

#[test]
fn baseline_searchers_are_dominated_by_dosa_on_seeds() {
    let layers = toy_layers();
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().build();
    let dosa = dosa_search(
        &service,
        &layers,
        &hier,
        &GdConfig {
            start_points: 2,
            steps_per_start: 120,
            round_every: 60,
            ..GdConfig::default()
        },
    );
    let random = random_search(
        &service,
        &layers,
        &hier,
        &RandomSearchConfig {
            num_hw: 3,
            samples_per_hw: dosa.samples / 3,
            seed: 1,
        },
    );
    // DOSA should be at least competitive at equal sample budgets on this
    // toy network (paper: 2.8x better at 10k samples).
    assert!(
        dosa.best_edp <= random.best_edp * 1.5,
        "dosa {} vs random {}",
        dosa.best_edp,
        random.best_edp
    );
}
