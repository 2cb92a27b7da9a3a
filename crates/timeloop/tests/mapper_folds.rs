//! The two keep-the-best mapper folds against the plain fold they replace.
//!
//! `random_pruned_search` and `exhaustive_best` evaluate a fitting mapping
//! in full only when its DRAM lower bound is below the best EDP so far.
//! Each must still return what checking every mapping with `fits` and
//! evaluating every fitting one with `evaluate_layer` returns: the same
//! kept mapping, the same `LayerPerf` bits and, for the random mapper, the
//! same count of fitting draws. The oracle below is that plain fold,
//! written out here. The random mapper runs on every unique layer of the
//! four Fig. 7 targets, the exhaustive one on seeded small problems whose
//! mapspace can be enumerated, both on random designs.

use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_timeloop::{
    enumerate_mappings, evaluate_layer, exhaustive_best, fits, random_pruned_search, LayerPerf,
    MapSampler, Mapping,
};
use dosa_workload::{unique_layers, Network, Problem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A design in the baselines' sampling ranges: a power-of-two PE side in
/// 4..=64 and log-uniform whole-KB buffers, accumulator 8..512 KB and
/// scratchpad 16..2048 KB.
fn random_design(rng: &mut StdRng) -> HardwareConfig {
    let side = 1u64 << rng.gen_range(2..=6u32);
    let acc_kb = 2f64.powf(rng.gen_range(3.0..9.0)).round().max(1.0);
    let spad_kb = 2f64.powf(rng.gen_range(4.0..11.0)).round().max(1.0);
    HardwareConfig::new(side, acc_kb, spad_kb).expect("valid design")
}

/// The plain fold: keep `m` if it fits and its EDP beats the best so far.
fn fold(
    best: &mut Option<(Mapping, LayerPerf)>,
    m: &Mapping,
    p: &Problem,
    hw: &HardwareConfig,
    hier: &Hierarchy,
) -> bool {
    if !fits(p, m, hw, hier) {
        return false;
    }
    let perf = evaluate_layer(p, m, hw, hier);
    if best.as_ref().is_none_or(|(_, b)| perf.edp() < b.edp()) {
        *best = Some((m.clone(), perf));
    }
    true
}

type Kept = Option<(Mapping, u64, u64)>;

fn kept(best: Option<(Mapping, LayerPerf)>) -> Kept {
    best.map(|(m, p)| (m, p.latency_cycles.to_bits(), p.energy_uj.to_bits()))
}

#[test]
fn random_mapper_keeps_what_the_plain_fold_keeps() {
    let hier = Hierarchy::gemmini();
    let mut designs = StdRng::seed_from_u64(0xF01D);
    let mut fitting_cases = 0;
    for net in Network::TARGETS {
        for layer in unique_layers(net) {
            let p = &layer.problem;
            let hw = random_design(&mut designs);
            for seed in [1, 2] {
                let samples = 400;
                let sampler = MapSampler::new(p, &hier, hw.pe_side());
                let mut rng = StdRng::seed_from_u64(seed);
                let (mut best, mut valid) = (None, 0);
                for _ in 0..samples {
                    valid += usize::from(fold(&mut best, &sampler.draw(&mut rng), p, &hw, &hier));
                }
                let got =
                    random_pruned_search(&mut StdRng::seed_from_u64(seed), p, &hw, &hier, samples);
                let what = format!("{} on {hw:?}, seed {seed}", p.name());
                assert_eq!(
                    got.as_ref().map(|r| r.valid_samples),
                    (valid > 0).then_some(valid),
                    "fitting draws of {what}"
                );
                fitting_cases += usize::from(got.is_some());
                assert_eq!(
                    kept(got.map(|r| (r.mapping, r.perf))),
                    kept(best),
                    "kept mapping of {what}"
                );
            }
        }
    }
    assert!(fitting_cases > 0, "no case had a fitting draw");
}

/// A small problem with few divisors per dimension, so its mapspace can
/// be enumerated.
fn small_problem(rng: &mut StdRng, i: usize) -> Problem {
    let pick = |rng: &mut StdRng, xs: &[u64]| xs[rng.gen_range(0..xs.len())];
    if rng.gen_bool(0.25) {
        let (m, k, n) = (
            pick(rng, &[4, 8, 9]),
            pick(rng, &[4, 8, 16]),
            pick(rng, &[8, 16]),
        );
        Problem::matmul(format!("mm{i}"), m, k, n).expect("valid matmul")
    } else {
        let rs = pick(rng, &[1, 3]);
        let (pq, c, k) = (
            pick(rng, &[2, 4, 7]),
            pick(rng, &[4, 8]),
            pick(rng, &[4, 8, 16]),
        );
        Problem::conv(format!("conv{i}"), rs, rs, pq, pq, c, k, 1).expect("valid conv")
    }
}

#[test]
fn exhaustive_mapper_keeps_what_the_plain_fold_keeps() {
    let hier = Hierarchy::gemmini();
    let mut rng = StdRng::seed_from_u64(0xE4A);
    let mut enumerated = 0;
    for i in 0..8 {
        let p = small_problem(&mut rng, i);
        let hw = random_design(&mut rng);
        let mut best = None;
        let visited = enumerate_mappings(&p, &hier, hw.pe_side(), |m| {
            fold(&mut best, m, &p, &hw, &hier);
        });
        let got = exhaustive_best(&p, &hw, &hier);
        let what = format!("{} on {hw:?}", p.name());
        if visited.is_none() {
            assert!(
                got.is_none(),
                "{what}: enumeration refused, yet a best came back"
            );
            continue;
        }
        enumerated += 1;
        assert_eq!(kept(got), kept(best), "kept mapping of {what}");
    }
    assert!(enumerated > 0, "no problem was small enough to enumerate");
}
