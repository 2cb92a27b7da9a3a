//! The DRAM lower bound of the bounded evaluation, against the reference.
//!
//! Random search and BB-BO evaluate a fitting draw only when
//! `LayerEvaluator::evaluate_below` finds that a lower bound on its EDP,
//! from its MACs and DRAM traffic alone, is below the layer's best so far.
//! Skipping the other draws moves no result only if the bound never
//! exceeds the EDP as computed, rounding included, and if every draw that
//! is evaluated gets `evaluate_layer`'s bits. This test checks both, that
//! a draw is skipped exactly when its bound reaches the threshold, and
//! that a bounded best-so-far fold keeps the same mappings as an unbounded
//! one. The corpus is the draws `mapper_pins.rs` pins (every unique layer
//! of the four Fig. 7 targets, seeds 1–3, PE sides 4 to 128) plus random
//! designs in the ranges the baselines sample.

use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_timeloop::{evaluate_layer, fits, LayerEvaluator, LayerPerf, MapSampler, Mapping};
use dosa_workload::{unique_layers, Layer, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `mapper_pins.rs`'s designs: `(PE side, acc KB, spad KB)`.
const PINNED_DESIGNS: [(u64, f64, f64); 4] = [
    (4, 8.0, 16.0),
    (16, 32.0, 128.0),
    (64, 64.0, 256.0),
    (128, 256.0, 1024.0),
];

/// A design in the baselines' sampling ranges: a power-of-two PE side in
/// 4..=64 and log-uniform whole-KB buffers, accumulator 8..512 KB and
/// scratchpad 16..2048 KB.
fn random_design(rng: &mut StdRng) -> HardwareConfig {
    let side = 1u64 << rng.gen_range(2..=6u32);
    let acc_kb = 2f64.powf(rng.gen_range(3.0..9.0)).round().max(1.0);
    let spad_kb = 2f64.powf(rng.gen_range(4.0..11.0)).round().max(1.0);
    HardwareConfig::new(side, acc_kb, spad_kb).expect("valid design")
}

fn bits(p: Option<LayerPerf>) -> Option<(u64, u64)> {
    p.map(|p| (p.latency_cycles.to_bits(), p.energy_uj.to_bits()))
}

#[derive(Default)]
struct Counts {
    fitting: usize,
    /// Fitting draws a best-so-far fold skipped unevaluated.
    skipped: usize,
}

/// Draw `draws` joint samples of `layers` on `hw` from `seed` in
/// sample-major order, as the searches do, checking every draw and
/// folding each layer's best with and without the bound.
fn check_design(layers: &[Layer], hw: &HardwareConfig, seed: u64, draws: usize) -> Counts {
    let hier = Hierarchy::gemmini();
    let samplers: Vec<MapSampler> = layers
        .iter()
        .map(|l| MapSampler::new(&l.problem, &hier, hw.pe_side()))
        .collect();
    let evals: Vec<LayerEvaluator> = layers
        .iter()
        .map(|l| LayerEvaluator::new(&l.problem, hw, &hier))
        .collect();
    let mut plain: Vec<Option<(Mapping, LayerPerf)>> = vec![None; layers.len()];
    let mut bounded = plain.clone();
    let mut counts = Counts::default();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..draws {
        for (k, layer) in layers.iter().enumerate() {
            let p = &layer.problem;
            let (m, eval) = (samplers[k].draw(&mut rng), &evals[k]);
            let what = format!("{} on {hw:?}: {m:?}", p.name());
            let ok = fits(p, &m, hw, &hier);
            let exact = evaluate_layer(p, &m, hw, &hier);
            let bound = eval.edp_lower_bound(&m);
            if ok {
                counts.fitting += 1;
                assert!(
                    bound <= exact.edp(),
                    "bound {bound} above EDP {} for {what}",
                    exact.edp()
                );
            }
            let expect = ok.then_some(exact);
            assert_eq!(
                bits(eval.evaluate_below(&m, f64::INFINITY)),
                bits(expect),
                "{what}"
            );
            for threshold in [bound, bound.next_up(), bound.next_down(), exact.edp(), 0.0] {
                let got = eval.evaluate_below(&m, threshold);
                let skipped = bound >= threshold;
                assert_eq!(
                    bits(got),
                    bits(expect.filter(|_| !skipped)),
                    "threshold {threshold}, bound {bound}: {what}"
                );
            }

            // The searches' fold: keep a fitting draw that beats the best.
            if ok && plain[k].as_ref().is_none_or(|(_, b)| exact.edp() < b.edp()) {
                plain[k] = Some((m.clone(), exact));
            }
            let threshold = bounded[k].as_ref().map_or(f64::INFINITY, |(_, b)| b.edp());
            match eval.evaluate_below(&m, threshold) {
                Some(perf) => {
                    if bounded[k]
                        .as_ref()
                        .is_none_or(|(_, b)| perf.edp() < b.edp())
                    {
                        bounded[k] = Some((m, perf));
                    }
                }
                None => counts.skipped += usize::from(ok),
            }
            assert_eq!(plain[k], bounded[k], "bests diverged on {what}");
        }
    }
    counts
}

fn report(what: &str, c: &Counts) {
    assert!(
        c.fitting > 0,
        "{what}: no draw fit; the test checked nothing"
    );
    println!(
        "{what}: {} fitting draws, {:.1}% skipped by the bound",
        c.fitting,
        100.0 * c.skipped as f64 / c.fitting as f64
    );
}

#[test]
fn the_bound_holds_and_skips_exactly_on_the_pinned_draws() {
    for net in Network::TARGETS {
        let layers = unique_layers(net);
        let mut total = Counts::default();
        for (side, acc_kb, spad_kb) in PINNED_DESIGNS {
            let hw = HardwareConfig::new(side, acc_kb, spad_kb).expect("valid design");
            for seed in 1..=3 {
                let c = check_design(&layers, &hw, seed, 40);
                total.fitting += c.fitting;
                total.skipped += c.skipped;
            }
        }
        report(net.name(), &total);
    }
}

#[test]
fn the_bound_holds_and_skips_exactly_on_random_designs() {
    let mut rng = StdRng::seed_from_u64(26);
    let mut total = Counts::default();
    for net in Network::TARGETS {
        let layers = unique_layers(net);
        for _ in 0..6 {
            let hw = random_design(&mut rng);
            let c = check_design(&layers, &hw, rng.gen(), 30);
            total.fitting += c.fitting;
            total.skipped += c.skipped;
        }
    }
    report("random designs", &total);
}
