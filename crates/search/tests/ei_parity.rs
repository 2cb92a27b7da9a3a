//! Bit parity of the batch expected-improvement scorer.
//!
//! BB-BO picks each surrogate-chosen design by scoring candidates with
//! [`EiScorer`], sixteen per pass over the Cholesky factor. Every score must
//! equal [`GaussianProcess::expected_improvement`] of the same point bit
//! for bit, whatever the candidate count (full and partial lanes) and
//! whatever sits in the neighbouring lanes: training points, duplicates,
//! and points so far away that the kernel column underflows to zero. A
//! few absolute scores are pinned as well, so a change cannot move the
//! batch and the per-point path together.

use dosa_accel::HardwareConfig;
use dosa_search::{random_hw, GaussianProcess};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// BB-BO's GP input features of a design.
fn features(hw: &HardwareConfig) -> Vec<f64> {
    vec![
        (hw.pe_side() as f64).ln(),
        hw.acc_kb().ln(),
        hw.spad_kb().ln(),
    ]
}

/// A GP over `n` random designs with log-EDP-like targets (every fifth
/// one the infeasible-design penalty), fit as BB-BO fits it, plus the
/// best observed target and the training inputs.
fn fixture(seed: u64, n: usize, noise_std: f64) -> (GaussianProcess, f64, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> = (0..n).map(|_| features(&random_hw(&mut rng))).collect();
    let ys: Vec<f64> = (0..n)
        .map(|i| {
            if i % 5 == 4 {
                1e3
            } else {
                rng.gen_range(20.0..40.0)
            }
        })
        .collect();
    let best = ys.iter().cloned().fold(f64::INFINITY, f64::min);
    (
        GaussianProcess::fit(xs.clone(), ys, 1.0, noise_std),
        best,
        xs,
    )
}

/// `count` candidates: a training point, a far point, a duplicate of the
/// training point, then fresh random designs and a few more duplicates.
fn candidates(seed: u64, count: usize, train: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let special = [
        train[train.len() / 2].clone(),
        vec![60.0, -60.0, 60.0],
        train[train.len() / 2].clone(),
    ];
    let mut out: Vec<Vec<f64>> = special.into_iter().take(count).collect();
    while out.len() < count {
        let x = if out.len() % 97 == 13 {
            out[out.len() - 5].clone()
        } else {
            features(&random_hw(&mut rng))
        };
        out.push(x);
    }
    out
}

fn assert_batch_matches_per_point(gp: &GaussianProcess, best: f64, cands: &[Vec<f64>], what: &str) {
    let mut scores = vec![f64::NAN; 2];
    gp.ei_scorer(best).score_into(cands, &mut scores);
    assert_eq!(scores.len(), 2 + cands.len(), "{what}: scores appended");
    for (i, (c, s)) in cands.iter().zip(&scores[2..]).enumerate() {
        let single = gp.expected_improvement(c, best);
        assert_eq!(
            s.to_bits(),
            single.to_bits(),
            "{what}: candidate {i} {c:?}: batch {s} vs single {single}"
        );
    }
}

#[test]
fn batch_scores_equal_per_candidate_scores_bit_for_bit() {
    for n in [1, 2, 3, 5, 8, 9, 16, 25, 40] {
        for noise in [0.05, 1e-6] {
            let seed = n as u64 * 31 + u64::from(noise < 0.01);
            let (gp, best, train) = fixture(seed, n, noise);
            for count in [1, 7, 8, 9, 15, 16, 17, 1000] {
                let cands = candidates(seed + count as u64, count, &train);
                let what = format!("n={n} noise={noise} count={count}");
                assert_batch_matches_per_point(&gp, best, &cands, &what);
                // A target above or below every observation moves EI
                // across its whole range.
                for shifted in [best - 5.0, best + 1e3] {
                    assert_batch_matches_per_point(&gp, shifted, &cands, &what);
                }
            }
        }
    }
}

#[test]
fn a_scorer_reused_across_calls_and_lane_offsets_stays_bit_identical() {
    let (gp, best, train) = fixture(7, 30, 0.05);
    let cands = candidates(8, 45, &train);
    let mut whole = Vec::new();
    gp.ei_scorer(best).score_into(&cands, &mut whole);
    // Feed the same candidates in ragged pieces through one scorer, so
    // every candidate lands in a different lane than in `whole`.
    let mut scorer = gp.ei_scorer(best);
    let mut pieces = Vec::new();
    let mut rest = &cands[..];
    for len in [3, 1, 11, 8, 5].into_iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(len.min(rest.len()));
        scorer.score_into(head, &mut pieces);
        rest = tail;
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&whole), bits(&pieces));
}

#[test]
fn a_far_candidate_gets_the_prior_and_a_training_point_almost_none() {
    let (gp, _, train) = fixture(3, 12, 1e-6);
    // The kernel column underflows to zero: the posterior is the prior.
    let (far_mean, far_var) = gp.predict(&[60.0, -60.0, 60.0]);
    let (prior_mean, prior_var) = gp.predict(&[-60.0, 60.0, -60.0]);
    assert_eq!(far_mean.to_bits(), prior_mean.to_bits());
    assert_eq!(far_var.to_bits(), prior_var.to_bits());
    assert!(far_var > 1.0, "prior variance {far_var}");
    // A nearly noise-free observation leaves almost no variance.
    let (_, var) = gp.predict(&train[4]);
    assert!(var < far_var * 1e-9, "variance {var} at a training point");
}

/// Scores of `fixture(3, 40, 0.05)` at its first six candidates, computed
/// by the per-point path before batch scoring existed.
#[test]
fn pinned_scores_do_not_move() {
    const PINNED: [u64; 6] = [
        0,
        4634882897051479990,
        0,
        4643430085732494142,
        4625762736205327420,
        4605543003831527632,
    ];
    let (gp, best, train) = fixture(3, 40, 0.05);
    let cands = candidates(4, 6, &train);
    let mut scores = Vec::new();
    gp.ei_scorer(best).score_into(&cands, &mut scores);
    let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
    let single: Vec<u64> = cands
        .iter()
        .map(|c| gp.expected_improvement(c, best).to_bits())
        .collect();
    assert_eq!(bits, PINNED, "batch scores {scores:?}");
    assert_eq!(single, PINNED, "per-point scores");
}
