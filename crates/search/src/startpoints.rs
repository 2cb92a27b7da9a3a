//! Gradient-descent start-point generation (§3.2 step 1, §5.3.1): a random
//! valid hardware design plus CoSA mappings for it, with the 10× rejection
//! rule.

use crate::cosa::cosa_mapping;
use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_model::{predict, LossOptions, RelaxedMapping};
use dosa_workload::Layer;
use rand::Rng;

/// Sample a random valid hardware configuration: a power-of-two PE array
/// side in 4..=64 and log-uniform SRAM sizes (whole KB).
pub fn random_hw(rng: &mut impl Rng) -> HardwareConfig {
    let side = 1u64 << rng.gen_range(2..=6u32); // 4..=64
    let acc_kb = 2f64.powf(rng.gen_range(3.0..9.0)).round().max(1.0); // 8..512 KB
    let spad_kb = 2f64.powf(rng.gen_range(4.0..11.0)).round().max(1.0); // 16..2048 KB

    // dosa-lint: allow(panic-perimeter) — the sampled ranges (power-of-two
    // side 4..=64, whole-KB SRAM sizes ≥ 1) are valid by construction; a
    // failure here means the sampler itself broke.
    HardwareConfig::new(side, acc_kb, spad_kb).expect("sampled ranges are valid")
}

/// A generated start point: the seed hardware and one relaxed mapping per
/// layer (CoSA mappings lifted to log space).
#[derive(Debug, Clone)]
pub struct StartPoint {
    /// The randomly drawn hardware design the CoSA mappings target.
    pub seed_hw: HardwareConfig,
    /// Per-layer relaxed mappings.
    pub relaxed: Vec<RelaxedMapping>,
    /// Differentiable-model EDP prediction at this point.
    pub predicted_edp: f64,
}

#[cfg(test)]
thread_local! {
    /// Start points drawn on this thread, so a unit test can tell whether
    /// planning did search work.
    pub(crate) static DRAWN: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Generate one start point for `layers`.
pub fn generate_start_point(
    rng: &mut impl Rng,
    layers: &[Layer],
    hier: &Hierarchy,
    opts: &LossOptions,
) -> StartPoint {
    #[cfg(test)]
    DRAWN.with(|n| n.set(n.get() + 1));
    let seed_hw = random_hw(rng);
    let relaxed: Vec<RelaxedMapping> = layers
        .iter()
        .map(|l| RelaxedMapping::from_mapping(&cosa_mapping(&l.problem, &seed_hw, hier)))
        .collect();
    let (_, _, edp) = predict(layers, &relaxed, hier, opts);
    StartPoint {
        seed_hw,
        relaxed,
        predicted_edp: edp,
    }
}

/// Generate `n` start points applying the rejection rule of §5.3.1: a start
/// point whose predicted EDP exceeds `rejection_factor ×` the best seen so
/// far is discarded and redrawn (bounded retries keep this total).
pub fn generate_start_points(
    rng: &mut impl Rng,
    layers: &[Layer],
    hier: &Hierarchy,
    opts: &LossOptions,
    n: usize,
    rejection_factor: f64,
) -> Vec<StartPoint> {
    let mut points: Vec<StartPoint> = Vec::with_capacity(n);
    let mut best = f64::INFINITY;
    let mut attempts = 0usize;
    while points.len() < n {
        let sp = generate_start_point(rng, layers, hier, opts);
        attempts += 1;
        let accept = sp.predicted_edp <= best * rejection_factor || attempts > 10 * n;
        if sp.predicted_edp < best {
            best = sp.predicted_edp;
        }
        if accept {
            points.push(sp);
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosa_workload::Problem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layers() -> Vec<Layer> {
        vec![
            Layer::once(Problem::conv("a", 3, 3, 28, 28, 64, 64, 1).unwrap()),
            Layer::once(Problem::matmul("b", 128, 256, 512).unwrap()),
        ]
    }

    #[test]
    fn random_hw_in_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let hw = random_hw(&mut rng);
            assert!((4..=64).contains(&hw.pe_side()));
            assert!(hw.pe_side().is_power_of_two());
            assert!(hw.acc_kb() >= 8.0 && hw.acc_kb() <= 512.0);
            assert!(hw.spad_kb() >= 16.0 && hw.spad_kb() <= 2048.0);
        }
    }

    #[test]
    fn start_points_have_finite_predictions() {
        let mut rng = StdRng::seed_from_u64(1);
        let hier = Hierarchy::gemmini();
        let pts =
            generate_start_points(&mut rng, &layers(), &hier, &LossOptions::default(), 3, 10.0);
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!(p.predicted_edp.is_finite() && p.predicted_edp > 0.0);
            assert_eq!(p.relaxed.len(), 2);
        }
    }

    #[test]
    fn rejection_bounds_spread() {
        let mut rng = StdRng::seed_from_u64(2);
        let hier = Hierarchy::gemmini();
        let pts =
            generate_start_points(&mut rng, &layers(), &hier, &LossOptions::default(), 5, 10.0);
        let best = pts
            .iter()
            .map(|p| p.predicted_edp)
            .fold(f64::INFINITY, f64::min);
        // All accepted points were within 10x of the best seen *when
        // accepted*; the spread versus the final best stays bounded except
        // for the forced-acceptance fallback.
        let worst = pts.iter().map(|p| p.predicted_edp).fold(0.0f64, f64::max);
        assert!(worst / best < 1e4);
    }

    #[test]
    fn deterministic_given_seed() {
        let hier = Hierarchy::gemmini();
        let a = generate_start_point(
            &mut StdRng::seed_from_u64(7),
            &layers(),
            &hier,
            &LossOptions::default(),
        );
        let b = generate_start_point(
            &mut StdRng::seed_from_u64(7),
            &layers(),
            &hier,
            &LossOptions::default(),
        );
        assert_eq!(a.seed_hw, b.seed_hw);
        assert_eq!(a.predicted_edp, b.predicted_edp);
    }
}
