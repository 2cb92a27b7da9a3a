//! Order statistics used by the report: medians, geometric means, and
//! the tail-percentile rule.

/// Sort a copy of `xs` (NaN-free by the caller's contract).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank 25th percentile.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n => v[(n - 1) / 4],
    }
}

pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The tail rule: the reported tail is the 95th percentile when at least
/// [`TAIL_SAMPLES`] samples lie beyond it, else the highest percentile that
/// still has that many beyond it, and with too few samples for any such
/// percentile above the median, the maximum. Returns the rank fraction
/// used (1.0 for the maximum) and the value.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    if n < 2 * TAIL_SAMPLES {
        return (1.0, v[n - 1]);
    }
    // Nearest rank, in integers: p95 is the ceil(0.95·n)-th smallest.
    let p95 = (95 * n).div_ceil(100);
    let rank = p95.min(n - TAIL_SAMPLES);
    let q = if rank == p95 {
        0.95
    } else {
        rank as f64 / n as f64
    };
    (q, v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0, 5.0]), 2.0);
        assert_eq!(lower_quartile(&[7.0]), 7.0);
    }

    #[test]
    fn tail_is_p95_with_enough_samples_beyond() {
        let xs: Vec<f64> = (1..=300).map(f64::from).collect();
        let (q, v) = tail(&xs);
        assert_eq!(q, 0.95);
        assert_eq!(v, 285.0);
        assert_eq!(xs.iter().filter(|x| **x > v).count(), 15);
    }

    #[test]
    fn tail_backs_off_to_keep_ten_samples_beyond() {
        for n in [20usize, 40, 100, 199] {
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (q, v) = tail(&xs);
            assert!((0.5..0.95).contains(&q), "n={n} q={q}");
            let beyond = xs.iter().filter(|x| **x > v).count();
            assert!(beyond >= TAIL_SAMPLES, "n={n}: {beyond} beyond");
            // The next rank up would leave fewer than ten beyond.
            assert!(beyond == TAIL_SAMPLES, "n={n}: {beyond} beyond");
        }
    }

    #[test]
    fn tail_is_the_maximum_for_tiny_samples() {
        assert_eq!(tail(&[3.0, 9.0, 1.0]), (1.0, 9.0));
        assert_eq!(tail(&[5.0; 19]).0, 1.0);
    }
}
