//! Integer factorization and divisor utilities used by the mapspace.
//!
//! Tiling factors must divide their problem dimension (§5.3.2), so mapping
//! construction, rounding and random sampling all reduce to divisor
//! manipulation. Problem dimensions are small (≤ ~25k), so trial division is
//! ample.

/// Prime factorization of `n` as `(prime, exponent)` pairs in increasing
/// prime order. `factorize(1)` is empty.
///
/// # Examples
///
/// ```
/// use dosa_timeloop::factorize;
/// assert_eq!(factorize(56), vec![(2, 3), (7, 1)]);
/// assert_eq!(factorize(1), vec![]);
/// ```
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn factorize(mut n: u64) -> Vec<(u64, u32)> {
    assert!(n > 0, "cannot factorize zero");
    let mut out = Vec::new();
    let mut p = 2u64;
    while p * p <= n {
        if n.is_multiple_of(p) {
            let mut e = 0u32;
            while n.is_multiple_of(p) {
                n /= p;
                e += 1;
            }
            out.push((p, e));
        }
        p += if p == 2 { 1 } else { 2 };
    }
    if n > 1 {
        out.push((n, 1));
    }
    out
}

/// All divisors of `n` in increasing order.
///
/// # Examples
///
/// ```
/// use dosa_timeloop::divisors;
/// assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
/// ```
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn divisors(n: u64) -> Vec<u64> {
    let mut out = vec![1u64];
    for (p, e) in factorize(n) {
        let base_len = out.len();
        let mut pk = 1u64;
        for _ in 0..e {
            pk *= p;
            for i in 0..base_len {
                out.push(out[i] * pk);
            }
        }
    }
    out.sort_unstable();
    out
}

/// The divisor of `n` closest to `x` (ties break toward the smaller
/// divisor), optionally bounded above by `cap`.
///
/// This is the rounding primitive of §5.3.2: each relaxed tiling factor is
/// rounded to the nearest divisor of its problem dimension without exceeding
/// the remaining quotient.
///
/// # Examples
///
/// ```
/// use dosa_timeloop::nearest_divisor;
/// assert_eq!(nearest_divisor(56, 5.2, None), 4);
/// assert_eq!(nearest_divisor(56, 100.0, None), 56);
/// assert_eq!(nearest_divisor(56, 100.0, Some(10)), 8);
/// ```
///
/// # Panics
///
/// Panics if `n == 0` or `cap == Some(0)`.
pub fn nearest_divisor(n: u64, x: f64, cap: Option<u64>) -> u64 {
    if let Some(c) = cap {
        assert!(c > 0, "cap must be positive");
    }
    let mut best = 1u64;
    let mut best_dist = f64::INFINITY;
    for d in divisors(n) {
        if let Some(c) = cap {
            if d > c {
                break;
            }
        }
        let dist = (d as f64 - x).abs();
        if dist < best_dist {
            best_dist = dist;
            best = d;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorize_small_numbers() {
        assert_eq!(factorize(2), vec![(2, 1)]);
        assert_eq!(factorize(97), vec![(97, 1)]);
        assert_eq!(factorize(720), vec![(2, 4), (3, 2), (5, 1)]);
    }

    #[test]
    fn divisors_of_prime_and_one() {
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(13), vec![1, 13]);
    }

    #[test]
    fn divisors_count_matches_formula() {
        // d(n) = prod (e_i + 1)
        for n in [12u64, 56, 224, 1000, 1024, 25088] {
            let expected: usize = factorize(n)
                .iter()
                .map(|&(_, e)| (e + 1) as usize)
                .product();
            assert_eq!(divisors(n).len(), expected, "n={n}");
        }
    }

    #[test]
    fn nearest_divisor_rounds_and_caps() {
        assert_eq!(nearest_divisor(64, 15.9, None), 16);
        assert_eq!(nearest_divisor(64, 0.0, None), 1);
        assert_eq!(nearest_divisor(7, 3.4, None), 1); // divisors 1, 7; 3.4 closer to 1
        assert_eq!(nearest_divisor(7, 4.1, None), 7);
        assert_eq!(nearest_divisor(64, 64.0, Some(32)), 32);
    }
}
