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
pub fn factorize(n: u64) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    for_each_prime_power(n, |p, e| out.push((p, e)));
    out
}

/// Call `f(prime, exponent)` for every prime factor of `n`, in increasing
/// prime order, without allocating.
///
/// # Panics
///
/// Panics if `n == 0`.
fn for_each_prime_power(mut n: u64, mut f: impl FnMut(u64, u32)) {
    assert!(n > 0, "cannot factorize zero");
    let mut p = 2u64;
    while p * p <= n {
        if n.is_multiple_of(p) {
            let mut e = 0u32;
            while n.is_multiple_of(p) {
                n /= p;
                e += 1;
            }
            f(p, e);
        }
        p += if p == 2 { 1 } else { 2 };
    }
    if n > 1 {
        f(n, 1);
    }
}

/// The smallest prime factor of `n` (`factorize(n)[0].0`), without
/// allocating.
///
/// # Panics
///
/// Panics if `n < 2`.
pub(crate) fn smallest_prime_factor(n: u64) -> u64 {
    let mut first = None;
    for_each_prime_power(n, |p, _| {
        first.get_or_insert(p);
    });
    first.expect("1 has no prime factor")
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

/// Split `n` into `parts` cofactors whose product is `n`, distributing each
/// prime factor to a slot chosen by `pick(upper_bound) -> index`.
///
/// `pick` is called once per prime factor with the number of slots and must
/// return an index `< parts`. Deterministic given `pick`.
///
/// # Examples
///
/// ```
/// use dosa_timeloop::split_into;
/// // Send every factor to slot 0.
/// let parts = split_into(24, 3, |_| 0);
/// assert_eq!(parts, vec![24, 1, 1]);
/// ```
///
/// # Panics
///
/// Panics if `parts == 0` or if `pick` returns an out-of-range index.
pub fn split_into(n: u64, parts: usize, pick: impl FnMut(usize) -> usize) -> Vec<u64> {
    assert!(parts > 0, "need at least one part");
    let mut out = vec![1u64; parts];
    split_into_slice(n, &mut out, pick);
    out
}

/// [`split_into`] into a caller-owned slice of ones, without allocating:
/// `out[i]` is multiplied by every prime factor sent to slot `i`, with the
/// same `pick` calls in the same order.
pub(crate) fn split_into_slice(n: u64, out: &mut [u64], mut pick: impl FnMut(usize) -> usize) {
    let parts = out.len();
    for_each_prime_power(n, |p, e| {
        for _ in 0..e {
            let slot = pick(parts);
            assert!(slot < parts, "pick returned out-of-range slot");
            out[slot] *= p;
        }
    });
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

    #[test]
    fn split_preserves_product() {
        let mut i = 0usize;
        let parts = split_into(360, 4, |n| {
            i += 1;
            i % n
        });
        assert_eq!(parts.iter().product::<u64>(), 360);
        assert_eq!(parts.len(), 4);
    }
}
