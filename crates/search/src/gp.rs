//! Gaussian-process regression with an RBF kernel — the surrogate for the
//! Bayesian-optimization baseline (§6.1, Spotlight-style hyperparameters).

/// A Gaussian process fit to observations, with a squared-exponential
/// kernel `σ² exp(−‖x−x'‖²/2ℓ²)` plus observation noise.
///
/// Inputs are standardized internally; targets are centered.
///
/// # Examples
///
/// ```
/// use dosa_search::GaussianProcess;
/// let xs = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
/// let ys = vec![0.0, 1.0, 4.0, 9.0];
/// let gp = GaussianProcess::fit(xs, ys, 1.0, 0.01);
/// let (mean, _var) = gp.predict(&[1.5]);
/// assert!((mean - 2.2).abs() < 1.5);
/// ```
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    x: Vec<f64>,     // standardized inputs, row-major n x dim
    alpha: Vec<f64>, // (K + σn² I)⁻¹ (y - mean)
    chol: Vec<f64>,  // lower Cholesky factor, row-major n x n
    n: usize,
    dim: usize,
    lengthscale: f64,
    signal_var: f64,
    y_mean: f64,
    feat_mean: Vec<f64>,
    feat_std: Vec<f64>,
}

/// Candidates an [`EiScorer`] carries through one pass over the Cholesky
/// factor.
pub(crate) const EI_LANES: usize = 8;

impl GaussianProcess {
    /// Fit a GP to `(xs, ys)` with the given kernel lengthscale (in
    /// standardized input units) and noise standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty, rows have inconsistent dimension, or the
    /// kernel matrix is not positive definite (excluded by the noise term).
    pub fn fit(xs: Vec<Vec<f64>>, ys: Vec<f64>, lengthscale: f64, noise_std: f64) -> Self {
        assert!(!xs.is_empty(), "GP needs observations");
        assert_eq!(xs.len(), ys.len());
        let n = xs.len();
        let dim = xs[0].len();

        // Standardize features.
        let mut feat_mean = vec![0.0; dim];
        for x in &xs {
            assert_eq!(x.len(), dim, "inconsistent feature dimension");
            for (m, v) in feat_mean.iter_mut().zip(x) {
                *m += v / n as f64;
            }
        }
        let mut feat_std = vec![0.0; dim];
        for x in &xs {
            for ((s, v), m) in feat_std.iter_mut().zip(x).zip(&feat_mean) {
                *s += (v - m) * (v - m) / n as f64;
            }
        }
        for s in feat_std.iter_mut() {
            *s = s.sqrt().max(1e-9);
        }
        let x: Vec<f64> = xs
            .iter()
            .flat_map(|row| {
                row.iter()
                    .zip(feat_mean.iter().zip(&feat_std))
                    .map(|(v, (m, s))| (v - m) / s)
            })
            .collect();
        let row = |i: usize| &x[i * dim..(i + 1) * dim];

        let y_mean = ys.iter().sum::<f64>() / n as f64;
        let yc: Vec<f64> = ys.iter().map(|y| y - y_mean).collect();

        // Signal variance from the data.
        let signal_var = (yc.iter().map(|y| y * y).sum::<f64>() / n as f64).max(1e-12);

        // Kernel matrix + noise.
        let mut k = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let v = rbf(row(i), row(j), lengthscale, signal_var);
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
            k[i * n + i] += noise_std * noise_std + 1e-10;
        }

        let chol = cholesky(&k, n);
        // Solve (LLᵀ) alpha = yc.
        let mut alpha = forward_sub(&chol, &yc, n);
        alpha = backward_sub(&chol, &alpha, n);

        GaussianProcess {
            x,
            alpha,
            chol,
            n,
            dim,
            lengthscale,
            signal_var,
            y_mean,
            feat_mean,
            feat_std,
        }
    }

    /// Posterior mean and variance at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimension.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        let mut z = vec![[0.0]; self.dim];
        self.standardize(x, 0, &mut z);
        let [posterior] = self.posterior(&z, &mut vec![[0.0]; self.n]);
        posterior
    }

    /// Expected improvement for *minimization* below `best`.
    pub fn expected_improvement(&self, x: &[f64], best: f64) -> f64 {
        let (mean, var) = self.predict(x);
        ei(mean, var, best)
    }

    /// A batch expected-improvement scorer below `best`. Its buffers are
    /// allocated here, once; scoring with it allocates nothing.
    pub fn ei_scorer(&self, best: f64) -> EiScorer<'_> {
        EiScorer {
            gp: self,
            best,
            z: vec![[0.0; EI_LANES]; self.dim],
            v: vec![[0.0; EI_LANES]; self.n],
        }
    }

    /// Write the standardized `x` into lane `lane` of `z` (one row per
    /// feature).
    fn standardize<const L: usize>(&self, x: &[f64], lane: usize, z: &mut [[f64; L]]) {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        for (zd, (v, (m, s))) in z
            .iter_mut()
            .zip(x.iter().zip(self.feat_mean.iter().zip(&self.feat_std)))
        {
            zd[lane] = (v - m) / s;
        }
    }

    /// Posterior mean and variance of `L` standardized points at once
    /// (`z` holds one row per feature, `v` is `n` rows of scratch).
    ///
    /// One pass over the training rows computes each lane's kernel
    /// column entry, adds it to the mean, and forward-substitutes it in
    /// place (`v = L⁻¹ k*`), so a Cholesky row is read once for all `L`
    /// lanes and the lanes' subtraction chains run side by side. Every
    /// lane performs the one-point operation sequence — the same sums in
    /// the same order, starting from `Sum`'s `-0.0` — so its bits do not
    /// depend on `L` or on the other lanes.
    fn posterior<const L: usize>(&self, z: &[[f64; L]], v: &mut [[f64; L]]) -> [(f64, f64); L] {
        let n = self.n;
        let two_l2 = 2.0 * self.lengthscale * self.lengthscale;
        let mut mean = [-0.0; L];
        let mut vv = [-0.0; L];
        for i in 0..n {
            // k(x_i, x*) per lane.
            let mut d2 = [-0.0; L];
            for (xd, zd) in self.x[i * self.dim..(i + 1) * self.dim].iter().zip(z) {
                for lane in 0..L {
                    let d = xd - zd[lane];
                    d2[lane] += d * d;
                }
            }
            let mut sum = [0.0; L];
            for lane in 0..L {
                let k = self.signal_var * (-d2[lane] / two_l2).exp();
                mean[lane] += k * self.alpha[i];
                sum[lane] = k;
            }
            // var = k(x,x) - vᵀv with v = L⁻¹ k*.
            let (done, rest) = v.split_at_mut(i);
            for (l, vj) in self.chol[i * n..i * n + i].iter().zip(done.iter()) {
                for lane in 0..L {
                    sum[lane] -= l * vj[lane];
                }
            }
            let diag = self.chol[i * n + i];
            for lane in 0..L {
                let vi = sum[lane] / diag;
                rest[0][lane] = vi;
                vv[lane] += vi * vi;
            }
        }
        std::array::from_fn(|lane| {
            (
                self.y_mean + mean[lane],
                (self.signal_var - vv[lane]).max(1e-12),
            )
        })
    }
}

/// Expected improvement below `best` of a posterior `(mean, var)`. The
/// variance is floored at `1e-12`, so `sd` is never below `1e-6`.
fn ei(mean: f64, var: f64, best: f64) -> f64 {
    let sd = var.sqrt();
    let z = (best - mean) / sd;
    (best - mean) * norm_cdf(z) + sd * norm_pdf(z)
}

/// Scores candidates' expected improvement eight at a time with reused
/// buffers; made by [`GaussianProcess::ei_scorer`].
///
/// Each score is bit-identical to
/// [`GaussianProcess::expected_improvement`] of the same point: batching
/// changes how many points share a pass over the Cholesky factor, never
/// the operations on any one point.
///
/// # Examples
///
/// ```
/// use dosa_search::GaussianProcess;
/// let xs = vec![vec![0.0], vec![1.0], vec![3.0]];
/// let gp = GaussianProcess::fit(xs, vec![1.0, 0.0, 2.0], 1.0, 0.05);
/// let candidates = [[0.5], [2.0], [-1.0]];
/// let mut scores = Vec::new();
/// gp.ei_scorer(0.0).score_into(&candidates, &mut scores);
/// for (c, s) in candidates.iter().zip(&scores) {
///     assert_eq!(s.to_bits(), gp.expected_improvement(c, 0.0).to_bits());
/// }
/// ```
#[derive(Debug)]
pub struct EiScorer<'a> {
    gp: &'a GaussianProcess,
    best: f64,
    z: Vec<[f64; EI_LANES]>,
    v: Vec<[f64; EI_LANES]>,
}

impl EiScorer<'_> {
    /// Append the expected improvement of each of `xs` to `out`, in
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if a point's length differs from the training dimension.
    pub fn score_into<X: AsRef<[f64]>>(&mut self, xs: &[X], out: &mut Vec<f64>) {
        for chunk in xs.chunks(EI_LANES) {
            // Lanes past a short chunk keep stale features; their scores
            // are dropped.
            for (lane, x) in chunk.iter().enumerate() {
                self.gp.standardize(x.as_ref(), lane, &mut self.z);
            }
            let posteriors = self.gp.posterior(&self.z, &mut self.v);
            out.extend(
                posteriors[..chunk.len()]
                    .iter()
                    .map(|&(mean, var)| ei(mean, var, self.best)),
            );
        }
    }
}

fn rbf(a: &[f64], b: &[f64], lengthscale: f64, signal_var: f64) -> f64 {
    let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    signal_var * (-d2 / (2.0 * lengthscale * lengthscale)).exp()
}

fn cholesky(k: &[f64], n: usize) -> Vec<f64> {
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = k[i * n + j];
            for p in 0..j {
                sum -= l[i * n + p] * l[j * n + p];
            }
            if i == j {
                assert!(sum > 0.0, "kernel matrix not positive definite");
                l[i * n + i] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    l
}

fn forward_sub(l: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for j in 0..i {
            sum -= l[i * n + j] * y[j];
        }
        y[i] = sum / l[i * n + i];
    }
    y
}

fn backward_sub(l: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = b[i];
        for j in (i + 1)..n {
            sum -= l[j * n + i] * x[j];
        }
        x[i] = sum / l[i * n + i];
    }
    x
}

fn norm_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation.
fn norm_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26, max error ~1.5e-7.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_training_points() {
        let xs = vec![vec![0.0, 0.0], vec![1.0, 0.5], vec![0.2, 2.0]];
        let ys = vec![1.0, -2.0, 3.0];
        let gp = GaussianProcess::fit(xs.clone(), ys.clone(), 1.0, 1e-4);
        for (x, y) in xs.iter().zip(&ys) {
            let (mean, var) = gp.predict(x);
            assert!((mean - y).abs() < 0.05, "{mean} vs {y}");
            assert!(var < 0.05);
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![0.0, 1.0];
        let gp = GaussianProcess::fit(xs, ys, 0.5, 1e-3);
        let (_, near) = gp.predict(&[0.5]);
        let (_, far) = gp.predict(&[10.0]);
        assert!(far > near);
    }

    #[test]
    fn ei_prefers_promising_regions() {
        // y = (x-2)^2 sampled away from the minimum; EI at x=2 should beat
        // EI at x=-3.
        let xs: Vec<Vec<f64>> = [-1.0f64, 0.0, 1.0, 3.0, 4.0, 5.0]
            .iter()
            .map(|&x| vec![x])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] - 2.0) * (x[0] - 2.0)).collect();
        let best = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let gp = GaussianProcess::fit(xs, ys, 1.0, 1e-3);
        assert!(gp.expected_improvement(&[2.0], best) > gp.expected_improvement(&[-3.0], best));
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427007).abs() < 1e-5);
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "GP needs observations")]
    fn empty_fit_panics() {
        let _ = GaussianProcess::fit(vec![], vec![], 1.0, 0.1);
    }
}
