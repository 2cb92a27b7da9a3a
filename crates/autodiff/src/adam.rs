//! Adam optimizer over a flat parameter vector — the descent algorithm DOSA
//! uses (§6.1: "the specific descent algorithm DOSA uses is Adam"), and
//! the trainer of the latency-correction MLP (§6.5.1).

/// Adam state for a fixed-size parameter vector.
///
/// # Examples
///
/// ```
/// use dosa_autodiff::Adam;
/// let mut opt = Adam::new(2, 0.1);
/// let mut params = vec![1.0, -2.0];
/// for _ in 0..200 {
///     // Minimize x^2 + y^2.
///     let grads: Vec<f64> = params.iter().map(|p| 2.0 * p).collect();
///     opt.step(&mut params, &grads);
/// }
/// assert!(params.iter().all(|p| p.abs() < 1e-2));
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
    /// Learning rate.
    pub learning_rate: f64,
}

/// First-moment decay.
const BETA1: f64 = 0.9;
/// Second-moment decay.
const BETA2: f64 = 0.999;
/// Numerical-stability epsilon.
const EPSILON: f64 = 1e-8;

impl Adam {
    /// Create state for `n` parameters with the given learning rate.
    pub fn new(n: usize, learning_rate: f64) -> Adam {
        Adam {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
            learning_rate,
        }
    }

    /// Apply one update in place.
    ///
    /// # Panics
    ///
    /// Panics if the lengths of `params`/`grads` differ from the state size.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len());
        assert_eq!(grads.len(), self.m.len());
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g;
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * g * g;
            params[i] -=
                self.learning_rate * (self.m[i] / bc1) / ((self.v[i] / bc2).sqrt() + EPSILON);
        }
    }

    /// Reset moments (used when restarting from a rounded point).
    pub fn reset(&mut self) {
        self.m.iter_mut().for_each(|x| *x = 0.0);
        self.v.iter_mut().for_each(|x| *x = 0.0);
        self.t = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic_bowl() {
        let mut opt = Adam::new(3, 0.05);
        let target = [3.0, -1.0, 0.5];
        let mut p = vec![0.0; 3];
        for _ in 0..2000 {
            let g: Vec<f64> = p.iter().zip(&target).map(|(x, t)| 2.0 * (x - t)).collect();
            opt.step(&mut p, &g);
        }
        for (x, t) in p.iter().zip(&target) {
            assert!((x - t).abs() < 1e-2, "{x} vs {t}");
        }
    }

    #[test]
    fn reset_clears_momentum() {
        let mut opt = Adam::new(1, 0.1);
        let mut p = vec![0.0];
        opt.step(&mut p, &[1.0]);
        opt.reset();
        assert_eq!(opt.t, 0);
        let before = p[0];
        opt.step(&mut p, &[0.0]);
        // With zero gradient and reset moments, nothing moves.
        assert_eq!(p[0], before);
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let mut opt = Adam::new(2, 0.1);
        let mut p = vec![0.0];
        opt.step(&mut p, &[0.0]);
    }
}
