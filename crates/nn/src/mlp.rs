//! A small fully-connected network with hand-rolled backpropagation.
//!
//! The paper's learned latency model (§4.7) is a Mind-Mappings-style MLP
//! with 7 hidden fully-connected layers and ~5.7k parameters, trained to
//! predict the residual between the analytical model's latency and the
//! measured Gemmini-RTL latency. This implementation matches that shape
//! (7 hidden layers of width 28 ≈ 5.8k parameters at 33 inputs). Its
//! forward pass is generic over the recording context, so the trained
//! network stays differentiable with respect to its *inputs* inside DOSA's
//! gradient-descent search.

use dosa_autodiff::{Ctx, Scalar, Values};
use rand::Rng;

/// One dense layer: `y = W x + b` with row-major weights.
#[derive(Debug, Clone)]
struct Dense {
    weights: Vec<f64>, // out x in
    bias: Vec<f64>,
    inputs: usize,
    outputs: usize,
}

impl Dense {
    fn new(inputs: usize, outputs: usize, rng: &mut impl Rng) -> Dense {
        // He initialization for ReLU networks.
        let scale = (2.0 / inputs as f64).sqrt();
        let weights = (0..inputs * outputs)
            .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Dense {
            weights,
            bias: vec![0.0; outputs],
            inputs,
            outputs,
        }
    }

    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..self.outputs {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            let mut acc = self.bias[o];
            for (w, xi) in row.iter().zip(x) {
                acc += w * xi;
            }
            out.push(acc);
        }
    }
}

/// A multilayer perceptron with ReLU hidden activations and a scalar linear
/// output.
///
/// # Examples
///
/// ```
/// use dosa_nn::Mlp;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mlp = Mlp::paper_architecture(4, &mut rng);
/// let y = mlp.forward(&[0.1, -0.2, 0.3, 0.4]);
/// assert!(y.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    /// Per-feature normalization subtracted before the first layer.
    pub norm_mean: Vec<f64>,
    /// Per-feature normalization scale.
    pub norm_std: Vec<f64>,
}

impl Mlp {
    /// Hidden width used by [`Mlp::paper_architecture`].
    pub const HIDDEN_WIDTH: usize = 28;
    /// Hidden depth used by [`Mlp::paper_architecture`] (§4.7: 7 hidden
    /// fully-connected layers).
    pub const HIDDEN_LAYERS: usize = 7;

    /// Build an MLP with the given layer sizes (including input and the
    /// final scalar output).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or the last is not 1.
    pub fn new(sizes: &[usize], rng: &mut impl Rng) -> Mlp {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert_eq!(
            *sizes.last().expect("nonempty"),
            1,
            "scalar output expected"
        );
        let layers = sizes
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            norm_mean: vec![0.0; sizes[0]],
            norm_std: vec![1.0; sizes[0]],
        }
    }

    /// The architecture of §4.7: 7 hidden layers, scalar output
    /// (≈5.7k parameters at the 33-feature input of the latency model).
    pub fn paper_architecture(inputs: usize, rng: &mut impl Rng) -> Mlp {
        let mut sizes = vec![inputs];
        sizes.extend(std::iter::repeat_n(Self::HIDDEN_WIDTH, Self::HIDDEN_LAYERS));
        sizes.push(1);
        Mlp::new(&sizes, rng)
    }

    /// Number of input features.
    pub fn num_inputs(&self) -> usize {
        self.layers[0].inputs
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.bias.len())
            .sum()
    }

    /// Fit the input normalization to a dataset (mean / std per feature).
    pub fn fit_normalization(&mut self, features: &[Vec<f64>]) {
        let n = features.len().max(1) as f64;
        let dim = self.num_inputs();
        let mut mean = vec![0.0; dim];
        for f in features {
            for (m, x) in mean.iter_mut().zip(f) {
                *m += x / n;
            }
        }
        let mut var = vec![0.0; dim];
        for f in features {
            for ((v, x), m) in var.iter_mut().zip(f).zip(&mean) {
                *v += (x - m) * (x - m) / n;
            }
        }
        self.norm_mean = mean;
        self.norm_std = var.into_iter().map(|v| v.sqrt().max(1e-6)).collect();
    }

    fn normalize(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(&self.norm_mean)
            .zip(&self.norm_std)
            .map(|((x, m), s)| (x - m) / s)
            .collect()
    }

    /// Forward pass producing the scalar output: [`Mlp::forward_in`] on
    /// plain values.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`Mlp::num_inputs`].
    pub fn forward(&self, x: &[f64]) -> f64 {
        self.forward_in(Values, x)
    }

    /// Forward pass in the recording context `cx`, with the network weights
    /// as constants. On a [`Tape`](dosa_autodiff::Tape) the output is
    /// differentiable with respect to the *input* variables — how the
    /// trained correction model joins DOSA's gradient-descent loss (§4.7,
    /// §6.5); on [`Values`] it is the plain forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`Mlp::num_inputs`].
    pub fn forward_in<C: Ctx>(&self, cx: C, x: &[C::N]) -> C::N {
        assert_eq!(x.len(), self.num_inputs(), "feature dimension mismatch");
        let mut a: Vec<C::N> = x
            .iter()
            .zip(self.norm_mean.iter().zip(&self.norm_std))
            .map(|(&v, (m, s))| (v - *m) / *s)
            .collect();
        for (li, layer) in self.layers.iter().enumerate() {
            let mut z = Vec::with_capacity(layer.outputs);
            for o in 0..layer.outputs {
                let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                let mut acc = cx.constant(layer.bias[o]);
                for (w, xi) in row.iter().zip(&a) {
                    acc = acc + *xi * *w;
                }
                if li + 1 < self.layers.len() {
                    acc = acc.relu();
                }
                z.push(acc);
            }
            a = z;
        }
        a[0]
    }

    /// Forward and backward pass for one sample; returns the output and
    /// accumulates parameter gradients of `0.5*(y - target)^2` into `grads`
    /// (laid out layer by layer: weights then bias).
    pub(crate) fn forward_backward(&self, x: &[f64], target: f64, grads: &mut [f64]) -> f64 {
        let mut activations: Vec<Vec<f64>> = vec![self.normalize(x)];
        for (li, layer) in self.layers.iter().enumerate() {
            let mut z = Vec::new();
            layer.forward(activations.last().expect("nonempty"), &mut z);
            if li + 1 < self.layers.len() {
                for v in z.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            activations.push(z);
        }
        let y = activations.last().expect("nonempty")[0];

        // Backward.
        let mut delta = vec![y - target]; // dL/dy for 0.5*(y-t)^2
        let mut offset = grads.len();
        for (li, layer) in self.layers.iter().enumerate().rev() {
            offset -= layer.weights.len() + layer.bias.len();
            let (gw, gb) = grads[offset..offset + layer.weights.len() + layer.bias.len()]
                .split_at_mut(layer.weights.len());
            let input = &activations[li];
            let mut next_delta = vec![0.0; layer.inputs];
            for o in 0..layer.outputs {
                let d = delta[o];
                gb[o] += d;
                let row = &mut gw[o * layer.inputs..(o + 1) * layer.inputs];
                let wrow = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                for i in 0..layer.inputs {
                    row[i] += d * input[i];
                    next_delta[i] += d * wrow[i];
                }
            }
            // ReLU derivative w.r.t. the previous layer's post-activation.
            if li > 0 {
                for (nd, a) in next_delta.iter_mut().zip(&activations[li]) {
                    if *a <= 0.0 {
                        *nd = 0.0;
                    }
                }
            }
            delta = next_delta;
        }
        y
    }

    /// Flat view of all parameters (weights then bias, per layer).
    pub fn params(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            v.extend_from_slice(&l.weights);
            v.extend_from_slice(&l.bias);
        }
        v
    }

    /// Overwrite all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_params()`.
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_params());
        let mut off = 0;
        for l in &mut self.layers {
            let nw = l.weights.len();
            l.weights.copy_from_slice(&params[off..off + nw]);
            off += nw;
            let nb = l.bias.len();
            l.bias.copy_from_slice(&params[off..off + nb]);
            off += nb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosa_autodiff::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_architecture_param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::paper_architecture(33, &mut rng);
        // 34*28 + 6*29*28 + 29 = 5853 ≈ the paper's 5737.
        assert_eq!(mlp.num_params(), 34 * 28 + 6 * 29 * 28 + 29);
        assert!((mlp.num_params() as i64 - 5737).abs() < 300);
    }

    #[test]
    fn params_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mlp = Mlp::new(&[3, 5, 1], &mut rng);
        let p = mlp.params();
        let mut p2 = p.clone();
        for v in p2.iter_mut() {
            *v += 0.5;
        }
        mlp.set_params(&p2);
        assert_eq!(mlp.params(), p2);
        assert_ne!(mlp.params(), p);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp = Mlp::new(&[4, 6, 6, 1], &mut rng);
        // Bias the network away from dead ReLUs.
        let mut p = mlp.params();
        for v in p.iter_mut() {
            *v += 0.05;
        }
        mlp.set_params(&p);
        let x = [0.3, -0.7, 1.2, 0.4];
        let target = 0.9;
        let mut grads = vec![0.0; mlp.num_params()];
        let _ = mlp.forward_backward(&x, target, &mut grads);
        let loss = |m: &Mlp| {
            let y = m.forward(&x);
            0.5 * (y - target) * (y - target)
        };
        let eps = 1e-6;
        let mut worst: f64 = 0.0;
        for i in (0..mlp.num_params()).step_by(7) {
            let mut plus = mlp.clone();
            let mut pp = plus.params();
            pp[i] += eps;
            plus.set_params(&pp);
            let mut minus = mlp.clone();
            let mut pm = minus.params();
            pm[i] -= eps;
            minus.set_params(&pm);
            let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let denom = grads[i].abs().max(fd.abs()).max(1e-6);
            worst = worst.max((grads[i] - fd).abs() / denom);
        }
        assert!(worst < 1e-4, "worst relative grad error {worst}");
    }

    #[test]
    fn tape_forward_matches_plain_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&[5, 8, 8, 1], &mut rng);
        mlp.fit_normalization(&[
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            vec![2.0, 1.0, 0.0, -1.0, -2.0],
        ]);
        let x = [0.5, 1.5, -0.5, 2.0, 0.0];
        let plain = mlp.forward(&x);
        let tape = Tape::new();
        let vars: Vec<_> = x.iter().map(|&v| tape.var(v)).collect();
        let y = mlp.forward_in(&tape, &vars);
        assert_eq!(plain.to_bits(), y.value().to_bits());
        // Input gradients exist.
        let g = tape.backward(y);
        assert!(vars.iter().any(|v| g.wrt(*v) != 0.0));
    }

    #[test]
    fn normalization_is_applied() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut mlp = Mlp::new(&[2, 4, 1], &mut rng);
        let before = mlp.forward(&[10.0, 20.0]);
        mlp.fit_normalization(&[vec![10.0, 20.0], vec![30.0, 40.0]]);
        let after = mlp.forward(&[10.0, 20.0]);
        assert_ne!(before, after);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn wrong_input_dim_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(&[3, 4, 1], &mut rng);
        let _ = mlp.forward(&[1.0]);
    }
}
