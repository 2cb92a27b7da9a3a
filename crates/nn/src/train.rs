//! Adam-based training loop for the correction MLP (§6.5.1), plus the
//! Spearman rank-correlation metric used by Figures 10 and 11.

use crate::mlp::Mlp;
use dosa_autodiff::Adam;
use rand::seq::SliceRandom;
use rand::Rng;

/// A regression dataset: feature rows and scalar targets.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Feature vectors.
    pub features: Vec<Vec<f64>>,
    /// Regression targets.
    pub targets: Vec<f64>,
}

impl Dataset {
    /// Add one sample.
    pub fn push(&mut self, features: Vec<f64>, target: f64) {
        self.features.push(features);
        self.targets.push(target);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Split into (train, test) with `test_fraction` of samples held out,
    /// shuffled by `rng`.
    pub fn split(&self, test_fraction: f64, rng: &mut impl Rng) -> (Dataset, Dataset) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        let n_test = ((self.len() as f64) * test_fraction).round() as usize;
        let (test_idx, train_idx) = idx.split_at(n_test.min(self.len()));
        let take = |ids: &[usize]| Dataset {
            features: ids.iter().map(|&i| self.features[i].clone()).collect(),
            targets: ids.iter().map(|&i| self.targets[i]).collect(),
        };
        (take(train_idx), take(test_idx))
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 400,
            batch_size: 64,
            learning_rate: 3e-3,
        }
    }
}

/// Train `mlp` on `data` with Adam and MSE loss; fits input normalization
/// first. Returns the mean loss per epoch.
pub fn train(mlp: &mut Mlp, data: &Dataset, cfg: &TrainConfig, rng: &mut impl Rng) -> Vec<f64> {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    mlp.fit_normalization(&data.features);

    let n_params = mlp.num_params();
    let mut params = mlp.params();
    let mut adam = Adam::new(n_params, cfg.learning_rate);

    let mut history = Vec::with_capacity(cfg.epochs);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut grads = vec![0.0; n_params];

    for _ in 0..cfg.epochs {
        order.shuffle(rng);
        let mut epoch_loss = 0.0;
        for batch in order.chunks(cfg.batch_size.max(1)) {
            grads.iter_mut().for_each(|g| *g = 0.0);
            for &i in batch {
                let y = mlp.forward_backward(&data.features[i], data.targets[i], &mut grads);
                let d = y - data.targets[i];
                epoch_loss += 0.5 * d * d;
            }
            let scale = 1.0 / batch.len() as f64;
            grads.iter_mut().for_each(|g| *g *= scale);
            adam.step(&mut params, &grads);
            mlp.set_params(&params);
        }
        history.push(epoch_loss / data.len() as f64);
    }
    history
}

/// Mean squared error of `mlp` on `data`.
pub fn mse(mlp: &Mlp, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.features
        .iter()
        .zip(&data.targets)
        .map(|(x, &t)| {
            let d = mlp.forward(x) - t;
            d * d
        })
        .sum::<f64>()
        / data.len() as f64
}

/// Spearman rank correlation between two equal-length slices — the accuracy
/// metric of Figures 10 and 11 (§6.5.2). Ties receive average ranks.
///
/// Returns 0 for slices shorter than 2.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "spearman needs equal lengths");
    if a.len() < 2 {
        return 0.0;
    }
    let ra = ranks(a);
    let rb = ranks(b);
    pearson(&ra, &rb)
}

fn ranks(x: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.sort_by(|&i, &j| x[i].partial_cmp(&x[j]).unwrap_or(std::cmp::Ordering::Equal));
    let mut r = vec![0.0; x.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && x[idx[j + 1]] == x[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            r[k] = avg;
        }
        i = j + 1;
    }
    r
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    // dosa-lint: allow(float-eq) — degenerate-variance guard before the
    // division below; only an exactly-zero sum of squares divides by zero.
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_learns_a_simple_function() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut data = Dataset::default();
        for _ in 0..256 {
            let x: f64 = rng.gen_range(-1.0..1.0);
            let y: f64 = rng.gen_range(-1.0..1.0);
            data.push(vec![x, y], 0.5 * x - 0.8 * y + 0.1);
        }
        let mut mlp = Mlp::new(&[2, 16, 16, 1], &mut rng);
        let before = mse(&mlp, &data);
        let cfg = TrainConfig {
            epochs: 120,
            batch_size: 32,
            learning_rate: 5e-3,
        };
        let history = train(&mut mlp, &data, &cfg, &mut rng);
        let after = mse(&mlp, &data);
        assert!(after < before * 0.05, "before={before} after={after}");
        assert!(history.last().expect("epochs ran") < &history[0]);
    }

    #[test]
    fn split_partitions_samples() {
        let mut data = Dataset::default();
        for i in 0..100 {
            data.push(vec![i as f64], i as f64);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = data.split(0.2, &mut rng);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
        let mut all: Vec<f64> = train.targets.iter().chain(&test.targets).copied().collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert_eq!(all, (0..100).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn spearman_detects_monotone_relations() {
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| x.exp()).collect(); // monotone
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        let c: Vec<f64> = a.iter().map(|x| -x).collect();
        assert!((spearman(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties_and_noise() {
        let a = vec![1.0, 1.0, 2.0, 3.0];
        let b = vec![1.0, 1.0, 2.0, 3.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        let flat = vec![5.0; 4];
        assert_eq!(spearman(&a, &flat), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn training_empty_panics() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp = Mlp::new(&[2, 4, 1], &mut rng);
        let _ = train(
            &mut mlp,
            &Dataset::default(),
            &TrainConfig::default(),
            &mut rng,
        );
    }
}
