//! # dosa-nn
//!
//! A hand-rolled multilayer perceptron used as DOSA's learned latency
//! correction model (§4.7): a Mind-Mappings-style network with 7 hidden
//! fully-connected layers and ≈5.7k parameters that predicts the residual
//! between the analytical model and measured Gemmini-RTL latency.
//!
//! Backpropagation is implemented directly (parameter gradients for Adam
//! training). [`Mlp::forward_in`] is the one forward pass, generic over
//! the [`dosa_autodiff`] recording context: on plain values it is
//! [`Mlp::forward`], and on the tape the trained network stays
//! differentiable with respect to its inputs inside the one-loop
//! gradient-descent search.
//!
//! ## Example
//!
//! ```
//! use dosa_nn::{train, Dataset, Mlp, TrainConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut data = Dataset::default();
//! for i in 0..64 {
//!     let x = i as f64 / 64.0;
//!     data.push(vec![x], 2.0 * x - 1.0);
//! }
//! let mut mlp = Mlp::new(&[1, 8, 1], &mut rng);
//! let cfg = TrainConfig { epochs: 50, ..TrainConfig::default() };
//! let history = train(&mut mlp, &data, &cfg, &mut rng);
//! assert!(history.last().unwrap() < &history[0]);
//! ```

#![warn(missing_docs)]

mod mlp;
mod train;

pub use mlp::Mlp;
pub use train::{mse, spearman, train, Dataset, TrainConfig};
