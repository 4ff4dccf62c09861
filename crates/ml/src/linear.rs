//! Logistic regression: the simple linear classifier the tree ensembles
//! are measured against.
//!
//! The prior work \[5\] modelled match likelihood with plain linear
//! regression; the conference version \[18\] reports RandomForest as the
//! best of "all classifiers we experimented". This module provides the
//! linear end of that spectrum — useful as a baseline and for showing why
//! the non-linearly-separable pair features (paper Section III-C) need
//! trees.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::error::TrainError;

/// L2-regularised logistic regression trained by mini-batch gradient
/// descent on standardised features.
///
/// # Examples
///
/// ```
/// use sm_ml::data::Dataset;
/// use sm_ml::linear::LogisticRegression;
///
/// let mut ds = Dataset::new(1);
/// for i in 0..200 {
///     ds.push(&[i as f64], i >= 100)?;
/// }
/// let model = LogisticRegression::fit(&ds, &Default::default(), 1)?;
/// assert!(model.proba(&[180.0]) > 0.5);
/// assert!(model.proba(&[20.0]) < 0.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    /// Weight per (standardised) feature.
    weights: Vec<f64>,
    bias: f64,
    /// Per-feature mean used for standardisation.
    mean: Vec<f64>,
    /// Per-feature standard deviation (1 where degenerate).
    std: Vec<f64>,
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogisticParams {
    /// Gradient-descent epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularisation strength.
    pub l2: f64,
    /// Mini-batch size.
    pub batch: usize,
}

impl Default for LogisticParams {
    fn default() -> Self {
        Self {
            epochs: 40,
            learning_rate: 0.1,
            l2: 1e-4,
            batch: 256,
        }
    }
}

impl LogisticRegression {
    /// Fits the model.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::EmptyDataset`] / [`TrainError::SingleClass`]
    /// for untrainable data.
    pub fn fit(data: &Dataset, params: &LogisticParams, seed: u64) -> Result<Self, TrainError> {
        data.check_trainable()?;
        let m = data.num_features();
        let n = data.len();

        // Standardise: the pair features span orders of magnitude.
        let mut mean = vec![0.0; m];
        for i in 0..n {
            for (j, mu) in mean.iter_mut().enumerate() {
                *mu += data.feature(i, j);
            }
        }
        for mu in &mut mean {
            *mu /= n as f64;
        }
        let mut std = vec![0.0; m];
        for i in 0..n {
            for j in 0..m {
                let d = data.feature(i, j) - mean[j];
                std[j] += d * d;
            }
        }
        for s in &mut std {
            *s = (*s / n as f64).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }

        let mut w = vec![0.0; m];
        let mut b = 0.0;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..n).collect();
        let mut grad = vec![0.0; m];
        for _ in 0..params.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(params.batch) {
                grad.iter_mut().for_each(|g| *g = 0.0);
                let mut gb = 0.0;
                for &i in chunk {
                    let mut z = b;
                    for j in 0..m {
                        z += w[j] * (data.feature(i, j) - mean[j]) / std[j];
                    }
                    let p = sigmoid(z);
                    let err = p - f64::from(u8::from(data.label(i)));
                    for (j, g) in grad.iter_mut().enumerate() {
                        *g += err * (data.feature(i, j) - mean[j]) / std[j];
                    }
                    gb += err;
                }
                let scale = params.learning_rate / chunk.len() as f64;
                for j in 0..m {
                    w[j] -= scale * (grad[j] + params.l2 * w[j] * chunk.len() as f64);
                }
                b -= scale * gb;
            }
        }
        Ok(Self {
            weights: w,
            bias: b,
            mean,
            std,
        })
    }

    /// Probability that `x` is positive.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the trained feature count.
    pub fn proba(&self, x: &[f64]) -> f64 {
        let mut z = self.bias;
        for (j, w) in self.weights.iter().enumerate() {
            z += w * (x[j] - self.mean[j]) / self.std[j];
        }
        sigmoid(z)
    }

    /// Hard classification at 0.5.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.proba(x) >= 0.5
    }

    /// Fitted weights in standardised space (interpretable importances).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn linear_data(n: usize) -> Dataset {
        let mut ds = Dataset::new(2);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..n {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            ds.push(&[a, b], a + b > 0.0).expect("2 features");
        }
        ds
    }

    fn xor_data(n: usize) -> Dataset {
        let mut ds = Dataset::new(2);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        for _ in 0..n {
            let a: f64 = rng.gen_range(0.0..1.0);
            let b: f64 = rng.gen_range(0.0..1.0);
            ds.push(&[a, b], (a > 0.5) != (b > 0.5))
                .expect("2 features");
        }
        ds
    }

    fn accuracy(m: &LogisticRegression, ds: &Dataset) -> f64 {
        (0..ds.len())
            .filter(|&i| m.predict(ds.row(i)) == ds.label(i))
            .count() as f64
            / ds.len() as f64
    }

    #[test]
    fn learns_linear_boundaries_well() {
        let ds = linear_data(1_000);
        let m = LogisticRegression::fit(&ds, &LogisticParams::default(), 1).expect("fit");
        assert!(accuracy(&m, &ds) > 0.95);
    }

    #[test]
    fn fails_on_xor_unlike_trees() {
        // The motivating contrast of paper Section III-C: pair data is not
        // linearly separable.
        let ds = xor_data(1_000);
        let m = LogisticRegression::fit(&ds, &LogisticParams::default(), 1).expect("fit");
        assert!(accuracy(&m, &ds) < 0.7, "linear model should fail on XOR");
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let tree = crate::tree::Tree::fit(
            &ds,
            &ds.all_indices(),
            crate::tree::TreeParams::default(),
            &mut rng,
        )
        .expect("fit");
        let tree_acc = (0..ds.len())
            .filter(|&i| tree.predict(ds.row(i)) == ds.label(i))
            .count() as f64
            / ds.len() as f64;
        assert!(tree_acc > 0.95, "the tree handles XOR");
    }

    #[test]
    fn probabilities_are_calibrated_endpoints() {
        let ds = linear_data(500);
        let m = LogisticRegression::fit(&ds, &LogisticParams::default(), 1).expect("fit");
        assert!(m.proba(&[1.0, 1.0]) > 0.9);
        assert!(m.proba(&[-1.0, -1.0]) < 0.1);
        let p = m.proba(&[0.0, 0.0]);
        assert!(
            p > 0.2 && p < 0.8,
            "boundary point should be uncertain, got {p}"
        );
    }

    #[test]
    fn rejects_untrainable_data() {
        let ds = Dataset::new(2);
        assert!(LogisticRegression::fit(&ds, &LogisticParams::default(), 1).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = linear_data(300);
        let a = LogisticRegression::fit(&ds, &LogisticParams::default(), 7).expect("fit");
        let b = LogisticRegression::fit(&ds, &LogisticParams::default(), 7).expect("fit");
        assert_eq!(a, b);
    }

    #[test]
    fn standardisation_handles_constant_features() {
        let mut ds = Dataset::new(2);
        for i in 0..100 {
            ds.push(&[i as f64, 5.0], i >= 50).expect("2 features");
        }
        let m = LogisticRegression::fit(&ds, &LogisticParams::default(), 1).expect("fit");
        assert!(m.proba(&[99.0, 5.0]).is_finite());
        assert!(m.predict(&[99.0, 5.0]));
    }
}
