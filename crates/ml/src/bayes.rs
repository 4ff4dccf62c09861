//! Gaussian naive Bayes — one of the simple classifiers the conference
//! version \[18\] reports trying before settling on tree ensembles.
//!
//! Models each feature as class-conditionally Gaussian. Fast, calibrated
//! on unimodal data, but blind to the feature interactions (e.g. "small
//! ManhattanVpin *and* plausible DiffArea") that make the pair problem
//! tree-shaped.

use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::error::TrainError;

/// A fitted Gaussian naive Bayes classifier.
///
/// # Examples
///
/// ```
/// use sm_ml::bayes::GaussianNaiveBayes;
/// use sm_ml::data::Dataset;
///
/// let mut ds = Dataset::new(1);
/// for i in 0..100 {
///     ds.push(&[f64::from(i)], i >= 50)?;
/// }
/// let model = GaussianNaiveBayes::fit(&ds)?;
/// assert!(model.predict(&[90.0]));
/// assert!(!model.predict(&[5.0]));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaussianNaiveBayes {
    prior_pos: f64,
    mean: [Vec<f64>; 2],
    var: [Vec<f64>; 2],
}

impl GaussianNaiveBayes {
    /// Fits per-class feature means and variances.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::EmptyDataset`] / [`TrainError::SingleClass`]
    /// for untrainable data.
    pub fn fit(data: &Dataset) -> Result<Self, TrainError> {
        data.check_trainable()?;
        let m = data.num_features();
        let mut mean = [vec![0.0; m], vec![0.0; m]];
        let mut var = [vec![0.0; m], vec![0.0; m]];
        let mut count = [0usize; 2];
        for i in 0..data.len() {
            let c = usize::from(data.label(i));
            count[c] += 1;
            for (j, mu) in mean[c].iter_mut().enumerate() {
                *mu += data.feature(i, j);
            }
        }
        for c in 0..2 {
            for mu in &mut mean[c] {
                *mu /= count[c] as f64;
            }
        }
        for i in 0..data.len() {
            let c = usize::from(data.label(i));
            for j in 0..m {
                let d = data.feature(i, j) - mean[c][j];
                var[c][j] += d * d;
            }
        }
        // Variance floor keeps degenerate features from producing infinite
        // likelihood ratios.
        for c in 0..2 {
            for v in &mut var[c] {
                *v = (*v / count[c] as f64).max(1e-9);
            }
        }
        Ok(Self {
            prior_pos: count[1] as f64 / data.len() as f64,
            mean,
            var,
        })
    }

    /// Posterior probability that `x` is positive.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the trained feature count.
    pub fn proba(&self, x: &[f64]) -> f64 {
        let mut log_odds = (self.prior_pos / (1.0 - self.prior_pos)).ln();
        for (j, &v) in x.iter().enumerate().take(self.mean[0].len()) {
            log_odds += log_gauss(v, self.mean[1][j], self.var[1][j])
                - log_gauss(v, self.mean[0][j], self.var[0][j]);
        }
        1.0 / (1.0 + (-log_odds).exp())
    }

    /// Hard classification at 0.5.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.proba(x) >= 0.5
    }
}

fn log_gauss(x: f64, mean: f64, var: f64) -> f64 {
    let d = x - mean;
    -0.5 * (d * d / var + var.ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn separates_shifted_gaussians() {
        let mut ds = Dataset::new(2);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..500 {
            let label = rng.gen_bool(0.5);
            let shift = if label { 2.0 } else { -2.0 };
            let a: f64 = rng.gen_range(-1.0..1.0) + shift;
            let b: f64 = rng.gen_range(-1.0..1.0) + shift;
            ds.push(&[a, b], label).expect("2 features");
        }
        let m = GaussianNaiveBayes::fit(&ds).expect("fit");
        let acc = (0..ds.len())
            .filter(|&i| m.predict(ds.row(i)) == ds.label(i))
            .count() as f64
            / ds.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn probabilities_are_bounded_and_monotone_along_the_axis() {
        let mut ds = Dataset::new(1);
        for i in 0..200 {
            ds.push(&[f64::from(i)], i >= 100).expect("1 feature");
        }
        let m = GaussianNaiveBayes::fit(&ds).expect("fit");
        let p_low = m.proba(&[10.0]);
        let p_mid = m.proba(&[99.0]);
        let p_high = m.proba(&[190.0]);
        assert!(p_low < p_mid && p_mid < p_high);
        for p in [p_low, p_mid, p_high] {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn variance_floor_prevents_nan() {
        let mut ds = Dataset::new(2);
        // Feature 1 is constant within each class.
        for i in 0..50 {
            ds.push(&[f64::from(i), 3.0], i >= 25).expect("2 features");
        }
        let m = GaussianNaiveBayes::fit(&ds).expect("fit");
        assert!(m.proba(&[40.0, 3.0]).is_finite());
    }

    #[test]
    fn prior_shifts_the_boundary() {
        // Identical class-conditional distributions, 9:1 class imbalance:
        // the posterior must follow the prior.
        let mut ds = Dataset::new(1);
        for i in 0..90 {
            ds.push(&[f64::from(i % 10)], true).expect("1 feature");
        }
        for i in 0..10 {
            ds.push(&[f64::from(i)], false).expect("1 feature");
        }
        let m = GaussianNaiveBayes::fit(&ds).expect("fit");
        assert!(m.proba(&[4.5]) > 0.7, "prior favours the majority class");
    }

    #[test]
    fn rejects_untrainable_data() {
        assert!(GaussianNaiveBayes::fit(&Dataset::new(3)).is_err());
    }
}
