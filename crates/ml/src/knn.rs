//! k-nearest-neighbours — the remaining classical classifier of the
//! "classifiers we experimented" comparison in \[18\].
//!
//! Standardised Euclidean distance, distance-weighted voting, brute-force
//! search (the comparison uses training sets small enough that an index is
//! unnecessary; inference cost is the point the comparison makes).

use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::error::TrainError;

/// A fitted (memorised) k-NN classifier.
///
/// # Examples
///
/// ```
/// use sm_ml::data::Dataset;
/// use sm_ml::knn::KNearest;
///
/// let mut ds = Dataset::new(1);
/// for i in 0..100 {
///     ds.push(&[f64::from(i)], i >= 50)?;
/// }
/// let model = KNearest::fit(&ds, 5)?;
/// assert!(model.predict(&[80.0]));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KNearest {
    k: usize,
    x: Vec<f64>,
    y: Vec<bool>,
    num_features: usize,
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl KNearest {
    /// Memorises the training set with per-feature standardisation.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::EmptyDataset`] / [`TrainError::SingleClass`]
    /// for untrainable data.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn fit(data: &Dataset, k: usize) -> Result<Self, TrainError> {
        assert!(k > 0, "k must be positive");
        data.check_trainable()?;
        let m = data.num_features();
        let n = data.len();
        let mut mean = vec![0.0; m];
        let mut std = vec![0.0; m];
        for i in 0..n {
            for (j, mu) in mean.iter_mut().enumerate() {
                *mu += data.feature(i, j);
            }
        }
        for mu in &mut mean {
            *mu /= n as f64;
        }
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
        let mut x = Vec::with_capacity(n * m);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            for j in 0..m {
                x.push((data.feature(i, j) - mean[j]) / std[j]);
            }
            y.push(data.label(i));
        }
        Ok(Self {
            k: k.min(n),
            x,
            y,
            num_features: m,
            mean,
            std,
        })
    }

    /// Distance-weighted positive vote among the k nearest neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `q` is shorter than the trained feature count.
    pub fn proba(&self, q: &[f64]) -> f64 {
        let m = self.num_features;
        let qs: Vec<f64> = (0..m)
            .map(|j| (q[j] - self.mean[j]) / self.std[j])
            .collect();
        // Max-heap of (distance², index) keeping the k smallest.
        let mut heap: Vec<(f64, usize)> = Vec::with_capacity(self.k + 1);
        for i in 0..self.y.len() {
            let mut d2 = 0.0;
            for (xv, qv) in self.x[i * m..(i + 1) * m].iter().zip(&qs) {
                let d = xv - qv;
                d2 += d * d;
            }
            if heap.len() < self.k {
                heap.push((d2, i));
                if heap.len() == self.k {
                    heap.sort_by(|a, b| b.0.total_cmp(&a.0)); // max first
                }
            } else if d2 < heap[0].0 {
                heap[0] = (d2, i);
                let mut p = 0;
                while p + 1 < heap.len() && heap[p].0 < heap[p + 1].0 {
                    heap.swap(p, p + 1);
                    p += 1;
                }
            }
        }
        let mut wp = 0.0;
        let mut wt = 0.0;
        for &(d2, i) in &heap {
            let w = 1.0 / (d2.sqrt() + 1e-9);
            wt += w;
            if self.y[i] {
                wp += w;
            }
        }
        if wt == 0.0 {
            0.5
        } else {
            wp / wt
        }
    }

    /// Hard classification at 0.5.
    pub fn predict(&self, q: &[f64]) -> bool {
        self.proba(q) >= 0.5
    }

    /// The configured k.
    pub fn k(&self) -> usize {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn blobs(n: usize) -> Dataset {
        let mut ds = Dataset::new(2);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..n {
            let label = rng.gen_bool(0.5);
            let s = if label { 1.0 } else { -1.0 };
            ds.push(
                &[s + rng.gen_range(-0.5..0.5), s + rng.gen_range(-0.5..0.5)],
                label,
            )
            .expect("2 features");
        }
        ds
    }

    #[test]
    fn classifies_separated_blobs() {
        let ds = blobs(400);
        let m = KNearest::fit(&ds, 7).expect("fit");
        assert!(m.predict(&[1.0, 1.0]));
        assert!(!m.predict(&[-1.0, -1.0]));
    }

    #[test]
    fn k_is_capped_at_dataset_size() {
        let mut ds = Dataset::new(1);
        ds.push(&[0.0], false).expect("ok");
        ds.push(&[1.0], true).expect("ok");
        let m = KNearest::fit(&ds, 100).expect("fit");
        assert_eq!(m.k(), 2);
    }

    #[test]
    fn exact_memorisation_with_k1() {
        let ds = blobs(100);
        let m = KNearest::fit(&ds, 1).expect("fit");
        for i in 0..ds.len() {
            assert_eq!(
                m.predict(ds.row(i)),
                ds.label(i),
                "k=1 memorises training data"
            );
        }
    }

    #[test]
    fn proba_is_bounded() {
        let ds = blobs(50);
        let m = KNearest::fit(&ds, 5).expect("fit");
        for q in [[-3.0, 3.0], [0.0, 0.0], [5.0, 5.0]] {
            let p = m.proba(&q);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_is_rejected() {
        let ds = blobs(10);
        let _ = KNearest::fit(&ds, 0);
    }
}
