//! Bootstrap aggregation with soft voting — the paper's ensemble.
//!
//! Each of `n` trees is fit on a bootstrap resample. At inference, tree `i`
//! outputs `pᵢ = Pᵢ/(Pᵢ+Nᵢ)` from its leaf counts (Eq. (1)); the ensemble
//! probability is their mean (Eq. (3)); the binary answer thresholds that
//! mean (Eq. (2)). The attack's LoC-size control (Section III-F) comes from
//! exposing the probability and sweeping the threshold instead of fixing it
//! at 0.5.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::data::Dataset;
use crate::error::TrainError;
use crate::learners::TreeLearner;
use crate::parallel::{par_map, Parallelism};
use crate::tree::{FitData, Tree};

/// Default number of REPTrees in Weka's `Bagging` meta-classifier.
pub const DEFAULT_BAGGING_TREES: usize = 10;

/// A trained bagging ensemble.
///
/// # Examples
///
/// ```
/// use sm_ml::bagging::Bagging;
/// use sm_ml::data::Dataset;
/// use sm_ml::learners::RepTreeLearner;
///
/// let mut ds = Dataset::new(1);
/// for i in 0..200 {
///     ds.push(&[i as f64], i >= 100)?;
/// }
/// let model = Bagging::fit(&ds, &RepTreeLearner::default(), 10, 42)?;
/// assert!(model.proba(&[150.0]) > 0.9);
/// assert!(model.proba(&[10.0]) < 0.1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Bagging {
    trees: Vec<Tree>,
}

/// The serialized shape of a [`Bagging`] ensemble.
#[derive(Deserialize)]
struct BaggingRepr {
    trees: Vec<Tree>,
}

/// Decoding checks each member tree's structure (on the tree's own decode),
/// that there is at least one member, and that all members share one
/// feature count, the row width the compiled kernel is sized by.
impl Deserialize for Bagging {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let BaggingRepr { trees } = BaggingRepr::from_value(v)?;
        if trees.is_empty() {
            // An empty ensemble would score every pair 0/0 = NaN.
            return Err(DeError::custom("ensemble has no trees"));
        }
        if let Some(w) = trees
            .windows(2)
            .find(|w| w[0].num_features() != w[1].num_features())
        {
            return Err(DeError::custom(format!(
                "ensemble members disagree on the feature count ({} vs {})",
                w[0].num_features(),
                w[1].num_features()
            )));
        }
        Ok(Self { trees })
    }
}

impl Bagging {
    /// Fits `n_trees` trees, each on an independent bootstrap resample of
    /// `data`, using `learner` as the base classifier. `seed` makes the
    /// ensemble fully deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::EmptyDataset`] if `data` is empty and
    /// [`TrainError::SingleClass`] if it contains only one class.
    pub fn fit<L: TreeLearner + Sync>(
        data: &Dataset,
        learner: &L,
        n_trees: usize,
        seed: u64,
    ) -> Result<Self, TrainError> {
        Self::fit_with(data, learner, n_trees, seed, Parallelism::Sequential)
    }

    /// [`Bagging::fit`] with an explicit [`Parallelism`] setting. Each tree
    /// derives its own RNG from `seed` and its tree index, so members are
    /// independent of fit order and the ensemble is bit-identical across
    /// every parallelism setting. The members share one [`FitData`], built
    /// here and dropped on return.
    ///
    /// # Errors
    ///
    /// Same as [`Bagging::fit`].
    pub fn fit_with<L: TreeLearner + Sync>(
        data: &Dataset,
        learner: &L,
        n_trees: usize,
        seed: u64,
        parallelism: Parallelism,
    ) -> Result<Self, TrainError> {
        data.check_trainable()?;
        let fit = FitData::new(data);
        let trees = par_map(parallelism, n_trees, |t| {
            let mut rng =
                ChaCha8Rng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let idx = data.bootstrap_indices(&mut rng);
            learner.fit_tree_on(&fit, &idx, &mut rng)
        })
        .into_iter()
        .collect::<Result<Vec<Tree>, TrainError>>()?;
        Ok(Self { trees })
    }

    /// Ensemble probability that `x` is positive: the soft-vote mean of the
    /// member trees' leaf probabilities (Eq. (3)).
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer features than the ensemble was trained on.
    pub fn proba(&self, x: &[f64]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.proba(x)).sum();
        sum / self.trees.len() as f64
    }

    /// Binary answer at threshold `t` (Eq. (2) generalised: the paper's
    /// default corresponds to `t = 0.5`).
    pub fn predict_at(&self, x: &[f64], t: f64) -> bool {
        self.proba(x) >= t
    }

    /// Binary answer at the default 0.5 threshold.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_at(x, 0.5)
    }

    /// Number of member trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Total node count across members (a size/runtime proxy).
    pub fn total_nodes(&self) -> usize {
        self.trees.iter().map(Tree::num_nodes).sum()
    }

    /// The member trees.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learners::{RandomTreeLearner, RepTreeLearner};
    use rand::Rng;
    use rand::SeedableRng;

    fn noisy(n: usize) -> Dataset {
        let mut ds = Dataset::new(2);
        let mut r = ChaCha8Rng::seed_from_u64(17);
        for _ in 0..n {
            let a: f64 = r.gen_range(0.0..1.0);
            let b: f64 = r.gen_range(0.0..1.0);
            let label = if r.gen_bool(0.12) { a <= 0.5 } else { a > 0.5 };
            ds.push(&[a, b], label).expect("ok");
        }
        ds
    }

    #[test]
    fn bagging_rejects_untrainable_data() {
        let empty = Dataset::new(2);
        assert!(Bagging::fit(&empty, &RepTreeLearner::default(), 5, 0).is_err());
        let mut one = Dataset::new(1);
        one.push(&[1.0], true).expect("ok");
        one.push(&[2.0], true).expect("ok");
        assert!(Bagging::fit(&one, &RepTreeLearner::default(), 5, 0).is_err());
    }

    #[test]
    fn soft_vote_is_mean_of_members() {
        let ds = noisy(300);
        let m = Bagging::fit(&ds, &RepTreeLearner::default(), 7, 1).expect("fit");
        let x = [0.7, 0.3];
        let mean: f64 = m.trees().iter().map(|t| t.proba(&x)).sum::<f64>() / 7.0;
        assert!((m.proba(&x) - mean).abs() < 1e-12);
    }

    #[test]
    fn probability_is_monotone_in_threshold() {
        let ds = noisy(300);
        let m = Bagging::fit(&ds, &RepTreeLearner::default(), 10, 2).expect("fit");
        let x = [0.8, 0.5];
        // predict_at must flip from true to false as t rises past proba.
        let p = m.proba(&x);
        assert!(m.predict_at(&x, p - 1e-9));
        assert!(!m.predict_at(&x, p + 1e-9));
    }

    #[test]
    fn ensembles_beat_noise() {
        let ds = noisy(800);
        let m = Bagging::fit(&ds, &RepTreeLearner::default(), 10, 3).expect("fit");
        let test = noisy(800); // same distribution, same seed => same set; accept in-sample here
        let acc = (0..test.len())
            .filter(|&i| m.predict(test.row(i)) == test.label(i))
            .count() as f64
            / test.len() as f64;
        assert!(acc > 0.8, "bagging accuracy {acc}");
    }

    #[test]
    fn deterministic_per_seed_and_sensitive_to_seed() {
        let ds = noisy(200);
        let a = Bagging::fit(&ds, &RepTreeLearner::default(), 5, 9).expect("fit");
        let b = Bagging::fit(&ds, &RepTreeLearner::default(), 5, 9).expect("fit");
        assert_eq!(a, b);
        let c = Bagging::fit(&ds, &RepTreeLearner::default(), 5, 10).expect("fit");
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_sequential() {
        let ds = noisy(300);
        for learner_trees in [(5usize, 11u64), (10, 12)] {
            let (n, seed) = learner_trees;
            let seq = Bagging::fit_with(
                &ds,
                &RepTreeLearner::default(),
                n,
                seed,
                Parallelism::Sequential,
            )
            .expect("fit");
            for par in [
                Parallelism::Threads(2),
                Parallelism::Threads(4),
                Parallelism::Auto,
            ] {
                let p =
                    Bagging::fit_with(&ds, &RepTreeLearner::default(), n, seed, par).expect("fit");
                assert_eq!(seq, p, "{par:?}");
            }
        }
    }

    #[test]
    fn rep_bagging_is_far_smaller_than_random_tree_bagging() {
        let ds = noisy(600);
        let rep = Bagging::fit(&ds, &RepTreeLearner::default(), 10, 4).expect("fit");
        let rnd = Bagging::fit(&ds, &RandomTreeLearner::default(), 10, 4).expect("fit");
        assert!(
            rep.total_nodes() * 2 < rnd.total_nodes(),
            "REP {} nodes vs RandomTree {} nodes",
            rep.total_nodes(),
            rnd.total_nodes()
        );
    }
}
