//! Base learners: `REPTree` and `RandomTree`, mirroring their Weka
//! namesakes.
//!
//! The paper's key engineering change (Section III-C) is swapping the
//! Bagging ensemble's base classifier from `RandomTree` (unpruned, used by
//! `RandomForest` in the earlier conference version) to `REPTree`
//! (reduced-error pruned), cutting runtime by ~10× at equal attack quality
//! (Table II). Both are provided here behind one [`TreeLearner`] trait so
//! the ensemble code is shared.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::error::TrainError;
use crate::tree::{FitData, Tree, TreeParams};

/// A strategy for fitting one decision tree on an index subset.
///
/// Implementations must be deterministic given the RNG state.
pub trait TreeLearner {
    /// Fits one tree on the samples selected by `idx` from a dataset
    /// prepared once for many fits (an ensemble's members share one).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::EmptyDataset`] if `idx` is empty.
    fn fit_tree_on(
        &self,
        fit: &FitData<'_>,
        idx: &[u32],
        rng: &mut ChaCha8Rng,
    ) -> Result<Tree, TrainError>;

    /// Fits one tree on the samples selected by `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::EmptyDataset`] if `idx` is empty.
    fn fit_tree(
        &self,
        data: &Dataset,
        idx: &[u32],
        rng: &mut ChaCha8Rng,
    ) -> Result<Tree, TrainError> {
        self.fit_tree_on(&FitData::new(data), idx, rng)
    }
}

/// Reduced-Error-Pruning tree (Weka `REPTree`).
///
/// Grows on `grow_fraction` of the index set and prunes any subtree that
/// does not beat a single leaf on the held-out remainder; the Eq. (1) leaf
/// counts are those of the full index set, taken during pruning. Pruned trees are smaller and
/// generalise better, which is what lets Bagging get away with 10 of them
/// where RandomForest needs 100 RandomTrees.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RepTreeLearner {
    /// Fraction of samples used for growing (the rest prune). Weka's
    /// default `numFolds = 3` corresponds to `2/3`.
    pub grow_fraction: f64,
    /// Growth parameters.
    pub params: TreeParams,
}

impl Default for RepTreeLearner {
    fn default() -> Self {
        Self {
            grow_fraction: 2.0 / 3.0,
            params: TreeParams {
                min_samples_split: 2,
                ..TreeParams::default()
            },
        }
    }
}

/// The tree grower a learner runs: [`Tree::fit_on`], or the oracle's scan
/// ([`crate::oracle::fit_tree`]) in the oracle learners.
pub(crate) type GrowFn =
    fn(&FitData<'_>, &[u32], TreeParams, &mut ChaCha8Rng) -> Result<Tree, TrainError>;

/// The reduced-error pruning a REPTree runs on its held-out samples:
/// [`Tree::prune_with`], or [`crate::oracle::prune`] in the oracle learner.
pub(crate) type PruneFn = fn(&mut Tree, &Dataset, &[u32]);

impl RepTreeLearner {
    /// Grows with `grow` and prunes with `prune`.
    pub(crate) fn fit_tree_with(
        &self,
        grow: GrowFn,
        prune: PruneFn,
        fit: &FitData<'_>,
        idx: &[u32],
        rng: &mut ChaCha8Rng,
    ) -> Result<Tree, TrainError> {
        if idx.is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        if idx.len() < 4 {
            // Too small to hold anything out; grow unpruned.
            return grow(fit, idx, self.params, rng);
        }
        let (grow_idx, held) = split_indices(idx, self.grow_fraction, rng);
        let mut tree = grow(fit, &grow_idx, self.params, rng)?;
        prune(&mut tree, fit.data(), &held);
        Ok(tree)
    }
}

impl TreeLearner for RepTreeLearner {
    fn fit_tree_on(
        &self,
        fit: &FitData<'_>,
        idx: &[u32],
        rng: &mut ChaCha8Rng,
    ) -> Result<Tree, TrainError> {
        self.fit_tree_with(Tree::fit_on, Tree::prune_with, fit, idx, rng)
    }
}

/// Unpruned randomized tree (Weka `RandomTree`): `K` random candidate
/// features per node, grown to purity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomTreeLearner {
    /// Candidate features per node; `None` uses Weka's default
    /// `⌊log₂ m⌋ + 1`.
    pub k: Option<usize>,
    /// Growth parameters (the feature subset is filled in per fit).
    pub params: TreeParams,
}

impl Default for RandomTreeLearner {
    fn default() -> Self {
        Self {
            k: None,
            params: TreeParams {
                min_samples_split: 2,
                ..TreeParams::default()
            },
        }
    }
}

impl RandomTreeLearner {
    /// Grows with `grow` on `k` random candidate features per node.
    pub(crate) fn fit_tree_with(
        &self,
        grow: GrowFn,
        fit: &FitData<'_>,
        idx: &[u32],
        rng: &mut ChaCha8Rng,
    ) -> Result<Tree, TrainError> {
        let m = fit.data().num_features().max(1);
        let k = self
            .k
            .unwrap_or_else(|| (m as f64).log2().floor() as usize + 1)
            .clamp(1, m);
        let params = TreeParams {
            feature_subset: Some(k),
            ..self.params
        };
        grow(fit, idx, params, rng)
    }
}

impl TreeLearner for RandomTreeLearner {
    fn fit_tree_on(
        &self,
        fit: &FitData<'_>,
        idx: &[u32],
        rng: &mut ChaCha8Rng,
    ) -> Result<Tree, TrainError> {
        self.fit_tree_with(Tree::fit_on, fit, idx, rng)
    }
}

/// Shuffle-free split of an explicit index slice (unlike
/// [`Dataset::split_indices`] this works on a subset, e.g. a bootstrap
/// resample).
fn split_indices(idx: &[u32], frac: f64, rng: &mut ChaCha8Rng) -> (Vec<u32>, Vec<u32>) {
    let mut shuffled = idx.to_vec();
    // Fisher–Yates on the copy.
    for i in (1..shuffled.len()).rev() {
        let j = rng.gen_range(0..=i);
        shuffled.swap(i, j);
    }
    let cut = ((shuffled.len() as f64) * frac).round() as usize;
    let cut = cut.clamp(1, shuffled.len() - 1);
    let held = shuffled.split_off(cut);
    (shuffled, held)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(11)
    }

    fn noisy_step(n: usize) -> Dataset {
        let mut ds = Dataset::new(3);
        let mut r = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..n {
            let a: f64 = r.gen_range(0.0..1.0);
            let n1: f64 = r.gen_range(0.0..1.0);
            let n2: f64 = r.gen_range(0.0..1.0);
            let label = if r.gen_bool(0.1) { a <= 0.4 } else { a > 0.4 };
            ds.push(&[a, n1, n2], label).expect("ok");
        }
        ds
    }

    #[test]
    fn rep_tree_is_smaller_than_unpruned() {
        let ds = noisy_step(900);
        let rep = RepTreeLearner::default()
            .fit_tree(&ds, &ds.all_indices(), &mut rng())
            .expect("fit");
        let unpruned =
            Tree::fit(&ds, &ds.all_indices(), TreeParams::default(), &mut rng()).expect("fit");
        assert!(
            rep.num_nodes() < unpruned.num_nodes(),
            "REP {} vs unpruned {}",
            rep.num_nodes(),
            unpruned.num_nodes()
        );
    }

    #[test]
    fn rep_tree_keeps_the_signal() {
        let ds = noisy_step(900);
        let rep = RepTreeLearner::default()
            .fit_tree(&ds, &ds.all_indices(), &mut rng())
            .expect("fit");
        assert!(rep.predict(&[0.9, 0.5, 0.5]));
        assert!(!rep.predict(&[0.1, 0.5, 0.5]));
    }

    #[test]
    fn rep_tree_handles_tiny_sets() {
        let mut ds = Dataset::new(1);
        ds.push(&[0.0], false).expect("ok");
        ds.push(&[1.0], true).expect("ok");
        let t = RepTreeLearner::default()
            .fit_tree(&ds, &ds.all_indices(), &mut rng())
            .expect("fit");
        assert!(t.num_nodes() >= 1);
    }

    #[test]
    fn random_tree_uses_default_k() {
        let ds = noisy_step(400);
        let t = RandomTreeLearner::default()
            .fit_tree(&ds, &ds.all_indices(), &mut rng())
            .expect("fit");
        // Unpruned randomized trees are large.
        assert!(t.num_nodes() > 10);
    }

    #[test]
    fn learners_are_deterministic_per_seed() {
        let ds = noisy_step(300);
        let a = RepTreeLearner::default().fit_tree(&ds, &ds.all_indices(), &mut rng());
        let b = RepTreeLearner::default().fit_tree(&ds, &ds.all_indices(), &mut rng());
        assert_eq!(a.expect("fit"), b.expect("fit"));
    }

    #[test]
    fn empty_index_set_is_rejected() {
        let ds = noisy_step(10);
        assert!(RepTreeLearner::default()
            .fit_tree(&ds, &[], &mut rng())
            .is_err());
        assert!(RandomTreeLearner::default()
            .fit_tree(&ds, &[], &mut rng())
            .is_err());
    }

    #[test]
    fn split_indices_partitions_subset() {
        let idx: Vec<u32> = (10..40).collect();
        let (a, b) = split_indices(&idx, 2.0 / 3.0, &mut rng());
        assert_eq!(a.len(), 20);
        assert_eq!(b.len(), 10);
        let mut all: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, idx);
    }
}
