//! Test oracles for tree training: the per-node scan that [`Tree::fit`]'s
//! histogram kernel is checked against, and REPTree and RandomTree
//! learners built on it.
//!
//! Nothing in the product trains with these. The parity suites, the
//! property tests and the training benchmark fit the same data both ways
//! and require bit-identical trees. [`Tree::fit`] itself calls the scan
//! only as its fallback when a feature has more thresholds than a `u16`
//! bin code can address.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::data::Dataset;
use crate::error::TrainError;
use crate::learners::TreeLearner;
use crate::tree::{entropy, quantile_thresholds, split_samples, FeatureOrder, Tree, TreeParams};

/// Fits a tree by scanning every candidate threshold of every node: a
/// binary search per sample per candidate feature. Grows the same tree as
/// [`Tree::fit`], bit for bit.
///
/// # Errors
///
/// Returns [`TrainError::EmptyDataset`] if `idx` is empty.
pub fn fit_tree<R: Rng>(
    data: &Dataset,
    idx: &[u32],
    params: TreeParams,
    rng: &mut R,
) -> Result<Tree, TrainError> {
    if idx.is_empty() {
        return Err(TrainError::EmptyDataset);
    }
    let thresholds = quantile_thresholds(data, idx, params.bins);
    let mut tree = Tree::empty(data.num_features());
    let mut scratch = idx.to_vec();
    let mut order = FeatureOrder::new(data.num_features());
    build(
        &mut tree,
        data,
        &mut scratch,
        &thresholds,
        &params,
        0,
        rng,
        &mut order,
    );
    Ok(tree)
}

/// [`crate::learners::RepTreeLearner`] growing its trees with
/// [`fit_tree`]; pruning and backfitting are the product learner's own.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RepTreeLearner(pub crate::learners::RepTreeLearner);

impl TreeLearner for RepTreeLearner {
    fn fit_tree(
        &self,
        data: &Dataset,
        idx: &[u32],
        rng: &mut ChaCha8Rng,
    ) -> Result<Tree, TrainError> {
        self.0.fit_tree_with(fit_tree, data, idx, rng)
    }
}

/// [`crate::learners::RandomTreeLearner`] growing its trees with
/// [`fit_tree`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RandomTreeLearner(pub crate::learners::RandomTreeLearner);

impl TreeLearner for RandomTreeLearner {
    fn fit_tree(
        &self,
        data: &Dataset,
        idx: &[u32],
        rng: &mut ChaCha8Rng,
    ) -> Result<Tree, TrainError> {
        self.0.fit_tree_with(fit_tree, data, idx, rng)
    }
}

/// Grows the subtree of `idx` at `depth` into `tree` by scanning every
/// candidate threshold of every candidate feature; returns its node id.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build<R: Rng>(
    tree: &mut Tree,
    data: &Dataset,
    idx: &mut [u32],
    thresholds: &[Vec<f64>],
    params: &TreeParams,
    depth: usize,
    rng: &mut R,
    order: &mut FeatureOrder,
) -> u32 {
    let (me, counts) = tree.open_node(data, idx, params, depth);
    let Some((pos, neg)) = counts else {
        return me;
    };
    // Candidate features: all, or a random subset (RandomTree).
    let best = {
        let candidates = order.candidates(params.feature_subset, rng);
        best_split(data, idx, thresholds, candidates, pos, neg)
    };
    let Some((feature, threshold, cut)) = split_samples(data, idx, best) else {
        return me;
    };
    let (left_idx, right_idx) = idx.split_at_mut(cut);
    let left = build(
        tree,
        data,
        left_idx,
        thresholds,
        params,
        depth + 1,
        rng,
        order,
    );
    let right = build(
        tree,
        data,
        right_idx,
        thresholds,
        params,
        depth + 1,
        rng,
        order,
    );
    tree.close_node(me, feature, threshold, left, right);
    me
}

/// Best (feature, threshold, information gain) over the candidate features.
fn best_split(
    data: &Dataset,
    idx: &[u32],
    thresholds: &[Vec<f64>],
    candidates: &[usize],
    pos: u32,
    neg: u32,
) -> Option<(usize, f64, f64)> {
    let parent = entropy(f64::from(pos), f64::from(neg));
    let n = idx.len() as f64;
    let mut best: Option<(usize, f64, f64)> = None;
    // Histogram scratch: (pos, neg) per bin.
    let mut hist: Vec<(u32, u32)> = Vec::new();
    for &j in candidates {
        let ts = &thresholds[j];
        if ts.is_empty() {
            continue;
        }
        hist.clear();
        hist.resize(ts.len() + 1, (0, 0));
        for &i in idx {
            let v = data.feature(i as usize, j);
            let bin = ts.partition_point(|t| *t < v);
            let e = &mut hist[bin];
            if data.label(i as usize) {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
        let mut lp = 0u32;
        let mut ln = 0u32;
        for (k, &(hp, hn)) in hist[..ts.len()].iter().enumerate() {
            lp += hp;
            ln += hn;
            let l = f64::from(lp + ln);
            let r = n - l;
            if l == 0.0 || r == 0.0 {
                continue;
            }
            let gain = parent
                - (l / n) * entropy(f64::from(lp), f64::from(ln))
                - (r / n) * entropy(f64::from(pos - lp), f64::from(neg - ln));
            if best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((j, ts[k], gain));
            }
        }
    }
    best
}
