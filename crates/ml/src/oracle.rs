//! Test oracles for tree training: the per-node scan that [`Tree::fit`]'s
//! histogram kernel is checked against, the per-tree sort of
//! [`quantile_thresholds`], the sample walk of [`backfit`], and REPTree and
//! RandomTree learners built on them.
//!
//! Nothing in the product trains with these. The parity suites, the
//! property tests and the training benchmark fit the same data both ways
//! and require bit-identical trees.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::binned::quantile_midpoints;
use crate::data::Dataset;
use crate::error::TrainError;
use crate::learners::TreeLearner;
use crate::tree::{entropy, split_samples, FeatureOrder, FitData, Tree, TreeParams};

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

/// The oracle grower in the shape [`crate::learners::RepTreeLearner`] and
/// [`crate::learners::RandomTreeLearner`] take: [`fit_tree`] on the
/// prepared set's dataset, never reading its presort.
fn grow(
    fit: &FitData<'_>,
    idx: &[u32],
    params: TreeParams,
    rng: &mut ChaCha8Rng,
) -> Result<Tree, TrainError> {
    fit_tree(fit.data(), idx, params, rng)
}

/// [`crate::learners::RepTreeLearner`] growing its trees with
/// [`fit_tree`]; pruning is the product learner's own, and the Eq. (1)
/// counts it leaves are re-derived by [`backfit`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RepTreeLearner(pub crate::learners::RepTreeLearner);

impl TreeLearner for RepTreeLearner {
    fn fit_tree_on(
        &self,
        fit: &FitData<'_>,
        idx: &[u32],
        rng: &mut ChaCha8Rng,
    ) -> Result<Tree, TrainError> {
        let mut tree = self.0.fit_tree_with(grow, fit, idx, rng)?;
        backfit(&mut tree, fit.data(), idx);
        Ok(tree)
    }
}

/// [`crate::learners::RandomTreeLearner`] growing its trees with
/// [`fit_tree`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RandomTreeLearner(pub crate::learners::RandomTreeLearner);

impl TreeLearner for RandomTreeLearner {
    fn fit_tree_on(
        &self,
        fit: &FitData<'_>,
        idx: &[u32],
        rng: &mut ChaCha8Rng,
    ) -> Result<Tree, TrainError> {
        self.0.fit_tree_with(grow, fit, idx, rng)
    }
}

/// Re-derives every node's class counts by walking each sample of `idx`
/// from the root (the paper's Eq. (1) counts of the *full* training set).
/// A REPTree's pruning leaves these counts on its nodes already; this is
/// the independent walk that checks them.
///
/// # Panics
///
/// Panics if an index of `idx` is not a row of `data`, or `data` has fewer
/// features than the tree splits on.
pub fn backfit(tree: &mut Tree, data: &Dataset, idx: &[u32]) {
    let nodes = tree.nodes_mut();
    for n in nodes.iter_mut() {
        n.pos = 0;
        n.neg = 0;
    }
    for &i in idx {
        let x = data.row(i as usize);
        let label = data.label(i as usize);
        let mut at = 0usize;
        loop {
            let n = &mut nodes[at];
            if label {
                n.pos += 1;
            } else {
                n.neg += 1;
            }
            if n.is_leaf() {
                break;
            }
            at = if x[n.feature as usize] <= n.threshold {
                n.left as usize
            } else {
                n.right as usize
            };
        }
    }
}

/// Per-feature candidate thresholds: midpoints between adjacent distinct
/// quantile values of the training samples, by a sort of each feature's
/// values per tree. [`Tree::fit`] derives the same thresholds from a sort
/// made once per ensemble.
///
/// Values sort by [`f64::total_cmp`], which is a total order even in the
/// presence of NaN (NaNs collect at the end instead of silently misordering
/// the column the way `partial_cmp(..).unwrap_or(Equal)` did). `-0.0` sorts
/// before `0.0` under `total_cmp`, but the `dedup()` right after compares
/// with `==` (where `-0.0 == 0.0`), so exactly one representative of the
/// pair survives — and since any midpoint computed from either compares
/// identically against every sample, the chosen representative does not
/// affect the grown tree.
pub fn quantile_thresholds(data: &Dataset, idx: &[u32], bins: usize) -> Vec<Vec<f64>> {
    let mut vals: Vec<f64> = Vec::with_capacity(idx.len());
    (0..data.num_features())
        .map(|j| {
            vals.clear();
            vals.extend(idx.iter().map(|&i| data.feature(i as usize, j)));
            vals.sort_by(f64::total_cmp);
            vals.dedup();
            quantile_midpoints(&vals, bins)
        })
        .collect()
}

/// Grows the subtree of `idx` at `depth` into `tree` by scanning every
/// candidate threshold of every candidate feature; returns its node id.
#[allow(clippy::too_many_arguments)]
fn build<R: Rng>(
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
