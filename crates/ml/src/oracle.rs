//! Test oracles for tree training: the per-node scan that [`Tree::fit`]'s
//! histogram kernel is checked against, the per-tree sort of
//! [`quantile_thresholds`], the recursive reduced-error [`prune`], the
//! sample walk of [`backfit`], and REPTree and RandomTree learners built on
//! them.
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
use crate::tree::{entropy, split_samples, FeatureOrder, FitData, Node, Tree, TreeParams, LEAF};

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
/// [`fit_tree`] and pruning them with [`prune`]; the Eq. (1) counts of the
/// whole index set come from [`backfit`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RepTreeLearner(pub crate::learners::RepTreeLearner);

impl TreeLearner for RepTreeLearner {
    fn fit_tree_on(
        &self,
        fit: &FitData<'_>,
        idx: &[u32],
        rng: &mut ChaCha8Rng,
    ) -> Result<Tree, TrainError> {
        let mut tree = self.0.fit_tree_with(grow, prune, fit, idx, rng)?;
        backfit(&mut tree, fit.data(), idx);
        Ok(tree)
    }
}

/// Reduced-error pruning as Weka's REPTree describes it, on the held-out
/// samples `held` of a tree grown on the rest.
///
/// Each held-out sample walks from the root, and every node on its path
/// counts an error when the sample's label differs from the node's
/// prediction: the majority of the samples the node was grown on, positive
/// on a tie (Eq. (1)'s `P / (P + N) >= 0.5`). Then, bottom-up, a split whose
/// subtree makes at least as many held-out errors as the split node would
/// as a leaf becomes that leaf, and the tree is written out again in
/// preorder without the dropped subtrees. A collapsed split keeps its
/// threshold in the node table, as the product's does. Node counts stay
/// those of the grow set; [`backfit`] gives the whole index set's.
///
/// # Panics
///
/// Panics if an index of `held` is not a row of `data`, or `data` has fewer
/// features than the tree splits on.
pub fn prune(tree: &mut Tree, data: &Dataset, held: &[u32]) {
    let nodes = tree.raw_nodes();
    let mut errors = vec![0usize; nodes.len()];
    for &i in held {
        let x = data.row(i as usize);
        let label = data.label(i as usize);
        let mut at = 0usize;
        loop {
            let n = &nodes[at];
            if (n.pos >= n.neg) != label {
                errors[at] += 1;
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
    let mut kept = vec![false; nodes.len()];
    pruned_errors(nodes, &errors, 0, &mut kept);
    let mut out = Vec::new();
    emit(nodes, &kept, 0, &mut out);
    *tree = Tree::from_nodes(tree.num_features(), out);
}

/// Held-out errors of the subtree at `at` once pruned, marking in `kept`
/// each split that survives.
fn pruned_errors(nodes: &[Node], errors: &[usize], at: usize, kept: &mut [bool]) -> usize {
    let n = &nodes[at];
    if n.is_leaf() {
        return errors[at];
    }
    let subtree = pruned_errors(nodes, errors, n.left as usize, kept)
        + pruned_errors(nodes, errors, n.right as usize, kept);
    if subtree >= errors[at] {
        errors[at]
    } else {
        kept[at] = true;
        subtree
    }
}

/// Appends the pruned subtree at `at` to `out` in preorder and returns its
/// root's new index.
fn emit(nodes: &[Node], kept: &[bool], at: usize, out: &mut Vec<Node>) -> u32 {
    let me = out.len();
    let mut node = nodes[at];
    if !kept[at] {
        node.feature = LEAF;
        node.left = 0;
        node.right = 0;
    }
    out.push(node);
    if kept[at] {
        out[me].left = emit(nodes, kept, node.left as usize, out);
        out[me].right = emit(nodes, kept, node.right as usize, out);
    }
    me as u32
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
