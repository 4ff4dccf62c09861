//! Binary decision trees on numeric features.
//!
//! The tree grows CART-style with information-gain splitting. For speed on
//! the attack's large sample sets, candidate thresholds are drawn from
//! per-feature quantile bins computed once per tree (histogram splitting);
//! with the default 256 bins this is statistically indistinguishable from
//! exhaustive threshold scanning on the attack's feature distributions.
//!
//! Every node stores the positive/negative counts of the training samples
//! that reached it. Leaf counts implement the paper's Eq. (1): the
//! probability a sample is positive is `P / (P + N)` of its leaf.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::binned::{BinnedDataset, HistPool};
use crate::data::Dataset;
use crate::error::TrainError;
use crate::oracle;

/// Sentinel feature id marking a leaf node.
const LEAF: i32 = -1;

/// Growth parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum number of samples required to split a node (Weka `minNum`).
    pub min_samples_split: usize,
    /// If set, consider only this many randomly chosen features per node
    /// (RandomTree behaviour); `None` considers all features.
    pub feature_subset: Option<usize>,
    /// Number of quantile bins per feature for candidate thresholds.
    pub bins: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 60,
            min_samples_split: 2,
            feature_subset: None,
            bins: 256,
        }
    }
}

/// Per-tree candidate-feature scratch. The full `0..m` order is built once
/// per tree; nodes that need a random subset (RandomTree) shuffle a copy,
/// nodes that consider every feature borrow the stable order directly —
/// no per-node allocation either way.
pub(crate) struct FeatureOrder {
    full: Vec<usize>,
    shuffled: Vec<usize>,
}

impl FeatureOrder {
    pub(crate) fn new(m: usize) -> Self {
        FeatureOrder {
            full: (0..m).collect(),
            shuffled: (0..m).collect(),
        }
    }

    /// Candidate features for one node. Consumes RNG exactly like the seed
    /// implementation: a shuffle of a fresh `(0..m)` vector happens if and
    /// only if `feature_subset` is `Some`.
    pub(crate) fn candidates<R: Rng>(
        &mut self,
        feature_subset: Option<usize>,
        rng: &mut R,
    ) -> &[usize] {
        match feature_subset {
            Some(k) => {
                let m = self.full.len();
                self.shuffled.copy_from_slice(&self.full);
                self.shuffled.shuffle(rng);
                &self.shuffled[..k.clamp(1, m)]
            }
            None => &self.full,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Node {
    /// Splitting feature, or [`LEAF`].
    pub(crate) feature: i32,
    /// Split threshold: `x[feature] <= threshold` goes left.
    pub(crate) threshold: f64,
    pub(crate) left: u32,
    pub(crate) right: u32,
    /// Positive training samples that reached this node.
    pub(crate) pos: u32,
    /// Negative training samples that reached this node.
    pub(crate) neg: u32,
}

impl Node {
    fn leaf(pos: u32, neg: u32) -> Self {
        Node {
            feature: LEAF,
            threshold: 0.0,
            left: 0,
            right: 0,
            pos,
            neg,
        }
    }

    pub(crate) fn is_leaf(&self) -> bool {
        self.feature == LEAF
    }

    /// The leaf probability of Eq. (1): `P / (P + N)`, or `0.5` for a leaf
    /// no training sample reached. Only meaningful on leaves; the compiled
    /// kernel bakes this value into its node table so the division happens
    /// once at compile time instead of once per scored pair.
    pub(crate) fn leaf_proba(&self) -> f64 {
        let total = self.pos + self.neg;
        if total == 0 {
            0.5
        } else {
            f64::from(self.pos) / f64::from(total)
        }
    }

    fn majority(&self) -> bool {
        self.pos >= self.neg
    }
}

/// A trained decision tree.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sm_ml::data::Dataset;
/// use sm_ml::tree::{Tree, TreeParams};
///
/// let mut ds = Dataset::new(1);
/// for i in 0..100 {
///     ds.push(&[i as f64], i >= 50)?;
/// }
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let tree = Tree::fit(&ds, &ds.all_indices(), TreeParams::default(), &mut rng)?;
/// assert!(tree.predict(&[99.0]));
/// assert!(!tree.predict(&[3.0]));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Tree {
    nodes: Vec<Node>,
    num_features: usize,
}

/// Largest split feature index a decoded tree may use: the compiled kernel
/// keeps the feature in a 16-bit field.
const MAX_SPLIT_FEATURE: usize = u16::MAX as usize;

/// The serialized shape of a [`Tree`], before its structure is checked.
#[derive(Deserialize)]
struct TreeRepr {
    nodes: Vec<Node>,
    num_features: usize,
}

/// Decoding checks the structure every walk relies on (see
/// `Tree::check_structure`), so a decoded tree cannot send a walk out of
/// bounds or round a cycle, whatever bytes it came from.
impl Deserialize for Tree {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let TreeRepr {
            nodes,
            num_features,
        } = TreeRepr::from_value(v)?;
        let tree = Tree {
            nodes,
            num_features,
        };
        tree.check_structure().map_err(DeError::custom)?;
        Ok(tree)
    }
}

impl Tree {
    /// Fits a tree on the samples selected by `idx`.
    ///
    /// Split-finding runs on a histogram kernel: every sample's feature
    /// values are encoded once into `u16` bin codes against the tree's
    /// quantile thresholds, and each larger sibling's histogram comes from
    /// parent-minus-smaller-child subtraction. The grown tree is
    /// bit-identical to the per-node scan of [`crate::oracle::fit_tree`],
    /// which this also falls back to when a feature has more thresholds
    /// than a `u16` code can address.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::EmptyDataset`] if `idx` is empty. A
    /// single-class index set yields a single-leaf tree rather than an
    /// error (bootstrap resamples can legitimately be one-class).
    pub fn fit<R: Rng>(
        data: &Dataset,
        idx: &[u32],
        params: TreeParams,
        rng: &mut R,
    ) -> Result<Self, TrainError> {
        if idx.is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        let thresholds = quantile_thresholds(data, idx, params.bins);
        let mut tree = Tree::empty(data.num_features());
        let mut scratch = idx.to_vec();
        let mut order = FeatureOrder::new(data.num_features());
        match BinnedDataset::encode(data, thresholds) {
            Ok(binned) => {
                let mut pool = HistPool::new(binned.hist_len());
                // REPTree-style all-feature nodes thread a full histogram
                // down the recursion so each larger sibling comes from a
                // subtraction; the RandomTree subset path accumulates only
                // the node's candidate features instead.
                let root_hist = if params.feature_subset.is_none() {
                    let mut h = pool.acquire();
                    binned.accumulate(data.labels(), &scratch, &mut h);
                    Some(h)
                } else {
                    None
                };
                tree.build_binned(
                    data,
                    &binned,
                    &mut scratch,
                    &params,
                    0,
                    rng,
                    &mut order,
                    &mut pool,
                    root_hist,
                );
            }
            Err(thresholds) => {
                oracle::build(
                    &mut tree,
                    data,
                    &mut scratch,
                    &thresholds,
                    &params,
                    0,
                    rng,
                    &mut order,
                );
            }
        }
        Ok(tree)
    }

    /// An empty tree over `num_features` features, for a builder to grow.
    pub(crate) fn empty(num_features: usize) -> Self {
        Tree {
            nodes: Vec::new(),
            num_features,
        }
    }

    /// Opens the node of the samples `idx` at `depth`: pushes it as a leaf
    /// holding their class counts and returns its id, plus the counts when
    /// the stop rules still let it split.
    pub(crate) fn open_node(
        &mut self,
        data: &Dataset,
        idx: &[u32],
        params: &TreeParams,
        depth: usize,
    ) -> (u32, Option<(u32, u32)>) {
        let (pos, neg) = count_labels(data, idx);
        let me = self.nodes.len() as u32;
        self.nodes.push(Node::leaf(pos, neg));
        let stop = pos == 0
            || neg == 0
            || idx.len() < params.min_samples_split
            || depth >= params.max_depth;
        (me, (!stop).then_some((pos, neg)))
    }

    /// Turns the leaf `me` into a split on `x[feature] <= threshold`.
    pub(crate) fn close_node(
        &mut self,
        me: u32,
        feature: usize,
        threshold: f64,
        left: u32,
        right: u32,
    ) {
        let node = &mut self.nodes[me as usize];
        node.feature = feature as i32;
        node.threshold = threshold;
        node.left = left;
        node.right = right;
    }

    /// Grows the subtree of `idx` from histograms. Stop conditions, candidate
    /// order, gain operands and the raw-`f64` partition predicate are those
    /// of the oracle's per-node scan, so the grown tree is bit-identical.
    ///
    /// `hist` is the node's full (pos, neg)-per-bin histogram on the
    /// all-feature path, `None` on the random-subset path. Buffers are
    /// recycled through `pool`, so at most `O(depth)` histograms are live.
    #[allow(clippy::too_many_arguments)]
    fn build_binned<R: Rng>(
        &mut self,
        data: &Dataset,
        binned: &BinnedDataset,
        idx: &mut [u32],
        params: &TreeParams,
        depth: usize,
        rng: &mut R,
        order: &mut FeatureOrder,
        pool: &mut HistPool,
        hist: Option<Vec<u32>>,
    ) -> u32 {
        let (me, counts) = self.open_node(data, idx, params, depth);
        let Some((pos, neg)) = counts else {
            release_node_hist(pool, binned, idx, hist);
            return me;
        };

        // Find the best split from histograms: either the one threaded down
        // from the parent (all-feature path) or a fresh accumulation of just
        // this node's random candidates (subset path).
        let (best, hist) = match hist {
            Some(h) => {
                let candidates = order.candidates(params.feature_subset, rng);
                let best = best_split_binned(binned, &h, candidates, pos, neg);
                (best, Some(h))
            }
            None => {
                let candidates = order.candidates(params.feature_subset, rng);
                let mut h = pool.acquire();
                for &j in candidates {
                    binned.accumulate_feature(j, data.labels(), idx, &mut h);
                }
                let best = best_split_binned(binned, &h, candidates, pos, neg);
                for &j in candidates {
                    binned.zero_feature(j, &mut h);
                }
                pool.release_zeroed(h);
                (best, None)
            }
        };
        let Some((feature, threshold, cut)) = split_samples(data, idx, best) else {
            release_node_hist(pool, binned, idx, hist);
            return me;
        };
        let (left_idx, right_idx) = idx.split_at_mut(cut);

        // Two exact ways to derive the child histograms; pick the cheaper.
        // Sibling subtraction accumulates only the smaller child and derives
        // the larger as parent − smaller (O(|small|·m) plus an O(hist_len)
        // subtraction). For small nodes it is cheaper to accumulate both
        // children fresh and sparse-zero the parent for reuse (O(|node|·m)
        // each way). Counts are exact u32 sums under either derivation, so
        // the histograms — and therefore the tree — are identical.
        let (left_hist, right_hist) = match hist {
            Some(mut parent) => {
                let small_is_left = left_idx.len() <= right_idx.len();
                let (small, large): (&[u32], &[u32]) = if small_is_left {
                    (left_idx, right_idx)
                } else {
                    (right_idx, left_idx)
                };
                let m = binned.num_features();
                let n_node = small.len() + large.len();
                let mut small_hist = pool.acquire();
                binned.accumulate(data.labels(), small, &mut small_hist);
                let large_hist = if 2 * n_node * m < small.len() * m + parent.len() {
                    let mut fresh = pool.acquire();
                    binned.accumulate(data.labels(), large, &mut fresh);
                    binned.zero_samples(small, &mut parent);
                    binned.zero_samples(large, &mut parent);
                    pool.release_zeroed(parent);
                    fresh
                } else {
                    subtract_hist(&mut parent, &small_hist);
                    parent
                };
                if small_is_left {
                    (Some(small_hist), Some(large_hist))
                } else {
                    (Some(large_hist), Some(small_hist))
                }
            }
            None => (None, None),
        };
        let left = self.build_binned(
            data,
            binned,
            left_idx,
            params,
            depth + 1,
            rng,
            order,
            pool,
            left_hist,
        );
        let right = self.build_binned(
            data,
            binned,
            right_idx,
            params,
            depth + 1,
            rng,
            order,
            pool,
            right_hist,
        );
        self.close_node(me, feature, threshold, left, right);
        me
    }

    /// Index of the leaf `x` routes to.
    fn leaf_of(&self, x: &[f64]) -> usize {
        let mut at = 0usize;
        loop {
            let n = &self.nodes[at];
            if n.is_leaf() {
                return at;
            }
            at = if x[n.feature as usize] <= n.threshold {
                n.left as usize
            } else {
                n.right as usize
            };
        }
    }

    /// Probability that `x` is positive: `P / (P + N)` of its leaf
    /// (Eq. (1) of the paper); `0.5` for a leaf no training sample reached.
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer features than the tree was trained on.
    pub fn proba(&self, x: &[f64]) -> f64 {
        self.nodes[self.leaf_of(x)].leaf_proba()
    }

    /// Hard classification at the default 0.5 threshold.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.proba(x) >= 0.5
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Maximum root-to-leaf depth.
    pub fn depth(&self) -> usize {
        let mut deepest = 0;
        let mut stack = vec![(0usize, 0usize)];
        while let Some((at, depth)) = stack.pop() {
            let n = &self.nodes[at];
            if n.is_leaf() {
                deepest = deepest.max(depth);
            } else {
                stack.push((n.left as usize, depth + 1));
                stack.push((n.right as usize, depth + 1));
            }
        }
        deepest
    }

    /// Checks that the node list is a tree every walk can take: at least
    /// one node; every split feature below both `num_features` and 2^16;
    /// every child index in range and greater than its parent's, which
    /// rules out cycles; every node but the root the child of exactly one
    /// parent, so preorder re-emission cannot duplicate a subtree; and leaf
    /// class counts whose sum fits a `u32` for Eq. (1).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    fn check_structure(&self) -> Result<(), String> {
        let n = self.nodes.len();
        if n == 0 {
            return Err("tree has no nodes".into());
        }
        let mut has_parent = vec![false; n];
        for (at, node) in self.nodes.iter().enumerate() {
            if node.is_leaf() {
                if node.pos.checked_add(node.neg).is_none() {
                    return Err(format!("leaf {at}: class counts overflow u32"));
                }
                continue;
            }
            let feature = usize::try_from(node.feature)
                .map_err(|_| format!("node {at}: split feature {} is negative", node.feature))?;
            if feature >= self.num_features || feature > MAX_SPLIT_FEATURE {
                return Err(format!(
                    "node {at}: split feature {feature} out of range for {} features",
                    self.num_features
                ));
            }
            for child in [node.left, node.right] {
                let c = child as usize;
                if c <= at || c >= n {
                    return Err(format!(
                        "node {at}: child {c} must lie after it and below {n}"
                    ));
                }
                if std::mem::replace(&mut has_parent[c], true) {
                    return Err(format!("node {c} has two parents"));
                }
            }
        }
        match has_parent.iter().skip(1).position(|&p| !p) {
            Some(i) => Err(format!("node {} is unreachable from the root", i + 1)),
            None => Ok(()),
        }
    }

    /// Features the tree was trained on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Raw node table, for the compiled kernel's flattening pass.
    pub(crate) fn raw_nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Reduced-error pruning against a held-out index set: any subtree whose
    /// majority-label error on the held-out samples is no better than the
    /// error of a single leaf is collapsed.
    pub(crate) fn prune_with(&mut self, data: &Dataset, held: &[u32]) {
        let mut scratch = held.to_vec();
        self.prune_node(data, 0, &mut scratch);
        self.compact();
    }

    /// Returns the held-out error of the (possibly pruned) subtree at `at`.
    fn prune_node(&mut self, data: &Dataset, at: usize, held: &mut [u32]) -> usize {
        let node = self.nodes[at];
        let leaf_err = held
            .iter()
            .filter(|&&i| data.label(i as usize) != node.majority())
            .count();
        if node.is_leaf() {
            return leaf_err;
        }
        let feature = node.feature as usize;
        let threshold = node.threshold;
        let cut = partition(held, |&i| data.feature(i as usize, feature) <= threshold);
        let (lh, rh) = held.split_at_mut(cut);
        let subtree_err = self.prune_node(data, node.left as usize, lh)
            + self.prune_node(data, node.right as usize, rh);
        if leaf_err <= subtree_err {
            // Collapse: children become unreachable and are swept later.
            let n = &mut self.nodes[at];
            n.feature = LEAF;
            n.left = 0;
            n.right = 0;
            leaf_err
        } else {
            subtree_err
        }
    }

    /// Re-derives every node's counts from the given samples (the paper's
    /// Eq. (1) counts come from the *full* training set after pruning).
    pub(crate) fn backfit(&mut self, data: &Dataset, idx: &[u32]) {
        for n in &mut self.nodes {
            n.pos = 0;
            n.neg = 0;
        }
        for &i in idx {
            let x = data.row(i as usize);
            let label = data.label(i as usize);
            let mut at = 0usize;
            loop {
                let n = &mut self.nodes[at];
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

    /// Drops nodes unreachable after pruning and renumbers children.
    fn compact(&mut self) {
        let mut keep = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        while let Some(at) = stack.pop() {
            keep[at] = true;
            let n = &self.nodes[at];
            if !n.is_leaf() {
                stack.push(n.left as usize);
                stack.push(n.right as usize);
            }
        }
        let mut remap = vec![u32::MAX; self.nodes.len()];
        let mut out = Vec::with_capacity(keep.iter().filter(|k| **k).count());
        for (i, node) in self.nodes.iter().enumerate() {
            if keep[i] {
                remap[i] = out.len() as u32;
                out.push(*node);
            }
        }
        for n in &mut out {
            if !n.is_leaf() {
                n.left = remap[n.left as usize];
                n.right = remap[n.right as usize];
            }
        }
        self.nodes = out;
    }
}

/// Stable-enough in-place partition: elements satisfying `pred` move to the
/// front; returns the number that satisfy it.
fn partition<T, F: Fn(&T) -> bool>(xs: &mut [T], pred: F) -> usize {
    let mut store = 0usize;
    for i in 0..xs.len() {
        if pred(&xs[i]) {
            xs.swap(store, i);
            store += 1;
        }
    }
    store
}

/// Applies a node's best split: moves the samples with
/// `x[feature] <= threshold` to the front of `idx` and returns the feature,
/// the threshold and their count, or `None` when the split gains nothing
/// or sends every sample one way. The partition reads the *raw* feature
/// values, so even NaN rows land on the same side under every builder.
pub(crate) fn split_samples(
    data: &Dataset,
    idx: &mut [u32],
    best: Option<(usize, f64, f64)>,
) -> Option<(usize, f64, usize)> {
    let (feature, threshold, gain) = best?;
    if gain <= 1e-12 {
        return None;
    }
    let cut = partition(idx, |&i| data.feature(i as usize, feature) <= threshold);
    (cut != 0 && cut != idx.len()).then_some((feature, threshold, cut))
}

fn count_labels(data: &Dataset, idx: &[u32]) -> (u32, u32) {
    let mut pos = 0u32;
    let mut neg = 0u32;
    for &i in idx {
        if data.label(i as usize) {
            pos += 1;
        } else {
            neg += 1;
        }
    }
    (pos, neg)
}

/// Binary entropy of a (pos, neg) count pair, in nats.
pub(crate) fn entropy(pos: f64, neg: f64) -> f64 {
    let n = pos + neg;
    if n == 0.0 || pos == 0.0 || neg == 0.0 {
        return 0.0;
    }
    let p = pos / n;
    let q = neg / n;
    -(p * p.ln() + q * q.ln())
}

/// Per-feature candidate thresholds: midpoints between adjacent distinct
/// quantile values of the training samples.
///
/// Values sort by [`f64::total_cmp`], which is a total order even in the
/// presence of NaN (NaNs collect at the end instead of silently misordering
/// the column the way `partial_cmp(..).unwrap_or(Equal)` did). `-0.0` sorts
/// before `0.0` under `total_cmp`, but the `dedup()` right after compares
/// with `==` (where `-0.0 == 0.0`), so exactly one representative of the
/// pair survives — and since any midpoint computed from either compares
/// identically against every sample, the chosen representative does not
/// affect the grown tree.
pub(crate) fn quantile_thresholds(data: &Dataset, idx: &[u32], bins: usize) -> Vec<Vec<f64>> {
    let m = data.num_features();
    let mut out = Vec::with_capacity(m);
    let mut vals: Vec<f64> = Vec::with_capacity(idx.len());
    for j in 0..m {
        vals.clear();
        vals.extend(idx.iter().map(|&i| data.feature(i as usize, j)));
        vals.sort_by(f64::total_cmp);
        vals.dedup();
        let mut ts = Vec::new();
        if vals.len() > 1 {
            if vals.len() <= bins {
                for w in vals.windows(2) {
                    ts.push((w[0] + w[1]) / 2.0);
                }
            } else {
                for k in 1..bins {
                    let q0 = vals[(k - 1) * (vals.len() - 1) / (bins - 1)];
                    let q1 = vals[k * (vals.len() - 1) / (bins - 1)];
                    if q1 > q0 {
                        ts.push((q0 + q1) / 2.0);
                    }
                }
                ts.dedup();
            }
        }
        out.push(ts);
    }
    out
}

/// The oracle's per-node gain scan over a pre-accumulated flat histogram.
/// The candidate iteration order, the left/right accumulators and every
/// operand of the gain expression mirror the scan exactly — only the
/// per-sample binning (already folded into `hist`) differs.
fn best_split_binned(
    binned: &BinnedDataset,
    hist: &[u32],
    candidates: &[usize],
    pos: u32,
    neg: u32,
) -> Option<(usize, f64, f64)> {
    let parent = entropy(f64::from(pos), f64::from(neg));
    let n = f64::from(pos + neg);
    let mut best: Option<(usize, f64, f64)> = None;
    for &j in candidates {
        let ts = binned.thresholds(j);
        if ts.is_empty() {
            continue;
        }
        let h = binned.feature_hist(j, hist);
        let mut lp = 0u32;
        let mut ln = 0u32;
        for (k, t) in ts.iter().enumerate() {
            let (hp, hn) = (h[2 * k], h[2 * k + 1]);
            // An empty bin leaves (lp, ln) unchanged, so its gain is
            // bit-identical to the previous bin's — which either already
            // updated `best` or failed the strict `>` — and a leading empty
            // bin has `l == 0`. Skipping it can never change the winner,
            // and at deep nodes most bins are empty.
            if hp == 0 && hn == 0 {
                continue;
            }
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
                best = Some((j, *t, gain));
            }
        }
    }
    best
}

/// Returns a node's histogram to the pool, zeroing it the cheaper way:
/// sparse (only the slots this node's samples can have touched) when the
/// node is small, wholesale `fill(0)` otherwise.
fn release_node_hist(
    pool: &mut HistPool,
    binned: &BinnedDataset,
    idx: &[u32],
    hist: Option<Vec<u32>>,
) {
    if let Some(mut h) = hist {
        if 2 * idx.len() * binned.num_features() < h.len() {
            binned.zero_samples(idx, &mut h);
            pool.release_zeroed(h);
        } else {
            pool.release(h);
        }
    }
}

/// In-place `parent -= child`, element-wise. Counts are exact `u32`s, so the
/// remainder is exactly the other sibling's histogram.
pub(crate) fn subtract_hist(parent: &mut [u32], child: &[u32]) {
    debug_assert_eq!(parent.len(), child.len());
    for (p, &c) in parent.iter_mut().zip(child) {
        *p -= c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    /// XOR-ish dataset: not linearly separable, trivially tree-separable.
    fn xor_data(n: usize) -> Dataset {
        let mut ds = Dataset::new(2);
        let mut r = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..n {
            let a: f64 = r.gen_range(0.0..1.0);
            let b: f64 = r.gen_range(0.0..1.0);
            ds.push(&[a, b], (a > 0.5) != (b > 0.5))
                .expect("2 features");
        }
        ds
    }

    #[test]
    fn learns_xor_exactly() {
        let ds = xor_data(400);
        let t = Tree::fit(&ds, &ds.all_indices(), TreeParams::default(), &mut rng()).expect("fit");
        assert!(t.predict(&[0.9, 0.1]));
        assert!(t.predict(&[0.1, 0.9]));
        assert!(!t.predict(&[0.9, 0.9]));
        assert!(!t.predict(&[0.1, 0.1]));
    }

    #[test]
    fn single_class_index_set_yields_one_leaf() {
        let mut ds = Dataset::new(1);
        for i in 0..10 {
            ds.push(&[i as f64], true).expect("ok");
        }
        let t = Tree::fit(&ds, &ds.all_indices(), TreeParams::default(), &mut rng()).expect("fit");
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.proba(&[5.0]), 1.0);
    }

    #[test]
    fn empty_index_set_is_an_error() {
        let ds = xor_data(10);
        assert_eq!(
            Tree::fit(&ds, &[], TreeParams::default(), &mut rng()).unwrap_err(),
            TrainError::EmptyDataset
        );
    }

    #[test]
    fn max_depth_caps_tree() {
        let ds = xor_data(400);
        let params = TreeParams {
            max_depth: 1,
            ..TreeParams::default()
        };
        let t = Tree::fit(&ds, &ds.all_indices(), params, &mut rng()).expect("fit");
        assert!(t.depth() <= 1);
        assert!(t.num_nodes() <= 3);
    }

    #[test]
    fn proba_matches_leaf_purity() {
        // 80/20 mix below the split, pure above.
        let mut ds = Dataset::new(1);
        for i in 0..100 {
            ds.push(&[0.0], i < 80).expect("ok");
        }
        for _ in 0..100 {
            ds.push(&[10.0], false).expect("ok");
        }
        let params = TreeParams {
            max_depth: 1,
            ..TreeParams::default()
        };
        let t = Tree::fit(&ds, &ds.all_indices(), params, &mut rng()).expect("fit");
        assert!((t.proba(&[0.0]) - 0.8).abs() < 1e-9);
        assert!(t.proba(&[10.0]) < 1e-9);
    }

    #[test]
    fn pruning_shrinks_noisy_trees_without_hurting_signal() {
        // Signal in feature 0; feature 1 is pure noise the unpruned tree
        // will overfit to.
        let mut ds = Dataset::new(2);
        let mut r = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..600 {
            let a: f64 = r.gen_range(0.0..1.0);
            let noise: f64 = r.gen_range(0.0..1.0);
            let label = if r.gen_bool(0.15) { a <= 0.5 } else { a > 0.5 };
            ds.push(&[a, noise], label).expect("ok");
        }
        let mut r2 = rng();
        let (grow, held) = ds.split_indices(2.0 / 3.0, &mut r2);
        let mut t = Tree::fit(&ds, &grow, TreeParams::default(), &mut r2).expect("fit");
        let before = t.num_nodes();
        t.prune_with(&ds, &held);
        t.backfit(&ds, &ds.all_indices());
        assert!(t.num_nodes() < before, "pruning should remove noise splits");
        // Signal preserved.
        assert!(t.predict(&[0.9, 0.5]));
        assert!(!t.predict(&[0.1, 0.5]));
    }

    #[test]
    fn backfit_counts_sum_to_dataset() {
        let ds = xor_data(200);
        let mut r = rng();
        let mut t = Tree::fit(&ds, &ds.all_indices(), TreeParams::default(), &mut r).expect("fit");
        t.backfit(&ds, &ds.all_indices());
        let (leaf_pos, leaf_neg) = t
            .nodes
            .iter()
            .filter(|n| n.is_leaf())
            .fold((0u32, 0u32), |(p, q), n| (p + n.pos, q + n.neg));
        assert_eq!((leaf_pos + leaf_neg) as usize, ds.len());
        assert_eq!(leaf_pos as usize, ds.num_positive());
    }

    #[test]
    fn feature_subset_still_learns() {
        let ds = xor_data(600);
        let params = TreeParams {
            feature_subset: Some(1),
            ..TreeParams::default()
        };
        let t = Tree::fit(&ds, &ds.all_indices(), params, &mut rng()).expect("fit");
        // With one random feature per node the tree is bigger but still
        // separates XOR reasonably.
        let acc = (0..ds.len())
            .filter(|&i| t.predict(ds.row(i)) == ds.label(i))
            .count() as f64
            / ds.len() as f64;
        assert!(acc > 0.9, "subset tree accuracy {acc}");
    }

    #[test]
    fn compact_preserves_predictions() {
        let ds = xor_data(300);
        let mut r = rng();
        let (grow, held) = ds.split_indices(2.0 / 3.0, &mut r);
        let mut t = Tree::fit(&ds, &grow, TreeParams::default(), &mut r).expect("fit");
        let mut pruned = t.clone();
        pruned.prune_node(&ds, 0, &mut held.clone());
        t.prune_with(&ds, &held); // prune + compact
        for i in 0..ds.len() {
            assert_eq!(t.predict(ds.row(i)), pruned.predict(ds.row(i)));
        }
        assert!(t.num_nodes() <= pruned.num_nodes());
    }

    /// Fit the same data/params/seed with the oracle scan and with
    /// [`Tree::fit`].
    fn fit_both(ds: &Dataset, params: TreeParams) -> (Tree, Tree) {
        let oracle =
            oracle::fit_tree(ds, &ds.all_indices(), params, &mut rng()).expect("oracle fit");
        let binned = Tree::fit(ds, &ds.all_indices(), params, &mut rng()).expect("binned fit");
        (oracle, binned)
    }

    #[test]
    fn binned_backend_is_bit_identical_on_xor() {
        let ds = xor_data(400);
        let (oracle, binned) = fit_both(&ds, TreeParams::default());
        assert_eq!(oracle, binned);
    }

    #[test]
    fn binned_backend_is_bit_identical_with_feature_subset() {
        let ds = xor_data(400);
        let params = TreeParams {
            feature_subset: Some(1),
            ..TreeParams::default()
        };
        let (oracle, binned) = fit_both(&ds, params);
        assert_eq!(oracle, binned);
    }

    /// Regression for the NaN-hostile `partial_cmp(..).unwrap_or(Equal)`
    /// sort: a NaN-bearing column must not poison threshold selection, and
    /// the binned fit must still agree with the oracle bit-for-bit.
    #[test]
    fn nan_feature_column_is_handled_consistently() {
        let mut ds = Dataset::new(2);
        let mut r = ChaCha8Rng::seed_from_u64(3);
        for i in 0..200 {
            let a: f64 = r.gen_range(0.0..1.0);
            let b = if i % 7 == 0 { f64::NAN } else { a * 2.0 };
            ds.push(&[a, b], a > 0.5).expect("2 features");
        }
        let ts = quantile_thresholds(&ds, &ds.all_indices(), 256);
        // total_cmp puts NaNs at the tail; the finite prefix of each
        // threshold list must be strictly increasing.
        for col in &ts {
            let finite: Vec<f64> = col.iter().copied().filter(|v| v.is_finite()).collect();
            assert!(finite.windows(2).all(|w| w[0] < w[1]), "misordered {col:?}");
        }
        let (oracle, binned) = fit_both(&ds, TreeParams::default());
        assert_eq!(oracle, binned);
        // The clean feature fully determines the label, so NaNs in the
        // noisy twin column must not break learning.
        assert!(oracle.predict(&[0.9, f64::NAN]));
        assert!(!oracle.predict(&[0.1, f64::NAN]));
    }

    /// -0.0 and 0.0 compare equal, so `dedup()` keeps one representative
    /// and any midpoint built from it splits samples identically.
    #[test]
    fn negative_zero_dedups_to_one_threshold_value() {
        let mut ds = Dataset::new(1);
        for i in 0..10 {
            ds.push(&[if i % 2 == 0 { -0.0 } else { 0.0 }], i < 5)
                .expect("1 feature");
        }
        let ts = quantile_thresholds(&ds, &ds.all_indices(), 256);
        assert!(ts[0].is_empty(), "single distinct value → no thresholds");
    }

    #[test]
    fn partition_is_correct() {
        let mut xs = vec![5, 1, 4, 2, 3];
        let cut = partition(&mut xs, |&x| x <= 2);
        assert_eq!(cut, 2);
        let (l, r) = xs.split_at(cut);
        assert!(l.iter().all(|&x| x <= 2));
        assert!(r.iter().all(|&x| x > 2));
    }

    #[test]
    fn entropy_extremes() {
        assert_eq!(entropy(0.0, 0.0), 0.0);
        assert_eq!(entropy(10.0, 0.0), 0.0);
        assert!((entropy(5.0, 5.0) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    /// JSON of a tree over `num_features` features whose nodes are
    /// `(feature, left, right, pos)` with one negative sample each.
    fn tree_json(num_features: usize, nodes: &[(i64, u32, u32, u32)]) -> String {
        let nodes: Vec<String> = nodes
            .iter()
            .map(|(f, l, r, pos)| {
                format!(
                    "{{\"feature\":{f},\"threshold\":0.5,\"left\":{l},\"right\":{r},\"pos\":{pos},\"neg\":1}}"
                )
            })
            .collect();
        format!(
            "{{\"nodes\":[{}],\"num_features\":{num_features}}}",
            nodes.join(",")
        )
    }

    #[test]
    fn decode_accepts_a_well_formed_tree() {
        let tree: Tree =
            serde_json::from_str(&tree_json(2, &[(1, 1, 2, 0), (-1, 0, 0, 3), (-1, 0, 0, 0)]))
                .expect("well-formed tree decodes");
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.proba(&[0.0, 0.0]), 0.75);
        assert_eq!(tree.proba(&[0.0, 1.0]), 0.0);
    }

    #[test]
    fn decode_rejects_trees_a_walk_cannot_take() {
        let leaf = (-1, 0, 0, 1);
        let cases = [
            ("no nodes", tree_json(2, &[])),
            (
                "root is its own left child",
                tree_json(2, &[(0, 0, 1, 1), leaf]),
            ),
            ("child out of range", tree_json(2, &[(0, 1, 7, 1), leaf])),
            (
                "child before its parent",
                tree_json(2, &[(0, 1, 2, 1), (0, 0, 2, 1), leaf]),
            ),
            ("shared child", tree_json(2, &[(0, 1, 1, 1), leaf])),
            ("orphan node", tree_json(2, &[leaf, leaf])),
            (
                "feature past the row",
                tree_json(2, &[(70_000, 1, 2, 1), leaf, leaf]),
            ),
            (
                "feature past 16 bits",
                tree_json(70_001, &[(70_000, 1, 2, 1), leaf, leaf]),
            ),
            (
                "negative feature",
                tree_json(2, &[(-2, 1, 2, 1), leaf, leaf]),
            ),
            (
                "leaf counts overflow",
                tree_json(2, &[(-1, 0, 0, u32::MAX)]),
            ),
        ];
        for (name, json) in cases {
            assert!(
                serde_json::from_str::<Tree>(&json).is_err(),
                "{name} must not decode"
            );
        }
    }
}
