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

/// Sentinel feature id marking a leaf node.
pub(crate) const LEAF: i32 = -1;

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

/// A dataset prepared once for the tree fits of one ensemble: every
/// feature column's rows in sorted order, from which each tree derives its
/// quantile thresholds and bin codes in linear time, and the `k·ln k`
/// table the split search screens its bins with. [`crate::Bagging`] builds
/// one per fit and drops it when the fit returns.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sm_ml::data::Dataset;
/// use sm_ml::learners::{RepTreeLearner, TreeLearner};
/// use sm_ml::tree::FitData;
///
/// let mut ds = Dataset::new(1);
/// for i in 0..100 {
///     ds.push(&[f64::from(i)], i >= 50)?;
/// }
/// let fit = FitData::new(&ds);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// for _ in 0..3 {
///     let idx = ds.bootstrap_indices(&mut rng);
///     let tree = RepTreeLearner::default().fit_tree_on(&fit, &idx, &mut rng)?;
///     assert!(tree.predict(&[90.0]) && !tree.predict(&[10.0]));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FitData<'a> {
    data: &'a Dataset,
    /// Column-major, feature `j` at `[j * n..(j + 1) * n]`: the row ids in
    /// [`f64::total_cmp`] order of their values, and those values, so the
    /// per-tree walks read both in sequence.
    rows: Vec<u32>,
    values: Vec<f64>,
    /// `xlx[k] = k·ln k` for every count a node of a bootstrap can hold.
    xlx: Vec<f64>,
}

impl<'a> FitData<'a> {
    /// Sorts every feature column of `data` and fills the `k·ln k` table.
    pub fn new(data: &'a Dataset) -> Self {
        let (n, m) = (data.len(), data.num_features());
        let mut rows = Vec::with_capacity(n * m);
        let mut values = Vec::with_capacity(n * m);
        let mut keyed: Vec<(i64, u32)> = Vec::with_capacity(n);
        for j in 0..m {
            keyed.clear();
            keyed.extend((0..n).map(|i| (total_order_key(data.feature(i, j)), i as u32)));
            keyed.sort_unstable();
            rows.extend(keyed.iter().map(|&(_, i)| i));
            values.extend(keyed.iter().map(|&(_, i)| data.feature(i as usize, j)));
        }
        FitData {
            data,
            rows,
            values,
            xlx: xlx_table(n),
        }
    }

    /// The dataset the fits draw from.
    pub fn data(&self) -> &'a Dataset {
        self.data
    }

    /// Every row id of the dataset, ascending in feature `j` under
    /// [`f64::total_cmp`], and the row's value of feature `j`.
    pub(crate) fn sorted_column(&self, j: usize) -> (&[u32], &[f64]) {
        let n = self.data.len();
        let at = j * n..(j + 1) * n;
        (&self.rows[at.clone()], &self.values[at])
    }
}

/// `k·ln k`, with `0·ln 0 = 0`.
fn xlx(k: usize) -> f64 {
    if k == 0 {
        0.0
    } else {
        k as f64 * (k as f64).ln()
    }
}

/// [`xlx`] of every `k` in `0..=max_count`.
fn xlx_table(max_count: usize) -> Vec<f64> {
    (0..=max_count).map(xlx).collect()
}

/// The signed integer whose order is [`f64::total_cmp`]'s: the standard
/// library's own transform, so sorting keys sorts values by `total_cmp`.
fn total_order_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

impl Tree {
    /// Fits a tree on the samples selected by `idx`.
    ///
    /// Split-finding runs on a histogram kernel: every sample's feature
    /// values are encoded once into `u16` bin codes against the tree's
    /// quantile thresholds, and each larger sibling's histogram comes from
    /// parent-minus-smaller-child subtraction. The grown tree is
    /// bit-identical to the per-node scan of [`crate::oracle::fit_tree`].
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::EmptyDataset`] if `idx` is empty, and
    /// [`TrainError::TooManyThresholds`] if a feature has more thresholds
    /// than a `u16` code can address (only `params.bins` past 65,536 can
    /// cause it). A single-class index set yields a single-leaf tree
    /// rather than an error (bootstrap resamples can legitimately be
    /// one-class).
    pub fn fit<R: Rng>(
        data: &Dataset,
        idx: &[u32],
        params: TreeParams,
        rng: &mut R,
    ) -> Result<Self, TrainError> {
        Self::fit_on(&FitData::new(data), idx, params, rng)
    }

    /// [`Tree::fit`] on a dataset already prepared for many fits.
    pub(crate) fn fit_on<R: Rng>(
        fit: &FitData<'_>,
        idx: &[u32],
        params: TreeParams,
        rng: &mut R,
    ) -> Result<Self, TrainError> {
        if idx.is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        let data = fit.data();
        let binned = BinnedDataset::build(fit, idx, params.bins)?;
        // A node holds at most `idx.len()` samples; only an index set with
        // more repeats than the dataset has rows outgrows the shared table.
        let own_xlx;
        let xlx = if idx.len() < fit.xlx.len() {
            &fit.xlx
        } else {
            own_xlx = xlx_table(idx.len());
            &own_xlx
        };
        let mut scratch = idx.to_vec();
        let mut grower = Grower {
            tree: Tree::empty(data.num_features()),
            data,
            binned: &binned,
            params: &params,
            xlx,
            rng,
            order: FeatureOrder::new(data.num_features()),
            pool: HistPool::new(binned.hist_len()),
            occupied: vec![0; binned.bitmap_words()],
        };
        // REPTree-style all-feature nodes thread a full histogram down the
        // recursion so each larger sibling comes from a subtraction; the
        // RandomTree subset path accumulates only the node's candidate
        // features instead.
        let root_hist = params.feature_subset.is_none().then(|| {
            let mut h = grower.pool.acquire();
            binned.accumulate(data.labels(), &scratch, &mut h);
            h
        });
        grower.grow(&mut scratch, 0, root_hist);
        Ok(grower.tree)
    }

    /// An empty tree over `num_features` features, for a builder to grow.
    pub(crate) fn empty(num_features: usize) -> Self {
        Self::from_nodes(num_features, Vec::new())
    }

    /// A tree of the node table `nodes`, root first.
    pub(crate) fn from_nodes(num_features: usize, nodes: Vec<Node>) -> Self {
        Tree {
            nodes,
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

    /// Mutable node table, for the oracle's backfit.
    pub(crate) fn nodes_mut(&mut self) -> &mut [Node] {
        &mut self.nodes
    }

    /// Reduced-error pruning against a held-out index set: any subtree whose
    /// majority-label error on the held-out samples is no better than the
    /// error of a single leaf is collapsed.
    ///
    /// Each node's counts come in as those of the grow set that reached it
    /// and leave as those of the grow and held-out sets together: pruning
    /// routes the held-out samples with the same raw predicate the grower
    /// partitioned by, and a collapse changes no surviving node's path. So
    /// a tree grown on `grow` and pruned with `held` carries the paper's
    /// Eq. (1) counts of `grow ∪ held` without a second walk
    /// ([`crate::oracle::backfit`] re-derives them as the check).
    pub(crate) fn prune_with(&mut self, data: &Dataset, held: &[u32]) {
        let mut scratch = held.to_vec();
        self.prune_node(data, 0, &mut scratch);
        self.compact();
    }

    /// Returns the held-out error of the (possibly pruned) subtree at `at`.
    fn prune_node(&mut self, data: &Dataset, at: usize, held: &mut [u32]) -> usize {
        let node = self.nodes[at];
        let (held_pos, held_neg) = count_labels(data, held);
        // The majority is the grow set's, read before the held counts join.
        let leaf_err = if node.majority() { held_neg } else { held_pos } as usize;
        let n = &mut self.nodes[at];
        n.pos += held_pos;
        n.neg += held_neg;
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
    let cut = split_cut(idx, gain, |i| {
        data.feature(i as usize, feature) <= threshold
    })?;
    Some((feature, threshold, cut))
}

/// Moves the samples of `idx` that `goes_left` to the front and returns
/// their count, or `None` when `gain` is nothing or the split sends every
/// sample one way.
fn split_cut(idx: &mut [u32], gain: f64, goes_left: impl Fn(u32) -> bool) -> Option<usize> {
    if gain <= 1e-12 {
        return None;
    }
    let cut = partition(idx, |&i| goes_left(i));
    (cut != 0 && cut != idx.len()).then_some(cut)
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

/// A node finds its occupied bins of a feature from a bitmap of its
/// samples' codes when the feature has more than this many thresholds per
/// node sample, and otherwise from a bitmap of the feature's non-empty
/// histogram bins. The first costs a pass over the node's samples, the
/// second a branch-free step per bin. On the layer-6 fit (10 trees, 23,424
/// samples, shared 2-vCPU Xeon, timers around each stage, ms of split
/// search per 1 ms of presort to cancel the host's drift) 2 and 8 gave
/// 4.3–4.45, 32 gave 5.0–5.3, and the histogram bitmap everywhere 5.3–5.4.
const SPARSE_SCAN_BINS_PER_SAMPLE: usize = 2;

/// One binned tree fit: the tree being grown, its read-only inputs and the
/// scratch recycled across its nodes.
struct Grower<'g, R> {
    tree: Tree,
    data: &'g Dataset,
    binned: &'g BinnedDataset,
    params: &'g TreeParams,
    xlx: &'g [f64],
    rng: &'g mut R,
    order: FeatureOrder,
    pool: HistPool,
    /// Occupied-bin bitmap of one feature of one node; all zero between
    /// uses.
    occupied: Vec<u64>,
}

impl<R: Rng> Grower<'_, R> {
    /// Grows the subtree of `idx` from histograms. Stop conditions, candidate
    /// order, gain operands and the partition predicate are those of the
    /// oracle's per-node scan, so the grown tree is bit-identical. The
    /// partition reads the feature's bin codes where they decide the raw
    /// `x[feature] <= threshold` ([`BinnedDataset::code_column`]), and the
    /// raw values elsewhere.
    ///
    /// `hist` is the node's full (pos, neg)-per-bin histogram on the
    /// all-feature path, `None` on the random-subset path. Buffers are
    /// recycled through the pool, so at most `O(depth)` histograms are live.
    fn grow(&mut self, idx: &mut [u32], depth: usize, hist: Option<Vec<u32>>) -> u32 {
        let (binned, data) = (self.binned, self.data);
        let (me, counts) = self.tree.open_node(data, idx, self.params, depth);
        let Some(counts) = counts else {
            release_node_hist(&mut self.pool, binned, idx, hist);
            return me;
        };

        // Find the best split from histograms: either the one threaded down
        // from the parent (all-feature path) or a fresh accumulation of just
        // this node's random candidates (subset path).
        let candidates = self.order.candidates(self.params.feature_subset, self.rng);
        let (best, hist) = match hist {
            Some(h) => {
                let best = best_split_binned(
                    binned,
                    self.xlx,
                    &h,
                    candidates,
                    idx,
                    counts,
                    &mut self.occupied,
                );
                (best, Some(h))
            }
            None => {
                let mut h = self.pool.acquire();
                for &j in candidates {
                    binned.accumulate_feature(j, data.labels(), idx, &mut h);
                }
                let best = best_split_binned(
                    binned,
                    self.xlx,
                    &h,
                    candidates,
                    idx,
                    counts,
                    &mut self.occupied,
                );
                for &j in candidates {
                    binned.zero_feature(j, &mut h);
                }
                self.pool.release_zeroed(h);
                (best, None)
            }
        };
        let split = best.and_then(|(feature, k, gain)| {
            let threshold = binned.thresholds(feature)[k];
            let cut = match binned.code_column(feature) {
                Some(col) => split_cut(idx, gain, |i| usize::from(col[i as usize]) <= k),
                None => split_cut(idx, gain, |i| {
                    data.feature(i as usize, feature) <= threshold
                }),
            }?;
            Some((feature, threshold, cut))
        });
        let Some((feature, threshold, cut)) = split else {
            release_node_hist(&mut self.pool, binned, idx, hist);
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
                let mut small_hist = self.pool.acquire();
                binned.accumulate(data.labels(), small, &mut small_hist);
                let large_hist = if 2 * n_node * m < small.len() * m + parent.len() {
                    let mut fresh = self.pool.acquire();
                    binned.accumulate(data.labels(), large, &mut fresh);
                    binned.zero_samples(small, &mut parent);
                    binned.zero_samples(large, &mut parent);
                    self.pool.release_zeroed(parent);
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
        let left = self.grow(left_idx, depth + 1, left_hist);
        let right = self.grow(right_idx, depth + 1, right_hist);
        self.tree.close_node(me, feature, threshold, left, right);
        me
    }
}

/// Slack, in nats of gain, of the bin screen in [`best_split_binned`].
///
/// The screen value of a bin is
/// `S = xlx[l] + xlx[r] − xlx[lp] − xlx[ln] − xlx[rp] − xlx[rn]` over the
/// child sizes `l`, `r` and their class counts, with `xlx[k] = k·ln k`. In
/// exact arithmetic `S = l·H(lp, ln) + r·H(rp, rn)`, `n` times the weighted
/// child entropy, so the exact gain is `parent − S/n`. A bin is skipped
/// when `S ≥ (parent − best + SCREEN_SLACK)·n`, and it is safe to skip
/// whenever the floating-point values of both sides differ by less than
/// the slack. With `u = 2⁻⁵³`:
///
/// - each table entry is within `3u` of `k·ln k` (one rounding of `ln`
///   within an ulp, one of the product), the six entries add up to at most
///   `2n·ln n` in magnitude, and each of the five additions rounds a partial
///   sum no larger than `n·ln n`: `S` is within `11u·n·ln n` of its exact
///   value;
/// - the exact expression's two entropies (each at most `ln 2`, each within
///   about `4u`), their weights and the two subtractions put it within
///   about `8u` of `parent − (l·H_l + r·H_r)/n`;
/// - the bar `(parent − best + SCREEN_SLACK)·n` is within `3u·n`.
///
/// Together, with the division `S/n`, both sides are apart by at most
/// about `1.2e-15·ln n + 1.3e-15`, under `SCREEN_ERROR·(1 + ln n)` with room
/// to spare: at most 1.2e-13 for any count a `u32` holds, four orders of
/// magnitude below the slack. A skipped bin therefore cannot have a gain
/// above the best, and the exact `>` that follows still picks every winner,
/// ties included, in the oracle's order.
const SCREEN_SLACK: f64 = 1e-9;

/// Per unit of `1 + ln n`, the bound on how far `parent − S/n` and the
/// exact gain expression can be apart (see [`SCREEN_SLACK`]).
const SCREEN_ERROR: f64 = 5e-15;

/// The oracle's per-node gain scan over a pre-accumulated flat histogram,
/// returning the best feature, bin and gain. The candidate iteration
/// order, the left/right accumulators and every operand of the gain
/// expression mirror the scan exactly — only the per-sample binning
/// (already folded into `hist`) differs.
///
/// Only non-empty bins are visited. An empty bin leaves (lp, ln)
/// unchanged, so its gain is bit-identical to the previous bin's — which
/// either already updated `best` or failed the strict `>` — and a leading
/// empty bin has `l == 0`. Skipping it can never change the winner, and at
/// deep nodes most bins are empty. The occupied bins are walked in
/// ascending order through a bitmap: of the node's codes when it has few
/// samples per bin, of the histogram otherwise
/// ([`SPARSE_SCAN_BINS_PER_SAMPLE`]).
///
/// A visited bin is first screened with one sum of six `k·ln k` lookups
/// ([`SCREEN_SLACK`]), and only a bin that may beat the best so far has its
/// exact gain computed; on the layer-6 training set that is one bin in 26.
fn best_split_binned(
    binned: &BinnedDataset,
    xlx: &[f64],
    hist: &[u32],
    candidates: &[usize],
    idx: &[u32],
    (pos, neg): (u32, u32),
    occupied: &mut [u64],
) -> Option<(usize, usize, f64)> {
    let parent = entropy(f64::from(pos), f64::from(neg));
    let total = pos + neg;
    let n = f64::from(total);
    let x = |k: u32| xlx[k as usize];
    let mut best: Option<(usize, usize, f64)> = None;
    // A bin is evaluated exactly only while its screen value is below this.
    let mut bar = f64::INFINITY;
    for &j in candidates {
        let ts = binned.thresholds(j);
        if ts.is_empty() {
            continue;
        }
        let h = binned.feature_hist(j, hist);
        let mut lp = 0u32;
        let mut ln = 0u32;
        let mut visit = |k: usize| {
            lp += h[2 * k];
            ln += h[2 * k + 1];
            let (l, r) = (lp + ln, total - lp - ln);
            if l == 0 || r == 0 {
                return;
            }
            let screen = x(l) + x(r) - x(lp) - x(ln) - x(pos - lp) - x(neg - ln);
            if screen >= bar {
                return;
            }
            let (l, r) = (f64::from(l), f64::from(r));
            let gain = parent
                - (l / n) * entropy(f64::from(lp), f64::from(ln))
                - (r / n) * entropy(f64::from(pos - lp), f64::from(neg - ln));
            debug_assert!(
                (parent - screen / n - gain).abs() <= SCREEN_ERROR * (1.0 + n.ln()),
                "screen {screen} off the gain {gain} at n = {n}"
            );
            if best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((j, k, gain));
                bar = (parent - gain + SCREEN_SLACK) * n;
            }
        };
        let words = if ts.len() > SPARSE_SCAN_BINS_PER_SAMPLE * idx.len() {
            binned.mark_bins(j, idx, occupied)
        } else {
            occupied_bins(h, ts.len(), occupied)
        };
        for (w, word) in words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let k = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // The last bin holds the samples above every threshold.
                if k < ts.len() {
                    visit(k);
                }
            }
        }
    }
    best
}

/// Sets bit `k` of `occupied` for each of the first `bins` bins of the
/// feature histogram `h` that holds a sample, and returns the words that
/// cover them. Every word returned is written whole, so `occupied` needs
/// no clearing first.
fn occupied_bins<'o>(h: &[u32], bins: usize, occupied: &'o mut [u64]) -> &'o mut [u64] {
    let words = &mut occupied[..bins.div_ceil(64)];
    for (w, word) in words.iter_mut().enumerate() {
        let slots = &h[2 * 64 * w..2 * bins.min(64 * w + 64)];
        *word = slots.chunks_exact(2).enumerate().fold(0, |bits, (b, c)| {
            bits | (u64::from((c[0] | c[1]) != 0) << b)
        });
    }
    words
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
    use crate::learners::{RandomTreeLearner, RepTreeLearner, TreeLearner};
    use crate::oracle;
    use proptest::prelude::*;
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
        assert!(t.num_nodes() < before, "pruning should remove noise splits");
        // Signal preserved.
        assert!(t.predict(&[0.9, 0.5]));
        assert!(!t.predict(&[0.1, 0.5]));
    }

    /// Class totals over the leaves of `t`.
    fn leaf_totals(t: &Tree) -> (u32, u32) {
        t.nodes
            .iter()
            .filter(|n| n.is_leaf())
            .fold((0, 0), |(p, q), n| (p + n.pos, q + n.neg))
    }

    /// A REPTree takes its Eq. (1) counts while pruning; the oracle's walk
    /// over the full index set must find the same counts on every node.
    #[test]
    fn backfit_counts_sum_to_dataset() {
        let ds = xor_data(200);
        let t = RepTreeLearner::default()
            .fit_tree(&ds, &ds.all_indices(), &mut rng())
            .expect("fit");
        let mut walked = t.clone();
        oracle::backfit(&mut walked, &ds, &ds.all_indices());
        assert_eq!(walked, t);
        let (leaf_pos, leaf_neg) = leaf_totals(&t);
        assert_eq!((leaf_pos + leaf_neg) as usize, ds.len());
        assert_eq!(leaf_pos as usize, ds.num_positive());
    }

    /// 300–3,000 rows, so nodes fall on both sides of the sparse-scan switch, over four columns: more
    /// distinct values than 256 bins, heavy ties among ±0.0 and a few
    /// integers, NaNs of both signs among repeated integers, and noise.
    fn arb_large_dataset() -> impl Strategy<Value = Dataset> {
        (300usize..3_000, any::<u64>()).prop_map(|(n, seed)| {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            let mut ds = Dataset::new(4);
            for _ in 0..n {
                let wide: f64 = r.gen_range(-1.0..1.0);
                let tied = [-0.0, 0.0, 1.0, 2.0, 3.0][r.gen_range(0..5usize)];
                let nan = match r.gen_range(0..10) {
                    0 => f64::NAN,
                    1 => -f64::NAN,
                    _ => f64::from(r.gen_range(0..40u8)),
                };
                let noise: f64 = r.gen_range(0.0..1.0);
                let label = ((wide > 0.2) ^ (tied > 1.5)) != r.gen_bool(0.15);
                ds.push(&[wide, tied, nan, noise], label)
                    .expect("4 features");
            }
            ds
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn large_tied_nan_datasets_keep_oracle_parity(
            ds in arb_large_dataset(),
            bins in 2usize..300,
            seed in any::<u64>()
        ) {
            let fit = FitData::new(&ds);
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            let boot = ds.bootstrap_indices(&mut r);
            // Thresholds from the one presort equal a per-tree sort's, bit
            // for bit (NaN midpoints included).
            let presorted = BinnedDataset::build(&fit, &boot, bins)
                .expect("fits in u16")
                .thresholds_by_feature();
            let sorted = oracle::quantile_thresholds(&ds, &boot, bins);
            let bits = |ts: &[Vec<f64>]| -> Vec<Vec<u64>> {
                ts.iter().map(|c| c.iter().map(|t| t.to_bits()).collect()).collect()
            };
            prop_assert_eq!(bits(&presorted), bits(&sorted));

            // Learner parity through the shared presort, and pruning-time
            // counts equal to the oracle walk's.
            let rep = RepTreeLearner::default()
                .fit_tree_on(&fit, &boot, &mut ChaCha8Rng::seed_from_u64(seed))
                .expect("fit");
            let rep_oracle = oracle::RepTreeLearner::default()
                .fit_tree(&ds, &boot, &mut ChaCha8Rng::seed_from_u64(seed))
                .expect("fit");
            prop_assert_eq!(&rep, &rep_oracle);
            let mut walked = rep.clone();
            oracle::backfit(&mut walked, &ds, &boot);
            prop_assert_eq!(&walked, &rep);
            let (leaf_pos, leaf_neg) = leaf_totals(&rep);
            prop_assert_eq!((leaf_pos + leaf_neg) as usize, boot.len());

            let rt = RandomTreeLearner::default()
                .fit_tree_on(&fit, &boot, &mut ChaCha8Rng::seed_from_u64(seed))
                .expect("fit");
            let rt_oracle = oracle::RandomTreeLearner::default()
                .fit_tree(&ds, &boot, &mut ChaCha8Rng::seed_from_u64(seed))
                .expect("fit");
            prop_assert_eq!(rt, rt_oracle);
        }
    }

    /// 300–3,000 rows over five columns: `base` (a few dozen tied
    /// integers, or more distinct values than the bins), its duplicate, its
    /// mirror `-base`, a column of only `±∞` (whose one threshold, their
    /// midpoint, is NaN) and a constant.
    fn arb_tie_dataset() -> impl Strategy<Value = Dataset> {
        (300usize..3_000, any::<u64>(), any::<bool>()).prop_map(|(n, seed, wide)| {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            let mut ds = Dataset::new(5);
            for _ in 0..n {
                let base = if wide {
                    r.gen_range(-1.0..1.0)
                } else {
                    f64::from(r.gen_range(0..40u8)) / 8.0
                };
                let inf = if r.gen_bool(0.5) {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                };
                let label = ((base * 5.0).sin() > 0.0) != r.gen_bool(0.2);
                ds.push(&[base, base, -base, inf, 7.0], label)
                    .expect("5 features");
            }
            ds
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The bin screen and the code partition against the oracle where
        /// they are most fragile: a duplicated column ties its original on
        /// every split, so the first candidate must win each; the mirror's
        /// gains equal the original's up to rounding; the `±∞` column's
        /// NaN threshold keeps it off the code partition; and a constant
        /// column has no threshold at all.
        #[test]
        fn tied_mirrored_and_infinite_columns_keep_oracle_parity(
            ds in arb_tie_dataset(),
            bins in 2usize..300,
            seed in any::<u64>()
        ) {
            let fit = FitData::new(&ds);
            let boot = ds.bootstrap_indices(&mut ChaCha8Rng::seed_from_u64(seed));
            let binned = BinnedDataset::build(&fit, &boot, bins).expect("fits in u16");
            prop_assert!(binned.code_column(0).is_some() && binned.code_column(2).is_some());
            prop_assert!(binned.thresholds(3).iter().all(|t| t.is_nan()));
            prop_assert!(binned.code_column(3).is_none());
            prop_assert!(binned.thresholds(4).is_empty());

            let params = TreeParams { bins, ..TreeParams::default() };
            let tree = Tree::fit(&ds, &boot, params, &mut ChaCha8Rng::seed_from_u64(seed))
                .expect("fit");
            let scan = oracle::fit_tree(&ds, &boot, params, &mut ChaCha8Rng::seed_from_u64(seed))
                .expect("fit");
            prop_assert_eq!(&tree, &scan);
            prop_assert!(tree.nodes.iter().all(|n| n.feature != 1), "a tie went to the duplicate");

            let rep = RepTreeLearner::default()
                .fit_tree_on(&fit, &boot, &mut ChaCha8Rng::seed_from_u64(seed))
                .expect("fit");
            let rep_oracle = oracle::RepTreeLearner::default()
                .fit_tree(&ds, &boot, &mut ChaCha8Rng::seed_from_u64(seed))
                .expect("fit");
            prop_assert_eq!(rep, rep_oracle);
            let rt = RandomTreeLearner::default()
                .fit_tree_on(&fit, &boot, &mut ChaCha8Rng::seed_from_u64(seed))
                .expect("fit");
            let rt_oracle = oracle::RandomTreeLearner::default()
                .fit_tree(&ds, &boot, &mut ChaCha8Rng::seed_from_u64(seed))
                .expect("fit");
            prop_assert_eq!(rt, rt_oracle);
        }
    }

    proptest! {
        /// The bound the split search asserts on every exact evaluation,
        /// at any counts a `u32` holds, far past the training sets here.
        #[test]
        fn screen_stays_within_its_error_bound(
            pos in 1u32..=u32::MAX / 2,
            neg in 1u32..=u32::MAX / 2,
            left_pos in 0.0f64..1.0,
            left_neg in 0.0f64..1.0,
            small in any::<bool>()
        ) {
            let (pos, neg) = if small { (pos % 300 + 1, neg % 300 + 1) } else { (pos, neg) };
            // Both children non-empty: `ln >= 1` and `rp >= 1`.
            let lp = ((left_pos * f64::from(pos)) as u32).min(pos - 1);
            let ln = (left_neg * f64::from(neg)).max(1.0) as u32;
            let (rp, rn) = (pos - lp, neg - ln);
            let (l, r, total) = (lp + ln, rp + rn, pos + neg);
            let x = |k: u32| xlx(k as usize);
            let screen = x(l) + x(r) - x(lp) - x(ln) - x(rp) - x(rn);
            let n = f64::from(total);
            let parent = entropy(f64::from(pos), f64::from(neg));
            let gain = parent
                - (f64::from(l) / n) * entropy(f64::from(lp), f64::from(ln))
                - (f64::from(r) / n) * entropy(f64::from(rp), f64::from(rn));
            let off = (parent - screen / n - gain).abs();
            prop_assert!(off <= SCREEN_ERROR * (1.0 + n.ln()), "{off} at n = {n}");
        }
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

    /// An index set with more repeats than the dataset has rows holds
    /// nodes larger than the ensemble's `k·ln k` table covers.
    #[test]
    fn index_sets_longer_than_the_dataset_keep_oracle_parity() {
        let ds = xor_data(200);
        let idx: Vec<u32> = (0..3).flat_map(|_| ds.all_indices()).collect();
        let binned = Tree::fit(&ds, &idx, TreeParams::default(), &mut rng()).expect("fit");
        let scan = oracle::fit_tree(&ds, &idx, TreeParams::default(), &mut rng()).expect("fit");
        assert_eq!(binned, scan);
        assert_eq!(binned.nodes[0].pos + binned.nodes[0].neg, 600);
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
        let ts = oracle::quantile_thresholds(&ds, &ds.all_indices(), 256);
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
        let ts = oracle::quantile_thresholds(&ds, &ds.all_indices(), 256);
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
