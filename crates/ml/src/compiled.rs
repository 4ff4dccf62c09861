//! Compiled inference kernel: a [`Bagging`] ensemble lowered into one
//! contiguous node table.
//!
//! The reference path ([`Bagging::proba`]) walks per-tree `Vec<Node>`
//! allocations through an enum-free but pointer-chasing loop, and divides
//! leaf counts (`P / (P + N)`, Eq. (1)) on every visit. The compiled path
//! re-emits every tree in depth-first preorder into one array of 16-byte
//! nodes — `f64` threshold, `u16` split feature, `u16` left step, `u32`
//! right offset — with the leaf probability *precomputed at compile time*
//! and stored in the threshold slot. A node's left child is always the next
//! entry, so descending left adds the left step (1) and descending right
//! adds the right offset: no child pointers, no per-tree indirection, no
//! division in the hot loop. Leaves are absorbing: both steps are 0.
//!
//! Two walks read the table in [`CompiledEnsemble::proba_batch`], picked
//! once at compile time by tree depth ([`CompiledEnsemble::proba`], one
//! row, always takes the scalar walk):
//!
//! - **Row-outer scalar walk** (ensembles whose trees are all shallower
//!   than [`LOCKSTEP_DEPTH`], e.g. the pruned top-layer models): each row
//!   descends every tree in turn with one well-predicted branch per level.
//! - **Tree-outer lockstep walk** (any tree [`LOCKSTEP_DEPTH`] or deeper):
//!   each tree is walked over the whole batch, [`LANES`] rows at a time,
//!   with a branchless `at += if v <= thr { lo } else { hi }` step per lane
//!   until every lane stands on a leaf. On deep trees the scalar walk pays
//!   one mispredicted branch per level; the lanes turn that into data
//!   dependencies that overlap across rows.
//!
//! Compilation is a pure lowering: [`CompiledEnsemble::proba`] and
//! [`CompiledEnsemble::proba_batch`] are **bit-for-bit identical** to
//! [`Bagging::proba`] under either walk — the leaf division uses the same
//! operands, member probabilities are summed in the same tree order, and
//! the final division by the tree count is unchanged. Model artifacts keep
//! storing the trained trees; compilation happens at load, so the artifact
//! format is untouched by kernel-layout changes.

use crate::bagging::Bagging;
use crate::tree::Tree;

/// Tree depth from which [`CompiledEnsemble::proba_batch`] walks in
/// lockstep. Measured in-process on a shared 2-vCPU Xeon, median ns per row
/// over real candidate rows in 256-row batches, three rounds each. On the
/// layer-6 model (trees 21–30 deep, ~740 nodes each) the scalar walk took
/// 719–767, 4 lanes 381–423, 8 lanes 371–450, 16 lanes 1,244–1,381
/// (register spill), and a tree-outer walk without lanes 700–812. On the
/// layer-8 model (trees 5–11 deep, ~25 nodes each) lanes took 67–106
/// against the scalar walk's 39–50. The constant sits in that gap.
pub const LOCKSTEP_DEPTH: usize = 16;

/// Rows walked side by side in the lockstep walk.
pub const LANES: usize = 4;

/// One compiled node: 16 bytes, so a level of the walk is one load.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    /// Split threshold; on a leaf, its precomputed probability (Eq. (1),
    /// empty-leaf fallback 0.5 baked in).
    thr: f64,
    /// Split feature; 0 on a leaf, so a lane parked there still reads a
    /// column inside its row.
    feat: u16,
    /// Step to the left child: 1 on internal nodes, 0 on leaves.
    lo: u16,
    /// Offset to the right child: more than 1 on internal nodes, 0 on
    /// leaves.
    hi: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

/// A [`Bagging`] ensemble flattened into one node table for batched
/// inference.
///
/// # Examples
///
/// ```
/// use sm_ml::bagging::Bagging;
/// use sm_ml::compiled::CompiledEnsemble;
/// use sm_ml::data::Dataset;
/// use sm_ml::learners::RepTreeLearner;
///
/// let mut ds = Dataset::new(1);
/// for i in 0..200 {
///     ds.push(&[i as f64], i >= 100)?;
/// }
/// let model = Bagging::fit(&ds, &RepTreeLearner::default(), 10, 42)?;
/// let compiled = CompiledEnsemble::compile(&model);
/// let x = [150.0];
/// assert_eq!(compiled.proba(&x).to_bits(), model.proba(&x).to_bits());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledEnsemble {
    /// Every member tree in preorder, back to back.
    nodes: Vec<Node>,
    /// Flat index of each member tree's root, in ensemble order.
    roots: Vec<u32>,
    /// Features the ensemble was trained on.
    num_features: usize,
    /// Whether some member is [`LOCKSTEP_DEPTH`] or deeper, so
    /// [`Self::proba_batch`] takes the lockstep walk.
    lockstep: bool,
}

impl CompiledEnsemble {
    /// Lowers a trained ensemble into the flat node table.
    ///
    /// Each tree is re-emitted in depth-first preorder regardless of how
    /// its nodes happened to be stored (pruning compaction preserves
    /// preorder today, but the kernel must not depend on that). The
    /// emission keeps an explicit stack, so a deep tree costs heap, not
    /// call stack.
    ///
    /// # Panics
    ///
    /// Panics if a split feature does not fit the node's 16-bit feature
    /// field. Decoded trees are checked for this on deserialization.
    pub fn compile(model: &Bagging) -> Self {
        let total: usize = model.trees().iter().map(Tree::num_nodes).sum();
        let mut out = Self {
            nodes: Vec::with_capacity(total),
            roots: Vec::with_capacity(model.num_trees()),
            num_features: model.trees().first().map_or(0, |t| t.num_features()),
            lockstep: false,
        };
        // (source node, depth, flat index of the parent whose right offset
        // points here — `None` for a root or a left child).
        let mut stack: Vec<(usize, usize, Option<usize>)> = Vec::new();
        for tree in model.trees() {
            let raw = tree.raw_nodes();
            out.roots.push(out.nodes.len() as u32);
            stack.push((0, 0, None));
            while let Some((at, depth, parent)) = stack.pop() {
                let me = out.nodes.len();
                if let Some(p) = parent {
                    out.nodes[p].hi = (me - p) as u32;
                }
                let node = raw[at];
                if node.is_leaf() {
                    out.lockstep |= depth >= LOCKSTEP_DEPTH;
                    out.nodes.push(Node {
                        thr: node.leaf_proba(),
                        feat: 0,
                        lo: 0,
                        hi: 0,
                    });
                    continue;
                }
                out.nodes.push(Node {
                    thr: node.threshold,
                    feat: u16::try_from(node.feature)
                        .expect("split feature fits the kernel's 16-bit field"),
                    lo: 1,
                    hi: 0, // patched when the right child is emitted
                });
                // Left is popped first, so it lands at `me + 1`.
                stack.push((node.right as usize, depth + 1, Some(me)));
                stack.push((node.left as usize, depth + 1, None));
            }
        }
        out
    }

    /// Number of member trees.
    pub fn num_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total nodes in the flat table.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Features the ensemble was trained on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Whether [`Self::proba_batch`] takes the tree-outer lockstep walk:
    /// true when some member tree is [`LOCKSTEP_DEPTH`] or deeper.
    pub fn walks_in_lockstep(&self) -> bool {
        self.lockstep
    }

    /// Ensemble probability for one row — bit-identical to
    /// [`Bagging::proba`] on the source model.
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer features than the ensemble was trained on.
    pub fn proba(&self, x: &[f64]) -> f64 {
        let mut sum = 0.0f64;
        for &root in &self.roots {
            sum += self.walk(root as usize, x);
        }
        sum / self.roots.len() as f64
    }

    /// Ensemble probabilities for a row-major batch: `rows` holds
    /// `out.len()` consecutive rows of `stride` values each (a row may use
    /// only its first [`Self::num_features`] columns; the rest is padding).
    ///
    /// Each output is bit-identical to [`Bagging::proba`] on that row: the
    /// member sum runs in tree order per row, exactly like the scalar path,
    /// whichever walk the ensemble's depth selects.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() < out.len() * stride` or if `stride` is
    /// smaller than the trained feature count.
    pub fn proba_batch(&self, rows: &[f64], stride: usize, out: &mut [f64]) {
        assert!(
            stride >= self.num_features,
            "row stride {stride} smaller than feature count {}",
            self.num_features
        );
        assert!(
            rows.len() >= out.len() * stride,
            "row buffer holds {} values, need {} rows x stride {stride}",
            rows.len(),
            out.len()
        );
        // Bit parity: both walks add each row's member probabilities in
        // tree order starting from 0.0, then divide by the same tree count
        // as [`Self::proba`]. Identical operands in identical order,
        // identical bits.
        let n_trees = self.roots.len() as f64;
        if self.lockstep {
            self.lockstep_batch(rows, stride, out);
            for slot in out.iter_mut() {
                *slot /= n_trees;
            }
            return;
        }
        // Row-outer over the shared flat table: all ten trees' nodes sit in
        // one contiguous allocation that stays hot in L1 across the whole
        // batch, and per-row state is just a table index. Shallow pruned
        // trees have well-predicted splits, so the plain branchy walk beats
        // lanes here (see [`LOCKSTEP_DEPTH`]).
        for (r, slot) in out.iter_mut().enumerate() {
            let x = &rows[r * stride..r * stride + stride];
            let mut sum = 0.0f64;
            for &root in &self.roots {
                sum += self.walk(root as usize, x);
            }
            *slot = sum / n_trees;
        }
    }

    /// Tree-outer walk over the batch: leaves `out[r]` holding the tree-order
    /// sum of row `r`'s member probabilities. Full groups of [`LANES`] rows
    /// step in lockstep; the rows past the last full group take the scalar
    /// walk.
    fn lockstep_batch(&self, rows: &[f64], stride: usize, out: &mut [f64]) {
        out.fill(0.0);
        let full = out.len() - out.len() % LANES;
        for &root in &self.roots {
            let root = root as usize;
            for g in (0..full).step_by(LANES) {
                let xs: [&[f64]; LANES] = std::array::from_fn(|l| {
                    let r = g + l;
                    &rows[r * stride..r * stride + stride]
                });
                let mut at = [root; LANES];
                loop {
                    let mut moved = 0usize;
                    for l in 0..LANES {
                        let n = self.nodes[at[l]];
                        let step = if xs[l][n.feat as usize] <= n.thr {
                            n.lo as usize
                        } else {
                            n.hi as usize
                        };
                        at[l] += step;
                        moved |= step;
                    }
                    if moved == 0 {
                        break;
                    }
                }
                for l in 0..LANES {
                    out[g + l] += self.nodes[at[l]].thr;
                }
            }
            for (r, slot) in out.iter_mut().enumerate().skip(full) {
                *slot += self.walk(root, &rows[r * stride..r * stride + stride]);
            }
        }
    }

    /// Descends from `at` to a leaf and returns its baked-in probability.
    #[inline]
    fn walk(&self, mut at: usize, x: &[f64]) -> f64 {
        loop {
            let n = self.nodes[at];
            if n.hi == 0 {
                return n.thr;
            }
            at += if x[n.feat as usize] <= n.thr {
                1
            } else {
                n.hi as usize
            };
        }
    }
}

impl Bagging {
    /// Lowers this ensemble into a [`CompiledEnsemble`] — the batched
    /// inference kernel used by the attack's scoring hot loop.
    pub fn compile(&self) -> CompiledEnsemble {
        CompiledEnsemble::compile(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::learners::{RandomTreeLearner, RepTreeLearner};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn noisy(n: usize, m: usize, seed: u64) -> Dataset {
        let mut ds = Dataset::new(m);
        let mut r = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..n {
            let row: Vec<f64> = (0..m).map(|_| r.gen_range(0.0..1.0)).collect();
            let label = if r.gen_bool(0.15) {
                row[0] <= 0.5
            } else {
                row[0] > 0.5
            };
            ds.push(&row, label).expect("push");
        }
        ds
    }

    #[test]
    fn compiled_matches_reference_bit_for_bit() {
        let ds = noisy(400, 3, 11);
        let mut r = ChaCha8Rng::seed_from_u64(5);
        for n_trees in [1usize, 7, 10] {
            let model = Bagging::fit(&ds, &RepTreeLearner::default(), n_trees, 3).expect("fit");
            let compiled = model.compile();
            for _ in 0..200 {
                let x: Vec<f64> = (0..3).map(|_| r.gen_range(-0.5..1.5)).collect();
                assert_eq!(
                    compiled.proba(&x).to_bits(),
                    model.proba(&x).to_bits(),
                    "{n_trees} trees, x = {x:?}"
                );
            }
        }
    }

    #[test]
    fn batch_matches_scalar_with_padding_stride() {
        let ds = noisy(300, 2, 23);
        let model = Bagging::fit(&ds, &RandomTreeLearner::default(), 6, 9).expect("fit");
        let compiled = model.compile();
        let mut r = ChaCha8Rng::seed_from_u64(31);
        for stride in [2usize, 5] {
            let k = 37;
            let mut rows = vec![0.0f64; k * stride];
            for row in rows.chunks_mut(stride) {
                for v in row.iter_mut() {
                    *v = r.gen_range(0.0..1.0);
                }
            }
            let mut probs = vec![0.0f64; k];
            compiled.proba_batch(&rows, stride, &mut probs);
            for (i, p) in probs.iter().enumerate() {
                let x = &rows[i * stride..i * stride + stride];
                assert_eq!(p.to_bits(), model.proba(x).to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn node_table_is_one_contiguous_preorder() {
        let ds = noisy(500, 2, 7);
        let model = Bagging::fit(&ds, &RepTreeLearner::default(), 5, 1).expect("fit");
        let compiled = model.compile();
        assert_eq!(compiled.num_trees(), 5);
        assert_eq!(compiled.num_nodes(), model.total_nodes());
        // Every internal node's right child stays inside its own tree.
        let mut bounds = compiled.roots.clone();
        bounds.push(compiled.num_nodes() as u32);
        for t in 0..compiled.num_trees() {
            let (lo, hi) = (bounds[t] as usize, bounds[t + 1] as usize);
            for at in lo..hi {
                let n = compiled.nodes[at];
                if n.hi != 0 {
                    assert_eq!(n.lo, 1, "node {at}: left child is the next entry");
                    let right = at + n.hi as usize;
                    assert!(right > at + 1 && right < hi, "node {at}: right {right}");
                } else {
                    assert_eq!((n.lo, n.feat), (0, 0), "leaf {at} is absorbing");
                    assert!((0.0..=1.0).contains(&n.thr));
                }
            }
        }
    }

    #[test]
    fn decoded_deep_chain_compiles_and_walks_without_recursion() {
        // A valid 20,000-deep chain: split k sends x > k right, to the next
        // split, and x <= k left, to a leaf. A recursive lowering or depth
        // scan would need megabytes of stack; this thread has 256 KiB.
        const DEPTH: usize = 20_000;
        let mut nodes = Vec::with_capacity(2 * DEPTH + 1);
        for k in 0..DEPTH {
            nodes.push(format!(
                "{{\"feature\":0,\"threshold\":{k}.0,\"left\":{},\"right\":{},\"pos\":0,\"neg\":0}}",
                2 * k + 1,
                2 * k + 2
            ));
            nodes.push(format!(
                "{{\"feature\":-1,\"threshold\":0.0,\"left\":0,\"right\":0,\"pos\":{},\"neg\":1}}",
                k % 3
            ));
        }
        nodes.push(
            "{\"feature\":-1,\"threshold\":0.0,\"left\":0,\"right\":0,\"pos\":1,\"neg\":0}".into(),
        );
        let tree = format!("{{\"nodes\":[{}],\"num_features\":1}}", nodes.join(","));
        let json = format!("{{\"trees\":[{tree},{tree}]}}");
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                let model: Bagging = serde_json::from_str(&json).expect("valid chain decodes");
                assert_eq!(model.trees()[0].depth(), DEPTH);
                let compiled = model.compile();
                assert!(compiled.walks_in_lockstep());
                let rows: Vec<f64> = (0..2 * LANES + 3).map(|r| (r * 4_000) as f64).collect();
                let mut out = vec![0.0; rows.len()];
                compiled.proba_batch(&rows, 1, &mut out);
                for (x, p) in rows.iter().zip(&out) {
                    let x = [*x];
                    assert_eq!(p.to_bits(), model.proba(&x).to_bits(), "x = {x:?}");
                    assert_eq!(p.to_bits(), compiled.proba(&x).to_bits(), "x = {x:?}");
                }
            })
            .expect("spawn")
            .join()
            .expect("deep chain handled on a small stack");
    }

    #[test]
    fn decode_rejects_members_with_different_feature_counts() {
        let tree = |m: usize| {
            format!(
                "{{\"nodes\":[{{\"feature\":-1,\"threshold\":0.0,\"left\":0,\"right\":0,\"pos\":1,\"neg\":1}}],\"num_features\":{m}}}"
            )
        };
        let ok = format!("{{\"trees\":[{},{}]}}", tree(3), tree(3));
        assert!(serde_json::from_str::<Bagging>(&ok).is_ok());
        let mixed = format!("{{\"trees\":[{},{}]}}", tree(3), tree(9));
        assert!(serde_json::from_str::<Bagging>(&mixed).is_err());
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn batch_rejects_short_stride() {
        let ds = noisy(100, 3, 2);
        let model = Bagging::fit(&ds, &RepTreeLearner::default(), 2, 0).expect("fit");
        let mut out = [0.0];
        model.compile().proba_batch(&[0.0, 0.0], 2, &mut out);
    }
}
