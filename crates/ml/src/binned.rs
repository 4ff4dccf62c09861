//! Pre-binned datasets for the histogram training kernel.
//!
//! [`Tree::fit`](crate::tree::Tree::fit) encodes the feature values of the
//! rows a tree grows on into `u16` bin codes once per tree, after which
//! node split-finding never touches raw `f64` features again: per-node work
//! is a direct-indexed `(pos, neg)` count accumulation instead of a binary
//! search per sample per feature. Codes are laid out column-major (one
//! contiguous `u16` column per feature) so the accumulation loop streams
//! each column linearly.
//!
//! Bin code `c` for feature `j` is `ts.partition_point(|t| *t < v)` over
//! that feature's candidate thresholds `ts` — the *same* expression the
//! per-node scan of [`crate::oracle::fit_tree`] evaluates — so for strictly
//! increasing `ts`, `code <= k` holds iff `v <= ts[k]`. That makes the histogram scan's split counts, and
//! therefore the grown tree, bit-identical to the oracle.
//!
//! Both the thresholds and the codes come from walking each column in the
//! order [`FitData`] sorted it once per ensemble, skipping the rows the tree
//! does not hold: no per-tree sort and no per-row binary search.
//!
//! Histogram buffers come from a [`HistPool`] so a tree fit allocates
//! `O(depth)` buffers total rather than one per node, and each larger
//! sibling's histogram is derived by parent-minus-smaller-child subtraction
//! (exact on `u32` counts) instead of a second pass over the samples.

use crate::error::TrainError;
use crate::tree::FitData;

/// A dataset's feature values quantized to per-feature `u16` bin codes.
///
/// Built once per tree fit from the tree's own quantile thresholds. Columns
/// span every row of the backing dataset (nodes index into them by sample
/// id), but only the rows the tree holds are encoded; the rest stay 0 and
/// are never read. The per-feature histogram regions are packed into one
/// flat layout: feature `j` owns `bins(j) = thresholds[j].len() + 1` bins,
/// each bin two `u32` slots (`pos`, `neg`), starting at `2 * offsets[j]`.
#[derive(Debug)]
pub(crate) struct BinnedDataset {
    thresholds: Vec<Vec<f64>>,
    /// Column-major codes: feature `j`, row `i` at `codes[j * n_rows + i]`.
    codes: Vec<u16>,
    /// Per-feature bin offsets (in bins, not slots); `offsets[m]` = total.
    offsets: Vec<usize>,
    /// Per feature: whether `code <= k` decides `v <= thresholds[k]` for
    /// every held row (see [`BinnedDataset::code_column`]).
    code_decides: Vec<bool>,
    n_rows: usize,
}

impl BinnedDataset {
    /// Bins the rows of `idx` (repeats allowed) for one tree: each feature's
    /// thresholds are [`quantile_midpoints`] of the values those rows hold,
    /// and only those rows are encoded.
    ///
    /// # Errors
    ///
    /// [`TrainError::TooManyThresholds`] if a feature has more thresholds
    /// than a `u16` code can address.
    pub(crate) fn build(fit: &FitData<'_>, idx: &[u32], bins: usize) -> Result<Self, TrainError> {
        let data = fit.data();
        let (n, m) = (data.len(), data.num_features());
        let mut copies = vec![0u32; n];
        for &i in idx {
            copies[i as usize] += 1;
        }
        let held: Vec<u32> = (0..n as u32).filter(|&i| copies[i as usize] > 0).collect();
        let mut thresholds = Vec::with_capacity(m);
        let mut code_decides = Vec::with_capacity(m);
        let mut codes = vec![0u16; m * n];
        // Per feature: the tree's values sorted by `total_cmp` and then
        // `dedup`ed, exactly as a sort of its own values would give, and
        // each held row's index into them.
        let mut vals: Vec<f64> = Vec::with_capacity(idx.len().max(n));
        let mut rank = vec![0u32; n];
        let mut code_of_rank: Vec<u16> = Vec::with_capacity(idx.len());
        for j in 0..m {
            // Equal values are adjacent in the sorted column, `==` merges
            // them (and -0.0 with 0.0, keeping the first), and a NaN equals
            // nothing, so every copy of a NaN row stays.
            vals.clear();
            let (rows, values) = fit.sorted_column(j);
            let mut held_nan = false;
            // `total_cmp` sorts NaNs to the ends of a column.
            if values.first().is_some_and(|v| v.is_nan())
                || values.last().is_some_and(|v| v.is_nan())
            {
                for (&i, &v) in rows.iter().zip(values) {
                    let c = copies[i as usize];
                    if c == 0 {
                        continue;
                    }
                    if v.is_nan() {
                        held_nan = true;
                        vals.extend(std::iter::repeat_n(v, c as usize));
                    } else if vals.last() != Some(&v) {
                        vals.push(v);
                    }
                    rank[i as usize] = (vals.len() - 1) as u32;
                }
            } else {
                // The same walk without a branch per row (it took this
                // build from 30 to 21 ms per 10-tree layer-6 fit): every
                // value is written past the kept ones and kept only when
                // the tree holds its row and it differs from the last kept
                // value (the NaN start differs from all). A row the tree
                // does not hold gets a rank that is never read.
                vals.resize(n, 0.0);
                let mut len = 0usize;
                let mut last = f64::NAN;
                for (&i, &v) in rows.iter().zip(values) {
                    let keep = (copies[i as usize] != 0) & (v != last);
                    vals[len] = v;
                    len += usize::from(keep);
                    last = if keep { v } else { last };
                    rank[i as usize] = (len as u32).wrapping_sub(1);
                }
                vals.truncate(len);
            }
            let ts = quantile_midpoints(&vals, bins);
            if ts.len() > usize::from(u16::MAX) {
                return Err(TrainError::TooManyThresholds {
                    feature: j,
                    thresholds: ts.len(),
                });
            }
            // Without NaN the thresholds never decrease (midpoints of
            // sorted values, each rounding monotone), so along the sorted
            // values `partition_point` is a cursor that only moves forward.
            let monotone = !ts.iter().any(|t| t.is_nan());
            code_decides.push(monotone && !held_nan);
            if !ts.is_empty() {
                // A NaN value's code is 0: no threshold is `<` it.
                let mut k = 0usize;
                code_of_rank.clear();
                code_of_rank.extend(vals.iter().map(|&v| {
                    if monotone && !v.is_nan() {
                        while k < ts.len() && ts[k] < v {
                            k += 1;
                        }
                        k as u16
                    } else {
                        ts.partition_point(|t| *t < v) as u16
                    }
                }));
                let col = &mut codes[j * n..(j + 1) * n];
                for &i in &held {
                    col[i as usize] = code_of_rank[rank[i as usize] as usize];
                }
            }
            thresholds.push(ts);
        }
        let mut offsets = Vec::with_capacity(m + 1);
        let mut total = 0usize;
        for ts in &thresholds {
            offsets.push(total);
            total += ts.len() + 1;
        }
        offsets.push(total);
        Ok(BinnedDataset {
            thresholds,
            codes,
            offsets,
            code_decides,
            n_rows: n,
        })
    }

    /// Feature `j`'s codes when they decide its splits: for every row the
    /// tree holds, `code <= k` exactly when `v <= thresholds(j)[k]`.
    ///
    /// That holds when neither the held values nor the thresholds hold a
    /// NaN. The thresholds then never decrease, so the ones `< v` are a
    /// prefix of length `code`, and `thresholds[k] < v` exactly when
    /// `k < code`. A NaN value has code 0 but goes right of every
    /// threshold, and a NaN threshold (the midpoint of `-∞` and `+∞`)
    /// breaks the prefix; such a feature gets `None`, and the grower
    /// partitions by the raw values.
    pub(crate) fn code_column(&self, j: usize) -> Option<&[u16]> {
        self.code_decides[j].then(|| &self.codes[j * self.n_rows..(j + 1) * self.n_rows])
    }

    /// Candidate thresholds for feature `j`.
    pub(crate) fn thresholds(&self, j: usize) -> &[f64] {
        &self.thresholds[j]
    }

    /// Every feature's candidate thresholds.
    #[cfg(test)]
    pub(crate) fn thresholds_by_feature(self) -> Vec<Vec<f64>> {
        self.thresholds
    }

    /// Length in `u32` slots of a full flat histogram.
    pub(crate) fn hist_len(&self) -> usize {
        2 * self.offsets[self.offsets.len() - 1]
    }

    /// Feature `j`'s region of a flat histogram: `2 * bins(j)` slots,
    /// `(pos, neg)` interleaved per bin.
    pub(crate) fn feature_hist<'h>(&self, j: usize, hist: &'h [u32]) -> &'h [u32] {
        &hist[2 * self.offsets[j]..2 * self.offsets[j + 1]]
    }

    /// Accumulates the `(pos, neg)` counts of the rows in `idx` into every
    /// feature's region of `hist`. Features without thresholds are skipped —
    /// the oracle's scan never histograms them either.
    pub(crate) fn accumulate(&self, labels: &[bool], idx: &[u32], hist: &mut [u32]) {
        for j in 0..self.thresholds.len() {
            if self.thresholds[j].is_empty() {
                continue;
            }
            self.accumulate_feature(j, labels, idx, hist);
        }
    }

    /// Accumulates one feature's counts (used by the random-subset path).
    pub(crate) fn accumulate_feature(
        &self,
        j: usize,
        labels: &[bool],
        idx: &[u32],
        hist: &mut [u32],
    ) {
        let col = &self.codes[j * self.n_rows..(j + 1) * self.n_rows];
        let region = &mut hist[2 * self.offsets[j]..2 * self.offsets[j + 1]];
        for &i in idx {
            let i = i as usize;
            region[2 * usize::from(col[i]) + usize::from(!labels[i])] += 1;
        }
    }

    /// Zeroes one feature's region of `hist` (cheaper than a full clear when
    /// only a few candidate features were touched).
    pub(crate) fn zero_feature(&self, j: usize, hist: &mut [u32]) {
        hist[2 * self.offsets[j]..2 * self.offsets[j + 1]].fill(0);
    }

    /// Zeroes exactly the slots the rows in `idx` can have touched: a
    /// histogram accumulated from (or subtracted down to) a node's sample
    /// set is nonzero only in those slots, so this restores the all-zero
    /// state in `O(|idx| * m)` instead of `O(hist_len)` — the win that
    /// makes recycling cheap for small, deep nodes.
    pub(crate) fn zero_samples(&self, idx: &[u32], hist: &mut [u32]) {
        for j in 0..self.thresholds.len() {
            if self.thresholds[j].is_empty() {
                continue;
            }
            let col = &self.codes[j * self.n_rows..(j + 1) * self.n_rows];
            let region = &mut hist[2 * self.offsets[j]..2 * self.offsets[j + 1]];
            for &i in idx {
                let slot = 2 * usize::from(col[i as usize]);
                region[slot] = 0;
                region[slot + 1] = 0;
            }
        }
    }

    /// Number of features (threshold columns).
    pub(crate) fn num_features(&self) -> usize {
        self.thresholds.len()
    }

    /// Words of an occupied-bin bitmap large enough for any feature.
    pub(crate) fn bitmap_words(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]).div_ceil(64))
            .max()
            .unwrap_or(0)
    }

    /// Sets bit `c` of `occupied` for the code `c` of every row in `idx` at
    /// feature `j`, and returns the words that cover the feature's bins.
    /// `occupied` must be all zero, and at least [`Self::bitmap_words`] long.
    pub(crate) fn mark_bins<'o>(
        &self,
        j: usize,
        idx: &[u32],
        occupied: &'o mut [u64],
    ) -> &'o mut [u64] {
        let col = &self.codes[j * self.n_rows..(j + 1) * self.n_rows];
        for &i in idx {
            let c = usize::from(col[i as usize]);
            occupied[c / 64] |= 1 << (c % 64);
        }
        let bins = self.offsets[j + 1] - self.offsets[j];
        &mut occupied[..bins.div_ceil(64)]
    }
}

/// Candidate thresholds of one feature from its sorted, deduplicated values:
/// midpoints between adjacent values, or between adjacent quantile values
/// once there are more than `bins` of them.
pub(crate) fn quantile_midpoints(vals: &[f64], bins: usize) -> Vec<f64> {
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
    ts
}

/// Recycles flat histogram buffers across the nodes of a tree fit.
///
/// Invariant: every buffer in the free list is all-zero, so `acquire`
/// never clears.
pub(crate) struct HistPool {
    len: usize,
    free: Vec<Vec<u32>>,
}

impl HistPool {
    pub(crate) fn new(len: usize) -> Self {
        HistPool {
            len,
            free: Vec::new(),
        }
    }

    /// A zeroed buffer of `hist_len` slots.
    pub(crate) fn acquire(&mut self) -> Vec<u32> {
        self.free.pop().unwrap_or_else(|| vec![0; self.len])
    }

    /// Returns a buffer of unknown content; it is cleared here.
    pub(crate) fn release(&mut self, mut hist: Vec<u32>) {
        hist.fill(0);
        self.free.push(hist);
    }

    /// Returns a buffer the caller has already zeroed (e.g. by
    /// [`BinnedDataset::zero_feature`] over exactly the touched regions).
    pub(crate) fn release_zeroed(&mut self, hist: Vec<u32>) {
        debug_assert!(hist.iter().all(|&c| c == 0));
        self.free.push(hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::tree::{Tree, TreeParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_dataset() -> Dataset {
        let mut ds = Dataset::new(2);
        for (i, &(a, b)) in [(0.0, 5.0), (1.0, 5.0), (2.0, 5.0), (3.0, 5.0)]
            .iter()
            .enumerate()
        {
            ds.push(&[a, b], i % 2 == 0).expect("2 features");
        }
        ds
    }

    #[test]
    fn codes_match_partition_point_binning() {
        let ds = tiny_dataset();
        let binned =
            BinnedDataset::build(&FitData::new(&ds), &ds.all_indices(), 256).expect("fits in u16");
        let thresholds = vec![vec![0.5, 1.5, 2.5], vec![]];
        assert_eq!(binned.thresholds, thresholds);
        for i in 0..ds.len() {
            for (j, ts) in thresholds.iter().enumerate() {
                let v = ds.feature(i, j);
                let expect = ts.partition_point(|t| *t < v) as u16;
                assert_eq!(
                    binned.codes[j * ds.len() + i],
                    expect,
                    "row {i} feature {j}"
                );
            }
        }
        // Constant column: no thresholds, one bin, all-zero codes.
        assert_eq!(binned.hist_len(), 2 * (4 + 1));
    }

    #[test]
    fn accumulate_and_subtract_are_exact() {
        let ds = tiny_dataset();
        let binned =
            BinnedDataset::build(&FitData::new(&ds), &ds.all_indices(), 256).expect("fits in u16");
        let mut pool = HistPool::new(binned.hist_len());
        let mut parent = pool.acquire();
        binned.accumulate(ds.labels(), &[0, 1, 2, 3], &mut parent);
        let f0 = binned.feature_hist(0, &parent);
        // One sample per bin; labels alternate pos/neg.
        assert_eq!(f0, &[1, 0, 0, 1, 1, 0, 0, 1]);

        let mut left = pool.acquire();
        binned.accumulate(ds.labels(), &[0, 1], &mut left);
        let mut derived_right = parent;
        crate::tree::subtract_hist(&mut derived_right, &left);
        let mut right = pool.acquire();
        binned.accumulate(ds.labels(), &[2, 3], &mut right);
        assert_eq!(derived_right, right);
        pool.release(left);
        pool.release(right);
        pool.release(derived_right);
        assert_eq!(pool.acquire(), vec![0u32; binned.hist_len()]);
    }

    #[test]
    fn encode_rejects_thresholds_beyond_u16() {
        // 65,537 distinct values give 65,536 midpoints, one more than a
        // `u16` code can address past its last bin; 65,536 values fit.
        let column = |values: usize| {
            let mut ds = Dataset::new(2);
            for k in 0..values {
                ds.push(&[5.0, k as f64], k < values / 2)
                    .expect("2 features");
            }
            ds
        };
        let at_cap = column(usize::from(u16::MAX) + 1);
        let binned =
            BinnedDataset::build(&FitData::new(&at_cap), &at_cap.all_indices(), usize::MAX)
                .expect("65,535 thresholds fit");
        assert_eq!(binned.thresholds(1).len(), usize::from(u16::MAX));
        let past = column(usize::from(u16::MAX) + 2);
        let err = BinnedDataset::build(&FitData::new(&past), &past.all_indices(), usize::MAX)
            .expect_err("must reject");
        let expected = TrainError::TooManyThresholds {
            feature: 1,
            thresholds: usize::from(u16::MAX) + 1,
        };
        assert_eq!(err, expected);
        // `Tree::fit` returns the same error.
        let params = TreeParams {
            bins: usize::MAX,
            ..TreeParams::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let fit = Tree::fit(&past, &past.all_indices(), params, &mut rng);
        assert_eq!(fit, Err(expected));
    }
}
