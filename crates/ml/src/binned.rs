//! Pre-binned datasets for the histogram training kernel.
//!
//! [`Tree::fit`](crate::tree::Tree::fit) encodes every sample's feature
//! values into `u16` bin codes once per tree, after which node
//! split-finding never touches raw `f64` features again: per-node work is a
//! direct-indexed `(pos, neg)` count accumulation instead of a binary search
//! per sample per feature. Codes are laid out column-major (one contiguous
//! `u16` column per feature) so the accumulation loop streams each column
//! linearly.
//!
//! Bin code `c` for feature `j` is `ts.partition_point(|t| *t < v)` over
//! that feature's candidate thresholds `ts` — the *same* expression the
//! per-node scan of [`crate::oracle::fit_tree`] evaluates — so for the
//! strictly increasing `ts` produced by `quantile_thresholds`, `code <= k`
//! holds iff `v <= ts[k]`. That makes the histogram scan's split counts, and
//! therefore the grown tree, bit-identical to the oracle.
//!
//! Histogram buffers come from a [`HistPool`] so a tree fit allocates
//! `O(depth)` buffers total rather than one per node, and each larger
//! sibling's histogram is derived by parent-minus-smaller-child subtraction
//! (exact on `u32` counts) instead of a second pass over the samples.

use crate::data::Dataset;

/// A dataset's feature values quantized to per-feature `u16` bin codes.
///
/// Built once per tree fit from the tree's own quantile thresholds. All
/// rows of the backing dataset are encoded (nodes index into the columns by
/// sample id), and the per-feature histogram regions are packed into one
/// flat layout: feature `j` owns `bins(j) = thresholds[j].len() + 1` bins,
/// each bin two `u32` slots (`pos`, `neg`), starting at `2 * offsets[j]`.
#[derive(Debug)]
pub(crate) struct BinnedDataset {
    thresholds: Vec<Vec<f64>>,
    /// Column-major codes: feature `j`, row `i` at `codes[j * n_rows + i]`.
    codes: Vec<u16>,
    /// Per-feature bin offsets (in bins, not slots); `offsets[m]` = total.
    offsets: Vec<usize>,
    n_rows: usize,
}

impl BinnedDataset {
    /// Encodes every row of `data` against `thresholds`. Returns the
    /// thresholds back as the error value if any feature has more distinct
    /// thresholds than a `u16` code can address, so the caller can fall
    /// back to the oracle's scan.
    pub(crate) fn encode(data: &Dataset, thresholds: Vec<Vec<f64>>) -> Result<Self, Vec<Vec<f64>>> {
        if thresholds.iter().any(|ts| ts.len() > usize::from(u16::MAX)) {
            return Err(thresholds);
        }
        let n = data.len();
        let m = data.num_features();
        let mut offsets = Vec::with_capacity(m + 1);
        let mut total = 0usize;
        for ts in &thresholds {
            offsets.push(total);
            total += ts.len() + 1;
        }
        offsets.push(total);
        let mut codes = vec![0u16; m * n];
        for (j, ts) in thresholds.iter().enumerate() {
            if ts.is_empty() {
                continue; // all-zero codes; the column is never scanned
            }
            let col = &mut codes[j * n..(j + 1) * n];
            for (i, code) in col.iter_mut().enumerate() {
                let v = data.feature(i, j);
                *code = ts.partition_point(|t| *t < v) as u16;
            }
        }
        Ok(BinnedDataset {
            thresholds,
            codes,
            offsets,
            n_rows: n,
        })
    }

    /// Candidate thresholds for feature `j` (strictly increasing).
    pub(crate) fn thresholds(&self, j: usize) -> &[f64] {
        &self.thresholds[j]
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
        let thresholds = vec![vec![0.5, 1.5, 2.5], vec![]];
        let binned = BinnedDataset::encode(&ds, thresholds.clone()).expect("fits in u16");
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
            BinnedDataset::encode(&ds, vec![vec![0.5, 1.5, 2.5], vec![]]).expect("fits in u16");
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
        let ds = tiny_dataset();
        let too_many: Vec<f64> = (0..=usize::from(u16::MAX)).map(|k| k as f64).collect();
        let thresholds = vec![too_many.clone(), vec![]];
        let err = BinnedDataset::encode(&ds, thresholds).expect_err("must reject");
        assert_eq!(err[0], too_many);
    }
}
