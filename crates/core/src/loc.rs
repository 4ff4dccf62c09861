//! List-of-Candidates (LoC) analysis: threshold sweeps, trade-off curves,
//! and the aligned comparisons used by the paper's tables (Section III-F).
//!
//! The scoring stage records every candidate probability once, so the LoC
//! at *any* threshold — and therefore the full LoC-size/accuracy trade-off
//! — is derived here without re-running inference. Tables I–III compare
//! models by fixing one metric at a reference value and reading the other
//! off this curve.

use serde::{Deserialize, Serialize};

use crate::attack::{bin_threshold, first_bin, ScoredView, HIST_BINS};

/// One point of the LoC/accuracy trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Probability threshold.
    pub threshold: f64,
    /// Fraction of v-pins whose true match is in their LoC.
    pub accuracy: f64,
    /// Mean LoC size (candidates per v-pin).
    pub mean_loc: f64,
    /// Mean LoC size divided by the view's v-pin count.
    pub loc_fraction: f64,
}

/// The full trade-off curve of one or several scored views.
///
/// Accuracy and mean LoC are both non-increasing in the threshold, so the
/// curve is swept once from the histogram and queried monotonically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocCurve {
    points: Vec<CurvePoint>,
}

impl ScoredView {
    /// Accuracy at threshold `t`: the fraction of scored v-pins whose true
    /// match was evaluated and received a probability at or above `t`.
    ///
    /// `t` is snapped up to the next histogram bin edge — the same
    /// convention [`ScoredView::mean_loc_at`] uses — so a candidate counts
    /// toward the LoC exactly when an identical true-match probability
    /// counts toward accuracy.
    pub fn accuracy_at(&self, t: f64) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        let t_eff = bin_threshold(first_bin(t));
        let hits = self
            .slots
            .iter()
            .filter(|s| s.true_prob.is_some_and(|p| p >= t_eff))
            .count();
        hits as f64 / self.slots.len() as f64
    }

    /// Mean LoC size at threshold `t` (candidates with `p >= t`, averaged
    /// over scored v-pins). Uses the same snapped-up bin-edge convention as
    /// [`ScoredView::accuracy_at`].
    pub fn mean_loc_at(&self, t: f64) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        let count: u64 = self.hist[first_bin(t)..].iter().sum();
        count as f64 / self.slots.len() as f64
    }

    /// The highest achievable accuracy (threshold 0): limited by pairs the
    /// configuration excluded outright — the saturation plateau of Fig. 9.
    pub fn max_accuracy(&self) -> f64 {
        self.accuracy_at(0.0)
    }

    /// Builds the trade-off curve of this single view.
    pub fn curve(&self) -> LocCurve {
        LocCurve::from_views(std::slice::from_ref(self))
    }
}

impl LocCurve {
    /// Builds the averaged trade-off curve of several scored views (the
    /// paper's figures average accuracy and LoC fraction over the five
    /// benchmarks at a common threshold). Per-bin sums accumulate in view
    /// order, one view at a time, so the curve needs no copy of the views.
    ///
    /// # Panics
    ///
    /// Panics if `views` is empty.
    pub fn from_views<'a>(views: impl IntoIterator<Item = &'a ScoredView>) -> Self {
        let mut num_views = 0usize;
        let mut acc = vec![0.0; HIST_BINS];
        let mut mean_loc = vec![0.0; HIST_BINS];
        let mut loc_fraction = vec![0.0; HIST_BINS];
        for view in views {
            // Pre-sort the view's true probabilities for O(log) accuracy
            // queries per bin.
            let mut truths: Vec<f64> = view.slots.iter().filter_map(|s| s.true_prob).collect();
            truths.sort_by(f64::total_cmp);
            let n_slots = view.slots.len().max(1) as f64;
            // Cumulative candidate count from the top bin down.
            let mut suffix = 0u64;
            for k in (0..HIST_BINS).rev() {
                let t = bin_threshold(k);
                suffix += view.hist[k];
                // Count truths with p >= t. The histogram bins candidates
                // by floor, so comparing against bin k's lower edge counts
                // exactly the probabilities the suffix sum counts.
                let hits = truths.len() - truths.partition_point(|p| *p < t);
                acc[k] += hits as f64 / view.slots.len().max(1) as f64;
                let ml = suffix as f64 / n_slots;
                mean_loc[k] += ml;
                loc_fraction[k] += ml / view.num_view_vpins.max(1) as f64;
            }
            num_views += 1;
        }
        assert!(num_views > 0, "need at least one scored view");
        let nv = num_views as f64;
        let points = (0..HIST_BINS)
            .map(|k| CurvePoint {
                threshold: bin_threshold(k),
                accuracy: acc[k] / nv,
                mean_loc: mean_loc[k] / nv,
                loc_fraction: loc_fraction[k] / nv,
            })
            .collect();
        LocCurve { points }
    }

    /// The curve points in ascending-threshold order.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// Smallest mean LoC achieving at least `target` accuracy, or `None`
    /// if the accuracy saturates below the target. Returns the full curve
    /// point (Table I's "|LoC| with the same accuracy" columns).
    pub fn min_loc_at_accuracy(&self, target: f64) -> Option<CurvePoint> {
        // Accuracy is non-increasing in threshold: take the largest
        // threshold still meeting the target.
        self.points
            .iter()
            .rev()
            .find(|p| p.accuracy >= target)
            .copied()
    }

    /// Highest accuracy achievable with mean LoC at most `target` (Table
    /// I's "accuracy with the same |LoC|" columns). Returns the curve point
    /// at the smallest qualifying threshold.
    pub fn max_accuracy_at_loc(&self, target: f64) -> Option<CurvePoint> {
        // Mean LoC is non-increasing in threshold: the smallest threshold
        // with mean_loc <= target maximises accuracy.
        self.points.iter().find(|p| p.mean_loc <= target).copied()
    }

    /// Smallest LoC *fraction* achieving at least `target` accuracy
    /// (Table IV's left block).
    pub fn min_loc_fraction_at_accuracy(&self, target: f64) -> Option<f64> {
        self.min_loc_at_accuracy(target).map(|p| p.loc_fraction)
    }

    /// Accuracy at the given LoC fraction (Table IV's right block).
    pub fn accuracy_at_loc_fraction(&self, fraction: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.loc_fraction <= fraction)
            .map(|p| p.accuracy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{hist_bin, VpinScore};

    /// Builds a synthetic scored view: `n` slots with known truth
    /// probabilities and a candidate histogram.
    fn synthetic(truths: &[Option<f64>], cand_probs: &[f64], n_view: usize) -> ScoredView {
        let slots: Vec<VpinScore> = truths
            .iter()
            .enumerate()
            .map(|(i, t)| VpinScore {
                vpin: i as u32,
                true_prob: *t,
                top: Vec::new(),
            })
            .collect();
        let mut hist = vec![0u64; HIST_BINS];
        for &p in cand_probs {
            hist[hist_bin(p)] += 1;
        }
        ScoredView {
            slots,
            hist,
            num_view_vpins: n_view,
            pairs_scored: cand_probs.len() as u64,
        }
    }

    #[test]
    fn accuracy_counts_only_scored_truths() {
        let v = synthetic(&[Some(0.9), Some(0.4), None], &[0.9, 0.4], 3);
        assert!((v.accuracy_at(0.5) - 1.0 / 3.0).abs() < 1e-12);
        assert!((v.accuracy_at(0.0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((v.max_accuracy() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_loc_shrinks_with_threshold() {
        let v = synthetic(
            &[Some(0.9), Some(0.8)],
            &[0.9, 0.8, 0.7, 0.6, 0.5, 0.1, 0.1, 0.1],
            2,
        );
        assert!((v.mean_loc_at(0.0) - 4.0).abs() < 1e-12);
        assert!((v.mean_loc_at(0.55) - 2.0).abs() < 1e-9);
        assert!(v.mean_loc_at(0.95) < v.mean_loc_at(0.05));
    }

    #[test]
    fn accuracy_and_loc_share_the_bin_edge_convention() {
        // Regression for a threshold/binning mismatch: accuracy_at used an
        // exact `p >= t` filter while mean_loc_at rounded `t` to the
        // nearest bin, so a candidate up to half a bin *below* t was
        // counted in the LoC but its identical true-match probability was
        // not counted as accurate. Pin a probability exactly between two
        // bin centers and sweep thresholds around it: the two metrics must
        // always agree on whether it counts.
        let p0 = (1023.5) / HIST_BINS as f64; // midway inside bin 1023
        let v = synthetic(&[Some(p0)], &[p0], 1);
        let half_bin = 0.5 / HIST_BINS as f64;
        for t in [0.0, p0 - half_bin, p0, p0 + half_bin, p0 + 3.0 * half_bin] {
            let acc = v.accuracy_at(t);
            let loc = v.mean_loc_at(t);
            assert_eq!(
                acc, loc,
                "metrics disagree at t={t}: accuracy {acc} vs mean LoC {loc}"
            );
        }
        // And the snapping is upward: a threshold just above the bin's
        // lower edge excludes the bin entirely in both metrics.
        let above_edge = 1023.25 / HIST_BINS as f64;
        assert_eq!(v.accuracy_at(above_edge), 0.0);
        assert_eq!(v.mean_loc_at(above_edge), 0.0);
    }

    #[test]
    fn curve_is_monotone() {
        let v = synthetic(
            &[Some(0.95), Some(0.6), Some(0.3), None],
            &[0.95, 0.9, 0.6, 0.55, 0.3, 0.2, 0.2, 0.1, 0.05],
            4,
        );
        let c = v.curve();
        for w in c.points().windows(2) {
            assert!(
                w[0].accuracy >= w[1].accuracy,
                "accuracy must not rise with threshold"
            );
            assert!(
                w[0].mean_loc >= w[1].mean_loc,
                "LoC must not rise with threshold"
            );
        }
    }

    #[test]
    fn alignment_queries_agree_with_direct_evaluation() {
        let v = synthetic(
            &[Some(0.95), Some(0.6), Some(0.3), Some(0.9)],
            &[0.95, 0.9, 0.6, 0.55, 0.3, 0.2, 0.2, 0.1],
            4,
        );
        let c = v.curve();
        // 75% accuracy requires t <= 0.6; the minimal LoC there keeps the
        // candidates with p >= ~0.6.
        let pt = c.min_loc_at_accuracy(0.75).expect("achievable");
        assert!(pt.accuracy >= 0.75);
        assert!(pt.mean_loc <= v.mean_loc_at(0.55) + 1e-9);
        // Unachievable accuracy returns None.
        assert!(c.min_loc_at_accuracy(1.01).is_none());
        // Accuracy at a generous LoC is max accuracy.
        let pt = c.max_accuracy_at_loc(100.0).expect("achievable");
        assert!((pt.accuracy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn saturated_views_report_none_for_high_targets() {
        // Half the matches were excluded -> accuracy saturates at 0.5.
        let v = synthetic(&[Some(0.9), None], &[0.9, 0.5], 2);
        let c = v.curve();
        assert!(c.min_loc_at_accuracy(0.95).is_none());
        assert!(c.min_loc_at_accuracy(0.5).is_some());
    }

    #[test]
    fn averaged_curve_mixes_views() {
        let a = synthetic(&[Some(0.9)], &[0.9], 1);
        let b = synthetic(&[None], &[0.1], 1);
        let c = LocCurve::from_views(&[a, b]);
        let p0 = c.points().first().expect("non-empty");
        assert!((p0.accuracy - 0.5).abs() < 1e-12, "average of 1.0 and 0.0");
    }

    #[test]
    #[should_panic(expected = "at least one scored view")]
    fn empty_view_set_panics() {
        let _ = LocCurve::from_views(&[]);
    }

    #[test]
    fn loc_fraction_normalises_by_view_size() {
        let v = synthetic(&[Some(0.9), Some(0.9)], &[0.9, 0.9, 0.9, 0.9], 100);
        let c = v.curve();
        let p0 = c.points().first().expect("non-empty");
        assert!((p0.mean_loc - 2.0).abs() < 1e-12);
        assert!((p0.loc_fraction - 0.02).abs() < 1e-12);
    }
}
