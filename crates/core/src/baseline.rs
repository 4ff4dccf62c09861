//! The prior-work comparator \[5\] (Magaña et al., TVLSI 2017): a
//! linear-regression search-neighborhood proximity attack.
//!
//! Reimplemented from its description in the paper (Sections II-B, III-D):
//! a per-v-pin search radius is predicted with simple linear regression on
//! congestion/wirelength features, *all* v-pins inside the window form the
//! LoC, and the proximity attack picks the nearest. Two deliberate
//! infidelities to good methodology are preserved because the paper calls
//! them out as weaknesses of \[5\]: the regression is fit across **all**
//! designs (no train/test separation) and the model is linear.

use serde::{Deserialize, Serialize};
use sm_layout::SplitView;

use crate::neighborhood::VpinIndex;

/// Features of the radius regression: `[1, PC, RC, W]`.
const BASE_DIM: usize = 4;

/// The fitted prior-work model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriorWorkModel {
    beta: [f64; BASE_DIM],
}

/// Aggregate result of evaluating the prior-work attack on one view.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineResult {
    /// Mean LoC size (all v-pins inside the predicted window).
    pub mean_loc: f64,
    /// Fraction of v-pins whose true match fell inside the window.
    pub accuracy: f64,
    /// Mean LoC divided by the view's v-pin count.
    pub loc_fraction: f64,
    /// Proximity-attack success rate (nearest v-pin in window).
    pub pa_rate: f64,
}

impl PriorWorkModel {
    /// Fits the radius regression on every view — including, as in \[5\],
    /// the design that will later be attacked.
    ///
    /// # Panics
    ///
    /// Panics if the views contain no v-pins.
    pub fn fit(views: &[&SplitView]) -> Self {
        // Least squares: predict the true-match distance from [1, PC, RC, W].
        let mut xtx = [[0.0f64; BASE_DIM]; BASE_DIM];
        let mut xty = [0.0f64; BASE_DIM];
        let mut rows = 0usize;
        for v in views {
            for i in 0..v.num_vpins() {
                let m = v.true_match(i);
                let x = Self::regressors(v, i);
                let y = v.distance(i, m) as f64;
                for a in 0..BASE_DIM {
                    for b in 0..BASE_DIM {
                        xtx[a][b] += x[a] * x[b];
                    }
                    xty[a] += x[a] * y;
                }
                rows += 1;
            }
        }
        assert!(rows > 0, "cannot fit the prior-work model without v-pins");
        // Ridge epsilon for numerical safety.
        for (a, row) in xtx.iter_mut().enumerate() {
            row[a] += 1e-9;
        }
        let beta = solve4(xtx, xty);
        Self { beta }
    }

    fn regressors(view: &SplitView, i: usize) -> [f64; BASE_DIM] {
        let vp = &view.vpins()[i];
        [1.0, vp.pc, vp.rc, vp.wirelength as f64]
    }

    /// Predicted search radius for v-pin `i` of `view`, scaled by `margin`.
    pub fn radius(&self, view: &SplitView, i: usize, margin: f64) -> i64 {
        let x = Self::regressors(view, i);
        let pred: f64 = self.beta.iter().zip(&x).map(|(b, v)| b * v).sum();
        ((pred * margin).max(1.0)) as i64
    }

    /// Evaluates LoC statistics and the proximity attack at the given
    /// window `margin` (1.0 = the regression's own prediction; sweeping it
    /// traces the prior work's trade-off curve in Fig. 9).
    pub fn evaluate(&self, view: &SplitView, margin: f64) -> BaselineResult {
        let n = view.num_vpins();
        if n == 0 {
            return BaselineResult {
                mean_loc: 0.0,
                accuracy: 0.0,
                loc_fraction: 0.0,
                pa_rate: 0.0,
            };
        }
        let index = VpinIndex::new(view, 10_000);
        let mut cands: Vec<u32> = Vec::new();
        let mut total_loc = 0u64;
        let mut hits = 0usize;
        let mut pa_hits = 0usize;
        for i in 0..n {
            let r = self.radius(view, i, margin);
            index.partners_within_radius(view, i, r, &mut cands);
            total_loc += cands.len() as u64;
            let m = view.true_match(i);
            if cands.iter().any(|&j| j as usize == m) {
                hits += 1;
            }
            // PA: nearest candidate in the window (first by distance,
            // deterministic tie-break by index).
            if let Some(&nearest) = cands
                .iter()
                .min_by_key(|&&j| (view.distance(i, j as usize), j))
            {
                if nearest as usize == m {
                    pa_hits += 1;
                }
            }
        }
        let mean_loc = total_loc as f64 / n as f64;
        BaselineResult {
            mean_loc,
            accuracy: hits as f64 / n as f64,
            loc_fraction: mean_loc / n as f64,
            pa_rate: pa_hits as f64 / n as f64,
        }
    }

    /// Sweeps window margins, producing the prior work's LoC/accuracy
    /// trade-off points (sorted by growing LoC).
    pub fn sweep(&self, view: &SplitView, margins: &[f64]) -> Vec<BaselineResult> {
        let mut out: Vec<BaselineResult> =
            margins.iter().map(|&m| self.evaluate(view, m)).collect();
        out.sort_by(|a, b| a.mean_loc.total_cmp(&b.mean_loc));
        out
    }
}

/// Solves the 4×4 system `A·x = b` by Gaussian elimination with partial
/// pivoting.
fn solve4(mut a: [[f64; 4]; 4], mut b: [f64; 4]) -> [f64; 4] {
    for col in 0..4 {
        let pivot = (col..4)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty range");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        if diag.abs() < 1e-30 {
            continue; // singular direction; leave coefficient at 0
        }
        for row in 0..4 {
            if row == col {
                continue;
            }
            let f = a[row][col] / diag;
            let pivot_row = a[col];
            for (av, pv) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *av -= f * pv;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0; 4];
    for i in 0..4 {
        x[i] = if a[i][i].abs() < 1e-30 {
            0.0
        } else {
            b[i] / a[i][i]
        };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_layout::{SplitLayer, Suite};

    fn views(split: u8) -> Vec<SplitView> {
        Suite::ispd2011_like(0.02)
            .expect("valid scale")
            .split_all(SplitLayer::new(split).expect("valid"))
    }

    #[test]
    fn solve4_recovers_known_solution() {
        let a = [
            [2.0, 0.0, 0.0, 0.0],
            [0.0, 3.0, 0.0, 0.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 5.0],
        ];
        let x_true = [1.0, -2.0, 3.0, 0.5];
        let b = [
            2.0 * x_true[0],
            3.0 * x_true[1],
            x_true[0] + x_true[2],
            5.0 * x_true[3],
        ];
        let x = solve4(a, b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn fitted_radius_is_positive() {
        let vs = views(6);
        let refs: Vec<&SplitView> = vs.iter().collect();
        let model = PriorWorkModel::fit(&refs);
        for (i, _) in vs[0].vpins().iter().enumerate().take(50) {
            assert!(model.radius(&vs[0], i, 1.0) >= 1);
        }
    }

    #[test]
    fn larger_margins_grow_loc_and_accuracy() {
        let vs = views(6);
        let refs: Vec<&SplitView> = vs.iter().collect();
        let model = PriorWorkModel::fit(&refs);
        let small = model.evaluate(&vs[0], 0.5);
        let large = model.evaluate(&vs[0], 3.0);
        assert!(large.mean_loc > small.mean_loc);
        assert!(large.accuracy >= small.accuracy);
    }

    #[test]
    fn accuracy_is_meaningful_at_unit_margin() {
        let vs = views(6);
        let refs: Vec<&SplitView> = vs.iter().collect();
        let model = PriorWorkModel::fit(&refs);
        let r = model.evaluate(&vs[0], 1.5);
        // The regression predicts the *mean* match distance, so a modest
        // margin should catch a sizeable share of matches.
        assert!(r.accuracy > 0.2, "baseline accuracy {:.3}", r.accuracy);
        assert!(r.mean_loc > 0.0);
        assert!((0.0..=1.0).contains(&r.pa_rate));
    }

    #[test]
    fn sweep_is_sorted_by_loc() {
        let vs = views(8);
        let refs: Vec<&SplitView> = vs.iter().collect();
        let model = PriorWorkModel::fit(&refs);
        let pts = model.sweep(&vs[0], &[2.0, 0.5, 1.0, 4.0]);
        assert!(pts.windows(2).all(|w| w[0].mean_loc <= w[1].mean_loc));
    }
}
