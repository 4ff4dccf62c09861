//! The 11 pair features of Section III-B and the feature subsets the
//! paper's model configurations use.

use serde::{Deserialize, Serialize};
use sm_layout::VPin;

/// One of the 11 layout features computed for a v-pin pair.
///
/// The discriminant order is the paper's presentation order; the "first 9
/// features" of the `ML-9`/`Imp-9` configurations are discriminants
/// `0..=8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(usize)]
pub enum PairFeature {
    /// `|px₁ − px₂|` — placement-pin x distance.
    DiffPinX = 0,
    /// `|py₁ − py₂|` — placement-pin y distance.
    DiffPinY = 1,
    /// `|px₁ − px₂| + |py₁ − py₂|` — placement-level proximity.
    ManhattanPin = 2,
    /// `|vx₁ − vx₂|` — v-pin x distance.
    DiffVpinX = 3,
    /// `|vy₁ − vy₂|` — v-pin y distance (zero for matches at the top split
    /// layer when M9 is horizontally routed).
    DiffVpinY = 4,
    /// `|vx₁ − vx₂| + |vy₁ − vy₂|` — v-pin proximity, the single most
    /// discriminative feature in the paper's ranking.
    ManhattanVpin = 5,
    /// `W₁ + W₂` — known below-split wirelength of the would-be net.
    TotalWirelength = 6,
    /// `InArea₁ + InArea₂ + OutArea₁ + OutArea₂` — total connected cell area.
    TotalArea = 7,
    /// `(OutArea₁ + OutArea₂) − (InArea₁ + InArea₂)` — driver-vs-load area.
    DiffArea = 8,
    /// `PC₁ + PC₂` — placement congestion.
    PlacementCongestion = 9,
    /// `RC₁ + RC₂` — routing congestion.
    RoutingCongestion = 10,
}

/// All 11 features in paper order.
pub const ALL_FEATURES: [PairFeature; 11] = [
    PairFeature::DiffPinX,
    PairFeature::DiffPinY,
    PairFeature::ManhattanPin,
    PairFeature::DiffVpinX,
    PairFeature::DiffVpinY,
    PairFeature::ManhattanVpin,
    PairFeature::TotalWirelength,
    PairFeature::TotalArea,
    PairFeature::DiffArea,
    PairFeature::PlacementCongestion,
    PairFeature::RoutingCongestion,
];

impl PairFeature {
    /// Short display name matching the paper's feature names.
    pub fn name(self) -> &'static str {
        match self {
            PairFeature::DiffPinX => "DiffPinX",
            PairFeature::DiffPinY => "DiffPinY",
            PairFeature::ManhattanPin => "ManhattanPin",
            PairFeature::DiffVpinX => "DiffVpinX",
            PairFeature::DiffVpinY => "DiffVpinY",
            PairFeature::ManhattanVpin => "ManhattanVpin",
            PairFeature::TotalWirelength => "TotalWirelength",
            PairFeature::TotalArea => "TotalArea",
            PairFeature::DiffArea => "DiffArea",
            PairFeature::PlacementCongestion => "PlacementCongestion",
            PairFeature::RoutingCongestion => "RoutingCongestion",
        }
    }

    /// Computes this feature's value for the pair `(a, b)`.
    pub fn compute(self, a: &VPin, b: &VPin) -> f64 {
        match self {
            PairFeature::DiffPinX => (a.pin_loc.x - b.pin_loc.x).abs() as f64,
            PairFeature::DiffPinY => (a.pin_loc.y - b.pin_loc.y).abs() as f64,
            PairFeature::ManhattanPin => a.pin_loc.manhattan(b.pin_loc) as f64,
            PairFeature::DiffVpinX => (a.loc.x - b.loc.x).abs() as f64,
            PairFeature::DiffVpinY => (a.loc.y - b.loc.y).abs() as f64,
            PairFeature::ManhattanVpin => a.loc.manhattan(b.loc) as f64,
            PairFeature::TotalWirelength => (a.wirelength + b.wirelength) as f64,
            PairFeature::TotalArea => (a.in_area + a.out_area + b.in_area + b.out_area) as f64,
            PairFeature::DiffArea => ((a.out_area + b.out_area) - (a.in_area + b.in_area)) as f64,
            PairFeature::PlacementCongestion => a.pc + b.pc,
            PairFeature::RoutingCongestion => a.rc + b.rc,
        }
    }
}

impl std::fmt::Display for PairFeature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An ordered selection of pair features, defining a model configuration's
/// input space.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureSet {
    features: Vec<PairFeature>,
}

impl FeatureSet {
    /// The "9-feature" set of `ML-9`/`Imp-9`: the first nine features
    /// (everything except the two congestion measurements).
    pub fn nine() -> Self {
        Self {
            features: ALL_FEATURES[..9].to_vec(),
        }
    }

    /// The "7-feature" set of `Imp-7`: the nine-feature set minus the two
    /// least important features (`TotalWirelength`, `TotalArea`).
    pub fn seven() -> Self {
        Self {
            features: ALL_FEATURES[..9]
                .iter()
                .copied()
                .filter(|f| !matches!(f, PairFeature::TotalWirelength | PairFeature::TotalArea))
                .collect(),
        }
    }

    /// All 11 features (`Imp-11`).
    pub fn eleven() -> Self {
        Self {
            features: ALL_FEATURES.to_vec(),
        }
    }

    /// A custom selection (useful for ablations).
    pub fn custom(features: Vec<PairFeature>) -> Self {
        Self { features }
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the selection is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// The selected features in order.
    pub fn features(&self) -> &[PairFeature] {
        &self.features
    }

    /// Computes the selected features for pair `(a, b)` into `out`
    /// (cleared first), one feature at a time.
    ///
    /// This is the scalar reference for [`PairKernel`], which fills every
    /// row the product scores or trains on. It stays public for the
    /// oracles (`sm_attack::oracle`), the parity tests, and the
    /// benchmark's attack workload (`benchmark/src/attack.rs`), which
    /// re-scores pairs with it to check the shipped scores.
    pub fn compute_into(&self, a: &VPin, b: &VPin, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.features.iter().map(|f| f.compute(a, b)));
    }

    /// Convenience allocation-returning variant of [`Self::compute_into`].
    ///
    /// # Examples
    ///
    /// ```
    /// use sm_attack::features::FeatureSet;
    /// use sm_layout::{Suite, SplitLayer};
    ///
    /// let view = Suite::ispd2011_like(0.02)?.benchmarks()[0]
    ///     .split(SplitLayer::new(6)?);
    /// let fs = FeatureSet::eleven();
    /// let x = fs.compute(&view.vpins()[0], &view.vpins()[1]);
    /// assert_eq!(x.len(), 11);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn compute(&self, a: &VPin, b: &VPin) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.features.len());
        self.compute_into(a, b, &mut out);
        out
    }
}

/// Structure-of-arrays pair-feature kernel: the batched fast path behind
/// [`FeatureSet::compute_into`].
///
/// Construction hoists every per-v-pin quantity the 11 features read —
/// pin/v-pin coordinates, in/out cell areas, below-split wirelength, and
/// the two congestion terms — out of the [`VPin`] structs into per-view
/// column arrays, once per scoring call, and pre-resolves the feature set
/// into a fixed slot plan (which output column each feature lands in).
/// [`PairKernel::fill_batch`] then walks the batch row by row: each
/// candidate's column entries are loaded exactly once, shared
/// subexpressions feed every feature that reads them (the Manhattan
/// features reuse the Diff deltas, the area features share one load pair),
/// and the row's values store contiguously — no per-pair `match`, no
/// re-gathering a column per feature.
///
/// Every slot performs the exact integer-then-cast arithmetic of
/// [`PairFeature::compute`], so filled rows are bit-for-bit identical to
/// the reference path.
#[derive(Debug, Clone)]
pub struct PairKernel {
    plan: Vec<PairFeature>,
    slots: FeatureSlots,
    /// `(from, to)` column copies patching duplicate plan entries: the slot
    /// map keeps one column per feature, so repeated selections (possible
    /// via [`FeatureSet::custom`]) are duplicated after the fused pass.
    dups: Vec<(usize, usize)>,
    pin_x: Vec<i64>,
    pin_y: Vec<i64>,
    vx: Vec<i64>,
    vy: Vec<i64>,
    wl: Vec<i64>,
    in_area: Vec<i64>,
    out_area: Vec<i64>,
    pc: Vec<f64>,
    rc: Vec<f64>,
    drives: Vec<bool>,
}

/// Output column of each feature in a [`PairKernel`]'s row, or `None` when
/// the feature set does not select it.
#[derive(Debug, Clone, Copy, Default)]
struct FeatureSlots {
    diff_pin_x: Option<usize>,
    diff_pin_y: Option<usize>,
    manhattan_pin: Option<usize>,
    diff_vpin_x: Option<usize>,
    diff_vpin_y: Option<usize>,
    manhattan_vpin: Option<usize>,
    total_wirelength: Option<usize>,
    total_area: Option<usize>,
    diff_area: Option<usize>,
    placement_congestion: Option<usize>,
    routing_congestion: Option<usize>,
}

impl FeatureSlots {
    fn resolve(plan: &[PairFeature]) -> Self {
        let mut s = Self::default();
        for (c, feature) in plan.iter().enumerate() {
            let slot = match feature {
                PairFeature::DiffPinX => &mut s.diff_pin_x,
                PairFeature::DiffPinY => &mut s.diff_pin_y,
                PairFeature::ManhattanPin => &mut s.manhattan_pin,
                PairFeature::DiffVpinX => &mut s.diff_vpin_x,
                PairFeature::DiffVpinY => &mut s.diff_vpin_y,
                PairFeature::ManhattanVpin => &mut s.manhattan_vpin,
                PairFeature::TotalWirelength => &mut s.total_wirelength,
                PairFeature::TotalArea => &mut s.total_area,
                PairFeature::DiffArea => &mut s.diff_area,
                PairFeature::PlacementCongestion => &mut s.placement_congestion,
                PairFeature::RoutingCongestion => &mut s.routing_congestion,
            };
            *slot = Some(c);
        }
        s
    }
}

impl PairKernel {
    /// Extracts the SoA columns of `vpins` and pre-resolves `features`
    /// into the evaluation plan.
    pub fn new(vpins: &[VPin], features: &FeatureSet) -> Self {
        let plan = features.features().to_vec();
        let slots = FeatureSlots::resolve(&plan);
        let resolved = |f: PairFeature| match f {
            PairFeature::DiffPinX => slots.diff_pin_x,
            PairFeature::DiffPinY => slots.diff_pin_y,
            PairFeature::ManhattanPin => slots.manhattan_pin,
            PairFeature::DiffVpinX => slots.diff_vpin_x,
            PairFeature::DiffVpinY => slots.diff_vpin_y,
            PairFeature::ManhattanVpin => slots.manhattan_vpin,
            PairFeature::TotalWirelength => slots.total_wirelength,
            PairFeature::TotalArea => slots.total_area,
            PairFeature::DiffArea => slots.diff_area,
            PairFeature::PlacementCongestion => slots.placement_congestion,
            PairFeature::RoutingCongestion => slots.routing_congestion,
        };
        let dups = plan
            .iter()
            .enumerate()
            .filter_map(|(c, &f)| {
                let from = resolved(f).expect("every planned feature resolves");
                (from != c).then_some((from, c))
            })
            .collect();
        Self {
            plan,
            slots,
            dups,
            pin_x: vpins.iter().map(|v| v.pin_loc.x).collect(),
            pin_y: vpins.iter().map(|v| v.pin_loc.y).collect(),
            vx: vpins.iter().map(|v| v.loc.x).collect(),
            vy: vpins.iter().map(|v| v.loc.y).collect(),
            wl: vpins.iter().map(|v| v.wirelength).collect(),
            in_area: vpins.iter().map(|v| v.in_area).collect(),
            out_area: vpins.iter().map(|v| v.out_area).collect(),
            pc: vpins.iter().map(|v| v.pc).collect(),
            rc: vpins.iter().map(|v| v.rc).collect(),
            drives: vpins.iter().map(VPin::drives).collect(),
        }
    }

    /// Per-v-pin driver flags (`VPin::drives`), one byte per pin — the
    /// scoring loop's unindexed candidate sources check legality with this
    /// instead of dereferencing whole `VPin` structs per candidate.
    pub fn drives(&self) -> &[bool] {
        &self.drives
    }

    /// Number of feature columns per row (the batch's row stride).
    pub fn num_features(&self) -> usize {
        self.plan.len()
    }

    /// Number of v-pins the kernel was built over.
    pub fn num_vpins(&self) -> usize {
        self.pin_x.len()
    }

    /// Fills `out` with one row per candidate in `cands`, each pairing
    /// `target` with that candidate, row-major with stride
    /// [`Self::num_features`]. `out` is cleared and resized; reusing one
    /// buffer across batches keeps the scoring loop allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `target` or any candidate is out of range.
    pub fn fill_batch(&self, target: u32, cands: &[u32], out: &mut Vec<f64>) {
        let nf = self.plan.len();
        let t = target as usize;
        out.clear();
        out.resize(cands.len() * nf, 0.0);
        let s = &self.slots;
        let (t_pin_x, t_pin_y) = (self.pin_x[t], self.pin_y[t]);
        let (t_vx, t_vy) = (self.vx[t], self.vy[t]);
        let t_wl = self.wl[t];
        let (t_in, t_out) = (self.in_area[t], self.out_area[t]);
        let t_area = t_in + t_out;
        let (t_pc, t_rc) = (self.pc[t], self.rc[t]);
        for (row, &j) in out.chunks_exact_mut(nf.max(1)).zip(cands) {
            let ju = j as usize;
            // Each delta is computed once and feeds every feature reading
            // it; the integer sums and single final casts are exactly
            // `PairFeature::compute`'s, keeping the rows bit-identical.
            let dpx = (t_pin_x - self.pin_x[ju]).abs();
            let dpy = (t_pin_y - self.pin_y[ju]).abs();
            let dvx = (t_vx - self.vx[ju]).abs();
            let dvy = (t_vy - self.vy[ju]).abs();
            let (j_in, j_out) = (self.in_area[ju], self.out_area[ju]);
            if let Some(c) = s.diff_pin_x {
                row[c] = dpx as f64;
            }
            if let Some(c) = s.diff_pin_y {
                row[c] = dpy as f64;
            }
            if let Some(c) = s.manhattan_pin {
                row[c] = (dpx + dpy) as f64;
            }
            if let Some(c) = s.diff_vpin_x {
                row[c] = dvx as f64;
            }
            if let Some(c) = s.diff_vpin_y {
                row[c] = dvy as f64;
            }
            if let Some(c) = s.manhattan_vpin {
                row[c] = (dvx + dvy) as f64;
            }
            if let Some(c) = s.total_wirelength {
                row[c] = (t_wl + self.wl[ju]) as f64;
            }
            if let Some(c) = s.total_area {
                // Reference order: ((a.in + a.out) + b.in) + b.out.
                row[c] = (t_area + j_in + j_out) as f64;
            }
            if let Some(c) = s.diff_area {
                row[c] = ((t_out + j_out) - (t_in + j_in)) as f64;
            }
            if let Some(c) = s.placement_congestion {
                row[c] = t_pc + self.pc[ju];
            }
            if let Some(c) = s.routing_congestion {
                row[c] = t_rc + self.rc[ju];
            }
            for &(from, to) in &self.dups {
                row[to] = row[from];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_layout::geom::Point;

    fn vpin(x: i64, y: i64, px: i64, py: i64, w: i64, ia: i64, oa: i64) -> VPin {
        VPin {
            loc: Point::new(x, y),
            pin_loc: Point::new(px, py),
            wirelength: w,
            in_area: ia,
            out_area: oa,
            pc: 1.5,
            rc: 2.5,
        }
    }

    #[test]
    fn feature_values_match_definitions() {
        let a = vpin(10, 20, 1, 2, 100, 50, 0);
        let b = vpin(13, 24, 5, 2, 200, 0, 70);
        assert_eq!(PairFeature::DiffVpinX.compute(&a, &b), 3.0);
        assert_eq!(PairFeature::DiffVpinY.compute(&a, &b), 4.0);
        assert_eq!(PairFeature::ManhattanVpin.compute(&a, &b), 7.0);
        assert_eq!(PairFeature::DiffPinX.compute(&a, &b), 4.0);
        assert_eq!(PairFeature::DiffPinY.compute(&a, &b), 0.0);
        assert_eq!(PairFeature::ManhattanPin.compute(&a, &b), 4.0);
        assert_eq!(PairFeature::TotalWirelength.compute(&a, &b), 300.0);
        assert_eq!(PairFeature::TotalArea.compute(&a, &b), 120.0);
        assert_eq!(PairFeature::DiffArea.compute(&a, &b), 70.0 - 50.0);
        assert_eq!(PairFeature::PlacementCongestion.compute(&a, &b), 3.0);
        assert_eq!(PairFeature::RoutingCongestion.compute(&a, &b), 5.0);
    }

    #[test]
    fn features_are_symmetric_in_the_pair() {
        let a = vpin(10, 20, 1, 2, 100, 50, 0);
        let b = vpin(-3, 8, 5, -9, 200, 0, 70);
        for f in ALL_FEATURES {
            assert_eq!(
                f.compute(&a, &b),
                f.compute(&b, &a),
                "{f} must be symmetric"
            );
        }
    }

    #[test]
    fn set_sizes_match_their_names() {
        assert_eq!(FeatureSet::seven().len(), 7);
        assert_eq!(FeatureSet::nine().len(), 9);
        assert_eq!(FeatureSet::eleven().len(), 11);
    }

    #[test]
    fn seven_drops_exactly_the_two_least_important() {
        let seven = FeatureSet::seven();
        assert!(!seven.features().contains(&PairFeature::TotalWirelength));
        assert!(!seven.features().contains(&PairFeature::TotalArea));
        assert!(seven.features().contains(&PairFeature::DiffArea));
        assert!(!seven.features().contains(&PairFeature::PlacementCongestion));
    }

    #[test]
    fn nine_excludes_congestion() {
        let nine = FeatureSet::nine();
        assert!(!nine.features().contains(&PairFeature::PlacementCongestion));
        assert!(!nine.features().contains(&PairFeature::RoutingCongestion));
    }

    #[test]
    fn compute_into_reuses_buffer() {
        let a = vpin(0, 0, 0, 0, 1, 1, 0);
        let b = vpin(1, 1, 1, 1, 1, 0, 1);
        let fs = FeatureSet::seven();
        let mut buf = vec![999.0; 32];
        fs.compute_into(&a, &b, &mut buf);
        assert_eq!(buf.len(), 7);
    }

    #[test]
    fn pair_kernel_matches_compute_into_bitwise() {
        let vpins = vec![
            vpin(10, 20, 1, 2, 100, 50, 0),
            vpin(13, 24, 5, 2, 200, 0, 70),
            vpin(-3, 8, 5, -9, 7, 31, 12),
            vpin(0, 0, 0, 0, 0, 0, 0),
        ];
        for fs in [
            FeatureSet::seven(),
            FeatureSet::nine(),
            FeatureSet::eleven(),
        ] {
            let kernel = PairKernel::new(&vpins, &fs);
            assert_eq!(kernel.num_features(), fs.len());
            assert_eq!(kernel.num_vpins(), 4);
            let cands: Vec<u32> = (0..4).collect();
            let mut batch = Vec::new();
            let mut reference = Vec::new();
            for t in 0..4u32 {
                kernel.fill_batch(t, &cands, &mut batch);
                for (r, &j) in cands.iter().enumerate() {
                    fs.compute_into(&vpins[t as usize], &vpins[j as usize], &mut reference);
                    let row = &batch[r * fs.len()..(r + 1) * fs.len()];
                    for (col, (got, want)) in row.iter().zip(&reference).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "target {t} cand {j} col {col}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<&str> =
            ALL_FEATURES.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), 11);
    }
}
