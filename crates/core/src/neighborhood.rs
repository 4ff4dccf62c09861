//! Neighborhood modelling for the scalable (`Imp`) configurations
//! (paper Section III-D) and spatial indexing of v-pins.
//!
//! The basic `ML` configuration trains on random negative pairs and tests
//! every pair — quadratic in the v-pin count and dominated by "useless"
//! far-apart pairs. The `Imp` fix: measure the CDF of the `ManhattanVpin`
//! distance of *true* matches over the training designs (Fig. 4), take the
//! 90 % quantile as a neighborhood radius, and restrict both sampling and
//! testing to pairs within that radius.

use sm_layout::geom::{Grid, Point};
use sm_layout::tech::Technology;
use sm_layout::SplitView;
use std::collections::HashMap;

/// Default CDF quantile used to size the neighborhood.
pub const DEFAULT_NEIGHBORHOOD_QUANTILE: f64 = 0.90;

/// Divisor mapping the largest training die's Manhattan semi-perimeter
/// (width + height) to the raw safety margin added on top of the CDF cut
/// by [`neighborhood_radius`].
const MARGIN_SEMIPERIMETER_DIVISOR: i64 = 256;

/// Die-proportional safety margin: the largest training die's Manhattan
/// semi-perimeter divided by [`MARGIN_SEMIPERIMETER_DIVISOR`], rounded up
/// to a whole number of g-cells and never below one g-cell.
///
/// At the default suite scale (`SM_SCALE = 1.0`) every leave-one-out
/// training subset lands in the (2 560, 3 500] DBU bracket and quantizes
/// to exactly one g-cell — the `+ 3_500` an earlier revision hard-coded —
/// so default-scale radii are bit-identical to before. Unlike the
/// constant, the margin tracks the die: at `SM_SCALE = 0.2` the one-g-cell
/// floor keeps it from swallowing a fifth-size die's distance tail, and at
/// `SM_SCALE = 10` it grows with the ~10× die instead of degenerating to
/// rounding noise.
fn safety_margin(views: &[&SplitView]) -> i64 {
    let gcell = Technology::ispd9().gcell_size();
    let semi = views
        .iter()
        .map(|v| v.die.width() + v.die.height())
        .max()
        .unwrap_or(0);
    let cells = (semi / MARGIN_SEMIPERIMETER_DIVISOR + gcell - 1) / gcell;
    cells.max(1) * gcell
}

/// Manhattan distances between every true v-pin pair of `views` (each pair
/// counted once), sorted ascending — the empirical CDF of Fig. 4.
pub fn match_distance_cdf(views: &[&SplitView]) -> Vec<i64> {
    let mut d = Vec::new();
    for v in views {
        for i in 0..v.num_vpins() {
            let m = v.true_match(i);
            if i < m {
                d.push(v.distance(i, m));
            }
        }
    }
    d.sort_unstable();
    d
}

/// The neighborhood radius containing `quantile` of true-match distances.
///
/// Returns `None` if the views contain no matches.
///
/// # Panics
///
/// Panics if `quantile` is outside `(0, 1]`.
///
/// # Examples
///
/// ```
/// use sm_attack::neighborhood::neighborhood_radius;
/// use sm_layout::{Suite, SplitLayer};
///
/// let suite = Suite::ispd2011_like(0.02)?;
/// let views = suite.split_all(SplitLayer::new(6)?);
/// let refs: Vec<&_> = views.iter().collect();
/// let r = neighborhood_radius(&refs, 0.9).expect("suite has matches");
/// assert!(r > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn neighborhood_radius(views: &[&SplitView], quantile: f64) -> Option<i64> {
    assert!(
        quantile > 0.0 && quantile <= 1.0,
        "quantile must be in (0, 1]"
    );
    let cdf = match_distance_cdf(views);
    if cdf.is_empty() {
        return None;
    }
    let k = ((cdf.len() as f64 * quantile).ceil() as usize).clamp(1, cdf.len());
    // Round the cut up by a relative safety margin plus a die-proportional,
    // g-cell-quantized allowance, as a practical implementation would.
    // Where the distance tail is compressed (the top split layer, whose
    // matches all sit near the die diameter) this absorbs nearly the whole
    // remaining tail — matching the paper's unsaturated layer-8 accuracies
    // — while the long tails of the lower layers stay excluded (the
    // Fig. 9(b)/(c) plateaus).
    Some(cdf[k - 1] + cdf[k - 1] / 8 + safety_margin(views))
}

/// Most grid cells a [`VpinIndex`] allocates per v-pin, above a floor of
/// [`MIN_CELL_CAP`] cells. A die from a decoded challenge can be far larger
/// than its v-pins need; the cap keeps the grid's size a function of the
/// pin count, whatever cell size the caller asks for.
const MAX_CELLS_PER_VPIN: u128 = 4;

/// Cell count every [`VpinIndex`] may use, however few its v-pins.
const MIN_CELL_CAP: u128 = 4096;

/// A spatial index over one view's v-pins supporting radius queries and
/// exact same-y (same-track) queries.
#[derive(Debug, Clone)]
pub struct VpinIndex {
    grid: Grid,
    buckets: Vec<Vec<u32>>,
    /// Per cell, the non-driving v-pins of `buckets`, in ascending index
    /// order: the legal partners of a driver (see
    /// [`SplitView::is_legal_pair`]).
    sink_buckets: Vec<Vec<u32>>,
    by_y: HashMap<i64, Vec<u32>>,
    /// Per track, the non-driving v-pins of `by_y`, in ascending index
    /// order: a driver's legal partners on its track.
    sink_by_y: HashMap<i64, Vec<u32>>,
}

impl VpinIndex {
    /// Builds the index for `view`, with grid cells of side `cell` DBU,
    /// doubled as often as it takes to keep the grid within
    /// four cells per v-pin (4,096 at least). Every query returns the same
    /// set at any cell size, so the cap changes how far a query walks,
    /// never what it returns.
    ///
    /// # Panics
    ///
    /// Panics if `cell <= 0`.
    pub fn new(view: &SplitView, cell: i64) -> Self {
        assert!(cell > 0, "grid cell must be positive");
        let cap = (view.num_vpins() as u128 * MAX_CELLS_PER_VPIN).max(MIN_CELL_CAP);
        let (w, h) = (view.die.width().max(1), view.die.height().max(1));
        let cells = |c: i64| (w as u128).div_ceil(c as u128) * (h as u128).div_ceil(c as u128);
        let mut cell = cell;
        while cells(cell) > cap {
            cell = cell.saturating_mul(2);
        }
        let grid = Grid::new(view.die, cell);
        let mut buckets = vec![Vec::new(); grid.len()];
        let mut sink_buckets = vec![Vec::new(); grid.len()];
        let mut by_y: HashMap<i64, Vec<u32>> = HashMap::new();
        let mut sink_by_y: HashMap<i64, Vec<u32>> = HashMap::new();
        for (i, vp) in view.vpins().iter().enumerate() {
            let flat = grid.flat_of(vp.loc);
            buckets[flat].push(i as u32);
            by_y.entry(vp.loc.y).or_default().push(i as u32);
            if !vp.drives() {
                sink_buckets[flat].push(i as u32);
                sink_by_y.entry(vp.loc.y).or_default().push(i as u32);
            }
        }
        Self {
            grid,
            buckets,
            sink_buckets,
            by_y,
            sink_by_y,
        }
    }

    /// Builds the index with a cell size matched to `radius` (clamped to a
    /// sane range), the right granularity for subsequent
    /// [`Self::within_radius_unordered`] and
    /// [`Self::partners_within_radius`] queries.
    pub fn with_radius(view: &SplitView, radius: i64) -> Self {
        let cell = (radius / 2).clamp(1_000, 50_000);
        Self::new(view, cell)
    }

    /// Indices of all v-pins within Manhattan `radius` of `from` (excluding
    /// `exclude`), written to `out` (cleared first) in an
    /// implementation-defined order. This is the streaming hot path: the
    /// scoring loop's top-K keeper depends only on the candidate *set*.
    ///
    /// Cells of the query window are classified by their min/max Manhattan
    /// distance to `from`: cells entirely inside the ball are bulk-appended
    /// without per-pin distance checks, cells entirely outside are skipped,
    /// and only boundary cells pay a per-pin check.
    pub fn within_radius_unordered(
        &self,
        view: &SplitView,
        from: Point,
        radius: i64,
        exclude: u32,
        out: &mut Vec<u32>,
    ) {
        self.collect_within(&self.buckets, view, from, radius, exclude, out);
    }

    /// The legal partners of v-pin `i` within Manhattan `radius` of it:
    /// [`Self::within_radius_unordered`] around `i`'s location, excluding
    /// `i`, with [`SplitView::is_legal_pair`] applied by the choice of
    /// buckets rather than per candidate. A driver walks only the
    /// non-driving v-pins; any other v-pin is legal with every other pin.
    /// Written to `out` (cleared first) in an implementation-defined order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a v-pin of `view`.
    pub fn partners_within_radius(
        &self,
        view: &SplitView,
        i: usize,
        radius: i64,
        out: &mut Vec<u32>,
    ) {
        let vp = &view.vpins()[i];
        let buckets = if vp.drives() {
            &self.sink_buckets
        } else {
            &self.buckets
        };
        self.collect_within(buckets, view, vp.loc, radius, i as u32, out);
    }

    /// The cell-classification walk behind the radius queries, over one
    /// bucket table (`buckets` or `sink_buckets`).
    fn collect_within(
        &self,
        buckets: &[Vec<u32>],
        view: &SplitView,
        from: Point,
        radius: i64,
        exclude: u32,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let cell = self.grid.cell_size();
        let b = self.grid.bounds();
        let nx = self.grid.nx();
        let (cx0, cy0) = self
            .grid
            .locate(Point::new(from.x - radius, from.y - radius));
        let (cx1, cy1) = self
            .grid
            .locate(Point::new(from.x + radius, from.y + radius));
        // `exclude` can only ever appear in its home cell, so every other
        // fully-inside cell is appended with a plain copy.
        let exclude_cell = view
            .vpins()
            .get(exclude as usize)
            .map(|vp| self.grid.flat_of(vp.loc));
        let ny = self.grid.ny();
        // Edge cells also hold every v-pin on or beyond the die's edge
        // (`locate` clamps), so their extent is open outward: the least
        // distance to an edge cell ignores its outer side, and only
        // interior cells are eligible for the bulk path.
        let open = |lo: i64, hi: i64, first: bool, last: bool| {
            let lo = if first { i64::MIN / 2 } else { lo };
            let hi = if last { i64::MAX / 2 } else { hi };
            (lo, hi)
        };
        for iy in cy0..=cy1 {
            // Extremal point coordinates inside this cell row/column: cells
            // are low-inclusive and the die edge caps the last partial cell.
            let loy = b.lo.y + iy as i64 * cell;
            let hiy = (loy + cell - 1).min(b.hi.y - 1);
            let interior_y = iy > 0 && iy + 1 < ny;
            let (reach_lo, reach_hi) = open(loy, hiy, iy == 0, iy + 1 == ny);
            let dy_min = (reach_lo - from.y).max(from.y - reach_hi).max(0);
            if dy_min > radius {
                continue;
            }
            let dy_max = (from.y - loy).abs().max((from.y - hiy).abs());
            for ix in cx0..=cx1 {
                let lox = b.lo.x + ix as i64 * cell;
                let hix = (lox + cell - 1).min(b.hi.x - 1);
                let (reach_lo, reach_hi) = open(lox, hix, ix == 0, ix + 1 == nx);
                let dx_min = (reach_lo - from.x).max(from.x - reach_hi).max(0);
                if dx_min + dy_min > radius {
                    continue;
                }
                let flat = iy * nx + ix;
                let bucket = &buckets[flat];
                if bucket.is_empty() {
                    continue;
                }
                let dx_max = (from.x - lox).abs().max((from.x - hix).abs());
                if interior_y && ix > 0 && ix + 1 < nx && dx_max + dy_max <= radius {
                    if exclude_cell == Some(flat) {
                        out.extend(bucket.iter().copied().filter(|&j| j != exclude));
                    } else {
                        out.extend_from_slice(bucket);
                    }
                } else {
                    for &j in bucket {
                        if j != exclude && view.vpins()[j as usize].loc.manhattan(from) <= radius {
                            out.push(j);
                        }
                    }
                }
            }
        }
    }

    /// Indices of all v-pins sharing `y` exactly (same top-layer track),
    /// excluding `exclude`, in ascending index order (tracks are built by
    /// one pass in index order). Used by the `DiffVpinY = 0`
    /// configurations.
    pub fn same_y(&self, y: i64, exclude: u32, out: &mut Vec<u32>) {
        out.clear();
        if let Some(list) = self.by_y.get(&y) {
            out.extend(list.iter().copied().filter(|&j| j != exclude));
        }
    }

    /// The legal partners of v-pin `i` on its own track: [`Self::same_y`]
    /// at `i`'s y, excluding `i`, with [`SplitView::is_legal_pair`] applied
    /// by the choice of list, as [`Self::partners_within_radius`] does.
    /// Written to `out` (cleared first) in ascending index order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a v-pin of `view`.
    pub fn partners_same_y(&self, view: &SplitView, i: usize, out: &mut Vec<u32>) {
        let vp = &view.vpins()[i];
        let tracks = if vp.drives() {
            &self.sink_by_y
        } else {
            &self.by_y
        };
        out.clear();
        if let Some(list) = tracks.get(&vp.loc.y) {
            out.extend(list.iter().copied().filter(|&j| j != i as u32));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_layout::{SplitLayer, Suite};

    fn views(split: u8) -> Vec<SplitView> {
        let suite = Suite::ispd2011_like(0.02).expect("valid scale");
        suite.split_all(SplitLayer::new(split).expect("valid"))
    }

    #[test]
    fn cdf_is_sorted_and_covers_all_matches() {
        let vs = views(6);
        let refs: Vec<&SplitView> = vs.iter().collect();
        let cdf = match_distance_cdf(&refs);
        let expected: usize = vs.iter().map(|v| v.num_vpins() / 2).sum();
        assert_eq!(cdf.len(), expected);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn radius_grows_with_quantile() {
        let vs = views(6);
        let refs: Vec<&SplitView> = vs.iter().collect();
        let r80 = neighborhood_radius(&refs, 0.8).expect("matches exist");
        let r90 = neighborhood_radius(&refs, 0.9).expect("matches exist");
        let r100 = neighborhood_radius(&refs, 1.0).expect("matches exist");
        assert!(r80 <= r90 && r90 <= r100);
        assert!(r100 > 0);
    }

    #[test]
    fn ninety_percent_of_matches_fall_inside_radius() {
        let vs = views(6);
        let refs: Vec<&SplitView> = vs.iter().collect();
        let r = neighborhood_radius(&refs, 0.9).expect("matches exist");
        let cdf = match_distance_cdf(&refs);
        let inside = cdf.iter().filter(|&&d| d <= r).count();
        assert!(inside as f64 / cdf.len() as f64 >= 0.9);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn zero_quantile_is_rejected() {
        let vs = views(8);
        let refs: Vec<&SplitView> = vs.iter().collect();
        let _ = neighborhood_radius(&refs, 0.0);
    }

    #[test]
    fn radius_query_finds_exactly_the_close_vpins() {
        let vs = views(6);
        let v = &vs[0];
        let idx = VpinIndex::new(v, 5_000);
        let mut out = Vec::new();
        for probe in 0..v.num_vpins().min(20) {
            let from = v.vpins()[probe].loc;
            let radius = 40_000;
            idx.within_radius_unordered(v, from, radius, probe as u32, &mut out);
            out.sort_unstable();
            let brute: Vec<u32> = (0..v.num_vpins() as u32)
                .filter(|&j| {
                    j != probe as u32 && v.vpins()[j as usize].loc.manhattan(from) <= radius
                })
                .collect();
            assert_eq!(out, brute, "probe {probe}");
        }
    }

    /// Bit-identity guard for the die-derived safety margin: at the
    /// default suite scale it must equal the `3_500` DBU constant the
    /// previous revision hard-coded — for the full suite and for every
    /// leave-one-out training subset, at every split layer.
    #[test]
    fn margin_is_one_gcell_at_default_scale() {
        assert_margin_at_scale(1.0, 3_500);
    }

    /// The margin tracks the die instead of staying an absolute constant:
    /// the one-g-cell floor holds at a fifth-size die, and a double-size
    /// die doubles it to two g-cells.
    #[test]
    fn margin_scales_with_the_die() {
        assert_margin_at_scale(0.2, 3_500);
        assert_margin_at_scale(2.0, 7_000);
    }

    fn assert_margin_at_scale(scale: f64, margin: i64) {
        let suite = Suite::ispd2011_like(scale).expect("valid scale");
        for layer in [4u8, 6, 8] {
            let vs = suite.split_all(SplitLayer::new(layer).expect("valid"));
            // `skip == vs.len()` keeps every view (the full-suite radius).
            for skip in 0..=vs.len() {
                let refs: Vec<&SplitView> = vs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, v)| v)
                    .collect();
                let cdf = match_distance_cdf(&refs);
                let k = ((cdf.len() as f64 * 0.9).ceil() as usize).clamp(1, cdf.len());
                let cut = cdf[k - 1];
                let r = neighborhood_radius(&refs, 0.9).expect("matches exist");
                assert_eq!(
                    r,
                    cut + cut / 8 + margin,
                    "scale {scale} layer {layer} skip {skip}"
                );
            }
        }
    }

    #[test]
    fn grid_is_capped_by_the_pin_count() {
        use sm_layout::geom::Rect;
        use sm_layout::split::MAX_COORD;
        let v = &views(8)[0];
        let partner = (0..v.num_vpins()).map(|i| v.true_match(i) as u32).collect();
        let bound = Point::new(MAX_COORD, MAX_COORD);
        let wide = SplitView::from_parts(
            v.name.clone(),
            v.split,
            Rect::new(Point::new(-MAX_COORD, -MAX_COORD), bound),
            v.vpins().to_vec(),
            partner,
        )
        .expect("within the bound");
        let cap = (v.num_vpins() as u128 * MAX_CELLS_PER_VPIN).max(MIN_CELL_CAP);
        for cell in [1, 1_000, 50_000] {
            let idx = VpinIndex::new(&wide, cell);
            assert!(
                idx.grid.len() as u128 <= cap,
                "cell {cell}: {} cells",
                idx.grid.len()
            );
            // The cap coarsens the grid; the answers stay exact.
            let mut out = Vec::new();
            for i in 0..wide.num_vpins() {
                idx.within_radius_unordered(&wide, wide.vpins()[i].loc, 40_000, i as u32, &mut out);
                out.sort_unstable();
                let brute: Vec<u32> = (0..wide.num_vpins() as u32)
                    .filter(|&j| j != i as u32 && wide.distance(i, j as usize) <= 40_000)
                    .collect();
                assert_eq!(out, brute, "cell {cell} probe {i}");
            }
        }
        // A cell the cap does not bind is kept as asked.
        assert_eq!(VpinIndex::new(v, 50_000).grid.cell_size(), 50_000);
    }

    #[test]
    fn same_y_query_matches_brute_force() {
        let vs = views(8);
        let v = &vs[0];
        let idx = VpinIndex::new(v, 5_000);
        let mut out = Vec::new();
        for probe in 0..v.num_vpins() {
            let y = v.vpins()[probe].loc.y;
            idx.same_y(y, probe as u32, &mut out);
            let brute: Vec<u32> = (0..v.num_vpins() as u32)
                .filter(|&j| j != probe as u32 && v.vpins()[j as usize].loc.y == y)
                .collect();
            let mut got = out.clone();
            got.sort_unstable();
            assert_eq!(got, brute);
        }
    }

    #[test]
    fn split8_partner_always_on_same_track() {
        let vs = views(8);
        for v in &vs {
            let idx = VpinIndex::new(v, 5_000);
            let mut out = Vec::new();
            for i in 0..v.num_vpins() {
                idx.same_y(v.vpins()[i].loc.y, i as u32, &mut out);
                assert!(
                    out.contains(&(v.true_match(i) as u32)),
                    "partner of {i} must share its M9 track"
                );
            }
        }
    }
}
