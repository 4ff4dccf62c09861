//! Split-manufacturing challenge extraction: the FEOL view and its v-pins.
//!
//! Cutting a routed design at a [`SplitLayer`] produces a [`SplitView`]: the
//! information available to the untrusted foundry. Every net whose routing
//! uses metal above the split is broken, leaving *v-pins* — vias at the
//! split layer — whose below-split geometry (route fragments, connected
//! cell pins, congestion context) the attacker can observe. Which v-pins
//! belong to the same net is the ground truth the attack tries to recover;
//! it is stored separately and only consulted by evaluation code.

use serde::{Deserialize, Serialize};

use crate::cells::PinDir;
use crate::congestion::DensityMap;
use crate::geom::{hpwl, Point, Rect};
use crate::netlist::NetId;
use crate::route::RoutedDesign;
use crate::tech::SplitLayer;

/// Window radius (in g-cells) for the `PC`/`RC` density features.
pub const CONGESTION_WINDOW: usize = 1;

/// Largest magnitude, in DBU, of any coordinate a [`SplitView`] holds: its
/// die corners and every v-pin's via and pin locations lie in
/// `[-MAX_COORD, MAX_COORD]` on both axes. Within it the rotated
/// coordinates `x + y` and `x - y` of a point, and the difference of two
/// coordinates, fit an `i32`, which the training-sample draw relies on.
/// Generated designs stay far inside it: a scale-10 die is under
/// 3·10⁶ DBU across.
pub const MAX_COORD: i64 = 1 << 29;

/// Whether both coordinates of `p` lie within [`MAX_COORD`].
fn in_bound(p: Point) -> bool {
    let ok = |c: i64| (-MAX_COORD..=MAX_COORD).contains(&c);
    ok(p.x) && ok(p.y)
}

/// One v-pin: a via at the split layer, with every attacker-observable
/// quantity the paper's Section III-A extracts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VPin {
    /// Via location on the split plane (`vx`, `vy`).
    pub loc: Point,
    /// Averaged location of the connected placement-layer pins (`px`, `py`).
    pub pin_loc: Point,
    /// Wirelength `W` of the below-split route fragment connecting this
    /// v-pin to its cell pins.
    pub wirelength: i64,
    /// Summed area of cells connected through an *input* pin.
    pub in_area: i64,
    /// Summed area of cells connected through an *output* pin (the driver).
    pub out_area: i64,
    /// Placement congestion `PC`: pin density around `pin_loc`.
    pub pc: f64,
    /// Routing congestion `RC`: v-pin density around `loc`.
    pub rc: f64,
}

impl VPin {
    /// Whether this v-pin is driven from below (its fragment contains the
    /// net's driver). Pairs where *both* v-pins drive are illegal
    /// (output-to-output shorts) and excluded by the attack.
    pub fn drives(&self) -> bool {
        self.out_area > 0
    }
}

/// The attacker-visible view of a design cut at a split layer, plus the
/// (separately stored) ground-truth matching used for evaluation.
///
/// Every coordinate of a view built by [`SplitView::cut`] or
/// [`SplitView::from_parts`] lies within [`MAX_COORD`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SplitView {
    /// Benchmark name this view was cut from.
    pub name: String,
    /// The split layer.
    pub split: SplitLayer,
    /// Die bounds (known to the attacker from the FEOL file).
    pub die: Rect,
    /// All v-pins on the split layer.
    vpins: Vec<VPin>,
    /// Ground truth: `partner[i]` is the index of v-pin `i`'s match.
    partner: Vec<u32>,
    /// Ground truth: the net each v-pin came from.
    net_of: Vec<NetId>,
}

impl SplitView {
    /// Cuts `design` at `split`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sm_layout::generator::generate;
    /// use sm_layout::route::route;
    /// use sm_layout::split::SplitView;
    /// use sm_layout::suite::Suite;
    /// use sm_layout::tech::SplitLayer;
    ///
    /// let routed = route(generate(&Suite::spec_sb1_scaled(0.01))?);
    /// let view = SplitView::cut(&routed, SplitLayer::new(8)?);
    /// assert!(view.num_vpins() > 0);
    /// assert_eq!(view.num_vpins() % 2, 0); // two v-pins per cut net
    /// # Ok::<(), sm_layout::error::LayoutError>(())
    /// ```
    pub fn cut(design: &RoutedDesign, split: SplitLayer) -> Self {
        // First pass: collect raw v-pins (locations + fragment data).
        struct Raw {
            loc: Point,
            pin_loc: Point,
            wirelength: i64,
            in_area: i64,
            out_area: i64,
            net: NetId,
        }
        let mut raws: Vec<Raw> = Vec::new();
        let mut partner: Vec<u32> = Vec::new();

        for rn in &design.routed {
            let Some(crossings) = rn.crossings(split, &design.tech) else {
                continue;
            };
            let base = raws.len() as u32;
            for c in crossings {
                let side = rn.side(c.side);
                let stack = rn.stack(c.side);
                let mut pts: Vec<Point> = Vec::with_capacity(side.pins.len() + 1);
                let mut sx = 0i64;
                let mut sy = 0i64;
                let mut in_area = 0i64;
                let mut out_area = 0i64;
                for &p in &side.pins {
                    let l = design.netlist.pin_location(p);
                    pts.push(l);
                    sx += l.x;
                    sy += l.y;
                    let area = design.netlist.kind_of(p.cell).area();
                    match p.dir {
                        PinDir::Input => in_area += area,
                        PinDir::Output => out_area += area,
                    }
                }
                let n = side.pins.len() as i64;
                // Fragment wirelength: the local below-trunk tree (Steiner
                // lower bound over pins + escape stack) plus any trunk run
                // below the split.
                pts.push(stack);
                let w = hpwl(&pts) + c.below_trunk_len;
                raws.push(Raw {
                    loc: c.loc,
                    pin_loc: Point::new(sx / n.max(1), sy / n.max(1)),
                    wirelength: w,
                    in_area,
                    out_area,
                    net: rn.net,
                });
            }
            partner.push(base + 1);
            partner.push(base);
        }

        // Second pass: congestion features need the full v-pin population.
        let rc_map = DensityMap::from_points(
            design.die,
            design.tech.gcell_size(),
            raws.iter().map(|r| r.loc),
        );
        let vpins: Vec<VPin> = raws
            .iter()
            .map(|r| VPin {
                loc: r.loc,
                pin_loc: r.pin_loc,
                wirelength: r.wirelength,
                in_area: r.in_area,
                out_area: r.out_area,
                pc: design.pin_density.density(r.pin_loc, CONGESTION_WINDOW),
                rc: rc_map.density(r.loc, CONGESTION_WINDOW),
            })
            .collect();
        let net_of = raws.iter().map(|r| r.net).collect();
        // `generate` bounds the die well inside `MAX_COORD`, and every via
        // and pin lies in or next to it.
        debug_assert!(in_bound(design.die.lo) && in_bound(design.die.hi));
        debug_assert!(vpins.iter().all(|v| in_bound(v.loc) && in_bound(v.pin_loc)));

        Self {
            name: design.name.clone(),
            split,
            die: design.die,
            vpins,
            partner,
            net_of,
        }
    }

    /// Assembles a view from explicit parts — the entry point for defence
    /// transforms (decoy insertion, camouflage) that produce modified
    /// views. `partner` must be a fixed-point-free involution over the
    /// v-pin indices; each pair is assigned a fresh synthetic net id.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::LayoutError::DanglingReference`] if
    /// `partner` is not a valid matching of `vpins` or any matched pair is
    /// illegal (two drivers), and
    /// [`crate::error::LayoutError::CoordinateOutOfRange`] if a die corner
    /// or a v-pin's via or pin location lies outside [`MAX_COORD`].
    pub fn from_parts(
        name: String,
        split: SplitLayer,
        die: Rect,
        vpins: Vec<VPin>,
        partner: Vec<u32>,
    ) -> Result<Self, crate::error::LayoutError> {
        use crate::error::LayoutError;
        if !(in_bound(die.lo) && in_bound(die.hi)) {
            return Err(LayoutError::CoordinateOutOfRange(format!(
                "die {} .. {} exceeds ±{MAX_COORD} DBU",
                die.lo, die.hi
            )));
        }
        if let Some(i) = vpins
            .iter()
            .position(|v| !(in_bound(v.loc) && in_bound(v.pin_loc)))
        {
            return Err(LayoutError::CoordinateOutOfRange(format!(
                "v-pin {i} at {} (pins {}) exceeds ±{MAX_COORD} DBU",
                vpins[i].loc, vpins[i].pin_loc
            )));
        }
        if partner.len() != vpins.len() {
            return Err(LayoutError::DanglingReference(
                "one partner entry per v-pin required".into(),
            ));
        }
        let mut net_of = vec![NetId(u32::MAX); vpins.len()];
        let mut next_net = 0u32;
        for (i, &m) in partner.iter().enumerate() {
            let m = m as usize;
            if m >= vpins.len() || m == i || partner[m] as usize != i {
                return Err(LayoutError::DanglingReference(format!(
                    "partner table is not an involution at v-pin {i}"
                )));
            }
            if vpins[i].drives() && vpins[m].drives() {
                return Err(LayoutError::DanglingReference(format!(
                    "matched pair ({i}, {m}) connects two drivers"
                )));
            }
            if i < m {
                net_of[i] = NetId(next_net);
                net_of[m] = NetId(next_net);
                next_net += 1;
            }
        }
        Ok(Self {
            name,
            split,
            die,
            vpins,
            partner,
            net_of,
        })
    }

    /// Number of v-pins.
    pub fn num_vpins(&self) -> usize {
        self.vpins.len()
    }

    /// The v-pins (attacker-visible).
    pub fn vpins(&self) -> &[VPin] {
        &self.vpins
    }

    /// Ground truth: the index of v-pin `i`'s matching partner.
    ///
    /// Evaluation-only — an attack implementation must not consult this.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn true_match(&self, i: usize) -> usize {
        self.partner[i] as usize
    }

    /// Ground truth: the net v-pin `i` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn net_of(&self, i: usize) -> NetId {
        self.net_of[i]
    }

    /// Whether a candidate pair is *legal*: pairs connecting two driver
    /// fragments would short two cell outputs and are excluded from both
    /// training and testing (paper Section III-B, footnote 1).
    pub fn is_legal_pair(&self, i: usize, j: usize) -> bool {
        i != j && !(self.vpins[i].drives() && self.vpins[j].drives())
    }

    /// Manhattan distance between two v-pins.
    pub fn distance(&self, i: usize, j: usize) -> i64 {
        self.vpins[i].loc.manhattan(self.vpins[j].loc)
    }

    /// Applies Gaussian noise with standard deviation `sd` DBU to every
    /// v-pin's y-coordinate, recomputing the `RC` density, and returns the
    /// obfuscated view (paper Section III-I). Ground truth is unchanged.
    pub fn with_y_noise(&self, sd: f64, seed: u64) -> SplitView {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut out = self.clone();
        for v in &mut out.vpins {
            let noise = crate::route::sample_gauss(&mut rng) * sd;
            v.loc = self.die.clamp(Point::new(v.loc.x, v.loc.y + noise as i64));
        }
        // RC is a function of v-pin locations; recompute it on the noisy set.
        let gcell = crate::tech::Technology::ispd9().gcell_size();
        let rc_map = DensityMap::from_points(out.die, gcell, out.vpins.iter().map(|v| v.loc));
        for v in &mut out.vpins {
            v.rc = rc_map.density(v.loc, CONGESTION_WINDOW);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::route::route;
    use crate::suite::Suite;

    fn view(split: u8) -> SplitView {
        let spec = Suite::spec_sb1_scaled(0.005);
        let routed = route(generate(&spec).expect("valid"));
        SplitView::cut(&routed, SplitLayer::new(split).expect("valid"))
    }

    #[test]
    fn truth_is_a_perfect_matching() {
        let v = view(6);
        for i in 0..v.num_vpins() {
            let m = v.true_match(i);
            assert_ne!(m, i);
            assert_eq!(v.true_match(m), i, "matching must be an involution");
            assert_eq!(v.net_of(i), v.net_of(m), "partners share a net");
        }
    }

    #[test]
    fn matching_pairs_are_legal() {
        let v = view(6);
        for i in 0..v.num_vpins() {
            assert!(
                v.is_legal_pair(i, v.true_match(i)),
                "true pairs never short two drivers"
            );
        }
    }

    #[test]
    fn exactly_one_side_drives() {
        let v = view(4);
        for i in 0..v.num_vpins() {
            let m = v.true_match(i);
            let drives = [v.vpins()[i].drives(), v.vpins()[m].drives()];
            assert_eq!(
                drives.iter().filter(|d| **d).count(),
                1,
                "exactly one side of a cut net carries the driver"
            );
        }
    }

    #[test]
    fn vpin_counts_grow_toward_lower_layers() {
        let n8 = view(8).num_vpins();
        let n6 = view(6).num_vpins();
        let n4 = view(4).num_vpins();
        assert!(n4 > n6 && n6 > n8, "got {n4} / {n6} / {n8}");
        // Paper ratio is roughly 14 : 5 : 1.
        assert!(n6 as f64 / n8 as f64 > 3.0);
        assert!(n4 as f64 / n8 as f64 > 8.0);
    }

    #[test]
    fn split8_matches_share_y() {
        let v = view(8);
        for i in 0..v.num_vpins() {
            let m = v.true_match(i);
            assert_eq!(v.vpins()[i].loc.y, v.vpins()[m].loc.y);
        }
    }

    #[test]
    fn features_are_physical() {
        let v = view(6);
        for p in v.vpins() {
            assert!(p.wirelength >= 0);
            assert!(p.in_area >= 0 && p.out_area >= 0);
            assert!(
                p.in_area + p.out_area > 0,
                "a fragment connects at least one pin"
            );
            assert!(p.pc >= 0.0 && p.rc > 0.0);
            assert!(v.die.contains(p.loc) || v.die.clamp(p.loc) == p.loc);
        }
    }

    #[test]
    fn from_parts_enforces_the_coordinate_bound() {
        use crate::error::LayoutError;
        let v = view(8);
        let parts = |die: Rect, shift: i64| {
            let mut vpins = v.vpins().to_vec();
            vpins[0].loc.x += shift;
            let partner = (0..v.num_vpins()).map(|i| v.true_match(i) as u32).collect();
            SplitView::from_parts(v.name.clone(), v.split, die, vpins, partner)
        };
        assert!(parts(v.die, 0).is_ok());
        let edge = Rect::new(
            Point::new(-MAX_COORD, -MAX_COORD),
            Point::new(MAX_COORD, MAX_COORD),
        );
        assert!(parts(edge, 0).is_ok());
        let past = Rect::new(Point::new(0, 0), Point::new(MAX_COORD + 1, 10));
        assert!(matches!(
            parts(past, 0),
            Err(LayoutError::CoordinateOutOfRange(_))
        ));
        let far = MAX_COORD + 1 - v.vpins()[0].loc.x;
        assert!(matches!(
            parts(v.die, far),
            Err(LayoutError::CoordinateOutOfRange(_))
        ));
        assert!(parts(v.die, far - 1).is_ok());
    }

    #[test]
    fn y_noise_moves_vpins_but_keeps_truth() {
        let v = view(6);
        let sd = v.die.height() as f64 * 0.01;
        let noisy = v.with_y_noise(sd, 42);
        assert_eq!(noisy.num_vpins(), v.num_vpins());
        let moved = (0..v.num_vpins())
            .filter(|&i| noisy.vpins()[i].loc != v.vpins()[i].loc)
            .count();
        assert!(
            moved > v.num_vpins() / 2,
            "noise should displace most v-pins"
        );
        let same_x = (0..v.num_vpins()).all(|i| noisy.vpins()[i].loc.x == v.vpins()[i].loc.x);
        assert!(same_x, "only y is obfuscated");
        for i in 0..v.num_vpins() {
            assert_eq!(noisy.true_match(i), v.true_match(i));
        }
    }

    #[test]
    fn rc_reflects_local_vpin_density() {
        let v = view(4);
        // The densest v-pin should have RC well above the sparsest.
        let max = v.vpins().iter().map(|p| p.rc).fold(0.0, f64::max);
        let min = v.vpins().iter().map(|p| p.rc).fold(f64::INFINITY, f64::min);
        assert!(max > 2.0 * min, "RC spread too flat: {min}..{max}");
    }
}
