//! Congestion-driven multi-layer global routing.
//!
//! The router implements the behaviour the paper identifies as decisive for
//! split-manufacturing security (Section II-B): a *minimum* number of layers
//! is used per net, long nets are promoted to the upper (wider, sparser)
//! layers, and congestion displaces wires from their ideal positions.
//!
//! ## Route model
//!
//! Every net is routed as two *escape stacks* plus a *trunk* on an adjacent
//! layer pair `(Mₐ, Mₐ₊₁)`:
//!
//! ```text
//!             trunk on Mₐ / Mₐ₊₁  (L- or Z-shape)
//!        ┌────────────corner────────────┐
//!   stack A (vias M1..Mₐ)          stack B (vias M1..Mₐ₊₁)
//!        │                              │
//!    side-A pins                    side-B pins
//! ```
//!
//! Cutting the layout at via layer `V_L` breaks exactly the nets whose
//! trunk pair lies above `M_L` (i.e. `a >= L`), producing two v-pins per cut
//! net — at the stack locations when `L < a`, or at the trunk corner/jog
//! vias when `L = a`. This reproduces the paper's observations that v-pin
//! counts grow several-fold toward lower split layers and that split layer 8
//! pairs are collinear along the top layer's routing direction.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::congestion::{DemandMap, DensityMap};
use crate::generator::PlacedDesign;
use crate::geom::{hpwl, Point, Rect};
use crate::netlist::{NetId, Netlist, PinRef};
use crate::tech::{Direction, SplitLayer, Technology};

/// Which side of the trunk a v-pin's below-split fragments attach to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Side {
    /// The driver-side endpoint.
    A,
    /// The sink-cluster endpoint.
    B,
}

/// Trunk shape of a routed net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrunkShape {
    /// Single corner: run on `Mₐ` from A, turn once onto `Mₐ₊₁` to B.
    LShape,
    /// Detour: run on `Mₐ`, jog onto `Mₐ₊₁` at an intermediate coordinate,
    /// come back down to `Mₐ` and finish. Both trunk vias sit at the jog
    /// coordinate. `mid` is that coordinate along `Mₐ₊₁`'s direction axis.
    ZShape {
        /// The jog coordinate along `Mₐ`'s running axis.
        mid: i64,
    },
}

/// The pins attached below the split on one trunk side.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SideInfo {
    /// Pin references on this side.
    pub pins: Vec<PinRef>,
    /// Whether the net's driver is on this side.
    pub has_driver: bool,
}

/// One via crossing of a net at a particular via layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Crossing {
    /// Location of the via on the split plane.
    pub loc: Point,
    /// Which endpoint's below-split fragments this via attaches to.
    pub side: Side,
    /// Extra below-split trunk wirelength attached to this via (the part of
    /// the `Mₐ` run that lies below the split when the split is at `Vₐ`).
    pub below_trunk_len: i64,
}

/// A fully routed net.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutedNet {
    /// The underlying net.
    pub net: NetId,
    /// Lower metal layer of the trunk pair (`a` in `(Mₐ, Mₐ₊₁)`); the net
    /// uses metals `1..=a+1`.
    pub trunk_low: u8,
    /// Trunk shape.
    pub shape: TrunkShape,
    /// Via-stack location above the driver-side pins.
    pub a_stack: Point,
    /// Via-stack location above the sink-side pins.
    pub b_stack: Point,
    /// Driver-side pins.
    pub side_a: SideInfo,
    /// Sink-side pins.
    pub side_b: SideInfo,
}

impl RoutedNet {
    /// Whether cutting at `split` breaks this net.
    pub fn is_cut_by(&self, split: SplitLayer) -> bool {
        self.trunk_low >= split.via_index()
    }

    /// The two via crossings of this net at `split`, or `None` if the net is
    /// entirely below the split. `tech` supplies layer directions.
    pub fn crossings(&self, split: SplitLayer, tech: &Technology) -> Option<[Crossing; 2]> {
        if !self.is_cut_by(split) {
            return None;
        }
        let v = split.via_index();
        if v < self.trunk_low {
            // Both crossings are inside the escape stacks.
            return Some([
                Crossing {
                    loc: self.a_stack,
                    side: Side::A,
                    below_trunk_len: 0,
                },
                Crossing {
                    loc: self.b_stack,
                    side: Side::B,
                    below_trunk_len: 0,
                },
            ]);
        }
        // v == trunk_low: the crossings are the trunk vias.
        let dir_low = tech.metal(self.trunk_low).direction;
        match self.shape {
            TrunkShape::LShape => {
                // Run on M_a from a_stack covers the low layer's axis; the
                // corner carries b_stack's coordinate on that axis and
                // a_stack's on the other.
                let corner = match dir_low {
                    Direction::Horizontal => Point::new(self.b_stack.x, self.a_stack.y),
                    Direction::Vertical => Point::new(self.a_stack.x, self.b_stack.y),
                };
                let below_a = self.a_stack.manhattan(corner);
                Some([
                    Crossing {
                        loc: corner,
                        side: Side::A,
                        below_trunk_len: below_a,
                    },
                    Crossing {
                        loc: self.b_stack,
                        side: Side::B,
                        below_trunk_len: 0,
                    },
                ])
            }
            TrunkShape::ZShape { mid } => {
                // Two jog vias at the `mid` coordinate along M_a's running
                // axis: x for a horizontal low layer, y for a vertical one.
                let (j1, j2) = match dir_low {
                    Direction::Horizontal => (
                        Point::new(mid, self.a_stack.y),
                        Point::new(mid, self.b_stack.y),
                    ),
                    Direction::Vertical => (
                        Point::new(self.a_stack.x, mid),
                        Point::new(self.b_stack.x, mid),
                    ),
                };
                let below_a = self.a_stack.manhattan(j1);
                let below_b = self.b_stack.manhattan(j2);
                Some([
                    Crossing {
                        loc: j1,
                        side: Side::A,
                        below_trunk_len: below_a,
                    },
                    Crossing {
                        loc: j2,
                        side: Side::B,
                        below_trunk_len: below_b,
                    },
                ])
            }
        }
    }

    /// The side-info for a given side.
    pub fn side(&self, side: Side) -> &SideInfo {
        match side {
            Side::A => &self.side_a,
            Side::B => &self.side_b,
        }
    }

    /// Stack location of a given side.
    pub fn stack(&self, side: Side) -> Point {
        match side {
            Side::A => self.a_stack,
            Side::B => self.b_stack,
        }
    }
}

/// A placed-and-routed design: the input to split-view extraction.
#[derive(Debug, Clone)]
pub struct RoutedDesign {
    /// Benchmark name.
    pub name: String,
    /// The netlist with placement.
    pub netlist: Netlist,
    /// Die bounds.
    pub die: Rect,
    /// Process technology.
    pub tech: Technology,
    /// One routed record per net (index = net id).
    pub routed: Vec<RoutedNet>,
    /// Placement pin-density map (used for the `PC` feature).
    pub pin_density: DensityMap,
}

impl RoutedDesign {
    /// Number of nets cut at `split`.
    pub fn cut_count(&self, split: SplitLayer) -> usize {
        self.routed.iter().filter(|r| r.is_cut_by(split)).count()
    }
}

/// Routes a placed design.
///
/// Layer assignment is rank-based: nets are ordered by congestion-jittered
/// HPWL and the longest `cuts.at_l8` nets get trunk pair `(M8, M9)`, the
/// next band pairs `(M6, M7)`/`(M7, M8)`, and so on per the spec's
/// [`crate::generator::CutProfile`]. Stack and corner positions are
/// displaced by congestion-scaled jitter accumulated in a [`DemandMap`].
///
/// # Examples
///
/// ```
/// use sm_layout::generator::generate;
/// use sm_layout::route::route;
/// use sm_layout::suite::Suite;
/// use sm_layout::tech::SplitLayer;
///
/// let spec = Suite::spec_sb1_scaled(0.01);
/// let routed = route(generate(&spec)?);
/// let l8 = SplitLayer::new(8)?;
/// assert!(routed.cut_count(l8) > 0);
/// # Ok::<(), sm_layout::error::LayoutError>(())
/// ```
pub fn route(placed: PlacedDesign) -> RoutedDesign {
    let PlacedDesign { spec, netlist, die } = placed;
    let tech = Technology::ispd9();
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed.wrapping_mul(0x9e37_79b9).wrapping_add(7));

    // --- Layer assignment by jittered length rank -------------------------
    let n_nets = netlist.num_nets();
    let mut keyed: Vec<(f64, NetId)> = netlist
        .net_ids()
        .map(|id| {
            let len = hpwl(&netlist.net_pin_locations(id)).max(1) as f64;
            let jitter: f64 = rng.gen_range(-0.35..0.35f64);
            (len * jitter.exp(), id)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

    let c = &spec.cuts;
    let mut trunk_low_of = vec![0u8; n_nets];
    for (rank, &(_, id)) in keyed.iter().enumerate() {
        let r = rank as u32;
        let low = if r < c.at_l8 {
            8
        } else if r < c.at_l6 {
            // Routers take the lowest feasible layer, so within a band the
            // lower pair dominates.
            if rng.gen_bool(0.65) {
                6
            } else {
                7
            }
        } else if r < c.at_l4 {
            if rng.gen_bool(0.65) {
                4
            } else {
                5
            }
        } else {
            // Below-split nets: mostly the bottom pairs, congestion pushes a
            // few up to M3.
            *[1u8, 1, 2, 2, 2, 3]
                .get(rng.gen_range(0..6usize))
                .expect("non-empty")
        };
        trunk_low_of[id.0 as usize] = low;
    }

    // --- Demand-aware trunk construction ----------------------------------
    let caps: Vec<u32> = (1..=tech.num_metal_layers())
        .map(|m| tech.gcell_capacity(m))
        .collect();
    let mut demand = DemandMap::new(die, tech.gcell_size(), tech.num_metal_layers(), caps);

    // Route in descending length order so long nets set the congestion
    // context the short nets detour around.
    let mut routed: Vec<Option<RoutedNet>> = vec![None; n_nets];
    for &(_, id) in &keyed {
        let rn = route_net(
            &netlist,
            id,
            trunk_low_of[id.0 as usize],
            &spec,
            die,
            &tech,
            &mut demand,
            &mut rng,
        );
        routed[id.0 as usize] = Some(rn);
    }
    let routed: Vec<RoutedNet> = routed
        .into_iter()
        .map(|r| r.expect("every net routed"))
        .collect();

    // --- Placement pin density (PC feature source) ------------------------
    let mut pin_density = DensityMap::new(die, tech.gcell_size());
    for id in netlist.net_ids() {
        for loc in netlist.net_pin_locations(id) {
            pin_density.add(loc);
        }
    }

    RoutedDesign {
        name: spec.name.clone(),
        netlist,
        die,
        tech,
        routed,
        pin_density,
    }
}

#[allow(clippy::too_many_arguments)]
fn route_net(
    netlist: &Netlist,
    id: NetId,
    trunk_low: u8,
    spec: &crate::generator::DesignSpec,
    die: Rect,
    tech: &Technology,
    demand: &mut DemandMap,
    rng: &mut ChaCha8Rng,
) -> RoutedNet {
    let net = netlist.net(id);
    let driver = net.driver;
    let driver_loc = netlist.pin_location(driver);

    // Partition sinks: those close to the driver stay on side A (routed in
    // the local below-trunk tree); the rest form side B.
    let pts: Vec<Point> = net.pins().map(|p| netlist.pin_location(p)).collect();
    let span = hpwl(&pts).max(1);
    let near = span / 4;
    let mut side_a = SideInfo {
        pins: vec![driver],
        has_driver: true,
    };
    let mut side_b = SideInfo {
        pins: Vec::new(),
        has_driver: false,
    };
    for &s in &net.sinks {
        if netlist.pin_location(s).manhattan(driver_loc) <= near {
            side_a.pins.push(s);
        } else {
            side_b.pins.push(s);
        }
    }
    if side_b.pins.is_empty() {
        // Keep the trunk meaningful: move the farthest sink to side B.
        let far = side_a.pins[1..]
            .iter()
            .copied()
            .max_by_key(|p| netlist.pin_location(*p).manhattan(driver_loc));
        if let Some(far) = far {
            side_a.pins.retain(|p| *p != far);
            side_b.pins.push(far);
        } else {
            // Single-pin side-A nets cannot happen (netlist validates >= 1
            // sink), but stay safe.
            side_b.pins.push(driver);
        }
    }

    let centroid = |pins: &[PinRef]| -> Point {
        let mut sx = 0i64;
        let mut sy = 0i64;
        for p in pins {
            let l = netlist.pin_location(*p);
            sx += l.x;
            sy += l.y;
        }
        Point::new(sx / pins.len() as i64, sy / pins.len() as i64)
    };

    // Congestion-scaled jitter displaces the escape stacks from the pin
    // centroids, like a real router hunting for free tracks.
    let jittered = |p: Point, rng: &mut ChaCha8Rng| -> Point {
        let util = demand.peak_utilisation(p);
        let sigma = spec.jitter as f64 * (1.0 + spec.congestion_jitter * util);
        let dx = sample_gauss(rng) * sigma;
        let dy = sample_gauss(rng) * sigma;
        die.clamp(Point::new(p.x + dx as i64, p.y + dy as i64))
    };

    // Trunk vias sit at track intersections: x snaps to the vertical trunk
    // layer's pitch, y to the horizontal one's. Distinct nets can therefore
    // share a track — the effect the paper's DiffVpinY limit exploits at
    // the top layer.
    let dir_low = tech.metal(trunk_low).direction;
    let (h_layer, v_layer) = match dir_low {
        Direction::Horizontal => (trunk_low, trunk_low + 1),
        Direction::Vertical => (trunk_low + 1, trunk_low),
    };
    let snap = |c: i64, pitch: i64| -> i64 { ((c + pitch / 2) / pitch) * pitch };
    // The wide top layers route in coarse track bundles over channels, so
    // distinct nets share tracks much more often there — which is exactly
    // what keeps the top split layer's same-track candidate pool non-trivial.
    let bundle = |m: u8| -> i64 {
        if m >= 7 {
            3 * tech.metal(m).pitch
        } else {
            tech.metal(m).pitch
        }
    };
    let on_track = |p: Point| -> Point {
        die.clamp(Point::new(
            snap(p.x, bundle(v_layer)),
            snap(p.y, bundle(h_layer)),
        ))
    };
    let a_stack = on_track(jittered(centroid(&side_a.pins), rng));
    let b_stack = on_track(jittered(centroid(&side_b.pins), rng));

    // Shape choice: congestion at the would-be corner raises the detour
    // probability.
    let corner = match dir_low {
        Direction::Horizontal => Point::new(b_stack.x, a_stack.y),
        Direction::Vertical => Point::new(a_stack.x, b_stack.y),
    };
    let corner_util = demand.peak_utilisation(corner);
    let z_prob = (spec.z_shape_prob * (1.0 + corner_util)).min(0.9);
    let shape = if rng.gen_bool(z_prob) {
        // Jog somewhere strictly between the endpoints on M_a's axis,
        // snapped onto a track of the jog layer (M_{a+1}).
        let (lo, hi) = match dir_low {
            Direction::Horizontal => (a_stack.x.min(b_stack.x), a_stack.x.max(b_stack.x)),
            Direction::Vertical => (a_stack.y.min(b_stack.y), a_stack.y.max(b_stack.y)),
        };
        let jog_pitch = tech.metal(trunk_low + 1).pitch;
        let mid = snap(rng.gen_range(lo..=hi), jog_pitch);
        if mid > lo && mid < hi {
            TrunkShape::ZShape { mid }
        } else {
            TrunkShape::LShape
        }
    } else {
        TrunkShape::LShape
    };

    // Record demand along the trunk.
    match shape {
        TrunkShape::LShape => {
            demand.add_segment(trunk_low, a_stack, corner);
            demand.add_segment(trunk_low + 1, corner, b_stack);
        }
        TrunkShape::ZShape { mid } => {
            let (j1, j2) = match dir_low {
                Direction::Horizontal => (Point::new(mid, a_stack.y), Point::new(mid, b_stack.y)),
                Direction::Vertical => (Point::new(a_stack.x, mid), Point::new(b_stack.x, mid)),
            };
            demand.add_segment(trunk_low, a_stack, j1);
            demand.add_segment(trunk_low + 1, j1, j2);
            demand.add_segment(trunk_low, j2, b_stack);
        }
    }

    RoutedNet {
        net: id,
        trunk_low,
        shape,
        a_stack,
        b_stack,
        side_a,
        side_b,
    }
}

/// Standard-normal sample via Box–Muller (avoids a rand_distr dependency).
pub(crate) fn sample_gauss(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::suite::Suite;

    fn routed_small() -> RoutedDesign {
        let spec = Suite::spec_sb1_scaled(0.005);
        route(generate(&spec).expect("valid spec"))
    }

    #[test]
    fn cut_counts_are_monotone_and_near_targets() {
        let d = routed_small();
        let spec = Suite::spec_sb1_scaled(0.005);
        let l4 = d.cut_count(SplitLayer::new(4).expect("valid"));
        let l6 = d.cut_count(SplitLayer::new(6).expect("valid"));
        let l8 = d.cut_count(SplitLayer::new(8).expect("valid"));
        assert!(l4 >= l6 && l6 >= l8, "cuts must shrink with height");
        assert_eq!(l8 as u32, spec.cuts.at_l8);
        assert_eq!(l6 as u32, spec.cuts.at_l6);
        assert_eq!(l4 as u32, spec.cuts.at_l4);
    }

    #[test]
    fn split8_crossings_are_collinear_along_m9() {
        // M9 is horizontal, so matching v-pins at split 8 share a y.
        let d = routed_small();
        let split = SplitLayer::new(8).expect("valid");
        let mut seen = 0;
        for rn in &d.routed {
            if let Some([c1, c2]) = rn.crossings(split, &d.tech) {
                assert_eq!(c1.loc.y, c2.loc.y, "split-8 pair must share y");
                seen += 1;
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn stack_crossings_used_below_trunk() {
        let d = routed_small();
        let split = SplitLayer::new(4).expect("valid");
        for rn in &d.routed {
            if rn.trunk_low > 4 {
                let [c1, c2] = rn.crossings(split, &d.tech).expect("cut");
                assert_eq!(c1.loc, rn.a_stack);
                assert_eq!(c2.loc, rn.b_stack);
                assert_eq!(c1.below_trunk_len, 0);
            }
        }
    }

    #[test]
    fn uncut_nets_have_no_crossings() {
        let d = routed_small();
        let split = SplitLayer::new(8).expect("valid");
        for rn in &d.routed {
            if rn.trunk_low < 8 {
                assert!(rn.crossings(split, &d.tech).is_none());
            }
        }
    }

    #[test]
    fn sides_partition_net_pins() {
        let d = routed_small();
        for rn in &d.routed {
            let net = d.netlist.net(rn.net);
            assert_eq!(rn.side_a.pins.len() + rn.side_b.pins.len(), net.degree());
            assert!(rn.side_a.has_driver);
            assert!(!rn.side_b.has_driver || rn.side_b.pins.len() == 1);
            assert!(!rn.side_b.pins.is_empty(), "side B never empty");
        }
    }

    #[test]
    fn long_nets_route_higher() {
        let d = routed_small();
        let mut hi = Vec::new();
        let mut lo = Vec::new();
        for rn in &d.routed {
            let len = hpwl(&d.netlist.net_pin_locations(rn.net));
            if rn.trunk_low >= 8 {
                hi.push(len);
            } else if rn.trunk_low <= 2 {
                lo.push(len);
            }
        }
        let mean = |v: &[i64]| v.iter().sum::<i64>() as f64 / v.len().max(1) as f64;
        assert!(
            mean(&hi) > 2.0 * mean(&lo),
            "top-layer nets should be much longer"
        );
    }

    #[test]
    fn z_shape_mid_lies_between_endpoints() {
        let d = routed_small();
        for rn in &d.routed {
            if let TrunkShape::ZShape { mid } = rn.shape {
                let dir = d.tech.metal(rn.trunk_low).direction;
                let (lo, hi) = match dir {
                    Direction::Horizontal => (
                        rn.a_stack.x.min(rn.b_stack.x),
                        rn.a_stack.x.max(rn.b_stack.x),
                    ),
                    Direction::Vertical => (
                        rn.a_stack.y.min(rn.b_stack.y),
                        rn.a_stack.y.max(rn.b_stack.y),
                    ),
                };
                assert!(mid > lo && mid < hi);
            }
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let spec = Suite::spec_sb1_scaled(0.005);
        let a = route(generate(&spec).expect("valid"));
        let b = route(generate(&spec).expect("valid"));
        assert_eq!(a.routed, b.routed);
    }
}
