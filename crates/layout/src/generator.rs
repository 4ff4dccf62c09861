//! Synthetic design generation: placed netlists with ISPD-2011-like
//! statistics.
//!
//! The paper evaluates on five industrial `superblue` layouts. We do not
//! have those (proprietary GDSII); instead this module generates seeded
//! synthetic designs that reproduce the layout *statistics* the attack
//! features depend on:
//!
//! - row-based placement with non-uniform pin density (hotspots, macros),
//! - nets whose sinks are mostly local to the driver (placers minimise
//!   wirelength) with a heavy tail of long nets,
//! - a wide cell-area distribution (drive strengths, flip-flops, macros).
//!
//! Routing — and hence v-pin creation — lives in [`crate::route`].

use rand::prelude::*;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::cells::{CellLibrary, PinDir, ROW_HEIGHT};
use crate::error::LayoutError;
use crate::geom::{Grid, Point, Rect};
use crate::netlist::{CellId, Netlist, PinRef};
use crate::split::MAX_COORD;

/// A placement-density hotspot: cells are packed more tightly around it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hotspot {
    /// Centre, as a fraction of the die in each axis (`0.0..=1.0`).
    pub at: (f64, f64),
    /// Peak density multiplier added at the centre.
    pub amplitude: f64,
    /// Gaussian radius as a fraction of the die width.
    pub sigma: f64,
}

/// Per-split-layer cut-net targets for the router's layer assignment.
///
/// `cut at split L` = number of nets whose trunk uses a metal layer above
/// `M_L`. The three entries correspond to the split layers the paper
/// evaluates (V4, V6, V8) and must be non-increasing with height.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CutProfile {
    /// Nets cut at split layer 4 (trunk above M4).
    pub at_l4: u32,
    /// Nets cut at split layer 6.
    pub at_l6: u32,
    /// Nets cut at split layer 8 (nets using M9).
    pub at_l8: u32,
}

impl CutProfile {
    fn validate(&self, total_nets: u32) -> Result<(), LayoutError> {
        if self.at_l8 > self.at_l6 || self.at_l6 > self.at_l4 {
            return Err(LayoutError::InvalidSpec(
                "cut profile must be non-increasing with split layer".into(),
            ));
        }
        if self.at_l4 >= total_nets {
            return Err(LayoutError::InvalidSpec(format!(
                "cut profile at_l4={} must be below the net count {total_nets}",
                self.at_l4
            )));
        }
        Ok(())
    }
}

/// Full specification of a synthetic benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignSpec {
    /// Benchmark name, e.g. `sb1`.
    pub name: String,
    /// Number of standard-cell instances.
    pub num_cells: u32,
    /// Number of two-terminal-or-more nets.
    pub num_nets: u32,
    /// Number of hard macros.
    pub num_macros: u32,
    /// Target placement density (cell area / die area), `0 < d < 1`.
    pub density: f64,
    /// Die aspect ratio (width / height).
    pub aspect: f64,
    /// Placement hotspots.
    pub hotspots: Vec<Hotspot>,
    /// Fraction of net sinks drawn from the driver's locality (the rest
    /// are Pareto-tailed "global" sinks forming the long-net tail).
    pub locality: f64,
    /// Locality radius as a fraction of die width.
    pub locality_radius: f64,
    /// Mean fanout (sinks per net); sampled geometrically, capped at 6.
    pub mean_fanout: f64,
    /// Router layer-assignment targets.
    pub cuts: CutProfile,
    /// Base router jitter in DBU: how far via stacks and corners stray from
    /// their ideal locations in an uncongested region.
    pub jitter: i64,
    /// How strongly local congestion amplifies the jitter.
    pub congestion_jitter: f64,
    /// Probability that a trunk is routed as a Z (detour) rather than an L.
    pub z_shape_prob: f64,
    /// RNG seed; two builds with the same spec are identical.
    pub seed: u64,
}

impl DesignSpec {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidSpec`] on zero cells/nets, densities
    /// outside `(0, 1)`, or an inconsistent cut profile.
    pub fn validate(&self) -> Result<(), LayoutError> {
        if self.num_cells < 2 {
            return Err(LayoutError::InvalidSpec("need at least two cells".into()));
        }
        if self.num_nets == 0 {
            return Err(LayoutError::InvalidSpec("need at least one net".into()));
        }
        if !(self.density > 0.0 && self.density < 1.0) {
            return Err(LayoutError::InvalidSpec(format!(
                "density {} outside (0, 1)",
                self.density
            )));
        }
        if !(self.aspect > 0.1 && self.aspect < 10.0) {
            return Err(LayoutError::InvalidSpec(format!(
                "extreme aspect {}",
                self.aspect
            )));
        }
        self.cuts.validate(self.num_nets)?;
        Ok(())
    }
}

/// A generated, placed (but unrouted) design.
#[derive(Debug, Clone)]
pub struct PlacedDesign {
    /// The spec this design was generated from.
    pub spec: DesignSpec,
    /// Placed netlist.
    pub netlist: Netlist,
    /// Die bounds.
    pub die: Rect,
}

/// Generates and places a design from its spec.
///
/// # Errors
///
/// Returns [`LayoutError::InvalidSpec`] if the spec fails validation or
/// sizes a die side longer than a quarter of
/// [`crate::split::MAX_COORD`].
///
/// # Examples
///
/// ```
/// use sm_layout::generator::{generate, DesignSpec};
/// use sm_layout::suite::Suite;
///
/// let spec = Suite::spec_sb1_scaled(0.01);
/// let design = generate(&spec)?;
/// assert_eq!(design.netlist.num_nets() as u32, spec.num_nets);
/// # Ok::<(), sm_layout::error::LayoutError>(())
/// ```
pub fn generate(spec: &DesignSpec) -> Result<PlacedDesign, LayoutError> {
    spec.validate()?;
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let library = CellLibrary::standard();
    let mut netlist = Netlist::new(library);

    let die = size_die(spec, netlist.library())?;
    let macro_rects = place_macros(spec, &mut netlist, die, &mut rng);
    place_cells(spec, &mut netlist, die, &macro_rects, &mut rng);
    generate_nets(spec, &mut netlist, die, &mut rng)?;

    Ok(PlacedDesign {
        spec: spec.clone(),
        netlist,
        die,
    })
}

/// Longest die side `generate` accepts, in DBU: a quarter of
/// [`MAX_COORD`], so every via and pin of the placed and routed design,
/// which lie in or beside the die, keeps within the bound of a
/// [`crate::SplitView`].
const MAX_DIE_SIDE: i64 = MAX_COORD / 4;

/// Picks die dimensions so that total cell area / die area ≈ `spec.density`.
fn size_die(spec: &DesignSpec, library: &CellLibrary) -> Result<Rect, LayoutError> {
    let std_ids = library.standard_kind_ids();
    let mean_area: f64 = std_ids
        .iter()
        .map(|&id| library.kind(id).area() as f64)
        .sum::<f64>()
        / std_ids.len() as f64;
    let macro_area: f64 = library
        .macro_kind_ids()
        .iter()
        .map(|&id| library.kind(id).area() as f64)
        .sum::<f64>()
        / library.macro_kind_ids().len().max(1) as f64;
    let total = mean_area * f64::from(spec.num_cells) + macro_area * f64::from(spec.num_macros);
    let die_area = total / spec.density;
    let h = (die_area / spec.aspect).sqrt();
    let w = h * spec.aspect;
    if !(w.ceil() <= MAX_DIE_SIDE as f64 && h.ceil() <= MAX_DIE_SIDE as f64) {
        return Err(LayoutError::InvalidSpec(format!(
            "die of {w:.0} x {h:.0} DBU exceeds {MAX_DIE_SIDE} DBU a side"
        )));
    }
    // Round height to a whole number of rows.
    let rows = ((h / ROW_HEIGHT as f64).ceil() as i64).max(4);
    Ok(Rect::with_size(w.ceil() as i64, rows * ROW_HEIGHT))
}

fn place_macros(
    spec: &DesignSpec,
    netlist: &mut Netlist,
    die: Rect,
    rng: &mut ChaCha8Rng,
) -> Vec<Rect> {
    let macro_ids = netlist.library().macro_kind_ids();
    let mut rects = Vec::new();
    if macro_ids.is_empty() {
        return rects;
    }
    for _ in 0..spec.num_macros {
        let kind = macro_ids[rng.gen_range(0..macro_ids.len())];
        let (w, h) = {
            let k = netlist.library().kind(kind);
            (k.width, k.height)
        };
        if die.width() <= w || die.height() <= h {
            continue; // die too small for this macro; skip rather than fail
        }
        // Bias macros toward the die periphery, as floorplanners do.
        let x = if rng.gen_bool(0.5) {
            rng.gen_range(0..die.width() / 4)
        } else {
            die.width() - w - rng.gen_range(0..die.width() / 4).min(die.width() - w)
        };
        let y = ((rng.gen_range(0..die.height() - h) / ROW_HEIGHT) * ROW_HEIGHT).max(0);
        let id = netlist.add_cell(kind);
        netlist.place_cell(id, Point::new(x, y));
        rects.push(Rect::new(Point::new(x, y), Point::new(x + w, y + h)));
    }
    rects
}

/// Density multiplier at a point from the hotspot field.
fn intensity(spec: &DesignSpec, die: Rect, x: i64, y: i64) -> f64 {
    let mut v = 1.0;
    for h in &spec.hotspots {
        let cx = die.lo.x as f64 + h.at.0 * die.width() as f64;
        let cy = die.lo.y as f64 + h.at.1 * die.height() as f64;
        let dx = x as f64 - cx;
        let dy = y as f64 - cy;
        let s = h.sigma * die.width() as f64;
        v += h.amplitude * (-(dx * dx + dy * dy) / (2.0 * s * s)).exp();
    }
    v
}

fn place_cells(
    spec: &DesignSpec,
    netlist: &mut Netlist,
    die: Rect,
    macro_rects: &[Rect],
    rng: &mut ChaCha8Rng,
) {
    let std_ids = netlist.library().standard_kind_ids();
    let rows = (die.height() / ROW_HEIGHT) as usize;
    // Mean free gap required to fit num_cells at the target density given
    // hotspot-modulated local gaps.
    let mean_width: f64 = std_ids
        .iter()
        .map(|&id| netlist.library().kind(id).width as f64)
        .sum::<f64>()
        / std_ids.len() as f64;
    let row_capacity_target = f64::from(spec.num_cells) / rows as f64;
    let base_gap = ((die.width() as f64 / row_capacity_target) - mean_width).max(mean_width * 0.05);

    let mut placed = 0u32;
    let mut row = 0usize;
    // Weighted kind choice: small gates common, big gates and FFs rarer.
    let weights: Vec<f64> = std_ids
        .iter()
        .map(|&id| 1.0 / (netlist.library().kind(id).width as f64).sqrt())
        .collect();
    let total_w: f64 = weights.iter().sum();
    let pick_kind = |rng: &mut ChaCha8Rng| {
        let mut t = rng.gen_range(0.0..total_w);
        for (i, w) in weights.iter().enumerate() {
            if t < *w {
                return std_ids[i];
            }
            t -= w;
        }
        std_ids[std_ids.len() - 1]
    };

    'outer: while placed < spec.num_cells {
        let y = (row % rows) as i64 * ROW_HEIGHT;
        let mut x = die.lo.x + rng.gen_range(0..base_gap.max(1.0) as i64 + 1);
        while x < die.hi.x && placed < spec.num_cells {
            let kind = pick_kind(rng);
            let w = netlist.library().kind(kind).width;
            if x + w >= die.hi.x {
                break;
            }
            let here = Point::new(x, y);
            let blocked = macro_rects.iter().any(|r| r.contains(here));
            if !blocked {
                let id = netlist.add_cell(kind);
                netlist.place_cell(id, here);
                placed += 1;
            }
            let gap = base_gap / intensity(spec, die, x, y);
            x += w + rng.gen_range(0.0..=gap.max(1.0)) as i64 + 1;
        }
        row += 1;
        if row > rows * 64 {
            break 'outer; // safety valve: die saturated below target count
        }
    }
}

/// Generates nets with local/global sink mixture over the placed cells.
fn generate_nets(
    spec: &DesignSpec,
    netlist: &mut Netlist,
    die: Rect,
    rng: &mut ChaCha8Rng,
) -> Result<(), LayoutError> {
    let n_cells = netlist.num_cells();
    if n_cells < 2 {
        return Err(LayoutError::InvalidSpec(
            "placement produced fewer than two cells".into(),
        ));
    }
    // Spatial index of cells for locality queries.
    let gcell = (die.width() / 64).max(ROW_HEIGHT);
    let grid = Grid::new(die, gcell);
    let mut buckets: Vec<Vec<CellId>> = vec![Vec::new(); grid.len()];
    for id in netlist.cell_ids().collect::<Vec<_>>() {
        let loc = netlist.pin_location(PinRef {
            cell: id,
            dir: PinDir::Output,
        });
        buckets[grid.flat_of(loc)].push(id);
    }
    let radius = (spec.locality_radius * die.width() as f64) as i64;
    let radius_cells = ((radius / gcell) as usize).max(1);

    for _ in 0..spec.num_nets {
        let driver_cell = CellId(rng.gen_range(0..n_cells as u32));
        let driver_loc = netlist.pin_location(PinRef {
            cell: driver_cell,
            dir: PinDir::Output,
        });
        // Geometric fanout with mean ≈ mean_fanout, capped at 6.
        let p = 1.0 / spec.mean_fanout.max(1.0);
        let mut fanout = 1usize;
        while fanout < 6 && rng.gen_bool(1.0 - p) {
            fanout += 1;
        }
        let mut sinks = Vec::with_capacity(fanout);
        let mut guard = 0;
        while sinks.len() < fanout && guard < fanout * 20 {
            guard += 1;
            let cand = if rng.gen_bool(spec.locality) {
                // Local sink: random cell from the neighbourhood window.
                let window: Vec<usize> = grid.window(driver_loc, radius_cells).collect();
                let b = &buckets[window[rng.gen_range(0..window.len())]];
                if b.is_empty() {
                    continue;
                }
                b[rng.gen_range(0..b.len())]
            } else {
                // Global sink: Pareto-tailed distance kernel. Real net-length
                // distributions decay as a power law — even the longest few
                // percent of nets span a modest fraction of the die, not the
                // whole of it.
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let dist = (radius as f64 * u.powf(-1.0 / 1.5)).min(die.width() as f64 * 0.9);
                let angle = rng.gen_range(0.0..std::f64::consts::TAU);
                let target = die.clamp(Point::new(
                    driver_loc.x + (dist * angle.cos()) as i64,
                    driver_loc.y + (dist * angle.sin()) as i64,
                ));
                let b = &buckets[grid.flat_of(target)];
                if b.is_empty() {
                    continue;
                }
                b[rng.gen_range(0..b.len())]
            };
            if cand == driver_cell || sinks.iter().any(|s: &PinRef| s.cell == cand) {
                continue;
            }
            sinks.push(PinRef {
                cell: cand,
                dir: PinDir::Input,
            });
        }
        if sinks.is_empty() {
            // Degenerate fallback: connect to any other cell.
            let other = CellId((driver_cell.0 + 1) % n_cells as u32);
            sinks.push(PinRef {
                cell: other,
                dir: PinDir::Input,
            });
        }
        netlist.add_net(
            PinRef {
                cell: driver_cell,
                dir: PinDir::Output,
            },
            sinks,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::hpwl;
    use crate::suite::Suite;

    fn small_spec() -> DesignSpec {
        let mut s = Suite::spec_sb1_scaled(0.005);
        s.name = "test".into();
        s
    }

    #[test]
    fn generate_is_deterministic() {
        let spec = small_spec();
        let a = generate(&spec).expect("valid spec");
        let b = generate(&spec).expect("valid spec");
        assert_eq!(a.netlist.num_cells(), b.netlist.num_cells());
        let ca = a
            .netlist
            .cell_ids()
            .map(|id| a.netlist.cell(id).origin)
            .collect::<Vec<_>>();
        let cb = b
            .netlist
            .cell_ids()
            .map(|id| b.netlist.cell(id).origin)
            .collect::<Vec<_>>();
        assert_eq!(ca, cb);
    }

    #[test]
    fn seeds_differentiate_designs() {
        let spec = small_spec();
        let mut spec2 = spec.clone();
        spec2.seed ^= 0xdead_beef;
        let a = generate(&spec).expect("valid spec");
        let b = generate(&spec2).expect("valid spec");
        let ca: Vec<_> = a
            .netlist
            .cell_ids()
            .map(|id| a.netlist.cell(id).origin)
            .collect();
        let cb: Vec<_> = b
            .netlist
            .cell_ids()
            .map(|id| b.netlist.cell(id).origin)
            .collect();
        assert_ne!(ca, cb);
    }

    #[test]
    fn cells_stay_inside_die() {
        let d = generate(&small_spec()).expect("valid spec");
        for id in d.netlist.cell_ids() {
            let c = d.netlist.cell(id);
            let k = d.netlist.library().kind(c.kind);
            assert!(c.origin.x >= d.die.lo.x);
            assert!(c.origin.x + k.width <= d.die.hi.x, "cell sticks out in x");
            assert!(c.origin.y >= d.die.lo.y && c.origin.y + k.height <= d.die.hi.y + k.height);
        }
    }

    #[test]
    fn most_nets_are_local() {
        let d = generate(&small_spec()).expect("valid spec");
        let radius = (d.spec.locality_radius * d.die.width() as f64) as i64;
        let mut local = 0usize;
        for id in d.netlist.net_ids() {
            let pts = d.netlist.net_pin_locations(id);
            if hpwl(&pts) <= 4 * radius {
                local += 1;
            }
        }
        let frac = local as f64 / d.netlist.num_nets() as f64;
        assert!(frac > 0.5, "only {frac:.2} of nets are local");
    }

    #[test]
    fn net_length_distribution_has_a_long_tail() {
        let d = generate(&small_spec()).expect("valid spec");
        let mut lens: Vec<i64> = d
            .netlist
            .net_ids()
            .map(|id| hpwl(&d.netlist.net_pin_locations(id)))
            .collect();
        lens.sort_unstable();
        let median = lens[lens.len() / 2];
        let p99 = lens[lens.len() * 99 / 100];
        assert!(
            p99 > 2 * median.max(1),
            "no long-net tail: median {median}, p99 {p99}"
        );
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut s = small_spec();
        s.density = 1.5;
        assert!(generate(&s).is_err());
        let mut s = small_spec();
        s.cuts.at_l8 = s.cuts.at_l4 + 1;
        assert!(s.validate().is_err());
        let mut s = small_spec();
        s.cuts.at_l4 = s.num_nets;
        assert!(s.validate().is_err());
        let mut s = small_spec();
        s.num_cells = 1;
        assert!(s.validate().is_err());
        // A die past the coordinate bound is refused before placement.
        let mut s = small_spec();
        s.density = 1e-12;
        assert!(matches!(generate(&s), Err(LayoutError::InvalidSpec(m)) if m.contains("exceeds")));
    }

    #[test]
    fn hotspots_create_density_contrast() {
        let mut spec = small_spec();
        spec.hotspots = vec![Hotspot {
            at: (0.25, 0.5),
            amplitude: 6.0,
            sigma: 0.08,
        }];
        let d = generate(&spec).expect("valid spec");
        let die = d.die;
        use crate::congestion::DensityMap;
        let pins = d.netlist.cell_ids().map(|id| {
            d.netlist.pin_location(crate::netlist::PinRef {
                cell: id,
                dir: PinDir::Output,
            })
        });
        let map = DensityMap::from_points(die, die.width() / 16, pins);
        let hot = map.density(
            Point::new(die.lo.x + die.width() / 4, die.lo.y + die.height() / 2),
            1,
        );
        let cold = map.density(
            Point::new(
                die.lo.x + 15 * die.width() / 16,
                die.lo.y + die.height() / 8,
            ),
            1,
        );
        assert!(
            hot > cold,
            "hotspot density {hot:.2} not above background {cold:.2}"
        );
    }
}
