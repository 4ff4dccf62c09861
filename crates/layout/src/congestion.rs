//! Density maps used for the congestion features.
//!
//! The paper's two congestion features (Section III-A) are
//! *placement congestion* `PC` — "the pin density around the pin that
//! connects to the target v-pin" — and *routing congestion* `RC` — "the
//! v-pin density around the target v-pin". Both are window densities over a
//! uniform g-cell grid, which this module provides.

use serde::{Deserialize, Serialize};

use crate::geom::{Grid, Point, Rect};

/// A count-per-g-cell map supporting window-density queries.
///
/// # Examples
///
/// ```
/// use sm_layout::congestion::DensityMap;
/// use sm_layout::geom::{Point, Rect};
///
/// let mut m = DensityMap::new(Rect::with_size(100, 100), 10);
/// m.add(Point::new(5, 5));
/// m.add(Point::new(6, 5));
/// assert!(m.density(Point::new(5, 5), 1) > 0.0);
/// assert_eq!(m.density(Point::new(95, 95), 1), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DensityMap {
    grid: Grid,
    counts: Vec<u32>,
    total: u64,
}

impl DensityMap {
    /// Creates an empty map over `bounds` with square g-cells of side `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell <= 0` or `bounds` is degenerate (see [`Grid::new`]).
    pub fn new(bounds: Rect, cell: i64) -> Self {
        let grid = Grid::new(bounds, cell);
        let counts = vec![0; grid.len()];
        Self {
            grid,
            counts,
            total: 0,
        }
    }

    /// Builds a map directly from a set of points.
    pub fn from_points(bounds: Rect, cell: i64, points: impl IntoIterator<Item = Point>) -> Self {
        let mut map = Self::new(bounds, cell);
        for p in points {
            map.add(p);
        }
        map
    }

    /// Registers one object at `p` (clamped into bounds).
    pub fn add(&mut self, p: Point) {
        let idx = self.grid.flat_of(p);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Total number of registered objects.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Raw count in the window of radius `r` g-cells around `p`.
    pub fn window_count(&self, p: Point, r: usize) -> u32 {
        self.grid.window(p, r).map(|i| self.counts[i]).sum()
    }

    /// Density around `p`: objects per g-cell in the `(2r+1)²` window
    /// (normalised by the number of cells actually inside the grid, so edge
    /// windows are not artificially deflated).
    pub fn density(&self, p: Point, r: usize) -> f64 {
        let cells = self.grid.window(p, r).count();
        if cells == 0 {
            return 0.0;
        }
        f64::from(self.window_count(p, r)) / cells as f64
    }
}

/// Per-layer routing demand accumulated by the router, used to model
/// congestion-driven detours: the more demand a g-cell already carries
/// relative to its track capacity, the further the router displaces
/// subsequent wires passing through it.
#[derive(Debug, Clone)]
pub struct DemandMap {
    grid: Grid,
    /// demand[layer-1][cell]
    demand: Vec<Vec<u32>>,
    capacity: Vec<u32>,
}

impl DemandMap {
    /// Creates an all-zero demand map for `layers` metal layers with the
    /// given per-g-cell capacities (indexed by layer − 1).
    ///
    /// # Panics
    ///
    /// Panics if `capacity.len() != layers`.
    pub fn new(bounds: Rect, cell: i64, layers: u8, capacity: Vec<u32>) -> Self {
        assert_eq!(capacity.len(), layers as usize, "one capacity per layer");
        let grid = Grid::new(bounds, cell);
        let demand = (0..layers).map(|_| vec![0; grid.len()]).collect();
        Self {
            grid,
            demand,
            capacity,
        }
    }

    /// Adds one track of demand on layer `m` along the axis-aligned segment
    /// `a -> b` (inclusive of both endpoint g-cells).
    ///
    /// # Panics
    ///
    /// Panics if the segment is not axis-aligned or `m` is out of range.
    pub fn add_segment(&mut self, m: u8, a: Point, b: Point) {
        assert!(a.x == b.x || a.y == b.y, "router segments are axis-aligned");
        let layer = &mut self.demand[(m - 1) as usize];
        let (ax, ay) = self.grid.locate(a);
        let (bx, by) = self.grid.locate(b);
        let (x0, x1) = (ax.min(bx), ax.max(bx));
        let (y0, y1) = (ay.min(by), ay.max(by));
        for iy in y0..=y1 {
            for ix in x0..=x1 {
                layer[iy * self.grid.nx() + ix] += 1;
            }
        }
    }

    /// Congestion ratio (demand / capacity) at `p` on layer `m`.
    pub fn utilisation(&self, m: u8, p: Point) -> f64 {
        let idx = self.grid.flat_of(p);
        f64::from(self.demand[(m - 1) as usize][idx]) / f64::from(self.capacity[(m - 1) as usize])
    }

    /// Maximum utilisation across all layers at `p`.
    pub fn peak_utilisation(&self, p: Point) -> f64 {
        (1..=self.demand.len() as u8)
            .map(|m| self.utilisation(m, p))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_map_counts_and_normalises() {
        let mut m = DensityMap::new(Rect::with_size(100, 100), 10);
        for i in 0..10 {
            m.add(Point::new(i, i)); // all land in g-cell (0,0)
        }
        assert_eq!(m.total(), 10);
        assert_eq!(m.window_count(Point::new(0, 0), 0), 10);
        // Corner window of radius 1 covers 4 cells.
        assert!((m.density(Point::new(0, 0), 1) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn density_map_clamps_out_of_bounds_points() {
        let mut m = DensityMap::new(Rect::with_size(100, 100), 10);
        m.add(Point::new(-50, 4_000));
        assert_eq!(m.total(), 1);
        assert_eq!(m.window_count(Point::new(0, 99), 0), 1);
    }

    #[test]
    fn demand_map_accumulates_along_segment() {
        let mut d = DemandMap::new(Rect::with_size(100, 100), 10, 2, vec![10, 5]);
        d.add_segment(1, Point::new(0, 5), Point::new(99, 5));
        assert!((d.utilisation(1, Point::new(50, 5)) - 0.1).abs() < 1e-12);
        assert_eq!(d.utilisation(2, Point::new(50, 5)), 0.0);
        d.add_segment(2, Point::new(50, 0), Point::new(50, 99));
        assert!((d.peak_utilisation(Point::new(50, 5)) - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "axis-aligned")]
    fn demand_map_rejects_diagonal_segments() {
        let mut d = DemandMap::new(Rect::with_size(100, 100), 10, 1, vec![10]);
        d.add_segment(1, Point::new(0, 0), Point::new(9, 9));
    }
}
