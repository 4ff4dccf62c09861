//! Planar geometry primitives used throughout the layout substrate.
//!
//! All coordinates are integer database units (DBU). A DBU corresponds to
//! 1 nm in the synthetic technology defined by [`crate::tech::Technology`],
//! but nothing in this module depends on that interpretation.

use serde::{Deserialize, Serialize};

/// A point on the layout plane, in database units.
///
/// # Examples
///
/// ```
/// use sm_layout::geom::Point;
///
/// let a = Point::new(0, 0);
/// let b = Point::new(3, 4);
/// assert_eq!(a.manhattan(b), 7);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Point {
    /// Horizontal coordinate in DBU.
    pub x: i64,
    /// Vertical coordinate in DBU.
    pub y: i64,
}

impl Point {
    /// Creates a point from its coordinates.
    pub const fn new(x: i64, y: i64) -> Self {
        Self { x, y }
    }

    /// Manhattan (L1) distance to `other`.
    ///
    /// This is the metric used both by the router (wirelength lower bound)
    /// and by the proximity attack.
    pub fn manhattan(self, other: Point) -> i64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Component-wise minimum.
    pub fn min(self, other: Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    pub fn max(self, other: Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(i64, i64)> for Point {
    fn from((x, y): (i64, i64)) -> Self {
        Point::new(x, y)
    }
}

/// An axis-aligned rectangle, closed on the low edge and open on the high
/// edge (`lo.x <= x < hi.x`).
///
/// # Examples
///
/// ```
/// use sm_layout::geom::{Point, Rect};
///
/// let r = Rect::new(Point::new(0, 0), Point::new(10, 5));
/// assert_eq!(r.width(), 10);
/// assert_eq!(r.height(), 5);
/// assert_eq!(r.area(), 50);
/// assert!(r.contains(Point::new(9, 4)));
/// assert!(!r.contains(Point::new(10, 4)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Rect {
    /// Lower-left corner (inclusive).
    pub lo: Point,
    /// Upper-right corner (exclusive).
    pub hi: Point,
}

impl Rect {
    /// Creates a rectangle from two corners.
    ///
    /// # Panics
    ///
    /// Panics if `lo` is not component-wise `<=` `hi`.
    pub fn new(lo: Point, hi: Point) -> Self {
        assert!(lo.x <= hi.x && lo.y <= hi.y, "malformed rect {lo} .. {hi}");
        Self { lo, hi }
    }

    /// Creates a rectangle spanning `(0, 0) .. (w, h)`.
    pub fn with_size(w: i64, h: i64) -> Self {
        Self::new(Point::new(0, 0), Point::new(w, h))
    }

    /// Width along x.
    pub fn width(&self) -> i64 {
        self.hi.x - self.lo.x
    }

    /// Height along y.
    pub fn height(&self) -> i64 {
        self.hi.y - self.lo.y
    }

    /// Area in DBU².
    pub fn area(&self) -> i64 {
        self.width() * self.height()
    }

    /// Center point (rounded down).
    pub fn center(&self) -> Point {
        Point::new((self.lo.x + self.hi.x) / 2, (self.lo.y + self.hi.y) / 2)
    }

    /// Whether `p` lies inside (low-inclusive, high-exclusive).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.lo.x && p.x < self.hi.x && p.y >= self.lo.y && p.y < self.hi.y
    }

    /// Clamps `p` into the rectangle (high edge clamped to `hi - 1`).
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.lo.x, self.hi.x - 1),
            p.y.clamp(self.lo.y, self.hi.y - 1),
        )
    }
}

/// Half-perimeter wirelength of a set of points: the classic lower bound on
/// the length of any rectilinear tree connecting them.
///
/// Returns 0 for fewer than two points.
///
/// # Examples
///
/// ```
/// use sm_layout::geom::{hpwl, Point};
///
/// let pts = [Point::new(0, 0), Point::new(4, 0), Point::new(2, 3)];
/// assert_eq!(hpwl(&pts), 4 + 3);
/// ```
pub fn hpwl(points: &[Point]) -> i64 {
    if points.len() < 2 {
        return 0;
    }
    let mut lo = points[0];
    let mut hi = points[0];
    for &p in &points[1..] {
        lo = lo.min(p);
        hi = hi.max(p);
    }
    (hi.x - lo.x) + (hi.y - lo.y)
}

/// A uniform grid over a rectangle, used for congestion maps and spatial
/// indexing. Cells are square with side `cell` DBU; the last row/column may
/// be partial.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Grid {
    bounds: Rect,
    cell: i64,
    nx: usize,
    ny: usize,
}

impl Grid {
    /// Builds a grid over `bounds` with square cells of side `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell <= 0` or `bounds` is degenerate.
    pub fn new(bounds: Rect, cell: i64) -> Self {
        assert!(cell > 0, "grid cell must be positive");
        assert!(
            bounds.width() > 0 && bounds.height() > 0,
            "degenerate grid bounds"
        );
        let nx = ((bounds.width() + cell - 1) / cell) as usize;
        let ny = ((bounds.height() + cell - 1) / cell) as usize;
        Self {
            bounds,
            cell,
            nx,
            ny,
        }
    }

    /// Grid extent in cells along x.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid extent in cells along y.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Whether the grid has no cells (never true for a validly constructed grid).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Side length of a cell in DBU.
    pub fn cell_size(&self) -> i64 {
        self.cell
    }

    /// The rectangle this grid covers.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Cell indices containing `p`, clamped into range.
    pub fn locate(&self, p: Point) -> (usize, usize) {
        let p = self.bounds.clamp(p);
        let ix = ((p.x - self.bounds.lo.x) / self.cell) as usize;
        let iy = ((p.y - self.bounds.lo.y) / self.cell) as usize;
        (ix.min(self.nx - 1), iy.min(self.ny - 1))
    }

    /// Flat index of cell `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn flat(&self, ix: usize, iy: usize) -> usize {
        assert!(ix < self.nx && iy < self.ny, "grid index out of range");
        iy * self.nx + ix
    }

    /// Flat index of the cell containing `p`.
    pub fn flat_of(&self, p: Point) -> usize {
        let (ix, iy) = self.locate(p);
        self.flat(ix, iy)
    }

    /// Iterates over flat indices in the `(2r+1)×(2r+1)` window of cells
    /// centred on the cell containing `p`, clipped to the grid.
    pub fn window(&self, p: Point, r: usize) -> impl Iterator<Item = usize> + '_ {
        let (cx, cy) = self.locate(p);
        let x0 = cx.saturating_sub(r);
        let y0 = cy.saturating_sub(r);
        let x1 = (cx + r).min(self.nx - 1);
        let y1 = (cy + r).min(self.ny - 1);
        (y0..=y1).flat_map(move |iy| (x0..=x1).map(move |ix| iy * self.nx + ix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_is_symmetric_and_zero_on_self() {
        let a = Point::new(-3, 7);
        let b = Point::new(10, -2);
        assert_eq!(a.manhattan(b), b.manhattan(a));
        assert_eq!(a.manhattan(a), 0);
        assert_eq!(a.manhattan(b), 13 + 9);
    }

    #[test]
    fn rect_basicness() {
        let r = Rect::with_size(100, 40);
        assert_eq!(r.area(), 4000);
        assert_eq!(r.center(), Point::new(50, 20));
        assert!(r.contains(Point::new(0, 0)));
        assert!(!r.contains(Point::new(100, 0)));
        assert_eq!(r.clamp(Point::new(500, -3)), Point::new(99, 0));
    }

    #[test]
    #[should_panic(expected = "malformed rect")]
    fn rect_rejects_inverted_corners() {
        let _ = Rect::new(Point::new(5, 5), Point::new(0, 0));
    }

    #[test]
    fn hpwl_of_degenerate_sets() {
        assert_eq!(hpwl(&[]), 0);
        assert_eq!(hpwl(&[Point::new(9, 9)]), 0);
        assert_eq!(hpwl(&[Point::new(1, 1), Point::new(1, 1)]), 0);
    }

    #[test]
    fn grid_locates_and_windows() {
        let g = Grid::new(Rect::with_size(100, 100), 10);
        assert_eq!(g.nx(), 10);
        assert_eq!(g.ny(), 10);
        assert_eq!(g.locate(Point::new(0, 0)), (0, 0));
        assert_eq!(g.locate(Point::new(99, 99)), (9, 9));
        // Out-of-bounds points clamp instead of panicking.
        assert_eq!(g.locate(Point::new(1000, 1000)), (9, 9));
        let w: Vec<usize> = g.window(Point::new(5, 5), 1).collect();
        assert_eq!(w.len(), 4); // corner cell: 2x2 window after clipping
        let w: Vec<usize> = g.window(Point::new(55, 55), 1).collect();
        assert_eq!(w.len(), 9);
    }

    #[test]
    fn grid_partial_last_cells() {
        let g = Grid::new(Rect::with_size(95, 21), 10);
        assert_eq!(g.nx(), 10);
        assert_eq!(g.ny(), 3);
        assert_eq!(g.locate(Point::new(94, 20)), (9, 2));
    }
}
