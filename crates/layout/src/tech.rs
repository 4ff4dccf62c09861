//! Synthetic process technology: the metal/via stack.
//!
//! Mirrors the ISPD-2011 setup the paper evaluates on: **9 routing metal
//! layers** (M1–M9) with alternating preferred direction and **8 via layers**
//! (V1–V8), with significant (4×) variation in wire width — and therefore in
//! per-layer track capacity — across the stack.
//!
//! The convention follows the paper's Section III-G: the *top* metal layer
//! M9 is horizontally routed, which forces matching v-pin pairs at split
//! layer 8 to have zero y-distance. Alternation then fixes every other
//! layer: odd layers horizontal, even layers vertical.

use serde::{Deserialize, Serialize};

use crate::error::LayoutError;

/// Preferred routing direction of a metal layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Wires run along x.
    Horizontal,
    /// Wires run along y.
    Vertical,
}

impl Direction {
    /// The other direction.
    pub fn flipped(self) -> Direction {
        match self {
            Direction::Horizontal => Direction::Vertical,
            Direction::Vertical => Direction::Horizontal,
        }
    }
}

/// One metal layer of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetalLayer {
    /// 1-based layer index (M1 = 1).
    pub index: u8,
    /// Preferred routing direction.
    pub direction: Direction,
    /// Wire width in DBU.
    pub width: i64,
    /// Track pitch in DBU (width + spacing). Upper layers are wider and
    /// sparser, so they carry fewer, longer wires.
    pub pitch: i64,
}

/// A via layer between metal `index` and `index + 1`, identified by the
/// lower metal's index. "Split layer 6" in the paper means cutting at via
/// layer V6, separating M6 (FEOL) from M7 (BEOL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SplitLayer(u8);

impl SplitLayer {
    /// Creates a split layer, validating it against a 9-metal stack.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidSplitLayer`] unless `1 <= v <= 8`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sm_layout::tech::SplitLayer;
    ///
    /// let split = SplitLayer::new(6)?;
    /// assert_eq!(split.via_index(), 6);
    /// assert_eq!(split.lowest_beol_metal(), 7);
    /// # Ok::<(), sm_layout::error::LayoutError>(())
    /// ```
    pub fn new(v: u8) -> Result<Self, LayoutError> {
        if (1..=8).contains(&v) {
            Ok(Self(v))
        } else {
            Err(LayoutError::InvalidSplitLayer(v))
        }
    }

    /// The via layer index (1-based).
    pub fn via_index(self) -> u8 {
        self.0
    }

    /// Lowest metal layer hidden from the untrusted foundry (BEOL).
    pub fn lowest_beol_metal(self) -> u8 {
        self.0 + 1
    }
}

impl std::fmt::Display for SplitLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "V{}", self.0)
    }
}

/// The full metal stack of the synthetic process.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Technology {
    layers: Vec<MetalLayer>,
    /// Side of the square g-cells used for congestion accounting, in DBU.
    gcell: i64,
}

impl Technology {
    /// The 9-metal-layer technology matching the ISPD-2011 setup: odd layers
    /// horizontal (so M9, the top layer, is horizontal), 4× wire-width ramp
    /// from the bottom pair to the top pair.
    ///
    /// # Examples
    ///
    /// ```
    /// use sm_layout::tech::{Direction, Technology};
    ///
    /// let tech = Technology::ispd9();
    /// assert_eq!(tech.num_metal_layers(), 9);
    /// assert_eq!(tech.metal(9).direction, Direction::Horizontal);
    /// assert_eq!(tech.metal(9).width / tech.metal(1).width, 4);
    /// ```
    pub fn ispd9() -> Self {
        // Width ramp in 4 steps of 2 layers each (M9 shares the widest class):
        // M1-2: 1x, M3-4: 1.5x, M5-6: 2x, M7-9: 4x. Pitch = 2 * width.
        const BASE: i64 = 70;
        let width_of = |m: u8| -> i64 {
            match m {
                1 | 2 => BASE,
                3 | 4 => BASE * 3 / 2,
                5 | 6 => BASE * 2,
                _ => BASE * 4,
            }
        };
        let layers = (1..=9)
            .map(|m| MetalLayer {
                index: m,
                direction: if m % 2 == 1 {
                    Direction::Horizontal
                } else {
                    Direction::Vertical
                },
                width: width_of(m),
                pitch: 2 * width_of(m),
            })
            .collect();
        Self {
            layers,
            gcell: 3_500,
        }
    }

    /// Number of metal layers.
    pub fn num_metal_layers(&self) -> u8 {
        self.layers.len() as u8
    }

    /// Metal layer `m` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `m` is 0 or exceeds the stack height.
    pub fn metal(&self, m: u8) -> &MetalLayer {
        assert!(
            m >= 1 && m <= self.num_metal_layers(),
            "metal layer M{m} out of range"
        );
        &self.layers[(m - 1) as usize]
    }

    /// All metal layers, bottom-up.
    pub fn metals(&self) -> &[MetalLayer] {
        &self.layers
    }

    /// Side of the congestion g-cell in DBU.
    pub fn gcell_size(&self) -> i64 {
        self.gcell
    }

    /// Routing track capacity of one g-cell on layer `m`: how many wires of
    /// that layer's pitch fit through a g-cell. Upper layers have fewer,
    /// wider tracks — this is what concentrates congestion in the lower
    /// layers of realistic designs.
    pub fn gcell_capacity(&self, m: u8) -> u32 {
        (self.gcell / self.metal(m).pitch).max(1) as u32
    }
}

impl Default for Technology {
    fn default() -> Self {
        Self::ispd9()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directions_alternate_with_m9_horizontal() {
        let t = Technology::ispd9();
        for m in 1..=9u8 {
            let expect = if m % 2 == 1 {
                Direction::Horizontal
            } else {
                Direction::Vertical
            };
            assert_eq!(t.metal(m).direction, expect, "M{m}");
        }
        assert_eq!(t.metal(9).direction, Direction::Horizontal);
        assert_eq!(t.metal(8).direction, Direction::Vertical);
    }

    #[test]
    fn width_ramp_is_4x_and_monotone() {
        let t = Technology::ispd9();
        assert_eq!(t.metal(9).width, 4 * t.metal(1).width);
        for m in 1..9u8 {
            assert!(t.metal(m + 1).width >= t.metal(m).width);
        }
    }

    #[test]
    fn upper_layers_have_fewer_tracks() {
        let t = Technology::ispd9();
        assert!(t.gcell_capacity(1) > t.gcell_capacity(9));
        assert_eq!(t.gcell_capacity(1), (3_500 / 140) as u32);
    }

    #[test]
    fn split_layer_validation() {
        assert!(SplitLayer::new(0).is_err());
        assert!(SplitLayer::new(9).is_err());
        let s = SplitLayer::new(8).expect("valid");
        assert_eq!(s.lowest_beol_metal(), 9);
        assert_eq!(s.to_string(), "V8");
    }

    #[test]
    fn direction_flip_roundtrips() {
        assert_eq!(
            Direction::Horizontal.flipped().flipped(),
            Direction::Horizontal
        );
    }
}
