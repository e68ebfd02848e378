//! Chip floorplans.
//!
//! The paper feeds HotSpot's default single-core Alpha EV6 floorplan, so
//! this reproduction solves every chip one core tile at a time (DESIGN.md
//! §5, decision 4): [`Floorplan::ev6_tile`] is the one floorplan the chip
//! models build. [`Floorplan`] describes any set of rectangular
//! [`Block`]s; adjacency (for lateral heat flow) is derived geometrically
//! from shared edges.

use tlp_tech::units::{Celsius, SquareMillimeters};

/// A rectangular block of silicon.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Human-readable name, e.g. `"core0.dcache"`.
    pub name: String,
    /// Left edge, millimetres from the floorplan origin.
    pub x_mm: f64,
    /// Bottom edge, millimetres from the floorplan origin.
    pub y_mm: f64,
    /// Width in millimetres.
    pub w_mm: f64,
    /// Height in millimetres.
    pub h_mm: f64,
}

impl Block {
    /// Block area.
    pub fn area(&self) -> SquareMillimeters {
        SquareMillimeters::new(self.w_mm * self.h_mm)
    }

    /// Centroid coordinates in millimetres.
    pub fn centroid(&self) -> (f64, f64) {
        (self.x_mm + self.w_mm / 2.0, self.y_mm + self.h_mm / 2.0)
    }

    /// Length of the edge shared with `other`, in millimetres (zero if the
    /// blocks do not touch).
    pub fn shared_edge_mm(&self, other: &Block) -> f64 {
        const EPS: f64 = 1e-9;
        let overlap = |a0: f64, a1: f64, b0: f64, b1: f64| (a1.min(b1) - a0.max(b0)).max(0.0);
        // Vertical shared edge: right of self touches left of other, or
        // vice versa, with y-overlap.
        let x_touch = (self.x_mm + self.w_mm - other.x_mm).abs() < EPS
            || (other.x_mm + other.w_mm - self.x_mm).abs() < EPS;
        if x_touch {
            let len = overlap(
                self.y_mm,
                self.y_mm + self.h_mm,
                other.y_mm,
                other.y_mm + other.h_mm,
            );
            if len > EPS {
                return len;
            }
        }
        let y_touch = (self.y_mm + self.h_mm - other.y_mm).abs() < EPS
            || (other.y_mm + other.h_mm - self.y_mm).abs() < EPS;
        if y_touch {
            let len = overlap(
                self.x_mm,
                self.x_mm + self.w_mm,
                other.x_mm,
                other.x_mm + other.w_mm,
            );
            if len > EPS {
                return len;
            }
        }
        0.0
    }
}

/// The functional blocks inside one EV6-like core tile, as fractions of the
/// tile: `(name, x, y, w, h)` in tile-relative coordinates `[0, 1]`.
const EV6_TILE_LAYOUT: &[(&str, f64, f64, f64, f64)] = &[
    ("icache", 0.0, 0.0, 0.5, 0.3),
    ("dcache", 0.5, 0.0, 0.5, 0.3),
    ("bpred", 0.0, 0.3, 0.25, 0.2),
    ("rename", 0.25, 0.3, 0.25, 0.2),
    ("issueq", 0.5, 0.3, 0.25, 0.2),
    ("lsq", 0.75, 0.3, 0.25, 0.2),
    ("regfile", 0.0, 0.5, 0.3, 0.25),
    ("intexec", 0.3, 0.5, 0.4, 0.25),
    ("fpexec", 0.7, 0.5, 0.3, 0.25),
    ("clock", 0.0, 0.75, 1.0, 0.25),
];

/// A floorplan: a list of non-overlapping rectangular blocks.
///
/// # Examples
///
/// ```
/// use tlp_thermal::Floorplan;
///
/// // The core tile of the paper's 16-core die: 65 % of 15.6 mm × 15.6 mm
/// // shared by 16 cores.
/// let edge = (15.6f64 * 15.6 * 0.65 / 16.0).sqrt();
/// let tile = Floorplan::ev6_tile(edge);
/// // Ten EV6 functional blocks covering the square.
/// assert_eq!(tile.blocks().len(), 10);
/// assert!((tile.total_area().as_f64() - edge * edge).abs() < 1e-9);
/// assert!(tile.index_of("core0.fpexec").is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    blocks: Vec<Block>,
}

impl Floorplan {
    /// Builds a floorplan from explicit blocks.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty or any block has non-positive dimensions.
    pub fn new(blocks: Vec<Block>) -> Self {
        assert!(!blocks.is_empty(), "floorplan must contain blocks");
        for b in &blocks {
            assert!(
                b.w_mm > 0.0 && b.h_mm > 0.0,
                "block {} has empty extent",
                b.name
            );
        }
        Self { blocks }
    }

    /// One EV6-like core tile, `edge_mm` on a side with its origin at
    /// `(0, 0)`. The blocks are named `core0.<structure>`, the names the
    /// power accounting maps a core's structure powers onto.
    ///
    /// # Panics
    ///
    /// Panics if `edge_mm` is not positive.
    pub fn ev6_tile(edge_mm: f64) -> Self {
        Self::new(
            EV6_TILE_LAYOUT
                .iter()
                .map(|&(name, fx, fy, fw, fh)| Block {
                    name: format!("core0.{name}"),
                    x_mm: fx * edge_mm,
                    y_mm: fy * edge_mm,
                    w_mm: fw * edge_mm,
                    h_mm: fh * edge_mm,
                })
                .collect(),
        )
    }

    /// All blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Total floorplan area.
    pub fn total_area(&self) -> SquareMillimeters {
        SquareMillimeters::new(self.blocks.iter().map(|b| b.w_mm * b.h_mm).sum())
    }

    /// Index of the block with the given name, if any.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.blocks.iter().position(|b| b.name == name)
    }

    /// Area-weighted average temperature over all blocks. `temps` holds
    /// one temperature per block, in block order; trailing entries (the
    /// spreader and sink nodes of a network's solution) are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `temps` is shorter than the block list.
    pub fn average_temperature(&self, temps: &[Celsius]) -> Celsius {
        assert!(
            temps.len() >= self.blocks.len(),
            "one temperature per block"
        );
        let mut sum = 0.0;
        let mut area = 0.0;
        for (b, t) in self.blocks.iter().zip(temps) {
            let a = b.area().as_f64();
            sum += t.as_f64() * a;
            area += a;
        }
        Celsius::new(sum / area)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(name: &str, x_mm: f64, y_mm: f64, w_mm: f64, h_mm: f64) -> Block {
        Block {
            name: name.into(),
            x_mm,
            y_mm,
            w_mm,
            h_mm,
        }
    }

    #[test]
    fn ev6_tile_fractions_tile_the_unit_square() {
        let total: f64 = EV6_TILE_LAYOUT.iter().map(|&(_, _, _, w, h)| w * h).sum();
        assert!((total - 1.0).abs() < 1e-12, "tile fractions sum to {total}");
    }

    #[test]
    fn ev6_tile_covers_its_square() {
        for edge in [2.22, 3.5, 12.58] {
            let f = Floorplan::ev6_tile(edge);
            assert_eq!(f.blocks().len(), EV6_TILE_LAYOUT.len());
            assert!(
                (f.total_area().as_f64() - edge * edge).abs() < 1e-9,
                "{edge} mm tile: area {}",
                f.total_area()
            );
            for b in f.blocks() {
                assert!(b.name.starts_with("core0."), "{}", b.name);
                assert!(b.x_mm >= 0.0 && b.x_mm + b.w_mm <= edge + 1e-9);
                assert!(b.y_mm >= 0.0 && b.y_mm + b.h_mm <= edge + 1e-9);
            }
        }
    }

    #[test]
    fn shared_edges_detected_between_neighbors() {
        let a = block("a", 0.0, 0.0, 1.0, 1.0);
        let right = block("b", 1.0, 0.5, 1.0, 1.0);
        let above = block("c", 0.25, 1.0, 0.5, 1.0);
        let far = block("d", 5.0, 5.0, 1.0, 1.0);
        assert!((a.shared_edge_mm(&right) - 0.5).abs() < 1e-12);
        assert!((a.shared_edge_mm(&above) - 0.5).abs() < 1e-12);
        assert_eq!(a.shared_edge_mm(&far), 0.0);
        // Symmetry.
        assert_eq!(a.shared_edge_mm(&right), right.shared_edge_mm(&a));
    }

    #[test]
    fn corner_touch_is_not_adjacency() {
        let a = block("a", 0.0, 0.0, 1.0, 1.0);
        let diag = block("b", 1.0, 1.0, 1.0, 1.0);
        assert_eq!(a.shared_edge_mm(&diag), 0.0);
    }

    #[test]
    fn index_of_finds_blocks() {
        let f = Floorplan::ev6_tile(3.0);
        assert!(f.index_of("core0.dcache").is_some());
        assert!(f.index_of("core0.clock").is_some());
        assert!(f.index_of("core1.clock").is_none());
        assert!(f.index_of("nope").is_none());
    }
}
