//! Switch geometry: radix, bus width, and the arbitration-lane budget.

use std::fmt;

use crate::error::GeometryError;
use crate::BitIndex;

/// Physical geometry of a single-stage Swizzle Switch.
///
/// The output data bus of each channel is reused for inhibit-based
/// arbitration. A *lane* is a group of bitlines with exactly as many wires
/// as the switch has inputs — the number needed for one least-recently-
/// granted (LRG) arbitration (paper §3.1, footnote 2). Therefore
///
/// ```text
/// num_lanes = bus_width_bits / radix          (paper §4.4)
/// ```
///
/// The lane budget determines which QoS configurations are feasible:
/// supporting BE + GB + GL needs at least three lanes, so a radix-64
/// switch needs a 256-bit bus while radix 8–32 fit in 128 bits.
///
/// # Examples
///
/// ```
/// use ssq_types::Geometry;
///
/// # fn main() -> Result<(), ssq_types::GeometryError> {
/// let g = Geometry::new(8, 128)?;
/// assert_eq!(g.num_lanes(), 16);
/// // One lane is dedicated to GL, the rest form the GB thermometer space.
/// assert_eq!(g.gb_lanes(), 8);   // largest power of two <= 15
/// assert_eq!(g.significant_bits(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    radix: usize,
    bus_width_bits: usize,
}

impl Geometry {
    /// Creates a geometry for a `radix × radix` switch with
    /// `bus_width_bits`-bit output channels.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if the radix is below 2, the bus cannot
    /// host a single lane, or the bus width is not a multiple of the radix.
    pub fn new(radix: usize, bus_width_bits: usize) -> Result<Self, GeometryError> {
        if radix < 2 {
            return Err(GeometryError::RadixTooSmall { radix });
        }
        if bus_width_bits < radix {
            return Err(GeometryError::NoLanes {
                radix,
                bus_width_bits,
            });
        }
        if !bus_width_bits.is_multiple_of(radix) {
            return Err(GeometryError::UnevenLanes {
                radix,
                bus_width_bits,
            });
        }
        Ok(Geometry {
            radix,
            bus_width_bits,
        })
    }

    /// Number of input (and output) ports.
    #[must_use]
    pub const fn radix(self) -> usize {
        self.radix
    }

    /// Width of each output channel in bits.
    #[must_use]
    pub const fn bus_width_bits(self) -> usize {
        self.bus_width_bits
    }

    /// Total number of arbitration lanes: `bus_width_bits / radix`.
    #[must_use]
    pub const fn num_lanes(self) -> usize {
        self.bus_width_bits / self.radix
    }

    /// Number of bitlines per lane (equal to the radix).
    #[must_use]
    pub const fn lane_wires(self) -> usize {
        self.radix
    }

    /// Lanes available to the GB thermometer comparison once one lane is
    /// reserved for the GL class: the largest power of two that fits in
    /// `num_lanes − 1`.
    ///
    /// The thermometer code indexes lanes with the top
    /// [`significant_bits`](Self::significant_bits) of the `auxVC` counter,
    /// so the usable GB lane count must be a power of two.
    #[must_use]
    pub const fn gb_lanes(self) -> usize {
        // Largest power of two <= `num_lanes − 1` (none when zero).
        match BitIndex::highest_set(self.num_lanes().saturating_sub(1) as u64) {
            Some(top) => top.bit() as usize,
            None => 0,
        }
    }

    /// Number of most-significant `auxVC` bits compared by the SSVC
    /// arbitration: `log2(gb_lanes)`.
    ///
    /// Fig. 1 uses 3 significant bits (8 GB lanes on a 64-bit bus at
    /// radix 8, with no GL lane); Fig. 4's configuration uses 4 significant
    /// bits on a 128-bit bus at radix 8.
    #[must_use]
    pub const fn significant_bits(self) -> u32 {
        let lanes = self.gb_lanes();
        if lanes == 0 {
            0
        } else {
            lanes.trailing_zeros()
        }
    }

    /// Whether the lane budget can host `classes` distinct traffic classes.
    ///
    /// The paper (§4.4): "To support all three classes, at least three
    /// lanes are needed and each lane has to have as many wires as the
    /// number of input channels."
    #[must_use]
    pub const fn supports_classes(self, classes: usize) -> bool {
        self.num_lanes() >= classes
    }

    /// The minimum bus width (in bits) that supports `classes` traffic
    /// classes at the given radix.
    ///
    /// ```
    /// use ssq_types::Geometry;
    ///
    /// // Paper §4.4: radix-64 needs a 256-bit bus for three classes ...
    /// assert_eq!(Geometry::min_bus_width(64, 3), 256);
    /// // ... while radix 8/16/32 fit in 128 bits.
    /// assert!(Geometry::min_bus_width(32, 3) <= 128);
    /// ```
    #[must_use]
    pub const fn min_bus_width(radix: usize, classes: usize) -> usize {
        // Round the raw requirement up to the next power of two, the bus
        // widths actually manufactured (64/128/256/512).
        let raw = radix * classes;
        let mut width = 64;
        while width < raw {
            width *= 2;
        }
        width
    }

    /// Total number of crosspoints in the switch (`radix²`).
    #[must_use]
    pub const fn crosspoints(self) -> usize {
        self.radix * self.radix
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} switch, {}-bit channels ({} lanes)",
            self.radix,
            self.radix,
            self.bus_width_bits,
            self.num_lanes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_small_radix() {
        assert!(matches!(
            Geometry::new(1, 64),
            Err(GeometryError::RadixTooSmall { radix: 1 })
        ));
    }

    #[test]
    fn rejects_bus_without_a_lane() {
        assert!(matches!(
            Geometry::new(128, 64),
            Err(GeometryError::NoLanes { .. })
        ));
    }

    #[test]
    fn rejects_uneven_lane_tiling() {
        assert!(matches!(
            Geometry::new(24, 128),
            Err(GeometryError::UnevenLanes { .. })
        ));
    }

    #[test]
    fn figure1_configuration_has_eight_lanes() {
        // Fig. 1: radix-8 switch with a 64-bit output bus.
        let g = Geometry::new(8, 64).unwrap();
        assert_eq!(g.num_lanes(), 8);
        assert_eq!(g.lane_wires(), 8);
    }

    #[test]
    fn figure4_configuration_has_four_significant_bits() {
        // Fig. 4 details: radix 8, 128-bit output channel, "4 significant
        // bits of auxVC used for SSVC arbitration".
        let g = Geometry::new(8, 128).unwrap();
        assert_eq!(g.num_lanes(), 16);
        assert_eq!(g.gb_lanes(), 8);
        // With the GL lane reserved, 15 lanes remain and the power-of-two
        // thermometer space is 8 lanes = 3 bits; without a GL reservation
        // the full 16 lanes = 4 bits are available, matching the paper's
        // "GB traffic only" experiment.
        assert_eq!(g.significant_bits(), 3);
    }

    #[test]
    fn paper_scalability_table() {
        // §4.4: 128-bit bus suffices for radix 8/16/32 (>= 3 lanes);
        // radix 64 needs 256-bit.
        for radix in [8, 16, 32] {
            let g = Geometry::new(radix, 128).unwrap();
            assert!(g.supports_classes(3), "radix {radix} should fit 128-bit");
        }
        let g64_128 = Geometry::new(64, 128).unwrap();
        assert!(!g64_128.supports_classes(3));
        let g64_256 = Geometry::new(64, 256).unwrap();
        assert!(g64_256.supports_classes(3));
    }

    #[test]
    fn min_bus_width_matches_paper() {
        assert_eq!(Geometry::min_bus_width(64, 3), 256);
        assert_eq!(Geometry::min_bus_width(8, 3), 64);
        assert_eq!(Geometry::min_bus_width(32, 3), 128);
    }

    #[test]
    fn gb_lanes_is_power_of_two() {
        for radix in [4usize, 8, 16, 32, 64] {
            for width in [64usize, 128, 256, 512] {
                if width % radix != 0 || width < radix {
                    continue;
                }
                let g = Geometry::new(radix, width).unwrap();
                let lanes = g.gb_lanes();
                if lanes > 0 {
                    assert!(lanes.is_power_of_two());
                    assert!(lanes <= g.num_lanes());
                    assert_eq!(1usize << g.significant_bits(), lanes);
                }
            }
        }
    }

    #[test]
    fn crosspoints_is_radix_squared() {
        let g = Geometry::new(64, 512).unwrap();
        assert_eq!(g.crosspoints(), 4096);
    }

    #[test]
    fn display_mentions_radix_and_width() {
        let g = Geometry::new(16, 128).unwrap();
        let s = g.to_string();
        assert!(s.contains("16x16"));
        assert!(s.contains("128-bit"));
    }
}
