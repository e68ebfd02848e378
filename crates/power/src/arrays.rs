//! CACTI-like analytical energy model for SRAM arrays.
//!
//! Per-access energy is decomposed the way CACTI \[40\] and Wattch \[3\] do:
//! decoder, wordline drive, bitline swing, sense amplifiers, and tag
//! match. The absolute scale is a technology-level capacitance constant;
//! only the *relative* scaling with geometry matters here because the
//! calibration step (paper §3.3) renormalizes absolute watts anyway.

use tlp_sim::config::CacheConfig;
use tlp_tech::units::{Joules, Volts};

/// Effective switched capacitance per bitline cell, in farads. A generic
/// 65 nm-class constant; the §3.3 renormalization absorbs its absolute
/// error.
const C_BITCELL: f64 = 1.8e-15;
/// Capacitance per decoder/wordline segment driven, in farads.
const C_WORDLINE_PER_BIT: f64 = 0.9e-15;
/// Sense-amp energy per bit sensed, as a capacitance equivalent.
const C_SENSE_PER_BIT: f64 = 1.2e-15;
/// Decoder equivalent capacitance per address bit per set.
const C_DECODE: f64 = 60e-15;

/// Per-access energy of one SRAM array geometry.
///
/// # Examples
///
/// ```
/// use tlp_power::arrays::ArrayEnergy;
/// use tlp_sim::config::CacheConfig;
/// use tlp_tech::units::Volts;
///
/// let l1 = ArrayEnergy::for_cache(&CacheConfig {
///     size_bytes: 64 * 1024, line_bytes: 64, ways: 2, latency_cycles: 2,
/// });
/// let l2 = ArrayEnergy::for_cache(&CacheConfig {
///     size_bytes: 4 * 1024 * 1024, line_bytes: 128, ways: 8, latency_cycles: 12,
/// });
/// // Bigger arrays cost more energy per access.
/// let v = Volts::new(1.1);
/// assert!(l2.read_energy(v) > l1.read_energy(v));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayEnergy {
    /// Total switched capacitance of a read access, farads.
    c_read: f64,
    /// Total switched capacitance of a write access, farads.
    c_write: f64,
}

impl ArrayEnergy {
    /// Derives the per-access capacitances for a cache geometry.
    pub fn for_cache(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets() as f64;
        let ways = cfg.ways as f64;
        let line_bits = (cfg.line_bytes * 8) as f64;
        let addr_bits = (cfg.size_bytes as f64).log2().ceil();

        // Reads precharge + swing the bitlines of all ways of one set and
        // sense one line plus tags.
        let bitline = sets.sqrt() * line_bits * ways * C_BITCELL;
        let wordline = line_bits * ways * C_WORDLINE_PER_BIT;
        let sense = line_bits * ways * C_SENSE_PER_BIT;
        let decode = addr_bits * C_DECODE;
        let c_read = bitline + wordline + sense + decode;
        // Writes drive one way's cells full swing but skip the sense amps.
        let c_write = bitline / ways + wordline + decode + line_bits * C_BITCELL * 2.0;
        Self { c_read, c_write }
    }

    /// Energy of a read access at supply `v` (`E = C·V²`).
    pub fn read_energy(&self, v: Volts) -> Joules {
        Joules::new(self.c_read * v.as_f64() * v.as_f64())
    }

    /// Energy of a write access at supply `v`.
    pub fn write_energy(&self, v: Volts) -> Joules {
        Joules::new(self.c_write * v.as_f64() * v.as_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 64 * 1024,
            line_bytes: 64,
            ways: 2,
            latency_cycles: 2,
        }
    }

    #[test]
    fn energy_scales_with_v_squared() {
        let a = ArrayEnergy::for_cache(&l1());
        let e1 = a.read_energy(Volts::new(1.1)).as_f64();
        let e2 = a.read_energy(Volts::new(0.55)).as_f64();
        assert!((e1 / e2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bigger_cache_costs_more() {
        let small = ArrayEnergy::for_cache(&l1());
        let big = ArrayEnergy::for_cache(&CacheConfig {
            size_bytes: 4 * 1024 * 1024,
            line_bytes: 128,
            ways: 8,
            latency_cycles: 12,
        });
        assert!(big.read_energy(Volts::new(1.1)) > small.read_energy(Volts::new(1.1)));
    }

    #[test]
    fn l1_read_energy_in_plausible_range() {
        // A 64 KB L1 read at 1.1 V should land in the hundreds of pJ.
        let e = ArrayEnergy::for_cache(&l1())
            .read_energy(Volts::new(1.1))
            .as_f64();
        assert!(e > 1e-11 && e < 5e-9, "L1 read energy {e} J");
    }

    #[test]
    fn writes_cheaper_than_reads_for_associative_arrays() {
        let a = ArrayEnergy::for_cache(&l1());
        assert!(a.write_energy(Volts::new(1.1)) < a.read_energy(Volts::new(1.1)));
    }
}
