//! DVFS governors: policies that react to measured die temperature.
//!
//! The pre-[`ChipSpec`](tlp_sim::ChipSpec) engine had exactly one
//! policy, baked in: pick the Eq. 7 iso-performance operating point and
//! keep it, whatever the thermal solve says. [`Governor`] makes that
//! policy a value. The sweep cell consults the chip's governor after
//! every measurement. [`ChipWide`] *is* the legacy behavior — it never
//! adjusts, so its cells settle after the first measurement.
//! [`ThermalAware`] reads the per-core equilibrium temperatures out of
//! the fixpoint loop and walks the cell one rung down the DVFS ladder
//! ([`DvfsTable::step_down`]) whenever the hottest core exceeds its
//! threshold, re-simulating and re-measuring at the lower point until
//! the chip is cool or the ladder floor is reached.

use tlp_tech::units::Celsius;
use tlp_tech::{DvfsTable, OperatingPoint};

/// A DVFS policy consulted after each cell measurement.
///
/// Implementations must be deterministic: `adjust` may depend only on
/// its arguments, never on wall-clock time or interior mutability, so
/// that serial and parallel sweeps (and journal resumes) stay
/// byte-identical.
pub trait Governor: std::fmt::Debug + Send + Sync {
    /// Stable policy name (reports and traces).
    fn name(&self) -> &'static str;

    /// Given the measured per-core equilibrium temperatures at `op`,
    /// returns a lower operating point to re-solve at, or `None` to
    /// accept the measurement as final.
    fn adjust(
        &self,
        core_temps: &[Celsius],
        table: &DvfsTable,
        op: OperatingPoint,
    ) -> Option<OperatingPoint>;
}

/// The legacy policy: one chip-wide operating point, chosen up front and
/// never revisited. Installing this governor (the default) is
/// byte-identical to the pre-governor engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChipWide;

impl Governor for ChipWide {
    fn name(&self) -> &'static str {
        "chip-wide"
    }

    fn adjust(
        &self,
        _core_temps: &[Celsius],
        _table: &DvfsTable,
        _op: OperatingPoint,
    ) -> Option<OperatingPoint> {
        None
    }
}

/// Thermal-aware throttling: while the hottest core's equilibrium
/// temperature exceeds `threshold`, step one rung down the DVFS ladder.
/// At the ladder floor the chip runs as cool as the ladder allows and
/// the measurement is accepted as-is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalAware {
    /// Hottest-core temperature above which the governor throttles.
    pub threshold: Celsius,
}

impl ThermalAware {
    /// A governor throttling above `threshold`.
    pub fn new(threshold: Celsius) -> Self {
        Self { threshold }
    }
}

impl Governor for ThermalAware {
    fn name(&self) -> &'static str {
        "thermal-aware"
    }

    fn adjust(
        &self,
        core_temps: &[Celsius],
        table: &DvfsTable,
        op: OperatingPoint,
    ) -> Option<OperatingPoint> {
        let hottest = core_temps
            .iter()
            .map(|t| t.as_f64())
            .fold(f64::NEG_INFINITY, f64::max);
        if hottest > self.threshold.as_f64() {
            table.step_down(op.frequency)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_tech::units::Hertz;
    use tlp_tech::Technology;

    fn table() -> DvfsTable {
        DvfsTable::for_technology(
            &Technology::itrs_65nm(),
            Hertz::from_mhz(200.0),
            Hertz::from_mhz(200.0),
        )
        .unwrap()
    }

    #[test]
    fn chip_wide_never_adjusts() {
        let g = ChipWide;
        let table = table();
        let op = *table.iter().last().unwrap();
        assert_eq!(g.adjust(&[Celsius::new(500.0)], &table, op), None);
    }

    #[test]
    fn thermal_aware_steps_down_only_when_hot() {
        let g = ThermalAware::new(Celsius::new(100.0));
        let table = table();
        let op = *table.iter().last().unwrap();
        // Cool chip: no adjustment.
        assert_eq!(
            g.adjust(&[Celsius::new(80.0), Celsius::new(99.0)], &table, op),
            None
        );
        // One hot core is enough; the proposal is one rung down.
        let lower = g
            .adjust(&[Celsius::new(80.0), Celsius::new(101.0)], &table, op)
            .expect("hot chip must throttle");
        assert!(lower.frequency < op.frequency);
        assert_eq!(lower, table.step_down(op.frequency).unwrap());
    }

    #[test]
    fn thermal_aware_stops_at_the_ladder_floor() {
        let g = ThermalAware::new(Celsius::new(50.0));
        let table = table();
        let floor = *table.iter().next().unwrap();
        // Even a scorching chip cannot go below the ladder.
        assert_eq!(g.adjust(&[Celsius::new(200.0)], &table, floor), None);
    }
}
