//! Alpha-power-law frequency/voltage model (paper Eq. 1).
//!
//! The maximum operating frequency of CMOS logic at supply voltage `V` is
//! modeled as
//!
//! ```text
//! f_max(V) = k · (V − Vth)^α / V
//! ```
//!
//! where `α` is the velocity-saturation index and `k` is calibrated so that
//! `f_max(V_nominal) = f_nominal` for the given [`Technology`].
//!
//! The inverse mapping — the minimum supply voltage able to sustain a target
//! frequency — has no closed form for general `α` and is obtained by
//! bisection ([`FrequencyModel::min_voltage_for`]).

use crate::error::TechError;
use crate::technology::Technology;
use crate::units::{Hertz, Volts};

/// A chip-wide voltage/frequency pair.
///
/// # Examples
///
/// ```
/// use tlp_tech::{FrequencyModel, Technology};
/// use tlp_tech::units::Hertz;
///
/// let tech = Technology::itrs_65nm();
/// let model = FrequencyModel::new(&tech);
/// let op = model.operating_point_for(Hertz::from_ghz(1.6))?;
/// assert!(op.voltage < tech.vdd_nominal());
/// assert!(op.voltage >= tech.voltage_floor());
/// # Ok::<(), tlp_tech::TechError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Operating frequency.
    pub frequency: Hertz,
    /// Supply voltage sustaining that frequency.
    pub voltage: Volts,
}

impl core::fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{:.3} GHz @ {:.3} V",
            self.frequency.as_ghz(),
            self.voltage.as_f64()
        )
    }
}

/// Alpha-power-law model binding frequency to supply voltage (Eq. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyModel {
    vth: Volts,
    vdd: Volts,
    floor: Volts,
    alpha: f64,
    /// Calibration constant `k` with `f_max(Vdd) = f_nominal`.
    k: f64,
    f_nominal: Hertz,
}

impl FrequencyModel {
    /// Builds the model for a technology, calibrating `k` against the
    /// nominal (frequency, voltage) point.
    pub fn new(tech: &Technology) -> Self {
        let vdd = tech.vdd_nominal();
        let vth = tech.vth();
        let alpha = tech.alpha();
        let shape = (vdd - vth).as_f64().powf(alpha) / vdd.as_f64();
        Self {
            vth,
            vdd,
            floor: tech.voltage_floor(),
            alpha,
            k: tech.f_nominal().as_f64() / shape,
            f_nominal: tech.f_nominal(),
        }
    }

    /// Maximum frequency sustainable at supply voltage `v`.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::VoltageOutOfRange`] if `v` does not exceed the
    /// threshold voltage (the transistor would not switch) or exceeds the
    /// nominal supply.
    pub fn max_frequency_at(&self, v: Volts) -> Result<Hertz, TechError> {
        if v <= self.vth || v > self.vdd {
            return Err(TechError::VoltageOutOfRange {
                requested: v,
                floor: self.floor,
                nominal: self.vdd,
            });
        }
        let f = self.k * (v - self.vth).as_f64().powf(self.alpha) / v.as_f64();
        Ok(Hertz::new(f))
    }

    /// Minimum supply voltage able to sustain frequency `f`, ignoring the
    /// noise-margin floor (exact alpha-power inversion via bisection).
    ///
    /// # Errors
    ///
    /// Returns [`TechError::FrequencyOutOfRange`] if `f` exceeds the nominal
    /// frequency, or [`TechError::NoConvergence`] if bisection fails (which
    /// would indicate a malformed model).
    pub fn min_voltage_for(&self, f: Hertz) -> Result<Volts, TechError> {
        if f > self.f_nominal {
            return Err(TechError::FrequencyOutOfRange {
                requested: f,
                max: self.f_nominal,
            });
        }
        if f.as_f64() <= 0.0 {
            return Ok(self.vth);
        }
        // f_max(V) is strictly increasing on (Vth, Vdd] for alpha >= 1,
        // so plain bisection converges unconditionally.
        let mut lo = self.vth.as_f64() * (1.0 + 1e-9);
        let mut hi = self.vdd.as_f64();
        let target = f.as_f64();
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            let fm = self
                .max_frequency_at(Volts::new(mid))
                .expect("mid lies inside (Vth, Vdd]")
                .as_f64();
            if fm < target {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 {
                return Ok(Volts::new(hi));
            }
        }
        Err(TechError::NoConvergence {
            what: "alpha-power voltage inversion",
            iterations: 200,
        })
    }

    /// Supply voltage for a target frequency, respecting the noise-margin
    /// floor: below the frequency the floor voltage can sustain, voltage
    /// stays at the floor and only frequency scales (as in the paper).
    ///
    /// # Errors
    ///
    /// Returns [`TechError::FrequencyOutOfRange`] if `f` exceeds nominal.
    pub fn operating_point_for(&self, f: Hertz) -> Result<OperatingPoint, TechError> {
        let exact = self.min_voltage_for(f)?;
        Ok(OperatingPoint {
            frequency: f,
            voltage: exact.max(self.floor),
        })
    }

    /// The nominal operating point `(f_1, V_1)`.
    pub fn nominal(&self) -> OperatingPoint {
        OperatingPoint {
            frequency: self.f_nominal,
            voltage: self.vdd,
        }
    }

    /// The noise-margin voltage floor.
    pub fn voltage_floor(&self) -> Volts {
        self.floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model65() -> FrequencyModel {
        FrequencyModel::new(&Technology::itrs_65nm())
    }

    #[test]
    fn nominal_point_is_calibrated() {
        let m = model65();
        let f = m.max_frequency_at(Volts::new(1.1)).unwrap();
        assert!((f.as_ghz() - 3.2).abs() < 1e-9);
    }

    #[test]
    fn frequency_increases_with_voltage() {
        let m = model65();
        let mut prev = 0.0;
        for mv in (400..=1100).step_by(50) {
            let f = m
                .max_frequency_at(Volts::new(mv as f64 / 1000.0))
                .unwrap()
                .as_f64();
            assert!(f > prev, "f_max not increasing at {mv} mV");
            prev = f;
        }
    }

    #[test]
    fn inversion_round_trips() {
        let m = model65();
        for ghz in [0.4, 0.8, 1.6, 2.4, 3.0, 3.2] {
            let v = m.min_voltage_for(Hertz::from_ghz(ghz)).unwrap();
            let f = m.max_frequency_at(v).unwrap();
            assert!(
                (f.as_ghz() - ghz).abs() < 1e-6,
                "round trip failed at {ghz} GHz: got {} GHz",
                f.as_ghz()
            );
        }
    }

    #[test]
    fn above_nominal_frequency_is_rejected() {
        let m = model65();
        assert!(matches!(
            m.min_voltage_for(Hertz::from_ghz(4.0)),
            Err(TechError::FrequencyOutOfRange { .. })
        ));
    }

    #[test]
    fn voltage_at_or_below_threshold_is_rejected() {
        let m = model65();
        assert!(m.max_frequency_at(Volts::new(0.18)).is_err());
        assert!(m.max_frequency_at(Volts::new(0.1)).is_err());
    }

    #[test]
    fn operating_point_clamps_at_floor() {
        let m = model65();
        let f_floor = m.max_frequency_at(m.voltage_floor()).unwrap();
        let slow = Hertz::new(f_floor.as_f64() * 0.25);
        let op = m.operating_point_for(slow).unwrap();
        assert_eq!(op.voltage, m.voltage_floor());
        assert_eq!(op.frequency, slow);
    }

    #[test]
    fn operating_point_above_floor_uses_exact_voltage() {
        let m = model65();
        let op = m.operating_point_for(Hertz::from_ghz(2.4)).unwrap();
        assert!(op.voltage > m.voltage_floor());
        assert!(op.voltage < Volts::new(1.1));
    }

    #[test]
    fn floor_frequency_is_substantial_fraction_of_nominal() {
        // At the Vmin = 3·Vth floor the attainable frequency should be a
        // nontrivial fraction of nominal — this drives the Fig. 2 plateau.
        let m = model65();
        let ratio = m.max_frequency_at(m.voltage_floor()).unwrap() / Hertz::from_ghz(3.2);
        assert!(ratio > 0.05 && ratio < 0.6, "floor ratio {ratio}");
    }

    #[test]
    fn display_of_operating_point() {
        let op = OperatingPoint {
            frequency: Hertz::from_ghz(3.2),
            voltage: Volts::new(1.1),
        };
        assert_eq!(format!("{op}"), "3.200 GHz @ 1.100 V");
    }

    #[test]
    fn higher_alpha_needs_higher_voltage_for_same_ratio() {
        let shallow = crate::TechnologyBuilder::new(crate::ProcessNode::Nm65)
            .alpha(1.3)
            .build()
            .unwrap();
        let steep = crate::TechnologyBuilder::new(crate::ProcessNode::Nm65)
            .alpha(2.0)
            .build()
            .unwrap();
        let m1 = FrequencyModel::new(&shallow);
        let m2 = FrequencyModel::new(&steep);
        let f = Hertz::from_ghz(1.6);
        let v1 = m1.min_voltage_for(f).unwrap();
        let v2 = m2.min_voltage_for(f).unwrap();
        // With alpha = 2 frequency is more sensitive to voltage, so holding
        // half the nominal frequency requires a higher supply than alpha = 1.3.
        assert!(v2 > v1, "alpha=2 voltage {v2} !> alpha=1.3 voltage {v1}");
    }
}
