//! DVFS operating-point tables.
//!
//! The paper's experimental setup scales the whole chip's frequency from
//! 3.2 GHz down to 200 MHz and extrapolates the voltage for each frequency
//! from the Intel Pentium M datasheet \[18\]. [`DvfsTable`] reproduces that:
//! a monotone frequency→voltage table with linear interpolation between
//! entries, generated either from explicit points or from a technology's
//! alpha-power law ([`DvfsTable::for_technology`]).

use crate::error::TechError;
use crate::freq::{FrequencyModel, OperatingPoint};
use crate::technology::Technology;
use crate::units::{Hertz, Volts};

/// A monotone frequency→voltage table with interpolation.
///
/// # Examples
///
/// ```
/// use tlp_tech::{DvfsTable, Technology};
/// use tlp_tech::units::Hertz;
///
/// let tech = Technology::itrs_65nm();
/// let table = DvfsTable::for_technology(&tech, Hertz::from_mhz(200.0), Hertz::from_mhz(200.0))?;
/// let v = table.voltage_for(Hertz::from_ghz(1.6))?;
/// assert!(v < tech.vdd_nominal());
/// assert!(v >= tech.voltage_floor());
/// # Ok::<(), tlp_tech::TechError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsTable {
    /// Sorted by ascending frequency; voltage non-decreasing.
    points: Vec<OperatingPoint>,
}

impl DvfsTable {
    /// Builds a table from explicit `(frequency, voltage)` points.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidDvfsTable`] if fewer than two points are
    /// given, frequencies are not strictly increasing, voltages are not
    /// non-decreasing, or any value is non-positive.
    pub fn from_points(mut points: Vec<OperatingPoint>) -> Result<Self, TechError> {
        if points.len() < 2 {
            return Err(TechError::InvalidDvfsTable(
                "need at least two operating points".into(),
            ));
        }
        points.sort_by(|a, b| a.frequency.as_f64().total_cmp(&b.frequency.as_f64()));
        for pair in points.windows(2) {
            if pair[1].frequency.as_f64() <= pair[0].frequency.as_f64() {
                return Err(TechError::InvalidDvfsTable(
                    "frequencies must be strictly increasing".into(),
                ));
            }
            if pair[1].voltage < pair[0].voltage {
                return Err(TechError::InvalidDvfsTable(
                    "voltage must be non-decreasing in frequency".into(),
                ));
            }
        }
        if points[0].frequency.as_f64() <= 0.0 || points[0].voltage.as_f64() <= 0.0 {
            return Err(TechError::InvalidDvfsTable(
                "frequencies and voltages must be positive".into(),
            ));
        }
        Ok(Self { points })
    }

    /// Generates a table for a technology: a frequency grid from `f_min` to
    /// the nominal frequency (inclusive) at the given `step`, with voltages
    /// from the alpha-power law clamped at the noise-margin floor — the
    /// equivalent of extrapolating the Pentium M datasheet points.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidDvfsTable`] if `step` is non-positive or
    /// `f_min` is not below the nominal frequency.
    pub fn for_technology(tech: &Technology, f_min: Hertz, step: Hertz) -> Result<Self, TechError> {
        if step.as_f64() <= 0.0 {
            return Err(TechError::InvalidDvfsTable("step must be positive".into()));
        }
        if f_min.as_f64() <= 0.0 || f_min >= tech.f_nominal() {
            return Err(TechError::InvalidDvfsTable(
                "f_min must lie in (0, f_nominal)".into(),
            ));
        }
        let model = FrequencyModel::new(tech);
        let mut points = Vec::new();
        let mut f = f_min;
        while f < tech.f_nominal() {
            points.push(model.operating_point_for(f).expect("f < nominal"));
            f += step;
        }
        points.push(model.nominal());
        Self::from_points(points)
    }

    /// The operating points, ascending by frequency.
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// Lowest table frequency.
    pub fn f_min(&self) -> Hertz {
        self.points[0].frequency
    }

    /// Highest table frequency.
    pub fn f_max(&self) -> Hertz {
        self.points[self.points.len() - 1].frequency
    }

    /// Supply voltage for frequency `f`, linearly interpolated between the
    /// surrounding table entries (the paper approximates values between
    /// profiled points by linear scaling).
    ///
    /// # Errors
    ///
    /// Returns [`TechError::FrequencyOutOfRange`] if `f` lies outside the
    /// table's range.
    pub fn voltage_for(&self, f: Hertz) -> Result<Volts, TechError> {
        if f < self.f_min() || f > self.f_max() {
            return Err(TechError::FrequencyOutOfRange {
                requested: f,
                max: self.f_max(),
            });
        }
        let idx = self
            .points
            .partition_point(|p| p.frequency.as_f64() < f.as_f64());
        if idx == 0 {
            return Ok(self.points[0].voltage);
        }
        let hi = &self.points[idx.min(self.points.len() - 1)];
        if (hi.frequency.as_f64() - f.as_f64()).abs() < 1e-9 {
            return Ok(hi.voltage);
        }
        let lo = &self.points[idx - 1];
        let span = hi.frequency - lo.frequency;
        let frac = (f - lo.frequency) / span;
        Ok(lo.voltage + (hi.voltage - lo.voltage) * frac)
    }

    /// The supply voltage for `f`, with frequencies outside the table
    /// range clamped to the nearest end point — the per-domain variant
    /// of [`DvfsTable::voltage_for`]: a clock domain geared below the
    /// grid (e.g. a half-rate little core under a 200 MHz base) still
    /// gets a well-defined rail.
    pub fn voltage_for_clamped(&self, f: Hertz) -> Volts {
        if f <= self.f_min() {
            self.points[0].voltage
        } else if f >= self.f_max() {
            self.points[self.points.len() - 1].voltage
        } else {
            self.voltage_for(f).expect("in-range frequency")
        }
    }

    /// Iterates over the operating points in ascending frequency order.
    pub fn iter(&self) -> core::slice::Iter<'_, OperatingPoint> {
        self.points.iter()
    }
}

impl<'a> IntoIterator for &'a DvfsTable {
    type Item = &'a OperatingPoint;
    type IntoIter = core::slice::Iter<'a, OperatingPoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table65() -> DvfsTable {
        DvfsTable::for_technology(
            &Technology::itrs_65nm(),
            Hertz::from_mhz(200.0),
            Hertz::from_mhz(200.0),
        )
        .unwrap()
    }

    #[test]
    fn generated_table_spans_paper_range() {
        let t = table65();
        assert!((t.f_min().as_mhz() - 200.0).abs() < 1e-6);
        assert!((t.f_max().as_ghz() - 3.2).abs() < 1e-9);
        assert_eq!(t.points().len(), 16); // 200 MHz .. 3.2 GHz step 200 MHz
    }

    #[test]
    fn voltages_are_monotone_and_clamped_at_floor() {
        let tech = Technology::itrs_65nm();
        let t = table65();
        let floor = tech.voltage_floor();
        let mut prev = Volts::ZERO;
        for p in &t {
            assert!(p.voltage >= floor, "voltage below floor at {}", p.frequency);
            assert!(p.voltage >= prev);
            prev = p.voltage;
        }
        assert_eq!(t.points().last().unwrap().voltage, tech.vdd_nominal());
    }

    #[test]
    fn interpolation_lies_between_neighbors() {
        let t = table65();
        let v_lo = t.voltage_for(Hertz::from_mhz(2200.0)).unwrap();
        let v_mid = t.voltage_for(Hertz::from_mhz(2300.0)).unwrap();
        let v_hi = t.voltage_for(Hertz::from_mhz(2400.0)).unwrap();
        assert!(v_lo <= v_mid && v_mid <= v_hi);
        assert!(v_mid > v_lo || v_mid < v_hi);
    }

    #[test]
    fn exact_grid_points_return_table_voltage() {
        let t = table65();
        for p in t.points().to_vec() {
            let v = t.voltage_for(p.frequency).unwrap();
            assert!((v - p.voltage).abs().as_f64() < 1e-12);
        }
    }

    #[test]
    fn out_of_range_is_rejected() {
        let t = table65();
        assert!(t.voltage_for(Hertz::from_mhz(100.0)).is_err());
        assert!(t.voltage_for(Hertz::from_ghz(3.4)).is_err());
    }

    #[test]
    fn clamped_voltage_covers_out_of_range_domains() {
        let t = table65();
        assert_eq!(
            t.voltage_for_clamped(Hertz::from_mhz(100.0)),
            t.points()[0].voltage
        );
        assert_eq!(
            t.voltage_for_clamped(Hertz::from_ghz(4.0)),
            t.points().last().unwrap().voltage
        );
        let mid = t.voltage_for_clamped(Hertz::from_mhz(2300.0));
        assert_eq!(mid, t.voltage_for(Hertz::from_mhz(2300.0)).unwrap());
    }

    #[test]
    fn explicit_points_validation() {
        let p = |mhz: f64, v: f64| OperatingPoint {
            frequency: Hertz::from_mhz(mhz),
            voltage: Volts::new(v),
        };
        assert!(DvfsTable::from_points(vec![p(600.0, 0.956)]).is_err());
        assert!(DvfsTable::from_points(vec![p(600.0, 0.956), p(600.0, 1.0)]).is_err());
        assert!(DvfsTable::from_points(vec![p(600.0, 1.1), p(800.0, 1.0)]).is_err());
        // A real Pentium M style ladder is accepted.
        let pm = DvfsTable::from_points(vec![
            p(600.0, 0.956),
            p(800.0, 1.036),
            p(1000.0, 1.1),
            p(1200.0, 1.164),
            p(1400.0, 1.228),
            p(1600.0, 1.292),
            p(1800.0, 1.356),
            p(2000.0, 1.42),
        ])
        .unwrap();
        assert_eq!(pm.points().len(), 8);
        let v = pm.voltage_for(Hertz::from_mhz(900.0)).unwrap();
        assert!((v.as_f64() - 1.068).abs() < 1e-9);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let p = |mhz: f64, v: f64| OperatingPoint {
            frequency: Hertz::from_mhz(mhz),
            voltage: Volts::new(v),
        };
        let t = DvfsTable::from_points(vec![p(1000.0, 1.1), p(600.0, 0.956)]).unwrap();
        assert!((t.f_min().as_mhz() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn table_for_130nm_also_valid() {
        let t = DvfsTable::for_technology(
            &Technology::itrs_130nm(),
            Hertz::from_mhz(200.0),
            Hertz::from_mhz(200.0),
        )
        .unwrap();
        assert!((t.f_max().as_ghz() - 1.6).abs() < 1e-9);
        assert_eq!(t.points().len(), 8);
    }
}
