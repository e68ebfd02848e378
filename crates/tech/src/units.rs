//! Strongly typed physical units used throughout the workspace.
//!
//! Every quantity that crosses a crate boundary is wrapped in a newtype
//! ([`Volts`], [`Hertz`], [`Watts`], ...) so that a supply voltage can never
//! be confused with a threshold voltage expressed in different units, or a
//! latency in cycles with one in seconds. All wrappers are thin `f64`
//! newtypes with `#[repr(transparent)]`, so they cost nothing at runtime.
//!
//! # Examples
//!
//! ```
//! use tlp_tech::units::{Hertz, Seconds, Volts};
//!
//! let f = Hertz::from_ghz(3.2);
//! let period: Seconds = f.period();
//! assert!((period.as_ns() - 0.3125).abs() < 1e-12);
//!
//! let v = Volts::new(1.1);
//! assert_eq!(v.as_f64(), 1.1);
//! ```

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Boltzmann constant in joules per kelvin.
pub const BOLTZMANN: f64 = 1.380_649e-23;
/// Elementary charge in coulombs.
pub const ELECTRON_CHARGE: f64 = 1.602_176_634e-19;
/// 0 °C expressed in kelvin.
pub const CELSIUS_OFFSET: f64 = 273.15;

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident, $suffix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        #[repr(transparent)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw `f64` value in this unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw `f64` value.
            #[inline]
            pub const fn as_f64(self) -> f64 {
                self.0
            }

            /// Zero in this unit.
            pub const ZERO: Self = Self(0.0);

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps `self` into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                assert!(lo.0 <= hi.0, "clamp bounds are inverted");
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` if the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $suffix)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

unit!(
    /// Electric potential in volts.
    Volts,
    "V"
);
unit!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);
unit!(
    /// Power in watts.
    Watts,
    "W"
);
unit!(
    /// Energy in joules.
    Joules,
    "J"
);
unit!(
    /// Time in seconds.
    Seconds,
    "s"
);
unit!(
    /// Temperature in degrees Celsius.
    Celsius,
    "°C"
);
unit!(
    /// Electric current in amperes.
    Amperes,
    "A"
);
unit!(
    /// Capacitance in farads.
    Farads,
    "F"
);
unit!(
    /// Area in square millimetres.
    SquareMillimeters,
    "mm²"
);

impl Hertz {
    /// Constructs a frequency from a value in megahertz.
    #[inline]
    pub fn from_mhz(mhz: f64) -> Self {
        Self::new(mhz * 1e6)
    }

    /// Constructs a frequency from a value in gigahertz.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        Self::new(ghz * 1e9)
    }

    /// Returns the frequency in megahertz.
    #[inline]
    pub fn as_mhz(self) -> f64 {
        self.as_f64() / 1e6
    }

    /// Returns the frequency in gigahertz.
    #[inline]
    pub fn as_ghz(self) -> f64 {
        self.as_f64() / 1e9
    }

    /// Returns the clock period corresponding to this frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not strictly positive.
    #[inline]
    pub fn period(self) -> Seconds {
        assert!(self.as_f64() > 0.0, "period of a non-positive frequency");
        Seconds::new(1.0 / self.as_f64())
    }
}

impl Seconds {
    /// Constructs a duration from nanoseconds.
    #[inline]
    pub fn from_ns(ns: f64) -> Self {
        Self::new(ns * 1e-9)
    }

    /// Returns the duration in nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.as_f64() * 1e9
    }

    /// Number of whole clock cycles of frequency `f` that fit in this
    /// duration, rounded up (a memory access that takes a fraction of a
    /// cycle still occupies the whole cycle). Values within 1e-6 of an
    /// integer cycle count are treated as exact to absorb floating-point
    /// noise (75 ns at 3.2 GHz is exactly 240 cycles).
    #[inline]
    pub fn to_cycles_ceil(self, f: Hertz) -> u64 {
        let cycles = self.as_f64() * f.as_f64();
        let rounded = cycles.round();
        if (cycles - rounded).abs() < 1e-6 {
            rounded as u64
        } else {
            cycles.ceil() as u64
        }
    }
}

impl Celsius {
    /// Converts to kelvin.
    #[inline]
    pub fn to_kelvin(self) -> f64 {
        self.as_f64() + CELSIUS_OFFSET
    }

    /// Thermal voltage kT/q at this temperature, in volts.
    #[inline]
    pub fn thermal_voltage(self) -> Volts {
        Volts::new(BOLTZMANN * self.to_kelvin() / ELECTRON_CHARGE)
    }
}

impl Watts {
    /// Energy dissipated at this power over a duration.
    #[inline]
    pub fn energy_over(self, t: Seconds) -> Joules {
        Joules::new(self.as_f64() * t.as_f64())
    }
}

impl Joules {
    /// Average power when this energy is spent over a duration.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not strictly positive.
    #[inline]
    pub fn over(self, t: Seconds) -> Watts {
        assert!(t.as_f64() > 0.0, "power over a non-positive duration");
        Watts::new(self.as_f64() / t.as_f64())
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        self.energy_over(rhs)
    }
}

impl Mul<Amperes> for Volts {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Amperes) -> Watts {
        Watts::new(self.as_f64() * rhs.as_f64())
    }
}

/// Power density in watts per square millimetre.
///
/// # Examples
///
/// ```
/// use tlp_tech::units::{PowerDensity, SquareMillimeters, Watts};
///
/// let (power, area) = (Watts::new(50.0), SquareMillimeters::new(100.0));
/// let d = PowerDensity::new(power.as_f64() / area.as_f64());
/// assert!((d.as_w_per_mm2() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct PowerDensity(f64);

impl PowerDensity {
    /// Creates a density from a raw W/mm² value.
    #[inline]
    pub const fn new(w_per_mm2: f64) -> Self {
        Self(w_per_mm2)
    }

    /// Returns the density in W/mm².
    #[inline]
    pub const fn as_w_per_mm2(self) -> f64 {
        self.0
    }
}

impl fmt::Display for PowerDensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} W/mm²", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_conversions_round_trip() {
        let f = Hertz::from_ghz(3.2);
        assert!((f.as_mhz() - 3200.0).abs() < 1e-9);
        assert!((f.as_ghz() - 3.2).abs() < 1e-12);
    }

    #[test]
    fn period_of_one_ghz_is_one_ns() {
        let p = Hertz::from_ghz(1.0).period();
        assert!((p.as_ns() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-positive frequency")]
    fn period_of_zero_frequency_panics() {
        let _ = Hertz::ZERO.period();
    }

    #[test]
    fn memory_latency_in_cycles_scales_with_frequency() {
        let mem = Seconds::from_ns(75.0);
        assert_eq!(mem.to_cycles_ceil(Hertz::from_ghz(3.2)), 240);
        assert_eq!(mem.to_cycles_ceil(Hertz::from_mhz(200.0)), 15);
    }

    #[test]
    fn thermal_voltage_near_room_temperature() {
        let vt = Celsius::new(26.85).thermal_voltage(); // 300 K
        assert!((vt.as_f64() - 0.02585).abs() < 1e-4);
    }

    #[test]
    fn energy_power_round_trip() {
        let e = Watts::new(25.0).energy_over(Seconds::new(2.0));
        assert!((e.as_f64() - 50.0).abs() < 1e-12);
        assert!((e.over(Seconds::new(2.0)).as_f64() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn unit_arithmetic_behaves_like_f64() {
        let a = Volts::new(1.0);
        let b = Volts::new(0.25);
        assert_eq!((a + b).as_f64(), 1.25);
        assert_eq!((a - b).as_f64(), 0.75);
        assert_eq!((a * 2.0).as_f64(), 2.0);
        assert_eq!((a / 4.0).as_f64(), 0.25);
        assert_eq!(a / b, 4.0);
        assert_eq!((-b).as_f64(), -0.25);
    }

    #[test]
    fn ratio_of_like_units_is_dimensionless() {
        let ratio: f64 = Hertz::from_ghz(1.6) / Hertz::from_ghz(3.2);
        assert!((ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clamp_and_min_max() {
        let v = Volts::new(1.5);
        assert_eq!(v.clamp(Volts::new(0.36), Volts::new(1.1)).as_f64(), 1.1);
        assert_eq!(v.min(Volts::new(1.0)).as_f64(), 1.0);
        assert_eq!(v.max(Volts::new(2.0)).as_f64(), 2.0);
    }

    #[test]
    fn volts_times_amps_is_watts() {
        let p = Volts::new(1.1) * Amperes::new(2.0);
        assert!((p.as_f64() - 2.2).abs() < 1e-12);
    }

    #[test]
    fn sum_of_units() {
        let total: Watts = [1.0, 2.0, 3.0].iter().map(|&w| Watts::new(w)).sum();
        assert_eq!(total.as_f64(), 6.0);
    }

    #[test]
    fn display_includes_suffix() {
        assert_eq!(format!("{}", Volts::new(1.1)), "1.1 V");
        assert_eq!(format!("{}", PowerDensity::new(0.5)), "0.5 W/mm²");
    }
}
