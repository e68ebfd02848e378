//! Analytical chip model: power equations (Eqs. 2, 4, 8, 9) coupled to the
//! thermal model.
//!
//! [`AnalyticChip`] binds a [`Technology`] to a calibrated core tile
//! ([`calibrated_tile`]). It evaluates chip-level dynamic and static power
//! for `N` active cores at a voltage/frequency point, and solves the
//! power↔temperature equilibrium the paper obtains by iterating its power
//! equations with HotSpot.

use tlp_tech::leakage::{self, FittedLeakage};
use tlp_tech::units::{Celsius, Hertz, Volts, Watts};
use tlp_tech::{FrequencyModel, Technology};
use tlp_thermal::{FixpointOptions, Floorplan, ThermalModel};

use crate::error::AnalyticError;

/// Die edge in millimetres (Table 1: 15.6 mm × 15.6 mm).
pub const DIE_EDGE_MM: f64 = 15.6;

/// Area of the die's core region in mm²: 65 % of the die, the rest being
/// the shared L2. The chip models divide it into one tile per core.
pub const CORE_REGION_MM2: f64 = DIE_EDGE_MM * DIE_EDGE_MM * 0.65;

/// The thermal tile of one core of `area_mm2`: an EV6 core tile whose
/// package is calibrated so that one core at full throttle
/// (`P_D1 + P_S1(T_max)`) equilibrates at the technology's `T_max` in a
/// 45 °C in-box ambient (§3.3). Following the paper ("we approximate the
/// operating temperature using the HotSpot thermal model for its default
/// Alpha EV6 floorplan"), every chip model solves its temperatures on
/// such tiles, one per core.
pub fn calibrated_tile(tech: &Technology, area_mm2: f64) -> ThermalModel {
    let p1 = tech.p_dynamic_core_nominal() + tech.p_static_core_at_tmax();
    ThermalModel::calibrated(
        Floorplan::ev6_tile(area_mm2.sqrt()),
        p1,
        tech.t_max(),
        Celsius::new(45.0),
    )
}

/// How die temperature enters the static-power term of an equilibrium
/// solve.
///
/// The paper couples power and temperature through HotSpot when evaluating
/// configurations (Scenario I / Fig. 1), but its budget-constrained
/// analysis is conservative: static power is assessed at the `T_1 = 100 °C`
/// design point, so the leakage "tax" per core does not evaporate as the
/// die cools. Reproducing Fig. 2's shape (65 nm strictly below 130 nm,
/// interior optimum, decline at high `N`) requires the pinned variant; the
/// `ablation_thermal` bench contrasts the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ThermalCoupling {
    /// Solve the power↔temperature fixpoint; static power follows the
    /// equilibrium die temperature.
    Equilibrium,
    /// Assess static power at the technology's maximum operating
    /// temperature (the design point), regardless of actual cooling.
    PinnedAtTmax,
}

/// The single-core full-throttle reference configuration: its power is the
/// Scenario-II budget and the Scenario-I normalization denominator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferencePoint {
    /// Total chip power of the reference (one core at nominal V/f).
    pub power: Watts,
    /// Equilibrium average temperature of the active core.
    pub temperature: Celsius,
}

/// A solved chip operating condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Equilibrium {
    /// Chip dynamic power.
    pub dynamic: Watts,
    /// Chip static power at the equilibrium temperature.
    pub static_: Watts,
    /// Equilibrium average temperature over the active cores.
    pub temperature: Celsius,
}

impl Equilibrium {
    /// Total chip power.
    pub fn total(&self) -> Watts {
        self.dynamic + self.static_
    }
}

/// Analytical CMP power model bound to a technology and thermal package.
///
/// # Examples
///
/// ```
/// use tlp_analytic::AnalyticChip;
/// use tlp_tech::Technology;
///
/// let chip = AnalyticChip::new(Technology::itrs_65nm(), 32);
/// let reference = chip.reference();
/// // Reference equilibrates at the 100 °C design point.
/// assert!((reference.temperature.as_f64() - 100.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct AnalyticChip {
    tech: Technology,
    freq: FrequencyModel,
    leak: FittedLeakage,
    thermal: ThermalModel,
    max_cores: usize,
    /// Per-core static power at nominal voltage and `T_std` (`P_S1std`).
    p_s1_std: Watts,
    reference: ReferencePoint,
}

impl AnalyticChip {
    /// Builds the model for a technology on a `max_cores`-way CMP die.
    ///
    /// Temperature is evaluated on one [`calibrated_tile`] with the
    /// per-core area of the die: all active cores run the same workload at
    /// the same V/f, so each tile sees the same power and settles at the
    /// same temperature.
    ///
    /// # Panics
    ///
    /// Panics if `max_cores` is zero.
    pub fn new(tech: Technology, max_cores: usize) -> Self {
        assert!(max_cores > 0, "chip needs at least one core");
        let freq = FrequencyModel::new(&tech);
        let (leak, _) = leakage::fit(&tech);
        let lambda_tmax = leak.normalized(tech.vdd_nominal(), tech.t_max());
        let p_s1_std = Watts::new(tech.p_static_core_at_tmax().as_f64() / lambda_tmax);
        let thermal = calibrated_tile(&tech, CORE_REGION_MM2 / max_cores as f64);
        let mut chip = Self {
            tech,
            freq,
            leak,
            thermal,
            max_cores,
            p_s1_std,
            // Placeholder until the reference equilibrium below is solved.
            reference: ReferencePoint {
                power: Watts::ZERO,
                temperature: Celsius::new(0.0),
            },
        };
        let eq = chip
            .equilibrium(1, chip.tech.vdd_nominal(), chip.tech.f_nominal())
            .expect("reference configuration is always solvable");
        chip.reference = ReferencePoint {
            power: eq.total(),
            temperature: eq.temperature,
        };
        chip
    }

    /// The underlying technology.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The alpha-power frequency model for this chip.
    pub fn frequency_model(&self) -> &FrequencyModel {
        &self.freq
    }

    /// Maximum number of cores on the die.
    pub fn max_cores(&self) -> usize {
        self.max_cores
    }

    /// The single-core full-throttle reference point.
    pub fn reference(&self) -> ReferencePoint {
        self.reference
    }

    /// Chip dynamic power with `n` active cores at `(v, f)` (Eq. 9 dynamic
    /// term): `n · P_D1 · (V/V1)² · (f/f1)`.
    pub fn dynamic_power(&self, n: usize, v: Volts, f: Hertz) -> Watts {
        let rho = v / self.tech.vdd_nominal();
        let eta = f / self.tech.f_nominal();
        self.tech.p_dynamic_core_nominal() * (n as f64 * rho * rho * eta)
    }

    /// Chip static power with `n` active cores at voltage `v` and
    /// temperature `t` (Eq. 9 static term):
    /// `n · P_S1std · (V/V1) · λ(V, T)`.
    pub fn static_power(&self, n: usize, v: Volts, t: Celsius) -> Watts {
        let rho = v / self.tech.vdd_nominal();
        self.p_s1_std * (n as f64 * rho * self.leak.normalized(v, t))
    }

    /// Solves the power↔temperature equilibrium for `n` active cores at
    /// `(v, f)`: temperatures follow total power through the thermal model
    /// and static power follows temperature through the leakage fit.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyticError::InvalidCoreCount`] if `n` is out of range,
    /// or [`AnalyticError::NoConvergence`] if the fixpoint fails (which
    /// does not occur for physical parameter ranges).
    pub fn equilibrium(&self, n: usize, v: Volts, f: Hertz) -> Result<Equilibrium, AnalyticError> {
        self.equilibrium_with(n, v, f, ThermalCoupling::Equilibrium)
    }

    /// Like [`AnalyticChip::equilibrium`], but with an explicit
    /// temperature policy for the static term (see [`ThermalCoupling`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`AnalyticChip::equilibrium`].
    pub fn equilibrium_with(
        &self,
        n: usize,
        v: Volts,
        f: Hertz,
        coupling: ThermalCoupling,
    ) -> Result<Equilibrium, AnalyticError> {
        if n == 0 || n > self.max_cores {
            return Err(AnalyticError::InvalidCoreCount {
                n,
                max: self.max_cores,
            });
        }
        if coupling == ThermalCoupling::PinnedAtTmax {
            let dynamic = self.dynamic_power(n, v, f);
            let t = self.tech.t_max();
            let static_ = self.static_power(n, v, t);
            // Report the thermally solved temperature for the total power
            // so callers can still plot realistic die temperatures.
            let per_core_total = (dynamic + static_) / n as f64;
            let blocks = self.thermal.uniform_power(per_core_total);
            let map = self.thermal.steady_state(&blocks);
            let temperature = self.tile_temperature(map.block_temps());
            return Ok(Equilibrium {
                dynamic,
                static_,
                temperature,
            });
        }
        // All active cores run identically; solve one tile and multiply.
        let dynamic = self.dynamic_power(n, v, f);
        let per_core_dynamic = dynamic / n as f64;
        let dyn_blocks = self.thermal.uniform_power(per_core_dynamic);
        let opts = FixpointOptions {
            tolerance_celsius: 1e-3,
            max_iterations: 200,
            damping: 0.0,
            divergence_limit_celsius: f64::INFINITY,
        };
        let result = self
            .thermal
            .try_fixpoint(
                &dyn_blocks,
                |map| {
                    let t = self
                        .tile_temperature(map.block_temps())
                        .max(self.thermal.ambient());
                    self.thermal.uniform_power(self.static_power(1, v, t))
                },
                &opts,
            )
            .map_err(|_| AnalyticError::NoConvergence {
                what: "power-temperature equilibrium",
            })?;
        let temperature = self.tile_temperature(result.map.block_temps());
        let static_per_core: Watts = result.static_power.iter().copied().sum();
        Ok(Equilibrium {
            dynamic,
            static_: static_per_core * n as f64,
            temperature,
        })
    }

    /// The calibrated core tile every active core is solved on.
    pub fn thermal(&self) -> &ThermalModel {
        &self.thermal
    }

    fn tile_temperature(&self, temps: &[Celsius]) -> Celsius {
        self.thermal.floorplan().average_temperature(temps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip65() -> AnalyticChip {
        AnalyticChip::new(Technology::itrs_65nm(), 32)
    }

    #[test]
    fn reference_power_is_p1() {
        let chip = chip65();
        // P1 = P_D1 + P_S1(tmax) = 15 + 10 W by construction.
        assert!(
            (chip.reference().power.as_f64() - 25.0).abs() < 0.3,
            "reference power {}",
            chip.reference().power
        );
        assert!((chip.reference().temperature.as_f64() - 100.0).abs() < 0.5);
    }

    #[test]
    fn dynamic_power_scales_as_v2f() {
        let chip = chip65();
        let p_full = chip.dynamic_power(1, Volts::new(1.1), Hertz::from_ghz(3.2));
        let p_half_f = chip.dynamic_power(1, Volts::new(1.1), Hertz::from_ghz(1.6));
        let p_half_v = chip.dynamic_power(1, Volts::new(0.55), Hertz::from_ghz(3.2));
        assert!((p_half_f.as_f64() - p_full.as_f64() / 2.0).abs() < 1e-9);
        assert!((p_half_v.as_f64() - p_full.as_f64() / 4.0).abs() < 1e-9);
        let p2 = chip.dynamic_power(2, Volts::new(1.1), Hertz::from_ghz(3.2));
        assert!((p2.as_f64() - 2.0 * p_full.as_f64()).abs() < 1e-9);
    }

    #[test]
    fn static_power_grows_with_temperature() {
        let chip = chip65();
        let cold = chip.static_power(1, Volts::new(1.1), Celsius::new(45.0));
        let hot = chip.static_power(1, Volts::new(1.1), Celsius::new(100.0));
        assert!(hot.as_f64() > 1.5 * cold.as_f64());
        // At (V1, tmax) it reproduces the technology's anchor value.
        assert!((hot.as_f64() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn equilibrium_two_cores_at_nominal_is_roughly_double() {
        let chip = chip65();
        let eq1 = chip
            .equilibrium(1, Volts::new(1.1), Hertz::from_ghz(3.2))
            .unwrap();
        let eq2 = chip
            .equilibrium(2, Volts::new(1.1), Hertz::from_ghz(3.2))
            .unwrap();
        let ratio = eq2.total() / eq1.total();
        assert!(
            (ratio - 2.0).abs() < 1e-6,
            "2-core/1-core power ratio {ratio}"
        );
        // Per-tile temperature is identical: same per-core power.
        assert!((eq2.temperature.as_f64() - eq1.temperature.as_f64()).abs() < 1e-6);
    }

    #[test]
    fn equilibrium_scaled_down_runs_cool_and_frugal() {
        let chip = chip65();
        let eq = chip
            .equilibrium(4, Volts::new(0.55), Hertz::from_ghz(0.8))
            .unwrap();
        assert!(eq.total().as_f64() < chip.reference().power.as_f64());
        assert!(eq.temperature.as_f64() < 100.0);
        assert!(eq.temperature.as_f64() >= 45.0);
    }

    #[test]
    fn core_count_bounds_checked() {
        let chip = chip65();
        assert!(chip
            .equilibrium(0, Volts::new(1.1), Hertz::from_ghz(3.2))
            .is_err());
        assert!(chip
            .equilibrium(33, Volts::new(1.1), Hertz::from_ghz(3.2))
            .is_err());
    }

    #[test]
    fn equilibrium_static_positive() {
        let chip = chip65();
        let eq = chip
            .equilibrium(8, Volts::new(0.8), Hertz::from_ghz(1.0))
            .unwrap();
        assert!(eq.static_.as_f64() > 0.0);
        assert!(eq.dynamic.as_f64() > 0.0);
        assert!((eq.total().as_f64() - eq.dynamic.as_f64() - eq.static_.as_f64()).abs() < 1e-12);
    }

    #[test]
    fn reference_130nm_has_smaller_static_share() {
        let c130 = AnalyticChip::new(Technology::itrs_130nm(), 32);
        let c65 = chip65();
        let eq130 = c130
            .equilibrium(1, c130.tech().vdd_nominal(), c130.tech().f_nominal())
            .unwrap();
        let eq65 = c65
            .equilibrium(1, c65.tech().vdd_nominal(), c65.tech().f_nominal())
            .unwrap();
        let share130 = eq130.static_.as_f64() / eq130.total().as_f64();
        let share65 = eq65.static_.as_f64() / eq65.total().as_f64();
        assert!(share130 < share65);
    }
}
