//! Scenario II: performance optimization under a power budget (paper
//! Section 2.3, Fig. 2).
//!
//! The power budget equals the single-core full-throttle power `P_1`. For
//! each core count `N` the solver finds the highest voltage/frequency point
//! whose equilibrium chip power fits the budget (the paper's Eq. 11
//! restriction) and reports the resulting speedup `S = N·εn·(f_N/f_1)`
//! (Eq. 10). Voltage scales down to the noise-margin floor; below it only
//! frequency scales, which is where the speedup curve rolls over.

use tlp_tech::units::{Celsius, Hertz, Volts, Watts};

use crate::chip::{AnalyticChip, ThermalCoupling};
use crate::efficiency::EfficiencyCurve;
use crate::error::AnalyticError;

/// How the budget-satisfying operating point was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScalingRegime {
    /// Budget is slack at nominal V/f: no scaling applied.
    Nominal,
    /// Voltage (and hence frequency) scaled within `[V_floor, V_1]`.
    VoltageScaled,
    /// Voltage pinned at the floor; only frequency scaled further.
    FrequencyOnly,
}

/// One solved budget-constrained configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario2Point {
    /// Number of active cores.
    pub n: usize,
    /// Nominal parallel efficiency at this `n`.
    pub efficiency: f64,
    /// Chosen per-core frequency.
    pub frequency: Hertz,
    /// Chosen supply voltage.
    pub voltage: Volts,
    /// Equilibrium average temperature over the active cores.
    pub temperature: Celsius,
    /// Total chip power (≤ budget, equal when the budget binds).
    pub power: Watts,
    /// Speedup over the single-core full-throttle execution (Eq. 10).
    pub speedup: f64,
    /// Which scaling regime produced the point.
    pub regime: ScalingRegime,
}

/// Scenario-II solver over an [`AnalyticChip`].
///
/// # Examples
///
/// ```
/// use tlp_analytic::{AnalyticChip, EfficiencyCurve, Scenario2};
/// use tlp_tech::Technology;
///
/// let chip = AnalyticChip::new(Technology::itrs_130nm(), 32);
/// let s2 = Scenario2::new(&chip);
/// let p8 = s2.solve(8, &EfficiencyCurve::Perfect)?;
/// // Even a perfectly scalable app is slowed by the budget:
/// assert!(p8.speedup < 8.0);
/// assert!(p8.speedup > 1.0);
/// # Ok::<(), tlp_analytic::AnalyticError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Scenario2<'a> {
    chip: &'a AnalyticChip,
    budget: Watts,
    coupling: ThermalCoupling,
}

impl<'a> Scenario2<'a> {
    /// Creates a solver whose budget is the chip's single-core reference
    /// power (the paper's constraint).
    pub fn new(chip: &'a AnalyticChip) -> Self {
        Self {
            chip,
            budget: chip.reference().power,
            coupling: ThermalCoupling::PinnedAtTmax,
        }
    }

    /// Overrides the temperature policy for static power (the default is
    /// the paper's conservative [`ThermalCoupling::PinnedAtTmax`]).
    pub fn with_coupling(mut self, coupling: ThermalCoupling) -> Self {
        self.coupling = coupling;
        self
    }

    /// The power budget in force.
    pub fn budget(&self) -> Watts {
        self.budget
    }

    /// Equilibrium total power for `n` cores at voltage `v` running at the
    /// maximum frequency that voltage sustains.
    fn power_at_voltage(&self, n: usize, v: Volts) -> Result<(Watts, Hertz), AnalyticError> {
        let f = self.chip.frequency_model().max_frequency_at(v)?;
        let eq = self.chip.equilibrium_with(n, v, f, self.coupling)?;
        Ok((eq.total(), f))
    }

    /// Solves the budget-constrained optimum for `n` cores.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyticError::InvalidCoreCount`] for out-of-range `n`,
    /// propagates efficiency-curve errors, and reports
    /// [`AnalyticError::NoConvergence`] if the bisection fails to bracket
    /// (not reachable for physical budgets).
    pub fn solve(
        &self,
        n: usize,
        efficiency: &EfficiencyCurve,
    ) -> Result<Scenario2Point, AnalyticError> {
        tlp_obs::metrics::ANALYTIC_SOLVES.incr();
        if n == 0 || n > self.chip.max_cores() {
            return Err(AnalyticError::InvalidCoreCount {
                n,
                max: self.chip.max_cores(),
            });
        }
        let eps = efficiency.at(n)?;
        let tech = self.chip.tech();
        let f1 = tech.f_nominal();
        let v1 = tech.vdd_nominal();
        let floor = tech.voltage_floor();
        let budget = self.budget.as_f64();

        let finish =
            |v: Volts, f: Hertz, regime: ScalingRegime| -> Result<Scenario2Point, AnalyticError> {
                let eq = self.chip.equilibrium_with(n, v, f, self.coupling)?;
                Ok(Scenario2Point {
                    n,
                    efficiency: eps,
                    frequency: f,
                    voltage: v,
                    temperature: eq.temperature,
                    power: eq.total(),
                    speedup: n as f64 * eps * (f / f1),
                    regime,
                })
            };

        // Candidate 1: nominal V/f fits the budget outright.
        let nominal_power = self
            .chip
            .equilibrium_with(n, v1, f1, self.coupling)?
            .total();
        if nominal_power.as_f64() <= budget * (1.0 + 1e-3) {
            return finish(v1, f1, ScalingRegime::Nominal);
        }

        // Candidate 2: bisect voltage in [floor, V1] at max frequency.
        let (floor_power, floor_freq) = self.power_at_voltage(n, floor)?;
        if floor_power.as_f64() <= budget {
            let mut lo = floor;
            let mut hi = v1;
            for _ in 0..80 {
                let mid = Volts::new(0.5 * (lo.as_f64() + hi.as_f64()));
                let (p, _) = self.power_at_voltage(n, mid)?;
                if p.as_f64() > budget {
                    hi = mid;
                } else {
                    lo = mid;
                }
                if (hi - lo).as_f64() < 1e-6 {
                    break;
                }
            }
            let f = self.chip.frequency_model().max_frequency_at(lo)?;
            return finish(lo, f, ScalingRegime::VoltageScaled);
        }

        // Candidate 3: voltage pinned at the floor; bisect frequency.
        let mut lo = Hertz::new(floor_freq.as_f64() * 1e-4);
        let mut hi = floor_freq;
        for _ in 0..80 {
            let mid = Hertz::new(0.5 * (lo.as_f64() + hi.as_f64()));
            let p = self
                .chip
                .equilibrium_with(n, floor, mid, self.coupling)?
                .total();
            if p.as_f64() > budget {
                hi = mid;
            } else {
                lo = mid;
            }
            if (hi - lo).as_f64() < 1.0 {
                break;
            }
        }
        // If even a near-zero frequency exceeds the budget, static power of
        // n cores alone busts it; report the floor as non-convergent.
        let p_lo = self
            .chip
            .equilibrium_with(n, floor, lo, self.coupling)?
            .total();
        if p_lo.as_f64() > budget * 1.01 {
            return Err(AnalyticError::NoConvergence {
                what: "frequency-only budget solve (static power exceeds budget)",
            });
        }
        finish(floor, lo, ScalingRegime::FrequencyOnly)
    }

    /// Sweeps `n` from 1 to `n_max`, producing the Fig. 2 series.
    /// Configurations whose static power alone exceeds the budget are
    /// omitted.
    pub fn sweep(&self, n_max: usize, efficiency: &EfficiencyCurve) -> Vec<Scenario2Point> {
        (1..=n_max.min(self.chip.max_cores()))
            .filter_map(|n| self.solve(n, efficiency).ok())
            .collect()
    }
}

/// Finds the core count with the highest speedup in a Fig. 2 sweep.
///
/// NaN-safe: a poisoned speedup neither panics the selection (as the old
/// `partial_cmp().expect()` did) nor wins it (`f64::total_cmp` alone would
/// rank positive NaN above +∞) — NaN ranks below every real speedup.
pub fn optimal_point(points: &[Scenario2Point]) -> Option<&Scenario2Point> {
    let key = |s: f64| if s.is_nan() { f64::NEG_INFINITY } else { s };
    points
        .iter()
        .max_by(|a, b| key(a.speedup).total_cmp(&key(b.speedup)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_tech::Technology;

    fn chip130() -> AnalyticChip {
        AnalyticChip::new(Technology::itrs_130nm(), 32)
    }

    fn chip65() -> AnalyticChip {
        AnalyticChip::new(Technology::itrs_65nm(), 32)
    }

    #[test]
    fn optimal_point_survives_nan_speedups() {
        let mk = |n: usize, speedup: f64| Scenario2Point {
            n,
            efficiency: 1.0,
            frequency: Hertz::from_ghz(3.0),
            voltage: Volts::new(1.1),
            temperature: Celsius::new(80.0),
            power: Watts::new(20.0),
            speedup,
            regime: ScalingRegime::Nominal,
        };
        let points = vec![mk(1, 1.0), mk(2, f64::NAN), mk(4, 2.5)];
        let best = optimal_point(&points).unwrap();
        assert_eq!(best.n, 4, "NaN must neither panic nor win");
    }

    #[test]
    fn single_core_is_the_reference() {
        let chip = chip130();
        let s2 = Scenario2::new(&chip);
        let p = s2.solve(1, &EfficiencyCurve::Perfect).unwrap();
        assert_eq!(p.regime, ScalingRegime::Nominal);
        assert!((p.speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn budget_binds_for_multiple_cores() {
        let chip = chip130();
        let s2 = Scenario2::new(&chip);
        let p = s2.solve(4, &EfficiencyCurve::Perfect).unwrap();
        assert!(p.regime != ScalingRegime::Nominal);
        assert!(p.power.as_f64() <= s2.budget().as_f64() * 1.01);
        // Budget binds: within a few percent of the budget.
        assert!(p.power.as_f64() > s2.budget().as_f64() * 0.9);
    }

    #[test]
    fn speedup_below_nominal_but_above_one() {
        let chip = chip130();
        let s2 = Scenario2::new(&chip);
        for n in [2usize, 4, 8] {
            let p = s2.solve(n, &EfficiencyCurve::Perfect).unwrap();
            assert!(p.speedup < n as f64, "n={n} speedup {}", p.speedup);
            assert!(p.speedup > 1.0, "n={n} speedup {}", p.speedup);
        }
    }

    #[test]
    fn fig2_shape_130nm_peak_around_four() {
        // Paper: maximum speedup a little over 4 for 130 nm, with an
        // interior optimum N.
        let chip = chip130();
        let s2 = Scenario2::new(&chip);
        let sweep = s2.sweep(32, &EfficiencyCurve::Perfect);
        let best = optimal_point(&sweep).unwrap();
        assert!(
            best.speedup > 3.0 && best.speedup < 6.0,
            "130nm peak speedup {}",
            best.speedup
        );
        assert!(
            best.n > 2 && best.n < 32,
            "optimum N {} should be interior",
            best.n
        );
        // Speedup declines past the optimum.
        let last = sweep.last().unwrap();
        assert!(last.speedup < best.speedup);
    }

    #[test]
    fn fig2_65nm_below_130nm() {
        // Paper: the 65 nm curve runs below 130 nm (larger static share).
        // Our calibration reproduces the gap from the peak onward; at
        // N = 2–4 the curves are within ~15 % of each other (documented
        // deviation in EXPERIMENTS.md).
        let c130 = chip130();
        let c65 = chip65();
        let s130 = Scenario2::new(&c130);
        let s65 = Scenario2::new(&c65);
        for n in [8usize, 16, 24] {
            let p130 = s130.solve(n, &EfficiencyCurve::Perfect).unwrap();
            let p65 = s65.solve(n, &EfficiencyCurve::Perfect).unwrap();
            assert!(
                p65.speedup < p130.speedup,
                "n={n}: 65nm {} !< 130nm {}",
                p65.speedup,
                p130.speedup
            );
        }
    }

    #[test]
    fn frequency_only_regime_reached_at_high_n() {
        let chip = chip65();
        let s2 = Scenario2::new(&chip);
        let p = s2.solve(32, &EfficiencyCurve::Perfect).unwrap();
        assert_eq!(p.regime, ScalingRegime::FrequencyOnly);
        assert_eq!(p.voltage, chip.tech().voltage_floor());
    }

    #[test]
    fn power_under_budget_everywhere() {
        let chip = chip65();
        let s2 = Scenario2::new(&chip);
        for p in s2.sweep(32, &EfficiencyCurve::Perfect) {
            assert!(
                p.power.as_f64() <= s2.budget().as_f64() * 1.02,
                "n={} power {} over budget {}",
                p.n,
                p.power,
                s2.budget()
            );
        }
    }

    #[test]
    fn generous_budget_removes_scaling() {
        let chip = chip130();
        let s2 = Scenario2 {
            chip: &chip,
            budget: Watts::new(10_000.0),
            coupling: ThermalCoupling::PinnedAtTmax,
        };
        let p = s2.solve(16, &EfficiencyCurve::Perfect).unwrap();
        assert_eq!(p.regime, ScalingRegime::Nominal);
        assert!((p.speedup - 16.0).abs() < 1e-9);
    }

    #[test]
    fn poor_efficiency_lowers_speedup() {
        let chip = chip130();
        let s2 = Scenario2::new(&chip);
        let perfect = s2.solve(8, &EfficiencyCurve::Perfect).unwrap();
        let poor = s2
            .solve(
                8,
                &EfficiencyCurve::Amdahl {
                    serial_fraction: 0.2,
                },
            )
            .unwrap();
        assert!(poor.speedup < perfect.speedup);
    }

    #[test]
    fn out_of_range_core_count() {
        let chip = chip130();
        let s2 = Scenario2::new(&chip);
        assert!(s2.solve(0, &EfficiencyCurve::Perfect).is_err());
        assert!(s2.solve(64, &EfficiencyCurve::Perfect).is_err());
    }

    #[test]
    fn optimal_point_of_empty_is_none() {
        assert!(optimal_point(&[]).is_none());
    }
}
