//! Area/TDP budget axes and the dark-silicon closed forms.
//!
//! The paper's Section-2 conclusion — more, slower cores win at
//! iso-performance — invites the budget question the dark-silicon
//! literature formalized (Esmaeilzadeh et al., *Dark Silicon and the End
//! of Multicore Scaling*, ISCA 2011): given a die-area budget `A` and a
//! thermal design power `TDP`, how many cores of area `a` and power `p`
//! can a symmetric chip actually light up?
//!
//! ```text
//! N = min(⌊A / a⌋, ⌊TDP / p⌋)        // populated *and* powered cores
//! D = 1 − N·a / A                    // dark-silicon ratio
//! ```
//!
//! When the TDP term binds, `1 − ⌊A/a⌋·a/A` of the die is unusable area
//! slack and the rest of the gap is genuinely *dark* — paid for in area
//! but unpowerable. [`BudgetSpec`] carries the two budget axes through
//! the sweep grid; the per-core `a`/`p` inputs come from measured sweep
//! cells (power per core, tile area).

use crate::error::AnalyticError;

/// An area/TDP budget pair — the two axes of a dark-silicon sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetSpec {
    /// Die area budget in mm².
    pub area_mm2: f64,
    /// Thermal design power budget in watts.
    pub tdp_watts: f64,
}

impl BudgetSpec {
    /// The reference budget of the symmetric dark-silicon study:
    /// a 111 mm² die under a 125 W TDP.
    pub const REFERENCE: BudgetSpec = BudgetSpec {
        area_mm2: 111.0,
        tdp_watts: 125.0,
    };

    /// Validates the budget (both axes finite and positive).
    ///
    /// # Errors
    ///
    /// Returns [`AnalyticError::InvalidCoreCount`] with `n = 0` when a
    /// budget axis is non-positive or non-finite: there is no chip to
    /// build under such a budget.
    pub fn validate(&self) -> Result<(), AnalyticError> {
        if self.area_mm2.is_finite()
            && self.area_mm2 > 0.0
            && self.tdp_watts.is_finite()
            && self.tdp_watts > 0.0
        {
            Ok(())
        } else {
            Err(AnalyticError::InvalidCoreCount { n: 0, max: 0 })
        }
    }

    /// The symmetric-CMP population: how many cores of `core_area_mm2`
    /// and `core_power_watts` fit under both budget axes, and the
    /// resulting dark-silicon ratio.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyticError::InvalidCoreCount`] if the budget or the
    /// per-core inputs are non-positive/non-finite, or if not even one
    /// core fits.
    pub fn fit(
        &self,
        core_area_mm2: f64,
        core_power_watts: f64,
    ) -> Result<BudgetedChip, AnalyticError> {
        self.validate()?;
        if !(core_area_mm2.is_finite()
            && core_area_mm2 > 0.0
            && core_power_watts.is_finite()
            && core_power_watts > 0.0)
        {
            return Err(AnalyticError::InvalidCoreCount { n: 0, max: 0 });
        }
        let by_area = (self.area_mm2 / core_area_mm2).floor();
        let by_power = (self.tdp_watts / core_power_watts).floor();
        let n = by_area.min(by_power);
        if n < 1.0 {
            return Err(AnalyticError::InvalidCoreCount {
                n: 0,
                max: by_area.max(0.0) as usize,
            });
        }
        let n_cores = n as usize;
        Ok(BudgetedChip {
            n_cores,
            power_limited: by_power < by_area,
            dark_silicon_ratio: (1.0 - (n * core_area_mm2) / self.area_mm2).max(0.0),
        })
    }
}

/// The outcome of fitting one core design under a [`BudgetSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetedChip {
    /// Cores that are both populated and powered: `min(⌊A/a⌋, ⌊TDP/p⌋)`.
    pub n_cores: usize,
    /// Whether the TDP axis (rather than area) set the core count — the
    /// dark-silicon regime proper.
    pub power_limited: bool,
    /// Fraction of the die that is not lit: `1 − N·a/A`.
    pub dark_silicon_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_budget_with_charm_fits() {
        // The Charm study's pinned point: perf 36 at 45 nm, whose fits
        // give a = 0.0152·36² + 0.0265·36 + 7.4393 mm² and
        // p = 0.0002·36³ + 0.0009·36² + 0.3859·36 − 0.0301 W per core.
        let (a, p) = (28.0925, 24.3599);
        let chip = BudgetSpec::REFERENCE.fit(a, p).unwrap();
        // Area admits 3 cores, power admits 5: area-limited here.
        assert_eq!(chip.n_cores, 3);
        assert!(!chip.power_limited);
        assert!((chip.dark_silicon_ratio - (1.0 - 3.0 * a / 111.0)).abs() < 1e-12);
    }

    #[test]
    fn tdp_axis_binds_for_hot_small_cores() {
        // Small (5 mm²) but hot (25 W) cores: area would admit 22,
        // power only 5 — a power-limited, dark chip.
        let chip = BudgetSpec::REFERENCE.fit(5.0, 25.0).unwrap();
        assert_eq!(chip.n_cores, 5);
        assert!(chip.power_limited);
        assert!((chip.dark_silicon_ratio - (1.0 - 25.0 / 111.0)).abs() < 1e-12);
        assert!(chip.dark_silicon_ratio > 0.7);
    }

    #[test]
    fn generous_budget_has_no_dark_silicon_to_speak_of() {
        let budget = BudgetSpec {
            area_mm2: 100.0,
            tdp_watts: 1_000.0,
        };
        let chip = budget.fit(10.0, 1.0).unwrap();
        assert_eq!(chip.n_cores, 10);
        assert!(!chip.power_limited);
        assert!(chip.dark_silicon_ratio.abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        assert!(BudgetSpec::REFERENCE.fit(0.0, 1.0).is_err());
        assert!(BudgetSpec::REFERENCE.fit(1.0, f64::NAN).is_err());
        assert!(BudgetSpec {
            area_mm2: -1.0,
            tdp_watts: 125.0
        }
        .fit(1.0, 1.0)
        .is_err());
        // A core bigger than the die: nothing fits.
        let err = BudgetSpec::REFERENCE.fit(200.0, 1.0).unwrap_err();
        assert!(matches!(err, AnalyticError::InvalidCoreCount { n: 0, .. }));
    }
}
