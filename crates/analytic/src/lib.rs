//! Analytical CMP power-performance model — Section 2 of Li & Martínez,
//! *Power-Performance Implications of Thread-level Parallelism on Chip
//! Multiprocessors* (ISPASS 2005).
//!
//! The model connects three quantities the paper puts together for the
//! first time: **granularity** (the number of cores `N` assigned to a
//! parallel application), the application's **nominal parallel efficiency**
//! `εn(N)` ([`EfficiencyCurve`], Eq. 6), and chip-wide
//! **voltage/frequency scaling** (via [`tlp_tech`]). Two optimization
//! scenarios are solved:
//!
//! - [`Scenario1`] — minimize power subject to matching single-core
//!   full-throttle performance (paper Fig. 1).
//! - [`Scenario2`] — maximize speedup subject to the single-core power
//!   budget (paper Fig. 2).
//!
//! Both couple the Eq. 9 power decomposition to die temperature through
//! [`tlp_thermal`], reproducing the paper's HotSpot-in-the-loop methodology.
//!
//! # Example: the paper's headline result
//!
//! ```
//! use tlp_analytic::{AnalyticChip, EfficiencyCurve, Scenario1, Scenario2};
//! use tlp_tech::Technology;
//!
//! let chip = AnalyticChip::new(Technology::itrs_65nm(), 32);
//!
//! // Fig. 1: a well-scaling app on 4 cores matches single-core performance
//! // at a fraction of the power.
//! let s1 = Scenario1::new(&chip);
//! let point = s1.solve(4, 0.9)?;
//! assert!(point.normalized_power < 1.0);
//!
//! // Fig. 2: under the single-core power budget, even a perfect app's
//! // speedup saturates well below N.
//! let s2 = Scenario2::new(&chip);
//! let p16 = s2.solve(16, &EfficiencyCurve::Perfect)?;
//! assert!(p16.speedup < 8.0);
//! # Ok::<(), tlp_analytic::AnalyticError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod budget;
pub mod chip;
pub mod efficiency;
pub mod error;
pub mod scenario1;
pub mod scenario2;

pub use budget::{BudgetSpec, BudgetedChip};
pub use chip::{
    calibrated_tile, AnalyticChip, Equilibrium, ReferencePoint, ThermalCoupling, CORE_REGION_MM2,
    DIE_EDGE_MM,
};
pub use efficiency::EfficiencyCurve;
pub use error::AnalyticError;
pub use scenario1::{Scenario1, Scenario1Point, Scenario1Series};
pub use scenario2::{optimal_point, ScalingRegime, Scenario2, Scenario2Point};

#[cfg(test)]
mod proptests {
    //! Randomized invariant tests over deterministic seeded input streams.

    use tlp_tech::rng::SplitMix64;
    use tlp_tech::Technology;

    use crate::{AnalyticChip, EfficiencyCurve, Scenario1, Scenario2};

    fn chip() -> &'static AnalyticChip {
        use std::sync::OnceLock;
        static CHIP: OnceLock<AnalyticChip> = OnceLock::new();
        CHIP.get_or_init(|| AnalyticChip::new(Technology::itrs_65nm(), 32))
    }

    /// Scenario-I power is monotone non-increasing in efficiency for a
    /// fixed N (more efficiency never costs power).
    #[test]
    fn s1_monotone_in_efficiency() {
        let s1 = Scenario1::new(chip());
        let mut rng = SplitMix64::seed_from_u64(0xF0);
        for _case in 0..24 {
            let n = rng.gen_range_usize(2..16);
            let eps = rng.gen_range_f64(0.3..0.95);
            let lo_eps = eps.max(1.0 / n as f64);
            let hi_eps = (lo_eps + 0.05).min(1.0);
            if let (Ok(a), Ok(b)) = (s1.solve(n, lo_eps), s1.solve(n, hi_eps)) {
                assert!(b.normalized_power <= a.normalized_power + 1e-9);
            }
        }
    }

    /// Scenario-II solutions always respect the budget and produce a
    /// speedup no larger than the nominal one.
    #[test]
    fn s2_respects_budget_and_nominal_bound() {
        let s2 = Scenario2::new(chip());
        let mut rng = SplitMix64::seed_from_u64(0xF1);
        for _case in 0..24 {
            let n = rng.gen_range_usize(1..32);
            let p = s2.solve(n, &EfficiencyCurve::Perfect).unwrap();
            assert!(p.power.as_f64() <= s2.budget().as_f64() * 1.02);
            assert!(p.speedup <= n as f64 + 1e-9);
            assert!(p.speedup > 0.0);
        }
    }

    /// Scenario-I voltage never exceeds nominal or drops below floor.
    #[test]
    fn s1_voltage_in_range() {
        let s1 = Scenario1::new(chip());
        let mut rng = SplitMix64::seed_from_u64(0xF2);
        for _case in 0..24 {
            let n = rng.gen_range_usize(2..32);
            let eps = rng.gen_range_f64(0.5..1.0);
            if let Ok(p) = s1.solve(n, eps) {
                assert!(p.voltage <= chip().tech().vdd_nominal());
                assert!(p.voltage >= chip().tech().voltage_floor());
            }
        }
    }
}
