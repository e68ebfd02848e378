//! Wattch-like architectural power model for the `cmp-tlp` reproduction of
//! Li & Martínez (ISPASS 2005).
//!
//! The experimental side of the paper measures dynamic power with Wattch
//! (activity counts × per-structure capacitance), models static power as a
//! temperature-exponential fraction, and reconciles Wattch with HotSpot
//! through a renormalization anchored at the maximum operational power
//! (§3.3). This crate rebuilds that stack:
//!
//! - [`arrays`] — CACTI-like per-access SRAM energy.
//! - [`structures`] — the EV6-class per-structure energy table.
//! - [`PowerCalculator`] — activity counters → dynamic power per
//!   structure and per core (with Wattch-style conditional clocking);
//!   [`CoreDynamic::try_per_block`] maps one core onto its EV6 core tile.
//! - [`StaticPower`] — leakage power anchored at `P_S1(T_max)` and scaled
//!   by the Eq. 3 curve-fitted formula.
//! - [`Calibration`] — the §3.3 microbenchmark renormalization.
//!
//! # Example: measure a run's chip power
//!
//! ```
//! use tlp_power::{PowerCalculator, StaticPower};
//! use tlp_sim::{CmpConfig, CmpSimulator};
//! use tlp_tech::Technology;
//! use tlp_tech::units::{Celsius, Volts};
//! use tlp_workloads::{gang, AppId, Scale};
//!
//! let cfg = CmpConfig::ispass05(16);
//! let run = CmpSimulator::new(cfg.clone(), gang(AppId::Fft, 2, Scale::Test, 1)).run();
//! let dynamic = PowerCalculator::new(&cfg).dynamic(&run, Volts::new(1.1));
//! let static_ = StaticPower::new(&Technology::itrs_65nm())
//!     .chip_static(2, Volts::new(1.1), Celsius::new(80.0));
//! let total = dynamic.total() + static_;
//! assert!(total.as_f64() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accounting;
pub mod arrays;
pub mod calibration;
pub mod error;
pub mod statics;
pub mod structures;

pub use accounting::{CoreDynamic, DynamicBreakdown, PowerCalculator};
pub use calibration::Calibration;
pub use error::PowerError;
pub use statics::StaticPower;
pub use structures::CoreEnergies;

#[cfg(test)]
mod proptests {
    //! Randomized invariant tests over deterministic seeded input streams.

    use tlp_tech::rng::SplitMix64;
    use tlp_tech::units::{Celsius, Volts};
    use tlp_tech::Technology;

    use crate::StaticPower;

    /// Static power is positive and monotone in V and T over the
    /// operating envelope.
    #[test]
    fn static_power_monotone() {
        let m = StaticPower::new(&Technology::itrs_65nm());
        let mut rng = SplitMix64::seed_from_u64(0xD0);
        for _case in 0..32 {
            let v = rng.gen_range_f64(0.76..1.1);
            let t = rng.gen_range_f64(45.0..100.0);
            let base = m.core_static(Volts::new(v), Celsius::new(t)).as_f64();
            assert!(base > 0.0);
            let hotter = m.core_static(Volts::new(v), Celsius::new(t + 1.0)).as_f64();
            let higher = m
                .core_static(Volts::new(v + 0.005), Celsius::new(t))
                .as_f64();
            assert!(hotter > base);
            assert!(higher > base);
        }
    }
}
