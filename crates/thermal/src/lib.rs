//! HotSpot-like compact thermal model for the `cmp-tlp` reproduction of
//! Li & Martínez (ISPASS 2005).
//!
//! The paper estimates die temperature with the HotSpot RC thermal model
//! over an Alpha EV6 floorplan and couples it to its leakage model (static
//! power is exponentially temperature-dependent). This crate rebuilds that
//! stack:
//!
//! - [`Floorplan`] — rectangular block floorplans; the EV6-like core
//!   tile ([`Floorplan::ev6_tile`]) is the one the chip models solve,
//!   one tile per core (DESIGN.md §5, decision 4).
//! - [`RcNetwork`] — the compact RC network (vertical conduction to a
//!   lumped spreader/sink stack, lateral conduction between adjacent
//!   blocks), with steady-state and implicit-Euler transient solvers.
//! - [`ThermalModel`] — calibration against a maximum-operational-power
//!   anchor (Section 3.3 of the paper), thermal maps, and the
//!   temperature↔leakage fixpoint.
//!
//! # Example
//!
//! ```
//! use tlp_thermal::{Floorplan, ThermalModel};
//! use tlp_tech::units::{Celsius, Watts};
//!
//! // One core tile of the paper's 16-core 15.6 mm die, anchored so one
//! // core at full throttle (25 W) reaches the 100 °C design point.
//! let model = ThermalModel::calibrated(
//!     Floorplan::ev6_tile(3.14),
//!     Watts::new(25.0),
//!     Celsius::new(100.0),
//!     Celsius::new(45.0),
//! );
//! // A core scaled down to a quarter of that power runs cooler:
//! let p = model.uniform_power(Watts::new(6.25));
//! let map = model.steady_state(&p);
//! assert!(model.floorplan().average_temperature(map.block_temps()).as_f64() < 100.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod floorplan;
pub mod model;
pub mod network;

pub use error::ThermalError;
pub use floorplan::{Block, Floorplan};
pub use model::{FixpointOptions, FixpointResult, ThermalMap, ThermalModel};
pub use network::{PackageParams, RcNetwork, TransientSolver};

#[cfg(test)]
mod proptests {
    //! Randomized invariant tests over deterministic seeded input streams.

    use tlp_tech::rng::SplitMix64;
    use tlp_tech::units::{Celsius, Watts};

    use crate::{Floorplan, PackageParams, RcNetwork, ThermalModel};

    /// Steady-state block temperatures never drop below ambient under
    /// non-negative power.
    #[test]
    fn temps_bounded_below_by_ambient() {
        let mut rng = SplitMix64::seed_from_u64(0xC0);
        for _case in 0..32 {
            let total = rng.gen_range_f64(0.0..50.0);
            let edge = rng.gen_range_f64(2.0..13.0);
            let m = ThermalModel::new(
                Floorplan::ev6_tile(edge),
                PackageParams::default(),
                Celsius::new(45.0),
            );
            let p = m.uniform_power(Watts::new(total.max(1e-6)));
            let map = m.steady_state(&p);
            for t in map.block_temps() {
                assert!(t.as_f64() >= 45.0 - 1e-9);
            }
        }
    }

    /// Scaling all powers by k scales temperature rises by k
    /// (network linearity).
    #[test]
    fn linear_scaling() {
        let mut rng = SplitMix64::seed_from_u64(0xC1);
        for _case in 0..32 {
            let total = rng.gen_range_f64(1.0..50.0);
            let k = rng.gen_range_f64(0.1..4.0);
            let f = Floorplan::ev6_tile(rng.gen_range_f64(2.0..13.0));
            let net = RcNetwork::build(&f, &PackageParams::default());
            let amb = Celsius::new(45.0);
            let nb = f.blocks().len();
            let p: Vec<Watts> = (0..nb)
                .map(|i| Watts::new(total * (i % 3) as f64 / nb as f64))
                .collect();
            let pk: Vec<Watts> = p.iter().map(|w| *w * k).collect();
            let t1 = net.steady_state(&p, amb);
            let tk = net.steady_state(&pk, amb);
            for (a, b) in t1.iter().zip(&tk) {
                let rise1 = a.as_f64() - 45.0;
                let risek = b.as_f64() - 45.0;
                assert!((risek - k * rise1).abs() < 1e-6 * (1.0 + risek.abs()));
            }
        }
    }

    /// The calibrated sink always reproduces its anchor point, over the
    /// tile edges and per-core powers the chip models use.
    #[test]
    fn calibration_anchor() {
        let mut rng = SplitMix64::seed_from_u64(0xC2);
        for _case in 0..8 {
            let edge = rng.gen_range_f64(2.5..12.0);
            let power = rng.gen_range_f64(5.0..25.0);
            let m = ThermalModel::calibrated(
                Floorplan::ev6_tile(edge),
                Watts::new(power),
                Celsius::new(100.0),
                Celsius::new(45.0),
            );
            let p = m.uniform_power(Watts::new(power));
            let map = m.steady_state(&p);
            let avg = m.floorplan().average_temperature(map.block_temps());
            assert!(
                (avg.as_f64() - 100.0).abs() < 0.5,
                "{edge} mm, {power} W: {avg}"
            );
        }
    }
}
