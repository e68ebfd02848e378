//! `cmp-tlp` — a from-scratch reproduction of Jian Li and José F.
//! Martínez, *Power-Performance Implications of Thread-level Parallelism
//! on Chip Multiprocessors*, ISPASS 2005.
//!
//! The paper connects three quantities for the first time — the number of
//! cores a parallel application runs on, its parallel efficiency, and
//! chip-wide voltage/frequency scaling — and studies two optimization
//! scenarios analytically and experimentally:
//!
//! - **Scenario I** (power optimization): match single-core performance,
//!   minimize power. Analytic: [`tlp_analytic::Scenario1`] (Fig. 1);
//!   experimental: [`scenario1`] (Fig. 3).
//! - **Scenario II** (performance optimization): stay within the
//!   single-core power budget, maximize speedup. Analytic:
//!   [`tlp_analytic::Scenario2`] (Fig. 2); experimental: [`scenario2`]
//!   (Fig. 4).
//!
//! This crate is the top of the workspace: it glues the substrates
//! (cycle-level CMP simulator, Wattch-like power model, HotSpot-like
//! thermal model, SPLASH-2-like workloads, technology/DVFS/leakage
//! models) into the paper's experimental methodology:
//!
//! 1. [`ExperimentalChip::from_spec`] calibrates power against thermal
//!    (§3.3) from a [`tlp_sim::ChipSpec`] — core classes, clock domains,
//!    and the shared uncore.
//! 2. [`profiling::profile`] obtains nominal parallel-efficiency curves.
//! 3. The [`sweep`] cell profiles each application, re-simulates each
//!    core count at its Eq. 7 operating point, and measures power,
//!    temperature, and density; [`scenario1::run`] is a one-row sweep
//!    and [`scenario1::try_run_apps`] one sweep over many applications.
//!    [`scenario2::run`] re-simulates a profile under the power budget.
//! 4. [`report`] prints the numbers in the shape of the paper's figures.
//!
//! # Quickstart
//!
//! ```
//! use cmp_tlp::{scenario1, ExperimentalChip};
//! use tlp_sim::ChipSpec;
//! use tlp_tech::Technology;
//! use tlp_workloads::{AppId, Scale};
//!
//! let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());
//! let fig3 = scenario1::run(&chip, AppId::WaterNsq, &[1, 2], Scale::Test, 42);
//! // Two cores at reduced V/f deliver the single-core performance for
//! // less power:
//! assert!(fig3.rows[1].normalized_power < 1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checks;
pub mod chipstate;
pub mod cli_args;
pub mod energy;
pub mod error;
pub mod governor;
pub mod journal;
pub mod jsonout;
pub mod pool;
pub mod prelude;
pub mod profiling;
pub mod report;
pub mod scenario1;
pub mod scenario2;
pub mod serve;
pub mod shard;
pub mod sweep;
pub mod transient;

pub use chipstate::{ChipMeasurement, ExperimentalChip, MeasureFaults};
pub use error::{
    error_chain, CoreLimit, ExperimentError, InterruptInfo, TraceError, UnrunnableCell,
};
pub use governor::{ChipWide, Governor, ThermalAware};
pub use journal::{Journal, JournalError, JournalMode, RecoveryReport};
pub use profiling::{profile, EfficiencyProfile};
pub use sweep::{
    CellOutcome, Fault, FaultPlan, RetryPolicy, SweepBuilder, SweepCell, SweepReport, SweepSpec,
    SweepTiming, TraceSink,
};
pub use tlp_analytic::DIE_EDGE_MM;

// Re-export the stack so downstream users need one dependency.
pub use tlp_analytic as analytic;
pub use tlp_check as check;
pub use tlp_obs as obs;
pub use tlp_power as power;
pub use tlp_sim as sim;
pub use tlp_tech as tech;
pub use tlp_thermal as thermal;
pub use tlp_workloads as workloads;
