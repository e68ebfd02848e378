//! One-stop imports for experiment drivers.
//!
//! The workspace's deep module paths (`cmp_tlp::sweep::SweepBuilder`,
//! `tlp_workloads::AppId`, …) are precise but noisy in binaries that
//! touch everything. `use cmp_tlp::prelude::*;` brings the working set
//! into scope: the chip, the sweep builder and its satellite types, the
//! scenario rows, the error hierarchy, tracing, and the workload
//! vocabulary.

pub use crate::chipstate::{ChipMeasurement, ExperimentalChip, MeasureFaults};
pub use crate::cli_args::{ChipArgs, CommonArgs, ScaleDefault, DEFAULT_SEED};
pub use crate::error::{error_chain, ExperimentError, TraceError};
pub use crate::profiling::{profile, EfficiencyProfile};
pub use crate::scenario1::{Scenario1Result, Scenario1Row};
pub use crate::scenario2::{Scenario2Result, Scenario2Row};
pub use crate::sweep::{
    CellOutcome, Fault, FaultPlan, RetryPolicy, SweepBuilder, SweepCell, SweepReport, SweepSpec,
    SweepTiming, TraceSink, WorkloadId,
};
pub use tlp_analytic::{BudgetSpec, BudgetedChip};
pub use tlp_obs::Trace;
pub use tlp_sim::{ChipSpec, CoreClass};
pub use tlp_workloads::{AppId, Scale};
