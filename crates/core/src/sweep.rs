//! Supervised sweep runner: fault-isolated fig. 3-style experiments.
//!
//! The one entry point is [`SweepBuilder`] (usually via
//! [`ExperimentalChip::sweep`]): pick the grid, arm faults, set the
//! retry policy and parallelism, attach a [`TraceSink`], and call
//! [`SweepBuilder::run`]:
//!
//! ```no_run
//! use cmp_tlp::prelude::*;
//! use tlp_sim::ChipSpec;
//! use tlp_tech::Technology;
//!
//! let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());
//! let report = chip
//!     .sweep()
//!     .workloads(vec![WorkloadId::App(AppId::WaterNsq)])
//!     .core_counts(vec![1, 2, 4])
//!     .scale(Scale::Test)
//!     .threads(4)
//!     .run()
//!     .unwrap();
//! println!("{}", report.summary());
//! ```
//!
//! Long sweeps — many applications × many core counts, hours of
//! simulation — treat each (application, core count, V/f) cell as a
//! fallible unit: retry the failures that retrying can fix, diagnose the
//! ones it cannot, and keep going. That is what the sweep engine does:
//!
//! - Every cell yields a [`CellOutcome`]: a completed [`Scenario1Row`]
//!   or a `Failed { reason, attempts }` record carrying the full typed
//!   [`ExperimentError`] (a deadlock failure names the stuck barrier and
//!   cores).
//! - A [`RetryPolicy`] governs thermal non-convergence: each retry adds
//!   under-relaxation damping, relaxes the tolerance, and raises the
//!   iteration cap. Deterministic failures (deadlock, NaN inputs,
//!   accounting errors) are never retried — they reproduce exactly.
//! - The [`SweepReport`] ends with an explicit summary of failed cells.
//!   Nothing is silently truncated: a sweep that lost cells says so, and
//!   says why, per cell.
//!
//! The sweep cell is the one place a Scenario I row is computed:
//! [`scenario1::run`](crate::scenario1::run) is a one-row sweep and
//! [`scenario1::try_run_apps`](crate::scenario1::try_run_apps) one
//! sweep over many applications. A cell runs at the Eq. 7 chip-wide
//! operating point and is measured once.
//!
//! Fault injection for testing the machinery lives in [`FaultPlan`]:
//! deterministic, per-cell faults covering every failure mode the
//! pipeline can diagnose (deadlock via a dropped barrier arrival, hangs
//! via a shrunken cycle budget, thermal runaway via inflated leakage,
//! NaN poisoning of the power vector).
//!
//! # Parallel execution
//!
//! The engine runs a small task graph on an in-tree thread pool
//! ([`crate::pool`]). Each workload row w gets an *anchor* task — the
//! nominal-V/f single-core run (for a batch application, its n = 1
//! profile run) plus the single-core reference measurement — and each
//! batch row gets one *profile* task per core count n > 1, the nominal
//! run that yields εn = t1/(n·tn). Cell (w, n) has two inputs, the
//! anchor and profile(w, n); whichever settles last spawns the cell
//! (server rows, whose εn is 1, and n = 1 cells need only the anchor).
//! Only cells still unsettled get tasks: a resumed row profiles just the
//! counts it still needs, and a core count the workload cannot run
//! fails its cell with [`ExperimentError::Unrunnable`] before any task
//! starts. Every cell writes into a pre-assigned slot and the report is
//! reduced in request order, so the parallel output — [`CellOutcome`]
//! sequence and JSON rendering — is byte-identical to a serial run
//! ([`SweepBuilder::threads`] at 1). Wall-clock timings are kept out of
//! the deterministic payload in a separate [`SweepTiming`] record.
//!
//! # Crash safety: checkpoint, resume, watchdog, quarantine
//!
//! Long sweeps also need to survive the *process* dying. Three layers
//! provide that (see [`crate::journal`] for the substrate):
//!
//! - **Checkpointing** ([`SweepBuilder::checkpoint`] /
//!   [`SweepBuilder::resume`]): every settled [`CellOutcome`] is
//!   appended to a checksummed, atomically-flushed journal. A resumed
//!   sweep splices journaled completed outcomes back into the report
//!   without recomputing them and re-runs everything else; because every
//!   cell is deterministic and completed rows roundtrip bit-exactly,
//!   the resumed report — including its JSON rendering — is
//!   byte-identical to an uninterrupted run.
//! - **Watchdog deadlines** ([`SweepBuilder::cell_deadline`]): a cell
//!   task's first act is to install its start time plus the deadline as
//!   its thread's cancellation deadline (see [`tlp_obs::cancel`]); the
//!   simulator and thermal solver poll it and return typed
//!   `DeadlineExceeded` errors once it has passed, so a hung cell
//!   becomes an ordinary [`CellOutcome::Failed`] while the pool keeps
//!   draining.
//! - **Poison-cell quarantine** ([`RetryPolicy::quarantine_after`]): a
//!   cell that keeps taking runs down — journaled executions abandoned
//!   without an outcome (crash/kill mid-cell) or cancelled by the
//!   watchdog — is spliced as [`CellOutcome::Quarantined`] on resume
//!   instead of being re-run, so one poison cell cannot prevent the
//!   sweep from ever completing. Ordinary typed failures are *not*
//!   strikes; they re-run deterministically.
//!
//! A cooperative interrupt flag ([`SweepBuilder::interrupt`], used by
//! the CLI's SIGINT handler) stops new cells from starting; in-flight
//! cells finish and journal their outcomes, and the engine returns
//! [`ExperimentError::Interrupted`] with the progress so far.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tlp_analytic::BudgetSpec;
use tlp_sim::{ChipSpec, SimError, SimFaults, SimResult};
use tlp_tech::rng::SplitMix64;
use tlp_tech::OperatingPoint;
use tlp_thermal::{FixpointOptions, ThermalError};
use tlp_workloads::{gang, AppId, Scale, ServerSpec};

use crate::chipstate::{ChipMeasurement, ExperimentalChip, MeasureFaults};
use crate::error::{error_chain, CoreLimit, ExperimentError, InterruptInfo, UnrunnableCell};
use crate::journal::{Journal, JournalError, JournalMode, RecoveryReport};
use crate::pool;
use crate::profiling;
use crate::scenario1::{operating_point_for, RequestSummary, Scenario1Row};

/// What to sweep: the cross product of workloads and core counts at
/// one workload scale. Workloads are the batch applications in `apps`
/// plus one open-loop server workload per offered load in
/// `server_loads` (requests/second; see
/// [`tlp_workloads::ServerSpec`]).
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Batch applications to sweep.
    pub apps: Vec<AppId>,
    /// Offered loads (requests/second) for the open-loop server
    /// workload; each one is an independent grid row, swept over the
    /// same core counts as the applications.
    pub server_loads: Vec<u32>,
    /// Core counts per workload (ascending, starting at 1).
    pub core_counts: Vec<usize>,
    /// Workload scale.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
}

impl SweepSpec {
    /// The paper's Fig. 3 shape for the given applications:
    /// N ∈ {1, 2, 4, 8, 16}.
    pub fn fig3(apps: Vec<AppId>, scale: Scale, seed: u64) -> Self {
        Self {
            apps,
            server_loads: Vec::new(),
            core_counts: vec![1, 2, 4, 8, 16],
            scale,
            seed,
        }
    }

    /// The grid's workload rows in report order: the batch applications
    /// first, then one server workload per offered load.
    pub fn works(&self) -> Vec<WorkloadId> {
        self.apps
            .iter()
            .map(|&app| WorkloadId::App(app))
            .chain(
                self.server_loads
                    .iter()
                    .map(|&rps| WorkloadId::Server { rps }),
            )
            .collect()
    }
}

/// One workload row of the sweep grid: a batch application or an
/// open-loop server workload at a fixed offered load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// A SPLASH-2-style batch application.
    App(AppId),
    /// The open-loop request-serving workload at `rps` offered
    /// requests/second ([`ServerSpec::standard`]).
    Server {
        /// Offered load, requests per second of wall-clock time.
        rps: u32,
    },
}

impl WorkloadId {
    /// The stable name the journal and JSON reports key cells by,
    /// e.g. `"fft"` or `"server-2000000"`.
    pub fn name(&self) -> String {
        match self {
            WorkloadId::App(app) => app.name().to_string(),
            WorkloadId::Server { rps } => format!("server-{rps}"),
        }
    }

    /// Refuses `n` cores of `chip` if this workload cannot run there:
    /// an application's [`profiling::core_limit`], or more cores than
    /// the chip has for a server row.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Unrunnable`] naming the limit `n` breaks.
    pub fn check_runnable(self, chip: &ExperimentalChip, n: usize) -> Result<(), ExperimentError> {
        let limit = match self {
            WorkloadId::App(app) => profiling::core_limit(chip, app, n),
            WorkloadId::Server { .. } => {
                (n > chip.config().n_cores).then_some(CoreLimit::ChipCores(chip.config().n_cores))
            }
        };
        match limit {
            Some(limit) => Err(ExperimentError::Unrunnable(UnrunnableCell {
                work: self.name(),
                n,
                limit,
            })),
            None => Ok(()),
        }
    }
}

impl fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One sweep cell: a workload on `n` cores (the V/f point follows
/// from the Eq. 7 iso-performance rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCell {
    /// Workload (batch application or server load level).
    pub work: WorkloadId,
    /// Active cores.
    pub n: usize,
}

impl fmt::Display for SweepCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.work, self.n)
    }
}

/// A deterministic fault to inject into one sweep cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Poison the cell's per-block dynamic power vector with a NaN.
    /// Diagnosed as `ThermalError::NonFinite` (never retried).
    NanPower,
    /// Multiply the leakage feedback by this factor, provoking thermal
    /// runaway. Diagnosed as `ThermalError::Diverged`; retried with
    /// damping, which cannot save a genuinely supercritical loop.
    InflateLeakage(f64),
    /// Drop thread `thread`'s arrival at barrier `barrier`, deadlocking
    /// the gang. Diagnosed as `SimError::Deadlock` naming the barrier
    /// and the stuck cores (never retried).
    DropBarrierArrival {
        /// Barrier whose arrival is dropped.
        barrier: u32,
        /// Thread whose arrival is dropped.
        thread: usize,
    },
    /// Spin the simulation forever — deterministically — until the
    /// per-cell watchdog ([`SweepBuilder::cell_deadline`]) cancels it.
    /// Diagnosed as `SimError::DeadlineExceeded` (never retried).
    /// Without a watchdog the cell genuinely never finishes, so only
    /// arm this under a deadline.
    Hang,
    /// Shrink the cell's cycle budget to this many cycles. A healthy but
    /// unfinished run is diagnosed as `SimError::CycleBudgetExhausted`
    /// (never retried).
    CycleBudget(u64),
}

/// Per-cell fault assignments for a sweep (empty = no faults, zero cost).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<(SweepCell, Fault)>,
}

impl FaultPlan {
    /// An empty plan (the production configuration).
    pub fn none() -> Self {
        Self::default()
    }

    /// Arms `fault` on the (`work`, `n`) cell — batch applications via
    /// [`WorkloadId::App`], server loads via [`WorkloadId::Server`].
    /// Multiple faults may target the same cell. A simulation fault on
    /// n = 1 fails the row's anchor run, so it fails every cell of the
    /// row. (The old app-only `inject` shim is gone; wrap the app in
    /// `WorkloadId::App`.)
    pub fn inject_work(mut self, work: WorkloadId, n: usize, fault: Fault) -> Self {
        self.faults.push((SweepCell { work, n }, fault));
        self
    }

    /// Whether any fault targets `cell`.
    pub fn targets(&self, cell: SweepCell) -> bool {
        self.faults.iter().any(|(c, _)| *c == cell)
    }

    /// The simulation-stage faults armed on `cell`.
    pub fn sim_faults_for(&self, cell: SweepCell) -> SimFaults {
        let mut f = SimFaults::default();
        for (c, fault) in &self.faults {
            if *c != cell {
                continue;
            }
            match fault {
                Fault::DropBarrierArrival { barrier, thread } => {
                    f.drop_barrier_arrival = Some((*barrier, *thread));
                }
                Fault::CycleBudget(budget) => f.cycle_budget = Some(*budget),
                Fault::Hang => f.hang = true,
                _ => {}
            }
        }
        f
    }

    /// The measurement-stage faults armed on `cell`.
    pub fn measure_faults_for(&self, cell: SweepCell) -> MeasureFaults {
        let mut f = MeasureFaults::default();
        for (c, fault) in &self.faults {
            if *c != cell {
                continue;
            }
            match fault {
                Fault::NanPower => f.nan_power = true,
                Fault::InflateLeakage(k) => f.leakage_scale = *k,
                _ => {}
            }
        }
        f
    }
}

/// How the supervisor retries retryable failures (thermal
/// non-convergence and divergence).
///
/// Attempt `k` (1-based) solves with damping
/// `min(damping_step · (k−1), 0.9)`, tolerance
/// `tolerance · tolerance_relax^(k−1)`, and iteration cap
/// `max_iterations · iteration_factor^(k−1)`. Attempt 1 is therefore the
/// stock solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per cell, including the first (minimum 1).
    pub max_attempts: u32,
    /// Damping added per retry.
    pub damping_step: f64,
    /// Tolerance multiplier per retry (≥ 1).
    pub tolerance_relax: f64,
    /// Iteration-cap multiplier per retry (≥ 1).
    pub iteration_factor: u32,
    /// Poison strikes before a resumed sweep quarantines a cell instead
    /// of re-running it. A strike is an execution that took the run down
    /// with it: journaled as started but never finished (crash/kill
    /// mid-cell), or cancelled by the watchdog deadline. Ordinary typed
    /// failures are not strikes. `0` disables quarantine. Only consulted
    /// on resume — a fresh run never quarantines.
    pub quarantine_after: u32,
    /// Base fixpoint options for attempt 1.
    pub base: FixpointOptions,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            damping_step: 0.35,
            tolerance_relax: 3.0,
            iteration_factor: 2,
            quarantine_after: 3,
            base: FixpointOptions::default(),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (every failure is final).
    pub fn no_retries() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// The fixpoint options for 1-based attempt `attempt`.
    pub fn options_for(&self, attempt: u32) -> FixpointOptions {
        let k = attempt.saturating_sub(1);
        FixpointOptions {
            tolerance_celsius: self.base.tolerance_celsius * self.tolerance_relax.powi(k as i32),
            max_iterations: self
                .base
                .max_iterations
                .saturating_mul(self.iteration_factor.saturating_pow(k)),
            damping: (self.damping_step * k as f64).min(0.9),
            divergence_limit_celsius: self.base.divergence_limit_celsius,
        }
    }

    /// First rung of the client-side backoff ladder (the wait before
    /// retry attempt 2).
    pub const BACKOFF_BASE_MS: u64 = 100;
    /// Ceiling of the backoff ladder: no single wait exceeds this.
    pub const BACKOFF_CAP_MS: u64 = 5_000;

    /// The wait before 1-based `attempt`, for client-side retries of
    /// *transient* failures (a shard worker re-contacting its
    /// coordinator, not the in-process solver escalation of
    /// [`options_for`](Self::options_for)). Equal-jitter exponential
    /// backoff: the ceiling for attempt `k` is `min(BACKOFF_CAP_MS,
    /// BACKOFF_BASE_MS · 2^(k−2))`, and the wait is uniformly drawn from
    /// the ceiling's upper half so retries spread out without ever
    /// collapsing below half the ladder rung. Attempt 1 is the initial
    /// try — no wait.
    ///
    /// The jitter is *deterministic*: it comes from a [`SplitMix64`]
    /// stream keyed on `(seed, attempt)`, so a given client seed always
    /// produces the same schedule (testable, reproducible) while
    /// distinct workers (distinct seeds) spread their retries apart.
    pub fn backoff_delay(&self, attempt: u32, seed: u64) -> Duration {
        if attempt <= 1 {
            return Duration::ZERO;
        }
        // Shifting by more than 63 is UB-adjacent (debug panic); the cap
        // is reached long before the exponent saturates anyway.
        let exponent = (attempt - 2).min(16);
        let ceiling = Self::BACKOFF_CAP_MS.min(Self::BACKOFF_BASE_MS << exponent);
        let mut rng =
            SplitMix64::seed_from_u64(seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let jitter = rng.gen_range_u64(0..ceiling / 2 + 1);
        Duration::from_millis(ceiling / 2 + jitter)
    }
}

/// The result of one supervised cell.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The cell completed; `attempts` counts solves including retries.
    Completed {
        /// The measured fig. 3 row.
        row: Scenario1Row,
        /// Solve attempts consumed (1 = no retries needed).
        attempts: u32,
        /// Thermal fixpoint iterations of the final (successful)
        /// measurement, summed over the active cores' tile solves.
        /// Deterministic: identical for serial and parallel runs.
        solver_iterations: u32,
    },
    /// The cell failed after `attempts` attempts; `reason` is the full
    /// typed diagnosis from the last attempt.
    Failed {
        /// The last attempt's error (a deadlock here names the stuck
        /// barrier and cores).
        reason: ExperimentError,
        /// Solve attempts consumed before giving up.
        attempts: u32,
    },
    /// The cell was quarantined on resume: previous runs kept being
    /// taken down by it (crash/kill mid-cell or watchdog cancellation,
    /// [`RetryPolicy::quarantine_after`] strikes) so it was not re-run.
    /// The sweep completes degraded rather than never.
    Quarantined {
        /// Why, outermost first: a strike summary followed by the last
        /// journaled failure chain (if any failure was ever recorded).
        reason_chain: Vec<String>,
        /// Attempts consumed across all previous runs (abandoned
        /// executions count as one each).
        attempts: u32,
        /// The workload seed to replay this one cell under a debugger
        /// (the sweep's seed; cells derive nothing else from it).
        replay_seed: u64,
    },
}

impl CellOutcome {
    /// Whether the cell completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, CellOutcome::Completed { .. })
    }

    /// Whether the cell was quarantined rather than executed.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, CellOutcome::Quarantined { .. })
    }
}

/// Run record of one sweep execution: its wall clock, and what a
/// reopened journal recovered.
///
/// Neither is a result (timing is inherently nondeterministic), so both
/// live outside the deterministic payload: the [`SweepReport`] JSON
/// excludes them and the CLI prints them to stderr, keeping `--json`
/// stdout byte-identical across thread counts and resumes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTiming {
    /// Worker threads the sweep actually used.
    pub threads: usize,
    /// End-to-end wall clock of the sweep, seconds.
    pub total_seconds: f64,
    /// Per-cell wall clock, seconds, in request order. Covers each
    /// cell's own simulation + measurement; per-application preparation
    /// (profiling, baseline measurement) is attributed to the cells only
    /// when the baseline itself fails.
    pub cell_seconds: Vec<f64>,
    /// What opening an existing journal recovered (records kept, torn
    /// tail dropped); `None` without a journal or when the run created
    /// it. The engine prints nothing: a front end that wants the
    /// [`RecoveryReport::summary`] line prints it.
    pub recovery: Option<RecoveryReport>,
}

impl SweepTiming {
    /// One-line human summary, e.g. for the CLI's stderr.
    pub fn summary(&self) -> String {
        format!(
            "sweep wall clock: {:.3} s on {} thread(s) ({} cells, max cell {:.3} s)",
            self.total_seconds,
            self.threads,
            self.cell_seconds.len(),
            self.cell_seconds.iter().copied().fold(0.0, f64::max),
        )
    }
}

/// The budget axes armed on a sweep, plus the per-core area its
/// dark-silicon fits use (see [`SweepBuilder::budget`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetAxes {
    /// Area/TDP budget pair.
    pub spec: BudgetSpec,
    /// Average per-core area of the swept chip's core region, mm² — the
    /// `a` input of every per-cell [`BudgetSpec::fit`].
    pub core_area_mm2: f64,
}

/// The supervised sweep's complete record: one outcome per requested
/// cell, in request order. No cell is ever dropped from the report.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// `(cell, outcome)` for every requested cell.
    pub cells: Vec<(SweepCell, CellOutcome)>,
    /// Wall-clock record (nondeterministic; excluded from the
    /// deterministic JSON payload).
    pub timing: SweepTiming,
    /// Heterogeneity tag of the swept chip ([`ChipSpec::tag`]); `None`
    /// for homogeneous chips, which keeps their JSON byte-identical to
    /// the pre-heterogeneity renderer.
    pub chip: Option<String>,
    /// Budget axes armed on the sweep; `None` (the default) emits
    /// nothing, keeping un-budgeted JSON byte-identical.
    pub budget: Option<BudgetAxes>,
}

impl SweepReport {
    /// Completed rows, in request order.
    pub fn completed(&self) -> impl Iterator<Item = (SweepCell, &Scenario1Row)> {
        self.cells.iter().filter_map(|(c, o)| match o {
            CellOutcome::Completed { row, .. } => Some((*c, row)),
            _ => None,
        })
    }

    /// Failed cells with their diagnoses, in request order.
    pub fn failed(&self) -> impl Iterator<Item = (SweepCell, &ExperimentError, u32)> {
        self.cells.iter().filter_map(|(c, o)| match o {
            CellOutcome::Failed { reason, attempts } => Some((*c, reason, *attempts)),
            _ => None,
        })
    }

    /// Quarantined cells, in request order:
    /// `(cell, reason_chain, attempts, replay_seed)`.
    pub fn quarantined(&self) -> impl Iterator<Item = (SweepCell, &[String], u32, u64)> {
        self.cells.iter().filter_map(|(c, o)| match o {
            CellOutcome::Quarantined {
                reason_chain,
                attempts,
                replay_seed,
            } => Some((*c, reason_chain.as_slice(), *attempts, *replay_seed)),
            _ => None,
        })
    }

    /// The dark-silicon fit of one completed row under the armed budget
    /// axes: how many cores drawing that row's per-core power fit under
    /// the area/TDP budget, and what fraction of the die stays dark.
    /// `None` when no budget is armed or not even one core fits.
    pub fn dark_silicon(&self, row: &Scenario1Row) -> Option<tlp_analytic::BudgetedChip> {
        let axes = self.budget?;
        axes.spec
            .fit(axes.core_area_mm2, row.power_watts / row.n as f64)
            .ok()
    }

    /// A human-readable summary: completed/failed/quarantined counts,
    /// then one line per failed or quarantined cell naming the cell and
    /// its diagnosis. Degraded sweeps are loud — a truncated result set
    /// always says what is missing, and why.
    pub fn summary(&self) -> String {
        let total = self.cells.len();
        let done = self.cells.iter().filter(|(_, o)| o.is_completed()).count();
        let quarantined = self
            .cells
            .iter()
            .filter(|(_, o)| o.is_quarantined())
            .count();
        let failed = total - done - quarantined;
        let mut s = format!("sweep: {done}/{total} cells completed");
        if failed > 0 {
            s.push_str(&format!(", {failed} failed"));
        }
        if quarantined > 0 {
            s.push_str(&format!(", {quarantined} quarantined"));
        }
        if failed > 0 || quarantined > 0 {
            s.push(':');
        }
        for (cell, reason, attempts) in self.failed() {
            s.push_str(&format!("\n  {cell} ({attempts} attempts): {reason}"));
        }
        for (cell, chain, attempts, seed) in self.quarantined() {
            s.push_str(&format!(
                "\n  {cell} QUARANTINED ({attempts} attempts, replay with seed {seed:#x}): {}",
                chain
                    .first()
                    .map(String::as_str)
                    .unwrap_or("no recorded failure")
            ));
        }
        s
    }
}

/// A workload row's anchor, shared by all of that row's cells: the
/// nominal-V/f single-core run and the single-core reference measurement
/// every normalization anchors on.
struct Anchor {
    baseline: SimResult,
    base_measure: ChipMeasurement,
}

/// One row's join point in the profile/cell task graph. A batch cell
/// (w, n > 1) has two inputs — the row's anchor and its own profile run
/// — and whichever settles last spawns the cell; both record here under
/// the row's lock, so exactly one of them sees the other. A failed
/// anchor never appears here, so no cell of its row is spawned.
struct RowJoin {
    /// The anchor, once it settled successfully.
    anchor: Option<Arc<Anchor>>,
    /// Profiled nominal execution time per core-count index, seconds.
    times: Vec<Option<f64>>,
}

/// Where a sweep's captured trace goes.
///
/// A sink with neither output armed ([`TraceSink::none`], the default)
/// disables capture entirely: the recorder's global switch stays off and
/// every instrumentation site reduces to one relaxed atomic load.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    chrome_path: Option<std::path::PathBuf>,
    summary_to_stderr: bool,
}

impl TraceSink {
    /// No trace output; the recorder stays disabled (the production
    /// configuration).
    pub fn none() -> Self {
        Self::default()
    }

    /// Write a Chrome `trace_event` JSON file to `path`, loadable in
    /// `about:tracing` or [Perfetto](https://ui.perfetto.dev).
    pub fn chrome(path: impl Into<std::path::PathBuf>) -> Self {
        Self {
            chrome_path: Some(path.into()),
            summary_to_stderr: false,
        }
    }

    /// Print the human-readable summary table to stderr (stderr so a
    /// `--json` stdout stays byte-identical with tracing on or off).
    pub fn summary() -> Self {
        Self {
            summary_to_stderr: true,
            chrome_path: None,
        }
    }

    /// Additionally write the Chrome trace file to `path`.
    pub fn and_chrome(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.chrome_path = Some(path.into());
        self
    }

    /// Additionally print the summary table to stderr.
    pub fn and_summary(mut self) -> Self {
        self.summary_to_stderr = true;
        self
    }

    /// Whether any output is armed (and capture therefore worthwhile).
    pub fn is_active(&self) -> bool {
        self.chrome_path.is_some() || self.summary_to_stderr
    }

    /// Emits `trace` to every armed output.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Trace`] if the Chrome file cannot be written.
    pub fn emit(&self, trace: &tlp_obs::Trace) -> Result<(), ExperimentError> {
        if let Some(path) = &self.chrome_path {
            std::fs::write(path, tlp_obs::chrome::render(trace)).map_err(|e| {
                crate::error::TraceError {
                    path: path.display().to_string(),
                    message: e.to_string(),
                }
            })?;
        }
        if self.summary_to_stderr {
            eprintln!("{}", tlp_obs::summary::render(trace));
        }
        Ok(())
    }
}

/// Builder for supervised fig. 3-style sweeps — the one front door to
/// the sweep engine (see the module docs for an example).
///
/// Construct with [`ExperimentalChip::sweep`] or [`SweepBuilder::new`];
/// every stage has a sensible default: the fig. 3 core counts over no
/// applications, [`Scale::Small`], the workspace seed, no faults, the
/// default [`RetryPolicy`], all available hardware threads, and no
/// tracing.
#[derive(Clone)]
#[must_use = "a SweepBuilder does nothing until .run()"]
pub struct SweepBuilder<'c> {
    chip: ChipRef<'c>,
    spec: SweepSpec,
    policy: RetryPolicy,
    plan: FaultPlan,
    /// Worker threads; `0` means [`pool::default_workers`].
    threads: usize,
    deadline: Option<Duration>,
    sink: TraceSink,
    journal: Option<(PathBuf, JournalMode)>,
    interrupt: Option<Arc<AtomicBool>>,
    budget: Option<BudgetSpec>,
}

/// The chip a sweep runs on: the caller's (borrowed) or one the builder
/// built itself from a [`ChipSpec`] (shared, so the builder stays
/// `Clone`).
#[derive(Clone)]
enum ChipRef<'c> {
    Borrowed(&'c ExperimentalChip),
    Owned(Arc<ExperimentalChip>),
}

impl ChipRef<'_> {
    fn get(&self) -> &ExperimentalChip {
        match self {
            ChipRef::Borrowed(c) => c,
            ChipRef::Owned(c) => c,
        }
    }
}

impl<'c> SweepBuilder<'c> {
    /// Starts a sweep on `chip` with default settings.
    pub fn new(chip: &'c ExperimentalChip) -> Self {
        Self {
            chip: ChipRef::Borrowed(chip),
            spec: SweepSpec::fig3(Vec::new(), Scale::Small, crate::cli_args::DEFAULT_SEED),
            policy: RetryPolicy::default(),
            plan: FaultPlan::none(),
            threads: 0,
            deadline: None,
            sink: TraceSink::none(),
            journal: None,
            interrupt: None,
            budget: None,
        }
    }

    /// Replaces the whole grid (applications, core counts, scale, seed)
    /// at once.
    pub fn grid(mut self, spec: SweepSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Workload rows to sweep: batch applications and/or server loads,
    /// in one list.
    pub fn workloads(mut self, works: Vec<WorkloadId>) -> Self {
        self.spec.apps.clear();
        self.spec.server_loads.clear();
        for w in works {
            match w {
                WorkloadId::App(app) => self.spec.apps.push(app),
                WorkloadId::Server { rps } => self.spec.server_loads.push(rps),
            }
        }
        self
    }

    /// Replaces the chip under sweep with one built from `spec` (same
    /// technology as the current chip). Heterogeneous specs flow through
    /// everything downstream: per-class clock domains in the simulator,
    /// per-class rails and tiles in the measurement, a `chip` tag in the
    /// journal fingerprint and the JSON report.
    pub fn chip_spec(mut self, spec: ChipSpec) -> Self {
        let tech = self.chip.get().tech().clone();
        self.chip = ChipRef::Owned(Arc::new(ExperimentalChip::from_spec(spec, tech)));
        self
    }

    /// Shorthand for [`SweepBuilder::chip_spec`] with a
    /// [`ChipSpec::big_little`] mix of `n_big` EV6-class cores and
    /// `n_little` half-clock narrow cores.
    pub fn core_mix(self, n_big: usize, n_little: usize) -> Self {
        self.chip_spec(ChipSpec::big_little(n_big, n_little))
    }

    /// Arms area/TDP budget axes: every completed cell additionally
    /// reports its dark-silicon fit ([`SweepReport::dark_silicon`]) in
    /// the JSON and human reports. Off by default (reports stay
    /// byte-identical).
    pub fn budget(mut self, budget: BudgetSpec) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Core counts per application (must start at 1; the single-core
    /// cell anchors every normalization).
    pub fn core_counts(mut self, counts: Vec<usize>) -> Self {
        self.spec.core_counts = counts;
        self
    }

    /// Workload scale.
    pub fn scale(mut self, scale: Scale) -> Self {
        self.spec.scale = scale;
        self
    }

    /// Workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Fault plan (deterministic per-cell fault injection).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Retry policy for retryable (thermal-convergence) failures.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Worker threads: `0` means all available hardware threads, `1` is
    /// fully serial. Output is byte-identical at every setting.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Trace sink; an active sink turns the recorder on for the run.
    pub fn trace(mut self, sink: TraceSink) -> Self {
        self.sink = sink;
        self
    }

    /// Journals every cell outcome to `path` (created if absent, resumed
    /// if present): cells the journal already holds completed outcomes
    /// for are spliced into the report without recomputation, making the
    /// resumed report byte-identical to an uninterrupted run. See
    /// [`crate::journal`].
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some((path.into(), JournalMode::Checkpoint));
        self
    }

    /// Like [`SweepBuilder::checkpoint`], but the journal must already
    /// exist (strict resume): a typo'd path fails loudly with
    /// [`JournalError::Missing`](crate::journal::JournalError) instead
    /// of silently starting over.
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some((path.into(), JournalMode::Resume));
        self
    }

    /// Per-cell watchdog deadline: a cell executing longer than this is
    /// cooperatively cancelled and fails with a typed `DeadlineExceeded`
    /// while the rest of the sweep keeps going.
    pub fn cell_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Cooperative interrupt flag (e.g. set by a SIGINT handler): once
    /// raised, no new cells start; in-flight cells finish and journal
    /// their outcomes, and the run returns
    /// [`ExperimentError::Interrupted`].
    pub fn interrupt(mut self, flag: Arc<AtomicBool>) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// Runs the sweep. With an active [`TraceSink`] the run is captured
    /// and the trace emitted to the sink's outputs.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Trace`] if a requested trace artifact cannot
    /// be written (the sweep itself succeeded in that case).
    ///
    /// # Panics
    ///
    /// Panics if the core counts are empty or do not start at 1.
    pub fn run(self) -> Result<SweepReport, ExperimentError> {
        if !self.sink.is_active() {
            return sweep_engine(&self);
        }
        self.run_traced().map(|(report, _)| report)
    }

    /// Like [`SweepBuilder::run`], but always captures and also returns
    /// the [`tlp_obs::Trace`] for programmatic inspection (the sink, if
    /// active, is still emitted to first).
    ///
    /// # Errors
    ///
    /// As for [`SweepBuilder::run`].
    ///
    /// # Panics
    ///
    /// As for [`SweepBuilder::run`].
    pub fn run_traced(self) -> Result<(SweepReport, tlp_obs::Trace), ExperimentError> {
        let (result, trace) = tlp_obs::capture(|| sweep_engine(&self));
        let report = result?;
        self.sink.emit(&trace)?;
        Ok((report, trace))
    }
}

impl ExperimentalChip {
    /// Starts a [`SweepBuilder`] on this chip — the front door to the
    /// supervised sweep engine.
    pub fn sweep(&self) -> SweepBuilder<'_> {
        SweepBuilder::new(self)
    }
}

/// The journal plus the first durability-layer error, shared across
/// cell tasks. Journal failures are collected (first wins) rather than
/// panicking a worker; the engine surfaces them once the pool drains.
struct JournalState {
    journal: Journal,
    error: Option<JournalError>,
}

/// Applies `f` to the journal, remembering the first failure and
/// suppressing further writes after it (a broken journal cannot keep the
/// crash-safety promise; one loud error beats a spray).
fn journal_record(
    journal: Option<&Mutex<JournalState>>,
    f: impl FnOnce(&mut Journal) -> Result<(), JournalError>,
) {
    let Some(state) = journal else { return };
    let mut st = state.lock().expect("journal poisoned");
    if st.error.is_none() {
        if let Err(e) = f(&mut st.journal) {
            st.error = Some(e);
        }
    }
}

/// Whether the sweep's cooperative interrupt flag is raised.
fn interrupt_raised(flag: Option<&AtomicBool>) -> bool {
    flag.is_some_and(|f| f.load(Ordering::SeqCst))
}

/// Whether `e` is a watchdog cancellation — the failure class that
/// counts as a poison strike in the journal (along with abandoned
/// executions), unlike ordinary deterministic failures.
fn is_hung(e: &ExperimentError) -> bool {
    matches!(
        e,
        ExperimentError::Sim(SimError::DeadlineExceeded { .. })
            | ExperimentError::Thermal(ThermalError::DeadlineExceeded { .. })
    )
}

/// Builds the quarantine outcome for a cell whose journal history has
/// reached the strike threshold.
fn quarantine_outcome(cell: &crate::journal::JournaledCell, replay_seed: u64) -> CellOutcome {
    let mut reason_chain = vec![format!(
        "quarantined after {} poison strike(s): {} execution(s) abandoned mid-cell, {} cancelled by the watchdog",
        cell.total_strikes(),
        cell.dangling_starts(),
        cell.strikes,
    )];
    reason_chain.extend(cell.last_failure_chain.iter().cloned());
    CellOutcome::Quarantined {
        reason_chain,
        attempts: cell.total_failed_attempts(),
        replay_seed,
    }
}

/// The sweep engine proper: each application is profiled at nominal V/f
/// over the spec's core counts; each (application, core count) cell is
/// then re-simulated at its Eq. 7 iso-performance operating point and
/// measured, as one fallible unit under the builder's retry policy, with
/// any faults its fault plan arms on it. A failure in one cell never
/// aborts the sweep; it becomes that cell's [`CellOutcome::Failed`].
///
/// Execution is parallel (see the module docs) but the report is reduced
/// in request order and every cell's computation is self-contained, so
/// the outcome sequence — and its JSON rendering — is byte-identical for
/// any thread count.
fn sweep_engine(b: &SweepBuilder<'_>) -> Result<SweepReport, ExperimentError> {
    let (chip, spec, policy, plan) = (b.chip.get(), &b.spec, &b.policy, &b.plan);
    let interrupt = b.interrupt.as_deref();
    let _span = tlp_obs::span("sweep.run");
    assert!(
        spec.core_counts.first() == Some(&1),
        "sweep core counts must start at 1"
    );
    let threads = match b.threads {
        0 => pool::default_workers(),
        n => n,
    };
    let n_counts = spec.core_counts.len();
    let works = spec.works();
    let total = works.len() * n_counts;
    let chip_tag = chip.spec().chip_tag();

    let journal = match &b.journal {
        Some((path, mode)) => {
            let j = Journal::open_with_chip(path, *mode, spec, plan, policy, chip_tag.as_deref())?;
            Some(Mutex::new(JournalState {
                journal: j,
                error: None,
            }))
        }
        None => None,
    };
    let journal = journal.as_ref();
    let recovery = journal
        .map(|state| state.lock().expect("journal poisoned").journal.recovery)
        .filter(|r| !r.created);

    let tech = chip.tech();
    let engine = Engine {
        chip,
        spec,
        policy,
        plan,
        nominal: OperatingPoint {
            frequency: tech.f_nominal(),
            voltage: tech.vdd_nominal(),
        },
        journal,
        interrupt,
        deadline: b.deadline,
        works: &works,
        slots: (0..total).map(|_| Mutex::new(None)).collect(),
        rows: works
            .iter()
            .map(|_| {
                Mutex::new(RowJoin {
                    anchor: None,
                    times: vec![None; n_counts],
                })
            })
            .collect(),
    };

    // Settle what needs no task. The journal's completed outcomes are
    // reused bit-exactly (never recomputed); cells past the poison
    // threshold are quarantined. Everything else — including ordinary
    // journaled failures — re-runs, which is deterministic, so the
    // resumed report is byte-identical to an uninterrupted one. A core
    // count the workload cannot run fails on the spot.
    let mut settled = vec![false; total];
    if let Some(state) = journal {
        let st = state.lock().expect("journal poisoned");
        for (ai, work) in works.iter().enumerate() {
            let name = work.name();
            for (ni, &n) in spec.core_counts.iter().enumerate() {
                let Some(cell) = st.journal.cell(&name, n) else {
                    continue;
                };
                let idx = ai * n_counts + ni;
                if let Some(done) = &cell.completed {
                    engine.fill(
                        idx,
                        CellOutcome::Completed {
                            row: done.row.clone(),
                            attempts: done.attempts,
                            solver_iterations: done.solver_iterations,
                        },
                        0.0,
                    );
                    settled[idx] = true;
                    tlp_obs::metrics::SWEEP_CELLS_RESUMED.incr();
                } else if policy.quarantine_after > 0
                    && cell.total_strikes() >= policy.quarantine_after
                {
                    engine.fill(idx, quarantine_outcome(cell, spec.seed), 0.0);
                    settled[idx] = true;
                }
            }
        }
    }
    for (ai, &work) in works.iter().enumerate() {
        for (ni, &n) in spec.core_counts.iter().enumerate() {
            let idx = ai * n_counts + ni;
            if settled[idx] {
                continue;
            }
            if let Err(reason) = work.check_runnable(chip, n) {
                engine.settle(
                    ai,
                    ni,
                    CellOutcome::Failed {
                        reason,
                        attempts: 1,
                    },
                    0.0,
                );
                settled[idx] = true;
            }
        }
    }
    let start = Instant::now();

    let engine = &engine;
    pool::run(threads, |p| {
        // Per row with unsettled cells: one anchor task plus, for a batch
        // application, one profile task per unsettled count above 1. A
        // row whose every cell is settled needs neither.
        for (ai, &work) in works.iter().enumerate() {
            let pending: Vec<usize> = (0..n_counts)
                .filter(|&ni| !settled[ai * n_counts + ni])
                .collect();
            if pending.is_empty() {
                continue;
            }
            let profiled: Vec<usize> = pending
                .iter()
                .copied()
                .filter(|&ni| spec.core_counts[ni] > 1)
                .collect();
            p.spawn(move |p| engine.anchor_task(p, ai, pending));
            if let WorkloadId::App(_) = work {
                for ni in profiled {
                    p.spawn(move |p| engine.profile_task(p, ai, ni));
                }
            }
        }
    });
    let slots = &engine.slots;

    // The durability layer failing is loud: a checkpointed sweep whose
    // journal cannot be written has silently lost its crash-safety
    // promise, which is exactly what checkpointing exists to prevent.
    if let Some(state) = journal {
        let st = state.lock().expect("journal poisoned");
        if let Some(e) = &st.error {
            return Err(ExperimentError::Journal(e.clone()));
        }
    }

    // Interrupt: unfilled slots are cells that never started. Their
    // settled siblings are all in the journal, so a resume finishes the
    // job; report how far we got.
    let filled = slots
        .iter()
        .filter(|s| s.lock().expect("slot poisoned").is_some())
        .count();
    if filled < total {
        assert!(
            interrupt_raised(interrupt),
            "every sweep cell writes its slot"
        );
        return Err(ExperimentError::Interrupted(InterruptInfo {
            completed_cells: filled,
            total_cells: total,
        }));
    }

    let mut cells = Vec::with_capacity(slots.len());
    let mut cell_seconds = Vec::with_capacity(slots.len());
    for (i, slot) in slots.iter().enumerate() {
        let (outcome, wall) = slot
            .lock()
            .expect("slot poisoned")
            .take()
            .expect("every sweep cell writes its slot");
        let cell = SweepCell {
            work: works[i / n_counts],
            n: spec.core_counts[i % n_counts],
        };
        match &outcome {
            CellOutcome::Completed { .. } => tlp_obs::metrics::SWEEP_CELLS_COMPLETED.incr(),
            CellOutcome::Failed { .. } => tlp_obs::metrics::SWEEP_CELLS_FAILED.incr(),
            CellOutcome::Quarantined { .. } => tlp_obs::metrics::SWEEP_CELLS_QUARANTINED.incr(),
        }
        cells.push((cell, outcome));
        cell_seconds.push(wall);
    }
    Ok(SweepReport {
        cells,
        timing: SweepTiming {
            threads,
            total_seconds: start.elapsed().as_secs_f64(),
            cell_seconds,
            recovery,
        },
        chip: chip_tag,
        budget: b.budget.map(|spec| BudgetAxes {
            spec,
            core_area_mm2: chip.core_area_mm2(),
        }),
    })
}

/// Everything the tasks of one sweep share: its inputs, the per-cell
/// result slots (in request order) and the per-row join points.
struct Engine<'a> {
    chip: &'a ExperimentalChip,
    spec: &'a SweepSpec,
    policy: &'a RetryPolicy,
    plan: &'a FaultPlan,
    /// The technology's nominal point: the V/f of every anchor and
    /// profile run, and Eq. 7's single-core frequency f1.
    nominal: OperatingPoint,
    journal: Option<&'a Mutex<JournalState>>,
    interrupt: Option<&'a AtomicBool>,
    /// Per-cell watchdog deadline, installed by each cell task.
    deadline: Option<Duration>,
    works: &'a [WorkloadId],
    /// One slot per cell, in request order. Tasks finish in arbitrary
    /// order; the deterministic reduction reads the slots in index order.
    slots: Vec<Mutex<Option<(CellOutcome, f64)>>>,
    rows: Vec<Mutex<RowJoin>>,
}

impl Engine<'_> {
    fn fill(&self, idx: usize, outcome: CellOutcome, wall: f64) {
        *self.slots[idx].lock().expect("slot poisoned") = Some((outcome, wall));
    }

    /// Journals a freshly computed outcome of cell (row `ai`, count
    /// index `ni`), then fills its slot.
    fn settle(&self, ai: usize, ni: usize, outcome: CellOutcome, wall: f64) {
        let (name, n) = (self.works[ai].name(), self.spec.core_counts[ni]);
        let seed = self.spec.seed;
        match &outcome {
            CellOutcome::Completed {
                row,
                attempts,
                solver_iterations,
            } => journal_record(self.journal, |j| {
                j.record_completed(&name, n, seed, row, *attempts, *solver_iterations)
            }),
            CellOutcome::Failed { reason, attempts } => {
                let hung = is_hung(reason);
                if hung {
                    tlp_obs::metrics::SWEEP_DEADLINE_CANCELLATIONS.incr();
                }
                let chain = error_chain(reason);
                journal_record(self.journal, |j| {
                    j.record_failed(&name, n, seed, &chain, *attempts, hung)
                });
            }
            CellOutcome::Quarantined { .. } => unreachable!("only a resume quarantines"),
        }
        self.fill(ai * self.spec.core_counts.len() + ni, outcome, wall);
    }

    /// The row's anchor: the nominal-V/f single-core run (for a batch
    /// application, its n = 1 profile run), then the supervised
    /// single-core reference measurement. Spawns every cell whose other
    /// input is already in; if the anchor fails (including by injected
    /// fault), every pending cell of the row fails with the same
    /// diagnosis — normalization needs the anchor.
    fn anchor_task<'s>(&'s self, p: &pool::Pool<'s>, ai: usize, pending: Vec<usize>) {
        if interrupt_raised(self.interrupt) {
            return;
        }
        let work = self.works[ai];
        let prep_start = Instant::now();
        let _span = tlp_obs::span_with("sweep.prep", || work.name());
        let anchor = match self.prepare_anchor(work) {
            Ok(anchor) => Arc::new(anchor),
            Err((reason, attempts)) => {
                let wall = prep_start.elapsed().as_secs_f64();
                for ni in pending {
                    let outcome = CellOutcome::Failed {
                        reason: reason.clone(),
                        attempts,
                    };
                    self.settle(ai, ni, outcome, wall);
                }
                return;
            }
        };
        let t1 = anchor.baseline.execution_time().as_f64();
        let ready: Vec<(usize, f64)> = {
            let mut row = self.rows[ai].lock().expect("row poisoned");
            row.anchor = Some(Arc::clone(&anchor));
            pending
                .into_iter()
                .filter_map(|ni| {
                    let n = self.spec.core_counts[ni];
                    match work {
                        // Open loop: the capacity target is the offered
                        // load itself, so εn is 1 and Eq. 7 reduces to
                        // the iso-capacity point f1/n.
                        WorkloadId::Server { .. } => Some((ni, 1.0)),
                        WorkloadId::App(_) if n == 1 => {
                            Some((ni, profiling::efficiency(t1, 1, t1)))
                        }
                        WorkloadId::App(_) => {
                            row.times[ni].map(|tn| (ni, profiling::efficiency(t1, n, tn)))
                        }
                    }
                })
                .collect()
        };
        for (ni, eps) in ready {
            self.spawn_cell(p, ai, ni, Arc::clone(&anchor), eps);
        }
    }

    /// Builds the row's [`Anchor`]: the single-thread run at the nominal
    /// point, armed with the simulation faults of the row's n = 1 cell,
    /// then its supervised measurement. A batch application's anchor run
    /// is also its n = 1 profile run.
    fn prepare_anchor(&self, work: WorkloadId) -> Result<Anchor, (ExperimentError, u32)> {
        let (chip, plan, nominal) = (self.chip, self.plan, self.nominal);
        let base_cell = SweepCell { work, n: 1 };
        let baseline = {
            let _span = tlp_obs::span_with("profile", || format!("{work}@1"));
            chip.try_run_with(
                self.gang_at(work, 1, nominal),
                nominal,
                plan.sim_faults_for(base_cell),
            )
            .map_err(|e| (e, 1))?
        };
        let (base_measure, _) = {
            let _span = tlp_obs::span_with("sweep.baseline", || work.name());
            supervise(self.policy, |opts| {
                chip.try_measure_with(
                    &baseline,
                    nominal.voltage,
                    opts,
                    &plan.measure_faults_for(base_cell),
                )
            })?
        };
        Ok(Anchor {
            baseline,
            base_measure,
        })
    }

    /// One nominal-V/f profile run of a batch application on
    /// `core_counts[ni]` cores; spawns the cell if the anchor is in.
    fn profile_task<'s>(&'s self, p: &pool::Pool<'s>, ai: usize, ni: usize) {
        if interrupt_raised(self.interrupt) {
            return;
        }
        let (work, n) = (self.works[ai], self.spec.core_counts[ni]);
        let tn = {
            let _span = tlp_obs::span_with("profile", || format!("{work}@{n}"));
            self.chip
                .run(self.gang_at(work, n, self.nominal), self.nominal)
                .execution_time()
                .as_f64()
        };
        let anchor = {
            let mut row = self.rows[ai].lock().expect("row poisoned");
            row.times[ni] = Some(tn);
            row.anchor.clone()
        };
        if let Some(anchor) = anchor {
            let t1 = anchor.baseline.execution_time().as_f64();
            self.spawn_cell(p, ai, ni, anchor, profiling::efficiency(t1, n, tn));
        }
    }

    /// The gang of `work` on `n` cores at `op`: every run the engine
    /// simulates. A server gang is rebuilt per operating point because
    /// its arrival process is pinned to wall-clock offered load.
    fn gang_at(
        &self,
        work: WorkloadId,
        n: usize,
        op: OperatingPoint,
    ) -> Vec<Box<dyn tlp_sim::op::ThreadProgram>> {
        let (scale, seed) = (self.spec.scale, self.spec.seed);
        match work {
            WorkloadId::App(app) => gang(app, n, scale, seed),
            WorkloadId::Server { rps } => {
                ServerSpec::standard(rps, scale).gang(n, seed, op.frequency)
            }
        }
    }

    /// Spawns cell (row `ai`, count index `ni`) at nominal efficiency
    /// `eps`. The task's first act installs the cell deadline: the cell
    /// path returns typed errors once it passes. The anchor and profile
    /// runs, which a row's cells share, run without one; the profile
    /// runs call the panicking `chip.run`.
    fn spawn_cell<'s>(
        &'s self,
        p: &pool::Pool<'s>,
        ai: usize,
        ni: usize,
        anchor: Arc<Anchor>,
        eps: f64,
    ) {
        p.spawn(move |_| {
            let _deadline = self
                .deadline
                .map(|d| tlp_obs::cancel::install(Instant::now() + d));
            if interrupt_raised(self.interrupt) {
                return;
            }
            let (work, n) = (self.works[ai], self.spec.core_counts[ni]);
            let cell_start = Instant::now();
            let name = work.name();
            let _span = tlp_obs::span_with("sweep.cell", || format!("{name}@{n}"));
            journal_record(self.journal, |j| j.record_start(&name, n, self.spec.seed));
            let outcome = run_cell(self, &anchor, work, n, eps);
            self.settle(ai, ni, outcome, cell_start.elapsed().as_secs_f64());
        });
    }
}

/// One supervised cell: simulate at the Eq. 7 iso-performance operating
/// point for nominal efficiency `eps` (the n = 1 cell reuses the anchor's
/// nominal run), then measure once under the retry policy. Only the
/// thermal solve is retried: the simulator is deterministic, so running
/// it again cannot change anything. Self-contained and deterministic —
/// the outcome depends only on the arguments, never on scheduling.
fn run_cell(e: &Engine<'_>, anchor: &Anchor, work: WorkloadId, n: usize, eps: f64) -> CellOutcome {
    let (chip, plan, nominal) = (e.chip, e.plan, e.nominal);
    let cell = SweepCell { work, n };
    let base = &anchor.base_measure;
    let outcome = (|| -> Result<(Scenario1Row, u32, u32), (ExperimentError, u32)> {
        let run;
        let (op, result) = if n == 1 {
            (nominal, &anchor.baseline)
        } else {
            let op =
                operating_point_for(chip.dvfs(), nominal.frequency, n, eps).map_err(|e| (e, 1))?;
            run = chip
                .try_run_with(e.gang_at(work, n, op), op, plan.sim_faults_for(cell))
                .map_err(|e| (e, 1))?;
            (op, &run)
        };
        let (m, attempts) = supervise(e.policy, |opts| {
            chip.try_measure_with(result, op.voltage, opts, &plan.measure_faults_for(cell))
        })?;
        let requests = match (work, &result.requests) {
            (WorkloadId::Server { rps }, Some(stats)) => Some(RequestSummary::from_stats(
                stats,
                rps,
                op.frequency,
                m.total().as_f64(),
                result.execution_time().as_f64(),
            )),
            _ => None,
        };
        Ok((
            Scenario1Row {
                n,
                nominal_efficiency: eps,
                actual_speedup: anchor.baseline.execution_time() / result.execution_time(),
                power_watts: m.total().as_f64(),
                normalized_power: m.total() / base.total(),
                normalized_density: m.power_density.as_w_per_mm2()
                    / base.power_density.as_w_per_mm2(),
                temperature_c: m.avg_core_temp().as_f64(),
                operating_point: op,
                requests,
            },
            attempts,
            m.fixpoint_iterations,
        ))
    })();

    match outcome {
        Ok((row, attempts, solver_iterations)) => CellOutcome::Completed {
            row,
            attempts,
            solver_iterations,
        },
        Err((reason, attempts)) => CellOutcome::Failed { reason, attempts },
    }
}

/// Runs `attempt` under `policy`: retryable errors get progressively
/// damped/relaxed solves, deterministic errors fail on the spot. Returns
/// the value and the number of attempts consumed, or the final error and
/// the attempts spent reaching it.
fn supervise<T>(
    policy: &RetryPolicy,
    mut attempt: impl FnMut(&FixpointOptions) -> Result<T, ExperimentError>,
) -> Result<(T, u32), (ExperimentError, u32)> {
    let max = policy.max_attempts.max(1);
    let mut k = 1;
    loop {
        match attempt(&policy.options_for(k)) {
            Ok(v) => return Ok((v, k)),
            Err(e) if e.is_retryable() && k < max => {
                tlp_obs::metrics::SWEEP_RETRY_ATTEMPTS.incr();
                k += 1;
            }
            Err(e) => return Err((e, k)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_tech::Technology;
    use tlp_thermal::ThermalError;

    fn chip() -> ExperimentalChip {
        ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm())
    }

    fn spec(apps: Vec<AppId>) -> SweepSpec {
        SweepSpec {
            apps,
            server_loads: Vec::new(),
            core_counts: vec![1, 2],
            scale: Scale::Test,
            seed: 7,
        }
    }

    #[test]
    fn clean_sweep_completes_every_cell() {
        let r = chip()
            .sweep()
            .grid(spec(vec![AppId::WaterNsq]))
            .run()
            .unwrap();
        assert_eq!(r.cells.len(), 2);
        assert!(r.cells.iter().all(|(_, o)| o.is_completed()));
        assert_eq!(r.summary(), "sweep: 2/2 cells completed");
    }

    #[test]
    fn builder_stages_compose_and_default_to_fig3_counts() {
        let c = chip();
        let b = c
            .sweep()
            .workloads(vec![WorkloadId::App(AppId::Fft)])
            .scale(Scale::Test)
            .seed(11)
            .retry_policy(RetryPolicy::no_retries())
            .threads(1);
        assert_eq!(b.spec.apps, vec![AppId::Fft]);
        assert_eq!(b.spec.core_counts, vec![1, 2, 4, 8, 16]);
        assert_eq!(b.spec.seed, 11);
        assert_eq!(b.policy.max_attempts, 1);
        assert_eq!(b.threads, 1);
        assert!(!b.sink.is_active());
        let b = b.threads(3).core_counts(vec![1, 2]);
        assert_eq!(b.threads, 3);
        assert_eq!(b.spec.core_counts, vec![1, 2]);
    }

    #[test]
    fn workloads_splits_apps_and_server_loads() {
        let c = chip();
        let b = c.sweep().workloads(vec![
            WorkloadId::App(AppId::Fft),
            WorkloadId::Server { rps: 5_000_000 },
            WorkloadId::App(AppId::WaterNsq),
        ]);
        assert_eq!(b.spec.apps, vec![AppId::Fft, AppId::WaterNsq]);
        assert_eq!(b.spec.server_loads, vec![5_000_000]);
        // A second call replaces both lists, not just the apps.
        let b = b.workloads(vec![WorkloadId::App(AppId::Lu)]);
        assert_eq!(b.spec.apps, vec![AppId::Lu]);
        assert!(b.spec.server_loads.is_empty());
    }

    #[test]
    fn chip_spec_and_budget_flow_into_the_report() {
        let c = chip();
        let r = c
            .sweep()
            .core_mix(1, 1)
            .grid(spec(vec![AppId::WaterNsq]))
            .budget(BudgetSpec {
                area_mm2: 200.0,
                tdp_watts: 125.0,
            })
            .threads(1)
            .run()
            .unwrap();
        assert_eq!(r.chip.as_deref(), Some("big:1w4@1/1+little:1w2@1/2"));
        let axes = r.budget.expect("budget axes recorded");
        assert!(axes.core_area_mm2 > 0.0);
        let (_, row) = r.completed().next().expect("completed cell");
        let fit = r.dark_silicon(row).expect("budget fit");
        assert!(fit.n_cores >= 1);
        assert!((0.0..=1.0).contains(&fit.dark_silicon_ratio));
    }

    #[test]
    fn homogeneous_report_carries_no_chip_tag_or_budget() {
        let r = chip()
            .sweep()
            .grid(spec(vec![AppId::WaterNsq]))
            .threads(1)
            .run()
            .unwrap();
        assert_eq!(r.chip, None);
        assert!(r.budget.is_none());
        let (_, row) = r.completed().next().unwrap();
        assert!(r.dark_silicon(row).is_none(), "no budget axes, no fit");
    }

    #[test]
    fn traced_run_captures_spans_and_counters() {
        let (r, trace) = chip()
            .sweep()
            .grid(spec(vec![AppId::WaterNsq]))
            .threads(1)
            .run_traced()
            .unwrap();
        assert_eq!(r.completed().count(), 2);
        assert_eq!(trace.spans_named("sweep.run").count(), 1);
        assert_eq!(trace.spans_named("sweep.prep").count(), 1);
        assert_eq!(trace.spans_named("sweep.cell").count(), 2);
        // One profile run per count: n = 1 inside the row's anchor, the
        // others as tasks of their own.
        let mut profiles: Vec<_> = trace
            .spans_named("profile")
            .map(|s| s.detail.as_str())
            .collect();
        profiles.sort_unstable();
        assert_eq!(profiles, ["Water-Nsq@1", "Water-Nsq@2"]);
        assert!(trace.spans_named("sim.run").count() >= 2);
        assert!(trace.counter("sweep.cells_completed") == Some(2));
        assert!(trace.counter("thermal.fixpoint_iterations").unwrap_or(0) > 0);
        let solves = trace.counter("linalg.lu_solves").unwrap_or(0);
        assert!(solves > 0, "no thermal solves recorded");
    }

    #[test]
    fn unrunnable_core_counts_fail_their_cells_with_a_typed_reason() {
        // FFT runs only on power-of-two counts, and nothing runs on more
        // cores than the chip has. Such a count fails its own cell; the
        // rest of the row matches a grid that never asked for it, since
        // εn is looked up by core count, not by position.
        let fft = WorkloadId::App(AppId::Fft);
        let grid = |counts: Vec<usize>| SweepSpec {
            core_counts: counts,
            ..spec(vec![AppId::Fft])
        };
        let clean = chip()
            .sweep()
            .grid(grid(vec![1, 2, 4]))
            .threads(1)
            .run()
            .unwrap();
        let row = |r: &SweepReport, n: usize| {
            let (_, outcome) = r.cells.iter().find(|(c, _)| c.n == n).unwrap();
            format!("{outcome:?}")
        };
        for (counts, bad, limit) in [
            (vec![1, 3, 4], 3, CoreLimit::PowerOfTwo),
            (vec![1, 2, 32], 32, CoreLimit::ChipCores(16)),
        ] {
            for threads in [1, 2] {
                let r = chip()
                    .sweep()
                    .grid(grid(counts.clone()))
                    .threads(threads)
                    .run()
                    .unwrap();
                let failed: Vec<_> = r.failed().collect();
                assert_eq!(failed.len(), 1, "{}", r.summary());
                let (cell, reason, attempts) = failed[0];
                assert_eq!(cell, SweepCell { work: fft, n: bad });
                assert_eq!(attempts, 1);
                assert!(!reason.is_retryable());
                assert_eq!(
                    *reason,
                    ExperimentError::Unrunnable(UnrunnableCell {
                        work: "FFT".into(),
                        n: bad,
                        limit,
                    })
                );
                for &n in counts.iter().filter(|&&n| n != bad) {
                    assert_eq!(row(&r, n), row(&clean, n), "FFT@{n} at {threads} threads");
                }
            }
        }
        let r = chip()
            .sweep()
            .grid(grid(vec![1, 3]))
            .threads(1)
            .run()
            .unwrap();
        assert_eq!(
            r.failed().next().unwrap().1.to_string(),
            "core count not runnable: FFT runs only on power-of-two core counts, not on 3"
        );
        let mut servers = spec(Vec::new());
        servers.server_loads = vec![5_000_000];
        servers.core_counts = vec![1, 17];
        let r = chip().sweep().grid(servers).threads(1).run().unwrap();
        assert_eq!(
            r.failed().next().unwrap().1.to_string(),
            "core count not runnable: server-5000000 on 17 cores exceeds the chip's 16 cores"
        );
        assert_eq!(r.completed().count(), 1);
    }

    #[test]
    fn inactive_sink_keeps_recorder_off() {
        let sink = TraceSink::none();
        assert!(!sink.is_active());
        let r = chip()
            .sweep()
            .grid(spec(vec![AppId::WaterNsq]))
            .trace(sink)
            .run()
            .unwrap();
        assert_eq!(r.completed().count(), 2);
        assert!(!tlp_obs::enabled());
    }

    #[test]
    fn chrome_sink_writes_parseable_json() {
        let path =
            std::env::temp_dir().join(format!("cmp-tlp-sweep-trace-{}.json", std::process::id()));
        let r = chip()
            .sweep()
            .grid(spec(vec![AppId::WaterNsq]))
            .trace(TraceSink::chrome(&path))
            .run()
            .unwrap();
        assert_eq!(r.completed().count(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let json = tlp_tech::json::Json::parse(&text).expect("trace is valid JSON");
        let tlp_tech::json::Json::Obj(pairs) = &json else {
            panic!("trace root must be an object");
        };
        let (_, events) = pairs
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .expect("traceEvents key");
        let tlp_tech::json::Json::Arr(events) = events else {
            panic!("traceEvents must be an array");
        };
        assert!(!events.is_empty());
    }

    #[test]
    fn unwritable_chrome_sink_is_a_typed_trace_error() {
        let err = chip()
            .sweep()
            .grid(spec(vec![AppId::WaterNsq]))
            .trace(TraceSink::chrome("/nonexistent-dir/trace.json"))
            .run()
            .unwrap_err();
        assert!(matches!(err, ExperimentError::Trace(_)), "{err}");
        assert!(err.to_string().starts_with("trace sink failed:"), "{err}");
    }

    #[test]
    fn retry_backoff_sequence_is_deterministic_and_capped() {
        let p = RetryPolicy::default();
        // Attempt 1 is the stock solve.
        let o1 = p.options_for(1);
        assert_eq!(o1.damping, 0.0);
        assert_eq!(o1.tolerance_celsius, p.base.tolerance_celsius);
        assert_eq!(o1.max_iterations, p.base.max_iterations);
        // Each retry escalates exactly per the documented formula.
        let o2 = p.options_for(2);
        assert_eq!(o2.damping, 0.35);
        assert_eq!(o2.tolerance_celsius, p.base.tolerance_celsius * 3.0);
        assert_eq!(o2.max_iterations, p.base.max_iterations * 2);
        let o3 = p.options_for(3);
        assert_eq!(o3.damping, 0.35 * 2.0);
        assert_eq!(o3.tolerance_celsius, p.base.tolerance_celsius * 9.0);
        assert_eq!(o3.max_iterations, p.base.max_iterations * 4);
        // Damping saturates at 0.9 — a long retry tail never over-damps
        // the solve into a frozen iteration.
        assert_eq!(p.options_for(4).damping, 0.9);
        assert_eq!(p.options_for(40).damping, 0.9);
        // The divergence guard is never relaxed: a runaway must still
        // be caught on every attempt.
        for k in 1..5 {
            assert_eq!(
                p.options_for(k).divergence_limit_celsius,
                p.base.divergence_limit_celsius
            );
        }
    }

    #[test]
    fn backoff_jitter_schedule_is_seeded_and_bounded() {
        let p = RetryPolicy::default();
        // Attempt 1 is the initial try: no wait.
        assert_eq!(p.backoff_delay(1, 0xBEEF), Duration::ZERO);
        assert_eq!(p.backoff_delay(0, 0xBEEF), Duration::ZERO);
        // The same seed always yields the same schedule.
        let schedule: Vec<u64> = (2..10)
            .map(|k| p.backoff_delay(k, 0xBEEF).as_millis() as u64)
            .collect();
        let again: Vec<u64> = (2..10)
            .map(|k| p.backoff_delay(k, 0xBEEF).as_millis() as u64)
            .collect();
        assert_eq!(schedule, again);
        // Distinct seeds spread their retries apart (different jitter).
        let other: Vec<u64> = (2..10)
            .map(|k| p.backoff_delay(k, 0xD1CE).as_millis() as u64)
            .collect();
        assert_ne!(schedule, other);
        // Equal-jitter bounds: every wait for attempt k lands in
        // [ceiling/2, ceiling] with ceiling = min(cap, base·2^(k−2)).
        for (i, &wait) in schedule.iter().enumerate() {
            let k = i as u32 + 2;
            let ceiling = RetryPolicy::BACKOFF_CAP_MS.min(RetryPolicy::BACKOFF_BASE_MS << (k - 2));
            assert!(
                (ceiling / 2..=ceiling).contains(&wait),
                "attempt {k}: wait {wait}ms outside [{}, {ceiling}]",
                ceiling / 2
            );
        }
        // The ladder saturates at the cap: a long retry tail never
        // waits longer than BACKOFF_CAP_MS, and huge attempt numbers
        // don't overflow the shift.
        for k in [20, 40, 1000] {
            let wait = p.backoff_delay(k, 0xBEEF).as_millis() as u64;
            assert!(wait >= RetryPolicy::BACKOFF_CAP_MS / 2);
            assert!(wait <= RetryPolicy::BACKOFF_CAP_MS);
        }
    }

    #[test]
    fn supervise_spends_attempts_only_on_retryable_failures() {
        let policy = RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::default()
        };
        let retryable = || {
            ExperimentError::Thermal(ThermalError::NoConvergence {
                iterations: 5,
                last_delta: 1.0,
                tolerance: 0.1,
            })
        };

        // Succeeds on the third attempt: three attempts consumed, each
        // one solving with the escalated options for its ordinal.
        let mut damping_seen = Vec::new();
        let mut calls = 0u32;
        let r = supervise(&policy, |opts| {
            calls += 1;
            damping_seen.push(opts.damping);
            if calls < 3 {
                Err(retryable())
            } else {
                Ok(calls)
            }
        });
        assert_eq!(r.unwrap(), (3, 3));
        assert_eq!(damping_seen, vec![0.0, 0.35, 0.35 * 2.0]);

        // Exhausts the budget: exactly max_attempts calls, and the
        // error carries the full count.
        let mut calls = 0u32;
        let r = supervise(&policy, |_| {
            calls += 1;
            Err::<(), _>(retryable())
        });
        let (e, attempts) = r.unwrap_err();
        assert_eq!((attempts, calls), (4, 4));
        assert!(e.is_retryable());

        // A deterministic fault surfacing at the retry boundary (after
        // a retryable first attempt) is final even with budget left.
        let mut calls = 0u32;
        let r = supervise(&policy, |_| {
            calls += 1;
            if calls == 1 {
                Err::<(), _>(retryable())
            } else {
                Err(ExperimentError::Power(tlp_power::PowerError::EmptyRun))
            }
        });
        let (e, attempts) = r.unwrap_err();
        assert_eq!((attempts, calls), (2, 2));
        assert!(!e.is_retryable());
    }

    #[test]
    fn no_retries_policy_caps_even_retryable_faults_at_one_attempt() {
        let plan = FaultPlan::none().inject_work(
            WorkloadId::App(AppId::WaterNsq),
            2,
            Fault::InflateLeakage(100.0),
        );
        let r = chip()
            .sweep()
            .grid(spec(vec![AppId::WaterNsq]))
            .retry_policy(RetryPolicy::no_retries())
            .faults(plan)
            .run()
            .unwrap();
        let failed: Vec<_> = r.failed().collect();
        assert_eq!(failed.len(), 1, "{}", r.summary());
        let (_, reason, attempts) = failed[0];
        assert!(
            reason.is_retryable(),
            "runaway should be retryable: {reason}"
        );
        assert_eq!(
            attempts, 1,
            "no_retries must not retry even retryable errors"
        );
    }

    #[test]
    fn nan_fault_fails_only_its_cell_without_retries() {
        let plan =
            FaultPlan::none().inject_work(WorkloadId::App(AppId::WaterNsq), 2, Fault::NanPower);
        let r = chip()
            .sweep()
            .grid(spec(vec![AppId::WaterNsq]))
            .faults(plan)
            .run()
            .unwrap();
        let failed: Vec<_> = r.failed().collect();
        assert_eq!(failed.len(), 1);
        let (cell, reason, attempts) = failed[0];
        assert_eq!(
            cell,
            SweepCell {
                work: WorkloadId::App(AppId::WaterNsq),
                n: 2
            }
        );
        // NaN input is deterministic: exactly one attempt, no retries.
        assert_eq!(attempts, 1);
        assert!(matches!(
            reason,
            ExperimentError::Thermal(ThermalError::NonFinite { .. })
        ));
        // The other cell still completed.
        assert_eq!(r.completed().count(), 1);
    }

    #[test]
    fn retry_policy_escalates_damping_and_budget() {
        let p = RetryPolicy::default();
        let a1 = p.options_for(1);
        let a3 = p.options_for(3);
        assert_eq!(a1.damping, 0.0);
        assert_eq!(a1.max_iterations, FixpointOptions::default().max_iterations);
        assert!(a3.damping > 0.5 && a3.damping < 0.9 + 1e-12);
        assert_eq!(a3.max_iterations, a1.max_iterations * 4);
        assert!(a3.tolerance_celsius > a1.tolerance_celsius);
    }

    #[test]
    fn fault_plan_routes_faults_to_the_right_stage() {
        let plan = FaultPlan::none()
            .inject_work(
                WorkloadId::App(AppId::Fft),
                4,
                Fault::DropBarrierArrival {
                    barrier: 0,
                    thread: 1,
                },
            )
            .inject_work(WorkloadId::App(AppId::Fft), 4, Fault::InflateLeakage(4.0))
            .inject_work(WorkloadId::App(AppId::Fft), 8, Fault::CycleBudget(1000));
        let cell4 = SweepCell {
            work: WorkloadId::App(AppId::Fft),
            n: 4,
        };
        let cell8 = SweepCell {
            work: WorkloadId::App(AppId::Fft),
            n: 8,
        };
        assert_eq!(
            plan.sim_faults_for(cell4).drop_barrier_arrival,
            Some((0, 1))
        );
        assert_eq!(plan.sim_faults_for(cell4).cycle_budget, None);
        assert_eq!(plan.measure_faults_for(cell4).leakage_scale, 4.0);
        assert_eq!(plan.sim_faults_for(cell8).cycle_budget, Some(1000));
        assert!(!plan.measure_faults_for(cell8).any());
        assert!(!plan.targets(SweepCell {
            work: WorkloadId::App(AppId::Fft),
            n: 2
        }));
    }

    #[test]
    fn server_rows_carry_request_summaries_and_batch_rows_do_not() {
        let mut grid = spec(vec![AppId::WaterNsq]);
        grid.server_loads = vec![5_000_000];
        let r = chip().sweep().grid(grid).threads(1).run().unwrap();
        assert_eq!(r.cells.len(), 4);
        assert!(
            r.cells.iter().all(|(_, o)| o.is_completed()),
            "{}",
            r.summary()
        );
        for (cell, row) in r.completed() {
            match cell.work {
                WorkloadId::App(_) => {
                    assert!(row.requests.is_none(), "{cell}: batch row has latency data")
                }
                WorkloadId::Server { rps } => {
                    let req = row.requests.as_ref().expect("server row has latency data");
                    assert_eq!(req.offered_rps, rps);
                    assert!(req.completed > 0);
                    assert!(req.throughput_rps > 0.0);
                    assert!(req.p50_s > 0.0 && req.p50_s <= req.p99_s && req.p99_s <= req.max_s);
                    assert!(req.energy_per_request_j > 0.0);
                }
            }
        }
        // Report order: batch applications first, then server loads.
        assert_eq!(
            r.cells
                .iter()
                .map(|(c, _)| c.to_string())
                .collect::<Vec<_>>(),
            [
                "Water-Nsq@1",
                "Water-Nsq@2",
                "server-5000000@1",
                "server-5000000@2"
            ]
        );
    }

    #[test]
    fn a_simulation_fault_on_the_single_core_cell_fails_the_whole_row() {
        // The n = 1 cell's simulation is the row's anchor run, which every
        // cell of the row normalizes by: a batch row and a server row alike
        // fail both cells with the anchor's diagnosis.
        for work in [
            WorkloadId::App(AppId::Fft),
            WorkloadId::Server { rps: 5_000_000 },
        ] {
            let plan = FaultPlan::none().inject_work(work, 1, Fault::CycleBudget(500));
            let r = chip()
                .sweep()
                .workloads(vec![work])
                .core_counts(vec![1, 2])
                .scale(Scale::Test)
                .seed(7)
                .faults(plan)
                .threads(1)
                .run()
                .unwrap();
            let failed: Vec<_> = r.failed().collect();
            assert_eq!(failed.len(), 2, "{work}: {}", r.summary());
            for (cell, reason, attempts) in failed {
                assert!(
                    matches!(
                        reason,
                        ExperimentError::Sim(SimError::CycleBudgetExhausted { .. })
                    ),
                    "{cell}: {reason}"
                );
                assert_eq!(attempts, 1, "{cell}");
            }
        }
    }

    #[test]
    fn server_cells_respect_injected_faults() {
        let mut grid = spec(Vec::new());
        grid.server_loads = vec![5_000_000];
        let work = WorkloadId::Server { rps: 5_000_000 };
        let plan = FaultPlan::none().inject_work(work, 2, Fault::CycleBudget(500));
        let r = chip()
            .sweep()
            .grid(grid)
            .faults(plan)
            .threads(1)
            .run()
            .unwrap();
        let failed: Vec<_> = r.failed().collect();
        assert_eq!(failed.len(), 1, "{}", r.summary());
        assert_eq!(failed[0].0, SweepCell { work, n: 2 });
        assert!(matches!(
            failed[0].1,
            ExperimentError::Sim(SimError::CycleBudgetExhausted { .. })
        ));
        assert_eq!(r.completed().count(), 1);
    }
}
