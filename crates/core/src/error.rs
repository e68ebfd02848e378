//! The unified experiment-pipeline error.
//!
//! Every layer of the stack reports failures in its own vocabulary —
//! [`tlp_sim::SimError`] for deadlocks and exhausted cycle budgets,
//! [`tlp_thermal::ThermalError`] for fixpoint non-convergence and thermal
//! runaway, [`tlp_power::PowerError`] for malformed accounting inputs, and
//! [`tlp_tech::TechError`] for out-of-range operating points. The
//! experiment drivers in this crate touch all four, so they speak
//! [`ExperimentError`]: a sum type with `From` impls in every direction,
//! letting `?` propagate any substrate failure to the supervised sweep
//! runner ([`crate::sweep`]) where it becomes a reported
//! [`crate::sweep::CellOutcome::Failed`] row instead of a panic.

use std::fmt;

use tlp_power::PowerError;
use tlp_sim::SimError;
use tlp_tech::TechError;
use tlp_thermal::ThermalError;

/// Failure writing a trace artifact to its sink (e.g. the Chrome
/// `trace_event` file requested by `sweep --trace <path>`).
///
/// The underlying [`std::io::Error`] is rendered into `message` — this
/// type stays `Clone + PartialEq` like the rest of the hierarchy — and
/// the struct itself is the `source()` of
/// [`ExperimentError::Trace`], so chain walkers see
/// "trace sink failed: …" → the path and OS-level cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// Path of the sink that could not be written.
    pub path: String,
    /// The rendered I/O error.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot write trace to {}: {}", self.path, self.message)
    }
}

impl std::error::Error for TraceError {}

/// Progress snapshot carried by [`ExperimentError::Interrupted`]: how far
/// the sweep got before the interrupt flag stopped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterruptInfo {
    /// Cells whose outcomes were settled (computed or spliced from the
    /// journal) before the interrupt.
    pub completed_cells: usize,
    /// Cells the sweep was asked for in total.
    pub total_cells: usize,
}

impl fmt::Display for InterruptInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} cells had settled outcomes",
            self.completed_cells, self.total_cells
        )
    }
}

/// The limit that keeps a workload off a core count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreLimit {
    /// The application runs only on power-of-two core counts (the
    /// paper's "missing bars").
    PowerOfTwo,
    /// The chip has only this many cores.
    ChipCores(usize),
}

/// A sweep cell whose core count its workload cannot run on, carried by
/// [`ExperimentError::Unrunnable`]. Deterministic, so never retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnrunnableCell {
    /// The workload, as the report names it (e.g. `"FFT"`).
    pub work: String,
    /// The requested core count.
    pub n: usize,
    /// The limit the count breaks.
    pub limit: CoreLimit,
}

impl fmt::Display for UnrunnableCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.limit {
            CoreLimit::PowerOfTwo => write!(
                f,
                "{} runs only on power-of-two core counts, not on {}",
                self.work, self.n
            ),
            CoreLimit::ChipCores(cores) => write!(
                f,
                "{} on {} cores exceeds the chip's {cores} cores",
                self.work, self.n
            ),
        }
    }
}

impl std::error::Error for UnrunnableCell {}

/// Any failure of the experiment pipeline, from any layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// The cycle-level simulation failed (deadlock, exhausted budget).
    Sim(SimError),
    /// The power↔temperature fixpoint failed (non-convergence, thermal
    /// runaway, non-finite values).
    Thermal(ThermalError),
    /// Power accounting failed (zero-cycle run, unmappable block).
    Power(PowerError),
    /// A technology/DVFS lookup failed (operating point out of range).
    Tech(TechError),
    /// A requested trace artifact could not be written. The experiment
    /// itself succeeded; only the observability output was lost.
    Trace(TraceError),
    /// The durability layer failed: the cell journal could not be
    /// opened, verified, or written (see
    /// [`JournalError`](crate::journal::JournalError)). Without a
    /// trustworthy journal a checkpointed sweep cannot keep its
    /// crash-safety promise, so this is loud.
    Journal(crate::journal::JournalError),
    /// The sweep's interrupt flag was raised (e.g. SIGINT) and the
    /// engine stopped starting new cells. All settled outcomes are in
    /// the journal; resume with the same configuration to finish.
    Interrupted(InterruptInfo),
    /// A sweep cell asked for a core count its workload cannot run on.
    Unrunnable(UnrunnableCell),
}

impl ExperimentError {
    /// Whether a retry with a more conservative solver configuration
    /// (damping, relaxed tolerance, larger iteration budget) could
    /// plausibly succeed. Deterministic failures — deadlocks, accounting
    /// errors, out-of-range lookups — always reproduce, so retrying them
    /// wastes work.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ExperimentError::Thermal(
                ThermalError::NoConvergence { .. } | ThermalError::Diverged { .. }
            )
        )
    }
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Sim(e) => write!(f, "simulation failed: {e}"),
            ExperimentError::Thermal(e) => write!(f, "thermal solve failed: {e}"),
            ExperimentError::Power(e) => write!(f, "power accounting failed: {e}"),
            ExperimentError::Tech(e) => write!(f, "technology model failed: {e}"),
            ExperimentError::Trace(e) => write!(f, "trace sink failed: {e}"),
            ExperimentError::Journal(e) => write!(f, "sweep journal failed: {e}"),
            ExperimentError::Interrupted(info) => {
                write!(f, "sweep interrupted: {info}; resume to finish")
            }
            ExperimentError::Unrunnable(e) => write!(f, "core count not runnable: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Sim(e) => Some(e),
            ExperimentError::Thermal(e) => Some(e),
            ExperimentError::Power(e) => Some(e),
            ExperimentError::Tech(e) => Some(e),
            ExperimentError::Trace(e) => Some(e),
            ExperimentError::Journal(e) => Some(e),
            ExperimentError::Interrupted(_) => None,
            ExperimentError::Unrunnable(e) => Some(e),
        }
    }
}

/// Renders `e` and its full [`source()`](std::error::Error::source)
/// chain, outermost first. The CLI's `--json` failure output and the
/// sweep report's failed-cell records use this so a consumer sees every
/// causal layer ("simulation failed: …" → the deadlock diagnosis), not
/// just the top-level message.
pub fn error_chain(e: &(dyn std::error::Error + 'static)) -> Vec<String> {
    let mut chain = vec![e.to_string()];
    let mut cur = e.source();
    while let Some(cause) = cur {
        chain.push(cause.to_string());
        cur = cause.source();
    }
    chain
}

impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> Self {
        ExperimentError::Sim(e)
    }
}

impl From<ThermalError> for ExperimentError {
    fn from(e: ThermalError) -> Self {
        ExperimentError::Thermal(e)
    }
}

impl From<PowerError> for ExperimentError {
    fn from(e: PowerError) -> Self {
        ExperimentError::Power(e)
    }
}

impl From<TechError> for ExperimentError {
    fn from(e: TechError) -> Self {
        ExperimentError::Tech(e)
    }
}

impl From<TraceError> for ExperimentError {
    fn from(e: TraceError) -> Self {
        ExperimentError::Trace(e)
    }
}

impl From<crate::journal::JournalError> for ExperimentError {
    fn from(e: crate::journal::JournalError) -> Self {
        ExperimentError::Journal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes_identify_the_failing_layer() {
        let e = ExperimentError::from(ThermalError::NoConvergence {
            iterations: 100,
            last_delta: 0.5,
            tolerance: 1e-3,
        });
        let s = e.to_string();
        assert!(s.starts_with("thermal solve failed:"), "{s}");
        assert!(s.contains("100"), "{s}");
    }

    #[test]
    fn only_thermal_convergence_failures_are_retryable() {
        let retryable = ExperimentError::from(ThermalError::Diverged {
            iterations: 7,
            temperature: 1200.0,
        });
        assert!(retryable.is_retryable());
        let nonfinite = ExperimentError::from(ThermalError::NonFinite {
            iterations: 0,
            context: "dynamic power input",
        });
        assert!(!nonfinite.is_retryable());
        let power = ExperimentError::from(PowerError::EmptyRun);
        assert!(!power.is_retryable());
    }

    #[test]
    fn source_chain_reaches_the_substrate_error() {
        use std::error::Error;
        let e = ExperimentError::from(PowerError::EmptyRun);
        assert!(e.source().unwrap().to_string().contains("zero-cycle"));
    }

    #[test]
    fn error_chain_walks_every_causal_layer() {
        let e = ExperimentError::from(ThermalError::NoConvergence {
            iterations: 100,
            last_delta: 0.5,
            tolerance: 1e-3,
        });
        let chain = error_chain(&e);
        assert_eq!(chain.len(), 2, "{chain:?}");
        assert!(chain[0].starts_with("thermal solve failed:"));
        assert!(chain[1].contains("100"));
    }

    #[test]
    fn deadlock_chain_reaches_the_diagnosis() {
        let e = ExperimentError::from(SimError::Deadlock(tlp_sim::DeadlockInfo {
            cycle: 42,
            cores: Vec::new(),
        }));
        let chain = error_chain(&e);
        // ExperimentError → SimError → DeadlockInfo: three layers.
        assert_eq!(chain.len(), 3, "{chain:?}");
        assert!(chain[2].contains("cycle 42"), "{chain:?}");
    }

    #[test]
    fn journal_errors_display_path_and_cause() {
        let e = ExperimentError::from(crate::journal::JournalError::Missing {
            path: "/nope/sweep.journal".to_string(),
        });
        assert!(!e.is_retryable());
        let chain = error_chain(&e);
        assert!(chain[0].starts_with("sweep journal failed:"), "{chain:?}");
        assert!(chain[1].contains("/nope/sweep.journal"), "{chain:?}");
    }

    #[test]
    fn interrupted_reports_progress_and_has_no_source() {
        use std::error::Error;
        let e = ExperimentError::Interrupted(InterruptInfo {
            completed_cells: 3,
            total_cells: 10,
        });
        assert!(!e.is_retryable());
        assert!(e.source().is_none());
        let s = e.to_string();
        assert!(s.contains("3/10"), "{s}");
        assert!(s.contains("resume"), "{s}");
    }

    #[test]
    fn trace_errors_display_path_and_cause() {
        let e = ExperimentError::Trace(TraceError {
            path: "/nope/trace.json".to_string(),
            message: "permission denied".to_string(),
        });
        assert!(!e.is_retryable());
        let chain = error_chain(&e);
        assert!(chain[0].starts_with("trace sink failed:"), "{chain:?}");
        assert!(chain[1].contains("/nope/trace.json"), "{chain:?}");
    }
}
