//! Typed thermal-solver errors.
//!
//! The temperature↔leakage fixpoint can fail three distinct ways, and the
//! experiment pipeline treats them differently: a [`NoConvergence`] run
//! can be retried with damping or a looser tolerance, a [`Diverged`] run
//! is thermal runaway (more iterations will never help — the operating
//! point is physically unsustainable), and [`NonFinite`] means the power
//! input was corrupt (NaN/∞) and must be reported upstream.
//!
//! [`NoConvergence`]: ThermalError::NoConvergence
//! [`Diverged`]: ThermalError::Diverged
//! [`NonFinite`]: ThermalError::NonFinite

use std::fmt;

/// Error returned by [`ThermalModel::try_fixpoint`].
///
/// [`ThermalModel::try_fixpoint`]: crate::ThermalModel::try_fixpoint
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// The iteration ran out of its budget while still moving, but was
    /// not escaping — retrying with damping, a relaxed tolerance, or a
    /// higher iteration cap may converge.
    NoConvergence {
        /// Iterations performed.
        iterations: u32,
        /// Last average-temperature change, in °C.
        last_delta: f64,
        /// The tolerance that was not met, in °C.
        tolerance: f64,
    },
    /// Thermal runaway: the average temperature grew monotonically past
    /// the divergence bound, or the per-iteration change kept growing —
    /// the leakage feedback loop has no fixpoint at this operating point.
    Diverged {
        /// Iterations performed before divergence was declared.
        iterations: u32,
        /// Average core temperature when the solve was abandoned, in °C.
        temperature: f64,
    },
    /// A non-finite value (NaN or ∞) appeared in the power input or the
    /// solved temperature field.
    NonFinite {
        /// Iterations performed before the non-finite value appeared
        /// (zero when the input power vector was already corrupt).
        iterations: u32,
        /// Where the non-finite value was seen.
        context: &'static str,
    },
    /// This solve's cancellation deadline (the per-cell sweep deadline,
    /// see `tlp_obs::cancel`) passed and the fixpoint loop abandoned the
    /// solve at its next iteration boundary. Never retried: the cell has
    /// already overrun its deadline.
    DeadlineExceeded {
        /// Iterations performed before the cancellation was observed.
        iterations: u32,
    },
}

impl ThermalError {
    /// Fixpoint iterations performed before the solve failed.
    pub fn iterations(&self) -> u32 {
        match *self {
            ThermalError::NoConvergence { iterations, .. }
            | ThermalError::Diverged { iterations, .. }
            | ThermalError::NonFinite { iterations, .. }
            | ThermalError::DeadlineExceeded { iterations } => iterations,
        }
    }
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::NoConvergence {
                iterations,
                last_delta,
                tolerance,
            } => write!(
                f,
                "fixpoint did not converge after {iterations} iterations \
                 (last Δ {last_delta:.4} °C vs tolerance {tolerance} °C)"
            ),
            ThermalError::Diverged {
                iterations,
                temperature,
            } => write!(
                f,
                "fixpoint diverged after {iterations} iterations \
                 (thermal runaway, average core temperature {temperature:.1} °C)"
            ),
            ThermalError::NonFinite {
                iterations,
                context,
            } => write!(
                f,
                "non-finite value in {context} after {iterations} iterations"
            ),
            ThermalError::DeadlineExceeded { iterations } => write!(
                f,
                "fixpoint abandoned after {iterations} iterations: \
                 cancelled by its watchdog deadline"
            ),
        }
    }
}

impl std::error::Error for ThermalError {}
