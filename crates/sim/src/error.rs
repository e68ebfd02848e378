//! Typed simulator errors.
//!
//! A cycle-level simulation of a buggy (or fault-injected) workload does
//! not produce a wrong number — it hangs. The supervised experiment
//! pipeline therefore needs the simulator to *diagnose* a hung run rather
//! than panic: [`SimError::Deadlock`] carries a per-core snapshot of what
//! every core was blocked on (which barrier, which lock and its holder,
//! retired-instruction progress), and [`SimError::CycleBudgetExhausted`]
//! reports a run that was still making progress when its budget ran out,
//! so callers can distinguish "deadlocked" from "too slow" and retry with
//! a bigger budget only where that can help.

use std::fmt;

/// What a core was doing when the simulator stopped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StuckReason {
    /// Spinning at a barrier that never released.
    AtBarrier {
        /// Barrier id from the workload.
        id: u32,
        /// Barrier generation the core is waiting on.
        generation: u64,
    },
    /// Asleep at a barrier (thrifty-barrier extension) that never
    /// released.
    AsleepAtBarrier {
        /// Barrier id from the workload.
        id: u32,
        /// Barrier generation the core is waiting on.
        generation: u64,
    },
    /// Spinning on a lock.
    SpinningOnLock {
        /// Lock id from the workload.
        id: u32,
        /// Core currently holding the lock, if any.
        holder: Option<usize>,
    },
    /// Stalled on a bounded event (memory fill, mispredict redirect);
    /// such a core always resumes, so it is never the cause of a
    /// deadlock.
    Stalled,
    /// Idle until a scheduled open-loop request arrival; the arrival
    /// cycle is finite, so like [`StuckReason::Stalled`] this core always
    /// resumes and never participates in a deadlock.
    Idle,
    /// Ready to issue — the core was executing normally.
    Executing,
    /// The thread finished.
    Finished,
}

impl StuckReason {
    /// Whether the core can wait indefinitely in this state (the states
    /// that participate in deadlocks).
    pub fn is_unbounded_wait(&self) -> bool {
        matches!(
            self,
            StuckReason::AtBarrier { .. }
                | StuckReason::AsleepAtBarrier { .. }
                | StuckReason::SpinningOnLock { .. }
        )
    }
}

impl fmt::Display for StuckReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StuckReason::AtBarrier { id, generation } => {
                write!(f, "spinning at barrier {id} (generation {generation})")
            }
            StuckReason::AsleepAtBarrier { id, generation } => {
                write!(f, "asleep at barrier {id} (generation {generation})")
            }
            StuckReason::SpinningOnLock {
                id,
                holder: Some(h),
            } => {
                write!(f, "spinning on lock {id} held by core {h}")
            }
            StuckReason::SpinningOnLock { id, holder: None } => {
                write!(f, "spinning on lock {id} (no holder)")
            }
            StuckReason::Stalled => write!(f, "stalled on a bounded event"),
            StuckReason::Idle => write!(f, "idle until a scheduled request arrival"),
            StuckReason::Executing => write!(f, "executing"),
            StuckReason::Finished => write!(f, "finished"),
        }
    }
}

/// Per-core stuck-state snapshot taken when a run is aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreStuck {
    /// Core id.
    pub core: usize,
    /// What the core was blocked on.
    pub reason: StuckReason,
    /// Retired instructions — the pull-based programs have no literal
    /// program counter, so retired-instruction count is the progress
    /// coordinate.
    pub retired_instructions: u64,
    /// Cycles since the core last retired a non-spin instruction.
    pub cycles_since_progress: u64,
}

impl fmt::Display for CoreStuck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core {}: {} ({} instructions retired, no progress for {} cycles)",
            self.core, self.reason, self.retired_instructions, self.cycles_since_progress
        )
    }
}

/// Full diagnosis of a deadlocked run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockInfo {
    /// Cycle at which the deadlock was declared.
    pub cycle: u64,
    /// Stuck-state of every core (including finished ones, so a missing
    /// barrier arrival by an exited thread is visible).
    pub cores: Vec<CoreStuck>,
}

impl DeadlockInfo {
    /// Barrier ids that at least one core is stuck at, ascending.
    pub fn stuck_barriers(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .cores
            .iter()
            .filter_map(|c| match c.reason {
                StuckReason::AtBarrier { id, .. } | StuckReason::AsleepAtBarrier { id, .. } => {
                    Some(id)
                }
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Lock ids that at least one core is spinning on, ascending.
    pub fn stuck_locks(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .cores
            .iter()
            .filter_map(|c| match c.reason {
                StuckReason::SpinningOnLock { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Core ids blocked in an unbounded wait, ascending.
    pub fn stuck_cores(&self) -> Vec<usize> {
        self.cores
            .iter()
            .filter(|c| c.reason.is_unbounded_wait())
            .map(|c| c.core)
            .collect()
    }
}

impl fmt::Display for DeadlockInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deadlock at cycle {}", self.cycle)?;
        let barriers = self.stuck_barriers();
        if !barriers.is_empty() {
            write!(f, "; stuck barriers: {barriers:?}")?;
        }
        let locks = self.stuck_locks();
        if !locks.is_empty() {
            write!(f, "; stuck locks: {locks:?}")?;
        }
        for c in &self.cores {
            write!(f, "\n  {c}")?;
        }
        Ok(())
    }
}

/// Error returned by the fallible simulator entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// All live cores were blocked in unbounded waits with no program
    /// progress — the run can never finish.
    Deadlock(DeadlockInfo),
    /// The run was still making progress when the cycle budget ran out.
    CycleBudgetExhausted {
        /// The budget that was exhausted.
        budget: u64,
        /// Instructions retired chip-wide when the run was stopped.
        retired_instructions: u64,
        /// Per-core state at the stop, for slow-progress diagnosis.
        cores: Vec<CoreStuck>,
    },
    /// This run's cancellation deadline (the per-cell sweep deadline)
    /// passed and the run loop unwound cooperatively at its next poll
    /// point.
    DeadlineExceeded {
        /// Simulated cycle at which the cancellation was observed.
        cycle: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(info) => info.fmt(f),
            SimError::CycleBudgetExhausted {
                budget,
                retired_instructions,
                ..
            } => write!(
                f,
                "cycle budget of {budget} exhausted while still making progress \
                 ({retired_instructions} instructions retired)"
            ),
            SimError::DeadlineExceeded { cycle } => write!(
                f,
                "run cancelled by its watchdog deadline at cycle {cycle} \
                 (hung or overrunning cell)"
            ),
        }
    }
}

// The diagnosis is an error in its own right so `SimError::source()` can
// expose it as the cause: chain walkers (the CLI's `--json` error output,
// trace events) render "simulation deadlocked" → full per-core diagnosis.
impl std::error::Error for DeadlockInfo {}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Deadlock(info) => Some(info),
            SimError::CycleBudgetExhausted { .. } | SimError::DeadlineExceeded { .. } => None,
        }
    }
}
