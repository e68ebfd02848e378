//! Cooperative cancellation deadlines for long-running solves.
//!
//! The sweep engine's per-cell deadline cannot kill a thread mid-solve —
//! Rust has no safe thread cancellation — so overrun handling is
//! cooperative: a task that runs under a deadline [`install`]s it as its
//! first act (the sweep's cell task, the serve daemon's connection
//! handler), and the loops that poll it (the simulator's cycle loop, the
//! thermal fixpoint iteration, the HTTP reader, the long-poll) stop at
//! safe points with a typed error once it has passed. The guard
//! uninstalls it when the task ends, so a deadline never outlives its
//! task. No other thread takes part: a deadline expires on its own.
//!
//! This module lives in `tlp-obs` because it sits at the base of the
//! workspace DAG: both `tlp-sim` and `tlp-thermal` already depend on it,
//! and a cancellation check has the same shape as an instrumentation
//! site — a cheap poll that is almost always false.
//!
//! The deadline reaches the hot loops the same way spans do: through a
//! thread-local, with no plumbing through the (many) intermediate call
//! signatures. Threads with no installed deadline always read `false`
//! and never read the clock.

use std::cell::Cell;
use std::time::Instant;

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Installs `deadline` as this thread's cancellation deadline for the
/// guard's lifetime; the previous deadline (if any) is restored on drop,
/// so nested installs compose.
pub fn install(deadline: Instant) -> InstallGuard {
    InstallGuard {
        prev: DEADLINE.replace(Some(deadline)),
    }
}

/// Whether the current thread's installed deadline has passed (`false`
/// when none is installed). Cheap enough to poll from hot loops at a
/// coarse stride.
pub fn cancelled() -> bool {
    DEADLINE
        .get()
        .is_some_and(|deadline| Instant::now() >= deadline)
}

/// Whether this thread has a cancellation deadline installed at all —
/// i.e. whether anyone is supervising it. Loops that would otherwise
/// wait on [`cancelled`] forever (the simulator's injected-hang fault)
/// consult this to pick between "wait for the deadline" and "fail fast
/// on their own budget".
pub fn armed() -> bool {
    DEADLINE.get().is_some()
}

/// Restores the previously installed deadline when dropped.
#[must_use = "dropping the guard immediately uninstalls the deadline"]
pub struct InstallGuard {
    prev: Option<Instant>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        DEADLINE.set(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const HOUR: Duration = Duration::from_secs(3600);

    #[test]
    fn no_token_means_not_cancelled() {
        assert!(!cancelled());
        assert!(!armed());
    }

    #[test]
    fn installed_token_arms_the_thread_even_before_firing() {
        {
            let _guard = install(Instant::now() + HOUR);
            assert!(armed());
            assert!(!cancelled(), "a future deadline has not passed");
        }
        assert!(!armed());
    }

    #[test]
    fn fired_token_is_observed_while_installed() {
        {
            let _guard = install(Instant::now());
            assert!(cancelled(), "a passed deadline cancels");
        }
        // Uninstalled: the thread no longer observes the passed deadline.
        assert!(!cancelled());
    }

    #[test]
    fn nested_installs_restore_the_outer_token() {
        let _g1 = install(Instant::now());
        {
            let _g2 = install(Instant::now() + HOUR);
            assert!(!cancelled(), "inner deadline shadows the passed outer one");
        }
        assert!(
            cancelled(),
            "outer deadline restored after inner guard drops"
        );
    }
}
