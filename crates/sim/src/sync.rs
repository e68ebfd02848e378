//! Barrier and lock primitives.
//!
//! Synchronization correctness is handled by a central manager; the *power
//! and traffic* cost of synchronization is modeled by the cores, which spin
//! with real instruction activity (and periodic coherence traffic for
//! locks) while waiting — spin-waiting burns power, which is exactly the
//! behaviour the paper's workloads exhibit.

use std::collections::HashMap;

/// Ticket returned when a thread arrives at a barrier; the thread is
/// released once the barrier's generation advances past the ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierTicket {
    id: u32,
    generation: u64,
}

impl BarrierTicket {
    /// Barrier id this ticket belongs to.
    pub fn barrier(&self) -> u32 {
        self.id
    }

    /// Barrier generation the ticket waits on.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[derive(Debug, Default)]
struct BarrierState {
    arrived: Vec<usize>,
    generation: u64,
}

/// Central synchronization manager for one simulated process.
#[derive(Debug)]
pub struct SyncManager {
    n_threads: usize,
    barriers: HashMap<u32, BarrierState>,
    locks: HashMap<u32, Option<usize>>,
    /// Barrier releases so far, over every barrier id: the wake-up
    /// signal for cores the simulator has parked at a barrier.
    releases: u64,
    /// Fault injection: drop the next arrival of `(barrier, thread)` —
    /// the thread receives a valid-looking ticket but is never counted,
    /// so the barrier can never release (models a lost arrival bug).
    drop_arrival: Option<(u32, usize)>,
}

impl SyncManager {
    /// Creates a manager for `n_threads` participating threads.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads` is zero.
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads > 0, "need at least one thread");
        Self {
            n_threads,
            barriers: HashMap::new(),
            locks: HashMap::new(),
            releases: 0,
            drop_arrival: None,
        }
    }

    /// Arms the drop-arrival fault: the next time `thread` arrives at
    /// barrier `id`, the arrival is silently lost (deterministic deadlock
    /// injection for the fault-tolerance tests).
    pub fn inject_drop_arrival(&mut self, barrier: u32, thread: usize) {
        self.drop_arrival = Some((barrier, thread));
    }

    /// Registers `thread`'s arrival at barrier `id`. Returns the ticket to
    /// poll with. Arriving twice in the same generation is a workload bug
    /// and panics.
    pub fn arrive(&mut self, id: u32, thread: usize) -> BarrierTicket {
        let n = self.n_threads;
        if self.drop_arrival == Some((id, thread)) {
            // Injected fault: hand out a ticket without counting the
            // arrival. The barrier's generation never advances for it.
            self.drop_arrival = None;
            let generation = self.barriers.entry(id).or_default().generation;
            return BarrierTicket { id, generation };
        }
        let b = self.barriers.entry(id).or_default();
        assert!(
            !b.arrived.contains(&thread),
            "thread {thread} arrived twice at barrier {id}"
        );
        b.arrived.push(thread);
        let ticket = BarrierTicket {
            id,
            generation: b.generation,
        };
        if b.arrived.len() == n {
            b.arrived.clear();
            b.generation += 1;
            self.releases += 1;
        }
        ticket
    }

    /// Whether the barrier a ticket was issued for has released.
    pub fn released(&self, ticket: BarrierTicket) -> bool {
        self.barriers
            .get(&ticket.id)
            .is_none_or(|b| b.generation > ticket.generation)
    }

    /// Barrier releases so far. A change since the last look means some
    /// barrier's generation advanced, so a core waiting on it may now
    /// proceed; lock hand-offs do not count, because a spinner retries
    /// on its own clock.
    pub fn releases(&self) -> u64 {
        self.releases
    }

    /// Attempts to acquire lock `id` for `thread`. Returns `true` on
    /// success (including recursive re-acquire, which panics — workloads
    /// must not do that).
    pub fn try_acquire(&mut self, id: u32, thread: usize) -> bool {
        let slot = self.locks.entry(id).or_default();
        match slot {
            None => {
                *slot = Some(thread);
                true
            }
            Some(holder) => {
                assert!(*holder != thread, "thread {thread} re-acquired lock {id}");
                false
            }
        }
    }

    /// Releases lock `id`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` does not hold the lock.
    pub fn release(&mut self, id: u32, thread: usize) {
        let slot = self.locks.entry(id).or_default();
        assert_eq!(
            *slot,
            Some(thread),
            "thread {thread} released lock {id} it does not hold"
        );
        *slot = None;
    }

    /// Current holder of lock `id`, if it is held.
    pub fn holder(&self, id: u32) -> Option<usize> {
        self.locks.get(&id).copied().flatten()
    }

    /// Number of participating threads.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_releases_when_all_arrive() {
        let mut s = SyncManager::new(3);
        let t0 = s.arrive(7, 0);
        let t1 = s.arrive(7, 1);
        assert!(!s.released(t0));
        assert!(!s.released(t1));
        let t2 = s.arrive(7, 2);
        assert!(s.released(t0));
        assert!(s.released(t1));
        assert!(s.released(t2));
    }

    #[test]
    fn barrier_generations_are_independent() {
        let mut s = SyncManager::new(2);
        let a0 = s.arrive(1, 0);
        let a1 = s.arrive(1, 1);
        assert!(s.released(a0) && s.released(a1));
        // Second use of the same barrier id.
        let b0 = s.arrive(1, 0);
        assert!(!s.released(b0));
        let b1 = s.arrive(1, 1);
        assert!(s.released(b0) && s.released(b1));
    }

    #[test]
    fn release_counter_advances_once_per_release() {
        let mut s = SyncManager::new(2);
        s.arrive(1, 0);
        assert_eq!(s.releases(), 0);
        s.arrive(1, 1);
        assert_eq!(s.releases(), 1);
        s.arrive(2, 0);
        s.arrive(2, 1);
        assert!(s.try_acquire(0, 0));
        s.release(0, 0);
        assert_eq!(s.releases(), 2, "lock traffic is not a release");
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut s = SyncManager::new(2);
        s.arrive(0, 0);
        s.arrive(0, 0);
    }

    #[test]
    fn lock_mutual_exclusion() {
        let mut s = SyncManager::new(2);
        assert!(s.try_acquire(3, 0));
        assert!(!s.try_acquire(3, 1));
        s.release(3, 0);
        assert!(s.try_acquire(3, 1));
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn releasing_unheld_lock_panics() {
        let mut s = SyncManager::new(2);
        s.release(9, 0);
    }

    #[test]
    fn single_thread_barrier_releases_immediately() {
        let mut s = SyncManager::new(1);
        let t = s.arrive(0, 0);
        assert!(s.released(t));
    }
}
