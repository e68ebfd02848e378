//! Core timing model (EV6-class, 4-wide).
//!
//! The model issues up to `issue_width` instructions per cycle with
//! per-class throughput limits, blocking loads (a miss stalls the core
//! until the fill returns — memory-level parallelism is provided by the
//! non-blocking store buffer), a branch-misprediction redirect penalty,
//! and spin-wait loops for barriers and locks that generate real
//! instruction and coherence activity.

use crate::config::CoreConfig;
use crate::error::StuckReason;
use crate::memory::{AccessKind, MemorySystem};
use crate::op::{Op, ThreadProgram};
use crate::stats::{CoreStats, RequestRecord};
use crate::sync::{BarrierTicket, SyncManager};

/// Spinning threads retry the lock (a coherence store) every this many
/// cycles; in between they spin on a locally cached copy.
const LOCK_RETRY_INTERVAL: u64 = 16;

/// Base address of the region where lock words live (one line per lock).
const LOCK_REGION_BASE: u64 = 0xF000_0000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    Ready,
    /// Stalled until an absolute cycle; the flag marks memory stalls.
    StallUntil {
        until: u64,
        memory: bool,
    },
    AtBarrier(BarrierTicket),
    /// Asleep at a barrier (thrifty-barrier extension): no activity until
    /// the barrier releases, then a wake-up penalty applies.
    Asleep(BarrierTicket),
    /// Idle until a scheduled open-loop request arrival (deep
    /// clock-gated: no instructions, no memory or sync traffic).
    IdleUntil {
        until: u64,
    },
    SpinLock {
        id: u32,
        next_retry: u64,
    },
    Done,
}

/// One simulated core bound to a thread program.
pub struct Core {
    id: usize,
    cfg: CoreConfig,
    program: Box<dyn ThreadProgram>,
    state: CoreState,
    /// Remaining instructions of a partially issued compute batch.
    int_backlog: u32,
    fp_backlog: u32,
    /// Completion cycles of in-flight stores.
    store_buffer: Vec<u64>,
    /// Consecutive spin cycles at the current barrier (sleep threshold).
    barrier_spin: u64,
    stats: CoreStats,
    /// The request currently being served: `(id, scheduled arrival)`.
    open_request: Option<(u32, u64)>,
    /// Completed-request records, in completion order.
    records: Vec<RequestRecord>,
    /// Whether the program emitted any request-boundary marker.
    saw_requests: bool,
    /// Injected fault: record every completion this many cycles late.
    completion_skew: Option<u64>,
}

impl Core {
    /// Creates a core running `program`.
    pub fn new(id: usize, cfg: CoreConfig, program: Box<dyn ThreadProgram>) -> Self {
        Self {
            id,
            cfg,
            program,
            state: CoreState::Ready,
            int_backlog: 0,
            fp_backlog: 0,
            store_buffer: Vec::new(),
            barrier_spin: 0,
            stats: CoreStats::default(),
            open_request: None,
            records: Vec::new(),
            saw_requests: false,
            completion_skew: None,
        }
    }

    /// Arms the latency-accounting corruption fault (see
    /// [`SimFaults::skew_request_completion`](crate::config::SimFaults)).
    pub fn set_completion_skew(&mut self, skew: Option<u64>) {
        self.completion_skew = skew;
    }

    /// Whether the thread has finished.
    pub fn done(&self) -> bool {
        self.state == CoreState::Done
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Whether the program emitted any request-boundary marker.
    pub fn saw_requests(&self) -> bool {
        self.saw_requests
    }

    /// Completed-request records, in completion order.
    pub fn request_records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Snapshot of what the core is blocked on right now — the input to
    /// deadlock diagnosis. Spin states are resolved against `sync` so the
    /// report can name the lock holder.
    pub fn blocked_on(&self, sync: &SyncManager) -> StuckReason {
        match self.state {
            CoreState::Ready => StuckReason::Executing,
            CoreState::Done => StuckReason::Finished,
            CoreState::StallUntil { .. } => StuckReason::Stalled,
            CoreState::IdleUntil { .. } => StuckReason::Idle,
            CoreState::AtBarrier(t) => StuckReason::AtBarrier {
                id: t.barrier(),
                generation: t.generation(),
            },
            CoreState::Asleep(t) => StuckReason::AsleepAtBarrier {
                id: t.barrier(),
                generation: t.generation(),
            },
            CoreState::SpinLock { id, .. } => StuckReason::SpinningOnLock {
                id,
                holder: sync.holder(id),
            },
        }
    }

    /// Instructions retired excluding spin-loop filler — the progress
    /// coordinate used by deadlock detection (spinning is activity, not
    /// progress).
    pub fn progress(&self) -> u64 {
        self.stats.instructions - self.stats.spin_instructions
    }

    /// Address of the cache line holding lock `id`'s word.
    fn lock_addr(id: u32) -> u64 {
        LOCK_REGION_BASE + (id as u64) * 128
    }

    /// If the core is in a *pure wait* at cycle `now` — a state whose
    /// [`step`](Core::step) only bumps stat counters until some future
    /// cycle, touching neither memory nor `sync` — returns the first
    /// cycle at which it would do anything else (`u64::MAX` for "never
    /// on its own", e.g. an unreleased barrier). Returns `None` when the
    /// next step must actually act.
    ///
    /// This is the legality test for parking a core in the simulator:
    /// while a core reports `Some(h)`, its steps before `h` are
    /// closed-form per-cycle deltas (see
    /// [`fast_forward`](Core::fast_forward)) that neither read nor write
    /// anything another core can observe. Only a barrier release can end
    /// the wait earlier ([`barrier_released`](Core::barrier_released)).
    pub fn wait_horizon(&self, now: u64, sync: &SyncManager) -> Option<u64> {
        match self.state {
            CoreState::Ready => None,
            CoreState::Done => Some(u64::MAX),
            CoreState::StallUntil { until, .. } => (until > now).then_some(until),
            CoreState::IdleUntil { until } => (until > now).then_some(until),
            CoreState::AtBarrier(ticket) => {
                if sync.released(ticket) {
                    None
                } else if self.cfg.sleep.enabled
                    && self.barrier_spin >= self.cfg.sleep.after_spin_cycles
                {
                    // The next step transitions to Asleep — not a pure
                    // spin cycle, so it must be stepped.
                    None
                } else if self.cfg.sleep.enabled {
                    // Spins until the sleep threshold, then transitions.
                    Some(now.saturating_add(self.cfg.sleep.after_spin_cycles - self.barrier_spin))
                } else {
                    Some(u64::MAX)
                }
            }
            CoreState::Asleep(ticket) => {
                if sync.released(ticket) {
                    None
                } else {
                    Some(u64::MAX)
                }
            }
            CoreState::SpinLock { next_retry, .. } => (now < next_retry).then_some(next_retry),
        }
    }

    /// Whether the core waits at a barrier, spinning or asleep, that has
    /// released: the one external event that cuts a
    /// [`wait_horizon`](Core::wait_horizon) short. A lock spinner needs
    /// no such test, because it retries on its own clock.
    pub fn barrier_released(&self, sync: &SyncManager) -> bool {
        match self.state {
            CoreState::AtBarrier(ticket) | CoreState::Asleep(ticket) => sync.released(ticket),
            _ => false,
        }
    }

    /// Applies `k` cycles' worth of pure-wait stat deltas in closed form
    /// — exactly what `k` consecutive [`step`](Core::step) calls would do
    /// from a state where [`wait_horizon`](Core::wait_horizon) returned
    /// `Some(h)` with `now + k <= h`.
    pub fn fast_forward(&mut self, k: u64) {
        match self.state {
            CoreState::Done => {}
            CoreState::StallUntil { memory, .. } => {
                if memory {
                    self.stats.mem_stall_cycles += k;
                } else {
                    self.stats.other_stall_cycles += k;
                }
            }
            CoreState::IdleUntil { .. } => {
                self.stats.idle_cycles += k;
            }
            CoreState::AtBarrier(_) => {
                self.barrier_spin += k;
                self.stats.spin_cycles += k;
                self.stats.spin_instructions += 2 * k;
                self.stats.instructions += 2 * k;
                self.stats.int_ops += k;
                self.stats.branches += k;
                self.stats.l1i_accesses += k;
            }
            CoreState::Asleep(_) => {
                self.stats.sleep_cycles += k;
            }
            CoreState::SpinLock { .. } => {
                // Local spin on the cached lock word (the between-retries
                // branch of `step`).
                self.stats.spin_cycles += k;
                self.stats.spin_instructions += 2 * k;
                self.stats.instructions += 2 * k;
                self.stats.int_ops += k;
                self.stats.branches += k;
                self.stats.l1i_accesses += k;
            }
            CoreState::Ready => unreachable!("Ready is never a pure wait"),
        }
    }

    /// Advances the core by one cycle.
    pub fn step(&mut self, now: u64, mem: &mut MemorySystem, sync: &mut SyncManager) {
        match self.state {
            CoreState::Done => {}
            CoreState::StallUntil { until, memory } => {
                if now < until {
                    if memory {
                        self.stats.mem_stall_cycles += 1;
                    } else {
                        self.stats.other_stall_cycles += 1;
                    }
                } else {
                    self.state = CoreState::Ready;
                    self.issue(now, mem, sync);
                }
            }
            CoreState::IdleUntil { until } => {
                if now < until {
                    self.stats.idle_cycles += 1;
                } else {
                    self.state = CoreState::Ready;
                    self.issue(now, mem, sync);
                }
            }
            CoreState::AtBarrier(ticket) => {
                if sync.released(ticket) {
                    self.state = CoreState::Ready;
                    self.issue(now, mem, sync);
                } else if self.cfg.sleep.enabled
                    && self.barrier_spin >= self.cfg.sleep.after_spin_cycles
                {
                    // Thrifty barrier: stop spinning, go to sleep.
                    self.state = CoreState::Asleep(ticket);
                    self.stats.sleep_cycles += 1;
                } else {
                    // Spin: test a cached flag (local L1 activity).
                    self.barrier_spin += 1;
                    self.stats.spin_cycles += 1;
                    self.stats.spin_instructions += 2;
                    self.stats.instructions += 2;
                    self.stats.int_ops += 1;
                    self.stats.branches += 1;
                    self.stats.l1i_accesses += 1;
                }
            }
            CoreState::Asleep(ticket) => {
                if sync.released(ticket) {
                    // Wake up: pay the resume penalty, then continue.
                    self.state = CoreState::StallUntil {
                        until: now + self.cfg.sleep.wakeup_penalty,
                        memory: false,
                    };
                } else {
                    self.stats.sleep_cycles += 1;
                }
            }
            CoreState::SpinLock { id, next_retry } => {
                if now >= next_retry {
                    if sync.try_acquire(id, self.id) {
                        // The winning attempt is a coherence write.
                        let done = mem.access(self.id, Self::lock_addr(id), AccessKind::Write, now);
                        self.stats.stores += 1;
                        self.stats.instructions += 1;
                        self.stats.l1i_accesses += 1;
                        self.state = CoreState::StallUntil {
                            until: done,
                            memory: true,
                        };
                        return;
                    }
                    // Failed test-and-set: a read of the lock line.
                    let _ = mem.access(self.id, Self::lock_addr(id), AccessKind::Read, now);
                    self.stats.loads += 1;
                    self.stats.instructions += 1;
                    self.stats.spin_instructions += 1;
                    self.stats.spin_cycles += 1;
                    self.stats.l1i_accesses += 1;
                    self.state = CoreState::SpinLock {
                        id,
                        next_retry: now + LOCK_RETRY_INTERVAL,
                    };
                } else {
                    // Local spin on the cached lock word.
                    self.stats.spin_cycles += 1;
                    self.stats.spin_instructions += 2;
                    self.stats.instructions += 2;
                    self.stats.int_ops += 1;
                    self.stats.branches += 1;
                    self.stats.l1i_accesses += 1;
                }
            }
            CoreState::Ready => self.issue(now, mem, sync),
        }
    }

    /// Issues up to `issue_width` instructions in cycle `now`.
    fn issue(&mut self, now: u64, mem: &mut MemorySystem, sync: &mut SyncManager) {
        let mut budget = self.cfg.issue_width;
        let mut int_slots = self.cfg.int_throughput;
        let mut fp_slots = self.cfg.fp_throughput;
        let mut issued_any = false;

        while budget > 0 {
            // Drain compute backlogs first.
            if self.int_backlog > 0 {
                let k = self.int_backlog.min(budget).min(int_slots);
                if k == 0 {
                    break;
                }
                self.int_backlog -= k;
                budget -= k;
                int_slots -= k;
                self.stats.instructions += k as u64;
                self.stats.int_ops += k as u64;
                issued_any = true;
                continue;
            }
            if self.fp_backlog > 0 {
                let k = self.fp_backlog.min(budget).min(fp_slots);
                if k == 0 {
                    break;
                }
                self.fp_backlog -= k;
                budget -= k;
                fp_slots -= k;
                self.stats.instructions += k as u64;
                self.stats.fp_ops += k as u64;
                issued_any = true;
                continue;
            }

            match self.program.next_op() {
                Op::Int { count } => {
                    self.int_backlog = count;
                    if count == 0 {
                        continue;
                    }
                }
                Op::Fp { count } => {
                    self.fp_backlog = count;
                    if count == 0 {
                        continue;
                    }
                }
                Op::Load { addr } => {
                    let done = mem.access(self.id, addr, AccessKind::Read, now);
                    self.stats.instructions += 1;
                    self.stats.loads += 1;
                    budget -= 1;
                    issued_any = true;
                    if done > now + mem.l1_latency(self.id) {
                        self.state = CoreState::StallUntil {
                            until: done,
                            memory: true,
                        };
                        break;
                    }
                }
                Op::Store { addr } => {
                    // Retire completed stores.
                    self.store_buffer.retain(|&t| t > now);
                    if self.store_buffer.len() >= self.cfg.store_buffer {
                        let earliest = self
                            .store_buffer
                            .iter()
                            .copied()
                            .min()
                            .expect("buffer is full, hence non-empty");
                        // Re-issue the store next time: push the op back by
                        // stalling and re-consuming it is not possible with
                        // a pull-based program, so perform the access now
                        // and model the stall as buffer pressure.
                        let done = mem.access(self.id, addr, AccessKind::Write, now);
                        self.store_buffer.push(done);
                        self.stats.instructions += 1;
                        self.stats.stores += 1;
                        self.state = CoreState::StallUntil {
                            until: earliest.max(now + 1),
                            memory: true,
                        };
                        issued_any = true;
                        break;
                    }
                    let done = mem.access(self.id, addr, AccessKind::Write, now);
                    self.store_buffer.push(done);
                    self.stats.instructions += 1;
                    self.stats.stores += 1;
                    budget -= 1;
                    issued_any = true;
                }
                Op::Branch { mispredict } => {
                    self.stats.instructions += 1;
                    self.stats.branches += 1;
                    budget -= 1;
                    issued_any = true;
                    if mispredict {
                        self.stats.mispredicts += 1;
                        self.state = CoreState::StallUntil {
                            until: now + self.cfg.mispredict_penalty,
                            memory: false,
                        };
                        break;
                    }
                }
                Op::Barrier { id } => {
                    self.stats.instructions += 1;
                    issued_any = true;
                    let ticket = sync.arrive(id, self.id);
                    if !sync.released(ticket) {
                        self.barrier_spin = 0;
                        self.state = CoreState::AtBarrier(ticket);
                    }
                    break;
                }
                Op::Lock { id } => {
                    self.stats.instructions += 1;
                    issued_any = true;
                    if sync.try_acquire(id, self.id) {
                        let done = mem.access(self.id, Self::lock_addr(id), AccessKind::Write, now);
                        self.stats.stores += 1;
                        if done > now + mem.l1_latency(self.id) {
                            self.state = CoreState::StallUntil {
                                until: done,
                                memory: true,
                            };
                            break;
                        }
                        budget = budget.saturating_sub(1);
                    } else {
                        self.state = CoreState::SpinLock {
                            id,
                            next_retry: now + LOCK_RETRY_INTERVAL,
                        };
                        break;
                    }
                }
                Op::Unlock { id } => {
                    self.stats.instructions += 1;
                    self.stats.stores += 1;
                    issued_any = true;
                    sync.release(id, self.id);
                    let _ = mem.access(self.id, Self::lock_addr(id), AccessKind::Write, now);
                    budget = budget.saturating_sub(1);
                }
                Op::RequestArrive { id, at } => {
                    // Measurement marker, zero instructions. Latency is
                    // charged from the *scheduled* arrival `at`: if the
                    // core is behind (`at <= now`) the request has been
                    // queuing and starts immediately; otherwise the core
                    // idles until the arrival.
                    debug_assert!(
                        self.open_request.is_none(),
                        "nested request markers on core {}",
                        self.id
                    );
                    self.saw_requests = true;
                    self.open_request = Some((id, at));
                    if at > now {
                        self.state = CoreState::IdleUntil { until: at };
                        break;
                    }
                }
                Op::RequestRetire { id } => {
                    // Close the open record; zero instructions, no cycle
                    // consumed — the next op issues in the same cycle.
                    let (open_id, arrival) = self
                        .open_request
                        .take()
                        .expect("RequestRetire without an open request");
                    debug_assert_eq!(open_id, id, "request marker ids mismatch");
                    let completion = now + self.completion_skew.unwrap_or(0);
                    self.records.push(RequestRecord {
                        core: self.id,
                        id: open_id,
                        arrival,
                        completion,
                    });
                }
                Op::End => {
                    self.state = CoreState::Done;
                    self.stats.finish_cycle = now;
                    break;
                }
            }
        }

        if issued_any {
            self.stats.active_cycles += 1;
            self.stats.l1i_accesses += 1;
        } else if self.state == CoreState::Ready {
            // Structural stall (e.g. fp throughput exhausted with backlog).
            self.stats.other_stall_cycles += 1;
        } else if matches!(self.state, CoreState::IdleUntil { .. }) {
            // Went idle without issuing anything: the whole cycle was
            // request-wait.
            self.stats.idle_cycles += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CmpConfig;
    use crate::op::ScriptedProgram;

    fn rig(ops: Vec<Op>) -> (Core, MemorySystem, SyncManager) {
        let cfg = CmpConfig::ispass05(2);
        let core = Core::new(0, cfg.core, Box::new(ScriptedProgram::new(ops)));
        let mem = MemorySystem::new(&cfg, 2);
        let sync = SyncManager::new(1);
        (core, mem, sync)
    }

    fn run(core: &mut Core, mem: &mut MemorySystem, sync: &mut SyncManager, max: u64) -> u64 {
        let mut cycle = 0;
        while !core.done() {
            core.step(cycle, mem, sync);
            cycle += 1;
            assert!(cycle < max, "core did not finish within {max} cycles");
        }
        cycle
    }

    #[test]
    fn int_batch_issues_at_full_width() {
        let (mut core, mut mem, mut sync) = rig(vec![Op::Int { count: 40 }]);
        let cycles = run(&mut core, &mut mem, &mut sync, 100);
        // 40 instructions at 4-wide = 10 cycles (+1 to consume End).
        assert!(cycles <= 12, "took {cycles} cycles");
        assert_eq!(core.stats().instructions, 40);
        assert_eq!(core.stats().int_ops, 40);
    }

    #[test]
    fn fp_throughput_is_half() {
        let (mut core, mut mem, mut sync) = rig(vec![Op::Fp { count: 40 }]);
        let cycles = run(&mut core, &mut mem, &mut sync, 100);
        // 40 fp ops at 2 per cycle = 20 cycles.
        assert!((20..=23).contains(&cycles), "took {cycles} cycles");
    }

    #[test]
    fn load_miss_stalls_for_memory() {
        let (mut core, mut mem, mut sync) = rig(vec![Op::Load { addr: 0x1000 }]);
        let cycles = run(&mut core, &mut mem, &mut sync, 2000);
        // A cold miss costs bus + L2 + 240-cycle memory.
        assert!(cycles > 240, "took only {cycles} cycles");
        assert!(core.stats().mem_stall_cycles > 200);
    }

    #[test]
    fn load_hit_does_not_stall() {
        let (mut core, mut mem, mut sync) = rig(vec![
            Op::Load { addr: 0x40 },
            Op::Load { addr: 0x48 }, // same line: hit
            Op::Load { addr: 0x50 },
        ]);
        let cycles = run(&mut core, &mut mem, &mut sync, 2000);
        assert_eq!(mem.l1d_stats(0).hits, 2);
        // Only the first access pays the memory penalty.
        assert!(cycles < 400, "took {cycles}");
    }

    #[test]
    fn mispredict_charges_penalty() {
        let (mut core, mut mem, mut sync) =
            rig(vec![Op::Branch { mispredict: true }, Op::Int { count: 1 }]);
        let cycles = run(&mut core, &mut mem, &mut sync, 100);
        assert!(cycles >= 7, "penalty not charged: {cycles}");
        assert_eq!(core.stats().mispredicts, 1);
        assert!(core.stats().other_stall_cycles >= 6);
    }

    #[test]
    fn stores_overlap_through_buffer() {
        // 8 stores to distinct cold lines: with an 8-entry buffer they all
        // issue without stalling the core for the full memory latency each.
        let ops: Vec<Op> = (0..8)
            .map(|i| Op::Store {
                addr: 0x10_000 + i * 64,
            })
            .collect();
        let (mut core, mut mem, mut sync) = rig(ops);
        let cycles = run(&mut core, &mut mem, &mut sync, 4000);
        // Serialized misses would cost ~8 × 256; overlapping keeps it low
        // (bounded by bus serialization, not full round trips).
        assert!(cycles < 1200, "stores did not overlap: {cycles} cycles");
        assert_eq!(core.stats().stores, 8);
    }

    #[test]
    fn store_buffer_pressure_stalls() {
        // 20 store misses to distinct lines exceed the 8-entry buffer.
        let ops: Vec<Op> = (0..20)
            .map(|i| Op::Store {
                addr: 0x20_000 + i * 64,
            })
            .collect();
        let (mut core, mut mem, mut sync) = rig(ops);
        run(&mut core, &mut mem, &mut sync, 20_000);
        assert!(core.stats().mem_stall_cycles > 0, "no buffer pressure seen");
    }

    #[test]
    fn barrier_with_self_only_does_not_block() {
        let (mut core, mut mem, mut sync) = rig(vec![Op::Barrier { id: 0 }, Op::Int { count: 4 }]);
        let cycles = run(&mut core, &mut mem, &mut sync, 100);
        assert!(cycles < 10);
    }

    #[test]
    fn lock_unlock_uncontended() {
        let (mut core, mut mem, mut sync) = rig(vec![
            Op::Lock { id: 1 },
            Op::Int { count: 8 },
            Op::Unlock { id: 1 },
        ]);
        run(&mut core, &mut mem, &mut sync, 2000);
        assert_eq!(core.stats().stores, 2); // acquire + release writes
    }

    #[test]
    fn thrifty_barrier_sleeps_instead_of_spinning() {
        use crate::config::SleepPolicy;
        use crate::op::ScriptedProgram;
        let cfg = CmpConfig::ispass05(2);
        let mut sleepy_cfg = cfg.core;
        sleepy_cfg.sleep = SleepPolicy {
            enabled: true,
            after_spin_cycles: 50,
            wakeup_penalty: 20,
        };
        // Core 0 waits at a 2-thread barrier that core 1 reaches late.
        let mut waiter = Core::new(
            0,
            sleepy_cfg,
            Box::new(ScriptedProgram::new(vec![Op::Barrier { id: 0 }])),
        );
        let mut late = Core::new(
            1,
            cfg.core,
            Box::new(ScriptedProgram::new(vec![
                Op::Int { count: 40_000 },
                Op::Barrier { id: 0 },
            ])),
        );
        let mut mem = MemorySystem::new(&cfg, 2);
        let mut sync = SyncManager::new(2);
        let mut cycle = 0;
        while !(waiter.done() && late.done()) {
            waiter.step(cycle, &mut mem, &mut sync);
            late.step(cycle, &mut mem, &mut sync);
            cycle += 1;
            assert!(cycle < 100_000);
        }
        // The waiter spun only up to the threshold, then slept.
        assert!(
            waiter.stats().spin_cycles <= 55,
            "spin {}",
            waiter.stats().spin_cycles
        );
        assert!(
            waiter.stats().sleep_cycles > 5_000,
            "sleep {}",
            waiter.stats().sleep_cycles
        );
        // The wake-up penalty was charged.
        assert!(waiter.stats().other_stall_cycles >= 19);
    }

    #[test]
    fn disabled_sleep_policy_spins_forever() {
        let (mut core, mut mem, mut sync) = rig(vec![Op::Barrier { id: 0 }]);
        // rig() uses a 1-thread sync manager, so the barrier releases at
        // once; instead check the default policy's constants.
        run(&mut core, &mut mem, &mut sync, 100);
        assert_eq!(core.stats().sleep_cycles, 0);
    }

    #[test]
    fn fast_forward_matches_stepping_through_a_pure_wait() {
        // A core spinning at a 2-thread barrier nobody else reaches is a
        // pure wait: batching k cycles must equal k single steps.
        let cfg = CmpConfig::ispass05(2);
        let mk = || {
            let mut c = Core::new(
                0,
                cfg.core,
                Box::new(ScriptedProgram::new(vec![Op::Barrier { id: 0 }])),
            );
            let mut mem = MemorySystem::new(&cfg, 2);
            let mut sync = SyncManager::new(2);
            c.step(0, &mut mem, &mut sync); // arrive; now AtBarrier
            (c, mem, sync)
        };
        let (mut stepped, mut mem, mut sync) = mk();
        for now in 1..=1000 {
            assert!(stepped.wait_horizon(now, &sync).is_some());
            stepped.step(now, &mut mem, &mut sync);
        }
        let (mut batched, _mem2, sync2) = mk();
        assert_eq!(batched.wait_horizon(1, &sync2), Some(u64::MAX));
        batched.fast_forward(1000);
        assert_eq!(
            format!("{:?}", stepped.stats()),
            format!("{:?}", batched.stats())
        );
        assert_eq!(stepped.barrier_spin, batched.barrier_spin);
    }

    #[test]
    fn wait_horizon_classifies_states() {
        // Ready must act.
        let (core, _mem, sync) = rig(vec![Op::Int { count: 4 }]);
        assert_eq!(core.wait_horizon(0, &sync), None);
        // A memory stall reports its deadline, then expires.
        let (mut core, mut mem, mut sync) = rig(vec![Op::Load { addr: 0x9000 }]);
        core.step(0, &mut mem, &mut sync);
        let h = core.wait_horizon(1, &sync).expect("stalled is a pure wait");
        assert!(h > 1 && h < u64::MAX);
        assert_eq!(core.wait_horizon(h, &sync), None, "deadline reached");
        // Done never needs stepping.
        let (mut core, mut mem, mut sync) = rig(vec![]);
        core.step(0, &mut mem, &mut sync);
        assert!(core.done());
        assert_eq!(core.wait_horizon(5, &sync), Some(u64::MAX));
    }

    #[test]
    fn active_cycles_counted() {
        let (mut core, mut mem, mut sync) = rig(vec![Op::Int { count: 12 }]);
        run(&mut core, &mut mem, &mut sync, 100);
        assert_eq!(core.stats().active_cycles, 3);
        assert_eq!(core.stats().l1i_accesses, 3);
    }
}
