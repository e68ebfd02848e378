//! Top-level CMP simulator.
//!
//! Every chip is built by one constructor body,
//! [`CmpSimulator::from_spec`]: per-class cores and L1Ds, and a clock
//! ratio for every core. [`CmpSimulator::new`] simulates a [`CmpConfig`]
//! as the one-class spec it describes; a base-domain core ticks on every
//! base cycle without touching the phase arithmetic.

use crate::config::CmpConfig;
use crate::core::Core;
use crate::error::{CoreStuck, DeadlockInfo, SimError};
use crate::memory::MemorySystem;
use crate::op::ThreadProgram;
use crate::spec::ChipSpec;
use crate::stats::{CoreStats, SimResult};
use crate::sync::SyncManager;

/// Safety limit: a run that exceeds this many cycles without the caller
/// choosing a budget is treated as hung (a workload or synchronization bug
/// rather than a long workload).
pub const MAX_CYCLES: u64 = 50_000_000_000;

/// How often the run loop checks for deadlock. Much longer than any
/// bounded stall (the worst memory round trip is a few hundred cycles),
/// so a no-progress interval with every live core in an unbounded wait is
/// conclusive.
const DEADLOCK_CHECK_INTERVAL: u64 = 16_384;

/// One sampling window of a [`CmpSimulator::run_sampled`] run: per-core
/// activity *deltas* over `[start_cycle, end_cycle)`.
#[derive(Debug, Clone)]
pub struct SampleWindow {
    /// First cycle of the window.
    pub start_cycle: u64,
    /// One past the last cycle of the window.
    pub end_cycle: u64,
    /// Per-core counter deltas accumulated during the window.
    pub cores: Vec<CoreStats>,
}

/// A configured chip ready to run one parallel program.
///
/// # Examples
///
/// ```
/// use tlp_sim::{CmpConfig, CmpSimulator};
/// use tlp_sim::op::{Op, ScriptedProgram};
///
/// let cfg = CmpConfig::ispass05(4);
/// let threads: Vec<_> = (0..2)
///     .map(|t| {
///         let prog = ScriptedProgram::new(vec![
///             Op::Int { count: 100 },
///             Op::Barrier { id: 0 },
///             Op::Load { addr: 0x1000 + t * 64 },
///         ]);
///         Box::new(prog) as Box<dyn tlp_sim::op::ThreadProgram>
///     })
///     .collect();
/// let result = CmpSimulator::new(cfg, threads).run();
/// assert_eq!(result.n_threads, 2);
/// assert!(result.cycles > 0);
/// ```
pub struct CmpSimulator {
    config: CmpConfig,
    cores: Vec<Core>,
    memory: MemorySystem,
    sync: SyncManager,
    /// Parking of cores in a pure wait (on by default); off, every live
    /// core is stepped every cycle of its clock domain.
    fast_forward: bool,
    /// Per-core clock-domain ratios `(num, den)` relative to the base
    /// domain: core `i` is stepped on base cycle `c` iff
    /// `⌊(c+1)·num/den⌋ > ⌊c·num/den⌋` (an integer phase accumulator).
    /// A base-domain core (`num == den`) ticks on every cycle.
    domains: Vec<(u32, u32)>,
}

/// Domain ticks elapsed in `[0, cycle)` base cycles for ratio `num/den`.
fn phase_ticks(cycle: u64, num: u32, den: u32) -> u64 {
    ((u128::from(cycle) * u128::from(num)) / u128::from(den)) as u64
}

/// Domain ticks of ratio `num/den` in base cycles `[from, to)`; the
/// base domain skips the phase arithmetic.
fn ticks_between(from: u64, to: u64, (num, den): (u32, u32)) -> u64 {
    if num == den {
        to - from
    } else {
        phase_ticks(to, num, den) - phase_ticks(from, num, den)
    }
}

/// Per-core parking state of one run.
///
/// After each step, a core whose [`Core::wait_horizon`] lies in the
/// future is *parked*: the loop skips it until that cycle, or until a
/// barrier release it may be waiting on, at the cost of one comparison
/// per cycle. Its counters are caught up through [`Core::fast_forward`]
/// when it wakes, and at every point where the loop reads core state
/// (deadlock check, budget snapshot, sample window). A lock spinner
/// needs no wake-up hook: its next retry is its horizon.
struct Parking {
    slots: Vec<Slot>,
    /// Live cores currently parked.
    parked: usize,
    /// `SyncManager::releases` as of the last wake-up scan.
    releases: u64,
    /// Core cycles applied at catch-up (`sim.core_cycles_parked`).
    caught_up: u64,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// First cycle the loop visits the core again: 0 while it acts,
    /// its wait horizon while parked, `u64::MAX` once it is done.
    wake: u64,
    /// While parked: the first cycle its counters do not yet cover.
    from: Option<u64>,
}

impl Parking {
    fn new(n: usize, releases: u64) -> Self {
        let active = Slot {
            wake: 0,
            from: None,
        };
        Self {
            slots: vec![active; n],
            parked: 0,
            releases,
            caught_up: 0,
        }
    }

    fn park(&mut self, i: usize, from: u64, wake: u64) {
        self.slots[i] = Slot {
            wake,
            from: Some(from),
        };
        self.parked += 1;
    }

    /// The cycle to jump to when all `remaining` live cores are parked
    /// and none wakes before `cycle`: the earliest wake-up, clamped to
    /// `boundary()`. `None` when some core must be visited at `cycle`.
    fn all_parked_until(
        &self,
        remaining: usize,
        cycle: u64,
        boundary: impl FnOnce() -> u64,
    ) -> Option<u64> {
        if self.parked < remaining {
            return None;
        }
        let wake = self.slots.iter().map(|s| s.wake).min().unwrap_or(u64::MAX);
        let target = wake.min(boundary());
        (target > cycle).then_some(target)
    }

    /// Wakes every parked core whose barrier has released: it is visited
    /// from `cycle` on, which is this cycle for a core later in the
    /// rotation and the next one for a core already passed.
    fn wake_released(&mut self, cores: &[Core], sync: &SyncManager, cycle: u64) {
        self.releases = sync.releases();
        for (slot, core) in self.slots.iter_mut().zip(cores) {
            if slot.from.is_some() && core.barrier_released(sync) {
                slot.wake = slot.wake.min(cycle);
            }
        }
    }

    /// Applies a parked core's steps in `[from, to)`: the ticks of its
    /// clock domain `domain`.
    fn catch_up(&mut self, core: &mut Core, from: u64, to: u64, domain: (u32, u32)) {
        let k = ticks_between(from, to, domain);
        core.fast_forward(k);
        self.caught_up += k;
    }

    /// Brings every parked core's counters up to `cycle`; they stay
    /// parked.
    fn catch_up_all(&mut self, cores: &mut [Core], cycle: u64, domains: &[(u32, u32)]) {
        for (i, core) in cores.iter_mut().enumerate() {
            if let Some(from) = self.slots[i].from {
                self.catch_up(core, from, cycle, domains[i]);
                self.slots[i].from = Some(cycle);
            }
        }
    }
}

impl CmpSimulator {
    /// Builds a simulator running one thread per program on the first
    /// `programs.len()` cores of a one-class chip; remaining cores are
    /// shut down (as in the paper, unused cores are powered off). The
    /// same simulator as [`CmpSimulator::from_spec`] on
    /// [`ChipSpec::from_config`].
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty or larger than the configured core
    /// count.
    pub fn new(config: CmpConfig, programs: Vec<Box<dyn ThreadProgram>>) -> Self {
        Self::from_spec(&ChipSpec::from_config(&config), programs)
    }

    /// Builds a simulator for a [`ChipSpec`]: per-class cores and L1Ds
    /// plus per-core clock-domain gating. Threads fill cores in
    /// core-index order, so class 0's cores are occupied first; unused
    /// cores are shut down.
    ///
    /// Domain-tick latencies (L1 hit, mispredict penalty, sleep wakeup)
    /// are converted to base cycles here, once, via
    /// [`CoreClass::base_cycles`](crate::spec::CoreClass::base_cycles);
    /// the run loop itself only ever sees base cycles.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty or larger than the spec's core
    /// count.
    pub fn from_spec(spec: &ChipSpec, programs: Vec<Box<dyn ThreadProgram>>) -> Self {
        let n = programs.len();
        assert!(
            n >= 1 && n <= spec.n_cores(),
            "thread count {n} outside 1..={}",
            spec.n_cores()
        );
        let classes: Vec<_> = (0..n).map(|i| &spec.classes[spec.class_of(i)]).collect();
        let base = spec.base_config();
        let l1d = classes
            .iter()
            .map(|class| (class.l1d, class.base_cycles(class.l1d.latency_cycles)))
            .collect();
        let memory = MemorySystem::heterogeneous(&base, l1d);
        let mut sync = SyncManager::new(n);
        if let Some((barrier, core)) = spec.faults.drop_barrier_arrival {
            sync.inject_drop_arrival(barrier, core);
        }
        // The spin→sleep countdown is the one wait horizon measured in
        // domain ticks rather than absolute base cycles, so fast-forward
        // is only safe when no gated class can sleep at a barrier.
        let gated_sleeper = classes
            .iter()
            .any(|class| class.core.sleep.enabled && !class.base_domain());
        let cores = programs
            .into_iter()
            .zip(&classes)
            .enumerate()
            .map(|(id, (p, class))| {
                let mut cfg = class.core;
                cfg.mispredict_penalty = class.base_cycles(cfg.mispredict_penalty);
                if cfg.sleep.enabled {
                    cfg.sleep.wakeup_penalty = class.base_cycles(cfg.sleep.wakeup_penalty);
                }
                let mut core = Core::new(id, cfg, p);
                core.set_completion_skew(spec.faults.skew_request_completion);
                core
            })
            .collect();
        let domains = classes.iter().map(|class| class.clock).collect();
        Self {
            config: base,
            cores,
            memory,
            sync,
            fast_forward: !gated_sleeper,
            domains,
        }
    }

    /// Whether base cycle `cycle` is a tick of core `i`'s clock domain.
    fn domain_ticks(&self, i: usize, cycle: u64) -> bool {
        let (num, den) = self.domains[i];
        num == den || phase_ticks(cycle + 1, num, den) > phase_ticks(cycle, num, den)
    }

    /// Enables or disables core parking: a core in a pure wait (stalls,
    /// spin loops between retries, sleep) is skipped until its wait ends
    /// and its counters are caught up in closed form, and when every
    /// live core is parked the clock jumps to the earliest wake-up. On
    /// by default; results are identical either way — the stepped loop
    /// is kept as the reference the `fast-forward-identity` oracle in
    /// `tlp-check` compares against.
    pub fn with_fast_forward(mut self, enabled: bool) -> Self {
        self.fast_forward = enabled;
        self
    }

    /// Runs the program to completion and returns the collected
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if the run deadlocks or exceeds the internal cycle safety
    /// limit. Supervised callers should use [`CmpSimulator::try_run`],
    /// which diagnoses those conditions instead.
    pub fn run(self) -> SimResult {
        match self.try_run(MAX_CYCLES) {
            Ok(r) => r,
            Err(e) => panic!("simulation failed: {e}"),
        }
    }

    /// Like [`CmpSimulator::run`], but additionally snapshots per-core
    /// activity deltas every `window` cycles — the input to transient
    /// power/thermal analysis. The final partial window is included.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero, or the run deadlocks or exceeds the
    /// cycle safety limit (use [`CmpSimulator::try_run_sampled`] to
    /// handle those as errors).
    pub fn run_sampled(self, window: u64) -> (SimResult, Vec<SampleWindow>) {
        match self.try_run_sampled(window, MAX_CYCLES) {
            Ok(r) => r,
            Err(e) => panic!("simulation failed: {e}"),
        }
    }

    /// Runs the program to completion within `cycle_budget` cycles,
    /// diagnosing a hang instead of panicking: a run where every live
    /// core sits in an unbounded wait with no program progress is
    /// reported as [`SimError::Deadlock`] with per-core stuck-state; a
    /// run that is still advancing when the budget expires is
    /// [`SimError::CycleBudgetExhausted`].
    pub fn try_run(self, cycle_budget: u64) -> Result<SimResult, SimError> {
        self.try_run_sampled(u64::MAX, cycle_budget).map(|(r, _)| r)
    }

    /// Fallible variant of [`CmpSimulator::run_sampled`] with a cycle
    /// budget; see [`CmpSimulator::try_run`] for the failure modes.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (an API misuse, not a runtime fault).
    pub fn try_run_sampled(
        mut self,
        window: u64,
        cycle_budget: u64,
    ) -> Result<(SimResult, Vec<SampleWindow>), SimError> {
        assert!(window > 0, "window must be positive");
        let _span = tlp_obs::span("sim.run");
        let budget = self.config.faults.cycle_budget.unwrap_or(cycle_budget);
        let n = self.cores.len();
        let mut cycle: u64 = 0;
        let mut remaining = n;
        let mut windows = Vec::new();
        let mut prev: Vec<_> = self.cores.iter().map(|c| *c.stats()).collect();
        let mut window_start = 0u64;
        // Deadlock bookkeeping: per-core (progress counter, cycle at which
        // it last changed), refreshed every DEADLOCK_CHECK_INTERVAL.
        let mut last_progress: Vec<(u64, u64)> =
            self.cores.iter().map(|c| (c.progress(), 0)).collect();
        let mut next_check = DEADLOCK_CHECK_INTERVAL;
        let mut ff_cycles: u64 = 0;
        let mut parking = Parking::new(n, self.sync.releases());
        while remaining > 0 {
            if self.config.faults.hang {
                // Injected hang. Supervised (a cancellation deadline is
                // installed): stop advancing simulated time and spin
                // until the deadline passes — the deterministic stand-in
                // for a run that would never finish. Unsupervised: honor
                // the caller's cycle budget instead of spinning the host
                // CPU forever — jump simulated time to the budget and let
                // the shared exhaustion check below report it.
                if tlp_obs::cancel::armed() {
                    if tlp_obs::cancel::cancelled() {
                        return Err(SimError::DeadlineExceeded { cycle });
                    }
                    std::thread::yield_now();
                    continue;
                }
                cycle = budget.max(cycle.saturating_add(1));
            } else if let Some(target) = parking.all_parked_until(remaining, cycle, || {
                next_check
                    .min(budget)
                    .min(window_start.saturating_add(window))
            }) {
                // Every live core is parked, so no core acts before the
                // earliest wake-up: jump the clock there. The target is
                // clamped to every boundary the stepped loop inspects,
                // so the checks below fire at exactly the same cycles
                // either way; parked counters catch up lazily.
                ff_cycles += target - cycle;
                cycle = target;
            } else {
                // Rotate the service order so no core gets structural bus
                // priority.
                let start = (cycle as usize) % n;
                for k in 0..n {
                    let i = (start + k) % n;
                    if cycle < parking.slots[i].wake || !self.domain_ticks(i, cycle) {
                        continue;
                    }
                    if let Some(from) = parking.slots[i].from.take() {
                        parking.parked -= 1;
                        parking.catch_up(&mut self.cores[i], from, cycle, self.domains[i]);
                    }
                    self.cores[i].step(cycle, &mut self.memory, &mut self.sync);
                    if parking.parked > 0 && self.sync.releases() != parking.releases {
                        parking.wake_released(&self.cores, &self.sync, cycle);
                    }
                    let core = &self.cores[i];
                    if core.done() {
                        parking.slots[i].wake = u64::MAX;
                        remaining -= 1;
                    } else if self.fast_forward {
                        if let Some(horizon) = core.wait_horizon(cycle + 1, &self.sync) {
                            parking.park(i, cycle + 1, horizon);
                        }
                    }
                }
                cycle += 1;
            }
            if cycle >= next_check {
                next_check = cycle.saturating_add(DEADLOCK_CHECK_INTERVAL);
                // Deadline poll, piggybacked on the deadlock stride so
                // the steady-state cost is one thread-local read (plus a
                // clock read under a deadline) per 16 Ki simulated cycles.
                if tlp_obs::cancel::cancelled() {
                    return Err(SimError::DeadlineExceeded { cycle });
                }
                parking.catch_up_all(&mut self.cores, cycle, &self.domains);
                let mut any_advanced = false;
                for (core, slot) in self.cores.iter().zip(&mut last_progress) {
                    let p = core.progress();
                    if p != slot.0 {
                        *slot = (p, cycle);
                        any_advanced = true;
                    }
                }
                let all_waiting = self
                    .cores
                    .iter()
                    .filter(|c| !c.done())
                    .all(|c| c.blocked_on(&self.sync).is_unbounded_wait());
                if !any_advanced && all_waiting && remaining > 0 {
                    return Err(SimError::Deadlock(self.diagnose(cycle, &last_progress)));
                }
            }
            if cycle >= budget && remaining > 0 {
                parking.catch_up_all(&mut self.cores, cycle, &self.domains);
                let stuck = self.snapshot(cycle, &last_progress);
                let all_waiting = stuck
                    .iter()
                    .filter(|c| c.reason != crate::error::StuckReason::Finished)
                    .all(|c| c.reason.is_unbounded_wait());
                return Err(if all_waiting {
                    SimError::Deadlock(DeadlockInfo {
                        cycle,
                        cores: stuck,
                    })
                } else {
                    SimError::CycleBudgetExhausted {
                        budget,
                        retired_instructions: self
                            .cores
                            .iter()
                            .map(|c| c.stats().instructions)
                            .sum(),
                        cores: stuck,
                    }
                });
            }
            // `>=` rather than `==`: the boundary can only be hit exactly
            // (the all-parked jump clamps to it, stepping advances by 1),
            // but an overshoot bug here would silently merge windows
            // forever.
            if cycle - window_start >= window || (remaining == 0 && cycle > window_start) {
                parking.catch_up_all(&mut self.cores, cycle, &self.domains);
                let snapshot: Vec<_> = self.cores.iter().map(|c| *c.stats()).collect();
                windows.push(SampleWindow {
                    start_cycle: window_start,
                    end_cycle: cycle,
                    cores: snapshot
                        .iter()
                        .zip(&prev)
                        .map(|(now, before)| now.delta(before))
                        .collect(),
                });
                prev = snapshot;
                window_start = cycle;
            }
        }
        // A parked core is live, so a finished run has none left.
        debug_assert_eq!(parking.parked, 0);

        // Request records in core-index order (each core's records are
        // already in completion order) — deterministic for a fixed seed.
        let requests = if self.cores.iter().any(|c| c.saw_requests()) {
            crate::stats::RequestStats::from_records(
                self.cores
                    .iter()
                    .flat_map(|c| c.request_records().iter().copied())
                    .collect(),
            )
        } else {
            None
        };
        let result = SimResult {
            cycles: cycle,
            frequency: self.config.frequency(),
            n_threads: n,
            cores: self.cores.iter().map(|c| *c.stats()).collect(),
            l1d: (0..n).map(|i| *self.memory.l1d_stats(i)).collect(),
            l2: *self.memory.l2_stats(),
            mem: *self.memory.stats(),
            requests,
        };
        if tlp_obs::enabled() {
            use tlp_obs::metrics;
            metrics::SIM_RUNS.incr();
            metrics::SIM_CYCLES_RETIRED.add(result.cycles);
            metrics::SIM_CYCLES_FAST_FORWARDED.add(ff_cycles);
            metrics::SIM_CORE_CYCLES_PARKED.add(parking.caught_up);
            metrics::SIM_SNOOPS_CHARGED.add(result.mem.snoop_probes + result.mem.snoops_filtered);
            metrics::SIM_SNOOP_TAG_LOOKUPS.add(self.memory.snoop_tag_lookups());
            metrics::HIST_SIM_RUN_CYCLES.record(result.cycles);
            let mut instructions = 0u64;
            let mut stall = 0u64;
            for c in &result.cores {
                instructions += c.instructions;
                stall += c.spin_cycles + c.sleep_cycles;
            }
            metrics::SIM_INSTRUCTIONS.add(instructions);
            metrics::SIM_BARRIER_STALL_CYCLES.add(stall);
            let misses = result.l1d.iter().map(|c| c.misses).sum::<u64>() + result.l2.misses;
            metrics::SIM_CACHE_MISSES.add(misses);
            if let Some(req) = &result.requests {
                metrics::SIM_REQUESTS_COMPLETED.add(req.completed);
                for r in &req.records {
                    metrics::HIST_REQUEST_LATENCY.record(r.latency_cycles());
                }
            }
        }
        Ok((result, windows))
    }

    /// Per-core stuck snapshot for error reports.
    fn snapshot(&self, cycle: u64, last_progress: &[(u64, u64)]) -> Vec<CoreStuck> {
        self.cores
            .iter()
            .enumerate()
            .zip(last_progress)
            .map(|((id, c), &(progress, at))| {
                // A core that advanced since the last check window has
                // effectively zero staleness.
                let since = if c.progress() != progress {
                    0
                } else {
                    cycle - at
                };
                CoreStuck {
                    core: id,
                    reason: c.blocked_on(&self.sync),
                    retired_instructions: c.stats().instructions,
                    cycles_since_progress: since,
                }
            })
            .collect()
    }

    fn diagnose(&self, cycle: u64, last_progress: &[(u64, u64)]) -> DeadlockInfo {
        DeadlockInfo {
            cycle,
            cores: self.snapshot(cycle, last_progress),
        }
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &CmpConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Op, ScriptedProgram};
    use tlp_tech::units::Volts;
    use tlp_tech::OperatingPoint;

    fn boxed(ops: Vec<Op>) -> Box<dyn ThreadProgram> {
        Box::new(ScriptedProgram::new(ops))
    }

    #[test]
    fn single_thread_compute_run() {
        let cfg = CmpConfig::ispass05(4);
        let r = CmpSimulator::new(cfg, vec![boxed(vec![Op::Int { count: 4000 }])]).run();
        assert_eq!(r.total_instructions(), 4000);
        // 4-wide: about 1000 cycles.
        assert!(r.cycles >= 1000 && r.cycles < 1100, "{} cycles", r.cycles);
        assert!((r.ipc() - 4.0).abs() < 0.2);
    }

    #[test]
    fn two_threads_split_work_speed_up() {
        let work = |t: u64| {
            boxed(vec![
                Op::Int { count: 50_000 },
                Op::Load {
                    addr: 0x100_000 + t * 4096,
                },
                Op::Barrier { id: 0 },
            ])
        };
        let one = CmpSimulator::new(
            CmpConfig::ispass05(4),
            vec![boxed(vec![
                Op::Int { count: 100_000 },
                Op::Load { addr: 0x100_000 },
                Op::Barrier { id: 0 },
            ])],
        )
        .run();
        let two = CmpSimulator::new(CmpConfig::ispass05(4), vec![work(0), work(1)]).run();
        let speedup = two.speedup_over(&one);
        assert!(speedup > 1.7 && speedup < 2.1, "2-thread speedup {speedup}");
    }

    #[test]
    fn barrier_synchronizes_unbalanced_threads() {
        let fast = boxed(vec![Op::Int { count: 100 }, Op::Barrier { id: 1 }]);
        let slow = boxed(vec![Op::Int { count: 100_000 }, Op::Barrier { id: 1 }]);
        let r = CmpSimulator::new(CmpConfig::ispass05(2), vec![fast, slow]).run();
        // The fast thread spins for ~25k cycles waiting.
        assert!(
            r.cores[0].spin_cycles > 10_000,
            "spin {}",
            r.cores[0].spin_cycles
        );
        assert!(r.cores[1].spin_cycles < 100);
    }

    #[test]
    fn contended_lock_serializes() {
        let worker = |_t: u64| {
            boxed(vec![
                Op::Lock { id: 0 },
                Op::Int { count: 10_000 },
                Op::Unlock { id: 0 },
            ])
        };
        let r = CmpSimulator::new(CmpConfig::ispass05(2), vec![worker(0), worker(1)]).run();
        // Critical sections serialize: total ≥ 2 × 2500 cycles.
        assert!(
            r.cycles > 5000,
            "lock did not serialize: {} cycles",
            r.cycles
        );
        // The loser spins.
        let total_spin: u64 = r.cores.iter().map(|c| c.spin_cycles).sum();
        assert!(total_spin > 1000, "spin cycles {total_spin}");
    }

    #[test]
    fn dvfs_shrinks_memory_latency_in_cycles() {
        // A pointer-chase through memory: at 200 MHz each miss costs 15
        // cycles instead of 240, so memory-bound code takes far fewer
        // cycles per unit of work (though more wall-clock time).
        let chase = |stride: u64| {
            let ops: Vec<Op> = (0..200)
                .map(|i| Op::Load {
                    addr: 0x40_0000 + i * stride,
                })
                .collect();
            ops
        };
        let fast_cfg = CmpConfig::ispass05(2);
        let slow_cfg = fast_cfg.at_operating_point(OperatingPoint {
            frequency: tlp_tech::units::Hertz::from_mhz(200.0),
            voltage: Volts::new(0.76),
        });
        let fast = CmpSimulator::new(fast_cfg, vec![boxed(chase(4096))]).run();
        let slow = CmpSimulator::new(slow_cfg, vec![boxed(chase(4096))]).run();
        assert!(
            (slow.cycles as f64) < (fast.cycles as f64) * 0.25,
            "slow-chip cycles {} vs fast-chip {}",
            slow.cycles,
            fast.cycles
        );
        // But wall-clock is still slower at 200 MHz.
        assert!(slow.execution_time() > fast.execution_time());
    }

    #[test]
    fn false_sharing_ping_pong_generates_coherence_traffic() {
        // Two threads repeatedly writing the same line.
        let hammer = |offset: u64| {
            let ops: Vec<Op> = (0..100)
                .flat_map(|_| {
                    [
                        Op::Store {
                            addr: 0x9000 + offset,
                        },
                        Op::Int { count: 8 },
                    ]
                })
                .collect();
            boxed(ops)
        };
        let r = CmpSimulator::new(CmpConfig::ispass05(2), vec![hammer(0), hammer(8)]).run();
        assert!(
            r.mem.cache_to_cache + r.mem.upgrades > 50,
            "expected ping-pong traffic, got c2c={} upgr={}",
            r.mem.cache_to_cache,
            r.mem.upgrades
        );
    }

    #[test]
    fn aggregate_cache_capacity_reduces_misses() {
        // A working set twice the L1 size, split across two cores, fits.
        let l1_bytes = 64 * 1024u64;
        let sweep = |base: u64, bytes: u64| {
            let mut ops = Vec::new();
            for _pass in 0..4 {
                let mut a = base;
                while a < base + bytes {
                    ops.push(Op::Load { addr: a });
                    a += 64;
                }
            }
            boxed(ops)
        };
        // One core streaming 2×L1.
        let one = CmpSimulator::new(CmpConfig::ispass05(2), vec![sweep(0, 2 * l1_bytes)]).run();
        // Two cores, each streaming its own half.
        let two = CmpSimulator::new(
            CmpConfig::ispass05(2),
            vec![sweep(0, l1_bytes), sweep(l1_bytes, l1_bytes)],
        )
        .run();
        let one_misses = one.l1d[0].misses;
        let two_misses: u64 = two.l1d.iter().map(|c| c.misses).sum();
        assert!(
            two_misses < one_misses,
            "aggregate capacity effect missing: {two_misses} !< {one_misses}"
        );
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn too_many_threads_rejected() {
        let cfg = CmpConfig::ispass05(2);
        let _ = CmpSimulator::new(
            cfg,
            (0..3).map(|_| boxed(vec![Op::Int { count: 1 }])).collect(),
        );
    }

    #[test]
    fn sampled_run_windows_cover_everything() {
        let cfg = CmpConfig::ispass05(2);
        let mk = || {
            CmpSimulator::new(
                CmpConfig::ispass05(2),
                vec![
                    boxed(vec![Op::Int { count: 20_000 }, Op::Load { addr: 0x9000 }]),
                    boxed(vec![Op::Fp { count: 8_000 }]),
                ],
            )
        };
        let _ = cfg;
        let (result, windows) = mk().run_sampled(1_000);
        assert!(!windows.is_empty());
        // Windows tile the run without gaps.
        let mut expect_start = 0;
        for w in &windows {
            assert_eq!(w.start_cycle, expect_start);
            assert!(w.end_cycle > w.start_cycle);
            expect_start = w.end_cycle;
        }
        assert_eq!(windows.last().unwrap().end_cycle, result.cycles);
        // Window deltas sum to the final counters.
        for core in 0..2 {
            let sum: u64 = windows.iter().map(|w| w.cores[core].instructions).sum();
            assert_eq!(sum, result.cores[core].instructions, "core {core}");
            let cyc: u64 = windows
                .iter()
                .map(|w| {
                    w.cores[core].active_cycles
                        + w.cores[core].mem_stall_cycles
                        + w.cores[core].other_stall_cycles
                        + w.cores[core].spin_cycles
                        + w.cores[core].sleep_cycles
                })
                .sum();
            assert!(cyc <= result.cycles + 1, "core {core} busy {cyc}");
        }
        // Sampling must not perturb the simulation itself.
        let plain = mk().run();
        assert_eq!(plain.cycles, result.cycles);
    }

    #[test]
    fn dropped_barrier_arrival_is_diagnosed_as_deadlock() {
        // Core 1's arrival at barrier 3 is dropped: cores 0 and 2 wait
        // forever while core 1 (holding a never-released ticket) also
        // spins. The diagnosis must name barrier 3 and all three cores.
        let mut cfg = CmpConfig::ispass05(4);
        cfg.faults.drop_barrier_arrival = Some((3, 1));
        let mk = |_t: u64| boxed(vec![Op::Int { count: 500 }, Op::Barrier { id: 3 }]);
        let err = CmpSimulator::new(cfg, vec![mk(0), mk(1), mk(2)])
            .try_run(10_000_000)
            .unwrap_err();
        let crate::error::SimError::Deadlock(info) = err else {
            panic!("expected deadlock, got {err}");
        };
        assert_eq!(info.stuck_barriers(), vec![3]);
        assert_eq!(info.stuck_cores(), vec![0, 1, 2]);
        for c in &info.cores {
            assert!(
                matches!(c.reason, crate::error::StuckReason::AtBarrier { id: 3, .. }),
                "core {} reason {}",
                c.core,
                c.reason
            );
            assert!(c.cycles_since_progress > 0);
        }
        // Detection happens within a few check intervals, not at the
        // budget limit.
        assert!(
            info.cycle < 1_000_000,
            "detected only at cycle {}",
            info.cycle
        );
    }

    #[test]
    fn budget_exhaustion_of_healthy_run_is_not_deadlock() {
        let cfg = CmpConfig::ispass05(2);
        let err = CmpSimulator::new(cfg, vec![boxed(vec![Op::Int { count: 1_000_000 }])])
            .try_run(1_000)
            .unwrap_err();
        match err {
            crate::error::SimError::CycleBudgetExhausted {
                budget,
                retired_instructions,
                cores,
            } => {
                assert_eq!(budget, 1_000);
                assert!(retired_instructions > 0);
                assert_eq!(cores.len(), 1);
                assert!(!cores[0].reason.is_unbounded_wait());
            }
            other => panic!("expected budget exhaustion, got {other}"),
        }
    }

    #[test]
    fn fault_cycle_budget_overrides_caller_budget() {
        let mut cfg = CmpConfig::ispass05(2);
        cfg.faults.cycle_budget = Some(100);
        let err = CmpSimulator::new(cfg, vec![boxed(vec![Op::Int { count: 1_000_000 }])])
            .try_run(u64::MAX)
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::SimError::CycleBudgetExhausted { budget: 100, .. }
        ));
    }

    #[test]
    fn healthy_run_is_ok_under_generous_budget() {
        let cfg = CmpConfig::ispass05(2);
        let r = CmpSimulator::new(cfg, vec![boxed(vec![Op::Int { count: 4000 }])])
            .try_run(10_000_000)
            .unwrap();
        assert_eq!(r.total_instructions(), 4000);
    }

    #[test]
    fn deadlock_error_display_names_barrier_and_cores() {
        let mut cfg = CmpConfig::ispass05(2);
        cfg.faults.drop_barrier_arrival = Some((7, 0));
        let mk = || boxed(vec![Op::Barrier { id: 7 }]);
        let err = CmpSimulator::new(cfg, vec![mk(), mk()])
            .try_run(10_000_000)
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("barrier 7"), "{msg}");
        assert!(msg.contains("core 0"), "{msg}");
        assert!(msg.contains("core 1"), "{msg}");
    }

    #[test]
    fn injected_hang_without_watchdog_exhausts_the_budget() {
        // Regression: the hang branch used to `continue` past the budget
        // check, so an unsupervised `try_run` with a budget spun the host
        // CPU forever instead of returning.
        let mut cfg = CmpConfig::ispass05(2);
        cfg.faults.hang = true;
        let err = CmpSimulator::new(cfg, vec![boxed(vec![Op::Int { count: 10 }])])
            .try_run(5_000)
            .unwrap_err();
        match err {
            SimError::CycleBudgetExhausted { budget, .. } => assert_eq!(budget, 5_000),
            other => panic!("expected budget exhaustion, got {other}"),
        }
    }

    #[test]
    fn injected_hang_under_fired_watchdog_is_deadline_exceeded() {
        // Supervised hang keeps its original contract: wait for the
        // cancellation deadline, then report it.
        let mut cfg = CmpConfig::ispass05(2);
        cfg.faults.hang = true;
        let _guard = tlp_obs::cancel::install(std::time::Instant::now());
        let err = CmpSimulator::new(cfg, vec![boxed(vec![Op::Int { count: 10 }])])
            .try_run(5_000)
            .unwrap_err();
        assert!(matches!(err, SimError::DeadlineExceeded { .. }), "{err}");
    }

    /// A gang with long barrier spins, lock contention, thrifty sleep on
    /// one core, and memory stalls — every pure-wait state the
    /// fast-forward handles.
    fn wait_heavy_sim() -> CmpSimulator {
        let mut cfg = CmpConfig::ispass05(4);
        cfg.core.sleep = crate::config::SleepPolicy {
            enabled: true,
            after_spin_cycles: 256,
            wakeup_penalty: 40,
        };
        let mk = |t: u64| {
            boxed(vec![
                Op::Int {
                    count: 100 + 40_000 * t as u32,
                },
                Op::Barrier { id: 0 },
                Op::Lock { id: 0 },
                Op::Load {
                    addr: 0x40_0000 + t * 4096,
                },
                Op::Unlock { id: 0 },
                Op::Barrier { id: 1 },
            ])
        };
        CmpSimulator::new(cfg, (0..3u64).map(mk).collect())
    }

    #[test]
    fn fast_forward_matches_stepped_results_and_windows() {
        let (fast_r, fast_w) = wait_heavy_sim().try_run_sampled(512, 10_000_000).unwrap();
        let (slow_r, slow_w) = wait_heavy_sim()
            .with_fast_forward(false)
            .try_run_sampled(512, 10_000_000)
            .unwrap();
        assert_eq!(format!("{fast_r:?}"), format!("{slow_r:?}"));
        assert_eq!(format!("{fast_w:?}"), format!("{slow_w:?}"));
    }

    #[test]
    fn fast_forward_matches_stepped_budget_exhaustion() {
        // Error paths must be identical too: same variant, same snapshot.
        let fast = wait_heavy_sim().try_run(3_000).unwrap_err();
        let slow = wait_heavy_sim()
            .with_fast_forward(false)
            .try_run(3_000)
            .unwrap_err();
        assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
    }

    /// Runs `mk()` with parking and fully stepped, requires the results,
    /// sampled windows and errors to be `Debug`-identical, and returns
    /// the parked run's `sim.core_cycles_parked` (0 for a failed run,
    /// which records no run metrics).
    fn assert_parking_identical(mk: impl Fn() -> CmpSimulator, window: u64, budget: u64) -> u64 {
        let (parked, trace) = tlp_obs::capture(|| mk().try_run_sampled(window, budget));
        let stepped = mk()
            .with_fast_forward(false)
            .try_run_sampled(window, budget);
        assert_eq!(format!("{parked:?}"), format!("{stepped:?}"));
        trace.counter("sim.core_cycles_parked").unwrap_or(0)
    }

    #[test]
    fn parked_waiter_sees_a_release_from_either_side_of_the_rotation() {
        // The releaser's compute length moves the release cycle one
        // cycle at a time, so the rotation puts it alternately before
        // the parked waiters (they must wake in the same cycle) and
        // after them (they wake in the next one).
        for extra in 0..8u32 {
            let mk = || {
                let waiter = |t: u64| {
                    boxed(vec![
                        Op::Int { count: 40 },
                        Op::Barrier { id: 0 },
                        Op::Store {
                            addr: 0x8000 + t * 64,
                        },
                        Op::Barrier { id: 1 },
                    ])
                };
                let releaser = boxed(vec![
                    Op::Int {
                        count: 4_000 + 4 * extra,
                    },
                    Op::Barrier { id: 0 },
                    Op::Barrier { id: 1 },
                ]);
                CmpSimulator::new(CmpConfig::ispass05(4), vec![waiter(0), releaser, waiter(2)])
            };
            let parked = assert_parking_identical(mk, u64::MAX, 1_000_000);
            assert!(parked > 1_500, "extra {extra}: parked only {parked}");
        }
    }

    #[test]
    fn parking_matches_stepping_when_a_lock_is_handed_between_spinners() {
        let mk = || {
            let worker = |t: u64| {
                let mut ops = Vec::new();
                for round in 0..4u64 {
                    ops.push(Op::Lock { id: 0 });
                    ops.push(Op::Int { count: 300 });
                    ops.push(Op::Load {
                        addr: 0x40_0000 + (t * 4 + round) * 4096,
                    });
                    ops.push(Op::Unlock { id: 0 });
                }
                boxed(ops)
            };
            CmpSimulator::new(CmpConfig::ispass05(4), (0..4).map(worker).collect())
        };
        assert!(assert_parking_identical(mk, 512, 10_000_000) > 1_000);
    }

    #[test]
    fn parking_matches_stepping_through_thrifty_sleep() {
        let mk = || {
            let mut cfg = CmpConfig::ispass05(3);
            cfg.core.sleep = crate::config::SleepPolicy {
                enabled: true,
                after_spin_cycles: 64,
                wakeup_penalty: 20,
            };
            let mk_thread = |t: u64| {
                boxed(vec![
                    Op::Int {
                        count: 200 + 9_000 * t as u32,
                    },
                    Op::Barrier { id: 0 },
                    Op::Int { count: 100 },
                    Op::Barrier { id: 1 },
                ])
            };
            CmpSimulator::new(cfg, (0..3).map(mk_thread).collect())
        };
        let (r, _) = mk().run_sampled(u64::MAX);
        assert!(r.cores[0].sleep_cycles > 1_000, "the waiter must sleep");
        assert!(assert_parking_identical(mk, 256, 10_000_000) > 1_000);
    }

    #[test]
    fn parking_matches_stepping_on_a_clock_domain_chip() {
        use crate::spec::ChipSpec;
        let spec = ChipSpec::big_little(2, 2);
        let mk = || {
            let progs: Vec<_> = (0..4u64)
                .map(|t| {
                    boxed(vec![
                        Op::Int {
                            count: 100 + 3_000 * t as u32,
                        },
                        Op::Load {
                            addr: 0x40_0000 + t * 4096,
                        },
                        Op::Barrier { id: 0 },
                        Op::Lock { id: 0 },
                        Op::Int { count: 200 },
                        Op::Unlock { id: 0 },
                        Op::Barrier { id: 1 },
                    ])
                })
                .collect();
            CmpSimulator::from_spec(&spec, progs)
        };
        assert!(assert_parking_identical(mk, 7, 10_000_000) > 1_000);
    }

    #[test]
    fn parking_matches_stepping_with_a_seven_cycle_window() {
        assert!(assert_parking_identical(wait_heavy_sim, 7, 10_000_000) > 10_000);
    }

    #[test]
    fn parking_matches_stepping_on_deadlock_and_budget_errors() {
        // A lost arrival deadlocks the gang while every waiter is parked.
        let deadlocked = || {
            let mut cfg = CmpConfig::ispass05(4);
            cfg.faults.drop_barrier_arrival = Some((0, 2));
            CmpSimulator::new(
                cfg,
                (0..3u64)
                    .map(|t| {
                        boxed(vec![
                            Op::Int {
                                count: 100 + 500 * t as u32,
                            },
                            Op::Barrier { id: 0 },
                        ])
                    })
                    .collect(),
            )
        };
        assert_parking_identical(deadlocked, 1_000, 10_000_000);
        let err = deadlocked().try_run(10_000_000).unwrap_err();
        assert!(matches!(err, SimError::Deadlock(_)), "{err}");
        // Budgets that expire while cores are parked, mid-stall and
        // mid-spin, snapshot the same counters as the stepped loop.
        for budget in [333, 3_000, 20_001, 40_123] {
            assert_parking_identical(wait_heavy_sim, 100, budget);
        }
        // Mid-spin, between deadlock checks and far from any window
        // edge: the snapshot must count the parked spinner's instructions.
        assert_parking_identical(unbalanced_pair, u64::MAX, 10_000);
    }

    /// One thread reaches the barrier at once and spins ~25k cycles
    /// while the other computes.
    fn unbalanced_pair() -> CmpSimulator {
        CmpSimulator::new(
            CmpConfig::ispass05(2),
            vec![
                boxed(vec![Op::Int { count: 100 }, Op::Barrier { id: 1 }]),
                boxed(vec![Op::Int { count: 100_000 }, Op::Barrier { id: 1 }]),
            ],
        )
    }

    #[test]
    fn one_waiting_core_parks_while_another_computes() {
        // No cycle is all-parked, but the waiter's spin is skipped and
        // caught up in closed form.
        let mk = unbalanced_pair;
        let ((), trace) = tlp_obs::capture(|| {
            let _ = mk().run();
        });
        assert_eq!(trace.counter("sim.cycles_fast_forwarded"), Some(0));
        let parked = trace.counter("sim.core_cycles_parked").unwrap_or(0);
        assert!(parked > 24_000, "parked {parked}");
        assert_parking_identical(mk, u64::MAX, MAX_CYCLES);
    }

    #[test]
    fn fast_forward_covers_memory_stalls() {
        // A cold pointer-chase spends almost every cycle in a memory
        // stall; the fast-forward must batch the bulk of the run.
        let ops: Vec<Op> = (0..50)
            .map(|i| Op::Load {
                addr: 0x40_0000 + i * 4096,
            })
            .collect();
        let ((), trace) = tlp_obs::capture(|| {
            let _ = CmpSimulator::new(CmpConfig::ispass05(2), vec![boxed(ops)]).run();
        });
        let retired = trace.counter("sim.cycles_retired").unwrap_or(0);
        let ff = trace.counter("sim.cycles_fast_forwarded").unwrap_or(0);
        assert!(ff <= retired, "ff {ff} cannot exceed retired {retired}");
        assert!(
            2 * ff > retired,
            "fast-forward covered only {ff} of {retired} cycles"
        );
    }

    fn server_script(t: u64) -> Vec<Op> {
        // Two requests per core: the first arrives immediately, the
        // second is scheduled far enough out that the core idles.
        vec![
            Op::RequestArrive { id: 0, at: 0 },
            Op::Int {
                count: 400 + 100 * t as u32,
            },
            Op::Load {
                addr: 0x50_000 + t * 4096,
            },
            Op::RequestRetire { id: 0 },
            Op::RequestArrive {
                id: 1,
                at: 40_000 + 64 * t,
            },
            Op::Int { count: 300 },
            Op::RequestRetire { id: 1 },
        ]
    }

    #[test]
    fn request_markers_produce_latency_records() {
        let r = CmpSimulator::new(
            CmpConfig::ispass05(2),
            (0..2).map(|t| boxed(server_script(t))).collect(),
        )
        .run();
        let req = r.requests.expect("server run must report requests");
        assert_eq!(req.completed, 4);
        // Core-index order, completion order within a core.
        assert_eq!(
            req.records
                .iter()
                .map(|x| (x.core, x.id))
                .collect::<Vec<_>>(),
            vec![(0, 0), (0, 1), (1, 0), (1, 1)]
        );
        for rec in &req.records {
            assert!(rec.arrival <= rec.completion);
            assert!(rec.completion <= r.cycles);
        }
        assert!(req.p50_cycles <= req.p90_cycles);
        assert!(req.p90_cycles <= req.p99_cycles);
        assert!(req.p99_cycles <= req.max_cycles);
        // The gap before the second request is idle time, not stall time.
        assert!(
            r.cores[0].idle_cycles > 30_000,
            "{}",
            r.cores[0].idle_cycles
        );
    }

    #[test]
    fn batch_runs_report_no_requests() {
        let r = CmpSimulator::new(
            CmpConfig::ispass05(2),
            vec![boxed(vec![Op::Int { count: 100 }])],
        )
        .run();
        assert!(r.requests.is_none());
    }

    #[test]
    fn late_request_arrival_charges_queueing_delay() {
        // The core is busy until ~cycle 2500; a request scheduled at
        // cycle 100 queues behind it, so its latency includes the wait.
        let r = CmpSimulator::new(
            CmpConfig::ispass05(2),
            vec![boxed(vec![
                Op::Int { count: 10_000 },
                Op::RequestArrive { id: 0, at: 100 },
                Op::Int { count: 40 },
                Op::RequestRetire { id: 0 },
            ])],
        )
        .run();
        let req = r.requests.unwrap();
        assert_eq!(req.records[0].arrival, 100);
        assert!(
            req.records[0].latency_cycles() > 2_000,
            "queueing delay missing: {}",
            req.records[0].latency_cycles()
        );
    }

    #[test]
    fn request_idle_fast_forward_matches_stepped() {
        let mk = || {
            CmpSimulator::new(
                CmpConfig::ispass05(4),
                (0..3).map(|t| boxed(server_script(t))).collect(),
            )
        };
        let (fast_r, fast_w) = mk().try_run_sampled(512, 10_000_000).unwrap();
        let (slow_r, slow_w) = mk()
            .with_fast_forward(false)
            .try_run_sampled(512, 10_000_000)
            .unwrap();
        assert_eq!(format!("{fast_r:?}"), format!("{slow_r:?}"));
        assert_eq!(format!("{fast_w:?}"), format!("{slow_w:?}"));
        // The idle stretch must actually be fast-forwarded.
        let ((), trace) = tlp_obs::capture(|| {
            let _ = mk().run();
        });
        assert!(trace.counter("sim.cycles_fast_forwarded").unwrap_or(0) > 10_000);
    }

    #[test]
    fn completion_skew_fault_corrupts_the_records() {
        let mut cfg = CmpConfig::ispass05(2);
        cfg.faults.skew_request_completion = Some(7);
        let clean = CmpSimulator::new(CmpConfig::ispass05(2), vec![boxed(server_script(0))]).run();
        let skewed = CmpSimulator::new(cfg, vec![boxed(server_script(0))]).run();
        let c = clean.requests.unwrap();
        let s = skewed.requests.unwrap();
        for (a, b) in c.records.iter().zip(&s.records) {
            assert_eq!(a.completion + 7, b.completion);
        }
        // The last record's skewed completion overruns the run length —
        // the bound the latency-sanity oracle checks.
        assert!(s.records.iter().any(|r| r.completion > skewed.cycles));
    }

    #[test]
    fn from_spec_homogeneous_is_byte_identical_to_legacy() {
        use crate::spec::{ChipSpec, CoreClass};
        // The reference describes the same hardware as two identical
        // base-domain classes, so any behaviour that depends on the class
        // layout rather than on the hardware shows up as a difference.
        let one_class = ChipSpec::ispass05(4);
        let half = CoreClass {
            count: 2,
            ..one_class.classes[0].clone()
        };
        let split = ChipSpec {
            classes: vec![half.clone(), half],
            ..one_class.clone()
        };
        let prog = || {
            (0..3u64)
                .map(|t| {
                    boxed(vec![
                        Op::Int { count: 2_000 },
                        Op::Load {
                            addr: 0x10_000 + t * 4096,
                        },
                        Op::Barrier { id: 0 },
                    ])
                })
                .collect::<Vec<_>>()
        };
        let (split_r, split_w) = CmpSimulator::from_spec(&split, prog()).run_sampled(500);
        let (one_r, one_w) = CmpSimulator::from_spec(&one_class, prog()).run_sampled(500);
        assert_eq!(format!("{split_r:?}"), format!("{one_r:?}"));
        assert_eq!(format!("{split_w:?}"), format!("{one_w:?}"));
    }

    #[test]
    fn half_rate_class_takes_twice_as_long_on_compute() {
        use crate::spec::ChipSpec;
        // One big core vs one little (half-rate, 2-wide) core on pure
        // integer work: the little core retires at 2 IPC on half the
        // ticks, so ~4x the base cycles.
        let spec = ChipSpec::big_little(1, 1);
        let big = CmpSimulator::from_spec(&spec, vec![boxed(vec![Op::Int { count: 8_000 }])]).run();
        let both = CmpSimulator::from_spec(
            &spec,
            vec![
                boxed(vec![Op::Int { count: 8_000 }]),
                boxed(vec![Op::Int { count: 8_000 }]),
            ],
        )
        .run();
        // Core 0 (big) alone: ~2000 cycles at 4-wide.
        assert!(big.cycles < 2_500, "big took {} cycles", big.cycles);
        // With the little core the run is dominated by it: 8000 instrs /
        // (2-wide · half-rate) ≈ 8000 base cycles.
        assert!(
            both.cycles > 3 * big.cycles,
            "little core finished too fast: {} vs {}",
            both.cycles,
            big.cycles
        );
        // The gated core only got ~half the base cycles as ticks.
        let little_busy = both.cores[1].active_cycles
            + both.cores[1].mem_stall_cycles
            + both.cores[1].other_stall_cycles;
        assert!(
            little_busy < both.cycles / 2 + 2,
            "gated core ticked {little_busy} of {} cycles",
            both.cycles
        );
    }

    #[test]
    fn hetero_fast_forward_matches_stepped() {
        use crate::spec::ChipSpec;
        let spec = ChipSpec::big_little(2, 2);
        let mk = |ff: bool| {
            let progs: Vec<_> = (0..4u64)
                .map(|t| {
                    boxed(vec![
                        Op::Int {
                            count: 100 + 10_000 * t as u32,
                        },
                        Op::Load {
                            addr: 0x40_0000 + t * 4096,
                        },
                        Op::Barrier { id: 0 },
                        Op::Lock { id: 0 },
                        Op::Int { count: 500 },
                        Op::Unlock { id: 0 },
                        Op::Barrier { id: 1 },
                    ])
                })
                .collect();
            CmpSimulator::from_spec(&spec, progs).with_fast_forward(ff)
        };
        let (fast_r, fast_w) = mk(true).try_run_sampled(512, 10_000_000).unwrap();
        let (slow_r, slow_w) = mk(false).try_run_sampled(512, 10_000_000).unwrap();
        assert_eq!(format!("{fast_r:?}"), format!("{slow_r:?}"));
        assert_eq!(format!("{fast_w:?}"), format!("{slow_w:?}"));
    }

    #[test]
    fn a_little_cores_l1_hits_take_its_own_latency() {
        use crate::spec::ChipSpec;
        // Core 1 is little on both chips and makes one miss, then 2 000
        // L1 hits; core 0 is big on the first chip and little on the
        // second. A hit completes in the little core's own latency, so
        // core 0's class must not turn its hits into memory stalls.
        let run = |spec: ChipSpec| {
            let little = boxed(vec![Op::Load { addr: 0x8_0000 }; 2_001]);
            CmpSimulator::from_spec(&spec, vec![boxed(vec![Op::Int { count: 1 }]), little]).run()
        };
        let beside_big = run(ChipSpec::big_little(1, 1));
        let beside_little = run(ChipSpec::big_little(0, 2));
        assert_eq!(
            beside_big.cores[1].mem_stall_cycles,
            beside_little.cores[1].mem_stall_cycles
        );
        assert_eq!(beside_big.cycles, beside_little.cycles);
    }

    #[test]
    fn gated_sleeper_disables_fast_forward() {
        use crate::config::SleepPolicy;
        use crate::spec::{ChipSpec, CoreClass};
        let mut spec = ChipSpec::big_little(1, 1);
        let little: &mut CoreClass = &mut spec.classes[1];
        little.core.sleep = SleepPolicy::THRIFTY;
        let sim = CmpSimulator::from_spec(
            &spec,
            vec![
                boxed(vec![Op::Int { count: 10 }, Op::Barrier { id: 0 }]),
                boxed(vec![Op::Int { count: 10_000 }, Op::Barrier { id: 0 }]),
            ],
        );
        assert!(!sim.fast_forward, "gated sleeper must step");
        let r = sim.run();
        assert_eq!(r.n_threads, 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            CmpSimulator::new(
                CmpConfig::ispass05(4),
                (0..4u64)
                    .map(|t| {
                        boxed(vec![
                            Op::Int { count: 1000 },
                            Op::Load { addr: t * 8192 },
                            Op::Barrier { id: 0 },
                            Op::Store {
                                addr: 0xA000 + t * 8,
                            },
                            Op::Barrier { id: 1 },
                        ])
                    })
                    .collect(),
            )
        };
        let a = mk().run();
        let b = mk().run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.total_instructions(), b.total_instructions());
        assert_eq!(a.mem, b.mem);
    }
}
