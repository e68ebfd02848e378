//! Simulator-layer differential oracles.
//!
//! [`fast_forward_identity`] pits the parked run loop of [`CmpSimulator`]
//! (per-core parking plus the clock jump when every core is parked)
//! against the cycle-stepped reference on randomized multi-threaded
//! workloads: identical [`SimResult`](tlp_sim::SimResult)s, identical
//! sample windows, identical error verdicts (deadlock diagnoses,
//! exhausted budgets), down to the `Debug` rendering. The stepped loop is the executable
//! specification; the parked loop is the optimization under test.

use tlp_sim::config::SleepPolicy;
use tlp_sim::op::{Op, ScriptedProgram, ThreadProgram};
use tlp_sim::{CmpConfig, CmpSimulator};

use crate::prop::Property;
use crate::{gen, shrink};

/// One randomized fast-forward identity scenario: a gang of scripted
/// threads plus the knobs that steer the simulator loop through its
/// wait states (barrier spin, sleep, lock retry, memory stall) and its
/// boundaries (sample windows, cycle budgets, deadlock checks).
#[derive(Debug, Clone)]
pub struct FfCase {
    /// Per-thread op scripts. Barriers are all-or-none per phase, locks
    /// are always released: generated cases only deadlock when the
    /// drop-arrival fault is armed.
    pub ops: Vec<Vec<Op>>,
    /// Barrier sleep policy shared by every core.
    pub sleep: SleepPolicy,
    /// Sampling window in cycles (`u64::MAX` ≈ unsampled).
    pub window: u64,
    /// Cycle budget handed to `try_run_sampled`.
    pub budget: u64,
    /// Injected lost barrier arrival `(barrier id, thread)`, forcing a
    /// deadlock both loops must diagnose identically.
    pub drop_arrival: Option<(u32, usize)>,
}

fn gen_ff_case(rng: &mut tlp_tech::rng::SplitMix64) -> FfCase {
    let n_threads = rng.gen_range_usize(1..5);
    let phases = rng.gen_range_usize(1..5);
    let mut ops: Vec<Vec<Op>> = vec![Vec::new(); n_threads];
    let mut barriers = Vec::new();
    for phase in 0..phases as u32 {
        // All-or-none: either every thread arrives at this phase's
        // barrier or the phase has none, so the gang cannot hang on a
        // barrier nobody else reaches.
        let barrier = rng.gen_bool(0.7);
        if barrier {
            barriers.push(phase);
        }
        for thread_ops in ops.iter_mut() {
            for _ in 0..rng.gen_range_usize(0..4) {
                match rng.gen_range_usize(0..6) {
                    0 => thread_ops.push(Op::Int {
                        count: rng.gen_range_u64(1..20_000) as u32,
                    }),
                    1 => thread_ops.push(Op::Fp {
                        count: rng.gen_range_u64(1..2_000) as u32,
                    }),
                    2 => thread_ops.push(Op::Load {
                        addr: rng.gen_range_u64(0..64) * 64,
                    }),
                    3 => thread_ops.push(Op::Store {
                        addr: rng.gen_range_u64(0..64) * 64,
                    }),
                    4 => thread_ops.push(Op::Branch {
                        mispredict: rng.gen_bool(0.3),
                    }),
                    _ => {
                        // Critical section: acquire, touch shared data,
                        // release — contention exercises the SpinLock
                        // retry wait.
                        let id = rng.gen_range_u64(0..2) as u32;
                        thread_ops.push(Op::Lock { id });
                        if rng.gen_bool(0.7) {
                            thread_ops.push(Op::Load {
                                addr: 0x8000 + id as u64 * 64,
                            });
                        }
                        thread_ops.push(Op::Unlock { id });
                    }
                }
            }
            if barrier {
                thread_ops.push(Op::Barrier { id: phase });
            }
        }
    }
    let sleep = match rng.gen_range_usize(0..4) {
        0 => SleepPolicy::DISABLED,
        i => SleepPolicy {
            enabled: true,
            after_spin_cycles: [10, 256, 1_000][i - 1],
            wakeup_penalty: rng.gen_range_u64(20..100),
        },
    };
    let window = gen::pick(rng, &[u64::MAX, 64, 1_000, 4_096, 16_384]);
    // Mostly roomy budgets (runs finish); occasionally tight ones so
    // both loops hit CycleBudgetExhausted mid-flight.
    let budget = if rng.gen_bool(0.85) {
        10_000_000
    } else {
        rng.gen_range_u64(500..5_000)
    };
    let drop_arrival = if !barriers.is_empty() && rng.gen_bool(0.15) {
        Some((gen::pick(rng, &barriers), rng.gen_range_usize(0..n_threads)))
    } else {
        None
    };
    FfCase {
        ops,
        sleep,
        window,
        budget,
        drop_arrival,
    }
}

fn shrink_ff_case(c: &FfCase) -> Vec<FfCase> {
    let mut out = Vec::new();
    // Strip the environment knobs first: most divergences reproduce
    // without the fault, the sleep policy, or sampling.
    if c.drop_arrival.is_some() {
        out.push(FfCase {
            drop_arrival: None,
            ..c.clone()
        });
    }
    if c.sleep.enabled {
        out.push(FfCase {
            sleep: SleepPolicy::DISABLED,
            ..c.clone()
        });
    }
    if c.window != u64::MAX {
        out.push(FfCase {
            window: u64::MAX,
            ..c.clone()
        });
    }
    // Fewer threads (barrier participation follows the thread count, so
    // all-or-none stays intact; the fault's thread index may dangle, so
    // drop it).
    if c.ops.len() > 1 {
        for ops in shrink::remove_each(&c.ops, 1) {
            out.push(FfCase {
                ops,
                drop_arrival: None,
                ..c.clone()
            });
        }
    }
    // Shorter scripts: cut the trailing op of every thread at once.
    if c.ops.iter().any(|t| !t.is_empty()) {
        out.push(FfCase {
            ops: c
                .ops
                .iter()
                .map(|t| t[..t.len().saturating_sub(1)].to_vec())
                .collect(),
            ..c.clone()
        });
    }
    // Smaller compute batches.
    if c.ops.iter().flatten().any(|op| match op {
        Op::Int { count } | Op::Fp { count } => *count > 1,
        _ => false,
    }) {
        out.push(FfCase {
            ops: c
                .ops
                .iter()
                .map(|t| {
                    t.iter()
                        .map(|op| match *op {
                            Op::Int { count } if count > 1 => Op::Int { count: count / 2 },
                            Op::Fp { count } if count > 1 => Op::Fp { count: count / 2 },
                            other => other,
                        })
                        .collect()
                })
                .collect(),
            ..c.clone()
        });
    }
    out
}

fn simulator_for(c: &FfCase, fast_forward: bool) -> CmpSimulator {
    let mut config = CmpConfig::ispass05(c.ops.len());
    config.core.sleep = c.sleep;
    config.faults.drop_barrier_arrival = c.drop_arrival;
    let programs: Vec<Box<dyn ThreadProgram>> = c
        .ops
        .iter()
        .map(|t| Box::new(ScriptedProgram::new(t.clone())) as Box<dyn ThreadProgram>)
        .collect();
    CmpSimulator::new(config, programs).with_fast_forward(fast_forward)
}

fn ff_check(c: &FfCase) -> Result<(), String> {
    let fast = simulator_for(c, true).try_run_sampled(c.window, c.budget);
    let stepped = simulator_for(c, false).try_run_sampled(c.window, c.budget);
    // Debug equality covers every counter in SimResult/CoreStats, every
    // sample window boundary, and the full error payloads (deadlock
    // per-core stuck states included).
    let fast = format!("{fast:?}");
    let stepped = format!("{stepped:?}");
    if fast != stepped {
        return Err(format!(
            "fast-forwarded run diverges from the stepped reference:\n  fast:    {fast}\n  stepped: {stepped}"
        ));
    }
    Ok(())
}

/// Oracle: the parked simulator loop vs. the cycle-stepped
/// reference — identical results, sample windows, and error verdicts on
/// randomized gangs of compute/sync workloads.
pub fn fast_forward_identity() -> Property {
    Property::new(
        "fast-forward-identity",
        "parking cores through pure-wait stretches is observationally identical to stepping every cycle",
        gen_ff_case,
        shrink_ff_case,
        ff_check,
    )
    .expensive()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::CheckConfig;

    #[test]
    fn fast_forward_identity_passes_with_the_pinned_ci_seed() {
        let prop = fast_forward_identity();
        let r = prop.run(&CheckConfig {
            seed: 0xD1CE,
            cases: 48,
        });
        assert!(
            r.passed(),
            "fast-forward-identity failed: {}",
            r.counterexample.unwrap().render()
        );
    }

    #[test]
    fn ff_oracle_is_deterministic() {
        let prop = fast_forward_identity();
        let cfg = CheckConfig { seed: 9, cases: 4 };
        assert_eq!(prop.run(&cfg), prop.run(&cfg));
    }

    #[test]
    fn ff_oracle_generates_waitful_cases() {
        // The generator must actually exercise the wait states the
        // fast-forward path exists for: across a modest sample, some
        // case must fast-forward a meaningful share of its cycles.
        let mut rng = tlp_tech::rng::SplitMix64::seed_from_u64(0xFF);
        let mut saw_ff = false;
        for _ in 0..16 {
            let c = gen_ff_case(&mut rng);
            let ((), trace) = tlp_obs::capture(|| {
                let _ = simulator_for(&c, true).try_run_sampled(c.window, c.budget);
            });
            let ff = trace.counter("sim.cycles_fast_forwarded").unwrap_or(0);
            if ff > 0 {
                saw_ff = true;
                break;
            }
        }
        assert!(saw_ff, "no generated case ever fast-forwarded");
    }
}
