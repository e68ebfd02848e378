//! The traced replay: one sweep grid re-executed through the public
//! functions the sweep engine composes — `gang` / `ServerSpec::gang`,
//! `profiling::profile`, `scenario1::operating_point_for`,
//! `ExperimentalChip::try_run_with` and `try_measure_with` — with a span
//! around every call. The replay follows the engine's cell pipeline for
//! the default retry policy, no faults and the chip-wide governor, and
//! must reproduce the untraced report's outcomes bit for bit, which shows
//! it measured the same work.

use cmp_tlp::obs::metrics::SIM_CYCLES_FAST_FORWARDED;
use cmp_tlp::scenario1::{operating_point_for, RequestSummary, Scenario1Row};
use cmp_tlp::sim::op::{Op, ThreadProgram};
use cmp_tlp::sim::{SimFaults, SimResult};
use cmp_tlp::sweep::WorkloadId;
use cmp_tlp::tech::units::Hertz;
use cmp_tlp::tech::{DvfsTable, OperatingPoint};
use cmp_tlp::workloads::{gang, ServerSpec};
use cmp_tlp::{
    profile, CellOutcome, ChipMeasurement, ExperimentError, ExperimentalChip, MeasureFaults,
    RetryPolicy, SweepCell, SweepReport, SweepSpec,
};

use crate::spans::Recorder;

/// What one replayed grid measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall time of the whole replay, seconds.
    pub wall_s: f64,
    /// Replay time outside every layer span (the root's self time).
    pub unattributed_s: f64,
    /// Gang construction plus the standalone drains of every stream.
    pub gen_s: f64,
    /// The standalone drains alone: work the untraced sweep never does.
    pub drain_s: f64,
    /// `try_run_with` calls: the cells' runs and the server rows' anchor
    /// runs (batch rows simulate their anchor inside `profile`).
    pub run_s: f64,
    /// Drain time of the streams those runs consume.
    pub run_gen_s: f64,
    /// Per-row anchor: `profiling::profile`, or a server row's nominal
    /// single-core run.
    pub profile_s: f64,
    pub measure_s: f64,
    /// Preparation plus cell spans: the work a sweep pool executes.
    pub busy_s: f64,
    /// Longest preparation + cell chain of any workload row.
    pub critical_path_s: f64,
    /// Ops drained from every stream the grid simulates.
    pub ops: u64,
    /// Totals over the `try_run_with` runs.
    pub instructions: u64,
    pub cycles: u64,
    pub ff_cycles: u64,
    /// Spin + memory-stall + sleep + idle core-cycles over those runs,
    /// and the `n · cycles` they are a share of.
    pub wait_core_cycles: u64,
    pub core_cycles: u64,
    pub fixpoint_iters: u64,
    /// Cells whose replayed outcome differs from the untraced report's.
    pub mismatches: usize,
}

/// Pulls every op out of `programs`; returns how many there were.
pub fn drain(programs: Vec<Box<dyn ThreadProgram>>) -> u64 {
    let mut ops = 0;
    for mut p in programs {
        while p.next_op() != Op::End {
            ops += 1;
        }
    }
    ops
}

/// Replays `spec` under `tlp_obs::capture` (so the simulator's own
/// counters count) and compares each cell with `reference`.
pub fn replay(
    chip: &ExperimentalChip,
    spec: &SweepSpec,
    reference: &SweepReport,
    rec: &mut Recorder,
) -> Rep {
    let ((cells, mut rep, root), _trace) = cmp_tlp::obs::capture(|| {
        let root = rec.enter("replay");
        let mut rep = Rep::default();
        let cells = replay_grid(chip, spec, rec, &mut rep);
        rec.exit(root);
        (cells, rep, root)
    });
    rep.mismatches = differing(&cells, &reference.cells)
        .into_iter()
        .filter(|&d| d)
        .count();
    rep.wall_s = rec.spans()[root].dur();
    rep.unattributed_s = rec.self_time(root);
    rep.drain_s = rec.total_within(root, "workloads.drain");
    rep.gen_s = rec.total_within(root, "workloads.gang") + rep.drain_s;
    rep.run_s = rec.total_within(root, "sim.run");
    rep.profile_s = rec.total_within(root, "profile");
    rep.measure_s = rec.total_within(root, "measure");
    rep.busy_s = rec.total_within(root, "sweep.prep") + rec.total_within(root, "sweep.cell");
    rep
}

/// For every cell position of `a` or `b`, whether the two differ,
/// compared through their `Debug` rendering, which prints every float
/// exactly. A cell present on one side only differs.
pub fn differing(a: &[(SweepCell, CellOutcome)], b: &[(SweepCell, CellOutcome)]) -> Vec<bool> {
    let key = |cell: Option<&(SweepCell, CellOutcome)>| cell.map(|c| format!("{c:?}"));
    (0..a.len().max(b.len()))
        .map(|i| key(a.get(i)) != key(b.get(i)))
        .collect()
}

/// Runs `attempt` under `policy` the way the sweep supervisor does.
fn supervise<T>(
    policy: &RetryPolicy,
    mut attempt: impl FnMut(&cmp_tlp::thermal::FixpointOptions) -> Result<T, ExperimentError>,
) -> Result<(T, u32), (ExperimentError, u32)> {
    let max = policy.max_attempts.max(1);
    let mut k = 1;
    loop {
        match attempt(&policy.options_for(k)) {
            Ok(v) => return Ok((v, k)),
            Err(e) if e.is_retryable() && k < max => k += 1,
            Err(e) => return Err((e, k)),
        }
    }
}

struct Anchor {
    baseline: SimResult,
    efficiencies: Vec<f64>,
    measure: ChipMeasurement,
    attempts: u32,
}

fn replay_grid(
    chip: &ExperimentalChip,
    spec: &SweepSpec,
    rec: &mut Recorder,
    rep: &mut Rep,
) -> Vec<(SweepCell, CellOutcome)> {
    let tech = chip.tech();
    let table = DvfsTable::for_technology(tech, Hertz::from_mhz(200.0), Hertz::from_mhz(200.0))
        .expect("the stock technology has a DVFS table");
    let policy = RetryPolicy::default();
    let nominal = OperatingPoint {
        frequency: tech.f_nominal(),
        voltage: tech.vdd_nominal(),
    };
    let mut cells = Vec::new();
    for work in spec.works() {
        drain_streams(chip, spec, &table, work, nominal, rec, rep);
        let prep = rec.enter("sweep.prep");
        let anchor = prepare(chip, spec, &policy, work, nominal, rec, rep);
        rec.exit(prep);
        let mut longest_cell = 0.0f64;
        for (ni, &n) in spec.core_counts.iter().enumerate() {
            let cell = SweepCell { work, n };
            let span = rec.enter("sweep.cell");
            let outcome = match &anchor {
                Ok(anchor) => run_cell(
                    chip, spec, &policy, &table, work, n, ni, nominal, anchor, rec, rep,
                ),
                Err((reason, attempts)) => CellOutcome::Failed {
                    reason: reason.clone(),
                    attempts: *attempts,
                },
            };
            rec.exit(span);
            longest_cell = longest_cell.max(rec.spans()[span].dur());
            cells.push((cell, outcome));
        }
        rep.critical_path_s = rep
            .critical_path_s
            .max(rec.spans()[prep].dur() + longest_cell);
    }
    cells
}

/// Drains a copy of every stream the workload row simulates, outside
/// the pipeline spans: generation happens lazily inside the simulator,
/// so this is how its cost is measured from outside.
fn drain_streams(
    chip: &ExperimentalChip,
    spec: &SweepSpec,
    table: &DvfsTable,
    work: WorkloadId,
    nominal: OperatingPoint,
    rec: &mut Recorder,
    rep: &mut Rep,
) {
    match work {
        WorkloadId::App(app) => {
            for &n in &spec.core_counts {
                if (app.requires_pow2_threads() && !n.is_power_of_two())
                    || n > chip.config().n_cores
                {
                    continue;
                }
                let id = rec.enter("workloads.drain");
                rep.ops += drain(gang(app, n, spec.scale, spec.seed));
                rec.exit(id);
                // Profiling simulates every count at nominal V/f; the
                // cells re-simulate the same streams at their Eq. 7
                // point. Only the latter run inside `sim.run` spans.
                if n > 1 {
                    rep.run_gen_s += rec.spans()[id].dur();
                }
            }
        }
        WorkloadId::Server { rps } => {
            // The server gang depends on the clock it runs at, so each
            // cell's stream is rebuilt at that cell's frequency.
            let server = ServerSpec::standard(rps, spec.scale);
            let mut streams = vec![(1, nominal.frequency)];
            for &n in spec.core_counts.iter().filter(|&&n| n > 1) {
                if let Ok(op) = operating_point_for(table, nominal.frequency, n, 1.0) {
                    streams.push((n, op.frequency));
                }
            }
            for (n, f) in streams {
                let id = rec.enter("workloads.drain");
                rep.ops += drain(server.gang(n, spec.seed, f));
                rec.exit(id);
                rep.run_gen_s += rec.spans()[id].dur();
            }
        }
    }
}

fn prepare(
    chip: &ExperimentalChip,
    spec: &SweepSpec,
    policy: &RetryPolicy,
    work: WorkloadId,
    nominal: OperatingPoint,
    rec: &mut Recorder,
    rep: &mut Rep,
) -> Result<Anchor, (ExperimentError, u32)> {
    let (baseline, efficiencies) = match work {
        WorkloadId::App(app) => {
            let prof = rec.time("profile", || {
                profile(chip, app, &spec.core_counts, spec.scale, spec.seed)
            });
            (prof.baseline, prof.efficiencies)
        }
        // Server rows skip profiling (their efficiency is 1 at every
        // count); the nominal single-core anchor run takes its place, so
        // it is what `profile` times for them.
        WorkloadId::Server { rps } => {
            let id = rec.enter("profile");
            let server = ServerSpec::standard(rps, spec.scale);
            let programs = rec.time("workloads.gang", || {
                server.gang(1, spec.seed, nominal.frequency)
            });
            let r = simulate(chip, programs, nominal, rec, rep);
            rec.exit(id);
            (r.map_err(|e| (e, 1))?, vec![1.0; spec.core_counts.len()])
        }
    };
    let (measure, attempts) = supervise(policy, |opts| {
        rec.time("measure", || {
            chip.try_measure_with(
                &baseline,
                chip.tech().vdd_nominal(),
                opts,
                &MeasureFaults::default(),
            )
        })
    })?;
    rep.fixpoint_iters += u64::from(measure.fixpoint_iterations);
    Ok(Anchor {
        baseline,
        efficiencies,
        measure,
        attempts,
    })
}

/// One `try_run_with` inside a `sim.run` span, with its counts.
fn simulate(
    chip: &ExperimentalChip,
    programs: Vec<Box<dyn ThreadProgram>>,
    op: OperatingPoint,
    rec: &mut Recorder,
    rep: &mut Rep,
) -> Result<SimResult, ExperimentError> {
    let ff0 = SIM_CYCLES_FAST_FORWARDED.get();
    let r = rec.time("sim.run", || {
        chip.try_run_with(programs, op, SimFaults::default())
    })?;
    rep.ff_cycles += SIM_CYCLES_FAST_FORWARDED.get() - ff0;
    rep.instructions += r.total_instructions();
    rep.cycles += r.cycles;
    rep.core_cycles += r.cycles * r.cores.len() as u64;
    rep.wait_core_cycles += r
        .cores
        .iter()
        .map(|c| c.spin_cycles + c.mem_stall_cycles + c.sleep_cycles + c.idle_cycles)
        .sum::<u64>();
    Ok(r)
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    chip: &ExperimentalChip,
    spec: &SweepSpec,
    policy: &RetryPolicy,
    table: &DvfsTable,
    work: WorkloadId,
    n: usize,
    ni: usize,
    nominal: OperatingPoint,
    anchor: &Anchor,
    rec: &mut Recorder,
    rep: &mut Rep,
) -> CellOutcome {
    let eps = anchor.efficiencies[ni];
    let outcome = (|| -> Result<(Scenario1Row, u32, u32), (ExperimentError, u32)> {
        let (result, op) = if n == 1 {
            (anchor.baseline.clone(), nominal)
        } else {
            let op = rec
                .time("scenario1.operating_point", || {
                    operating_point_for(table, nominal.frequency, n, eps)
                })
                .map_err(|e| (e, 1))?;
            let programs = rec.time("workloads.gang", || match work {
                WorkloadId::App(app) => gang(app, n, spec.scale, spec.seed),
                WorkloadId::Server { rps } => {
                    ServerSpec::standard(rps, spec.scale).gang(n, spec.seed, op.frequency)
                }
            });
            let r = simulate(chip, programs, op, rec, rep).map_err(|e| (e, 1))?;
            (r, op)
        };
        let (m, attempts) = supervise(policy, |opts| {
            rec.time("measure", || {
                chip.try_measure_with(&result, op.voltage, opts, &MeasureFaults::default())
            })
        })?;
        rep.fixpoint_iters += u64::from(m.fixpoint_iterations);
        let row = rec.time("sweep.row", || {
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
            Scenario1Row {
                n,
                nominal_efficiency: eps,
                actual_speedup: anchor.baseline.execution_time() / result.execution_time(),
                power_watts: m.total().as_f64(),
                normalized_power: m.total() / anchor.measure.total(),
                normalized_density: m.power_density.as_w_per_mm2()
                    / anchor.measure.power_density.as_w_per_mm2(),
                temperature_c: m.avg_core_temp().as_f64(),
                operating_point: op,
                requests,
            }
        });
        Ok((
            row,
            attempts.max(if n == 1 { anchor.attempts } else { 1 }),
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
