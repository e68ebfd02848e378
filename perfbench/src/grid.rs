//! The two sweep workloads, `fig3-wait` and `server-rows`: a Paper-scale
//! grid through `SweepBuilder` with no journal, its report rendered as
//! the CLI's `--json`. An operation is a cell; a run repeats the grid
//! with a fresh workload seed per repetition.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use cmp_tlp::journal::fnv64;
use cmp_tlp::sim::ChipSpec;
use cmp_tlp::tech::json::ToJson;
use cmp_tlp::tech::Technology;
use cmp_tlp::workloads::{AppId, Scale};
use cmp_tlp::{CellOutcome, ExperimentError, ExperimentalChip, SweepReport, SweepSpec};

use crate::kernel::Reference;
use crate::layers::{self, Ledger};
use crate::spans::Recorder;
use crate::{daemon, probes, replay, stats, Args, Outcome, DEFAULT_SEED, SETUP_REPS};

/// One sweep workload.
pub struct Grid {
    pub name: &'static str,
    /// Pool threads of the timed sweeps.
    pub threads: usize,
    pub spec: fn(u64) -> SweepSpec,
    /// FNV-64 digests of the rendered reports of the first repetitions
    /// when the run seed is [`DEFAULT_SEED`].
    pub pinned: &'static [u64],
}

/// Ocean and Cholesky, the two barrier-heaviest models, over the
/// paper's core counts on two pool threads: profiling dominates and
/// Ocean's profile-then-cell chain sets the makespan.
pub const FIG3_WAIT: Grid = Grid {
    name: "fig3-wait",
    threads: 2,
    spec: fig3_wait,
    pinned: &[
        0x48bd_a250_a7ce_ff0e,
        0x3c42_3d1f_7071_fbcf,
        0x11e4_01a3_42ec_6aa5,
        0xe754_f310_1ffa_a615,
        0x5c5a_b1b4_adb2_3899,
        0xc250_f372_be94_0643,
        0x4d4e_e78b_c3d9_5356,
        0x28a1_42ce_2358_1c27,
        0x638f_ec22_1c75_d575,
        0x2ace_c5e3_575f_53e4,
    ],
};

/// Open-loop server rows at 100 k and 400 k requests/s on one thread
/// (the pool is bypassed): cores idle between arrivals, nothing is
/// profiled, and the gang is rebuilt for every cell.
pub const SERVER_ROWS: Grid = Grid {
    name: "server-rows",
    threads: 1,
    spec: server_rows,
    pinned: &[
        0x70e7_0f78_cd11_d2cd,
        0xb03c_d85f_9d78_ddfb,
        0xf724_9dc7_3670_0612,
        0x2a6f_e693_598f_a1de,
        0xdcec_5abe_9e09_095d,
        0x8acf_701a_4008_8794,
        0x262a_a5e2_a483_6339,
        0x82af_e955_cf35_5058,
        0xb7f1_2df4_262b_b038,
        0xcabc_9e73_9d1b_0cc5,
    ],
};

fn fig3_wait(seed: u64) -> SweepSpec {
    SweepSpec::fig3(vec![AppId::Ocean, AppId::Cholesky], Scale::Paper, seed)
}

fn server_rows(seed: u64) -> SweepSpec {
    SweepSpec {
        apps: Vec::new(),
        server_loads: vec![100_000, 400_000],
        core_counts: vec![1, 2, 4, 8, 16],
        scale: Scale::Paper,
        seed,
    }
}

/// Sweep cells per grid of `spec`.
pub fn cells(spec: &SweepSpec) -> u64 {
    (spec.works().len() * spec.core_counts.len()) as u64
}

/// The paper's 16-core chip: the set-up every workload times.
pub fn chip() -> ExperimentalChip {
    ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm())
}

/// Runs `spec` on `threads` pool threads and renders it as `--json`.
pub fn sweep(
    chip: &ExperimentalChip,
    spec: SweepSpec,
    threads: usize,
) -> Result<(SweepReport, String), ExperimentError> {
    let report = chip.sweep().grid(spec).threads(threads).run()?;
    let json = report.to_json().to_string_pretty();
    Ok((report, json))
}

/// What a report is checked against.
#[derive(Debug)]
pub enum Expected {
    /// The pinned digest of the rendered report.
    Digest(u64),
    /// A serial run of the same spec.
    Serial(Result<SweepReport, ExperimentError>),
}

/// Failed operations (cells) of one grid: every cell that did not
/// complete or differs from the expectation. A report that cannot be
/// matched cell by cell (no report, a digest mismatch, a failed
/// reference) fails all `total` cells.
pub fn failed_cells(
    total: u64,
    got: &Result<(SweepReport, String), ExperimentError>,
    expected: &Expected,
) -> u64 {
    let Ok((report, json)) = got else {
        return total;
    };
    let incomplete = |i: usize| !report.cells.get(i).is_some_and(|(_, o)| o.is_completed());
    let n = total as usize;
    match expected {
        Expected::Digest(d) if fnv64(json.as_bytes()) == *d => {
            (0..n).filter(|&i| incomplete(i)).count() as u64
        }
        Expected::Digest(_) | Expected::Serial(Err(_)) => total,
        Expected::Serial(Ok(reference)) => replay::differing(&report.cells, &reference.cells)
            .into_iter()
            .enumerate()
            .filter(|&(i, differs)| differs || incomplete(i))
            .count() as u64,
    }
}

/// Cells of `report` that did not complete.
pub fn incomplete(report: &SweepReport) -> u64 {
    report
        .cells
        .iter()
        .filter(|(_, o)| !o.is_completed())
        .count() as u64
}

/// Solve attempts beyond the first, over every cell of `report`.
pub fn retries(report: &SweepReport) -> u64 {
    report
        .cells
        .iter()
        .map(|(_, o)| match o {
            CellOutcome::Completed { attempts, .. } | CellOutcome::Failed { attempts, .. } => {
                u64::from(attempts.saturating_sub(1))
            }
            CellOutcome::Quarantined { .. } => 0,
        })
        .sum()
}

/// `f(0..n)` on `workers` threads, results in index order.
pub fn parallel_map<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check worker panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, v)| v).collect()
}

/// One timed `ExperimentalChip::from_spec`, seconds, and the chip.
pub fn timed_chip() -> (f64, ExperimentalChip) {
    let t0 = Instant::now();
    let built = chip();
    (t0.elapsed().as_secs_f64(), built)
}

/// Builds the chip [`SETUP_REPS`] times; returns the times and the last
/// chip.
pub fn setup() -> (Vec<f64>, ExperimentalChip) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let (secs, c) = timed_chip();
        times.push(secs);
        built = Some(c);
    }
    (times, built.expect("SETUP_REPS > 0"))
}

/// Least cells per timed run: ten grids (and so eleven set-ups),
/// whatever `--seconds` says.
pub const MIN_OPS: u64 = 100;

pub fn run(grid: &Grid, args: &Args) -> Outcome {
    if args.trace {
        traced(grid, args)
    } else {
        timed(grid, args)
    }
}

struct Timed {
    seed: u64,
    got: Result<(SweepReport, String), ExperimentError>,
    raw_s: f64,
}

fn timed(grid: &Grid, args: &Args) -> Outcome {
    let mut kernel = Reference::new(grid.threads);
    kernel.sample();
    let (first_setup, chip) = timed_chip();
    // Set-up repeats after every grid rather than all at the start, so
    // its median sees the same stretch of host time as the grids and
    // the kernel samples that normalize both.
    let mut setup_raw = vec![first_setup];

    let mut seeds = crate::op_seeds(args.seed, grid.name);
    let mut runs: Vec<Timed> = Vec::new();
    let mut attempted = 0;
    let start = Instant::now();
    while start.elapsed() < args.seconds || attempted < MIN_OPS {
        let seed = seeds.next().expect("seed stream is endless");
        let spec = (grid.spec)(seed);
        attempted += cells(&spec);
        let t0 = Instant::now();
        let got = sweep(&chip, spec, grid.threads);
        let raw_s = t0.elapsed().as_secs_f64();
        kernel.sample();
        setup_raw.push(timed_chip().0);
        runs.push(Timed { seed, got, raw_s });
    }
    let rss = crate::peak_rss_mb();

    // Checks, outside the timed phase: pinned digests for the default
    // seed, otherwise a serial run of the same spec. Serial references
    // run two at a time.
    let expected = parallel_map(runs.len(), 2, |i| {
        match grid.pinned.get(i).filter(|_| args.seed == DEFAULT_SEED) {
            Some(&d) => Expected::Digest(d),
            None => Expected::Serial(
                chip.sweep()
                    .grid((grid.spec)(runs[i].seed))
                    .threads(1)
                    .run(),
            ),
        }
    });
    let mut out = Outcome {
        attempted,
        ..Outcome::default()
    };
    for (run, exp) in runs.iter().zip(&expected) {
        out.failed += failed_cells(cells(&(grid.spec)(run.seed)), &run.got, exp);
    }

    let f = kernel.factor();
    let setup_s = stats::median(&setup_raw);
    out.normalized("setup_s", setup_s * f, setup_s, "s");
    let grid_s: Vec<f64> = runs.iter().map(|r| r.raw_s).collect();
    let sweep_s = stats::median(&grid_s);
    out.normalized("sweep_s", sweep_s * f, sweep_s, "s");
    out.metric("peak_rss_mb", rss, "MB");
    out.note(format!(
        "{} grids of {} cells on {} thread(s); grid time spread within the run {:.1}% \
         (seeds differ, so their work does)",
        runs.len(),
        cells(&(grid.spec)(0)),
        grid.threads,
        100.0 * stats::spread(&grid_s),
    ));
    if args.seed == DEFAULT_SEED {
        let digests: Vec<String> = runs
            .iter()
            .filter_map(|r| r.got.as_ref().ok())
            .map(|(_, json)| format!("{:#018x}", fnv64(json.as_bytes())))
            .collect();
        out.note(format!(
            "report digests for the default seed: {}",
            digests.join(", ")
        ));
    }
    out.note(kernel.summary());
    out
}

fn traced(grid: &Grid, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new();
    let mut ledger = Ledger {
        threads: grid.threads,
        ..Ledger::default()
    };
    let (chip_s, chip) = setup();
    ledger.chip_s = chip_s;

    let mut seeds = crate::op_seeds(args.seed, grid.name);
    let mut first: Option<(SweepSpec, SweepReport, String)> = None;
    let start = Instant::now();
    while out.attempted == 0 || start.elapsed() < args.seconds {
        let seed = seeds.next().expect("seed stream is endless");
        let spec = (grid.spec)(seed);
        out.attempted += cells(&spec);
        let t0 = Instant::now();
        let got = sweep(&chip, spec.clone(), grid.threads);
        let makespan = t0.elapsed().as_secs_f64();
        // The untraced serial run is the replay's timing baseline; on more
        // than one thread it is also the reference the report must match.
        let serial_s = if grid.threads > 1 {
            let t0 = Instant::now();
            let serial = chip.sweep().grid(spec.clone()).threads(1).run();
            let serial_s = t0.elapsed().as_secs_f64();
            out.failed += failed_cells(cells(&spec), &got, &Expected::Serial(serial));
            serial_s
        } else {
            out.failed += got.as_ref().map_or(cells(&spec), |(r, _)| incomplete(r));
            makespan
        };
        let Ok((report, json)) = got else {
            continue;
        };
        ledger.cells_failed += incomplete(&report);
        ledger.retries += retries(&report);
        let rep = replay::replay(&chip, &spec, &report, &mut rec);
        out.failed += rep.mismatches as u64;
        ledger.reps.push(rep);
        ledger.makespan_s.push(makespan);
        ledger.serial_s.push(serial_s);
        match probes::json_probe(&report) {
            Ok(j) => ledger.json.push(j),
            Err(e) => {
                out.note(format!("json probe failed: {e}"));
                out.failed += 1;
            }
        }
        if first.is_none() {
            first = Some((spec, report, json));
        }
    }
    let (spec, report, json) = first.expect("no grid of the traced run completed");

    // The layers this workload's operations bypass, measured once on its
    // first grid: served by an in-process daemon, journaled as a
    // checkpointed sweep would journal it, and created in a job store.
    let state = args.dir.join("store");
    let body = probes::submission(&spec);
    let session = daemon::with_daemon(daemon::config(&state, grid.threads), |addr| {
        let t0 = Instant::now();
        let job = daemon::run_job(addr, &body);
        let at = (t0, Instant::now());
        let t0 = Instant::now();
        let health = daemon::request(addr, "GET", "/health", None);
        (job, at, (t0, Instant::now()), health)
    });
    out.attempted += cells(&spec);
    match session {
        Ok(((job, at, health_at, health), ready_s)) => {
            ledger.ready_s.push(ready_s);
            ledger.http.add(&job, at, &mut rec);
            if health.as_ref().is_ok_and(|h| h.is_2xx()) {
                ledger
                    .http
                    .health_s
                    .push(health_at.1.duration_since(health_at.0).as_secs_f64());
                rec.record("serve.health", health_at, None);
            } else {
                ledger.http.non2xx += 1;
            }
            if !job.ok || job.report != format!("{json}\n").into_bytes() {
                out.note(format!(
                    "daemon report differs from the direct run ({:?})",
                    job.error
                ));
                out.failed += cells(&spec);
            }
        }
        Err(e) => {
            out.note(format!("daemon session failed: {e}"));
            out.failed += cells(&spec);
        }
    }
    layers::probe(&mut out, &mut ledger, args, &spec, &report, &state);
    ledger.emit(&mut out);
    layers::write_spans(&mut out, &rec, args);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_spec(seed: u64) -> SweepSpec {
        SweepSpec {
            apps: vec![AppId::Fft],
            server_loads: vec![100_000],
            core_counts: vec![1, 2, 4],
            scale: Scale::Test,
            seed,
        }
    }

    #[test]
    fn a_perturbed_digest_is_a_failed_operation() {
        let chip = chip();
        let spec = test_spec(7);
        let total = cells(&spec);
        let got = sweep(&chip, spec, 1);
        let digest = fnv64(got.as_ref().unwrap().1.as_bytes());
        assert_eq!(failed_cells(total, &got, &Expected::Digest(digest)), 0);
        assert_eq!(
            failed_cells(total, &got, &Expected::Digest(digest ^ 1)),
            total
        );
    }

    #[test]
    fn a_differing_cell_is_a_failed_operation() {
        let chip = chip();
        let got = sweep(&chip, test_spec(7), 1);
        let mut reference = got.as_ref().unwrap().0.clone();
        let total = cells(&test_spec(7));
        assert_eq!(
            failed_cells(total, &got, &Expected::Serial(Ok(reference.clone()))),
            0
        );
        if let CellOutcome::Completed { row, .. } = &mut reference.cells[1].1 {
            row.power_watts = f64::from_bits(row.power_watts.to_bits() + 1);
        }
        assert_eq!(
            failed_cells(total, &got, &Expected::Serial(Ok(reference))),
            1
        );
    }

    #[test]
    fn traced_replay_reproduces_the_untraced_rows() {
        let chip = chip();
        let spec = test_spec(11);
        let (report, _) = sweep(&chip, spec.clone(), 2).unwrap();
        let mut rec = Recorder::new();
        let rep = replay::replay(&chip, &spec, &report, &mut rec);
        assert_eq!(rep.mismatches, 0);
        assert!(rep.instructions > 0 && rep.cycles > 0 && rep.ops > 0);
        assert!(rep.unattributed_s >= 0.0 && rep.unattributed_s < rep.wall_s);
        // A report of another seed does not match the replay.
        let (other, _) = sweep(&chip, test_spec(12), 1).unwrap();
        let mut rec = Recorder::new();
        assert!(replay::replay(&chip, &spec, &other, &mut rec).mismatches > 0);
    }

    #[test]
    fn op_seeds_are_distinct_and_repeatable() {
        let a: Vec<u64> = crate::op_seeds(5, "fig3-wait").take(50).collect();
        let b: Vec<u64> = crate::op_seeds(5, "fig3-wait").take(50).collect();
        assert_eq!(a, b);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), a.len());
        assert_ne!(a[0], crate::op_seeds(6, "fig3-wait").next().unwrap());
    }
}
