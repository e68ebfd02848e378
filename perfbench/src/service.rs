//! The `service` workload: an in-process `cmp-tlp serve` daemon on
//! loopback, started on an empty state directory, and one client in a
//! closed loop. Each job submits a Test-scale grid (FFT and LU over the
//! paper's core counts), long-polls `GET /sweeps/{id}?wait=1` until the
//! job is terminal, and fetches `/report`. Simulation is small here, so
//! HTTP, the job store, the cell journal, JSON and the long-poll carry
//! most of the time. The store keeps every job, so its history grows by
//! one record per operation.

use std::time::Instant;

use cmp_tlp::workloads::{AppId, Scale};
use cmp_tlp::SweepSpec;

use crate::daemon::{self, Job};
use crate::grid::{self, parallel_map};
use crate::kernel::Reference;
use crate::layers::{self, Ledger};
use crate::spans::Recorder;
use crate::{probes, replay, stats, Args, Outcome};

/// Least jobs per run. At least 100 gives the printed 90th percentile
/// ten samples beyond it; 120 is more than the reference host completes
/// in a 20-second run, so the store's history, which each job's cost
/// grows with, ends at the same size in every run.
const MIN_JOBS: usize = 120;

/// Jobs between two reference-kernel samples.
const KERNEL_EVERY: usize = 4;

/// Jobs the traced run replays through the public functions.
const REPLAYS: usize = 5;

fn spec(seed: u64) -> SweepSpec {
    SweepSpec::fig3(vec![AppId::Fft, AppId::Lu], Scale::Test, seed)
}

struct Done {
    seed: u64,
    job: Job,
    at: (Instant, Instant),
    /// `/health` round trip after the job (traced run only).
    health: Option<(Instant, Instant, bool)>,
}

impl Done {
    fn latency_s(&self) -> f64 {
        self.at.1.duration_since(self.at.0).as_secs_f64()
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut kernel = Reference::new(1);

    // Set-up is bind → first 200 from /ready on an empty state directory:
    // once for the serving daemon, then again, on a daemon of its own,
    // with every kernel sample, so its median sees the same stretch of
    // host time as the jobs.
    kernel.sample();
    let store = args.dir.join("store");
    let mut seeds = crate::op_seeds(args.seed, "service");
    let ((done, rss, mut ready_s), ready) =
        daemon::with_daemon(daemon::config(&store, 1), |addr| {
            let mut done: Vec<Done> = Vec::new();
            let mut ready_s = Vec::new();
            let start = Instant::now();
            while start.elapsed() < args.seconds || done.len() < MIN_JOBS {
                let seed = seeds.next().expect("seed stream is endless");
                let body = probes::submission(&spec(seed));
                let t0 = Instant::now();
                let job = daemon::run_job(addr, &body);
                let at = (t0, Instant::now());
                let health = args.trace.then(|| {
                    let t0 = Instant::now();
                    let ok =
                        daemon::request(addr, "GET", "/health", None).is_ok_and(|r| r.is_2xx());
                    (t0, Instant::now(), ok)
                });
                if done.len().is_multiple_of(KERNEL_EVERY) {
                    kernel.sample();
                    let state = args.dir.join(format!("setup-{}", ready_s.len()));
                    let ((), ready) = daemon::with_daemon(daemon::config(&state, 1), |_| ())
                        .unwrap_or_else(|e| panic!("daemon set-up failed: {e}"));
                    ready_s.push(ready);
                }
                done.push(Done {
                    seed,
                    job,
                    at,
                    health,
                });
            }
            (done, crate::peak_rss_mb(), ready_s)
        })
        .unwrap_or_else(|e| panic!("daemon failed: {e}"));
    ready_s.push(ready);

    // Checks, outside the timed phase: every served report must be
    // byte-identical to a direct serial SweepBuilder run of its spec.
    let chip = grid::chip();
    let direct = parallel_map(done.len(), 2, |i| grid::sweep(&chip, spec(done[i].seed), 1));
    out.attempted = done.len() as u64;
    for (d, got) in done.iter().zip(&direct) {
        let same = got
            .as_ref()
            .is_ok_and(|(_, json)| d.job.report == format!("{json}\n").into_bytes());
        if !d.job.ok || !same {
            out.failed += 1;
        }
    }

    if args.trace {
        traced(&mut out, args, &done, ready_s);
    } else {
        let f = kernel.factor();
        let setup = stats::median(&ready_s);
        out.normalized("setup_s", setup * f, setup, "s");
        let lat: Vec<f64> = done.iter().map(Done::latency_s).collect();
        let med = stats::median(&lat);
        out.normalized("sweep_s", med * f, med, "s");
        out.metric("peak_rss_mb", rss, "MB");
        let ms: Vec<f64> = lat.iter().map(|s| s * 1e3).collect();
        let held: u32 = done.iter().map(|d| d.job.held_full).sum();
        out.note(format!(
            "job_ms_p50 {:.3} ms, job_ms_p90 {:.3} ms (raw wall clock over {} jobs; \
             ten samples beyond p90: {}); {} poll(s) held for the whole wait",
            stats::percentile(&ms, 50.0),
            stats::percentile(&ms, 90.0),
            done.len(),
            stats::supports(done.len(), 90.0),
            held,
        ));
        out.note(kernel.summary());
    }
    out
}

fn traced(out: &mut Outcome, args: &Args, done: &[Done], ready_s: Vec<f64>) {
    let mut rec = Recorder::new();
    let mut ledger = Ledger {
        threads: 1,
        ready_s,
        ..Ledger::default()
    };
    for d in done {
        ledger.http.add(&d.job, d.at, &mut rec);
        if let Some((t0, t1, ok)) = d.health {
            if ok {
                ledger
                    .http
                    .health_s
                    .push(t1.duration_since(t0).as_secs_f64());
                rec.record("serve.health", (t0, t1), None);
            } else {
                ledger.http.non2xx += 1;
            }
        }
    }
    let (chip_s, chip) = grid::setup();
    ledger.chip_s = chip_s;
    let mut first = None;
    for d in done.iter().take(REPLAYS) {
        // The untraced reference runs alone, right before its replay, so
        // the two timings see the same host.
        let spec = spec(d.seed);
        let t0 = Instant::now();
        let got = grid::sweep(&chip, spec.clone(), 1);
        let serial_s = t0.elapsed().as_secs_f64();
        // An operation here is a job: one whose replay cannot run or
        // differs from its untraced run fails once.
        let Ok((report, _)) = got else {
            out.failed += 1;
            continue;
        };
        let rep = replay::replay(&chip, &spec, &report, &mut rec);
        out.failed += u64::from(rep.mismatches > 0);
        ledger.reps.push(rep);
        ledger.makespan_s.push(serial_s);
        ledger.serial_s.push(serial_s);
        ledger.cells_failed += grid::incomplete(&report);
        ledger.retries += grid::retries(&report);
        match probes::json_probe(&report) {
            Ok(j) => ledger.json.push(j),
            Err(e) => {
                out.note(format!("json probe failed: {e}"));
                out.failed += 1;
            }
        }
        first.get_or_insert((spec, report));
    }
    let (spec, report) = first.expect("no untraced run of a job's spec completed");
    layers::probe(
        out,
        &mut ledger,
        args,
        &spec,
        &report,
        &args.dir.join("store"),
    );
    ledger.emit(out);
    layers::write_spans(out, &rec, args);
}
