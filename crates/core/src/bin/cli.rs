//! `cmp-tlp` — command-line front end to the reproduction.
//!
//! ```console
//! $ cmp-tlp table1                      # the modeled CMP (Table 1)
//! $ cmp-tlp apps                        # the workload suite (Table 2)
//! $ cmp-tlp profile fmm 1 2 4 8         # nominal parallel efficiency
//! $ cmp-tlp scenario1 ocean             # iso-performance (one Fig. 3 row group)
//! $ cmp-tlp scenario2 radix             # budget-constrained (one Fig. 4 group)
//! $ cmp-tlp measure water-nsq 4 1.6     # run + power/thermal at 1.6 GHz
//! ```
//!
//! Add `--json` for machine-readable output and `--paper` for full
//! experiment scale (default is the fast quarter scale). `sweep` and
//! `check` accept `--trace PATH` (Chrome `trace_event` JSON, loadable in
//! Perfetto) and `--trace-summary` (aggregate table on stderr). `sweep`
//! additionally accepts `--checkpoint PATH` / `--resume PATH` (a
//! crash-safe cell journal: kill the run, resume it, get byte-identical
//! output) and `--cell-deadline SECS` (per-cell watchdog).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use cmp_tlp::check::prop::{run_suite, CheckConfig, SuiteReport};
use cmp_tlp::cli_args::{
    parse_core_count, parse_core_counts, parse_u64_flag, take_flag, take_value,
};
use cmp_tlp::jsonout;
use cmp_tlp::prelude::*;
use cmp_tlp::serve::jobs::{app_from_name, JobRecord};
use cmp_tlp::serve::{ServeConfig, Server};
use cmp_tlp::shard::{run_worker, WorkerConfig};
use cmp_tlp::{checks, report, scenario1, scenario2};
use tlp_sim::{ChipSpec, CmpConfig};
use tlp_tech::json::{Json, ToJson};
use tlp_tech::units::Hertz;
use tlp_tech::{OperatingPoint, Technology};
use tlp_workloads::gang;

/// A CLI failure: the full causal chain, outermost message first.
///
/// Typed errors arrive with their [`std::error::Error::source`] chain
/// flattened by [`error_chain`]; ad-hoc string errors are a chain of one.
#[derive(Debug)]
struct CliError {
    chain: Vec<String>,
}

impl CliError {
    /// Flattens any typed error (and its causes) into a [`CliError`].
    fn chained(e: &(dyn std::error::Error + 'static)) -> Self {
        Self {
            chain: error_chain(e),
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        Self { chain: vec![msg] }
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        Self {
            chain: vec![msg.to_owned()],
        }
    }
}

impl From<ExperimentError> for CliError {
    fn from(e: ExperimentError) -> Self {
        Self::chained(&e)
    }
}

fn parse_app(name: &str) -> Result<AppId, String> {
    app_from_name(name).ok_or_else(|| {
        format!(
            "unknown application '{name}' (expected one of: {})",
            AppId::ALL
                .iter()
                .map(|a| a.name())
                .collect::<Vec<_>>()
                .join(", ")
        )
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: cmp-tlp [--json] [--paper] <command>\n\
         commands:\n\
           table1                         print the modeled CMP configuration\n\
           apps                           print the workload suite\n\
           calibration                    print the §3.3 calibration numbers\n\
           profile <app> [N...]           nominal parallel efficiency (default N = 1 2 4 8 16)\n\
           scenario1 <app> [N...]         iso-performance power optimization\n\
           scenario2 <app> [N...]         budget-constrained performance optimization\n\
           sweep <app> [app...]           supervised fig. 3 sweep (failures reported per cell)\n\
                                          add --server-load RPS (repeatable) for open-loop\n\
                                          server rows with request-latency percentiles\n\
           serve --state-dir DIR          sweep-as-a-service HTTP daemon (see serve options)\n\
           work --coordinator URL         worker loop for a sharded sweep: claims leases\n\
                                          from a serve daemon (POST /shards creates one),\n\
                                          computes ranges, uploads journal segments\n\
           measure <app> <N> <GHz>        run and measure one configuration\n\
           check                          run the property-based differential oracle suite\n\
           validate-trace <path>          parse a --trace file and verify its structure\n\
         sweep/check options:\n\
           --threads N                    worker threads (default: all cores; output is\n\
                                          byte-identical for any N; timing goes to stderr)\n\
           --trace PATH                   write a Chrome trace_event JSON file (Perfetto)\n\
           --trace-summary                print an aggregate span/counter table to stderr\n\
         sweep options:\n\
           --cores LIST                   comma-separated core-count axis (default\n\
                                          1,2,4,8,16; the n=1 anchor is always included)\n\
           --core-mix BIG:LITTLE          run on a heterogeneous big.LITTLE chip (BIG\n\
                                          4-wide cores at base clock, LITTLE 2-wide at\n\
                                          half clock) instead of the homogeneous 16-way\n\
           --budget AREA_MM2:TDP_WATTS    arm dark-silicon budget axes: every completed\n\
                                          cell also reports how many such cores fit and\n\
                                          the dark-silicon ratio\n\
           --checkpoint PATH              journal each settled cell to PATH (crash-safe;\n\
                                          Ctrl-C flushes the journal and prints the\n\
                                          exact --resume command)\n\
           --resume PATH                  resume from an existing journal, splicing\n\
                                          completed cells instead of re-running them\n\
                                          (output stays byte-identical to an\n\
                                          uninterrupted run)\n\
           --cell-deadline SECS           per-cell watchdog deadline in seconds\n\
                                          (fractional allowed); hung cells become typed\n\
                                          failures while the sweep keeps draining\n\
         serve options:\n\
           --addr HOST:PORT               listen address (default 127.0.0.1:7070; port 0\n\
                                          picks an ephemeral port)\n\
           --state-dir DIR                durable job records + cell journals; rescanned\n\
                                          on startup so unfinished jobs resume\n\
           --max-jobs N                   sweeps running concurrently (default 2)\n\
           --queue N                      queued jobs before submissions shed with 429\n\
                                          (default 8)\n\
           --http-workers N               concurrent connection handlers (default 4)\n\
           --rate R / --burst B           per-IP token bucket: R requests/s, burst B\n\
                                          (default 20/40; 0 disables)\n\
           --max-body BYTES               request body cap (default 1 MiB)\n\
           --request-deadline SECS        read/write deadline per request (default 10)\n\
           --cell-deadline SECS           per-cell watchdog for daemon-run sweeps\n\
           --api-key KEY                  require Authorization: Bearer KEY on POST /sweeps\n\
         work options:\n\
           --coordinator HOST:PORT        the serve daemon to claim leases from (required)\n\
           --shard ID                     pin to one shard (default: discover open shards)\n\
           --name NAME                    worker name shown in shard status views\n\
           --poll SECS                    idle poll interval while waiting for leases\n\
                                          (default 0.5; fractional allowed)\n\
           --max-leases N                 exit after completing N leases (default: run\n\
                                          until the work is done)\n\
           --work-dir DIR                 scratch directory for per-lease journals\n\
           --api-key KEY                  sent as x-api-key with every request\n\
         check options:\n\
           --seed N                       run seed (decimal or 0x hex; default 0xD1CE)\n\
           --cases M                      cases per cheap property (default 256)\n\
           --oracle NAME                  run only the named oracle\n\
           --replay SEED                  replay one case seed from a failure report\n\
                                          (requires --oracle)\n\
           --report PATH                  also write the JSON report to PATH\n\
         exit codes: 0 success, 1 experiment/property failure, 2 usage error,\n\
                     130 interrupted by SIGINT/SIGTERM (journals flushed; resumable)"
    );
    std::process::exit(2)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let common = match CommonArgs::parse(&mut args, ScaleDefault::Small) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    if args.is_empty() {
        usage();
    }

    let cmd = args.remove(0);
    let tech = Technology::itrs_65nm();
    if let Err(err) = run_command(&cmd, &args, &common, tech) {
        // In --json mode failures are data, not a backtrace: emit a
        // structured error object on stdout so pipelines can parse it.
        // `error` keeps the outermost message for existing consumers;
        // `error_chain` adds every underlying cause, outermost first.
        if common.json {
            let first = err.chain.first().cloned().unwrap_or_default();
            println!(
                "{}",
                Json::object([
                    ("error", Json::from(first)),
                    ("error_chain", Json::array(&err.chain, |s| s.clone())),
                ])
                .to_string_pretty()
            );
        } else {
            let mut causes = err.chain.iter();
            if let Some(first) = causes.next() {
                eprintln!("error: {first}");
            }
            for cause in causes {
                eprintln!("  caused by: {cause}");
            }
        }
        std::process::exit(1);
    }
}

/// The positional `[N...]` of `profile`, `scenario1` and `scenario2`.
fn core_counts(args: &[String]) -> Result<Vec<usize>, String> {
    if args.is_empty() {
        return Ok(vec![1, 2, 4, 8, 16]);
    }
    parse_core_counts("core count", args.iter().map(String::as_str))
}

fn run_command(
    cmd: &str,
    args: &[String],
    common: &CommonArgs,
    tech: Technology,
) -> Result<(), CliError> {
    let scale = common.scale;
    let json = common.json;
    match cmd {
        "table1" => {
            print!("{}", report::table1(&CmpConfig::ispass05(16), &tech));
            Ok(())
        }
        "apps" => {
            print!("{}", report::table2());
            Ok(())
        }
        "calibration" => {
            let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), tech);
            let cal = chip.calibration();
            if json {
                println!("{}", jsonout::calibration_json(&cal).to_string_pretty());
            } else {
                println!("renormalization ratio : {:.4}", cal.renorm);
                println!(
                    "core dynamic max      : {:.2} W",
                    cal.core_dynamic_max.as_f64()
                );
                println!(
                    "single-core budget    : {:.2} W",
                    cal.single_core_budget.as_f64()
                );
            }
            Ok(())
        }
        "profile" => {
            let (app, rest) = split_app(args)?;
            let counts = core_counts(rest)?;
            let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), tech);
            let p = profile(&chip, app, &counts, scale, DEFAULT_SEED);
            if json {
                println!("{}", p.to_json().to_string_pretty());
            } else {
                println!("{} nominal parallel efficiency:", app.name());
                for (n, e) in p.core_counts.iter().zip(&p.efficiencies) {
                    println!("  N={n:<3} εn = {e:.3}  (speedup {:.2})", *n as f64 * e);
                }
            }
            Ok(())
        }
        "scenario1" => {
            let (app, rest) = split_app(args)?;
            let counts = core_counts(rest)?;
            let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), tech);
            let r = scenario1::try_run(&chip, app, &counts, scale, DEFAULT_SEED)?;
            if json {
                println!("{}", r.to_json().to_string_pretty());
            } else {
                print!("{}", report::fig3(std::slice::from_ref(&r)));
            }
            Ok(())
        }
        "scenario2" => {
            let (app, rest) = split_app(args)?;
            let counts = core_counts(rest)?;
            let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), tech);
            let p = profile(&chip, app, &counts, scale, DEFAULT_SEED);
            let r = scenario2::try_run(&chip, &p, scale, DEFAULT_SEED, None)?;
            if json {
                println!("{}", r.to_json().to_string_pretty());
            } else {
                print!("{}", report::fig4(std::slice::from_ref(&r)));
            }
            Ok(())
        }
        "sweep" => {
            let mut args = args.to_vec();
            let checkpoint = take_value(&mut args, "--checkpoint")?;
            let resume = take_value(&mut args, "--resume")?;
            if checkpoint.is_some() && resume.is_some() {
                return Err("--checkpoint and --resume are mutually exclusive \
                            (--resume reopens an existing journal and keeps appending)"
                    .into());
            }
            let deadline_arg = take_value(&mut args, "--cell-deadline")?;
            let deadline = deadline_arg
                .as_deref()
                .map(|v| parse_secs_flag("--cell-deadline", v))
                .transpose()?;
            // The chip-shape axes (--cores, --server-load, --core-mix,
            // --budget) share one dialect with serve submissions and
            // resume recipes.
            let chip_args = ChipArgs::parse(&mut args)?;
            if args.is_empty() && chip_args.server_loads.is_empty() {
                return Err("sweep needs at least one application or --server-load".into());
            }
            let apps = args
                .iter()
                .map(|a| parse_app(a))
                .collect::<Result<Vec<_>, _>>()?;
            let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), tech);
            let fig3 = SweepSpec::fig3(apps, scale, DEFAULT_SEED);
            let counts = chip_args.cores.clone().unwrap_or(fig3.core_counts);
            let mut job = JobRecord::new(fig3.apps, counts, scale, DEFAULT_SEED);
            job.server_loads = chip_args.server_loads.clone();
            job.core_mix = chip_args.core_mix;
            job.budget = chip_args.budget;
            let mut builder = job
                .sweep(&chip)
                .threads(common.threads)
                .trace(common.sink());
            if let Some(d) = deadline {
                builder = builder.cell_deadline(d);
            }
            if let Some(path) = &checkpoint {
                builder = builder.checkpoint(path);
            }
            if let Some(path) = &resume {
                builder = builder.resume(path);
            }
            // Ctrl-C and SIGTERM are only worth catching when there is a
            // journal to keep: without one the default disposition (die)
            // is right.
            let journal_path = checkpoint.or(resume);
            if journal_path.is_some() {
                builder = builder.interrupt(install_interrupt_flag());
            }
            let report = match builder.run() {
                Ok(r) => r,
                Err(ExperimentError::Interrupted(info)) => {
                    let path = journal_path.expect("interrupt handler implies a journal");
                    eprintln!("sweep interrupted: {info}; every settled outcome is journaled");
                    eprintln!(
                        "resume with:\n  {}",
                        resume_recipe(&args, &chip_args, common, &deadline_arg, &path)
                    );
                    // 128 + SIGINT, the conventional "killed by Ctrl-C"
                    // status, so wrappers can tell "resumable" from
                    // "failed".
                    std::process::exit(130);
                }
                Err(e) => return Err(e.into()),
            };
            // What a reopened journal recovered, and the wall clock, are
            // run records, not results: they go to stderr and the JSON
            // payload excludes them, so --json stdout is byte-identical
            // for any --threads and any resume. (The human listing below
            // does show per-cell seconds — it is for reading, not
            // diffing.)
            if let (Some(recovery), Some(path)) = (&report.timing.recovery, &journal_path) {
                eprintln!("{}", recovery.summary(std::path::Path::new(path)));
            }
            eprintln!("{}", report.timing.summary());
            if json {
                println!("{}", report.to_json().to_string_pretty());
            } else {
                print!("{}", report::sweep_cells(&report));
                println!("{}", report.summary());
            }
            // Lost cells — failed or quarantined — are an experiment
            // failure even though the sweep itself ran to completion.
            if report.failed().next().is_some() || report.quarantined().next().is_some() {
                std::process::exit(1);
            }
            Ok(())
        }
        "serve" => run_serve(args, common),
        "work" => run_work(args, common),
        "check" => run_check(args, common),
        "validate-trace" => validate_trace(args),
        "measure" => {
            let (app, rest) = split_app(args)?;
            if rest.len() != 2 {
                return Err("measure needs <app> <N> <GHz>".into());
            }
            let n = parse_core_count("core count", &rest[0])?;
            let ghz: f64 = rest[1].parse().map_err(|_| "bad frequency")?;
            let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), tech.clone());
            WorkloadId::App(app).check_runnable(&chip, n)?;
            let f = Hertz::from_ghz(ghz);
            let v = chip
                .dvfs()
                .voltage_for(f)
                .map_err(|e| CliError::chained(&e))?;
            let op = OperatingPoint {
                frequency: f,
                voltage: v,
            };
            let run = chip.try_run(gang(app, n, scale, DEFAULT_SEED), op)?;
            let m = chip.try_measure(&run, v, &tlp_thermal::FixpointOptions::default())?;
            if json {
                println!("{}", m.to_json().to_string_pretty());
            } else {
                println!("{} on {} core(s) at {} :", app.name(), n, op);
                println!(
                    "  wall clock : {:.3} ms",
                    run.execution_time().as_f64() * 1e3
                );
                println!("  IPC        : {:.2}", run.ipc());
                println!("  dynamic    : {:.2} W", m.dynamic.as_f64());
                println!("  static     : {:.2} W", m.static_.as_f64());
                println!("  total      : {:.2} W", m.total().as_f64());
                println!("  avg temp   : {:.1} °C", m.avg_core_temp().as_f64());
                println!("  density    : {:.3} W/mm²", m.power_density.as_w_per_mm2());
            }
            Ok(())
        }
        _ => usage(),
    }
}

/// Parses a positive-seconds flag value into a `Duration`.
fn parse_secs_flag(flag: &str, value: &str) -> Result<Duration, String> {
    let secs: f64 = value.parse().map_err(|_| format!("bad {flag} '{value}'"))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!(
            "{flag} must be a positive number of seconds, got '{value}'"
        ));
    }
    Duration::try_from_secs_f64(secs)
        .map_err(|_| format!("{flag} '{value}' is too long to represent as a duration"))
}

/// The `serve` subcommand: the sweep-as-a-service daemon. Runs until
/// SIGINT/SIGTERM, then drains: stops accepting, interrupts running
/// sweeps at the next cell boundary (journals flush), and exits 0 when
/// every job finished or 130 when unfinished jobs remain — restarting
/// with the same `--state-dir` resumes them.
fn run_serve(args: &[String], common: &CommonArgs) -> Result<(), CliError> {
    let mut args = args.to_vec();
    let addr = take_value(&mut args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let state_dir = take_value(&mut args, "--state-dir")?
        .ok_or("serve needs --state-dir DIR (durable job state and journals)")?;
    let mut config = ServeConfig::new(addr, state_dir);
    config.job_threads = common.threads;

    let parse_usize = |flag: &str, v: String| -> Result<usize, String> {
        v.parse::<usize>().map_err(|_| format!("bad {flag} '{v}'"))
    };
    let parse_f64 = |flag: &str, v: String| -> Result<f64, String> {
        match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
            _ => Err(format!("bad {flag} '{v}'")),
        }
    };
    if let Some(v) = take_value(&mut args, "--max-jobs")? {
        config.max_active_jobs = parse_usize("--max-jobs", v)?.max(1);
    }
    if let Some(v) = take_value(&mut args, "--queue")? {
        config.queue_capacity = parse_usize("--queue", v)?;
    }
    if let Some(v) = take_value(&mut args, "--http-workers")? {
        config.http_workers = parse_usize("--http-workers", v)?.max(1);
    }
    if let Some(v) = take_value(&mut args, "--rate")? {
        config.rate_per_sec = parse_f64("--rate", v)?;
    }
    if let Some(v) = take_value(&mut args, "--burst")? {
        config.burst = parse_f64("--burst", v)?;
    }
    if let Some(v) = take_value(&mut args, "--max-body")? {
        config.max_body_bytes = parse_usize("--max-body", v)?;
    }
    if let Some(v) = take_value(&mut args, "--request-deadline")? {
        config.request_deadline = parse_secs_flag("--request-deadline", &v)?;
    }
    if let Some(v) = take_value(&mut args, "--cell-deadline")? {
        config.cell_deadline = Some(parse_secs_flag("--cell-deadline", &v)?);
    }
    config.api_key = take_value(&mut args, "--api-key")?;
    if let Some(unknown) = args.first() {
        return Err(format!("unknown serve option '{unknown}'").into());
    }

    config.shutdown = install_interrupt_flag();
    let server = Server::bind(config).map_err(|e| CliError::chained(&e))?;
    eprintln!(
        "serve: listening on http://{} (SIGINT/SIGTERM drains and preserves resumable state)",
        server.local_addr()
    );
    let outcome = server.run().map_err(|e| CliError::chained(&e))?;
    eprintln!(
        "serve: drained; {} completed, {} failed, {} resumable",
        outcome.jobs_completed, outcome.jobs_failed, outcome.jobs_unfinished
    );
    if outcome.jobs_unfinished > 0 {
        // Same convention as an interrupted sweep: "resumable" is
        // distinguishable from "failed" for wrappers.
        std::process::exit(130);
    }
    Ok(())
}

/// The `work` subcommand: the distributed-sweep worker loop. Claims
/// work-range leases from a coordinating serve daemon, computes each
/// range through the ordinary sweep engine with a local journal, and
/// uploads checksummed segments until the shard completes (exit 0) or
/// SIGINT/SIGTERM lands (exit 0 after the current lease; the lease
/// either uploads or expires and is reassigned).
fn run_work(args: &[String], common: &CommonArgs) -> Result<(), CliError> {
    let mut args = args.to_vec();
    let coordinator = take_value(&mut args, "--coordinator")?
        .ok_or("work needs --coordinator HOST:PORT (a running cmp-tlp serve)")?;
    let coordinator = coordinator
        .strip_prefix("http://")
        .unwrap_or(&coordinator)
        .trim_end_matches('/')
        .to_string();
    let shard = take_value(&mut args, "--shard")?;
    let name = take_value(&mut args, "--name")?
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    let poll = match take_value(&mut args, "--poll")? {
        Some(v) => parse_secs_flag("--poll", &v)?,
        None => Duration::from_millis(500),
    };
    let max_leases = take_value(&mut args, "--max-leases")?
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("bad --max-leases '{v}'"))
        })
        .transpose()?;
    let work_dir = take_value(&mut args, "--work-dir")?
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("cmp-tlp-work-{}", std::process::id()))
        });
    let api_key = take_value(&mut args, "--api-key")?;
    // Test hook, deliberately undocumented: die like kill -9 after
    // computing a range but before uploading it, so fault-tolerance
    // tests can stage a worker death at the worst possible moment.
    let chaos_abort_before_upload = take_flag(&mut args, "--chaos-abort-before-upload");
    if let Some(unknown) = args.first() {
        return Err(format!("unknown work option '{unknown}'").into());
    }

    let config = WorkerConfig {
        coordinator,
        shard,
        name,
        threads: common.threads,
        poll,
        max_leases,
        work_dir,
        api_key,
        chaos_abort_before_upload,
        interrupt: Some(install_interrupt_flag()),
    };
    let summary = run_worker(&config).map_err(|e| CliError::chained(&e))?;
    eprintln!(
        "work: done; {} lease(s), {} segment(s) uploaded, {} duplicate(s)",
        summary.leases, summary.segments, summary.duplicates
    );
    Ok(())
}

/// The `check` subcommand: runs the differential oracle suite (or one
/// oracle, or one replayed case) and reports per-property outcomes.
/// With `--trace`/`--trace-summary` the whole run is captured and the
/// per-property spans and case counters go to the requested sinks.
fn run_check(args: &[String], common: &CommonArgs) -> Result<(), CliError> {
    let mut config = CheckConfig::default();
    let mut oracle: Option<String> = None;
    let mut replay: Option<u64> = None;
    let mut report_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => config.seed = parse_u64_flag("--seed", it.next())?,
            "--cases" => config.cases = parse_u64_flag("--cases", it.next())?,
            "--oracle" => oracle = Some(it.next().ok_or("--oracle needs a name")?.clone()),
            "--replay" => replay = Some(parse_u64_flag("--replay", it.next())?),
            "--report" => report_path = Some(it.next().ok_or("--report needs a path")?.clone()),
            other => return Err(format!("unknown check option '{other}'").into()),
        }
    }

    let mut props = checks::suite();
    if let Some(name) = &oracle {
        let known: Vec<&str> = props.iter().map(|p| p.name()).collect();
        props.retain(|p| p.name() == name);
        if props.is_empty() {
            return Err(format!(
                "unknown oracle '{name}' (expected one of: {})",
                known.join(", ")
            )
            .into());
        }
    }

    let run_props = |props: &[cmp_tlp::check::prop::Property],
                     config: &CheckConfig|
     -> Result<SuiteReport, CliError> {
        match replay {
            Some(case_seed) => {
                if oracle.is_none() {
                    return Err("--replay needs --oracle to name the property to replay".into());
                }
                Ok(SuiteReport {
                    seed: case_seed,
                    properties: props.iter().map(|p| p.replay(case_seed)).collect(),
                })
            }
            None => Ok(run_suite(props, config)),
        }
    };
    let sink = common.sink();
    let suite_report = if sink.is_active() {
        let (r, trace) = cmp_tlp::obs::capture(|| run_props(&props, &config));
        sink.emit(&trace)?;
        r?
    } else {
        run_props(&props, &config)?
    };

    if let Some(path) = &report_path {
        std::fs::write(path, suite_report.to_json().to_string_pretty())
            .map_err(|e| format!("cannot write report to {path}: {e}"))?;
    }
    if common.json {
        println!("{}", suite_report.to_json().to_string_pretty());
    } else {
        for pr in &suite_report.properties {
            if let Some(cx) = &pr.counterexample {
                println!("FAIL {} ({} cases)", pr.name, pr.cases);
                println!("{}", cx.render());
            } else {
                println!("PASS {} ({} cases)", pr.name, pr.cases);
            }
        }
    }
    if !suite_report.passed() {
        // Like a sweep with lost cells: the command ran, the models
        // disagreed.
        std::process::exit(1);
    }
    Ok(())
}

/// The `validate-trace` subcommand: parses a `--trace` output file with
/// the in-tree JSON parser and checks the Chrome `trace_event` shape —
/// a non-empty `traceEvents` array whose entries all carry a phase and a
/// name. CI runs this after a traced sweep to keep the emitter honest.
fn validate_trace(args: &[String]) -> Result<(), CliError> {
    let [path] = args else {
        return Err("validate-trace needs exactly one path".into());
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    let parsed = Json::parse(&text).map_err(|e| format!("trace {path} is not valid JSON: {e}"))?;
    let Json::Obj(pairs) = parsed else {
        return Err(format!("trace {path}: top level is not an object").into());
    };
    let Some(Json::Arr(events)) = pairs
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
    else {
        return Err(format!("trace {path}: missing traceEvents array").into());
    };
    if events.is_empty() {
        return Err(format!("trace {path}: traceEvents is empty").into());
    }
    let mut spans = 0usize;
    let mut counters = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let Json::Obj(fields) = ev else {
            return Err(format!("trace {path}: event {i} is not an object").into());
        };
        let field = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let Some(Json::Str(ph)) = field("ph") else {
            return Err(format!("trace {path}: event {i} has no phase").into());
        };
        let Some(Json::Str(_)) = field("name") else {
            return Err(format!("trace {path}: event {i} has no name").into());
        };
        match ph.as_str() {
            "X" => spans += 1,
            "C" => counters += 1,
            other => {
                return Err(format!("trace {path}: event {i} has unknown phase '{other}'").into())
            }
        }
    }
    println!("trace OK: {spans} span event(s), {counters} counter sample(s)");
    Ok(())
}

/// The cooperative interrupt flag shared between the signal handlers
/// and the sweep engine / serve daemon. A `OnceLock<Arc<_>>` so the
/// handler body is a plain atomic load + store — both
/// async-signal-safe — with no allocation.
static INTERRUPT_FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

extern "C" fn on_interrupt(_signum: i32) {
    if let Some(flag) = INTERRUPT_FLAG.get() {
        flag.store(true, Ordering::SeqCst);
    }
}

/// Installs SIGINT *and* SIGTERM handlers that raise (and return) the
/// cooperative interrupt flag instead of killing the process, so a
/// checkpointed sweep — or the serve daemon — can finish in-flight
/// cells, flush its journals, and print the resume recipe. Ctrl-C and
/// an orchestrator's `kill`/`docker stop` get identical
/// drain-and-resume behavior. Uses `signal(2)` through a raw
/// `extern "C"` declaration — the workspace deliberately has no libc
/// crate.
fn install_interrupt_flag() -> Arc<AtomicBool> {
    let flag = INTERRUPT_FLAG.get_or_init(|| Arc::new(AtomicBool::new(false)));
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: the handler only touches static atomics (no allocation,
    // no locks), and `signal` itself has no preconditions beyond a
    // valid handler pointer.
    unsafe {
        signal(SIGINT, on_interrupt);
        signal(SIGTERM, on_interrupt);
    }
    Arc::clone(flag)
}

/// The exact command line that resumes an interrupted sweep: the same
/// applications and flags the user gave, with the journal path moved
/// behind `--resume`. Printed verbatim so it can be pasted back.
fn resume_recipe(
    apps: &[String],
    chip: &ChipArgs,
    common: &CommonArgs,
    deadline: &Option<String>,
    journal: &str,
) -> String {
    let mut cmd = String::from("cmp-tlp sweep");
    for a in apps {
        cmd.push(' ');
        cmd.push_str(a);
    }
    // Chip-shape axes round-trip verbatim: a heterogeneous or budgeted
    // sweep resumes as exactly the same experiment.
    cmd.push_str(&chip.recipe_fragment());
    if common.scale == Scale::Paper {
        cmd.push_str(" --paper");
    }
    if common.json {
        cmd.push_str(" --json");
    }
    if common.threads != 0 {
        cmd.push_str(&format!(" --threads {}", common.threads));
    }
    if let Some(path) = &common.trace {
        cmd.push_str(&format!(" --trace {path}"));
    }
    if common.trace_summary {
        cmd.push_str(" --trace-summary");
    }
    if let Some(d) = deadline {
        cmd.push_str(&format!(" --cell-deadline {d}"));
    }
    cmd.push_str(&format!(" --resume {journal}"));
    cmd
}

fn split_app(args: &[String]) -> Result<(AppId, &[String]), String> {
    let Some((first, rest)) = args.split_first() else {
        return Err("missing application name".into());
    };
    Ok((parse_app(first)?, rest))
}
