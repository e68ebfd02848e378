//! The cmp-tlp benchmark: end-to-end metrics per workload, and in a
//! separate traced run, per-layer metrics timed from outside around the
//! calls into each module's public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig3-wait|server-rows|service --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable lines go to stdout first (every metric with its unit,
//! raw wall-clock figures beside normalized ones, the reference kernel's
//! spread); the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Scratch state lives under
//! `.perfbench/` in the working directory and is removed at exit,
//! except the traced run's span file. See RATIONALE.md for why each
//! workload and metric exists.

mod daemon;
mod grid;
mod kernel;
mod layers;
mod probes;
mod replay;
mod service;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::time::Duration;

use cmp_tlp::journal::fnv64;
use cmp_tlp::tech::rng::SplitMix64;
use stats::Metric;

/// The workload seed whose sweep reports have pinned digests (the CLI's
/// default seed).
pub const DEFAULT_SEED: u64 = cmp_tlp::cli_args::DEFAULT_SEED;

/// The workloads, as named on the command line.
pub const WORKLOADS: [&str; 3] = ["fig3-wait", "server-rows", "service"];

/// Repetitions of the traced run's set-up and job-store probes; the
/// median is reported. (Timed runs set up once per grid or per four jobs,
/// and at least this often.)
pub const SETUP_REPS: usize = 11;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory of this run.
    pub dir: PathBuf,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.lines.push(format!("{name:<28} {value:>14.6} {unit}"));
        self.metrics.push(Metric { name, value, unit });
    }

    /// A host-normalized metric, printed beside its raw wall-clock figure.
    pub fn normalized(&mut self, name: &'static str, value: f64, raw: f64, unit: &'static str) {
        self.lines.push(format!(
            "{name:<28} {value:>14.6} {unit}  (raw {raw:.6} {unit})"
        ));
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }
}

/// Distinct per-operation workload seeds drawn from the run's seed, so
/// no operation repeats another's inputs.
pub fn op_seeds(run_seed: u64, workload: &str) -> impl Iterator<Item = u64> {
    let mut rng = SplitMix64::seed_from_u64(run_seed ^ fnv64(workload.as_bytes()));
    let mut seen = std::collections::HashSet::new();
    std::iter::repeat_with(move || rng.next_u64()).filter(move |s| seen.insert(*s))
}

/// Peak resident set size of this process so far (VmHWM), MiB.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no VmHWM line (non-Linux hosts).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload fig3-wait|server-rows|service \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                seed = parsed.unwrap_or_else(|_| usage(&format!("bad seed {value}")));
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage(&format!("bad --seconds {value}")));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        dir: Path::new(".perfbench").join(format!("run-{}", std::process::id())),
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    }
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.dir).expect("create the run's scratch directory");
    let outcome = match args.workload.as_str() {
        "fig3-wait" => grid::run(&grid::FIG3_WAIT, &args),
        "server-rows" => grid::run(&grid::SERVER_ROWS, &args),
        _ => service::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.dir);
    println!(
        "workload {} seed {:#x} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    );
    for line in &outcome.lines {
        println!("{line}");
    }
    println!(
        "operations attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    println!(
        "{}",
        stats::result_line(outcome.attempted, outcome.failed, &outcome.metrics)
    );
}
