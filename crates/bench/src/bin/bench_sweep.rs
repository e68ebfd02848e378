//! Serial-vs-parallel sweep benchmark.
//!
//! Runs the same supervised fig. 3 sweep once with one worker thread and
//! once with all available cores, verifies the two reports are
//! byte-identical (the engine's contract), and records both wall-clock
//! times — plus the speedup — into `BENCH_sweep.json` at the repository
//! root.
//!
//! `cargo run --release -p tlp-bench --bin bench_sweep [--quick]`
//!
//! The speedup is bounded by the machine: on a single-core container the
//! parallel run degenerates to serial plus scheduling overhead, and the
//! JSON records exactly that.

use cmp_tlp::prelude::*;
use tlp_bench::{scale_from_args, SEED};
use tlp_sim::ChipSpec;
use tlp_tech::json::{Json, ToJson};
use tlp_tech::Technology;

fn main() {
    let scale = scale_from_args();
    let apps = vec![
        AppId::WaterNsq,
        AppId::Fft,
        AppId::Radix,
        AppId::Lu,
        AppId::Ocean,
        AppId::Barnes,
    ];
    let spec = SweepSpec::fig3(apps, scale, SEED);

    eprintln!(
        "bench_sweep: {} apps x {} core counts at {scale:?} scale",
        spec.apps.len(),
        spec.core_counts.len()
    );
    let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());

    let serial = chip
        .sweep()
        .grid(spec.clone())
        .threads(1)
        .run()
        .expect("serial sweep");
    eprintln!("  serial   : {}", serial.timing.summary());

    let parallel = chip
        .sweep()
        .grid(spec.clone())
        .run()
        .expect("parallel sweep");
    eprintln!("  parallel : {}", parallel.timing.summary());

    assert_eq!(
        serial.to_json().to_string_compact(),
        parallel.to_json().to_string_compact(),
        "parallel sweep output must be byte-identical to serial"
    );

    let speedup = serial.timing.total_seconds / parallel.timing.total_seconds;
    eprintln!(
        "  speedup  : {speedup:.2}x on {} worker thread(s)",
        parallel.timing.threads
    );

    let json = Json::object([
        ("benchmark", Json::from("sweep_serial_vs_parallel")),
        ("scale", Json::from(format!("{scale:?}").to_lowercase())),
        ("apps", Json::from(spec.apps.len())),
        ("cells", Json::from(serial.cells.len())),
        (
            "available_parallelism",
            Json::from(cmp_tlp::pool::default_workers()),
        ),
        ("serial_seconds", Json::from(serial.timing.total_seconds)),
        ("parallel_threads", Json::from(parallel.timing.threads)),
        (
            "parallel_seconds",
            Json::from(parallel.timing.total_seconds),
        ),
        ("speedup", Json::from(speedup)),
        ("outputs_identical", Json::from(true)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    std::fs::write(path, json.to_string_pretty() + "\n").expect("write BENCH_sweep.json");
    eprintln!("  wrote {path}");
}
