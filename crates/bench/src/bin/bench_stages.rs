//! Deterministic per-stage regression harness.
//!
//! Wall-clock is meaningless on a one-CPU CI container, so this
//! benchmark regresses on *counters* instead: simulated cycles that had
//! to be stepped one-by-one vs. jumped over with every core parked, core
//! cycles skipped by parked cores, LU factorizations and solves per
//! thermal measurement, fixpoint iterations, and sweep cell outcomes.
//! Every number is deterministic for a given seed and scale, so the
//! thresholds below are enforced in-process: the binary
//! writes `BENCH_stages.json` at the repository root and exits non-zero
//! if any stage regressed past its bound.
//!
//! `cargo run --release -p tlp-bench --bin bench_stages [--quick]`

use cmp_tlp::prelude::*;
use tlp_bench::SEED;
use tlp_sim::config::SleepPolicy;
use tlp_sim::{CmpConfig, CmpSimulator};
use tlp_tech::json::Json;
use tlp_tech::Technology;
use tlp_workloads::gang;

/// Pulls a counter out of a capture, defaulting to zero (absent means
/// the instrumented path never ran).
fn counter(trace: &tlp_obs::Trace, name: &str) -> u64 {
    trace.counter(name).unwrap_or(0)
}

/// Stage 1: the simulator loop on barrier/lock-heavy gangs. The same
/// gang runs once with core parking (the default) and once fully
/// stepped; results must be identical, the parked run must step
/// measurably fewer cycles one-by-one, its parked cores must skip at
/// least [`PARKED_FLOOR`] core cycles, and the host must look up at most
/// [`SNOOP_LOOKUP_CEILING`] remote L1 tags per snoop the bus charges.
/// Floor for `sim.core_cycles_parked` over the stage-1 gangs: 90% of the
/// 1 064 902 measured when parking landed (the counter is deterministic,
/// so only a change to what parks can move it).
const PARKED_FLOOR: u64 = 958_000;

/// Ceiling for `sim.snoop_tag_lookups` per `sim.snoops_charged` over the
/// stage-1 gangs. The bus charges n − 1 snoops per transaction, but the
/// host looks only in the L1s whose holder bits are set: 6 096 lookups
/// for 98 685 charged snoops (0.062) when the holder bits landed, against
/// 152 992 (1.55) for the broadcast they replaced.
const SNOOP_LOOKUP_CEILING: f64 = 0.25;

fn sim_stage(violations: &mut Vec<String>) -> Json {
    // Cholesky scales poorly (heavy barrier spin), Radix is lock-heavy;
    // the thrifty sleep policy adds the Asleep wait state to the mix.
    let apps = [AppId::Cholesky, AppId::Radix];
    let mut config = CmpConfig::ispass05(16);
    config.core.sleep = SleepPolicy::THRIFTY;

    let mut total_cycles = 0u64;
    let mut ff_cycles = 0u64;
    let mut stepped_without_ff = 0u64;
    let mut parked_total = 0u64;
    let mut charged_total = 0u64;
    let mut lookups_total = 0u64;
    let mut per_app = Vec::new();
    for app in apps {
        let run = |fast_forward: bool| {
            tlp_obs::capture(|| {
                CmpSimulator::new(config.clone(), gang(app, 16, Scale::Test, SEED))
                    .with_fast_forward(fast_forward)
                    .try_run(tlp_sim::chip::MAX_CYCLES)
            })
        };
        let (fast, fast_trace) = run(true);
        let (stepped, stepped_trace) = run(false);
        if format!("{fast:?}") != format!("{stepped:?}") {
            violations.push(format!(
                "sim: {} fast-forwarded result diverges from the stepped reference",
                app.name()
            ));
        }
        let cycles = counter(&fast_trace, "sim.cycles_retired");
        let ff = counter(&fast_trace, "sim.cycles_fast_forwarded");
        let parked = counter(&fast_trace, "sim.core_cycles_parked");
        let charged = counter(&fast_trace, "sim.snoops_charged");
        let lookups = counter(&fast_trace, "sim.snoop_tag_lookups");
        total_cycles += cycles;
        ff_cycles += ff;
        parked_total += parked;
        charged_total += charged;
        lookups_total += lookups;
        stepped_without_ff += counter(&stepped_trace, "sim.cycles_retired");
        per_app.push((
            app.name(),
            Json::object([
                ("cycles", Json::from(cycles)),
                ("fast_forwarded", Json::from(ff)),
                ("core_cycles_parked", Json::from(parked)),
                ("snoops_charged", Json::from(charged)),
                ("snoop_tag_lookups", Json::from(lookups)),
            ]),
        ));
    }
    let stepped_with_ff = total_cycles - ff_cycles;
    let ff_fraction = ff_cycles as f64 / total_cycles.max(1) as f64;
    let stepped_ratio = stepped_with_ff as f64 / stepped_without_ff.max(1) as f64;
    // Thresholds: on these gangs well over half the simulated cycles are
    // pure wait (measured ~0.8 fast-forwarded at Test scale); regress if
    // the fast path stops covering them.
    if ff_fraction < 0.5 {
        violations.push(format!(
            "sim: fast-forwarded fraction {ff_fraction:.3} fell below 0.5"
        ));
    }
    if stepped_ratio > 0.5 {
        violations.push(format!(
            "sim: stepped-cycle ratio {stepped_ratio:.3} (fast-forward on/off) exceeds 0.5"
        ));
    }
    if parked_total < PARKED_FLOOR {
        violations.push(format!(
            "sim: parked cores skipped {parked_total} core cycles, below the floor of {PARKED_FLOOR}"
        ));
    }
    let lookups_per_charged = lookups_total as f64 / charged_total.max(1) as f64;
    if lookups_per_charged > SNOOP_LOOKUP_CEILING {
        violations.push(format!(
            "sim: {lookups_per_charged:.3} snoop tag lookups per charged snoop exceeds \
             {SNOOP_LOOKUP_CEILING}"
        ));
    }
    eprintln!(
        "  sim     : {total_cycles} cycles, {ff_cycles} fast-forwarded \
         ({:.1}%), stepped ratio {stepped_ratio:.3}, {parked_total} core cycles parked, \
         {lookups_total} snoop tag lookups for {charged_total} snoops charged",
        100.0 * ff_fraction
    );
    Json::object([
        ("apps", Json::object(per_app)),
        ("cycles_total", Json::from(total_cycles)),
        ("cycles_fast_forwarded", Json::from(ff_cycles)),
        ("cycles_stepped", Json::from(stepped_with_ff)),
        ("cycles_stepped_without_ff", Json::from(stepped_without_ff)),
        ("fast_forward_fraction", Json::from(ff_fraction)),
        ("stepped_ratio", Json::from(stepped_ratio)),
        ("core_cycles_parked", Json::from(parked_total)),
        ("core_cycles_parked_floor", Json::from(PARKED_FLOOR)),
        ("snoops_charged", Json::from(charged_total)),
        ("snoop_tag_lookups", Json::from(lookups_total)),
        ("snoop_lookups_per_charged", Json::from(lookups_per_charged)),
        (
            "snoop_lookups_per_charged_ceiling",
            Json::from(SNOOP_LOOKUP_CEILING),
        ),
    ])
}

/// Stage 2: the thermal solver work behind `ExperimentalChip::measure`.
/// Each core tile's LU factorization is built with the chip, so a
/// measurement must only solve against the cached factors (zero
/// `linalg.lu_factors`, at least one `linalg.lu_solves`), and the
/// power↔temperature fixpoint must stay within its iteration budget.
fn thermal_stage(violations: &mut Vec<String>) -> Json {
    let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());
    let result = chip.run(
        gang(AppId::WaterNsq, 4, Scale::Test, SEED),
        chip.config().operating_point,
    );
    let ((), fix_trace) = tlp_obs::capture(|| {
        let _ = chip.measure(&result, chip.tech().vdd_nominal());
    });
    let fixpoint_iterations = counter(&fix_trace, "thermal.fixpoint_iterations");
    let steady_solves = counter(&fix_trace, "thermal.steady_solves");
    let lu_factors = counter(&fix_trace, "linalg.lu_factors");
    let lu_solves = counter(&fix_trace, "linalg.lu_solves");
    let iters_per_solve = fixpoint_iterations as f64 / steady_solves.max(1) as f64;
    if steady_solves == 0 {
        violations.push("thermal: the measurement ran no steady solves".into());
    }
    if lu_factors > 0 || lu_solves == 0 {
        violations.push(format!(
            "thermal: the measurement made {lu_factors} LU factorizations and {lu_solves} \
             solves; it should only solve against the tiles' cached factors"
        ));
    }
    // The damped fixpoint historically converges in a handful of
    // iterations per tile; 12 is far outside normal.
    if iters_per_solve > 12.0 {
        violations.push(format!(
            "thermal: {iters_per_solve:.2} fixpoint iterations per solve (> 12)"
        ));
    }
    eprintln!(
        "  thermal : {fixpoint_iterations} fixpoint iters over {steady_solves} solves, \
         {lu_factors} LU factorizations, {lu_solves} LU solves"
    );
    Json::object([
        ("fixpoint_iterations", Json::from(fixpoint_iterations)),
        ("fixpoint_steady_solves", Json::from(steady_solves)),
        ("fixpoint_iters_per_solve", Json::from(iters_per_solve)),
        ("lu_factors", Json::from(lu_factors)),
        ("lu_solves", Json::from(lu_solves)),
    ])
}

/// Stage 3: the sweep engine end to end. Cells per million simulated
/// cycles is the machine-independent throughput proxy; failures and
/// retries must stay at zero on a clean grid.
fn sweep_stage(violations: &mut Vec<String>) -> Json {
    let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());
    let spec = SweepSpec {
        server_loads: Vec::new(),
        apps: vec![AppId::WaterNsq, AppId::Fft],
        core_counts: vec![1, 2, 4],
        scale: Scale::Test,
        seed: SEED,
    };
    let (report, trace) = tlp_obs::capture(|| {
        chip.sweep()
            .grid(spec)
            .threads(1)
            .run()
            .expect("bench sweep refused to start")
    });
    let cells = report.cells.len() as u64;
    let completed = counter(&trace, "sweep.cells_completed");
    let failed = counter(&trace, "sweep.cells_failed");
    let retries = counter(&trace, "sweep.retry_attempts");
    let sim_cycles = counter(&trace, "sim.cycles_retired");
    let ff = counter(&trace, "sim.cycles_fast_forwarded");
    let cells_per_mcycle = cells as f64 / (sim_cycles as f64 / 1e6).max(1e-9);
    if completed < cells || failed > 0 || retries > 0 {
        violations.push(format!(
            "sweep: {completed}/{cells} cells completed, {failed} failed, {retries} retries on a clean grid"
        ));
    }
    eprintln!(
        "  sweep   : {cells} cells over {sim_cycles} simulated cycles \
         ({cells_per_mcycle:.3} cells/Mcycle, {ff} fast-forwarded)"
    );
    Json::object([
        ("cells", Json::from(cells)),
        ("cells_completed", Json::from(completed)),
        ("cells_failed", Json::from(failed)),
        ("retry_attempts", Json::from(retries)),
        ("sim_cycles", Json::from(sim_cycles)),
        ("sim_cycles_fast_forwarded", Json::from(ff)),
        ("cells_per_million_sim_cycles", Json::from(cells_per_mcycle)),
    ])
}

/// Stage 4: heterogeneous per-class activity. A full-width gang on a
/// big.LITTLE chip must light both core classes, and the per-class
/// cycle/flop counters must account for exactly the per-core totals —
/// all deterministic for the fixed seed.
fn hetero_stage(violations: &mut Vec<String>) -> Json {
    let chip = ExperimentalChip::from_spec(ChipSpec::big_little(4, 12), Technology::itrs_65nm());
    let result = chip.run(
        gang(AppId::WaterNsq, 16, Scale::Test, SEED),
        chip.config().operating_point,
    );
    let classes = chip.spec().class_activity(&result.cores);

    let total_instructions: u64 = result.cores.iter().map(|c| c.instructions).sum();
    let total_fp: u64 = result.cores.iter().map(|c| c.fp_ops).sum();
    let class_instructions: u64 = classes.iter().map(|c| c.instructions).sum();
    let class_fp: u64 = classes.iter().map(|c| c.fp_ops).sum();
    if class_instructions != total_instructions || class_fp != total_fp {
        violations.push(format!(
            "hetero: class totals ({class_instructions} instr, {class_fp} flop) \
             do not account for the per-core totals ({total_instructions}, {total_fp})"
        ));
    }
    for class in &classes {
        if class.cores == 0 || class.active_cycles == 0 || class.instructions == 0 {
            violations.push(format!(
                "hetero: class '{}' never lit ({} core(s), {} active cycles)",
                class.name, class.cores, class.active_cycles
            ));
        }
    }
    eprintln!(
        "  hetero  : {}",
        classes
            .iter()
            .map(|c| format!(
                "{} x{} {} cycles {} instr",
                c.name, c.cores, c.active_cycles, c.instructions
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Json::object([
        ("chip", Json::from(chip.spec().tag())),
        (
            "classes",
            Json::array(&classes, |c| {
                Json::object([
                    ("name", Json::from(c.name.as_str())),
                    ("cores", Json::from(c.cores)),
                    ("active_cycles", Json::from(c.active_cycles)),
                    ("instructions", Json::from(c.instructions)),
                    ("fp_ops", Json::from(c.fp_ops)),
                ])
            }),
        ),
        ("instructions_total", Json::from(total_instructions)),
        ("fp_ops_total", Json::from(total_fp)),
    ])
}

fn main() {
    eprintln!("bench_stages: deterministic per-stage counters (seed {SEED:#x})");
    let mut violations = Vec::new();
    let sim = sim_stage(&mut violations);
    let thermal = thermal_stage(&mut violations);
    let sweep = sweep_stage(&mut violations);
    let hetero = hetero_stage(&mut violations);

    let json = Json::object([
        ("benchmark", Json::from("stage_counters")),
        ("seed", Json::from(SEED)),
        ("sim", sim),
        ("thermal", thermal),
        ("sweep", sweep),
        ("hetero", hetero),
        (
            "violations",
            Json::array(violations.iter(), |v| Json::from(v.as_str())),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stages.json");
    std::fs::write(path, json.to_string_pretty() + "\n").expect("write BENCH_stages.json");
    eprintln!("  wrote {path}");

    if !violations.is_empty() {
        eprintln!("bench_stages: {} regression(s):", violations.len());
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}
