//! Determinism contract of the parallel sweep engine: for any worker
//! count, a [`SweepBuilder`] run must produce the same `CellOutcome`
//! sequence — and the same JSON bytes — as a serial run. Timing is the
//! only thing allowed to differ, and it lives outside the deterministic
//! payload.

use cmp_tlp::sweep::{Fault, FaultPlan, RetryPolicy, SweepReport, SweepSpec, WorkloadId};
use cmp_tlp::ExperimentalChip;
use tlp_sim::op::Op;
use tlp_sim::ChipSpec;
use tlp_tech::json::ToJson;
use tlp_tech::Technology;
use tlp_workloads::{gang, AppId, Scale};

fn chip() -> ExperimentalChip {
    ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm())
}

fn spec() -> SweepSpec {
    SweepSpec {
        server_loads: Vec::new(),
        apps: vec![AppId::WaterNsq, AppId::Fft],
        core_counts: vec![1, 2, 4],
        scale: Scale::Test,
        seed: 7,
    }
}

/// Runs the grid through the builder at a given worker count (`0` =
/// available parallelism — also forces an oversubscribed pool so
/// stealing happens even on small machines).
fn run(
    chip: &ExperimentalChip,
    spec: &SweepSpec,
    policy: &RetryPolicy,
    plan: &FaultPlan,
    threads: usize,
) -> SweepReport {
    chip.sweep()
        .grid(spec.clone())
        .retry_policy(*policy)
        .faults(plan.clone())
        .threads(threads)
        .run()
        .expect("sweep")
}

/// The serial reference: the builder's `.threads(1)` stage.
fn run_serial(
    chip: &ExperimentalChip,
    spec: &SweepSpec,
    policy: &RetryPolicy,
    plan: &FaultPlan,
) -> SweepReport {
    chip.sweep()
        .grid(spec.clone())
        .retry_policy(*policy)
        .faults(plan.clone())
        .threads(1)
        .run()
        .expect("serial sweep")
}

#[test]
fn parallel_outcomes_match_serial_exactly() {
    let chip = chip();
    let spec = spec();
    let policy = RetryPolicy::default();
    let plan = FaultPlan::none();

    let serial = run_serial(&chip, &spec, &policy, &plan);
    let parallel = run(&chip, &spec, &policy, &plan, 0);

    assert_eq!(serial.cells.len(), parallel.cells.len());
    // CellOutcome carries non-PartialEq error types; the Debug rendering
    // covers every field of every variant.
    assert_eq!(
        format!("{:?}", serial.cells),
        format!("{:?}", parallel.cells)
    );
    assert!(serial.cells.iter().all(|(_, o)| o.is_completed()));
}

#[test]
fn parallel_json_bytes_match_serial_exactly() {
    let chip = chip();
    let spec = spec();
    let policy = RetryPolicy::default();
    let plan = FaultPlan::none();

    let serial = run_serial(&chip, &spec, &policy, &plan);
    let parallel = run(&chip, &spec, &policy, &plan, 8);

    assert_eq!(
        serial.to_json().to_string_pretty(),
        parallel.to_json().to_string_pretty()
    );
}

#[test]
fn determinism_holds_under_injected_faults() {
    // Faulted cells exercise the failure paths (deadlock diagnosis, NaN
    // poisoning, baseline-anchor failure fan-out) — the parallel engine
    // must reproduce those outcomes byte-for-byte too.
    let chip = chip();
    let spec = SweepSpec {
        server_loads: Vec::new(),
        apps: vec![AppId::WaterNsq, AppId::Fft, AppId::Radix],
        core_counts: vec![1, 2, 4],
        scale: Scale::Test,
        seed: 7,
    };
    // Land the dropped arrival on a barrier the gang actually crosses
    // (barrier ids derive from phase positions).
    let barrier = {
        let mut programs = gang(AppId::WaterNsq, 4, Scale::Test, 7);
        loop {
            match programs[0].next_op() {
                Op::Barrier { id } => break id,
                Op::End => panic!("water-nsq has no barriers"),
                _ => {}
            }
        }
    };
    let policy = RetryPolicy::default();
    let plan = FaultPlan::none()
        .inject_work(WorkloadId::App(AppId::Fft), 2, Fault::NanPower)
        .inject_work(
            WorkloadId::App(AppId::WaterNsq),
            4,
            Fault::DropBarrierArrival { barrier, thread: 1 },
        )
        // Baseline-anchor fault: fails every Radix cell with one diagnosis.
        .inject_work(WorkloadId::App(AppId::Radix), 1, Fault::NanPower);

    let serial = run_serial(&chip, &spec, &policy, &plan);
    let parallel = run(&chip, &spec, &policy, &plan, 6);

    assert_eq!(
        format!("{:?}", serial.cells),
        format!("{:?}", parallel.cells)
    );
    assert_eq!(
        serial.to_json().to_string_pretty(),
        parallel.to_json().to_string_pretty()
    );
    // Sanity: the plan actually failed cells (NaN anchor fails all 3 Radix
    // cells, plus the two targeted cells).
    assert_eq!(serial.failed().count(), 5);
}

#[test]
fn one_worker_and_oversubscribed_pool_agree_on_a_small_grid() {
    // Edge thread counts: explicitly one worker (the serial path through
    // the pool machinery) and far more workers than the grid has cells.
    let chip = chip();
    let spec = SweepSpec {
        server_loads: Vec::new(),
        apps: vec![AppId::WaterNsq],
        core_counts: vec![1, 2],
        scale: Scale::Test,
        seed: 7,
    };
    let policy = RetryPolicy::default();
    let plan = FaultPlan::none();

    let serial = run_serial(&chip, &spec, &policy, &plan);
    let one = run(&chip, &spec, &policy, &plan, 1);
    let wide = run(&chip, &spec, &policy, &plan, 32);

    assert!(serial.cells.iter().all(|(_, o)| o.is_completed()));
    for report in [&one, &wide] {
        assert_eq!(format!("{:?}", serial.cells), format!("{:?}", report.cells));
        assert_eq!(
            serial.to_json().to_string_pretty(),
            report.to_json().to_string_pretty()
        );
    }
    assert_eq!(wide.timing.threads, 32);
}

#[test]
fn empty_sweep_grid_completes_with_no_cells() {
    // An empty application list is a degenerate but legal request: the
    // report must come back whole (and say so) at any thread count.
    let chip = chip();
    let spec = SweepSpec {
        server_loads: Vec::new(),
        apps: Vec::new(),
        core_counts: vec![1, 2],
        scale: Scale::Test,
        seed: 7,
    };
    let policy = RetryPolicy::default();
    let plan = FaultPlan::none();

    let serial = run_serial(&chip, &spec, &policy, &plan);
    let parallel = run(&chip, &spec, &policy, &plan, 4);

    assert!(serial.cells.is_empty());
    assert_eq!(serial.summary(), "sweep: 0/0 cells completed");
    assert_eq!(
        serial.to_json().to_string_pretty(),
        parallel.to_json().to_string_pretty()
    );
}

#[test]
fn timing_reflects_requested_threads() {
    let chip = chip();
    let spec = SweepSpec {
        server_loads: Vec::new(),
        apps: vec![AppId::WaterNsq],
        core_counts: vec![1, 2],
        scale: Scale::Test,
        seed: 7,
    };
    let r = run(&chip, &spec, &RetryPolicy::default(), &FaultPlan::none(), 3);
    assert_eq!(r.timing.threads, 3);
    assert_eq!(r.timing.cell_seconds.len(), r.cells.len());
    assert!(r.timing.total_seconds > 0.0);
    assert!(r.timing.cell_seconds.iter().all(|&s| s >= 0.0));
    assert!(r.timing.summary().contains("3 thread(s)"));
}

#[test]
fn mixed_grid_task_graph_is_byte_identical_at_1_2_and_8_threads() {
    // Two batch rows (one profile task per count above 1, each feeding
    // its cell once the row's anchor is in), one server row (its anchor
    // spawns every cell) and a count FFT cannot run: every scheduling
    // of the graph must render the same bytes.
    let chip = chip();
    let spec = SweepSpec {
        server_loads: vec![5_000_000],
        apps: vec![AppId::WaterNsq, AppId::Fft],
        core_counts: vec![1, 2, 3, 4],
        scale: Scale::Test,
        seed: 7,
    };
    let policy = RetryPolicy::default();
    let plan = FaultPlan::none();
    let reports: Vec<SweepReport> = [1, 2, 8]
        .into_iter()
        .map(|threads| run(&chip, &spec, &policy, &plan, threads))
        .collect();
    let serial = &reports[0];
    assert_eq!(serial.cells.len(), 12);
    let failed: Vec<String> = serial.failed().map(|(c, _, _)| c.to_string()).collect();
    assert_eq!(failed, ["FFT@3"], "{}", serial.summary());
    let json = serial.to_json().to_string_pretty();
    for report in &reports[1..] {
        assert_eq!(format!("{:?}", serial.cells), format!("{:?}", report.cells));
        assert_eq!(json, report.to_json().to_string_pretty());
    }
}
