//! Round-trip and golden-snapshot coverage of every JSON shape the
//! experiment layer emits.
//!
//! Two guarantees per emitted document:
//!
//! 1. **Round-trip**: `Json::parse` over both the pretty and compact
//!    renderings reconstructs the exact same `Json` value — the emitter
//!    and the parser agree on the full grammar, including shortest-
//!    round-trip float printing.
//! 2. **Golden snapshot**: the pretty rendering is byte-identical to the
//!    checked-in file under `tests/golden/`. The whole pipeline behind
//!    each shape is deterministic, so any drift — field renames, float
//!    formatting, reordering, simulator changes — shows up as a diff.
//!
//! To regenerate after an intentional change:
//!
//! ```console
//! $ REGEN_GOLDEN=1 cargo test --test json_roundtrip
//! $ git diff tests/golden/   # review what actually changed
//! ```

use std::path::PathBuf;
use std::sync::OnceLock;

use cmp_tlp::jsonout::{calibration_json, operating_point_json, sim_result_json};
use cmp_tlp::scenario1::Scenario1Result;
use cmp_tlp::sweep::{Fault, FaultPlan, RetryPolicy, SweepSpec, WorkloadId};
use cmp_tlp::{profiling, scenario1, scenario2, EfficiencyProfile, ExperimentalChip};
use tlp_sim::ChipSpec;
use tlp_tech::json::{Json, ToJson};
use tlp_tech::units::Hertz;
use tlp_tech::{OperatingPoint, Technology};
use tlp_workloads::{AppId, Scale};

const SEED: u64 = 42;

fn chip() -> &'static ExperimentalChip {
    static CHIP: OnceLock<ExperimentalChip> = OnceLock::new();
    CHIP.get_or_init(|| {
        ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm())
    })
}

fn profile() -> &'static EfficiencyProfile {
    static PROFILE: OnceLock<EfficiencyProfile> = OnceLock::new();
    PROFILE.get_or_init(|| profiling::profile(chip(), AppId::WaterNsq, &[1, 2], Scale::Test, SEED))
}

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// Asserts parse∘print identity on both renderings, then compares the
/// pretty rendering against (or regenerates) `tests/golden/<name>.json`.
fn assert_roundtrip_and_golden(name: &str, doc: &Json) {
    let pretty = doc.to_string_pretty();
    let compact = doc.to_string_compact();
    assert_eq!(
        &Json::parse(&pretty).expect("pretty output must parse"),
        doc,
        "{name}: pretty parse∘print is not the identity"
    );
    assert_eq!(
        &Json::parse(&compact).expect("compact output must parse"),
        doc,
        "{name}: compact parse∘print is not the identity"
    );

    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, pretty + "\n").expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(run `REGEN_GOLDEN=1 cargo test --test json_roundtrip` \
             to create it)",
            path.display()
        )
    });
    assert_eq!(
        expected.trim_end(),
        pretty,
        "{name}: golden snapshot drifted; regenerate with REGEN_GOLDEN=1 if intentional"
    );
}

#[test]
fn calibration_round_trips() {
    assert_roundtrip_and_golden("calibration", &calibration_json(&chip().calibration()));
}

#[test]
fn operating_point_round_trips() {
    let op = OperatingPoint {
        frequency: Hertz::from_ghz(1.6),
        voltage: chip().tech().voltage_floor(),
    };
    assert_roundtrip_and_golden("operating_point", &operating_point_json(&op));
}

#[test]
fn sim_result_round_trips() {
    assert_roundtrip_and_golden("sim_result", &sim_result_json(&profile().baseline));
}

#[test]
fn efficiency_profile_round_trips() {
    assert_roundtrip_and_golden("efficiency_profile", &profile().to_json());
}

#[test]
fn scenario1_round_trips() {
    let r = scenario1::try_run(chip(), AppId::WaterNsq, &[1, 2], Scale::Test, SEED)
        .expect("scenario 1");
    assert_roundtrip_and_golden("scenario1", &r.to_json());
}

#[test]
fn scenario1_wide_round_trips() {
    // Counts up to the full chip, including 3 and 12, which Ocean and FFT
    // cannot run: the snapshot pins the missing-bar skips as well as the
    // rows at every count the applications do run.
    let counts = [1, 2, 3, 4, 8, 12, 16];
    let results: Vec<_> = [AppId::Ocean, AppId::Fft, AppId::Cholesky]
        .into_iter()
        .map(|app| scenario1::try_run(chip(), app, &counts, Scale::Test, SEED).expect("scenario 1"))
        .collect();
    assert_roundtrip_and_golden(
        "scenario1_wide",
        &Json::array(&results, Scenario1Result::to_json),
    );
}

#[test]
fn scenario2_round_trips() {
    let r = scenario2::try_run(chip(), profile(), Scale::Test, SEED, None).expect("scenario 2");
    assert_roundtrip_and_golden("scenario2", &r.to_json());
}

#[test]
fn chip_measurement_round_trips() {
    let m = chip()
        .try_measure(
            &profile().baseline,
            chip().tech().vdd_nominal(),
            &tlp_thermal::FixpointOptions::default(),
        )
        .expect("measure");
    assert_roundtrip_and_golden("chip_measurement", &m.to_json());
}

#[test]
fn sweep_report_round_trips() {
    // Include a failed cell so the snapshot pins the failure shape
    // (status, attempts, reason) alongside the completed rows.
    let spec = SweepSpec {
        server_loads: Vec::new(),
        apps: vec![AppId::WaterNsq],
        core_counts: vec![1, 2],
        scale: Scale::Test,
        seed: SEED,
    };
    let plan = FaultPlan::none().inject_work(WorkloadId::App(AppId::WaterNsq), 2, Fault::NanPower);
    let r = chip()
        .sweep()
        .grid(spec)
        .retry_policy(RetryPolicy::no_retries())
        .faults(plan)
        .threads(1)
        .run()
        .expect("sweep");
    assert_eq!(r.failed().count(), 1);
    assert_roundtrip_and_golden("sweep_report", &r.to_json());
}

#[test]
fn sweep_report_wide_round_trips() {
    // Every core count up to the full chip, so the snapshot pins the
    // per-core tile sums and the clock-domain stepping at n = 12 and 16,
    // where a reordered floating-point sum would first show.
    let spec = SweepSpec {
        apps: vec![AppId::WaterNsq],
        server_loads: vec![2_000_000],
        core_counts: vec![1, 2, 4, 8, 12, 16],
        scale: Scale::Test,
        seed: SEED,
    };
    let r = chip().sweep().grid(spec).threads(1).run().expect("sweep");
    assert_eq!(r.failed().count(), 0);
    assert_roundtrip_and_golden("sweep_report_wide", &r.to_json());
}
