//! Cross-crate integration tests: the full experimental pipeline from
//! workload generation through simulation, power, and thermal measurement.

use cmp_tlp::{profiling, scenario1, scenario2, ExperimentalChip};
use tlp_sim::ChipSpec;
use tlp_tech::Technology;
use tlp_workloads::{AppId, Scale};

fn chip() -> ExperimentalChip {
    ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm())
}

#[test]
fn full_pipeline_scenario1_on_three_apps() {
    let chip = chip();
    for app in [AppId::WaterSp, AppId::Fft, AppId::Volrend] {
        let r = scenario1::run(&chip, app, &[1, 2, 4], Scale::Test, 31);
        assert_eq!(r.rows.len(), 3, "{app}");
        // Reference row is exact.
        assert!((r.rows[0].normalized_power - 1.0).abs() < 1e-9);
        // Every row's temperature sits between ambient and T_max plus a
        // small tolerance.
        for row in &r.rows {
            assert!(
                row.temperature_c >= 45.0 && row.temperature_c <= 102.0,
                "{app} N={} temperature {}",
                row.n,
                row.temperature_c
            );
            assert!(row.power_watts > 0.0);
        }
    }
}

#[test]
fn scenario1_and_scenario2_share_the_profile() {
    let chip = chip();
    let profile = profiling::profile(&chip, AppId::Raytrace, &[1, 2], Scale::Test, 33);
    let s1 = scenario1::run(&chip, AppId::Raytrace, &[1, 2], Scale::Test, 33);
    let s2 = scenario2::run(&chip, &profile, Scale::Test, 33, None);
    assert_eq!(s1.rows.len(), 2);
    assert_eq!(s2.rows.len(), 2);
    // Scenario I takes εn from the sweep's per-count profile runs and
    // Scenario II from `profiling::profile`: the two must agree exactly.
    assert_eq!(s1.rows[1].nominal_efficiency, profile.efficiency_at(2));
    assert!((s1.rows[1].nominal_efficiency * 2.0 - s2.rows[1].nominal_speedup).abs() < 1e-9);
}

#[test]
fn calibration_is_deterministic() {
    let a = chip().calibration();
    let b = chip().calibration();
    assert_eq!(a.renorm, b.renorm);
    assert_eq!(a.single_core_budget, b.single_core_budget);
}

#[test]
fn experimental_efficiency_feeds_analytic_model() {
    // The measured efficiency curve can drive the analytical Scenario II —
    // the cross-validation the paper performs conceptually.
    let chip = chip();
    let profile = profiling::profile(&chip, AppId::Barnes, &[1, 2, 4], Scale::Test, 35);
    let curve = profile.to_curve().expect("valid profile");
    let analytic = tlp_analytic::AnalyticChip::new(Technology::itrs_65nm(), 16);
    let s2 = tlp_analytic::Scenario2::new(&analytic);
    let p4 = s2.solve(4, &curve).expect("solvable");
    assert!(p4.speedup > 0.5 && p4.speedup <= 4.0);
}

#[test]
fn dvfs_runs_complete_and_slow_wall_clock() {
    // A Scenario-I rerun at reduced frequency must take longer in wall
    // clock than the same workload at nominal, but fewer or equal cycles.
    let chip = chip();
    let r = scenario1::run(&chip, AppId::Lu, &[1, 2], Scale::Test, 37);
    let two = &r.rows[1];
    assert!(two.operating_point.frequency < chip.config().operating_point.frequency);
    // Iso-performance: wall-clock within a factor ~2 of the single-core
    // reference (exact equality is not expected — efficiency is measured
    // at nominal memory ratios).
    assert!(two.actual_speedup > 0.5 && two.actual_speedup < 2.5);
}

#[test]
fn cli_rejects_unrunnable_core_counts_with_typed_errors() {
    // Zero cores, a power-of-two application on an odd count, more
    // threads than the chip has cores, and durations too long for a
    // `Duration`: each is an error message and exit status 1, never a
    // panic.
    for args in [
        &["profile", "fft", "0"][..],
        &["scenario1", "ocean", "0"],
        &["measure", "ocean", "3", "1.6"],
        &["measure", "ocean", "0", "1.6"],
        &["measure", "water-nsq", "64", "1.6"],
        &[
            "sweep",
            "fft",
            "--cores",
            "1,2",
            "--quick",
            "--cell-deadline",
            "1e30",
        ],
        &["serve", "--state-dir", "D", "--request-deadline", "1e30"],
        &[
            "work",
            "--coordinator",
            "http://127.0.0.1:9",
            "--poll",
            "1e30",
        ],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cmp-tlp"))
            .args(args)
            .output()
            .expect("spawn cmp-tlp");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
