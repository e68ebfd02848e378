//! The paper's headline claims, asserted end to end. Each test names the
//! claim (section / figure) it guards. These use the smallest scales that
//! exhibit the behaviour, keeping the suite fast; the bench binaries
//! reproduce the full figures.

use cmp_tlp::{profiling, scenario1, scenario2, ExperimentalChip};
use tlp_analytic::{optimal_point, AnalyticChip, EfficiencyCurve, Scenario1, Scenario2};
use tlp_sim::ChipSpec;
use tlp_tech::Technology;
use tlp_workloads::{AppId, Scale};

// ---------------------------------------------------------------- Fig. 1

#[test]
fn fig1_parallelism_saves_power_at_iso_performance() {
    // "parallel computing can bring significant power savings and still
    // meet a given performance target"
    let chip = AnalyticChip::new(Technology::itrs_65nm(), 32);
    let s1 = Scenario1::new(&chip);
    let p = s1.solve(4, 0.9).unwrap();
    assert!(
        p.normalized_power < 0.5,
        "normalized power {}",
        p.normalized_power
    );
}

#[test]
fn fig1_higher_n_breaks_even_at_lower_efficiency() {
    let chip = AnalyticChip::new(Technology::itrs_130nm(), 32);
    let s1 = Scenario1::new(&chip);
    let series = s1.sweep(&[2, 16], 0.05, 96);
    let be2 = series[0].breakeven_efficiency().unwrap();
    let be16 = series[1].breakeven_efficiency().unwrap();
    assert!(be16 < be2, "break-even: N=16 at {be16} !< N=2 at {be2}");
}

#[test]
fn fig1_best_n_is_not_always_the_largest() {
    // "the configuration that yields the maximum power savings is not
    // necessarily the one with the highest number of processors"
    let chip = AnalyticChip::new(Technology::itrs_65nm(), 32);
    let s1 = Scenario1::new(&chip);
    // The sample application of Fig. 1: efficiency decreasing with N.
    let eff = [(2usize, 0.95), (4, 0.85), (8, 0.7), (16, 0.55), (32, 0.4)];
    let mut best = (0usize, f64::INFINITY);
    for (n, e) in eff {
        if let Ok(p) = s1.solve(n, e) {
            if p.normalized_power < best.1 {
                best = (n, p.normalized_power);
            }
        }
    }
    assert!(best.0 < 32, "optimum N {} should be interior", best.0);
    assert!(best.1 < 1.0, "optimum saves power");
}

// ---------------------------------------------------------------- Fig. 2

#[test]
fn fig2_budget_caps_speedup_of_perfect_apps() {
    // "even a perfectly scalable application ... the maximum speedup
    // achieved across all configurations is only a little over 4"
    let chip = AnalyticChip::new(Technology::itrs_130nm(), 32);
    let s2 = Scenario2::new(&chip);
    let sweep = s2.sweep(32, &EfficiencyCurve::Perfect);
    let best = optimal_point(&sweep).unwrap();
    assert!(
        best.speedup > 2.5 && best.speedup < 6.0,
        "peak speedup {}",
        best.speedup
    );
    assert!(
        best.n > 2 && best.n < 32,
        "interior optimum, got N={}",
        best.n
    );
    // Rapid degradation beyond the optimum.
    let last = sweep.last().unwrap();
    assert!(last.speedup < 0.85 * best.speedup);
}

#[test]
fn fig2_65nm_suffers_more_from_static_power() {
    // "most notably in the 65nm case, where ITRS attributes a higher
    // fraction of the total power consumption to static power"
    let c130 = AnalyticChip::new(Technology::itrs_130nm(), 32);
    let c65 = AnalyticChip::new(Technology::itrs_65nm(), 32);
    let s130 = Scenario2::new(&c130).sweep(32, &EfficiencyCurve::Perfect);
    let s65 = Scenario2::new(&c65).sweep(32, &EfficiencyCurve::Perfect);
    let peak130 = optimal_point(&s130).unwrap();
    let peak65 = optimal_point(&s65).unwrap();
    assert!(peak65.speedup < peak130.speedup);
    // Degradation from peak to N=24 is steeper at 65 nm.
    let at = |sweep: &[tlp_analytic::Scenario2Point], n: usize| {
        sweep
            .iter()
            .find(|p| p.n == n)
            .map(|p| p.speedup)
            .unwrap_or(0.0)
    };
    let drop130 = 1.0 - at(&s130, 24) / peak130.speedup;
    let drop65 = 1.0 - at(&s65, 24) / peak65.speedup;
    assert!(
        drop65 > drop130,
        "65nm drop {drop65} !> 130nm drop {drop130}"
    );
}

// ---------------------------------------------------------------- Fig. 3

#[test]
fn fig3_power_savings_with_good_efficiency() {
    // "Given sufficient parallel efficiency, power consumption can be
    // effectively reduced as the number of participating cores increases"
    let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());
    let r = scenario1::run(&chip, AppId::WaterNsq, &[1, 2, 4], Scale::Small, 51);
    let p2 = r.rows.iter().find(|x| x.n == 2).unwrap().normalized_power;
    let p4 = r.rows.iter().find(|x| x.n == 4).unwrap().normalized_power;
    // "effectively reduced": well below the single-core power. The paper
    // also notes savings eventually stagnate (and recede) as efficiency
    // drops and the voltage floor binds — so monotonicity in N is NOT
    // asserted.
    assert!(p2 < 0.7, "2-core normalized power {p2}");
    assert!(p4 < 0.7, "4-core normalized power {p4}");
}

#[test]
fn fig3_memory_bound_apps_beat_iso_performance_target() {
    // "as the number of processors increases and voltage/frequency scaling
    // is applied to the chip (but not to off-chip memory), the
    // processor-memory speed gap narrows, which benefits memory-bound
    // applications" — visible as actual speedups above 1 (Ocean).
    let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());
    let r = scenario1::run(&chip, AppId::Ocean, &[1, 4], Scale::Test, 51);
    let four = r.rows.iter().find(|x| x.n == 4).unwrap();
    assert!(
        four.actual_speedup > 1.05,
        "Ocean speedup {}",
        four.actual_speedup
    );
}

#[test]
fn fig3_temperature_decreases_with_parallelism() {
    let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());
    let r = scenario1::run(&chip, AppId::Fmm, &[1, 4], Scale::Test, 53);
    assert!(
        r.rows[1].temperature_c < r.rows[0].temperature_c - 5.0,
        "temperatures {} vs {}",
        r.rows[1].temperature_c,
        r.rows[0].temperature_c
    );
}

// ---------------------------------------------------------------- Fig. 4

#[test]
fn fig4_gap_largest_for_compute_intensive_apps() {
    // "The gap is most significant in the compute-intensive application
    // (FMM), and least so for Radix, which is memory-bound."
    let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());
    let gap = |app: AppId| {
        // Full experiment scale: reduced scales leave compute-bound power
        // warmup-depressed and blur the contrast (see EXPERIMENTS.md).
        let profile = profiling::profile(&chip, app, &[1, 8], Scale::Paper, 55);
        let r = scenario2::run(&chip, &profile, Scale::Paper, 55, None);
        let row = r.rows.iter().find(|x| x.n == 8).unwrap();
        (row.nominal_speedup - row.actual_speedup) / row.nominal_speedup
    };
    let fmm_gap = gap(AppId::Fmm);
    let radix_gap = gap(AppId::Radix);
    assert!(
        fmm_gap > 1.3 * radix_gap,
        "FMM gap {fmm_gap} should clearly exceed Radix gap {radix_gap}"
    );
}

#[test]
fn fig4_radix_runs_at_nominal_for_small_n() {
    // "the nominal power consumption of Radix is low enough that it allows
    // up to eight-core configurations to run at nominal voltage and
    // frequency without exceeding our power budget"
    let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());
    let profile = profiling::profile(&chip, AppId::Radix, &[1, 2, 4], Scale::Test, 57);
    let r = scenario2::run(&chip, &profile, Scale::Test, 57, None);
    for row in r.rows.iter().filter(|x| x.n <= 4) {
        assert!(
            row.unconstrained,
            "Radix N={} should be unconstrained, power {}",
            row.n, row.power_watts
        );
    }
}

// ------------------------------------------------------------ §2 validation

#[test]
fn leakage_fit_matches_paper_error_bands() {
    // "the maximum error is within 9.5% and 7.5% for 130nm and 65nm"
    let (_, r130) = tlp_tech::leakage::fit(&Technology::itrs_130nm());
    let (_, r65) = tlp_tech::leakage::fit(&Technology::itrs_65nm());
    assert!(r130.max_rel_error <= 0.095);
    assert!(r65.max_rel_error <= 0.075);
}
