//! Quickstart: the paper's two headline questions, answered end to end.
//!
//! 1. How much power can parallelism save at equal performance? (Fig. 1/3)
//! 2. How fast can a parallel app go inside one core's power budget?
//!    (Fig. 2/4)
//!
//! Run with: `cargo run --release -p cmp-tlp --example quickstart`

use cmp_tlp::{profiling, scenario1, scenario2, ExperimentalChip};
use tlp_analytic::{AnalyticChip, EfficiencyCurve, Scenario2};
use tlp_sim::ChipSpec;
use tlp_tech::Technology;
use tlp_workloads::{AppId, Scale};

fn main() {
    // ---- Analytical model (Section 2) --------------------------------
    let tech = Technology::itrs_65nm();
    let chip = AnalyticChip::new(tech.clone(), 32);

    let s1 = tlp_analytic::Scenario1::new(&chip);
    let point = s1.solve(4, 0.9).expect("feasible configuration");
    println!(
        "Analytic Scenario I : 4 cores at εn = 0.9 match one core's \
         performance at {:.0}% of its power ({:.2} GHz, {:.2} V, {:.0} °C)",
        100.0 * point.normalized_power,
        point.frequency.as_ghz(),
        point.voltage.as_f64(),
        point.temperature.as_f64()
    );

    let s2 = Scenario2::new(&chip);
    let sweep = s2.sweep(32, &EfficiencyCurve::Perfect);
    let best = tlp_analytic::optimal_point(&sweep).expect("non-empty sweep");
    println!(
        "Analytic Scenario II: under the single-core budget a perfect app \
         peaks at {:.2}x speedup with N = {} cores — more cores make it \
         slower",
        best.speedup, best.n
    );

    // ---- Experimental model (Sections 3-4) ---------------------------
    let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), tech);
    let app = AppId::WaterNsq;
    let profile = profiling::profile(&chip, app, &[1, 2, 4], Scale::Test, 42);
    println!(
        "\nProfiled {} : εn(2) = {:.2}, εn(4) = {:.2}",
        app,
        profile.efficiency_at(2),
        profile.efficiency_at(4)
    );

    let fig3 = scenario1::run(&chip, app, &profile.core_counts, Scale::Test, 42);
    for row in &fig3.rows {
        println!(
            "Scenario I  {} on {} core(s): {:.2} GHz → {:>5.1} W \
             ({:.0}% of single-core), {:.0} °C",
            app,
            row.n,
            row.operating_point.frequency.as_ghz(),
            row.power_watts,
            100.0 * row.normalized_power,
            row.temperature_c
        );
    }

    let fig4 = scenario2::run(&chip, &profile, Scale::Test, 42, None);
    for row in &fig4.rows {
        println!(
            "Scenario II {} on {} core(s): nominal {:.2}x vs actual {:.2}x \
             within {:.1} W budget",
            app, row.n, row.nominal_speedup, row.actual_speedup, fig4.budget_watts
        );
    }
}
