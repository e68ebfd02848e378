//! Extension experiment: the **energy / EDP frontier** over core counts.
//!
//! The paper optimizes power at fixed performance; this experiment asks
//! the follow-up question most later work settled on: which `N` minimizes
//! energy, EDP, and ED²P for each application under the Scenario-I
//! operating points?
//!
//! `cargo run --release -p tlp-bench --bin edp_frontier [--quick]`

use cmp_tlp::energy::{best_n, scenario1_energy, Metric};
use cmp_tlp::prelude::*;
use cmp_tlp::scenario1;
use tlp_bench::{scale_from_args, EXPERIMENT_CORE_COUNTS, SEED};
use tlp_sim::ChipSpec;
use tlp_tech::Technology;

fn main() {
    let scale = scale_from_args();
    let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());

    println!("Extension: energy / energy-delay frontier under Scenario-I DVFS\n");
    println!(
        "{:<11} {:>9} {:>9} {:>9}    (best N by metric)",
        "app", "energy", "EDP", "ED2P"
    );
    let results = scenario1::try_run_apps(&chip, &AppId::ALL, &EXPERIMENT_CORE_COUNTS, scale, SEED)
        .unwrap_or_else(|e| panic!("{e}"));
    for result in &results {
        let reports = scenario1_energy(result);
        let fmt = |m: Metric| {
            best_n(&reports, m)
                .map(|n| n.to_string())
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:<11} {:>9} {:>9} {:>9}",
            result.app.name(),
            fmt(Metric::Energy),
            fmt(Metric::Edp),
            fmt(Metric::Ed2p)
        );
    }
    println!(
        "\nReading: energy-minimal N is small-to-moderate (iso-performance\n\
         power savings dominate); delay-weighted metrics push toward more\n\
         cores for apps whose actual speedup exceeds 1 under chip-only DVFS."
    );
}
