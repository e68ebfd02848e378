//! Regenerates **Fig. 3**: performance, power, and thermal characteristics
//! of the 16-way CMP running all twelve SPLASH-2-like applications under
//! Scenario I (iso-performance) — the five stacked plots as five columns.
//!
//! `cargo run --release -p tlp-bench --bin fig3 [--quick]`

use cmp_tlp::prelude::*;
use cmp_tlp::{report, scenario1};
use tlp_bench::{scale_from_args, EXPERIMENT_CORE_COUNTS, SEED};
use tlp_sim::ChipSpec;
use tlp_tech::Technology;

fn main() {
    let scale = scale_from_args();
    let hint = if scale == Scale::Paper {
        " (use --quick for a fast pass)"
    } else {
        ""
    };
    eprintln!("fig3: running at {scale:?} scale{hint}");
    let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());

    eprintln!("  profiling + re-simulating all applications in one sweep ...");
    let results = scenario1::try_run_apps(&chip, &AppId::ALL, &EXPERIMENT_CORE_COUNTS, scale, SEED)
        .unwrap_or_else(|e| panic!("{e}"));
    print!("{}", report::fig3(&results));
    println!(
        "\nExpected shape (paper): εn generally falls with N; actual speedups\n\
         ≥ 1 with memory-bound apps (Ocean) clearly above 1; normalized power\n\
         falls given sufficient efficiency, then stagnates/recedes; power\n\
         density collapses (~95% at N=16); temperature falls toward ambient,\n\
         most for the hottest apps (FMM, LU)."
    );
}
