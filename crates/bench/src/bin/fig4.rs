//! Regenerates **Fig. 4**: nominal vs. actual speedup of FMM, Cholesky,
//! and Radix under the single-core power budget, N = 1–16.
//!
//! `cargo run --release -p tlp-bench --bin fig4 [--quick]`

use cmp_tlp::prelude::*;
use cmp_tlp::{profiling, report, scenario2};
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
    eprintln!("fig4: running at {scale:?} scale{hint}");
    let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());

    // The paper picks FMM, Cholesky, Radix — descending computational
    // intensity and power.
    let mut results = Vec::new();
    for app in [AppId::Fmm, AppId::Cholesky, AppId::Radix] {
        eprintln!("  profiling + budget search for {app} ...");
        let profile = profiling::profile(&chip, app, &EXPERIMENT_CORE_COUNTS, scale, SEED);
        results.push(scenario2::run(&chip, &profile, scale, SEED, None));
    }
    print!("{}", report::fig4(&results));
    println!(
        "\nExpected shape (paper): actual ≤ nominal; the gap is largest for\n\
         compute-intensive FMM and smallest for memory-bound Radix, which\n\
         runs at nominal V/f (\"free\") for small N because it never reaches\n\
         the budget."
    );
}
