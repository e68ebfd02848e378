//! Ablation: chip-wide vs. system-wide DVFS.
//!
//! The analytical model assumes system-wide scaling (memory slows with the
//! chip); the experiments scale only the chip, so the processor–memory gap
//! *narrows* at low frequency and memory-bound applications gain. This
//! binary reruns Ocean's Scenario I both ways and shows the discrepancy
//! the paper highlights.
//!
//! `cargo run --release -p tlp-bench --bin ablation_dvfs_scope [--quick]`

use cmp_tlp::prelude::*;
use cmp_tlp::profiling;
use tlp_bench::{scale_from_args, SEED};
use tlp_sim::{CmpConfig, CmpSimulator};
use tlp_tech::units::{Hertz, Seconds};
use tlp_tech::Technology;
use tlp_workloads::gang;

fn main() {
    let scale = scale_from_args();
    let tech = Technology::itrs_65nm();
    let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), tech.clone());
    let app = AppId::Ocean;
    let profile = profiling::profile(&chip, app, &[1, 2, 4, 8], scale, SEED);
    let table = chip.dvfs();
    let base_time = profile.baseline.execution_time();

    println!("Ablation: DVFS scope, {app} Scenario I actual speedups\n");
    println!(
        "  {:>3} {:>8} {:>12} {:>12}",
        "N", "f (GHz)", "chip-only", "system-wide"
    );
    for (idx, &n) in profile.core_counts.iter().enumerate().skip(1) {
        let eps = profile.efficiencies[idx];
        let f = Hertz::new(
            (tech.f_nominal().as_f64() / (n as f64 * eps))
                .min(tech.f_nominal().as_f64())
                .max(table.f_min().as_f64()),
        );
        let v = table.voltage_for(f).expect("in range");
        let op = tlp_tech::OperatingPoint {
            frequency: f,
            voltage: v,
        };

        // Chip-only DVFS (the paper's experiments): memory stays 75 ns.
        let chip_only = chip.run(gang(app, n, scale, SEED), op);

        // System-wide DVFS (the paper's analytical assumption): memory
        // latency in *cycles* stays fixed at its nominal 240, i.e. the
        // round trip stretches as the clock slows.
        let mut cfg = chip.config().at_operating_point(op);
        let nominal_cycles = CmpConfig::ispass05(16).memory_latency_cycles();
        cfg.memory_round_trip = Seconds::new(nominal_cycles as f64 / f.as_f64());
        let system_wide = CmpSimulator::new(cfg, gang(app, n, scale, SEED)).run();

        println!(
            "  {:>3} {:>8.2} {:>12.2} {:>12.2}",
            n,
            f.as_ghz(),
            base_time / chip_only.execution_time(),
            base_time / system_wide.execution_time()
        );
    }
    println!(
        "\nReading: under chip-only scaling the memory round trip shrinks in\n\
         cycles, so the memory-bound app beats the iso-performance target\n\
         (speedup > 1); under system-wide scaling it merely meets it — the\n\
         analytic/experimental discrepancy the paper calls out."
    );
}
