//! Thermal map: runs a workload, solves the per-core-tile thermal field,
//! and renders an ASCII heat map of the EV6 tile's functional blocks —
//! showing where the heat goes for compute-bound vs. memory-bound codes.
//!
//! Run with: `cargo run --release -p cmp-tlp --example thermal_map`

use cmp_tlp::ExperimentalChip;
use tlp_sim::ChipSpec;
use tlp_tech::Technology;
use tlp_workloads::{gang, AppId, Scale};

fn shade(frac: f64) -> char {
    const RAMP: [char; 8] = [' ', '.', ':', '-', '=', '+', '#', '@'];
    let idx = (frac.clamp(0.0, 1.0) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[idx]
}

fn main() {
    let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());
    let v = chip.tech().vdd_nominal();
    let op = chip.config().operating_point;

    for app in [AppId::Fmm, AppId::Ocean] {
        let run = chip.run(gang(app, 1, Scale::Test, 3), op);
        let breakdown = chip.power_calculator().dynamic(&run, v);
        let tile = chip.tile_thermal();
        let per_block = breakdown.cores[0]
            .try_per_block(breakdown.bus, tile.floorplan())
            .expect("a core tile has every structure block");
        let map = tile.steady_state(&per_block);

        let temps = map.block_temps();
        let t_min = temps
            .iter()
            .map(|t| t.as_f64())
            .fold(f64::INFINITY, f64::min);
        let t_max = temps.iter().map(|t| t.as_f64()).fold(0.0, f64::max);
        println!(
            "\n{} on one core at nominal V/f — tile temperatures ({:.1}–{:.1} °C):",
            app.name(),
            t_min,
            t_max
        );
        for (block, temp) in tile.floorplan().blocks().iter().zip(temps) {
            let frac = if t_max > t_min {
                (temp.as_f64() - t_min) / (t_max - t_min)
            } else {
                0.0
            };
            println!(
                "  {:<16} {:>6.1} °C {}",
                block.name,
                temp.as_f64(),
                std::iter::repeat_n(shade(frac), 1 + (frac * 30.0) as usize).collect::<String>()
            );
        }
    }
    println!("\nCompute-bound FMM lights up the FP datapath; memory-bound Ocean idles cooler.");
}
