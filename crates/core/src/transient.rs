//! Transient power/thermal traces.
//!
//! The paper reports steady-state (time-averaged) temperatures; this
//! module extends the flow to *transients*: the simulator samples per-core
//! activity in fixed cycle windows, each window's dynamic power drives one
//! implicit-Euler step of the RC thermal network, and static power follows
//! the instantaneous temperature. Useful for seeing barrier-phase power
//! swings and the thermal time constants the steady-state numbers hide.

use tlp_power::CoreDynamic;
use tlp_sim::chip::SampleWindow;
use tlp_sim::{CmpSimulator, SimResult};
use tlp_tech::units::{Celsius, Seconds, Volts, Watts};
use tlp_tech::OperatingPoint;

use crate::chipstate::ExperimentalChip;

/// One step of a transient trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientPoint {
    /// Wall-clock time at the end of the step, seconds.
    pub time: f64,
    /// Chip dynamic power during the window.
    pub dynamic: Watts,
    /// Static power at the window's starting temperature.
    pub static_: Watts,
    /// Average core temperature at the end of the step.
    pub temperature: Celsius,
}

/// A completed transient trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientTrace {
    /// The steps, in time order.
    pub points: Vec<TransientPoint>,
    /// Window length in cycles.
    pub window_cycles: u64,
}

impl TransientTrace {
    /// Peak average-core temperature over the trace.
    pub fn peak_temperature(&self) -> Celsius {
        self.points
            .iter()
            .map(|p| p.temperature)
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }
}

/// Runs `programs` on the chip at `op`, sampling every `window_cycles`,
/// and marches the per-core-tile thermal network through the windows.
/// Returns the run's aggregate result and the thermal trace (each
/// window's cores charged at their class's rail, then averaged onto
/// class 0's tile, which represents a symmetric gang).
///
/// Thermal speed-up: real workloads run for seconds while our scaled runs
/// last microseconds, so each window's heat is applied with a
/// `time_dilation` factor (e.g. `1e4`) that stretches the step length —
/// standard practice when driving RC thermal models from short simulation
/// windows.
///
/// # Panics
///
/// Panics if `window_cycles` is zero or `time_dilation` is not positive.
pub fn thermal_trace(
    chip: &ExperimentalChip,
    programs: Vec<Box<dyn tlp_sim::op::ThreadProgram>>,
    op: OperatingPoint,
    window_cycles: u64,
    time_dilation: f64,
) -> (SimResult, TransientTrace) {
    assert!(time_dilation > 0.0, "time dilation must be positive");
    let spec = chip.spec().at_operating_point(op);
    let (result, windows) = CmpSimulator::from_spec(&spec, programs).run_sampled(window_cycles);
    let trace = trace_from_windows(chip, &result, &windows, op.voltage, time_dilation);
    (result, trace)
}

/// Builds the thermal trace from pre-sampled windows (exposed for tests
/// and custom pipelines).
pub fn trace_from_windows(
    chip: &ExperimentalChip,
    result: &SimResult,
    windows: &[SampleWindow],
    v: Volts,
    time_dilation: f64,
) -> TransientTrace {
    let tile = chip.tile_thermal();
    let tile_fp = tile.floorplan();
    let n = result.n_threads.max(1);
    // Node vector: blocks + spreader + sink, all starting at ambient.
    let n_nodes = tile_fp.blocks().len() + 2;
    let mut temps = vec![tile.ambient(); n_nodes];
    let mut points = Vec::with_capacity(windows.len());
    let mut time = 0.0f64;
    // The implicit-Euler matrix depends only on dt, and all windows but
    // the final partial one share the same length: factor once, reuse,
    // refactor only when dt actually changes.
    let mut stepper: Option<tlp_thermal::TransientSolver> = None;

    for w in windows {
        let cycles = (w.end_cycle - w.start_cycle).max(1);
        let dt = Seconds::new(cycles as f64 / result.frequency.as_f64() * time_dilation);
        // Average the gang's activity onto one representative tile.
        let mut avg = CoreDynamic::default();
        let window_result = SimResult {
            cycles,
            frequency: result.frequency,
            n_threads: n,
            cores: w.cores.clone(),
            l1d: result.l1d.clone(),
            l2: result.l2,
            mem: result.mem,
            requests: None,
        };
        let (breakdown, _) = chip
            .try_dynamic(&window_result, v)
            .expect("a window covers at least one cycle");
        for c in &breakdown.cores {
            avg.clock += c.clock;
            avg.icache += c.icache;
            avg.dcache += c.dcache;
            avg.int_exec += c.int_exec;
            avg.fp_exec += c.fp_exec;
            avg.regfile += c.regfile;
            avg.issue += c.issue;
            avg.bpred += c.bpred;
            avg.lsq += c.lsq;
        }
        let k = 1.0 / n as f64;
        let core = CoreDynamic {
            clock: avg.clock * k,
            icache: avg.icache * k,
            dcache: avg.dcache * k,
            int_exec: avg.int_exec * k,
            fp_exec: avg.fp_exec * k,
            regfile: avg.regfile * k,
            issue: avg.issue * k,
            bpred: avg.bpred * k,
            lsq: avg.lsq * k,
        };
        let dyn_blocks = core
            .try_per_block(Watts::ZERO, tile_fp)
            .expect("a core tile has every structure block");

        // Static at the current (start-of-window) average core temperature.
        let static_core = chip
            .static_model()
            .core_static(v, tile_fp.average_temperature(&temps));
        let static_blocks = tile.uniform_power(static_core);
        let total: Vec<Watts> = dyn_blocks
            .iter()
            .zip(&static_blocks)
            .map(|(a, b)| *a + *b)
            .collect();

        if stepper.as_ref().map(|s| s.dt() != dt).unwrap_or(true) {
            stepper = Some(tile.transient_stepper(dt));
        }
        temps = stepper
            .as_ref()
            .expect("stepper built above")
            .step(&temps, &total, tile.ambient());
        time += dt.as_f64();

        points.push(TransientPoint {
            time,
            dynamic: core.total() * n as f64,
            static_: static_core * n as f64,
            temperature: tile_fp.average_temperature(&temps),
        });
    }
    TransientTrace {
        points,
        window_cycles: windows
            .first()
            .map(|w| w.end_cycle - w.start_cycle)
            .unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_sim::ChipSpec;
    use tlp_tech::Technology;
    use tlp_workloads::micro::power_virus;
    use tlp_workloads::{gang, AppId, Scale};

    fn chip() -> ExperimentalChip {
        ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm())
    }

    #[test]
    fn virus_trace_ramps_toward_design_temperature() {
        let chip = chip();
        let (_, trace) = thermal_trace(
            &chip,
            vec![power_virus(0, 1, 40_000)],
            chip.config().operating_point,
            20_000,
            // The heat-sink time constant is minutes; dilate each ~6 µs
            // window to ~60 s so the trace spans the full thermal ramp.
            1e7,
        );
        assert!(trace.points.len() >= 5, "{} points", trace.points.len());
        // Monotone heating from ambient toward the ~100 °C design point.
        let first = trace.points.first().unwrap().temperature.as_f64();
        let last = trace.points.last().unwrap().temperature.as_f64();
        assert!(first < last, "no ramp: {first} -> {last}");
        assert!(last > 75.0, "did not heat up: {last}");
        assert!(trace.peak_temperature().as_f64() <= 102.0);
    }

    #[test]
    fn barrier_phases_show_power_swings() {
        // An imbalanced app alternates compute and spin phases; the
        // dynamic trace must not be flat.
        let chip = chip();
        let (_, trace) = thermal_trace(
            &chip,
            gang(AppId::Volrend, 4, Scale::Test, 3),
            chip.config().operating_point,
            5_000,
            1e4,
        );
        let powers: Vec<f64> = trace.points.iter().map(|p| p.dynamic.as_f64()).collect();
        let max = powers.iter().cloned().fold(0.0, f64::max);
        let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max > 1.3 * min.max(0.1),
            "flat power trace: min {min} max {max}"
        );
    }

    #[test]
    fn big_little_trace_simulates_the_chip_itself() {
        let chip = ExperimentalChip::from_spec(ChipSpec::big_little(2, 2), Technology::itrs_65nm());
        let op = chip.config().operating_point;
        let (traced, trace) = thermal_trace(
            &chip,
            gang(AppId::WaterNsq, 4, Scale::Test, 7),
            op,
            5_000,
            1e4,
        );
        let run = chip.run(gang(AppId::WaterNsq, 4, Scale::Test, 7), op);
        assert_eq!(format!("{traced:?}"), format!("{run:?}"));
        assert!(!trace.points.is_empty());
    }

    #[test]
    fn trace_times_accumulate() {
        let chip = chip();
        let (_, trace) = thermal_trace(
            &chip,
            vec![power_virus(0, 1, 5_000)],
            chip.config().operating_point,
            2_000,
            1e3,
        );
        let mut prev = 0.0;
        for p in &trace.points {
            assert!(p.time > prev);
            prev = p.time;
        }
    }
}
