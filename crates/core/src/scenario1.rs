//! Experimental Scenario I: power optimization at iso-performance
//! (paper §4.1, Fig. 3).
//!
//! From the nominal-efficiency profile, each `N`-core configuration gets
//! the Eq. 7 target frequency `f_N = f_1/(N·εn(N))` with the supply
//! voltage extrapolated from the DVFS table; the workload is then
//! *re-simulated* at that operating point and its real power, power
//! density, and temperature are measured. The re-simulation is what
//! captures the effects the analytical model misses — most prominently
//! the narrowing processor–memory gap under chip-only DVFS, which gives
//! memory-bound applications actual speedups above the nominal target.
//!
//! The sweep cell ([`crate::sweep`]) is the one implementation of that
//! procedure: [`run`] is a one-row sweep, and this module holds the row
//! types the sweep produces.

use tlp_sim::stats::RequestStats;
use tlp_tech::units::Hertz;
use tlp_tech::{DvfsTable, OperatingPoint};
use tlp_workloads::{AppId, Scale};

use crate::chipstate::ExperimentalChip;
use crate::error::ExperimentError;
use crate::sweep::{CellOutcome, WorkloadId};

/// Request-latency digest for one open-loop server cell, in wall-clock
/// units (the simulator's cycle-domain [`RequestStats`] divided by the
/// cell's operating frequency, so rows at different DVFS points compare
/// directly).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSummary {
    /// The offered load the arrival process was built for,
    /// requests/second.
    pub offered_rps: u32,
    /// Requests that completed during the run.
    pub completed: u64,
    /// Achieved throughput, completed requests per second of execution
    /// time. An uncongested open-loop cell achieves ≈ the offered load.
    pub throughput_rps: f64,
    /// Median request latency, seconds (arrival to retire, queueing
    /// included; nearest-rank percentile).
    pub p50_s: f64,
    /// 90th-percentile request latency, seconds.
    pub p90_s: f64,
    /// 99th-percentile request latency, seconds.
    pub p99_s: f64,
    /// Worst request latency, seconds.
    pub max_s: f64,
    /// Peak number of requests in flight at once.
    pub queue_depth_peak: u64,
    /// Chip energy per completed request, joules
    /// (power × execution time / completed).
    pub energy_per_request_j: f64,
}

impl RequestSummary {
    /// Converts the simulator's cycle-domain stats into wall-clock
    /// units at the cell's operating frequency and power.
    pub fn from_stats(
        stats: &RequestStats,
        offered_rps: u32,
        frequency: Hertz,
        power_watts: f64,
        exec_time_s: f64,
    ) -> Self {
        let f = frequency.as_f64();
        let secs = |cycles: u64| cycles as f64 / f;
        let completed = stats.completed;
        Self {
            offered_rps,
            completed,
            throughput_rps: if exec_time_s > 0.0 {
                completed as f64 / exec_time_s
            } else {
                0.0
            },
            p50_s: secs(stats.p50_cycles),
            p90_s: secs(stats.p90_cycles),
            p99_s: secs(stats.p99_cycles),
            max_s: secs(stats.max_cycles),
            queue_depth_peak: stats.queue_depth_peak,
            energy_per_request_j: if completed > 0 {
                power_watts * exec_time_s / completed as f64
            } else {
                0.0
            },
        }
    }
}

/// One Fig. 3 data point (one workload on `n` cores).
#[derive(Debug, Clone)]
pub struct Scenario1Row {
    /// Active cores.
    pub n: usize,
    /// Nominal parallel efficiency from profiling (Fig. 3, plot 1).
    pub nominal_efficiency: f64,
    /// Actual wall-clock speedup over the single-core nominal run
    /// (Fig. 3, plot 2). Values above 1 are the memory-gap effect.
    pub actual_speedup: f64,
    /// Chip power in watts.
    pub power_watts: f64,
    /// Power normalized to the single-core configuration (plot 3).
    pub normalized_power: f64,
    /// Core power density normalized to single-core (plot 4).
    pub normalized_density: f64,
    /// Average active-core temperature, °C (plot 5).
    pub temperature_c: f64,
    /// The operating point the configuration ran at.
    pub operating_point: OperatingPoint,
    /// Request-latency digest — `Some` only for open-loop server cells
    /// (batch applications have no request boundaries).
    pub requests: Option<RequestSummary>,
}

/// Fig. 3 series for one application.
#[derive(Debug, Clone)]
pub struct Scenario1Result {
    /// Application.
    pub app: AppId,
    /// One row per simulated core count (ascending, starting at 1).
    pub rows: Vec<Scenario1Row>,
}

/// Runs experimental Scenario I for one application over `core_counts`
/// (ascending, starting at 1).
///
/// # Panics
///
/// Panics if `core_counts` does not start at 1 or any cell fails; use
/// [`try_run`] to handle failures as values.
pub fn run(
    chip: &ExperimentalChip,
    app: AppId,
    core_counts: &[usize],
    scale: Scale,
    seed: u64,
) -> Scenario1Result {
    try_run(chip, app, core_counts, scale, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// Computes the Eq. 7 iso-performance operating point for `n` cores at
/// nominal efficiency `eps`, clamped into the DVFS table range.
///
/// # Errors
///
/// Returns [`ExperimentError::Tech`] if the voltage lookup fails (cannot
/// happen after clamping with a well-formed table, but tables are caller
/// input).
pub fn operating_point_for(
    table: &DvfsTable,
    f1: Hertz,
    n: usize,
    eps: f64,
) -> Result<OperatingPoint, ExperimentError> {
    let target = Hertz::new(f1.as_f64() / (n as f64 * eps))
        .min(f1)
        .max(table.f_min());
    let voltage = table.voltage_for(target)?;
    Ok(OperatingPoint {
        frequency: target,
        voltage,
    })
}

/// Fallible variant of [`run`]: [`try_run_apps`] for one application.
///
/// # Errors
///
/// As [`try_run_apps`].
///
/// # Panics
///
/// Panics if `core_counts` does not start at 1.
pub fn try_run(
    chip: &ExperimentalChip,
    app: AppId,
    core_counts: &[usize],
    scale: Scale,
    seed: u64,
) -> Result<Scenario1Result, ExperimentError> {
    let mut series = try_run_apps(chip, &[app], core_counts, scale, seed)?;
    Ok(series.remove(0))
}

/// Runs Scenario I for each of `apps` over `core_counts` (ascending,
/// starting at 1) as one [`crate::sweep`] on the default thread count,
/// so each row is the sweep cell's — retries included — and the result
/// is the same for any thread count. Counts
/// an application cannot run are skipped, as in the paper's "missing
/// bars" (the counts [`crate::profiling::profile`] skips); the other
/// rows come back in count order, one series per application in
/// `apps` order.
///
/// # Errors
///
/// The first cell failure, in request order, other than
/// [`ExperimentError::Unrunnable`].
///
/// # Panics
///
/// Panics if `core_counts` does not start at 1.
pub fn try_run_apps(
    chip: &ExperimentalChip,
    apps: &[AppId],
    core_counts: &[usize],
    scale: Scale,
    seed: u64,
) -> Result<Vec<Scenario1Result>, ExperimentError> {
    let report = chip
        .sweep()
        .workloads(apps.iter().map(|&app| WorkloadId::App(app)).collect())
        .core_counts(core_counts.to_vec())
        .scale(scale)
        .seed(seed)
        .run()?;
    let mut cells = report.cells.into_iter();
    let mut series = Vec::with_capacity(apps.len());
    for &app in apps {
        let mut rows = Vec::with_capacity(core_counts.len());
        // Cells come in request order: each application's counts in turn.
        for (_, outcome) in cells.by_ref().take(core_counts.len()) {
            match outcome {
                CellOutcome::Completed { row, .. } => rows.push(row),
                CellOutcome::Failed {
                    reason: ExperimentError::Unrunnable(_),
                    ..
                } => {}
                CellOutcome::Failed { reason, .. } => return Err(reason),
                CellOutcome::Quarantined { .. } => unreachable!("only a resume quarantines"),
            }
        }
        series.push(Scenario1Result { app, rows });
    }
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_sim::ChipSpec;
    use tlp_tech::Technology;

    fn run_app(app: AppId, counts: &[usize]) -> Scenario1Result {
        let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());
        run(&chip, app, counts, Scale::Test, 13)
    }

    #[test]
    fn one_sweep_over_many_apps_gives_each_apps_own_series() {
        // Ocean and FFT skip 3 cores; Water-Nsq runs it. Grouping the
        // shared sweep's cells must not shift rows between series.
        let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());
        let apps = [AppId::Ocean, AppId::Fft, AppId::WaterNsq];
        let counts = [1, 2, 3, 4];
        let together = try_run_apps(&chip, &apps, &counts, Scale::Test, 13).unwrap();
        let apart: Vec<_> = apps
            .iter()
            .map(|&app| run(&chip, app, &counts, Scale::Test, 13))
            .collect();
        assert_eq!(
            together.iter().map(|r| r.rows.len()).collect::<Vec<_>>(),
            [3, 3, 4]
        );
        assert_eq!(format!("{together:?}"), format!("{apart:?}"));
    }

    #[test]
    fn single_core_row_is_the_unit_reference() {
        let r = run_app(AppId::WaterSp, &[1, 2]);
        let one = &r.rows[0];
        assert!((one.normalized_power - 1.0).abs() < 1e-9);
        assert!((one.actual_speedup - 1.0).abs() < 1e-9);
        assert!((one.normalized_density - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_configs_run_slower_clocks() {
        let r = run_app(AppId::WaterSp, &[1, 4]);
        let four = &r.rows[1];
        assert!(four.operating_point.frequency < Hertz::from_ghz(3.2));
        assert!(four.operating_point.voltage < Technology::itrs_65nm().vdd_nominal());
    }

    #[test]
    fn well_scaling_app_saves_power_on_four_cores() {
        // The paper's headline experimental result.
        let r = run_app(AppId::WaterNsq, &[1, 4]);
        let four = &r.rows[1];
        assert!(
            four.normalized_power < 1.0,
            "4-core normalized power {}",
            four.normalized_power
        );
        assert!(four.temperature_c < r.rows[0].temperature_c);
    }

    #[test]
    fn power_density_collapses_with_parallelism() {
        let r = run_app(AppId::WaterNsq, &[1, 8]);
        let eight = r.rows.last().unwrap();
        assert!(
            eight.normalized_density < 0.4,
            "8-core normalized density {}",
            eight.normalized_density
        );
    }

    #[test]
    fn memory_bound_app_gets_actual_speedup_above_one() {
        // Chip-only DVFS narrows the memory gap: Ocean beats the
        // iso-performance target (paper Fig. 3, plot 2).
        let r = run_app(AppId::Ocean, &[1, 4]);
        let four = &r.rows[1];
        assert!(
            four.actual_speedup > 1.05,
            "Ocean actual speedup {}",
            four.actual_speedup
        );
    }
}
