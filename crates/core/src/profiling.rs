//! Off-line profiling (paper §4.1, first step).
//!
//! Runs an application at nominal voltage and frequency on 1..=16 cores to
//! obtain its nominal parallel-efficiency curve (Eq. 6) and single-core
//! reference execution, which the two experimental scenarios consume.

use tlp_analytic::EfficiencyCurve;
use tlp_sim::SimResult;
use tlp_workloads::{gang, AppId, Scale};

use crate::chipstate::ExperimentalChip;
use crate::error::CoreLimit;

/// Nominal (no-DVFS) profile of one application.
#[derive(Debug, Clone)]
pub struct EfficiencyProfile {
    /// Application profiled.
    pub app: AppId,
    /// Core counts profiled, ascending; always starts at 1.
    pub core_counts: Vec<usize>,
    /// Wall-clock execution time of each configuration, seconds.
    pub times: Vec<f64>,
    /// Nominal parallel efficiency εn(N) per configuration.
    pub efficiencies: Vec<f64>,
    /// The single-core run (the iso-performance target and power anchor).
    pub baseline: SimResult,
}

impl EfficiencyProfile {
    /// εn at a profiled core count.
    ///
    /// # Panics
    ///
    /// Panics if `n` was not profiled.
    pub fn efficiency_at(&self, n: usize) -> f64 {
        let idx = self
            .core_counts
            .iter()
            .position(|&c| c == n)
            .unwrap_or_else(|| panic!("core count {n} was not profiled"));
        self.efficiencies[idx]
    }

    /// Nominal speedup `N·εn(N)` at a profiled core count.
    pub fn nominal_speedup(&self, n: usize) -> f64 {
        n as f64 * self.efficiency_at(n)
    }

    /// Converts to an analytic-model efficiency curve (log-N interpolating
    /// table), enabling apples-to-apples analytic/experimental comparisons.
    ///
    /// # Errors
    ///
    /// Propagates table-validation errors (which indicate a degenerate
    /// profile, e.g. out-of-range efficiencies).
    pub fn to_curve(&self) -> Result<EfficiencyCurve, tlp_analytic::AnalyticError> {
        EfficiencyCurve::table(
            self.core_counts
                .iter()
                .zip(&self.efficiencies)
                .filter(|(n, _)| **n > 1)
                .map(|(n, e)| (*n, e.min(2.0)))
                .collect(),
        )
    }
}

/// The limit that keeps `app` off `n` cores of `chip`, if any: the
/// counts [`profile`] skips.
pub fn core_limit(chip: &ExperimentalChip, app: AppId, n: usize) -> Option<CoreLimit> {
    if app.requires_pow2_threads() && !n.is_power_of_two() {
        Some(CoreLimit::PowerOfTwo)
    } else if n > chip.config().n_cores {
        Some(CoreLimit::ChipCores(chip.config().n_cores))
    } else {
        None
    }
}

/// Nominal parallel efficiency εn(N) = t1 / (N·tN) (Eq. 6) from the
/// single-core and N-core execution times.
pub fn efficiency(t1: f64, n: usize, tn: f64) -> f64 {
    t1 / (n as f64 * tn)
}

/// Profiles `app` on each core count at nominal V/f.
///
/// Core counts must be ascending and start at 1 (the reference). Counts
/// incompatible with the app's power-of-two restriction are skipped, as in
/// the paper's "missing bars".
///
/// # Panics
///
/// Panics if `core_counts` is empty or does not start at 1.
pub fn profile(
    chip: &ExperimentalChip,
    app: AppId,
    core_counts: &[usize],
    scale: Scale,
    seed: u64,
) -> EfficiencyProfile {
    assert!(
        core_counts.first() == Some(&1),
        "profiling must include the single-core reference first"
    );
    let _span = tlp_obs::span_with("profile", || app.name().to_string());
    let op = chip.config().operating_point;
    let mut counts = Vec::new();
    let mut times = Vec::new();
    let mut efficiencies = Vec::new();
    let mut baseline: Option<SimResult> = None;

    for &n in core_counts {
        if core_limit(chip, app, n).is_some() {
            continue;
        }
        let result = chip.run(gang(app, n, scale, seed), op);
        let t = result.execution_time().as_f64();
        let t1 = baseline
            .as_ref()
            .map(|b| b.execution_time().as_f64())
            .unwrap_or(t);
        counts.push(n);
        times.push(t);
        efficiencies.push(efficiency(t1, n, t));
        if baseline.is_none() {
            baseline = Some(result);
        }
    }
    EfficiencyProfile {
        app,
        core_counts: counts,
        times,
        efficiencies,
        baseline: baseline.expect("at least the single-core run exists"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_sim::ChipSpec;
    use tlp_tech::Technology;

    fn chip() -> ExperimentalChip {
        ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm())
    }

    #[test]
    fn efficiency_is_one_at_one_core() {
        let p = profile(&chip(), AppId::WaterNsq, &[1, 2], Scale::Test, 11);
        assert!((p.efficiency_at(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_declines_with_cores_for_task_queue_app() {
        // Cholesky's single task-queue lock limits scalability.
        let p = profile(&chip(), AppId::Cholesky, &[1, 2, 8], Scale::Test, 11);
        assert!(
            p.efficiency_at(8) < p.efficiency_at(2),
            "εn(8)={} !< εn(2)={}",
            p.efficiency_at(8),
            p.efficiency_at(2)
        );
    }

    #[test]
    fn pow2_apps_skip_odd_counts() {
        let p = profile(&chip(), AppId::Fft, &[1, 2, 3, 4], Scale::Test, 11);
        assert_eq!(p.core_counts, vec![1, 2, 4]);
    }

    #[test]
    fn to_curve_interpolates_profile() {
        let p = profile(&chip(), AppId::Barnes, &[1, 2, 4], Scale::Test, 11);
        let curve = p.to_curve().unwrap();
        let direct = p.efficiency_at(4);
        assert!((curve.at(4).unwrap() - direct).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "single-core reference")]
    fn profile_requires_baseline_first() {
        let _ = profile(&chip(), AppId::Barnes, &[2, 4], Scale::Test, 11);
    }
}
