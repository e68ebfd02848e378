//! JSON rendering of the experiment result types.
//!
//! The CLI's `--json` mode and the sweep runner emit these shapes. All
//! conversions go through [`tlp_tech::json::Json`], so key order is
//! deterministic and non-finite numbers degrade to `null` instead of
//! producing invalid JSON.

use tlp_power::Calibration;
use tlp_sim::SimResult;
use tlp_tech::json::{Json, ToJson};
use tlp_tech::OperatingPoint;

use crate::chipstate::ChipMeasurement;
use crate::profiling::EfficiencyProfile;
use crate::scenario1::{RequestSummary, Scenario1Result, Scenario1Row};
use crate::scenario2::{Scenario2Result, Scenario2Row};
use crate::sweep::{CellOutcome, SweepReport};

/// Renders a request-latency digest (open-loop server cells only).
pub fn request_summary_json(r: &RequestSummary) -> Json {
    Json::object([
        ("offered_rps", Json::from(r.offered_rps as u64)),
        ("completed", Json::from(r.completed)),
        ("throughput_rps", Json::from(r.throughput_rps)),
        ("p50_us", Json::from(r.p50_s * 1e6)),
        ("p90_us", Json::from(r.p90_s * 1e6)),
        ("p99_us", Json::from(r.p99_s * 1e6)),
        ("max_us", Json::from(r.max_s * 1e6)),
        ("queue_depth_peak", Json::from(r.queue_depth_peak)),
        (
            "energy_per_request_uj",
            Json::from(r.energy_per_request_j * 1e6),
        ),
    ])
}

/// Renders a power/thermal calibration (§3.3) as JSON.
pub fn calibration_json(cal: &Calibration) -> Json {
    Json::object([
        ("renorm", Json::from(cal.renorm)),
        (
            "core_dynamic_max_w",
            Json::from(cal.core_dynamic_max.as_f64()),
        ),
        (
            "single_core_budget_w",
            Json::from(cal.single_core_budget.as_f64()),
        ),
    ])
}

/// Renders an operating point as `{ "ghz": ..., "vdd": ... }`.
pub fn operating_point_json(op: &OperatingPoint) -> Json {
    Json::object([
        ("ghz", Json::from(op.frequency.as_ghz())),
        ("vdd", Json::from(op.voltage.as_f64())),
    ])
}

/// Renders the summary of one simulation run.
pub fn sim_result_json(r: &SimResult) -> Json {
    Json::object([
        ("cycles", Json::from(r.cycles)),
        ("ghz", Json::from(r.frequency.as_ghz())),
        ("n_threads", Json::from(r.n_threads)),
        ("ipc", Json::from(r.ipc())),
        (
            "execution_time_ms",
            Json::from(r.execution_time().as_f64() * 1e3),
        ),
    ])
}

impl ToJson for EfficiencyProfile {
    fn to_json(&self) -> Json {
        Json::object([
            ("app", Json::from(self.app.name())),
            (
                "core_counts",
                Json::array(&self.core_counts, |n| Json::from(*n)),
            ),
            ("times_s", Json::array(&self.times, |t| Json::from(*t))),
            (
                "efficiencies",
                Json::array(&self.efficiencies, |e| Json::from(*e)),
            ),
            ("baseline", sim_result_json(&self.baseline)),
        ])
    }
}

impl ToJson for Scenario1Row {
    fn to_json(&self) -> Json {
        Json::object([
            ("n", Json::from(self.n)),
            ("nominal_efficiency", Json::from(self.nominal_efficiency)),
            ("actual_speedup", Json::from(self.actual_speedup)),
            ("power_watts", Json::from(self.power_watts)),
            ("normalized_power", Json::from(self.normalized_power)),
            ("normalized_density", Json::from(self.normalized_density)),
            ("temperature_c", Json::from(self.temperature_c)),
            (
                "operating_point",
                operating_point_json(&self.operating_point),
            ),
            (
                "requests",
                match &self.requests {
                    Some(r) => request_summary_json(r),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl ToJson for Scenario1Result {
    fn to_json(&self) -> Json {
        Json::object([
            ("app", Json::from(self.app.name())),
            ("rows", Json::array(&self.rows, Scenario1Row::to_json)),
        ])
    }
}

impl ToJson for Scenario2Row {
    fn to_json(&self) -> Json {
        Json::object([
            ("n", Json::from(self.n)),
            ("nominal_speedup", Json::from(self.nominal_speedup)),
            ("actual_speedup", Json::from(self.actual_speedup)),
            (
                "operating_point",
                operating_point_json(&self.operating_point),
            ),
            ("power_watts", Json::from(self.power_watts)),
            ("unconstrained", Json::from(self.unconstrained)),
        ])
    }
}

impl ToJson for Scenario2Result {
    fn to_json(&self) -> Json {
        Json::object([
            ("app", Json::from(self.app.name())),
            ("budget_watts", Json::from(self.budget_watts)),
            ("rows", Json::array(&self.rows, Scenario2Row::to_json)),
        ])
    }
}

impl ToJson for ChipMeasurement {
    fn to_json(&self) -> Json {
        Json::object([
            ("dynamic_w", Json::from(self.dynamic.as_f64())),
            ("static_w", Json::from(self.static_.as_f64())),
            ("total_w", Json::from(self.total().as_f64())),
            (
                "core_temps_c",
                Json::array(&self.core_temps, |t| Json::from(t.as_f64())),
            ),
            ("avg_core_temp_c", Json::from(self.avg_core_temp().as_f64())),
            (
                "power_density_w_mm2",
                Json::from(self.power_density.as_w_per_mm2()),
            ),
            ("fixpoint_iterations", Json::from(self.fixpoint_iterations)),
        ])
    }
}

impl ToJson for SweepReport {
    /// Deliberately excludes [`SweepTiming`](crate::sweep::SweepTiming):
    /// wall clock is nondeterministic, and this payload must be
    /// byte-identical for every thread count.
    fn to_json(&self) -> Json {
        let done = self.cells.iter().filter(|(_, o)| o.is_completed()).count();
        let quarantined = self
            .cells
            .iter()
            .filter(|(_, o)| o.is_quarantined())
            .count();
        let mut doc = Json::object([
            ("cells_total", Json::from(self.cells.len())),
            ("cells_completed", Json::from(done)),
            (
                "cells_failed",
                Json::from(self.cells.len() - done - quarantined),
            ),
            ("cells_quarantined", Json::from(quarantined)),
        ]);
        // Heterogeneity and budget axes are emitted only when armed, so
        // homogeneous un-budgeted sweeps stay byte-identical to the
        // pre-heterogeneity payload.
        if let Some(tag) = &self.chip {
            doc.set("chip", tag.as_str());
        }
        if let Some(axes) = &self.budget {
            doc.set(
                "budget",
                Json::object([
                    ("area_mm2", Json::from(axes.spec.area_mm2)),
                    ("tdp_watts", Json::from(axes.spec.tdp_watts)),
                    ("core_area_mm2", Json::from(axes.core_area_mm2)),
                ]),
            );
        }
        doc.set(
            "cells",
            Json::array(&self.cells, |(cell, outcome)| {
                let mut o = Json::object([
                    ("app", Json::from(cell.work.name())),
                    ("n", Json::from(cell.n)),
                ]);
                match outcome {
                    CellOutcome::Completed {
                        row,
                        attempts,
                        solver_iterations,
                    } => {
                        o.set("status", "completed");
                        o.set("attempts", *attempts);
                        o.set("solver_iterations", *solver_iterations);
                        o.set("row", row.to_json());
                        // Per-cell dark-silicon fit, only under armed
                        // budget axes (and only when ≥1 core fits).
                        if let Some(fit) = self.dark_silicon(row) {
                            o.set(
                                "dark_silicon",
                                Json::object([
                                    ("n_cores", Json::from(fit.n_cores)),
                                    ("power_limited", Json::from(fit.power_limited)),
                                    ("dark_silicon_ratio", Json::from(fit.dark_silicon_ratio)),
                                ]),
                            );
                        }
                    }
                    CellOutcome::Failed { reason, attempts } => {
                        o.set("status", "failed");
                        o.set("attempts", *attempts);
                        o.set("reason", reason.to_string());
                        // The full causal chain (outermost first), so
                        // pipelines can triage without re-running.
                        o.set(
                            "reason_chain",
                            Json::array(crate::error::error_chain(reason), Json::from),
                        );
                    }
                    CellOutcome::Quarantined {
                        reason_chain,
                        attempts,
                        replay_seed,
                    } => {
                        o.set("status", "quarantined");
                        o.set("attempts", *attempts);
                        // Hex, matching the CLI's --seed syntax, so
                        // the replay recipe can be pasted verbatim.
                        o.set("replay_seed", format!("{replay_seed:#x}"));
                        o.set(
                            "reason_chain",
                            Json::array(reason_chain, |s| Json::from(s.clone())),
                        );
                    }
                }
                o
            }),
        );
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_tech::units::{Hertz, Volts};

    #[test]
    fn operating_point_shape() {
        let op = OperatingPoint {
            frequency: Hertz::from_ghz(2.0),
            voltage: Volts::new(1.0),
        };
        assert_eq!(
            operating_point_json(&op).to_string_compact(),
            "{\"ghz\":2,\"vdd\":1}"
        );
    }

    #[test]
    fn failed_sweep_cell_shape() {
        use crate::sweep::{SweepCell, WorkloadId};
        use tlp_power::PowerError;
        use tlp_workloads::AppId;

        let report = SweepReport {
            cells: vec![(
                SweepCell {
                    work: WorkloadId::App(AppId::Fft),
                    n: 4,
                },
                CellOutcome::Failed {
                    reason: crate::error::ExperimentError::Power(PowerError::EmptyRun),
                    attempts: 1,
                },
            )],
            timing: crate::sweep::SweepTiming {
                threads: 1,
                total_seconds: 0.25,
                cell_seconds: vec![0.25],
                recovery: None,
            },
            chip: None,
            budget: None,
        };
        let j = report.to_json().to_string_compact();
        assert!(j.contains("\"cells_failed\":1"), "{j}");
        assert!(j.contains("\"status\":\"failed\""), "{j}");
        assert!(j.contains("\"reason\":\"power accounting failed"), "{j}");
        // The chain walks through the power-layer cause.
        assert!(j.contains("\"reason_chain\":["), "{j}");
        assert!(j.contains("zero-cycle run\"]"), "{j}");
        // Wall clock is nondeterministic and must never leak into the
        // deterministic payload.
        assert!(!j.contains("seconds"), "{j}");
        assert!(!j.contains("threads"), "{j}");
    }

    #[test]
    fn quarantined_sweep_cell_shape() {
        use crate::sweep::{SweepCell, WorkloadId};
        use tlp_workloads::AppId;

        let report = SweepReport {
            cells: vec![(
                SweepCell {
                    work: WorkloadId::App(AppId::Radix),
                    n: 8,
                },
                CellOutcome::Quarantined {
                    reason_chain: vec![
                        "quarantined after 3 poison strike(s)".to_string(),
                        "simulation failed: hung".to_string(),
                    ],
                    attempts: 4,
                    replay_seed: 0xD1CE,
                },
            )],
            timing: crate::sweep::SweepTiming {
                threads: 1,
                total_seconds: 0.1,
                cell_seconds: vec![0.0],
                recovery: None,
            },
            chip: None,
            budget: None,
        };
        let j = report.to_json().to_string_compact();
        assert!(j.contains("\"cells_quarantined\":1"), "{j}");
        assert!(j.contains("\"cells_failed\":0"), "{j}");
        assert!(j.contains("\"status\":\"quarantined\""), "{j}");
        assert!(j.contains("\"replay_seed\":\"0xd1ce\""), "{j}");
        assert!(j.contains("poison strike"), "{j}");
    }

    #[test]
    fn calibration_shape() {
        let cal = Calibration {
            renorm: 0.5,
            core_dynamic_max: tlp_tech::units::Watts::new(10.0),
            single_core_budget: tlp_tech::units::Watts::new(12.5),
        };
        let j = calibration_json(&cal).to_string_compact();
        assert_eq!(
            j,
            "{\"renorm\":0.5,\"core_dynamic_max_w\":10,\"single_core_budget_w\":12.5}"
        );
    }
}
