//! Text renderers that print experiment results in the shape of the
//! paper's tables and figures (one series per line, values per core
//! count), so `cargo run -p tlp-bench --bin figN` output can be compared
//! against the paper side by side.

use std::fmt::Write as _;

use tlp_analytic::{Scenario1Series, Scenario2Point};
use tlp_workloads::AppId;

use crate::scenario1::Scenario1Result;
use crate::scenario2::Scenario2Result;
use crate::sweep::{CellOutcome, SweepReport};

/// Renders the analytic Fig. 1 series (normalized power vs. efficiency).
pub fn fig1(node: &str, series: &[Scenario1Series]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig.1 ({node}): normalized chip power P_N/P_1 vs nominal parallel efficiency"
    );
    for s in series {
        let _ = write!(out, "  N={:2} |", s.n);
        for p in &s.points {
            let _ = write!(out, " {:.2}@{:.2}", p.normalized_power, p.efficiency);
        }
        let _ = writeln!(out);
        if let Some(be) = s.breakeven_efficiency() {
            let _ = writeln!(out, "       break-even at εn ≈ {be:.2}");
        }
    }
    out
}

/// Renders the analytic Fig. 2 series (speedup vs. cores under budget).
pub fn fig2(node: &str, points: &[Scenario2Point]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig.2 ({node}): speedup under single-core power budget, εn = 1"
    );
    let _ = writeln!(
        out,
        "  {:>3} {:>8} {:>10} {:>8} {:>9}",
        "N", "speedup", "f (GHz)", "V", "regime"
    );
    for p in points {
        let _ = writeln!(
            out,
            "  {:>3} {:>8.3} {:>10.3} {:>8.3} {:>9?}",
            p.n,
            p.speedup,
            p.frequency.as_ghz(),
            p.voltage.as_f64(),
            p.regime
        );
    }
    out
}

/// Renders one application's Fig. 3 rows (five plots as five columns).
pub fn fig3(results: &[Scenario1Result]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig.3: Scenario I (iso-performance) per application\n\
         {:<11} {:>3} {:>6} {:>8} {:>9} {:>9} {:>8}",
        "app", "N", "εn", "speedup", "P/P1", "dens/d1", "T (°C)"
    );
    for r in results {
        for row in &r.rows {
            let _ = writeln!(
                out,
                "{:<11} {:>3} {:>6.2} {:>8.2} {:>9.3} {:>9.3} {:>8.1}",
                r.app.name(),
                row.n,
                row.nominal_efficiency,
                row.actual_speedup,
                row.normalized_power,
                row.normalized_density,
                row.temperature_c
            );
        }
    }
    out
}

/// Renders Fig. 4 rows (nominal vs. actual speedup under budget).
pub fn fig4(results: &[Scenario2Result]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig.4: Scenario II (power budget = single core) nominal vs actual speedup"
    );
    for r in results {
        let _ = writeln!(out, "{} (budget {:.1} W)", r.app.name(), r.budget_watts);
        let _ = writeln!(
            out,
            "  {:>3} {:>9} {:>8} {:>9} {:>8} {:>6}",
            "N", "nominal", "actual", "f (GHz)", "P (W)", "free?"
        );
        for row in &r.rows {
            let _ = writeln!(
                out,
                "  {:>3} {:>9.2} {:>8.2} {:>9.2} {:>8.1} {:>6}",
                row.n,
                row.nominal_speedup,
                row.actual_speedup,
                row.operating_point.frequency.as_ghz(),
                row.power_watts,
                if row.unconstrained { "yes" } else { "no" }
            );
        }
    }
    out
}

/// Renders the per-cell human listing of a supervised sweep, in request
/// order: completed cells with their measurements and wall clock, failed
/// cells with the outermost diagnosis, and quarantined cells with the
/// exact `--seed` value that replays the poisoned execution (paste it
/// into `cmp-tlp check --oracle sweep-determinism --replay SEED` or a
/// scripted single-cell run to reproduce under a debugger).
pub fn sweep_cells(report: &SweepReport) -> String {
    let mut out = String::new();
    if let Some(tag) = &report.chip {
        let _ = writeln!(out, "chip: {tag}");
    }
    if let Some(axes) = &report.budget {
        let _ = writeln!(
            out,
            "budget: {:.1} mm² / {:.1} W TDP (core {:.2} mm²)",
            axes.spec.area_mm2, axes.spec.tdp_watts, axes.core_area_mm2
        );
    }
    for (i, (cell, outcome)) in report.cells.iter().enumerate() {
        match outcome {
            CellOutcome::Completed {
                row,
                attempts,
                solver_iterations,
            } => {
                let _ = writeln!(
                    out,
                    "{cell:<16} speedup {:.2}  power {:.1} W  temp {:.1} °C  \
                     [{attempts} attempt(s), {solver_iterations} solver iters, {:.3} s]",
                    row.actual_speedup,
                    row.power_watts,
                    row.temperature_c,
                    report.timing.cell_seconds[i],
                );
                if let Some(fit) = report.dark_silicon(row) {
                    let _ = writeln!(
                        out,
                        "{:16} dark silicon {:.0}%  ({} core(s) lit, {}-limited)",
                        "",
                        fit.dark_silicon_ratio * 100.0,
                        fit.n_cores,
                        if fit.power_limited { "TDP" } else { "area" },
                    );
                }
                if let Some(req) = &row.requests {
                    let _ = writeln!(
                        out,
                        "{:16} latency p50 {:.2} µs  p99 {:.2} µs  max {:.2} µs  \
                         {:.0} req/s  {:.2} µJ/req  peak queue {}",
                        "",
                        req.p50_s * 1e6,
                        req.p99_s * 1e6,
                        req.max_s * 1e6,
                        req.throughput_rps,
                        req.energy_per_request_j * 1e6,
                        req.queue_depth_peak,
                    );
                }
            }
            CellOutcome::Failed { reason, attempts } => {
                let _ = writeln!(out, "{cell:<16} FAILED [{attempts} attempt(s)]: {reason}");
            }
            CellOutcome::Quarantined {
                reason_chain,
                attempts,
                replay_seed,
            } => {
                let _ = writeln!(
                    out,
                    "{cell:<16} QUARANTINED [{attempts} attempt(s), \
                     replay with --seed {replay_seed:#x}]"
                );
                for line in reason_chain {
                    let _ = writeln!(out, "{:16}   {line}", "");
                }
            }
        }
    }
    out
}

/// Renders Table 1 (the modeled CMP configuration).
pub fn table1(cfg: &tlp_sim::CmpConfig, tech: &tlp_tech::Technology) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 1: CMP configuration");
    let _ = writeln!(out, "  CMP size            {}-way", cfg.n_cores);
    let _ = writeln!(
        out,
        "  Processor core      Alpha 21264-class, {}-wide",
        cfg.core.issue_width
    );
    let _ = writeln!(out, "  Process technology  {}", tech.node());
    let _ = writeln!(
        out,
        "  Nominal frequency   {:.1} GHz",
        tech.f_nominal().as_ghz()
    );
    let _ = writeln!(
        out,
        "  Nominal Vdd         {:.2} V",
        tech.vdd_nominal().as_f64()
    );
    let _ = writeln!(out, "  Vth                 {:.2} V", tech.vth().as_f64());
    let _ = writeln!(
        out,
        "  L1 I-, D-cache      {} KB, {} B line, {}-way, {}-cycle RT",
        cfg.l1d.size_bytes / 1024,
        cfg.l1d.line_bytes,
        cfg.l1d.ways,
        cfg.l1d.latency_cycles
    );
    let _ = writeln!(
        out,
        "  Unified L2          shared, {} MB, {} B line, {}-way, {}-cycle RT",
        cfg.l2.size_bytes / (1024 * 1024),
        cfg.l2.line_bytes,
        cfg.l2.ways,
        cfg.l2.latency_cycles
    );
    let _ = writeln!(
        out,
        "  Memory              {:.0} ns RT ({} cycles at nominal)",
        cfg.memory_round_trip.as_ns(),
        cfg.memory_latency_cycles()
    );
    out
}

/// Renders Table 2 (the application suite).
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 2: SPLASH-2 applications and problem sizes");
    for app in AppId::ALL {
        let _ = writeln!(out, "  {:<11} {}", app.name(), app.problem_size());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_key_parameters() {
        let cfg = tlp_sim::CmpConfig::ispass05(16);
        let tech = tlp_tech::Technology::itrs_65nm();
        let t = table1(&cfg, &tech);
        assert!(t.contains("16-way"));
        assert!(t.contains("3.2 GHz"));
        assert!(t.contains("4 MB"));
        assert!(t.contains("75 ns"));
        assert!(t.contains("240 cycles"));
    }

    #[test]
    fn fig_renderers_include_series_and_values() {
        use tlp_analytic::{AnalyticChip, EfficiencyCurve, Scenario1, Scenario2};
        let chip = AnalyticChip::new(tlp_tech::Technology::itrs_65nm(), 32);
        let s1 = Scenario1::new(&chip);
        let series = s1.sweep(&[2, 4], 0.4, 4);
        let out = fig1("65nm", &series);
        assert!(out.contains("N= 2"));
        assert!(out.contains("N= 4"));
        assert!(out.contains("break-even"));

        let s2 = Scenario2::new(&chip);
        let sweep = s2.sweep(4, &EfficiencyCurve::Perfect);
        let out = fig2("65nm", &sweep);
        assert!(out.contains("speedup"));
        assert!(out.contains("Nominal") || out.contains("VoltageScaled"));
    }

    #[test]
    fn fig4_renderer_marks_unconstrained_rows() {
        use crate::scenario2::{Scenario2Result, Scenario2Row};
        use tlp_tech::units::{Hertz, Volts};
        use tlp_tech::OperatingPoint;
        let r = Scenario2Result {
            app: AppId::Radix,
            budget_watts: 25.0,
            rows: vec![Scenario2Row {
                n: 2,
                nominal_speedup: 1.9,
                actual_speedup: 1.9,
                operating_point: OperatingPoint {
                    frequency: Hertz::from_ghz(3.2),
                    voltage: Volts::new(1.1),
                },
                power_watts: 8.0,
                unconstrained: true,
            }],
        };
        let out = fig4(std::slice::from_ref(&r));
        assert!(out.contains("yes"));
        assert!(out.contains("Radix"));
        assert!(out.contains("25.0 W"));
    }

    #[test]
    fn sweep_cells_renders_all_three_outcomes() {
        use crate::scenario1::{RequestSummary, Scenario1Row};
        use crate::sweep::{SweepCell, SweepTiming, WorkloadId};
        use tlp_power::PowerError;
        use tlp_tech::units::{Hertz, Volts};
        use tlp_tech::OperatingPoint;

        let row = Scenario1Row {
            n: 2,
            nominal_efficiency: 0.9,
            actual_speedup: 1.01,
            power_watts: 18.5,
            normalized_power: 0.62,
            normalized_density: 0.62,
            temperature_c: 71.3,
            operating_point: OperatingPoint {
                frequency: Hertz::from_ghz(1.6),
                voltage: Volts::new(0.9),
            },
            requests: None,
        };
        let mut server_row = row.clone();
        server_row.requests = Some(RequestSummary {
            offered_rps: 2_000_000,
            completed: 2000,
            throughput_rps: 1_987_654.0,
            p50_s: 3.1e-7,
            p90_s: 6.0e-7,
            p99_s: 1.2e-6,
            max_s: 2.5e-6,
            queue_depth_peak: 9,
            energy_per_request_j: 9.25e-6,
        });
        let report = SweepReport {
            cells: vec![
                (
                    SweepCell {
                        work: WorkloadId::App(AppId::Fft),
                        n: 2,
                    },
                    CellOutcome::Completed {
                        row,
                        attempts: 1,
                        solver_iterations: 7,
                    },
                ),
                (
                    SweepCell {
                        work: WorkloadId::App(AppId::Fft),
                        n: 4,
                    },
                    CellOutcome::Failed {
                        reason: crate::error::ExperimentError::Power(PowerError::EmptyRun),
                        attempts: 2,
                    },
                ),
                (
                    SweepCell {
                        work: WorkloadId::App(AppId::Fft),
                        n: 8,
                    },
                    CellOutcome::Quarantined {
                        reason_chain: vec![
                            "quarantined after 3 poison strike(s)".to_string(),
                            "simulation failed: cancelled".to_string(),
                        ],
                        attempts: 3,
                        replay_seed: 0xD1CE,
                    },
                ),
                (
                    SweepCell {
                        work: WorkloadId::Server { rps: 2_000_000 },
                        n: 2,
                    },
                    CellOutcome::Completed {
                        row: server_row,
                        attempts: 1,
                        solver_iterations: 5,
                    },
                ),
            ],
            timing: SweepTiming {
                threads: 1,
                total_seconds: 0.5,
                cell_seconds: vec![0.25, 0.15, 0.0, 0.1],
                recovery: None,
            },
            chip: None,
            budget: None,
        };
        let out = sweep_cells(&report);
        assert!(out.contains("speedup 1.01"), "{out}");
        assert!(out.contains("FAILED [2 attempt(s)]"), "{out}");
        assert!(out.contains("power accounting failed"), "{out}");
        assert!(
            out.contains("QUARANTINED [3 attempt(s), replay with --seed 0xd1ce]"),
            "{out}"
        );
        // Every causal line of the quarantine diagnosis is listed.
        assert!(out.contains("poison strike"), "{out}");
        assert!(out.contains("simulation failed: cancelled"), "{out}");
        // Server cells get a latency line; the cell name carries the load.
        assert!(out.contains("server-2000000@2"), "{out}");
        assert!(out.contains("latency p50 0.31 µs"), "{out}");
        assert!(out.contains("p99 1.20 µs"), "{out}");
        assert!(out.contains("peak queue 9"), "{out}");
    }

    #[test]
    fn table2_lists_all_twelve() {
        let t = table2();
        for app in AppId::ALL {
            assert!(t.contains(app.name()), "missing {app}");
        }
    }
}
