//! High-level thermal model: calibration, thermal maps, and the
//! power↔temperature↔leakage fixpoint.
//!
//! The paper uses HotSpot to determine the maximum operational power — the
//! chip power that yields the 100 °C maximum operating temperature — and
//! then renormalizes its power models against that point (Section 3.3).
//! [`ThermalModel::calibrated`] reproduces this: it tunes the package's
//! sink-to-ambient conductance so the average core temperature reaches
//! `t_max` at the given maximum chip power.

use tlp_tech::units::{Celsius, PowerDensity, Watts};

use crate::error::ThermalError;
use crate::floorplan::{BlockKind, Floorplan};
use crate::network::{PackageParams, RcNetwork};

/// A solved per-block temperature field.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalMap {
    temps: Vec<Celsius>,
    n_blocks: usize,
}

impl ThermalMap {
    /// Per-block temperatures (excluding spreader/sink nodes).
    pub fn block_temps(&self) -> &[Celsius] {
        &self.temps[..self.n_blocks]
    }

    /// Temperature of one block.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn block(&self, block: usize) -> Celsius {
        self.temps[block]
    }

    /// Area-weighted average temperature over blocks selected by `keep`.
    pub fn average_where<F: Fn(usize) -> bool>(&self, floorplan: &Floorplan, keep: F) -> Celsius {
        let mut sum = 0.0;
        let mut area = 0.0;
        for (i, b) in floorplan.blocks().iter().enumerate() {
            if keep(i) {
                let a = b.area().as_f64();
                sum += self.temps[i].as_f64() * a;
                area += a;
            }
        }
        assert!(area > 0.0, "no blocks selected for averaging");
        Celsius::new(sum / area)
    }

    /// Area-weighted average over core blocks only, excluding the L2 — the
    /// statistic the paper plots in Fig. 3 (it excludes the cool L2).
    pub fn average_core_temperature(&self, floorplan: &Floorplan) -> Celsius {
        self.average_where(floorplan, |i| {
            matches!(floorplan.blocks()[i].kind, BlockKind::Core { .. })
        })
    }

    /// Area-weighted average over the *active* cores only (cores with index
    /// below `active`), matching the paper's practice of shutting down and
    /// excluding unused cores.
    pub fn average_active_core_temperature(&self, floorplan: &Floorplan, active: usize) -> Celsius {
        self.average_where(floorplan, |i| match floorplan.blocks()[i].kind {
            BlockKind::Core { core } => core < active,
            BlockKind::L2 => false,
        })
    }

    /// Hottest block temperature.
    pub fn max_temperature(&self) -> Celsius {
        self.temps[..self.n_blocks]
            .iter()
            .copied()
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }
}

/// Knobs of the fallible fixpoint solver ([`ThermalModel::try_fixpoint`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixpointOptions {
    /// Convergence tolerance on the average core temperature, in °C.
    pub tolerance_celsius: f64,
    /// Iteration budget.
    pub max_iterations: u32,
    /// Under-relaxation factor in `[0, 1)`: each iteration uses
    /// `(1 - damping) · s_new + damping · s_prev` as the static power.
    /// `0` reproduces the undamped iteration; values around `0.5` tame
    /// oscillating solves at the cost of more iterations.
    pub damping: f64,
    /// Average core temperature above which the solve is declared
    /// diverged (thermal runaway).
    pub divergence_limit_celsius: f64,
}

impl Default for FixpointOptions {
    fn default() -> Self {
        Self {
            tolerance_celsius: 1e-3,
            max_iterations: 100,
            damping: 0.0,
            divergence_limit_celsius: 1_000.0,
        }
    }
}

/// Result of a power/temperature fixpoint solve.
#[derive(Debug, Clone, PartialEq)]
pub struct FixpointResult {
    /// The converged thermal map.
    pub map: ThermalMap,
    /// The converged per-block static power.
    pub static_power: Vec<Watts>,
    /// Iterations taken.
    pub iterations: u32,
    /// Whether the iteration converged within tolerance.
    pub converged: bool,
}

/// HotSpot-like thermal model bound to a floorplan.
///
/// # Examples
///
/// ```
/// use tlp_thermal::{Floorplan, ThermalModel};
/// use tlp_tech::units::{Celsius, Watts};
///
/// let chip = Floorplan::ispass_cmp(16, 15.6, 15.6);
/// let model = ThermalModel::calibrated(chip, Watts::new(300.0),
///     Celsius::new(100.0), Celsius::new(45.0));
/// // At the calibration power, the average core temperature hits t_max:
/// let p = model.uniform_core_power(Watts::new(300.0), 16);
/// let map = model.steady_state(&p);
/// let avg = map.average_core_temperature(model.floorplan());
/// assert!((avg.as_f64() - 100.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalModel {
    floorplan: Floorplan,
    network: RcNetwork,
    ambient: Celsius,
}

impl ThermalModel {
    /// Builds an uncalibrated model with the given package.
    pub fn new(floorplan: Floorplan, package: PackageParams, ambient: Celsius) -> Self {
        let network = RcNetwork::build(&floorplan, &package);
        Self {
            floorplan,
            network,
            ambient,
        }
    }

    /// Builds a model whose package is calibrated such that dissipating
    /// `max_power` uniformly over all core blocks yields an average core
    /// temperature of `t_max` (the paper's maximum-operational-power
    /// anchoring, Section 3.3).
    ///
    /// # Panics
    ///
    /// Panics if calibration cannot bracket `t_max` (e.g. `t_max` at or
    /// below ambient) or `max_power` is not positive.
    pub fn calibrated(
        floorplan: Floorplan,
        max_power: Watts,
        t_max: Celsius,
        ambient: Celsius,
    ) -> Self {
        let n_cores = floorplan.core_count();
        Self::calibrated_active(floorplan, max_power, n_cores, t_max, ambient)
    }

    /// Like [`ThermalModel::calibrated`], but anchors the calibration on a
    /// configuration with only the first `active_cores` cores powered —
    /// the paper's single-core full-throttle reference runs on the full CMP
    /// die with the other cores shut down.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ThermalModel::calibrated`],
    /// or if `active_cores` is zero or exceeds the floorplan's core count.
    pub fn calibrated_active(
        floorplan: Floorplan,
        max_power: Watts,
        active_cores: usize,
        t_max: Celsius,
        ambient: Celsius,
    ) -> Self {
        assert!(max_power.as_f64() > 0.0, "max power must be positive");
        assert!(
            t_max.as_f64() > ambient.as_f64(),
            "t_max must exceed ambient"
        );
        assert!(
            active_cores >= 1 && active_cores <= floorplan.core_count(),
            "active core count out of range"
        );
        let mut model = Self::new(floorplan, PackageParams::default(), ambient);
        let powers = model.uniform_core_power(max_power, active_cores);

        let avg_at = |model: &Self, g: f64| -> f64 {
            let mut m = model.clone();
            m.network.set_sink_conductance(g);
            m.steady_state(&powers)
                .average_active_core_temperature(&m.floorplan, active_cores)
                .as_f64()
        };

        // Average temperature decreases monotonically with sink
        // conductance; bracket then bisect.
        let target = t_max.as_f64();
        let mut lo = 1e-3; // nearly adiabatic: very hot
        let mut hi = 1e4; // enormous sink: nearly ambient
        assert!(
            avg_at(&model, lo) > target && avg_at(&model, hi) < target,
            "cannot bracket calibration target"
        );
        for _ in 0..100 {
            let mid = (lo * hi).sqrt();
            if avg_at(&model, mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        model.network.set_sink_conductance((lo * hi).sqrt());
        model
    }

    /// The floorplan this model solves over.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The ambient temperature boundary condition.
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Spreads `total` power uniformly (per area) over the blocks of the
    /// first `active_cores` cores; L2 and inactive cores get zero.
    pub fn uniform_core_power(&self, total: Watts, active_cores: usize) -> Vec<Watts> {
        let mut area = 0.0;
        for b in self.floorplan.blocks() {
            if let BlockKind::Core { core } = b.kind {
                if core < active_cores {
                    area += b.area().as_f64();
                }
            }
        }
        assert!(area > 0.0, "no active core area");
        self.floorplan
            .blocks()
            .iter()
            .map(|b| match b.kind {
                BlockKind::Core { core } if core < active_cores => {
                    Watts::new(total.as_f64() * b.area().as_f64() / area)
                }
                _ => Watts::ZERO,
            })
            .collect()
    }

    /// Steady-state thermal map for per-block powers.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` differs from the number of blocks.
    pub fn steady_state(&self, powers: &[Watts]) -> ThermalMap {
        tlp_obs::metrics::THERMAL_STEADY_SOLVES.incr();
        let temps = self.network.steady_state(powers, self.ambient);
        ThermalMap {
            n_blocks: self.floorplan.blocks().len(),
            temps,
        }
    }

    /// Solves the temperature↔static-power fixpoint: starting from dynamic
    /// power only, repeatedly computes temperatures, asks `static_of` for
    /// the per-block static power at those temperatures, and re-solves until
    /// the average core temperature changes by less than `tol_celsius`.
    ///
    /// This is the legacy infallible entry point: failures degrade to
    /// `converged == false` in the result. Supervised callers should use
    /// [`ThermalModel::try_fixpoint`], which distinguishes
    /// non-convergence, divergence, and corrupt (non-finite) inputs as
    /// typed errors.
    pub fn fixpoint<F>(
        &self,
        dynamic_power: &[Watts],
        static_of: F,
        tol_celsius: f64,
        max_iterations: u32,
    ) -> FixpointResult
    where
        F: FnMut(&ThermalMap) -> Vec<Watts>,
    {
        let opts = FixpointOptions {
            tolerance_celsius: tol_celsius,
            max_iterations,
            damping: 0.0,
            divergence_limit_celsius: f64::INFINITY,
        };
        self.fixpoint_impl(dynamic_power, static_of, &opts).0
    }

    /// Fallible fixpoint solve with divergence guards and optional
    /// under-relaxation; see [`FixpointOptions`].
    ///
    /// # Errors
    ///
    /// - [`ThermalError::NonFinite`] — the dynamic power input, the
    ///   static power returned by `static_of`, or the solved temperature
    ///   field contained NaN/∞.
    /// - [`ThermalError::Diverged`] — the average core temperature blew
    ///   past `divergence_limit_celsius`, or the per-iteration change
    ///   kept growing (an oscillation that damping may fix).
    /// - [`ThermalError::NoConvergence`] — the iteration budget ran out
    ///   while the solve was still moving within bounds.
    pub fn try_fixpoint<F>(
        &self,
        dynamic_power: &[Watts],
        static_of: F,
        opts: &FixpointOptions,
    ) -> Result<FixpointResult, ThermalError>
    where
        F: FnMut(&ThermalMap) -> Vec<Watts>,
    {
        let (result, error) = self.fixpoint_impl(dynamic_power, static_of, opts);
        match error {
            None => Ok(result),
            Some(e) => Err(e),
        }
    }

    /// Shared fixpoint loop: always returns the best-effort result, plus
    /// the typed error when the solve failed.
    fn fixpoint_impl<F>(
        &self,
        dynamic_power: &[Watts],
        static_of: F,
        opts: &FixpointOptions,
    ) -> (FixpointResult, Option<ThermalError>)
    where
        F: FnMut(&ThermalMap) -> Vec<Watts>,
    {
        let _span = tlp_obs::span("thermal.fixpoint");
        let (result, error) = self.fixpoint_inner(dynamic_power, static_of, opts);
        if tlp_obs::enabled() {
            use tlp_obs::metrics;
            metrics::THERMAL_FIXPOINT_ITERATIONS.add(result.iterations as u64);
            metrics::HIST_FIXPOINT_ITERATIONS.record(result.iterations as u64);
            if error.is_some() {
                metrics::THERMAL_FIXPOINT_FAILURES.incr();
            }
        }
        (result, error)
    }

    fn fixpoint_inner<F>(
        &self,
        dynamic_power: &[Watts],
        mut static_of: F,
        opts: &FixpointOptions,
    ) -> (FixpointResult, Option<ThermalError>)
    where
        F: FnMut(&ThermalMap) -> Vec<Watts>,
    {
        let nb = self.floorplan.blocks().len();
        assert_eq!(dynamic_power.len(), nb, "one dynamic power entry per block");
        assert!(
            (0.0..1.0).contains(&opts.damping),
            "damping must be in [0, 1)"
        );
        let finite = |ws: &[Watts]| ws.iter().all(|w| w.as_f64().is_finite());

        let mut map = self.steady_state(dynamic_power);
        let mut static_power = vec![Watts::ZERO; nb];
        if !finite(dynamic_power) {
            let result = FixpointResult {
                map,
                static_power,
                iterations: 0,
                converged: false,
            };
            return (
                result,
                Some(ThermalError::NonFinite {
                    iterations: 0,
                    context: "dynamic power input",
                }),
            );
        }

        let mut prev_avg = map.average_core_temperature(&self.floorplan).as_f64();
        let mut prev_delta = f64::INFINITY;
        let mut growth_streak = 0u32;
        let mut error = None;
        let mut iterations = opts.max_iterations;
        for iter in 1..=opts.max_iterations {
            // Watchdog poll: a fired cancellation token (per-cell sweep
            // deadline) abandons the solve at an iteration boundary.
            if tlp_obs::cancel::cancelled() {
                error = Some(ThermalError::DeadlineExceeded {
                    iterations: iter - 1,
                });
                iterations = iter - 1;
                break;
            }
            let fresh = static_of(&map);
            assert_eq!(fresh.len(), nb, "one static power entry per block");
            if !finite(&fresh) {
                error = Some(ThermalError::NonFinite {
                    iterations: iter,
                    context: "static power",
                });
                iterations = iter;
                break;
            }
            // Under-relaxation: blend towards the fresh static power.
            static_power = fresh
                .iter()
                .zip(&static_power)
                .map(|(new, old)| {
                    Watts::new((1.0 - opts.damping) * new.as_f64() + opts.damping * old.as_f64())
                })
                .collect();
            let total: Vec<Watts> = dynamic_power
                .iter()
                .zip(&static_power)
                .map(|(d, s)| *d + *s)
                .collect();
            map = self.steady_state(&total);
            let avg = map.average_core_temperature(&self.floorplan).as_f64();
            if !avg.is_finite() {
                error = Some(ThermalError::NonFinite {
                    iterations: iter,
                    context: "temperature field",
                });
                iterations = iter;
                break;
            }
            if avg > opts.divergence_limit_celsius {
                error = Some(ThermalError::Diverged {
                    iterations: iter,
                    temperature: avg,
                });
                iterations = iter;
                break;
            }
            let delta = (avg - prev_avg).abs();
            if delta < opts.tolerance_celsius {
                let result = FixpointResult {
                    map,
                    static_power,
                    iterations: iter,
                    converged: true,
                };
                return (result, None);
            }
            // A contraction shrinks the step every iteration; a step that
            // keeps growing means the iteration is oscillating or
            // escaping.
            if delta > prev_delta {
                growth_streak += 1;
                if growth_streak >= 4 {
                    error = Some(ThermalError::Diverged {
                        iterations: iter,
                        temperature: avg,
                    });
                    iterations = iter;
                    break;
                }
            } else {
                growth_streak = 0;
            }
            prev_delta = delta;
            prev_avg = avg;
        }

        if error.is_none() {
            error = Some(ThermalError::NoConvergence {
                iterations: opts.max_iterations,
                last_delta: prev_delta,
                tolerance: opts.tolerance_celsius,
            });
        }
        let result = FixpointResult {
            map,
            static_power,
            iterations,
            converged: false,
        };
        (result, error)
    }

    /// Builds a reusable implicit-Euler stepper for step length `dt`: the
    /// `(C/dt + G)` matrix is factored once, so marching a long trace
    /// costs one O(n²) solve per step instead of O(n³).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn transient_stepper(
        &self,
        dt: tlp_tech::units::Seconds,
    ) -> crate::network::TransientSolver {
        self.network.transient_solver(dt)
    }

    /// Average power density over the active cores' blocks for a given
    /// per-block power vector (the Fig. 3 power-density statistic, which
    /// excludes the L2).
    pub fn core_power_density(&self, powers: &[Watts], active_cores: usize) -> PowerDensity {
        let mut p = 0.0;
        let mut area = 0.0;
        for (b, w) in self.floorplan.blocks().iter().zip(powers) {
            if let BlockKind::Core { core } = b.kind {
                if core < active_cores {
                    p += w.as_f64();
                    area += b.area().as_f64();
                }
            }
        }
        assert!(area > 0.0, "no active core area");
        PowerDensity::new(p / area)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ThermalModel {
        ThermalModel::calibrated(
            Floorplan::ispass_cmp(4, 10.0, 10.0),
            Watts::new(100.0),
            Celsius::new(100.0),
            Celsius::new(45.0),
        )
    }

    #[test]
    fn calibration_hits_t_max() {
        let m = model();
        let p = m.uniform_core_power(Watts::new(100.0), 4);
        let avg = m.steady_state(&p).average_core_temperature(m.floorplan());
        assert!((avg.as_f64() - 100.0).abs() < 0.2, "calibrated avg {avg}");
    }

    #[test]
    fn half_power_is_cooler_but_above_ambient() {
        let m = model();
        let p = m.uniform_core_power(Watts::new(50.0), 4);
        let avg = m.steady_state(&p).average_core_temperature(m.floorplan());
        assert!(avg.as_f64() < 100.0);
        assert!(avg.as_f64() > 45.0);
    }

    #[test]
    fn uniform_core_power_sums_to_total() {
        let m = model();
        let p = m.uniform_core_power(Watts::new(80.0), 2);
        let total: f64 = p.iter().map(|w| w.as_f64()).sum();
        assert!((total - 80.0).abs() < 1e-9);
        // Inactive cores and L2 receive nothing.
        for (b, w) in m.floorplan().blocks().iter().zip(&p) {
            match b.kind {
                BlockKind::Core { core } if core < 2 => assert!(w.as_f64() > 0.0),
                _ => assert_eq!(w.as_f64(), 0.0),
            }
        }
    }

    #[test]
    fn active_core_average_exceeds_all_core_average_when_half_active() {
        let m = model();
        let p = m.uniform_core_power(Watts::new(60.0), 2);
        let map = m.steady_state(&p);
        let active = map.average_active_core_temperature(m.floorplan(), 2);
        let all = map.average_core_temperature(m.floorplan());
        assert!(active.as_f64() > all.as_f64());
    }

    #[test]
    fn fixpoint_converges_with_temperature_dependent_leakage() {
        let m = model();
        let dynamic = m.uniform_core_power(Watts::new(60.0), 4);
        let nb = m.floorplan().blocks().len();
        let result = m.fixpoint(
            &dynamic,
            |map| {
                // Toy leakage: 0.1 W per block per 100 °C, exponential-ish.
                (0..nb)
                    .map(|i| Watts::new(0.05 * (map.block(i).as_f64() / 60.0).exp()))
                    .collect()
            },
            0.01,
            50,
        );
        assert!(
            result.converged,
            "fixpoint failed after {} iters",
            result.iterations
        );
        // Static power raises temperature above the dynamic-only solve.
        let dyn_only = m
            .steady_state(&dynamic)
            .average_core_temperature(m.floorplan());
        let with_static = result.map.average_core_temperature(m.floorplan());
        assert!(with_static.as_f64() > dyn_only.as_f64());
    }

    #[test]
    fn power_density_excludes_l2_area() {
        let m = model();
        let p = m.uniform_core_power(Watts::new(100.0), 4);
        let d = m.core_power_density(&p, 4);
        // Core region is 65 % of the 100 mm² die.
        assert!((d.as_w_per_mm2() - 100.0 / 65.0).abs() < 1e-9);
    }

    #[test]
    fn fewer_active_cores_at_same_total_power_run_hotter_locally() {
        let m = model();
        let p4 = m.uniform_core_power(Watts::new(80.0), 4);
        let p1 = m.uniform_core_power(Watts::new(80.0), 1);
        let t4 = m
            .steady_state(&p4)
            .average_active_core_temperature(m.floorplan(), 4);
        let t1 = m
            .steady_state(&p1)
            .average_active_core_temperature(m.floorplan(), 1);
        assert!(
            t1.as_f64() > t4.as_f64(),
            "concentrated power {t1} !> spread power {t4}"
        );
    }

    #[test]
    fn max_temperature_bounds_averages() {
        let m = model();
        let p = m.uniform_core_power(Watts::new(70.0), 3);
        let map = m.steady_state(&p);
        assert!(
            map.max_temperature().as_f64() >= map.average_core_temperature(m.floorplan()).as_f64()
        );
    }

    #[test]
    fn try_fixpoint_converges_like_legacy() {
        let m = model();
        let dynamic = m.uniform_core_power(Watts::new(60.0), 4);
        let nb = m.floorplan().blocks().len();
        let leak = |map: &ThermalMap| {
            (0..nb)
                .map(|i| Watts::new(0.05 * (map.block(i).as_f64() / 60.0).exp()))
                .collect::<Vec<_>>()
        };
        let opts = FixpointOptions {
            tolerance_celsius: 0.01,
            max_iterations: 50,
            ..FixpointOptions::default()
        };
        let r = m.try_fixpoint(&dynamic, leak, &opts).unwrap();
        assert!(r.converged);
        let legacy = m.fixpoint(&dynamic, leak, 0.01, 50);
        assert_eq!(r.map, legacy.map);
    }

    #[test]
    fn try_fixpoint_reports_nan_power_input() {
        let m = model();
        let mut dynamic = m.uniform_core_power(Watts::new(60.0), 4);
        dynamic[0] = Watts::new(f64::NAN);
        let nb = m.floorplan().blocks().len();
        let err = m
            .try_fixpoint(
                &dynamic,
                |_| vec![Watts::ZERO; nb],
                &FixpointOptions::default(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            crate::ThermalError::NonFinite {
                iterations: 0,
                context: "dynamic power input"
            }
        );
    }

    #[test]
    fn try_fixpoint_reports_nan_static_power() {
        let m = model();
        let dynamic = m.uniform_core_power(Watts::new(60.0), 4);
        let nb = m.floorplan().blocks().len();
        let err = m
            .try_fixpoint(
                &dynamic,
                |_| {
                    let mut v = vec![Watts::ZERO; nb];
                    v[1] = Watts::new(f64::INFINITY);
                    v
                },
                &FixpointOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            crate::ThermalError::NonFinite {
                context: "static power",
                ..
            }
        ));
    }

    #[test]
    fn try_fixpoint_detects_thermal_runaway() {
        let m = model();
        let dynamic = m.uniform_core_power(Watts::new(60.0), 4);
        let nb = m.floorplan().blocks().len();
        // Ferociously temperature-dependent leakage: each degree of rise
        // adds more static power than the sink can remove.
        let err = m
            .try_fixpoint(
                &dynamic,
                |map| {
                    let avg = map.average_core_temperature(m.floorplan()).as_f64();
                    let w = 2.0 * (avg / 40.0).exp();
                    (0..nb).map(|_| Watts::new(w)).collect::<Vec<_>>()
                },
                &FixpointOptions {
                    max_iterations: 200,
                    ..FixpointOptions::default()
                },
            )
            .unwrap_err();
        match err {
            crate::ThermalError::Diverged { temperature, .. } => {
                assert!(temperature > 100.0, "runaway stopped at {temperature} °C");
            }
            other => panic!("expected divergence, got {other}"),
        }
    }

    #[test]
    fn try_fixpoint_reports_no_convergence_on_tiny_budget() {
        let m = model();
        let dynamic = m.uniform_core_power(Watts::new(60.0), 4);
        let nb = m.floorplan().blocks().len();
        let err = m
            .try_fixpoint(
                &dynamic,
                |map| {
                    (0..nb)
                        .map(|i| Watts::new(0.05 * (map.block(i).as_f64() / 60.0).exp()))
                        .collect::<Vec<_>>()
                },
                &FixpointOptions {
                    tolerance_celsius: 1e-12,
                    max_iterations: 2,
                    ..FixpointOptions::default()
                },
            )
            .unwrap_err();
        assert!(matches!(
            err,
            crate::ThermalError::NoConvergence { iterations: 2, .. }
        ));
    }

    #[test]
    fn damping_converges_where_undamped_oscillates() {
        let m = model();
        let dynamic = m.uniform_core_power(Watts::new(30.0), 4);
        let nb = m.floorplan().blocks().len();
        // A steep *alternating* feedback: static power swings hard with
        // temperature, so the undamped iteration ping-pongs.
        let leak = |map: &ThermalMap| {
            let avg = map.average_core_temperature(m.floorplan()).as_f64();
            let w = (avg - 45.0).max(0.0) * 1.4 / nb as f64;
            (0..nb).map(|_| Watts::new(w)).collect::<Vec<_>>()
        };
        let undamped = m.try_fixpoint(
            &dynamic,
            leak,
            &FixpointOptions {
                tolerance_celsius: 1e-6,
                max_iterations: 60,
                ..FixpointOptions::default()
            },
        );
        let damped = m
            .try_fixpoint(
                &dynamic,
                leak,
                &FixpointOptions {
                    tolerance_celsius: 1e-6,
                    max_iterations: 500,
                    damping: 0.7,
                    ..FixpointOptions::default()
                },
            )
            .expect("damped solve converges");
        assert!(damped.converged);
        // The undamped solve must have failed (oscillation or budget).
        assert!(undamped.is_err(), "undamped unexpectedly converged");
    }

    #[test]
    #[should_panic(expected = "t_max must exceed ambient")]
    fn calibration_below_ambient_panics() {
        let _ = ThermalModel::calibrated(
            Floorplan::ispass_cmp(2, 10.0, 10.0),
            Watts::new(10.0),
            Celsius::new(30.0),
            Celsius::new(45.0),
        );
    }
}
