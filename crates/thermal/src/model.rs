//! High-level thermal model: calibration, thermal maps, and the
//! power↔temperature↔leakage fixpoint.
//!
//! The paper uses HotSpot to determine the maximum operational power — the
//! chip power that yields the 100 °C maximum operating temperature — and
//! then renormalizes its power models against that point (Section 3.3).
//! [`ThermalModel::calibrated`] reproduces this on one core tile: it tunes
//! the package's sink-to-ambient conductance so the tile's average
//! temperature reaches `t_max` at the given maximum core power.

use tlp_tech::units::{Celsius, Watts};

use crate::error::ThermalError;
use crate::floorplan::Floorplan;
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
}

/// Knobs of the fixpoint solver ([`ThermalModel::try_fixpoint`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixpointOptions {
    /// Convergence tolerance on the average tile temperature, in °C.
    pub tolerance_celsius: f64,
    /// Iteration budget.
    pub max_iterations: u32,
    /// Under-relaxation factor in `[0, 1)`: each iteration uses
    /// `(1 - damping) · s_new + damping · s_prev` as the static power.
    /// `0` reproduces the undamped iteration; values around `0.5` tame
    /// oscillating solves at the cost of more iterations.
    pub damping: f64,
    /// Average tile temperature above which the solve is declared
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

/// Result of a converged power/temperature fixpoint solve.
#[derive(Debug, Clone, PartialEq)]
pub struct FixpointResult {
    /// The converged thermal map.
    pub map: ThermalMap,
    /// The converged per-block static power.
    pub static_power: Vec<Watts>,
    /// Iterations taken.
    pub iterations: u32,
}

/// HotSpot-like thermal model bound to a floorplan.
///
/// # Examples
///
/// ```
/// use tlp_thermal::{Floorplan, ThermalModel};
/// use tlp_tech::units::{Celsius, Watts};
///
/// // One core tile of the paper's 16-core die, anchored so 25 W per core
/// // equilibrates at 100 °C.
/// let tile = Floorplan::ev6_tile(3.55);
/// let model = ThermalModel::calibrated(tile, Watts::new(25.0),
///     Celsius::new(100.0), Celsius::new(45.0));
/// // At the calibration power, the average tile temperature hits t_max:
/// let p = model.uniform_power(Watts::new(25.0));
/// let map = model.steady_state(&p);
/// let avg = model.floorplan().average_temperature(map.block_temps());
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
    /// `max_power` uniformly over the floorplan yields an average
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
        assert!(max_power.as_f64() > 0.0, "max power must be positive");
        assert!(
            t_max.as_f64() > ambient.as_f64(),
            "t_max must exceed ambient"
        );
        let mut model = Self::new(floorplan, PackageParams::default(), ambient);
        let powers = model.uniform_power(max_power);

        let avg_at = |model: &Self, g: f64| -> f64 {
            let mut m = model.clone();
            m.network.set_sink_conductance(g);
            m.floorplan
                .average_temperature(m.steady_state(&powers).block_temps())
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

    /// Spreads `total` power uniformly (per area) over every block.
    pub fn uniform_power(&self, total: Watts) -> Vec<Watts> {
        let area = self.floorplan.total_area().as_f64();
        self.floorplan
            .blocks()
            .iter()
            .map(|b| Watts::new(total.as_f64() * b.area().as_f64() / area))
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
    /// the per-block static power at those temperatures, and re-solves
    /// until the average tile temperature changes by less than the
    /// tolerance, with divergence guards and optional under-relaxation
    /// (see [`FixpointOptions`]).
    ///
    /// # Errors
    ///
    /// - [`ThermalError::NonFinite`] — the dynamic power input, the
    ///   static power returned by `static_of`, or the solved temperature
    ///   field contained NaN/∞.
    /// - [`ThermalError::Diverged`] — the average temperature blew past
    ///   `divergence_limit_celsius`, or the per-iteration change kept
    ///   growing (an oscillation that damping may fix).
    /// - [`ThermalError::NoConvergence`] — the iteration budget ran out
    ///   while the solve was still moving within bounds.
    /// - [`ThermalError::DeadlineExceeded`] — the solve's cancellation
    ///   token fired.
    pub fn try_fixpoint<F>(
        &self,
        dynamic_power: &[Watts],
        static_of: F,
        opts: &FixpointOptions,
    ) -> Result<FixpointResult, ThermalError>
    where
        F: FnMut(&ThermalMap) -> Vec<Watts>,
    {
        let _span = tlp_obs::span("thermal.fixpoint");
        let result = self.fixpoint_loop(dynamic_power, static_of, opts);
        if tlp_obs::enabled() {
            use tlp_obs::metrics;
            let iterations = match &result {
                Ok(r) => r.iterations,
                Err(e) => e.iterations(),
            };
            metrics::THERMAL_FIXPOINT_ITERATIONS.add(iterations as u64);
            metrics::HIST_FIXPOINT_ITERATIONS.record(iterations as u64);
            if result.is_err() {
                metrics::THERMAL_FIXPOINT_FAILURES.incr();
            }
        }
        result
    }

    fn fixpoint_loop<F>(
        &self,
        dynamic_power: &[Watts],
        mut static_of: F,
        opts: &FixpointOptions,
    ) -> Result<FixpointResult, ThermalError>
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
        let average = |map: &ThermalMap| {
            self.floorplan
                .average_temperature(map.block_temps())
                .as_f64()
        };

        let mut map = self.steady_state(dynamic_power);
        if !finite(dynamic_power) {
            return Err(ThermalError::NonFinite {
                iterations: 0,
                context: "dynamic power input",
            });
        }
        let mut static_power = vec![Watts::ZERO; nb];
        let mut prev_avg = average(&map);
        let mut prev_delta = f64::INFINITY;
        let mut growth_streak = 0u32;
        for iter in 1..=opts.max_iterations {
            // Deadline poll: a passed cancellation deadline (per-cell
            // sweep deadline) abandons the solve at an iteration boundary.
            if tlp_obs::cancel::cancelled() {
                return Err(ThermalError::DeadlineExceeded {
                    iterations: iter - 1,
                });
            }
            let fresh = static_of(&map);
            assert_eq!(fresh.len(), nb, "one static power entry per block");
            if !finite(&fresh) {
                return Err(ThermalError::NonFinite {
                    iterations: iter,
                    context: "static power",
                });
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
            let avg = average(&map);
            if !avg.is_finite() {
                return Err(ThermalError::NonFinite {
                    iterations: iter,
                    context: "temperature field",
                });
            }
            if avg > opts.divergence_limit_celsius {
                return Err(ThermalError::Diverged {
                    iterations: iter,
                    temperature: avg,
                });
            }
            let delta = (avg - prev_avg).abs();
            if delta < opts.tolerance_celsius {
                return Ok(FixpointResult {
                    map,
                    static_power,
                    iterations: iter,
                });
            }
            // A contraction shrinks the step every iteration; a step that
            // keeps growing means the iteration is oscillating or
            // escaping.
            if delta > prev_delta {
                growth_streak += 1;
                if growth_streak >= 4 {
                    return Err(ThermalError::Diverged {
                        iterations: iter,
                        temperature: avg,
                    });
                }
            } else {
                growth_streak = 0;
            }
            prev_delta = delta;
            prev_avg = avg;
        }
        Err(ThermalError::NoConvergence {
            iterations: opts.max_iterations,
            last_delta: prev_delta,
            tolerance: opts.tolerance_celsius,
        })
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3 mm core tile anchored so 25 W equilibrates at 100 °C: an
    /// average thermal resistance of 2.2 K/W, as on the chips' tiles.
    fn model() -> ThermalModel {
        ThermalModel::calibrated(
            Floorplan::ev6_tile(3.0),
            Watts::new(25.0),
            Celsius::new(100.0),
            Celsius::new(45.0),
        )
    }

    fn average(m: &ThermalModel, map: &ThermalMap) -> f64 {
        m.floorplan()
            .average_temperature(map.block_temps())
            .as_f64()
    }

    fn toy_leakage(nb: usize) -> impl Fn(&ThermalMap) -> Vec<Watts> + Copy {
        // 0.05 W per block at 0 °C, exponential in the block temperature.
        move |map| {
            (0..nb)
                .map(|i| Watts::new(0.05 * (map.block(i).as_f64() / 60.0).exp()))
                .collect()
        }
    }

    #[test]
    fn calibration_hits_t_max() {
        let m = model();
        let p = m.uniform_power(Watts::new(25.0));
        let avg = average(&m, &m.steady_state(&p));
        assert!((avg - 100.0).abs() < 0.2, "calibrated avg {avg}");
    }

    #[test]
    fn half_power_is_cooler_but_above_ambient() {
        let m = model();
        let p = m.uniform_power(Watts::new(12.5));
        let avg = average(&m, &m.steady_state(&p));
        assert!(avg < 100.0);
        assert!(avg > 45.0);
    }

    #[test]
    fn uniform_power_sums_to_total() {
        let m = model();
        let p = m.uniform_power(Watts::new(20.0));
        let total: f64 = p.iter().map(|w| w.as_f64()).sum();
        assert!((total - 20.0).abs() < 1e-9);
        // Power follows area: every block gets its share.
        for (b, w) in m.floorplan().blocks().iter().zip(&p) {
            let share = b.area().as_f64() / m.floorplan().total_area().as_f64();
            assert!((w.as_f64() - 20.0 * share).abs() < 1e-12);
        }
    }

    #[test]
    fn fixpoint_converges_with_temperature_dependent_leakage() {
        let m = model();
        let dynamic = m.uniform_power(Watts::new(15.0));
        let nb = m.floorplan().blocks().len();
        let opts = FixpointOptions {
            tolerance_celsius: 0.01,
            max_iterations: 50,
            ..FixpointOptions::default()
        };
        let result = m
            .try_fixpoint(&dynamic, toy_leakage(nb), &opts)
            .expect("the leakage loop contracts");
        assert!(result.iterations > 1);
        // Static power raises temperature above the dynamic-only solve.
        let dyn_only = average(&m, &m.steady_state(&dynamic));
        assert!(average(&m, &result.map) > dyn_only);
    }

    #[test]
    fn try_fixpoint_reports_nan_power_input() {
        let m = model();
        let mut dynamic = m.uniform_power(Watts::new(15.0));
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
        let dynamic = m.uniform_power(Watts::new(15.0));
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
        let dynamic = m.uniform_power(Watts::new(15.0));
        let nb = m.floorplan().blocks().len();
        // Ferociously temperature-dependent leakage: each degree of rise
        // adds more static power than the sink can remove.
        let err = m
            .try_fixpoint(
                &dynamic,
                |map| {
                    let w = 2.0 * (average(&m, map) / 40.0).exp();
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
        let dynamic = m.uniform_power(Watts::new(15.0));
        let nb = m.floorplan().blocks().len();
        let err = m
            .try_fixpoint(
                &dynamic,
                toy_leakage(nb),
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
        let dynamic = m.uniform_power(Watts::new(7.5));
        let nb = m.floorplan().blocks().len();
        // Negative feedback steeper than the tile: static power falls by
        // 0.7 W per kelvin, and on a 2.2 K/W tile that is a loop gain of
        // about -1.5, so every undamped step overshoots the fixpoint by
        // more than the one before.
        let leak = |map: &ThermalMap| {
            let w = (75.0 - average(&m, map)) * 0.7 / nb as f64;
            (0..nb).map(|_| Watts::new(w)).collect::<Vec<_>>()
        };
        // One budget for both solves, so only the damping differs.
        let opts = |damping| FixpointOptions {
            tolerance_celsius: 1e-6,
            max_iterations: 100,
            damping,
            ..FixpointOptions::default()
        };
        let mut seen = Vec::new();
        let undamped = m.try_fixpoint(
            &dynamic,
            |map: &ThermalMap| {
                seen.push(average(&m, map));
                leak(map)
            },
            &opts(0.0),
        );
        assert!(
            matches!(undamped, Err(ThermalError::Diverged { .. })),
            "undamped solve did not diverge: {undamped:?}"
        );
        // The iterates alternate around the fixpoint with growing steps.
        let steps: Vec<f64> = seen.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(steps.len() >= 3, "{seen:?}");
        for pair in steps.windows(2) {
            assert!(pair[0] * pair[1] < 0.0, "steps do not alternate: {seen:?}");
            assert!(pair[1].abs() > pair[0].abs(), "steps do not grow: {seen:?}");
        }
        let damped = m.try_fixpoint(&dynamic, leak, &opts(0.5));
        assert!(damped.is_ok(), "damped solve failed: {damped:?}");
    }

    #[test]
    #[should_panic(expected = "t_max must exceed ambient")]
    fn calibration_below_ambient_panics() {
        let _ = ThermalModel::calibrated(
            Floorplan::ev6_tile(3.0),
            Watts::new(10.0),
            Celsius::new(30.0),
            Celsius::new(45.0),
        );
    }
}
