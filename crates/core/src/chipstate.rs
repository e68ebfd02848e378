//! The experimental chip: simulator + power + thermal, glued together the
//! way the paper's tool flow glues SESC-style simulation, Wattch, and
//! HotSpot (Section 3.3).
//!
//! [`ExperimentalChip`] owns, for each core class of its [`ChipSpec`], a
//! calibrated power calculator and a per-core-tile thermal model, plus
//! the static model and the DVFS ladder. Given a [`SimResult`] it
//! produces a [`ChipMeasurement`] — total dynamic/static power, average
//! active-core temperature, and core power density — with the
//! power↔temperature fixpoint solved per tile. The paper's homogeneous
//! chip is one class at the base clock and takes the same code path as a
//! big/little mix.

use tlp_analytic::{calibrated_tile, CORE_REGION_MM2};
use tlp_power::{Calibration, DynamicBreakdown, PowerCalculator, PowerError, StaticPower};
use tlp_sim::{ChipSpec, CmpConfig, CmpSimulator, SimFaults, SimResult};
use tlp_tech::units::{Celsius, Hertz, PowerDensity, Volts, Watts};
use tlp_tech::{DvfsTable, OperatingPoint, Technology};
use tlp_thermal::{FixpointOptions, ThermalModel};
use tlp_workloads::micro::power_virus;

use crate::error::ExperimentError;

/// Measurement-stage fault injection (see `DESIGN.md`, "Failure model &
/// fault injection").
///
/// These hooks corrupt the power/thermal pipeline *after* simulation, the
/// way a buggy activity counter or a mis-fitted leakage model would. The
/// default is all-off and costs one branch and one multiply per
/// measurement. Simulation-stage faults (dropped barrier arrivals, cycle
/// budgets) live in [`tlp_sim::SimFaults`] instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureFaults {
    /// Poison the per-block dynamic power vector with a NaN before the
    /// thermal solve. Caught as `ThermalError::NonFinite`.
    pub nan_power: bool,
    /// Multiply the temperature-dependent static-power feedback by this
    /// factor. Values around 3–5 push the 65 nm leakage loop past its
    /// stability margin and provoke thermal runaway
    /// (`ThermalError::Diverged`).
    pub leakage_scale: f64,
}

impl Default for MeasureFaults {
    fn default() -> Self {
        Self {
            nan_power: false,
            leakage_scale: 1.0,
        }
    }
}

impl MeasureFaults {
    /// Whether any fault is armed.
    pub fn any(&self) -> bool {
        self.nan_power || self.leakage_scale != 1.0
    }
}

/// Everything measured about one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipMeasurement {
    /// Total chip dynamic power (renormalized).
    pub dynamic: Watts,
    /// Total chip static power at the equilibrium temperatures.
    pub static_: Watts,
    /// Equilibrium temperature of each active core.
    pub core_temps: Vec<Celsius>,
    /// Average power density over the active cores (excludes the L2, as
    /// the paper's density statistic does).
    pub power_density: PowerDensity,
    /// Total power↔temperature fixpoint iterations across all active-core
    /// tiles. Deterministic for a given run and fixpoint options, so it
    /// doubles as a cheap solver-effort metric in sweep reports.
    pub fixpoint_iterations: u32,
}

impl ChipMeasurement {
    /// Total chip power.
    pub fn total(&self) -> Watts {
        self.dynamic + self.static_
    }

    /// Average temperature over the active cores.
    pub fn avg_core_temp(&self) -> Celsius {
        let n = self.core_temps.len().max(1) as f64;
        Celsius::new(self.core_temps.iter().map(|t| t.as_f64()).sum::<f64>() / n)
    }
}

/// The calibrated experimental platform.
pub struct ExperimentalChip {
    spec: ChipSpec,
    /// Class 0's view of the chip (see [`ChipSpec::base_config`]).
    config: CmpConfig,
    tech: Technology,
    statics: StaticPower,
    calibration: Calibration,
    /// One calibrated calculator per class (all share the §3.3 renorm).
    class_power: Vec<PowerCalculator>,
    /// One calibrated single-core tile per class.
    class_tiles: Vec<ThermalModel>,
    /// Per-core tile area of each class, mm².
    class_areas: Vec<f64>,
    /// The 200 MHz-step DVFS ladder of the technology.
    dvfs: DvfsTable,
}

impl ExperimentalChip {
    /// Builds and calibrates the platform from a [`ChipSpec`] (paper
    /// §3.3):
    ///
    /// 1. Run the compute-intensive microbenchmark on one class-0 core
    ///    at nominal V/f and measure raw Wattch dynamic power.
    /// 2. Renormalize so that equals the HotSpot-anchored `P_D1`.
    /// 3. Per class, build a power calculator for that class's pipeline
    ///    (sharing the one renorm) and calibrate a single-core thermal
    ///    tile so a core at `P_D1 + P_S1(T_max)` equilibrates at
    ///    `T_max`. Tile areas apportion the die's core region by issue
    ///    width (the area proxy of the heterogeneous floorplan).
    ///
    /// Wrap an existing [`CmpConfig`] with [`ChipSpec::from_config`].
    ///
    /// # Panics
    ///
    /// Panics if the technology cannot produce the 200 MHz-step DVFS
    /// ladder (its nominal frequency is not above 200 MHz).
    pub fn from_spec(spec: ChipSpec, tech: Technology) -> Self {
        // Calibration runs on class 0 at the base clock: core 0 is a
        // class-0 core, and an all-little chip's class 0 would otherwise
        // run the virus at half clock.
        let config = spec.base_config();
        let raw_power: Vec<PowerCalculator> = spec
            .classes
            .iter()
            .map(|class| {
                PowerCalculator::new(&CmpConfig {
                    core: class.core,
                    l1i: class.l1i,
                    l1d: class.l1d,
                    ..config.clone()
                })
            })
            .collect();
        let raw_run = CmpSimulator::new(config.clone(), vec![power_virus(0, 1, 30_000)]).run();
        let calibration = Calibration::derive(
            &tech,
            raw_power[0].dynamic(&raw_run, tech.vdd_nominal()).total(),
        );
        let class_power = raw_power
            .into_iter()
            .map(|calc| calc.with_renorm(calibration.renorm))
            .collect();
        let statics = StaticPower::new(&tech);

        // Issue width is the area proxy: a 2-wide core gets half the die
        // area of a 4-wide one.
        let total_weight: f64 = spec
            .classes
            .iter()
            .map(|c| c.count as f64 * f64::from(c.core.issue_width))
            .sum();
        let mut class_tiles = Vec::with_capacity(spec.classes.len());
        let mut class_areas = Vec::with_capacity(spec.classes.len());
        for class in &spec.classes {
            // Dividing the region by the class's share of the weight keeps
            // a one-class chip's tile at exactly region / n.
            let area = CORE_REGION_MM2 / (total_weight / f64::from(class.core.issue_width));
            class_tiles.push(calibrated_tile(&tech, area));
            class_areas.push(area);
        }
        let dvfs = DvfsTable::for_technology(&tech, Hertz::from_mhz(200.0), Hertz::from_mhz(200.0))
            .expect("the DVFS ladder needs a nominal frequency above 200 MHz");
        Self {
            spec,
            config,
            tech,
            statics,
            calibration,
            class_power,
            class_tiles,
            class_areas,
            dvfs,
        }
    }

    /// The chip specification this platform was built from.
    pub fn spec(&self) -> &ChipSpec {
        &self.spec
    }

    /// Average per-core area of the die's core region, mm² — the `a`
    /// input of a dark-silicon budget fit.
    pub fn core_area_mm2(&self) -> f64 {
        CORE_REGION_MM2 / self.spec.n_cores() as f64
    }

    /// Class 0's view of the chip ([`ChipSpec::base_config`]): the whole
    /// chip when it has one base-domain class, otherwise class 0's
    /// pipeline in front of the shared uncore with the chip's total core
    /// count.
    pub fn config(&self) -> &CmpConfig {
        &self.config
    }

    /// The technology's DVFS ladder: 200 MHz steps from 200 MHz up to
    /// the nominal frequency.
    pub fn dvfs(&self) -> &DvfsTable {
        &self.dvfs
    }

    /// The process technology.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The §3.3 calibration outcome.
    pub fn calibration(&self) -> Calibration {
        self.calibration
    }

    /// Class 0's calibrated power calculator.
    pub fn power_calculator(&self) -> &PowerCalculator {
        &self.class_power[0]
    }

    /// The static-power model.
    pub fn static_model(&self) -> &StaticPower {
        &self.statics
    }

    /// Class 0's per-core-tile thermal model.
    pub fn tile_thermal(&self) -> &ThermalModel {
        &self.class_tiles[0]
    }

    /// Runs a gang of thread programs at an operating point.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks or exhausts its cycle budget;
    /// use [`ExperimentalChip::try_run`] to handle those as values.
    pub fn run(
        &self,
        programs: Vec<Box<dyn tlp_sim::op::ThreadProgram>>,
        op: OperatingPoint,
    ) -> SimResult {
        self.try_run(programs, op).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ExperimentalChip::run`].
    ///
    /// Honors any [`tlp_sim::SimFaults`] armed on the chip configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Sim`] if the simulation deadlocks or
    /// exhausts its cycle budget.
    pub fn try_run(
        &self,
        programs: Vec<Box<dyn tlp_sim::op::ThreadProgram>>,
        op: OperatingPoint,
    ) -> Result<SimResult, ExperimentError> {
        self.try_run_with(programs, op, self.spec.faults)
    }

    /// [`ExperimentalChip::try_run`] with per-run simulation-stage fault
    /// injection: `faults` replaces whatever the chip configuration
    /// carries for this run only.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Sim`] if the simulation deadlocks or
    /// exhausts its (possibly fault-shrunk) cycle budget.
    pub fn try_run_with(
        &self,
        programs: Vec<Box<dyn tlp_sim::op::ThreadProgram>>,
        op: OperatingPoint,
        faults: SimFaults,
    ) -> Result<SimResult, ExperimentError> {
        let mut spec = self.spec.at_operating_point(op);
        spec.faults = faults;
        Ok(CmpSimulator::from_spec(&spec, programs).try_run(tlp_sim::chip::MAX_CYCLES)?)
    }

    /// Measures power, temperature, and density for a finished run with
    /// the base clock domain at supply voltage `v`.
    ///
    /// Each active core is charged from its class's calculator at its
    /// class's supply rail, and its class's tile is solved to its own
    /// power↔temperature fixpoint (cores differ under load imbalance);
    /// static power follows each core's equilibrium temperature. The
    /// L2's static power is charged at the base rail and the average core
    /// temperature. Power density is over the active cores' tile area.
    pub fn measure(&self, result: &SimResult, v: Volts) -> ChipMeasurement {
        self.try_measure(result, v, &FixpointOptions::default())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ExperimentalChip::measure`].
    ///
    /// Unlike the legacy path — which silently accepted an unconverged
    /// fixpoint — a solve that fails to converge within `opts` is a
    /// propagated [`ExperimentError::Thermal`]. The supervised sweep
    /// runner retries such cells with damping, a relaxed tolerance, and a
    /// larger iteration budget (see [`crate::sweep::RetryPolicy`]).
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Power`] on malformed accounting inputs
    /// and [`ExperimentError::Thermal`] on non-convergence, thermal
    /// runaway, or non-finite values.
    pub fn try_measure(
        &self,
        result: &SimResult,
        v: Volts,
        opts: &FixpointOptions,
    ) -> Result<ChipMeasurement, ExperimentError> {
        self.try_measure_with(result, v, opts, &MeasureFaults::default())
    }

    /// Per-class dynamic power of a run with the base clock domain at
    /// supply `v`, and the supply rail of each class: the base domain
    /// runs at `v`; a scaled domain runs at the ladder voltage for its
    /// class frequency (clamped — a 2:1 little class at base f_min simply
    /// shares the floor rail).
    pub(crate) fn try_dynamic(
        &self,
        result: &SimResult,
        v: Volts,
    ) -> Result<(DynamicBreakdown, Vec<Volts>), PowerError> {
        let volts: Vec<Volts> = self
            .spec
            .classes
            .iter()
            .map(|c| {
                if c.base_domain() {
                    v
                } else {
                    self.dvfs.voltage_for_clamped(c.frequency(result.frequency))
                }
            })
            .collect();
        let assign: Vec<usize> = (0..result.cores.len())
            .map(|i| self.spec.class_of(i))
            .collect();
        let breakdown =
            PowerCalculator::try_dynamic_classes(&self.class_power, &assign, &volts, result)?;
        Ok((breakdown, volts))
    }

    /// [`ExperimentalChip::try_measure`] with measurement-stage fault
    /// injection. With `faults` at its default this is the same code path
    /// at the cost of one branch and one multiply per fixpoint iteration.
    pub fn try_measure_with(
        &self,
        result: &SimResult,
        v: Volts,
        opts: &FixpointOptions,
        faults: &MeasureFaults,
    ) -> Result<ChipMeasurement, ExperimentError> {
        let _span = tlp_obs::span("chip.measure");
        let (breakdown, volts) = self.try_dynamic(result, v)?;
        let n = breakdown.cores.len();

        let mut core_temps = Vec::with_capacity(n);
        let mut static_total = Watts::ZERO;
        let mut core_dynamic_total = Watts::ZERO;
        let mut fixpoint_iterations = 0u32;
        let mut class_cores = vec![0usize; self.spec.classes.len()];

        for (i, core) in breakdown.cores.iter().enumerate() {
            let class = self.spec.class_of(i);
            let tile = &self.class_tiles[class];
            let tile_fp = tile.floorplan();
            let vc = volts[class];
            let bus_share = breakdown.bus / n as f64;
            let mut dyn_blocks = core.try_per_block(bus_share, tile_fp)?;
            if faults.nan_power {
                if let Some(first) = dyn_blocks.first_mut() {
                    *first = Watts::new(f64::NAN);
                }
            }
            let statics = &self.statics;
            let leakage_scale = faults.leakage_scale;
            let fix = tile.try_fixpoint(
                &dyn_blocks,
                |map| {
                    let t = tile_fp
                        .average_temperature(map.block_temps())
                        .max(tile.ambient());
                    tile.uniform_power(statics.core_static(vc, t) * leakage_scale)
                },
                opts,
            )?;
            core_temps.push(tile_fp.average_temperature(fix.map.block_temps()));
            fixpoint_iterations += fix.iterations;
            static_total += fix.static_power.iter().copied().sum::<Watts>();
            core_dynamic_total += core.total() + bus_share;
            class_cores[class] += 1;
        }

        // L2: static at the base rail and the average core temperature
        // (it runs cooler; the 0.5-core ratio inside chip_static already
        // reflects that). chip_static(0) gives just the L2 share.
        let avg =
            Celsius::new(core_temps.iter().map(|t| t.as_f64()).sum::<f64>() / n.max(1) as f64);
        let l2_static = self.statics.chip_static(0, v, avg);
        static_total += l2_static;

        // Active tile area as a sum over classes of cores × tile area, so
        // the same hardware gives the same bits however it is split into
        // classes.
        let active_area: f64 = class_cores
            .iter()
            .zip(&self.class_areas)
            .map(|(&k, area)| k as f64 * area)
            .sum();
        let density = PowerDensity::new(
            (core_dynamic_total.as_f64() + static_total.as_f64() - l2_static.as_f64())
                / active_area,
        );

        Ok(ChipMeasurement {
            dynamic: breakdown.total(),
            static_: static_total,
            core_temps,
            power_density: density,
            fixpoint_iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_workloads::{gang, AppId, Scale};

    fn chip() -> ExperimentalChip {
        ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm())
    }

    #[test]
    fn calibrated_virus_reaches_design_point() {
        let chip = chip();
        let r = chip.run(
            vec![power_virus(0, 1, 30_000)],
            chip.config().operating_point,
        );
        let m = chip.measure(&r, chip.tech().vdd_nominal());
        // Dynamic power equals P_D1 by calibration; the tile equilibrates
        // near (somewhat below) T_max because the virus's static feedback
        // settles self-consistently.
        assert!(
            (m.dynamic.as_f64() - 15.0).abs() < 0.5,
            "virus dynamic {}",
            m.dynamic
        );
        assert!(
            m.avg_core_temp().as_f64() > 85.0 && m.avg_core_temp().as_f64() <= 101.0,
            "virus temperature {}",
            m.avg_core_temp()
        );
    }

    #[test]
    fn memory_bound_app_draws_less_power() {
        // Warm-cache contrast needs Scale::Small (compulsory misses
        // dominate Scale::Test runs).
        let chip = chip();
        let op = chip.config().operating_point;
        let fmm = chip.run(gang(AppId::Fmm, 1, Scale::Small, 3), op);
        let radix = chip.run(gang(AppId::Radix, 1, Scale::Small, 3), op);
        let v = chip.tech().vdd_nominal();
        let p_fmm = chip.measure(&fmm, v).total();
        let p_radix = chip.measure(&radix, v).total();
        assert!(
            p_radix.as_f64() < 0.75 * p_fmm.as_f64(),
            "Radix {} should draw well below FMM {}",
            p_radix,
            p_fmm
        );
    }

    #[test]
    fn more_cores_at_nominal_draw_more_power() {
        let chip = chip();
        let op = chip.config().operating_point;
        let one = chip.run(gang(AppId::WaterSp, 1, Scale::Test, 5), op);
        let four = chip.run(gang(AppId::WaterSp, 4, Scale::Test, 5), op);
        let v = chip.tech().vdd_nominal();
        let p1 = chip.measure(&one, v).total();
        let p4 = chip.measure(&four, v).total();
        assert!(p4.as_f64() > 1.5 * p1.as_f64());
    }

    #[test]
    fn from_spec_homogeneous_measures_byte_identically_to_legacy() {
        // The reference is the same hardware described as two identical
        // base-domain classes of 8 cores: any result that depends on the
        // class layout rather than the hardware differs between the two.
        let one_class = ChipSpec::ispass05(16);
        let half = tlp_sim::CoreClass {
            count: 8,
            ..one_class.classes[0].clone()
        };
        let split = ExperimentalChip::from_spec(
            ChipSpec {
                classes: vec![half.clone(), half],
                ..one_class
            },
            Technology::itrs_65nm(),
        );
        let spec = chip();
        assert_eq!(spec.config(), split.config());
        let op = spec.config().operating_point;
        let v = spec.tech().vdd_nominal();
        for n in [2, 12, 16] {
            let r_split = split.run(gang(AppId::WaterNsq, n, Scale::Test, 7), op);
            let r_spec = spec.run(gang(AppId::WaterNsq, n, Scale::Test, 7), op);
            assert_eq!(
                format!("{r_split:?}"),
                format!("{r_spec:?}"),
                "run at n = {n}"
            );
            let m_split = split.measure(&r_split, v);
            let m_spec = spec.measure(&r_spec, v);
            assert_eq!(
                format!("{m_split:?}"),
                format!("{m_spec:?}"),
                "the class layout changed the measurement at n = {n}"
            );
        }
    }

    #[test]
    fn big_little_chip_measures_with_per_class_rails() {
        let chip = ExperimentalChip::from_spec(ChipSpec::big_little(2, 2), Technology::itrs_65nm());
        assert_eq!(chip.spec().n_cores(), 4);
        let op = chip.config().operating_point;
        let r = chip.run(gang(AppId::WaterNsq, 4, Scale::Test, 7), op);
        let m = chip.measure(&r, chip.tech().vdd_nominal());
        assert_eq!(m.core_temps.len(), 4);
        assert!(m.dynamic.as_f64() > 0.0);
        assert!(m.static_.as_f64() > 0.0);
        assert!(m.power_density.as_w_per_mm2() > 0.0);
        // The little cores run at half frequency on a lower rail in a
        // smaller tile; the chip must still equilibrate above ambient.
        for t in &m.core_temps {
            assert!(t.as_f64() >= 45.0, "core at {t}");
        }
    }

    #[test]
    fn core_area_covers_the_core_region() {
        let c = chip();
        assert!((c.core_area_mm2() * 16.0 - CORE_REGION_MM2).abs() < 1e-9);
        // Heterogeneous chips apportion the same region by issue width.
        let mix = ExperimentalChip::from_spec(ChipSpec::big_little(4, 12), Technology::itrs_65nm());
        let areas = &mix.class_areas;
        let total: f64 = areas[0] * 4.0 + areas[1] * 12.0;
        assert!((total - CORE_REGION_MM2).abs() < 1e-9);
        // A 2-wide little tile is half the area of a 4-wide big tile.
        assert!((areas[0] / areas[1] - 2.0).abs() < 1e-12);
        // One class: every tile is exactly the average core area.
        assert_eq!(c.class_areas, vec![c.core_area_mm2()]);
    }

    #[test]
    fn every_tile_lies_inside_the_thermal_oracles_range() {
        // The lu-solve and thermal-transient oracles draw tile edges from
        // TILE_EDGE_MM only: a chip shape whose tiles fall outside it
        // would be solved on networks the oracles never check.
        use tlp_check::oracles::TILE_EDGE_MM;
        let inside = |what: &str, tile: &ThermalModel| {
            let edge = tile.floorplan().total_area().as_f64().sqrt();
            assert!(
                TILE_EDGE_MM.contains(&edge),
                "{what}: {edge:.2} mm tile outside the oracles' {TILE_EDGE_MM:?} mm"
            );
        };
        let specs = (1..=16)
            .map(ChipSpec::ispass05)
            .chain([ChipSpec::big_little(4, 12), ChipSpec::big_little(1, 1)]);
        for spec in specs {
            let tag = spec.tag();
            let chip = ExperimentalChip::from_spec(spec, Technology::itrs_65nm());
            for tile in &chip.class_tiles {
                inside(&tag, tile);
            }
        }
        for cores in [16, 32] {
            let chip = tlp_analytic::AnalyticChip::new(Technology::itrs_65nm(), cores);
            inside(&format!("analytic {cores}-core chip"), chip.thermal());
        }
    }

    #[test]
    fn measurement_components_are_positive() {
        let chip = chip();
        let r = chip.run(
            gang(AppId::Volrend, 2, Scale::Test, 9),
            chip.config().operating_point,
        );
        let m = chip.measure(&r, chip.tech().vdd_nominal());
        assert!(m.dynamic.as_f64() > 0.0);
        assert!(m.static_.as_f64() > 0.0);
        assert_eq!(m.core_temps.len(), 2);
        assert!(m.power_density.as_w_per_mm2() > 0.0);
        for t in &m.core_temps {
            assert!(t.as_f64() >= 45.0);
        }
    }
}
