//! Activity-based dynamic-power accounting (the Wattch step).
//!
//! Consumes a [`SimResult`]'s per-structure event counts and produces
//! dynamic power per structure and per core at a given supply voltage,
//! and maps one core's structure powers onto the blocks of its EV6 core
//! tile. Wattch-style aggressive conditional clocking is modeled: stalled
//! cycles draw only a residual fraction of the clock tree; spin-wait
//! cycles execute real instructions and are charged like active cycles
//! (spinning burns power, as in the paper).

use std::collections::BTreeMap;

use tlp_sim::config::CmpConfig;
use tlp_sim::{CoreStats, SimResult};
use tlp_tech::units::{Joules, Seconds, Volts, Watts};
use tlp_thermal::Floorplan;

use crate::error::PowerError;
use crate::structures::CoreEnergies;

/// Dynamic power of one core, broken down by structure.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreDynamic {
    /// Clock tree (including gated residual during stalls).
    pub clock: Watts,
    /// Instruction cache.
    pub icache: Watts,
    /// Data cache.
    pub dcache: Watts,
    /// Integer execution.
    pub int_exec: Watts,
    /// Floating-point execution.
    pub fp_exec: Watts,
    /// Register file.
    pub regfile: Watts,
    /// Rename + issue queue.
    pub issue: Watts,
    /// Branch predictor.
    pub bpred: Watts,
    /// Load/store queue.
    pub lsq: Watts,
}

impl CoreDynamic {
    /// Total dynamic power of the core.
    pub fn total(&self) -> Watts {
        self.clock
            + self.icache
            + self.dcache
            + self.int_exec
            + self.fp_exec
            + self.regfile
            + self.issue
            + self.bpred
            + self.lsq
    }

    /// Maps this core's structure powers onto the blocks of its core tile
    /// (`core0.<structure>` names, as [`Floorplan::ev6_tile`] builds them),
    /// returning one dynamic power entry per block. `bus_share`, the
    /// core's share of the snooping-bus power, is folded into the clock
    /// block (the interconnect runs over the cores).
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::MissingBlock`] naming the first structure
    /// block the floorplan lacks.
    pub fn try_per_block(
        &self,
        bus_share: Watts,
        tile: &Floorplan,
    ) -> Result<Vec<Watts>, PowerError> {
        let mut out = vec![Watts::ZERO; tile.blocks().len()];
        let mut missing: Option<&str> = None;
        let mut set = |name: &'static str, w: Watts| match tile.index_of(name) {
            Some(idx) => out[idx] += w,
            None => {
                missing.get_or_insert(name);
            }
        };
        set("core0.icache", self.icache);
        set("core0.dcache", self.dcache);
        set("core0.intexec", self.int_exec);
        set("core0.fpexec", self.fp_exec);
        set("core0.regfile", self.regfile);
        // Rename and issue queue share the issue power.
        set("core0.rename", self.issue * 0.5);
        set("core0.issueq", self.issue * 0.5);
        set("core0.bpred", self.bpred);
        set("core0.lsq", self.lsq);
        set("core0.clock", self.clock + bus_share);
        match missing {
            Some(name) => Err(PowerError::MissingBlock {
                name: name.to_string(),
            }),
            None => Ok(out),
        }
    }
}

/// Chip-level dynamic power breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicBreakdown {
    /// Per-active-core structure breakdowns.
    pub cores: Vec<CoreDynamic>,
    /// Shared L2 dynamic power.
    pub l2: Watts,
    /// Snooping-bus dynamic power.
    pub bus: Watts,
}

impl DynamicBreakdown {
    /// Total chip dynamic power.
    pub fn total(&self) -> Watts {
        self.cores.iter().map(CoreDynamic::total).sum::<Watts>() + self.l2 + self.bus
    }

    /// Structure-level totals across cores (for reporting).
    pub fn by_structure(&self) -> BTreeMap<&'static str, Watts> {
        let mut m = BTreeMap::new();
        let mut add = |k: &'static str, v: Watts| {
            let e = m.entry(k).or_insert(Watts::ZERO);
            *e += v;
        };
        for c in &self.cores {
            add("clock", c.clock);
            add("icache", c.icache);
            add("dcache", c.dcache);
            add("int_exec", c.int_exec);
            add("fp_exec", c.fp_exec);
            add("regfile", c.regfile);
            add("issue", c.issue);
            add("bpred", c.bpred);
            add("lsq", c.lsq);
        }
        add("l2", self.l2);
        add("bus", self.bus);
        m
    }
}

/// Activity-based dynamic power calculator.
///
/// # Examples
///
/// ```
/// use tlp_power::PowerCalculator;
/// use tlp_sim::{CmpConfig, CmpSimulator};
/// use tlp_sim::op::{Op, ScriptedProgram, ThreadProgram};
/// use tlp_tech::units::Volts;
///
/// let cfg = CmpConfig::ispass05(4);
/// let prog = Box::new(ScriptedProgram::new(vec![Op::Int { count: 10_000 }]))
///     as Box<dyn ThreadProgram>;
/// let result = CmpSimulator::new(cfg.clone(), vec![prog]).run();
/// let calc = PowerCalculator::new(&cfg);
/// let dynamic = calc.dynamic(&result, Volts::new(1.1));
/// assert!(dynamic.total().as_f64() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PowerCalculator {
    energies: CoreEnergies,
    renorm: f64,
}

impl PowerCalculator {
    /// Builds a calculator for a chip configuration with renormalization
    /// ratio 1 (raw Wattch values).
    pub fn new(cfg: &CmpConfig) -> Self {
        Self {
            energies: CoreEnergies::for_config(cfg),
            renorm: 1.0,
        }
    }

    /// Applies a §3.3 renormalization ratio (see
    /// [`crate::calibration::Calibration`]).
    ///
    /// # Panics
    ///
    /// Panics if `renorm` is not positive and finite.
    pub fn with_renorm(mut self, renorm: f64) -> Self {
        assert!(
            renorm.is_finite() && renorm > 0.0,
            "renorm must be positive"
        );
        self.renorm = renorm;
        self
    }

    /// The renormalization ratio in force.
    pub fn renorm(&self) -> f64 {
        self.renorm
    }

    /// The per-event energy table.
    pub fn energies(&self) -> &CoreEnergies {
        &self.energies
    }

    fn core_energy(&self, s: &CoreStats, v: Volts, run_cycles: u64) -> CoreDynamic {
        let e = &self.energies;
        let sw = |c: f64| CoreEnergies::switch(c, v).as_f64();
        // Clock: full on active + spin cycles, residual while stalled,
        // deep residual while asleep at a barrier; after the thread
        // finishes the core is shut down (zero).
        let live = s.active_cycles + s.spin_cycles;
        let stalled = s.mem_stall_cycles + s.other_stall_cycles;
        let _ = run_cycles;
        let clock = sw(e.c_clock_per_cycle)
            * (live as f64
                + e.gated_residual * stalled as f64
                + e.sleep_residual * s.sleep_cycles as f64);
        let icache = e.icache_access.read_energy(v).as_f64() * s.l1i_accesses as f64;
        let dcache = e.dcache_access.read_energy(v).as_f64() * s.loads as f64
            + e.dcache_access.write_energy(v).as_f64() * s.stores as f64;
        let int_exec = sw(e.c_int_op) * s.int_ops as f64;
        let fp_exec = sw(e.c_fp_op) * s.fp_ops as f64;
        let regfile = sw(e.c_regfile_per_instr) * s.instructions as f64;
        let issue = sw(e.c_issue_per_instr) * s.instructions as f64;
        let bpred = sw(e.c_bpred_per_branch) * s.branches as f64;
        let lsq = sw(e.c_lsq_per_memop) * (s.loads + s.stores) as f64;
        CoreDynamic {
            clock: Watts::new(clock),
            icache: Watts::new(icache),
            dcache: Watts::new(dcache),
            int_exec: Watts::new(int_exec),
            fp_exec: Watts::new(fp_exec),
            regfile: Watts::new(regfile),
            issue: Watts::new(issue),
            bpred: Watts::new(bpred),
            lsq: Watts::new(lsq),
        }
    }

    /// Computes the dynamic power breakdown of a run at supply `v`.
    ///
    /// Energies are converted to power over the run's wall-clock time at
    /// its operating frequency, then renormalized.
    ///
    /// # Panics
    ///
    /// Panics if the run has zero cycles; supervised callers should use
    /// [`PowerCalculator::try_dynamic`].
    pub fn dynamic(&self, result: &SimResult, v: Volts) -> DynamicBreakdown {
        self.try_dynamic(result, v)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`PowerCalculator::dynamic`]: the one-class
    /// case of [`PowerCalculator::try_dynamic_classes`].
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::EmptyRun`] when the run covered zero cycles.
    pub fn try_dynamic(
        &self,
        result: &SimResult,
        v: Volts,
    ) -> Result<DynamicBreakdown, PowerError> {
        Self::try_dynamic_classes(
            std::slice::from_ref(self),
            &vec![0; result.cores.len()],
            &[v],
            result,
        )
    }

    /// Computes the dynamic power breakdown of a run on a chip of core
    /// classes: core `i` is charged from the energy table (and renorm)
    /// of `class_calcs[assign[i]]` at that class's supply voltage
    /// `volts[assign[i]]`, while the shared L2/bus — always in the base
    /// clock domain — is charged from `class_calcs[0]` at `volts[0]`.
    ///
    /// Energies are converted to power over the run's wall-clock time at
    /// its operating frequency, then renormalized.
    ///
    /// # Panics
    ///
    /// Panics (API misuse) if `class_calcs`/`volts` lengths differ, if
    /// `assign` is shorter than the run's core count, or if an
    /// assignment indexes out of range.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::EmptyRun`] when the run covered zero
    /// cycles.
    pub fn try_dynamic_classes(
        class_calcs: &[PowerCalculator],
        assign: &[usize],
        volts: &[Volts],
        result: &SimResult,
    ) -> Result<DynamicBreakdown, PowerError> {
        assert_eq!(
            class_calcs.len(),
            volts.len(),
            "one supply voltage per class"
        );
        assert!(
            assign.len() >= result.cores.len(),
            "class assignment shorter than core count"
        );
        if result.cycles == 0 {
            return Err(PowerError::EmptyRun);
        }
        tlp_obs::metrics::POWER_BREAKDOWNS.incr();
        let time: Seconds = result.execution_time();

        let cores = result
            .cores
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let calc = &class_calcs[assign[i]];
                let v = volts[assign[i]];
                let to_power = |j: f64| -> Watts { Joules::new(j * calc.renorm).over(time) };
                // core_energy returns energy totals disguised in the
                // CoreDynamic fields; convert each to power.
                let e = calc.core_energy(s, v, result.cycles);
                CoreDynamic {
                    clock: to_power(e.clock.as_f64()),
                    icache: to_power(e.icache.as_f64()),
                    dcache: to_power(e.dcache.as_f64()),
                    int_exec: to_power(e.int_exec.as_f64()),
                    fp_exec: to_power(e.fp_exec.as_f64()),
                    regfile: to_power(e.regfile.as_f64()),
                    issue: to_power(e.issue.as_f64()),
                    bpred: to_power(e.bpred.as_f64()),
                    lsq: to_power(e.lsq.as_f64()),
                }
            })
            .collect();

        let base = &class_calcs[0];
        let v0 = volts[0];
        let to_power = |j: f64| -> Watts { Joules::new(j * base.renorm).over(time) };
        let l2_accesses = result.l2.accesses();
        let l2 = to_power(base.energies.l2_access.read_energy(v0).as_f64() * l2_accesses as f64);
        // Bus drive plus remote snoop work: full tag probes for resident
        // snoops, cheap filter lookups for screened ones.
        let bus = to_power(
            CoreEnergies::switch(base.energies.c_bus_per_txn, v0).as_f64()
                * result.mem.bus_transactions as f64
                + CoreEnergies::switch(base.energies.c_snoop_probe, v0).as_f64()
                    * result.mem.snoop_probes as f64
                + CoreEnergies::switch(base.energies.c_filter_lookup, v0).as_f64()
                    * result.mem.snoops_filtered as f64,
        );
        Ok(DynamicBreakdown { cores, l2, bus })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_sim::op::{Op, ScriptedProgram, ThreadProgram};
    use tlp_sim::CmpSimulator;

    fn run_ops(ops: Vec<Op>) -> (CmpConfig, SimResult) {
        let cfg = CmpConfig::ispass05(4);
        let prog = Box::new(ScriptedProgram::new(ops)) as Box<dyn ThreadProgram>;
        let r = CmpSimulator::new(cfg.clone(), vec![prog]).run();
        (cfg, r)
    }

    #[test]
    fn fp_heavy_run_draws_more_fp_power() {
        let (cfg, int_run) = run_ops(vec![Op::Int { count: 40_000 }]);
        let (_, fp_run) = run_ops(vec![Op::Fp { count: 40_000 }]);
        let calc = PowerCalculator::new(&cfg);
        let v = Volts::new(1.1);
        let di = calc.dynamic(&int_run, v);
        let df = calc.dynamic(&fp_run, v);
        assert!(df.cores[0].fp_exec > di.cores[0].fp_exec);
        assert!(di.cores[0].int_exec > df.cores[0].int_exec);
    }

    #[test]
    fn stalled_run_draws_less_than_busy_run() {
        let (cfg, busy) = run_ops(vec![Op::Int { count: 40_000 }]);
        // Memory-bound: cold loads with little compute.
        let loads: Vec<Op> = (0..200).map(|i| Op::Load { addr: i * 4096 }).collect();
        let (_, stalled) = run_ops(loads);
        let calc = PowerCalculator::new(&cfg);
        let v = Volts::new(1.1);
        let pb = calc.dynamic(&busy, v).total();
        let ps = calc.dynamic(&stalled, v).total();
        assert!(
            ps.as_f64() < 0.5 * pb.as_f64(),
            "stalled {ps} should be well below busy {pb}"
        );
    }

    #[test]
    fn voltage_scaling_cuts_power_quadratically() {
        let (cfg, r) = run_ops(vec![Op::Int { count: 40_000 }]);
        let calc = PowerCalculator::new(&cfg);
        let hi = calc.dynamic(&r, Volts::new(1.1)).total();
        let lo = calc.dynamic(&r, Volts::new(0.55)).total();
        assert!((hi.as_f64() / lo.as_f64() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn renorm_scales_everything_linearly() {
        let (cfg, r) = run_ops(vec![Op::Int { count: 10_000 }]);
        let base = PowerCalculator::new(&cfg)
            .dynamic(&r, Volts::new(1.1))
            .total();
        let scaled = PowerCalculator::new(&cfg)
            .with_renorm(2.5)
            .dynamic(&r, Volts::new(1.1))
            .total();
        assert!((scaled.as_f64() / base.as_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn per_block_conserves_power() {
        let (cfg, r) = run_ops(vec![
            Op::Int { count: 5_000 },
            Op::Fp { count: 1_000 },
            Op::Load { addr: 0x100 },
            Op::Branch { mispredict: false },
        ]);
        let calc = PowerCalculator::new(&cfg);
        let d = calc.dynamic(&r, Volts::new(1.1));
        let core = d.cores[0];
        let tile = Floorplan::ev6_tile(3.5);
        let per_block = core.try_per_block(d.bus, &tile).unwrap();
        let sum: f64 = per_block.iter().map(|w| w.as_f64()).sum();
        let expected = core.total() + d.bus;
        assert!(
            (sum - expected.as_f64()).abs() < 1e-9,
            "per-block {sum} != core plus bus {expected}"
        );
        // Every structure lands on its own block.
        let fp = tile.index_of("core0.fpexec").unwrap();
        assert_eq!(per_block[fp], core.fp_exec);
    }

    #[test]
    fn by_structure_sums_to_total() {
        let (cfg, r) = run_ops(vec![Op::Int { count: 8_000 }, Op::Fp { count: 2_000 }]);
        let calc = PowerCalculator::new(&cfg);
        let d = calc.dynamic(&r, Volts::new(1.1));
        let sum: f64 = d.by_structure().values().map(|w| w.as_f64()).sum();
        assert!((sum - d.total().as_f64()).abs() < 1e-9);
    }

    #[test]
    fn one_class_accounting_matches_homogeneous_path() {
        let cfg = CmpConfig::ispass05(4);
        let progs: Vec<_> = (0..2u64)
            .map(|t| {
                Box::new(ScriptedProgram::new(vec![
                    Op::Int { count: 5_000 },
                    Op::Load {
                        addr: 0x1000 + t * 64,
                    },
                    Op::Barrier { id: 0 },
                ])) as Box<dyn ThreadProgram>
            })
            .collect();
        let r = CmpSimulator::new(cfg.clone(), progs).run();
        let calc = PowerCalculator::new(&cfg).with_renorm(1.7);
        let v = Volts::new(1.05);
        let homo = calc.try_dynamic(&r, v).unwrap();
        let per_class = PowerCalculator::try_dynamic_classes(
            std::slice::from_ref(&calc),
            &[0usize; 4],
            &[v],
            &r,
        )
        .unwrap();
        assert_eq!(format!("{homo:?}"), format!("{per_class:?}"));
    }

    #[test]
    fn class_voltage_rails_charge_cores_differently() {
        let cfg = CmpConfig::ispass05(4);
        let progs: Vec<_> = (0..2)
            .map(|_| {
                Box::new(ScriptedProgram::new(vec![Op::Int { count: 5_000 }]))
                    as Box<dyn ThreadProgram>
            })
            .collect();
        let r = CmpSimulator::new(cfg.clone(), progs).run();
        let calc = PowerCalculator::new(&cfg);
        let calcs = vec![calc.clone(), calc];
        // Core 1 rides a half-voltage rail: quarter the dynamic power.
        let d = PowerCalculator::try_dynamic_classes(
            &calcs,
            &[0, 1, 0, 0],
            &[Volts::new(1.1), Volts::new(0.55)],
            &r,
        )
        .unwrap();
        let hi = d.cores[0].total().as_f64();
        let lo = d.cores[1].total().as_f64();
        assert!((hi / lo - 4.0).abs() < 1e-6, "ratio {}", hi / lo);
    }

    #[test]
    #[should_panic(expected = "one supply voltage per class")]
    fn mismatched_class_rails_rejected() {
        let cfg = CmpConfig::ispass05(2);
        let calc = PowerCalculator::new(&cfg);
        let r = SimResult {
            cycles: 10,
            frequency: cfg.frequency(),
            n_threads: 1,
            cores: vec![CoreStats::default()],
            l1d: vec![Default::default()],
            l2: Default::default(),
            mem: Default::default(),
            requests: None,
        };
        let _ = PowerCalculator::try_dynamic_classes(
            std::slice::from_ref(&calc),
            &[0],
            &[Volts::new(1.1), Volts::new(1.0)],
            &r,
        );
    }

    #[test]
    #[should_panic(expected = "renorm must be positive")]
    fn bad_renorm_rejected() {
        let cfg = CmpConfig::ispass05(2);
        let _ = PowerCalculator::new(&cfg).with_renorm(0.0);
    }

    #[test]
    fn empty_run_is_a_typed_error() {
        let cfg = CmpConfig::ispass05(2);
        let calc = PowerCalculator::new(&cfg);
        let empty = SimResult {
            cycles: 0,
            frequency: cfg.frequency(),
            n_threads: 1,
            cores: vec![CoreStats::default()],
            l1d: vec![Default::default()],
            l2: Default::default(),
            mem: Default::default(),
            requests: None,
        };
        assert_eq!(
            calc.try_dynamic(&empty, Volts::new(1.1)).unwrap_err(),
            crate::PowerError::EmptyRun
        );
    }

    #[test]
    fn missing_block_is_a_typed_error() {
        let (cfg, r) = run_ops(vec![Op::Int { count: 1_000 }]);
        let d = PowerCalculator::new(&cfg).dynamic(&r, Volts::new(1.1));
        // A floorplan with only an instruction cache has nowhere to put
        // the other structures: the first absent block is named.
        let fp = Floorplan::new(vec![tlp_thermal::Block {
            name: "core0.icache".into(),
            x_mm: 0.0,
            y_mm: 0.0,
            w_mm: 1.0,
            h_mm: 1.0,
        }]);
        let err = d.cores[0].try_per_block(d.bus, &fp).unwrap_err();
        assert_eq!(
            err,
            crate::PowerError::MissingBlock {
                name: "core0.dcache".into()
            }
        );
    }
}
