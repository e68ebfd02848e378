//! Process-technology descriptors.
//!
//! A [`Technology`] bundles the ITRS-style parameters the paper's models
//! need: nominal supply and threshold voltages, nominal frequency, the
//! alpha-power-law exponent, the reference per-core dynamic and static power
//! figures used by the analytical model, and the physical leakage
//! parameters the reference leakage model (our stand-in for the paper's
//! HSpice runs) is built from.
//!
//! Two stock descriptors matching the paper are provided:
//! [`Technology::itrs_130nm`] and [`Technology::itrs_65nm`].

use crate::error::TechError;
use crate::units::{Celsius, Hertz, Volts, Watts};

/// Named process node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ProcessNode {
    /// 130 nm node (ITRS 2001-era high-performance logic).
    Nm130,
    /// 65 nm node (the paper's experimental technology).
    Nm65,
}

impl core::fmt::Display for ProcessNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProcessNode::Nm130 => write!(f, "130nm"),
            ProcessNode::Nm65 => write!(f, "65nm"),
        }
    }
}

/// Physical parameters of the reference (HSpice-surrogate) leakage model.
///
/// These feed the BSIM-style subthreshold and gate-oxide leakage equations
/// in [`crate::leakage`]; the absolute magnitude is normalized away, only
/// the voltage/temperature *shape* matters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakagePhysics {
    /// Subthreshold swing factor `n` (dimensionless, typically 1.3–1.6).
    pub subthreshold_swing: f64,
    /// Drain-induced barrier lowering coefficient (V/V).
    pub dibl: f64,
    /// Gate oxide thickness in nanometres.
    pub oxide_thickness_nm: f64,
    /// Fraction of nominal leakage due to gate-oxide tunnelling (the
    /// remainder is subthreshold). Gate leakage grows with thinner oxides.
    pub gate_leak_share: f64,
    /// Effective threshold-voltage temperature coefficient, V/°C. An
    /// *effective* figure folding in Vth roll-off, mobility degradation,
    /// and junction leakage, tuned per node so total leakage doubles
    /// roughly every ~20 °C (the exponential temperature model the paper
    /// adopts from Chaparro et al. \[5\]).
    pub vth_temp_coeff: f64,
}

/// A process technology point.
///
/// Construct via [`Technology::itrs_130nm`], [`Technology::itrs_65nm`], or
/// [`TechnologyBuilder`] for custom nodes.
///
/// # Examples
///
/// ```
/// use tlp_tech::Technology;
///
/// let t = Technology::itrs_65nm();
/// assert_eq!(t.vdd_nominal().as_f64(), 1.1);
/// assert_eq!(t.vth().as_f64(), 0.18);
/// assert!((t.f_nominal().as_ghz() - 3.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    node: ProcessNode,
    vdd_nominal: Volts,
    vth: Volts,
    f_nominal: Hertz,
    alpha: f64,
    v_min: Option<Volts>,
    voltage_floor_factor: f64,
    p_dynamic_core_nominal: Watts,
    p_static_core_at_tmax: Watts,
    t_max: Celsius,
    t_std: Celsius,
    leakage: LeakagePhysics,
}

impl Technology {
    /// The 130 nm technology point used in the paper's analytical study.
    ///
    /// ITRS 2001-era values: Vdd = 1.3 V, Vth = 0.26 V; an EV6-class core
    /// scaled to this node clocks at 1.6 GHz. Static power is ~20 % of the
    /// total at the 100 °C operating point, reflecting the lower leakage of
    /// this node relative to 65 nm.
    pub fn itrs_130nm() -> Self {
        TechnologyBuilder::new(ProcessNode::Nm130)
            .vdd_nominal(Volts::new(1.3))
            .vth(Volts::new(0.26))
            .f_nominal(Hertz::from_ghz(1.6))
            .v_min(Volts::new(0.72))
            .p_dynamic_core_nominal(Watts::new(24.0))
            .p_static_core_at_tmax(Watts::new(6.0))
            .leakage(LeakagePhysics {
                subthreshold_swing: 1.45,
                dibl: 0.19,
                oxide_thickness_nm: 2.2,
                gate_leak_share: 0.12,
                vth_temp_coeff: 1.3e-3,
            })
            .build()
            .expect("stock 130nm descriptor is valid")
    }

    /// The 65 nm technology point used in the paper's experiments.
    ///
    /// Per Table 1: 3.2 GHz nominal, Vdd = 1.1 V, Vth = 0.18 V. Static
    /// power is ~40 % of the total at 100 °C, matching the paper's remark
    /// that ITRS attributes a higher static share to 65 nm.
    pub fn itrs_65nm() -> Self {
        TechnologyBuilder::new(ProcessNode::Nm65)
            .vdd_nominal(Volts::new(1.1))
            .vth(Volts::new(0.18))
            .f_nominal(Hertz::from_ghz(3.2))
            .v_min(Volts::new(0.76))
            .p_dynamic_core_nominal(Watts::new(15.0))
            .p_static_core_at_tmax(Watts::new(10.0))
            .leakage(LeakagePhysics {
                subthreshold_swing: 1.5,
                dibl: 0.31,
                oxide_thickness_nm: 1.2,
                gate_leak_share: 0.30,
                vth_temp_coeff: 2.2e-3,
            })
            .build()
            .expect("stock 65nm descriptor is valid")
    }

    /// The process node this descriptor describes.
    pub fn node(&self) -> ProcessNode {
        self.node
    }

    /// Nominal supply voltage `V_1`.
    pub fn vdd_nominal(&self) -> Volts {
        self.vdd_nominal
    }

    /// Threshold voltage `V_th`.
    pub fn vth(&self) -> Volts {
        self.vth
    }

    /// Nominal operating frequency `f_1` at nominal supply.
    pub fn f_nominal(&self) -> Hertz {
        self.f_nominal
    }

    /// Alpha-power-law exponent (velocity-saturation index) in Eq. 1.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Minimum stable supply voltage (Vccmin).
    ///
    /// Historically the minimum operating voltage has scaled far more
    /// slowly than the nominal supply (SRAM stability and noise margins
    /// pin it near 0.7–0.8 V across nodes), so the stock technologies set
    /// an absolute floor. Custom nodes without one fall back to a multiple
    /// of `V_th` (the paper's noise-margin formulation).
    pub fn voltage_floor(&self) -> Volts {
        self.v_min.unwrap_or(self.vth * self.voltage_floor_factor)
    }

    /// Per-core dynamic power at nominal voltage and frequency (`P_D1`).
    pub fn p_dynamic_core_nominal(&self) -> Watts {
        self.p_dynamic_core_nominal
    }

    /// Per-core static power at nominal voltage and the maximum operating
    /// temperature [`Technology::t_max`].
    pub fn p_static_core_at_tmax(&self) -> Watts {
        self.p_static_core_at_tmax
    }

    /// Maximum operating (junction) temperature, 100 °C in the paper.
    pub fn t_max(&self) -> Celsius {
        self.t_max
    }

    /// Standard (room) temperature `T_std` at which `P_S1std` is defined.
    pub fn t_std(&self) -> Celsius {
        self.t_std
    }

    /// Physical parameters of the reference leakage model.
    pub fn leakage_physics(&self) -> &LeakagePhysics {
        &self.leakage
    }
}

/// Builder for custom [`Technology`] points.
///
/// # Examples
///
/// ```
/// use tlp_tech::{Technology, TechnologyBuilder, ProcessNode};
/// use tlp_tech::units::{Hertz, Volts, Watts};
///
/// let t = TechnologyBuilder::new(ProcessNode::Nm65)
///     .vdd_nominal(Volts::new(1.0))
///     .vth(Volts::new(0.2))
///     .f_nominal(Hertz::from_ghz(2.0))
///     .p_dynamic_core_nominal(Watts::new(10.0))
///     .p_static_core_at_tmax(Watts::new(5.0))
///     .alpha(1.3)
///     .build()?;
/// assert_eq!(t.vdd_nominal().as_f64(), 1.0);
/// # Ok::<(), tlp_tech::TechError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TechnologyBuilder {
    node: ProcessNode,
    vdd_nominal: Volts,
    vth: Volts,
    f_nominal: Hertz,
    alpha: f64,
    v_min: Option<Volts>,
    voltage_floor_factor: f64,
    p_dynamic_core_nominal: Watts,
    p_static_core_at_tmax: Watts,
    t_max: Celsius,
    t_std: Celsius,
    leakage: LeakagePhysics,
}

impl TechnologyBuilder {
    /// Starts a builder with paper-default secondary parameters.
    pub fn new(node: ProcessNode) -> Self {
        Self {
            node,
            vdd_nominal: Volts::new(1.1),
            vth: Volts::new(0.18),
            f_nominal: Hertz::from_ghz(3.2),
            // Classical relation f ∝ (V−Vth)²/V after Mudge [31]; the
            // paper's Fig. 2 speedup ceiling (~4×) requires this exponent —
            // short-channel values (1.2–1.3) leave too much frequency
            // headroom at the voltage floor. See the alpha ablation bench.
            alpha: 2.0,
            // No absolute Vccmin by default for custom nodes; the stock
            // technologies set one (0.72 V / 0.76 V) because minimum
            // operating voltages in practice scale far more slowly than
            // Vdd (SRAM stability and noise margins). The floor locates
            // the paper's Fig. 2 rollover; the ablation_vmin bench varies
            // it.
            v_min: None,
            voltage_floor_factor: 3.0,
            p_dynamic_core_nominal: Watts::new(15.0),
            p_static_core_at_tmax: Watts::new(10.0),
            t_max: Celsius::new(100.0),
            t_std: Celsius::new(25.0),
            leakage: LeakagePhysics {
                subthreshold_swing: 1.5,
                dibl: 0.09,
                oxide_thickness_nm: 1.2,
                gate_leak_share: 0.30,
                vth_temp_coeff: 2.2e-3,
            },
        }
    }

    /// Sets the nominal supply voltage.
    pub fn vdd_nominal(mut self, v: Volts) -> Self {
        self.vdd_nominal = v;
        self
    }

    /// Sets the threshold voltage.
    pub fn vth(mut self, v: Volts) -> Self {
        self.vth = v;
        self
    }

    /// Sets the nominal frequency at nominal supply.
    pub fn f_nominal(mut self, f: Hertz) -> Self {
        self.f_nominal = f;
        self
    }

    /// Sets the alpha-power-law exponent (Eq. 1). Typical short-channel
    /// values are 1.2–1.3; the long-channel classical value is 2.0.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the noise-margin voltage floor as a multiple of `V_th`
    /// (ignored when an absolute [`TechnologyBuilder::v_min`] is set).
    pub fn voltage_floor_factor(mut self, factor: f64) -> Self {
        self.voltage_floor_factor = factor;
        self
    }

    /// Sets an absolute minimum stable supply voltage (Vccmin).
    pub fn v_min(mut self, v: Volts) -> Self {
        self.v_min = Some(v);
        self
    }

    /// Sets the per-core nominal dynamic power `P_D1`.
    pub fn p_dynamic_core_nominal(mut self, p: Watts) -> Self {
        self.p_dynamic_core_nominal = p;
        self
    }

    /// Sets the per-core static power at nominal voltage and `t_max`.
    pub fn p_static_core_at_tmax(mut self, p: Watts) -> Self {
        self.p_static_core_at_tmax = p;
        self
    }

    /// Sets the maximum operating temperature.
    pub fn t_max(mut self, t: Celsius) -> Self {
        self.t_max = t;
        self
    }

    /// Sets the standard (room) temperature.
    pub fn t_std(mut self, t: Celsius) -> Self {
        self.t_std = t;
        self
    }

    /// Sets the physical leakage parameters.
    pub fn leakage(mut self, physics: LeakagePhysics) -> Self {
        self.leakage = physics;
        self
    }

    /// Validates and builds the technology descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidTechnology`] if voltages are non-positive
    /// or inconsistent (`Vth·floor ≥ Vdd`), the frequency or power figures
    /// are non-positive, `alpha` is outside `(0, 3]`, or the leakage
    /// parameters are out of physical range.
    pub fn build(self) -> Result<Technology, TechError> {
        let err = |msg: String| Err(TechError::InvalidTechnology(msg));
        if self.vdd_nominal.as_f64() <= 0.0 || self.vth.as_f64() <= 0.0 {
            return err("voltages must be positive".into());
        }
        let floor = self.v_min.unwrap_or(self.vth * self.voltage_floor_factor);
        if floor >= self.vdd_nominal {
            return err(format!(
                "voltage floor {} must lie below Vdd = {}",
                floor, self.vdd_nominal
            ));
        }
        if floor <= self.vth {
            return err(format!(
                "voltage floor {} must exceed Vth = {}",
                floor, self.vth
            ));
        }
        if self.f_nominal.as_f64() <= 0.0 {
            return err("nominal frequency must be positive".into());
        }
        if self.p_dynamic_core_nominal.as_f64() <= 0.0 || self.p_static_core_at_tmax.as_f64() <= 0.0
        {
            return err("nominal power figures must be positive".into());
        }
        if !(0.0..=3.0).contains(&self.alpha) || self.alpha == 0.0 {
            return err(format!("alpha {} outside (0, 3]", self.alpha));
        }
        if self.t_max.as_f64() <= self.t_std.as_f64() {
            return err("t_max must exceed t_std".into());
        }
        if !(0.0..1.0).contains(&self.leakage.gate_leak_share) {
            return err("gate_leak_share must lie in [0, 1)".into());
        }
        if self.leakage.subthreshold_swing < 1.0 || self.leakage.oxide_thickness_nm <= 0.0 {
            return err("leakage physics out of range".into());
        }
        if !(0.0..0.01).contains(&self.leakage.vth_temp_coeff) {
            return err("vth_temp_coeff must lie in [0, 10) mV/°C".into());
        }
        Ok(Technology {
            node: self.node,
            vdd_nominal: self.vdd_nominal,
            vth: self.vth,
            f_nominal: self.f_nominal,
            alpha: self.alpha,
            v_min: self.v_min,
            voltage_floor_factor: self.voltage_floor_factor,
            p_dynamic_core_nominal: self.p_dynamic_core_nominal,
            p_static_core_at_tmax: self.p_static_core_at_tmax,
            t_max: self.t_max,
            t_std: self.t_std,
            leakage: self.leakage,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_65nm_matches_table1() {
        let t = Technology::itrs_65nm();
        assert_eq!(t.node(), ProcessNode::Nm65);
        assert_eq!(t.vdd_nominal(), Volts::new(1.1));
        assert_eq!(t.vth(), Volts::new(0.18));
        assert!((t.f_nominal().as_ghz() - 3.2).abs() < 1e-12);
        assert_eq!(t.t_max(), Celsius::new(100.0));
    }

    #[test]
    fn stock_130nm_has_lower_static_share_than_65nm() {
        // Static share of total core power at nominal V/f and t_max.
        let share = |t: Technology| {
            let s = t.p_static_core_at_tmax().as_f64();
            s / (s + t.p_dynamic_core_nominal().as_f64())
        };
        let s130 = share(Technology::itrs_130nm());
        let s65 = share(Technology::itrs_65nm());
        assert!(s130 < s65, "130nm static share {s130} !< 65nm {s65}");
        assert!((0.15..0.30).contains(&s130));
        assert!((0.30..0.50).contains(&s65));
    }

    #[test]
    fn stock_floors_are_absolute_vccmin() {
        assert!((Technology::itrs_65nm().voltage_floor().as_f64() - 0.76).abs() < 1e-12);
        assert!((Technology::itrs_130nm().voltage_floor().as_f64() - 0.72).abs() < 1e-12);
    }

    #[test]
    fn custom_node_floor_falls_back_to_vth_multiple() {
        let t = TechnologyBuilder::new(ProcessNode::Nm65).build().unwrap();
        assert!((t.voltage_floor().as_f64() - 3.0 * 0.18).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_floor_above_vdd() {
        let r = TechnologyBuilder::new(ProcessNode::Nm65)
            .vdd_nominal(Volts::new(0.5))
            .vth(Volts::new(0.3))
            .build();
        assert!(matches!(r, Err(TechError::InvalidTechnology(_))));
    }

    #[test]
    fn builder_rejects_nonpositive_frequency() {
        let r = TechnologyBuilder::new(ProcessNode::Nm65)
            .f_nominal(Hertz::ZERO)
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn builder_rejects_bad_alpha() {
        assert!(TechnologyBuilder::new(ProcessNode::Nm65)
            .alpha(0.0)
            .build()
            .is_err());
        assert!(TechnologyBuilder::new(ProcessNode::Nm65)
            .alpha(3.5)
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_inverted_temperatures() {
        let r = TechnologyBuilder::new(ProcessNode::Nm65)
            .t_max(Celsius::new(20.0))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn builder_rejects_bad_gate_share() {
        let mut physics = *Technology::itrs_65nm().leakage_physics();
        physics.gate_leak_share = 1.0;
        let r = TechnologyBuilder::new(ProcessNode::Nm65)
            .leakage(physics)
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn clone_round_trip() {
        let t = Technology::itrs_130nm();
        let back = t.clone();
        assert_eq!(t, back);
    }
}
