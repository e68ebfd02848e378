//! CMP configuration (paper Table 1).

use tlp_tech::units::{Hertz, Seconds};
use tlp_tech::OperatingPoint;

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity (ways).
    pub ways: usize,
    /// Access latency in cycles (round trip for a hit).
    pub latency_cycles: u64,
}

impl CacheConfig {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not divide evenly.
    pub fn sets(&self) -> usize {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.ways),
            "capacity must divide into whole sets"
        );
        lines / self.ways
    }
}

/// Thrifty-barrier sleep policy (Li, Martínez & Huang \[26\], an extension
/// the paper cites as complementary): a core spinning at a barrier longer
/// than a threshold drops into an ACPI-like sleep state instead of
/// burning spin power, paying a wake-up penalty on release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SleepPolicy {
    /// Whether barrier sleeping is enabled.
    pub enabled: bool,
    /// Spin cycles tolerated before the core goes to sleep.
    pub after_spin_cycles: u64,
    /// Cycles to resume execution after the barrier releases.
    pub wakeup_penalty: u64,
}

impl SleepPolicy {
    /// The disabled policy (the paper's baseline: spin forever).
    pub const DISABLED: SleepPolicy = SleepPolicy {
        enabled: false,
        after_spin_cycles: u64::MAX,
        wakeup_penalty: 0,
    };

    /// The thrifty-barrier default: sleep after 256 spin cycles, wake in
    /// 100 cycles (conservative versus the predictive scheme of \[26\]).
    pub const THRIFTY: SleepPolicy = SleepPolicy {
        enabled: true,
        after_spin_cycles: 256,
        wakeup_penalty: 100,
    };
}

impl Default for SleepPolicy {
    fn default() -> Self {
        Self::DISABLED
    }
}

/// Deterministic fault injection for the simulator (all off by default).
///
/// These faults exist so the experiment pipeline's failure handling can be
/// exercised on demand: each one provokes a specific typed error. When
/// every field is `None` the simulator behaves identically to a build
/// without fault support (the checks are a handful of `Option` tests at
/// setup time and one per budget comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimFaults {
    /// Drop `(barrier, core)`'s next barrier arrival, forcing a deadlock
    /// diagnosed as the named barrier.
    pub drop_barrier_arrival: Option<(u32, usize)>,
    /// Override the cycle budget (e.g. shrink it so a healthy workload
    /// exhausts it), forcing a budget/deadlock error.
    pub cycle_budget: Option<u64>,
    /// Hang the run: the run loop stops advancing simulated time and
    /// spins (yielding) until the thread's [`tlp_obs::cancel`] deadline
    /// passes, at which point it unwinds as
    /// [`SimError::DeadlineExceeded`](crate::SimError::DeadlineExceeded).
    /// Models a genuinely hung cell. Under an installed deadline it
    /// spins until cancelled; otherwise it spins until the run's cycle
    /// budget is exhausted, so an unsupervised `try_run` still
    /// terminates (with `CycleBudgetExhausted`).
    pub hang: bool,
    /// Corrupt the request-latency accounting: every request completion
    /// cycle is recorded `k` cycles late (the request *runs* unchanged —
    /// only the measurement lies). Exists solely so the `latency-sanity`
    /// oracle's sabotage test can prove it detects broken accounting.
    pub skew_request_completion: Option<u64>,
}

impl SimFaults {
    /// Whether any fault is armed.
    pub fn any(&self) -> bool {
        self.drop_barrier_arrival.is_some()
            || self.cycle_budget.is_some()
            || self.hang
            || self.skew_request_completion.is_some()
    }
}

/// Core pipeline parameters (EV6-like).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Peak instructions issued per cycle.
    pub issue_width: u32,
    /// Integer operations completed per cycle.
    pub int_throughput: u32,
    /// Floating-point operations completed per cycle.
    pub fp_throughput: u32,
    /// Branch misprediction penalty in cycles.
    pub mispredict_penalty: u64,
    /// Outstanding store-buffer entries before stores stall.
    pub store_buffer: usize,
    /// Maximum outstanding L1D misses (MSHRs) before loads block.
    pub mshrs: usize,
    /// Barrier sleep policy (thrifty barrier extension).
    pub sleep: SleepPolicy,
}

/// Full CMP configuration.
///
/// # Examples
///
/// ```
/// let cfg = tlp_sim::CmpConfig::ispass05(16);
/// assert_eq!(cfg.n_cores, 16);
/// assert_eq!(cfg.l1d.sets(), 512);     // 64 KB / 64 B / 2-way
/// assert_eq!(cfg.l2.sets(), 4096);     // 4 MB / 128 B / 8-way
/// // 75 ns at 3.2 GHz:
/// assert_eq!(cfg.memory_latency_cycles(), 240);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CmpConfig {
    /// Number of cores on the chip.
    pub n_cores: usize,
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// Private L1 instruction cache.
    pub l1i: CacheConfig,
    /// Private L1 data cache.
    pub l1d: CacheConfig,
    /// Shared L2 cache.
    pub l2: CacheConfig,
    /// Bus occupancy of one address/snoop phase, in cycles.
    pub bus_addr_cycles: u64,
    /// Bus occupancy of one cache-line data transfer, in cycles.
    pub bus_data_cycles: u64,
    /// Latency of a cache-to-cache transfer (dirty-miss intervention).
    pub cache_to_cache_cycles: u64,
    /// Off-chip memory round trip in wall-clock time (invariant under
    /// chip DVFS).
    pub memory_round_trip: Seconds,
    /// Whether a JETTY-style snoop filter screens remote tag probes
    /// (Moshovos et al. \[30\], modeled as a perfect filter — an upper
    /// bound on snoop-energy savings).
    pub snoop_filter: bool,
    /// The chip-wide operating point (frequency + voltage).
    pub operating_point: OperatingPoint,
    /// Injected faults (all off by default).
    pub faults: SimFaults,
}

impl CmpConfig {
    /// The paper's Table 1 configuration at nominal 65 nm V/f, with
    /// `n_cores` cores (the paper's chip has 16).
    ///
    /// This is the one-class special case of
    /// [`ChipSpec::ispass05`](crate::spec::ChipSpec::ispass05), which is
    /// the single source of truth for the Table 1 numbers; this
    /// constructor is a thin wrapper over it.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero.
    pub fn ispass05(n_cores: usize) -> Self {
        crate::spec::ChipSpec::ispass05(n_cores).base_config()
    }

    /// Returns a copy running at a different chip-wide operating point.
    /// On-chip latencies stay fixed in cycles; the memory round trip stays
    /// fixed in nanoseconds (so it shrinks in cycles as the chip slows —
    /// the effect behind the paper's memory-bound observations).
    pub fn at_operating_point(&self, op: OperatingPoint) -> Self {
        let mut c = self.clone();
        c.operating_point = op;
        c
    }

    /// Chip frequency.
    pub fn frequency(&self) -> Hertz {
        self.operating_point.frequency
    }

    /// Off-chip memory round trip expressed in cycles at the current
    /// operating point.
    pub fn memory_latency_cycles(&self) -> u64 {
        self.memory_round_trip
            .to_cycles_ceil(self.operating_point.frequency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometry() {
        let cfg = CmpConfig::ispass05(16);
        assert_eq!(cfg.l1i.sets(), 512);
        assert_eq!(cfg.l1d.sets(), 512);
        assert_eq!(cfg.l2.sets(), 4096);
        assert_eq!(cfg.core.issue_width, 4);
    }

    #[test]
    fn memory_cycles_shrink_with_frequency() {
        let cfg = CmpConfig::ispass05(16);
        assert_eq!(cfg.memory_latency_cycles(), 240);
        let slow = cfg.at_operating_point(OperatingPoint {
            frequency: Hertz::from_mhz(200.0),
            voltage: tlp_tech::units::Volts::new(0.76),
        });
        assert_eq!(slow.memory_latency_cycles(), 15);
        // On-chip latencies are unchanged in cycles.
        assert_eq!(slow.l2.latency_cycles, 12);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = CmpConfig::ispass05(0);
    }

    #[test]
    fn sets_requires_power_of_two_lines() {
        let bad = CacheConfig {
            size_bytes: 1024,
            line_bytes: 48,
            ways: 2,
            latency_cycles: 1,
        };
        let r = std::panic::catch_unwind(|| bad.sets());
        assert!(r.is_err());
    }

    #[test]
    fn clone_round_trip() {
        let cfg = CmpConfig::ispass05(8);
        let back = cfg.clone();
        assert_eq!(cfg, back);
    }
}
