//! Chip description: a list of core *classes* plus the shared uncore.
//!
//! [`ChipSpec`] is the configuration surface for every chip this crate
//! can simulate. A chip is a list of [`CoreClass`]es — each with its own
//! pipeline, private L1s, and clock-domain ratio — in front of a shared
//! L2/bus/memory system that always runs in the *base* clock domain.
//! The paper's homogeneous 16-way EV6 CMP is one class at ratio 1/1
//! ([`ChipSpec::ispass05`]) and runs through the same simulator code as
//! any big/little mix. [`crate::CmpConfig`] is the one-class view of a
//! spec ([`ChipSpec::base_config`], [`ChipSpec::from_config`]);
//! [`crate::CmpConfig::ispass05`] is a thin wrapper over the spec, so
//! there is exactly one source of truth for Table 1.
//!
//! # Clock-domain boundary rules
//!
//! Simulated time is counted in *base-domain* cycles (the domain of the
//! shared bus, L2, and memory controller). A class with clock ratio
//! `(num, den)` runs its cores at `num/den` of the base frequency:
//!
//! * the core is *stepped* only on base cycles where its domain ticks
//!   (integer phase accumulator — no floating point, bit-exact);
//! * latencies specified in *domain* ticks (L1 hit, mispredict penalty,
//!   sleep wakeup) are converted to base cycles at construction time via
//!   `ceil(ticks · den / num)`;
//! * shared-uncore latencies (L2, bus phases, cache-to-cache) are already
//!   base-domain and cross the boundary unchanged;
//! * the off-chip memory round trip stays fixed in nanoseconds and is
//!   converted with the *base* frequency, exactly as before.
//!
//! A ratio of `(1, 1)` (or any `num == den`) steps every base cycle, and
//! its latency conversions are the identity.

use crate::config::{CacheConfig, CmpConfig, CoreConfig, SimFaults, SleepPolicy};
use crate::stats::CoreStats;
use tlp_tech::units::{Hertz, Seconds};
use tlp_tech::{OperatingPoint, Technology};

/// One class of identical cores on a (possibly heterogeneous) chip.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreClass {
    /// Class name (e.g. `"ev6"`, `"big"`, `"little"`); appears in
    /// per-class reports and in the journal fingerprint tag.
    pub name: String,
    /// Number of cores of this class.
    pub count: usize,
    /// Pipeline parameters, with cycle-valued fields in *domain* ticks.
    pub core: CoreConfig,
    /// Private L1 instruction cache.
    pub l1i: CacheConfig,
    /// Private L1 data cache (latency in *domain* ticks).
    pub l1d: CacheConfig,
    /// Clock-domain ratio `(num, den)`: the class runs at `num/den` of
    /// the base (shared-bus) frequency. `(1, 1)` is the base domain.
    pub clock: (u32, u32),
}

impl CoreClass {
    /// Whether this class runs in the base clock domain.
    pub fn base_domain(&self) -> bool {
        self.clock.0 == self.clock.1
    }

    /// The class frequency given the chip's base frequency.
    pub fn frequency(&self, base: Hertz) -> Hertz {
        let (num, den) = self.clock;
        Hertz::new(base.as_f64() * f64::from(num) / f64::from(den))
    }

    /// Converts a latency in domain ticks to base cycles (`ceil`), so a
    /// slow core's fixed-tick latencies occupy the right stretch of base
    /// time.
    pub fn base_cycles(&self, ticks: u64) -> u64 {
        let (num, den) = self.clock;
        let num = u128::from(num);
        let den = u128::from(den);
        ((u128::from(ticks) * den).div_ceil(num)) as u64
    }
}

/// A chip: core classes in front of a shared L2/bus/memory uncore.
///
/// # Examples
///
/// ```
/// use tlp_sim::spec::ChipSpec;
///
/// // The paper's chip, as the one-class special case:
/// let homo = ChipSpec::ispass05(16);
/// assert!(homo.is_homogeneous());
/// assert_eq!(homo.base_config(), tlp_sim::CmpConfig::ispass05(16));
/// assert_eq!(homo.chip_tag(), None);
///
/// // A big/little mix: 4 EV6-class cores plus 12 half-rate 2-wide cores.
/// let mix = ChipSpec::big_little(4, 12);
/// assert!(!mix.is_homogeneous());
/// assert_eq!(mix.n_cores(), 16);
/// assert_eq!(mix.chip_tag().as_deref(), Some("big:4w4@1/1+little:12w2@1/2"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    /// Core classes, in core-index order: cores `0..classes[0].count` are
    /// class 0, the next `classes[1].count` are class 1, and so on.
    pub classes: Vec<CoreClass>,
    /// Shared L2 cache (base-domain latency).
    pub l2: CacheConfig,
    /// Bus occupancy of one address/snoop phase, in base cycles.
    pub bus_addr_cycles: u64,
    /// Bus occupancy of one cache-line data transfer, in base cycles.
    pub bus_data_cycles: u64,
    /// Latency of a cache-to-cache transfer, in base cycles.
    pub cache_to_cache_cycles: u64,
    /// Off-chip memory round trip in wall-clock time (invariant under
    /// chip DVFS).
    pub memory_round_trip: Seconds,
    /// Whether a JETTY-style snoop filter screens remote tag probes.
    pub snoop_filter: bool,
    /// The *base-domain* operating point; class frequencies derive from
    /// it through their clock ratios.
    pub operating_point: OperatingPoint,
    /// Injected faults (all off by default).
    pub faults: SimFaults,
}

impl ChipSpec {
    /// The paper's Table 1 chip: `n_cores` identical EV6-class cores at
    /// nominal 65 nm V/f. This is the single source of truth for the
    /// Table 1 numbers; [`CmpConfig::ispass05`] delegates here.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero.
    pub fn ispass05(n_cores: usize) -> Self {
        assert!(n_cores > 0, "need at least one core");
        let tech = Technology::itrs_65nm();
        Self {
            classes: vec![CoreClass {
                name: "ev6".to_string(),
                count: n_cores,
                core: CoreConfig {
                    issue_width: 4,
                    int_throughput: 4,
                    fp_throughput: 2,
                    mispredict_penalty: 7,
                    store_buffer: 8,
                    mshrs: 8,
                    sleep: SleepPolicy::DISABLED,
                },
                l1i: CacheConfig {
                    size_bytes: 64 * 1024,
                    line_bytes: 64,
                    ways: 2,
                    latency_cycles: 2,
                },
                l1d: CacheConfig {
                    size_bytes: 64 * 1024,
                    line_bytes: 64,
                    ways: 2,
                    latency_cycles: 2,
                },
                clock: (1, 1),
            }],
            l2: CacheConfig {
                size_bytes: 4 * 1024 * 1024,
                line_bytes: 128,
                ways: 8,
                latency_cycles: 12,
            },
            bus_addr_cycles: 4,
            bus_data_cycles: 8,
            cache_to_cache_cycles: 16,
            memory_round_trip: Seconds::from_ns(75.0),
            snoop_filter: false,
            operating_point: OperatingPoint {
                frequency: tech.f_nominal(),
                voltage: tech.vdd_nominal(),
            },
            faults: SimFaults::default(),
        }
    }

    /// A big/little chip: `n_big` Table-1 EV6-class cores plus
    /// `n_little` narrow in-order-ish cores (2-wide, 32 KB L1s, 4 MSHRs)
    /// running at half the base clock. The uncore is the Table 1 uncore.
    ///
    /// # Panics
    ///
    /// Panics if both counts are zero.
    pub fn big_little(n_big: usize, n_little: usize) -> Self {
        assert!(n_big + n_little > 0, "need at least one core");
        let base = Self::ispass05(n_big.max(1));
        let big = CoreClass {
            name: "big".to_string(),
            count: n_big,
            ..base.classes[0].clone()
        };
        let little = CoreClass {
            name: "little".to_string(),
            count: n_little,
            core: CoreConfig {
                issue_width: 2,
                int_throughput: 2,
                fp_throughput: 1,
                mispredict_penalty: 4,
                store_buffer: 4,
                mshrs: 4,
                sleep: SleepPolicy::DISABLED,
            },
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 2,
                latency_cycles: 2,
            },
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 2,
                latency_cycles: 2,
            },
            clock: (1, 2),
        };
        let classes = [big, little].into_iter().filter(|c| c.count > 0).collect();
        Self { classes, ..base }
    }

    /// Wraps an arbitrary [`CmpConfig`] as a one-class base-domain spec.
    /// Exact inverse of [`ChipSpec::base_config`] on such specs:
    /// `ChipSpec::from_config(&c).base_config() == c`.
    pub fn from_config(cfg: &CmpConfig) -> Self {
        Self {
            classes: vec![CoreClass {
                name: "ev6".to_string(),
                count: cfg.n_cores,
                core: cfg.core,
                l1i: cfg.l1i,
                l1d: cfg.l1d,
                clock: (1, 1),
            }],
            l2: cfg.l2,
            bus_addr_cycles: cfg.bus_addr_cycles,
            bus_data_cycles: cfg.bus_data_cycles,
            cache_to_cache_cycles: cfg.cache_to_cache_cycles,
            memory_round_trip: cfg.memory_round_trip,
            snoop_filter: cfg.snoop_filter,
            operating_point: cfg.operating_point,
            faults: cfg.faults,
        }
    }

    /// Total core count across all classes.
    pub fn n_cores(&self) -> usize {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Whether the chip is a single class in the base clock domain —
    /// the paper's homogeneous CMP.
    pub fn is_homogeneous(&self) -> bool {
        self.classes.len() == 1 && self.classes[0].base_domain()
    }

    /// A [`CmpConfig`] carrying class 0's core/L1 parameters, the shared
    /// uncore, and the chip's total core count — the whole chip when it
    /// has one base-domain class, otherwise the representative view the
    /// simulator hands to the memory system, frequency and accessors.
    pub fn base_config(&self) -> CmpConfig {
        let c = &self.classes[0];
        CmpConfig {
            n_cores: self.n_cores(),
            core: c.core,
            l1i: c.l1i,
            l1d: c.l1d,
            l2: self.l2,
            bus_addr_cycles: self.bus_addr_cycles,
            bus_data_cycles: self.bus_data_cycles,
            cache_to_cache_cycles: self.cache_to_cache_cycles,
            memory_round_trip: self.memory_round_trip,
            snoop_filter: self.snoop_filter,
            operating_point: self.operating_point,
            faults: self.faults,
        }
    }

    /// The class index of core `core` (classes occupy contiguous
    /// core-index ranges in declaration order).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn class_of(&self, core: usize) -> usize {
        let mut base = 0;
        for (i, c) in self.classes.iter().enumerate() {
            if core < base + c.count {
                return i;
            }
            base += c.count;
        }
        panic!("core {core} outside 0..{}", self.n_cores());
    }

    /// Returns a copy running at a different base-domain operating point
    /// (class frequencies follow through their ratios; on-chip latencies
    /// stay fixed in cycles, the memory round trip in nanoseconds).
    pub fn at_operating_point(&self, op: OperatingPoint) -> Self {
        let mut s = self.clone();
        s.operating_point = op;
        s
    }

    /// Base-domain chip frequency.
    pub fn frequency(&self) -> Hertz {
        self.operating_point.frequency
    }

    /// A compact, deterministic description of the chip's classes:
    /// `"big:4w4@1/1+little:12w2@1/2"` (per class: name, count, issue
    /// width, clock ratio).
    pub fn tag(&self) -> String {
        self.classes
            .iter()
            .map(|c| {
                format!(
                    "{}:{}w{}@{}/{}",
                    c.name, c.count, c.core.issue_width, c.clock.0, c.clock.1
                )
            })
            .collect::<Vec<_>>()
            .join("+")
    }

    /// The tag a sweep on this chip stamps into its journal fingerprint,
    /// journal header and report: `None` for a homogeneous chip, so its
    /// journals and JSON carry no chip axis, and [`ChipSpec::tag`]
    /// otherwise.
    pub fn chip_tag(&self) -> Option<String> {
        (!self.is_homogeneous()).then(|| self.tag())
    }

    /// Aggregates per-core counters into per-class activity totals
    /// (core-index order; only the first `cores.len()` cores ran).
    pub fn class_activity(&self, cores: &[CoreStats]) -> Vec<ClassActivity> {
        let mut out: Vec<ClassActivity> = self
            .classes
            .iter()
            .map(|c| ClassActivity {
                name: c.name.clone(),
                cores: 0,
                active_cycles: 0,
                instructions: 0,
                fp_ops: 0,
            })
            .collect();
        for (i, stats) in cores.iter().enumerate() {
            let a = &mut out[self.class_of(i)];
            a.cores += 1;
            a.active_cycles += stats.active_cycles;
            a.instructions += stats.instructions;
            a.fp_ops += stats.fp_ops;
        }
        out
    }
}

/// Per-class activity totals (see [`ChipSpec::class_activity`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassActivity {
    /// Class name.
    pub name: String,
    /// Cores of this class that actually ran a thread.
    pub cores: usize,
    /// Summed active cycles.
    pub active_cycles: u64,
    /// Summed retired instructions.
    pub instructions: u64,
    /// Summed floating-point operations.
    pub fp_ops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ispass05_round_trips_to_legacy_config() {
        for n in [1, 4, 16] {
            let spec = ChipSpec::ispass05(n);
            assert!(spec.is_homogeneous());
            assert_eq!(spec.chip_tag(), None);
            assert_eq!(spec.base_config(), CmpConfig::ispass05(n));
            assert_eq!(ChipSpec::from_config(&CmpConfig::ispass05(n)), spec);
        }
    }

    #[test]
    fn from_config_is_exact_inverse() {
        let mut cfg = CmpConfig::ispass05(8);
        cfg.core.sleep = SleepPolicy::THRIFTY;
        cfg.snoop_filter = true;
        cfg.faults.cycle_budget = Some(123);
        let spec = ChipSpec::from_config(&cfg);
        assert!(spec.is_homogeneous());
        assert_eq!(spec.base_config(), cfg);
    }

    #[test]
    fn big_little_layout_and_classes() {
        let spec = ChipSpec::big_little(4, 12);
        assert_eq!(spec.n_cores(), 16);
        assert!(!spec.is_homogeneous());
        assert_eq!(spec.chip_tag(), Some(spec.tag()));
        assert_eq!(spec.class_of(0), 0);
        assert_eq!(spec.class_of(3), 0);
        assert_eq!(spec.class_of(4), 1);
        assert_eq!(spec.class_of(15), 1);
        assert_eq!(spec.tag(), "big:4w4@1/1+little:12w2@1/2");
    }

    #[test]
    fn big_little_drops_empty_classes() {
        let all_little = ChipSpec::big_little(0, 8);
        assert_eq!(all_little.classes.len(), 1);
        assert_eq!(all_little.classes[0].name, "little");
        // One class, but *not* base-domain: still heterogeneous.
        assert!(!all_little.is_homogeneous());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn class_of_out_of_range_panics() {
        let spec = ChipSpec::ispass05(4);
        let _ = spec.class_of(4);
    }

    #[test]
    fn base_cycles_rounds_up() {
        let mut c = ChipSpec::big_little(1, 1).classes[1].clone();
        c.clock = (1, 2);
        assert_eq!(c.base_cycles(7), 14);
        c.clock = (2, 3);
        assert_eq!(c.base_cycles(7), 11); // ceil(21/2)
        c.clock = (1, 1);
        assert_eq!(c.base_cycles(7), 7);
    }

    #[test]
    fn class_frequency_scales_with_ratio() {
        let spec = ChipSpec::big_little(2, 2);
        let base = spec.frequency();
        assert_eq!(spec.classes[0].frequency(base).as_f64(), base.as_f64());
        assert!((spec.classes[1].frequency(base).as_f64() - base.as_f64() / 2.0).abs() < 1.0);
    }

    #[test]
    fn class_activity_aggregates_in_order() {
        let spec = ChipSpec::big_little(1, 2);
        let mk = |active, instr, fp| CoreStats {
            active_cycles: active,
            instructions: instr,
            fp_ops: fp,
            ..CoreStats::default()
        };
        let acts = spec.class_activity(&[mk(10, 100, 1), mk(20, 200, 2), mk(30, 300, 3)]);
        assert_eq!(acts.len(), 2);
        assert_eq!(acts[0].name, "big");
        assert_eq!((acts[0].cores, acts[0].instructions), (1, 100));
        assert_eq!((acts[1].cores, acts[1].instructions), (2, 500));
        assert_eq!(acts[1].active_cycles, 50);
        assert_eq!(acts[1].fp_ops, 5);
    }
}
