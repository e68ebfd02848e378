//! Cycle-level CMP simulator for the `cmp-tlp` reproduction of Li &
//! Martínez, *Power-Performance Implications of Thread-level Parallelism
//! on Chip Multiprocessors* (ISPASS 2005).
//!
//! The simulated machine is the paper's Table 1: a CMP of EV6-class
//! 4-wide cores with private 64 KB L1 instruction/data caches, a shared
//! 4 MB L2 reached over a split-transaction snooping bus running MESI
//! coherence, and 75 ns round-trip off-chip memory. Chip-wide DVFS changes
//! the clock: on-chip latencies stay fixed in cycles while the memory
//! round trip stays fixed in nanoseconds, so slowing the chip *narrows*
//! the processor–memory gap — the effect behind the paper's memory-bound
//! results.
//!
//! Workloads are abstract instruction streams ([`op::ThreadProgram`]);
//! the sibling `tlp-workloads` crate provides SPLASH-2-like generators.
//!
//! # Example
//!
//! ```
//! use tlp_sim::{CmpConfig, CmpSimulator};
//! use tlp_sim::op::{Op, ScriptedProgram, ThreadProgram};
//!
//! // Two threads, each computing then meeting at a barrier.
//! let threads: Vec<Box<dyn ThreadProgram>> = (0..2)
//!     .map(|t| {
//!         Box::new(ScriptedProgram::new(vec![
//!             Op::Int { count: 1_000 },
//!             Op::Load { addr: 0x1_0000 + t * 64 },
//!             Op::Barrier { id: 0 },
//!         ])) as Box<dyn ThreadProgram>
//!     })
//!     .collect();
//! let result = CmpSimulator::new(CmpConfig::ispass05(16), threads).run();
//! assert!(result.ipc() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod chip;
pub mod config;
pub mod core;
pub mod error;
pub mod memory;
pub mod op;
pub mod spec;
pub mod stats;
pub mod sync;

pub use chip::CmpSimulator;
pub use config::{CacheConfig, CmpConfig, CoreConfig, SimFaults};
pub use error::{CoreStuck, DeadlockInfo, SimError, StuckReason};
pub use spec::{ChipSpec, ClassActivity, CoreClass};
pub use stats::{CoreStats, SimResult};

#[cfg(test)]
mod proptests {
    //! Randomized invariant tests over deterministic seeded input streams.

    use tlp_tech::rng::SplitMix64;

    use crate::cache::{Cache, Mesi};
    use crate::config::{CacheConfig, CmpConfig};
    use crate::memory::{AccessKind, MemorySystem};
    use crate::spec::ChipSpec;

    /// After any access sequence, MESI invariants hold: single writer
    /// and L1⊆L2 inclusion.
    #[test]
    fn mesi_invariants_hold() {
        let mut rng = SplitMix64::seed_from_u64(0xB0);
        for _case in 0..48 {
            let mut m = MemorySystem::new(&CmpConfig::ispass05(4), 4);
            let mut now = 0u64;
            let len = rng.gen_range_usize(1..200);
            for _ in 0..len {
                let core = rng.gen_range_usize(0..4);
                let addr = rng.gen_range_u64(0..64) * 64;
                let kind = if rng.gen_bool(0.5) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                now = m.access(core, addr, kind, now).max(now + 1);
            }
            assert!(m.single_writer_holds());
            assert!(m.inclusion_holds());
        }
    }

    /// The host snoops only the L1s whose holder bits are set, yet the bus
    /// charges exactly what a broadcast would: n − 1 snoops per miss or
    /// S→M upgrade, and with the filter on one tag probe per other L1
    /// holding the line. Every L1 copy keeps its holder bit. Covers 1 to
    /// 20 cores (20 needs a second bit word), the filter on and off, and
    /// the big/little L1 geometries.
    #[test]
    fn holder_bits_cover_every_copy_and_snoops_charge_the_broadcast() {
        let mut rng = SplitMix64::seed_from_u64(0xB3);
        // Lines 512 KiB apart share an L1 set and an L2 set, so 24 bases
        // force L1 and L2 evictions (and with them stale holder bits);
        // the four offsets are both L1 halves of two adjacent L2 lines.
        let pool: Vec<u64> = (0..24u64)
            .flat_map(|base| (0..4u64).map(move |off| base * 512 * 1024 + off * 64))
            .collect();
        let mut chips: Vec<(CmpConfig, Vec<(CacheConfig, u64)>)> = [1, 2, 4, 16, 20]
            .into_iter()
            .map(|n| {
                let cfg = CmpConfig::ispass05(n);
                let l1d = vec![(cfg.l1d, cfg.l1d.latency_cycles); n];
                (cfg, l1d)
            })
            .collect();
        let mixed = ChipSpec::big_little(2, 2);
        let mixed_l1d = (0..mixed.n_cores())
            .map(|i| {
                let class = &mixed.classes[mixed.class_of(i)];
                (class.l1d, class.base_cycles(class.l1d.latency_cycles))
            })
            .collect();
        chips.push((mixed.base_config(), mixed_l1d));
        for filter in [false, true] {
            for (cfg, l1d) in &chips {
                let n = l1d.len();
                let cfg = CmpConfig {
                    snoop_filter: filter,
                    ..cfg.clone()
                };
                for _case in 0..4 {
                    let mut m = MemorySystem::heterogeneous(&cfg, l1d.clone());
                    let mut now = 0u64;
                    for _ in 0..150 {
                        let core = rng.gen_range_usize(0..n);
                        let addr = pool[rng.gen_range_usize(0..pool.len())];
                        let kind = if rng.gen_bool(0.4) {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        let own = m.l1_probe(core, addr);
                        let others = (0..n)
                            .filter(|&c| c != core && m.l1_probe(c, addr) != Mesi::Invalid)
                            .count() as u64;
                        let snoops = own == Mesi::Invalid
                            || (own == Mesi::Shared && kind == AccessKind::Write);
                        let before = *m.stats();
                        now = m.access(core, addr, kind, now).max(now + 1);
                        let after = *m.stats();
                        let charged = after.snoop_probes + after.snoops_filtered
                            - before.snoop_probes
                            - before.snoops_filtered;
                        assert_eq!(charged, if snoops { n as u64 - 1 } else { 0 });
                        if filter {
                            let probes = after.snoop_probes - before.snoop_probes;
                            assert_eq!(probes, if snoops { others } else { 0 });
                        }
                        for &line in &pool {
                            for c in 0..n {
                                if m.l1_probe(c, line) != Mesi::Invalid {
                                    assert!(m.holder_bit(c, line), "core {c} line {line:#x}");
                                }
                            }
                        }
                        assert!(m.inclusion_holds());
                        assert!(m.single_writer_holds());
                    }
                    assert!(
                        m.l2_stats().writebacks > 0,
                        "the pool must evict dirty L2 lines"
                    );
                }
            }
        }
    }

    /// A cache never reports more lines resident than its capacity,
    /// and fills are always findable until evicted.
    #[test]
    fn cache_capacity_respected() {
        let mut rng = SplitMix64::seed_from_u64(0xB1);
        for _case in 0..48 {
            let cfg = CacheConfig {
                size_bytes: 2048,
                line_bytes: 64,
                ways: 2,
                latency_cycles: 1,
            };
            let mut c = Cache::new(cfg);
            let len = rng.gen_range_usize(1..300);
            for _ in 0..len {
                let a = rng.gen_range_u64(0..100_000);
                if c.lookup(a) == Mesi::Invalid {
                    c.fill(a, Mesi::Exclusive);
                }
                assert!(c.probe(a) != Mesi::Invalid);
            }
            assert!(c.resident_lines().len() <= 2048 / 64);
        }
    }

    /// Access completion times are causal (never before `now`) and
    /// monotone with queueing.
    #[test]
    fn completions_are_causal() {
        let mut rng = SplitMix64::seed_from_u64(0xB2);
        for _case in 0..48 {
            let mut m = MemorySystem::new(&CmpConfig::ispass05(2), 2);
            let len = rng.gen_range_usize(1..100);
            for step in 0..len {
                let core = rng.gen_range_usize(0..2);
                let slot = rng.gen_range_u64(0..32);
                let now = step as u64;
                let done = m.access(core, slot * 64, AccessKind::Read, now);
                assert!(done >= now + m.l1_latency(core));
            }
        }
    }
}
