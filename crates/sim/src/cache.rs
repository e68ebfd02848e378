//! Set-associative cache with per-line MESI state.
//!
//! One [`Cache`] type serves both the private L1s (which use the full MESI
//! state machine via the memory system's snooping logic) and the shared L2
//! (which only distinguishes clean/dirty, encoded as Exclusive/Modified).
//! Replacement is true LRU within a set.

use crate::config::CacheConfig;

/// MESI coherence state of a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesi {
    /// Modified: exclusive and dirty.
    Modified,
    /// Exclusive: sole copy, clean.
    Exclusive,
    /// Shared: possibly replicated, clean.
    Shared,
    /// Invalid (line not present).
    Invalid,
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    state: Mesi,
    /// Higher = more recently used.
    lru: u64,
}

/// Statistics for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookup operations that hit.
    pub hits: u64,
    /// Lookup operations that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Lines invalidated by coherence actions.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// What a fill evicted, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evicted {
    /// No line was displaced (an invalid way was available).
    None,
    /// A clean line was displaced silently.
    Clean {
        /// Address of the first byte of the displaced line.
        line_addr: u64,
    },
    /// A dirty line was displaced and must be written back.
    Dirty {
        /// Address of the first byte of the displaced line.
        line_addr: u64,
    },
}

/// A set-associative, write-back cache with MESI line states.
///
/// Addresses are byte addresses; the cache works on line granularity.
///
/// # Examples
///
/// ```
/// use tlp_sim::cache::{Cache, Mesi};
/// use tlp_sim::config::CacheConfig;
///
/// let mut c = Cache::new(CacheConfig {
///     size_bytes: 1024, line_bytes: 64, ways: 2, latency_cycles: 2,
/// });
/// assert_eq!(c.probe(0x40), Mesi::Invalid);
/// c.fill(0x40, Mesi::Exclusive);
/// assert_eq!(c.probe(0x40), Mesi::Exclusive);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Set-major: set `s` occupies `lines[s * ways..(s + 1) * ways]`, so a
    /// line's slot index is stable while it stays resident.
    lines: Vec<Line>,
    n_sets: usize,
    /// `n_sets - 1` when the set count is a power of two (index by mask);
    /// `None` indexes by remainder.
    set_mask: Option<usize>,
    stats: CacheStats,
    tick: u64,
    line_shift: u32,
}

impl Cache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see
    /// [`CacheConfig::sets`]).
    pub fn new(cfg: CacheConfig) -> Self {
        let n_sets = cfg.sets();
        let empty = Line {
            tag: 0,
            state: Mesi::Invalid,
            lru: 0,
        };
        Self {
            lines: vec![empty; n_sets * cfg.ways],
            n_sets,
            set_mask: n_sets.is_power_of_two().then(|| n_sets - 1),
            line_shift: cfg.line_bytes.trailing_zeros(),
            cfg,
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Address of the first byte of the line containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    /// The slot of the first way of `addr`'s set, and `addr`'s line
    /// number (its tag).
    fn set_of(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = match self.set_mask {
            Some(mask) => line as usize & mask,
            None => line as usize % self.n_sets,
        };
        (set * self.cfg.ways, line)
    }

    /// Slot index (stable while the line stays resident) of the line
    /// containing `addr`, or `None` if it is not resident. Touches neither
    /// LRU nor statistics.
    pub fn find(&self, addr: u64) -> Option<usize> {
        let (base, tag) = self.set_of(addr);
        self.lines[base..base + self.cfg.ways]
            .iter()
            .position(|l| l.state != Mesi::Invalid && l.tag == tag)
            .map(|way| base + way)
    }

    /// Current state of the line containing `addr` without touching LRU or
    /// statistics (a snoop probe).
    pub fn probe(&self, addr: u64) -> Mesi {
        self.find(addr)
            .map_or(Mesi::Invalid, |i| self.lines[i].state)
    }

    /// Performs a lookup for an access (updates LRU and hit/miss counters).
    /// Returns the line state (Invalid = miss).
    pub fn lookup(&mut self, addr: u64) -> Mesi {
        self.tick += 1;
        if let Some(i) = self.find(addr) {
            let line = &mut self.lines[i];
            line.lru = self.tick;
            self.stats.hits += 1;
            line.state
        } else {
            self.stats.misses += 1;
            Mesi::Invalid
        }
    }

    /// Records a lookup hit on the resident line in `slot` (a slot
    /// [`Cache::find`] returned): the same LRU and statistics update as
    /// a hitting [`Cache::lookup`], without searching the set again.
    pub fn touch(&mut self, slot: usize) {
        self.tick += 1;
        self.lines[slot].lru = self.tick;
        self.stats.hits += 1;
    }

    /// Changes the state of a resident line (no-op if absent) and returns
    /// its previous state ([`Mesi::Invalid`] if absent). Counts an
    /// invalidation when the new state is [`Mesi::Invalid`].
    pub fn set_state(&mut self, addr: u64, state: Mesi) -> Mesi {
        let Some(i) = self.find(addr) else {
            return Mesi::Invalid;
        };
        if state == Mesi::Invalid {
            self.stats.invalidations += 1;
        }
        std::mem::replace(&mut self.lines[i].state, state)
    }

    /// Invalidates the line containing `addr` and returns its previous
    /// state ([`Mesi::Invalid`] if it was not resident).
    pub fn invalidate(&mut self, addr: u64) -> Mesi {
        self.set_state(addr, Mesi::Invalid)
    }

    /// Inserts (or updates) the line containing `addr` with `state`,
    /// evicting the LRU way if the set is full. Returns what was evicted.
    ///
    /// # Panics
    ///
    /// Panics if `state` is [`Mesi::Invalid`] (fills must be valid).
    pub fn fill(&mut self, addr: u64, state: Mesi) -> Evicted {
        assert!(state != Mesi::Invalid, "cannot fill an invalid line");
        self.tick += 1;
        let tick = self.tick;
        // Already present: just update.
        if let Some(i) = self.find(addr) {
            let line = &mut self.lines[i];
            line.state = state;
            line.lru = tick;
            return Evicted::None;
        }
        let (base, tag) = self.set_of(addr);
        let ways = &mut self.lines[base..base + self.cfg.ways];
        // Free way?
        if let Some(line) = ways.iter_mut().find(|l| l.state == Mesi::Invalid) {
            *line = Line {
                tag,
                state,
                lru: tick,
            };
            return Evicted::None;
        }
        // Evict LRU.
        let victim = ways
            .iter_mut()
            .min_by_key(|l| l.lru)
            .expect("sets are never empty");
        let victim_addr = victim.tag << self.line_shift;
        let was_dirty = victim.state == Mesi::Modified;
        if was_dirty {
            self.stats.writebacks += 1;
        }
        *victim = Line {
            tag,
            state,
            lru: tick,
        };
        if was_dirty {
            Evicted::Dirty {
                line_addr: victim_addr,
            }
        } else {
            Evicted::Clean {
                line_addr: victim_addr,
            }
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Iterates over all resident line addresses (for inclusion checks).
    pub fn resident_lines(&self) -> Vec<(u64, Mesi)> {
        // The tag is the full line number, so it alone gives the address.
        self.lines
            .iter()
            .filter(|l| l.state != Mesi::Invalid)
            .map(|l| (l.tag << self.line_shift, l.state))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 4 * 64 * 2, // 4 sets, 2 ways
            line_bytes: 64,
            ways: 2,
            latency_cycles: 2,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert_eq!(c.lookup(0x100), Mesi::Invalid);
        c.fill(0x100, Mesi::Exclusive);
        assert_eq!(c.lookup(0x100), Mesi::Exclusive);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = small();
        c.fill(0x100, Mesi::Shared);
        assert_eq!(c.lookup(0x13F), Mesi::Shared);
        assert_eq!(c.lookup(0x140), Mesi::Invalid); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Set count = 4; addresses 0x000, 0x400, 0x800 map to set 0
        // (line numbers 0, 16, 32; 16 % 4 == 0).
        c.fill(0x000, Mesi::Exclusive);
        c.fill(0x400, Mesi::Exclusive);
        // Touch 0x000 so 0x400 is LRU.
        assert_eq!(c.lookup(0x000), Mesi::Exclusive);
        let evicted = c.fill(0x800, Mesi::Exclusive);
        assert_eq!(evicted, Evicted::Clean { line_addr: 0x400 });
        assert_eq!(c.probe(0x000), Mesi::Exclusive);
        assert_eq!(c.probe(0x400), Mesi::Invalid);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.fill(0x000, Mesi::Modified);
        c.fill(0x400, Mesi::Exclusive);
        c.fill(0x800, Mesi::Exclusive);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn set_state_and_invalidations() {
        let mut c = small();
        c.fill(0x100, Mesi::Shared);
        c.set_state(0x100, Mesi::Invalid);
        assert_eq!(c.probe(0x100), Mesi::Invalid);
        assert_eq!(c.stats().invalidations, 1);
        // Setting state of an absent line is a no-op.
        c.set_state(0x5000, Mesi::Modified);
        assert_eq!(c.probe(0x5000), Mesi::Invalid);
    }

    #[test]
    fn invalidate_returns_the_previous_state() {
        let mut c = small();
        c.fill(0x100, Mesi::Modified);
        assert_eq!(c.invalidate(0x100), Mesi::Modified);
        assert_eq!(c.invalidate(0x100), Mesi::Invalid);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn a_resident_line_keeps_its_slot() {
        let mut c = small();
        c.fill(0x000, Mesi::Exclusive);
        let slot = c.find(0x000).expect("resident");
        c.fill(0x400, Mesi::Exclusive);
        c.lookup(0x000);
        c.fill(0x000, Mesi::Modified);
        assert_eq!(c.find(0x000), Some(slot));
        assert_eq!(c.find(0x800), None);
    }

    #[test]
    fn non_power_of_two_set_counts_index_by_remainder() {
        // 3 sets of 2 ways: line numbers 0, 3 and 6 share set 0.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 3 * 2 * 64,
            line_bytes: 64,
            ways: 2,
            latency_cycles: 1,
        });
        c.fill(0, Mesi::Exclusive);
        c.fill(3 * 64, Mesi::Exclusive);
        assert_eq!(c.fill(64, Mesi::Exclusive), Evicted::None);
        assert_eq!(
            c.fill(6 * 64, Mesi::Exclusive),
            Evicted::Clean { line_addr: 0 }
        );
        assert!(c.find(6 * 64).is_some_and(|slot| slot < 2));
    }

    #[test]
    fn fill_existing_line_updates_state_without_eviction() {
        let mut c = small();
        c.fill(0x100, Mesi::Shared);
        assert_eq!(c.fill(0x100, Mesi::Modified), Evicted::None);
        assert_eq!(c.probe(0x100), Mesi::Modified);
    }

    #[test]
    fn probe_does_not_disturb_lru_or_stats() {
        let mut c = small();
        c.fill(0x000, Mesi::Exclusive);
        c.fill(0x400, Mesi::Exclusive);
        let before = *c.stats();
        // Probe the LRU line; it must stay LRU.
        assert_eq!(c.probe(0x000), Mesi::Exclusive);
        assert_eq!(*c.stats(), before);
        let evicted = c.fill(0x800, Mesi::Exclusive);
        assert_eq!(evicted, Evicted::Clean { line_addr: 0x000 });
    }

    #[test]
    fn resident_lines_reconstruct_addresses() {
        let mut c = small();
        c.fill(0x140, Mesi::Shared);
        let lines = c.resident_lines();
        assert_eq!(lines, vec![(0x140, Mesi::Shared)]);
    }
}
