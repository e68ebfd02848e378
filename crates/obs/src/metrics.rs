//! Monotonic counters and power-of-two histograms.
//!
//! The metric set is fixed and statically allocated: every counter and
//! histogram in the workspace is a `static` in this module, registered in
//! [`COUNTERS`] / [`HISTOGRAMS`]. That keeps the record path to one
//! enabled-check plus one relaxed atomic add — no registry lock, no
//! allocation — and makes snapshots a simple walk over the arrays.
//!
//! Counters only advance while a [`capture`](crate::capture) is active
//! (they are reset when one starts), so a snapshot reflects exactly the
//! captured interval.
//!
//! The serve and shard registries ([`SERVE_COUNTERS`] /
//! [`SHARD_COUNTERS`] / [`SERVE_HISTOGRAMS`]) are the exception: a
//! long-running `cmp-tlp serve` daemon scrapes them via `/metrics`, so
//! they are *always on* — they advance outside captures and are never
//! reset (Prometheus requires monotonic counters).

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic event counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    /// Gated counters only advance during a capture; ungated ones always
    /// advance and are exempt from [`reset_all`].
    gated: bool,
}

impl Counter {
    const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            gated: true,
        }
    }

    /// A counter that advances with or without an active capture and is
    /// never reset — for long-running daemons scraped via `/metrics`.
    const fn always_on(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            gated: false,
        }
    }

    /// The counter's registry name (dotted, e.g. `"sim.cycles_retired"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `delta` when a capture is active (always, for ungated
    /// counters); no-op (one relaxed atomic load) otherwise.
    #[inline]
    pub fn add(&self, delta: u64) {
        if !self.gated || crate::enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds 1 when a capture is active.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of buckets in a [`Histogram`]: bucket `i` counts values `v`
/// with `⌊log2(max(v, 1))⌋ == i`, the last bucket absorbing the tail.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A lock-free histogram over power-of-two buckets.
///
/// Bucket `i` holds values in `[2^i, 2^(i+1))` (bucket 0 holds 0 and 1).
/// Good enough to answer "are fixpoint solves taking 4 or 400
/// iterations" without recording every sample.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    gated: bool,
}

impl Histogram {
    const fn new(name: &'static str) -> Self {
        // `AtomicU64::new(0)` is const, but arrays cannot be built from a
        // non-Copy element; go through the const block form.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            name,
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            gated: true,
        }
    }

    /// A histogram that records with or without an active capture and is
    /// never reset — see [`Counter::always_on`].
    const fn always_on(name: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            name,
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            gated: false,
        }
    }

    /// The histogram's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The bucket index a value lands in.
    pub fn bucket_of(value: u64) -> usize {
        let b = 63 - value.max(1).leading_zeros() as usize;
        b.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Lower bound of bucket `i` (inclusive).
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Records one sample when a capture is active (always, for ungated
    /// histograms).
    #[inline]
    pub fn record(&self, value: u64) {
        if self.gated && !crate::enabled() {
            return;
        }
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Snapshot of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            name: self.name,
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A plain-data copy of a histogram's state, as stored in a
/// [`Trace`](crate::Trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registry name.
    pub name: &'static str,
    /// Per-bucket sample counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample recorded.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), or 0 with no samples. Resolution is the bucket
    /// width — this answers "order of magnitude", not "exact value".
    pub fn quantile_floor(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Histogram::bucket_floor(i);
            }
        }
        Histogram::bucket_floor(HISTOGRAM_BUCKETS - 1)
    }
}

macro_rules! counters {
    ($registry:ident, $ctor:ident; $($(#[$doc:meta])* $ident:ident => $name:literal),+ $(,)?) => {
        $( $(#[$doc])* pub static $ident: Counter = Counter::$ctor($name); )+
        /// Counters of this registry, in stable order.
        pub static $registry: &[&Counter] = &[$(&$ident),+];
    };
}

counters! { COUNTERS, new;
    /// Simulated cycles retired by the CMP simulator's run loop.
    SIM_CYCLES_RETIRED => "sim.cycles_retired",
    /// Simulated cycles the run loop jumped over because every live core
    /// was parked in a pure wait (a subset of `sim.cycles_retired`).
    SIM_CYCLES_FAST_FORWARDED => "sim.cycles_fast_forwarded",
    /// Core cycles (clock-domain ticks) that parked cores skipped and
    /// had applied in closed form when caught up, instead of being
    /// stepped one by one.
    SIM_CORE_CYCLES_PARKED => "sim.core_cycles_parked",
    /// Snoops the modeled bus charged: `snoop_probes + snoops_filtered`,
    /// n − 1 per snooping bus transaction on n active cores.
    SIM_SNOOPS_CHARGED => "sim.snoops_charged",
    /// Remote L1 tag lookups the host performed for snoops,
    /// invalidations and back-invalidations (host work, not charged).
    SIM_SNOOP_TAG_LOOKUPS => "sim.snoop_tag_lookups",
    /// Instructions retired chip-wide.
    SIM_INSTRUCTIONS => "sim.instructions_retired",
    /// Cycles cores spent spinning or asleep at barriers and locks.
    SIM_BARRIER_STALL_CYCLES => "sim.barrier_stall_cycles",
    /// L1D + L2 cache misses.
    SIM_CACHE_MISSES => "sim.cache_misses",
    /// Completed simulator runs.
    SIM_RUNS => "sim.runs",
    /// Open-loop requests completed across simulator runs.
    SIM_REQUESTS_COMPLETED => "sim.requests_completed",
    /// Steady-state RC solves (one per fixpoint iteration plus one seed
    /// solve per fixpoint, plus direct calls).
    THERMAL_STEADY_SOLVES => "thermal.steady_solves",
    /// Power↔temperature fixpoint iterations across all solves.
    THERMAL_FIXPOINT_ITERATIONS => "thermal.fixpoint_iterations",
    /// Fixpoint solves that failed (non-convergence, divergence,
    /// non-finite inputs).
    THERMAL_FIXPOINT_FAILURES => "thermal.fixpoint_failures",
    /// Implicit-Euler transient steps marched.
    THERMAL_TRANSIENT_STEPS => "thermal.transient_steps",
    /// Dense LU factorizations (each O(n³)).
    LINALG_LU_FACTORS => "linalg.lu_factors",
    /// Back-substitution solves against a cached factorization (O(n²)).
    LINALG_LU_SOLVES => "linalg.lu_solves",
    /// Dynamic-power breakdowns computed by the power model.
    POWER_BREAKDOWNS => "power.breakdowns",
    /// Analytic scenario operating points solved.
    ANALYTIC_SOLVES => "analytic.solves",
    /// Thread-program gangs constructed by the workload framework.
    WORKLOADS_GANGS_BUILT => "workloads.gangs_built",
    /// Extra solve attempts consumed by the sweep supervisor's retry
    /// policy (0 when every cell converges first try).
    SWEEP_RETRY_ATTEMPTS => "sweep.retry_attempts",
    /// Sweep cells that completed.
    SWEEP_CELLS_COMPLETED => "sweep.cells_completed",
    /// Sweep cells that failed after exhausting their retry policy.
    SWEEP_CELLS_FAILED => "sweep.cells_failed",
    /// Sweep cells whose completed outcome was spliced from a checkpoint
    /// journal instead of being recomputed.
    SWEEP_CELLS_RESUMED => "sweep.cells_resumed",
    /// Sweep cells quarantined as poison (repeatedly crashed or hung
    /// across resumed runs) and skipped without recomputation.
    SWEEP_CELLS_QUARANTINED => "sweep.cells_quarantined",
    /// Watchdog deadline cancellations fired against overrunning cells.
    SWEEP_DEADLINE_CANCELLATIONS => "sweep.deadline_cancellations",
    /// Records appended to a checkpoint journal (starts and outcomes).
    JOURNAL_RECORDS_WRITTEN => "journal.records_written",
    /// Valid records recovered from an existing journal on resume.
    JOURNAL_RECORDS_RECOVERED => "journal.records_recovered",
    /// Bytes discarded from a journal's torn or corrupt tail on resume.
    JOURNAL_TORN_TAIL_BYTES => "journal.torn_tail_bytes",
    /// Property-based oracle cases executed.
    CHECK_CASES => "check.cases",
}

counters! { SERVE_COUNTERS, always_on;
    /// HTTP requests accepted by the serve listener (including ones that
    /// later fail parsing or admission).
    SERVE_HTTP_REQUESTS => "serve.http_requests",
    /// Responses in the 2xx class.
    SERVE_HTTP_RESPONSES_2XX => "serve.http_responses_2xx",
    /// Responses in the 4xx class.
    SERVE_HTTP_RESPONSES_4XX => "serve.http_responses_4xx",
    /// Responses in the 5xx class.
    SERVE_HTTP_RESPONSES_5XX => "serve.http_responses_5xx",
    /// Requests shed by the per-IP token-bucket rate limiter (429).
    SERVE_HTTP_RATE_LIMITED => "serve.http_rate_limited",
    /// Requests rejected by the HTTP parser (malformed, oversized, or
    /// timed out before a full request arrived).
    SERVE_HTTP_PARSE_REJECTED => "serve.http_parse_rejected",
    /// Sweep submissions shed because the admission queue was full (429).
    SERVE_JOBS_SHED => "serve.jobs_shed",
    /// Sweep jobs accepted into the admission queue.
    SERVE_JOBS_SUBMITTED => "serve.jobs_submitted",
    /// Sweep jobs that ran to completion.
    SERVE_JOBS_COMPLETED => "serve.jobs_completed",
    /// Sweep jobs that failed with a typed error.
    SERVE_JOBS_FAILED => "serve.jobs_failed",
    /// Sweep jobs interrupted by a drain (SIGTERM/SIGINT).
    SERVE_JOBS_INTERRUPTED => "serve.jobs_interrupted",
    /// Jobs re-queued from the state directory on startup.
    SERVE_JOBS_RESUMED => "serve.jobs_resumed",
}

counters! { SHARD_COUNTERS, always_on;
    /// Shards created by the coordinator (`POST /shards` or in-process).
    SHARD_SHARDS_CREATED => "shard.shards_created",
    /// Leases granted to workers (including re-grants of expired ranges).
    SHARD_LEASES_GRANTED => "shard.leases_granted",
    /// Leases that expired (dead or partitioned worker) and were
    /// returned to the open pool for reassignment.
    SHARD_LEASES_EXPIRED => "shard.leases_expired",
    /// Lease heartbeats accepted.
    SHARD_HEARTBEATS => "shard.heartbeats",
    /// Journal segments validated and accepted (first completion of
    /// their range).
    SHARD_SEGMENTS_ACCEPTED => "shard.segments_accepted",
    /// Segment uploads rejected as invalid (torn, corrupt, wrong
    /// fingerprint, incomplete or out-of-range cells).
    SHARD_SEGMENTS_REJECTED => "shard.segments_rejected",
    /// Duplicate uploads of an already-accepted range whose canonical
    /// checksum matched (idempotent 200, e.g. a zombie worker returning
    /// after lease expiry).
    SHARD_SEGMENTS_DUPLICATE => "shard.segments_duplicate",
    /// Duplicate uploads whose canonical checksum did NOT match the
    /// accepted segment (typed `SegmentConflict`, never overwritten).
    SHARD_SEGMENT_CONFLICTS => "shard.segment_conflicts",
    /// Shards whose segments were spliced into one canonical merged
    /// journal and report.
    SHARD_MERGES_COMPLETED => "shard.merges_completed",
    /// Workload rows pre-completed from the content-addressed cell
    /// cache at shard creation.
    SHARD_CACHE_HITS => "shard.cache_hits",
    /// Workload rows with no usable cell-cache entry.
    SHARD_CACHE_MISSES => "shard.cache_misses",
    /// Cell-cache entries evicted because their checksum failed on read
    /// (corrupt entry → recompute, never a wrong answer).
    SHARD_CACHE_EVICTIONS => "shard.cache_evictions",
}

macro_rules! histograms {
    ($registry:ident, $ctor:ident; $($(#[$doc:meta])* $ident:ident => $name:literal),+ $(,)?) => {
        $( $(#[$doc])* pub static $ident: Histogram = Histogram::$ctor($name); )+
        /// Histograms of this registry, in stable order.
        pub static $registry: &[&Histogram] = &[$(&$ident),+];
    };
}

histograms! { HISTOGRAMS, new;
    /// Iterations per power↔temperature fixpoint solve.
    HIST_FIXPOINT_ITERATIONS => "thermal.fixpoint_iterations_per_solve",
    /// Cycles per completed simulator run.
    HIST_SIM_RUN_CYCLES => "sim.cycles_per_run",
    /// Latency in cycles per completed open-loop request (scheduled
    /// arrival to retirement, queueing included).
    HIST_REQUEST_LATENCY => "sim.request_latency_cycles",
    /// Matrix dimension per LU factorization.
    HIST_LU_DIMENSION => "linalg.lu_dimension",
    /// Bytes written per checkpoint-journal flush: one record's line
    /// when it is appended, the whole file when a new journal or a
    /// recovered torn tail makes the flush rewrite it.
    HIST_JOURNAL_FLUSH_BYTES => "journal.flush_bytes",
}

histograms! { SERVE_HISTOGRAMS, always_on;
    /// Request body bytes per accepted HTTP request.
    SERVE_HIST_REQUEST_BYTES => "serve.request_bytes",
    /// Wall-clock microseconds from accepted connection to response
    /// flushed.
    SERVE_HIST_RESPONSE_MICROS => "serve.response_micros",
}

/// Resets every *gated* counter and histogram to zero (called by
/// [`capture`](crate::capture) when a new capture starts). The ungated
/// serve registries are exempt: Prometheus scrapes require them to stay
/// monotonic across captures.
pub fn reset_all() {
    for c in COUNTERS {
        c.reset();
    }
    for h in HISTOGRAMS {
        h.reset();
    }
}

/// `(name, value)` for every counter, in registry order.
pub fn counter_snapshot() -> Vec<(&'static str, u64)> {
    COUNTERS.iter().map(|c| (c.name, c.get())).collect()
}

/// Snapshot of every histogram, in registry order.
pub fn histogram_snapshot() -> Vec<HistogramSnapshot> {
    HISTOGRAMS.iter().map(|h| h.snapshot()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_floor_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(1023), 9);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_floor_inverts_bucket_of() {
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(Histogram::bucket_of(Histogram::bucket_floor(i)), i);
        }
        assert_eq!(Histogram::bucket_floor(0), 0);
    }

    #[test]
    fn counters_only_advance_during_capture() {
        SWEEP_CELLS_COMPLETED.add(100); // outside any capture: dropped
        let ((), trace) = crate::capture(|| {
            SWEEP_CELLS_COMPLETED.add(2);
            SWEEP_CELLS_COMPLETED.incr();
        });
        assert_eq!(trace.counter("sweep.cells_completed"), Some(3));
    }

    #[test]
    fn histogram_statistics() {
        let ((), trace) = crate::capture(|| {
            for v in [1u64, 2, 3, 4, 100] {
                HIST_LU_DIMENSION.record(v);
            }
        });
        let h = trace
            .histograms
            .iter()
            .find(|h| h.name == "linalg.lu_dimension")
            .unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 110);
        assert_eq!(h.max, 100);
        assert!((h.mean() - 22.0).abs() < 1e-12);
        // Median sample is 3 → bucket [2,4) → floor 2.
        assert_eq!(h.quantile_floor(0.5), 2);
        // Tail lands in [64,128).
        assert_eq!(h.quantile_floor(1.0), 64);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = HistogramSnapshot {
            name: "x",
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        };
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile_floor(0.5), 0);
    }

    #[test]
    fn registries_have_unique_names() {
        let mut names: Vec<_> = COUNTERS.iter().map(|c| c.name()).collect();
        names.extend(HISTOGRAMS.iter().map(|h| h.name()));
        names.extend(SERVE_COUNTERS.iter().map(|c| c.name()));
        names.extend(SHARD_COUNTERS.iter().map(|c| c.name()));
        names.extend(SERVE_HISTOGRAMS.iter().map(|h| h.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
    }

    #[test]
    fn ungated_metrics_advance_outside_captures_and_survive_resets() {
        let before = SERVE_HTTP_REQUESTS.get();
        SERVE_HTTP_REQUESTS.incr(); // no capture active: still counted
        assert_eq!(SERVE_HTTP_REQUESTS.get(), before + 1);

        let hist_before = SERVE_HIST_REQUEST_BYTES.snapshot().count;
        SERVE_HIST_REQUEST_BYTES.record(512);
        assert_eq!(SERVE_HIST_REQUEST_BYTES.snapshot().count, hist_before + 1);

        // A capture resets the gated registries but not the serve ones.
        let ((), _trace) = crate::capture(|| {});
        assert_eq!(SERVE_HTTP_REQUESTS.get(), before + 1);
        assert!(SERVE_HIST_REQUEST_BYTES.snapshot().count > hist_before);
    }
}
