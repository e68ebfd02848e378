//! Distributed sweep sharding: coordinator/worker fan-out with
//! lease-based fault tolerance and a byte-identical journal merge.
//!
//! A paper-scale design-space exploration — core counts × DVFS ladders ×
//! core mixes × budgets — outgrows one machine long before it outgrows
//! the reproduction contract: every figure-generating sweep must stay
//! bit-exact. This module scales a sweep *out* without weakening that
//! contract. The grid is cut into contiguous ranges of whole workload
//! rows; a coordinator (the [`ShardBoard`], mounted on the serve daemon)
//! hands ranges to workers under deadline-bearing leases; each worker
//! runs its range through the ordinary [`SweepBuilder`] with a local
//! cell journal and uploads the checksummed journal segment; and the
//! merge step splices accepted segments into one canonical journal whose
//! resumed report is byte-identical to an uninterrupted single-process
//! run.
//!
//! A shard's axes are a [`JobRecord`], the same job description
//! `POST /sweeps` and `cmp-tlp sweep` use: the shard record and the
//! lease grant's `spec` are rendered by it and read back by
//! [`parse_submission`]; the worker and the merge both start from the
//! builder [`JobRecord::sweep`] returns (the worker narrowing its grid
//! to the leased range with [`subspec`]); and coordinator and worker
//! fingerprint journals with the one [`JobRecord::chip_tag`].
//!
//! Why whole workload rows: a cell `(work, n)` depends on the full
//! `core_counts` profile of its row (the `n = 1` anchor normalizes the
//! whole row) but on nothing from any other row. A sub-spec holding only
//! the leased rows plus the full core-count axis therefore computes rows
//! byte-identical to the full sweep's — the property the merge
//! identity rests on, pinned by the `shard-merge-identity` oracle.
//!
//! Failure is first-class, typed, and tested, never best-effort:
//!
//! - A dead or partitioned worker's lease expires and its range is
//!   reassigned.
//! - A zombie worker returning after expiry hits *idempotent
//!   completion*: if its segment canonicalizes to the accepted bytes it
//!   gets a duplicate-accept, otherwise a typed
//!   [`ShardError::SegmentConflict`] — never a silent overwrite.
//! - Torn or truncated uploads are rejected by the journal's own FNV
//!   line-checksum recovery path ([`crate::journal::checked_records`]).
//! - The merge refuses gaps, overlaps, and wrong-fingerprint segments
//!   with a typed [`MergeError`].
//! - Completed rows land in a content-addressed cell cache keyed by
//!   sub-spec fingerprint + cell, so a re-submitted sweep skips settled
//!   work; cache entries are checksum-validated on read and evicted on
//!   corruption (recompute, never a wrong answer).
//!
//! [`SweepBuilder`]: crate::sweep::SweepBuilder
//! [`ShardBoard`]: board::ShardBoard
//! [`JobRecord`]: crate::serve::jobs::JobRecord
//! [`JobRecord::sweep`]: crate::serve::jobs::JobRecord::sweep
//! [`JobRecord::chip_tag`]: crate::serve::jobs::JobRecord::chip_tag
//! [`parse_submission`]: crate::serve::jobs::parse_submission

pub mod board;
pub mod chaos;
pub mod merge;
pub mod worker;

use std::fmt;

use crate::sweep::SweepSpec;

pub use board::{
    Clock, LeaseGrant, LeaseOffer, RangeMeta, RangeView, SegmentOutcome, ShardBoard, ShardView,
};
pub use merge::{merge_segments, validate_segment, CanonicalSegment, MergeError, SegmentDefect};
pub use worker::{run_worker, WorkerConfig, WorkerError, WorkerSummary};

/// A contiguous range of workload rows `[lo, hi)` of a sweep grid, in
/// [`SweepSpec::works`] order (batch applications first, then server
/// loads). Every lease and segment covers exactly one range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkRange {
    /// First workload row (inclusive).
    pub lo: usize,
    /// One past the last workload row (exclusive).
    pub hi: usize,
}

impl WorkRange {
    /// Number of workload rows in the range.
    pub fn len(&self) -> usize {
        self.hi.saturating_sub(self.lo)
    }

    /// Whether the range covers no rows.
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }
}

impl fmt::Display for WorkRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

/// The sweep a worker runs for one leased range: the full grid restricted
/// to the range's workload rows, keeping the whole core-count axis, the
/// scale, and the seed. Coordinator and worker both derive the range's
/// journal fingerprint from this one function, so they can never
/// disagree about what a valid segment looks like.
pub fn subspec(spec: &SweepSpec, range: WorkRange) -> SweepSpec {
    let n_apps = spec.apps.len();
    let apps = spec.apps[range.lo.min(n_apps)..range.hi.min(n_apps)].to_vec();
    let n_loads = spec.server_loads.len();
    let lo = range.lo.saturating_sub(n_apps).min(n_loads);
    let hi = range.hi.saturating_sub(n_apps).min(n_loads);
    SweepSpec {
        apps,
        server_loads: spec.server_loads[lo..hi].to_vec(),
        core_counts: spec.core_counts.clone(),
        scale: spec.scale,
        seed: spec.seed,
    }
}

/// Failure of the sharding layer, typed end to end (HTTP handlers map
/// each variant to a distinct status; nothing collapses into a stringly
/// 500).
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// No shard with this id.
    UnknownShard {
        /// The id looked up.
        id: String,
    },
    /// No lease with this id was ever granted (or the coordinator
    /// restarted — leases are in-memory; the worker claims afresh).
    UnknownLease {
        /// The id looked up.
        id: String,
    },
    /// The lease's deadline passed (or its range was completed by
    /// someone else); the worker must claim a new lease instead of
    /// heartbeating this one.
    LeaseExpired {
        /// The expired lease.
        id: String,
    },
    /// A malformed shard submission or parameter.
    BadRequest {
        /// What was wrong.
        message: String,
    },
    /// An uploaded segment failed validation (torn upload, wrong
    /// fingerprint, out-of-range or incomplete cells) and was rejected;
    /// the range stays open.
    SegmentRejected {
        /// Shard the segment targeted.
        shard: String,
        /// Range the segment claimed to cover.
        range: WorkRange,
        /// What was wrong with it.
        defect: SegmentDefect,
    },
    /// A segment arrived for an already-completed range and its
    /// canonical checksum does not match the accepted segment's. The
    /// accepted segment is never overwritten; the conflicting bytes are
    /// reported and dropped.
    SegmentConflict {
        /// Shard the segment targeted.
        shard: String,
        /// The contested range.
        range: WorkRange,
        /// Canonical FNV-64 of the accepted segment (16 hex digits).
        accepted: String,
        /// Canonical FNV-64 of the conflicting upload.
        offered: String,
    },
    /// The final splice failed its gap/overlap/fingerprint guards — an
    /// internal invariant violation (accepted segments are validated on
    /// the way in), surfaced rather than papered over.
    Merge(MergeError),
    /// The merged journal resumed but the report could not be built.
    Report {
        /// Outer-to-inner error chain.
        chain: Vec<String>,
    },
    /// Filesystem failure.
    Io {
        /// Path involved.
        path: String,
        /// Rendered OS-level error.
        message: String,
    },
    /// A durable shard record exists but cannot be parsed.
    Corrupt {
        /// Path involved.
        path: String,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::UnknownShard { id } => write!(f, "no shard named {id}"),
            ShardError::UnknownLease { id } => write!(f, "no lease named {id}"),
            ShardError::LeaseExpired { id } => {
                write!(f, "lease {id} expired; claim a new lease")
            }
            ShardError::BadRequest { message } => write!(f, "bad shard request: {message}"),
            ShardError::SegmentRejected {
                shard,
                range,
                defect,
            } => write!(f, "segment for {shard} {range} rejected: {defect}"),
            ShardError::SegmentConflict {
                shard,
                range,
                accepted,
                offered,
            } => write!(
                f,
                "segment for {shard} {range} conflicts with the accepted one \
                 (accepted checksum {accepted}, offered {offered}); \
                 refusing to overwrite"
            ),
            ShardError::Merge(e) => write!(f, "shard merge failed: {e}"),
            ShardError::Report { chain } => {
                write!(f, "merged report failed: {}", chain.join(": "))
            }
            ShardError::Io { path, message } => {
                write!(f, "shard store I/O error at {path}: {message}")
            }
            ShardError::Corrupt { path, message } => {
                write!(f, "corrupt shard record {path}: {message}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<MergeError> for ShardError {
    fn from(e: MergeError) -> Self {
        ShardError::Merge(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chipstate::ExperimentalChip;
    use crate::serve::jobs::JobRecord;
    use tlp_sim::ChipSpec;
    use tlp_tech::Technology;
    use tlp_workloads::{AppId, Scale};

    fn spec() -> SweepSpec {
        SweepSpec {
            apps: vec![AppId::Fft, AppId::Lu],
            server_loads: vec![2_000_000],
            core_counts: vec![1, 2, 4],
            scale: Scale::Test,
            seed: 7,
        }
    }

    #[test]
    fn subspec_carves_rows_but_keeps_the_count_axis() {
        let s = spec();
        // Apps-only range.
        let a = subspec(&s, WorkRange { lo: 0, hi: 1 });
        assert_eq!(a.apps, vec![AppId::Fft]);
        assert!(a.server_loads.is_empty());
        assert_eq!(a.core_counts, s.core_counts);
        assert_eq!((a.scale, a.seed), (s.scale, s.seed));
        // A range spanning the app/server boundary.
        let b = subspec(&s, WorkRange { lo: 1, hi: 3 });
        assert_eq!(b.apps, vec![AppId::Lu]);
        assert_eq!(b.server_loads, vec![2_000_000]);
        // Server-only range.
        let c = subspec(&s, WorkRange { lo: 2, hi: 3 });
        assert!(c.apps.is_empty());
        assert_eq!(c.server_loads, vec![2_000_000]);
        // The full range reproduces the whole grid.
        let d = subspec(&s, WorkRange { lo: 0, hi: 3 });
        assert_eq!(d.works().len(), 3);
    }

    #[test]
    fn chip_tags_match_the_daemons_derivation() {
        let mut job = JobRecord::new(vec![AppId::Fft], vec![1], Scale::Test, 7);
        assert_eq!(job.chip_tag(), None);
        job.core_mix = Some((4, 12));
        let tag = job.chip_tag().expect("big.LITTLE is heterogeneous");
        assert_eq!(tag, ChipSpec::big_little(4, 12).tag());
        // The tag is the one the job's own sweep writes.
        let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(4), Technology::itrs_65nm());
        let report = job.sweep(&chip).run().expect("test-scale sweep");
        assert_eq!(report.chip, Some(tag));
    }

    #[test]
    fn ranges_know_their_size() {
        let r = WorkRange { lo: 2, hi: 5 };
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!(WorkRange { lo: 3, hi: 3 }.is_empty());
        assert_eq!(format!("{r}"), "[2, 5)");
    }
}
