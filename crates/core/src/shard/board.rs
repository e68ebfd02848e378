//! The coordinator: durable shard records, in-memory leases, and the
//! accept/merge state machine.
//!
//! A *shard* is a sweep submission cut into contiguous ranges of
//! workload rows. The [`ShardBoard`] owns the durable side — one
//! `<id>.shard.json` record per shard, one canonical `<id>.r<k>.segment`
//! file per accepted range, the merged `<id>.journal`, and the
//! content-addressed cell cache under `cellcache/` — all written with
//! the same tmp + fsync + rename discipline as the job store, so a
//! `kill -9` leaves either the old state or the new one, never a torn
//! hybrid.
//!
//! Leases are deliberately *not* durable. A lease is a liveness hint —
//! "this worker is probably computing this range" — and liveness does
//! not survive a coordinator restart anyway. On restart every range that
//! has no accepted segment is simply open again, workers re-claim, and
//! idempotent completion absorbs any uploads from the previous
//! incarnation's workers. Accepted segments are the durable truth;
//! leases only schedule.
//!
//! The lease state machine per range:
//!
//! ```text
//!   open ──grant──▶ leased ──accept──▶ done
//!     ▲               │
//!     └───expire──────┘        (zombie upload after expiry:
//!                               checksum match → duplicate-accept,
//!                               mismatch → SegmentConflict)
//! ```
//!
//! Time is injected via [`Clock`] so the expiry/zombie/race paths are
//! tested deterministically (the chaos driver advances a manual clock;
//! the daemon uses the monotonic one).

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tlp_obs::metrics::{
    SHARD_CACHE_EVICTIONS, SHARD_CACHE_HITS, SHARD_CACHE_MISSES, SHARD_HEARTBEATS,
    SHARD_LEASES_EXPIRED, SHARD_LEASES_GRANTED, SHARD_MERGES_COMPLETED, SHARD_SEGMENTS_ACCEPTED,
    SHARD_SEGMENTS_DUPLICATE, SHARD_SEGMENTS_REJECTED, SHARD_SEGMENT_CONFLICTS,
    SHARD_SHARDS_CREATED,
};
use tlp_tech::json::{Json, JsonLimits, ToJson as _};

use crate::chipstate::ExperimentalChip;
use crate::error::error_chain;
use crate::journal::{field, num_field, str_field};
use crate::serve::jobs::{parse_submission, JobRecord};
use crate::sweep::SweepSpec;

use super::merge::{merge_segments, range_fingerprint, validate_segment, CanonicalSegment};
use super::{ShardError, WorkRange};

/// Time source for lease deadlines: the daemon uses a monotonic clock,
/// tests and the chaos driver drive a manual one so expiry races are
/// reproducible.
#[derive(Clone)]
pub enum Clock {
    /// Milliseconds since the board was created, monotonic.
    Real(Instant),
    /// Milliseconds read from a shared cell the test advances.
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// A monotonic clock starting at zero now.
    pub fn real() -> Self {
        Clock::Real(Instant::now())
    }

    /// A manual clock plus the handle that advances it.
    pub fn manual(start_ms: u64) -> (Self, Arc<AtomicU64>) {
        let cell = Arc::new(AtomicU64::new(start_ms));
        (Clock::Manual(Arc::clone(&cell)), cell)
    }

    fn now_ms(&self) -> u64 {
        match self {
            Clock::Real(epoch) => epoch.elapsed().as_millis() as u64,
            Clock::Manual(cell) => cell.load(Ordering::SeqCst),
        }
    }
}

/// Durable per-range state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeMeta {
    /// The rows this range covers.
    pub range: WorkRange,
    /// Whether a segment has been accepted for it.
    pub done: bool,
    /// Canonical checksum of the accepted segment (present iff `done`).
    pub checksum: Option<u64>,
}

/// Durable shard state: the job axes plus range bookkeeping.
#[derive(Debug, Clone)]
pub struct ShardRecord {
    /// Stable identifier (`s000001`).
    pub id: String,
    /// Monotonic creation number.
    pub seq: u64,
    /// The sweep axes (reusing the daemon's submission record; its job
    /// lifecycle fields are unused here).
    pub job: JobRecord,
    /// Requested rows per lease (ranges may be smaller at cache seams).
    pub lease_works: usize,
    /// Lease duration in milliseconds.
    pub lease_ms: u64,
    /// The partition of the grid's workload rows.
    pub ranges: Vec<RangeMeta>,
    /// The final report document, present once merged.
    pub report: Option<Json>,
}

struct ShardState {
    rec: ShardRecord,
    /// Live lease id per range (in-memory only).
    range_lease: Vec<Option<String>>,
}

struct Lease {
    shard_seq: u64,
    range_idx: usize,
    worker: String,
    deadline_ms: u64,
    lease_ms: u64,
    released: bool,
}

struct Inner {
    shards: BTreeMap<u64, ShardState>,
    by_id: HashMap<String, u64>,
    leases: HashMap<String, Lease>,
    next_lease: u64,
}

/// What a worker gets back from a successful claim.
#[derive(Debug, Clone)]
pub struct LeaseGrant {
    /// The lease id to heartbeat and upload under.
    pub lease_id: String,
    /// The shard the range belongs to.
    pub shard_id: String,
    /// The rows to compute.
    pub range: WorkRange,
    /// Deadline budget: the lease expires this many ms after grant (or
    /// after the last heartbeat).
    pub lease_ms: u64,
    /// Full sweep axes; the worker derives its sub-spec with
    /// [`subspec`](super::subspec)`(job.spec(), range)`.
    pub job: JobRecord,
}

/// Outcome of a lease claim.
#[derive(Debug, Clone)]
pub enum LeaseOffer {
    /// A range is yours until the deadline.
    Granted(Box<LeaseGrant>),
    /// Nothing claimable right now (all open ranges are leased); poll
    /// again after a lease expires or completes.
    Wait,
    /// Every range is done — nothing left to compute.
    Complete,
}

/// Outcome of a segment upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentOutcome {
    /// The segment was accepted and persisted.
    Accepted {
        /// Whether this acceptance completed the shard and produced the
        /// merged journal and report.
        merged: bool,
    },
    /// The range was already done with byte-identical canonical content
    /// — the idempotent-completion path a zombie worker hits.
    Duplicate,
}

/// Status of one range inside a [`ShardView`].
#[derive(Debug, Clone)]
pub struct RangeView {
    /// The rows the range covers.
    pub range: WorkRange,
    /// `"open"`, `"leased"`, or `"done"`.
    pub state: &'static str,
    /// Who holds the live lease, for `"leased"` ranges.
    pub worker: Option<String>,
}

/// A status view of one shard, renderable as JSON.
#[derive(Debug, Clone)]
pub struct ShardView {
    /// Shard id.
    pub id: String,
    /// Total workload rows in the grid.
    pub works: usize,
    /// Lease duration in milliseconds.
    pub lease_ms: u64,
    /// Per-range status.
    pub ranges: Vec<RangeView>,
    /// Whether the merged report exists.
    pub merged: bool,
}

impl ShardView {
    /// Renders the view for the HTTP status endpoints.
    pub fn to_json(&self) -> Json {
        let done = self.ranges.iter().filter(|r| r.state == "done").count();
        let state = if self.merged {
            "merged"
        } else if done == self.ranges.len() {
            "merging"
        } else {
            "open"
        };
        Json::object([
            ("id", Json::from(self.id.as_str())),
            ("state", Json::from(state)),
            ("works", Json::from(self.works)),
            ("lease_ms", Json::from(self.lease_ms)),
            ("ranges_done", Json::from(done)),
            ("ranges_total", Json::from(self.ranges.len())),
            (
                "ranges",
                Json::array(&self.ranges, |r| {
                    let mut fields = vec![
                        ("lo", Json::from(r.range.lo)),
                        ("hi", Json::from(r.range.hi)),
                        ("state", Json::from(r.state)),
                    ];
                    if let Some(worker) = &r.worker {
                        fields.push(("worker", Json::from(worker.as_str())));
                    }
                    Json::object(fields)
                }),
            ),
        ])
    }
}

/// The coordinator state: durable shards + in-memory leases. All
/// methods are `&self` and internally locked; the daemon shares one
/// board across its HTTP workers.
pub struct ShardBoard {
    dir: PathBuf,
    clock: Clock,
    inner: Mutex<Inner>,
}

impl ShardBoard {
    /// Opens (or creates) a board rooted at `dir`, rescanning durable
    /// shard records and re-validating every accepted segment file by
    /// checksum — a segment that rotted on disk demotes its range back
    /// to open (recompute, never a wrong merge).
    ///
    /// # Errors
    ///
    /// [`ShardError::Io`] on filesystem failure, [`ShardError::Corrupt`]
    /// for an unreadable shard record.
    pub fn open(dir: impl Into<PathBuf>, clock: Clock) -> Result<Self, ShardError> {
        let dir = dir.into();
        let io = |path: &Path| {
            let p = path.display().to_string();
            move |e: std::io::Error| ShardError::Io {
                path: p.clone(),
                message: e.to_string(),
            }
        };
        fs::create_dir_all(&dir).map_err(io(&dir))?;
        let cache = dir.join("cellcache");
        fs::create_dir_all(&cache).map_err(io(&cache))?;

        let board = ShardBoard {
            dir: dir.clone(),
            clock,
            inner: Mutex::new(Inner {
                shards: BTreeMap::new(),
                by_id: HashMap::new(),
                leases: HashMap::new(),
                next_lease: 1,
            }),
        };

        let mut names: Vec<String> = Vec::new();
        for entry in fs::read_dir(&dir).map_err(io(&dir))? {
            let entry = entry.map_err(io(&dir))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(stem) = name.strip_suffix(".shard.json") {
                names.push(stem.to_string());
            }
        }
        names.sort();

        let mut inner = board.inner.lock().expect("shard board lock");
        for stem in names {
            let path = board.record_path(&stem);
            let text = fs::read_to_string(&path).map_err(io(&path))?;
            let doc = Json::parse_with_limits(&text, JsonLimits::TRUSTED).map_err(|e| {
                ShardError::Corrupt {
                    path: path.display().to_string(),
                    message: e.to_string(),
                }
            })?;
            let mut rec = record_from_json(&doc, &path)?;
            board.revalidate_segments(&mut rec)?;
            let range_lease = vec![None; rec.ranges.len()];
            inner.by_id.insert(rec.id.clone(), rec.seq);
            inner
                .shards
                .insert(rec.seq, ShardState { rec, range_lease });
        }
        drop(inner);
        Ok(board)
    }

    /// Creates a shard for `job`, partitioning the grid into ranges of
    /// at most `lease_works` rows. Rows already present (and valid) in
    /// the cell cache are accepted immediately as pre-done ranges; if
    /// the whole grid is cached the shard merges before this returns.
    ///
    /// # Errors
    ///
    /// [`ShardError::BadRequest`] for a zero `lease_ms`, plus the
    /// store/merge errors.
    pub fn create(
        &self,
        job: JobRecord,
        lease_works: usize,
        lease_ms: u64,
        chip: &ExperimentalChip,
    ) -> Result<ShardView, ShardError> {
        if lease_ms == 0 {
            return Err(ShardError::BadRequest {
                message: "lease duration must be positive".to_string(),
            });
        }
        let lease_works = lease_works.max(1);
        let spec = job.spec();
        let works = spec.works().len();
        let chip_tag = job.chip_tag();
        let tag = chip_tag.as_deref();

        let mut inner = self.inner.lock().expect("shard board lock");
        let seq = inner.shards.keys().next_back().copied().unwrap_or(0) + 1;
        let id = format!("s{seq:06}");

        // Partition the rows, consulting the cache row by row. A cached
        // row becomes its own pre-done single-row range; uncached runs
        // between cache hits are chunked into open ranges.
        let mut ranges = Vec::new();
        let mut cached: Vec<(usize, CanonicalSegment)> = Vec::new();
        let mut run_start = 0usize;
        for w in 0..=works {
            let hit = if w < works {
                self.cached_row(&spec, tag, w)
            } else {
                None
            };
            if hit.is_some() || w == works {
                let mut lo = run_start;
                while lo < w {
                    let hi = (lo + lease_works).min(w);
                    ranges.push(RangeMeta {
                        range: WorkRange { lo, hi },
                        done: false,
                        checksum: None,
                    });
                    lo = hi;
                }
                run_start = w + 1;
            }
            if let Some(seg) = hit {
                SHARD_CACHE_HITS.incr();
                cached.push((ranges.len(), seg));
                ranges.push(RangeMeta {
                    range: WorkRange { lo: w, hi: w + 1 },
                    done: true,
                    checksum: None, // filled below once the file is written
                });
            } else if w < works {
                SHARD_CACHE_MISSES.incr();
            }
        }

        for (idx, seg) in &cached {
            self.write_atomic(&self.segment_path(&id, *idx), seg.text.as_bytes())?;
            ranges[*idx].checksum = Some(seg.checksum);
        }

        let rec = ShardRecord {
            id: id.clone(),
            seq,
            job,
            lease_works,
            lease_ms,
            ranges,
            report: None,
        };
        self.persist(&rec)?;
        SHARD_SHARDS_CREATED.incr();
        let range_lease = vec![None; rec.ranges.len()];
        inner.by_id.insert(id.clone(), seq);
        inner.shards.insert(seq, ShardState { rec, range_lease });

        let inner = &mut *inner;
        let st = inner.shards.get_mut(&seq).expect("just inserted");
        if st.rec.ranges.iter().all(|m| m.done) {
            self.merge_and_report(st, chip)?;
        }
        Ok(Self::view_of(st, &inner.leases))
    }

    /// Claims a lease on `shard_id` for `worker`: the first open,
    /// unleased range, with a deadline `lease_ms` from now. Expired
    /// leases are swept first, so a range abandoned by a dead worker is
    /// immediately reassignable.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownShard`].
    pub fn lease(&self, shard_id: &str, worker: &str) -> Result<LeaseOffer, ShardError> {
        let now = self.clock.now_ms();
        let mut inner = self.inner.lock().expect("shard board lock");
        let inner = &mut *inner;
        Self::expire_stale(&mut inner.shards, &mut inner.leases, now);
        let seq = *inner
            .by_id
            .get(shard_id)
            .ok_or_else(|| ShardError::UnknownShard {
                id: shard_id.to_string(),
            })?;
        let st = inner.shards.get_mut(&seq).expect("indexed shard");
        if st.rec.report.is_some() || st.rec.ranges.iter().all(|m| m.done) {
            return Ok(LeaseOffer::Complete);
        }
        let Some(idx) = (0..st.rec.ranges.len())
            .find(|&i| !st.rec.ranges[i].done && st.range_lease[i].is_none())
        else {
            return Ok(LeaseOffer::Wait);
        };
        let lease_id = format!("L{:06}", inner.next_lease);
        inner.next_lease += 1;
        let lease_ms = st.rec.lease_ms;
        inner.leases.insert(
            lease_id.clone(),
            Lease {
                shard_seq: seq,
                range_idx: idx,
                worker: worker.to_string(),
                deadline_ms: now.saturating_add(lease_ms),
                lease_ms,
                released: false,
            },
        );
        st.range_lease[idx] = Some(lease_id.clone());
        SHARD_LEASES_GRANTED.incr();
        Ok(LeaseOffer::Granted(Box::new(LeaseGrant {
            lease_id,
            shard_id: st.rec.id.clone(),
            range: st.rec.ranges[idx].range,
            lease_ms,
            job: st.rec.job.clone(),
        })))
    }

    /// Extends a live lease's deadline by its full duration. Returns the
    /// new remaining budget in milliseconds.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownLease`] for a never-granted id,
    /// [`ShardError::LeaseExpired`] once the deadline passed or the
    /// range was completed by someone else — the worker should abandon
    /// the range and claim a new lease.
    pub fn heartbeat(&self, lease_id: &str) -> Result<u64, ShardError> {
        let now = self.clock.now_ms();
        let mut inner = self.inner.lock().expect("shard board lock");
        let inner = &mut *inner;
        Self::expire_stale(&mut inner.shards, &mut inner.leases, now);
        let lease = inner
            .leases
            .get_mut(lease_id)
            .ok_or_else(|| ShardError::UnknownLease {
                id: lease_id.to_string(),
            })?;
        let done = inner
            .shards
            .get(&lease.shard_seq)
            .is_some_and(|st| st.rec.ranges[lease.range_idx].done);
        if lease.released || done {
            return Err(ShardError::LeaseExpired {
                id: lease_id.to_string(),
            });
        }
        lease.deadline_ms = now.saturating_add(lease.lease_ms);
        SHARD_HEARTBEATS.incr();
        Ok(lease.lease_ms)
    }

    /// Accepts a journal segment uploaded under `lease_id`. Expired and
    /// even long-forgotten leases are honored here — a zombie's work is
    /// still valid work — but only through the idempotence gate: once a
    /// range is done, a byte-identical canonical segment is a
    /// [`SegmentOutcome::Duplicate`] and anything else a
    /// [`ShardError::SegmentConflict`]. Accepting the final open range
    /// triggers the merge.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownLease`], [`ShardError::SegmentRejected`],
    /// [`ShardError::SegmentConflict`], plus store/merge errors.
    pub fn submit_segment(
        &self,
        lease_id: &str,
        text: &str,
        chip: &ExperimentalChip,
    ) -> Result<SegmentOutcome, ShardError> {
        let now = self.clock.now_ms();
        let mut inner = self.inner.lock().expect("shard board lock");
        let inner = &mut *inner;
        Self::expire_stale(&mut inner.shards, &mut inner.leases, now);
        let (seq, idx) = {
            let lease = inner
                .leases
                .get(lease_id)
                .ok_or_else(|| ShardError::UnknownLease {
                    id: lease_id.to_string(),
                })?;
            (lease.shard_seq, lease.range_idx)
        };
        let st = inner.shards.get_mut(&seq).expect("lease points at shard");
        let range = st.rec.ranges[idx].range;
        let spec = st.rec.job.spec();
        let chip_tag = st.rec.job.chip_tag();
        let seg = match validate_segment(&spec, chip_tag.as_deref(), range, text) {
            Ok(seg) => seg,
            Err(defect) => {
                SHARD_SEGMENTS_REJECTED.incr();
                return Err(ShardError::SegmentRejected {
                    shard: st.rec.id.clone(),
                    range,
                    defect,
                });
            }
        };

        if st.rec.ranges[idx].done {
            let accepted = st.rec.ranges[idx].checksum.unwrap_or(0);
            if accepted == seg.checksum {
                SHARD_SEGMENTS_DUPLICATE.incr();
                return Ok(SegmentOutcome::Duplicate);
            }
            SHARD_SEGMENT_CONFLICTS.incr();
            return Err(ShardError::SegmentConflict {
                shard: st.rec.id.clone(),
                range,
                accepted: format!("{accepted:016x}"),
                offered: format!("{:016x}", seg.checksum),
            });
        }

        // Persist the canonical form, not the raw upload: restart
        // re-validation then reproduces the stored checksum exactly.
        self.write_atomic(&self.segment_path(&st.rec.id, idx), seg.text.as_bytes())?;
        self.store_cache(&spec, chip_tag.as_deref(), &seg)?;
        st.rec.ranges[idx].done = true;
        st.rec.ranges[idx].checksum = Some(seg.checksum);
        if let Some(holder) = st.range_lease[idx].take() {
            if let Some(l) = inner.leases.get_mut(&holder) {
                l.released = true;
            }
        }
        if let Some(l) = inner.leases.get_mut(lease_id) {
            l.released = true;
        }
        self.persist(&st.rec)?;
        SHARD_SEGMENTS_ACCEPTED.incr();

        let mut merged = false;
        if st.rec.ranges.iter().all(|m| m.done) {
            self.merge_and_report(st, chip)?;
            merged = true;
        }
        Ok(SegmentOutcome::Accepted { merged })
    }

    /// Retries the merge for any shard whose ranges are all done but
    /// whose report is missing (a crash between final accept and merge).
    /// Returns how many shards were merged. Called once at daemon start.
    ///
    /// # Errors
    ///
    /// The first merge/store error encountered.
    pub fn recover(&self, chip: &ExperimentalChip) -> Result<usize, ShardError> {
        let mut inner = self.inner.lock().expect("shard board lock");
        let mut merged = 0usize;
        for st in inner.shards.values_mut() {
            if st.rec.report.is_none()
                && !st.rec.ranges.is_empty()
                && st.rec.ranges.iter().all(|m| m.done)
            {
                self.merge_and_report(st, chip)?;
                merged += 1;
            }
        }
        Ok(merged)
    }

    /// The merged report document, if the shard has completed.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownShard`].
    pub fn report(&self, shard_id: &str) -> Result<Option<Json>, ShardError> {
        let inner = self.inner.lock().expect("shard board lock");
        let seq = *inner
            .by_id
            .get(shard_id)
            .ok_or_else(|| ShardError::UnknownShard {
                id: shard_id.to_string(),
            })?;
        Ok(inner.shards[&seq].rec.report.clone())
    }

    /// Status view of one shard.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownShard`].
    pub fn view(&self, shard_id: &str) -> Result<ShardView, ShardError> {
        let now = self.clock.now_ms();
        let mut inner = self.inner.lock().expect("shard board lock");
        let inner = &mut *inner;
        Self::expire_stale(&mut inner.shards, &mut inner.leases, now);
        let seq = *inner
            .by_id
            .get(shard_id)
            .ok_or_else(|| ShardError::UnknownShard {
                id: shard_id.to_string(),
            })?;
        Ok(Self::view_of(&inner.shards[&seq], &inner.leases))
    }

    /// Status views of every shard, oldest first.
    pub fn list(&self) -> Vec<ShardView> {
        let now = self.clock.now_ms();
        let mut inner = self.inner.lock().expect("shard board lock");
        let inner = &mut *inner;
        Self::expire_stale(&mut inner.shards, &mut inner.leases, now);
        inner
            .shards
            .values()
            .map(|st| Self::view_of(st, &inner.leases))
            .collect()
    }

    fn view_of(st: &ShardState, leases: &HashMap<String, Lease>) -> ShardView {
        let works = st.rec.job.spec().works().len();
        let ranges = st
            .rec
            .ranges
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let holder = st.range_lease[i].as_ref();
                let state = if m.done {
                    "done"
                } else if holder.is_some() {
                    "leased"
                } else {
                    "open"
                };
                RangeView {
                    range: m.range,
                    state,
                    worker: holder
                        .and_then(|id| leases.get(id))
                        .map(|l| l.worker.clone()),
                }
            })
            .collect();
        ShardView {
            id: st.rec.id.clone(),
            works,
            lease_ms: st.rec.lease_ms,
            ranges,
            merged: st.rec.report.is_some(),
        }
    }

    fn expire_stale(
        shards: &mut BTreeMap<u64, ShardState>,
        leases: &mut HashMap<String, Lease>,
        now: u64,
    ) {
        for (id, lease) in leases.iter_mut() {
            if !lease.released && lease.deadline_ms <= now {
                lease.released = true;
                SHARD_LEASES_EXPIRED.incr();
                if let Some(st) = shards.get_mut(&lease.shard_seq) {
                    if st.range_lease[lease.range_idx].as_deref() == Some(id.as_str()) {
                        st.range_lease[lease.range_idx] = None;
                    }
                }
            }
        }
    }

    /// Splices the accepted segments into the canonical journal, resumes
    /// it through the ordinary sweep engine, and stores the report.
    fn merge_and_report(
        &self,
        st: &mut ShardState,
        chip: &ExperimentalChip,
    ) -> Result<(), ShardError> {
        if st.rec.report.is_some() {
            return Ok(());
        }
        let spec = st.rec.job.spec();
        let chip_tag = st.rec.job.chip_tag();
        let mut texts = Vec::with_capacity(st.rec.ranges.len());
        for (idx, meta) in st.rec.ranges.iter().enumerate() {
            let path = self.segment_path(&st.rec.id, idx);
            let text = fs::read_to_string(&path).map_err(|e| ShardError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
            texts.push((meta.range, text));
        }
        let refs: Vec<(WorkRange, &str)> = texts.iter().map(|(r, t)| (*r, t.as_str())).collect();
        let merged = merge_segments(&spec, chip_tag.as_deref(), &refs)?;
        let journal = self.journal_path(&st.rec.id);
        self.write_atomic(&journal, merged.as_bytes())?;

        // Resume the canonical journal through the ordinary engine:
        // every cell splices, so this only reassembles the report — and
        // it does so byte-identically to an uninterrupted run (pinned by
        // the shard-merge-identity oracle).
        let builder = st.rec.job.sweep(chip).threads(1).resume(&journal);
        let report = builder.run().map_err(|e| ShardError::Report {
            chain: error_chain(&e),
        })?;
        st.rec.report = Some(report.to_json());
        self.persist(&st.rec)?;
        SHARD_MERGES_COMPLETED.incr();
        Ok(())
    }

    /// Looks one workload row up in the content-addressed cell cache.
    /// Entries are validated through the same checksummed-segment path
    /// as an upload; any defect evicts the whole row for recompute.
    fn cached_row(
        &self,
        spec: &SweepSpec,
        chip_tag: Option<&str>,
        w: usize,
    ) -> Option<CanonicalSegment> {
        let range = WorkRange { lo: w, hi: w + 1 };
        let row_fp = range_fingerprint(spec, chip_tag, range);
        let sub = super::subspec(spec, range);
        let header = crate::journal::render_line(&crate::journal::Journal::header_record(
            &sub, row_fp, chip_tag,
        ));
        let mut text = header;
        text.push('\n');
        for &n in &spec.core_counts {
            let path = self.cache_path(row_fp, n);
            match fs::read_to_string(&path) {
                Ok(cell) => text.push_str(&cell),
                Err(_) => return None,
            }
        }
        match validate_segment(spec, chip_tag, range, &text) {
            Ok(seg) => Some(seg),
            Err(_) => {
                for &n in &spec.core_counts {
                    if fs::remove_file(self.cache_path(row_fp, n)).is_ok() {
                        SHARD_CACHE_EVICTIONS.incr();
                    }
                }
                None
            }
        }
    }

    /// Writes every cell of an accepted segment into the cache, keyed by
    /// its row's sub-spec fingerprint plus core count.
    fn store_cache(
        &self,
        spec: &SweepSpec,
        chip_tag: Option<&str>,
        seg: &CanonicalSegment,
    ) -> Result<(), ShardError> {
        for cell in &seg.cells {
            let row = WorkRange {
                lo: cell.work,
                hi: cell.work + 1,
            };
            let row_fp = range_fingerprint(spec, chip_tag, row);
            let content = format!("{}\n{}\n", cell.start_line, cell.outcome_line);
            self.write_atomic(&self.cache_path(row_fp, cell.n), content.as_bytes())?;
        }
        Ok(())
    }

    /// Re-validates the accepted segments of a freshly loaded record;
    /// a missing, torn, or checksum-mismatched segment file demotes its
    /// range back to open.
    fn revalidate_segments(&self, rec: &mut ShardRecord) -> Result<(), ShardError> {
        let spec = rec.job.spec();
        let chip_tag = rec.job.chip_tag();
        let mut demoted = false;
        for (idx, meta) in rec.ranges.iter_mut().enumerate() {
            if !meta.done {
                continue;
            }
            let path = self.segment_path(&rec.id, idx);
            let ok = fs::read_to_string(&path)
                .ok()
                .and_then(|text| {
                    validate_segment(&spec, chip_tag.as_deref(), meta.range, &text).ok()
                })
                .is_some_and(|seg| Some(seg.checksum) == meta.checksum);
            if !ok {
                let _ = fs::remove_file(&path);
                meta.done = false;
                meta.checksum = None;
                rec.report = None;
                demoted = true;
            }
        }
        if demoted {
            self.persist(rec)?;
        }
        Ok(())
    }

    fn persist(&self, rec: &ShardRecord) -> Result<(), ShardError> {
        let doc = record_json(rec);
        let mut text = doc.to_string_pretty();
        text.push('\n');
        self.write_atomic(&self.record_path(&rec.id), text.as_bytes())
    }

    fn record_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.shard.json"))
    }

    fn segment_path(&self, id: &str, idx: usize) -> PathBuf {
        self.dir.join(format!("{id}.r{idx}.segment"))
    }

    /// The merged canonical journal for a completed shard.
    pub fn journal_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.journal"))
    }

    fn cache_path(&self, row_fp: u64, n: usize) -> PathBuf {
        self.dir
            .join("cellcache")
            .join(format!("{row_fp:016x}.{n}.cell"))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), ShardError> {
        crate::journal::write_atomic(path, bytes).map_err(|e| ShardError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }
}

/// Renders a shard record: the job's axes between the shard's identity
/// and its range bookkeeping.
pub(crate) fn record_json(rec: &ShardRecord) -> Json {
    let mut doc = Json::object([
        ("id", Json::from(rec.id.as_str())),
        ("seq", Json::from(rec.seq)),
    ]);
    rec.job.put_grid(&mut doc);
    rec.job.put_chip(&mut doc);
    doc.set("lease_works", rec.lease_works);
    doc.set("lease_ms", rec.lease_ms);
    doc.set(
        "ranges",
        Json::array(&rec.ranges, |m| {
            let mut fields = vec![
                ("lo", Json::from(m.range.lo)),
                ("hi", Json::from(m.range.hi)),
                ("done", Json::from(m.done)),
            ];
            if let Some(sum) = m.checksum {
                fields.push(("checksum", Json::from(format!("{sum:016x}"))));
            }
            Json::object(fields)
        }),
    );
    if let Some(report) = &rec.report {
        doc.set("report", report.clone());
    }
    doc
}

fn record_from_json(doc: &Json, path: &Path) -> Result<ShardRecord, ShardError> {
    let corrupt = |message: String| ShardError::Corrupt {
        path: path.display().to_string(),
        message,
    };
    let mut job = parse_submission(doc).map_err(corrupt)?;
    let id = str_field(doc, "id")
        .ok_or_else(|| corrupt("missing id".to_string()))?
        .to_string();
    job.id = id.clone();
    let seq = num_field(doc, "seq").ok_or_else(|| corrupt("missing seq".to_string()))? as u64;
    let lease_works = num_field(doc, "lease_works")
        .ok_or_else(|| corrupt("missing lease_works".to_string()))? as usize;
    let lease_ms =
        num_field(doc, "lease_ms").ok_or_else(|| corrupt("missing lease_ms".to_string()))? as u64;
    let Some(Json::Arr(items)) = field(doc, "ranges") else {
        return Err(corrupt("missing ranges".to_string()));
    };
    let mut ranges = Vec::with_capacity(items.len());
    for item in items {
        let lo =
            num_field(item, "lo").ok_or_else(|| corrupt("range without lo".to_string()))? as usize;
        let hi =
            num_field(item, "hi").ok_or_else(|| corrupt("range without hi".to_string()))? as usize;
        let done = matches!(field(item, "done"), Some(Json::Bool(true)));
        let checksum = match str_field(item, "checksum") {
            Some(s) => Some(
                u64::from_str_radix(s, 16)
                    .map_err(|_| corrupt(format!("bad range checksum {s:?}")))?,
            ),
            None => None,
        };
        ranges.push(RangeMeta {
            range: WorkRange { lo, hi },
            done,
            checksum,
        });
    }
    let report = field(doc, "report").cloned();
    Ok(ShardRecord {
        id,
        seq,
        job,
        lease_works,
        lease_ms,
        ranges,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_sim::ChipSpec;
    use tlp_tech::Technology;
    use tlp_workloads::{AppId, Scale};

    use crate::journal::TempDir;

    fn temp_dir(tag: &str) -> TempDir {
        TempDir::new(&format!("tlp-shard-board-{tag}")).unwrap()
    }

    fn chip() -> ExperimentalChip {
        ExperimentalChip::from_spec(ChipSpec::ispass05(4), Technology::itrs_65nm())
    }

    fn job(seed: u64) -> JobRecord {
        let mut j = JobRecord::new(vec![AppId::Fft, AppId::Lu], vec![1, 2], Scale::Test, seed);
        j.server_loads = vec![];
        j
    }

    /// Computes the segment a worker would upload for a granted lease.
    fn worker_segment(grant: &LeaseGrant, tag: &str) -> String {
        let path = std::env::temp_dir().join(format!(
            "tlp-shard-board-seg-{tag}-{}-{}.journal",
            std::process::id(),
            grant.lease_id
        ));
        let _ = fs::remove_file(&path);
        chip()
            .sweep()
            .grid(super::super::subspec(&grant.job.spec(), grant.range))
            .threads(1)
            .checkpoint(&path)
            .run()
            .expect("test-scale sweep");
        let text = fs::read_to_string(&path).expect("worker journal");
        let _ = fs::remove_file(&path);
        text
    }

    fn grant(board: &ShardBoard, id: &str, worker: &str) -> LeaseGrant {
        match board.lease(id, worker).expect("lease") {
            LeaseOffer::Granted(g) => *g,
            other => panic!("expected a grant, got {other:?}"),
        }
    }

    #[test]
    fn happy_path_report_matches_a_direct_run() {
        let dir = temp_dir("happy");
        let (clock, _) = Clock::manual(0);
        let board = ShardBoard::open(&dir.0, clock).unwrap();
        let chip = chip();
        let view = board.create(job(0x11), 1, 60_000, &chip).unwrap();
        assert_eq!(view.ranges.len(), 2);

        let g1 = grant(&board, &view.id, "w1");
        let g2 = grant(&board, &view.id, "w2");
        assert_ne!(g1.range, g2.range);
        let s1 = worker_segment(&g1, "happy");
        let out = board.submit_segment(&g1.lease_id, &s1, &chip).unwrap();
        assert_eq!(out, SegmentOutcome::Accepted { merged: false });
        let s2 = worker_segment(&g2, "happy");
        let out = board.submit_segment(&g2.lease_id, &s2, &chip).unwrap();
        assert_eq!(out, SegmentOutcome::Accepted { merged: true });

        let report = board.report(&view.id).unwrap().expect("merged report");
        let direct = chip
            .sweep()
            .grid(job(0x11).spec())
            .threads(1)
            .run()
            .unwrap()
            .to_json();
        assert_eq!(report.to_string_pretty(), direct.to_string_pretty());
    }

    #[test]
    fn expired_leases_are_reassigned_and_zombies_hit_idempotence() {
        let dir = temp_dir("zombie");
        let (clock, hands) = Clock::manual(0);
        let board = ShardBoard::open(&dir.0, clock).unwrap();
        let chip = chip();
        let view = board.create(job(0x22), 2, 10_000, &chip).unwrap();
        assert_eq!(view.ranges.len(), 1);

        let zombie = grant(&board, &view.id, "zombie");
        // Nothing else claimable while the lease is live.
        assert!(matches!(
            board.lease(&view.id, "other").unwrap(),
            LeaseOffer::Wait
        ));
        // The worker dies; its lease expires and the range is
        // reassigned.
        hands.store(10_001, Ordering::SeqCst);
        let healthy = grant(&board, &view.id, "healthy");
        assert_eq!(healthy.range, zombie.range);
        assert!(matches!(
            board.heartbeat(&zombie.lease_id),
            Err(ShardError::LeaseExpired { .. })
        ));
        let text = worker_segment(&healthy, "zombie");
        board
            .submit_segment(&healthy.lease_id, &text, &chip)
            .unwrap();

        // The zombie comes back with the same honest work: duplicate.
        let out = board
            .submit_segment(&zombie.lease_id, &text, &chip)
            .unwrap();
        assert_eq!(out, SegmentOutcome::Duplicate);

        // A zombie with *different* bytes for the range is a typed
        // conflict, never an overwrite.
        let outcome_body = text
            .lines()
            .find(|l| l.contains("\"kind\":\"outcome\""))
            .expect("an outcome line")[17..]
            .to_string();
        let forged = outcome_body.replace("\"attempts\":1", "\"attempts\":9");
        let record = Json::parse(&forged).expect("valid record");
        // Replace (not append) the outcome line, so the forged segment
        // is internally consistent but disagrees with the accepted one.
        let original_line = text
            .lines()
            .find(|l| l.contains("\"kind\":\"outcome\""))
            .unwrap();
        let conflicting = text.replace(original_line, &crate::journal::render_line(&record));
        match board.submit_segment(&zombie.lease_id, &conflicting, &chip) {
            Err(ShardError::SegmentConflict {
                accepted, offered, ..
            }) => {
                assert_ne!(accepted, offered)
            }
            other => panic!("expected SegmentConflict, got {other:?}"),
        }
        assert!(board.report(&view.id).unwrap().is_some());
    }

    #[test]
    fn heartbeats_extend_the_deadline() {
        let dir = temp_dir("beat");
        let (clock, hands) = Clock::manual(0);
        let board = ShardBoard::open(&dir.0, clock).unwrap();
        let chip = chip();
        let view = board.create(job(0x33), 2, 10_000, &chip).unwrap();
        let g = grant(&board, &view.id, "w");
        hands.store(9_000, Ordering::SeqCst);
        assert_eq!(board.heartbeat(&g.lease_id).unwrap(), 10_000);
        // Past the original deadline but within the extension.
        hands.store(15_000, Ordering::SeqCst);
        assert!(board.heartbeat(&g.lease_id).is_ok());
        hands.store(40_000, Ordering::SeqCst);
        assert!(matches!(
            board.heartbeat(&g.lease_id),
            Err(ShardError::LeaseExpired { .. })
        ));
        assert!(matches!(
            board.heartbeat("L999999"),
            Err(ShardError::UnknownLease { .. })
        ));
    }

    #[test]
    fn the_cell_cache_completes_a_repeat_submission_instantly() {
        let dir = temp_dir("cache");
        let (clock, _) = Clock::manual(0);
        let board = ShardBoard::open(&dir.0, clock).unwrap();
        let chip = chip();
        let first = board.create(job(0x44), 2, 60_000, &chip).unwrap();
        let g = grant(&board, &first.id, "w");
        let text = worker_segment(&g, "cache");
        board.submit_segment(&g.lease_id, &text, &chip).unwrap();

        // Same axes again: every row is cached, the shard merges at
        // creation and reports identically.
        let second = board.create(job(0x44), 2, 60_000, &chip).unwrap();
        assert!(second.merged);
        assert!(matches!(
            board.lease(&second.id, "w").unwrap(),
            LeaseOffer::Complete
        ));
        let a = board.report(&first.id).unwrap().unwrap();
        let b = board.report(&second.id).unwrap().unwrap();
        assert_eq!(a.to_string_pretty(), b.to_string_pretty());

        // Corrupt one cache entry: the row recomputes instead of
        // serving bad bytes.
        let cache = dir.0.join("cellcache");
        let victim = fs::read_dir(&cache)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "cell"))
            .expect("a cache entry");
        fs::write(&victim, "xxxx not a journal line\n").unwrap();
        let third = board.create(job(0x44), 2, 60_000, &chip).unwrap();
        assert!(!third.merged);
        assert!(third.ranges.iter().any(|r| r.state == "open"));
    }

    #[test]
    fn restart_keeps_accepted_segments_and_demotes_rotten_ones() {
        let dir = temp_dir("restart");
        let chip = chip();
        let shard_id;
        {
            let (clock, _) = Clock::manual(0);
            let board = ShardBoard::open(&dir.0, clock).unwrap();
            let view = board.create(job(0x55), 1, 60_000, &chip).unwrap();
            shard_id = view.id.clone();
            let g = grant(&board, &view.id, "w");
            let text = worker_segment(&g, "restart");
            board.submit_segment(&g.lease_id, &text, &chip).unwrap();
        }
        // Restart: one range done, one open; leases are gone.
        {
            let (clock, _) = Clock::manual(0);
            let board = ShardBoard::open(&dir.0, clock).unwrap();
            let view = board.view(&shard_id).unwrap();
            let done = view.ranges.iter().filter(|r| r.state == "done").count();
            assert_eq!(done, 1);
            let g = grant(&board, &shard_id, "w2");
            let text = worker_segment(&g, "restart2");
            let out = board.submit_segment(&g.lease_id, &text, &chip).unwrap();
            assert_eq!(out, SegmentOutcome::Accepted { merged: true });
        }
        // Rot the first accepted segment on disk: reopening demotes that
        // range to open and drops the (now unprovable) report.
        let seg0 = dir.0.join(format!("{shard_id}.r0.segment"));
        let mut bytes = fs::read_to_string(&seg0).unwrap();
        bytes.truncate(bytes.len() - 3);
        fs::write(&seg0, bytes).unwrap();
        {
            let (clock, _) = Clock::manual(0);
            let board = ShardBoard::open(&dir.0, clock).unwrap();
            let view = board.view(&shard_id).unwrap();
            assert!(!view.merged);
            assert!(view.ranges.iter().any(|r| r.state == "open"));
            assert!(board.report(&shard_id).unwrap().is_none());
        }
    }
}
