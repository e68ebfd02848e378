//! The one description of a sweep job, and its durable store.
//!
//! A [`JobRecord`] is the only code that knows how a sweep job is
//! written, read and run. It renders the job's axes (apps, server
//! loads, core counts, scale, seed, and the optional core mix and
//! budget) into every document that carries them: the record file, the
//! `/sweeps` status and list documents, a lease grant's `spec` and a
//! shard record. [`parse_submission`] is the one parser that reads
//! those axes back, from a submission body, a lease grant, a shard
//! record or a record file. [`JobRecord::sweep`] is the one launcher:
//! the daemon's job runner, the shard worker, the shard merge and
//! `cmp-tlp sweep` all start from the builder it returns, and
//! [`JobRecord::chip_tag`] is the one derivation of the journal chip
//! tag they fingerprint with.
//!
//! Every sweep submitted to the daemon becomes a [`JobRecord`] persisted
//! by a [`JobStore`]. The store speaks snapshot/commit/abort: readers
//! take a versioned snapshot, writers commit against the version they
//! read, and a concurrent writer surfaces as a typed
//! [`JobStoreError::VersionConflict`] instead of a lost update. The
//! filesystem implementation, [`FsJobStore`], keeps one JSON file per
//! job and replaces it atomically (tmp + fsync + rename), so a `kill -9`
//! at any instant leaves either the old record or the new one on disk —
//! never a torn hybrid. Per-cell sweep progress lives separately in the
//! sweep's cell journal (one `<id>.journal` per job, resolved by
//! [`FsJobStore::journal_path`]); the record holds only coarse job state
//! and, once finished, the final report document.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::chipstate::ExperimentalChip;
use crate::cli_args::DEFAULT_SEED;
use crate::journal::{arr_field, field, num_field, str_field, write_atomic};
use crate::sweep::{SweepBuilder, SweepSpec};
use tlp_analytic::BudgetSpec;
use tlp_sim::ChipSpec;
use tlp_tech::json::{Json, JsonLimits};
use tlp_workloads::{AppId, Scale};

/// Lifecycle state of a submitted sweep job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a job slot.
    Queued,
    /// A worker is executing the sweep.
    Running,
    /// Finished; the record carries the final report.
    Completed,
    /// Finished unsuccessfully; the record carries the error chain.
    Failed,
    /// Stopped mid-run by a drain or crash; resumable from its journal.
    Interrupted,
}

impl JobState {
    /// Wire name (`"queued"`, `"running"`, …).
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Interrupted => "interrupted",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "completed" => JobState::Completed,
            "failed" => JobState::Failed,
            "interrupted" => JobState::Interrupted,
            _ => return None,
        })
    }

    /// Whether the job will never run again (completed or failed).
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Failed)
    }
}

/// Wire name for a workload scale (`"test"` / `"small"` / `"paper"`).
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// Parses a workload scale wire name (case-insensitive).
pub fn scale_from_name(name: &str) -> Option<Scale> {
    Some(match name.to_ascii_lowercase().as_str() {
        "test" => Scale::Test,
        "small" => Scale::Small,
        "paper" => Scale::Paper,
        _ => return None,
    })
}

/// Resolves an application name: case-insensitive, dashes and
/// underscores ignored (`fft`, `water-nsq`, `water_nsq`, `WATERNSQ` all
/// work).
pub fn app_from_name(name: &str) -> Option<AppId> {
    let norm = |s: &str| s.to_ascii_lowercase().replace(['-', '_'], "");
    let wanted = norm(name);
    AppId::ALL.into_iter().find(|a| norm(a.name()) == wanted)
}

/// One sweep job: the submitted grid, its lifecycle state, and (once
/// finished) the outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Stable identifier (`j000001`), derived from `seq`.
    pub id: String,
    /// Monotonic submission number; restart resumes in `seq` order.
    pub seq: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Applications in the grid.
    pub apps: Vec<AppId>,
    /// Offered loads (requests/second) for open-loop server grid rows.
    pub server_loads: Vec<u32>,
    /// Core counts in the grid (must start at 1, ascending).
    pub core_counts: Vec<usize>,
    /// Workload scale.
    pub scale: Scale,
    /// Sweep seed.
    pub seed: u64,
    /// Heterogeneous chip: `(n_big, n_little)` for a
    /// [`tlp_sim::ChipSpec::big_little`] mix. `None` runs the stock
    /// homogeneous 16-core chip (and keeps the record byte-identical to
    /// pre-heterogeneity stores).
    pub core_mix: Option<(usize, usize)>,
    /// Budget axes: `(area_mm2, tdp_watts)` for the dark-silicon fit
    /// reported per completed cell.
    pub budget: Option<(f64, f64)>,
    /// Outer-to-inner error chain for a failed job.
    pub error_chain: Vec<String>,
    /// The final report document (`SweepReport::to_json()`), present
    /// once completed. Stored verbatim so `/sweeps/{id}/report` renders
    /// byte-identically to the CLI's `--json` output.
    pub report: Option<Json>,
}

impl JobRecord {
    /// A freshly submitted record (id and seq are assigned by
    /// [`JobStore::create`]).
    pub fn new(apps: Vec<AppId>, core_counts: Vec<usize>, scale: Scale, seed: u64) -> Self {
        Self {
            id: String::new(),
            seq: 0,
            state: JobState::Queued,
            apps,
            server_loads: Vec::new(),
            core_counts,
            scale,
            seed,
            core_mix: None,
            budget: None,
            error_chain: Vec::new(),
            report: None,
        }
    }

    /// The sweep grid this job runs.
    pub fn spec(&self) -> SweepSpec {
        SweepSpec {
            apps: self.apps.clone(),
            server_loads: self.server_loads.clone(),
            core_counts: self.core_counts.clone(),
            scale: self.scale,
            seed: self.seed,
        }
    }

    /// The sweep this job runs on `chip`: its grid, on its core mix, with
    /// its budget armed. Callers add their own threads, journal,
    /// interrupt and deadline; a shard worker narrows the grid to its
    /// range.
    pub fn sweep<'c>(&self, chip: &'c ExperimentalChip) -> SweepBuilder<'c> {
        let mut builder = chip.sweep().grid(self.spec());
        if let Some((big, little)) = self.core_mix {
            builder = builder.core_mix(big, little);
        }
        if let Some((area_mm2, tdp_watts)) = self.budget {
            builder = builder.budget(BudgetSpec {
                area_mm2,
                tdp_watts,
            });
        }
        builder
    }

    /// The chip tag this job's journal carries: a heterogeneous core mix
    /// carries its [`ChipSpec::chip_tag`]; the stock homogeneous chip,
    /// and a mix that degenerates to one class, carry none. This is the
    /// tag [`JobRecord::sweep`]'s chip writes, so shard fingerprints
    /// match worker journals exactly.
    pub fn chip_tag(&self) -> Option<String> {
        let (big, little) = self.core_mix?;
        ChipSpec::big_little(big, little).chip_tag()
    }

    /// Appends the grid axes (`apps`, `server_loads`, `core_counts`,
    /// `scale`, `seed`) to `doc`, in the dialect [`parse_submission`]
    /// reads.
    pub(crate) fn put_grid(&self, doc: &mut Json) {
        doc.set("apps", Json::array(&self.apps, |a| a.name()));
        doc.set(
            "server_loads",
            Json::array(&self.server_loads, |&rps| rps as u64),
        );
        doc.set("core_counts", Json::array(&self.core_counts, |&n| n));
        doc.set("scale", scale_name(self.scale));
        doc.set("seed", format!("{:#x}", self.seed));
    }

    /// Appends the chip axes (`core_mix`, `budget`) to `doc`, each only
    /// when set, so homogeneous, unbudgeted documents stay byte-identical
    /// to those written before the axes existed.
    pub(crate) fn put_chip(&self, doc: &mut Json) {
        if let Some((big, little)) = self.core_mix {
            doc.set("core_mix", Json::array(&[big, little], |&n| n));
        }
        if let Some((area, tdp)) = self.budget {
            doc.set(
                "budget",
                Json::object([("area_mm2", area), ("tdp_watts", tdp)]),
            );
        }
    }

    /// The job's axes as a submission document: what `POST /sweeps` and
    /// `POST /shards` accept and what a lease grant carries as its
    /// `spec`.
    pub(crate) fn submission(&self) -> Json {
        let mut doc = Json::Obj(Vec::new());
        self.put_grid(&mut doc);
        self.put_chip(&mut doc);
        doc
    }

    /// Serializes the record (including the store's `version` field).
    fn to_json(&self, version: u64) -> Json {
        let mut doc = Json::object([
            ("id", Json::from(self.id.as_str())),
            ("seq", Json::from(self.seq)),
            ("version", Json::from(version)),
            ("state", Json::from(self.state.name())),
        ]);
        self.put_grid(&mut doc);
        doc.set(
            "error_chain",
            Json::array(&self.error_chain, |e| e.as_str()),
        );
        self.put_chip(&mut doc);
        if let Some(report) = &self.report {
            doc.set("report", report.clone());
        }
        doc
    }

    /// Reads a record file: the axes through the submission parser, then
    /// the store's own fields. The message names the first problem.
    fn from_json(doc: &Json) -> Result<(Self, u64), String> {
        let mut record = parse_axes(doc, true)?;
        let bad = |key: &str| format!("record has no valid {key:?}");
        record.id = str_field(doc, "id").ok_or_else(|| bad("id"))?.to_string();
        record.seq = num_field(doc, "seq").ok_or_else(|| bad("seq"))? as u64;
        let version = num_field(doc, "version").ok_or_else(|| bad("version"))? as u64;
        record.state = str_field(doc, "state")
            .and_then(JobState::from_name)
            .ok_or_else(|| bad("state"))?;
        record.error_chain = arr_field(doc, "error_chain")
            .and_then(|items| {
                items
                    .iter()
                    .map(|e| match e {
                        Json::Str(s) => Some(s.clone()),
                        _ => None,
                    })
                    .collect()
            })
            .ok_or_else(|| bad("error_chain"))?;
        record.report = field(doc, "report").cloned();
        Ok((record, version))
    }
}

/// A value paired with the store version it was read at.
#[derive(Debug, Clone, PartialEq)]
pub struct Versioned<T> {
    /// The stored value.
    pub value: T,
    /// Version to pass back to [`JobStore::commit`].
    pub version: u64,
}

/// Why a job-store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStoreError {
    /// Filesystem failure.
    Io {
        /// Path involved.
        path: PathBuf,
        /// Underlying error text.
        message: String,
    },
    /// A record file exists but cannot be parsed.
    Corrupt {
        /// Path involved.
        path: PathBuf,
        /// What was wrong.
        message: String,
    },
    /// A record its own reader would refuse (its axes fail
    /// [`parse_submission`]'s checks); nothing was written.
    Invalid {
        /// The id of the refused record.
        id: String,
        /// What was wrong.
        message: String,
    },
    /// No job with this id.
    Missing {
        /// The id looked up.
        id: String,
    },
    /// The record changed since the caller's snapshot; re-snapshot and
    /// retry (or give up).
    VersionConflict {
        /// The id being committed.
        id: String,
        /// Version the caller read.
        expected: u64,
        /// Version actually on disk.
        found: u64,
    },
}

impl std::fmt::Display for JobStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobStoreError::Io { path, message } => {
                write!(f, "job store I/O error at {}: {message}", path.display())
            }
            JobStoreError::Corrupt { path, message } => {
                write!(f, "corrupt job record {}: {message}", path.display())
            }
            JobStoreError::Invalid { id, message } => {
                write!(f, "invalid job record {id}: {message}")
            }
            JobStoreError::Missing { id } => write!(f, "no job named {id}"),
            JobStoreError::VersionConflict {
                id,
                expected,
                found,
            } => write!(
                f,
                "job {id} changed underneath the commit (expected version {expected}, found {found})"
            ),
        }
    }
}

impl std::error::Error for JobStoreError {}

/// Snapshot/commit/abort access to durable job records.
///
/// The contract: [`JobStore::snapshot`] returns the record plus a
/// version; [`JobStore::commit`] applies a replacement only if the
/// stored version still equals `expected_version`, bumping it by one.
/// Two writers racing on one job cannot both win — the loser gets
/// [`JobStoreError::VersionConflict`] and must re-snapshot. Combined
/// with atomic whole-file replacement in the implementation, this keeps
/// job state consistent across concurrent submitters and hard kills.
pub trait JobStore {
    /// Persists a new record, assigning its `seq` and `id`. Returns the
    /// stored record at version 1.
    fn create(&self, record: JobRecord) -> Result<Versioned<JobRecord>, JobStoreError>;
    /// Reads the current record and its version.
    fn snapshot(&self, id: &str) -> Result<Versioned<JobRecord>, JobStoreError>;
    /// All records, ordered by `seq`.
    fn list(&self) -> Result<Vec<Versioned<JobRecord>>, JobStoreError>;
    /// Replaces the record if its stored version is still
    /// `expected_version`; returns the new snapshot.
    fn commit(
        &self,
        id: &str,
        expected_version: u64,
        next: JobRecord,
    ) -> Result<Versioned<JobRecord>, JobStoreError>;
    /// Deletes the record (and any journal) if its stored version is
    /// still `expected_version`.
    fn abort(&self, id: &str, expected_version: u64) -> Result<(), JobStoreError>;
}

/// Filesystem-backed [`JobStore`]: one `<id>.job.json` per job plus the
/// job's cell journal `<id>.journal`, all in one directory.
pub struct FsJobStore {
    dir: PathBuf,
    // Serializes read-modify-write cycles within this process; cross-
    // process safety comes from the version check plus atomic rename.
    lock: Mutex<()>,
    // Records this store has written or removed, and the signal each
    // one raises; kept apart from `lock` so a waiter never sits behind
    // a write's fsync.
    writes: Mutex<u64>,
    wrote: Condvar,
}

impl FsJobStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// [`JobStoreError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, JobStoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| JobStoreError::Io {
            path: dir.clone(),
            message: e.to_string(),
        })?;
        Ok(Self {
            dir,
            lock: Mutex::new(()),
            writes: Mutex::new(0),
            wrote: Condvar::new(),
        })
    }

    /// How many records this store has written or removed so far.
    pub(crate) fn writes(&self) -> u64 {
        *self.writes.lock().expect("write count poisoned")
    }

    /// Blocks until this store has made more than `seen` writes, or
    /// `timeout` passes, and returns the write count. A long-poll reads
    /// [`FsJobStore::writes`] before its snapshot and waits here, so a
    /// job's state change wakes it at once.
    pub(crate) fn wait_for_write(&self, seen: u64, timeout: Duration) -> u64 {
        let count = self.writes.lock().expect("write count poisoned");
        let (count, _) = self
            .wrote
            .wait_timeout_while(count, timeout, |n| *n == seen)
            .expect("write count poisoned");
        *count
    }

    fn wrote(&self) {
        *self.writes.lock().expect("write count poisoned") += 1;
        self.wrote.notify_all();
    }

    /// The record file for `id`.
    pub fn record_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.job.json"))
    }

    /// The cell-journal file for `id` (managed by the sweep engine, not
    /// the store).
    pub fn journal_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.journal"))
    }

    fn io_err(&self, path: &Path, e: std::io::Error) -> JobStoreError {
        JobStoreError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        }
    }

    fn read_record(&self, path: &Path) -> Result<Versioned<JobRecord>, JobStoreError> {
        let text = fs::read_to_string(path).map_err(|e| self.io_err(path, e))?;
        let doc = Json::parse_with_limits(&text, JsonLimits::TRUSTED).map_err(|e| {
            JobStoreError::Corrupt {
                path: path.to_path_buf(),
                message: e.to_string(),
            }
        })?;
        let (value, version) =
            JobRecord::from_json(&doc).map_err(|message| JobStoreError::Corrupt {
                path: path.to_path_buf(),
                message,
            })?;
        Ok(Versioned { value, version })
    }

    /// Writes `record` at `version` via tmp + fsync + rename, so a crash
    /// leaves either the previous file or the new one — never a torn
    /// hybrid. A record whose axes `read_record` would refuse is
    /// refused here instead, and nothing is written: one such file would
    /// stop every later [`JobStore::list`].
    fn write_record(&self, record: &JobRecord, version: u64) -> Result<(), JobStoreError> {
        let doc = record.to_json(version);
        parse_axes(&doc, true).map_err(|message| JobStoreError::Invalid {
            id: record.id.clone(),
            message,
        })?;
        let path = self.record_path(&record.id);
        let mut payload = doc.to_string_pretty();
        payload.push('\n');
        write_atomic(&path, payload.as_bytes()).map_err(|e| self.io_err(&path, e))
    }

    /// The highest sequence number in the store (0 when empty), read from
    /// the `j{seq:06}.job.json` names [`JobStore::create`] gives every
    /// record, so no record is opened.
    fn last_seq(&self) -> Result<u64, JobStoreError> {
        let entries = fs::read_dir(&self.dir).map_err(|e| self.io_err(&self.dir, e))?;
        let mut last = 0;
        for entry in entries {
            let entry = entry.map_err(|e| self.io_err(&self.dir, e))?;
            let seq = entry
                .file_name()
                .to_str()
                .and_then(|name| name.strip_suffix(".job.json"))
                .and_then(|id| id.strip_prefix('j'))
                .and_then(|digits| digits.parse::<u64>().ok());
            last = last.max(seq.unwrap_or(0));
        }
        Ok(last)
    }

    fn scan(&self) -> Result<BTreeMap<u64, Versioned<JobRecord>>, JobStoreError> {
        let mut jobs = BTreeMap::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| self.io_err(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| self.io_err(&self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.ends_with(".job.json") {
                continue;
            }
            let record = self.read_record(&entry.path())?;
            jobs.insert(record.value.seq, record);
        }
        Ok(jobs)
    }
}

impl JobStore for FsJobStore {
    fn create(&self, mut record: JobRecord) -> Result<Versioned<JobRecord>, JobStoreError> {
        let _guard = self.lock.lock().expect("job store lock poisoned");
        let next_seq = self.last_seq()? + 1;
        record.seq = next_seq;
        record.id = format!("j{next_seq:06}");
        self.write_record(&record, 1)?;
        self.wrote();
        Ok(Versioned {
            value: record,
            version: 1,
        })
    }

    fn snapshot(&self, id: &str) -> Result<Versioned<JobRecord>, JobStoreError> {
        let path = self.record_path(id);
        if !path.exists() {
            return Err(JobStoreError::Missing { id: id.to_string() });
        }
        self.read_record(&path)
    }

    fn list(&self) -> Result<Vec<Versioned<JobRecord>>, JobStoreError> {
        let _guard = self.lock.lock().expect("job store lock poisoned");
        Ok(self.scan()?.into_values().collect())
    }

    fn commit(
        &self,
        id: &str,
        expected_version: u64,
        next: JobRecord,
    ) -> Result<Versioned<JobRecord>, JobStoreError> {
        let _guard = self.lock.lock().expect("job store lock poisoned");
        let current = self.snapshot(id)?;
        if current.version != expected_version {
            return Err(JobStoreError::VersionConflict {
                id: id.to_string(),
                expected: expected_version,
                found: current.version,
            });
        }
        let version = expected_version + 1;
        self.write_record(&next, version)?;
        self.wrote();
        Ok(Versioned {
            value: next,
            version,
        })
    }

    fn abort(&self, id: &str, expected_version: u64) -> Result<(), JobStoreError> {
        let _guard = self.lock.lock().expect("job store lock poisoned");
        let current = self.snapshot(id)?;
        if current.version != expected_version {
            return Err(JobStoreError::VersionConflict {
                id: id.to_string(),
                expected: expected_version,
                found: current.version,
            });
        }
        let path = self.record_path(id);
        fs::remove_file(&path).map_err(|e| self.io_err(&path, e))?;
        self.wrote();
        let journal = self.journal_path(id);
        if journal.exists() {
            fs::remove_file(&journal).map_err(|e| self.io_err(&journal, e))?;
        }
        Ok(())
    }
}

/// Parses a sweep submission body into a validated [`JobRecord`]. The
/// one reader of the sweep axes: it also reads them back from every
/// document [`JobRecord`] renders them into (keys it does not know are
/// ignored).
///
/// Accepted shape (at least one of `apps` / `server_loads` must be
/// non-empty):
///
/// ```json
/// {"apps": ["fft", "lu"], "server_loads": [2000000],
///  "core_counts": [1, 2, 4, 8, 16],
///  "scale": "small", "seed": "0x15952005",
///  "core_mix": [4, 12],
///  "budget": {"area_mm2": 111.0, "tdp_watts": 125.0}}
/// ```
///
/// `core_mix` (optional) runs the job on a big.LITTLE
/// [`tlp_sim::ChipSpec`] instead of the stock homogeneous chip;
/// `budget` (optional) adds the dark-silicon fit to every completed
/// cell of the report.
///
/// # Errors
///
/// A human-readable message describing the first problem found.
pub fn parse_submission(doc: &Json) -> Result<JobRecord, String> {
    parse_axes(doc, false)
}

/// [`parse_submission`]'s parser. A record file may hold an empty grid
/// (`allow_empty_grid`), because [`JobRecord::new`] can build one and
/// the store keeps what it is given; a submission may not.
fn parse_axes(doc: &Json, allow_empty_grid: bool) -> Result<JobRecord, String> {
    if !matches!(doc, Json::Obj(_)) {
        return Err("submission must be a JSON object".to_string());
    }
    let mut apps = Vec::new();
    if let Some(apps_json) = arr_field(doc, "apps") {
        apps.reserve(apps_json.len());
        for a in apps_json {
            let Json::Str(name) = a else {
                return Err("\"apps\" entries must be strings".to_string());
            };
            apps.push(app_from_name(name).ok_or_else(|| format!("unknown application {name:?}"))?);
        }
    } else if field(doc, "apps").is_some() {
        return Err("\"apps\" must be an array".to_string());
    }

    let server_loads = match field(doc, "server_loads") {
        None => Vec::new(),
        Some(Json::Arr(items)) => {
            let mut loads = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Json::Num(x) if *x >= 1.0 && x.fract() == 0.0 && *x <= 4.0e9 => {
                        loads.push(*x as u32);
                    }
                    _ => {
                        return Err(
                            "\"server_loads\" must be integer requests/second in 1..=4e9"
                                .to_string(),
                        )
                    }
                }
            }
            loads
        }
        Some(_) => return Err("\"server_loads\" must be an array".to_string()),
    };
    if !allow_empty_grid && apps.is_empty() && server_loads.is_empty() {
        return Err("submission needs a non-empty \"apps\" or \"server_loads\" array".to_string());
    }

    let core_counts = match field(doc, "core_counts") {
        None => vec![1, 2, 4, 8, 16],
        Some(Json::Arr(items)) => {
            let mut counts = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Json::Num(x) if *x >= 1.0 && x.fract() == 0.0 && *x <= 1024.0 => {
                        counts.push(*x as usize);
                    }
                    _ => return Err("\"core_counts\" must be integers in 1..=1024".to_string()),
                }
            }
            counts
        }
        Some(_) => return Err("\"core_counts\" must be an array".to_string()),
    };
    // The sweep engine asserts these invariants; validate them here so a
    // bad submission is a 4xx, not a daemon panic.
    if core_counts.first() != Some(&1) {
        return Err("\"core_counts\" must start at 1 (speedups are relative to n=1)".to_string());
    }
    if !core_counts.windows(2).all(|w| w[0] < w[1]) {
        return Err("\"core_counts\" must be strictly increasing".to_string());
    }

    let scale = match field(doc, "scale") {
        None => Scale::Small,
        Some(Json::Str(name)) => {
            scale_from_name(name).ok_or_else(|| format!("unknown scale {name:?}"))?
        }
        Some(_) => return Err("\"scale\" must be a string".to_string()),
    };

    let seed = match field(doc, "seed") {
        None => DEFAULT_SEED,
        Some(Json::Num(x)) if *x >= 0.0 && x.fract() == 0.0 && *x < 9.0e15 => *x as u64,
        Some(Json::Str(s)) => crate::cli_args::parse_u64_flag("seed", Some(s))?,
        Some(_) => return Err("\"seed\" must be an integer or a hex string".to_string()),
    };

    let core_mix = match field(doc, "core_mix") {
        None => None,
        Some(Json::Arr(items)) => match items[..] {
            [Json::Num(b), Json::Num(l)]
                if b >= 0.0
                    && l >= 0.0
                    && b.fract() == 0.0
                    && l.fract() == 0.0
                    && b + l >= 1.0
                    && b + l <= 1024.0 =>
            {
                Some((b as usize, l as usize))
            }
            _ => {
                return Err(
                    "\"core_mix\" must be [n_big, n_little] with 1..=1024 cores total".to_string(),
                )
            }
        },
        Some(_) => return Err("\"core_mix\" must be a two-element array".to_string()),
    };
    if let Some((big, little)) = core_mix {
        if let Some(&max) = core_counts.last() {
            if max > big + little {
                return Err(format!(
                    "\"core_counts\" reach {max} but the core mix only has {} core(s)",
                    big + little
                ));
            }
        }
    }

    let budget = match field(doc, "budget") {
        None => None,
        Some(b @ Json::Obj(_)) => {
            let area = num_field(b, "area_mm2")
                .ok_or_else(|| "\"budget\" needs a numeric \"area_mm2\"".to_string())?;
            let tdp = num_field(b, "tdp_watts")
                .ok_or_else(|| "\"budget\" needs a numeric \"tdp_watts\"".to_string())?;
            if !(area.is_finite() && area > 0.0 && tdp.is_finite() && tdp > 0.0) {
                return Err("\"budget\" axes must be positive and finite".to_string());
            }
            Some((area, tdp))
        }
        Some(_) => {
            return Err("\"budget\" must be an object with area_mm2 and tdp_watts".to_string())
        }
    };

    let mut record = JobRecord::new(apps, core_counts, scale, seed);
    record.server_loads = server_loads;
    record.core_mix = core_mix;
    record.budget = budget;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::TempDir;

    fn temp_dir(tag: &str) -> TempDir {
        TempDir::new(&format!("tlp-jobstore-{tag}")).unwrap()
    }

    fn record() -> JobRecord {
        JobRecord::new(vec![AppId::Fft], vec![1, 2], Scale::Test, 7)
    }

    #[test]
    fn create_assigns_sequential_ids() {
        let dir = temp_dir("seq");
        let store = FsJobStore::open(&dir.0).unwrap();
        let a = store.create(record()).unwrap();
        let b = store.create(record()).unwrap();
        assert_eq!(a.value.id, "j000001");
        assert_eq!(b.value.id, "j000002");
        assert_eq!(b.value.seq, 2);
        assert_eq!(a.version, 1);
    }

    #[test]
    fn create_reads_the_next_id_from_file_names_not_records() {
        let dir = temp_dir("corrupt-create");
        let store = FsJobStore::open(&dir.0).unwrap();
        store.create(record()).unwrap();
        fs::write(dir.0.join("j000005.job.json"), "{ not a record").unwrap();
        let created = store.create(record()).unwrap();
        assert_eq!(created.value.id, "j000006");
        assert_eq!(created.value.seq, 6);
        // `list` still parses every record, so it reports the corrupt one.
        assert!(matches!(
            store.list().unwrap_err(),
            JobStoreError::Corrupt { .. }
        ));
    }

    #[test]
    fn records_the_reader_would_refuse_are_never_written() {
        let dir = temp_dir("invalid");
        let store = FsJobStore::open(&dir.0).unwrap();
        let bad = || JobRecord::new(vec![AppId::Fft], vec![2, 4], Scale::Test, 7);
        let err = store.create(bad()).unwrap_err();
        assert!(
            matches!(&err, JobStoreError::Invalid { message, .. } if message.contains("start at 1")),
            "{err}"
        );
        assert!(store.list().unwrap().is_empty());

        let created = store.create(record()).unwrap();
        let id = created.value.id.clone();
        let mut next = bad();
        next.id = id.clone();
        next.seq = created.value.seq;
        assert!(matches!(
            store.commit(&id, created.version, next),
            Err(JobStoreError::Invalid { .. })
        ));
        assert_eq!(store.snapshot(&id).unwrap(), created);
        assert_eq!(store.list().unwrap(), [created]);
    }

    #[test]
    fn leftover_tmp_files_are_not_records() {
        // A crash between write and rename leaves `{name}.tmp{pid}` beside
        // the records: neither the next id nor the listing may read it.
        let dir = temp_dir("leftover-tmp");
        let store = FsJobStore::open(&dir.0).unwrap();
        store.create(record()).unwrap();
        fs::write(dir.0.join("j000009.job.json.tmp4242"), "{ torn").unwrap();
        assert_eq!(store.create(record()).unwrap().value.id, "j000002");
        assert_eq!(store.list().unwrap().len(), 2);
        // Completed writes leave no tmp file of their own behind.
        let names: Vec<String> = fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp"))
            .collect();
        assert_eq!(names, ["j000009.job.json.tmp4242"]);
    }

    #[test]
    fn records_round_trip_through_disk() {
        let dir = temp_dir("roundtrip");
        let store = FsJobStore::open(&dir.0).unwrap();
        let mut r = record();
        r.error_chain = vec!["outer".into(), "inner".into()];
        r.report = Some(Json::object([("cells_total", 2u64)]));
        let created = store.create(r).unwrap();
        let read = store.snapshot(&created.value.id).unwrap();
        assert_eq!(read, created);
    }

    #[test]
    fn commit_bumps_version_and_detects_conflicts() {
        let dir = temp_dir("conflict");
        let store = FsJobStore::open(&dir.0).unwrap();
        let created = store.create(record()).unwrap();
        let id = created.value.id.clone();

        let mut next = created.value.clone();
        next.state = JobState::Running;
        let committed = store.commit(&id, created.version, next.clone()).unwrap();
        assert_eq!(committed.version, 2);
        assert_eq!(store.snapshot(&id).unwrap().value.state, JobState::Running);

        // A second writer holding the stale version must lose.
        let err = store.commit(&id, created.version, next).unwrap_err();
        assert_eq!(
            err,
            JobStoreError::VersionConflict {
                id: id.clone(),
                expected: 1,
                found: 2
            }
        );
    }

    #[test]
    fn every_write_wakes_a_waiter_and_silence_times_it_out() {
        let dir = temp_dir("writes");
        let store = FsJobStore::open(&dir.0).unwrap();
        let seen = store.writes();
        assert_eq!(
            store.wait_for_write(seen, Duration::from_millis(20)),
            seen,
            "nothing was written, so the wait runs out"
        );
        let created = store.create(record()).unwrap();
        assert_eq!(
            store.wait_for_write(seen, Duration::from_secs(60)),
            seen + 1,
            "a write made before the wait ends it at once"
        );
        // A commit on another thread wakes the waiter long before its
        // timeout (or lands first, which ends the wait at once too).
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let t0 = std::time::Instant::now();
                let count = store.wait_for_write(seen + 1, Duration::from_secs(60));
                (count, t0.elapsed())
            });
            std::thread::sleep(Duration::from_millis(20));
            let mut next = created.value.clone();
            next.state = JobState::Running;
            store
                .commit(&created.value.id, created.version, next)
                .unwrap();
            let (count, waited) = waiter.join().unwrap();
            assert_eq!(count, seen + 2);
            assert!(waited < Duration::from_secs(30), "waited {waited:?}");
        });
        // A refused commit writes nothing; an abort removes a record.
        assert!(store
            .commit(&created.value.id, created.version, record())
            .is_err());
        assert_eq!(store.writes(), seen + 2);
        store.abort(&created.value.id, created.version + 1).unwrap();
        assert_eq!(store.writes(), seen + 3);
    }

    #[test]
    fn abort_removes_the_record() {
        let dir = temp_dir("abort");
        let store = FsJobStore::open(&dir.0).unwrap();
        let created = store.create(record()).unwrap();
        let id = created.value.id.clone();
        assert_eq!(
            store.abort(&id, 99).unwrap_err(),
            JobStoreError::VersionConflict {
                id: id.clone(),
                expected: 99,
                found: 1
            }
        );
        store.abort(&id, created.version).unwrap();
        assert_eq!(
            store.snapshot(&id).unwrap_err(),
            JobStoreError::Missing { id }
        );
    }

    #[test]
    fn list_orders_by_seq_and_survives_restart() {
        let dir = temp_dir("restart");
        {
            let store = FsJobStore::open(&dir.0).unwrap();
            store.create(record()).unwrap();
            store.create(record()).unwrap();
        }
        // A fresh store over the same directory sees both jobs and
        // continues the sequence.
        let store = FsJobStore::open(&dir.0).unwrap();
        let jobs = store.list().unwrap();
        assert_eq!(
            jobs.iter().map(|j| j.value.seq).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(store.create(record()).unwrap().value.id, "j000003");
    }

    #[test]
    fn submissions_parse_with_defaults() {
        let doc = Json::parse("{\"apps\": [\"fft\", \"water-nsq\", \"water_nsq\"]}").unwrap();
        let r = parse_submission(&doc).unwrap();
        assert_eq!(r.apps, vec![AppId::Fft, AppId::WaterNsq, AppId::WaterNsq]);
        assert_eq!(r.core_counts, vec![1, 2, 4, 8, 16]);
        assert_eq!(r.scale, Scale::Small);
        assert_eq!(r.seed, DEFAULT_SEED);
    }

    #[test]
    fn server_only_submissions_parse_and_roundtrip() {
        let doc =
            Json::parse("{\"server_loads\": [2000000, 8000000], \"core_counts\": [1, 2]}").unwrap();
        let r = parse_submission(&doc).unwrap();
        assert!(r.apps.is_empty());
        assert_eq!(r.server_loads, vec![2_000_000, 8_000_000]);
        assert_eq!(r.spec().works().len(), 2);

        // The loads survive the disk roundtrip.
        let dir = temp_dir("server-loads");
        let store = FsJobStore::open(&dir.0).unwrap();
        let created = store.create(r).unwrap();
        let read = store.snapshot(&created.value.id).unwrap();
        assert_eq!(read.value.server_loads, vec![2_000_000, 8_000_000]);

        // Pre-server records (no "server_loads" key) still parse.
        let old = Json::parse(
            "{\"id\": \"j000009\", \"seq\": 9, \"version\": 1, \"state\": \"queued\", \
             \"apps\": [\"fft\"], \"core_counts\": [1], \"scale\": \"test\", \
             \"seed\": \"0x7\", \"error_chain\": []}",
        )
        .unwrap();
        let (rec, _) = JobRecord::from_json(&old).unwrap();
        assert!(rec.server_loads.is_empty());
    }

    #[test]
    fn hetero_axes_parse_persist_and_stay_optional() {
        let doc = Json::parse(
            "{\"apps\": [\"fft\"], \"core_counts\": [1, 2], \"core_mix\": [1, 2], \
             \"budget\": {\"area_mm2\": 111.0, \"tdp_watts\": 125.0}}",
        )
        .unwrap();
        let r = parse_submission(&doc).unwrap();
        assert_eq!(r.core_mix, Some((1, 2)));
        assert_eq!(r.budget, Some((111.0, 125.0)));

        // Round-trip through disk.
        let dir = temp_dir("hetero-axes");
        let store = FsJobStore::open(&dir.0).unwrap();
        let created = store.create(r).unwrap();
        let read = store.snapshot(&created.value.id).unwrap();
        assert_eq!(read.value.core_mix, Some((1, 2)));
        assert_eq!(read.value.budget, Some((111.0, 125.0)));

        // Homogeneous records carry neither key on disk.
        let plain = store.create(record()).unwrap();
        let text = fs::read_to_string(store.record_path(&plain.value.id)).unwrap();
        assert!(!text.contains("core_mix") && !text.contains("budget"));
        assert_eq!(
            store.snapshot(&plain.value.id).unwrap().value.core_mix,
            None
        );
    }

    /// A heterogeneous, budgeted job with a server row: every axis set.
    fn full_job() -> JobRecord {
        let mut job = JobRecord::new(
            vec![AppId::WaterNsq, AppId::Fft],
            vec![1, 2, 4, 8, 16],
            Scale::Small,
            DEFAULT_SEED,
        );
        job.server_loads = vec![2_000_000];
        job.core_mix = Some((4, 12));
        job.budget = Some((111.0, 125.0));
        job
    }

    /// The record file, the `GET /sweeps/{id}` document, the lease
    /// grant's `spec` and the shard record of one job, pinned to the
    /// bytes they had when four separate functions rendered them.
    #[test]
    fn every_document_keeps_its_pinned_bytes() {
        let dir = temp_dir("pins");
        let store = FsJobStore::open(&dir.0).unwrap();
        let created = store.create(full_job()).unwrap();
        let file = fs::read_to_string(store.record_path(&created.value.id)).unwrap();
        assert_eq!(
            file,
            r#"{
  "id": "j000001",
  "seq": 1,
  "version": 1,
  "state": "queued",
  "apps": [
    "Water-Nsq",
    "FFT"
  ],
  "server_loads": [
    2000000
  ],
  "core_counts": [
    1,
    2,
    4,
    8,
    16
  ],
  "scale": "small",
  "seed": "0x15952005",
  "error_chain": [],
  "core_mix": [
    4,
    12
  ],
  "budget": {
    "area_mm2": 111,
    "tdp_watts": 125
  }
}
"#
        );
        let axes = r#""apps":["Water-Nsq","FFT"],"server_loads":[2000000],"core_counts":[1,2,4,8,16],"scale":"small","seed":"0x15952005""#;
        let chip = r#""core_mix":[4,12],"budget":{"area_mm2":111,"tdp_watts":125}"#;
        assert_eq!(
            super::super::handlers::job_summary(&created.value).to_string_compact(),
            format!(
                r#"{{"id":"j000001","state":"queued",{axes},"cells_total":15,"url":"/sweeps/j000001",{chip}}}"#
            )
        );
        assert_eq!(
            created.value.submission().to_string_compact(),
            format!("{{{axes},{chip}}}")
        );
        let shard = crate::shard::board::ShardRecord {
            id: "s000001".to_string(),
            seq: 1,
            job: created.value.clone(),
            lease_works: 1,
            lease_ms: 60_000,
            ranges: vec![
                crate::shard::RangeMeta {
                    range: crate::shard::WorkRange { lo: 0, hi: 1 },
                    done: true,
                    checksum: Some(0x0123_4567_89ab_cdef),
                },
                crate::shard::RangeMeta {
                    range: crate::shard::WorkRange { lo: 1, hi: 3 },
                    done: false,
                    checksum: None,
                },
            ],
            report: None,
        };
        assert_eq!(
            crate::shard::board::record_json(&shard).to_string_compact(),
            format!(
                r#"{{"id":"s000001","seq":1,{axes},{chip},"lease_works":1,"lease_ms":60000,"ranges":[{{"lo":0,"hi":1,"done":true,"checksum":"0123456789abcdef"}},{{"lo":1,"hi":3,"done":false}}]}}"#
            )
        );

        // Every document reads back to the same axes, and a record file
        // to the same record.
        for doc in [
            super::super::handlers::job_summary(&created.value),
            created.value.submission(),
            crate::shard::board::record_json(&shard),
        ] {
            assert_eq!(parse_submission(&doc), Ok(full_job()));
        }
        let mut record = created.value;
        record.state = JobState::Failed;
        record.error_chain = vec!["outer".into(), "inner".into()];
        record.report = Some(Json::object([("cells_total", 15u64)]));
        assert_eq!(JobRecord::from_json(&record.to_json(4)), Ok((record, 4)));
    }

    #[test]
    fn a_record_the_parser_refuses_is_corrupt_with_its_message() {
        let dir = temp_dir("refused");
        let store = FsJobStore::open(&dir.0).unwrap();
        let created = store.create(record()).unwrap();
        let path = store.record_path(&created.value.id);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("\"FFT\"", "\"nope\"")).unwrap();
        match store.snapshot(&created.value.id) {
            Err(JobStoreError::Corrupt { message, .. }) => {
                assert_eq!(message, "unknown application \"nope\"");
            }
            other => panic!("expected a corrupt record, got {other:?}"),
        }
        // A grid with no rows is no submission, but a record holding one
        // still loads and aborts.
        let empty = store
            .create(JobRecord::new(vec![], vec![1, 2], Scale::Test, 7))
            .unwrap();
        let read = store.snapshot(&empty.value.id).unwrap();
        assert_eq!(read, empty);
        store.abort(&empty.value.id, empty.version).unwrap();
    }

    #[test]
    fn bad_submissions_are_typed_errors_not_panics() {
        for (body, needle) in [
            ("[]", "object"),
            ("{}", "apps"),
            ("{\"apps\": []}", "non-empty"),
            ("{\"apps\": [\"nope\"]}", "unknown application"),
            ("{\"server_loads\": [0]}", "server_loads"),
            (
                "{\"apps\": [\"fft\"], \"server_loads\": \"fast\"}",
                "must be an array",
            ),
            (
                "{\"apps\": [\"fft\"], \"core_counts\": [2, 4]}",
                "start at 1",
            ),
            (
                "{\"apps\": [\"fft\"], \"core_counts\": [1, 4, 2]}",
                "increasing",
            ),
            (
                "{\"apps\": [\"fft\"], \"scale\": \"huge\"}",
                "unknown scale",
            ),
            ("{\"apps\": [\"fft\"], \"seed\": \"zzz\"}", "seed"),
            ("{\"apps\": [\"fft\"], \"core_mix\": [1]}", "core_mix"),
            ("{\"apps\": [\"fft\"], \"core_mix\": [0, 0]}", "core_mix"),
            (
                "{\"apps\": [\"fft\"], \"core_counts\": [1, 2, 4], \"core_mix\": [1, 1]}",
                "core mix only has",
            ),
            (
                "{\"apps\": [\"fft\"], \"budget\": {\"area_mm2\": 111.0}}",
                "tdp_watts",
            ),
            (
                "{\"apps\": [\"fft\"], \"budget\": {\"area_mm2\": -1.0, \"tdp_watts\": 5.0}}",
                "positive",
            ),
            ("{\"apps\": [\"fft\"], \"budget\": [1, 2]}", "budget"),
        ] {
            let doc = Json::parse(body).unwrap();
            let err = parse_submission(&doc).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }
}
