//! Durable cell journal: crash-safe checkpoint/resume for sweeps.
//!
//! A long sweep that dies at cell 900/1000 — OOM kill, SIGINT, power
//! loss — must not restart from zero or silently drop cells. The journal
//! is the sweep engine's durability substrate: an append-only,
//! checksummed, line-oriented JSON file recording every cell the sweep
//! has *started* and every [`CellOutcome`](crate::sweep::CellOutcome) it
//! has produced. A resumed sweep replays the journal, splices completed
//! outcomes back into the request-order reduction without recomputing
//! them, re-runs everything else (deterministically, so the final report
//! is byte-identical to an uninterrupted run), and quarantines cells
//! that keep crashing or hanging across runs.
//!
//! # File format
//!
//! One record per line:
//!
//! ```text
//! <16 hex digits: FNV-1a-64 of the record text> <record: compact JSON>
//! ```
//!
//! The first record is a header carrying a fingerprint of the sweep
//! configuration (grid, seed, fault plan, retry policy); a journal is
//! only ever resumed against the exact configuration that wrote it.
//! Subsequent records are either `start` (a cell began executing) or
//! `outcome` (it finished, completed or failed). All floats are written
//! with shortest-roundtrip formatting, so a spliced row is bit-identical
//! to the one that was measured.
//!
//! # Crash safety
//!
//! Every append rewrites the whole journal to a temporary file in the
//! same directory, syncs it, and renames it into place — the journal on
//! disk is always either the old complete version or the new complete
//! version. A crash *between* those states (or a corrupted disk) can
//! still leave a torn tail; the loader verifies each line's checksum and
//! drops everything from the first bad line on, reporting the discarded
//! byte count in [`RecoveryReport`] instead of failing. A `start` with
//! no matching `outcome` marks a cell that was mid-flight when the
//! previous run died — a *strike* against that cell; enough strikes
//! (see [`RetryPolicy::quarantine_after`]) and the cell is quarantined
//! rather than allowed to take the run down again.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

use tlp_tech::json::Json;
use tlp_tech::units::{Hertz, Volts};
use tlp_tech::OperatingPoint;

use crate::scenario1::{RequestSummary, Scenario1Row};
use crate::sweep::{FaultPlan, RetryPolicy, SweepSpec};

/// Journal format version; bumped on incompatible record changes.
const VERSION: u64 = 1;

/// How a sweep attaches to a journal file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalMode {
    /// Create the journal if it does not exist; resume it if it does.
    Checkpoint,
    /// The journal must already exist (strict resume).
    Resume,
}

/// Failure of the durability layer itself.
///
/// Like the rest of the error hierarchy this is `Clone + PartialEq`
/// with I/O causes rendered into strings (the [`TraceError`] pattern).
///
/// [`TraceError`]: crate::error::TraceError
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The journal file could not be read, written, or renamed.
    Io {
        /// Journal path.
        path: String,
        /// Rendered OS-level error.
        message: String,
    },
    /// `.resume(path)` was requested but no journal exists there.
    Missing {
        /// Journal path.
        path: String,
    },
    /// The journal's header is unreadable — the file cannot be trusted
    /// at all (tail corruption is tolerated and reported, header
    /// corruption is not).
    Corrupt {
        /// Journal path.
        path: String,
        /// What was wrong with the header.
        message: String,
    },
    /// The journal was written by a different sweep configuration
    /// (grid, seed, fault plan, or retry policy differ); splicing its
    /// outcomes would silently poison the resumed report.
    SpecMismatch {
        /// Journal path.
        path: String,
        /// Fingerprint of the sweep requesting the resume.
        expected: String,
        /// Fingerprint recorded in the journal header.
        found: String,
    },
    /// A record about to be journaled contains a non-finite float,
    /// which would degrade to `null` on disk and corrupt the splice.
    NonFinite {
        /// Journal path.
        path: String,
        /// JSONPath of the poisoned value inside the record.
        location: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, message } => {
                write!(f, "cannot access journal {path}: {message}")
            }
            JournalError::Missing { path } => {
                write!(f, "no journal to resume at {path}")
            }
            JournalError::Corrupt { path, message } => {
                write!(f, "journal {path} has an unreadable header: {message}")
            }
            JournalError::SpecMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "journal {path} was written by a different sweep \
                 (its fingerprint {found} vs this sweep's {expected}); \
                 refusing to splice its outcomes"
            ),
            JournalError::NonFinite { path, location } => write!(
                f,
                "refusing to journal a non-finite value at {location} to {path}"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// What loading an existing journal found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Whether the journal was created fresh by this open.
    pub created: bool,
    /// Valid records recovered (excluding the header).
    pub records_recovered: usize,
    /// Bytes discarded from the torn or corrupt tail (0 for a clean
    /// journal). Non-zero is worth a warning, never a crash: the
    /// discarded cells simply re-run.
    pub torn_tail_bytes: usize,
}

impl RecoveryReport {
    /// One-line human summary for stderr.
    pub fn summary(&self, path: &Path) -> String {
        if self.created {
            format!("journal: created {}", path.display())
        } else if self.torn_tail_bytes > 0 {
            format!(
                "journal: recovered {} record(s) from {}; \
                 WARNING: dropped {} byte(s) of torn/corrupt tail \
                 (checksum mismatch; affected cells will re-run)",
                self.records_recovered,
                path.display(),
                self.torn_tail_bytes
            )
        } else {
            format!(
                "journal: recovered {} record(s) from {}",
                self.records_recovered,
                path.display()
            )
        }
    }
}

/// A completed outcome recovered from the journal, ready to splice.
#[derive(Debug, Clone)]
pub struct JournaledCompletion {
    /// The measured row, bit-identical to the one originally computed.
    pub row: Scenario1Row,
    /// Solve attempts the original computation consumed.
    pub attempts: u32,
    /// Solver iterations of the original final measurement.
    pub solver_iterations: u32,
}

/// Everything the journal knows about one cell.
#[derive(Debug, Clone, Default)]
pub struct JournaledCell {
    /// Completed outcome, if any run ever completed this cell.
    pub completed: Option<JournaledCompletion>,
    /// Poison strikes: executions that never reported an outcome
    /// (dangling `start` records — the run crashed or was killed while
    /// this cell was in flight) plus failures the watchdog had to cancel
    /// (`hung` outcomes). Ordinary typed failures are *not* strikes;
    /// they re-run deterministically and cheaply.
    pub strikes: u32,
    /// Cumulative solve attempts across journaled failed outcomes, plus
    /// one per abandoned execution.
    pub failed_attempts: u32,
    /// The most recent failed outcome's full error chain (outermost
    /// first); empty if the cell never journaled a failure.
    pub last_failure_chain: Vec<String>,
    starts: u32,
    outcomes: u32,
}

/// The durable cell journal (see the module docs for format and
/// semantics). One per running sweep, behind a mutex; every record
/// append flushes atomically.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    lines: Vec<String>,
    cells: HashMap<(String, usize), JournaledCell>,
    /// What loading found (fresh file, clean recovery, or torn tail).
    pub recovery: RecoveryReport,
}

/// FNV-1a 64-bit — the workspace's standard content hash (the check
/// harness derives case seeds the same way). Public so the shard layer
/// checksums canonical segments with the journal's own hash.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of everything that determines a sweep's outcomes: the
/// grid (apps, core counts, scale, seed), the fault plan, and the retry
/// policy. Two sweeps share a journal if and only if their fingerprints
/// match.
pub fn sweep_fingerprint(spec: &SweepSpec, plan: &FaultPlan, policy: &RetryPolicy) -> u64 {
    sweep_fingerprint_ext(spec, plan, policy, None)
}

/// [`sweep_fingerprint`] extended with the chip's tag
/// ([`tlp_sim::ChipSpec::chip_tag`]). `None` — a homogeneous chip —
/// hashes the exact same string as before the tag existed, so every
/// pre-heterogeneity journal still resumes; `Some(tag)` appends a
/// `|chip:` component, so a heterogeneous sweep pointed at a homogeneous
/// journal (or a different mix) fails with a typed
/// [`JournalError::SpecMismatch`] instead of splicing rows measured on a
/// different chip.
pub fn sweep_fingerprint_ext(
    spec: &SweepSpec,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    chip_tag: Option<&str>,
) -> u64 {
    let mut text = format!("v{VERSION}|{spec:?}|{plan:?}|{policy:?}");
    if let Some(tag) = chip_tag {
        text.push_str("|chip:");
        text.push_str(tag);
    }
    fnv64(text.as_bytes())
}

/// Renders one journal line for `record`: the FNV-1a-64 checksum of the
/// compact JSON rendering, a space, and the rendering itself (no
/// trailing newline) — exactly the line [`Journal`] appends. The shard
/// merge uses it to rebuild canonical segments whose lines are
/// byte-identical to ones the journal itself would write.
pub fn render_line(record: &Json) -> String {
    let text = record.to_string_compact();
    format!("{:016x} {text}", fnv64(text.as_bytes()))
}

/// Scans raw journal `text` with the journal's own torn-tail-tolerant
/// recovery rules: every checksum-valid, newline-terminated line up to
/// the first bad one parses into a record; everything from the first
/// bad line on is the discarded tail, returned as a byte count. The
/// shard layer validates uploaded segments through this, so a torn or
/// truncated upload is rejected by the exact FNV recovery path a local
/// resume uses.
pub fn checked_records(text: &str) -> (Vec<Json>, usize) {
    let (lines, torn) = checked_lines(text);
    (lines.into_iter().map(|(_, record)| record).collect(), torn)
}

/// The one journal scanner, behind [`checked_records`] and a resume's
/// replay: each accepted line's body (without its newline) with its
/// parsed record, and the byte count of the discarded tail.
fn checked_lines(text: &str) -> (Vec<(&str, Json)>, usize) {
    let mut consumed = 0usize;
    let mut lines = Vec::new();
    for line in text.split_inclusive('\n') {
        let body = line.strip_suffix('\n').unwrap_or(line);
        match Journal::parse_line(body) {
            // A line that fails its checksum, fails to parse, or is
            // truncated (no trailing newline counts: the write was
            // torn) starts the discarded tail.
            Some(record) if line.ends_with('\n') => {
                consumed += line.len();
                lines.push((body, record));
            }
            _ => break,
        }
    }
    (lines, text.len() - consumed)
}

pub(crate) fn field<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
    match j {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub(crate) fn num_field(j: &Json, key: &str) -> Option<f64> {
    match field(j, key)? {
        Json::Num(x) => Some(*x),
        _ => None,
    }
}

pub(crate) fn str_field<'a>(j: &'a Json, key: &str) -> Option<&'a str> {
    match field(j, key)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

pub(crate) fn arr_field<'a>(j: &'a Json, key: &str) -> Option<&'a [Json]> {
    match field(j, key)? {
        Json::Arr(items) => Some(items),
        _ => None,
    }
}

/// Replaces the file at `path` with `bytes` atomically: writes a sibling
/// `{name}.tmp{pid}`, syncs it, and renames it over `path`, so a crash
/// leaves either the old file or the new one on disk, never a torn mix.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = path.with_file_name(format!("{name}.tmp{}", std::process::id()));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)
}

/// A fresh scratch directory `{temp}/{prefix}-{pid}-{n}` (`n` unique in
/// the process), deleted with its contents on drop — also when a failing
/// test or oracle case unwinds past it.
pub(crate) struct TempDir(pub(crate) PathBuf);

impl TempDir {
    pub(crate) fn new(prefix: &str) -> std::io::Result<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn row_json(row: &Scenario1Row) -> Json {
    // Raw Hz and volts (not the display-friendly GHz the report JSON
    // uses): shortest-roundtrip printing then makes the parse
    // bit-identical, which the resume byte-identity contract needs.
    Json::object([
        ("n", Json::from(row.n)),
        ("nominal_efficiency", Json::from(row.nominal_efficiency)),
        ("actual_speedup", Json::from(row.actual_speedup)),
        ("power_watts", Json::from(row.power_watts)),
        ("normalized_power", Json::from(row.normalized_power)),
        ("normalized_density", Json::from(row.normalized_density)),
        ("temperature_c", Json::from(row.temperature_c)),
        ("op_hz", Json::from(row.operating_point.frequency.as_f64())),
        ("op_v", Json::from(row.operating_point.voltage.as_f64())),
        (
            "requests",
            match &row.requests {
                Some(r) => requests_json(r),
                None => Json::Null,
            },
        ),
    ])
}

fn requests_json(r: &RequestSummary) -> Json {
    Json::object([
        ("offered_rps", Json::from(r.offered_rps as u64)),
        ("completed", Json::from(r.completed)),
        ("throughput_rps", Json::from(r.throughput_rps)),
        ("p50_s", Json::from(r.p50_s)),
        ("p90_s", Json::from(r.p90_s)),
        ("p99_s", Json::from(r.p99_s)),
        ("max_s", Json::from(r.max_s)),
        ("queue_depth_peak", Json::from(r.queue_depth_peak)),
        ("energy_per_request_j", Json::from(r.energy_per_request_j)),
    ])
}

fn requests_from_json(j: &Json) -> Option<RequestSummary> {
    Some(RequestSummary {
        offered_rps: num_field(j, "offered_rps")? as u32,
        completed: num_field(j, "completed")? as u64,
        throughput_rps: num_field(j, "throughput_rps")?,
        p50_s: num_field(j, "p50_s")?,
        p90_s: num_field(j, "p90_s")?,
        p99_s: num_field(j, "p99_s")?,
        max_s: num_field(j, "max_s")?,
        queue_depth_peak: num_field(j, "queue_depth_peak")? as u64,
        energy_per_request_j: num_field(j, "energy_per_request_j")?,
    })
}

fn row_from_json(j: &Json) -> Option<Scenario1Row> {
    Some(Scenario1Row {
        n: num_field(j, "n")? as usize,
        nominal_efficiency: num_field(j, "nominal_efficiency")?,
        actual_speedup: num_field(j, "actual_speedup")?,
        power_watts: num_field(j, "power_watts")?,
        normalized_power: num_field(j, "normalized_power")?,
        normalized_density: num_field(j, "normalized_density")?,
        temperature_c: num_field(j, "temperature_c")?,
        operating_point: OperatingPoint {
            frequency: Hertz::new(num_field(j, "op_hz")?),
            voltage: Volts::new(num_field(j, "op_v")?),
        },
        // Tolerant: journals written before the server workload existed
        // have no "requests" key, which reads back as None.
        requests: match field(j, "requests") {
            Some(obj @ Json::Obj(_)) => requests_from_json(obj),
            _ => None,
        },
    })
}

impl Journal {
    /// Opens (or creates, in [`JournalMode::Checkpoint`]) the journal at
    /// `path` for the sweep described by `(spec, plan, policy)`,
    /// replaying any existing records.
    ///
    /// # Errors
    ///
    /// [`JournalError::Missing`] in [`JournalMode::Resume`] when the
    /// file does not exist; [`JournalError::SpecMismatch`] when it was
    /// written by a different sweep; [`JournalError::Corrupt`] when its
    /// header is unreadable; [`JournalError::Io`] for filesystem
    /// failures. A torn or corrupt *tail* is not an error — it is
    /// dropped and reported in [`Journal::recovery`].
    pub fn open(
        path: &Path,
        mode: JournalMode,
        spec: &SweepSpec,
        plan: &FaultPlan,
        policy: &RetryPolicy,
    ) -> Result<Self, JournalError> {
        Self::open_with_chip(path, mode, spec, plan, policy, None)
    }

    /// [`Journal::open`] for sweeps on a specific chip: `chip_tag` is
    /// the chip's [`tlp_sim::ChipSpec::chip_tag`], `None` for a
    /// homogeneous chip. The tag
    /// goes into both the fingerprint and the header record, so
    /// homogeneous journals stay byte-identical and cross-chip resumes
    /// are refused with [`JournalError::SpecMismatch`].
    ///
    /// # Errors
    ///
    /// As for [`Journal::open`].
    pub fn open_with_chip(
        path: &Path,
        mode: JournalMode,
        spec: &SweepSpec,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        chip_tag: Option<&str>,
    ) -> Result<Self, JournalError> {
        let fingerprint = sweep_fingerprint_ext(spec, plan, policy, chip_tag);
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if mode == JournalMode::Resume {
                    return Err(JournalError::Missing {
                        path: path.display().to_string(),
                    });
                }
                let mut j = Self {
                    path: path.to_path_buf(),
                    lines: Vec::new(),
                    cells: HashMap::new(),
                    recovery: RecoveryReport {
                        created: true,
                        ..RecoveryReport::default()
                    },
                };
                j.append(Self::header_record(spec, fingerprint, chip_tag))?;
                return Ok(j);
            }
            Err(e) => {
                return Err(JournalError::Io {
                    path: path.display().to_string(),
                    message: e.to_string(),
                })
            }
        };
        let mut j = Self {
            path: path.to_path_buf(),
            lines: Vec::new(),
            cells: HashMap::new(),
            recovery: RecoveryReport::default(),
        };
        j.load(&text, fingerprint)?;
        tlp_obs::metrics::JOURNAL_RECORDS_RECOVERED.add(j.recovery.records_recovered as u64);
        tlp_obs::metrics::JOURNAL_TORN_TAIL_BYTES.add(j.recovery.torn_tail_bytes as u64);
        Ok(j)
    }

    /// What the journal knows about cell `(app, n)`; `None` if the cell
    /// was never started.
    pub fn cell(&self, app: &str, n: usize) -> Option<&JournaledCell> {
        self.cells.get(&(app.to_string(), n))
    }

    /// Journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Every recovered or appended record as parsed JSON, header first —
    /// the durable execution trace `cmp-tlp serve` exposes on
    /// `/sweeps/{id}/trace`.
    pub fn records(&self) -> Vec<Json> {
        self.lines
            .iter()
            .filter_map(|line| Self::parse_line(line))
            .collect()
    }

    /// Number of cells with a journaled completed outcome.
    pub fn completed_cells(&self) -> usize {
        self.cells
            .values()
            .filter(|c| c.completed.is_some())
            .count()
    }

    /// Records that cell `(app, n)` is about to execute. If no matching
    /// outcome ever follows (the process dies mid-cell), the dangling
    /// start becomes a poison strike on the next resume.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the flush fails.
    pub fn record_start(&mut self, app: &str, n: usize, seed: u64) -> Result<(), JournalError> {
        self.append(Json::object([
            ("kind", Json::from("start")),
            ("app", Json::from(app)),
            ("n", Json::from(n)),
            ("seed", Json::from(format!("{seed:#x}"))),
        ]))
    }

    /// Records a completed outcome for cell `(app, n)`.
    ///
    /// # Errors
    ///
    /// [`JournalError::NonFinite`] if the row carries a NaN/∞ (which
    /// would degrade to `null` on disk), [`JournalError::Io`] if the
    /// flush fails.
    pub fn record_completed(
        &mut self,
        app: &str,
        n: usize,
        seed: u64,
        row: &Scenario1Row,
        attempts: u32,
        solver_iterations: u32,
    ) -> Result<(), JournalError> {
        self.append(Json::object([
            ("kind", Json::from("outcome")),
            ("app", Json::from(app)),
            ("n", Json::from(n)),
            ("seed", Json::from(format!("{seed:#x}"))),
            ("status", Json::from("completed")),
            ("attempts", Json::from(attempts)),
            ("solver_iterations", Json::from(solver_iterations)),
            ("row", row_json(row)),
        ]))
    }

    /// Records a failed outcome for cell `(app, n)`. `hung` marks
    /// watchdog-cancelled failures, which count as poison strikes on the
    /// next resume (ordinary typed failures do not — they re-run).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the flush fails.
    pub fn record_failed(
        &mut self,
        app: &str,
        n: usize,
        seed: u64,
        reason_chain: &[String],
        attempts: u32,
        hung: bool,
    ) -> Result<(), JournalError> {
        self.append(Json::object([
            ("kind", Json::from("outcome")),
            ("app", Json::from(app)),
            ("n", Json::from(n)),
            ("seed", Json::from(format!("{seed:#x}"))),
            ("status", Json::from("failed")),
            ("attempts", Json::from(attempts)),
            ("hung", Json::from(hung)),
            (
                "reason_chain",
                Json::array(reason_chain, |s| Json::from(s.clone())),
            ),
        ]))
    }

    /// The header record a journal for `(spec, fingerprint, chip_tag)`
    /// begins with. Public so the shard merge writes a canonical merged
    /// journal whose header is byte-identical to one the sweep engine
    /// would create itself.
    pub fn header_record(spec: &SweepSpec, fingerprint: u64, chip_tag: Option<&str>) -> Json {
        let mut pairs = vec![
            ("kind", Json::from("header")),
            ("version", Json::from(VERSION)),
            ("fingerprint", Json::from(format!("{fingerprint:016x}"))),
            ("apps", Json::array(&spec.apps, |a| Json::from(a.name()))),
            (
                "server_loads",
                Json::array(&spec.server_loads, |rps| Json::from(*rps as u64)),
            ),
            (
                "core_counts",
                Json::array(&spec.core_counts, |n| Json::from(*n)),
            ),
            ("scale", Json::from(format!("{:?}", spec.scale))),
            ("seed", Json::from(format!("{:#x}", spec.seed))),
        ];
        // Only heterogeneous chips write the key: homogeneous headers
        // stay byte-identical to pre-heterogeneity journals.
        if let Some(tag) = chip_tag {
            pairs.push(("chip", Json::from(tag)));
        }
        Json::object(pairs)
    }

    /// Appends one record: checksum the compact rendering, push the
    /// line, and flush the whole journal atomically.
    fn append(&mut self, record: Json) -> Result<(), JournalError> {
        if let Err(e) = record.check_finite() {
            return Err(JournalError::NonFinite {
                path: self.path.display().to_string(),
                location: e.path,
            });
        }
        self.apply(&record);
        self.lines.push(render_line(&record));
        self.flush()?;
        tlp_obs::metrics::JOURNAL_RECORDS_WRITTEN.incr();
        Ok(())
    }

    /// Whole-file atomic flush (see [`write_atomic`]): the on-disk
    /// journal is always one complete version or the other, never a mix.
    fn flush(&self) -> Result<(), JournalError> {
        let mut content = String::new();
        for line in &self.lines {
            content.push_str(line);
            content.push('\n');
        }
        write_atomic(&self.path, content.as_bytes()).map_err(|e| JournalError::Io {
            path: self.path.display().to_string(),
            message: e.to_string(),
        })?;
        tlp_obs::metrics::HIST_JOURNAL_FLUSH_BYTES.record(content.len() as u64);
        Ok(())
    }

    /// Replays `text`, tolerating (and measuring) a torn tail.
    fn load(&mut self, text: &str, fingerprint: u64) -> Result<(), JournalError> {
        let display = self.path.display().to_string();
        let (lines, torn) = checked_lines(text);
        self.recovery.torn_tail_bytes = torn;

        let Some((_, header)) = lines.first() else {
            return Err(JournalError::Corrupt {
                path: display,
                message: "no valid header record".to_string(),
            });
        };
        if str_field(header, "kind") != Some("header") {
            return Err(JournalError::Corrupt {
                path: display.clone(),
                message: "first record is not a header".to_string(),
            });
        }
        let expected = format!("{fingerprint:016x}");
        let found = str_field(header, "fingerprint").unwrap_or("<absent>");
        if found != expected {
            return Err(JournalError::SpecMismatch {
                path: display,
                expected,
                found: found.to_string(),
            });
        }

        for (_, record) in &lines[1..] {
            self.recovery.records_recovered += 1;
            self.apply(record);
        }
        self.lines = lines
            .into_iter()
            .map(|(body, _)| body.to_string())
            .collect();
        Ok(())
    }

    /// Parses and checksums one journal line.
    fn parse_line(line: &str) -> Option<Json> {
        let (hash, body) = line.split_once(' ')?;
        if hash.len() != 16 || u64::from_str_radix(hash, 16).ok()? != fnv64(body.as_bytes()) {
            return None;
        }
        Json::parse(body).ok()
    }

    /// Folds one record into the per-cell replay state.
    fn apply(&mut self, record: &Json) {
        let (Some(kind), Some(app), Some(n)) = (
            str_field(record, "kind"),
            str_field(record, "app"),
            num_field(record, "n"),
        ) else {
            return; // header, or an unknown record kind: preserved, ignored
        };
        let cell = self.cells.entry((app.to_string(), n as usize)).or_default();
        match kind {
            "start" => cell.starts += 1,
            "outcome" => {
                cell.outcomes += 1;
                let attempts = num_field(record, "attempts").unwrap_or(0.0) as u32;
                match str_field(record, "status") {
                    Some("completed") => {
                        if let Some(row) = field(record, "row").and_then(row_from_json) {
                            cell.completed = Some(JournaledCompletion {
                                row,
                                attempts,
                                solver_iterations: num_field(record, "solver_iterations")
                                    .unwrap_or(0.0)
                                    as u32,
                            });
                        }
                    }
                    Some("failed") => {
                        cell.failed_attempts += attempts;
                        if field(record, "hung") == Some(&Json::Bool(true)) {
                            cell.strikes += 1;
                        }
                        if let Some(Json::Arr(chain)) = field(record, "reason_chain") {
                            cell.last_failure_chain = chain
                                .iter()
                                .filter_map(|j| match j {
                                    Json::Str(s) => Some(s.clone()),
                                    _ => None,
                                })
                                .collect();
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}

impl JournaledCell {
    /// Executions abandoned without an outcome (crash/kill mid-cell).
    pub fn dangling_starts(&self) -> u32 {
        self.starts.saturating_sub(self.outcomes)
    }

    /// Total poison strikes: abandoned executions plus hung outcomes.
    pub fn total_strikes(&self) -> u32 {
        self.strikes + self.dangling_starts()
    }

    /// Cumulative failed attempts, counting each abandoned execution as
    /// one attempt.
    pub fn total_failed_attempts(&self) -> u32 {
        self.failed_attempts + self.dangling_starts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_workloads::{AppId, Scale};

    fn spec() -> SweepSpec {
        SweepSpec {
            apps: vec![AppId::WaterNsq],
            server_loads: Vec::new(),
            core_counts: vec![1, 2],
            scale: Scale::Test,
            seed: 7,
        }
    }

    fn row() -> Scenario1Row {
        Scenario1Row {
            n: 2,
            nominal_efficiency: 0.93,
            actual_speedup: 1.07,
            power_watts: 41.25,
            normalized_power: 0.62,
            normalized_density: 0.3100000000000001,
            temperature_c: 71.125,
            operating_point: OperatingPoint {
                frequency: Hertz::new(2.15e9 / 3.0),
                voltage: Volts::new(0.9333333333333333),
            },
            requests: None,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tlp-journal-{}-{name}.jsonl", std::process::id()))
    }

    fn open(path: &Path, mode: JournalMode) -> Result<Journal, JournalError> {
        Journal::open(
            path,
            mode,
            &spec(),
            &FaultPlan::none(),
            &RetryPolicy::default(),
        )
    }

    #[test]
    fn roundtrips_a_completed_row_bit_exactly() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut j = open(&path, JournalMode::Checkpoint).unwrap();
        assert!(j.recovery.created);
        let r = row();
        j.record_start("water-nsq", 2, 7).unwrap();
        j.record_completed("water-nsq", 2, 7, &r, 2, 31).unwrap();
        drop(j);

        let j = open(&path, JournalMode::Resume).unwrap();
        assert_eq!(j.recovery.records_recovered, 2);
        assert_eq!(j.recovery.torn_tail_bytes, 0);
        let cell = j.cell("water-nsq", 2).unwrap();
        let done = cell.completed.as_ref().unwrap();
        assert_eq!(done.attempts, 2);
        assert_eq!(done.solver_iterations, 31);
        // Bit-exact: every f64 survives the disk roundtrip.
        assert_eq!(format!("{:?}", done.row), format!("{:?}", r));
        assert_eq!(cell.total_strikes(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn roundtrips_a_server_row_with_request_summary_bit_exactly() {
        let path = tmp("roundtrip-server");
        let _ = std::fs::remove_file(&path);
        let mut j = open(&path, JournalMode::Checkpoint).unwrap();
        let mut r = row();
        r.requests = Some(RequestSummary {
            offered_rps: 2_000_000,
            completed: 1729,
            throughput_rps: 1_999_874.321,
            p50_s: 3.0000000000000004e-7,
            p90_s: 7.25e-7,
            p99_s: 1.5e-6,
            max_s: 2.0625e-6,
            queue_depth_peak: 11,
            energy_per_request_j: 2.0875e-5,
        });
        j.record_completed("server-2000000", 2, 7, &r, 1, 17)
            .unwrap();
        drop(j);

        let j = open(&path, JournalMode::Resume).unwrap();
        let done = j
            .cell("server-2000000", 2)
            .unwrap()
            .completed
            .as_ref()
            .unwrap();
        assert_eq!(format!("{:?}", done.row), format!("{:?}", r));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_requires_an_existing_journal() {
        let path = tmp("missing");
        let _ = std::fs::remove_file(&path);
        let err = open(&path, JournalMode::Resume).unwrap_err();
        assert!(matches!(err, JournalError::Missing { .. }), "{err}");
        assert!(!path.exists(), "strict resume must not create the file");
    }

    #[test]
    fn torn_tail_is_dropped_and_measured() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let mut j = open(&path, JournalMode::Checkpoint).unwrap();
        j.record_start("water-nsq", 1, 7).unwrap();
        j.record_completed("water-nsq", 1, 7, &row(), 1, 9).unwrap();
        drop(j);
        // Simulate a torn write: garbage appended mid-record.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let garbage = "deadbeefdeadbeef {\"kind\":\"outco";
        text.push_str(garbage);
        std::fs::write(&path, &text).unwrap();

        let j = open(&path, JournalMode::Resume).unwrap();
        assert_eq!(j.recovery.records_recovered, 2);
        assert_eq!(j.recovery.torn_tail_bytes, garbage.len());
        assert!(j.cell("water-nsq", 1).unwrap().completed.is_some());
        assert!(j.recovery.summary(&path).contains("WARNING"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_record_truncates_from_there() {
        let path = tmp("corrupt-mid");
        let _ = std::fs::remove_file(&path);
        let mut j = open(&path, JournalMode::Checkpoint).unwrap();
        j.record_start("water-nsq", 1, 7).unwrap();
        j.record_completed("water-nsq", 1, 7, &row(), 1, 9).unwrap();
        j.record_start("water-nsq", 2, 7).unwrap();
        drop(j);
        // Flip a byte inside the *second* record's body: its checksum
        // fails, so it and everything after it are dropped.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let tampered = lines[2].replace("completed", "completEd");
        let rebuilt = format!("{}\n{}\n{}\n", lines[0], lines[1], tampered);
        let dropped = text.len() - (lines[0].len() + lines[1].len() + 2);
        std::fs::write(&path, &rebuilt).unwrap();

        let j = open(&path, JournalMode::Resume).unwrap();
        assert_eq!(j.recovery.records_recovered, 1);
        assert_eq!(
            j.recovery.torn_tail_bytes,
            rebuilt.len() - (lines[0].len() + lines[1].len() + 2),
        );
        let _ = dropped;
        let cell = j.cell("water-nsq", 1).unwrap();
        assert!(cell.completed.is_none(), "outcome was in the dropped tail");
        assert_eq!(cell.dangling_starts(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dangling_starts_and_hung_failures_are_strikes() {
        let path = tmp("strikes");
        let _ = std::fs::remove_file(&path);
        let mut j = open(&path, JournalMode::Checkpoint).unwrap();
        j.record_start("fft", 4, 7).unwrap(); // abandoned (no outcome)
        j.record_start("fft", 4, 7).unwrap();
        j.record_failed("fft", 4, 7, &["hung".to_string()], 1, true)
            .unwrap();
        j.record_start("fft", 4, 7).unwrap();
        j.record_failed("fft", 4, 7, &["boom".to_string()], 3, false)
            .unwrap();
        drop(j);
        let j = open(&path, JournalMode::Checkpoint).unwrap();
        let cell = j.cell("fft", 4).unwrap();
        assert_eq!(cell.dangling_starts(), 1);
        assert_eq!(cell.total_strikes(), 2, "1 dangling + 1 hung");
        assert_eq!(cell.total_failed_attempts(), 1 + 3 + 1);
        assert_eq!(cell.last_failure_chain, vec!["boom".to_string()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn different_sweep_configuration_is_refused() {
        let path = tmp("mismatch");
        let _ = std::fs::remove_file(&path);
        drop(open(&path, JournalMode::Checkpoint).unwrap());
        let other = SweepSpec { seed: 8, ..spec() };
        let err = Journal::open(
            &path,
            JournalMode::Resume,
            &other,
            &FaultPlan::none(),
            &RetryPolicy::default(),
        )
        .unwrap_err();
        assert!(matches!(err, JournalError::SpecMismatch { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_finite_rows_are_refused_with_a_typed_error() {
        let path = tmp("nonfinite");
        let _ = std::fs::remove_file(&path);
        let mut j = open(&path, JournalMode::Checkpoint).unwrap();
        let mut bad = row();
        bad.power_watts = f64::NAN;
        let err = j
            .record_completed("water-nsq", 2, 7, &bad, 1, 9)
            .unwrap_err();
        let JournalError::NonFinite { location, .. } = &err else {
            panic!("expected NonFinite, got {err}");
        };
        assert_eq!(location, "$.row.power_watts");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_covers_faults_and_policy() {
        let s = spec();
        let base = sweep_fingerprint(&s, &FaultPlan::none(), &RetryPolicy::default());
        let faulted = sweep_fingerprint(
            &s,
            &FaultPlan::none().inject_work(
                crate::sweep::WorkloadId::App(AppId::WaterNsq),
                2,
                crate::sweep::Fault::NanPower,
            ),
            &RetryPolicy::default(),
        );
        let tighter = sweep_fingerprint(&s, &FaultPlan::none(), &RetryPolicy::no_retries());
        assert_ne!(base, faulted);
        assert_ne!(base, tighter);
        assert_eq!(
            base,
            sweep_fingerprint(&s, &FaultPlan::none(), &RetryPolicy::default())
        );
    }

    #[test]
    fn chip_tag_extends_the_fingerprint_but_none_is_the_legacy_hash() {
        let s = spec();
        let plan = FaultPlan::none();
        let policy = RetryPolicy::default();
        // None must hash the exact pre-heterogeneity string: every
        // homogeneous journal on disk keeps resuming.
        assert_eq!(
            sweep_fingerprint(&s, &plan, &policy),
            sweep_fingerprint_ext(&s, &plan, &policy, None)
        );
        let big_little =
            sweep_fingerprint_ext(&s, &plan, &policy, Some("big:4w4@1/1+little:12w2@1/2"));
        let other_mix =
            sweep_fingerprint_ext(&s, &plan, &policy, Some("big:8w4@1/1+little:8w2@1/2"));
        assert_ne!(big_little, sweep_fingerprint(&s, &plan, &policy));
        assert_ne!(big_little, other_mix);
    }

    #[test]
    fn heterogeneous_resume_against_homogeneous_journal_is_refused() {
        let path = tmp("chip-mismatch");
        let _ = std::fs::remove_file(&path);
        // Written by a homogeneous sweep (no chip tag)...
        drop(open(&path, JournalMode::Checkpoint).unwrap());
        // ...resumed by a heterogeneous one: typed SpecMismatch.
        let err = Journal::open_with_chip(
            &path,
            JournalMode::Resume,
            &spec(),
            &FaultPlan::none(),
            &RetryPolicy::default(),
            Some("big:4w4@1/1+little:12w2@1/2"),
        )
        .unwrap_err();
        assert!(matches!(err, JournalError::SpecMismatch { .. }), "{err}");
        // The matching tag resumes fine and records it in the header.
        let _ = std::fs::remove_file(&path);
        let j = Journal::open_with_chip(
            &path,
            JournalMode::Checkpoint,
            &spec(),
            &FaultPlan::none(),
            &RetryPolicy::default(),
            Some("big:4w4@1/1+little:12w2@1/2"),
        )
        .unwrap();
        let header = &j.records()[0];
        assert_eq!(
            super::str_field(header, "chip"),
            Some("big:4w4@1/1+little:12w2@1/2")
        );
        drop(j);
        let resumed = Journal::open_with_chip(
            &path,
            JournalMode::Resume,
            &spec(),
            &FaultPlan::none(),
            &RetryPolicy::default(),
            Some("big:4w4@1/1+little:12w2@1/2"),
        );
        assert!(resumed.is_ok());
        let _ = std::fs::remove_file(&path);
    }
}
