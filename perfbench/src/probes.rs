//! Per-layer probes for the journal, the job store and the JSON layer,
//! each timed from outside around the module's public functions.

use std::path::Path;
use std::time::Instant;

use cmp_tlp::serve::jobs::{scale_name, FsJobStore, JobRecord, JobStore};
use cmp_tlp::tech::json::{Json, ToJson};
use cmp_tlp::{CellOutcome, FaultPlan, Journal, JournalMode, RetryPolicy, SweepReport, SweepSpec};

use crate::stats;

/// What replaying one sweep's outcomes into a fresh journal cost.
#[derive(Debug, Clone, Default)]
pub struct JournalProbe {
    /// Wall time of each `record_start` / `record_completed`, seconds.
    pub append_s: Vec<f64>,
    /// Bytes written by every flush, the header's included: each append
    /// rewrites the whole file.
    pub flushed: u64,
    pub final_size: u64,
}

/// Writes `report`'s completed cells into a fresh journal at `path` the
/// way a checkpointed sweep does (a start, then the outcome, per cell).
///
/// # Errors
///
/// The journal's own error, as text.
pub fn journal_replay(
    path: &Path,
    spec: &SweepSpec,
    report: &SweepReport,
) -> Result<JournalProbe, String> {
    let _ = std::fs::remove_file(path);
    let size = || std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let mut journal = Journal::open(
        path,
        JournalMode::Checkpoint,
        spec,
        &FaultPlan::none(),
        &RetryPolicy::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut probe = JournalProbe {
        flushed: size(),
        ..JournalProbe::default()
    };
    for (cell, outcome) in &report.cells {
        let CellOutcome::Completed {
            row,
            attempts,
            solver_iterations,
        } = outcome
        else {
            continue;
        };
        let name = cell.work.name();
        let t0 = Instant::now();
        journal
            .record_start(&name, cell.n, spec.seed)
            .map_err(|e| e.to_string())?;
        probe.append_s.push(t0.elapsed().as_secs_f64());
        probe.flushed += size();
        let t0 = Instant::now();
        journal
            .record_completed(&name, cell.n, spec.seed, row, *attempts, *solver_iterations)
            .map_err(|e| e.to_string())?;
        probe.append_s.push(t0.elapsed().as_secs_f64());
        probe.flushed += size();
    }
    probe.final_size = size();
    Ok(probe)
}

/// The daemon's submission document for `spec`.
pub fn submission(spec: &SweepSpec) -> String {
    Json::object([
        ("apps", Json::array(&spec.apps, |a| a.name())),
        (
            "server_loads",
            Json::array(&spec.server_loads, |&r| r as u64),
        ),
        ("core_counts", Json::array(&spec.core_counts, |&n| n)),
        ("scale", Json::from(scale_name(spec.scale))),
        ("seed", Json::from(format!("{:#x}", spec.seed))),
    ])
    .to_string_compact()
}

/// Median wall time, seconds, of `calls` `FsJobStore::create` calls on
/// the store in `dir`. Each created record is removed again, so every
/// call sees the same history.
///
/// # Errors
///
/// The store's own error, as text.
pub fn create_s(dir: &Path, spec: &SweepSpec, calls: usize) -> Result<f64, String> {
    let store = FsJobStore::open(dir).map_err(|e| e.to_string())?;
    let mut times = Vec::with_capacity(calls);
    for _ in 0..calls {
        let record = JobRecord::new(
            spec.apps.clone(),
            spec.core_counts.clone(),
            spec.scale,
            spec.seed,
        );
        let t0 = Instant::now();
        let created = store.create(record).map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_secs_f64());
        store
            .abort(&created.value.id, created.version)
            .map_err(|e| e.to_string())?;
    }
    Ok(stats::median(&times))
}

/// Copies the job records (not the journals, which `create` never
/// reads) of the store in `from` into `to`.
///
/// # Errors
///
/// The filesystem error, as text.
pub fn copy_records(from: &Path, to: &Path) -> Result<usize, String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    let mut copied = 0;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name();
        if name.to_string_lossy().ends_with(".job.json") {
            std::fs::copy(entry.path(), to.join(&name)).map_err(|e| e.to_string())?;
            copied += 1;
        }
    }
    Ok(copied)
}

/// Render and parse times of one report, seconds, and its size.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonProbe {
    pub render_s: f64,
    pub parse_s: f64,
    pub bytes: usize,
}

/// Times `SweepReport::to_json().to_string_pretty()` and `Json::parse`
/// of the result, checking the parse gives back the rendered document.
pub fn json_probe(report: &SweepReport) -> Result<JsonProbe, String> {
    let t0 = Instant::now();
    let doc = report.to_json();
    let text = doc.to_string_pretty();
    let render_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parsed = Json::parse(&text).map_err(|e| e.to_string())?;
    let parse_s = t0.elapsed().as_secs_f64();
    if parsed.to_string_pretty() != text {
        return Err("report JSON does not survive a parse".to_string());
    }
    Ok(JsonProbe {
        render_s,
        parse_s,
        bytes: text.len(),
    })
}
