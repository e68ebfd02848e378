//! Segment validation, canonicalization, and the byte-identical merge.
//!
//! A worker uploads its local cell journal verbatim. That journal is
//! correct but not canonical: a parallel worker interleaves `start` and
//! `outcome` records in pool-scheduling order, and a retried cell leaves
//! failed-outcome records behind. This module reduces an uploaded
//! segment to a *canonical* form — sub-spec header first, then one
//! synthesized `start` plus the journaled completed `outcome` per cell,
//! in forward grid order — so that two honest workers computing the same
//! range always canonicalize to the same bytes. Idempotent completion
//! (duplicate accept vs [`SegmentConflict`]) compares canonical
//! checksums, and the final merge is a pure splice of canonical
//! segments under gap/overlap/fingerprint guards.
//!
//! Everything here is a pure function of `(spec, chip_tag, bytes)`:
//! no filesystem, no clock, no lock. The [`ShardBoard`] and the
//! `shard-merge-identity` oracle both go through these entry points.
//!
//! [`SegmentConflict`]: super::ShardError::SegmentConflict
//! [`ShardBoard`]: super::board::ShardBoard

use std::collections::HashMap;
use std::fmt;

use tlp_tech::json::Json;

use crate::journal::{checked_records, fnv64, render_line, str_field, sweep_fingerprint, Journal};
use crate::sweep::{FaultPlan, RetryPolicy, SweepSpec};

use super::{subspec, WorkRange};

/// Why an uploaded segment was rejected. Carried inside
/// [`ShardError::SegmentRejected`](super::ShardError::SegmentRejected)
/// and [`MergeError::Segment`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentDefect {
    /// The upload ends in bytes that fail the per-line FNV checksum or
    /// lack a terminating newline — a torn or truncated transfer. The
    /// journal's own recovery rule (valid checksummed prefix only)
    /// decides where the tear starts.
    Torn {
        /// Bytes past the last valid checksummed line.
        discarded: usize,
    },
    /// The upload contains no valid records at all.
    Empty,
    /// The first record is not a journal header.
    MissingHeader,
    /// The header's spec fingerprint is not the one this range demands —
    /// wrong spec, wrong fault/retry configuration, or wrong chip.
    FingerprintMismatch {
        /// Fingerprint the coordinator derived for the range (16 hex).
        expected: String,
        /// Fingerprint the upload carried.
        found: String,
    },
    /// A record names a cell outside the leased range or off the
    /// core-count axis.
    OutOfRange {
        /// Workload name in the record.
        work: String,
        /// Core count in the record.
        n: usize,
    },
    /// Two completed outcomes for the same cell disagree byte-for-byte.
    ConflictingCell {
        /// Workload name of the cell.
        work: String,
        /// Core count of the cell.
        n: usize,
    },
    /// A cell of the range has no completed outcome — the worker's
    /// sweep did not finish (or finished with a failure).
    Incomplete {
        /// Workload name of the cell.
        work: String,
        /// Core count of the cell.
        n: usize,
    },
    /// A record is structurally broken (missing fields, wrong types).
    Malformed {
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for SegmentDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentDefect::Torn { discarded } => {
                write!(
                    f,
                    "torn upload: {discarded} trailing bytes fail the line checksum"
                )
            }
            SegmentDefect::Empty => write!(f, "no valid journal records"),
            SegmentDefect::MissingHeader => write!(f, "first record is not a journal header"),
            SegmentDefect::FingerprintMismatch { expected, found } => write!(
                f,
                "spec fingerprint mismatch: expected {expected}, segment carries {found}"
            ),
            SegmentDefect::OutOfRange { work, n } => {
                write!(f, "cell ({work}, n={n}) is outside the leased range")
            }
            SegmentDefect::ConflictingCell { work, n } => {
                write!(
                    f,
                    "cell ({work}, n={n}) has two different completed outcomes"
                )
            }
            SegmentDefect::Incomplete { work, n } => {
                write!(f, "cell ({work}, n={n}) has no completed outcome")
            }
            SegmentDefect::Malformed { message } => write!(f, "malformed record: {message}"),
        }
    }
}

/// Why a set of segments cannot be spliced into one journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// One segment failed validation.
    Segment {
        /// The range the segment covers.
        range: WorkRange,
        /// Its defect.
        defect: SegmentDefect,
    },
    /// A segment's range falls outside the sweep grid (or is empty).
    OutOfGrid {
        /// The offending range.
        range: WorkRange,
        /// Number of workload rows in the grid.
        works: usize,
    },
    /// No segment covers this workload row.
    Gap {
        /// Name of the uncovered workload.
        work: String,
    },
    /// More than one segment covers this workload row.
    Overlap {
        /// Name of the doubly-covered workload.
        work: String,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Segment { range, defect } => {
                write!(f, "segment {range}: {defect}")
            }
            MergeError::OutOfGrid { range, works } => {
                write!(f, "segment {range} falls outside the {works}-row grid")
            }
            MergeError::Gap { work } => write!(f, "no segment covers workload {work}"),
            MergeError::Overlap { work } => {
                write!(f, "workload {work} is covered by more than one segment")
            }
        }
    }
}

/// One cell of a canonical segment: its absolute workload-row index,
/// core count, and the two checksummed journal lines (synthesized
/// `start`, journaled `outcome`) that represent it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalCell {
    /// Workload-row index in the *full* grid.
    pub work: usize,
    /// Core count.
    pub n: usize,
    /// Checksummed `start` line (no trailing newline).
    pub start_line: String,
    /// Checksummed completed `outcome` line (no trailing newline).
    pub outcome_line: String,
}

/// A validated, canonicalized segment: deterministic bytes for the
/// range regardless of which worker computed it or in what order its
/// journal recorded cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalSegment {
    /// The range the segment covers.
    pub range: WorkRange,
    /// Cells in forward grid order (workload-major, core counts in spec
    /// order).
    pub cells: Vec<CanonicalCell>,
    /// Canonical text: sub-spec header line, then each cell's start and
    /// outcome lines, every line newline-terminated.
    pub text: String,
    /// FNV-1a-64 of [`text`](Self::text) — the identity compared for
    /// idempotent completion.
    pub checksum: u64,
}

/// The fingerprint a worker journal for `range` must carry: the
/// sub-spec under the default retry policy and no injected faults
/// (workers never inject faults — fault plans are a single-process
/// testing instrument).
pub fn range_fingerprint(spec: &SweepSpec, chip_tag: Option<&str>, range: WorkRange) -> u64 {
    sweep_fingerprint(
        &subspec(spec, range),
        &FaultPlan::none(),
        &RetryPolicy::default(),
        chip_tag,
    )
}

/// Validates an uploaded journal segment against the range it was
/// leased for and reduces it to canonical form.
///
/// `spec` is the *full* sweep grid; the expected header fingerprint is
/// derived from [`subspec`]`(spec, range)` exactly as the worker derives
/// its journal's. The caller guarantees `range` lies inside the grid.
///
/// # Errors
///
/// A [`SegmentDefect`] describing the first problem found: torn bytes,
/// missing/foreign header, out-of-range or conflicting or missing
/// cells, or structurally broken records.
pub fn validate_segment(
    spec: &SweepSpec,
    chip_tag: Option<&str>,
    range: WorkRange,
    text: &str,
) -> Result<CanonicalSegment, SegmentDefect> {
    let (records, torn) = checked_records(text);
    if torn > 0 {
        return Err(SegmentDefect::Torn { discarded: torn });
    }
    if records.is_empty() {
        return Err(SegmentDefect::Empty);
    }

    let sub = subspec(spec, range);
    let expected_fp = range_fingerprint(spec, chip_tag, range);
    let header = &records[0];
    if str_field(header, "kind") != Some("header") {
        return Err(SegmentDefect::MissingHeader);
    }
    let found = str_field(header, "fingerprint").unwrap_or("<missing>");
    let expected = format!("{expected_fp:016x}");
    if found != expected {
        return Err(SegmentDefect::FingerprintMismatch {
            expected,
            found: found.to_string(),
        });
    }

    let names: Vec<String> = sub.works().iter().map(|w| w.name()).collect();
    let work_index: HashMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let count_index: HashMap<usize, usize> = sub
        .core_counts
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i))
        .collect();

    // Collect the completed outcome per cell, refusing disagreement.
    let mut outcomes: HashMap<(usize, usize), &Json> = HashMap::new();
    for record in &records[1..] {
        let kind = str_field(record, "kind").unwrap_or("");
        if kind != "start" && kind != "outcome" {
            // Unknown kinds are skipped, matching the journal's own
            // forward-compatible replay.
            continue;
        }
        let work = str_field(record, "app").ok_or_else(|| SegmentDefect::Malformed {
            message: format!("{kind} record without an app field"),
        })?;
        let n = crate::journal::num_field(record, "n").ok_or_else(|| SegmentDefect::Malformed {
            message: format!("{kind} record without a core count"),
        })? as usize;
        let (Some(&widx), Some(&nidx)) = (work_index.get(work), count_index.get(&n)) else {
            return Err(SegmentDefect::OutOfRange {
                work: work.to_string(),
                n,
            });
        };
        if kind == "start" || str_field(record, "status") != Some("completed") {
            // Starts and failed outcomes are journal history, not
            // results: a later completed outcome supersedes them, and a
            // cell left without one is reported as Incomplete below.
            continue;
        }
        if str_field(record, "seed").is_none() {
            return Err(SegmentDefect::Malformed {
                message: format!("completed outcome for ({work}, n={n}) lacks a seed"),
            });
        }
        match outcomes.get(&(widx, nidx)) {
            Some(prior) if render_line(prior) != render_line(record) => {
                return Err(SegmentDefect::ConflictingCell {
                    work: work.to_string(),
                    n,
                });
            }
            Some(_) => {}
            None => {
                outcomes.insert((widx, nidx), record);
            }
        }
    }

    // Canonical form: header, then every cell of the range in forward
    // grid order, each as a synthesized start plus its outcome.
    let mut out = render_line(&Journal::header_record(&sub, expected_fp, chip_tag));
    out.push('\n');
    let mut cells = Vec::with_capacity(names.len() * sub.core_counts.len());
    for (widx, name) in names.iter().enumerate() {
        for (nidx, &n) in sub.core_counts.iter().enumerate() {
            let Some(outcome) = outcomes.get(&(widx, nidx)) else {
                return Err(SegmentDefect::Incomplete {
                    work: name.clone(),
                    n,
                });
            };
            let seed = str_field(outcome, "seed").expect("checked above");
            let start = Json::object([
                ("kind", Json::from("start")),
                ("app", Json::from(name.as_str())),
                ("n", Json::from(n)),
                ("seed", Json::from(seed)),
            ]);
            let start_line = render_line(&start);
            let outcome_line = render_line(outcome);
            out.push_str(&start_line);
            out.push('\n');
            out.push_str(&outcome_line);
            out.push('\n');
            cells.push(CanonicalCell {
                work: range.lo + widx,
                n,
                start_line,
                outcome_line,
            });
        }
    }
    let checksum = fnv64(out.as_bytes());
    Ok(CanonicalSegment {
        range,
        cells,
        text: out,
        checksum,
    })
}

/// Splices uploaded segments into one canonical journal for the full
/// grid: the full-spec header line followed by every cell's canonical
/// lines in forward grid order. The result is a valid, resumable cell
/// journal — resuming it replays every cell and produces a report
/// byte-identical to an uninterrupted single-process sweep (pinned by
/// the `shard-merge-identity` oracle).
///
/// # Errors
///
/// [`MergeError::OutOfGrid`] for a range outside the grid,
/// [`MergeError::Segment`] for a segment failing validation, and
/// [`MergeError::Gap`] / [`MergeError::Overlap`] when coverage of the
/// workload rows is not an exact partition.
pub fn merge_segments(
    spec: &SweepSpec,
    chip_tag: Option<&str>,
    segments: &[(WorkRange, &str)],
) -> Result<String, MergeError> {
    let works = spec.works();
    let names: Vec<String> = works.iter().map(|w| w.name()).collect();
    let mut coverage = vec![0u32; works.len()];
    let mut canonical = Vec::with_capacity(segments.len());
    for &(range, text) in segments {
        if range.is_empty() || range.hi > works.len() {
            return Err(MergeError::OutOfGrid {
                range,
                works: works.len(),
            });
        }
        for slot in &mut coverage[range.lo..range.hi] {
            *slot += 1;
        }
        let seg = validate_segment(spec, chip_tag, range, text)
            .map_err(|defect| MergeError::Segment { range, defect })?;
        canonical.push(seg);
    }
    for (w, &count) in coverage.iter().enumerate() {
        if count > 1 {
            return Err(MergeError::Overlap {
                work: names[w].clone(),
            });
        }
        if count == 0 {
            return Err(MergeError::Gap {
                work: names[w].clone(),
            });
        }
    }
    canonical.sort_by_key(|seg| seg.range.lo);

    let full_fp = range_fingerprint(
        spec,
        chip_tag,
        WorkRange {
            lo: 0,
            hi: works.len(),
        },
    );
    let mut out = render_line(&Journal::header_record(spec, full_fp, chip_tag));
    out.push('\n');
    for seg in &canonical {
        for cell in &seg.cells {
            out.push_str(&cell.start_line);
            out.push('\n');
            out.push_str(&cell.outcome_line);
            out.push('\n');
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tlp_sim::ChipSpec;
    use tlp_tech::Technology;
    use tlp_workloads::{AppId, Scale};

    use crate::chipstate::ExperimentalChip;

    struct Scratch(PathBuf);
    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn scratch(tag: &str) -> Scratch {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        Scratch(std::env::temp_dir().join(format!(
            "cmp-tlp-shard-merge-{tag}-{}-{unique}.journal",
            std::process::id()
        )))
    }

    fn chip() -> ExperimentalChip {
        ExperimentalChip::from_spec(ChipSpec::ispass05(4), Technology::itrs_65nm())
    }

    fn spec() -> SweepSpec {
        SweepSpec {
            apps: vec![AppId::Fft, AppId::Lu],
            server_loads: vec![],
            core_counts: vec![1, 2],
            scale: Scale::Test,
            seed: 0x51,
        }
    }

    /// Runs `subspec(spec, range)` through a checkpointed sweep and
    /// returns the journal bytes — exactly what a worker uploads.
    fn segment_for(range: WorkRange) -> String {
        let s = scratch(&format!("seg{}-{}", range.lo, range.hi));
        chip()
            .sweep()
            .grid(subspec(&spec(), range))
            .serial()
            .checkpoint(&s.0)
            .run()
            .expect("test-scale sweep");
        std::fs::read_to_string(&s.0).expect("journal written")
    }

    #[test]
    fn a_clean_worker_journal_canonicalizes_and_round_trips() {
        let full = WorkRange { lo: 0, hi: 2 };
        let text = segment_for(full);
        let seg = validate_segment(&spec(), None, full, &text).expect("valid segment");
        assert_eq!(seg.cells.len(), 4);
        // Canonicalization is idempotent: canonical text validates to
        // itself.
        let again = validate_segment(&spec(), None, full, &seg.text).expect("canonical is valid");
        assert_eq!(again.text, seg.text);
        assert_eq!(again.checksum, seg.checksum);
        // A full-grid merge of the single segment is the canonical text.
        let merged = merge_segments(&spec(), None, &[(full, text.as_str())]).expect("merge");
        assert_eq!(merged, seg.text);
    }

    #[test]
    fn merge_is_invariant_across_partitionings() {
        let full = WorkRange { lo: 0, hi: 2 };
        let whole = segment_for(full);
        let left = segment_for(WorkRange { lo: 0, hi: 1 });
        let right = segment_for(WorkRange { lo: 1, hi: 2 });
        let merged_whole = merge_segments(&spec(), None, &[(full, whole.as_str())]).unwrap();
        // Present the split segments out of order: the splice sorts.
        let merged_split = merge_segments(
            &spec(),
            None,
            &[
                (WorkRange { lo: 1, hi: 2 }, right.as_str()),
                (WorkRange { lo: 0, hi: 1 }, left.as_str()),
            ],
        )
        .unwrap();
        assert_eq!(merged_whole, merged_split);
    }

    #[test]
    fn torn_uploads_are_rejected_by_the_checksum_path() {
        let full = WorkRange { lo: 0, hi: 2 };
        let text = segment_for(full);
        let torn = &text[..text.len() - 7];
        match validate_segment(&spec(), None, full, torn) {
            Err(SegmentDefect::Torn { discarded }) => assert!(discarded > 0),
            other => panic!("expected Torn, got {other:?}"),
        }
    }

    #[test]
    fn foreign_fingerprints_are_refused() {
        // A journal for the full grid uploaded against a one-row lease.
        let text = segment_for(WorkRange { lo: 0, hi: 2 });
        match validate_segment(&spec(), None, WorkRange { lo: 0, hi: 1 }, &text) {
            Err(SegmentDefect::FingerprintMismatch { expected, found }) => {
                assert_ne!(expected, found)
            }
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
    }

    #[test]
    fn missing_cells_are_incomplete() {
        let range = WorkRange { lo: 0, hi: 1 };
        let text = segment_for(range);
        // Keep the header and drop every cell record.
        let header_only: String = text.lines().take(1).map(|l| format!("{l}\n")).collect();
        match validate_segment(&spec(), None, range, &header_only) {
            Err(SegmentDefect::Incomplete { work, n }) => {
                assert_eq!((work.as_str(), n), ("FFT", 1));
            }
            other => panic!("expected Incomplete, got {other:?}"),
        }
    }

    #[test]
    fn disagreeing_outcomes_for_one_cell_are_conflicts() {
        let range = WorkRange { lo: 0, hi: 1 };
        let mut text = segment_for(range);
        // Forge a second, different completed outcome for an existing
        // cell (re-checksummed so it passes the line filter).
        let outcome_body = text
            .lines()
            .find(|l| l.contains("\"kind\":\"outcome\""))
            .expect("an outcome line")[17..]
            .to_string();
        assert!(outcome_body.contains("\"attempts\":1"));
        let forged = outcome_body.replace("\"attempts\":1", "\"attempts\":7");
        let record = Json::parse(&forged).expect("valid record JSON");
        text.push_str(&render_line(&record));
        text.push('\n');
        match validate_segment(&spec(), None, range, &text) {
            Err(SegmentDefect::ConflictingCell { .. }) => {}
            other => panic!("expected ConflictingCell, got {other:?}"),
        }
    }

    #[test]
    fn cells_outside_the_lease_are_refused() {
        // A segment for row 1 presented as covering row 0: the
        // fingerprint differs first. To reach the cell check, forge a
        // segment with the right header but a foreign cell record.
        let range = WorkRange { lo: 0, hi: 1 };
        let mut text = segment_for(range);
        let alien = Json::object([
            ("kind", Json::from("start")),
            ("app", Json::from("LU")),
            ("n", Json::from(1usize)),
            ("seed", Json::from("0x1")),
        ]);
        text.push_str(&render_line(&alien));
        text.push('\n');
        match validate_segment(&spec(), None, range, &text) {
            Err(SegmentDefect::OutOfRange { work, n }) => {
                assert_eq!((work.as_str(), n), ("LU", 1));
            }
            other => panic!("expected OutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn coverage_must_be_an_exact_partition() {
        let left_range = WorkRange { lo: 0, hi: 1 };
        let left = segment_for(left_range);
        // Gap: row 1 uncovered.
        match merge_segments(&spec(), None, &[(left_range, left.as_str())]) {
            Err(MergeError::Gap { work }) => assert_eq!(work, "LU"),
            other => panic!("expected Gap, got {other:?}"),
        }
        // Overlap: row 0 covered twice.
        match merge_segments(
            &spec(),
            None,
            &[(left_range, left.as_str()), (left_range, left.as_str())],
        ) {
            Err(MergeError::Overlap { work }) => assert_eq!(work, "FFT"),
            other => panic!("expected Overlap, got {other:?}"),
        }
        // Out of grid: a range past the last row.
        match merge_segments(
            &spec(),
            None,
            &[(WorkRange { lo: 0, hi: 9 }, left.as_str())],
        ) {
            Err(MergeError::OutOfGrid { works, .. }) => assert_eq!(works, 2),
            other => panic!("expected OutOfGrid, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_headerless_uploads_are_typed() {
        let range = WorkRange { lo: 0, hi: 1 };
        assert_eq!(
            validate_segment(&spec(), None, range, ""),
            Err(SegmentDefect::Empty)
        );
        let start_only = render_line(&Json::object([
            ("kind", Json::from("start")),
            ("app", Json::from("fft")),
            ("n", Json::from(1usize)),
            ("seed", Json::from("0x1")),
        ])) + "\n";
        assert_eq!(
            validate_segment(&spec(), None, range, &start_only),
            Err(SegmentDefect::MissingHeader)
        );
    }
}
