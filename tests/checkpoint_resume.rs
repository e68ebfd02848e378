//! End-to-end crash-safety tests for the checkpointed sweep: a journaled
//! run that is "killed" (journal truncated at a record boundary, torn
//! tails and corrupted records included) and resumed must reproduce the
//! uninterrupted report byte-for-byte; journals from a different sweep
//! are refused; repeatedly-lethal cells are quarantined so the sweep
//! completes degraded instead of never; the per-cell watchdog turns a
//! hung simulation into a typed failure, ends with its cell and never
//! covers the anchor and profile runs; and a raised interrupt flag
//! stops the run resumably.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cmp_tlp::error::ExperimentError;
use cmp_tlp::journal::{checked_records, Journal, JournalError, JournalMode};
use cmp_tlp::sweep::{Fault, FaultPlan, RetryPolicy, SweepReport, SweepSpec, WorkloadId};
use cmp_tlp::ExperimentalChip;
use tlp_sim::{ChipSpec, SimError};
use tlp_tech::json::{Json, ToJson};
use tlp_thermal::ThermalError;
use tlp_workloads::{AppId, Scale};

const SEED: u64 = 0xC8A5;

fn chip() -> ExperimentalChip {
    ExperimentalChip::from_spec(ChipSpec::ispass05(16), tlp_tech::Technology::itrs_65nm())
}

fn spec(apps: Vec<AppId>, counts: Vec<usize>) -> SweepSpec {
    SweepSpec {
        server_loads: Vec::new(),
        apps,
        core_counts: counts,
        scale: Scale::Test,
        seed: SEED,
    }
}

/// A scratch journal path, deleted on drop.
struct TempJournal(PathBuf);

impl TempJournal {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        Self(std::env::temp_dir().join(format!(
            "cmp-tlp-ckpt-test-{tag}-{}-{unique}.journal",
            std::process::id()
        )))
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn report_bytes(r: &SweepReport) -> (String, String) {
    (format!("{:?}", r.cells), r.to_json().to_string_pretty())
}

#[test]
fn killed_and_resumed_sweep_is_byte_identical_under_faults() {
    let apps = vec![AppId::WaterNsq, AppId::Fft];
    let counts = vec![1, 2];
    // A fault in the grid: the failed cell re-runs deterministically on
    // resume and must not disturb byte-identity.
    let plan =
        FaultPlan::none().inject_work(WorkloadId::App(AppId::Fft), 2, Fault::InflateLeakage(100.0));

    let reference = chip()
        .sweep()
        .grid(spec(apps.clone(), counts.clone()))
        .faults(plan.clone())
        .threads(1)
        .run()
        .unwrap();
    let (ref_dbg, ref_json) = report_bytes(&reference);

    let journal = TempJournal::new("kill-resume");
    let full = chip()
        .sweep()
        .grid(spec(apps.clone(), counts.clone()))
        .faults(plan.clone())
        .threads(1)
        .checkpoint(&journal.0)
        .run()
        .unwrap();
    assert_eq!(report_bytes(&full), (ref_dbg.clone(), ref_json.clone()));

    // "Kill" the run after its second record: everything past the
    // header + two records is lost.
    let text = std::fs::read_to_string(&journal.0).unwrap();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    assert!(lines.len() > 3, "expected several journal records");
    std::fs::write(&journal.0, lines[..3].concat()).unwrap();

    let resumed = chip()
        .sweep()
        .grid(spec(apps.clone(), counts.clone()))
        .faults(plan.clone())
        .threads(1)
        .resume(&journal.0)
        .run()
        .unwrap();
    assert_eq!(report_bytes(&resumed), (ref_dbg.clone(), ref_json.clone()));

    // A second resume splices every completed cell without re-running
    // it, and must still be byte-identical.
    let respliced = chip()
        .sweep()
        .grid(spec(apps, counts))
        .faults(plan)
        .threads(1)
        .resume(&journal.0)
        .run()
        .unwrap();
    assert_eq!(report_bytes(&respliced), (ref_dbg, ref_json));
}

#[test]
fn torn_and_corrupt_tails_are_dropped_with_a_warning_not_a_crash() {
    let apps = vec![AppId::WaterNsq];
    let counts = vec![1, 2];
    let plan = FaultPlan::none();
    let policy = RetryPolicy::default();

    let journal = TempJournal::new("torn-tail");
    let full = chip()
        .sweep()
        .grid(spec(apps.clone(), counts.clone()))
        .threads(1)
        .checkpoint(&journal.0)
        .run()
        .unwrap();
    let (_, ref_json) = report_bytes(&full);

    // A torn tail: an interrupted write left a half record with no
    // checksum and no newline.
    let mut text = std::fs::read_to_string(&journal.0).unwrap();
    text.push_str("deadbeef {\"record\":\"outc");
    std::fs::write(&journal.0, &text).unwrap();

    let s = spec(apps.clone(), counts.clone());
    let j = Journal::open(&journal.0, JournalMode::Resume, &s, &plan, &policy).unwrap();
    assert!(!j.recovery.created);
    assert!(j.recovery.records_recovered > 0);
    assert_eq!(
        j.recovery.torn_tail_bytes,
        "deadbeef {\"record\":\"outc".len()
    );
    let warning = j.recovery.summary(&journal.0);
    assert!(warning.contains("WARNING"), "{warning}");
    assert!(warning.contains("torn/corrupt tail"), "{warning}");

    // Corrupt a record checksum mid-file: that record and everything
    // after it is dropped, and the resumed sweep re-runs those cells to
    // the same bytes.
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let mut corrupted: String = lines[..2].concat();
    let bad = lines[2].replacen(
        &lines[2][..1],
        if &lines[2][..1] == "0" { "1" } else { "0" },
        1,
    );
    corrupted.push_str(&bad);
    corrupted.push_str(&lines[3..].concat());
    std::fs::write(&journal.0, &corrupted).unwrap();

    let resumed = chip()
        .sweep()
        .grid(spec(apps, counts))
        .threads(1)
        .resume(&journal.0)
        .run()
        .unwrap();
    assert_eq!(report_bytes(&resumed).1, ref_json);
}

#[test]
fn resuming_a_different_sweep_is_refused_with_a_typed_error() {
    let journal = TempJournal::new("spec-mismatch");
    chip()
        .sweep()
        .grid(spec(vec![AppId::WaterNsq], vec![1, 2]))
        .threads(1)
        .checkpoint(&journal.0)
        .run()
        .unwrap();

    // Same path, different grid: the journal must refuse to lie.
    let err = chip()
        .sweep()
        .grid(spec(vec![AppId::Fft], vec![1, 2]))
        .threads(1)
        .resume(&journal.0)
        .run()
        .unwrap_err();
    assert!(
        matches!(
            err,
            ExperimentError::Journal(JournalError::SpecMismatch { .. })
        ),
        "expected a spec mismatch, got: {err}"
    );

    // And a resume against a missing path fails loudly, not by silently
    // starting over.
    let missing = TempJournal::new("missing");
    let err = chip()
        .sweep()
        .grid(spec(vec![AppId::WaterNsq], vec![1, 2]))
        .threads(1)
        .resume(&missing.0)
        .run()
        .unwrap_err();
    assert!(
        matches!(err, ExperimentError::Journal(JournalError::Missing { .. })),
        "expected a missing-journal error, got: {err}"
    );
}

#[test]
fn three_abandoned_executions_quarantine_the_cell_on_resume() {
    let apps = vec![AppId::WaterNsq];
    let counts = vec![1, 2];
    let s = spec(apps.clone(), counts.clone());
    let plan = FaultPlan::none();
    let policy = RetryPolicy::default();

    // Simulate three crashes mid-cell: each run journals a start for
    // water-nsq@2 and dies before the outcome lands.
    let journal = TempJournal::new("quarantine");
    for _ in 0..3 {
        let mut j = Journal::open(&journal.0, JournalMode::Checkpoint, &s, &plan, &policy).unwrap();
        j.record_start(AppId::WaterNsq.name(), 2, SEED).unwrap();
        let cell = j.cell(AppId::WaterNsq.name(), 2).unwrap();
        assert_eq!(cell.total_strikes(), cell.dangling_starts());
    }

    let report = chip()
        .sweep()
        .grid(s)
        .threads(1)
        .resume(&journal.0)
        .run()
        .unwrap();

    // The poison cell is quarantined, not re-run; the rest completes.
    let quarantined: Vec<_> = report.quarantined().collect();
    assert_eq!(quarantined.len(), 1, "{}", report.summary());
    let (cell, reason_chain, attempts, replay_seed) = quarantined[0];
    assert_eq!((cell.work, cell.n), (WorkloadId::App(AppId::WaterNsq), 2));
    assert_eq!(attempts, 3, "each abandoned execution costs one attempt");
    assert_eq!(replay_seed, SEED);
    assert!(
        reason_chain[0].contains("3 poison strike(s)"),
        "{reason_chain:?}"
    );
    assert_eq!(report.completed().count(), 1);

    // The degraded completion is visible everywhere a consumer looks.
    let summary = report.summary();
    assert!(summary.contains("1 quarantined"), "{summary}");
    assert!(summary.contains("QUARANTINED"), "{summary}");
    assert!(summary.contains(&format!("{SEED:#x}")), "{summary}");
    let json = report.to_json().to_string_compact();
    assert!(json.contains("\"cells_quarantined\":1"), "{json}");
    assert!(json.contains("\"status\":\"quarantined\""), "{json}");

    // quarantine_after = 0 disables the mechanism: the same journal
    // re-runs the cell instead.
    let relaxed = RetryPolicy {
        quarantine_after: 0,
        ..RetryPolicy::default()
    };
    // The policy is part of the journal fingerprint, so the disabled-
    // quarantine run needs its own journal with the same dangling
    // starts.
    let journal2 = TempJournal::new("quarantine-off");
    let s2 = spec(apps, counts);
    {
        let mut j =
            Journal::open(&journal2.0, JournalMode::Checkpoint, &s2, &plan, &relaxed).unwrap();
        for _ in 0..5 {
            j.record_start(AppId::WaterNsq.name(), 2, SEED).unwrap();
        }
    }
    let report = chip()
        .sweep()
        .grid(s2)
        .retry_policy(relaxed)
        .threads(1)
        .resume(&journal2.0)
        .run()
        .unwrap();
    assert_eq!(report.quarantined().count(), 0);
    assert_eq!(report.completed().count(), 2, "{}", report.summary());
}

#[test]
fn watchdog_deadline_turns_a_hung_cell_into_a_typed_failure() {
    let plan = FaultPlan::none().inject_work(WorkloadId::App(AppId::WaterNsq), 2, Fault::Hang);
    let (report, trace) = chip()
        .sweep()
        .grid(spec(vec![AppId::WaterNsq], vec![1, 2]))
        .faults(plan)
        .cell_deadline(Duration::from_millis(100))
        .run_traced()
        .unwrap();

    let failed: Vec<_> = report.failed().collect();
    assert_eq!(failed.len(), 1, "{}", report.summary());
    let (cell, reason, attempts) = failed[0];
    assert_eq!((cell.work, cell.n), (WorkloadId::App(AppId::WaterNsq), 2));
    assert_eq!(attempts, 1, "a cancelled cell must not be retried");
    assert!(
        matches!(
            reason,
            ExperimentError::Sim(SimError::DeadlineExceeded { .. })
        ),
        "expected a deadline diagnosis, got: {reason}"
    );
    // The healthy cell still completed: the pool kept draining.
    assert_eq!(report.completed().count(), 1);
    // One cell settled as failed past its deadline: one cancellation.
    assert_eq!(trace.counter("sweep.deadline_cancellations"), Some(1));
}

/// `(app@n, status)` of every outcome record in the journal at `path`,
/// in the order the sweep settled the cells.
fn settle_order(path: &Path) -> Vec<(String, String)> {
    journal_cells(&std::fs::read_to_string(path).unwrap(), "outcome")
}

/// `(app@n, status)` of every record of `kind` in the journal `text`, in
/// journal order; a `start` record has no status.
fn journal_cells(text: &str, kind: &str) -> Vec<(String, String)> {
    let (records, _) = checked_records(text);
    let field = |record: &Json, key: &str| match record {
        Json::Obj(fields) => match fields.iter().find(|(k, _)| k == key) {
            Some((_, Json::Str(s))) => s.clone(),
            Some((_, Json::Num(x))) => x.to_string(),
            _ => String::new(),
        },
        _ => String::new(),
    };
    records
        .iter()
        .filter(|r| field(r, "kind") == kind)
        .map(|r| {
            let cell = format!("{}@{}", field(r, "app"), field(r, "n"));
            (cell, field(r, "status"))
        })
        .collect()
}

#[test]
fn a_cell_deadline_does_not_outlive_its_cell() {
    // One worker runs every task in turn, so each cell the journal
    // settles after the hung one ran on the worker whose deadline had
    // passed, as did the water-nsq row's anchor and profile runs. The
    // last row seeded runs first, and its widest cell first of all.
    let journal = TempJournal::new("deadline-scope");
    let plan = FaultPlan::none().inject_work(WorkloadId::App(AppId::Fft), 4, Fault::Hang);
    let report = chip()
        .sweep()
        .grid(spec(vec![AppId::WaterNsq, AppId::Fft], vec![1, 2, 4]))
        .faults(plan)
        .cell_deadline(Duration::from_millis(100))
        .threads(1)
        .checkpoint(&journal.0)
        .run()
        .unwrap();

    let failed: Vec<_> = report.failed().collect();
    assert_eq!(failed.len(), 1, "{}", report.summary());
    assert!(
        matches!(
            failed[0].1,
            ExperimentError::Sim(SimError::DeadlineExceeded { .. })
        ),
        "expected a deadline diagnosis, got: {}",
        failed[0].1
    );
    let order = settle_order(&journal.0);
    let hung = order
        .iter()
        .position(|(cell, _)| cell == "FFT@4")
        .expect("the hung cell settles");
    assert_eq!(order[hung].1, "failed");
    let later = &order[hung + 1..];
    assert!(
        !later.is_empty(),
        "no cell ran after the hung one: {order:?}"
    );
    for (cell, status) in later {
        assert_eq!(status, "completed", "{cell} settled after the hung cell");
    }
}

#[test]
fn only_cells_run_under_the_cell_deadline() {
    // A deadline shorter than any cell fails every cell with a typed
    // deadline error. The profile runs call the panicking `chip.run`:
    // had they run under it, the sweep would have panicked. An n = 1
    // cell measures its row's anchor run, so it fails in the thermal
    // solve: had the anchor run under the deadline, its simulation would
    // have failed the whole row first.
    let report = chip()
        .sweep()
        .grid(spec(vec![AppId::WaterNsq, AppId::Fft], vec![1, 2, 4]))
        .cell_deadline(Duration::from_micros(1))
        .threads(2)
        .run()
        .unwrap();

    assert_eq!(report.failed().count(), 6, "{}", report.summary());
    for (cell, reason, attempts) in report.failed() {
        assert!(
            matches!(
                reason,
                ExperimentError::Sim(SimError::DeadlineExceeded { .. })
                    | ExperimentError::Thermal(ThermalError::DeadlineExceeded { .. })
            ),
            "{}@{}: expected a deadline diagnosis, got: {reason}",
            cell.work,
            cell.n
        );
        if cell.n == 1 {
            assert!(
                matches!(
                    reason,
                    ExperimentError::Thermal(ThermalError::DeadlineExceeded { .. })
                ),
                "{}@1: expected the anchor run to finish, got: {reason}",
                cell.work
            );
        }
        assert_eq!(attempts, 1, "a cancelled cell must not be retried");
    }
}

#[test]
fn hung_executions_accumulate_strikes_until_quarantine() {
    let apps = vec![AppId::WaterNsq];
    let counts = vec![1, 2];
    let plan = FaultPlan::none().inject_work(WorkloadId::App(AppId::WaterNsq), 2, Fault::Hang);
    let journal = TempJournal::new("hung-strikes");

    // First run checkpoints; two more resume. Each records one
    // watchdog-cancelled (hung) failure for water-nsq@2 = one strike.
    for i in 0..3 {
        let c = chip();
        let b = c
            .sweep()
            .grid(spec(apps.clone(), counts.clone()))
            .faults(plan.clone())
            .cell_deadline(Duration::from_millis(100))
            .threads(1);
        let b = if i == 0 {
            b.checkpoint(&journal.0)
        } else {
            b.resume(&journal.0)
        };
        let r = b.run().unwrap();
        assert_eq!(r.failed().count(), 1, "run {i}: {}", r.summary());
    }

    // The fourth run quarantines instead of hanging a fourth time, so
    // it needs no deadline at all and still completes.
    let report = chip()
        .sweep()
        .grid(spec(apps, counts))
        .faults(plan)
        .cell_deadline(Duration::from_millis(100))
        .threads(1)
        .resume(&journal.0)
        .run()
        .unwrap();
    let quarantined: Vec<_> = report.quarantined().collect();
    assert_eq!(quarantined.len(), 1, "{}", report.summary());
    let (_, reason_chain, _, _) = quarantined[0];
    assert!(
        reason_chain[0].contains("cancelled by the watchdog"),
        "{reason_chain:?}"
    );
    // The last hung failure's full diagnosis rides along for triage.
    assert!(
        reason_chain.iter().any(|l| l.contains("simulation failed")),
        "{reason_chain:?}"
    );
}

#[test]
fn raised_interrupt_flag_stops_the_sweep_resumably() {
    let apps = vec![AppId::WaterNsq];
    let counts = vec![1, 2];
    let reference = chip()
        .sweep()
        .grid(spec(apps.clone(), counts.clone()))
        .threads(1)
        .run()
        .unwrap();
    let (_, ref_json) = report_bytes(&reference);

    // The flag is raised before the run starts: no cell may settle.
    let journal = TempJournal::new("interrupt");
    let flag = Arc::new(AtomicBool::new(true));
    let err = chip()
        .sweep()
        .grid(spec(apps.clone(), counts.clone()))
        .threads(1)
        .checkpoint(&journal.0)
        .interrupt(flag)
        .run()
        .unwrap_err();
    let ExperimentError::Interrupted(info) = err else {
        panic!("expected an interrupt, got: {err}");
    };
    assert_eq!(info.completed_cells, 0);
    assert_eq!(info.total_cells, 2);

    // The journal was created and flushed; resuming with the flag clear
    // finishes the sweep to the uninterrupted bytes.
    assert!(journal.0.exists());
    let resumed = chip()
        .sweep()
        .grid(spec(apps, counts))
        .threads(1)
        .resume(&journal.0)
        .run()
        .unwrap();
    assert_eq!(report_bytes(&resumed).1, ref_json);
}

#[test]
fn resumed_row_profiles_only_the_counts_its_unsettled_cells_need() {
    let apps = vec![AppId::WaterNsq];
    let counts = vec![1, 2, 4, 8];
    let reference = chip()
        .sweep()
        .grid(spec(apps.clone(), counts.clone()))
        .threads(1)
        .run()
        .unwrap();

    // A journal that holds the row's cells at 1 and 2 cores only.
    let journal = TempJournal::new("partial-row");
    chip()
        .sweep()
        .grid(spec(apps.clone(), counts.clone()))
        .threads(1)
        .checkpoint(&journal.0)
        .run()
        .unwrap();
    let text = std::fs::read_to_string(&journal.0).unwrap();
    let kept: String = text
        .split_inclusive('\n')
        .enumerate()
        .filter(|(i, line)| *i == 0 || line.contains("\"n\":1,") || line.contains("\"n\":2,"))
        .map(|(_, line)| line)
        .collect();
    std::fs::write(&journal.0, kept).unwrap();

    let (resumed, trace) = chip()
        .sweep()
        .grid(spec(apps, counts))
        .threads(2)
        .resume(&journal.0)
        .run_traced()
        .unwrap();
    assert_eq!(report_bytes(&resumed), report_bytes(&reference));
    assert_eq!(trace.counter("sweep.cells_resumed"), Some(2));
    // The anchor's single-core run plus one profile run and one cell run
    // for each of the two unsettled counts: the settled counts are not
    // profiled again.
    let mut profiled: Vec<&str> = trace
        .spans_named("profile")
        .map(|s| s.detail.as_str())
        .collect();
    profiled.sort_unstable();
    assert_eq!(profiled, ["Water-Nsq@1", "Water-Nsq@4", "Water-Nsq@8"]);
    assert_eq!(trace.counter("sim.runs"), Some(5));
}

#[test]
fn interrupt_mid_graph_resumes_to_the_same_bytes() {
    // FFT@2 hangs until its cell deadline. A watcher raises the interrupt
    // flag once the journal holds that cell's start record, so the run
    // stops inside the task graph while the hung cell still holds its
    // worker.
    let apps = vec![AppId::WaterNsq, AppId::Fft];
    let counts = vec![1, 2, 4, 8];
    let plan = FaultPlan::none().inject_work(WorkloadId::App(AppId::Fft), 2, Fault::Hang);
    let chip = chip();
    let configured = |threads: usize| {
        chip.sweep()
            .grid(spec(apps.clone(), counts.clone()))
            .faults(plan.clone())
            .cell_deadline(Duration::from_millis(500))
            .threads(threads)
    };

    // The uninterrupted reference fails FFT@2 past its deadline. One
    // worker pops the newest task first, so FFT@8 and FFT@4 settle before
    // the hung cell, and FFT@1 and the Water-Nsq row after it.
    let ref_journal = TempJournal::new("mid-graph-reference");
    let reference = configured(1).checkpoint(&ref_journal.0).run().unwrap();
    let order = settle_order(&ref_journal.0);
    assert_eq!(
        order[..3],
        [
            ("FFT@8".to_string(), "completed".to_string()),
            ("FFT@4".to_string(), "completed".to_string()),
            ("FFT@2".to_string(), "failed".to_string()),
        ],
        "{order:?}"
    );
    let failed: Vec<_> = reference.failed().collect();
    assert!(
        matches!(
            failed[..],
            [(
                _,
                ExperimentError::Sim(SimError::DeadlineExceeded { cycle: 0 }),
                1
            )]
        ),
        "{}",
        reference.summary()
    );

    for threads in [1, 2] {
        let journal = TempJournal::new("mid-graph");
        let flag = Arc::new(AtomicBool::new(false));
        let finished = AtomicBool::new(false);
        let err = std::thread::scope(|s| {
            s.spawn(|| {
                while !finished.load(Ordering::SeqCst) {
                    let text = std::fs::read_to_string(&journal.0).unwrap_or_default();
                    if journal_cells(&text, "start")
                        .iter()
                        .any(|(cell, _)| cell == "FFT@2")
                    {
                        flag.store(true, Ordering::SeqCst);
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            let result = configured(threads)
                .checkpoint(&journal.0)
                .interrupt(Arc::clone(&flag))
                .run();
            finished.store(true, Ordering::SeqCst);
            result
        })
        .unwrap_err();
        let ExperimentError::Interrupted(info) = err else {
            panic!("expected an interrupt, got: {err}");
        };
        assert_eq!(info.total_cells, 8);
        if threads == 1 {
            // FFT@8, FFT@4 and the hung FFT@2 itself.
            assert_eq!(info.completed_cells, 3, "{info}");
        } else {
            // FFT@1 is queued beneath FFT@2, and the Water-Nsq cells wait
            // on their row's anchor, the oldest task in the queue.
            assert!((1..8).contains(&info.completed_cells), "{info}");
        }

        let resumed = configured(threads).resume(&journal.0).run().unwrap();
        assert_eq!(report_bytes(&resumed), report_bytes(&reference));
    }
}
