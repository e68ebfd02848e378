//! End-to-end contracts of the heterogeneous chip-spec redesign.
//!
//! The one-code-path invariant: the one-class [`ChipSpec`] must be
//! indistinguishable — JSON bytes and journal records — from the same
//! hardware described as two identical classes, and must carry no chip
//! tag. On top of that, heterogeneous
//! (big.LITTLE) sweeps keep every determinism and crash-safety property
//! the homogeneous engine has: parallel runs match serial runs
//! byte-for-byte, a killed-and-resumed journaled run reproduces the
//! uninterrupted report, and a heterogeneous resume is refused against a
//! homogeneous journal (and vice versa) with a typed `SpecMismatch`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cmp_tlp::error::ExperimentError;
use cmp_tlp::journal::JournalError;
use cmp_tlp::sweep::{SweepReport, SweepSpec};
use cmp_tlp::{report, ExperimentalChip};
use tlp_analytic::BudgetSpec;
use tlp_sim::{ChipSpec, CoreClass};
use tlp_tech::json::ToJson;
use tlp_tech::Technology;
use tlp_workloads::{AppId, Scale};

const SEED: u64 = 0x8E7E_2005;

fn spec(apps: Vec<AppId>, counts: Vec<usize>) -> SweepSpec {
    SweepSpec {
        server_loads: Vec::new(),
        apps,
        core_counts: counts,
        scale: Scale::Test,
        seed: SEED,
    }
}

fn report_bytes(r: &SweepReport) -> (String, String) {
    (format!("{:?}", r.cells), r.to_json().to_string_pretty())
}

/// A scratch journal path, deleted on drop.
struct TempJournal(PathBuf);

impl TempJournal {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        Self(std::env::temp_dir().join(format!(
            "cmp-tlp-hetero-test-{tag}-{}-{unique}.journal",
            std::process::id()
        )))
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The one-code-path invariant: `ChipSpec::ispass05(16)` sweeps exactly
/// like the same hardware split into two identical 8-core base-domain
/// classes — same cells, same report bytes apart from the split chip's
/// tag, same journal records — and carries no `chip` axis anywhere.
#[test]
fn homogeneous_spec_is_byte_identical_to_legacy_config() {
    let apps = vec![AppId::WaterNsq, AppId::Fft];
    let counts = vec![1, 2, 4, 8, 12, 16];

    let one_class = ChipSpec::ispass05(16);
    let half = CoreClass {
        count: 8,
        ..one_class.classes[0].clone()
    };
    let split = ChipSpec {
        classes: vec![half.clone(), half],
        ..one_class.clone()
    };
    let split_chip = ExperimentalChip::from_spec(split, Technology::itrs_65nm());
    let one_class_chip = ExperimentalChip::from_spec(one_class, Technology::itrs_65nm());

    let split_journal = TempJournal::new("split");
    let modern_journal = TempJournal::new("modern");
    let mut split_report = split_chip
        .sweep()
        .grid(spec(apps.clone(), counts.clone()))
        .threads(1)
        .checkpoint(&split_journal.0)
        .run()
        .unwrap();
    let modern_report = one_class_chip
        .sweep()
        .grid(spec(apps, counts))
        .threads(1)
        .checkpoint(&modern_journal.0)
        .run()
        .unwrap();

    // The split chip is tagged with its two classes; nothing else differs.
    assert_eq!(
        split_report.chip.as_deref(),
        Some("ev6:8w4@1/1+ev6:8w4@1/1")
    );
    split_report.chip = None;
    assert_eq!(report_bytes(&split_report), report_bytes(&modern_report));
    // Past the header, whose fingerprint covers the tag, every journal
    // record is byte-identical too.
    let split_text = std::fs::read_to_string(&split_journal.0).unwrap();
    let modern_text = std::fs::read_to_string(&modern_journal.0).unwrap();
    assert_eq!(
        split_text.lines().skip(1).collect::<Vec<_>>(),
        modern_text.lines().skip(1).collect::<Vec<_>>()
    );
    // Homogeneous chips carry no heterogeneity axis anywhere.
    assert!(modern_report.chip.is_none());
    assert!(!modern_report
        .to_json()
        .to_string_pretty()
        .contains("\"chip\""));
    assert!(!modern_text.contains("\"chip\""));
}

/// A big.LITTLE sweep keeps the determinism contract: any worker count
/// reproduces the serial outcome sequence and JSON bytes exactly, and
/// the report names the heterogeneous chip.
#[test]
fn big_little_sweep_is_deterministic_across_thread_counts() {
    let chip = ExperimentalChip::from_spec(ChipSpec::big_little(4, 12), Technology::itrs_65nm());
    let s = spec(vec![AppId::WaterNsq, AppId::Fft], vec![1, 2, 4, 8]);

    let serial = chip.sweep().grid(s.clone()).threads(1).run().unwrap();
    let threaded = chip.sweep().grid(s).threads(2).run().unwrap();

    assert_eq!(report_bytes(&serial), report_bytes(&threaded));
    assert!(serial.cells.iter().all(|(_, o)| o.is_completed()));
    assert_eq!(serial.chip.as_deref(), Some("big:4w4@1/1+little:12w2@1/2"));
    assert!(serial
        .to_json()
        .to_string_pretty()
        .contains("\"chip\": \"big:4w4@1/1+little:12w2@1/2\""));
}

/// Crash safety on a heterogeneous grid: a journaled big.LITTLE sweep
/// "killed" mid-run (journal truncated at a record boundary) and resumed
/// reproduces the uninterrupted report byte-for-byte.
#[test]
fn killed_and_resumed_big_little_sweep_is_byte_identical() {
    let chip = ExperimentalChip::from_spec(ChipSpec::big_little(2, 6), Technology::itrs_65nm());
    let s = spec(vec![AppId::WaterNsq, AppId::Fft], vec![1, 2, 4]);

    let reference = chip.sweep().grid(s.clone()).threads(1).run().unwrap();
    let (ref_dbg, ref_json) = report_bytes(&reference);

    let journal = TempJournal::new("kill-resume");
    let full = chip
        .sweep()
        .grid(s.clone())
        .threads(1)
        .checkpoint(&journal.0)
        .run()
        .unwrap();
    assert_eq!(report_bytes(&full), (ref_dbg.clone(), ref_json.clone()));
    // The heterogeneity tag is part of the journal header, so the file
    // can never be mistaken for a homogeneous run's journal.
    let text = std::fs::read_to_string(&journal.0).unwrap();
    assert!(text.contains("big:2w4@1/1+little:6w2@1/2"), "{text}");

    // "Kill" the run after its second record.
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    assert!(lines.len() > 3, "expected several journal records");
    std::fs::write(&journal.0, lines[..3].concat()).unwrap();

    let resumed = chip
        .sweep()
        .grid(s)
        .threads(1)
        .resume(&journal.0)
        .run()
        .unwrap();
    assert_eq!(report_bytes(&resumed), (ref_dbg, ref_json));
}

/// A heterogeneous resume must refuse a homogeneous journal (and the
/// reverse) with a typed `SpecMismatch` — never splice rows measured on
/// a different chip.
#[test]
fn heterogeneous_resume_refuses_homogeneous_journal() {
    let s = spec(vec![AppId::WaterNsq], vec![1, 2]);
    let journal = TempJournal::new("homo-journal");
    ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm())
        .sweep()
        .grid(s.clone())
        .threads(1)
        .checkpoint(&journal.0)
        .run()
        .unwrap();

    // Same grid, heterogeneous chip: the fingerprints must differ.
    let err = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm())
        .sweep()
        .grid(s.clone())
        .core_mix(4, 12)
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

    // And the reverse: a homogeneous resume against a heterogeneous
    // journal is refused the same way.
    let hetero_journal = TempJournal::new("hetero-journal");
    ExperimentalChip::from_spec(ChipSpec::big_little(4, 12), Technology::itrs_65nm())
        .sweep()
        .grid(s.clone())
        .threads(1)
        .checkpoint(&hetero_journal.0)
        .run()
        .unwrap();
    let err = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm())
        .sweep()
        .grid(s)
        .threads(1)
        .resume(&hetero_journal.0)
        .run()
        .unwrap_err();
    assert!(
        matches!(
            err,
            ExperimentError::Journal(JournalError::SpecMismatch { .. })
        ),
        "expected a spec mismatch, got: {err}"
    );
}

/// The dark-silicon budget axes: a budgeted big.LITTLE sweep reports the
/// fit in the JSON payload (`dark_silicon` per completed cell, `budget`
/// axes at the top) and in the human listing.
#[test]
fn budgeted_sweep_reports_dark_silicon_everywhere() {
    let chip = ExperimentalChip::from_spec(ChipSpec::big_little(4, 12), Technology::itrs_65nm());
    let r = chip
        .sweep()
        .grid(spec(vec![AppId::WaterNsq], vec![1, 2, 4]))
        .budget(BudgetSpec {
            area_mm2: 111.0,
            tdp_watts: 125.0,
        })
        .threads(1)
        .run()
        .unwrap();

    assert_eq!(r.chip.as_deref(), Some("big:4w4@1/1+little:12w2@1/2"));
    let axes = r.budget.expect("budget axes are armed");
    assert_eq!(axes.spec.area_mm2, 111.0);
    assert_eq!(axes.spec.tdp_watts, 125.0);
    assert!(axes.core_area_mm2 > 0.0);

    // Every completed row has a fit with a sane ratio.
    let mut rows = 0;
    for (_, row) in r.completed() {
        let fit = r.dark_silicon(row).expect("one core always fits");
        assert!(fit.n_cores >= 1);
        assert!((0.0..=1.0).contains(&fit.dark_silicon_ratio));
        rows += 1;
    }
    assert_eq!(rows, 3);

    // JSON payload: budget axes at the top, a dark_silicon object per
    // completed cell.
    let json = r.to_json().to_string_pretty();
    assert!(json.contains("\"budget\""), "{json}");
    assert!(json.contains("\"area_mm2\": 111"), "{json}");
    assert!(json.contains("\"tdp_watts\": 125"), "{json}");
    assert!(
        json.matches("\"dark_silicon_ratio\"").count() == 3,
        "{json}"
    );

    // Human listing: the chip tag, the budget header, and one dark-
    // silicon line per completed row.
    let listing = report::sweep_cells(&r);
    assert!(
        listing.contains("chip: big:4w4@1/1+little:12w2@1/2"),
        "{listing}"
    );
    assert!(
        listing.contains("budget: 111.0 mm² / 125.0 W TDP"),
        "{listing}"
    );
    assert_eq!(listing.matches("dark silicon").count(), 3, "{listing}");
}
