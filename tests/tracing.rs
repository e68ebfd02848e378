//! End-to-end tracing acceptance tests: the span tree a traced sweep
//! produces is deterministic across thread counts, the Chrome
//! `trace_event` export parses with the in-tree JSON parser and names
//! every pipeline stage, and the human summary table is pinned by a
//! golden snapshot.
//!
//! To regenerate snapshots after an intentional change:
//!
//! ```console
//! $ REGEN_GOLDEN=1 cargo test --test tracing
//! $ git diff tests/golden/   # review what actually changed
//! ```

use std::path::PathBuf;

use cmp_tlp::obs::metrics::{Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
use cmp_tlp::obs::{chrome, summary, SpanRec};
use cmp_tlp::prelude::*;
use tlp_sim::ChipSpec;
use tlp_tech::json::Json;
use tlp_tech::Technology;

fn chip() -> ExperimentalChip {
    ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm())
}

fn spec() -> SweepSpec {
    SweepSpec {
        server_loads: Vec::new(),
        apps: vec![AppId::WaterNsq, AppId::Fft],
        core_counts: vec![1, 2],
        scale: Scale::Test,
        seed: 7,
    }
}

/// The logical span tree — and the counter totals — must not depend on
/// how the work was scheduled: a serial run and a 4-worker run of the
/// same grid do the same work, span for span.
#[test]
fn traced_span_tree_is_identical_for_any_thread_count() {
    let chip = chip();
    let (serial_report, serial_trace) = chip
        .sweep()
        .grid(spec())
        .threads(1)
        .run_traced()
        .expect("serial traced sweep");
    let (parallel_report, parallel_trace) = chip
        .sweep()
        .grid(spec())
        .threads(4)
        .run_traced()
        .expect("parallel traced sweep");

    assert!(serial_report.cells.iter().all(|(_, o)| o.is_completed()));
    assert_eq!(
        format!("{:?}", serial_report.cells),
        format!("{:?}", parallel_report.cells)
    );
    assert_eq!(serial_trace.span_tree(), parallel_trace.span_tree());
    // The counted work is identical too, not just the span shape.
    assert_eq!(serial_trace.counters, parallel_trace.counters);
    // One profile run per (app, count): n = 1 inside its row's
    // `sweep.prep` anchor, every other count a task of its own.
    let tree = serial_trace.span_tree();
    let profiles: Vec<&str> = tree
        .lines()
        .filter(|l| l.trim_start().starts_with("profile"))
        .collect();
    assert_eq!(
        profiles,
        [
            "profile [FFT@2]",
            "profile [Water-Nsq@2]",
            "  profile [FFT@1]",
            "  profile [Water-Nsq@1]",
        ],
        "{tree}"
    );
    assert_eq!(
        serial_trace.counter("sim.runs"),
        Some(6),
        "4 profile + 2 cell runs"
    );
}

/// The Chrome export of a real traced sweep parses with the in-tree
/// JSON parser and names every stage of the pipeline, from the sweep
/// driver down to the thermal fixpoint.
#[test]
fn chrome_export_parses_and_names_every_pipeline_stage() {
    let chip = chip();
    let (_, trace) = chip
        .sweep()
        .grid(spec())
        .threads(2)
        .run_traced()
        .expect("traced sweep");
    let rendered = chrome::render(&trace);
    let parsed = Json::parse(&rendered).expect("chrome trace must parse");

    let Json::Obj(pairs) = parsed else {
        panic!("top level must be an object");
    };
    let Some(Json::Arr(events)) = pairs
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
    else {
        panic!("traceEvents array missing");
    };

    let mut span_names = Vec::new();
    let mut counter_names = Vec::new();
    for ev in events {
        let Json::Obj(fields) = ev else {
            panic!("event is not an object");
        };
        let field = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let Some(Json::Str(ph)) = field("ph") else {
            panic!("event has no phase");
        };
        let Some(Json::Str(name)) = field("name") else {
            panic!("event has no name");
        };
        match ph.as_str() {
            "X" => span_names.push(name.clone()),
            "C" => counter_names.push(name.clone()),
            other => panic!("unexpected phase '{other}'"),
        }
    }
    for expected in [
        "sweep.run",
        "sweep.prep",
        "sweep.baseline",
        "sweep.cell",
        "profile",
        "sim.run",
        "chip.measure",
        "thermal.fixpoint",
    ] {
        assert!(
            span_names.iter().any(|n| n == expected),
            "span '{expected}' missing from chrome export; got {span_names:?}"
        );
    }
    for expected in [
        "sim.runs",
        "thermal.fixpoint_iterations",
        "linalg.lu_solves",
    ] {
        assert!(
            counter_names.iter().any(|n| n == expected),
            "counter '{expected}' missing from chrome export"
        );
    }
}

/// A fixed synthetic trace (hand-built timestamps, no wall clock) so the
/// two renderers can be pinned byte-for-byte by golden snapshots.
fn synthetic_trace() -> Trace {
    let span = |id, parent, tid, name: &'static str, detail: &str, start_ns, dur_ns| SpanRec {
        id,
        parent,
        tid,
        name,
        detail: detail.to_string(),
        start_ns,
        dur_ns,
    };
    Trace {
        spans: vec![
            span(1, 0, 0, "sweep.run", "", 0, 50_000),
            span(2, 0, 1, "sweep.prep", "fft", 1_000, 20_000),
            span(3, 2, 1, "profile", "fft", 1_500, 9_000),
            span(4, 2, 1, "sweep.baseline", "fft", 11_000, 9_500),
            span(5, 0, 1, "sweep.cell", "fft@2", 22_000, 12_000),
            span(6, 5, 1, "sim.run", "", 22_500, 6_000),
            span(7, 5, 1, "chip.measure", "", 29_000, 4_800),
            span(8, 7, 1, "thermal.fixpoint", "", 29_200, 4_400),
        ],
        counters: vec![
            ("sim.runs", 3),
            ("sim.cycles_retired", 180_000),
            ("thermal.fixpoint_iterations", 11),
            ("thermal.fixpoint_failures", 0),
            ("linalg.lu_solves", 14),
            ("sweep.cells_completed", 1),
        ],
        histograms: vec![
            histogram("thermal.fixpoint_iterations_per_solve", &[3, 4, 4]),
            histogram("linalg.lu_dimension", &[]),
        ],
    }
}

/// Builds a [`HistogramSnapshot`] the way the live histogram would.
fn histogram(name: &'static str, samples: &[u64]) -> HistogramSnapshot {
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    let mut sum = 0;
    let mut max = 0;
    for &v in samples {
        buckets[Histogram::bucket_of(v)] += 1;
        sum += v;
        max = max.max(v);
    }
    HistogramSnapshot {
        name,
        buckets,
        count: samples.len() as u64,
        sum,
        max,
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// Compares `actual` against (or regenerates) `tests/golden/<name>`.
fn assert_golden_text(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "golden {name} drifted; run with REGEN_GOLDEN=1 and review the diff"
    );
}

#[test]
fn trace_summary_table_matches_golden_snapshot() {
    assert_golden_text("trace_summary.txt", &summary::render(&synthetic_trace()));
}

#[test]
fn chrome_rendering_matches_golden_snapshot() {
    assert_golden_text("trace_chrome.json", &chrome::render(&synthetic_trace()));
}
