//! End-to-end contract of the open-loop server workload: request-latency
//! digests ride through the sweep into the JSON report, the payload is
//! byte-identical for any worker count, a killed-and-resumed journaled
//! run reproduces the uninterrupted bytes, and two golden snapshots pin
//! the latency field shapes (`tests/golden/server_sweep_report.json`,
//! `tests/golden/server_request_summary.json`).
//!
//! To regenerate the snapshots after an intentional change:
//!
//! ```console
//! $ REGEN_GOLDEN=1 cargo test --test server_workload
//! $ git diff tests/golden/
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cmp_tlp::jsonout::request_summary_json;
use cmp_tlp::scenario1::RequestSummary;
use cmp_tlp::sweep::{CellOutcome, SweepReport, SweepSpec, WorkloadId};
use cmp_tlp::ExperimentalChip;
use tlp_sim::ChipSpec;
use tlp_tech::json::{Json, ToJson};
use tlp_tech::Technology;
use tlp_workloads::{AppId, Scale, ServerSpec};

const SEED: u64 = 0x5E12;

fn chip() -> ExperimentalChip {
    ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm())
}

/// A mixed grid: one batch application next to two offered loads, so
/// every test sees both row kinds side by side.
fn spec() -> SweepSpec {
    SweepSpec {
        server_loads: vec![2_000_000, 5_000_000],
        apps: vec![AppId::WaterNsq],
        core_counts: vec![1, 2],
        scale: Scale::Test,
        seed: SEED,
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// Same contract as `json_roundtrip.rs`: parse∘print identity on both
/// renderings, then byte-compare (or regenerate) the golden snapshot.
fn assert_roundtrip_and_golden(name: &str, doc: &Json) {
    let pretty = doc.to_string_pretty();
    let compact = doc.to_string_compact();
    assert_eq!(
        &Json::parse(&pretty).expect("pretty output must parse"),
        doc,
        "{name}: pretty parse∘print is not the identity"
    );
    assert_eq!(
        &Json::parse(&compact).expect("compact output must parse"),
        doc,
        "{name}: compact parse∘print is not the identity"
    );

    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, pretty + "\n").expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(run `REGEN_GOLDEN=1 cargo test --test server_workload` \
             to create it)",
            path.display()
        )
    });
    assert_eq!(
        expected.trim_end(),
        pretty,
        "{name}: golden snapshot drifted; regenerate with REGEN_GOLDEN=1 if intentional"
    );
}

/// A scratch journal path, deleted on drop.
struct TempJournal(PathBuf);

impl TempJournal {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        Self(std::env::temp_dir().join(format!(
            "cmp-tlp-server-test-{tag}-{}-{unique}.journal",
            std::process::id()
        )))
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn request_rows(report: &SweepReport) -> Vec<(WorkloadId, usize, Option<RequestSummary>)> {
    report
        .cells
        .iter()
        .map(|(cell, outcome)| {
            let requests = match outcome {
                CellOutcome::Completed { row, .. } => row.requests.clone(),
                _ => None,
            };
            (cell.work, cell.n, requests)
        })
        .collect()
}

#[test]
fn server_sweep_is_byte_identical_across_thread_counts() {
    let chip = chip();
    let serial = chip.sweep().grid(spec()).threads(1).run().expect("serial");
    let parallel = chip
        .sweep()
        .grid(spec())
        .threads(4)
        .run()
        .expect("parallel");

    assert_eq!(
        serial.to_json().to_string_pretty(),
        parallel.to_json().to_string_pretty()
    );
    assert_eq!(
        format!("{:?}", serial.cells),
        format!("{:?}", parallel.cells)
    );

    // Every cell completed; server rows carry latency digests that obey
    // the queueing sanity ordering, batch rows carry none.
    assert!(serial.cells.iter().all(|(_, o)| o.is_completed()));
    for (work, n, requests) in request_rows(&serial) {
        match work {
            WorkloadId::App(_) => assert!(requests.is_none(), "{work:?}@{n} has a digest"),
            WorkloadId::Server { rps } => {
                let r = requests.unwrap_or_else(|| panic!("{work:?}@{n} lost its digest"));
                assert_eq!(r.offered_rps, rps);
                assert!(r.completed > 0, "{work:?}@{n} completed no requests");
                assert!(r.throughput_rps > 0.0);
                assert!(
                    r.p50_s > 0.0 && r.p50_s <= r.p90_s && r.p90_s <= r.p99_s,
                    "percentiles out of order: {r:?}"
                );
                assert!(r.p99_s <= r.max_s, "p99 above max: {r:?}");
                assert!(r.queue_depth_peak >= 1);
                assert!(r.energy_per_request_j > 0.0);
            }
        }
    }

    // The latency fields are visible in the JSON payload in display
    // units (µs / µJ), and batch rows render them as null.
    let json = serial.to_json().to_string_compact();
    for key in [
        "\"offered_rps\":2000000",
        "\"offered_rps\":5000000",
        "\"p50_us\":",
        "\"p99_us\":",
        "\"queue_depth_peak\":",
        "\"energy_per_request_uj\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    assert!(json.contains("\"requests\":null"), "{json}");
}

#[test]
fn killed_and_resumed_server_sweep_is_byte_identical() {
    let chip = chip();
    let reference = chip
        .sweep()
        .grid(spec())
        .threads(1)
        .run()
        .expect("reference");
    let ref_json = reference.to_json().to_string_pretty();

    let journal = TempJournal::new("kill-resume");
    let full = chip
        .sweep()
        .grid(spec())
        .threads(1)
        .checkpoint(&journal.0)
        .run()
        .expect("checkpointed");
    assert_eq!(full.to_json().to_string_pretty(), ref_json);

    // "Kill" the run after its second settled record: the surviving
    // prefix includes at least one server cell outcome, everything past
    // it is lost and must be re-run to identical bytes.
    let text = std::fs::read_to_string(&journal.0).expect("read journal");
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    assert!(lines.len() > 3, "expected several journal records");
    std::fs::write(&journal.0, lines[..3].concat()).expect("truncate journal");

    let resumed = chip
        .sweep()
        .grid(spec())
        .threads(1)
        .resume(&journal.0)
        .run()
        .expect("resumed");
    assert_eq!(resumed.to_json().to_string_pretty(), ref_json);

    // A second resume splices every settled server cell from the journal
    // without re-running it — still byte-identical, proving the digest
    // survives the journal roundtrip bit-exactly.
    let respliced = chip
        .sweep()
        .grid(spec())
        .threads(1)
        .resume(&journal.0)
        .run()
        .expect("respliced");
    assert_eq!(respliced.to_json().to_string_pretty(), ref_json);
}

#[test]
fn server_sweep_report_matches_golden_snapshot() {
    let report = chip().sweep().grid(spec()).threads(1).run().expect("sweep");
    assert_roundtrip_and_golden("server_sweep_report", &report.to_json());
}

#[test]
fn request_summary_matches_golden_snapshot() {
    // One direct run outside the sweep machinery: a 2-core gang at the
    // nominal operating point, measured, digested, rendered.
    let chip = chip();
    let op = chip.config().operating_point;
    let rps = 2_000_000;
    let programs = ServerSpec::standard(rps, Scale::Test).gang(2, SEED, op.frequency);
    let run = chip.try_run(programs, op).expect("server run");
    let stats = run.requests.as_ref().expect("server run tracks requests");
    let m = chip
        .try_measure(&run, op.voltage, &tlp_thermal::FixpointOptions::default())
        .expect("measure");
    let summary = RequestSummary::from_stats(
        stats,
        rps,
        op.frequency,
        m.total().as_f64(),
        run.execution_time().as_f64(),
    );
    assert_eq!(summary.offered_rps, rps);
    assert_roundtrip_and_golden("server_request_summary", &request_summary_json(&summary));
}
