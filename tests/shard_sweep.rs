//! End-to-end tests for distributed sweep sharding: a single worker
//! over a real socket reproduces the plain sweep byte for byte, and a
//! core-mix + budget sweep too; the
//! merge refuses overlaps and gaps with typed errors; zombie uploads
//! hit idempotent completion and forged segments a typed conflict; a
//! worker killed with the real `kill -9` (process abort) mid-range is
//! reassigned and the merged report still matches the CLI's `--json`
//! bytes; a repeat submission is served whole from the cell cache; and
//! the `?wait=` long-poll returns early on progress and clamps under
//! the request deadline.

mod common;

use std::net::SocketAddr;
use std::process::Command;
use std::time::{Duration, Instant};

use cmp_tlp::journal::fnv64;
use cmp_tlp::shard::{merge_segments, run_worker, subspec, MergeError, WorkRange, WorkerConfig};
use cmp_tlp::sweep::SweepSpec;
use common::{chip, get, grid_report, post, reference_report, send, test_config, Harness, TempDir};
use tlp_analytic::BudgetSpec;
use tlp_workloads::{AppId, Scale};

const SEED: u64 = 0x5A4D;

fn put(addr: SocketAddr, path: &str, body: &str) -> common::Reply {
    send(addr, "PUT", path, body)
}

/// Extracts a `"key": "value"` string field from a pretty JSON body.
fn str_field(body: &str, key: &str) -> String {
    let needle = format!("\"{key}\": \"");
    body.split(&needle)
        .nth(1)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        .split('"')
        .next()
        .unwrap()
        .to_string()
}

fn test_spec() -> SweepSpec {
    SweepSpec {
        apps: vec![AppId::Fft, AppId::Lu],
        server_loads: Vec::new(),
        core_counts: vec![1, 2],
        scale: Scale::Test,
        seed: SEED,
    }
}

fn submission(lease_works: usize, lease_secs: u64) -> String {
    format!(
        "{{\"apps\":[\"fft\",\"lu\"],\"core_counts\":[1,2],\"scale\":\"test\",\
         \"seed\":{SEED},\"lease_works\":{lease_works},\"lease_secs\":{lease_secs}}}"
    )
}

fn worker_config(addr: SocketAddr, shard: &str, name: &str, dir: &TempDir) -> WorkerConfig {
    WorkerConfig {
        coordinator: addr.to_string(),
        shard: Some(shard.to_string()),
        name: name.to_string(),
        threads: 1,
        poll: Duration::from_millis(50),
        max_leases: None,
        work_dir: dir.0.join(name),
        api_key: None,
        chaos_abort_before_upload: false,
        interrupt: None,
    }
}

/// A worker's journal segment for one range, computed exactly the way
/// the worker loop computes it.
fn segment_text(spec: &SweepSpec, range: WorkRange, dir: &TempDir, tag: &str) -> String {
    let journal = dir.0.join(format!("segment-{tag}.journal"));
    chip()
        .sweep()
        .grid(subspec(spec, range))
        .threads(1)
        .checkpoint(&journal)
        .run()
        .expect("segment sweep");
    std::fs::read_to_string(&journal).expect("segment journal")
}

#[test]
fn a_single_worker_reproduces_the_plain_sweep_over_http() {
    let dir = TempDir::new("single");
    let server = Harness::start(test_config(&dir));
    let addr = server.addr;

    // One range covering the whole grid: the degenerate single-worker
    // partition must be indistinguishable from not sharding at all.
    let reply = post(addr, "/shards", &submission(16, 60));
    assert_eq!(reply.status, 201, "create failed: {}", reply.body);
    let id = str_field(&reply.body, "id");

    let summary = run_worker(&worker_config(addr, &id, "solo", &dir)).expect("worker run");
    assert_eq!((summary.leases, summary.segments), (1, 1));

    let status = get(addr, &format!("/shards/{id}"));
    assert_eq!(str_field(&status.body, "state"), "merged");
    let report = get(addr, &format!("/shards/{id}/report"));
    assert_eq!(report.status, 200, "report failed: {}", report.body);
    assert_eq!(report.body, grid_report(test_spec()));
}

#[test]
fn a_core_mix_and_budget_shard_merges_to_the_builders_exact_bytes() {
    let dir = TempDir::new("hetero");
    let server = Harness::start(test_config(&dir));
    let addr = server.addr;

    let reply = post(
        addr,
        "/shards",
        &format!(
            "{{\"apps\":[\"fft\",\"lu\"],\"core_counts\":[1,2],\"scale\":\"test\",\"seed\":{SEED},\
             \"core_mix\":[4,12],\"budget\":{{\"area_mm2\":111,\"tdp_watts\":125}},\
             \"lease_works\":16,\"lease_secs\":60}}"
        ),
    );
    assert_eq!(reply.status, 201, "create failed: {}", reply.body);
    let id = str_field(&reply.body, "id");
    let summary = run_worker(&worker_config(addr, &id, "solo", &dir)).expect("worker run");
    assert_eq!((summary.leases, summary.segments), (1, 1));

    let report = get(addr, &format!("/shards/{id}/report"));
    assert_eq!(report.status, 200, "report failed: {}", report.body);
    let expected = reference_report(|b| {
        b.grid(test_spec()).core_mix(4, 12).budget(BudgetSpec {
            area_mm2: 111.0,
            tdp_watts: 125.0,
        })
    });
    assert!(expected.contains("\"dark_silicon_ratio\""), "{expected}");
    assert_eq!(report.body, expected, "merged report is not byte-identical");
}

#[test]
fn the_merge_refuses_overlaps_and_gaps_with_typed_errors() {
    let dir = TempDir::new("coverage");
    std::fs::create_dir_all(&dir.0).unwrap();
    let spec = test_spec();
    let whole = segment_text(&spec, WorkRange { lo: 0, hi: 2 }, &dir, "whole");
    let second = segment_text(&spec, WorkRange { lo: 1, hi: 2 }, &dir, "second");

    // Rows [1, 2) covered twice: refused as an overlap, naming the row.
    let overlap = merge_segments(
        &spec,
        None,
        &[
            (WorkRange { lo: 0, hi: 2 }, whole.as_str()),
            (WorkRange { lo: 1, hi: 2 }, second.as_str()),
        ],
    );
    match overlap {
        Err(MergeError::Overlap { ref work }) => assert_eq!(work, "LU"),
        other => panic!("overlap must be refused, got {other:?}"),
    }

    // Rows [0, 1) never covered: refused as a gap.
    let gap = merge_segments(
        &spec,
        None,
        &[(WorkRange { lo: 1, hi: 2 }, second.as_str())],
    );
    match gap {
        Err(MergeError::Gap { ref work }) => assert_eq!(work, "FFT"),
        other => panic!("gap must be refused, got {other:?}"),
    }

    // The exact partition merges, and into the same bytes regardless of
    // how the grid was cut.
    let first = segment_text(&spec, WorkRange { lo: 0, hi: 1 }, &dir, "first");
    let split = merge_segments(
        &spec,
        None,
        &[
            (WorkRange { lo: 0, hi: 1 }, first.as_str()),
            (WorkRange { lo: 1, hi: 2 }, second.as_str()),
        ],
    )
    .expect("exact partition merges");
    let unsplit = merge_segments(&spec, None, &[(WorkRange { lo: 0, hi: 2 }, whole.as_str())])
        .expect("single segment merges");
    assert_eq!(split, unsplit, "merge must not depend on the partitioning");
}

#[test]
fn zombies_hit_idempotence_and_forgeries_a_typed_conflict() {
    let dir = TempDir::new("zombie");
    std::fs::create_dir_all(&dir.0).unwrap();
    let server = Harness::start(test_config(&dir));
    let addr = server.addr;
    let spec = test_spec();

    // Two single-row ranges under 1-second leases.
    let reply = post(addr, "/shards", &submission(1, 1));
    assert_eq!(reply.status, 201, "create failed: {}", reply.body);
    let id = str_field(&reply.body, "id");

    let claim = post(addr, &format!("/shards/{id}/lease"), "{\"worker\":\"z\"}");
    assert_eq!(claim.status, 200, "claim failed: {}", claim.body);
    assert_eq!(str_field(&claim.body, "status"), "granted");
    let lease = str_field(&claim.body, "lease");
    let text = segment_text(&spec, WorkRange { lo: 0, hi: 1 }, &dir, "z");

    // A torn upload is rejected with a typed 422 and the range stays
    // open.
    let torn = put(
        addr,
        &format!("/leases/{lease}/segment"),
        &text[..text.len() - 9],
    );
    assert_eq!(torn.status, 422, "torn upload must be 422: {}", torn.body);

    // Outlive the lease, then upload as a zombie: the work is still
    // valid, so it lands.
    std::thread::sleep(Duration::from_millis(1200));
    let late = put(addr, &format!("/leases/{lease}/segment"), &text);
    assert_eq!(late.status, 200, "zombie upload refused: {}", late.body);
    assert_eq!(str_field(&late.body, "status"), "accepted");

    // Uploading the identical bytes again is idempotent.
    let again = put(addr, &format!("/leases/{lease}/segment"), &text);
    assert_eq!(again.status, 200);
    assert_eq!(str_field(&again.body, "status"), "duplicate");

    // A forged segment for the settled range — same cells, different
    // outcome bytes, checksums patched to stay internally consistent —
    // must be a 409 conflict, never a silent overwrite.
    let outcome_line = text
        .lines()
        .find(|l| l.contains("\"kind\":\"outcome\""))
        .expect("an outcome line");
    let (_, record) = outcome_line.split_once(' ').expect("checksum prefix");
    let forged_record = record.replace("\"attempts\":1", "\"attempts\":9");
    assert_ne!(record, forged_record, "the forgery must change something");
    let forged_line = format!("{:016x} {forged_record}", fnv64(forged_record.as_bytes()));
    let forged = text.replace(outcome_line, &forged_line);
    let conflict = put(addr, &format!("/leases/{lease}/segment"), &forged);
    assert_eq!(
        conflict.status, 409,
        "forged segment must conflict: {}",
        conflict.body
    );

    // The second range completes normally and the merge still matches
    // the direct run.
    let summary = run_worker(&worker_config(addr, &id, "finisher", &dir)).expect("worker run");
    assert_eq!(summary.segments, 1);
    let report = get(addr, &format!("/shards/{id}/report"));
    assert_eq!(report.status, 200, "report failed: {}", report.body);
    assert_eq!(report.body, grid_report(spec));
}

#[test]
fn a_repeat_submission_is_served_whole_from_the_cell_cache() {
    let dir = TempDir::new("cache");
    let server = Harness::start(test_config(&dir));
    let addr = server.addr;

    let first = post(addr, "/shards", &submission(1, 60));
    assert_eq!(first.status, 201, "create failed: {}", first.body);
    let first_id = str_field(&first.body, "id");
    run_worker(&worker_config(addr, &first_id, "priming", &dir)).expect("worker run");

    // The same grid again: every row is in the content-addressed cell
    // cache, so the shard arrives already merged, no worker needed.
    let second = post(addr, "/shards", &submission(1, 60));
    assert_eq!(second.status, 201, "re-create failed: {}", second.body);
    let second_id = str_field(&second.body, "id");
    assert_ne!(first_id, second_id);
    assert_eq!(str_field(&second.body, "state"), "merged");

    let a = get(addr, &format!("/shards/{first_id}/report"));
    let b = get(addr, &format!("/shards/{second_id}/report"));
    assert_eq!((a.status, b.status), (200, 200));
    assert_eq!(a.body, b.body, "cache-spliced report diverged");
    assert_eq!(a.body, grid_report(test_spec()));

    // Both merged journals exist on disk and are byte-identical.
    let ja = std::fs::read(dir.0.join("shards").join(format!("{first_id}.journal"))).unwrap();
    let jb = std::fs::read(dir.0.join("shards").join(format!("{second_id}.journal"))).unwrap();
    assert_eq!(ja, jb, "merged journals must be byte-identical");

    // The cache path shows up on the metrics surface.
    let metrics = get(addr, "/metrics").body;
    let hits: u64 = metrics
        .lines()
        .find(|l| l.starts_with("tlp_shard_cache_hits_total "))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("tlp_shard_cache_hits_total in /metrics");
    assert!(hits >= 2, "expected cache hits for both rows, saw {hits}");
}

#[test]
fn a_killed_worker_is_reassigned_and_the_merge_matches_the_cli_json() {
    let dir = TempDir::new("kill9");
    let server = Harness::start(test_config(&dir));
    let addr = server.addr;

    // Small scale with the CLI's default seed, so the merged report can
    // be compared against actual `cmp-tlp --json sweep` stdout.
    let reply = post(
        addr,
        "/shards",
        "{\"apps\":[\"fft\"],\"core_counts\":[1,2],\"scale\":\"small\",\
         \"seed\":\"0x15952005\",\"lease_works\":1,\"lease_secs\":1}",
    );
    assert_eq!(reply.status, 201, "create failed: {}", reply.body);
    let id = str_field(&reply.body, "id");
    let bin = env!("CARGO_BIN_EXE_cmp-tlp");
    let coordinator = addr.to_string();

    // Worker 1 computes its range, then dies the hard way (abort, the
    // in-process kill -9) without uploading.
    let doomed = Command::new(bin)
        .args([
            "work",
            "--coordinator",
            &coordinator,
            "--shard",
            &id,
            "--name",
            "doomed",
            "--work-dir",
            dir.0.join("doomed").to_str().unwrap(),
            "--chaos-abort-before-upload",
        ])
        .output()
        .expect("spawn doomed worker");
    assert!(
        !doomed.status.success(),
        "the doomed worker must die before uploading"
    );

    // Worker 2 waits out the expired lease, recomputes the range, and
    // completes the shard.
    let healthy = Command::new(bin)
        .args([
            "work",
            "--coordinator",
            &coordinator,
            "--shard",
            &id,
            "--name",
            "healthy",
            "--poll",
            "0.2",
            "--work-dir",
            dir.0.join("healthy").to_str().unwrap(),
        ])
        .output()
        .expect("spawn healthy worker");
    assert!(
        healthy.status.success(),
        "healthy worker failed: {}",
        String::from_utf8_lossy(&healthy.stderr)
    );

    let report = get(addr, &format!("/shards/{id}/report"));
    assert_eq!(report.status, 200, "report failed: {}", report.body);

    let cli = Command::new(bin)
        .args(["--json", "sweep", "fft", "--cores", "2"])
        .output()
        .expect("reference CLI sweep");
    assert!(cli.status.success());
    assert_eq!(
        report.body,
        String::from_utf8_lossy(&cli.stdout),
        "distributed report must be byte-identical to the CLI's --json output"
    );
}

#[test]
fn the_long_poll_returns_early_on_progress_and_clamps_to_the_deadline() {
    let dir = TempDir::new("longpoll");
    let mut config = test_config(&dir);
    config.request_deadline = Duration::from_secs(3);
    let server = Harness::start(config);
    let addr = server.addr;

    // Progress path: poll a freshly-submitted job with a wait far above
    // its runtime; any state or completed-cell change releases the poll
    // long before the clamped budget (2s here) elapses... and even the
    // no-change worst case answers within the clamp, never the full
    // requested wait.
    let reply = post(
        addr,
        "/sweeps",
        &format!(
            "{{\"apps\":[\"fft\",\"lu\",\"radix\"],\"core_counts\":[1,2],\
             \"scale\":\"test\",\"seed\":{SEED}}}"
        ),
    );
    assert_eq!(reply.status, 202, "submit failed: {}", reply.body);
    let id = str_field(&reply.body, "id");
    let start = Instant::now();
    let polled = get(addr, &format!("/sweeps/{id}?wait=60"));
    let elapsed = start.elapsed();
    assert_eq!(polled.status, 200, "long-poll failed: {}", polled.body);
    assert!(
        elapsed < Duration::from_secs(3),
        "?wait=60 must clamp under the 3s request deadline, took {elapsed:?}"
    );

    // Clamp path: a terminal job never changes, so the poll runs the
    // whole clamped budget — proof the wait was honored but bounded.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = get(addr, &format!("/sweeps/{id}"));
        if status.body.contains("\"state\": \"completed\"") {
            break;
        }
        assert!(Instant::now() < deadline, "job never completed");
        std::thread::sleep(Duration::from_millis(50));
    }
    let start = Instant::now();
    let held = get(addr, &format!("/sweeps/{id}?wait=60"));
    let elapsed = start.elapsed();
    assert_eq!(held.status, 200);
    assert!(
        elapsed >= Duration::from_millis(1500),
        "a no-change poll must hold for the clamped budget, took {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(3),
        "the clamp must stay under the request deadline, took {elapsed:?}"
    );
}
