//! End-to-end tests for the `cmp-tlp serve` daemon over a real socket:
//! submit/poll/fetch with the report byte-identical to an in-process
//! sweep (also for a core-mix + budget job), deterministic 429 shedding under a burst while `/health` stays
//! responsive, oversized bodies rejected with 413, malformed requests
//! answered 400 (never a panic), a stalled request answered 408 at the
//! request deadline, graceful drain via the shutdown flag,
//! a long-poll answering at once a change made since the last answer,
//! and a crashed-mid-run job (running state + truncated journal, the
//! exact debris a `kill -9` leaves) resuming to a byte-identical report
//! on restart.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use cmp_tlp::serve::jobs::{FsJobStore, JobRecord, JobState, JobStore};
use cmp_tlp::sweep::SweepSpec;
use common::{
    chip, get, grid_report, post, raw, reference_report, test_config, Harness, Reply, TempDir,
};
use tlp_analytic::BudgetSpec;
use tlp_workloads::{AppId, Scale};

const SEED: u64 = 0x5E17E;

/// Extracts `"id": "jNNNNNN"` from a submission response.
fn job_id(reply: &Reply) -> String {
    let tail = reply
        .body
        .split("\"id\": \"")
        .nth(1)
        .unwrap_or_else(|| panic!("no id in {}", reply.body));
    tail.split('"').next().unwrap().to_string()
}

/// Polls `/sweeps/{id}` until the job reports `state`, panicking after
/// `limit`.
fn wait_for_state(addr: SocketAddr, id: &str, state: &str, limit: Duration) {
    let needle = format!("\"state\": \"{state}\"");
    let start = Instant::now();
    loop {
        let reply = get(addr, &format!("/sweeps/{id}"));
        assert_eq!(reply.status, 200, "status poll failed: {}", reply.body);
        if reply.body.contains(&needle) {
            return;
        }
        assert!(
            start.elapsed() < limit,
            "job {id} never reached {state}; last status: {}",
            reply.body
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn submit_poll_fetch_report_is_byte_identical_to_direct_run() {
    let dir = TempDir::new("roundtrip");
    let server = Harness::start(test_config(&dir));
    let addr = server.addr;

    let reply = post(
        addr,
        "/sweeps",
        &format!("{{\"apps\":[\"fft\"],\"core_counts\":[1,2],\"scale\":\"test\",\"seed\":{SEED}}}"),
    );
    assert_eq!(reply.status, 202, "submit failed: {}", reply.body);
    let id = job_id(&reply);

    // The report is unavailable (409) until the job completes.
    let early = get(addr, &format!("/sweeps/{id}/report"));
    assert!(
        early.status == 409 || early.status == 200,
        "unexpected early report status {}",
        early.status
    );

    wait_for_state(addr, &id, "completed", Duration::from_secs(120));

    let report = get(addr, &format!("/sweeps/{id}/report"));
    assert_eq!(report.status, 200);
    let expected = grid_report(SweepSpec {
        server_loads: Vec::new(),
        apps: vec![AppId::Fft],
        core_counts: vec![1, 2],
        scale: Scale::Test,
        seed: SEED,
    });
    assert_eq!(report.body, expected, "report is not byte-identical");

    // The job also shows up in the listing and its trace has records.
    let list = get(addr, "/sweeps");
    assert_eq!(list.status, 200);
    assert!(list.body.contains(&id));
    let trace = get(addr, &format!("/sweeps/{id}/trace"));
    assert_eq!(trace.status, 200);
    assert!(trace.body.contains("\"records\""));

    let outcome = server.stop();
    assert_eq!(outcome.jobs_completed, 1);
    assert_eq!(outcome.jobs_failed, 0);
    assert_eq!(outcome.jobs_unfinished, 0);
}

#[test]
fn a_core_mix_and_budget_job_reports_the_builders_exact_bytes() {
    let dir = TempDir::new("hetero");
    let server = Harness::start(test_config(&dir));
    let addr = server.addr;

    let reply = post(
        addr,
        "/sweeps",
        &format!(
            "{{\"apps\":[\"fft\"],\"core_counts\":[1,2],\"scale\":\"test\",\"seed\":{SEED},\
             \"core_mix\":[4,12],\"budget\":{{\"area_mm2\":111,\"tdp_watts\":125}}}}"
        ),
    );
    assert_eq!(reply.status, 202, "submit failed: {}", reply.body);
    let id = job_id(&reply);
    wait_for_state(addr, &id, "completed", Duration::from_secs(120));

    let report = get(addr, &format!("/sweeps/{id}/report"));
    assert_eq!(report.status, 200);
    let expected = reference_report(|b| {
        b.grid(SweepSpec {
            apps: vec![AppId::Fft],
            server_loads: Vec::new(),
            core_counts: vec![1, 2],
            scale: Scale::Test,
            seed: SEED,
        })
        .core_mix(4, 12)
        .budget(BudgetSpec {
            area_mm2: 111.0,
            tdp_watts: 125.0,
        })
    });
    assert!(expected.contains("\"dark_silicon_ratio\""), "{expected}");
    assert_eq!(report.body, expected, "report is not byte-identical");
    server.stop();
}

#[test]
fn burst_sheds_with_retry_after_while_health_stays_responsive() {
    let dir = TempDir::new("burst");
    let mut config = test_config(&dir);
    config.rate_per_sec = 1.0;
    config.burst = 3.0;
    let server = Harness::start(config);
    let addr = server.addr;

    let mut allowed = 0;
    let mut shed = 0;
    for _ in 0..12 {
        let reply = get(addr, "/sweeps");
        match reply.status {
            200 => allowed += 1,
            429 => {
                shed += 1;
                let retry: u64 = reply
                    .header("retry-after")
                    .expect("429 carries Retry-After")
                    .parse()
                    .expect("Retry-After is integral seconds");
                assert!(retry >= 1);
                assert!(reply.body.contains("rate limit"), "body: {}", reply.body);
            }
            other => panic!("unexpected status {other}"),
        }
    }
    // Burst capacity is 3 tokens and refill is 1/s: a 12-request burst
    // sheds most of its tail deterministically.
    assert!(allowed >= 3, "allowed {allowed}");
    assert!(shed >= 6, "shed only {shed} of 12");

    // Liveness probes are exempt from rate limiting.
    for _ in 0..5 {
        assert_eq!(get(addr, "/health").status, 200);
    }

    server.stop();
}

#[test]
fn oversized_body_is_rejected_with_413() {
    let dir = TempDir::new("too-big");
    let mut config = test_config(&dir);
    config.max_body_bytes = 256;
    let server = Harness::start(config);
    let addr = server.addr;

    let big = "x".repeat(1024);
    let reply = post(addr, "/sweeps", &big);
    assert_eq!(reply.status, 413, "body: {}", reply.body);

    // The daemon rejects before reading the oversized body, and the
    // next request on a fresh connection is unaffected.
    assert_eq!(get(addr, "/health").status, 200);
    server.stop();
}

#[test]
fn malformed_requests_get_400_not_a_panic() {
    let dir = TempDir::new("garbage");
    let server = Harness::start(test_config(&dir));
    let addr = server.addr;

    for request in [
        &b"GARBAGE\r\n\r\n"[..],
        b"GET /health\r\n\r\n",
        b"GET /health HTTP/2.0\r\n\r\n",
        b"\xff\xfe\x00\x01\r\n\r\n",
        b"POST /sweeps HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
    ] {
        let reply = raw(addr, request);
        assert!(
            (400..600).contains(&reply.status),
            "expected an error status for {request:?}, got {}",
            reply.status
        );
    }

    // Bad submissions are typed rejections, not connection drops.
    assert_eq!(post(addr, "/sweeps", "{not json").status, 400);
    assert_eq!(post(addr, "/sweeps", "{\"apps\":[]}").status, 422);
    assert_eq!(post(addr, "/sweeps", "{\"apps\":[\"nope\"]}").status, 422);
    assert_eq!(get(addr, "/no-such-path").status, 404);
    assert_eq!(get(addr, "/sweeps/evil%2F..%2Fid").status, 404);
    assert_eq!(raw(addr, b"DELETE /sweeps HTTP/1.1\r\n\r\n").status, 405);

    // After all that abuse the daemon still serves.
    assert_eq!(get(addr, "/health").status, 200);
    server.stop();
}

#[test]
fn a_stalled_request_is_answered_408_at_the_request_deadline() {
    let dir = TempDir::new("slow-loris");
    let mut config = test_config(&dir);
    config.request_deadline = Duration::from_secs(1);
    let server = Harness::start(config);
    let addr = server.addr;

    // A request line with no blank line after it, then silence.
    let started = Instant::now();
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stalled.write_all(b"GET /health HTTP/1.1\r\n").unwrap();
    stalled.flush().unwrap();

    // The stalled connection holds one handler; another connection is
    // still served meanwhile.
    assert_eq!(get(addr, "/health").status, 200);

    let mut bytes = Vec::new();
    stalled.read_to_end(&mut bytes).expect("read the 408");
    let elapsed = started.elapsed();
    let text = String::from_utf8_lossy(&bytes);
    assert!(
        text.starts_with("HTTP/1.1 408 "),
        "expected a 408, got {text:?}"
    );
    assert!(
        (Duration::from_secs(1)..Duration::from_millis(2500)).contains(&elapsed),
        "answered after {elapsed:?}, against a 1-s request deadline"
    );
    server.stop();
}

#[test]
fn submissions_require_the_api_key_when_one_is_set() {
    let dir = TempDir::new("auth");
    let mut config = test_config(&dir);
    config.api_key = Some("sekrit".to_string());
    let server = Harness::start(config);
    let addr = server.addr;

    assert_eq!(post(addr, "/sweeps", "{\"apps\":[\"fft\"]}").status, 401);
    let body = "{\"apps\":[\"fft\"],\"core_counts\":[1,2],\"scale\":\"test\"}";
    let authed = raw(
        addr,
        format!(
            "POST /sweeps HTTP/1.1\r\nauthorization: Bearer sekrit\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    assert_eq!(authed.status, 202, "body: {}", authed.body);

    // Reads stay open (auth guards mutation only).
    assert_eq!(get(addr, "/sweeps").status, 200);
    server.stop();
}

#[test]
fn raising_the_shutdown_flag_drains_and_reports_resumable_jobs() {
    let dir = TempDir::new("drain");
    let server = Harness::start(test_config(&dir));
    let addr = server.addr;

    let reply = post(
        addr,
        "/sweeps",
        &format!("{{\"apps\":[\"fft\"],\"core_counts\":[1,2],\"scale\":\"test\",\"seed\":{SEED}}}"),
    );
    assert_eq!(reply.status, 202);

    // Drain immediately: depending on timing the job either finished or
    // is parked resumable — never failed, never lost.
    let outcome = server.stop();
    assert_eq!(outcome.jobs_failed, 0);
    assert_eq!(outcome.jobs_completed + outcome.jobs_unfinished, 1);

    // The listener is gone once the drain returns.
    assert!(TcpStream::connect(addr).is_err(), "socket still open");
}

#[test]
fn ready_flips_to_503_while_draining() {
    let dir = TempDir::new("ready");
    let server = Harness::start(test_config(&dir));
    let addr = server.addr;

    assert_eq!(get(addr, "/ready").status, 200);
    // Raise the flag without joining: the accept loop polls the flag
    // every few milliseconds, so in-flight handlers still answer.
    server.shutdown.store(true, Ordering::SeqCst);
    // Readiness reports draining (503) if a handler picks the request
    // up before the accept loop exits; a refused connection is the
    // other legal outcome of this race.
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let _ = stream.write_all(b"GET /ready HTTP/1.1\r\n\r\n");
        let mut text = String::new();
        let _ = stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .and_then(|()| stream.read_to_string(&mut text).map(|_| ()));
        if let Some(status) = text.split_whitespace().nth(1) {
            assert!(
                status == "503" || status == "200",
                "unexpected ready status {status}"
            );
        }
    }
    server.stop();
}

#[test]
fn crashed_mid_run_job_resumes_to_a_byte_identical_report() {
    let dir = TempDir::new("resume");
    let spec = SweepSpec {
        server_loads: Vec::new(),
        apps: vec![AppId::Fft, AppId::Ocean],
        core_counts: vec![1, 2],
        scale: Scale::Test,
        seed: SEED,
    };
    let expected = grid_report(spec.clone());

    // Fabricate exactly what a kill -9 leaves behind: a job record
    // stuck in `running` and a journal truncated mid-sweep at a record
    // boundary.
    let id = {
        let store = FsJobStore::open(&dir.0).expect("open store");
        let created = store
            .create(JobRecord::new(
                spec.apps.clone(),
                spec.core_counts.clone(),
                spec.scale,
                SEED,
            ))
            .expect("create job");
        let id = created.value.id.clone();

        let full = chip()
            .sweep()
            .grid(spec)
            .threads(1)
            .checkpoint(store.journal_path(&id))
            .run()
            .expect("journaled run");
        assert_eq!(full.cells.len(), 4, "2 apps x 2 core counts");
        let journal_path = store.journal_path(&id);
        let text = std::fs::read_to_string(&journal_path).expect("read journal");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 3, "journal too short to truncate: {text}");
        let partial: String = lines[..3].iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(&journal_path, partial).expect("truncate journal");

        let mut running = created.value.clone();
        running.state = JobState::Running;
        store
            .commit(&id, created.version, running)
            .expect("mark running");
        id
    };

    // Restart: the rescan re-queues the job, the sweep splices the
    // surviving cells from the journal, and the report comes out
    // byte-identical to the uninterrupted run.
    let server = Harness::start(test_config(&dir));
    let addr = server.addr;
    wait_for_state(addr, &id, "completed", Duration::from_secs(120));
    let report = get(addr, &format!("/sweeps/{id}/report"));
    assert_eq!(report.status, 200);
    assert_eq!(report.body, expected, "resumed report differs");

    let outcome = server.stop();
    assert_eq!(outcome.jobs_completed, 1);
    assert_eq!(outcome.jobs_unfinished, 0);
}

#[test]
fn a_change_between_two_polls_answers_the_second_at_once() {
    let dir = TempDir::new("news");
    let server = Harness::start(test_config(&dir));
    let addr = server.addr;
    // Answered only once the start-up rescan is over, so the job below
    // stays out of the daemon's queue.
    assert_eq!(get(addr, "/ready").status, 200);

    // A running job the daemon never queued, written through a store of
    // the test's own.
    let store = FsJobStore::open(&dir.0).expect("open store");
    let created = store
        .create(JobRecord::new(
            vec![AppId::Fft],
            vec![1, 2],
            Scale::Test,
            SEED,
        ))
        .expect("create job");
    let id = created.value.id.clone();
    let mut running = created.value.clone();
    running.state = JobState::Running;
    let running = store
        .commit(&id, created.version, running)
        .expect("mark running");
    let status = get(addr, &format!("/sweeps/{id}"));
    assert!(
        status.body.contains("\"state\": \"running\""),
        "{}",
        status.body
    );

    // The job fails after that answer: the next poll has news at once
    // instead of holding for its whole wait.
    let mut failed = running.value.clone();
    failed.state = JobState::Failed;
    failed.error_chain = vec!["stopped by the test".to_string()];
    store
        .commit(&id, running.version, failed)
        .expect("mark failed");
    let start = Instant::now();
    let polled = get(addr, &format!("/sweeps/{id}?wait=5"));
    let elapsed = start.elapsed();
    assert_eq!(polled.status, 200, "long-poll failed: {}", polled.body);
    assert!(
        polled.body.contains("\"state\": \"failed\""),
        "{}",
        polled.body
    );
    assert!(
        elapsed < Duration::from_millis(2500),
        "the poll held {elapsed:?} for a change it could answer at once"
    );
    server.stop();
}

#[test]
fn restart_preserves_completed_jobs_and_serves_their_reports() {
    let dir = TempDir::new("restart");
    let spec_body =
        format!("{{\"apps\":[\"fft\"],\"core_counts\":[1,2],\"scale\":\"test\",\"seed\":{SEED}}}");

    let first = Harness::start(test_config(&dir));
    let reply = post(first.addr, "/sweeps", &spec_body);
    assert_eq!(reply.status, 202);
    let id = job_id(&reply);
    wait_for_state(first.addr, &id, "completed", Duration::from_secs(120));
    let before = get(first.addr, &format!("/sweeps/{id}/report"));
    first.stop();

    let second = Harness::start(test_config(&dir));
    let after = get(second.addr, &format!("/sweeps/{id}/report"));
    assert_eq!(after.status, 200);
    assert_eq!(after.body, before.body, "report changed across restart");
    second.stop();
}

#[test]
fn unrunnable_core_count_settles_its_job_and_frees_the_slot() {
    // FFT runs only on power-of-two counts, and submission validation
    // does not know that. The job must still reach a terminal state with
    // a typed failure for that cell, and with one dispatch slot the next
    // job only runs if that slot came back.
    let dir = TempDir::new("unrunnable");
    let mut config = test_config(&dir);
    config.max_active_jobs = 1;
    let server = Harness::start(config);
    let addr = server.addr;

    let submit = |counts: &str| {
        let reply = post(
            addr,
            "/sweeps",
            &format!(
                "{{\"apps\":[\"fft\"],\"core_counts\":{counts},\"scale\":\"test\",\"seed\":{SEED}}}"
            ),
        );
        assert_eq!(reply.status, 202, "submit failed: {}", reply.body);
        job_id(&reply)
    };
    let bad = submit("[1,3]");
    wait_for_state(addr, &bad, "completed", Duration::from_secs(120));
    let report = get(addr, &format!("/sweeps/{bad}/report"));
    assert_eq!(report.status, 200);
    assert!(
        report
            .body
            .contains("FFT runs only on power-of-two core counts, not on 3"),
        "{}",
        report.body
    );

    let good = submit("[1,2]");
    wait_for_state(addr, &good, "completed", Duration::from_secs(120));
    let outcome = server.stop();
    assert_eq!(outcome.jobs_completed, 2);
    assert_eq!(outcome.jobs_unfinished, 0);
}
