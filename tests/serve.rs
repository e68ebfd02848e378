//! End-to-end tests for the `cmp-tlp serve` daemon over a real socket:
//! submit/poll/fetch with the report byte-identical to an in-process
//! sweep, deterministic 429 shedding under a burst while `/health` stays
//! responsive, oversized bodies rejected with 413, malformed requests
//! answered 400 (never a panic), graceful drain via the shutdown flag,
//! and a crashed-mid-run job (running state + truncated journal, the
//! exact debris a `kill -9` leaves) resuming to a byte-identical report
//! on restart.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cmp_tlp::serve::jobs::{FsJobStore, JobRecord, JobState, JobStore};
use cmp_tlp::serve::{ServeConfig, ServeOutcome, Server};
use cmp_tlp::sweep::SweepSpec;
use cmp_tlp::ExperimentalChip;
use tlp_sim::ChipSpec;
use tlp_tech::json::ToJson;
use tlp_workloads::{AppId, Scale};

const SEED: u64 = 0x5E17E;

/// A scratch state directory, deleted on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "cmp-tlp-serve-test-{tag}-{}-{unique}",
            std::process::id()
        ));
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Test defaults: ephemeral port, rate limiting effectively off (the
/// burst test overrides), one worker thread per sweep.
fn test_config(state_dir: &TempDir) -> ServeConfig {
    let mut config = ServeConfig::new("127.0.0.1:0", &state_dir.0);
    config.rate_per_sec = 10_000.0;
    config.burst = 10_000.0;
    config.http_workers = 2;
    config.job_threads = 1;
    config
}

/// A daemon running on its own thread until `stop()` is called.
struct Harness {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<ServeOutcome>>,
}

impl Harness {
    fn start(config: ServeConfig) -> Self {
        let shutdown = Arc::clone(&config.shutdown);
        let server = Server::bind(config).expect("bind ephemeral port");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().expect("serve run"));
        Self {
            addr,
            shutdown,
            handle: Some(handle),
        }
    }

    fn stop(mut self) -> ServeOutcome {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle
            .take()
            .expect("server thread")
            .join()
            .expect("server thread panicked")
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One parsed HTTP response.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Sends raw bytes over a fresh connection and parses the one response
/// the daemon writes before closing.
fn raw(addr: SocketAddr, request: &[u8]) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request).expect("send request");
    stream.flush().unwrap();
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read response");
    let text = String::from_utf8_lossy(&bytes).into_owned();
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {text:?}"));
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    assert!(
        status_line.starts_with("HTTP/1.1 "),
        "bad status line {status_line:?}"
    );
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status in {status_line:?}"));
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    Reply {
        status,
        headers,
        body: body.to_string(),
    }
}

fn get(addr: SocketAddr, path: &str) -> Reply {
    raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nhost: test\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Reply {
    raw(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

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

fn chip() -> ExperimentalChip {
    ExperimentalChip::from_spec(ChipSpec::ispass05(16), tlp_tech::Technology::itrs_65nm())
}

/// The exact bytes the CLI's `--json` mode prints for this spec: the
/// daemon's `/report` endpoint must match them byte for byte.
fn reference_report(spec: SweepSpec) -> String {
    let report = chip().sweep().grid(spec).serial().run().expect("reference");
    let mut text = report.to_json().to_string_pretty();
    text.push('\n');
    text
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
    let expected = reference_report(SweepSpec {
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
    let expected = reference_report(spec.clone());

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
            .serial()
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
