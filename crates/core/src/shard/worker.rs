//! The worker side: claim a lease, run the range, upload the segment.
//!
//! `cmp-tlp work --coordinator HOST:PORT` runs this loop. It is
//! deliberately thin: all sweep semantics live in the ordinary
//! [`SweepBuilder`] (the worker runs the builder
//! [`JobRecord::sweep`] returns for the lease's `spec`, narrowed to the
//! leased rows, with a local checkpoint journal), and all distributed
//! semantics live on the coordinator (the worker never decides what
//! counts as done). Network calls ride a hand-rolled HTTP/1.1 client
//! over `std::net` — the same zero-dependency discipline as the serve
//! daemon — with the jittered [`RetryPolicy::backoff_delay`] ladder
//! wrapped around transient failures (connect errors, timeouts, 429s
//! and 5xxs); typed protocol refusals (409 conflict, 422 rejection) are
//! never retried.
//!
//! A heartbeat thread extends the lease while the range computes. If
//! the coordinator declares the lease dead (410) the worker finishes
//! its sweep anyway and uploads — the idempotent-completion gate on the
//! board makes that zombie upload safe by construction.
//!
//! [`SweepBuilder`]: crate::sweep::SweepBuilder

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tlp_tech::json::{Json, JsonLimits};

use crate::chipstate::ExperimentalChip;
use crate::error::error_chain;
use crate::journal::{field, fnv64, num_field, str_field};
use crate::serve::jobs::{parse_submission, JobRecord};
use crate::sweep::{CellOutcome, RetryPolicy};

use super::{subspec, WorkRange};

/// Hard ceiling on a coordinator response body (the largest legitimate
/// one is a shard listing; reports are never fetched by workers).
const MAX_RESPONSE_BYTES: usize = 4 << 20;

/// Transport-level failure of one HTTP exchange.
#[derive(Debug, Clone)]
pub(crate) struct NetError(pub String);

/// A parsed HTTP response.
pub(crate) struct HttpResponse {
    pub status: u16,
    pub body: String,
}

impl HttpResponse {
    /// Whether the failure is worth a retry: transport was fine but the
    /// server was momentarily unable (backpressure or internal error).
    fn transient(&self) -> bool {
        self.status == 429 || (500..=599).contains(&self.status)
    }
}

/// One HTTP/1.1 exchange over a fresh connection (`connection: close`),
/// bounded by `timeout` for connect, write, and the whole read.
pub(crate) fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    api_key: Option<&str>,
    content_type: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<HttpResponse, NetError> {
    let net = |stage: &str| {
        let s = stage.to_string();
        move |e: std::io::Error| NetError(format!("{s} {addr}: {e}"))
    };
    let stream = TcpStream::connect(addr).map_err(net("connect to"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(net("configure"))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(net("configure"))?;
    let mut stream = stream;

    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    if let Some(key) = api_key {
        head.push_str("x-api-key: ");
        head.push_str(key);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).map_err(net("write to"))?;
    stream.write_all(body).map_err(net("write to"))?;

    let mut raw = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&chunk[..n]);
                if raw.len() > MAX_RESPONSE_BYTES {
                    return Err(NetError(format!("response from {addr} exceeds cap")));
                }
                // Stop as soon as the advertised body is complete; the
                // daemon closes the connection anyway, but this avoids
                // waiting on a lingering socket.
                if let Some((status, body, done)) = try_parse(&raw) {
                    if done {
                        return Ok(HttpResponse { status, body });
                    }
                }
            }
            Err(e) => return Err(NetError(format!("read from {addr}: {e}"))),
        }
    }
    match try_parse(&raw) {
        Some((status, body, _)) => Ok(HttpResponse { status, body }),
        None => Err(NetError(format!("malformed response from {addr}"))),
    }
}

/// Attempts to split `raw` into (status, body-so-far, body-complete).
fn try_parse(raw: &[u8]) -> Option<(u16, String, bool)> {
    let text = std::str::from_utf8(raw).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let mut lines = head.lines();
    let status_line = lines.next()?;
    let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok());
    let done = match content_length {
        Some(len) => body.len() >= len,
        None => false,
    };
    let body = match content_length {
        Some(len) if body.len() >= len => &body[..len],
        _ => body,
    };
    Some((status, body.to_string(), done))
}

/// Retries `op` through the jittered exponential backoff ladder.
/// Transport errors and transient HTTP statuses retry; anything else
/// returns immediately. The schedule is seeded, so a worker's retry
/// timing is reproducible from its name and lease counter.
fn with_retries(
    policy: &RetryPolicy,
    seed: u64,
    attempts: u32,
    mut op: impl FnMut() -> Result<HttpResponse, NetError>,
) -> Result<HttpResponse, NetError> {
    let mut last = NetError("no attempts made".to_string());
    for attempt in 1..=attempts.max(1) {
        std::thread::sleep(policy.backoff_delay(attempt, seed));
        match op() {
            Ok(resp) if resp.transient() && attempt < attempts => {
                last = NetError(format!("HTTP {} (transient)", resp.status));
            }
            Ok(resp) => return Ok(resp),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Runs `range` of `job` through the ordinary sweep engine with a local
/// checkpoint journal and returns the journal bytes — the segment a
/// worker uploads. Shared by the CLI worker, the chaos driver, and the
/// integration tests so they can never drift.
///
/// # Errors
///
/// A rendered message if the sweep fails or any cell finishes without a
/// completed outcome (the coordinator would reject the segment anyway;
/// failing here gives the operator the real diagnosis).
pub fn compute_segment(
    chip: &ExperimentalChip,
    job: &JobRecord,
    range: WorkRange,
    journal_path: &Path,
    threads: usize,
) -> Result<String, String> {
    // The budget rides along: it decorates the report but never touches
    // journal bytes or the spec fingerprint.
    let builder = job
        .sweep(chip)
        .grid(subspec(&job.spec(), range))
        .checkpoint(journal_path);
    let builder = if threads <= 1 {
        builder.serial()
    } else {
        builder.threads(threads)
    };
    let report = builder
        .run()
        .map_err(|e| format!("worker sweep failed: {}", error_chain(&e).join(": ")))?;
    for (cell, outcome) in &report.cells {
        if let CellOutcome::Failed { reason, attempts } = outcome {
            return Err(format!(
                "cell ({}, n={}) failed after {attempts} attempt(s): {}",
                cell.work.name(),
                cell.n,
                error_chain(reason).join(": ")
            ));
        }
    }
    std::fs::read_to_string(journal_path)
        .map_err(|e| format!("read worker journal {}: {e}", journal_path.display()))
}

/// Configuration for [`run_worker`].
pub struct WorkerConfig {
    /// Coordinator address, `host:port`.
    pub coordinator: String,
    /// Shard to work on; `None` discovers the oldest open shard.
    pub shard: Option<String>,
    /// Worker name reported on lease claims.
    pub name: String,
    /// Sweep threads per range (1 = serial).
    pub threads: usize,
    /// Poll interval while waiting for claimable work.
    pub poll: Duration,
    /// Stop after this many granted leases (`None` = until complete).
    pub max_leases: Option<u64>,
    /// Directory for scratch journals.
    pub work_dir: PathBuf,
    /// API key forwarded as `x-api-key` (the coordinator may require it
    /// on mutating routes).
    pub api_key: Option<String>,
    /// Test hook: abort the process (the real `kill -9`) after
    /// computing a range but before uploading it, exercising lease
    /// expiry and reassignment deterministically.
    pub chaos_abort_before_upload: bool,
    /// Cooperative shutdown flag (Ctrl-C).
    pub interrupt: Option<Arc<AtomicBool>>,
}

/// What a worker did before returning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Leases granted to this worker.
    pub leases: u64,
    /// Segments newly accepted.
    pub segments: u64,
    /// Uploads deduplicated against an earlier acceptance.
    pub duplicates: u64,
}

/// Why a worker stopped abnormally.
#[derive(Debug, Clone)]
pub enum WorkerError {
    /// The coordinator was unreachable past the retry budget.
    Net {
        /// Rendered transport error.
        message: String,
    },
    /// The coordinator answered something the protocol does not allow.
    Protocol {
        /// HTTP status received.
        status: u16,
        /// Response body (truncated).
        body: String,
    },
    /// The local sweep failed.
    Sweep {
        /// Rendered failure.
        message: String,
    },
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Net { message } => write!(f, "coordinator unreachable: {message}"),
            WorkerError::Protocol { status, body } => {
                let brief: String = body.chars().take(200).collect();
                write!(f, "coordinator refused (HTTP {status}): {brief}")
            }
            WorkerError::Sweep { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for WorkerError {}

const HTTP_TIMEOUT: Duration = Duration::from_secs(30);
const NET_ATTEMPTS: u32 = 5;

struct Coordinator {
    addr: String,
    api_key: Option<String>,
    policy: RetryPolicy,
    seed: u64,
}

impl Coordinator {
    fn call(
        &self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> Result<HttpResponse, WorkerError> {
        with_retries(&self.policy, self.seed, NET_ATTEMPTS, || {
            http_call(
                &self.addr,
                method,
                path,
                self.api_key.as_deref(),
                content_type,
                body,
                HTTP_TIMEOUT,
            )
        })
        .map_err(|NetError(message)| WorkerError::Net { message })
    }

    fn json(&self, method: &str, path: &str, doc: &Json) -> Result<HttpResponse, WorkerError> {
        let body = doc.to_string_compact();
        self.call(method, path, "application/json", body.as_bytes())
    }
}

fn parse_body(resp: &HttpResponse) -> Result<Json, WorkerError> {
    Json::parse_with_limits(&resp.body, JsonLimits::untrusted(MAX_RESPONSE_BYTES)).map_err(|e| {
        WorkerError::Protocol {
            status: resp.status,
            body: format!("unparseable body: {e}"),
        }
    })
}

fn protocol_err(resp: HttpResponse) -> WorkerError {
    WorkerError::Protocol {
        status: resp.status,
        body: resp.body,
    }
}

/// Discovers the oldest shard still accepting leases, if any. `Ok(None)`
/// means every known shard is finished (or none exist yet).
fn discover_shard(c: &Coordinator) -> Result<Option<String>, WorkerError> {
    let resp = c.call("GET", "/shards", "application/json", b"")?;
    if resp.status != 200 {
        return Err(protocol_err(resp));
    }
    let doc = parse_body(&resp)?;
    let Some(Json::Arr(items)) = field(&doc, "shards") else {
        return Err(WorkerError::Protocol {
            status: resp.status,
            body: "shard listing without a shards array".to_string(),
        });
    };
    for item in items {
        if str_field(item, "state") == Some("open") {
            if let Some(id) = str_field(item, "id") {
                return Ok(Some(id.to_string()));
            }
        }
    }
    Ok(None)
}

enum Claim {
    Granted {
        lease_id: String,
        range: WorkRange,
        lease_ms: u64,
        job: Box<JobRecord>,
    },
    Wait,
    Complete,
}

fn claim(c: &Coordinator, shard: &str, worker: &str) -> Result<Claim, WorkerError> {
    let body = Json::object([("worker", Json::from(worker))]);
    let resp = c.json("POST", &format!("/shards/{shard}/lease"), &body)?;
    if resp.status != 200 {
        return Err(protocol_err(resp));
    }
    let doc = parse_body(&resp)?;
    match str_field(&doc, "status") {
        Some("wait") => Ok(Claim::Wait),
        Some("complete") => Ok(Claim::Complete),
        Some("granted") => {
            let bad = |what: &str| WorkerError::Protocol {
                status: 200,
                body: format!("lease grant without {what}"),
            };
            let lease_id = str_field(&doc, "lease")
                .ok_or_else(|| bad("a lease id"))?
                .to_string();
            let lease_ms = num_field(&doc, "lease_ms").ok_or_else(|| bad("a lease_ms"))? as u64;
            let range_doc = field(&doc, "range").ok_or_else(|| bad("a range"))?;
            let range = WorkRange {
                lo: num_field(range_doc, "lo").ok_or_else(|| bad("a range lo"))? as usize,
                hi: num_field(range_doc, "hi").ok_or_else(|| bad("a range hi"))? as usize,
            };
            let spec_doc = field(&doc, "spec").ok_or_else(|| bad("a spec"))?;
            let job = parse_submission(spec_doc).map_err(|e| WorkerError::Protocol {
                status: 200,
                body: format!("unusable lease spec: {e}"),
            })?;
            Ok(Claim::Granted {
                lease_id,
                range,
                lease_ms,
                job: Box::new(job),
            })
        }
        _ => Err(WorkerError::Protocol {
            status: 200,
            body: format!("unrecognized lease response: {}", resp.body),
        }),
    }
}

/// Spawns the heartbeat thread for a live lease; dropping the returned
/// guard stops it. Heartbeat failures are not fatal — the worker
/// finishes and uploads regardless, relying on idempotent completion.
struct HeartbeatGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatGuard {
    fn start(c: &Coordinator, lease_id: &str, lease_ms: u64) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let addr = c.addr.clone();
        let api_key = c.api_key.clone();
        let lease = lease_id.to_string();
        // Beat at a third of the lease so two consecutive losses still
        // leave slack before expiry.
        let interval = Duration::from_millis((lease_ms / 3).max(100));
        let handle = std::thread::spawn(move || {
            let mut elapsed = Duration::ZERO;
            let step = Duration::from_millis(50);
            loop {
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(step);
                elapsed += step;
                if elapsed < interval {
                    continue;
                }
                elapsed = Duration::ZERO;
                let _ = http_call(
                    &addr,
                    "POST",
                    &format!("/leases/{lease}/heartbeat"),
                    api_key.as_deref(),
                    "application/json",
                    b"{}",
                    HTTP_TIMEOUT,
                );
            }
        });
        HeartbeatGuard {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for HeartbeatGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The worker loop: discover (or use) a shard, claim leases, compute
/// ranges, upload segments, until the shard completes, `max_leases` is
/// reached, or the interrupt flag trips.
///
/// # Errors
///
/// [`WorkerError`] on an exhausted retry budget, a protocol violation
/// (including a [`SegmentConflict`](super::ShardError::SegmentConflict)
/// surfaced as HTTP 409), or a failed local sweep.
pub fn run_worker(config: &WorkerConfig) -> Result<WorkerSummary, WorkerError> {
    let coordinator = Coordinator {
        addr: config.coordinator.clone(),
        api_key: config.api_key.clone(),
        policy: RetryPolicy::default(),
        seed: fnv64(config.name.as_bytes()),
    };
    let mut summary = WorkerSummary::default();
    let interrupted = || {
        config
            .interrupt
            .as_ref()
            .is_some_and(|f| f.load(Ordering::SeqCst))
    };
    std::fs::create_dir_all(&config.work_dir).map_err(|e| WorkerError::Sweep {
        message: format!("create work dir {}: {e}", config.work_dir.display()),
    })?;
    let chip_cache: std::cell::RefCell<Option<ExperimentalChip>> = std::cell::RefCell::new(None);

    loop {
        if interrupted() {
            return Ok(summary);
        }
        if config.max_leases.is_some_and(|cap| summary.leases >= cap) {
            return Ok(summary);
        }
        let shard = match &config.shard {
            Some(id) => id.clone(),
            None => match discover_shard(&coordinator)? {
                Some(id) => id,
                None => return Ok(summary),
            },
        };
        match claim(&coordinator, &shard, &config.name)? {
            Claim::Complete => {
                // A pinned shard is finished; an unpinned worker looks
                // for the next open shard (discover returns None when
                // everything is done).
                if config.shard.is_some() {
                    return Ok(summary);
                }
                std::thread::sleep(config.poll);
            }
            Claim::Wait => std::thread::sleep(config.poll),
            Claim::Granted {
                lease_id,
                range,
                lease_ms,
                job,
            } => {
                summary.leases += 1;
                eprintln!(
                    "cmp-tlp work: lease {lease_id} on {shard} rows {range} ({} ms)",
                    lease_ms
                );
                let beat = HeartbeatGuard::start(&coordinator, &lease_id, lease_ms);
                // The chip is derived from the grant's axes; workers
                // share the coordinator's stock technology.
                if chip_cache.borrow().is_none() {
                    use tlp_sim::ChipSpec;
                    use tlp_tech::Technology;
                    *chip_cache.borrow_mut() = Some(ExperimentalChip::from_spec(
                        ChipSpec::ispass05(16),
                        Technology::itrs_65nm(),
                    ));
                }
                let journal = config
                    .work_dir
                    .join(format!("{}-{lease_id}.journal", config.name));
                let text = {
                    let chip = chip_cache.borrow();
                    compute_segment(
                        chip.as_ref().expect("cached chip"),
                        &job,
                        range,
                        &journal,
                        config.threads,
                    )
                    .map_err(|message| WorkerError::Sweep { message })?
                };
                drop(beat);
                if config.chaos_abort_before_upload {
                    // Test hook: die exactly like a kill -9 would, with
                    // the range computed but never reported.
                    eprintln!("cmp-tlp work: chaos abort before upload");
                    std::process::abort();
                }
                let resp = coordinator.call(
                    "PUT",
                    &format!("/leases/{lease_id}/segment"),
                    "text/plain",
                    text.as_bytes(),
                )?;
                if resp.status != 200 {
                    return Err(protocol_err(resp));
                }
                let doc = parse_body(&resp)?;
                match str_field(&doc, "status") {
                    Some("accepted") => summary.segments += 1,
                    Some("duplicate") => summary.duplicates += 1,
                    _ => {
                        return Err(WorkerError::Protocol {
                            status: 200,
                            body: format!("unrecognized upload response: {}", resp.body),
                        })
                    }
                }
                let _ = std::fs::remove_file(&journal);
                eprintln!("cmp-tlp work: segment for {shard} rows {range} uploaded");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_parsing_handles_content_length_and_eof() {
        let raw =
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\r\n{}";
        let (status, body, done) = try_parse(raw).expect("parseable");
        assert_eq!((status, body.as_str(), done), (200, "{}", true));
        // Body shorter than advertised: not done yet.
        let partial = b"HTTP/1.1 200 OK\r\ncontent-length: 4\r\n\r\n{}";
        let (_, _, done) = try_parse(partial).expect("parseable");
        assert!(!done);
        // No content-length: only EOF terminates.
        let open_ended = b"HTTP/1.1 410 Gone\r\n\r\n{\"error\": \"x\"}";
        let (status, body, done) = try_parse(open_ended).expect("parseable");
        assert_eq!(status, 410);
        assert_eq!(body, "{\"error\": \"x\"}");
        assert!(!done);
    }

    #[test]
    fn retries_give_up_on_permanent_refusals_immediately() {
        let mut calls = 0u32;
        let out = with_retries(&RetryPolicy::default(), 7, 5, || {
            calls += 1;
            Ok(HttpResponse {
                status: 409,
                body: "conflict".to_string(),
            })
        });
        assert_eq!(out.unwrap().status, 409);
        assert_eq!(calls, 1);
    }

    #[test]
    fn retries_spend_the_budget_on_transport_errors() {
        let mut calls = 0u32;
        let out = with_retries(&RetryPolicy::default(), 7, 3, || {
            calls += 1;
            Err::<HttpResponse, _>(NetError("refused".to_string()))
        });
        assert!(out.is_err());
        assert_eq!(calls, 3);
    }

    #[test]
    fn transient_statuses_retry_until_the_last_attempt() {
        let mut calls = 0u32;
        let out = with_retries(&RetryPolicy::default(), 7, 3, || {
            calls += 1;
            Ok(HttpResponse {
                status: 503,
                body: String::new(),
            })
        });
        // The final attempt's response is returned as-is.
        assert_eq!(out.unwrap().status, 503);
        assert_eq!(calls, 3);
    }
}
