//! `cmp-tlp serve` — the sweep-as-a-service daemon.
//!
//! A hardened HTTP/1.1 JSON API over [`std::net`] (zero dependencies,
//! like everything in this workspace) that accepts sweep specs as
//! [`jobs::JobRecord`]s, runs each through the builder
//! [`jobs::JobRecord::sweep`] returns with the durable cell journal,
//! and exposes:
//!
//! | Endpoint                | Meaning                                        |
//! |-------------------------|------------------------------------------------|
//! | `GET /health`           | Liveness (never rate-limited)                  |
//! | `GET /ready`            | Readiness; `503` while draining                |
//! | `POST /sweeps`          | Submit a sweep spec → `202` + job id           |
//! | `GET /sweeps`           | List jobs                                      |
//! | `GET /sweeps/{id}`      | Status + partial results from the journal      |
//! | `GET /sweeps/{id}/report` | Final report (byte-identical to CLI `--json`)|
//! | `GET /sweeps/{id}/trace`  | Raw journal records                          |
//! | `GET /metrics`          | Prometheus text exposition                     |
//! | `POST /shards`          | Submit a sweep for distributed execution       |
//! | `GET /shards`           | List shards                                    |
//! | `GET /shards/{id}`      | Shard status (ranges, leases, merge state)     |
//! | `GET /shards/{id}/report` | Merged report (identical to a direct run)    |
//! | `POST /shards/{id}/lease` | Worker claims a work range under a lease     |
//! | `POST /leases/{id}/heartbeat` | Worker extends a live lease              |
//! | `PUT /leases/{id}/segment` | Worker uploads a range's journal segment    |
//!
//! `GET /sweeps/{id}` additionally honors `?wait=<secs>`: the response
//! is held back until the job's state or completed-cell count changes
//! (or the wait — clamped under the request deadline — runs out), so
//! pollers see progress without a tight request loop. Progress is
//! counted from the daemon's last answer about the job, so a change
//! that lands between two polls answers the second at once. A state
//! change answers as soon as the job store writes it; settled cells are
//! read from the journal every 50 ms.
//!
//! Robustness posture:
//!
//! - **Untrusted input**: request head/header/body caps, a
//!   recursion-limited JSON parse, and typed rejections — garbage bytes
//!   get a `4xx`, never a panic ([`http`]).
//! - **Slow-loris defense**: the connection handler installs a
//!   [`tlp_obs::cancel`] deadline as its first act, and the request read
//!   stops once it passes.
//! - **Backpressure**: per-IP token buckets ([`middleware`]) answer
//!   `429` + `Retry-After`; a bounded admission queue sheds submissions
//!   the same way instead of queueing without bound.
//! - **Crash recovery**: job state lives in a [`jobs::JobStore`] with
//!   optimistic-concurrency versioning and atomic file replacement, and
//!   per-cell progress in the sweep journal. After a `kill -9`, restart
//!   rescans the state directory, re-queues unfinished jobs, and the
//!   sweep engine splices settled cells from the journal — the final
//!   report is byte-identical to an uninterrupted run.
//! - **Graceful drain**: raising the shutdown flag (SIGTERM/SIGINT in
//!   the CLI) stops accepting, interrupts running sweeps at the next
//!   cell boundary, flushes journals, and records jobs as resumable.

pub mod http;
pub mod jobs;
pub mod middleware;
pub mod router;

mod handlers;

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tlp_obs::metrics::{
    SERVE_HIST_REQUEST_BYTES, SERVE_HIST_RESPONSE_MICROS, SERVE_HTTP_PARSE_REJECTED,
    SERVE_HTTP_REQUESTS, SERVE_HTTP_RESPONSES_2XX, SERVE_HTTP_RESPONSES_4XX,
    SERVE_HTTP_RESPONSES_5XX, SERVE_JOBS_COMPLETED, SERVE_JOBS_FAILED, SERVE_JOBS_INTERRUPTED,
    SERVE_JOBS_RESUMED,
};
use tlp_sim::ChipSpec;
use tlp_tech::json::ToJson;
use tlp_tech::Technology;

use crate::chipstate::ExperimentalChip;
use crate::error::{error_chain, ExperimentError};
use crate::pool::{self, Pool};
use crate::shard::{Clock, ShardBoard};
use http::{HttpLimits, Response};
use jobs::{FsJobStore, JobState, JobStore, JobStoreError};
use middleware::RateLimiter;

/// Tunables for one daemon instance.
#[derive(Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7070` (port 0 picks an ephemeral
    /// port; see [`Server::local_addr`]).
    pub addr: String,
    /// Directory holding job records and cell journals. Created if
    /// absent; rescanned on startup to resume unfinished jobs.
    pub state_dir: PathBuf,
    /// Sweeps executing concurrently; further jobs wait in the queue.
    pub max_active_jobs: usize,
    /// Queued (not yet running) jobs beyond which submissions are shed
    /// with `429`.
    pub queue_capacity: usize,
    /// Concurrent HTTP connection handlers.
    pub http_workers: usize,
    /// Per-IP token refill rate (requests/second); `0` disables
    /// rate limiting.
    pub rate_per_sec: f64,
    /// Per-IP burst size (bucket capacity).
    pub burst: f64,
    /// Request body cap, bytes (also the JSON parser's size limit).
    pub max_body_bytes: usize,
    /// Wall-clock budget for reading one request (slow-loris defense)
    /// and writing its response.
    pub request_deadline: Duration,
    /// When set, `POST /sweeps` requires `Authorization: Bearer <key>`.
    pub api_key: Option<String>,
    /// Worker threads per sweep (`0` = one per CPU).
    pub job_threads: usize,
    /// Per-cell deadline forwarded to the sweep engine.
    pub cell_deadline: Option<Duration>,
    /// Drain flag: raising it stops the accept loop and interrupts
    /// running sweeps at the next cell boundary. The CLI wires this to
    /// SIGTERM/SIGINT; tests raise it directly.
    pub shutdown: Arc<AtomicBool>,
}

impl ServeConfig {
    /// A config with production defaults, serving on `addr` with durable
    /// state under `state_dir`.
    pub fn new(addr: impl Into<String>, state_dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: addr.into(),
            state_dir: state_dir.into(),
            max_active_jobs: 2,
            queue_capacity: 8,
            http_workers: 4,
            rate_per_sec: 20.0,
            burst: 40.0,
            max_body_bytes: 1024 * 1024,
            request_deadline: Duration::from_secs(10),
            api_key: None,
            job_threads: 0,
            cell_deadline: None,
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// What a daemon run left behind when it returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Jobs in the store that finished successfully (across all runs).
    pub jobs_completed: usize,
    /// Jobs that finished unsuccessfully.
    pub jobs_failed: usize,
    /// Jobs still queued, running, or interrupted — restarting the
    /// daemon with the same state directory resumes them.
    pub jobs_unfinished: usize,
}

/// Why the daemon could not start or persist state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The listen socket could not be bound.
    Bind {
        /// The requested address.
        addr: String,
        /// Underlying error text.
        message: String,
    },
    /// The job store failed.
    Store(JobStoreError),
    /// The shard board (distributed-sweep coordinator state) failed to
    /// open.
    Shards {
        /// Rendered [`crate::shard::ShardError`].
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, message } => write!(f, "cannot bind {addr}: {message}"),
            ServeError::Store(e) => write!(f, "job store failure: {e}"),
            ServeError::Shards { message } => write!(f, "shard board failure: {message}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Store(e) => Some(e),
            ServeError::Bind { .. } | ServeError::Shards { .. } => None,
        }
    }
}

impl From<JobStoreError> for ServeError {
    fn from(e: JobStoreError) -> Self {
        ServeError::Store(e)
    }
}

/// A job's progress as a status answer shows it: its lifecycle state
/// and how many cells its journal has settled.
pub(crate) type Progress = (JobState, usize);

/// Dispatcher bookkeeping: how many jobs run now, who waits.
pub(crate) struct Dispatch {
    pub(crate) active: usize,
    pub(crate) queue: VecDeque<String>,
}

/// Shared per-request context, `Copy` so pool tasks can capture it.
pub(crate) struct Ctx<'a> {
    pub(crate) config: &'a ServeConfig,
    pub(crate) store: &'a FsJobStore,
    pub(crate) limiter: &'a RateLimiter,
    pub(crate) dispatch: &'a Mutex<Dispatch>,
    pub(crate) answered: &'a Mutex<HashMap<String, Progress>>,
    pub(crate) chip: &'a ExperimentalChip,
    pub(crate) shards: &'a ShardBoard,
}

impl Clone for Ctx<'_> {
    fn clone(&self) -> Self {
        *self
    }
}
impl Copy for Ctx<'_> {}

impl Ctx<'_> {
    pub(crate) fn draining(&self) -> bool {
        self.config.shutdown.load(Ordering::SeqCst)
    }
}

/// A bound (but not yet running) daemon.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    store: FsJobStore,
    limiter: RateLimiter,
    dispatch: Mutex<Dispatch>,
    /// The progress last answered for each unfinished job, so a
    /// long-poll can tell that a change landed between two polls.
    answered: Mutex<HashMap<String, Progress>>,
    shards: ShardBoard,
}

impl Server {
    /// Binds the listen socket and opens the job store.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] when the address is unusable;
    /// [`ServeError::Store`] when the state directory cannot be
    /// prepared.
    pub fn bind(config: ServeConfig) -> Result<Self, ServeError> {
        let store = FsJobStore::open(&config.state_dir)?;
        let shards =
            ShardBoard::open(config.state_dir.join("shards"), Clock::real()).map_err(|e| {
                ServeError::Shards {
                    message: e.to_string(),
                }
            })?;
        let listener = TcpListener::bind(&config.addr).map_err(|e| ServeError::Bind {
            addr: config.addr.clone(),
            message: e.to_string(),
        })?;
        // Non-blocking accept: the accept task multiplexes "new
        // connection?" with "drain requested?" on one thread.
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Bind {
                addr: config.addr.clone(),
                message: e.to_string(),
            })?;
        let limiter = RateLimiter::new(config.rate_per_sec, config.burst);
        Ok(Self {
            listener,
            config,
            store,
            limiter,
            dispatch: Mutex::new(Dispatch {
                active: 0,
                queue: VecDeque::new(),
            }),
            answered: Mutex::new(HashMap::new()),
            shards,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    ///
    /// # Panics
    ///
    /// Panics if the socket vanished out from under the process — not
    /// an expected condition for a bound listener.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Runs the daemon until the shutdown flag is raised, then drains:
    /// stops accepting, interrupts running sweeps at the next cell
    /// boundary (journals flush on interrupt), and returns once every
    /// task has finished.
    ///
    /// On startup, unfinished jobs found in the state directory are
    /// re-queued in submission order; their journals splice every
    /// settled cell, so resumed work is never recomputed.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when job state cannot be read or written
    /// during startup rescan or final accounting.
    pub fn run(&self) -> Result<ServeOutcome, ServeError> {
        let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm());

        // Crash recovery: anything not terminal goes back on the queue.
        let mut resumed = 0usize;
        for job in self.store.list()? {
            if job.value.state.is_terminal() {
                continue;
            }
            let was_queued = job.value.state == JobState::Queued;
            let mut next = job.value.clone();
            next.state = JobState::Queued;
            next.error_chain.clear();
            let committed = self.store.commit(&job.value.id, job.version, next)?;
            if !was_queued {
                SERVE_JOBS_RESUMED.incr();
                resumed += 1;
            }
            self.dispatch
                .lock()
                .expect("dispatch lock poisoned")
                .queue
                .push_back(committed.value.id);
        }
        if resumed > 0 {
            eprintln!("serve: resuming {resumed} interrupted job(s) from the journal");
        }
        // Shards whose last segment landed just before a crash may sit
        // fully covered but unmerged; finish the splice before serving.
        match self.shards.recover(&chip) {
            Ok(0) => {}
            Ok(n) => eprintln!("serve: merged {n} fully-covered shard(s) found on disk"),
            Err(e) => eprintln!("serve: shard recovery: {e}"),
        }

        let ctx = Ctx {
            config: &self.config,
            store: &self.store,
            limiter: &self.limiter,
            dispatch: &self.dispatch,
            answered: &self.answered,
            chip: &chip,
            shards: &self.shards,
        };
        // One accept task + HTTP handlers + job runners. Sweeps spawn
        // their own worker pools, so a running job occupies exactly one
        // slot here and /health stays answerable throughout.
        let workers = 1 + self.config.http_workers + self.config.max_active_jobs;
        let listener = &self.listener;
        pool::run(workers, move |p| {
            pump(ctx, p);
            p.spawn(move |p| accept_loop(ctx, listener, p));
        });

        let mut outcome = ServeOutcome {
            jobs_completed: 0,
            jobs_failed: 0,
            jobs_unfinished: 0,
        };
        for job in self.store.list()? {
            match job.value.state {
                JobState::Completed => outcome.jobs_completed += 1,
                JobState::Failed => outcome.jobs_failed += 1,
                _ => outcome.jobs_unfinished += 1,
            }
        }
        if outcome.jobs_unfinished > 0 {
            eprintln!(
                "serve: {} unfinished job(s); every settled cell is journaled — resume with:\n  \
                 cmp-tlp serve --addr {} --state-dir {}",
                outcome.jobs_unfinished,
                self.config.addr,
                self.config.state_dir.display()
            );
        }
        Ok(outcome)
    }
}

/// Accepts connections until the drain flag rises, handing each off to
/// an HTTP task.
fn accept_loop<'a>(ctx: Ctx<'a>, listener: &'a TcpListener, p: &Pool<'a>) {
    loop {
        if ctx.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                let ip = peer.ip();
                p.spawn(move |p| handle_connection(ctx, p, stream, ip));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // Transient accept failure (EMFILE, aborted handshake):
                // back off briefly rather than spinning or dying.
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Serves one connection under the request deadline: read a capped
/// request, dispatch, write the response, close.
fn handle_connection<'a>(ctx: Ctx<'a>, p: &Pool<'a>, mut stream: TcpStream, ip: IpAddr) {
    let started = Instant::now();
    let _deadline = tlp_obs::cancel::install(started + ctx.config.request_deadline);
    SERVE_HTTP_REQUESTS.incr();
    // Short read timeouts make every blocked read a poll point for the
    // task's cancellation deadline.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_write_timeout(Some(ctx.config.request_deadline));
    let limits = HttpLimits {
        max_body_bytes: ctx.config.max_body_bytes,
        ..HttpLimits::default()
    };
    let response = match http::read_request(&mut stream, &limits) {
        Ok(req) => {
            SERVE_HIST_REQUEST_BYTES.record(req.body.len() as u64);
            handlers::handle(ctx, p, &req, ip)
        }
        Err(e) => {
            SERVE_HTTP_PARSE_REJECTED.incr();
            Response::from_parse_error(&e)
        }
    };
    match response.status {
        200..=299 => SERVE_HTTP_RESPONSES_2XX.incr(),
        500..=599 => SERVE_HTTP_RESPONSES_5XX.incr(),
        _ => SERVE_HTTP_RESPONSES_4XX.incr(),
    }
    let _ = stream.write_all(&response.to_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Both);
    SERVE_HIST_RESPONSE_MICROS
        .record(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
}

/// Starts queued jobs while slots are free. Called after submissions
/// and after each job finishes; never blocks on running work.
pub(crate) fn pump<'a>(ctx: Ctx<'a>, p: &Pool<'a>) {
    loop {
        let id = {
            let mut d = ctx.dispatch.lock().expect("dispatch lock poisoned");
            if ctx.draining() || d.active >= ctx.config.max_active_jobs {
                return;
            }
            let Some(id) = d.queue.pop_front() else {
                return;
            };
            d.active += 1;
            id
        };
        p.spawn(move |p| {
            run_job(ctx, &id);
            ctx.dispatch.lock().expect("dispatch lock poisoned").active -= 1;
            pump(ctx, p);
        });
    }
}

/// Executes one job: commit `running`, run the sweep against its
/// journal, commit the outcome. Store conflicts here mean an operator
/// edited state out from under a live daemon — logged, not fatal.
fn run_job(ctx: Ctx<'_>, id: &str) {
    let snap = match ctx.store.snapshot(id) {
        Ok(snap) => snap,
        Err(e) => {
            eprintln!("serve: job {id}: cannot load: {e}");
            SERVE_JOBS_FAILED.incr();
            return;
        }
    };
    let mut running = snap.value.clone();
    running.state = JobState::Running;
    let current = match ctx.store.commit(id, snap.version, running) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("serve: job {id}: cannot mark running: {e}");
            SERVE_JOBS_FAILED.incr();
            return;
        }
    };

    // The job's own core mix and budget ride on the builder; the shared
    // homogeneous chip stays untouched for everyone else.
    let mut builder = current
        .value
        .sweep(ctx.chip)
        .threads(ctx.config.job_threads)
        .checkpoint(ctx.store.journal_path(id))
        .interrupt(Arc::clone(&ctx.config.shutdown));
    if let Some(deadline) = ctx.config.cell_deadline {
        builder = builder.cell_deadline(deadline);
    }
    let outcome = builder.run();

    let mut next = current.value.clone();
    match outcome {
        Ok(report) => {
            next.state = JobState::Completed;
            next.report = Some(report.to_json());
            SERVE_JOBS_COMPLETED.incr();
        }
        Err(ExperimentError::Interrupted(info)) => {
            next.state = JobState::Interrupted;
            next.error_chain = vec![format!("interrupted: {info}")];
            SERVE_JOBS_INTERRUPTED.incr();
        }
        Err(e) => {
            next.state = JobState::Failed;
            next.error_chain = error_chain(&e);
            SERVE_JOBS_FAILED.incr();
        }
    }
    if let Err(e) = ctx.store.commit(id, current.version, next) {
        eprintln!("serve: job {id}: cannot record outcome: {e}");
    }
}
