//! Endpoint handlers: route → response, given the shared server state.

use std::net::IpAddr;
use std::time::{Duration, Instant};

use tlp_obs::metrics::{SERVE_HTTP_RATE_LIMITED, SERVE_JOBS_SHED, SERVE_JOBS_SUBMITTED};
use tlp_tech::json::{Json, JsonLimits};

use super::http::{Request, Response};
use super::jobs::{parse_submission, JobRecord, JobState, JobStore, JobStoreError};
use super::middleware::Admission;
use super::router::{query_param, route, Route};
use super::{pump, Ctx, Progress};
use crate::journal::{num_field, str_field, Journal, JournalMode};
use crate::pool::Pool;
use crate::shard::{LeaseOffer, SegmentOutcome, ShardError};
use crate::sweep::{FaultPlan, RetryPolicy};
use tlp_tech::json::ToJson;

/// Dispatches one parsed request.
pub(crate) fn handle<'a>(ctx: Ctx<'a>, p: &Pool<'a>, req: &Request, ip: IpAddr) -> Response {
    let resolved = route(&req.target);
    // Liveness and readiness stay answerable under any load: a client
    // burning its budget on submissions must not blind the orchestrator
    // probing the daemon.
    if !matches!(resolved, Route::Health | Route::Ready) {
        if let Admission::Limited { retry_after_secs } = ctx.limiter.check(ip, Instant::now()) {
            SERVE_HTTP_RATE_LIMITED.incr();
            return Response::error(429, "Too Many Requests", "per-IP rate limit exceeded")
                .with_retry_after(retry_after_secs);
        }
    }
    match (req.method.as_str(), resolved) {
        ("GET", Route::Health) => health(ctx),
        ("GET", Route::Ready) => ready(ctx),
        ("GET", Route::Metrics) => Response::text(200, "OK", tlp_obs::prometheus::render()),
        ("GET", Route::Sweeps) => list(ctx),
        ("POST", Route::Sweeps) => submit(ctx, p, req),
        ("GET", Route::Sweep(id)) => status(ctx, req, &id),
        ("GET", Route::SweepReport(id)) => report(ctx, &id),
        ("GET", Route::SweepTrace(id)) => trace(ctx, &id),
        ("GET", Route::Shards) => shard_list(ctx),
        ("POST", Route::Shards) => shard_create(ctx, req),
        ("GET", Route::Shard(id)) => shard_status(ctx, &id),
        ("GET", Route::ShardReport(id)) => shard_report(ctx, &id),
        ("POST", Route::ShardLease(id)) => shard_lease(ctx, req, &id),
        ("POST", Route::LeaseHeartbeat(id)) => lease_heartbeat(ctx, req, &id),
        ("PUT", Route::LeaseSegment(id)) => lease_segment(ctx, req, &id),
        (_, Route::NotFound) => Response::error(404, "Not Found", "no such endpoint"),
        (method, _) => Response::error(
            405,
            "Method Not Allowed",
            &format!("method {method} not supported on this endpoint"),
        ),
    }
}

/// Summary document served for a job in listings, submissions, and
/// status responses.
pub(super) fn job_summary(record: &JobRecord) -> Json {
    let mut doc = Json::object([
        ("id", Json::from(record.id.as_str())),
        ("state", Json::from(record.state.name())),
    ]);
    record.put_grid(&mut doc);
    doc.set(
        "cells_total",
        (record.apps.len() + record.server_loads.len()) * record.core_counts.len(),
    );
    doc.set("url", format!("/sweeps/{}", record.id));
    record.put_chip(&mut doc);
    if !record.error_chain.is_empty() {
        doc.set(
            "error_chain",
            Json::array(&record.error_chain, |e| e.as_str()),
        );
    }
    doc
}

fn store_error(e: &JobStoreError) -> Response {
    match e {
        JobStoreError::Missing { id } => {
            Response::error(404, "Not Found", &format!("no job named {id}"))
        }
        other => Response::error(500, "Internal Server Error", &other.to_string()),
    }
}

fn health(ctx: Ctx<'_>) -> Response {
    let (active, queued) = {
        let d = ctx.dispatch.lock().expect("dispatch lock poisoned");
        (d.active, d.queue.len())
    };
    Response::json(
        200,
        "OK",
        &Json::object([
            ("status", Json::from("ok")),
            ("draining", Json::from(ctx.draining())),
            ("jobs_active", Json::from(active)),
            ("jobs_queued", Json::from(queued)),
        ]),
    )
}

fn ready(ctx: Ctx<'_>) -> Response {
    if ctx.draining() {
        Response::json(
            503,
            "Service Unavailable",
            &Json::object([("ready", Json::from(false)), ("draining", Json::from(true))]),
        )
        .with_retry_after(5)
    } else {
        Response::json(200, "OK", &Json::object([("ready", true)]))
    }
}

fn list(ctx: Ctx<'_>) -> Response {
    match ctx.store.list() {
        Ok(jobs) => Response::json(
            200,
            "OK",
            &Json::object([(
                "jobs",
                Json::Arr(jobs.iter().map(|j| job_summary(&j.value)).collect()),
            )]),
        ),
        Err(e) => store_error(&e),
    }
}

/// Whether the request carries the configured API key, either as
/// `Authorization: Bearer <key>` or as the worker loop's `x-api-key`
/// header. Trivially true when no key is configured.
fn authorized(ctx: Ctx<'_>, req: &Request) -> bool {
    let Some(key) = &ctx.config.api_key else {
        return true;
    };
    let bearer = format!("Bearer {key}");
    req.header("authorization").map(str::trim) == Some(bearer.as_str())
        || req.header("x-api-key").map(str::trim) == Some(key.as_str())
}

fn unauthorized() -> Response {
    Response::error(401, "Unauthorized", "missing or invalid API key")
}

fn submit<'a>(ctx: Ctx<'a>, p: &Pool<'a>, req: &Request) -> Response {
    if !authorized(ctx, req) {
        return unauthorized();
    }
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "Bad Request", "body is not UTF-8");
    };
    let doc = match Json::parse_with_limits(body, JsonLimits::untrusted(ctx.config.max_body_bytes))
    {
        Ok(doc) => doc,
        Err(e) => return Response::error(400, "Bad Request", &format!("invalid JSON: {e}")),
    };
    let record = match parse_submission(&doc) {
        Ok(record) => record,
        Err(message) => return Response::error(422, "Unprocessable Content", &message),
    };

    // Admission check and store insert under one lock, so two racing
    // submitters cannot both squeeze past a nearly-full queue.
    let created = {
        let mut d = ctx.dispatch.lock().expect("dispatch lock poisoned");
        if ctx.draining() {
            return Response::error(503, "Service Unavailable", "daemon is draining")
                .with_retry_after(5);
        }
        if d.queue.len() >= ctx.config.queue_capacity {
            SERVE_JOBS_SHED.incr();
            return Response::error(429, "Too Many Requests", "admission queue is full")
                .with_retry_after(30);
        }
        match ctx.store.create(record) {
            Ok(created) => {
                d.queue.push_back(created.value.id.clone());
                created
            }
            Err(e) => return store_error(&e),
        }
    };
    SERVE_JOBS_SUBMITTED.incr();
    pump(ctx, p);
    Response::json(202, "Accepted", &job_summary(&created.value))
}

/// Opens the job's cell journal read-only, if it exists and matches.
/// This is safe while the job runs: a line caught half-appended reads as
/// a torn tail and is left out, so the answer lags the journal by at
/// most one record and never misreads it.
fn open_journal(ctx: Ctx<'_>, record: &JobRecord) -> Option<Journal> {
    let path = ctx.store.journal_path(&record.id);
    if !path.exists() {
        return None;
    }
    // A heterogeneous job's journal is fingerprinted with its chip tag;
    // reading it back needs the same tag or the open is (correctly)
    // refused as a spec mismatch.
    Journal::open_with_chip(
        &path,
        JournalMode::Resume,
        &record.spec(),
        &FaultPlan::none(),
        &RetryPolicy::default(),
        record.chip_tag().as_deref(),
    )
    .ok()
}

/// The progress a long-poller watches: the lifecycle state plus how many
/// cells the journal has settled. Any change releases the poll.
fn progress_mark(ctx: Ctx<'_>, record: &JobRecord) -> Progress {
    let completed = open_journal(ctx, record)
        .map(|j| j.completed_cells())
        .unwrap_or(0);
    (record.state, completed)
}

fn status(ctx: Ctx<'_>, req: &Request, id: &str) -> Response {
    // Counted before the snapshot, so a write landing between the two
    // still ends the wait below.
    let mut writes = ctx.store.writes();
    let mut snap = match ctx.store.snapshot(id) {
        Ok(snap) => snap,
        Err(e) => return store_error(&e),
    };
    // `?wait=<secs>` long-poll: hold the response until the job makes
    // progress or the wait runs out. The wait is clamped safely under
    // the request deadline so the pool watchdog never reaps a healthy
    // poll, and the loop yields early on drain or cancellation.
    if let Some(wait_secs) = query_param(&req.target, "wait").and_then(|v| v.parse::<u64>().ok()) {
        let margin = Duration::from_secs(1);
        let budget =
            Duration::from_secs(wait_secs).min(ctx.config.request_deadline.saturating_sub(margin));
        let deadline = Instant::now() + budget;
        let mut progress = progress_mark(ctx, &snap.value);
        // News is progress past the last answer about this job, so a
        // change that landed after it ends this poll at once. A job not
        // asked about yet (or last seen finished) waits for a change.
        let answered = ctx.answered.lock().expect("answer log poisoned");
        let mark = answered.get(id).copied().unwrap_or(progress);
        drop(answered);
        while progress == mark {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || ctx.draining() || tlp_obs::cancel::cancelled() {
                break;
            }
            // A state change is a record write and wakes the poll at
            // once. Settled cells are only in the journal, so they, the
            // drain and the cancellation are looked at every 50 ms.
            writes = ctx
                .store
                .wait_for_write(writes, left.min(Duration::from_millis(50)));
            snap = match ctx.store.snapshot(id) {
                Ok(next) => next,
                Err(e) => return store_error(&e),
            };
            progress = progress_mark(ctx, &snap.value);
        }
    }
    let mut doc = job_summary(&snap.value);
    let journal = open_journal(ctx, &snap.value);
    let shown = (
        snap.value.state,
        journal.as_ref().map_or(0, Journal::completed_cells),
    );
    let mut answered = ctx.answered.lock().expect("answer log poisoned");
    if shown.0.is_terminal() {
        answered.remove(id);
    } else {
        answered.insert(id.to_string(), shown);
    }
    drop(answered);
    if let Some(journal) = journal {
        doc.set("cells_completed", journal.completed_cells());
        let spec = snap.value.spec();
        let mut cells = Vec::new();
        for work in spec.works() {
            let name = work.name();
            for &n in &spec.core_counts {
                let mut cell =
                    Json::object([("app", Json::from(name.as_str())), ("n", Json::from(n))]);
                match journal.cell(&name, n) {
                    Some(journaled) => {
                        if let Some(done) = &journaled.completed {
                            cell.set("status", "completed");
                            cell.set("attempts", done.attempts);
                            cell.set("row", done.row.to_json());
                        } else {
                            cell.set("status", "pending");
                            cell.set("failed_attempts", journaled.failed_attempts);
                            if !journaled.last_failure_chain.is_empty() {
                                cell.set(
                                    "last_failure",
                                    Json::array(&journaled.last_failure_chain, |e| e.as_str()),
                                );
                            }
                        }
                    }
                    None => cell.set("status", "pending"),
                }
                cells.push(cell);
            }
        }
        doc.set("cells", Json::Arr(cells));
    }
    Response::json(200, "OK", &doc)
}

fn report(ctx: Ctx<'_>, id: &str) -> Response {
    let snap = match ctx.store.snapshot(id) {
        Ok(snap) => snap,
        Err(e) => return store_error(&e),
    };
    match (&snap.value.state, &snap.value.report) {
        (JobState::Completed, Some(report)) => Response::json(200, "OK", report),
        (state, _) => Response::error(
            409,
            "Conflict",
            &format!("job {id} is {}; no final report yet", state.name()),
        ),
    }
}

fn trace(ctx: Ctx<'_>, id: &str) -> Response {
    let snap = match ctx.store.snapshot(id) {
        Ok(snap) => snap,
        Err(e) => return store_error(&e),
    };
    let records = open_journal(ctx, &snap.value)
        .map(|j| j.records())
        .unwrap_or_default();
    Response::json(
        200,
        "OK",
        &Json::object([("id", Json::from(id)), ("records", Json::Arr(records))]),
    )
}

/// Maps a typed [`ShardError`] to its HTTP status. Every distributed
/// failure mode keeps a distinct code so workers can tell "claim a new
/// lease" (410) from "your segment is wrong" (422) from "someone else
/// finished this range differently" (409).
fn shard_error(e: &ShardError) -> Response {
    let (status, reason) = match e {
        ShardError::UnknownShard { .. } | ShardError::UnknownLease { .. } => (404, "Not Found"),
        ShardError::SegmentConflict { .. } => (409, "Conflict"),
        ShardError::LeaseExpired { .. } => (410, "Gone"),
        ShardError::SegmentRejected { .. } => (422, "Unprocessable Content"),
        ShardError::BadRequest { .. } => (400, "Bad Request"),
        ShardError::Merge(_)
        | ShardError::Report { .. }
        | ShardError::Io { .. }
        | ShardError::Corrupt { .. } => (500, "Internal Server Error"),
    };
    Response::error(status, reason, &e.to_string())
}

fn shard_list(ctx: Ctx<'_>) -> Response {
    let shards: Vec<Json> = ctx.shards.list().iter().map(|v| v.to_json()).collect();
    Response::json(200, "OK", &Json::object([("shards", Json::Arr(shards))]))
}

fn shard_create(ctx: Ctx<'_>, req: &Request) -> Response {
    if !authorized(ctx, req) {
        return unauthorized();
    }
    if ctx.draining() {
        return Response::error(503, "Service Unavailable", "daemon is draining")
            .with_retry_after(5);
    }
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "Bad Request", "body is not UTF-8");
    };
    let doc = match Json::parse_with_limits(body, JsonLimits::untrusted(ctx.config.max_body_bytes))
    {
        Ok(doc) => doc,
        Err(e) => return Response::error(400, "Bad Request", &format!("invalid JSON: {e}")),
    };
    let record = match parse_submission(&doc) {
        Ok(record) => record,
        Err(message) => return Response::error(422, "Unprocessable Content", &message),
    };
    let lease_works = match num_field(&doc, "lease_works") {
        None => 1,
        Some(v) if v >= 1.0 && v.fract() == 0.0 => v as usize,
        Some(_) => {
            return Response::error(
                422,
                "Unprocessable Content",
                "\"lease_works\" must be a positive integer (rows per lease)",
            )
        }
    };
    let lease_secs = match num_field(&doc, "lease_secs") {
        None => 60,
        Some(v) if v >= 1.0 && v.fract() == 0.0 => v as u64,
        Some(_) => {
            return Response::error(
                422,
                "Unprocessable Content",
                "\"lease_secs\" must be a positive integer",
            )
        }
    };
    match ctx.shards.create(
        record,
        lease_works,
        lease_secs.saturating_mul(1000),
        ctx.chip,
    ) {
        Ok(view) => Response::json(201, "Created", &view.to_json()),
        Err(e) => shard_error(&e),
    }
}

fn shard_status(ctx: Ctx<'_>, id: &str) -> Response {
    match ctx.shards.view(id) {
        Ok(view) => Response::json(200, "OK", &view.to_json()),
        Err(e) => shard_error(&e),
    }
}

fn shard_report(ctx: Ctx<'_>, id: &str) -> Response {
    match ctx.shards.report(id) {
        Ok(Some(report)) => Response::json(200, "OK", &report),
        Ok(None) => Response::error(
            409,
            "Conflict",
            &format!("shard {id} is not fully merged; no report yet"),
        ),
        Err(e) => shard_error(&e),
    }
}

fn shard_lease(ctx: Ctx<'_>, req: &Request, id: &str) -> Response {
    if !authorized(ctx, req) {
        return unauthorized();
    }
    // The worker name is advisory (shown in status views); a missing or
    // malformed body claims anonymously rather than failing the claim.
    let worker = std::str::from_utf8(&req.body)
        .ok()
        .and_then(|body| {
            Json::parse_with_limits(body, JsonLimits::untrusted(ctx.config.max_body_bytes)).ok()
        })
        .and_then(|doc| str_field(&doc, "worker").map(str::to_string))
        .unwrap_or_else(|| "anonymous".to_string());
    match ctx.shards.lease(id, &worker) {
        Ok(LeaseOffer::Complete) => Response::json(
            200,
            "OK",
            &Json::object([("status", Json::from("complete"))]),
        ),
        Ok(LeaseOffer::Wait) => {
            Response::json(200, "OK", &Json::object([("status", Json::from("wait"))]))
        }
        Ok(LeaseOffer::Granted(grant)) => Response::json(
            200,
            "OK",
            &Json::object([
                ("status", Json::from("granted")),
                ("lease", Json::from(grant.lease_id.as_str())),
                ("shard", Json::from(grant.shard_id.as_str())),
                ("lease_ms", Json::from(grant.lease_ms)),
                (
                    "range",
                    Json::object([
                        ("lo", Json::from(grant.range.lo)),
                        ("hi", Json::from(grant.range.hi)),
                    ]),
                ),
                ("spec", grant.job.submission()),
            ]),
        ),
        Err(e) => shard_error(&e),
    }
}

fn lease_heartbeat(ctx: Ctx<'_>, req: &Request, id: &str) -> Response {
    if !authorized(ctx, req) {
        return unauthorized();
    }
    match ctx.shards.heartbeat(id) {
        Ok(lease_ms) => Response::json(
            200,
            "OK",
            &Json::object([
                ("status", Json::from("ok")),
                ("lease_ms", Json::from(lease_ms)),
            ]),
        ),
        Err(e) => shard_error(&e),
    }
}

fn lease_segment(ctx: Ctx<'_>, req: &Request, id: &str) -> Response {
    if !authorized(ctx, req) {
        return unauthorized();
    }
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "Bad Request", "segment is not UTF-8 journal text");
    };
    match ctx.shards.submit_segment(id, text, ctx.chip) {
        Ok(SegmentOutcome::Accepted { merged }) => Response::json(
            200,
            "OK",
            &Json::object([
                ("status", Json::from("accepted")),
                ("merged", Json::from(merged)),
            ]),
        ),
        Ok(SegmentOutcome::Duplicate) => Response::json(
            200,
            "OK",
            &Json::object([("status", Json::from("duplicate"))]),
        ),
        Err(e) => shard_error(&e),
    }
}
