//! An in-process `cmp-tlp serve` daemon on loopback and the minimal
//! HTTP/1.1 client the benchmark drives it with.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmp_tlp::serve::{ServeConfig, Server};
use cmp_tlp::tech::json::Json;

/// Long-poll wait the client asks for, seconds (`GET /sweeps/{id}?wait=1`).
pub const POLL_WAIT_S: f64 = 1.0;

/// The daemon's defaults, except one job at a time on `job_threads`
/// sweep threads, and a rate limit too high ever to throttle the one
/// client (it stays in the request path; a rate of 0 would remove it).
pub fn config(state_dir: &Path, job_threads: usize) -> ServeConfig {
    let mut c = ServeConfig::new("127.0.0.1:0", state_dir);
    c.max_active_jobs = 1;
    c.job_threads = job_threads;
    c.rate_per_sec = 1e9;
    c.burst = 1e9;
    c
}

/// Raises the drain flag when dropped, so a panicking client cannot
/// leave the daemon thread running.
struct Drain(Arc<AtomicBool>);

impl Drop for Drain {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Binds a daemon with `config`, waits for its first `200` from
/// `/ready`, runs `client` against it, then drains it and waits for it
/// to stop. Returns the client's value and the bind → ready time.
///
/// # Errors
///
/// The bind failure or a `/ready` that never answered `200`, as text.
pub fn with_daemon<T>(
    config: ServeConfig,
    client: impl FnOnce(SocketAddr) -> T,
) -> Result<(T, f64), String> {
    let t0 = Instant::now();
    let shutdown = Arc::clone(&config.shutdown);
    let server = Server::bind(config).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    std::thread::scope(|s| {
        let drain = Drain(shutdown);
        let daemon = s.spawn(|| server.run());
        // The listener is bound, so this connects at once and is answered
        // as soon as the daemon has built its chip and starts accepting.
        let ready = request(addr, "GET", "/ready", None);
        let ready_s = t0.elapsed().as_secs_f64();
        let value = match ready {
            Ok(r) if r.status == 200 => Ok((client(addr), ready_s)),
            Ok(r) => Err(format!("/ready answered {}", r.status)),
            Err(e) => Err(format!("/ready failed: {e}")),
        };
        drop(drain);
        match daemon.join() {
            Ok(Ok(_)) => value,
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    })
}

/// One HTTP response.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn is_2xx(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The body parsed as JSON, if it is JSON.
    pub fn json(&self) -> Option<Json> {
        Json::parse(std::str::from_utf8(&self.body).ok()?).ok()
    }
}

/// Sends one request on a fresh connection and reads the whole reply
/// (the daemon closes every connection after its response).
///
/// # Errors
///
/// Connection, read or write failures, and replies that are not HTTP.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP reply"))
}

fn parse_reply(raw: &[u8]) -> Option<Reply> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    Some(Reply {
        status,
        body: raw[split + 4..].to_vec(),
    })
}

/// The string value of `key` in a JSON object.
pub fn str_field<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    match doc {
        Json::Obj(pairs) => pairs.iter().find_map(|(k, v)| match v {
            Json::Str(s) if k == key => Some(s.as_str()),
            _ => None,
        }),
        _ => None,
    }
}

/// One job's client-side record: submit, long-poll to a terminal state,
/// fetch the report.
#[derive(Debug, Clone, Default)]
pub struct Job {
    /// Job completed and every response was 2xx.
    pub ok: bool,
    /// Why not, when `ok` is false.
    pub error: Option<String>,
    pub non2xx: u32,
    /// Status polls and how many of them were held for the whole wait.
    pub polls: u32,
    pub held_full: u32,
    /// Report body as served.
    pub report: Vec<u8>,
    /// Request intervals, in order: the submit, each poll, the report.
    pub submit: Option<(Instant, Instant)>,
    pub poll: Vec<(Instant, Instant)>,
    pub fetch: Option<(Instant, Instant)>,
}

/// Runs one job with submission `body` through the daemon at `addr`.
pub fn run_job(addr: SocketAddr, body: &str) -> Job {
    let mut job = Job::default();
    if let Err(e) = drive(addr, body, &mut job) {
        job.error = Some(e);
    }
    job.ok = job.error.is_none() && job.non2xx == 0;
    job
}

fn drive(addr: SocketAddr, body: &str, job: &mut Job) -> Result<(), String> {
    let call = |method: &str, path: &str, body: Option<&str>, job: &mut Job| {
        let t0 = Instant::now();
        let reply = request(addr, method, path, body).map_err(|e| format!("{method} {path}: {e}"));
        let t1 = Instant::now();
        if let Ok(r) = &reply {
            if !r.is_2xx() {
                job.non2xx += 1;
            }
        }
        reply.map(|r| (r, (t0, t1)))
    };
    let (submitted, at) = call("POST", "/sweeps", Some(body), job)?;
    job.submit = Some(at);
    let doc = submitted
        .json()
        .filter(|_| submitted.status == 202)
        .ok_or_else(|| format!("submit answered {}", submitted.status))?;
    let id = str_field(&doc, "id")
        .ok_or("submit reply has no id")?
        .to_string();
    let wait = format!("/sweeps/{id}?wait={}", POLL_WAIT_S as u64);
    let state = loop {
        let (status, at) = call("GET", &wait, None, job)?;
        job.polls += 1;
        if at.1.duration_since(at.0).as_secs_f64() >= 0.95 * POLL_WAIT_S {
            job.held_full += 1;
        }
        job.poll.push(at);
        let doc = status
            .json()
            .filter(|_| status.status == 200)
            .ok_or_else(|| format!("status answered {}", status.status))?;
        let state = str_field(&doc, "state").ok_or("status has no state")?;
        if state == "completed" || state == "failed" {
            break state.to_string();
        }
    };
    if state != "completed" {
        return Err(format!("job {id} {state}"));
    }
    let (report, at) = call("GET", &format!("/sweeps/{id}/report"), None, job)?;
    job.fetch = Some(at);
    if report.status != 200 {
        return Err(format!("report answered {}", report.status));
    }
    job.report = report.body;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_reply() {
        let r = parse_reply(b"HTTP/1.1 202 Accepted\r\ncontent-length: 2\r\n\r\n{}").unwrap();
        assert_eq!(r.status, 202);
        assert_eq!(r.body, b"{}");
        assert!(r.is_2xx());
        assert!(parse_reply(b"garbage").is_none());
    }
}
