//! Helpers shared by the daemon tests (`serve.rs`, `shard_sweep.rs`): a
//! scratch directory, a daemon on its own thread, and a minimal HTTP
//! client over a real socket. Each test binary uses its own subset.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cmp_tlp::serve::{ServeConfig, ServeOutcome, Server};
use cmp_tlp::sweep::{SweepBuilder, SweepSpec};
use cmp_tlp::ExperimentalChip;
use tlp_sim::ChipSpec;
use tlp_tech::json::ToJson;

/// A scratch directory, deleted on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "cmp-tlp-test-{tag}-{}-{unique}",
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

/// Test defaults: ephemeral port, rate limiting effectively off, one
/// worker thread per sweep.
pub fn test_config(state_dir: &TempDir) -> ServeConfig {
    let mut config = ServeConfig::new("127.0.0.1:0", &state_dir.0);
    config.rate_per_sec = 10_000.0;
    config.burst = 10_000.0;
    config.http_workers = 2;
    config.job_threads = 1;
    config
}

/// A daemon running on its own thread until `stop()` is called or the
/// harness is dropped.
pub struct Harness {
    pub addr: SocketAddr,
    pub shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<ServeOutcome>>,
}

impl Harness {
    pub fn start(config: ServeConfig) -> Self {
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

    pub fn stop(mut self) -> ServeOutcome {
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
pub struct Reply {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Sends raw bytes over a fresh connection and parses the one response
/// the daemon writes before closing.
pub fn raw(addr: SocketAddr, request: &[u8]) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
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

pub fn get(addr: SocketAddr, path: &str) -> Reply {
    raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nhost: test\r\n\r\n").as_bytes(),
    )
}

/// Sends `body` with `method` (`POST`, `PUT`).
pub fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> Reply {
    raw(
        addr,
        format!(
            "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> Reply {
    send(addr, "POST", path, body)
}

pub fn chip() -> ExperimentalChip {
    ExperimentalChip::from_spec(ChipSpec::ispass05(16), tlp_tech::Technology::itrs_65nm())
}

/// The exact bytes the CLI's `--json` mode prints for the sweep
/// `configure` sets up on the stock chip, serially: the daemon's report
/// endpoints must match them byte for byte.
pub fn reference_report(configure: impl FnOnce(SweepBuilder) -> SweepBuilder) -> String {
    let chip = chip();
    let report = configure(chip.sweep().threads(1)).run().expect("reference");
    let mut text = report.to_json().to_string_pretty();
    text.push('\n');
    text
}

/// [`reference_report`] for a plain grid.
pub fn grid_report(spec: SweepSpec) -> String {
    reference_report(|b| b.grid(spec))
}
