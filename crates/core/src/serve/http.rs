//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! The serve layer speaks just enough HTTP for curl, load balancers, and
//! Prometheus scrapers: one request per connection (`Connection: close`),
//! requests capped in head size, header count, and body size, and every
//! rejection mapped to a well-formed status line. The parser treats the
//! peer as hostile — every limit is enforced *while* reading, so a
//! slow-loris or an unbounded body never accumulates memory or time
//! beyond the caps.
//!
//! Two clocks bound a read: a wall-clock deadline inside the parser
//! (self-defense even when run standalone) and the [`tlp_obs::cancel`]
//! deadline the connection handler installs as its first act, which
//! passes at the same time measured from the handler's start; the read
//! loop checks both between reads, so a stalled peer costs one timeout
//! tick, never a worker.

use std::io::Read;
use std::time::{Duration, Instant};

/// Hard caps on one HTTP request. Every field is enforced during the
/// read, not after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpLimits {
    /// Request line + headers, bytes (through the blank line).
    pub max_head_bytes: usize,
    /// Maximum number of header lines.
    pub max_headers: usize,
    /// Maximum `Content-Length` / body size, bytes.
    pub max_body_bytes: usize,
    /// Wall-clock budget for reading the complete request.
    pub deadline: Duration,
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self {
            max_head_bytes: 16 * 1024,
            max_headers: 64,
            max_body_bytes: 1024 * 1024,
            deadline: Duration::from_secs(10),
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method verb, as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path plus optional query), as sent.
    pub target: String,
    /// Header `(name, value)` pairs in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (ASCII case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Every variant maps to a definite
/// status code via [`HttpParseError::status`] — malformed input from the
/// network is an expected condition, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpParseError {
    /// The request line is not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine,
    /// The HTTP version is not 1.0 or 1.1.
    UnsupportedVersion,
    /// A header line has no `:` or a non-ASCII name.
    BadHeader,
    /// More header lines than [`HttpLimits::max_headers`].
    TooManyHeaders,
    /// Request line + headers exceed [`HttpLimits::max_head_bytes`].
    HeadTooLarge {
        /// The configured cap.
        limit: usize,
    },
    /// Declared or received body exceeds [`HttpLimits::max_body_bytes`].
    BodyTooLarge {
        /// The configured cap.
        limit: usize,
    },
    /// `Content-Length` is present but not a valid integer.
    BadContentLength,
    /// The peer closed the connection before a full request arrived.
    ConnectionClosed,
    /// The read exceeded [`HttpLimits::deadline`] (slow-loris defense),
    /// or the task's cancellation deadline passed.
    Timeout,
    /// The socket failed outright (reset, broken pipe, …).
    Io(String),
}

impl HttpParseError {
    /// The `(status, reason)` this rejection answers with.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpParseError::BadRequestLine
            | HttpParseError::BadHeader
            | HttpParseError::BadContentLength
            | HttpParseError::ConnectionClosed => (400, "Bad Request"),
            HttpParseError::UnsupportedVersion => (505, "HTTP Version Not Supported"),
            HttpParseError::TooManyHeaders | HttpParseError::HeadTooLarge { .. } => {
                (431, "Request Header Fields Too Large")
            }
            HttpParseError::BodyTooLarge { .. } => (413, "Content Too Large"),
            HttpParseError::Timeout => (408, "Request Timeout"),
            HttpParseError::Io(_) => (400, "Bad Request"),
        }
    }
}

impl std::fmt::Display for HttpParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpParseError::BadRequestLine => write!(f, "malformed request line"),
            HttpParseError::UnsupportedVersion => write!(f, "unsupported HTTP version"),
            HttpParseError::BadHeader => write!(f, "malformed header line"),
            HttpParseError::TooManyHeaders => write!(f, "too many header lines"),
            HttpParseError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds {limit} bytes")
            }
            HttpParseError::BodyTooLarge { limit } => {
                write!(f, "request body exceeds {limit} bytes")
            }
            HttpParseError::BadContentLength => write!(f, "invalid content-length"),
            HttpParseError::ConnectionClosed => {
                write!(f, "connection closed before the request completed")
            }
            HttpParseError::Timeout => write!(f, "request read timed out"),
            HttpParseError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for HttpParseError {}

/// Reads from `stream` until `buf` satisfies `done`, enforcing the
/// wall-clock deadline, the cancellation deadline, and a byte cap. `cap` is
/// the most bytes `buf` may grow to before `over_cap` is returned.
fn read_until(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    started: Instant,
    limits: &HttpLimits,
    cap: usize,
    over_cap: &HttpParseError,
    done: impl Fn(&[u8]) -> bool,
) -> Result<(), HttpParseError> {
    let mut chunk = [0u8; 1024];
    while !done(buf) {
        if buf.len() > cap {
            return Err(over_cap.clone());
        }
        if started.elapsed() > limits.deadline || tlp_obs::cancel::cancelled() {
            return Err(HttpParseError::Timeout);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpParseError::ConnectionClosed),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                // A socket read timeout is the poll tick: loop back to
                // the deadline and cancellation checks above.
                continue;
            }
            Err(e) => return Err(HttpParseError::Io(e.to_string())),
        }
        if buf.len() > cap {
            return Err(over_cap.clone());
        }
    }
    Ok(())
}

/// Position just past the `\r\n\r\n` terminating the head, if present.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Reads and parses one HTTP request under `limits`.
///
/// # Errors
///
/// [`HttpParseError`], each variant carrying a definite status code —
/// truncated, oversized, slow, or garbage input all produce typed
/// rejections, never panics.
pub fn read_request(
    stream: &mut impl Read,
    limits: &HttpLimits,
) -> Result<Request, HttpParseError> {
    let started = Instant::now();
    let mut buf = Vec::with_capacity(1024);
    read_until(
        stream,
        &mut buf,
        started,
        limits,
        limits.max_head_bytes,
        &HttpParseError::HeadTooLarge {
            limit: limits.max_head_bytes,
        },
        |b| head_end(b).is_some(),
    )?;
    let head_len = head_end(&buf).expect("read_until returned with a complete head");
    let head = std::str::from_utf8(&buf[..head_len - 4]).map_err(|_| HttpParseError::BadHeader)?;
    let mut lines = head.split("\r\n");

    let request_line = lines.next().ok_or(HttpParseError::BadRequestLine)?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpParseError::BadRequestLine),
    };
    if !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(HttpParseError::BadRequestLine);
    }
    if !(version.starts_with("HTTP/1.") && version.len() == 8) {
        if version.starts_with("HTTP/") {
            return Err(HttpParseError::UnsupportedVersion);
        }
        return Err(HttpParseError::BadRequestLine);
    }

    let mut headers = Vec::new();
    for line in lines {
        if headers.len() >= limits.max_headers {
            return Err(HttpParseError::TooManyHeaders);
        }
        let (name, value) = line.split_once(':').ok_or(HttpParseError::BadHeader)?;
        if name.is_empty() || !name.bytes().all(|b| b.is_ascii_graphic()) {
            return Err(HttpParseError::BadHeader);
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body: Vec::new(),
    };
    let body_len = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpParseError::BadContentLength)?,
    };
    if body_len > limits.max_body_bytes {
        return Err(HttpParseError::BodyTooLarge {
            limit: limits.max_body_bytes,
        });
    }
    let total = head_len + body_len;
    read_until(
        stream,
        &mut buf,
        started,
        limits,
        total,
        // Only reachable via a peer sending more than it declared; the
        // declared length itself was already checked against the cap.
        &HttpParseError::BodyTooLarge {
            limit: limits.max_body_bytes,
        },
        |b| b.len() >= total,
    )?;
    Ok(Request {
        body: buf[head_len..total].to_vec(),
        ..request
    })
}

/// An HTTP response about to be serialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Optional `Retry-After` header (seconds), for 429/503 shedding.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response: the document pretty-printed plus a trailing
    /// newline (matching the CLI's stdout rendering byte for byte).
    pub fn json(status: u16, reason: &'static str, doc: &tlp_tech::json::Json) -> Self {
        let mut body = doc.to_string_pretty().into_bytes();
        body.push(b'\n');
        Self {
            status,
            reason,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, reason: &'static str, body: impl Into<String>) -> Self {
        Self {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            retry_after: None,
        }
    }

    /// A JSON error envelope: `{"error": message}`.
    pub fn error(status: u16, reason: &'static str, message: &str) -> Self {
        Self::json(
            status,
            reason,
            &tlp_tech::json::Json::object([("error", message)]),
        )
    }

    /// Sets the `Retry-After` header.
    pub fn with_retry_after(mut self, seconds: u64) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// The rejection response for a request that failed to parse.
    pub fn from_parse_error(e: &HttpParseError) -> Self {
        let (status, reason) = e.status();
        Self::error(status, reason, &e.to_string())
    }

    /// Serializes the response: status line, headers (always
    /// `Connection: close` — one request per connection), blank line,
    /// body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len()
        )
        .into_bytes();
        if let Some(secs) = self.retry_after {
            out.extend_from_slice(format!("retry-after: {secs}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Request, HttpParseError> {
        read_request(&mut Cursor::new(bytes), &HttpLimits::default())
    }

    #[test]
    fn parses_a_get_request() {
        let r = parse(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.target, "/health");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.header("HOST"), Some("x"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let r = parse(b"POST /sweeps HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn excess_bytes_past_the_declared_body_are_ignored() {
        let r = parse(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nab<garbage>").unwrap();
        assert_eq!(r.body, b"ab");
    }

    #[test]
    fn malformed_request_lines_are_400_not_panics() {
        for bad in [
            &b""[..],
            b"\r\n\r\n",
            b"GET\r\n\r\n",
            b"GET /\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"G=T / HTTP/1.1\r\n\r\n",
            b" / HTTP/1.1\r\n\r\n",
            b"GET / PTTH/1.1\r\n\r\n",
            b"\x00\x01\x02\x03\r\n\r\n",
        ] {
            let e = parse(bad).unwrap_err();
            let (status, _) = e.status();
            assert_eq!(status, 400, "input {bad:?} gave {e}");
        }
    }

    #[test]
    fn unsupported_version_is_505() {
        let e = parse(b"GET / HTTP/2.0\r\n\r\n").unwrap_err();
        assert_eq!(e, HttpParseError::UnsupportedVersion);
        assert_eq!(e.status().0, 505);
    }

    #[test]
    fn truncated_requests_are_connection_closed() {
        for bad in [&b"GET / HTTP/1.1"[..], b"GET / HTTP/1.1\r\nHost: x\r\n"] {
            assert_eq!(parse(bad).unwrap_err(), HttpParseError::ConnectionClosed);
        }
        // Body shorter than declared.
        let e = parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert_eq!(e, HttpParseError::ConnectionClosed);
    }

    #[test]
    fn oversized_declared_body_is_413_before_reading_it() {
        let limits = HttpLimits {
            max_body_bytes: 4,
            ..HttpLimits::default()
        };
        let e = read_request(
            &mut Cursor::new(&b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789"[..]),
            &limits,
        )
        .unwrap_err();
        assert_eq!(e, HttpParseError::BodyTooLarge { limit: 4 });
        assert_eq!(e.status().0, 413);
    }

    #[test]
    fn oversized_head_is_431() {
        let limits = HttpLimits {
            max_head_bytes: 64,
            ..HttpLimits::default()
        };
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(1000));
        let e = read_request(&mut Cursor::new(huge.as_bytes()), &limits).unwrap_err();
        assert_eq!(e.status().0, 431);
    }

    #[test]
    fn too_many_headers_is_431() {
        let limits = HttpLimits {
            max_headers: 3,
            ..HttpLimits::default()
        };
        let req = format!("GET / HTTP/1.1\r\n{}\r\n", "a: b\r\n".repeat(10));
        let e = read_request(&mut Cursor::new(req.as_bytes()), &limits).unwrap_err();
        assert_eq!(e, HttpParseError::TooManyHeaders);
    }

    #[test]
    fn bad_content_length_is_400() {
        let e = parse(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n").unwrap_err();
        assert_eq!(e, HttpParseError::BadContentLength);
        assert_eq!(e.status().0, 400);
    }

    #[test]
    fn responses_serialize_with_content_length_and_close() {
        let r = Response::text(200, "OK", "hi");
        let bytes = String::from_utf8(r.to_bytes()).unwrap();
        assert!(bytes.starts_with("HTTP/1.1 200 OK\r\n"), "{bytes}");
        assert!(bytes.contains("content-length: 2\r\n"), "{bytes}");
        assert!(bytes.contains("connection: close\r\n"), "{bytes}");
        assert!(bytes.ends_with("\r\n\r\nhi"), "{bytes}");
    }

    #[test]
    fn retry_after_header_renders() {
        let r = Response::error(429, "Too Many Requests", "slow down").with_retry_after(7);
        let bytes = String::from_utf8(r.to_bytes()).unwrap();
        assert!(bytes.contains("retry-after: 7\r\n"), "{bytes}");
        assert!(bytes.contains("\"error\": \"slow down\""), "{bytes}");
    }

    #[test]
    fn every_parse_error_yields_a_well_formed_status_line() {
        let errors = [
            HttpParseError::BadRequestLine,
            HttpParseError::UnsupportedVersion,
            HttpParseError::BadHeader,
            HttpParseError::TooManyHeaders,
            HttpParseError::HeadTooLarge { limit: 1 },
            HttpParseError::BodyTooLarge { limit: 1 },
            HttpParseError::BadContentLength,
            HttpParseError::ConnectionClosed,
            HttpParseError::Timeout,
            HttpParseError::Io("reset".into()),
        ];
        for e in errors {
            let bytes = Response::from_parse_error(&e).to_bytes();
            let text = String::from_utf8_lossy(&bytes);
            let (status, _) = e.status();
            assert!(
                text.starts_with(&format!("HTTP/1.1 {status} ")),
                "{e}: {text}"
            );
            assert!((400..=599).contains(&status), "{e}: {status}");
        }
    }
}
