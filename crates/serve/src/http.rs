//! Hand-rolled HTTP/1.1 framing: bounded request reading with typed
//! errors, and response writing.
//!
//! The reader is written against hostile input. Every limit is
//! enforced *while* reading (an attacker cannot make the server buffer
//! more than `max_head_bytes + max_body_bytes` per connection), every
//! malformed shape maps to a typed [`HttpError`] with a definite
//! status code, and a peer that disappears mid-request is a clean
//! close. Reads run with a short socket timeout in a poll loop so a
//! worker can notice server drain even while parked on an idle
//! keep-alive connection.

use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Socket-level read timeout of one poll tick. Short enough that a
/// draining server unparks its workers promptly; long enough to cost
/// nothing in the steady state.
pub(crate) const POLL_TICK: Duration = Duration::from_millis(100);

/// How long a sender may take to deliver a request it has started
/// (first byte to final body byte) before the server answers `408`.
const READ_DEADLINE: Duration = Duration::from_secs(10);

/// Size and time limits the request reader enforces.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Cap on the request line + headers, bytes (`431` beyond).
    pub max_head_bytes: usize,
    /// Cap on `Content-Length` (`413` beyond; the body is never read).
    pub max_body_bytes: usize,
    /// How long a keep-alive connection may sit with no request before
    /// the server closes it.
    pub idle_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            idle_timeout: Duration::from_secs(5),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The method verb, as sent (`GET`, `POST`, ...).
    pub method: String,
    /// The request target (path + optional query string), as sent.
    pub target: String,
    /// Header `(name, value)` pairs in wire order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (lowercase), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the client asked for the connection to close after
    /// this response (`Connection: close`).
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// What reading from a connection produced.
#[derive(Debug)]
pub(crate) enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// The peer closed (or went idle past the limit, or the server is
    /// draining) before sending any byte of a next request — close the
    /// connection without a response.
    Closed,
}

/// Typed request-framing failures, each with a definite wire status
/// (or none, when the peer is gone and no response can be delivered).
#[derive(Debug)]
pub enum HttpError {
    /// Request line + headers exceeded [`Limits::max_head_bytes`].
    HeadTooLarge {
        /// The configured cap the head overran.
        limit: usize,
    },
    /// `Content-Length` exceeded [`Limits::max_body_bytes`].
    BodyTooLarge {
        /// The configured cap the declared body overran.
        limit: usize,
    },
    /// The request line is not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine,
    /// A header line has no `:` separator or a non-ASCII name.
    BadHeader,
    /// `Content-Length` is not a decimal integer.
    BadContentLength,
    /// `Transfer-Encoding` (chunked bodies) is not supported.
    UnsupportedTransferEncoding,
    /// The peer stopped sending mid-request (torn head or body).
    Truncated,
    /// The peer kept the connection open but fed bytes slower than the
    /// read deadline allows.
    SlowRequest,
    /// Transport failure.
    Io(std::io::Error),
}

impl HttpError {
    /// The status line to answer with, or `None` when the connection
    /// is beyond responding (peer gone / transport dead).
    #[must_use]
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::HeadTooLarge { .. } => Some((431, "Request Header Fields Too Large")),
            HttpError::BodyTooLarge { .. } => Some((413, "Content Too Large")),
            HttpError::BadRequestLine | HttpError::BadHeader | HttpError::BadContentLength => {
                Some((400, "Bad Request"))
            }
            HttpError::UnsupportedTransferEncoding => Some((501, "Not Implemented")),
            HttpError::SlowRequest => Some((408, "Request Timeout")),
            HttpError::Truncated | HttpError::Io(_) => None,
        }
    }

    /// The machine-readable `error` tag of the JSON body.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            HttpError::HeadTooLarge { .. } => "head_too_large",
            HttpError::BodyTooLarge { .. } => "body_too_large",
            HttpError::BadRequestLine => "bad_request_line",
            HttpError::BadHeader => "bad_header",
            HttpError::BadContentLength => "bad_content_length",
            HttpError::UnsupportedTransferEncoding => "unsupported_transfer_encoding",
            HttpError::Truncated => "truncated",
            HttpError::SlowRequest => "slow_request",
            HttpError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds {limit} bytes")
            }
            HttpError::BodyTooLarge { limit } => {
                write!(f, "request body exceeds {limit} bytes")
            }
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::BadHeader => write!(f, "malformed header line"),
            HttpError::BadContentLength => write!(f, "malformed Content-Length"),
            HttpError::UnsupportedTransferEncoding => {
                write!(
                    f,
                    "Transfer-Encoding is not supported (send Content-Length)"
                )
            }
            HttpError::Truncated => write!(f, "connection closed mid-request"),
            HttpError::SlowRequest => write!(f, "request arrived too slowly"),
            HttpError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// True for the error kinds a timed-out socket read raises.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one request from `stream`. `carry` holds bytes already read
/// past the previous request on this connection (HTTP pipelining) and
/// is left holding any bytes past *this* request. `draining()` is
/// polled between read ticks: when it turns true before a request has
/// started, the read gives up cleanly so the worker can exit.
pub(crate) fn read_request(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
    limits: &Limits,
    draining: &dyn Fn() -> bool,
) -> Result<ReadOutcome, HttpError> {
    let mut buf: Vec<u8> = std::mem::take(carry);
    let started = Instant::now();
    let mut first_byte_at = if buf.is_empty() { None } else { Some(started) };
    let mut chunk = [0u8; 4096];

    // Phase 1: the head, ended by CRLFCRLF.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge {
                limit: limits.max_head_bytes,
            });
        }
        match poll_read(
            stream,
            &mut chunk,
            &mut first_byte_at,
            started,
            limits,
            draining,
        )? {
            Polled::Bytes(n) => buf.extend_from_slice(&chunk[..n]),
            Polled::Idle => return Ok(ReadOutcome::Closed),
            Polled::PeerClosed => {
                return if buf.is_empty() {
                    Ok(ReadOutcome::Closed)
                } else {
                    Err(HttpError::Truncated)
                }
            }
        }
    };
    if head_end > limits.max_head_bytes {
        return Err(HttpError::HeadTooLarge {
            limit: limits.max_head_bytes,
        });
    }

    let (mut request, body_len) = parse_head(&buf[..head_end])?;
    if body_len > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge {
            limit: limits.max_body_bytes,
        });
    }

    // Phase 2: exactly `body_len` body bytes (the head read may have
    // pulled some or all of them, or bytes of a pipelined successor).
    let body_start = head_end + 4;
    while buf.len() < body_start + body_len {
        match poll_read(
            stream,
            &mut chunk,
            &mut first_byte_at,
            started,
            limits,
            draining,
        )? {
            Polled::Bytes(n) => buf.extend_from_slice(&chunk[..n]),
            // Mid-body disconnect or stall: the request can never
            // complete. (`Idle` cannot happen here: first_byte_at is
            // set, so a stall classifies as SlowRequest.)
            Polled::Idle | Polled::PeerClosed => return Err(HttpError::Truncated),
        }
    }
    request.body = buf[body_start..body_start + body_len].to_vec();
    // Bytes past this request belong to the next one (pipelining).
    *carry = buf.split_off(body_start + body_len);
    Ok(ReadOutcome::Request(request))
}

/// One poll-tick read result.
enum Polled {
    /// `n` fresh bytes.
    Bytes(usize),
    /// Nothing arrived and the idle limit (or drain) applies.
    Idle,
    /// Orderly peer close (`read` returned 0).
    PeerClosed,
}

fn poll_read(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    first_byte_at: &mut Option<Instant>,
    started: Instant,
    limits: &Limits,
    draining: &dyn Fn() -> bool,
) -> Result<Polled, HttpError> {
    loop {
        match stream.read(chunk) {
            Ok(0) => return Ok(Polled::PeerClosed),
            Ok(n) => {
                if first_byte_at.is_none() {
                    *first_byte_at = Some(Instant::now());
                }
                return Ok(Polled::Bytes(n));
            }
            Err(e) if is_timeout(&e) => match *first_byte_at {
                // A request is in flight: it must finish within the
                // read deadline no matter how slowly bytes trickle.
                Some(first) => {
                    if first.elapsed() > READ_DEADLINE {
                        return Err(HttpError::SlowRequest);
                    }
                }
                // Between requests: draining or idle expiry closes.
                None => {
                    if draining() || started.elapsed() > limits.idle_timeout {
                        return Ok(Polled::Idle);
                    }
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses the request line + headers; returns the request (body still
/// empty) and the declared body length.
fn parse_head(head: &[u8]) -> Result<(Request, usize), HttpError> {
    // The head is the request line + headers; HTTP is ASCII here and
    // anything outside is malformed.
    let text = std::str::from_utf8(head).map_err(|_| HttpError::BadHeader)?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::BadRequestLine)?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::BadRequestLine),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequestLine);
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequestLine);
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the split's trailing empty segment
        }
        let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadHeader);
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }
    let request = Request {
        method: method.to_owned(),
        target: target.to_owned(),
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::UnsupportedTransferEncoding);
    }
    let body_len = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadContentLength)?,
    };
    Ok((request, body_len))
}

/// Writes one response. `extra` headers ride between the fixed ones
/// and the blank line (e.g. `Retry-After`). Head and body go out in
/// one vectored write loop, so a response that fits the socket buffer
/// leaves as one segment under `TCP_NODELAY`, not two.
pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &[u8],
    extra: &[(&str, String)],
    close: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    if close {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    let mut parts = [IoSlice::new(head.as_bytes()), IoSlice::new(body)];
    let mut unsent = &mut parts[..];
    // `advance_slices` drops every fully written part, an empty body
    // included, so the loop ends exactly when both are out.
    while !unsent.is_empty() {
        match stream.write_vectored(unsent) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(text: &str) -> Result<(Request, usize), HttpError> {
        parse_head(text.as_bytes())
    }

    #[test]
    fn parses_minimal_request() {
        let (req, len) = head("GET /healthz HTTP/1.1\r\nHost: x").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(len, 0);
    }

    #[test]
    fn header_names_fold_to_lowercase() {
        let (req, len) = head("POST /search HTTP/1.1\r\nContent-Length: 12").unwrap();
        assert_eq!(len, 12);
        assert_eq!(req.header("content-length"), Some("12"));
    }

    #[test]
    fn rejects_malformed_shapes() {
        assert!(matches!(head("GARBAGE"), Err(HttpError::BadRequestLine)));
        assert!(matches!(
            head("GET /x HTTP/2.0"),
            Err(HttpError::BadRequestLine)
        ));
        assert!(matches!(
            head("get /x HTTP/1.1"),
            Err(HttpError::BadRequestLine)
        ));
        assert!(matches!(
            head("GET /x HTTP/1.1\r\nno-colon-here"),
            Err(HttpError::BadHeader)
        ));
        assert!(matches!(
            head("POST /x HTTP/1.1\r\nContent-Length: twelve"),
            Err(HttpError::BadContentLength)
        ));
        assert!(matches!(
            head("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked"),
            Err(HttpError::UnsupportedTransferEncoding)
        ));
    }

    /// The vectored write delivers head and body whole, through partial
    /// writes (a body far past the socket buffer) and for an empty body.
    #[test]
    fn write_response_delivers_every_byte() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        for body in [Vec::new(), (0..4_000_000u32).map(|i| i as u8).collect()] {
            let reader = std::thread::spawn(move || {
                let mut received = Vec::new();
                TcpStream::connect(addr)
                    .unwrap()
                    .read_to_end(&mut received)
                    .unwrap();
                received
            });
            let (mut stream, _) = listener.accept().unwrap();
            write_response(
                &mut stream,
                200,
                "OK",
                &body,
                &[("Retry-After", "1".to_owned())],
                true,
            )
            .unwrap();
            drop(stream);
            let received = reader.join().unwrap();
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
                 Retry-After: 1\r\nConnection: close\r\n\r\n",
                body.len()
            );
            assert_eq!(&received[..head.len()], head.as_bytes());
            assert!(received[head.len()..] == body[..], "body bytes differ");
        }
    }

    #[test]
    fn every_status_is_definite() {
        assert_eq!(
            HttpError::HeadTooLarge { limit: 1 }.status().unwrap().0,
            431
        );
        assert_eq!(
            HttpError::BodyTooLarge { limit: 1 }.status().unwrap().0,
            413
        );
        assert_eq!(HttpError::BadRequestLine.status().unwrap().0, 400);
        assert_eq!(HttpError::SlowRequest.status().unwrap().0, 408);
        assert!(HttpError::Truncated.status().is_none());
    }
}
