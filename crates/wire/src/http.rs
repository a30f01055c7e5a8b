//! A minimal HTTP/1.1 server-side implementation on plain `std::io`.
//!
//! The build environment has no crates.io access, so there is no hyper —
//! this module hand-rolls exactly the subset the prediction front-end
//! needs: request-line + header parsing, `Content-Length` body framing,
//! keep-alive connection reuse, and hard limits on header/body sizes so a
//! misbehaving client cannot balloon the server's memory.
//!
//! What is deliberately **not** implemented: chunked transfer encoding
//! (rejected with `501`), HTTP/2, TLS, multipart. The wire protocol is
//! small `Content-Length`-framed documents; anything else is an error
//! response, never a panic.
//!
//! # Incremental model
//!
//! [`RequestParser`] is a *push* parser built for the readiness reactor in
//! [`crate::reactor`]: the caller feeds it whatever bytes the socket had
//! ([`RequestParser::read_from`]) and asks for progress
//! ([`RequestParser::next_request`]), which is either a complete
//! [`Request`], a [`ParseProgress::NeedHead`]/[`ParseProgress::NeedBody`]
//! "come back with more bytes", or a hard [`HttpError`]. Bytes trailing a
//! complete request stay buffered and seed the next one — that is what
//! makes keep-alive and pipelining work without the parser ever touching
//! the socket itself.
//!
//! # Allocation discipline
//!
//! The preamble parse is **borrow-based**: header names and values are
//! never copied into per-header `String`s (the PR 4/5 implementation
//! allocated two per header line). A carved [`Request`] owns exactly one
//! `Vec<u8>` — the raw bytes of that request — and every accessor
//! ([`Request::method`], [`Request::header`], [`Request::headers`]) hands
//! out `&str` slices into it, so the per-request allocation count is a
//! small constant independent of the header count
//! (`tests/parser_alloc.rs` pins this with a counting allocator).

use std::io::{ErrorKind, Read};
use std::time::Duration;

/// Size/time limits enforced while reading one request.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Cap on the request line + headers, bytes.
    pub max_header_bytes: usize,
    /// Cap on the declared `Content-Length`, bytes.
    pub max_body_bytes: usize,
    /// Wall-clock budget for receiving one full request once its first byte
    /// has arrived (slow-loris guard, enforced by the reactor's deadline
    /// sweep).
    pub request_deadline: Duration,
    /// How long to wait for the *first* byte of the next request on an
    /// otherwise idle keep-alive connection. Without this bound, silent
    /// sockets would hold their connection slot forever.
    pub idle_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_header_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
            request_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// Why parsing a request off the wire failed. Every variant is answerable:
/// the framing up to the failure point was intelligible enough to write a
/// structured error response before closing (transport-level failures —
/// disconnects, timeouts — are the reactor's business, not the parser's).
#[derive(Debug)]
pub enum HttpError {
    /// Unparseable request line, header, or body framing → `400`.
    Malformed(String),
    /// The preamble outgrew [`Limits::max_header_bytes`] → `431`.
    HeadersTooLarge { limit: usize },
    /// Declared `Content-Length` exceeds [`Limits::max_body_bytes`] → `413`.
    BodyTooLarge { declared: usize, limit: usize },
    /// `Transfer-Encoding` framing this server does not implement → `501`.
    UnsupportedTransferEncoding,
    /// An HTTP version other than 1.0/1.1 → `505`.
    UnsupportedVersion(String),
}

impl HttpError {
    /// The status code to answer with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Malformed(_) => 400,
            HttpError::HeadersTooLarge { .. } => 431,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::UnsupportedTransferEncoding => 501,
            HttpError::UnsupportedVersion(_) => 505,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::HeadersTooLarge { limit } => {
                write!(f, "request headers exceed {limit} bytes")
            }
            HttpError::BodyTooLarge { declared, limit } => {
                write!(
                    f,
                    "request body of {declared} bytes exceeds {limit} byte limit"
                )
            }
            HttpError::UnsupportedTransferEncoding => {
                write!(
                    f,
                    "transfer encodings are not supported; use Content-Length"
                )
            }
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version {v:?}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request, owning its raw bytes. The method/target/header
/// accessors borrow from that buffer — no per-header copies (see the
/// module docs on allocation discipline).
#[derive(Debug)]
pub struct Request {
    /// The raw bytes of exactly this request: preamble, blank line, body.
    data: Vec<u8>,
    /// `data[..head_len]` is the preamble (request line + header lines),
    /// exclusive of the terminating blank line.
    head_len: usize,
    /// Byte span of the method within `data`.
    method: (usize, usize),
    /// Byte span of the raw request target within `data`.
    target: (usize, usize),
    /// Byte offset where the body starts (after the blank line).
    body_start: usize,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    pub http11: bool,
}

impl Request {
    /// The request method (`GET`, `POST`, ...).
    pub fn method(&self) -> &str {
        self.span(self.method)
    }

    /// The raw request target (path plus any query string).
    pub fn target(&self) -> &str {
        self.span(self.target)
    }

    /// The request path without any query string.
    pub fn path(&self) -> &str {
        self.target()
            .split('?')
            .next()
            .unwrap_or_else(|| self.target())
    }

    /// The `Content-Length`-framed body.
    pub fn body(&self) -> &[u8] {
        &self.data[self.body_start..]
    }

    /// First value of a header by name (ASCII case-insensitive), trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Iterates `(name, value)` header pairs in wire order, borrowed from
    /// the request buffer; names keep their wire casing, values are
    /// OWS-trimmed.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> {
        // The preamble was validated as UTF-8 with well-formed header
        // lines when the request was carved, so the unwraps cannot fire.
        let head = std::str::from_utf8(&self.data[..self.head_len]).expect("validated preamble");
        head.split('\n')
            .skip(1)
            .map(|line| line.strip_suffix('\r').unwrap_or(line))
            .filter(|line| !line.is_empty())
            .map(|line| {
                let (name, value) = line.split_once(':').expect("validated header line");
                (name, value.trim())
            })
    }

    /// Whether the connection should stay open after the response:
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close, and an explicit
    /// `Connection` header overrides either. Allocation-free.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if contains_ci(v, "close") => false,
            Some(v) if contains_ci(v, "keep-alive") => true,
            _ => self.http11,
        }
    }

    fn span(&self, (start, end): (usize, usize)) -> &str {
        std::str::from_utf8(&self.data[start..end]).expect("validated preamble span")
    }
}

/// ASCII case-insensitive substring search (both sides expected ASCII;
/// `needle` must be non-empty).
fn contains_ci(haystack: &str, needle: &str) -> bool {
    haystack
        .as_bytes()
        .windows(needle.len())
        .any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
}

/// What [`RequestParser::next_request`] found in the buffered bytes.
#[derive(Debug)]
pub enum ParseProgress {
    /// The preamble terminator has not arrived yet.
    NeedHead,
    /// The preamble parsed cleanly; the declared body is still incomplete.
    NeedBody,
    /// One complete request, carved off the front of the buffer.
    Request(Request),
}

/// Incremental server-side request parser: the caller appends raw socket
/// bytes and asks for progress. See the module docs for the push model and
/// allocation discipline.
pub struct RequestParser {
    limits: Limits,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted between requests.
    pos: usize,
    /// Memo of how far past `pos` the preamble-terminator scan has already
    /// looked, so drip-fed headers cost O(n) total instead of O(n²).
    scanned: usize,
}

impl RequestParser {
    pub fn new(limits: Limits) -> Self {
        RequestParser {
            limits,
            buf: Vec::with_capacity(4096),
            pos: 0,
            scanned: 0,
        }
    }

    /// Bytes buffered but not yet carved into a request — non-zero means a
    /// request is (at least partially) in flight, which is how the reactor
    /// distinguishes an idle keep-alive close from a mid-request disconnect.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Appends raw bytes (test/baseline harness entry point; the reactor
    /// uses [`RequestParser::read_from`]).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.compact_if_large();
        self.buf.extend_from_slice(bytes);
    }

    /// One `read` from `r` into the buffer. `Ok(0)` is end-of-stream;
    /// `WouldBlock`/`TimedOut`/`Interrupted` are surfaced unchanged for the
    /// caller to interpret.
    pub fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        self.compact_if_large();
        let len = self.buf.len();
        self.buf.resize(len + 4096, 0);
        match r.read(&mut self.buf[len..]) {
            Ok(n) => {
                self.buf.truncate(len + n);
                Ok(n)
            }
            Err(e) => {
                self.buf.truncate(len);
                Err(e)
            }
        }
    }

    /// Attempts to carve the next request out of the buffered bytes.
    pub fn next_request(&mut self) -> Result<ParseProgress, HttpError> {
        let avail = &self.buf[self.pos..];
        if avail.is_empty() {
            return Ok(ParseProgress::NeedHead);
        }
        // Resume the terminator scan where the last attempt stopped (minus
        // a few bytes in case the terminator straddles the old boundary).
        let from = self.scanned.saturating_sub(3);
        let (head_len, blank_len) = match find_header_end(avail, from) {
            Some(found) => found,
            None => {
                if avail.len() > self.limits.max_header_bytes {
                    return Err(HttpError::HeadersTooLarge {
                        limit: self.limits.max_header_bytes,
                    });
                }
                self.scanned = avail.len();
                return Ok(ParseProgress::NeedHead);
            }
        };
        if head_len > self.limits.max_header_bytes {
            return Err(HttpError::HeadersTooLarge {
                limit: self.limits.max_header_bytes,
            });
        }
        let head = std::str::from_utf8(&avail[..head_len])
            .map_err(|_| HttpError::Malformed("preamble is not valid UTF-8".into()))?;
        let preamble = validate_preamble(head)?;
        if preamble.content_length > self.limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge {
                declared: preamble.content_length,
                limit: self.limits.max_body_bytes,
            });
        }
        let body_start = head_len + blank_len;
        let total = body_start + preamble.content_length;
        if avail.len() < total {
            return Ok(ParseProgress::NeedBody);
        }
        // Carve: one Vec holding exactly this request's bytes; all header
        // access borrows from it.
        let data = avail[..total].to_vec();
        self.pos += total;
        self.scanned = 0;
        Ok(ParseProgress::Request(Request {
            data,
            head_len,
            method: preamble.method,
            target: preamble.target,
            body_start,
            http11: preamble.http11,
        }))
    }

    /// Reclaims consumed bytes once they dominate the buffer (amortized so
    /// pipelined parsing is not O(n²) in memmoves).
    fn compact_if_large(&mut self) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Offset of the preamble terminator and its length, searching from `from`:
/// `(head_len, blank_len)` where `blank_len` is 4 for `\r\n\r\n`, 2 for a
/// bare `\n\n`. Earliest terminator of either style wins, so a body
/// containing one style can never swallow the other style's preamble.
fn find_header_end(buf: &[u8], from: usize) -> Option<(usize, usize)> {
    let start = from.min(buf.len());
    let crlf = buf[start..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + start);
    let lf = buf[start..]
        .windows(2)
        .position(|w| w == b"\n\n")
        .map(|p| p + start);
    match (crlf, lf) {
        (Some(a), Some(b)) if b < a => Some((b, 2)),
        (Some(a), _) => Some((a, 4)),
        (None, Some(b)) => Some((b, 2)),
        (None, None) => None,
    }
}

/// The borrow-based preamble parse result: spans index into the head the
/// caller handed in (and equally into the carved request buffer, which
/// starts with that head).
struct Preamble {
    method: (usize, usize),
    target: (usize, usize),
    http11: bool,
    content_length: usize,
}

/// Validates the request line and every header line in one pass, extracting
/// the framing facts (`Content-Length`, `Transfer-Encoding`) without
/// allocating per header. The spans it returns are byte offsets into
/// `head`.
fn validate_preamble(head: &str) -> Result<Preamble, HttpError> {
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !method.chars().all(|c| c.is_ascii_alphabetic()) || method.is_empty() {
        return Err(HttpError::Malformed(format!("bad method {method:?}")));
    }
    if !target.starts_with('/') {
        return Err(HttpError::Malformed(format!(
            "request target {target:?} must be origin-form"
        )));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(HttpError::UnsupportedVersion(other.to_string())),
    };
    let span_of = |s: &str| {
        let start = s.as_ptr() as usize - head.as_ptr() as usize;
        (start, start + s.len())
    };
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            return Err(HttpError::Malformed(
                "obsolete header line folding is not supported".into(),
            ));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line {line:?}")));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name {name:?}")));
        }
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::UnsupportedTransferEncoding);
        }
        if name.eq_ignore_ascii_case("content-length") {
            let value = value.trim();
            let parsed = parse_content_length(value)
                .ok_or_else(|| HttpError::Malformed(format!("bad Content-Length {value:?}")))?;
            match content_length {
                Some(prev) if prev != parsed => {
                    return Err(HttpError::Malformed(
                        "conflicting Content-Length headers".into(),
                    ));
                }
                _ => content_length = Some(parsed),
            }
        }
    }
    Ok(Preamble {
        method: span_of(method),
        target: span_of(target),
        http11,
        content_length: content_length.unwrap_or(0),
    })
}

/// Strict `Content-Length` grammar: `1*DIGIT`, nothing else. `str::parse`
/// would be lenient here — it accepts a leading `+` — and request smuggling
/// defenses are built on front-ends and back-ends agreeing byte-for-byte on
/// framing, so anything but plain ASCII digits is refused: signs, embedded
/// or surrounding whitespace, and values overflowing `u64` all fail.
fn parse_content_length(value: &str) -> Option<usize> {
    let bytes = value.as_bytes();
    if bytes.is_empty() || !bytes.iter().all(u8::is_ascii_digit) {
        return None;
    }
    let mut length: u64 = 0;
    for &digit in bytes {
        length = length
            .checked_mul(10)?
            .checked_add(u64::from(digit - b'0'))?;
    }
    usize::try_from(length).ok()
}

/// The reason phrase for the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        415 => "Unsupported Media Type",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Serializes one response — head and body — into a single buffer, ready
/// for the reactor's non-blocking write path. `retry_after` adds a
/// `Retry-After: <seconds>` header (the 503 refusal paths set it, so a
/// router or any client gets a real backoff signal instead of guessing);
/// `extra_headers` are appended as given — the servers echo
/// `x-exa-trace-id` through them. Callers must pass header-safe values
/// (no CR/LF).
pub fn encode_response(
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    retry_after: Option<u64>,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    let mut extra = match retry_after {
        Some(seconds) => format!("Retry-After: {seconds}\r\n"),
        None => String::new(),
    };
    for (name, value) in extra_headers {
        extra.push_str(name);
        extra.push_str(": ");
        extra.push_str(value);
        extra.push_str("\r\n");
    }
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{extra}Connection: {}\r\n\r\n",
        status_reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut message = Vec::with_capacity(head.len() + body.len());
    message.extend_from_slice(head.as_bytes());
    message.extend_from_slice(body);
    message
}

/// `true` when the I/O error means "no bytes right now" on a non-blocking
/// or timed-out read/write rather than a broken stream.
pub fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the incremental parser the way the old blocking reader did:
    /// everything is already buffered, carve one request or fail.
    fn parse_one(bytes: &[u8]) -> Result<Request, HttpError> {
        let mut parser = RequestParser::new(Limits::default());
        parser.feed(bytes);
        match parser.next_request()? {
            ParseProgress::Request(req) => Ok(req),
            other => panic!("incomplete parse of {bytes:?}: {other:?}"),
        }
    }

    #[test]
    fn parses_a_post_with_body_and_keep_alive() {
        let raw = b"POST /v1/models/m/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = parse_one(raw).unwrap();
        assert_eq!(req.method(), "POST");
        assert_eq!(req.path(), "/v1/models/m/predict");
        assert!(req.http11);
        assert!(req.keep_alive());
        assert_eq!(req.body(), b"abcd");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"), "lookup is case-insensitive");
        assert_eq!(
            req.headers().collect::<Vec<_>>(),
            [("Host", "x"), ("Content-Length", "4")]
        );
    }

    #[test]
    fn carves_pipelined_requests_out_of_one_stream() {
        let raw =
            b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut parser = RequestParser::new(Limits::default());
        parser.feed(raw);
        let first = match parser.next_request().unwrap() {
            ParseProgress::Request(req) => req,
            other => panic!("{other:?}"),
        };
        assert_eq!(first.path(), "/healthz");
        assert!(first.keep_alive());
        let second = match parser.next_request().unwrap() {
            ParseProgress::Request(req) => req,
            other => panic!("{other:?}"),
        };
        assert_eq!(second.path(), "/v1/stats");
        assert!(!second.keep_alive());
        assert!(matches!(
            parser.next_request().unwrap(),
            ParseProgress::NeedHead
        ));
        assert_eq!(parser.buffered(), 0);
    }

    #[test]
    fn byte_by_byte_arrival_reports_progress_then_parses() {
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut parser = RequestParser::new(Limits::default());
        for (i, byte) in raw.iter().enumerate() {
            parser.feed(std::slice::from_ref(byte));
            let progress = parser.next_request().unwrap();
            if i + 1 < raw.len() {
                match progress {
                    ParseProgress::NeedHead => assert!(i + 4 < raw.len() + 2, "head phase"),
                    ParseProgress::NeedBody => {
                        assert!(i >= raw.len() - 3, "body phase starts after the blank line")
                    }
                    ParseProgress::Request(_) => panic!("complete at byte {i}"),
                }
            } else {
                match progress {
                    ParseProgress::Request(req) => assert_eq!(req.body(), b"hi"),
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn http10_defaults_to_close_and_can_opt_in() {
        let req = parse_one(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive());
        let req = parse_one(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive());
        let req = parse_one(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert!(!req.keep_alive(), "Connection matching ignores case");
    }

    #[test]
    fn malformed_preambles_are_errors_not_panics() {
        for raw in [
            &b"NOT A REQUEST\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"G=T / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
            b"GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",
        ] {
            let err = parse_one(raw).unwrap_err();
            assert!(
                matches!(
                    err,
                    HttpError::Malformed(_) | HttpError::UnsupportedVersion(_)
                ),
                "{raw:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn content_length_grammar_is_strict() {
        // Fuzz-style table: every deviation from 1*DIGIT is a structured
        // 400, never a lenient parse. `"+5".parse::<usize>()` succeeds in
        // Rust, so each of these is a live regression guard, not a tautology.
        let reject = [
            "+5",                      // sign — str::parse would accept it
            "-5",                      // sign
            "1 2",                     // embedded whitespace
            "1\t2",                    // embedded tab
            "0x10",                    // radix prefix
            "5.0",                     // decimal
            "5e3",                     // exponent
            "",                        // empty value
            "18446744073709551616",    // u64::MAX + 1
            "99999999999999999999999", // far past u64
            "١٢٣",                     // non-ASCII digits
            "5,5",                     // list syntax
        ];
        for value in reject {
            // Note the \t guard: the parser trims OWS around the value
            // (legal per RFC 9110), so craft values whose *interior* is bad.
            let raw = format!("POST / HTTP/1.1\r\nContent-Length:{value}\r\nX: y\r\n\r\n");
            let err = parse_one(raw.as_bytes()).unwrap_err();
            assert!(
                matches!(err, HttpError::Malformed(_)),
                "Content-Length {value:?} gave {err:?}"
            );
            assert_eq!(err.status(), 400, "{value:?}");
        }
        // The strict grammar still accepts plain digits (leading zeros are
        // 1*DIGIT per the RFC) and the usual OWS around the value.
        for (value, expect) in [("0", 0usize), ("007", 7), (" 4 ", 4)] {
            let raw = format!(
                "POST / HTTP/1.1\r\nContent-Length:{value}\r\n\r\n{}",
                "x".repeat(expect)
            );
            let req = parse_one(raw.as_bytes()).unwrap();
            assert_eq!(req.body().len(), expect, "{value:?}");
        }
    }

    #[test]
    fn transfer_encoding_is_rejected_with_501() {
        let err = parse_one(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::UnsupportedTransferEncoding));
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn oversized_headers_and_bodies_are_refused() {
        // A terminated-but-oversized preamble.
        let mut raw = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        raw.extend(vec![b'a'; 64 * 1024]);
        raw.extend_from_slice(b"\r\n\r\n");
        let err = parse_one(&raw).unwrap_err();
        assert!(matches!(err, HttpError::HeadersTooLarge { .. }));
        assert_eq!(err.status(), 431);

        // An unterminated preamble already past the cap must fail *before*
        // more bytes arrive (a slow-loris cannot buffer unbounded headers).
        let mut parser = RequestParser::new(Limits::default());
        parser.feed(b"GET / HTTP/1.1\r\nX-Big: ");
        parser.feed(&vec![b'a'; 64 * 1024]);
        assert!(matches!(
            parser.next_request().unwrap_err(),
            HttpError::HeadersTooLarge { .. }
        ));

        let err = parse_one(b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { .. }));
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn truncated_requests_report_need_more() {
        let mut parser = RequestParser::new(Limits::default());
        parser.feed(b"GET / HT");
        assert!(matches!(
            parser.next_request().unwrap(),
            ParseProgress::NeedHead
        ));
        assert_eq!(parser.buffered(), 8, "mid-request bytes stay buffered");

        let mut parser = RequestParser::new(Limits::default());
        parser.feed(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
        assert!(matches!(
            parser.next_request().unwrap(),
            ParseProgress::NeedBody
        ));
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let req = parse_one(b"POST /p HTTP/1.1\nContent-Length: 2\n\nhi").unwrap();
        assert_eq!(req.body(), b"hi");
        // Mixed endings: CRLF preamble lines terminated by a bare \n\n pair
        // inside the stream still frame correctly (earliest terminator
        // wins), and vice versa.
        let req = parse_one(b"POST /p HTTP/1.1\nContent-Length: 4\n\n\r\n\r\n").unwrap();
        assert_eq!(req.body(), b"\r\n\r\n", "body may contain the other style");
    }

    #[test]
    fn read_from_buffers_stream_bytes() {
        let mut parser = RequestParser::new(Limits::default());
        let mut stream: &[u8] = b"GET /healthz HTTP/1.1\r\n\r\n";
        let n = parser.read_from(&mut stream).unwrap();
        assert_eq!(n, 25);
        match parser.next_request().unwrap() {
            ParseProgress::Request(req) => assert_eq!(req.path(), "/healthz"),
            other => panic!("{other:?}"),
        }
        assert_eq!(parser.read_from(&mut stream).unwrap(), 0, "EOF is Ok(0)");
    }

    #[test]
    fn response_writer_frames_and_reports_connection_state() {
        let out = encode_response(200, "application/json", br#"{"ok":true}"#, true, None, &[]);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));

        let out = encode_response(503, "application/json", b"{}", false, None, &[]);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn retry_after_header_is_emitted_only_when_set() {
        let with = encode_response(503, "application/json", b"{}", true, Some(2), &[]);
        let text = String::from_utf8(with).unwrap();
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(
            text.contains("Content-Length: 2\r\n"),
            "framing survives the extra header"
        );
        let without = encode_response(503, "application/json", b"{}", true, None, &[]);
        assert!(!String::from_utf8(without).unwrap().contains("Retry-After"));
    }
}
