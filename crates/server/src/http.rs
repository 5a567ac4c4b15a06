//! The one wire protocol: a hand-rolled HTTP/1.1 layer — request
//! reading, response writing, a small keep-alive client — and the server
//! skeleton that both the daemon and the gateway run: the runner
//! ([`Running`]) with its accept loop, connection loop and supervision
//! thread, the shutdown route, and the error replies.
//!
//! It is std-only and covers exactly what Lagoon's servers need:
//! `GET`/`POST` with `Content-Length` bodies, keep-alive (HTTP/1.1
//! default, honored for 1.0 with `Connection: keep-alive`), and
//! pipelining — requests are read sequentially off one buffered stream
//! and responses written back in order, so a client that writes several
//! requests up front gets its responses in request order.
//!
//! Every input dimension is bounded: the request line, a single header,
//! the total header block, the header count, and the declared body
//! length. Framing errors (a malformed request line, an unparsable
//! `Content-Length`, an over-cap body) lose the request boundary, so
//! their responses close the connection; cleanly-framed application
//! errors (unknown route, bad JSON body) keep it open.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lagoon_diag::Histogram;

use crate::json::{self, obj, Json};

/// Longest accepted request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted single header line.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Total header-block byte budget per request.
pub const MAX_HEADER_BYTES: usize = 32 * 1024;
/// Maximum number of headers per request.
pub const MAX_HEADERS: usize = 100;

/// The parsed head of a request: everything before the body.
#[derive(Clone, Debug)]
pub struct Head {
    /// Request method, uppercase as sent (`GET`, `POST`, …).
    pub method: String,
    /// The request target, query string included.
    pub target: String,
    /// True for `HTTP/1.1`, false for `HTTP/1.0`.
    pub http11: bool,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
}

/// A fully-read request (head plus body).
#[derive(Clone, Debug)]
pub struct Request {
    /// The request head.
    pub head: Head,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Head {
    /// Case-insensitive header lookup (first occurrence).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The target with any query string stripped.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Whether the client asked for (or defaults to) connection reuse.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }

    /// Whether the client sent `Expect: 100-continue` and is waiting
    /// for an interim response before transmitting the body.
    pub fn expects_continue(&self) -> bool {
        self.header("expect")
            .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
    }
}

impl Request {
    /// Case-insensitive header lookup (first occurrence).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.header(name)
    }

    /// The target with any query string stripped.
    pub fn path(&self) -> &str {
        self.head.path()
    }
}

/// Everything that can go wrong reading a request. [`error_status`]
/// maps the protocol-level variants to a status code.
#[derive(Debug)]
pub enum HttpError {
    /// EOF before the first request byte: the clean end of a keep-alive
    /// connection, not an error to report.
    Closed,
    /// The transport failed mid-request.
    Io(std::io::Error),
    /// The request line did not parse (wrong shape, bad method bytes).
    BadRequestLine,
    /// The request line exceeded [`MAX_REQUEST_LINE`].
    RequestLineTooLong,
    /// An HTTP version other than 1.0/1.1.
    UnsupportedVersion,
    /// A single header, the header block, or the header count exceeded
    /// its cap.
    HeadersTooLarge,
    /// A header line without a `:` separator (or invalid bytes).
    BadHeader,
    /// A body-carrying method without a `Content-Length`.
    LengthRequired,
    /// An unparsable `Content-Length` value.
    BadContentLength,
    /// A `Transfer-Encoding` the servers do not implement (chunked).
    UnsupportedTransferEncoding,
    /// The declared `Content-Length` exceeds the configured cap.
    BodyTooLarge {
        /// The declared length.
        declared: usize,
        /// The configured cap it exceeded.
        cap: usize,
    },
}

/// The status code and a human-readable message for a protocol-level
/// [`HttpError`]; `None` for [`HttpError::Closed`]/[`HttpError::Io`]
/// (nothing to send).
///
/// Every one of these closes the connection: once the parser loses the
/// request boundary the stream position is unrecoverable, and after
/// `LengthRequired` or `BodyTooLarge` an unread body would be parsed as
/// the next request line.
pub fn error_status(e: &HttpError) -> Option<(u16, String)> {
    match e {
        HttpError::Closed | HttpError::Io(_) => None,
        HttpError::BadRequestLine => Some((400, "malformed request line".to_string())),
        HttpError::RequestLineTooLong => Some((
            414,
            format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
        )),
        HttpError::UnsupportedVersion => {
            Some((505, "only HTTP/1.0 and HTTP/1.1 are supported".to_string()))
        }
        HttpError::HeadersTooLarge => Some((
            431,
            format!("headers exceed {MAX_HEADER_BYTES} bytes or {MAX_HEADERS} fields"),
        )),
        HttpError::BadHeader => Some((400, "malformed header".to_string())),
        HttpError::LengthRequired => Some((411, "POST requires Content-Length".to_string())),
        HttpError::BadContentLength => Some((400, "unparsable Content-Length".to_string())),
        HttpError::UnsupportedTransferEncoding => Some((
            501,
            "Transfer-Encoding is not supported; send Content-Length".to_string(),
        )),
        HttpError::BodyTooLarge { declared, cap } => Some((
            413,
            format!("body of {declared} bytes exceeds the {cap}-byte cap"),
        )),
    }
}

/// Reads one line terminated by `\n` (tolerating `\r\n`), bounded by
/// `cap` bytes. `Ok(None)` is EOF before any byte.
fn read_line_bounded(
    r: &mut impl BufRead,
    cap: usize,
    over: fn() -> HttpError,
) -> Result<Option<String>, HttpError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = r.fill_buf().map_err(HttpError::Io)?;
        if chunk.is_empty() {
            if buf.is_empty() {
                return Ok(None);
            }
            // EOF mid-line: surface what arrived; the caller's parse
            // will reject it if it is not a complete construct.
            break;
        }
        if let Some(pos) = chunk.iter().position(|b| *b == b'\n') {
            if buf.len() + pos > cap {
                r.consume(pos + 1);
                return Err(over());
            }
            buf.extend_from_slice(&chunk[..pos]);
            r.consume(pos + 1);
            break;
        }
        let n = chunk.len();
        if buf.len() + n > cap {
            r.consume(n);
            return Err(over());
        }
        buf.extend_from_slice(chunk);
        r.consume(n);
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| HttpError::BadHeader)
}

/// Reads and parses the request line and headers. Leading blank lines
/// are skipped (RFC 9112 §2.2).
///
/// # Errors
///
/// Returns [`HttpError::Closed`] on clean EOF, and the protocol-level
/// variants on malformed or oversized input.
pub fn read_head(r: &mut impl BufRead) -> Result<Head, HttpError> {
    let line = loop {
        match read_line_bounded(r, MAX_REQUEST_LINE, || HttpError::RequestLineTooLong)? {
            None => return Err(HttpError::Closed),
            Some(l) if l.is_empty() => continue,
            Some(l) => break l,
        }
    };
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::BadRequestLine),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequestLine);
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v if v.starts_with("HTTP/") => return Err(HttpError::UnsupportedVersion),
        _ => return Err(HttpError::BadRequestLine),
    };
    Ok(Head {
        method: method.to_string(),
        target: target.to_string(),
        http11,
        headers: read_headers(r)?,
    })
}

/// Reads the header lines of a request or a response up to the blank
/// line that ends them, within the header caps.
fn read_headers(r: &mut impl BufRead) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let line = read_line_bounded(r, MAX_HEADER_LINE, || HttpError::HeadersTooLarge)?
            .ok_or(HttpError::BadHeader)?;
        if line.is_empty() {
            return Ok(headers);
        }
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES || headers.len() >= MAX_HEADERS {
            return Err(HttpError::HeadersTooLarge);
        }
        let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadHeader);
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
}

/// Reads the request body declared by `head`, bounded by `max_body`.
/// Methods that carry no body (`GET`, `HEAD`, `DELETE`) return empty
/// without requiring `Content-Length`.
///
/// # Errors
///
/// Returns the cap/framing errors documented on [`HttpError`].
pub fn read_body(r: &mut impl BufRead, head: &Head, max_body: usize) -> Result<Vec<u8>, HttpError> {
    if head
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::UnsupportedTransferEncoding);
    }
    let declared = match head.header("content-length") {
        Some(v) => Some(
            v.trim()
                .parse::<usize>()
                .map_err(|_| HttpError::BadContentLength)?,
        ),
        None => None,
    };
    let needs_body = matches!(head.method.as_str(), "POST" | "PUT" | "PATCH");
    let len = match (declared, needs_body) {
        (Some(n), _) => n,
        (None, true) => return Err(HttpError::LengthRequired),
        (None, false) => 0,
    };
    if len > max_body {
        return Err(HttpError::BodyTooLarge {
            declared: len,
            cap: max_body,
        });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(HttpError::Io)?;
    Ok(body)
}

/// The canonical reason phrase for the status codes the servers emit.
fn reason(status: u16) -> &'static str {
    match status {
        100 => "Continue",
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Content Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Writes a complete response in one write: status line, `Content-Type:
/// application/json`, `Content-Length`, a `Connection` header matching
/// `keep_alive`, the reply's own headers, and its body.
///
/// # Errors
///
/// Propagates transport failures.
fn write_response(w: &mut impl Write, reply: &Reply, keep_alive: bool) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
        reply.status,
        reason(reply.status),
        reply.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    write_message(w, head, &reply.headers, &reply.body)
}

/// Finishes a message head with `extra` headers and writes it with the
/// body as one buffer: one syscall, so one segment on a `nodelay`
/// socket.
fn write_message(
    w: &mut impl Write,
    mut head: String,
    extra: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    w.write_all(&out)?;
    w.flush()
}

/// Writes the `100 Continue` interim response.
///
/// # Errors
///
/// Propagates transport failures.
fn write_continue(w: &mut impl Write) -> std::io::Result<()> {
    w.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A parsed response on the client side.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// The status code.
    pub status: u16,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Case-insensitive header lookup (first occurrence).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Whether the server closed the connection after this response.
    pub fn closes(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Largest response body a client reads: far above any response a
/// daemon or a gateway sends (a request body is capped at 1 MiB by
/// default), so only a broken or hostile peer reaches it.
pub const MAX_RESPONSE_BODY: usize = 64 << 20;

/// Reads one response off `r` (skipping any `100 Continue` interim),
/// within the caps a request's head has and a body of at most
/// [`MAX_RESPONSE_BODY`] bytes.
///
/// # Errors
///
/// Transport failures, or `InvalidData` on malformed framing or an
/// over-cap line, header block or body.
pub fn read_response(r: &mut impl BufRead) -> std::io::Result<HttpResponse> {
    let framing = |e: HttpError| match e {
        HttpError::Io(e) => e,
        e => invalid(&format!("bad response framing: {e:?}")),
    };
    loop {
        let line = read_line_bounded(r, MAX_REQUEST_LINE, || HttpError::RequestLineTooLong)
            .map_err(framing)?
            .ok_or_else(|| invalid("connection closed before status line"))?;
        let mut parts = line.splitn(3, ' ');
        let (version, status) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        if !version.starts_with("HTTP/1.") {
            return Err(invalid("bad status line"));
        }
        let status: u16 = status.parse().map_err(|_| invalid("bad status code"))?;
        let headers = read_headers(r).map_err(framing)?;
        let response = HttpResponse {
            status,
            headers,
            body: Vec::new(),
        };
        let len = match response.header("content-length") {
            None => 0,
            Some(v) => v.parse().map_err(|_| invalid("bad content-length"))?,
        };
        if len > MAX_RESPONSE_BODY {
            return Err(invalid(&format!(
                "response body of {len} bytes exceeds the {MAX_RESPONSE_BODY}-byte cap"
            )));
        }
        if status != 100 {
            let mut body = vec![0u8; len];
            r.read_exact(&mut body)?;
            return Ok(HttpResponse { body, ..response });
        }
    }
}

/// A keep-alive HTTP client connection. [`HttpClient::send`] and
/// [`HttpClient::read_response`] are split so callers can pipeline:
/// write several requests, then read the responses in order.
pub struct HttpClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connects, with `timeout` bounding connect/read/write.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str, timeout: Option<Duration>) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        // small framed requests; Nagle + delayed ACK would add ~40ms
        // per request otherwise
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        let writer = stream.try_clone()?;
        Ok(HttpClient {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Writes one request (with `Content-Length` framing) without
    /// waiting for the response.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send(
        &mut self,
        method: &str,
        target: &str,
        extra: &[(&str, String)],
        body: &[u8],
    ) -> std::io::Result<()> {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nhost: lagoon\r\ncontent-length: {}\r\n",
            body.len()
        );
        write_message(&mut self.writer, head, extra, body)
    }

    /// Reads one response (skipping any `100 Continue` interim).
    ///
    /// # Errors
    ///
    /// As the free [`read_response`].
    pub fn read_response(&mut self) -> std::io::Result<HttpResponse> {
        read_response(&mut self.reader)
    }

    /// [`HttpClient::send`] then [`HttpClient::read_response`].
    ///
    /// # Errors
    ///
    /// Propagates transport failures and malformed framing.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        extra: &[(&str, String)],
        body: &[u8],
    ) -> std::io::Result<HttpResponse> {
        self.send(method, target, extra, body)?;
        self.read_response()
    }
}

// ---------------------------------------------------------------------------
// Serving: one runner, accept loop and connection loop for both servers
// ---------------------------------------------------------------------------

/// A route: its method and its path.
pub type Route = (&'static str, &'static str);

/// The route every server answers alike, in the connection loop: it
/// drains the service.
const SHUTDOWN: Route = ("POST", "/v1/shutdown");

/// The latency-histogram key for requests whose path no route serves,
/// so hostile or mistyped paths share one bucket instead of growing
/// the stats without bound.
const UNMATCHED: &str = "unmatched";

/// How long a kept-alive connection may sit idle before its thread
/// lets it go.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// How often the runner calls [`Service::tick`].
const TICK: Duration = Duration::from_millis(25);

/// A response as a [`Service`] builds it; the connection loop adds the
/// framing headers.
pub struct Reply {
    /// The status code.
    pub status: u16,
    /// Headers beyond the framing ones.
    pub headers: Vec<(&'static str, String)>,
    /// The JSON body.
    pub body: Vec<u8>,
}

impl Reply {
    /// A reply carrying `body` and no extra headers.
    pub fn json(status: u16, body: &Json) -> Reply {
        Reply {
            status,
            headers: Vec::new(),
            body: body.to_string().into_bytes(),
        }
    }

    /// A reply carrying [`error_json`]`(kind, message, [])`.
    pub fn error(status: u16, kind: &str, message: &str) -> Reply {
        Reply::json(status, &error_json(kind, message, Vec::new()))
    }
}

/// The one error body the servers answer with:
/// `{"ok":false,"error":{"kind":…,"message":…}}`, with `fields` added
/// to the error.
pub fn error_json(kind: &str, message: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut error = vec![
        ("kind", Json::Str(kind.to_string())),
        ("message", Json::Str(message.to_string())),
    ];
    error.extend(fields);
    obj(vec![("ok", Json::Bool(false)), ("error", obj(error))])
}

/// An error reply that tells the client whether to retry: the error
/// carries `retryable`, and a retryable one its `retry_after_ms` hint,
/// which the `retry-after` (whole seconds, at least 1) and
/// `x-lagoon-retry-after-ms` headers repeat.
fn hinted(
    status: u16,
    kind: &str,
    message: &str,
    mut fields: Vec<(&str, Json)>,
    retry_after_ms: Option<u64>,
) -> Reply {
    fields.push(("retryable", Json::Bool(retry_after_ms.is_some())));
    let mut headers = Vec::new();
    if let Some(ms) = retry_after_ms {
        fields.push(("retry_after_ms", Json::Num(ms as f64)));
        headers.push(("retry-after", ms.div_ceil(1000).max(1).to_string()));
        headers.push(("x-lagoon-retry-after-ms", ms.to_string()));
    }
    Reply {
        headers,
        ..Reply::json(status, &error_json(kind, message, fields))
    }
}

/// An admission rejection: `resource-exhausted` with a shedding
/// `reason` ("queue-full" | "workers-degraded" | "workers-unavailable"
/// | "shutting-down", all 503; or "request-too-large", 413) and a
/// `retryable` flag.
/// Clients with a retry policy back off and retry exactly the retryable
/// ones — a program that exhausted its *own* budget carries a `budget`
/// field instead and is never retried. Retryable rejections carry a
/// `retry_after_ms` hint sized to how long the condition usually lasts:
/// a full queue drains in tens of milliseconds, a degraded pool needs a
/// respawn, an empty pool needs several.
pub(crate) fn rejection(reason: &str, message: &str) -> Reply {
    let (status, hint) = match reason {
        "queue-full" => (503, Some(25)),
        "workers-degraded" => (503, Some(50)),
        "workers-unavailable" => (503, Some(100)),
        "request-too-large" => (413, None),
        _ => (503, None),
    };
    let fields = vec![("reason", Json::Str(reason.to_string()))];
    hinted(status, "resource-exhausted", message, fields, hint)
}

/// A proxy's reply when no upstream could take a request: 502
/// `unavailable`, retryable after 200 ms (a dead upstream is back
/// within a few supervision ticks).
pub fn unavailable(message: &str) -> Reply {
    hinted(502, "unavailable", message, Vec::new(), Some(200))
}

/// A request body as a JSON object; an empty body reads as `{}`.
///
/// # Errors
///
/// A message for a 400 when the body is not UTF-8, not JSON, or not an
/// object.
pub fn json_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Ok(Json::Obj(BTreeMap::new()));
    }
    match json::parse(text) {
        Ok(parsed @ Json::Obj(_)) => Ok(parsed),
        Ok(_) => Err("body must be a JSON object".to_string()),
        Err(e) => Err(format!("bad JSON body: {e}")),
    }
}

/// The HTTP side of a server: its routes, its body cap, and the
/// counters the connection loop keeps.
pub struct Front {
    routes: Vec<Route>,
    max_body: usize,
    stats: Mutex<HttpStats>,
}

#[derive(Default)]
struct HttpStats {
    requests: u64,
    ok_2xx: u64,
    err_4xx: u64,
    err_5xx: u64,
    bytes_in: u64,
    bytes_out: u64,
    per_route: BTreeMap<&'static str, Histogram>,
}

impl Front {
    /// A front answering `routes` and `POST /v1/shutdown`, with bodies
    /// capped at `max_body`.
    pub fn new(mut routes: Vec<Route>, max_body: usize) -> Front {
        routes.push(SHUTDOWN);
        Front {
            routes,
            max_body,
            stats: Mutex::new(HttpStats::default()),
        }
    }

    /// The connection loop's counters: requests by status class, bytes
    /// in and out, and `routes` — one latency histogram per route (its
    /// path after `/v1/`), plus `unmatched` for every path no route
    /// serves.
    pub fn stats_json(&self) -> Json {
        let stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        let routes = stats
            .per_route
            .iter()
            .map(|(route, h)| {
                // Histogram::to_json emits a JSON object; round-trip it
                // through the parser to embed it structurally.
                let parsed = json::parse(&h.to_json()).unwrap_or(Json::Null);
                (route.to_string(), parsed)
            })
            .collect();
        obj(vec![
            ("requests", Json::Num(stats.requests as f64)),
            ("ok_2xx", Json::Num(stats.ok_2xx as f64)),
            ("err_4xx", Json::Num(stats.err_4xx as f64)),
            ("err_5xx", Json::Num(stats.err_5xx as f64)),
            ("bytes_in", Json::Num(stats.bytes_in as f64)),
            ("bytes_out", Json::Num(stats.bytes_out as f64)),
            ("routes", Json::Obj(routes)),
        ])
    }

    /// Matches a request to a route and answers it: 404 for an unknown
    /// path, 405 for a known path with the wrong method, and the drain
    /// for `POST /v1/shutdown`. Returns the histogram key with the reply.
    fn answer<S: Service>(&self, service: &S, request: &Request) -> (&'static str, Reply) {
        let path = request.path();
        let method = request.head.method.as_str();
        let Some(&(want, p)) = self.routes.iter().find(|(_, p)| *p == path) else {
            let message = format!("no route for {path}");
            return (UNMATCHED, Reply::error(404, "protocol", &message));
        };
        let reply = if want != method {
            let message = format!("method {method} not allowed here");
            Reply::error(405, "protocol", &message)
        } else if (want, p) == SHUTDOWN {
            service.drain();
            let draining = obj(vec![
                ("ok", Json::Bool(true)),
                ("draining", Json::Bool(true)),
            ]);
            Reply::json(200, &draining)
        } else {
            service.call(p, request)
        };
        (p.strip_prefix("/v1/").unwrap_or(p), reply)
    }

    fn record(&self, key: &'static str, bytes_in: usize, reply: &Reply, took: Duration) {
        let mut stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        stats.requests += 1;
        stats.bytes_in += bytes_in as u64;
        stats.bytes_out += reply.body.len() as u64;
        match reply.status {
            200..=299 => stats.ok_2xx += 1,
            400..=499 => stats.err_4xx += 1,
            _ => stats.err_5xx += 1,
        }
        stats.per_route.entry(key).or_default().record(took);
    }
}

/// What a server plugs into [`Running`]: everything but HTTP framing,
/// the shutdown route and the threads.
pub trait Service: Send + Sync + 'static {
    /// The server's routes, body cap and HTTP counters.
    fn front(&self) -> &Front;
    /// Answers a request on one of the front's routes other than
    /// `POST /v1/shutdown`; `path` is that route's path.
    fn call(&self, path: &'static str, request: &Request) -> Reply;
    /// Whether the server is draining; the accept loop and the
    /// supervision thread then exit.
    fn draining(&self) -> bool;
    /// Starts the drain (on `POST /v1/shutdown`, SIGTERM or
    /// [`Running::shutdown`]).
    fn drain(&self);
    /// One supervision pass, which brings back what died. The runner
    /// calls it every 25 ms until the server drains, on a thread of its
    /// own, so a slow pass never stalls accepts.
    fn tick(self: &Arc<Self>);
}

/// A server running a [`Service`]: the accept loop ([`serve`]) and the
/// supervision thread that calls [`Service::tick`].
pub struct Running<S> {
    addr: SocketAddr,
    service: Arc<S>,
    threads: [JoinHandle<()>; 2],
}

impl<S: Service> Running<S> {
    /// Spawns the accept loop on `listener` and the supervision thread.
    ///
    /// # Errors
    ///
    /// Returns the error reading the listener's address; nothing is
    /// spawned then.
    pub fn start(listener: TcpListener, service: Arc<S>) -> std::io::Result<Running<S>> {
        let addr = listener.local_addr()?;
        let accepting = Arc::clone(&service);
        let supervised = Arc::clone(&service);
        let threads = [
            std::thread::spawn(move || serve(listener, accepting)),
            std::thread::spawn(move || {
                while !supervised.draining() {
                    supervised.tick();
                    std::thread::sleep(TICK);
                }
            }),
        ];
        Ok(Running {
            addr,
            service,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Starts the service's drain.
    pub fn shutdown(&self) {
        self.service.drain();
    }

    /// Blocks until the accept loop and the supervision thread have
    /// exited, which they do once the service drains, and returns the
    /// service; no tick runs after it returns.
    pub fn join(self) -> Arc<S> {
        for thread in self.threads {
            let _ = thread.join();
        }
        self.service
    }
}

/// Binds a listener for [`Running::start`]. It is non-blocking, so the
/// accept loop can poll for shutdown between connections.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn listen(addr: &str) -> std::io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// The accept loop: one thread per connection, until the service
/// drains. It also polls for SIGTERM and turns it into a drain.
pub fn serve<S: Service>(listener: TcpListener, service: Arc<S>) {
    loop {
        if sigterm_triggered() {
            service.drain();
        }
        if service.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let service = Arc::clone(&service);
                std::thread::spawn(move || connection(stream, &*service));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// The keep-alive connection loop: reads requests in order, answers
/// each through the service, and writes the replies back in order.
fn connection<S: Service>(stream: TcpStream, service: &S) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let mut reader = BufReader::new(stream);
    let front = service.front();
    loop {
        let request = match read_request(&mut reader, &mut writer, front.max_body) {
            Ok(request) => request,
            Err(e) => {
                if let Some((status, message)) = error_status(&e) {
                    let reply = if status == 413 {
                        rejection("request-too-large", &message)
                    } else {
                        Reply::error(status, "protocol", &message)
                    };
                    let _ = write_response(&mut writer, &reply, false);
                }
                return;
            }
        };
        let started = Instant::now();
        let (key, reply) = front.answer(service, &request);
        front.record(key, request.body.len(), &reply, started.elapsed());
        let keep_alive = request.head.keep_alive();
        if write_response(&mut writer, &reply, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Reads one request, answering `Expect: 100-continue` between the head
/// and the body.
fn read_request(
    r: &mut impl BufRead,
    w: &mut impl Write,
    max_body: usize,
) -> Result<Request, HttpError> {
    let head = read_head(r)?;
    if head.expects_continue() {
        write_continue(w).map_err(HttpError::Io)?;
    }
    let body = read_body(r, &head, max_body)?;
    Ok(Request { head, body })
}

// ---------------------------------------------------------------------------
// SIGTERM (unix): a flag the accept loop polls.
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sig {
    use std::os::raw::c_int;
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: c_int) {
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    }

    /// Installs the handler for SIGTERM (15). std already links libc,
    /// so no new dependency is involved.
    pub fn install() {
        // SAFETY: `signal` is the C library's; `on_term` is an
        // `extern "C"` handler that only stores to an atomic, which is
        // async-signal-safe.
        unsafe {
            signal(15, on_term);
        }
    }

    pub fn triggered() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

/// Installs the SIGTERM → graceful-drain hook (no-op off unix).
pub fn install_sigterm_handler() {
    #[cfg(unix)]
    sig::install();
}

/// Whether SIGTERM has been delivered since [`install_sigterm_handler`]
/// ran (always false off unix).
fn sigterm_triggered() -> bool {
    #[cfg(unix)]
    {
        sig::triggered()
    }
    #[cfg(not(unix))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};

    fn head_of(raw: &str) -> Result<Head, HttpError> {
        read_head(&mut Cursor::new(raw.as_bytes().to_vec()))
    }

    fn request_of(raw: &str, max_body: usize) -> Result<Request, HttpError> {
        let mut r = Cursor::new(raw.as_bytes().to_vec());
        let head = read_head(&mut r)?;
        let body = read_body(&mut r, &head, max_body)?;
        Ok(Request { head, body })
    }

    #[test]
    fn parses_a_post_with_body_and_headers() {
        let req = request_of(
            "POST /v1/run?deep=0 HTTP/1.1\r\nHost: x\r\nX-Lagoon-Trace-Id: t-1\r\ncontent-length: 4\r\n\r\nabcd",
            1024,
        )
        .expect("parse");
        assert_eq!(req.head.method, "POST");
        assert_eq!(req.path(), "/v1/run");
        assert_eq!(req.header("x-lagoon-trace-id"), Some("t-1"));
        assert_eq!(req.body, b"abcd");
        assert!(req.head.keep_alive());
    }

    #[test]
    fn bare_lf_and_leading_blank_lines_are_tolerated() {
        let req = request_of("\r\n\nGET /v1/healthz HTTP/1.1\nhost: x\n\n", 1024).expect("parse");
        assert_eq!(req.head.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        assert!(matches!(
            head_of("NONSENSE\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        ));
        assert!(matches!(
            head_of("GET /x HTTP/1.1 extra\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        ));
        assert!(matches!(
            head_of("get /x HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        ));
        assert!(matches!(
            head_of("GET /x HTTP/2.0\r\n\r\n"),
            Err(HttpError::UnsupportedVersion)
        ));
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        assert!(matches!(head_of(&long), Err(HttpError::RequestLineTooLong)));
    }

    #[test]
    fn oversized_and_malformed_headers_are_rejected() {
        let big = format!(
            "GET / HTTP/1.1\r\nx: {}\r\n\r\n",
            "v".repeat(MAX_HEADER_LINE)
        );
        assert!(matches!(head_of(&big), Err(HttpError::HeadersTooLarge)));
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            (0..=MAX_HEADERS)
                .map(|i| format!("h{i}: v\r\n"))
                .collect::<String>()
        );
        assert!(matches!(head_of(&many), Err(HttpError::HeadersTooLarge)));
        assert!(matches!(
            head_of("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadHeader)
        ));
    }

    #[test]
    fn content_length_is_validated_and_capped() {
        assert!(matches!(
            request_of(
                "POST /v1/run HTTP/1.1\r\ncontent-length: nope\r\n\r\n",
                1024
            ),
            Err(HttpError::BadContentLength)
        ));
        assert!(matches!(
            request_of("POST /v1/run HTTP/1.1\r\ncontent-length: -1\r\n\r\n", 1024),
            Err(HttpError::BadContentLength)
        ));
        assert!(matches!(
            request_of("POST /v1/run HTTP/1.1\r\nhost: x\r\n\r\n", 1024),
            Err(HttpError::LengthRequired)
        ));
        assert!(matches!(
            request_of(
                "POST /v1/run HTTP/1.1\r\ncontent-length: 2048\r\n\r\n",
                1024
            ),
            Err(HttpError::BodyTooLarge {
                declared: 2048,
                cap: 1024
            })
        ));
        assert!(matches!(
            request_of(
                "POST /v1/run HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
                1024
            ),
            Err(HttpError::UnsupportedTransferEncoding)
        ));
    }

    #[test]
    fn keep_alive_defaults_follow_the_version() {
        assert!(head_of("GET / HTTP/1.1\r\n\r\n").unwrap().keep_alive());
        assert!(!head_of("GET / HTTP/1.0\r\n\r\n").unwrap().keep_alive());
        assert!(!head_of("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .keep_alive());
        assert!(head_of("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .keep_alive());
    }

    #[test]
    fn pipelined_requests_parse_sequentially() {
        let raw = "POST /v1/run HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi\
                   GET /v1/stats HTTP/1.1\r\n\r\n";
        let mut r = Cursor::new(raw.as_bytes().to_vec());
        let first = read_head(&mut r).expect("first head");
        let body = read_body(&mut r, &first, 1024).expect("first body");
        assert_eq!(body, b"hi");
        let second = read_head(&mut r).expect("second head");
        assert_eq!(second.path(), "/v1/stats");
        assert!(matches!(read_head(&mut r), Err(HttpError::Closed)));
    }

    #[test]
    fn responses_round_trip_through_the_writer() {
        let mut out = Vec::new();
        let reply = Reply {
            status: 503,
            headers: vec![("retry-after", "1".to_string())],
            body: b"{}".to_vec(),
        };
        write_response(&mut out, &reply, true).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// A service with one route of its own, `POST /v1/x`, that counts
    /// its supervision ticks.
    struct Stub {
        front: Front,
        ticks: AtomicUsize,
        drained: AtomicBool,
    }

    impl Stub {
        fn new() -> Stub {
            Stub {
                front: Front::new(vec![("POST", "/v1/x")], 1024),
                ticks: Default::default(),
                drained: Default::default(),
            }
        }
    }

    impl Service for Stub {
        fn front(&self) -> &Front {
            &self.front
        }
        fn call(&self, _: &'static str, _: &Request) -> Reply {
            Reply::json(200, &obj(vec![("ok", Json::Bool(true))]))
        }
        fn draining(&self) -> bool {
            self.drained.load(SeqCst)
        }
        fn drain(&self) {
            self.drained.store(true, SeqCst);
        }
        fn tick(self: &Arc<Self>) {
            self.ticks.fetch_add(1, SeqCst);
        }
    }

    #[test]
    fn rejections_carry_retry_hints_in_body_and_headers() {
        let stub = Stub::new();
        let answer = |method: &str, path: &str| {
            let head = Head {
                method: method.to_string(),
                target: path.to_string(),
                http11: true,
                headers: Vec::new(),
            };
            let request = Request {
                head,
                body: Vec::new(),
            };
            stub.front.answer(&stub, &request).1
        };
        // every error reply the servers build, with its hint: none, not
        // retryable, or retryable after the given milliseconds
        for (reply, status, hint) in [
            (Reply::error(400, "protocol", "m"), 400, None),
            (answer("GET", "/v1/nope"), 404, None),
            (answer("GET", "/v1/x"), 405, None),
            (answer("GET", "/v1/shutdown"), 405, None),
            (rejection("request-too-large", "m"), 413, Some(None)),
            (Reply::error(500, "internal", "m"), 500, None),
            (unavailable("m"), 502, Some(Some(200))),
            (rejection("queue-full", "m"), 503, Some(Some(25))),
            (rejection("workers-degraded", "m"), 503, Some(Some(50))),
            (rejection("workers-unavailable", "m"), 503, Some(Some(100))),
            (rejection("shutting-down", "m"), 503, Some(None)),
        ] {
            assert_eq!(reply.status, status);
            let body = json::parse(std::str::from_utf8(&reply.body).unwrap()).unwrap();
            assert_eq!(body.get("ok").and_then(Json::as_bool), Some(false));
            let e = body.get("error").expect("error");
            assert!(e.get("kind").and_then(Json::as_str).is_some(), "{body}");
            assert!(e.get("message").and_then(Json::as_str).is_some(), "{body}");
            let retryable = hint.map(|ms: Option<u64>| ms.is_some());
            assert_eq!(e.get("retryable").and_then(Json::as_bool), retryable);
            let ms = hint.flatten();
            assert_eq!(e.get("retry_after_ms").and_then(Json::as_u64), ms);
            let header = |name| reply.headers.iter().find(|(k, _)| *k == name);
            let header = |name| header(name).map(|(_, v)| v.as_str());
            let ms = ms.map(|ms| ms.to_string());
            assert_eq!(header("x-lagoon-retry-after-ms"), ms.as_deref(), "{status}");
            // every hint is under a second: `retry-after` rounds it up
            let seconds = ms.as_ref().map(|_| "1");
            assert_eq!(header("retry-after"), seconds, "{status}");
        }
        assert!(!stub.draining(), "a 405 on the shutdown route drained");
    }

    #[test]
    fn the_runner_ticks_until_a_shutdown_request_drains_the_service() {
        let listener = listen("127.0.0.1:0").expect("bind");
        let running = Running::start(listener, Arc::new(Stub::new())).expect("start");
        let ticks = || running.service().ticks.load(SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while ticks() < 2 {
            assert!(Instant::now() < deadline, "the supervision tick never ran");
            std::thread::sleep(Duration::from_millis(5));
        }
        let addr = running.addr().to_string();
        let mut client =
            HttpClient::connect(&addr, Some(Duration::from_secs(10))).expect("connect");
        let response = client
            .request("POST", "/v1/shutdown", &[], b"{}")
            .expect("shutdown");
        assert_eq!(response.status, 200);
        assert_eq!(response.body_str(), r#"{"draining":true,"ok":true}"#);
        let stub = running.join();
        let after = stub.ticks.load(SeqCst);
        std::thread::sleep(TICK * 4);
        let now = stub.ticks.load(SeqCst);
        assert_eq!(now, after, "a tick ran after the join");
    }

    #[test]
    fn responses_are_read_within_the_caps() {
        let read = |raw: &str| read_response(&mut Cursor::new(raw.as_bytes().to_vec()));
        let ok =
            read("HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}")
                .expect("parse");
        assert_eq!((ok.status, ok.body.as_slice()), (200, b"{}".as_slice()));
        for (raw, why) in [
            (
                "HTTP/1.1 200 OK\r\ncontent-length: 1000000000000\r\n\r\n".to_string(),
                "exceeds",
            ),
            (
                format!("HTTP/1.1 200 OK\r\nx: {}\r\n\r\n", "v".repeat(64 << 10)),
                "HeadersTooLarge",
            ),
            (
                "HTTP/1.1 200 OK\r\ncontent-length: -1\r\n\r\n".to_string(),
                "content-length",
            ),
            ("HTTP/1.1 200 OK\r\n".to_string(), "BadHeader"),
            (String::new(), "closed"),
        ] {
            let e = read(&raw).expect_err(why);
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{why}: {e}");
            assert!(e.to_string().contains(why), "{why}: {e}");
        }
    }

    #[test]
    fn json_bodies_must_be_objects() {
        assert_eq!(json_body(b"").unwrap(), Json::Obj(BTreeMap::new()));
        assert!(json_body(br#"{"module":"m"}"#).is_ok());
        assert!(json_body(b"[1]").unwrap_err().contains("object"));
        assert!(json_body(b"not json").unwrap_err().contains("bad JSON"));
        assert!(json_body(&[0xff, 0xfe]).unwrap_err().contains("UTF-8"));
    }
}
