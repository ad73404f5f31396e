//! Zero-dependency HTTP/1.1 primitives for the serving layer.
//!
//! The hermetic-build policy (see DESIGN.md, "Hermetic runtime") rules out
//! hyper/axum/tokio, so `mcgp serve` speaks a deliberately small slice of
//! HTTP/1.1 implemented here directly over [`std::net`]:
//!
//! * **Connections** are persistent by default ([`Conn`]): HTTP/1.1
//!   keep-alive semantics, honoring `Connection: close` from either side.
//!   A [`Conn`] owns the receive buffer, so bytes of a pipelined follow-up
//!   request that arrive together with the current one survive between
//!   [`Conn::read_request`] calls instead of being dropped with a
//!   per-request reader.
//! * **Requests** are parsed under hard limits ([`Limits`]) so a malicious
//!   peer can neither balloon memory nor hold a worker forever. The
//!   timeout is a *whole-request* deadline, not a per-read one — a
//!   slowloris peer dripping one byte per read would otherwise reset a
//!   per-read timer thousands of times — and expiry surfaces as
//!   [`NetError::Timeout`].
//! * **Responses** either carry a `Content-Length` ([`write_response`]) or
//!   stream ([`ResponseStream`]). A streamed response uses chunked
//!   transfer coding when the connection stays open and close-delimited
//!   framing otherwise; in both cases the *payload bytes* are identical
//!   (the serve determinism contract is over body bytes, and the client
//!   de-frames before comparing).
//! * **Clients** issue one-shot exchanges ([`http_request`]) or hold a
//!   persistent connection ([`NetClient`]) so N requests cost one TCP
//!   handshake, not N. The client de-frames `Content-Length`, chunked,
//!   and close-delimited bodies identically.
//!
//! Unsupported on purpose: chunked ingest, HTTP/2, TLS. A request using
//! them gets a clean typed rejection, not a hang.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Hard limits applied while reading a request.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum `Content-Length` accepted.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 64 * 1024 * 1024,
        }
    }
}

/// A typed failure while reading or parsing a request. The server maps
/// each variant onto an HTTP status instead of dropping the connection.
#[derive(Debug)]
pub enum NetError {
    /// The peer closed before sending a complete request.
    Closed,
    /// A socket read or write timed out (`408 Request Timeout`).
    Timeout,
    /// The request violates the protocol subset (`400 Bad Request`).
    BadRequest(String),
    /// A size limit was exceeded (`413 Content Too Large`).
    TooLarge { what: &'static str, limit: usize },
    /// Transport-level I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Closed => write!(f, "connection closed before a complete request"),
            NetError::Timeout => write!(f, "socket operation timed out"),
            NetError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            NetError::TooLarge { what, limit } => {
                write!(f, "{what} exceeds the limit of {limit} bytes")
            }
            NetError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => NetError::Timeout,
            io::ErrorKind::UnexpectedEof => NetError::Closed,
            _ => NetError::Io(e),
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercase as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target, percent-decoded.
    pub path: String,
    /// Query parameters in order of appearance, percent-decoded.
    pub query: Vec<(String, String)>,
    /// Headers in order of appearance; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
    /// True when the request line said `HTTP/1.1` (keep-alive default).
    pub http11: bool,
}

impl Request {
    /// First header with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// HTTP/1.1 keep-alive semantics: persistent unless the peer sent
    /// `Connection: close`; HTTP/1.0 is persistent only on an explicit
    /// `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        let mut close = false;
        let mut keep = false;
        if let Some(v) = self.header("connection") {
            for token in v.split(',') {
                let t = token.trim();
                if t.eq_ignore_ascii_case("close") {
                    close = true;
                } else if t.eq_ignore_ascii_case("keep-alive") {
                    keep = true;
                }
            }
        }
        if close {
            false
        } else {
            keep || self.http11
        }
    }
}

/// Decodes `%XX` escapes and `+` (as space) in a URL component. Invalid
/// escapes pass through verbatim — the server treats the target as opaque
/// text, never as instructions.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(h), Some(l)) => {
                        out.push((h * 16 + l) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a request target into path and decoded query pairs.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let pairs = query
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect();
    (percent_decode(path), pairs)
}

/// Re-arms the socket read timeout to whatever remains of the request
/// deadline, or fails with [`NetError::Timeout`] once it has passed. Called
/// before *every* blocking read so progress (a dribbled byte) never resets
/// the clock — the deadline covers the whole request.
fn arm_deadline(stream: &TcpStream, deadline: Option<Instant>) -> Result<(), NetError> {
    if let Some(d) = deadline {
        let remaining = d.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(NetError::Timeout);
        }
        stream.set_read_timeout(Some(remaining))?;
    }
    Ok(())
}

/// A growable receive buffer that persists across messages on one socket.
/// Bytes read past the end of one message stay buffered for the next —
/// the property that makes pipelining safe (a per-request `BufReader`
/// would drop them on the floor).
#[derive(Debug, Default)]
struct RecvBuf {
    data: Vec<u8>,
    pos: usize,
}

impl RecvBuf {
    fn unread(&self) -> &[u8] {
        &self.data[self.pos..]
    }

    fn has_unread(&self) -> bool {
        self.pos < self.data.len()
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        debug_assert!(self.pos <= self.data.len());
        if self.pos == self.data.len() {
            self.data.clear();
            self.pos = 0;
        }
    }

    /// Reads more bytes from the socket, compacting first so the buffer
    /// never grows with connection lifetime. Returns new-byte count
    /// (0 = EOF).
    fn fill(&mut self, mut stream: &TcpStream) -> io::Result<usize> {
        if self.pos > 0 {
            self.data.drain(..self.pos);
            self.pos = 0;
        }
        let old = self.data.len();
        self.data.resize(old + 8192, 0);
        match stream.read(&mut self.data[old..]) {
            Ok(n) => {
                self.data.truncate(old + n);
                Ok(n)
            }
            Err(e) => {
                self.data.truncate(old);
                Err(e)
            }
        }
    }
}

/// One server-side connection: the socket plus the receive buffer that
/// carries pipelined bytes between requests. The serve accept loop wraps
/// every accepted socket in a [`Conn`] and calls
/// [`Conn::read_request`] in a loop until the peer closes or keep-alive
/// ends.
pub struct Conn {
    stream: TcpStream,
    rb: RecvBuf,
}

impl Conn {
    /// Wraps an accepted socket.
    pub fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rb: RecvBuf::default(),
        }
    }

    /// The underlying socket (for peer address, timeouts, shutdown).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// True when bytes of a pipelined follow-up request are already
    /// buffered, so the next [`Conn::read_request`] starts without
    /// touching the socket.
    pub fn has_buffered_input(&self) -> bool {
        self.rb.has_unread()
    }

    /// Reads the next request on this connection. See [`read_request`]
    /// for limit and deadline semantics; [`NetError::Closed`] before any
    /// byte of a follow-up request is the clean end of a keep-alive
    /// conversation.
    pub fn read_request(
        &mut self,
        limits: &Limits,
        timeout: Option<Duration>,
    ) -> Result<Request, NetError> {
        read_request_buffered(&self.stream, &mut self.rb, limits, timeout)
    }

    /// Writes a complete `Content-Length`-framed response.
    pub fn write_response(
        &mut self,
        status: u16,
        content_type: &str,
        extra: &[(String, String)],
        body: &[u8],
        keep_alive: bool,
    ) -> io::Result<()> {
        write_response(&mut self.stream, status, content_type, extra, body, keep_alive)
    }

    /// Starts a streamed response (chunked under keep-alive,
    /// close-delimited otherwise).
    pub fn begin_stream(
        &mut self,
        status: u16,
        content_type: &str,
        extra: &[(String, String)],
        keep_alive: bool,
    ) -> io::Result<ResponseStream<'_>> {
        ResponseStream::begin(&mut self.stream, status, content_type, extra, keep_alive)
    }
}

/// Reads one HTTP/1.1 request from `stream` under `limits`. `timeout`, when
/// given, bounds the *total* time spent reading the request (head and body
/// together); a peer that keeps the socket warm with one byte per read
/// still gets [`NetError::Timeout`] when the deadline passes.
///
/// Returns [`NetError::Closed`] if the peer disconnected before sending a
/// full request head, which the accept loop treats as a non-event.
///
/// This free function is single-shot: bytes beyond the first request are
/// discarded with its internal buffer. Keep-alive servers must hold a
/// [`Conn`] instead.
pub fn read_request(
    stream: &mut TcpStream,
    limits: &Limits,
    timeout: Option<Duration>,
) -> Result<Request, NetError> {
    let mut rb = RecvBuf::default();
    read_request_buffered(stream, &mut rb, limits, timeout)
}

fn read_request_buffered(
    stream: &TcpStream,
    rb: &mut RecvBuf,
    limits: &Limits,
    timeout: Option<Duration>,
) -> Result<Request, NetError> {
    let deadline = timeout.map(|t| Instant::now() + t);
    // Head: everything through the blank line, capped. The scan restarts
    // from the buffer head each fill; the head cap keeps that quadratic
    // corner at ~16 KiB.
    let head_end = loop {
        if let Some(pos) = find_subslice(rb.unread(), b"\r\n\r\n") {
            break pos + 4;
        }
        if rb.unread().len() > limits.max_head_bytes {
            return Err(NetError::TooLarge {
                what: "request head",
                limit: limits.max_head_bytes,
            });
        }
        arm_deadline(stream, deadline)?;
        if rb.fill(stream)? == 0 {
            return Err(NetError::Closed);
        }
    };
    if head_end > limits.max_head_bytes {
        return Err(NetError::TooLarge {
            what: "request head",
            limit: limits.max_head_bytes,
        });
    }
    let head = rb.unread()[..head_end].to_vec();
    rb.consume(head_end);

    let head_text = std::str::from_utf8(&head)
        .map_err(|_| NetError::BadRequest("request head is not valid UTF-8".into()))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(NetError::BadRequest(format!(
                "malformed request line `{request_line}`"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(NetError::BadRequest(format!(
            "unsupported protocol version `{version}`"
        )));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the terminating blank line
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(NetError::BadRequest(format!("malformed header `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(NetError::BadRequest(
            "chunked request bodies are not supported; send Content-Length".into(),
        ));
    }

    // Every Content-Length must be plain digits (`parse` alone accepts
    // `+5`), and repeats must agree: a peer that frames the body one way
    // for us and another way for an intermediary desyncs keep-alive.
    let mut content_length = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let n = match v.parse::<usize>() {
            Ok(n) if v.bytes().all(|b| b.is_ascii_digit()) => n,
            _ => return Err(NetError::BadRequest(format!("invalid Content-Length `{v}`"))),
        };
        if content_length.is_some_and(|prev| prev != n) {
            return Err(NetError::BadRequest(
                "conflicting Content-Length headers".into(),
            ));
        }
        content_length = Some(n);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > limits.max_body_bytes {
        return Err(NetError::TooLarge {
            what: "request body",
            limit: limits.max_body_bytes,
        });
    }
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        let avail = rb.unread();
        if !avail.is_empty() {
            let take = avail.len().min(content_length - filled);
            body[filled..filled + take].copy_from_slice(&avail[..take]);
            rb.consume(take);
            filled += take;
            continue;
        }
        arm_deadline(stream, deadline)?;
        if rb.fill(stream)? == 0 {
            return Err(NetError::Closed);
        }
    }

    let (path, query) = parse_target(target);
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
        http11: version == "HTTP/1.1",
    })
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Reason phrase for the status codes the server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn connection_header(keep_alive: bool) -> &'static str {
    if keep_alive {
        "keep-alive"
    } else {
        "close"
    }
}

/// Writes a complete response with `Content-Length` framing. `extra`
/// headers are emitted verbatim after the standard set.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(String, String)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nConnection: {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason_phrase(status),
        connection_header(keep_alive),
        body.len()
    );
    for (k, v) in extra {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// A response streamed line by line without buffering the whole body —
/// how partition responses stream their JSONL. Under keep-alive the body
/// uses chunked transfer coding (one chunk per line, `0\r\n\r\n`
/// terminator); on a closing connection it is close-delimited raw bytes.
/// Either way the de-framed payload is byte-identical, which keeps the
/// serve determinism contract independent of connection reuse.
pub struct ResponseStream<'a> {
    stream: &'a mut TcpStream,
    chunked: bool,
}

impl<'a> ResponseStream<'a> {
    /// Writes the status line and headers; body bytes follow via
    /// [`ResponseStream::write_line`].
    pub fn begin(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
        extra: &[(String, String)],
        keep_alive: bool,
    ) -> io::Result<ResponseStream<'a>> {
        let mut head = format!(
            "HTTP/1.1 {status} {}\r\nConnection: {}\r\n",
            reason_phrase(status),
            connection_header(keep_alive),
        );
        if keep_alive {
            head.push_str("Transfer-Encoding: chunked\r\n");
        }
        head.push_str(&format!("Content-Type: {content_type}\r\n"));
        for (k, v) in extra {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        Ok(ResponseStream {
            stream,
            chunked: keep_alive,
        })
    }

    /// Streams one body line (the newline is appended here, so callers
    /// hand over exactly one JSONL record at a time).
    pub fn write_line(&mut self, line: &str) -> io::Result<()> {
        if self.chunked {
            write!(self.stream, "{:x}\r\n", line.len() + 1)?;
            self.stream.write_all(line.as_bytes())?;
            self.stream.write_all(b"\n\r\n")
        } else {
            self.stream.write_all(line.as_bytes())?;
            self.stream.write_all(b"\n")
        }
    }

    /// Terminates the body (final chunk under keep-alive) and flushes.
    pub fn finish(self) -> io::Result<()> {
        if self.chunked {
            self.stream.write_all(b"0\r\n\r\n")?;
        }
        self.stream.flush()
    }
}

/// A complete client-side view of one HTTP exchange.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Full response body, de-framed (chunk headers stripped).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

const MAX_RESPONSE_HEAD: usize = 64 * 1024;

fn invalid_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))
}

/// Reads bytes through the end-of-head marker; returns head bytes
/// (without the blank line).
fn read_response_head(stream: &TcpStream, rb: &mut RecvBuf) -> io::Result<Vec<u8>> {
    loop {
        if let Some(pos) = find_subslice(rb.unread(), b"\r\n\r\n") {
            let head = rb.unread()[..pos].to_vec();
            rb.consume(pos + 4);
            return Ok(head);
        }
        if rb.unread().len() > MAX_RESPONSE_HEAD {
            return Err(invalid_data("response head too large"));
        }
        if rb.fill(stream)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a complete response head",
            ));
        }
    }
}

/// Appends exactly `n` body bytes to `out`.
fn read_exact_body(stream: &TcpStream, rb: &mut RecvBuf, n: usize, out: &mut Vec<u8>) -> io::Result<()> {
    let mut remaining = n;
    while remaining > 0 {
        let avail = rb.unread();
        if !avail.is_empty() {
            let take = avail.len().min(remaining);
            out.extend_from_slice(&avail[..take]);
            rb.consume(take);
            remaining -= take;
            continue;
        }
        if rb.fill(stream)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
    }
    Ok(())
}

/// Reads one CRLF-terminated line (returned without the terminator).
fn read_crlf_line(stream: &TcpStream, rb: &mut RecvBuf) -> io::Result<String> {
    loop {
        if let Some(pos) = rb.unread().iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&rb.unread()[..pos])
                .trim_end_matches('\r')
                .to_string();
            rb.consume(pos + 1);
            return Ok(line);
        }
        if rb.unread().len() > MAX_RESPONSE_HEAD {
            return Err(invalid_data("unterminated chunk header"));
        }
        if rb.fill(stream)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-chunk",
            ));
        }
    }
}

fn parse_response_head(head: &[u8]) -> io::Result<(u16, Vec<(String, String)>)> {
    let head_text = std::str::from_utf8(head).map_err(|_| invalid_data("non-UTF-8 response head"))?;
    let mut lines = head_text.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid_data(&format!("malformed status line `{status_line}`")))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok((status, headers))
}

/// Reads one response off the wire, de-framing the body. The second
/// element reports whether the connection may carry another exchange
/// (false after `Connection: close` or a close-delimited body).
fn read_response(stream: &TcpStream, rb: &mut RecvBuf) -> io::Result<(ClientResponse, bool)> {
    let head = read_response_head(stream, rb)?;
    let (status, headers) = parse_response_head(&head)?;
    let find = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    let mut reusable = !find("connection")
        .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close")));
    let mut body = Vec::new();
    let chunked =
        find("transfer-encoding").is_some_and(|v| v.to_ascii_lowercase().contains("chunked"));
    if chunked {
        loop {
            let size_line = read_crlf_line(stream, rb)?;
            let size_text = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_text, 16)
                .map_err(|_| invalid_data(&format!("bad chunk size `{size_line}`")))?;
            if size == 0 {
                // Consume (empty) trailer section through the blank line.
                loop {
                    if read_crlf_line(stream, rb)?.is_empty() {
                        break;
                    }
                }
                break;
            }
            read_exact_body(stream, rb, size, &mut body)?;
            if !read_crlf_line(stream, rb)?.is_empty() {
                return Err(invalid_data("missing chunk terminator"));
            }
        }
    } else if let Some(len) = find("content-length").and_then(|v| v.parse::<usize>().ok()) {
        read_exact_body(stream, rb, len, &mut body)?;
    } else {
        // Close-delimited: the body ends with the connection.
        reusable = false;
        loop {
            let avail = rb.unread().len();
            if avail > 0 {
                body.extend_from_slice(rb.unread());
                rb.consume(avail);
            }
            if rb.fill(stream)? == 0 {
                break;
            }
        }
    }
    Ok((
        ClientResponse {
            status,
            headers,
            body,
        },
        reusable,
    ))
}

/// Sends one request and reads the response on an existing connection.
#[allow(clippy::too_many_arguments)]
fn exchange(
    stream: &mut TcpStream,
    rb: &mut RecvBuf,
    addr: &str,
    method: &str,
    target: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<(ClientResponse, bool)> {
    let mut head = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: {}\r\nContent-Length: {}\r\n",
        connection_header(keep_alive),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    read_response(stream, rb)
}

/// Issues one HTTP/1.1 request (`Connection: close`) and reads the full
/// response. `timeout` bounds connect and each socket read/write. For
/// request sequences, prefer [`NetClient`], which amortizes the
/// handshake across calls.
pub fn http_request(
    addr: &str,
    method: &str,
    target: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    timeout: Option<Duration>,
) -> io::Result<ClientResponse> {
    let sock_addr = resolve(addr)?;
    let mut stream = match timeout {
        Some(t) => TcpStream::connect_timeout(&sock_addr, t)?,
        None => TcpStream::connect(sock_addr)?,
    };
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    stream.set_nodelay(true)?;
    let mut rb = RecvBuf::default();
    let (resp, _) = exchange(
        &mut stream,
        &mut rb,
        addr,
        method,
        target,
        extra_headers,
        body,
        false,
    )?;
    Ok(resp)
}

/// A reusable HTTP/1.1 client holding one keep-alive connection to a
/// fixed address, so N requests cost one TCP handshake instead of N.
///
/// [`NetClient::request_on`] sends on the persistent connection and
/// reconnects transparently — exactly once per call — when a *reused*
/// connection turns out to be stale (the server idled it out between
/// requests). A request that fails on a fresh connection is reported as
/// the error it is.
pub struct NetClient {
    addr: String,
    timeout: Option<Duration>,
    conn: Option<(TcpStream, RecvBuf)>,
    connects: u64,
}

impl NetClient {
    /// A client for `addr`; no connection is opened until the first
    /// request. `timeout` bounds connect and each socket read/write.
    pub fn new(addr: &str, timeout: Option<Duration>) -> NetClient {
        NetClient {
            addr: addr.to_string(),
            timeout,
            conn: None,
            connects: 0,
        }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// How many TCP connections this client has opened so far — the
    /// load generator asserts reuse through this.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    fn connect(&mut self) -> io::Result<TcpStream> {
        let sock_addr = resolve(&self.addr)?;
        let stream = match self.timeout {
            Some(t) => TcpStream::connect_timeout(&sock_addr, t)?,
            None => TcpStream::connect(sock_addr)?,
        };
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        stream.set_nodelay(true)?;
        self.connects += 1;
        Ok(stream)
    }

    fn try_request(
        &mut self,
        method: &str,
        target: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        if self.conn.is_none() {
            let stream = self.connect()?;
            self.conn = Some((stream, RecvBuf::default()));
        }
        let addr = self.addr.clone();
        let (stream, rb) = self.conn.as_mut().expect("connection just ensured");
        match exchange(stream, rb, &addr, method, target, extra_headers, body, true) {
            Ok((resp, reusable)) => {
                if !reusable {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    /// Sends one request on the persistent connection, reading the full
    /// response. Requests are sequential per client (HTTP/1.1 responses
    /// come back in order); the server may pipeline internally.
    pub fn request_on(
        &mut self,
        method: &str,
        target: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        let reused = self.conn.is_some();
        match self.try_request(method, target, extra_headers, body) {
            Err(e) if reused && is_stale_conn_error(&e) => {
                // The keep-alive race: the server closed the idle
                // connection while our request was in flight. Retry once
                // on a fresh connection; requests are deterministic, so
                // the replay is safe.
                self.try_request(method, target, extra_headers, body)
            }
            other => other,
        }
    }
}

/// Errors consistent with the server having dropped an idle keep-alive
/// connection (retry-safe), as opposed to timeouts or protocol faults.
fn is_stale_conn_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::WriteZero
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(request_bytes: &[u8], limits: Limits) -> Result<Request, NetError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let bytes = request_bytes.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&bytes).unwrap();
            s.flush().unwrap();
            // Half-close so a server waiting for more head bytes sees EOF
            // instead of deadlocking against our read below.
            s.shutdown(std::net::Shutdown::Write).unwrap();
            let mut sink = Vec::new();
            let _ = s.read_to_end(&mut sink);
        });
        let (mut stream, _) = listener.accept().unwrap();
        let r = read_request(&mut stream, &limits, None);
        drop(stream);
        client.join().unwrap();
        r
    }

    #[test]
    fn parses_request_with_query_and_body() {
        let req = roundtrip(
            b"POST /partition?k=8&tol=0.05&spec=gen%3Amrng%3A100 HTTP/1.1\r\n\
              Host: x\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nhello",
            Limits::default(),
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/partition");
        assert_eq!(req.query_param("k"), Some("8"));
        assert_eq!(req.query_param("tol"), Some("0.05"));
        assert_eq!(req.query_param("spec"), Some("gen:mrng:100"));
        assert_eq!(req.header("content-type"), Some("text/plain"));
        assert_eq!(req.body, b"hello");
        assert!(req.http11);
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let keep = |bytes: &[u8]| roundtrip(bytes, Limits::default()).unwrap().wants_keep_alive();
        assert!(keep(b"GET /x HTTP/1.1\r\n\r\n"));
        assert!(!keep(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!keep(b"GET /x HTTP/1.0\r\n\r\n"));
        assert!(keep(b"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
        assert!(!keep(b"GET /x HTTP/1.1\r\nConnection: close, keep-alive\r\n\r\n"));
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for bad in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /x HTTP/2.0\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            assert!(
                matches!(roundtrip(bad, Limits::default()), Err(NetError::BadRequest(_))),
                "{:?} should be a bad request",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn content_length_must_be_digits_and_agree() {
        for bad in [
            &b"POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello"[..],
            b"POST /x HTTP/1.1\r\nContent-Length: -0\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length:\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nhello",
            b"POST /x HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nhello",
            b"POST /x HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: +5\r\n\r\nhello",
        ] {
            assert!(
                matches!(roundtrip(bad, Limits::default()), Err(NetError::BadRequest(_))),
                "{:?} should be a bad request",
                String::from_utf8_lossy(bad)
            );
        }
        // Repeats that agree frame the body the same way either way.
        let req = roundtrip(
            b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 005\r\n\r\nhello",
            Limits::default(),
        )
        .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn enforces_head_and_body_limits() {
        let limits = Limits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        let big_head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(100));
        assert!(matches!(
            roundtrip(big_head.as_bytes(), limits),
            Err(NetError::TooLarge { what: "request head", .. })
        ));
        assert!(matches!(
            roundtrip(
                b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n",
                limits
            ),
            Err(NetError::TooLarge { what: "request body", .. })
        ));
    }

    #[test]
    fn slowloris_drip_hits_the_request_deadline() {
        // A peer dripping the head one byte at a time makes progress on
        // every socket read, so a per-read timeout would never fire; the
        // whole-request deadline must.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            for b in b"GET /slow HTTP/1.1\r\nHost: x\r\n\r\n" {
                if s.write_all(&[*b]).is_err() {
                    break; // server gave up on us, as it should
                }
                let _ = s.flush();
                std::thread::sleep(Duration::from_millis(25));
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let t0 = Instant::now();
        let r = read_request(
            &mut stream,
            &Limits::default(),
            Some(Duration::from_millis(100)),
        );
        assert!(
            matches!(r, Err(NetError::Timeout)),
            "dripped head must time out, got {r:?}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "deadline must not scale with bytes dripped"
        );
        drop(stream);
        client.join().unwrap();
    }

    #[test]
    fn early_close_is_closed_not_parse_error() {
        assert!(matches!(
            roundtrip(b"", Limits::default()),
            Err(NetError::Closed)
        ));
        assert!(matches!(
            roundtrip(b"GET /x HT", Limits::default()),
            Err(NetError::Closed)
        ));
    }

    #[test]
    fn client_and_server_roundtrip_fixed_and_streamed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let req = read_request(&mut stream, &Limits::default(), None).unwrap();
                if req.path == "/fixed" {
                    write_response(
                        &mut stream,
                        200,
                        "application/json",
                        &[("X-Test".to_string(), "yes".to_string())],
                        b"{\"ok\":true}",
                        false,
                    )
                    .unwrap();
                } else {
                    let mut s =
                        ResponseStream::begin(&mut stream, 200, "application/jsonl", &[], false)
                            .unwrap();
                    s.write_line("{\"line\":1}").unwrap();
                    s.write_line("{\"line\":2}").unwrap();
                    s.finish().unwrap();
                }
            }
        });
        let r = http_request(&addr, "GET", "/fixed", &[], b"", None).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-test"), Some("yes"));
        assert_eq!(r.body, b"{\"ok\":true}");
        let r = http_request(&addr, "GET", "/stream", &[], b"", None).unwrap();
        assert_eq!(r.text(), "{\"line\":1}\n{\"line\":2}\n");
        server.join().unwrap();
    }

    #[test]
    fn pipelined_requests_survive_in_the_connection_buffer() {
        // Two requests written back-to-back before the server reads: the
        // second must come out of the Conn buffer, not be lost with a
        // per-request reader.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(
                b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nonePOST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\ntwo",
            )
            .unwrap();
            s.flush().unwrap();
            let mut sink = Vec::new();
            let _ = s.read_to_end(&mut sink);
            sink
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(stream);
        let a = conn.read_request(&Limits::default(), None).unwrap();
        assert_eq!((a.path.as_str(), a.body.as_slice()), ("/a", &b"one"[..]));
        assert!(
            conn.has_buffered_input(),
            "second pipelined request must already be buffered"
        );
        let b = conn.read_request(&Limits::default(), None).unwrap();
        assert_eq!((b.path.as_str(), b.body.as_slice()), ("/b", &b"two"[..]));
        conn.write_response(200, "text/plain", &[], b"ok-a", true).unwrap();
        conn.write_response(200, "text/plain", &[], b"ok-b", false).unwrap();
        drop(conn);
        let raw = client.join().unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(text.contains("ok-a") && text.contains("ok-b"));
    }

    #[test]
    fn net_client_reuses_one_connection_and_survives_server_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut accepted = 0u32;
            // First connection: serve three requests (streamed, fixed,
            // fixed), then close. Second connection: serve one.
            let (stream, _) = listener.accept().unwrap();
            accepted += 1;
            let mut conn = Conn::new(stream);
            for i in 0..3 {
                let req = conn.read_request(&Limits::default(), None).unwrap();
                assert!(req.wants_keep_alive());
                if i == 0 {
                    let mut s = conn.begin_stream(200, "application/jsonl", &[], true).unwrap();
                    s.write_line("{\"n\":1}").unwrap();
                    s.write_line("{\"n\":2}").unwrap();
                    s.finish().unwrap();
                } else {
                    conn.write_response(200, "text/plain", &[], b"again", true).unwrap();
                }
            }
            drop(conn); // server-side close between requests
            let (stream, _) = listener.accept().unwrap();
            accepted += 1;
            let mut conn = Conn::new(stream);
            let _ = conn.read_request(&Limits::default(), None).unwrap();
            conn.write_response(200, "text/plain", &[], b"fresh", true).unwrap();
            accepted
        });
        let mut client = NetClient::new(&addr, Some(Duration::from_secs(5)));
        let r = client.request_on("GET", "/stream", &[], b"").unwrap();
        assert_eq!(r.text(), "{\"n\":1}\n{\"n\":2}\n");
        for _ in 0..2 {
            let r = client.request_on("GET", "/x", &[], b"").unwrap();
            assert_eq!(r.body, b"again");
        }
        assert_eq!(client.connects(), 1, "three requests, one handshake");
        // The server closed the connection; the next request must
        // transparently reconnect instead of failing.
        let r = client.request_on("GET", "/y", &[], b"").unwrap();
        assert_eq!(r.body, b"fresh");
        assert_eq!(client.connects(), 2);
        assert_eq!(server.join().unwrap(), 2);
    }

    #[test]
    fn chunked_and_close_delimited_bodies_deframe_identically() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for keep in [true, false] {
                let (stream, _) = listener.accept().unwrap();
                let mut conn = Conn::new(stream);
                let _ = conn.read_request(&Limits::default(), None).unwrap();
                let mut s = conn
                    .begin_stream(200, "application/jsonl", &[], keep)
                    .unwrap();
                for i in 0..5 {
                    s.write_line(&format!("{{\"i\":{i}}}")).unwrap();
                }
                s.finish().unwrap();
            }
        });
        let mut client = NetClient::new(&addr, Some(Duration::from_secs(5)));
        let chunked = client.request_on("GET", "/s", &[], b"").unwrap();
        assert_eq!(
            chunked.header("transfer-encoding").map(str::to_string),
            Some("chunked".to_string())
        );
        let closed = http_request(&addr, "GET", "/s", &[], b"", None).unwrap();
        assert_eq!(
            chunked.body, closed.body,
            "payload bytes must be framing-independent"
        );
        server.join().unwrap();
    }

    #[test]
    fn percent_decoding_handles_escapes_and_garbage() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("gen%3Amrng%3A100"), "gen:mrng:100");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }
}
