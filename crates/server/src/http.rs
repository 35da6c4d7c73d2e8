//! A hand-rolled HTTP/1.1 server: request parsing, response framing, and a
//! fixed thread pool over a blocking accept loop.
//!
//! Deliberately small: `Content-Length`-framed bodies only (no chunked
//! transfer), keep-alive connections, `Expect: 100-continue` support, and
//! hard limits on header and body sizes so a misbehaving client cannot
//! balloon the process. That subset is exactly what the JSON session API
//! and its clients need — and it keeps the frontend free of dependencies.
//!
//! Overload and failure behavior is explicit:
//!
//! * The accept queue is **bounded** ([`ServerConfig::queue_depth`]). When
//!   every worker is busy and the queue is full, new connections get an
//!   immediate `503` with a `Retry-After` header instead of piling up.
//! * Sockets carry read *and* write timeouts, and each request has a
//!   **deadline** from its first byte to its last — a slow-loris client
//!   trickling headers gets `408`, not a parked worker.
//! * A keep-alive connection holds its worker only while no other accepted
//!   connection is queued: a response written while one is queued carries
//!   `Connection: close`, and an idle connection waiting for its next
//!   request is closed as soon as one is queued. Clients that think between
//!   requests cannot hold every worker.
//! * Header count and total header bytes are bounded separately from the
//!   16 KiB head limit; exceeding either is a `431`, not a hangup.
//! * [`Server::shutdown_graceful`] stops accepting, lets in-flight requests
//!   finish (forcing `Connection: close` on their responses so keep-alive
//!   connections wind down), and reports whether the drain completed.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest accepted request head (request line + headers) in bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Most header lines accepted in one request.
const MAX_HEADER_COUNT: usize = 64;
/// Largest total header bytes (excluding the request line).
const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Largest accepted request body in bytes — snapshots of big workloads are
/// megabytes, so this is generous without being unbounded.
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// A parsed HTTP request: everything the router needs, nothing more.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, …).
    pub method: String,
    /// Request path without query string (`/sessions/3/step`).
    pub path: String,
    /// Raw request body (empty for bodyless requests).
    pub body: String,
}

/// An HTTP response the router hands back; the server frames and writes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body, always JSON text in this service.
    pub body: String,
    /// Emit a `Retry-After: <secs>` header (used with `503`).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            retry_after: None,
        }
    }

    /// A `503 Service Unavailable` telling the client when to retry.
    pub fn unavailable(reason: &str, retry_after_secs: u64) -> Response {
        Response {
            status: 503,
            body: format!("{{\"error\":{reason:?},\"kind\":\"unavailable\"}}"),
            retry_after: Some(retry_after_secs),
        }
    }
}

/// The application behind the server: maps one request to one response.
pub trait Handler: Send + Sync {
    /// Handles a single request. Must not panic — a panicking handler takes
    /// its worker thread down.
    fn handle(&self, request: &Request) -> Response;
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

/// Outcome of reading one request off a connection.
enum Parsed {
    /// A complete request; serve it.
    Ok(Request, /* keep_alive: */ bool),
    /// The peer closed the connection cleanly between requests.
    Eof,
    /// The request was malformed; respond with this status and close.
    Bad(u16, &'static str),
}

/// Reads one HTTP/1.1 request from the stream. Writes the interim
/// `100 Continue` itself when the client asked for it. `deadline` bounds
/// the whole parse, from request line to final body byte.
fn read_request(reader: &mut BufReader<TcpStream>, deadline: Duration) -> Parsed {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => return Parsed::Eof,
        Ok(_) => {}
        Err(_) => return Parsed::Eof, // timeout or reset between requests
    }
    // The deadline clock starts once the first byte of a request exists —
    // idle keep-alive connections are governed by the read timeout instead.
    let started = Instant::now();
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => (m, t),
        _ => return Parsed::Bad(400, "malformed request line"),
    };
    let method = method.to_ascii_uppercase();
    let path = target.split('?').next().unwrap_or("").to_string();

    let mut head_bytes = line.len();
    let mut header_bytes = 0usize;
    let mut header_count = 0usize;
    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    let mut expects_continue = false;
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => return Parsed::Eof,
            Ok(_) => {}
            Err(_) => return Parsed::Bad(408, "request deadline exceeded"),
        }
        if started.elapsed() > deadline {
            return Parsed::Bad(408, "request deadline exceeded");
        }
        head_bytes += header.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Parsed::Bad(413, "request head too large");
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        header_bytes += header.len();
        header_count += 1;
        if header_count > MAX_HEADER_COUNT || header_bytes > MAX_HEADER_BYTES {
            return Parsed::Bad(431, "too many request headers");
        }
        let Some((name, value)) = header.split_once(':') else {
            return Parsed::Bad(400, "malformed header");
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => match value.parse::<usize>() {
                Ok(n) if n <= MAX_BODY_BYTES => content_length = n,
                Ok(_) => return Parsed::Bad(413, "request body too large"),
                Err(_) => return Parsed::Bad(400, "invalid content-length"),
            },
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            "expect" => expects_continue = value.eq_ignore_ascii_case("100-continue"),
            _ => {}
        }
    }

    if expects_continue && content_length > 0 {
        // The client is holding the body back until we commit.
        if reader
            .get_mut()
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .is_err()
        {
            return Parsed::Eof;
        }
    }

    let mut body = vec![0u8; content_length];
    if content_length > 0 && reader.read_exact(&mut body).is_err() {
        return Parsed::Bad(400, "request body shorter than content-length");
    }
    if started.elapsed() > deadline {
        return Parsed::Bad(408, "request deadline exceeded");
    }
    let Ok(body) = String::from_utf8(body) else {
        return Parsed::Bad(400, "request body is not UTF-8");
    };
    Parsed::Ok(Request { method, path, body }, keep_alive)
}

fn write_response(stream: &mut TcpStream, response: &Response, keep_alive: bool) -> bool {
    // One write per response: head and body in the same segment, so Nagle's
    // algorithm never holds the body back waiting for an ACK of the head.
    let retry_after = match response.retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    let mut message = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n",
        response.status,
        reason(response.status),
        response.body.len(),
        retry_after,
        if keep_alive { "keep-alive" } else { "close" },
    );
    message.push_str(&response.body);
    stream.write_all(message.as_bytes()).is_ok() && stream.flush().is_ok()
}

/// State shared between the accept thread, workers, and the [`Server`]
/// handle — what graceful shutdown watches.
#[derive(Debug, Default)]
struct Shared {
    /// Set during graceful shutdown: finish in-flight work, close
    /// connections after their current response.
    draining: AtomicBool,
    /// Requests currently inside the handler (or having their response
    /// written).
    in_flight: AtomicUsize,
    /// Accepted connections waiting for a free worker.
    queued: AtomicUsize,
}

/// How often a worker waiting for a request's first byte checks whether
/// another accepted connection is queued for a worker.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// Waits for the first byte of the next request on an idle connection.
/// Returns `false` (close the connection) on EOF or error, after
/// `read_timeout` of silence, or once another accepted connection is queued,
/// so idle keep-alive clients cannot hold every worker. Closing here is
/// safe: the server has read nothing of a request the peer may be sending,
/// which the peer sees as a stale connection it can resend on.
fn await_request(
    reader: &mut BufReader<TcpStream>,
    shared: &Shared,
    read_timeout: Duration,
) -> bool {
    if !reader.buffer().is_empty() {
        return true;
    }
    let started = Instant::now();
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(IDLE_POLL.min(read_timeout)));
    let ready = loop {
        match reader.fill_buf() {
            Ok(bytes) => break !bytes.is_empty(),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                if shared.queued.load(Ordering::SeqCst) > 0 || started.elapsed() >= read_timeout {
                    break false;
                }
            }
            Err(_) => break false,
        }
    };
    let _ = reader.get_ref().set_read_timeout(Some(read_timeout));
    ready
}

/// Serves one connection until it closes, errors, asks to close, or idles
/// while another connection waits for a worker.
fn serve_connection(
    stream: TcpStream,
    handler: &dyn Handler,
    shared: &Shared,
    config: &ServerConfig,
) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    // Interactive request/response traffic: latency beats batching.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    loop {
        if !await_request(&mut reader, shared, config.read_timeout) {
            return;
        }
        match read_request(&mut reader, config.request_deadline) {
            Parsed::Eof => return,
            Parsed::Bad(status, message) => {
                let body = format!("{{\"error\":{:?},\"kind\":\"bad_request\"}}", message);
                let _ = write_response(reader.get_mut(), &Response::json(status, body), false);
                return;
            }
            Parsed::Ok(request, keep_alive) => {
                shared.in_flight.fetch_add(1, Ordering::SeqCst);
                let response = handler.handle(&request);
                // While draining, or while another connection waits for a
                // worker, close after this response so this worker is free
                // for the next connection.
                let keep_alive = keep_alive
                    && !shared.draining.load(Ordering::SeqCst)
                    && shared.queued.load(Ordering::SeqCst) == 0;
                let written = write_response(reader.get_mut(), &response, keep_alive);
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                if !written || !keep_alive {
                    return;
                }
            }
        }
    }
}

/// Tuning for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Accepted connections that may wait for a worker before new arrivals
    /// are refused with `503` + `Retry-After`.
    pub queue_depth: usize,
    /// Per-socket read timeout; a stalled client frees its worker, and an
    /// idle keep-alive connection is closed after it even when no other
    /// connection is queued.
    pub read_timeout: Duration,
    /// Per-socket write timeout; a non-reading client frees its worker.
    pub write_timeout: Duration,
    /// Deadline for parsing one request, first byte to last body byte.
    pub request_deadline: Duration,
    /// `Retry-After` seconds advertised on backpressure `503`s.
    pub retry_after_secs: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 8,
            queue_depth: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            request_deadline: Duration::from_secs(10),
            retry_after_secs: 1,
        }
    }
}

/// A running HTTP server: an accept thread feeding a fixed worker pool
/// through a bounded queue.
///
/// Dropping the server shuts it down: the accept loop is poked awake, new
/// connections are refused, and the accept thread is joined. In-flight
/// connections finish on their (detached) workers. For an orderly exit use
/// [`Server::shutdown_graceful`] first.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections.
    pub fn bind(
        addr: &str,
        handler: Arc<dyn Handler>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared::default());

        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
            sync_channel(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        for worker in 0..config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            let shared = Arc::clone(&shared);
            let config = config.clone();
            std::thread::Builder::new()
                .name(format!("qfe-http-{worker}"))
                .spawn(move || loop {
                    let stream = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(_) => return,
                    };
                    match stream {
                        Ok(stream) => {
                            shared.queued.fetch_sub(1, Ordering::SeqCst);
                            serve_connection(stream, handler.as_ref(), &shared, &config);
                        }
                        Err(_) => return, // server dropped the sender: shut down
                    }
                })?;
        }

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_shared = Arc::clone(&shared);
        let retry_after = config.retry_after_secs;
        let accept_thread = std::thread::Builder::new()
            .name("qfe-http-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        return; // tx drops here; idle workers exit
                    }
                    let Ok(stream) = stream else { continue };
                    accept_shared.queued.fetch_add(1, Ordering::SeqCst);
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(mut stream)) => {
                            // Pool saturated and queue full: shed load now
                            // with an honest 503 instead of queueing
                            // unboundedly.
                            accept_shared.queued.fetch_sub(1, Ordering::SeqCst);
                            let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                            let _ = write_response(
                                &mut stream,
                                &Response::unavailable("server at capacity", retry_after),
                                false,
                            );
                        }
                        Err(TrySendError::Disconnected(_)) => return,
                    }
                }
            })?;

        Ok(Server {
            local_addr,
            shutdown,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests currently being handled (for the readiness probe).
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Stops accepting connections and joins the accept thread.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop blocks in `incoming()`; poke it awake so it
        // observes the flag. A failed connect means it is already gone.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Orderly shutdown: stop accepting, let queued and in-flight requests
    /// finish (their responses carry `Connection: close`), and wait up to
    /// `timeout` for the drain. Returns `true` when everything drained.
    pub fn shutdown_graceful(&mut self, timeout: Duration) -> bool {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shutdown();
        let deadline = Instant::now() + timeout;
        loop {
            let queued = self.shared.queued.load(Ordering::SeqCst);
            let in_flight = self.shared.in_flight.load(Ordering::SeqCst);
            if queued == 0 && in_flight == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Echo;

    impl Handler for Echo {
        fn handle(&self, request: &Request) -> Response {
            Response::json(
                200,
                format!(
                    "{{\"method\":{:?},\"path\":{:?},\"body_len\":{}}}",
                    request.method,
                    request.path,
                    request.body.len()
                ),
            )
        }
    }

    /// Echo, after a pause — occupies a worker long enough to observe
    /// saturation and drains.
    #[derive(Debug)]
    struct SlowEcho(Duration);

    impl Handler for SlowEcho {
        fn handle(&self, request: &Request) -> Response {
            std::thread::sleep(self.0);
            Echo.handle(request)
        }
    }

    fn start() -> Server {
        Server::bind(
            "127.0.0.1:0",
            Arc::new(Echo),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    }

    fn roundtrip(stream: &mut TcpStream, request: &str) -> String {
        stream.write_all(request.as_bytes()).unwrap();
        read_reply(stream)
    }

    fn read_reply(stream: &mut TcpStream) -> String {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut content_length = 0usize;
        let mut headers = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.trim_end().is_empty() {
                break;
            }
            headers.push_str(&line);
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        format!(
            "{} | {} | {}",
            status.trim_end(),
            headers.trim_end().replace("\r\n", "; "),
            String::from_utf8(body).unwrap()
        )
    }

    #[test]
    fn serves_keep_alive_requests_on_one_connection() {
        let server = start();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let first = roundtrip(&mut stream, "GET /a HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(first.starts_with("HTTP/1.1 200"));
        assert!(first.contains("\"path\":\"/a\""));
        // Same socket, second request — keep-alive works.
        let second = roundtrip(
            &mut stream,
            "POST /b HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nwire",
        );
        assert!(second.contains("\"method\":\"POST\""));
        assert!(second.contains("\"body_len\":4"));
    }

    #[test]
    fn expect_continue_and_query_strings_are_handled() {
        let server = start();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(
                b"POST /c?x=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\n",
            )
            .unwrap();
        // Wait for the interim response before sending the body.
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut interim = String::new();
        reader.read_line(&mut interim).unwrap();
        assert!(interim.starts_with("HTTP/1.1 100"));
        let mut blank = String::new();
        reader.read_line(&mut blank).unwrap();
        let reply = roundtrip(&mut stream, "ok");
        assert!(
            reply.contains("\"path\":\"/c\""),
            "query string stripped: {reply}"
        );
        assert!(reply.contains("\"body_len\":2"));
    }

    #[test]
    fn malformed_requests_get_400_and_close() {
        let server = start();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let reply = roundtrip(&mut stream, "NONSENSE\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection closed after the error");
    }

    #[test]
    fn oversized_declared_bodies_are_rejected() {
        let server = start();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let reply = roundtrip(
            &mut stream,
            "POST /big HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999999\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
    }

    #[test]
    fn excessive_header_count_gets_431() {
        let server = start();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut request = String::from("GET /h HTTP/1.1\r\nHost: x\r\n");
        for i in 0..100 {
            request.push_str(&format!("X-Pad-{i}: v\r\n"));
        }
        request.push_str("\r\n");
        let reply = roundtrip(&mut stream, &request);
        assert!(reply.starts_with("HTTP/1.1 431"), "{reply}");
    }

    #[test]
    fn excessive_header_bytes_get_431() {
        let server = start();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // A handful of huge headers: few in count, many in bytes.
        let big = "y".repeat(3000);
        let request =
            format!("GET /h HTTP/1.1\r\nHost: x\r\nX-A: {big}\r\nX-B: {big}\r\nX-C: {big}\r\n\r\n");
        let reply = roundtrip(&mut stream, &request);
        assert!(reply.starts_with("HTTP/1.1 431"), "{reply}");
    }

    #[test]
    fn slow_header_trickle_gets_408() {
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::new(Echo),
            ServerConfig {
                workers: 1,
                request_deadline: Duration::from_millis(150),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"GET /slow HTTP/1.1\r\nHost: x\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(300));
        stream.write_all(b"X-Late: 1\r\n\r\n").unwrap();
        let reply = read_reply(&mut stream);
        assert!(reply.starts_with("HTTP/1.1 408"), "{reply}");
    }

    #[test]
    fn saturation_sheds_load_with_503_and_retry_after() {
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::new(SlowEcho(Duration::from_millis(600))),
            ServerConfig {
                workers: 1,
                queue_depth: 1,
                retry_after_secs: 7,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        // First connection occupies the only worker…
        let mut busy = TcpStream::connect(addr).unwrap();
        busy.write_all(b"GET /1 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // …second fills the queue…
        let mut queued = TcpStream::connect(addr).unwrap();
        queued
            .write_all(b"GET /2 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // …third is shed immediately with 503 + Retry-After.
        let mut shed = TcpStream::connect(addr).unwrap();
        let reply = read_reply(&mut shed);
        assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
        assert!(reply.contains("Retry-After: 7"), "{reply}");
        // The occupied and queued connections still complete normally.
        assert!(read_reply(&mut busy).contains("\"path\":\"/1\""));
        assert!(read_reply(&mut queued).contains("\"path\":\"/2\""));
    }

    #[test]
    fn idle_keep_alive_connections_give_their_workers_back() {
        let server = start();
        let addr = server.local_addr();
        // One idle keep-alive connection per worker: each was served once
        // and its worker now waits for its next request.
        let _idle: Vec<TcpStream> = (0..2)
            .map(|i| {
                let mut stream = TcpStream::connect(addr).unwrap();
                let reply = roundtrip(
                    &mut stream,
                    &format!("GET /idle{i} HTTP/1.1\r\nHost: x\r\n\r\n"),
                );
                assert!(reply.contains("Connection: keep-alive"), "{reply}");
                stream
            })
            .collect();
        let started = Instant::now();
        let mut fresh = TcpStream::connect(addr).unwrap();
        let reply = roundtrip(&mut fresh, "GET /fresh HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(reply.contains("\"path\":\"/fresh\""), "{reply}");
        // Well under the 30 s read timeout the idle connections would
        // otherwise hold their workers for.
        let waited = started.elapsed();
        assert!(waited < Duration::from_secs(5), "waited {waited:?}");
    }

    #[test]
    fn graceful_shutdown_drains_in_flight_requests() {
        let mut server = Server::bind(
            "127.0.0.1:0",
            Arc::new(SlowEcho(Duration::from_millis(300))),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /drain HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(server.in_flight(), 1);
        // Drain: the in-flight request completes, its response closes the
        // connection, and the drain reports success.
        assert!(server.shutdown_graceful(Duration::from_secs(5)));
        let reply = read_reply(&mut stream);
        assert!(reply.contains("\"path\":\"/drain\""), "{reply}");
        assert!(reply.contains("Connection: close"), "{reply}");
        assert_eq!(server.in_flight(), 0);
    }

    #[test]
    fn shutdown_is_idempotent_and_frees_the_port() {
        let mut server = start();
        let addr = server.local_addr();
        server.shutdown();
        server.shutdown();
        drop(server);
        // The port is free again.
        let _rebound = TcpListener::bind(addr).unwrap();
    }
}
