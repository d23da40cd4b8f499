//! A minimal hand-rolled HTTP/1.1 server.
//!
//! [`HttpServer`] is the workspace's one HTTP front end: a blocking
//! [`TcpListener`] served by a **bounded acceptor pool** — `N` OS threads
//! each looping `accept → parse → handle → respond → close`, so concurrency
//! is bounded by the pool size with no per-connection spawning and no
//! runtime dependency. Requests are parsed into a [`Request`] (method,
//! path, query pairs, body bounded by `Content-Length`), dispatched through
//! a [`Handler`], and answered with `Connection: close` (curl, Prometheus
//! scrapers, and the facade-server clients all speak this fine).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Longest request head accepted before the connection is dropped; a
/// request line plus ordinary client headers fits comfortably.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Largest request body accepted (a `JobSpec` submission is well under a
/// kilobyte; anything bigger than this is not one of ours).
const MAX_BODY_BYTES: usize = 256 * 1024;

/// Per-operation socket timeout (the first read, every write) so a stalled
/// peer cannot wedge an acceptor thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// One request, one deadline: head and body must both have arrived this long
/// after the acceptor started reading. `IO_TIMEOUT` alone bounds each read,
/// not their sum — a peer dribbling one byte every few seconds would hold an
/// acceptor for the whole `MAX_HEAD_BYTES` + `MAX_BODY_BYTES`, and a handful
/// of them wedge the bounded pool.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// A parsed HTTP request: what a [`Handler`] dispatches on.
#[derive(Debug, Clone)]
pub struct Request {
    /// The method verb, uppercased as sent (`GET`, `POST`, ...).
    pub method: String,
    /// The path with the query string stripped (`/jobs/3`).
    pub path: String,
    /// Decoded query pairs in document order (`?k=10&tag=x` →
    /// `[("k","10"),("tag","x")]`); bare keys get an empty value.
    pub query: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// An HTTP response a [`Handler`] returns.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (`200`, `404`, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// Reason phrase for the status line.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            429 => "Too Many Requests",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    /// A `200 OK` with a plain-text body.
    pub fn text(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// A JSON response with the given status code.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A `404 Not Found` with a short plain-text hint.
    pub fn not_found(hint: &str) -> Response {
        Response {
            status: 404,
            content_type: "text/plain; charset=utf-8",
            body: format!("not found; {hint}\n"),
        }
    }

    /// A `405 Method Not Allowed`.
    pub fn method_not_allowed() -> Response {
        Response {
            status: 405,
            content_type: "text/plain; charset=utf-8",
            body: "method not allowed\n".to_string(),
        }
    }

    /// A `400 Bad Request` with a JSON error body.
    pub fn bad_request(message: &str) -> Response {
        Response::json(
            400,
            format!("{{\"error\": \"{}\"}}", crate::json::escape(message)),
        )
    }
}

/// Dispatches parsed requests to application logic. Implementations are
/// shared across the acceptor pool, so they must be `Send + Sync`; state
/// goes behind the usual interior-mutability primitives.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for one request.
    fn handle(&self, request: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, request: &Request) -> Response {
        self(request)
    }
}

/// A bound-but-not-yet-serving HTTP server. Drive it with
/// [`serve_one`](HttpServer::serve_one) (tests, smoke runs) or promote it
/// to a persistent concurrent server with [`start`](HttpServer::start).
///
/// A Prometheus exposition endpoint is one closure over a
/// [`Registry`](crate::Registry):
///
/// ```
/// use metrics::{HttpServer, Registry, Request, Response};
/// use std::sync::Arc;
///
/// let registry = Arc::new(Registry::new());
/// registry.counter("demo_requests_total").inc();
/// let scraped = Arc::clone(&registry);
/// let server = HttpServer::bind(
///     "127.0.0.1:0",
///     Arc::new(move |req: &Request| match (req.method.as_str(), req.path.as_str()) {
///         ("GET", "/metrics") => Response::text(scraped.render_prometheus()),
///         _ => Response::not_found("try /metrics"),
///     }),
/// )
/// .unwrap();
/// let addr = server.local_addr();
/// // Persistent mode: a bounded acceptor pool serves scrape after scrape.
/// let handle = server.start(2);
/// for _ in 0..3 {
///     use std::io::{Read, Write};
///     let mut s = std::net::TcpStream::connect(addr).unwrap();
///     s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
///     let mut body = String::new();
///     s.read_to_string(&mut body).unwrap();
///     assert!(body.starts_with("HTTP/1.1 200 OK"));
///     assert!(body.contains("demo_requests_total"));
/// }
/// assert!(handle.requests_served() >= 3);
/// handle.shutdown();
/// ```
pub struct HttpServer {
    listener: TcpListener,
    handler: Arc<dyn Handler>,
    local_addr: SocketAddr,
}

impl HttpServer {
    /// Binds `addr` (port 0 picks a free one) and routes every request
    /// through `handler`.
    pub fn bind(addr: &str, handler: Arc<dyn Handler>) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(HttpServer {
            listener,
            handler,
            local_addr,
        })
    }

    /// The bound address — useful when binding port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Accepts exactly one connection, answers exactly one request, closes
    /// the connection. I/O errors on the *connection* are returned but are
    /// safe to ignore in a serving loop (the listener itself is untouched);
    /// errors from `accept` generally are not.
    pub fn serve_one(&self) -> std::io::Result<()> {
        let (stream, _peer) = self.listener.accept()?;
        answer(stream, self.handler.as_ref(), &AtomicU64::new(0))
    }

    /// Starts the persistent server: `acceptors` threads (at least 1) share
    /// the listener, each handling one connection at a time. Returns a
    /// handle for observing traffic and shutting the pool down gracefully.
    pub fn start(self, acceptors: usize) -> HttpServerHandle {
        let acceptors = acceptors.max(1);
        let shutdown = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let threads = (0..acceptors)
            .map(|i| {
                let listener = self
                    .listener
                    .try_clone()
                    .expect("listener handles are clonable");
                let handler = Arc::clone(&self.handler);
                let shutdown = Arc::clone(&shutdown);
                let served = Arc::clone(&served);
                std::thread::Builder::new()
                    .name(format!("http-acceptor-{i}"))
                    .spawn(move || {
                        loop {
                            let conn = listener.accept();
                            if shutdown.load(Ordering::Acquire) {
                                return;
                            }
                            match conn {
                                // Connection-level errors are the peer's
                                // problem; accept-level errors on a live
                                // listener are transient (EMFILE, ECONNABORTED)
                                // and retrying is the only useful move. A
                                // panic while parsing or handling one request
                                // must not take the acceptor thread with it —
                                // the pool is bounded, so every lost thread
                                // permanently shrinks the front end.
                                Ok((stream, _peer)) => {
                                    let outcome =
                                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                            || answer(stream, handler.as_ref(), &served),
                                        ));
                                    if outcome.is_err() {
                                        eprintln!(
                                            "http-acceptor-{i}: request handler panicked; \
                                             connection dropped"
                                        );
                                    }
                                }
                                Err(_) => continue,
                            }
                        }
                    })
                    .expect("spawn http acceptor")
            })
            .collect();
        HttpServerHandle {
            local_addr: self.local_addr,
            shutdown,
            served,
            threads,
        }
    }
}

/// Handle to a running [`HttpServer`]: address, traffic counter, graceful
/// shutdown. Dropping the handle without calling
/// [`shutdown`](HttpServerHandle::shutdown) leaves the acceptor threads
/// serving for the life of the process (what a daemon wants).
pub struct HttpServerHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl HttpServerHandle {
    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests fully answered so far (across all acceptors).
    pub fn requests_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: flags the pool, unblocks every acceptor stuck in
    /// `accept` by self-connecting, and joins the threads. In-flight
    /// requests finish; no new connections are accepted afterwards.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::Release);
        for _ in 0..self.threads.len() {
            // A wake-up connection per acceptor; failure means the listener
            // is already dead, which also unblocks accept.
            let _ = TcpStream::connect(self.local_addr);
        }
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Parses one request off `stream`, dispatches it, writes the response.
fn answer(mut stream: TcpStream, handler: &dyn Handler, served: &AtomicU64) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let response = match read_request(&mut stream) {
        Ok(Some(request)) => handler.handle(&request),
        Ok(None) => return Ok(()), // empty connection (shutdown wake-up)
        Err(RequestError::Malformed) => Response::bad_request("malformed request"),
        Err(RequestError::Io(e)) => return Err(e),
    };
    let wire = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len(),
        response.body,
    );
    stream.write_all(wire.as_bytes())?;
    stream.flush()?;
    served.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

enum RequestError {
    Malformed,
    Io(std::io::Error),
}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// Arms the read timeout with what is left until `deadline`; a spent
/// deadline makes the request malformed (too slow), answered `400`.
fn arm_remaining(stream: &TcpStream, deadline: Instant) -> Result<(), RequestError> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(RequestError::Malformed);
    }
    stream.set_read_timeout(Some(left))?;
    Ok(())
}

/// Reads and parses one request. `Ok(None)` means the peer connected and
/// sent nothing (the shutdown self-connect does exactly that).
///
/// The first read runs under the `IO_TIMEOUT` that `answer` set (a request
/// that arrives in one segment costs no extra syscall); every further read
/// is armed with the time left until `REQUEST_DEADLINE`.
fn read_request(stream: &mut TcpStream) -> Result<Option<Request>, RequestError> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    let head_end = loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(RequestError::Malformed);
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(RequestError::Malformed);
        }
        arm_remaining(stream, deadline)?;
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.lines();
    let request_line = lines.next().ok_or(RequestError::Malformed)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(RequestError::Malformed)?.to_string();
    let target = parts.next().ok_or(RequestError::Malformed)?;
    let (path, query) = parse_target(target);

    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| RequestError::Malformed)?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::Malformed);
    }
    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        arm_remaining(stream, deadline)?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(RequestError::Malformed);
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Some(Request {
        method,
        path,
        query,
        body,
    }))
}

/// Splits a request target into path and decoded query pairs. Only `%xx`
/// and `+` decoding — enough for the query shapes our endpoints define.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, query)) => {
            let pairs = query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(pair), String::new()),
                })
                .collect();
            (path.to_string(), pairs)
        }
    }
}

fn percent_decode(s: &str) -> String {
    // Work on raw bytes throughout: slicing the &str by byte offsets would
    // panic on a '%' followed by a multi-byte UTF-8 character (the offset
    // may land inside it, off a char boundary).
    let hex_val = |b: u8| match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    };
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 3 <= bytes.len() => {
                match hex_val(bytes[i + 1]).zip(hex_val(bytes[i + 2])) {
                    Some((hi, lo)) => {
                        out.push(hi << 4 | lo);
                        i += 3;
                    }
                    None => {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use std::io::{ErrorKind, Read, Write};

    /// The Prometheus endpoint most tests drive: `GET /metrics` renders
    /// `registry` at response time, so each scrape sees current values.
    fn metrics_server(registry: Arc<Registry>) -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0",
            Arc::new(
                move |req: &Request| match (req.method.as_str(), req.path.as_str()) {
                    ("GET", "/metrics") => Response {
                        status: 200,
                        content_type: "text/plain; version=0.0.4; charset=utf-8",
                        body: registry.render_prometheus(),
                    },
                    ("GET", _) => Response::not_found("try /metrics"),
                    _ => Response::method_not_allowed(),
                },
            ),
        )
        .expect("bind a free port")
    }

    fn request(addr: SocketAddr, raw: &str) -> std::thread::JoinHandle<String> {
        let raw = raw.to_string();
        std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(raw.as_bytes()).expect("send");
            let mut response = String::new();
            s.read_to_string(&mut response).expect("receive");
            response
        })
    }

    #[test]
    fn serves_prometheus_text_on_get_metrics() {
        let registry = Arc::new(Registry::new());
        registry.counter("http_test_total").add(3);
        registry.gauge("http_test_gauge").set(7);
        let server = metrics_server(Arc::clone(&registry));
        let client = request(
            server.local_addr(),
            "GET /metrics HTTP/1.1\r\nHost: t\r\nUser-Agent: test\r\n\r\n",
        );
        server.serve_one().unwrap();
        let response = client.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"), "{response}");
        assert!(response.contains("http_test_total 3"), "{response}");
        assert!(response.contains("http_test_gauge 7"), "{response}");
        // Content-Length matches the body exactly.
        let (head, body) = response.split_once("\r\n\r\n").expect("head/body split");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("length header")
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
    }

    #[test]
    fn each_scrape_sees_current_values() {
        let registry = Arc::new(Registry::new());
        let counter = registry.counter("http_live_total");
        let server = metrics_server(Arc::clone(&registry));
        counter.inc();
        let first = request(server.local_addr(), "GET /metrics HTTP/1.1\r\n\r\n");
        server.serve_one().unwrap();
        assert!(first.join().unwrap().contains("http_live_total 1"));
        counter.inc();
        let second = request(server.local_addr(), "GET /metrics HTTP/1.1\r\n\r\n");
        server.serve_one().unwrap();
        assert!(second.join().unwrap().contains("http_live_total 2"));
    }

    #[test]
    fn unknown_paths_get_404_bad_methods_405_and_malformed_lines_400() {
        let server = metrics_server(Arc::new(Registry::new()));
        let client = request(server.local_addr(), "GET /other HTTP/1.1\r\n\r\n");
        server.serve_one().unwrap();
        assert!(client.join().unwrap().starts_with("HTTP/1.1 404"));
        let client = request(server.local_addr(), "POST /metrics HTTP/1.1\r\n\r\n");
        server.serve_one().unwrap();
        assert!(client.join().unwrap().starts_with("HTTP/1.1 405"));
        // A request line without a target never reaches the handler.
        let client = request(server.local_addr(), "GET\r\n\r\n");
        server.serve_one().unwrap();
        assert!(client.join().unwrap().starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn query_strings_are_ignored() {
        let registry = Arc::new(Registry::new());
        registry.counter("http_query_total").inc();
        let server = metrics_server(registry);
        let client = request(server.local_addr(), "GET /metrics?ts=1 HTTP/1.1\r\n\r\n");
        server.serve_one().unwrap();
        let response = client.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("http_query_total"), "{response}");
    }

    #[test]
    fn persistent_server_answers_many_requests_then_shuts_down_cleanly() {
        // The satellite fix in one test: more than one request per bind
        // (the old serve_one-only server answered exactly one), served
        // concurrently, then a graceful shutdown that leaves no thread
        // behind and refuses new work.
        let registry = Arc::new(Registry::new());
        registry.counter("http_many_total").add(9);
        let server = metrics_server(registry);
        let addr = server.local_addr();
        let handle = server.start(3);
        let clients: Vec<_> = (0..16)
            .map(|_| request(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"))
            .collect();
        for c in clients {
            let response = c.join().unwrap();
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
            assert!(response.contains("http_many_total 9"), "{response}");
        }
        assert!(handle.requests_served() >= 16);
        handle.shutdown();
        // After shutdown the port no longer answers: either the connect
        // fails outright or the accepted-then-ignored connection yields an
        // empty response from a dead listener backlog.
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.write_all(b"GET /metrics HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
            let _ = s.read_to_string(&mut out);
            assert!(out.is_empty(), "a shut-down server must not answer: {out}");
        }
    }

    #[test]
    fn percent_decode_handles_multibyte_and_malformed_escapes() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("%e2%82%ac"), "\u{20ac}");
        // '%' directly followed by a multi-byte UTF-8 character: the old
        // &str-slicing implementation panicked off a char boundary here.
        assert_eq!(percent_decode("%\u{20ac}"), "%\u{20ac}");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%2"), "%2");
    }

    #[test]
    fn bad_escapes_in_the_query_do_not_kill_the_acceptor() {
        let registry = Arc::new(Registry::new());
        registry.counter("http_survive_total").inc();
        let server = metrics_server(registry);
        let addr = server.local_addr();
        // One acceptor: if the bad request wedged it, the follow-up would
        // never be answered.
        let handle = server.start(1);
        let bad = request(addr, "GET /metrics?a=%\u{20ac} HTTP/1.1\r\nHost: t\r\n\r\n");
        let _ = bad.join().unwrap();
        let good = request(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .join()
            .unwrap();
        assert!(good.starts_with("HTTP/1.1 200 OK"), "{good}");
        assert!(good.contains("http_survive_total 1"), "{good}");
        handle.shutdown();
    }

    #[test]
    fn a_dribbling_client_is_cut_off_at_the_request_deadline() {
        let registry = Arc::new(Registry::new());
        registry.counter("http_deadline_total").inc();
        let server = metrics_server(registry);
        let addr = server.local_addr();
        // One acceptor: while the slow peer holds it nobody else is served.
        let handle = server.start(1);
        let started = Instant::now();
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        slow.write_all(b"GET /metrics HTTP/1.1\r\nX-Slow: ")
            .unwrap();
        let mut sink = [0u8; 256];
        // One header byte per ~100 ms: every server-side read succeeds far
        // inside IO_TIMEOUT, so only the whole-request deadline ends this
        // (the head limit is 80x further away at this rate).
        let cut_off = loop {
            if slow.write_all(b"x").is_err() {
                break started.elapsed();
            }
            match slow.read(&mut sink).map_err(|e| e.kind()) {
                // Our own 100 ms read timeout: the server is still listening.
                Err(ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                // A 400, EOF or reset: the server let go of us.
                _ => break started.elapsed(),
            }
            assert!(
                started.elapsed() < REQUEST_DEADLINE + Duration::from_secs(3),
                "a dribbling peer must not outlive the request deadline"
            );
        };
        assert!(cut_off >= REQUEST_DEADLINE, "cut off early: {cut_off:?}");
        let good = request(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .join()
            .unwrap();
        assert!(good.starts_with("HTTP/1.1 200 OK"), "{good}");
        assert!(good.contains("http_deadline_total 1"), "{good}");
        handle.shutdown();
    }

    #[test]
    fn custom_handlers_route_method_path_query_and_body() {
        struct Echo;
        impl Handler for Echo {
            fn handle(&self, request: &Request) -> Response {
                match (request.method.as_str(), request.path.as_str()) {
                    ("POST", "/echo") => Response::json(
                        202,
                        format!(
                            "{{\"got\": \"{}\", \"k\": \"{}\"}}",
                            crate::json::escape(&String::from_utf8_lossy(&request.body)),
                            request.query_value("k").unwrap_or("-"),
                        ),
                    ),
                    _ => Response::not_found("try POST /echo"),
                }
            }
        }
        let server = HttpServer::bind("127.0.0.1:0", Arc::new(Echo)).unwrap();
        let addr = server.local_addr();
        let handle = server.start(2);
        let body = "hello body";
        let client = request(
            addr,
            &format!(
                "POST /echo?k=a%20b+c HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            ),
        );
        let response = client.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 202 Accepted"), "{response}");
        assert!(response.contains("\"got\": \"hello body\""), "{response}");
        assert!(response.contains("\"k\": \"a b c\""), "{response}");
        let miss = request(addr, "GET /nope HTTP/1.1\r\n\r\n").join().unwrap();
        assert!(miss.starts_with("HTTP/1.1 404"), "{miss}");
        handle.shutdown();
    }
}
