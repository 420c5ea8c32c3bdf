//! Differential tests for the epoll serving tier (`crates/aio` +
//! `aio_server`): the threaded listener is the oracle — both front
//! ends sit on the same shared HTTP parser and the same
//! `Service`/route paths, so deterministic endpoints must come back
//! **byte-identical** across the two. On top of that, the epoll-only
//! behaviours: keep-alive, pipelining, chunked streaming, slow-client
//! deadlines, the connection cap, and graceful drain.
//!
//! Every test gates at runtime on `IoMode::epoll_supported()` so the
//! suite stays green on builds without the `aio-epoll` feature (CI's
//! `--no-default-features` check) and on non-Linux hosts.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{fig1_text, start_server_with};
use timed_petri::aio::http1::{Response, ResponseParser};
use timed_petri::obs::validate::validate;
use timed_petri::service::{AioConfig, IoMode, ServerHandle, Service, ServiceConfig};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The sweep spec fixture with the net text embedded in-body, the
/// shape `POST /sweep` takes (same splice as `tests/metrics.rs`).
fn sweep_body() -> String {
    let spec = fixture("sweep_spec.json");
    let without_brace = spec
        .trim_end()
        .strip_suffix('}')
        .unwrap()
        .trim_end()
        .to_string();
    format!(
        "{without_brace}, \"net\": {}}}",
        timed_petri::service::json::escape(&fig1_text())
    )
}

fn epoll_server(aio: AioConfig) -> (ServerHandle, SocketAddr, Arc<Service>) {
    start_server_with(ServiceConfig {
        io: IoMode::Epoll,
        aio,
        ..ServiceConfig::default()
    })
}

/// One `Connection: close` exchange, returning the **raw response
/// bytes** (status line, headers, body) — the byte-identity probe.
fn raw_close_exchange(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request).expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read to EOF");
    raw
}

fn close_request(method: &str, target: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A blocking keep-alive client over the shared response parser.
struct KeepAlive {
    stream: TcpStream,
    parser: ResponseParser,
}

impl KeepAlive {
    fn connect(addr: SocketAddr) -> KeepAlive {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        KeepAlive {
            stream,
            parser: ResponseParser::new(),
        }
    }

    fn send(&mut self, method: &str, target: &str, body: &str) {
        let req = format!(
            "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(req.as_bytes()).expect("send");
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send raw");
    }

    fn read_response(&mut self) -> Response {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.parser.poll().expect("parse response") {
                Some(resp) if resp.status / 100 == 1 => continue,
                Some(resp) => return resp,
                None => {}
            }
            let n = self.stream.read(&mut chunk).expect("read");
            assert!(n > 0, "connection closed mid-response");
            self.parser.feed(&chunk[..n]);
        }
    }
}

/// Wait (bounded) for the reactor's open-connection gauge to settle
/// at `want` — client-side socket drops reach the server a beat later.
fn await_open(service: &Service, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if service.connections().scalars().open == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "open gauge stuck at {} (want {want})",
            service.connections().scalars().open
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

// ---------------------------------------------------------------------
// Differential: epoll vs threaded byte identity
// ---------------------------------------------------------------------

#[test]
fn epoll_serves_goldens_byte_identical_to_threaded() {
    if !IoMode::epoll_supported() {
        return;
    }
    let (threaded, taddr, _) = start_server_with(ServiceConfig::default());
    let (epoll, eaddr, _) = epoll_server(AioConfig::default());

    let fig1 = fig1_text();
    let exchanges: Vec<Vec<u8>> = vec![
        close_request("POST", "/analyze", &fig1),
        close_request("POST", "/graph", &fig1),
        close_request("POST", "/correctness", &fig1),
        close_request("POST", "/invariants", &fig1),
        close_request("POST", "/sweep", &sweep_body()),
        close_request("POST", "/sweep", &fixture("sweep_spec.json")),
        close_request("POST", "/analyze", "not a petri net"),
        close_request("GET", "/no/such/route", ""),
        // Parser-level rejections share error strings via the common
        // parser module, so even malformed input must match bytewise.
        b"BOGUS\r\n\r\n".to_vec(),
        b"GET /analyze HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 7\r\nConnection: close\r\n\r\nabcd".to_vec(),
    ];
    for request in &exchanges {
        let from_threaded = raw_close_exchange(taddr, request);
        let from_epoll = raw_close_exchange(eaddr, request);
        assert_eq!(
            from_threaded,
            from_epoll,
            "listener divergence for request:\n{}\nthreaded:\n{}\nepoll:\n{}",
            String::from_utf8_lossy(request),
            String::from_utf8_lossy(&from_threaded),
            String::from_utf8_lossy(&from_epoll),
        );
    }

    threaded.shutdown();
    epoll.shutdown();
}

// ---------------------------------------------------------------------
// Keep-alive and pipelining
// ---------------------------------------------------------------------

#[test]
fn keep_alive_pipelined_requests_share_one_connection() {
    if !IoMode::epoll_supported() {
        return;
    }
    let (handle, addr, service) = epoll_server(AioConfig::default());

    let mut client = KeepAlive::connect(addr);
    // Two requests in a single write: the parser must peel them off
    // the same buffer and the responses must come back in order.
    let fig1 = fig1_text();
    let mut pipelined = Vec::new();
    pipelined.extend_from_slice(
        &format!(
            "POST /analyze HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{fig1}",
            fig1.len()
        )
        .into_bytes(),
    );
    pipelined.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    client.send_raw(&pipelined);

    let first = client.read_response();
    assert_eq!(first.status, 200);
    assert!(!first.close, "keep-alive response must not close");
    assert!(
        String::from_utf8_lossy(&first.body).contains("\"kind\":\"analyze\""),
        "responses out of order: first must be the analyze reply"
    );

    let second = client.read_response();
    assert_eq!(second.status, 200);
    assert!(!second.close);

    // The connection is still usable afterwards — proof nothing closed.
    client.send("GET", "/healthz", "");
    assert_eq!(client.read_response().status, 200);

    assert_eq!(service.connections().scalars().accepted, 1);
    drop(client);
    handle.shutdown();
}

#[test]
fn max_requests_per_conn_sends_connection_close() {
    if !IoMode::epoll_supported() {
        return;
    }
    let (handle, addr, _) = epoll_server(AioConfig {
        max_requests_per_conn: 2,
        ..AioConfig::default()
    });

    let mut client = KeepAlive::connect(addr);
    client.send("GET", "/healthz", "");
    let first = client.read_response();
    assert!(!first.close, "first response still under the cap");

    client.send("GET", "/healthz", "");
    let second = client.read_response();
    assert!(second.close, "request cap must force Connection: close");

    // And the server actually hangs up.
    let mut rest = Vec::new();
    client.stream.read_to_end(&mut rest).expect("EOF after cap");
    assert!(rest.is_empty());
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Streaming writes
// ---------------------------------------------------------------------

#[test]
fn streamed_sweep_reassembles_to_the_threaded_body() {
    if !IoMode::epoll_supported() {
        return;
    }
    // Force the chunked path: the golden sweep body (~2 KB) is far
    // above a 256-byte threshold, and a 64-byte frame size forces many
    // partial-write round trips through the bounded out-buffer.
    let (epoll, eaddr, _) = epoll_server(AioConfig {
        stream_threshold: 256,
        write_chunk: 64,
        ..AioConfig::default()
    });
    let (threaded, taddr, _) = start_server_with(ServiceConfig::default());

    let spec = sweep_body();
    let mut client = KeepAlive::connect(eaddr);
    client.send("POST", "/sweep", &spec);
    let streamed = client.read_response();
    assert_eq!(streamed.status, 200);
    assert!(streamed.chunked, "body over threshold must stream chunked");
    assert!(!streamed.close, "streaming must not cost keep-alive");

    let raw = raw_close_exchange(taddr, &close_request("POST", "/sweep", &spec));
    let text = String::from_utf8(raw).unwrap();
    let oracle_body = &text[text.find("\r\n\r\n").unwrap() + 4..];
    assert_eq!(
        String::from_utf8(streamed.body).unwrap(),
        oracle_body,
        "de-chunked stream must reassemble to the threaded body"
    );

    // The same connection serves a follow-up request after streaming.
    client.send("GET", "/healthz", "");
    assert_eq!(client.read_response().status, 200);

    threaded.shutdown();
    epoll.shutdown();
}

// ---------------------------------------------------------------------
// Admission control and deadlines
// ---------------------------------------------------------------------

#[test]
fn slow_loris_is_cut_by_the_read_deadline() {
    if !IoMode::epoll_supported() {
        return;
    }
    let (handle, addr, service) = epoll_server(AioConfig {
        read_deadline_ms: 200,
        ..AioConfig::default()
    });

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A request that never finishes: partial request line, then silence.
    stream.write_all(b"GET /anal").expect("partial send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 400 "),
        "slow client must get 400, got:\n{text}"
    );
    assert!(text.contains("request read deadline exceeded"), "{text}");
    assert!(service.connections().scalars().timeouts >= 1);
    handle.shutdown();
}

#[test]
fn connection_cap_rejects_overflow_with_503() {
    if !IoMode::epoll_supported() {
        return;
    }
    let (handle, addr, service) = epoll_server(AioConfig {
        max_connections: 2,
        ..AioConfig::default()
    });

    // Fill the cap with two live keep-alive connections; completing a
    // request on each proves both are registered with the reactor.
    let mut first = KeepAlive::connect(addr);
    first.send("GET", "/healthz", "");
    assert_eq!(first.read_response().status, 200);
    let mut second = KeepAlive::connect(addr);
    second.send("GET", "/healthz", "");
    assert_eq!(second.read_response().status, 200);

    // The third is turned away at accept, before any request bytes.
    let mut overflow = TcpStream::connect(addr).expect("connect");
    overflow
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = Vec::new();
    overflow.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 503 "), "{text}");
    assert!(text.contains("connection limit reached"), "{text}");
    let scalars = service.connections().scalars();
    assert_eq!(scalars.rejected, 1);
    assert_eq!(scalars.accepted, 2, "rejects must not count as accepts");

    // Freeing a slot readmits new connections.
    drop(first);
    await_open(&service, 1);
    let mut third = KeepAlive::connect(addr);
    third.send("GET", "/healthz", "");
    assert_eq!(third.read_response().status, 200);
    handle.shutdown();
}

#[test]
fn shutdown_drains_idle_connections() {
    if !IoMode::epoll_supported() {
        return;
    }
    let (handle, addr, service) = epoll_server(AioConfig::default());

    let mut idle = KeepAlive::connect(addr);
    idle.send("GET", "/healthz", "");
    assert_eq!(idle.read_response().status, 200);

    handle.shutdown();
    let scalars = service.connections().scalars();
    assert_eq!(scalars.open, 0, "drain must close every connection");
    assert!(scalars.drained >= 1, "idle connection counts as drained");

    // The client observes a clean EOF, not a mid-response cut.
    let mut rest = Vec::new();
    idle.stream.read_to_end(&mut rest).expect("EOF at drain");
    assert!(rest.is_empty());
}

/// A `tpn serve` child process, killed however the test ends. Its
/// stdout stays open for the process lifetime (the banner is two
/// lines; closing the pipe early would break the second print).
struct Daemon {
    child: std::process::Child,
    _stdout: std::io::BufReader<std::process::ChildStdout>,
}

impl Daemon {
    /// Run `shell` (which must `exec "$0" serve 127.0.0.1:0`) with the
    /// `tpn` binary as `$0`; returns the daemon and its bound address.
    fn spawn(shell: &str) -> (Daemon, SocketAddr) {
        let mut child = std::process::Command::new("sh")
            .args(["-c", shell, env!("CARGO_BIN_EXE_tpn")])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn tpn serve");
        let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
        let mut banner = String::new();
        std::io::BufRead::read_line(&mut stdout, &mut banner).unwrap();
        assert!(banner.contains("(epoll listener)"), "{banner}");
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("no address in {banner:?}"));
        let daemon = Daemon {
            child,
            _stdout: stdout,
        };
        (daemon, addr)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Write one `GET /healthz` request on `stream`.
fn send_healthz(stream: &mut TcpStream, connection: &str) {
    let request = format!("GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: {connection}\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send");
}

/// Wait up to `patience` for a response head on `stream`; true when a
/// `200` arrived.
fn answered(stream: &mut TcpStream, patience: Duration) -> bool {
    let deadline = Instant::now() + patience;
    let mut got = Vec::new();
    let mut buf = [0u8; 512];
    while !got.windows(4).any(|w| w == b"\r\n\r\n") {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        stream.set_read_timeout(Some(left)).unwrap();
        match stream.read(&mut buf) {
            Ok(n) if n > 0 => got.extend_from_slice(&buf[..n]),
            _ => return false,
        }
    }
    got.starts_with(b"HTTP/1.1 200")
}

/// Descriptor exhaustion must not strand the kernel backlog: after an
/// `accept` fails with EMFILE the edge-triggered listener reports the
/// queued connections no more, so the reactor has to retry on its
/// own once descriptors free up.
#[test]
fn backlog_is_served_after_descriptor_exhaustion() {
    if !IoMode::epoll_supported() {
        return;
    }
    let (_daemon, addr) = Daemon::spawn("ulimit -n 48; exec \"$0\" serve 127.0.0.1:0");

    // Fill the daemon's descriptor table with keep-alive clients until
    // one goes unanswered: that one, and every later one, waits in the
    // kernel backlog with its request already written.
    let mut admitted = Vec::new();
    let mut backlog = Vec::new();
    while backlog.is_empty() {
        assert!(admitted.len() < 64, "the descriptor limit never bit");
        let mut stream = TcpStream::connect(addr).expect("connect");
        send_healthz(&mut stream, "keep-alive");
        if answered(&mut stream, Duration::from_millis(500)) {
            admitted.push(stream);
        } else {
            backlog.push(stream);
        }
    }
    for _ in 0..3 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        send_healthz(&mut stream, "close");
        backlog.push(stream);
    }

    // Free one descriptor per backlogged request — an admitted client
    // asks for `Connection: close`, so the reactor closes its socket
    // after answering — then wait for that backlogged request. No new
    // connection arrives to raise a fresh listener edge, so only the
    // reactor's own retry can pick the backlog up.
    for (i, stream) in backlog.iter_mut().enumerate() {
        let mut client = admitted.pop().expect("more admitted than backlogged");
        send_healthz(&mut client, "close");
        assert!(answered(&mut client, Duration::from_secs(2)));
        assert!(
            answered(stream, Duration::from_secs(2)),
            "backlogged request {i} unanswered 2 s after a descriptor freed"
        );
    }
}

/// The `.tpn` text of a net whose `/analyze` panics: the 24-hop lossy
/// chain's traversal rates overflow `i128` in the rate solve.
fn overflowing_chain() -> String {
    use timed_petri::protocols::families::lossy_chain;
    use timed_petri::rational::Rational;
    lossy_chain(24, Rational::new(7, 100), Rational::from_int(3))
        .0
        .to_tpn()
}

/// The threaded listener answers a panicking handler with a 500 in the
/// route family's error shape, not an empty reply.
#[test]
fn threaded_listener_answers_panics_in_the_route_family_shape() {
    let (handle, addr, service) = start_server_with(ServiceConfig::default());
    let net = overflowing_chain();
    let (status, body) = common::http(addr, "POST", "/analyze", &net);
    assert_eq!(status, 500, "{body}");
    assert!(body.starts_with(r#"{"error":"internal error"#), "{body}");
    let envelope = format!(
        r#"{{"net":{},"requests":[{{"kind":"analyze"}}]}}"#,
        timed_petri::service::json::escape(&net)
    );
    let (status, body) = common::http(addr, "POST", "/v1", &envelope);
    assert_eq!(status, 500, "{body}");
    assert!(
        body.starts_with(r#"{"code":"internal","message":"#),
        "{body}"
    );
    assert!(service.stats_json().contains(r#""panics":2,"#));
    // The workers that caught the panics still serve.
    let (status, _) = common::http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    handle.shutdown();
}

/// A panicking handler must still answer its connection and free its
/// in-flight slot. The 24-hop lossy chain overflows `i128` in the rate
/// solve, whose rational arithmetic panics; with an in-flight budget
/// of 2, two stranded jobs would leave the daemon answering nothing.
#[test]
fn panicking_requests_are_answered_and_free_their_slots() {
    if !IoMode::epoll_supported() {
        return;
    }
    let (_daemon, addr) = Daemon::spawn("exec \"$0\" serve 127.0.0.1:0 --inflight 2");
    let request = close_request("POST", "/analyze", &overflowing_chain());
    let clients: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(&request).expect("send");
            stream
        })
        .collect();
    // A request that coalesced onto a panicking leader gets that
    // leader's error instead; every request gets some status line.
    let mut panicked = 0;
    for (i, mut stream) in clients.into_iter().enumerate() {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        let text = String::from_utf8_lossy(&raw);
        assert!(
            text.starts_with("HTTP/1.1 "),
            "request {i} got no status line: {text:?}"
        );
        if text.starts_with("HTTP/1.1 500 ") {
            assert!(text.contains(r#"{"error":"internal error"#), "{text}");
            panicked += 1;
        }
    }
    assert!(panicked >= 1, "no request reached the overflowing solve");
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_healthz(&mut stream, "close");
    assert!(
        answered(&mut stream, Duration::from_secs(1)),
        "/healthz unanswered after the panics"
    );
    let raw = raw_close_exchange(addr, &close_request("GET", "/stats", ""));
    let stats = String::from_utf8_lossy(&raw);
    assert!(
        stats.contains(&format!(r#""panics":{panicked},"#)),
        "{stats}"
    );
}

// ---------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------

#[test]
fn connection_stats_surface_on_stats_and_metrics() {
    if !IoMode::epoll_supported() {
        return;
    }
    let (handle, addr, _) = epoll_server(AioConfig::default());

    let mut client = KeepAlive::connect(addr);
    client.send("GET", "/healthz", "");
    assert_eq!(client.read_response().status, 200);

    client.send("GET", "/stats", "");
    let stats = client.read_response();
    let stats_body = String::from_utf8(stats.body).unwrap();
    assert!(
        stats_body.contains("\"connections\":{\"open\":"),
        "{stats_body}"
    );
    assert!(stats_body.contains("\"accepted\":1"), "{stats_body}");

    client.send("GET", "/metrics", "");
    let metrics = client.read_response();
    let text = String::from_utf8(metrics.body).unwrap();
    validate(&text).unwrap_or_else(|e| panic!("{e}\n--- document ---\n{text}"));
    for family in [
        "tpn_connections_open",
        "tpn_connections_accepted_total",
        "tpn_connections_rejected_total",
        "tpn_connection_timeouts_total",
        "tpn_connections_drained_total",
        "tpn_connections_accept_errors_total",
        "tpn_connection_lifetime_seconds_bucket",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Loadgen smoke (the CI gate: zero drops, clean drain)
// ---------------------------------------------------------------------

#[test]
fn loadgen_smoke_512_connections_zero_drops_clean_drain() {
    if !IoMode::epoll_supported() {
        return;
    }
    #[cfg(target_os = "linux")]
    {
        use tpn_bench::loadgen::{self, LoadConfig, RequestSpec};

        let (handle, addr, service) = epoll_server(AioConfig::default());
        let cfg = LoadConfig {
            connections: 512,
            requests: 2048,
            keep_alive: true,
            // `/slo` is unconditionally 200; `/healthz` flips to 503
            // when the burn-rate engine fires, which load can cause.
            mix: vec![RequestSpec::new("GET", "/slo", "")],
            deadline: Duration::from_secs(120),
        };
        let report = loadgen::run(addr, &cfg).expect("loadgen run");
        assert_eq!(report.errors, 0, "no request may be dropped: {report:?}");
        assert_eq!(report.ok, 2048, "every request answered 200: {report:?}");

        // All 512 sockets drop with the loadgen; the reactor must reap
        // every one — the open gauge returns to zero before shutdown.
        await_open(&service, 0);
        let scalars = service.connections().scalars();
        assert!(scalars.accepted >= 512, "scalars: {scalars:?}");
        assert_eq!(scalars.rejected, 0, "scalars: {scalars:?}");
        handle.shutdown();
        assert_eq!(service.connections().scalars().open, 0);
    }
}
