//! The closed-loop client: one thread, a few keep-alive connections,
//! each sending its next request only after the previous reply.
//!
//! Unlike `tpn_bench::loadgen`, the event buffer is cleared before
//! every `Poller::wait` (which appends), so the client's own cost per
//! request does not grow over a run. Every response is checked against
//! its expected status and body, byte for byte.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpn_aio::http1::ResponseParser;
use tpn_aio::poll::{interest, Event, Poller};

/// What the server must answer for one request.
pub type Expected = (u16, Arc<String>);

#[derive(Debug, Default)]
pub struct ClientReport {
    /// Round trip of every checked 2xx response, milliseconds, in
    /// completion order.
    pub rtt_ms: Vec<f64>,
    /// 2xx responses whose status and body matched.
    pub ok: u64,
    /// Responses with an unexpected non-2xx status.
    pub non_2xx: u64,
    /// Requests lost to a reset, a truncated or malformed response, or
    /// the run deadline.
    pub transport_failures: u64,
    /// Responses whose status or body differed from the expected one.
    pub mismatches: u64,
    /// Connections opened (the server closes a keep-alive connection
    /// after its per-connection request cap, so this exceeds the
    /// connection count on long runs).
    pub dials: u64,
    /// Connection attempts that failed — not request failures.
    pub dial_failures: u64,
    /// Response body bytes received.
    pub body_bytes: u64,
    /// First byte written to last byte read over the whole run.
    pub elapsed: Duration,
}

impl ClientReport {
    pub fn attempted(&self) -> u64 {
        self.ok + self.non_2xx + self.transport_failures + self.mismatches
    }

    pub fn failed(&self) -> u64 {
        self.attempted() - self.ok
    }
}

struct Conn {
    stream: TcpStream,
    parser: ResponseParser,
    /// The request in flight: index into the schedule.
    current: Option<usize>,
    out: Arc<Vec<u8>>,
    written: usize,
    sent_at: Instant,
}

enum Step {
    /// Waiting on the socket.
    Pending,
    /// A response completed; the connection stays open.
    Done,
    /// A response completed and the server closes the connection.
    DoneClosing,
    /// The connection broke with a request in flight.
    Broken,
}

fn dial(poller: &Poller, addr: SocketAddr, token: u64) -> io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)?;
    poller.add(stream.as_raw_fd(), token, interest::READ | interest::WRITE)?;
    Ok(Conn {
        stream,
        parser: ResponseParser::new(),
        current: None,
        out: Arc::new(Vec::new()),
        written: 0,
        sent_at: Instant::now(),
    })
}

/// Send `schedule` (indices into `wires`/`expected`) over `conns`
/// connections in a closed loop and check every response.
pub fn run(
    addr: SocketAddr,
    conns: usize,
    wires: &[Arc<Vec<u8>>],
    expected: &[Expected],
    schedule: &[usize],
    deadline: Duration,
) -> io::Result<ClientReport> {
    let mut poller = Poller::new()?;
    let mut report = ClientReport {
        rtt_ms: Vec::with_capacity(schedule.len()),
        ..ClientReport::default()
    };
    let mut slots: Vec<Option<Conn>> = (0..conns.max(1)).map(|_| None).collect();
    let mut next = 0usize;
    let mut settled = 0usize;
    let mut events: Vec<Event> = Vec::new();
    let start = Instant::now();
    let give_up = start + deadline;

    // Open a connection in `slot` if it has none, then give it the next
    // request. Returns false when there is nothing left to send.
    let assign = |slot: &mut Option<Conn>,
                  token: usize,
                  next: &mut usize,
                  report: &mut ClientReport,
                  poller: &Poller|
     -> bool {
        if *next >= schedule.len() {
            return false;
        }
        if slot.is_none() {
            report.dials += 1;
            match dial(poller, addr, token as u64) {
                Ok(conn) => *slot = Some(conn),
                Err(_) => {
                    report.dial_failures += 1;
                    return true;
                }
            }
        }
        let conn = slot.as_mut().expect("dialed above");
        let idx = schedule[*next];
        *next += 1;
        conn.current = Some(idx);
        conn.out = Arc::clone(&wires[idx]);
        conn.written = 0;
        conn.sent_at = Instant::now();
        true
    };

    for (token, slot) in slots.iter_mut().enumerate() {
        assign(slot, token, &mut next, &mut report, &poller);
    }
    while settled < schedule.len() {
        let now = Instant::now();
        if now >= give_up {
            report.transport_failures += (schedule.len() - settled) as u64;
            break;
        }
        // Drive every connection once before sleeping: a fresh
        // assignment writes without waiting for a readiness edge.
        for (token, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() {
                // A failed dial: retry while requests remain.
                if next < schedule.len() {
                    std::thread::sleep(Duration::from_millis(1));
                    assign(slot, token, &mut next, &mut report, &poller);
                }
                continue;
            }
            while let Some(conn) = slot.as_mut() {
                let Some(idx) = conn.current else { break };
                let step = drive(conn, &expected[idx], &mut report);
                if matches!(step, Step::Pending) {
                    break;
                }
                settled += 1;
                if matches!(step, Step::Broken) {
                    report.transport_failures += 1;
                }
                if matches!(step, Step::Done) {
                    conn.current = None;
                } else if let Some(old) = slot.take() {
                    let _ = poller.delete(old.stream.as_raw_fd());
                }
                if !assign(slot, token, &mut next, &mut report, &poller) {
                    break;
                }
            }
        }
        if settled >= schedule.len() {
            break;
        }
        events.clear();
        poller.wait(
            &mut events,
            Some((give_up - now).min(Duration::from_millis(200))),
        )?;
    }
    report.elapsed = start.elapsed();
    Ok(report)
}

/// Write what is pending, read what has arrived, and settle the
/// request if its response is complete.
fn drive(conn: &mut Conn, expected: &Expected, report: &mut ClientReport) -> Step {
    while conn.written < conn.out.len() {
        match conn.stream.write(&conn.out[conn.written..]) {
            Ok(0) => return Step::Broken,
            Ok(n) => conn.written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::Pending,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Step::Broken,
        }
    }
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match conn.parser.poll() {
            Ok(Some(resp)) if resp.status / 100 == 1 => continue,
            Ok(Some(resp)) => {
                let rtt = conn.sent_at.elapsed();
                conn.current = None;
                report.body_bytes += resp.body.len() as u64;
                let (status, body) = expected;
                if resp.status != *status || resp.body != body.as_bytes() {
                    report.mismatches += 1;
                } else if resp.status / 100 != 2 {
                    report.non_2xx += 1;
                } else {
                    report.ok += 1;
                    report.rtt_ms.push(rtt.as_secs_f64() * 1e3);
                }
                return if resp.close {
                    Step::DoneClosing
                } else {
                    Step::Done
                };
            }
            Ok(None) => {}
            Err(_) => return Step::Broken,
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => return Step::Broken,
            Ok(n) => conn.parser.feed(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::Pending,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Step::Broken,
        }
    }
}
