//! The `tpn serve` child: spawn, address from the banner, one-shot
//! HTTP exchanges for scrapes, and kill-and-reap on drop.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use tpn_aio::http1::{Response, ResponseParser};

pub struct Server {
    child: Child,
    /// Kept open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

extern "C" {
    fn prctl(option: i32, arg2: u64, ...) -> i32;
}

const BANNER: &str = "tpn-service listening on http://";

impl Server {
    /// Start `tpn serve 127.0.0.1:0` and wait for its banner, which it
    /// prints once the listener is bound.
    pub fn spawn(tpn: &Path) -> io::Result<Server> {
        let mut command = Command::new(tpn);
        command
            .args(["serve", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // SAFETY: the hook runs in the forked child before exec and
        // only makes one async-signal-safe syscall. It asks the kernel
        // to kill the server if the benchmark dies without running
        // `Drop` (a timeout's SIGKILL), so no server outlives it.
        unsafe {
            command.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = command.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout.read_line(&mut line).ok().and_then(|_| {
            line.trim()
                .strip_prefix(BANNER)?
                .split(' ')
                .next()?
                .parse()
                .ok()
        });
        match addr {
            Some(addr) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "no listening banner from tpn serve: {line:?}"
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Poll `GET /healthz` until the server answers (or `limit` passes).
    pub fn wait_ready(&self, limit: Duration) -> io::Result<()> {
        let start = Instant::now();
        loop {
            match exchange(self.addr, "GET", "/healthz", "") {
                Ok(resp) if resp.status == 200 => return Ok(()),
                _ if start.elapsed() > limit => {
                    return Err(io::Error::other("tpn serve never answered /healthz"))
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// `GET path`, requiring a 200, as text.
    pub fn get(&self, path: &str) -> io::Result<String> {
        let resp = exchange(self.addr, "GET", path, "")?;
        if resp.status != 200 {
            return Err(io::Error::other(format!(
                "GET {path}: HTTP {}",
                resp.status
            )));
        }
        String::from_utf8(resp.body).map_err(io::Error::other)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request on a fresh `Connection: close` socket.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes)?;
    let mut parser = ResponseParser::new();
    parser.feed(&bytes);
    match parser.poll() {
        Ok(Some(resp)) => Ok(resp),
        Ok(None) => Err(io::Error::other(format!("{path}: truncated response"))),
        Err(e) => Err(io::Error::other(format!("{path}: {e:?}"))),
    }
}
