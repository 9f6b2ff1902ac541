//! The serve tier as the traced run measures it: a real
//! `raco serve --tcp 127.0.0.1:0` child with its production defaults,
//! driven open-loop.
//!
//! The generator is one thread of this process holding one non-blocking
//! connection per core. Requests go out on a fixed schedule at
//! [`REFERENCE_RPS`] whether or not earlier ones were answered; each is
//! timed from when it was *due*, so a stall also charges the requests
//! queued behind it, and replies are matched to requests by `id`. The
//! thread blocks in `ppoll` until a reply arrives or the next request is
//! due (see [`crate::wait`]) and records how late it sent each request.
//!
//! There is no serve workload with end-to-end metrics: on the 2-core
//! virtual machine the benchmark was defined on, host scheduling gaps of
//! several milliseconds set the p99 of served requests. Four runs of one
//! seed gave closed-loop p99s from 0.33 to 0.76 ms (2 connections) and
//! open-loop p99s from 0.41 to 0.90 ms at 6k req/s; closed-loop
//! throughput ranged from 11k to 16k req/s. No latency limit or rate
//! ladder gave the same verdict twice.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use raco::driver::json::Json;

use crate::library::Code;
use crate::report::Tally;
use crate::stats::Samples;
use crate::wait;

/// Open-loop request rate, well below the capacity of a 2-core machine
/// (11–16k req/s closed loop on loadgen's trace).
pub const REFERENCE_RPS: f64 = 4_000.0;
/// Every warm-up request once, at this rate, before measuring.
const WARMUP_RPS: f64 = 2_000.0;
/// Longest the generator blocks before re-checking its deadlines.
const MAX_WAIT: Duration = Duration::from_millis(50);
/// Open-loop requests not answered this long after the last send fail.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

// ---------------------------------------------------------------------
// The child process
// ---------------------------------------------------------------------

/// Builds (if needed) and locates the `raco` binary of this checkout.
pub fn raco_binary() -> Result<PathBuf, String> {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "raco",
        ])
        .args(["--message-format", "json-render-diagnostics"])
        .args(["--manifest-path", manifest])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building raco failed ({})", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|m| m.get("reason").and_then(Json::as_str) == Some("compiler-artifact"))
        .filter(|m| {
            m.get("target")
                .and_then(|t| t.get("name"))
                .and_then(Json::as_str)
                == Some("raco")
        })
        .find_map(|m| {
            m.get("executable")
                .and_then(Json::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo built no raco executable".to_owned())
}

/// A running `raco serve --tcp` child.
pub struct Server {
    child: Child,
    /// Held open until the child exits: closing it early would make the
    /// child's next diagnostic line fail.
    stderr: BufReader<ChildStderr>,
    pub addr: String,
}

impl Server {
    /// Spawns the child with its production defaults and waits for its
    /// port announcement.
    pub fn spawn(binary: &Path) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("raco serve exited before announcing its port".to_owned());
                }
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("raco serve: listening on ") {
                break addr.to_owned();
            }
        };
        Ok(Server {
            child,
            stderr,
            addr,
        })
    }

    /// One request on a fresh connection.
    fn request(&self, line: &str) -> Result<String, String> {
        let fail = |e: io::Error| format!("{}: {e}", self.addr);
        let stream = TcpStream::connect(&self.addr).map_err(fail)?;
        stream.set_nodelay(true).map_err(fail)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(fail)?;
        (&stream)
            .write_all(format!("{line}\n").as_bytes())
            .map_err(fail)?;
        let mut reply = String::new();
        BufReader::new(&stream)
            .read_line(&mut reply)
            .map_err(fail)?;
        Ok(reply.trim().to_owned())
    }

    /// The `metrics` op's payload.
    pub fn metrics(&self) -> Result<Json, String> {
        let reply = self.request(r#"{"op":"metrics"}"#)?;
        Json::parse(&reply)
            .ok()
            .and_then(|j| j.get("metrics").cloned())
            .ok_or_else(|| format!("bad metrics reply: {reply}"))
    }

    /// Asks the child to shut down and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acked = self.request(r#"{"op":"shutdown"}"#);
        let mut rest = String::new();
        let _ = self.stderr.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        acked?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("raco serve exited with {status}: {rest}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached after `shutdown` (a no-op then) or on an error path,
        // where the child must not outlive the benchmark.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------
// The generator
// ---------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    inbuf: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            sent: 0,
            inbuf: Vec::new(),
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
        Ok(())
    }

    /// Reads whatever has arrived and appends the complete reply lines
    /// to `lines`.
    fn poll(&mut self, lines: &mut Vec<String>) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        let mut start = 0;
        while let Some(end) = self.inbuf[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.inbuf[start..start + end]);
            if !line.trim().is_empty() {
                lines.push(line.into_owned());
            }
            start += end + 1;
        }
        self.inbuf.drain(..start);
        Ok(())
    }
}

/// Extracts the unsigned number after `"key":` in a reply line.
fn number_after(line: &str, key: &str) -> Option<u64> {
    let at = line.find(key)? + key.len();
    let digits: &str = &line[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// Checks one compile reply: `ok`, no failed loop, and the same cost
/// and code size as every earlier reply for the same request.
fn check_reply(line: &str, key: usize, expected: &mut HashMap<usize, Code>) -> Result<(), String> {
    if !line.contains("\"ok\":true") {
        return Err(format!("request {key}: {line}"));
    }
    if number_after(line, "\"failed\":") != Some(0) {
        return Err(format!("request {key}: a loop failed: {line}"));
    }
    let code = number_after(line, "\"cost\":")
        .zip(number_after(line, "\"code_words\":"))
        .ok_or_else(|| format!("request {key}: no cost in {line}"))?;
    match expected.insert(key, code) {
        Some(earlier) if earlier != code => Err(format!(
            "request {key}: (cost, words) {code:?}, earlier {earlier:?}"
        )),
        _ => Ok(()),
    }
}

/// Renders the request line of `key` with `id`.
pub type Render<'a> = &'a dyn Fn(usize, u64) -> String;

/// What an open-loop run observed.
#[derive(Debug)]
pub struct OpenLoop {
    /// Latency of each request (µs from its due time).
    pub latency_us: Samples,
    /// How late each request was handed to its connection (µs).
    pub lag_us: Samples,
}

/// The generator's connections and request bookkeeping.
pub struct Generator {
    conns: Vec<Conn>,
    fds: Vec<RawFd>,
    next_id: u64,
    /// (cost, words) of every request key answered so far.
    expected: HashMap<usize, Code>,
}

fn io_error(e: io::Error) -> String {
    format!("serve connection: {e}")
}

impl Generator {
    /// One connection per core.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let conns = (0..cores)
            .map(|_| Conn::open(addr))
            .collect::<io::Result<Vec<_>>>()
            .map_err(|e| format!("connect {addr}: {e}"))?;
        wait::precise_timers().map_err(|e| format!("timer slack: {e}"))?;
        Ok(Generator {
            fds: conns.iter().map(|c| c.stream.as_raw_fd()).collect(),
            conns,
            next_id: 1,
            expected: HashMap::new(),
        })
    }

    fn line(&mut self, key: usize, render: Render<'_>) -> (u64, String) {
        let id = self.next_id;
        self.next_id += 1;
        (id, format!("{}\n", render(key, id)))
    }

    /// Flushes pending writes and blocks until a reply may have arrived,
    /// a socket can take more bytes, or `timeout` passes.
    fn flush_and_wait(&mut self, timeout: Duration) -> Result<(), String> {
        for conn in &mut self.conns {
            conn.flush().map_err(io_error)?;
        }
        let writable: Vec<RawFd> = self
            .conns
            .iter()
            .filter(|c| !c.out.is_empty())
            .map(|c| c.stream.as_raw_fd())
            .collect();
        wait::wait(&self.fds, &writable, timeout.min(MAX_WAIT)).map_err(io_error)
    }

    /// Sends the requests `keys` open-loop at `rate` and waits for every
    /// reply. `observe(id, due, replied)` sees each answered request.
    pub fn open_loop(
        &mut self,
        keys: &[usize],
        render: Render<'_>,
        rate: f64,
        tally: &mut Tally,
        mut observe: impl FnMut(u64, Instant, Instant),
    ) -> Result<OpenLoop, String> {
        let lines: Vec<(u64, String)> = keys.iter().map(|&k| self.line(k, render)).collect();
        let interval = Duration::from_secs_f64(1.0 / rate);
        let start = Instant::now() + Duration::from_millis(1);
        let due = |i: usize| start + interval * i as u32;
        let mut run = OpenLoop {
            latency_us: Samples::new(),
            lag_us: Samples::new(),
        };
        let mut pending: HashMap<u64, (usize, usize)> = HashMap::with_capacity(keys.len());
        let mut replies = Vec::new();
        let mut next = 0;
        loop {
            let now = Instant::now();
            while next < lines.len() && due(next) <= now {
                let (id, line) = &lines[next];
                let count = self.conns.len();
                self.conns[next % count]
                    .out
                    .extend_from_slice(line.as_bytes());
                pending.insert(*id, (next, keys[next]));
                run.lag_us.push((now - due(next)).as_secs_f64() * 1e6);
                next += 1;
            }
            for conn in &mut self.conns {
                conn.flush().map_err(io_error)?;
            }
            replies.clear();
            for conn in &mut self.conns {
                conn.poll(&mut replies).map_err(io_error)?;
            }
            let received = Instant::now();
            for reply in &replies {
                let matched =
                    number_after(reply, "{\"id\":").and_then(|id| Some((id, pending.remove(&id)?)));
                let Some((id, (index, key))) = matched else {
                    tally.record(Err(format!("unmatched reply: {reply}")));
                    continue;
                };
                observe(id, due(index), received);
                run.latency_us
                    .push((received - due(index)).as_secs_f64() * 1e6);
                tally.record(check_reply(reply, key, &mut self.expected));
            }
            if next == lines.len() && pending.is_empty() {
                return Ok(run);
            }
            if received > due(lines.len()) + DRAIN_LIMIT {
                for (id, (_, key)) in pending.drain() {
                    tally.record(Err(format!("request {id} (key {key}) got no reply")));
                }
                return Ok(run);
            }
            if replies.is_empty() {
                let until_due = if next < lines.len() {
                    due(next).saturating_duration_since(Instant::now())
                } else {
                    MAX_WAIT
                };
                self.flush_and_wait(until_due)?;
            }
        }
    }
}

/// Warms a running server with every `warm` request once, checking each
/// reply (open loop at [`WARMUP_RPS`]).
pub fn warm_up(
    generator: &mut Generator,
    warm: &[usize],
    render: Render<'_>,
    tally: &mut Tally,
) -> Result<(), String> {
    generator
        .open_loop(warm, render, WARMUP_RPS, tally, |_, _, _| {})
        .map(|_| ())
}

/// Requests the server shed or timed out, from its `metrics` payload.
pub fn shed_and_deadlines(metrics: &Json) -> (u64, u64) {
    let sum = |object: &str| {
        metrics
            .get(object)
            .map(|o| match o {
                Json::Obj(fields) => fields.iter().filter_map(|(_, v)| v.as_u64()).sum(),
                _ => 0,
            })
            .unwrap_or(0)
    };
    (sum("shed"), sum("deadlines"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_checked_by_key() {
        let mut expected = HashMap::new();
        let ok = r#"{"id":4,"ok":true,"report":{"failed":0,"units":[{"loops":[{"cost":3,"code_words":17}]}]}}"#;
        assert_eq!(number_after(ok, "{\"id\":"), Some(4));
        assert!(check_reply(ok, 1, &mut expected).is_ok());
        assert!(check_reply(ok, 1, &mut expected).is_ok());
        let drifted = ok.replace("\"cost\":3", "\"cost\":4");
        assert!(check_reply(&drifted, 1, &mut expected).is_err());
        let failed = ok.replace("\"failed\":0", "\"failed\":1");
        assert!(check_reply(&failed, 2, &mut expected).is_err());
        assert!(check_reply(r#"{"id":5,"ok":false,"error":"shed"}"#, 3, &mut expected).is_err());
    }
}
