//! Precise waiting for the open-loop generator (Linux).
//!
//! The standard library cannot wait on several sockets at once or wake
//! at a sub-millisecond deadline without the kernel's default 50 µs
//! timer slack. The generator needs both, or every send would be late
//! and every reply noticed late by up to a timer tick, quantising the
//! latencies it measures. This module calls `ppoll(2)` and
//! `prctl(PR_SET_TIMERSLACK)` from the C library the standard library
//! already links.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Makes this thread's timed waits wake within about a microsecond of
/// their deadline instead of up to 50 µs after it.
pub fn precise_timers() -> io::Result<()> {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument (the
    // slack in nanoseconds) and touches no memory of this process.
    let status = unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
    if status == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Blocks until one of `read` is readable, one of `write` is writable,
/// or `timeout` passes.
pub fn wait(read: &[RawFd], write: &[RawFd], timeout: Duration) -> io::Result<()> {
    let mut fds: Vec<PollFd> = read
        .iter()
        .map(|&fd| (fd, POLLIN))
        .chain(write.iter().map(|&fd| (fd, POLLOUT)))
        .map(|(fd, events)| PollFd {
            fd,
            events,
            revents: 0,
        })
        .collect();
    let timeout = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of exactly
    // `fds.len()` `pollfd`-layout entries that ppoll may write
    // `revents` into; `timeout` is a valid `timespec` that outlives the
    // call; a null signal mask leaves the mask unchanged.
    let status = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &timeout,
            std::ptr::null(),
        )
    };
    if status >= 0 {
        return Ok(());
    }
    let error = io::Error::last_os_error();
    if error.kind() == io::ErrorKind::Interrupted {
        Ok(())
    } else {
        Err(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn wait_times_out_near_its_deadline() {
        precise_timers().unwrap();
        let (a, _b) = UnixStream::pair().unwrap();
        let started = Instant::now();
        wait(&[a.as_raw_fd()], &[], Duration::from_millis(5)).unwrap();
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(5), "{waited:?}");
    }

    #[test]
    fn wait_returns_when_a_socket_is_readable() {
        let (a, mut b) = UnixStream::pair().unwrap();
        b.write_all(b"x").unwrap();
        let started = Instant::now();
        wait(&[a.as_raw_fd()], &[], Duration::from_secs(10)).unwrap();
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
