//! A minimal readiness poller over `poll(2)` — the hand-rolled event-loop
//! substrate behind [`crate::TcpHost`].
//!
//! The repo's dependency policy is "no heavy I/O crates" (no mio, no tokio),
//! so this module binds the three POSIX calls an event loop actually needs
//! (`poll`, `pipe`, `fcntl`) directly. `poll(2)` instead of `epoll(7)`
//! keeps the wrapper portable across Unixes and is O(n) in *registered*
//! fds per wait — fine for the hundreds of connections a host drives; the
//! interest list is rebuilt per wait from the caller's live set, which
//! sidesteps all of epoll's registration bookkeeping.
//!
//! Cross-thread wakeup uses the classic self-pipe trick: [`Waker::wake`]
//! writes one byte to a nonblocking pipe whose read end sits in every
//! interest set; [`Poller::wait`] drains it and reports `woken`.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[allow(non_camel_case_types)]
mod sys {
    use std::os::raw::{c_int, c_short, c_void};

    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct pollfd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;

    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    #[cfg(target_os = "linux")]
    pub const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    pub const O_NONBLOCK: c_int = 0x0004;

    // `nfds_t` is `unsigned long` on Linux/glibc and `unsigned int` on the
    // BSDs; on the LP64 SysV ABI passing the wider type is benign, so the
    // Linux signature is used everywhere.
    pub type nfds_t = std::os::raw::c_ulong;

    extern "C" {
        pub fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    }
}

fn set_nonblocking_fd(fd: RawFd) -> io::Result<()> {
    // SAFETY: plain fcntl on an fd we own; no memory is passed.
    unsafe {
        let flags = sys::fcntl(fd, sys::F_GETFL, 0);
        if flags < 0 {
            return Err(io::Error::last_os_error());
        }
        if sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) < 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// What a caller wants to hear about one fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd accepts more bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read-plus-write interest (a link with pending output).
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The fd the report is about.
    pub fd: RawFd,
    /// Bytes (or a pending accept, or a hangup) are waiting to be read.
    pub readable: bool,
    /// The socket accepts more bytes.
    pub writable: bool,
    /// `POLLERR`/`POLLHUP`/`POLLNVAL`: the connection is dead or the fd
    /// invalid; the owner should tear it down.
    pub error: bool,
}

/// The waitable half. Owns the self-pipe read end.
#[derive(Debug)]
pub struct Poller {
    wake_rx: RawFd,
    /// The interest list handed to `poll(2)`, rebuilt in place per wait.
    pollfds: Vec<sys::pollfd>,
}

/// Cloneable cross-thread wakeup handle (self-pipe write end).
#[derive(Debug)]
pub struct Waker {
    wake_tx: RawFd,
}

impl Poller {
    /// Creates a poller and its wakeup handle.
    ///
    /// # Errors
    ///
    /// Propagates `pipe(2)`/`fcntl(2)` failures (fd exhaustion).
    pub fn new() -> io::Result<(Poller, Waker)> {
        let mut fds = [0i32; 2];
        // SAFETY: pipe writes exactly two fds into the array.
        if unsafe { sys::pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let (rx, tx) = (fds[0], fds[1]);
        set_nonblocking_fd(rx)?;
        set_nonblocking_fd(tx)?;
        let poller = Poller {
            wake_rx: rx,
            pollfds: Vec::new(),
        };
        Ok((poller, Waker { wake_tx: tx }))
    }

    /// Blocks until any registered fd is ready, the timeout passes, or a
    /// [`Waker::wake`] arrives. Ready fds are appended to `events`
    /// (cleared first); returns whether a wakeup was among them.
    ///
    /// # Errors
    ///
    /// Propagates `poll(2)` failures other than `EINTR` (which retries).
    pub fn wait(
        &mut self,
        fds: &[(RawFd, Interest)],
        timeout: Option<Duration>,
        events: &mut Vec<Event>,
    ) -> io::Result<bool> {
        events.clear();
        let pollfds = &mut self.pollfds;
        pollfds.clear();
        pollfds.push(sys::pollfd {
            fd: self.wake_rx,
            events: sys::POLLIN,
            revents: 0,
        });
        for &(fd, interest) in fds {
            let mut ev = 0;
            if interest.readable {
                ev |= sys::POLLIN;
            }
            if interest.writable {
                ev |= sys::POLLOUT;
            }
            pollfds.push(sys::pollfd {
                fd,
                events: ev,
                revents: 0,
            });
        }
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        };
        loop {
            // SAFETY: pollfds outlives the call and nfds matches its length.
            let n = unsafe {
                sys::poll(
                    pollfds.as_mut_ptr(),
                    pollfds.len() as sys::nfds_t,
                    timeout_ms,
                )
            };
            if n >= 0 {
                break;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        let woken = self.pollfds[0].revents != 0;
        if woken {
            self.drain_wake();
        }
        for pfd in &self.pollfds[1..] {
            if pfd.revents == 0 {
                continue;
            }
            events.push(Event {
                fd: pfd.fd,
                readable: pfd.revents & sys::POLLIN != 0,
                writable: pfd.revents & sys::POLLOUT != 0,
                error: pfd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0,
            });
        }
        Ok(woken)
    }

    fn drain_wake(&self) {
        let mut buf = [0u8; 64];
        // SAFETY: reading into a local buffer from our nonblocking pipe.
        while unsafe { sys::read(self.wake_rx, buf.as_mut_ptr().cast(), buf.len()) } > 0 {}
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: closing an fd we own exactly once.
        unsafe { sys::close(self.wake_rx) };
    }
}

impl Waker {
    /// Interrupts a concurrent (or the next) [`Poller::wait`]. Lock-free and
    /// signal-safe; a full pipe means a wakeup is already pending, which is
    /// all a level-triggered loop needs.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: writing one byte from a local to our nonblocking pipe.
        unsafe { sys::write(self.wake_tx, (&byte as *const u8).cast(), 1) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: closing an fd we own exactly once.
        unsafe { sys::close(self.wake_tx) };
    }
}

// The write end travels to whichever threads need to nudge the loop.
// SAFETY: a `Waker` is only an fd number; `wake` issues one `write(2)` on
// it, which the kernel serializes, and the fd is closed once, by `Drop`.
unsafe impl Send for Waker {}
// SAFETY: `wake` takes `&self` and only writes to the pipe, which any
// number of threads may do at once.
unsafe impl Sync for Waker {}

/// Reads at most `limit` bytes from `fd` straight into the spare capacity
/// of `buf` (reserved first if short), and appends them to its contents:
/// no intermediate buffer, and no zeroing of the bytes about to be
/// overwritten. Returns the bytes read, 0 at end of stream.
///
/// # Errors
///
/// Propagates `read(2)` failures (`WouldBlock` on a drained nonblocking
/// socket, `Interrupted` by a signal, connection errors).
pub fn read_into(fd: RawFd, buf: &mut Vec<u8>, limit: usize) -> io::Result<usize> {
    buf.reserve(limit);
    let spare = buf.spare_capacity_mut();
    // SAFETY: `spare` is writable memory of `spare.len() >= limit` bytes
    // owned by `buf`, and `read(2)` writes at most `limit` bytes into it.
    let n = unsafe { sys::read(fd, spare.as_mut_ptr().cast(), limit) };
    let n = usize::try_from(n).map_err(|_| io::Error::last_os_error())?;
    // SAFETY: the kernel initialized the first `n <= limit` spare bytes.
    unsafe { buf.set_len(buf.len() + n) };
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn wake_interrupts_an_idle_wait() {
        let (mut poller, waker) = Poller::new().unwrap();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Vec::new();
        let woken = poller
            .wait(&[], Some(Duration::from_secs(5)), &mut events)
            .unwrap();
        assert!(woken, "the waker must interrupt the wait");
        assert!(events.is_empty());
        handle.join().unwrap();
    }

    #[test]
    fn readable_socket_is_reported() {
        use std::os::fd::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.write_all(b"x").unwrap();
        let (mut poller, _waker) = Poller::new().unwrap();
        let mut events = Vec::new();
        poller
            .wait(
                &[(server.as_raw_fd(), Interest::READ)],
                Some(Duration::from_secs(5)),
                &mut events,
            )
            .unwrap();
        assert!(
            events
                .iter()
                .any(|e| e.fd == server.as_raw_fd() && e.readable),
            "pending byte must mark the socket readable: {events:?}"
        );
    }

    #[test]
    fn timeout_returns_empty() {
        let (mut poller, _waker) = Poller::new().unwrap();
        let mut events = Vec::new();
        let woken = poller
            .wait(&[], Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(!woken);
        assert!(events.is_empty());
    }
}
