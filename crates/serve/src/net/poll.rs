//! A minimal readiness poller — the `epoll(7)` shim the event-driven
//! front-end runs on.
//!
//! The workspace's dependency policy (DESIGN.md §5) rules out `mio`, so
//! this module is the vendored-style equivalent: a level-triggered
//! readiness API over raw file descriptors, backed by `epoll` on Linux
//! and by `poll(2)` on other Unixes. Only the four syscalls the loop
//! needs are declared (`extern "C"` against the libc the Rust standard
//! library already links); there is no allocation on the wait path
//! beyond the caller's reusable event buffer.
//!
//! The API is deliberately tiny:
//!
//! * [`Poller::register`] / [`Poller::modify`] / [`Poller::deregister`]
//!   attach a file descriptor with an [`Interest`] and a caller-chosen
//!   `u64` token.
//! * [`Poller::wait`] blocks (bounded by a timeout) and fills a buffer
//!   of [`Event`]s carrying those tokens back.
//! * [`Waker`] wakes a sleeping [`Poller::wait`] from any thread — a
//!   `UnixStream` pair whose read end is registered like any other
//!   connection. Worker threads use it to tell a loop that a ticket
//!   resolved.
//!
//! Everything is level-triggered: an event repeats while the condition
//! holds, so a loop that processes *some* of the readable bytes is never
//! stranded. The cost (spurious wakeups) is paid only under load shapes
//! where the loop already has work.

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// What readiness a registration cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer shut its write side).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write readiness only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Neither direction (parked registration; a full hangup or an
    /// error is still reported).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd is readable.
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The peer closed or the fd errored; the owner should read to EOF
    /// and drop the connection.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! The Linux backend: one `epoll` instance per poller.
    use super::{Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// Kernel ABI: `struct epoll_event` is packed on x86-64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    pub struct Backend {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Backend {
        pub fn new() -> io::Result<Backend> {
            // SAFETY: plain syscall; a negative return is reported as an
            // io::Error instead of being used.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Backend {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        /// `EPOLLRDHUP` rides with read interest only: level-triggered,
        /// a half-closed peer would otherwise wake every wait while the
        /// owner drains output it no longer reads for. `EPOLLHUP` and
        /// `EPOLLERR` are always reported.
        fn mask(interest: Interest) -> u32 {
            let mut events = 0;
            if interest.readable {
                events |= EPOLLIN | EPOLLRDHUP;
            }
            if interest.writable {
                events |= EPOLLOUT;
            }
            events
        }

        fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: Self::mask(interest),
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let timeout_ms = timeout
                .map(|d| d.as_millis().min(i32::MAX as u128) as i32)
                .unwrap_or(-1);
            // SAFETY: the buffer is sized and owned by this poller; the
            // kernel writes at most `buf.len()` entries.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in &self.buf[..n as usize] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Backend {
        fn drop(&mut self) {
            // SAFETY: the fd belongs to this poller and is closed once.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    //! The portable Unix backend: a registration list swept with
    //! `poll(2)` per wait. O(n) per call, fine at the connection counts
    //! non-Linux dev machines see.
    use super::{Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    }

    pub struct Backend {
        regs: Vec<(RawFd, u64, Interest)>,
    }

    impl Backend {
        pub fn new() -> io::Result<Backend> {
            Ok(Backend { regs: Vec::new() })
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.regs.push((fd, token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            for reg in &mut self.regs {
                if reg.0 == fd {
                    *reg = (fd, token, interest);
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.regs.retain(|reg| reg.0 != fd);
            Ok(())
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .regs
                .iter()
                .map(|&(fd, _, interest)| PollFd {
                    fd,
                    events: if interest.readable { POLLIN } else { 0 }
                        | if interest.writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let timeout_ms = timeout
                .map(|d| d.as_millis().min(i32::MAX as u128) as i32)
                .unwrap_or(-1);
            // SAFETY: `fds` is a live, correctly-sized buffer.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (pfd, &(_, token, _)) in fds.iter().zip(&self.regs) {
                if pfd.revents == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: pfd.revents & POLLIN != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

/// A level-triggered readiness poller over raw file descriptors.
///
/// See the module docs; `epoll` on Linux, `poll(2)` elsewhere. Not
/// thread-safe — each event loop owns one. Cross-thread wakeups go
/// through a [`Waker`].
pub struct Poller {
    backend: sys::Backend,
}

impl Poller {
    /// Creates an empty poller.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            backend: sys::Backend::new()?,
        })
    }

    /// Starts watching `fd` under `token`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying syscall failure (e.g. an fd registered
    /// twice).
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.register(fd, token, interest)
    }

    /// Changes an existing registration's interest (and token).
    ///
    /// # Errors
    ///
    /// Propagates the underlying syscall failure (e.g. an unknown fd).
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.modify(fd, token, interest)
    }

    /// Stops watching `fd`. Callers drop the fd afterwards; a close
    /// without deregistration is also fine (the kernel detaches closed
    /// fds), this just keeps the table tidy.
    ///
    /// # Errors
    ///
    /// Propagates the underlying syscall failure.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.backend.deregister(fd)
    }

    /// Waits for readiness, appending to `events` (which the caller
    /// clears between rounds — the buffer is reused to keep the wait
    /// path allocation-free). `None` blocks indefinitely; loops pass a
    /// bounded timeout so they can re-check shutdown flags.
    ///
    /// # Errors
    ///
    /// Propagates syscall failure. `EINTR` is swallowed (returns with no
    /// events), so callers never see spurious errors from signals.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.backend.wait(events, timeout)
    }
}

/// The token the wake pipe's read end is registered under; event loops
/// reserve it.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// Wakes a sleeping [`Poller::wait`] from any thread.
///
/// Internally a nonblocking `UnixStream` pair: [`Waker::wake`] writes
/// one byte to the send half, the loop registers the receive half under
/// [`WAKE_TOKEN`] and drains it when it fires. A full pipe means a wake
/// is already pending, so the send error is deliberately ignored —
/// wakes coalesce.
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Creates the pair; register [`WakeRx::fd`] in the loop's poller.
    ///
    /// # Errors
    ///
    /// Propagates socketpair creation failure.
    pub fn new() -> io::Result<(Waker, WakeRx)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx }, WakeRx { rx }))
    }

    /// Wakes the owning loop; never blocks, never fails (a full pipe
    /// already carries a pending wake).
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

impl Clone for Waker {
    fn clone(&self) -> Waker {
        Waker {
            tx: self.tx.try_clone().expect("clone waker stream"),
        }
    }
}

/// The loop-side half of a [`Waker`].
pub struct WakeRx {
    rx: UnixStream,
}

impl WakeRx {
    /// The fd to register under [`WAKE_TOKEN`].
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes all pending wake bytes (level-triggered registration
    /// would otherwise re-fire forever).
    pub fn drain(&mut self) {
        let mut buf = [0u8; 64];
        while matches!(self.rx.read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn readiness_fires_on_data_and_stays_level_triggered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "no data yet: {events:?}");

        client.write_all(b"x").unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: unread data re-fires.
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
    }

    #[test]
    fn hangup_is_reported_and_deregister_silences() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 3, Interest::READABLE)
            .unwrap();
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events
                .iter()
                .any(|e| e.token == 3 && (e.hangup || e.readable)),
            "peer close must surface: {events:?}"
        );

        poller.deregister(server.as_raw_fd()).unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "deregistered fd stays silent");
    }

    #[test]
    fn waker_wakes_across_threads_and_coalesces() {
        let (waker, mut rx) = Waker::new().unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(rx.fd(), WAKE_TOKEN, Interest::READABLE)
            .unwrap();

        let remote = waker.clone();
        let handle = std::thread::spawn(move || {
            for _ in 0..1000 {
                remote.wake();
            }
        });
        handle.join().unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN));
        rx.drain();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "drained waker stays quiet");
    }

    #[test]
    fn write_interest_fires_only_when_requested() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 1, Interest::NONE)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "parked registration is silent");

        poller
            .modify(server.as_raw_fd(), 1, Interest::WRITABLE)
            .unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 1 && e.writable),
            "an idle socket is writable: {events:?}"
        );
    }
}
