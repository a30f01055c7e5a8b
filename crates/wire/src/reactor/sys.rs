//! Readiness notification over raw syscalls: `epoll(7)` on Linux, with a
//! portable `poll(2)` fallback.
//!
//! The build environment has no crates.io access, so there is no `mio` and
//! no `libc` crate — in the spirit of `shims/README.md`, this module
//! declares the three syscalls it needs itself (`std` already links the
//! platform C library, so the symbols are there) and wraps them in a safe
//! [`Poller`] API that is deliberately tiny: register/modify/deregister a
//! file descriptor under a `u64` token, and wait for readiness events.
//!
//! Both backends are **level-triggered**: an fd with unread bytes keeps
//! reporting readable on every wait. The reactor leans on that — it never
//! has to drain a socket to exhaustion in one pass to stay correct.
//!
//! Backend choice: Linux uses `epoll` (O(ready) wakeups) unless the
//! `EXA_WIRE_FORCE_POLL=1` environment variable forces the `poll(2)`
//! backend — that is how CI exercises the portable path on Linux runners.
//! Other Unix platforms always use `poll(2)`, which scans O(registered)
//! descriptors per wait but needs nothing beyond POSIX.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Which readiness directions a registration is subscribed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// No read/write interest — only error/hangup conditions, which both
    /// backends report unconditionally. Used while a request is parked in
    /// dispatch so pipelined bytes in the kernel buffer don't busy-wake
    /// the reactor.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd is readable (or has pending data / an incoming connection).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// Error or hangup: the peer closed or the socket broke. Reported even
    /// when not subscribed; treat as "read until it tells you".
    pub closed: bool,
}

/// A readiness poller over one of the two backends. See the module docs
/// for backend selection.
pub enum Poller {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    Poll(poll::PollSet),
}

impl Poller {
    /// Opens a poller with the platform's preferred backend.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            if Poller::preferred_backend() == "epoll" {
                return Ok(Poller::Epoll(epoll::Epoll::new()?));
            }
        }
        Ok(Poller::Poll(poll::PollSet::new()))
    }

    /// The backend [`Poller::new`] opens here: `epoll` on Linux unless
    /// `EXA_WIRE_FORCE_POLL=1`, `poll` everywhere else.
    pub fn preferred_backend() -> &'static str {
        if cfg!(target_os = "linux")
            && std::env::var("EXA_WIRE_FORCE_POLL").map(|v| v == "1") != Ok(true)
        {
            "epoll"
        } else {
            "poll"
        }
    }

    /// The backend's name, for stats and logs.
    pub fn backend(&self) -> &'static str {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => "epoll",
            Poller::Poll(_) => "poll",
        }
    }

    /// Subscribes `fd` under `token`. The fd must stay open until
    /// [`Poller::deregister`].
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.ctl(epoll::EPOLL_CTL_ADD, fd, token, interest),
            Poller::Poll(ps) => ps.register(fd, token, interest),
        }
    }

    /// Changes the interest set (and/or token) of a registered fd.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.ctl(epoll::EPOLL_CTL_MOD, fd, token, interest),
            Poller::Poll(ps) => ps.register(fd, token, interest),
        }
    }

    /// Unsubscribes `fd`. Call *before* closing the fd — a closed fd is
    /// removed from epoll automatically, but the poll backend would keep
    /// scanning a stale entry.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.ctl(epoll::EPOLL_CTL_DEL, fd, 0, Interest::READABLE),
            Poller::Poll(ps) => {
                ps.deregister(fd);
                Ok(())
            }
        }
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses, appending events to `events` (which is cleared first).
    /// `EINTR` is retried internally.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        events.clear();
        let millis = i32::try_from(timeout.as_millis())
            .unwrap_or(i32::MAX)
            .max(0);
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.wait(events, millis),
            Poller::Poll(ps) => ps.wait(events, millis),
        }
    }
}

#[cfg(target_os = "linux")]
pub mod epoll {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;

    pub const EPOLL_CLOEXEC: i32 = 0x80000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event` with the kernel's ABI: packed on x86-64 (the
    /// kernel headers say `__attribute__((packed))` there), natural
    /// alignment elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// An `epoll` instance plus its reusable kernel-events buffer.
    pub struct Epoll {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: plain syscall; -1 is the only failure signal.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        pub fn ctl(
            &mut self,
            op: i32,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest_bits(interest),
                data: token,
            };
            // SAFETY: `ev` outlives the call; DEL ignores the event pointer.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            let n = loop {
                // SAFETY: `buf` is a live, correctly-sized EpollEvent array.
                let rc = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as i32,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for raw in &self.buf[..n] {
                // Copy out of the (possibly packed) struct before use.
                let (bits, token) = (raw.events, raw.data);
                events.push(Event {
                    token,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: closing the fd we own; errors at teardown are moot.
            unsafe { close(self.epfd) };
        }
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = EPOLLRDHUP;
        if interest.readable {
            bits |= EPOLLIN;
        }
        if interest.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

pub mod poll {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    pub const POLLERR: i16 = 0x8;
    pub const POLLHUP: i16 = 0x10;
    pub const POLLNVAL: i16 = 0x20;

    /// `struct pollfd`, identical across Unix platforms.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[cfg(unix)]
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout: i32) -> i32;
    }

    #[cfg(not(unix))]
    compile_error!("exa-wire's readiness reactor requires a Unix platform");

    /// The `poll(2)` backend: a dense registration table rebuilt into a
    /// `pollfd` array per wait. O(registered) per call — fine for the
    /// portable fallback, and exactly why Linux defaults to epoll.
    pub struct PollSet {
        /// `(fd, token, interest)` per registration, in insertion order.
        entries: Vec<(RawFd, u64, Interest)>,
        fds: Vec<PollFd>,
    }

    impl PollSet {
        #[allow(clippy::new_without_default)]
        pub fn new() -> PollSet {
            PollSet {
                entries: Vec::new(),
                fds: Vec::new(),
            }
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            match self.entries.iter_mut().find(|(f, _, _)| *f == fd) {
                Some(entry) => *entry = (fd, token, interest),
                None => self.entries.push((fd, token, interest)),
            }
            Ok(())
        }

        pub fn deregister(&mut self, fd: RawFd) {
            self.entries.retain(|(f, _, _)| *f != fd);
        }

        pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            self.fds.clear();
            for &(fd, _, interest) in &self.entries {
                let mut bits = 0i16;
                if interest.readable {
                    bits |= POLLIN;
                }
                if interest.writable {
                    bits |= POLLOUT;
                }
                self.fds.push(PollFd {
                    fd,
                    events: bits,
                    revents: 0,
                });
            }
            let n = loop {
                // SAFETY: `fds` is a live, correctly-sized pollfd array.
                let rc = unsafe {
                    poll(
                        self.fds.as_mut_ptr(),
                        self.fds.len() as core::ffi::c_ulong,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if n == 0 {
                return Ok(());
            }
            for (pfd, &(_, token, _)) in self.fds.iter().zip(&self.entries) {
                if pfd.revents == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: pfd.revents & POLLIN != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    closed: pfd.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
                });
            }
            Ok(())
        }
    }
}
