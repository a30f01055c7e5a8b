//! The pieces of the readiness reactor behind
//! [`HttpServer`](crate::server::HttpServer): one thread, non-blocking
//! sockets, a hand-rolled poller.
//!
//! A thread-per-connection server burns an OS thread (and its stack) per
//! connection — idle keep-alive sockets included. The reactor is the
//! classic alternative, and the one server both services run on — the
//! node ([`WireServer`](crate::server::WireServer)) and `exa-fleet`'s
//! router:
//!
//! ```text
//!  [sys::Poller]  epoll(7) / poll(2), level-triggered
//!       │ readiness events (token = generation<<32 | slab index)
//!       ▼
//!  reactor thread ── accept / read / parse / Service::call / write ──┐
//!       ▲                                                            │ Handled::Later
//!       │ Waker byte + completion queue (Responder::respond)         ▼
//!  node: serve workers (PredictionTicket::on_ready)
//!  router: relay pool (blocking WireClient round trips)
//! ```
//!
//! * [`sys::Poller`] wraps the readiness syscalls (no `mio`, no `libc`
//!   crate — see its docs).
//! * [`Connection`] is the per-socket state machine; its life cycle is
//!   documented on [`ConnState`].
//! * [`TokenSlab`] stores connections under generation-checked `u64`
//!   tokens, so a completion for a connection that has since died (and
//!   whose slot was recycled) can never touch the wrong socket.
//! * [`Waker`] lets other threads (a serve worker fulfilling a prediction,
//!   a router relay, or a shutdown caller) interrupt the poller's wait.
//!
//! The reactor thread never blocks on a socket: a slow reader costs a
//! buffered response and a wait for `EPOLLOUT`, not a stalled thread.
//! Work a service defers (node predicts on the serve worker pool, router
//! relays on its relay pool) comes back through a queue plus a waker byte
//! — see the server module docs.

pub mod sys;

pub use sys::{Event, Interest, Poller};

use crate::http::{self, HttpError, Limits, ParseProgress, RequestParser};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Budget for flushing one queued response once the write starts.
const WRITE_DEADLINE: Duration = Duration::from_secs(10);

/// Budget for the half-closed drain before the socket drops (see
/// [`ConnState::Draining`]).
const DRAIN_DEADLINE: Duration = Duration::from_millis(500);

/// Wakes a [`Poller`] wait from another thread by writing one byte into a
/// socketpair whose read end is registered in the poller. Cloneable and
/// cheap: a wake while a wake is already pending is a no-op (the byte just
/// queues, or the pipe is full — either way the poller wakes once).
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    pub fn wake(&self) {
        // WouldBlock means the buffer already holds unread wake bytes — the
        // poller is guaranteed to wake, nothing more to do. Any other error
        // means teardown; equally nothing to do.
        let _ = (&*self.tx).write(&[1]);
    }
}

/// The poller-side half of a [`Waker`] pair: register
/// [`WakeReceiver::fd`] for readability, and [`WakeReceiver::drain`] it on
/// every wake event so level-triggered polling doesn't spin.
pub struct WakeReceiver {
    rx: UnixStream,
}

impl WakeReceiver {
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// Creates a connected waker pair (both ends non-blocking).
pub fn waker_pair() -> io::Result<(Waker, WakeReceiver)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx: Arc::new(tx) }, WakeReceiver { rx }))
}

/// A slab keyed by generation-checked tokens: `token = gen << 32 | index`.
/// Freeing a slot bumps its generation, so a stale token (for example a
/// prediction completion racing a connection teardown) misses instead of
/// addressing whatever connection was recycled into the slot.
pub struct TokenSlab<T> {
    slots: Vec<(u32, Option<T>)>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for TokenSlab<T> {
    fn default() -> Self {
        TokenSlab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }
}

impl<T> TokenSlab<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `value`, returning its token.
    pub fn insert(&mut self, value: T) -> u64 {
        self.len += 1;
        match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                slot.1 = Some(value);
                pack(slot.0, index)
            }
            None => {
                let index = self.slots.len() as u32;
                self.slots.push((0, Some(value)));
                pack(0, index)
            }
        }
    }

    /// The entry for `token`, if the token is current.
    pub fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        let (gen, index) = unpack(token);
        match self.slots.get_mut(index as usize) {
            Some((g, value)) if *g == gen => value.as_mut(),
            _ => None,
        }
    }

    /// Removes and returns the entry for `token`, bumping the slot's
    /// generation so the token (and any copies of it) go stale.
    pub fn remove(&mut self, token: u64) -> Option<T> {
        let (gen, index) = unpack(token);
        match self.slots.get_mut(index as usize) {
            Some((g, value)) if *g == gen && value.is_some() => {
                let taken = value.take();
                *g = g.wrapping_add(1);
                self.free.push(index);
                self.len -= 1;
                taken
            }
            _ => None,
        }
    }

    /// Tokens of all live entries (for deadline sweeps; collected so the
    /// sweep can mutate the slab while iterating).
    pub fn tokens(&self) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, (_, value))| value.is_some())
            .map(|(index, (gen, _))| pack(*gen, index as u32))
            .collect()
    }
}

fn pack(gen: u32, index: u32) -> u64 {
    (u64::from(gen) << 32) | u64::from(index)
}

fn unpack(token: u64) -> (u32, u32) {
    ((token >> 32) as u32, token as u32)
}

/// Where a [`Connection`] is in its request/response life cycle.
///
/// ```text
///            ┌────────────◀─────────────── keep-alive ──┐
///            ▼                                          │
///  ReadingHead ──▶ ReadingBody ──▶ Dispatch ──▶ Writing ─┤
///       │               │   (or straight to Writing      │ close /
///       │               │    for inline-handled and      ▼ error
///       │               │    error responses)        Draining ──▶ closed
///       └── idle timeout┴── request deadline ──▶ closed
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// Waiting for (or incrementally receiving) a request preamble. With
    /// nothing buffered this doubles as the idle keep-alive state, under
    /// [`Limits::idle_timeout`]; once the first byte arrives the clock
    /// tightens to [`Limits::request_deadline`] (slow-loris guard).
    ReadingHead,
    /// Preamble parsed; receiving the `Content-Length`-declared body,
    /// still under the request deadline.
    ReadingBody,
    /// A request the service deferred is in flight (a node predict on the
    /// serve side, a router relay); the socket is quiescent (no read
    /// interest — pipelined bytes stay in the kernel buffer) and has no
    /// deadline of its own: the service owns the latency story.
    Dispatch,
    /// A response is queued and being flushed as the socket accepts it.
    Writing,
    /// Half-closed (`shutdown(Write)` sent): the peer's in-flight bytes
    /// are read and discarded until EOF or a short deadline. Closing with
    /// unread received data would make the kernel send RST, destroying the
    /// just-written response — the very bytes the structured-error
    /// contract promises the client gets to read.
    Draining,
}

/// Outcome of one [`Connection::fill`] read.
#[derive(Debug, PartialEq, Eq)]
pub enum FillOutcome {
    /// Got at least one byte; try parsing.
    Progress,
    /// Nothing available right now; wait for readability.
    WouldBlock,
    /// Clean end-of-stream from the peer.
    Eof,
    /// The socket broke (reset, I/O error); close without ceremony.
    Broken,
}

/// Outcome of one [`Connection::try_write`] flush attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Bytes remain; wait for writability.
    Pending,
    /// Response fully flushed; the connection re-entered
    /// [`ConnState::ReadingHead`] (keep-alive) — attempt a parse, there
    /// may be pipelined bytes already buffered.
    Flushed,
    /// Response fully flushed and the connection moved to
    /// [`ConnState::Draining`] (close requested).
    Closing,
    /// The socket broke mid-write.
    Broken,
}

/// Outcome of one [`Connection::drain`] attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum DrainOutcome {
    /// Still waiting for the peer's EOF.
    Pending,
    /// EOF (or error) seen; the socket can drop now.
    Done,
}

/// One client socket in the reactor: non-blocking stream + incremental
/// parser + response buffer + deadline, advanced through [`ConnState`] by
/// readiness events. All methods are non-blocking; none is ever called
/// from outside the reactor thread.
pub struct Connection {
    stream: TcpStream,
    parser: RequestParser,
    state: ConnState,
    limits: Limits,
    /// Queued response bytes and how many are already written.
    out: Vec<u8>,
    written: usize,
    /// Whether the connection returns to keep-alive after `out` flushes.
    keep_alive_after: bool,
    /// When the current state times out (`None` in [`ConnState::Dispatch`]).
    deadline: Option<Instant>,
    /// Interest currently registered with the poller, to elide no-op
    /// `modify` syscalls ([`Connection::arm`]).
    registered: Interest,
}

impl Connection {
    /// Adopts an accepted stream: non-blocking, `TCP_NODELAY`, idle
    /// deadline running.
    pub fn new(stream: TcpStream, limits: Limits, now: Instant) -> io::Result<Connection> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Connection {
            stream,
            parser: RequestParser::new(limits),
            state: ConnState::ReadingHead,
            limits,
            out: Vec::new(),
            written: 0,
            keep_alive_after: false,
            deadline: Some(now + limits.idle_timeout),
            registered: Interest::READABLE,
        })
    }

    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    pub fn state(&self) -> ConnState {
        self.state
    }

    /// `true` once bytes of a not-yet-carved request are buffered — the
    /// line between "idle keep-alive closed" (silent) and "client vanished
    /// mid-request" (counted).
    pub fn started(&self) -> bool {
        self.parser.buffered() > 0
    }

    /// One non-blocking read into the parser buffer, promoting the idle
    /// deadline to the (tighter) request deadline on a request's first
    /// byte.
    pub fn fill(&mut self, now: Instant) -> FillOutcome {
        let was_idle = self.parser.buffered() == 0;
        match self.parser.read_from(&mut self.stream) {
            Ok(0) => FillOutcome::Eof,
            Ok(_) => {
                if was_idle {
                    self.deadline = Some(now + self.limits.request_deadline);
                }
                FillOutcome::Progress
            }
            Err(e) if http::would_block(&e) => FillOutcome::WouldBlock,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => FillOutcome::WouldBlock,
            Err(_) => FillOutcome::Broken,
        }
    }

    /// Parse progress over the buffered bytes; tracks the
    /// head-vs-body reading state.
    pub fn next_request(&mut self) -> Result<ParseProgress, HttpError> {
        let progress = self.parser.next_request()?;
        match progress {
            ParseProgress::NeedHead => self.state = ConnState::ReadingHead,
            ParseProgress::NeedBody => self.state = ConnState::ReadingBody,
            ParseProgress::Request(_) => {}
        }
        Ok(progress)
    }

    /// Marks the connection as waiting on an in-flight serve-side
    /// dispatch: no socket interest, no deadline.
    pub fn begin_dispatch(&mut self) {
        self.state = ConnState::Dispatch;
        self.deadline = None;
    }

    /// Queues a fully-encoded response and starts the write clock. Call
    /// [`Connection::try_write`] next — the socket is usually writable
    /// already.
    pub fn queue_response(&mut self, bytes: Vec<u8>, keep_alive_after: bool, now: Instant) {
        debug_assert!(self.written >= self.out.len(), "response already in flight");
        self.out = bytes;
        self.written = 0;
        self.keep_alive_after = keep_alive_after;
        self.state = ConnState::Writing;
        self.deadline = Some(now + WRITE_DEADLINE);
    }

    /// Writes as much of the queued response as the socket accepts,
    /// transitioning out of [`ConnState::Writing`] when it completes.
    pub fn try_write(&mut self, now: Instant) -> WriteOutcome {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return WriteOutcome::Broken,
                Ok(n) => self.written += n,
                Err(e) if http::would_block(&e) => return WriteOutcome::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return WriteOutcome::Broken,
            }
        }
        self.out = Vec::new();
        self.written = 0;
        if self.keep_alive_after {
            self.enter_reading(now);
            WriteOutcome::Flushed
        } else {
            self.begin_drain(now);
            WriteOutcome::Closing
        }
    }

    /// Re-enters [`ConnState::ReadingHead`] after a keep-alive response:
    /// pipelined bytes already buffered keep the request deadline; an
    /// empty buffer relaxes to the idle timeout.
    pub fn enter_reading(&mut self, now: Instant) {
        self.state = ConnState::ReadingHead;
        self.deadline = Some(if self.parser.buffered() > 0 {
            now + self.limits.request_deadline
        } else {
            now + self.limits.idle_timeout
        });
    }

    /// Half-closes the stream and starts the drain clock (see
    /// [`ConnState::Draining`]).
    pub fn begin_drain(&mut self, now: Instant) {
        let _ = self.stream.shutdown(Shutdown::Write);
        self.state = ConnState::Draining;
        self.deadline = Some(now + DRAIN_DEADLINE);
    }

    /// Reads and discards whatever the peer is still sending.
    pub fn drain(&mut self) -> DrainOutcome {
        let mut sink = [0u8; 4096];
        loop {
            match self.stream.read(&mut sink) {
                Ok(0) => return DrainOutcome::Done,
                Ok(_) => continue,
                Err(e) if http::would_block(&e) => return DrainOutcome::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return DrainOutcome::Done,
            }
        }
    }

    /// Whether the current state's deadline has passed.
    pub fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|deadline| now >= deadline)
    }

    /// The earliest instant this connection needs a timeout look.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The readiness interest the current state needs.
    pub fn wants(&self) -> Interest {
        match self.state {
            ConnState::ReadingHead | ConnState::ReadingBody | ConnState::Draining => {
                Interest::READABLE
            }
            ConnState::Dispatch => Interest::NONE,
            ConnState::Writing => Interest::WRITABLE,
        }
    }

    /// Syncs the poller's interest for this connection with what the
    /// current state needs, eliding the syscall when nothing changed.
    pub fn arm(&mut self, poller: &mut Poller, token: u64) -> io::Result<()> {
        let wants = self.wants();
        if wants != self.registered {
            poller.modify(self.fd(), token, wants)?;
            self.registered = wants;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_slab_recycles_slots_with_fresh_generations() {
        let mut slab = TokenSlab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get_mut(a), Some(&mut "a"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.len(), 1);
        // The slot is recycled under a new generation; the old token is
        // stale and must miss.
        let c = slab.insert("c");
        assert_ne!(a, c);
        assert_eq!(slab.get_mut(a), None);
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.get_mut(c), Some(&mut "c"));
        assert_eq!(slab.get_mut(b), Some(&mut "b"));
        assert_eq!(slab.tokens().len(), 2);
    }

    #[test]
    fn waker_wakes_and_drains() {
        let (waker, receiver) = waker_pair().unwrap();
        waker.wake();
        waker.wake();
        let mut probe = [0u8; 1];
        // Bytes are pending...
        assert!((&receiver.rx).read(&mut probe).unwrap() > 0);
        receiver.drain();
        // ...and drained: the next read would block rather than yield data.
        assert!(http::would_block(
            &(&receiver.rx).read(&mut probe).unwrap_err()
        ));
    }

    #[test]
    fn poller_reports_readability_on_both_backends() {
        // The unit test drives whichever backend the platform default is;
        // CI additionally runs the whole suite under EXA_WIRE_FORCE_POLL=1.
        let mut poller = Poller::new().unwrap();
        let (waker, receiver) = waker_pair().unwrap();
        poller
            .register(receiver.fd(), 7, Interest::READABLE)
            .unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty(), "no readiness before the wake");
        waker.wake();
        poller.wait(&mut events, Duration::from_secs(5)).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        receiver.drain();
        poller.deregister(receiver.fd()).unwrap();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty(), "deregistered fd reports nothing");
    }
}
