//! The event-loop core both front-ends run on.
//!
//! A [`Reactor`] owns a [`Poller`], the loop's [`WakeRx`], an optional
//! accept listener and one table of framed connections keyed by token.
//! Its owner — the single-engine [`crate::Server`] or the cluster
//! [`crate::Router`] — keeps only protocol state and drives one loop
//! iteration as:
//!
//! 1. [`Reactor::wait`]: accept, then read **every** ready connection
//!    of the wake before returning any frame, so the owner sees the
//!    wake's whole frame count (the server's inline rule needs it);
//! 2. handle the returned [`Burst`]s, queueing replies with
//!    [`Reactor::send`] (or [`Reactor::goodbye`] after a framing
//!    violation);
//! 3. [`Reactor::flush`]: write each connection that queued bytes once,
//!    reconcile its poller interest, and hand back the tokens of the
//!    connections that died so the owner can clean up.
//!
//! Tokens count up from zero and are never reused, so a late reply for
//! a connection that has gone simply misses.

use super::poll::{Event, Interest, Poller, WakeRx, Waker, WAKE_TOKEN};
use super::{FlushOutcome, FrameConn, FrameViolation, ReadOutcome};
use crate::engine::ServeError;
use crate::proto::{encode_response, frame_bytes, ProtoError, ResponseFrame};
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::Duration;

/// Poller token of the accept listener.
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// One connection's frames from a wake, in arrival order.
#[derive(Debug)]
pub struct Burst {
    /// The connection the frames came from.
    pub token: u64,
    /// Verified frame bodies.
    pub frames: Vec<Vec<u8>>,
    /// Set when the stream broke framing after `frames`; the connection
    /// is no longer read. The owner either sends [`Reactor::goodbye`]
    /// or closes it.
    pub violation: Option<FrameViolation>,
}

struct Conn {
    conn: FrameConn,
    /// Registered poller interest, tracked to skip redundant syscalls.
    interest: Interest,
    /// Cleared by end of stream, a framing violation or a goodbye.
    reading: bool,
    /// Drop once the out-queue drains.
    closing: bool,
    /// Listed in `Reactor::dirty` for the next flush.
    dirty: bool,
}

/// The shared event-loop core (see the module docs).
pub struct Reactor {
    poller: Poller,
    wake_rx: WakeRx,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Connections to flush and reconcile at the next [`Reactor::flush`].
    dirty: Vec<u64>,
    /// Reused buffer of poller events.
    events: Vec<Event>,
    /// Cleared by [`Reactor::stop_reading`].
    reading: bool,
}

impl Reactor {
    /// A reactor accepting on `listener` (if any), plus the [`Waker`]
    /// other threads use to interrupt its [`Reactor::wait`].
    ///
    /// # Errors
    ///
    /// Propagates poller, waker or listener setup failures.
    pub fn new(listener: Option<TcpListener>) -> io::Result<(Reactor, Waker)> {
        let (waker, wake_rx) = Waker::new()?;
        let mut poller = Poller::new()?;
        poller.register(wake_rx.fd(), WAKE_TOKEN, Interest::READABLE)?;
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
            poller.register(l.as_raw_fd(), LISTEN_TOKEN, Interest::READABLE)?;
        }
        let reactor = Reactor {
            poller,
            wake_rx,
            listener,
            conns: HashMap::new(),
            next_token: 0,
            dirty: Vec::new(),
            events: Vec::new(),
            reading: true,
        };
        Ok((reactor, waker))
    }

    /// Registers a connected stream (accepted or dialed) and returns its
    /// token.
    ///
    /// # Errors
    ///
    /// Propagates socket-option or registration failures.
    pub fn add(&mut self, stream: TcpStream) -> io::Result<u64> {
        let conn = FrameConn::new(stream)?;
        let token = self.next_token;
        self.next_token += 1;
        self.poller.register(conn.fd(), token, Interest::READABLE)?;
        self.conns.insert(
            token,
            Conn {
                conn,
                interest: Interest::READABLE,
                reading: true,
                closing: false,
                dirty: false,
            },
        );
        Ok(token)
    }

    /// Waits up to `timeout` for readiness, accepts pending connections,
    /// and reads every ready connection, replacing `bursts` with the
    /// frames read.
    ///
    /// # Errors
    ///
    /// Propagates a poller failure; the loop should stop.
    pub fn wait(&mut self, timeout: Duration, bursts: &mut Vec<Burst>) -> io::Result<()> {
        bursts.clear();
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        let waited = self.poller.wait(&mut events, Some(timeout));
        for event in &events {
            match event.token {
                WAKE_TOKEN => self.wake_rx.drain(),
                LISTEN_TOKEN => self.accept(),
                _ => self.read(event, bursts),
            }
        }
        self.events = events;
        waited
    }

    fn accept(&mut self) {
        while let Some(Ok((stream, _))) = self.listener.as_ref().map(TcpListener::accept) {
            let _ = self.add(stream);
        }
    }

    fn read(&mut self, event: &Event, bursts: &mut Vec<Burst>) {
        let Some(c) = self.conns.get_mut(&event.token) else {
            return;
        };
        let mut frames = Vec::new();
        let mut violation = None;
        if event.readable && c.reading && self.reading {
            match c.conn.read_frames(|frame| frames.push(frame)) {
                ReadOutcome::Open => {}
                ReadOutcome::Closed => c.end(true),
                ReadOutcome::Violation(v) => {
                    c.end(false);
                    violation = Some(v);
                }
            }
        } else if event.hangup {
            c.end(true);
        }
        if event.writable || !c.reading {
            mark(&mut self.dirty, event.token, c);
        }
        if !frames.is_empty() || violation.is_some() {
            bursts.push(Burst {
                token: event.token,
                frames,
                violation,
            });
        }
    }

    /// Queues framed wire bytes on `token` for the next flush. Returns
    /// `false` when the connection is gone.
    pub fn send(&mut self, token: u64, wire: &[u8]) -> bool {
        let Some(c) = self.conns.get_mut(&token) else {
            return false;
        };
        c.conn.queue_wire(wire);
        mark(&mut self.dirty, token, c);
        true
    }

    /// Answers a framing violation on `token` with a typed
    /// `BadRequest` on correlation id 0, then closes the connection once
    /// that is flushed: the stream position is unrecoverable, but the
    /// peer learns *why* instead of seeing a bare EOF.
    pub fn goodbye(&mut self, token: u64, violation: FrameViolation) {
        let err = ServeError::BadRequest(ProtoError::from(violation).to_string());
        let wire = frame_bytes(&encode_response(&ResponseFrame::direct(0, Err(err))));
        if self.send(token, &wire) {
            self.conns.get_mut(&token).expect("just sent").end(true);
        }
    }

    /// Stops accepting and stops reading every connection; queued
    /// output keeps flushing. Used while draining.
    pub fn stop_reading(&mut self) {
        if !self.reading {
            return;
        }
        self.reading = false;
        if let Some(l) = self.listener.take() {
            let _ = self.poller.deregister(l.as_raw_fd());
        }
        for (&token, c) in &mut self.conns {
            mark(&mut self.dirty, token, c);
        }
    }

    /// Writes each connection that queued bytes or turned writable since
    /// the last flush, once, and reconciles its poller interest. Returns
    /// the tokens of the connections that died: the peer went away, or
    /// a closing connection finished draining.
    pub fn flush(&mut self) -> Vec<u64> {
        let mut dead = Vec::new();
        let mut dirty = std::mem::take(&mut self.dirty);
        for &token in &dirty {
            let Some(c) = self.conns.get_mut(&token) else {
                continue;
            };
            c.dirty = false;
            let gone = c.conn.flush() == FlushOutcome::Closed;
            let want = Interest {
                readable: c.reading && self.reading,
                writable: c.conn.wants_write(),
            };
            let finished = c.closing && !want.writable;
            if gone
                || finished
                || (want != c.interest && self.poller.modify(c.conn.fd(), token, want).is_err())
            {
                self.close(token);
                dead.push(token);
            } else {
                c.interest = want;
            }
        }
        dirty.clear();
        self.dirty = dirty;
        dead
    }

    /// Drops `token` now, discarding its queued output. Not reported by
    /// [`Reactor::flush`]: the owner asked for it.
    pub fn close(&mut self, token: u64) {
        if let Some(c) = self.conns.remove(&token) {
            let _ = self.poller.deregister(c.conn.fd());
        }
    }

    /// Whether any connection still has bytes waiting to be written.
    pub fn has_output(&self) -> bool {
        self.conns.values().any(|c| c.conn.wants_write())
    }

    /// Open connections.
    pub fn len(&self) -> usize {
        self.conns.len()
    }
}

impl Conn {
    /// Stops reading; with `close`, drops the connection once drained.
    fn end(&mut self, close: bool) {
        self.reading = false;
        self.closing |= close;
    }
}

/// Lists `c` for the next flush, once.
fn mark(dirty: &mut Vec<u64>, token: u64, c: &mut Conn) {
    if !c.dirty {
        c.dirty = true;
        dirty.push(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_response, read_frame};
    use std::io::{Read, Write};
    use std::time::Instant;

    /// A reactor, its waker (kept alive: a dropped waker reads as a
    /// wake on every wait) and a listener to connect clients through.
    fn reactor_with_listener() -> (Reactor, Waker, TcpListener) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (reactor, waker) = Reactor::new(None).expect("reactor");
        (reactor, waker, listener)
    }

    /// A client connected to `reactor`, with its token.
    fn connect(reactor: &mut Reactor, listener: &TcpListener) -> (TcpStream, u64) {
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        let token = reactor.add(server_side).expect("add");
        (client, token)
    }

    /// Waits until `done` holds, collecting bursts and dead tokens.
    fn turn_until(
        reactor: &mut Reactor,
        mut done: impl FnMut(&[Burst], &[u64]) -> bool,
    ) -> (Vec<Burst>, Vec<u64>) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let (mut all, mut dead) = (Vec::new(), Vec::new());
        let mut bursts = Vec::new();
        while !done(&all, &dead) {
            assert!(Instant::now() < deadline, "reactor never got there");
            reactor
                .wait(Duration::from_millis(10), &mut bursts)
                .expect("wait");
            all.append(&mut bursts);
            dead.extend(reactor.flush());
        }
        (all, dead)
    }

    #[test]
    fn one_wake_returns_every_ready_connection_before_any_is_handled() {
        let (mut reactor, _waker, listener) = reactor_with_listener();
        let (mut a, token_a) = connect(&mut reactor, &listener);
        let (mut b, token_b) = connect(&mut reactor, &listener);
        a.write_all(&frame_bytes(b"from a")).expect("send");
        b.write_all(&frame_bytes(b"from b")).expect("send");
        std::thread::sleep(Duration::from_millis(20));
        let mut bursts = Vec::new();
        reactor
            .wait(Duration::from_secs(5), &mut bursts)
            .expect("wait");
        let mut got: Vec<(u64, Vec<Vec<u8>>)> =
            bursts.into_iter().map(|b| (b.token, b.frames)).collect();
        got.sort();
        assert_eq!(
            got,
            vec![
                (token_a, vec![b"from a".to_vec()]),
                (token_b, vec![b"from b".to_vec()])
            ]
        );
    }

    #[test]
    fn a_peer_hang_up_flushes_queued_output_then_drops() {
        let (mut reactor, _waker, listener) = reactor_with_listener();
        let (mut client, token) = connect(&mut reactor, &listener);
        // More than the socket buffers hold: output is still queued when
        // the hang-up is read.
        let reply = frame_bytes(&vec![7u8; 8 << 20]);
        assert!(reactor.send(token, &reply));
        assert!(reactor.flush().is_empty());
        client
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        // The wake that reads the end of stream keeps the connection
        // while its output is blocked.
        let mut bursts = Vec::new();
        reactor
            .wait(Duration::from_millis(100), &mut bursts)
            .expect("wait");
        assert!(reactor.flush().is_empty());
        assert!(reactor.has_output());
        // Nor does the half-closed read side wake the loop again: the
        // next wait sleeps out its timeout instead of spinning.
        let idle = Instant::now();
        reactor
            .wait(Duration::from_millis(100), &mut bursts)
            .expect("wait");
        assert!(
            reactor.events.iter().all(|e| e.token != token),
            "{:?}",
            reactor.events
        );
        assert!(idle.elapsed() >= Duration::from_millis(80));
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            client.read_to_end(&mut got).map(|_| got)
        });
        let (_, dead) = turn_until(&mut reactor, |_, dead| !dead.is_empty());
        assert_eq!(dead, vec![token]);
        assert_eq!(reactor.len(), 0);
        let got = reader.join().expect("reader").expect("a clean EOF");
        assert!(
            got == reply,
            "{} of {} bytes arrived",
            got.len(),
            reply.len()
        );
    }

    #[test]
    fn a_closing_connection_stops_reading_and_drops_once_drained() {
        let (mut reactor, _waker, listener) = reactor_with_listener();
        let (mut client, token) = connect(&mut reactor, &listener);
        let mut wire = frame_bytes(b"damaged");
        let last = wire.len() - 1;
        wire[last] ^= 1;
        client.write_all(&wire).expect("send");
        let (bursts, _) = turn_until(&mut reactor, |bursts, _| !bursts.is_empty());
        assert_eq!(bursts[0].violation, Some(FrameViolation::BadChecksum));
        // No longer read: a valid frame after the violation stays unread.
        client.write_all(&frame_bytes(b"ignored")).expect("send");
        let mut more = Vec::new();
        reactor
            .wait(Duration::from_millis(50), &mut more)
            .expect("wait");
        assert!(more.is_empty(), "{more:?}");
        assert!(reactor.flush().is_empty(), "open until the goodbye");
        reactor.goodbye(token, FrameViolation::BadChecksum);
        assert_eq!(reactor.flush(), vec![token]);
        let body = read_frame(&mut client).expect("read").expect("goodbye");
        let frame = decode_response(&body).expect("typed");
        assert_eq!(frame.id, 0);
        assert!(
            matches!(frame.result, Err(ServeError::BadRequest(ref m)) if m.contains("checksum"))
        );
        // Closed: a clean EOF, or a reset for the frame left unread.
        assert!(matches!(client.read(&mut [0u8; 1]), Ok(0) | Err(_)));
    }

    #[test]
    fn a_dropped_token_is_never_handed_out_again() {
        let (mut reactor, _waker, listener) = reactor_with_listener();
        let (client, first) = connect(&mut reactor, &listener);
        drop(client);
        let (_, dead) = turn_until(&mut reactor, |_, dead| !dead.is_empty());
        assert_eq!(dead, vec![first]);
        assert!(!reactor.send(first, b"late"), "a dead token misses");
        let (_, second) = connect(&mut reactor, &listener);
        reactor.close(second);
        let (_, third) = connect(&mut reactor, &listener);
        assert!(first < second && second < third);
        assert!(!reactor.send(second, b"late"));
        assert!(reactor.send(third, b"fresh"));
    }
}
