//! Event-driven TCP front-end over [`crate::Engine`], plus a blocking
//! [`Client`].
//!
//! One event-loop thread services every connection on the
//! [`crate::net`] reactor core (epoll on Linux), so thousands of concurrent
//! clients cost file descriptors, not stacks. The reactor owns the
//! sockets; the loop here keeps only the protocol state: a reply FIFO
//! per connection and the shutdown phases. Scale-out is the shard
//! tier's job ([`crate::Router`]), not more loops per server.
//!
//! The reactor reads every ready connection of a wake before the loop
//! handles any frame. A kernel request that is the **only** frame of
//! its wake, across all connections, goes through
//! [`Engine::submit_or_run`]: when the engine is idle — nothing queued
//! or executing on a worker — and a worker arena is free (and the engine
//! is unpaused, chaos-free, and not probing a half-open circuit) the
//! loop runs it itself, as a batch of one, and the reply is ready in the
//! same loop iteration — no thread hand-off, no waker write. A wake that
//! read two or more frames (a pipelined burst, or several clients ready
//! at once) sends all of them to the engine's queues, where workers
//! coalesce them, so no request the wake read waits behind a kernel the
//! loop runs. Workers signal completion through [`Ticket::watch`]
//! callbacks that post a done-marker to the loop's mailbox and poke its
//! [`crate::net::poll::Waker`]. Either way no thread ever parks on an
//! individual request: a ticket already resolved when `submit` returns
//! (an inline run, a degraded answer) becomes a reply at once.
//!
//! Responses on one connection are written **in submission order** (the
//! loop keeps a per-connection FIFO of reply slots and hands only the
//! completed prefix to the reactor), preserving the pre-cluster protocol
//! contract; a client may pipeline freely. Completed frames from many
//! requests coalesce in the connection's out-buffer and leave in one
//! flush per wake.
//!
//! Resilience behaviours carried over from the fault-injection layer:
//!
//! * A request frame failing its checksum, or declaring a body above
//!   the cap, gets a **typed** `BadRequest` response (correlation id 0)
//!   after the replies queued before it, then the connection closes —
//!   never a silent drop.
//! * Body *decode* errors also get a typed id-0 response, but the
//!   connection stays open (framing is still in sync).
//! * Health probes are answered inline from [`crate::Engine::health`],
//!   bypassing the kernel queues, so readiness checks work even when
//!   every robot's queue is saturated.
//! * Hello (handshake) frames are answered inline with the shard's name
//!   and robot roster — how a router learns what a shard serves.
//! * When the engine runs a chaos [`FaultPlan`], response frames are
//!   damaged on the raw wire bytes (after checksum computation, keyed
//!   by correlation id) — which is exactly what makes the corruption
//!   *detectable and retryable* at the client.

use crate::engine::{Engine, ServeError, ServePayload, ServeRequest, ServeResult, Ticket};
use crate::fault::FaultSite;
use crate::net::poll::Waker;
use crate::net::{Burst, FrameViolation, Reactor};
use crate::proto::{
    decode_any_request, decode_hello_response, decode_response, encode_health_request,
    encode_hello_request, encode_hello_response, encode_request, encode_response, frame_bytes,
    read_frame, write_frame, DecodedRequest, HelloInfo, RequestFrame, ResponseFrame,
};
use crate::OBS_CATEGORY;
use roboshape_obs as obs;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the loop sleeps in `wait` before re-checking shutdown flags.
const TICK: Duration = Duration::from_millis(50);

/// How long shutdown keeps flushing responses to clients that have
/// stopped reading before force-closing their connections.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// What the server handle and worker threads share with the loop.
struct Shared {
    /// Stop accepting connections and reading new request frames.
    draining: AtomicBool,
    /// Engine is drained: flush what remains and exit.
    stopped: AtomicBool,
    /// Drop everything immediately (crash simulation / `abort`).
    aborted: AtomicBool,
    /// `(connection token, slot seq)` of tickets that resolved.
    done: Mutex<Vec<(u64, u64)>>,
    waker: Waker,
}

impl Shared {
    fn post_done(&self, token: u64, seq: u64) {
        self.done
            .lock()
            .expect("loop mailbox poisoned")
            .push((token, seq));
        self.waker.wake();
    }
}

/// A running TCP front-end. Dropping it does **not** stop the loop
/// thread; call [`Server::shutdown`] for an orderly stop.
pub struct Server {
    engine: Engine,
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections against `engine`.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn start(engine: Engine, addr: impl ToSocketAddrs) -> io::Result<Server> {
        Server::named(engine, addr, "solo".to_string())
    }

    /// As [`Server::start`], announcing `shard_name` in hello
    /// handshakes; [`crate::Shard::start`] names its server here.
    pub(crate) fn named(
        engine: Engine,
        addr: impl ToSocketAddrs,
        shard_name: String,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut event_loop = EventLoop::new(engine.clone(), shard_name, listener)?;
        let shared = Arc::clone(&event_loop.shared);
        let thread = std::thread::spawn(move || event_loop.run());
        Ok(Server {
            engine,
            addr: local,
            shared,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Orderly stop: close the accept loop, stop reading new requests,
    /// drain the engine (every accepted request still gets its response
    /// frame), then join the loop thread.
    pub fn shutdown(mut self) {
        let _span = obs::span(OBS_CATEGORY, "server-shutdown");
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        // Engine drain resolves every outstanding ticket; each watch
        // callback lands in the loop's mailbox, so responses keep
        // flushing while this blocks.
        self.engine.shutdown();
        self.shared.stopped.store(true, Ordering::SeqCst);
        self.join();
    }

    /// Crash-style stop: drop every connection and in-flight request on
    /// the floor, no drain, no goodbye frames. Exists so cluster tests
    /// can kill a shard mid-run and exercise the router's failover path
    /// exactly as a SIGKILL would.
    pub fn abort(mut self) {
        self.shared.aborted.store(true, Ordering::SeqCst);
        self.join();
        // Reap worker threads; resolved results are discarded.
        self.engine.shutdown();
    }

    fn join(&mut self) {
        self.shared.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One reply slot in a connection's submission-order FIFO.
struct Slot {
    seq: u64,
    state: SlotState,
}

enum SlotState {
    /// Awaiting the engine; the watch callback will post `(token, seq)`.
    Waiting(Ticket, u64),
    /// Wire bytes ready for the reactor.
    Ready(Vec<u8>),
    /// The stream broke framing here: the typed goodbye, then close.
    Goodbye(FrameViolation),
}

/// One connection's reply FIFO.
#[derive(Default)]
struct Replies {
    pending: VecDeque<Slot>,
    next_seq: u64,
}

impl Replies {
    fn push(&mut self, state: SlotState) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(Slot { seq, state });
    }
}

struct EventLoop {
    engine: Engine,
    shard_name: String,
    shared: Arc<Shared>,
    reactor: Reactor,
    /// Reply FIFOs of connections that sent a frame, by token.
    replies: HashMap<u64, Replies>,
    /// Connections counted in the `serve.shard.connections` gauge.
    counted: usize,
}

impl EventLoop {
    fn new(engine: Engine, shard_name: String, listener: TcpListener) -> io::Result<EventLoop> {
        let (reactor, waker) = Reactor::new(Some(listener))?;
        let shared = Arc::new(Shared {
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            done: Mutex::new(Vec::new()),
            waker,
        });
        Ok(EventLoop {
            engine,
            shard_name,
            shared,
            reactor,
            replies: HashMap::new(),
            counted: 0,
        })
    }

    fn run(&mut self) {
        let _span = obs::span(OBS_CATEGORY, "event-loop");
        let mut bursts = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        while !self.shared.aborted.load(Ordering::SeqCst) {
            if self.shared.draining.load(Ordering::SeqCst) {
                // Stop taking on new work; completions still arrive.
                self.reactor.stop_reading();
            }
            if self.reactor.wait(TICK, &mut bursts).is_err() {
                break;
            }
            self.handle_bursts(&mut bursts);
            self.take_done();
            self.flush();
            if self.shared.stopped.load(Ordering::SeqCst) {
                let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                let unfinished = self.replies.values().any(|r| !r.pending.is_empty())
                    || self.reactor.has_output();
                if !unfinished || Instant::now() >= deadline {
                    break;
                }
            }
        }
        self.engine
            .metrics()
            .shard_connections
            .add(-(self.counted as f64));
    }

    /// Handles one wake's frames. `lone` — the wake read exactly one
    /// frame, from any connection — is the inline rule's condition.
    fn handle_bursts(&mut self, bursts: &mut Vec<Burst>) {
        let lone = bursts.iter().map(|b| b.frames.len()).sum::<usize>() == 1;
        for burst in bursts.drain(..) {
            for body in burst.frames {
                self.handle_frame(burst.token, body, lone);
            }
            if let Some(violation) = burst.violation {
                self.replies
                    .entry(burst.token)
                    .or_default()
                    .push(SlotState::Goodbye(violation));
            }
            self.advance(burst.token);
        }
    }

    /// Decodes one request frame and queues its reply slot. Only a
    /// `lone` frame may run inline, so pipelined bursts and concurrent
    /// clients keep the coalescing worker path, and no request the wake
    /// read waits behind an inline kernel.
    fn handle_frame(&mut self, token: u64, body: Vec<u8>, lone: bool) {
        let engine = &self.engine;
        let replies = self.replies.entry(token).or_default();
        let state = match decode_any_request(&body) {
            Ok(DecodedRequest::Kernel(RequestFrame { id, req })) => {
                let submitted = if lone {
                    engine.submit_or_run(req)
                } else {
                    engine.submit(req)
                };
                match submitted {
                    // Resolved already (ran inline, or answered degraded):
                    // the reply is ready in this loop iteration.
                    Ok(ticket) => match ticket.try_take() {
                        Some(result) => SlotState::Ready(wire_result(engine, id, result)),
                        None => {
                            let (shared, seq) = (Arc::clone(&self.shared), replies.next_seq);
                            ticket.watch(move || shared.post_done(token, seq));
                            SlotState::Waiting(ticket, id)
                        }
                    },
                    Err(e) => SlotState::Ready(wire_result(engine, id, Err(e))),
                }
            }
            Ok(DecodedRequest::Health { id }) => SlotState::Ready(wire_result(
                engine,
                id,
                Ok(ServePayload::Health(engine.health())),
            )),
            Ok(DecodedRequest::Hello { id }) => {
                engine.metrics().shard_hello.add(1);
                let info = HelloInfo {
                    shard: self.shard_name.clone(),
                    robots: engine.health().robots.into_iter().map(|r| r.name).collect(),
                };
                SlotState::Ready(wire_response(engine, id, encode_hello_response(id, &info)))
            }
            Err(e) => SlotState::Ready(wire_result(
                engine,
                0,
                Err(ServeError::BadRequest(e.to_string())),
            )),
        };
        replies.push(state);
    }

    /// Turns resolved tickets from the mailbox into ready replies.
    fn take_done(&mut self) {
        let done = std::mem::take(&mut *self.shared.done.lock().expect("loop mailbox poisoned"));
        for (token, seq) in done {
            // A connection already gone misses: its reply is dropped.
            let Some(replies) = self.replies.get_mut(&token) else {
                continue;
            };
            if let Some(slot) = replies.pending.iter_mut().find(|s| s.seq == seq) {
                if let SlotState::Waiting(ticket, id) = &slot.state {
                    let result = ticket.try_take().unwrap_or(Err(ServeError::WorkerCrashed));
                    slot.state = SlotState::Ready(wire_result(&self.engine, *id, result));
                }
            }
            self.advance(token);
        }
    }

    /// Hands the completed prefix of a connection's FIFO to the reactor.
    fn advance(&mut self, token: u64) {
        let Some(replies) = self.replies.get_mut(&token) else {
            return;
        };
        while let Some(slot) = replies.pending.front() {
            match &slot.state {
                SlotState::Waiting(..) => break,
                SlotState::Ready(wire) => {
                    self.reactor.send(token, wire);
                }
                SlotState::Goodbye(violation) => self.reactor.goodbye(token, *violation),
            }
            replies.pending.pop_front();
        }
    }

    /// Flushes the wake's output, forgets connections that died, and
    /// keeps the connection gauge current.
    fn flush(&mut self) {
        for token in self.reactor.flush() {
            self.replies.remove(&token);
        }
        let open = self.reactor.len();
        if open != self.counted {
            self.engine
                .metrics()
                .shard_connections
                .add(open as f64 - self.counted as f64);
            self.counted = open;
        }
    }
}

/// Frames a response body and applies deterministic chaos wire
/// corruption, keyed by correlation id.
fn wire_response(engine: &Engine, id: u64, body: Vec<u8>) -> Vec<u8> {
    let mut wire = frame_bytes(&body);
    if let Some(plan) = engine.fault_plan() {
        if plan.fires(FaultSite::FrameCorrupt, id) {
            plan.corrupt_wire(id, &mut wire);
            engine.metrics().fault_corrupt.add(1);
        }
    }
    wire
}

/// Encodes and frames the reply to request `id`.
fn wire_result(engine: &Engine, id: u64, result: ServeResult) -> Vec<u8> {
    wire_response(
        engine,
        id,
        encode_response(&ResponseFrame::direct(id, result)),
    )
}

/// A blocking client for the serve protocol. Not thread-safe; use one
/// per thread (the load generator does exactly that).
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a running [`Server`] (or router).
    ///
    /// # Errors
    ///
    /// Propagates connection I/O errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, next_id: 0 })
    }

    /// Bounds how long [`Client::recv`] blocks for a frame. The load
    /// generator sets this as its per-request timeout budget so a
    /// truncated (stream-desyncing) frame resolves as a timeout instead
    /// of a hang.
    ///
    /// # Errors
    ///
    /// Propagates socket-option I/O errors.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// The id the next [`Client::send`] will use.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Overrides the next correlation id. A reconnecting client carries
    /// its id sequence forward so retried requests get *fresh* ids —
    /// with deterministic chaos keyed on the id, re-using an id would
    /// deterministically re-trigger the same frame corruption forever.
    pub fn set_next_id(&mut self, id: u64) {
        self.next_id = id;
    }

    /// Sends a request without waiting; returns its correlation id.
    /// Pair with [`Client::recv`] to pipeline.
    ///
    /// # Errors
    ///
    /// Propagates write I/O errors.
    pub fn send(&mut self, req: &ServeRequest) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let body = encode_request(&RequestFrame {
            id,
            req: req.clone(),
        });
        write_frame(&mut self.stream, &body)?;
        Ok(id)
    }

    /// Receives the next response frame. Against a single-engine
    /// [`Server`] responses arrive in submission order; against a
    /// router they arrive in *completion* order — correlate by
    /// [`ResponseFrame::id`].
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` if the server closed the connection; `InvalidData`
    /// for an undecodable, corrupted, or oversized frame.
    pub fn recv(&mut self) -> io::Result<ResponseFrame> {
        let body = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        decode_response(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Round-trips one request.
    ///
    /// # Errors
    ///
    /// As [`Client::send`] and [`Client::recv`].
    pub fn call(&mut self, req: &ServeRequest) -> io::Result<ServeResult> {
        let id = self.send(req)?;
        let frame = self.recv()?;
        debug_assert_eq!(frame.id, id, "single outstanding request");
        Ok(frame.result)
    }

    /// As [`Client::call`], also reporting whether the router answered
    /// from a fallback shard.
    ///
    /// # Errors
    ///
    /// As [`Client::send`] and [`Client::recv`].
    pub fn call_tracked(&mut self, req: &ServeRequest) -> io::Result<ResponseFrame> {
        let id = self.send(req)?;
        let frame = self.recv()?;
        debug_assert_eq!(frame.id, id, "single outstanding request");
        Ok(frame)
    }

    /// Round-trips a health probe.
    ///
    /// # Errors
    ///
    /// I/O errors as [`Client::recv`]; `InvalidData` if the server
    /// answers with something other than a health payload.
    pub fn health(&mut self) -> io::Result<crate::engine::HealthReport> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &encode_health_request(id))?;
        let frame = self.recv()?;
        match frame.result {
            Ok(ServePayload::Health(report)) => Ok(report),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a health payload, got {other:?}"),
            )),
        }
    }

    /// Round-trips a hello handshake: the peer's shard identity and
    /// robot roster. A shard answers with its own name; a router answers
    /// `"router"` with the fleet's merged roster.
    ///
    /// # Errors
    ///
    /// I/O errors as [`Client::recv`]; `InvalidData` if the peer answers
    /// with something other than a hello frame.
    pub fn hello(&mut self) -> io::Result<crate::proto::HelloInfo> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &encode_hello_request(id))?;
        let body = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        let (got, info) = decode_hello_response(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        debug_assert_eq!(got, id, "single outstanding request");
        Ok(info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use roboshape_pipeline::Pipeline;
    use roboshape_robots::{zoo, Zoo};
    use std::io::Write;

    /// A loop over `engine` accepting on an ephemeral port, with no
    /// thread of its own: the test drives it one wake at a time.
    fn manual_loop(engine: &Engine) -> (EventLoop, SocketAddr) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let event_loop =
            EventLoop::new(engine.clone(), "test".into(), listener).expect("event loop");
        (event_loop, addr)
    }

    /// A client connection the loop has accepted, with its token
    /// (tokens count up from zero, and this test drops none).
    fn connect(event_loop: &mut EventLoop, addr: SocketAddr) -> (TcpStream, u64) {
        let client = TcpStream::connect(addr).expect("connect");
        let token = event_loop.reactor.len() as u64;
        let mut bursts = Vec::new();
        while event_loop.reactor.len() as u64 == token {
            event_loop
                .reactor
                .wait(Duration::from_secs(5), &mut bursts)
                .expect("accept");
        }
        (client, token)
    }

    /// Reads until a frame from every connection of `tokens` is in,
    /// then hands them to the loop as one wake. Readiness is
    /// level-triggered, so a poll that saw only some of them loses
    /// nothing.
    fn wake_with(event_loop: &mut EventLoop, tokens: &[u64]) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let (mut wake, mut bursts) = (Vec::new(), Vec::new());
        while !tokens
            .iter()
            .all(|t| wake.iter().any(|b: &Burst| b.token == *t))
        {
            assert!(Instant::now() < deadline, "connections never readable");
            event_loop
                .reactor
                .wait(Duration::from_millis(10), &mut bursts)
                .expect("poll");
            wake.append(&mut bursts);
        }
        event_loop.handle_bursts(&mut wake);
    }

    fn gradient_frame(id: u64) -> Vec<u8> {
        frame_bytes(&encode_request(&RequestFrame {
            id,
            req: ServeRequest::gradient("iiwa", vec![0.3; 7], vec![0.1; 7], vec![0.5; 7]),
        }))
    }

    #[test]
    fn only_a_wake_that_read_a_single_frame_runs_it_inline() {
        let engine = Engine::with_pipeline(EngineConfig::default(), Pipeline::new());
        engine.register("iiwa", zoo(Zoo::Iiwa));
        let (mut event_loop, addr) = manual_loop(&engine);
        let (mut a, token_a) = connect(&mut event_loop, addr);
        let (mut b, token_b) = connect(&mut event_loop, addr);

        // One frame in the wake, idle engine: the loop runs it itself.
        a.write_all(&gradient_frame(1)).expect("send");
        wake_with(&mut event_loop, &[token_a]);
        let stats = engine.stats();
        assert_eq!((stats.inline, stats.submitted), (1, 1), "{stats:?}");

        // One frame on each of two connections in the same wake: both go
        // to the workers, although each is alone on its connection.
        a.write_all(&gradient_frame(2)).expect("send");
        b.write_all(&gradient_frame(3)).expect("send");
        wake_with(&mut event_loop, &[token_a, token_b]);
        let stats = engine.stats();
        assert_eq!((stats.inline, stats.submitted), (1, 3), "{stats:?}");
        engine.shutdown();
        assert_eq!(engine.stats().completed, 3);
    }
}
