//! Event-driven TCP front-end over [`crate::Engine`], plus a blocking
//! [`Client`].
//!
//! Connections are serviced by a **bounded set of event-loop threads**
//! (default one; see [`ServerOptions::loops`]) instead of the previous
//! two-threads-per-connection design, so thousands of concurrent
//! clients cost file descriptors, not stacks. Each loop owns a
//! [`crate::net::poll::Poller`] (epoll on Linux) and a set of
//! non-blocking [`crate::net::FrameConn`]s.
//!
//! A loop reads every ready connection of a wake before it handles any
//! frame. A kernel request that is the **only** frame of its wake,
//! across all the loop's connections, goes through
//! [`Engine::submit_or_run`]: when the engine is idle — nothing queued
//! or executing on a worker — and a worker arena is free (and the engine
//! is unpaused, chaos-free, and not probing a half-open circuit) the
//! loop runs it itself, as a batch of one, and the reply is ready in the
//! same loop iteration — no thread hand-off, no waker write. A wake that
//! read two or more frames (a pipelined burst, or several clients ready
//! at once) sends all of them to the engine's queues, where workers
//! coalesce them, so no request the wake read waits behind a kernel the
//! loop runs. Workers signal completion through [`Ticket::watch`]
//! callbacks that enqueue a done-marker and poke the loop's
//! [`crate::net::poll::Waker`]. Either way no thread ever parks on an
//! individual request: a ticket already resolved when `submit` returns
//! (an inline run, a degraded answer) becomes a reply at once.
//!
//! Responses on one connection are written **in submission order** (the
//! loop keeps a per-connection FIFO of reply slots and flushes only the
//! completed prefix), preserving the pre-cluster protocol contract; a
//! client may pipeline freely. Completed frames from many requests
//! coalesce in the connection's out-buffer and leave in as few `write`
//! syscalls as the socket accepts.
//!
//! Resilience behaviours carried over from the fault-injection layer:
//!
//! * A request frame failing its checksum, or declaring a body above
//!   the cap, gets a **typed** `BadRequest` response (correlation id 0)
//!   before the connection closes — never a silent drop.
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
use crate::net::poll::{Event, Interest, Poller, WakeRx, Waker, WAKE_TOKEN};
use crate::net::{FlushOutcome, FrameConn, FrameViolation, ReadOutcome};
use crate::proto::{
    decode_any_request, decode_hello_response, decode_response, encode_health_request,
    encode_hello_request, encode_hello_response, encode_request, encode_response, frame_bytes,
    read_frame, write_frame, DecodedRequest, HelloInfo, ProtoError, RequestFrame, ResponseFrame,
};
use crate::OBS_CATEGORY;
use roboshape_obs as obs;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a loop sleeps in `wait` before re-checking shutdown flags.
const TICK: Duration = Duration::from_millis(50);

/// How long shutdown keeps flushing responses to clients that have
/// stopped reading before force-closing their connections.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Poller token of the accept listener (loop 0 only).
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// Tuning knobs for [`Server::start_with`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Name announced in hello (handshake) responses; shards set their
    /// operator-assigned name here.
    pub shard_name: String,
    /// Event-loop threads servicing connections. One loop comfortably
    /// drives thousands of connections; more only help past one
    /// saturated core.
    pub loops: usize,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            shard_name: "solo".to_string(),
            loops: 1,
        }
    }
}

/// Shutdown phases shared by every loop thread.
struct Shared {
    /// Stop accepting connections and reading new request frames.
    draining: AtomicBool,
    /// Engine is drained: flush what remains and exit.
    stopped: AtomicBool,
    /// Drop everything immediately (crash simulation / `abort`).
    aborted: AtomicBool,
    /// Round-robin cursor assigning accepted connections to loops.
    next_loop: AtomicUsize,
}

/// Cross-thread mailbox of one event loop.
struct LoopHandle {
    waker: Waker,
    inbox: Arc<Mutex<VecDeque<LoopMsg>>>,
}

impl LoopHandle {
    fn post(&self, msg: LoopMsg) {
        self.inbox
            .lock()
            .expect("loop inbox poisoned")
            .push_back(msg);
        self.waker.wake();
    }
}

enum LoopMsg {
    /// A freshly-accepted connection assigned to this loop.
    Adopt(TcpStream),
    /// The ticket behind `(conn token, slot seq)` resolved.
    Done(u64, u64),
}

/// A running TCP front-end. Dropping it does **not** stop the threads;
/// call [`Server::shutdown`] for an orderly stop.
pub struct Server {
    engine: Engine,
    addr: SocketAddr,
    shared: Arc<Shared>,
    handles: Vec<Arc<LoopHandle>>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections against `engine` with default
    /// options.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn start(engine: Engine, addr: impl ToSocketAddrs) -> io::Result<Server> {
        Server::start_with(engine, addr, ServerOptions::default())
    }

    /// As [`Server::start`], with explicit [`ServerOptions`].
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn start_with(
        engine: Engine,
        addr: impl ToSocketAddrs,
        options: ServerOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            next_loop: AtomicUsize::new(0),
        });
        let n_loops = options.loops.max(1);
        let mut handles = Vec::with_capacity(n_loops);
        let mut wake_rxs = Vec::with_capacity(n_loops);
        for _ in 0..n_loops {
            let (waker, rx) = Waker::new()?;
            handles.push(Arc::new(LoopHandle {
                waker,
                inbox: Arc::new(Mutex::new(VecDeque::new())),
            }));
            wake_rxs.push(rx);
        }
        let handles_arc: Arc<Vec<Arc<LoopHandle>>> = Arc::new(handles.clone());
        let mut threads = Vec::with_capacity(n_loops);
        for (index, rx) in wake_rxs.into_iter().enumerate() {
            let mut event_loop = EventLoop::new(
                engine.clone(),
                options.shard_name.clone(),
                Arc::clone(&shared),
                Arc::clone(&handles_arc),
                index,
                rx,
                if index == 0 {
                    Some(listener.try_clone()?)
                } else {
                    None
                },
            )?;
            threads.push(std::thread::spawn(move || event_loop.run()));
        }
        Ok(Server {
            engine,
            addr: local,
            shared,
            handles,
            threads,
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
    /// frame), then join every loop thread.
    pub fn shutdown(mut self) {
        let _span = obs::span(OBS_CATEGORY, "server-shutdown");
        self.shared.draining.store(true, Ordering::SeqCst);
        for handle in &self.handles {
            handle.waker.wake();
        }
        // Engine drain resolves every outstanding ticket; each watch
        // callback lands in its loop's inbox, so responses keep
        // flushing while this blocks.
        self.engine.shutdown();
        self.shared.stopped.store(true, Ordering::SeqCst);
        for handle in &self.handles {
            handle.waker.wake();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    /// Crash-style stop: drop every connection and in-flight request on
    /// the floor, no drain, no goodbye frames. Exists so cluster tests
    /// can kill a shard mid-run and exercise the router's failover path
    /// exactly as a SIGKILL would.
    pub fn abort(mut self) {
        self.shared.aborted.store(true, Ordering::SeqCst);
        self.shared.stopped.store(true, Ordering::SeqCst);
        self.shared.draining.store(true, Ordering::SeqCst);
        for handle in &self.handles {
            handle.waker.wake();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        // Reap worker threads; resolved results are discarded.
        self.engine.shutdown();
    }
}

/// One reply slot in a connection's submission-order FIFO.
struct Slot {
    seq: u64,
    state: SlotState,
}

enum SlotState {
    /// Awaiting the engine; the watch callback will post `Done`.
    Waiting(Ticket, u64),
    /// Wire bytes ready to enter the out-buffer.
    Ready(Vec<u8>),
    /// Flushed into the out-buffer.
    Sent,
}

struct ConnState {
    conn: FrameConn,
    pending: VecDeque<Slot>,
    next_seq: u64,
    /// Registered poller interest, tracked to avoid redundant syscalls.
    interest: Interest,
    /// Framing violated: stop reading, close once the FIFO flushes.
    closing: bool,
}

/// What one ready connection's read pass produced, held until every
/// connection of the wake has been read.
struct Burst {
    token: u64,
    bodies: Vec<Vec<u8>>,
    /// `None` when the connection was not read (not readable, draining,
    /// or closing after a framing violation).
    outcome: Option<ReadOutcome>,
    writable: bool,
    hangup: bool,
}

struct EventLoop {
    engine: Engine,
    shard_name: String,
    shared: Arc<Shared>,
    handles: Arc<Vec<Arc<LoopHandle>>>,
    index: usize,
    poller: Poller,
    wake_rx: WakeRx,
    listener: Option<TcpListener>,
    conns: HashMap<u64, ConnState>,
    next_token: u64,
    /// Reused buffer of the current wake's reads.
    bursts: Vec<Burst>,
}

impl EventLoop {
    #[allow(clippy::too_many_arguments)]
    fn new(
        engine: Engine,
        shard_name: String,
        shared: Arc<Shared>,
        handles: Arc<Vec<Arc<LoopHandle>>>,
        index: usize,
        wake_rx: WakeRx,
        listener: Option<TcpListener>,
    ) -> io::Result<EventLoop> {
        let mut poller = Poller::new()?;
        poller.register(wake_rx.fd(), WAKE_TOKEN, Interest::READABLE)?;
        if let Some(l) = &listener {
            use std::os::unix::io::AsRawFd;
            poller.register(l.as_raw_fd(), LISTEN_TOKEN, Interest::READABLE)?;
        }
        Ok(EventLoop {
            engine,
            shard_name,
            shared,
            handles,
            index,
            poller,
            wake_rx,
            listener,
            conns: HashMap::new(),
            next_token: 0,
            bursts: Vec::new(),
        })
    }

    fn run(&mut self) {
        let _span = obs::span(OBS_CATEGORY, "event-loop");
        let mut events = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        loop {
            if self.shared.aborted.load(Ordering::SeqCst) {
                break;
            }
            if self.shared.stopped.load(Ordering::SeqCst) {
                let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                self.drain_inbox();
                self.flush_all();
                let unfinished = self
                    .conns
                    .values()
                    .any(|c| !c.pending.is_empty() || c.conn.wants_write());
                if !unfinished || Instant::now() >= deadline {
                    break;
                }
            } else if self.shared.draining.load(Ordering::SeqCst) {
                // Stop taking on new work; completions still arrive.
                if let Some(l) = self.listener.take() {
                    use std::os::unix::io::AsRawFd;
                    let _ = self.poller.deregister(l.as_raw_fd());
                }
                self.park_readers();
            }
            events.clear();
            if self.poller.wait(&mut events, Some(TICK)).is_err() {
                break;
            }
            self.handle_wake(&events);
            self.drain_inbox();
        }
        let remaining = self.conns.len() as f64;
        if remaining > 0.0 {
            self.engine.metrics().shard_connections.add(-remaining);
        }
        self.conns.clear();
    }

    /// Services one poller wake. Every ready connection is read before
    /// any frame is handled: the inline rule needs the wake's total
    /// frame count.
    fn handle_wake(&mut self, events: &[Event]) {
        let mut bursts = core::mem::take(&mut self.bursts);
        for event in events {
            match event.token {
                WAKE_TOKEN => self.wake_rx.drain(),
                LISTEN_TOKEN => self.accept_ready(),
                token => {
                    if let Some(burst) =
                        self.read_ready(token, event.readable, event.writable, event.hangup)
                    {
                        bursts.push(burst);
                    }
                }
            }
        }
        let lone = bursts.iter().map(|b| b.bodies.len()).sum::<usize>() == 1;
        for burst in bursts.drain(..) {
            self.finish_ready(burst, lone);
        }
        self.bursts = bursts;
    }

    /// Accepts until the listener would block, spreading connections
    /// round-robin over the loop set.
    fn accept_ready(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(l) => l.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _peer)) => {
                    let target =
                        self.shared.next_loop.fetch_add(1, Ordering::Relaxed) % self.handles.len();
                    if target == self.index {
                        self.adopt(stream);
                    } else {
                        self.handles[target].post(LoopMsg::Adopt(stream));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        let conn = match FrameConn::new(stream) {
            Ok(c) => c,
            Err(_) => return,
        };
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(conn.fd(), token, Interest::READABLE)
            .is_err()
        {
            return;
        }
        self.engine.metrics().shard_connections.add(1.0);
        self.conns.insert(
            token,
            ConnState {
                conn,
                pending: VecDeque::new(),
                next_seq: 0,
                interest: Interest::READABLE,
                closing: false,
            },
        );
    }

    fn drain_inbox(&mut self) {
        loop {
            let msg = {
                let mut inbox = self.handles[self.index]
                    .inbox
                    .lock()
                    .expect("loop inbox poisoned");
                inbox.pop_front()
            };
            match msg {
                Some(LoopMsg::Adopt(stream)) => {
                    if self.shared.draining.load(Ordering::SeqCst) {
                        continue;
                    }
                    self.adopt(stream);
                }
                Some(LoopMsg::Done(token, seq)) => self.ticket_done(token, seq),
                None => return,
            }
        }
    }

    /// During drain: stop reading request frames, keep write interest.
    fn park_readers(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let conn = self.conns.get_mut(&token).expect("token just listed");
            let want = Interest {
                readable: false,
                writable: conn.conn.wants_write(),
            };
            if conn.interest != want {
                let _ = self.poller.modify(conn.conn.fd(), token, want);
                conn.interest = want;
            }
        }
    }

    fn flush_all(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.advance_conn(token);
        }
    }

    /// Reads what a ready connection has buffered, without handling it
    /// yet. `None` when the connection is gone.
    fn read_ready(
        &mut self,
        token: u64,
        readable: bool,
        writable: bool,
        hangup: bool,
    ) -> Option<Burst> {
        let draining = self.shared.draining.load(Ordering::SeqCst);
        let state = self.conns.get_mut(&token)?;
        let mut bodies = Vec::new();
        let outcome = if readable && !draining && !state.closing {
            Some(state.conn.read_frames(|body| bodies.push(body)))
        } else {
            None
        };
        Some(Burst {
            token,
            bodies,
            outcome,
            writable,
            hangup,
        })
    }

    /// Handles one connection's burst, then flushes what is ready. `lone`
    /// says the burst's frame was the only one the whole wake produced.
    fn finish_ready(&mut self, burst: Burst, lone: bool) {
        let token = burst.token;
        for body in burst.bodies {
            self.handle_frame(token, body, lone);
        }
        match burst.outcome {
            None | Some(ReadOutcome::Open) => {}
            Some(ReadOutcome::Closed) => {
                self.drop_conn(token);
                return;
            }
            Some(ReadOutcome::Violation(v)) => self.handle_violation(token, v),
        }
        if burst.hangup && !burst.writable {
            // Peer hung up and nothing more can be written to it.
            if let Some(state) = self.conns.get(&token) {
                if !state.conn.wants_write() {
                    self.drop_conn(token);
                    return;
                }
            }
        }
        self.advance_conn(token);
    }

    /// Decodes one request frame and queues its reply slot. `lone` says
    /// the frame was the only one this loop wake read, from any
    /// connection: only then may a kernel request run inline, so
    /// pipelined bursts and concurrent clients keep the coalescing
    /// worker path, and no request the wake read waits behind an inline
    /// kernel.
    fn handle_frame(&mut self, token: u64, body: Vec<u8>, lone: bool) {
        enum Action {
            Submit(u64, ServeRequest),
            Immediate(Vec<u8>),
        }
        let action = match decode_any_request(&body) {
            Ok(DecodedRequest::Kernel(RequestFrame { id, req })) => Action::Submit(id, req),
            Ok(DecodedRequest::Health { id }) => Action::Immediate(encode_response(
                &ResponseFrame::direct(id, Ok(ServePayload::Health(self.engine.health()))),
            )),
            Ok(DecodedRequest::Hello { id }) => {
                self.engine.metrics().shard_hello.add(1);
                let robots = self
                    .engine
                    .health()
                    .robots
                    .into_iter()
                    .map(|r| r.name)
                    .collect();
                Action::Immediate(encode_hello_response(
                    id,
                    &HelloInfo {
                        shard: self.shard_name.clone(),
                        robots,
                    },
                ))
            }
            Err(e) => Action::Immediate(encode_response(&ResponseFrame::direct(
                0,
                Err(ServeError::BadRequest(e.to_string())),
            ))),
        };
        match action {
            Action::Submit(id, req) => {
                let state = match self.conns.get_mut(&token) {
                    Some(s) => s,
                    None => return,
                };
                let seq = state.next_seq;
                state.next_seq += 1;
                let submitted = if lone {
                    self.engine.submit_or_run(req)
                } else {
                    self.engine.submit(req)
                };
                let slot_state = match submitted {
                    // Resolved already (ran inline, or answered degraded):
                    // the reply is ready in this loop iteration.
                    Ok(ticket) => match ticket.try_take() {
                        Some(result) => SlotState::Ready(wire_result(&self.engine, id, result)),
                        None => {
                            let handle = Arc::clone(&self.handles[self.index]);
                            ticket.watch(move || handle.post(LoopMsg::Done(token, seq)));
                            SlotState::Waiting(ticket, id)
                        }
                    },
                    Err(e) => SlotState::Ready(wire_result(&self.engine, id, Err(e))),
                };
                state.pending.push_back(Slot {
                    seq,
                    state: slot_state,
                });
            }
            Action::Immediate(resp_body) => {
                let id = u64::from_le_bytes(resp_body[..8].try_into().expect("id bytes"));
                let wire = wire_response(&self.engine, id, resp_body);
                if let Some(state) = self.conns.get_mut(&token) {
                    let seq = state.next_seq;
                    state.next_seq += 1;
                    state.pending.push_back(Slot {
                        seq,
                        state: SlotState::Ready(wire),
                    });
                }
            }
        }
    }

    fn handle_violation(&mut self, token: u64, violation: FrameViolation) {
        let err = match violation {
            FrameViolation::TooLarge(len) => ProtoError::FrameTooLarge(len),
            FrameViolation::BadChecksum => ProtoError::ChecksumMismatch,
        };
        // Typed goodbye on id 0, then close once the FIFO flushes: the
        // stream position is unrecoverable, but the client learns *why*
        // instead of seeing a bare EOF.
        let wire = wire_result(
            &self.engine,
            0,
            Err(ServeError::BadRequest(err.to_string())),
        );
        if let Some(state) = self.conns.get_mut(&token) {
            let seq = state.next_seq;
            state.next_seq += 1;
            state.pending.push_back(Slot {
                seq,
                state: SlotState::Ready(wire),
            });
            state.closing = true;
        }
    }

    fn ticket_done(&mut self, token: u64, seq: u64) {
        let state = match self.conns.get_mut(&token) {
            Some(s) => s,
            // Connection already gone; the result is simply dropped,
            // matching the old writer's behaviour for vanished clients.
            None => return,
        };
        let slot = match state.pending.iter_mut().find(|s| s.seq == seq) {
            Some(s) => s,
            None => return,
        };
        if let SlotState::Waiting(ticket, id) = &slot.state {
            let id = *id;
            let result: ServeResult = ticket.try_take().unwrap_or(Err(ServeError::WorkerCrashed));
            slot.state = SlotState::Ready(wire_result(&self.engine, id, result));
        }
        self.advance_conn(token);
    }

    /// Moves the completed prefix of the FIFO into the out-buffer,
    /// flushes, and reconciles poller interest / close state.
    fn advance_conn(&mut self, token: u64) {
        let mut drop_after = false;
        let draining = self.shared.draining.load(Ordering::SeqCst);
        {
            let state = match self.conns.get_mut(&token) {
                Some(s) => s,
                None => return,
            };
            while let Some(front) = state.pending.front_mut() {
                match &mut front.state {
                    SlotState::Ready(wire) => {
                        let bytes = std::mem::take(wire);
                        state.conn.queue_wire(&bytes);
                        front.state = SlotState::Sent;
                        state.pending.pop_front();
                    }
                    SlotState::Sent => {
                        state.pending.pop_front();
                    }
                    SlotState::Waiting(..) => break,
                }
            }
            match state.conn.flush() {
                FlushOutcome::Closed => drop_after = true,
                FlushOutcome::Drained | FlushOutcome::Blocked => {}
            }
            if !drop_after && state.closing && state.pending.is_empty() && !state.conn.wants_write()
            {
                drop_after = true;
            }
            if !drop_after {
                let want = Interest {
                    readable: !state.closing && !draining,
                    writable: state.conn.wants_write(),
                };
                if want != state.interest {
                    if self.poller.modify(state.conn.fd(), token, want).is_err() {
                        drop_after = true;
                    } else {
                        state.interest = want;
                    }
                }
            }
        }
        if drop_after {
            self.drop_conn(token);
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(state) = self.conns.remove(&token) {
            let _ = self.poller.deregister(state.conn.fd());
            self.engine.metrics().shard_connections.add(-1.0);
        }
    }
}

/// Frames a response body and applies deterministic chaos wire
/// corruption, keyed by correlation id exactly as the old writer thread
/// did.
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

    /// A loop over `engine` with no thread of its own: the test drives
    /// it one wake at a time.
    fn manual_loop(engine: &Engine) -> EventLoop {
        let (waker, rx) = Waker::new().expect("waker");
        let handles = Arc::new(vec![Arc::new(LoopHandle {
            waker,
            inbox: Arc::new(Mutex::new(VecDeque::new())),
        })]);
        let shared = Arc::new(Shared {
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            next_loop: AtomicUsize::new(0),
        });
        EventLoop::new(engine.clone(), "test".into(), shared, handles, 0, rx, None)
            .expect("event loop")
    }

    /// A client connection adopted by `event_loop`, with its token.
    fn connect(event_loop: &mut EventLoop, listener: &TcpListener) -> (TcpStream, u64) {
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        let token = event_loop.next_token;
        event_loop.adopt(server_side);
        (client, token)
    }

    /// Waits for a wake in which every connection of `tokens` is
    /// readable. Readiness is level-triggered, so a wake that saw only
    /// some of them loses nothing.
    fn wake_with(event_loop: &mut EventLoop, tokens: &[u64]) -> Vec<Event> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut events = Vec::new();
        loop {
            events.clear();
            event_loop
                .poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("poll");
            let ready = |t: &u64| events.iter().any(|e| e.token == *t && e.readable);
            if tokens.iter().all(ready) {
                return events;
            }
            assert!(Instant::now() < deadline, "connections never readable");
        }
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
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let mut event_loop = manual_loop(&engine);
        let (mut a, token_a) = connect(&mut event_loop, &listener);
        let (mut b, token_b) = connect(&mut event_loop, &listener);

        // One frame in the wake, idle engine: the loop runs it itself.
        a.write_all(&gradient_frame(1)).expect("send");
        let events = wake_with(&mut event_loop, &[token_a]);
        event_loop.handle_wake(&events);
        let stats = engine.stats();
        assert_eq!((stats.inline, stats.submitted), (1, 1), "{stats:?}");

        // One frame on each of two connections in the same wake: both go
        // to the workers, although each is alone on its connection.
        a.write_all(&gradient_frame(2)).expect("send");
        b.write_all(&gradient_frame(3)).expect("send");
        let events = wake_with(&mut event_loop, &[token_a, token_b]);
        event_loop.handle_wake(&events);
        let stats = engine.stats();
        assert_eq!((stats.inline, stats.submitted), (1, 3), "{stats:?}");
        engine.shutdown();
        assert_eq!(engine.stats().completed, 3);
    }
}
