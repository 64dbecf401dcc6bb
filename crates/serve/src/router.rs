//! The cluster front-end: one event-driven process that
//! consistent-hashes requests by robot across N shard processes.
//!
//! The router accepts ordinary protocol clients (nothing in the client
//! changes between single-engine and cluster mode), peeks each request's
//! robot name without decoding the `f64` payload, walks the
//! [`HashRing`] preference order to the first *alive* shard, and
//! forwards the body verbatim — only the correlation id is rewritten to
//! a router-global upstream id, and the checksum re-computed. Responses
//! stream back the moment a shard produces them (**completion order**,
//! not submission order; clients correlate by id) with the client's id
//! patched back in and, when a fallback shard answered,
//! [`crate::proto::REROUTED_FLAG`] OR-ed into the status byte.
//!
//! The failover ladder generalizes the per-robot circuit breaker to
//! shard granularity:
//!
//! 1. **Admission shed** — a shard with `max_inflight_per_shard`
//!    requests outstanding sheds new work with a typed `Rejected`
//!    (clients retry with backoff, exactly as for queue-full).
//! 2. **Reroute** — when a shard's connection dies, every request
//!    pending on it is re-dispatched to the next alive shard in that
//!    robot's ring preference, and new requests for its robots route
//!    there too; answers carry the `Rerouted` flag.
//! 3. **Degrade** — a rerouted robot lands on a shard whose own circuit
//!    breaker may be open, in which case the shard answers `Degraded`
//!    from the analytical model; with *no* shard alive the router sheds
//!    with a typed `Rejected` and health probes report `ready=false`.
//!
//! Everything runs on one event-loop thread built from the same
//! [`crate::net`] pieces as the shard server: client sockets and
//! upstream shard sockets sit in the same poller, so a response's path
//! through the router is wake → patch id → queue → flush, with no
//! cross-thread handoff. A dead shard is redialed every
//! `reconnect_interval` and re-enters the ring (hello handshake, then
//! alive) without dropping anything.

use crate::engine::{HealthReport, ServeError, ServePayload};
use crate::net::poll::{Interest, Poller, WakeRx, Waker, WAKE_TOKEN};
use crate::net::{FlushOutcome, FrameConn, FrameViolation, ReadOutcome};
use crate::proto::{
    decode_hello_response, decode_response, encode_health_request, encode_hello_request,
    encode_hello_response, encode_response, frame_bytes, peek_request_route, peek_response_head,
    rewrite_id, status_is_hello, HelloInfo, ProtoError, ResponseFrame,
};
use crate::shard::{HashRing, ShardSpec};
use crate::{
    OBS_CATEGORY, ROUTER_FAILOVERS_METRIC, ROUTER_INFLIGHT_METRIC, ROUTER_REQUESTS_METRIC,
    ROUTER_REROUTED_METRIC, ROUTER_RESPONSES_METRIC, ROUTER_SHARDS_ALIVE_METRIC,
    ROUTER_SHED_METRIC,
};
use roboshape_obs::{self as obs, Counter, Gauge, MetricsRegistry};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token of the accept listener.
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// How long the loop sleeps in `wait` before re-checking the stop flag
/// and the reconnect schedule.
const TICK: Duration = Duration::from_millis(50);

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The shard fleet, in config order (ring identity comes from the
    /// names, so order does not matter for placement).
    pub shards: Vec<ShardSpec>,
    /// Per-shard admission cap: requests outstanding on one shard
    /// before new work for it is shed with a typed `Rejected`.
    pub max_inflight_per_shard: usize,
    /// Dial timeout for shard connections.
    pub connect_timeout: Duration,
    /// How long a dead shard waits between redial attempts.
    pub reconnect_interval: Duration,
}

impl RouterConfig {
    /// Defaults for a given fleet: 512 in-flight per shard, 250 ms
    /// dials, 200 ms redial interval.
    pub fn new(shards: Vec<ShardSpec>) -> RouterConfig {
        RouterConfig {
            shards,
            max_inflight_per_shard: 512,
            connect_timeout: Duration::from_millis(250),
            reconnect_interval: Duration::from_millis(200),
        }
    }
}

/// Live counters the CLI polls for its exit condition and summary line.
/// The same events also feed the `serve.router.*` metrics; these
/// are per-router and cheap to read.
#[derive(Debug, Default)]
pub struct RouterStats {
    /// Kernel requests accepted from clients (routed or shed).
    pub requests: AtomicU64,
    /// Responses forwarded back to clients (any status).
    pub responses: AtomicU64,
    /// Requests shed by the router itself (admission cap / no shard).
    pub shed: AtomicU64,
    /// Requests dispatched to a non-owner shard (initial or failover).
    pub rerouted: AtomicU64,
    /// Shard connections lost (each one triggers pending re-dispatch).
    pub failovers: AtomicU64,
}

impl RouterStats {
    /// Responses plus router-side sheds — every client-visible outcome.
    pub fn settled(&self) -> u64 {
        self.responses.load(Ordering::Relaxed) + self.shed.load(Ordering::Relaxed)
    }
}

/// The metric handles one router updates, resolved once from a
/// registry at start: the loop then touches lock-free atomics instead
/// of looking a name up per request.
struct RouterMetrics {
    requests: Arc<Counter>,
    responses: Arc<Counter>,
    rerouted: Arc<Counter>,
    shed: Arc<Counter>,
    failovers: Arc<Counter>,
    shards_alive: Arc<Gauge>,
    inflight: Arc<Gauge>,
}

impl RouterMetrics {
    /// Resolving registers every name, so `--metrics` snapshots always
    /// contain the full `serve.router.*` vocabulary even on an
    /// uneventful run — a missing key means an old binary, not a quiet
    /// fleet.
    fn new(m: &MetricsRegistry) -> RouterMetrics {
        let metrics = RouterMetrics {
            requests: m.counter(ROUTER_REQUESTS_METRIC),
            responses: m.counter(ROUTER_RESPONSES_METRIC),
            rerouted: m.counter(ROUTER_REROUTED_METRIC),
            shed: m.counter(ROUTER_SHED_METRIC),
            failovers: m.counter(ROUTER_FAILOVERS_METRIC),
            shards_alive: m.gauge(ROUTER_SHARDS_ALIVE_METRIC),
            inflight: m.gauge(ROUTER_INFLIGHT_METRIC),
        };
        metrics.shards_alive.set(0.0);
        metrics.inflight.set(0.0);
        metrics
    }
}

/// A running router. Call [`Router::shutdown`] for an orderly stop.
pub struct Router {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    stats: Arc<RouterStats>,
    thread: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds `addr` and starts routing across `config.shards`. Shards
    /// that are down at start are redialed in the background; the
    /// router serves (shedding their robots) meanwhile.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn start(config: RouterConfig, addr: impl ToSocketAddrs) -> io::Result<Router> {
        Router::start_with_registry(config, addr, obs::metrics())
    }

    /// As [`Router::start`], reporting the router's `serve.router.*`
    /// metrics to `registry` instead of the process-wide one, so tests
    /// can assert exact counts while other routers run alongside.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn start_with_registry(
        config: RouterConfig,
        addr: impl ToSocketAddrs,
        registry: &MetricsRegistry,
    ) -> io::Result<Router> {
        let metrics = RouterMetrics::new(registry);
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(RouterStats::default());
        let (waker, wake_rx) = Waker::new()?;
        let mut inner = RouterLoop::new(
            config,
            listener,
            wake_rx,
            Arc::clone(&stop),
            Arc::clone(&stats),
            metrics,
        )?;
        let thread = std::thread::spawn(move || inner.run());
        Ok(Router {
            addr: local,
            stop,
            waker,
            stats,
            thread: Some(thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Live counters (shared with the loop thread).
    pub fn stats(&self) -> Arc<RouterStats> {
        Arc::clone(&self.stats)
    }

    /// Stops the loop and joins it. In-flight requests whose shard
    /// responses have not arrived are dropped — stop traffic first.
    pub fn shutdown(mut self) {
        let _span = obs::span(OBS_CATEGORY, "router-shutdown");
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// What one upstream correlation id is waiting for.
enum Pending {
    /// A client's kernel request: everything needed to answer — or to
    /// re-dispatch on failover (the original body, un-rewritten).
    Client {
        token: u64,
        id: u64,
        robot: String,
        body: Vec<u8>,
        rerouted: bool,
        attempts: usize,
    },
    /// One leg of a health fan-out.
    HealthFan { fanout: u64 },
    /// The handshake sent right after connecting.
    Hello,
}

/// An aggregating health probe: one client request, one leg per alive
/// shard.
struct FanOut {
    token: u64,
    id: u64,
    remaining: usize,
    reports: Vec<(usize, HealthReport)>,
}

struct ClientConn {
    conn: FrameConn,
    interest: Interest,
    closing: bool,
}

enum LinkState {
    Down,
    Up {
        conn: FrameConn,
        token: u64,
        interest: Interest,
        pending: HashMap<u64, Pending>,
        hello: Option<HelloInfo>,
    },
}

struct ShardLink {
    spec: ShardSpec,
    state: LinkState,
    last_attempt: Option<Instant>,
}

struct RouterLoop {
    config: RouterConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<RouterStats>,
    metrics: RouterMetrics,
    poller: Poller,
    wake_rx: WakeRx,
    listener: TcpListener,
    ring: HashRing,
    clients: HashMap<u64, ClientConn>,
    shards: Vec<ShardLink>,
    /// token → shard index, for upstream connections.
    shard_tokens: HashMap<u64, usize>,
    fanouts: HashMap<u64, FanOut>,
    next_token: u64,
    next_uid: u64,
    next_fanout: u64,
}

impl RouterLoop {
    fn new(
        config: RouterConfig,
        listener: TcpListener,
        wake_rx: WakeRx,
        stop: Arc<AtomicBool>,
        stats: Arc<RouterStats>,
        metrics: RouterMetrics,
    ) -> io::Result<RouterLoop> {
        let mut poller = Poller::new()?;
        poller.register(wake_rx.fd(), WAKE_TOKEN, Interest::READABLE)?;
        poller.register(listener.as_raw_fd(), LISTEN_TOKEN, Interest::READABLE)?;
        let ring = HashRing::new(
            &config
                .shards
                .iter()
                .map(|s| s.name.clone())
                .collect::<Vec<_>>(),
        );
        let shards = config
            .shards
            .iter()
            .map(|spec| ShardLink {
                spec: spec.clone(),
                state: LinkState::Down,
                last_attempt: None,
            })
            .collect();
        Ok(RouterLoop {
            config,
            stop,
            stats,
            metrics,
            poller,
            wake_rx,
            listener,
            ring,
            clients: HashMap::new(),
            shards,
            shard_tokens: HashMap::new(),
            fanouts: HashMap::new(),
            next_token: 0,
            next_uid: 0,
            next_fanout: 0,
        })
    }

    fn run(&mut self) {
        let _span = obs::span(OBS_CATEGORY, "router-loop");
        let mut events = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            self.redial_down_shards();
            events.clear();
            if self.poller.wait(&mut events, Some(TICK)).is_err() {
                break;
            }
            let drained = std::mem::take(&mut events);
            for event in &drained {
                match event.token {
                    WAKE_TOKEN => self.wake_rx.drain(),
                    LISTEN_TOKEN => self.accept_ready(),
                    token if self.shard_tokens.contains_key(&token) => {
                        let idx = self.shard_tokens[&token];
                        self.shard_ready(idx, event.readable, event.hangup);
                    }
                    token => self.client_ready(token, event.readable, event.hangup),
                }
            }
            events = drained;
            self.publish_gauges();
        }
        self.metrics.shards_alive.set(0.0);
        self.metrics.inflight.set(0.0);
    }

    fn publish_gauges(&self) {
        let alive = self
            .shards
            .iter()
            .filter(|s| matches!(s.state, LinkState::Up { .. }))
            .count();
        let inflight: usize = self
            .shards
            .iter()
            .map(|s| match &s.state {
                LinkState::Up { pending, .. } => pending.len(),
                LinkState::Down => 0,
            })
            .sum();
        self.metrics.shards_alive.set(alive as f64);
        self.metrics.inflight.set(inflight as f64);
    }

    /// Dials every down shard whose redial interval has elapsed, and
    /// sends the hello handshake on success.
    fn redial_down_shards(&mut self) {
        for idx in 0..self.shards.len() {
            let due = {
                let link = &self.shards[idx];
                matches!(link.state, LinkState::Down)
                    && link
                        .last_attempt
                        .is_none_or(|t| t.elapsed() >= self.config.reconnect_interval)
            };
            if !due {
                continue;
            }
            self.shards[idx].last_attempt = Some(Instant::now());
            let addr = self.shards[idx].spec.addr;
            let stream = match TcpStream::connect_timeout(&addr, self.config.connect_timeout) {
                Ok(s) => s,
                Err(_) => continue,
            };
            let conn = match FrameConn::new(stream) {
                Ok(c) => c,
                Err(_) => continue,
            };
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .register(conn.fd(), token, Interest::READABLE)
                .is_err()
            {
                continue;
            }
            self.shard_tokens.insert(token, idx);
            self.shards[idx].state = LinkState::Up {
                conn,
                token,
                interest: Interest::READABLE,
                pending: HashMap::new(),
                hello: None,
            };
            let uid = self.next_uid;
            self.next_uid += 1;
            let wire = frame_bytes(&encode_hello_request(uid));
            if let LinkState::Up { conn, pending, .. } = &mut self.shards[idx].state {
                pending.insert(uid, Pending::Hello);
                conn.queue_wire(&wire);
            }
            self.flush_shard(idx);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let conn = match FrameConn::new(stream) {
                        Ok(c) => c,
                        Err(_) => continue,
                    };
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(conn.fd(), token, Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    self.clients.insert(
                        token,
                        ClientConn {
                            conn,
                            interest: Interest::READABLE,
                            closing: false,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn client_ready(&mut self, token: u64, readable: bool, hangup: bool) {
        if readable {
            let (bodies, outcome) = {
                let client = match self.clients.get_mut(&token) {
                    Some(c) => c,
                    None => return,
                };
                if client.closing {
                    (Vec::new(), ReadOutcome::Open)
                } else {
                    let mut bodies = Vec::new();
                    let outcome = client.conn.read_frames(|b| bodies.push(b));
                    (bodies, outcome)
                }
            };
            for body in bodies {
                self.handle_client_frame(token, body);
            }
            match outcome {
                ReadOutcome::Open => {}
                ReadOutcome::Closed => {
                    self.drop_client(token);
                    return;
                }
                ReadOutcome::Violation(v) => {
                    let err = match v {
                        FrameViolation::TooLarge(len) => ProtoError::FrameTooLarge(len),
                        FrameViolation::BadChecksum => ProtoError::ChecksumMismatch,
                    };
                    let wire = frame_bytes(&encode_response(&ResponseFrame::direct(
                        0,
                        Err(ServeError::BadRequest(err.to_string())),
                    )));
                    if let Some(client) = self.clients.get_mut(&token) {
                        client.conn.queue_wire(&wire);
                        client.closing = true;
                    }
                }
            }
        }
        if hangup {
            let gone = self
                .clients
                .get(&token)
                .is_some_and(|c| !c.conn.wants_write());
            if gone {
                self.drop_client(token);
                return;
            }
        }
        self.reconcile_client(token);
    }

    fn handle_client_frame(&mut self, token: u64, body: Vec<u8>) {
        let route = match peek_request_route(&body) {
            Ok(r) => r,
            Err(e) => {
                self.send_to_client(
                    token,
                    &frame_bytes(&encode_response(&ResponseFrame::direct(
                        0,
                        Err(ServeError::BadRequest(e.to_string())),
                    ))),
                );
                return;
            }
        };
        if route.is_health {
            self.fan_out_health(token, route.id);
            return;
        }
        let robot = match route.robot {
            Some(r) => r,
            None => {
                // A hello aimed at the router: answer with the fleet's
                // merged roster so operators can introspect the cluster
                // with the same handshake shards speak.
                let mut robots: Vec<String> = self
                    .shards
                    .iter()
                    .filter_map(|s| match &s.state {
                        LinkState::Up {
                            hello: Some(info), ..
                        } => Some(info.robots.clone()),
                        _ => None,
                    })
                    .flatten()
                    .collect();
                robots.sort_unstable();
                robots.dedup();
                let wire = frame_bytes(&encode_hello_response(
                    route.id,
                    &HelloInfo {
                        shard: "router".to_string(),
                        robots,
                    },
                ));
                self.send_to_client(token, &wire);
                return;
            }
        };
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.metrics.requests.add(1);
        let entry = Pending::Client {
            token,
            id: route.id,
            robot,
            body,
            rerouted: false,
            attempts: 0,
        };
        self.dispatch(entry);
    }

    /// Routes a pending client entry to the first alive shard in its
    /// robot's preference order, shedding typed errors when the ladder
    /// runs out. Re-used verbatim by failover (with `rerouted` set).
    fn dispatch(&mut self, entry: Pending) {
        let (token, id, robot, body, mut rerouted, attempts) = match entry {
            Pending::Client {
                token,
                id,
                robot,
                body,
                rerouted,
                attempts,
            } => (token, id, robot, body, rerouted, attempts),
            _ => return,
        };
        if attempts >= self.shards.len().max(1) {
            self.shed(token, id, "request bounced across every shard".to_string());
            return;
        }
        let preference = if self.ring.is_empty() {
            Vec::new()
        } else {
            self.ring.preference(&robot)
        };
        let owner = preference.first().copied();
        let chosen = preference
            .into_iter()
            .find(|&idx| matches!(self.shards[idx].state, LinkState::Up { .. }));
        let chosen = match chosen {
            Some(c) => c,
            None => {
                self.shed(token, id, format!("no shard alive for robot {robot}"));
                return;
            }
        };
        if Some(chosen) != owner {
            rerouted = true;
        }
        let over_cap = match &self.shards[chosen].state {
            LinkState::Up { pending, .. } => pending.len() >= self.config.max_inflight_per_shard,
            LinkState::Down => true,
        };
        if over_cap {
            let name = self.shards[chosen].spec.name.clone();
            self.shed(
                token,
                id,
                format!(
                    "shard {name} at capacity ({} in flight)",
                    self.config.max_inflight_per_shard
                ),
            );
            return;
        }
        if rerouted {
            self.stats.rerouted.fetch_add(1, Ordering::Relaxed);
            self.metrics.rerouted.add(1);
        }
        let uid = self.next_uid;
        self.next_uid += 1;
        let mut upstream_body = body.clone();
        rewrite_id(&mut upstream_body, uid, false);
        let wire = frame_bytes(&upstream_body);
        if let LinkState::Up { conn, pending, .. } = &mut self.shards[chosen].state {
            pending.insert(
                uid,
                Pending::Client {
                    token,
                    id,
                    robot,
                    body,
                    rerouted,
                    attempts: attempts + 1,
                },
            );
            conn.queue_wire(&wire);
        }
        self.flush_shard(chosen);
    }

    /// Typed router-side rejection (admission cap or an empty fleet).
    fn shed(&mut self, token: u64, id: u64, reason: String) {
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
        self.metrics.shed.add(1);
        let wire = frame_bytes(&encode_response(&ResponseFrame::direct(
            id,
            Err(ServeError::Rejected { reason }),
        )));
        self.send_to_client(token, &wire);
    }

    fn fan_out_health(&mut self, token: u64, id: u64) {
        let alive: Vec<usize> = (0..self.shards.len())
            .filter(|&i| matches!(self.shards[i].state, LinkState::Up { .. }))
            .collect();
        if alive.is_empty() {
            let wire = frame_bytes(&encode_response(&ResponseFrame::direct(
                id,
                Ok(ServePayload::Health(HealthReport {
                    ready: false,
                    robots: Vec::new(),
                })),
            )));
            self.send_to_client(token, &wire);
            return;
        }
        let fanout_id = self.next_fanout;
        self.next_fanout += 1;
        self.fanouts.insert(
            fanout_id,
            FanOut {
                token,
                id,
                remaining: alive.len(),
                reports: Vec::with_capacity(alive.len()),
            },
        );
        for idx in alive {
            let uid = self.next_uid;
            self.next_uid += 1;
            let wire = frame_bytes(&encode_health_request(uid));
            if let LinkState::Up { conn, pending, .. } = &mut self.shards[idx].state {
                pending.insert(uid, Pending::HealthFan { fanout: fanout_id });
                conn.queue_wire(&wire);
            }
            self.flush_shard(idx);
        }
    }

    /// Completes a fan-out whose `remaining` reached zero: merges the
    /// per-shard reports (each robot's row comes from the alive shard
    /// ranked highest in its ring preference — its current effective
    /// owner) and answers the client.
    fn finish_fanout(&mut self, fanout_id: u64) {
        let fanout = match self.fanouts.remove(&fanout_id) {
            Some(f) => f,
            None => return,
        };
        let ready = fanout.reports.iter().any(|(_, r)| r.ready);
        let mut best: HashMap<String, (usize, crate::engine::RobotHealth)> = HashMap::new();
        for (shard_idx, report) in &fanout.reports {
            for robot in &report.robots {
                let rank = self
                    .ring
                    .preference(&robot.name)
                    .iter()
                    .position(|&i| i == *shard_idx)
                    .unwrap_or(usize::MAX);
                match best.get(&robot.name) {
                    Some((existing, _)) if *existing <= rank => {}
                    _ => {
                        best.insert(robot.name.clone(), (rank, robot.clone()));
                    }
                }
            }
        }
        let mut robots: Vec<crate::engine::RobotHealth> =
            best.into_values().map(|(_, r)| r).collect();
        robots.sort_by(|a, b| a.name.cmp(&b.name));
        let wire = frame_bytes(&encode_response(&ResponseFrame::direct(
            fanout.id,
            Ok(ServePayload::Health(HealthReport { ready, robots })),
        )));
        self.send_to_client(fanout.token, &wire);
    }

    fn shard_ready(&mut self, idx: usize, readable: bool, hangup: bool) {
        if readable {
            let (bodies, outcome) = {
                let link = &mut self.shards[idx];
                match &mut link.state {
                    LinkState::Up { conn, .. } => {
                        let mut bodies = Vec::new();
                        let outcome = conn.read_frames(|b| bodies.push(b));
                        (bodies, outcome)
                    }
                    LinkState::Down => return,
                }
            };
            for body in bodies {
                self.handle_shard_frame(idx, body);
            }
            match outcome {
                ReadOutcome::Open => {}
                // A framing violation from a shard (possible under
                // injected wire corruption) desyncs the stream exactly
                // like a crash: fail the link and re-dispatch.
                ReadOutcome::Closed | ReadOutcome::Violation(_) => {
                    self.fail_shard(idx);
                    return;
                }
            }
        }
        if hangup {
            let dead = match &self.shards[idx].state {
                LinkState::Up { conn, .. } => !conn.wants_write(),
                LinkState::Down => false,
            };
            if dead {
                self.fail_shard(idx);
                return;
            }
        }
        self.flush_shard(idx);
    }

    fn handle_shard_frame(&mut self, idx: usize, mut body: Vec<u8>) {
        let (uid, raw_status) = match peek_response_head(&body) {
            Ok(head) => head,
            Err(_) => return,
        };
        let entry = match &mut self.shards[idx].state {
            LinkState::Up { pending, .. } => match pending.remove(&uid) {
                Some(e) => e,
                None => return,
            },
            LinkState::Down => return,
        };
        match entry {
            Pending::Hello => {
                if status_is_hello(raw_status) {
                    if let Ok((_, info)) = decode_hello_response(&body) {
                        if let LinkState::Up { hello, .. } = &mut self.shards[idx].state {
                            *hello = Some(info);
                        }
                    }
                }
            }
            Pending::HealthFan { fanout } => {
                if let Ok(frame) = decode_response(&body) {
                    if let Ok(ServePayload::Health(report)) = frame.result {
                        if let Some(f) = self.fanouts.get_mut(&fanout) {
                            f.reports.push((idx, report));
                        }
                    }
                }
                let done = {
                    let f = self.fanouts.get_mut(&fanout);
                    match f {
                        Some(f) => {
                            f.remaining -= 1;
                            f.remaining == 0
                        }
                        None => false,
                    }
                };
                if done {
                    self.finish_fanout(fanout);
                }
            }
            Pending::Client {
                token,
                id,
                rerouted,
                ..
            } => {
                rewrite_id(&mut body, id, rerouted);
                let wire = frame_bytes(&body);
                self.stats.responses.fetch_add(1, Ordering::Relaxed);
                self.metrics.responses.add(1);
                self.send_to_client(token, &wire);
            }
        }
    }

    /// Tears down a dead shard link and walks its pending table through
    /// the failover ladder: client requests re-dispatch to the next
    /// alive shard in their preference order (marked rerouted), health
    /// legs resolve their fan-outs, hellos evaporate.
    fn fail_shard(&mut self, idx: usize) {
        let state = std::mem::replace(&mut self.shards[idx].state, LinkState::Down);
        let (conn, token, pending) = match state {
            LinkState::Up {
                conn,
                token,
                pending,
                ..
            } => (conn, token, pending),
            LinkState::Down => return,
        };
        let _ = self.poller.deregister(conn.fd());
        self.shard_tokens.remove(&token);
        self.shards[idx].last_attempt = Some(Instant::now());
        self.stats.failovers.fetch_add(1, Ordering::Relaxed);
        self.metrics.failovers.add(1);
        let mut finished_fanouts = Vec::new();
        for (_, entry) in pending {
            match entry {
                Pending::Hello => {}
                Pending::HealthFan { fanout } => {
                    if let Some(f) = self.fanouts.get_mut(&fanout) {
                        f.remaining -= 1;
                        if f.remaining == 0 {
                            finished_fanouts.push(fanout);
                        }
                    }
                }
                Pending::Client {
                    token,
                    id,
                    robot,
                    body,
                    attempts,
                    ..
                } => {
                    // Failover re-dispatch is always a reroute: the
                    // owner (or previous fallback) just died mid-flight.
                    self.dispatch(Pending::Client {
                        token,
                        id,
                        robot,
                        body,
                        rerouted: true,
                        attempts,
                    });
                }
            }
        }
        for fanout in finished_fanouts {
            self.finish_fanout(fanout);
        }
    }

    fn send_to_client(&mut self, token: u64, wire: &[u8]) {
        if let Some(client) = self.clients.get_mut(&token) {
            client.conn.queue_wire(wire);
        }
        self.reconcile_client(token);
    }

    fn reconcile_client(&mut self, token: u64) {
        let mut drop_after = false;
        {
            let client = match self.clients.get_mut(&token) {
                Some(c) => c,
                None => return,
            };
            match client.conn.flush() {
                FlushOutcome::Closed => drop_after = true,
                FlushOutcome::Drained | FlushOutcome::Blocked => {}
            }
            if !drop_after && client.closing && !client.conn.wants_write() {
                drop_after = true;
            }
            if !drop_after {
                let want = Interest {
                    readable: !client.closing,
                    writable: client.conn.wants_write(),
                };
                if want != client.interest {
                    if self.poller.modify(client.conn.fd(), token, want).is_err() {
                        drop_after = true;
                    } else {
                        client.interest = want;
                    }
                }
            }
        }
        if drop_after {
            self.drop_client(token);
        }
    }

    fn flush_shard(&mut self, idx: usize) {
        let mut failed = false;
        {
            let link = &mut self.shards[idx];
            if let LinkState::Up {
                conn,
                token,
                interest,
                ..
            } = &mut link.state
            {
                match conn.flush() {
                    FlushOutcome::Closed => failed = true,
                    FlushOutcome::Drained | FlushOutcome::Blocked => {}
                }
                if !failed {
                    let want = Interest {
                        readable: true,
                        writable: conn.wants_write(),
                    };
                    if want != *interest {
                        if self.poller.modify(conn.fd(), *token, want).is_err() {
                            failed = true;
                        } else {
                            *interest = want;
                        }
                    }
                }
            }
        }
        if failed {
            self.fail_shard(idx);
        }
    }

    fn drop_client(&mut self, token: u64) {
        if let Some(client) = self.clients.remove(&token) {
            let _ = self.poller.deregister(client.conn.fd());
        }
        // Pending upstream entries for this client stay in flight; their
        // responses are dropped on arrival (the token lookup misses).
        self.fanouts.retain(|_, f| f.token != token);
    }
}
