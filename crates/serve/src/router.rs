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
//! Everything runs on one event-loop thread over the same
//! [`crate::net`] reactor core as the shard server: client sockets and
//! upstream shard sockets sit in one connection table, so a response's
//! path through the router is wake → patch id → queue → one flush per
//! wake, with no cross-thread handoff, and framing violations from
//! clients get the server's typed goodbye. A dead shard is redialed
//! every `reconnect_interval` and re-enters the ring (hello handshake,
//! then alive) without dropping anything.

use crate::engine::{HealthReport, RobotHealth, ServeError, ServePayload, ServeResult};
use crate::net::poll::Waker;
use crate::net::Reactor;
use crate::proto::{
    decode_hello_response, decode_response, encode_health_request, encode_hello_request,
    encode_hello_response, encode_response, frame_bytes, peek_request_route, peek_response_head,
    rewrite_id, status_is_hello, HelloInfo, ResponseFrame,
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
        let (reactor, waker) = Reactor::new(Some(listener))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(RouterStats::default());
        let mut inner = RouterLoop::new(
            config,
            reactor,
            Arc::clone(&stop),
            Arc::clone(&stats),
            metrics,
        );
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

/// An upstream shard connection that is up.
struct Link {
    token: u64,
    /// Upstream correlation id → what it is waiting for.
    pending: HashMap<u64, Pending>,
    /// The shard's handshake answer, once it arrives.
    hello: Option<HelloInfo>,
}

struct ShardLink {
    spec: ShardSpec,
    link: Option<Link>,
    last_attempt: Option<Instant>,
}

struct RouterLoop {
    config: RouterConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<RouterStats>,
    metrics: RouterMetrics,
    reactor: Reactor,
    ring: HashRing,
    shards: Vec<ShardLink>,
    /// token → shard index, for upstream connections; every other token
    /// is a client.
    shard_tokens: HashMap<u64, usize>,
    fanouts: HashMap<u64, FanOut>,
    next_uid: u64,
    next_fanout: u64,
}

impl RouterLoop {
    fn new(
        config: RouterConfig,
        reactor: Reactor,
        stop: Arc<AtomicBool>,
        stats: Arc<RouterStats>,
        metrics: RouterMetrics,
    ) -> RouterLoop {
        let names: Vec<String> = config.shards.iter().map(|s| s.name.clone()).collect();
        let shards = config
            .shards
            .iter()
            .map(|spec| ShardLink {
                spec: spec.clone(),
                link: None,
                last_attempt: None,
            })
            .collect();
        RouterLoop {
            ring: HashRing::new(&names),
            config,
            stop,
            stats,
            metrics,
            reactor,
            shards,
            shard_tokens: HashMap::new(),
            fanouts: HashMap::new(),
            next_uid: 0,
            next_fanout: 0,
        }
    }

    fn run(&mut self) {
        let _span = obs::span(OBS_CATEGORY, "router-loop");
        let mut bursts = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            self.redial_down_shards();
            if self.reactor.wait(TICK, &mut bursts).is_err() {
                break;
            }
            for burst in bursts.drain(..) {
                match self.shard_tokens.get(&burst.token).copied() {
                    Some(idx) => {
                        for body in burst.frames {
                            self.handle_shard_frame(idx, body);
                        }
                        // A framing violation from a shard (possible under
                        // injected wire corruption) desyncs the stream
                        // exactly like a crash: fail the link and
                        // re-dispatch.
                        if burst.violation.is_some() {
                            self.fail_shard(idx);
                        }
                    }
                    None => {
                        for body in burst.frames {
                            self.handle_client_frame(burst.token, body);
                        }
                        if let Some(violation) = burst.violation {
                            self.reactor.goodbye(burst.token, violation);
                        }
                    }
                }
            }
            self.flush();
            self.publish_gauges();
        }
        self.metrics.shards_alive.set(0.0);
        self.metrics.inflight.set(0.0);
    }

    /// Flushes the wake's output and cleans up after connections that
    /// died: a lost shard fails over, which may queue more output, so
    /// repeat until no connection dies.
    fn flush(&mut self) {
        loop {
            let dead = self.reactor.flush();
            if dead.is_empty() {
                return;
            }
            for token in dead {
                match self.shard_tokens.get(&token).copied() {
                    Some(idx) => self.fail_shard(idx),
                    // Pending upstream entries for this client stay in
                    // flight; their responses miss on arrival.
                    None => self.fanouts.retain(|_, f| f.token != token),
                }
            }
        }
    }

    fn publish_gauges(&self) {
        let links = self.shards.iter().filter_map(|s| s.link.as_ref());
        let (alive, inflight) = links.fold((0, 0), |(a, n), l| (a + 1, n + l.pending.len()));
        self.metrics.shards_alive.set(alive as f64);
        self.metrics.inflight.set(inflight as f64);
    }

    /// Dials every down shard whose redial interval has elapsed, and
    /// sends the hello handshake on success.
    fn redial_down_shards(&mut self) {
        for idx in 0..self.shards.len() {
            let link = &mut self.shards[idx];
            let due = link.link.is_none()
                && link
                    .last_attempt
                    .is_none_or(|t| t.elapsed() >= self.config.reconnect_interval);
            if !due {
                continue;
            }
            link.last_attempt = Some(Instant::now());
            let Ok(stream) =
                TcpStream::connect_timeout(&link.spec.addr, self.config.connect_timeout)
            else {
                continue;
            };
            let Ok(token) = self.reactor.add(stream) else {
                continue;
            };
            let uid = self.next_uid;
            self.next_uid += 1;
            self.shard_tokens.insert(token, idx);
            self.shards[idx].link = Some(Link {
                token,
                pending: HashMap::from([(uid, Pending::Hello)]),
                hello: None,
            });
            self.reactor
                .send(token, &frame_bytes(&encode_hello_request(uid)));
            self.flush();
        }
    }

    fn handle_client_frame(&mut self, token: u64, body: Vec<u8>) {
        let route = match peek_request_route(&body) {
            Ok(r) => r,
            Err(e) => {
                self.send_result(token, 0, Err(ServeError::BadRequest(e.to_string())));
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
                    .filter_map(|s| s.link.as_ref()?.hello.as_ref())
                    .flat_map(|info| info.robots.iter().cloned())
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
                self.reactor.send(token, &wire);
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
        let Pending::Client {
            token,
            id,
            robot,
            body,
            mut rerouted,
            attempts,
        } = entry
        else {
            return;
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
        let Some(chosen) = preference
            .into_iter()
            .find(|&idx| self.shards[idx].link.is_some())
        else {
            self.shed(token, id, format!("no shard alive for robot {robot}"));
            return;
        };
        if Some(chosen) != owner {
            rerouted = true;
        }
        let link = self.shards[chosen].link.as_mut().expect("chosen alive");
        if link.pending.len() >= self.config.max_inflight_per_shard {
            let reason = format!(
                "shard {} at capacity ({} in flight)",
                self.shards[chosen].spec.name, self.config.max_inflight_per_shard
            );
            self.shed(token, id, reason);
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
        self.reactor.send(link.token, &frame_bytes(&upstream_body));
        link.pending.insert(
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
    }

    /// Typed router-side rejection (admission cap or an empty fleet).
    fn shed(&mut self, token: u64, id: u64, reason: String) {
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
        self.metrics.shed.add(1);
        self.send_result(token, id, Err(ServeError::Rejected { reason }));
    }

    fn fan_out_health(&mut self, token: u64, id: u64) {
        let alive: Vec<usize> = (0..self.shards.len())
            .filter(|&i| self.shards[i].link.is_some())
            .collect();
        if alive.is_empty() {
            let report = HealthReport {
                ready: false,
                robots: Vec::new(),
            };
            self.send_result(token, id, Ok(ServePayload::Health(report)));
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
            let link = self.shards[idx].link.as_mut().expect("alive");
            link.pending
                .insert(uid, Pending::HealthFan { fanout: fanout_id });
            self.reactor
                .send(link.token, &frame_bytes(&encode_health_request(uid)));
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
        let mut best: HashMap<String, (usize, RobotHealth)> = HashMap::new();
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
        let mut robots: Vec<RobotHealth> = best.into_values().map(|(_, r)| r).collect();
        robots.sort_by(|a, b| a.name.cmp(&b.name));
        let report = HealthReport { ready, robots };
        self.send_result(fanout.token, fanout.id, Ok(ServePayload::Health(report)));
    }

    /// Counts one shard leg of a fan-out as settled.
    fn settle_leg(&mut self, fanout: u64) {
        let done = self.fanouts.get_mut(&fanout).is_some_and(|f| {
            f.remaining -= 1;
            f.remaining == 0
        });
        if done {
            self.finish_fanout(fanout);
        }
    }

    fn handle_shard_frame(&mut self, idx: usize, mut body: Vec<u8>) {
        let Ok((uid, raw_status)) = peek_response_head(&body) else {
            return;
        };
        let Some(link) = self.shards[idx].link.as_mut() else {
            return;
        };
        let Some(entry) = link.pending.remove(&uid) else {
            return;
        };
        match entry {
            Pending::Hello => {
                if status_is_hello(raw_status) {
                    if let Ok((_, info)) = decode_hello_response(&body) {
                        link.hello = Some(info);
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
                self.settle_leg(fanout);
            }
            Pending::Client {
                token,
                id,
                rerouted,
                ..
            } => {
                rewrite_id(&mut body, id, rerouted);
                self.stats.responses.fetch_add(1, Ordering::Relaxed);
                self.metrics.responses.add(1);
                self.reactor.send(token, &frame_bytes(&body));
            }
        }
    }

    /// Tears down a dead shard link and walks its pending table through
    /// the failover ladder: client requests re-dispatch to the next
    /// alive shard in their preference order (marked rerouted), health
    /// legs resolve their fan-outs, hellos evaporate.
    fn fail_shard(&mut self, idx: usize) {
        let Some(link) = self.shards[idx].link.take() else {
            return;
        };
        self.reactor.close(link.token);
        self.shard_tokens.remove(&link.token);
        self.shards[idx].last_attempt = Some(Instant::now());
        self.stats.failovers.fetch_add(1, Ordering::Relaxed);
        self.metrics.failovers.add(1);
        for (_, entry) in link.pending {
            match entry {
                Pending::Hello => {}
                Pending::HealthFan { fanout } => self.settle_leg(fanout),
                // Failover re-dispatch is always a reroute: the owner
                // (or previous fallback) just died mid-flight.
                Pending::Client {
                    token,
                    id,
                    robot,
                    body,
                    attempts,
                    ..
                } => self.dispatch(Pending::Client {
                    token,
                    id,
                    robot,
                    body,
                    rerouted: true,
                    attempts,
                }),
            }
        }
    }

    fn send_result(&mut self, token: u64, id: u64, result: ServeResult) {
        // A client that has gone simply misses.
        let wire = frame_bytes(&encode_response(&ResponseFrame::direct(id, result)));
        self.reactor.send(token, &wire);
    }
}
