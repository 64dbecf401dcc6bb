//! Accelerator-as-a-service runtime for RoboShape designs.
//!
//! The paper deploys one generated accelerator per robot; a robot fleet
//! shares them as a service. This crate is that serving layer, built from
//! the workspace's own pieces and nothing else:
//!
//! * [`Engine`] — the in-process runtime. It owns a warmed
//!   [`roboshape_pipeline::Pipeline`] artifact store and, per registered
//!   robot, the three kernel designs (∇FD, inverse dynamics, forward
//!   kinematics) plus a pool of simulated accelerator instances (worker
//!   threads running the cycle-level simulator). Requests are submitted
//!   with [`Engine::submit`] and awaited on the returned [`Ticket`].
//! * A **deadline-aware batching scheduler** — each robot has a bounded
//!   earliest-deadline-first queue. Workers pop the most urgent request
//!   and coalesce compatible ∇FD requests into one
//!   [`roboshape_sim::try_simulate_batch`] call (per-step results are
//!   bit-identical to single-request evaluation, so batching is purely a
//!   throughput optimisation). Overload is explicit: a full queue sheds
//!   the request with [`ServeError::Rejected`], and a request whose
//!   deadline passes while queued gets [`ServeError::DeadlineExceeded`].
//!   The engine never panics on bad input — malformed requests come back
//!   as [`ServeError::BadRequest`] via the sim layer's `try_*` entry
//!   points.
//! * A **TCP front-end** ([`Server`]) speaking length-prefixed binary
//!   frames (see [`proto`]), with a matching blocking [`Client`]. The
//!   server is event-driven: a bounded set of readiness loops (epoll on
//!   Linux, `poll(2)` elsewhere — see [`net`]) services every
//!   connection without a thread per socket. A request that is the only
//!   frame a loop wake read goes through [`Engine::submit_or_run`],
//!   which runs it on the loop thread when the engine is idle (nothing
//!   queued or executing on a worker) and a worker arena is free,
//!   skipping the worker hand-off.
//! * A **cluster tier** — [`Shard`] names a server on a consistent-hash
//!   ring ([`HashRing`]) and [`Router`] fans client traffic across N
//!   shards with per-shard admission control and shard-level failover
//!   (crashed shard → pending requests re-dispatched to the next ring
//!   preference, answers tagged `Rerouted`).
//! * A **load generator** ([`loadgen`]) driving a server open- or
//!   closed-loop and reporting a latency/throughput summary.
//!
//! Everything is observable through [`roboshape_obs`]: spans under the
//! `"serve"` category and the `serve.*` metrics listed below.
//!
//! # Metrics
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `serve.requests` | counter | requests accepted for execution |
//! | `serve.inline` | counter | requests run inline on the event loop (batches of one) |
//! | `serve.responses` | counter | tickets fulfilled (any outcome) |
//! | `serve.shed` | counter | rejected: queue full or shutting down |
//! | `serve.deadline_exceeded` | counter | expired while queued |
//! | `serve.bad_request` | counter | failed validation / sim error |
//! | `serve.batches` | counter | batched executions dispatched |
//! | `serve.batch_size` | histogram | requests coalesced per execution |
//! | `serve.latency_us` | histogram | enqueue→response latency (µs) |
//! | `serve.queue_depth` | gauge | total queued across robots |
//! | `serve.worker_crashed` | counter | tickets resolved `WorkerCrashed` |
//! | `serve.circuit.trips` | counter | breaker transitions to open |
//! | `serve.circuit.closes` | counter | probe successes closing a breaker |
//! | `serve.circuit.degraded` | counter | answers from the analytical model |
//! | `serve.circuit.open_robots` | gauge | robots currently tripped open |
//! | `serve.fault.worker_stall` | counter | injected pre-execution stalls |
//! | `serve.fault.worker_crash` | counter | requests hit by injected crashes |
//! | `serve.fault.frame_corrupt` | counter | response frames damaged on wire |
//! | `serve.fault.queue_pressure` | counter | injected admission sheds |
//! | `serve.fault.worker_restarts` | counter | workers restarted by supervisor |
//! | `serve.rollout.requests` | counter | rollout workloads executed |
//! | `serve.rollout.steps` | counter | ∇FD steps executed inside rollouts |
//! | `serve.mixed.requests` | counter | mixed ID→∇FD→FK chains executed |
//! | `serve.retry.attempts` | counter | loadgen retries sent |
//! | `serve.retry.exhausted` | counter | loadgen requests out of retries |
//! | `serve.router.requests` | counter | kernel requests accepted by a router |
//! | `serve.router.responses` | counter | shard responses forwarded to clients |
//! | `serve.router.rerouted` | counter | requests dispatched to a non-owner shard |
//! | `serve.router.shed` | counter | router-side admission sheds |
//! | `serve.router.failovers` | counter | shard connections lost |
//! | `serve.router.shards_alive` | gauge | shards currently connected |
//! | `serve.router.inflight` | gauge | requests outstanding on shards |
//! | `serve.shard.connections` | gauge | sockets open on a shard server |
//! | `serve.shard.hello` | counter | hello handshakes answered |
//!
//! # Fault injection and resilience
//!
//! The serve stack survives unhealthy workers and hostile wire traffic,
//! and can *manufacture* both deterministically for testing: a seeded
//! [`FaultPlan`] (see [`fault`]) injects worker stalls, worker crashes,
//! synthetic queue pressure, and corrupted response frames as a pure
//! function of `(seed, site, key)`. Tolerance comes from worker
//! supervision with automatic restart, a per-robot [`CircuitBreaker`]
//! that degrades to the analytical clock-period model while open, frame
//! checksums, and client-side retry with exponential backoff in the
//! load generator.
//!
//! # Examples
//!
//! ```
//! use roboshape_robots::{zoo, Zoo};
//! use roboshape_serve::{Engine, EngineConfig, ServeRequest};
//!
//! let engine = Engine::new(EngineConfig::default());
//! engine.register("iiwa", zoo(Zoo::Iiwa));
//! let n = 7;
//! let ticket = engine
//!     .submit(ServeRequest::gradient("iiwa", vec![0.1; n], vec![0.0; n], vec![0.5; n]))
//!     .unwrap();
//! let payload = ticket.wait().unwrap();
//! assert_eq!(payload.cycles() > 0, true);
//! engine.shutdown();
//! ```

#![warn(missing_docs)]

mod engine;
pub mod fault;
pub mod loadgen;
pub mod net;
pub mod proto;
mod queue;
mod router;
mod server;
mod shard;
pub mod workload;

pub use engine::{
    Engine, EngineConfig, EngineStats, HealthReport, RobotHealth, ServeError, ServePayload,
    ServeRequest, ServeResult, Ticket, WorkKind,
};
pub use fault::{
    Admission, CircuitBreaker, CircuitState, CorruptionMode, FailureOutcome, FaultConfig,
    FaultPlan, FaultSite,
};
pub use router::{Router, RouterConfig, RouterStats};
pub use server::{Client, Server, ServerOptions};
pub use shard::{HashRing, Shard, ShardSpec, VNODES_PER_SHARD};

/// Tracing-span category used by every span this crate opens.
pub const OBS_CATEGORY: &str = "serve";

/// Counter: requests accepted for execution (queued or run inline).
pub const REQUESTS_METRIC: &str = "serve.requests";
/// Counter: requests run inline on the submitting thread, skipping the
/// queue and the worker hand-off ([`Engine::submit_or_run`]).
pub const INLINE_METRIC: &str = "serve.inline";
/// Counter: tickets fulfilled, successfully or not.
pub const RESPONSES_METRIC: &str = "serve.responses";
/// Counter: requests shed (queue full or engine shutting down).
pub const SHED_METRIC: &str = "serve.shed";
/// Counter: requests whose deadline expired while queued.
pub const DEADLINE_METRIC: &str = "serve.deadline_exceeded";
/// Counter: requests failing validation or simulation.
pub const BAD_REQUEST_METRIC: &str = "serve.bad_request";
/// Counter: batched executions dispatched by workers.
pub const BATCHES_METRIC: &str = "serve.batches";
/// Histogram: requests coalesced into one execution.
pub const BATCH_SIZE_METRIC: &str = "serve.batch_size";
/// Histogram: enqueue→response latency in microseconds.
pub const LATENCY_METRIC: &str = "serve.latency_us";
/// Gauge: total requests currently queued across all robots.
pub const QUEUE_DEPTH_METRIC: &str = "serve.queue_depth";
/// Counter: tickets resolved to [`ServeError::WorkerCrashed`].
pub const CRASHED_METRIC: &str = "serve.worker_crashed";
/// Counter: circuit-breaker transitions to open (trips and re-opens).
pub const CIRCUIT_TRIPS_METRIC: &str = "serve.circuit.trips";
/// Counter: probe successes that closed a half-open circuit.
pub const CIRCUIT_CLOSES_METRIC: &str = "serve.circuit.closes";
/// Counter: requests answered from the analytical model while a robot's
/// circuit was open, tagged degraded.
pub const DEGRADED_METRIC: &str = "serve.circuit.degraded";
/// Gauge: number of robots whose circuit is currently open.
pub const CIRCUIT_OPEN_METRIC: &str = "serve.circuit.open_robots";
/// Counter: injected worker stalls (per affected request).
pub const FAULT_STALL_METRIC: &str = "serve.fault.worker_stall";
/// Counter: requests hit by an injected worker crash.
pub const FAULT_CRASH_METRIC: &str = "serve.fault.worker_crash";
/// Counter: response frames deliberately damaged on the wire.
pub const FAULT_CORRUPT_METRIC: &str = "serve.fault.frame_corrupt";
/// Counter: admissions shed as injected queue pressure.
pub const FAULT_PRESSURE_METRIC: &str = "serve.fault.queue_pressure";
/// Counter: crashed workers restarted by the supervisor.
pub const WORKER_RESTARTS_METRIC: &str = "serve.fault.worker_restarts";
/// Counter: rollout workloads executed worker-side.
pub const ROLLOUT_REQUESTS_METRIC: &str = "serve.rollout.requests";
/// Counter: ∇FD steps executed inside rollout workloads.
pub const ROLLOUT_STEPS_METRIC: &str = "serve.rollout.steps";
/// Counter: mixed ID→∇FD→FK chains executed worker-side.
pub const MIXED_REQUESTS_METRIC: &str = "serve.mixed.requests";
/// Counter: client-side retry attempts sent by the load generator.
pub const RETRY_ATTEMPTS_METRIC: &str = "serve.retry.attempts";
/// Counter: load-generator requests that exhausted their retry budget.
pub const RETRY_EXHAUSTED_METRIC: &str = "serve.retry.exhausted";
/// Counter: kernel requests accepted by a router (routed or shed).
pub const ROUTER_REQUESTS_METRIC: &str = "serve.router.requests";
/// Counter: shard responses forwarded back to clients by a router.
pub const ROUTER_RESPONSES_METRIC: &str = "serve.router.responses";
/// Counter: requests dispatched to a shard other than their ring owner.
pub const ROUTER_REROUTED_METRIC: &str = "serve.router.rerouted";
/// Counter: requests shed by the router itself (admission cap hit or no
/// shard alive for the robot).
pub const ROUTER_SHED_METRIC: &str = "serve.router.shed";
/// Counter: shard connections lost; each triggers pending re-dispatch.
pub const ROUTER_FAILOVERS_METRIC: &str = "serve.router.failovers";
/// Gauge: shards the router currently holds a live connection to.
pub const ROUTER_SHARDS_ALIVE_METRIC: &str = "serve.router.shards_alive";
/// Gauge: requests outstanding on shards through the router.
pub const ROUTER_INFLIGHT_METRIC: &str = "serve.router.inflight";
/// Gauge: client sockets currently open on a shard server.
pub const SHARD_CONNS_METRIC: &str = "serve.shard.connections";
/// Counter: hello handshakes answered by a shard server.
pub const SHARD_HELLO_METRIC: &str = "serve.shard.hello";

/// Bucket upper bounds for [`BATCH_SIZE_METRIC`].
pub const BATCH_SIZE_BOUNDS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Bucket upper bounds for [`LATENCY_METRIC`] (microseconds).
pub const LATENCY_BOUNDS_US: [u64; 13] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];
