//! The in-process serving engine: per-robot design pools, supervised
//! worker threads, deadline-aware batching, backpressure, a per-robot
//! circuit breaker with analytical-model degradation, and graceful
//! drain. Chaos (deterministic fault injection) hooks in here too.

use crate::fault::{Admission, CircuitBreaker, CircuitState, FailureOutcome, FaultPlan, FaultSite};
use crate::queue::{EdfQueue, Pending};
use crate::{
    BAD_REQUEST_METRIC, BATCHES_METRIC, BATCH_SIZE_BOUNDS, BATCH_SIZE_METRIC,
    CIRCUIT_CLOSES_METRIC, CIRCUIT_OPEN_METRIC, CIRCUIT_TRIPS_METRIC, CRASHED_METRIC,
    DEADLINE_METRIC, DEGRADED_METRIC, FAULT_CORRUPT_METRIC, FAULT_CRASH_METRIC,
    FAULT_PRESSURE_METRIC, FAULT_STALL_METRIC, INLINE_METRIC, LATENCY_BOUNDS_US, LATENCY_METRIC,
    MIXED_REQUESTS_METRIC, OBS_CATEGORY, QUEUE_DEPTH_METRIC, REQUESTS_METRIC, RESPONSES_METRIC,
    ROLLOUT_REQUESTS_METRIC, ROLLOUT_STEPS_METRIC, SHARD_CONNS_METRIC, SHARD_HELLO_METRIC,
    SHED_METRIC, WORKER_RESTARTS_METRIC,
};
use roboshape_arch::{AcceleratorDesign, AcceleratorKnobs, KernelKind, MatmulUnits};
use roboshape_blocksparse::MatmulLatencyModel;
use roboshape_obs::{self as obs, Counter, Gauge, Histogram, MetricsRegistry};
use roboshape_pipeline::{PatternKind, Pipeline};
use roboshape_sim::{BackendKind, CompiledProgram, SimError, SimScratch, Simulation};
use roboshape_topology::Topology;
use roboshape_urdf::RobotModel;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing, scheduling, and resilience knobs for an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Bounded per-robot queue depth; a full queue sheds new requests.
    pub queue_capacity: usize,
    /// Maximum ∇FD requests coalesced into one batched execution.
    pub max_batch: usize,
    /// Simulated accelerator instances (worker threads) per robot.
    pub workers_per_robot: usize,
    /// Start with workers paused (requests queue but do not execute
    /// until [`Engine::resume`]) — a test/bench hook that makes batch
    /// coalescing deterministic.
    pub start_paused: bool,
    /// Deadline applied at admission to requests that carry none — the
    /// per-request timeout budget. `None` leaves them best-effort.
    pub default_deadline: Option<Duration>,
    /// Consecutive failures before a robot's circuit trips open.
    pub circuit_threshold: u32,
    /// How long an open circuit waits before half-opening for a probe.
    pub circuit_cooldown: Duration,
    /// Deterministic fault injection; `None` disables chaos entirely.
    pub chaos: Option<crate::fault::FaultConfig>,
    /// Execution backend for the ∇FD and inverse-dynamics programs.
    /// [`BackendKind::Lanes`] executes coalesced batches four requests
    /// per operation (remainders fall back to scalar inside the
    /// backend, bit-identically); forward kinematics always runs the
    /// scalar path.
    pub backend: BackendKind,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            queue_capacity: 64,
            max_batch: 8,
            workers_per_robot: 2,
            start_paused: false,
            default_deadline: None,
            circuit_threshold: 3,
            circuit_cooldown: Duration::from_millis(250),
            chaos: None,
            backend: BackendKind::Lanes,
        }
    }
}

/// Why a request did not produce a payload. Overload, lateness, and
/// worker failure are first-class, typed outcomes — the engine never
/// panics at a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Shed before admission: queue at capacity, or engine shutting down.
    Rejected {
        /// Human-readable shed reason (e.g. `"queue full"`).
        reason: String,
    },
    /// The deadline passed while the request was still queued.
    DeadlineExceeded,
    /// No robot registered under this name.
    UnknownRobot(String),
    /// The request failed validation or simulation (dimension mismatch,
    /// non-finite input, non-positive-definite mass matrix, …).
    BadRequest(String),
    /// The worker executing this request crashed before producing a
    /// result. The request was not completed and is safe to retry; the
    /// supervisor restarts the worker behind the scenes.
    WorkerCrashed,
}

impl ServeError {
    /// Whether a client may safely retry the request. Sheds and worker
    /// crashes are transient (the request never completed); deadline
    /// expiry and validation errors would fail again identically.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServeError::Rejected { .. } | ServeError::WorkerCrashed
        )
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected { reason } => write!(f, "rejected: {reason}"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::UnknownRobot(name) => write!(f, "unknown robot: {name}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::WorkerCrashed => write!(f, "worker crashed; retry"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> ServeError {
        ServeError::BadRequest(e.to_string())
    }
}

/// What a request asks the accelerator to run: a single kernel
/// evaluation, or a trajectory-level workload chaining kernels
/// worker-side so one ticket covers the whole horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkKind {
    /// One evaluation of one generated kernel.
    Kernel(KernelKind),
    /// `steps` sequential ∇FD evaluations with the state fed forward
    /// between steps ([`crate::workload::advance`]); MPC-style horizon.
    /// The request's deadline covers the *whole* rollout.
    Rollout {
        /// Horizon length; must be ≥ 1.
        steps: u32,
    },
    /// An ID→∇FD→FK chain on one state: torques from inverse dynamics
    /// feed the gradient kernel, whose state feeds forward kinematics.
    MixedPipeline,
}

impl WorkKind {
    /// The kernel whose accelerator design sizes, schedules, and
    /// (when degraded) prices this work. Trajectory workloads are
    /// gradient-dominated, so they bind to the ∇FD design.
    pub fn design_kernel(self) -> KernelKind {
        match self {
            WorkKind::Kernel(k) => k,
            WorkKind::Rollout { .. } | WorkKind::MixedPipeline => KernelKind::DynamicsGradient,
        }
    }

    /// Whether requests of this kind may coalesce into one batched
    /// execution. Only independent single-step ∇FD evaluations qualify:
    /// rollouts and mixed chains carry sequential dependence, so they
    /// execute alone (and, popped one at a time, cannot starve the
    /// coalescable batches queued around them).
    pub fn is_coalescable(self) -> bool {
        self == WorkKind::Kernel(KernelKind::DynamicsGradient)
    }
}

impl fmt::Display for WorkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkKind::Kernel(k) => write!(f, "{k:?}"),
            WorkKind::Rollout { steps } => write!(f, "Rollout({steps})"),
            WorkKind::MixedPipeline => write!(f, "MixedPipeline"),
        }
    }
}

/// One kernel evaluation request against a registered robot.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Name the robot was registered under.
    pub robot: String,
    /// Which work to run.
    pub kind: WorkKind,
    /// Joint positions (all kernels).
    pub q: Vec<f64>,
    /// Joint velocities (∇FD and inverse dynamics; empty for FK).
    pub qd: Vec<f64>,
    /// Third input: torques `τ` for ∇FD, accelerations `q̈` for inverse
    /// dynamics; empty for FK.
    pub tau: Vec<f64>,
    /// Relative deadline from submission; `None` = best effort (or the
    /// engine's [`EngineConfig::default_deadline`], if set).
    pub deadline: Option<Duration>,
}

impl ServeRequest {
    /// A ∇FD (dynamics-gradient) request.
    pub fn gradient(
        robot: impl Into<String>,
        q: Vec<f64>,
        qd: Vec<f64>,
        tau: Vec<f64>,
    ) -> ServeRequest {
        ServeRequest {
            robot: robot.into(),
            kind: WorkKind::Kernel(KernelKind::DynamicsGradient),
            q,
            qd,
            tau,
            deadline: None,
        }
    }

    /// A trajectory rollout: `steps` sequential ∇FD evaluations with
    /// state fed forward worker-side (`tau` held constant across the
    /// horizon). One ticket, one response carrying the final state.
    pub fn rollout(
        robot: impl Into<String>,
        q: Vec<f64>,
        qd: Vec<f64>,
        tau: Vec<f64>,
        steps: u32,
    ) -> ServeRequest {
        ServeRequest {
            robot: robot.into(),
            kind: WorkKind::Rollout { steps },
            q,
            qd,
            tau,
            deadline: None,
        }
    }

    /// A mixed ID→∇FD→FK chain on one state (`qdd` rides in the third
    /// input slot, as for [`ServeRequest::inverse_dynamics`]).
    pub fn mixed(
        robot: impl Into<String>,
        q: Vec<f64>,
        qd: Vec<f64>,
        qdd: Vec<f64>,
    ) -> ServeRequest {
        ServeRequest {
            robot: robot.into(),
            kind: WorkKind::MixedPipeline,
            q,
            qd,
            tau: qdd,
            deadline: None,
        }
    }

    /// An inverse-dynamics request (`tau` carries `q̈`).
    pub fn inverse_dynamics(
        robot: impl Into<String>,
        q: Vec<f64>,
        qd: Vec<f64>,
        qdd: Vec<f64>,
    ) -> ServeRequest {
        ServeRequest {
            robot: robot.into(),
            kind: WorkKind::Kernel(KernelKind::InverseDynamics),
            q,
            qd,
            tau: qdd,
            deadline: None,
        }
    }

    /// A forward-kinematics request.
    pub fn kinematics(robot: impl Into<String>, q: Vec<f64>) -> ServeRequest {
        ServeRequest {
            robot: robot.into(),
            kind: WorkKind::Kernel(KernelKind::ForwardKinematics),
            q,
            qd: Vec::new(),
            tau: Vec::new(),
            deadline: None,
        }
    }

    /// Sets a relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> ServeRequest {
        self.deadline = Some(deadline);
        self
    }
}

/// Health of one registered robot, as reported by [`Engine::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RobotHealth {
    /// Name the robot was registered under.
    pub name: String,
    /// Its circuit breaker's current state.
    pub circuit: CircuitState,
    /// Worker threads currently alive for this robot. Briefly below the
    /// configured pool size while the supervisor restarts a crash.
    pub workers_alive: u32,
}

/// Engine-wide readiness snapshot: the health endpoint's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// `true` when the engine is accepting work and every registered
    /// robot has at least one live worker.
    pub ready: bool,
    /// Per-robot health, sorted by name.
    pub robots: Vec<RobotHealth>,
}

/// A successful kernel evaluation, as returned to clients.
#[derive(Debug, Clone, PartialEq)]
pub enum ServePayload {
    /// ∇FD outputs: torques plus both gradients (row-major `n × n`).
    Gradient {
        /// RNEA-stage joint torques.
        tau: Vec<f64>,
        /// `∂q̈/∂q`, row-major.
        dqdd_dq: Vec<f64>,
        /// `∂q̈/∂q̇`, row-major.
        dqdd_dqd: Vec<f64>,
        /// Simulated accelerator cycles for this evaluation.
        cycles: u64,
    },
    /// Inverse-dynamics output: `τ = RNEA(q, q̇, q̈)`.
    InverseDynamics {
        /// Joint torques.
        tau: Vec<f64>,
        /// Simulated accelerator cycles.
        cycles: u64,
    },
    /// Forward-kinematics output: base→link poses, 12 values per link
    /// (row-major 3×3 rotation, then translation x/y/z).
    Kinematics {
        /// Flattened poses, `12 × n` values.
        poses: Vec<f64>,
        /// Simulated accelerator cycles.
        cycles: u64,
    },
    /// Rollout output: the final state after `steps` integrations plus
    /// the *last* step's ∇FD outputs (the ones an MPC loop consumes).
    Rollout {
        /// Horizon actually executed.
        steps: u32,
        /// Joint positions after the final step.
        q_final: Vec<f64>,
        /// Joint velocities after the final step.
        qd_final: Vec<f64>,
        /// Last step's RNEA-stage joint torques.
        tau: Vec<f64>,
        /// Last step's `∂q̈/∂q`, row-major.
        dqdd_dq: Vec<f64>,
        /// Last step's `∂q̈/∂q̇`, row-major.
        dqdd_dqd: Vec<f64>,
        /// Simulated accelerator cycles summed over the whole horizon.
        cycles: u64,
    },
    /// Mixed-pipeline output: the ID-stage torques, the ∇FD gradients
    /// they induced, and the FK poses of the input state.
    Mixed {
        /// Inverse-dynamics joint torques (fed to the gradient stage).
        tau: Vec<f64>,
        /// `∂q̈/∂q`, row-major.
        dqdd_dq: Vec<f64>,
        /// `∂q̈/∂q̇`, row-major.
        dqdd_dqd: Vec<f64>,
        /// Flattened base→link poses, 12 values per link.
        poses: Vec<f64>,
        /// Simulated accelerator cycles summed over the three kernels.
        cycles: u64,
    },
    /// Degraded answer from the analytical clock-period model, returned
    /// while the robot's circuit is open: the design's *static* latency
    /// estimate in place of simulated outputs. Clients treat this as a
    /// valid (if lower-fidelity) response, not a retryable failure.
    Degraded {
        /// The kernel the estimate is for.
        kind: KernelKind,
        /// Analytical compute cycles (schedule makespan + mat-muls).
        cycles: u64,
        /// The design's critical-path clock period in nanoseconds.
        clock_ns: f64,
        /// Analytical end-to-end latency estimate in microseconds.
        latency_us: f64,
    },
    /// Health/readiness snapshot (the response to a health probe).
    Health(HealthReport),
}

impl ServePayload {
    /// Simulated accelerator cycles, whatever the kernel. Degraded
    /// answers report the analytical estimate; health probes report 0.
    pub fn cycles(&self) -> u64 {
        match self {
            ServePayload::Gradient { cycles, .. }
            | ServePayload::InverseDynamics { cycles, .. }
            | ServePayload::Kinematics { cycles, .. }
            | ServePayload::Rollout { cycles, .. }
            | ServePayload::Mixed { cycles, .. }
            | ServePayload::Degraded { cycles, .. } => *cycles,
            ServePayload::Health(_) => 0,
        }
    }

    /// Whether this is a degraded (analytical-model) answer.
    pub fn is_degraded(&self) -> bool {
        matches!(self, ServePayload::Degraded { .. })
    }
}

/// The outcome a [`Ticket`] resolves to.
pub type ServeResult = Result<ServePayload, ServeError>;

struct TicketCell {
    slot: Mutex<Option<ServeResult>>,
    cv: Condvar,
    resolved: AtomicBool,
    /// Set *after* the slot is written; [`Ticket::watch`] keys off this
    /// (not `resolved`, which flips before the result is readable).
    published: AtomicBool,
    watcher: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

/// A handle to an in-flight request; resolves exactly once.
#[derive(Clone)]
pub struct Ticket {
    cell: Arc<TicketCell>,
}

impl Ticket {
    pub(crate) fn new() -> Ticket {
        Ticket {
            cell: Arc::new(TicketCell {
                slot: Mutex::new(None),
                cv: Condvar::new(),
                resolved: AtomicBool::new(false),
                published: AtomicBool::new(false),
                watcher: Mutex::new(None),
            }),
        }
    }

    pub(crate) fn fulfill(&self, result: ServeResult) {
        let claimed = self.claim();
        debug_assert!(claimed, "ticket fulfilled twice");
        if claimed {
            self.publish(result);
        }
    }

    /// Claims the right to resolve this ticket; returns whether *this*
    /// call won it. Nothing is visible to waiters until
    /// [`Ticket::publish`], so a claimer can do its accounting in
    /// between. Crash cleanup claims first so an already-answered
    /// request is never clobbered with `WorkerCrashed`.
    pub(crate) fn claim(&self) -> bool {
        self.cell
            .resolved
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Makes a claimed ticket's result visible: wakes waiters and runs
    /// the watcher. Call exactly once, after a successful
    /// [`Ticket::claim`].
    pub(crate) fn publish(&self, result: ServeResult) {
        {
            let mut slot = self.cell.slot.lock().expect("ticket poisoned");
            *slot = Some(result);
            self.cell.cv.notify_all();
        }
        // Publish-then-notify: the flag flips only once the slot holds
        // the result, so a watcher registered concurrently either lands
        // in the mutex (and is taken below) or sees `published` and runs
        // itself — never both, never before the result is readable.
        self.cell.published.store(true, Ordering::SeqCst);
        let watcher = self
            .cell
            .watcher
            .lock()
            .expect("ticket watcher poisoned")
            .take();
        if let Some(callback) = watcher {
            callback();
        }
    }

    /// Blocks until the engine resolves this request.
    pub fn wait(&self) -> ServeResult {
        let mut slot = self.cell.slot.lock().expect("ticket poisoned");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.cell.cv.wait(slot).expect("ticket poisoned");
        }
    }

    /// Non-blocking probe; `None` while still in flight.
    pub fn try_take(&self) -> Option<ServeResult> {
        self.cell.slot.lock().expect("ticket poisoned").take()
    }

    /// Registers a completion callback, invoked exactly once when the
    /// ticket resolves (immediately, on the caller's thread, if it
    /// already has). After the callback runs, [`Ticket::try_take`] is
    /// guaranteed to return the result. This is how the event-driven
    /// front-end learns of completions without parking a thread per
    /// request: the callback just enqueues a done-marker and pokes the
    /// owning loop's waker, so it must be cheap and must not block.
    ///
    /// Only one watcher is supported; a second registration replaces the
    /// first (the server registers exactly one per ticket).
    pub fn watch(&self, callback: impl FnOnce() + Send + 'static) {
        let mut watcher = self.cell.watcher.lock().expect("ticket watcher poisoned");
        if self.cell.published.load(Ordering::SeqCst) {
            drop(watcher);
            callback();
        } else {
            *watcher = Some(Box::new(callback));
        }
    }
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Ticket(..)")
    }
}

/// Point-in-time snapshot of the engine's own counters (the same events
/// also feed the global `serve.*` metrics, which aggregate across
/// engines; these are per-engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests accepted for execution: queued, or run inline.
    pub submitted: u64,
    /// Of `submitted`, requests run inline on the submitting thread by
    /// [`Engine::submit_or_run`], each as a batch of one.
    pub inline: u64,
    /// Requests completed with a payload.
    pub completed: u64,
    /// Requests shed at admission (queue full / shutting down).
    pub shed: u64,
    /// Requests expired while queued.
    pub deadline_exceeded: u64,
    /// Requests failing validation or simulation.
    pub bad_requests: u64,
    /// Batched executions dispatched.
    pub batches: u64,
    /// Largest number of requests coalesced into one execution.
    pub largest_batch: u64,
    /// Tickets resolved to [`ServeError::WorkerCrashed`].
    pub crashed: u64,
    /// Requests answered from the analytical model (circuit open).
    pub degraded: u64,
    /// Crashed workers restarted by the supervisor.
    pub worker_restarts: u64,
    /// Circuit-breaker transitions to open (trips and probe re-opens).
    pub circuit_trips: u64,
    /// Requests hit by an injected pre-execution stall.
    pub injected_stalls: u64,
    /// Requests hit by an injected worker crash.
    pub injected_crashes: u64,
    /// Admissions shed as injected queue pressure.
    pub injected_pressure: u64,
}

impl EngineStats {
    /// Total tickets resolved, successfully or not. Excludes `shed`,
    /// which never received a ticket; includes `degraded`, which
    /// resolves at admission.
    pub fn responses(&self) -> u64 {
        self.completed + self.deadline_exceeded + self.bad_requests + self.crashed + self.degraded
    }
}

#[derive(Default)]
struct StatCells {
    submitted: AtomicU64,
    inline: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    bad_requests: AtomicU64,
    batches: AtomicU64,
    largest_batch: AtomicU64,
    crashed: AtomicU64,
    degraded: AtomicU64,
    worker_restarts: AtomicU64,
    circuit_trips: AtomicU64,
    injected_stalls: AtomicU64,
    injected_crashes: AtomicU64,
    injected_pressure: AtomicU64,
}

/// One registered robot: its model, the three kernel designs and their
/// compiled simulation programs, its bounded EDF queue, and its circuit
/// breaker.
struct RobotSlot {
    model: RobotModel,
    designs: HashMap<KernelKind, Arc<AcceleratorDesign>>,
    /// Compiled once at registration (through the pipeline's Programs
    /// stage, so every engine in the process shares one compile per
    /// design); workers execute these against their persistent scratch.
    programs: HashMap<KernelKind, Arc<CompiledProgram>>,
    queue: EdfQueue,
    breaker: CircuitBreaker,
    /// One scratch set per worker. Worker `i` locks `arenas[i]` for each
    /// batch; [`Engine::submit_or_run`] borrows whichever one is free.
    arenas: Vec<Mutex<WorkerScratch>>,
}

/// Persistent scratch arenas, one per kernel so a mixed request stream
/// never thrashes the program↔scratch binding (a rebind reallocates; a
/// bound arena executes allocation-free).
#[derive(Default)]
struct WorkerScratch {
    gradient: SimScratch,
    inverse_dynamics: SimScratch,
    kinematics: SimScratch,
}

impl WorkerScratch {
    fn for_kernel(&mut self, kind: KernelKind) -> &mut SimScratch {
        match kind {
            KernelKind::DynamicsGradient => &mut self.gradient,
            KernelKind::InverseDynamics => &mut self.inverse_dynamics,
            KernelKind::ForwardKinematics => &mut self.kinematics,
        }
    }
}

/// How a worker thread ended.
enum WorkerExit {
    /// Queue drained after close — the orderly way out.
    Drained,
    /// The worker crashed (injected or a real panic) and its in-flight
    /// tickets were resolved to `WorkerCrashed`; needs a restart.
    Crashed,
}

/// What `execute` did with a popped batch.
enum ExecOutcome {
    /// Every live ticket in the batch was resolved.
    Completed,
    /// An injected crash fired: the batch's unresolved tickets are the
    /// caller's to clean up, and the worker must die.
    InjectedCrash,
}

struct WorkerCell {
    robot: String,
    slot: Arc<RobotSlot>,
    /// Which of the slot's arenas this worker executes on.
    index: usize,
    handle: JoinHandle<WorkerExit>,
}

#[derive(Default)]
struct Supervision {
    workers: Vec<WorkerCell>,
    supervisor: Option<JoinHandle<()>>,
}

struct EngineInner {
    cfg: EngineConfig,
    plan: Option<FaultPlan>,
    pipeline: Pipeline,
    robots: RwLock<HashMap<String, Arc<RobotSlot>>>,
    supervision: Mutex<Supervision>,
    paused: AtomicBool,
    closed: AtomicBool,
    depth: AtomicU64,
    /// Requests on the worker path, queued or executing. An inline run
    /// needs it at zero: the engine is idle, so the loop thread neither
    /// overtakes queued work nor competes with a worker for a core.
    in_flight: AtomicU64,
    seq: AtomicU64,
    open_circuits: AtomicU64,
    stats: StatCells,
    metrics: EngineMetrics,
}

/// The metric handles one engine and its TCP front-end update, resolved
/// once from a registry at construction: hot paths then touch lock-free
/// atomics instead of looking a name up per event.
pub(crate) struct EngineMetrics {
    pub(crate) requests: Arc<Counter>,
    pub(crate) inline: Arc<Counter>,
    pub(crate) responses: Arc<Counter>,
    pub(crate) shed: Arc<Counter>,
    pub(crate) deadline: Arc<Counter>,
    pub(crate) bad_request: Arc<Counter>,
    pub(crate) batches: Arc<Counter>,
    pub(crate) batch_size: Arc<Histogram>,
    pub(crate) latency: Arc<Histogram>,
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) crashed: Arc<Counter>,
    pub(crate) circuit_trips: Arc<Counter>,
    pub(crate) circuit_closes: Arc<Counter>,
    pub(crate) circuit_open: Arc<Gauge>,
    pub(crate) degraded: Arc<Counter>,
    pub(crate) fault_stall: Arc<Counter>,
    pub(crate) fault_crash: Arc<Counter>,
    pub(crate) fault_corrupt: Arc<Counter>,
    pub(crate) fault_pressure: Arc<Counter>,
    pub(crate) worker_restarts: Arc<Counter>,
    pub(crate) rollout_requests: Arc<Counter>,
    pub(crate) rollout_steps: Arc<Counter>,
    pub(crate) mixed_requests: Arc<Counter>,
    pub(crate) shard_connections: Arc<Gauge>,
    pub(crate) shard_hello: Arc<Counter>,
}

impl EngineMetrics {
    /// Resolving registers every name, so `--metrics` snapshots always
    /// carry the full `serve.circuit.*` / `serve.fault.*` vocabulary,
    /// even before (or without) any fault firing.
    fn new(m: &MetricsRegistry) -> EngineMetrics {
        EngineMetrics {
            requests: m.counter(REQUESTS_METRIC),
            inline: m.counter(INLINE_METRIC),
            responses: m.counter(RESPONSES_METRIC),
            shed: m.counter(SHED_METRIC),
            deadline: m.counter(DEADLINE_METRIC),
            bad_request: m.counter(BAD_REQUEST_METRIC),
            batches: m.counter(BATCHES_METRIC),
            batch_size: m.histogram(BATCH_SIZE_METRIC, &BATCH_SIZE_BOUNDS),
            latency: m.histogram(LATENCY_METRIC, &LATENCY_BOUNDS_US),
            queue_depth: m.gauge(QUEUE_DEPTH_METRIC),
            crashed: m.counter(CRASHED_METRIC),
            circuit_trips: m.counter(CIRCUIT_TRIPS_METRIC),
            circuit_closes: m.counter(CIRCUIT_CLOSES_METRIC),
            circuit_open: m.gauge(CIRCUIT_OPEN_METRIC),
            degraded: m.counter(DEGRADED_METRIC),
            fault_stall: m.counter(FAULT_STALL_METRIC),
            fault_crash: m.counter(FAULT_CRASH_METRIC),
            fault_corrupt: m.counter(FAULT_CORRUPT_METRIC),
            fault_pressure: m.counter(FAULT_PRESSURE_METRIC),
            worker_restarts: m.counter(WORKER_RESTARTS_METRIC),
            rollout_requests: m.counter(ROLLOUT_REQUESTS_METRIC),
            rollout_steps: m.counter(ROLLOUT_STEPS_METRIC),
            mixed_requests: m.counter(MIXED_REQUESTS_METRIC),
            shard_connections: m.gauge(SHARD_CONNS_METRIC),
            shard_hello: m.counter(SHARD_HELLO_METRIC),
        }
    }

    /// Counts one resolved ticket and its enqueue→response latency.
    fn record_response(&self, enqueued: Instant) {
        self.responses.add(1);
        self.latency
            .record(enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64);
    }
}

/// What admission made of a request.
enum Admitted {
    /// Already answered (a degraded answer from an open circuit).
    Answered(Ticket),
    /// Accepted for execution: the caller queues it or runs it inline.
    Accepted(Arc<RobotSlot>, Pending),
}

/// The accelerator-as-a-service runtime. Cheap to clone (a handle).
///
/// See the crate docs for the execution model; in short: registered
/// robots get kernel designs built through a warmed
/// [`roboshape_pipeline::Pipeline`] plus a supervised pool of worker
/// threads, and [`Engine::submit`] enqueues work under EDF with explicit
/// shedding, a per-robot circuit breaker, and optional deterministic
/// fault injection.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// An engine sharing the process-wide warmed artifact store (every
    /// engine in the process reuses cached graphs/schedules/plans).
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine::with_pipeline(cfg, Pipeline::with_store(Pipeline::global().store_handle()))
    }

    /// An engine over a caller-supplied pipeline (isolated stores in
    /// tests, or a pre-warmed one in benchmarks), reporting to the
    /// process-wide metrics registry.
    pub fn with_pipeline(cfg: EngineConfig, pipeline: Pipeline) -> Engine {
        Engine::with_registry(cfg, pipeline, obs::metrics())
    }

    /// As [`Engine::with_pipeline`], reporting the engine's `serve.*`
    /// metrics (and its [`crate::Server`]'s) to `registry` instead of
    /// the process-wide one, so tests can assert exact counts while
    /// other engines run alongside.
    pub fn with_registry(
        cfg: EngineConfig,
        pipeline: Pipeline,
        registry: &MetricsRegistry,
    ) -> Engine {
        Engine {
            inner: Arc::new(EngineInner {
                paused: AtomicBool::new(cfg.start_paused),
                plan: cfg.chaos.map(FaultPlan::new),
                cfg,
                pipeline,
                robots: RwLock::new(HashMap::new()),
                supervision: Mutex::new(Supervision::default()),
                closed: AtomicBool::new(false),
                depth: AtomicU64::new(0),
                in_flight: AtomicU64::new(0),
                seq: AtomicU64::new(0),
                open_circuits: AtomicU64::new(0),
                stats: StatCells::default(),
                metrics: EngineMetrics::new(registry),
            }),
        }
    }

    /// The metric handles shared with the server front-end.
    pub(crate) fn metrics(&self) -> &EngineMetrics {
        &self.inner.metrics
    }

    /// The engine's fault plan, when chaos is configured. The server
    /// front-end shares it to corrupt response frames on the wire.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.inner.plan
    }

    /// Registers `model` under `name`: builds its ∇FD, inverse-dynamics
    /// and forward-kinematics designs through the pipeline (topology-
    /// derived default knobs) and spawns its supervised worker pool.
    /// Re-registering an existing name is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Engine::shutdown`].
    pub fn register(&self, name: impl Into<String>, model: RobotModel) {
        let name = name.into();
        let inner = &self.inner;
        assert!(
            !inner.closed.load(Ordering::SeqCst),
            "register after shutdown"
        );
        let _span = obs::span(OBS_CATEGORY, "register");
        if inner
            .robots
            .read()
            .expect("robots poisoned")
            .contains_key(&name)
        {
            return;
        }
        let topo = model.topology().clone();
        let knobs = default_knobs(&inner.pipeline, &topo);
        let workers = inner.cfg.workers_per_robot.max(1);
        let kernels = [
            KernelKind::DynamicsGradient,
            KernelKind::InverseDynamics,
            KernelKind::ForwardKinematics,
        ];
        let designs = kernels
            .into_iter()
            .map(|kernel| {
                (
                    kernel,
                    Arc::new(inner.pipeline.design(&topo, knobs, kernel)),
                )
            })
            .collect();
        let programs = kernels
            .into_iter()
            .map(|kernel| {
                // The FK kernel has no batched entry point; keep it on
                // the scalar backend so its cache entry is shared with
                // direct `try_simulate_kinematics` users.
                let backend = match kernel {
                    KernelKind::ForwardKinematics => BackendKind::Scalar,
                    _ => inner.cfg.backend,
                };
                (
                    kernel,
                    inner
                        .pipeline
                        .compiled_program_for(&topo, knobs, kernel, backend),
                )
            })
            .collect();
        let slot = Arc::new(RobotSlot {
            model,
            designs,
            programs,
            queue: EdfQueue::new(inner.cfg.queue_capacity),
            breaker: CircuitBreaker::new(inner.cfg.circuit_threshold, inner.cfg.circuit_cooldown),
            arenas: (0..workers)
                .map(|_| Mutex::new(WorkerScratch::default()))
                .collect(),
        });
        let mut robots = inner.robots.write().expect("robots poisoned");
        if robots.contains_key(&name) {
            return; // lost a register race; the first registration wins
        }
        robots.insert(name.clone(), Arc::clone(&slot));
        drop(robots);
        let mut sup = inner.supervision.lock().expect("supervision poisoned");
        for index in 0..workers {
            sup.workers.push(spawn_worker(
                name.clone(),
                Arc::clone(&self.inner),
                Arc::clone(&slot),
                index,
            ));
        }
        if sup.supervisor.is_none() {
            let s_inner = Arc::clone(&self.inner);
            sup.supervisor = Some(std::thread::spawn(move || supervisor_loop(s_inner)));
        }
    }

    /// Names of all registered robots, sorted.
    pub fn robots(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .robots
            .read()
            .expect("robots poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// The design a robot's `kind` requests execute on — lets tests and
    /// benchmarks re-run the exact same accelerator directly and compare
    /// served responses bit-for-bit.
    pub fn design_for(&self, robot: &str, kind: KernelKind) -> Option<Arc<AcceleratorDesign>> {
        self.inner
            .robots
            .read()
            .expect("robots poisoned")
            .get(robot)
            .and_then(|slot| slot.designs.get(&kind).cloned())
    }

    /// Number of links of a registered robot.
    pub fn num_links(&self, robot: &str) -> Option<usize> {
        self.inner
            .robots
            .read()
            .expect("robots poisoned")
            .get(robot)
            .map(|slot| slot.model.num_links())
    }

    /// The circuit-breaker state of a registered robot.
    pub fn circuit_state(&self, robot: &str) -> Option<CircuitState> {
        self.inner
            .robots
            .read()
            .expect("robots poisoned")
            .get(robot)
            .map(|slot| slot.breaker.state())
    }

    /// A readiness snapshot: per-robot circuit state and live worker
    /// count, plus an overall `ready` verdict. This is what the TCP
    /// front-end serves for health probes.
    pub fn health(&self) -> HealthReport {
        // Lock order: robots before supervision (register does the same,
        // though never holding both).
        let robots = self.inner.robots.read().expect("robots poisoned");
        let sup = self.inner.supervision.lock().expect("supervision poisoned");
        let mut report: Vec<RobotHealth> = robots
            .iter()
            .map(|(name, slot)| RobotHealth {
                name: name.clone(),
                circuit: slot.breaker.state(),
                workers_alive: sup
                    .workers
                    .iter()
                    .filter(|w| w.robot == *name && !w.handle.is_finished())
                    .count() as u32,
            })
            .collect();
        drop(sup);
        drop(robots);
        report.sort_by(|a, b| a.name.cmp(&b.name));
        let ready =
            !self.inner.closed.load(Ordering::SeqCst) && report.iter().all(|r| r.workers_alive > 0);
        HealthReport {
            ready,
            robots: report,
        }
    }

    /// Submits a request. `Ok` means the [`Ticket`] will resolve exactly
    /// once (possibly to an error, possibly immediately — a degraded
    /// answer resolves before `submit` returns). `Err` means the request
    /// never entered a queue.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownRobot`] for an unregistered name,
    /// [`ServeError::BadRequest`] for malformed inputs (checked here, at
    /// admission), [`ServeError::Rejected`] when the robot's queue is
    /// full, synthetic queue pressure fires, or the engine is shutting
    /// down.
    pub fn submit(&self, req: ServeRequest) -> Result<Ticket, ServeError> {
        let _span = obs::span(OBS_CATEGORY, "submit");
        match self.admit(req)? {
            Admitted::Answered(ticket) => Ok(ticket),
            Admitted::Accepted(slot, pending) => self.enqueue(&slot, pending),
        }
    }

    /// As [`Engine::submit`], but runs a single-step kernel request on
    /// the calling thread, as a batch of one, when nothing would gain
    /// from the worker hand-off: the engine is unpaused and has no fault
    /// plan, the robot's circuit admits the request normally (not as a
    /// half-open probe), the engine is idle (no request queued or
    /// executing on any worker, for any robot), and one of the robot's
    /// worker arenas is free. The returned ticket is then already
    /// resolved. Anything else — a backlog, busy workers, trajectory
    /// workloads, chaos, probes — takes the queue exactly as
    /// [`Engine::submit`].
    ///
    /// # Errors
    ///
    /// As [`Engine::submit`].
    pub fn submit_or_run(&self, req: ServeRequest) -> Result<Ticket, ServeError> {
        let _span = obs::span(OBS_CATEGORY, "submit");
        let (slot, pending) = match self.admit(req)? {
            Admitted::Answered(ticket) => return Ok(ticket),
            Admitted::Accepted(slot, pending) => (slot, pending),
        };
        let Some(mut arena) = self.inline_arena(&slot, &pending) else {
            return self.enqueue(&slot, pending);
        };
        let inner = &self.inner;
        inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
        inner.stats.inline.fetch_add(1, Ordering::Relaxed);
        inner.metrics.requests.add(1);
        inner.metrics.inline.add(1);
        let ticket = pending.ticket.clone();
        execute_guarded(inner, &slot, &mut arena, vec![pending]);
        Ok(ticket)
    }

    /// A free worker arena to run `pending` inline on, when the inline
    /// rule of [`Engine::submit_or_run`] allows it.
    fn inline_arena<'a>(
        &self,
        slot: &'a RobotSlot,
        pending: &Pending,
    ) -> Option<MutexGuard<'a, WorkerScratch>> {
        let inner = &self.inner;
        let allowed = matches!(pending.req.kind, WorkKind::Kernel(_))
            && !pending.probe
            && inner.plan.is_none()
            && !inner.paused.load(Ordering::SeqCst)
            && inner.in_flight.load(Ordering::SeqCst) == 0;
        if !allowed {
            return None;
        }
        slot.arenas.iter().find_map(|arena| arena.try_lock().ok())
    }

    /// Admission control: shutdown, robot lookup, validation, injected
    /// queue pressure and the circuit breaker. An open circuit answers
    /// here; otherwise the request comes back ready to place.
    fn admit(&self, req: ServeRequest) -> Result<Admitted, ServeError> {
        let inner = &self.inner;
        if inner.closed.load(Ordering::SeqCst) {
            inner.stats.shed.fetch_add(1, Ordering::Relaxed);
            inner.metrics.shed.add(1);
            return Err(ServeError::Rejected {
                reason: "shutting down".into(),
            });
        }
        let slot = inner
            .robots
            .read()
            .expect("robots poisoned")
            .get(&req.robot)
            .cloned()
            .ok_or_else(|| ServeError::UnknownRobot(req.robot.clone()))?;
        if let Err(e) = validate(&slot.model, &req) {
            inner.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            inner.metrics.bad_request.add(1);
            return Err(e);
        }
        // The admission sequence number is the key for every engine-side
        // fault decision, so the schedule is a pure function of the seed.
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        if let Some(plan) = inner.plan {
            if plan.fires(FaultSite::QueuePressure, seq) {
                inner
                    .stats
                    .injected_pressure
                    .fetch_add(1, Ordering::Relaxed);
                inner.metrics.fault_pressure.add(1);
                inner.stats.shed.fetch_add(1, Ordering::Relaxed);
                inner.metrics.shed.add(1);
                return Err(ServeError::Rejected {
                    reason: "chaos: injected queue pressure".into(),
                });
            }
        }
        let probe = match slot.breaker.admit() {
            Admission::Normal => false,
            Admission::Probe => true,
            Admission::Degrade => {
                inner.stats.degraded.fetch_add(1, Ordering::Relaxed);
                inner.metrics.degraded.add(1);
                inner.metrics.responses.add(1);
                inner.metrics.latency.record(0);
                let ticket = Ticket::new();
                ticket.fulfill(Ok(degraded_payload(&slot, &req)));
                return Ok(Admitted::Answered(ticket));
            }
        };
        let now = Instant::now();
        let deadline = req.deadline.or(inner.cfg.default_deadline);
        let pending = Pending {
            deadline: deadline.map(|d| now + d),
            seq,
            req,
            enqueued: now,
            ticket: Ticket::new(),
            probe,
        };
        Ok(Admitted::Accepted(slot, pending))
    }

    /// Places an admitted request on its robot's queue, or sheds it when
    /// the queue is full.
    fn enqueue(&self, slot: &RobotSlot, pending: Pending) -> Result<Ticket, ServeError> {
        let inner = &self.inner;
        let probe = pending.probe;
        let ticket = pending.ticket.clone();
        // Count the request *before* it becomes visible to workers — a
        // worker may pop and decrement the instant the push lands.
        inner.in_flight.fetch_add(1, Ordering::SeqCst);
        let depth = inner.depth.fetch_add(1, Ordering::Relaxed) + 1;
        match slot.queue.try_push(pending) {
            Ok(()) => {
                inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
                inner.metrics.requests.add(1);
                inner.metrics.queue_depth.set(depth as f64);
                Ok(ticket)
            }
            Err(_shed) => {
                inner.in_flight.fetch_sub(1, Ordering::SeqCst);
                inner.depth.fetch_sub(1, Ordering::Relaxed);
                inner.stats.shed.fetch_add(1, Ordering::Relaxed);
                inner.metrics.shed.add(1);
                if probe {
                    // The probe never reached a worker; release its slot
                    // (counts as a failed probe — the pool gave no
                    // evidence of health).
                    record_circuit_failure(inner, slot, true);
                }
                Err(ServeError::Rejected {
                    reason: "queue full".into(),
                })
            }
        }
    }

    /// Pauses workers: accepted requests queue but do not execute.
    pub fn pause(&self) {
        self.inner.paused.store(true, Ordering::SeqCst);
    }

    /// Resumes paused workers.
    pub fn resume(&self) {
        self.inner.paused.store(false, Ordering::SeqCst);
        for slot in self.inner.robots.read().expect("robots poisoned").values() {
            slot.queue.notify_all();
        }
    }

    /// Current per-engine counters.
    pub fn stats(&self) -> EngineStats {
        let s = &self.inner.stats;
        EngineStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            inline: s.inline.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            deadline_exceeded: s.deadline_exceeded.load(Ordering::Relaxed),
            bad_requests: s.bad_requests.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            largest_batch: s.largest_batch.load(Ordering::Relaxed),
            crashed: s.crashed.load(Ordering::Relaxed),
            degraded: s.degraded.load(Ordering::Relaxed),
            worker_restarts: s.worker_restarts.load(Ordering::Relaxed),
            circuit_trips: s.circuit_trips.load(Ordering::Relaxed),
            injected_stalls: s.injected_stalls.load(Ordering::Relaxed),
            injected_crashes: s.injected_crashes.load(Ordering::Relaxed),
            injected_pressure: s.injected_pressure.load(Ordering::Relaxed),
        }
    }

    /// Graceful drain: stops admitting, wakes paused workers, executes
    /// everything already queued (every accepted ticket resolves — the
    /// supervisor keeps restarting crashed workers until the drain
    /// completes), then joins the worker pool. Idempotent; later calls
    /// wait for the first one's drain.
    pub fn shutdown(&self) {
        let inner = &self.inner;
        inner.closed.store(true, Ordering::SeqCst);
        let _span = obs::span(OBS_CATEGORY, "shutdown");
        for slot in inner.robots.read().expect("robots poisoned").values() {
            slot.queue.notify_all();
        }
        let supervisor = inner
            .supervision
            .lock()
            .expect("supervision poisoned")
            .supervisor
            .take();
        match supervisor {
            Some(handle) => {
                let _ = handle.join();
            }
            None => {
                // Either nothing was ever registered, or a concurrent
                // shutdown owns the supervisor; wait for its drain.
                loop {
                    let drained = inner
                        .supervision
                        .lock()
                        .expect("supervision poisoned")
                        .workers
                        .is_empty();
                    if drained {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        inner.metrics.queue_depth.set(0.0);
    }
}

fn spawn_worker(
    robot: String,
    inner: Arc<EngineInner>,
    slot: Arc<RobotSlot>,
    index: usize,
) -> WorkerCell {
    let w_slot = Arc::clone(&slot);
    WorkerCell {
        robot,
        slot,
        index,
        handle: std::thread::spawn(move || worker_loop(inner, w_slot, index)),
    }
}

/// Admission-time validation, so malformed requests fail fast with a
/// typed error instead of occupying queue space.
fn validate(model: &RobotModel, req: &ServeRequest) -> Result<(), ServeError> {
    let n = model.num_links();
    let check = |what: &str, values: &[f64]| -> Result<(), ServeError> {
        if values.len() != n {
            return Err(ServeError::BadRequest(format!(
                "{what} dimension mismatch: expected {n}, got {}",
                values.len()
            )));
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(ServeError::BadRequest(format!(
                "{what} contains a non-finite value"
            )));
        }
        Ok(())
    };
    check("q", &req.q)?;
    if let WorkKind::Rollout { steps } = req.kind {
        if steps == 0 {
            return Err(ServeError::BadRequest(
                "rollout horizon must be at least 1 step".into(),
            ));
        }
    }
    match req.kind {
        WorkKind::Kernel(KernelKind::ForwardKinematics) => Ok(()),
        WorkKind::Kernel(KernelKind::DynamicsGradient | KernelKind::InverseDynamics)
        | WorkKind::Rollout { .. }
        | WorkKind::MixedPipeline => {
            check("qd", &req.qd)?;
            check("tau", &req.tau)
        }
    }
}

/// Topology-derived default knobs, mirroring the framework's Hybrid
/// heuristic: forward PEs track leaf depth, backward PEs track the
/// largest subtree, and the block size minimises the blocked-mat-mul
/// latency under the default model (computed through the pipeline, so
/// the plans land in the shared store pre-warmed for simulation).
fn default_knobs(pipeline: &Pipeline, topo: &Topology) -> AcceleratorKnobs {
    let m = topo.metrics();
    let n = m.total_links.max(1);
    let model = MatmulLatencyModel::default();
    let units = MatmulUnits::PerLink.resolve(n);
    let block = (1..=n)
        .min_by_key(|&b| {
            pipeline
                .block_plan(topo, PatternKind::InverseMass, 2 * n, b, units)
                .latency(&model)
        })
        .unwrap_or(n);
    AcceleratorKnobs::new(m.max_leaf_depth.max(1), m.max_descendants.max(1), block)
}

/// The degraded answer: the design's analytical latency estimate (clock
/// period × schedule makespan), no simulation involved. Trajectory
/// workloads scale the estimate across their chain: a rollout multiplies
/// the ∇FD estimate by its horizon, a mixed chain sums the three
/// kernels' estimates.
fn degraded_payload(slot: &RobotSlot, req: &ServeRequest) -> ServePayload {
    match req.kind {
        WorkKind::Kernel(kind) => {
            let design = &slot.designs[&kind];
            ServePayload::Degraded {
                kind,
                cycles: design.compute_cycles(),
                clock_ns: design.clock_ns(),
                latency_us: design.compute_latency_us(),
            }
        }
        WorkKind::Rollout { steps } => {
            let design = &slot.designs[&KernelKind::DynamicsGradient];
            ServePayload::Degraded {
                kind: KernelKind::DynamicsGradient,
                cycles: design.compute_cycles() * u64::from(steps),
                clock_ns: design.clock_ns(),
                latency_us: design.compute_latency_us() * f64::from(steps),
            }
        }
        WorkKind::MixedPipeline => {
            let grad = &slot.designs[&KernelKind::DynamicsGradient];
            let (cycles, latency_us) = slot.designs.values().fold((0u64, 0.0), |(c, l), design| {
                (c + design.compute_cycles(), l + design.compute_latency_us())
            });
            ServePayload::Degraded {
                kind: KernelKind::DynamicsGradient,
                cycles,
                clock_ns: grad.clock_ns(),
                latency_us,
            }
        }
    }
}

/// Records a breaker failure and keeps the trip counter and open-robot
/// gauge consistent with the resulting transition.
fn record_circuit_failure(inner: &EngineInner, slot: &RobotSlot, probe: bool) {
    match slot.breaker.on_failure(probe) {
        FailureOutcome::Tripped => {
            inner.stats.circuit_trips.fetch_add(1, Ordering::Relaxed);
            inner.metrics.circuit_trips.add(1);
            let open = inner.open_circuits.fetch_add(1, Ordering::Relaxed) + 1;
            inner.metrics.circuit_open.set(open as f64);
        }
        FailureOutcome::Reopened => {
            // The gauge never dropped while half-open; count the trip
            // only.
            inner.stats.circuit_trips.fetch_add(1, Ordering::Relaxed);
            inner.metrics.circuit_trips.add(1);
        }
        FailureOutcome::Unchanged => {}
    }
}

/// Records a breaker success; a probe success closing the circuit drops
/// the open-robot gauge and counts a close.
fn record_circuit_success(inner: &EngineInner, slot: &RobotSlot, probe: bool) {
    if slot.breaker.on_success(probe) {
        inner.metrics.circuit_closes.add(1);
        let open = inner
            .open_circuits
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        inner.metrics.circuit_open.set(open as f64);
    }
}

/// One simulated accelerator instance: drains the robot's EDF queue
/// until shutdown, coalescing compatible ∇FD requests, on arena `index`
/// of the robot's pool. Returns how it ended so the supervisor knows
/// whether to restart it.
fn worker_loop(inner: Arc<EngineInner>, slot: Arc<RobotSlot>, index: usize) -> WorkerExit {
    loop {
        let Some(batch) = slot
            .queue
            .next_batch(inner.cfg.max_batch, &inner.paused, &inner.closed)
        else {
            return WorkerExit::Drained;
        };
        let popped = batch.len() as u64;
        let depth = inner
            .depth
            .fetch_sub(popped, Ordering::Relaxed)
            .saturating_sub(popped);
        inner.metrics.queue_depth.set(depth as f64);
        // Persistent arenas: after the first request of each kernel,
        // executions reuse the bound buffers (zero allocation in the
        // warm ∇FD path). The inline path may hold this one briefly.
        // A crash never poisons it: `execute_guarded` catches the panic
        // while this guard is still held.
        let mut arena = slot.arenas[index].lock().expect("worker arena poisoned");
        let crashed = execute_guarded(&inner, &slot, &mut arena, batch);
        drop(arena);
        inner.in_flight.fetch_sub(popped, Ordering::SeqCst);
        if crashed {
            return WorkerExit::Crashed;
        }
    }
}

/// Executes `batch` on `arena`, containing a crash (injected, or a real
/// panic): the arena is reset, since a panic mid-evaluation may leave
/// consume-on-read accumulators dirty, and every ticket the batch has
/// not resolved yet resolves to `WorkerCrashed`. Returns whether it
/// crashed. The one crash-cleanup path of workers and inline runs.
fn execute_guarded(
    inner: &EngineInner,
    slot: &RobotSlot,
    arena: &mut WorkerScratch,
    batch: Vec<Pending>,
) -> bool {
    // Keep enough of each request to clean up after a crash: the
    // ticket, its probe flag, and its enqueue time (for latency).
    let tickets: Vec<(Ticket, bool, Instant)> = batch
        .iter()
        .map(|p| (p.ticket.clone(), p.probe, p.enqueued))
        .collect();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute(inner, slot, arena, batch)
    }));
    if matches!(outcome, Ok(ExecOutcome::Completed)) {
        return false;
    }
    *arena = WorkerScratch::default();
    for (ticket, probe, enqueued) in tickets {
        // Claim, count, then publish: a waiter that sees
        // `WorkerCrashed` also sees it in the stats and the breaker.
        if ticket.claim() {
            inner.stats.crashed.fetch_add(1, Ordering::Relaxed);
            inner.metrics.crashed.add(1);
            inner.metrics.record_response(enqueued);
            record_circuit_failure(inner, slot, probe);
            ticket.publish(Err(ServeError::WorkerCrashed));
        }
    }
    true
}

/// Joins finished workers, restarting crashed ones — **always**, even
/// during shutdown, so a crash mid-drain cannot strand queued tickets.
/// Progress is guaranteed: every crash consumes at least the batch it
/// popped (those tickets resolve to `WorkerCrashed`), and a closed
/// engine admits nothing new. Exits once the engine is closed and the
/// last worker has drained.
fn supervisor_loop(inner: Arc<EngineInner>) {
    loop {
        let closed = inner.closed.load(Ordering::SeqCst);
        {
            let mut sup = inner.supervision.lock().expect("supervision poisoned");
            let mut finished = Vec::new();
            let mut i = 0;
            while i < sup.workers.len() {
                if sup.workers[i].handle.is_finished() {
                    finished.push(sup.workers.remove(i));
                } else {
                    i += 1;
                }
            }
            for cell in finished {
                let crashed = match cell.handle.join() {
                    Ok(WorkerExit::Drained) => false,
                    // A real panic (join error) is treated exactly like
                    // an injected crash: restart.
                    Ok(WorkerExit::Crashed) | Err(_) => true,
                };
                if crashed {
                    inner.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
                    inner.metrics.worker_restarts.add(1);
                    let replacement = spawn_worker(
                        cell.robot,
                        Arc::clone(&inner),
                        Arc::clone(&cell.slot),
                        cell.index,
                    );
                    sup.workers.push(replacement);
                }
            }
            if closed && sup.workers.is_empty() {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn execute(
    inner: &EngineInner,
    slot: &RobotSlot,
    scratch: &mut WorkerScratch,
    batch: Vec<Pending>,
) -> ExecOutcome {
    let _span = obs::span(OBS_CATEGORY, "execute");
    let now = Instant::now();
    // Late requests are resolved without spending accelerator cycles.
    let (live, expired): (Vec<Pending>, Vec<Pending>) = batch
        .into_iter()
        .partition(|p| p.deadline.is_none_or(|d| d >= now));
    for p in expired {
        inner
            .stats
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        inner.metrics.deadline.add(1);
        if p.probe {
            // An expired probe is evidence the pool is too slow: release
            // the probe slot as a failure.
            record_circuit_failure(inner, slot, true);
        }
        respond(inner, &p, Err(ServeError::DeadlineExceeded));
    }
    if live.is_empty() {
        return ExecOutcome::Completed;
    }

    // Chaos: stall first (bounded, deterministic per request), then
    // crash. Both are keyed on the admission sequence number, so the
    // schedule is identical across same-seed runs.
    if let Some(plan) = inner.plan {
        let mut stall = Duration::ZERO;
        let mut stalled = 0u64;
        for p in &live {
            if plan.fires(FaultSite::WorkerStall, p.seq) {
                stall += plan.stall_duration(p.seq);
                stalled += 1;
            }
        }
        if stalled > 0 {
            inner
                .stats
                .injected_stalls
                .fetch_add(stalled, Ordering::Relaxed);
            inner.metrics.fault_stall.add(stalled);
            std::thread::sleep(stall);
        }
        let crash_marked = live
            .iter()
            .filter(|p| plan.fires(FaultSite::WorkerCrash, p.seq))
            .count() as u64;
        if crash_marked > 0 {
            inner
                .stats
                .injected_crashes
                .fetch_add(crash_marked, Ordering::Relaxed);
            inner.metrics.fault_crash.add(crash_marked);
            // Die before dispatch: `execute_guarded` resolves the batch's
            // tickets to `WorkerCrashed` and the supervisor restarts us.
            return ExecOutcome::InjectedCrash;
        }
    }

    inner.stats.batches.fetch_add(1, Ordering::Relaxed);
    inner
        .stats
        .largest_batch
        .fetch_max(live.len() as u64, Ordering::Relaxed);
    inner.metrics.batches.add(1);
    inner.metrics.batch_size.record(live.len() as u64);

    dispatch_batch(inner, slot, scratch, &live);
    ExecOutcome::Completed
}

/// The single submit/respond path every kernel shares: try the batched
/// program entry point when the kernel has one and the batch is
/// coalesced, otherwise (or on a failed batched call, so one bad input
/// cannot fail its neighbours) execute request by request. Backend
/// routing lives inside the program: a lane-backend program runs whole
/// groups of four through the SoA path and remainders through scalar,
/// bit-identically.
fn dispatch_batch(
    inner: &EngineInner,
    slot: &RobotSlot,
    scratch: &mut WorkerScratch,
    live: &[Pending],
) {
    let batched: Option<Result<Vec<ServePayload>, SimError>> = if live.len() > 1 {
        // The queue only coalesces [`WorkKind::is_coalescable`] requests,
        // so a multi-request batch is homogeneous single-step work.
        let WorkKind::Kernel(kind) = live[0].req.kind else {
            unreachable!("trajectory workloads pop alone");
        };
        let program = &slot.programs[&kind];
        let arena = scratch.for_kernel(kind);
        let inputs = || -> Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> {
            live.iter()
                .map(|p| (p.req.q.clone(), p.req.qd.clone(), p.req.tau.clone()))
                .collect()
        };
        match kind {
            KernelKind::DynamicsGradient => Some(
                program
                    .execute_batch(&slot.model, arena, &inputs())
                    .map(|(sims, _makespan)| sims.into_iter().map(gradient_payload).collect()),
            ),
            KernelKind::InverseDynamics => Some(
                program
                    .execute_inverse_dynamics_batch(&slot.model, arena, &inputs())
                    .map(|(taus, _makespan)| {
                        let cycles = program.stats().cycles;
                        taus.into_iter()
                            .map(|tau| ServePayload::InverseDynamics { tau, cycles })
                            .collect()
                    }),
            ),
            // FK has no batched entry point.
            KernelKind::ForwardKinematics => None,
        }
    } else {
        None
    };
    match batched {
        Some(Ok(payloads)) => {
            for (p, payload) in live.iter().zip(payloads) {
                finish_ok(inner, slot, p, payload);
            }
        }
        // One bad input fails a whole batched call; fall back to singles
        // so its neighbours still succeed. Kernels without a batched
        // path — and all trajectory workloads — land here directly.
        Some(Err(_)) | None => {
            for p in live {
                let result = execute_single(&inner.metrics, slot, scratch, p);
                finish(inner, slot, p, result);
            }
        }
    }
}

/// Executes one request through the per-kernel scalar entry points and
/// shapes its payload — the shared fallback of [`dispatch_batch`] and
/// the only path trajectory workloads take.
fn execute_single(
    metrics: &EngineMetrics,
    slot: &RobotSlot,
    scratch: &mut WorkerScratch,
    p: &Pending,
) -> Result<ServePayload, SimError> {
    match p.req.kind {
        WorkKind::Kernel(kind) => {
            let program = &slot.programs[&kind];
            let arena = scratch.for_kernel(kind);
            match kind {
                KernelKind::DynamicsGradient => program
                    .execute_gradient(&slot.model, arena, &p.req.q, &p.req.qd, &p.req.tau)
                    .map(gradient_payload),
                KernelKind::InverseDynamics => program
                    .execute_inverse_dynamics(&slot.model, arena, &p.req.q, &p.req.qd, &p.req.tau)
                    .map(|(tau, stats)| ServePayload::InverseDynamics {
                        tau,
                        cycles: stats.cycles,
                    }),
                KernelKind::ForwardKinematics => program
                    .execute_kinematics(&slot.model, arena, &p.req.q)
                    .map(|(poses, stats)| kinematics_payload(&poses, stats.cycles)),
            }
        }
        WorkKind::Rollout { steps } => execute_rollout(metrics, slot, scratch, p, steps),
        WorkKind::MixedPipeline => execute_mixed(metrics, slot, scratch, p),
    }
}

/// Runs a whole rollout horizon worker-side: `steps` sequential ∇FD
/// evaluations through the robot's gradient program, feeding the state
/// forward with [`crate::workload::advance`] between steps. The payload
/// carries the final state plus the last step's gradients; cycles are
/// summed across the horizon.
fn execute_rollout(
    metrics: &EngineMetrics,
    slot: &RobotSlot,
    scratch: &mut WorkerScratch,
    p: &Pending,
    steps: u32,
) -> Result<ServePayload, SimError> {
    let program = &slot.programs[&KernelKind::DynamicsGradient];
    let arena = scratch.for_kernel(KernelKind::DynamicsGradient);
    let mut q = p.req.q.clone();
    let mut qd = p.req.qd.clone();
    let mut cycles = 0u64;
    let mut last: Option<Simulation> = None;
    for _ in 0..steps {
        let sim = program.execute_gradient(&slot.model, arena, &q, &qd, &p.req.tau)?;
        cycles += sim.stats.cycles;
        crate::workload::advance(&slot.model, &mut q, &mut qd, &p.req.tau);
        last = Some(sim);
    }
    let sim = last.expect("steps >= 1 validated at admission");
    metrics.rollout_requests.add(1);
    metrics.rollout_steps.add(u64::from(steps));
    Ok(ServePayload::Rollout {
        steps,
        q_final: q,
        qd_final: qd,
        tau: sim.tau.clone(),
        dqdd_dq: flatten_mat(&sim.dqdd_dq),
        dqdd_dqd: flatten_mat(&sim.dqdd_dqd),
        cycles,
    })
}

/// Runs the ID→∇FD→FK chain on one state: inverse dynamics turns the
/// request's `q̈` into torques, those torques drive the gradient kernel,
/// and forward kinematics poses the input configuration. Cycles are
/// summed across the three kernels.
fn execute_mixed(
    metrics: &EngineMetrics,
    slot: &RobotSlot,
    scratch: &mut WorkerScratch,
    p: &Pending,
) -> Result<ServePayload, SimError> {
    let id_program = &slot.programs[&KernelKind::InverseDynamics];
    let id_arena = scratch.for_kernel(KernelKind::InverseDynamics);
    let (tau, id_stats) = id_program.execute_inverse_dynamics(
        &slot.model,
        id_arena,
        &p.req.q,
        &p.req.qd,
        &p.req.tau,
    )?;

    let grad_program = &slot.programs[&KernelKind::DynamicsGradient];
    let grad_arena = scratch.for_kernel(KernelKind::DynamicsGradient);
    let sim = grad_program.execute_gradient(&slot.model, grad_arena, &p.req.q, &p.req.qd, &tau)?;

    let fk_program = &slot.programs[&KernelKind::ForwardKinematics];
    let fk_arena = scratch.for_kernel(KernelKind::ForwardKinematics);
    let (poses, fk_stats) = fk_program.execute_kinematics(&slot.model, fk_arena, &p.req.q)?;

    metrics.mixed_requests.add(1);
    let ServePayload::Kinematics { poses, .. } = kinematics_payload(&poses, fk_stats.cycles) else {
        unreachable!("kinematics_payload shapes a Kinematics payload");
    };
    Ok(ServePayload::Mixed {
        tau,
        dqdd_dq: flatten_mat(&sim.dqdd_dq),
        dqdd_dqd: flatten_mat(&sim.dqdd_dqd),
        poses,
        cycles: id_stats.cycles + sim.stats.cycles + fk_stats.cycles,
    })
}

/// Row-major flattening of an `n × n` matrix.
fn flatten_mat(m: &roboshape_linalg::DMat) -> Vec<f64> {
    let n = m.rows();
    let mut out = Vec::with_capacity(n * n);
    for r in 0..n {
        for c in 0..n {
            out.push(m[(r, c)]);
        }
    }
    out
}

fn kinematics_payload(poses: &[roboshape_spatial::Xform], cycles: u64) -> ServePayload {
    let mut flat = Vec::with_capacity(poses.len() * 12);
    for x in poses {
        let rot = x.rotation();
        for r in 0..3 {
            for c in 0..3 {
                flat.push(rot.get(r, c));
            }
        }
        let t = x.translation();
        flat.extend_from_slice(&[t.x, t.y, t.z]);
    }
    ServePayload::Kinematics {
        poses: flat,
        cycles,
    }
}

fn gradient_payload(sim: Simulation) -> ServePayload {
    ServePayload::Gradient {
        tau: sim.tau.clone(),
        dqdd_dq: flatten_mat(&sim.dqdd_dq),
        dqdd_dqd: flatten_mat(&sim.dqdd_dqd),
        cycles: sim.stats.cycles,
    }
}

fn finish_ok(inner: &EngineInner, slot: &RobotSlot, p: &Pending, payload: ServePayload) {
    inner.stats.completed.fetch_add(1, Ordering::Relaxed);
    record_circuit_success(inner, slot, p.probe);
    respond(inner, p, Ok(payload));
}

fn finish(
    inner: &EngineInner,
    slot: &RobotSlot,
    p: &Pending,
    result: Result<ServePayload, SimError>,
) {
    match result {
        Ok(payload) => finish_ok(inner, slot, p, payload),
        Err(e) => {
            inner.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            inner.metrics.bad_request.add(1);
            // A sim error still proves the worker is alive — record a
            // success so a half-open probe releases and the streak
            // resets.
            record_circuit_success(inner, slot, p.probe);
            respond(inner, p, Err(e.into()));
        }
    }
}

fn respond(inner: &EngineInner, p: &Pending, result: ServeResult) {
    inner.metrics.record_response(p.enqueued);
    p.ticket.fulfill(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use roboshape_robots::{zoo, Zoo};
    use roboshape_sim::try_simulate;

    fn engine_with(robot: Zoo, cfg: EngineConfig) -> Engine {
        let engine = Engine::with_pipeline(cfg, Pipeline::new());
        engine.register(robot.name(), zoo(robot));
        engine
    }

    #[test]
    fn gradient_round_trip_matches_direct_simulation() {
        let engine = engine_with(Zoo::Iiwa, EngineConfig::default());
        let n = engine.num_links("iiwa").unwrap();
        let (q, qd, tau) = (vec![0.3; n], vec![0.1; n], vec![0.5; n]);
        let ticket = engine
            .submit(ServeRequest::gradient(
                "iiwa",
                q.clone(),
                qd.clone(),
                tau.clone(),
            ))
            .unwrap();
        let payload = ticket.wait().unwrap();

        let robot = zoo(Zoo::Iiwa);
        let pipeline = Pipeline::new();
        let knobs = default_knobs(&pipeline, robot.topology());
        let design = pipeline.design(robot.topology(), knobs, KernelKind::DynamicsGradient);
        let reference = try_simulate(&robot, &design, &q, &qd, &tau).unwrap();
        match payload {
            ServePayload::Gradient {
                tau: t,
                dqdd_dq,
                cycles,
                ..
            } => {
                assert_eq!(t, reference.tau);
                assert_eq!(dqdd_dq[0], reference.dqdd_dq[(0, 0)]);
                assert_eq!(cycles, reference.stats.cycles);
            }
            other => panic!("wrong payload: {other:?}"),
        }
        engine.shutdown();
        assert_eq!(engine.stats().completed, 1);
    }

    #[test]
    fn unknown_robot_and_bad_dimensions_are_typed_errors() {
        let engine = engine_with(Zoo::Iiwa, EngineConfig::default());
        let err = engine
            .submit(ServeRequest::kinematics("nonexistent", vec![0.0; 7]))
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownRobot(_)));

        let err = engine
            .submit(ServeRequest::gradient(
                "iiwa",
                vec![0.0; 3],
                vec![0.0; 7],
                vec![0.0; 7],
            ))
            .unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
        assert!(!err.is_retryable(), "bad requests fail identically again");

        let err = engine
            .submit(ServeRequest::gradient(
                "iiwa",
                vec![f64::NAN; 7],
                vec![0.0; 7],
                vec![0.0; 7],
            ))
            .unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)));
        assert_eq!(engine.stats().bad_requests, 2);
        engine.shutdown();
    }

    #[test]
    fn full_queue_sheds_and_shutdown_drains_accepted_requests() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                queue_capacity: 2,
                workers_per_robot: 1,
                start_paused: true,
                ..EngineConfig::default()
            },
        );
        let req = || ServeRequest::kinematics("iiwa", vec![0.1; 7]);
        let t1 = engine.submit(req()).unwrap();
        let t2 = engine.submit(req()).unwrap();
        let err = engine.submit(req()).unwrap_err();
        assert!(matches!(err, ServeError::Rejected { .. }), "{err}");
        assert!(err.is_retryable());
        assert_eq!(engine.stats().shed, 1);

        // Graceful drain: both accepted tickets resolve even though the
        // engine was paused the whole time.
        engine.shutdown();
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
        assert_eq!(engine.stats().completed, 2);

        let err = engine.submit(req()).unwrap_err();
        assert!(matches!(err, ServeError::Rejected { .. }));
    }

    #[test]
    fn expired_deadline_resolves_to_deadline_exceeded() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 1,
                start_paused: true,
                ..EngineConfig::default()
            },
        );
        let ticket = engine
            .submit(
                ServeRequest::kinematics("iiwa", vec![0.1; 7])
                    .with_deadline(Duration::from_micros(1)),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        engine.resume();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::DeadlineExceeded);
        assert_eq!(engine.stats().deadline_exceeded, 1);
        engine.shutdown();
    }

    #[test]
    fn default_deadline_budget_applies_to_deadline_free_requests() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 1,
                start_paused: true,
                default_deadline: Some(Duration::from_micros(1)),
                ..EngineConfig::default()
            },
        );
        let ticket = engine
            .submit(ServeRequest::kinematics("iiwa", vec![0.1; 7]))
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        engine.resume();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::DeadlineExceeded);
        engine.shutdown();
    }

    #[test]
    fn paused_engine_coalesces_gradient_requests_into_batches() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 1,
                max_batch: 8,
                start_paused: true,
                ..EngineConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| {
                engine
                    .submit(ServeRequest::gradient(
                        "iiwa",
                        vec![0.1 * (i + 1) as f64; 7],
                        vec![0.0; 7],
                        vec![0.4; 7],
                    ))
                    .unwrap()
            })
            .collect();
        engine.resume();
        for t in &tickets {
            assert!(t.wait().is_ok());
        }
        let stats = engine.stats();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.largest_batch, 4, "all four coalesced: {stats:?}");
        assert_eq!(stats.batches, 1);
        engine.shutdown();
    }

    #[test]
    fn injected_crash_resolves_tickets_and_supervisor_restarts_worker() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 1,
                max_batch: 1,
                circuit_threshold: 100, // keep the circuit out of the way
                chaos: Some(FaultConfig {
                    seed: 11,
                    stall: 0.0,
                    crash: 1.0,
                    corrupt: 0.0,
                    pressure: 0.0,
                }),
                ..EngineConfig::default()
            },
        );
        let ticket = engine
            .submit(ServeRequest::kinematics("iiwa", vec![0.1; 7]))
            .unwrap();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::WorkerCrashed);
        let stats = engine.stats();
        assert_eq!(stats.crashed, 1);
        assert_eq!(stats.injected_crashes, 1);

        // The supervisor brings the worker back.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let health = engine.health();
            if health.robots[0].workers_alive == 1 && engine.stats().worker_restarts >= 1 {
                assert!(health.ready);
                break;
            }
            assert!(Instant::now() < deadline, "worker never restarted");
            std::thread::sleep(Duration::from_millis(2));
        }
        engine.shutdown();
    }

    #[test]
    fn circuit_trips_open_and_serves_degraded_answers() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 1,
                max_batch: 1,
                circuit_threshold: 2,
                circuit_cooldown: Duration::from_millis(20),
                chaos: Some(FaultConfig {
                    seed: 5,
                    stall: 0.0,
                    crash: 1.0, // every executed request crashes
                    corrupt: 0.0,
                    pressure: 0.0,
                }),
                ..EngineConfig::default()
            },
        );
        let req = || ServeRequest::kinematics("iiwa", vec![0.1; 7]);
        // Two crashes trip the breaker.
        for _ in 0..2 {
            let t = engine.submit(req()).unwrap();
            assert_eq!(t.wait().unwrap_err(), ServeError::WorkerCrashed);
        }
        // Crash cleanup records the breaker failure before it publishes
        // the ticket, so the trip is visible as soon as the wait returns.
        assert_eq!(engine.circuit_state("iiwa"), Some(CircuitState::Open));
        assert_eq!(engine.stats().circuit_trips, 1);

        // While open, answers come from the analytical model instantly.
        let payload = engine.submit(req()).unwrap().wait().unwrap();
        match payload {
            ServePayload::Degraded {
                kind,
                cycles,
                clock_ns,
                latency_us,
            } => {
                let design = engine
                    .design_for("iiwa", KernelKind::ForwardKinematics)
                    .unwrap();
                assert_eq!(kind, KernelKind::ForwardKinematics);
                assert_eq!(cycles, design.compute_cycles());
                assert_eq!(clock_ns.to_bits(), design.clock_ns().to_bits());
                assert_eq!(latency_us.to_bits(), design.compute_latency_us().to_bits());
            }
            other => panic!("expected degraded answer, got {other:?}"),
        }
        assert!(engine.stats().degraded >= 1);
        engine.shutdown();
    }

    #[test]
    fn injected_queue_pressure_sheds_with_chaos_reason() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                chaos: Some(FaultConfig {
                    seed: 1,
                    stall: 0.0,
                    crash: 0.0,
                    corrupt: 0.0,
                    pressure: 1.0,
                }),
                ..EngineConfig::default()
            },
        );
        let err = engine
            .submit(ServeRequest::kinematics("iiwa", vec![0.1; 7]))
            .unwrap_err();
        match err {
            ServeError::Rejected { ref reason } => {
                assert!(reason.contains("chaos"), "{reason}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(err.is_retryable());
        assert_eq!(engine.stats().injected_pressure, 1);
        engine.shutdown();
    }

    #[test]
    fn same_seed_runs_produce_identical_stats() {
        // Pinned serial execution (one worker, batch size 1, sequential
        // submits) so timing cannot perturb batch composition; under
        // that, two same-seed runs must agree on every counter.
        let run = |seed: u64| -> EngineStats {
            let engine = engine_with(
                Zoo::Iiwa,
                EngineConfig {
                    workers_per_robot: 1,
                    max_batch: 1,
                    circuit_threshold: 1000, // keep breaker state out of it
                    chaos: Some(FaultConfig {
                        seed,
                        stall: 0.05,
                        crash: 0.2,
                        corrupt: 0.0,
                        pressure: 0.2,
                    }),
                    ..EngineConfig::default()
                },
            );
            for _ in 0..40 {
                if let Ok(t) = engine.submit(ServeRequest::kinematics("iiwa", vec![0.1; 7])) {
                    let _ = t.wait();
                }
            }
            engine.shutdown();
            engine.stats()
        };
        let a = run(99);
        let b = run(99);
        assert_eq!(a, b, "same seed, same fault schedule, same counters");
        assert!(a.injected_crashes > 0 && a.injected_pressure > 0, "{a:?}");
    }

    #[test]
    fn rollout_matches_sequential_single_steps() {
        let engine = engine_with(Zoo::Iiwa, EngineConfig::default());
        let n = engine.num_links("iiwa").unwrap();
        let q0 = vec![0.2; n];
        let qd0 = vec![0.05; n];
        let tau = vec![0.4; n];
        let steps = 3u32;

        let ticket = engine
            .submit(ServeRequest::rollout(
                "iiwa",
                q0.clone(),
                qd0.clone(),
                tau.clone(),
                steps,
            ))
            .unwrap();
        let payload = ticket.wait().unwrap();

        // Reference: N sequential single-step ∇FD calls with the state
        // advanced by the shared integrator between steps.
        let model = zoo(Zoo::Iiwa);
        let (mut q, mut qd) = (q0, qd0);
        let mut last = None;
        let mut want_cycles = 0u64;
        for _ in 0..steps {
            let t = engine
                .submit(ServeRequest::gradient(
                    "iiwa",
                    q.clone(),
                    qd.clone(),
                    tau.clone(),
                ))
                .unwrap();
            let step = t.wait().unwrap();
            crate::workload::advance(&model, &mut q, &mut qd, &tau);
            want_cycles += step.cycles();
            last = Some(step);
        }

        match (payload, last.unwrap()) {
            (
                ServePayload::Rollout {
                    steps: got_steps,
                    q_final,
                    qd_final,
                    tau: roll_tau,
                    dqdd_dq,
                    dqdd_dqd,
                    cycles,
                },
                ServePayload::Gradient {
                    tau: step_tau,
                    dqdd_dq: step_dq,
                    dqdd_dqd: step_dqd,
                    ..
                },
            ) => {
                assert_eq!(got_steps, steps);
                assert_eq!(cycles, want_cycles, "cycles sum over the horizon");
                for (a, b) in q_final.iter().zip(&q) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                for (a, b) in qd_final.iter().zip(&qd) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                assert_eq!(roll_tau, step_tau, "final-step torques bit-equal");
                assert_eq!(dqdd_dq, step_dq);
                assert_eq!(dqdd_dqd, step_dqd);
            }
            other => panic!("wrong payloads: {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn zero_step_rollout_is_a_bad_request() {
        let engine = engine_with(Zoo::Iiwa, EngineConfig::default());
        let err = engine
            .submit(ServeRequest::rollout(
                "iiwa",
                vec![0.1; 7],
                vec![0.0; 7],
                vec![0.0; 7],
                0,
            ))
            .unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
        engine.shutdown();
    }

    #[test]
    fn mixed_pipeline_chains_id_gradient_and_fk() {
        let engine = engine_with(Zoo::Iiwa, EngineConfig::default());
        let n = engine.num_links("iiwa").unwrap();
        let (q, qd, qdd) = (vec![0.3; n], vec![0.1; n], vec![0.2; n]);
        let ticket = engine
            .submit(ServeRequest::mixed("iiwa", q.clone(), qd.clone(), qdd))
            .unwrap();
        match ticket.wait().unwrap() {
            ServePayload::Mixed {
                tau,
                dqdd_dq,
                dqdd_dqd,
                poses,
                cycles,
            } => {
                assert_eq!(tau.len(), n, "ID stage: one torque per joint");
                assert_eq!(dqdd_dq.len(), n * n);
                assert_eq!(dqdd_dqd.len(), n * n);
                assert!(!poses.is_empty() && poses.len() % n == 0, "FK poses");
                assert!(tau.iter().all(|v| v.is_finite()));
                // Three chained kernels must cost more than any one alone.
                let fk_only = engine
                    .submit(ServeRequest::kinematics("iiwa", q))
                    .unwrap()
                    .wait()
                    .unwrap();
                assert!(cycles > fk_only.cycles(), "chain sums stage cycles");
            }
            other => panic!("wrong payload: {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn rollout_deadline_covers_the_whole_horizon() {
        // A deadline that expires while the rollout is queued fails the
        // whole trajectory, not a prefix of it.
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 1,
                start_paused: true,
                ..EngineConfig::default()
            },
        );
        let ticket = engine
            .submit(
                ServeRequest::rollout("iiwa", vec![0.1; 7], vec![0.0; 7], vec![0.2; 7], 8)
                    .with_deadline(Duration::from_micros(1)),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        engine.resume();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::DeadlineExceeded);
        engine.shutdown();
    }

    fn iiwa_gradient() -> ServeRequest {
        ServeRequest::gradient("iiwa", vec![0.3; 7], vec![0.1; 7], vec![0.5; 7])
    }

    fn robot_slot(engine: &Engine, robot: &str) -> Arc<RobotSlot> {
        Arc::clone(&engine.inner.robots.read().unwrap()[robot])
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn submit_or_run_on_an_idle_engine_resolves_inline_bit_exact() {
        let engine = engine_with(Zoo::Iiwa, EngineConfig::default());
        let (q, qd, tau) = (vec![0.3; 7], vec![0.1; 7], vec![0.5; 7]);
        let ticket = engine
            .submit_or_run(ServeRequest::gradient(
                "iiwa",
                q.clone(),
                qd.clone(),
                tau.clone(),
            ))
            .unwrap();
        let payload = ticket
            .try_take()
            .expect("resolved before submit_or_run returned")
            .unwrap();
        let design = engine
            .design_for("iiwa", KernelKind::DynamicsGradient)
            .unwrap();
        let reference = try_simulate(&zoo(Zoo::Iiwa), &design, &q, &qd, &tau).unwrap();
        let ServePayload::Gradient {
            tau: t,
            dqdd_dq,
            dqdd_dqd,
            cycles,
        } = payload
        else {
            panic!("wrong payload: {payload:?}");
        };
        assert_eq!(cycles, reference.stats.cycles);
        assert_eq!(bits(&t), bits(&reference.tau));
        assert_eq!(bits(&dqdd_dq), bits(&flatten_mat(&reference.dqdd_dq)));
        assert_eq!(bits(&dqdd_dqd), bits(&flatten_mat(&reference.dqdd_dqd)));
        let stats = engine.stats();
        assert_eq!(stats.inline, 1);
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(
            (stats.batches, stats.largest_batch),
            (1, 1),
            "a batch of one"
        );
        engine.shutdown();
    }

    #[test]
    fn submit_or_run_queues_on_a_paused_engine() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                start_paused: true,
                ..EngineConfig::default()
            },
        );
        let ticket = engine.submit_or_run(iiwa_gradient()).unwrap();
        assert!(ticket.try_take().is_none(), "queued behind the pause");
        engine.resume();
        assert!(ticket.wait().is_ok());
        assert_eq!(engine.stats().inline, 0);
        engine.shutdown();
    }

    #[test]
    fn submit_or_run_queues_behind_a_backlog() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 1,
                max_batch: 1,
                start_paused: true,
                ..EngineConfig::default()
            },
        );
        let slot = robot_slot(&engine, "iiwa");
        let queued: Vec<Ticket> = (0..2)
            .map(|_| engine.submit(iiwa_gradient()).unwrap())
            .collect();
        // Hold the only arena so the worker stalls after its first pop:
        // one request executing, one queued, on a running engine.
        let arena = slot.arenas[0].lock().unwrap();
        engine.resume();
        let deadline = Instant::now() + Duration::from_secs(5);
        while engine.inner.depth.load(Ordering::SeqCst) != 1 {
            assert!(Instant::now() < deadline, "worker never popped");
            std::thread::sleep(Duration::from_millis(1));
        }
        let ticket = engine.submit_or_run(iiwa_gradient()).unwrap();
        assert!(ticket.try_take().is_none(), "queued behind the backlog");
        drop(arena);
        for t in queued.iter().chain([&ticket]) {
            assert!(t.wait().is_ok());
        }
        let stats = engine.stats();
        assert_eq!((stats.inline, stats.completed), (0, 3));
        engine.shutdown();
    }

    #[test]
    fn submit_or_run_queues_while_any_request_is_on_the_worker_path() {
        // Unpaused, chaos-free, circuit closed, every arena free: only
        // the in-flight count decides.
        let engine = engine_with(Zoo::Iiwa, EngineConfig::default());
        let registered = robot_slot(&engine, "iiwa");
        let admit = || match engine.admit(iiwa_gradient()).unwrap() {
            Admitted::Accepted(_, pending) => pending,
            Admitted::Answered(_) => panic!("a closed circuit answers nothing"),
        };
        let pending = admit();
        assert!(
            engine.inline_arena(&registered, &pending).is_some(),
            "idle engine: runs inline"
        );
        // Queue a request on a worker-less copy of the robot's slot, so
        // it stays queued on a running engine.
        let idle = RobotSlot {
            model: registered.model.clone(),
            designs: registered.designs.clone(),
            programs: registered.programs.clone(),
            queue: EdfQueue::new(4),
            breaker: CircuitBreaker::new(1, Duration::from_secs(1)),
            arenas: Vec::new(),
        };
        engine.enqueue(&idle, admit()).unwrap();
        assert!(
            engine.inline_arena(&registered, &pending).is_none(),
            "queued work: must not be overtaken"
        );
        let ticket = engine.submit_or_run(iiwa_gradient()).unwrap();
        assert!(ticket.wait().is_ok());
        let stats = engine.stats();
        assert_eq!((stats.inline, stats.completed), (0, 1), "{stats:?}");
        engine.shutdown();
    }

    #[test]
    fn submit_or_run_queues_when_every_arena_is_busy() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 1,
                ..EngineConfig::default()
            },
        );
        let slot = robot_slot(&engine, "iiwa");
        let arena = slot.arenas[0].lock().unwrap();
        let ticket = engine.submit_or_run(iiwa_gradient()).unwrap();
        assert!(ticket.try_take().is_none(), "no free arena: queued");
        drop(arena);
        assert!(ticket.wait().is_ok());
        assert_eq!(engine.stats().inline, 0);
        engine.shutdown();
    }

    #[test]
    fn submit_or_run_queues_under_a_fault_plan() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                chaos: Some(FaultConfig::uniform(3, 0.0)),
                ..EngineConfig::default()
            },
        );
        assert!(engine
            .submit_or_run(iiwa_gradient())
            .unwrap()
            .wait()
            .is_ok());
        let stats = engine.stats();
        assert_eq!((stats.inline, stats.submitted), (0, 1));
        engine.shutdown();
    }

    #[test]
    fn submit_or_run_queues_trajectory_work() {
        let engine = engine_with(Zoo::Iiwa, EngineConfig::default());
        let rollout = ServeRequest::rollout("iiwa", vec![0.2; 7], vec![0.0; 7], vec![0.4; 7], 3);
        let mixed = ServeRequest::mixed("iiwa", vec![0.2; 7], vec![0.1; 7], vec![0.3; 7]);
        for req in [rollout, mixed] {
            assert!(engine.submit_or_run(req).unwrap().wait().is_ok());
        }
        let stats = engine.stats();
        assert_eq!((stats.inline, stats.submitted), (0, 2));
        engine.shutdown();
    }

    #[test]
    fn submit_or_run_queues_a_half_open_probe() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                circuit_threshold: 1,
                circuit_cooldown: Duration::from_millis(1),
                ..EngineConfig::default()
            },
        );
        let slot = robot_slot(&engine, "iiwa");
        record_circuit_failure(&engine.inner, &slot, false);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(engine.circuit_state("iiwa"), Some(CircuitState::HalfOpen));
        let payload = engine
            .submit_or_run(iiwa_gradient())
            .unwrap()
            .wait()
            .unwrap();
        assert!(!payload.is_degraded(), "the probe ran on a worker");
        assert_eq!(engine.stats().inline, 0);
        assert_eq!(engine.circuit_state("iiwa"), Some(CircuitState::Closed));
        engine.shutdown();
    }

    #[test]
    fn health_reports_ready_with_live_workers() {
        let engine = engine_with(Zoo::Iiwa, EngineConfig::default());
        let health = engine.health();
        assert!(health.ready);
        assert_eq!(health.robots.len(), 1);
        assert_eq!(health.robots[0].name, "iiwa");
        assert_eq!(health.robots[0].circuit, CircuitState::Closed);
        assert_eq!(health.robots[0].workers_alive, 2);
        engine.shutdown();
        assert!(!engine.health().ready, "closed engine is not ready");
    }
}
