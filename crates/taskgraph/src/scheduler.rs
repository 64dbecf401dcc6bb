//! List scheduling of traversal tasks onto processing elements.
//!
//! Implements the paper's Sec. 4.2 scheduling strategy: a critical-path
//! ("longest sequential thread first") list scheduler that assigns forward
//! tasks to the `PEs_fwd` forward PEs and backward tasks to the `PEs_bwd`
//! backward PEs, preferring to keep a thread of tasks on the PE that holds
//! its predecessor's state (branch save/restore events are counted for the
//! checkpoint-storage sizing of Fig. 8e).

use crate::graph::{Stage, TaskGraph, TaskId, TaskKind};
use core::fmt;
use roboshape_obs::{Counter, Histogram};
use std::sync::{Arc, OnceLock};

/// Whether a PE belongs to the forward- or backward-traversal pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum PeClass {
    /// Forward-traversal PEs (`PEs_fwd`).
    Forward,
    /// Backward-traversal PEs (`PEs_bwd`).
    Backward,
}

/// Cycle cost of each task kind on a PE.
///
/// The defaults are the repository's calibrated model (see DESIGN.md):
/// they put the generated designs' cycle counts in the range the paper's
/// Fig. 12 reports (maximum latencies of roughly 800–7000 cycles across
/// the six robots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TaskCosts {
    /// Cycles for an RNEA forward link step.
    pub rnea_fwd: u64,
    /// Cycles for an RNEA backward link step.
    pub rnea_bwd: u64,
    /// Cycles for a ∇RNEA forward step (both ∂/∂q and ∂/∂q̇).
    pub grad_fwd: u64,
    /// Cycles for a ∇RNEA backward step.
    pub grad_bwd: u64,
}

impl Default for TaskCosts {
    fn default() -> Self {
        TaskCosts {
            rnea_fwd: 10,
            rnea_bwd: 7,
            grad_fwd: 12,
            grad_bwd: 8,
        }
    }
}

impl TaskCosts {
    /// Cost of a specific task kind.
    pub fn of(&self, kind: TaskKind) -> u64 {
        match kind.stage() {
            Stage::RneaFwd => self.rnea_fwd,
            Stage::RneaBwd => self.rnea_bwd,
            Stage::GradFwd => self.grad_fwd,
            Stage::GradBwd => self.grad_bwd,
        }
    }
}

/// Scheduler parameters: the PE allocation knobs plus task costs and
/// pipelining mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SchedulerConfig {
    /// Number of forward-traversal PEs (`PEs_fwd` knob).
    pub pe_fwd: usize,
    /// Number of backward-traversal PEs (`PEs_bwd` knob).
    pub pe_bwd: usize,
    /// Per-task cycle costs.
    pub costs: TaskCosts,
    /// `true`: dependency-driven issue across stages (the paper's
    /// "Avg. w/ Pipelining"); `false`: a barrier between stages
    /// ("No Pipelining").
    pub pipelined: bool,
    /// `true` (default): the paper's modified depth-first-search order —
    /// each PE class walks the limbs one at a time (reverse order for the
    /// backward class), running a limb's RNEA pass then its ∇ pass, and a
    /// limb's tasks only become eligible once every earlier task in that
    /// walk has *finished* (branch state is saved/restored between limbs).
    /// This is what bounds useful forward PEs by the max leaf depth and
    /// backward PEs by the max descendant count (paper Sec. 5.4,
    /// Insight #1). `false`: fully greedy global scheduling (an idealized
    /// bound that exploits cross-limb parallelism the hardware's shared
    /// marshalling paths do not have).
    pub limb_sequential: bool,
}

impl SchedulerConfig {
    /// A pipelined, limb-sequential configuration with default costs.
    ///
    /// # Panics
    ///
    /// Panics if either PE count is zero.
    pub fn with_pes(pe_fwd: usize, pe_bwd: usize) -> SchedulerConfig {
        assert!(pe_fwd > 0 && pe_bwd > 0, "PE counts must be positive");
        SchedulerConfig {
            pe_fwd,
            pe_bwd,
            costs: TaskCosts::default(),
            pipelined: true,
            limb_sequential: true,
        }
    }

    /// Same allocation without cross-stage pipelining.
    pub fn without_pipelining(mut self) -> SchedulerConfig {
        self.pipelined = false;
        self
    }

    /// Same allocation with fully greedy (non-limb-sequential) scheduling.
    pub fn fully_greedy(mut self) -> SchedulerConfig {
        self.limb_sequential = false;
        self
    }
}

/// One scheduled task instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ScheduleEntry {
    /// The task.
    pub task: TaskId,
    /// PE pool.
    pub pe_class: PeClass,
    /// PE index within its pool.
    pub pe: usize,
    /// Start cycle.
    pub start: u64,
    /// End cycle (exclusive).
    pub end: u64,
}

/// A complete schedule: every task mapped to a PE and a cycle interval.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Schedule {
    entries: Vec<ScheduleEntry>,
    pe_fwd: usize,
    pe_bwd: usize,
    makespan: u64,
}

/// Error returned by [`Schedule::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A task is missing or scheduled more than once.
    Coverage(String),
    /// A dependency finishes after its dependent starts.
    DependencyViolation(String),
    /// Two tasks overlap on the same PE.
    Overlap(String),
    /// A task ran on the wrong PE class or an out-of-range PE index.
    WrongPe(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Coverage(m) => write!(f, "coverage error: {m}"),
            ScheduleError::DependencyViolation(m) => write!(f, "dependency violation: {m}"),
            ScheduleError::Overlap(m) => write!(f, "PE overlap: {m}"),
            ScheduleError::WrongPe(m) => write!(f, "wrong PE: {m}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// All entries, sorted by start cycle (ties by task id).
    pub fn entries(&self) -> &[ScheduleEntry] {
        &self.entries
    }

    /// Total cycles until the last task retires.
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// The configured PE counts `(PEs_fwd, PEs_bwd)`.
    pub fn pe_counts(&self) -> (usize, usize) {
        (self.pe_fwd, self.pe_bwd)
    }

    /// The ordered program of one PE.
    pub fn pe_program(&self, class: PeClass, pe: usize) -> Vec<ScheduleEntry> {
        let mut v: Vec<ScheduleEntry> = self
            .entries
            .iter()
            .copied()
            .filter(|e| e.pe_class == class && e.pe == pe)
            .collect();
        v.sort_by_key(|e| e.start);
        v
    }

    /// `(first start, last end)` of a stage's tasks, or `None` when the
    /// stage is empty.
    pub fn stage_span(&self, graph: &TaskGraph, stage: Stage) -> Option<(u64, u64)> {
        let mut span: Option<(u64, u64)> = None;
        for e in &self.entries {
            if graph.task(e.task).kind.stage() == stage {
                span = Some(match span {
                    None => (e.start, e.end),
                    Some((s, t)) => (s.min(e.start), t.max(e.end)),
                });
            }
        }
        span
    }

    /// Busy-cycle fraction across all PEs (0–1).
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        let busy: u64 = self.entries.iter().map(|e| e.end - e.start).sum();
        busy as f64 / (self.makespan * (self.pe_fwd + self.pe_bwd) as u64) as f64
    }

    /// Renders the schedule as an ASCII Gantt chart: one row per PE,
    /// `width` columns over the makespan. Cell legend: `F` RNEA-forward,
    /// `B` RNEA-backward, `g` ∇-forward, `b` ∇-backward, `.` idle (the
    /// paper's Fig. 7b schedule tables, drawn in time).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn render_gantt(&self, graph: &TaskGraph, width: usize) -> String {
        assert!(width > 0, "gantt width must be positive");
        let span = self.makespan.max(1);
        let mut out = String::new();
        for (class, label, count) in [
            (PeClass::Forward, "fwd", self.pe_fwd),
            (PeClass::Backward, "bwd", self.pe_bwd),
        ] {
            for pe in 0..count {
                let mut row = vec!['.'; width];
                for e in self.pe_program(class, pe) {
                    let ch = match graph.task(e.task).kind.stage() {
                        Stage::RneaFwd => 'F',
                        Stage::RneaBwd => 'B',
                        Stage::GradFwd => 'g',
                        Stage::GradBwd => 'b',
                    };
                    let c0 = (e.start * width as u64 / span) as usize;
                    let c1 = ((e.end * width as u64).div_ceil(span) as usize).min(width);
                    for cell in row.iter_mut().take(c1).skip(c0) {
                        *cell = ch;
                    }
                }
                out.push_str(&format!("{label}{pe:<2} |"));
                out.extend(row);
                out.push_str("|\n");
            }
        }
        out
    }

    /// Counts thread context switches: schedule slots where a PE's next
    /// task is not the chain successor of what it just ran, forcing a
    /// branch-state restore from checkpoint storage (paper Fig. 8e).
    pub fn context_switches(&self, graph: &TaskGraph) -> usize {
        let mut count = 0;
        for class in [PeClass::Forward, PeClass::Backward] {
            let pes = if class == PeClass::Forward {
                self.pe_fwd
            } else {
                self.pe_bwd
            };
            for pe in 0..pes {
                let prog = self.pe_program(class, pe);
                for pair in prog.windows(2) {
                    let prev = graph.task(pair[0].task).kind;
                    let next = graph.task(pair[1].task).kind;
                    if !is_chain_successor(prev, next) {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    /// Validates the schedule against its task graph.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScheduleError`] found: incomplete coverage,
    /// dependency violations, same-PE overlaps, or wrong PE classes.
    pub fn validate(&self, graph: &TaskGraph) -> Result<(), ScheduleError> {
        // Coverage.
        let mut seen = vec![false; graph.len()];
        for e in &self.entries {
            if e.task.0 >= graph.len() {
                return Err(ScheduleError::Coverage(format!(
                    "unknown task {}",
                    e.task.0
                )));
            }
            if seen[e.task.0] {
                return Err(ScheduleError::Coverage(format!(
                    "task {} scheduled twice",
                    e.task.0
                )));
            }
            seen[e.task.0] = true;
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
            return Err(ScheduleError::Coverage(format!(
                "task {missing} never scheduled"
            )));
        }
        // Dependency ordering.
        let mut end = vec![0u64; graph.len()];
        for e in &self.entries {
            end[e.task.0] = e.end;
        }
        for e in &self.entries {
            for d in &graph.task(e.task).deps {
                if end[d.0] > e.start {
                    return Err(ScheduleError::DependencyViolation(format!(
                        "task {} starts at {} before dep {} ends at {}",
                        e.task.0, e.start, d.0, end[d.0]
                    )));
                }
            }
        }
        // PE class and bounds.
        for e in &self.entries {
            let expected = if graph.task(e.task).kind.stage().is_forward() {
                PeClass::Forward
            } else {
                PeClass::Backward
            };
            if e.pe_class != expected {
                return Err(ScheduleError::WrongPe(format!(
                    "task {} ran on {:?} PEs",
                    e.task.0, e.pe_class
                )));
            }
            let limit = if expected == PeClass::Forward {
                self.pe_fwd
            } else {
                self.pe_bwd
            };
            if e.pe >= limit {
                return Err(ScheduleError::WrongPe(format!(
                    "task {} on PE {} out of {limit}",
                    e.task.0, e.pe
                )));
            }
        }
        // Overlap.
        for class in [PeClass::Forward, PeClass::Backward] {
            let pes = if class == PeClass::Forward {
                self.pe_fwd
            } else {
                self.pe_bwd
            };
            for pe in 0..pes {
                let prog = self.pe_program(class, pe);
                for pair in prog.windows(2) {
                    if pair[0].end > pair[1].start {
                        return Err(ScheduleError::Overlap(format!(
                            "tasks {} and {} overlap on {:?} PE {pe}",
                            pair[0].task.0, pair[1].task.0, class
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// `next` continues the traversal thread `prev` was on (same limb walk, or
/// same derivative seed chain) — no checkpoint restore needed.
fn is_chain_successor(prev: TaskKind, next: TaskKind) -> bool {
    match (prev, next) {
        (TaskKind::RneaFwd { link: a }, TaskKind::RneaFwd { link: b }) => b > a,
        (TaskKind::RneaBwd { link: a }, TaskKind::RneaBwd { link: b }) => b < a,
        (TaskKind::GradFwd { seed: sa, link: a }, TaskKind::GradFwd { seed: sb, link: b }) => {
            sa == sb && b > a
        }
        (TaskKind::GradBwd { seed: sa, link: a }, TaskKind::GradBwd { seed: sb, link: b }) => {
            sa == sb && b < a
        }
        _ => false,
    }
}

/// Schedules `graph` onto the configured PEs (see module docs).
///
/// Builds a [`SchedulePrep`] for this one call; callers that schedule
/// the same graph at many PE counts should build it once instead.
///
/// # Panics
///
/// Panics if either PE count in `config` is zero.
pub fn schedule(graph: &TaskGraph, config: &SchedulerConfig) -> Schedule {
    let _span = roboshape_obs::span("taskgraph", "schedule");
    SchedulePrep::new(graph, config.costs).collect(config)
}

/// The makespan [`schedule`] would report, without materializing the
/// entry list.
///
/// This is the fragment-granular entry point for consumers that need
/// only the scalar. The placement decisions are shared with [`schedule`]
/// (one core, two sinks), so the value is identical by construction; the
/// equality is additionally pinned in this module's tests. A sweep over
/// many `(PEs_fwd, PEs_bwd)` points of one graph should call
/// [`SchedulePrep::makespan`] on one shared index instead.
///
/// # Panics
///
/// Panics if either PE count in `config` is zero.
pub fn schedule_makespan(graph: &TaskGraph, config: &SchedulerConfig) -> u64 {
    let _span = roboshape_obs::span("taskgraph", "schedule-makespan");
    SchedulePrep::new(graph, config.costs).place(config, |_| {})
}

/// The facts of one `(graph, costs)` pair that no PE count or mode flag
/// changes, built once and shared by every placement run over the graph:
/// a CSR successor list, the critical-path priorities, each task's stage,
/// limb position and kind, and the per-stage and per-`(stage, limb)` task
/// counts.
///
/// [`schedule`] and [`schedule_makespan`] build one per call; a
/// design-space sweep builds one per sweep and reuses it for every grid
/// point, which leaves only the placement scan per point. The index is
/// immutable, so worker threads share it by reference.
///
/// # Examples
///
/// ```
/// use roboshape_taskgraph::{schedule, SchedulePrep, SchedulerConfig, TaskCosts, TaskGraph};
/// use roboshape_topology::Topology;
///
/// let graph = TaskGraph::dynamics_gradient(&Topology::chain(7));
/// let prep = SchedulePrep::new(&graph, TaskCosts::default());
/// for pe in 1..=7 {
///     let cfg = SchedulerConfig::with_pes(pe, pe);
///     assert_eq!(prep.makespan(&cfg), schedule(&graph, &cfg).makespan());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SchedulePrep {
    costs: TaskCosts,
    /// Per task: its kind (for the PE chain-affinity test).
    kind: Vec<TaskKind>,
    /// Per task: its stage's index in [`Stage::ALL`]. Even indices run on
    /// the forward class, odd ones on the backward class.
    stage: Vec<usize>,
    /// Per task: its limb position in its class's walk (depth-first for
    /// the forward class, reversed for the backward class).
    pos: Vec<usize>,
    /// Per task: the longest cost-weighted path from it to a sink.
    priority: Vec<u64>,
    /// Per task: its dependency count.
    deps: Vec<usize>,
    /// CSR successors: task `t`'s are `succ[succ_start[t]..succ_start[t + 1]]`.
    succ_start: Vec<usize>,
    succ: Vec<usize>,
    /// Tasks with no dependencies, ready at cycle 0.
    roots: Vec<usize>,
    /// Tasks per stage.
    stage_totals: [usize; 4],
    /// Tasks per `(stage, limb position)`, at `stage * num_limbs + pos`.
    limb_tasks: Vec<usize>,
    num_limbs: usize,
}

impl SchedulePrep {
    /// Indexes `graph` for scheduling under `costs`.
    pub fn new(graph: &TaskGraph, costs: TaskCosts) -> SchedulePrep {
        let n = graph.len();
        let num_limbs = graph.num_limbs();
        let kind: Vec<TaskKind> = graph.tasks().iter().map(|t| t.kind).collect();
        // `Stage` declares its variants in `Stage::ALL` order.
        let stage: Vec<usize> = kind.iter().map(|k| k.stage() as usize).collect();
        let pos: Vec<usize> = kind
            .iter()
            .map(|&k| {
                let m = graph.limb_of_link(k.link());
                if k.stage().is_forward() {
                    m
                } else {
                    num_limbs - 1 - m
                }
            })
            .collect();
        let deps: Vec<usize> = graph.tasks().iter().map(|t| t.deps.len()).collect();
        let roots: Vec<usize> = (0..n).filter(|&i| deps[i] == 0).collect();

        let mut succ_start = vec![0usize; n + 1];
        for t in graph.tasks() {
            for d in &t.deps {
                succ_start[d.0 + 1] += 1;
            }
        }
        for i in 0..n {
            succ_start[i + 1] += succ_start[i];
        }
        let mut fill = succ_start.clone();
        let mut succ = vec![0usize; succ_start[n]];
        for (i, t) in graph.tasks().iter().enumerate() {
            for d in &t.deps {
                succ[fill[d.0]] = i;
                fill[d.0] += 1;
            }
        }

        // Tasks are topologically ordered, so a reverse scan sees every
        // successor's priority before its predecessors'.
        let mut priority = vec![0u64; n];
        for i in (0..n).rev() {
            let best_succ = succ[succ_start[i]..succ_start[i + 1]]
                .iter()
                .map(|&s| priority[s])
                .max()
                .unwrap_or(0);
            priority[i] = costs.of(kind[i]) + best_succ;
        }

        let mut stage_totals = [0usize; 4];
        let mut limb_tasks = vec![0usize; 4 * num_limbs];
        for (&si, &p) in stage.iter().zip(&pos) {
            stage_totals[si] += 1;
            limb_tasks[si * num_limbs + p] += 1;
        }

        SchedulePrep {
            costs,
            kind,
            stage,
            pos,
            priority,
            deps,
            succ_start,
            succ,
            roots,
            stage_totals,
            limb_tasks,
            num_limbs,
        }
    }

    /// [`schedule_makespan`] of the indexed graph.
    ///
    /// # Panics
    ///
    /// Panics if either PE count in `config` is zero, or if `config.costs`
    /// differ from the costs the index was built with.
    pub fn makespan(&self, config: &SchedulerConfig) -> u64 {
        let _span = roboshape_obs::span("taskgraph", "schedule-makespan");
        self.place(config, |_| {})
    }

    /// The full [`Schedule`] of the indexed graph.
    fn collect(&self, config: &SchedulerConfig) -> Schedule {
        let mut entries: Vec<ScheduleEntry> = Vec::with_capacity(self.kind.len());
        let makespan = self.place(config, |e| entries.push(e));
        entries.sort_by_key(|e| (e.start, e.task.0));
        Schedule {
            entries,
            pe_fwd: config.pe_fwd,
            pe_bwd: config.pe_bwd,
            makespan,
        }
    }

    /// The list-scheduling core shared by every entry point: places every
    /// task, streams each placement into `emit` and returns the makespan.
    fn place(&self, config: &SchedulerConfig, mut emit: impl FnMut(ScheduleEntry)) -> u64 {
        assert!(
            config.pe_fwd > 0 && config.pe_bwd > 0,
            "PE counts must be positive"
        );
        assert_eq!(
            config.costs, self.costs,
            "config costs differ from the costs the SchedulePrep was built with"
        );
        let n = self.kind.len();
        let limbs = self.num_limbs;

        // Ready set: (task, ready_at) for every task whose dependencies
        // have all been placed. `dep_end[t]` is the latest end among the
        // placed dependencies of `t`, so it is `t`'s ready time once its
        // last dependency is placed.
        let mut ready: Vec<(usize, u64)> = self.roots.iter().map(|&t| (t, 0)).collect();
        let mut unmet = self.deps.clone();
        let mut dep_end = vec![0u64; n];
        // Per-class PE state: (free_at, last task).
        let mut pe_free: [Vec<u64>; 2] = [vec![0; config.pe_fwd], vec![0; config.pe_bwd]];
        let mut pe_last: [Vec<Option<usize>>; 2] =
            [vec![None; config.pe_fwd], vec![None; config.pe_bwd]];
        let mut makespan = 0u64;

        // Stage barriers (non-pipelined mode): a stage's tasks may only be
        // considered once every earlier stage has fully retired, and may
        // only start at the release time that retirement set.
        let mut stage_done = [0usize; 4];
        let mut stage_release = [0u64; 4];

        // Limb-sequential mode: each PE class walks the limbs one at a time
        // (depth-first for the forward class, reverse for the backward
        // class), and in pipelined mode interleaves the class's two stages
        // per limb (RNEA pass of a limb, then its ∇ pass, then the next
        // limb); a position's tasks become eligible only once every task at
        // earlier positions has *finished* (the PEs save/restore branch
        // state between limbs). This bounds useful forward PEs by the max
        // leaf depth and backward PEs by the max descendant count (paper
        // Sec. 5.4, Insight #1). Tracked as one limb frontier per stage
        // plus, in pipelined mode, lockstep constraints between the two
        // stages of each class (stage indices `si` and `si ^ 2`).
        //
        // frontier[s]: lowest limb position of stage s with unplaced tasks
        // (= limbs when the stage is done); limb_release[s]: max end time
        // over all positions the frontier has passed.
        let mut remaining = self.limb_tasks.clone();
        let mut pos_max_end = vec![0u64; 4 * limbs];
        let mut frontier = [0usize; 4];
        let mut limb_release = [0u64; 4];
        for (si, f) in frontier.iter_mut().enumerate() {
            while *f < limbs && remaining[si * limbs + *f] == 0 {
                *f += 1;
            }
        }

        for _ in 0..n {
            // Per-stage gates for this step: tasks at limb positions
            // `>= pos_limit[si]` are not eligible, and eligible ones start
            // no earlier than `gate[si]`.
            let min_free = pe_free
                .each_ref()
                .map(|pool| *pool.iter().min().expect("PE pool nonempty"));
            let mut pos_limit = [usize::MAX; 4];
            let mut gate = [0u64; 4];
            for si in 0..4 {
                let mut limit = usize::MAX;
                let mut at = min_free[si & 1];
                if config.limb_sequential {
                    limit = frontier[si] + 1;
                    at = at.max(limb_release[si]);
                    if config.pipelined {
                        // The ∇ pass of limb p needs the RNEA pass of limbs
                        // ≤ p done; the RNEA pass of limb p needs the ∇
                        // pass of limbs < p done.
                        let q = si ^ 2;
                        limit = limit.min(if si >= 2 {
                            frontier[q]
                        } else {
                            frontier[q] + 1
                        });
                        at = at.max(limb_release[q]);
                    }
                }
                if !config.pipelined {
                    if (0..si).any(|s| stage_done[s] < self.stage_totals[s]) {
                        limit = 0;
                    }
                    at = at.max(stage_release[si]);
                }
                pos_limit[si] = limit;
                gate[si] = at;
            }

            // Candidate: the eligible ready task whose earliest feasible
            // start is minimal; among those, the highest critical-path
            // priority, then the lowest id. The key is a total order, so
            // the ready set's order cannot change the choice.
            let mut best: Option<((u64, u64, usize), usize)> = None;
            for (i, &(task, ready_at)) in ready.iter().enumerate() {
                let si = self.stage[task];
                if self.pos[task] >= pos_limit[si] {
                    continue;
                }
                let key = (ready_at.max(gate[si]), u64::MAX - self.priority[task], task);
                if best.is_none_or(|(b, _)| key < b) {
                    best = Some((key, i));
                }
            }
            let ((start, _, task), i) = best.expect("ready set nonempty while tasks remain");
            ready.swap_remove(i);
            let si = self.stage[task];
            let class = si & 1;
            let kind = self.kind[task];

            // Choose the PE: prefer the one whose last task chains into this
            // one (keeps the thread's state local); otherwise the
            // earliest-free.
            let mut chosen = 0;
            let mut chosen_key = (u64::MAX, usize::MAX);
            for (pe, &free) in pe_free[class].iter().enumerate() {
                if free > start {
                    continue;
                }
                let chains = pe_last[class][pe]
                    .is_some_and(|prev| is_chain_successor(self.kind[prev], kind));
                // Affinity first (0 beats 1), then latest-free (tightest fit).
                let key = (u64::from(!chains), (u64::MAX - free) as usize);
                if key < chosen_key {
                    chosen_key = key;
                    chosen = pe;
                }
            }
            let end = start + self.costs.of(kind);
            pe_free[class][chosen] = end;
            pe_last[class][chosen] = Some(task);
            emit(ScheduleEntry {
                task: TaskId(task),
                pe_class: if class == 0 {
                    PeClass::Forward
                } else {
                    PeClass::Backward
                },
                pe: chosen,
                start,
                end,
            });
            makespan = makespan.max(end);

            // Limb-frontier bookkeeping.
            let row = si * limbs;
            let slot = row + self.pos[task];
            remaining[slot] -= 1;
            pos_max_end[slot] = pos_max_end[slot].max(end);
            while frontier[si] < limbs && remaining[row + frontier[si]] == 0 {
                limb_release[si] = limb_release[si].max(pos_max_end[row + frontier[si]]);
                frontier[si] += 1;
            }

            // Stage-barrier bookkeeping.
            stage_done[si] += 1;
            if stage_done[si] == self.stage_totals[si] {
                for release in stage_release.iter_mut().skip(si + 1) {
                    *release = (*release).max(end);
                }
            }

            // Release successors.
            for &s in &self.succ[self.succ_start[task]..self.succ_start[task + 1]] {
                dep_end[s] = dep_end[s].max(end);
                unmet[s] -= 1;
                if unmet[s] == 0 {
                    ready.push((s, dep_end[s]));
                }
            }
        }

        let (schedules, makespans) = schedule_metrics();
        schedules.add(1);
        makespans.record(makespan);
        makespan
    }
}

/// The global `taskgraph.schedules` counter and
/// `taskgraph.makespan_cycles` histogram, resolved once.
fn schedule_metrics() -> &'static (Arc<Counter>, Arc<Histogram>) {
    static HANDLES: OnceLock<(Arc<Counter>, Arc<Histogram>)> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let m = roboshape_obs::metrics();
        (
            m.counter("taskgraph.schedules"),
            m.histogram(
                "taskgraph.makespan_cycles",
                &[64, 128, 256, 512, 1024, 2048, 4096, 8192],
            ),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use roboshape_topology::Topology;

    fn baxter_like() -> Topology {
        let mut parents = vec![None];
        for _ in 0..2 {
            parents.push(None);
            for _ in 1..7 {
                parents.push(Some(parents.len() - 1));
            }
        }
        Topology::new(parents).unwrap()
    }

    #[test]
    fn schedules_are_valid_across_pe_counts() {
        let topo = baxter_like();
        let graph = TaskGraph::dynamics_gradient(&topo);
        for pe in [1, 2, 3, 4, 7, 15] {
            let s = schedule(&graph, &SchedulerConfig::with_pes(pe, pe));
            s.validate(&graph).unwrap();
        }
    }

    #[test]
    fn makespan_only_entry_matches_full_schedule() {
        // The fragment-granular entry point shares the placement core
        // with schedule(); pin the scalar across modes and topologies.
        for topo in [Topology::chain(6), baxter_like()] {
            let graph = TaskGraph::dynamics_gradient(&topo);
            for pe_fwd in [1, 2, 5] {
                for pe_bwd in [1, 3] {
                    for cfg in [
                        SchedulerConfig::with_pes(pe_fwd, pe_bwd),
                        SchedulerConfig::with_pes(pe_fwd, pe_bwd).without_pipelining(),
                    ] {
                        assert_eq!(
                            schedule_makespan(&graph, &cfg),
                            schedule(&graph, &cfg).makespan(),
                            "PEs ({pe_fwd},{pe_bwd})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn non_pipelined_respects_stage_barriers() {
        let topo = Topology::chain(5);
        let graph = TaskGraph::dynamics_gradient(&topo);
        let s = schedule(
            &graph,
            &SchedulerConfig::with_pes(3, 3).without_pipelining(),
        );
        s.validate(&graph).unwrap();
        let spans: Vec<_> = Stage::ALL
            .iter()
            .map(|&st| s.stage_span(&graph, st).unwrap())
            .collect();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "stage overlap: {:?}", spans);
        }
    }

    #[test]
    fn pipelining_never_hurts() {
        for topo in [Topology::chain(7), baxter_like()] {
            let graph = TaskGraph::dynamics_gradient(&topo);
            for pe in [1, 2, 4] {
                let piped = schedule(&graph, &SchedulerConfig::with_pes(pe, pe));
                let barrier = schedule(
                    &graph,
                    &SchedulerConfig::with_pes(pe, pe).without_pipelining(),
                );
                assert!(
                    piped.makespan() <= barrier.makespan(),
                    "pipelined {} > barrier {} at {pe} PEs",
                    piped.makespan(),
                    barrier.makespan()
                );
            }
        }
    }

    #[test]
    fn more_pes_never_slower() {
        let graph = TaskGraph::dynamics_gradient(&baxter_like());
        let mut prev = u64::MAX;
        for pe in 1..=8 {
            let m = schedule(&graph, &SchedulerConfig::with_pes(pe, pe)).makespan();
            assert!(m <= prev, "{pe} PEs: {m} > {prev}");
            prev = m;
        }
    }

    #[test]
    fn single_pe_serializes_everything() {
        let topo = Topology::chain(4);
        let graph = TaskGraph::dynamics_gradient(&topo);
        let costs = TaskCosts::default();
        let s = schedule(&graph, &SchedulerConfig::with_pes(1, 1));
        s.validate(&graph).unwrap();
        // With one PE per class the makespan is at least the larger class's
        // total work.
        let fwd_work: u64 = graph
            .tasks()
            .iter()
            .filter(|t| t.kind.stage().is_forward())
            .map(|t| costs.of(t.kind))
            .sum();
        assert!(s.makespan() >= fwd_work);
    }

    #[test]
    fn makespan_never_below_critical_path() {
        for topo in [Topology::chain(6), baxter_like()] {
            let graph = TaskGraph::dynamics_gradient(&topo);
            let costs = TaskCosts::default();
            // Cheapest possible bound: critical path length × min task cost.
            let lower = graph.critical_path_len() as u64
                * costs
                    .rnea_fwd
                    .min(costs.rnea_bwd)
                    .min(costs.grad_fwd)
                    .min(costs.grad_bwd);
            let s = schedule(&graph, &SchedulerConfig::with_pes(16, 16));
            assert!(s.makespan() >= lower);
        }
    }

    #[test]
    fn utilization_and_context_switches_reported() {
        let graph = TaskGraph::dynamics_gradient(&baxter_like());
        let s = schedule(&graph, &SchedulerConfig::with_pes(4, 4));
        assert!(s.utilization() > 0.0 && s.utilization() <= 1.0);
        // A 15-link multi-limb robot on 4 PEs must context-switch sometimes.
        assert!(s.context_switches(&graph) > 0);
    }

    #[test]
    fn validate_detects_tampering() {
        let graph = TaskGraph::dynamics_gradient(&Topology::chain(3));
        let s = schedule(&graph, &SchedulerConfig::with_pes(2, 2));
        // Drop an entry → coverage error.
        let mut bad = s.clone();
        bad.entries.pop();
        assert!(matches!(
            bad.validate(&graph),
            Err(ScheduleError::Coverage(_))
        ));
        // Shift a dependent before its dep → dependency violation (find a
        // task with deps).
        let mut bad2 = s.clone();
        for e in &mut bad2.entries {
            if !graph.task(e.task).deps.is_empty() {
                e.start = 0;
                e.end = 1;
                break;
            }
        }
        assert!(bad2.validate(&graph).is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_pes_panics() {
        SchedulerConfig::with_pes(0, 1);
    }

    #[test]
    fn other_kernel_graphs_schedule_validly() {
        // The scheduler is kernel-agnostic: plain inverse dynamics and
        // forward kinematics graphs (Table 1 kernels) work unchanged,
        // including with empty gradient stages.
        for topo in [Topology::chain(7), baxter_like()] {
            for graph in [
                TaskGraph::inverse_dynamics(&topo),
                TaskGraph::forward_kinematics(&topo),
            ] {
                for pe in [1, 3] {
                    for pipelined in [true, false] {
                        let mut cfg = SchedulerConfig::with_pes(pe, pe);
                        cfg.pipelined = pipelined;
                        let s = schedule(&graph, &cfg);
                        s.validate(&graph).unwrap();
                        assert!(s.makespan() > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn gantt_chart_renders_every_pe() {
        let graph = TaskGraph::dynamics_gradient(&baxter_like());
        let s = schedule(&graph, &SchedulerConfig::with_pes(3, 5));
        let chart = s.render_gantt(&graph, 60);
        assert_eq!(chart.lines().count(), 8);
        for stage_char in ['F', 'B', 'g', 'b'] {
            assert!(
                chart.contains(stage_char),
                "missing {stage_char} in\n{chart}"
            );
        }
        // Rows are uniformly sized.
        let widths: std::collections::HashSet<usize> = chart.lines().map(|l| l.len()).collect();
        assert_eq!(widths.len(), 1);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn gantt_zero_width_panics() {
        let graph = TaskGraph::forward_kinematics(&Topology::chain(2));
        let s = schedule(&graph, &SchedulerConfig::with_pes(1, 1));
        s.render_gantt(&graph, 0);
    }

    #[test]
    fn co_scheduling_beats_running_kernels_back_to_back() {
        // Paper Sec. 3.3 future work: co-scheduling different kernels on
        // the same PEs fills idle slots, so the merged makespan is
        // strictly below the sum of the separate makespans.
        let topo = baxter_like();
        let cfg = SchedulerConfig::with_pes(4, 4);
        let fk = TaskGraph::forward_kinematics(&topo);
        let grad = TaskGraph::dynamics_gradient(&topo);
        let separate = schedule(&fk, &cfg).makespan() + schedule(&grad, &cfg).makespan();
        let merged_graph = TaskGraph::merge(&grad, &fk);
        let merged = schedule(&merged_graph, &cfg);
        merged.validate(&merged_graph).unwrap();
        assert!(
            merged.makespan() < separate,
            "co-scheduled {} vs back-to-back {}",
            merged.makespan(),
            separate
        );
    }

    #[test]
    fn kernel_latency_ordering_holds_on_hardware() {
        // At identical PE allocations the simpler kernels finish sooner.
        let topo = baxter_like();
        let cfg = SchedulerConfig::with_pes(4, 4);
        let fk = schedule(&TaskGraph::forward_kinematics(&topo), &cfg).makespan();
        let id = schedule(&TaskGraph::inverse_dynamics(&topo), &cfg).makespan();
        let grad = schedule(&TaskGraph::dynamics_gradient(&topo), &cfg).makespan();
        assert!(fk < id && id < grad, "{fk} / {id} / {grad}");
    }

    #[test]
    #[should_panic(expected = "costs differ")]
    fn prep_rejects_a_config_with_other_costs() {
        let graph = TaskGraph::dynamics_gradient(&Topology::chain(3));
        let prep = SchedulePrep::new(&graph, TaskCosts::default());
        let mut cfg = SchedulerConfig::with_pes(1, 1);
        cfg.costs.grad_bwd += 1;
        prep.makespan(&cfg);
    }

    /// A random forest: link `i` hangs off `picks[i]` when that is an
    /// earlier link, and is a new root otherwise.
    fn random_tree(picks: &[usize]) -> Topology {
        let parents: Vec<Option<usize>> = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| if i == 0 || p >= i { None } else { Some(p) })
            .collect();
        Topology::new(parents).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn random_trees_schedule_validly(
            picks in proptest::collection::vec(0usize..8, 1..16),
            pe_fwd in 1usize..6,
            pe_bwd in 1usize..6,
            pipelined in proptest::bool::ANY,
        ) {
            let graph = TaskGraph::dynamics_gradient(&random_tree(&picks));
            let mut cfg = SchedulerConfig::with_pes(pe_fwd, pe_bwd);
            cfg.pipelined = pipelined;
            let s = schedule(&graph, &cfg);
            prop_assert!(s.validate(&graph).is_ok());
            prop_assert!(s.makespan() > 0);
        }

        /// One index reused across every PE count and mode places exactly
        /// what a fresh per-call index places: nothing leaks between runs.
        #[test]
        fn a_reused_index_matches_fresh_schedules(
            picks in proptest::collection::vec(0usize..8, 1..12),
        ) {
            let topo = random_tree(&picks);
            let n = topo.len();
            for graph in [
                TaskGraph::dynamics_gradient(&topo),
                TaskGraph::inverse_dynamics(&topo),
                TaskGraph::forward_kinematics(&topo),
            ] {
                let prep = SchedulePrep::new(&graph, TaskCosts::default());
                for pe_fwd in 1..=n {
                    for pe_bwd in 1..=n {
                        for (pipelined, limb_sequential) in
                            [(true, true), (false, true), (true, false), (false, false)]
                        {
                            let mut cfg = SchedulerConfig::with_pes(pe_fwd, pe_bwd);
                            cfg.pipelined = pipelined;
                            cfg.limb_sequential = limb_sequential;
                            let fresh = schedule(&graph, &cfg);
                            prop_assert_eq!(prep.makespan(&cfg), fresh.makespan());
                            prop_assert_eq!(prep.collect(&cfg), fresh);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod determinism_tests {
    use super::*;
    use crate::graph::TaskGraph;
    use roboshape_topology::Topology;

    fn tree() -> Topology {
        Topology::new(vec![None, Some(0), Some(0), Some(2), Some(2), Some(4)]).unwrap()
    }

    /// Scheduling is a pure function: identical inputs give identical
    /// schedules (the emitted ROMs must be reproducible builds).
    #[test]
    fn scheduling_is_deterministic() {
        let graph = TaskGraph::dynamics_gradient(&tree());
        for cfg in [
            SchedulerConfig::with_pes(2, 3),
            SchedulerConfig::with_pes(2, 3).without_pipelining(),
            SchedulerConfig::with_pes(2, 3).fully_greedy(),
        ] {
            let a = schedule(&graph, &cfg);
            let b = schedule(&graph, &cfg);
            assert_eq!(a, b);
        }
    }

    /// Costs scale latency proportionally: doubling every task cost
    /// exactly doubles the makespan.
    #[test]
    fn makespan_scales_with_costs() {
        let graph = TaskGraph::dynamics_gradient(&tree());
        let base = SchedulerConfig::with_pes(2, 2);
        let mut doubled = base;
        doubled.costs = TaskCosts {
            rnea_fwd: base.costs.rnea_fwd * 2,
            rnea_bwd: base.costs.rnea_bwd * 2,
            grad_fwd: base.costs.grad_fwd * 2,
            grad_bwd: base.costs.grad_bwd * 2,
        };
        let m1 = schedule(&graph, &base).makespan();
        let m2 = schedule(&graph, &doubled).makespan();
        assert_eq!(m2, 2 * m1);
    }

    /// Replicated graphs scale makespan sub-linearly (pipelining across
    /// copies) but never below the single-copy makespan.
    #[test]
    fn replication_pipelines() {
        let graph = TaskGraph::dynamics_gradient(&tree());
        let cfg = SchedulerConfig::with_pes(2, 2);
        let single = schedule(&graph, &cfg).makespan();
        let tripled_graph = TaskGraph::replicate(&graph, 3);
        let s = schedule(&tripled_graph, &cfg);
        s.validate(&tripled_graph).unwrap();
        let tripled = s.makespan();
        assert!(tripled >= single);
        assert!(
            tripled < 3 * single,
            "no pipelining across copies: {tripled} vs 3x{single}"
        );
    }
}
