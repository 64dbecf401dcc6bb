//! Topology-traversal task graphs and PE scheduling (paper Sec. 4.2).
//!
//! RoboShape's pattern ① — topology traversals — turns into hardware
//! through three steps, all implemented here:
//!
//! 1. [`TaskGraph::dynamics_gradient`] expands a robot topology into the
//!    task graph of the ∇FD kernel's traversal stages: the RNEA forward
//!    and backward passes (one task per link) and the ∇RNEA forward and
//!    backward passes (one task per `(link, seed)` pair on a shared
//!    root-to-leaf path — the `O(N²)` pattern of Fig. 4b);
//! 2. [`schedule`] maps those tasks onto a bounded number of forward and
//!    backward processing elements with a longest-thread list scheduler
//!    (the paper's "modified depth-first search"), in pipelined
//!    (dependency-driven) or stage-barrier mode;
//! 3. [`Schedule`] reports makespan cycles, per-PE programs, utilization,
//!    and the branch save/restore events that size the architecture's
//!    checkpoint storage (Fig. 8e).
//!
//! The scheduler splits its work in two. [`SchedulePrep`] indexes one
//! `(graph, costs)` pair: CSR successor lists, critical-path priorities,
//! each task's stage, limb position and kind, and the per-stage and
//! per-`(stage, limb)` task counts — everything no PE count or mode flag
//! changes. Each placement run then scans a flat ready list against
//! per-stage gates computed once per step. [`schedule`] and
//! [`schedule_makespan`] build the index per call; a design-space sweep
//! builds it once and calls [`SchedulePrep::makespan`] for every grid
//! point.
//!
//! Each placement run opens a `cat = "taskgraph"` tracing span and bumps
//! the global `taskgraph.schedules` counter and
//! `taskgraph.makespan_cycles` histogram (see [`roboshape_obs`]), whose
//! handles are resolved once per process.
//!
//! # Examples
//!
//! ```
//! use roboshape_taskgraph::{schedule, SchedulerConfig, TaskGraph};
//! use roboshape_topology::Topology;
//!
//! let topo = Topology::chain(7); // iiwa
//! let graph = TaskGraph::dynamics_gradient(&topo);
//! let sched = schedule(&graph, &SchedulerConfig::with_pes(7, 7));
//! assert!(sched.validate(&graph).is_ok());
//! assert!(sched.makespan() > 0);
//! ```

#![warn(missing_docs)]

mod graph;
mod scheduler;

pub use graph::{Stage, Task, TaskGraph, TaskId, TaskKind};
pub use scheduler::{
    schedule, schedule_makespan, PeClass, Schedule, ScheduleEntry, ScheduleError, SchedulePrep,
    SchedulerConfig, TaskCosts,
};
