//! Knob sweeps and Pareto frontiers (paper Fig. 12), incremental and
//! pruned.
//!
//! A design point `(PEs_fwd, PEs_bwd, block)` is a *join* of two
//! independent sub-artifacts: the traversal-schedule makespan (depends
//! only on the PE counts) and the blocked mat-mul latency (depends only
//! on the block size). Both are cached as content-addressed fragments in
//! the pipeline's [`ArtifactStore`](roboshape_pipeline::ArtifactStore),
//! keyed by a [`FragmentHasher`] hash of their full input, so:
//!
//! * a warm re-sweep joins `N²+N` cached scalars into `N³` points without
//!   touching the scheduler (the ≥10× incremental-over-cold path in
//!   `BENCH_dse.json`);
//! * a re-sweep after a knob-grid change ([`SweepGrid`]) recompiles only
//!   the delta — the `dse.frag.{hits,misses}` counters prove it;
//! * the pruned sweep ([`sweep_design_space_pruned`]) skips provably
//!   dominated grid rows *before* scheduling them, using the makespan's
//!   monotonicity in each PE count plus a streaming Pareto skyline. Its
//!   cold rows all run on one [`SchedulePrep`] of the robot's task graph,
//!   built once per sweep, so each row costs only a placement scan.
//!
//! Sweeps are instrumented through [`roboshape_obs`]: each sweep opens a
//! `cat = "dse"` tracing span, resolves the `dse.frag.{hits,misses}`
//! counter handles once, and publishes the `dse.points` counter plus
//! `dse.designs_per_sec` and `dse.worker_utilization_pct` gauges (how
//! much of the sweep's wall time its workers spent computing rows: the
//! pruned sweep counts its parallel edge rows and its serial interior).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use roboshape_arch::{AcceleratorKnobs, DseModel, KernelKind, MatmulUnits, Resources};
use roboshape_blocksparse::{block_matmul_latency, MatmulLatencyModel};
use roboshape_obs::{self as obs, Counter};
use roboshape_pipeline::{FragmentHasher, FragmentId, PatternKind, Pipeline, PipelineStage};
use roboshape_taskgraph::{SchedulePrep, SchedulerConfig, TaskCosts};
use roboshape_topology::Topology;

const KERNEL: KernelKind = KernelKind::DynamicsGradient;

/// The tracing span/metric category every sweep event is tagged with.
pub const OBS_CATEGORY: &str = "dse";

/// Global counter: sweep sub-artifacts served from the fragment store.
pub const FRAG_HITS_METRIC: &str = "dse.frag.hits";

/// Global counter: sweep sub-artifacts computed and stored as fragments.
pub const FRAG_MISSES_METRIC: &str = "dse.frag.misses";

/// Global counter: grid points skipped by dominance pruning before any
/// schedule was computed for them.
pub const PRUNED_POINTS_METRIC: &str = "dse.pruned.points";

/// Global counter: `(PEs_fwd, PEs_bwd)` rows skipped by dominance pruning.
pub const PRUNED_ROWS_METRIC: &str = "dse.pruned.rows";

/// Publishes one finished sweep's throughput gauges: design points per
/// second over `wall`, and the pool's busy fraction (`busy_ns` summed
/// across `workers` workers). The utilization gauge reports the *raw*
/// ratio — a value above 100 means the pool was oversubscribed (more busy
/// time than `workers × wall` capacity, i.e. the scope ran more threads
/// than it should); such sightings additionally bump the
/// `dse.worker_oversubscribed` counter instead of being clamped away.
fn record_sweep_metrics(points: u64, wall: Duration, busy_ns: u64, workers: usize) {
    let m = obs::metrics();
    m.counter("dse.points").add(points);
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        m.gauge("dse.designs_per_sec").set(points as f64 / secs);
    }
    let capacity_ns = workers as f64 * wall.as_nanos() as f64;
    if capacity_ns > 0.0 {
        let pct = 100.0 * busy_ns as f64 / capacity_ns;
        m.gauge("dse.worker_utilization_pct").set(pct);
        if pct > 100.0 {
            m.counter("dse.worker_oversubscribed").add(1);
        }
    }
}

/// One evaluated design point of a robot's design space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Forward-traversal PEs.
    pub pe_fwd: usize,
    /// Backward-traversal PEs.
    pub pe_bwd: usize,
    /// Mat-mul block size.
    pub block: usize,
    /// Traversal schedule makespan, cycles.
    pub traversal_cycles: u64,
    /// Total compute cycles (traversal + blocked mat-mul).
    pub total_cycles: u64,
    /// PE-level resource estimate (the Figs. 12–16 model).
    pub resources: Resources,
}

impl DesignPoint {
    /// The knob setting of this point (per-link mat-mul units).
    pub fn knobs(&self) -> AcceleratorKnobs {
        AcceleratorKnobs::new(self.pe_fwd, self.pe_bwd, self.block)
    }

    /// `true` if `self` dominates `other` (no worse in cycles and LUTs,
    /// strictly better in one).
    pub fn dominates(&self, other: &DesignPoint) -> bool {
        let no_worse =
            self.total_cycles <= other.total_cycles && self.resources.luts <= other.resources.luts;
        let strictly =
            self.total_cycles < other.total_cycles || self.resources.luts < other.resources.luts;
        no_worse && strictly
    }
}

fn kernel_tag(kernel: KernelKind) -> u64 {
    match kernel {
        KernelKind::DynamicsGradient => 0,
        KernelKind::InverseDynamics => 1,
        KernelKind::ForwardKinematics => 2,
    }
}

/// Content address of a traversal-makespan fragment: the scheduler's full
/// input — topology, kernel, PE counts, mode flags and task costs.
fn makespan_fragment_id(topo: &Topology, cfg: &SchedulerConfig) -> FragmentId {
    FragmentHasher::new("dse.sched.makespan")
        .parents(topo.parents())
        .u64(kernel_tag(KERNEL))
        .usize(cfg.pe_fwd)
        .usize(cfg.pe_bwd)
        .u64(u64::from(cfg.pipelined))
        .u64(u64::from(cfg.limb_sequential))
        .u64(cfg.costs.rnea_fwd)
        .u64(cfg.costs.rnea_bwd)
        .u64(cfg.costs.grad_fwd)
        .u64(cfg.costs.grad_bwd)
        .finish()
}

/// Content address of a blocked mat-mul latency fragment: pattern kind
/// plus the full plan geometry and the latency model's fill overhead.
fn mm_latency_fragment_id(
    topo: &Topology,
    b_cols: usize,
    block: usize,
    units: usize,
    model: &MatmulLatencyModel,
) -> FragmentId {
    FragmentHasher::new("dse.block.latency")
        .parents(topo.parents())
        .u64(match PatternKind::InverseMass {
            PatternKind::Mass => 0,
            PatternKind::InverseMass => 1,
        })
        .usize(b_cols)
        .usize(block)
        .usize(units)
        .u64(model.fill)
        .finish()
}

/// The global fragment hit/miss counters, resolved once per sweep so
/// the per-fragment path takes no registry lock.
pub(crate) struct FragCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl FragCounters {
    pub(crate) fn resolve() -> FragCounters {
        let m = obs::metrics();
        FragCounters {
            hits: m.counter(FRAG_HITS_METRIC),
            misses: m.counter(FRAG_MISSES_METRIC),
        }
    }

    fn note(&self, pipeline: &Pipeline, stage: PipelineStage, hit: bool) {
        if hit {
            self.hits.add(1);
            // A fragment hit stands in for the stage computation it
            // avoided, so warm sweeps keep reading as store hits in
            // `--timings`.
            pipeline.observer().hit(stage);
        } else {
            self.misses.add(1);
        }
    }
}

/// The `(pe_fwd, pe_bwd)` traversal makespan through the fragment store.
/// A miss schedules through the Schedules stage (populating the coarse
/// store with the full [`Schedule`](roboshape_taskgraph::Schedule)
/// artifact as before) and memoizes the scalar.
pub(crate) fn traversal_makespan(
    pipeline: &Pipeline,
    frags: &FragCounters,
    topo: &Topology,
    pe_fwd: usize,
    pe_bwd: usize,
) -> u64 {
    let cfg = SchedulerConfig::with_pes(pe_fwd, pe_bwd);
    let id = makespan_fragment_id(topo, &cfg);
    let (v, hit) =
        pipeline.fragment_u64(id, || pipeline.schedule_for(topo, KERNEL, &cfg).makespan());
    frags.note(pipeline, PipelineStage::Schedules, hit);
    v
}

/// [`traversal_makespan`] through a sweep-wide [`SchedulePrep`] of the
/// kernel's task graph: a miss runs [`SchedulePrep::makespan`], which
/// reuses the graph's successor lists, priorities and limb counts built
/// once for the whole sweep and materializes no entry list and no full
/// [`Schedule`](roboshape_taskgraph::Schedule) artifact. The scalar is
/// memoized under the *same* fragment id, so pruned and exhaustive
/// sweeps share warmth in both directions.
fn traversal_makespan_fast(
    pipeline: &Pipeline,
    frags: &FragCounters,
    prep: &SchedulePrep,
    topo: &Topology,
    pe_fwd: usize,
    pe_bwd: usize,
) -> u64 {
    let cfg = SchedulerConfig::with_pes(pe_fwd, pe_bwd);
    let id = makespan_fragment_id(topo, &cfg);
    let (v, hit) = pipeline.fragment_u64(id, || {
        pipeline
            .observer()
            .time(PipelineStage::Schedules, || prep.makespan(&cfg))
    });
    if !hit {
        pipeline.observer().miss(PipelineStage::Schedules);
    }
    frags.note(pipeline, PipelineStage::Schedules, hit);
    v
}

/// The block-size-`b` latency of the blocked `M⁻¹` multiply through the
/// fragment store. A miss builds the full plan through the BlockPlans
/// stage (keeping the coarse store warm for design assembly).
fn mm_latency(pipeline: &Pipeline, frags: &FragCounters, topo: &Topology, block: usize) -> u64 {
    let n = topo.len();
    let model = MatmulLatencyModel::default();
    let units = MatmulUnits::PerLink.resolve(n);
    let id = mm_latency_fragment_id(topo, 2 * n, block, units, &model);
    let (v, hit) = pipeline.fragment_u64(id, || {
        pipeline
            .block_plan(topo, PatternKind::InverseMass, 2 * n, block, units)
            .latency(&model)
    });
    frags.note(pipeline, PipelineStage::BlockPlans, hit);
    v
}

/// [`mm_latency`] through the closed-form latency entry point: a miss
/// runs [`roboshape_blocksparse::block_matmul_latency`] over the cached
/// sparsity pattern — no op list is materialized — and memoizes under
/// the same fragment id as the plan-backed path.
fn mm_latency_fast(
    pipeline: &Pipeline,
    frags: &FragCounters,
    topo: &Topology,
    block: usize,
) -> u64 {
    let n = topo.len();
    let model = MatmulLatencyModel::default();
    let units = MatmulUnits::PerLink.resolve(n);
    let id = mm_latency_fragment_id(topo, 2 * n, block, units, &model);
    let (v, hit) = pipeline.fragment_u64(id, || {
        let pattern = pipeline.pattern(topo, PatternKind::InverseMass);
        pipeline.observer().time(PipelineStage::BlockPlans, || {
            block_matmul_latency(&pattern, 2 * n, block, units, &model)
        })
    });
    if !hit {
        pipeline.observer().miss(PipelineStage::BlockPlans);
    }
    frags.note(pipeline, PipelineStage::BlockPlans, hit);
    v
}

fn point(
    n: usize,
    pe_fwd: usize,
    pe_bwd: usize,
    block: usize,
    traversal_cycles: u64,
    mm_cycles: u64,
) -> DesignPoint {
    DesignPoint {
        pe_fwd,
        pe_bwd,
        block,
        traversal_cycles,
        total_cycles: traversal_cycles + mm_cycles,
        resources: DseModel.estimate(n, &AcceleratorKnobs::new(pe_fwd, pe_bwd, block)),
    }
}

/// An explicit knob grid for [`sweep_design_space_grid`]: the sweep
/// evaluates the cross product `pe_fwd × pe_bwd × block` in the given
/// order. Because every sub-artifact is content-addressed, growing or
/// refining a grid re-uses every fragment the previous grid computed —
/// only the delta is compiled (watch `dse.frag.{hits,misses}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepGrid {
    /// Forward-PE counts to visit (each ≥ 1).
    pub pe_fwd: Vec<usize>,
    /// Backward-PE counts to visit (each ≥ 1).
    pub pe_bwd: Vec<usize>,
    /// Mat-mul block sizes to visit (each ≥ 1).
    pub block: Vec<usize>,
}

impl SweepGrid {
    /// The full `N³` grid of an `N`-link robot: every knob in `1..=N`.
    pub fn full(n: usize) -> SweepGrid {
        SweepGrid {
            pe_fwd: (1..=n).collect(),
            pe_bwd: (1..=n).collect(),
            block: (1..=n).collect(),
        }
    }

    /// Number of grid points (the cross-product size).
    pub fn len(&self) -> usize {
        self.pe_fwd.len() * self.pe_bwd.len() * self.block.len()
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Evaluates the full `N³` design space of a robot: every combination of
/// `PEs_fwd`, `PEs_bwd` ∈ `1..=N` and block size ∈ `1..=N`, through the
/// process-wide [`Pipeline::global`] artifact store.
pub fn sweep_design_space(topo: &Topology) -> Vec<DesignPoint> {
    sweep_design_space_with(Pipeline::global(), topo)
}

/// [`sweep_design_space`] against an explicit pipeline.
///
/// Incremental: each point is a join of a per-`(PEf, PEb)` makespan
/// fragment and a per-block latency fragment, so a warm re-sweep reads
/// `N²+N` cached scalars instead of recomputing anything. Cold misses
/// compute through the Schedules/BlockPlans stages (the coarse artifacts
/// land in the store exactly as before). The schedule work is spread over
/// a worker pool bounded by the machine's available parallelism. Points
/// are returned sorted by `(pe_fwd, pe_bwd, block)` regardless of worker
/// interleaving.
pub fn sweep_design_space_with(pipeline: &Pipeline, topo: &Topology) -> Vec<DesignPoint> {
    sweep_design_space_grid_with(pipeline, topo, &SweepGrid::full(topo.len()))
}

/// [`sweep_design_space_grid`] through [`Pipeline::global`].
pub fn sweep_design_space_grid(topo: &Topology, grid: &SweepGrid) -> Vec<DesignPoint> {
    sweep_design_space_grid_with(Pipeline::global(), topo, grid)
}

/// The incremental sweep over an explicit [`SweepGrid`], against an
/// explicit pipeline. Points come back in grid order: `pe_fwd` outermost,
/// then `pe_bwd`, then `block`.
pub fn sweep_design_space_grid_with(
    pipeline: &Pipeline,
    topo: &Topology,
    grid: &SweepGrid,
) -> Vec<DesignPoint> {
    let _span = obs::span(OBS_CATEGORY, "sweep");
    let n = topo.len();
    let frags = FragCounters::resolve();
    let mm_latency: Vec<u64> = grid
        .block
        .iter()
        .map(|&b| self::mm_latency(pipeline, &frags, topo, b))
        .collect();

    let rows_total = grid.pe_fwd.len();
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(rows_total)
        .max(1);
    let next = AtomicUsize::new(0);
    // Cycles spent computing rows, summed across workers: busy ÷
    // (workers × wall) is the pool's utilization gauge.
    let busy_ns = AtomicU64::new(0);
    let sweep_start = Instant::now();
    let mut rows: Vec<(usize, Vec<DesignPoint>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, mm_latency, busy_ns, frags) = (&next, &mm_latency, &busy_ns, &frags);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= rows_total {
                            break;
                        }
                        let row_start = Instant::now();
                        let pe_fwd = grid.pe_fwd[idx];
                        let mut row = Vec::with_capacity(grid.pe_bwd.len() * grid.block.len());
                        for &pe_bwd in &grid.pe_bwd {
                            let makespan =
                                traversal_makespan(pipeline, frags, topo, pe_fwd, pe_bwd);
                            for (bi, &block) in grid.block.iter().enumerate() {
                                row.push(point(n, pe_fwd, pe_bwd, block, makespan, mm_latency[bi]));
                            }
                        }
                        busy_ns.fetch_add(nanos(row_start.elapsed()), Ordering::Relaxed);
                        out.push((idx, row));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    rows.sort_unstable_by_key(|&(idx, _)| idx);
    let points = grid.len() as u64;
    pipeline.observer().add_points(points);
    record_sweep_metrics(
        points,
        sweep_start.elapsed(),
        busy_ns.load(Ordering::Relaxed),
        workers,
    );
    rows.into_iter().flat_map(|(_, row)| row).collect()
}

/// The non-incremental reference sweep: evaluates the full `N³` space
/// through the coarse pipeline stages only, never touching the fragment
/// store. This is the oracle the incremental and pruned sweeps are pinned
/// against (tests and the `dse_sweep` bench); it is sequential and makes
/// no throughput claims.
pub fn sweep_design_space_exhaustive_with(
    pipeline: &Pipeline,
    topo: &Topology,
) -> Vec<DesignPoint> {
    let _span = obs::span(OBS_CATEGORY, "sweep-exhaustive");
    let n = topo.len();
    let model = MatmulLatencyModel::default();
    let units = MatmulUnits::PerLink.resolve(n);
    let mm: Vec<u64> = (1..=n)
        .map(|b| {
            pipeline
                .block_plan(topo, PatternKind::InverseMass, 2 * n, b, units)
                .latency(&model)
        })
        .collect();
    let mut points = Vec::with_capacity(n * n * n);
    for pe_fwd in 1..=n {
        for pe_bwd in 1..=n {
            let makespan = pipeline
                .schedule_for(topo, KERNEL, &SchedulerConfig::with_pes(pe_fwd, pe_bwd))
                .makespan();
            for block in 1..=n {
                points.push(point(n, pe_fwd, pe_bwd, block, makespan, mm[block - 1]));
            }
        }
    }
    pipeline.observer().add_points(points.len() as u64);
    points
}

/// The Pareto-optimal subset of a design space under (total cycles, LUTs)
/// minimization, sorted by cycles. These are the red-X frontier points of
/// the paper's Fig. 12.
///
/// Sort-based `O(P log P)` skyline: points are ordered by the *total* key
/// `(total_cycles, luts, pe_fwd, pe_bwd, block)` and a single scan keeps
/// each point that strictly improves the running LUT minimum. The knob
/// tie-break makes the result independent of input order (ties on the
/// objectives resolve to the lexicographically-smallest knobs — exactly
/// what the previous stable sort produced on grid-ordered sweep output),
/// which is what lets the pruned sweep's subset reproduce the exhaustive
/// frontier bit-for-bit.
pub fn pareto_frontier(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut sorted: Vec<DesignPoint> = points.to_vec();
    sorted.sort_unstable_by(|a, b| {
        a.total_cycles
            .cmp(&b.total_cycles)
            .then_with(|| a.resources.luts.total_cmp(&b.resources.luts))
            .then_with(|| (a.pe_fwd, a.pe_bwd, a.block).cmp(&(b.pe_fwd, b.pe_bwd, b.block)))
    });
    let mut frontier: Vec<DesignPoint> = Vec::new();
    let mut best_luts = f64::INFINITY;
    for p in sorted {
        if p.resources.luts < best_luts {
            best_luts = p.resources.luts;
            frontier.push(p);
        }
    }
    frontier
}

/// The streaming Pareto skyline: the lower-left staircase of every
/// `(cycles, luts)` inserted so far, queried with *lower bounds* on a
/// candidate's cycles to decide dominance before the candidate is ever
/// scheduled.
#[derive(Debug, Default)]
struct Skyline {
    /// Strictly increasing cycles, strictly decreasing LUTs.
    stairs: Vec<(u64, f64)>,
}

impl Skyline {
    /// The stair with the largest cycles ≤ `c` — by the staircase
    /// invariant, the minimum-LUT evaluated point among those.
    fn floor(&self, c: u64) -> Option<(u64, f64)> {
        let i = self.stairs.partition_point(|&(sc, _)| sc <= c);
        (i > 0).then(|| self.stairs[i - 1])
    }

    /// `true` when some evaluated point *provably strictly dominates* a
    /// candidate whose cycles are at least `cycles_lb` and whose LUTs are
    /// exactly `luts`. Ties on both objectives are never pruned: the
    /// frontier's knob tie-break might keep the candidate.
    fn strictly_dominates(&self, cycles_lb: u64, luts: f64) -> bool {
        match self.floor(cycles_lb) {
            None => false,
            Some((qc, ql)) => ql < luts || (ql == luts && qc < cycles_lb),
        }
    }

    /// Inserts an evaluated point, keeping only staircase corners.
    fn insert(&mut self, c: u64, l: f64) {
        if let Some((_, ql)) = self.floor(c) {
            if ql <= l {
                return; // an existing stair already covers it
            }
        }
        let i = self.stairs.partition_point(|&(sc, _)| sc < c);
        let mut j = i;
        while j < self.stairs.len() && self.stairs[j].1 >= l {
            j += 1;
        }
        self.stairs.splice(i..j, [(c, l)]);
    }
}

/// Outcome of a dominance-pruned sweep: the frontier plus an accounting
/// of how much of the grid was evaluated versus pruned unseen.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedSweep {
    /// The Pareto frontier — bit-identical to
    /// `pareto_frontier(&sweep_design_space(topo))`.
    pub frontier: Vec<DesignPoint>,
    /// Total grid points the sweep covered (evaluated + pruned).
    pub grid_points: usize,
    /// Points actually evaluated (joined from fragments).
    pub evaluated_points: usize,
    /// Points skipped by dominance pruning before scheduling.
    pub pruned_points: usize,
    /// `(PEf, PEb)` rows whose schedule was computed (or fragment-read).
    pub scheduled_rows: usize,
    /// Rows skipped entirely — no schedule, no fragment, nothing.
    pub skipped_rows: usize,
}

/// [`sweep_design_space_pruned_with`] through [`Pipeline::global`].
pub fn sweep_design_space_pruned(topo: &Topology) -> PrunedSweep {
    sweep_design_space_pruned_with(Pipeline::global(), topo)
}

/// Sweeps the full `N³` space with dominance pruning: grid rows that are
/// provably strictly dominated are skipped *before* their schedule is
/// computed, and the returned frontier is still bit-identical to the
/// exhaustive sweep's.
///
/// The pruning argument has two legs, both conservative:
///
/// 1. **Cycle lower bounds from monotonicity.** The traversal makespan is
///    non-increasing in each PE count (more PEs never hurt; pinned by
///    this module's tests and cross-checked numerically by
///    `verify_frontier`), so after scheduling the grid's far edges —
///    `(PEf, N)` for every `PEf` and `(N, PEb)` for every `PEb` — every
///    interior row `(PEf, PEb)` has the certified lower bound
///    `T ≥ max(T(PEf, N), T(N, PEb))`.
/// 2. **Strict skyline dominance.** A candidate point is pruned only when
///    an already-evaluated point beats its *bound* with strictly fewer
///    LUTs, or with equal LUTs and strictly fewer cycles than the bound.
///    Objective ties are never pruned, so the frontier's deterministic
///    knob tie-break sees every point it would have kept.
///
/// A row is skipped only when all `N` of its block sizes are prunable.
/// Super-saturated regions (PE counts past the topology's useful
/// parallelism, where the makespan plateaus but resources keep growing)
/// collapse this way — typically the majority of the grid on branched
/// robots.
pub fn sweep_design_space_pruned_with(pipeline: &Pipeline, topo: &Topology) -> PrunedSweep {
    let _span = obs::span(OBS_CATEGORY, "sweep-pruned");
    let (sweep, load) = pruned_sweep(pipeline, topo);
    record_sweep_metrics(
        sweep.evaluated_points as u64,
        load.wall,
        load.busy_ns,
        load.workers,
    );
    sweep
}

/// One sweep's worker-pool accounting: the inputs of the
/// `dse.worker_utilization_pct` gauge.
#[derive(Debug, Clone, Copy)]
struct PoolLoad {
    /// Sweep wall time, up to the frontier extraction.
    wall: Duration,
    /// Time spent computing rows, summed across workers.
    busy_ns: u64,
    /// Workers the sweep's pool ran.
    workers: usize,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// [`sweep_design_space_pruned_with`] without publishing the pool gauges,
/// which it returns instead.
fn pruned_sweep(pipeline: &Pipeline, topo: &Topology) -> (PrunedSweep, PoolLoad) {
    let sweep_start = Instant::now();
    let n = topo.len();
    let frags = FragCounters::resolve();
    // One scheduling index for every row the sweep computes.
    let prep = SchedulePrep::new(&pipeline.task_graph(topo, KERNEL), TaskCosts::default());
    let mm: Vec<u64> = (1..=n)
        .map(|b| mm_latency_fast(pipeline, &frags, topo, b))
        .collect();

    // Far-edge rows, scheduled upfront (in parallel) to certify lower
    // bounds for the whole interior: (pf, n) for pf in 1..=n, then
    // (n, pb) for pb in 1..n.
    let edges: Vec<(usize, usize)> = (1..=n)
        .map(|pf| (pf, n))
        .chain((1..n).map(|pb| (n, pb)))
        .collect();
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(edges.len())
        .max(1);
    let next = AtomicUsize::new(0);
    let busy_ns = AtomicU64::new(0);
    let mut edge_t: Vec<(usize, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, edges, busy_ns, frags, prep) = (&next, &edges, &busy_ns, &frags, &prep);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= edges.len() {
                            break;
                        }
                        let start = Instant::now();
                        let (pf, pb) = edges[idx];
                        let t = traversal_makespan_fast(pipeline, frags, prep, topo, pf, pb);
                        out.push((idx, t));
                        busy_ns.fetch_add(nanos(start.elapsed()), Ordering::Relaxed);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pruned-sweep worker panicked"))
            .collect()
    });
    edge_t.sort_unstable_by_key(|&(idx, _)| idx);
    // t_f[pf-1] = T(pf, n); t_b[pb-1] = T(n, pb), with t_b[n-1] = T(n, n).
    let t_f: Vec<u64> = edge_t[..n].iter().map(|&(_, t)| t).collect();
    let t_b: Vec<u64> = edge_t[n..]
        .iter()
        .map(|&(_, t)| t)
        .chain([t_f[n - 1]])
        .collect();

    let mut skyline = Skyline::default();
    let mut points: Vec<DesignPoint> = Vec::new();
    let push_row = |points: &mut Vec<DesignPoint>, skyline: &mut Skyline, pf, pb, t| {
        for b in 1..=n {
            let p = point(n, pf, pb, b, t, mm[b - 1]);
            skyline.insert(p.total_cycles, p.resources.luts);
            points.push(p);
        }
    };
    for pf in 1..=n {
        push_row(&mut points, &mut skyline, pf, n, t_f[pf - 1]);
    }
    for pb in 1..n {
        push_row(&mut points, &mut skyline, n, pb, t_b[pb - 1]);
    }

    // The interior runs serially on this thread, which counts as one
    // busy worker for its whole duration.
    let interior_start = Instant::now();
    let mut scheduled_rows = edges.len();
    let mut skipped_rows = 0usize;
    for pf in 1..n {
        for pb in 1..n {
            let bound = t_f[pf - 1].max(t_b[pb - 1]);
            let survives = (1..=n).any(|b| {
                let luts = DseModel.estimate(n, &AcceleratorKnobs::new(pf, pb, b)).luts;
                !skyline.strictly_dominates(bound + mm[b - 1], luts)
            });
            if !survives {
                skipped_rows += 1;
                continue;
            }
            let t = traversal_makespan_fast(pipeline, &frags, &prep, topo, pf, pb);
            push_row(&mut points, &mut skyline, pf, pb, t);
            scheduled_rows += 1;
        }
    }
    let busy_ns = busy_ns.into_inner() + nanos(interior_start.elapsed());

    let grid_points = n * n * n;
    let evaluated_points = points.len();
    let pruned_points = grid_points - evaluated_points;
    let m = obs::metrics();
    m.counter(PRUNED_POINTS_METRIC).add(pruned_points as u64);
    m.counter(PRUNED_ROWS_METRIC).add(skipped_rows as u64);
    pipeline.observer().add_points(evaluated_points as u64);
    let load = PoolLoad {
        wall: sweep_start.elapsed(),
        busy_ns,
        workers,
    };
    let sweep = PrunedSweep {
        frontier: pareto_frontier(&points),
        grid_points,
        evaluated_points,
        pruned_points,
        scheduled_rows,
        skipped_rows,
    };
    (sweep, load)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboshape_robots::{zoo, Zoo};

    #[test]
    fn sweep_covers_full_grid() {
        let topo = Topology::chain(4);
        let pts = sweep_design_space(&topo);
        assert_eq!(pts.len(), 64);
        // Deterministic order and coverage.
        let mut seen = std::collections::HashSet::new();
        for p in &pts {
            assert!(seen.insert((p.pe_fwd, p.pe_bwd, p.block)));
            assert!(p.total_cycles >= p.traversal_cycles);
        }
    }

    #[test]
    fn design_spaces_are_tractable_thousands_of_points() {
        // Paper Fig. 12: "tractable (1000s of design points) design spaces".
        let hyq_arm = zoo(Zoo::HyqArm);
        let pts = sweep_design_space(hyq_arm.topology());
        assert_eq!(pts.len(), 19 * 19 * 19); // 6859
    }

    #[test]
    fn incremental_sweep_matches_exhaustive_oracle() {
        let topo = zoo(Zoo::Jaco2).topology().clone();
        let pipeline = Pipeline::new();
        let incremental = sweep_design_space_with(&pipeline, &topo);
        let oracle = sweep_design_space_exhaustive_with(&Pipeline::new(), &topo);
        assert_eq!(incremental, oracle);
    }

    #[test]
    fn grid_delta_recompiles_only_the_delta() {
        let topo = Topology::chain(6);
        let pipeline = Pipeline::new();
        let m = obs::metrics();
        let small = SweepGrid {
            pe_fwd: vec![1, 2],
            pe_bwd: vec![1, 2],
            block: vec![1, 2],
        };
        sweep_design_space_grid_with(&pipeline, &topo, &small);
        let misses_after_small = m.counter(FRAG_MISSES_METRIC).get();

        // Grow every axis by one value: the 4 old (pf, pb) pairs and the
        // 2 old block sizes must all come from the fragment store; only
        // the 5 new (pf, pb) pairs and 1 new block size compile.
        let grown = SweepGrid {
            pe_fwd: vec![1, 2, 3],
            pe_bwd: vec![1, 2, 3],
            block: vec![1, 2, 3],
        };
        let hits_before = m.counter(FRAG_HITS_METRIC).get();
        let pts = sweep_design_space_grid_with(&pipeline, &topo, &grown);
        assert_eq!(pts.len(), 27);
        assert_eq!(
            m.counter(FRAG_MISSES_METRIC).get() - misses_after_small,
            5 + 1,
            "re-sweep after a grid change must recompile only the delta"
        );
        assert_eq!(m.counter(FRAG_HITS_METRIC).get() - hits_before, 4 + 2);

        // The grown grid's points agree with the full sweep's subset.
        let full = sweep_design_space_with(&pipeline, &topo);
        for p in &pts {
            assert!(full.contains(p));
        }
    }

    #[test]
    fn frontier_members_are_mutually_nondominated() {
        let topo = zoo(Zoo::Hyq);
        let pts = sweep_design_space(topo.topology());
        let frontier = pareto_frontier(&pts);
        assert!(!frontier.is_empty());
        for a in &frontier {
            for b in &frontier {
                assert!(!a.dominates(b) || a == b, "{a:?} dominates {b:?}");
            }
        }
    }

    #[test]
    fn every_point_is_dominated_by_or_on_the_frontier() {
        let topo = Topology::chain(5);
        let pts = sweep_design_space(&topo);
        let frontier = pareto_frontier(&pts);
        for p in &pts {
            let covered = frontier.iter().any(|f| {
                f == p || (f.total_cycles <= p.total_cycles && f.resources.luts <= p.resources.luts)
            });
            assert!(covered, "{p:?} not covered by frontier");
        }
    }

    #[test]
    fn frontier_is_independent_of_input_order() {
        let topo = zoo(Zoo::Jaco3).topology().clone();
        let pts = sweep_design_space_with(&Pipeline::new(), &topo);
        let forward = pareto_frontier(&pts);
        let mut shuffled = pts.clone();
        shuffled.reverse();
        // Deterministic pseudo-shuffle: interleave halves.
        let (a, b) = shuffled.split_at(shuffled.len() / 2);
        let interleaved: Vec<DesignPoint> = a
            .iter()
            .zip(b.iter().rev())
            .flat_map(|(x, y)| [*x, *y])
            .chain(if shuffled.len() % 2 == 1 {
                vec![shuffled[shuffled.len() / 2]]
            } else {
                vec![]
            })
            .collect();
        assert_eq!(forward, pareto_frontier(&interleaved));
    }

    #[test]
    fn pruned_sweep_frontier_is_bit_identical_to_exhaustive() {
        for which in [Zoo::Iiwa, Zoo::Hyq, Zoo::Jaco2] {
            let topo = zoo(which).topology().clone();
            let exhaustive =
                pareto_frontier(&sweep_design_space_exhaustive_with(&Pipeline::new(), &topo));
            let pruned = sweep_design_space_pruned_with(&Pipeline::new(), &topo);
            assert_eq!(
                pruned.frontier, exhaustive,
                "{which:?}: pruned frontier diverged"
            );
            assert_eq!(
                pruned.evaluated_points + pruned.pruned_points,
                pruned.grid_points
            );
            assert!(
                pruned.skipped_rows > 0,
                "{which:?}: pruning never fired on the saturated region"
            );
        }
    }

    #[test]
    fn pruned_and_exhaustive_sweeps_share_fragments() {
        // Pruned-after-incremental must read every schedule it needs from
        // the fragment store (and vice versa the shared edge rows).
        let topo = zoo(Zoo::Hyq).topology().clone();
        let pipeline = Pipeline::new();
        sweep_design_space_with(&pipeline, &topo);
        let m = obs::metrics();
        let misses_before = m.counter(FRAG_MISSES_METRIC).get();
        sweep_design_space_pruned_with(&pipeline, &topo);
        assert_eq!(
            m.counter(FRAG_MISSES_METRIC).get(),
            misses_before,
            "pruned sweep recomputed fragments the full sweep had cached"
        );
    }

    #[test]
    fn skyline_staircase_invariants() {
        let mut s = Skyline::default();
        assert!(!s.strictly_dominates(100, 5.0));
        s.insert(10, 50.0);
        s.insert(20, 40.0);
        s.insert(5, 60.0);
        s.insert(15, 45.0);
        assert_eq!(
            s.stairs,
            vec![(5, 60.0), (10, 50.0), (15, 45.0), (20, 40.0)]
        );
        // A dominating insert collapses the tail.
        s.insert(8, 42.0);
        assert_eq!(s.stairs, vec![(5, 60.0), (8, 42.0), (20, 40.0)]);
        // Dominated inserts are no-ops.
        s.insert(9, 42.0);
        s.insert(8, 42.0);
        assert_eq!(s.stairs, vec![(5, 60.0), (8, 42.0), (20, 40.0)]);
        // Strict dominance: bound past a stair with smaller LUTs.
        assert!(s.strictly_dominates(25, 41.0)); // (20, 40) beats it
        assert!(s.strictly_dominates(21, 40.0)); // equal LUTs, strictly later bound
        assert!(!s.strictly_dominates(20, 40.0)); // exact tie: never pruned
        assert!(!s.strictly_dominates(4, 100.0)); // nothing at or before the bound
    }

    #[test]
    fn worker_utilization_reports_raw_oversubscription() {
        let m = obs::metrics();
        let before = m.counter("dse.worker_oversubscribed").get();
        // 2 workers over 1ms of wall but 3ms of busy time: 150%.
        record_sweep_metrics(10, std::time::Duration::from_millis(1), 3_000_000, 2);
        let pct = m.gauge("dse.worker_utilization_pct").get();
        assert!(
            (pct - 150.0).abs() < 1e-6,
            "clamped or wrong utilization: {pct}"
        );
        assert_eq!(m.counter("dse.worker_oversubscribed").get(), before + 1);
        // A healthy pool leaves the counter alone.
        record_sweep_metrics(10, std::time::Duration::from_millis(1), 1_000_000, 2);
        assert!((m.gauge("dse.worker_utilization_pct").get() - 50.0).abs() < 1e-6);
        assert_eq!(m.counter("dse.worker_oversubscribed").get(), before + 1);
    }

    #[test]
    fn pruned_sweep_busy_time_covers_the_serial_interior() {
        // Warm every edge row and block latency first, so the parallel
        // edge phase is only fragment reads and nearly all of the sweep's
        // scheduling happens in the serial interior loop. That loop keeps
        // one worker busy, so busy time must cover most of the wall.
        let topo = zoo(Zoo::Jaco2).topology().clone();
        let n = topo.len();
        let pipeline = Pipeline::new();
        let all: Vec<usize> = (1..=n).collect();
        for (pe_fwd, pe_bwd) in [(vec![n], all.clone()), (all.clone(), vec![n])] {
            let grid = SweepGrid {
                pe_fwd,
                pe_bwd,
                block: all.clone(),
            };
            sweep_design_space_grid_with(&pipeline, &topo, &grid);
        }
        let (sweep, load) = pruned_sweep(&pipeline, &topo);
        assert!(
            sweep.scheduled_rows > 2 * n - 1,
            "no interior row scheduled"
        );
        let wall_ns = nanos(load.wall);
        assert!(
            2 * load.busy_ns >= wall_ns,
            "busy {} ns over {wall_ns} ns of wall leaves out the interior",
            load.busy_ns
        );
        assert!(load.busy_ns <= wall_ns * load.workers as u64);
    }

    #[test]
    fn more_pes_never_increase_traversal_latency() {
        let topo = zoo(Zoo::Baxter);
        let pts = sweep_design_space(topo.topology());
        let n = 15;
        // Along the symmetric diagonal at fixed block.
        let lat = |pe: usize| {
            pts.iter()
                .find(|p| p.pe_fwd == pe && p.pe_bwd == pe && p.block == 4)
                .unwrap()
                .traversal_cycles
        };
        let mut prev = u64::MAX;
        for pe in 1..=n {
            let l = lat(pe);
            assert!(l <= prev, "pe {pe}: {l} > {prev}");
            prev = l;
        }
    }

    #[test]
    fn max_latency_range_matches_fig12_scale() {
        // Paper Fig. 12: maximum latencies are 829–7230 cycles across the
        // six robots. Our calibrated model lands in the same regime (same
        // decade, hundreds-to-thousands; exact per-robot values in
        // EXPERIMENTS.md).
        for which in [Zoo::Iiwa, Zoo::HyqArm] {
            let pts = sweep_design_space(zoo(which).topology());
            let max = pts.iter().map(|p| p.total_cycles).max().unwrap();
            assert!(
                (500..12_000).contains(&max),
                "{which:?}: max latency {max} out of regime"
            );
        }
    }
}
