//! The `design_sweep` workload: cold design jobs from URDF text to a
//! Pareto frontier and Verilog, each followed by a warm re-sweep after
//! a grid delta.

use crate::report::Metrics;
use crate::stats::{median, quantile, windowed_quantile};
use crate::{probe, splitmix64, trace, Args, RunResult};
use roboshape::obs;
use roboshape::{
    check_bundle, pareto_frontier, parse_urdf, sweep_design_space_exhaustive_with,
    sweep_design_space_grid_with, sweep_design_space_pruned_with, write_urdf, DesignPoint,
    Framework, Pipeline, RobotModel, SweepGrid, DSE_FRAG_HITS_METRIC, DSE_FRAG_MISSES_METRIC,
};
use roboshape_robots::{zoo_urdf, Zoo};
use roboshape_zoo::{generate, Family, FamilyParams};
use std::time::{Duration, Instant};

/// Robot generations per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Generated robots per family.
const PER_FAMILY: u64 = 2;

/// Fixed knobs per family, so every seed sweeps robots of the same size
/// and only their shapes and parameters vary.
fn family_params(family: Family) -> FamilyParams {
    match family {
        Family::Serpentine => FamilyParams::new(2, 1, 5),
        Family::Humanoid => FamilyParams::new(2, 2, 3),
        Family::MultiArm => FamilyParams::new(2, 3, 4),
        Family::RandomBranching => FamilyParams::new(3, 2, 10),
    }
}

/// The robots of one run as URDF text: the six paper robots and a
/// seeded sample of every generated family.
fn robot_texts(seed: u64) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Zoo::ALL
        .iter()
        .map(|&z| (z.name().to_string(), zoo_urdf(z)))
        .collect();
    for family in Family::ALL {
        for k in 0..PER_FAMILY {
            let g = generate(family, family_params(family), splitmix64(seed ^ (k << 32)))
                .expect("fixed family knobs are valid");
            out.push((g.name, write_urdf(&g.model)));
        }
    }
    out
}

/// The coarse grid the warm re-sweep starts from: every other knob
/// value.
fn coarse_grid(n: usize) -> SweepGrid {
    let every_other: Vec<usize> = (1..=n).step_by(2).collect();
    SweepGrid {
        pe_fwd: every_other.clone(),
        pe_bwd: every_other.clone(),
        block: every_other,
    }
}

fn frag_counts() -> (u64, u64) {
    let m = obs::metrics();
    (
        m.counter(DSE_FRAG_HITS_METRIC).get(),
        m.counter(DSE_FRAG_MISSES_METRIC).get(),
    )
}

/// Everything a phase of design jobs measured.
#[derive(Default)]
struct Phase {
    /// Cold job latencies (µs), in completion order.
    jobs_us: Vec<f64>,
    /// Robots per second of each pass over the robot set.
    pass_rates: Vec<f64>,
    mismatches: u64,
    parse_us: f64,
    generate_us: f64,
    verilog_us: f64,
    sweep_s: f64,
    sweep_points: u64,
    evaluated_points: u64,
    skipped_rows: u64,
    resweep_s: f64,
    resweep_points: u64,
    frag_hits: u64,
    frag_lookups: u64,
    fragment_s: f64,
    pipeline_hits: u64,
    pipeline_lookups: u64,
    store_entries: u64,
}

impl Phase {
    fn jobs(&self) -> f64 {
        self.jobs_us.len().max(1) as f64
    }
}

/// Runs passes over `robots` until `run_for` has passed. Frontiers are
/// checked against `reference` outside the timed regions.
fn run_phase(
    robots: &[(String, String)],
    reference: &[Vec<DesignPoint>],
    run_for: Duration,
) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    let mut verilog_checked = vec![false; robots.len()];
    while start.elapsed() < run_for {
        let mut pass_s = 0.0;
        for (r, (_, text)) in robots.iter().enumerate() {
            let t0 = Instant::now();
            let fw = {
                let _s = trace::span("urdf", "parse", 0);
                Framework::from_urdf(text).expect("generated URDF parses")
            }
            .with_pipeline(Pipeline::new());
            let t1 = Instant::now();
            let topo = fw.robot().topology();
            let pruned = {
                let _s = trace::span("dse", "sweep_pruned", 0);
                sweep_design_space_pruned_with(fw.pipeline(), topo)
            };
            let t2 = Instant::now();
            let accel = {
                let _s = trace::span("pipeline", "generate", 0);
                fw.generate_with_knobs(pruned.frontier[0].knobs())
            };
            let t3 = Instant::now();
            let verilog = {
                let _s = trace::span("codegen", "verilog", 0);
                accel.verilog()
            };
            let t4 = Instant::now();
            let job_s = (t4 - t0).as_secs_f64();
            pass_s += job_s;
            p.jobs_us.push(job_s * 1e6);
            p.parse_us += (t1 - t0).as_secs_f64() * 1e6;
            p.sweep_s += (t2 - t1).as_secs_f64();
            p.generate_us += (t3 - t2).as_secs_f64() * 1e6;
            p.verilog_us += (t4 - t3).as_secs_f64() * 1e6;
            p.sweep_points += pruned.grid_points as u64;
            p.evaluated_points += pruned.evaluated_points as u64;
            p.skipped_rows += pruned.skipped_rows as u64;

            // Warm re-sweep after a grid delta: the coarse grid, then
            // the full one, on the job's now-warm fragment store.
            let n = topo.len();
            let (coarse, full_grid) = (coarse_grid(n), SweepGrid::full(n));
            let (h0, m0) = frag_counts();
            let t5 = Instant::now();
            let full = {
                let _s = trace::span("dse", "resweep", 0);
                sweep_design_space_grid_with(fw.pipeline(), topo, &coarse);
                sweep_design_space_grid_with(fw.pipeline(), topo, &full_grid)
            };
            p.resweep_s += t5.elapsed().as_secs_f64();
            p.resweep_points += (coarse.len() + full_grid.len()) as u64;
            let (h1, m1) = frag_counts();
            p.frag_hits += h1 - h0;
            p.frag_lookups += (h1 - h0) + (m1 - m0);

            if trace::enabled() {
                // The same pruned sweep again, now warm: the difference
                // is the time spent computing fragments.
                let t = Instant::now();
                let _s = trace::span("dse", "sweep_pruned_warm", 0);
                sweep_design_space_pruned_with(fw.pipeline(), topo);
                p.fragment_s += (t2 - t1).as_secs_f64() - t.elapsed().as_secs_f64();
            }

            let report = fw.pipeline().observer().report();
            p.pipeline_hits += report.hits();
            p.pipeline_lookups += report.hits() + report.misses();
            p.store_entries += fw.pipeline().store().stats().total() as u64;

            let mut ok =
                pruned.frontier == reference[r] && pareto_frontier(&full) == pruned.frontier;
            if !verilog_checked[r] {
                ok &= check_bundle(&verilog).is_ok();
                verilog_checked[r] = true;
            }
            p.mismatches += u64::from(!ok);
        }
        p.pass_rates.push(robots.len() as f64 / pass_s);
    }
    p
}

/// `design_sweep`: see the module documentation.
pub fn design_sweep(args: &Args) -> RunResult {
    // Set-up: generate the robots' URDF text and parse it back into the
    // models the checks use.
    let mut times = Vec::new();
    let (mut robots, mut models) = (Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        let t = Instant::now();
        robots = robot_texts(args.seed);
        models = robots
            .iter()
            .map(|(_, text)| parse_urdf(text).expect("generated URDF parses"))
            .collect::<Vec<RobotModel>>();
        times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&times);

    // The exhaustive frontier of each robot, untimed: the oracle every
    // pruned and re-swept frontier must equal.
    let reference: Vec<Vec<DesignPoint>> = models
        .iter()
        .map(|m| {
            pareto_frontier(&sweep_design_space_exhaustive_with(
                &Pipeline::new(),
                m.topology(),
            ))
        })
        .collect();

    let settle = run_phase(&robots, &reference, crate::serving::SETTLE);
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    let (run, traced) = if args.trace {
        let run = run_phase(&robots, &reference, args.seconds / 2);
        trace::enable();
        let traced = run_phase(&robots, &reference, args.seconds / 2);
        trace::disable();
        (run, Some(traced))
    } else {
        (run_phase(&robots, &reference, args.seconds), None)
    };
    let rate = median(&run.pass_rates);
    m.set("throughput_rps", rate);
    m.set(
        "latency_p50_us",
        quantile(&run.jobs_us, 0.5).expect("design jobs ran"),
    );
    m.set(
        "latency_p90_us",
        windowed_quantile(&run.jobs_us, 0.9, 8).expect("enough design jobs"),
    );
    let mut mismatches = settle.mismatches + run.mismatches;
    if let Some(t) = traced {
        mismatches += t.mismatches;
        let p99 = windowed_quantile(&run.jobs_us, 0.99, 8).unwrap_or(0.0);
        m.set("gen.latency_p99_us", p99);
        m.set("trace.overhead_frac", 1.0 - median(&t.pass_rates) / rate);
        crate::record_spans(&mut m);
        let jobs = t.jobs();
        m.set("urdf.parse_us", t.parse_us / jobs);
        m.set("pipeline.compile_us", t.generate_us / jobs);
        m.set("codegen.verilog_us", t.verilog_us / jobs);
        m.set(
            "pipeline.hit_ratio",
            t.pipeline_hits as f64 / t.pipeline_lookups.max(1) as f64,
        );
        m.set("pipeline.store_entries", t.store_entries as f64 / jobs);
        m.set("dse.sweep_points_per_s", t.sweep_points as f64 / t.sweep_s);
        m.set(
            "dse.resweep_points_per_s",
            t.resweep_points as f64 / t.resweep_s,
        );
        m.set("dse.fragment_ms", t.fragment_s * 1e3 / jobs);
        m.set(
            "dse.evaluated_frac",
            t.evaluated_points as f64 / t.sweep_points as f64,
        );
        m.set("dse.skipped_rows", t.skipped_rows as f64 / jobs);
        m.set("dse.join_ms", t.resweep_s * 1e3 / jobs);
        m.set(
            "dse.frag_hit_ratio",
            t.frag_hits as f64 / t.frag_lookups.max(1) as f64,
        );
        let refs: Vec<&RobotModel> = models.iter().collect();
        probe::design_layers(&mut m, &refs);
        m.set("gen.samples", run.jobs_us.len() as f64);
        m.set(
            "gen.failed_frac",
            (run.mismatches + t.mismatches) as f64 / (run.jobs() + jobs),
        );
    }
    println!(
        "design_sweep: {} robots, {} cold jobs, {} frontier mismatches",
        robots.len(),
        run.jobs_us.len(),
        mismatches
    );
    RunResult {
        correct: mismatches == 0,
        attempted: run.jobs_us.len() as u64,
        failed: mismatches,
        metrics: m,
    }
}
