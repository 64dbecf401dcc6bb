//! Simulator throughput over the full zoo: cold compile (schedule →
//! flat op program), warm execute (bound scratch arena, zero-alloc
//! path), and the retired schedule interpreter side by side. Besides
//! the Criterion timings, one instrumented run writes a
//! machine-readable summary to `BENCH_sim.json` at the repository
//! root.
//!
//! Set `SIM_BENCH_SMOKE=1` to shrink the iteration counts for CI.

use criterion::{criterion_group, criterion_main, Criterion};
use roboshape::obs::json::Json;
use roboshape::{
    shared_program, shared_program_for, try_simulate_interpreted, AcceleratorDesign,
    AcceleratorKnobs, BackendKind, CompiledProgram, SimScratch,
};
use roboshape_benchrec::record::relative_spread;
use roboshape_benchrec::{BenchRecord, MetricKind};
use roboshape_robots::{zoo, Zoo};
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var_os("SIM_BENCH_SMOKE").is_some()
}

/// Warm evaluations per robot for the summary run.
fn evals() -> usize {
    if smoke() {
        50
    } else {
        2000
    }
}

/// Cold compiles per robot for the summary run.
fn compiles() -> usize {
    if smoke() {
        3
    } else {
        20
    }
}

fn knobs_for(n: usize) -> AcceleratorKnobs {
    // Mid-sized PE/block allocation: real pipelining, real blocked matmul.
    AcceleratorKnobs::symmetric(n.min(4), n.min(4))
}

fn bench_inputs(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    (
        (0..n).map(|i| 0.10 * (i as f64 + 1.0)).collect(),
        (0..n).map(|i| 0.02 * (i as f64 + 1.0)).collect(),
        (0..n).map(|i| 0.30 * (i as f64 + 1.0)).collect(),
    )
}

/// A batch of distinct-but-valid inputs (one trajectory step apart).
fn batch_inputs(n: usize, batch: usize) -> Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> {
    (0..batch)
        .map(|b| {
            let s = 0.03 * b as f64;
            (
                (0..n).map(|i| 0.10 * (i as f64 + 1.0) + s).collect(),
                (0..n).map(|i| 0.02 * (i as f64 + 1.0) - s).collect(),
                (0..n).map(|i| 0.30 * (i as f64 + 1.0) + s).collect(),
            )
        })
        .collect()
}

/// Which backend the Criterion batch timing runs (`SIM_BENCH_BACKEND`;
/// the JSON summary always measures both for the comparison flags).
fn selected_backend() -> BackendKind {
    match std::env::var("SIM_BENCH_BACKEND").as_deref() {
        Ok("scalar") => BackendKind::Scalar,
        _ => BackendKind::Lanes,
    }
}

/// Runs `total` iterations of `f` split into three timed chunks and
/// returns `(µs per iteration, relative spread of the per-chunk
/// rates)`. The spread is the noise estimate the BenchRecord carries:
/// what this machine's scheduler did to three back-to-back passes of
/// the identical workload.
fn timed_chunks<F: FnMut()>(total: usize, mut f: F) -> (f64, f64) {
    const CHUNKS: usize = 3;
    let per = (total / CHUNKS).max(1);
    let mut rates = [0.0; CHUNKS];
    let start = Instant::now();
    for rate in &mut rates {
        let chunk_start = Instant::now();
        for _ in 0..per {
            f();
        }
        *rate = per as f64 / chunk_start.elapsed().as_secs_f64().max(1e-12);
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / (CHUNKS * per) as f64;
    (us, relative_spread(&rates))
}

struct RobotRow {
    name: &'static str,
    links: usize,
    compile_us: f64,
    cold_first_eval_us: f64,
    warm_exec_us: f64,
    /// Relative spread of the warm chunks' rates.
    warm_noise: f64,
    interpreted_us: f64,
    interp_noise: f64,
}

impl RobotRow {
    fn warm_evals_per_sec(&self) -> f64 {
        1e6 / self.warm_exec_us
    }

    fn speedup_vs_interpreted(&self) -> f64 {
        self.interpreted_us / self.warm_exec_us
    }
}

/// Times cold compile, warm execute, and the interpreter for one robot.
fn measure(which: Zoo) -> RobotRow {
    let robot = zoo(which);
    let n = robot.num_links();
    let design = AcceleratorDesign::generate(robot.topology(), knobs_for(n));
    let (q, qd, tau) = bench_inputs(n);

    // Compile alone: lowering the schedule, bypassing every cache.
    let k = compiles();
    let start = Instant::now();
    for _ in 0..k {
        black_box(CompiledProgram::compile(&design));
    }
    let compile_us = start.elapsed().as_secs_f64() * 1e6 / k as f64;

    // Cold request end-to-end: compile, bind a fresh arena, first eval.
    let start = Instant::now();
    for _ in 0..k {
        let program = CompiledProgram::compile(&design);
        let mut scratch = SimScratch::default();
        black_box(
            program
                .execute_gradient(&robot, &mut scratch, &q, &qd, &tau)
                .expect("cold evaluation"),
        );
    }
    let cold_first_eval_us = start.elapsed().as_secs_f64() * 1e6 / k as f64;

    // Warm: bound arena + sized output, the zero-alloc path.
    let program = shared_program(&design);
    let mut scratch = SimScratch::default();
    let mut out = program
        .execute_gradient(&robot, &mut scratch, &q, &qd, &tau)
        .expect("warm-up evaluation");
    let (warm_exec_us, warm_noise) = timed_chunks(evals(), || {
        program
            .execute_gradient_into(&robot, &mut scratch, &q, &qd, &tau, &mut out)
            .expect("warm evaluation");
        black_box(&out.tau);
    });

    // Interpreter: the retired per-eval schedule walk, as a baseline.
    let (interpreted_us, interp_noise) = timed_chunks((evals() / 4).max(10), || {
        black_box(try_simulate_interpreted(&robot, &design, &q, &qd, &tau).expect("interpreted"));
    });

    RobotRow {
        name: which.name(),
        links: n,
        compile_us,
        cold_first_eval_us,
        warm_exec_us,
        warm_noise,
        interpreted_us,
        interp_noise,
    }
}

struct BatchRow {
    name: &'static str,
    links: usize,
    /// Warm per-entry µs for (backend, batch) ∈ {scalar, lanes} × {4, 8}.
    scalar_b4_us: f64,
    lanes_b4_us: f64,
    scalar_b8_us: f64,
    lanes_b8_us: f64,
    /// Per-case chunk-rate spreads, same order as the `_us` fields.
    scalar_b4_noise: f64,
    lanes_b4_noise: f64,
    scalar_b8_noise: f64,
    lanes_b8_noise: f64,
}

impl BatchRow {
    fn speedup_b4(&self) -> f64 {
        self.scalar_b4_us / self.lanes_b4_us
    }

    fn speedup_b8(&self) -> f64 {
        self.scalar_b8_us / self.lanes_b8_us
    }
}

/// Warm per-entry latency of one backend at one batch size: bound lane
/// and scalar arenas, reused output buffers — the zero-alloc batch path.
fn measure_batch_case(
    robot: &roboshape::RobotModel,
    design: &AcceleratorDesign,
    backend: BackendKind,
    batch: usize,
) -> (f64, f64) {
    let program = shared_program_for(design, backend);
    let mut scratch = SimScratch::default();
    let steps = batch_inputs(robot.num_links(), batch);
    let mut outs = Vec::new();
    program
        .execute_batch_into(robot, &mut scratch, &steps, &mut outs)
        .expect("warm-up batch");
    let k = (evals() / batch).max(10);
    let (batch_us, noise) = timed_chunks(k, || {
        program
            .execute_batch_into(robot, &mut scratch, &steps, &mut outs)
            .expect("warm batch");
        black_box(&outs[batch - 1].tau);
    });
    (batch_us / batch as f64, noise)
}

/// Scalar-loop vs lane backend at batch 4 and 8 for one robot.
fn measure_batch(which: Zoo) -> BatchRow {
    let robot = zoo(which);
    let n = robot.num_links();
    let design = AcceleratorDesign::generate(robot.topology(), knobs_for(n));
    let (scalar_b4_us, scalar_b4_noise) =
        measure_batch_case(&robot, &design, BackendKind::Scalar, 4);
    let (lanes_b4_us, lanes_b4_noise) = measure_batch_case(&robot, &design, BackendKind::Lanes, 4);
    let (scalar_b8_us, scalar_b8_noise) =
        measure_batch_case(&robot, &design, BackendKind::Scalar, 8);
    let (lanes_b8_us, lanes_b8_noise) = measure_batch_case(&robot, &design, BackendKind::Lanes, 8);
    BatchRow {
        name: which.name(),
        links: n,
        scalar_b4_us,
        lanes_b4_us,
        scalar_b8_us,
        lanes_b8_us,
        scalar_b4_noise,
        lanes_b4_noise,
        scalar_b8_noise,
        lanes_b8_noise,
    }
}

fn write_summary(rows: &[RobotRow], batch_rows: &[BatchRow]) {
    let warm_beats_cold = rows.iter().all(|r| r.warm_exec_us < r.cold_first_eval_us);
    let robots = rows.iter().map(|r| {
        Json::obj([
            ("name", r.name.into()),
            ("links", r.links.into()),
            ("compile_us", Json::rounded(r.compile_us, 2)),
            ("cold_first_eval_us", Json::rounded(r.cold_first_eval_us, 2)),
            ("warm_exec_us", Json::rounded(r.warm_exec_us, 2)),
            ("interpreted_us", Json::rounded(r.interpreted_us, 2)),
            (
                "warm_evals_per_sec",
                Json::rounded(r.warm_evals_per_sec(), 0),
            ),
            (
                "speedup_vs_interpreted",
                Json::rounded(r.speedup_vs_interpreted(), 2),
            ),
        ])
    });
    // The tentpole comparison: per-entry throughput of the lane backend
    // against the scalar loop on identical coalesced batches.
    let lanes_win_at_b4 = batch_rows.iter().filter(|r| r.speedup_b4() > 1.0).count() >= 4;
    let batch = batch_rows.iter().map(|r| {
        Json::obj([
            ("name", r.name.into()),
            ("links", r.links.into()),
            ("scalar_b4_us", Json::rounded(r.scalar_b4_us, 2)),
            ("lanes_b4_us", Json::rounded(r.lanes_b4_us, 2)),
            ("scalar_b8_us", Json::rounded(r.scalar_b8_us, 2)),
            ("lanes_b8_us", Json::rounded(r.lanes_b8_us, 2)),
            (
                "lanes_evals_per_sec_b4",
                Json::rounded(1e6 / r.lanes_b4_us, 0),
            ),
            (
                "lanes_evals_per_sec_b8",
                Json::rounded(1e6 / r.lanes_b8_us, 0),
            ),
            ("speedup_b4", Json::rounded(r.speedup_b4(), 2)),
            ("speedup_b8", Json::rounded(r.speedup_b8(), 2)),
        ])
    });
    let doc = Json::obj([
        ("bench", "sim_throughput".into()),
        ("kernel", "dynamics_gradient".into()),
        ("smoke", smoke().into()),
        ("warm_evals", evals().into()),
        ("simd_feature", cfg!(feature = "simd").into()),
        ("warm_beats_cold", warm_beats_cold.into()),
        ("lanes_beats_scalar_at_batch4", lanes_win_at_b4.into()),
        ("robots", Json::Arr(robots.collect())),
        ("batch", Json::Arr(batch.collect())),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    fs::write(path, doc.to_pretty()).expect("write BENCH_sim.json");
}

/// Emits the regression-gate record into `bench/current/` (see
/// docs/BENCHMARKS.md): warm and batch throughputs gate with their
/// measured chunk spreads; cold paths (compile, first eval) are
/// recorded as informational context because µs-scale one-shot timings
/// have more variance than any honest threshold.
fn write_record(rows: &[RobotRow], batch_rows: &[BatchRow]) {
    let mut rec = BenchRecord::new("sim_throughput", smoke(), cfg!(feature = "simd"));
    for r in rows {
        let name = r.name;
        rec.push(
            &format!("{name}.warm_evals_per_sec"),
            r.warm_evals_per_sec(),
            r.warm_noise,
        );
        rec.push(
            &format!("{name}.speedup_vs_interpreted"),
            r.speedup_vs_interpreted(),
            r.warm_noise + r.interp_noise,
        );
        rec.push_kind(
            &format!("{name}.compile_us"),
            r.compile_us,
            1.0,
            MetricKind::Informational,
        );
        rec.push_kind(
            &format!("{name}.cold_first_eval_us"),
            r.cold_first_eval_us,
            1.0,
            MetricKind::Informational,
        );
    }
    for r in batch_rows {
        let name = r.name;
        rec.push(
            &format!("{name}.lanes_evals_per_sec_b4"),
            1e6 / r.lanes_b4_us,
            r.lanes_b4_noise,
        );
        rec.push(
            &format!("{name}.lanes_evals_per_sec_b8"),
            1e6 / r.lanes_b8_us,
            r.lanes_b8_noise,
        );
        rec.push(
            &format!("{name}.speedup_b4"),
            r.speedup_b4(),
            r.lanes_b4_noise + r.scalar_b4_noise,
        );
        rec.push(
            &format!("{name}.speedup_b8"),
            r.speedup_b8(),
            r.lanes_b8_noise + r.scalar_b8_noise,
        );
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/current/sim_throughput.json"
    );
    rec.save(Path::new(path)).expect("write bench record");
}

fn bench_sim_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    // Criterion timings for the largest robot's warm path: the number
    // the compile-once/execute-many split exists to improve.
    let robot = zoo(Zoo::HyqArm);
    let n = robot.num_links();
    let design = AcceleratorDesign::generate(robot.topology(), knobs_for(n));
    let program = shared_program(&design);
    let mut scratch = SimScratch::default();
    let (q, qd, tau) = bench_inputs(n);
    let mut out = program
        .execute_gradient(&robot, &mut scratch, &q, &qd, &tau)
        .expect("warm-up evaluation");
    g.bench_function("warm_execute_hyq_arm", |b| {
        b.iter(|| {
            program
                .execute_gradient_into(&robot, &mut scratch, &q, &qd, &tau, &mut out)
                .expect("warm evaluation");
            black_box(&out.tau);
        })
    });
    g.bench_function("interpreted_hyq_arm", |b| {
        b.iter(|| {
            black_box(
                try_simulate_interpreted(&robot, &design, &q, &qd, &tau).expect("interpreted"),
            )
        })
    });
    // Coalesced batch of 4 through the selected backend (lanes unless
    // SIM_BENCH_BACKEND=scalar): the serve engine's hot path.
    let backend = selected_backend();
    let batch_program = shared_program_for(&design, backend);
    let mut batch_scratch = SimScratch::default();
    let steps = batch_inputs(n, 4);
    let mut outs = Vec::new();
    batch_program
        .execute_batch_into(&robot, &mut batch_scratch, &steps, &mut outs)
        .expect("warm-up batch");
    g.bench_function(format!("batch4_{backend:?}_hyq_arm").to_lowercase(), |b| {
        b.iter(|| {
            batch_program
                .execute_batch_into(&robot, &mut batch_scratch, &steps, &mut outs)
                .expect("warm batch");
            black_box(&outs[3].tau);
        })
    });
    g.finish();

    let rows: Vec<RobotRow> = Zoo::ALL.iter().map(|&z| measure(z)).collect();
    for r in &rows {
        assert!(
            r.warm_exec_us < r.cold_first_eval_us,
            "{}: warm execute ({:.2}us) must beat a cold request ({:.2}us)",
            r.name,
            r.warm_exec_us,
            r.cold_first_eval_us
        );
    }
    let batch_rows: Vec<BatchRow> = Zoo::ALL.iter().map(|&z| measure_batch(z)).collect();
    write_summary(&rows, &batch_rows);
    write_record(&rows, &batch_rows);
}

criterion_group!(benches, bench_sim_throughput);
criterion_main!(benches);
