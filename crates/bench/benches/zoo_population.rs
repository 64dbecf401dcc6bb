//! Generated-population benchmarks for the `roboshape-zoo` tier:
//! population → compiled-program throughput (robots/sec through a
//! warmed pipeline store) and trajectory serving throughput (one
//! `Rollout { steps: N }` ticket per horizon versus N single-step
//! requests) at horizons 1, 4 and 16. Besides the Criterion timings,
//! one instrumented run writes a machine-readable summary to
//! `BENCH_zoo.json` at the repository root.
//!
//! Set `SIM_BENCH_SMOKE=1` to shrink the population and request counts
//! for CI.

use criterion::{criterion_group, criterion_main, Criterion};
use roboshape::obs::json::Json;
use roboshape::{AcceleratorKnobs, BackendKind, KernelKind, Pipeline};
use roboshape_benchrec::record::relative_spread;
use roboshape_benchrec::BenchRecord;
use roboshape_serve::loadgen::{
    run_loadgen, LoadMode, LoadgenConfig, LoadgenReport, RetryPolicy, TargetRobot, Workload,
};
use roboshape_serve::{Engine, EngineConfig, Server};
use roboshape_zoo::{population, Family, GeneratedRobot};
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const SEED: u64 = 42;
const HORIZONS: [u32; 3] = [1, 4, 16];

fn smoke() -> bool {
    std::env::var_os("SIM_BENCH_SMOKE").is_some()
}

/// Robots generated for the compile-throughput measurement.
fn population_size() -> usize {
    if smoke() {
        8
    } else {
        64
    }
}

/// Rollout tickets sent per horizon in the serving comparison.
fn serve_requests() -> usize {
    if smoke() {
        8
    } else {
        32
    }
}

fn members(n: usize) -> Vec<GeneratedRobot> {
    population(SEED, n, &Family::ALL).expect("non-empty mix")
}

/// Compiles every member's ∇FD program against a fresh pipeline and
/// returns robots/sec. The store starts cold, so this measures the
/// full schedule → block plan → linearize path per distinct topology.
fn compile_population(members: &[GeneratedRobot]) -> f64 {
    let pipeline = Pipeline::new();
    let knobs = AcceleratorKnobs::symmetric(2, 4);
    let start = Instant::now();
    for m in members {
        let program = pipeline.compiled_program_for(
            m.model.topology(),
            knobs,
            KernelKind::DynamicsGradient,
            BackendKind::Lanes,
        );
        black_box(program.stats().cycles);
    }
    members.len() as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Serves `serve_requests()` trajectory tickets at horizon `steps`
/// against a loopback server hosting a generated sub-population, and
/// returns the loadgen report (closed loop, no retries — every ticket
/// must land).
fn run_rollout_load(port: u16, robots: &[TargetRobot], steps: u32) -> LoadgenReport {
    let cfg = LoadgenConfig {
        mode: LoadMode::Closed,
        clients: 2,
        requests_per_client: serve_requests() / 2,
        robots: robots.to_vec(),
        workload: if steps == 1 {
            // Horizon 1 doubles as the single-step baseline shape.
            Workload::Rollout(1)
        } else {
            Workload::Rollout(steps)
        },
        deadline: None,
        seed: 3,
        retry: RetryPolicy::none(),
        timeout: None,
    };
    let report = run_loadgen(("127.0.0.1", port), &cfg).expect("rollout load");
    assert_eq!(report.lost(), 0, "rollout serving lost requests: {report}");
    report
}

/// Best-of-three pass over a measurement closure: returns the best
/// pass's value and the relative spread across passes.
fn best_of_three_passes<T, F: FnMut() -> (f64, T)>(mut f: F) -> (f64, f64, T) {
    let mut passes = Vec::with_capacity(3);
    for _ in 0..3 {
        passes.push(f());
    }
    let noise = relative_spread(&passes.iter().map(|(v, _)| *v).collect::<Vec<_>>());
    let (value, payload) = passes
        .into_iter()
        .max_by(|(a, _), (b, _)| a.total_cmp(b))
        .expect("at least one pass");
    (value, noise, payload)
}

/// Emits the regression-gate record into `bench/current/` (see
/// docs/BENCHMARKS.md): compile throughput and per-horizon serving
/// rates gate with their measured pass spreads.
fn write_record(
    compile_rps: f64,
    compile_noise: f64,
    horizon_reports: &[(u32, LoadgenReport, f64)],
) {
    let mut rec = BenchRecord::new("zoo_population", smoke(), cfg!(feature = "simd"));
    rec.push("compile_robots_per_sec", compile_rps, compile_noise);
    for (steps, report, noise) in horizon_reports {
        rec.push(
            &format!("h{steps}.ticket_rps"),
            report.throughput_rps,
            *noise,
        );
        rec.push(
            &format!("h{steps}.step_rps"),
            report.throughput_rps * f64::from(*steps),
            *noise,
        );
        rec.push(&format!("h{steps}.p99_us"), report.p99_us as f64, *noise);
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/current/zoo_population.json"
    );
    rec.save(Path::new(path)).expect("write bench record");
}

fn write_summary(compile_rps: f64, horizon_reports: &[(u32, LoadgenReport)]) {
    let horizons = horizon_reports.iter().map(|(steps, report)| {
        Json::obj([
            ("steps", (*steps).into()),
            ("tickets", report.ok.into()),
            ("ticket_rps", Json::rounded(report.throughput_rps, 1)),
            (
                "step_rps",
                Json::rounded(report.throughput_rps * f64::from(*steps), 1),
            ),
            ("p50_us", report.p50_us.into()),
            ("p99_us", report.p99_us.into()),
        ])
    });
    let families = ["serpentine", "humanoid", "multiarm", "random"];
    let doc = Json::obj([
        ("bench", "zoo_population".into()),
        ("seed", SEED.into()),
        ("population", population_size().into()),
        ("families", Json::Arr(families.map(Json::from).to_vec())),
        ("compile_robots_per_sec", Json::rounded(compile_rps, 1)),
        ("rollout_serving", Json::Arr(horizons.collect())),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_zoo.json");
    fs::write(path, doc.to_pretty()).expect("write BENCH_zoo.json");
}

fn bench_zoo_population(c: &mut Criterion) {
    let members = members(population_size());

    let mut g = c.benchmark_group("zoo_population");
    g.sample_size(10);
    g.bench_function("population_compile", |b| {
        b.iter(|| black_box(compile_population(&members)))
    });

    // Serving: a loopback server hosting the first four generated
    // robots (one per family), driven at each horizon.
    let engine = Engine::new(EngineConfig::default());
    let targets: Vec<TargetRobot> = members
        .iter()
        .take(4)
        .map(|m| {
            engine.register(m.model.name(), m.model.clone());
            TargetRobot {
                name: m.model.name().to_string(),
                links: m.model.num_links(),
            }
        })
        .collect();
    let server = Server::start(engine, ("127.0.0.1", 0)).expect("bind loopback");
    let port = server.port();
    // Warm every worker's arenas before measuring.
    run_rollout_load(port, &targets, 1);

    g.bench_function("rollout_serve_h4", |b| {
        b.iter(|| black_box(run_rollout_load(port, &targets, 4).throughput_rps))
    });
    g.finish();

    // Summary measurements: best of three passes each, with the pass
    // spread recorded as the regression-gate noise band.
    let (compile_rps, compile_noise, ()) =
        best_of_three_passes(|| (compile_population(&members), ()));
    let measured: Vec<(u32, LoadgenReport, f64)> = HORIZONS
        .iter()
        .map(|&steps| {
            let (_, noise, report) = best_of_three_passes(|| {
                let r = run_rollout_load(port, &targets, steps);
                (r.throughput_rps, r)
            });
            (steps, report, noise)
        })
        .collect();
    server.shutdown();
    let horizon_reports: Vec<(u32, LoadgenReport)> = measured
        .iter()
        .map(|(steps, report, _)| (*steps, *report))
        .collect();
    write_summary(compile_rps, &horizon_reports);
    write_record(compile_rps, compile_noise, &measured);
}

criterion_group!(benches, bench_zoo_population);
criterion_main!(benches);
