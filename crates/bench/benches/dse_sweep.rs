//! Design-space sweep throughput: cold (fresh fragment store) vs
//! incremental (warm re-sweep joining cached fragments) vs dominance-
//! pruned, in design points per second, for every zoo robot plus a
//! generated-morphology sample from `roboshape-zoo`. Besides the
//! Criterion timings, one instrumented run writes a machine-readable
//! summary to `BENCH_dse.json` at the repository root and a
//! regression-gate record to `bench/current/dse_sweep.json`.
//!
//! Two claims are asserted in-bench, not just reported:
//!
//! * every sweep mode's Pareto frontier is bit-identical to the
//!   exhaustive oracle's (always);
//! * a warm incremental re-sweep sustains at least 10× the cold sweep's
//!   points/sec on every zoo robot (full mode; smoke mode still requires
//!   it to be strictly faster).
//!
//! Set `SIM_BENCH_SMOKE=1` to shrink the robot set for CI.

use criterion::{criterion_group, criterion_main, Criterion};
use roboshape::obs::json::Json;
use roboshape::{
    pareto_frontier, sweep_design_space_exhaustive_with, sweep_design_space_pruned_with,
    sweep_design_space_with, Pipeline, Topology,
};
use roboshape_benchrec::record::relative_spread;
use roboshape_benchrec::BenchRecord;
use roboshape_robots::{zoo, Zoo};
use roboshape_zoo::{population, Family};
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const SEED: u64 = 42;

fn smoke() -> bool {
    std::env::var_os("SIM_BENCH_SMOKE").is_some()
}

fn zoo_set() -> Vec<Zoo> {
    if smoke() {
        vec![Zoo::Iiwa, Zoo::Hyq]
    } else {
        Zoo::ALL.to_vec()
    }
}

fn generated_sample() -> usize {
    if smoke() {
        2
    } else {
        8
    }
}

/// Per-robot measurement: points/sec in each sweep mode, plus the point
/// sets needed for the in-bench frontier assertions.
struct SweepRates {
    cold_pps: f64,
    cold_noise: f64,
    incr_pps: f64,
    incr_noise: f64,
    pruned_pps: f64,
    pruned_noise: f64,
    grid_points: usize,
    pruned_evaluated: usize,
}

/// Best-of-three pass over a measurement closure (value = points/sec).
fn best_of_three<F: FnMut() -> f64>(mut f: F) -> (f64, f64) {
    let passes: Vec<f64> = (0..3).map(|_| f()).collect();
    let noise = relative_spread(&passes);
    let best = passes.into_iter().fold(f64::MIN, f64::max);
    (best, noise)
}

fn points_per_sec(points: usize, start: Instant) -> f64 {
    points as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Measures one topology across the three modes and asserts frontier
/// equality against the exhaustive oracle.
fn measure(label: &str, topo: &Topology) -> SweepRates {
    let oracle_frontier =
        pareto_frontier(&sweep_design_space_exhaustive_with(&Pipeline::new(), topo));
    let n3 = topo.len().pow(3);

    // Cold: a fresh fragment store every pass.
    let (cold_pps, cold_noise) = best_of_three(|| {
        let pipeline = Pipeline::new();
        let start = Instant::now();
        let pts = sweep_design_space_with(&pipeline, topo);
        let pps = points_per_sec(pts.len(), start);
        assert_eq!(
            pareto_frontier(&pts),
            oracle_frontier,
            "{label}: cold incremental frontier diverged"
        );
        pps
    });

    // Incremental: warm re-sweep over an already-populated store.
    let warm_pipeline = Pipeline::new();
    let cold_pts = sweep_design_space_with(&warm_pipeline, topo);
    let (incr_pps, incr_noise) = best_of_three(|| {
        let start = Instant::now();
        let pts = sweep_design_space_with(&warm_pipeline, topo);
        let pps = points_per_sec(pts.len(), start);
        assert_eq!(pts, cold_pts, "{label}: warm re-sweep not bit-identical");
        pps
    });

    // Pruned: cold store every pass; throughput counts the full grid the
    // sweep covers (evaluated + provably-dominated skipped points).
    let mut pruned_evaluated = 0;
    let (pruned_pps, pruned_noise) = best_of_three(|| {
        let pipeline = Pipeline::new();
        let start = Instant::now();
        let pruned = sweep_design_space_pruned_with(&pipeline, topo);
        let pps = points_per_sec(pruned.grid_points, start);
        assert_eq!(
            pruned.frontier, oracle_frontier,
            "{label}: pruned frontier diverged"
        );
        pruned_evaluated = pruned.evaluated_points;
        pps
    });

    SweepRates {
        cold_pps,
        cold_noise,
        incr_pps,
        incr_noise,
        pruned_pps,
        pruned_noise,
        grid_points: n3,
        pruned_evaluated,
    }
}

fn write_record(rows: &[(String, SweepRates)]) {
    let mut rec = BenchRecord::new("dse_sweep", smoke(), cfg!(feature = "simd"));
    for (name, r) in rows {
        rec.push(
            &format!("{name}.cold_points_per_sec"),
            r.cold_pps,
            r.cold_noise,
        );
        rec.push(
            &format!("{name}.incr_points_per_sec"),
            r.incr_pps,
            r.incr_noise,
        );
        rec.push(
            &format!("{name}.pruned_points_per_sec"),
            r.pruned_pps,
            r.pruned_noise,
        );
        rec.push(
            &format!("{name}.incr_speedup"),
            r.incr_pps / r.cold_pps,
            r.cold_noise + r.incr_noise,
        );
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/current/dse_sweep.json"
    );
    rec.save(Path::new(path)).expect("write bench record");
}

fn write_summary(rows: &[(String, SweepRates)]) {
    let sweeps = rows.iter().map(|(name, r)| {
        Json::obj([
            ("robot", name.as_str().into()),
            ("grid_points", r.grid_points.into()),
            ("cold_pps", Json::rounded(r.cold_pps, 1)),
            ("incremental_pps", Json::rounded(r.incr_pps, 1)),
            (
                "incremental_speedup",
                Json::rounded(r.incr_pps / r.cold_pps, 1),
            ),
            ("pruned_pps", Json::rounded(r.pruned_pps, 1)),
            ("pruned_evaluated", r.pruned_evaluated.into()),
        ])
    });
    let doc = Json::obj([
        ("bench", "dse_sweep".into()),
        ("seed", SEED.into()),
        ("smoke", smoke().into()),
        ("frontier_bit_identical", true.into()),
        ("sweeps", Json::Arr(sweeps.collect())),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dse.json");
    fs::write(path, doc.to_pretty()).expect("write BENCH_dse.json");
}

fn bench_dse_sweep(c: &mut Criterion) {
    let iiwa = zoo(Zoo::Iiwa);

    let mut g = c.benchmark_group("dse_sweep");
    g.sample_size(10);
    g.bench_function("cold_iiwa", |b| {
        b.iter(|| {
            let pipeline = Pipeline::new();
            black_box(sweep_design_space_with(&pipeline, iiwa.topology()).len())
        })
    });
    let warm = Pipeline::new();
    sweep_design_space_with(&warm, iiwa.topology());
    g.bench_function("incremental_iiwa", |b| {
        b.iter(|| black_box(sweep_design_space_with(&warm, iiwa.topology()).len()))
    });
    g.bench_function("pruned_iiwa", |b| {
        b.iter(|| {
            let pipeline = Pipeline::new();
            black_box(sweep_design_space_pruned_with(&pipeline, iiwa.topology()).evaluated_points)
        })
    });
    g.finish();

    // Summary measurements: every zoo robot, then the generated sample.
    let mut rows: Vec<(String, SweepRates)> = Vec::new();
    for which in zoo_set() {
        let robot = zoo(which);
        rows.push((
            which.name().to_string(),
            measure(which.name(), robot.topology()),
        ));
    }
    let members = population(SEED, generated_sample(), &Family::ALL).expect("non-empty mix");
    for m in &members {
        rows.push((m.name.clone(), measure(&m.name, m.model.topology())));
    }

    // The headline claim, asserted: incremental re-sweeps beat cold
    // sweeps ≥10× on every zoo robot (the generated sample is reported
    // but not gated — morphology sizes vary across families).
    let zoo_rows = zoo_set().len();
    let floor = if smoke() { 1.0 } else { 10.0 };
    for (name, r) in &rows[..zoo_rows] {
        let speedup = r.incr_pps / r.cold_pps;
        assert!(
            speedup > floor,
            "{name}: incremental speedup {speedup:.1}x below the {floor}x floor \
             (cold {:.0} pts/s, incremental {:.0} pts/s)",
            r.cold_pps,
            r.incr_pps
        );
    }

    write_summary(&rows);
    write_record(&rows);
}

criterion_group!(benches, bench_dse_sweep);
criterion_main!(benches);
