//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_zoo_closed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload, checks its outputs, and prints as the last line a
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run also records spans around every call into a layer, writes them to
//! `perfbench/out/` as a Chrome trace, and prints the per-layer metrics.
//! See `perfbench/README.md` for the workloads and the metric map.

mod design;
mod gen;
mod probe;
mod report;
mod serving;
mod stats;
mod trace;

use report::{Metrics, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Duration;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "serve_zoo_closed",
    "serve_hyq_open",
    "serve_zoo_routed",
    "design_sweep",
];

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

/// What one workload run reports.
pub struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// SplitMix64: the benchmark's seed mixer.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("--trace: {e}"))?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: Duration::from_secs(seconds),
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace is 0 or 1, not {t}")),
        },
    })
}

/// Spans written to the Chrome trace file: the earliest ones, enough to
/// show every layer's calls while keeping the file a few tens of MB.
const TRACE_FILE_SPANS: usize = 100_000;

/// Folds the recorded spans into per-layer self times and writes the
/// earliest of them out as a Chrome trace.
pub fn record_spans(m: &mut Metrics) {
    let spans = trace::drain();
    let self_ns = trace::self_time_ns(&spans);
    for (layer, name) in [
        ("serve.proto", "serve.proto.self_ms"),
        ("serve.server", "serve.server.self_ms"),
        ("serve.engine", "serve.engine.self_ms"),
        ("urdf", "urdf.self_ms"),
        ("pipeline", "pipeline.self_ms"),
        ("codegen", "codegen.self_ms"),
        ("dse", "dse.self_ms"),
    ] {
        m.set(name, self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6);
    }
    m.set("trace.spans", spans.len() as f64);
    let dir = std::path::Path::new("perfbench/out");
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let path = dir.join("trace.json");
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        trace::write_chrome(&mut file, &spans[..spans.len().min(TRACE_FILE_SPANS)])?;
        Ok(path)
    });
    match written {
        Ok(path) => println!(
            "trace: {} spans recorded, the first {} written to {}",
            spans.len(),
            spans.len().min(TRACE_FILE_SPANS),
            path.display()
        ),
        Err(e) => eprintln!("trace: not written: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut result = match args.workload.as_str() {
        "serve_zoo_closed" => serving::zoo_closed(&args),
        "serve_hyq_open" => serving::hyq_open(&args),
        "serve_zoo_routed" => serving::zoo_routed(&args),
        "design_sweep" => design::design_sweep(&args),
        _ => unreachable!("workload validated"),
    };
    result.metrics.set("peak_rss_mb", report::peak_rss_mb());
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        for &(name, unit) in END_TO_END {
            let v = result.metrics.get(name).unwrap_or(0.0);
            println!("{:<16} {v:>14.3} {unit}", name);
        }
    }
    println!(
        "{}",
        result
            .metrics
            .result_line(table, result.correct, result.attempted, result.failed)
    );
    ExitCode::SUCCESS
}
