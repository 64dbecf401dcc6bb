//! The committed JSON files are inputs to `bench compare`, `bundle
//! verify` and the repository benchmark: each must parse, and the ones
//! the pretty printer wrote must re-print byte-identically, so a load →
//! save cycle never rewrites them.

use roboshape_obs::json::{self, Json};
use std::path::Path;

fn parse_repo_file(rel: &str) -> (String, Json) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
    (text, doc)
}

#[test]
fn root_summaries_and_benchmark_declaration_parse() {
    for (file, bench) in [
        ("BENCH_sim.json", "sim_throughput"),
        ("BENCH_serve.json", "serve_throughput"),
        ("BENCH_zoo.json", "zoo_population"),
        ("BENCH_dse.json", "dse_sweep"),
    ] {
        let bench_field = parse_repo_file(file).1.get("bench").cloned();
        assert_eq!(bench_field, Some(Json::from(bench)), "{file}");
    }
    let (_, declaration) = parse_repo_file("BENCHMARK.json");
    assert!(declaration
        .get("workloads")
        .and_then(Json::as_arr)
        .is_some());
}

#[test]
fn baselines_and_bundle_manifest_reprint_byte_identically() {
    for file in [
        "bench/baselines/dse_sweep.json",
        "bench/baselines/serve_throughput.json",
        "bench/baselines/sim_throughput.json",
        "bench/baselines/zoo_population.json",
        "bench/baselines/example-bundle/manifest.json",
    ] {
        let (text, doc) = parse_repo_file(file);
        assert_eq!(doc.to_pretty(), text, "{file} re-prints differently");
    }
}
