//! Metric names, units and the result line.
//!
//! Every end-to-end metric is printed by every workload; every per-layer
//! metric by every traced run. A per-layer metric of a layer the
//! workload does not exercise reads 0. The names and units here are the
//! ones `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.proto.encode_ns", "ns"),
    ("serve.proto.decode_ns", "ns"),
    ("serve.proto.resp_bytes", "bytes"),
    ("serve.proto.self_ms", "ms"),
    ("serve.server.overhead_p50_us", "us"),
    ("serve.server.overhead_share", "ratio"),
    ("serve.server.self_ms", "ms"),
    ("serve.engine.rtt_p50_us", "us"),
    ("serve.engine.rtt_p99_us", "us"),
    ("serve.engine.queue_wait_p50_us", "us"),
    ("serve.engine.mean_batch", "count"),
    ("serve.engine.largest_batch", "count"),
    ("serve.engine.batch_fill", "ratio"),
    ("serve.engine.shed_frac", "ratio"),
    ("serve.engine.deadline_frac", "ratio"),
    ("serve.engine.self_ms", "ms"),
    ("serve.open.slo_rate_rps", "1/s"),
    ("serve.open.ref_p50_us", "us"),
    ("serve.open.ref_p99_us", "us"),
    ("serve.router.hop_p50_us", "us"),
    ("serve.router.hop_p99_us", "us"),
    ("serve.router.rerouted", "count"),
    ("sim.exec_us", "us"),
    ("sim.lanes_b4_us", "us"),
    ("sim.lanes_b8_us", "us"),
    ("sim.kernel_us", "us"),
    ("sim.kernel_share", "ratio"),
    ("sim.compile_us", "us"),
    ("urdf.parse_us", "us"),
    ("urdf.self_ms", "ms"),
    ("pipeline.compile_us", "us"),
    ("pipeline.hit_ratio", "ratio"),
    ("pipeline.store_entries", "count"),
    ("pipeline.self_ms", "ms"),
    ("codegen.verilog_us", "us"),
    ("codegen.self_ms", "ms"),
    ("taskgraph.schedule_us", "us"),
    ("blocksparse.matmul_latency_ns", "ns"),
    ("dse.sweep_points_per_s", "1/s"),
    ("dse.resweep_points_per_s", "1/s"),
    ("dse.fragment_ms", "ms"),
    ("dse.evaluated_frac", "ratio"),
    ("dse.skipped_rows", "count"),
    ("dse.join_ms", "ms"),
    ("dse.frag_hit_ratio", "ratio"),
    ("dse.self_ms", "ms"),
    ("gen.latency_p99_us", "us"),
    ("gen.lag_p99_us", "us"),
    ("gen.samples", "count"),
    ("gen.failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// The values one run measured.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `name`, which must be declared in `END_TO_END` or
    /// `PER_LAYER`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: every metric of `table`, those not measured as 0.
    pub fn result_line(
        &self,
        table: &[(&'static str, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut body = String::new();
        for (i, &(name, unit)) in table.iter().enumerate() {
            let v = self.get(name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
            attempted.max(1)
        )
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a well-formed metric name.
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("serve.engine rtt"));
        assert!(!valid_name(".hidden"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let declared = json.matches("\"name\":").count();
        // Workload names are declared the same way.
        let workloads = crate::WORKLOADS.len();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in crate::WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "workload {name}"
            );
        }
    }

    #[test]
    fn result_line_carries_every_metric_of_the_table() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25);
        let line = m.result_line(END_TO_END, true, 10, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for &(name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
        }
    }
}
