//! Benchmark-history records and regression gating.
//!
//! The repository's Criterion benches record point-in-time numbers in
//! `BENCH_*.json`; nothing in those files stops a silent regression.
//! This crate is the correctness-tooling layer that does:
//!
//! * [`record`] — the [`BenchRecord`] schema every bench emits into
//!   `bench/current/` (and whose accepted copies live in the committed
//!   `bench/baselines/` history directory): commit SHA, machine
//!   fingerprint, and direction-classified metrics with a measured
//!   noise band. Metric keys are wall-clock-free: they name rates and
//!   quantiles, never timestamps, so records from different days are
//!   directly comparable.
//! * [`compare`] — the noise-aware diff between a baseline record and a
//!   current record. Direction-aware (throughput down or p99 up is a
//!   regression; the reverse is an improvement), with per-metric
//!   tolerance bands derived from repeated-run variance and widened in
//!   smoke mode. `roboshape bench compare` exits nonzero when any
//!   gated metric regresses past its band.
//! * [`bundle`] — the validation-bundle manifest for third-party blind
//!   reproduction (pinned seeds, expected report snapshots, latency and
//!   failure-histogram context, commit SHA), modeled on the
//!   rpg-encoder Validation Playbook.
//!
//! All three read and write their JSON through the workspace's one JSON
//! module, `roboshape_obs::json` (the workspace vendors no serde_json;
//! see DESIGN.md §5 for the dependency policy).
//!
//! Everything here is deterministic and free of external dependencies,
//! so the gate itself can never be the flaky part of CI.

#![deny(missing_docs)]

pub mod bundle;
pub mod compare;
pub mod record;

pub use bundle::{Manifest, SnapshotEntry, SnapshotStatus, VerifyOutcome};
pub use compare::{CompareConfig, CompareReport, MetricDelta, MetricOutcome};
pub use record::{BenchRecord, MachineInfo, Metric, MetricKind, RecordError};

/// FNV-1a 64-bit hash of a byte string — the bundle's snapshot
/// fingerprint. Committed bundles record these values, so the
/// function must stay FNV-1a-64 (the serve wire protocol's frame
/// checksum is a different function, CRC-32C).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
