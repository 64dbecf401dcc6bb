//! Named counters, gauges and fixed-bucket histograms.

use crate::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonic `u64` counter. All accumulators are 64-bit regardless of
/// target pointer width, so cycle and nanosecond tallies cannot wrap on
/// 32-bit builds.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `delta`. One relaxed atomic add — safe in any hot path.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins `f64` gauge (stored as bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta` (atomic read-modify-write). Gauges
    /// tracking live totals — open connections, in-flight requests —
    /// use this from many threads, where last-value [`Gauge::set`]
    /// would lose concurrent updates.
    #[inline]
    pub fn add(&self, delta: f64) {
        self.bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            })
            .ok();
    }

    /// Current value (0.0 if never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram of `u64` samples.
///
/// Bucket `i` counts samples `≤ bounds[i]` (and greater than the previous
/// bound); one extra overflow bucket counts samples above the last bound.
/// Bounds are fixed at registration, so recording is a binary search plus
/// three relaxed atomic adds — no locking, no allocation.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "sorted bounds");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating: a metrics sum must never wrap into a plausible lie.
        self.sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value))
            })
            .ok();
    }

    /// The inclusive upper bounds this histogram was registered with.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Snapshot of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time state of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds (one per finite bucket).
    pub bounds: Vec<u64>,
    /// Per-bucket sample counts; the final entry is the overflow bucket
    /// (samples above the last bound).
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 < q <= 1.0`): the
    /// inclusive upper bound of the first bucket whose cumulative count
    /// reaches `ceil(q * count)`, or `None` with no samples or when the
    /// quantile falls in the overflow bucket (above the last bound).
    ///
    /// This is the usual fixed-bucket estimator (the true quantile lies
    /// at or below the returned bound): p50/p99 digests for serving
    /// latency come from here.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) || q == 0.0 {
            return None;
        }
        let rank = (q * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (bucket, count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return self.bounds.get(bucket).copied();
            }
        }
        None
    }
}

/// A registry of named metrics. [`metrics`] returns the process-wide
/// instance every instrumented crate shares; fresh registries can be
/// constructed for tests.
///
/// Name lookup takes a short-lived lock; call sites on hot paths should
/// resolve once and cache the returned `Arc` handle (updates on the
/// handle are lock-free).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// The process-wide metrics registry.
pub fn metrics() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::default)
}

impl MetricsRegistry {
    /// An empty registry (tests; production code uses [`metrics`]).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::resolve(&self.counters, name, Counter::default)
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::resolve(&self.gauges, name, Gauge::default)
    }

    /// The histogram named `name`, registering it with `bounds` on first
    /// use. First registration wins: later callers get the existing
    /// histogram whatever bounds they pass, so one subsystem owns each
    /// metric's bucket layout.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        Self::resolve(&self.histograms, name, || Histogram::new(bounds))
    }

    fn resolve<T>(
        map: &RwLock<BTreeMap<String, Arc<T>>>,
        name: &str,
        make: impl FnOnce() -> T,
    ) -> Arc<T> {
        if let Some(found) = map.read().unwrap_or_else(|e| e.into_inner()).get(name) {
            return Arc::clone(found);
        }
        let mut map = map.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(make())),
        )
    }

    /// Snapshots every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`], ready to render.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, total)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, state)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// `true` when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot as a flat JSON document (the CLI's
    /// `--metrics <file>` output).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push(':');
            json::write_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push_str(":{\"count\":");
            out.push_str(&h.count.to_string());
            out.push_str(",\"sum\":");
            out.push_str(&h.sum.to_string());
            out.push_str(",\"mean\":");
            json::write_f64(&mut out, h.mean());
            out.push_str(",\"buckets\":[");
            for (k, count) in h.buckets.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str("{\"le\":");
                match h.bounds.get(k) {
                    Some(bound) => out.push_str(&bound.to_string()),
                    None => out.push_str("\"inf\""),
                }
                out.push_str(",\"count\":");
                out.push_str(&count.to_string());
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

impl std::fmt::Display for MetricsSnapshot {
    /// The one-screen summary `experiments all` prints: counters and
    /// gauges one per line, histograms as `count/mean/max-bucket` digests.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "(no metrics recorded)");
        }
        for (name, v) in &self.counters {
            writeln!(f, "{name:<36} {v:>14}")?;
        }
        for (name, v) in &self.gauges {
            writeln!(f, "{name:<36} {v:>14.1}")?;
        }
        for (name, h) in &self.histograms {
            write!(f, "{name:<36} n={:<8} mean={:<10.1} [", h.count, h.mean())?;
            for (k, count) in h.buckets.iter().enumerate() {
                if *count == 0 {
                    continue;
                }
                match h.bounds.get(k) {
                    Some(bound) => write!(f, " ≤{bound}:{count}")?,
                    None => write!(f, " >{}:{count}", h.bounds.last().copied().unwrap_or(0))?,
                }
            }
            writeln!(f, " ]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.count");
        c.add(3);
        reg.counter("a.count").add(4); // same counter by name
        reg.gauge("a.rate").set(2.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("a.count".to_string(), 7)]);
        assert_eq!(snap.gauges, vec![("a.rate".to_string(), 2.5)]);
    }

    #[test]
    fn gauge_add_is_lossless_under_contention() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let g = reg.gauge("live.conns");
                    for _ in 0..1000 {
                        g.add(1.0);
                    }
                    for _ in 0..1000 {
                        g.add(-1.0);
                    }
                });
            }
        });
        assert_eq!(reg.gauge("live.conns").get(), 0.0);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h", &[10, 100, 1000]);
        // Boundary-exact samples land in the bucket they bound.
        for v in [0, 10, 11, 100, 101, 1000, 1001, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 2, 2, 2]); // ≤10, ≤100, ≤1000, overflow
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, u64::MAX); // saturated, not wrapped
        assert_eq!(s.bounds, vec![10, 100, 1000]);
    }

    #[test]
    fn quantile_estimates_from_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[10, 100, 1000]);
        for v in 1..=100u64 {
            h.record(v); // 10 samples ≤10, 90 in (10,100]
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.05), Some(10));
        assert_eq!(s.quantile(0.10), Some(10));
        assert_eq!(s.quantile(0.11), Some(100));
        assert_eq!(s.quantile(0.50), Some(100));
        assert_eq!(s.quantile(0.99), Some(100));
        assert_eq!(s.quantile(1.0), Some(100));
        assert_eq!(s.quantile(0.0), None);
        h.record(5000); // lands in the overflow bucket
        assert_eq!(h.snapshot().quantile(1.0), None);
        let empty = reg.histogram("never", &[1]).snapshot();
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn histogram_first_registration_wins() {
        let reg = MetricsRegistry::new();
        let a = reg.histogram("h", &[1, 2, 3]);
        let b = reg.histogram("h", &[99]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(b.bounds(), &[1, 2, 3]);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let c = reg.counter("spin");
                    let h = reg.histogram("lat", &[5, 50]);
                    for i in 0..1000u64 {
                        c.add(1);
                        h.record(i % 100);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].1, 8000);
        let h = &snap.histograms[0].1;
        assert_eq!(h.count, 8000);
        assert_eq!(h.buckets.iter().sum::<u64>(), 8000);
    }

    #[test]
    fn snapshot_json_is_wellformed() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(1);
        reg.gauge("g").set(f64::NAN); // must not break JSON
        reg.histogram("h", &[2]).record(9);
        let text = reg.snapshot().to_json();
        let doc = json::parse(&text).unwrap();
        let section = |name: &str, key: &str| doc.get(name).and_then(|s| s.get(key)).cloned();
        assert_eq!(section("counters", "c"), Some(Json::Num(1.0)));
        assert_eq!(section("gauges", "g"), Some(Json::Null));
        let h = section("histograms", "h").unwrap();
        assert_eq!(h.get("count"), Some(&Json::Num(1.0)));
        let overflow = &h.get("buckets").and_then(Json::as_arr).unwrap()[1];
        assert_eq!(overflow.get("le"), Some(&Json::from("inf")));
        assert_eq!(overflow.get("count"), Some(&Json::Num(1.0)));
    }

    #[test]
    fn summary_renders_one_line_per_metric() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.snapshot().to_string(), "(no metrics recorded)");
        reg.counter("sim.evals").add(6);
        reg.histogram("sim.cycles", &[100]).record(50);
        let text = reg.snapshot().to_string();
        assert!(text.contains("sim.evals"));
        assert!(text.contains("n=6") || text.contains("6"));
        assert!(text.contains("≤100:1"));
    }
}
