//! A unified metrics registry: counters, gauges and power-of-two
//! histograms behind one deterministic snapshot.
//!
//! The runtime grew statistics organically — `DeliveryStats`, portal
//! counters, trust-cache hit/miss, TFC redo reuses, journal replay counts —
//! each with its own struct and its own accessor. The
//! [`MetricsRegistry`] absorbs them all under stable dotted names
//! (`delivery.sends`, `portal.stored`, `journal.records`, …), and a
//! [`MetricsSnapshot`] renders them as one `BTreeMap`-ordered, byte-
//! deterministic JSON document.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Aggregated observations of one histogram series: count / sum / min /
/// max plus power-of-two buckets (`buckets[i]` counts values `v` with
/// `2^(i-1) <= v < 2^i`, bucket 0 counting `v == 0`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Power-of-two bucket counts (65 buckets cover the full `u64` range).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q ∈ (0, 1]` from the power-of-two buckets:
    /// the upper bound of the bucket the nearest-rank observation falls
    /// into, clamped to the observed `max` (and `min`). Exact for
    /// single-valued buckets (0 and 1), at worst 2× for the rest — the
    /// resolution the buckets were chosen for. Returns 0 when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // nearest-rank: the smallest bucket whose cumulative count covers
        // ceil(q * count) observations
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // bucket 0 holds only value 0; bucket b ≥ 1 covers
                // [2^(b-1), 2^b - 1]
                let upper = if b == 0 { 0 } else { (1u64 << b.min(63)) - 1 };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (approximate, see [`HistogramSnapshot::percentile`]).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th percentile (approximate).
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th percentile (approximate).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

#[derive(Clone, Default)]
struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: BTreeMap<u32, u64>,
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let bucket = 64 - value.leading_zeros(); // 0 for value == 0
        *self.buckets.entry(bucket).or_insert(0) += 1;
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let top = self.buckets.keys().next_back().copied().unwrap_or(0);
        let mut buckets = vec![0u64; top as usize + 1];
        for (b, n) in &self.buckets {
            buckets[*b as usize] = *n;
        }
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets,
        }
    }
}

/// A thread-safe registry of named counters, gauges and histograms.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, i64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to counter `name` (created at 0).
    pub fn incr(&self, name: &str, delta: u64) {
        let mut counters = self.counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Overwrite counter `name` with an absolute total — the export path
    /// for pre-aggregated stats structs, which already hold run totals.
    pub fn set_counter(&self, name: &str, value: u64) {
        let mut counters = self.counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        counters.insert(name.to_string(), value);
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        let counters = self.counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name`.
    pub fn set_gauge(&self, name: &str, value: i64) {
        let mut gauges = self.gauges.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        gauges.insert(name.to_string(), value);
    }

    /// Record one observation into histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        let mut histograms =
            self.histograms.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        histograms.entry(name.to_string()).or_default().observe(value);
    }

    /// A point-in-time, deterministically ordered snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters =
            self.counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
        let gauges = self.gauges.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// A frozen view of a [`MetricsRegistry`]; `BTreeMap` ordering makes its
/// JSON rendering byte-deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram aggregates by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter total by name (0 when absent) — the lookup the invariant
    /// checks are written against, so "never exported" reads as zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name (0 when absent), mirroring [`Self::counter`].
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Render as a deterministic JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", crate::export::json_escape(k), v));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", crate::export::json_escape(k), v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // keys sorted alphabetically so the rendering stays stable as
            // summary fields accrete
            out.push_str(&format!("\"{}\":{{\"buckets\":[", crate::export::json_escape(k)));
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&b.to_string());
            }
            out.push_str(&format!(
                "],\"count\":{},\"max\":{},\"min\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"sum\":{}}}",
                h.count,
                h.max,
                h.min,
                h.p50(),
                h.p95(),
                h.p99(),
                h.sum
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let m = MetricsRegistry::new();
        m.incr("a.count", 2);
        m.incr("a.count", 3);
        m.set_counter("b.total", 7);
        m.set_gauge("c.level", -4);
        assert_eq!(m.counter("a.count"), 5);
        assert_eq!(m.counter("nope"), 0);
        let snap = m.snapshot();
        assert_eq!(snap.counter("a.count"), 5);
        assert_eq!(snap.counter("b.total"), 7);
        assert_eq!(snap.gauges["c.level"], -4);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let m = MetricsRegistry::new();
        for v in [0u64, 1, 1, 3, 8] {
            m.observe("h", v);
        }
        let snap = m.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 13);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 8);
        assert!((h.mean() - 2.6).abs() < 1e-9);
        // buckets: 0 → bucket 0; 1,1 → bucket 1; 3 → bucket 2; 8 → bucket 4
        assert_eq!(h.buckets, vec![1, 2, 1, 0, 1]);
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let m = MetricsRegistry::new();
        m.incr("z.last", 1);
        m.incr("a.first", 2);
        m.observe("lat", 5);
        let a = m.snapshot().to_json();
        let b = m.snapshot().to_json();
        assert_eq!(a, b);
        assert!(a.find("a.first").unwrap() < a.find("z.last").unwrap());
        assert!(a.starts_with("{\"counters\":{"));
    }

    #[test]
    fn empty_snapshot_renders() {
        let snap = MetricsRegistry::new().snapshot();
        assert_eq!(snap.to_json(), "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
        let empty = HistogramSnapshot { count: 0, sum: 0, min: 0, max: 0, buckets: vec![] };
        assert!(empty.mean().abs() < f64::EPSILON);
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.p99(), 0);
    }

    #[test]
    fn percentiles_from_power_of_two_buckets() {
        let m = MetricsRegistry::new();
        // 100 observations: 50× 1, 45× 100, 5× 1000
        for _ in 0..50 {
            m.observe("lat", 1);
        }
        for _ in 0..45 {
            m.observe("lat", 100);
        }
        for _ in 0..5 {
            m.observe("lat", 1000);
        }
        let h = &m.snapshot().histograms["lat"];
        assert_eq!(h.p50(), 1, "bucket 1 is exact");
        // 100 lives in bucket 7 ([64, 127]); nearest-rank 95 falls there
        assert_eq!(h.p95(), 127);
        // 1000 lives in bucket 10 ([512, 1023]); upper bound clamps to max
        assert_eq!(h.p99(), 1000);
        assert_eq!(h.percentile(1.0), 1000);
    }

    #[test]
    fn percentile_of_uniform_value_is_that_value() {
        let m = MetricsRegistry::new();
        for _ in 0..10 {
            m.observe("h", 7);
        }
        let h = &m.snapshot().histograms["h"];
        // single-bucket histogram: min == max == 7 clamps the bucket bound
        assert_eq!(h.p50(), 7);
        assert_eq!(h.p99(), 7);
    }

    #[test]
    fn histogram_json_has_sorted_summary_keys() {
        let m = MetricsRegistry::new();
        for v in [0u64, 1, 1, 3, 8] {
            m.observe("h", v);
        }
        let json = m.snapshot().to_json();
        assert!(
            json.contains(
                "\"h\":{\"buckets\":[1,2,1,0,1],\"count\":5,\"max\":8,\"min\":0,\
                 \"p50\":1,\"p95\":8,\"p99\":8,\"sum\":13}"
            ),
            "got: {json}"
        );
    }
}
