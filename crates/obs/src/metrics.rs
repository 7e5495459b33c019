//! A unified metrics registry: counters, gauges and histograms, hand-rolled
//! in the same no-deps discipline as [`crate::json`].
//!
//! One registry collects everything a run wants to report — queue traffic,
//! layer-store hits, tuner evaluations, runner plans — and serializes it as
//! one deterministic `metrics.json` document (names sorted, one schema,
//! validated by [`crate::report::validate_metrics_json`]): a single code
//! path and a single wire format instead of per-subsystem ad-hoc objects.
//!
//! Concurrency: all mutation goes through a `Mutex` over `BTreeMap`s.
//! Metrics publication sits far off every hot path (a handful of calls per
//! run, after the simulation), so the lock costs nothing measurable and
//! buys deterministic, sorted serialization for free.
//!
//! Two usage modes:
//!
//! * **Explicit registry** — tests and library code build a local
//!   [`MetricsRegistry`] and pass it to the `publish_metrics` hooks, keeping
//!   assertions hermetic.
//! * **Process-wide registry** — CLI paths use [`registry`], a lazy global,
//!   so independent subsystems (store, tuner, runner, queue) land in one
//!   document without threading a handle everywhere.

use crate::{escape_json, json_f64};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Aggregate summary of one histogram's observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (`NaN` when empty — serialized as `null`).
    pub min: f64,
    /// Largest observed value (`NaN` when empty — serialized as `null`).
    pub max: f64,
}

impl HistogramSummary {
    fn empty() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::NAN,
            max: f64::NAN,
        }
    }

    fn observe(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        if self.count == 1 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
    }

    /// Mean of the observations (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramSummary>,
}

/// The metrics registry (see module docs).
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named monotonic counter (created at 0).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().unwrap();
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Read a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Set the named gauge to its latest value.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.inner
            .lock()
            .unwrap()
            .gauges
            .insert(name.to_string(), value);
    }

    /// Read a gauge (`None` if never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.lock().unwrap().gauges.get(name).copied()
    }

    /// Record one observation into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(HistogramSummary::empty)
            .observe(value);
    }

    /// Read a histogram summary (`None` if never observed).
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.inner.lock().unwrap().histograms.get(name).copied()
    }

    /// Serialize the registry as one `metrics.json` document (the shape
    /// pinned by `schemas/metrics.schema.json`). Deterministic: entries come
    /// out name-sorted, and the same registry state always yields the same
    /// bytes.
    pub fn to_json(&self, tool: &str) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::with_capacity(256);
        out.push_str("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"tool\": \"{}\",\n", escape_json(tool)));
        out.push_str("  \"counters\": [");
        for (i, (name, value)) in inner.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"value\": {value}}}",
                escape_json(name)
            ));
        }
        out.push_str(if inner.counters.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"gauges\": [");
        for (i, (name, value)) in inner.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"value\": {}}}",
                escape_json(name),
                json_f64(*value)
            ));
        }
        out.push_str(if inner.gauges.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"histograms\": [");
        for (i, (name, h)) in inner.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}}}",
                escape_json(name),
                h.count,
                json_f64(h.sum),
                json_f64(h.min),
                json_f64(h.max)
            ));
        }
        out.push_str(if inner.histograms.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }

    /// Human-readable one-line-per-metric dump (the `--metrics` flag).
    pub fn summary_lines(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap();
        let mut lines = Vec::new();
        for (name, value) in &inner.counters {
            lines.push(format!("counter   {name} = {value}"));
        }
        for (name, value) in &inner.gauges {
            lines.push(format!("gauge     {name} = {value}"));
        }
        for (name, h) in &inner.histograms {
            lines.push(format!(
                "histogram {name}: n={} sum={:.3} min={:.3} max={:.3}",
                h.count, h.sum, h.min, h.max
            ));
        }
        lines
    }
}

/// The process-wide registry CLI paths publish into (lazily created; never
/// reset — counters are process-lifetime totals, like [`std::process::id`]).
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::validate_metrics_json;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.counter_add("store.mem_hits", 3);
        reg.counter_add("store.mem_hits", 2);
        reg.gauge_set("store.disk_bytes", 4096.0);
        reg.gauge_set("store.disk_bytes", 8192.0);
        reg.observe("queue.wait_ms", 1.5);
        reg.observe("queue.wait_ms", 0.5);
        assert_eq!(reg.counter("store.mem_hits"), 5);
        assert_eq!(reg.counter("untouched"), 0);
        assert_eq!(reg.gauge("store.disk_bytes"), Some(8192.0));
        let h = reg.histogram("queue.wait_ms").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 2.0);
        assert_eq!((h.min, h.max), (0.5, 1.5));
        assert_eq!(h.mean(), 1.0);
    }

    #[test]
    fn serialization_is_deterministic_and_sorted() {
        let a = MetricsRegistry::new();
        a.counter_add("z.last", 1);
        a.counter_add("a.first", 2);
        let b = MetricsRegistry::new();
        b.counter_add("a.first", 2);
        b.counter_add("z.last", 1);
        let (ja, jb) = (a.to_json("unit"), b.to_json("unit"));
        assert_eq!(ja, jb, "insertion order must not leak into the bytes");
        let a_pos = ja.find("a.first").unwrap();
        let z_pos = ja.find("z.last").unwrap();
        assert!(a_pos < z_pos, "entries come out name-sorted");
    }

    #[test]
    fn empty_and_populated_documents_are_schema_valid() {
        let reg = MetricsRegistry::new();
        validate_metrics_json(&reg.to_json("unit")).expect("empty registry");
        reg.counter_add("c", 1);
        reg.gauge_set("g", -1.25);
        reg.observe("h", 10.0);
        validate_metrics_json(&reg.to_json("unit")).expect("populated registry");
    }

    #[test]
    fn empty_histogram_bounds_serialize_as_null() {
        // min/max of zero observations are undefined; the document must say
        // null, not a fake 0 (the json_f64 contract).
        let reg = MetricsRegistry::new();
        reg.gauge_set("undefined", f64::NAN);
        let doc = reg.to_json("unit");
        assert!(doc.contains("\"value\": null"), "{doc}");
        validate_metrics_json(&doc).expect("null gauge is schema-permitted");
    }
}
