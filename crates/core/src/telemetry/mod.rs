//! The kernel's observability layer: a dependency-free metrics registry
//! with counters, gauges and log2-bucketed duration histograms, plus
//! span-style scoped timers and structured JSON export.
//!
//! Every phase of the mining pipeline reports through one
//! [`Telemetry`] handle: the translator counts statements per directive
//! class, the preprocessor counts rows per `Qi` step, the core operator
//! counts candidates generated/pruned per level and its scan work, and
//! the postprocessor counts stored/decoded rules. Metric names follow
//! the `phase.subphase` convention documented in
//! `docs/OBSERVABILITY.md`.
//!
//! Telemetry never influences mining results: with the handle disabled
//! every operation is a no-op, and the rule inventory is bit-identical
//! either way (enforced by `tests/telemetry.rs`).
//!
//! # Example
//!
//! ```
//! use minerule::telemetry::Telemetry;
//! use std::time::Duration;
//!
//! let tel = Telemetry::new();
//! tel.counter_add("core.rules.emitted", 3);
//! tel.record_duration("phase.core", Duration::from_micros(250));
//! {
//!     let _span = tel.span("phase.translate"); // records on drop
//! }
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("core.rules.emitted"), 3);
//! assert_eq!(snap.histogram("phase.core").unwrap().count(), 1);
//! assert!(snap.to_json().contains("\"core.rules.emitted\":3"));
//! ```

pub mod histogram;
pub mod json;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use histogram::{bucket_bounds, bucket_index, Histogram, BUCKETS};
pub use json::Json;

/// Export-schema version stamped into every JSON snapshot. Bump when
/// the structure (not the metric set) changes incompatibly.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A shared handle to a metrics registry. Cloning is cheap and clones
/// report into the *same* registry (the engine and its executors share
/// one). A disabled handle drops every record on the floor, so
/// instrumented code paths need no `if` guards.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Registry>>>,
}

impl Telemetry {
    /// An enabled handle with an empty registry.
    pub fn new() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Registry::default()))),
        }
    }

    /// A handle that records nothing. This is the `Default`.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_registry(&self, f: impl FnOnce(&mut Registry)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.lock().expect("telemetry registry lock"));
        }
    }

    /// Add to a monotonic counter (created at 0 on first use).
    pub fn counter_add(&self, name: &str, n: u64) {
        if n == 0 && self.inner.is_none() {
            return;
        }
        self.with_registry(|r| {
            *r.counters.entry(name.to_string()).or_insert(0) += n;
        });
    }

    /// Increment a counter by one.
    pub fn counter_inc(&self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Set a gauge to an instantaneous value.
    pub fn gauge_set(&self, name: &str, value: i64) {
        self.with_registry(|r| {
            r.gauges.insert(name.to_string(), value);
        });
    }

    /// Record one duration sample into a histogram.
    pub fn record_duration(&self, name: &str, d: Duration) {
        self.with_registry(|r| {
            r.histograms.entry(name.to_string()).or_default().record(d);
        });
    }

    /// Fold a pre-aggregated histogram into a named histogram (for
    /// timings collected off-registry).
    pub fn merge_histogram(&self, name: &str, h: &Histogram) {
        if h.count() == 0 {
            return;
        }
        self.with_registry(|r| {
            r.histograms.entry(name.to_string()).or_default().merge(h);
        });
    }

    /// Start a scoped timer. The elapsed time is recorded into the named
    /// histogram when the span is dropped (or [`Span::stop`] is called,
    /// which also returns the duration). Timing happens even on a
    /// disabled handle so callers can use the returned duration.
    pub fn span(&self, name: &str) -> Span {
        Span {
            telemetry: self.clone(),
            name: name.to_string(),
            start: Instant::now(),
            recorded: false,
        }
    }

    /// Clear every metric, keeping the handle (and its clones) attached.
    pub fn reset(&self) {
        self.with_registry(|r| {
            *r = Registry::default();
        });
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(inner) => {
                let r = inner.lock().expect("telemetry registry lock");
                MetricsSnapshot {
                    counters: r.counters.clone(),
                    gauges: r.gauges.clone(),
                    histograms: r.histograms.clone(),
                }
            }
        }
    }
}

/// A scoped timer handed out by [`Telemetry::span`].
#[derive(Debug)]
pub struct Span {
    telemetry: Telemetry,
    name: String,
    start: Instant,
    recorded: bool,
}

impl Span {
    /// Stop the span, record its duration, and return the elapsed time.
    pub fn stop(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.telemetry.record_duration(&self.name, elapsed);
        self.recorded = true;
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.recorded {
            let elapsed = self.start.elapsed();
            self.telemetry.record_duration(&self.name, elapsed);
        }
    }
}

/// An immutable copy of the registry at one instant.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Duration histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// A counter's value (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value, if set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// A histogram, if anything was recorded under the name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The snapshot as a structured [`Json`] value (see
    /// `docs/OBSERVABILITY.md` for the schema).
    pub fn to_json_value(&self) -> Json {
        let mut root = Json::object();
        root.push("schema_version", Json::UInt(SNAPSHOT_SCHEMA_VERSION as u64));
        let mut counters = Json::object();
        for (k, v) in &self.counters {
            counters.push(k.clone(), Json::UInt(*v));
        }
        root.push("counters", counters);
        let mut gauges = Json::object();
        for (k, v) in &self.gauges {
            gauges.push(k.clone(), Json::Int(*v));
        }
        root.push("gauges", gauges);
        let mut histograms = Json::object();
        for (k, h) in &self.histograms {
            let mut hist = Json::object();
            hist.push("count", Json::UInt(h.count()));
            hist.push("sum_us", Json::UInt(h.sum_us()));
            hist.push("min_us", Json::UInt(h.min_us()));
            hist.push("max_us", Json::UInt(h.max_us()));
            hist.push("mean_us", Json::Float(h.mean_us()));
            let buckets = h
                .nonzero_buckets()
                .into_iter()
                .map(|(lo, hi, c)| {
                    let mut b = Json::object();
                    b.push("lo_us", Json::UInt(lo));
                    b.push("hi_us", Json::UInt(hi));
                    b.push("count", Json::UInt(c));
                    b
                })
                .collect();
            hist.push("log2_buckets", Json::Array(buckets));
            histograms.push(k.clone(), hist);
        }
        root.push("histograms", histograms);
        root
    }

    /// Compact JSON export.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Indented JSON export (the shell's `\stats json`).
    pub fn to_pretty_json(&self) -> String {
        self.to_json_value().to_pretty_string()
    }

    /// Human-readable rendering for the shell's `\stats`.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        if self.is_empty() {
            return "no metrics recorded".to_string();
        }
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<40} {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<40} {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (µs):\n");
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {k:<40} n={} mean={:.1} min={} max={} sum={}",
                    h.count(),
                    h.mean_us(),
                    h.min_us(),
                    h.max_us(),
                    h.sum_us()
                );
            }
        }
        out.trim_end().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let tel = Telemetry::new();
        tel.counter_inc("a");
        tel.counter_add("a", 4);
        tel.counter_add("b", 0);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("b"), 0);
        assert!(snap.counters.contains_key("b"), "zero add still registers");
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.counter_inc("a");
        tel.gauge_set("g", 7);
        tel.record_duration("h", Duration::from_micros(5));
        let _ = tel.span("s");
        assert!(tel.snapshot().is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let tel = Telemetry::new();
        let clone = tel.clone();
        clone.counter_inc("shared");
        assert_eq!(tel.snapshot().counter("shared"), 1);
        tel.reset();
        assert!(clone.snapshot().is_empty());
    }

    #[test]
    fn span_records_on_drop_and_on_stop() {
        let tel = Telemetry::new();
        {
            let _span = tel.span("dropped");
        }
        let d = tel.span("stopped").stop();
        let snap = tel.snapshot();
        assert_eq!(snap.histogram("dropped").unwrap().count(), 1);
        assert_eq!(snap.histogram("stopped").unwrap().count(), 1);
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn span_on_disabled_handle_still_times() {
        let tel = Telemetry::disabled();
        let span = tel.span("x");
        std::thread::sleep(Duration::from_millis(1));
        assert!(span.stop() >= Duration::from_millis(1));
        assert!(tel.snapshot().is_empty());
    }

    #[test]
    fn merge_histogram_publishes_preaggregated_data() {
        let tel = Telemetry::new();
        let mut h = Histogram::new();
        h.record_us(10);
        h.record_us(20);
        tel.merge_histogram("pre", &h);
        tel.merge_histogram("pre", &Histogram::new()); // no-op
        let snap = tel.snapshot();
        assert_eq!(snap.histogram("pre").unwrap().count(), 2);
        assert_eq!(snap.histogram("pre").unwrap().sum_us(), 30);
    }

    #[test]
    fn snapshot_json_has_schema_and_sections() {
        let tel = Telemetry::new();
        tel.counter_inc("c.x");
        tel.gauge_set("g.y", -2);
        tel.record_duration("h.z", Duration::from_micros(100));
        let json = tel.snapshot().to_json();
        assert!(json.starts_with("{\"schema_version\":1,"), "{json}");
        assert!(json.contains("\"c.x\":1"));
        assert!(json.contains("\"g.y\":-2"));
        assert!(json.contains("\"h.z\""));
        assert!(json.contains("\"log2_buckets\""));
    }

    #[test]
    fn render_text_mentions_every_metric() {
        let tel = Telemetry::new();
        assert_eq!(tel.snapshot().render_text(), "no metrics recorded");
        tel.counter_inc("c");
        tel.gauge_set("g", 1);
        tel.record_duration("h", Duration::from_micros(1));
        let text = tel.snapshot().render_text();
        for needle in ["counters:", "gauges:", "histograms", "c", "g", "h"] {
            assert!(text.contains(needle), "{text}");
        }
    }
}
