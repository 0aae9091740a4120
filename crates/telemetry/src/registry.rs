//! A registry of named metrics with Prometheus-style export.
//!
//! [`MetricRegistry`] holds counters, gauges, and log-bucketed
//! histograms under stable snake_case names following the scheme
//! `sorn_<subsystem>_<metric>[_<unit>][_total]` (e.g.
//! `sorn_engine_cells_delivered_total`). Two renderings are offered:
//! the Prometheus text exposition format ([`MetricRegistry::render_prometheus`])
//! and a JSON snapshot ([`MetricRegistry::snapshot_json`]).
//!
//! The JSON is emitted by hand rather than through serde: the shape is
//! tiny and fixed, and hand-writing it keeps this crate's export path
//! free of any serializer behavior differences across environments.
//!
//! [`MetricRegistry::record_engine`] pulls in a whole run's metrics at
//! once (including the fault machinery's counters). The control plane
//! exports its decision log via
//! `sorn_control::DecisionLog::export_metrics`.

use sorn_sim::{LatencyHistogram, Metrics, Nanos};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A log-bucketed histogram plus the exact sum of its samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramMetric {
    /// The bucketed distribution.
    pub hist: LatencyHistogram,
    /// Exact sum of all recorded values.
    pub sum: u128,
}

/// Named counters, gauges, and histograms.
///
/// Counters are monotone `u64`s, gauges are instantaneous `f64`s,
/// histograms bucket `u64` samples (typically nanoseconds). Names are
/// kept in sorted order so both renderings are deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramMetric>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    /// Adds `by` to the named counter, creating it at zero.
    pub fn inc_counter(&mut self, name: &str, by: u64) {
        *self
            .counters
            .entry(sanitize_name(name).into_owned())
            .or_insert(0) += by;
    }

    /// Sets the named counter outright (for importing totals).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters
            .insert(sanitize_name(name).into_owned(), value);
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(sanitize_name(name).into_owned(), value);
    }

    /// Records one sample into the named histogram, creating it empty.
    pub fn observe(&mut self, name: &str, value: u64) {
        let h = self
            .histograms
            .entry(sanitize_name(name).into_owned())
            .or_default();
        h.hist.record(value);
        h.sum += value as u128;
    }

    /// Imports a whole histogram under `name` (replacing any previous
    /// one), with `sum` the exact sum of its samples.
    pub fn set_histogram(&mut self, name: &str, hist: LatencyHistogram, sum: u128) {
        self.histograms.insert(
            sanitize_name(name).into_owned(),
            HistogramMetric { hist, sum },
        );
    }

    /// The named counter's value, when present. Looks up under the same
    /// sanitization the insert applied, so callers can use the name
    /// they registered with.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(sanitize_name(name).as_ref()).copied()
    }

    /// The named gauge's value, when present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(sanitize_name(name).as_ref()).copied()
    }

    /// The named histogram, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramMetric> {
        self.histograms.get(sanitize_name(name).as_ref())
    }

    /// Number of registered metrics across all three kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Imports the engine's run metrics (including the fault
    /// machinery's counters) under `sorn_engine_*`.
    pub fn record_engine(&mut self, m: &Metrics) {
        self.set_counter("sorn_engine_slots_total", m.slots);
        self.set_counter("sorn_engine_cells_injected_total", m.injected_cells);
        self.set_counter("sorn_engine_cells_delivered_total", m.delivered_cells);
        self.set_counter("sorn_engine_cells_dropped_total", m.dropped_cells);
        self.set_counter("sorn_engine_cells_stranded", m.stranded_cells);
        self.set_counter("sorn_engine_transmissions_total", m.transmissions);
        self.set_counter("sorn_engine_idle_circuit_slots_total", m.idle_circuit_slots);
        self.set_counter("sorn_engine_flows_completed_total", m.flows.len() as u64);
        self.set_counter("sorn_engine_failure_slots_total", m.failure_slots);
        self.set_counter("sorn_engine_failure_episodes_total", m.failure_episodes);
        self.set_counter(
            "sorn_engine_cells_delivered_during_failure_total",
            m.delivered_during_failure,
        );
        self.set_gauge("sorn_engine_circuit_utilization", m.circuit_utilization());
        self.set_gauge("sorn_engine_delivery_fraction", m.delivery_fraction());
        self.set_gauge("sorn_engine_mean_hops", m.mean_hops());
        self.set_gauge("sorn_engine_link_load_cv", m.link_load_cv());
        self.set_gauge("sorn_engine_peak_queue_depth", m.peak_queue_depth as f64);
        self.set_gauge(
            "sorn_engine_degraded_goodput_ratio",
            m.degraded_goodput_ratio(),
        );
        self.set_histogram(
            "sorn_engine_cell_latency_ns",
            m.cell_latency.clone(),
            m.cell_latency_sum_ns,
        );
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", fmt_f64(*value));
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (le, count) in h.hist.nonzero_buckets() {
                cumulative += count;
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.hist.count());
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.hist.count());
        }
        out
    }

    /// Renders the registry as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name:
    /// {"count", "sum", "p50", "p99", "p999"}}}` (percentile fields are
    /// `null` for empty histograms).
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        out.push_str(&join_entries(
            self.counters
                .iter()
                .map(|(k, v)| format!("{}: {v}", json_string(k))),
        ));
        out.push_str("},\n  \"gauges\": {");
        out.push_str(&join_entries(
            self.gauges
                .iter()
                .map(|(k, v)| format!("{}: {}", json_string(k), fmt_f64(*v))),
        ));
        out.push_str("},\n  \"histograms\": {");
        out.push_str(&join_entries(self.histograms.iter().map(|(k, h)| {
            format!(
                "{}: {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {}}}",
                json_string(k),
                h.hist.count(),
                h.sum,
                fmt_opt(h.hist.p50()),
                fmt_opt(h.hist.p99()),
                fmt_opt(h.hist.p999()),
            )
        })));
        out.push_str("}\n}\n");
        out
    }
}

/// Prometheus metric-name charset: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Forces an arbitrary string into the legal metric-name charset so a
/// hostile or buggy name can never corrupt the text exposition (a name
/// containing a newline or space would otherwise inject whole lines
/// into `render_prometheus`). Legal names borrow straight through;
/// every illegal character becomes `_`, a leading digit is prefixed
/// with `_`, and the empty string becomes `_`.
fn sanitize_name(name: &str) -> std::borrow::Cow<'_, str> {
    if valid_name(name) {
        return std::borrow::Cow::Borrowed(name);
    }
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let legal = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if legal { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    std::borrow::Cow::Owned(out)
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no NaN/Inf; Prometheus tolerates this too as a
        // conservative stand-in.
        "null".to_string()
    }
}

fn fmt_opt(v: Option<Nanos>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn join_entries(entries: impl Iterator<Item = String>) -> String {
    entries.collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_through_accessors() {
        let mut r = MetricRegistry::new();
        assert!(r.is_empty());
        r.inc_counter("sorn_test_events_total", 2);
        r.inc_counter("sorn_test_events_total", 3);
        r.set_gauge("sorn_test_ratio", 0.5);
        assert_eq!(r.counter("sorn_test_events_total"), Some(5));
        assert_eq!(r.gauge("sorn_test_ratio"), Some(0.5));
        assert_eq!(r.counter("missing"), None);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn observe_builds_a_histogram() {
        let mut r = MetricRegistry::new();
        r.observe("sorn_test_latency_ns", 100);
        r.observe("sorn_test_latency_ns", 300);
        let h = r.histogram("sorn_test_latency_ns").unwrap();
        assert_eq!(h.hist.count(), 2);
        assert_eq!(h.sum, 400);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let mut r = MetricRegistry::new();
        r.set_counter("sorn_a_total", 7);
        r.set_gauge("sorn_b", 0.25);
        r.observe("sorn_c_ns", 600);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE sorn_a_total counter\nsorn_a_total 7\n"));
        assert!(text.contains("# TYPE sorn_b gauge\nsorn_b 0.25\n"));
        assert!(text.contains("# TYPE sorn_c_ns histogram\n"));
        // 600 lands in the [512, 1024) bucket, upper bound 1023.
        assert!(text.contains("sorn_c_ns_bucket{le=\"1023\"} 1\n"));
        assert!(text.contains("sorn_c_ns_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("sorn_c_ns_sum 600\n"));
        assert!(text.contains("sorn_c_ns_count 1\n"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let mut r = MetricRegistry::new();
        r.observe("sorn_h_ns", 1); // bucket le=1
        r.observe("sorn_h_ns", 600); // bucket le=1023
        r.observe("sorn_h_ns", 700); // bucket le=1023
        let text = r.render_prometheus();
        assert!(text.contains("sorn_h_ns_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("sorn_h_ns_bucket{le=\"1023\"} 3\n"));
        assert!(text.contains("sorn_h_ns_bucket{le=\"+Inf\"} 3\n"));
    }

    #[test]
    fn json_snapshot_shape() {
        let mut r = MetricRegistry::new();
        r.set_counter("sorn_a_total", 7);
        r.set_gauge("sorn_b", 0.25);
        r.observe("sorn_c_ns", 600);
        let json = r.snapshot_json();
        assert!(json.contains("\"sorn_a_total\": 7"));
        assert!(json.contains("\"sorn_b\": 0.25"));
        assert!(json.contains("\"sorn_c_ns\": {\"count\": 1, \"sum\": 600"));
        assert!(json.contains("\"p50\": 1023"));
        // Structurally balanced (cheap sanity in lieu of a parser).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn engine_metrics_import() {
        let mut m = Metrics::default();
        m.slots = 10;
        m.injected_cells = 5;
        m.delivered_cells = 4;
        m.transmissions = 8;
        m.failure_slots = 2;
        let mut r = MetricRegistry::new();
        r.record_engine(&m);
        assert_eq!(r.counter("sorn_engine_slots_total"), Some(10));
        assert_eq!(r.counter("sorn_engine_cells_delivered_total"), Some(4));
        assert_eq!(r.counter("sorn_engine_failure_slots_total"), Some(2));
        assert_eq!(r.gauge("sorn_engine_delivery_fraction"), Some(0.5));
        assert!(r.histogram("sorn_engine_cell_latency_ns").is_some());
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("sorn_engine_slots_total"));
        assert!(valid_name("_x:y9"));
        assert!(!valid_name(""));
        assert!(!valid_name("9starts_with_digit"));
        assert!(!valid_name("has-dash"));
        assert!(!valid_name("has space"));
    }

    #[test]
    fn hostile_names_are_sanitized_not_rendered_raw() {
        let mut r = MetricRegistry::new();
        // A newline in a name would otherwise inject whole lines into
        // the exposition; spaces and dashes would corrupt parsing.
        r.inc_counter("evil\nname 1\ninjected_line 2", 1);
        r.set_gauge("has-dash and space", 2.0);
        r.inc_counter("9starts_with_digit", 3);
        r.inc_counter("", 4);

        let text = r.render_prometheus();
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let name = line.split([' ', '{']).next().unwrap();
            assert!(valid_name(name), "illegal rendered name {name:?}");
        }
        assert!(!text.contains("injected_line 2\n") || text.contains("_injected_line_2"));
        assert_eq!(r.counter("evil\nname 1\ninjected_line 2"), Some(1));
        assert_eq!(r.counter("evil_name_1_injected_line_2"), Some(1));
        assert_eq!(r.gauge("has_dash_and_space"), Some(2.0));
        assert_eq!(r.counter("_9starts_with_digit"), Some(3));
        assert_eq!(r.counter("_"), Some(4));
    }

    #[test]
    fn sanitize_passes_legal_names_through_unchanged() {
        assert!(matches!(
            sanitize_name("sorn_engine_slots_total"),
            std::borrow::Cow::Borrowed("sorn_engine_slots_total")
        ));
        assert_eq!(sanitize_name("a b"), "a_b");
        assert_eq!(sanitize_name("7up"), "_7up");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("a\nb"), "\"a\\u000ab\"");
    }
}
