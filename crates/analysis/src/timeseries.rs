//! Time-series summaries of `--trace-out` run traces.
//!
//! Consumes the [`Snapshot`] series an
//! [`IntervalSampler`](sorn_telemetry::IntervalSampler) emits and
//! renders queue- and utilization-over-time as percentile tables,
//! following the `render` module's conventions.

use crate::render::TextTable;
use sorn_telemetry::{Snapshot, TraceEvent};

/// Order statistics of one sampled series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesStats {
    /// Smallest sample.
    pub min: f64,
    /// Median sample.
    pub p50: f64,
    /// 90th-percentile sample.
    pub p90: f64,
    /// 99th-percentile sample.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl SeriesStats {
    /// Computes stats over `samples`; `None` when the series is empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
        let pct = |p: f64| -> f64 {
            let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
            sorted[rank.min(sorted.len() - 1)]
        };
        Some(SeriesStats {
            min: sorted[0],
            p50: pct(50.0),
            p90: pct(90.0),
            p99: pct(99.0),
            max: sorted[sorted.len() - 1],
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
        })
    }
}

/// Extracts the snapshot series from a trace, in order.
pub fn snapshots_of(events: &[TraceEvent]) -> Vec<Snapshot> {
    events
        .iter()
        .filter_map(|e| e.snapshot().cloned())
        .collect()
}

/// The named per-snapshot series the summary table reports.
fn series(snapshots: &[Snapshot]) -> Vec<(&'static str, Vec<f64>)> {
    vec![
        (
            "queued cells",
            snapshots.iter().map(|s| s.queued_cells as f64).collect(),
        ),
        (
            "in-flight cells",
            snapshots.iter().map(|s| s.inflight_cells as f64).collect(),
        ),
        (
            "circuit utilization",
            snapshots.iter().map(|s| s.circuit_utilization).collect(),
        ),
        (
            "delivery fraction",
            snapshots.iter().map(|s| s.delivery_fraction).collect(),
        ),
    ]
}

/// Renders a percentile table (one row per series) over the sampled
/// queue depths, in-flight counts, utilization, and delivery fraction.
pub fn summary_table(snapshots: &[Snapshot]) -> TextTable {
    let mut t = TextTable::new(&["series", "min", "p50", "p90", "p99", "max", "mean"]);
    for (name, samples) in series(snapshots) {
        let Some(s) = SeriesStats::of(&samples) else {
            continue;
        };
        t.row(vec![
            name.to_string(),
            format!("{:.2}", s.min),
            format!("{:.2}", s.p50),
            format!("{:.2}", s.p90),
            format!("{:.2}", s.p99),
            format!("{:.2}", s.max),
            format!("{:.2}", s.mean),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(at_ns: u64, queued: u64, util: f64) -> Snapshot {
        Snapshot {
            at_ns,
            slot: at_ns / 100,
            queued_cells: queued,
            inflight_cells: queued / 2,
            injected_cells: 100,
            delivered_cells: 90,
            dropped_cells: 0,
            transmissions: 120,
            circuit_utilization: util,
            delivery_fraction: 0.75,
            p50_cell_latency_ns: Some(1023),
            p99_cell_latency_ns: Some(4095),
        }
    }

    #[test]
    fn stats_order_correctly() {
        let s = SeriesStats::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.p50, 3.0); // round(1.5) = 2
        assert_eq!(s.mean, 2.5);
        assert!(SeriesStats::of(&[]).is_none());
    }

    #[test]
    fn summary_table_covers_all_series() {
        let snaps: Vec<Snapshot> = (0..10).map(|i| snap(i * 1000, i * 5, 0.5)).collect();
        let t = summary_table(&snaps);
        assert_eq!(t.len(), 4);
        let text = t.render();
        assert!(text.contains("queued cells"));
        assert!(text.contains("circuit utilization"));
    }

    #[test]
    fn empty_trace_gives_empty_table() {
        assert!(summary_table(&[]).is_empty());
    }

    #[test]
    fn snapshots_extracted_in_order() {
        let events = vec![
            TraceEvent::Snapshot(snap(0, 1, 0.1)),
            TraceEvent::Reconfiguration { at_ns: 50, slot: 0 },
            TraceEvent::Snapshot(snap(1000, 2, 0.2)),
        ];
        let snaps = snapshots_of(&events);
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[1].at_ns, 1000);
    }
}
