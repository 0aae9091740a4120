//! Time-series summaries of telemetry run traces, and the one
//! `--trace-out` companion run the experiments record them with.
//!
//! Consumes the [`Snapshot`] series an [`IntervalSampler`] emits and
//! renders queue- and utilization-over-time as percentile tables,
//! following the `render` module's conventions.

use crate::render::TextTable;
use sorn_sim::{Engine, Flow, Metrics, Router, SimConfig};
use sorn_telemetry::{read_jsonl, IntervalSampler, JsonlTraceSink, Snapshot, TraceEvent};
use sorn_topology::CircuitSchedule;
use std::path::Path;

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

/// The probe a `--trace-out` run writes through: a JSONL file sink
/// sampled every `--sample-interval-ns`.
pub type TraceSampler = IntervalSampler<JsonlTraceSink>;

/// What [`trace_run`] returns: the trace as written and read back.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Events written to the trace file.
    pub events: u64,
    /// The trace's snapshot series, in order; the last is the run's end.
    pub snapshots: Vec<Snapshot>,
    /// The run's aggregate metrics.
    pub metrics: Metrics,
}

/// The `--trace-out` companion run of an experiment: hands the
/// [`trace_sampler`] for `path` and `interval_ns` to `run`, which
/// drives a packet simulation and returns the sampler with the run's
/// metrics, then checks the trace with [`read_back`].
pub fn trace_run(
    path: &Path,
    interval_ns: u64,
    run: impl FnOnce(TraceSampler) -> Result<(Metrics, TraceSampler), String>,
) -> Result<TracedRun, String> {
    let (metrics, sampler) = run(trace_sampler(path, interval_ns)?)?;
    read_back(path, sampler, metrics)
}

/// A sampler writing the JSONL trace at `path`, one snapshot every
/// `interval_ns` of simulated time.
pub fn trace_sampler(path: &Path, interval_ns: u64) -> Result<TraceSampler, String> {
    let sink = JsonlTraceSink::create(path).map_err(trace_file(path))?;
    Ok(IntervalSampler::new(sink, interval_ns))
}

/// Flushes a finished run's trace to `path`, reads it back, and checks
/// that it holds every event written and that its final snapshot's
/// delivered cells equal `metrics`'.
pub fn read_back(
    path: &Path,
    sampler: TraceSampler,
    metrics: Metrics,
) -> Result<TracedRun, String> {
    let written = sampler.into_sink().finish().map_err(trace_file(path))?;
    let events = read_jsonl(path).map_err(trace_file(path))?;
    let snapshots = snapshots_of(&events);
    let delivered = snapshots.last().map(|s| s.delivered_cells);
    if events.len() as u64 != written || delivered != Some(metrics.delivered_cells) {
        return Err(format!(
            "--trace-out file {}: read back {} of {written} events, final snapshot \
             delivered {delivered:?} cells, the run {}",
            path.display(),
            events.len(),
            metrics.delivered_cells
        ));
    }
    Ok(TracedRun {
        events: written,
        snapshots,
        metrics,
    })
}

/// The error message of an I/O failure on the trace file at `path`.
fn trace_file(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("--trace-out file {}: {e}", path.display())
}

/// A `run` for [`trace_run`]: drains `flows` on `schedule` under
/// `router` with the default [`SimConfig`], giving up after 100 000
/// slots.
pub fn drain<'a>(
    schedule: &'a CircuitSchedule,
    router: &'a dyn Router,
    flows: Vec<Flow>,
) -> impl FnOnce(TraceSampler) -> Result<(Metrics, TraceSampler), String> + 'a {
    move |sampler| {
        let mut eng = Engine::with_probe(SimConfig::default(), schedule, router, sampler);
        eng.add_flows(flows).map_err(|e| e.to_string())?;
        eng.run_until_drained(100_000).map_err(|e| e.to_string())?;
        Ok((eng.metrics().clone(), eng.finish()))
    }
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
