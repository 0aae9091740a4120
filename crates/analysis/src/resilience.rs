//! Resilience comparison under failure storms (§6 "Practicality
//! benefits").
//!
//! The blast-radius study ([`blast`](crate::blast)) argues *statically*
//! that modular SORN confines each flow's failure exposure to its own
//! clique(s). This module measures the *dynamic* consequence: run the
//! same seeded failure storm through a flat VLB fabric and a modular
//! SORN fabric, and compare how far goodput degrades and how long each
//! takes to drain its backlog after repairs land. The inputs are the
//! engine's own degradation counters
//! ([`Metrics`](sorn_sim::Metrics)), so the table is consistent with
//! every other report the `sorn-cli` experiments print.

use crate::render::{fmt_latency, TextTable};
use sorn_sim::Metrics;

/// One scheme's resilience summary, derived from a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceRow {
    /// Scheme name (e.g. `"flat-vlb"`, `"sorn"`).
    pub scheme: String,
    /// Cells delivered over the whole run.
    pub delivered: u64,
    /// Cells dropped (queue overflow + shed toward dead destinations).
    pub dropped: u64,
    /// Cells stranded at run end (no route could ever drain them).
    pub stranded: u64,
    /// Distinct failure episodes the run went through.
    pub episodes: u64,
    /// Slots with at least one failed element.
    pub failure_slots: u64,
    /// Goodput while degraded, cells per slot.
    pub goodput_degraded: f64,
    /// Goodput while healthy, cells per slot.
    pub goodput_healthy: f64,
    /// Degraded over healthy goodput (1.0 = unaffected by failures).
    pub degraded_ratio: f64,
    /// Mean time from full repair to backlog drained, when measured.
    pub mean_recovery_ns: Option<f64>,
    /// Worst-case recovery time, when measured.
    pub max_recovery_ns: Option<u64>,
}

impl ResilienceRow {
    /// Summarizes a finished run's metrics under `scheme`.
    pub fn from_metrics(scheme: &str, m: &Metrics) -> Self {
        ResilienceRow {
            scheme: scheme.to_string(),
            delivered: m.delivered_cells,
            dropped: m.dropped_cells,
            stranded: m.stranded_cells,
            episodes: m.failure_episodes,
            failure_slots: m.failure_slots,
            goodput_degraded: m.goodput_during_failure(),
            goodput_healthy: m.goodput_healthy(),
            degraded_ratio: m.degraded_goodput_ratio(),
            mean_recovery_ns: m.mean_recovery_ns(),
            max_recovery_ns: m.max_recovery_ns(),
        }
    }
}

/// Renders rows as the resilience comparison table.
pub fn resilience_table(rows: &[ResilienceRow]) -> String {
    let mut t = TextTable::new(&[
        "scheme",
        "delivered",
        "dropped",
        "stranded",
        "episodes",
        "fail slots",
        "goodput ok",
        "goodput deg",
        "deg ratio",
        "mean recover",
        "max recover",
    ]);
    for r in rows {
        t.row(vec![
            r.scheme.clone(),
            r.delivered.to_string(),
            r.dropped.to_string(),
            r.stranded.to_string(),
            r.episodes.to_string(),
            r.failure_slots.to_string(),
            format!("{:.3}", r.goodput_healthy),
            format!("{:.3}", r.goodput_degraded),
            format!("{:.3}", r.degraded_ratio),
            r.mean_recovery_ns
                .map(fmt_latency)
                .unwrap_or_else(|| "-".to_string()),
            r.max_recovery_ns
                .map(|v| fmt_latency(v as f64))
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Metrics {
        let mut m = Metrics::default();
        m.slots = 100;
        m.delivered_cells = 100;
        m.delivered_during_failure = 10;
        m.failure_slots = 20;
        m.failure_episodes = 2;
        m.dropped_cells = 3;
        m.stranded_cells = 4;
        m.recovery_times_ns = vec![1_000, 3_000];
        m
    }

    #[test]
    fn row_mirrors_metrics() {
        let r = ResilienceRow::from_metrics("sorn", &metrics());
        assert_eq!(r.scheme, "sorn");
        assert_eq!(r.delivered, 100);
        assert_eq!(r.dropped, 3);
        assert_eq!(r.stranded, 4);
        assert_eq!(r.episodes, 2);
        assert_eq!(r.failure_slots, 20);
        assert!((r.goodput_healthy - 1.125).abs() < 1e-12);
        assert!((r.goodput_degraded - 0.5).abs() < 1e-12);
        assert!((r.degraded_ratio - 0.5 / 1.125).abs() < 1e-12);
        assert_eq!(r.mean_recovery_ns, Some(2_000.0));
        assert_eq!(r.max_recovery_ns, Some(3_000));
    }

    #[test]
    fn table_renders_all_schemes_and_dashes_when_unmeasured() {
        let healthy = ResilienceRow::from_metrics("flat-vlb", &Metrics::default());
        let degraded = ResilienceRow::from_metrics("sorn", &metrics());
        let text = resilience_table(&[healthy, degraded]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header + rule + 2 rows");
        assert!(lines[0].starts_with("scheme"));
        assert!(lines[2].starts_with("flat-vlb"));
        assert!(lines[2].contains("-"), "unmeasured recovery renders as -");
        assert!(lines[3].starts_with("sorn"));
        assert!(lines[3].contains("2.00 us"), "{text}");
    }
}
