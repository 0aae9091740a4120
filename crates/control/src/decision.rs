//! The control-plane decision log.
//!
//! Every epoch the [`ControlLoop`](crate::ControlLoop) records what it
//! saw (estimated inter-clique demand), what it chose (the candidate
//! plan's q and clique sizes), and what happened (held, updated, or no
//! plan) — the §5 control plane's equivalent of a flight recorder.
//! Records serialize to JSON Lines for offline inspection next to the
//! data-plane run traces from `sorn-telemetry`.

use sorn_base::json::{self, FromJson, Value};
use std::io::{self, Write};
use std::path::Path;

/// What changed in the installed schedule when an update went out.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleDiff {
    /// Schedule period before the update.
    pub period_before: usize,
    /// Schedule period after the update.
    pub period_after: usize,
    /// NICs whose neighbor set changed (beyond pure bandwidth
    /// rebalancing).
    pub nics_changed: usize,
    /// Cells drained across all NICs during installation.
    ///
    /// Always 0 in a run: queue depths reach the control plane only
    /// through `NicState::set_queue_depth`, which no command calls.
    pub drained_cells: u64,
    /// True when the update only rebalanced bandwidth shares.
    pub rebalance_only: bool,
    /// Modeled installation time.
    pub installation_ns: u64,
}

/// How the loop responded to reported failures (and to installation
/// trouble) during one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureResponse {
    /// Nodes reported failed when the epoch ended.
    pub failed_nodes: Vec<u32>,
    /// Directed links reported failed, as `[src, dst]`.
    pub failed_links: Vec<[u32; 2]>,
    /// Fraction of estimated demand masked out of the optimizer's input
    /// because an endpoint was failed.
    pub masked_demand_fraction: f64,
    /// Installation attempts made this epoch (0 = no install tried,
    /// 1 = clean install, >1 = retries happened).
    pub install_attempts: u32,
    /// Modeled backoff delay added by installation retries.
    pub install_backoff_ns: u64,
    /// True when installation was abandoned after the bounded retries.
    pub gave_up: bool,
}

/// One epoch's decision, as recorded by the control loop.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Epochs folded into the estimator when the decision was made.
    pub epoch: u64,
    /// `"no_plan"`, `"held"`, or `"updated"`.
    pub outcome: String,
    /// Total estimated demand (bytes) across the EWMA matrix.
    pub total_estimated_bytes: f64,
    /// Estimated demand aggregated between the cliques installed at
    /// decision time (row = source clique, column = destination).
    pub inter_clique_demand: Vec<Vec<f64>>,
    /// Modeled throughput of the configuration installed when the epoch
    /// ended.
    pub current_throughput: f64,
    /// Modeled throughput of the optimizer's best candidate, when one
    /// existed.
    pub candidate_throughput: Option<f64>,
    /// The candidate plan's traffic locality.
    pub candidate_locality: Option<f64>,
    /// The candidate plan's intra:inter slot ratio, as `[num, den]`.
    pub candidate_q: Option<[u64; 2]>,
    /// The candidate plan's clique sizes.
    pub candidate_clique_sizes: Option<Vec<usize>>,
    /// Populated when the candidate was installed.
    pub schedule_diff: Option<ScheduleDiff>,
    /// Populated when failures were reported or installation needed
    /// retries this epoch.
    pub failure_response: Option<FailureResponse>,
}

/// An append-only log of per-epoch control decisions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionLog {
    /// The decisions, one per completed epoch, in order.
    pub records: Vec<DecisionRecord>,
}

impl DecisionLog {
    /// An empty log.
    pub fn new() -> Self {
        DecisionLog::default()
    }

    /// Appends one epoch's record.
    pub fn push(&mut self, record: DecisionRecord) {
        self.records.push(record);
    }

    /// Number of recorded epochs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Renders the log as JSON Lines, one record per line: an object
    /// per record, members named and ordered as the struct's fields.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&Value::from(r).compact());
            out.push('\n');
        }
        out
    }

    /// Writes the log as a JSONL file at `path`.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())
    }

    /// Parses a log back from JSONL text; blank lines are skipped. The
    /// error names the first bad line.
    pub fn parse_jsonl(s: &str) -> Result<Self, String> {
        let records = json::parse_lines(s, DecisionRecord::from_json)?;
        Ok(DecisionLog { records })
    }
}

sorn_base::json_struct!(
    ScheduleDiff;
    period_before, period_after, nics_changed, drained_cells, rebalance_only, installation_ns,
);

sorn_base::json_struct!(
    FailureResponse;
    failed_nodes, failed_links, masked_demand_fraction, install_attempts, install_backoff_ns,
    gave_up,
);

sorn_base::json_struct!(
    DecisionRecord;
    epoch, outcome, total_estimated_bytes, inter_clique_demand, current_throughput,
    candidate_throughput, candidate_locality, candidate_q, candidate_clique_sizes, schedule_diff,
    failure_response,
);

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64, outcome: &str) -> DecisionRecord {
        DecisionRecord {
            epoch,
            outcome: outcome.to_string(),
            total_estimated_bytes: 1000.0,
            inter_clique_demand: vec![vec![0.0, 500.0], vec![500.0, 0.0]],
            current_throughput: 0.5,
            candidate_throughput: Some(0.6),
            candidate_locality: Some(0.8),
            candidate_q: Some([3, 1]),
            candidate_clique_sizes: Some(vec![4, 4]),
            schedule_diff: None,
            failure_response: Some(FailureResponse {
                failed_nodes: vec![3],
                failed_links: vec![[0, 1]],
                masked_demand_fraction: 0.25,
                install_attempts: 2,
                install_backoff_ns: 50_000_000,
                gave_up: false,
            }),
        }
    }

    #[test]
    fn log_accumulates_in_order() {
        let mut log = DecisionLog::new();
        assert!(log.is_empty());
        log.push(record(1, "held"));
        log.push(record(2, "updated"));
        assert_eq!(log.len(), 2);
        assert_eq!(log.records[0].epoch, 1);
        assert_eq!(log.records[1].outcome, "updated");
    }

    #[test]
    fn jsonl_has_one_line_per_record() {
        let mut log = DecisionLog::new();
        log.push(record(1, "held"));
        log.push(record(2, "updated"));
        let text = log.to_jsonl();
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut log = DecisionLog::new();
        log.push(record(1, "no_plan"));
        log.push(record(2, "updated"));
        let text = log.to_jsonl();
        let back = DecisionLog::parse_jsonl(&text).unwrap();
        assert_eq!(back, log);
    }

    /// Malformed records are errors naming their line, never panics:
    /// each corpus entry sits on line 2 between two valid records, and
    /// a seeded byte-mutation loop runs over a valid log.
    #[test]
    fn hostile_input_is_an_error_naming_the_line() {
        let good = Value::from(&record(1, "held")).compact();
        let deep = "[".repeat(10_000);
        let corpus = [
            &good[..good.len() / 2],
            "{\"epoch\":1,\"outcome\":\"held",
            "{\"epoch\":\"1\"}",
            "{\"epoch\":1,\"outcome\":7}",
            &good.replace("\"candidate_q\":[3,1]", "\"candidate_q\":[3]"),
            &good.replace("\"epoch\":1", "\"epoch\":-1"),
            &good.replace("\"gave_up\":false", "\"gave_up\":0"),
            &good.replace("\"outcome\":\"held\"", "\"outcome\":\"\\udc00\""),
            &deep,
            "[]",
        ];
        for bad in corpus {
            let err = DecisionLog::parse_jsonl(&format!("{good}\n{bad}\n{good}")).unwrap_err();
            assert!(err.starts_with("line 2: "), "{bad:?}: {err}");
        }
        let mut log = DecisionLog::new();
        log.push(record(1, "no_plan"));
        log.push(record(2, "updated"));
        let text = log.to_jsonl();
        sorn_base::rng::cases(1_000, |rng| {
            let mut bytes = text.clone().into_bytes();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen_range(0x20u8..0x7f);
            if let Err(e) = DecisionLog::parse_jsonl(std::str::from_utf8(&bytes).unwrap()) {
                assert!(
                    e.starts_with("line 1: ") || e.starts_with("line 2: "),
                    "{e}"
                );
            }
        });
    }
}
