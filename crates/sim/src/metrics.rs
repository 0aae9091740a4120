//! Run metrics: flow completion times, hop counts, utilization.

use crate::cell::FlowId;
use crate::config::Nanos;

/// Outcome of one completed flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// The flow.
    pub id: FlowId,
    /// Transfer size in bytes.
    pub size_bytes: u64,
    /// Arrival time at the source NIC.
    pub arrival_ns: Nanos,
    /// Time the last cell was delivered.
    pub completion_ns: Nanos,
    /// Largest hop count any of the flow's cells took.
    pub max_hops: u8,
}

impl FlowRecord {
    /// Flow completion time.
    pub fn fct_ns(&self) -> Nanos {
        self.completion_ns - self.arrival_ns
    }
}

/// A log-bucketed (power-of-two) histogram of cell delivery latencies.
///
/// Bucket 0 counts exact-zero latencies; bucket `k` (for `k >= 1`)
/// counts latencies in `[2^(k-1), 2^k)`. 63 doubling buckets cover the
/// full `u64` nanosecond range, so recording never saturates in
/// practice. Percentile queries return the inclusive upper bound of the
/// bucket holding the requested rank — an over-estimate by at most 2x,
/// at O(1) memory for arbitrarily long runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
}

// `[u64; 64]` has no derived `Default` (arrays stop at 32), so spell
// it out.
impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 64],
            count: 0,
        }
    }
}

impl LatencyHistogram {
    /// The bucket index covering `latency_ns`.
    fn bucket_of(latency_ns: Nanos) -> usize {
        if latency_ns == 0 {
            0
        } else {
            // Values >= 2^63 share the top bucket.
            ((64 - latency_ns.leading_zeros()) as usize).min(63)
        }
    }

    /// The inclusive upper bound of bucket `k`.
    fn upper_bound(k: usize) -> Nanos {
        if k == 0 {
            0
        } else if k >= 63 {
            // The top bucket also absorbs values >= 2^63.
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    }

    /// The raw bucket array and sample count, for checkpointing.
    pub(crate) fn raw_parts(&self) -> (&[u64; 64], u64) {
        (&self.buckets, self.count)
    }

    /// Rebuilds a histogram from checkpointed parts.
    pub(crate) fn from_raw_parts(buckets: [u64; 64], count: u64) -> Self {
        LatencyHistogram { buckets, count }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency_ns: Nanos) {
        self.buckets[Self::bucket_of(latency_ns)] += 1;
        self.count += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs,
    /// ascending — enough to rebuild a cumulative distribution
    /// (Prometheus-style `le` buckets) without exposing the layout.
    pub fn nonzero_buckets(&self) -> Vec<(Nanos, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (Self::upper_bound(k), c))
            .collect()
    }

    /// Latency percentile (`p` in `[0, 100]`) as the upper bound of the
    /// bucket holding that rank; `None` when no samples were recorded.
    ///
    /// Rank convention matches [`Metrics::fct_percentile_ns`]:
    /// `round(p/100 * (count - 1))` over the sorted samples.
    pub fn percentile(&self, p: f64) -> Option<Nanos> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0).clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(Self::upper_bound(k));
            }
        }
        // Unreachable: `seen` reaches `count > rank` by the last bucket.
        Some(u64::MAX)
    }

    /// Median latency (bucket upper bound).
    pub fn p50(&self) -> Option<Nanos> {
        self.percentile(50.0)
    }

    /// 99th-percentile latency (bucket upper bound).
    pub fn p99(&self) -> Option<Nanos> {
        self.percentile(99.0)
    }

    /// 99.9th-percentile latency (bucket upper bound).
    pub fn p999(&self) -> Option<Nanos> {
        self.percentile(99.9)
    }
}

/// One source node's outgoing-link counts: `(dst, count)` pairs sorted
/// by `dst`, never holding a zero count. The engine's sharded transmit
/// walk receives bands of these rows and bumps them directly.
pub(crate) type LinkRow = Vec<(u32, u64)>;

/// Sparse per-directed-link transmission counts.
///
/// One sorted `(dst, count)` row per source node instead of a flat
/// `n × n` matrix — at warehouse scale a dense matrix is quadratic
/// (34 GiB at 65k nodes) while real schedules exercise only each node's
/// neighbor links. Rows never store zero counts, so structural equality
/// (`PartialEq`, used by the determinism suites) remains equality of
/// content. The matrix grows on demand when a larger node id appears
/// (hand-built metrics); the engine pre-sizes it to the network.
/// Accessors mirror the map API this replaced and expose only links
/// with a nonzero count, preserving the semantics of
/// [`Metrics::link_load_cv`] and [`Metrics::hottest_links`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkMatrix {
    n: u32,
    rows: Vec<LinkRow>,
    entries: usize,
}

impl LinkMatrix {
    /// Creates a matrix pre-sized for node ids `0..n`.
    pub fn with_nodes(n: usize) -> Self {
        LinkMatrix {
            n: n as u32,
            rows: vec![Vec::new(); n],
            entries: 0,
        }
    }

    /// The matrix dimension (node ids `0..dim` are in range), for
    /// checkpointing: a restored matrix must be rebuilt at the same
    /// dimension so the engine's sharded row bands keep lining up.
    pub(crate) fn dim(&self) -> u32 {
        self.n
    }

    fn grow_to(&mut self, need: u32) {
        self.rows.resize(need as usize, Vec::new());
        self.n = need;
    }

    /// Bumps `dst` in a detached row (the sharded transmit walk writes
    /// through row bands, bypassing `record`); returns `true` when the
    /// link was newly inserted, so the caller can report the delta to
    /// [`LinkMatrix::add_nonzero`].
    #[inline]
    pub(crate) fn bump_row(row: &mut LinkRow, dst: u32) -> bool {
        match row.binary_search_by_key(&dst, |&(d, _)| d) {
            Ok(i) => {
                row[i].1 += 1;
                false
            }
            Err(i) => {
                row.insert(i, (dst, 1));
                true
            }
        }
    }

    /// Counts one transmission on `src → dst` (the hot path).
    #[inline]
    pub fn record(&mut self, src: u32, dst: u32) {
        if src >= self.n || dst >= self.n {
            self.grow_to(src.max(dst) + 1);
        }
        if Self::bump_row(&mut self.rows[src as usize], dst) {
            self.entries += 1;
        }
    }

    /// Every row, one per source node, for the engine's sharded transmit
    /// walk: each shard owns the rows of its node range and writes counts
    /// without synchronization.
    pub(crate) fn rows_mut(&mut self) -> &mut [LinkRow] {
        &mut self.rows
    }

    /// Folds a shard's count of newly nonzero links back in (the bands
    /// handed out by [`LinkMatrix::rows_mut`] bypass `record`).
    pub(crate) fn add_nonzero(&mut self, newly_nonzero: usize) {
        self.entries += newly_nonzero;
    }

    /// Sets a link's count outright (building metrics by hand). A zero
    /// count removes the entry.
    pub fn insert(&mut self, link: (u32, u32), count: u64) {
        let (src, dst) = link;
        if src >= self.n || dst >= self.n {
            self.grow_to(src.max(dst) + 1);
        }
        let row = &mut self.rows[src as usize];
        match (row.binary_search_by_key(&dst, |&(d, _)| d), count) {
            (Ok(i), 0) => {
                row.remove(i);
                self.entries -= 1;
            }
            (Ok(i), c) => row[i].1 = c,
            (Err(_), 0) => {}
            (Err(i), c) => {
                row.insert(i, (dst, c));
                self.entries += 1;
            }
        }
    }

    /// The count on one directed link.
    pub fn get(&self, link: (u32, u32)) -> u64 {
        let (src, dst) = link;
        if src >= self.n || dst >= self.n {
            return 0;
        }
        let row = &self.rows[src as usize];
        match row.binary_search_by_key(&dst, |&(d, _)| d) {
            Ok(i) => row[i].1,
            Err(_) => 0,
        }
    }

    /// Number of links with a nonzero count.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no link has transmitted.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Links with a nonzero count, ascending by `(src, dst)`.
    pub fn iter(&self) -> impl Iterator<Item = ((u32, u32), u64)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(src, row)| row.iter().map(move |&(dst, c)| ((src as u32, dst), c)))
    }

    /// Nonzero link keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.iter().map(|(l, _)| l)
    }

    /// Nonzero counts, in key order.
    pub fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(_, c)| c)
    }
}

/// Aggregated counters for a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Slots simulated so far.
    pub slots: u64,
    /// Cells injected at sources.
    pub injected_cells: u64,
    /// Cells delivered to their destination.
    pub delivered_cells: u64,
    /// Payload bytes delivered (final hop).
    pub delivered_bytes: u64,
    /// Circuit transmissions (every hop of every cell).
    pub transmissions: u64,
    /// Slots in which a scheduled circuit went unused for lack of an
    /// admissible cell (per uplink).
    pub idle_circuit_slots: u64,
    /// Histogram of delivered-cell hop counts (index = hops, saturating).
    pub hop_histogram: [u64; 32],
    /// Sum of per-cell delivery latencies, for the mean.
    pub cell_latency_sum_ns: u128,
    /// Log-bucketed distribution of per-cell delivery latencies.
    pub cell_latency: LatencyHistogram,
    /// Completed flows.
    pub flows: Vec<FlowRecord>,
    /// Peak total queue depth observed across all nodes.
    pub peak_queue_depth: usize,
    /// Cells dropped at full node queues (0 unless a queue cap is set),
    /// plus cells a fault-aware router sheds toward a failed destination.
    pub dropped_cells: u64,
    /// Transmissions per directed virtual link `(src, dst)`.
    pub link_transmissions: LinkMatrix,
    /// Cells still queued at `Engine::finish` that cannot make progress:
    /// their destination is failed, or they wait on a specific next hop
    /// whose circuit is down.
    pub stranded_cells: u64,
    /// Slots during which at least one element was failed.
    pub failure_slots: u64,
    /// Distinct failure episodes (healthy → degraded transitions).
    pub failure_episodes: u64,
    /// Cells delivered while at least one element was failed.
    pub delivered_during_failure: u64,
    /// Per-episode recovery times: from the restoration that returned the
    /// network to full health until total queue depth fell back to its
    /// pre-failure level.
    pub recovery_times_ns: Vec<Nanos>,
    /// Slots advanced without the full per-node walk: provably-quiet
    /// slots covered by the gap jump, one slot at a time from `step` or
    /// a whole gap from `fast_forward_to`. A
    /// fast-forward jump only covers slots that per-slot stepping would
    /// also have proven quiet, so the count is identical either way.
    /// Always ≤ `slots`.
    pub slots_skipped: u64,
}

impl Metrics {
    /// Records a delivered cell.
    pub(crate) fn on_delivered(&mut self, hops: u8, latency_ns: Nanos, payload_bytes: u32) {
        self.delivered_cells += 1;
        self.delivered_bytes += payload_bytes as u64;
        let h = (hops as usize).min(self.hop_histogram.len() - 1);
        self.hop_histogram[h] += 1;
        self.cell_latency_sum_ns += latency_ns as u128;
        self.cell_latency.record(latency_ns);
    }

    /// Median cell delivery latency (log-bucket upper bound).
    pub fn cell_latency_p50_ns(&self) -> Option<Nanos> {
        self.cell_latency.p50()
    }

    /// 99th-percentile cell delivery latency (log-bucket upper bound).
    pub fn cell_latency_p99_ns(&self) -> Option<Nanos> {
        self.cell_latency.p99()
    }

    /// 99.9th-percentile cell delivery latency (log-bucket upper bound).
    pub fn cell_latency_p999_ns(&self) -> Option<Nanos> {
        self.cell_latency.p999()
    }

    /// Mean delivered-cell latency in nanoseconds.
    pub fn mean_cell_latency_ns(&self) -> f64 {
        if self.delivered_cells == 0 {
            return 0.0;
        }
        self.cell_latency_sum_ns as f64 / self.delivered_cells as f64
    }

    /// Mean hops per delivered cell — the paper's normalized bandwidth
    /// cost (Table 1, "Norm. BW cost").
    pub fn mean_hops(&self) -> f64 {
        if self.delivered_cells == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .hop_histogram
            .iter()
            .enumerate()
            .map(|(h, &c)| h as u64 * c)
            .sum();
        weighted as f64 / self.delivered_cells as f64
    }

    /// Fraction of circuit transmissions that were final-hop deliveries —
    /// the paper's throughput metric `r` (§4 "Throughput"), measured on
    /// offered traffic rather than worst-case.
    pub fn delivery_fraction(&self) -> f64 {
        if self.transmissions == 0 {
            return 0.0;
        }
        self.delivered_cells as f64 / self.transmissions as f64
    }

    /// Fraction of scheduled circuit-slots actually used.
    pub fn circuit_utilization(&self) -> f64 {
        let total = self.transmissions + self.idle_circuit_slots;
        if total == 0 {
            return 0.0;
        }
        self.transmissions as f64 / total as f64
    }

    /// The `k` busiest directed links with their transmission counts,
    /// descending (ties broken by link id for determinism).
    pub fn hottest_links(&self, k: usize) -> Vec<((u32, u32), u64)> {
        let mut v: Vec<((u32, u32), u64)> = self.link_transmissions.iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Coefficient of variation of per-link transmissions — a load-
    /// balance quality measure (0 = perfectly even).
    ///
    /// The mean is taken over the per-link counts themselves, so the
    /// statistic stays correct even when `transmissions` and the link
    /// map disagree (hand-built or merged metrics).
    pub fn link_load_cv(&self) -> f64 {
        let n = self.link_transmissions.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.link_transmissions.values().sum::<u64>() as f64 / n as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .link_transmissions
            .values()
            .map(|c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }

    /// Fraction of injected cells that were dropped at full queues.
    pub fn loss_rate(&self) -> f64 {
        if self.injected_cells == 0 {
            return 0.0;
        }
        self.dropped_cells as f64 / self.injected_cells as f64
    }

    /// Goodput while degraded, in delivered cells per slot; 0 when the
    /// run saw no failure slots.
    pub fn goodput_during_failure(&self) -> f64 {
        if self.failure_slots == 0 {
            return 0.0;
        }
        self.delivered_during_failure as f64 / self.failure_slots as f64
    }

    /// Goodput over the healthy slots, in delivered cells per slot.
    pub fn goodput_healthy(&self) -> f64 {
        let healthy_slots = self.slots.saturating_sub(self.failure_slots);
        if healthy_slots == 0 {
            return 0.0;
        }
        (self.delivered_cells - self.delivered_during_failure) as f64 / healthy_slots as f64
    }

    /// Degraded-goodput ratio: goodput during failures over healthy
    /// goodput (1.0 = no degradation; 1.0 when either side is
    /// unmeasured).
    pub fn degraded_goodput_ratio(&self) -> f64 {
        let healthy = self.goodput_healthy();
        if self.failure_slots == 0 || healthy == 0.0 {
            return 1.0;
        }
        self.goodput_during_failure() / healthy
    }

    /// Mean time-to-recover across failure episodes whose recovery
    /// completed, in nanoseconds.
    pub fn mean_recovery_ns(&self) -> Option<f64> {
        if self.recovery_times_ns.is_empty() {
            return None;
        }
        Some(
            self.recovery_times_ns
                .iter()
                .map(|&t| t as f64)
                .sum::<f64>()
                / self.recovery_times_ns.len() as f64,
        )
    }

    /// Worst-case time-to-recover, in nanoseconds.
    pub fn max_recovery_ns(&self) -> Option<Nanos> {
        self.recovery_times_ns.iter().copied().max()
    }

    /// Mean flow completion time in nanoseconds.
    pub fn mean_fct_ns(&self) -> f64 {
        if self.flows.is_empty() {
            return 0.0;
        }
        self.flows.iter().map(|f| f.fct_ns() as f64).sum::<f64>() / self.flows.len() as f64
    }

    /// FCT percentile (`p` in `[0, 100]`), in nanoseconds.
    pub fn fct_percentile_ns(&self, p: f64) -> Option<Nanos> {
        if self.flows.is_empty() {
            return None;
        }
        let mut fcts: Vec<Nanos> = self.flows.iter().map(|f| f.fct_ns()).collect();
        fcts.sort_unstable();
        let rank = ((p / 100.0) * (fcts.len() - 1) as f64).round() as usize;
        Some(fcts[rank.min(fcts.len() - 1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(fct: Nanos) -> FlowRecord {
        FlowRecord {
            id: FlowId(0),
            size_bytes: 1000,
            arrival_ns: 100,
            completion_ns: 100 + fct,
            max_hops: 2,
        }
    }

    #[test]
    fn delivered_cells_update_histogram_and_latency() {
        let mut m = Metrics::default();
        m.on_delivered(2, 1000, 1250);
        m.on_delivered(3, 3000, 1250);
        assert_eq!(m.delivered_cells, 2);
        assert_eq!(m.delivered_bytes, 2500);
        assert_eq!(m.hop_histogram[2], 1);
        assert_eq!(m.hop_histogram[3], 1);
        assert!((m.mean_cell_latency_ns() - 2000.0).abs() < 1e-9);
        assert!((m.mean_hops() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn delivery_fraction_counts_bandwidth_tax() {
        let mut m = Metrics::default();
        m.transmissions = 10;
        m.delivered_cells = 4;
        assert!((m.delivery_fraction() - 0.4).abs() < 1e-12);
        m.idle_circuit_slots = 10;
        assert!((m.circuit_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fct_statistics() {
        let mut m = Metrics::default();
        m.flows = vec![record(100), record(200), record(300), record(400)];
        assert!((m.mean_fct_ns() - 250.0).abs() < 1e-9);
        assert_eq!(m.fct_percentile_ns(0.0), Some(100));
        assert_eq!(m.fct_percentile_ns(100.0), Some(400));
        assert_eq!(m.fct_percentile_ns(50.0), Some(300)); // round(1.5)=2
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = Metrics::default();
        assert_eq!(m.mean_cell_latency_ns(), 0.0);
        assert_eq!(m.mean_hops(), 0.0);
        assert_eq!(m.delivery_fraction(), 0.0);
        assert_eq!(m.circuit_utilization(), 0.0);
        assert_eq!(m.mean_fct_ns(), 0.0);
        assert_eq!(m.fct_percentile_ns(50.0), None);
    }

    #[test]
    fn hottest_links_and_cv() {
        let mut m = Metrics::default();
        m.link_transmissions.insert((0, 1), 10);
        m.link_transmissions.insert((1, 2), 4);
        m.link_transmissions.insert((2, 0), 4);
        m.transmissions = 18;
        let hot = m.hottest_links(2);
        assert_eq!(hot[0], ((0, 1), 10));
        assert_eq!(hot[1].1, 4);
        assert!(m.link_load_cv() > 0.0);
        // Perfectly even load has CV 0.
        let mut even = Metrics::default();
        even.link_transmissions.insert((0, 1), 5);
        even.link_transmissions.insert((1, 0), 5);
        even.transmissions = 10;
        assert!(even.link_load_cv() < 1e-12);
        // Empty map: 0.
        assert_eq!(Metrics::default().link_load_cv(), 0.0);
    }

    #[test]
    fn link_matrix_grows_and_tracks_nonzero() {
        let mut m = LinkMatrix::default();
        m.record(0, 1);
        m.record(5, 3); // auto-grow past both node ids
        m.record(0, 1);
        assert_eq!(m.get((0, 1)), 2);
        assert_eq!(m.get((5, 3)), 1);
        assert_eq!(m.len(), 2);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![((0, 1), 2), ((5, 3), 1)]);
        // Zeroing a link removes it from the nonzero view.
        m.insert((0, 1), 0);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get((0, 1)), 0);
        // Out-of-range links read as zero without growing.
        assert_eq!(m.get((99, 99)), 0);
        assert!(!m.is_empty());
    }

    #[test]
    fn saturating_hop_histogram() {
        let mut m = Metrics::default();
        m.on_delivered(200, 0, 1);
        assert_eq!(m.hop_histogram[31], 1);
    }

    #[test]
    fn link_load_cv_ignores_inconsistent_total() {
        // Regression: the CV once derived its mean from `transmissions`,
        // so a total inconsistent with the link map skewed the result.
        let mut m = Metrics::default();
        m.link_transmissions.insert((0, 1), 5);
        m.link_transmissions.insert((1, 0), 5);
        m.transmissions = 99; // deliberately inconsistent
        assert!(m.link_load_cv() < 1e-12, "even links must give CV 0");

        let mut skew = Metrics::default();
        skew.link_transmissions.insert((0, 1), 9);
        skew.link_transmissions.insert((1, 0), 1);
        skew.transmissions = 0; // would divide by a zero mean before
                                // mean 5, sd 4 -> CV 0.8.
        assert!((skew.link_load_cv() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn latency_histogram_bucket_boundaries() {
        // Bucket 0 = {0}; bucket k = [2^(k-1), 2^k).
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(1023), 10);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), 63);
        // Upper bounds are the largest value in each bucket.
        assert_eq!(LatencyHistogram::upper_bound(0), 0);
        assert_eq!(LatencyHistogram::upper_bound(1), 1);
        assert_eq!(LatencyHistogram::upper_bound(11), 2047);
        assert_eq!(LatencyHistogram::upper_bound(63), u64::MAX);
    }

    #[test]
    fn latency_histogram_percentiles() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.p50(), None);
        // 99 samples at ~600ns (bucket [512, 1024)), one at ~1ms.
        for _ in 0..99 {
            h.record(600);
        }
        h.record(1_000_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), Some(1023));
        assert_eq!(h.p99(), Some(1023)); // rank 98 still in the low bucket
        assert_eq!(h.percentile(100.0), Some((1u64 << 20) - 1));
    }

    #[test]
    fn degradation_counters() {
        let mut m = Metrics::default();
        // Unmeasured runs report no degradation and no recoveries.
        assert_eq!(m.goodput_during_failure(), 0.0);
        assert_eq!(m.degraded_goodput_ratio(), 1.0);
        assert_eq!(m.mean_recovery_ns(), None);
        assert_eq!(m.max_recovery_ns(), None);
        m.slots = 100;
        m.failure_slots = 20;
        m.delivered_cells = 100;
        m.delivered_during_failure = 10;
        // Healthy: 90 cells over 80 slots; degraded: 10 cells over 20.
        assert!((m.goodput_healthy() - 1.125).abs() < 1e-12);
        assert!((m.goodput_during_failure() - 0.5).abs() < 1e-12);
        assert!((m.degraded_goodput_ratio() - 0.5 / 1.125).abs() < 1e-12);
        m.recovery_times_ns = vec![100, 300];
        assert_eq!(m.mean_recovery_ns(), Some(200.0));
        assert_eq!(m.max_recovery_ns(), Some(300));
    }

    #[test]
    fn metrics_expose_latency_percentiles() {
        let mut m = Metrics::default();
        for lat in [100, 200, 400, 800] {
            m.on_delivered(1, lat, 1250);
        }
        assert_eq!(m.cell_latency.count(), 4);
        // Rank convention: round(0.5 * 3) = 2 -> 400 -> bucket [256,512).
        assert_eq!(m.cell_latency_p50_ns(), Some(511));
        assert_eq!(m.cell_latency_p99_ns(), Some(1023));
        assert_eq!(m.cell_latency_p999_ns(), Some(1023));
    }
}
