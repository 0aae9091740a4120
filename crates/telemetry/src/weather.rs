//! Network "weather": bounded-memory, clique-granularity observability.
//!
//! Every other aggregate view in the repo grows with topology size —
//! flow traces are per-flow, the link matrix is dense `n x n`. This
//! module rolls engine events up to *clique* granularity and keeps
//! heavy-hitter detail through fixed-size streaming sketches. The
//! whole layer costs `O(cliques^2 + K)` memory plus two flat per-node
//! index/scratch tables, regardless of run length:
//!
//! - [`WeatherProbe`] — a [`Probe`] feeding per-clique-pair demand /
//!   goodput matrices, per-clique queue high-water marks, drop
//!   counters, and a reconfiguration timeline;
//! - [`SpaceSaving`] — the Metwally et al. top-K heavy-hitter sketch
//!   (flows, links, node ports), with deterministic tie-breaking so
//!   its state is a pure function of the canonical event stream and
//!   reports are byte-identical at any `engine_threads`;
//! - [`EpochSeries`] — an epoch-bucketed time-series with power-of-two
//!   decimation: when the fixed bucket budget fills, adjacent buckets
//!   merge and the epoch doubles, so a `10^9`-slot run still fits.
//!
//! The probe renders a self-contained text + JSON run report and
//! serializes to a checkpoint sidecar blob ([`WeatherProbe::to_bytes`])
//! so an interrupted-and-resumed run produces the same report as an
//! uninterrupted one.

use sorn_base::bytes::{Reader, Writer};
use sorn_base::json::Value;
use sorn_sim::{Cell, Flow, FlowRecord, Nanos, Probe, SkipView, SlotView};
use sorn_topology::{CliqueMap, NodeId};
use std::fmt::Write as _;

/// Default number of heavy-hitter slots per sketch (`--weather-topk`).
pub const DEFAULT_TOPK: usize = 32;

/// Most heavy-hitter slots a sketch may keep: three sketches of this
/// many 24-byte slots are 72 MiB, and the weather blob decoder refuses
/// a larger top-k as implausible.
pub const MAX_TOPK: usize = 1 << 20;

/// Default time-series bucket budget (power of two).
pub const DEFAULT_SERIES_BUDGET: usize = 128;

/// Most reconfiguration events kept verbatim in the timeline; later
/// ones only bump the total (reconfigurations are rare by design).
const RECONFIG_LOG_CAP: usize = 256;

/// Port-sketch flush cadence in slots. Per-transmit port counts land in
/// a dense per-node scratch (a single array add) and drain into the
/// sketch every this many slots, in node order, so the sketch sees one
/// weighted observe per active port per window instead of one per
/// transmit. Flushing also happens at run end, and the scratch is part
/// of the checkpoint blob, so reports never miss a count.
const PORT_FLUSH_SLOTS: u64 = 64;

/// One tracked key in a [`SpaceSaving`] sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchEntry {
    /// The tracked key (flow id, packed link, or node id).
    pub key: u64,
    /// Estimated count: an upper bound on the key's true weight.
    pub count: u64,
    /// Maximum overestimate: true weight is in `[count - error, count]`.
    pub error: u64,
}

/// Space-Saving top-K heavy-hitter sketch.
///
/// Keeps at most `k` `(key, count, error)` entries. A hit increments
/// the key's count; a miss on a full sketch evicts the minimum-count
/// entry — ties broken toward the lowest slot index, and the slot
/// order is part of the serialized state, so the state after any event
/// sequence is deterministic, including across checkpoint/restore —
/// and adopts its count as the new key's `error`. Standard guarantees:
/// `count` sums equal the total observed weight `N`, every
/// `error <= N / k`, and any key with true weight `> N / k` is present.
///
/// Layout is performance-critical: `observe` runs on the engine's
/// merge thread for every transmitted cell. Keys live in one
/// contiguous array (membership is a vectorizable equality scan, no
/// hashing), and each slot's count is packed as `count << shift |
/// slot`, so picking the eviction victim is a pure `min` reduction
/// over one u64 array with the victim's index in the low bits — no
/// index-tracking scan, which the compiler cannot vectorize.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    k: usize,
    /// Bits reserved for the slot index in `packed` (0 when `k == 1`).
    shift: u32,
    keys: Vec<u64>,
    /// `count << shift | slot_index` per slot.
    packed: Vec<u64>,
    errors: Vec<u64>,
}

impl SpaceSaving {
    /// A sketch tracking at most `k` keys.
    ///
    /// Counts saturate the packed representation at `2^(64 - ceil(log2
    /// k))`; with the default k = 32 that is `2^59`, far beyond any
    /// simulated event count.
    ///
    /// # Panics
    /// Panics if `k` is zero or above [`MAX_TOPK`].
    pub fn new(k: usize) -> Self {
        assert!(
            (1..=MAX_TOPK).contains(&k),
            "sketch needs 1..={MAX_TOPK} slots, got {k}"
        );
        let shift = if k == 1 {
            0
        } else {
            64 - ((k - 1) as u64).leading_zeros()
        };
        SpaceSaving {
            k,
            shift,
            keys: Vec::with_capacity(k),
            packed: Vec::with_capacity(k),
            errors: Vec::with_capacity(k),
        }
    }

    /// The sketch's capacity.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of keys currently tracked.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no key has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Records `weight` for `key`.
    #[inline]
    pub fn observe(&mut self, key: u64, weight: u64) {
        // Membership and index in one pure OR-reduction: the compare
        // selects `i + 1` via an all-ones mask and AND (compare + and +
        // or vectorize directly; a multiply would not — x86 has no fast
        // 64-bit vector multiply), and keys are distinct so at most one
        // term is nonzero. Keeping this scan and the eviction min-scan
        // as separate single-array loops matters: fusing them into one
        // two-array pass defeats the vectorizer.
        let mut acc = 0u64;
        for (i, &k) in self.keys.iter().enumerate() {
            acc |= ((k == key) as u64).wrapping_neg() & (i as u64 + 1);
        }
        if acc != 0 {
            self.packed[(acc - 1) as usize] += weight << self.shift;
            return;
        }
        if self.keys.len() < self.k {
            let slot = self.keys.len() as u64;
            self.keys.push(key);
            self.packed.push((weight << self.shift) | slot);
            self.errors.push(0);
            return;
        }
        // Evict the minimum: a pure min-reduction over the packed
        // array; the low bits of the winner are the victim's slot, and
        // the packing makes the count tie-break toward the lowest slot.
        let mut min = u64::MAX;
        for &p in &self.packed {
            min = min.min(p);
        }
        let m = (min & ((1u64 << self.shift) - 1)) as usize;
        let evicted = min >> self.shift;
        self.keys[m] = key;
        self.packed[m] = ((evicted + weight) << self.shift) | m as u64;
        self.errors[m] = evicted;
    }

    /// The tracked entries, heaviest first (count desc, then error asc,
    /// then key asc — a total order, so the listing is deterministic).
    pub fn top(&self) -> Vec<SketchEntry> {
        let mut out = self.raw_entries();
        out.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then(a.error.cmp(&b.error))
                .then(a.key.cmp(&b.key))
        });
        out
    }

    /// Entries in internal slot order (the serialization order: slot
    /// order feeds the eviction tie-break, so checkpoints must carry
    /// it for a restored sketch to evolve identically).
    fn raw_entries(&self) -> Vec<SketchEntry> {
        (0..self.keys.len())
            .map(|i| SketchEntry {
                key: self.keys[i],
                count: self.packed[i] >> self.shift,
                error: self.errors[i],
            })
            .collect()
    }

    /// Rebuilds a sketch from `(key, count, error)` triples in slot
    /// order (checkpoint restore). Entries beyond `k`, duplicate keys,
    /// and counts too large for the packed layout are errors.
    fn from_entries(k: usize, entries: Vec<SketchEntry>) -> Result<Self, String> {
        if entries.len() > k {
            return Err(format!("sketch holds {} entries but k={k}", entries.len()));
        }
        let mut sorted: Vec<u64> = entries.iter().map(|e| e.key).collect();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate sketch key {}", w[0]));
        }
        let mut sketch = SpaceSaving::new(k);
        for (i, e) in entries.iter().enumerate() {
            if e.count > u64::MAX >> sketch.shift {
                return Err(format!("implausible sketch count {}", e.count));
            }
            sketch.keys.push(e.key);
            sketch.packed.push((e.count << sketch.shift) | i as u64);
            sketch.errors.push(e.error);
        }
        Ok(sketch)
    }
}

/// One bucket of the decimated weather time-series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WeatherBucket {
    /// First slot covered by this bucket.
    pub start_slot: u64,
    /// Slots accumulated so far (equals the epoch once closed).
    pub slots: u64,
    /// Cells delivered during the bucket.
    pub delivered: u64,
    /// Cells dropped during the bucket.
    pub dropped: u64,
    /// Cells transmitted during the bucket.
    pub transmitted: u64,
    /// Schedule reconfigurations during the bucket.
    pub reconfigs: u64,
    /// Highest end-of-slot total queue depth seen in the bucket.
    pub max_queued: u64,
}

impl WeatherBucket {
    fn absorb(&mut self, other: &WeatherBucket) {
        self.slots += other.slots;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.transmitted += other.transmitted;
        self.reconfigs += other.reconfigs;
        self.max_queued = self.max_queued.max(other.max_queued);
    }
}

/// Epoch-bucketed time-series with power-of-two decimation.
///
/// Buckets cover `epoch_slots` slots each. When the fixed `budget` is
/// reached, adjacent buckets merge pairwise and the epoch doubles, so
/// memory stays `O(budget)` for any run length while resolution decays
/// gracefully (a `10^9`-slot run lands at `~2^23` slots per bucket).
/// The state is a pure function of the per-slot sample stream, so it is
/// identical at any thread count and across checkpoint/restore.
#[derive(Debug, Clone)]
pub struct EpochSeries {
    budget: usize,
    epoch_slots: u64,
    buckets: Vec<WeatherBucket>,
    cur: WeatherBucket,
}

impl EpochSeries {
    /// A series holding at most `budget` closed buckets.
    ///
    /// # Panics
    /// Panics unless `budget` is a power of two and at least 2.
    pub fn new(budget: usize) -> Self {
        assert!(
            budget >= 2 && budget.is_power_of_two(),
            "series budget must be a power of two >= 2"
        );
        EpochSeries {
            budget,
            epoch_slots: 1,
            buckets: Vec::new(),
            cur: WeatherBucket::default(),
        }
    }

    /// Current slots-per-bucket (a power of two).
    pub fn epoch_slots(&self) -> u64 {
        self.epoch_slots
    }

    /// Folds one slot's deltas into the series.
    pub fn record_slot(
        &mut self,
        slot: u64,
        delivered: u64,
        dropped: u64,
        transmitted: u64,
        reconfigs: u64,
        queued: u64,
    ) {
        if self.cur.slots == 0 {
            self.cur.start_slot = slot;
        }
        self.cur.slots += 1;
        self.cur.delivered += delivered;
        self.cur.dropped += dropped;
        self.cur.transmitted += transmitted;
        self.cur.reconfigs += reconfigs;
        self.cur.max_queued = self.cur.max_queued.max(queued);
        if self.cur.slots == self.epoch_slots {
            self.buckets.push(self.cur);
            self.cur = WeatherBucket::default();
            if self.buckets.len() == self.budget {
                self.decimate();
            }
        }
    }

    /// Folds `count` consecutive all-zero slots starting at `slot` into
    /// the series in one pass — exactly what `count` calls to
    /// [`EpochSeries::record_slot`] with zero deltas would produce, but
    /// in `O(budget + log count)` bucket operations instead of
    /// `O(count)`: whole buckets fill by arithmetic, and each decimation
    /// doubles the epoch, so long spans converge after a few rounds.
    pub fn record_quiet_span(&mut self, mut slot: u64, mut count: u64) {
        while count > 0 {
            if self.cur.slots == 0 {
                self.cur.start_slot = slot;
            }
            let take = count.min(self.epoch_slots - self.cur.slots);
            self.cur.slots += take;
            slot += take;
            count -= take;
            if self.cur.slots == self.epoch_slots {
                self.buckets.push(self.cur);
                self.cur = WeatherBucket::default();
                if self.buckets.len() == self.budget {
                    self.decimate();
                }
            }
        }
    }

    /// Merges adjacent bucket pairs and doubles the epoch.
    fn decimate(&mut self) {
        let mut merged = Vec::with_capacity(self.budget / 2);
        for pair in self.buckets.chunks(2) {
            let mut b = pair[0];
            if let Some(second) = pair.get(1) {
                b.absorb(second);
            }
            merged.push(b);
        }
        self.buckets = merged;
        self.epoch_slots *= 2;
    }

    /// Closed buckets plus the in-progress one (if it covers any slot),
    /// oldest first.
    pub fn buckets(&self) -> Vec<WeatherBucket> {
        let mut out = self.buckets.clone();
        if self.cur.slots > 0 {
            out.push(self.cur);
        }
        out
    }
}

/// Cumulative engine counters as of the last recorded slot, used to
/// turn monotone metrics into per-slot deltas.
#[derive(Debug, Clone, Copy, Default)]
struct LastCounters {
    delivered: u64,
    dropped: u64,
    transmitted: u64,
    reconfigs: u64,
}

/// The weather probe: clique-granularity accumulators + heavy-hitter
/// sketches + a decimated timeline, all updated on the engine's merge
/// thread in canonical event order.
///
/// Attach it alone, with the tuple combinator, or in an
/// [`Observers`](crate::Observers) stack. Its whole state is a pure
/// function of the deterministic event stream.
#[derive(Debug)]
pub struct WeatherProbe {
    cliques: CliqueMap,
    topk: usize,
    /// `c x c` matrices indexed `src_clique * c + dst_clique`.
    demand_bytes: Vec<u64>,
    goodput_cells: Vec<u64>,
    /// Per-clique end-of-slot queue-depth high-water marks.
    queue_hwm: Vec<u64>,
    /// Per-clique dropped-cell counts (clique of the dropping node).
    clique_drops: Vec<u64>,
    flow_sketch: SpaceSaving,
    link_sketch: SpaceSaving,
    port_sketch: SpaceSaving,
    /// Exact per-node transmit counts not yet folded into
    /// `port_sketch`; drained every [`PORT_FLUSH_SLOTS`] slots in node
    /// order. Serialized, so a resumed run flushes identically.
    port_pending: Vec<u64>,
    series: EpochSeries,
    reconfig_log: Vec<(u64, Nanos)>,
    reconfig_total: u64,
    flows_started: u64,
    flows_finished: u64,
    max_stranded: u64,
    last: LastCounters,
    final_slot: u64,
    final_now_ns: Nanos,
    /// Scratch for the per-slot clique-depth roll-up (not serialized).
    depth_scratch: Vec<u64>,
    /// `node index -> clique index`, flattened from `cliques` so the
    /// per-slot roll-up is a plain zip (not serialized).
    clique_table: Vec<usize>,
}

/// Packs a directed link into a sketch key.
#[inline]
fn link_key(from: NodeId, to: NodeId) -> u64 {
    ((from.0 as u64) << 32) | to.0 as u64
}

impl WeatherProbe {
    /// A probe over `cliques`, tracking `topk` heavy hitters per sketch.
    ///
    /// # Panics
    /// Panics if `topk` is zero or above [`MAX_TOPK`].
    pub fn new(cliques: CliqueMap, topk: usize) -> Self {
        let c = cliques.cliques();
        WeatherProbe {
            topk,
            demand_bytes: vec![0; c * c],
            goodput_cells: vec![0; c * c],
            queue_hwm: vec![0; c],
            clique_drops: vec![0; c],
            flow_sketch: SpaceSaving::new(topk),
            link_sketch: SpaceSaving::new(topk),
            port_sketch: SpaceSaving::new(topk),
            port_pending: vec![0; cliques.n()],
            series: EpochSeries::new(DEFAULT_SERIES_BUDGET),
            reconfig_log: Vec::new(),
            reconfig_total: 0,
            flows_started: 0,
            flows_finished: 0,
            max_stranded: 0,
            last: LastCounters::default(),
            final_slot: 0,
            final_now_ns: 0,
            depth_scratch: vec![0; c],
            clique_table: (0..cliques.n())
                .map(|i| cliques.clique_of(NodeId(i as u32)).index())
                .collect(),
            cliques,
        }
    }

    /// The sketch capacity this probe was built with.
    pub fn topk(&self) -> usize {
        self.topk
    }

    /// The clique map this probe aggregates over.
    pub fn cliques(&self) -> &CliqueMap {
        &self.cliques
    }

    #[inline]
    fn pair(&self, src: NodeId, dst: NodeId) -> usize {
        let c = self.cliques.cliques();
        self.cliques.clique_of(src).index() * c + self.cliques.clique_of(dst).index()
    }

    /// Drains the dense per-node transmit counts into the port sketch
    /// in node order. Batched weighted observes leave every
    /// Space-Saving guarantee intact (counts are conserved, error stays
    /// bounded by `N / K`); only the flush cadence is coarser than the
    /// event stream, so a report rendered mid-run can lag port counts by
    /// up to [`PORT_FLUSH_SLOTS`] slots. Final reports never do.
    fn flush_ports(&mut self) {
        for (node, count) in self.port_pending.iter_mut().enumerate() {
            if *count > 0 {
                self.port_sketch.observe(node as u64, *count);
                *count = 0;
            }
        }
    }

    /// Renders the plain-text run report. Deterministic: depends only
    /// on the observed event stream and `label`.
    pub fn render_txt(&self, label: &str) -> String {
        let c = self.cliques.cliques();
        let mut out = String::new();
        let _ = writeln!(out, "network weather: {label}");
        let _ = writeln!(
            out,
            "  {} nodes in {c} cliques, top-{} sketches",
            self.cliques.n(),
            self.topk
        );
        let _ = writeln!(
            out,
            "  {} slots, {} ns simulated",
            self.final_slot, self.final_now_ns
        );
        let _ = writeln!(
            out,
            "  flows: {} started, {} finished",
            self.flows_started, self.flows_finished
        );
        let delivered: u64 = self.goodput_cells.iter().sum();
        let dropped: u64 = self.clique_drops.iter().sum();
        let _ = writeln!(
            out,
            "  cells: {delivered} delivered, {} transmitted, {dropped} dropped, max {} stranded",
            self.last.transmitted, self.max_stranded
        );
        out.push('\n');

        render_matrix(
            &mut out,
            "clique demand (bytes offered, src -> dst)",
            c,
            |i| self.demand_bytes[i],
        );
        render_matrix(
            &mut out,
            "clique goodput (cells delivered, src -> dst)",
            c,
            |i| self.goodput_cells[i],
        );

        let _ = writeln!(out, "clique queue high-water / drops");
        for k in 0..c {
            let _ = writeln!(
                out,
                "  c{k}: hwm {} cells, {} drops",
                self.queue_hwm[k], self.clique_drops[k]
            );
        }
        out.push('\n');

        render_sketch(
            &mut out,
            "top flows (cells delivered)",
            &self.flow_sketch,
            |key| format!("flow {key}"),
        );
        render_sketch(
            &mut out,
            "top links (cells transmitted)",
            &self.link_sketch,
            |key| format!("{} -> {}", key >> 32, key & 0xffff_ffff),
        );
        render_sketch(
            &mut out,
            "top ports (cells sent)",
            &self.port_sketch,
            |key| format!("node {key}"),
        );

        let _ = writeln!(out, "reconfigurations: {} total", self.reconfig_total);
        for (slot, now_ns) in &self.reconfig_log {
            let _ = writeln!(out, "  slot {slot} @ {now_ns} ns");
        }
        if self.reconfig_total as usize > self.reconfig_log.len() {
            let _ = writeln!(
                out,
                "  ... {} more not logged",
                self.reconfig_total as usize - self.reconfig_log.len()
            );
        }
        out.push('\n');

        let buckets = self.series.buckets();
        let _ = writeln!(
            out,
            "timeline ({} slots/bucket, {} buckets)",
            self.series.epoch_slots(),
            buckets.len()
        );
        let _ = writeln!(
            out,
            "  start_slot slots delivered dropped transmitted maxq reconfigs"
        );
        for b in &buckets {
            let _ = writeln!(
                out,
                "  {:>10} {:>5} {:>9} {:>7} {:>11} {:>4} {:>9}",
                b.start_slot,
                b.slots,
                b.delivered,
                b.dropped,
                b.transmitted,
                b.max_queued,
                b.reconfigs
            );
        }
        out
    }

    /// Renders the JSON run report (integers only, fixed member order,
    /// so the bytes are deterministic).
    pub fn render_json(&self, label: &str) -> String {
        let c = self.cliques.cliques();
        let matrix =
            |m: &[u64]| -> Vec<Vec<u64>> { m.chunks(c.max(1)).map(<[u64]>::to_vec).collect() };
        let sketch = |top: Vec<SketchEntry>, key: &dyn Fn(u64, &mut Value)| -> Vec<Value> {
            top.iter()
                .map(|e| {
                    let mut v = Value::obj();
                    key(e.key, &mut v);
                    v.set("count", e.count).set("error", e.error);
                    v
                })
                .collect()
        };
        let mut flows = Value::obj();
        flows
            .set("started", self.flows_started)
            .set("finished", self.flows_finished);
        let mut cells = Value::obj();
        cells
            .set("delivered", self.goodput_cells.iter().sum::<u64>())
            .set("transmitted", self.last.transmitted)
            .set("dropped", self.clique_drops.iter().sum::<u64>())
            .set("max_stranded", self.max_stranded);
        let mut reconfigurations = Value::obj();
        reconfigurations.set("total", self.reconfig_total).set(
            "events",
            self.reconfig_log
                .iter()
                .map(|&(slot, now_ns)| {
                    let mut v = Value::obj();
                    v.set("slot", slot).set("now_ns", now_ns);
                    v
                })
                .collect::<Vec<_>>(),
        );
        let buckets: Vec<Value> = self
            .series
            .buckets()
            .iter()
            .map(|b| {
                let mut v = Value::obj();
                v.set("start_slot", b.start_slot)
                    .set("slots", b.slots)
                    .set("delivered", b.delivered)
                    .set("dropped", b.dropped)
                    .set("transmitted", b.transmitted)
                    .set("max_queued", b.max_queued)
                    .set("reconfigs", b.reconfigs);
                v
            })
            .collect();
        let mut timeline = Value::obj();
        timeline
            .set("epoch_slots", self.series.epoch_slots())
            .set("buckets", buckets);
        let mut doc = Value::obj();
        doc.set("scheme", label)
            .set("nodes", self.cliques.n())
            .set("cliques", c)
            .set("topk", self.topk)
            .set("slots", self.final_slot)
            .set("now_ns", self.final_now_ns)
            .set("flows", flows)
            .set("cells", cells)
            .set("demand_bytes", matrix(&self.demand_bytes))
            .set("goodput_cells", matrix(&self.goodput_cells))
            .set("clique_queue_hwm", self.queue_hwm.clone())
            .set("clique_drops", self.clique_drops.clone())
            .set(
                "top_flows",
                sketch(self.flow_sketch.top(), &|k, v| {
                    v.set("flow", k);
                }),
            )
            .set(
                "top_links",
                sketch(self.link_sketch.top(), &|k, v| {
                    v.set("src", k >> 32).set("dst", k & 0xffff_ffff);
                }),
            )
            .set(
                "top_ports",
                sketch(self.port_sketch.top(), &|k, v| {
                    v.set("node", k);
                }),
            )
            .set("reconfigurations", reconfigurations)
            .set("timeline", timeline);
        doc.compact()
    }

    /// Serializes the full state for a checkpoint sidecar blob;
    /// [`WeatherProbe::from_bytes`] reads it back.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u32(1); // format version
        out.put_u64(self.cliques.n() as u64);
        out.put_u64(self.cliques.cliques() as u64);
        out.put_u64(self.topk as u64);
        out.put_u64(self.flows_started);
        out.put_u64(self.flows_finished);
        out.put_u64(self.reconfig_total);
        out.put_u64(self.max_stranded);
        out.put_u64(self.last.delivered);
        out.put_u64(self.last.dropped);
        out.put_u64(self.last.transmitted);
        out.put_u64(self.last.reconfigs);
        out.put_u64(self.final_slot);
        out.put_u64(self.final_now_ns);
        for m in [
            &self.demand_bytes,
            &self.goodput_cells,
            &self.queue_hwm,
            &self.clique_drops,
        ] {
            for &v in m {
                out.put_u64(v);
            }
        }
        for sketch in [&self.flow_sketch, &self.link_sketch, &self.port_sketch] {
            let entries = sketch.raw_entries();
            out.put_u64(entries.len() as u64);
            for e in entries {
                out.put_u64(e.key);
                out.put_u64(e.count);
                out.put_u64(e.error);
            }
        }
        out.put_u64(self.series.budget as u64);
        out.put_u64(self.series.epoch_slots);
        out.put_u64(self.series.buckets.len() as u64);
        for b in self
            .series
            .buckets
            .iter()
            .chain(std::iter::once(&self.series.cur))
        {
            out.put_u64(b.start_slot);
            out.put_u64(b.slots);
            out.put_u64(b.delivered);
            out.put_u64(b.dropped);
            out.put_u64(b.transmitted);
            out.put_u64(b.reconfigs);
            out.put_u64(b.max_queued);
        }
        out.put_u64(self.reconfig_log.len() as u64);
        for (slot, now_ns) in &self.reconfig_log {
            out.put_u64(*slot);
            out.put_u64(*now_ns);
        }
        out.put_u64(self.port_pending.len() as u64);
        for &v in &self.port_pending {
            out.put_u64(v);
        }
        out
    }

    /// Rebuilds a probe from a checkpoint blob. `cliques` must describe
    /// the same topology the blob was captured over (validated by node
    /// and clique count). Never panics on corrupt input.
    pub fn from_bytes(bytes: &[u8], cliques: CliqueMap) -> Result<Self, String> {
        Self::decode(&mut Reader::new(bytes), cliques).map_err(|e| format!("weather blob {e}"))
    }

    fn decode(r: &mut Reader<'_>, cliques: CliqueMap) -> Result<Self, String> {
        let version = r.u32()?;
        if version != 1 {
            return Err(format!("has unsupported version {version}"));
        }
        let n = r.u64()? as usize;
        let c = r.u64()? as usize;
        if n != cliques.n() || c != cliques.cliques() {
            return Err(format!(
                "is over {n} nodes / {c} cliques but the run has {} / {}",
                cliques.n(),
                cliques.cliques()
            ));
        }
        let topk = r.u64()? as usize;
        if topk == 0 || topk > MAX_TOPK {
            return Err(format!("has implausible top-k {topk}"));
        }
        let mut probe = WeatherProbe::new(cliques, topk);
        probe.flows_started = r.u64()?;
        probe.flows_finished = r.u64()?;
        probe.reconfig_total = r.u64()?;
        probe.max_stranded = r.u64()?;
        probe.last.delivered = r.u64()?;
        probe.last.dropped = r.u64()?;
        probe.last.transmitted = r.u64()?;
        probe.last.reconfigs = r.u64()?;
        probe.final_slot = r.u64()?;
        probe.final_now_ns = r.u64()?;
        for m in [
            &mut probe.demand_bytes,
            &mut probe.goodput_cells,
            &mut probe.queue_hwm,
            &mut probe.clique_drops,
        ] {
            for v in m.iter_mut() {
                *v = r.u64()?;
            }
        }
        for sketch in [
            &mut probe.flow_sketch,
            &mut probe.link_sketch,
            &mut probe.port_sketch,
        ] {
            let entries = r.vec("sketch entry", 24, |r| {
                Ok(SketchEntry {
                    key: r.u64()?,
                    count: r.u64()?,
                    error: r.u64()?,
                })
            })?;
            *sketch = SpaceSaving::from_entries(topk, entries)?;
        }
        let budget = r.u64()? as usize;
        if !(2..=1 << 20).contains(&budget) || !budget.is_power_of_two() {
            return Err(format!("has implausible series budget {budget}"));
        }
        let epoch_slots = r.u64()?;
        if epoch_slots == 0 || !epoch_slots.is_power_of_two() {
            return Err(format!("has implausible epoch length {epoch_slots}"));
        }
        let bucket_count = r.count("series bucket", 56)?;
        if bucket_count >= budget {
            return Err(format!(
                "series claims {bucket_count} buckets, beyond its budget {budget}"
            ));
        }
        let read_bucket = |r: &mut Reader<'_>| -> Result<WeatherBucket, String> {
            Ok(WeatherBucket {
                start_slot: r.u64()?,
                slots: r.u64()?,
                delivered: r.u64()?,
                dropped: r.u64()?,
                transmitted: r.u64()?,
                reconfigs: r.u64()?,
                max_queued: r.u64()?,
            })
        };
        let mut series = EpochSeries::new(budget);
        series.epoch_slots = epoch_slots;
        for _ in 0..bucket_count {
            series.buckets.push(read_bucket(r)?);
        }
        series.cur = read_bucket(r)?;
        probe.series = series;
        let log_count = r.count("reconfig log", 16)?;
        if log_count > RECONFIG_LOG_CAP {
            return Err(format!(
                "reconfig log claims {log_count} entries (cap {RECONFIG_LOG_CAP})"
            ));
        }
        for _ in 0..log_count {
            probe.reconfig_log.push((r.u64()?, r.u64()?));
        }
        let pending = r.u64()?;
        if pending != n as u64 {
            return Err(format!(
                "port scratch is over {pending} nodes, expected {n}"
            ));
        }
        for v in probe.port_pending.iter_mut() {
            *v = r.u64()?;
        }
        r.finish("payload")?;
        Ok(probe)
    }
}

impl Probe for WeatherProbe {
    fn on_flow_start(&mut self, flow: &Flow, _now_ns: Nanos) {
        let p = self.pair(flow.src, flow.dst);
        self.demand_bytes[p] += flow.size_bytes;
        self.flows_started += 1;
    }

    #[inline]
    fn on_delivery(&mut self, cell: &Cell, _latency_ns: Nanos, _now_ns: Nanos) {
        let p = self.pair(cell.src, cell.dst);
        self.goodput_cells[p] += 1;
        self.flow_sketch.observe(cell.flow.0, 1);
    }

    #[inline]
    fn on_transmit(&mut self, _cell: &Cell, from: NodeId, to: NodeId, _now_ns: Nanos) {
        self.link_sketch.observe(link_key(from, to), 1);
        self.port_pending[from.0 as usize] += 1;
    }

    fn on_drop(&mut self, _cell: &Cell, node: NodeId, _now_ns: Nanos) {
        self.clique_drops[self.cliques.clique_of(node).index()] += 1;
    }

    fn on_flow_finish(&mut self, _record: &FlowRecord, _now_ns: Nanos) {
        self.flows_finished += 1;
    }

    fn on_reconfiguration(&mut self, slot: u64, now_ns: Nanos) {
        self.reconfig_total += 1;
        if self.reconfig_log.len() < RECONFIG_LOG_CAP {
            self.reconfig_log.push((slot, now_ns));
        }
    }

    fn on_slot_end(&mut self, view: &SlotView<'_>) {
        self.final_slot = view.slot;
        self.final_now_ns = view.now_ns;
        let m = view.metrics;
        let delivered = m.delivered_cells.saturating_sub(self.last.delivered);
        let dropped = m.dropped_cells.saturating_sub(self.last.dropped);
        let transmitted = m.transmissions.saturating_sub(self.last.transmitted);
        let reconfigs = self.reconfig_total.saturating_sub(self.last.reconfigs);
        self.last = LastCounters {
            delivered: m.delivered_cells,
            dropped: m.dropped_cells,
            transmitted: m.transmissions,
            reconfigs: self.reconfig_total,
        };
        self.series.record_slot(
            view.slot,
            delivered,
            dropped,
            transmitted,
            reconfigs,
            view.total_queued as u64,
        );
        self.max_stranded = self.max_stranded.max(m.stranded_cells);
        if !view.queues.is_empty() {
            self.depth_scratch.iter_mut().for_each(|v| *v = 0);
            for (q, &clique) in view.queues.iter().zip(&self.clique_table) {
                self.depth_scratch[clique] += q.depth() as u64;
            }
            for (hwm, depth) in self.queue_hwm.iter_mut().zip(&self.depth_scratch) {
                *hwm = (*hwm).max(*depth);
            }
        }
        if view.slot.is_multiple_of(PORT_FLUSH_SLOTS) {
            self.flush_ports();
        }
    }

    fn on_slots_skipped(&mut self, view: &SkipView<'_>) {
        let end = &view.end;
        let first_slot = end.slot - view.skipped + 1;
        self.final_slot = end.slot;
        self.final_now_ns = end.now_ns;
        let m = end.metrics;
        // Engine counters are frozen across a quiet span, so only its
        // first slot can carry a delta (a probe attached mid-run); the
        // rest of the span is all-zero slots folded in closed form.
        let delivered = m.delivered_cells.saturating_sub(self.last.delivered);
        let dropped = m.dropped_cells.saturating_sub(self.last.dropped);
        let transmitted = m.transmissions.saturating_sub(self.last.transmitted);
        let reconfigs = self.reconfig_total.saturating_sub(self.last.reconfigs);
        self.last = LastCounters {
            delivered: m.delivered_cells,
            dropped: m.dropped_cells,
            transmitted: m.transmissions,
            reconfigs: self.reconfig_total,
        };
        self.series.record_slot(
            first_slot,
            delivered,
            dropped,
            transmitted,
            reconfigs,
            end.total_queued as u64,
        );
        self.series
            .record_quiet_span(first_slot + 1, view.skipped - 1);
        self.max_stranded = self.max_stranded.max(m.stranded_cells);
        // Queues are empty throughout a quiet span, so the per-clique
        // HWM roll-up is a no-op. One flush covers every multiple of
        // PORT_FLUSH_SLOTS inside the span: per-slot stepping would
        // flush at the first one and find nothing pending at the rest.
        if end.slot / PORT_FLUSH_SLOTS > (first_slot - 1) / PORT_FLUSH_SLOTS {
            self.flush_ports();
        }
    }

    fn on_run_end(&mut self, view: &SlotView<'_>) {
        self.final_slot = view.slot;
        self.final_now_ns = view.now_ns;
        self.flush_ports();
    }
}

fn render_matrix(out: &mut String, title: &str, c: usize, at: impl Fn(usize) -> u64) {
    let _ = writeln!(out, "{title}");
    let mut header = String::from("      ");
    for col in 0..c {
        let _ = write!(header, " {:>10}", format!("c{col}"));
    }
    let _ = writeln!(out, "{header}");
    for row in 0..c {
        let _ = write!(out, "  c{row:<4}");
        for col in 0..c {
            let _ = write!(out, " {:>10}", at(row * c + col));
        }
        out.push('\n');
    }
    out.push('\n');
}

fn render_sketch(out: &mut String, title: &str, sketch: &SpaceSaving, fmt: impl Fn(u64) -> String) {
    let _ = writeln!(out, "{title}");
    if sketch.is_empty() {
        let _ = writeln!(out, "  (none)");
    }
    for e in sketch.top() {
        let _ = writeln!(
            out,
            "  {:<16} {:>10} (err {})",
            fmt(e.key),
            e.count,
            e.error
        );
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_sim::FlowId;

    #[test]
    fn sketch_tracks_exact_counts_below_capacity() {
        let mut s = SpaceSaving::new(4);
        for key in [1u64, 2, 1, 3, 1, 2] {
            s.observe(key, 1);
        }
        let top = s.top();
        assert_eq!(
            top[0],
            SketchEntry {
                key: 1,
                count: 3,
                error: 0
            }
        );
        assert_eq!(
            top[1],
            SketchEntry {
                key: 2,
                count: 2,
                error: 0
            }
        );
        assert_eq!(
            top[2],
            SketchEntry {
                key: 3,
                count: 1,
                error: 0
            }
        );
    }

    #[test]
    fn sketch_eviction_is_deterministic_and_bounded() {
        let mut s = SpaceSaving::new(2);
        s.observe(10, 1);
        s.observe(20, 1);
        // Miss on a full sketch: evicts key 10 (min count, lowest slot).
        s.observe(30, 1);
        let top = s.top();
        assert_eq!(top.len(), 2);
        assert_eq!(
            top[0],
            SketchEntry {
                key: 30,
                count: 2,
                error: 1
            }
        );
        assert_eq!(
            top[1],
            SketchEntry {
                key: 20,
                count: 1,
                error: 0
            }
        );
        // Counts sum to the total weight.
        assert_eq!(top.iter().map(|e| e.count).sum::<u64>(), 3);
    }

    #[test]
    fn series_decimates_to_fixed_budget() {
        let mut s = EpochSeries::new(4);
        for slot in 0..64 {
            s.record_slot(slot + 1, 1, 0, 2, 0, slot);
        }
        assert!(s.buckets().len() < 4 + 1);
        assert_eq!(s.epoch_slots(), 32);
        let total: u64 = s.buckets().iter().map(|b| b.delivered).sum();
        assert_eq!(total, 64);
        let slots: u64 = s.buckets().iter().map(|b| b.slots).sum();
        assert_eq!(slots, 64);
        // Max composes across merges.
        assert_eq!(s.buckets().last().unwrap().max_queued, 63);
    }

    fn sample_probe() -> WeatherProbe {
        let map = CliqueMap::contiguous(8, 2);
        let mut p = WeatherProbe::new(map, 3);
        p.on_flow_start(
            &Flow {
                id: FlowId(7),
                src: NodeId(0),
                dst: NodeId(5),
                size_bytes: 4000,
                arrival_ns: 0,
            },
            0,
        );
        let cell = Cell {
            flow: FlowId(7),
            seq: 0,
            src: NodeId(0),
            dst: NodeId(5),
            injected_ns: 0,
            hops: 1,
            tag: 0,
        };
        p.on_transmit(&cell, NodeId(0), NodeId(5), 100);
        p.on_delivery(&cell, 600, 700);
        p.on_drop(&cell, NodeId(6), 700);
        p.on_reconfiguration(3, 300);
        p
    }

    #[test]
    fn port_flush_conserves_counts_and_round_trips() {
        let map = CliqueMap::contiguous(8, 2);
        let mut p = WeatherProbe::new(map, 3);
        let cell = Cell {
            flow: FlowId(7),
            seq: 0,
            src: NodeId(0),
            dst: NodeId(5),
            injected_ns: 0,
            hops: 1,
            tag: 0,
        };
        for i in 0..8u32 {
            for _ in 0..=i {
                p.on_transmit(&cell, NodeId(i), NodeId(0), 0);
            }
        }
        // Pending counts survive a checkpoint round-trip taken before
        // any flush, and flushing both sides yields identical reports.
        let mut q = WeatherProbe::from_bytes(&p.to_bytes(), CliqueMap::contiguous(8, 2)).unwrap();
        p.flush_ports();
        q.flush_ports();
        assert_eq!(p.render_txt("x"), q.render_txt("x"));
        // Space-Saving conserves total weight: 1 + 2 + ... + 8.
        let total: u64 = p.port_sketch.top().iter().map(|e| e.count).sum();
        assert_eq!(total, 36);
    }

    #[test]
    fn mismatched_clique_map_is_rejected() {
        let p = sample_probe();
        let map = CliqueMap::contiguous(16, 4);
        assert!(WeatherProbe::from_bytes(&p.to_bytes(), map).is_err());
    }

    #[test]
    fn reports_aggregate_at_clique_granularity() {
        let p = sample_probe();
        let txt = p.render_txt("demo");
        assert!(txt.contains("network weather: demo"));
        assert!(txt.contains("8 nodes in 2 cliques"));
        assert!(txt.contains("flow 7"));
        assert!(txt.contains("0 -> 5"));
        let json = p.render_json("demo");
        assert!(json.contains("\"demand_bytes\":[[0,4000],[0,0]]"));
        assert!(json.contains("\"goodput_cells\":[[0,1],[0,0]]"));
        assert!(json.contains("\"clique_drops\":[0,1]"));
        assert!(json.contains("\"reconfigurations\":{\"total\":1"));
    }

    #[test]
    fn render_json_escapes_control_characters_in_the_label() {
        let label = "a\nb\tc\u{1}\"d\"";
        let json = sample_probe().render_json(label);
        assert!(
            json.starts_with("{\"scheme\":\"a\\nb\\tc\\u0001\\\"d\\\"\","),
            "{json}"
        );
        let doc = sorn_base::json::parse(&json).expect("weather JSON is valid");
        assert_eq!(doc.field::<String>("scheme").unwrap(), label);
    }
}
