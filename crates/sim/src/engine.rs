//! The slot-synchronous simulation engine.
//!
//! Each slot, every node's uplinks are connected according to the (phase-
//! staggered) circuit schedule; a node transmits at most one cell per
//! uplink into the circuit that is up. Cells propagate with a fixed delay
//! and are re-routed (or delivered) on arrival. Flow arrivals inject cells
//! at source NICs at line rate.
//!
//! The engine is fully deterministic — and deterministically *parallel*.
//! Routing randomness comes from per-node counter-based streams
//! ([`crate::rng::NodeRng`]), so a decision depends only on the seed, the
//! deciding node, and that node's decision count, never on cross-node
//! interleaving. The two heavy passes of a slot are sharded by node:
//!
//! * **arrival routing** — due arrivals are grouped by arrival node and
//!   routed node-ascending; queue pushes are node-local, while
//!   deliveries and drops are buffered per shard and applied in node
//!   order afterwards;
//! * **the transmit walk** — each shard walks its node range across all
//!   uplinks, popping node-local queues and buffering transmitted cells;
//!   the buffers merge into the arrival calendar in node order, so the
//!   canonical calendar order is `(node, uplink)`.
//!
//! Because every per-node mutation happens on the thread owning that
//! node's shard and every cross-node effect is applied in a canonical
//! node-ascending merge, a run with `SimConfig::engine_threads = k`
//! is bit-identical to the serial run for any `k`.
//!
//! The hot path is built on index-addressed state sized for warehouse
//! scale: a per-node *occupancy bitset* (one bit per node, set while
//! anything is queued there) lets the transmit walk skip 64 idle nodes
//! per word test, sparse per-node next-hop queues and a sparse per-link
//! transmission matrix keep memory linear in nodes rather than
//! quadratic, active flows live in struct-of-arrays columns behind a
//! direct-mapped id index ([`crate::flow_table::FlowTable`]), and a
//! slot-bucketed arrival calendar orders in-flight cells — no hashing
//! or heap rebalancing per transmitted cell. Slots with provably no
//! work (nothing queued, injecting, in flight, arriving, or faulting)
//! are jumped by one gap path ([`Engine::jump_quiet`]; a quiet
//! [`Engine::step`] is its one-slot case), touching only the idle-port
//! counters.
//!
//! There is one routing body ([`route_at`]) for every cell that
//! needs a decision: due arrivals, fresh injections, and queued cells
//! re-routed after a schedule swap all go through [`Engine::route_pass`],
//! and every slot, busy or quiet, ends in [`Engine::end_slots`].
//!
//! There is one transmit walk, for healthy and degraded fabrics alike
//! ([`run_transmit_shard`]). On a degraded fabric it pays a
//! [`FailureSet`] bit test per circuit it visits: a down circuit is
//! skipped, and the idle ports charged to a 64-node word up front
//! exclude the word's down ports, which are counted once per failure
//! epoch rather than once per slot. On a healthy fabric it pays nothing:
//! the body is specialised on whether anything has failed.

use crate::calendar::SlotCalendar;
use crate::cell::{Cell, Flow, FlowId};
use crate::checkpoint::{QueuesSnap, RestoreError, Snapshot};
use crate::config::{Nanos, SimConfig};
use crate::failure::FailureSet;
use crate::fault::{FaultPlan, FaultView, LinkHealth};
use crate::flow_table::FlowTable;
use crate::metrics::{FlowRecord, LinkMatrix, LinkRow, Metrics};
use crate::par::WorkerPool;
use crate::probe::{NoopProbe, Probe, SkipView, SlotView};
use crate::profiler::{NoopProfiler, Phase, Profiler};
use crate::queues::NodeQueues;
use crate::rng::NodeRng;
use crate::router::{ClassId, RouteDecision, Router};
use crate::trace::{circuit_wait_slots, FlowSampler, HopEvent, HopKind};
use sorn_topology::{CircuitSchedule, Matching, NodeId};
use std::cell::Cell as MemoCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::sync::Mutex;

/// Below this many due arrivals the routing pass runs inline even when a
/// pool is attached — fan-out overhead would exceed the routing work.
/// The inline path processes the identical canonical (node-ascending)
/// order, so the cutover is invisible in the results.
const PAR_MIN_ARRIVALS: usize = 64;

/// Errors surfaced by a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A cell exceeded the router's hop bound — a routing bug.
    HopBoundExceeded {
        /// The offending flow.
        flow: FlowId,
        /// Hops taken.
        hops: u8,
        /// The router's declared bound.
        bound: u8,
    },
    /// A flow references a node outside the schedule.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Network size.
        n: usize,
    },
    /// A flow arrived while another flow with its id was still live.
    /// An id may be reused once its flow has completed.
    DuplicateFlowId {
        /// The id both flows carry.
        flow: FlowId,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::HopBoundExceeded { flow, hops, bound } => write!(
                f,
                "flow {flow:?}: cell took {hops} hops, exceeding the router bound {bound}"
            ),
            SimError::NodeOutOfRange { node, n } => {
                write!(f, "flow endpoint {node} outside network of {n} nodes")
            }
            SimError::DuplicateFlowId { flow } => {
                write!(f, "flow {flow:?} arrived while a flow with its id is live")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A cell at a node awaiting a routing decision: in flight until `at_ns`
/// (the arrival calendar holds these), or injected or re-routed there
/// at `at_ns`.
///
/// Ordering lives in the calendar ring: cells transmitted in slot `s`
/// all mature a fixed number of slots later and drain FIFO in the
/// canonical `(node, uplink)` transmit-merge order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Arrival {
    pub(crate) at_ns: Nanos,
    pub(crate) node: NodeId,
    pub(crate) cell: Cell,
}

/// Per-shard output of the sharded passes. Shards write only here (and
/// into their own slice of node state); the engine folds the scratch
/// back into global state in shard (= node) order.
#[derive(Debug, Default)]
struct ShardScratch {
    /// Routing passes: cells delivered at their destination, with the
    /// arrival timestamp, in canonical node order.
    deliveries: Vec<(Cell, Nanos)>,
    /// Routing passes: cells shed by the router or a full queue.
    drops: Vec<(NodeId, Cell, Nanos)>,
    /// Transmit pass: cells put on circuits, `(sender, arrival node,
    /// cell)`, in `(node, uplink)` order.
    sent: Vec<(NodeId, NodeId, Cell)>,
    /// Hop events of traced flows, in canonical order within the shard.
    /// Always empty when tracing is off.
    hops: Vec<HopEvent>,
    /// Net change to the global queued-cell count.
    queued_delta: isize,
    /// Net change to the incremental stranded-cell count (only
    /// meaningful while tracking is active).
    stranded_delta: i64,
    transmissions: u64,
    idle: u64,
    /// Links whose count left zero in this shard's matrix band.
    links_nonzero_delta: usize,
    /// First hop-bound violation seen by this shard, in canonical order.
    err: Option<SimError>,
}

impl ShardScratch {
    /// Prepares the scratch for a pass; the event buffers were drained
    /// by the previous merge and keep their capacity.
    fn reset(&mut self) {
        debug_assert!(self.deliveries.is_empty() && self.drops.is_empty() && self.sent.is_empty());
        debug_assert!(self.hops.is_empty());
        self.queued_delta = 0;
        self.stranded_delta = 0;
        self.transmissions = 0;
        self.idle = 0;
        self.links_nonzero_delta = 0;
        self.err = None;
    }
}

/// Memo for [`Engine::count_stranded`]: valid while the failure epoch
/// matches and queue mutations have been tracked incrementally.
#[derive(Debug, Clone, Copy, Default)]
struct StrandedMemo {
    valid: bool,
    epoch: u64,
    count: u64,
}

/// A pass's exclusive view of a contiguous node range. Ranges start on
/// a multiple of 64, so the per-node bitsets split on word boundaries.
trait Shard: Send + Sized {
    /// Nodes in the range.
    fn nodes(&self) -> usize;
    /// Cuts the range at node `at` (a multiple of 64): keeps the nodes
    /// below it and returns the rest as a shard of its own.
    fn split_off(&mut self, at: usize) -> Self;
}

/// Cuts `items` at `at`: keeps the head in place and returns the tail.
fn cut<'w, T>(items: &mut &'w mut [T], at: usize) -> &'w mut [T] {
    let (head, tail) = std::mem::take(items).split_at_mut(at);
    *items = head;
    tail
}

/// One shard of a routing pass: a node range with exclusive access to
/// those nodes' queues, RNG streams, per-node cell index lists, and
/// occupancy words.
struct RouteShard<'w> {
    base: usize,
    queues: &'w mut [NodeQueues],
    rngs: &'w mut [NodeRng],
    lists: &'w mut [Vec<u32>],
    occ: &'w mut [u64],
}

impl Shard for RouteShard<'_> {
    fn nodes(&self) -> usize {
        self.queues.len()
    }

    fn split_off(&mut self, at: usize) -> Self {
        RouteShard {
            base: self.base + at,
            queues: cut(&mut self.queues, at),
            rngs: cut(&mut self.rngs, at),
            lists: cut(&mut self.lists, at),
            occ: cut(&mut self.occ, at / 64),
        }
    }
}

/// One shard of the transmit walk: a node range plus its link-matrix
/// rows and occupancy words.
struct TransmitShard<'w> {
    base: usize,
    queues: &'w mut [NodeQueues],
    links: &'w mut [LinkRow],
    occ: &'w mut [u64],
}

impl Shard for TransmitShard<'_> {
    fn nodes(&self) -> usize {
        self.queues.len()
    }

    fn split_off(&mut self, at: usize) -> Self {
        TransmitShard {
            base: self.base + at,
            queues: cut(&mut self.queues, at),
            links: cut(&mut self.links, at),
            occ: cut(&mut self.occ, at / 64),
        }
    }
}

/// Precomputed per-matching port tables for the bitset transmit walk.
///
/// `words[m][w]` counts the scheduled (non-self) ports of pool matching
/// `m` among nodes `64w .. 64w+63`: when an occupancy word is zero, the
/// walk charges that many idle ports and skips 64 nodes without touching
/// a queue. `phase_totals`/`period_total` pre-sum those circuit totals
/// per schedule phase, which is all a provably-quiet gap — one slot or
/// many — needs ([`Engine::jump_quiet`]).
struct IdleTables {
    words: Vec<Vec<u32>>,
    /// Per pool matching `m`, the failure epoch its counts were taken at
    /// and the counts: `down[m].1[w]` is how many ports of `words[m][w]`
    /// have their circuit down — neither idle nor transmitting. Filled by
    /// [`IdleTables::refresh_down`] for the matchings a degraded slot
    /// walks; a run that never degrades never allocates it.
    down: Vec<(Option<u64>, Vec<u32>)>,
    /// `phase_totals[p]` sums the matchings' circuit totals over the
    /// uplink-staggered matchings active when `slot % period == p` — the
    /// idle-port charge of one fully-quiet slot at that phase. Summed in
    /// uplink order, exactly like the per-slot accounting it replaces.
    phase_totals: Vec<u64>,
    /// Sum of `phase_totals`: the idle-port charge of one whole quiet
    /// schedule period, for closed-form gap accounting.
    period_total: u64,
}

impl IdleTables {
    fn build(schedule: &CircuitSchedule, cfg: &SimConfig) -> Self {
        let n = schedule.n();
        let pool = schedule.matchings();
        let mut words = Vec::with_capacity(pool.len());
        let mut totals = Vec::with_capacity(pool.len());
        for m in pool {
            let mut per = vec![0u32; n.div_ceil(64)];
            let mut total = 0u64;
            for v in 0..n {
                if m.dst_of(NodeId(v as u32)).is_some() {
                    per[v / 64] += 1;
                    total += 1;
                }
            }
            words.push(per);
            totals.push(total);
        }
        let period = schedule.period() as u64;
        let phase_totals: Vec<u64> = (0..period)
            .map(|phase| {
                staggered_matchings(schedule, cfg, phase)
                    .iter()
                    .map(|&(pi, _)| totals[pi])
                    .sum()
            })
            .collect();
        let period_total = phase_totals.iter().sum();
        IdleTables {
            words,
            down: Vec::new(),
            phase_totals,
            period_total,
        }
    }

    /// Brings the down-port counts of `active`'s matchings up to failure
    /// epoch `epoch`, recounting only those last counted at another one.
    fn refresh_down(&mut self, active: &[(usize, &Matching)], failures: &FailureSet, epoch: u64) {
        if self.down.is_empty() {
            self.down = vec![(None, Vec::new()); self.words.len()];
        }
        for &(pi, matching) in active {
            let (counted_at, down) = &mut self.down[pi];
            if *counted_at == Some(epoch) {
                continue;
            }
            down.clear();
            down.resize(self.words[pi].len(), 0);
            for (v, w) in matching.circuits() {
                if !failures.circuit_up(v, w) {
                    down[v.index() / 64] += 1;
                }
            }
            *counted_at = Some(epoch);
        }
    }
}

/// The uplink-staggered matchings active in `slot`, each with its index
/// into the schedule's matching pool (the key into [`IdleTables`]).
fn staggered_matchings<'a>(
    schedule: &'a CircuitSchedule,
    cfg: &SimConfig,
    slot: u64,
) -> Vec<(usize, &'a Matching)> {
    let period = schedule.period() as u64;
    let indices = schedule.slot_indices();
    let pool = schedule.matchings();
    (0..cfg.uplinks)
        .map(|uplink| {
            let offset = (uplink as u64 * period) / cfg.uplinks as u64;
            let pi = indices[((slot + offset) % period) as usize];
            (pi, &pool[pi])
        })
        .collect()
}

/// Runs `work` over a pass's shards, each with its own scratch, and
/// returns how many there were. Without a pool `whole` is the one shard,
/// run inline on the caller's thread; with one, `whole` is cut into
/// shards of `ceil(n / threads)` nodes rounded up to whole 64-node words
/// (so at most one per thread), which the pool's threads claim by index.
/// Only the pooled case allocates.
fn for_each_shard<S: Shard>(
    pool: Option<&WorkerPool>,
    mut whole: S,
    scratch: &mut [ShardScratch],
    work: impl Fn(&mut S, &mut ShardScratch) + Sync,
) -> usize {
    let Some(pool) = pool else {
        scratch[0].reset();
        work(&mut whole, &mut scratch[0]);
        return 1;
    };
    let chunk = whole.nodes().div_ceil(pool.threads()).next_multiple_of(64);
    let mut outs = scratch.iter_mut();
    let mut slots = Vec::new();
    loop {
        let rest = (whole.nodes() > chunk).then(|| whole.split_off(chunk));
        let out = outs.next().expect("one scratch per shard");
        out.reset();
        slots.push(Mutex::new(Some((whole, out))));
        match rest {
            Some(rest) => whole = rest,
            None => break,
        }
    }
    pool.run(slots.len(), &|i| {
        let (mut shard, out) = slots[i]
            .lock()
            .expect("shard slot poisoned")
            .take()
            .expect("each shard is claimed once");
        work(&mut shard, out);
    });
    slots.len()
}

/// The simulation engine.
///
/// Generic over a [`Probe`] for instrumentation and a [`Profiler`]
/// for self-profiling; the defaults ([`NoopProbe`], [`NoopProfiler`])
/// compile both away, so `Engine::new` builds an uninstrumented
/// engine with zero overhead. Use [`Engine::with_probe`] to attach a
/// real probe and [`Engine::with_probe_and_profiler`] to also time
/// the engine's own phases.
pub struct Engine<'a, P: Probe = NoopProbe, F: Profiler = NoopProfiler> {
    cfg: SimConfig,
    schedule: &'a CircuitSchedule,
    router: &'a dyn Router,
    queues: Vec<NodeQueues>,
    /// One decision stream per node; parallel shards borrow disjoint
    /// ranges, so streams never contend and never reorder.
    rngs: Vec<NodeRng>,
    /// Flows not yet arrived, sorted by arrival time; keys index
    /// `future_store`.
    future_flows: BinaryHeap<Reverse<(Nanos, u64)>>,
    /// Pending flows in add order; activation `take`s them out.
    future_store: Vec<Option<Flow>>,
    future_pending: usize,
    /// Flows currently injecting, per source node (FIFO per node);
    /// entries are slots into `table`.
    injecting: Vec<VecDeque<usize>>,
    injecting_flows: usize,
    /// One bit per node, set exactly while `injecting[v]` is non-empty;
    /// injection walks set bits instead of every node's list. Derived
    /// state: rebuilt from the lists on restore, never checkpointed.
    injecting_occ: Vec<u64>,
    /// Active flows in struct-of-arrays columns with a direct-mapped id
    /// index — no hash probe per delivered cell.
    table: FlowTable,
    /// One bit per node, set exactly while that node has queued cells;
    /// the transmit walk tests 64 nodes per word.
    occupancy: Vec<u64>,
    /// Per-matching scheduled-port counts; rebuilt on schedule installs.
    idle_tables: IdleTables,
    inflight: SlotCalendar<Arrival>,
    /// Cells sitting in node queues, maintained incrementally so
    /// `total_queued`/`is_drained` are O(1) (debug builds re-count).
    queued_cells: usize,
    failures: FailureSet,
    /// Bumped whenever the failure set may have changed (scripted
    /// events, `failures_mut` borrows); stale epochs invalidate the
    /// stranded memo.
    failure_epoch: u64,
    /// Incremental stranded-cell count; see [`Engine::count_stranded`].
    stranded: MemoCell<StrandedMemo>,
    fault_plan: FaultPlan,
    fault_cursor: usize,
    health_mirror: Option<LinkHealth>,
    /// The failure epoch the mirror last published; see
    /// [`Engine::sync_health_mirror`].
    mirror_epoch: u64,
    episode: EpisodeState,
    metrics: Metrics,
    slot: u64,
    /// Present when `cfg.engine_threads > 1`; `None` keeps every pass
    /// on the caller's thread.
    pool: Option<WorkerPool>,
    /// Reusable per-shard scratch, one per engine thread (a pass runs at
    /// most one shard per thread).
    shards: Vec<ShardScratch>,
    /// The cells of the routing pass in progress: due arrivals,
    /// injections or re-routed queued cells (reused).
    route_buf: Vec<Arrival>,
    /// Per-node indices into `route_buf`, giving the canonical
    /// node-grouped processing order (reused; cleared by the shards).
    node_cells: Vec<Vec<u32>>,
    /// Flow records completed during a merge, applied after the deliver
    /// span closes (reused).
    finished_flows: Vec<FlowRecord>,
    /// Present when `cfg.trace_one_in > 0`: decides which flows get
    /// hop-by-hop spans. Pure hash of `(seed, flow id)` — it never
    /// draws from the routing streams, so tracing cannot perturb a run.
    tracer: Option<FlowSampler>,
    probe: P,
    profiler: F,
}

/// Tracks the failure episode the engine is in, for time-to-recover.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EpisodeState {
    /// Total queue depth when the current episode began.
    pub(crate) onset_queued: usize,
    /// Set while at least one element is failed.
    pub(crate) degraded: bool,
    /// After full restoration: the restore time, awaiting queue recovery.
    pub(crate) awaiting_recovery_since: Option<Nanos>,
}

impl<'a> Engine<'a, NoopProbe, NoopProfiler> {
    /// Creates an uninstrumented engine over a schedule and routing
    /// scheme.
    pub fn new(cfg: SimConfig, schedule: &'a CircuitSchedule, router: &'a dyn Router) -> Self {
        Engine::with_probe(cfg, schedule, router, NoopProbe)
    }

    /// Rebuilds an uninstrumented engine from a snapshot; see
    /// [`Engine::restore_with_probe_and_profiler`] for the validation
    /// contract.
    pub fn restore(
        snapshot: &Snapshot,
        schedule: &'a CircuitSchedule,
        router: &'a dyn Router,
    ) -> Result<Self, RestoreError> {
        Engine::restore_with_probe(snapshot, schedule, router, NoopProbe)
    }
}

impl<'a, P: Probe> Engine<'a, P, NoopProfiler> {
    /// Creates an engine whose run is observed by `probe`.
    pub fn with_probe(
        cfg: SimConfig,
        schedule: &'a CircuitSchedule,
        router: &'a dyn Router,
        probe: P,
    ) -> Self {
        Engine::with_probe_and_profiler(cfg, schedule, router, probe, NoopProfiler)
    }

    /// Rebuilds an engine observed by `probe` from a snapshot; see
    /// [`Engine::restore_with_probe_and_profiler`] for the validation
    /// contract.
    pub fn restore_with_probe(
        snapshot: &Snapshot,
        schedule: &'a CircuitSchedule,
        router: &'a dyn Router,
        probe: P,
    ) -> Result<Self, RestoreError> {
        Engine::restore_with_probe_and_profiler(snapshot, schedule, router, probe, NoopProfiler)
    }
}

impl<'a, P: Probe, F: Profiler> Engine<'a, P, F> {
    /// Creates an engine observed by `probe` whose own phase timings
    /// go to `profiler`.
    pub fn with_probe_and_profiler(
        cfg: SimConfig,
        schedule: &'a CircuitSchedule,
        router: &'a dyn Router,
        probe: P,
        profiler: F,
    ) -> Self {
        let n = schedule.n();
        assert!(cfg.slot_ns > 0, "slot_ns must be positive");
        // Fixed propagation: every cell transmitted in slot `s` is
        // processed at the start of slot `s + delay_slots`.
        let delay_slots = (cfg.slot_ns + cfg.propagation_ns).div_ceil(cfg.slot_ns);
        Engine {
            rngs: (0..n)
                .map(|v| NodeRng::for_node(cfg.seed, v as u32))
                .collect(),
            schedule,
            router,
            queues: (0..n).map(|_| NodeQueues::new(router.classes())).collect(),
            future_flows: BinaryHeap::new(),
            future_store: Vec::new(),
            future_pending: 0,
            injecting: vec![VecDeque::new(); n],
            injecting_flows: 0,
            injecting_occ: vec![0; n.div_ceil(64)],
            table: FlowTable::new(),
            occupancy: vec![0; n.div_ceil(64)],
            idle_tables: IdleTables::build(schedule, &cfg),
            inflight: SlotCalendar::new(delay_slots),
            queued_cells: 0,
            failures: FailureSet::none(),
            failure_epoch: 0,
            stranded: MemoCell::new(StrandedMemo::default()),
            fault_plan: FaultPlan::new(),
            fault_cursor: 0,
            health_mirror: None,
            mirror_epoch: 0,
            episode: EpisodeState::default(),
            metrics: Metrics {
                link_transmissions: LinkMatrix::with_nodes(n),
                ..Metrics::default()
            },
            slot: 0,
            pool: (cfg.engine_threads > 1).then(|| WorkerPool::new(cfg.engine_threads)),
            shards: (0..cfg.engine_threads.max(1))
                .map(|_| ShardScratch::default())
                .collect(),
            route_buf: Vec::new(),
            node_cells: vec![Vec::new(); n],
            finished_flows: Vec::new(),
            tracer: (cfg.trace_one_in > 0).then(|| FlowSampler::new(cfg.seed, cfg.trace_one_in)),
            probe,
            profiler,
            cfg,
        }
    }

    /// Shared access to the attached probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Mutable access to the attached probe.
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Declares the run over: fires [`Probe::on_run_end`] with a final
    /// state view and returns the probe. Call after the last
    /// `run_until_drained`/`run_slots` so buffering probes (samplers,
    /// trace sinks) can emit their closing snapshot.
    pub fn finish(mut self) -> P {
        self.metrics.stranded_cells = self.count_stranded();
        self.probe.on_run_end(&SlotView {
            slot: self.slot,
            now_ns: self.cfg.slot_start(self.slot),
            metrics: &self.metrics,
            total_queued: self.total_queued(),
            inflight_cells: self.inflight.len(),
            active_flows: self.table.live_count(),
            queues: &self.queues,
        });
        self.probe
    }

    /// Queues flows for future arrival.
    pub fn add_flows(&mut self, flows: impl IntoIterator<Item = Flow>) -> Result<(), SimError> {
        let n = self.schedule.n();
        for f in flows {
            for node in [f.src, f.dst] {
                if node.index() >= n {
                    return Err(SimError::NodeOutOfRange { node, n });
                }
            }
            let key = self.future_store.len() as u64;
            self.future_flows.push(Reverse((f.arrival_ns, key)));
            self.future_store.push(Some(f));
            self.future_pending += 1;
        }
        Ok(())
    }

    /// Mutable access to the failure set (§6 blast-radius experiments).
    ///
    /// Manual pokes bypass the fault plan: no `on_fault` hook fires and
    /// no episode is tracked. An attached health mirror is republished
    /// before the engine next advances or re-routes. Prefer
    /// [`Engine::set_fault_plan`] for timed failures.
    pub fn failures_mut(&mut self) -> &mut FailureSet {
        // Conservatively assume the borrow mutates: a stale stranded
        // memo, down-port count or mirror is refreshed on next use.
        self.failure_epoch += 1;
        &mut self.failures
    }

    /// Shared access to the failure set.
    pub fn failures(&self) -> &FailureSet {
        &self.failures
    }

    /// Installs a timed fail/restore script. Events whose `at_ns` has
    /// been reached are applied at the start of each slot, in order,
    /// firing [`Probe::on_fault`] per event. Replaces any prior plan
    /// (its unapplied events are discarded).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
        self.fault_cursor = 0;
    }

    /// Attaches a health view that mirrors the engine's failure set.
    /// Published immediately and again whenever the failure set may have
    /// changed (applied fault events, [`Engine::failures_mut`] borrows)
    /// before the next slot routes, so failure-aware routers and the
    /// control plane share one picture of what is down.
    pub fn set_health_mirror(&mut self, health: LinkHealth) {
        health.publish(&self.failures);
        self.health_mirror = Some(health);
        self.mirror_epoch = self.failure_epoch;
    }

    /// Republishes the attached mirror if the failure epoch has moved
    /// since its last publish: one `u64` compare when nothing changed.
    fn sync_health_mirror(&mut self) {
        if self.mirror_epoch != self.failure_epoch {
            if let Some(health) = &self.health_mirror {
                health.publish(&self.failures);
            }
            self.mirror_epoch = self.failure_epoch;
        }
    }

    /// Collected metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Current slot number.
    pub fn now_slot(&self) -> u64 {
        self.slot
    }

    /// Total cells sitting in node queues. O(1): the engine maintains
    /// the count as cells are pushed and popped; debug builds assert it
    /// against the O(n) per-node recount.
    pub fn total_queued(&self) -> usize {
        debug_assert_eq!(
            self.queued_cells,
            self.queues.iter().map(|q| q.depth()).sum::<usize>(),
            "queued-cell counter must match the per-node recount"
        );
        self.queued_cells
    }

    /// True when no traffic remains anywhere in the system. O(1).
    pub fn is_drained(&self) -> bool {
        self.future_pending == 0
            && self.inflight.is_empty()
            && self.total_queued() == 0
            && self.injecting_flows == 0
    }

    /// Runs `slots` more slots; quiet gaps inside the range are jumped
    /// in O(1) per gap instead of O(slots) (see [`Engine::advance_to`]).
    pub fn run_slots(&mut self, slots: u64) -> Result<(), SimError> {
        let deadline = self.slot + slots;
        while self.slot < deadline {
            self.advance_to(deadline)?;
        }
        Ok(())
    }

    /// Runs until all traffic drains or `max_slots` elapse; returns `true`
    /// when fully drained.
    pub fn run_until_drained(&mut self, max_slots: u64) -> Result<bool, SimError> {
        let deadline = self.slot + max_slots;
        while self.slot < deadline {
            if self.is_drained() {
                return Ok(true);
            }
            self.advance_to(deadline)?;
        }
        // One more check: the last step may have drained the system.
        Ok(self.is_drained())
    }

    /// Does nothing: the engine always jumps quiet gaps. Kept only
    /// because the repo benchmark's harness still calls it; it goes
    /// once that call does.
    pub fn set_fast_forward(&mut self, _enabled: bool) {}

    /// True when this slot provably has no work: nothing queued or
    /// injecting, no arrival or flow activation due, no scripted fault
    /// firing, and a healthy fabric. Such a slot's only observable
    /// effects are idle-port counts and the per-slot hooks, so the gap
    /// path ([`Engine::jump_quiet`]) reproduces it in O(uplinks).
    fn slot_is_quiet(&self, now: Nanos) -> bool {
        self.queued_cells == 0
            && self.injecting_flows == 0
            && self.failures.is_empty()
            && self
                .inflight
                .next_due_slot()
                .is_none_or(|due| due > self.slot)
            && self
                .future_flows
                .peek()
                .is_none_or(|&Reverse((t, _))| t > now)
            && self
                .fault_plan
                .events()
                .get(self.fault_cursor)
                .is_none_or(|e| e.at_ns > now)
    }

    /// Advances at least one slot and at most to `target`, and returns
    /// how many slots it covered. A busy slot is stepped; a quiet one
    /// opens a gap that is jumped in one arithmetic step. The jump stops
    /// at the earliest of `target`, the next in-flight arrival, the
    /// first slot a pending flow activation lands in, and the first slot
    /// the next scripted [`FaultPlan`] event affects — exactly the
    /// conditions under which per-slot stepping would stop finding the
    /// slot quiet — and the attached probe's [`Probe::next_boundary_ns`]
    /// (an interval sampler's next mark). Reconfiguration and checkpoint
    /// boundaries are the *caller's* boundaries: pass the slot you would
    /// otherwise have stepped to (drivers that `install_schedule` or
    /// checkpoint at slot `s` pass `target = s`); epoch-series
    /// boundaries need no bound because probes batch whole spans exactly
    /// via [`Probe::on_slots_skipped`].
    ///
    /// No RNG is drawn in a quiet slot, so the skipped span is pure
    /// arithmetic: metrics, calendar head, checkpoint bytes, and every
    /// workspace probe's state end up bit-identical to calling
    /// [`Engine::step`] slot by slot, at any `engine_threads`.
    pub fn advance_to(&mut self, target: u64) -> Result<u64, SimError> {
        self.sync_health_mirror();
        let now = self.cfg.slot_start(self.slot);
        if !self.slot_is_quiet(now) {
            self.step_busy(now)?;
            return Ok(1);
        }
        let slot_ns = self.cfg.slot_ns;
        let mut bound = target;
        if let Some(due) = self.inflight.next_due_slot() {
            bound = bound.min(due);
        }
        if let Some(&Reverse((t, _))) = self.future_flows.peek() {
            // The activation drain admits flows with `t <= now`, so the
            // first slot that sees this flow is the first with
            // `slot_start(slot) >= t`.
            bound = bound.min(t.div_ceil(slot_ns));
        }
        if let Some(e) = self.fault_plan.events().get(self.fault_cursor) {
            bound = bound.min(e.at_ns.div_ceil(slot_ns));
        }
        if let Some(t) = self.probe.next_boundary_ns() {
            // The first slot whose end view carries `now_ns >= t` must
            // close the span: views are `(slot, now_ns = (slot-1) *
            // slot_ns)`, so that slot is `ceil(t / slot_ns) + 1`.
            bound = bound.min(t.div_ceil(slot_ns) + 1);
        }
        Ok(self.jump_quiet(bound.max(self.slot + 1)))
    }

    /// Jumps the provably-quiet slots `self.slot .. bound` (see
    /// [`Engine::slot_is_quiet`]) without walking any node: every
    /// scheduled port idles, so the idle counter advances by each active
    /// matching's precomputed circuit total and the calendar head keeps
    /// pace. A quiet [`Engine::step`] is the one-slot case and
    /// [`Engine::advance_to`] the batched one; either way the run stays
    /// bit-identical to walking every slot, checkpoints included.
    /// Returns the number of slots jumped.
    fn jump_quiet(&mut self, bound: u64) -> u64 {
        let now = self.cfg.slot_start(self.slot);
        let skipped = bound - self.slot;
        // Collapse the calendar's head-slot evolution: N quiet
        // `pop_due(s)` calls leave `head_slot = max(head, bound)`, the
        // same as one `pop_due(bound - 1)`.
        let stray = self.inflight.pop_due(bound - 1);
        debug_assert!(stray.is_none(), "quiet gap released an arrival");
        // Closed-form idle-port accounting: whole schedule periods in
        // one multiply, the remainder phase-by-phase. Identical u64 sums
        // to the per-slot loop; one slot charges exactly
        // `phase_totals[slot % period]`.
        let period = self.schedule.period() as u64;
        let whole = skipped / period;
        self.metrics.idle_circuit_slots += whole * self.idle_tables.period_total;
        for s in (self.slot + whole * period)..bound {
            self.metrics.idle_circuit_slots += self.idle_tables.phase_totals[(s % period) as usize];
        }
        self.end_slots(now, skipped, true);
        skipped
    }

    /// Closes `slots` slots, the first of which started at `now`: one
    /// busy slot, or a gap of quiet ones. All end-of-slot bookkeeping
    /// lives here — queue peak, failure slots, the stranded gauge, the
    /// recovery time of a repaired failure episode, the slot counters —
    /// followed by the probe hook: [`Probe::on_slot_end`] for one slot,
    /// [`Probe::on_slots_skipped`] for a longer gap.
    fn end_slots(&mut self, now: Nanos, slots: u64, quiet: bool) {
        let queued = self.total_queued();
        self.metrics.peak_queue_depth = self.metrics.peak_queue_depth.max(queued);
        if !self.failures.is_empty() {
            self.metrics.failure_slots += slots;
            // Keep the stranded gauge live while degraded: the first
            // query after a failure-set change walks the queues, then
            // the incremental count makes this O(1) per slot.
            self.metrics.stranded_cells = self.count_stranded();
        } else if self.metrics.stranded_cells != 0 {
            self.metrics.stranded_cells = 0;
        }
        // Recovery: the episode closes at the first slot end after the
        // restoration whose queues are back to their depth at failure
        // onset. A quiet gap's queues are empty, so its first slot does.
        if let Some(restored_at) = self.episode.awaiting_recovery_since {
            if queued <= self.episode.onset_queued {
                self.metrics
                    .recovery_times_ns
                    .push(now.saturating_sub(restored_at));
                self.episode.awaiting_recovery_since = None;
            }
        }
        self.slot += slots;
        self.metrics.slots = self.slot;
        if quiet {
            self.metrics.slots_skipped += slots;
        }
        let end = SlotView {
            slot: self.slot,
            now_ns: self.cfg.slot_start(self.slot - 1),
            metrics: &self.metrics,
            total_queued: queued,
            inflight_cells: self.inflight.len(),
            active_flows: self.table.live_count(),
            queues: &self.queues,
        };
        if slots == 1 {
            self.probe.on_slot_end(&end);
        } else {
            self.probe.on_slots_skipped(&SkipView {
                end,
                skipped: slots,
                slot_ns: self.cfg.slot_ns,
            });
        }
    }

    /// Advances exactly one slot: deliveries, arrivals, injection,
    /// transmission. Per-slot oracles drive the engine with this; runs
    /// use [`Engine::advance_to`], which jumps quiet gaps whole.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.advance_to(self.slot + 1).map(drop)
    }

    /// One slot that is not provably quiet, starting at `now`.
    fn step_busy(&mut self, now: Nanos) -> Result<(), SimError> {
        // 0. Scripted fault events due by this slot boundary take effect
        // before any routing, so this slot already sees the new health.
        {
            let _span = self.profiler.span(Phase::FaultApply);
            self.apply_due_faults(now);
        }

        // 1. Cells that have landed by the start of this slot, routed in
        // canonical node order (sharded across the pool when present).
        let mut due = std::mem::take(&mut self.route_buf);
        while let Some(arrival) = self.inflight.pop_due(self.slot) {
            debug_assert!(arrival.at_ns <= now, "calendar released a cell early");
            due.push(arrival);
        }
        self.route_pass(due, false);

        // 2. Newly arrived flows begin injecting.
        let enqueue_span = self.profiler.span(Phase::Enqueue);
        while let Some(Reverse((t, _key))) = self.future_flows.peek() {
            if *t > now {
                break;
            }
            let (_, key) = self.future_flows.pop().expect("peeked").0;
            let flow = self.future_store[key as usize].take().expect("stored flow");
            self.future_pending -= 1;
            let total_cells = flow.cell_count(self.cfg.cell_bytes);
            let slot = self.table.insert(&flow, total_cells)?;
            self.probe.on_flow_start(&flow, now);
            let src = flow.src.index();
            self.injecting[src].push_back(slot);
            self.injecting_flows += 1;
            self.injecting_occ[src / 64] |= 1u64 << (src % 64);
        }
        drop(enqueue_span);

        // 3. Source NICs inject at line rate (uplinks cells per slot).
        // Only nodes with a flow to inject are visited, in ascending node
        // order; the cells then take one serial routing pass, so each
        // node's decisions (and RNG draws) keep their order.
        let mut injected = std::mem::take(&mut self.route_buf);
        for w in 0..self.injecting_occ.len() {
            let mut bits = self.injecting_occ[w];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let src = w * 64 + b;
                for _ in 0..self.cfg.uplinks {
                    let Some(&slot) = self.injecting[src].front() else {
                        break;
                    };
                    let (cell, done_injecting) = self.table.next_cell(slot, now);
                    injected.push(Arrival {
                        at_ns: now,
                        node: cell.src,
                        cell,
                    });
                    if done_injecting {
                        self.injecting[src].pop_front();
                        self.injecting_flows -= 1;
                    }
                }
                if self.injecting[src].is_empty() {
                    self.injecting_occ[w] &= !(1u64 << b);
                }
            }
        }
        self.metrics.injected_cells += injected.len() as u64;
        self.route_pass(injected, true);

        // 4. Transmit one cell per uplink per node along the schedule,
        // sharded by node; shard outputs merge in node order, giving
        // the calendar its canonical `(node, uplink)` arrival order.
        let transmit_err = self.transmit_pass(now);
        self.end_slots(now, 1, false);
        transmit_err
    }

    /// Routes `cells` — due arrivals, fresh injections, or queued cells
    /// re-routed after a schedule swap — each at its `node`, then
    /// applies what the routing produced in canonical node order.
    ///
    /// Each node decides its cells node-ascending, in `cells` order
    /// within a node ([`route_at`]): queue pushes are node-local,
    /// while deliveries, drops and hop events are buffered per shard.
    /// `in_order` cells (injection, re-route) are already node-ascending
    /// and run as one inline shard; arrivals are grouped by node first,
    /// and a large batch shards across the worker pool. The merge then
    /// fires, shard by shard, every hop event, delivery and drop, and
    /// after the last shard the finished flows.
    fn route_pass(&mut self, mut cells: Vec<Arrival>, in_order: bool) {
        if cells.is_empty() {
            self.route_buf = cells;
            return;
        }
        let track = self.stranded_tracking();
        let mut lists = std::mem::take(&mut self.node_cells);
        if !in_order {
            for (i, a) in cells.iter().enumerate() {
                lists[a.node.index()].push(i as u32);
            }
        }
        let pool = (!in_order && cells.len() >= PAR_MIN_ARRIVALS)
            .then_some(self.pool.as_ref())
            .flatten();
        let mut scratch = std::mem::take(&mut self.shards);
        let shards_used;
        {
            let _route_span = self.profiler.span(Phase::Route);
            let ctx = RouteCtx {
                router: self.router,
                cfg: &self.cfg,
                failures: &self.failures,
                track_stranded: track,
                tracer: self.tracer,
                schedule: self.schedule,
                slot: self.slot,
            };
            let cells: &[Arrival] = &cells;
            let whole = RouteShard {
                base: 0,
                queues: &mut self.queues,
                rngs: &mut self.rngs,
                lists: &mut lists,
                occ: &mut self.occupancy,
            };
            shards_used = for_each_shard(pool, whole, &mut scratch, |shard, out| {
                run_route_shard(shard, out, cells, in_order, &ctx);
            });
        }

        // Merge, in shard (= node) order: deliveries under the deliver
        // span, completion records after it — flow bookkeeping and its
        // probe hooks are not per-cell delivery work (BENCH once showed
        // a 14x deliver-mean skew from exactly this misattribution).
        let mut finished = std::mem::take(&mut self.finished_flows);
        debug_assert!(finished.is_empty());
        for s in &mut scratch[..shards_used] {
            self.queued_cells = (self.queued_cells as isize + s.queued_delta) as usize;
            if track {
                self.stranded_adjust(s.stranded_delta);
            }
            for ev in s.hops.drain(..) {
                self.probe.on_hop(&ev);
            }
            for (cell, at_ns) in s.deliveries.drain(..) {
                // One span per delivered cell: `Deliver.calls` equals
                // delivered cells.
                let span = self.profiler.span(Phase::Deliver);
                let record = self.apply_delivery(cell, at_ns);
                drop(span);
                if let Some(record) = record {
                    finished.push(record);
                }
            }
            for (node, cell, at_ns) in s.drops.drain(..) {
                self.metrics.dropped_cells += 1;
                self.probe.on_drop(&cell, node, at_ns);
            }
        }
        for record in finished.drain(..) {
            self.probe.on_flow_finish(&record, record.completion_ns);
            self.metrics.flows.push(record);
        }
        self.finished_flows = finished;
        cells.clear();
        self.route_buf = cells;
        self.node_cells = lists;
        self.shards = scratch;
    }

    /// The transmit walk, sharded by node range; merges shard outputs
    /// (calendar pushes, counters, first error) in node order.
    fn transmit_pass(&mut self, now: Nanos) -> Result<(), SimError> {
        let transmit_span = self.profiler.span(Phase::Transmit);
        let track = self.stranded_tracking();
        let n = self.queues.len();
        let matchings = staggered_matchings(self.schedule, &self.cfg, self.slot);
        let walk = if self.failures.is_empty() {
            run_transmit_shard::<false>
        } else {
            self.idle_tables
                .refresh_down(&matchings, &self.failures, self.failure_epoch);
            run_transmit_shard::<true>
        };
        let mut scratch = std::mem::take(&mut self.shards);
        let shards_used;
        {
            let router = self.router;
            let cfg = &self.cfg;
            let failures = &self.failures;
            let slot = self.slot;
            let tracer = self.tracer;
            let tables = &self.idle_tables;
            let matchings = &matchings[..];
            let links = self.metrics.link_transmissions.rows_mut();
            debug_assert_eq!(links.len(), n, "link matrix must match the network size");
            let whole = TransmitShard {
                base: 0,
                queues: &mut self.queues,
                links,
                occ: &mut self.occupancy,
            };
            shards_used = for_each_shard(self.pool.as_ref(), whole, &mut scratch, |shard, out| {
                walk(
                    shard, out, router, cfg, matchings, tables, slot, failures, track, tracer,
                );
            });
        }
        let mut err = None;
        let at_ns = now + self.cfg.slot_ns + self.cfg.propagation_ns;
        for s in &mut scratch[..shards_used] {
            self.queued_cells = (self.queued_cells as isize + s.queued_delta) as usize;
            if track {
                self.stranded_adjust(s.stranded_delta);
            }
            self.metrics.transmissions += s.transmissions;
            self.metrics.idle_circuit_slots += s.idle;
            self.metrics
                .link_transmissions
                .add_nonzero(s.links_nonzero_delta);
            for ev in s.hops.drain(..) {
                self.probe.on_hop(&ev);
            }
            for (from, node, cell) in s.sent.drain(..) {
                self.probe.on_transmit(&cell, from, node, now);
                self.inflight.push(self.slot, Arrival { at_ns, node, cell });
            }
            if err.is_none() {
                err = s.err.take();
            }
        }
        self.shards = scratch;
        drop(transmit_span);
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Applies every scripted fault event due by `now`, firing the
    /// probe's `on_fault` hook per event and maintaining the failure-
    /// episode bookkeeping behind the recovery-time metric.
    fn apply_due_faults(&mut self, now: Nanos) {
        let mut applied = false;
        while let Some(&event) = self.fault_plan.events().get(self.fault_cursor) {
            if event.at_ns > now {
                break;
            }
            self.fault_cursor += 1;
            let was_healthy = self.failures.is_empty();
            event.apply(&mut self.failures);
            applied = true;
            if was_healthy && !self.failures.is_empty() {
                self.metrics.failure_episodes += 1;
                self.episode.degraded = true;
                self.episode.onset_queued = self.total_queued();
                self.episode.awaiting_recovery_since = None;
            } else if !was_healthy && self.failures.is_empty() {
                self.episode.degraded = false;
                self.episode.awaiting_recovery_since = Some(now);
            }
            self.probe.on_fault(&FaultView {
                event: &event,
                slot: self.slot,
                now_ns: now,
                failed_nodes: self.failures.failed_nodes(),
                failed_links: self.failures.failed_links(),
            });
        }
        if applied {
            self.failure_epoch += 1;
            self.sync_health_mirror();
        }
    }

    /// Cells currently propagating on circuits.
    pub fn inflight_cells(&self) -> usize {
        self.inflight.len()
    }

    /// Counts queued cells that cannot make progress under the current
    /// failure set: cells whose destination node is failed, and cells
    /// waiting on a specific next hop whose circuit is down. Class-queued
    /// cells with a live destination are not stranded — any admissible
    /// circuit can still carry them.
    ///
    /// The first call after a failure-set change walks every queued
    /// cell; while the failure set is stable the count is maintained
    /// incrementally on queue pushes and pops, so repeated calls (the
    /// engine refreshes `Metrics::stranded_cells` every degraded slot)
    /// are O(1). Within one failure epoch a queued cell's strandedness
    /// is constant, which is what makes push/pop deltas sufficient;
    /// debug builds assert the incremental count against the walk.
    pub fn count_stranded(&self) -> u64 {
        if self.failures.is_empty() {
            return 0;
        }
        let memo = self.stranded.get();
        if memo.valid && memo.epoch == self.failure_epoch {
            debug_assert_eq!(
                memo.count,
                self.count_stranded_brute(),
                "incremental stranded count must match the brute-force walk"
            );
            return memo.count;
        }
        let count = self.count_stranded_brute();
        self.stranded.set(StrandedMemo {
            valid: true,
            epoch: self.failure_epoch,
            count,
        });
        count
    }

    /// The O(queued cells) reference walk behind [`Engine::count_stranded`].
    fn count_stranded_brute(&self) -> u64 {
        let mut stranded = 0u64;
        for (v, queues) in self.queues.iter().enumerate() {
            let v = NodeId(v as u32);
            for (next, cell) in queues.iter_cells() {
                let dead_dst = self.failures.node_failed(cell.dst);
                let dead_hop = next.is_some_and(|w| !self.failures.circuit_up(v, w));
                if dead_dst || dead_hop {
                    stranded += 1;
                }
            }
        }
        stranded
    }

    /// True when the stranded memo is live and per-push/pop deltas keep
    /// it exact — i.e. a failure set is active and unchanged since the
    /// memo was computed.
    fn stranded_tracking(&self) -> bool {
        let memo = self.stranded.get();
        memo.valid && memo.epoch == self.failure_epoch && !self.failures.is_empty()
    }

    /// Folds a queue-mutation delta into the live stranded memo.
    fn stranded_adjust(&self, delta: i64) {
        if delta == 0 {
            return;
        }
        let mut memo = self.stranded.get();
        debug_assert!(memo.valid && memo.epoch == self.failure_epoch);
        memo.count = (memo.count as i64 + delta) as u64;
        self.stranded.set(memo);
    }

    /// Drops the stranded memo outright (bulk queue surgery).
    fn stranded_invalidate(&self) {
        self.stranded.set(StrandedMemo::default());
    }

    /// Applies one delivery to the metrics and flow slab; returns the
    /// completion record when this cell finished its flow. The caller
    /// pushes the record and fires `on_flow_finish` outside the deliver
    /// span.
    fn apply_delivery(&mut self, cell: Cell, now: Nanos) -> Option<FlowRecord> {
        let latency = now.saturating_sub(cell.injected_ns);
        self.metrics
            .on_delivered(cell.hops, latency, self.cfg.cell_bytes);
        if !self.failures.is_empty() {
            self.metrics.delivered_during_failure += 1;
        }
        self.probe.on_delivery(&cell, latency, now);
        self.table.record_delivery(cell.flow, cell.hops, now)
    }

    /// Installs a new circuit schedule mid-run — the §5 update operation
    /// at packet level. Cells already queued keep their routing
    /// decisions; call [`Engine::reroute_queued`] afterwards to re-route
    /// them under the new topology (the "drain" step).
    ///
    /// # Panics
    /// Panics if the new schedule covers a different node count.
    pub fn install_schedule(&mut self, schedule: &'a CircuitSchedule) {
        assert_eq!(
            schedule.n(),
            self.schedule.n(),
            "schedule update must cover the same nodes"
        );
        let _span = self.profiler.span(Phase::Reconfigure);
        self.schedule = schedule;
        self.idle_tables = IdleTables::build(schedule, &self.cfg);
        self.probe
            .on_reconfiguration(self.slot, self.cfg.slot_start(self.slot));
    }

    /// Drains every queued cell and re-routes it from its current node —
    /// used after a schedule update to re-validate routing state (§5).
    ///
    /// Returns the number of cells re-routed.
    pub fn reroute_queued(&mut self) -> Result<usize, SimError> {
        let now = self.cfg.slot_start(self.slot);
        self.sync_health_mirror();
        // Bulk surgery: strandedness is recomputed on the next query.
        self.stranded_invalidate();
        let mut cells = std::mem::take(&mut self.route_buf);
        for (v, queues) in self.queues.iter_mut().enumerate() {
            let node = NodeId(v as u32);
            cells.extend(queues.drain_all().into_iter().map(|cell| Arrival {
                at_ns: now,
                node,
                cell,
            }));
        }
        let total = cells.len();
        self.queued_cells -= total;
        // The routing pass re-sets a node's bit whenever anything lands
        // back in its queues.
        self.occupancy.fill(0);
        self.route_pass(cells, true);
        Ok(total)
    }

    /// Captures the complete engine state as a [`Snapshot`].
    ///
    /// Valid at slot boundaries only — that is, between calls to
    /// [`Engine::step`]/[`Engine::run_slots`], which is the only time a
    /// caller can observe the engine anyway. Restoring the snapshot
    /// (see [`Engine::restore`]) and running the remaining slots is
    /// bit-identical to never having stopped, at any
    /// `SimConfig::engine_threads`.
    ///
    /// The snapshot does not capture the schedule, the router, the
    /// probe, or an attached health mirror: the first two are borrowed
    /// configuration the restoring caller must rebuild (the snapshot
    /// *does* record the router's class ids and the network size so a
    /// mismatched rebuild is rejected), and the last two are
    /// re-attached explicitly. Run drivers persist probe state through
    /// [`Snapshot::attach_blob`].
    pub fn checkpoint(&self) -> Snapshot {
        let (delay_slots, head_slot, stamps, buckets) = self.inflight.parts();
        Snapshot {
            cfg: self.cfg,
            n: self.queues.len() as u64,
            slot: self.slot,
            class_ids: self.router.classes().iter().map(|c| c.0 as u16).collect(),
            rng_states: self.rngs.iter().map(|r| r.raw_state()).collect(),
            queues: self
                .queues
                .iter()
                .map(|q| {
                    let (specific, class) = q.export_cells();
                    QueuesSnap { specific, class }
                })
                .collect(),
            queued_cells: self.queued_cells as u64,
            cal_delay_slots: delay_slots,
            cal_head_slot: head_slot,
            cal_stamps: stamps.to_vec(),
            cal_buckets: buckets
                .iter()
                .map(|b| b.iter().copied().collect())
                .collect(),
            // Pending flows in ascending original-key order; restore
            // renumbers them 0..m, which preserves the arrival heap's
            // (arrival_ns, key) tie-break order exactly.
            future: self.future_store.iter().filter_map(|f| *f).collect(),
            injecting: self
                .injecting
                .iter()
                .map(|d| d.iter().map(|&i| i as u64).collect())
                .collect(),
            flows: self.table.clone(),
            failed_nodes: self
                .failures
                .failed_node_ids()
                .iter()
                .map(|n| n.0)
                .collect(),
            failed_links: self
                .failures
                .failed_link_ids()
                .iter()
                .map(|&(a, b)| (a.0, b.0))
                .collect(),
            failure_epoch: self.failure_epoch,
            fault_events: self.fault_plan.events().to_vec(),
            fault_cursor: self.fault_cursor as u64,
            episode: self.episode,
            metrics: self.metrics.clone(),
            blobs: Vec::new(),
        }
    }

    /// Rebuilds an engine from a snapshot, validating it against the
    /// schedule and router it will run with. The inverse of
    /// [`Engine::checkpoint`]; see [`Engine::restore`] for the
    /// uninstrumented convenience form.
    ///
    /// Every structural invariant is checked — node count, class ids,
    /// flow endpoints and injection lists, queue-count
    /// bookkeeping, calendar shape — so a decoded-but-inconsistent
    /// snapshot yields [`RestoreError`] rather than an engine that
    /// panics later.
    pub fn restore_with_probe_and_profiler(
        snapshot: &Snapshot,
        schedule: &'a CircuitSchedule,
        router: &'a dyn Router,
        probe: P,
        profiler: F,
    ) -> Result<Self, RestoreError> {
        let n = schedule.n();
        if snapshot.n as usize != n {
            return Err(RestoreError::NodeCountMismatch {
                snapshot: snapshot.n as usize,
                schedule: n,
            });
        }
        let router_classes: Vec<u16> = router.classes().iter().map(|c| c.0 as u16).collect();
        if snapshot.class_ids != router_classes {
            return Err(RestoreError::ClassMismatch {
                snapshot: snapshot.class_ids.clone(),
                router: router_classes,
            });
        }
        let cfg = snapshot.cfg;
        let bad = |reason: String| RestoreError::Inconsistent { reason };
        if cfg.slot_ns == 0 {
            return Err(bad("slot_ns is zero".into()));
        }
        let delay_slots = (cfg.slot_ns + cfg.propagation_ns).div_ceil(cfg.slot_ns);
        if snapshot.cal_delay_slots != delay_slots {
            return Err(bad(format!(
                "calendar delay {} does not match the config-derived {delay_slots}",
                snapshot.cal_delay_slots
            )));
        }
        if snapshot.rng_states.len() != n {
            return Err(bad(format!(
                "{} RNG streams for {n} nodes",
                snapshot.rng_states.len()
            )));
        }
        if snapshot.queues.len() != n {
            return Err(bad(format!(
                "{} queue sets for {n} nodes",
                snapshot.queues.len()
            )));
        }
        if snapshot.injecting.len() != n {
            return Err(bad(format!(
                "{} injection lists for {n} nodes",
                snapshot.injecting.len()
            )));
        }
        if snapshot.metrics.link_transmissions.dim() as usize != n {
            return Err(bad(format!(
                "link matrix covers {} nodes, network has {n}",
                snapshot.metrics.link_transmissions.dim()
            )));
        }

        // Active flows: decoding already checked the free list against
        // the vacant slots and that no id occupies two slots; endpoints
        // must lie in the network and injection lists name live slots.
        if let Some((id, ..)) = snapshot
            .flows
            .endpoints()
            .find(|(_, src, dst)| src.index() >= n || dst.index() >= n)
        {
            return Err(bad(format!("active flow {id:?} endpoint out of range")));
        }
        let mut injecting: Vec<VecDeque<usize>> = Vec::with_capacity(n);
        let mut injecting_flows = 0usize;
        for list in &snapshot.injecting {
            let mut deque = VecDeque::with_capacity(list.len());
            for &idx in list {
                let idx = idx as usize;
                if !snapshot.flows.is_live(idx) {
                    return Err(bad(format!("injection list references vacant slot {idx}")));
                }
                deque.push_back(idx);
            }
            injecting_flows += deque.len();
            injecting.push(deque);
        }

        // Queues: replay every FIFO through the same push paths a live
        // run uses. Class ids were validated against the router above,
        // so push_class cannot hit its undeclared-class panic.
        let mut queues: Vec<NodeQueues> =
            (0..n).map(|_| NodeQueues::new(router.classes())).collect();
        let mut queued_cells = 0usize;
        for (v, qs) in snapshot.queues.iter().enumerate() {
            for (next, cells) in &qs.specific {
                if *next as usize >= n {
                    return Err(bad(format!("queued cells for next hop {next} (n = {n})")));
                }
                for c in cells {
                    queues[v].push_specific(NodeId(*next), *c);
                }
                queued_cells += cells.len();
            }
            for (class, cells) in &qs.class {
                let id = u8::try_from(*class)
                    .map_err(|_| bad(format!("class id {class} out of range")))?;
                if !router_classes.contains(class) {
                    return Err(bad(format!("queued cells for undeclared class {class}")));
                }
                for c in cells {
                    queues[v].push_class(ClassId(id), *c);
                }
                queued_cells += cells.len();
            }
        }
        if queued_cells as u64 != snapshot.queued_cells {
            return Err(bad(format!(
                "queued-cell counter {} but {queued_cells} cells in queues",
                snapshot.queued_cells
            )));
        }

        for bucket in &snapshot.cal_buckets {
            for a in bucket {
                if a.node.index() >= n {
                    return Err(bad(format!("in-flight cell arriving at node {}", a.node)));
                }
            }
        }
        let inflight = SlotCalendar::from_parts(
            snapshot.cal_delay_slots,
            snapshot.cal_head_slot,
            snapshot.cal_stamps.clone(),
            snapshot
                .cal_buckets
                .iter()
                .map(|b| b.iter().copied().collect())
                .collect(),
        )
        .ok_or_else(|| bad("calendar ring shape is invalid".into()))?;

        let mut future_flows = BinaryHeap::with_capacity(snapshot.future.len());
        let mut future_store = Vec::with_capacity(snapshot.future.len());
        for f in &snapshot.future {
            if f.src.index() >= n || f.dst.index() >= n {
                return Err(bad(format!(
                    "pending flow {:?} endpoint out of range",
                    f.id
                )));
            }
            let key = future_store.len() as u64;
            future_flows.push(Reverse((f.arrival_ns, key)));
            future_store.push(Some(*f));
        }

        let mut failures = FailureSet::none();
        for &v in &snapshot.failed_nodes {
            // The node bitset is sized by the largest failed id.
            if v as usize >= n {
                return Err(bad(format!(
                    "failed node {v} outside the network (n = {n})"
                )));
            }
            failures.fail_node(NodeId(v));
        }
        for &(a, b) in &snapshot.failed_links {
            failures.fail_link(NodeId(a), NodeId(b));
        }
        // Events are stored sorted, so re-pushing in order rebuilds the
        // identical plan (ties keep their relative order).
        let mut fault_plan = FaultPlan::new();
        for e in &snapshot.fault_events {
            fault_plan.push(*e);
        }
        if snapshot.fault_cursor as usize > fault_plan.events().len() {
            return Err(bad(format!(
                "fault cursor {} past the {} scripted events",
                snapshot.fault_cursor,
                fault_plan.events().len()
            )));
        }

        let mut eng = Engine::with_probe_and_profiler(cfg, schedule, router, probe, profiler);
        eng.rngs = snapshot
            .rng_states
            .iter()
            .map(|&s| NodeRng::from_raw_state(s))
            .collect();
        eng.queues = queues;
        eng.future_pending = future_store.len();
        eng.future_flows = future_flows;
        eng.future_store = future_store;
        eng.injecting = injecting;
        eng.injecting_flows = injecting_flows;
        eng.table = snapshot.flows.clone();
        eng.inflight = inflight;
        eng.queued_cells = queued_cells;
        eng.failures = failures;
        // The stranded memo stays invalid: the next stranded query
        // recomputes the same count the uninterrupted run's incremental
        // memo holds.
        eng.failure_epoch = snapshot.failure_epoch;
        eng.mirror_epoch = snapshot.failure_epoch;
        eng.fault_plan = fault_plan;
        eng.fault_cursor = snapshot.fault_cursor as usize;
        eng.episode = snapshot.episode;
        eng.metrics = snapshot.metrics.clone();
        eng.slot = snapshot.slot;
        eng.rebuild_occupancy();
        Ok(eng)
    }

    /// Derives the `occupancy` and `injecting_occ` bits from the queues
    /// and injection lists they mirror (restore: neither is
    /// checkpointed).
    fn rebuild_occupancy(&mut self) {
        for v in 0..self.queues.len() {
            let bit = 1u64 << (v % 64);
            if !self.queues[v].is_empty() {
                self.occupancy[v / 64] |= bit;
            }
            if !self.injecting[v].is_empty() {
                self.injecting_occ[v / 64] |= bit;
            }
        }
    }
}

/// What a routing decision reads besides the deciding node's own state.
#[derive(Clone, Copy)]
struct RouteCtx<'a> {
    router: &'a dyn Router,
    cfg: &'a SimConfig,
    failures: &'a FailureSet,
    track_stranded: bool,
    tracer: Option<FlowSampler>,
    schedule: &'a CircuitSchedule,
    slot: u64,
}

/// Routes one shard's cells. `in_order` cells are already node-ascending
/// and the shard covers every node (injection, re-route): they are
/// decided as they come. Otherwise (arrivals) they are taken node by
/// node through the shard's per-node index lists, in buffer order
/// within a node.
fn run_route_shard(
    shard: &mut RouteShard<'_>,
    out: &mut ShardScratch,
    cells: &[Arrival],
    in_order: bool,
    ctx: &RouteCtx<'_>,
) {
    if in_order {
        for a in cells {
            route_at(shard, out, ctx, a);
        }
        return;
    }
    for li in 0..shard.lists.len() {
        if shard.lists[li].is_empty() {
            continue;
        }
        let mut list = std::mem::take(&mut shard.lists[li]);
        for &i in &list {
            route_at(shard, out, ctx, &cells[i as usize]);
        }
        list.clear();
        shard.lists[li] = list;
    }
}

/// The one routing body: decides cell `a` at its node, which the shard
/// must own — deliver, queue on a next hop, queue on a class, or drop
/// (by the router or at the node's queue cap). The queue push is applied
/// directly (node-local); deliveries, drops and hop events go to `out`
/// for [`Engine::route_pass`]'s ordered merge.
#[inline]
fn route_at(shard: &mut RouteShard<'_>, out: &mut ShardScratch, ctx: &RouteCtx<'_>, a: &Arrival) {
    let node = a.node;
    let li = node.index() - shard.base;
    let queue = &mut shard.queues[li];
    let mut cell = a.cell;
    let cap = ctx.cfg.node_queue_cap;
    // A full queue turns a queueing decision into a drop.
    let decision = match ctx.router.decide(node, &mut cell, &mut shard.rngs[li]) {
        RouteDecision::ToNode(_) | RouteDecision::ToClass(_) if cap > 0 && queue.depth() >= cap => {
            RouteDecision::Drop
        }
        decision => decision,
    };
    let traced = ctx.tracer.is_some_and(|t| t.is_traced(cell.flow));
    let failures = ctx.failures;
    let hop = match decision {
        RouteDecision::Deliver => {
            debug_assert_eq!(node, cell.dst, "router delivered at the wrong node");
            out.deliveries.push((cell, a.at_ns));
            HopKind::Deliver {
                latency_ns: a.at_ns.saturating_sub(cell.injected_ns),
            }
        }
        RouteDecision::Drop => {
            out.drops.push((node, cell, a.at_ns));
            HopKind::Drop
        }
        RouteDecision::ToNode(next) => {
            if ctx.track_stranded
                && (failures.node_failed(cell.dst) || !failures.circuit_up(node, next))
            {
                out.stranded_delta += 1;
            }
            queue.push_specific(next, cell);
            shard.occ[li / 64] |= 1u64 << (li % 64);
            out.queued_delta += 1;
            HopKind::Enqueue {
                next: Some(next),
                depth: queue.depth(),
                circuit_wait_slots: if traced {
                    circuit_wait_slots(ctx.schedule, ctx.slot, ctx.cfg.uplinks, node, next)
                } else {
                    0
                },
            }
        }
        RouteDecision::ToClass(class) => {
            if ctx.track_stranded && failures.node_failed(cell.dst) {
                out.stranded_delta += 1;
            }
            queue.push_class(class, cell);
            shard.occ[li / 64] |= 1u64 << (li % 64);
            out.queued_delta += 1;
            HopKind::Enqueue {
                next: None,
                depth: queue.depth(),
                circuit_wait_slots: 0,
            }
        }
    };
    if traced {
        out.hops.push(HopEvent::for_cell(&cell, node, a.at_ns, hop));
    }
}

/// Walks one shard's node range across every uplink, popping node-local
/// queues and buffering transmitted cells in `(node, uplink)` order.
///
/// The walk is occupancy-driven: every live scheduled port in a 64-node
/// word is charged idle up front — the precomputed [`IdleTables`] count
/// minus, on a degraded fabric, the word's down ports (a down circuit is
/// neither idle nor transmitting) — a zero word skips all 64 nodes, a
/// down circuit is skipped, and each successful pop refunds one
/// pre-charged idle port.
///
/// `DEGRADED` is `!failures.is_empty()`, chosen once per slot: the one
/// body is compiled twice so that a healthy slot's loop carries no
/// failure checks at all. (With a runtime flag instead, the checks'
/// inlined code cost a healthy, per-slot-bound run about 10 %.)
#[allow(clippy::too_many_arguments)]
fn run_transmit_shard<const DEGRADED: bool>(
    shard: &mut TransmitShard<'_>,
    out: &mut ShardScratch,
    router: &dyn Router,
    cfg: &SimConfig,
    matchings: &[(usize, &Matching)],
    tables: &IdleTables,
    slot: u64,
    failures: &FailureSet,
    track_stranded: bool,
    tracer: Option<FlowSampler>,
) {
    debug_assert_eq!(shard.base % 64, 0, "shard bases must be word-aligned");
    debug_assert_eq!(DEGRADED, !failures.is_empty());
    let now = cfg.slot_start(slot);
    let max_hops = router.max_hops();
    for gw_local in 0..shard.occ.len() {
        let gw = shard.base / 64 + gw_local;
        // Pre-charge every live scheduled port in this word as idle;
        // pops below refund theirs.
        for &(pi, _) in matchings {
            let mut ports = tables.words[pi][gw];
            if DEGRADED {
                ports -= tables.down[pi].1[gw];
            }
            out.idle += u64::from(ports);
        }
        let mut bits = shard.occ[gw_local];
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let li = gw_local * 64 + b;
            let v = NodeId((shard.base + li) as u32);
            for &(_, matching) in matchings {
                let Some(w) = matching.dst_of(v) else {
                    continue; // idle port this slot
                };
                if DEGRADED && !failures.circuit_up(v, w) {
                    continue; // down: charged neither idle nor sent
                }
                let Some(mut cell) = shard.queues[li].pop_for_circuit(router, v, w) else {
                    continue; // stays idle, as pre-charged
                };
                out.idle -= 1;
                out.queued_delta -= 1;
                // A popped cell rode a live circuit, so it was stranded
                // only if its destination is dead.
                if DEGRADED && track_stranded && failures.node_failed(cell.dst) {
                    out.stranded_delta -= 1;
                }
                router.on_transmit(&mut cell, v, w);
                cell.hops += 1;
                if cell.hops > max_hops {
                    // Record the first violation in canonical order and
                    // finish the pass: both the inline and the sharded
                    // path then abort with identical state.
                    if out.err.is_none() {
                        out.err = Some(SimError::HopBoundExceeded {
                            flow: cell.flow,
                            hops: cell.hops,
                            bound: max_hops,
                        });
                    }
                    continue;
                }
                out.transmissions += 1;
                if LinkMatrix::bump_row(&mut shard.links[li], w.0) {
                    out.links_nonzero_delta += 1;
                }
                if tracer.is_some_and(|t| t.is_traced(cell.flow)) {
                    let depth_after = shard.queues[li].depth();
                    out.hops.push(HopEvent::for_cell(
                        &cell,
                        v,
                        now,
                        HopKind::Transmit { to: w, depth_after },
                    ));
                }
                out.sent.push((v, w, cell));
            }
            if shard.queues[li].is_empty() {
                shard.occ[gw_local] &= !(1u64 << b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::DirectRouter;
    use sorn_base::rng::cases;
    use sorn_topology::builders::round_robin;

    fn flow(id: u64, src: u32, dst: u32, bytes: u64, at: Nanos) -> Flow {
        Flow {
            id: FlowId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            size_bytes: bytes,
            arrival_ns: at,
        }
    }

    #[test]
    fn single_cell_direct_delivery() {
        let sched = round_robin(4).unwrap();
        let router = DirectRouter;
        let cfg = SimConfig::default();
        let mut eng = Engine::new(cfg, &sched, &router);
        eng.add_flows([flow(1, 0, 1, 1000, 0)]).unwrap();
        assert!(eng.run_until_drained(100).unwrap());
        let m = eng.metrics();
        assert_eq!(m.delivered_cells, 1);
        assert_eq!(m.flows.len(), 1);
        assert_eq!(m.flows[0].max_hops, 1);
        // Circuit 0->1 is up in slot 0; delivery = slot + propagation.
        assert_eq!(m.flows[0].completion_ns, 600);
    }

    #[test]
    fn waits_for_the_right_circuit() {
        let sched = round_robin(4).unwrap(); // slots: +1, +2, +3
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        // 0 -> 3 comes up in slot 2 (matching m3 at index 2).
        eng.add_flows([flow(1, 0, 3, 100, 0)]).unwrap();
        assert!(eng.run_until_drained(100).unwrap());
        let m = eng.metrics();
        // Transmitted in slot 2: completion = 200 + 100 + 500.
        assert_eq!(m.flows[0].completion_ns, 800);
    }

    #[test]
    fn multi_cell_flow_completes_in_order_of_circuits() {
        let sched = round_robin(4).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        // 3 cells from 0 to 1; circuit 0->1 up once per 3-slot period.
        eng.add_flows([flow(1, 0, 1, 3 * 1250, 0)]).unwrap();
        assert!(eng.run_until_drained(100).unwrap());
        let m = eng.metrics();
        assert_eq!(m.delivered_cells, 3);
        // Slots 0, 3, 6 carry the cells; last arrives at 600+600.
        assert_eq!(m.flows[0].completion_ns, 600 + 600);
        assert_eq!(m.transmissions, 3);
        assert!((m.delivery_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn staggered_uplinks_speed_up_transfer() {
        let sched = round_robin(4).unwrap();
        let router = DirectRouter;
        let mut cfg = SimConfig::default();
        cfg.uplinks = 3; // one plane per distinct matching
        let mut eng = Engine::new(cfg, &sched, &router);
        eng.add_flows([flow(1, 0, 1, 3 * 1250, 0)]).unwrap();
        assert!(eng.run_until_drained(100).unwrap());
        let m = eng.metrics();
        // With 3 staggered planes, 0->1 is up on some plane every slot.
        assert_eq!(m.flows[0].completion_ns, 600 + 200);
    }

    #[test]
    fn failed_link_blocks_traffic() {
        let sched = round_robin(4).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        eng.add_flows([flow(1, 0, 1, 100, 0)]).unwrap();
        eng.failures_mut().fail_link(NodeId(0), NodeId(1));
        assert!(!eng.run_until_drained(50).unwrap());
        assert_eq!(eng.metrics().delivered_cells, 0);
        // Restore and drain.
        eng.failures_mut().restore_link(NodeId(0), NodeId(1));
        assert!(eng.run_until_drained(50).unwrap());
        assert_eq!(eng.metrics().delivered_cells, 1);
    }

    #[test]
    fn fault_plan_drives_outage_and_recovery_metrics() {
        use crate::fault::FaultPlan;
        let sched = round_robin(4).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        // 10 cells 0 -> 1; the direct circuit dies during the transfer.
        eng.add_flows([flow(1, 0, 1, 10 * 1250, 0)]).unwrap();
        let mut plan = FaultPlan::new();
        plan.link_outage(NodeId(0), NodeId(1), 500, 3_000);
        eng.set_fault_plan(plan);
        assert!(eng.run_until_drained(10_000).unwrap());
        let m = eng.metrics();
        assert_eq!(m.delivered_cells, 10);
        assert_eq!(m.failure_episodes, 1);
        assert!(m.failure_slots > 0);
        assert_eq!(
            m.recovery_times_ns.len(),
            1,
            "the drained run recovered from its one episode"
        );
        // Deliveries resumed only after restoration in this direct
        // scheme, so degraded goodput is strictly worse than healthy.
        assert!(m.degraded_goodput_ratio() < 1.0);
    }

    #[test]
    fn fault_plan_fires_probe_hook() {
        use crate::fault::{FaultAction, FaultPlan, FaultView};
        #[derive(Default)]
        struct FaultLog(Vec<(Nanos, FaultAction)>);
        impl Probe for FaultLog {
            fn on_fault(&mut self, view: &FaultView<'_>) {
                self.0.push((view.now_ns, view.event.action));
            }
        }
        let sched = round_robin(4).unwrap();
        let router = DirectRouter;
        let mut eng =
            Engine::with_probe(SimConfig::default(), &sched, &router, FaultLog::default());
        let mut plan = FaultPlan::new();
        plan.node_outage(NodeId(2), 0, 300);
        eng.set_fault_plan(plan);
        eng.run_slots(10).unwrap();
        let log = eng.finish();
        assert_eq!(log.0.len(), 2);
        assert_eq!(log.0[0].1, FaultAction::Fail);
        assert_eq!(log.0[1].1, FaultAction::Restore);
        assert!(log.0[0].0 <= log.0[1].0);
    }

    #[test]
    fn health_mirror_tracks_fault_plan() {
        use crate::fault::{FaultPlan, LinkHealth};
        let sched = round_robin(4).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        let health = LinkHealth::new();
        eng.set_health_mirror(health.clone());
        assert!(health.is_healthy());
        let mut plan = FaultPlan::new();
        plan.link_outage(NodeId(0), NodeId(1), 0, 500);
        eng.set_fault_plan(plan);
        eng.run_slots(1).unwrap();
        assert!(!health.circuit_up(NodeId(0), NodeId(1)));
        eng.run_slots(10).unwrap();
        assert!(health.is_healthy());
    }

    #[test]
    fn stranded_cells_counted_at_finish() {
        use crate::fault::FaultPlan;
        let sched = round_robin(4).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        eng.add_flows([flow(1, 0, 1, 5 * 1250, 0)]).unwrap();
        // The link dies immediately and never comes back.
        let mut plan = FaultPlan::new();
        plan.fail_link_at(0, NodeId(0), NodeId(1));
        eng.set_fault_plan(plan);
        assert!(!eng.run_until_drained(100).unwrap());
        let stranded = eng.count_stranded();
        assert_eq!(stranded as usize, eng.total_queued());
        let injected = eng.metrics().injected_cells;
        let inflight = eng.inflight_cells() as u64;
        let m = eng.metrics().clone();
        // Accounting identity: nothing is lost, only stranded.
        assert_eq!(
            injected,
            m.delivered_cells + m.dropped_cells + stranded + inflight
        );
    }

    #[test]
    fn restore_rejects_a_failed_node_outside_the_network() {
        let sched = round_robin(4).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        eng.failures_mut().fail_node(NodeId(3));
        assert!(Engine::restore(&eng.checkpoint(), &sched, &router).is_ok());
        eng.failures_mut().fail_node(NodeId(4_000_000));
        let err = Engine::restore(&eng.checkpoint(), &sched, &router).err();
        assert!(
            matches!(err, Some(RestoreError::Inconsistent { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn a_flow_id_may_not_be_live_twice_but_may_be_reused() {
        let sched = round_robin(8).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        eng.add_flows([flow(5, 0, 1, 50 * 1250, 0), flow(5, 2, 3, 50 * 1250, 0)])
            .unwrap();
        assert_eq!(
            eng.run_slots(10),
            Err(SimError::DuplicateFlowId { flow: FlowId(5) })
        );
        // Once the first flow has completed, its id is free again.
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        eng.add_flows([flow(5, 0, 1, 1250, 0), flow(5, 2, 3, 1250, 100_000)])
            .unwrap();
        assert!(eng.run_until_drained(10_000).unwrap());
        let ids: Vec<FlowId> = eng.metrics().flows.iter().map(|f| f.id).collect();
        assert_eq!(ids, [FlowId(5), FlowId(5)]);
        assert!(Engine::restore(&eng.checkpoint(), &sched, &router).is_ok());
    }

    #[test]
    fn flows_to_out_of_range_nodes_are_rejected() {
        let sched = round_robin(4).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        let err = eng.add_flows([flow(1, 0, 9, 100, 0)]).unwrap_err();
        assert!(matches!(err, SimError::NodeOutOfRange { .. }));
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let sched = round_robin(8).unwrap();
        let router = DirectRouter;
        let flows: Vec<Flow> = (0..20)
            .map(|i| flow(i, (i % 8) as u32, ((i + 3) % 8) as u32, 5000, i * 70))
            .collect();
        let run = |seed| {
            let mut cfg = SimConfig::default();
            cfg.seed = seed;
            let mut eng = Engine::new(cfg, &sched, &router);
            eng.add_flows(flows.clone()).unwrap();
            eng.run_until_drained(10_000).unwrap();
            (
                eng.metrics().delivered_cells,
                eng.metrics().cell_latency_sum_ns,
                eng.metrics().transmissions,
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn injection_respects_line_rate() {
        let sched = round_robin(4).unwrap();
        let router = DirectRouter;
        let cfg = SimConfig::default(); // 1 uplink
        let mut eng = Engine::new(cfg, &sched, &router);
        eng.add_flows([flow(1, 0, 1, 100 * 1250, 0)]).unwrap();
        eng.run_slots(10).unwrap();
        // At 1 uplink, at most 1 cell injected per slot.
        assert!(eng.metrics().injected_cells <= 10);
    }

    #[test]
    fn idle_circuits_are_counted() {
        let sched = round_robin(4).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        eng.run_slots(3).unwrap();
        // No traffic at all: every scheduled circuit idled (4 nodes x 3 slots).
        assert_eq!(eng.metrics().idle_circuit_slots, 12);
        assert_eq!(eng.metrics().circuit_utilization(), 0.0);
    }

    #[test]
    fn live_schedule_swap_mid_run() {
        // Start on a schedule that never provides the needed circuit,
        // then install one that does — traffic drains after the update.
        let ms_bad = vec![sorn_topology::Matching::cyclic(4, 2)];
        let bad = sorn_topology::CircuitSchedule::from_matchings(ms_bad).unwrap();
        let good = round_robin(4).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &bad, &router);
        eng.add_flows([flow(1, 0, 1, 1250, 0)]).unwrap();
        assert!(!eng.run_until_drained(100).unwrap(), "0->1 never scheduled");
        eng.install_schedule(&good);
        let rerouted = eng.reroute_queued().unwrap();
        assert_eq!(rerouted, 1);
        assert!(eng.run_until_drained(100).unwrap());
        assert_eq!(eng.metrics().flows.len(), 1);
    }

    #[test]
    fn schedule_swap_with_cells_inflight() {
        // Swap the schedule while a cell is still propagating: the
        // arrival calendar must carry it across the swap and deliver
        // under the new schedule.
        let a = round_robin(4).unwrap();
        let ms = vec![sorn_topology::Matching::cyclic(4, 2)];
        let b = sorn_topology::CircuitSchedule::from_matchings(ms).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &a, &router);
        eng.add_flows([flow(1, 0, 1, 1250, 0)]).unwrap();
        eng.run_slots(1).unwrap(); // transmitted in slot 0, now in flight
        assert_eq!(eng.inflight_cells(), 1);
        eng.install_schedule(&b);
        eng.reroute_queued().unwrap();
        assert!(eng.run_until_drained(100).unwrap());
        assert_eq!(eng.metrics().delivered_cells, 1);
        // Same landing time as without the swap: propagation is fixed.
        assert_eq!(eng.metrics().flows[0].completion_ns, 600);
    }

    #[test]
    fn flow_slots_recycle_across_sequential_flows() {
        // Each flow finishes before the next arrives, so the slab hands
        // the same slot out repeatedly; records must stay per-flow.
        let sched = round_robin(4).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        eng.add_flows([
            flow(10, 0, 1, 1250, 0),
            flow(20, 0, 1, 1250, 5_000),
            flow(30, 2, 3, 1250, 10_000),
        ])
        .unwrap();
        assert!(eng.run_until_drained(1_000).unwrap());
        let m = eng.metrics();
        assert_eq!(m.delivered_cells, 3);
        let ids: Vec<u64> = m.flows.iter().map(|f| f.id.0).collect();
        assert_eq!(ids, vec![10, 20, 30]);
        assert!(m.flows.iter().all(|f| f.max_hops == 1));
    }

    #[test]
    #[should_panic(expected = "same nodes")]
    fn schedule_swap_rejects_size_change() {
        let a = round_robin(4).unwrap();
        let b = round_robin(5).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &a, &router);
        eng.install_schedule(&b);
    }

    #[test]
    fn link_transmissions_sum_to_total() {
        let sched = round_robin(6).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        let flows: Vec<Flow> = (0..6u32)
            .map(|s| flow(s as u64, s, (s + 2) % 6, 3 * 1250, 0))
            .collect();
        eng.add_flows(flows).unwrap();
        assert!(eng.run_until_drained(10_000).unwrap());
        let m = eng.metrics();
        let sum: u64 = m.link_transmissions.values().sum();
        assert_eq!(sum, m.transmissions);
        // Direct routing: only (s, s+2) links carry traffic.
        for (a, b) in m.link_transmissions.keys() {
            assert_eq!((a + 2) % 6, b);
        }
        // Symmetric load: every used link carries its source's 3 cells.
        assert!(m.link_transmissions.values().all(|c| c == 3));
    }

    #[test]
    fn queue_cap_drops_excess_cells() {
        let sched = round_robin(4).unwrap();
        let router = DirectRouter;
        let mut cfg = SimConfig::default();
        cfg.node_queue_cap = 2;
        let mut eng = Engine::new(cfg, &sched, &router);
        // 10 cells toward one destination: the direct circuit drains one
        // cell per 3-slot period while injection runs at 1 cell/slot, so
        // the 2-cell queue overflows and drops.
        eng.add_flows([flow(1, 0, 1, 10 * 1250, 0)]).unwrap();
        assert!(eng.run_until_drained(1_000).unwrap());
        let m = eng.metrics();
        assert!(m.dropped_cells > 0, "cap must bite");
        assert_eq!(m.delivered_cells + m.dropped_cells, m.injected_cells);
        assert!(m.dropped_cells < m.injected_cells, "some cells get through");
        // A flow with losses never completes.
        assert!(m.flows.is_empty());
    }

    #[test]
    fn no_drops_without_cap() {
        let sched = round_robin(4).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        eng.add_flows([flow(1, 0, 1, 10 * 1250, 0)]).unwrap();
        assert!(eng.run_until_drained(10_000).unwrap());
        assert_eq!(eng.metrics().dropped_cells, 0);
    }

    #[test]
    fn reroute_queued_preserves_cells() {
        let sched = round_robin(4).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        eng.add_flows([flow(1, 0, 3, 5 * 1250, 0)]).unwrap();
        eng.run_slots(1).unwrap();
        let queued = eng.total_queued();
        assert!(queued > 0);
        let rerouted = eng.reroute_queued().unwrap();
        assert_eq!(rerouted, queued);
        assert_eq!(eng.total_queued(), queued);
        assert!(eng.run_until_drained(100).unwrap());
    }

    /// A 2-hop VLB-style router that actually consumes the RNG stream:
    /// fresh cells bounce through a random intermediate.
    struct RandomViaRouter;
    impl Router for RandomViaRouter {
        fn decide(
            &self,
            node: NodeId,
            cell: &mut Cell,
            rng: &mut crate::rng::NodeRng,
        ) -> RouteDecision {
            if node == cell.dst {
                return RouteDecision::Deliver;
            }
            if cell.tag == 0 {
                cell.tag = 1;
                let via = NodeId(rng.gen_range(16) as u32);
                if via != node && via != cell.dst {
                    return RouteDecision::ToNode(via);
                }
            }
            RouteDecision::ToNode(cell.dst)
        }
        fn classes(&self) -> &[crate::router::ClassId] {
            &[]
        }
        fn max_hops(&self) -> u8 {
            8
        }
        fn name(&self) -> &str {
            "random-via"
        }
    }

    fn busy_run(threads: usize) -> Metrics {
        let sched = round_robin(16).unwrap();
        let router = RandomViaRouter;
        let mut cfg = SimConfig::default();
        cfg.uplinks = 8; // enough arrivals per slot to cross PAR_MIN_ARRIVALS
        cfg.seed = 11;
        cfg.engine_threads = threads;
        let mut eng = Engine::new(cfg, &sched, &router);
        let flows: Vec<Flow> = (0..200)
            .map(|i| {
                flow(
                    i,
                    (i % 16) as u32,
                    ((i * 7 + 3) % 16) as u32,
                    8 * 1250,
                    (i % 5) * 100,
                )
            })
            .collect();
        eng.add_flows(flows).unwrap();
        assert!(eng.run_until_drained(50_000).unwrap());
        eng.metrics().clone()
    }

    #[test]
    fn parallel_runs_match_serial_bit_for_bit() {
        let serial = busy_run(1);
        assert!(serial.delivered_cells > 0);
        assert_eq!(serial, busy_run(2), "2 threads must match serial");
        assert_eq!(serial, busy_run(4), "4 threads must match serial");
    }

    #[test]
    fn stranded_count_is_incremental_and_matches_brute_walk() {
        use crate::fault::FaultPlan;
        let sched = round_robin(8).unwrap();
        let router = DirectRouter;
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        let flows: Vec<Flow> = (0..8u32)
            .map(|s| flow(s as u64, s, (s + 1) % 8, 6 * 1250, 0))
            .collect();
        eng.add_flows(flows).unwrap();
        let mut plan = FaultPlan::new();
        plan.node_outage(NodeId(1), 200, 2_000);
        plan.link_outage(NodeId(2), NodeId(3), 400, 1_500);
        eng.set_fault_plan(plan);
        let mut checked_degraded = 0;
        for _ in 0..40 {
            eng.step().unwrap();
            // First call may rescan; the second must hit the memo. Both
            // must agree with the brute walk at every boundary.
            let a = eng.count_stranded();
            let b = eng.count_stranded();
            assert_eq!(a, b);
            assert_eq!(a, eng.count_stranded_brute());
            if !eng.failures().is_empty() {
                checked_degraded += 1;
                assert_eq!(eng.metrics().stranded_cells, a);
            }
        }
        assert!(checked_degraded > 0, "the fault plan must have fired");
        // Manual failure-set pokes invalidate the memo via the epoch.
        eng.failures_mut().fail_node(NodeId(5));
        assert_eq!(eng.count_stranded(), eng.count_stranded_brute());
    }

    #[test]
    fn parallel_engine_handles_faults_and_schedule_swaps() {
        use crate::fault::FaultPlan;
        let run = |threads: usize| {
            let a = round_robin(16).unwrap();
            let b = round_robin(16).unwrap();
            let router = RandomViaRouter;
            let mut cfg = SimConfig::default();
            cfg.uplinks = 8;
            cfg.seed = 3;
            cfg.engine_threads = threads;
            let mut eng = Engine::new(cfg, &a, &router);
            let flows: Vec<Flow> = (0..120)
                .map(|i| flow(i, (i % 16) as u32, ((i * 5 + 2) % 16) as u32, 4 * 1250, 0))
                .collect();
            eng.add_flows(flows).unwrap();
            let mut plan = FaultPlan::new();
            plan.link_outage(NodeId(0), NodeId(1), 100, 1_200);
            plan.node_outage(NodeId(9), 300, 900);
            eng.set_fault_plan(plan);
            eng.run_slots(6).unwrap();
            eng.install_schedule(&b);
            eng.reroute_queued().unwrap();
            eng.run_until_drained(50_000).unwrap();
            eng.metrics().clone()
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(4));
    }

    /// `injecting_occ` bit v ⇔ `injecting[v]` non-empty, at every slot
    /// boundary, at 1–4 threads, and on both sides of a
    /// checkpoint/restore (the bitset is rebuilt, not checkpointed).
    #[test]
    fn injecting_bitset_matches_the_per_node_lists() {
        fn assert_mirrors(eng: &Engine<'_>) {
            for (v, list) in eng.injecting.iter().enumerate() {
                let bit = eng.injecting_occ[v / 64] >> (v % 64) & 1 == 1;
                assert_eq!(bit, !list.is_empty(), "slot {}: node {v}", eng.slot);
            }
        }
        // 70 nodes: two bitset words, the second partly used.
        let sched = round_robin(70).unwrap();
        let router = RandomViaRouter;
        for threads in 1..=4 {
            let mut rng = NodeRng::for_node(0x1217, threads as u32);
            let mut cfg = SimConfig::default();
            cfg.uplinks = 2;
            cfg.seed = threads as u64;
            cfg.engine_threads = threads;
            let mut eng = Engine::new(cfg, &sched, &router);
            // Sizes from one cell to a few slots' worth, several flows
            // per source, arrivals spread over the run: lists fill,
            // drain mid-slot and refill.
            let flows: Vec<Flow> = (0..300)
                .map(|i| {
                    let src = rng.gen_range(70) as u32;
                    let dst = (src + 1 + rng.gen_range(69) as u32) % 70;
                    flow(i, src, dst, 1 + rng.gen_range(12_000), rng.gen_range(8_000))
                })
                .collect();
            eng.add_flows(flows).unwrap();
            let mut busy_boundaries = 0;
            for _ in 0..60 {
                eng.step().unwrap();
                assert_mirrors(&eng);
                busy_boundaries += (eng.injecting_flows > 0) as usize;
            }
            let snap = eng.checkpoint();
            let mut eng = Engine::restore(&snap, &sched, &router).unwrap();
            assert_mirrors(&eng);
            while !eng.is_drained() {
                eng.step().unwrap();
                assert_mirrors(&eng);
                busy_boundaries += (eng.injecting_flows > 0) as usize;
                assert!(eng.slot < 50_000, "run did not drain");
            }
            assert!(
                busy_boundaries > 20,
                "only {busy_boundaries} boundaries mid-injection"
            );
            assert_eq!(eng.metrics().flows.len(), 300);
        }
    }

    /// The occupancy bitset must agree, at every slot boundary and
    /// at any thread count, with the hash-probe reference model the
    /// word-walk replaced: the set of nodes built by probing every
    /// node's queues for emptiness.
    #[test]
    fn occupancy_bitset_matches_hash_probe_reference() {
        cases(256, |rng| {
            let seed = rng.gen_range(0u64..1_000);
            let threads = rng.gen_range(1usize..4);
            let specs = rng.vec(1..40, |rng| {
                (
                    rng.gen_range(0u32..16),
                    rng.gen_range(0u32..16),
                    rng.gen_range(1u64..30_000),
                    rng.gen_range(0u64..3_000),
                )
            });
            let sched = round_robin(16).unwrap();
            let router = RandomViaRouter;
            let mut cfg = SimConfig::default();
            cfg.uplinks = 4;
            cfg.seed = seed;
            cfg.engine_threads = threads;
            let mut eng = Engine::new(cfg, &sched, &router);
            let flows: Vec<Flow> = specs
                .iter()
                .enumerate()
                .filter(|(_, (s, d, _, _))| s != d)
                .map(|(i, &(s, d, bytes, at))| flow(i as u64, s, d, bytes, at))
                .collect();
            eng.add_flows(flows).unwrap();
            for _ in 0..200 {
                eng.step().unwrap();
                let reference: std::collections::HashSet<usize> =
                    (0..16).filter(|&v| !eng.queues[v].is_empty()).collect();
                for v in 0..16usize {
                    let bit = eng.occupancy[v / 64] >> (v % 64) & 1 == 1;
                    assert_eq!(
                        bit,
                        reference.contains(&v),
                        "slot {}: node {} bitset/hash-probe disagreement",
                        eng.slot,
                        v
                    );
                }
                if eng.total_queued() == 0 && eng.inflight.is_empty() {
                    break;
                }
            }
        });
    }
}
