//! Crash-safe, versioned checkpoint/restore of complete engine state.
//!
//! A [`Snapshot`] captures everything the engine needs to resume a run
//! bit-identically: the slot counter, per-node RNG stream positions,
//! every queue FIFO, the in-flight calendar ring, the active-flow table
//! (including free-slot reuse order), pending flows, fault/failure
//! state, and the full metrics. `run(0..N)` and
//! `run(0..k); checkpoint; restore; run(k..N)` produce identical
//! metrics, trace bytes, and recorder contents at any
//! `SimConfig::engine_threads` — checkpointing inherits the engine's
//! determinism contract instead of weakening it.
//!
//! ## On-disk format
//!
//! A checkpoint file is a fixed header followed by length-prefixed,
//! individually checksummed sections:
//!
//! ```text
//! magic "SORNCKPT" | version u32 | section count u32
//! per section: tag [u8;4] | payload len u64 | payload | crc64 u64
//! ```
//!
//! Sections appear in a fixed order (`CFG`, `TIME`, `RNG`, `QUE`,
//! `CAL`, `FLW`, `FLT`, `MET`, `BLB`); every integer is little-endian,
//! written and read through [`sorn_base::bytes`]; the CRC is CRC-64/XZ
//! (reflected ECMA-182) over the payload bytes.
//! The decoder is fully bounds-checked and never panics on hostile
//! input: truncation, bit flips, and forged lengths all surface as
//! [`CheckpointError::Corrupt`].
//!
//! ## Durability
//!
//! [`CheckpointStore`] writes each generation to a temp file, fsyncs
//! it, atomically renames it into place, and fsyncs the directory, so a
//! crash mid-write never damages the previous good generation. The last
//! `K = 2` generations are kept; [`CheckpointStore::load_latest`] falls
//! back to an older generation when the newest fails its checksums. The
//! filesystem is injectable ([`CheckpointFs`]) so the fault-injection
//! harness ([`CheckpointFaultFs`]) can simulate torn writes, silent
//! corruption, and rename failures without touching a real disk.

use crate::cell::{Cell, Flow, FlowId};
use crate::config::SimConfig;
use crate::engine::{Arrival, EpisodeState};
use crate::fault::{FaultAction, FaultEvent, FaultTarget};
use crate::flow_table::FlowTable;
use crate::metrics::{FlowRecord, LatencyHistogram, LinkMatrix, Metrics};
use sorn_base::bytes::{Reader, Writer};
use sorn_topology::NodeId;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// File magic: the first eight bytes of every checkpoint.
pub const MAGIC: &[u8; 8] = b"SORNCKPT";

/// Current format version. Bump on any layout change; the loader
/// rejects other versions outright rather than guessing. v2 appended
/// `Metrics::slots_skipped` to the MET section; v3 dropped two unused
/// config fields from CFG and writes the flow table's columns to FLW;
/// v4 drops the unused hop bound from CFG (the router's is the bound).
pub const FORMAT_VERSION: u32 = 4;

/// Generations [`CheckpointStore`] retains (current + one fallback).
pub const KEEP_GENERATIONS: usize = 2;

const SECTION_TAGS: [&[u8; 4]; 9] = [
    b"CFG\0", b"TIME", b"RNG\0", b"QUE\0", b"CAL\0", b"FLW\0", b"FLT\0", b"MET\0", b"BLB\0",
];

// ---------------------------------------------------------------------------
// CRC-64/XZ (reflected ECMA-182)
// ---------------------------------------------------------------------------

const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

const fn crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC64_TABLE: [u64; 256] = crc64_table();

/// CRC-64/XZ of `bytes` (init `!0`, reflected, xorout `!0`).
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc = CRC64_TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Failure to encode, decode, write, or locate a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// A filesystem operation failed.
    Io {
        /// What was being attempted (`"write"`, `"read"`, ...).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error text.
        error: String,
    },
    /// The bytes are not a valid checkpoint (truncated, bit-flipped,
    /// wrong magic/version, or internally inconsistent).
    Corrupt {
        /// Human-readable diagnosis.
        reason: String,
    },
    /// No generation in the directory could be loaded.
    NoValidCheckpoint {
        /// The directory searched.
        dir: PathBuf,
        /// Generations that were tried and rejected, newest first.
        skipped: Vec<(PathBuf, String)>,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { op, path, error } => {
                write!(f, "checkpoint {op} {}: {error}", path.display())
            }
            CheckpointError::Corrupt { reason } => write!(f, "corrupt checkpoint: {reason}"),
            CheckpointError::NoValidCheckpoint { dir, skipped } => {
                write!(
                    f,
                    "no valid checkpoint in {} ({} candidate(s) rejected",
                    dir.display(),
                    skipped.len()
                )?;
                for (i, (path, reason)) in skipped.iter().enumerate() {
                    let sep = if i == 0 { ": " } else { "; " };
                    write!(f, "{sep}{}: {reason}", path.display())?;
                }
                write!(f, ")")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Failure to rebuild an engine from a structurally valid snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The schedule covers a different node count than the snapshot.
    NodeCountMismatch {
        /// Nodes in the snapshot.
        snapshot: usize,
        /// Nodes in the schedule handed to `restore`.
        schedule: usize,
    },
    /// The router declares different spray classes than the snapshot
    /// recorded — its queues would be meaningless.
    ClassMismatch {
        /// Class ids recorded in the snapshot.
        snapshot: Vec<u16>,
        /// Class ids the router declares.
        router: Vec<u16>,
    },
    /// The snapshot is internally inconsistent (decoded from bytes that
    /// passed checksums but describe an impossible engine state).
    Inconsistent {
        /// Human-readable diagnosis.
        reason: String,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::NodeCountMismatch { snapshot, schedule } => write!(
                f,
                "snapshot covers {snapshot} nodes but the schedule covers {schedule}"
            ),
            RestoreError::ClassMismatch { snapshot, router } => write!(
                f,
                "snapshot recorded classes {snapshot:?} but the router declares {router:?}"
            ),
            RestoreError::Inconsistent { reason } => {
                write!(f, "inconsistent snapshot: {reason}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// One node's queue contents: nonempty FIFOs, front-to-back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct QueuesSnap {
    /// `(next-hop id, cells)` for nonempty specific queues, ascending.
    pub(crate) specific: Vec<(u32, Vec<Cell>)>,
    /// `(class id, cells)` for nonempty class queues, declaration order.
    pub(crate) class: Vec<(u16, Vec<Cell>)>,
}

/// A complete, self-contained capture of engine state at a slot
/// boundary.
///
/// Produced by `Engine::checkpoint`, consumed by `Engine::restore` (and
/// friends), serialized with [`Snapshot::to_bytes`] /
/// [`Snapshot::from_bytes`]. Carries opaque named blobs so run drivers
/// can persist probe state (trace collectors, flight recorders)
/// alongside the engine.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub(crate) cfg: SimConfig,
    pub(crate) n: u64,
    pub(crate) slot: u64,
    pub(crate) class_ids: Vec<u16>,
    pub(crate) rng_states: Vec<u64>,
    pub(crate) queues: Vec<QueuesSnap>,
    pub(crate) queued_cells: u64,
    pub(crate) cal_delay_slots: u64,
    pub(crate) cal_head_slot: u64,
    pub(crate) cal_stamps: Vec<u64>,
    pub(crate) cal_buckets: Vec<Vec<Arrival>>,
    /// Pending flows in ascending original-key order; restore renumbers
    /// them `0..m`, preserving the arrival heap's tie-break order.
    pub(crate) future: Vec<Flow>,
    pub(crate) injecting: Vec<Vec<u64>>,
    pub(crate) flows: FlowTable,
    pub(crate) failed_nodes: Vec<u32>,
    pub(crate) failed_links: Vec<(u32, u32)>,
    pub(crate) failure_epoch: u64,
    pub(crate) fault_events: Vec<FaultEvent>,
    pub(crate) fault_cursor: u64,
    pub(crate) episode: EpisodeState,
    pub(crate) metrics: Metrics,
    pub(crate) blobs: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// The slot the engine had completed when this snapshot was taken.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Nodes in the captured network.
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// The configuration the run was using. A restored engine reuses it
    /// verbatim (modulo [`Snapshot::set_engine_threads`]).
    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    /// Overrides the engine-thread count for the resumed run. Results
    /// are bit-identical at any count (the engine's determinism
    /// contract), so resuming on different hardware is safe.
    pub fn set_engine_threads(&mut self, threads: usize) {
        self.cfg.engine_threads = threads.max(1);
    }

    /// Attaches (or replaces) a named opaque blob — run drivers persist
    /// probe state (trace events, recorder rings) this way so a resumed
    /// process reproduces observability output byte-for-byte.
    pub fn attach_blob(&mut self, name: &str, bytes: Vec<u8>) {
        if let Some(slot) = self.blobs.iter_mut().find(|(k, _)| k == name) {
            slot.1 = bytes;
        } else {
            self.blobs.push((name.to_string(), bytes));
        }
    }

    /// A named blob's contents, if attached.
    pub fn blob(&self, name: &str) -> Option<&[u8]> {
        self.blobs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_slice())
    }

    /// Serializes the snapshot into the versioned, checksummed binary
    /// format described in the module docs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let sections = [
            self.encode_cfg(),
            self.encode_time(),
            self.encode_rng(),
            self.encode_queues(),
            self.encode_calendar(),
            self.encode_flows(),
            self.encode_faults(),
            self.encode_metrics(),
            self.encode_blobs(),
        ];
        let mut out = Vec::with_capacity(64 + sections.iter().map(|s| s.len() + 24).sum::<usize>());
        out.extend_from_slice(MAGIC);
        out.put_u32(FORMAT_VERSION);
        out.put_u32(sections.len() as u32);
        for (tag, payload) in SECTION_TAGS.iter().zip(sections.iter()) {
            out.extend_from_slice(*tag);
            out.put_bytes(payload);
            out.put_u64(crc64(payload));
        }
        out
    }

    /// Decodes a snapshot, verifying the magic, version, section
    /// structure, and every section checksum. Never panics: any
    /// truncation, bit flip, or forged length yields
    /// [`CheckpointError::Corrupt`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, CheckpointError> {
        decode_snapshot(bytes).map_err(|reason| CheckpointError::Corrupt { reason })
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_cell(out: &mut Vec<u8>, c: &Cell) {
    out.put_u64(c.flow.0);
    out.put_u64(c.seq);
    out.put_u32(c.src.0);
    out.put_u32(c.dst.0);
    out.put_u64(c.injected_ns);
    out.put_u8(c.hops);
    out.put_u16(c.tag);
}

fn put_flow(out: &mut Vec<u8>, f: &Flow) {
    out.put_u64(f.id.0);
    out.put_u32(f.src.0);
    out.put_u32(f.dst.0);
    out.put_u64(f.size_bytes);
    out.put_u64(f.arrival_ns);
}

impl Snapshot {
    fn encode_cfg(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let c = &self.cfg;
        out.put_u64(c.slot_ns);
        out.put_u64(c.propagation_ns);
        out.put_u64(c.uplinks as u64);
        out.put_u32(c.cell_bytes);
        out.put_u64(c.seed);
        out.put_u64(c.node_queue_cap as u64);
        out.put_u64(c.engine_threads as u64);
        out.put_u64(c.trace_one_in);
        out.put_u64(self.n);
        out.put_u64(self.class_ids.len() as u64);
        for &c in &self.class_ids {
            out.put_u16(c);
        }
        out
    }

    fn encode_time(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u64(self.slot);
        out.put_u64(self.queued_cells);
        out.put_u64(self.failure_epoch);
        out.put_u64(self.fault_cursor);
        out.put_u64(self.episode.onset_queued as u64);
        out.put_bool(self.episode.degraded);
        out.put_opt_u64(self.episode.awaiting_recovery_since);
        out
    }

    fn encode_rng(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 8 * self.rng_states.len());
        out.put_u64(self.rng_states.len() as u64);
        for &s in &self.rng_states {
            out.put_u64(s);
        }
        out
    }

    fn encode_queues(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u64(self.queues.len() as u64);
        for q in &self.queues {
            out.put_u64(q.specific.len() as u64);
            for (next, cells) in &q.specific {
                out.put_u32(*next);
                out.put_u64(cells.len() as u64);
                for c in cells {
                    put_cell(&mut out, c);
                }
            }
            out.put_u64(q.class.len() as u64);
            for (class, cells) in &q.class {
                out.put_u16(*class);
                out.put_u64(cells.len() as u64);
                for c in cells {
                    put_cell(&mut out, c);
                }
            }
        }
        out
    }

    fn encode_calendar(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u64(self.cal_delay_slots);
        out.put_u64(self.cal_head_slot);
        out.put_u64(self.cal_stamps.len() as u64);
        for &s in &self.cal_stamps {
            out.put_u64(s);
        }
        out.put_u64(self.cal_buckets.len() as u64);
        for bucket in &self.cal_buckets {
            out.put_u64(bucket.len() as u64);
            for a in bucket {
                out.put_u64(a.at_ns);
                out.put_u32(a.node.0);
                put_cell(&mut out, &a.cell);
            }
        }
        out
    }

    fn encode_flows(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u64(self.future.len() as u64);
        for f in &self.future {
            put_flow(&mut out, f);
        }
        out.put_u64(self.injecting.len() as u64);
        for list in &self.injecting {
            out.put_u64(list.len() as u64);
            for &idx in list {
                out.put_u64(idx);
            }
        }
        self.flows.encode(&mut out);
        out
    }

    fn encode_faults(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u64(self.failed_nodes.len() as u64);
        for &v in &self.failed_nodes {
            out.put_u32(v);
        }
        out.put_u64(self.failed_links.len() as u64);
        for &(a, b) in &self.failed_links {
            out.put_u32(a);
            out.put_u32(b);
        }
        out.put_u64(self.fault_events.len() as u64);
        for e in &self.fault_events {
            out.put_u64(e.at_ns);
            out.put_bool(matches!(e.action, FaultAction::Restore));
            let (kind, a, b) = match e.target {
                FaultTarget::Node(v) => (0, v.0, 0),
                FaultTarget::Link(a, b) => (1, a.0, b.0),
                FaultTarget::LinkBidir(a, b) => (2, a.0, b.0),
            };
            out.put_u8(kind);
            out.put_u32(a);
            out.put_u32(b);
        }
        out
    }

    fn encode_metrics(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let m = &self.metrics;
        out.put_u64(m.slots);
        out.put_u64(m.injected_cells);
        out.put_u64(m.delivered_cells);
        out.put_u64(m.delivered_bytes);
        out.put_u64(m.transmissions);
        out.put_u64(m.idle_circuit_slots);
        for &h in &m.hop_histogram {
            out.put_u64(h);
        }
        out.put_u128(m.cell_latency_sum_ns);
        let (buckets, count) = m.cell_latency.raw_parts();
        for &b in buckets {
            out.put_u64(b);
        }
        out.put_u64(count);
        out.put_u64(m.flows.len() as u64);
        for f in &m.flows {
            out.put_u64(f.id.0);
            out.put_u64(f.size_bytes);
            out.put_u64(f.arrival_ns);
            out.put_u64(f.completion_ns);
            out.put_u8(f.max_hops);
        }
        out.put_u64(m.peak_queue_depth as u64);
        out.put_u64(m.dropped_cells);
        out.put_u32(m.link_transmissions.dim());
        out.put_u64(m.link_transmissions.len() as u64);
        for ((src, dst), count) in m.link_transmissions.iter() {
            out.put_u32(src);
            out.put_u32(dst);
            out.put_u64(count);
        }
        out.put_u64(m.stranded_cells);
        out.put_u64(m.failure_slots);
        out.put_u64(m.failure_episodes);
        out.put_u64(m.delivered_during_failure);
        out.put_u64(m.recovery_times_ns.len() as u64);
        for &t in &m.recovery_times_ns {
            out.put_u64(t);
        }
        out.put_u64(m.slots_skipped);
        out
    }

    fn encode_blobs(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u64(self.blobs.len() as u64);
        for (name, bytes) in &self.blobs {
            out.put_str(name);
            out.put_bytes(bytes);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Byte size of an encoded [`Cell`].
const CELL_BYTES: usize = 35;
/// Byte size of an encoded [`Flow`].
const FLOW_BYTES: usize = 32;

fn read_cell(r: &mut Reader<'_>) -> Result<Cell, String> {
    Ok(Cell {
        flow: FlowId(r.u64()?),
        seq: r.u64()?,
        src: NodeId(r.u32()?),
        dst: NodeId(r.u32()?),
        injected_ns: r.u64()?,
        hops: r.u8()?,
        tag: r.u16()?,
    })
}

fn read_flow(r: &mut Reader<'_>) -> Result<Flow, String> {
    Ok(Flow {
        id: FlowId(r.u64()?),
        src: NodeId(r.u32()?),
        dst: NodeId(r.u32()?),
        size_bytes: r.u64()?,
        arrival_ns: r.u64()?,
    })
}

fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, String> {
    let mut cur = Reader::new(bytes);
    if cur.take(8)? != MAGIC {
        return Err("bad magic (not a SORN checkpoint)".to_string());
    }
    let version = cur.u32()?;
    if version != FORMAT_VERSION {
        return Err(format!(
            "format version {version} (this build reads {FORMAT_VERSION})"
        ));
    }
    let sections = cur.u32()?;
    if sections as usize != SECTION_TAGS.len() {
        return Err(format!(
            "expected {} sections, header claims {sections}",
            SECTION_TAGS.len()
        ));
    }
    let mut payloads: Vec<Reader<'_>> = Vec::with_capacity(SECTION_TAGS.len());
    for want_tag in &SECTION_TAGS {
        let tag = cur.take(4)?;
        if tag != *want_tag {
            return Err(format!(
                "section tag {:?} where {:?} was expected",
                String::from_utf8_lossy(tag),
                String::from_utf8_lossy(*want_tag)
            ));
        }
        let len = cur.u64()?;
        if len > cur.remaining() as u64 {
            return Err(format!(
                "section {:?} claims {len} bytes, only {} remain",
                String::from_utf8_lossy(*want_tag),
                cur.remaining()
            ));
        }
        let payload = cur.take(len as usize)?;
        let want_crc = cur.u64()?;
        let got_crc = crc64(payload);
        if got_crc != want_crc {
            return Err(format!(
                "section {:?} checksum mismatch (stored {want_crc:016x}, computed {got_crc:016x})",
                String::from_utf8_lossy(*want_tag)
            ));
        }
        payloads.push(Reader::new(payload));
    }
    cur.finish("checkpoint")?;
    let [cfg, time, rng, que, cal, flw, flt, met, blb]: [Reader<'_>; 9] =
        payloads.try_into().expect("one reader per section tag");
    let mut snap = Snapshot::default();
    snap.decode_cfg(cfg)?;
    snap.decode_time(time)?;
    snap.decode_rng(rng)?;
    snap.decode_queues(que)?;
    snap.decode_calendar(cal)?;
    snap.decode_flows(flw)?;
    snap.decode_faults(flt)?;
    snap.decode_metrics(met)?;
    snap.decode_blobs(blb)?;
    Ok(snap)
}

/// Each `decode_*` reads one section into its fields, the inverse of
/// the matching `encode_*`.
impl Snapshot {
    fn decode_cfg(&mut self, mut c: Reader<'_>) -> Result<(), String> {
        self.cfg = SimConfig {
            slot_ns: c.u64()?,
            propagation_ns: c.u64()?,
            uplinks: c.u64()? as usize,
            cell_bytes: c.u32()?,
            seed: c.u64()?,
            node_queue_cap: c.u64()? as usize,
            engine_threads: (c.u64()? as usize).max(1),
            trace_one_in: c.u64()?,
        };
        if self.cfg.slot_ns == 0 {
            return Err("CFG: slot_ns is zero".to_string());
        }
        self.n = c.u64()?;
        self.class_ids = c.vec("CFG classes", 2, Reader::u16)?;
        c.finish("CFG")
    }

    fn decode_time(&mut self, mut c: Reader<'_>) -> Result<(), String> {
        self.slot = c.u64()?;
        self.queued_cells = c.u64()?;
        self.failure_epoch = c.u64()?;
        self.fault_cursor = c.u64()?;
        self.episode = EpisodeState {
            onset_queued: c.u64()? as usize,
            degraded: c.bool()?,
            awaiting_recovery_since: c.opt_u64()?,
        };
        c.finish("TIME")
    }

    fn decode_rng(&mut self, mut c: Reader<'_>) -> Result<(), String> {
        self.rng_states = c.vec("RNG states", 8, Reader::u64)?;
        c.finish("RNG")
    }

    fn decode_queues(&mut self, mut c: Reader<'_>) -> Result<(), String> {
        self.queues = c.vec("QUE nodes", 16, |c| {
            Ok(QueuesSnap {
                specific: c.vec("QUE specific FIFOs", 12, |c| {
                    Ok((
                        c.u32()?,
                        c.vec("QUE specific cells", CELL_BYTES, read_cell)?,
                    ))
                })?,
                class: c.vec("QUE class FIFOs", 10, |c| {
                    Ok((c.u16()?, c.vec("QUE class cells", CELL_BYTES, read_cell)?))
                })?,
            })
        })?;
        c.finish("QUE")
    }

    fn decode_calendar(&mut self, mut c: Reader<'_>) -> Result<(), String> {
        self.cal_delay_slots = c.u64()?;
        self.cal_head_slot = c.u64()?;
        self.cal_stamps = c.vec("CAL stamps", 8, Reader::u64)?;
        self.cal_buckets = c.vec("CAL buckets", 8, |c| {
            c.vec("CAL arrivals", 12 + CELL_BYTES, |c| {
                Ok(Arrival {
                    at_ns: c.u64()?,
                    node: NodeId(c.u32()?),
                    cell: read_cell(c)?,
                })
            })
        })?;
        c.finish("CAL")
    }

    fn decode_flows(&mut self, mut c: Reader<'_>) -> Result<(), String> {
        self.future = c.vec("FLW pending flows", FLOW_BYTES, read_flow)?;
        self.injecting = c.vec("FLW injecting lists", 8, |c| {
            c.vec("FLW injecting entries", 8, Reader::u64)
        })?;
        self.flows = FlowTable::decode(&mut c)?;
        c.finish("FLW")
    }

    fn decode_faults(&mut self, mut c: Reader<'_>) -> Result<(), String> {
        self.failed_nodes = c.vec("FLT failed nodes", 4, Reader::u32)?;
        self.failed_links = c.vec("FLT failed links", 8, |c| Ok((c.u32()?, c.u32()?)))?;
        let mut last_at = 0u64;
        self.fault_events = c.vec("FLT events", 18, |c| {
            let at_ns = c.u64()?;
            if at_ns < last_at {
                return Err("FLT: events out of time order".to_string());
            }
            last_at = at_ns;
            let action = match c.u8()? {
                0 => FaultAction::Fail,
                1 => FaultAction::Restore,
                v => return Err(format!("FLT: bad action byte {v}")),
            };
            let kind = c.u8()?;
            let a = NodeId(c.u32()?);
            let b = NodeId(c.u32()?);
            let target = match kind {
                0 => FaultTarget::Node(a),
                1 => FaultTarget::Link(a, b),
                2 => FaultTarget::LinkBidir(a, b),
                v => return Err(format!("FLT: bad target byte {v}")),
            };
            Ok(FaultEvent {
                at_ns,
                action,
                target,
            })
        })?;
        c.finish("FLT")
    }

    fn decode_metrics(&mut self, mut c: Reader<'_>) -> Result<(), String> {
        let m = &mut self.metrics;
        m.slots = c.u64()?;
        m.injected_cells = c.u64()?;
        m.delivered_cells = c.u64()?;
        m.delivered_bytes = c.u64()?;
        m.transmissions = c.u64()?;
        m.idle_circuit_slots = c.u64()?;
        for h in m.hop_histogram.iter_mut() {
            *h = c.u64()?;
        }
        m.cell_latency_sum_ns = c.u128()?;
        let mut buckets = [0u64; 64];
        for b in buckets.iter_mut() {
            *b = c.u64()?;
        }
        let count = c.u64()?;
        if count != buckets.iter().sum::<u64>() {
            return Err("MET: latency histogram count disagrees with buckets".to_string());
        }
        m.cell_latency = LatencyHistogram::from_raw_parts(buckets, count);
        m.flows = c.vec("MET flow records", 33, |c| {
            Ok(FlowRecord {
                id: FlowId(c.u64()?),
                size_bytes: c.u64()?,
                arrival_ns: c.u64()?,
                completion_ns: c.u64()?,
                max_hops: c.u8()?,
            })
        })?;
        m.peak_queue_depth = c.u64()? as usize;
        m.dropped_cells = c.u64()?;
        let dim = c.u32()?;
        let links = c.count("MET link entries", 16)?;
        let mut matrix = LinkMatrix::with_nodes(dim as usize);
        for _ in 0..links {
            let src = c.u32()?;
            let dst = c.u32()?;
            let count = c.u64()?;
            if src >= dim || dst >= dim {
                return Err(format!("MET: link ({src},{dst}) outside dimension {dim}"));
            }
            if count == 0 {
                return Err(format!("MET: zero count stored for link ({src},{dst})"));
            }
            matrix.insert((src, dst), count);
        }
        m.link_transmissions = matrix;
        m.stranded_cells = c.u64()?;
        m.failure_slots = c.u64()?;
        m.failure_episodes = c.u64()?;
        m.delivered_during_failure = c.u64()?;
        m.recovery_times_ns = c.vec("MET recovery times", 8, Reader::u64)?;
        m.slots_skipped = c.u64()?;
        c.finish("MET")
    }

    fn decode_blobs(&mut self, mut c: Reader<'_>) -> Result<(), String> {
        self.blobs = c.vec("BLB blobs", 16, |c| {
            Ok((c.str("BLB blob name")?, c.bytes("BLB data")?.to_vec()))
        })?;
        c.finish("BLB")
    }
}

// ---------------------------------------------------------------------------
// Filesystem abstraction
// ---------------------------------------------------------------------------

/// The filesystem operations [`CheckpointStore`] needs — injectable so
/// the torn-write fault harness can exercise every failure mode
/// in memory.
pub trait CheckpointFs {
    /// Writes `bytes` to `path` atomically: on success the file holds
    /// exactly `bytes`, and on failure any previous file at `path` is
    /// untouched. Real implementations go through a temp file, fsync,
    /// and rename.
    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Reads a file completely.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Removes a file (pruning old generations).
    fn remove(&mut self, path: &Path) -> io::Result<()>;
    /// Lists the files in `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
}

/// The real filesystem: write-to-temp + fsync + atomic rename +
/// directory fsync.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

impl CheckpointFs for StdFs {
    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable. Directory fsync is a
        // Unix-ism; elsewhere the rename alone is the best available.
        #[cfg(unix)]
        if let Some(dir) = path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        Ok(out)
    }
}

/// What the next [`CheckpointFaultFs::write_atomic`] call should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteFault {
    /// Behave normally.
    #[default]
    None,
    /// Simulate a crash mid-write: only the first `keep` bytes land on
    /// "disk" (at the final path, as if fsync was skipped and the
    /// kernel wrote a prefix), and the call reports an error.
    Torn {
        /// Bytes that survive.
        keep: usize,
    },
    /// Simulate silent media corruption: the write "succeeds" but the
    /// byte at `offset` is flipped.
    CorruptByte {
        /// Offset of the flipped byte (out-of-range = clean write).
        offset: usize,
    },
    /// Simulate a rename failure: nothing lands, any previous file at
    /// the path is untouched, and the call reports an error.
    FailRename,
}

/// An in-memory filesystem with one-shot fault injection, for the
/// self-test harness: torn writes, short writes, silent bit rot, and
/// rename failures, at any byte offset.
#[derive(Debug, Clone, Default)]
pub struct CheckpointFaultFs {
    files: BTreeMap<PathBuf, Vec<u8>>,
    fault: WriteFault,
}

impl CheckpointFaultFs {
    /// An empty in-memory filesystem with no fault armed.
    pub fn new() -> Self {
        CheckpointFaultFs::default()
    }

    /// Arms a fault for the *next* `write_atomic` call (one-shot; the
    /// call after it behaves normally).
    pub fn arm(&mut self, fault: WriteFault) {
        self.fault = fault;
    }

    /// Directly installs file contents (test setup, or simulating
    /// damage written by another process).
    pub fn put(&mut self, path: &Path, bytes: Vec<u8>) {
        self.files.insert(path.to_path_buf(), bytes);
    }

    /// A file's current contents.
    pub fn contents(&self, path: &Path) -> Option<&[u8]> {
        self.files.get(path).map(|v| v.as_slice())
    }
}

impl CheckpointFs for CheckpointFaultFs {
    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match std::mem::take(&mut self.fault) {
            WriteFault::None => {
                self.files.insert(path.to_path_buf(), bytes.to_vec());
                Ok(())
            }
            WriteFault::Torn { keep } => {
                let keep = keep.min(bytes.len());
                self.files
                    .insert(path.to_path_buf(), bytes[..keep].to_vec());
                Err(io::Error::other("simulated torn write (crash mid-write)"))
            }
            WriteFault::CorruptByte { offset } => {
                let mut v = bytes.to_vec();
                if let Some(b) = v.get_mut(offset) {
                    *b ^= 0xFF;
                }
                self.files.insert(path.to_path_buf(), v);
                Ok(())
            }
            WriteFault::FailRename => Err(io::Error::other("simulated rename failure")),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.files
            .get(path)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        Ok(self
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }
}

// ---------------------------------------------------------------------------
// Generation store
// ---------------------------------------------------------------------------

/// A successful [`CheckpointStore::load_latest`].
#[derive(Debug)]
pub struct LoadOutcome {
    /// The loaded snapshot.
    pub snapshot: Snapshot,
    /// The generation file it came from.
    pub path: PathBuf,
    /// Newer generations that were rejected (corrupt) before this one
    /// loaded, newest first, with the rejection reason.
    pub skipped: Vec<(PathBuf, String)>,
}

/// Rotating on-disk checkpoint store: atomic generation writes, last-K
/// retention, and checksum-verified fallback on load.
#[derive(Debug)]
pub struct CheckpointStore<F: CheckpointFs = StdFs> {
    dir: PathBuf,
    fs: F,
    keep: usize,
}

impl CheckpointStore<StdFs> {
    /// Opens (creating if needed) a checkpoint directory on the real
    /// filesystem, keeping [`KEEP_GENERATIONS`] generations.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| CheckpointError::Io {
            op: "create dir",
            path: dir.clone(),
            error: e.to_string(),
        })?;
        Ok(CheckpointStore {
            dir,
            fs: StdFs,
            keep: KEEP_GENERATIONS,
        })
    }
}

impl<F: CheckpointFs> CheckpointStore<F> {
    /// A store over an injected filesystem (the fault harness).
    pub fn with_fs(dir: impl Into<PathBuf>, fs: F, keep: usize) -> Self {
        CheckpointStore {
            dir: dir.into(),
            fs,
            keep: keep.max(1),
        }
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Mutable access to the injected filesystem (arming faults).
    pub fn fs_mut(&mut self) -> &mut F {
        &mut self.fs
    }

    fn generation_of(path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        let rest = name.strip_prefix("ckpt-")?;
        let gen_str = rest.split('-').next()?;
        let stem_ok = name.ends_with(".sorn");
        if !stem_ok {
            return None;
        }
        gen_str.parse().ok()
    }

    /// Generation files present, ascending by generation number.
    fn generations(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut gens: Vec<(u64, PathBuf)> = self
            .fs
            .list(&self.dir)?
            .into_iter()
            .filter_map(|p| Self::generation_of(&p).map(|g| (g, p)))
            .collect();
        gens.sort();
        Ok(gens)
    }

    /// Writes `snapshot` as the next generation and prunes old ones
    /// down to the retention limit. Returns the new file's path and
    /// encoded size.
    pub fn write(&mut self, snapshot: &Snapshot) -> Result<(PathBuf, usize), CheckpointError> {
        let gens = self.generations().map_err(|e| CheckpointError::Io {
            op: "list",
            path: self.dir.clone(),
            error: e.to_string(),
        })?;
        let next_gen = gens.last().map_or(1, |(g, _)| g + 1);
        let path = self
            .dir
            .join(format!("ckpt-{next_gen:08}-slot{}.sorn", snapshot.slot()));
        let bytes = snapshot.to_bytes();
        self.fs
            .write_atomic(&path, &bytes)
            .map_err(|e| CheckpointError::Io {
                op: "write",
                path: path.clone(),
                error: e.to_string(),
            })?;
        // Prune: keep the newest `keep` generations including the one
        // just written. Prune failures are non-fatal (the checkpoint
        // itself landed) but surface as Io errors for visibility.
        let total = gens.len() + 1;
        if total > self.keep {
            for (_, old) in gens.iter().take(total - self.keep) {
                let _ = self.fs.remove(old);
            }
        }
        Ok((path, bytes.len()))
    }

    /// Loads the newest generation that passes every checksum, falling
    /// back to older generations when newer ones are corrupt. Never
    /// panics and never returns a partially-valid snapshot: the outcome
    /// is a fully decoded generation or a structured error listing what
    /// was rejected.
    pub fn load_latest(&self) -> Result<LoadOutcome, CheckpointError> {
        let mut gens = self.generations().map_err(|e| CheckpointError::Io {
            op: "list",
            path: self.dir.clone(),
            error: e.to_string(),
        })?;
        gens.reverse(); // newest first
        let mut skipped = Vec::new();
        for (_, path) in gens {
            let bytes = match self.fs.read(&path) {
                Ok(b) => b,
                Err(e) => {
                    skipped.push((path, format!("read failed: {e}")));
                    continue;
                }
            };
            match Snapshot::from_bytes(&bytes) {
                Ok(snapshot) => {
                    return Ok(LoadOutcome {
                        snapshot,
                        path,
                        skipped,
                    })
                }
                Err(e) => skipped.push((path, e.to_string())),
            }
        }
        Err(CheckpointError::NoValidCheckpoint {
            dir: self.dir.clone(),
            skipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_matches_the_reference_vector() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    fn tiny_snapshot() -> Snapshot {
        Snapshot {
            n: 2,
            slot: 7,
            class_ids: vec![0],
            rng_states: vec![1, 2],
            queues: vec![QueuesSnap::default(), QueuesSnap::default()],
            cal_delay_slots: 6,
            cal_head_slot: 7,
            cal_stamps: vec![0; 7],
            cal_buckets: vec![Vec::new(); 7],
            injecting: vec![vec![], vec![]],
            metrics: Metrics {
                link_transmissions: LinkMatrix::with_nodes(2),
                ..Metrics::default()
            },
            blobs: vec![("probe".to_string(), vec![1, 2, 3])],
            ..Snapshot::default()
        }
    }

    #[test]
    fn snapshot_bytes_round_trip() {
        let snap = tiny_snapshot();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.slot(), 7);
        assert_eq!(back.n(), 2);
        assert_eq!(back.rng_states, vec![1, 2]);
        assert_eq!(back.blob("probe"), Some(&[1u8, 2, 3][..]));
        assert_eq!(back.to_bytes(), bytes, "re-encoding is byte-stable");
    }

    #[test]
    fn every_truncation_is_a_clean_error() {
        let bytes = tiny_snapshot().to_bytes();
        for len in 0..bytes.len() {
            let r = Snapshot::from_bytes(&bytes[..len]);
            assert!(r.is_err(), "prefix of {len} bytes must not decode");
        }
    }

    #[test]
    fn every_byte_flip_is_a_clean_error() {
        let bytes = tiny_snapshot().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            // Must not panic; must not silently decode damaged state.
            let r = Snapshot::from_bytes(&bad);
            assert!(r.is_err(), "flip at offset {i} must be detected");
        }
    }

    #[test]
    fn forged_section_length_cannot_over_allocate() {
        let mut bytes = tiny_snapshot().to_bytes();
        // Forge the first section's length to an absurd value.
        let len_off = 8 + 4 + 4 + 4; // magic + version + count + tag
        bytes[len_off..len_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Snapshot::from_bytes(&bytes).is_err());
    }

    #[test]
    fn store_rotates_and_falls_back_on_corruption() {
        let dir = PathBuf::from("/mem");
        let mut store = CheckpointStore::with_fs(&dir, CheckpointFaultFs::new(), 2);
        let mut snap = tiny_snapshot();
        snap.slot = 10;
        store.write(&snap).expect("gen 1");
        snap.slot = 20;
        let (newest, _) = store.write(&snap).expect("gen 2");
        // Corrupt the newest generation in place.
        let mut bytes = store.fs_mut().read(&newest).expect("read back");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        store.fs_mut().put(&newest, bytes);
        let out = store.load_latest().expect("fallback generation loads");
        assert_eq!(out.snapshot.slot(), 10, "older generation wins");
        assert_eq!(out.skipped.len(), 1);
    }

    #[test]
    fn store_keeps_only_k_generations() {
        let dir = PathBuf::from("/mem");
        let mut store = CheckpointStore::with_fs(&dir, CheckpointFaultFs::new(), 2);
        let mut snap = tiny_snapshot();
        for slot in [10, 20, 30] {
            snap.slot = slot;
            store.write(&snap).expect("write");
        }
        let listed = store.fs_mut().list(&dir).expect("list");
        assert_eq!(listed.len(), 2, "retention prunes to K=2");
        let out = store.load_latest().expect("latest");
        assert_eq!(out.snapshot.slot(), 30);
    }

    #[test]
    fn empty_store_reports_no_checkpoint() {
        let store = CheckpointStore::with_fs("/mem", CheckpointFaultFs::new(), 2);
        match store.load_latest() {
            Err(CheckpointError::NoValidCheckpoint { skipped, .. }) => {
                assert!(skipped.is_empty())
            }
            other => panic!("expected NoValidCheckpoint, got {other:?}"),
        }
    }

    #[test]
    fn torn_write_leaves_previous_generation_loadable() {
        let dir = PathBuf::from("/mem");
        let mut store = CheckpointStore::with_fs(&dir, CheckpointFaultFs::new(), 2);
        let mut snap = tiny_snapshot();
        snap.slot = 10;
        store.write(&snap).expect("good write");
        let full_len = snap.to_bytes().len();
        // Tear the next write at every byte offset; the previous
        // generation must stay loadable every time, with no panic.
        for keep in 0..full_len {
            snap.slot = 99;
            store.fs_mut().arm(WriteFault::Torn { keep });
            let _ = store.write(&snap); // reports an error; ignore
            let out = store.load_latest().expect("previous generation");
            assert_eq!(out.snapshot.slot(), 10, "torn at {keep}");
        }
    }
}
