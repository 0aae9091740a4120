//! `sim_digest`: one number that changes when any simulated result does.
//!
//! A change meant only to speed the simulator up must leave every
//! simulated statistic identical; comparing one digest per rep is how
//! the driver and `compare` notice when it did not.

use sorn_sim::Metrics;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of every `Metrics` counter, the hop and latency histograms,
/// the per-link transmission counts and the flow records. Records are
/// hashed in id order and links in `(src, dst)` order, so a change in
/// the order two same-slot completions are pushed does not show, while a
/// change in any value does.
pub fn metrics_digest(m: &Metrics) -> u64 {
    let mut h = Fnv::new();
    for v in [
        m.slots,
        m.injected_cells,
        m.delivered_cells,
        m.delivered_bytes,
        m.transmissions,
        m.idle_circuit_slots,
        m.cell_latency_sum_ns as u64,
        (m.cell_latency_sum_ns >> 64) as u64,
        m.peak_queue_depth as u64,
        m.dropped_cells,
        m.stranded_cells,
        m.failure_slots,
        m.failure_episodes,
        m.delivered_during_failure,
        m.slots_skipped,
    ] {
        h.u64(v);
    }
    for &count in &m.hop_histogram {
        h.u64(count);
    }
    for (upper, count) in m.cell_latency.nonzero_buckets() {
        h.u64(upper);
        h.u64(count);
    }
    for &t in &m.recovery_times_ns {
        h.u64(t);
    }
    let mut links: Vec<((u32, u32), u64)> = m.link_transmissions.iter().collect();
    links.sort_unstable();
    for ((src, dst), count) in links {
        h.u64((src as u64) << 32 | dst as u64);
        h.u64(count);
    }
    let mut order: Vec<u32> = (0..m.flows.len() as u32).collect();
    order.sort_unstable_by_key(|&i| m.flows[i as usize].id.0);
    for i in order {
        let f = &m.flows[i as usize];
        for v in [
            f.id.0,
            f.size_bytes,
            f.arrival_ns,
            f.completion_ns,
            f.max_hops as u64,
        ] {
            h.u64(v);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_sim::{FlowId, FlowRecord, LinkMatrix};

    #[test]
    fn fnv1a_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        let of = |s: &str| {
            let mut h = Fnv::new();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(of(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of("foobar"), 0x8594_4171_f739_67e8);
    }

    fn fixed() -> Metrics {
        let record = |id: u64, done: u64| FlowRecord {
            id: FlowId(id),
            size_bytes: 12_500,
            arrival_ns: 100 * id,
            completion_ns: done,
            max_hops: 2,
        };
        let mut links = LinkMatrix::with_nodes(4);
        links.record(0, 1);
        links.record(0, 1);
        links.record(2, 3);
        let mut m = Metrics {
            slots: 201,
            injected_cells: 20,
            delivered_cells: 20,
            delivered_bytes: 25_000,
            transmissions: 41,
            flows: vec![record(0, 900), record(1, 1_300)],
            link_transmissions: links,
            ..Metrics::default()
        };
        m.hop_histogram[2] = 19;
        m.hop_histogram[3] = 1;
        m.cell_latency.record(700);
        m
    }

    #[test]
    fn digest_of_a_fixed_metrics_is_pinned() {
        // Pinned so that a change to what the digest covers is a
        // deliberate edit here, not an accident.
        assert_eq!(metrics_digest(&fixed()), 0x3f2b_aec0_8260_b1e3);
    }

    #[test]
    fn digest_ignores_record_order_and_sees_every_field() {
        let base = metrics_digest(&fixed());
        let mut swapped = fixed();
        swapped.flows.reverse();
        assert_eq!(metrics_digest(&swapped), base);

        let mut m = fixed();
        m.flows[1].completion_ns += 1;
        assert_ne!(metrics_digest(&m), base);
        let mut m = fixed();
        m.hop_histogram[3] += 1;
        assert_ne!(metrics_digest(&m), base);
        let mut m = fixed();
        m.slots_skipped = 1;
        assert_ne!(metrics_digest(&m), base);
        let mut m = fixed();
        m.link_transmissions.record(2, 3);
        assert_ne!(metrics_digest(&m), base);
        let mut m = fixed();
        m.cell_latency.record(700);
        assert_ne!(metrics_digest(&m), base);
    }
}
