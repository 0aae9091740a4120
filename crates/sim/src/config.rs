//! Simulation configuration and time accounting.
//!
//! The simulator is *slot-synchronous*: the whole fabric advances in fixed
//! time slots, each long enough to reconfigure circuits and transmit one
//! cell per uplink (§2 "Fast Circuit Switches"). Table 1's reference
//! parameters are 100 ns slots, 500 ns of propagation per hop, and 16
//! uplinks per node.

/// Nanoseconds, the simulator's base time unit.
pub type Nanos = u64;

/// Static parameters of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Duration of one time slot in nanoseconds (reconfiguration guard
    /// time included). Table 1 uses 100 ns.
    pub slot_ns: Nanos,
    /// Propagation delay per hop in nanoseconds. Table 1 uses 500 ns.
    pub propagation_ns: Nanos,
    /// Uplinks (parallel OCS planes) per node; each plane follows the same
    /// schedule with a staggered phase.
    pub uplinks: usize,
    /// Payload bytes carried per cell (one cell per slot per uplink).
    ///
    /// At 100 Gb/s per uplink and 100 ns slots this is 1250 bytes.
    pub cell_bytes: u32,
    /// RNG seed; identical seeds reproduce runs exactly.
    pub seed: u64,
    /// Safety bound on hops per cell; exceeding it is a routing bug and
    /// aborts the run with an error.
    pub max_hops: u8,
    /// Total queued cells a node may hold before arrivals are dropped;
    /// `0` means unbounded (the open-loop default for throughput
    /// studies). Finite caps enable loss experiments.
    pub node_queue_cap: usize,
    /// Threads the engine shards each slot's routing and transmit work
    /// across. `1` (the default) runs the classic inline path with no
    /// worker pool; any value produces bit-identical results — per-node
    /// RNG streams and node-ordered merges make parallelism invisible.
    pub engine_threads: usize,
    /// Causal flow tracing: trace roughly one flow in this many (`1`
    /// traces every flow). `0` — the default — disables tracing; the
    /// engine then emits no hop events and pays nothing. The traced
    /// subset is a pure hash of `(seed, flow id)`, so it is identical
    /// at any `engine_threads` and enabling it never perturbs routing.
    pub trace_one_in: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            slot_ns: 100,
            propagation_ns: 500,
            uplinks: 1,
            cell_bytes: 1250,
            seed: 0,
            max_hops: 16,
            node_queue_cap: 0,
            engine_threads: 1,
            trace_one_in: 0,
        }
    }
}

impl SimConfig {
    /// Table 1's deployment parameters (100 ns slots, 500 ns propagation,
    /// 16 uplinks, 100 Gb/s-equivalent cells).
    pub fn paper_reference() -> Self {
        SimConfig {
            slot_ns: 100,
            propagation_ns: 500,
            uplinks: 16,
            ..Default::default()
        }
    }

    /// Start time (ns) of slot `t`.
    #[inline]
    pub fn slot_start(&self, slot: u64) -> Nanos {
        slot * self.slot_ns
    }

    /// The slot containing time `ns`.
    #[inline]
    pub fn slot_of(&self, ns: Nanos) -> u64 {
        ns / self.slot_ns
    }

    /// Per-uplink line rate implied by cell size and slot length, in
    /// gigabits per second.
    pub fn line_rate_gbps(&self) -> f64 {
        (self.cell_bytes as f64 * 8.0) / self.slot_ns as f64
    }

    /// Aggregate node bandwidth in gigabits per second (all uplinks).
    pub fn node_bandwidth_gbps(&self) -> f64 {
        self.line_rate_gbps() * self.uplinks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_arithmetic_round_trips() {
        let c = SimConfig::default();
        assert_eq!(c.slot_start(7), 700);
        assert_eq!(c.slot_of(700), 7);
        assert_eq!(c.slot_of(799), 7);
        assert_eq!(c.slot_of(800), 8);
    }

    #[test]
    fn paper_reference_rates() {
        let c = SimConfig::paper_reference();
        // 1250 B per 100 ns slot = 100 Gb/s per uplink.
        assert!((c.line_rate_gbps() - 100.0).abs() < 1e-9);
        assert!((c.node_bandwidth_gbps() - 1600.0).abs() < 1e-9);
        assert_eq!(c.uplinks, 16);
    }
}
