//! Workload generation: composing arrivals, sizes, and spatial models
//! into concrete flow lists for the simulator.

use crate::dist::FlowSizeDist;
use crate::spatial::SpatialModel;
use sorn_base::rng::Rng;
use sorn_sim::{Flow, FlowId, Nanos};
use sorn_topology::NodeId;

/// A Poisson open-loop workload at a target offered load.
#[derive(Debug, Clone)]
pub struct PoissonWorkload {
    /// Number of source nodes.
    pub n: usize,
    /// Offered load per node as a fraction of node bandwidth (1.0 =
    /// every node offers its full line rate).
    pub load: f64,
    /// Node bandwidth in bytes per nanosecond (e.g. 16 uplinks at
    /// 100 Gb/s = 200 B/ns).
    pub node_bandwidth_bytes_per_ns: f64,
    /// Workload duration in nanoseconds.
    pub duration_ns: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl PoissonWorkload {
    /// Per-node flow arrival rate (flows per nanosecond) implied by the
    /// load and the mean flow size.
    pub fn arrival_rate(&self, dist: &FlowSizeDist) -> f64 {
        self.load * self.node_bandwidth_bytes_per_ns / dist.mean_bytes()
    }

    /// Generates the flow list: per-node Poisson arrivals, sizes from
    /// `dist`, destinations from `spatial`. Flows are sorted by arrival
    /// time and numbered densely.
    pub fn generate(&self, dist: &FlowSizeDist, spatial: &dyn SpatialModel) -> Vec<Flow> {
        assert!(self.load > 0.0, "load must be positive");
        assert!(self.node_bandwidth_bytes_per_ns > 0.0);
        let mut rng = Rng::seed_from_u64(self.seed);
        let rate = self.arrival_rate(dist);
        // An infinite rate (a zero mean size, an infinite load) never
        // advances `t` below, so the loop would push flows until memory
        // runs out.
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be finite and positive, got {rate} flows/ns"
        );
        let mut flows = Vec::new();
        for src in 0..self.n as u32 {
            let mut t = 0.0f64;
            loop {
                // Exponential inter-arrival gap.
                let u: f64 = rng.gen::<f64>().max(1e-300);
                t += -u.ln() / rate;
                if t >= self.duration_ns as f64 {
                    break;
                }
                let src = NodeId(src);
                let dst = spatial.pick_dst(src, &mut rng);
                flows.push(Flow {
                    id: FlowId(0), // renumbered below
                    src,
                    dst,
                    size_bytes: dist.sample(&mut rng),
                    arrival_ns: t as Nanos,
                });
            }
        }
        flows.sort_by_key(|f| (f.arrival_ns, f.src.0, f.dst.0, f.size_bytes));
        for (i, f) in flows.iter_mut().enumerate() {
            f.id = FlowId(i as u64);
        }
        flows
    }
}

/// Summary statistics of a flow list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadStats {
    /// Number of flows.
    pub flows: usize,
    /// Total bytes across flows.
    pub total_bytes: u64,
    /// Mean flow size in bytes.
    pub mean_bytes: f64,
    /// Measured offered load per node (fraction of node bandwidth),
    /// given the bandwidth and duration used at generation.
    pub offered_load: f64,
}

/// Computes summary statistics for a generated flow list.
pub fn stats(
    flows: &[Flow],
    n: usize,
    node_bandwidth_bytes_per_ns: f64,
    duration_ns: Nanos,
) -> WorkloadStats {
    let total_bytes: u64 = flows.iter().map(|f| f.size_bytes).sum();
    let mean = if flows.is_empty() {
        0.0
    } else {
        total_bytes as f64 / flows.len() as f64
    };
    let capacity = n as f64 * node_bandwidth_bytes_per_ns * duration_ns as f64;
    WorkloadStats {
        flows: flows.len(),
        total_bytes,
        mean_bytes: mean,
        offered_load: if capacity > 0.0 {
            total_bytes as f64 / capacity
        } else {
            0.0
        },
    }
}

/// Measured intra-clique byte fraction of a flow list (the empirical
/// locality ratio `x` of §3).
pub fn measured_locality(flows: &[Flow], cliques: &sorn_topology::CliqueMap) -> f64 {
    let mut intra = 0u64;
    let mut total = 0u64;
    for f in flows {
        total += f.size_bytes;
        if cliques.same_clique(f.src, f.dst) {
            intra += f.size_bytes;
        }
    }
    if total == 0 {
        0.0
    } else {
        intra as f64 / total as f64
    }
}

/// Builds an empirical node-to-node demand matrix (rows normalized so the
/// busiest node offers 1.0) from a flow list.
pub fn empirical_matrix(flows: &[Flow], n: usize) -> Vec<Vec<f64>> {
    let mut m = vec![vec![0.0f64; n]; n];
    for f in flows {
        if f.src != f.dst {
            m[f.src.index()][f.dst.index()] += f.size_bytes as f64;
        }
    }
    let max_row: f64 = m.iter().map(|r| r.iter().sum::<f64>()).fold(0.0, f64::max);
    if max_row > 0.0 {
        for row in &mut m {
            for v in row.iter_mut() {
                *v /= max_row;
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::{CliqueLocal, Uniform};
    use sorn_topology::CliqueMap;

    fn workload() -> PoissonWorkload {
        PoissonWorkload {
            n: 16,
            load: 0.3,
            node_bandwidth_bytes_per_ns: 12.5, // 100 Gb/s
            duration_ns: 1_000_000,            // 1 ms
            seed: 3,
        }
    }

    #[test]
    fn offered_load_matches_target() {
        let w = workload();
        let dist = FlowSizeDist::fixed(10_000);
        let flows = w.generate(&dist, &Uniform::new(16));
        let s = stats(&flows, 16, w.node_bandwidth_bytes_per_ns, w.duration_ns);
        assert!(
            (s.offered_load / 0.3 - 1.0).abs() < 0.1,
            "offered load {} vs target 0.3",
            s.offered_load
        );
        assert!((s.mean_bytes - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn flows_are_sorted_and_densely_numbered() {
        let w = workload();
        let flows = w.generate(&FlowSizeDist::fixed(1000), &Uniform::new(16));
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(f.id, FlowId(i as u64));
            assert!(f.arrival_ns < w.duration_ns);
            assert_ne!(f.src, f.dst);
            if i > 0 {
                assert!(flows[i - 1].arrival_ns <= f.arrival_ns);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let w = workload();
        let a = w.generate(&FlowSizeDist::web_search(), &Uniform::new(16));
        let b = w.generate(&FlowSizeDist::web_search(), &Uniform::new(16));
        assert_eq!(a, b);
    }

    #[test]
    fn locality_measurement_tracks_spatial_model() {
        let map = CliqueMap::contiguous(16, 4);
        let w = PoissonWorkload {
            n: 16,
            load: 0.5,
            node_bandwidth_bytes_per_ns: 12.5,
            duration_ns: 4_000_000,
            seed: 11,
        };
        let flows = w.generate(
            &FlowSizeDist::fixed(5_000),
            &CliqueLocal::new(map.clone(), 0.6),
        );
        let x = measured_locality(&flows, &map);
        assert!((x - 0.6).abs() < 0.05, "measured locality {x}");
    }

    #[test]
    fn empirical_matrix_normalizes_busiest_row() {
        let w = workload();
        let flows = w.generate(&FlowSizeDist::fixed(1000), &Uniform::new(16));
        let m = empirical_matrix(&flows, 16);
        let max_row: f64 = m.iter().map(|r| r.iter().sum::<f64>()).fold(0.0, f64::max);
        assert!((max_row - 1.0).abs() < 1e-9);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0.0);
        }
    }

    #[test]
    fn empty_flow_list_stats() {
        let s = stats(&[], 4, 1.0, 100);
        assert_eq!(s.flows, 0);
        assert_eq!(s.offered_load, 0.0);
        let map = CliqueMap::contiguous(4, 2);
        assert_eq!(measured_locality(&[], &map), 0.0);
    }
}
