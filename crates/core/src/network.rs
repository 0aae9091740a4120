//! `SornNetwork`: the assembled semi-oblivious network.
//!
//! Ties a [`SornConfig`] to its clique map, circuit schedule, and router,
//! and offers the three evaluations the paper performs: closed-form
//! analysis (Table 1), flow-level worst-case throughput (Figure 2(f)),
//! and packet simulation.

use crate::config::{CoreError, SornConfig};
use crate::model;
use sorn_routing::{evaluate, DemandMatrix, SornPaths, SornRouter, ThroughputReport};
use sorn_sim::{Engine, Flow, Metrics, NoopProbe, Probe, SimConfig, SimError};
use sorn_topology::builders::{sorn_schedule, SornScheduleParams};
use sorn_topology::{CircuitSchedule, CliqueMap};

/// Closed-form analysis of a SORN configuration (one Table 1 block).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SornAnalysis {
    /// Oversubscription ratio in effect.
    pub q: f64,
    /// Intra-clique intrinsic latency, slots.
    pub intra_delta_m: f64,
    /// Inter-clique intrinsic latency, slots.
    pub inter_delta_m: f64,
    /// Intra-clique worst-case single-packet latency, nanoseconds.
    pub intra_latency_ns: f64,
    /// Inter-clique worst-case single-packet latency, nanoseconds.
    pub inter_latency_ns: f64,
    /// Worst-case throughput `r`.
    pub throughput: f64,
    /// Mean hops (= normalized bandwidth cost).
    pub mean_hops: f64,
}

/// An assembled semi-oblivious reconfigurable network.
#[derive(Debug, Clone)]
pub struct SornNetwork {
    config: SornConfig,
    cliques: CliqueMap,
    schedule: CircuitSchedule,
    router: SornRouter,
}

impl SornNetwork {
    /// Builds the network: validates the config, lays out contiguous
    /// cliques, constructs the clique schedule at the effective `q`, and
    /// instantiates the router.
    pub fn build(config: SornConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let cliques = CliqueMap::contiguous(config.n, config.cliques);
        let params = SornScheduleParams::with_q(config.effective_q());
        let schedule = sorn_schedule(&cliques, &params)?;
        let router = SornRouter::new(cliques.clone());
        Ok(SornNetwork {
            config,
            cliques,
            schedule,
            router,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SornConfig {
        &self.config
    }

    /// The clique assignment.
    pub fn cliques(&self) -> &CliqueMap {
        &self.cliques
    }

    /// The circuit schedule.
    pub fn schedule(&self) -> &CircuitSchedule {
        &self.schedule
    }

    /// The router.
    pub fn router(&self) -> &SornRouter {
        &self.router
    }

    /// Closed-form analysis (§4's formulas at this configuration).
    pub fn analysis(&self) -> SornAnalysis {
        let q = self.config.effective_q().to_f64();
        let c = self.config.clique_size();
        let nc = self.config.cliques;
        let x = self.config.locality;
        let intra = model::intra_delta_m(q, c);
        let inter = model::inter_delta_m(q, nc, c, self.config.inter_latency_model);
        SornAnalysis {
            q,
            intra_delta_m: intra,
            inter_delta_m: inter,
            intra_latency_ns: model::min_latency_ns(
                intra,
                2,
                self.config.slot_ns as f64,
                self.config.propagation_ns as f64,
                self.config.uplinks,
            ),
            inter_latency_ns: model::min_latency_ns(
                inter,
                3,
                self.config.slot_ns as f64,
                self.config.propagation_ns as f64,
                self.config.uplinks,
            ),
            throughput: model::throughput(q, x),
            mean_hops: model::mean_hops(x),
        }
    }

    /// Exact flow-level worst-case throughput under a clique-local demand
    /// with locality `x` (a Figure 2(f) point).
    pub fn flow_throughput(&self, x: f64) -> Result<ThroughputReport, CoreError> {
        let demand = DemandMatrix::clique_local(&self.cliques, x);
        let topo = self.schedule.logical_topology();
        let model = SornPaths::new(self.cliques.clone());
        evaluate(&topo, &model, &demand)
            .map_err(|e| CoreError::InvalidConfig(format!("flow-level evaluation failed: {e}")))
    }

    /// Packet-simulates the given flows until drained (or `max_slots`),
    /// returning the metrics. `seed` controls routing randomness.
    pub fn simulate(
        &self,
        flows: Vec<Flow>,
        seed: u64,
        max_slots: u64,
    ) -> Result<(Metrics, bool), SimError> {
        let (metrics, drained, NoopProbe) =
            self.simulate_with_probe(flows, seed, max_slots, NoopProbe)?;
        Ok((metrics, drained))
    }

    /// Like [`SornNetwork::simulate`], but with a telemetry probe
    /// observing the run. Fires the probe's run-end hook after the last
    /// slot and hands the probe back alongside the metrics.
    pub fn simulate_with_probe<P: Probe>(
        &self,
        flows: Vec<Flow>,
        seed: u64,
        max_slots: u64,
        probe: P,
    ) -> Result<(Metrics, bool, P), SimError> {
        let cfg = SimConfig {
            slot_ns: self.config.slot_ns,
            propagation_ns: self.config.propagation_ns,
            uplinks: self.config.uplinks,
            seed,
            engine_threads: self.config.engine_threads,
            trace_one_in: self.config.trace_one_in,
            ..SimConfig::default()
        };
        let mut engine = Engine::with_probe(cfg, &self.schedule, &self.router, probe);
        engine.add_flows(flows)?;
        let drained = engine.run_until_drained(max_slots)?;
        let metrics = engine.metrics().clone();
        Ok((metrics, drained, engine.finish()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_routing::INTRA_SPRAY;
    use sorn_sim::FlowId;
    use sorn_topology::{NodeId, Ratio};

    fn topology_a_network() -> SornNetwork {
        let mut cfg = SornConfig::small(8, 2, 0.5);
        cfg.q = Some(Ratio::integer(3));
        SornNetwork::build(cfg).unwrap()
    }

    #[test]
    fn build_produces_consistent_components() {
        let net = topology_a_network();
        assert_eq!(net.schedule().period(), 4);
        assert_eq!(net.cliques().cliques(), 2);
        // The router is built over the network's clique map: its spray
        // hop admits exactly topology A's intra-clique circuits.
        let router: &dyn sorn_sim::Router = net.router();
        assert_eq!(router.name(), "sorn");
        let admits = |from, to| router.circuit_admits(INTRA_SPRAY, NodeId(from), NodeId(to));
        assert_eq!(admits(0, 3), Some(true));
        assert_eq!(admits(0, 4), Some(false));
        assert_eq!(admits(4, 7), Some(true));
    }

    #[test]
    fn analysis_matches_model_formulas() {
        let net = topology_a_network();
        let a = net.analysis();
        assert!((a.q - 3.0).abs() < 1e-12);
        // intra δm = (4/3)*3 = 4 slots.
        assert!((a.intra_delta_m - 4.0).abs() < 1e-12);
        // Table variant: 3*1 + 4 = 7 slots.
        assert!((a.inter_delta_m - 7.0).abs() < 1e-12);
        // 1 uplink: intra latency = 4*100 + 2*500 = 1400 ns.
        assert!((a.intra_latency_ns - 1400.0).abs() < 1e-9);
        assert!((a.inter_latency_ns - (700.0 + 1500.0)).abs() < 1e-9);
    }

    #[test]
    fn flow_throughput_beats_one_third_at_zero_locality() {
        let cfg = SornConfig::small(16, 4, 0.0);
        let net = SornNetwork::build(cfg).unwrap();
        let rep = net.flow_throughput(0.0).unwrap();
        assert!(rep.throughput >= 1.0 / 3.0 - 1e-9, "r = {}", rep.throughput);
    }

    #[test]
    fn simulate_delivers_everything() {
        let net = topology_a_network();
        let flows = vec![
            Flow {
                id: FlowId(0),
                src: NodeId(0),
                dst: NodeId(2),
                size_bytes: 3 * 1250,
                arrival_ns: 0,
            },
            Flow {
                id: FlowId(1),
                src: NodeId(1),
                dst: NodeId(6),
                size_bytes: 2 * 1250,
                arrival_ns: 100,
            },
        ];
        let (m, drained) = net.simulate(flows, 42, 10_000).unwrap();
        assert!(drained);
        assert_eq!(m.flows.len(), 2);
        assert_eq!(m.delivered_cells, 5);
    }

    #[test]
    fn build_rejects_invalid_configs() {
        assert!(SornNetwork::build(SornConfig::small(10, 3, 0.5)).is_err());
    }

    #[test]
    fn default_q_is_locality_optimal() {
        let cfg = SornConfig::small(32, 4, 0.5);
        let net = SornNetwork::build(cfg).unwrap();
        assert!((net.analysis().q - 4.0).abs() < 1e-12);
        assert!((net.analysis().throughput - 0.4).abs() < 1e-12);
    }
}
