//! Physical-layer model: wavelength-routed AWGR setups (Figure 2(a), §5).
//!
//! The paper's reference hardware is Sirius-like: nodes carry fast tunable
//! lasers into Arrayed Waveguide Grating Routers. An `R`-port AWGR routes
//! input port `i` at wavelength `λ_k` to output port `(i + k) mod R`, so a
//! wavelength choice implements a *cyclic* matching within the grating's
//! reach. With `p` ports per node, port `j` is wired to cover destination
//! shift class `[j·R, (j+1)·R)`, so a node pair with id difference `k` is
//! reachable through port `k / R`. The §5 example — 4096 nodes, 16 ports,
//! 256-port gratings — covers all 4096 shifts and therefore "enables a
//! circuit between each node pair".
//!
//! This module answers the two §5 "Expressivity" questions: *which
//! matchings are realizable* on a given setup, and *which clique sizes the
//! operator can schedule* (the paper's "1 (flat network), 16, 32, 64 up to
//! 2048" list).

use crate::error::{invalid, Result};
use crate::matching::Matching;

/// A wavelength-routed optical circuit switch setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AwgrSetup {
    /// Number of nodes attached to the OCS layer.
    pub nodes: usize,
    /// Ports (uplinks) per node.
    pub ports_per_node: usize,
    /// Ports per AWGR grating (= distinct wavelengths usable per port).
    pub grating_ports: usize,
}

impl AwgrSetup {
    /// The Table 1 / §5 reference setup: 4096 racks, 16 uplinks, 256-port
    /// gratings.
    pub fn paper_reference() -> Self {
        AwgrSetup {
            nodes: 4096,
            ports_per_node: 16,
            grating_ports: 256,
        }
    }

    /// Validates the setup.
    pub fn validate(&self) -> Result<()> {
        if self.nodes < 2 {
            return Err(invalid("nodes", "need at least 2 nodes"));
        }
        if self.ports_per_node == 0 {
            return Err(invalid("ports_per_node", "need at least one port"));
        }
        if self.grating_ports < 2 {
            return Err(invalid("grating_ports", "gratings need at least 2 ports"));
        }
        Ok(())
    }

    /// Number of destination shift classes covered: shifts
    /// `0 .. coverage()` are reachable from every node.
    ///
    /// Full connectivity requires `coverage() >= nodes`.
    pub fn coverage(&self) -> usize {
        self.ports_per_node.saturating_mul(self.grating_ports)
    }

    /// True when every node pair can be given a circuit (§5: "256-port
    /// gratings enable a circuit between each node pair").
    pub fn full_mesh_capable(&self) -> bool {
        self.coverage() >= self.nodes
    }

    /// The port through which a circuit of destination shift `k`
    /// (`dst - src mod nodes`) is realized, or `None` when out of reach.
    pub fn port_for_shift(&self, k: usize) -> Option<usize> {
        if k == 0 || k >= self.nodes {
            return None;
        }
        let port = k / self.grating_ports;
        (port < self.ports_per_node).then_some(port)
    }

    /// True when the given matching is realizable in a single slot: every
    /// active circuit's shift must be within port reach. (Distinct sources
    /// never collide at an output because the matching is a permutation
    /// and AWGR routing is shift-additive.)
    pub fn is_realizable(&self, m: &Matching) -> bool {
        if m.n() != self.nodes {
            return false;
        }
        m.circuits().all(|(s, d)| {
            let k = (d.0 as usize + self.nodes - s.0 as usize) % self.nodes;
            self.port_for_shift(k).is_some()
        })
    }

    /// Expressivity report for SORN scheduling on this setup.
    pub fn expressivity(&self) -> Expressivity {
        Expressivity { setup: *self }
    }
}

/// Answers §5's expressivity questions for a given [`AwgrSetup`].
#[derive(Debug, Clone, Copy)]
pub struct Expressivity {
    setup: AwgrSetup,
}

impl Expressivity {
    /// Clique sizes schedulable on this setup under the operator policy
    /// the paper describes: contiguous cliques whose intra- and
    /// inter-clique matchings are all within port reach, sized as a
    /// multiple of the per-node port count (so the clique round robin can
    /// be staggered across all uplink planes), at most half the network
    /// (so at least two cliques exist), plus size 1 (the flat network).
    ///
    /// For the reference setup this returns `[1, 16, 32, 64, …, 2048]`,
    /// matching the §5 enumeration.
    pub fn clique_sizes(&self) -> Vec<usize> {
        let n = self.setup.nodes;
        let mut out = vec![1];
        for c in 2..=n / 2 {
            if !n.is_multiple_of(c) {
                continue;
            }
            if c % self.setup.ports_per_node != 0 {
                continue;
            }
            if self.realizable_clique_size(c) {
                out.push(c);
            }
        }
        out
    }

    /// True when contiguous cliques of size `c` have all their SORN
    /// matchings within reach: intra matchings use shifts `{k, k - c mod
    /// n}` for `k < c`, inter matchings use shifts that are multiples of
    /// `c`.
    pub fn realizable_clique_size(&self, c: usize) -> bool {
        let n = self.setup.nodes;
        if c == 1 {
            // Flat round robin: needs full coverage.
            return self.setup.full_mesh_capable();
        }
        if !n.is_multiple_of(c) {
            return false;
        }
        // Intra shifts: forward k in 1..c and wrapped n - (c - k).
        let intra_ok = (1..c).all(|k| {
            self.setup.port_for_shift(k).is_some()
                && self.setup.port_for_shift(n - (c - k)).is_some()
        });
        // Inter shifts: d*c for clique shifts d in 1..n/c.
        let inter_ok = (1..n / c).all(|d| self.setup.port_for_shift(d * c).is_some());
        intra_ok && inter_ok
    }

    /// How many distinct cyclic matchings the setup offers beyond those a
    /// single schedule needs — the "hundreds of remaining matchings" §5
    /// mentions as headroom for non-uniform connectivity.
    pub fn spare_matchings(&self, schedule_matchings: usize) -> usize {
        self.setup
            .coverage()
            .min(self.setup.nodes.saturating_sub(1))
            .saturating_sub(schedule_matchings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{round_robin, sorn_schedule, SornScheduleParams};
    use crate::node::CliqueMap;
    use crate::rational::Ratio;

    #[test]
    fn paper_reference_is_full_mesh() {
        let s = AwgrSetup::paper_reference();
        s.validate().unwrap();
        assert_eq!(s.coverage(), 4096);
        assert!(s.full_mesh_capable());
    }

    #[test]
    fn port_for_shift_partitions_reach() {
        let s = AwgrSetup::paper_reference();
        assert_eq!(s.port_for_shift(1), Some(0));
        assert_eq!(s.port_for_shift(255), Some(0));
        assert_eq!(s.port_for_shift(256), Some(1));
        assert_eq!(s.port_for_shift(4095), Some(15));
        assert_eq!(s.port_for_shift(0), None);
        assert_eq!(s.port_for_shift(4096), None);
    }

    #[test]
    fn undersized_setup_rejects_far_shifts() {
        let s = AwgrSetup {
            nodes: 1024,
            ports_per_node: 2,
            grating_ports: 256,
        };
        assert!(!s.full_mesh_capable());
        assert_eq!(s.port_for_shift(511), Some(1));
        assert_eq!(s.port_for_shift(512), None);
    }

    #[test]
    fn round_robin_realizable_on_reference() {
        // Use a smaller proportional setup to keep the test fast:
        // 64 nodes, 4 ports, 16-port gratings (coverage 64).
        let s = AwgrSetup {
            nodes: 64,
            ports_per_node: 4,
            grating_ports: 16,
        };
        let rr = round_robin(64).unwrap();
        for t in 0..rr.period() as u64 {
            assert!(s.is_realizable(rr.matching_at(t)));
        }
    }

    #[test]
    fn sorn_schedule_realizable_when_in_reach() {
        let s = AwgrSetup {
            nodes: 64,
            ports_per_node: 4,
            grating_ports: 16,
        };
        let map = CliqueMap::contiguous(64, 4);
        let sched = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(3))).unwrap();
        for t in 0..sched.period() as u64 {
            assert!(
                s.is_realizable(sched.matching_at(t)),
                "slot {t} unrealizable"
            );
        }
    }

    #[test]
    fn expressivity_matches_paper_enumeration() {
        // §5: clique sizes 1, 16, 32, 64 ... up to 2048.
        let e = AwgrSetup::paper_reference().expressivity();
        let sizes = e.clique_sizes();
        assert!(sizes.contains(&1));
        assert!(sizes.contains(&16));
        assert!(sizes.contains(&32));
        assert!(sizes.contains(&64));
        assert!(sizes.contains(&2048));
        assert!(!sizes.contains(&4096), "need at least two cliques");
        assert!(!sizes.contains(&8), "not a multiple of the port count");
        assert_eq!(sizes.first(), Some(&1));
        assert_eq!(sizes.last(), Some(&2048));
    }

    #[test]
    fn spare_matchings_counts_headroom() {
        let e = AwgrSetup::paper_reference().expressivity();
        // A SORN schedule with 64-cliques uses 63 intra + 63 inter = 126
        // distinct matchings; thousands remain.
        assert!(e.spare_matchings(126) > 3000);
    }
}
