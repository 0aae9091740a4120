//! Spatial traffic models: who talks to whom.
//!
//! §3 identifies *spatial locality* (a known fraction of traffic stays
//! inside each clique) as a macro-pattern a SORN optimizes for. This
//! module provides a destination picker for it plus the uniform
//! all-to-all baseline.

use sorn_base::rng::Rng;
use sorn_topology::{CliqueMap, NodeId};

/// A spatial model: picks a destination for traffic from a given source.
pub trait SpatialModel {
    /// Picks a destination `!= src`.
    fn pick_dst(&self, src: NodeId, rng: &mut Rng) -> NodeId;
    /// Model name for reports.
    fn name(&self) -> &str;
}

/// Uniform all-to-all: destination uniform over all other nodes.
#[derive(Debug, Clone, Copy)]
pub struct Uniform {
    n: usize,
}

impl Uniform {
    /// Uniform over `n` nodes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        Uniform { n }
    }
}

impl SpatialModel for Uniform {
    fn pick_dst(&self, src: NodeId, rng: &mut Rng) -> NodeId {
        let r = rng.gen_range(0..self.n - 1) as u32;
        if r >= src.0 {
            NodeId(r + 1)
        } else {
            NodeId(r)
        }
    }
    fn name(&self) -> &str {
        "uniform"
    }
}

/// Clique-local traffic with locality ratio `x`: with probability `x` the
/// destination is uniform inside the source's clique, otherwise uniform
/// over all nodes in other cliques (§3 "Spatial Locality").
#[derive(Debug, Clone)]
pub struct CliqueLocal {
    cliques: CliqueMap,
    x: f64,
}

impl CliqueLocal {
    /// Builds the model; `x` is the intra-clique traffic fraction.
    ///
    /// # Panics
    /// Panics when `x` is outside `[0, 1]`.
    pub fn new(cliques: CliqueMap, x: f64) -> Self {
        assert!((0.0..=1.0).contains(&x), "locality must be in [0,1]");
        CliqueLocal { cliques, x }
    }

    /// The configured locality ratio.
    pub fn locality(&self) -> f64 {
        self.x
    }
}

impl SpatialModel for CliqueLocal {
    fn pick_dst(&self, src: NodeId, rng: &mut Rng) -> NodeId {
        let c = self.cliques.clique_of(src);
        let members = self.cliques.members(c);
        let csize = members.len();
        let n = self.cliques.n();
        let go_local = csize > 1 && (n == csize || rng.gen::<f64>() < self.x);
        if go_local {
            // Uniform over clique members != src.
            loop {
                let m = members[rng.gen_range(0..csize)];
                if m != src {
                    return m;
                }
            }
        } else {
            // Uniform over nodes outside the clique.
            loop {
                let d = NodeId(rng.gen_range(0..n) as u32);
                if !self.cliques.same_clique(src, d) {
                    return d;
                }
            }
        }
    }
    fn name(&self) -> &str {
        "clique-local"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(7)
    }

    #[test]
    fn uniform_never_picks_self_and_covers_all() {
        let m = Uniform::new(8);
        let mut rng = rng();
        let mut seen = [false; 8];
        for _ in 0..500 {
            let d = m.pick_dst(NodeId(3), &mut rng);
            assert_ne!(d, NodeId(3));
            seen[d.index()] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 7);
    }

    #[test]
    fn clique_local_respects_locality_statistically() {
        let map = CliqueMap::contiguous(32, 4);
        let m = CliqueLocal::new(map.clone(), 0.7);
        let mut rng = rng();
        let trials = 20_000;
        let mut local = 0;
        for i in 0..trials {
            let src = NodeId((i % 32) as u32);
            let d = m.pick_dst(src, &mut rng);
            assert_ne!(d, src);
            if map.same_clique(src, d) {
                local += 1;
            }
        }
        let frac = local as f64 / trials as f64;
        assert!((frac - 0.7).abs() < 0.02, "locality {frac}");
    }

    #[test]
    fn clique_local_degenerates_gracefully() {
        // Singleton cliques: everything inter.
        let map = CliqueMap::contiguous(4, 4);
        let m = CliqueLocal::new(map.clone(), 0.9);
        let mut rng = rng();
        for _ in 0..50 {
            let d = m.pick_dst(NodeId(0), &mut rng);
            assert_ne!(d, NodeId(0));
        }
        // Single clique: everything intra.
        let map1 = CliqueMap::contiguous(4, 1);
        let m1 = CliqueLocal::new(map1, 0.0);
        for _ in 0..50 {
            let d = m1.pick_dst(NodeId(2), &mut rng);
            assert_ne!(d, NodeId(2));
        }
    }
}
