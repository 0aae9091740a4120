//! Flow-level oblivious-routing evaluation.
//!
//! For an oblivious scheme, every source-destination pair's traffic
//! spreads over a *fixed distribution of paths*, so the load on every
//! virtual edge is a linear function of the traffic matrix. Throughput —
//! the largest uniform scaling of the demand the network sustains — is
//! then simply `min_edge capacity/load`. This evaluator computes that
//! exactly, which is how the simulated series of Figure 2(f) is produced.

use sorn_topology::{CliqueMap, LogicalTopology, NodeId};
use std::fmt;

/// Errors from flow-level evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowLevelError {
    /// A path used a circuit the schedule never provides.
    UnscheduledEdge {
        /// Edge source.
        src: NodeId,
        /// Edge destination.
        dst: NodeId,
    },
    /// The demand matrix carries no traffic.
    EmptyDemand,
    /// The demand matrix has the wrong shape or invalid entries.
    InvalidDemand(String),
}

impl fmt::Display for FlowLevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowLevelError::UnscheduledEdge { src, dst } => {
                write!(
                    f,
                    "routing uses edge {src} -> {dst} which the schedule never provides"
                )
            }
            FlowLevelError::EmptyDemand => write!(f, "demand matrix carries no traffic"),
            FlowLevelError::InvalidDemand(msg) => write!(f, "invalid demand: {msg}"),
        }
    }
}

impl std::error::Error for FlowLevelError {}

/// A normalized traffic matrix: `demand(s, d)` is the fraction of node
/// `s`'s bandwidth demanded toward `d`. Rows should sum to at most 1
/// (a node cannot offer more than its line rate).
///
/// ```
/// use sorn_routing::{evaluate, DemandMatrix, VlbPaths};
/// use sorn_topology::builders::round_robin;
///
/// let topo = round_robin(8).unwrap().logical_topology();
/// let report = evaluate(&topo, &VlbPaths::new(8), &DemandMatrix::uniform(8)).unwrap();
/// // Classic 2-hop VLB: at least half of every admissible demand.
/// assert!(report.throughput >= 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DemandMatrix {
    n: usize,
    d: Vec<f64>,
}

impl DemandMatrix {
    /// Builds a demand matrix from a dense row-major table.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, FlowLevelError> {
        let n = rows.len();
        let mut d = Vec::with_capacity(n * n);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n {
                return Err(FlowLevelError::InvalidDemand(format!(
                    "row {i} has {} entries, want {n}",
                    row.len()
                )));
            }
            for (j, &v) in row.iter().enumerate() {
                if !v.is_finite() || v < 0.0 {
                    return Err(FlowLevelError::InvalidDemand(format!(
                        "entry ({i},{j}) = {v} must be finite and non-negative"
                    )));
                }
                if i == j && v != 0.0 {
                    return Err(FlowLevelError::InvalidDemand(format!(
                        "diagonal entry ({i},{i}) must be zero"
                    )));
                }
            }
            d.extend_from_slice(row);
        }
        Ok(DemandMatrix { n, d })
    }

    /// Uniform all-to-all demand: every node spreads its full bandwidth
    /// evenly over all other nodes.
    pub fn uniform(n: usize) -> Self {
        assert!(n >= 2);
        let v = 1.0 / (n - 1) as f64;
        let d = (0..n * n)
            .map(|k| if k / n == k % n { 0.0 } else { v })
            .collect();
        DemandMatrix { n, d }
    }

    /// Clique-local demand with locality ratio `x` (§3): a fraction `x`
    /// of each node's traffic spreads uniformly inside its clique, the
    /// rest uniformly over all nodes in other cliques.
    ///
    /// Degenerate cases: singleton cliques force `x = 0`; a single clique
    /// forces `x = 1`.
    pub fn clique_local(cliques: &CliqueMap, x: f64) -> Self {
        assert!((0.0..=1.0).contains(&x), "locality must be in [0,1]");
        let n = cliques.n();
        let mut d = vec![0.0; n * n];
        for s in 0..n {
            let sn = NodeId(s as u32);
            let c = cliques.clique_of(sn);
            let csize = cliques.clique_size(c);
            let outside = n - csize;
            // Effective locality after degenerate-case clamping.
            let xe = if csize <= 1 {
                0.0
            } else if outside == 0 {
                1.0
            } else {
                x
            };
            for t in 0..n {
                if t == s {
                    continue;
                }
                let tn = NodeId(t as u32);
                d[s * n + t] = if cliques.same_clique(sn, tn) {
                    if csize > 1 {
                        xe / (csize - 1) as f64
                    } else {
                        0.0
                    }
                } else if outside > 0 {
                    (1.0 - xe) / outside as f64
                } else {
                    0.0
                };
            }
        }
        DemandMatrix { n, d }
    }

    /// A permutation demand: node `i` sends its full bandwidth to
    /// `perm[i]`.
    pub fn permutation(perm: &[usize]) -> Result<Self, FlowLevelError> {
        let n = perm.len();
        let mut d = vec![0.0; n * n];
        for (i, &p) in perm.iter().enumerate() {
            if p >= n {
                return Err(FlowLevelError::InvalidDemand(format!(
                    "perm[{i}] = {p} out of range"
                )));
            }
            if p != i {
                d[i * n + p] = 1.0;
            }
        }
        Ok(DemandMatrix { n, d })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Demand fraction from `s` to `t`.
    #[inline]
    pub fn get(&self, s: NodeId, t: NodeId) -> f64 {
        self.d[s.index() * self.n + t.index()]
    }

    /// Largest row sum (offered load per node; 1.0 = saturation).
    pub fn max_row_sum(&self) -> f64 {
        (0..self.n)
            .map(|s| self.d[s * self.n..(s + 1) * self.n].iter().sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// The measured intra-clique fraction of total demand.
    pub fn locality(&self, cliques: &CliqueMap) -> f64 {
        let mut intra = 0.0;
        let mut total = 0.0;
        for s in 0..self.n {
            for t in 0..self.n {
                let v = self.d[s * self.n + t];
                total += v;
                if cliques.same_clique(NodeId(s as u32), NodeId(t as u32)) {
                    intra += v;
                }
            }
        }
        if total == 0.0 {
            0.0
        } else {
            intra / total
        }
    }
}

/// A routing scheme's path distribution, for flow-level evaluation.
pub trait PathModel {
    /// Invokes `visit(path, probability)` for every path the scheme uses
    /// from `src` to `dst`. Paths include both endpoints; probabilities
    /// must sum to 1 per pair.
    fn for_each_path(&self, src: NodeId, dst: NodeId, visit: &mut dyn FnMut(&[NodeId], f64));

    /// Scheme name for reports.
    fn name(&self) -> &str;
}

/// Result of a flow-level evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// `min_edge capacity/load`: the largest uniform demand scaling the
    /// network sustains. Values above 1 mean the demand as given fits
    /// with headroom.
    pub throughput: f64,
    /// The bottleneck edge. When several edges tie for the minimum
    /// `capacity/load` — every edge of a round robin under uniform
    /// demand does — this is the first of them in `(src, dst)` order.
    pub bottleneck: (NodeId, NodeId),
    /// Load on the bottleneck at unit demand scaling.
    pub bottleneck_load: f64,
    /// Demand-weighted mean path length (the bandwidth tax).
    pub mean_hops: f64,
}

/// Evaluates the worst-case throughput of `model` routing `demand` over
/// the virtual edges of `topo`.
pub fn evaluate(
    topo: &LogicalTopology,
    model: &dyn PathModel,
    demand: &DemandMatrix,
) -> Result<ThroughputReport, FlowLevelError> {
    if demand.n() != topo.n() {
        return Err(FlowLevelError::InvalidDemand(format!(
            "demand is over {} nodes, topology over {}",
            demand.n(),
            topo.n()
        )));
    }
    let n = topo.n();
    // One load slot per virtual edge, laid out as the topology's own
    // adjacency rows (sorted by destination) back to back: edge
    // `src -> row[i]` lives at `row_start[src] + i`.
    let mut row_start = Vec::with_capacity(n + 1);
    let mut edges = 0usize;
    for s in 0..n as u32 {
        row_start.push(edges);
        edges += topo.neighbors(NodeId(s)).len();
    }
    row_start.push(edges);
    let mut load = vec![0.0f64; edges];
    let mut hop_integral = 0.0;
    let mut total_demand = 0.0;
    let mut bad_edge: Option<(NodeId, NodeId)> = None;

    for s in 0..n as u32 {
        for t in 0..n as u32 {
            let (s, t) = (NodeId(s), NodeId(t));
            let dem = demand.get(s, t);
            if dem == 0.0 {
                continue;
            }
            total_demand += dem;
            model.for_each_path(s, t, &mut |path, prob| {
                hop_integral += dem * prob * (path.len() - 1) as f64;
                for w in path.windows(2) {
                    let row = topo.neighbors(w[0]);
                    match row.binary_search_by_key(&w[1], |&(d, _)| d) {
                        Ok(i) if row[i].1 > 0.0 => load[row_start[w[0].index()] + i] += dem * prob,
                        _ => {
                            bad_edge.get_or_insert((w[0], w[1]));
                        }
                    }
                }
            });
        }
    }

    if let Some((a, b)) = bad_edge {
        return Err(FlowLevelError::UnscheduledEdge { src: a, dst: b });
    }
    if total_demand == 0.0 {
        return Err(FlowLevelError::EmptyDemand);
    }

    let mut throughput = f64::INFINITY;
    let mut bottleneck = (NodeId(0), NodeId(0));
    let mut bottleneck_load = 0.0;
    for ((a, b, cap), &l) in topo.edges().zip(&load) {
        let r = cap / l;
        if r < throughput {
            throughput = r;
            bottleneck = (a, b);
            bottleneck_load = l;
        }
    }

    Ok(ThroughputReport {
        throughput,
        bottleneck,
        bottleneck_load,
        mean_hops: hop_integral / total_demand,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_topology::builders::round_robin;

    /// Single-hop direct paths.
    struct Direct;
    impl PathModel for Direct {
        fn for_each_path(&self, s: NodeId, d: NodeId, visit: &mut dyn FnMut(&[NodeId], f64)) {
            visit(&[s, d], 1.0);
        }
        fn name(&self) -> &str {
            "direct"
        }
    }

    #[test]
    fn uniform_demand_shapes() {
        let d = DemandMatrix::uniform(4);
        assert!((d.get(NodeId(0), NodeId(1)) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.get(NodeId(2), NodeId(2)), 0.0);
        assert!((d.max_row_sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clique_local_demand_has_requested_locality() {
        let map = CliqueMap::contiguous(8, 2);
        let d = DemandMatrix::clique_local(&map, 0.7);
        assert!((d.locality(&map) - 0.7).abs() < 1e-12);
        assert!((d.max_row_sum() - 1.0).abs() < 1e-12);
        // Intra entries: 0.7 / 3; inter: 0.3 / 4.
        assert!((d.get(NodeId(0), NodeId(1)) - 0.7 / 3.0).abs() < 1e-12);
        assert!((d.get(NodeId(0), NodeId(5)) - 0.3 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn clique_local_degenerate_cases() {
        // Singleton cliques: all traffic is inter regardless of x.
        let map = CliqueMap::contiguous(4, 4);
        let d = DemandMatrix::clique_local(&map, 0.9);
        assert_eq!(d.locality(&map), 0.0);
        // One clique: all traffic intra.
        let map1 = CliqueMap::contiguous(4, 1);
        let d1 = DemandMatrix::clique_local(&map1, 0.2);
        assert!((d1.locality(&map1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn permutation_demand() {
        let d = DemandMatrix::permutation(&[1, 2, 0]).unwrap();
        assert_eq!(d.get(NodeId(0), NodeId(1)), 1.0);
        assert_eq!(d.get(NodeId(0), NodeId(2)), 0.0);
        assert!(DemandMatrix::permutation(&[5]).is_err());
    }

    #[test]
    fn from_rows_validates() {
        assert!(DemandMatrix::from_rows(vec![vec![0.0, 1.0]]).is_err()); // ragged
        assert!(DemandMatrix::from_rows(vec![vec![0.5, 0.0], vec![0.0, 0.0]]).is_err()); // diagonal
        assert!(DemandMatrix::from_rows(vec![vec![0.0, -1.0], vec![0.0, 0.0]]).is_err());
        assert!(DemandMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).is_ok());
    }

    #[test]
    fn direct_routing_on_round_robin_gives_full_throughput_for_uniform() {
        // Round robin gives every pair capacity 1/(n-1); uniform demand
        // asks exactly 1/(n-1) per pair: throughput 1.0.
        let topo = round_robin(6).unwrap().logical_topology();
        let rep = evaluate(&topo, &Direct, &DemandMatrix::uniform(6)).unwrap();
        assert!((rep.throughput - 1.0).abs() < 1e-9);
        assert!((rep.mean_hops - 1.0).abs() < 1e-12);
    }

    #[test]
    fn direct_routing_on_permutation_is_bottlenecked() {
        // Permutation demand sends a node's full bandwidth over one edge
        // of capacity 1/(n-1): throughput 1/5 for n = 6.
        let topo = round_robin(6).unwrap().logical_topology();
        let d = DemandMatrix::permutation(&[1, 2, 3, 4, 5, 0]).unwrap();
        let rep = evaluate(&topo, &Direct, &d).unwrap();
        assert!((rep.throughput - 0.2).abs() < 1e-9);
        assert!((rep.bottleneck_load - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unscheduled_edges_are_reported() {
        // Path model that routes everything through node 0 even when no
        // such virtual edge exists.
        struct ViaZero;
        impl PathModel for ViaZero {
            fn for_each_path(&self, s: NodeId, d: NodeId, visit: &mut dyn FnMut(&[NodeId], f64)) {
                visit(&[s, s, d], 1.0); // s -> s edge never exists
            }
            fn name(&self) -> &str {
                "bad"
            }
        }
        let topo = round_robin(4).unwrap().logical_topology();
        let err = evaluate(&topo, &ViaZero, &DemandMatrix::uniform(4)).unwrap_err();
        assert!(matches!(err, FlowLevelError::UnscheduledEdge { .. }));
    }

    #[test]
    fn empty_demand_is_an_error() {
        let topo = round_robin(4).unwrap().logical_topology();
        let d = DemandMatrix::from_rows(vec![vec![0.0; 4]; 4]).unwrap();
        let err = evaluate(&topo, &Direct, &d).unwrap_err();
        assert_eq!(err, FlowLevelError::EmptyDemand);
    }
}
