//! Small graph utilities shared by topology builders and analyses.
//!
//! These are deliberately simple, allocation-friendly implementations: the
//! graphs here are logical topologies over at most a few thousand nodes.

use crate::node::NodeId;

/// A directed graph in adjacency-list form over dense node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    adj: Vec<Vec<u32>>,
}

impl DiGraph {
    /// An empty graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        DiGraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Builds a graph from directed edges.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut g = DiGraph::new(n);
        for (s, d) in edges {
            g.add_edge(s, d);
        }
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Adds the directed edge `s → d` (duplicates kept out).
    pub fn add_edge(&mut self, s: NodeId, d: NodeId) {
        let row = &mut self.adj[s.index()];
        if !row.contains(&d.0) {
            row.push(d.0);
        }
    }

    /// Out-neighbors of `s`.
    pub fn neighbors(&self, s: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj[s.index()].iter().map(|&d| NodeId(d))
    }

    /// Out-degree of `s`.
    pub fn degree(&self, s: NodeId) -> usize {
        self.adj[s.index()].len()
    }

    /// BFS distances (in hops) from `src`; `None` for unreachable nodes.
    pub fn bfs_distances(&self, src: NodeId) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.n()];
        let mut queue = std::collections::VecDeque::new();
        dist[src.index()] = Some(0);
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].unwrap();
            for v in self.adj[u.index()].clone() {
                let v = NodeId(v);
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Diameter in hops (max finite BFS distance over all pairs).
    ///
    /// Returns `None` when the graph is not strongly connected.
    pub fn diameter(&self) -> Option<u32> {
        let mut diam = 0;
        for s in 0..self.n() as u32 {
            let d = self.bfs_distances(NodeId(s));
            for v in d {
                match v {
                    Some(x) => diam = diam.max(x),
                    None => return None,
                }
            }
        }
        Some(diam)
    }

    /// Mean shortest-path length over all ordered pairs of distinct nodes.
    ///
    /// Returns `None` when some pair is unreachable. This is the statistic
    /// used to derive Opera's expected expander path length in Table 1.
    pub fn mean_path_length(&self) -> Option<f64> {
        let n = self.n();
        if n < 2 {
            return Some(0.0);
        }
        let mut total = 0u64;
        for s in 0..n as u32 {
            let d = self.bfs_distances(NodeId(s));
            for (v, dist) in d.iter().enumerate() {
                if v != s as usize {
                    total += (*dist)? as u64;
                }
            }
        }
        Some(total as f64 / (n * (n - 1)) as f64)
    }
}

/// Maximum-cardinality bipartite matching (Kuhn's augmenting paths).
///
/// `adj[l]` lists the right-side vertices admissible for left vertex `l`.
/// Returns `match_of_left[l] = Some(r)` assignments. Used by the
/// Birkhoff–von-Neumann decomposition in the gravity schedule builder.
pub fn bipartite_matching(left: usize, right: usize, adj: &[Vec<usize>]) -> Vec<Option<usize>> {
    assert_eq!(adj.len(), left, "adjacency must cover every left vertex");
    let mut match_of_right: Vec<Option<usize>> = vec![None; right];

    fn try_augment(
        l: usize,
        adj: &[Vec<usize>],
        visited: &mut [bool],
        match_of_right: &mut [Option<usize>],
    ) -> bool {
        for &r in &adj[l] {
            if !visited[r] {
                visited[r] = true;
                if match_of_right[r].is_none()
                    || try_augment(match_of_right[r].unwrap(), adj, visited, match_of_right)
                {
                    match_of_right[r] = Some(l);
                    return true;
                }
            }
        }
        false
    }

    for l in 0..left {
        let mut visited = vec![false; right];
        try_augment(l, adj, &mut visited, &mut match_of_right);
    }

    let mut match_of_left = vec![None; left];
    for (r, m) in match_of_right.iter().enumerate() {
        if let Some(l) = *m {
            match_of_left[l] = Some(r);
        }
    }
    match_of_left
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> DiGraph {
        DiGraph::from_edges(
            n,
            (0..n).map(|i| (NodeId(i as u32), NodeId(((i + 1) % n) as u32))),
        )
    }

    #[test]
    fn bfs_on_ring() {
        let g = ring(6);
        let d = g.bfs_distances(NodeId(0));
        assert_eq!(
            d,
            vec![Some(0), Some(1), Some(2), Some(3), Some(4), Some(5)]
        );
    }

    #[test]
    fn diameter_and_mean_path_length() {
        let g = ring(4);
        assert_eq!(g.diameter(), Some(3));
        // Ordered pairs at distances 1,2,3 from each node: mean = 2.
        assert!((g.mean_path_length().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_graph_has_no_diameter() {
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        assert_eq!(g.diameter(), None);
        assert_eq!(g.mean_path_length(), None);
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let mut g = DiGraph::new(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        assert_eq!(g.degree(NodeId(0)), 1);
    }

    #[test]
    fn bipartite_matching_finds_perfect_matching() {
        // 3x3 with a forced structure: 0-{0,1}, 1-{0}, 2-{2}.
        let adj = vec![vec![0, 1], vec![0], vec![2]];
        let m = bipartite_matching(3, 3, &adj);
        assert_eq!(m[1], Some(0)); // left 1 can only take right 0
        assert_eq!(m[0], Some(1));
        assert_eq!(m[2], Some(2));
    }

    #[test]
    fn bipartite_matching_reports_unmatchable() {
        // Two left vertices compete for one right vertex.
        let adj = vec![vec![0], vec![0]];
        let m = bipartite_matching(2, 1, &adj);
        let matched = m.iter().filter(|x| x.is_some()).count();
        assert_eq!(matched, 1);
    }
}
