//! Simple undirected graphs with directed-edge views.

use std::collections::BTreeSet;
use std::fmt;

/// An undirected edge, stored with `a ≤ b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// The smaller endpoint.
    pub a: usize,
    /// The larger endpoint.
    pub b: usize,
}

impl Edge {
    /// Builds a normalized edge.
    ///
    /// # Panics
    /// Panics on self-loops — the communication model has none.
    pub fn new(u: usize, v: usize) -> Edge {
        assert_ne!(u, v, "self-loops are not allowed");
        Edge {
            a: u.min(v),
            b: u.max(v),
        }
    }

    /// The endpoint other than `v`.
    ///
    /// # Panics
    /// Panics when `v` is not an endpoint.
    pub fn other(&self, v: usize) -> usize {
        if v == self.a {
            self.b
        } else if v == self.b {
            self.a
        } else {
            panic!("vertex {v} not on edge {self}")
        }
    }

    /// `true` iff `v` is an endpoint.
    pub fn touches(&self, v: usize) -> bool {
        self.a == v || self.b == v
    }

    /// The two directed versions of this edge.
    pub fn directions(&self) -> [DirectedEdge; 2] {
        [
            DirectedEdge {
                from: self.a,
                to: self.b,
            },
            DirectedEdge {
                from: self.b,
                to: self.a,
            },
        ]
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}}}", self.a, self.b)
    }
}

/// A directed edge — one message channel of the round structure `G↔`
/// (Section V-A: the directed version of `G`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DirectedEdge {
    /// Sender.
    pub from: usize,
    /// Receiver.
    pub to: usize,
}

impl DirectedEdge {
    /// Builds a directed edge.
    pub fn new(from: usize, to: usize) -> DirectedEdge {
        DirectedEdge { from, to }
    }

    /// The underlying undirected edge.
    pub fn undirected(&self) -> Edge {
        Edge::new(self.from, self.to)
    }

    /// The reverse channel.
    pub fn reversed(&self) -> DirectedEdge {
        DirectedEdge {
            from: self.to,
            to: self.from,
        }
    }
}

impl fmt::Display for DirectedEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} → {})", self.from, self.to)
    }
}

/// A simple undirected graph over vertices `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    adjacency: Vec<Vec<usize>>,
}

impl Graph {
    /// An edgeless graph on `n` vertices.
    pub fn empty(n: usize) -> Graph {
        Graph {
            n,
            edges: Vec::new(),
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Builds a graph from an edge list (duplicates are rejected).
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or duplicate edges.
    pub fn from_edges(n: usize, list: impl IntoIterator<Item = (usize, usize)>) -> Graph {
        let mut g = Graph::empty(n);
        for (u, v) in list {
            g.add_edge(u, v);
        }
        g
    }

    /// Adds the edge `{u, v}`.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, or duplicates.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.n && v < self.n, "vertex out of range");
        let e = Edge::new(u, v);
        assert!(!self.edges.contains(&e), "duplicate edge {e}");
        self.adjacency[e.a].push(e.b);
        self.adjacency[e.b].push(e.a);
        self.edges.push(e);
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edge list (normalized, in insertion order).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Neighbors of `v` (in insertion order).
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjacency[v]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }

    /// `true` iff `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u != v && self.adjacency[u].contains(&v)
    }

    /// All `2·|E|` directed edges of `G↔`.
    pub fn directed_edges(&self) -> Vec<DirectedEdge> {
        self.edges.iter().flat_map(|e| e.directions()).collect()
    }

    /// The subgraph induced by a vertex set, with vertices *renumbered*
    /// `0..k` in ascending original order. Returns the subgraph and the
    /// old-id vector (`new id -> old id`).
    pub fn induced_subgraph(&self, vertices: &BTreeSet<usize>) -> (Graph, Vec<usize>) {
        let old_ids: Vec<usize> = vertices.iter().copied().collect();
        let rename = |v: usize| old_ids.binary_search(&v).expect("vertex in set");
        let mut g = Graph::empty(old_ids.len());
        for e in &self.edges {
            if vertices.contains(&e.a) && vertices.contains(&e.b) {
                g.add_edge(rename(e.a), rename(e.b));
            }
        }
        (g, old_ids)
    }

    /// Removes a set of edges, returning the remaining graph.
    pub fn without_edges(&self, removed: &[Edge]) -> Graph {
        let mut g = Graph::empty(self.n);
        for e in &self.edges {
            if !removed.contains(e) {
                g.add_edge(e.a, e.b);
            }
        }
        g
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n, self.edges.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn edge_normalizes_endpoints() {
        assert_eq!(Edge::new(3, 1), Edge::new(1, 3));
        assert_eq!(Edge::new(1, 3).a, 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(2, 2);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(1, 4);
        assert_eq!(e.other(1), 4);
        assert_eq!(e.other(4), 1);
        assert!(e.touches(1) && e.touches(4) && !e.touches(2));
    }

    #[test]
    fn directed_edge_roundtrip() {
        let d = DirectedEdge::new(5, 2);
        assert_eq!(d.reversed().reversed(), d);
        assert_eq!(d.undirected(), Edge::new(2, 5));
    }

    #[test]
    fn graph_basics() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.directed_edges().len(), 6);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edges_rejected() {
        let mut g = triangle();
        g.add_edge(1, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut g = Graph::empty(2);
        g.add_edge(0, 2);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let set: BTreeSet<usize> = [1, 2, 3].into_iter().collect();
        let (sub, old) = g.induced_subgraph(&set);
        assert_eq!(old, vec![1, 2, 3]);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(sub.edge_count(), 3); // 1-2, 2-3, 1-3
        assert!(sub.has_edge(0, 2)); // old 1-3
    }

    #[test]
    fn without_edges_removes() {
        let g = triangle();
        let g2 = g.without_edges(&[Edge::new(0, 1)]);
        assert_eq!(g2.edge_count(), 2);
        assert!(!g2.has_edge(0, 1));
        assert!(g2.has_edge(1, 2));
    }
}
