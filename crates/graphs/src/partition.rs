//! The 3-partition `(A, B, C)` around a minimum cut (proof of
//! Theorem V.1).
//!
//! Given a connected `G` and `f = c(G)`, the proof picks a partition of the
//! edge set into
//!
//! * `C` — a minimum cut of `f` edges, written as pairs `(a_i, b_i)` with
//!   `a_i` on the `A` side;
//! * `A` — the edges induced on one side, whose induced graph is connected;
//! * `B` — same on the other side;
//!
//! and builds the three-letter alphabet `Γ_C = {C_⇄, C_→, C_←}` on it.
//! This module constructs and validates such a partition.
//!
//! One subtlety the paper glosses over: an arbitrary minimum cut splits the
//! *vertices* into two connected sides, but a side may be a single vertex,
//! in which case its edge set is empty yet the side is still (vacuously)
//! connected — the emulation algorithms of Section V-B handle that case by
//! letting the lone vertex emulate itself.

use crate::connectivity::{edge_connectivity, is_connected, min_edge_cut};
use crate::graph::{Edge, Graph};
use std::collections::BTreeSet;

/// A validated `(A, B, C)` partition of a graph's edges around a minimum
/// cut.
#[derive(Debug, Clone)]
pub struct CutPartition {
    /// Vertices on the `A` side.
    pub side_a: BTreeSet<usize>,
    /// Vertices on the `B` side.
    pub side_b: BTreeSet<usize>,
    /// Edges within `A`.
    pub edges_a: Vec<Edge>,
    /// Edges within `B`.
    pub edges_b: Vec<Edge>,
    /// The cut, as `(a_i, b_i)` pairs with `a_i ∈ A`, `b_i ∈ B`.
    pub cut: Vec<(usize, usize)>,
}

impl CutPartition {
    /// `f = |C|`, the cut size (equals `c(G)` when built by
    /// [`cut_partition`]).
    pub fn f(&self) -> usize {
        self.cut.len()
    }

    /// The designated representatives `a_1` and `b_1` used by Algorithm 4.
    pub fn representatives(&self) -> (usize, usize) {
        self.cut[0]
    }

    /// All cut endpoints on the `A` side (`a_1, …, a_f`, with repeats when
    /// a vertex carries several cut edges).
    pub fn cut_endpoints_a(&self) -> Vec<usize> {
        self.cut.iter().map(|&(a, _)| a).collect()
    }

    /// All cut endpoints on the `B` side.
    pub fn cut_endpoints_b(&self) -> Vec<usize> {
        self.cut.iter().map(|&(_, b)| b).collect()
    }
}

/// Builds the `(A, B, C)` partition from a minimum edge cut of `G`.
///
/// Returns `None` when the graph is disconnected or trivial. The returned
/// partition satisfies:
/// * `|C| = c(G)`;
/// * both vertex sides are nonempty and induce connected subgraphs;
/// * `A ∪ B ∪ C` is the whole edge set, pairwise disjoint.
pub fn cut_partition(g: &Graph) -> Option<CutPartition> {
    let cut = min_edge_cut(g)?;
    let rest = g.without_edges(&cut);
    let comps = crate::connectivity::components(&rest);
    // Removing a *minimum* cut leaves exactly two components.
    debug_assert_eq!(comps.len(), 2, "minimum cut must split into 2 components");
    let side_a: BTreeSet<usize> = comps[0].iter().copied().collect();
    let side_b: BTreeSet<usize> = comps[1].iter().copied().collect();

    let mut edges_a = Vec::new();
    let mut edges_b = Vec::new();
    let mut pairs = Vec::new();
    for e in g.edges() {
        let (ina, inb) = (side_a.contains(&e.a), side_a.contains(&e.b));
        match (ina, inb) {
            (true, true) => edges_a.push(*e),
            (false, false) => edges_b.push(*e),
            (true, false) => pairs.push((e.a, e.b)),
            (false, true) => pairs.push((e.b, e.a)),
        }
    }
    debug_assert_eq!(pairs.len(), cut.len());
    Some(CutPartition {
        side_a,
        side_b,
        edges_a,
        edges_b,
        cut: pairs,
    })
}

/// Validates the partition conditions from the proof of Theorem V.1.
/// Returns a list of violated conditions (empty = valid).
pub fn validate_partition(g: &Graph, p: &CutPartition) -> Vec<String> {
    let mut issues = Vec::new();
    if p.cut.len() != edge_connectivity(g) {
        issues.push(format!(
            "cut size {} ≠ c(G) = {}",
            p.cut.len(),
            edge_connectivity(g)
        ));
    }
    if p.side_a.is_empty() || p.side_b.is_empty() {
        issues.push("a side is empty".into());
    }
    if p.side_a.intersection(&p.side_b).next().is_some() {
        issues.push("sides overlap".into());
    }
    if p.side_a.len() + p.side_b.len() != g.vertex_count() {
        issues.push("sides do not cover the vertex set".into());
    }
    for (label, side) in [("A", &p.side_a), ("B", &p.side_b)] {
        let (sub, _) = g.induced_subgraph(side);
        if !is_connected(&sub) {
            issues.push(format!("side {label} is not connected"));
        }
    }
    let total = p.edges_a.len() + p.edges_b.len() + p.cut.len();
    if total != g.edge_count() {
        issues.push(format!(
            "edge partition covers {total} of {} edges",
            g.edge_count()
        ));
    }
    for &(a, b) in &p.cut {
        if !p.side_a.contains(&a) || !p.side_b.contains(&b) {
            issues.push(format!("cut pair ({a}, {b}) not oriented A→B"));
        }
        if !g.has_edge(a, b) {
            issues.push(format!("cut pair ({a}, {b}) not an edge"));
        }
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn barbell_partition_is_the_bridge_set() {
        let g = generators::barbell(4, 2);
        let p = cut_partition(&g).unwrap();
        assert_eq!(p.f(), 2);
        assert!(validate_partition(&g, &p).is_empty());
        // Sides are the two cliques.
        assert_eq!(p.side_a.len(), 4);
        assert_eq!(p.side_b.len(), 4);
        assert_eq!(p.edges_a.len(), 6);
        assert_eq!(p.edges_b.len(), 6);
    }

    #[test]
    fn cycle_partition_has_two_cut_edges() {
        let g = generators::cycle(6);
        let p = cut_partition(&g).unwrap();
        assert_eq!(p.f(), 2);
        assert!(
            validate_partition(&g, &p).is_empty(),
            "{:?}",
            validate_partition(&g, &p)
        );
    }

    #[test]
    fn path_partition_single_bridge() {
        let g = generators::path(5);
        let p = cut_partition(&g).unwrap();
        assert_eq!(p.f(), 1);
        assert!(validate_partition(&g, &p).is_empty());
    }

    #[test]
    fn star_partition_has_singleton_side() {
        // Minimum cut of a star isolates a leaf: one side is a lone vertex
        // with no edges — still a valid partition (vacuously connected).
        let g = generators::star(5);
        let p = cut_partition(&g).unwrap();
        assert_eq!(p.f(), 1);
        assert!(validate_partition(&g, &p).is_empty());
        assert_eq!(p.side_a.len().min(p.side_b.len()), 1);
    }

    #[test]
    fn representatives_are_cut_endpoints() {
        let g = generators::barbell(3, 2);
        let p = cut_partition(&g).unwrap();
        let (a1, b1) = p.representatives();
        assert!(p.side_a.contains(&a1));
        assert!(p.side_b.contains(&b1));
        assert!(g.has_edge(a1, b1));
    }

    #[test]
    fn disconnected_has_no_partition() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert!(cut_partition(&g).is_none());
    }

    #[test]
    fn random_graphs_partition_validates() {
        for seed in 0..15u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnp_connected(9, 0.35, &mut rng);
            let p = cut_partition(&g).unwrap();
            let issues = validate_partition(&g, &p);
            assert!(issues.is_empty(), "seed {seed}: {issues:?}");
        }
    }

    #[test]
    fn complete_graph_partition() {
        let g = generators::complete(5);
        let p = cut_partition(&g).unwrap();
        assert_eq!(p.f(), 4);
        assert!(validate_partition(&g, &p).is_empty());
    }
}
