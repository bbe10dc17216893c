//! Edge connectivity, minimum cuts, and components.
//!
//! `c(G)` — "the minimal number of edges to remove to disconnect the graph"
//! (Section V) — is computed as `min_t maxflow(s, t)` over a fixed source
//! `s`, on the unit-capacity directed version of `G`. A concrete minimum
//! edge cut is recovered from the residual network of the minimizing run.

use crate::flow::FlowNetwork;
use crate::graph::{Edge, Graph};

/// Connected components as a vector of sorted vertex lists.
pub fn components(g: &Graph) -> Vec<Vec<usize>> {
    let n = g.vertex_count();
    let mut seen = vec![false; n];
    let mut out = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(u) = stack.pop() {
            comp.push(u);
            for &v in g.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

/// `true` iff the graph is connected (vacuously for ≤ 1 vertex).
pub fn is_connected(g: &Graph) -> bool {
    components(g).len() <= 1
}

/// The minimum degree `deg(G)`.
///
/// Returns 0 for the empty graph.
pub fn min_degree(g: &Graph) -> usize {
    (0..g.vertex_count())
        .map(|v| g.degree(v))
        .min()
        .unwrap_or(0)
}

fn unit_network(g: &Graph) -> FlowNetwork {
    let mut net = FlowNetwork::new(g.vertex_count());
    for e in g.edges() {
        net.add_undirected_unit(e.a, e.b);
    }
    net
}

/// The edge connectivity `c(G)`: the minimum over `t ≠ 0` of the `0–t`
/// max-flow. Returns 0 for disconnected or trivial graphs.
pub fn edge_connectivity(g: &Graph) -> usize {
    if g.vertex_count() <= 1 || !is_connected(g) {
        return 0;
    }
    let mut best = usize::MAX;
    for t in 1..g.vertex_count() {
        let mut net = unit_network(g);
        let f = net.max_flow(0, t) as usize;
        best = best.min(f);
        if best == 0 {
            break;
        }
    }
    best
}

/// A concrete minimum edge cut: the edges crossing the residual source
/// side of the minimizing max-flow run. Returns `None` for disconnected or
/// trivial graphs.
///
/// The returned cut `C` satisfies `|C| = c(G)` and removing it disconnects
/// `G` into exactly the residual side and its complement.
pub fn min_edge_cut(g: &Graph) -> Option<Vec<Edge>> {
    if g.vertex_count() <= 1 || !is_connected(g) {
        return None;
    }
    let mut best: Option<(usize, Vec<bool>)> = None;
    for t in 1..g.vertex_count() {
        let mut net = unit_network(g);
        let f = net.max_flow(0, t) as usize;
        if best.as_ref().is_none_or(|(bf, _)| f < *bf) {
            let side = net.residual_source_side(0);
            best = Some((f, side));
        }
    }
    let (value, side) = best?;
    let cut: Vec<Edge> = g
        .edges()
        .iter()
        .copied()
        .filter(|e| side[e.a] != side[e.b])
        .collect();
    debug_assert_eq!(cut.len(), value, "cut size must equal flow value");
    Some(cut)
}

/// Exhaustive minimum cut for small graphs (`n ≤ ~20`): checks every
/// nonempty proper vertex subset containing vertex 0. A test oracle for
/// [`edge_connectivity`].
pub fn edge_connectivity_bruteforce(g: &Graph) -> usize {
    let n = g.vertex_count();
    assert!(n <= 20, "bruteforce oracle limited to 20 vertices");
    if n <= 1 || !is_connected(g) {
        return 0;
    }
    let mut best = usize::MAX;
    // Subsets of 1..n vertices joined with {0}; complement nonempty.
    for mask in 0..(1u32 << (n - 1)) {
        let side = |v: usize| v == 0 || (mask >> (v - 1)) & 1 == 1;
        if (1..n).all(side) {
            continue; // complement empty
        }
        let crossing = g.edges().iter().filter(|e| side(e.a) != side(e.b)).count();
        best = best.min(crossing);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn components_of_forest() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]);
        let comps = components(&g);
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3, 4], vec![5]]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn single_vertex_is_connected() {
        assert!(is_connected(&Graph::empty(1)));
        assert!(is_connected(&Graph::empty(0)));
        assert!(!is_connected(&Graph::empty(2)));
    }

    #[test]
    fn connectivity_of_standard_families() {
        assert_eq!(edge_connectivity(&generators::complete(5)), 4);
        assert_eq!(edge_connectivity(&generators::cycle(7)), 2);
        assert_eq!(edge_connectivity(&generators::path(5)), 1);
        assert_eq!(edge_connectivity(&generators::star(6)), 1);
        assert_eq!(edge_connectivity(&generators::hypercube(3)), 3);
        assert_eq!(edge_connectivity(&generators::complete_bipartite(3, 4)), 3);
        assert_eq!(edge_connectivity(&generators::petersen()), 3);
    }

    #[test]
    fn barbell_connectivity_is_bridge_count() {
        // Two K5's joined by 2 parallel-ish bridges: c = 2 < deg = 4.
        let g = generators::barbell(5, 2);
        assert_eq!(edge_connectivity(&g), 2);
        assert_eq!(min_degree(&g), 4);
    }

    #[test]
    fn theta_graph_connectivity() {
        // Two hubs joined by 3 internally disjoint paths: c = 3… but the
        // internal path vertices have degree 2, capping c at 2.
        let g = generators::theta(3, 2);
        assert_eq!(min_degree(&g), 2);
        assert_eq!(edge_connectivity(&g), 2);
    }

    #[test]
    fn min_cut_is_returned_and_disconnects() {
        let g = generators::barbell(4, 3);
        let cut = min_edge_cut(&g).unwrap();
        assert_eq!(cut.len(), edge_connectivity(&g));
        let rest = g.without_edges(&cut);
        assert!(!is_connected(&rest));
    }

    #[test]
    fn min_cut_none_for_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(min_edge_cut(&g), None);
        assert_eq!(edge_connectivity(&g), 0);
    }

    #[test]
    fn flow_matches_bruteforce_on_small_random_graphs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnp(8, 0.45, &mut rng);
            assert_eq!(
                edge_connectivity(&g),
                edge_connectivity_bruteforce(&g),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn connectivity_never_exceeds_min_degree() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let g = generators::gnp(10, 0.4, &mut rng);
            assert!(edge_connectivity(&g) <= min_degree(&g), "seed {seed}");
        }
    }

    #[test]
    fn grid_and_torus_connectivity() {
        assert_eq!(edge_connectivity(&generators::grid(3, 4)), 2);
        assert_eq!(edge_connectivity(&generators::torus(3, 3)), 4);
    }

    mod random_properties {
        use super::*;
        use crate::graph::Edge;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        fn arb_graph() -> impl Strategy<Value = Graph> {
            (4usize..10, any::<u64>()).prop_map(|(n, seed)| {
                let mut rng = StdRng::seed_from_u64(seed);
                generators::gnp(n, 0.45, &mut rng)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_cut_disconnects_and_matches_connectivity(g in arb_graph()) {
                match min_edge_cut(&g) {
                    None => prop_assert!(!is_connected(&g) || g.vertex_count() <= 1),
                    Some(cut) => {
                        prop_assert_eq!(cut.len(), edge_connectivity(&g));
                        let rest = g.without_edges(&cut);
                        prop_assert!(!is_connected(&rest), "removing the cut disconnects");
                        // Minimality: no single cut edge is redundant.
                        for skip in 0..cut.len() {
                            let partial: Vec<Edge> = cut
                                .iter()
                                .enumerate()
                                .filter(|(i, _)| *i != skip)
                                .map(|(_, e)| *e)
                                .collect();
                            prop_assert!(
                                is_connected(&g.without_edges(&partial)),
                                "a strict subset of a minimum cut must not disconnect"
                            );
                        }
                    }
                }
            }

            #[test]
            fn prop_connectivity_bounded_by_degree(g in arb_graph()) {
                if is_connected(&g) && g.vertex_count() > 1 {
                    prop_assert!(edge_connectivity(&g) <= min_degree(&g));
                    prop_assert!(edge_connectivity(&g) >= 1);
                }
            }

            #[test]
            fn prop_flow_matches_bruteforce(g in arb_graph()) {
                prop_assert_eq!(edge_connectivity(&g), edge_connectivity_bruteforce(&g));
            }

            #[test]
            fn prop_components_partition_vertices(g in arb_graph()) {
                let comps = components(&g);
                let total: usize = comps.iter().map(|c| c.len()).sum();
                prop_assert_eq!(total, g.vertex_count());
                let mut all: Vec<usize> = comps.into_iter().flatten().collect();
                all.sort_unstable();
                prop_assert_eq!(all, (0..g.vertex_count()).collect::<Vec<_>>());
            }
        }
    }
}
