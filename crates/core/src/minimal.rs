//! Minimal obstructions (Section IV-C).
//!
//! Theorem III.8 makes the lattice of obstructions inside `Γ^ω` explicit:
//! an obstruction must contain all fair scenarios, both constants, and at
//! least one member of every special pair. Three structural consequences,
//! all reproduced executably here:
//!
//! 1. **The SPair graph is a perfect matching.** Every unfair non-constant
//!    scenario has *exactly one* special partner (the parity of its settled
//!    index dictates whether the partner sits above or below), and the two
//!    constants have none. [`build_spair_graph`] materializes the matching
//!    over a bounded universe and checks it.
//! 2. **An infinite strictly descending chain of obstructions exists**
//!    ([`descending_chain`]): `L_n = Γ^ω \ {u_0, …, u_n}` for pairwise
//!    non-partnered unfair `u_i` — so there is no *least* obstruction.
//! 3. **Minimal obstructions nonetheless exist**: for any vertex cover `U`
//!    of the SPair matching that is also independent (i.e. picks exactly
//!    one endpoint of every edge), `Γ^ω \ U` is a minimal obstruction. The
//!    canonical choice — take every *lower* endpoint — is decidable
//!    scenario-by-scenario and is packaged as
//!    [`CanonicalMinimalObstruction`], a first-class scheme.
//!
//! The paper's closing remark — `Γ^ω` is "the nearest obstruction we have
//! to a simple minimal obstruction" — is quantified by
//! [`distance_to_minimality`].

use crate::index::{ind, ind_parity_is_even};
use crate::letter::{GammaLetter, Role};
use crate::scenario::{enumerate_gamma_lassos, Scenario};
use crate::scheme::{GammaScheme, OmissionScheme};
use crate::spair::is_special_pair;
use crate::word::Word;

/// The SPair graph over a finite universe of unfair scenarios.
#[derive(Debug, Clone)]
pub struct SPairGraph {
    /// The unfair scenarios (canonical lassos), the graph's vertices.
    pub nodes: Vec<Scenario>,
    /// Edges as index pairs `(i, j)` with `i < j`.
    pub edges: Vec<(usize, usize)>,
}

impl SPairGraph {
    /// Degree of vertex `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.edges
            .iter()
            .filter(|(a, b)| *a == i || *b == i)
            .count()
    }

    /// `true` iff no vertex has degree > 1 — the matching property.
    pub fn is_matching(&self) -> bool {
        (0..self.nodes.len()).all(|i| self.degree(i) <= 1)
    }

    /// `true` iff `cover` (vertex indexes) touches every edge.
    pub fn is_vertex_cover(&self, cover: &[usize]) -> bool {
        self.edges
            .iter()
            .all(|(a, b)| cover.contains(a) || cover.contains(b))
    }

    /// `true` iff no edge has both endpoints in `set`.
    pub fn is_independent(&self, set: &[usize]) -> bool {
        !self
            .edges
            .iter()
            .any(|(a, b)| set.contains(a) && set.contains(b))
    }

    /// The exact covers: sets picking exactly one endpoint per edge. For a
    /// matching there are `2^{|edges|}`; this returns the canonical one
    /// (all lower-index endpoints) plus its mirror.
    pub fn canonical_exact_covers(&self) -> (Vec<usize>, Vec<usize>) {
        let lowers = self
            .edges
            .iter()
            .map(|&(a, b)| if self.node_is_lower(a, b) { a } else { b })
            .collect();
        let uppers = self
            .edges
            .iter()
            .map(|&(a, b)| if self.node_is_lower(a, b) { b } else { a })
            .collect();
        (lowers, uppers)
    }

    /// Of the edge `(a, b)`, is `a` the index-wise lower scenario?
    fn node_is_lower(&self, a: usize, b: usize) -> bool {
        let sa = &self.nodes[a];
        let sb = &self.nodes[b];
        let r = sa.repr_len().max(sb.repr_len()) + 2;
        let ia = ind(&sa.prefix_word(r).to_gamma().expect("Γ universe"));
        let ib = ind(&sb.prefix_word(r).to_gamma().expect("Γ universe"));
        ia < ib
    }
}

/// All canonical unfair `Γ`-lassos with transient part of length
/// ≤ `max_prefix` (the cycle of an unfair lasso canonicalizes to a single
/// drop letter).
pub fn unfair_universe(max_prefix: usize) -> Vec<Scenario> {
    enumerate_gamma_lassos(max_prefix, 1)
        .into_iter()
        .filter(|s| s.is_unfair())
        .collect()
}

/// Builds the SPair graph over [`unfair_universe`]`(max_prefix)`.
///
/// Note: partners of scenarios near the boundary may have longer transients
/// than `max_prefix` and thus fall outside the universe; such vertices show
/// up isolated even though they are matched in the full infinite graph.
pub fn build_spair_graph(max_prefix: usize) -> SPairGraph {
    let nodes = unfair_universe(max_prefix);
    let mut edges = Vec::new();
    for i in 0..nodes.len() {
        for j in i + 1..nodes.len() {
            if is_special_pair(&nodes[i], &nodes[j]) {
                edges.push((i, j));
            }
        }
    }
    SPairGraph { nodes, edges }
}

/// Is the unfair non-constant scenario the *lower* member of its unique
/// special pair?
///
/// The settled index parity decides: with tail `DropBlack` the lower member
/// has even parity; with tail `DropWhite`, odd parity. (Derived from the
/// adjacency-maintenance condition `(-1)^{ind} · δ(tail) = +1` for the
/// lower word; see `crate::spair`.)
pub fn is_lower_pair_member(w: &Scenario) -> Option<bool> {
    if !w.is_gamma() || !w.is_unfair() {
        return None;
    }
    if *w == Scenario::constant_gamma(GammaLetter::DropWhite)
        || *w == Scenario::constant_gamma(GammaLetter::DropBlack)
    {
        return None; // constants are unmatched
    }
    let c = w.canonicalize();
    let settled_prefix = c.lasso_prefix().to_gamma().expect("Γ scenario");
    let even = ind_parity_is_even(&settled_prefix);
    let tail_drops_black = c.eventually_always_drops(Role::Black);
    // Tail letters have δ ≠ 0, so parity is settled at the transient's end.
    Some(if tail_drops_black { even } else { !even })
}

/// The canonical minimal obstruction: `Γ^ω \ U` where `U` is the set of
/// all *lower* members of special pairs.
///
/// * It is an obstruction: all fair scenarios and both constants are
///   present, and every special pair keeps its upper member.
/// * It is inclusion-minimal: removing any further scenario `x` makes it
///   solvable — a fair `x` or a constant `x` fires conditions i/iii/iv,
///   and an unfair non-constant `x` is an upper member whose lower partner
///   is already missing, firing condition ii.
#[derive(Debug, Clone, Default)]
pub struct CanonicalMinimalObstruction;

impl OmissionScheme for CanonicalMinimalObstruction {
    fn contains(&self, w: &Scenario) -> bool {
        w.is_gamma() && is_lower_pair_member(w) != Some(true)
    }

    fn allows_prefix(&self, u: &Word) -> bool {
        // Every Γ-prefix extends to a fair scenario, which is never removed.
        u.is_gamma()
    }

    fn name(&self) -> String {
        "Γω minus all lower pair members (canonical minimal obstruction)".into()
    }
}

impl GammaScheme for CanonicalMinimalObstruction {
    fn missing_fair_scenario(&self) -> Option<Scenario> {
        None
    }

    fn missing_special_pair(&self) -> Option<(Scenario, Scenario)> {
        None // every pair keeps its upper member
    }
}

/// The descending chain of obstructions `L_0 ⊋ L_1 ⊋ …` of Section IV-C:
/// `L_n = Γ^ω \ {u_0, …, u_n}` where `u_i = Full^{i+1}·DropBlack^ω` are
/// pairwise non-partnered unfair scenarios whose partners all stay inside.
///
/// Every returned scheme is an obstruction, so no obstruction in the chain
/// is minimal — there is no *least* obstruction.
pub fn descending_chain(n: usize) -> Vec<crate::scheme::ClassicScheme> {
    let mut excluded: Vec<Scenario> = Vec::new();
    let mut out = Vec::new();
    for i in 0..=n {
        let prefix = Word(vec![crate::letter::Letter::Full; i + 1]);
        let u = Scenario::new(prefix, "b".parse().unwrap());
        excluded.push(u);
        out.push(crate::scheme::ClassicScheme::GammaMinus(excluded.clone()));
    }
    out
}

/// How far `Γ^ω` is from the canonical minimal obstruction, restricted to
/// the bounded universe: the number of lower pair members with transient
/// length ≤ `max_prefix` — the scenarios one must remove from `Γ^ω` to
/// reach minimality.
pub fn distance_to_minimality(max_prefix: usize) -> usize {
    unfair_universe(max_prefix)
        .iter()
        .filter(|s| is_lower_pair_member(s) == Some(true))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spair::special_partner;
    use crate::theorem::{decide_gamma, Solvability};

    fn sc(s: &str) -> Scenario {
        s.parse().unwrap()
    }

    #[test]
    fn spair_graph_is_a_matching() {
        for max_prefix in 0..=3 {
            let g = build_spair_graph(max_prefix);
            assert!(g.is_matching(), "max_prefix={max_prefix}");
        }
    }

    #[test]
    fn spair_graph_counts() {
        // Universe with transient ≤ 1: constants (w), (b) plus the
        // length-1-transient unfair lassos.
        let g = build_spair_graph(1);
        assert!(g.nodes.len() >= 6);
        assert!(!g.edges.is_empty());
        // -(w) ↔ b(w) must be an edge.
        let i = g.nodes.iter().position(|s| *s == sc("-(w)")).unwrap();
        let j = g.nodes.iter().position(|s| *s == sc("b(w)")).unwrap();
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        assert!(g.edges.contains(&(a, b)));
    }

    #[test]
    fn constants_are_isolated() {
        let g = build_spair_graph(2);
        for c in ["(w)", "(b)"] {
            let i = g.nodes.iter().position(|s| *s == sc(c)).unwrap();
            assert_eq!(g.degree(i), 0, "{c}");
        }
    }

    #[test]
    fn exact_covers_are_covers_and_independent() {
        let g = build_spair_graph(2);
        let (lowers, uppers) = g.canonical_exact_covers();
        for cover in [&lowers, &uppers] {
            assert!(g.is_vertex_cover(cover));
            assert!(g.is_independent(cover));
            assert_eq!(cover.len(), g.edges.len());
        }
    }

    #[test]
    fn lower_member_classification_matches_pair_order() {
        let g = build_spair_graph(2);
        for &(a, b) in &g.edges {
            let (lo, hi) = if g.node_is_lower(a, b) {
                (a, b)
            } else {
                (b, a)
            };
            assert_eq!(
                is_lower_pair_member(&g.nodes[lo]),
                Some(true),
                "{}",
                g.nodes[lo]
            );
            assert_eq!(
                is_lower_pair_member(&g.nodes[hi]),
                Some(false),
                "{}",
                g.nodes[hi]
            );
        }
    }

    #[test]
    fn lower_member_none_for_fair_and_constants() {
        assert_eq!(is_lower_pair_member(&sc("(-)")), None);
        assert_eq!(is_lower_pair_member(&sc("(wb)")), None);
        assert_eq!(is_lower_pair_member(&sc("(w)")), None);
        assert_eq!(is_lower_pair_member(&sc("(b)")), None);
    }

    #[test]
    fn canonical_minimal_obstruction_is_an_obstruction() {
        let l = CanonicalMinimalObstruction;
        assert_eq!(decide_gamma(&l), Solvability::Obstruction);
        // It keeps fair scenarios and constants:
        assert!(l.contains(&sc("(-)")));
        assert!(l.contains(&sc("(wb)")));
        assert!(l.contains(&sc("(w)")));
        assert!(l.contains(&sc("(b)")));
        // It keeps upper members and drops lower members:
        assert!(l.contains(&sc("b(w)")), "upper member stays");
        assert!(!l.contains(&sc("-(w)")), "lower member removed");
        assert!(l.contains(&sc("-w(b)")), "upper member stays");
        assert!(!l.contains(&sc("--(b)")), "lower member removed");
    }

    #[test]
    fn canonical_minimal_obstruction_is_minimal() {
        // Removing any single further scenario makes the scheme solvable:
        // simulate by checking the Theorem III.8 conditions on L \ {x}.
        let l = CanonicalMinimalObstruction;
        let universe = enumerate_gamma_lassos(2, 2);
        let mut removed_some = 0;
        for x in &universe {
            if !l.contains(x) {
                continue;
            }
            // L \ {x}: solvable?
            let solvable = if x.is_fair() || *x == sc("(w)") || *x == sc("(b)") {
                true // conditions i / iii / iv fire with witness x
            } else {
                // x is an upper member; its lower partner is already gone —
                // condition ii fires.
                let partner = special_partner(x).expect("upper members are matched");
                !l.contains(&partner)
            };
            assert!(solvable, "removing {x} should make the scheme solvable");
            removed_some += 1;
        }
        assert!(removed_some > 10, "the check must cover many scenarios");
    }

    #[test]
    fn descending_chain_is_strictly_decreasing_obstructions() {
        let chain = descending_chain(4);
        assert_eq!(chain.len(), 5);
        for (i, l) in chain.iter().enumerate() {
            assert_eq!(
                decide_gamma(l),
                Solvability::Obstruction,
                "L_{i} must be an obstruction"
            );
        }
        // Strict decrease: L_{n+1} misses u_{n+1} which L_n contains.
        for i in 0..chain.len() - 1 {
            let extra = Scenario::new(
                Word(vec![crate::letter::Letter::Full; i + 2]),
                "b".parse().unwrap(),
            );
            assert!(chain[i].contains(&extra));
            assert!(!chain[i + 1].contains(&extra));
        }
    }

    #[test]
    fn chain_exclusions_are_pairwise_non_special() {
        // The u_i = Full^{i+1}(b) must be pairwise non-partnered, otherwise
        // some L_n would fire condition ii.
        let us: Vec<Scenario> = (0..5)
            .map(|i| {
                Scenario::new(
                    Word(vec![crate::letter::Letter::Full; i + 1]),
                    "b".parse().unwrap(),
                )
            })
            .collect();
        for (i, a) in us.iter().enumerate() {
            for b in us.iter().skip(i + 1) {
                assert!(!is_special_pair(a, b), "{a} / {b}");
            }
        }
    }

    #[test]
    fn distance_to_minimality_grows_with_universe() {
        let d1 = distance_to_minimality(1);
        let d2 = distance_to_minimality(2);
        let d3 = distance_to_minimality(3);
        assert!(d1 >= 1);
        assert!(d2 > d1);
        assert!(d3 > d2);
    }

    #[test]
    fn lower_membership_agrees_with_partner_search() {
        // Cross-validate is_lower_pair_member against the constructive
        // partner search for the small universe.
        for w in unfair_universe(2) {
            let classified = is_lower_pair_member(&w);
            match classified {
                None => assert!(
                    special_partner(&w).is_none(),
                    "{w} classified unmatched but has a partner"
                ),
                Some(is_lower) => {
                    let p = special_partner(&w).expect("matched scenario needs a partner");
                    let r = w.repr_len().max(p.repr_len()) + 2;
                    let iw = ind(&w.prefix_word(r).to_gamma().unwrap());
                    let ip = ind(&p.prefix_word(r).to_gamma().unwrap());
                    assert_eq!(is_lower, iw < ip, "{w} vs partner {p}");
                }
            }
        }
    }
}
