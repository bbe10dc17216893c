//! Boolean algebra on deterministic obligations.
//!
//! Deterministic Büchi (DBA) and co-Büchi (DCA) automata are not closed
//! under all boolean operations, but the fragment the scheme library needs
//! is:
//!
//! | op | inputs | output | construction |
//! |---|---|---|---|
//! | `∩` | DBA, DBA | DBA | product with a 2-phase round-robin counter |
//! | `∪` | DBA, DBA | DBA | plain product, marks = either side marked |
//! | `∩` | DCA, DCA | DCA | plain product, marks = either side marked |
//! | `∪` | DCA, DCA | DCA | product with a counter, via De Morgan on DBAs |
//! | `¬` | either | the other | flip the acceptance |
//!
//! Mixed-acceptance intersections stay at the *conjunction-of-obligations*
//! level (a [`crate::schemes::RegularScheme`] is exactly that), so nothing
//! here loses generality — the algebra just lets a conjunction be
//! flattened into a single obligation when both sides have the same
//! acceptance kind, which is what `union` needs.

use crate::auto::{Acceptance, DetAutomaton, Obligation};
use std::collections::BTreeSet;

fn product_states(a: &DetAutomaton, b: &DetAutomaton, phases: usize) -> Vec<Vec<usize>> {
    // State encoding: ((sa * nb) + sb) * phases + phase.
    let (na, nb) = (a.state_count(), b.state_count());
    let alphabet = a.alphabet();
    let mut trans = Vec::with_capacity(na * nb * phases);
    for sa in 0..na {
        for sb in 0..nb {
            for phase in 0..phases {
                let row = (0..alphabet)
                    .map(|letter| {
                        let ta = a.step(sa, letter);
                        let tb = b.step(sb, letter);
                        // Phase advance is decided by the caller through
                        // the marks; here we keep the phase unchanged —
                        // the counter constructions override it.
                        ((ta * nb) + tb) * phases + phase
                    })
                    .collect();
                trans.push(row);
            }
        }
    }
    trans
}

fn decode(state: usize, nb: usize, phases: usize) -> (usize, usize, usize) {
    let phase = state % phases;
    let pair = state / phases;
    (pair / nb, pair % nb, phase)
}

/// `L(x) ∩ L(y)` for two Büchi obligations — the classic counter
/// construction: phase 0 waits for an `x`-mark, phase 1 for a `y`-mark;
/// completing the cycle (phase 1 → 0) is the new Büchi mark.
///
/// # Panics
/// Panics unless both obligations are Büchi over the same alphabet.
pub fn intersect_buchi(x: &Obligation, y: &Obligation) -> Obligation {
    let (Acceptance::Buchi(fx), Acceptance::Buchi(fy)) = (&x.acceptance, &y.acceptance) else {
        panic!("intersect_buchi needs two Büchi obligations");
    };
    let (a, b) = (&x.automaton, &y.automaton);
    assert_eq!(a.alphabet(), b.alphabet(), "alphabet mismatch");
    let (nb, phases) = (b.state_count(), 2);
    let mut trans = product_states(a, b, phases);
    let alphabet = a.alphabet();
    let mut marks = BTreeSet::new();
    #[allow(clippy::needless_range_loop)] // state-id arithmetic reads clearer indexed
    for state in 0..trans.len() {
        let (sa, sb, phase) = decode(state, nb, phases);
        // Phase logic: in phase 0, seeing an fx-state moves to phase 1;
        // in phase 1, seeing an fy-state wraps to phase 0 (and the wrap
        // itself is the mark).
        let next_phase = match phase {
            0 if fx.contains(&sa) => 1,
            1 if fy.contains(&sb) => 0,
            p => p,
        };
        if phase == 1 && fy.contains(&sb) {
            marks.insert(state);
        }
        for letter in 0..alphabet {
            let target = trans[state][letter];
            let (ta, tb, _) = decode(target, nb, phases);
            trans[state][letter] = ((ta * nb) + tb) * phases + next_phase;
        }
    }
    let init = ((a.init() * nb) + b.init()) * phases; // phase 0
    Obligation::new(
        DetAutomaton::new(alphabet, trans, init),
        Acceptance::Buchi(marks),
    )
}

/// `L(x) ∪ L(y)` for two Büchi obligations: plain product, a state is
/// marked when either component is.
///
/// # Panics
/// Panics unless both obligations are Büchi over the same alphabet.
pub fn union_buchi(x: &Obligation, y: &Obligation) -> Obligation {
    let (Acceptance::Buchi(fx), Acceptance::Buchi(fy)) = (&x.acceptance, &y.acceptance) else {
        panic!("union_buchi needs two Büchi obligations");
    };
    let (a, b) = (&x.automaton, &y.automaton);
    assert_eq!(a.alphabet(), b.alphabet(), "alphabet mismatch");
    let nb = b.state_count();
    let trans = product_states(a, b, 1);
    let marks: BTreeSet<usize> = (0..trans.len())
        .filter(|&s| {
            let (sa, sb, _) = decode(s, nb, 1);
            fx.contains(&sa) || fy.contains(&sb)
        })
        .collect();
    let init = (a.init() * nb) + b.init();
    Obligation::new(
        DetAutomaton::new(a.alphabet(), trans, init),
        Acceptance::Buchi(marks),
    )
}

/// `L(x) ∩ L(y)` for two co-Büchi obligations: plain product; a state is
/// bad when either component is bad (eventually avoiding both = eventually
/// avoiding the union).
///
/// # Panics
/// Panics unless both obligations are co-Büchi over the same alphabet.
pub fn intersect_cobuchi(x: &Obligation, y: &Obligation) -> Obligation {
    let (Acceptance::CoBuchi(fx), Acceptance::CoBuchi(fy)) = (&x.acceptance, &y.acceptance) else {
        panic!("intersect_cobuchi needs two co-Büchi obligations");
    };
    let (a, b) = (&x.automaton, &y.automaton);
    assert_eq!(a.alphabet(), b.alphabet(), "alphabet mismatch");
    let nb = b.state_count();
    let trans = product_states(a, b, 1);
    let marks: BTreeSet<usize> = (0..trans.len())
        .filter(|&s| {
            let (sa, sb, _) = decode(s, nb, 1);
            fx.contains(&sa) || fy.contains(&sb)
        })
        .collect();
    let init = (a.init() * nb) + b.init();
    Obligation::new(
        DetAutomaton::new(a.alphabet(), trans, init),
        Acceptance::CoBuchi(marks),
    )
}

/// `L(x) ∪ L(y)` for two co-Büchi obligations, by De Morgan:
/// `¬(¬x ∩ ¬y)` with the Büchi counter in the middle.
///
/// # Panics
/// Panics unless both obligations are co-Büchi over the same alphabet.
pub fn union_cobuchi(x: &Obligation, y: &Obligation) -> Obligation {
    assert!(
        matches!(x.acceptance, Acceptance::CoBuchi(_))
            && matches!(y.acceptance, Acceptance::CoBuchi(_)),
        "union_cobuchi needs two co-Büchi obligations"
    );
    intersect_buchi(&x.complement(), &y.complement()).complement()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Binary alphabet fixtures.
    fn inf(letter: usize) -> Obligation {
        Obligation::letter_recurrence(2, move |a| a == letter)
    }

    fn fin(letter: usize) -> Obligation {
        inf(letter).complement()
    }

    /// Exhaustive small-lasso universe over {0, 1}.
    fn lassos() -> Vec<(Vec<usize>, Vec<usize>)> {
        let words = |len: usize| -> Vec<Vec<usize>> {
            (0..(1usize << len))
                .map(|bits| (0..len).map(|i| (bits >> i) & 1).collect())
                .collect()
        };
        let mut out = Vec::new();
        for pl in 0..=3 {
            for prefix in words(pl) {
                for cl in 1..=3 {
                    for cycle in words(cl) {
                        out.push((prefix.clone(), cycle.clone()));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn buchi_intersection_semantics() {
        let both = intersect_buchi(&inf(0), &inf(1));
        for (p, c) in lassos() {
            let expect = inf(0).accepts_lasso(&p, &c) && inf(1).accepts_lasso(&p, &c);
            assert_eq!(both.accepts_lasso(&p, &c), expect, "{p:?}({c:?})");
        }
    }

    #[test]
    fn buchi_union_semantics() {
        let either = union_buchi(&inf(0), &inf(1));
        for (p, c) in lassos() {
            let expect = inf(0).accepts_lasso(&p, &c) || inf(1).accepts_lasso(&p, &c);
            assert_eq!(either.accepts_lasso(&p, &c), expect, "{p:?}({c:?})");
        }
    }

    #[test]
    fn cobuchi_intersection_semantics() {
        let both = intersect_cobuchi(&fin(0), &fin(1));
        for (p, c) in lassos() {
            let expect = fin(0).accepts_lasso(&p, &c) && fin(1).accepts_lasso(&p, &c);
            assert_eq!(both.accepts_lasso(&p, &c), expect, "{p:?}({c:?})");
        }
    }

    #[test]
    fn cobuchi_union_semantics() {
        let either = union_cobuchi(&fin(0), &fin(1));
        for (p, c) in lassos() {
            let expect = fin(0).accepts_lasso(&p, &c) || fin(1).accepts_lasso(&p, &c);
            assert_eq!(either.accepts_lasso(&p, &c), expect, "{p:?}({c:?})");
        }
    }

    #[test]
    fn intersection_of_inf_and_its_negation_is_empty() {
        // inf(1) ∩ fin(1) = ∅; with the algebra we can phrase it as a
        // single conjunction and the product search must agree.
        let contradiction = [inf(1), fin(1)];
        assert_eq!(crate::product::find_accepted_lasso(&contradiction), None);
    }

    #[test]
    fn s1_as_union_of_automata_matches_classic() {
        // S1 = T_White ∪ T_Black, assembled with union_cobuchi from the
        // two safety automata — must match the classic scheme exactly.
        use crate::pairs::gamma_index;
        use crate::schemes::RegularScheme;
        use minobs_core::letter::GammaLetter;
        use minobs_core::prelude::*;

        let w_idx = gamma_index(GammaLetter::DropWhite);
        let b_idx = gamma_index(GammaLetter::DropBlack);
        let t_white = Obligation::letter_safety(3, move |a| a == 0 || a == w_idx);
        let t_black = Obligation::letter_safety(3, move |a| a == 0 || a == b_idx);
        let s1 = RegularScheme::new("S1 via union", vec![union_cobuchi(&t_white, &t_black)]);

        let cls = classic::s1();
        for s in minobs_core::scenario::enumerate_gamma_lassos(2, 2) {
            assert_eq!(s1.contains(&s), cls.contains(&s), "{s}");
        }
        let verdict = crate::schemes::decide_regular(&s1);
        assert_eq!(verdict.is_solvable(), decide_classic(&cls).is_solvable());
    }

    #[test]
    #[should_panic(expected = "needs two Büchi")]
    fn intersect_buchi_rejects_cobuchi() {
        let _ = intersect_buchi(&fin(0), &inf(1));
    }

    #[test]
    #[should_panic(expected = "alphabet mismatch")]
    fn alphabet_mismatch_rejected() {
        let x = Obligation::letter_recurrence(2, |a| a == 0);
        let y = Obligation::letter_recurrence(3, |a| a == 0);
        let _ = intersect_buchi(&x, &y);
    }
}
