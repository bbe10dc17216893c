//! Pair-alphabet automata over `Γ × Γ`: the special-pair relation as an
//! ω-regular language.
//!
//! A pair of scenarios `(w, w')` is special (Definition III.7) iff the
//! index difference `d_r = ind(w_r) - ind(w'_r)` stays in `{-1, 0, 1}`
//! forever and is eventually nonzero. The difference evolves through the
//! finite state `(d, parity of ind(w_r), parity of ind(w'_r))`, so the
//! relation is recognized by a 13-state deterministic Büchi automaton over
//! the product alphabet — and condition III.8.ii becomes an emptiness
//! query.

use crate::auto::{Acceptance, DetAutomaton, Obligation};
use minobs_core::letter::GammaLetter;

/// Size of the `Γ` alphabet.
pub const GAMMA: usize = 3;
/// Size of the pair alphabet `Γ × Γ`.
pub const GAMMA_PAIR: usize = GAMMA * GAMMA;

/// Letter index of a `Γ` letter (order of [`GammaLetter::ALL`]:
/// `Full = 0`, `DropWhite = 1`, `DropBlack = 2`).
pub fn gamma_index(g: GammaLetter) -> usize {
    GammaLetter::ALL.iter().position(|&x| x == g).unwrap()
}

/// The `Γ` letter of an index.
pub fn gamma_letter(i: usize) -> GammaLetter {
    GammaLetter::ALL[i]
}

/// Encodes a pair of `Γ` letter indexes into the pair alphabet.
pub fn pair_index(first: usize, second: usize) -> usize {
    first * GAMMA + second
}

/// Splits a pair-alphabet letter into its components.
pub fn pair_split(p: usize) -> (usize, usize) {
    (p / GAMMA, p % GAMMA)
}

/// Projects a pair letter to its first component.
pub fn project_first(p: usize) -> usize {
    p / GAMMA
}

/// Projects a pair letter to its second component.
pub fn project_second(p: usize) -> usize {
    p % GAMMA
}

fn delta(letter_index: usize) -> i32 {
    gamma_letter(letter_index).delta() as i32
}

/// The special-pair obligation over `Γ × Γ`.
///
/// States encode `(d + 1, parity₁, parity₂)` with a rejecting sink; the
/// Büchi marks are the states with `d ≠ 0` (once nonzero, `d` can never
/// return to zero, so "infinitely often nonzero" ⟺ "the words differ").
pub fn spair_obligation() -> Obligation {
    const SINK: usize = 12;
    let encode = |d: i32, even1: bool, even2: bool| -> usize {
        ((d + 1) as usize) * 4 + (even1 as usize) * 2 + (even2 as usize)
    };
    let mut trans = vec![vec![SINK; GAMMA_PAIR]; 13];
    for d in -1..=1 {
        for even1 in [false, true] {
            for even2 in [false, true] {
                let s = encode(d, even1, even2);
                #[allow(clippy::needless_range_loop)]
                // indexing by pair code is the clearer reading
                for p in 0..GAMMA_PAIR {
                    let (a, b) = pair_split(p);
                    let s1 = if even1 { delta(a) } else { -delta(a) };
                    let s2 = if even2 { delta(b) } else { -delta(b) };
                    let nd = 3 * d + s1 - s2;
                    trans[s][p] = if nd.abs() >= 2 {
                        SINK
                    } else {
                        // Parity flips exactly on Full letters (δ = 0 via
                        // index 0).
                        let ne1 = if a == 0 { !even1 } else { even1 };
                        let ne2 = if b == 0 { !even2 } else { even2 };
                        encode(nd, ne1, ne2)
                    };
                }
            }
        }
    }
    let marks: std::collections::BTreeSet<usize> = (0..12)
        .filter(|&s| s / 4 != 1) // d-component ≠ 0
        .collect();
    Obligation::new(
        DetAutomaton::new(GAMMA_PAIR, trans, encode(0, true, true)),
        Acceptance::Buchi(marks),
    )
}

/// Lifts a `Γ`-obligation to the pair alphabet, reading the chosen
/// component.
pub fn lift_to_pairs(o: &Obligation, second_component: bool) -> Obligation {
    let map: fn(usize) -> usize = if second_component {
        project_second
    } else {
        project_first
    };
    Obligation::new(o.automaton.relabel(GAMMA_PAIR, map), o.acceptance.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use minobs_core::prelude::*;
    use minobs_core::spair::is_special_pair;

    fn encode_pair_lasso(a: &Scenario, b: &Scenario) -> (Vec<usize>, Vec<usize>) {
        // Align the two lassos: prefix = max transient, cycle = lcm.
        let pre = a.lasso_prefix().len().max(b.lasso_prefix().len());
        let lcm = {
            let (x, y) = (a.lasso_cycle().len(), b.lasso_cycle().len());
            let gcd = |mut a: usize, mut b: usize| {
                while b != 0 {
                    let t = a % b;
                    a = b;
                    b = t;
                }
                a
            };
            x / gcd(x, y) * y
        };
        let at = |s: &Scenario, r: usize| gamma_index(s.letter_at(r).to_gamma().unwrap());
        let prefix = (0..pre).map(|r| pair_index(at(a, r), at(b, r))).collect();
        let cycle = (pre..pre + lcm)
            .map(|r| pair_index(at(a, r), at(b, r)))
            .collect();
        (prefix, cycle)
    }

    #[test]
    fn gamma_index_roundtrip() {
        for g in GammaLetter::ALL {
            assert_eq!(gamma_letter(gamma_index(g)), g);
        }
        assert_eq!(gamma_index(GammaLetter::Full), 0);
    }

    #[test]
    fn pair_encoding_roundtrip() {
        for a in 0..GAMMA {
            for b in 0..GAMMA {
                let p = pair_index(a, b);
                assert_eq!(pair_split(p), (a, b));
                assert_eq!(project_first(p), a);
                assert_eq!(project_second(p), b);
            }
        }
    }

    #[test]
    fn spair_automaton_agrees_with_direct_decision() {
        let obligation = spair_obligation();
        let lassos = minobs_core::scenario::enumerate_gamma_lassos(2, 2);
        for a in &lassos {
            for b in &lassos {
                let (prefix, cycle) = encode_pair_lasso(a, b);
                let automaton_says = obligation.accepts_lasso(&prefix, &cycle);
                let direct = is_special_pair(a, b);
                assert_eq!(automaton_says, direct, "{a} / {b}");
            }
        }
    }

    #[test]
    fn lifted_obligation_reads_chosen_component() {
        use crate::auto::Obligation;
        // "infinitely many DropWhite" on the first component.
        let base = Obligation::letter_recurrence(GAMMA, |a| a == 1);
        let lifted = lift_to_pairs(&base, false);
        // Pair stream ((DropWhite, Full))^ω = index (1,0) = 3.
        assert!(lifted.accepts_lasso(&[], &[pair_index(1, 0)]));
        assert!(!lifted.accepts_lasso(&[], &[pair_index(0, 1)]));
        let lifted2 = lift_to_pairs(&base, true);
        assert!(lifted2.accepts_lasso(&[], &[pair_index(0, 1)]));
    }
}
