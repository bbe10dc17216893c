//! Special pairs of scenarios (Definition III.7).
//!
//! `(w, w') ∈ SPair(Γ^ω)` iff `w ≠ w'` and `|ind(w_r) - ind(w'_r)| ≤ 1`
//! for every round `r` — the two scenarios stay *index-adjacent forever*.
//! Special pairs are the fault lines of the impossibility proof: along a
//! special pair, at every round one of the two processes cannot tell the
//! scenarios apart (Corollary III.5), so an algorithm that must decide on
//! both members of the pair can be driven to disagreement.
//!
//! ## The decision procedure
//!
//! The index difference `d_r = ind(w_r) - ind(w'_r)` evolves as
//! `d_{r+1} = 3·d_r + s - s'` with `s, s' ∈ {-1, 0, 1}`, so
//!
//! * once `|d_r| ≥ 2`, `|d_{r+1}| ≥ 3·2 - 2 = 4` — divergence is
//!   permanent: the pair is not special;
//! * once `d_r ≠ 0`, `|d_{r+1}| ≥ 3·1 - 2 = 1` — the words can never
//!   re-converge, so `w ≠ w'` iff some `d_r ≠ 0`.
//!
//! On ultimately periodic inputs the tuple
//! (position in `w`'s lasso, position in `w'`'s lasso, `d`, parity of
//! `ind(w_r)`, parity of `ind(w'_r)`) lives in a finite space and evolves
//! deterministically, so the run is eventually periodic and the decision
//! terminates within `|state space|` steps.

use crate::letter::GammaLetter;
use crate::scenario::Scenario;
use crate::word::GammaWord;
use crate::{index, letter::Role};
use minobs_bigint::UBig;
use std::collections::HashSet;

/// Outcome of the special-pair decision, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SPairVerdict {
    /// The pair is special: the words differ yet their indexes stay
    /// adjacent forever. `first_divergence` is the first round with
    /// `d ≠ 0`.
    Special { first_divergence: usize },
    /// The words are equal (a pair requires `w ≠ w'`).
    EqualWords,
    /// Indexes drift at round `r` (`|d| ≥ 2` from round `r` on).
    Diverges { round: usize },
    /// One of the scenarios uses a double omission (outside `Γ^ω`).
    NotGamma,
}

impl SPairVerdict {
    /// `true` iff the verdict is [`SPairVerdict::Special`].
    pub fn is_special(&self) -> bool {
        matches!(self, SPairVerdict::Special { .. })
    }
}

/// Decides `(w, w') ∈ SPair(Γ^ω)` with a reasoned verdict.
pub fn classify_pair(w: &Scenario, w2: &Scenario) -> SPairVerdict {
    if !w.is_gamma() || !w2.is_gamma() {
        return SPairVerdict::NotGamma;
    }
    // State: positions in both lassos, d ∈ {-1,0,1}, both index parities.
    let mut d: i8 = 0;
    let mut even1 = true;
    let mut even2 = true;
    let mut first_divergence: Option<usize> = None;
    let mut seen: HashSet<(usize, usize, i8, bool, bool)> = HashSet::new();

    let pos = |s: &Scenario, r: usize| -> usize {
        let p = s.lasso_prefix().len();
        if r < p {
            r
        } else {
            p + (r - p) % s.lasso_cycle().len()
        }
    };

    let mut r = 0usize;
    loop {
        let state = (pos(w, r), pos(w2, r), d, even1, even2);
        if !seen.insert(state) {
            // The run is periodic from here; nothing new can happen.
            return match first_divergence {
                Some(first_divergence) => SPairVerdict::Special { first_divergence },
                None => SPairVerdict::EqualWords,
            };
        }
        let a = w.letter_at(r).to_gamma().expect("checked gamma");
        let b = w2.letter_at(r).to_gamma().expect("checked gamma");
        let s = if even1 { a.delta() } else { -a.delta() };
        let s2 = if even2 { b.delta() } else { -b.delta() };
        let next = 3 * (d as i16) + (s as i16) - (s2 as i16);
        if next.abs() >= 2 {
            return SPairVerdict::Diverges { round: r };
        }
        d = next as i8;
        if d != 0 && first_divergence.is_none() {
            first_divergence = Some(r);
        }
        // Parity flips exactly on Full letters.
        if a == GammaLetter::Full {
            even1 = !even1;
        }
        if b == GammaLetter::Full {
            even2 = !even2;
        }
        r += 1;
    }
}

/// `(w, w') ∈ SPair(Γ^ω)`?
pub fn is_special_pair(w: &Scenario, w2: &Scenario) -> bool {
    classify_pair(w, w2).is_special()
}

/// The special partners of an *unfair* `Γ`-scenario `w = u·drop(x)^ω`.
///
/// Searches alignments `len = 0, 1, …, max_prefix_len`: the candidate
/// partner at alignment `len` is `ind⁻¹(ind(w_len) ± 1) · drop(x)^ω`
/// (the construction inside Lemma III.11). Every returned scenario is
/// verified special by [`classify_pair`] and deduplicated.
///
/// Returns an empty vector when `w` is fair (fair scenarios have no special
/// partner: their index wanders).
pub fn special_partners(w: &Scenario, max_prefix_len: usize) -> Vec<Scenario> {
    if !w.is_gamma() || !w.is_unfair() {
        return Vec::new();
    }
    let tail_role = if w.eventually_always_drops(Role::White) {
        Role::White
    } else {
        Role::Black
    };
    let tail = GammaLetter::dropping(tail_role);

    let mut out: Vec<Scenario> = Vec::new();
    let mut tracker = index::IndexTracker::new();
    for len in 0..=max_prefix_len {
        for neighbour in neighbour_values(tracker.value()) {
            if let Some(prefix) = index::ind_inv(len, &neighbour) {
                let cand = Scenario::new(prefix.to_word(), GammaWord(vec![tail]).to_word());
                if is_special_pair(w, &cand) && !out.contains(&cand) {
                    out.push(cand);
                }
            }
        }
        if len < max_prefix_len {
            tracker.push(w.letter_at(len).to_gamma().expect("checked gamma"));
        }
    }
    out
}

/// The canonical single special partner used by the impossibility proof
/// (Lemma III.11), if any exists within the alignment bound.
pub fn special_partner(w: &Scenario) -> Option<Scenario> {
    let bound = w.repr_len() + 2;
    special_partners(w, bound).into_iter().next()
}

fn neighbour_values(v: &UBig) -> Vec<UBig> {
    let mut out = vec![v.succ()];
    if let Some(p) = v.pred() {
        out.push(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ind;
    use minobs_bigint::UBig;

    fn sc(s: &str) -> Scenario {
        s.parse().unwrap()
    }

    /// Brute-force special-pair check over the first `horizon` rounds.
    fn adjacent_up_to(w: &Scenario, w2: &Scenario, horizon: usize) -> bool {
        (0..=horizon).all(|r| {
            let a = ind(&w.prefix_word(r).to_gamma().unwrap());
            let b = ind(&w2.prefix_word(r).to_gamma().unwrap());
            a.abs_diff(&b) <= UBig::one()
        })
    }

    #[test]
    fn equal_words_are_not_special() {
        assert_eq!(
            classify_pair(&sc("(w)"), &sc("w(ww)")),
            SPairVerdict::EqualWords
        );
        assert_eq!(
            classify_pair(&sc("(-)"), &sc("(-)")),
            SPairVerdict::EqualWords
        );
    }

    #[test]
    fn double_omission_rejected() {
        assert_eq!(
            classify_pair(&sc("(x)"), &sc("(w)")),
            SPairVerdict::NotGamma
        );
    }

    #[test]
    fn canonical_special_pair_white_tail() {
        // ind("-") = 1 is odd, so the DropWhite tail keeps the pair
        // ( -(w) , b(w) ) index-adjacent forever: 1/2, 5/6, 17/18, …
        let w = sc("-(w)");
        let w2 = sc("b(w)");
        assert!(is_special_pair(&w, &w2), "{:?}", classify_pair(&w, &w2));
        assert!(adjacent_up_to(&w, &w2, 30));
    }

    #[test]
    fn canonical_special_pair_black_tail() {
        // ind("--") = 4 is even, so the DropBlack tail keeps the pair
        // ( --(b) , -w(b) ) adjacent forever (Lemma III.11's construction).
        let w = sc("--(b)");
        let w2 = sc("-w(b)");
        assert!(is_special_pair(&w, &w2), "{:?}", classify_pair(&w, &w2));
        assert!(adjacent_up_to(&w, &w2, 30));
    }

    #[test]
    fn constants_have_no_special_partner() {
        // The two constant unfair scenarios sit at the extreme indexes
        // (0 and 3^r - 1) with the wrong parity on the inside: no word can
        // stay adjacent to them. This is exactly why Theorem III.8 carries
        // the separate conditions III.8.iii and III.8.iv for them.
        assert!(special_partners(&sc("(w)"), 8).is_empty());
        assert!(special_partners(&sc("(b)"), 8).is_empty());
        // Wrong-parity prefixes with the same tail diverge:
        assert!(!is_special_pair(&sc("(w)"), &sc("-(w)")));
        assert!(!is_special_pair(&sc("(b)"), &sc("-(b)")));
    }

    #[test]
    fn special_is_symmetric() {
        let w = sc("-(w)");
        let w2 = sc("b(w)");
        assert_eq!(is_special_pair(&w, &w2), is_special_pair(&w2, &w));
        assert!(is_special_pair(&w, &w2));
    }

    #[test]
    fn fair_scenarios_have_no_partner() {
        assert!(special_partners(&sc("(-)"), 8).is_empty());
        assert!(special_partners(&sc("(wb)"), 8).is_empty());
    }

    #[test]
    fn different_tails_diverge() {
        let v = classify_pair(&sc("(w)"), &sc("(b)"));
        assert!(matches!(v, SPairVerdict::Diverges { .. }), "{v:?}");
    }

    #[test]
    fn verdict_matches_bruteforce_on_lasso_pairs() {
        let lassos = crate::scenario::enumerate_gamma_lassos(2, 2);
        for a in &lassos {
            for b in &lassos {
                let verdict = classify_pair(a, b);
                // Brute-force horizon: beyond the state-space bound the
                // verdict is settled; 40 rounds is ample for these sizes.
                let adjacent = adjacent_up_to(a, b, 40);
                match &verdict {
                    SPairVerdict::Special { .. } => {
                        assert!(adjacent, "{a} {b}");
                        assert_ne!(a, b);
                    }
                    SPairVerdict::EqualWords => assert_eq!(a, b, "{a} {b}"),
                    SPairVerdict::Diverges { .. } => {
                        assert!(!adjacent || a == b, "{a} {b} {verdict:?}");
                        assert!(!adjacent, "{a} {b}");
                    }
                    SPairVerdict::NotGamma => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn partners_are_verified_and_unfair() {
        let partners = special_partners(&sc("-(w)"), 4);
        assert!(!partners.is_empty());
        for p in &partners {
            assert!(is_special_pair(&sc("-(w)"), p), "{p}");
            assert!(
                p.is_unfair(),
                "partners of unfair scenarios are unfair: {p}"
            );
        }
    }

    #[test]
    fn canonical_partner_exists_for_nonconstant_unfair() {
        // Every unfair Γ-scenario except the two constants has a special
        // partner: the parity of the settled index picks the `+1` or `-1`
        // neighbour, and exactly one of the two is always available.
        for s in [
            "-(w)", "--(b)", "wb(w)", "b-(b)", "w-(w)", "-w(b)", "bbb-(b)",
        ] {
            let w = sc(s);
            let p = special_partner(&w);
            assert!(p.is_some(), "no partner for {s}");
            assert!(is_special_pair(&w, &p.unwrap()));
        }
    }

    #[test]
    fn nonconstant_unfair_lassos_all_have_partners() {
        // Exhaustive over the small lasso universe: unfair and not (w)^ω or
        // (b)^ω implies a partner exists.
        for w in crate::scenario::enumerate_gamma_lassos(2, 2) {
            if !w.is_unfair() || w == sc("(w)") || w == sc("(b)") {
                continue;
            }
            assert!(
                special_partner(&w).is_some(),
                "unfair non-constant {w} should have a partner"
            );
        }
    }

    #[test]
    fn special_pairs_are_unfair_in_both_components() {
        // Theory check: if (w,w') is special then both members are unfair.
        // (A fair member would drive the index difference apart — the proof
        // of Lemma III.13.) Validated over the small lasso universe.
        let lassos = crate::scenario::enumerate_gamma_lassos(2, 2);
        for a in &lassos {
            for b in &lassos {
                if is_special_pair(a, b) {
                    assert!(
                        a.is_unfair(),
                        "{a} of special pair ({a},{b}) must be unfair"
                    );
                    assert!(
                        b.is_unfair(),
                        "{b} of special pair ({a},{b}) must be unfair"
                    );
                }
            }
        }
    }

    #[test]
    fn first_divergence_is_reported() {
        match classify_pair(&sc("-(w)"), &sc("b(w)")) {
            SPairVerdict::Special { first_divergence } => assert_eq!(first_divergence, 0),
            v => panic!("expected special, got {v:?}"),
        }
    }
}
