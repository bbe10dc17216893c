//! Theorem III.8: the characterization of solvable omission schemes
//! without double omission.
//!
//! For `L ⊆ Γ^ω`, Consensus is solvable for `L` **iff** at least one of:
//!
//! 1. some fair scenario is missing from `L` (condition III.8.i);
//! 2. some special pair is entirely missing from `L` (III.8.ii);
//! 3. `DropWhite^ω ∉ L` (III.8.iii);
//! 4. `DropBlack^ω ∉ L` (III.8.iv).
//!
//! The decision procedure returns a [`Solvability`] verdict carrying the
//! witnessing scenario — the parameter to feed [`crate::algorithm::AwProcess`] —
//! and which condition fired. For a missing special pair the *upper* member
//! is returned (see the witness-hygiene note in [`crate::algorithm`]).
//!
//! This module answers the conditions exactly for every [`ClassicScheme`];
//! the `minobs-omega` crate extends the same interface to arbitrary
//! ω-regular schemes via automata emptiness.

use crate::index::ind;
use crate::letter::{GammaLetter, Role};
use crate::scenario::Scenario;
use crate::scheme::{ClassicScheme, GammaScheme, OmissionScheme};
use crate::spair::is_special_pair;
use crate::word::{GammaWord, Word};

/// Which condition of Theorem III.8 made the scheme solvable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConditionIII8 {
    /// III.8.i — a fair scenario is missing.
    MissingFair,
    /// III.8.ii — a special pair is entirely missing.
    MissingSpecialPair,
    /// III.8.iii — `DropWhite^ω` is missing.
    MissingConstantWhite,
    /// III.8.iv — `DropBlack^ω` is missing.
    MissingConstantBlack,
}

/// The verdict of the Theorem III.8 decision procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Solvability {
    /// The scheme is solvable; `witness ∉ L` parameterizes a correct `A_w`.
    Solvable {
        /// The forbidden scenario to hand to `A_w`.
        witness: Scenario,
        /// Which condition produced the witness.
        condition: ConditionIII8,
    },
    /// The scheme is an obstruction for the Coordinated Attack Problem.
    Obstruction,
}

impl Solvability {
    /// `true` iff the verdict is solvable.
    pub fn is_solvable(&self) -> bool {
        matches!(self, Solvability::Solvable { .. })
    }

    /// The witness scenario, when solvable.
    pub fn witness(&self) -> Option<&Scenario> {
        match self {
            Solvability::Solvable { witness, .. } => Some(witness),
            Solvability::Obstruction => None,
        }
    }

    /// The fired condition, when solvable.
    pub fn condition(&self) -> Option<ConditionIII8> {
        match self {
            Solvability::Solvable { condition, .. } => Some(*condition),
            Solvability::Obstruction => None,
        }
    }
}

/// Decides Theorem III.8 for any scheme exposing the [`GammaScheme`]
/// queries, returning an `A_w`-ready witness.
pub fn decide_gamma<S: GammaScheme + ?Sized>(scheme: &S) -> Solvability {
    // Condition i: a missing fair scenario is the most robust witness
    // (fair scenarios have no special partner, so A_w cannot be trapped).
    if let Some(f) = scheme.missing_fair_scenario() {
        debug_assert!(f.is_fair() && !scheme.contains(&f));
        return Solvability::Solvable {
            witness: f,
            condition: ConditionIII8::MissingFair,
        };
    }
    if !scheme.contains_constant_drop(Role::White) {
        return Solvability::Solvable {
            witness: Scenario::constant_gamma(GammaLetter::DropWhite),
            condition: ConditionIII8::MissingConstantWhite,
        };
    }
    if !scheme.contains_constant_drop(Role::Black) {
        return Solvability::Solvable {
            witness: Scenario::constant_gamma(GammaLetter::DropBlack),
            condition: ConditionIII8::MissingConstantBlack,
        };
    }
    if let Some((u, u2)) = scheme.missing_special_pair() {
        debug_assert!(is_special_pair(&u, &u2));
        debug_assert!(!scheme.contains(&u) && !scheme.contains(&u2));
        return Solvability::Solvable {
            witness: upper_member(&u, &u2),
            condition: ConditionIII8::MissingSpecialPair,
        };
    }
    Solvability::Obstruction
}

/// Decides solvability for a [`ClassicScheme`], including `S2 = Σ^ω`
/// (an obstruction: it contains the obstruction `R1 = Γ^ω`, and solvability
/// is inherited downward under inclusion).
///
/// # Panics
/// Panics for the other Σ-schemes ([`ClassicScheme::SigmaAvoidPrefix`],
/// [`ClassicScheme::SigmaTotalBudget`]): Theorem III.8 does not cover
/// double omission — the paper's Section VI leaves that characterization
/// open. Use the bounded model checker (`minobs-synth`) for those.
pub fn decide_classic(scheme: &ClassicScheme) -> Solvability {
    match scheme {
        ClassicScheme::S2 => Solvability::Obstruction,
        ClassicScheme::SigmaAvoidPrefix(_) | ClassicScheme::SigmaTotalBudget(_) => panic!(
            "Theorem III.8 only characterizes schemes without double omission;              decide {} with the bounded model checker instead",
            scheme.name()
        ),
        _ => decide_gamma(scheme),
    }
}

/// Returns the member of a special pair with the larger (eventual) index —
/// the safe `A_w` parameter (see the witness-hygiene note in
/// [`crate::algorithm`]).
pub fn upper_member(u: &Scenario, u2: &Scenario) -> Scenario {
    // Once the indexes diverge they keep their order; compare at a round
    // past both representations.
    let r = u.repr_len().max(u2.repr_len()) + u.lasso_cycle().len() * u2.lasso_cycle().len() + 1;
    let iu = ind(&u
        .prefix_word(r)
        .to_gamma()
        .expect("special pairs live in Γ"));
    let iv = ind(&u2
        .prefix_word(r)
        .to_gamma()
        .expect("special pairs live in Γ"));
    if iu >= iv {
        u.clone()
    } else {
        u2.clone()
    }
}

/// The smallest `p` with `Γ^p ⊄ Pref(L)`, searched up to `max_p`
/// (Corollary III.14: any consensus algorithm for `L` needs ≥ `p` rounds in
/// the worst case, and the capped `A_w` achieves exactly `p`).
///
/// Returns the pair `(p, w0)` where `w0 ∈ Γ^p \ Pref(L)` is the excluded
/// word, or `None` when `Pref(L) ⊇ Γ^{max_p}` everywhere (round complexity
/// unbounded at this horizon).
pub fn min_excluded_prefix<S: OmissionScheme + ?Sized>(
    scheme: &S,
    max_p: usize,
) -> Option<(usize, GammaWord)> {
    for p in 0..=max_p {
        for w in GammaWord::enumerate_all(p) {
            if !scheme.allows_prefix(&w.to_word()) {
                return Some((p, w));
            }
        }
    }
    None
}

impl GammaScheme for ClassicScheme {
    fn missing_fair_scenario(&self) -> Option<Scenario> {
        let alternating: Scenario = "(wb)".parse().unwrap();
        match self {
            ClassicScheme::S0 | ClassicScheme::C1 | ClassicScheme::S1 => Some(alternating),
            ClassicScheme::T(Role::White) => Some("(b-)".parse().unwrap()),
            ClassicScheme::T(Role::Black) => Some("(w-)".parse().unwrap()),
            // These contain every fair Γ-scenario:
            ClassicScheme::R1 | ClassicScheme::FairGamma | ClassicScheme::AlmostFair(_) => None,
            ClassicScheme::GammaMinus(excluded) => excluded
                .iter()
                .find(|s| s.is_gamma() && s.is_fair())
                .cloned(),
            ClassicScheme::AvoidPrefix(w0) => {
                // w0 · Full^ω is fair and starts with the forbidden prefix.
                if w0.is_gamma() {
                    Some(Scenario::new(w0.clone(), "-".parse::<Word>().unwrap()))
                } else {
                    // A non-Γ forbidden prefix excludes nothing from Γ^ω.
                    None
                }
            }
            // Any fair scenario with infinitely many losses exceeds every
            // finite budget.
            ClassicScheme::TotalBudget(_) => Some(alternating),
            ClassicScheme::S2
            | ClassicScheme::SigmaAvoidPrefix(_)
            | ClassicScheme::SigmaTotalBudget(_) => {
                unreachable!("not a Γ-scheme; Theorem III.8 does not apply")
            }
        }
    }

    fn missing_special_pair(&self) -> Option<(Scenario, Scenario)> {
        match self {
            // These four already have a missing fair scenario; any special
            // pair avoiding the scheme works — exhibit a canonical one.
            ClassicScheme::S0 => Some(pair("--(b)", "-w(b)")),
            ClassicScheme::T(Role::White) => Some(pair("--(b)", "-w(b)")),
            ClassicScheme::T(Role::Black) => Some(pair("-(w)", "b(w)")),
            ClassicScheme::C1 => Some(pair("wb(w)", "w-(w)")),
            // Both members must use both drop letters to escape S1:
            // ind("b-") = 7 is odd, so the DropWhite tail pairs
            // ( b-(w), bb(w) ).
            ClassicScheme::S1 => Some(pair("b-(w)", "bb(w)")),
            // R1 contains everything; AlmostFair misses only a constant,
            // which has no partner.
            ClassicScheme::R1 | ClassicScheme::AlmostFair(_) => None,
            // FairGamma contains no unfair scenario at all, and both
            // members of any special pair are unfair.
            ClassicScheme::FairGamma => Some(pair("-(w)", "b(w)")),
            ClassicScheme::GammaMinus(excluded) => {
                for (i, a) in excluded.iter().enumerate() {
                    for b in excluded.iter().skip(i + 1) {
                        if is_special_pair(a, b) {
                            return Some((a.clone(), b.clone()));
                        }
                    }
                }
                None
            }
            ClassicScheme::AvoidPrefix(w0) => {
                let g = w0.to_gamma()?;
                Some(missing_pair_for_prefix(&g))
            }
            // Special pairs are unfair on both sides, hence infinitely
            // lossy — outside every finite budget.
            ClassicScheme::TotalBudget(_) => Some(pair("-(w)", "b(w)")),
            ClassicScheme::S2
            | ClassicScheme::SigmaAvoidPrefix(_)
            | ClassicScheme::SigmaTotalBudget(_) => {
                unreachable!("not a Γ-scheme; Theorem III.8 does not apply")
            }
        }
    }
}

fn pair(a: &str, b: &str) -> (Scenario, Scenario) {
    (a.parse().unwrap(), b.parse().unwrap())
}

/// Builds a special pair whose members both start with `w0` — so both avoid
/// the scheme `AvoidPrefix(w0)`.
///
/// Construction: extend `w0` by the two δ-adjacent letters picked by the
/// parity of `ind(w0)` (same-prefix case of Lemma III.4), then ride the
/// parity-matched constant tail.
fn missing_pair_for_prefix(w0: &GammaWord) -> (Scenario, Scenario) {
    let m0_even = crate::index::ind_parity_is_even(w0);
    // Same-prefix adjacent extensions (see Lemma III.4 analysis):
    // even ind(w0): w0·DropWhite (3m) and w0·Full (3m+1) — lower is even,
    //   tail DropBlack keeps them adjacent.
    // odd ind(w0): w0·Full (3m+1, even) and w0·DropWhite (3m+2) — lower
    //   even again, tail DropBlack.
    let (lo, hi) = if m0_even {
        (GammaLetter::DropWhite, GammaLetter::Full)
    } else {
        (GammaLetter::Full, GammaLetter::DropWhite)
    };
    let tail: Word = "b".parse().unwrap();
    let a = Scenario::new(w0.push(lo).to_word(), tail.clone());
    let b = Scenario::new(w0.push(hi).to_word(), tail);
    debug_assert!(
        is_special_pair(&a, &b),
        "constructed pair {a}/{b} not special"
    );
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::classic;

    fn sc(s: &str) -> Scenario {
        s.parse().unwrap()
    }

    #[test]
    fn seven_environments_verdicts_match_section_iv_a() {
        // Section IV-A: environments 1–5 solvable, 6 and 7 obstructions.
        let expected = [true, true, true, true, true, false, false];
        for (env, exp) in classic::seven_environments().iter().zip(expected) {
            let v = decide_classic(env);
            assert_eq!(v.is_solvable(), exp, "{}", env.name());
        }
    }

    #[test]
    fn witnesses_are_truly_missing() {
        for env in classic::seven_environments() {
            if let Solvability::Solvable { witness, .. } = decide_classic(&env) {
                assert!(
                    !env.contains(&witness),
                    "{}: witness {witness} in L",
                    env.name()
                );
            }
        }
    }

    #[test]
    fn fair_gamma_is_solvable_via_constants() {
        let v = decide_classic(&classic::fair_gamma());
        assert!(v.is_solvable());
        // Fair(Γω) misses no fair scenario but misses both constants; the
        // procedure prefers condition iii.
        assert_eq!(v.condition(), Some(ConditionIII8::MissingConstantWhite));
    }

    #[test]
    fn almost_fair_is_solvable_via_missing_constant() {
        let v = decide_classic(&classic::almost_fair());
        assert!(v.is_solvable());
        assert_eq!(v.condition(), Some(ConditionIII8::MissingConstantBlack));
        assert_eq!(v.witness(), Some(&sc("(b)")));
    }

    #[test]
    fn gamma_minus_pair_is_solvable_via_missing_pair() {
        let l = ClassicScheme::GammaMinus(vec![sc("-(w)"), sc("b(w)")]);
        let v = decide_gamma(&l);
        assert!(v.is_solvable());
        assert_eq!(v.condition(), Some(ConditionIII8::MissingSpecialPair));
        // Upper member: ind("b")=2 > ind("-")=1 ⇒ b(w).
        assert_eq!(v.witness(), Some(&sc("b(w)")));
    }

    #[test]
    fn gamma_minus_singleton_nonconstant_is_obstruction() {
        // Γω \ {-(w)} keeps the partner b(w): every condition fails.
        let l = ClassicScheme::GammaMinus(vec![sc("-(w)")]);
        assert_eq!(decide_gamma(&l), Solvability::Obstruction);
    }

    #[test]
    fn gamma_minus_fair_singleton_is_solvable() {
        let l = ClassicScheme::GammaMinus(vec![sc("(wb)")]);
        let v = decide_gamma(&l);
        assert_eq!(v.condition(), Some(ConditionIII8::MissingFair));
        assert_eq!(v.witness(), Some(&sc("(wb)")));
    }

    #[test]
    fn r1_is_the_canonical_obstruction() {
        assert_eq!(decide_classic(&classic::r1()), Solvability::Obstruction);
    }

    #[test]
    fn avoid_prefix_solvable_with_fair_witness() {
        let l = ClassicScheme::AvoidPrefix("wb".parse().unwrap());
        let v = decide_gamma(&l);
        assert!(v.is_solvable());
        assert_eq!(v.condition(), Some(ConditionIII8::MissingFair));
        let w = v.witness().unwrap();
        assert!(w.is_fair());
        assert!(w.has_prefix(&"wb".parse().unwrap()));
    }

    #[test]
    fn missing_pair_for_prefix_construction_is_special() {
        for w0 in ["ε", "w", "b", "-", "wb", "bw-", "---", "bbw"] {
            let g: GammaWord = w0.parse().unwrap();
            let (a, b) = missing_pair_for_prefix(&g);
            assert!(is_special_pair(&a, &b), "{w0}: {a} / {b}");
            if !g.is_empty() {
                let w0w = g.to_word();
                assert!(a.has_prefix(&w0w), "{a} should start with {w0}");
                assert!(b.has_prefix(&w0w), "{b} should start with {w0}");
            }
        }
    }

    #[test]
    fn upper_member_picks_larger_index() {
        assert_eq!(upper_member(&sc("-(w)"), &sc("b(w)")), sc("b(w)"));
        assert_eq!(upper_member(&sc("b(w)"), &sc("-(w)")), sc("b(w)"));
        assert_eq!(upper_member(&sc("--(b)"), &sc("-w(b)")), sc("-w(b)"));
    }

    #[test]
    fn min_excluded_prefix_matches_paper_round_bounds() {
        // Section IV-A: S0, T solvable in 1 round; C1, S1 in exactly 2.
        let cases = [
            (classic::s0(), Some(1)),
            (classic::t_white(), Some(1)),
            (classic::t_black(), Some(1)),
            (classic::c1(), Some(2)),
            (classic::s1(), Some(2)),
            (classic::r1(), None),
            (classic::fair_gamma(), None),
            (classic::almost_fair(), None),
        ];
        for (scheme, expect) in cases {
            let got = min_excluded_prefix(&scheme, 5).map(|(p, _)| p);
            assert_eq!(got, expect, "{}", scheme.name());
        }
    }

    #[test]
    fn min_excluded_prefix_returns_excluded_word() {
        let (p, w0) = min_excluded_prefix(&classic::s1(), 5).unwrap();
        assert_eq!(p, 2);
        assert!(!classic::s1().allows_prefix(&w0.to_word()));
    }

    #[test]
    fn avoid_prefix_min_excluded_is_prefix_length() {
        let l = ClassicScheme::AvoidPrefix("bwb".parse().unwrap());
        let (p, w0) = min_excluded_prefix(&l, 6).unwrap();
        assert_eq!(p, 3);
        assert_eq!(w0.to_word(), "bwb".parse().unwrap());
    }

    #[test]
    fn total_budget_is_solvable_in_k_plus_one_rounds() {
        // The classic "f losses ⇒ f+1 rounds" bound, recovered through the
        // paper's machinery: p = min excluded prefix length = k + 1.
        for k in 0..=4usize {
            let scheme = classic::total_budget(k);
            let v = decide_classic(&scheme);
            assert!(v.is_solvable(), "budget {k}");
            assert_eq!(v.condition(), Some(ConditionIII8::MissingFair));
            let (p, w0) = min_excluded_prefix(&scheme, 6).expect("bounded");
            assert_eq!(p, k + 1, "budget {k}");
            // The excluded word has exactly k + 1 losses.
            let losses = w0.iter().filter(|a| *a != GammaLetter::Full).count();
            assert_eq!(losses, k + 1);
        }
    }

    #[test]
    fn classic_missing_pairs_verified() {
        // Every hand-picked pair in the GammaScheme impl is actually
        // special and actually missing.
        for scheme in [
            classic::s0(),
            classic::t_white(),
            classic::t_black(),
            classic::c1(),
            classic::s1(),
            classic::fair_gamma(),
        ] {
            let (a, b) = scheme.missing_special_pair().expect("pair expected");
            assert!(is_special_pair(&a, &b), "{}: {a}/{b}", scheme.name());
            assert!(!scheme.contains(&a), "{}: {a}", scheme.name());
            assert!(!scheme.contains(&b), "{}: {b}", scheme.name());
        }
    }

    mod random_schemes {
        use super::*;
        use crate::engine::run_two_process;
        use crate::letter::Role;
        use crate::prelude::AwProcess;
        use crate::scenario::enumerate_gamma_lassos;
        use proptest::prelude::*;

        fn universe() -> Vec<Scenario> {
            enumerate_gamma_lassos(2, 2)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Randomized soundness: build Γω \ X for random small X; when
            /// the theorem says solvable, the returned witness must drive
            /// A_w to consensus on random members of the scheme.
            #[test]
            fn prop_gamma_minus_witnesses_are_sound(
                picks in proptest::collection::vec(0usize..60, 1..4),
                member_picks in proptest::collection::vec(0usize..60, 3),
                inputs in proptest::collection::vec(any::<bool>(), 2),
            ) {
                let uni = universe();
                let excluded: Vec<Scenario> = picks
                    .iter()
                    .map(|&i| uni[i % uni.len()].clone())
                    .collect();
                let scheme = ClassicScheme::GammaMinus(excluded);
                let verdict = decide_gamma(&scheme);
                if let Some(w) = verdict.witness() {
                    prop_assert!(!scheme.contains(w));
                    for &m in &member_picks {
                        let s = &uni[m % uni.len()];
                        if !scheme.contains(s) {
                            continue;
                        }
                        let mut white = AwProcess::new(Role::White, inputs[0], w.clone());
                        let mut black = AwProcess::new(Role::Black, inputs[1], w.clone());
                        let out = run_two_process(&mut white, &mut black, s, 400);
                        prop_assert!(
                            out.verdict.is_consensus(),
                            "scheme {} witness {w} member {s}: {:?}",
                            scheme.name(),
                            out.verdict
                        );
                    }
                }
            }

            /// Solvability is inherited downward under inclusion: removing
            /// one more scenario from a solvable Γω \ X keeps it solvable.
            #[test]
            fn prop_solvability_inherited_by_subsets(
                picks in proptest::collection::vec(0usize..60, 2..5),
                extra in 0usize..60,
            ) {
                let uni = universe();
                let excluded: Vec<Scenario> = picks
                    .iter()
                    .map(|&i| uni[i % uni.len()].clone())
                    .collect();
                let big = ClassicScheme::GammaMinus(excluded.clone());
                let mut more = excluded;
                more.push(uni[extra % uni.len()].clone());
                let small = ClassicScheme::GammaMinus(more);
                if decide_gamma(&big).is_solvable() {
                    prop_assert!(
                        decide_gamma(&small).is_solvable(),
                        "solvability must be inherited by subsets"
                    );
                }
            }
        }
    }

    #[test]
    fn classic_missing_fairs_verified() {
        for scheme in [
            classic::s0(),
            classic::t_white(),
            classic::t_black(),
            classic::c1(),
            classic::s1(),
        ] {
            let f = scheme.missing_fair_scenario().expect("fair expected");
            assert!(f.is_fair(), "{}", scheme.name());
            assert!(!scheme.contains(&f), "{}: {f}", scheme.name());
        }
        for scheme in [classic::r1(), classic::fair_gamma(), classic::almost_fair()] {
            assert!(
                scheme.missing_fair_scenario().is_none(),
                "{}",
                scheme.name()
            );
        }
    }
}
