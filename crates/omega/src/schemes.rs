//! Omission schemes as conjunctions of ω-automata obligations, and the
//! Theorem III.8 decision procedure for all of them.
//!
//! A [`RegularScheme`] denotes `L = L(O_1) ∩ … ∩ L(O_k) ⊆ Γ^ω`. The
//! representation is closed under everything the catalog needs, and its
//! complement distributes into the disjunction `∪_i ¬L(O_i)` — each
//! disjunct a single flipped obligation — which is exactly the shape the
//! emptiness queries consume.

use crate::auto::Obligation;
use crate::pairs::{gamma_index, gamma_letter, lift_to_pairs, pair_split, spair_obligation, GAMMA};
use crate::product::{find_accepted_lasso, LassoWitness};
use minobs_core::letter::{GammaLetter, Role};
use minobs_core::prelude::*;
use minobs_core::scheme::GammaScheme;
use minobs_core::word::Word;

/// An ω-regular omission scheme within `Γ^ω`, denoted by a conjunction of
/// deterministic obligations.
#[derive(Debug, Clone)]
pub struct RegularScheme {
    name: String,
    obligations: Vec<Obligation>,
}

impl RegularScheme {
    /// Builds a scheme from obligations (all over the `Γ` alphabet).
    ///
    /// # Panics
    /// Panics when an obligation's alphabet is not `Γ`'s.
    pub fn new(name: impl Into<String>, obligations: Vec<Obligation>) -> RegularScheme {
        assert!(!obligations.is_empty(), "need at least one obligation");
        for o in &obligations {
            assert_eq!(o.automaton.alphabet(), GAMMA, "obligations must read Γ");
        }
        RegularScheme {
            name: name.into(),
            obligations,
        }
    }

    /// The obligations (read-only).
    pub fn obligations(&self) -> &[Obligation] {
        &self.obligations
    }

    /// Intersection with another scheme: concatenate obligations.
    pub fn intersect(&self, other: &RegularScheme) -> RegularScheme {
        let mut obligations = self.obligations.clone();
        obligations.extend(other.obligations.iter().cloned());
        RegularScheme {
            name: format!("({}) ∩ ({})", self.name, other.name),
            obligations,
        }
    }

    /// Is the whole scheme empty?
    pub fn is_empty(&self) -> bool {
        find_accepted_lasso(&self.obligations).is_none()
    }

    /// Some member scenario, if any.
    pub fn sample_member(&self) -> Option<Scenario> {
        find_accepted_lasso(&self.obligations).map(|w| witness_to_scenario(&w))
    }

    fn scenario_lasso(w: &Scenario) -> Option<(Vec<usize>, Vec<usize>)> {
        if !w.is_gamma() {
            return None;
        }
        let enc = |word: &Word| -> Vec<usize> {
            word.iter()
                .map(|l| gamma_index(l.to_gamma().unwrap()))
                .collect()
        };
        Some((enc(w.lasso_prefix()), enc(w.lasso_cycle())))
    }
}

/// Converts a `Γ`-alphabet witness into a scenario.
pub fn witness_to_scenario(w: &LassoWitness) -> Scenario {
    let dec = |letters: &[usize]| -> Word {
        letters
            .iter()
            .map(|&i| gamma_letter(i).to_letter())
            .collect()
    };
    Scenario::new(dec(&w.prefix), dec(&w.cycle))
}

/// Converts a pair-alphabet witness into the two component scenarios.
pub fn pair_witness_to_scenarios(w: &LassoWitness) -> (Scenario, Scenario) {
    let dec = |letters: &[usize], second: bool| -> Word {
        letters
            .iter()
            .map(|&p| {
                let (a, b) = pair_split(p);
                gamma_letter(if second { b } else { a }).to_letter()
            })
            .collect()
    };
    (
        Scenario::new(dec(&w.prefix, false), dec(&w.cycle, false)),
        Scenario::new(dec(&w.prefix, true), dec(&w.cycle, true)),
    )
}

impl OmissionScheme for RegularScheme {
    fn contains(&self, w: &Scenario) -> bool {
        let Some((prefix, cycle)) = Self::scenario_lasso(w) else {
            return false;
        };
        self.obligations
            .iter()
            .all(|o| o.accepts_lasso(&prefix, &cycle))
    }

    fn allows_prefix(&self, u: &Word) -> bool {
        let Some(g) = u.to_gamma() else {
            return false;
        };
        let letters: Vec<usize> = g.iter().map(gamma_index).collect();
        // u ∈ Pref(L) ⟺ L restarted after u is nonempty.
        let restarted: Vec<Obligation> = self
            .obligations
            .iter()
            .map(|o| Obligation {
                automaton: o.automaton.with_init(o.automaton.run(&letters)),
                acceptance: o.acceptance.clone(),
            })
            .collect();
        find_accepted_lasso(&restarted).is_some()
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

impl GammaScheme for RegularScheme {
    fn missing_fair_scenario(&self) -> Option<Scenario> {
        // Fair ∩ ¬L = ∪_i (Fair ∩ ¬O_i).
        let fair = fair_obligations();
        for o in &self.obligations {
            let mut query = vec![o.complement()];
            query.extend(fair.iter().cloned());
            if let Some(w) = find_accepted_lasso(&query) {
                return Some(witness_to_scenario(&w));
            }
        }
        None
    }

    fn missing_special_pair(&self) -> Option<(Scenario, Scenario)> {
        let spair = spair_obligation();
        for oi in &self.obligations {
            for oj in &self.obligations {
                let query = vec![
                    spair.clone(),
                    lift_to_pairs(&oi.complement(), false),
                    lift_to_pairs(&oj.complement(), true),
                ];
                if let Some(w) = find_accepted_lasso(&query) {
                    return Some(pair_witness_to_scenarios(&w));
                }
            }
        }
        None
    }
}

/// Decides Theorem III.8 for an ω-regular scheme.
pub fn decide_regular(scheme: &RegularScheme) -> Solvability {
    minobs_core::theorem::decide_gamma(scheme)
}

// ---------------------------------------------------------------------
// The classic catalog, as automata.
// ---------------------------------------------------------------------

/// The two fairness obligations: infinitely many letters deliver White's
/// message, and infinitely many deliver Black's.
pub fn fair_obligations() -> Vec<Obligation> {
    vec![
        Obligation::letter_recurrence(GAMMA, |a| a != gamma_index(GammaLetter::DropWhite)),
        Obligation::letter_recurrence(GAMMA, |a| a != gamma_index(GammaLetter::DropBlack)),
    ]
}

/// `S0 = {Full^ω}` as an automaton scheme.
pub fn regular_s0() -> RegularScheme {
    RegularScheme::new(
        "S0 (regular)",
        vec![Obligation::letter_safety(GAMMA, |a| a == 0)],
    )
}

/// `T_role` as an automaton scheme.
pub fn regular_t(role: Role) -> RegularScheme {
    let risky = gamma_index(GammaLetter::dropping(role));
    RegularScheme::new(
        format!("T_{role} (regular)"),
        vec![Obligation::letter_safety(GAMMA, move |a| {
            a == 0 || a == risky
        })],
    )
}

/// `C1` (crash model) as an automaton scheme: `Full^a` then one process
/// silent forever.
pub fn regular_c1() -> RegularScheme {
    use crate::auto::{Acceptance, DetAutomaton};
    // States: 0 clean, 1 White crashed, 2 Black crashed, 3 dead.
    let trans = vec![
        vec![0, 1, 2], // clean: Full stays, w → crashedW, b → crashedB
        vec![3, 1, 3], // crashedW: only w
        vec![3, 3, 2], // crashedB: only b
        vec![3, 3, 3],
    ];
    RegularScheme::new(
        "C1 (regular)",
        vec![Obligation::new(
            DetAutomaton::new(GAMMA, trans, 0),
            Acceptance::CoBuchi([3].into()),
        )],
    )
}

/// `S1` as an automaton scheme: at most one process ever loses messages.
pub fn regular_s1() -> RegularScheme {
    use crate::auto::{Acceptance, DetAutomaton};
    // States: 0 clean, 1 White-only faults, 2 Black-only, 3 dead.
    let trans = vec![vec![0, 1, 2], vec![1, 1, 3], vec![2, 3, 2], vec![3, 3, 3]];
    RegularScheme::new(
        "S1 (regular)",
        vec![Obligation::new(
            DetAutomaton::new(GAMMA, trans, 0),
            Acceptance::CoBuchi([3].into()),
        )],
    )
}

/// `R1 = Γ^ω` as an automaton scheme.
pub fn regular_r1() -> RegularScheme {
    RegularScheme::new("R1 = Γω (regular)", vec![Obligation::trivial(GAMMA)])
}

/// `Fair(Γ^ω)` as an automaton scheme.
pub fn regular_fair() -> RegularScheme {
    RegularScheme::new("Fair(Γω) (regular)", fair_obligations())
}

/// `Γ^ω` minus a finite set of lasso scenarios.
pub fn regular_gamma_minus(excluded: &[Scenario]) -> RegularScheme {
    let obligations = excluded
        .iter()
        .map(|s| {
            let c = s.canonicalize();
            assert!(c.is_gamma(), "excluded scenarios must be in Γ^ω");
            difference_obligation(&c)
        })
        .collect();
    let list: Vec<String> = excluded.iter().map(|s| s.to_string()).collect();
    RegularScheme::new(
        format!("Γω \\ {{{}}} (regular)", list.join(", ")),
        obligations,
    )
}

/// `Γ^ω \ {DropBlack^ω}` — the almost-fair scheme of Corollary IV.1.
pub fn regular_almost_fair() -> RegularScheme {
    regular_gamma_minus(&[Scenario::constant_gamma(GammaLetter::DropBlack)])
}

/// The classic total-omission budget `B_k` as an automaton scheme: a
/// `(k+2)`-state loss counter whose overflow state is rejecting.
pub fn regular_total_budget(k: usize) -> RegularScheme {
    use crate::auto::{Acceptance, DetAutomaton};
    // States 0..=k count losses; k+1 = overflow (absorbing).
    let overflow = k + 1;
    let mut trans = Vec::with_capacity(k + 2);
    for count in 0..=k {
        trans.push(
            (0..GAMMA)
                .map(|a| {
                    if a == 0 {
                        count // Full: no loss
                    } else if count == k {
                        overflow
                    } else {
                        count + 1
                    }
                })
                .collect(),
        );
    }
    trans.push(vec![overflow; GAMMA]);
    RegularScheme::new(
        format!("B{k} (regular, ≤ {k} total losses)"),
        vec![Obligation::new(
            DetAutomaton::new(GAMMA, trans, 0),
            Acceptance::CoBuchi([overflow].into()),
        )],
    )
}

/// The obligation "the word differs from the given lasso": a position
/// tracker that escapes to an absorbing accepting state on the first
/// mismatch.
fn difference_obligation(lasso: &Scenario) -> Obligation {
    use crate::auto::{Acceptance, DetAutomaton};
    let prefix_len = lasso.lasso_prefix().len();
    let cycle_len = lasso.lasso_cycle().len();
    let total = prefix_len + cycle_len;
    let escaped = total;
    let expected = |pos: usize| -> usize { gamma_index(lasso.letter_at(pos).to_gamma().unwrap()) };
    let mut trans = Vec::with_capacity(total + 1);
    for pos in 0..total {
        let next = if pos + 1 < total {
            pos + 1
        } else {
            prefix_len // wrap into the cycle
        };
        trans.push(
            (0..GAMMA)
                .map(|a| if a == expected(pos) { next } else { escaped })
                .collect(),
        );
    }
    trans.push(vec![escaped; GAMMA]);
    Obligation::new(
        DetAutomaton::new(GAMMA, trans, 0),
        Acceptance::Buchi([escaped].into()),
    )
}

/// `Γ^ω` avoiding a fixed forbidden prefix.
pub fn regular_avoid_prefix(w0: &GammaWord) -> RegularScheme {
    use crate::auto::{Acceptance, DetAutomaton};
    let k = w0.len();
    // States 0..k track the match; k = dead (matched w0); k+1 = escaped.
    let dead = k;
    let escaped = k + 1;
    let mut trans = Vec::with_capacity(k + 2);
    for pos in 0..k {
        let expected = gamma_index(w0.get(pos).unwrap());
        trans.push(
            (0..GAMMA)
                .map(|a| {
                    if a == expected {
                        if pos + 1 == k {
                            dead
                        } else {
                            pos + 1
                        }
                    } else {
                        escaped
                    }
                })
                .collect(),
        );
    }
    // `dead` is only reached when k > 0; for k = 0 the initial state IS
    // dead (every word has the empty prefix), handled by init below.
    trans.push(vec![dead; GAMMA]); // dead
    trans.push(vec![escaped; GAMMA]); // escaped
    let init = if k == 0 { dead } else { 0 };
    RegularScheme::new(
        format!("Γω avoiding {w0} (regular)"),
        vec![Obligation::new(
            DetAutomaton::new(GAMMA, trans, init),
            Acceptance::CoBuchi([dead].into()),
        )],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use minobs_core::scheme::classic;
    use minobs_core::theorem::{decide_classic, ConditionIII8};

    fn sc(s: &str) -> Scenario {
        s.parse().unwrap()
    }

    /// The regular catalog paired with its exact classic twin.
    fn catalog() -> Vec<(RegularScheme, ClassicScheme)> {
        vec![
            (regular_s0(), classic::s0()),
            (regular_t(Role::White), classic::t_white()),
            (regular_t(Role::Black), classic::t_black()),
            (regular_c1(), classic::c1()),
            (regular_s1(), classic::s1()),
            (regular_r1(), classic::r1()),
            (regular_fair(), classic::fair_gamma()),
            (regular_almost_fair(), classic::almost_fair()),
            (regular_total_budget(0), classic::total_budget(0)),
            (regular_total_budget(1), classic::total_budget(1)),
            (regular_total_budget(3), classic::total_budget(3)),
        ]
    }

    #[test]
    fn membership_agrees_with_classic_catalog() {
        let lassos = minobs_core::scenario::enumerate_gamma_lassos(2, 2);
        for (reg, cls) in catalog() {
            for s in &lassos {
                assert_eq!(
                    reg.contains(s),
                    cls.contains(s),
                    "{} vs {} on {s}",
                    reg.name(),
                    cls.name()
                );
            }
        }
    }

    #[test]
    fn prefix_viability_agrees_with_classic_catalog() {
        for (reg, cls) in catalog() {
            for len in 0..4usize {
                for w in GammaWord::enumerate_all(len) {
                    let word = w.to_word();
                    assert_eq!(
                        reg.allows_prefix(&word),
                        cls.allows_prefix(&word),
                        "{} on prefix {w}",
                        reg.name()
                    );
                }
            }
        }
    }

    #[test]
    fn verdicts_agree_with_classic_catalog() {
        for (reg, cls) in catalog() {
            let rv = decide_regular(&reg);
            let cv = decide_classic(&cls);
            assert_eq!(rv.is_solvable(), cv.is_solvable(), "{}", reg.name());
            if let Some(w) = rv.witness() {
                assert!(!reg.contains(w), "{}: witness {w} inside", reg.name());
                assert!(!cls.contains(w), "{}: witness {w} inside twin", reg.name());
            }
        }
    }

    #[test]
    fn regular_gamma_minus_pair_is_solvable() {
        let l = regular_gamma_minus(&[sc("-(w)"), sc("b(w)")]);
        let v = decide_regular(&l);
        assert!(v.is_solvable());
        assert_eq!(v.condition(), Some(ConditionIII8::MissingSpecialPair));
        let w = v.witness().unwrap();
        assert!(!l.contains(w));
    }

    #[test]
    fn regular_gamma_minus_half_pair_is_obstruction() {
        let l = regular_gamma_minus(&[sc("-(w)")]);
        assert!(!decide_regular(&l).is_solvable());
    }

    #[test]
    fn missing_pair_witnesses_are_special_and_missing() {
        let l = regular_gamma_minus(&[sc("-(w)"), sc("b(w)"), sc("(wb)")]);
        let (a, b) = l.missing_special_pair().expect("pair exists");
        assert!(minobs_core::spair::is_special_pair(&a, &b), "{a}/{b}");
        assert!(!l.contains(&a));
        assert!(!l.contains(&b));
    }

    #[test]
    fn missing_fair_found_through_automata() {
        let f = regular_s1().missing_fair_scenario().expect("fair missing");
        assert!(f.is_fair());
        assert!(!regular_s1().contains(&f));
        assert!(regular_r1().missing_fair_scenario().is_none());
        assert!(regular_fair().missing_fair_scenario().is_none());
    }

    #[test]
    fn avoid_prefix_scheme_matches_classic() {
        for w0 in ["w", "wb", "b-w", ""] {
            let g: GammaWord = w0.parse().unwrap_or_else(|_| GammaWord::empty());
            let reg = regular_avoid_prefix(&g);
            let cls = ClassicScheme::AvoidPrefix(g.to_word());
            for s in minobs_core::scenario::enumerate_gamma_lassos(2, 2) {
                assert_eq!(reg.contains(&s), cls.contains(&s), "w0={w0} s={s}");
            }
            let rv = decide_regular(&reg);
            let cv = decide_classic(&cls);
            assert_eq!(rv.is_solvable(), cv.is_solvable(), "w0={w0}");
        }
    }

    #[test]
    fn empty_scheme_detection() {
        // Avoiding the empty prefix forbids everything.
        let l = regular_avoid_prefix(&GammaWord::empty());
        assert!(l.is_empty());
        assert!(l.sample_member().is_none());
        // S1 is nonempty and its sample is a member.
        let m = regular_s1().sample_member().unwrap();
        assert!(regular_s1().contains(&m));
    }

    #[test]
    fn intersection_combines_constraints() {
        // Fair ∩ T_White: fair scenarios that only ever drop White.
        let l = regular_fair().intersect(&regular_t(Role::White));
        assert!(l.contains(&sc("(-)")));
        assert!(l.contains(&sc("(w-)")));
        assert!(!l.contains(&sc("(w)")), "unfair");
        assert!(!l.contains(&sc("(b-)")), "drops Black");
        let m = l.sample_member().unwrap();
        assert!(l.contains(&m));
    }

    #[test]
    fn difference_obligation_excludes_exactly_the_lasso() {
        let o = difference_obligation(&sc("w(b-)"));
        let lassos = minobs_core::scenario::enumerate_gamma_lassos(2, 2);
        for s in &lassos {
            let reg = RegularScheme::new("test", vec![o.clone()]);
            assert_eq!(reg.contains(s), *s != sc("w(b-)"), "{s}");
        }
    }
}
