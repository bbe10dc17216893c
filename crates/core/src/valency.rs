//! Valency of partial scenarios (Definitions III.9 / III.10), executable.
//!
//! Fix an algorithm `A`, a scheme `L`, and the bivalent initial
//! configuration `I` (input 0 at White, 1 at Black). A partial scenario
//! `v ∈ Pref(L)` is *`i`-valent* when every `L`-scenario extending `v`
//! makes `A` decide `i`, and *bivalent* when both decisions are reachable.
//! A bivalent prefix all of whose one-letter extensions (within `Pref(L)`)
//! are univalent is *decisive* — the configuration where the
//! impossibility argument corners the algorithm.
//!
//! The infinite quantification over extensions is approximated soundly by
//! a caller-supplied *extension basis*: a set of lasso continuations
//! appended to the prefix, each membership-checked against `L`. For the
//! classic schemes a small basis (constant tails + short fair cycles)
//! already distinguishes every valency the theory predicts, and every
//! reported decision is a genuine `A`-run, so
//!
//! * reported `Bivalent` is **exact** (two concrete witnessing runs);
//! * reported univalence is exact relative to the basis (a larger basis
//!   can only refine it).

use crate::engine::{run_two_process, TwoProcessProtocol, Verdict};
use crate::letter::{GammaLetter, Role};
use crate::scenario::Scenario;
use crate::scheme::OmissionScheme;
use crate::word::Word;

/// The valency of a partial scenario under a concrete algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Valency {
    /// Every basis extension decides 0.
    Zero,
    /// Every basis extension decides 1.
    One,
    /// Both decisions observed; the witnesses are the extending scenarios.
    Bivalent {
        /// An extension deciding 0.
        witness_zero: Scenario,
        /// An extension deciding 1.
        witness_one: Scenario,
    },
    /// No basis extension completed a decision (e.g. the prefix has no
    /// `L`-extension in the basis, or runs exceeded the budget).
    Unknown,
}

impl Valency {
    /// `true` for [`Valency::Bivalent`].
    pub fn is_bivalent(&self) -> bool {
        matches!(self, Valency::Bivalent { .. })
    }
}

/// A factory producing fresh protocol instances for repeated runs.
pub trait ProtocolFactory {
    /// The protocol type.
    type P: TwoProcessProtocol;
    /// A fresh instance for `role` with input `input`.
    fn fresh(&self, role: Role, input: bool) -> Self::P;
}

impl<P, F> ProtocolFactory for F
where
    P: TwoProcessProtocol,
    F: Fn(Role, bool) -> P,
{
    type P = P;
    fn fresh(&self, role: Role, input: bool) -> P {
        self(role, input)
    }
}

/// The default extension basis: constant tails, the alternating fair
/// cycles, and the clean tail — enough to separate the valencies of every
/// classic scheme.
pub fn default_extension_basis() -> Vec<Scenario> {
    [
        "(-)", "(w)", "(b)", "(wb)", "(bw)", "(w-)", "(b-)", "(-w)", "(-b)",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect()
}

/// Classifies the valency of `prefix` for algorithm `A` (via `factory`)
/// against scheme `L`, using the given extension basis and the bivalent
/// initial configuration `I` (White = 0, Black = 1).
pub fn valency<F>(
    factory: &F,
    scheme: &dyn OmissionScheme,
    prefix: &Word,
    basis: &[Scenario],
    budget: usize,
) -> Valency
where
    F: ProtocolFactory,
    <F::P as TwoProcessProtocol>::Msg: Clone,
{
    let mut saw_zero: Option<Scenario> = None;
    let mut saw_one: Option<Scenario> = None;
    for tail in basis {
        let extended = tail.prepend(prefix);
        if !scheme.contains(&extended) {
            continue;
        }
        let mut white = factory.fresh(Role::White, false);
        let mut black = factory.fresh(Role::Black, true);
        let out = run_two_process(&mut white, &mut black, &extended, budget);
        match out.verdict {
            Verdict::Consensus(false) => saw_zero = saw_zero.or(Some(extended)),
            Verdict::Consensus(true) => saw_one = saw_one.or(Some(extended)),
            Verdict::Undecided => {}
            bad => panic!("algorithm violated consensus on {extended}: {bad:?}"),
        }
        if let (Some(_), Some(_)) = (&saw_zero, &saw_one) {
            break;
        }
    }
    match (saw_zero, saw_one) {
        (Some(witness_zero), Some(witness_one)) => Valency::Bivalent {
            witness_zero,
            witness_one,
        },
        (Some(_), None) => Valency::Zero,
        (None, Some(_)) => Valency::One,
        (None, None) => Valency::Unknown,
    }
}

/// Searches for a *decisive* prefix (Definition III.10): bivalent, with no
/// bivalent one-letter extension inside `Pref(L)`. Walks bivalent children
/// breadth-first from `ε` up to `max_depth`.
///
/// Returns the decisive prefix, or `None` when every explored bivalent
/// prefix keeps a bivalent child (the scheme side of Lemma III.11's
/// dichotomy: following the bivalent children forever traces an unfair
/// scenario trapped in a special pair).
pub fn find_decisive_prefix<F>(
    factory: &F,
    scheme: &dyn OmissionScheme,
    basis: &[Scenario],
    max_depth: usize,
    budget: usize,
) -> Option<Word>
where
    F: ProtocolFactory,
    <F::P as TwoProcessProtocol>::Msg: Clone,
{
    let mut frontier: Vec<Word> = vec![Word::empty()];
    for _depth in 0..=max_depth {
        let mut next = Vec::new();
        for v in frontier {
            if !valency(factory, scheme, &v, basis, budget).is_bivalent() {
                continue;
            }
            let mut bivalent_children = Vec::new();
            for a in GammaLetter::ALL {
                let child = v.push(a.to_letter());
                if !scheme.allows_prefix(&child) {
                    continue;
                }
                if valency(factory, scheme, &child, basis, budget).is_bivalent() {
                    bivalent_children.push(child);
                }
            }
            if bivalent_children.is_empty() {
                return Some(v); // bivalent, no bivalent children: decisive
            }
            next.extend(bivalent_children);
        }
        frontier = next;
        if frontier.is_empty() {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::AwProcess;
    use crate::scheme::classic;
    use crate::theorem::decide_classic;

    fn aw_factory(w: &Scenario) -> impl ProtocolFactory<P = AwProcess> + '_ {
        move |role, input| AwProcess::new(role, input, w.clone())
    }

    #[test]
    fn epsilon_is_bivalent_for_fair_witness_schemes() {
        // The impossibility proof's starting point (§III-C): under inputs
        // (0, 1), ε is bivalent — scenarios above the witness trajectory
        // decide White's value, scenarios below decide Black's, and a fair
        // witness leaves members on both sides.
        for scheme in [classic::s1(), classic::c1()] {
            let w = decide_classic(&scheme).witness().unwrap().clone();
            let factory = aw_factory(&w);
            let v = valency(
                &factory,
                &scheme,
                &Word::empty(),
                &default_extension_basis(),
                256,
            );
            assert!(v.is_bivalent(), "{}: {v:?}", scheme.name());
        }
    }

    #[test]
    fn constant_witness_makes_aw_a_dictatorship() {
        // A structural curiosity surfaced by the valency analysis: with
        // the maximal witness w = (b)^ω, no phantom index can ever end
        // *above* ind(w_r) = 3^r - 1, so every run decides on the below
        // side — Black's initial value. That is exactly the behaviour of
        // the intuitive almost-fair algorithm (Corollary IV.1: everyone
        // outputs ◼'s value), and it makes ε univalent rather than
        // bivalent. Consensus still holds: a value-dictatorship satisfies
        // Termination, Agreement, and Validity.
        let scheme = classic::almost_fair();
        let w = decide_classic(&scheme).witness().unwrap().clone();
        assert_eq!(w, "(b)".parse().unwrap());
        let factory = aw_factory(&w);
        let v = valency(
            &factory,
            &scheme,
            &Word::empty(),
            &default_extension_basis(),
            256,
        );
        assert_eq!(v, Valency::One, "Black proposes 1; the dictator decides 1");
    }

    #[test]
    fn bivalent_witnesses_really_decide_differently() {
        let scheme = classic::s1();
        let w = decide_classic(&scheme).witness().unwrap().clone();
        let factory = aw_factory(&w);
        let Valency::Bivalent {
            witness_zero,
            witness_one,
        } = valency(
            &factory,
            &scheme,
            &Word::empty(),
            &default_extension_basis(),
            256,
        )
        else {
            panic!("ε must be bivalent");
        };
        // Re-run both witnesses and confirm.
        for (s, expect) in [(witness_zero, false), (witness_one, true)] {
            let mut white = AwProcess::new(Role::White, false, w.clone());
            let mut black = AwProcess::new(Role::Black, true, w.clone());
            let out = run_two_process(&mut white, &mut black, &s, 256);
            assert_eq!(out.verdict, Verdict::Consensus(expect), "{s}");
        }
    }

    #[test]
    fn decisive_prefix_exists_for_bounded_schemes() {
        // S1 decides in 2 rounds: a decisive prefix exists within depth 2.
        let scheme = classic::s1();
        let (p, w0) = crate::theorem::min_excluded_prefix(&scheme, 4).unwrap();
        let w = Scenario::new(w0.to_word(), "b".parse().unwrap());
        let factory = move |role, input| AwProcess::new(role, input, w.clone()).with_round_cap(p);
        let decisive = find_decisive_prefix(&factory, &scheme, &default_extension_basis(), 3, 64);
        let v = decisive.expect("a decisive prefix must exist for capped A_w on S1");
        assert!(v.len() < p, "decisive before the decision round, got {v}");
    }

    #[test]
    fn valency_of_univalent_prefixes() {
        // Under S1 with capped A_w: after two clean rounds the run is
        // already decided; any decided prefix is univalent.
        let scheme = classic::s1();
        let (p, w0) = crate::theorem::min_excluded_prefix(&scheme, 4).unwrap();
        let w = Scenario::new(w0.to_word(), "b".parse().unwrap());
        let factory = move |role, input| AwProcess::new(role, input, w.clone()).with_round_cap(p);
        let v = valency(
            &factory,
            &scheme,
            &"--".parse().unwrap(),
            &default_extension_basis(),
            64,
        );
        assert!(
            matches!(v, Valency::Zero | Valency::One),
            "a completed prefix is univalent: {v:?}"
        );
    }

    #[test]
    fn unknown_when_prefix_leaves_the_scheme() {
        let scheme = classic::s0(); // only Full^ω
        let w: Scenario = "(wb)".parse().unwrap();
        let factory = aw_factory(&w);
        let v = valency(
            &factory,
            &scheme,
            &"w".parse().unwrap(),
            &default_extension_basis(),
            64,
        );
        assert_eq!(v, Valency::Unknown, "no S0 scenario starts with a loss");
    }

    #[test]
    fn obstruction_keeps_bivalent_children_forever() {
        // Lemma III.11's dichotomy, the obstruction side: for R1 = Γω no
        // decisive prefix appears (within the search depth) because every
        // bivalent prefix keeps a bivalent child — A_w never becomes safe.
        let scheme = classic::r1();
        let w: Scenario = "(b)".parse().unwrap(); // not a valid witness: R1 has none
        let factory = aw_factory(&w);
        let decisive = find_decisive_prefix(&factory, &scheme, &default_extension_basis(), 3, 128);
        assert_eq!(decisive, None);
    }
}
