//! Omission schemes (Definition II.2) and the paper's catalog of classic
//! fault environments (Examples II.5–II.11).
//!
//! An omission scheme is *any* set of scenarios — the paper's point is
//! precisely that no failure metric is endorsed. The library therefore
//! exposes a scheme as a trait ([`OmissionScheme`]) whose one mandatory
//! operation is scenario membership, plus a prefix-viability query used by
//! executors and the model checker.
//!
//! [`ClassicScheme`] is a closed enumeration of every environment named in
//! the paper, each with exact membership, prefix, fairness and special-pair
//! answers — these feed [`crate::theorem::decide_classic`]. Arbitrary
//! ω-regular schemes get the same treatment in the `minobs-omega` crate.

use crate::letter::{GammaLetter, Letter, Role};
use crate::scenario::Scenario;
use crate::word::Word;
use std::fmt;

/// An arbitrary set of communication scenarios.
pub trait OmissionScheme {
    /// Is the (ultimately periodic) scenario a member of the scheme?
    fn contains(&self, w: &Scenario) -> bool;

    /// Is `u` a prefix of some member? (`u ∈ Pref(L)`, Definition II.4.)
    ///
    /// Executors use this to validate adversary scripts; the bounded model
    /// checker enumerates `Pref(L) ∩ Γ^k` through it.
    fn allows_prefix(&self, u: &Word) -> bool;

    /// A human-readable name for reports.
    fn name(&self) -> String;
}

/// Every concrete fault environment named in the paper.
///
/// The seven environments of Section II-A2 (restated as Example II.11) plus
/// the fair scheme (Example II.8) and the almost-fair scheme of
/// Corollary IV.1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassicScheme {
    /// `S0 = {Full^ω}` — no messenger is ever captured (env. 1).
    S0,
    /// `T_role = {Full, Drop(role)}^ω` — only `role`'s messengers are at
    /// risk (envs. 2 and 3).
    T(Role),
    /// `C1` — at most one process *crashes*: at some round one process's
    /// messages stop forever; before that, nothing is lost (env. 4,
    /// Example II.10 restricted to Γ as in Example II.11 line 4).
    C1,
    /// `S1 = T_White ∪ T_Black` — at most one of the processes ever loses
    /// messages (env. 5, Example II.9).
    S1,
    /// `R1 = Γ^ω` — at most one message lost per round (env. 6,
    /// Example II.6). The well-studied near-minimal obstruction.
    R1,
    /// `S2 = Σ^ω` — anything goes (env. 7, Example II.5). The folklore
    /// impossibility.
    S2,
    /// `F = Fair(Γ^ω)` — every `Γ`-scenario that is fair (Example II.8
    /// intersected with Γ^ω).
    FairGamma,
    /// `F_almost = Γ^ω \ {drop(role)^ω}` — everything but one constant
    /// unfair scenario (Corollary IV.1 uses `role = Black`).
    AlmostFair(Role),
    /// `Γ^ω` minus a finite set of scenarios — the shape used for the
    /// descending chain of obstructions in Section IV-C.
    GammaMinus(Vec<Scenario>),
    /// All `Γ`-scenarios avoiding a fixed forbidden prefix `w0` — the shape
    /// of Corollary III.14 (`Pref(L) ⊊ Γ*`, every other prefix allowed).
    AvoidPrefix(Word),
    /// At most `k` messages lost in the whole execution (the classic
    /// *total* omission budget, counted over `Γ`: at most `k` non-`Full`
    /// letters). Not one of the paper's seven environments, but the fault
    /// model behind the textbook `f + 1`-round bound — expressed here as
    /// an omission scheme and analyzed with the same tools.
    TotalBudget(usize),
    /// All of `Σ^ω` avoiding a fixed forbidden prefix — the double-omission
    /// analogue of [`ClassicScheme::AvoidPrefix`]. Theorem III.8 does not
    /// cover schemes with double omission (the paper's Section VI leaves
    /// their characterization open); the bounded model checker still
    /// decides their finite-horizon solvability exactly, which is what the
    /// `exp_sigma` experiment explores.
    SigmaAvoidPrefix(Word),
    /// At most `k` *rounds with any loss* over the whole execution,
    /// double omissions allowed — a Σ-side total budget.
    SigmaTotalBudget(usize),
}

impl ClassicScheme {
    /// `true` when the scheme is a subset of `Γ^ω` (no double omission) —
    /// the hypothesis of Theorem III.8.
    pub fn is_gamma_subset(&self) -> bool {
        !matches!(
            self,
            ClassicScheme::S2
                | ClassicScheme::SigmaAvoidPrefix(_)
                | ClassicScheme::SigmaTotalBudget(_)
        )
    }
}

/// A scheme within `Γ^ω`, queryable for the Theorem III.8 conditions.
///
/// The theorem's four conditions existentially quantify over *all* fair
/// scenarios and *all* special pairs; implementations answer with concrete
/// witnesses (always ultimately periodic — see DESIGN.md).
pub trait GammaScheme: OmissionScheme {
    /// A fair scenario `f ∈ Fair(Γ^ω)` with `f ∉ L`, if one exists
    /// (condition III.8.i).
    fn missing_fair_scenario(&self) -> Option<Scenario>;

    /// A special pair `(u, u')` with `u ∉ L` and `u' ∉ L`, if one exists
    /// (condition III.8.ii).
    fn missing_special_pair(&self) -> Option<(Scenario, Scenario)>;

    /// Is the constant scenario `drop(role)^ω` a member?
    /// (Conditions III.8.iii / III.8.iv.)
    fn contains_constant_drop(&self, role: Role) -> bool {
        self.contains(&Scenario::constant_gamma(GammaLetter::dropping(role)))
    }
}

impl fmt::Display for ClassicScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl OmissionScheme for ClassicScheme {
    fn contains(&self, w: &Scenario) -> bool {
        match self {
            ClassicScheme::S0 => *w == Scenario::constant(Letter::Full),
            ClassicScheme::T(role) => scenario_only_drops(w, *role),
            ClassicScheme::C1 => is_crash_scenario(w),
            ClassicScheme::S1 => {
                scenario_only_drops(w, Role::White) || scenario_only_drops(w, Role::Black)
            }
            ClassicScheme::R1 => w.is_gamma(),
            ClassicScheme::S2 => true,
            ClassicScheme::FairGamma => w.is_gamma() && w.is_fair(),
            ClassicScheme::AlmostFair(role) => {
                w.is_gamma() && *w != Scenario::constant_gamma(GammaLetter::dropping(*role))
            }
            ClassicScheme::GammaMinus(excluded) => w.is_gamma() && !excluded.contains(w),
            ClassicScheme::AvoidPrefix(w0) => w.is_gamma() && !w.has_prefix(w0),
            ClassicScheme::TotalBudget(k) => {
                // Ultimately periodic: finitely many losses iff the cycle
                // is loss-free; then count the transient's losses.
                w.is_gamma() && {
                    let c = w.canonicalize();
                    c.lasso_cycle().iter().all(|a| a == Letter::Full)
                        && c.lasso_prefix()
                            .iter()
                            .filter(|&a| a != Letter::Full)
                            .count()
                            <= *k
                }
            }
            ClassicScheme::SigmaAvoidPrefix(w0) => !w.has_prefix(w0),
            ClassicScheme::SigmaTotalBudget(k) => {
                let c = w.canonicalize();
                c.lasso_cycle().iter().all(|a| a == Letter::Full)
                    && c.lasso_prefix()
                        .iter()
                        .filter(|&a| a != Letter::Full)
                        .count()
                        <= *k
            }
        }
    }

    fn allows_prefix(&self, u: &Word) -> bool {
        match self {
            ClassicScheme::S0 => u.iter().all(|a| a == Letter::Full),
            ClassicScheme::T(role) => u
                .iter()
                .all(|a| a == Letter::Full || a == GammaLetter::dropping(*role).to_letter()),
            ClassicScheme::C1 => {
                // Prefix of a crash scenario: Full^a · drop(x)^b for one x.
                is_crash_prefix(u)
            }
            ClassicScheme::S1 => {
                u.iter()
                    .all(|a| a == Letter::Full || a == Letter::DropWhite)
                    || u.iter()
                        .all(|a| a == Letter::Full || a == Letter::DropBlack)
            }
            ClassicScheme::R1 | ClassicScheme::FairGamma => u.is_gamma(),
            ClassicScheme::S2 => true,
            ClassicScheme::AlmostFair(_) => {
                // Every Γ-prefix extends to a fair scenario, which is never
                // the excluded constant.
                u.is_gamma()
            }
            ClassicScheme::GammaMinus(_) => {
                // Excluding finitely many scenarios removes no prefixes:
                // every Γ-prefix has uncountably many extensions.
                u.is_gamma()
            }
            ClassicScheme::AvoidPrefix(w0) => u.is_gamma() && !w0.is_prefix_of(u),
            ClassicScheme::TotalBudget(k) => {
                u.is_gamma() && u.iter().filter(|&a| a != Letter::Full).count() <= *k
            }
            ClassicScheme::SigmaAvoidPrefix(w0) => !w0.is_prefix_of(u),
            ClassicScheme::SigmaTotalBudget(k) => {
                u.iter().filter(|&a| a != Letter::Full).count() <= *k
            }
        }
    }

    fn name(&self) -> String {
        match self {
            ClassicScheme::S0 => "S0 (no loss)".into(),
            ClassicScheme::T(Role::White) => "T_White (only White at risk)".into(),
            ClassicScheme::T(Role::Black) => "T_Black (only Black at risk)".into(),
            ClassicScheme::C1 => "C1 (one crash)".into(),
            ClassicScheme::S1 => "S1 (one faulty process)".into(),
            ClassicScheme::R1 => "R1 = Γω (one loss per round)".into(),
            ClassicScheme::S2 => "S2 = Σω (anything goes)".into(),
            ClassicScheme::FairGamma => "Fair(Γω)".into(),
            ClassicScheme::AlmostFair(r) => format!("Γω \\ {{drop({r})^ω}}"),
            ClassicScheme::GammaMinus(ex) => {
                let list: Vec<String> = ex.iter().map(|s| s.to_string()).collect();
                format!("Γω \\ {{{}}}", list.join(", "))
            }
            ClassicScheme::AvoidPrefix(w0) => format!("Γω avoiding prefix {w0}"),
            ClassicScheme::TotalBudget(k) => format!("B{k} (at most {k} total losses)"),
            ClassicScheme::SigmaAvoidPrefix(w0) => format!("Σω avoiding prefix {w0}"),
            ClassicScheme::SigmaTotalBudget(k) => {
                format!("ΣB{k} (at most {k} lossy rounds, double omission allowed)")
            }
        }
    }
}

/// Does `w` drop messages only from `role` (i.e. `w ∈ {Full, drop(role)}^ω`)?
fn scenario_only_drops(w: &Scenario, role: Role) -> bool {
    let ok = |a: Letter| a == Letter::Full || a == GammaLetter::dropping(role).to_letter();
    w.lasso_prefix().iter().all(ok) && w.lasso_cycle().iter().all(ok)
}

/// Is `w` a crash scenario: `Full^a · drop(x)^ω` for some process `x`, or
/// all-Full (Example II.10 ∩ Γ^ω as written in Example II.11 line 4)?
fn is_crash_scenario(w: &Scenario) -> bool {
    let c = w.canonicalize();
    if *w == Scenario::constant(Letter::Full) {
        return true;
    }
    // Cycle must be a single constant drop letter; prefix all Full.
    let cycle_ok = c.lasso_cycle().len() == 1
        && matches!(
            c.lasso_cycle().get(0),
            Some(Letter::DropWhite) | Some(Letter::DropBlack)
        );
    cycle_ok && c.lasso_prefix().iter().all(|a| a == Letter::Full)
}

/// Is `u` a prefix of a crash scenario: `Full^a` or `Full^a·drop(x)^b`?
fn is_crash_prefix(u: &Word) -> bool {
    let mut i = 0;
    while i < u.len() && u.get(i) == Some(Letter::Full) {
        i += 1;
    }
    if i == u.len() {
        return true;
    }
    let drop = u.get(i).unwrap();
    if drop != Letter::DropWhite && drop != Letter::DropBlack {
        return false;
    }
    (i..u.len()).all(|j| u.get(j) == Some(drop))
}

/// Constructors mirroring the paper's numbered environments.
pub mod classic {
    use super::*;

    /// Environment 1: `S0 = {Full^ω}`.
    pub fn s0() -> ClassicScheme {
        ClassicScheme::S0
    }

    /// Environment 2: messengers from White may be captured.
    pub fn t_white() -> ClassicScheme {
        ClassicScheme::T(Role::White)
    }

    /// Environment 3: messengers from Black may be captured.
    pub fn t_black() -> ClassicScheme {
        ClassicScheme::T(Role::Black)
    }

    /// Environment 4: `C1`, the crash-prone model.
    pub fn c1() -> ClassicScheme {
        ClassicScheme::C1
    }

    /// Environment 5: `S1`, at most one faulty process.
    pub fn s1() -> ClassicScheme {
        ClassicScheme::S1
    }

    /// Environment 6: `R1 = Γ^ω`, at most one loss per round.
    pub fn r1() -> ClassicScheme {
        ClassicScheme::R1
    }

    /// Environment 7: `S2 = Σ^ω`, any messenger may be captured.
    pub fn s2() -> ClassicScheme {
        ClassicScheme::S2
    }

    /// Example II.8 within Γ: all fair scenarios.
    pub fn fair_gamma() -> ClassicScheme {
        ClassicScheme::FairGamma
    }

    /// Corollary IV.1: `Γ^ω \ {DropBlack^ω}`.
    pub fn almost_fair() -> ClassicScheme {
        ClassicScheme::AlmostFair(Role::Black)
    }

    /// The classic total-omission budget: at most `k` messages lost over
    /// the whole execution.
    pub fn total_budget(k: usize) -> ClassicScheme {
        ClassicScheme::TotalBudget(k)
    }

    /// The seven environments of Section II-A2 in order.
    pub fn seven_environments() -> Vec<ClassicScheme> {
        vec![s0(), t_white(), t_black(), c1(), s1(), r1(), s2()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc(s: &str) -> Scenario {
        s.parse().unwrap()
    }

    #[test]
    fn s0_contains_only_all_full() {
        let s0 = classic::s0();
        assert!(s0.contains(&sc("(-)")));
        assert!(s0.contains(&sc("--(--)")));
        assert!(!s0.contains(&sc("w(-)")));
        assert!(s0.allows_prefix(&"---".parse().unwrap()));
        assert!(!s0.allows_prefix(&"-w".parse().unwrap()));
    }

    #[test]
    fn t_white_membership() {
        let t = classic::t_white();
        assert!(t.contains(&sc("(-)")));
        assert!(t.contains(&sc("(w)")));
        assert!(t.contains(&sc("w-w(-w)")));
        assert!(!t.contains(&sc("(b)")));
        assert!(!t.contains(&sc("w(b-)")));
        assert!(!t.contains(&sc("(x)")));
    }

    #[test]
    fn c1_membership() {
        let c1 = classic::c1();
        assert!(c1.contains(&sc("(-)")), "no crash at all");
        assert!(c1.contains(&sc("(w)")), "White crashes at round 0");
        assert!(c1.contains(&sc("---(b)")), "Black crashes at round 3");
        assert!(
            !c1.contains(&sc("w-(w)")),
            "recovered then re-lost is not a crash"
        );
        assert!(!c1.contains(&sc("(wb)")), "alternating loss is not a crash");
        assert!(!c1.contains(&sc("-(-w)")), "intermittent is not a crash");
    }

    #[test]
    fn c1_prefixes() {
        let c1 = classic::c1();
        for good in ["ε", "---", "ww", "--bbb", "w"] {
            assert!(c1.allows_prefix(&good.parse().unwrap()), "{good}");
        }
        for bad in ["w-", "wb", "-b-", "bw"] {
            assert!(!c1.allows_prefix(&bad.parse().unwrap()), "{bad}");
        }
    }

    #[test]
    fn s1_is_union_of_both_t() {
        let s1 = classic::s1();
        assert!(s1.contains(&sc("(w)")));
        assert!(s1.contains(&sc("(b)")));
        assert!(s1.contains(&sc("(-)")));
        assert!(!s1.contains(&sc("(wb)")), "both processes lose");
        assert!(s1.allows_prefix(&"ww--w".parse().unwrap()));
        assert!(!s1.allows_prefix(&"wb".parse().unwrap()));
    }

    #[test]
    fn r1_is_all_gamma() {
        let r1 = classic::r1();
        assert!(r1.contains(&sc("(wb)")));
        assert!(r1.contains(&sc("(-)")));
        assert!(!r1.contains(&sc("(x)")));
        assert!(r1.allows_prefix(&"wbwb".parse().unwrap()));
        assert!(!r1.allows_prefix(&"x".parse().unwrap()));
    }

    #[test]
    fn s2_contains_everything() {
        let s2 = classic::s2();
        assert!(s2.contains(&sc("(x)")));
        assert!(s2.contains(&sc("(-)")));
        assert!(s2.allows_prefix(&"xxxx".parse().unwrap()));
    }

    #[test]
    fn fair_gamma_membership() {
        let f = classic::fair_gamma();
        assert!(f.contains(&sc("(-)")));
        assert!(f.contains(&sc("(wb)")));
        assert!(!f.contains(&sc("(w)")));
        assert!(!f.contains(&sc("--(b)")));
        // Every Γ-prefix is viable: extend with Full^ω.
        assert!(f.allows_prefix(&"wwww".parse().unwrap()));
    }

    #[test]
    fn almost_fair_excludes_exactly_one() {
        let af = classic::almost_fair();
        assert!(!af.contains(&sc("(b)")));
        assert!(!af.contains(&sc("b(bb)")), "same scenario, other lasso");
        assert!(af.contains(&sc("(w)")));
        assert!(
            af.contains(&sc("-(b)")),
            "crash after one clean round is kept"
        );
        assert!(af.contains(&sc("(-)")));
    }

    #[test]
    fn gamma_minus_excludes_list() {
        let l = ClassicScheme::GammaMinus(vec![sc("(w)"), sc("(b)")]);
        assert!(!l.contains(&sc("(w)")));
        assert!(!l.contains(&sc("w(w)")), "semantic equality applies");
        assert!(l.contains(&sc("-(w)")));
        assert!(l.contains(&sc("(-)")));
        assert!(l.allows_prefix(&"wwww".parse().unwrap()));
    }

    #[test]
    fn avoid_prefix_scheme() {
        let w0: Word = "wb".parse().unwrap();
        let l = ClassicScheme::AvoidPrefix(w0);
        assert!(!l.contains(&sc("wb(-)")));
        assert!(l.contains(&sc("w-(b)")));
        assert!(l.contains(&sc("(-)")));
        assert!(!l.allows_prefix(&"wbw".parse().unwrap()));
        assert!(l.allows_prefix(&"w-".parse().unwrap()));
        assert!(
            l.allows_prefix(&"w".parse().unwrap()),
            "shorter than w0 is fine"
        );
    }

    #[test]
    fn total_budget_membership() {
        let b2 = classic::total_budget(2);
        assert!(b2.contains(&sc("(-)")), "zero losses");
        assert!(b2.contains(&sc("w(-)")));
        assert!(b2.contains(&sc("wb(-)")));
        assert!(b2.contains(&sc("-w-b-(-)")), "two losses spread out");
        assert!(!b2.contains(&sc("wbw(-)")), "three losses");
        assert!(!b2.contains(&sc("(w)")), "infinitely many losses");
        assert!(!b2.contains(&sc("(x)")), "outside Γ");
        // Budget 0 is exactly S0.
        let b0 = classic::total_budget(0);
        assert!(b0.contains(&sc("(-)")));
        assert!(!b0.contains(&sc("w(-)")));
    }

    #[test]
    fn total_budget_prefixes() {
        let b1 = classic::total_budget(1);
        assert!(b1.allows_prefix(&"---".parse().unwrap()));
        assert!(b1.allows_prefix(&"-w-".parse().unwrap()));
        assert!(!b1.allows_prefix(&"wb".parse().unwrap()));
        assert!(!b1.allows_prefix(&"x".parse().unwrap()));
    }

    #[test]
    fn sigma_avoid_prefix_membership() {
        let l = ClassicScheme::SigmaAvoidPrefix("x".parse().unwrap());
        assert!(!l.contains(&sc("x(-)")));
        assert!(
            l.contains(&sc("(x)").suffix(0).prepend(&"-".parse().unwrap())),
            "-x… allowed"
        );
        assert!(l.contains(&sc("(-)")));
        assert!(l.contains(&sc("w(x)")), "double omission later is fine");
        assert!(!l.allows_prefix(&"xw".parse().unwrap()));
        assert!(l.allows_prefix(&"wx".parse().unwrap()));
        assert!(!l.is_gamma_subset());
    }

    #[test]
    fn sigma_total_budget_membership() {
        let l = ClassicScheme::SigmaTotalBudget(1);
        assert!(l.contains(&sc("(-)")));
        assert!(l.contains(&sc("x(-)")), "one double-omission round");
        assert!(l.contains(&sc("w(-)")));
        assert!(!l.contains(&sc("xw(-)")), "two lossy rounds");
        assert!(!l.contains(&sc("(x)")));
        assert!(l.allows_prefix(&"-x-".parse().unwrap()));
        assert!(!l.allows_prefix(&"xx".parse().unwrap()));
        assert!(!l.is_gamma_subset());
    }

    #[test]
    fn seven_environments_are_the_papers_list() {
        let envs = classic::seven_environments();
        assert_eq!(envs.len(), 7);
        assert_eq!(envs[0], ClassicScheme::S0);
        assert_eq!(envs[6], ClassicScheme::S2);
    }

    #[test]
    fn gamma_subset_flags() {
        assert!(classic::r1().is_gamma_subset());
        assert!(!classic::s2().is_gamma_subset());
    }

    #[test]
    fn membership_implies_prefix_allowed() {
        // Soundness link between the two queries, spot-checked.
        let schemes = classic::seven_environments();
        let scenarios = ["(-)", "(w)", "(b)", "--(w)", "(wb)", "w(b)"];
        for l in &schemes {
            for s in scenarios {
                let w = sc(s);
                if l.contains(&w) {
                    for r in 0..6 {
                        assert!(
                            l.allows_prefix(&w.prefix_word(r)),
                            "{} should allow prefixes of {}",
                            l.name(),
                            w
                        );
                    }
                }
            }
        }
    }
}
