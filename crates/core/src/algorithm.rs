//! The consensus algorithm `A_w` (Algorithm 1 of the paper) and friends.
//!
//! `A_w` is a *meta*-algorithm: it is parameterized by one scenario
//! `w ∈ Γ^ω \ L` that the fault environment `L` can never produce.
//! Each process maintains a "phantom index" that tracks, via the exchanged
//! messages, the index of the actual scenario being played
//! (Proposition III.12: the two phantom indexes always frame `ind(v_r)` —
//! the smaller of the two *is* `ind(v_r)`, and they differ by exactly 1).
//! A process halts as soon as its phantom index drifts at distance ≥ 2 from
//! `ind(w_r)`: from that moment the actual scenario is pinned to one side
//! of the forbidden `w`, both phantom indexes are on the same side, and the
//! side determines who imposes its initial value.
//!
//! Concretely (our δ orientation):
//! * White starts with phantom index 1, Black with 0;
//! * on receiving the peer's index `j`, a process updates `i ← 2j + i`;
//!   on receiving `null`, `i ← 3i`;
//! * on halting, White outputs its own `init` iff its index ended
//!   *strictly above* `ind(w_r)`, Black iff its index ended *at or below*;
//!   otherwise the process outputs the last initial value it received from
//!   its peer.
//!
//! The asymmetric tie rule only matters for the early-stopping variant
//! (Proposition III.15), where a process may stop exactly on `ind(w_r)`;
//! ties always belong to the larger phantom index, so they resolve to the
//! below side. Exhaustive executions in this module's tests check the rule.
//!
//! **Witness hygiene.** When the environment `L` misses a special pair,
//! `A_w` must be parameterized with the *upper* member of the pair (the one
//! whose index-adjacent partner sits below it). With the lower member, a
//! process that halts first leaves its peer receiving `null` forever while
//! the peer's phantom index tracks the partner-above chain at distance 1 —
//! it never crosses the halting threshold, violating Termination. The
//! selection in [`crate::theorem`] always returns the upper member.

use crate::engine::TwoProcessProtocol;
use crate::index::IndexTracker;
use crate::letter::Role;
use crate::scenario::Scenario;
use minobs_bigint::UBig;

/// The message exchanged by [`AwProcess`]: the sender's initial value and
/// current phantom index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AwMessage {
    /// The sender's initial value.
    pub init: bool,
    /// The sender's phantom index.
    pub ind: UBig,
}

/// One process of the paper's Algorithm 1, parameterized by the forbidden
/// scenario `w`.
#[derive(Debug, Clone)]
pub struct AwProcess {
    role: Role,
    init: bool,
    init_other: Option<bool>,
    /// This process's phantom index.
    ind: UBig,
    /// Tracks `ind(w_r)` for the parameter scenario `w`.
    w: Scenario,
    w_tracker: IndexTracker,
    round: usize,
    decision: Option<bool>,
    /// Round bound for the early-stopping variant; `None` = unbounded.
    round_cap: Option<usize>,
    /// Set when the process had to decide without ever hearing its peer
    /// *and* the decision rule asked for the peer's value — cannot happen
    /// when `w ∉ L` (see the Validity argument in Section III-E); recorded
    /// rather than panicking so experiments can probe misuse.
    pub decided_blind: bool,
}

impl AwProcess {
    /// Builds a process of `A_w`.
    ///
    /// # Panics
    /// Panics when `w` is not a `Γ`-scenario — Algorithm 1 is only defined
    /// for parameters in `Γ^ω`.
    pub fn new(role: Role, init: bool, w: Scenario) -> Self {
        assert!(w.is_gamma(), "A_w requires a parameter scenario in Γ^ω");
        AwProcess {
            role,
            init,
            init_other: None,
            ind: match role {
                Role::White => UBig::one(),
                Role::Black => UBig::zero(),
            },
            w,
            w_tracker: IndexTracker::new(),
            round: 0,
            decision: None,
            round_cap: None,
            decided_blind: false,
        }
    }

    /// The early-stopping variant of Proposition III.15: additionally halts
    /// and decides at round `p` (for schemes whose prefixes exclude some
    /// word of `Γ^p`).
    pub fn with_round_cap(mut self, p: usize) -> Self {
        self.round_cap = Some(p);
        self
    }

    /// The current phantom index (exposed for invariant checks).
    pub fn phantom_index(&self) -> &UBig {
        &self.ind
    }

    /// The number of completed rounds.
    pub fn round(&self) -> usize {
        self.round
    }

    fn decide(&mut self) {
        // ind(w_r) at the current round, maintained incrementally.
        //
        // Side rule: the run ended either above or below the forbidden
        // index trajectory; above, White imposes its value, below, Black
        // does. Ties (phantom == ind(w_r)) arise only in the early-stopping
        // variant, always at the *larger* phantom (the smaller one equals
        // ind(v_p) ≠ ind(w_p) by bijectivity of the index), and the actual
        // scenario then sits below w — so ties resolve to the below side.
        let ind_w = self.w_tracker.value();
        let own_side = match self.role {
            Role::White => self.ind > *ind_w,
            Role::Black => self.ind <= *ind_w,
        };
        self.decision = Some(if own_side {
            self.init
        } else {
            match self.init_other {
                Some(v) => v,
                None => {
                    self.decided_blind = true;
                    self.init
                }
            }
        });
    }
}

impl TwoProcessProtocol for AwProcess {
    type Msg = AwMessage;

    fn role(&self) -> Role {
        self.role
    }

    fn input(&self) -> bool {
        self.init
    }

    fn outgoing(&self) -> Option<AwMessage> {
        Some(AwMessage {
            init: self.init,
            ind: self.ind.clone(),
        })
    }

    fn advance(&mut self, incoming: Option<AwMessage>) {
        match incoming {
            Some(msg) => {
                // ind ← 2·msg.ind + ind.
                self.ind = msg.ind.mul_small(2).add_ref(&self.ind);
                self.init_other = Some(msg.init);
            }
            None => {
                // Message was lost: ind ← 3·ind.
                self.ind = self.ind.mul_small(3);
            }
        }
        let a = self
            .w
            .letter_at(self.round)
            .to_gamma()
            .expect("parameter checked in new()");
        self.w_tracker.push(a);
        self.round += 1;

        // While-loop guard of Algorithm 1: continue while
        // |ind - ind(w_r)| ≤ 1 (and, for the early-stopping variant,
        // r < p).
        let dist = self.ind.abs_diff(self.w_tracker.value());
        let drifted = dist > UBig::one();
        let capped = self.round_cap.is_some_and(|p| self.round >= p);
        if drifted || capped {
            self.decide();
        }
    }

    fn decision(&self) -> Option<bool> {
        self.decision
    }

    fn halted(&self) -> bool {
        self.decision.is_some()
    }
}

/// The early-stopping `A_w` of Proposition III.15 (an [`AwProcess`] with a
/// round cap `p`).
pub type EarlyStoppingAw = AwProcess;

/// The intuitive algorithm of Corollary IV.1 for the almost-fair scheme
/// `F' = Γ^ω \ {DropBlack^ω}`:
///
/// * White sends its initial value until it *receives* a message from
///   Black, then halts and outputs **Black's** initial value;
/// * Black sends its initial value until it receives `null`, then halts
///   and outputs **its own** initial value.
///
/// Corollary IV.1 observes this is exactly `A_w` for `w = DropBlack^ω`.
#[derive(Debug, Clone)]
pub struct IntuitiveAlmostFair {
    role: Role,
    init: bool,
    decision: Option<bool>,
}

impl IntuitiveAlmostFair {
    /// Builds a process of the intuitive almost-fair algorithm.
    pub fn new(role: Role, init: bool) -> Self {
        IntuitiveAlmostFair {
            role,
            init,
            decision: None,
        }
    }
}

impl TwoProcessProtocol for IntuitiveAlmostFair {
    type Msg = bool;

    fn role(&self) -> Role {
        self.role
    }

    fn input(&self) -> bool {
        self.init
    }

    fn outgoing(&self) -> Option<bool> {
        Some(self.init)
    }

    fn advance(&mut self, incoming: Option<bool>) {
        match (self.role, incoming) {
            (Role::White, Some(peer_init)) => self.decision = Some(peer_init),
            (Role::White, None) => {}
            (Role::Black, Some(_)) => {}
            (Role::Black, None) => self.decision = Some(self.init),
        }
    }

    fn decision(&self) -> Option<bool> {
        self.decision
    }

    fn halted(&self) -> bool {
        self.decision.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_two_process, Verdict};
    use crate::index::ind;
    use crate::scenario::Scenario;
    use crate::word::GammaWord;

    fn sc(s: &str) -> Scenario {
        s.parse().unwrap()
    }

    /// Runs A_w with both processes and all four input combinations under
    /// `scenario`; asserts consensus within `budget` rounds.
    fn assert_aw_consensus(w: &Scenario, scenario: &Scenario, budget: usize) {
        for wi in [false, true] {
            for bi in [false, true] {
                let mut white = AwProcess::new(Role::White, wi, w.clone());
                let mut black = AwProcess::new(Role::Black, bi, w.clone());
                let out = run_two_process(&mut white, &mut black, scenario, budget);
                assert!(
                    out.verdict.is_consensus(),
                    "A_{w} under {scenario} inputs ({wi},{bi}): {:?}",
                    out.verdict
                );
                assert!(!white.decided_blind && !black.decided_blind);
            }
        }
    }

    #[test]
    fn aw_rejects_non_gamma_parameter() {
        let res = std::panic::catch_unwind(|| AwProcess::new(Role::White, true, sc("(x)")));
        assert!(res.is_err());
    }

    #[test]
    fn aw_solves_s0_with_any_forbidden_word() {
        // S0 = {Full^ω}; the witness w = DropWhite^ω works.
        assert_aw_consensus(&sc("(w)"), &sc("(-)"), 16);
    }

    #[test]
    fn aw_solves_almost_fair_scenarios() {
        // w = DropBlack^ω forbidden; every other Γ-scenario must reach
        // consensus (Corollary IV.1).
        let w = sc("(b)");
        for s in [
            "(-)", "(w)", "(wb)", "b(w)", "bb(-)", "-(b)", "w(b)", "bw(b)",
        ] {
            assert_aw_consensus(&w, &sc(s), 64);
        }
    }

    #[test]
    fn aw_exhaustive_over_short_lassos() {
        // For each forbidden fair witness w, run A_w over every lasso
        // scenario (≠ w and not forming a trapped unfair pair) — here w is
        // fair so every unfair-or-different scenario terminates.
        let w = sc("(-)"); // forbidden: the all-delivery scenario
        for s in crate::scenario::enumerate_gamma_lassos(2, 2) {
            if s == w {
                continue;
            }
            assert_aw_consensus(&w, &s, 96);
        }
    }

    #[test]
    fn aw_does_not_terminate_on_the_forbidden_scenario() {
        // Running A_w on w itself must never halt (the index difference
        // stays ≤ 1 forever) — that is the point: w ∉ L.
        let w = sc("(b)");
        let mut white = AwProcess::new(Role::White, true, w.clone());
        let mut black = AwProcess::new(Role::Black, false, w.clone());
        let out = run_two_process(&mut white, &mut black, &w, 200);
        assert_eq!(out.verdict, Verdict::Undecided);
        assert_eq!(out.rounds, 200);
    }

    #[test]
    fn phantom_indexes_satisfy_proposition_iii_12() {
        // While no process has halted: |ind_w - ind_b| = 1 and
        // min(ind_w, ind_b) = ind(v_r).
        let w = sc("(b)"); // forbidden word, keeps the run long on fair v
        let v = sc("(wb-)");
        let mut white = AwProcess::new(Role::White, false, w.clone());
        let mut black = AwProcess::new(Role::Black, true, w.clone());
        let mut v_tracker = IndexTracker::new();
        for r in 0..12 {
            if white.halted() || black.halted() {
                break;
            }
            let letter = v.letter_at(r);
            let from_white = white.outgoing();
            let from_black = black.outgoing();
            let to_white = from_black.filter(|_| letter.delivers_from(Role::Black));
            let to_black = from_white.filter(|_| letter.delivers_from(Role::White));
            white.advance(to_white);
            black.advance(to_black);
            v_tracker.push(letter.to_gamma().unwrap());

            let iw = white.phantom_index();
            let ib = black.phantom_index();
            assert_eq!(iw.abs_diff(ib), UBig::one(), "round {r}");
            let min = if iw < ib { iw } else { ib };
            assert_eq!(min, v_tracker.value(), "round {r}");
        }
    }

    #[test]
    fn early_stopping_matches_round_bound() {
        // S1 has p = 2 (Γ² ⊄ Pref(S1)): cap A_w at 2 rounds; every S1
        // scenario must reach consensus in exactly ≤ 2 rounds.
        // Forbidden word w0·(anything): w0 = "wb" ∉ Pref(S1), extended
        // arbitrarily — use wb(b).
        let w = sc("wb(b)");
        let s1_scenarios = [
            "(-)", "(w)", "(b)", "w(-)", "b(-)", "-(w)", "-(b)", "ww(-)", "bb(b)",
        ];
        for s in s1_scenarios {
            for wi in [false, true] {
                for bi in [false, true] {
                    let mut white = AwProcess::new(Role::White, wi, w.clone()).with_round_cap(2);
                    let mut black = AwProcess::new(Role::Black, bi, w.clone()).with_round_cap(2);
                    let out = run_two_process(&mut white, &mut black, &sc(s), 16);
                    assert!(
                        out.verdict.is_consensus(),
                        "early A_w under {s} inputs ({wi},{bi}): {:?}",
                        out.verdict
                    );
                    assert!(
                        out.rounds <= 2,
                        "halts within p=2 rounds, got {}",
                        out.rounds
                    );
                }
            }
        }
    }

    #[test]
    fn early_stopping_exhaustive_c1() {
        // C1 (crash model): p = 2 as well ("wb" is not a crash prefix).
        // All crash scenarios with crash point ≤ 3 decide in ≤ 2 rounds.
        let w = sc("wb(b)");
        for s in ["(-)", "(w)", "(b)", "-(w)", "-(b)", "--(w)", "--(b)"] {
            for wi in [false, true] {
                for bi in [false, true] {
                    let mut white = AwProcess::new(Role::White, wi, w.clone()).with_round_cap(2);
                    let mut black = AwProcess::new(Role::Black, bi, w.clone()).with_round_cap(2);
                    let out = run_two_process(&mut white, &mut black, &sc(s), 16);
                    assert!(
                        out.verdict.is_consensus(),
                        "{s} ({wi},{bi}): {:?}",
                        out.verdict
                    );
                }
            }
        }
    }

    #[test]
    fn intuitive_almost_fair_agrees_with_aw() {
        // Corollary IV.1: the intuitive algorithm solves Γ^ω \ {(b)^ω}; on
        // every scenario it must reach consensus, and its round count
        // matches A_{(b)ω} up to the halting convention.
        for s in crate::scenario::enumerate_gamma_lassos(2, 2) {
            if s == sc("(b)") {
                continue;
            }
            for wi in [false, true] {
                for bi in [false, true] {
                    let mut white = IntuitiveAlmostFair::new(Role::White, wi);
                    let mut black = IntuitiveAlmostFair::new(Role::Black, bi);
                    let out = run_two_process(&mut white, &mut black, &s, 96);
                    assert!(
                        out.verdict.is_consensus(),
                        "intuitive under {s} ({wi},{bi}): {:?}",
                        out.verdict
                    );
                }
            }
        }
    }

    #[test]
    fn corollary_iv_1_intuitive_equals_aw_b_omega() {
        // Corollary IV.1: "A_{▷ω} is exactly what you would propose
        // intuitively" — made precise: on every member of the almost-fair
        // scheme and all input pairs, both algorithms decide the same
        // value (Black's initial value), and their round counts differ by
        // at most one (the intuitive algorithm's halt detection saves at
        // most one round of bookkeeping).
        let w = sc("(b)");
        for s in crate::scenario::enumerate_gamma_lassos(2, 2) {
            if s == w {
                continue;
            }
            for wi in [false, true] {
                for bi in [false, true] {
                    let mut aw_w = AwProcess::new(Role::White, wi, w.clone());
                    let mut aw_b = AwProcess::new(Role::Black, bi, w.clone());
                    let aw_out = run_two_process(&mut aw_w, &mut aw_b, &s, 256);

                    let mut in_w = IntuitiveAlmostFair::new(Role::White, wi);
                    let mut in_b = IntuitiveAlmostFair::new(Role::Black, bi);
                    let in_out = run_two_process(&mut in_w, &mut in_b, &s, 256);

                    assert_eq!(aw_out.verdict, in_out.verdict, "{s} ({wi},{bi})");
                    assert_eq!(
                        aw_out.verdict,
                        Verdict::Consensus(bi),
                        "{s}: Black dictates"
                    );
                    assert!(
                        aw_out.rounds.abs_diff(in_out.rounds) <= 1,
                        "{s} ({wi},{bi}): rounds {} vs {}",
                        aw_out.rounds,
                        in_out.rounds
                    );
                }
            }
        }
    }

    #[test]
    fn intuitive_never_halts_on_excluded_scenario() {
        let mut white = IntuitiveAlmostFair::new(Role::White, true);
        let mut black = IntuitiveAlmostFair::new(Role::Black, false);
        let out = run_two_process(&mut white, &mut black, &sc("(b)"), 128);
        // Black keeps hearing White and never gets null; White never hears
        // Black. Black never halts; White never halts. Undecided forever.
        assert_eq!(out.verdict, Verdict::Undecided);
    }

    #[test]
    fn aw_validity_on_equal_inputs_all_scenarios() {
        let w = sc("(-)");
        for s in crate::scenario::enumerate_gamma_lassos(1, 2) {
            if s == w {
                continue;
            }
            for input in [false, true] {
                let mut white = AwProcess::new(Role::White, input, w.clone());
                let mut black = AwProcess::new(Role::Black, input, w.clone());
                let out = run_two_process(&mut white, &mut black, &s, 96);
                assert_eq!(out.verdict, Verdict::Consensus(input), "{s} input {input}");
            }
        }
    }

    #[test]
    fn aw_round_complexity_tracks_divergence_of_w_and_v() {
        // The processes halt roughly when ind(v_r) and ind(w_r) separate by
        // ≥ 2 (Lemma III.13) — sanity check the mechanism: on v = (-) with
        // w = (b), divergence is immediate (ind(-)=1, ind(b)=2, then
        // 4 vs 8): expect termination within a few rounds.
        let w = sc("(b)");
        let v = sc("(-)");
        let mut white = AwProcess::new(Role::White, true, w.clone());
        let mut black = AwProcess::new(Role::Black, true, w.clone());
        let out = run_two_process(&mut white, &mut black, &v, 32);
        assert!(out.verdict.is_consensus());
        assert!(
            out.rounds <= 4,
            "expected fast divergence, took {}",
            out.rounds
        );
    }

    #[test]
    fn exhaustive_prefix_executions_respect_agreement() {
        // Drive A_w over *every* Γ-word of length 5 extended periodically;
        // all runs that decide must decide consistently.
        let w = sc("(wb)");
        for prefix in GammaWord::enumerate_all(4) {
            let scenario = Scenario::new(prefix.to_word(), "b-".parse().unwrap());
            // ^ arbitrary fair continuation
            for wi in [false, true] {
                for bi in [false, true] {
                    let mut white = AwProcess::new(Role::White, wi, w.clone());
                    let mut black = AwProcess::new(Role::Black, bi, w.clone());
                    let out = run_two_process(&mut white, &mut black, &scenario, 128);
                    assert!(
                        out.verdict.is_consensus(),
                        "A_w {w} on {scenario} ({wi},{bi}): {:?}",
                        out.verdict
                    );
                }
            }
        }
    }

    #[test]
    fn lower_pair_member_as_witness_traps_the_peer() {
        // Regression for the witness-hygiene rule documented in the module
        // docs: w = -(w) is the LOWER member of the special pair
        // ( -(w), b(w) ). Running A_w with it on v = bw(-) makes White halt
        // spuriously at round 1 while Black's phantom index tracks the
        // partner chain forever: Termination fails.
        let w = sc("-(w)");
        let v = sc("bw(-)");
        let mut white = AwProcess::new(Role::White, true, w.clone());
        let mut black = AwProcess::new(Role::Black, false, w.clone());
        let out = run_two_process(&mut white, &mut black, &v, 200);
        assert_eq!(out.verdict, Verdict::Undecided, "the trap is real");
        // The UPPER member b(w) is a safe witness for the same pair (its
        // partner -(w) is also excluded from L, so we need not run on it):
        let w = sc("b(w)");
        for s in ["bw(-)", "(-)", "(wb)", "w(-)", "bb(w)"] {
            assert_aw_consensus(&w, &sc(s), 200);
        }
    }

    #[test]
    fn upper_witness_solves_gamma_minus_pair_scheme() {
        // L = Γ^ω \ { -(w), b(w) } is solvable (condition III.8.ii); the
        // upper member b(w) parameterizes a correct A_w for every lasso in
        // L from the small universe.
        let w = sc("b(w)");
        let excluded = [sc("-(w)"), sc("b(w)")];
        for s in crate::scenario::enumerate_gamma_lassos(2, 2) {
            if excluded.contains(&s) {
                continue;
            }
            assert_aw_consensus(&w, &s, 300);
        }
    }

    #[test]
    fn corollary_iii_5_confused_process_has_identical_state() {
        // For adjacent-index words v, v' (ind(v') = ind(v) + 1), the
        // process named by confused_process(parity of ind(v)) ends in the
        // same state under both — checked on A_w's actual state (phantom
        // index and received init), exhaustively for r ≤ 4.
        use crate::index::{confused_process, index_successor};
        let w = sc("(b)"); // any Γ parameter; state evolution is what matters
        for r in 1..=4usize {
            for v in GammaWord::enumerate_all(r) {
                let Some(v2) = index_successor(&v) else {
                    continue;
                };
                let even = ind(&v).is_even();
                let confused = confused_process(even);

                let run = |word: &GammaWord| -> (
                    minobs_bigint::UBig,
                    Option<bool>,
                    minobs_bigint::UBig,
                    Option<bool>,
                ) {
                    let mut white = AwProcess::new(Role::White, true, w.clone());
                    let mut black = AwProcess::new(Role::Black, false, w.clone());
                    for a in word.iter() {
                        let to_white = a
                            .delivers_from(Role::Black)
                            .then(|| black.outgoing().unwrap());
                        let to_black = a
                            .delivers_from(Role::White)
                            .then(|| white.outgoing().unwrap());
                        white.advance(to_white);
                        black.advance(to_black);
                    }
                    (
                        white.phantom_index().clone(),
                        white.init_other,
                        black.phantom_index().clone(),
                        black.init_other,
                    )
                };
                let (w1, wo1, b1, bo1) = run(&v);
                let (w2, wo2, b2, bo2) = run(&v2);
                match confused {
                    Role::White => {
                        assert_eq!(w1, w2, "White state differs on {v}/{v2}");
                        assert_eq!(wo1, wo2, "White init_other differs on {v}/{v2}");
                    }
                    Role::Black => {
                        assert_eq!(b1, b2, "Black state differs on {v}/{v2}");
                        assert_eq!(bo1, bo2, "Black init_other differs on {v}/{v2}");
                    }
                }
            }
        }
    }

    #[test]
    fn broken_tie_rule_is_caught_by_the_auditor() {
        // Failure injection: a subtly wrong variant of A_w (White's tie
        // rule flipped to ≥) disagrees on a concrete early-stopping run —
        // and the engine's audit catches it. This guards the exact
        // asymmetry documented in the module docs.
        #[derive(Debug, Clone)]
        struct WrongTieAw(AwProcess);
        impl TwoProcessProtocol for WrongTieAw {
            type Msg = AwMessage;
            fn role(&self) -> Role {
                self.0.role()
            }
            fn input(&self) -> bool {
                self.0.input()
            }
            fn outgoing(&self) -> Option<AwMessage> {
                self.0.outgoing()
            }
            fn advance(&mut self, incoming: Option<AwMessage>) {
                let before = self.0.halted();
                self.0.advance(incoming);
                // Sabotage: on the deciding step, recompute White's side
                // with the non-strict comparison.
                if !before && self.0.halted() && self.0.role() == Role::White {
                    let ind_w = self.0.w_tracker.value().clone();
                    if *self.0.phantom_index() == ind_w {
                        // The tie: the wrong rule outputs init instead of
                        // initother.
                        self.0.decision = Some(self.0.input());
                    }
                }
            }
            fn decision(&self) -> Option<bool> {
                self.0.decision()
            }
            fn halted(&self) -> bool {
                self.0.halted()
            }
        }

        // Find a capped configuration where the tie actually occurs and
        // inputs differ; the correct A_w agrees everywhere, the sabotaged
        // one must disagree somewhere.
        let mut saw_disagreement = false;
        for w0 in GammaWord::enumerate_all(2) {
            let w = Scenario::new(w0.to_word(), "b".parse().unwrap());
            for s in crate::scenario::enumerate_gamma_lassos(2, 1) {
                if s.prefix_word(2).to_gamma() == Some(w0.clone()) {
                    continue; // scenario must avoid the forbidden prefix
                }
                let mut white =
                    WrongTieAw(AwProcess::new(Role::White, true, w.clone()).with_round_cap(2));
                let mut black = AwProcess::new(Role::Black, false, w.clone()).with_round_cap(2);
                let out = run_two_process(&mut white, &mut black, &s, 16);
                if matches!(out.verdict, Verdict::Disagreement { .. }) {
                    saw_disagreement = true;
                }
            }
        }
        assert!(
            saw_disagreement,
            "the flipped tie rule must be observably wrong somewhere"
        );
    }

    #[test]
    fn index_tracker_agrees_with_ind_inside_aw() {
        let w = sc("w-b(wb)");
        let mut p = AwProcess::new(Role::White, true, w.clone());
        for r in 0..10 {
            p.advance(None);
            let expect = ind(&w.prefix_word(r + 1).to_gamma().unwrap());
            assert_eq!(*p.w_tracker.value(), expect, "round {r}");
            if p.halted() {
                break;
            }
        }
    }
}
