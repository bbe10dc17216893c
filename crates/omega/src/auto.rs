//! Deterministic ω-automata over small integer alphabets.

use std::collections::BTreeSet;

/// Acceptance condition of one deterministic automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Acceptance {
    /// Accept iff the run visits the marked set infinitely often.
    Buchi(BTreeSet<usize>),
    /// Accept iff the run visits the marked set only finitely often.
    CoBuchi(BTreeSet<usize>),
}

impl Acceptance {
    /// The complement acceptance (exact for deterministic automata).
    pub fn complement(&self) -> Acceptance {
        match self {
            Acceptance::Buchi(f) => Acceptance::CoBuchi(f.clone()),
            Acceptance::CoBuchi(f) => Acceptance::Buchi(f.clone()),
        }
    }

    /// The marked state set.
    pub fn marks(&self) -> &BTreeSet<usize> {
        match self {
            Acceptance::Buchi(f) | Acceptance::CoBuchi(f) => f,
        }
    }
}

/// A complete deterministic transition structure over the alphabet
/// `0..alphabet`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetAutomaton {
    alphabet: usize,
    /// `trans[state][letter]` = next state.
    trans: Vec<Vec<usize>>,
    init: usize,
}

impl DetAutomaton {
    /// Builds an automaton; `trans[s]` must have one entry per letter.
    ///
    /// # Panics
    /// Panics on malformed transition tables.
    pub fn new(alphabet: usize, trans: Vec<Vec<usize>>, init: usize) -> DetAutomaton {
        assert!(init < trans.len(), "initial state out of range");
        for (s, row) in trans.iter().enumerate() {
            assert_eq!(row.len(), alphabet, "state {s} row has wrong arity");
            for &t in row {
                assert!(t < trans.len(), "state {s} has out-of-range successor {t}");
            }
        }
        DetAutomaton {
            alphabet,
            trans,
            init,
        }
    }

    /// Alphabet size.
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.trans.len()
    }

    /// The initial state.
    pub fn init(&self) -> usize {
        self.init
    }

    /// One transition step.
    pub fn step(&self, state: usize, letter: usize) -> usize {
        self.trans[state][letter]
    }

    /// Runs a finite word from the initial state.
    pub fn run(&self, word: &[usize]) -> usize {
        word.iter().fold(self.init, |s, &a| self.step(s, a))
    }

    /// The same structure with a different initial state.
    pub fn with_init(&self, init: usize) -> DetAutomaton {
        assert!(init < self.trans.len());
        DetAutomaton {
            alphabet: self.alphabet,
            trans: self.trans.clone(),
            init,
        }
    }

    /// Remaps letters: the new automaton reads letter `a` of the new
    /// alphabet as `map(a)` of the old one. Used to lift `Γ`-automata to
    /// the pair alphabet `Γ × Γ` via projections.
    pub fn relabel(&self, new_alphabet: usize, map: impl Fn(usize) -> usize) -> DetAutomaton {
        let trans = self
            .trans
            .iter()
            .map(|row| (0..new_alphabet).map(|a| row[map(a)]).collect())
            .collect();
        DetAutomaton {
            alphabet: new_alphabet,
            trans,
            init: self.init,
        }
    }

    /// The set of states the lasso `prefix·cycle^ω` visits infinitely
    /// often (deterministic run).
    ///
    /// # Panics
    /// Panics when `cycle` is empty.
    pub fn lasso_recurrent_states(&self, prefix: &[usize], cycle: &[usize]) -> BTreeSet<usize> {
        assert!(!cycle.is_empty(), "lasso cycle must be nonempty");
        let mut state = self.run(prefix);
        // Iterate the cycle until the state at the cycle boundary repeats.
        let mut seen_at_boundary = vec![state];
        loop {
            for &a in cycle {
                state = self.step(state, a);
            }
            if let Some(pos) = seen_at_boundary.iter().position(|&s| s == state) {
                // The boundary states from `pos` on repeat forever; the
                // recurrent set is everything visited within that loop.
                let mut recurrent = BTreeSet::new();
                let mut s = seen_at_boundary[pos];
                loop {
                    for &a in cycle {
                        recurrent.insert(s);
                        s = self.step(s, a);
                    }
                    recurrent.insert(s);
                    if s == seen_at_boundary[pos] {
                        break;
                    }
                }
                return recurrent;
            }
            seen_at_boundary.push(state);
        }
    }
}

/// One accepted-language obligation: a deterministic automaton plus its
/// acceptance condition. Schemes are conjunctions of obligations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obligation {
    /// The transition structure.
    pub automaton: DetAutomaton,
    /// The acceptance condition.
    pub acceptance: Acceptance,
}

impl Obligation {
    /// Builds an obligation.
    pub fn new(automaton: DetAutomaton, acceptance: Acceptance) -> Obligation {
        for &s in acceptance.marks() {
            assert!(s < automaton.state_count(), "mark {s} out of range");
        }
        Obligation {
            automaton,
            acceptance,
        }
    }

    /// Does the lasso `prefix·cycle^ω` satisfy this obligation?
    pub fn accepts_lasso(&self, prefix: &[usize], cycle: &[usize]) -> bool {
        let recurrent = self.automaton.lasso_recurrent_states(prefix, cycle);
        match &self.acceptance {
            Acceptance::Buchi(f) => recurrent.iter().any(|s| f.contains(s)),
            Acceptance::CoBuchi(f) => recurrent.iter().all(|s| !f.contains(s)),
        }
    }

    /// The complement obligation (exact: the automaton is deterministic).
    pub fn complement(&self) -> Obligation {
        Obligation {
            automaton: self.automaton.clone(),
            acceptance: self.acceptance.complement(),
        }
    }

    /// An obligation accepting every word of the alphabet.
    pub fn trivial(alphabet: usize) -> Obligation {
        Obligation {
            automaton: DetAutomaton::new(alphabet, vec![vec![0; alphabet]], 0),
            acceptance: Acceptance::CoBuchi(BTreeSet::new()),
        }
    }

    /// A safety obligation: letters must always satisfy `allowed`; one
    /// forbidden letter jumps to an absorbing dead state.
    pub fn letter_safety(alphabet: usize, allowed: impl Fn(usize) -> bool) -> Obligation {
        // State 0 = alive, 1 = dead (absorbing).
        let trans = vec![
            (0..alphabet)
                .map(|a| if allowed(a) { 0 } else { 1 })
                .collect(),
            vec![1; alphabet],
        ];
        Obligation {
            automaton: DetAutomaton::new(alphabet, trans, 0),
            acceptance: Acceptance::CoBuchi([1].into()),
        }
    }

    /// A liveness obligation: some letter satisfying `goal` must occur
    /// infinitely often.
    pub fn letter_recurrence(alphabet: usize, goal: impl Fn(usize) -> bool) -> Obligation {
        // State 1 = "last letter was a goal letter".
        let row = |_: usize| -> Vec<usize> {
            (0..alphabet).map(|a| if goal(a) { 1 } else { 0 }).collect()
        };
        Obligation {
            automaton: DetAutomaton::new(alphabet, vec![row(0), row(1)], 0),
            acceptance: Acceptance::Buchi([1].into()),
        }
    }

    /// An eventuality obligation: some letter satisfying `goal` must occur
    /// at least once.
    pub fn letter_eventually(alphabet: usize, goal: impl Fn(usize) -> bool) -> Obligation {
        // State 1 = "a goal letter has occurred" (absorbing).
        let trans = vec![
            (0..alphabet).map(|a| if goal(a) { 1 } else { 0 }).collect(),
            vec![1; alphabet],
        ];
        Obligation {
            automaton: DetAutomaton::new(alphabet, trans, 0),
            acceptance: Acceptance::Buchi([1].into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Alphabet {0, 1}; automaton accepting "infinitely many 1s".
    fn inf_ones() -> Obligation {
        Obligation::letter_recurrence(2, |a| a == 1)
    }

    #[test]
    fn lasso_recurrence_simple() {
        let o = inf_ones();
        assert!(o.accepts_lasso(&[], &[1]));
        assert!(o.accepts_lasso(&[0, 0], &[0, 1]));
        assert!(!o.accepts_lasso(&[1, 1, 1], &[0]));
    }

    #[test]
    fn cobuchi_complement_flips() {
        let o = inf_ones();
        let c = o.complement();
        assert!(!c.accepts_lasso(&[], &[1]));
        assert!(c.accepts_lasso(&[1, 1], &[0]));
        assert_eq!(c.complement(), o);
    }

    #[test]
    fn safety_obligation() {
        let only_zero = Obligation::letter_safety(3, |a| a == 0);
        assert!(only_zero.accepts_lasso(&[], &[0]));
        assert!(only_zero.accepts_lasso(&[0, 0], &[0, 0]));
        assert!(!only_zero.accepts_lasso(&[1], &[0]));
        assert!(!only_zero.accepts_lasso(&[], &[0, 2]));
    }

    #[test]
    fn eventually_obligation() {
        let hits_two = Obligation::letter_eventually(3, |a| a == 2);
        assert!(hits_two.accepts_lasso(&[2], &[0]));
        assert!(hits_two.accepts_lasso(&[0, 0], &[1, 2]));
        assert!(!hits_two.accepts_lasso(&[0, 1], &[0, 1]));
    }

    #[test]
    fn trivial_accepts_all() {
        let t = Obligation::trivial(4);
        assert!(t.accepts_lasso(&[3, 2, 1], &[0]));
        assert!(t.accepts_lasso(&[], &[0, 1, 2, 3]));
    }

    #[test]
    fn relabel_projects() {
        // Lift "infinitely many 1s" over {0,1} to pairs (a,b) in {0,1}²
        // (encoded 2a+b) reading the first component.
        let lifted = Obligation {
            automaton: inf_ones().automaton.relabel(4, |pair| pair / 2),
            acceptance: inf_ones().acceptance,
        };
        assert!(lifted.accepts_lasso(&[], &[2])); // (1,0) forever
        assert!(!lifted.accepts_lasso(&[], &[1])); // (0,1) forever
    }

    #[test]
    fn with_init_changes_start() {
        let o = Obligation::letter_eventually(2, |a| a == 1);
        let started = Obligation {
            automaton: o.automaton.with_init(1),
            acceptance: o.acceptance.clone(),
        };
        assert!(
            started.accepts_lasso(&[], &[0]),
            "already in the good state"
        );
    }

    #[test]
    fn run_walks_word() {
        let o = Obligation::letter_eventually(2, |a| a == 1);
        assert_eq!(o.automaton.run(&[0, 0, 0]), 0);
        assert_eq!(o.automaton.run(&[0, 1, 0]), 1);
    }

    #[test]
    fn recurrent_states_of_long_preperiod() {
        // Cycle alignment requires several traversals when the automaton's
        // period and the cycle length interact; exercise with a mod-3
        // counter against a 2-letter cycle.
        let trans = vec![vec![1, 1], vec![2, 2], vec![0, 0]];
        let auto = DetAutomaton::new(2, trans, 0);
        let rec = auto.lasso_recurrent_states(&[], &[0, 1]);
        // Cycle of length 2 against period 3: all states recurrent.
        assert_eq!(rec, [0, 1, 2].into());
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn malformed_table_rejected() {
        let _ = DetAutomaton::new(2, vec![vec![0]], 0);
    }

    #[test]
    #[should_panic(expected = "cycle must be nonempty")]
    fn empty_cycle_rejected() {
        let o = inf_ones();
        let _ = o.automaton.lasso_recurrent_states(&[0], &[]);
    }
}
