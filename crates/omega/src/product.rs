//! Emptiness of obligation conjunctions, with lasso witness extraction.
//!
//! Given obligations `O_1 ∧ … ∧ O_k` over a shared alphabet, a word
//! satisfies the conjunction iff its (deterministic) product run
//!
//! * visits, for every Büchi obligation `i`, a product state whose `i`-th
//!   component is marked, infinitely often; and
//! * eventually avoids, for every co-Büchi obligation `j`, all product
//!   states whose `j`-th component is marked.
//!
//! A lasso witness therefore consists of a reachable cycle inside the
//! *clean* subgraph (no co-Büchi marks) that touches every Büchi mark.
//! The search: build the reachable product graph, restrict to clean
//! states, compute SCCs (iterative Tarjan), and look for a reachable SCC
//! containing every Büchi color; the witness cycle is stitched inside the
//! SCC by BFS hops through one representative per color.

use crate::auto::{Acceptance, Obligation};
use std::collections::{HashMap, VecDeque};

/// An ultimately periodic witness word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LassoWitness {
    /// The transient letters.
    pub prefix: Vec<usize>,
    /// The repeated letters (nonempty).
    pub cycle: Vec<usize>,
}

impl LassoWitness {
    /// The letter at position `r`.
    pub fn letter_at(&self, r: usize) -> usize {
        if r < self.prefix.len() {
            self.prefix[r]
        } else {
            self.cycle[(r - self.prefix.len()) % self.cycle.len()]
        }
    }
}

/// Finds a lasso accepted by every obligation, or `None` when the
/// conjunction is empty.
///
/// # Panics
/// Panics when `obligations` is empty or the alphabets disagree.
pub fn find_accepted_lasso(obligations: &[Obligation]) -> Option<LassoWitness> {
    assert!(!obligations.is_empty(), "need at least one obligation");
    let alphabet = obligations[0].automaton.alphabet();
    assert!(
        obligations
            .iter()
            .all(|o| o.automaton.alphabet() == alphabet),
        "obligations must share an alphabet"
    );

    // ---- Explore the reachable product space. ----
    let init: Vec<usize> = obligations.iter().map(|o| o.automaton.init()).collect();
    let mut ids: HashMap<Vec<usize>, usize> = HashMap::new();
    let mut states: Vec<Vec<usize>> = Vec::new();
    let mut succ: Vec<Vec<usize>> = Vec::new(); // succ[id][letter]
    ids.insert(init.clone(), 0);
    states.push(init);
    let mut frontier = VecDeque::from([0usize]);
    while let Some(id) = frontier.pop_front() {
        let state = states[id].clone();
        let mut row = Vec::with_capacity(alphabet);
        for a in 0..alphabet {
            let next: Vec<usize> = state
                .iter()
                .zip(obligations)
                .map(|(&s, o)| o.automaton.step(s, a))
                .collect();
            let nid = *ids.entry(next.clone()).or_insert_with(|| {
                states.push(next);
                frontier.push_back(states.len() - 1);
                states.len() - 1
            });
            row.push(nid);
        }
        succ.push(row);
        // `states` may have grown; `succ` rows are appended in id order
        // because the frontier is processed in insertion order.
        debug_assert!(succ.len() <= states.len());
    }
    // Fill rows for states discovered after their own dequeue (BFS handles
    // all: every state enters the frontier exactly once, so succ has a row
    // per state by the end).
    debug_assert_eq!(succ.len(), states.len());

    // ---- Classify states. ----
    let is_clean = |id: usize| -> bool {
        states[id]
            .iter()
            .zip(obligations)
            .all(|(&s, o)| match &o.acceptance {
                Acceptance::CoBuchi(f) => !f.contains(&s),
                Acceptance::Buchi(_) => true,
            })
    };
    let buchi_colors: Vec<usize> = obligations
        .iter()
        .enumerate()
        .filter(|(_, o)| matches!(o.acceptance, Acceptance::Buchi(_)))
        .map(|(i, _)| i)
        .collect();
    let has_color = |id: usize, i: usize| -> bool {
        match &obligations[i].acceptance {
            Acceptance::Buchi(f) => f.contains(&states[id][i]),
            Acceptance::CoBuchi(_) => unreachable!(),
        }
    };

    // ---- SCCs of the clean subgraph (iterative Tarjan). ----
    let n = states.len();
    let mut scc_id = vec![usize::MAX; n];
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut scc_count = 0usize;
    // Each SCC also records whether it contains an internal edge (so a
    // singleton with a self-loop counts as cyclic).
    let mut call_stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if !is_clean(start) || index[start] != usize::MAX {
            continue;
        }
        call_stack.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut ai)) = call_stack.last_mut() {
            if *ai < alphabet {
                let a = *ai;
                *ai += 1;
                let w = succ[v][a];
                if !is_clean(w) {
                    continue;
                }
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&mut (parent, _)) = call_stack.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        scc_id[w] = scc_count;
                        if w == v {
                            break;
                        }
                    }
                    scc_count += 1;
                }
            }
        }
    }

    // ---- Which SCCs are cyclic and carry every Büchi color? ----
    let mut cyclic = vec![false; scc_count];
    let mut size = vec![0usize; scc_count];
    for v in 0..n {
        if scc_id[v] == usize::MAX {
            continue;
        }
        size[scc_id[v]] += 1;
        if succ[v].contains(&v) {
            cyclic[scc_id[v]] = true; // self-loop
        }
    }
    for c in 0..scc_count {
        if size[c] > 1 {
            cyclic[c] = true;
        }
    }
    let mut colors_in_scc: Vec<Vec<bool>> = vec![vec![false; buchi_colors.len()]; scc_count];
    for v in 0..n {
        if scc_id[v] == usize::MAX {
            continue;
        }
        for (k, &i) in buchi_colors.iter().enumerate() {
            if has_color(v, i) {
                colors_in_scc[scc_id[v]][k] = true;
            }
        }
    }
    let good_scc = (0..scc_count).find(|&c| cyclic[c] && colors_in_scc[c].iter().all(|&b| b))?;

    // ---- Witness prefix: BFS from the initial state (through any states)
    //      to some vertex of the good SCC. ----
    let bfs = |sources: &[usize],
               goal: &dyn Fn(usize) -> bool,
               clean_only: bool|
     -> Option<(usize, Vec<usize>)> {
        let mut prev: HashMap<usize, (usize, usize)> = HashMap::new();
        let mut queue: VecDeque<usize> = sources.iter().copied().collect();
        let mut seen: Vec<bool> = vec![false; n];
        for &s in sources {
            seen[s] = true;
        }
        while let Some(v) = queue.pop_front() {
            if goal(v) {
                // Rebuild letters back to a source.
                let mut letters = Vec::new();
                let mut cur = v;
                while let Some(&(p, a)) = prev.get(&cur) {
                    letters.push(a);
                    cur = p;
                }
                letters.reverse();
                return Some((v, letters));
            }
            for (a, &w) in succ[v].iter().enumerate() {
                if clean_only && !is_clean(w) {
                    continue;
                }
                if !seen[w] {
                    seen[w] = true;
                    prev.insert(w, (v, a));
                    queue.push_back(w);
                }
            }
        }
        None
    };

    let in_good = |v: usize| scc_id[v] != usize::MAX && scc_id[v] == good_scc;
    let (entry, prefix) = bfs(&[0], &|v| in_good(v), false)?;

    // ---- Witness cycle: inside the SCC, hop through one representative
    //      per Büchi color, then return to the entry. ----
    let within = |v: usize| in_good(v);
    let mut cycle: Vec<usize> = Vec::new();
    let mut cur = entry;
    for &i in &buchi_colors {
        let (reached, letters) =
            bfs(&[cur], &|v| within(v) && has_color(v, i), true).expect("color present in SCC");
        cycle.extend(letters);
        cur = reached;
    }
    // Close the loop back to `entry`; if we never moved, force one step.
    if cur == entry && cycle.is_empty() {
        // Find any edge leaving `entry` that stays in the SCC.
        let a = (0..alphabet)
            .find(|&a| within(succ[entry][a]))
            .expect("cyclic SCC has an internal edge");
        cycle.push(a);
        cur = succ[entry][a];
    }
    if cur != entry {
        let (_, letters) = bfs(&[cur], &|v| v == entry, true).expect("SCC is strongly connected");
        cycle.extend(letters);
    }
    debug_assert!(!cycle.is_empty());
    Some(LassoWitness { prefix, cycle })
}

/// Does the conjunction accept the given lasso? (Convenience for tests.)
pub fn conjunction_accepts(obligations: &[Obligation], w: &LassoWitness) -> bool {
    obligations
        .iter()
        .all(|o| o.accepts_lasso(&w.prefix, &w.cycle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auto::Obligation;

    #[test]
    fn single_trivial_is_nonempty() {
        let w = find_accepted_lasso(&[Obligation::trivial(2)]).unwrap();
        assert!(conjunction_accepts(&[Obligation::trivial(2)], &w));
    }

    #[test]
    fn contradictory_safety_is_empty() {
        let only0 = Obligation::letter_safety(2, |a| a == 0);
        let only1 = Obligation::letter_safety(2, |a| a == 1);
        assert_eq!(find_accepted_lasso(&[only0, only1]), None);
    }

    #[test]
    fn buchi_conjunction_interleaves() {
        let inf0 = Obligation::letter_recurrence(2, |a| a == 0);
        let inf1 = Obligation::letter_recurrence(2, |a| a == 1);
        let obls = [inf0, inf1];
        let w = find_accepted_lasso(&obls).unwrap();
        assert!(conjunction_accepts(&obls, &w));
        // The cycle must contain both letters.
        assert!(w.cycle.contains(&0) && w.cycle.contains(&1));
    }

    #[test]
    fn buchi_against_safety() {
        // Only letter 0 allowed forever, but must see letter 1 infinitely
        // often: empty.
        let obls = [
            Obligation::letter_safety(2, |a| a == 0),
            Obligation::letter_recurrence(2, |a| a == 1),
        ];
        assert_eq!(find_accepted_lasso(&obls), None);
    }

    #[test]
    fn eventually_needs_prefix_or_cycle_hit() {
        let obls = [
            Obligation::letter_eventually(3, |a| a == 2),
            Obligation::letter_recurrence(3, |a| a == 0),
        ];
        let w = find_accepted_lasso(&obls).unwrap();
        assert!(conjunction_accepts(&obls, &w));
    }

    #[test]
    fn cobuchi_forces_letter_out_of_cycle() {
        // Letter 1 only finitely often + letter 1 at least once:
        // witness must have 1 in the prefix but not in the cycle.
        let fin1 = Obligation::letter_recurrence(2, |a| a == 1).complement();
        let once1 = Obligation::letter_eventually(2, |a| a == 1);
        let obls = [fin1, once1];
        let w = find_accepted_lasso(&obls).unwrap();
        assert!(conjunction_accepts(&obls, &w));
        assert!(!w.cycle.contains(&1));
        let all: Vec<usize> = w.prefix.iter().chain(&w.cycle).copied().collect();
        assert!(all.contains(&1));
    }

    #[test]
    fn three_way_conjunction() {
        // Over {0,1,2}: infinitely many 0, infinitely many 1, finitely
        // many 2, and at least one 2.
        let obls = [
            Obligation::letter_recurrence(3, |a| a == 0),
            Obligation::letter_recurrence(3, |a| a == 1),
            Obligation::letter_recurrence(3, |a| a == 2).complement(),
            Obligation::letter_eventually(3, |a| a == 2),
        ];
        let w = find_accepted_lasso(&obls).unwrap();
        assert!(conjunction_accepts(&obls, &w), "{w:?}");
    }

    #[test]
    fn witness_letter_at() {
        let w = LassoWitness {
            prefix: vec![7, 8],
            cycle: vec![1, 2, 3],
        };
        let got: Vec<usize> = (0..8).map(|r| w.letter_at(r)).collect();
        assert_eq!(got, vec![7, 8, 1, 2, 3, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "share an alphabet")]
    fn mismatched_alphabets_rejected() {
        let _ = find_accepted_lasso(&[Obligation::trivial(2), Obligation::trivial(3)]);
    }

    mod random_automata {
        use super::*;
        use crate::auto::{Acceptance, DetAutomaton};
        use proptest::prelude::*;

        /// A random complete deterministic automaton with random marks.
        fn arb_obligation(alphabet: usize, max_states: usize) -> impl Strategy<Value = Obligation> {
            (2..=max_states).prop_flat_map(move |n| {
                let trans = proptest::collection::vec(proptest::collection::vec(0..n, alphabet), n);
                let marks = proptest::collection::btree_set(0..n, 0..=n);
                let buchi = any::<bool>();
                (trans, marks, buchi, 0..n).prop_map(move |(t, m, b, init)| {
                    let auto = DetAutomaton::new(alphabet, t, init);
                    let acc = if b {
                        Acceptance::Buchi(m)
                    } else {
                        Acceptance::CoBuchi(m)
                    };
                    Obligation::new(auto, acc)
                })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Soundness: every returned witness is accepted by every
            /// obligation of the conjunction.
            #[test]
            fn prop_witness_is_accepted(
                obls in proptest::collection::vec(arb_obligation(3, 5), 1..4)
            ) {
                if let Some(w) = find_accepted_lasso(&obls) {
                    prop_assert!(
                        conjunction_accepts(&obls, &w),
                        "witness {w:?} rejected by its own conjunction"
                    );
                    prop_assert!(!w.cycle.is_empty());
                }
            }

            /// Semi-completeness: a conjunction reported empty rejects a
            /// battery of concrete probe lassos.
            #[test]
            fn prop_empty_rejects_probes(
                obls in proptest::collection::vec(arb_obligation(2, 4), 1..4)
            ) {
                if find_accepted_lasso(&obls).is_none() {
                    let probes = [
                        (vec![], vec![0]),
                        (vec![], vec![1]),
                        (vec![], vec![0, 1]),
                        (vec![0], vec![1]),
                        (vec![1, 1], vec![0, 0, 1]),
                        (vec![0, 1, 0], vec![1, 0]),
                    ];
                    for (p, c) in probes {
                        prop_assert!(
                            !obls.iter().all(|o| o.accepts_lasso(&p, &c)),
                            "conjunction declared empty but accepts {p:?}({c:?})"
                        );
                    }
                }
            }

            /// Complement soundness: an obligation and its complement never
            /// both accept, and never both reject, a lasso.
            #[test]
            fn prop_complement_partitions(
                o in arb_obligation(2, 5),
                prefix in proptest::collection::vec(0usize..2, 0..4),
                cycle in proptest::collection::vec(0usize..2, 1..4),
            ) {
                let c = o.complement();
                prop_assert_ne!(
                    o.accepts_lasso(&prefix, &cycle),
                    c.accepts_lasso(&prefix, &cycle)
                );
            }
        }
    }
}
