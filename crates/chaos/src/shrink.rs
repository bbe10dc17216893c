//! Greedy counterexample shrinking over omission scripts.
//!
//! Classic delta debugging, specialized to the two axes an omission
//! script has: whole rounds and individual arcs. The shrinker
//! repeatedly tries, in a fixed deterministic order,
//!
//! 1. truncating the script after each prefix,
//! 2. emptying whole rounds,
//! 3. removing single arcs,
//!
//! keeping a candidate whenever `still_fails` says the violation
//! survives, until a fixpoint. The result is 1-minimal: removing any
//! single remaining arc (or round) makes the violation disappear.
//! Determinism matters — the shrunk script is what gets serialized into
//! the reproducer artifact, and the same seed must yield the same bytes.

use minobs_graphs::DirectedEdge;

/// Shrinks `script` to a locally minimal script that still fails.
///
/// `still_fails` re-runs the system under the candidate script and
/// reports whether the original violation still occurs. If the input
/// script does not fail to begin with, it is returned unchanged.
pub fn shrink_script(
    script: Vec<Vec<DirectedEdge>>,
    still_fails: &mut dyn FnMut(&[Vec<DirectedEdge>]) -> bool,
) -> Vec<Vec<DirectedEdge>> {
    if !still_fails(&script) {
        return script;
    }
    let mut best = script;
    loop {
        let mut progressed = false;

        // Pass 1: truncate — the shortest failing prefix wins.
        for cut in 0..best.len() {
            let candidate = best[..cut].to_vec();
            if still_fails(&candidate) {
                best = candidate;
                progressed = true;
                break;
            }
        }

        // Pass 2: empty whole rounds.
        for r in 0..best.len() {
            if best[r].is_empty() {
                continue;
            }
            let mut candidate = best.clone();
            candidate[r].clear();
            if still_fails(&candidate) {
                best = candidate;
                progressed = true;
            }
        }

        // Pass 3: drop single arcs.
        for r in 0..best.len() {
            let mut i = 0;
            while i < best[r].len() {
                let mut candidate = best.clone();
                candidate[r].remove(i);
                if still_fails(&candidate) {
                    best = candidate;
                    progressed = true;
                } else {
                    i += 1;
                }
            }
        }

        // Trailing empty rounds carry no information.
        while best.last().is_some_and(Vec::is_empty) {
            best.pop();
            progressed = true;
        }

        if !progressed {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(list: &[(usize, usize)]) -> Vec<DirectedEdge> {
        list.iter().map(|&(a, b)| DirectedEdge::new(a, b)).collect()
    }

    #[test]
    fn shrinks_to_the_single_culprit_arc() {
        // Failure := the script drops (0,1) in some round. Everything
        // else is noise the shrinker must strip.
        let noisy = vec![
            edges(&[(2, 3), (3, 2)]),
            edges(&[(0, 1), (1, 0), (2, 3)]),
            edges(&[(3, 2)]),
        ];
        let mut fails =
            |s: &[Vec<DirectedEdge>]| s.iter().flatten().any(|e| *e == DirectedEdge::new(0, 1));
        let minimal = shrink_script(noisy, &mut fails);
        assert_eq!(minimal, vec![vec![], edges(&[(0, 1)])]);
    }

    #[test]
    fn shrinks_conjunctive_failure_to_both_witnesses() {
        // Failure needs ≥ 2 arcs in round 0 — a budget-style predicate.
        let noisy = vec![edges(&[(0, 1), (1, 0), (2, 3), (3, 2)]), edges(&[(0, 1)])];
        let mut fails = |s: &[Vec<DirectedEdge>]| s.first().is_some_and(|r| r.len() >= 2);
        let minimal = shrink_script(noisy, &mut fails);
        // Greedy removal strips from the front, so the last two arcs
        // survive as the 2-minimal witness.
        assert_eq!(minimal, vec![edges(&[(2, 3), (3, 2)])]);
    }

    #[test]
    fn non_failing_script_is_returned_unchanged() {
        let script = vec![edges(&[(0, 1)])];
        let mut fails = |_: &[Vec<DirectedEdge>]| false;
        assert_eq!(shrink_script(script.clone(), &mut fails), script);
    }

    #[test]
    fn shrinking_is_deterministic() {
        let noisy = vec![edges(&[(0, 1), (1, 2), (2, 0)]), edges(&[(1, 0), (2, 1)])];
        let run = || {
            let mut fails = |s: &[Vec<DirectedEdge>]| s.iter().map(Vec::len).sum::<usize>() >= 2;
            shrink_script(noisy.clone(), &mut fails)
        };
        assert_eq!(run(), run());
        assert_eq!(run().iter().map(Vec::len).sum::<usize>(), 2);
    }
}
