//! Network omission schemes: `O_f^ω` and `Γ_C^ω` as checkable predicates
//! over omission scripts.
//!
//! A network scenario is an infinite sequence of omission sets (subsets of
//! the directed edges). Experiments and adversaries work with finite
//! scripts or lasso scripts; these helpers validate that a script stays
//! within a scheme, and convert between the two-process scenarios of
//! `minobs-core` and their `Γ_C` interpretations.

use minobs_core::letter::Letter;
use minobs_core::scenario::Scenario;
use minobs_graphs::{CutPartition, DirectedEdge};
use std::collections::BTreeSet;

/// Does every round of the script drop at most `f` messages? (`O_f`,
/// Section V-A.)
pub fn script_within_of(script: &[Vec<DirectedEdge>], f: usize) -> bool {
    script.iter().all(|round| {
        let distinct: BTreeSet<DirectedEdge> = round.iter().copied().collect();
        distinct.len() <= f
    })
}

/// Is every round of the script one of the three `Γ_C` letters for the
/// given partition: no drops, all `A→B` cut arcs, or all `B→A` cut arcs?
pub fn script_within_gamma_c(script: &[Vec<DirectedEdge>], partition: &CutPartition) -> bool {
    let a_to_b: BTreeSet<DirectedEdge> = partition
        .cut
        .iter()
        .map(|&(a, b)| DirectedEdge::new(a, b))
        .collect();
    let b_to_a: BTreeSet<DirectedEdge> = partition
        .cut
        .iter()
        .map(|&(a, b)| DirectedEdge::new(b, a))
        .collect();
    script.iter().all(|round| {
        let set: BTreeSet<DirectedEdge> = round.iter().copied().collect();
        set.is_empty() || set == a_to_b || set == b_to_a
    })
}

/// Expands the first `rounds` letters of a two-process scenario into the
/// `Γ_C` omission script it induces on the partition.
pub fn scenario_to_script(
    scenario: &Scenario,
    partition: &CutPartition,
    rounds: usize,
) -> Vec<Vec<DirectedEdge>> {
    let arc = |&(a, b): &(usize, usize), flip: bool| {
        if flip {
            DirectedEdge::new(b, a)
        } else {
            DirectedEdge::new(a, b)
        }
    };
    (0..rounds)
        .map(|r| match scenario.letter_at(r) {
            Letter::Full => Vec::new(),
            Letter::DropWhite => partition.cut.iter().map(|p| arc(p, false)).collect(),
            Letter::DropBlack => partition.cut.iter().map(|p| arc(p, true)).collect(),
            Letter::DropBoth => {
                let mut v: Vec<DirectedEdge> =
                    partition.cut.iter().map(|p| arc(p, false)).collect();
                v.extend(partition.cut.iter().map(|p| arc(p, true)));
                v
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minobs_graphs::{cut_partition, generators};

    fn de(a: usize, b: usize) -> DirectedEdge {
        DirectedEdge::new(a, b)
    }

    #[test]
    fn of_budget_checks_distinct_edges() {
        assert!(script_within_of(&[vec![de(0, 1)], vec![]], 1));
        assert!(!script_within_of(&[vec![de(0, 1), de(1, 0)]], 1));
        // Duplicates count once.
        assert!(script_within_of(&[vec![de(0, 1), de(0, 1)]], 1));
    }

    #[test]
    fn gamma_c_accepts_only_the_three_letters() {
        let g = generators::barbell(3, 2);
        let p = cut_partition(&g).unwrap();
        let all_ab: Vec<DirectedEdge> = p.cut.iter().map(|&(a, b)| de(a, b)).collect();
        let all_ba: Vec<DirectedEdge> = p.cut.iter().map(|&(a, b)| de(b, a)).collect();
        assert!(script_within_gamma_c(
            &[vec![], all_ab.clone(), all_ba.clone()],
            &p
        ));
        // Half a cut is not a Γ_C letter.
        assert!(!script_within_gamma_c(&[vec![all_ab[0]]], &p));
        // Mixing directions is not a Γ_C letter.
        assert!(!script_within_gamma_c(&[vec![all_ab[0], all_ba[1]]], &p));
    }

    #[test]
    fn scenario_expansion_is_within_gamma_c_and_of() {
        let g = generators::barbell(3, 2);
        let p = cut_partition(&g).unwrap();
        let s: Scenario = "w-b(wb)".parse().unwrap();
        let script = scenario_to_script(&s, &p, 12);
        assert!(script_within_gamma_c(&script, &p));
        assert!(script_within_of(&script, p.f()));
        assert_eq!(script[0].len(), 2, "DropWhite kills both A→B arcs");
        assert!(script[1].is_empty());
    }

    #[test]
    fn double_omission_exceeds_gamma_c() {
        let g = generators::barbell(3, 2);
        let p = cut_partition(&g).unwrap();
        let s: Scenario = "(x)".parse().unwrap();
        let script = scenario_to_script(&s, &p, 4);
        assert!(!script_within_gamma_c(&script, &p));
        assert!(!script_within_of(&script, p.f()));
        assert!(script_within_of(&script, 2 * p.f()));
    }
}
