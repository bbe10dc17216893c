//! An atlas of obstructions (Section IV-C): the special-pair matching,
//! exact covers, the canonical minimal obstruction, and the infinite
//! descending chain — the structures behind "Γω is merely the *nearest*
//! obstruction to a minimal one".
//!
//! ```text
//! cargo run --example obstruction_atlas
//! ```

use minobs_core::minimal::{
    build_spair_graph, descending_chain, distance_to_minimality, is_lower_pair_member,
    CanonicalMinimalObstruction,
};
use minobs_core::prelude::*;
use minobs_core::theorem::decide_gamma;

fn main() {
    println!("== Atlas of obstructions inside Γω ==\n");

    // 1. The SPair matching.
    for max_prefix in 1..=3 {
        let g = build_spair_graph(max_prefix);
        println!(
            "unfair lassos with transient ≤ {max_prefix}: {:>4} scenarios, {:>3} special pairs, matching: {}",
            g.nodes.len(),
            g.edges.len(),
            g.is_matching()
        );
    }

    let g = build_spair_graph(2);
    println!("\nA few pairs (lower ↔ upper):");
    for &(i, j) in g.edges.iter().take(8) {
        let (a, b) = (&g.nodes[i], &g.nodes[j]);
        let (lo, hi) = if is_lower_pair_member(a) == Some(true) {
            (a, b)
        } else {
            (b, a)
        };
        println!("  {lo:<10} ↔ {hi}");
    }

    // 2. Exact covers → minimal obstructions.
    let (lowers, uppers) = g.canonical_exact_covers();
    println!(
        "\nExact covers of the matching: lower-endpoints ({}) and upper-endpoints ({}).",
        lowers.len(),
        uppers.len()
    );
    println!("Each induces a minimal obstruction Γω \\ U (Section IV-C).");

    // 3. The canonical minimal obstruction as a first-class scheme.
    let cmo = CanonicalMinimalObstruction;
    println!("\nThe canonical minimal obstruction (drop all lower members):");
    println!("  decide_gamma → {:?}", decide_gamma(&cmo));
    for s in [
        "(-)", "(wb)", "(w)", "(b)", "b(w)", "-(w)", "-w(b)", "--(b)",
    ] {
        let scenario: Scenario = s.parse().unwrap();
        println!("  contains {s:<8} = {}", cmo.contains(&scenario));
    }

    // 4. The descending chain: no least obstruction.
    println!("\nThe descending chain L_0 ⊋ L_1 ⊋ … (all obstructions):");
    for (i, l) in descending_chain(4).iter().enumerate() {
        println!("  L_{i} = {:<48} → {:?}", l.name(), decide_gamma(l));
    }

    // 5. How far Γω is from minimality.
    println!("\nScenarios to remove from Γω to reach the canonical minimal obstruction");
    println!("(restricted to bounded transients):");
    for max_prefix in 1..=4 {
        println!(
            "  transient ≤ {max_prefix}: {} lower members",
            distance_to_minimality(max_prefix)
        );
    }
    println!("\n…and the count keeps growing with the bound: Γω sits infinitely far");
    println!("above minimality, yet removing any *single* scenario keeps it an");
    println!("obstruction — it is the nearest simple scheme to a minimal one.");
}
