//! A campaign of the two generals: sweep fault environments and watch
//! where agreement becomes impossible.
//!
//! This example walks the full two-process theory: round complexity
//! (Corollary III.14 / Proposition III.15), the intuitive almost-fair
//! algorithm (Corollary IV.1), the mechanical bivalency chains produced by
//! the model checker for the obstructions, and the special-pair structure.
//!
//! ```text
//! cargo run --example two_generals_campaign
//! ```

use minobs_core::prelude::*;
use minobs_core::scenario::enumerate_gamma_lassos;
use minobs_core::theorem::min_excluded_prefix;
use minobs_synth::checker::{first_solvable_horizon, gamma_alphabet, solvable_by, CheckResult};

fn main() {
    println!("== The two generals' campaign ==\n");

    // 1. Round complexity across the solvable environments.
    println!("Worst-case round complexity (theory = min excluded prefix; measured = capped A_w):");
    let solvable = [
        classic::s0(),
        classic::t_white(),
        classic::t_black(),
        classic::c1(),
        classic::s1(),
    ];
    let universe = enumerate_gamma_lassos(2, 2);
    for scheme in &solvable {
        let (p, w0) = min_excluded_prefix(scheme, 5).expect("bounded scheme");
        let w = Scenario::new(w0.to_word(), "b".parse().unwrap());
        let mut worst = 0usize;
        for s in universe.iter().filter(|s| scheme.contains(s)) {
            for (wi, bi) in [(false, false), (false, true), (true, false), (true, true)] {
                let mut white = AwProcess::new(Role::White, wi, w.clone()).with_round_cap(p);
                let mut black = AwProcess::new(Role::Black, bi, w.clone()).with_round_cap(p);
                let out = run_two_process(&mut white, &mut black, s, 32);
                assert!(out.verdict.is_consensus());
                worst = worst.max(out.rounds);
            }
        }
        println!(
            "  {:<38} theory p = {p}, measured worst = {worst}",
            scheme.name()
        );
    }

    // 2. The almost-fair environment and its intuitive algorithm.
    println!("\nCorollary IV.1 — the almost-fair scheme Γω \\ {{(b)ω}}:");
    for s in ["(-)", "(w)", "w(b)", "bw(b)"] {
        let scenario: Scenario = s.parse().unwrap();
        let mut white = IntuitiveAlmostFair::new(Role::White, true);
        let mut black = IntuitiveAlmostFair::new(Role::Black, false);
        let out = run_two_process(&mut white, &mut black, &scenario, 64);
        println!(
            "  intuitive algorithm on {s:<8} → {:?} in {} rounds",
            out.verdict, out.rounds
        );
    }

    // 3. Mechanical bivalency: why Γω is an obstruction.
    println!("\nMechanical bivalency for R1 = Γω (the model checker's certificate):");
    for k in 1..=4 {
        match solvable_by(&classic::r1(), k, &gamma_alphabet()) {
            CheckResult::Unsolvable { chain } => {
                println!(
                    "  horizon {k}: no {k}-round algorithm; indistinguishability chain of {} executions",
                    chain.len()
                );
            }
            other => println!("  horizon {k}: unexpected {other:?}"),
        }
    }
    println!(
        "  (for comparison, S1 becomes solvable at horizon {:?})",
        first_solvable_horizon(&classic::s1(), 4, &gamma_alphabet())
    );

    // 4. A round-by-round look inside A_w: the phantom indexes framing
    //    ind(v_r) (Proposition III.12) until they drift from ind(w_r).
    println!("\nInside A_w: phantom indexes under v = (wb-) with forbidden w = (b):");
    {
        use minobs_core::index::IndexTracker;
        let w: Scenario = "(b)".parse().unwrap();
        let v: Scenario = "(wb-)".parse().unwrap();
        let mut white = AwProcess::new(Role::White, false, w.clone());
        let mut black = AwProcess::new(Role::Black, true, w.clone());
        let mut v_tracker = IndexTracker::new();
        let mut w_tracker = IndexTracker::new();
        println!("  round letter  ind_White ind_Black  ind(v_r) ind(w_r)");
        for r in 0..8 {
            if white.halted() && black.halted() {
                break;
            }
            let letter = v.letter_at(r);
            let to_white = (!black.halted() && letter.delivers_from(Role::Black))
                .then(|| black.outgoing().unwrap());
            let to_black = (!white.halted() && letter.delivers_from(Role::White))
                .then(|| white.outgoing().unwrap());
            if !white.halted() {
                white.advance(to_white);
            }
            if !black.halted() {
                black.advance(to_black);
            }
            v_tracker.push(letter.to_gamma().unwrap());
            w_tracker.push(w.letter_at(r).to_gamma().unwrap());
            println!(
                "  {r:>5} {:>6}  {:>9} {:>9}  {:>8} {:>8}{}{}",
                letter.to_string(),
                white.phantom_index().to_string(),
                black.phantom_index().to_string(),
                v_tracker.value().to_string(),
                w_tracker.value().to_string(),
                if white.halted() { "  ◻ halted" } else { "" },
                if black.halted() { "  ◼ halted" } else { "" },
            );
        }
        println!(
            "  decisions: White={:?} Black={:?} — min(ind_◻, ind_◼) tracks ind(v_r)\n\
             \x20 until the drift from ind(w_r) exceeds 1 and the side decides the value.",
            white.decision(),
            black.decision()
        );
    }

    // 5. Special pairs: the fault lines of the impossibility proof.
    println!("\nSpecial pairs among unfair lassos (transient ≤ 2):");
    let g = minobs_core::minimal::build_spair_graph(2);
    println!(
        "  {} unfair scenarios, {} pairs — a perfect matching: {}",
        g.nodes.len(),
        g.edges.len(),
        g.is_matching()
    );
    for &(i, j) in g.edges.iter().take(5) {
        println!("    {}  ↔  {}", g.nodes[i], g.nodes[j]);
    }
    println!("    …");
    println!(
        "\nRemoving one member of every pair from Γω yields a *minimal* obstruction\n\
         (run the obstruction_atlas example for the full story)."
    );
}
