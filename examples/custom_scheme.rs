//! Bring your own fault environment: define a *new* omission scheme as
//! ω-automata obligations, get the full analysis pipeline for free —
//! Theorem III.8 verdict with witness, bounded-round checking, and a live
//! `A_w` run.
//!
//! The scheme built here: **"losses come in bursts of at most two,
//! separated by at least one clean round, and White's channel is lossless
//! from round 3 on"** — nothing the paper names, which is the point: the
//! framework handles arbitrary patterns.
//!
//! ```text
//! cargo run --example custom_scheme
//! ```

use minobs_core::prelude::*;
use minobs_omega::auto::{Acceptance, DetAutomaton, Obligation};
use minobs_omega::schemes::{decide_regular, RegularScheme};
use minobs_synth::checker::{first_solvable_horizon, gamma_alphabet};

/// Letters: 0 = Full, 1 = DropWhite, 2 = DropBlack (see `minobs_omega::pairs`).
fn burst_obligation() -> Obligation {
    // States: 0 = clean, 1 = one loss deep, 2 = two losses deep, 3 = dead.
    // A third consecutive loss dies; a clean round resets.
    let loss = |a: usize| a != 0;
    let trans = (0..4)
        .map(|state| {
            (0..3)
                .map(|a| match (state, loss(a)) {
                    (0, false) => 0,
                    (0, true) => 1,
                    (1, false) => 0,
                    (1, true) => 2,
                    (2, false) => 0,
                    (2, true) => 3,
                    (3, _) => 3,
                    _ => unreachable!(),
                })
                .collect()
        })
        .collect();
    Obligation::new(
        DetAutomaton::new(3, trans, 0),
        Acceptance::CoBuchi([3].into()),
    )
}

fn white_clean_after_3() -> Obligation {
    // States 0,1,2 count rounds; state 3 = steady (White lossless), 4 = dead.
    let trans = (0..5)
        .map(|state: usize| {
            (0..3usize)
                .map(|a| match state {
                    0..=2 => state + 1,
                    3 => {
                        if a == 1 {
                            4 // DropWhite after round 3: dead
                        } else {
                            3
                        }
                    }
                    4 => 4,
                    _ => unreachable!(),
                })
                .collect()
        })
        .collect();
    Obligation::new(
        DetAutomaton::new(3, trans, 0),
        Acceptance::CoBuchi([4].into()),
    )
}

fn main() {
    println!("== A custom fault environment, analyzed end to end ==\n");
    let scheme = RegularScheme::new(
        "bursty(≤2) ∧ White clean after round 3",
        vec![burst_obligation(), white_clean_after_3()],
    );

    println!("Scheme: {}", scheme.name());
    println!(
        "Sample member: {:?}\n",
        scheme.sample_member().map(|s| s.to_string())
    );

    // Membership spot checks.
    for s in ["(-)", "(wb)", "wb(-)", "(wwb)", "(b)", "www(-)", "(w)"] {
        let scenario: Scenario = s.parse().unwrap();
        println!("  contains {s:<9} = {}", scheme.contains(&scenario));
    }

    // Theorem III.8, decided by automata emptiness.
    let verdict = decide_regular(&scheme);
    println!("\nTheorem III.8 verdict: {verdict:?}");

    let Some(w) = verdict.witness() else {
        println!("… an obstruction; nothing to run.");
        return;
    };

    // Bounded-round solvability.
    let horizon = first_solvable_horizon(&scheme, 6, &gamma_alphabet());
    println!("First bounded-decision horizon (≤ 6): {horizon:?}");

    // Run A_w on members.
    println!("\nRunning A_w (w = {w}) on members:");
    for s in ["(-)", "wb(-)", "-(b-)", "ww-(-)"] {
        let scenario: Scenario = s.parse().unwrap();
        if !scheme.contains(&scenario) {
            println!("  {s:<9} — not a member, skipped");
            continue;
        }
        let mut white = AwProcess::new(Role::White, true, w.clone());
        let mut black = AwProcess::new(Role::Black, false, w.clone());
        let out = run_two_process(&mut white, &mut black, &scenario, 128);
        println!("  {s:<9} → {:?} in {} rounds", out.verdict, out.rounds);
    }
}
