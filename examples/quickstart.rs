//! Quickstart: decide an omission scheme, extract a witness, run the
//! paper's algorithm, watch consensus happen.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use minobs_core::prelude::*;

fn main() {
    println!("== minobs quickstart: the Coordinated Attack Problem ==\n");

    // The seven environments of Section II-A2.
    println!("Theorem III.8 verdicts for the paper's seven environments:");
    for scheme in classic::seven_environments() {
        let verdict = decide_classic(&scheme);
        match &verdict {
            Solvability::Solvable { witness, condition } => {
                println!(
                    "  {:<38} SOLVABLE  (witness {witness}, via {condition:?})",
                    scheme.name()
                );
            }
            Solvability::Obstruction => {
                println!("  {:<38} OBSTRUCTION", scheme.name());
            }
        }
    }

    // Pick environment 5 (one faulty process) and actually run A_w.
    let s1 = classic::s1();
    let verdict = decide_classic(&s1);
    let w = verdict.witness().expect("S1 is solvable").clone();
    println!(
        "\nRunning A_w (w = {w}) for {} on a few scenarios:",
        s1.name()
    );

    for scenario_text in ["(-)", "(w)", "ww(-)", "-(b)", "(b)"] {
        let scenario: Scenario = scenario_text.parse().unwrap();
        if !s1.contains(&scenario) {
            println!("  {scenario_text:<8} — not in S1, skipped");
            continue;
        }
        // General White wants to attack, General Black does not.
        let mut white = AwProcess::new(Role::White, true, w.clone());
        let mut black = AwProcess::new(Role::Black, false, w.clone());
        let outcome = run_two_process(&mut white, &mut black, &scenario, 64);
        println!(
            "  {scenario_text:<8} → {:?} in {} rounds ({} of {} messages delivered)",
            outcome.verdict, outcome.rounds, outcome.messages_delivered, outcome.messages_sent
        );
    }

    println!("\nEvery verdict above is reproducible: `cargo test --workspace`.");
}
