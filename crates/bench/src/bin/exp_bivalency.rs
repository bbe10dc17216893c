//! TAB-BIVAL — the mechanical face of the Section III-C impossibility
//! proof: for obstruction schemes, the full-information checker produces a
//! bivalency chain at every horizon; for solvable schemes, the chain
//! disappears exactly at the predicted horizon.

use minobs_bench::{mark, Report};
use minobs_core::minimal::CanonicalMinimalObstruction;
use minobs_core::prelude::*;
use minobs_core::scheme::OmissionScheme;
use minobs_synth::checker::{gamma_alphabet, sigma_alphabet, solvable_by, CheckResult};

fn main() {
    minobs_obs::cli::handle_common_flags(
        "exp_bivalency",
        "bivalency chains for unsolvable schemes",
        "exp_bivalency",
    );
    println!("== TAB-BIVAL: bivalency chains from the model checker ==\n");
    let mut report = Report::new(
        "bivalency",
        &[
            "scheme",
            "horizon k",
            "solvable by k",
            "chain length",
            "views",
        ],
    );

    let gamma = gamma_alphabet();
    let schemes: Vec<(&str, Box<dyn OmissionScheme>)> = vec![
        ("R1 = Γω", Box::new(classic::r1())),
        (
            "canonical minimal obstruction",
            Box::new(CanonicalMinimalObstruction),
        ),
        (
            "Γω \\ {-(w)}",
            Box::new(ClassicScheme::GammaMinus(vec!["-(w)".parse().unwrap()])),
        ),
        ("S1", Box::new(classic::s1())),
        ("C1", Box::new(classic::c1())),
        ("S0", Box::new(classic::s0())),
    ];

    for (name, scheme) in &schemes {
        for k in 0..=5usize {
            let result = solvable_by(scheme.as_ref(), k, &gamma);
            let (chain_len, views) = match &result {
                CheckResult::Unsolvable { chain } => (chain.len().to_string(), "—".into()),
                CheckResult::Solvable { views, .. } => ("—".to_string(), views.to_string()),
                CheckResult::Empty => ("—".to_string(), "0".into()),
                // unbudgeted solvable_by never runs out of budget
                CheckResult::BudgetExhausted { .. } => unreachable!(),
            };
            report.row(&[name, &k, &mark(result.is_solvable()), &chain_len, &views]);
        }
    }

    // S2 needs the Σ alphabet.
    for k in 0..=4usize {
        let result = solvable_by(&classic::s2(), k, &sigma_alphabet());
        let chain_len = match &result {
            CheckResult::Unsolvable { chain } => chain.len().to_string(),
            _ => "—".into(),
        };
        report.row(&[
            &"S2 = Σω",
            &k,
            &mark(result.is_solvable()),
            &chain_len,
            &"—",
        ]);
    }
    minobs_bench::cli::require_artifact(report.finish());

    // Show one concrete chain — the machine-found analogue of Gray's
    // infinite regress of acknowledgments.
    println!("\nA concrete bivalency chain for Γω at horizon 2:");
    if let CheckResult::Unsolvable { chain } = solvable_by(&classic::r1(), 2, &gamma) {
        for (i, step) in chain.iter().enumerate() {
            println!(
                "  {:>2}. prefix {}  inputs (White={}, Black={})",
                i, step.prefix, step.white_input as u8, step.black_input as u8
            );
        }
        println!(
            "\nConsecutive executions are indistinguishable to one process; the ends are\n\
             pinned to different decisions by Validity — no algorithm can cut the chain."
        );
    }
}
