//! TAB-SIGMA — beyond Theorem III.8: schemes **with double omission**
//! (the paper's Section VI names their characterization as open), mapped
//! empirically with the bounded model checker over the full `Σ` alphabet.
//!
//! Two findings, both machine-verified here and sharpening the contrast
//! with the Γ world:
//!
//! * **excluding one prefix never helps in Σ** — `Σω ∖ w0·Σω` stays
//!   unsolvable at every horizon, for every probed `w0` (with or without
//!   `x` letters). In Γ, excluding any one prefix `w0` makes the scheme
//!   solvable at exactly `|w0|` rounds (Cor. III.14 / Prop. III.15); in Σ
//!   the surviving Γ-chains and the all-silent `x^k` chains keep the
//!   configuration space connected.
//! * **the `f+1` pattern survives double omission** — `ΣB_k` ("at most
//!   `k` lossy rounds, simultaneous losses allowed") is solvable at
//!   exactly `k+1` rounds, like its Γ twin.

use minobs_bench::{mark, Report};
use minobs_core::prelude::*;
use minobs_synth::checker::{first_solvable_horizon, sigma_alphabet, solvable_by, CheckResult};

fn main() {
    minobs_obs::cli::handle_common_flags("exp_sigma", "Σ-scheme solvability tables", "exp_sigma");
    println!("== TAB-SIGMA: double omission, explored with the model checker ==\n");
    let sigma = sigma_alphabet();

    println!("Σω avoiding one prefix — unsolvable at EVERY horizon (unlike Γ):");
    let mut avoid = Report::new(
        "sigma_avoid_prefix",
        &[
            "forbidden w0",
            "|w0|",
            "Γ-twin horizon",
            "Σ horizons 0..=4",
            "chain len @ |w0|",
        ],
    );
    for w0 in ["x", "w", "xx", "wx", "-x", "xbx", "wxb"] {
        let word: Word = w0.parse().unwrap();
        let scheme = ClassicScheme::SigmaAvoidPrefix(word.clone());
        let verdicts: Vec<bool> = (0..=4)
            .map(|k| solvable_by(&scheme, k, &sigma).is_solvable())
            .collect();
        assert!(verdicts.iter().all(|&v| !v), "{w0}: must stay unsolvable");
        let chain_len = match solvable_by(&scheme, word.len(), &sigma) {
            CheckResult::Unsolvable { chain } => chain.len(),
            _ => unreachable!(),
        };
        // The Γ twin (when w0 is a Γ-word) IS solvable at |w0|:
        let gamma_twin = word.to_gamma().map(|g| {
            use minobs_synth::checker::gamma_alphabet;
            first_solvable_horizon(
                &ClassicScheme::AvoidPrefix(g.to_word()),
                4,
                &gamma_alphabet(),
            )
        });
        let twin_text = match gamma_twin {
            Some(Some(h)) => h.to_string(),
            Some(None) => "> 4".into(),
            None => "n/a (w0 ∉ Γ*)".into(),
        };
        avoid.row(&[
            &w0,
            &word.len(),
            &twin_text,
            &format!("{verdicts:?}"),
            &chain_len,
        ]);
    }
    minobs_bench::cli::require_artifact(avoid.finish());

    println!("\nΣB_k — at most k lossy rounds, double omission allowed:");
    let mut budget = Report::new(
        "sigma_budget",
        &["k", "checker @ k", "checker @ k+1", "f+1 pattern holds"],
    );
    for k in 0..=3usize {
        let scheme = ClassicScheme::SigmaTotalBudget(k);
        let at_k = solvable_by(&scheme, k, &sigma).is_solvable();
        let at_k1 = solvable_by(&scheme, k + 1, &sigma).is_solvable();
        assert!(!at_k && at_k1, "k={k}");
        budget.row(&[&k, &mark(at_k), &mark(at_k1), &mark(!at_k && at_k1)]);
    }
    minobs_bench::cli::require_artifact(budget.finish());

    println!("\nΣω minus finitely many scenarios — never helps at bounded horizons:");
    let mut minus = Report::new(
        "sigma_minus",
        &["excluded", "horizons 0..=3 all unsolvable"],
    );
    let exclusions: Vec<Vec<Scenario>> = vec![
        vec!["(x)".parse().unwrap()],
        vec![
            "(x)".parse().unwrap(),
            "(w)".parse().unwrap(),
            "(b)".parse().unwrap(),
        ],
        vec!["(-)".parse().unwrap()],
    ];
    for excluded in exclusions {
        // Σω \ X has Pref = Σ*, so the checker behaves like S2 itself —
        // the bounded analogue of "if any messenger may be captured,
        // consensus is impossible".
        struct SigmaMinus(Vec<Scenario>);
        impl OmissionScheme for SigmaMinus {
            fn contains(&self, w: &Scenario) -> bool {
                !self.0.contains(w)
            }
            fn allows_prefix(&self, _u: &Word) -> bool {
                true
            }
            fn name(&self) -> String {
                "Σω minus finite set".into()
            }
        }
        let scheme = SigmaMinus(excluded.clone());
        let all_unsolvable = first_solvable_horizon(&scheme, 3, &sigma).is_none();
        assert!(all_unsolvable);
        let names: Vec<String> = excluded.iter().map(|s| s.to_string()).collect();
        minus.row(&[&names.join(", "), &mark(all_unsolvable)]);
    }
    minobs_bench::cli::require_artifact(minus.finish());

    println!(
        "\nSection VI's open question, bounded: one excluded prefix is enough to cut\n\
         every Γ-chain but never enough in Σ — any future characterization of\n\
         double-omission obstructions must remove *sets* of prefixes large enough\n\
         to cut both the Γ-chains and the all-silent chains simultaneously."
    );
}
