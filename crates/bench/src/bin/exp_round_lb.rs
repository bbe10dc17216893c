//! TAB-LB — round-complexity tightness (Corollary III.14 /
//! Proposition III.15): sweep forbidden-prefix schemes with `p = 1..8` and
//! show the three quantities coincide:
//!
//! * the theory bound `p` (smallest length with an excluded prefix);
//! * the model checker's first solvable horizon (lower bound side);
//! * the measured worst-case rounds of the capped `A_w` (upper bound side).

use minobs_bench::Report;
use minobs_core::prelude::*;
use minobs_core::scenario::enumerate_gamma_lassos;
use minobs_core::theorem::min_excluded_prefix;
use minobs_synth::checker::{first_solvable_horizon, gamma_alphabet, solvable_by};

fn main() {
    minobs_obs::cli::handle_common_flags("exp_round_lb", "round lower-bound table", "exp_round_lb");
    println!("== TAB-LB: tight round complexity for AvoidPrefix schemes ==\n");
    let mut report = Report::new(
        "round_lb",
        &[
            "forbidden w0",
            "p (theory)",
            "checker horizon",
            "solvable at p-1?",
            "measured worst rounds",
        ],
    );

    // One forbidden word per length, lengths 1..=8 (checker horizons kept
    // to ≤ 6 for runtime; beyond that only theory+measurement).
    let words = [
        "w", "wb", "bw-", "w-b-", "bbwww", "w-b-w-", "bwbwbwb", "w-bw-bw-",
    ];
    for w0_text in words {
        let w0: GammaWord = w0_text.parse().unwrap();
        let scheme = ClassicScheme::AvoidPrefix(w0.to_word());
        let (p, excluded) = min_excluded_prefix(&scheme, 8).expect("bounded");
        assert_eq!(p, w0.len());
        assert_eq!(excluded, w0);

        let (horizon, below) = if p <= 6 {
            let h = first_solvable_horizon(&scheme, p + 1, &gamma_alphabet());
            let below = if p > 0 {
                solvable_by(&scheme, p - 1, &gamma_alphabet()).is_solvable()
            } else {
                false
            };
            assert_eq!(h, Some(p), "checker matches theory for {w0_text}");
            assert!(!below, "no algorithm below p for {w0_text}");
            (p.to_string(), below.to_string())
        } else {
            ("(skipped)".into(), "(skipped)".into())
        };

        // Measured: capped A_w over lasso members.
        let w = Scenario::new(w0.to_word(), "b".parse().unwrap());
        let mut worst = 0usize;
        let mut runs = 0usize;
        for s in enumerate_gamma_lassos(2, 2) {
            if !scheme.contains(&s) {
                continue;
            }
            for (wi, bi) in [(false, true), (true, false), (true, true)] {
                let mut white = AwProcess::new(Role::White, wi, w.clone()).with_round_cap(p);
                let mut black = AwProcess::new(Role::Black, bi, w.clone()).with_round_cap(p);
                let out = run_two_process(&mut white, &mut black, &s, p + 16);
                assert!(out.verdict.is_consensus(), "{w0_text} on {s}");
                worst = worst.max(out.rounds);
                runs += 1;
            }
        }
        assert!(runs > 0);
        assert!(worst <= p, "{w0_text}: capped A_w stays within p");
        report.row(&[&w0_text, &p, &horizon, &below, &worst]);
    }
    minobs_bench::cli::require_artifact(report.finish());
    println!("\np = checker horizon = measured worst rounds, for every swept prefix length.");
}
