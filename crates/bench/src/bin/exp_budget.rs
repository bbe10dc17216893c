//! TAB-BUDGET — the classic total-omission budget `B_k` ("at most `k`
//! messages lost, ever") expressed as an omission scheme and analyzed with
//! the paper's machinery. Reproduces the textbook `f + 1`-round bound
//! three independent ways:
//!
//! * `min_excluded_prefix` (Cor. III.14's `p`) = `k + 1`;
//! * the full-information model checker proves **no** `k`-round algorithm
//!   exists and finds one at `k + 1` — the content of the Aguilera–Toueg
//!   bivalency bound the paper cites as `\[AT99\]`;
//! * the capped `A_w` decides within `k + 1` rounds on every member.

use minobs_bench::{mark, write_metrics_snapshot, Report};
use minobs_core::prelude::*;
use minobs_core::scenario::enumerate_gamma_lassos;
use minobs_core::theorem::min_excluded_prefix;
use minobs_obs::{MetricsRecorder, MetricsRegistry};
use minobs_synth::checker::{gamma_alphabet, Budget, Check};
use std::sync::Arc;

fn main() {
    minobs_obs::cli::handle_common_flags(
        "exp_budget",
        "budgeted checker degradation table",
        "exp_budget",
    );
    println!("== TAB-BUDGET: at most k total losses ⇒ exactly k+1 rounds ==\n");
    let mut report = Report::new(
        "total_budget",
        &[
            "k (budget)",
            "solvable",
            "p = min excluded prefix",
            "checker @ k",
            "checker @ k+1",
            "measured worst rounds",
        ],
    );

    // Checker runs feed a metrics registry (frontier sizes, span
    // durations, progress heartbeats); the snapshot lands next to the
    // report for `trace diff`-style comparisons across revisions.
    let registry = Arc::new(MetricsRegistry::new());
    let mut metrics = MetricsRecorder::new(Arc::clone(&registry));

    let gamma = gamma_alphabet();
    let check = Check {
        alphabet: &gamma,
        budget: Budget::UNLIMITED,
    };
    for k in 0..=4usize {
        let scheme = classic::total_budget(k);
        let verdict = decide_classic(&scheme);
        assert!(verdict.is_solvable());
        let (p, w0) = min_excluded_prefix(&scheme, 6).unwrap();
        assert_eq!(p, k + 1);

        let at_k = check.at(&scheme, k, &mut metrics).is_solvable();
        let at_k1 = check.at(&scheme, k + 1, &mut metrics).is_solvable();
        assert!(!at_k, "no k-round algorithm for budget k");
        assert!(at_k1, "a (k+1)-round algorithm exists");

        // Measured: capped A_w over the scheme's lasso members.
        let w = Scenario::new(w0.to_word(), "b".parse().unwrap());
        let mut worst = 0usize;
        for s in enumerate_gamma_lassos(3, 1) {
            if !scheme.contains(&s) {
                continue;
            }
            for (wi, bi) in [(false, true), (true, false), (true, true)] {
                let mut white = AwProcess::new(Role::White, wi, w.clone()).with_round_cap(p);
                let mut black = AwProcess::new(Role::Black, bi, w.clone()).with_round_cap(p);
                let out = run_two_process(&mut white, &mut black, &s, p + 8);
                assert!(out.verdict.is_consensus(), "budget {k} on {s}");
                worst = worst.max(out.rounds);
            }
        }
        assert!(worst <= p);
        report.row(&[&k, &mark(true), &p, &mark(at_k), &mark(at_k1), &worst]);
    }
    minobs_bench::cli::require_artifact(report.finish());
    write_metrics_snapshot("exp_budget", &registry.snapshot());
    println!(
        "\nThe classic 'f omissions ⇒ f+1 rounds' result, recovered as a one-line\n\
         corollary of the omission-scheme framework: Γ^(k+1) ⊄ Pref(B_k)."
    );
}
