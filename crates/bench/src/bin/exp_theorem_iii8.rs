//! TAB-III8 — Theorem III.8 condition-by-condition over a catalog of
//! schemes, decided twice: by the exact classic procedure and by the
//! ω-automata engine. The two must agree everywhere.

use minobs_bench::{mark, Report};
use minobs_core::prelude::*;
use minobs_core::scheme::GammaScheme;
use minobs_omega::schemes as rs;

fn describe(v: &Solvability) -> String {
    match v {
        Solvability::Solvable { condition, witness } => format!("{condition:?} ({witness})"),
        Solvability::Obstruction => "— obstruction".into(),
    }
}

fn main() {
    minobs_obs::cli::handle_common_flags(
        "exp_theorem_iii8",
        "Theorem III.8 verdict table",
        "exp_theorem_iii8",
    );
    println!("== TAB-III8: the four conditions of Theorem III.8, scheme by scheme ==\n");
    let mut report = Report::new(
        "theorem_iii8",
        &[
            "scheme",
            "missing fair?",
            "(w)ω ∉ L?",
            "(b)ω ∉ L?",
            "missing pair?",
            "verdict (classic)",
            "automata agrees",
        ],
    );

    let catalog: Vec<(ClassicScheme, Option<rs::RegularScheme>)> = vec![
        (classic::s0(), Some(rs::regular_s0())),
        (classic::t_white(), Some(rs::regular_t(Role::White))),
        (classic::t_black(), Some(rs::regular_t(Role::Black))),
        (classic::c1(), Some(rs::regular_c1())),
        (classic::s1(), Some(rs::regular_s1())),
        (classic::r1(), Some(rs::regular_r1())),
        (classic::fair_gamma(), Some(rs::regular_fair())),
        (classic::almost_fair(), Some(rs::regular_almost_fair())),
        (
            ClassicScheme::GammaMinus(vec!["-(w)".parse().unwrap(), "b(w)".parse().unwrap()]),
            Some(rs::regular_gamma_minus(&[
                "-(w)".parse().unwrap(),
                "b(w)".parse().unwrap(),
            ])),
        ),
        (
            ClassicScheme::GammaMinus(vec!["-(w)".parse().unwrap()]),
            Some(rs::regular_gamma_minus(&["-(w)".parse().unwrap()])),
        ),
        (
            ClassicScheme::AvoidPrefix("wb".parse().unwrap()),
            Some(rs::regular_avoid_prefix(&"wb".parse().unwrap())),
        ),
    ];

    for (cls, reg) in catalog {
        let missing_fair = cls.missing_fair_scenario();
        let missing_w = !cls.contains_constant_drop(Role::White);
        let missing_b = !cls.contains_constant_drop(Role::Black);
        let missing_pair = cls.missing_special_pair();
        let verdict = decide_gamma(&cls);

        let agrees = reg
            .map(|r| {
                let rv = rs::decide_regular(&r);
                rv.is_solvable() == verdict.is_solvable()
            })
            .unwrap_or(true);
        assert!(agrees, "{}: engines disagree", cls.name());

        report.row(&[
            &cls.name(),
            &missing_fair
                .map(|f| f.to_string())
                .unwrap_or_else(|| "none".into()),
            &mark(missing_w),
            &mark(missing_b),
            &missing_pair
                .map(|(a, b)| format!("({a}, {b})"))
                .unwrap_or_else(|| "none".into()),
            &describe(&verdict),
            &mark(agrees),
        ]);
    }
    minobs_bench::cli::require_artifact(report.finish());
    println!("\nSolvable ⇔ at least one condition holds; both engines agree on every row.");
}
