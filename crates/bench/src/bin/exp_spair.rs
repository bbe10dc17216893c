//! TAB-SPAIR — the special-pair structure of Section IV-C: the matching
//! over unfair scenarios, exact covers, minimal obstructions, the
//! descending chain, and the distance of Γω from minimality.

use minobs_bench::{mark, Report};
use minobs_core::minimal::{
    build_spair_graph, descending_chain, distance_to_minimality, is_lower_pair_member,
    CanonicalMinimalObstruction,
};
use minobs_core::prelude::*;
use minobs_core::spair::{classify_pair, SPairVerdict};
use minobs_core::theorem::decide_gamma;

fn main() {
    minobs_obs::cli::handle_common_flags(
        "exp_spair",
        "special-pair tables and Theorem III.8 verdicts",
        "exp_spair",
    );
    println!("== TAB-SPAIR: the bipartite (matching) structure of special pairs ==\n");
    let mut report = Report::new(
        "spair_graph",
        &[
            "transient ≤",
            "unfair lassos",
            "special pairs",
            "matching?",
            "isolated (constants)",
            "lower members",
        ],
    );
    for max_prefix in 0..=4usize {
        let g = build_spair_graph(max_prefix);
        let isolated = (0..g.nodes.len()).filter(|&i| g.degree(i) == 0).count();
        report.row(&[
            &max_prefix,
            &g.nodes.len(),
            &g.edges.len(),
            &mark(g.is_matching()),
            &isolated,
            &distance_to_minimality(max_prefix),
        ]);
        assert!(g.is_matching());
    }
    minobs_bench::cli::require_artifact(report.finish());

    println!("\nPair verdict samples (decision procedure with reasons):");
    let mut verdicts = Report::new("spair_verdicts", &["w", "w'", "verdict"]);
    let samples = [
        ("-(w)", "b(w)"),
        ("--(b)", "-w(b)"),
        ("(w)", "-(w)"),
        ("(w)", "(b)"),
        ("(w)", "w(ww)"),
        ("(wb)", "(bw)"),
    ];
    for (a, b) in samples {
        let va: Scenario = a.parse().unwrap();
        let vb: Scenario = b.parse().unwrap();
        let verdict = classify_pair(&va, &vb);
        let text = match verdict {
            SPairVerdict::Special { first_divergence } => {
                format!("SPECIAL (diverges at round {first_divergence}, stays adjacent)")
            }
            SPairVerdict::EqualWords => "equal words".into(),
            SPairVerdict::Diverges { round } => format!("diverges at round {round}"),
            SPairVerdict::NotGamma => "outside Γω".into(),
        };
        verdicts.row(&[&a, &b, &text]);
    }
    minobs_bench::cli::require_artifact(verdicts.finish());

    println!("\nMinimal obstructions and the descending chain:");
    let mut minimality = Report::new("minimality", &["scheme", "verdict", "note"]);
    let cmo = CanonicalMinimalObstruction;
    minimality.row(&[
        &cmo.name(),
        &format!("{:?}", decide_gamma(&cmo)),
        &"minimal: removing any scenario flips it to solvable",
    ]);
    for (i, l) in descending_chain(3).iter().enumerate() {
        minimality.row(&[
            &l.name(),
            &format!("{:?}", decide_gamma(l)),
            &format!("chain element L_{i}: strictly smaller, still an obstruction"),
        ]);
    }
    minobs_bench::cli::require_artifact(minimality.finish());

    println!("\nLower/upper classification (parity rule) for a few unfair lassos:");
    for s in [
        "-(w)", "b(w)", "w(b)", "-(b)", "--(b)", "-w(b)", "(w)", "(b)",
    ] {
        let sc: Scenario = s.parse().unwrap();
        let class = match is_lower_pair_member(&sc) {
            Some(true) => "LOWER member of its pair",
            Some(false) => "UPPER member of its pair",
            None => "unmatched (fair or constant)",
        };
        println!("  {s:<8} {class}");
    }
}
