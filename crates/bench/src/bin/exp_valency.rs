//! TAB-VALENCY — Definitions III.9/III.10 executed: valency maps of short
//! prefixes under the concrete `A_w`, decisive prefixes for bounded
//! schemes, and the obstruction-side dichotomy of Lemma III.11.

use minobs_bench::Report;
use minobs_core::prelude::*;
use minobs_core::theorem::min_excluded_prefix;
use minobs_core::valency::{default_extension_basis, find_decisive_prefix, valency, Valency};
use minobs_core::word::GammaWord;

fn show(v: &Valency) -> String {
    match v {
        Valency::Zero => "0-valent".into(),
        Valency::One => "1-valent".into(),
        Valency::Bivalent { .. } => "BIVALENT".into(),
        Valency::Unknown => "(no extension in L)".into(),
    }
}

fn main() {
    minobs_obs::cli::handle_common_flags("exp_valency", "valency analysis tables", "exp_valency");
    println!("== TAB-VALENCY: valency maps under A_w (initial configuration I = (0, 1)) ==\n");
    let basis = default_extension_basis();

    let mut report = Report::new("valency_map", &["scheme", "prefix", "valency"]);
    for scheme in [classic::s1(), classic::c1()] {
        let w = decide_classic(&scheme).witness().unwrap().clone();
        let factory = {
            let w = w.clone();
            move |role, input| AwProcess::new(role, input, w.clone())
        };
        for len in 0..=2usize {
            for prefix in GammaWord::enumerate_all(len) {
                let word = prefix.to_word();
                if !scheme.allows_prefix(&word) {
                    continue;
                }
                let v = valency(&factory, &scheme, &word, &basis, 256);
                report.row(&[&scheme.name(), &word, &show(&v)]);
            }
        }
    }
    minobs_bench::cli::require_artifact(report.finish());

    println!("\nDecisive prefixes (Definition III.10) for bounded schemes, via capped A_w:");
    let mut decisive = Report::new("decisive_prefixes", &["scheme", "p", "decisive prefix"]);
    for scheme in [
        classic::s0(),
        classic::t_white(),
        classic::c1(),
        classic::s1(),
    ] {
        let (p, w0) = min_excluded_prefix(&scheme, 4).unwrap();
        let w = Scenario::new(w0.to_word(), "b".parse().unwrap());
        let factory = {
            let w = w.clone();
            move |role, input| AwProcess::new(role, input, w.clone()).with_round_cap(p)
        };
        let found = find_decisive_prefix(&factory, &scheme, &basis, p + 1, 64);
        decisive.row(&[
            &scheme.name(),
            &p,
            &found
                .map(|v| v.to_string())
                .unwrap_or_else(|| "none within depth".into()),
        ]);
    }
    minobs_bench::cli::require_artifact(decisive.finish());
    println!(
        "\n('none within depth' for the 1-round schemes is correct: their minimal\n\
         excluded word is a constant-drop word, so the witness is a constant-tail\n\
         scenario and A_w degenerates to a value dictatorship — ε is already\n\
         univalent and no bivalent prefix exists at all. The 2-round schemes have\n\
         ε itself as the decisive prefix: bivalent, with all three children\n\
         univalent, exactly the §III-C picture.)"
    );

    println!(
        "\nObstruction side (Lemma III.11's dichotomy): on R1 = Γω, every bivalent\n\
         prefix keeps a bivalent child — the decisive-prefix search never halts:"
    );
    let w: Scenario = "(b)".parse().unwrap();
    let factory = move |role, input| AwProcess::new(role, input, w.clone());
    let r1 = classic::r1();
    for depth in 1..=3 {
        let found = find_decisive_prefix(&factory, &r1, &basis, depth, 128);
        println!("  depth ≤ {depth}: decisive prefix = {found:?}");
        assert_eq!(found, None);
    }
    println!(
        "\nAnd the almost-fair curiosity: A_(b)ω is a Black-value dictatorship\n\
         (see core::valency tests) — ε is univalent for it, which is fine:\n\
         dictatorships satisfy uniform consensus."
    );
}
