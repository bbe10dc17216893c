//! FIG1 — regenerates Figure 1: the index table for words of length ≤ 2,
//! plus the bijectivity audit for longer lengths (Lemma III.2).

use minobs_bench::Report;
use minobs_bigint::pow3;
use minobs_core::index::{ind, ind_inv};
use minobs_core::word::GammaWord;

fn main() {
    minobs_obs::cli::handle_common_flags(
        "exp_fig1",
        "Figure 1 index table and bijectivity audit",
        "exp_fig1",
    );
    println!("== FIG1: ind(w) for all w ∈ Γ^r, r ≤ 2 (paper Figure 1) ==\n");
    let mut report = Report::new("fig1", &["word", "length", "ind"]);
    for r in 1..=2usize {
        let mut rows: Vec<(String, u64)> = GammaWord::enumerate_all(r)
            .map(|w| (w.to_string(), ind(&w).to_u64().unwrap()))
            .collect();
        rows.sort_by_key(|(_, v)| *v);
        for (word, value) in rows {
            report.row(&[&word, &r, &value]);
        }
    }
    minobs_bench::cli::require_artifact(report.finish());

    println!("\nBijectivity audit (Lemma III.2): ind is a bijection Γ^r → [0, 3^r - 1]");
    let mut audit = Report::new(
        "fig1_bijectivity",
        &[
            "r",
            "words",
            "distinct indexes",
            "max index",
            "3^r - 1",
            "roundtrip ok",
        ],
    );
    for r in 0..=9usize {
        let mut seen = std::collections::BTreeSet::new();
        let mut max = 0u64;
        let mut roundtrip = true;
        let mut count = 0usize;
        for w in GammaWord::enumerate_all(r) {
            let v = ind(&w);
            let v64 = v.to_u64().unwrap();
            seen.insert(v64);
            max = max.max(v64);
            roundtrip &= ind_inv(r, &v) == Some(w);
            count += 1;
        }
        let expect = pow3(r as u32)
            .pred()
            .map(|p| p.to_u64().unwrap())
            .unwrap_or(0);
        audit.row(&[&r, &count, &seen.len(), &max, &expect, &roundtrip]);
        assert_eq!(seen.len(), count, "injective");
        assert_eq!(max, expect, "surjective onto the range");
        assert!(roundtrip);
    }
    minobs_bench::cli::require_artifact(audit.finish());
}
