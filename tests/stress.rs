//! Scale tests — `#[ignore]`d by default, run with
//! `cargo test --release -- --ignored`. Each pushes one subsystem an
//! order of magnitude past the unit-test sizes.

use minobs_core::prelude::*;
use minobs_synth::checker::{gamma_alphabet, solvable_by, CheckResult};

#[test]
#[ignore = "scale test: 3^9 executions through the checker"]
fn checker_deep_horizon_chain_formula() {
    // The bivalency chain formula 2·3^k + 1, pushed to k = 9
    // (19 683 prefixes × 4 input pairs ≈ 79k executions).
    for k in [7usize, 8, 9] {
        let CheckResult::Unsolvable { chain } = solvable_by(&classic::r1(), k, &gamma_alphabet())
        else {
            panic!("R1 is an obstruction");
        };
        assert_eq!(chain.len(), 2 * 3usize.pow(k as u32) + 1, "k={k}");
    }
}

#[test]
#[ignore = "scale test: long-scenario index arithmetic"]
fn index_calculus_at_length_3000() {
    use minobs_bigint::pow3;
    use minobs_core::index::{ind, ind_inv, IndexTracker};
    use minobs_core::letter::GammaLetter;
    use minobs_core::word::GammaWord;

    // 3^3000 has ~4757 bits; the calculus must stay exact.
    let w: GammaWord = (0..3000).map(|i| GammaLetter::ALL[i % 3]).collect();
    let v = ind(&w);
    assert!(v < pow3(3000));
    assert_eq!(ind_inv(3000, &v), Some(w.clone()));

    let mut t = IndexTracker::new();
    for a in w.iter() {
        t.push(a);
    }
    assert_eq!(t.into_value(), v);
}

#[test]
#[ignore = "scale test: A_w under a 2000-round adversary"]
fn aw_survives_long_adversarial_prefix() {
    // A scenario that stays adjacent to the witness for a long transient
    // before diverging: A_w must remain exact (bigint) and decide.
    let w: Scenario = "(b)".parse().unwrap();
    // (wb)-cycling scenario: fair, diverges from (b)ω immediately, but we
    // delay the engine budget to force thousands of bigint rounds on the
    // forbidden scenario first.
    let mut white = AwProcess::new(Role::White, true, w.clone());
    let mut black = AwProcess::new(Role::Black, false, w.clone());
    let out = run_two_process(&mut white, &mut black, &w, 2000);
    assert_eq!(out.rounds, 2000, "never decides on the forbidden scenario");
    assert!(matches!(out.verdict, Verdict::Undecided));

    // And a member scenario still decides fast afterwards.
    let member: Scenario = "(wb)".parse().unwrap();
    let mut white = AwProcess::new(Role::White, true, w.clone());
    let mut black = AwProcess::new(Role::Black, false, w);
    let out = run_two_process(&mut white, &mut black, &member, 64);
    assert!(out.verdict.is_consensus());
}

#[test]
#[ignore = "scale test: 400-node network"]
fn large_network_flooding() {
    use minobs_graphs::generators;
    use minobs_net::{DecisionRule, FloodConsensus};
    use minobs_sim::adversary::RandomOmissions;
    use minobs_sim::network::run_network;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let g = generators::torus(20, 20);
    let n = g.vertex_count();
    let inputs: Vec<u64> = (0..n as u64).collect();
    let nodes = FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId);
    // c(torus) = 4; f = 3 keeps the threshold satisfied.
    let mut adv = RandomOmissions::new(3, StdRng::seed_from_u64(1));
    let out = run_network(&g, nodes, &mut adv, 2 * n);
    assert_eq!(out.verdict.expect_consensus(), 0);
    assert_eq!(out.stats.rounds, n - 1);
}

#[test]
#[ignore = "scale test: connectivity on large graphs"]
fn connectivity_on_large_families() {
    use minobs_graphs::{edge_connectivity, generators};
    assert_eq!(edge_connectivity(&generators::hypercube(8)), 8); // 256 nodes
    assert_eq!(edge_connectivity(&generators::torus(12, 12)), 4);
    assert_eq!(edge_connectivity(&generators::barbell(30, 7)), 7);
}

#[test]
#[ignore = "scale test: special pairs with long transients"]
fn spair_decision_long_lassos() {
    use minobs_core::spair::{is_special_pair, special_partner};
    // A long unfair scenario and its constructed partner.
    let prefix: String = "wb-".repeat(120);
    let w: Scenario = format!("{prefix}(b)").parse().unwrap();
    let p = special_partner(&w).expect("non-constant unfair has a partner");
    assert!(is_special_pair(&w, &p));
}
