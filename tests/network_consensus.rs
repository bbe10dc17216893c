//! Integration of Section V: Theorem V.1 exercised end-to-end over graph
//! families — `f < c(G)` runs reach consensus under hostile adversaries,
//! `f = c(G)` cut adversaries break flooding, and the quantities
//! (`c(G)`, `deg(G)`, cut partitions) line up with the theory.

use minobs_graphs::{
    cut_partition, edge_connectivity, generators, min_degree, partition::validate_partition, Graph,
};
use minobs_net::{DecisionRule, FloodConsensus};
use minobs_sim::adversary::{BudgetChecked, CutAdversary, GreedyCutAdversary, RandomOmissions};
use minobs_sim::network::{run_network, NetVerdict};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("cycle(8)", generators::cycle(8)),
        ("complete(6)", generators::complete(6)),
        ("grid(3x4)", generators::grid(3, 4)),
        ("torus(3x3)", generators::torus(3, 3)),
        ("hypercube(3)", generators::hypercube(3)),
        ("barbell(4,2)", generators::barbell(4, 2)),
        ("theta(3,2)", generators::theta(3, 2)),
        ("petersen", generators::petersen()),
        ("star(7)", generators::star(7)),
    ]
}

fn distinct_inputs(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 100 + i).collect()
}

#[test]
fn flooding_succeeds_for_f_below_connectivity_on_all_families() {
    for (name, g) in families() {
        let c = edge_connectivity(&g);
        assert!(c >= 1, "{name}");
        let n = g.vertex_count();
        for f in 0..c {
            for seed in 0..5u64 {
                let nodes =
                    FloodConsensus::fleet(&g, &distinct_inputs(n), DecisionRule::ValueOfMinId);
                let mut adv =
                    BudgetChecked::new(RandomOmissions::new(f, StdRng::seed_from_u64(seed)), f);
                let out = run_network(&g, nodes, &mut adv, 2 * n);
                assert_eq!(
                    out.verdict,
                    NetVerdict::Consensus(100),
                    "{name} f={f} seed={seed}"
                );
                assert_eq!(out.stats.rounds, n - 1, "{name} decides in n-1 rounds");
            }
        }
    }
}

#[test]
fn cut_adversary_at_connectivity_breaks_flooding_on_all_families() {
    for (name, g) in families() {
        let n = g.vertex_count();
        let p = cut_partition(&g).expect(name);
        assert!(validate_partition(&g, &p).is_empty(), "{name}");
        // Silence A→B forever: the B side can never learn A's values.
        let nodes = FloodConsensus::fleet(&g, &distinct_inputs(n), DecisionRule::ValueOfMinId);
        let mut adv = CutAdversary::new(&p, "(w)".parse().unwrap());
        let out = run_network(&g, nodes, &mut adv, 2 * n);
        assert!(
            matches!(out.verdict, NetVerdict::Disagreement { .. }),
            "{name}: {:?}",
            out.verdict
        );
        // And the adversary never exceeded f = c(G) drops per round.
        assert!(
            out.stats.max_drops_per_round <= edge_connectivity(&g),
            "{name}"
        );
    }
}

#[test]
fn greedy_cut_adversary_also_breaks_flooding() {
    for (name, g) in [
        ("barbell(4,2)", generators::barbell(4, 2)),
        ("cycle(7)", generators::cycle(7)),
    ] {
        let n = g.vertex_count();
        let p = cut_partition(&g).unwrap();
        let nodes = FloodConsensus::fleet(&g, &distinct_inputs(n), DecisionRule::ValueOfMinId);
        let mut adv = GreedyCutAdversary::new(&p);
        let out = run_network(&g, nodes, &mut adv, 2 * n);
        assert!(
            !out.verdict.is_consensus(),
            "{name}: greedy cut at f = c(G) must block consensus, got {:?}",
            out.verdict
        );
    }
}

#[test]
fn connectivity_thresholds_match_theorem_v1_shape() {
    // The theorem's crossover: solvable ⇔ f < c(G). Empirically, for each
    // family, flooding always works at f = c-1 and the cut adversary
    // always defeats it at f = c. Also c(G) ≤ deg(G) with strictness on
    // the barbell/theta families (the Santoro–Widmayer gap).
    for (name, g) in families() {
        let c = edge_connectivity(&g);
        let d = min_degree(&g);
        assert!(c <= d, "{name}");
        if name.starts_with("barbell") {
            assert!(c < d, "{name} exhibits the open-question gap c < deg");
        }
    }
}

#[test]
fn uniform_inputs_survive_even_hostile_cuts() {
    // Validity stress: all nodes propose the same value; no adversary can
    // make flooding break validity (it can only delay).
    for (name, g) in families() {
        let n = g.vertex_count();
        let p = cut_partition(&g).unwrap();
        let nodes = FloodConsensus::fleet(&g, &vec![42; n], DecisionRule::ValueOfMinId);
        let mut adv = CutAdversary::new(&p, "(wb)".parse().unwrap());
        let out = run_network(&g, nodes, &mut adv, 2 * n);
        assert_eq!(out.verdict, NetVerdict::Consensus(42), "{name}");
    }
}

#[test]
fn random_connected_graphs_follow_the_threshold() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let g = generators::gnp_connected(9, 0.4, &mut rng);
        let c = edge_connectivity(&g);
        let n = g.vertex_count();
        // f = c - 1: success.
        if c >= 1 {
            let nodes = FloodConsensus::fleet(&g, &distinct_inputs(n), DecisionRule::ValueOfMinId);
            let mut adv = BudgetChecked::new(
                RandomOmissions::new(c - 1, StdRng::seed_from_u64(seed)),
                c - 1,
            );
            let out = run_network(&g, nodes, &mut adv, 2 * n);
            assert_eq!(out.verdict, NetVerdict::Consensus(100), "seed {seed}");
        }
        // f = c with the cut adversary: failure.
        let p = cut_partition(&g).unwrap();
        let nodes = FloodConsensus::fleet(&g, &distinct_inputs(n), DecisionRule::ValueOfMinId);
        let mut adv = CutAdversary::new(&p, "(w)".parse().unwrap());
        let out = run_network(&g, nodes, &mut adv, 2 * n);
        assert!(!out.verdict.is_consensus(), "seed {seed}");
    }
}

#[test]
fn algorithm_l_closes_the_gap_on_barbells() {
    // On barbell graphs c(G) < deg(G): Santoro–Widmayer's own results
    // leave c ≤ f < deg open; Theorem V.1 (via A_L on solvable
    // sub-schemes) says consensus IS solvable for any L ⊆ Γ_C^ω with
    // ρ(L) solvable — exercised here with the almost-fair sub-scheme.
    use minobs_net::AlgorithmL;
    let g = generators::barbell(4, 2);
    let p = cut_partition(&g).unwrap();
    let inputs: Vec<u64> = (0..g.vertex_count())
        .map(|v| p.side_b.contains(&v) as u64)
        .collect();
    for v in ["(-)", "(w)", "(wb)", "-(b)", "w(b)"] {
        let fleet = AlgorithmL::fleet(&g, &p, &"(b)".parse().unwrap(), &inputs);
        let mut adv = CutAdversary::new(&p, v.parse().unwrap());
        let out = run_network(&g, fleet, &mut adv, 128);
        assert!(out.verdict.is_consensus(), "{v}: {:?}", out.verdict);
    }
}
