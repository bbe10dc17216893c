//! Integration of the Section V-B reduction: the emulation `A'` of a
//! network algorithm is execution-equivalent to the network run through
//! `ρ`, across graph families, scenarios, and inputs — the mechanical
//! content of the Theorem V.1 impossibility proof.

use minobs_core::engine::run_two_process;
use minobs_core::letter::Role;
use minobs_core::scenario::Scenario;
use minobs_graphs::{cut_partition, generators, CutPartition, Graph};
use minobs_net::{DecisionRule, EmulatedSide, FloodConsensus};
use minobs_sim::adversary::CutAdversary;
use minobs_sim::network::{run_network, NodeProtocol as _};

fn sc(s: &str) -> Scenario {
    s.parse().unwrap()
}

fn side_inputs(g: &Graph, p: &CutPartition, wi: bool, bi: bool) -> Vec<u64> {
    (0..g.vertex_count())
        .map(|v| {
            if p.side_a.contains(&v) {
                wi as u64
            } else {
                bi as u64
            }
        })
        .collect()
}

fn split(
    g: &Graph,
    p: &CutPartition,
    inputs: &[u64],
) -> (Vec<FloodConsensus>, Vec<FloodConsensus>) {
    let fleet = FloodConsensus::fleet(g, inputs, DecisionRule::ValueOfMinId);
    let mut a = Vec::new();
    let mut b = Vec::new();
    for (v, node) in fleet.into_iter().enumerate() {
        if p.side_a.contains(&v) {
            a.push(node);
        } else {
            b.push(node);
        }
    }
    (a, b)
}

/// The full equivalence check for one (graph, scenario, inputs) triple.
fn check_equivalence(g: &Graph, p: &CutPartition, v: &str, wi: bool, bi: bool) {
    let inputs = side_inputs(g, p, wi, bi);

    // Network run under ρ⁻¹(v).
    let fleet = FloodConsensus::fleet(g, &inputs, DecisionRule::ValueOfMinId);
    let mut adv = CutAdversary::new(p, sc(v));
    let net = run_network(g, fleet, &mut adv, 4 * g.vertex_count());

    // Emulated two-process run under v.
    let (side_a, side_b) = split(g, p, &inputs);
    let mut white = EmulatedSide::new(Role::White, wi, g, p, side_a);
    let mut black = EmulatedSide::new(Role::Black, bi, g, p, side_b);
    let _ = run_two_process(&mut white, &mut black, &sc(v), 4 * g.vertex_count());

    // Decision-for-decision equality.
    let mut emulated = vec![None; g.vertex_count()];
    for &node in &p.side_a {
        emulated[node] = white.node(node).unwrap().decision();
    }
    for &node in &p.side_b {
        emulated[node] = black.node(node).unwrap().decision();
    }
    assert_eq!(
        net.decisions, emulated,
        "graph {g} scenario {v} inputs ({wi},{bi})"
    );
}

#[test]
fn emulation_equivalence_across_families_and_scenarios() {
    let graphs = [
        generators::barbell(3, 2),
        generators::barbell(4, 2),
        generators::cycle(6),
        generators::theta(3, 2),
        generators::star(5),
        generators::grid(2, 3),
    ];
    let scenarios = ["(-)", "(w)", "(b)", "(wb)", "w-(b)", "bw(-)", "(x)", "x(-)"];
    for g in &graphs {
        let p = cut_partition(g).unwrap();
        for v in scenarios {
            for (wi, bi) in [(false, true), (true, false), (true, true)] {
                check_equivalence(g, &p, v, wi, bi);
            }
        }
    }
}

#[test]
fn emulation_preserves_round_counts() {
    // Both executions consume the same letters: halting happens after the
    // same number of rounds (flood decides at n-1 everywhere).
    let g = generators::barbell(3, 2);
    let p = cut_partition(&g).unwrap();
    let inputs = side_inputs(&g, &p, true, false);

    let fleet = FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId);
    let mut adv = CutAdversary::new(&p, sc("(wb)"));
    let net = run_network(&g, fleet, &mut adv, 64);

    let (side_a, side_b) = split(&g, &p, &inputs);
    let mut white = EmulatedSide::new(Role::White, true, &g, &p, side_a);
    let mut black = EmulatedSide::new(Role::Black, false, &g, &p, side_b);
    let two = run_two_process(&mut white, &mut black, &sc("(wb)"), 64);

    assert_eq!(net.stats.rounds, two.rounds);
}

#[test]
fn rho_roundtrip_on_scripts() {
    // scenario → Γ_C script → within-scheme validation, end to end.
    use minobs_net::scheme_net::{scenario_to_script, script_within_gamma_c, script_within_of};
    let g = generators::barbell(4, 3);
    let p = cut_partition(&g).unwrap();
    for v in ["(-)", "(w)", "(b)", "w-b(wb)"] {
        let script = scenario_to_script(&sc(v), &p, 16);
        assert!(script_within_gamma_c(&script, &p), "{v}");
        assert!(script_within_of(&script, p.f()), "{v}");
    }
}

#[test]
fn unfair_direction_breaks_flooding_exactly_when_it_hides_the_minimum() {
    // With the MinValue rule, the constant unfair scenarios are harmful in
    // exactly one direction: the one that hides the side holding the
    // minimum — the network-level shadow of the two-process asymmetry
    // between DropWhite^ω and DropBlack^ω.
    let g = generators::barbell(4, 2);
    let p = cut_partition(&g).unwrap();
    // Minimum (value 0) on the A side:
    for (v, expect_consensus) in [("(-)", true), ("(wb)", true), ("(w)", false), ("(b)", true)] {
        let inputs = side_inputs(&g, &p, false, true);
        let fleet = FloodConsensus::fleet(&g, &inputs, DecisionRule::MinValue);
        let mut adv = CutAdversary::new(&p, sc(v));
        let out = run_network(&g, fleet, &mut adv, 64);
        assert_eq!(
            out.verdict.is_consensus(),
            expect_consensus,
            "A-min {v}: {:?}",
            out.verdict
        );
    }
    // Minimum on the B side: the harmful direction flips.
    for (v, expect_consensus) in [("(w)", true), ("(b)", false)] {
        let inputs = side_inputs(&g, &p, true, false);
        let fleet = FloodConsensus::fleet(&g, &inputs, DecisionRule::MinValue);
        let mut adv = CutAdversary::new(&p, sc(v));
        let out = run_network(&g, fleet, &mut adv, 64);
        assert_eq!(
            out.verdict.is_consensus(),
            expect_consensus,
            "B-min {v}: {:?}",
            out.verdict
        );
    }
}
