//! TAB-RED — the Section V-B reduction, measured: the emulation `A'`
//! (Algorithms 2–3) against the real network run through `ρ`, and
//! Algorithm 4 (`A_L`) end-to-end on solvable sub-schemes of `Γ_C^ω`.

use minobs_bench::{mark, Report};
use minobs_core::engine::run_two_process;
use minobs_core::letter::Role;
use minobs_core::scenario::Scenario;
use minobs_graphs::{cut_partition, generators, CutPartition, Graph};
use minobs_net::{AlgorithmL, DecisionRule, EmulatedSide, FloodConsensus};
use minobs_sim::adversary::CutAdversary;
use minobs_sim::network::{run_network, NodeProtocol as _};

fn sc(s: &str) -> Scenario {
    s.parse().unwrap()
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

fn main() {
    minobs_obs::cli::handle_common_flags(
        "exp_reduction",
        "two-process/network reduction audit",
        "exp_reduction",
    );
    println!("== TAB-RED: emulation equivalence (Algorithms 2-3) ==\n");
    let mut report = Report::new(
        "reduction",
        &[
            "graph",
            "scenario",
            "net rounds",
            "emu rounds",
            "decisions equal",
        ],
    );

    let graphs = [
        ("barbell(3,2)", generators::barbell(3, 2)),
        ("barbell(4,2)", generators::barbell(4, 2)),
        ("cycle(6)", generators::cycle(6)),
        ("theta(3,2)", generators::theta(3, 2)),
        ("grid(2x3)", generators::grid(2, 3)),
    ];
    for (name, g) in &graphs {
        let p = cut_partition(g).unwrap();
        let inputs: Vec<u64> = (0..g.vertex_count())
            .map(|v| p.side_b.contains(&v) as u64)
            .collect();
        for v in ["(-)", "(w)", "(b)", "(wb)", "w-(b)"] {
            // Network run under ρ⁻¹(v).
            let fleet = FloodConsensus::fleet(g, &inputs, DecisionRule::ValueOfMinId);
            let mut adv = CutAdversary::new(&p, sc(v));
            let net = run_network(g, fleet, &mut adv, 4 * g.vertex_count());

            // Emulated two-process run under v.
            let (side_a, side_b) = split(g, &p, &inputs);
            let mut white = EmulatedSide::new(Role::White, false, g, &p, side_a);
            let mut black = EmulatedSide::new(Role::Black, true, g, &p, side_b);
            let two = run_two_process(&mut white, &mut black, &sc(v), 4 * g.vertex_count());

            let mut emulated = vec![None; g.vertex_count()];
            for &node in &p.side_a {
                emulated[node] = white.node(node).unwrap().decision();
            }
            for &node in &p.side_b {
                emulated[node] = black.node(node).unwrap().decision();
            }
            let equal = net.decisions == emulated;
            assert!(equal, "{name} {v}");
            report.row(&[name, &v, &net.stats.rounds, &two.rounds, &mark(equal)]);
        }
    }
    minobs_bench::cli::require_artifact(report.finish());

    println!("\n== Algorithm 4 (A_L) on solvable sub-schemes of Γ_C^ω ==\n");
    let mut al = Report::new(
        "algorithm_l",
        &["graph", "scenario ρ⁻¹(v)", "verdict", "rounds"],
    );
    for (name, g) in &graphs {
        let p = cut_partition(g).unwrap();
        let inputs: Vec<u64> = (0..g.vertex_count())
            .map(|v| p.side_b.contains(&v) as u64)
            .collect();
        for v in ["(-)", "(w)", "(wb)", "-(b)", "w(b)"] {
            let fleet = AlgorithmL::fleet(g, &p, &sc("(b)"), &inputs);
            let mut adv = CutAdversary::new(&p, sc(v));
            let out = run_network(g, fleet, &mut adv, 256);
            assert!(out.verdict.is_consensus(), "{name} {v}: {:?}", out.verdict);
            al.row(&[name, &v, &format!("{:?}", out.verdict), &out.stats.rounds]);
        }
    }
    minobs_bench::cli::require_artifact(al.finish());
    println!(
        "\nEmulation decisions match the network run on every (graph, scenario);\n\
         A_L reaches consensus on every solvable-sub-scheme scenario."
    );
}
