//! Section V live: consensus on arbitrary networks with omission faults.
//!
//! Sweeps graph families and per-round loss budgets `f`, demonstrating the
//! Theorem V.1 threshold `f < c(G)` on both sides: flooding succeeds below
//! it, the cut adversary defeats flooding at it, and Algorithm 4 solves
//! the solvable sub-schemes of `Γ_C^ω` that live beyond the
//! Santoro–Widmayer gap `c(G) ≤ f < deg(G)`.
//!
//! ```text
//! cargo run --example network_agreement
//! ```

use minobs_graphs::{cut_partition, edge_connectivity, generators, min_degree, Graph};
use minobs_net::{AlgorithmL, DecisionRule, FloodConsensus};
use minobs_sim::adversary::{BudgetChecked, CutAdversary, RandomOmissions};
use minobs_sim::network::{run_network, NetVerdict};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("cycle(8)", generators::cycle(8)),
        ("complete(6)", generators::complete(6)),
        ("torus(3x3)", generators::torus(3, 3)),
        ("hypercube(3)", generators::hypercube(3)),
        ("barbell(4,2)", generators::barbell(4, 2)),
        ("theta(3,2)", generators::theta(3, 2)),
        ("petersen", generators::petersen()),
    ]
}

fn main() {
    println!("== Theorem V.1: consensus on G iff f < c(G) ==\n");
    println!(
        "{:<14} {:>4} {:>5} {:>5}   f-sweep (✓ consensus / ✗ broken)",
        "graph", "n", "c(G)", "deg"
    );

    for (name, g) in families() {
        let n = g.vertex_count();
        let c = edge_connectivity(&g);
        let d = min_degree(&g);
        let mut cells: Vec<String> = Vec::new();
        for f in 0..=c {
            let ok = if f < c {
                // Random O_f adversary, several seeds.
                (0..5u64).all(|seed| {
                    let inputs: Vec<u64> = (0..n as u64).collect();
                    let nodes = FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId);
                    let mut adv =
                        BudgetChecked::new(RandomOmissions::new(f, StdRng::seed_from_u64(seed)), f);
                    run_network(&g, nodes, &mut adv, 2 * n)
                        .verdict
                        .is_consensus()
                })
            } else {
                // f = c(G): the Γ_C cut adversary silences one direction.
                let p = cut_partition(&g).unwrap();
                let inputs: Vec<u64> = (0..n as u64).collect();
                let nodes = FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId);
                let mut adv = CutAdversary::new(&p, "(w)".parse().unwrap());
                run_network(&g, nodes, &mut adv, 2 * n)
                    .verdict
                    .is_consensus()
            };
            cells.push(format!("f={f}:{}", if ok { "✓" } else { "✗" }));
        }
        println!("{name:<14} {n:>4} {c:>5} {d:>5}   {}", cells.join("  "));
    }

    println!("\n-- Inside the Santoro–Widmayer gap (barbell: c(G) < deg(G)) --");
    let g = generators::barbell(4, 2);
    let p = cut_partition(&g).unwrap();
    println!(
        "barbell(4,2): c = {}, deg = {} — [SW07] left c ≤ f < deg open;",
        edge_connectivity(&g),
        min_degree(&g)
    );
    println!("Theorem V.1 answers: O_f is an obstruction there. But *sub-schemes* of Γ_C^ω");
    println!("whose ρ-image is solvable still admit consensus, e.g. the almost-fair scheme:");
    let inputs: Vec<u64> = (0..g.vertex_count())
        .map(|v| p.side_b.contains(&v) as u64)
        .collect();
    for v in ["(-)", "(w)", "(wb)", "-(b)"] {
        let fleet = AlgorithmL::fleet(&g, &p, &"(b)".parse().unwrap(), &inputs);
        let mut adv = CutAdversary::new(&p, v.parse().unwrap());
        let out = run_network(&g, fleet, &mut adv, 128);
        println!(
            "  A_L under ρ⁻¹({v:<5}) → {:?} in {} rounds",
            out.verdict, out.stats.rounds
        );
    }

    println!("\n-- The forbidden scenario itself --");
    let fleet = AlgorithmL::fleet(&g, &p, &"(b)".parse().unwrap(), &inputs);
    let mut adv = CutAdversary::new(&p, "(b)".parse().unwrap());
    let out = run_network(&g, fleet, &mut adv, 64);
    match out.verdict {
        NetVerdict::Undecided { undecided } => println!(
            "  A_L under ρ⁻¹((b)) runs forever ({undecided} nodes undecided after 64 rounds) —\n  exactly the scenario the scheme excludes."
        ),
        other => println!("  unexpected: {other:?}"),
    }
}
