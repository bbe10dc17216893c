//! TAB-V1 — Theorem V.1 swept over graph families: for every graph,
//! `c(G)`, `deg(G)`, and the empirical consensus outcome for each loss
//! budget `f` — flooding under random `O_f` adversaries below the
//! threshold, the `Γ_C` cut adversary at it.
//!
//! The shape to reproduce: consensus succeeds for every `f < c(G)`, and
//! the cut adversary wins at `f = c(G)` — including on the families with
//! `c(G) < deg(G)` where \[SW07\] left the question open.

use minobs_bench::{mark, trace_sink_for, write_metrics_snapshot, Report};
use minobs_graphs::{cut_partition, edge_connectivity, generators, min_degree, Graph};
use minobs_net::{DecisionRule, FloodConsensus};
use minobs_obs::{MetricsRecorder, MetricsRegistry, NullRecorder, Recorder, TeeRecorder};
use minobs_sim::adversary::{
    BudgetChecked, CutAdversary, GreedyCutAdversary, NoFault, RandomOmissions,
};
use minobs_sim::network::{run_network_with_recorder, SyncNetwork};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn families() -> Vec<(String, Graph)> {
    let mut v: Vec<(String, Graph)> = vec![
        ("cycle(8)".into(), generators::cycle(8)),
        ("path(8)".into(), generators::path(8)),
        ("star(8)".into(), generators::star(8)),
        ("complete(6)".into(), generators::complete(6)),
        ("grid(3x4)".into(), generators::grid(3, 4)),
        ("torus(3x3)".into(), generators::torus(3, 3)),
        ("hypercube(3)".into(), generators::hypercube(3)),
        ("hypercube(4)".into(), generators::hypercube(4)),
        ("barbell(4,2)".into(), generators::barbell(4, 2)),
        ("barbell(5,3)".into(), generators::barbell(5, 3)),
        ("theta(3,2)".into(), generators::theta(3, 2)),
        ("petersen".into(), generators::petersen()),
        ("K(3,4)".into(), generators::complete_bipartite(3, 4)),
    ];
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(42 + seed);
        v.push((
            format!("gnp(10,0.4)#{seed}"),
            generators::gnp_connected(10, 0.4, &mut rng),
        ));
    }
    v
}

fn flood_under_random_f(g: &Graph, f: usize, seeds: u64, recorder: &mut dyn Recorder) -> bool {
    let n = g.vertex_count();
    let inputs: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    (0..seeds).all(|seed| {
        let nodes = FloodConsensus::fleet(g, &inputs, DecisionRule::ValueOfMinId);
        let mut adv = BudgetChecked::new(RandomOmissions::new(f, StdRng::seed_from_u64(seed)), f);
        run_network_with_recorder(g, nodes, &mut adv, 2 * n, recorder)
            .verdict
            .is_consensus()
    })
}

fn flood_under_cut(g: &Graph, recorder: &mut dyn Recorder) -> (bool, bool) {
    let n = g.vertex_count();
    let inputs: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let p = cut_partition(g).expect("connected");
    let scripted = {
        let nodes = FloodConsensus::fleet(g, &inputs, DecisionRule::ValueOfMinId);
        let mut adv = CutAdversary::new(&p, "(w)".parse().unwrap());
        run_network_with_recorder(g, nodes, &mut adv, 2 * n, recorder)
            .verdict
            .is_consensus()
    };
    let greedy = {
        let nodes = FloodConsensus::fleet(g, &inputs, DecisionRule::ValueOfMinId);
        let mut adv = GreedyCutAdversary::new(&p);
        run_network_with_recorder(g, nodes, &mut adv, 2 * n, recorder)
            .verdict
            .is_consensus()
    };
    (scripted, greedy)
}

fn main() {
    minobs_obs::cli::handle_common_flags(
        "exp_network",
        "network consensus under adversaries, with tracing",
        "exp_network",
    );
    println!("== TAB-V1: consensus on G iff f < c(G) (Theorem V.1) ==\n");
    // MINOBS_TRACE=1 (or =<path>) streams every engine run in this binary
    // as JSONL; the artifact's meta block points at the file.
    let mut trace = trace_sink_for("exp_network");
    let trace_path = trace.as_ref().map(|(_, path)| path.clone());
    let mut null = NullRecorder;
    // Every run also feeds a metrics registry (tee'd with the trace sink
    // when tracing is on); the snapshot lands next to the report.
    let registry = Arc::new(MetricsRegistry::new());
    let mut metrics = MetricsRecorder::new(Arc::clone(&registry));

    let mut report = Report::new(
        "network_threshold",
        &[
            "graph",
            "n",
            "c(G)",
            "deg(G)",
            "gap c<deg",
            "consensus @ f=c-1",
            "consensus @ f=c (cut adv)",
            "consensus @ f=c (greedy adv)",
            "theorem shape holds",
        ],
    );

    for (name, g) in families() {
        let n = g.vertex_count();
        let c = edge_connectivity(&g);
        let d = min_degree(&g);
        let sink: &mut dyn Recorder = match trace.as_mut() {
            Some((sink, _)) => sink,
            None => &mut null,
        };
        let mut tee = TeeRecorder::new(&mut metrics, sink);
        let recorder: &mut dyn Recorder = &mut tee;
        // Below the threshold: every f < c must succeed (spot-check f = c-1
        // which dominates; smaller f only get easier).
        let below = if c > 0 {
            flood_under_random_f(&g, c - 1, 5, recorder)
        } else {
            true
        };
        let (cut_ok, greedy_ok) = flood_under_cut(&g, recorder);
        let shape = below && !cut_ok && !greedy_ok;
        assert!(shape, "{name}: threshold shape violated");
        report.row(&[
            &name,
            &n,
            &c,
            &d,
            &mark(c < d),
            &mark(below),
            &mark(cut_ok),
            &mark(greedy_ok),
            &mark(shape),
        ]);
    }
    if let Some(path) = &trace_path {
        report.note_trace(path);
    }
    minobs_bench::cli::require_artifact(report.finish());

    println!(
        "\nEvery family: flooding succeeds for f < c(G) (random O_f, 5 seeds) and both\n\
         cut adversaries defeat it at f = c(G) — the exact Theorem V.1 crossover,\n\
         including the [SW07] open region on the gap families (barbell, theta, path, star)."
    );

    // Round complexity of the possibility side, with the early-deciding
    // ablation: the worst-case bound is n-1, but knowledge completes at
    // the graph's eccentricity under no faults.
    println!("\nPossibility-side round complexity (deadline n-1 vs early deciding):");
    let mut rounds = Report::new(
        "network_rounds",
        &[
            "graph",
            "n",
            "deadline rounds",
            "messages sent",
            "early decide (min..max round)",
        ],
    );
    for (name, g) in families().into_iter().take(8) {
        let n = g.vertex_count();
        let inputs: Vec<u64> = (0..n as u64).collect();
        let sink: &mut dyn Recorder = match trace.as_mut() {
            Some((sink, _)) => sink,
            None => &mut null,
        };
        let mut tee = TeeRecorder::new(&mut metrics, sink);
        let recorder: &mut dyn Recorder = &mut tee;
        let nodes = FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId);
        let out = run_network_with_recorder(&g, nodes, &mut NoFault, 2 * n, recorder);
        assert!(out.verdict.is_consensus());

        let early: Vec<FloodConsensus> =
            FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId)
                .into_iter()
                .map(|node| node.early_deciding())
                .collect();
        let mut net = SyncNetwork::new(&g, early);
        let early_out = net.run_with_recorder(&mut NoFault, 2 * n, recorder);
        assert!(early_out.verdict.is_consensus());
        let early_rounds: Vec<usize> = net
            .nodes()
            .iter()
            .map(|node| node.decided_at().unwrap() + 1)
            .collect();
        let span = format!(
            "{}..{}",
            early_rounds.iter().min().unwrap(),
            early_rounds.iter().max().unwrap()
        );
        rounds.row(&[
            &name,
            &n,
            &out.stats.rounds,
            &out.stats.messages_sent,
            &span,
        ]);
    }
    if let Some(path) = &trace_path {
        rounds.note_trace(path);
    }
    minobs_bench::cli::require_artifact(rounds.finish());
    if let Some((sink, path)) = trace.take() {
        let lines = sink.lines();
        drop(sink);
        println!("[trace {} lines -> {}]", lines, path.display());
    }
    write_metrics_snapshot("exp_network", &registry.snapshot());
    println!(
        "\nEarly deciding fixes the value at knowledge completion (≈ eccentricity)\n\
         while relaying continues to the n-1 deadline — the decisions coincide."
    );
}
