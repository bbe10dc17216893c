//! The fuzzing harness: generate → run → check → shrink → emit.
//!
//! [`run_chaos`] drives `runs` seeded executions of flooding consensus
//! on a named graph. In the default mode every sampled adversary's
//! bound fits the `O_f` contract `f = c(G) − 1`, so Theorem V.1
//! promises consensus and all five properties are asserted. In
//! *over-budget* mode the harness instead plants a cut-targeted
//! adversary of width `c(G)` against the same contract — a guaranteed
//! budget-conformance breach the shrinker must reduce to one round of
//! `c(G)` cut arcs. Every violating run is shrunk and packaged as a
//! [`Reproducer`]; [`replay`] runs an artifact back through the same
//! checker.

use crate::artifact::{GraphSpec, Reproducer};
use crate::gen::AdversaryGen;
use crate::props::{check_run, Violation};
use crate::record::RecordingAdversary;
use crate::shrink::shrink_script;
use minobs_graphs::{edge_connectivity, DirectedEdge, Graph};
use minobs_net::{DecisionRule, FloodConsensus};
use minobs_obs::{MemoryRecorder, TraceEvent};
use minobs_sim::adversary::{Adversary, BudgetChecked, BudgetViolation, ScriptedAdversary};
use minobs_sim::network::{run_network, run_network_with_recorder, NetOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of one fuzzing campaign.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// The graph to fuzz.
    pub graph: GraphSpec,
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// How many runs to execute.
    pub runs: usize,
    /// Plant a contract breach: cut-targeted width `c(G)` against the
    /// contract `f = c(G) − 1`.
    pub over_budget: bool,
}

/// Outcome of a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Runs executed.
    pub runs: usize,
    /// Runs that violated at least one property.
    pub violating_runs: usize,
    /// One shrunk reproducer per violating run.
    pub reproducers: Vec<Reproducer>,
}

/// Executes one run: flooding consensus on `graph` under `adversary`,
/// with script recording and budget checking layered on. Returns the
/// outcome, the effective omission script, and any contract breaches.
fn execute(
    graph: &Graph,
    inputs: &[u64],
    adversary: Box<dyn Adversary>,
    contract_f: usize,
    max_rounds: usize,
) -> (NetOutcome, Vec<Vec<DirectedEdge>>, Vec<BudgetViolation>) {
    let mut checked = BudgetChecked::new(RecordingAdversary::new(adversary), contract_f);
    let nodes = FloodConsensus::fleet(graph, inputs, DecisionRule::ValueOfMinId);
    let outcome = run_network(graph, nodes, &mut checked, max_rounds);
    let (recording, violations) = checked.into_parts();
    (outcome, recording.into_script(), violations)
}

/// Engine horizon for a graph: flooding decides at round `n − 1`
/// (Theorem V.1 / Corollary III.14 at network scale); doubling it gives
/// the adversary room to misbehave after the deadline too.
fn horizon(graph: &Graph) -> usize {
    2 * graph.vertex_count().saturating_sub(1).max(1)
}

/// Runs a fuzzing campaign. Deterministic per [`ChaosConfig`]: the same
/// config yields the same report, reproducers included, byte for byte.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let graph = cfg.graph.build();
    let n = graph.vertex_count();
    let connectivity = edge_connectivity(&graph);
    let contract_f = connectivity - 1;
    let max_rounds = horizon(&graph);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = ChaosReport {
        runs: cfg.runs,
        violating_runs: 0,
        reproducers: Vec::new(),
    };

    for run in 0..cfg.runs {
        let inputs: Vec<u64> = (0..n).map(|_| rng.random_below(10) as u64).collect();
        let gen = if cfg.over_budget {
            AdversaryGen::CutTargeted {
                width: connectivity,
            }
        } else {
            AdversaryGen::sample(&mut rng, &graph, contract_f, max_rounds)
        };
        // Theorem V.1: consensus is only promised when the adversary's
        // bound fits the contract.
        let expect_consensus = gen.bound(&graph) <= contract_f;
        let adversary = gen.instantiate(&graph, &mut rng);
        let (outcome, script, breaches) =
            execute(&graph, &inputs, adversary, contract_f, max_rounds);
        let violations = check_run(&outcome, &breaches, expect_consensus);
        let Some(first) = violations.first() else {
            continue;
        };
        report.violating_runs += 1;
        let kind = first.kind();

        let mut still_fails = |candidate: &[Vec<DirectedEdge>]| -> bool {
            let scripted = Box::new(ScriptedAdversary::once(candidate.to_vec()));
            let (o, _, b) = execute(&graph, &inputs, scripted, contract_f, max_rounds);
            check_run(&o, &b, expect_consensus)
                .iter()
                .any(|v| v.kind() == kind)
        };
        // The recorded script replays the violation by construction
        // (only effective drops matter, and those are what it holds);
        // shrink_script hands it back unchanged if it somehow doesn't.
        let minimal = shrink_script(script, &mut still_fails);

        report.reproducers.push(Reproducer {
            graph: cfg.graph,
            seed: cfg.seed,
            run,
            contract_f,
            max_rounds,
            inputs,
            violation: kind.to_string(),
            script: minimal,
        });
    }
    report
}

/// The result of replaying a reproducer.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Whether the recorded violation kind occurred again.
    pub reproduced: bool,
    /// Every violation observed during the replay.
    pub violations: Vec<Violation>,
}

/// Replays a reproducer's script through the full checker. All five
/// properties are checked — the replayed adversary is the shrunk
/// script, whose conformance is exactly what the artifact asserts.
pub fn replay(rep: &Reproducer) -> ReplayOutcome {
    let graph = rep.graph.build();
    let scripted = Box::new(ScriptedAdversary::once(rep.script.clone()));
    let (outcome, _, breaches) = execute(
        &graph,
        &rep.inputs,
        scripted,
        rep.contract_f,
        rep.max_rounds,
    );
    let violations = check_run(&outcome, &breaches, true);
    ReplayOutcome {
        reproduced: violations.iter().any(|v| v.kind() == rep.violation),
        violations,
    }
}

/// [`replay`] capturing a `minobs/trace/v1` event stream of the
/// violating execution, for the `.trace.jsonl` artifact sibling.
pub fn replay_with_trace(rep: &Reproducer) -> (ReplayOutcome, Vec<TraceEvent>) {
    let graph = rep.graph.build();
    let mut checked = BudgetChecked::new(
        RecordingAdversary::new(Box::new(ScriptedAdversary::once(rep.script.clone()))),
        rep.contract_f,
    );
    let nodes = FloodConsensus::fleet(&graph, &rep.inputs, DecisionRule::ValueOfMinId);
    let mut recorder = MemoryRecorder::new();
    let outcome =
        run_network_with_recorder(&graph, nodes, &mut checked, rep.max_rounds, &mut recorder);
    let (_, breaches) = checked.into_parts();
    let violations = check_run(&outcome, &breaches, true);
    (
        ReplayOutcome {
            reproduced: violations.iter().any(|v| v.kind() == rep.violation),
            violations,
        },
        recorder.into_events(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conforming_adversaries_never_violate() {
        // The heart of Theorem V.1 as a fuzz target: every generator
        // with bound ≤ c(G) − 1 must leave consensus intact, on all
        // three named graphs, across pinned seeds.
        for graph in GraphSpec::ALL {
            for seed in [1, 2, 3] {
                let report = run_chaos(&ChaosConfig {
                    graph,
                    seed,
                    runs: 25,
                    over_budget: false,
                });
                assert_eq!(
                    report.violating_runs,
                    0,
                    "{graph} seed {seed}: {:?}",
                    report.reproducers.first().map(|r| &r.violation)
                );
            }
        }
    }

    #[test]
    fn planted_breach_is_found_and_shrunk_to_the_cut() {
        for graph in GraphSpec::ALL {
            let connectivity = edge_connectivity(&graph.build());
            let report = run_chaos(&ChaosConfig {
                graph,
                seed: 7,
                runs: 3,
                over_budget: true,
            });
            assert_eq!(report.violating_runs, 3, "{graph}");
            for rep in &report.reproducers {
                assert_eq!(rep.violation, "budget_exceeded");
                // Minimal witness: one round, exactly c(G) = f + 1 arcs.
                assert_eq!(rep.script.len(), 1, "{graph}: {:?}", rep.script);
                assert_eq!(rep.script[0].len(), connectivity, "{graph}");
                let out = replay(rep);
                assert!(out.reproduced, "{graph}: {:?}", out.violations);
            }
        }
    }

    #[test]
    fn same_seed_yields_byte_identical_reproducers() {
        let cfg = ChaosConfig {
            graph: GraphSpec::C4,
            seed: 7,
            runs: 3,
            over_budget: true,
        };
        let a = run_chaos(&cfg);
        let b = run_chaos(&cfg);
        let bytes = |r: &ChaosReport| -> Vec<String> {
            r.reproducers
                .iter()
                .map(Reproducer::to_json_string)
                .collect()
        };
        assert_eq!(bytes(&a), bytes(&b));
        assert!(!a.reproducers.is_empty());
    }

    #[test]
    fn artifact_roundtrip_replays() {
        let report = run_chaos(&ChaosConfig {
            graph: GraphSpec::H3,
            seed: 11,
            runs: 1,
            over_budget: true,
        });
        let rep = &report.reproducers[0];
        let parsed = Reproducer::from_json_str(&rep.to_json_string()).unwrap();
        assert_eq!(&parsed, rep);
        assert!(replay(&parsed).reproduced);
    }

    #[test]
    fn replay_with_trace_emits_a_run() {
        let report = run_chaos(&ChaosConfig {
            graph: GraphSpec::C4,
            seed: 7,
            runs: 1,
            over_budget: true,
        });
        let (out, events) = replay_with_trace(&report.reproducers[0]);
        assert!(out.reproduced);
        assert!(matches!(events.first(), Some(TraceEvent::RunStart { .. })));
        assert!(matches!(events.last(), Some(TraceEvent::RunEnd { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Message { .. })));
    }
}
