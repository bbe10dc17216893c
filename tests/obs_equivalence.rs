//! Observability of the network engine: the trace a run records must
//! agree with the run it describes. For each exp_network graph family the
//! engine runs under a `MemoryRecorder`; its spans must nest, alternate
//! `net_send`/`net_advance` once per round and never be missing, and the
//! message events and `run_end` totals must add up to the run's
//! `RunStats` (per-round dropped message events sum to
//! `messages_dropped`).

use minobs_graphs::{generators, DirectedEdge, Graph};
use minobs_net::{DecisionRule, FloodConsensus};
use minobs_obs::{MemoryRecorder, MessageStatus, TraceEvent};
use minobs_sim::adversary::{
    Adversary, BudgetChecked, NoFault, RandomOmissions, ScriptedAdversary,
};
use minobs_sim::network::run_network_with_recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The exp_network graph families: `families()` lists them for the
/// all-family tests, and each gets its own span-discipline test.
macro_rules! graph_families {
    ($($test:ident: $label:literal => $graph:expr,)*) => {
        fn families() -> Vec<(&'static str, Graph)> {
            vec![$(($label, $graph)),*]
        }

        $(
            #[test]
            fn $test() {
                spans_alternate_send_and_advance($label, $graph);
            }
        )*
    };
}

graph_families! {
    spans_alternate_on_cycle: "cycle(8)" => generators::cycle(8),
    spans_alternate_on_path: "path(8)" => generators::path(8),
    spans_alternate_on_star: "star(8)" => generators::star(8),
    spans_alternate_on_complete: "complete(6)" => generators::complete(6),
    spans_alternate_on_grid: "grid(3x4)" => generators::grid(3, 4),
    spans_alternate_on_torus: "torus(3x3)" => generators::torus(3, 3),
    spans_alternate_on_hypercube: "hypercube(4)" => generators::hypercube(4),
    spans_alternate_on_barbell: "barbell(4,2)" => generators::barbell(4, 2),
    spans_alternate_on_theta: "theta(3,2)" => generators::theta(3, 2),
    spans_alternate_on_petersen: "petersen" => generators::petersen(),
    spans_alternate_on_complete_bipartite: "K(3,4)" => generators::complete_bipartite(3, 4),
}

/// Asserts the span discipline `trace_lint` enforces: unique ids, proper
/// bracketing, everything closed. Returns the bracketed span names.
fn well_formed_span_names(events: &[TraceEvent]) -> Vec<String> {
    let mut stack: Vec<u64> = Vec::new();
    let mut ids = std::collections::BTreeSet::new();
    let mut names = Vec::new();
    for event in events {
        match event {
            TraceEvent::SpanStart { span_id, name, .. } => {
                assert!(ids.insert(*span_id), "duplicate span id {span_id}");
                stack.push(*span_id);
                names.push(name.to_string());
            }
            TraceEvent::SpanEnd { span_id, .. } => {
                assert_eq!(stack.pop(), Some(*span_id), "spans must nest properly");
            }
            _ => {}
        }
    }
    assert!(stack.is_empty(), "unclosed spans: {stack:?}");
    names
}

fn dropped_message_events(events: &[TraceEvent]) -> usize {
    events
        .iter()
        .filter(|event| {
            matches!(
                event,
                TraceEvent::Message {
                    status: MessageStatus::Dropped,
                    ..
                }
            )
        })
        .count()
}

/// Runs `g` fault-free and under scripted drop sets over real graph edges;
/// each run's spans must nest and alternate `net_send`/`net_advance` once
/// per round.
fn spans_alternate_send_and_advance(name: &str, g: Graph) {
    let n = g.vertex_count();
    let inputs: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let script: Vec<Vec<DirectedEdge>> = (0..3)
        .map(|round| {
            g.edges()
                .iter()
                .skip(round)
                .take(2)
                .map(|e| DirectedEdge::new(e.a, e.b))
                .collect()
        })
        .collect();
    let adversaries: [(&str, Box<dyn Adversary>); 2] = [
        ("fault-free", Box::new(NoFault)),
        ("scripted", Box::new(ScriptedAdversary::repeating(script))),
    ];
    for (label, mut adversary) in adversaries {
        let mut recorder = MemoryRecorder::new();
        let out = run_network_with_recorder(
            &g,
            FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId),
            adversary.as_mut(),
            2 * n,
            &mut recorder,
        );
        let names = well_formed_span_names(recorder.events());
        assert!(
            names
                .chunks(2)
                .all(|pair| pair == ["net_send", "net_advance"]),
            "{name} {label}: spans must alternate send/advance per round"
        );
        assert_eq!(
            names.len(),
            2 * out.stats.rounds,
            "{name} {label}: one send and one advance span per round"
        );
        assert!(
            !names.is_empty(),
            "{name} {label}: instrumented engines must emit spans"
        );
    }
}

#[test]
fn dropped_events_sum_to_messages_dropped() {
    for (name, g) in families() {
        let n = g.vertex_count();
        let inputs: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();

        let mut recorder = MemoryRecorder::new();
        let out = run_network_with_recorder(
            &g,
            FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId),
            &mut BudgetChecked::new(RandomOmissions::new(3, StdRng::seed_from_u64(11)), 3),
            2 * n,
            &mut recorder,
        );

        let events = recorder.into_events();
        assert_eq!(
            dropped_message_events(&events),
            out.stats.messages_dropped,
            "{name}: dropped message events must sum to stats.messages_dropped"
        );

        // And per-round counts agree with the event stream round by round.
        for event in &events {
            if let TraceEvent::RoundEnd { round, counts, .. } = event {
                let in_round = events
                    .iter()
                    .filter(|e| {
                        matches!(
                            e,
                            TraceEvent::Message {
                                round: r,
                                status: MessageStatus::Dropped,
                                ..
                            } if r == round
                        )
                    })
                    .count();
                assert_eq!(
                    in_round, counts.dropped,
                    "{name} round {round}: drop events vs round_end.dropped"
                );
            }
        }
    }
}

#[test]
fn run_end_totals_match_run_stats() {
    let g = generators::hypercube(4);
    let n = g.vertex_count();
    let inputs: Vec<u64> = (0..n as u64).collect();

    let mut recorder = MemoryRecorder::new();
    let out = run_network_with_recorder(
        &g,
        FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId),
        &mut NoFault,
        2 * n,
        &mut recorder,
    );

    let run_end = recorder
        .events()
        .iter()
        .find_map(|event| match event {
            TraceEvent::RunEnd { rounds, totals, .. } => Some((*rounds, *totals)),
            _ => None,
        })
        .expect("a run_end event");
    assert_eq!(run_end.0, out.stats.rounds);
    assert_eq!(run_end.1.sent, out.stats.messages_sent);
    assert_eq!(run_end.1.delivered, out.stats.messages_delivered);
    assert_eq!(run_end.1.dropped, out.stats.messages_dropped);
    assert_eq!(run_end.1.misaddressed, out.stats.misaddressed);
}
