//! Observability equivalence: the serial and parallel engines must make
//! the *same observations*, not just reach the same verdict. For each
//! exp_network graph family, both engines run under a `MemoryRecorder`
//! and must produce identical `RunStats` and identical canonicalized
//! event streams — messages and decisions sorted by (round, sender,
//! receiver), timing fields zeroed, engine identity normalized.
//!
//! Also covers the trace-level acceptance invariant: per-round dropped
//! message events sum to the run's `messages_dropped`.

use minobs_graphs::{generators, Graph};
use minobs_net::{DecisionRule, FloodConsensus};
use minobs_obs::{MemoryRecorder, MessageStatus, MetricsRecorder, MetricsRegistry, TraceEvent};
use std::sync::Arc;
use minobs_sim::adversary::{BudgetChecked, NoFault, RandomOmissions, ScriptedAdversary};
use minobs_sim::network::run_network_with_recorder;
use minobs_sim::parallel::run_network_parallel_with_recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("cycle(8)", generators::cycle(8)),
        ("path(8)", generators::path(8)),
        ("star(8)", generators::star(8)),
        ("complete(6)", generators::complete(6)),
        ("grid(3x4)", generators::grid(3, 4)),
        ("torus(3x3)", generators::torus(3, 3)),
        ("hypercube(4)", generators::hypercube(4)),
        ("barbell(4,2)", generators::barbell(4, 2)),
        ("theta(3,2)", generators::theta(3, 2)),
        ("petersen", generators::petersen()),
        ("K(3,4)", generators::complete_bipartite(3, 4)),
    ]
}

/// Canonical events with run-identity noise removed: wall-clock fields
/// zeroed, engine label and thread count normalized. What remains is
/// exactly the observable behaviour the two engines must share.
fn comparable(recorder: &MemoryRecorder) -> Vec<TraceEvent> {
    recorder
        .canonical_events()
        .into_iter()
        .map(|event| match event {
            TraceEvent::RunStart { nodes, .. } => TraceEvent::RunStart {
                engine: "normalized",
                nodes,
                threads: 1,
            },
            TraceEvent::RoundEnd { round, counts, .. } => TraceEvent::RoundEnd {
                round,
                counts,
                nanos: 0,
            },
            TraceEvent::Span { round, name, .. } => TraceEvent::Span {
                round,
                name,
                nanos: 0,
            },
            TraceEvent::SpanEnd {
                round,
                span_id,
                name,
                ..
            } => TraceEvent::SpanEnd {
                round,
                span_id,
                name,
                nanos: 0,
            },
            TraceEvent::RunEnd { rounds, totals, .. } => TraceEvent::RunEnd {
                rounds,
                totals,
                nanos: 0,
            },
            other => other,
        })
        .collect()
}

/// Folds a canonicalized event stream into a fresh registry snapshot.
/// Replaying `comparable()` output (timing zeroed) makes the latency
/// histograms deterministic, so two engines that observe the same things
/// must produce byte-identical snapshots.
fn metrics_snapshot_of(events: &[TraceEvent]) -> serde_json::Value {
    let registry = Arc::new(MetricsRegistry::new());
    let mut metrics = MetricsRecorder::new(Arc::clone(&registry));
    for event in events {
        metrics.observe(event);
    }
    registry.snapshot()
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
                names.push(name.clone());
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

#[test]
fn serial_and_parallel_engines_observe_identically_fault_free() {
    for (name, g) in families() {
        let n = g.vertex_count();
        let inputs: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();

        let mut serial = MemoryRecorder::new();
        let serial_out = run_network_with_recorder(
            &g,
            FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId),
            &mut NoFault,
            2 * n,
            &mut serial,
        );

        for threads in [2usize, 4] {
            let mut parallel = MemoryRecorder::new();
            let parallel_out = run_network_parallel_with_recorder(
                &g,
                FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId),
                &mut NoFault,
                2 * n,
                threads,
                &mut parallel,
            );

            assert_eq!(
                serial_out.stats, parallel_out.stats,
                "{name} t={threads}: RunStats diverge"
            );
            assert_eq!(
                serial_out.decisions, parallel_out.decisions,
                "{name} t={threads}: decisions diverge"
            );
            assert_eq!(
                comparable(&serial),
                comparable(&parallel),
                "{name} t={threads}: canonical event streams diverge"
            );
        }
    }
}

#[test]
fn serial_and_parallel_engines_observe_identically_under_omissions() {
    // The adversary must be order-independent for a cross-engine
    // comparison (the engines present pending edges in different orders,
    // so a shuffling adversary would diverge): script explicit drop sets
    // over real graph edges, replayed identically to both engines.
    for (name, g) in families() {
        let n = g.vertex_count();
        let inputs: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
        let script: Vec<Vec<minobs_graphs::DirectedEdge>> = (0..3)
            .map(|round| {
                g.edges()
                    .iter()
                    .skip(round)
                    .take(2)
                    .map(|e| minobs_graphs::DirectedEdge::new(e.a, e.b))
                    .collect()
            })
            .collect();

        let mut serial = MemoryRecorder::new();
        let serial_out = run_network_with_recorder(
            &g,
            FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId),
            &mut ScriptedAdversary::repeating(script.clone()),
            2 * n,
            &mut serial,
        );

        let mut parallel = MemoryRecorder::new();
        let parallel_out = run_network_parallel_with_recorder(
            &g,
            FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId),
            &mut ScriptedAdversary::repeating(script),
            2 * n,
            3,
            &mut parallel,
        );

        assert_eq!(serial_out.stats, parallel_out.stats, "{name}: RunStats diverge");
        assert_eq!(
            comparable(&serial),
            comparable(&parallel),
            "{name}: canonical event streams diverge under omissions"
        );
    }
}

#[test]
fn serial_and_parallel_engines_produce_identical_metrics_snapshots() {
    for (name, g) in families() {
        let n = g.vertex_count();
        let inputs: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();

        let mut serial = MemoryRecorder::new();
        run_network_with_recorder(
            &g,
            FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId),
            &mut NoFault,
            2 * n,
            &mut serial,
        );
        let serial_snapshot = metrics_snapshot_of(&comparable(&serial));

        for threads in [2usize, 4] {
            let mut parallel = MemoryRecorder::new();
            run_network_parallel_with_recorder(
                &g,
                FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId),
                &mut NoFault,
                2 * n,
                threads,
                &mut parallel,
            );
            assert_eq!(
                serial_snapshot,
                metrics_snapshot_of(&comparable(&parallel)),
                "{name} t={threads}: metrics snapshots diverge"
            );
        }
    }
}

#[test]
fn parallel_coordinator_spans_are_canonical() {
    for (name, g) in families() {
        let n = g.vertex_count();
        let inputs: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();

        let mut serial = MemoryRecorder::new();
        run_network_with_recorder(
            &g,
            FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId),
            &mut NoFault,
            2 * n,
            &mut serial,
        );
        let serial_names = well_formed_span_names(serial.events());
        assert!(
            serial_names
                .chunks(2)
                .all(|pair| pair == ["net_send", "net_advance"]),
            "{name}: serial spans must alternate send/advance per round"
        );

        let mut parallel = MemoryRecorder::new();
        run_network_parallel_with_recorder(
            &g,
            FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId),
            &mut NoFault,
            2 * n,
            3,
            &mut parallel,
        );
        assert_eq!(
            serial_names,
            well_formed_span_names(parallel.events()),
            "{name}: parallel coordinator span sequence diverges from serial"
        );
        assert!(
            !serial_names.is_empty(),
            "{name}: instrumented engines must emit spans"
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
