//! A data-parallel variant of the network engine.
//!
//! The synchronous round structure is embarrassingly parallel within a
//! round: every node's `send` depends only on its own state, and every
//! node's `advance` consumes a disjoint inbox. This engine fans both
//! phases out over `std::thread::scope` threads working on disjoint node
//! chunks — no locks on the hot path; each worker accumulates a private
//! `WorkerShard` that the coordinator merges at the round barrier.
//!
//! The results are **bit-identical** to [`crate::network::SyncNetwork`]:
//! pending messages are ordered by (sender, receiver) before the adversary
//! sees them, so adversaries observe the same view in both engines
//! (asserted by the equivalence tests, and benchmarked as the
//! engine ablation in `minobs-bench`). Trace events are emitted from the
//! sequential phase only, so recorded streams canonicalise to the same
//! stream the serial engine produces.
//!
//! ## Panic isolation
//!
//! A panicking worker no longer aborts the run. Phase 1 (`send`, reads
//! node state) is wrapped in `catch_unwind` per worker: on a panic the
//! coordinator re-executes the whole shard serially — `send` is `&self`,
//! so the retry is exact — and records an `engine_degraded` trace event.
//! Phase 3 (`advance`, mutates node state) catches per node: a panicking
//! node is retried once on the coordinator thread with an **empty** inbox
//! (its messages were consumed by the failed call; in the omission model
//! an emptied inbox reads as extra message losses, which is the graceful
//! form of degradation). Either way the run completes with the same
//! `RunStats` the serial engine would produce.

use crate::adversary::Adversary;
use crate::network::{audit_network, NetOutcome, NodeProtocol};
use crate::trace::RunStats;
use minobs_graphs::{DirectedEdge, Graph};
use minobs_obs::{
    MessageStatus, NullRecorder, Recorder, RoundCounts, RoundTimer, SpanGuard, SpanIds, TraceEvent,
};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Per-worker metric shard: counts (and, when observing, buffered
/// misaddressed sends) accumulated lock-free during phase 1 and merged by
/// the coordinator at the round barrier.
#[derive(Debug, Default)]
struct WorkerShard {
    sent: usize,
    misaddressed: usize,
    /// `(from, to)` of misaddressed sends, buffered for the recorder.
    /// Only populated when a recorder is observing.
    misaddressed_sends: Vec<(usize, usize)>,
}

/// Phase-1 send collection for one shard of nodes — shared between the
/// parallel workers and the coordinator's serial re-execution on panic.
fn collect_sends<P: NodeProtocol>(
    graph: &Graph,
    chunk_nodes: &[P],
    base: usize,
    round: usize,
    observing: bool,
) -> (Vec<(DirectedEdge, P::Msg)>, WorkerShard) {
    let mut out: Vec<(DirectedEdge, P::Msg)> = Vec::new();
    let mut shard = WorkerShard::default();
    for (off, node) in chunk_nodes.iter().enumerate() {
        if node.halted() {
            continue;
        }
        let id = base + off;
        for (to, msg) in node.send(round) {
            if graph.has_edge(id, to) {
                out.push((DirectedEdge::new(id, to), msg));
                shard.sent += 1;
            } else {
                shard.misaddressed += 1;
                if observing {
                    shard.misaddressed_sends.push((id, to));
                }
            }
        }
    }
    (out, shard)
}

/// Runs the network with node phases parallelized over `threads` workers.
///
/// Requires `P: Send + Sync` and `P::Msg: Send` — phase 1 reads node
/// state from several workers, phase 3 hands each worker exclusive access
/// to a disjoint chunk.
///
/// # Panics
/// Panics when `threads == 0` or the node count mismatches the graph.
pub fn run_network_parallel<P>(
    graph: &Graph,
    nodes: Vec<P>,
    adversary: &mut dyn Adversary,
    max_rounds: usize,
    threads: usize,
) -> NetOutcome
where
    P: NodeProtocol + Send + Sync,
    P::Msg: Send,
{
    run_network_parallel_with_recorder(graph, nodes, adversary, max_rounds, threads, &mut NullRecorder)
}

/// [`run_network_parallel`] with structured observations delivered to
/// `recorder`. All events are emitted from the coordinator between the
/// parallel phases — workers never touch the recorder.
pub fn run_network_parallel_with_recorder<P, R>(
    graph: &Graph,
    mut nodes: Vec<P>,
    adversary: &mut dyn Adversary,
    max_rounds: usize,
    threads: usize,
    recorder: &mut R,
) -> NetOutcome
where
    P: NodeProtocol + Send + Sync,
    P::Msg: Send,
    R: Recorder + ?Sized,
{
    assert!(threads > 0, "need at least one worker");
    assert_eq!(
        nodes.len(),
        graph.vertex_count(),
        "one protocol instance per vertex"
    );
    let n = nodes.len();
    let chunk = n.div_ceil(threads);
    let mut stats = RunStats::default();
    let mut round = 0usize;
    let run_timer = RoundTimer::start_if(recorder.enabled());
    // Coordinator-owned: span events (like all events) are emitted only
    // between the parallel phases, and the id sequence matches the serial
    // engine's so canonical streams stay identical.
    let mut span_ids = SpanIds::new();
    recorder.record(TraceEvent::RunStart {
        engine: "network_parallel",
        nodes: n,
        threads,
    });

    while round < max_rounds && !nodes.iter().all(|p| p.halted()) {
        let observing = recorder.enabled();
        let timer = RoundTimer::start_if(observing);
        let decided_before: Vec<bool> = if observing {
            nodes.iter().map(|p| p.decision().is_some()).collect()
        } else {
            Vec::new()
        };
        let mut counts = RoundCounts::default();

        // ---- Phase 1 (parallel): collect sends per chunk, lock-free.
        // Each worker runs inside catch_unwind; a panicking shard is
        // re-executed serially by the coordinator (send is `&self`, so
        // the retry observes identical state).
        type SendResult<M> = Result<(Vec<(DirectedEdge, M)>, WorkerShard), ()>;
        let send_span = SpanGuard::begin(recorder, &mut span_ids, round, None, "net_send");
        let per_chunk: Vec<SendResult<P::Msg>> = std::thread::scope(|scope| {
            let handles: Vec<_> = nodes
                .chunks(chunk)
                .enumerate()
                .map(|(ci, chunk_nodes)| {
                    scope.spawn(move || {
                        catch_unwind(AssertUnwindSafe(|| {
                            collect_sends(graph, chunk_nodes, ci * chunk, round, observing)
                        }))
                        .map_err(|_| ())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("workers catch their own panics"))
                .collect()
        });

        // ---- Round barrier: merge the worker shards, recovering any
        // panicked shard serially. ----
        let mut pending: Vec<(DirectedEdge, P::Msg)> = Vec::new();
        for (ci, result) in per_chunk.into_iter().enumerate() {
            let (out, shard) = match result {
                Ok(pair) => pair,
                Err(()) => {
                    recorder.record(TraceEvent::EngineDegraded {
                        round,
                        phase: "send",
                        shard: ci,
                    });
                    let chunk_nodes = &nodes[ci * chunk..((ci + 1) * chunk).min(n)];
                    collect_sends(graph, chunk_nodes, ci * chunk, round, observing)
                }
            };
            counts.sent += shard.sent;
            counts.misaddressed += shard.misaddressed;
            if observing {
                for (from, to) in shard.misaddressed_sends {
                    recorder.record(TraceEvent::Message {
                        round,
                        from,
                        to,
                        status: MessageStatus::Misaddressed,
                    });
                }
            }
            pending.extend(out);
        }
        // Deterministic adversary view, identical to the sequential engine
        // (which collects in node order).
        pending.sort_by_key(|(e, _)| (e.from, e.to));
        if let Some(span) = send_span {
            span.end(recorder);
        }

        // ---- Phase 2 (sequential): adversary + routing. ----
        let pending_edges: Vec<DirectedEdge> = pending.iter().map(|(e, _)| *e).collect();
        let drops: BTreeSet<DirectedEdge> = adversary
            .select_drops(round, &pending_edges)
            .into_iter()
            .collect();
        let mut inboxes: Vec<Vec<(usize, P::Msg)>> = (0..n).map(|_| Vec::new()).collect();
        // Like the serial engine, stats count only effective omissions
        // (drops ∩ pending) so the `O_f` budget accounting is not inflated
        // by named-but-unsent edges.
        let mut effective_drops: BTreeSet<DirectedEdge> = BTreeSet::new();
        for (edge, msg) in pending {
            let status = if drops.contains(&edge) {
                counts.dropped += 1;
                effective_drops.insert(edge);
                MessageStatus::Dropped
            } else {
                inboxes[edge.to].push((edge.from, msg));
                counts.delivered += 1;
                MessageStatus::Delivered
            };
            if observing {
                recorder.record(TraceEvent::Message {
                    round,
                    from: edge.from,
                    to: edge.to,
                    status,
                });
            }
        }
        stats.max_drops_per_round = stats.max_drops_per_round.max(effective_drops.len());
        // Message conservation, mirroring the serial engine's per-round
        // check: valid sends split exactly into delivered + dropped.
        debug_assert_eq!(
            counts.sent,
            counts.delivered + counts.dropped,
            "round {round}: sent messages must split into delivered + dropped"
        );
        stats.messages_sent += counts.sent;
        stats.messages_delivered += counts.delivered;
        stats.messages_dropped += counts.dropped;
        stats.misaddressed += counts.misaddressed;

        // ---- Phase 3 (parallel): advance per chunk over disjoint slices.
        // Panics are caught per node: the worker records which nodes
        // failed and carries on; the coordinator retries each failed node
        // once with an empty inbox (the original messages were consumed
        // by the failed call — in the omission model the loss reads as
        // extra drops, the graceful form of degradation).
        let advance_span = SpanGuard::begin(recorder, &mut span_ids, round, None, "net_advance");
        let failed_by_shard: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let mut inbox_chunks = inboxes.chunks_mut(chunk);
            for (ci, node_chunk) in nodes.chunks_mut(chunk).enumerate() {
                let inbox_chunk = inbox_chunks.next().expect("chunk counts align");
                handles.push(scope.spawn(move || {
                    let base = ci * chunk;
                    let mut failed: Vec<usize> = Vec::new();
                    for (off, (node, inbox)) in
                        node_chunk.iter_mut().zip(inbox_chunk).enumerate()
                    {
                        if node.halted() {
                            continue;
                        }
                        let inbox = std::mem::take(inbox);
                        if catch_unwind(AssertUnwindSafe(|| node.advance(round, inbox)))
                            .is_err()
                        {
                            failed.push(base + off);
                        }
                    }
                    failed
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("workers catch their own panics"))
                .collect()
        });
        for (ci, failed) in failed_by_shard.into_iter().enumerate() {
            if failed.is_empty() {
                continue;
            }
            recorder.record(TraceEvent::EngineDegraded {
                round,
                phase: "advance",
                shard: ci,
            });
            for id in failed {
                // Best-effort retry on the coordinator thread; a second
                // panic leaves the node in whatever state the protocol
                // reached, and the run still completes.
                let node = &mut nodes[id];
                let _ = catch_unwind(AssertUnwindSafe(|| node.advance(round, Vec::new())));
            }
        }
        if let Some(span) = advance_span {
            span.end(recorder);
        }

        if observing {
            for (id, node) in nodes.iter().enumerate() {
                if !decided_before[id] {
                    if let Some(value) = node.decision() {
                        recorder.record(TraceEvent::Decision {
                            round,
                            node: id,
                            value,
                        });
                    }
                }
            }
        }
        recorder.record(TraceEvent::RoundEnd {
            round,
            counts,
            nanos: timer.elapsed_nanos(),
        });
        round += 1;
    }

    stats.rounds = round;
    let inputs: Vec<u64> = nodes.iter().map(|p| p.input()).collect();
    let decisions: Vec<Option<u64>> = nodes.iter().map(|p| p.decision()).collect();
    let verdict = audit_network(&inputs, &decisions);
    recorder.record(stats.run_end(run_timer.elapsed_nanos()));
    NetOutcome {
        decisions,
        verdict,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{NoFault, RandomOmissions, ScriptedAdversary};
    use crate::network::run_network;
    use minobs_graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A deterministic flooding protocol for equivalence checks.
    #[derive(Debug, Clone)]
    struct Flood {
        input: u64,
        best: u64,
        neighbors: Vec<usize>,
        deadline: usize,
        decision: Option<u64>,
    }

    impl NodeProtocol for Flood {
        type Msg = u64;
        fn input(&self) -> u64 {
            self.input
        }
        fn send(&self, _r: usize) -> Vec<(usize, u64)> {
            self.neighbors.iter().map(|&n| (n, self.best)).collect()
        }
        fn advance(&mut self, round: usize, received: Vec<(usize, u64)>) {
            for (_, v) in received {
                self.best = self.best.max(v);
            }
            if round + 1 >= self.deadline {
                self.decision = Some(self.best);
            }
        }
        fn decision(&self) -> Option<u64> {
            self.decision
        }
    }

    fn fleet(g: &Graph, deadline: usize) -> Vec<Flood> {
        (0..g.vertex_count())
            .map(|id| Flood {
                input: (id as u64 * 7) % 23,
                best: (id as u64 * 7) % 23,
                neighbors: g.neighbors(id).to_vec(),
                deadline,
                decision: None,
            })
            .collect()
    }

    #[test]
    fn matches_sequential_engine_no_fault() {
        for g in [generators::cycle(17), generators::complete(9), generators::grid(4, 5)] {
            let n = g.vertex_count();
            let seq = run_network(&g, fleet(&g, n - 1), &mut NoFault, 2 * n);
            for threads in [1, 2, 4, 7] {
                let par =
                    run_network_parallel(&g, fleet(&g, n - 1), &mut NoFault, 2 * n, threads);
                assert_eq!(par.decisions, seq.decisions, "{g} threads={threads}");
                assert_eq!(par.verdict, seq.verdict);
                assert_eq!(par.stats, seq.stats);
            }
        }
    }

    #[test]
    fn matches_sequential_engine_under_scripted_adversary() {
        let g = generators::torus(3, 4);
        let n = g.vertex_count();
        let script: Vec<Vec<DirectedEdge>> = vec![
            vec![DirectedEdge::new(0, 1), DirectedEdge::new(4, 5)],
            vec![DirectedEdge::new(1, 0)],
            vec![],
        ];
        let seq = run_network(
            &g,
            fleet(&g, n - 1),
            &mut ScriptedAdversary::repeating(script.clone()),
            2 * n,
        );
        let par = run_network_parallel(
            &g,
            fleet(&g, n - 1),
            &mut ScriptedAdversary::repeating(script),
            2 * n,
            3,
        );
        assert_eq!(par.decisions, seq.decisions);
        assert_eq!(par.stats, seq.stats);
    }

    #[test]
    fn matches_sequential_engine_under_seeded_random_adversary() {
        // The adversary sees identically-ordered pending lists, so a seeded
        // RNG produces the same drops in both engines.
        let g = generators::hypercube(4);
        let n = g.vertex_count();
        let seq = run_network(
            &g,
            fleet(&g, n - 1),
            &mut RandomOmissions::new(3, StdRng::seed_from_u64(11)),
            2 * n,
        );
        let par = run_network_parallel(
            &g,
            fleet(&g, n - 1),
            &mut RandomOmissions::new(3, StdRng::seed_from_u64(11)),
            2 * n,
            4,
        );
        assert_eq!(par.decisions, seq.decisions);
        assert_eq!(par.stats, seq.stats);
    }

    #[test]
    fn more_threads_than_nodes_is_fine() {
        let g = generators::cycle(3);
        let out = run_network_parallel(&g, fleet(&g, 2), &mut NoFault, 8, 16);
        assert!(out.verdict.is_consensus());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let g = generators::cycle(3);
        let _ = run_network_parallel(&g, fleet(&g, 2), &mut NoFault, 8, 0);
    }

    /// Flood that panics in `send` whenever it runs on an unnamed thread.
    /// Cargo's test harness names its threads after the test, while the
    /// engine's workers are unnamed — so the serial run (on the test
    /// thread) is clean and every parallel worker blows up, exercising
    /// the exact-recovery path on all shards.
    #[derive(Debug, Clone)]
    struct SendBomb(Flood);

    impl NodeProtocol for SendBomb {
        type Msg = u64;
        fn input(&self) -> u64 {
            self.0.input()
        }
        fn send(&self, r: usize) -> Vec<(usize, u64)> {
            if std::thread::current().name().is_none() {
                panic!("worker-only send failure");
            }
            self.0.send(r)
        }
        fn advance(&mut self, round: usize, received: Vec<(usize, u64)>) {
            self.0.advance(round, received);
        }
        fn decision(&self) -> Option<u64> {
            self.0.decision()
        }
    }

    #[test]
    fn panicking_send_worker_degrades_and_matches_sequential() {
        use minobs_obs::{MemoryRecorder, TraceEvent};
        let g = generators::grid(4, 5);
        let n = g.vertex_count();
        let seq = run_network(
            &g,
            fleet(&g, n - 1).into_iter().map(SendBomb).collect(),
            &mut NoFault,
            2 * n,
        );
        let mut rec = MemoryRecorder::new();
        let par = run_network_parallel_with_recorder(
            &g,
            fleet(&g, n - 1).into_iter().map(SendBomb).collect(),
            &mut NoFault,
            2 * n,
            4,
            &mut rec,
        );
        // Exact degradation: the coordinator re-executes every panicked
        // shard serially, so the run is bit-identical to the serial one.
        assert_eq!(par.decisions, seq.decisions);
        assert_eq!(par.verdict, seq.verdict);
        assert_eq!(par.stats, seq.stats);
        let degraded: Vec<_> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::EngineDegraded { phase, shard, .. } => Some((*phase, *shard)),
                _ => None,
            })
            .collect();
        assert!(!degraded.is_empty(), "expected EngineDegraded events");
        assert!(degraded.iter().all(|&(phase, _)| phase == "send"));
    }

    /// Flood that panics in `advance` at one round on unnamed threads.
    #[derive(Debug, Clone)]
    struct AdvanceBomb {
        inner: Flood,
        bomb_round: usize,
    }

    impl NodeProtocol for AdvanceBomb {
        type Msg = u64;
        fn input(&self) -> u64 {
            self.inner.input()
        }
        fn send(&self, r: usize) -> Vec<(usize, u64)> {
            self.inner.send(r)
        }
        fn advance(&mut self, round: usize, received: Vec<(usize, u64)>) {
            if round == self.bomb_round && std::thread::current().name().is_none() {
                panic!("worker-only advance failure");
            }
            self.inner.advance(round, received);
        }
        fn decision(&self) -> Option<u64> {
            self.inner.decision()
        }
    }

    #[test]
    fn panicking_advance_worker_completes_with_degraded_event() {
        use minobs_obs::{MemoryRecorder, TraceEvent};
        let g = generators::complete(9);
        let n = g.vertex_count();
        let bombed = |g: &Graph| -> Vec<AdvanceBomb> {
            fleet(g, n - 1)
                .into_iter()
                .map(|inner| AdvanceBomb { inner, bomb_round: 1 })
                .collect()
        };
        let seq = run_network(&g, bombed(&g), &mut NoFault, 2 * n);
        let mut rec = MemoryRecorder::new();
        let par =
            run_network_parallel_with_recorder(&g, bombed(&g), &mut NoFault, 2 * n, 3, &mut rec);
        // Advance-phase recovery is best-effort (the panicked inbox is
        // gone; the retry sees an empty one — an omission the fault model
        // already allows), so we assert completion and conservation, not
        // decision equality. Message accounting happens in the routing
        // phase and is untouched by the degradation.
        assert_eq!(par.stats, seq.stats);
        assert_eq!(par.decisions.len(), n);
        assert!(par.decisions.iter().all(Option::is_some));
        let degraded: Vec<_> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::EngineDegraded { round, phase, .. } => Some((*round, *phase)),
                _ => None,
            })
            .collect();
        assert!(!degraded.is_empty(), "expected EngineDegraded events");
        assert!(degraded.iter().all(|&(round, phase)| round == 1 && phase == "advance"));
    }
}
