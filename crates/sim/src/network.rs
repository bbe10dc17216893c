//! The synchronous network engine.
//!
//! Round structure (Section II-F generalized to graphs, Section V-A):
//! every live node hands the engine one optional message per incident
//! edge; the adversary inspects the pending directed edges and picks the
//! omission set for the round (a letter of `Σ_G`); surviving messages are
//! delivered; every live node advances.

use crate::adversary::Adversary;
use crate::trace::RunStats;
use minobs_graphs::{DirectedEdge, Graph};
use minobs_obs::{
    MessageStatus, NullRecorder, Recorder, RoundCounts, RoundTimer, SpanGuard, SpanIds, TraceEvent,
};
use std::collections::BTreeSet;

/// A per-node synchronous state machine.
pub trait NodeProtocol {
    /// The message type.
    type Msg: Clone;

    /// This node's proposed value.
    fn input(&self) -> u64;

    /// Messages to send this round, keyed by *neighbor* id. The engine
    /// drops (and counts) any message addressed to a non-neighbor.
    fn send(&self, round: usize) -> Vec<(usize, Self::Msg)>;

    /// Consumes the round's delivered messages (sender id, payload) and
    /// advances one round.
    fn advance(&mut self, round: usize, received: Vec<(usize, Self::Msg)>);

    /// The decided value, once decided.
    fn decision(&self) -> Option<u64>;

    /// `true` once halted: the node stops sending and stepping.
    fn halted(&self) -> bool {
        self.decision().is_some()
    }
}

/// The consensus audit over all nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetVerdict {
    /// Everyone decided the same value; Validity holds.
    Consensus(u64),
    /// Two nodes decided differently.
    Disagreement {
        /// A pair of distinct decided values observed.
        values: (u64, u64),
    },
    /// All inputs equalled `proposed` but some node decided `decided`.
    ValidityViolation {
        /// The common proposal.
        proposed: u64,
        /// The offending decision.
        decided: u64,
    },
    /// Some node was still undecided at the round budget.
    Undecided {
        /// How many nodes had not decided.
        undecided: usize,
    },
}

impl NetVerdict {
    /// `true` iff consensus was reached.
    pub fn is_consensus(&self) -> bool {
        matches!(self, NetVerdict::Consensus(_))
    }

    /// Unwraps the consensus value.
    ///
    /// # Panics
    /// Panics on any other verdict.
    pub fn expect_consensus(&self) -> u64 {
        match self {
            NetVerdict::Consensus(v) => *v,
            other => panic!("expected consensus, got {other:?}"),
        }
    }
}

/// The result of a network run.
#[derive(Debug, Clone)]
pub struct NetOutcome {
    /// Per-node decisions.
    pub decisions: Vec<Option<u64>>,
    /// The audit.
    pub verdict: NetVerdict,
    /// Execution statistics.
    pub stats: RunStats,
}

/// The engine itself; usually driven through [`run_network`].
pub struct SyncNetwork<'g, P: NodeProtocol> {
    graph: &'g Graph,
    nodes: Vec<P>,
    round: usize,
    stats: RunStats,
    span_ids: SpanIds,
}

impl<'g, P: NodeProtocol> SyncNetwork<'g, P> {
    /// Builds an engine over `graph` with one protocol instance per node.
    ///
    /// # Panics
    /// Panics when the node count does not match the graph.
    pub fn new(graph: &'g Graph, nodes: Vec<P>) -> Self {
        assert_eq!(
            nodes.len(),
            graph.vertex_count(),
            "one protocol instance per vertex"
        );
        SyncNetwork {
            graph,
            nodes,
            round: 0,
            stats: RunStats::default(),
            span_ids: SpanIds::new(),
        }
    }

    /// The number of completed rounds.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Read access to the nodes.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// `true` once every node has halted.
    pub fn all_halted(&self) -> bool {
        self.nodes.iter().all(|n| n.halted())
    }

    /// Executes one round under the adversary. Returns the omission set
    /// actually applied.
    pub fn step(&mut self, adversary: &mut dyn Adversary) -> Vec<DirectedEdge> {
        self.step_with_recorder(adversary, &mut NullRecorder)
    }

    /// [`SyncNetwork::step`] with structured observations delivered to
    /// `recorder`. Per-message events and round timing are built only
    /// when `recorder.enabled()`.
    pub fn step_with_recorder<R: Recorder + ?Sized>(
        &mut self,
        adversary: &mut dyn Adversary,
        recorder: &mut R,
    ) -> Vec<DirectedEdge> {
        let observing = recorder.enabled();
        let timer = RoundTimer::start_if(observing);
        let decided_before: Vec<bool> = if observing {
            self.nodes.iter().map(|n| n.decision().is_some()).collect()
        } else {
            Vec::new()
        };
        let mut counts = RoundCounts::default();
        // 1. Collect sends from live nodes, validating targets.
        let send_span =
            SpanGuard::begin(recorder, &mut self.span_ids, self.round, None, "net_send");
        let mut pending: Vec<(DirectedEdge, P::Msg)> = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            if node.halted() {
                continue;
            }
            for (to, msg) in node.send(self.round) {
                if self.graph.has_edge(id, to) {
                    pending.push((DirectedEdge::new(id, to), msg));
                    counts.sent += 1;
                } else {
                    counts.misaddressed += 1;
                    if observing {
                        recorder.record(TraceEvent::Message {
                            round: self.round,
                            from: id,
                            to,
                            status: MessageStatus::Misaddressed,
                        });
                    }
                }
            }
        }
        if let Some(span) = send_span {
            span.end(recorder);
        }
        // 2. Adversary selects the omission set for this round.
        let pending_edges: Vec<DirectedEdge> = pending.iter().map(|(e, _)| *e).collect();
        let drops_list = adversary.select_drops(self.round, &pending_edges);
        let drops: BTreeSet<DirectedEdge> = drops_list.iter().copied().collect();
        // 3. Deliver survivors.
        let mut inboxes: Vec<Vec<(usize, P::Msg)>> =
            (0..self.nodes.len()).map(|_| Vec::new()).collect();
        // Stats count only effective omissions (drops ∩ pending): the
        // adversary may name edges with no message in flight (the paper's
        // letters also name losses of unsent messages), and those must not
        // inflate `max_drops_per_round` past the `O_f` budget accounting.
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
                    round: self.round,
                    from: edge.from,
                    to: edge.to,
                    status,
                });
            }
        }
        self.stats.max_drops_per_round = self.stats.max_drops_per_round.max(effective_drops.len());
        // Message conservation: every valid send this round is accounted
        // for exactly once. (Misaddressed sends never enter `sent`.)
        debug_assert_eq!(
            counts.sent,
            counts.delivered + counts.dropped,
            "round {}: sent messages must split into delivered + dropped",
            self.round
        );
        self.stats.messages_sent += counts.sent;
        self.stats.messages_delivered += counts.delivered;
        self.stats.messages_dropped += counts.dropped;
        self.stats.misaddressed += counts.misaddressed;
        // 4. Advance live nodes.
        let advance_span = SpanGuard::begin(
            recorder,
            &mut self.span_ids,
            self.round,
            None,
            "net_advance",
        );
        for (id, node) in self.nodes.iter_mut().enumerate() {
            if !node.halted() {
                node.advance(self.round, std::mem::take(&mut inboxes[id]));
            }
        }
        if let Some(span) = advance_span {
            span.end(recorder);
        }
        if observing {
            for (id, node) in self.nodes.iter().enumerate() {
                if !decided_before[id] {
                    if let Some(value) = node.decision() {
                        recorder.record(TraceEvent::Decision {
                            round: self.round,
                            node: id,
                            value,
                        });
                    }
                }
            }
        }
        recorder.record(TraceEvent::RoundEnd {
            round: self.round,
            counts,
            nanos: timer.elapsed_nanos(),
        });
        self.round += 1;
        self.stats.rounds = self.round;
        drops_list
    }

    /// Runs until all nodes halt or the round budget is hit; audits.
    /// The nodes stay readable through [`SyncNetwork::nodes`] afterwards.
    pub fn run(&mut self, adversary: &mut dyn Adversary, max_rounds: usize) -> NetOutcome {
        self.run_with_recorder(adversary, max_rounds, &mut NullRecorder)
    }

    /// [`SyncNetwork::run`] with structured observations delivered to
    /// `recorder`.
    pub fn run_with_recorder<R: Recorder + ?Sized>(
        &mut self,
        adversary: &mut dyn Adversary,
        max_rounds: usize,
        recorder: &mut R,
    ) -> NetOutcome {
        let timer = RoundTimer::start_if(recorder.enabled());
        recorder.record(TraceEvent::RunStart {
            engine: "network",
            nodes: self.nodes.len(),
            threads: 1,
        });
        while self.round < max_rounds && !self.all_halted() {
            self.step_with_recorder(adversary, recorder);
        }
        let inputs: Vec<u64> = self.nodes.iter().map(|n| n.input()).collect();
        let decisions: Vec<Option<u64>> = self.nodes.iter().map(|n| n.decision()).collect();
        let verdict = audit_network(&inputs, &decisions);
        recorder.record(self.stats.run_end(timer.elapsed_nanos()));
        NetOutcome {
            decisions,
            verdict,
            stats: self.stats.clone(),
        }
    }
}

/// Convenience wrapper: build, run, audit.
pub fn run_network<P: NodeProtocol>(
    graph: &Graph,
    nodes: Vec<P>,
    adversary: &mut dyn Adversary,
    max_rounds: usize,
) -> NetOutcome {
    SyncNetwork::new(graph, nodes).run(adversary, max_rounds)
}

/// [`run_network`] with structured observations delivered to `recorder`.
pub fn run_network_with_recorder<P: NodeProtocol, R: Recorder + ?Sized>(
    graph: &Graph,
    nodes: Vec<P>,
    adversary: &mut dyn Adversary,
    max_rounds: usize,
    recorder: &mut R,
) -> NetOutcome {
    SyncNetwork::new(graph, nodes).run_with_recorder(adversary, max_rounds, recorder)
}

/// Audits Termination, Agreement, and Validity over `n` nodes.
pub fn audit_network(inputs: &[u64], decisions: &[Option<u64>]) -> NetVerdict {
    let undecided = decisions.iter().filter(|d| d.is_none()).count();
    if undecided > 0 {
        return NetVerdict::Undecided { undecided };
    }
    let values: Vec<u64> = decisions.iter().map(|d| d.unwrap()).collect();
    let first = values[0];
    if let Some(&other) = values.iter().find(|&&v| v != first) {
        return NetVerdict::Disagreement {
            values: (first, other),
        };
    }
    let all_same_input = inputs.iter().all(|&i| i == inputs[0]);
    if all_same_input && first != inputs[0] {
        return NetVerdict::ValidityViolation {
            proposed: inputs[0],
            decided: first,
        };
    }
    NetVerdict::Consensus(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{NoFault, ScriptedAdversary};
    use minobs_graphs::generators;

    /// A protocol that floods its input and decides the max seen after a
    /// fixed number of rounds — a minimal exerciser for the engine.
    #[derive(Debug, Clone)]
    struct MaxFlood {
        input: u64,
        best: u64,
        deadline: usize,
        decision: Option<u64>,
    }

    impl MaxFlood {
        fn new(input: u64, deadline: usize) -> Self {
            MaxFlood {
                input,
                best: input,
                deadline,
                decision: None,
            }
        }
    }

    impl NodeProtocol for MaxFlood {
        type Msg = u64;

        fn input(&self) -> u64 {
            self.input
        }

        fn send(&self, _round: usize) -> Vec<(usize, u64)> {
            Vec::new() // filled in by the harness below
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

    /// MaxFlood with real broadcasting (needs the neighbor list).
    #[derive(Debug, Clone)]
    struct MaxFloodBcast {
        inner: MaxFlood,
        neighbors: Vec<usize>,
    }

    impl NodeProtocol for MaxFloodBcast {
        type Msg = u64;

        fn input(&self) -> u64 {
            self.inner.input
        }

        fn send(&self, _round: usize) -> Vec<(usize, u64)> {
            self.neighbors
                .iter()
                .map(|&n| (n, self.inner.best))
                .collect()
        }

        fn advance(&mut self, round: usize, received: Vec<(usize, u64)>) {
            self.inner.advance(round, received);
        }

        fn decision(&self) -> Option<u64> {
            self.inner.decision
        }
    }

    fn bcast_nodes(
        g: &minobs_graphs::Graph,
        inputs: &[u64],
        deadline: usize,
    ) -> Vec<MaxFloodBcast> {
        inputs
            .iter()
            .enumerate()
            .map(|(id, &v)| MaxFloodBcast {
                inner: MaxFlood::new(v, deadline),
                neighbors: g.neighbors(id).to_vec(),
            })
            .collect()
    }

    #[test]
    fn fault_free_flood_reaches_consensus() {
        let g = generators::cycle(5);
        let inputs = [3, 1, 4, 1, 5];
        let nodes = bcast_nodes(&g, &inputs, 4);
        let out = run_network(&g, nodes, &mut NoFault, 10);
        assert_eq!(out.verdict, NetVerdict::Consensus(5));
        assert_eq!(out.stats.rounds, 4);
    }

    #[test]
    fn validity_on_uniform_inputs() {
        let g = generators::complete(4);
        let nodes = bcast_nodes(&g, &[7, 7, 7, 7], 1);
        let out = run_network(&g, nodes, &mut NoFault, 4);
        assert_eq!(out.verdict, NetVerdict::Consensus(7));
    }

    #[test]
    fn undecided_when_budget_too_small() {
        let g = generators::path(3);
        let nodes = bcast_nodes(&g, &[1, 2, 3], 10);
        let out = run_network(&g, nodes, &mut NoFault, 2);
        assert!(matches!(
            out.verdict,
            NetVerdict::Undecided { undecided: 3 }
        ));
    }

    #[test]
    fn scripted_adversary_blocks_information() {
        // Path 0-1-2: cut the 0→1 message every round; node 2 never learns
        // node 0's larger value within the deadline → disagreement.
        let g = generators::path(3);
        let nodes = bcast_nodes(&g, &[9, 0, 0], 3);
        let cut = DirectedEdge::new(0, 1);
        let mut adv = ScriptedAdversary::repeating(vec![vec![cut]]);
        let out = run_network(&g, nodes, &mut adv, 6);
        match out.verdict {
            NetVerdict::Disagreement { .. } => {}
            other => panic!("expected disagreement, got {other:?}"),
        }
    }

    #[test]
    fn stats_count_messages() {
        let g = generators::complete(3);
        let nodes = bcast_nodes(&g, &[1, 2, 3], 2);
        let out = run_network(&g, nodes, &mut NoFault, 5);
        // 3 nodes × 2 neighbors × 2 rounds.
        assert_eq!(out.stats.messages_sent, 12);
        assert_eq!(out.stats.messages_delivered, 12);
        assert_eq!(out.stats.messages_dropped, 0);
    }

    #[test]
    fn misaddressed_messages_are_counted_not_delivered() {
        #[derive(Debug)]
        struct Chatty;
        impl NodeProtocol for Chatty {
            type Msg = ();
            fn input(&self) -> u64 {
                0
            }
            fn send(&self, _r: usize) -> Vec<(usize, ())> {
                vec![(2, ())] // not a neighbor on a path 0-1, and self for 2
            }
            fn advance(&mut self, _r: usize, _m: Vec<(usize, ())>) {}
            fn decision(&self) -> Option<u64> {
                None
            }
        }
        let g = generators::path(3); // edges 0-1, 1-2
        let out = run_network(&g, vec![Chatty, Chatty, Chatty], &mut NoFault, 1);
        // Node 0 → 2 misaddressed; node 1 → 2 fine; node 2 → 2 self-loop
        // (has_edge rejects self), misaddressed.
        assert_eq!(out.stats.misaddressed, 2);
        assert_eq!(out.stats.messages_sent, 1);
    }

    #[test]
    fn max_drops_counts_only_in_flight_edges() {
        // The adversary names three edges, but only 1→0 is ever in flight
        // (node 0 halts immediately, so 0→1 is pending in round 0 only if
        // node 0 is live — here all are live, so 0→1 and 1→0 fly; 2→0 is
        // not an edge of the path at all and never flies).
        let g = generators::path(3); // edges 0-1, 1-2
        let nodes = bcast_nodes(&g, &[1, 2, 3], 2);
        let mut adv = ScriptedAdversary::repeating(vec![vec![
            DirectedEdge::new(1, 0),
            DirectedEdge::new(2, 0), // not an edge: never pending
            DirectedEdge::new(0, 2), // not an edge: never pending
        ]]);
        let out = run_network(&g, nodes, &mut adv, 4);
        // Only 1→0 is ever both named and in flight.
        assert_eq!(out.stats.max_drops_per_round, 1);
        assert_eq!(
            out.stats.messages_dropped, out.stats.rounds,
            "one effective drop per round"
        );
    }

    #[test]
    fn fault_free_flood_sends_on_every_directed_edge_each_round() {
        for g in [
            generators::cycle(17),
            generators::complete(9),
            generators::grid(4, 5),
        ] {
            let n = g.vertex_count();
            let inputs: Vec<u64> = (0..n as u64).map(|id| (id * 7) % 23).collect();
            let max = *inputs.iter().max().unwrap();
            let out = run_network(&g, bcast_nodes(&g, &inputs, n - 1), &mut NoFault, 2 * n);
            assert_eq!(out.verdict, NetVerdict::Consensus(max), "{g}");
            assert_eq!(out.stats.rounds, n - 1, "{g}");
            // Every node stays live until the common deadline.
            let per_round = 2 * g.edge_count();
            assert_eq!(out.stats.messages_sent, per_round * out.stats.rounds, "{g}");
            assert_eq!(out.stats.messages_delivered, out.stats.messages_sent, "{g}");
            assert_eq!(out.stats.messages_dropped, 0, "{g}");
            assert_eq!(out.stats.max_drops_per_round, 0, "{g}");
        }
    }

    #[test]
    fn scripted_drops_are_counted_each_round() {
        let g = generators::torus(3, 4);
        let n = g.vertex_count();
        let script = vec![
            vec![DirectedEdge::new(0, 1), DirectedEdge::new(4, 5)],
            vec![DirectedEdge::new(1, 0)],
            vec![],
        ];
        let inputs: Vec<u64> = (0..n as u64).map(|id| (id * 7) % 23).collect();
        let max = *inputs.iter().max().unwrap();
        let mut adv = ScriptedAdversary::repeating(script.clone());
        let out = run_network(&g, bcast_nodes(&g, &inputs, n - 1), &mut adv, 2 * n);
        assert_eq!(out.verdict, NetVerdict::Consensus(max));
        assert_eq!(out.stats.rounds, n - 1);
        // All nodes are live every round, so each scripted edge is in flight.
        let expected: usize = (0..out.stats.rounds)
            .map(|round| script[round % script.len()].len())
            .sum();
        assert_eq!(out.stats.messages_dropped, expected);
        assert_eq!(out.stats.max_drops_per_round, 2);
        assert_eq!(
            out.stats.messages_delivered + out.stats.messages_dropped,
            out.stats.messages_sent
        );
    }

    #[test]
    fn seeded_random_omissions_replay_identically() {
        // f = 3 < c(Q_4) = 4: flooding for n - 1 rounds still agrees
        // (Theorem V.1), and a fixed seed reproduces the run exactly.
        use crate::adversary::RandomOmissions;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = generators::hypercube(4);
        let n = g.vertex_count();
        let inputs: Vec<u64> = (0..n as u64).map(|id| (id * 7) % 23).collect();
        let max = *inputs.iter().max().unwrap();
        let run = || {
            let mut adv = RandomOmissions::new(3, StdRng::seed_from_u64(11));
            run_network(&g, bcast_nodes(&g, &inputs, n - 1), &mut adv, 2 * n)
        };
        let (first, second) = (run(), run());
        assert_eq!(first.decisions, second.decisions);
        assert_eq!(first.stats, second.stats);
        assert_eq!(first.verdict, NetVerdict::Consensus(max));
        assert_eq!(first.stats.max_drops_per_round, 3);
        assert_eq!(first.stats.messages_dropped, 3 * first.stats.rounds);
    }

    #[test]
    fn send_to_halted_neighbor_counts_as_sent_and_delivered() {
        use minobs_obs::{MemoryRecorder, RoundCounts};
        // Path 0-1: node 0 decides (and halts) after round 0, node 1
        // keeps sending to it for two more rounds.
        let g = generators::path(2);
        let nodes = vec![
            MaxFloodBcast {
                inner: MaxFlood::new(1, 1),
                neighbors: vec![1],
            },
            MaxFloodBcast {
                inner: MaxFlood::new(2, 3),
                neighbors: vec![0],
            },
        ];
        let mut rec = MemoryRecorder::new();
        let out = run_network_with_recorder(&g, nodes, &mut NoFault, 10, &mut rec);
        assert_eq!(out.verdict, NetVerdict::Consensus(2));
        assert_eq!(out.stats.rounds, 3);
        assert_eq!(out.stats.messages_sent, 4);
        assert_eq!(out.stats.messages_delivered, 4);
        let per_round: Vec<RoundCounts> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RoundEnd { counts, .. } => Some(*counts),
                _ => None,
            })
            .collect();
        let one_to_halted = RoundCounts {
            sent: 1,
            delivered: 1,
            ..RoundCounts::default()
        };
        assert_eq!(per_round[0].sent, 2);
        assert_eq!(per_round[1..], [one_to_halted, one_to_halted]);
    }

    #[test]
    fn step_returns_the_adversarys_selection_but_counts_only_in_flight_drops() {
        let g = generators::path(3); // edges 0-1, 1-2
        let named = vec![DirectedEdge::new(1, 0), DirectedEdge::new(2, 0)];
        let mut adv = ScriptedAdversary::repeating(vec![named.clone()]);
        let mut net = SyncNetwork::new(&g, bcast_nodes(&g, &[1, 2, 3], 5));
        for round in 1..=3 {
            assert_eq!(net.step(&mut adv), named);
            assert_eq!(net.round(), round);
            assert_eq!(net.stats().messages_dropped, round);
        }
        assert_eq!(net.stats().max_drops_per_round, 1);
        assert!(!net.all_halted());
    }

    #[test]
    fn audit_catches_disagreement_and_validity() {
        assert!(matches!(
            audit_network(&[0, 1], &[Some(0), Some(1)]),
            NetVerdict::Disagreement { .. }
        ));
        assert!(matches!(
            audit_network(&[5, 5], &[Some(4), Some(4)]),
            NetVerdict::ValidityViolation {
                proposed: 5,
                decided: 4
            }
        ));
        assert_eq!(
            audit_network(&[2, 3], &[Some(2), Some(2)]),
            NetVerdict::Consensus(2)
        );
    }

    #[test]
    #[should_panic(expected = "one protocol instance per vertex")]
    fn node_count_mismatch_rejected() {
        let g = generators::cycle(3);
        let _ = SyncNetwork::new(&g, bcast_nodes(&generators::cycle(4), &[0, 0, 0, 0], 1));
    }
}
