//! Flooding consensus — the possibility half of Theorem V.1.
//!
//! Every node maintains the vector of initial values it has learned and
//! broadcasts it to all neighbors every round. With at most `f < c(G)`
//! losses per round, each value's knowledge set `K` gains at least one
//! node per round: the cut between `K` and its complement carries at least
//! `c(G) > f` edges, so at least one crossing message survives. After
//! `n - 1` rounds everyone knows every value, and a deterministic rule on
//! the full vector yields agreement.
//!
//! When the adversary exceeds the budget (`f ≥ c(G)`), the knowledge
//! vector can stay incomplete forever; the node then decides on what it
//! has — making the resulting disagreement *observable*, which is exactly
//! what the impossibility experiments measure.

use minobs_sim::network::NodeProtocol;

/// How to pick the decision from the (possibly incomplete) value vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionRule {
    /// Decide the value of the smallest node id known.
    ValueOfMinId,
    /// Decide the minimum value known.
    MinValue,
}

/// One node of the flooding consensus.
#[derive(Debug, Clone)]
pub struct FloodConsensus {
    id: usize,
    input: u64,
    /// `knowledge[v]` = initial value of node `v`, once learned.
    knowledge: Vec<Option<u64>>,
    neighbors: Vec<usize>,
    /// Decide at the end of round `deadline - 1` (i.e. after `deadline`
    /// rounds). Theorem V.1 possibility: `deadline = n - 1` suffices for
    /// `f < c(G)`.
    deadline: usize,
    rule: DecisionRule,
    decision: Option<u64>,
    /// Early-deciding mode: fix the decision as soon as the knowledge
    /// vector is complete, but keep relaying until the deadline — halting
    /// early would break the knowledge-growth argument for the *others*
    /// (a halted node sends nothing, which reads as extra omissions).
    early: bool,
    /// The round at which the decision value was fixed (early mode records
    /// the early round; deadline mode records `deadline - 1`).
    decided_at: Option<usize>,
}

impl FloodConsensus {
    /// Builds node `id` of an `n`-node flooding consensus.
    pub fn new(
        id: usize,
        n: usize,
        input: u64,
        neighbors: Vec<usize>,
        deadline: usize,
        rule: DecisionRule,
    ) -> Self {
        let mut knowledge = vec![None; n];
        knowledge[id] = Some(input);
        FloodConsensus {
            id,
            input,
            knowledge,
            neighbors,
            deadline,
            rule,
            decision: None,
            early: false,
            decided_at: None,
        }
    }

    /// Enables early deciding: the decision value is fixed the moment the
    /// knowledge vector completes (correct under `f < c(G)`: everyone
    /// eventually completes and applies the same rule to the same full
    /// vector), while the node keeps relaying until the deadline so the
    /// knowledge-growth argument stays intact for its peers.
    pub fn early_deciding(mut self) -> Self {
        self.early = true;
        self
    }

    /// The round at which the decision value was fixed.
    pub fn decided_at(&self) -> Option<usize> {
        self.decided_at
    }

    /// Builds the whole fleet for a graph, with deadline `n - 1`.
    pub fn fleet(
        graph: &minobs_graphs::Graph,
        inputs: &[u64],
        rule: DecisionRule,
    ) -> Vec<FloodConsensus> {
        let n = graph.vertex_count();
        assert_eq!(inputs.len(), n, "one input per node");
        (0..n)
            .map(|id| {
                FloodConsensus::new(
                    id,
                    n,
                    inputs[id],
                    graph.neighbors(id).to_vec(),
                    n.saturating_sub(1).max(1),
                    rule,
                )
            })
            .collect()
    }

    /// How many initial values this node has learned.
    pub fn known_count(&self) -> usize {
        self.knowledge.iter().filter(|k| k.is_some()).count()
    }

    /// `true` iff the node knows every initial value.
    pub fn knowledge_complete(&self) -> bool {
        self.knowledge.iter().all(|k| k.is_some())
    }

    fn decide(&mut self, round: usize) {
        if self.decided_at.is_none() {
            self.decided_at = Some(round);
        }
        let value = match self.rule {
            DecisionRule::ValueOfMinId => self
                .knowledge
                .iter()
                .flatten()
                .next()
                .copied()
                .expect("own value always known"),
            DecisionRule::MinValue => self
                .knowledge
                .iter()
                .flatten()
                .copied()
                .min()
                .expect("own value always known"),
        };
        self.decision = Some(value);
    }
}

/// The knowledge vector exchanged each round: `(node, value)` pairs.
pub type KnowledgeMsg = Vec<(usize, u64)>;

impl NodeProtocol for FloodConsensus {
    type Msg = KnowledgeMsg;

    fn input(&self) -> u64 {
        self.input
    }

    fn send(&self, _round: usize) -> Vec<(usize, KnowledgeMsg)> {
        let payload: KnowledgeMsg = self
            .knowledge
            .iter()
            .enumerate()
            .filter_map(|(v, k)| k.map(|val| (v, val)))
            .collect();
        self.neighbors
            .iter()
            .map(|&nb| (nb, payload.clone()))
            .collect()
    }

    fn advance(&mut self, round: usize, received: Vec<(usize, KnowledgeMsg)>) {
        for (_, payload) in received {
            for (v, val) in payload {
                if v < self.knowledge.len() {
                    let slot = &mut self.knowledge[v];
                    debug_assert!(slot.is_none() || *slot == Some(val), "conflicting values");
                    *slot = Some(val);
                }
            }
        }
        if self.early && self.decided_at.is_none() && self.knowledge_complete() {
            // Record the early decision round; the public decision (and
            // hence halting) still waits for the deadline.
            self.decided_at = Some(round);
        }
        if round + 1 >= self.deadline {
            self.decide(round);
        }
    }

    fn decision(&self) -> Option<u64> {
        self.decision
    }
}

/// An id accessor used by experiments.
impl FloodConsensus {
    /// The node id.
    pub fn id(&self) -> usize {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minobs_graphs::{cut_partition, generators};
    use minobs_sim::adversary::{BudgetChecked, CutAdversary, NoFault, RandomOmissions};
    use minobs_sim::network::{run_network, NetVerdict};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn inputs(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 10 + 3).collect()
    }

    #[test]
    fn fault_free_decides_in_n_minus_1_rounds() {
        for g in [
            generators::cycle(6),
            generators::complete(5),
            generators::grid(3, 3),
        ] {
            let n = g.vertex_count();
            let nodes = FloodConsensus::fleet(&g, &inputs(n), DecisionRule::ValueOfMinId);
            let out = run_network(&g, nodes, &mut NoFault, 2 * n);
            assert_eq!(out.verdict, NetVerdict::Consensus(3), "{g}");
            assert_eq!(out.stats.rounds, n - 1, "{g}");
        }
    }

    #[test]
    fn min_value_rule_agrees_too() {
        let g = generators::cycle(5);
        let vals = [9, 2, 7, 5, 4];
        let nodes = FloodConsensus::fleet(&g, &vals, DecisionRule::MinValue);
        let out = run_network(&g, nodes, &mut NoFault, 10);
        assert_eq!(out.verdict, NetVerdict::Consensus(2));
    }

    #[test]
    fn random_f_below_connectivity_still_consensus() {
        // Torus: c(G) = 4; f = 3 random losses per round must not prevent
        // consensus in n - 1 rounds.
        let g = generators::torus(3, 3);
        let n = g.vertex_count();
        for seed in 0..10u64 {
            let nodes = FloodConsensus::fleet(&g, &inputs(n), DecisionRule::ValueOfMinId);
            let mut adv =
                BudgetChecked::new(RandomOmissions::new(3, StdRng::seed_from_u64(seed)), 3);
            let out = run_network(&g, nodes, &mut adv, 2 * n);
            assert_eq!(out.verdict, NetVerdict::Consensus(3), "seed {seed}");
        }
    }

    #[test]
    fn cut_adversary_below_budget_cannot_block() {
        // Barbell with 3 bridges: c = 3. An adversary killing only 2 of
        // the 3 bridge directions per round (f = 2 < c) cannot block.
        let g = generators::barbell(4, 3);
        let n = g.vertex_count();
        let p = cut_partition(&g).unwrap();
        // Script: drop 2 of the 3 A→B arcs forever.
        let two_arcs: Vec<_> = p.cut[..2]
            .iter()
            .map(|&(a, b)| minobs_graphs::DirectedEdge::new(a, b))
            .collect();
        let mut adv = minobs_sim::adversary::ScriptedAdversary::repeating(vec![two_arcs]);
        let nodes = FloodConsensus::fleet(&g, &inputs(n), DecisionRule::ValueOfMinId);
        let out = run_network(&g, nodes, &mut adv, 2 * n);
        assert_eq!(out.verdict, NetVerdict::Consensus(3));
    }

    #[test]
    fn full_cut_adversary_forces_disagreement() {
        // f = c(G): the Γ_C adversary driven by (w)^ω silences A→B
        // forever; the B side never learns node 0's value.
        let g = generators::barbell(3, 2);
        let n = g.vertex_count();
        let p = cut_partition(&g).unwrap();
        let mut adv = CutAdversary::new(&p, "(w)".parse().unwrap());
        let nodes = FloodConsensus::fleet(&g, &inputs(n), DecisionRule::ValueOfMinId);
        let out = run_network(&g, nodes, &mut adv, 2 * n);
        assert!(
            matches!(out.verdict, NetVerdict::Disagreement { .. }),
            "{:?}",
            out.verdict
        );
    }

    #[test]
    fn knowledge_monotonically_grows_under_budget() {
        let g = generators::cycle(6);
        let nodes = FloodConsensus::fleet(&g, &inputs(6), DecisionRule::ValueOfMinId);
        let mut net = minobs_sim::network::SyncNetwork::new(&g, nodes);
        let mut adv = BudgetChecked::new(RandomOmissions::new(1, StdRng::seed_from_u64(5)), 1);
        let mut prev_total = 6; // each node knows itself
        for _ in 0..5 {
            net.step(&mut adv);
            let total: usize = net.nodes().iter().map(|n| n.known_count()).sum();
            assert!(total >= prev_total, "knowledge never shrinks");
            // At least one value crosses any cut each round: the global
            // count grows until complete.
            if prev_total < 36 {
                assert!(
                    total > prev_total,
                    "knowledge must grow: {prev_total} → {total}"
                );
            }
            prev_total = total;
        }
        assert!(net.nodes().iter().all(|n| n.knowledge_complete()));
    }

    #[test]
    fn early_deciding_fixes_the_value_sooner_and_agrees() {
        // On dense graphs knowledge completes long before n-1 rounds; the
        // early-deciding variant records the earlier round while producing
        // the same verdict as the deadline variant.
        for g in [
            generators::complete(8),
            generators::torus(3, 3),
            generators::cycle(9),
        ] {
            let n = g.vertex_count();
            let vals = inputs(n);
            let plain = FloodConsensus::fleet(&g, &vals, DecisionRule::ValueOfMinId);
            let early: Vec<FloodConsensus> =
                FloodConsensus::fleet(&g, &vals, DecisionRule::ValueOfMinId)
                    .into_iter()
                    .map(|node| node.early_deciding())
                    .collect();
            let out_plain = run_network(&g, plain, &mut NoFault, 2 * n);

            let mut net = minobs_sim::network::SyncNetwork::new(&g, early);
            while !net.all_halted() {
                net.step(&mut NoFault);
            }
            let early_rounds: Vec<usize> = net
                .nodes()
                .iter()
                .map(|node| node.decided_at().unwrap())
                .collect();
            let decisions: Vec<Option<u64>> = net
                .nodes()
                .iter()
                .map(|p| {
                    use minobs_sim::network::NodeProtocol as _;
                    p.decision()
                })
                .collect();
            assert_eq!(decisions, out_plain.decisions, "{g}");
            // On the complete graph everyone completes at round 0.
            if g.vertex_count() == 8 && g.edge_count() == 28 {
                assert!(early_rounds.iter().all(|&r| r == 0), "{early_rounds:?}");
            }
            // Early rounds never exceed the deadline round.
            assert!(
                early_rounds.iter().all(|&r| r <= n - 2),
                "{g}: {early_rounds:?}"
            );
        }
    }

    #[test]
    fn early_deciding_matches_eccentricity_on_cycles() {
        // On a cycle, a node completes once both arcs have covered the
        // ring: ⌈(n-1)/2⌉ rounds fault-free.
        let g = generators::cycle(11);
        let n = g.vertex_count();
        let early: Vec<FloodConsensus> =
            FloodConsensus::fleet(&g, &inputs(n), DecisionRule::ValueOfMinId)
                .into_iter()
                .map(|node| node.early_deciding())
                .collect();
        let mut net = minobs_sim::network::SyncNetwork::new(&g, early);
        while !net.all_halted() {
            net.step(&mut NoFault);
        }
        for node in net.nodes() {
            // Completion when the farthest value arrives: eccentricity - 1
            // in 0-based advance rounds = (n-1)/2 - 1 … = 4 for n = 11.
            assert_eq!(node.decided_at(), Some(n / 2 - 1), "node {}", node.id());
        }
    }

    #[test]
    fn crash_adversary_mirrors_example_ii_10() {
        // Example II.10: a crash is, phenomenologically, an omission
        // pattern — from some round on, no message from the victim is
        // transmitted. On networks: a crashed non-essential node delays
        // nothing; a crashed value-holder hides its value.
        use minobs_sim::adversary::CrashAdversary;
        let g = generators::complete(5);
        let n = g.vertex_count();

        // Victim holds the deciding value (node 0, ValueOfMinId) and
        // crashes before sending anything: everyone else decides without
        // its value; the victim still decides (it hears the others) —
        // disagreement.
        let nodes = FloodConsensus::fleet(&g, &inputs(n), DecisionRule::ValueOfMinId);
        let mut adv = CrashAdversary {
            victim: 0,
            crash_round: 0,
        };
        let out = run_network(&g, nodes, &mut adv, 2 * n);
        assert!(
            matches!(out.verdict, NetVerdict::Disagreement { .. }),
            "{:?}",
            out.verdict
        );

        // Victim crashes after one clean round: its value got out first —
        // consensus survives the crash.
        let nodes = FloodConsensus::fleet(&g, &inputs(n), DecisionRule::ValueOfMinId);
        let mut adv = CrashAdversary {
            victim: 0,
            crash_round: 1,
        };
        let out = run_network(&g, nodes, &mut adv, 2 * n);
        assert_eq!(out.verdict, NetVerdict::Consensus(3));

        // A crashed *non*-minimal node never matters for this rule.
        let nodes = FloodConsensus::fleet(&g, &inputs(n), DecisionRule::ValueOfMinId);
        let mut adv = CrashAdversary {
            victim: 3,
            crash_round: 0,
        };
        let out = run_network(&g, nodes, &mut adv, 2 * n);
        assert_eq!(out.verdict, NetVerdict::Consensus(3));
    }

    #[test]
    fn uniform_inputs_satisfy_validity_under_any_adversary() {
        let g = generators::cycle(5);
        let vals = [4u64; 5];
        let p = cut_partition(&g).unwrap();
        let mut adv = CutAdversary::new(&p, "(wb)".parse().unwrap());
        let nodes = FloodConsensus::fleet(&g, &vals, DecisionRule::ValueOfMinId);
        let out = run_network(&g, nodes, &mut adv, 10);
        // Either consensus on 4 or undecided — never a validity violation
        // or disagreement (everyone holds 4).
        match out.verdict {
            NetVerdict::Consensus(4) => {}
            other => panic!("unexpected verdict {other:?}"),
        }
    }
}
