//! Algorithm 4 (`A_L`): consensus on `G` under a solvable sub-scheme of
//! `Γ_C^ω`.
//!
//! The representatives `a₁` and `b₁` (endpoints of the first cut edge) run
//! the two-process `A_w` across their link — under `Γ_C` that link
//! behaves exactly like the two-process channel under `ρ(L)`. Every other
//! node relays: once a node learns the decided value it rebroadcasts it
//! for one round and then decides. Because `Γ_C` never drops intra-side
//! messages and both sides are connected, the value floods each side in at
//! most its diameter.

use minobs_bigint::UBig;
use minobs_core::algorithm::{AwMessage, AwProcess};
use minobs_core::engine::TwoProcessProtocol;
use minobs_core::letter::Role;
use minobs_core::scenario::Scenario;
use minobs_graphs::{CutPartition, Graph};
use minobs_sim::network::NodeProtocol;

/// The message type of `A_L`.
#[derive(Debug, Clone)]
pub enum ALMsg {
    /// Phase 1: an `A_w` message between the representatives.
    Aw {
        /// The sender's initial value.
        init: bool,
        /// The sender's phantom index.
        ind: UBig,
    },
    /// Phase 2: the decided value, flooding outward.
    Value(u64),
}

/// One node of Algorithm 4.
pub struct AlgorithmL {
    id: usize,
    input: u64,
    neighbors: Vec<usize>,
    kind: NodeKind,
    /// The learned value, before it has been forwarded.
    got: Option<u64>,
    /// Set once the value has been rebroadcast; the node then decides.
    decision: Option<u64>,
}

enum NodeKind {
    /// A representative runs `A_w` against its partner.
    Representative { aw: AwProcess, partner: usize },
    /// Everyone else waits for the value.
    Relay,
}

impl AlgorithmL {
    /// Builds the fleet for `graph` given the cut partition, the forbidden
    /// scenario `w` (a witness for the solvability of `ρ(L)`), and binary
    /// inputs (`0`/`1`) per node.
    ///
    /// # Panics
    /// Panics when inputs are not binary or sized to the graph.
    pub fn fleet(
        graph: &Graph,
        partition: &CutPartition,
        w: &Scenario,
        inputs: &[u64],
    ) -> Vec<AlgorithmL> {
        assert_eq!(inputs.len(), graph.vertex_count(), "one input per node");
        assert!(
            inputs.iter().all(|&v| v <= 1),
            "A_L carries binary consensus"
        );
        let (a1, b1) = partition.representatives();
        (0..graph.vertex_count())
            .map(|id| {
                let kind = if id == a1 {
                    NodeKind::Representative {
                        aw: AwProcess::new(Role::White, inputs[id] != 0, w.clone()),
                        partner: b1,
                    }
                } else if id == b1 {
                    NodeKind::Representative {
                        aw: AwProcess::new(Role::Black, inputs[id] != 0, w.clone()),
                        partner: a1,
                    }
                } else {
                    NodeKind::Relay
                };
                AlgorithmL {
                    id,
                    input: inputs[id],
                    neighbors: graph.neighbors(id).to_vec(),
                    kind,
                    got: None,
                    decision: None,
                }
            })
            .collect()
    }

    /// The node id.
    pub fn id(&self) -> usize {
        self.id
    }
}

impl NodeProtocol for AlgorithmL {
    type Msg = ALMsg;

    fn input(&self) -> u64 {
        self.input
    }

    fn send(&self, _round: usize) -> Vec<(usize, ALMsg)> {
        // A node that has learned the value but not yet forwarded it
        // rebroadcasts once.
        if let Some(v) = self.got {
            return self
                .neighbors
                .iter()
                .map(|&nb| (nb, ALMsg::Value(v)))
                .collect();
        }
        match &self.kind {
            NodeKind::Representative { aw, partner } => match aw.outgoing() {
                Some(AwMessage { init, ind }) => vec![(*partner, ALMsg::Aw { init, ind })],
                None => Vec::new(),
            },
            NodeKind::Relay => Vec::new(),
        }
    }

    fn advance(&mut self, _round: usize, received: Vec<(usize, ALMsg)>) {
        // Forwarding completes: decide.
        if let Some(v) = self.got.take() {
            self.decision = Some(v);
            return;
        }
        // Look for a flooded value first — it ends phase 1 for a
        // representative too (its partner may decide earlier).
        let value = received.iter().find_map(|(_, m)| match m {
            ALMsg::Value(v) => Some(*v),
            _ => None,
        });
        if let Some(v) = value {
            self.got = Some(v);
            return;
        }
        if let NodeKind::Representative { aw, partner } = &mut self.kind {
            let incoming = received.into_iter().find_map(|(from, m)| match m {
                ALMsg::Aw { init, ind } if from == *partner => Some(AwMessage { init, ind }),
                _ => None,
            });
            if !aw.halted() {
                aw.advance(incoming);
            }
            if let Some(d) = aw.decision() {
                self.got = Some(d as u64);
            }
        }
    }

    fn decision(&self) -> Option<u64> {
        self.decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minobs_graphs::{cut_partition, generators};
    use minobs_sim::adversary::{CutAdversary, NoFault};
    use minobs_sim::network::{run_network, NetVerdict};

    fn sc(s: &str) -> Scenario {
        s.parse().unwrap()
    }

    /// Drives A_L on a graph under the cut adversary scripted by `v`,
    /// with the forbidden witness `w`.
    fn run_al(
        g: &Graph,
        v: &str,
        w: &str,
        inputs: &[u64],
        budget: usize,
    ) -> minobs_sim::network::NetOutcome {
        let p = cut_partition(g).unwrap();
        let fleet = AlgorithmL::fleet(g, &p, &sc(w), inputs);
        let mut adv = CutAdversary::new(&p, sc(v));
        run_network(g, fleet, &mut adv, budget)
    }

    #[test]
    fn al_reaches_consensus_on_barbell_fault_free() {
        let g = generators::barbell(3, 2);
        let p = cut_partition(&g).unwrap();
        let fleet = AlgorithmL::fleet(&g, &p, &sc("(b)"), &[1, 1, 1, 0, 0, 0]);
        let out = run_network(&g, fleet, &mut NoFault, 64);
        assert!(out.verdict.is_consensus(), "{:?}", out.verdict);
    }

    #[test]
    fn al_consensus_under_gamma_c_scenarios() {
        // Driving scheme: almost-fair (everything except (b)^ω); witness
        // w = (b). Any Γ_C scenario whose ρ-image differs from (b)^ω must
        // reach consensus.
        let g = generators::barbell(3, 2);
        for v in ["(-)", "(w)", "(wb)", "-(b)", "w(b)", "bw(-)"] {
            for inputs in [
                [0u64, 0, 0, 1, 1, 1],
                [1, 1, 1, 1, 1, 1],
                [0, 1, 0, 1, 0, 1],
            ] {
                let out = run_al(&g, v, "(b)", &inputs, 128);
                assert!(
                    out.verdict.is_consensus(),
                    "scenario {v} inputs {inputs:?}: {:?}",
                    out.verdict
                );
            }
        }
    }

    #[test]
    fn al_respects_validity() {
        let g = generators::barbell(3, 2);
        let out = run_al(&g, "(wb)", "(b)", &[1, 1, 1, 1, 1, 1], 128);
        assert_eq!(out.verdict, NetVerdict::Consensus(1));
        let out = run_al(&g, "(w)", "(b)", &[0, 0, 0, 0, 0, 0], 128);
        assert_eq!(out.verdict, NetVerdict::Consensus(0));
    }

    #[test]
    fn al_never_terminates_on_the_forbidden_scenario() {
        // On ρ⁻¹((b)^ω) the representatives' A_w runs forever — exactly
        // the scenario the scheme promises never happens.
        let g = generators::barbell(3, 2);
        let out = run_al(&g, "(b)", "(b)", &[1, 1, 1, 0, 0, 0], 64);
        assert!(matches!(out.verdict, NetVerdict::Undecided { .. }));
    }

    #[test]
    fn al_works_on_other_topologies() {
        for g in [
            generators::cycle(6),
            generators::theta(3, 2),
            generators::star(5),
        ] {
            let n = g.vertex_count();
            let inputs: Vec<u64> = (0..n).map(|v| (v % 2) as u64).collect();
            let out = run_al(&g, "(wb)", "(b)", &inputs, 256);
            assert!(out.verdict.is_consensus(), "{g}: {:?}", out.verdict);
        }
    }

    #[test]
    fn al_value_floods_through_long_sides() {
        // Long path: the decision must relay hop by hop.
        let g = generators::path(8);
        let n = g.vertex_count();
        let inputs: Vec<u64> = (0..n).map(|v| (v == 0) as u64).collect();
        let out = run_al(&g, "(-)", "(b)", &inputs, 256);
        assert!(out.verdict.is_consensus(), "{:?}", out.verdict);
    }
}
