//! The adversary generator DSL.
//!
//! An [`AdversaryGen`] describes a *family* of adversaries; calling
//! [`AdversaryGen::instantiate`] samples one concrete member from a
//! seeded RNG. Generators compose: a crash can be stacked on background
//! omission noise, and any generator can be made eventually quiescent.
//!
//! Each generator exposes a static per-round bound on its *effective*
//! omissions ([`AdversaryGen::bound`]). Sampling under a budget
//! ([`AdversaryGen::sample`]) only ever returns generators whose bound
//! fits — the harness relies on this to know which runs must reach
//! consensus (Theorem V.1: every bound `≤ c(G) − 1` is tolerated).

use minobs_graphs::{cut_partition, DirectedEdge, Graph};
use minobs_sim::adversary::{Adversary, CrashAdversary, RandomOmissions};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A composable description of an adversary family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdversaryGen {
    /// Uniform omission noise: at most `f` in-flight messages die per
    /// round, chosen uniformly from the pending set (`O_f`).
    BudgetCapped {
        /// Per-round effective-drop cap.
        f: usize,
    },
    /// A `Γ_C`-style attack on a minimum cut: each round, up to `width`
    /// arcs of the cut die, in whichever direction currently carries
    /// more traffic. With `width = c(G)` this partitions the graph.
    CutTargeted {
        /// How many cut arcs to kill per round.
        width: usize,
    },
    /// A random node crash-stops at a random round `≤ latest_round`:
    /// from then on all of its sends are omitted.
    CrashOnset {
        /// Latest possible onset round.
        latest_round: usize,
    },
    /// `inner`, silenced from round `after` on — the eventually
    /// quiescent adversaries under which flooding must terminate.
    Quiescent {
        /// First fault-free round.
        after: usize,
        /// The adversary active before `after`.
        inner: Box<AdversaryGen>,
    },
    /// The union of several adversaries' omission sets.
    Stacked(Vec<AdversaryGen>),
}

impl AdversaryGen {
    /// Static per-round bound on effective omissions: the instantiated
    /// adversary never effectively drops more than this in any round.
    pub fn bound(&self, graph: &Graph) -> usize {
        match self {
            AdversaryGen::BudgetCapped { f } => *f,
            AdversaryGen::CutTargeted { width } => *width,
            // A crashed node loses at most its whole out-neighborhood.
            AdversaryGen::CrashOnset { .. } => (0..graph.vertex_count())
                .map(|v| graph.neighbors(v).len())
                .max()
                .unwrap_or(0),
            AdversaryGen::Quiescent { inner, .. } => inner.bound(graph),
            AdversaryGen::Stacked(parts) => parts.iter().map(|p| p.bound(graph)).sum(),
        }
    }

    /// Samples one concrete adversary. Every random choice (victims,
    /// onset rounds, per-round noise) flows from `rng`, so a seed pins
    /// the whole run.
    pub fn instantiate(&self, graph: &Graph, rng: &mut StdRng) -> Box<dyn Adversary> {
        match self {
            AdversaryGen::BudgetCapped { f } => Box::new(RandomOmissions::new(
                *f,
                StdRng::seed_from_u64(rng.next_u64()),
            )),
            AdversaryGen::CutTargeted { width } => {
                let p = cut_partition(graph)
                    .expect("cut-targeted generator needs a connected graph with ≥ 2 nodes");
                let mut a_to_b: Vec<DirectedEdge> = p
                    .cut
                    .iter()
                    .map(|&(a, b)| DirectedEdge::new(a, b))
                    .collect();
                let mut b_to_a: Vec<DirectedEdge> = p
                    .cut
                    .iter()
                    .map(|&(a, b)| DirectedEdge::new(b, a))
                    .collect();
                a_to_b.sort_unstable();
                b_to_a.sort_unstable();
                Box::new(CutSliceAdversary {
                    a_to_b,
                    b_to_a,
                    width: *width,
                })
            }
            AdversaryGen::CrashOnset { latest_round } => Box::new(CrashAdversary {
                victim: rng.random_below(graph.vertex_count()),
                crash_round: rng.random_below(latest_round + 1),
            }),
            AdversaryGen::Quiescent { after, inner } => Box::new(QuiescentAdversary {
                after: *after,
                inner: inner.instantiate(graph, rng),
            }),
            AdversaryGen::Stacked(parts) => Box::new(StackedAdversary {
                parts: parts.iter().map(|p| p.instantiate(graph, rng)).collect(),
            }),
        }
    }

    /// Samples a random generator whose [`bound`](Self::bound) is at
    /// most `budget`. Crash onset is only eligible when every node's
    /// degree fits the budget; composition recurses at most twice.
    pub fn sample(rng: &mut StdRng, graph: &Graph, budget: usize, max_rounds: usize) -> Self {
        Self::sample_depth(rng, graph, budget, max_rounds, 2)
    }

    fn sample_depth(
        rng: &mut StdRng,
        graph: &Graph,
        budget: usize,
        max_rounds: usize,
        depth: usize,
    ) -> Self {
        let max_degree = (0..graph.vertex_count())
            .map(|v| graph.neighbors(v).len())
            .max()
            .unwrap_or(0);
        let cut_width = cut_partition(graph).map(|p| p.f()).unwrap_or(0);
        let mut choices = vec![0u8];
        if budget > 0 && cut_width > 0 {
            choices.push(1);
        }
        if max_degree <= budget {
            choices.push(2);
        }
        if depth > 0 {
            choices.push(3);
            if budget >= 2 {
                choices.push(4);
            }
        }
        match choices[rng.random_below(choices.len())] {
            0 => AdversaryGen::BudgetCapped {
                f: rng.random_below(budget + 1),
            },
            1 => AdversaryGen::CutTargeted {
                width: 1 + rng.random_below(budget.min(cut_width)),
            },
            2 => AdversaryGen::CrashOnset {
                latest_round: max_rounds,
            },
            3 => AdversaryGen::Quiescent {
                after: rng.random_below(max_rounds + 1),
                inner: Box::new(Self::sample_depth(
                    rng,
                    graph,
                    budget,
                    max_rounds,
                    depth - 1,
                )),
            },
            _ => {
                let first = rng.random_below(budget + 1);
                AdversaryGen::Stacked(vec![
                    Self::sample_depth(rng, graph, first, max_rounds, depth - 1),
                    Self::sample_depth(rng, graph, budget - first, max_rounds, depth - 1),
                ])
            }
        }
    }
}

/// Runtime form of [`AdversaryGen::CutTargeted`]: kills up to `width`
/// arcs of the cut per round, busier direction first, in-flight arcs
/// before idle ones (idle arcs are harmless padding, kept so the
/// omission *intent* is visible in recorded scripts).
struct CutSliceAdversary {
    a_to_b: Vec<DirectedEdge>,
    b_to_a: Vec<DirectedEdge>,
    width: usize,
}

impl Adversary for CutSliceAdversary {
    fn select_drops(&mut self, _round: usize, pending: &[DirectedEdge]) -> Vec<DirectedEdge> {
        let live = |dir: &[DirectedEdge]| pending.iter().filter(|e| dir.contains(e)).count();
        let dir = if live(&self.a_to_b) >= live(&self.b_to_a) {
            &self.a_to_b
        } else {
            &self.b_to_a
        };
        let mut picked: Vec<DirectedEdge> = dir
            .iter()
            .copied()
            .filter(|e| pending.contains(e))
            .take(self.width)
            .collect();
        for &arc in dir.iter() {
            if picked.len() >= self.width {
                break;
            }
            if !picked.contains(&arc) {
                picked.push(arc);
            }
        }
        picked
    }
}

/// Runtime form of [`AdversaryGen::Quiescent`].
struct QuiescentAdversary {
    after: usize,
    inner: Box<dyn Adversary>,
}

impl Adversary for QuiescentAdversary {
    fn select_drops(&mut self, round: usize, pending: &[DirectedEdge]) -> Vec<DirectedEdge> {
        if round >= self.after {
            Vec::new()
        } else {
            self.inner.select_drops(round, pending)
        }
    }
}

/// Runtime form of [`AdversaryGen::Stacked`]: the sorted union of the
/// parts' omission sets.
struct StackedAdversary {
    parts: Vec<Box<dyn Adversary>>,
}

impl Adversary for StackedAdversary {
    fn select_drops(&mut self, round: usize, pending: &[DirectedEdge]) -> Vec<DirectedEdge> {
        let mut drops: Vec<DirectedEdge> = self
            .parts
            .iter_mut()
            .flat_map(|p| p.select_drops(round, pending))
            .collect();
        drops.sort_unstable();
        drops.dedup();
        drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minobs_graphs::generators;

    fn effective(drops: &[DirectedEdge], pending: &[DirectedEdge]) -> usize {
        let set: std::collections::BTreeSet<_> =
            drops.iter().filter(|e| pending.contains(e)).collect();
        set.len()
    }

    fn all_arcs(g: &Graph) -> Vec<DirectedEdge> {
        g.edges().iter().flat_map(|e| e.directions()).collect()
    }

    #[test]
    fn sampled_generators_respect_their_bound() {
        for g in [generators::cycle(4), generators::hypercube(3)] {
            let budget = minobs_graphs::edge_connectivity(&g) - 1;
            let pending = all_arcs(&g);
            for seed in 0..50u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let gen = AdversaryGen::sample(&mut rng, &g, budget, 10);
                assert!(gen.bound(&g) <= budget, "{gen:?}");
                let mut adv = gen.instantiate(&g, &mut rng);
                for round in 0..10 {
                    let drops = adv.select_drops(round, &pending);
                    assert!(
                        effective(&drops, &pending) <= budget,
                        "{gen:?} round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn cut_targeted_kills_exactly_width_cut_arcs() {
        let g = generators::cycle(4);
        let mut rng = StdRng::seed_from_u64(7);
        let gen = AdversaryGen::CutTargeted { width: 2 };
        let mut adv = gen.instantiate(&g, &mut rng);
        let pending = all_arcs(&g);
        let drops = adv.select_drops(0, &pending);
        assert_eq!(drops.len(), 2);
        assert_eq!(effective(&drops, &pending), 2);
    }

    #[test]
    fn quiescent_silences_inner_after_cutoff() {
        let g = generators::cycle(4);
        let mut rng = StdRng::seed_from_u64(3);
        let gen = AdversaryGen::Quiescent {
            after: 2,
            inner: Box::new(AdversaryGen::CutTargeted { width: 1 }),
        };
        let mut adv = gen.instantiate(&g, &mut rng);
        let pending = all_arcs(&g);
        assert!(!adv.select_drops(0, &pending).is_empty());
        assert!(!adv.select_drops(1, &pending).is_empty());
        assert!(adv.select_drops(2, &pending).is_empty());
        assert!(adv.select_drops(9, &pending).is_empty());
    }

    #[test]
    fn stacked_unions_and_dedups() {
        let g = generators::cycle(4);
        let mut rng = StdRng::seed_from_u64(5);
        let gen = AdversaryGen::Stacked(vec![
            AdversaryGen::CutTargeted { width: 1 },
            AdversaryGen::CutTargeted { width: 1 },
        ]);
        let mut adv = gen.instantiate(&g, &mut rng);
        let pending = all_arcs(&g);
        let drops = adv.select_drops(0, &pending);
        // Both parts target the same min cut, same direction: the union
        // dedups to one arc.
        assert_eq!(drops.len(), 1);
        let mut sorted = drops.clone();
        sorted.sort_unstable();
        assert_eq!(drops, sorted, "union is emitted sorted");
    }

    #[test]
    fn instantiation_is_deterministic_per_seed() {
        let g = generators::hypercube(3);
        let pending = all_arcs(&g);
        let run = |seed: u64| -> Vec<Vec<DirectedEdge>> {
            let mut rng = StdRng::seed_from_u64(seed);
            let gen = AdversaryGen::sample(&mut rng, &g, 2, 8);
            let mut adv = gen.instantiate(&g, &mut rng);
            (0..8).map(|r| adv.select_drops(r, &pending)).collect()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(1), run(2), "different seeds should differ somewhere");
    }
}
