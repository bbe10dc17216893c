//! Omission adversaries — the executable side of omission schemes.
//!
//! An adversary realizes one scenario of a scheme, one round at a time: it
//! sees the pending directed edges and returns the subset to kill. The
//! engine applies the omissions blindly; whether the resulting infinite
//! behaviour stays inside a given scheme is the adversary's contract
//! (checked by the `O_f` budget wrapper and the tests).

use minobs_core::letter::{GammaLetter, Letter, Role};
use minobs_core::scenario::Scenario;
use minobs_graphs::{CutPartition, DirectedEdge};
use rand::seq::SliceRandom;
use rand::Rng;

/// Selects, per round, the directed edges whose messages are lost.
pub trait Adversary {
    /// The omission set for `round`, given the messages actually in
    /// flight. Must be a subset of `pending` to have any effect; returning
    /// edges not in flight is allowed and harmless (the paper's letters
    /// also name losses of messages that were never sent).
    fn select_drops(&mut self, round: usize, pending: &[DirectedEdge]) -> Vec<DirectedEdge>;
}

/// The fault-free adversary: `S0` at network scale.
#[derive(Debug, Clone, Default)]
pub struct NoFault;

impl Adversary for NoFault {
    fn select_drops(&mut self, _round: usize, _pending: &[DirectedEdge]) -> Vec<DirectedEdge> {
        Vec::new()
    }
}

/// Drops up to `f` uniformly random in-flight messages per round — a
/// random scenario of the `O_f` scheme of Section V-A.
pub struct RandomOmissions<R: Rng> {
    /// The per-round budget `f`.
    pub f: usize,
    /// Randomness source.
    pub rng: R,
}

impl<R: Rng> RandomOmissions<R> {
    /// Builds the adversary.
    pub fn new(f: usize, rng: R) -> Self {
        RandomOmissions { f, rng }
    }
}

impl<R: Rng> Adversary for RandomOmissions<R> {
    fn select_drops(&mut self, _round: usize, pending: &[DirectedEdge]) -> Vec<DirectedEdge> {
        let mut edges: Vec<DirectedEdge> = pending.to_vec();
        edges.shuffle(&mut self.rng);
        edges.truncate(self.f);
        edges
    }
}

/// Replays an explicit per-round script of omission sets.
#[derive(Debug, Clone)]
pub struct ScriptedAdversary {
    script: Vec<Vec<DirectedEdge>>,
    repeat: bool,
}

impl ScriptedAdversary {
    /// Plays the script once; later rounds are fault-free.
    pub fn once(script: Vec<Vec<DirectedEdge>>) -> Self {
        ScriptedAdversary {
            script,
            repeat: false,
        }
    }

    /// Replays the script cyclically forever.
    ///
    /// # Panics
    /// Panics on an empty script.
    pub fn repeating(script: Vec<Vec<DirectedEdge>>) -> Self {
        assert!(!script.is_empty(), "repeating script must be nonempty");
        ScriptedAdversary {
            script,
            repeat: true,
        }
    }
}

impl Adversary for ScriptedAdversary {
    fn select_drops(&mut self, round: usize, _pending: &[DirectedEdge]) -> Vec<DirectedEdge> {
        if self.script.is_empty() {
            return Vec::new();
        }
        if self.repeat {
            self.script[round % self.script.len()].clone()
        } else {
            self.script.get(round).cloned().unwrap_or_default()
        }
    }
}

/// The `Γ_C` cut adversary of Theorem V.1's proof, scripted by a
/// two-process scenario through the bijection `ρ`.
///
/// Per round, the scenario's letter maps to a letter of `Γ_C`:
///
/// * `Full` → no message is lost (`C_⇄`);
/// * `DropWhite` → all cut messages from the `A` side (White's avatar) to
///   the `B` side are lost (`C_→` with the `A→B` arcs removed);
/// * `DropBlack` → all cut messages `B → A` are lost;
/// * `DropBoth` → both directions of the cut are lost (outside `Γ_C`;
///   available for probing).
#[derive(Debug, Clone)]
pub struct CutAdversary {
    a_to_b: Vec<DirectedEdge>,
    b_to_a: Vec<DirectedEdge>,
    scenario: Scenario,
}

impl CutAdversary {
    /// Builds the adversary from a cut partition and a driving scenario.
    pub fn new(partition: &CutPartition, scenario: Scenario) -> Self {
        let a_to_b = partition
            .cut
            .iter()
            .map(|&(a, b)| DirectedEdge::new(a, b))
            .collect();
        let b_to_a = partition
            .cut
            .iter()
            .map(|&(a, b)| DirectedEdge::new(b, a))
            .collect();
        CutAdversary {
            a_to_b,
            b_to_a,
            scenario,
        }
    }

    /// The omission set for a given `Γ_C`-letter.
    pub fn drops_for_letter(&self, letter: Letter) -> Vec<DirectedEdge> {
        match letter {
            Letter::Full => Vec::new(),
            Letter::DropWhite => self.a_to_b.clone(),
            Letter::DropBlack => self.b_to_a.clone(),
            Letter::DropBoth => {
                let mut v = self.a_to_b.clone();
                v.extend(self.b_to_a.iter().copied());
                v
            }
        }
    }

    /// The per-round omission budget this adversary needs: `f = |C|`.
    pub fn f(&self) -> usize {
        self.a_to_b.len()
    }
}

impl Adversary for CutAdversary {
    fn select_drops(&mut self, round: usize, _pending: &[DirectedEdge]) -> Vec<DirectedEdge> {
        self.drops_for_letter(self.scenario.letter_at(round))
    }
}

/// An adaptive cut adversary: each round kills the whole cut in the
/// direction that currently carries *more* in-flight messages (ties go
/// `A→B`). Stays within `Γ_C`, hence within `O_f` for `f = c(G)`.
#[derive(Debug, Clone)]
pub struct GreedyCutAdversary {
    a_to_b: Vec<DirectedEdge>,
    b_to_a: Vec<DirectedEdge>,
}

impl GreedyCutAdversary {
    /// Builds the adversary from a cut partition.
    pub fn new(partition: &CutPartition) -> Self {
        GreedyCutAdversary {
            a_to_b: partition
                .cut
                .iter()
                .map(|&(a, b)| DirectedEdge::new(a, b))
                .collect(),
            b_to_a: partition
                .cut
                .iter()
                .map(|&(a, b)| DirectedEdge::new(b, a))
                .collect(),
        }
    }
}

impl Adversary for GreedyCutAdversary {
    fn select_drops(&mut self, _round: usize, pending: &[DirectedEdge]) -> Vec<DirectedEdge> {
        let count = |dir: &[DirectedEdge]| pending.iter().filter(|e| dir.contains(e)).count();
        if count(&self.a_to_b) >= count(&self.b_to_a) {
            self.a_to_b.clone()
        } else {
            self.b_to_a.clone()
        }
    }
}

/// One recorded breach of an `O_f` budget contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetViolation {
    /// The round in which the budget was exceeded.
    pub round: usize,
    /// Effective omissions requested (`|drops ∩ pending|`, set-wise).
    pub requested: usize,
    /// The budget `f` that was in force.
    pub budget: usize,
}

impl std::fmt::Display for BudgetViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "adversary exceeded O_{} budget at round {}: {} effective drops",
            self.budget, self.round, self.requested
        )
    }
}

/// Wraps an adversary with the `O_f` budget contract: every round where
/// the *effective* omission set (`drops ∩ pending`, counted set-wise)
/// exceeds `f` is recorded as a structured [`BudgetViolation`] instead of
/// panicking or silently truncating. The drops pass through unmodified so
/// harnesses can observe the consequences and assert on
/// [`BudgetChecked::violations`] afterwards.
pub struct BudgetChecked<A: Adversary> {
    inner: A,
    f: usize,
    violations: Vec<BudgetViolation>,
}

impl<A: Adversary> BudgetChecked<A> {
    /// Wraps `inner` with budget `f`.
    pub fn new(inner: A, f: usize) -> Self {
        BudgetChecked {
            inner,
            f,
            violations: Vec::new(),
        }
    }

    /// All budget breaches recorded so far, in round order.
    pub fn violations(&self) -> &[BudgetViolation] {
        &self.violations
    }

    /// The first breach, if any.
    pub fn first_violation(&self) -> Option<BudgetViolation> {
        self.violations.first().copied()
    }

    /// Unwraps, yielding the inner adversary and the recorded breaches.
    pub fn into_parts(self) -> (A, Vec<BudgetViolation>) {
        (self.inner, self.violations)
    }
}

impl<A: Adversary> Adversary for BudgetChecked<A> {
    fn select_drops(&mut self, round: usize, pending: &[DirectedEdge]) -> Vec<DirectedEdge> {
        let drops = self.inner.select_drops(round, pending);
        let effective: std::collections::BTreeSet<&DirectedEdge> =
            drops.iter().filter(|e| pending.contains(e)).collect();
        if effective.len() > self.f {
            self.violations.push(BudgetViolation {
                round,
                requested: effective.len(),
                budget: self.f,
            });
        }
        drops
    }
}

/// A crash adversary: from `crash_round` on, every message sent *by*
/// `victim` is lost — the network-scale `C1` of Example II.10.
#[derive(Debug, Clone)]
pub struct CrashAdversary {
    /// The crashing node.
    pub victim: usize,
    /// First silent round.
    pub crash_round: usize,
}

impl Adversary for CrashAdversary {
    fn select_drops(&mut self, round: usize, pending: &[DirectedEdge]) -> Vec<DirectedEdge> {
        if round < self.crash_round {
            return Vec::new();
        }
        pending
            .iter()
            .copied()
            .filter(|e| e.from == self.victim)
            .collect()
    }
}

/// Maps a two-process role to its cut-partition avatar, for tests and the
/// reduction machinery: White emulates side `A`, Black side `B`.
pub fn role_direction(role: Role) -> GammaLetter {
    GammaLetter::dropping(role)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minobs_graphs::{cut_partition, generators};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn edges(list: &[(usize, usize)]) -> Vec<DirectedEdge> {
        list.iter().map(|&(a, b)| DirectedEdge::new(a, b)).collect()
    }

    #[test]
    fn no_fault_drops_nothing() {
        let mut adv = NoFault;
        assert!(adv.select_drops(0, &edges(&[(0, 1), (1, 0)])).is_empty());
    }

    #[test]
    fn random_respects_budget() {
        let mut adv = RandomOmissions::new(2, StdRng::seed_from_u64(7));
        let pending = edges(&[(0, 1), (1, 0), (1, 2), (2, 1)]);
        for round in 0..50 {
            let drops = adv.select_drops(round, &pending);
            assert!(drops.len() <= 2);
            assert!(drops.iter().all(|e| pending.contains(e)));
        }
    }

    #[test]
    fn scripted_once_then_silent() {
        let mut adv = ScriptedAdversary::once(vec![edges(&[(0, 1)]), edges(&[(1, 0)])]);
        assert_eq!(adv.select_drops(0, &[]), edges(&[(0, 1)]));
        assert_eq!(adv.select_drops(1, &[]), edges(&[(1, 0)]));
        assert!(adv.select_drops(2, &[]).is_empty());
    }

    #[test]
    fn scripted_repeating_cycles() {
        let mut adv = ScriptedAdversary::repeating(vec![edges(&[(0, 1)]), Vec::new()]);
        assert_eq!(adv.select_drops(0, &[]), edges(&[(0, 1)]));
        assert!(adv.select_drops(1, &[]).is_empty());
        assert_eq!(adv.select_drops(2, &[]), edges(&[(0, 1)]));
    }

    #[test]
    fn cut_adversary_follows_scenario() {
        let g = generators::barbell(3, 2);
        let p = cut_partition(&g).unwrap();
        let mut adv = CutAdversary::new(&p, "w b (-)".replace(' ', "").parse().unwrap());
        let d0 = adv.select_drops(0, &[]);
        assert_eq!(d0.len(), 2, "DropWhite kills all A→B cut arcs");
        assert!(d0
            .iter()
            .all(|e| p.side_a.contains(&e.from) && p.side_b.contains(&e.to)));
        let d1 = adv.select_drops(1, &[]);
        assert!(d1.iter().all(|e| p.side_b.contains(&e.from)));
        assert!(adv.select_drops(2, &[]).is_empty());
        assert_eq!(adv.f(), 2);
    }

    #[test]
    fn greedy_cut_picks_busier_direction() {
        let g = generators::barbell(3, 1);
        let p = cut_partition(&g).unwrap();
        let (a1, b1) = p.representatives();
        let mut adv = GreedyCutAdversary::new(&p);
        // Only B→A in flight: kill that direction.
        let pending = vec![DirectedEdge::new(b1, a1)];
        let drops = adv.select_drops(0, &pending);
        assert_eq!(drops, vec![DirectedEdge::new(b1, a1)]);
    }

    #[test]
    fn budget_checker_allows_within_budget() {
        let g = generators::barbell(3, 2);
        let p = cut_partition(&g).unwrap();
        let adv = CutAdversary::new(&p, "(w)".parse().unwrap());
        let mut checked = BudgetChecked::new(adv, 2);
        let pending = edges(&[(0, 3)]);
        let _ = checked.select_drops(0, &pending);
        assert!(checked.violations().is_empty());
        assert_eq!(checked.first_violation(), None);
    }

    #[test]
    fn budget_checker_records_structured_violation() {
        let script = ScriptedAdversary::repeating(vec![edges(&[(0, 1), (1, 0)])]);
        let mut checked = BudgetChecked::new(script, 1);
        let pending = edges(&[(0, 1), (1, 0)]);
        // The drops pass through unmodified — no silent truncation.
        let drops = checked.select_drops(0, &pending);
        assert_eq!(drops.len(), 2);
        assert_eq!(
            checked.first_violation(),
            Some(BudgetViolation {
                round: 0,
                requested: 2,
                budget: 1,
            })
        );
        // A second offending round appends a second record.
        let _ = checked.select_drops(1, &pending);
        assert_eq!(checked.violations().len(), 2);
        assert_eq!(checked.violations()[1].round, 1);
    }

    #[test]
    fn budget_checker_ignores_edges_not_in_flight() {
        // Naming edges with no message in flight is legal (the paper's
        // letters also name losses of unsent messages): only the
        // effective set drops ∩ pending counts against the budget.
        let script = ScriptedAdversary::repeating(vec![edges(&[(0, 1), (1, 0), (2, 3)])]);
        let mut checked = BudgetChecked::new(script, 1);
        let _ = checked.select_drops(0, &edges(&[(0, 1)]));
        assert!(checked.violations().is_empty());
    }

    #[test]
    fn crash_adversary_silences_victim() {
        let mut adv = CrashAdversary {
            victim: 1,
            crash_round: 2,
        };
        let pending = edges(&[(0, 1), (1, 0), (1, 2)]);
        assert!(adv.select_drops(0, &pending).is_empty());
        assert!(adv.select_drops(1, &pending).is_empty());
        let drops = adv.select_drops(2, &pending);
        assert_eq!(drops, edges(&[(1, 0), (1, 2)]));
    }

    #[test]
    fn crash_adversary_onset_mid_run_kills_only_later_rounds() {
        // Crash onset mid-run on an evolving pending set: rounds before
        // the onset are untouched even when the victim is chatty, and
        // from the onset on exactly the victim's sends die — others'
        // messages always survive.
        let mut adv = CrashAdversary {
            victim: 0,
            crash_round: 3,
        };
        for round in 0..6 {
            // Pending evolves: the victim sends on even rounds only.
            let pending = if round % 2 == 0 {
                edges(&[(0, 1), (1, 0), (2, 1)])
            } else {
                edges(&[(1, 0), (2, 1)])
            };
            let drops = adv.select_drops(round, &pending);
            if round < 3 {
                assert!(drops.is_empty(), "round {round}: pre-onset must be silent");
            } else if round % 2 == 0 {
                assert_eq!(drops, edges(&[(0, 1)]), "round {round}");
            } else {
                assert!(drops.is_empty(), "round {round}: victim sent nothing");
            }
        }
    }

    #[test]
    fn crash_adversary_empty_pending_round_is_harmless() {
        let mut adv = CrashAdversary {
            victim: 2,
            crash_round: 0,
        };
        // Post-onset with nothing in flight: no drops, no panic.
        assert!(adv.select_drops(0, &[]).is_empty());
        assert!(adv.select_drops(5, &[]).is_empty());
    }

    #[test]
    fn greedy_cut_never_exceeds_cut_width() {
        let g = generators::barbell(4, 3);
        let p = cut_partition(&g).unwrap();
        let width = p.f();
        let mut adv = GreedyCutAdversary::new(&p);
        // Stress with many pending shapes, including duplicates of cut
        // arcs and plenty of non-cut traffic: the omission set is always
        // one direction of the cut, so never more than the cut width.
        let mut rng = StdRng::seed_from_u64(42);
        let all_arcs: Vec<DirectedEdge> = g.edges().iter().flat_map(|e| e.directions()).collect();
        for round in 0..100 {
            let mut pending = all_arcs.clone();
            pending.shuffle(&mut rng);
            pending.truncate(1 + round % all_arcs.len());
            let drops = adv.select_drops(round, &pending);
            assert!(
                drops.len() <= width,
                "round {round}: {} > {width}",
                drops.len()
            );
            let distinct: std::collections::BTreeSet<_> = drops.iter().collect();
            assert_eq!(distinct.len(), drops.len(), "no duplicate arcs");
        }
    }

    #[test]
    fn greedy_cut_empty_pending_still_picks_a_direction() {
        // With nothing in flight both directions count 0; ties go A→B.
        // The returned arcs are then all ineffective — legal, harmless.
        let g = generators::barbell(3, 2);
        let p = cut_partition(&g).unwrap();
        let mut adv = GreedyCutAdversary::new(&p);
        let drops = adv.select_drops(0, &[]);
        assert_eq!(drops.len(), p.f());
        assert!(drops
            .iter()
            .all(|e| p.side_a.contains(&e.from) && p.side_b.contains(&e.to)));
    }
}
