//! The bounded solvability model checker.
//!
//! `solvable_by(scheme, k, alphabet)` answers: *does any algorithm exist
//! in which both processes decide at round `k`, correctly, for every
//! scenario of the scheme?* — by the full-information reduction (see the
//! crate docs) this is a finite union-find computation over views.
//!
//! The enumeration is level-synchronous over `Pref_k(L)`: the frontier
//! holds one entry per (allowed prefix × input pair) carrying the two
//! current view ids; each round extends prefixes by every allowed letter.
//! Prefix pruning uses [`OmissionScheme::allows_prefix`], so the checker
//! works for any scheme — classic, ω-regular, or hand-rolled.

use crate::views::{ViewArena, ViewId};
use minobs_core::letter::{Letter, Role};
use minobs_core::scheme::OmissionScheme;
use minobs_core::word::Word;
use minobs_obs::{NullRecorder, Recorder, RoundTimer, SpanGuard, SpanIds, TraceEvent};

/// The `checker_progress` heartbeat fires each time the cumulative
/// explored-state count crosses another multiple of this stride. Small
/// enough that realistic sweeps emit progress every few rounds, large
/// enough that tiny checks stay silent.
const CHECKER_PROGRESS_STRIDE: usize = 4_096;

/// One execution in a bivalency chain: the scenario prefix and the inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStep {
    /// The `k`-round scenario prefix.
    pub prefix: Word,
    /// White's input.
    pub white_input: bool,
    /// Black's input.
    pub black_input: bool,
}

/// The checker's verdict at horizon `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckResult {
    /// A decision map exists: some algorithm decides at round `k` on all
    /// of `Pref_k(L)`.
    Solvable {
        /// Number of distinct final views.
        views: usize,
        /// Number of execution-connected components.
        components: usize,
    },
    /// No such algorithm: the all-0 and all-1 executions are connected.
    Unsolvable {
        /// A chain of executions linking a 0-pinned view to a 1-pinned
        /// view; consecutive steps share a process view (the bivalency
        /// chain).
        chain: Vec<ChainStep>,
    },
    /// The scheme allows no prefix of length `k` at all (empty scheme).
    Empty,
    /// The check ran out of [`Budget`] before reaching horizon `k`. The
    /// partial answer is honest: every horizon up to `horizon_reached`
    /// was fully explored without finding a verdict for `k`.
    BudgetExhausted {
        /// The deepest round whose frontier was fully computed.
        horizon_reached: usize,
        /// Size of the frontier at the stop point.
        frontier_size: usize,
    },
}

impl CheckResult {
    /// `true` for [`CheckResult::Solvable`] (and for the vacuous
    /// [`CheckResult::Empty`]). A [`CheckResult::BudgetExhausted`] is
    /// *not* solvable — it is no verdict at all.
    pub fn is_solvable(&self) -> bool {
        matches!(self, CheckResult::Solvable { .. } | CheckResult::Empty)
    }
}

/// A resource cap for a bounded check: graceful degradation instead of an
/// unbounded frontier explosion. Exceeding either limit stops the check
/// at the next round boundary with [`CheckResult::BudgetExhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Cap on cumulative frontier entries explored (sum over rounds).
    pub max_states: usize,
    /// Wall-clock cap in milliseconds. `u64::MAX` disables the clock,
    /// keeping the check fully deterministic.
    pub max_millis: u64,
}

impl Budget {
    /// No limits — behaves exactly like the unbudgeted entry points.
    pub const UNLIMITED: Budget = Budget {
        max_states: usize::MAX,
        max_millis: u64::MAX,
    };

    /// A deterministic, states-only budget (the clock is disabled).
    pub fn states(max_states: usize) -> Self {
        Budget {
            max_states,
            max_millis: u64::MAX,
        }
    }
}

/// Mutable budget accounting, shared across rounds — and across horizons
/// in [`first_solvable_horizon_budgeted`], so the cap is cumulative for
/// the whole sweep rather than per inner check.
struct BudgetTracker {
    budget: Budget,
    states_spent: usize,
    deadline: Option<std::time::Instant>,
}

impl BudgetTracker {
    fn new(budget: Budget) -> Self {
        BudgetTracker {
            budget,
            states_spent: 0,
            deadline: (budget.max_millis != u64::MAX).then(|| {
                std::time::Instant::now() + std::time::Duration::from_millis(budget.max_millis)
            }),
        }
    }

    /// Charges one round's frontier; `true` when the budget still holds.
    fn charge(&mut self, frontier: usize) -> bool {
        self.states_spent = self.states_spent.saturating_add(frontier);
        self.states_spent <= self.budget.max_states
            && self.deadline.is_none_or(|d| std::time::Instant::now() < d)
    }
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

/// Tree-encoded prefix store: `prefixes[i] = (parent index, letter)`.
type PrefixStore = Vec<(u32, Option<Letter>)>;

/// One frontier entry: an allowed prefix (index into `prefixes`) with an
/// input pair and the two current views.
#[derive(Debug, Clone, Copy)]
struct ExecState {
    prefix_idx: u32,
    white_input: bool,
    black_input: bool,
    view_w: ViewId,
    view_b: ViewId,
}

/// Decides `k`-round solvability of `scheme` over the given per-round
/// alphabet (use `GammaLetter`-only letters for `L ⊆ Γ^ω`, all of `Σ` for
/// schemes with double omission).
pub fn solvable_by(scheme: &dyn OmissionScheme, k: usize, alphabet: &[Letter]) -> CheckResult {
    solvable_by_impl(
        &|u| scheme.allows_prefix(u),
        None,
        k,
        alphabet,
        &mut NullRecorder,
        None,
    )
}

/// [`solvable_by`] under a [`Budget`]: stops at the next round boundary
/// once the budget runs out, returning the honest partial verdict
/// [`CheckResult::BudgetExhausted`] instead of churning forever.
pub fn solvable_by_budgeted(
    scheme: &dyn OmissionScheme,
    k: usize,
    alphabet: &[Letter],
    budget: Budget,
) -> CheckResult {
    solvable_by_budgeted_with_recorder(scheme, k, alphabet, budget, &mut NullRecorder)
}

/// [`solvable_by_budgeted`] with structured observations: exhaustion
/// additionally emits a `budget_exhausted` trace event.
pub fn solvable_by_budgeted_with_recorder<R: Recorder + ?Sized>(
    scheme: &dyn OmissionScheme,
    k: usize,
    alphabet: &[Letter],
    budget: Budget,
    recorder: &mut R,
) -> CheckResult {
    let mut tracker = BudgetTracker::new(budget);
    solvable_by_impl(
        &|u| scheme.allows_prefix(u),
        None,
        k,
        alphabet,
        recorder,
        Some(&mut tracker),
    )
}

/// [`solvable_by`] with structured observations delivered to `recorder`:
/// one `checker_round` event per frontier step, carrying the frontier size
/// and view-arena growth.
pub fn solvable_by_with_recorder<R: Recorder + ?Sized>(
    scheme: &dyn OmissionScheme,
    k: usize,
    alphabet: &[Letter],
    recorder: &mut R,
) -> CheckResult {
    solvable_by_impl(
        &|u| scheme.allows_prefix(u),
        None,
        k,
        alphabet,
        recorder,
        None,
    )
}

/// The rayon-parallel variant of [`solvable_by`]: prefix-viability tests —
/// the expensive part for automata-backed schemes, where each test is an
/// ω-automata emptiness query — are fanned out with `rayon`; view
/// interning and the union-find stay sequential. Results are identical to
/// the sequential checker (tested), letter for letter.
pub fn solvable_by_par<S>(scheme: &S, k: usize, alphabet: &[Letter]) -> CheckResult
where
    S: OmissionScheme + Sync + ?Sized,
{
    solvable_by_par_with_recorder(scheme, k, alphabet, &mut NullRecorder)
}

/// [`solvable_by_par`] under a [`Budget`]. Budget accounting lives in the
/// sequential coordinator, so a states-only budget degrades at exactly
/// the same round as the sequential [`solvable_by_budgeted`].
pub fn solvable_by_par_budgeted<S>(
    scheme: &S,
    k: usize,
    alphabet: &[Letter],
    budget: Budget,
) -> CheckResult
where
    S: OmissionScheme + Sync + ?Sized,
{
    let mut tracker = BudgetTracker::new(budget);
    solvable_by_impl(
        &|u| scheme.allows_prefix(u),
        Some(&|words: &[Word]| {
            use rayon::prelude::*;
            words.par_iter().map(|u| scheme.allows_prefix(u)).collect()
        }),
        k,
        alphabet,
        &mut NullRecorder,
        Some(&mut tracker),
    )
}

/// [`solvable_by_par`] with structured observations delivered to
/// `recorder`. Events come from the sequential coordinator, so traces are
/// identical to [`solvable_by_with_recorder`]'s modulo timing.
pub fn solvable_by_par_with_recorder<S, R>(
    scheme: &S,
    k: usize,
    alphabet: &[Letter],
    recorder: &mut R,
) -> CheckResult
where
    S: OmissionScheme + Sync + ?Sized,
    R: Recorder + ?Sized,
{
    solvable_by_impl(
        &|u| scheme.allows_prefix(u),
        Some(&|words: &[Word]| {
            use rayon::prelude::*;
            words.par_iter().map(|u| scheme.allows_prefix(u)).collect()
        }),
        k,
        alphabet,
        recorder,
        None,
    )
}

type BatchViability<'a> = &'a dyn Fn(&[Word]) -> Vec<bool>;

fn solvable_by_impl<R: Recorder + ?Sized>(
    allows: &dyn Fn(&Word) -> bool,
    batch: Option<BatchViability<'_>>,
    k: usize,
    alphabet: &[Letter],
    recorder: &mut R,
    mut tracker: Option<&mut BudgetTracker>,
) -> CheckResult {
    let mut arena = ViewArena::new();
    // Prefix store: tree-encoded, prefixes[i] = (parent index, letter).
    let mut prefixes: PrefixStore = vec![(0, None)];
    if !allows(&Word::empty()) {
        return CheckResult::Empty;
    }

    // Round 0 frontier: the empty prefix with all four input pairs.
    let mut frontier: Vec<ExecState> = Vec::new();
    for wi in [false, true] {
        for bi in [false, true] {
            frontier.push(ExecState {
                prefix_idx: 0,
                white_input: wi,
                black_input: bi,
                view_w: arena.base(Role::White, wi),
                view_b: arena.base(Role::Black, bi),
            });
        }
    }

    if let Some(t) = tracker.as_deref_mut() {
        if !t.charge(frontier.len()) {
            recorder.record(TraceEvent::BudgetExhausted {
                horizon: 0,
                frontier: frontier.len(),
                states: t.states_spent,
            });
            return CheckResult::BudgetExhausted {
                horizon_reached: 0,
                frontier_size: frontier.len(),
            };
        }
    }

    let reconstruct = |prefixes: &PrefixStore, mut idx: u32| -> Word {
        let mut letters = Vec::new();
        while let (parent, Some(letter)) = prefixes[idx as usize] {
            letters.push(letter);
            idx = parent;
        }
        letters.reverse();
        Word(letters)
    };

    let mut span_ids = SpanIds::new();
    let mut states_total = frontier.len();
    let mut progress_mark = states_total / CHECKER_PROGRESS_STRIDE;

    for round in 0..k {
        let step_timer = RoundTimer::start_if(recorder.enabled());
        let expand_span = SpanGuard::begin(recorder, &mut span_ids, round + 1, None, "checker_expand");
        let mut next: Vec<ExecState> = Vec::with_capacity(frontier.len() * alphabet.len());
        // Group by prefix: all four input pairs extend the same way, so
        // test allows_prefix once per (prefix, letter). Entries with the
        // same prefix are contiguous by construction.
        let mut groups: Vec<(usize, usize, u32)> = Vec::new();
        let mut i = 0usize;
        while i < frontier.len() {
            let prefix_idx = frontier[i].prefix_idx;
            let mut j = i;
            while j < frontier.len() && frontier[j].prefix_idx == prefix_idx {
                j += 1;
            }
            groups.push((i, j, prefix_idx));
            i = j;
        }

        // Viability of every (group, letter) extension — the expensive
        // queries, batched so the parallel variant can fan them out.
        let candidate_words: Vec<Word> = groups
            .iter()
            .flat_map(|&(_, _, pidx)| {
                let word = reconstruct(&prefixes, pidx);
                alphabet.iter().map(move |&l| word.push(l))
            })
            .collect();
        let viable: Vec<bool> = match batch {
            Some(run_batch) => run_batch(&candidate_words),
            None => candidate_words.iter().map(allows).collect(),
        };

        for (g, &(i, j, prefix_idx)) in groups.iter().enumerate() {
            for (li, &letter) in alphabet.iter().enumerate() {
                if !viable[g * alphabet.len() + li] {
                    continue;
                }
                prefixes.push((prefix_idx, Some(letter)));
                let new_idx = (prefixes.len() - 1) as u32;
                for entry in &frontier[i..j] {
                    let to_white = letter
                        .delivers_from(Role::Black)
                        .then_some(entry.view_b);
                    let to_black = letter
                        .delivers_from(Role::White)
                        .then_some(entry.view_w);
                    next.push(ExecState {
                        prefix_idx: new_idx,
                        white_input: entry.white_input,
                        black_input: entry.black_input,
                        view_w: arena.extend(entry.view_w, to_white),
                        view_b: arena.extend(entry.view_b, to_black),
                    });
                }
            }
        }
        if let Some(span) = expand_span {
            span.end(recorder);
        }
        // Keep same-prefix entries contiguous: sort by prefix index.
        let dedup_span = SpanGuard::begin(recorder, &mut span_ids, round + 1, None, "checker_dedup");
        next.sort_by_key(|e| e.prefix_idx);
        if let Some(span) = dedup_span {
            span.end(recorder);
        }
        frontier = next;
        if recorder.enabled() {
            states_total += frontier.len();
            if states_total / CHECKER_PROGRESS_STRIDE > progress_mark {
                progress_mark = states_total / CHECKER_PROGRESS_STRIDE;
                recorder.record(TraceEvent::CheckerProgress {
                    round: round + 1,
                    frontier: frontier.len(),
                    states: states_total,
                });
            }
        }
        recorder.record(TraceEvent::CheckerRound {
            round: round + 1,
            frontier: frontier.len(),
            views: arena.len(),
            nanos: step_timer.elapsed_nanos(),
        });
        if frontier.is_empty() {
            return CheckResult::Empty;
        }
        // Budget is checked at round granularity: the round that tips
        // the scales still finishes, so `horizon_reached` is always a
        // fully-explored depth.
        if round + 1 < k {
            if let Some(t) = tracker.as_deref_mut() {
                if !t.charge(frontier.len()) {
                    recorder.record(TraceEvent::BudgetExhausted {
                        horizon: round + 1,
                        frontier: frontier.len(),
                        states: t.states_spent,
                    });
                    return CheckResult::BudgetExhausted {
                        horizon_reached: round + 1,
                        frontier_size: frontier.len(),
                    };
                }
            }
        }
    }

    // Union final views per execution; pin uniform-input executions.
    let decide_span = SpanGuard::begin(recorder, &mut span_ids, k, None, "checker_decide");
    let n_views = arena.len();
    let mut uf = UnionFind::new(n_views);
    for e in &frontier {
        uf.union(e.view_w.0, e.view_b.0);
    }
    // Pins: root → required value (via a representative execution).
    let mut pin0: Vec<Option<usize>> = vec![None; n_views]; // exec index
    let mut pin1: Vec<Option<usize>> = vec![None; n_views];
    for (idx, e) in frontier.iter().enumerate() {
        if e.white_input == e.black_input {
            let root = uf.find(e.view_w.0) as usize;
            let slot = if e.white_input { &mut pin1 } else { &mut pin0 };
            if slot[root].is_none() {
                slot[root] = Some(idx);
            }
        }
    }
    let conflict_root = (0..n_views).find(|&r| {
        // Only roots carry pins.
        pin0[r].is_some() && pin1[r].is_some()
    });

    let result = match conflict_root {
        None => {
            // Count components among final views only.
            let mut roots: Vec<u32> = frontier
                .iter()
                .flat_map(|e| [e.view_w.0, e.view_b.0])
                .collect();
            for r in roots.iter_mut() {
                *r = uf.find(*r);
            }
            roots.sort_unstable();
            roots.dedup();
            let finals: std::collections::BTreeSet<u32> = frontier
                .iter()
                .flat_map(|e| [e.view_w.0, e.view_b.0])
                .collect();
            CheckResult::Solvable {
                views: finals.len(),
                components: roots.len(),
            }
        }
        Some(root) => {
            let chain = extract_chain(
                &frontier,
                &prefixes,
                pin0[root].unwrap(),
                pin1[root].unwrap(),
                &reconstruct,
            );
            CheckResult::Unsolvable { chain }
        }
    };
    if let Some(span) = decide_span {
        span.end(recorder);
    }
    result
}

/// BFS over executions: two executions are adjacent when they share a
/// final view (some process cannot distinguish them). Returns the chain
/// from the 0-pinned execution to the 1-pinned one.
fn extract_chain(
    frontier: &[ExecState],
    prefixes: &PrefixStore,
    start: usize,
    goal: usize,
    reconstruct: &dyn Fn(&PrefixStore, u32) -> Word,
) -> Vec<ChainStep> {
    use std::collections::{HashMap, VecDeque};
    // view id → executions carrying it.
    let mut by_view: HashMap<u32, Vec<usize>> = HashMap::new();
    for (idx, e) in frontier.iter().enumerate() {
        by_view.entry(e.view_w.0).or_default().push(idx);
        by_view.entry(e.view_b.0).or_default().push(idx);
    }
    let mut prev: HashMap<usize, usize> = HashMap::new();
    let mut seen = vec![false; frontier.len()];
    seen[start] = true;
    let mut queue = VecDeque::from([start]);
    'bfs: while let Some(cur) = queue.pop_front() {
        if cur == goal {
            break 'bfs;
        }
        let e = &frontier[cur];
        for v in [e.view_w.0, e.view_b.0] {
            for &other in by_view.get(&v).into_iter().flatten() {
                if !seen[other] {
                    seen[other] = true;
                    prev.insert(other, cur);
                    queue.push_back(other);
                }
            }
        }
    }
    // Rebuild path.
    let mut path = vec![goal];
    let mut cur = goal;
    while cur != start {
        cur = prev[&cur];
        path.push(cur);
    }
    path.reverse();
    path.into_iter()
        .map(|idx| {
            let e = &frontier[idx];
            ChainStep {
                prefix: reconstruct(prefixes, e.prefix_idx),
                white_input: e.white_input,
                black_input: e.black_input,
            }
        })
        .collect()
}

/// The `Γ` alphabet for the checker.
pub fn gamma_alphabet() -> Vec<Letter> {
    vec![Letter::Full, Letter::DropWhite, Letter::DropBlack]
}

/// The full `Σ` alphabet for the checker.
pub fn sigma_alphabet() -> Vec<Letter> {
    Letter::ALL.to_vec()
}

/// The smallest horizon `k ≤ max_k` at which the scheme is solvable, or
/// `None`. By Corollary III.14 / Proposition III.15 this equals the
/// paper's worst-case round complexity `p` whenever it exists.
pub fn first_solvable_horizon(
    scheme: &dyn OmissionScheme,
    max_k: usize,
    alphabet: &[Letter],
) -> Option<usize> {
    first_solvable_horizon_with_recorder(scheme, max_k, alphabet, &mut NullRecorder)
}

/// [`first_solvable_horizon`] with structured observations delivered to
/// `recorder`: every inner check streams its `checker_round` events, and
/// each horizon `k` closes with a `horizon` event carrying its verdict and
/// wall time.
pub fn first_solvable_horizon_with_recorder<R: Recorder + ?Sized>(
    scheme: &dyn OmissionScheme,
    max_k: usize,
    alphabet: &[Letter],
    recorder: &mut R,
) -> Option<usize> {
    for k in 0..=max_k {
        let timer = RoundTimer::start_if(recorder.enabled());
        let solvable = solvable_by_with_recorder(scheme, k, alphabet, recorder).is_solvable();
        recorder.record(TraceEvent::Horizon {
            horizon: k,
            solvable,
            nanos: timer.elapsed_nanos(),
        });
        if solvable {
            return Some(k);
        }
    }
    None
}

/// The outcome of a budgeted horizon sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HorizonOutcome {
    /// The smallest solvable horizon, as in [`first_solvable_horizon`].
    Solvable(usize),
    /// Every horizon `k ≤ max_k` was fully checked and none is solvable.
    UnsolvableWithin(usize),
    /// The budget ran out mid-sweep. All horizons `< at_horizon` were
    /// fully checked and unsolvable; the verdict for `at_horizon` and
    /// beyond is unknown.
    BudgetExhausted {
        /// The horizon whose check hit the cap.
        at_horizon: usize,
        /// Deepest fully-explored round inside that check.
        horizon_reached: usize,
        /// Frontier size at the stop point.
        frontier_size: usize,
    },
}

/// [`first_solvable_horizon`] under a [`Budget`] that is **cumulative
/// across the whole sweep**: the state/time caps are shared by every
/// inner check, so the sweep as a whole degrades gracefully instead of
/// paying the cap once per horizon.
pub fn first_solvable_horizon_budgeted(
    scheme: &dyn OmissionScheme,
    max_k: usize,
    alphabet: &[Letter],
    budget: Budget,
) -> HorizonOutcome {
    first_solvable_horizon_budgeted_with_recorder(scheme, max_k, alphabet, budget, &mut NullRecorder)
}

/// [`first_solvable_horizon_budgeted`] with structured observations.
pub fn first_solvable_horizon_budgeted_with_recorder<R: Recorder + ?Sized>(
    scheme: &dyn OmissionScheme,
    max_k: usize,
    alphabet: &[Letter],
    budget: Budget,
    recorder: &mut R,
) -> HorizonOutcome {
    let mut tracker = BudgetTracker::new(budget);
    for k in 0..=max_k {
        let timer = RoundTimer::start_if(recorder.enabled());
        let result = solvable_by_impl(
            &|u| scheme.allows_prefix(u),
            None,
            k,
            alphabet,
            recorder,
            Some(&mut tracker),
        );
        if let CheckResult::BudgetExhausted {
            horizon_reached,
            frontier_size,
        } = result
        {
            return HorizonOutcome::BudgetExhausted {
                at_horizon: k,
                horizon_reached,
                frontier_size,
            };
        }
        let solvable = result.is_solvable();
        recorder.record(TraceEvent::Horizon {
            horizon: k,
            solvable,
            nanos: timer.elapsed_nanos(),
        });
        if solvable {
            return HorizonOutcome::Solvable(k);
        }
    }
    HorizonOutcome::UnsolvableWithin(max_k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minobs_core::minimal::CanonicalMinimalObstruction;
    use minobs_core::scheme::{classic, ClassicScheme};
    use minobs_core::theorem::min_excluded_prefix;

    fn gamma() -> Vec<Letter> {
        gamma_alphabet()
    }

    #[test]
    fn nothing_is_solvable_at_horizon_zero() {
        // Without communication mixed inputs force a conflict.
        let r = solvable_by(&classic::s0(), 0, &gamma());
        assert!(!r.is_solvable());
    }

    #[test]
    fn s0_and_t_solvable_at_one_round() {
        for scheme in [classic::s0(), classic::t_white(), classic::t_black()] {
            assert!(
                solvable_by(&scheme, 1, &gamma()).is_solvable(),
                "{}",
                scheme.name()
            );
        }
    }

    #[test]
    fn c1_and_s1_need_exactly_two_rounds() {
        for scheme in [classic::c1(), classic::s1()] {
            assert!(!solvable_by(&scheme, 1, &gamma()).is_solvable(), "{}", scheme.name());
            assert!(solvable_by(&scheme, 2, &gamma()).is_solvable(), "{}", scheme.name());
            assert_eq!(
                first_solvable_horizon(&scheme, 4, &gamma()),
                Some(2),
                "{}",
                scheme.name()
            );
        }
    }

    #[test]
    fn r1_unsolvable_at_every_tested_horizon() {
        for k in 0..=6 {
            let r = solvable_by(&classic::r1(), k, &gamma());
            assert!(!r.is_solvable(), "k={k}");
        }
    }

    #[test]
    fn s2_unsolvable_with_sigma_alphabet() {
        for k in 0..=4 {
            let r = solvable_by(&classic::s2(), k, &sigma_alphabet());
            assert!(!r.is_solvable(), "k={k}");
        }
    }

    #[test]
    fn bivalency_chain_is_a_valid_certificate() {
        let CheckResult::Unsolvable { chain } = solvable_by(&classic::r1(), 3, &gamma()) else {
            panic!("R1 must be unsolvable");
        };
        assert!(chain.len() >= 2);
        // Endpoints are the uniform executions with opposite values.
        let first = chain.first().unwrap();
        let last = chain.last().unwrap();
        assert_eq!(first.white_input, first.black_input);
        assert_eq!(last.white_input, last.black_input);
        assert_ne!(first.white_input, last.white_input);
        // Every step's prefix is allowed by the scheme.
        for step in &chain {
            assert!(classic::r1().allows_prefix(&step.prefix), "{:?}", step);
            assert_eq!(step.prefix.len(), 3);
        }
    }

    #[test]
    fn horizon_matches_min_excluded_prefix_for_catalog() {
        // The structural identity: first_solvable_horizon = p
        // (Cor. III.14 / Prop. III.15), including the unbounded cases.
        let schemes = [
            classic::s0(),
            classic::t_white(),
            classic::t_black(),
            classic::c1(),
            classic::s1(),
            classic::r1(),
            classic::fair_gamma(),
            classic::almost_fair(),
        ];
        for scheme in schemes {
            let p = min_excluded_prefix(&scheme, 4).map(|(p, _)| p);
            let h = first_solvable_horizon(&scheme, 4, &gamma());
            assert_eq!(h, p, "{}", scheme.name());
        }
    }

    #[test]
    fn avoid_prefix_horizon_is_prefix_length() {
        for w0 in ["w", "wb", "b-w"] {
            let scheme = ClassicScheme::AvoidPrefix(w0.parse().unwrap());
            assert_eq!(
                first_solvable_horizon(&scheme, 5, &gamma()),
                Some(w0.len()),
                "{w0}"
            );
        }
    }

    #[test]
    fn canonical_minimal_obstruction_unsolvable_at_horizons() {
        // Pref(L) = Γ* for the canonical minimal obstruction, so the
        // checker must reject every horizon.
        let l = CanonicalMinimalObstruction;
        for k in 0..=5 {
            assert!(!solvable_by(&l, k, &gamma()).is_solvable(), "k={k}");
        }
    }

    #[test]
    fn empty_scheme_is_vacuously_solvable() {
        let l = ClassicScheme::AvoidPrefix(Word::empty());
        assert_eq!(solvable_by(&l, 3, &gamma()), CheckResult::Empty);
        assert!(solvable_by(&l, 3, &gamma()).is_solvable());
    }

    #[test]
    fn chain_grows_with_horizon() {
        // Deeper horizons need longer chains to connect 0 to 1 — the
        // quantitative face of "the impossibility proof gets harder".
        let mut prev_len = 0;
        for k in 1..=5 {
            let CheckResult::Unsolvable { chain } = solvable_by(&classic::r1(), k, &gamma())
            else {
                panic!("R1 unsolvable");
            };
            assert!(chain.len() >= prev_len, "k={k}");
            prev_len = chain.len();
        }
        assert!(prev_len >= 4);
    }

    #[test]
    fn solvable_components_structure() {
        let CheckResult::Solvable { views, components } =
            solvable_by(&classic::s0(), 1, &gamma())
        else {
            panic!("S0 solvable at 1");
        };
        // Four executions (input pairs) over the single Full prefix:
        // 8 final views in 4 components.
        assert_eq!(views, 8);
        assert_eq!(components, 4);
    }

    #[test]
    fn parallel_checker_matches_sequential() {
        let schemes: Vec<ClassicScheme> = vec![
            classic::s0(),
            classic::s1(),
            classic::c1(),
            classic::r1(),
            classic::almost_fair(),
            classic::total_budget(2),
            ClassicScheme::AvoidPrefix("wb".parse().unwrap()),
        ];
        for scheme in &schemes {
            for k in 0..=4 {
                let seq = solvable_by(scheme, k, &gamma());
                let par = solvable_by_par(scheme, k, &gamma());
                assert_eq!(seq, par, "{} k={k}", scheme.name());
            }
        }
    }

    #[test]
    fn parallel_checker_on_sigma_alphabet() {
        for k in 0..=3 {
            assert_eq!(
                solvable_by(&classic::s2(), k, &sigma_alphabet()),
                solvable_by_par(&classic::s2(), k, &sigma_alphabet()),
            );
        }
    }

    #[test]
    fn gamma_minus_half_pair_unsolvable_bounded() {
        // Γω \ {-(w)} is an obstruction; its prefixes are all of Γ*, so
        // the checker rejects every horizon.
        let l = ClassicScheme::GammaMinus(vec!["-(w)".parse().unwrap()]);
        for k in 0..=5 {
            assert!(!solvable_by(&l, k, &gamma()).is_solvable(), "k={k}");
        }
    }

    #[test]
    fn solvable_pair_scheme_still_unbounded_horizon() {
        // Γω \ {-(w), b(w)} IS solvable (Theorem III.8) but with
        // unbounded round complexity: Pref(L) = Γ*, so no fixed-horizon
        // algorithm exists. The checker and the theorem answer different
        // questions — and both answers are right.
        let l = ClassicScheme::GammaMinus(vec!["-(w)".parse().unwrap(), "b(w)".parse().unwrap()]);
        assert!(minobs_core::theorem::decide_gamma(&l).is_solvable());
        for k in 0..=5 {
            assert!(!solvable_by(&l, k, &gamma()).is_solvable(), "k={k}");
        }
    }

    #[test]
    fn generous_budget_matches_unbudgeted() {
        for scheme in [classic::s0(), classic::c1(), classic::r1()] {
            for k in 0..=3 {
                assert_eq!(
                    solvable_by_budgeted(&scheme, k, &gamma(), Budget::UNLIMITED),
                    solvable_by(&scheme, k, &gamma()),
                    "{} k={k}",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn exhausted_budget_reports_partial_horizon() {
        // R1's frontier at depth 4 is far beyond 50 cumulative states,
        // so the check must stop early — deterministically, since a
        // states-only budget never consults the clock.
        let r = solvable_by_budgeted(&classic::r1(), 6, &gamma(), Budget::states(50));
        let CheckResult::BudgetExhausted {
            horizon_reached,
            frontier_size,
        } = r
        else {
            panic!("expected BudgetExhausted, got {r:?}");
        };
        assert!(!r.is_solvable());
        assert!(horizon_reached < 6, "stopped at {horizon_reached}");
        assert!(frontier_size > 0);
        // Determinism: the same budget stops at the same point.
        assert_eq!(
            solvable_by_budgeted(&classic::r1(), 6, &gamma(), Budget::states(50)),
            r
        );
    }

    #[test]
    fn budget_never_cuts_a_completed_check_short() {
        // A budget big enough for the run returns the real verdict —
        // the final frontier is never charged against further work.
        let full = solvable_by(&classic::s1(), 2, &gamma());
        assert_eq!(
            solvable_by_budgeted(&classic::s1(), 2, &gamma(), Budget::states(100_000)),
            full
        );
    }

    #[test]
    fn parallel_budgeted_degrades_at_the_same_round() {
        for budget in [Budget::states(50), Budget::states(10_000), Budget::UNLIMITED] {
            assert_eq!(
                solvable_by_par_budgeted(&classic::r1(), 5, &gamma(), budget),
                solvable_by_budgeted(&classic::r1(), 5, &gamma(), budget),
                "{budget:?}"
            );
        }
    }

    #[test]
    fn budgeted_horizon_sweep_surfaces_exhaustion() {
        // Unlimited budget reproduces the plain sweep.
        assert_eq!(
            first_solvable_horizon_budgeted(&classic::c1(), 4, &gamma(), Budget::UNLIMITED),
            HorizonOutcome::Solvable(2)
        );
        assert_eq!(
            first_solvable_horizon_budgeted(&classic::r1(), 3, &gamma(), Budget::UNLIMITED),
            HorizonOutcome::UnsolvableWithin(3)
        );
        // A tiny cumulative budget dies mid-sweep and says where.
        let out = first_solvable_horizon_budgeted(&classic::r1(), 6, &gamma(), Budget::states(40));
        let HorizonOutcome::BudgetExhausted {
            at_horizon,
            horizon_reached,
            frontier_size,
        } = out
        else {
            panic!("expected BudgetExhausted, got {out:?}");
        };
        assert!(at_horizon <= 6);
        assert!(horizon_reached < at_horizon || at_horizon == 0);
        assert!(frontier_size > 0);
    }

    #[test]
    fn exhaustion_emits_budget_exhausted_event() {
        use minobs_obs::{MemoryRecorder, TraceEvent};
        let mut rec = MemoryRecorder::new();
        let r = solvable_by_budgeted_with_recorder(
            &classic::r1(),
            6,
            &gamma(),
            Budget::states(50),
            &mut rec,
        );
        let CheckResult::BudgetExhausted {
            horizon_reached,
            frontier_size,
        } = r
        else {
            panic!("expected BudgetExhausted");
        };
        let events: Vec<_> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::BudgetExhausted {
                    horizon,
                    frontier,
                    states,
                } => Some((*horizon, *frontier, *states)),
                _ => None,
            })
            .collect();
        assert_eq!(events.len(), 1);
        let (horizon, frontier, states) = events[0];
        assert_eq!(horizon, horizon_reached);
        assert_eq!(frontier, frontier_size);
        assert!(frontier <= states, "trace_lint invariant");
    }

    #[test]
    fn checker_emits_bracketed_spans_per_round() {
        use minobs_obs::{MemoryRecorder, TraceEvent};
        let k = 3;
        let mut rec = MemoryRecorder::new();
        solvable_by_with_recorder(&classic::c1(), k, &gamma(), &mut rec);

        let mut stack: Vec<u64> = Vec::new();
        let mut seen_ids = std::collections::BTreeSet::new();
        let mut names = Vec::new();
        for event in rec.events() {
            match event {
                TraceEvent::SpanStart { span_id, name, .. } => {
                    assert!(seen_ids.insert(*span_id), "span ids must be unique");
                    stack.push(*span_id);
                    names.push(name.clone());
                }
                TraceEvent::SpanEnd { span_id, .. } => {
                    assert_eq!(stack.pop(), Some(*span_id), "spans must nest");
                }
                _ => {}
            }
        }
        assert!(stack.is_empty(), "all spans closed");
        let expected: Vec<String> = (0..k)
            .flat_map(|_| ["checker_expand".to_string(), "checker_dedup".to_string()])
            .chain(["checker_decide".to_string()])
            .collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn checker_progress_fires_at_every_stride_crossing() {
        use minobs_obs::{MemoryRecorder, TraceEvent};
        let mut rec = MemoryRecorder::new();
        solvable_by_with_recorder(&classic::r1(), 8, &gamma(), &mut rec);

        // Replay the frontier trajectory to predict the heartbeats.
        let mut cumulative = 4usize; // round-0 frontier: 4 input pairs
        let mut mark = cumulative / CHECKER_PROGRESS_STRIDE;
        let mut expected = Vec::new();
        for event in rec.events() {
            if let TraceEvent::CheckerRound {
                round, frontier, ..
            } = event
            {
                cumulative += frontier;
                if cumulative / CHECKER_PROGRESS_STRIDE > mark {
                    mark = cumulative / CHECKER_PROGRESS_STRIDE;
                    expected.push((*round, *frontier, cumulative));
                }
            }
        }
        let observed: Vec<(usize, usize, usize)> = rec
            .events()
            .iter()
            .filter_map(|event| match event {
                TraceEvent::CheckerProgress {
                    round,
                    frontier,
                    states,
                } => Some((*round, *frontier, *states)),
                _ => None,
            })
            .collect();
        assert_eq!(observed, expected);
        assert!(
            !observed.is_empty(),
            "an 8-round sweep must cross the progress stride at least once"
        );
    }

    use minobs_core::word::Word;
    use minobs_core::scheme::OmissionScheme;
}
