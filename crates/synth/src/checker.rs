//! The bounded solvability model checker.
//!
//! `Check::at(scheme, k)` answers: *does any algorithm exist in which both
//! processes decide at round `k`, correctly, for every scenario of the
//! scheme?* — by the full-information reduction (see the crate docs) this
//! is a finite union-find computation over views.
//!
//! The enumeration is level-synchronous over `Pref_k(L)`: the frontier
//! holds one entry per (allowed prefix × input pair) carrying the two
//! current view ids; each round extends prefixes by every allowed letter.
//! Prefix pruning uses [`OmissionScheme::allows_prefix`], so the checker
//! works for any scheme — classic, ω-regular, or hand-rolled.
//!
//! The round-`j` frontier does not depend on the target horizon, so a
//! horizon sweep (`Check::first`) is one such pass with a decision at
//! every depth of the range, not one pass per horizon. Those decisions
//! are verdict-only (union-find and pins); only `Check::at` builds the
//! certificate, a BFS over executions for the bivalency chain.

use crate::views::{ViewArena, ViewId};
use minobs_core::letter::{Letter, Role};
use minobs_core::scheme::OmissionScheme;
use minobs_core::word::Word;
use minobs_obs::{NullRecorder, Recorder, RoundTimer, SpanGuard, SpanIds, TraceEvent};
use std::ops::RangeInclusive;

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

/// A resource cap for one [`Check`] call: graceful degradation instead of
/// an unbounded frontier explosion. Exceeding either limit stops the call
/// at the next round boundary with [`CheckResult::BudgetExhausted`] or
/// [`HorizonOutcome::BudgetExhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Cap on cumulative frontier entries expanded (sum over rounds).
    pub max_states: usize,
    /// Wall-clock cap in milliseconds. `u64::MAX` disables the clock,
    /// keeping the check fully deterministic.
    pub max_millis: u64,
}

impl Budget {
    /// No limits.
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

/// Mutable budget accounting, shared across every round of one sweep —
/// and so across every horizon a [`Check::first`] decides.
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

    /// The number of components.
    fn roots(&self) -> usize {
        self.parent
            .iter()
            .enumerate()
            .filter(|&(i, &p)| p as usize == i)
            .count()
    }
}

/// The union-find verdict on a frontier.
enum Verdict {
    /// No component carries both pins; the union-find over the final
    /// views is kept for counting.
    Solvable(UnionFind),
    /// A component carries both pins: the first executions pinned to 0
    /// and to 1 in it, by frontier index.
    Conflict { zero: usize, one: usize },
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

/// The one way to run the checker: a per-round alphabet (`GammaLetter`-only
/// letters for `L ⊆ Γ^ω`, all of `Σ` for schemes with double omission)
/// and a [`Budget`].
///
/// [`Check::at`] decides one horizon; [`Check::first`] decides a range of
/// horizons in a single breadth-first pass. Both run the same private
/// sweep, and the budget is cumulative over that sweep: one call, one cap.
#[derive(Debug, Clone, Copy)]
pub struct Check<'a> {
    /// Letters each round may extend a prefix by.
    pub alphabet: &'a [Letter],
    /// The cap on the whole call.
    pub budget: Budget,
}

impl Check<'_> {
    /// Decides `k`-round solvability of `scheme`. Observations go to
    /// `recorder`: one `checker_round` event and one `checker_expand` /
    /// `checker_dedup` span pair per frontier step, a `checker_decide`
    /// span, `checker_progress` heartbeats, and `budget_exhausted` when
    /// the budget stops the check early with
    /// [`CheckResult::BudgetExhausted`].
    pub fn at<R: Recorder + ?Sized>(
        &self,
        scheme: &dyn OmissionScheme,
        k: usize,
        recorder: &mut R,
    ) -> CheckResult {
        let mut sweep = Sweep::new(scheme, self, recorder);
        while sweep.depth < k && !sweep.frontier.is_empty() {
            if !sweep.charge() {
                return CheckResult::BudgetExhausted {
                    horizon_reached: sweep.depth,
                    frontier_size: sweep.frontier.len(),
                };
            }
            sweep.expand();
        }
        sweep.decide(k)
    }

    /// The smallest solvable horizon in `horizons`. Each round is expanded
    /// exactly once: rounds below the range are expanded but not decided,
    /// and every horizon in the range is decided, verdict only, as the
    /// frontier reaches it, closing with a `horizon` event. The events
    /// are those of [`Check::at`] at the deepest horizon reached, plus one
    /// `checker_decide` span per decided horizon. An empty range decides
    /// nothing and returns [`HorizonOutcome::UnsolvableWithin`] its end.
    pub fn first<R: Recorder + ?Sized>(
        &self,
        scheme: &dyn OmissionScheme,
        horizons: RangeInclusive<usize>,
        recorder: &mut R,
    ) -> HorizonOutcome {
        let (from, to) = (*horizons.start(), *horizons.end());
        if from > to {
            return HorizonOutcome::UnsolvableWithin(to);
        }
        let timer = RoundTimer::start_if(recorder.enabled());
        let mut sweep = Sweep::new(scheme, self, recorder);
        loop {
            let depth = sweep.depth;
            if depth >= from {
                let solvable = sweep.is_solvable(depth);
                sweep.recorder.record(TraceEvent::Horizon {
                    horizon: depth,
                    solvable,
                    nanos: timer.elapsed_nanos(),
                });
                if solvable {
                    return HorizonOutcome::Solvable(depth);
                }
                if depth == to {
                    return HorizonOutcome::UnsolvableWithin(to);
                }
            }
            if !sweep.charge() {
                return HorizonOutcome::BudgetExhausted {
                    at_horizon: (depth + 1).max(from),
                    horizon_reached: depth,
                    frontier_size: sweep.frontier.len(),
                };
            }
            sweep.expand();
        }
    }
}

/// [`Check::at`] without a budget or observations.
pub fn solvable_by(scheme: &dyn OmissionScheme, k: usize, alphabet: &[Letter]) -> CheckResult {
    Check {
        alphabet,
        budget: Budget::UNLIMITED,
    }
    .at(scheme, k, &mut NullRecorder)
}

/// [`Check::at`] as a free function, kept for callers of this signature.
pub fn solvable_by_budgeted_with_recorder<R: Recorder + ?Sized>(
    scheme: &dyn OmissionScheme,
    k: usize,
    alphabet: &[Letter],
    budget: Budget,
    recorder: &mut R,
) -> CheckResult {
    Check { alphabet, budget }.at(scheme, k, recorder)
}

/// The smallest horizon `k ≤ max_k` at which the scheme is solvable, or
/// `None`: [`Check::first`] over `0..=max_k` without a budget. By
/// Corollary III.14 / Proposition III.15 this equals the paper's
/// worst-case round complexity `p` whenever it exists.
pub fn first_solvable_horizon(
    scheme: &dyn OmissionScheme,
    max_k: usize,
    alphabet: &[Letter],
) -> Option<usize> {
    let check = Check {
        alphabet,
        budget: Budget::UNLIMITED,
    };
    match check.first(scheme, 0..=max_k, &mut NullRecorder) {
        HorizonOutcome::Solvable(k) => Some(k),
        _ => None,
    }
}

/// The outcome of a horizon sweep ([`Check::first`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HorizonOutcome {
    /// The smallest solvable horizon in the range.
    Solvable(usize),
    /// Every horizon in the range was decided and none is solvable;
    /// carries the range's end.
    UnsolvableWithin(usize),
    /// The budget ran out mid-sweep. Every horizon of the range below
    /// `at_horizon` was decided unsolvable; the verdict for `at_horizon`
    /// and beyond is unknown.
    BudgetExhausted {
        /// The first horizon of the range left undecided.
        at_horizon: usize,
        /// The deepest fully-explored round.
        horizon_reached: usize,
        /// Frontier size at the stop point.
        frontier_size: usize,
    },
}

/// The checker's state between rounds: the frontier over `Pref_depth(L)`
/// (one entry per allowed prefix × input pair, carrying the two current
/// view ids), the view arena and prefix store it points into, and the
/// budget spent so far.
struct Sweep<'s, R: Recorder + ?Sized> {
    scheme: &'s dyn OmissionScheme,
    alphabet: &'s [Letter],
    recorder: &'s mut R,
    tracker: BudgetTracker,
    arena: ViewArena,
    prefixes: PrefixStore,
    frontier: Vec<ExecState>,
    depth: usize,
    span_ids: SpanIds,
    states_total: usize,
    progress_mark: usize,
    /// The first view id interned at the current depth. A view's round is
    /// its number of extensions, so the round-`j` views are interned by
    /// round `j`'s expansion, each for some frontier entry: the frontier's
    /// views are exactly `round_start..arena.len()`.
    round_start: u32,
}

impl<'s, R: Recorder + ?Sized> Sweep<'s, R> {
    /// The round-0 frontier: the empty prefix with all four input pairs,
    /// or nothing when the scheme allows no prefix at all.
    fn new(scheme: &'s dyn OmissionScheme, check: &Check<'s>, recorder: &'s mut R) -> Self {
        let mut arena = ViewArena::new();
        let mut frontier = Vec::new();
        if scheme.allows_prefix(&Word::empty()) {
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
        }
        let states_total = frontier.len();
        Sweep {
            scheme,
            alphabet: check.alphabet,
            recorder,
            tracker: BudgetTracker::new(check.budget),
            arena,
            prefixes: vec![(0, None)],
            frontier,
            depth: 0,
            span_ids: SpanIds::new(),
            states_total,
            progress_mark: states_total / CHECKER_PROGRESS_STRIDE,
            round_start: 0,
        }
    }

    /// Charges the frontier about to be expanded. The budget is checked
    /// at round granularity: the round that tips the scales still
    /// finishes, so the depth reached is always fully explored, and a
    /// frontier that is only decided is never charged. On exhaustion
    /// records `budget_exhausted` and returns `false`.
    fn charge(&mut self) -> bool {
        if self.tracker.charge(self.frontier.len()) {
            return true;
        }
        self.recorder.record(TraceEvent::BudgetExhausted {
            horizon: self.depth,
            frontier: self.frontier.len(),
            states: self.tracker.states_spent,
        });
        false
    }

    /// Extends every prefix by every allowed letter: one round deeper.
    fn expand(&mut self) {
        let round = self.depth + 1;
        let step_timer = RoundTimer::start_if(self.recorder.enabled());
        let expand_span = SpanGuard::begin(
            self.recorder,
            &mut self.span_ids,
            round,
            None,
            "checker_expand",
        );
        let frontier = std::mem::take(&mut self.frontier);
        let mut next: Vec<ExecState> = Vec::with_capacity(frontier.len() * self.alphabet.len());
        self.round_start = self.arena.len() as u32;
        // All four input pairs of a prefix extend the same way, so test
        // allows_prefix once per (prefix, letter). Entries with the same
        // prefix are contiguous by construction.
        for group in frontier.chunk_by(|a, b| a.prefix_idx == b.prefix_idx) {
            let prefix_idx = group[0].prefix_idx;
            let mut word = reconstruct(&self.prefixes, prefix_idx);
            for &letter in self.alphabet {
                word.0.push(letter);
                let allowed = self.scheme.allows_prefix(&word);
                word.0.pop();
                if !allowed {
                    continue;
                }
                self.prefixes.push((prefix_idx, Some(letter)));
                let new_idx = (self.prefixes.len() - 1) as u32;
                for entry in group {
                    let to_white = letter.delivers_from(Role::Black).then_some(entry.view_b);
                    let to_black = letter.delivers_from(Role::White).then_some(entry.view_w);
                    next.push(ExecState {
                        prefix_idx: new_idx,
                        white_input: entry.white_input,
                        black_input: entry.black_input,
                        view_w: self.arena.extend(entry.view_w, to_white),
                        view_b: self.arena.extend(entry.view_b, to_black),
                    });
                }
            }
        }
        if let Some(span) = expand_span {
            span.end(self.recorder);
        }
        // Keep same-prefix entries contiguous: sort by prefix index.
        let dedup_span = SpanGuard::begin(
            self.recorder,
            &mut self.span_ids,
            round,
            None,
            "checker_dedup",
        );
        next.sort_by_key(|e| e.prefix_idx);
        if let Some(span) = dedup_span {
            span.end(self.recorder);
        }
        self.frontier = next;
        self.depth = round;
        if self.recorder.enabled() {
            self.states_total += self.frontier.len();
            if self.states_total / CHECKER_PROGRESS_STRIDE > self.progress_mark {
                self.progress_mark = self.states_total / CHECKER_PROGRESS_STRIDE;
                self.recorder.record(TraceEvent::CheckerProgress {
                    round,
                    frontier: self.frontier.len(),
                    states: self.states_total,
                });
            }
        }
        self.recorder.record(TraceEvent::CheckerRound {
            round,
            frontier: self.frontier.len(),
            views: self.arena.len(),
            nanos: step_timer.elapsed_nanos(),
        });
    }

    /// The certified verdict on the current frontier, reported as horizon
    /// `k`: the view and component counts, or the bivalency chain. An
    /// empty frontier is the vacuous [`CheckResult::Empty`].
    fn decide(&mut self, k: usize) -> CheckResult {
        if self.frontier.is_empty() {
            return CheckResult::Empty;
        }
        self.in_decide_span(k, |sweep| match sweep.verdict() {
            Verdict::Solvable(uf) => CheckResult::Solvable {
                views: uf.parent.len(),
                components: uf.roots(),
            },
            Verdict::Conflict { zero, one } => CheckResult::Unsolvable {
                chain: extract_chain(
                    &sweep.frontier,
                    &sweep.prefixes,
                    sweep.round_start,
                    sweep.final_views(),
                    zero,
                    one,
                ),
            },
        })
    }

    /// Whether the current frontier is solvable at horizon `k`, without
    /// a certificate: all a horizon sweep needs.
    fn is_solvable(&mut self, k: usize) -> bool {
        self.frontier.is_empty()
            || self.in_decide_span(k, |sweep| matches!(sweep.verdict(), Verdict::Solvable(_)))
    }

    /// Runs `decide` inside a `checker_decide` span.
    fn in_decide_span<T>(&mut self, k: usize, decide: impl FnOnce(&Self) -> T) -> T {
        let span = SpanGuard::begin(self.recorder, &mut self.span_ids, k, None, "checker_decide");
        let out = decide(self);
        if let Some(span) = span {
            span.end(self.recorder);
        }
        out
    }

    /// The number of distinct views on the frontier.
    fn final_views(&self) -> usize {
        self.arena.len() - self.round_start as usize
    }

    /// Unions the final views per execution and pins uniform-input
    /// executions. The union-find covers only the frontier's views,
    /// indexed from `round_start`.
    fn verdict(&self) -> Verdict {
        let base = self.round_start;
        let mut uf = UnionFind::new(self.final_views());
        for e in &self.frontier {
            uf.union(e.view_w.0 - base, e.view_b.0 - base);
        }
        // Root → the first execution pinned to 0 and to 1. Frontier
        // indices fit in u32: 2^32 16-byte entries would take 64 GiB.
        const NONE: u32 = u32::MAX;
        let mut pins = vec![[NONE; 2]; uf.parent.len()];
        for (idx, e) in self.frontier.iter().enumerate() {
            if e.white_input == e.black_input {
                let root = uf.find(e.view_w.0 - base) as usize;
                let slot = &mut pins[root][e.white_input as usize];
                if *slot == NONE {
                    *slot = idx as u32;
                }
            }
        }
        // Only roots carry pins; the smallest conflicting one is reported.
        match pins
            .iter()
            .find(|[zero, one]| *zero != NONE && *one != NONE)
        {
            Some(&[zero, one]) => Verdict::Conflict {
                zero: zero as usize,
                one: one as usize,
            },
            None => Verdict::Solvable(uf),
        }
    }
}

/// The word a prefix-store index stands for.
fn reconstruct(prefixes: &PrefixStore, mut idx: u32) -> Word {
    let mut letters = Vec::new();
    while let (parent, Some(letter)) = prefixes[idx as usize] {
        letters.push(letter);
        idx = parent;
    }
    letters.reverse();
    Word(letters)
}

/// BFS over executions: two executions are adjacent when they share a
/// final view (some process cannot distinguish them). Returns the chain
/// from the 0-pinned execution to the 1-pinned one. The frontier's views
/// are `base..base + n_views`.
fn extract_chain(
    frontier: &[ExecState],
    prefixes: &PrefixStore,
    base: u32,
    n_views: usize,
    start: usize,
    goal: usize,
) -> Vec<ChainStep> {
    let slot = |v: ViewId| (v.0 - base) as usize;
    // CSR index, view → executions carrying it, in frontier order:
    // `execs[offsets[v]..offsets[v + 1]]`.
    let mut offsets = vec![0u32; n_views + 1];
    for e in frontier {
        offsets[slot(e.view_w) + 1] += 1;
        offsets[slot(e.view_b) + 1] += 1;
    }
    for v in 0..n_views {
        offsets[v + 1] += offsets[v];
    }
    let mut cursor = offsets.clone();
    let mut execs = vec![0u32; 2 * frontier.len()];
    for (idx, e) in frontier.iter().enumerate() {
        for v in [e.view_w, e.view_b] {
            let at = &mut cursor[slot(v)];
            execs[*at as usize] = idx as u32;
            *at += 1;
        }
    }
    // `prev[x]` is the execution x was reached from; the start is its own.
    const UNSEEN: u32 = u32::MAX;
    let mut prev = vec![UNSEEN; frontier.len()];
    prev[start] = start as u32;
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(cur) = queue.pop_front() {
        if cur == goal {
            break;
        }
        let e = &frontier[cur];
        for v in [slot(e.view_w), slot(e.view_b)] {
            for &other in &execs[offsets[v] as usize..offsets[v + 1] as usize] {
                if prev[other as usize] == UNSEEN {
                    prev[other as usize] = cur as u32;
                    queue.push_back(other as usize);
                }
            }
        }
    }
    let mut path = vec![goal];
    let mut cur = goal;
    while cur != start {
        cur = prev[cur] as usize;
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

#[cfg(test)]
mod tests {
    use super::*;
    use minobs_core::minimal::CanonicalMinimalObstruction;
    use minobs_core::scheme::{classic, ClassicScheme};
    use minobs_core::theorem::min_excluded_prefix;

    use minobs_obs::MemoryRecorder;

    const GAMMA: &[Letter] = &[Letter::Full, Letter::DropWhite, Letter::DropBlack];

    /// A check over `Γ` under `budget`.
    fn check(budget: Budget) -> Check<'static> {
        Check {
            alphabet: GAMMA,
            budget,
        }
    }

    /// The values `pick` extracts from the recorded events, in order.
    fn picked<T>(rec: &MemoryRecorder, pick: impl Fn(&TraceEvent) -> Option<T>) -> Vec<T> {
        rec.events().iter().filter_map(pick).collect()
    }

    /// `Check::at` decided directly: a union-find over every interned
    /// view, pins found by a full scan, final views counted in a
    /// `BTreeSet`, and the chain found by a BFS over `HashMap` indices.
    /// The oracle for the array-backed decision.
    fn reference_at(scheme: &dyn OmissionScheme, k: usize, alphabet: &[Letter]) -> CheckResult {
        use std::collections::{BTreeSet, HashMap, VecDeque};
        let check = Check {
            alphabet,
            budget: Budget::UNLIMITED,
        };
        let mut recorder = NullRecorder;
        let mut sweep = Sweep::new(scheme, &check, &mut recorder);
        while sweep.depth < k && !sweep.frontier.is_empty() {
            sweep.expand();
        }
        let frontier = &sweep.frontier;
        if frontier.is_empty() {
            return CheckResult::Empty;
        }
        let n_views = sweep.arena.len();
        let mut uf = UnionFind::new(n_views);
        for e in frontier {
            uf.union(e.view_w.0, e.view_b.0);
        }
        let mut pin0: Vec<Option<usize>> = vec![None; n_views];
        let mut pin1: Vec<Option<usize>> = vec![None; n_views];
        for (idx, e) in frontier.iter().enumerate() {
            if e.white_input == e.black_input {
                let root = uf.find(e.view_w.0) as usize;
                let slot = if e.white_input { &mut pin1 } else { &mut pin0 };
                slot[root].get_or_insert(idx);
            }
        }
        let Some(root) = (0..n_views).find(|&r| pin0[r].is_some() && pin1[r].is_some()) else {
            let finals: BTreeSet<u32> = frontier
                .iter()
                .flat_map(|e| [e.view_w.0, e.view_b.0])
                .collect();
            let roots: BTreeSet<u32> = finals.iter().map(|&v| uf.find(v)).collect();
            return CheckResult::Solvable {
                views: finals.len(),
                components: roots.len(),
            };
        };
        let (start, goal) = (pin0[root].unwrap(), pin1[root].unwrap());
        let mut by_view: HashMap<u32, Vec<usize>> = HashMap::new();
        for (idx, e) in frontier.iter().enumerate() {
            by_view.entry(e.view_w.0).or_default().push(idx);
            by_view.entry(e.view_b.0).or_default().push(idx);
        }
        let mut prev: HashMap<usize, usize> = HashMap::new();
        let mut seen = vec![false; frontier.len()];
        seen[start] = true;
        let mut queue = VecDeque::from([start]);
        while let Some(cur) = queue.pop_front() {
            if cur == goal {
                break;
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
        let mut path = vec![goal];
        while *path.last().unwrap() != start {
            path.push(prev[path.last().unwrap()]);
        }
        let chain = path
            .into_iter()
            .rev()
            .map(|idx| ChainStep {
                prefix: reconstruct(&sweep.prefixes, frontier[idx].prefix_idx),
                white_input: frontier[idx].white_input,
                black_input: frontier[idx].black_input,
            })
            .collect();
        CheckResult::Unsolvable { chain }
    }

    /// The classic catalog plus prefix-avoiding and budgeted schemes.
    fn catalog() -> Vec<ClassicScheme> {
        let mut schemes = vec![
            classic::s0(),
            classic::t_white(),
            classic::t_black(),
            classic::c1(),
            classic::s1(),
            classic::r1(),
            classic::s2(),
            classic::fair_gamma(),
            classic::almost_fair(),
        ];
        for w0 in ["", "w", "wb", "b-w", "-bw"] {
            schemes.push(ClassicScheme::AvoidPrefix(w0.parse().unwrap()));
        }
        for budget in 0..=3 {
            schemes.push(classic::total_budget(budget));
            schemes.push(ClassicScheme::SigmaTotalBudget(budget));
        }
        schemes.push(ClassicScheme::SigmaAvoidPrefix("wx".parse().unwrap()));
        schemes
    }

    #[test]
    fn at_matches_the_hash_map_reference_on_the_catalog() {
        let sigma = sigma_alphabet();
        let (mut chains, mut solvable) = (0, 0);
        for scheme in &catalog() {
            for alphabet in [GAMMA, &sigma[..]] {
                for k in 0..=6 {
                    let got = solvable_by(scheme, k, alphabet);
                    assert_eq!(
                        got,
                        reference_at(scheme, k, alphabet),
                        "{} k={k} |alphabet|={}",
                        scheme.name(),
                        alphabet.len()
                    );
                    match got {
                        CheckResult::Unsolvable { .. } => chains += 1,
                        CheckResult::Solvable { .. } => solvable += 1,
                        _ => {}
                    }
                }
            }
        }
        // Both branches of the decision are exercised, many times over.
        assert!(
            chains > 50 && solvable > 50,
            "{chains} chains, {solvable} solvable"
        );
    }

    #[test]
    fn verdict_only_sweep_agrees_with_certified_checks() {
        let sigma = sigma_alphabet();
        for scheme in &catalog() {
            for alphabet in [GAMMA, &sigma[..]] {
                let expected = (0..=6)
                    .find(|&k| solvable_by(scheme, k, alphabet).is_solvable())
                    .map_or(
                        HorizonOutcome::UnsolvableWithin(6),
                        HorizonOutcome::Solvable,
                    );
                let check = Check {
                    alphabet,
                    budget: Budget::UNLIMITED,
                };
                assert_eq!(
                    check.first(scheme, 0..=6, &mut NullRecorder),
                    expected,
                    "{}",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn nothing_is_solvable_at_horizon_zero() {
        // Without communication mixed inputs force a conflict.
        let r = solvable_by(&classic::s0(), 0, GAMMA);
        assert!(!r.is_solvable());
    }

    #[test]
    fn s0_and_t_solvable_at_one_round() {
        for scheme in [classic::s0(), classic::t_white(), classic::t_black()] {
            assert!(
                solvable_by(&scheme, 1, GAMMA).is_solvable(),
                "{}",
                scheme.name()
            );
        }
    }

    #[test]
    fn c1_and_s1_need_exactly_two_rounds() {
        for scheme in [classic::c1(), classic::s1()] {
            assert!(
                !solvable_by(&scheme, 1, GAMMA).is_solvable(),
                "{}",
                scheme.name()
            );
            assert!(
                solvable_by(&scheme, 2, GAMMA).is_solvable(),
                "{}",
                scheme.name()
            );
            assert_eq!(
                first_solvable_horizon(&scheme, 4, GAMMA),
                Some(2),
                "{}",
                scheme.name()
            );
        }
    }

    #[test]
    fn r1_unsolvable_at_every_tested_horizon() {
        for k in 0..=6 {
            let r = solvable_by(&classic::r1(), k, GAMMA);
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
        let CheckResult::Unsolvable { chain } = solvable_by(&classic::r1(), 3, GAMMA) else {
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
            let h = first_solvable_horizon(&scheme, 4, GAMMA);
            assert_eq!(h, p, "{}", scheme.name());
        }
    }

    #[test]
    fn avoid_prefix_horizon_is_prefix_length() {
        for w0 in ["w", "wb", "b-w"] {
            let scheme = ClassicScheme::AvoidPrefix(w0.parse().unwrap());
            assert_eq!(
                first_solvable_horizon(&scheme, 5, GAMMA),
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
            assert!(!solvable_by(&l, k, GAMMA).is_solvable(), "k={k}");
        }
    }

    #[test]
    fn empty_scheme_is_vacuously_solvable() {
        let l = ClassicScheme::AvoidPrefix(Word::empty());
        assert_eq!(solvable_by(&l, 3, GAMMA), CheckResult::Empty);
        assert!(solvable_by(&l, 3, GAMMA).is_solvable());
    }

    #[test]
    fn chain_grows_with_horizon() {
        // Deeper horizons need longer chains to connect 0 to 1 — the
        // quantitative face of "the impossibility proof gets harder".
        let mut prev_len = 0;
        for k in 1..=5 {
            let CheckResult::Unsolvable { chain } = solvable_by(&classic::r1(), k, GAMMA) else {
                panic!("R1 unsolvable");
            };
            assert!(chain.len() >= prev_len, "k={k}");
            prev_len = chain.len();
        }
        assert!(prev_len >= 4);
    }

    #[test]
    fn solvable_components_structure() {
        let CheckResult::Solvable { views, components } = solvable_by(&classic::s0(), 1, GAMMA)
        else {
            panic!("S0 solvable at 1");
        };
        // Four executions (input pairs) over the single Full prefix:
        // 8 final views in 4 components.
        assert_eq!(views, 8);
        assert_eq!(components, 4);
    }

    #[test]
    fn gamma_minus_half_pair_unsolvable_bounded() {
        // Γω \ {-(w)} is an obstruction; its prefixes are all of Γ*, so
        // the checker rejects every horizon.
        let l = ClassicScheme::GammaMinus(vec!["-(w)".parse().unwrap()]);
        for k in 0..=5 {
            assert!(!solvable_by(&l, k, GAMMA).is_solvable(), "k={k}");
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
            assert!(!solvable_by(&l, k, GAMMA).is_solvable(), "k={k}");
        }
    }

    #[test]
    fn generous_budget_matches_unbudgeted() {
        for scheme in [classic::s0(), classic::c1(), classic::r1()] {
            for k in 0..=3 {
                assert_eq!(
                    check(Budget::UNLIMITED).at(&scheme, k, &mut NullRecorder),
                    solvable_by(&scheme, k, GAMMA),
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
        let r = check(Budget::states(50)).at(&classic::r1(), 6, &mut NullRecorder);
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
            check(Budget::states(50)).at(&classic::r1(), 6, &mut NullRecorder),
            r
        );
    }

    #[test]
    fn budget_never_cuts_a_completed_check_short() {
        // A budget big enough for the run returns the real verdict —
        // the final frontier is never charged against further work.
        let full = solvable_by(&classic::s1(), 2, GAMMA);
        let budgeted = check(Budget::states(100_000)).at(&classic::s1(), 2, &mut NullRecorder);
        assert_eq!(budgeted, full);
    }

    #[test]
    fn budgeted_horizon_sweep_surfaces_exhaustion() {
        // Unlimited budget reproduces the plain sweep.
        let unlimited = check(Budget::UNLIMITED);
        let c1 = unlimited.first(&classic::c1(), 0..=4, &mut NullRecorder);
        assert_eq!(c1, HorizonOutcome::Solvable(2));
        let r1 = unlimited.first(&classic::r1(), 0..=3, &mut NullRecorder);
        assert_eq!(r1, HorizonOutcome::UnsolvableWithin(3));
        // A tiny cumulative budget dies mid-sweep and says where.
        let out = check(Budget::states(40)).first(&classic::r1(), 0..=6, &mut NullRecorder);
        let HorizonOutcome::BudgetExhausted {
            at_horizon,
            horizon_reached,
            frontier_size,
        } = out
        else {
            panic!("expected BudgetExhausted, got {out:?}");
        };
        assert_eq!(at_horizon, horizon_reached + 1);
        assert!(at_horizon <= 6);
        assert!(frontier_size > 0);
    }

    #[test]
    fn sweep_expands_each_round_once_under_one_cumulative_budget() {
        // R1 is unsolvable everywhere, so the sweep runs until the budget
        // stops it; 2·(3^k − 1) cumulative states put the stop mid-range.
        let cap = 2_000;
        let mut rec = MemoryRecorder::new();
        let out = check(Budget::states(cap)).first(&classic::r1(), 0..=12, &mut rec);
        let HorizonOutcome::BudgetExhausted {
            horizon_reached, ..
        } = out
        else {
            panic!("expected BudgetExhausted, got {out:?}");
        };
        let rounds = picked(&rec, |e| match e {
            TraceEvent::CheckerRound { round, .. } => Some(*round),
            _ => None,
        });
        assert_eq!(rounds, (1..=horizon_reached).collect::<Vec<_>>());
        let horizons = picked(&rec, |e| match e {
            TraceEvent::Horizon { horizon, .. } => Some(*horizon),
            _ => None,
        });
        assert_eq!(horizons, (0..=horizon_reached).collect::<Vec<_>>());
        // The cap binds the whole sweep, overshooting by at most the round
        // that tipped it.
        let exhausted = picked(&rec, |e| match e {
            TraceEvent::BudgetExhausted {
                frontier, states, ..
            } => Some((*frontier, *states)),
            _ => None,
        });
        let [(frontier, states)] = exhausted[..] else {
            panic!("one budget_exhausted event, got {exhausted:?}");
        };
        assert!(states > cap && states <= cap + frontier, "{states}");
        // A single check at the top of the range stops at the same depth.
        assert_eq!(
            check(Budget::states(cap)).at(&classic::r1(), 12, &mut NullRecorder),
            CheckResult::BudgetExhausted {
                horizon_reached,
                frontier_size: frontier,
            }
        );
    }

    #[test]
    fn sweep_decides_only_its_range() {
        let unlimited = check(Budget::UNLIMITED);
        let mut rec = MemoryRecorder::new();
        let out = unlimited.first(&classic::total_budget(2), 2..=4, &mut rec);
        assert_eq!(out, HorizonOutcome::Solvable(3));
        let horizons = picked(&rec, |e| match e {
            TraceEvent::Horizon {
                horizon, solvable, ..
            } => Some((*horizon, *solvable)),
            _ => None,
        });
        assert_eq!(horizons, [(2, false), (3, true)]);
        // An empty range decides nothing.
        let none = unlimited.first(&classic::s0(), RangeInclusive::new(3, 2), &mut NullRecorder);
        assert_eq!(none, HorizonOutcome::UnsolvableWithin(2));
        // A scheme with no prefix at all is vacuously solvable at once.
        let empty = ClassicScheme::AvoidPrefix(Word::empty());
        let vacuous = unlimited.first(&empty, 2..=4, &mut NullRecorder);
        assert_eq!(vacuous, HorizonOutcome::Solvable(2));
    }

    #[test]
    fn exhaustion_emits_budget_exhausted_event() {
        let mut rec = MemoryRecorder::new();
        let r = check(Budget::states(50)).at(&classic::r1(), 6, &mut rec);
        let CheckResult::BudgetExhausted {
            horizon_reached,
            frontier_size,
        } = r
        else {
            panic!("expected BudgetExhausted");
        };
        let events = picked(&rec, |e| match e {
            TraceEvent::BudgetExhausted {
                horizon,
                frontier,
                states,
            } => Some((*horizon, *frontier, *states)),
            _ => None,
        });
        assert_eq!(events.len(), 1);
        let (horizon, frontier, states) = events[0];
        assert_eq!(horizon, horizon_reached);
        assert_eq!(frontier, frontier_size);
        assert!(frontier <= states, "trace_lint invariant");
    }

    #[test]
    fn checker_emits_bracketed_spans_per_round() {
        let k = 3;
        let mut rec = MemoryRecorder::new();
        check(Budget::UNLIMITED).at(&classic::c1(), k, &mut rec);

        let mut stack: Vec<u64> = Vec::new();
        let mut seen_ids = std::collections::BTreeSet::new();
        let mut names = Vec::new();
        for event in rec.events() {
            match event {
                TraceEvent::SpanStart { span_id, name, .. } => {
                    assert!(seen_ids.insert(*span_id), "span ids must be unique");
                    stack.push(*span_id);
                    names.push(name.to_string());
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
        let mut rec = MemoryRecorder::new();
        check(Budget::UNLIMITED).at(&classic::r1(), 8, &mut rec);

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
        let observed = picked(&rec, |event| match event {
            TraceEvent::CheckerProgress {
                round,
                frontier,
                states,
            } => Some((*round, *frontier, *states)),
            _ => None,
        });
        assert_eq!(observed, expected);
        assert!(
            !observed.is_empty(),
            "an 8-round sweep must cross the progress stride at least once"
        );
    }

    use minobs_core::scheme::OmissionScheme;
    use minobs_core::word::Word;
}
