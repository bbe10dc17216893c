//! Monotone horizon-verdict caching for the bounded checker.
//!
//! Solvability at a fixed horizon is monotone in the horizon: a round-`k`
//! algorithm also decides (by ignoring later rounds' information) at any
//! `k' ≥ k`, because round-`k'` views refine round-`k` views and every
//! allowed `k`-prefix extends to an allowed `k'`-prefix within the same
//! scheme. Dually, unsolvability propagates downward: if no decision map
//! exists on round-`k` views, none exists on the coarser round-`k'` views
//! for `k' ≤ k`. (The vacuous [`crate::CheckResult::Empty`] verdict — no
//! allowed prefix of length `k` at all — is upward-monotone too, since
//! `Pref(L)` is prefix-closed.)
//!
//! [`HorizonVerdicts`] exploits this: it stores only the two boundary
//! horizons — the smallest known-solvable and the largest known-unsolvable
//! — and answers every query at or beyond a boundary by *subsumption*
//! instead of re-running the exponential full-information construction.
//! [`HorizonVerdicts::first_solvable_within`] narrows a horizon sweep to
//! the gap between the boundaries; the `minobs-svc` daemon shards many
//! `HorizonVerdicts` values behind canonical scheme keys.

use serde_json::{Map, Value};
use std::ops::RangeInclusive;

use crate::checker::HorizonOutcome;

/// The monotone verdict summary for one (scheme, alphabet) pair.
///
/// Invariant: when both boundaries are known,
/// `max_unsolvable < min_solvable` — anything else would contradict
/// horizon monotonicity and indicates the two verdicts came from
/// different schemes (a cache-key collision).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HorizonVerdicts {
    min_solvable: Option<usize>,
    max_unsolvable: Option<usize>,
}

/// How a cached lookup answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAnswer {
    /// The queried horizon is exactly a recorded boundary.
    Exact {
        /// The cached verdict.
        solvable: bool,
    },
    /// The queried horizon is answered by monotone subsumption from a
    /// boundary proved at a *different* horizon.
    Subsumed {
        /// The inferred verdict.
        solvable: bool,
        /// The boundary horizon the verdict was actually proved at.
        proven_at: usize,
    },
}

impl CacheAnswer {
    /// The verdict, regardless of how it was derived.
    pub fn solvable(&self) -> bool {
        match *self {
            CacheAnswer::Exact { solvable } | CacheAnswer::Subsumed { solvable, .. } => solvable,
        }
    }
}

impl HorizonVerdicts {
    /// An empty summary: every lookup misses.
    pub fn new() -> HorizonVerdicts {
        HorizonVerdicts::default()
    }

    /// The smallest horizon known solvable, if any.
    pub fn min_solvable(&self) -> Option<usize> {
        self.min_solvable
    }

    /// The largest horizon known unsolvable, if any.
    pub fn max_unsolvable(&self) -> Option<usize> {
        self.max_unsolvable
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.min_solvable.is_none() && self.max_unsolvable.is_none()
    }

    /// Records a definite verdict for horizon `k`, tightening the
    /// matching boundary. Only definite verdicts may be recorded —
    /// budget-exhausted partial answers must not reach here.
    ///
    /// # Panics
    /// In debug builds, when the new verdict contradicts monotonicity
    /// (recording `solvable@k` with `k ≤ max_unsolvable`, or vice versa)
    /// — the caller mixed verdicts from different schemes.
    pub fn record(&mut self, k: usize, solvable: bool) {
        if solvable {
            debug_assert!(
                self.max_unsolvable.is_none_or(|m| m < k),
                "solvable@{k} contradicts unsolvable@{:?}",
                self.max_unsolvable
            );
            if self.min_solvable.is_none_or(|m| k < m) {
                self.min_solvable = Some(k);
            }
        } else {
            debug_assert!(
                self.min_solvable.is_none_or(|m| k < m),
                "unsolvable@{k} contradicts solvable@{:?}",
                self.min_solvable
            );
            if self.max_unsolvable.is_none_or(|m| k > m) {
                self.max_unsolvable = Some(k);
            }
        }
    }

    /// Reassembles a summary from its two boundaries, e.g. parsed back
    /// out of a persisted record. `None` when the pair contradicts
    /// monotonicity (`max_unsolvable >= min_solvable`) — a corrupt or
    /// cross-scheme record must be rejected, not recorded.
    pub fn from_boundaries(
        min_solvable: Option<usize>,
        max_unsolvable: Option<usize>,
    ) -> Option<HorizonVerdicts> {
        if let (Some(s), Some(u)) = (min_solvable, max_unsolvable) {
            if u >= s {
                return None;
            }
        }
        Some(HorizonVerdicts {
            min_solvable,
            max_unsolvable,
        })
    }

    /// The summary as a stable JSON object, the on-disk shape used by
    /// the `minobs-svc` write-ahead verdict log (`minobs/wal/v1`).
    pub fn to_json(&self) -> Value {
        let bound = |b: Option<usize>| b.map_or(Value::Null, |k| Value::from(k as u64));
        let mut map = Map::new();
        map.insert("min_solvable".to_string(), bound(self.min_solvable));
        map.insert("max_unsolvable".to_string(), bound(self.max_unsolvable));
        Value::Object(map)
    }

    /// Parses [`HorizonVerdicts::to_json`] output. `None` on a missing
    /// field, a non-integer boundary, or a monotonicity-violating pair.
    pub fn from_json(value: &Value) -> Option<HorizonVerdicts> {
        let bound = |name: &str| -> Option<Option<usize>> {
            match value.get(name)? {
                Value::Null => Some(None),
                v => Some(Some(usize::try_from(v.as_u64()?).ok()?)),
            }
        };
        HorizonVerdicts::from_boundaries(bound("min_solvable")?, bound("max_unsolvable")?)
    }

    /// Answers a horizon-`k` query from the recorded boundaries, or
    /// `None` when `k` lies in the unknown gap between them.
    pub fn lookup(&self, k: usize) -> Option<CacheAnswer> {
        if let Some(m) = self.min_solvable {
            if k >= m {
                return Some(if k == m {
                    CacheAnswer::Exact { solvable: true }
                } else {
                    CacheAnswer::Subsumed {
                        solvable: true,
                        proven_at: m,
                    }
                });
            }
        }
        if let Some(m) = self.max_unsolvable {
            if k <= m {
                return Some(if k == m {
                    CacheAnswer::Exact { solvable: false }
                } else {
                    CacheAnswer::Subsumed {
                        solvable: false,
                        proven_at: m,
                    }
                });
            }
        }
        None
    }

    /// The first solvable horizon in `0..=max_k`, answered from the
    /// boundaries where they reach. `sweep` runs at most once, on the
    /// non-empty gap of horizons they cannot answer (in practice a
    /// [`crate::Check::first`]), and what it decides tightens the
    /// boundaries — at most one of each, however many horizons it
    /// decided.
    pub fn first_solvable_within(
        &mut self,
        max_k: usize,
        sweep: impl FnOnce(RangeInclusive<usize>) -> HorizonOutcome,
    ) -> HorizonOutcome {
        let from = self.max_unsolvable.map_or(0, |m| m + 1);
        // A solvable boundary within range caps the answer from above.
        let ceiling = self.min_solvable.filter(|&m| m <= max_k);
        let end = ceiling.unwrap_or(max_k + 1);
        let swept = (from < end).then(|| sweep(from..=end - 1));
        match swept {
            Some(HorizonOutcome::Solvable(k)) => {
                if k > from {
                    self.record(k - 1, false);
                }
                self.record(k, true);
            }
            Some(HorizonOutcome::UnsolvableWithin(to)) => self.record(to, false),
            Some(HorizonOutcome::BudgetExhausted { at_horizon, .. }) if at_horizon > from => {
                self.record(at_horizon - 1, false)
            }
            _ => {}
        }
        match swept {
            None | Some(HorizonOutcome::UnsolvableWithin(_)) => ceiling.map_or(
                HorizonOutcome::UnsolvableWithin(max_k),
                HorizonOutcome::Solvable,
            ),
            Some(outcome) => outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{solvable_by, Budget, Check, CheckResult};
    use minobs_core::prelude::*;
    use minobs_obs::NullRecorder;

    const GAMMA: &[Letter] = &[Letter::Full, Letter::DropWhite, Letter::DropBlack];

    fn check(budget: Budget) -> Check<'static> {
        Check {
            alphabet: GAMMA,
            budget,
        }
    }

    /// A horizon-`k` query through `cache`, as the daemon's
    /// `check_horizon` runs it: a boundary answers, otherwise the checker
    /// runs and its definite verdict is recorded.
    fn cached_at(
        cache: &mut HorizonVerdicts,
        scheme: &dyn OmissionScheme,
        k: usize,
        budget: Budget,
    ) -> Result<CacheAnswer, CheckResult> {
        if let Some(answer) = cache.lookup(k) {
            return Ok(answer);
        }
        let result = check(budget).at(scheme, k, &mut NullRecorder);
        if !matches!(result, CheckResult::BudgetExhausted { .. }) {
            cache.record(k, result.is_solvable());
        }
        Err(result)
    }

    /// The verdict of [`cached_at`], when there is one.
    fn verdict(answer: &Result<CacheAnswer, CheckResult>) -> Option<bool> {
        match answer {
            Ok(cached) => Some(cached.solvable()),
            Err(CheckResult::BudgetExhausted { .. }) => None,
            Err(fresh) => Some(fresh.is_solvable()),
        }
    }

    /// A `first_horizon` query through `cache`, as the daemon runs it:
    /// the outcome, and the range the checker swept, if it ran.
    fn cached_first(
        cache: &mut HorizonVerdicts,
        scheme: &dyn OmissionScheme,
        max_k: usize,
        budget: Budget,
    ) -> (HorizonOutcome, Option<RangeInclusive<usize>>) {
        let mut swept = None;
        let outcome = cache.first_solvable_within(max_k, |horizons| {
            swept = Some(horizons.clone());
            check(budget).first(scheme, horizons, &mut NullRecorder)
        });
        (outcome, swept)
    }

    #[test]
    fn boundaries_tighten_and_subsume() {
        let mut cache = HorizonVerdicts::new();
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(3), None);

        cache.record(2, false);
        cache.record(5, true);
        cache.record(7, true); // looser than 5: ignored
        cache.record(1, false); // looser than 2: ignored
        assert_eq!(cache.min_solvable(), Some(5));
        assert_eq!(cache.max_unsolvable(), Some(2));

        assert_eq!(cache.lookup(5), Some(CacheAnswer::Exact { solvable: true }));
        assert_eq!(
            cache.lookup(9),
            Some(CacheAnswer::Subsumed {
                solvable: true,
                proven_at: 5
            })
        );
        assert_eq!(
            cache.lookup(2),
            Some(CacheAnswer::Exact { solvable: false })
        );
        assert_eq!(
            cache.lookup(0),
            Some(CacheAnswer::Subsumed {
                solvable: false,
                proven_at: 2
            })
        );
        // The gap stays unknown.
        assert_eq!(cache.lookup(3), None);
        assert_eq!(cache.lookup(4), None);
    }

    #[test]
    fn json_round_trips_and_rejects_contradictions() {
        let mut cache = HorizonVerdicts::new();
        assert_eq!(HorizonVerdicts::from_json(&cache.to_json()), Some(cache));
        cache.record(2, false);
        assert_eq!(HorizonVerdicts::from_json(&cache.to_json()), Some(cache));
        cache.record(5, true);
        let json = cache.to_json();
        assert_eq!(json.get("min_solvable").and_then(Value::as_u64), Some(5));
        assert_eq!(json.get("max_unsolvable").and_then(Value::as_u64), Some(2));
        assert_eq!(HorizonVerdicts::from_json(&json), Some(cache));

        // A record whose boundaries contradict monotonicity is refused.
        let bad: Value = serde_json::from_str(r#"{"min_solvable":2,"max_unsolvable":4}"#).unwrap();
        assert_eq!(HorizonVerdicts::from_json(&bad), None);
        assert_eq!(HorizonVerdicts::from_json(&Value::Null), None);
        let partial: Value = serde_json::from_str(r#"{"min_solvable":2}"#).unwrap();
        assert_eq!(HorizonVerdicts::from_json(&partial), None);
    }

    #[test]
    fn cached_check_matches_direct_on_s1() {
        // S1 first becomes solvable at horizon 2.
        let scheme = classic::s1();
        let mut cache = HorizonVerdicts::new();
        for k in [0usize, 1, 2, 3, 4] {
            let direct = solvable_by(&scheme, k, GAMMA).is_solvable();
            let cached = cached_at(&mut cache, &scheme, k, Budget::UNLIMITED);
            assert_eq!(verdict(&cached), Some(direct), "horizon {k}");
        }
        // A second pass answers everything from the two boundaries.
        for k in [0usize, 1, 2, 3, 4] {
            let cached = cached_at(&mut cache, &scheme, k, Budget::UNLIMITED);
            assert!(cached.is_ok(), "horizon {k}");
        }
        assert_eq!(cache.min_solvable(), Some(2));
        assert_eq!(cache.max_unsolvable(), Some(1));
    }

    #[test]
    fn budget_exhaustion_is_never_recorded() {
        let mut cache = HorizonVerdicts::new();
        let result = cached_at(&mut cache, &classic::r1(), 6, Budget::states(2));
        assert!(matches!(result, Err(CheckResult::BudgetExhausted { .. })));
        assert!(cache.is_empty());
        // An exhausted sweep keeps only the horizons it decided: here 0.
        let (out, _) = cached_first(&mut cache, &classic::r1(), 6, Budget::states(2));
        assert!(matches!(
            out,
            HorizonOutcome::BudgetExhausted { at_horizon: 1, .. }
        ));
        assert_eq!(
            (cache.max_unsolvable(), cache.min_solvable()),
            (Some(0), None)
        );
    }

    #[test]
    fn cached_sweep_agrees_with_uncached() {
        let (s1, r1) = (classic::s1(), classic::r1());
        let mut cache = HorizonVerdicts::new();
        let cold = cached_first(&mut cache, &s1, 5, Budget::UNLIMITED);
        assert_eq!(cold, (HorizonOutcome::Solvable(2), Some(0..=5)));
        assert_eq!(
            (cache.max_unsolvable(), cache.min_solvable()),
            (Some(1), Some(2))
        );
        // Warm: the boundaries answer without any checker run; the ceiling
        // short-circuits even when the sweep range is empty.
        let warm = cached_first(&mut cache, &s1, 5, Budget::states(1));
        assert_eq!(warm, (HorizonOutcome::Solvable(2), None));

        let mut cache = HorizonVerdicts::new();
        let unsolvable = cached_first(&mut cache, &r1, 3, Budget::UNLIMITED);
        assert_eq!(
            unsolvable,
            (HorizonOutcome::UnsolvableWithin(3), Some(0..=3))
        );
        assert_eq!(cache.max_unsolvable(), Some(3));
        // A narrower request is answered by the recorded boundary; a
        // wider one sweeps only the horizons above it.
        let narrow = cached_first(&mut cache, &r1, 2, Budget::UNLIMITED);
        assert_eq!(narrow, (HorizonOutcome::UnsolvableWithin(2), None));
        let wide = cached_first(&mut cache, &r1, 4, Budget::UNLIMITED);
        assert_eq!(wide, (HorizonOutcome::UnsolvableWithin(4), Some(4..=4)));
    }

    #[test]
    fn sweep_runs_only_on_the_gap_between_boundaries() {
        // B_2 is solvable from horizon 3 on.
        let mut cache = HorizonVerdicts::new();
        cache.record(0, false);
        cache.record(4, true);
        let gap = cached_first(&mut cache, &classic::total_budget(2), 6, Budget::UNLIMITED);
        assert_eq!(gap, (HorizonOutcome::Solvable(3), Some(1..=3)));
        assert_eq!(
            (cache.max_unsolvable(), cache.min_solvable()),
            (Some(2), Some(3))
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn scheme_pool() -> Vec<ClassicScheme> {
            vec![
                classic::s0(),
                classic::t_white(),
                classic::c1(),
                classic::s1(),
                classic::r1(),
                classic::s2(),
                classic::fair_gamma(),
                classic::almost_fair(),
                classic::total_budget(2),
                ClassicScheme::AvoidPrefix("-w".parse().unwrap()),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Subsumption soundness: querying horizons in any order
            /// through one warm cache must agree with the direct checker
            /// at every horizon — a cached or subsumed answer is never
            /// allowed to differ from recomputation.
            #[test]
            fn prop_subsumption_never_contradicts_direct(
                scheme_pick in 0usize..10,
                horizons in proptest::collection::vec(0usize..5, 1..8),
            ) {
                let scheme = &scheme_pool()[scheme_pick];
                let mut cache = HorizonVerdicts::new();
                for &k in &horizons {
                    let direct = solvable_by(scheme, k, GAMMA).is_solvable();
                    let cached = cached_at(&mut cache, scheme, k, Budget::UNLIMITED);
                    prop_assert_eq!(
                        verdict(&cached),
                        Some(direct),
                        "scheme {} horizon {}",
                        scheme.name(),
                        k
                    );
                }
            }
        }
    }
}
