//! The sharded in-memory verdict cache.
//!
//! Keys are canonical scheme-and-alphabet serializations
//! ([`crate::spec::ParsedScheme::cache_key`]); values hold a monotone
//! [`HorizonVerdicts`] summary for `check_horizon`/`first_horizon`
//! queries plus the memoised Theorem III.8 verdict for `solvable`.
//! Sharding keeps lock hold times to a hash-map probe — workers never
//! hold a shard lock while the checker runs, so concurrent misses on the
//! same key may race to compute; both then record the same (definite,
//! order-independent) verdict.
//!
//! Every lookup feeds one of three registry counters: `svc.cache_hits`
//! (answered at the exact recorded horizon), `svc.cache_subsumptions`
//! (answered by monotonicity from a different horizon), or
//! `svc.cache_misses`. A `first_horizon` request is one lookup, counted
//! with its disposition through [`VerdictCache::count`].
//!
//! Records enter only through [`VerdictCache::admit`], which WAL replay,
//! gossip ingest and the method handlers share: it checks a
//! [`WalRecord`] against the entry and records it under one shard lock,
//! so two contradicting records for one key can never both land, and it
//! counts no lookup.

use crate::wal::WalRecord;
use minobs_obs::{Counter, MetricsRegistry};
use minobs_synth::cache::{CacheAnswer, HorizonVerdicts};
use serde_json::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of cache shards, also the gossip digest's shard count: 16
/// keeps the digest frame tiny while a single divergent key only
/// re-ships ~1/16th of the map.
pub(crate) const SHARDS: usize = 16;

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64-bit state.
pub(crate) fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64-bit hash. Shard assignment, gossip fingerprints and ring
/// placement all use it, so the wire format is pinned independently of
/// `std::hash` internals.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// The shard a canonical key lives in, here and in gossip digests.
pub(crate) fn shard_of(key: &str) -> usize {
    (fnv1a(key.as_bytes()) % SHARDS as u64) as usize
}

#[derive(Default)]
struct Entry {
    verdicts: HorizonVerdicts,
    theorem: Option<Value>,
}

/// What [`VerdictCache::admit`] did with one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The record added knowledge and is now recorded.
    New,
    /// The cache already implied the record; nothing changed.
    Known,
    /// The record contradicts an established bound or a different
    /// theorem memo; nothing changed.
    Contradicts,
}

/// A sharded map from canonical scheme keys to verdict summaries.
pub struct VerdictCache {
    shards: Vec<Mutex<HashMap<String, Entry>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    subsumptions: Arc<Counter>,
}

impl VerdictCache {
    /// An empty cache wired onto `registry`'s `svc.cache_*` counters.
    pub fn new(registry: &MetricsRegistry) -> VerdictCache {
        VerdictCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: registry.counter("svc.cache_hits"),
            misses: registry.counter("svc.cache_misses"),
            subsumptions: registry.counter("svc.cache_subsumptions"),
        }
    }

    fn shard(&self, key: &str) -> MutexGuard<'_, HashMap<String, Entry>> {
        self.shards[shard_of(key)]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Answers a horizon-`k` query for `key`, counting the disposition.
    pub fn lookup_horizon(&self, key: &str, k: usize) -> Option<CacheAnswer> {
        let answer = self
            .shard(key)
            .get(key)
            .and_then(|entry| entry.verdicts.lookup(k));
        match answer {
            Some(CacheAnswer::Exact { .. }) => self.hits.inc(),
            Some(CacheAnswer::Subsumed { .. }) => self.subsumptions.inc(),
            None => self.misses.inc(),
        }
        answer
    }

    /// The recorded horizon boundaries for `key`, empty when none. Counts
    /// nothing: the caller reports its disposition with
    /// [`VerdictCache::count`].
    pub fn horizon_verdicts(&self, key: &str) -> HorizonVerdicts {
        self.shard(key)
            .get(key)
            .map_or_else(HorizonVerdicts::new, |entry| entry.verdicts)
    }

    /// Counts one lookup by its disposition: `"hit"`, `"subsumed"`, or
    /// (anything else) a miss.
    pub fn count(&self, disposition: &str) {
        match disposition {
            "hit" => self.hits.inc(),
            "subsumed" => self.subsumptions.inc(),
            _ => self.misses.inc(),
        }
    }

    /// Checks `record` against `key`'s entry and records it, all under
    /// the key's shard lock. A horizon bound the entry already implies,
    /// or an equal theorem memo, is [`Admission::Known`]; a bound the
    /// entry refutes, or a different memo, is [`Admission::Contradicts`]
    /// and leaves the entry as it was. A snapshot is admitted whole or
    /// not at all.
    pub fn admit(&self, record: &WalRecord) -> Admission {
        let (bounds, theorem) = match record {
            WalRecord::Horizon { k, solvable, .. } => ([Some((*k, *solvable)), None], None),
            WalRecord::Theorem { result, .. } => ([None, None], Some(result)),
            WalRecord::Snapshot {
                verdicts, theorem, ..
            } => (
                [
                    verdicts.min_solvable().map(|k| (k, true)),
                    verdicts.max_unsolvable().map(|k| (k, false)),
                ],
                theorem.as_ref(),
            ),
        };
        let key = record.key();
        let mut shard = self.shard(key);
        let held = shard.get(key);
        let before = held.map_or_else(HorizonVerdicts::new, |entry| entry.verdicts);
        let mut verdicts = before;
        for (k, solvable) in bounds.into_iter().flatten() {
            match verdicts.lookup(k) {
                Some(answer) if answer.solvable() != solvable => return Admission::Contradicts,
                Some(_) => {}
                None => verdicts.record(k, solvable),
            }
        }
        let new_theorem = match (theorem, held.and_then(|entry| entry.theorem.as_ref())) {
            (Some(result), Some(memo)) if result != memo => return Admission::Contradicts,
            (Some(_), None) => true,
            _ => false,
        };
        if verdicts == before && !new_theorem {
            return Admission::Known;
        }
        let entry = shard.entry(key.to_string()).or_default();
        entry.verdicts = verdicts;
        if new_theorem {
            entry.theorem = theorem.cloned();
        }
        Admission::New
    }

    /// The memoised Theorem III.8 result for `key`, counting hit/miss.
    pub fn lookup_theorem(&self, key: &str) -> Option<Value> {
        let cached = self.shard(key).get(key).and_then(|e| e.theorem.clone());
        if cached.is_some() {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
        cached
    }

    /// Number of cached scheme keys across all shards.
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Every cached entry, sorted by key: the WAL compactor's source of
    /// truth, and the comparison form for restart-consistency tests.
    /// Shards are locked one at a time, so concurrent writers may land
    /// in or out of the snapshot — fine for both uses, since verdicts
    /// are immutable and only ever *added*.
    pub fn snapshot(&self) -> Vec<(String, HorizonVerdicts, Option<Value>)> {
        let mut entries: Vec<(String, HorizonVerdicts, Option<Value>)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .iter()
                    .map(|(key, entry)| (key.clone(), entry.verdicts, entry.theorem.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon(key: &str, k: usize, solvable: bool) -> WalRecord {
        WalRecord::Horizon {
            key: key.to_string(),
            k,
            solvable,
        }
    }

    fn theorem(key: &str, result: Value) -> WalRecord {
        WalRecord::Theorem {
            key: key.to_string(),
            result,
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn dispositions_feed_the_counters() {
        let registry = MetricsRegistry::new();
        let cache = VerdictCache::new(&registry);
        assert!(cache.lookup_horizon("classic:s1|gamma", 2).is_none());
        assert_eq!(
            cache.admit(&horizon("classic:s1|gamma", 2, true)),
            Admission::New
        );
        assert!(matches!(
            cache.lookup_horizon("classic:s1|gamma", 2),
            Some(CacheAnswer::Exact { solvable: true })
        ));
        assert!(matches!(
            cache.lookup_horizon("classic:s1|gamma", 7),
            Some(CacheAnswer::Subsumed {
                solvable: true,
                proven_at: 2
            })
        ));
        // Another key is independent.
        assert!(cache.lookup_horizon("classic:r1|gamma", 2).is_none());
        assert_eq!(registry.counter("svc.cache_hits").get(), 1);
        assert_eq!(registry.counter("svc.cache_subsumptions").get(), 1);
        assert_eq!(registry.counter("svc.cache_misses").get(), 2);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn theorem_verdicts_memoise() {
        let registry = MetricsRegistry::new();
        let cache = VerdictCache::new(&registry);
        assert!(cache.lookup_theorem("classic:r1|gamma").is_none());
        assert_eq!(
            cache.admit(&theorem("classic:r1|gamma", Value::from(false))),
            Admission::New
        );
        assert_eq!(
            cache.lookup_theorem("classic:r1|gamma"),
            Some(Value::from(false))
        );
        assert_eq!(registry.counter("svc.cache_hits").get(), 1);
        assert_eq!(registry.counter("svc.cache_misses").get(), 1);
    }

    #[test]
    fn admit_classifies_against_the_entry_and_counts_no_lookup() {
        let registry = MetricsRegistry::new();
        let cache = VerdictCache::new(&registry);
        let key = "classic:s1|gamma";
        assert_eq!(cache.admit(&horizon(key, 4, true)), Admission::New);
        assert_eq!(cache.admit(&horizon(key, 6, true)), Admission::Known);
        assert_eq!(cache.admit(&horizon(key, 4, true)), Admission::Known);
        assert_eq!(cache.admit(&horizon(key, 5, false)), Admission::Contradicts);
        assert_eq!(cache.admit(&horizon(key, 1, false)), Admission::New);
        assert_eq!(cache.admit(&horizon(key, 3, true)), Admission::New);
        let memo = |result: u64| theorem(key, Value::from(result));
        assert_eq!(cache.admit(&memo(1)), Admission::New);
        assert_eq!(cache.admit(&memo(1)), Admission::Known);
        assert_eq!(cache.admit(&memo(2)), Admission::Contradicts);

        // A snapshot lands whole or not at all.
        let snapshot = |min_solvable, max_unsolvable, theorem: Option<Value>| WalRecord::Snapshot {
            key: key.to_string(),
            verdicts: HorizonVerdicts::from_boundaries(min_solvable, max_unsolvable).unwrap(),
            theorem,
        };
        assert_eq!(
            cache.admit(&snapshot(Some(3), Some(1), Some(Value::from(1u64)))),
            Admission::Known
        );
        assert_eq!(
            cache.admit(&snapshot(Some(2), Some(0), Some(Value::from(2u64)))),
            Admission::Contradicts,
            "a tighter bound does not land beside a differing memo"
        );
        assert_eq!(
            cache.admit(&snapshot(Some(2), Some(1), None)),
            Admission::New
        );
        let verdicts = cache.horizon_verdicts(key);
        assert_eq!(verdicts.min_solvable(), Some(2));
        assert_eq!(verdicts.max_unsolvable(), Some(1));
        assert_eq!(cache.entries(), 1);
        for counter in ["hits", "subsumptions", "misses"] {
            let counter = format!("svc.cache_{counter}");
            assert_eq!(registry.counter(&counter).get(), 0, "{counter}");
        }
    }
}
