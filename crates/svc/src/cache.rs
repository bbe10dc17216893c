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

use minobs_obs::{Counter, MetricsRegistry};
use minobs_synth::cache::{CacheAnswer, HorizonVerdicts};
use serde_json::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

const SHARDS: usize = 16;

#[derive(Default)]
struct Entry {
    verdicts: HorizonVerdicts,
    theorem: Option<Value>,
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
        // FNV-1a; the std hasher is randomized per-process, which is fine
        // too, but a fixed hash keeps shard assignment reproducible.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in key.bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.shards[(h as usize) % SHARDS]
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

    /// Records a definite horizon verdict for `key`.
    pub fn record_horizon(&self, key: &str, k: usize, solvable: bool) {
        self.shard(key)
            .entry(key.to_string())
            .or_default()
            .verdicts
            .record(k, solvable);
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

    /// Memoises a Theorem III.8 result for `key`.
    pub fn record_theorem(&self, key: &str, result: Value) {
        self.shard(key).entry(key.to_string()).or_default().theorem = Some(result);
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

    #[test]
    fn dispositions_feed_the_counters() {
        let registry = MetricsRegistry::new();
        let cache = VerdictCache::new(&registry);
        assert!(cache.lookup_horizon("classic:s1|gamma", 2).is_none());
        cache.record_horizon("classic:s1|gamma", 2, true);
        assert!(matches!(
            cache.lookup_horizon("classic:s1|gamma", 2),
            Some(CacheAnswer::Exact { solvable: true })
        ));
        assert!(matches!(
            cache.lookup_horizon("classic:s1|gamma", 7),
            Some(CacheAnswer::Subsumed { solvable: true, proven_at: 2 })
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
        cache.record_theorem("classic:r1|gamma", Value::from(false));
        assert_eq!(
            cache.lookup_theorem("classic:r1|gamma"),
            Some(Value::from(false))
        );
        assert_eq!(registry.counter("svc.cache_hits").get(), 1);
        assert_eq!(registry.counter("svc.cache_misses").get(), 1);
    }
}
