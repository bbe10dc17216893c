//! Checker-side tallies for traced runs: the checker's own spans and
//! `checker_round`/`horizon` events, delivered to a benchmark-owned
//! `MemoryRecorder`, plus a wrapper that counts and times the viability
//! queries the checker makes.

use crate::put;
use minobs_core::prelude::*;
use minobs_obs::TraceEvent;
use serde_json::Map;
use std::cell::Cell;
use std::time::Instant;

/// An `OmissionScheme` that counts and times `allows_prefix`, the
/// checker's viability query (an ω-automaton emptiness test for regular
/// schemes).
pub struct Counted<'a> {
    inner: &'a dyn OmissionScheme,
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl<'a> Counted<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn OmissionScheme) -> Counted<'a> {
        Counted {
            inner,
            calls: Cell::new(0),
            nanos: Cell::new(0),
        }
    }
}

impl OmissionScheme for Counted<'_> {
    fn contains(&self, w: &Scenario) -> bool {
        self.inner.contains(w)
    }

    fn allows_prefix(&self, u: &Word) -> bool {
        let started = Instant::now();
        let allowed = self.inner.allows_prefix(u);
        self.nanos
            .set(self.nanos.get() + started.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        allowed
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Checker work summed over a traced run.
#[derive(Default)]
pub struct CheckerTally {
    expand_ns: u64,
    dedup_ns: u64,
    decide_ns: u64,
    viability_ns: u64,
    viability_calls: u64,
    states: u64,
    distinct_views: u64,
    peak_frontier: u64,
    horizons: u64,
}

impl CheckerTally {
    /// Folds in one instrumented call: the checker's spans and
    /// `checker_round`/`horizon` events from its recorder, and the
    /// wrapper's viability counts. Each call is one horizon check.
    pub fn absorb(&mut self, events: &[TraceEvent], counted: &Counted) {
        let mut views = 0u64;
        for event in events {
            match event {
                TraceEvent::SpanEnd { name, nanos, .. } => match name.as_str() {
                    "checker_expand" => self.expand_ns += nanos,
                    "checker_dedup" => self.dedup_ns += nanos,
                    "checker_decide" => self.decide_ns += nanos,
                    _ => {}
                },
                TraceEvent::CheckerRound {
                    frontier,
                    views: arena,
                    ..
                } => {
                    self.states += *frontier as u64;
                    self.peak_frontier = self.peak_frontier.max(*frontier as u64);
                    views = *arena as u64;
                }
                _ => {}
            }
        }
        self.horizons += 1;
        self.distinct_views += views;
        self.viability_ns += counted.nanos.get();
        self.viability_calls += counted.calls.get();
    }

    /// Writes the `checker.*` and `omega.*` metrics, per replayed
    /// request. Viability runs inside `checker_expand`, so it is that
    /// span's child and leaves its self time.
    pub fn put(&self, metrics: &mut Map, units: u64) {
        let per = |v: u64| v as f64 / units.max(1) as f64;
        let ms = |ns: u64| per(ns) / 1e6;
        put(
            metrics,
            "checker.expand_self_ms",
            ms(self.expand_ns.saturating_sub(self.viability_ns)),
        );
        put(metrics, "checker.dedup_self_ms", ms(self.dedup_ns));
        put(metrics, "checker.decide_self_ms", ms(self.decide_ns));
        put(metrics, "checker.states", per(self.states));
        put(metrics, "checker.distinct_views", per(self.distinct_views));
        put(
            metrics,
            "checker.dedup_ratio",
            self.distinct_views as f64 / self.states.max(1) as f64,
        );
        put(metrics, "checker.peak_frontier", self.peak_frontier as f64);
        put(metrics, "checker.horizons_run", per(self.horizons));
        put(
            metrics,
            "checker.viability_calls",
            per(self.viability_calls),
        );
        put(metrics, "omega.viability_ms", ms(self.viability_ns));
    }
}
