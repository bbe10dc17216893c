//! Atomic metrics: counters, gauges, and fixed-bucket histograms.
//!
//! All instruments are lock-free (`AtomicU64` with relaxed ordering —
//! metrics need totals, not synchronisation). The registry itself uses a
//! mutex only on the cold get-or-create path; engines resolve their
//! instruments once up front and update handles on the hot path.

use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::TraceEvent;
use crate::recorder::Recorder;

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can be set, or ratcheted to a maximum.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger.
    #[inline]
    pub fn ratchet_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations.
///
/// Buckets are cumulative-style upper bounds: an observation lands in the
/// first bucket whose bound is `>= value`, or in the implicit overflow
/// bucket. Bounds are fixed at construction — no allocation or locking on
/// `observe`.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Per-bucket exemplars: the most recent `(trace_id, value)` whose
    /// observation landed in that bucket (overflow bucket last). Fed only
    /// by the explicit [`Histogram::record_exemplar`] call, so `observe`
    /// on the hot path stays lock-free.
    exemplars: Mutex<Vec<Option<(u128, u64)>>>,
}

impl Histogram {
    /// A histogram with the given ascending upper bounds (plus an implicit
    /// overflow bucket).
    pub fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            exemplars: Mutex::new(vec![None; bounds.len() + 1]),
        }
    }

    /// Upper bounds suited to round/horizon latencies, 1µs .. 10s.
    pub fn latency_bounds() -> Vec<u64> {
        // Powers of ten in nanoseconds with 1-2-5 subdivisions, capped
        // at the documented 10 s upper bound. The 1-2-5 ladder keeps the
        // worst-case quantile error at 2.5× instead of the 3.33× a 1-3
        // ladder allows — tight enough that p95/p99 stop collapsing onto
        // the same bucket under service-shaped latency distributions.
        const MAX_BOUND: u64 = 10_000_000_000;
        let mut bounds = Vec::new();
        let mut decade: u64 = 1_000;
        while decade <= MAX_BOUND {
            bounds.push(decade);
            for step in [2u64, 5] {
                let bound = decade.saturating_mul(step);
                if bound <= MAX_BOUND {
                    bounds.push(bound);
                }
            }
            decade = decade.saturating_mul(10);
        }
        bounds
    }

    /// Upper bounds suited to frontier/queue sizes, 1 .. 10^7.
    pub fn size_bounds() -> Vec<u64> {
        let mut bounds = Vec::new();
        let mut decade: u64 = 1;
        while decade <= 10_000_000 {
            bounds.push(decade);
            bounds.push(decade * 3);
            decade *= 10;
        }
        bounds
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let index = self.bounds.partition_point(|&bound| bound < value);
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Attaches `trace_id` as the exemplar of the bucket `value` lands
    /// in, overwriting that bucket's previous exemplar. Callers that can
    /// name the trace behind an observation call this *alongside*
    /// [`Histogram::observe`]; the counts themselves are untouched.
    pub fn record_exemplar(&self, value: u64, trace_id: u128) {
        let index = self.bounds.partition_point(|&bound| bound < value);
        let mut exemplars = self.exemplars.lock().unwrap_or_else(|e| e.into_inner());
        exemplars[index] = Some((trace_id, value));
    }

    /// Per-bucket exemplars (overflow bucket last): the most recent
    /// `(trace_id, value)` recorded into each bucket, if any.
    pub fn exemplars(&self) -> Vec<Option<(u128, u64)>> {
        self.exemplars
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The exemplar of the highest bucket holding one — the trace id of
    /// the slowest observation anyone bothered to exemplify, which is
    /// the one an investigation wants first.
    pub fn slowest_exemplar(&self) -> Option<(u128, u64)> {
        self.exemplars
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .rev()
            .find_map(|slot| *slot)
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The configured upper bounds (the overflow bucket is implicit).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Folds another histogram's observations into this one. The two
    /// histograms must share identical bounds — multi-thread drivers give
    /// each thread its own instrument and merge at the end, so the merged
    /// quantiles have exactly the same semantics as a single shared
    /// histogram would (bucket counts are additive).
    pub fn merge_from(&self, other: &Histogram) -> Result<(), String> {
        if self.bounds != other.bounds {
            return Err(format!(
                "histogram bounds differ: {} vs {} buckets",
                self.bounds.len(),
                other.bounds.len()
            ));
        }
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        Ok(())
    }

    /// Estimates the `q`-quantile (`q` in `0.0..=1.0`, clamped) by linear
    /// interpolation inside the bucket where the cumulative count crosses
    /// `q * count` — the same estimate Prometheus's `histogram_quantile`
    /// computes. Quantiles landing in the overflow bucket report the
    /// highest finite bound. Returns `None` for an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * total as f64;
        let highest_finite = || match self.bounds.last() {
            Some(&bound) => bound as f64,
            // Degenerate no-bounds histogram: the mean is all we have.
            None => self.sum() as f64 / total as f64,
        };
        let mut cumulative = 0u64;
        for (index, &bucket) in counts.iter().enumerate() {
            let before = cumulative;
            cumulative += bucket;
            if bucket == 0 || (cumulative as f64) < target {
                continue;
            }
            if index == self.bounds.len() {
                return Some(highest_finite());
            }
            let lower = if index == 0 {
                0.0
            } else {
                self.bounds[index - 1] as f64
            };
            let upper = self.bounds[index] as f64;
            let fraction = ((target - before as f64) / bucket as f64).clamp(0.0, 1.0);
            return Some(lower + fraction * (upper - lower));
        }
        Some(highest_finite())
    }

    fn snapshot(&self) -> Value {
        let mut map = Map::new();
        map.insert("count".to_string(), Value::from(self.count()));
        map.insert("sum".to_string(), Value::from(self.sum()));
        map.insert("bounds".to_string(), Value::from(self.bounds.clone()));
        map.insert("buckets".to_string(), Value::from(self.bucket_counts()));
        Value::Object(map)
    }

    /// Rebuilds a histogram from its snapshot JSON (`{count, sum,
    /// bounds, buckets}`, as emitted inside `MetricsRegistry::snapshot`).
    /// Returns `None` on any shape mismatch: missing fields, a bucket
    /// list that does not cover the bounds plus overflow, or
    /// non-ascending bounds. Fleet tooling uses this to pull per-node
    /// snapshots over RPC and fold them together with [`merge_from`]
    /// (same-bounds quantile semantics as one shared histogram).
    ///
    /// [`merge_from`]: Histogram::merge_from
    pub fn from_snapshot(value: &Value) -> Option<Histogram> {
        let list = |field: &str| -> Option<Vec<u64>> {
            value
                .get(field)?
                .as_array()?
                .iter()
                .map(Value::as_u64)
                .collect()
        };
        let bounds = list("bounds")?;
        let buckets = list("buckets")?;
        if buckets.len() != bounds.len() + 1 || !bounds.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        let histogram = Histogram::new(&bounds);
        for (slot, count) in histogram.buckets.iter().zip(&buckets) {
            slot.store(*count, Ordering::Relaxed);
        }
        histogram
            .count
            .store(value.get("count")?.as_u64()?, Ordering::Relaxed);
        histogram
            .sum
            .store(value.get("sum")?.as_u64()?, Ordering::Relaxed);
        Some(histogram)
    }
}

/// A named registry of counters, gauges, and histograms.
///
/// `counter`/`gauge`/`histogram` get-or-create and hand back `Arc`
/// handles; updating a handle never touches the registry lock.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::default()))
            .clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut gauges = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Gauge::default()))
            .clone()
    }

    /// The histogram named `name`, created on first use with `bounds`.
    /// Later calls return the existing instrument regardless of `bounds`.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new(bounds)))
            .clone()
    }

    /// Handles to every registered histogram, for quantile summaries.
    pub fn histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        self.histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, histogram)| (name.clone(), Arc::clone(histogram)))
            .collect()
    }

    /// Renders every instrument in the Prometheus text exposition format:
    /// `# HELP` / `# TYPE` headers, counters and gauges as single samples,
    /// histograms as cumulative `_bucket{le="..."}` series (ending in
    /// `+Inf`) plus `_sum` and `_count`. Metric names are sanitised to the
    /// Prometheus charset (`.` becomes `_`); the original registry name is
    /// kept in the `# HELP` line.
    ///
    /// Finite bucket lines carry their exemplar, when one was recorded,
    /// in the OpenMetrics syntax: `... # {trace_id="<32 hex>"} <value>`.
    /// The `+Inf` line never does — it stays machine-trivial to parse,
    /// and the overflow exemplar is reachable via `stats.latency`.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;

        fn sanitise(name: &str) -> String {
            name.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        }

        let mut out = String::new();
        for (name, counter) in self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            let id = sanitise(name);
            let _ = writeln!(out, "# HELP {id} minobs counter `{name}`");
            let _ = writeln!(out, "# TYPE {id} counter");
            let _ = writeln!(out, "{id} {}", counter.get());
        }
        for (name, gauge) in self.gauges.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let id = sanitise(name);
            let _ = writeln!(out, "# HELP {id} minobs gauge `{name}`");
            let _ = writeln!(out, "# TYPE {id} gauge");
            let _ = writeln!(out, "{id} {}", gauge.get());
        }
        for (name, histogram) in self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            let id = sanitise(name);
            let _ = writeln!(out, "# HELP {id} minobs histogram `{name}`");
            let _ = writeln!(out, "# TYPE {id} histogram");
            let counts = histogram.bucket_counts();
            let exemplars = histogram.exemplars();
            let mut cumulative = 0u64;
            for (index, (bound, count)) in histogram.bounds().iter().zip(&counts).enumerate() {
                cumulative += count;
                match exemplars.get(index).copied().flatten() {
                    Some((trace_id, value)) => {
                        let _ = writeln!(
                            out,
                            "{id}_bucket{{le=\"{bound}\"}} {cumulative} # {{trace_id=\"{trace_id:032x}\"}} {value}"
                        );
                    }
                    None => {
                        let _ = writeln!(out, "{id}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                }
            }
            cumulative += counts.last().copied().unwrap_or(0);
            let _ = writeln!(out, "{id}_bucket{{le=\"+Inf\"}} {cumulative}");
            let _ = writeln!(out, "{id}_sum {}", histogram.sum());
            let _ = writeln!(out, "{id}_count {cumulative}");
        }
        out
    }

    /// A point-in-time JSON snapshot of every instrument, keyed by name.
    pub fn snapshot(&self) -> Value {
        let mut root = Map::new();
        let mut counters = Map::new();
        for (name, counter) in self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            counters.insert(name.clone(), Value::from(counter.get()));
        }
        let mut gauges = Map::new();
        for (name, gauge) in self.gauges.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            gauges.insert(name.clone(), Value::from(gauge.get()));
        }
        let mut histograms = Map::new();
        for (name, histogram) in self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            histograms.insert(name.clone(), histogram.snapshot());
        }
        root.insert("counters".to_string(), Value::Object(counters));
        root.insert("gauges".to_string(), Value::Object(gauges));
        root.insert("histograms".to_string(), Value::Object(histograms));
        Value::Object(root)
    }
}

/// A [`Recorder`] that folds the event stream into a [`MetricsRegistry`].
///
/// Instrument handles are resolved once at construction; [`observe`]
/// only touches atomics. Metric names are stable:
///
/// | name | kind | fed by |
/// |------|------|--------|
/// | `engine.rounds` | counter | every `round_end` |
/// | `engine.messages_{sent,delivered,dropped,misaddressed}` | counter | `round_end` counts |
/// | `engine.decisions` | counter | every `decision` |
/// | `engine.round_latency_ns` | histogram | `round_end` nanos (when timed) |
/// | `engine.runs` | counter | every `run_end` |
/// | `checker.frontier_size` | histogram | every `checker_round` |
/// | `checker.views` | gauge (max) | every `checker_round` |
/// | `checker.round_latency_ns` | histogram | `checker_round` nanos (when timed) |
/// | `checker.horizons` | counter | every `horizon` |
/// | `checker.horizon_latency_ns` | histogram | `horizon` nanos (when timed) |
/// | `checker.states` | gauge (max) | every `checker_progress` (cumulative states) |
/// | `checker.heartbeats` | counter | every `checker_progress` |
/// | `span.{name}.duration_ns` | histogram | every timed `span_end`, per span name |
/// | `svc.requests` | counter | every `svc_request` |
/// | `svc.responses_{ok,err}` | counter | every `svc_response` by outcome |
/// | `svc.request_latency_ns` | histogram | `svc_response` nanos (when timed) |
/// | `svc.method.{method}.latency_ns` | histogram | timed `svc_response`, per method |
/// | `svc.wal_appends` | counter | every `wal_append` |
/// | `svc.wal_append_bytes` | counter | `wal_append` bytes |
/// | `svc.wal_replayed_records` | counter | `wal_replay` records |
/// | `svc.wal_degraded` | gauge | set to 1 by `wal_degraded` |
/// | `svc.gossip_rounds` | counter | every `gossip_round` |
/// | `svc.gossip_deltas_{sent,received}` | counter | `gossip_round` counts |
/// | `svc.gossip_applied` | counter | every accepted `gossip_apply` |
/// | `svc.gossip_rejected` | counter | every rejected `gossip_apply` |
/// | `svc.gossip_round_latency_ns` | histogram | `gossip_round` nanos (when timed) |
/// | `svc.gossip_peer_down` | counter | every `peer_down` |
///
/// The service's verdict cache feeds `svc.cache_{hits,misses,subsumptions}`
/// counters directly (not through the event stream) so the totals stay
/// exact even when several recorders share one registry. The daemon's
/// health/SLO plane likewise feeds `svc.slo_p99_violations` (counter:
/// timed responses over the configured p99 target) and `svc.ready`
/// (gauge: 1 while the node should receive traffic) directly.
///
/// [`observe`]: MetricsRecorder::observe
pub struct MetricsRecorder {
    registry: Arc<MetricsRegistry>,
    rounds: Arc<Counter>,
    sent: Arc<Counter>,
    delivered: Arc<Counter>,
    dropped: Arc<Counter>,
    misaddressed: Arc<Counter>,
    decisions: Arc<Counter>,
    runs: Arc<Counter>,
    round_latency: Arc<Histogram>,
    frontier_size: Arc<Histogram>,
    views: Arc<Gauge>,
    checker_round_latency: Arc<Histogram>,
    horizons: Arc<Counter>,
    horizon_latency: Arc<Histogram>,
    checker_states: Arc<Gauge>,
    checker_heartbeats: Arc<Counter>,
    svc_requests: Arc<Counter>,
    svc_responses_ok: Arc<Counter>,
    svc_responses_err: Arc<Counter>,
    svc_request_latency: Arc<Histogram>,
    wal_appends: Arc<Counter>,
    wal_append_bytes: Arc<Counter>,
    wal_replayed_records: Arc<Counter>,
    wal_degraded: Arc<Gauge>,
    gossip_rounds: Arc<Counter>,
    gossip_deltas_sent: Arc<Counter>,
    gossip_deltas_received: Arc<Counter>,
    gossip_applied: Arc<Counter>,
    gossip_rejected: Arc<Counter>,
    gossip_round_latency: Arc<Histogram>,
    gossip_peer_down: Arc<Counter>,
    /// Lazily created per-span-name and per-method histograms, cached so
    /// the hot path resolves each name through the registry lock once.
    span_latency: BTreeMap<String, Arc<Histogram>>,
    method_latency: BTreeMap<String, Arc<Histogram>>,
    latency_bounds: Vec<u64>,
}

impl MetricsRecorder {
    /// Wires a recorder onto `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> MetricsRecorder {
        let latency = Histogram::latency_bounds();
        let sizes = Histogram::size_bounds();
        MetricsRecorder {
            rounds: registry.counter("engine.rounds"),
            sent: registry.counter("engine.messages_sent"),
            delivered: registry.counter("engine.messages_delivered"),
            dropped: registry.counter("engine.messages_dropped"),
            misaddressed: registry.counter("engine.messages_misaddressed"),
            decisions: registry.counter("engine.decisions"),
            runs: registry.counter("engine.runs"),
            round_latency: registry.histogram("engine.round_latency_ns", &latency),
            frontier_size: registry.histogram("checker.frontier_size", &sizes),
            views: registry.gauge("checker.views"),
            checker_round_latency: registry.histogram("checker.round_latency_ns", &latency),
            horizons: registry.counter("checker.horizons"),
            horizon_latency: registry.histogram("checker.horizon_latency_ns", &latency),
            checker_states: registry.gauge("checker.states"),
            checker_heartbeats: registry.counter("checker.heartbeats"),
            svc_requests: registry.counter("svc.requests"),
            svc_responses_ok: registry.counter("svc.responses_ok"),
            svc_responses_err: registry.counter("svc.responses_err"),
            svc_request_latency: registry.histogram("svc.request_latency_ns", &latency),
            wal_appends: registry.counter("svc.wal_appends"),
            wal_append_bytes: registry.counter("svc.wal_append_bytes"),
            wal_replayed_records: registry.counter("svc.wal_replayed_records"),
            wal_degraded: registry.gauge("svc.wal_degraded"),
            gossip_rounds: registry.counter("svc.gossip_rounds"),
            gossip_deltas_sent: registry.counter("svc.gossip_deltas_sent"),
            gossip_deltas_received: registry.counter("svc.gossip_deltas_received"),
            gossip_applied: registry.counter("svc.gossip_applied"),
            gossip_rejected: registry.counter("svc.gossip_rejected"),
            gossip_round_latency: registry.histogram("svc.gossip_round_latency_ns", &latency),
            gossip_peer_down: registry.counter("svc.gossip_peer_down"),
            span_latency: BTreeMap::new(),
            method_latency: BTreeMap::new(),
            latency_bounds: latency,
            registry,
        }
    }

    /// The backing registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    fn span_histogram(&mut self, name: &str) -> Arc<Histogram> {
        if let Some(histogram) = self.span_latency.get(name) {
            return Arc::clone(histogram);
        }
        let histogram = self
            .registry
            .histogram(&format!("span.{name}.duration_ns"), &self.latency_bounds);
        self.span_latency
            .insert(name.to_string(), Arc::clone(&histogram));
        histogram
    }

    fn method_histogram(&mut self, method: &str) -> Arc<Histogram> {
        if let Some(histogram) = self.method_latency.get(method) {
            return Arc::clone(histogram);
        }
        let histogram = self.registry.histogram(
            &format!("svc.method.{method}.latency_ns"),
            &self.latency_bounds,
        );
        self.method_latency
            .insert(method.to_string(), Arc::clone(&histogram));
        histogram
    }
}

impl MetricsRecorder {
    /// Folds one event into the registry. Message totals come from the
    /// `round_end` counts (per-message events would double-count them),
    /// and spans only feed metrics on close, when the duration is known;
    /// variants not listed in the table above count nothing.
    pub fn observe(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Decision { .. } => self.decisions.inc(),
            TraceEvent::RoundEnd { counts, nanos, .. } => {
                self.rounds.inc();
                self.sent.add(counts.sent as u64);
                self.delivered.add(counts.delivered as u64);
                self.dropped.add(counts.dropped as u64);
                self.misaddressed.add(counts.misaddressed as u64);
                if *nanos > 0 {
                    self.round_latency.observe(*nanos);
                }
            }
            TraceEvent::SpanEnd { name, nanos, .. } => {
                if *nanos > 0 {
                    self.span_histogram(name.as_str()).observe(*nanos);
                }
            }
            TraceEvent::CheckerProgress { states, .. } => {
                self.checker_heartbeats.inc();
                self.checker_states.ratchet_max(*states as u64);
            }
            TraceEvent::CheckerRound {
                frontier,
                views,
                nanos,
                ..
            } => {
                self.frontier_size.observe(*frontier as u64);
                self.views.ratchet_max(*views as u64);
                if *nanos > 0 {
                    self.checker_round_latency.observe(*nanos);
                }
            }
            TraceEvent::Horizon { nanos, .. } => {
                self.horizons.inc();
                if *nanos > 0 {
                    self.horizon_latency.observe(*nanos);
                }
            }
            TraceEvent::RunEnd { .. } => self.runs.inc(),
            TraceEvent::SvcRequest { .. } => self.svc_requests.inc(),
            TraceEvent::SvcResponse {
                method, ok, nanos, ..
            } => {
                if *ok {
                    self.svc_responses_ok.inc();
                } else {
                    self.svc_responses_err.inc();
                }
                if *nanos > 0 {
                    self.svc_request_latency.observe(*nanos);
                    self.method_histogram(method.as_str()).observe(*nanos);
                }
            }
            TraceEvent::WalAppend { bytes, .. } => {
                self.wal_appends.inc();
                self.wal_append_bytes.add(*bytes);
            }
            TraceEvent::WalReplay { records, .. } => self.wal_replayed_records.add(*records),
            TraceEvent::WalDegraded { .. } => self.wal_degraded.set(1),
            TraceEvent::GossipRound {
                sent,
                received,
                nanos,
                ..
            } => {
                self.gossip_rounds.inc();
                self.gossip_deltas_sent.add(*sent);
                self.gossip_deltas_received.add(*received);
                if *nanos > 0 {
                    self.gossip_round_latency.observe(*nanos);
                }
            }
            TraceEvent::GossipApply { accepted, .. } => {
                if *accepted {
                    self.gossip_applied.inc();
                } else {
                    self.gossip_rejected.inc();
                }
            }
            TraceEvent::PeerDown { .. } => self.gossip_peer_down.inc(),
            TraceEvent::RunStart { .. }
            | TraceEvent::Message { .. }
            | TraceEvent::SpanStart { .. }
            | TraceEvent::BudgetExhausted { .. }
            | TraceEvent::Health { .. }
            | TraceEvent::FlightDump { .. } => {}
        }
    }
}

impl Recorder for MetricsRecorder {
    fn record(&mut self, event: TraceEvent) {
        self.observe(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RoundCounts;
    use crate::recorder::TeeRecorder;

    #[test]
    fn counters_and_gauges_accumulate() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(registry.counter("x").get(), 5);
        let g = registry.gauge("y");
        g.set(3);
        g.ratchet_max(10);
        g.ratchet_max(2);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn histogram_buckets_by_upper_bound() {
        let h = Histogram::new(&[10, 100]);
        h.observe(5); // -> bucket 0 (<= 10)
        h.observe(10); // -> bucket 0 (bound >= value)
        h.observe(50); // -> bucket 1
        h.observe(1000); // -> overflow
        assert_eq!(h.bucket_counts(), vec![2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1065);
    }

    #[test]
    fn merge_from_is_additive_per_bucket() {
        let a = Histogram::new(&[10, 100]);
        let b = Histogram::new(&[10, 100]);
        a.observe(5);
        a.observe(50);
        b.observe(7);
        b.observe(5_000);
        a.merge_from(&b).unwrap();
        assert_eq!(a.bucket_counts(), vec![2, 1, 1]);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 5_062);
        // Quantiles over the merged instrument behave as if one shared
        // histogram had seen every observation.
        assert_eq!(a.quantile(1.0), Some(100.0));
    }

    #[test]
    fn merge_from_rejects_mismatched_bounds() {
        let a = Histogram::new(&[10, 100]);
        let b = Histogram::new(&[10]);
        assert!(a.merge_from(&b).is_err());
    }

    #[test]
    fn metrics_recorder_folds_round_counts() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut recorder = MetricsRecorder::new(Arc::clone(&registry));
        recorder.observe(&TraceEvent::RoundEnd {
            round: 0,
            counts: RoundCounts {
                sent: 6,
                delivered: 5,
                dropped: 1,
                misaddressed: 2,
            },
            nanos: 1_500,
        });
        recorder.observe(&TraceEvent::RoundEnd {
            round: 1,
            counts: RoundCounts {
                sent: 2,
                delivered: 2,
                dropped: 0,
                misaddressed: 0,
            },
            nanos: 0,
        });
        recorder.observe(&TraceEvent::Decision {
            round: 1,
            node: 0,
            value: 1,
        });
        recorder.observe(&TraceEvent::RunEnd {
            rounds: 2,
            totals: RoundCounts::default(),
            nanos: 0,
        });
        assert_eq!(registry.counter("engine.rounds").get(), 2);
        assert_eq!(registry.counter("engine.messages_sent").get(), 8);
        assert_eq!(registry.counter("engine.messages_dropped").get(), 1);
        assert_eq!(registry.counter("engine.decisions").get(), 1);
        assert_eq!(registry.counter("engine.runs").get(), 1);
        // Untimed rounds (nanos == 0) stay out of the latency histogram.
        assert_eq!(
            registry.histogram("engine.round_latency_ns", &[]).count(),
            1
        );
    }

    #[test]
    fn latency_bounds_stay_inside_the_documented_range() {
        let bounds = Histogram::latency_bounds();
        assert_eq!(bounds.first().copied(), Some(1_000), "1µs lower bound");
        assert_eq!(
            bounds.last().copied(),
            Some(10_000_000_000),
            "10s upper bound — no 30s stray bucket"
        );
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn quantile_interpolates_within_the_crossing_bucket() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [5u64, 10, 20, 40, 60, 80, 500, 5000] {
            h.observe(v);
        }
        // 8 samples: per-bucket counts [2, 4, 1, 1], cumulative [2, 6, 7, 8].
        // q=0.5 -> target 4.0 crosses in bucket (10,100]: lower 10,
        // fraction (4-2)/4 = 0.5 -> 10 + 0.5*90 = 55.
        assert_eq!(h.quantile(0.5), Some(55.0));
        // q=0 lands at the lower edge of the first non-empty bucket.
        assert_eq!(h.quantile(0.0), Some(0.0));
        // q in the overflow bucket reports the highest finite bound.
        assert_eq!(h.quantile(1.0), Some(1000.0));
        // Out-of-range q clamps rather than panicking.
        assert_eq!(h.quantile(7.0), Some(1000.0));
        assert_eq!(h.quantile(-1.0), Some(0.0));
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Histogram::new(&[10]);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn from_snapshot_round_trips_and_merges() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [5u64, 20, 60, 500, 5000] {
            h.observe(v);
        }
        let rebuilt = Histogram::from_snapshot(&h.snapshot()).unwrap();
        assert_eq!(rebuilt.count(), h.count());
        assert_eq!(rebuilt.sum(), h.sum());
        assert_eq!(rebuilt.bucket_counts(), h.bucket_counts());
        assert_eq!(rebuilt.quantile(0.5), h.quantile(0.5));
        // Rebuilt histograms merge like live ones — the fleet-aggregate
        // path: per-node snapshots folded into one cluster histogram.
        let fleet = Histogram::new(&[10, 100, 1000]);
        fleet.merge_from(&rebuilt).unwrap();
        fleet.merge_from(&rebuilt).unwrap();
        assert_eq!(fleet.count(), 2 * h.count());

        // Shape mismatches read as None, not garbage.
        let mut bad = Map::new();
        bad.insert("count".to_string(), Value::from(1u64));
        assert!(Histogram::from_snapshot(&Value::Object(bad)).is_none());
        let mut snap = h.snapshot();
        if let Value::Object(map) = &mut snap {
            map.remove("buckets");
            map.insert("buckets".to_string(), Value::from(vec![1u64, 2]));
        }
        assert!(
            Histogram::from_snapshot(&snap).is_none(),
            "bucket list must cover bounds plus overflow"
        );
    }

    #[test]
    fn quantile_without_bounds_degenerates_to_the_mean() {
        let h = Histogram::new(&[]);
        h.observe(10);
        h.observe(30);
        assert_eq!(h.quantile(0.5), Some(20.0));
    }

    #[test]
    fn render_text_exposes_cumulative_buckets_summing_to_count() {
        let registry = MetricsRegistry::new();
        registry.counter("svc.requests").add(3);
        registry.gauge("checker.views").set(9);
        let h = registry.histogram("engine.round_latency_ns", &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(5000);

        let text = registry.render_text();
        assert!(text.contains("# TYPE svc_requests counter"));
        assert!(text.contains("svc_requests 3"));
        assert!(text.contains("# TYPE checker_views gauge"));
        assert!(text
            .contains("# HELP engine_round_latency_ns minobs histogram `engine.round_latency_ns`"));
        assert!(text.contains("# TYPE engine_round_latency_ns histogram"));
        assert!(text.contains("engine_round_latency_ns_bucket{le=\"10\"} 1"));
        assert!(text.contains("engine_round_latency_ns_bucket{le=\"100\"} 2"));
        assert!(text.contains("engine_round_latency_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("engine_round_latency_ns_sum 5055"));
        assert!(text.contains("engine_round_latency_ns_count 3"));

        // The +Inf bucket and _count agree with the histogram's count.
        let inf: u64 = text
            .lines()
            .find(|l| l.starts_with("engine_round_latency_ns_bucket{le=\"+Inf\"}"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap();
        assert_eq!(inf, h.count());
    }

    #[test]
    fn exemplars_surface_in_render_text_but_not_on_inf() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("svc.request_latency_ns", &[10, 100]);
        h.observe(50);
        h.record_exemplar(50, 0xabc);
        h.observe(5_000); // overflow observation, exemplified
        h.record_exemplar(5_000, 0xdef);

        let text = registry.render_text();
        assert!(
            text.contains(
                "svc_request_latency_ns_bucket{le=\"100\"} 1 # {trace_id=\"00000000000000000000000000000abc\"} 50"
            ),
            "{text}"
        );
        // The +Inf line stays bare even though the overflow bucket holds
        // an exemplar; it is still reachable programmatically.
        assert!(text.contains("svc_request_latency_ns_bucket{le=\"+Inf\"} 2\n"));
        assert_eq!(h.slowest_exemplar(), Some((0xdef, 5_000)));
        // A newer observation in the same bucket replaces the exemplar.
        h.record_exemplar(60, 0x123);
        assert_eq!(h.exemplars()[1], Some((0x123, 60)));
        // Exemplars never perturb the counts.
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn span_ends_feed_per_name_histograms() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut recorder = MetricsRecorder::new(Arc::clone(&registry));
        recorder.observe(&TraceEvent::SpanStart {
            round: 0,
            span_id: 0,
            parent: None,
            name: "net_send".into(),
            ctx: None,
        });
        let span_end = |round, span_id, name: &'static str, nanos| TraceEvent::SpanEnd {
            round,
            span_id,
            name: name.into(),
            nanos,
        };
        recorder.observe(&span_end(0, 0, "net_send", 1_500));
        recorder.observe(&span_end(1, 1, "net_send", 2_500));
        recorder.observe(&span_end(1, 2, "net_advance", 0)); // untimed: ignored
        assert_eq!(
            registry.histogram("span.net_send.duration_ns", &[]).count(),
            2
        );
        assert_eq!(
            registry
                .histogram("span.net_advance.duration_ns", &[])
                .count(),
            0
        );
    }

    #[test]
    fn svc_responses_feed_per_method_histograms() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut recorder = MetricsRecorder::new(Arc::clone(&registry));
        for (seq, method, cache, nanos) in [
            (0, "solvable", "miss", 800),
            (1, "solvable", "hit", 200),
            (2, "stats", "none", 100),
        ] {
            recorder.observe(&TraceEvent::SvcResponse {
                seq,
                method: method.into(),
                ok: true,
                cache,
                nanos,
            });
        }
        let solvable = registry.histogram("svc.method.solvable.latency_ns", &[]);
        assert_eq!(solvable.count(), 2);
        assert!(solvable.quantile(0.5).is_some());
        assert_eq!(
            registry
                .histogram("svc.method.stats.latency_ns", &[])
                .count(),
            1
        );
    }

    #[test]
    fn checker_progress_ratchets_cumulative_states() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut recorder = MetricsRecorder::new(Arc::clone(&registry));
        recorder.observe(&TraceEvent::CheckerProgress {
            round: 3,
            frontier: 128,
            states: 4_096,
        });
        recorder.observe(&TraceEvent::CheckerProgress {
            round: 5,
            frontier: 64,
            states: 8_192,
        });
        assert_eq!(registry.gauge("checker.states").get(), 8_192);
        assert_eq!(registry.counter("checker.heartbeats").get(), 2);
    }

    #[test]
    fn a_tee_feeds_metrics_through_record() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut tee = TeeRecorder::new(
            MetricsRecorder::new(Arc::clone(&registry)),
            crate::MemoryRecorder::new(),
        );
        tee.record(TraceEvent::GossipApply {
            peer: "127.0.0.1:7401".to_string(),
            op: "horizon",
            key: "classic:s1|gamma".to_string(),
            accepted: false,
        });
        tee.record(TraceEvent::PeerDown {
            peer: "127.0.0.1:7401".to_string(),
            failures: 3,
        });
        assert_eq!(registry.counter("svc.gossip_rejected").get(), 1);
        assert_eq!(registry.counter("svc.gossip_peer_down").get(), 1);
        assert_eq!(tee.into_inner().1.events().len(), 2);
    }

    #[test]
    fn gossip_and_wal_events_feed_their_instruments() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut metrics = MetricsRecorder::new(Arc::clone(&registry));
        metrics.observe(&TraceEvent::GossipRound {
            peer: "127.0.0.1:7401".to_string(),
            sent: 3,
            received: 2,
            nanos: 40_000,
        });
        metrics.observe(&TraceEvent::GossipApply {
            peer: "127.0.0.1:7401".to_string(),
            op: "theorem",
            key: "k".to_string(),
            accepted: true,
        });
        metrics.observe(&TraceEvent::WalAppend {
            op: "horizon",
            key: "classic:s1|gamma".to_string(),
            bytes: 140,
        });
        metrics.observe(&TraceEvent::WalReplay {
            records: 7,
            bytes: 900,
            dropped_tail: false,
        });
        metrics.observe(&TraceEvent::WalDegraded {
            error: "disk full".to_string(),
        });
        assert_eq!(registry.counter("svc.gossip_rounds").get(), 1);
        assert_eq!(registry.counter("svc.gossip_deltas_sent").get(), 3);
        assert_eq!(registry.counter("svc.gossip_deltas_received").get(), 2);
        assert_eq!(registry.counter("svc.gossip_applied").get(), 1);
        assert_eq!(
            registry
                .histogram("svc.gossip_round_latency_ns", &Histogram::latency_bounds())
                .count(),
            1
        );
        assert_eq!(registry.counter("svc.wal_appends").get(), 1);
        assert_eq!(registry.counter("svc.wal_append_bytes").get(), 140);
        assert_eq!(registry.counter("svc.wal_replayed_records").get(), 7);
        assert_eq!(registry.gauge("svc.wal_degraded").get(), 1);
    }

    #[test]
    fn events_without_an_instrument_count_nothing() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut metrics = MetricsRecorder::new(Arc::clone(&registry));
        let before = registry.snapshot();
        for event in [
            TraceEvent::RunStart {
                engine: "network",
                nodes: 2,
                threads: 1,
            },
            TraceEvent::Message {
                round: 0,
                from: 0,
                to: 1,
                status: crate::event::MessageStatus::Dropped,
            },
            TraceEvent::SpanStart {
                round: 0,
                span_id: 0,
                parent: None,
                name: "net_send".into(),
                ctx: None,
            },
            TraceEvent::Health {
                status: "degraded".to_string(),
                ready: false,
                live: true,
            },
            TraceEvent::FlightDump {
                reason: "rpc".to_string(),
                events: 3,
                dropped: 0,
                truncated: 0,
            },
        ] {
            metrics.record(event);
        }
        assert_eq!(registry.snapshot(), before);
    }

    #[test]
    fn record_and_observe_fold_identically() {
        let events = [
            TraceEvent::RoundEnd {
                round: 0,
                counts: RoundCounts {
                    sent: 4,
                    delivered: 3,
                    dropped: 1,
                    misaddressed: 0,
                },
                nanos: 1_500,
            },
            TraceEvent::SvcResponse {
                seq: 1,
                method: "check".into(),
                ok: false,
                cache: "miss",
                nanos: 80_000,
            },
            TraceEvent::SpanEnd {
                round: 0,
                span_id: 2,
                name: "rpc.check".into(),
                nanos: 70_000,
            },
        ];
        let recorded = Arc::new(MetricsRegistry::new());
        let mut by_record = MetricsRecorder::new(Arc::clone(&recorded));
        let observed = Arc::new(MetricsRegistry::new());
        let mut by_observe = MetricsRecorder::new(Arc::clone(&observed));
        for event in events {
            by_observe.observe(&event);
            by_record.record(event);
        }
        assert_eq!(recorded.snapshot(), observed.snapshot());
        assert_eq!(observed.counter("svc.responses_err").get(), 1);
        assert_eq!(observed.counter("engine.messages_sent").get(), 4);
    }

    mod quantile_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn quantile_lands_within_one_bucket_of_the_order_statistic(
                samples in proptest::collection::vec(0u64..200_000, 1..200),
                q_percent in 0u64..101,
            ) {
                let bounds = [10u64, 100, 1_000, 10_000, 100_000];
                let h = Histogram::new(&bounds);
                for &s in &samples {
                    h.observe(s);
                }
                let q = q_percent as f64 / 100.0;
                let estimate = h.quantile(q).unwrap();

                let mut sorted = samples.clone();
                sorted.sort_unstable();
                let rank = ((q * sorted.len() as f64).ceil() as usize)
                    .clamp(1, sorted.len());
                let order_stat = sorted[rank - 1];

                let stat_bucket = bounds.partition_point(|&b| b < order_stat);
                let est_bucket = bounds.partition_point(|&b| (b as f64) < estimate);
                prop_assert!(
                    est_bucket.abs_diff(stat_bucket) <= 1,
                    "q={q}: estimate {estimate} (bucket {est_bucket}) strays more than \
                     one bucket from order statistic {order_stat} (bucket {stat_bucket})"
                );
            }
        }
    }

    #[test]
    fn snapshot_lists_every_instrument() {
        let registry = MetricsRegistry::new();
        registry.counter("a").inc();
        registry.gauge("b").set(2);
        registry.histogram("c", &[1]).observe(1);
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("counters")
                .and_then(|v| v.get("a"))
                .and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            snap.get("gauges")
                .and_then(|v| v.get("b"))
                .and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(
            snap.get("histograms")
                .and_then(|v| v.get("c"))
                .and_then(|v| v.get("count"))
                .and_then(Value::as_u64),
            Some(1)
        );
    }
}
