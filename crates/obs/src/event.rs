//! The structured trace event model and its JSON mapping.
//!
//! Every event serialises to one JSON object carrying at least the three
//! stable fields `schema`, `event`, and `round`, so downstream tooling can
//! filter a mixed JSONL stream without knowing every variant. The schema
//! string is versioned ([`SCHEMA`]); additive changes keep the version,
//! field renames or removals bump it.

use serde_json::{Map, Value};
use std::borrow::Cow;
use std::fmt;

/// Version tag stamped on every emitted event line.
pub const SCHEMA: &str = "minobs/trace/v1";

/// A span name or RPC method label.
///
/// Every name the workspace emits is a `&'static str` and is held
/// borrowed, so recording a span or a request allocates nothing; only
/// [`TraceEvent::from_json`] owns the text it decodes. Compares, hashes,
/// prints and debug-prints exactly as the string it holds.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Cow<'static, str>);

impl Name {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The name when it is a borrowed `'static` label, `None` when it
    /// owns its text.
    pub(crate) fn as_static(&self) -> Option<&'static str> {
        match self.0 {
            Cow::Borrowed(name) => Some(name),
            Cow::Owned(_) => None,
        }
    }
}

impl From<&'static str> for Name {
    fn from(name: &'static str) -> Name {
        Name(Cow::Borrowed(name))
    }
}

impl From<String> for Name {
    fn from(name: String) -> Name {
        Name(Cow::Owned(name))
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The distributed-trace fields of a [`TraceEvent::SpanStart`].
///
/// Only the root span of a request that carried a
/// [`crate::TraceContext`] has them, so they live behind one pointer and
/// a local span pays 8 bytes for both. Build them with
/// [`SpanCtx::boxed`], which keeps "neither field" as `None`, so every
/// event has exactly one representation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCtx {
    /// Distributed trace id this span belongs to. Serialised as 32
    /// lowercase hex digits.
    pub trace_id: Option<u128>,
    /// Span id on the *sending* node this root span is parented under.
    /// Only meaningful together with `trace_id`; resolved by `trace
    /// stitch`, never by in-process tooling (the local `parent` chain
    /// stays self-contained).
    pub ctx_parent: Option<u64>,
}

impl SpanCtx {
    /// The fields boxed, or `None` when both are absent.
    pub fn boxed(trace_id: Option<u128>, ctx_parent: Option<u64>) -> Option<Box<SpanCtx>> {
        (trace_id.is_some() || ctx_parent.is_some()).then(|| {
            Box::new(SpanCtx {
                trace_id,
                ctx_parent,
            })
        })
    }
}

/// What happened to a single message in a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageStatus {
    /// Routed to its addressee this round.
    Delivered,
    /// Selected by the adversary's omission set.
    Dropped,
    /// Addressed to a non-neighbor and discarded before routing.
    Misaddressed,
}

impl MessageStatus {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            MessageStatus::Delivered => "delivered",
            MessageStatus::Dropped => "dropped",
            MessageStatus::Misaddressed => "misaddressed",
        }
    }
}

/// Per-round (or whole-run) message accounting.
///
/// The engines count a send as `sent` when it is addressed to a neighbor
/// in the graph, live or halted: a message to a halted neighbor counts as
/// sent and, unless dropped, as delivered, though nothing reads it.
/// Misaddressed sends (to a non-neighbor) are tallied separately and
/// never enter `sent`. The conservation invariant is therefore
/// `sent == delivered + dropped`, checked by the engines each round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundCounts {
    /// Valid messages handed to the network.
    pub sent: usize,
    /// Messages routed to their addressee.
    pub delivered: usize,
    /// Messages removed by the adversary.
    pub dropped: usize,
    /// Messages to non-neighbors, discarded before routing.
    pub misaddressed: usize,
}

impl RoundCounts {
    /// Accumulates another round's counts into a running total.
    pub fn absorb(&mut self, other: RoundCounts) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.misaddressed += other.misaddressed;
    }
}

/// One structured observation from an engine or the model checker.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A run began. `round` is always 0.
    RunStart {
        /// Which execution surface: `"two_process"` or `"network"`.
        engine: &'static str,
        /// Number of participating processes (2 for the two-process engine).
        nodes: usize,
        /// Worker threads (1 for the serial engines).
        threads: usize,
    },
    /// A single message's fate within a round.
    Message {
        /// Round the message was sent in (0-based).
        round: usize,
        /// Sender node id.
        from: usize,
        /// Addressee node id.
        to: usize,
        /// Delivered, dropped, or misaddressed.
        status: MessageStatus,
    },
    /// A node committed to a decision this round.
    Decision {
        /// Round the decision became visible (0-based).
        round: usize,
        /// Deciding node id.
        node: usize,
        /// The decided value.
        value: u64,
    },
    /// A round completed, with its message accounting.
    RoundEnd {
        /// The completed round (0-based).
        round: usize,
        /// Message accounting for exactly this round.
        counts: RoundCounts,
        /// Wall-clock nanoseconds the round took (0 when timing is off).
        nanos: u64,
    },
    /// A profiling span opened. Closed by the [`TraceEvent::SpanEnd`]
    /// carrying the same `span_id`; spans nest properly per stream.
    SpanStart {
        /// Round the span is attributed to.
        round: usize,
        /// Monotone identifier, unique within the emitting run (see
        /// [`crate::SpanIds`]; runless daemon traces carve disjoint
        /// per-request blocks, making ids stream-unique there).
        span_id: u64,
        /// `span_id` of the enclosing open span, if any.
        parent: Option<u64>,
        /// Stable section name, e.g. `"checker_expand"`.
        name: Name,
        /// `trace_id` and `ctx_parent`, when the request carried a
        /// [`crate::TraceContext`]; `None` on purely local spans.
        ctx: Option<Box<SpanCtx>>,
    },
    /// A profiling span closed, with its measured duration.
    SpanEnd {
        /// Round the span is attributed to.
        round: usize,
        /// Identifier of the span being closed.
        span_id: u64,
        /// Section name, echoed from the matching start.
        name: Name,
        /// Wall-clock nanoseconds between start and end (never 0 when the
        /// span was actually timed).
        nanos: u64,
    },
    /// Periodic heartbeat from a long model-checker sweep: cumulative
    /// work so far, emitted each time the explored-state count crosses
    /// another stride so multi-minute runs stay watchable.
    CheckerProgress {
        /// Frontier depth at the heartbeat (1-based, matches
        /// `checker_round`).
        round: usize,
        /// Execution states currently in the frontier.
        frontier: usize,
        /// Cumulative execution states explored so far.
        states: usize,
    },
    /// One level-synchronous frontier step of the bounded model checker.
    CheckerRound {
        /// Prefix length just explored (1-based, matches horizon depth).
        round: usize,
        /// Execution states in the frontier after this step.
        frontier: usize,
        /// Total interned views in the arena so far.
        views: usize,
        /// Wall-clock nanoseconds for this step (0 when timing is off).
        nanos: u64,
    },
    /// A horizon sweep decided one horizon (one `k` of `Check::first`).
    Horizon {
        /// The horizon depth checked.
        horizon: usize,
        /// Whether the task is solvable within that horizon.
        solvable: bool,
        /// Wall-clock nanoseconds from the sweep's start to this verdict
        /// (0 when timing is off).
        nanos: u64,
    },
    /// The model checker stopped early because its state or wall-clock
    /// budget ran out; the result is partial.
    BudgetExhausted {
        /// Deepest fully-explored horizon (rounds completed).
        horizon: usize,
        /// Frontier size at the moment the budget ran out.
        frontier: usize,
        /// Cumulative execution states explored before stopping.
        states: usize,
    },
    /// A run finished, with totals over all rounds.
    RunEnd {
        /// Rounds executed.
        rounds: usize,
        /// Whole-run message accounting.
        totals: RoundCounts,
        /// Wall-clock nanoseconds for the run (0 when timing is off).
        nanos: u64,
    },
    /// The solvability service accepted a request. `round` is always 0;
    /// `seq` is the daemon-wide accept sequence number, unique per
    /// request and echoed by the matching [`TraceEvent::SvcResponse`].
    SvcRequest {
        /// Daemon-wide accept sequence number.
        seq: u64,
        /// RPC method label, e.g. `"check_horizon"`; the daemon records
        /// a method it does not serve as `"unknown"`.
        method: Name,
    },
    /// The solvability service finished a request. `round` is always 0.
    SvcResponse {
        /// Accept sequence number of the request being answered.
        seq: u64,
        /// RPC method label, echoed from the request.
        method: Name,
        /// Whether the request succeeded (an RPC-level error is `false`).
        ok: bool,
        /// Verdict-cache disposition: `"hit"`, `"miss"`, `"subsumed"`,
        /// or `"none"` for methods that bypass the cache.
        cache: &'static str,
        /// Wall-clock nanoseconds from dequeue to response.
        nanos: u64,
    },
    /// The daemon appended one record to the write-ahead verdict log
    /// (`minobs/wal/v1`). `round` is always 0.
    WalAppend {
        /// Record operation: `"horizon"`, `"theorem"`, or `"snapshot"`.
        op: &'static str,
        /// Canonical cache key of the verdict persisted.
        key: String,
        /// Encoded record size on disk, framing included.
        bytes: u64,
    },
    /// The daemon replayed the write-ahead verdict log at startup.
    /// `round` is always 0.
    WalReplay {
        /// Records applied to the cache.
        records: u64,
        /// Bytes of valid log consumed.
        bytes: u64,
        /// Whether a torn or checksum-failing tail was dropped.
        dropped_tail: bool,
    },
    /// The write-ahead log failed and the daemon degraded to memory-only
    /// persistence; mirrored by the `svc.wal_degraded` gauge. `round` is
    /// always 0.
    WalDegraded {
        /// The I/O error that forced degradation.
        error: String,
    },
    /// One anti-entropy gossip exchange with a peer finished. `round` is
    /// always 0.
    GossipRound {
        /// Peer address gossiped with, e.g. `"127.0.0.1:7401"`.
        peer: String,
        /// Deltas shipped to the peer this exchange.
        sent: u64,
        /// Deltas received from the peer this exchange.
        received: u64,
        /// Wall-clock nanoseconds for the whole exchange (0 when timing
        /// is off).
        nanos: u64,
    },
    /// One replicated delta was ingested from a peer. `round` is always 0.
    GossipApply {
        /// Peer address the delta arrived from.
        peer: String,
        /// Record operation replicated: `"horizon"` or `"theorem"`.
        op: &'static str,
        /// Canonical cache key of the replicated verdict.
        key: String,
        /// `false` when cross-validation rejected the delta (a would-be
        /// contradiction from a hostile or corrupt peer).
        accepted: bool,
    },
    /// A peer stopped answering gossip and was marked down. `round` is
    /// always 0.
    PeerDown {
        /// Address of the unresponsive peer.
        peer: String,
        /// Consecutive failed exchanges at the moment of marking.
        failures: u64,
    },
    /// The daemon's health verdict changed (edge-triggered: emitted on
    /// every flip, not every evaluation). `round` is always 0.
    Health {
        /// Overall status: `"ok"` or `"degraded"`.
        status: String,
        /// Whether the node should receive traffic (queue has headroom,
        /// not draining, not cut off from all peers).
        ready: bool,
        /// Whether the process is up at all (always `true` from a
        /// running daemon; the field exists so probes share one shape).
        live: bool,
    },
    /// A flight-recorder ring was snapshotted into a trace dump. Emitted
    /// as the first line of every dump so tooling can tell a bounded
    /// retrospective capture from a complete stream. `round` is always 0.
    FlightDump {
        /// What triggered the dump: `"rpc"`, `"wal_degraded"`,
        /// `"peer_down"`, `"health_edge"`, or `"panic"`.
        reason: String,
        /// Events in the dump after the well-formedness pass.
        events: u64,
        /// Events discarded by the pass (ends whose start was evicted,
        /// unpaired request/response halves).
        dropped: u64,
        /// Still-open spans closed with a synthesized, `truncated:true`
        /// span_end.
        truncated: u64,
    },
}

// Per-request `MemoryRecorder` buffers hold `TraceEvent` values (the
// flight ring stores encoded bytes instead), so every buffered span pays
// this size. A field that grows a variant past 72 bytes fails the build
// here rather than silently growing every buffer.
const _: () =
    assert!(std::mem::size_of::<TraceEvent>() <= 72 && std::mem::align_of::<TraceEvent>() == 8);

impl TraceEvent {
    /// Stable wire name of the variant.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "run_start",
            TraceEvent::Message { .. } => "message",
            TraceEvent::Decision { .. } => "decision",
            TraceEvent::RoundEnd { .. } => "round_end",
            TraceEvent::SpanStart { .. } => "span_start",
            TraceEvent::SpanEnd { .. } => "span_end",
            TraceEvent::CheckerProgress { .. } => "checker_progress",
            TraceEvent::CheckerRound { .. } => "checker_round",
            TraceEvent::Horizon { .. } => "horizon",
            TraceEvent::BudgetExhausted { .. } => "budget_exhausted",
            TraceEvent::RunEnd { .. } => "run_end",
            TraceEvent::SvcRequest { .. } => "svc_request",
            TraceEvent::SvcResponse { .. } => "svc_response",
            TraceEvent::WalAppend { .. } => "wal_append",
            TraceEvent::WalReplay { .. } => "wal_replay",
            TraceEvent::WalDegraded { .. } => "wal_degraded",
            TraceEvent::GossipRound { .. } => "gossip_round",
            TraceEvent::GossipApply { .. } => "gossip_apply",
            TraceEvent::PeerDown { .. } => "peer_down",
            TraceEvent::Health { .. } => "health",
            TraceEvent::FlightDump { .. } => "flight_dump",
        }
    }

    /// The round the event is attributed to (`horizon` for horizon events,
    /// total `rounds` for run ends).
    pub fn round(&self) -> usize {
        match *self {
            TraceEvent::RunStart { .. }
            | TraceEvent::SvcRequest { .. }
            | TraceEvent::SvcResponse { .. }
            | TraceEvent::WalAppend { .. }
            | TraceEvent::WalReplay { .. }
            | TraceEvent::WalDegraded { .. }
            | TraceEvent::GossipRound { .. }
            | TraceEvent::GossipApply { .. }
            | TraceEvent::PeerDown { .. }
            | TraceEvent::Health { .. }
            | TraceEvent::FlightDump { .. } => 0,
            TraceEvent::Message { round, .. }
            | TraceEvent::Decision { round, .. }
            | TraceEvent::RoundEnd { round, .. }
            | TraceEvent::SpanStart { round, .. }
            | TraceEvent::SpanEnd { round, .. }
            | TraceEvent::CheckerProgress { round, .. }
            | TraceEvent::CheckerRound { round, .. } => round,
            TraceEvent::Horizon { horizon, .. } | TraceEvent::BudgetExhausted { horizon, .. } => {
                horizon
            }
            TraceEvent::RunEnd { rounds, .. } => rounds,
        }
    }

    /// Serialises to the versioned JSON object for one JSONL line.
    ///
    /// Every object carries `schema`, `event`, and `round`; the remaining
    /// fields are variant-specific.
    pub fn to_json(&self) -> Value {
        let mut map = Map::new();
        map.insert("schema".to_string(), Value::from(SCHEMA));
        map.insert("event".to_string(), Value::from(self.kind()));
        map.insert("round".to_string(), Value::from(self.round() as u64));
        match self {
            TraceEvent::RunStart {
                engine,
                nodes,
                threads,
            } => {
                map.insert("engine".to_string(), Value::from(*engine));
                map.insert("nodes".to_string(), Value::from(*nodes as u64));
                map.insert("threads".to_string(), Value::from(*threads as u64));
            }
            TraceEvent::Message {
                from, to, status, ..
            } => {
                map.insert("from".to_string(), Value::from(*from as u64));
                map.insert("to".to_string(), Value::from(*to as u64));
                map.insert("status".to_string(), Value::from(status.as_str()));
            }
            TraceEvent::Decision { node, value, .. } => {
                map.insert("node".to_string(), Value::from(*node as u64));
                map.insert("value".to_string(), Value::from(*value));
            }
            TraceEvent::RoundEnd { counts, nanos, .. } => {
                insert_counts(&mut map, *counts);
                map.insert("nanos".to_string(), Value::from(*nanos));
            }
            TraceEvent::SpanStart {
                span_id,
                parent,
                name,
                ctx,
                ..
            } => {
                map.insert("span_id".to_string(), Value::from(*span_id));
                map.insert(
                    "parent".to_string(),
                    parent.map_or(Value::Null, Value::from),
                );
                map.insert("name".to_string(), Value::from(name.as_str()));
                // Additive distributed-tracing fields: only present when
                // the request carried a context, so uninstrumented
                // streams are byte-identical to pre-ctx traces.
                let SpanCtx {
                    trace_id,
                    ctx_parent,
                } = ctx.as_deref().copied().unwrap_or_default();
                if let Some(id) = trace_id {
                    map.insert("trace_id".to_string(), Value::from(format!("{id:032x}")));
                }
                if let Some(ctx_parent) = ctx_parent {
                    map.insert("ctx_parent".to_string(), Value::from(ctx_parent));
                }
            }
            TraceEvent::SpanEnd {
                span_id,
                name,
                nanos,
                ..
            } => {
                map.insert("span_id".to_string(), Value::from(*span_id));
                map.insert("name".to_string(), Value::from(name.as_str()));
                map.insert("nanos".to_string(), Value::from(*nanos));
            }
            TraceEvent::CheckerProgress {
                frontier, states, ..
            } => {
                map.insert("frontier".to_string(), Value::from(*frontier as u64));
                map.insert("states".to_string(), Value::from(*states as u64));
            }
            TraceEvent::CheckerRound {
                frontier,
                views,
                nanos,
                ..
            } => {
                map.insert("frontier".to_string(), Value::from(*frontier as u64));
                map.insert("views".to_string(), Value::from(*views as u64));
                map.insert("nanos".to_string(), Value::from(*nanos));
            }
            TraceEvent::Horizon {
                solvable, nanos, ..
            } => {
                map.insert("solvable".to_string(), Value::from(*solvable));
                map.insert("nanos".to_string(), Value::from(*nanos));
            }
            TraceEvent::BudgetExhausted {
                frontier, states, ..
            } => {
                map.insert("frontier".to_string(), Value::from(*frontier as u64));
                map.insert("states".to_string(), Value::from(*states as u64));
            }
            TraceEvent::RunEnd { totals, nanos, .. } => {
                insert_counts(&mut map, *totals);
                map.insert("nanos".to_string(), Value::from(*nanos));
            }
            TraceEvent::SvcRequest { seq, method } => {
                map.insert("seq".to_string(), Value::from(*seq));
                map.insert("method".to_string(), Value::from(method.as_str()));
            }
            TraceEvent::SvcResponse {
                seq,
                method,
                ok,
                cache,
                nanos,
            } => {
                map.insert("seq".to_string(), Value::from(*seq));
                map.insert("method".to_string(), Value::from(method.as_str()));
                map.insert("ok".to_string(), Value::from(*ok));
                map.insert("cache".to_string(), Value::from(*cache));
                map.insert("nanos".to_string(), Value::from(*nanos));
            }
            TraceEvent::WalAppend { op, key, bytes } => {
                map.insert("op".to_string(), Value::from(*op));
                map.insert("key".to_string(), Value::from(key.as_str()));
                map.insert("bytes".to_string(), Value::from(*bytes));
            }
            TraceEvent::WalReplay {
                records,
                bytes,
                dropped_tail,
            } => {
                map.insert("records".to_string(), Value::from(*records));
                map.insert("bytes".to_string(), Value::from(*bytes));
                map.insert("dropped_tail".to_string(), Value::from(*dropped_tail));
            }
            TraceEvent::WalDegraded { error } => {
                map.insert("error".to_string(), Value::from(error.as_str()));
            }
            TraceEvent::GossipRound {
                peer,
                sent,
                received,
                nanos,
            } => {
                map.insert("peer".to_string(), Value::from(peer.as_str()));
                map.insert("sent".to_string(), Value::from(*sent));
                map.insert("received".to_string(), Value::from(*received));
                map.insert("nanos".to_string(), Value::from(*nanos));
            }
            TraceEvent::GossipApply {
                peer,
                op,
                key,
                accepted,
            } => {
                map.insert("peer".to_string(), Value::from(peer.as_str()));
                map.insert("op".to_string(), Value::from(*op));
                map.insert("key".to_string(), Value::from(key.as_str()));
                map.insert("accepted".to_string(), Value::from(*accepted));
            }
            TraceEvent::PeerDown { peer, failures } => {
                map.insert("peer".to_string(), Value::from(peer.as_str()));
                map.insert("failures".to_string(), Value::from(*failures));
            }
            TraceEvent::Health {
                status,
                ready,
                live,
            } => {
                map.insert("status".to_string(), Value::from(status.as_str()));
                map.insert("ready".to_string(), Value::from(*ready));
                map.insert("live".to_string(), Value::from(*live));
            }
            TraceEvent::FlightDump {
                reason,
                events,
                dropped,
                truncated,
            } => {
                map.insert("reason".to_string(), Value::from(reason.as_str()));
                map.insert("events".to_string(), Value::from(*events));
                map.insert("dropped".to_string(), Value::from(*dropped));
                map.insert("truncated".to_string(), Value::from(*truncated));
            }
        }
        Value::Object(map)
    }

    /// Decodes one JSONL line's object: the inverse of
    /// [`TraceEvent::to_json`].
    ///
    /// Keys the variant does not know are ignored, so additive fields
    /// (`node_id`, the flight dump's `truncated` span ends) decode fine.
    /// The `&'static str` fields (`engine`, `phase`, `cache`, `op`) map
    /// onto the fixed set the workspace emits; any other value, a missing
    /// or mistyped field, a foreign schema, or a `round` that disagrees
    /// with the variant is an error naming the offending field.
    pub fn from_json(value: &Value) -> Result<TraceEvent, String> {
        let map = value.as_object().ok_or("not a JSON object")?;
        match map.get("schema").and_then(Value::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("schema {other:?}, expected {SCHEMA:?}")),
            None => return Err("missing string field \"schema\"".to_string()),
        }
        let kind = map
            .get("event")
            .and_then(Value::as_str)
            .ok_or("missing string field \"event\"")?;
        let f = Fields { kind, map };
        let round = f.usize("round")?;
        let event = match kind {
            "run_start" => TraceEvent::RunStart {
                engine: f.one_of("engine", ENGINES)?,
                nodes: f.usize("nodes")?,
                threads: f.usize("threads")?,
            },
            "message" => TraceEvent::Message {
                round,
                from: f.usize("from")?,
                to: f.usize("to")?,
                status: match f.one_of("status", STATUSES)? {
                    "delivered" => MessageStatus::Delivered,
                    "dropped" => MessageStatus::Dropped,
                    _ => MessageStatus::Misaddressed,
                },
            },
            "decision" => TraceEvent::Decision {
                round,
                node: f.usize("node")?,
                value: f.u64("value")?,
            },
            "round_end" => TraceEvent::RoundEnd {
                round,
                counts: f.counts()?,
                nanos: f.u64("nanos")?,
            },
            "span_start" => TraceEvent::SpanStart {
                round,
                span_id: f.u64("span_id")?,
                parent: match map.get("parent") {
                    Some(Value::Null) => None,
                    _ => Some(f.u64("parent")?),
                },
                name: f.name("name")?,
                ctx: SpanCtx::boxed(
                    map.contains_key("trace_id")
                        .then(|| f.trace_id())
                        .transpose()?,
                    map.contains_key("ctx_parent")
                        .then(|| f.u64("ctx_parent"))
                        .transpose()?,
                ),
            },
            "span_end" => TraceEvent::SpanEnd {
                round,
                span_id: f.u64("span_id")?,
                name: f.name("name")?,
                nanos: f.u64("nanos")?,
            },
            "checker_progress" => TraceEvent::CheckerProgress {
                round,
                frontier: f.usize("frontier")?,
                states: f.usize("states")?,
            },
            "checker_round" => TraceEvent::CheckerRound {
                round,
                frontier: f.usize("frontier")?,
                views: f.usize("views")?,
                nanos: f.u64("nanos")?,
            },
            "horizon" => TraceEvent::Horizon {
                horizon: round,
                solvable: f.bool("solvable")?,
                nanos: f.u64("nanos")?,
            },
            "budget_exhausted" => TraceEvent::BudgetExhausted {
                horizon: round,
                frontier: f.usize("frontier")?,
                states: f.usize("states")?,
            },
            "run_end" => TraceEvent::RunEnd {
                rounds: round,
                totals: f.counts()?,
                nanos: f.u64("nanos")?,
            },
            "svc_request" => TraceEvent::SvcRequest {
                seq: f.u64("seq")?,
                method: f.name("method")?,
            },
            "svc_response" => TraceEvent::SvcResponse {
                seq: f.u64("seq")?,
                method: f.name("method")?,
                ok: f.bool("ok")?,
                cache: f.one_of("cache", CACHE_DISPOSITIONS)?,
                nanos: f.u64("nanos")?,
            },
            "wal_append" => TraceEvent::WalAppend {
                op: f.one_of("op", RECORD_OPS)?,
                key: f.string("key")?,
                bytes: f.u64("bytes")?,
            },
            "wal_replay" => TraceEvent::WalReplay {
                records: f.u64("records")?,
                bytes: f.u64("bytes")?,
                dropped_tail: f.bool("dropped_tail")?,
            },
            "wal_degraded" => TraceEvent::WalDegraded {
                error: f.string("error")?,
            },
            "gossip_round" => TraceEvent::GossipRound {
                peer: f.string("peer")?,
                sent: f.u64("sent")?,
                received: f.u64("received")?,
                nanos: f.u64("nanos")?,
            },
            "gossip_apply" => TraceEvent::GossipApply {
                peer: f.string("peer")?,
                op: f.one_of("op", RECORD_OPS)?,
                key: f.string("key")?,
                accepted: f.bool("accepted")?,
            },
            "peer_down" => TraceEvent::PeerDown {
                peer: f.string("peer")?,
                failures: f.u64("failures")?,
            },
            "health" => TraceEvent::Health {
                status: f.string("status")?,
                ready: f.bool("ready")?,
                live: f.bool("live")?,
            },
            "flight_dump" => TraceEvent::FlightDump {
                reason: f.string("reason")?,
                events: f.u64("events")?,
                dropped: f.u64("dropped")?,
                truncated: f.u64("truncated")?,
            },
            other => return Err(format!("unknown event {other:?}")),
        };
        if event.round() != round {
            return Err(format!("{kind}: round {round}, expected {}", event.round()));
        }
        Ok(event)
    }
}

/// The values each `&'static str` field can take, in the order the
/// decoder reports them.
const ENGINES: &[&str] = &["two_process", "network"];
const STATUSES: &[&str] = &["delivered", "dropped", "misaddressed"];
const CACHE_DISPOSITIONS: &[&str] = &["hit", "miss", "subsumed", "none"];
const RECORD_OPS: &[&str] = &["horizon", "theorem", "snapshot"];

/// Typed field access for [`TraceEvent::from_json`]; errors name the
/// event kind and the field.
struct Fields<'a> {
    kind: &'a str,
    map: &'a Map,
}

impl<'a> Fields<'a> {
    /// Field `key` as `read` sees it, or an error saying what was expected.
    fn get<T>(
        &self,
        key: &str,
        expected: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        self.map
            .get(key)
            .and_then(read)
            .ok_or_else(|| format!("{}: field {key:?} missing or not {expected}", self.kind))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.get(key, "a non-negative integer", Value::as_u64)
    }

    fn usize(&self, key: &str) -> Result<usize, String> {
        self.get(key, "a non-negative integer", |v| {
            usize::try_from(v.as_u64()?).ok()
        })
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        self.get(key, "a boolean", Value::as_bool)
    }

    fn str(&self, key: &str) -> Result<&'a str, String> {
        self.get(key, "a string", Value::as_str)
    }

    fn string(&self, key: &str) -> Result<String, String> {
        self.str(key).map(str::to_string)
    }

    fn name(&self, key: &str) -> Result<Name, String> {
        self.string(key).map(Name::from)
    }

    fn one_of(&self, key: &str, allowed: &[&'static str]) -> Result<&'static str, String> {
        let value = self.str(key)?;
        allowed
            .iter()
            .copied()
            .find(|candidate| *candidate == value)
            .ok_or_else(|| {
                format!(
                    "{}: {key} {value:?}, expected one of {allowed:?}",
                    self.kind
                )
            })
    }

    fn counts(&self) -> Result<RoundCounts, String> {
        Ok(RoundCounts {
            sent: self.usize("sent")?,
            delivered: self.usize("delivered")?,
            dropped: self.usize("dropped")?,
            misaddressed: self.usize("misaddressed")?,
        })
    }

    /// `trace_id` exactly as [`TraceEvent::to_json`] writes it: 32
    /// lowercase hex digits.
    fn trace_id(&self) -> Result<u128, String> {
        let text = self.str("trace_id")?;
        crate::ctx::parse_hex_id(text).ok_or_else(|| {
            format!(
                "{}: trace_id {text:?} is not 32 lowercase hex digits",
                self.kind
            )
        })
    }
}

fn insert_counts(map: &mut Map, counts: RoundCounts) {
    map.insert("sent".to_string(), Value::from(counts.sent as u64));
    map.insert(
        "delivered".to_string(),
        Value::from(counts.delivered as u64),
    );
    map.insert("dropped".to_string(), Value::from(counts.dropped as u64));
    map.insert(
        "misaddressed".to_string(),
        Value::from(counts.misaddressed as u64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event of every variant, with every optional field set.
    fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStart {
                engine: "network",
                nodes: 4,
                threads: 1,
            },
            TraceEvent::Message {
                round: 2,
                from: 0,
                to: 1,
                status: MessageStatus::Dropped,
            },
            TraceEvent::Decision {
                round: 3,
                node: 1,
                value: 7,
            },
            TraceEvent::RoundEnd {
                round: 2,
                counts: RoundCounts {
                    sent: 4,
                    delivered: 3,
                    dropped: 1,
                    misaddressed: 0,
                },
                nanos: 10,
            },
            TraceEvent::SpanStart {
                round: 1,
                span_id: 0,
                parent: None,
                name: "net_send".into(),
                ctx: SpanCtx::boxed(Some(0x0af7_6519_16cd_43dd_8448_eb21_1c80_319c), Some(12)),
            },
            TraceEvent::SpanEnd {
                round: 1,
                span_id: 0,
                name: "net_send".into(),
                nanos: 77,
            },
            TraceEvent::CheckerProgress {
                round: 5,
                frontier: 320,
                states: 8192,
            },
            TraceEvent::CheckerRound {
                round: 1,
                frontier: 9,
                views: 30,
                nanos: 2,
            },
            TraceEvent::Horizon {
                horizon: 3,
                solvable: true,
                nanos: 100,
            },
            TraceEvent::BudgetExhausted {
                horizon: 4,
                frontier: 120,
                states: 4096,
            },
            TraceEvent::RunEnd {
                rounds: 4,
                totals: RoundCounts::default(),
                nanos: 99,
            },
            TraceEvent::SvcRequest {
                seq: 17,
                method: "check_horizon".into(),
            },
            TraceEvent::SvcResponse {
                seq: 17,
                method: "check_horizon".into(),
                ok: true,
                cache: "subsumed",
                nanos: 42,
            },
            TraceEvent::WalAppend {
                op: "horizon",
                key: "classic:s1|gamma".to_string(),
                bytes: 64,
            },
            TraceEvent::WalReplay {
                records: 12,
                bytes: 800,
                dropped_tail: true,
            },
            TraceEvent::WalDegraded {
                error: "no space left on device".to_string(),
            },
            TraceEvent::GossipRound {
                peer: "127.0.0.1:7401".to_string(),
                sent: 3,
                received: 2,
                nanos: 55,
            },
            TraceEvent::GossipApply {
                peer: "127.0.0.1:7401".to_string(),
                op: "horizon",
                key: "classic:s1|gamma".to_string(),
                accepted: true,
            },
            TraceEvent::PeerDown {
                peer: "127.0.0.1:7402".to_string(),
                failures: 3,
            },
            TraceEvent::Health {
                status: "degraded".to_string(),
                ready: false,
                live: true,
            },
            TraceEvent::FlightDump {
                reason: "wal_degraded".to_string(),
                events: 64,
                dropped: 2,
                truncated: 1,
            },
        ]
    }

    #[test]
    fn every_event_carries_the_stable_fields() {
        for event in &one_of_each() {
            let json = event.to_json();
            assert_eq!(json.get("schema").and_then(Value::as_str), Some(SCHEMA));
            assert_eq!(
                json.get("event").and_then(Value::as_str),
                Some(event.kind())
            );
            assert_eq!(
                json.get("round").and_then(Value::as_u64),
                Some(event.round() as u64)
            );
        }
    }

    #[test]
    fn from_json_inverts_to_json() {
        for event in one_of_each() {
            assert_eq!(TraceEvent::from_json(&event.to_json()), Ok(event.clone()));
            // And through the text a JSONL line actually carries.
            let line = serde_json::to_string(&event.to_json()).unwrap();
            let parsed = serde_json::from_str(&line).unwrap();
            assert_eq!(TraceEvent::from_json(&parsed), Ok(event));
        }
    }

    #[test]
    fn from_json_ignores_additive_keys() {
        let line = format!(
            r#"{{"schema":"{SCHEMA}","event":"span_end","round":2,"span_id":9,"name":"rpc.stats","nanos":0,"truncated":true,"node_id":"127.0.0.1:7400"}}"#
        );
        assert_eq!(
            TraceEvent::from_json(&serde_json::from_str(&line).unwrap()),
            Ok(TraceEvent::SpanEnd {
                round: 2,
                span_id: 9,
                name: "rpc.stats".into(),
                nanos: 0,
            })
        );
    }

    #[test]
    fn from_json_names_the_field_it_rejects() {
        let decode = |body: &str| {
            let line = format!(r#"{{"schema":"{SCHEMA}",{body}}}"#);
            TraceEvent::from_json(&serde_json::from_str(&line).unwrap()).unwrap_err()
        };
        for engine in ["warp", "network_parallel", "checker"] {
            let err = decode(&format!(
                r#""event":"run_start","round":0,"engine":"{engine}","nodes":2,"threads":1"#
            ));
            assert!(err.contains(&format!("engine {engine:?}")), "{err}");
        }
        let err = decode(r#""event":"svc_request","round":3,"seq":1,"method":"stats""#);
        assert!(err.contains("round 3, expected 0"), "{err}");
        let err = decode(r#""event":"span_start","round":0,"span_id":1,"name":"a""#);
        assert!(err.contains("\"parent\""), "{err}");
        for event in ["teleport", "engine_degraded", "span"] {
            let err = decode(&format!(
                r#""event":"{event}","round":1,"phase":"send","shard":0"#
            ));
            assert!(err.contains(&format!("unknown event {event:?}")), "{err}");
        }
        let foreign = serde_json::from_str(r#"{"schema":"other/v9","event":"x","round":0}"#);
        assert!(TraceEvent::from_json(&foreign.unwrap())
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn from_json_rejects_values_the_workspace_never_emits() {
        let decode = |body: &str| {
            let line = format!(r#"{{"schema":"{SCHEMA}",{body}}}"#);
            TraceEvent::from_json(&serde_json::from_str(&line).unwrap()).unwrap_err()
        };
        let err = decode(r#""event":"message","round":0,"from":0,"to":1,"status":"lost""#);
        assert!(err.contains("status \"lost\""), "{err}");
        let err = decode(
            r#""event":"svc_response","round":0,"seq":1,"method":"check","ok":true,"cache":"warm","nanos":1"#,
        );
        assert!(err.contains("cache \"warm\""), "{err}");
        let err = decode(r#""event":"wal_append","round":0,"op":"delete","key":"k","bytes":1"#);
        assert!(err.contains("op \"delete\""), "{err}");
        let err = decode(r#""event":"decision","round":1,"node":-1,"value":0"#);
        assert!(err.contains("\"node\""), "{err}");
        let err = decode(
            r#""event":"span_start","round":0,"span_id":1,"parent":null,"name":"a","trace_id":"xyz""#,
        );
        assert!(err.contains("32 lowercase hex"), "{err}");
        assert!(TraceEvent::from_json(&Value::from(7u64)).is_err());
    }

    #[test]
    fn round_end_round_trips_through_serde_json() {
        let event = TraceEvent::RoundEnd {
            round: 5,
            counts: RoundCounts {
                sent: 10,
                delivered: 8,
                dropped: 2,
                misaddressed: 1,
            },
            nanos: 1234,
        };
        let line = serde_json::to_string(&event.to_json()).unwrap();
        let back: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(back.get("sent").and_then(Value::as_u64), Some(10));
        assert_eq!(back.get("dropped").and_then(Value::as_u64), Some(2));
        assert_eq!(back.get("event").and_then(Value::as_str), Some("round_end"));
    }

    #[test]
    fn span_start_serialises_parent_as_null_or_id() {
        let root = TraceEvent::SpanStart {
            round: 0,
            span_id: 3,
            parent: None,
            name: "net_send".into(),
            ctx: None,
        };
        assert_eq!(root.to_json().get("parent"), Some(&Value::Null));
        // Local spans without a context stay byte-identical to pre-ctx
        // traces: no trace_id/ctx_parent keys at all.
        assert_eq!(root.to_json().get("trace_id"), None);
        assert_eq!(root.to_json().get("ctx_parent"), None);

        let child = TraceEvent::SpanStart {
            round: 0,
            span_id: 4,
            parent: Some(3),
            name: "net_send".into(),
            ctx: None,
        };
        let json = child.to_json();
        assert_eq!(json.get("parent").and_then(Value::as_u64), Some(3));
        assert_eq!(json.get("span_id").and_then(Value::as_u64), Some(4));
    }

    #[test]
    fn span_start_serialises_trace_context_as_hex_and_parent_id() {
        let stamped = TraceEvent::SpanStart {
            round: 0,
            span_id: 5,
            parent: None,
            name: "rpc.check_horizon".into(),
            ctx: SpanCtx::boxed(Some(0xabc), Some(17)),
        };
        let json = stamped.to_json();
        assert_eq!(
            json.get("trace_id").and_then(Value::as_str),
            Some("00000000000000000000000000000abc")
        );
        assert_eq!(json.get("ctx_parent").and_then(Value::as_u64), Some(17));
        // The local parent stays null: the remote edge lives only in
        // ctx_parent and is resolved by `trace stitch`.
        assert_eq!(json.get("parent"), Some(&Value::Null));
    }

    #[test]
    fn health_serialises_status_and_probe_booleans() {
        let event = TraceEvent::Health {
            status: "ok".to_string(),
            ready: true,
            live: true,
        };
        let json = event.to_json();
        assert_eq!(json.get("event").and_then(Value::as_str), Some("health"));
        assert_eq!(json.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(json.get("ready").and_then(Value::as_bool), Some(true));
        assert_eq!(json.get("live").and_then(Value::as_bool), Some(true));
        assert_eq!(json.get("round").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn counts_absorb_adds_fieldwise() {
        let mut total = RoundCounts::default();
        total.absorb(RoundCounts {
            sent: 3,
            delivered: 2,
            dropped: 1,
            misaddressed: 4,
        });
        total.absorb(RoundCounts {
            sent: 1,
            delivered: 1,
            dropped: 0,
            misaddressed: 0,
        });
        assert_eq!(
            total,
            RoundCounts {
                sent: 4,
                delivered: 3,
                dropped: 1,
                misaddressed: 4,
            }
        );
    }

    mod properties {
        use super::*;
        use crate::TraceContext;
        use proptest::prelude::*;
        use proptest::TestRng;

        /// Characters that stress the string codec: escapes, control
        /// characters and multi-byte text.
        const CHARS: &[char] = &['a', 'Z', ' ', '"', '\\', '\n', '\u{0}', '\u{1f}', 'é', '😀'];

        /// Every key the decoders read, plus two they ignore.
        const KEYS: &[&str] = &[
            "schema",
            "event",
            "round",
            "engine",
            "nodes",
            "threads",
            "from",
            "to",
            "status",
            "node",
            "value",
            "sent",
            "delivered",
            "dropped",
            "misaddressed",
            "nanos",
            "span_id",
            "parent",
            "name",
            "trace_id",
            "ctx_parent",
            "frontier",
            "views",
            "states",
            "solvable",
            "seq",
            "method",
            "ok",
            "cache",
            "op",
            "key",
            "bytes",
            "records",
            "dropped_tail",
            "error",
            "peer",
            "received",
            "accepted",
            "failures",
            "ready",
            "live",
            "reason",
            "events",
            "truncated",
            "parent_span",
            "node_id",
            "",
        ];

        /// Strings the decoders compare against, and near misses.
        const WORDS: &[&str] = &[
            SCHEMA,
            "minobs/trace/v0",
            "teleport",
            "two_process",
            "network",
            "delivered",
            "dropped",
            "lost",
            "hit",
            "subsumed",
            "none",
            "warm",
            "horizon",
            "theorem",
            "snapshot",
            "delete",
            "",
            "0af7651916cd43dd8448eb211c80319c",
            "00000000000000000000000000000000",
            "0AF7651916CD43DD8448EB211C80319C",
            "0af7651916cd43dd8448eb211c80319",
            "0af7651916cd43dd8448eb211c80319cc",
        ];

        fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
            from[rng.below(from.len() as u64) as usize]
        }

        /// A `u64` of random magnitude, so small values and the extremes
        /// both turn up.
        fn num(rng: &mut TestRng) -> u64 {
            rng.next_u64() >> rng.below(64)
        }

        fn text(rng: &mut TestRng) -> String {
            (0..rng.below(8)).map(|_| pick(rng, CHARS)).collect()
        }

        /// An event kind name, or one the decoder does not know.
        fn kind(rng: &mut TestRng) -> &'static str {
            match rng.below(8) {
                0 => pick(rng, WORDS),
                _ => draw_event(rng).kind(),
            }
        }

        /// A JSON value from the pools the decoders look for.
        fn draw_value(rng: &mut TestRng, depth: u32) -> Value {
            match rng.below(if depth == 0 { 9 } else { 11 }) {
                0 => Value::Null,
                1 => Value::Bool(rng.below(2) == 1),
                2 => Value::from(rng.below(4)),
                3 => Value::from(num(rng)),
                4 => Value::from(-(num(rng) as i64 >> 1) - 1),
                5 => Value::from(num(rng) as f64 / 8.0),
                6 => Value::from(pick(rng, WORDS)),
                7 => Value::from(kind(rng)),
                8 => Value::String(text(rng)),
                9 => Value::Array(
                    (0..rng.below(4))
                        .map(|_| draw_value(rng, depth - 1))
                        .collect(),
                ),
                _ => Value::Object(draw_object(rng, depth - 1)),
            }
        }

        /// An object whose keys are mostly ones the decoders read.
        fn draw_object(rng: &mut TestRng, depth: u32) -> Map {
            let mut map = Map::new();
            for _ in 0..rng.below(10) {
                let key = pick(rng, KEYS).to_string();
                map.insert(key, draw_value(rng, depth));
            }
            map
        }

        /// Event-shaped values: usually the right schema and a known
        /// kind, then arbitrary fields.
        struct EventShaped;

        impl Strategy for EventShaped {
            type Value = Value;
            fn generate(&self, rng: &mut TestRng) -> Value {
                let mut map = draw_object(rng, 2);
                if rng.below(8) != 0 {
                    map.insert("schema".to_string(), Value::from(SCHEMA));
                }
                if rng.below(8) != 0 {
                    map.insert("event".to_string(), Value::from(kind(rng)));
                }
                if rng.below(4) != 0 {
                    map.insert("round".to_string(), Value::from(rng.below(3)));
                }
                match rng.below(16) {
                    0 => draw_value(rng, 2),
                    _ => Value::Object(map),
                }
            }
        }

        fn counts(rng: &mut TestRng) -> RoundCounts {
            RoundCounts {
                sent: num(rng) as usize,
                delivered: num(rng) as usize,
                dropped: num(rng) as usize,
                misaddressed: num(rng) as usize,
            }
        }

        /// One event of a random variant with random fields.
        fn draw_event(rng: &mut TestRng) -> TraceEvent {
            let round = num(rng) as usize;
            match rng.below(21) {
                0 => TraceEvent::RunStart {
                    engine: pick(rng, ENGINES),
                    nodes: num(rng) as usize,
                    threads: num(rng) as usize,
                },
                1 => TraceEvent::Message {
                    round,
                    from: num(rng) as usize,
                    to: num(rng) as usize,
                    status: pick(
                        rng,
                        &[
                            MessageStatus::Delivered,
                            MessageStatus::Dropped,
                            MessageStatus::Misaddressed,
                        ],
                    ),
                },
                2 => TraceEvent::Decision {
                    round,
                    node: num(rng) as usize,
                    value: num(rng),
                },
                3 => TraceEvent::RoundEnd {
                    round,
                    counts: counts(rng),
                    nanos: num(rng),
                },
                4 => TraceEvent::SpanStart {
                    round,
                    span_id: num(rng),
                    parent: (rng.below(2) == 1).then(|| num(rng)),
                    name: text(rng).into(),
                    ctx: SpanCtx::boxed(
                        (rng.below(2) == 1)
                            .then(|| (u128::from(num(rng)) << 64) | u128::from(rng.next_u64())),
                        (rng.below(2) == 1).then(|| num(rng)),
                    ),
                },
                5 => TraceEvent::SpanEnd {
                    round,
                    span_id: num(rng),
                    name: text(rng).into(),
                    nanos: num(rng),
                },
                6 => TraceEvent::CheckerProgress {
                    round,
                    frontier: num(rng) as usize,
                    states: num(rng) as usize,
                },
                7 => TraceEvent::CheckerRound {
                    round,
                    frontier: num(rng) as usize,
                    views: num(rng) as usize,
                    nanos: num(rng),
                },
                8 => TraceEvent::Horizon {
                    horizon: round,
                    solvable: rng.below(2) == 1,
                    nanos: num(rng),
                },
                9 => TraceEvent::BudgetExhausted {
                    horizon: round,
                    frontier: num(rng) as usize,
                    states: num(rng) as usize,
                },
                10 => TraceEvent::RunEnd {
                    rounds: round,
                    totals: counts(rng),
                    nanos: num(rng),
                },
                11 => TraceEvent::SvcRequest {
                    seq: num(rng),
                    method: text(rng).into(),
                },
                12 => TraceEvent::SvcResponse {
                    seq: num(rng),
                    method: text(rng).into(),
                    ok: rng.below(2) == 1,
                    cache: pick(rng, CACHE_DISPOSITIONS),
                    nanos: num(rng),
                },
                13 => TraceEvent::WalAppend {
                    op: pick(rng, RECORD_OPS),
                    key: text(rng),
                    bytes: num(rng),
                },
                14 => TraceEvent::WalReplay {
                    records: num(rng),
                    bytes: num(rng),
                    dropped_tail: rng.below(2) == 1,
                },
                15 => TraceEvent::WalDegraded { error: text(rng) },
                16 => TraceEvent::GossipRound {
                    peer: text(rng),
                    sent: num(rng),
                    received: num(rng),
                    nanos: num(rng),
                },
                17 => TraceEvent::GossipApply {
                    peer: text(rng),
                    op: pick(rng, RECORD_OPS),
                    key: text(rng),
                    accepted: rng.below(2) == 1,
                },
                18 => TraceEvent::PeerDown {
                    peer: text(rng),
                    failures: num(rng),
                },
                19 => TraceEvent::Health {
                    status: text(rng),
                    ready: rng.below(2) == 1,
                    live: rng.below(2) == 1,
                },
                _ => TraceEvent::FlightDump {
                    reason: text(rng),
                    events: num(rng),
                    dropped: num(rng),
                    truncated: num(rng),
                },
            }
        }

        struct ArbitraryEvent;

        impl Strategy for ArbitraryEvent {
            type Value = TraceEvent;
            fn generate(&self, rng: &mut TestRng) -> TraceEvent {
                draw_event(rng)
            }
        }

        /// The event's object with one key removed, one value replaced
        /// or one key added.
        fn mutate(event: &TraceEvent, rng: &mut TestRng) -> Value {
            let Value::Object(mut map) = event.to_json() else {
                unreachable!("events encode as objects")
            };
            let keys: Vec<String> = map.iter().map(|(key, _)| key.clone()).collect();
            let key = match rng.below(3) {
                0 => {
                    map.remove(&keys[rng.below(keys.len() as u64) as usize]);
                    return Value::Object(map);
                }
                1 => keys[rng.below(keys.len() as u64) as usize].clone(),
                _ => pick(rng, KEYS).to_string(),
            };
            map.insert(key, draw_value(rng, 1));
            Value::Object(map)
        }

        /// Decoding never panics; whatever decodes re-encodes to an
        /// object that decodes to the same event, and a context that
        /// parses has a nonzero id and round-trips.
        fn decodes_cleanly(value: &Value) {
            match TraceEvent::from_json(value) {
                Ok(event) => prop_assert_eq!(TraceEvent::from_json(&event.to_json()), Ok(event)),
                Err(err) => prop_assert!(!err.is_empty()),
            }
            if let Some(ctx) = TraceContext::from_json(value) {
                prop_assert_ne!(ctx.trace_id, 0);
                prop_assert_eq!(TraceContext::from_json(&ctx.to_json()), Some(ctx));
            }
        }

        /// `from_json` inverts `to_json`, on the value and on its text.
        fn round_trips(event: &TraceEvent) {
            let json = event.to_json();
            prop_assert_eq!(TraceEvent::from_json(&json), Ok(event.clone()));
            let line = serde_json::to_string(&json).unwrap();
            let parsed = serde_json::from_str(&line).unwrap();
            prop_assert_eq!(TraceEvent::from_json(&parsed), Ok(event.clone()));
        }

        /// Contexts round-trip, and context-shaped values parse to one
        /// exactly when their `trace_id` is a nonzero 32-digit hex id.
        fn contexts_decode(trace_id: u128, parent: Option<u64>, value: &Value) {
            if trace_id != 0 {
                let ctx = TraceContext {
                    trace_id,
                    parent_span: parent,
                };
                prop_assert_eq!(TraceContext::from_json(&ctx.to_json()), Some(ctx));
            }
            let expected = value
                .get("trace_id")
                .and_then(Value::as_str)
                .and_then(TraceContext::parse_trace_id);
            let parsed = TraceContext::from_json(value);
            prop_assert_eq!(parsed.map(|ctx| ctx.trace_id), expected);
        }

        /// Context-shaped values: a `trace_id` from the word pool or a
        /// fresh hex id, and an arbitrary `parent_span`.
        struct ContextShaped;

        impl Strategy for ContextShaped {
            type Value = Value;
            fn generate(&self, rng: &mut TestRng) -> Value {
                let mut map = draw_object(rng, 1);
                let trace_id = match rng.below(3) {
                    0 => Value::from(format!("{:032x}", num(rng))),
                    1 => Value::from(pick(rng, WORDS)),
                    _ => draw_value(rng, 1),
                };
                map.insert("trace_id".to_string(), trace_id);
                if rng.below(2) == 1 {
                    map.insert("parent_span".to_string(), draw_value(rng, 1));
                }
                Value::Object(map)
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn event_shaped_values_decode_or_error(value in EventShaped) {
                decodes_cleanly(&value);
            }

            #[test]
            fn mutated_events_decode_or_error(event in ArbitraryEvent, seed in any::<u64>()) {
                decodes_cleanly(&mutate(&event, &mut TestRng::deterministic(seed, 0)));
            }

            #[test]
            fn generated_events_round_trip(event in ArbitraryEvent) {
                round_trips(&event);
            }

            #[test]
            fn context_shaped_values_parse_or_read_as_absent(
                trace_id in any::<u128>(),
                parent in (any::<bool>(), any::<u64>()),
                value in ContextShaped,
            ) {
                contexts_decode(trace_id, parent.0.then_some(parent.1), &value);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(200_000))]

            #[test]
            #[ignore = "long sweep; run with -- --ignored"]
            fn sweep_event_shaped_values(value in EventShaped) {
                decodes_cleanly(&value);
            }

            #[test]
            #[ignore = "long sweep; run with -- --ignored"]
            fn sweep_mutated_events(event in ArbitraryEvent, seed in any::<u64>()) {
                decodes_cleanly(&mutate(&event, &mut TestRng::deterministic(seed, 0)));
                round_trips(&event);
            }

            #[test]
            #[ignore = "long sweep; run with -- --ignored"]
            fn sweep_context_shaped_values(
                trace_id in any::<u128>(),
                parent in (any::<bool>(), any::<u64>()),
                value in ContextShaped,
            ) {
                contexts_decode(trace_id, parent.0.then_some(parent.1), &value);
            }
        }
    }
}
