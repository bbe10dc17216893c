//! The always-on flight recorder.
//!
//! A [`FlightRecorder`] is a lock-sharded, fixed-capacity ring of the
//! most recent [`TraceEvent`]s. It is cheap enough to leave attached to
//! a production daemon behind a [`crate::TeeRecorder`]: recording is one
//! atomic fetch-add plus one uncontended shard lock. The ring fills as
//! events arrive, so an idle daemon holds none of it, and once full it
//! overwrites its oldest events instead of growing. When something goes
//! wrong — a panic, a WAL degradation, an SLO burn — [`FlightRecorder::dump`]
//! snapshots the ring into well-formed `minobs/trace/v1` JSONL that
//! `trace_lint` accepts and `trace stitch` can merge with other nodes'
//! dumps, so the evidence for an incident survives the incident.
//!
//! Because the ring is bounded, a snapshot can catch span trees half
//! evicted or half written. The dump therefore runs a well-formedness
//! pass over the seq-ordered events: `span_end`s whose start was
//! overwritten are dropped, still-open spans are closed with a
//! synthesized `span_end` carrying `"truncated":true`, and unpaired
//! `svc_request`/`svc_response` halves are dropped. The pass makes every
//! dump a valid stream, not a best-effort fragment.
//!
//! The daemon's ring holds [`DEFAULT_FLIGHT_EVENTS`] events and sees
//! every event the daemon emits, the same ones a configured trace file
//! receives, so a dump is the recent tail of that stream. Without a
//! trace file it is the only record.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde_json::Value;

use crate::event::{Name, TraceEvent};
use crate::recorder::Recorder;

/// Ring capacity per node: the daemon's ring holds this many events.
pub const DEFAULT_FLIGHT_EVENTS: usize = 65_536;

/// Shard count: small enough that `dump` holding every lock is cheap,
/// large enough that concurrent workers rarely collide on one mutex.
const SHARDS: usize = 8;

/// One shard's ring: the slots filled so far (at most `cap`) plus a
/// write cursor. Slots are pushed until the ring is full, then
/// overwritten oldest-first.
#[derive(Debug)]
struct Ring {
    slots: Vec<(u64, TraceEvent)>,
    cap: usize,
    next: usize,
}

#[derive(Debug)]
struct Inner {
    seq: AtomicU64,
    shards: Vec<Mutex<Ring>>,
    /// Stamped on every dumped line, like `JsonlSink::set_node_id`.
    node_id: Option<String>,
}

/// Statistics and rendered JSONL from one [`FlightRecorder::dump`].
#[derive(Debug, Clone)]
pub struct FlightSnapshot {
    /// The dump: one `minobs/trace/v1` object per line, headed by a
    /// `flight_dump` meta line.
    pub jsonl: String,
    /// Event lines kept (header excluded).
    pub events: u64,
    /// Events discarded by the well-formedness pass.
    pub dropped: u64,
    /// Synthesized `span_end`s for spans still open at snapshot time.
    pub truncated: u64,
}

/// A cloneable handle to a shared flight-recorder ring.
///
/// Clones share the ring, so one clone can sit inside a
/// [`crate::TeeRecorder`] on the hot path while another serves `dump`
/// requests from a control thread.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

impl FlightRecorder {
    /// A ring holding at most `capacity` events (clamped to ≥ 8, one per shard),
    /// with no node stamp.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder::with_meta(capacity, None)
    }

    /// A ring that stamps `node_id` on dumped lines.
    pub fn with_meta(capacity: usize, node_id: Option<String>) -> FlightRecorder {
        let per_shard = capacity.max(SHARDS).div_ceil(SHARDS);
        let shards = (0..SHARDS)
            .map(|_| {
                Mutex::new(Ring {
                    slots: Vec::new(),
                    cap: per_shard,
                    next: 0,
                })
            })
            .collect();
        FlightRecorder {
            inner: Arc::new(Inner {
                seq: AtomicU64::new(0),
                shards,
                node_id: node_id.filter(|id| !id.is_empty()),
            }),
        }
    }

    /// Total ring capacity in events.
    pub fn capacity(&self) -> usize {
        SHARDS * lock(&self.inner.shards[0]).cap
    }

    /// Events recorded over the ring's lifetime (not the retained count).
    pub fn recorded(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    fn push_at(&self, seq: u64, event: TraceEvent) {
        let mut ring = lock(&self.inner.shards[(seq as usize) % SHARDS]);
        let at = ring.next;
        if ring.slots.len() < ring.cap {
            ring.slots.push((seq, event));
        } else {
            ring.slots[at] = (seq, event);
        }
        ring.next = (at + 1) % ring.cap;
    }

    /// Records one event.
    pub fn push(&self, event: TraceEvent) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        self.push_at(seq, event);
    }

    /// Records a block of events under one contiguous seq range, so a
    /// request's span tree stays un-interleaved with concurrent blocks
    /// when the dump re-sorts by seq.
    pub fn push_block(&self, events: &[TraceEvent]) {
        let base = self
            .inner
            .seq
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        for (offset, event) in events.iter().enumerate() {
            self.push_at(base + offset as u64, event.clone());
        }
    }

    /// Snapshots the ring into well-formed `minobs/trace/v1` JSONL.
    ///
    /// Acquires every shard lock in index order (writers only ever hold
    /// one, so this cannot deadlock), sorts the retained events by seq,
    /// then repairs ring-truncation damage: orphan `span_end`s and
    /// unpaired `svc_request`/`svc_response` halves are dropped, and
    /// spans still open at the end are closed with synthesized ends
    /// marked `"truncated":true`.
    pub fn dump(&self, reason: &str) -> FlightSnapshot {
        let mut entries: Vec<(u64, TraceEvent)> = Vec::new();
        {
            let guards: Vec<_> = self.inner.shards.iter().map(lock).collect();
            for guard in &guards {
                entries.extend(guard.slots.iter().cloned());
            }
        }
        entries.sort_by_key(|(seq, _)| *seq);

        // Pass 1: svc request/response pairing. Responses follow their
        // requests, so eviction can orphan either half; keep only seqs
        // present as a full pair.
        let mut req_seqs = std::collections::HashSet::new();
        let mut resp_seqs = std::collections::HashSet::new();
        for (_, event) in &entries {
            match event {
                TraceEvent::SvcRequest { seq, .. } => {
                    req_seqs.insert(*seq);
                }
                TraceEvent::SvcResponse { seq, .. } => {
                    resp_seqs.insert(*seq);
                }
                _ => {}
            }
        }

        // Pass 2: span bracketing over the seq-ordered stream. Blocks
        // recorded via `push_block` are contiguous, so a single stack
        // sees properly nested spans; an end with no matching open start
        // lost its start to eviction.
        let mut lines: Vec<Value> = Vec::new();
        let mut open: Vec<(u64, Name)> = Vec::new();
        let mut dropped = 0u64;
        for (_, event) in &entries {
            match event {
                TraceEvent::SpanStart { span_id, name, .. } => {
                    open.push((*span_id, name.clone()));
                    lines.push(event.to_json());
                }
                TraceEvent::SpanEnd { span_id, name, .. } => {
                    if open
                        .last()
                        .is_some_and(|(id, n)| id == span_id && n == name)
                    {
                        open.pop();
                        lines.push(event.to_json());
                    } else {
                        dropped += 1;
                    }
                }
                TraceEvent::SvcRequest { seq, .. } if !resp_seqs.contains(seq) => {
                    dropped += 1;
                }
                TraceEvent::SvcResponse { seq, .. } if !req_seqs.contains(seq) => {
                    dropped += 1;
                }
                _ => lines.push(event.to_json()),
            }
        }
        // Spans still open when the ring was snapshotted: close them
        // innermost-first with synthesized, explicitly-truncated ends so
        // the dump stays bracketed without inventing durations.
        let truncated = open.len() as u64;
        for (span_id, name) in open.into_iter().rev() {
            let mut end = TraceEvent::SpanEnd {
                round: 0,
                span_id,
                name,
                nanos: 0,
            }
            .to_json();
            if let Value::Object(map) = &mut end {
                map.insert("truncated".to_string(), Value::from(true));
            }
            lines.push(end);
        }

        let events = lines.len() as u64;
        let header = TraceEvent::FlightDump {
            reason: reason.to_string(),
            events,
            dropped,
            truncated,
        }
        .to_json();
        let mut jsonl = String::new();
        for mut line in std::iter::once(header).chain(lines) {
            if let (Some(node_id), Value::Object(map)) = (&self.inner.node_id, &mut line) {
                map.insert("node_id".to_string(), Value::from(node_id.as_str()));
            }
            jsonl.push_str(&serde_json::to_string(&line).unwrap_or_default());
            jsonl.push('\n');
        }
        FlightSnapshot {
            jsonl,
            events,
            dropped,
            truncated,
        }
    }
}

/// The hot-path integration: every event a tee forwards lands in the
/// ring.
impl Recorder for FlightRecorder {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.push(event);
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MessageStatus, SpanCtx};

    fn request(seq: u64) -> TraceEvent {
        TraceEvent::SvcRequest {
            seq,
            method: "stats".into(),
        }
    }

    fn response(seq: u64, nanos: u64) -> TraceEvent {
        TraceEvent::SvcResponse {
            seq,
            method: "stats".into(),
            ok: true,
            cache: "none",
            nanos,
        }
    }

    fn delivered(round: usize) -> TraceEvent {
        TraceEvent::Message {
            round,
            from: 0,
            to: 1,
            status: MessageStatus::Delivered,
        }
    }

    fn span_end(span_id: u64, name: &'static str, nanos: u64) -> TraceEvent {
        TraceEvent::SpanEnd {
            round: 0,
            span_id,
            name: name.into(),
            nanos,
        }
    }

    fn parse(jsonl: &str) -> Vec<Value> {
        jsonl
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect()
    }

    #[test]
    fn dump_is_headed_and_ordered() {
        let flight = FlightRecorder::new(64);
        let mut flight_rec = flight.clone();
        flight_rec.record(request(1));
        flight_rec.record(response(1, 10));
        let snap = flight.dump("rpc");
        let lines = parse(&snap.jsonl);
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0].get("event").and_then(Value::as_str),
            Some("flight_dump")
        );
        assert_eq!(lines[0].get("reason").and_then(Value::as_str), Some("rpc"));
        assert_eq!(lines[0].get("events").and_then(Value::as_u64), Some(2));
        assert_eq!(snap.events, 2);
        assert_eq!((snap.dropped, snap.truncated), (0, 0));
    }

    #[test]
    fn ring_overwrites_oldest_and_reports_capacity() {
        let flight = FlightRecorder::new(16);
        assert_eq!(flight.capacity(), 16);
        for round in 0..100 {
            flight.push(delivered(round));
        }
        assert_eq!(flight.recorded(), 100);
        let snap = flight.dump("rpc");
        assert_eq!(snap.events, 16);
        let lines = parse(&snap.jsonl);
        // Only the newest 16 survive, still in emission order.
        let rounds: Vec<u64> = lines[1..]
            .iter()
            .map(|l| l.get("round").and_then(Value::as_u64).unwrap())
            .collect();
        assert_eq!(rounds, (84..100).collect::<Vec<u64>>());
    }

    #[test]
    fn open_spans_get_synthesized_truncated_ends() {
        let flight = FlightRecorder::new(64);
        flight.push_block(&[
            TraceEvent::SpanStart {
                round: 0,
                span_id: 7,
                parent: None,
                name: "rpc.check".into(),
                ctx: SpanCtx::boxed(Some(0xabc), None),
            },
            TraceEvent::SpanStart {
                round: 0,
                span_id: 8,
                parent: Some(7),
                name: "check.eval".into(),
                ctx: None,
            },
        ]);
        let snap = flight.dump("panic");
        assert_eq!(snap.truncated, 2);
        let lines = parse(&snap.jsonl);
        // Innermost closes first, so the dump stays properly bracketed.
        let tail: Vec<(&str, u64, bool)> = lines[3..]
            .iter()
            .map(|l| {
                (
                    l.get("name").and_then(Value::as_str).unwrap(),
                    l.get("span_id").and_then(Value::as_u64).unwrap(),
                    l.get("truncated").and_then(Value::as_bool).unwrap(),
                )
            })
            .collect();
        assert_eq!(tail, vec![("check.eval", 8, true), ("rpc.check", 7, true)]);
    }

    #[test]
    fn orphan_span_ends_and_unpaired_svc_halves_are_dropped() {
        let flight = FlightRecorder::new(64);
        let mut rec = flight.clone();
        // An end whose start was (notionally) evicted.
        rec.record(span_end(99, "lost", 5));
        // A request whose response never arrived, and vice versa.
        rec.record(request(1));
        rec.record(response(2, 3));
        let snap = flight.dump("rpc");
        assert_eq!(snap.events, 0);
        assert_eq!(snap.dropped, 3);
    }

    #[test]
    fn eviction_of_a_span_start_drops_its_end() {
        // Capacity 8: one balanced pair recorded early gets half evicted
        // by later traffic; the dump must not keep the dangling end.
        let flight = FlightRecorder::new(8);
        let mut rec = flight.clone();
        rec.record(TraceEvent::SpanStart {
            round: 0,
            span_id: 1,
            parent: None,
            name: "early".into(),
            ctx: None,
        });
        for round in 0..7 {
            rec.record(delivered(round));
        }
        // The start is now the oldest slot; two more events evict it
        // (shard rings overwrite their own oldest residue class).
        rec.record(span_end(1, "early", 10));
        for round in 7..20 {
            rec.record(delivered(round));
        }
        let snap = flight.dump("rpc");
        let lines = parse(&snap.jsonl);
        for line in &lines[1..] {
            assert_ne!(
                line.get("event").and_then(Value::as_str),
                Some("span_end"),
                "dangling span_end survived: {line:?}"
            );
        }
    }

    #[test]
    fn dump_stamps_node_id_on_every_line() {
        let flight = FlightRecorder::with_meta(32, Some("127.0.0.1:7400".to_string()));
        flight.push(TraceEvent::Health {
            status: "ok".to_string(),
            ready: true,
            live: true,
        });
        let lines = parse(&flight.dump("health_edge").jsonl);
        for line in &lines {
            assert_eq!(
                line.get("node_id").and_then(Value::as_str),
                Some("127.0.0.1:7400")
            );
        }
    }

    #[test]
    fn concurrent_dump_during_heavy_recording_never_tears_a_block() {
        let flight = FlightRecorder::new(256);
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let flight = flight.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let span_id = w * 10_000 + i;
                        flight.push_block(&[
                            TraceEvent::SpanStart {
                                round: 0,
                                span_id,
                                parent: None,
                                name: format!("worker{w}").into(),
                                ctx: None,
                            },
                            TraceEvent::SpanEnd {
                                round: 0,
                                span_id,
                                name: format!("worker{w}").into(),
                                nanos: 1,
                            },
                        ]);
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            let snap = flight.dump("rpc");
            // Every dump taken mid-storm is balanced: starts and kept
            // ends pair off, possibly with synthesized closers.
            let lines = parse(&snap.jsonl);
            let mut depth = 0i64;
            for line in &lines[1..] {
                match line.get("event").and_then(Value::as_str) {
                    Some("span_start") => depth += 1,
                    Some("span_end") => depth -= 1,
                    _ => {}
                }
                assert!(depth >= 0, "dump closed more spans than it opened");
            }
            assert_eq!(depth, 0, "dump left spans unbalanced");
        }
        for writer in writers {
            writer.join().unwrap();
        }
    }

    /// The rounds of the `message` lines in a dump, in dump order.
    fn dumped_rounds(flight: &FlightRecorder) -> Vec<u64> {
        parse(&flight.dump("rpc").jsonl)[1..]
            .iter()
            .map(|l| l.get("round").and_then(Value::as_u64).unwrap())
            .collect()
    }

    #[test]
    fn fresh_ring_holds_no_slots_yet_reports_its_capacity() {
        let flight = FlightRecorder::new(1 << 20);
        assert_eq!(flight.capacity(), 1 << 20);
        for shard in &flight.inner.shards {
            let ring = lock(shard);
            assert_eq!((ring.slots.len(), ring.slots.capacity()), (0, 0));
        }
        assert_eq!(flight.dump("rpc").events, 0);
    }

    #[test]
    fn partly_filled_ring_dumps_every_event_in_seq_order() {
        for n in 0..64u64 {
            let flight = FlightRecorder::new(64);
            for round in 0..n {
                flight.push(delivered(round as usize));
            }
            assert_eq!(
                dumped_rounds(&flight),
                (0..n).collect::<Vec<u64>>(),
                "n {n}"
            );
            let held: usize = flight
                .inner
                .shards
                .iter()
                .map(|s| lock(s).slots.len())
                .sum();
            assert_eq!(held, n as usize);
            assert_eq!(flight.capacity(), 64);
        }
    }

    #[test]
    fn overfilled_ring_dumps_exactly_the_newest_capacity() {
        for extra in 0..=3 * 64u64 {
            let flight = FlightRecorder::new(64);
            let n = 64 + extra;
            for round in 0..n {
                flight.push(delivered(round as usize));
            }
            assert_eq!(
                dumped_rounds(&flight),
                (extra..n).collect::<Vec<u64>>(),
                "extra {extra}"
            );
            for shard in &flight.inner.shards {
                assert_eq!(lock(shard).slots.len(), 8);
            }
        }
    }

    #[test]
    fn blocks_stay_contiguous_across_the_fill() {
        // Capacity 16 is not a multiple of the block length, so the
        // moment the ring fills and later evictions both cut blocks.
        let flight = FlightRecorder::new(16);
        for b in 0..20u64 {
            flight.push_block(&[
                TraceEvent::SpanStart {
                    round: 0,
                    span_id: b,
                    parent: None,
                    name: "block".into(),
                    ctx: None,
                },
                delivered(b as usize),
                span_end(b, "block", 1),
            ]);
            let snap = flight.dump("rpc");
            assert_eq!(snap.truncated, 0, "block {b}");
            let lines = parse(&snap.jsonl);
            let events: Vec<(&str, u64)> = lines[1..]
                .iter()
                .map(|l| {
                    let event = l.get("event").and_then(Value::as_str).unwrap();
                    let key = if event == "message" {
                        "round"
                    } else {
                        "span_id"
                    };
                    (event, l.get(key).and_then(Value::as_u64).unwrap())
                })
                .collect();
            let mut whole = 0;
            for (at, &(event, id)) in events.iter().enumerate() {
                if event == "span_start" {
                    assert_eq!(
                        events[at + 1..at + 3],
                        [("message", id), ("span_end", id)],
                        "block {id} torn after {b} blocks"
                    );
                    whole += 1;
                }
            }
            // Seqs 3(b+1)-16.. survive: the newest five blocks whole.
            assert_eq!(whole, (b + 1).min(5), "after {b} blocks");
        }
    }

    /// The dump of a fixed sequence that overwrites the ring, orphans a
    /// response and leaves a span open, byte for byte.
    #[test]
    fn dump_bytes_match_the_golden_jsonl() {
        let flight = FlightRecorder::with_meta(16, Some("node-a".to_string()));
        for seq in 0..4u64 {
            let root = seq << 20;
            flight.push(TraceEvent::SvcRequest {
                seq,
                method: "check_horizon".into(),
            });
            flight.push_block(&[
                TraceEvent::SpanStart {
                    round: 0,
                    span_id: root,
                    parent: None,
                    name: "rpc.check_horizon".into(),
                    ctx: SpanCtx::boxed(Some(0xabc + u128::from(seq)), (seq % 2 == 1).then_some(7)),
                },
                TraceEvent::SpanStart {
                    round: 0,
                    span_id: root + 1,
                    parent: Some(root),
                    name: "check.eval".into(),
                    ctx: None,
                },
                span_end(root + 1, "check.eval", 40 + seq),
                span_end(root, "rpc.check_horizon", 100 + seq),
            ]);
            flight.push(TraceEvent::SvcResponse {
                seq,
                method: "check_horizon".into(),
                ok: seq != 2,
                cache: "miss",
                nanos: 120 + seq,
            });
        }
        flight.push(TraceEvent::SpanStart {
            round: 0,
            span_id: 9 << 20,
            parent: None,
            name: "gossip.exchange".into(),
            ctx: SpanCtx::boxed(None, Some(3)),
        });
        flight.push(TraceEvent::SvcRequest {
            seq: 4,
            method: "unknown".into(),
        });
        flight.push(TraceEvent::SvcResponse {
            seq: 4,
            method: "unknown".into(),
            ok: false,
            cache: "none",
            nanos: 5,
        });
        let golden = r#"{"schema":"minobs/trace/v1","event":"flight_dump","round":0,"reason":"rpc","events":16,"dropped":1,"truncated":1,"node_id":"node-a"}
{"schema":"minobs/trace/v1","event":"svc_request","round":0,"seq":2,"method":"check_horizon","node_id":"node-a"}
{"schema":"minobs/trace/v1","event":"span_start","round":0,"span_id":2097152,"parent":null,"name":"rpc.check_horizon","trace_id":"00000000000000000000000000000abe","node_id":"node-a"}
{"schema":"minobs/trace/v1","event":"span_start","round":0,"span_id":2097153,"parent":2097152,"name":"check.eval","node_id":"node-a"}
{"schema":"minobs/trace/v1","event":"span_end","round":0,"span_id":2097153,"name":"check.eval","nanos":42,"node_id":"node-a"}
{"schema":"minobs/trace/v1","event":"span_end","round":0,"span_id":2097152,"name":"rpc.check_horizon","nanos":102,"node_id":"node-a"}
{"schema":"minobs/trace/v1","event":"svc_response","round":0,"seq":2,"method":"check_horizon","ok":false,"cache":"miss","nanos":122,"node_id":"node-a"}
{"schema":"minobs/trace/v1","event":"svc_request","round":0,"seq":3,"method":"check_horizon","node_id":"node-a"}
{"schema":"minobs/trace/v1","event":"span_start","round":0,"span_id":3145728,"parent":null,"name":"rpc.check_horizon","trace_id":"00000000000000000000000000000abf","ctx_parent":7,"node_id":"node-a"}
{"schema":"minobs/trace/v1","event":"span_start","round":0,"span_id":3145729,"parent":3145728,"name":"check.eval","node_id":"node-a"}
{"schema":"minobs/trace/v1","event":"span_end","round":0,"span_id":3145729,"name":"check.eval","nanos":43,"node_id":"node-a"}
{"schema":"minobs/trace/v1","event":"span_end","round":0,"span_id":3145728,"name":"rpc.check_horizon","nanos":103,"node_id":"node-a"}
{"schema":"minobs/trace/v1","event":"svc_response","round":0,"seq":3,"method":"check_horizon","ok":true,"cache":"miss","nanos":123,"node_id":"node-a"}
{"schema":"minobs/trace/v1","event":"span_start","round":0,"span_id":9437184,"parent":null,"name":"gossip.exchange","ctx_parent":3,"node_id":"node-a"}
{"schema":"minobs/trace/v1","event":"svc_request","round":0,"seq":4,"method":"unknown","node_id":"node-a"}
{"schema":"minobs/trace/v1","event":"svc_response","round":0,"seq":4,"method":"unknown","ok":false,"cache":"none","nanos":5,"node_id":"node-a"}
{"schema":"minobs/trace/v1","event":"span_end","round":0,"span_id":9437184,"name":"gossip.exchange","nanos":0,"truncated":true,"node_id":"node-a"}
"#;
        assert_eq!(flight.dump("rpc").jsonl, golden);
    }
}
