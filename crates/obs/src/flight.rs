//! The always-on flight recorder.
//!
//! A [`FlightRecorder`] is a lock-sharded, fixed-capacity ring of the
//! most recent [`TraceEvent`]s. It is cheap enough to leave attached to
//! a production daemon behind a [`crate::TeeRecorder`]: recording is one
//! atomic fetch-add, one uncontended shard lock and a few dozen bytes of
//! encoding. The ring fills as events arrive, so an idle daemon holds
//! none of it, and once full it overwrites its oldest events instead of
//! growing. When something goes wrong — a panic, a WAL degradation, an
//! SLO burn — [`FlightRecorder::dump`] snapshots the ring into
//! well-formed `minobs/trace/v1` JSONL that `trace_lint` accepts and
//! `trace stitch` can merge with other nodes' dumps, so the evidence for
//! an incident survives the incident.
//!
//! A shard keeps its events as encoded records, not as `TraceEvent`
//! values: the event's seq, a tag byte, then its fields, with integers
//! as LEB128 varints, owned strings inline behind their length, and
//! `'static` labels (span names, methods, `cache`, `op`, `engine`) as an
//! index into the shard's label table, so they decode borrowed again.
//! A full ring of `hit` requests stores 13.2 bytes an event (a
//! `TraceEvent` value alone is 72), so the daemon's full ring holds
//! 0.83 MiB of records in 1 MiB of buffers. Capacity is counted in
//! events, and the dump decodes to the very events that were pushed.
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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde_json::Value;

use crate::event::{MessageStatus, Name, RoundCounts, SpanCtx, TraceEvent};
use crate::recorder::Recorder;

/// Ring capacity per node: the daemon's ring holds this many events.
pub const DEFAULT_FLIGHT_EVENTS: usize = 65_536;

/// Shard count: small enough that `dump` holding every lock is cheap,
/// large enough that concurrent workers rarely collide on one mutex.
const SHARDS: usize = 8;

/// Bytes a shard reserves for its records on its first push; later
/// growth doubles. A ring of up to a few thousand events never grows
/// past this first block, whatever mix of events it holds.
const FIRST_BLOCK: usize = 4096;

/// Bytes a shard reserves for encoding one record, on its first push.
/// Only a record carrying a longer owned string grows it.
const RECORD_RESERVE: usize = 256;

/// Labels a shard's table reserves when it interns its first.
const LABELS_RESERVE: usize = 32;

/// One shard's ring: its events as encoded records, oldest first. A
/// record is pushed until the ring holds `cap`, then each push evicts
/// the oldest.
#[derive(Debug)]
struct Ring {
    /// Records back to back, each its body's length as a varint, then
    /// the body: the event's seq, then the event (see [`Encoder`]).
    records: VecDeque<u8>,
    /// Records held, at most `cap`.
    len: usize,
    cap: usize,
    /// The `'static` labels records refer to by index. Entries are never
    /// removed, so the table holds each label the shard has seen once.
    labels: Vec<&'static str>,
    /// The record being encoded, reused across pushes.
    scratch: Vec<u8>,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            records: VecDeque::new(),
            len: 0,
            cap,
            labels: Vec::new(),
            scratch: Vec::new(),
        }
    }

    fn push(&mut self, seq: u64, event: &TraceEvent) {
        if self.records.capacity() == 0 {
            self.records.reserve_exact(FIRST_BLOCK);
            self.scratch.reserve_exact(RECORD_RESERVE);
            self.labels.reserve_exact(LABELS_RESERVE);
        }
        self.scratch.clear();
        let mut body = Encoder {
            out: &mut self.scratch,
            labels: &mut self.labels,
        };
        body.u64(seq);
        body.event(event);
        if self.len == self.cap {
            self.evict_oldest();
        } else {
            self.len += 1;
        }
        leb128(self.scratch.len() as u64, |byte| {
            self.records.push_back(byte)
        });
        self.records.extend(&self.scratch);
    }

    fn evict_oldest(&mut self) {
        let (mut body, mut head) = (0usize, 0);
        for &byte in &self.records {
            body |= usize::from(byte & 0x7f) << (7 * head);
            head += 1;
            if byte < 0x80 {
                break;
            }
        }
        self.records.drain(..head + body);
    }

    /// A copy of the records, contiguous, and of the labels they index.
    fn copy(&self) -> (Vec<u8>, Vec<&'static str>) {
        let (front, back) = self.records.as_slices();
        ([front, back].concat(), self.labels.clone())
    }
}

/// Writes `value` as an unsigned LEB128 varint, low seven bits first.
fn leb128(mut value: u64, mut put: impl FnMut(u8)) {
    while value >= 0x80 {
        put(value as u8 | 0x80);
        value >>= 7;
    }
    put(value as u8);
}

/// Encodes one record body into `out`, interning labels into `labels`.
struct Encoder<'a> {
    out: &'a mut Vec<u8>,
    labels: &'a mut Vec<&'static str>,
}

impl Encoder<'_> {
    fn byte(&mut self, byte: u8) {
        self.out.push(byte);
    }

    fn u64(&mut self, value: u64) {
        leb128(value, |byte| self.out.push(byte));
    }

    fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }

    fn bool(&mut self, value: bool) {
        self.byte(u8::from(value));
    }

    fn option(&mut self, value: Option<u64>) {
        match value {
            Some(value) => {
                self.byte(1);
                self.u64(value);
            }
            None => self.byte(0),
        }
    }

    fn text(&mut self, text: &str) {
        self.usize(text.len());
        self.out.extend_from_slice(text.as_bytes());
    }

    /// The label's index in the table, added on first sight.
    fn intern(&mut self, label: &'static str) -> usize {
        let labels = &mut *self.labels;
        labels
            .iter()
            .position(|&known| std::ptr::eq(known, label))
            .or_else(|| labels.iter().position(|&known| known == label))
            .unwrap_or_else(|| {
                labels.push(label);
                labels.len() - 1
            })
    }

    fn label(&mut self, label: &'static str) {
        let at = self.intern(label);
        self.usize(at);
    }

    /// A borrowed name as its label index shifted left once, an owned
    /// one as its length shifted left once with the low bit set, then
    /// its bytes.
    fn name(&mut self, name: &Name) {
        match name.as_static() {
            Some(label) => {
                let at = self.intern(label);
                self.u64((at as u64) << 1);
            }
            None => {
                let text = name.as_str();
                self.u64(((text.len() as u64) << 1) | 1);
                self.out.extend_from_slice(text.as_bytes());
            }
        }
    }

    fn counts(&mut self, counts: &RoundCounts) {
        self.usize(counts.sent);
        self.usize(counts.delivered);
        self.usize(counts.dropped);
        self.usize(counts.misaddressed);
    }

    /// A flags byte (bit 0: present, bit 1: `trace_id`, bit 2:
    /// `ctx_parent`), then the fields present.
    fn ctx(&mut self, ctx: Option<&SpanCtx>) {
        let Some(ctx) = ctx else {
            return self.byte(0);
        };
        self.byte(
            1 | (u8::from(ctx.trace_id.is_some()) << 1) | (u8::from(ctx.ctx_parent.is_some()) << 2),
        );
        if let Some(trace_id) = ctx.trace_id {
            self.out.extend_from_slice(&trace_id.to_le_bytes());
        }
        if let Some(ctx_parent) = ctx.ctx_parent {
            self.u64(ctx_parent);
        }
    }

    /// The variant's tag, then its fields in declaration order.
    fn event(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::RunStart {
                engine,
                nodes,
                threads,
            } => {
                self.byte(0);
                self.label(engine);
                self.usize(*nodes);
                self.usize(*threads);
            }
            TraceEvent::Message {
                round,
                from,
                to,
                status,
            } => {
                self.byte(1);
                self.usize(*round);
                self.usize(*from);
                self.usize(*to);
                self.byte(*status as u8);
            }
            TraceEvent::Decision { round, node, value } => {
                self.byte(2);
                self.usize(*round);
                self.usize(*node);
                self.u64(*value);
            }
            TraceEvent::RoundEnd {
                round,
                counts,
                nanos,
            } => {
                self.byte(3);
                self.usize(*round);
                self.counts(counts);
                self.u64(*nanos);
            }
            TraceEvent::SpanStart {
                round,
                span_id,
                parent,
                name,
                ctx,
            } => {
                self.byte(4);
                self.usize(*round);
                self.u64(*span_id);
                self.option(*parent);
                self.name(name);
                self.ctx(ctx.as_deref());
            }
            TraceEvent::SpanEnd {
                round,
                span_id,
                name,
                nanos,
            } => {
                self.byte(5);
                self.usize(*round);
                self.u64(*span_id);
                self.name(name);
                self.u64(*nanos);
            }
            TraceEvent::CheckerProgress {
                round,
                frontier,
                states,
            } => {
                self.byte(6);
                self.usize(*round);
                self.usize(*frontier);
                self.usize(*states);
            }
            TraceEvent::CheckerRound {
                round,
                frontier,
                views,
                nanos,
            } => {
                self.byte(7);
                self.usize(*round);
                self.usize(*frontier);
                self.usize(*views);
                self.u64(*nanos);
            }
            TraceEvent::Horizon {
                horizon,
                solvable,
                nanos,
            } => {
                self.byte(8);
                self.usize(*horizon);
                self.bool(*solvable);
                self.u64(*nanos);
            }
            TraceEvent::BudgetExhausted {
                horizon,
                frontier,
                states,
            } => {
                self.byte(9);
                self.usize(*horizon);
                self.usize(*frontier);
                self.usize(*states);
            }
            TraceEvent::RunEnd {
                rounds,
                totals,
                nanos,
            } => {
                self.byte(10);
                self.usize(*rounds);
                self.counts(totals);
                self.u64(*nanos);
            }
            TraceEvent::SvcRequest { seq, method } => {
                self.byte(11);
                self.u64(*seq);
                self.name(method);
            }
            TraceEvent::SvcResponse {
                seq,
                method,
                ok,
                cache,
                nanos,
            } => {
                self.byte(12);
                self.u64(*seq);
                self.name(method);
                self.bool(*ok);
                self.label(cache);
                self.u64(*nanos);
            }
            TraceEvent::WalAppend { op, key, bytes } => {
                self.byte(13);
                self.label(op);
                self.text(key);
                self.u64(*bytes);
            }
            TraceEvent::WalReplay {
                records,
                bytes,
                dropped_tail,
            } => {
                self.byte(14);
                self.u64(*records);
                self.u64(*bytes);
                self.bool(*dropped_tail);
            }
            TraceEvent::WalDegraded { error } => {
                self.byte(15);
                self.text(error);
            }
            TraceEvent::GossipRound {
                peer,
                sent,
                received,
                nanos,
            } => {
                self.byte(16);
                self.text(peer);
                self.u64(*sent);
                self.u64(*received);
                self.u64(*nanos);
            }
            TraceEvent::GossipApply {
                peer,
                op,
                key,
                accepted,
            } => {
                self.byte(17);
                self.text(peer);
                self.label(op);
                self.text(key);
                self.bool(*accepted);
            }
            TraceEvent::PeerDown { peer, failures } => {
                self.byte(18);
                self.text(peer);
                self.u64(*failures);
            }
            TraceEvent::Health {
                status,
                ready,
                live,
            } => {
                self.byte(19);
                self.text(status);
                self.bool(*ready);
                self.bool(*live);
            }
            TraceEvent::FlightDump {
                reason,
                events,
                dropped,
                truncated,
            } => {
                self.byte(20);
                self.text(reason);
                self.u64(*events);
                self.u64(*dropped);
                self.u64(*truncated);
            }
        }
    }
}

/// Reads record bodies back: the inverse of [`Encoder`]. Every read is
/// `None` on input [`Encoder`] cannot have written.
struct Decoder<'a> {
    input: &'a [u8],
    labels: &'a [&'static str],
}

impl<'a> Decoder<'a> {
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let bytes = self.input.get(..n)?;
        self.input = &self.input[n..];
        Some(bytes)
    }

    fn byte(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }

    fn u64(&mut self) -> Option<u64> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            value |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return Some(value);
            }
        }
        None
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    fn bool(&mut self) -> Option<bool> {
        Some(self.byte()? != 0)
    }

    fn option(&mut self) -> Option<Option<u64>> {
        match self.byte()? {
            0 => Some(None),
            _ => self.u64().map(Some),
        }
    }

    fn str(&mut self, len: usize) -> Option<&'a str> {
        std::str::from_utf8(self.bytes(len)?).ok()
    }

    fn text(&mut self) -> Option<String> {
        let len = self.usize()?;
        self.str(len).map(str::to_string)
    }

    fn label(&mut self) -> Option<&'static str> {
        self.labels.get(self.usize()?).copied()
    }

    fn name(&mut self) -> Option<Name> {
        let head = self.usize()?;
        match head & 1 {
            0 => self.labels.get(head >> 1).copied().map(Name::from),
            _ => self.str(head >> 1).map(|text| Name::from(text.to_string())),
        }
    }

    fn counts(&mut self) -> Option<RoundCounts> {
        Some(RoundCounts {
            sent: self.usize()?,
            delivered: self.usize()?,
            dropped: self.usize()?,
            misaddressed: self.usize()?,
        })
    }

    fn ctx(&mut self) -> Option<Option<Box<SpanCtx>>> {
        let flags = self.byte()?;
        if flags == 0 {
            return Some(None);
        }
        let trace_id = match flags & 2 {
            0 => None,
            _ => Some(u128::from_le_bytes(self.bytes(16)?.try_into().ok()?)),
        };
        let ctx_parent = match flags & 4 {
            0 => None,
            _ => Some(self.u64()?),
        };
        Some(Some(Box::new(SpanCtx {
            trace_id,
            ctx_parent,
        })))
    }

    fn event(&mut self) -> Option<TraceEvent> {
        Some(match self.byte()? {
            0 => TraceEvent::RunStart {
                engine: self.label()?,
                nodes: self.usize()?,
                threads: self.usize()?,
            },
            1 => TraceEvent::Message {
                round: self.usize()?,
                from: self.usize()?,
                to: self.usize()?,
                status: match self.byte()? {
                    0 => MessageStatus::Delivered,
                    1 => MessageStatus::Dropped,
                    2 => MessageStatus::Misaddressed,
                    _ => return None,
                },
            },
            2 => TraceEvent::Decision {
                round: self.usize()?,
                node: self.usize()?,
                value: self.u64()?,
            },
            3 => TraceEvent::RoundEnd {
                round: self.usize()?,
                counts: self.counts()?,
                nanos: self.u64()?,
            },
            4 => TraceEvent::SpanStart {
                round: self.usize()?,
                span_id: self.u64()?,
                parent: self.option()?,
                name: self.name()?,
                ctx: self.ctx()?,
            },
            5 => TraceEvent::SpanEnd {
                round: self.usize()?,
                span_id: self.u64()?,
                name: self.name()?,
                nanos: self.u64()?,
            },
            6 => TraceEvent::CheckerProgress {
                round: self.usize()?,
                frontier: self.usize()?,
                states: self.usize()?,
            },
            7 => TraceEvent::CheckerRound {
                round: self.usize()?,
                frontier: self.usize()?,
                views: self.usize()?,
                nanos: self.u64()?,
            },
            8 => TraceEvent::Horizon {
                horizon: self.usize()?,
                solvable: self.bool()?,
                nanos: self.u64()?,
            },
            9 => TraceEvent::BudgetExhausted {
                horizon: self.usize()?,
                frontier: self.usize()?,
                states: self.usize()?,
            },
            10 => TraceEvent::RunEnd {
                rounds: self.usize()?,
                totals: self.counts()?,
                nanos: self.u64()?,
            },
            11 => TraceEvent::SvcRequest {
                seq: self.u64()?,
                method: self.name()?,
            },
            12 => TraceEvent::SvcResponse {
                seq: self.u64()?,
                method: self.name()?,
                ok: self.bool()?,
                cache: self.label()?,
                nanos: self.u64()?,
            },
            13 => TraceEvent::WalAppend {
                op: self.label()?,
                key: self.text()?,
                bytes: self.u64()?,
            },
            14 => TraceEvent::WalReplay {
                records: self.u64()?,
                bytes: self.u64()?,
                dropped_tail: self.bool()?,
            },
            15 => TraceEvent::WalDegraded {
                error: self.text()?,
            },
            16 => TraceEvent::GossipRound {
                peer: self.text()?,
                sent: self.u64()?,
                received: self.u64()?,
                nanos: self.u64()?,
            },
            17 => TraceEvent::GossipApply {
                peer: self.text()?,
                op: self.label()?,
                key: self.text()?,
                accepted: self.bool()?,
            },
            18 => TraceEvent::PeerDown {
                peer: self.text()?,
                failures: self.u64()?,
            },
            19 => TraceEvent::Health {
                status: self.text()?,
                ready: self.bool()?,
                live: self.bool()?,
            },
            20 => TraceEvent::FlightDump {
                reason: self.text()?,
                events: self.u64()?,
                dropped: self.u64()?,
                truncated: self.u64()?,
            },
            _ => return None,
        })
    }
}

/// Decodes a shard's records, in order, onto `entries`.
fn decode_records(records: &[u8], labels: &[&'static str], entries: &mut Vec<(u64, TraceEvent)>) {
    let mut records = Decoder {
        input: records,
        labels,
    };
    while !records.input.is_empty() {
        let entry = records.usize().and_then(|len| {
            let mut body = Decoder {
                input: records.bytes(len)?,
                labels,
            };
            let entry = (body.u64()?, body.event()?);
            body.input.is_empty().then_some(entry)
        });
        entries.push(entry.expect("a flight record decodes to the event it encodes"));
    }
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
            .map(|_| Mutex::new(Ring::new(per_shard)))
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

    fn push_at(&self, seq: u64, event: &TraceEvent) {
        lock(&self.inner.shards[(seq as usize) % SHARDS]).push(seq, event);
    }

    /// Records one event.
    pub fn push(&self, event: TraceEvent) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        self.push_at(seq, &event);
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
            self.push_at(base + offset as u64, event);
        }
    }

    /// Snapshots the ring into well-formed `minobs/trace/v1` JSONL.
    ///
    /// Acquires every shard lock in index order (writers only ever hold
    /// one, so this cannot deadlock) just long enough to copy the
    /// shards' records out, decodes them with the locks released, sorts
    /// the events by seq, then repairs ring-truncation damage: orphan
    /// `span_end`s and unpaired `svc_request`/`svc_response` halves are
    /// dropped, and spans still open at the end are closed with
    /// synthesized ends marked `"truncated":true`.
    pub fn dump(&self, reason: &str) -> FlightSnapshot {
        let copies: Vec<_> = {
            let guards: Vec<_> = self.inner.shards.iter().map(lock).collect();
            guards.iter().map(|ring| ring.copy()).collect()
        };
        let mut entries: Vec<(u64, TraceEvent)> = Vec::new();
        for (records, labels) in &copies {
            decode_records(records, labels, &mut entries);
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

    /// The events a shard holds, decoded from its records.
    fn decoded(shard: &Mutex<Ring>) -> Vec<(u64, TraceEvent)> {
        let (records, labels) = lock(shard).copy();
        let mut entries = Vec::new();
        decode_records(&records, &labels, &mut entries);
        assert_eq!(entries.len(), lock(shard).len);
        entries
    }

    #[test]
    fn fresh_ring_holds_no_slots_yet_reports_its_capacity() {
        let flight = FlightRecorder::new(1 << 20);
        assert_eq!(flight.capacity(), 1 << 20);
        for shard in &flight.inner.shards {
            let ring = lock(shard);
            assert_eq!((ring.len, ring.records.len()), (0, 0));
            assert_eq!(
                (
                    ring.records.capacity(),
                    ring.labels.capacity(),
                    ring.scratch.capacity()
                ),
                (0, 0, 0)
            );
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
            let held: usize = flight.inner.shards.iter().map(|s| decoded(s).len()).sum();
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
                assert_eq!(decoded(shard).len(), 8);
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

    /// One `hit` request as the daemon records it: the request, its root
    /// span pair and the response.
    fn hit_request(seq: u64) -> [TraceEvent; 4] {
        [
            TraceEvent::SvcRequest {
                seq,
                method: "check_horizon".into(),
            },
            TraceEvent::SpanStart {
                round: 0,
                span_id: seq << 20,
                parent: None,
                name: "rpc.check_horizon".into(),
                ctx: None,
            },
            span_end(seq << 20, "rpc.check_horizon", 85_000 + seq % 10_000),
            TraceEvent::SvcResponse {
                seq,
                method: "check_horizon".into(),
                ok: true,
                cache: "hit",
                nanos: 90_000 + seq % 10_000,
            },
        ]
    }

    #[test]
    fn a_full_ring_of_hit_requests_stores_at_most_32_bytes_an_event() {
        let flight = FlightRecorder::new(DEFAULT_FLIGHT_EVENTS);
        // A daemon a million requests in, so seqs and span ids are long.
        let first = 1 << 20;
        for seq in first..first + (DEFAULT_FLIGHT_EVENTS / 4) as u64 {
            let [request, start, end, response] = hit_request(seq);
            flight.push(request);
            flight.push_block(&[start, end]);
            flight.push(response);
        }
        let (events, bytes) = flight.inner.shards.iter().fold((0, 0), |(n, b), shard| {
            let ring = lock(shard);
            (n + ring.len, b + ring.records.len())
        });
        assert_eq!(events, DEFAULT_FLIGHT_EVENTS);
        assert!(
            bytes <= 32 * events,
            "{bytes} bytes hold {events} events ({:.1} B/event)",
            bytes as f64 / events as f64
        );
        assert_eq!(flight.dump("rpc").events, DEFAULT_FLIGHT_EVENTS as u64);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use proptest::TestRng;

        /// Characters that stress the codec and the dump's JSON: escapes,
        /// control characters and multi-byte text.
        const CHARS: &[char] = &['a', 'Z', ' ', '"', '\\', '\n', '\u{0}', '\u{1f}', 'é', '😀'];

        /// `'static` labels, two of them equal in text.
        const LABELS: &[&str] = &["rpc.check_horizon", "check.eval", "hit", "", "é😀\"", "hit"];

        fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
            from[rng.below(from.len() as u64) as usize]
        }

        /// A `u64` of random magnitude, the extremes included.
        fn num(rng: &mut TestRng) -> u64 {
            match rng.below(8) {
                0 => u64::MAX,
                1 => 0,
                _ => rng.next_u64() >> rng.below(64),
            }
        }

        fn size(rng: &mut TestRng) -> usize {
            match rng.below(8) {
                0 => usize::MAX,
                _ => num(rng) as usize,
            }
        }

        /// Owned text, now and then long enough that its length takes
        /// two varint bytes.
        fn text(rng: &mut TestRng) -> String {
            let len = match rng.below(8) {
                0 => 40 + rng.below(60),
                _ => rng.below(8),
            };
            (0..len).map(|_| pick(rng, CHARS)).collect()
        }

        fn name(rng: &mut TestRng) -> Name {
            match rng.below(2) {
                0 => Name::from(pick(rng, LABELS)),
                _ => Name::from(text(rng)),
            }
        }

        fn opt(rng: &mut TestRng) -> Option<u64> {
            (rng.below(2) == 1).then(|| num(rng))
        }

        fn counts(rng: &mut TestRng) -> RoundCounts {
            RoundCounts {
                sent: size(rng),
                delivered: size(rng),
                dropped: size(rng),
                misaddressed: size(rng),
            }
        }

        fn ctx(rng: &mut TestRng) -> Option<Box<SpanCtx>> {
            let trace_id = match rng.below(3) {
                0 => None,
                1 => Some(u128::MAX),
                _ => Some((u128::from(num(rng)) << 64) | u128::from(rng.next_u64())),
            };
            let ctx_parent = opt(rng);
            match rng.below(4) {
                // Both fields absent but boxed: a value only a direct
                // construction makes, kept distinct from `None`.
                0 => Some(Box::new(SpanCtx {
                    trace_id: None,
                    ctx_parent: None,
                })),
                _ => SpanCtx::boxed(trace_id, ctx_parent),
            }
        }

        /// One event of a random variant with random fields.
        fn draw_event(rng: &mut TestRng) -> TraceEvent {
            let round = size(rng);
            match rng.below(21) {
                0 => TraceEvent::RunStart {
                    engine: pick(rng, LABELS),
                    nodes: size(rng),
                    threads: size(rng),
                },
                1 => TraceEvent::Message {
                    round,
                    from: size(rng),
                    to: size(rng),
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
                    node: size(rng),
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
                    parent: opt(rng),
                    name: name(rng),
                    ctx: ctx(rng),
                },
                5 => TraceEvent::SpanEnd {
                    round,
                    span_id: num(rng),
                    name: name(rng),
                    nanos: num(rng),
                },
                6 => TraceEvent::CheckerProgress {
                    round,
                    frontier: size(rng),
                    states: size(rng),
                },
                7 => TraceEvent::CheckerRound {
                    round,
                    frontier: size(rng),
                    views: size(rng),
                    nanos: num(rng),
                },
                8 => TraceEvent::Horizon {
                    horizon: round,
                    solvable: rng.below(2) == 1,
                    nanos: num(rng),
                },
                9 => TraceEvent::BudgetExhausted {
                    horizon: round,
                    frontier: size(rng),
                    states: size(rng),
                },
                10 => TraceEvent::RunEnd {
                    rounds: round,
                    totals: counts(rng),
                    nanos: num(rng),
                },
                11 => TraceEvent::SvcRequest {
                    seq: num(rng),
                    method: name(rng),
                },
                12 => TraceEvent::SvcResponse {
                    seq: num(rng),
                    method: name(rng),
                    ok: rng.below(2) == 1,
                    cache: pick(rng, LABELS),
                    nanos: num(rng),
                },
                13 => TraceEvent::WalAppend {
                    op: pick(rng, LABELS),
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
                    op: pick(rng, LABELS),
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

        /// A shard capacity and the events pushed through it, in order.
        struct Pushes;

        impl Strategy for Pushes {
            type Value = (usize, Vec<TraceEvent>);
            fn generate(&self, rng: &mut TestRng) -> (usize, Vec<TraceEvent>) {
                let cap = 1 + rng.below(8) as usize;
                let events = (0..rng.below(32)).map(|_| draw_event(rng)).collect();
                (cap, events)
            }
        }

        /// Which of the event's names are borrowed labels.
        fn borrowed(event: &TraceEvent) -> Option<bool> {
            match event {
                TraceEvent::SpanStart { name, .. }
                | TraceEvent::SpanEnd { name, .. }
                | TraceEvent::SvcRequest { method: name, .. }
                | TraceEvent::SvcResponse { method: name, .. } => Some(name.as_static().is_some()),
                _ => None,
            }
        }

        /// A shard that took `events` holds the newest `cap` of them,
        /// each decoding to an equal event whose names are borrowed
        /// exactly when the pushed ones were.
        fn round_trips(cap: usize, events: &[TraceEvent]) {
            let mut ring = Ring::new(cap);
            for (seq, event) in events.iter().enumerate() {
                ring.push(seq as u64 * 8, event);
            }
            let (records, labels) = ring.copy();
            let mut held = Vec::new();
            decode_records(&records, &labels, &mut held);
            let evicted = events.len().saturating_sub(cap);
            prop_assert_eq!(held.len(), events.len() - evicted);
            prop_assert_eq!(ring.len, held.len());
            for ((seq, decoded), (at, pushed)) in
                held.iter().zip(events.iter().enumerate().skip(evicted))
            {
                prop_assert_eq!(*seq, at as u64 * 8);
                prop_assert_eq!(decoded, pushed);
                prop_assert_eq!(borrowed(decoded), borrowed(pushed));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn every_event_round_trips_through_the_ring(pushes in Pushes) {
                round_trips(pushes.0, &pushes.1);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1_000_000))]

            #[test]
            #[ignore = "long sweep; run with -- --ignored"]
            fn sweep_events_through_the_ring(pushes in Pushes) {
                round_trips(pushes.0, &pushes.1);
            }
        }
    }
}
