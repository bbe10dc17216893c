//! Distributed trace context: the identity a request carries across
//! process and node boundaries.
//!
//! A [`TraceContext`] is a 128-bit `trace_id` plus an optional parent
//! `span_id` — the same shape as a W3C `traceparent` (minus flags).
//! Clients mint a fresh root context per logical call; every hop that
//! forwards work (retry, gossip fan-out) re-sends the same
//! `trace_id` with its own span as the parent, so offline stitching
//! (`trace stitch`) can rebuild the cross-node span tree.
//!
//! The context travels as an additive optional `ctx` object in the
//! `minobs/rpc/v1` envelope:
//!
//! ```json
//! {"ctx": {"trace_id": "0af7651916cd43dd8448eb211c80319c", "parent_span": 7}}
//! ```
//!
//! `parent_span` is omitted for client roots. Parsing is permissive: a
//! malformed `ctx` is treated as absent rather than failing the RPC —
//! tracing must never take down the data plane.

use crate::event::{SpanCtx, TraceEvent};
use serde_json::{Map, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide counter folded into generated trace ids so two ids
/// minted in the same instant still differ.
static TRACE_SALT: AtomicU64 = AtomicU64::new(0);

/// A 128-bit trace identity plus the span to parent under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Nonzero 128-bit trace id shared by every span of one logical
    /// request, across all nodes it touches.
    pub trace_id: u128,
    /// Span id (on the *sending* side) the receiver should parent its
    /// root span under. `None` for a client-minted root.
    pub parent_span: Option<u64>,
}

impl TraceContext {
    /// Mints a fresh root context with a random nonzero `trace_id`.
    ///
    /// Randomness comes from hashing a process-wide counter with two
    /// freshly seeded [`std::collections::hash_map::RandomState`]s —
    /// each carries its own OS-provided seed, so ids are unpredictable
    /// across processes without pulling in an RNG dependency.
    pub fn root() -> Self {
        use std::hash::{BuildHasher, Hasher};
        let salt = TRACE_SALT.fetch_add(1, Ordering::Relaxed);
        let mut id = 0u128;
        while id == 0 {
            let mut hi = std::collections::hash_map::RandomState::new().build_hasher();
            hi.write_u64(salt);
            hi.write_u64(0x6d69_6e6f_6273); // "minobs"
            let mut lo = std::collections::hash_map::RandomState::new().build_hasher();
            lo.write_u64(salt.rotate_left(17));
            lo.write_u64(0x0074_7261_6365); // "trace"
            id = (u128::from(hi.finish()) << 64) | u128::from(lo.finish());
        }
        TraceContext {
            trace_id: id,
            parent_span: None,
        }
    }

    /// The context a downstream hop should receive when `span_id` is
    /// the local span doing the forwarding: same trace, new parent.
    pub fn child(&self, span_id: u64) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            parent_span: Some(span_id),
        }
    }

    /// The trace id as 32 lowercase hex digits (W3C `trace-id` shape).
    pub fn trace_id_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }

    /// Parses a 32-lowercase-hex-digit nonzero trace id.
    pub fn parse_trace_id(text: &str) -> Option<u128> {
        parse_hex_id(text).filter(|&id| id != 0)
    }

    /// The envelope form: `{"trace_id": "<32hex>"[, "parent_span": N]}`.
    pub fn to_json(&self) -> Value {
        let mut map = Map::new();
        map.insert("trace_id", Value::from(self.trace_id_hex().as_str()));
        if let Some(parent) = self.parent_span {
            map.insert("parent_span", Value::from(parent));
        }
        Value::Object(map)
    }

    /// Permissive parse of the envelope form. Anything malformed — not
    /// an object, bad hex shape, zero id — reads as `None` (no context)
    /// rather than an error.
    pub fn from_json(value: &Value) -> Option<Self> {
        let trace_id = value
            .get("trace_id")
            .and_then(Value::as_str)
            .and_then(Self::parse_trace_id)?;
        Some(TraceContext {
            trace_id,
            parent_span: value.get("parent_span").and_then(Value::as_u64),
        })
    }
}

/// Parses exactly 32 lowercase hex digits, the wire form of a trace id.
pub(crate) fn parse_hex_id(text: &str) -> Option<u128> {
    if text.len() != 32
        || !text
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u128::from_str_radix(text, 16).ok()
}

/// Stamps `ctx` onto the root span of a buffered request: finds the
/// first `span_start` with no *local* parent and sets its `trace_id`
/// and remote `ctx_parent`. The local `parent` stays `None` — within
/// one process the span is still a root; only stitching resolves the
/// remote edge.
pub fn stamp_root_span(events: &mut [TraceEvent], ctx: &TraceContext) {
    for event in events.iter_mut() {
        if let TraceEvent::SpanStart {
            parent: None,
            ctx: span_ctx,
            ..
        } = event
        {
            *span_ctx = SpanCtx::boxed(Some(ctx.trace_id), ctx.parent_span);
            return;
        }
    }
}

/// The stable node identity stamped onto trace lines and artifact meta:
/// `MINOBS_NODE_ID` when set and non-empty, else `fallback`.
pub fn node_id_from_env(fallback: &str) -> String {
    match std::env::var("MINOBS_NODE_ID") {
        Ok(id) if !id.trim().is_empty() => id,
        _ => fallback.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_are_nonzero_and_distinct() {
        let a = TraceContext::root();
        let b = TraceContext::root();
        assert_ne!(a.trace_id, 0);
        assert_ne!(b.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id, "two roots collided");
        assert_eq!(a.parent_span, None);
    }

    #[test]
    fn hex_round_trips_and_children_share_the_trace() {
        let root = TraceContext::root();
        let hex = root.trace_id_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(TraceContext::parse_trace_id(&hex), Some(root.trace_id));
        let child = root.child(42);
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_span, Some(42));
    }

    #[test]
    fn json_round_trips_with_and_without_parent() {
        let root = TraceContext {
            trace_id: 0xabc,
            parent_span: None,
        };
        let json = root.to_json();
        assert_eq!(json.get("parent_span"), None, "roots omit parent_span");
        assert_eq!(TraceContext::from_json(&json), Some(root));

        let child = root.child(7);
        assert_eq!(TraceContext::from_json(&child.to_json()), Some(child));
    }

    #[test]
    fn malformed_ctx_reads_as_absent() {
        fn ctx_obj(trace_id: Value) -> Value {
            let mut map = Map::new();
            map.insert("trace_id", trace_id);
            Value::Object(map)
        }
        for bad in [
            Value::Null,
            Value::from("0af7651916cd43dd8448eb211c80319c"),
            Value::Object(Map::new()),
            ctx_obj(Value::from(12u64)),
            ctx_obj(Value::from("short")),
            ctx_obj(Value::from("0AF7651916CD43DD8448EB211C80319C")),
            ctx_obj(Value::from("00000000000000000000000000000000")),
            ctx_obj(Value::from("zzzz651916cd43dd8448eb211c80319c")),
        ] {
            assert_eq!(TraceContext::from_json(&bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn stamp_targets_the_first_local_root_span() {
        let ctx = TraceContext {
            trace_id: 0xfeed,
            parent_span: Some(9),
        };
        let mut events = vec![
            TraceEvent::SpanStart {
                round: 0,
                span_id: 1,
                parent: None,
                name: "rpc.check_horizon".into(),
                ctx: None,
            },
            TraceEvent::SpanStart {
                round: 0,
                span_id: 2,
                parent: Some(1),
                name: "check.run".into(),
                ctx: None,
            },
        ];
        stamp_root_span(&mut events, &ctx);
        match &events[0] {
            TraceEvent::SpanStart { ctx, .. } => {
                assert_eq!(ctx.as_deref().and_then(|c| c.trace_id), Some(0xfeed));
                assert_eq!(ctx.as_deref().and_then(|c| c.ctx_parent), Some(9));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &events[1] {
            TraceEvent::SpanStart { ctx: None, .. } => {}
            other => panic!("child span must stay unstamped: {other:?}"),
        }
    }

    #[test]
    fn node_id_prefers_env_then_fallback() {
        // Avoid touching the process env (other tests run in parallel);
        // only exercise the fallback path here.
        if std::env::var("MINOBS_NODE_ID").is_err() {
            assert_eq!(node_id_from_env("127.0.0.1:9"), "127.0.0.1:9");
        }
    }
}
