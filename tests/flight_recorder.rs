//! Flight-recorder integration: ring wraparound and concurrent dumps
//! must always yield lint-clean `minobs/trace/v1` dumps, and the
//! tail-sampling keep/drop decision must be identical on every node of
//! a fleet (it is a pure function of the trace id).

use minobs_bench::lint::lint;
use minobs_obs::{sample_keep, FlightRecorder, SpanCtx, TraceEvent};
use serde_json::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One request's worth of events, the shape the daemon feeds the ring:
/// svc_request, a root span pair, svc_response.
fn request_block(seq: u64) -> Vec<TraceEvent> {
    vec![
        TraceEvent::SvcRequest {
            seq,
            method: "stats".into(),
        },
        TraceEvent::SpanStart {
            round: 0,
            span_id: seq << 20,
            parent: None,
            name: "rpc.stats".into(),
            ctx: SpanCtx::boxed(Some(u128::from(seq) + 1), None),
        },
        TraceEvent::SpanEnd {
            round: 0,
            span_id: seq << 20,
            name: "rpc.stats".into(),
            nanos: 10 + seq,
        },
        TraceEvent::SvcResponse {
            seq,
            method: "stats".into(),
            ok: true,
            cache: "none",
            nanos: 20 + seq,
        },
    ]
}

#[test]
fn wraparound_dump_is_lint_clean() {
    let flight = FlightRecorder::with_meta(64, Some("n1".to_string()), false);
    // 500 requests × 4 events overwrite the 64-slot ring many times.
    for seq in 0..500u64 {
        flight.push_block(&request_block(seq));
    }
    assert!(flight.recorded() > flight.capacity() as u64);

    let snapshot = flight.dump("test");
    let lines: Vec<&str> = snapshot.jsonl.lines().collect();
    // Header first, then exactly the kept events.
    let header: Value = serde_json::from_str(lines[0]).unwrap();
    assert_eq!(
        header.get("event").and_then(Value::as_str),
        Some("flight_dump")
    );
    assert_eq!(header.get("reason").and_then(Value::as_str), Some("test"));
    assert_eq!(lines.len() as u64, snapshot.events + 1);
    // The surviving window still contains real requests, and whatever
    // partial unit straddled the eviction horizon was dropped whole.
    assert!(snapshot.events > 0);
    let (checked, _) = lint(&snapshot.jsonl).unwrap_or_else(|err| panic!("dump not clean: {err}"));
    assert_eq!(checked, lines.len());
}

#[test]
fn concurrent_dumps_never_tear_or_deadlock() {
    let flight = FlightRecorder::with_meta(256, Some("n1".to_string()), false);
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let flight = flight.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seq = w * 1_000_000;
                while !stop.load(Ordering::Relaxed) {
                    flight.push_block(&request_block(seq));
                    seq += 1;
                }
            })
        })
        .collect();

    // Dump repeatedly while the writers hammer the ring: every snapshot
    // must be well formed on its own, whatever instant it captured.
    for round in 0..50 {
        let snapshot = flight.dump("concurrent");
        if let Err(err) = lint(&snapshot.jsonl) {
            panic!("dump {round} not lint-clean: {err}");
        }
    }
    stop.store(true, Ordering::Relaxed);
    for writer in writers {
        writer.join().unwrap();
    }
    let last = flight.dump("final");
    lint(&last.jsonl).unwrap_or_else(|err| panic!("final dump not clean: {err}"));
}

#[test]
fn keep_decisions_are_fleet_consistent_and_monotone() {
    let trace_ids: Vec<u128> = (1..=2_000u128)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut kept_at_low = 0usize;
    for &id in &trace_ids {
        // Two nodes deciding independently about the same trace agree —
        // the decision depends on nothing but (trace_id, sample).
        let node_a = sample_keep(id, 0.3);
        let node_b = sample_keep(id, 0.3);
        assert_eq!(node_a, node_b, "nodes disagreed on trace {id:x}");
        // Raising the sample rate never drops a trace that a lower rate
        // kept, so fleets can be re-tuned without losing continuity.
        if node_a {
            kept_at_low += 1;
            assert!(sample_keep(id, 0.8), "kept at 0.3 but dropped at 0.8");
        }
        // The endpoints are exact.
        assert!(sample_keep(id, 1.0));
        assert!(!sample_keep(id, 0.0));
    }
    // The keep rate tracks the configured probability (loose band: the
    // ids are arbitrary, the hash is what spreads them).
    let rate = kept_at_low as f64 / trace_ids.len() as f64;
    assert!((0.2..0.4).contains(&rate), "keep rate {rate} far from 0.3");
}
