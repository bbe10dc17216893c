//! Flight-recorder integration: ring wraparound and concurrent dumps
//! must always yield lint-clean `minobs/trace/v1` dumps.

use minobs_bench::lint::lint;
use minobs_obs::{FlightRecorder, SpanCtx, TraceEvent};
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
    let flight = FlightRecorder::with_meta(64, Some("n1".to_string()));
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
    let flight = FlightRecorder::with_meta(256, Some("n1".to_string()));
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
