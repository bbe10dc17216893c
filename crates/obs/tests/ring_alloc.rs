//! The request path's trace events cost no heap: recording a request's
//! `svc_request`, root span and `svc_response` into a full flight ring,
//! and opening and closing a span, allocate nothing.
//!
//! A counting global allocator tallies the bytes each thread allocates;
//! this file is its own test binary so the allocator counts nothing else.

use minobs_obs::{FlightRecorder, SpanGuard, SpanIds, TraceEvent};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|total| total.set(total.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only reads the
// sizes and touches a const-initialised thread-local that never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread allocates while `work` runs.
fn allocated_by(work: impl FnOnce()) -> u64 {
    let before = ALLOCATED.with(Cell::get);
    work();
    ALLOCATED.with(Cell::get) - before
}

/// One request as the daemon records it: the request, its root span
/// pair and the response, every name a `&'static str`.
fn request(seq: u64) -> [TraceEvent; 4] {
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
        TraceEvent::SpanEnd {
            round: 0,
            span_id: seq << 20,
            name: "rpc.check_horizon".into(),
            nanos: 1_000,
        },
        TraceEvent::SvcResponse {
            seq,
            method: "check_horizon".into(),
            ok: true,
            cache: "hit",
            nanos: 1_200,
        },
    ]
}

#[test]
fn recording_requests_into_a_full_ring_allocates_nothing() {
    let flight = FlightRecorder::new(256);
    // Fill every slot first: a ring still growing allocates its slots.
    for seq in 0..flight.capacity() as u64 {
        flight.push_block(&request(seq));
    }

    let pushed = allocated_by(|| {
        for seq in 1_000..2_000 {
            let [req, start, end, resp] = request(seq);
            flight.push(req);
            flight.push_block(&[start, end]);
            flight.push(resp);
        }
    });
    assert_eq!(pushed, 0, "pushing request events allocated {pushed} bytes");

    let mut recorder = flight.clone();
    let mut ids = SpanIds::starting_at(1 << 40);
    let spans = allocated_by(|| {
        for _ in 0..1_000 {
            let guard = SpanGuard::begin(&mut recorder, &mut ids, 0, None, "rpc.stats");
            if let Some(guard) = guard {
                guard.end(&mut recorder);
            }
        }
    });
    assert_eq!(spans, 0, "SpanGuard::begin/end allocated {spans} bytes");
    assert_eq!(flight.recorded(), 256 * 4 + 4_000 + 2_000);
}
