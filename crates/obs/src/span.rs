//! Cheap profiling spans: [`SpanIds`] allocates stream-unique monotone
//! identifiers and [`SpanGuard`] brackets a timed section with
//! `span_start` / `span_end` events.
//!
//! The guard is gated on [`Recorder::enabled`]: with a disabled recorder
//! [`SpanGuard::begin`] returns `None` after a single bool check — no id
//! is consumed, no `Instant::now` syscall happens, nothing is recorded.
//! That keeps span instrumentation on the hot paths free under
//! [`crate::NullRecorder`] (measured by the `bench_obs` span benchmark).
//!
//! Guards are closed explicitly with [`SpanGuard::end`] rather than on
//! drop, because emitting from `Drop` would need the recorder borrowed
//! for the guard's whole lifetime.

use crate::event::TraceEvent;
use crate::recorder::Recorder;
use crate::RoundTimer;

/// Monotone `span_id` allocator; one per event stream.
///
/// Engines own one per run, so two runs over the same inputs allocate
/// identical id sequences. Streams multiplexing concurrent
/// producers — the service daemon — carve disjoint blocks with
/// [`SpanIds::starting_at`] instead of sharing one allocator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanIds {
    next: u64,
}

impl SpanIds {
    /// Ids from 0 upward.
    pub fn new() -> SpanIds {
        SpanIds::default()
    }

    /// Ids from `base` upward, for carving per-producer blocks out of a
    /// shared stream.
    pub fn starting_at(base: u64) -> SpanIds {
        SpanIds { next: base }
    }

    fn allocate(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }
}

/// An open profiling span; close it with [`SpanGuard::end`].
///
/// ```
/// use minobs_obs::{MemoryRecorder, SpanGuard, SpanIds};
/// let mut recorder = MemoryRecorder::new();
/// let mut ids = SpanIds::new();
/// let guard = SpanGuard::begin(&mut recorder, &mut ids, 0, None, "net_send");
/// // ... the timed section ...
/// if let Some(guard) = guard {
///     guard.end(&mut recorder);
/// }
/// assert_eq!(recorder.events().len(), 2);
/// ```
#[derive(Debug)]
#[must_use = "an unclosed span never emits its span_end"]
pub struct SpanGuard {
    span_id: u64,
    round: usize,
    name: &'static str,
    timer: RoundTimer,
}

impl SpanGuard {
    /// Opens a span and emits `span_start`, or returns `None` (consuming
    /// nothing) when the recorder is disabled.
    #[inline]
    pub fn begin<R: Recorder + ?Sized>(
        recorder: &mut R,
        ids: &mut SpanIds,
        round: usize,
        parent: Option<u64>,
        name: &'static str,
    ) -> Option<SpanGuard> {
        if !recorder.enabled() {
            return None;
        }
        let span_id = ids.allocate();
        // Born local: the owner stamps `trace_id`/`ctx_parent` onto the
        // buffered event when a request carried a context (see
        // [`crate::stamp_root_span`]).
        recorder.record(TraceEvent::SpanStart {
            round,
            span_id,
            parent,
            name: name.into(),
            ctx: None,
        });
        Some(SpanGuard {
            span_id,
            round,
            name,
            timer: RoundTimer::start_if(true),
        })
    }

    /// The open span's id, for parenting nested spans.
    pub fn id(&self) -> u64 {
        self.span_id
    }

    /// Closes the span, emitting `span_end` with the elapsed duration
    /// (clamped to at least 1 ns so a timed span is distinguishable from
    /// the `nanos == 0` "timing off" convention).
    #[inline]
    pub fn end<R: Recorder + ?Sized>(self, recorder: &mut R) {
        recorder.record(TraceEvent::SpanEnd {
            round: self.round,
            span_id: self.span_id,
            name: self.name.into(),
            nanos: self.timer.elapsed_nanos().max(1),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryRecorder, NullRecorder};

    #[test]
    fn guard_emits_bracketed_pair_with_duration() {
        let mut recorder = MemoryRecorder::new();
        let mut ids = SpanIds::new();
        let outer = SpanGuard::begin(&mut recorder, &mut ids, 2, None, "outer").unwrap();
        let inner =
            SpanGuard::begin(&mut recorder, &mut ids, 2, Some(outer.id()), "inner").unwrap();
        inner.end(&mut recorder);
        outer.end(&mut recorder);

        let events = recorder.into_events();
        assert_eq!(
            events.iter().map(TraceEvent::kind).collect::<Vec<_>>(),
            ["span_start", "span_start", "span_end", "span_end"]
        );
        match &events[1] {
            TraceEvent::SpanStart {
                span_id, parent, ..
            } => {
                assert_eq!(*span_id, 1);
                assert_eq!(*parent, Some(0));
            }
            other => panic!("expected span_start, got {other:?}"),
        }
        match &events[2] {
            TraceEvent::SpanEnd { span_id, nanos, .. } => {
                assert_eq!(*span_id, 1);
                assert!(*nanos >= 1);
            }
            other => panic!("expected span_end, got {other:?}"),
        }
    }

    #[test]
    fn disabled_recorder_consumes_no_ids() {
        let mut ids = SpanIds::new();
        assert!(SpanGuard::begin(&mut NullRecorder, &mut ids, 0, None, "x").is_none());
        let mut recorder = MemoryRecorder::new();
        let guard = SpanGuard::begin(&mut recorder, &mut ids, 0, None, "y").unwrap();
        assert_eq!(guard.id(), 0);
        guard.end(&mut recorder);
    }

    #[test]
    fn starting_at_carves_disjoint_blocks() {
        let mut ids = SpanIds::starting_at(1 << 20);
        assert_eq!(ids.allocate(), 1 << 20);
        assert_eq!(ids.allocate(), (1 << 20) + 1);
    }
}
