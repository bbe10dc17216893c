//! The [`Recorder`] trait and its built-in implementations.
//!
//! Engines thread a `&mut R where R: Recorder + ?Sized` through their run
//! loops, build the [`TraceEvent`] for each observation and hand it to
//! [`Recorder::record`]. [`NullRecorder`] — the default on every public
//! entry point — has an inlined empty `record`, so it monomorphises to
//! nothing and the uninstrumented hot path stays byte-for-byte as fast as
//! before instrumentation (proven by the `bench_obs` criterion benchmark).
//!
//! Observations that would require extra per-round work to *feed*
//! (scanning for fresh decisions, timing rounds, buffering per-message
//! fates) and events that carry a `String` are gated by
//! [`Recorder::enabled`], which the null recorder answers `false` —
//! engines skip building those observations entirely.

use crate::event::TraceEvent;

/// Receives structured observations from an engine or the model checker.
///
/// Every event enters through [`Recorder::record`]; the event schema
/// lives in [`TraceEvent`] alone. A sink that keeps the stream (like
/// [`crate::JsonlSink`]) takes the owned event, an aggregator (like
/// [`crate::MetricsRecorder`]) matches on its variant.
pub trait Recorder {
    /// Cheap global switch. When `false`, engines skip constructing
    /// observations altogether (no timing syscalls, no decision scans).
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Receives one event.
    fn record(&mut self, event: TraceEvent);
}

/// A `&mut` reference forwards to the referent, so call sites can tee
/// short-lived borrows of long-lived recorders.
impl<R: Recorder + ?Sized> Recorder for &mut R {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        (**self).record(event);
    }
}

/// The do-nothing recorder: the default on every public entry point.
///
/// `enabled()` is `false`, so engines skip observation construction, and
/// `record` is an inlined empty function — the optimiser removes the
/// instrumentation entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}
}

/// Buffers every event in memory, in arrival order.
///
/// Handy for assertions about what instrumented code observed.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    events: Vec<TraceEvent>,
}

impl MemoryRecorder {
    /// An empty buffer.
    pub fn new() -> MemoryRecorder {
        MemoryRecorder::default()
    }

    /// The buffered events, in arrival order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the recorder, yielding the buffer.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl Recorder for MemoryRecorder {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Forwards every event to two recorders, e.g. a [`crate::JsonlSink`] plus
/// a [`crate::MetricsRecorder`].
#[derive(Debug)]
pub struct TeeRecorder<A, B> {
    first: A,
    second: B,
}

impl<A: Recorder, B: Recorder> TeeRecorder<A, B> {
    /// Wraps two recorders.
    pub fn new(first: A, second: B) -> TeeRecorder<A, B> {
        TeeRecorder { first, second }
    }

    /// The wrapped recorders.
    pub fn into_inner(self) -> (A, B) {
        (self.first, self.second)
    }
}

impl<A: Recorder, B: Recorder> Recorder for TeeRecorder<A, B> {
    #[inline]
    fn enabled(&self) -> bool {
        self.first.enabled() || self.second.enabled()
    }
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.first.record(event.clone());
        self.second.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MessageStatus;

    fn message(round: usize, from: usize, to: usize, status: MessageStatus) -> TraceEvent {
        TraceEvent::Message {
            round,
            from,
            to,
            status,
        }
    }

    #[test]
    fn null_recorder_is_disabled() {
        assert!(!NullRecorder.enabled());
    }

    /// Counts what arrives through `record`, by event kind.
    #[derive(Default)]
    struct KindCounter {
        kinds: Vec<&'static str>,
    }

    impl Recorder for KindCounter {
        fn record(&mut self, event: TraceEvent) {
            self.kinds.push(event.kind());
        }
    }

    #[test]
    fn memory_recorder_keeps_arrival_order() {
        let mut memory = MemoryRecorder::new();
        memory.record(TraceEvent::RunStart {
            engine: "network",
            nodes: 3,
            threads: 1,
        });
        memory.record(message(0, 0, 1, MessageStatus::Delivered));
        memory.record(TraceEvent::Decision {
            round: 1,
            node: 2,
            value: 9,
        });
        memory.record(TraceEvent::RunEnd {
            rounds: 2,
            totals: Default::default(),
            nanos: 0,
        });
        let kinds: Vec<&str> = memory.events().iter().map(TraceEvent::kind).collect();
        assert_eq!(kinds, ["run_start", "message", "decision", "run_end"]);
        assert_eq!(memory.into_events().len(), 4);
    }

    #[test]
    fn mut_reference_forwards_record_and_enabled() {
        fn drive<R: Recorder>(mut recorder: R) -> bool {
            recorder.record(TraceEvent::Decision {
                round: 0,
                node: 1,
                value: 2,
            });
            recorder.enabled()
        }
        let mut counter = KindCounter::default();
        assert!(drive(&mut counter));
        assert_eq!(counter.kinds, ["decision"]);
        // `enabled` is the referent's answer, not a default `true`.
        assert!(!drive(&mut NullRecorder));
    }

    #[test]
    fn tee_forwards_every_event_to_both_sides() {
        let events = [
            TraceEvent::GossipRound {
                peer: "127.0.0.1:7401".to_string(),
                sent: 2,
                received: 1,
                nanos: 10,
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
        ];
        let mut counter = KindCounter::default();
        let mut tee = TeeRecorder::new(&mut counter, MemoryRecorder::new());
        for event in events.iter().cloned() {
            tee.record(event);
        }
        let (_, memory) = tee.into_inner();
        assert_eq!(
            counter.kinds,
            ["gossip_round", "gossip_apply", "peer_down", "health"]
        );
        assert_eq!(memory.events(), events);
        // One enabled side is enough to make the tee worth feeding.
        assert!(TeeRecorder::new(NullRecorder, MemoryRecorder::new()).enabled());
        assert!(TeeRecorder::new(MemoryRecorder::new(), NullRecorder).enabled());
    }

    #[test]
    fn tee_duplicates_the_stream() {
        let mut second = MemoryRecorder::new();
        let mut tee = TeeRecorder::new(MemoryRecorder::new(), &mut second);
        assert!(tee.enabled());
        tee.record(TraceEvent::Decision {
            round: 4,
            node: 0,
            value: 1,
        });
        let (first, _) = tee.into_inner();
        assert_eq!(first.events(), second.events());
        assert_eq!(first.events().len(), 1);
        assert!(!TeeRecorder::new(NullRecorder, NullRecorder).enabled());
    }
}
