//! # minobs-obs — observability for every minobs execution surface
//!
//! Structured event tracing and metrics for the two-process engine, the
//! synchronous network simulator, and the bounded model checker. Three layers:
//!
//! * **Events** — [`TraceEvent`], a small closed vocabulary of
//!   observations (run/round/message/decision/span/checker), each
//!   serialising to one JSON object under the versioned [`SCHEMA`].
//!   [`TraceEvent::from_json`] is the inverse, so the enum is the one
//!   place the schema is written down.
//! * **Recorders** — the [`Recorder`] trait engines thread through their
//!   run loops: `enabled()` plus `record(event)`, nothing else.
//!   [`NullRecorder`] is the default everywhere and compiles to nothing;
//!   [`MemoryRecorder`] buffers for tests; [`JsonlSink`] streams JSONL;
//!   [`FlightRecorder`] keeps a bounded ring; [`MetricsRecorder`] folds
//!   events into a [`MetricsRegistry`]; [`TeeRecorder`] fans out to two
//!   of them.
//! * **Metrics** — lock-free [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   [`Histogram`]s in a [`MetricsRegistry`] with a JSON snapshot.
//!
//! The crate deliberately has no dependency beyond the workspace's
//! `serde_json`, and engines keep their original signatures —
//! instrumented variants are `*_with_recorder` siblings, with the old
//! names as thin wrappers passing [`NullRecorder`]. Beside the
//! environment readers ([`trace_path_from_env`], [`node_id_from_env`]),
//! [`cli`] holds the `--help`/`--version` handling every workspace
//! binary shares.
//!
//! See `docs/OBSERVABILITY.md` for the JSONL schema reference and the
//! `MINOBS_TRACE` / `MINOBS_EXP_DIR` environment knobs.

pub mod cli;
mod ctx;
mod event;
mod flight;
mod metrics;
mod recorder;
mod sink;
mod span;

pub use ctx::{node_id_from_env, stamp_root_span, TraceContext};
pub use event::{MessageStatus, Name, RoundCounts, SpanCtx, TraceEvent, SCHEMA};
pub use flight::{FlightRecorder, FlightSnapshot, DEFAULT_FLIGHT_EVENTS};
pub use metrics::{Counter, Gauge, Histogram, MetricsRecorder, MetricsRegistry};
pub use recorder::{MemoryRecorder, NullRecorder, Recorder, TeeRecorder};
pub use sink::{resolve_trace_value, trace_path_from_env, JsonlSink};
pub use span::{SpanGuard, SpanIds};

use std::time::Instant;

/// A started wall-clock measurement, attributed to an event later.
///
/// Engines only start timers when the recorder is enabled, keeping
/// `Instant::now` syscalls off the uninstrumented hot path:
///
/// ```
/// use minobs_obs::{MemoryRecorder, Recorder, RoundCounts, RoundTimer, TraceEvent};
/// let mut recorder = MemoryRecorder::new();
/// let timer = RoundTimer::start_if(recorder.enabled());
/// // ... do the round's work ...
/// if recorder.enabled() {
///     recorder.record(TraceEvent::RoundEnd {
///         round: 0,
///         counts: RoundCounts::default(),
///         nanos: timer.elapsed_nanos(),
///     });
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RoundTimer {
    start: Option<Instant>,
}

impl RoundTimer {
    /// A running timer when `enabled`, otherwise an inert one that
    /// reports zero.
    #[inline]
    pub fn start_if(enabled: bool) -> RoundTimer {
        RoundTimer {
            start: enabled.then(Instant::now),
        }
    }

    /// Nanoseconds since start, saturating at `u64::MAX`; zero when inert.
    #[inline]
    pub fn elapsed_nanos(&self) -> u64 {
        match self.start {
            Some(start) => u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_timer_reports_zero() {
        let timer = RoundTimer::start_if(false);
        assert_eq!(timer.elapsed_nanos(), 0);
    }

    #[test]
    fn running_timer_advances() {
        let timer = RoundTimer::start_if(true);
        std::hint::black_box((0..1000).sum::<u64>());
        // Coarse clocks may still read zero immediately, but elapsed must
        // be monotone.
        let a = timer.elapsed_nanos();
        let b = timer.elapsed_nanos();
        assert!(b >= a);
    }
}
