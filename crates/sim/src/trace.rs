//! Execution statistics.

use minobs_obs::{RoundCounts, TraceEvent};

/// Per-run counters collected by the engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Messages handed to the environment.
    pub messages_sent: usize,
    /// Messages delivered.
    pub messages_delivered: usize,
    /// Messages killed by the adversary.
    pub messages_dropped: usize,
    /// Messages addressed to non-neighbors (discarded, protocol bug).
    pub misaddressed: usize,
    /// The largest omission set applied in any round.
    pub max_drops_per_round: usize,
}

impl RunStats {
    /// The `run_end` event closing a run with these totals.
    pub fn run_end(&self, nanos: u64) -> TraceEvent {
        TraceEvent::RunEnd {
            rounds: self.rounds,
            totals: RoundCounts {
                sent: self.messages_sent,
                delivered: self.messages_delivered,
                dropped: self.messages_dropped,
                misaddressed: self.misaddressed,
            },
            nanos,
        }
    }

    /// Delivered / sent, in `[0, 1]`; 1.0 for a silent run.
    pub fn delivery_ratio(&self) -> f64 {
        if self.messages_sent == 0 {
            1.0
        } else {
            self.messages_delivered as f64 / self.messages_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation() {
        let s = RunStats {
            rounds: 3,
            messages_sent: 10,
            messages_delivered: 7,
            messages_dropped: 3,
            misaddressed: 0,
            max_drops_per_round: 2,
        };
        assert_eq!(s.messages_delivered + s.messages_dropped, s.messages_sent);
        assert!((s.delivery_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn silent_run_ratio_is_one() {
        assert_eq!(RunStats::default().delivery_ratio(), 1.0);
    }
}
