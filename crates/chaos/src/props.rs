//! The paper's guarantees as executable properties.
//!
//! A finished run is checked against five invariants. The first three
//! are Theorem V.1's consensus conditions, asserted only when the
//! adversary's static bound fits the contract (`f < c(G)`); the last two
//! hold for *every* run, conforming or not.
//!
//! * **Agreement** — no two nodes decide differently.
//! * **Validity** — a uniform input vector forces that value.
//! * **Termination** — everyone decides by the round bound (for
//!   flooding, `n − 1` rounds; Corollary III.14 at network scale).
//! * **Budget conformance** — per round, `|drops ∩ pending| ≤ f`
//!   (set-wise), as recorded by
//!   [`minobs_sim::adversary::BudgetChecked`].
//! * **Conservation** — every sent message is delivered or dropped.

use minobs_sim::adversary::BudgetViolation;
use minobs_sim::network::{NetOutcome, NetVerdict};

/// One observed violation of a paper invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two nodes decided different values.
    Agreement {
        /// A witness pair of distinct decisions.
        values: (u64, u64),
    },
    /// Uniform inputs, but someone decided something else.
    Validity {
        /// The common proposal.
        proposed: u64,
        /// The offending decision.
        decided: u64,
    },
    /// A node failed to decide within the round bound.
    Termination {
        /// How many nodes are still undecided.
        undecided: usize,
    },
    /// The adversary effectively dropped more than its `O_f` contract.
    BudgetExceeded {
        /// The offending round.
        round: usize,
        /// Effective drops that round.
        requested: usize,
        /// The contract budget `f`.
        budget: usize,
    },
    /// Message accounting broke: `sent ≠ delivered + dropped`.
    Conservation {
        /// Messages handed to the environment.
        sent: usize,
        /// Messages delivered.
        delivered: usize,
        /// Messages dropped by the adversary.
        dropped: usize,
    },
}

impl Violation {
    /// Stable machine-readable kind, used in reproducer artifacts.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Agreement { .. } => "agreement",
            Violation::Validity { .. } => "validity",
            Violation::Termination { .. } => "termination",
            Violation::BudgetExceeded { .. } => "budget_exceeded",
            Violation::Conservation { .. } => "conservation",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Agreement { values: (a, b) } => {
                write!(f, "agreement broken: decisions {a} and {b}")
            }
            Violation::Validity { proposed, decided } => {
                write!(
                    f,
                    "validity broken: all proposed {proposed}, decided {decided}"
                )
            }
            Violation::Termination { undecided } => {
                write!(
                    f,
                    "termination broken: {undecided} nodes undecided at the round bound"
                )
            }
            Violation::BudgetExceeded {
                round,
                requested,
                budget,
            } => write!(
                f,
                "O_{budget} contract broken at round {round}: {requested} effective drops"
            ),
            Violation::Conservation {
                sent,
                delivered,
                dropped,
            } => write!(
                f,
                "conservation broken: sent {sent} != delivered {delivered} + dropped {dropped}"
            ),
        }
    }
}

/// Checks a finished run. Budget and conservation violations are always
/// reported; agreement, validity, and termination only when
/// `expect_consensus` (the adversary's bound fits `f < c(G)`, so
/// Theorem V.1 promises them). Budget violations come first — they are
/// the cause, consensus failures the symptom.
pub fn check_run(
    outcome: &NetOutcome,
    budget_violations: &[BudgetViolation],
    expect_consensus: bool,
) -> Vec<Violation> {
    let mut violations: Vec<Violation> = budget_violations
        .iter()
        .map(|v| Violation::BudgetExceeded {
            round: v.round,
            requested: v.requested,
            budget: v.budget,
        })
        .collect();

    let s = &outcome.stats;
    if s.messages_sent != s.messages_delivered + s.messages_dropped {
        violations.push(Violation::Conservation {
            sent: s.messages_sent,
            delivered: s.messages_delivered,
            dropped: s.messages_dropped,
        });
    }

    if expect_consensus {
        match outcome.verdict {
            NetVerdict::Consensus(_) => {}
            NetVerdict::Disagreement { values } => {
                violations.push(Violation::Agreement { values });
            }
            NetVerdict::ValidityViolation { proposed, decided } => {
                violations.push(Violation::Validity { proposed, decided });
            }
            NetVerdict::Undecided { .. } => {}
        }
        let undecided = outcome.decisions.iter().filter(|d| d.is_none()).count();
        if undecided > 0 {
            violations.push(Violation::Termination { undecided });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use minobs_sim::trace::RunStats;

    fn outcome(decisions: Vec<Option<u64>>, verdict: NetVerdict, stats: RunStats) -> NetOutcome {
        NetOutcome {
            decisions,
            verdict,
            stats,
        }
    }

    fn clean_stats() -> RunStats {
        RunStats {
            rounds: 3,
            messages_sent: 12,
            messages_delivered: 10,
            messages_dropped: 2,
            misaddressed: 0,
            max_drops_per_round: 1,
        }
    }

    #[test]
    fn clean_consensus_run_has_no_violations() {
        let o = outcome(
            vec![Some(4), Some(4)],
            NetVerdict::Consensus(4),
            clean_stats(),
        );
        assert!(check_run(&o, &[], true).is_empty());
    }

    #[test]
    fn budget_breach_is_reported_first() {
        let o = outcome(
            vec![Some(4), Some(5)],
            NetVerdict::Disagreement { values: (4, 5) },
            clean_stats(),
        );
        let bv = [BudgetViolation {
            round: 0,
            requested: 2,
            budget: 1,
        }];
        let v = check_run(&o, &bv, true);
        assert_eq!(v[0].kind(), "budget_exceeded");
        assert!(v.iter().any(|x| x.kind() == "agreement"));
    }

    #[test]
    fn consensus_properties_skipped_when_not_expected() {
        let o = outcome(
            vec![Some(4), None],
            NetVerdict::Disagreement { values: (4, 5) },
            clean_stats(),
        );
        assert!(check_run(&o, &[], false).is_empty());
        let v = check_run(&o, &[], true);
        assert!(v.iter().any(|x| x.kind() == "agreement"));
        assert!(v.iter().any(|x| x.kind() == "termination"));
    }

    #[test]
    fn conservation_always_checked() {
        let mut stats = clean_stats();
        stats.messages_delivered = 9;
        let o = outcome(vec![Some(4), Some(4)], NetVerdict::Consensus(4), stats);
        let v = check_run(&o, &[], false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind(), "conservation");
    }
}
