//! Synchronous two-process execution engine (Section II-F).
//!
//! An execution of a distributed algorithm under a scenario `w` proceeds in
//! rounds: each live process emits a message, the round’s [`Letter`](crate::letter::Letter)
//! decides which messages are delivered, and each live process updates its
//! state from what it received (`null` when the message was lost *or* the
//! peer has halted — a halted process sends nothing, which is
//! indistinguishable from an omission).
//!
//! The engine runs any pair of [`TwoProcessProtocol`]s against any
//! [`Scenario`], collects message statistics, and audits the three
//! Uniform Consensus properties of Section II-B (Termination, Validity,
//! Agreement) into a [`Verdict`].

use crate::letter::Role;
use crate::scenario::Scenario;
use minobs_obs::{MessageStatus, NullRecorder, Recorder, RoundCounts, RoundTimer, TraceEvent};

/// A state machine for one of the two processes.
///
/// The engine drives it with `outgoing` / `advance` once per round until
/// [`TwoProcessProtocol::halted`] or the round budget runs out.
pub trait TwoProcessProtocol {
    /// The message type exchanged by this protocol family.
    type Msg: Clone;

    /// Which process this instance plays.
    fn role(&self) -> Role;

    /// The initial value this process proposes.
    fn input(&self) -> bool;

    /// The message to send this round, or `None` to stay silent.
    /// Not called once halted.
    fn outgoing(&self) -> Option<Self::Msg>;

    /// Consumes the round's incoming message (`None` = the receive call
    /// returned `null`) and moves to the next round. Not called once
    /// halted.
    fn advance(&mut self, incoming: Option<Self::Msg>);

    /// The decided value, once the process has decided.
    fn decision(&self) -> Option<bool>;

    /// `true` once the process has halted (it stops sending and stepping).
    fn halted(&self) -> bool;
}

/// The consensus audit of one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Both processes decided the same value, and Validity holds.
    Consensus(bool),
    /// Both decided, on different values — Agreement violated.
    Disagreement { white: bool, black: bool },
    /// Both processes proposed `proposed` but some process decided
    /// otherwise — Validity violated.
    ValidityViolation { proposed: bool, decided: bool },
    /// At least one process had not decided when the round budget ran out.
    Undecided,
}

impl Verdict {
    /// Unwraps [`Verdict::Consensus`].
    ///
    /// # Panics
    /// Panics with a descriptive message on any other verdict.
    pub fn expect_consensus(&self) -> bool {
        match self {
            Verdict::Consensus(v) => *v,
            other => panic!("expected consensus, got {other:?}"),
        }
    }

    /// `true` iff the execution reached consensus.
    pub fn is_consensus(&self) -> bool {
        matches!(self, Verdict::Consensus(_))
    }
}

/// The result of running two processes under a scenario.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// White's decision, if it decided within the budget.
    pub white_decision: Option<bool>,
    /// Black's decision, if it decided within the budget.
    pub black_decision: Option<bool>,
    /// Rounds executed until both halted (or the budget).
    pub rounds: usize,
    /// Messages handed to the environment.
    pub messages_sent: usize,
    /// Messages actually delivered.
    pub messages_delivered: usize,
    /// The audited verdict.
    pub verdict: Verdict,
}

/// Runs `white` and `black` under `scenario` for at most `max_rounds`
/// rounds and audits the execution.
///
/// Letters of the scenario are consumed in order; a process that has halted
/// sends nothing, so its peer observes `null` regardless of the letter —
/// matching the paper's convention that only *sent* messages are subject to
/// omission ("the message of the process, *if any*, is not transmitted").
pub fn run_two_process<P, Q>(
    white: &mut P,
    black: &mut Q,
    scenario: &Scenario,
    max_rounds: usize,
) -> Outcome
where
    P: TwoProcessProtocol,
    Q: TwoProcessProtocol<Msg = P::Msg>,
{
    run_two_process_with_recorder(white, black, scenario, max_rounds, &mut NullRecorder)
}

/// [`run_two_process`] with structured observations delivered to
/// `recorder`. White is node 0, Black node 1 in the emitted events.
pub fn run_two_process_with_recorder<P, Q, R>(
    white: &mut P,
    black: &mut Q,
    scenario: &Scenario,
    max_rounds: usize,
    recorder: &mut R,
) -> Outcome
where
    P: TwoProcessProtocol,
    Q: TwoProcessProtocol<Msg = P::Msg>,
    R: Recorder + ?Sized,
{
    assert_eq!(white.role(), Role::White, "first protocol must play White");
    assert_eq!(black.role(), Role::Black, "second protocol must play Black");

    const WHITE: usize = 0;
    const BLACK: usize = 1;

    let mut rounds = 0usize;
    let mut messages_sent = 0usize;
    let mut messages_delivered = 0usize;
    let run_timer = RoundTimer::start_if(recorder.enabled());
    recorder.record(TraceEvent::RunStart {
        engine: "two_process",
        nodes: 2,
        threads: 1,
    });

    while rounds < max_rounds && !(white.halted() && black.halted()) {
        let observing = recorder.enabled();
        let timer = RoundTimer::start_if(observing);
        let decided_before = (white.decision().is_some(), black.decision().is_some());

        let letter = scenario.letter_at(rounds);
        let from_white = if white.halted() {
            None
        } else {
            white.outgoing()
        };
        let from_black = if black.halted() {
            None
        } else {
            black.outgoing()
        };
        let white_sent = from_white.is_some();
        let black_sent = from_black.is_some();
        let mut counts = RoundCounts {
            sent: white_sent as usize + black_sent as usize,
            ..RoundCounts::default()
        };

        let to_black = from_white.filter(|_| letter.delivers_from(Role::White));
        let to_white = from_black.filter(|_| letter.delivers_from(Role::Black));
        counts.delivered = to_black.is_some() as usize + to_white.is_some() as usize;
        counts.dropped = counts.sent - counts.delivered;
        if observing {
            for (from, to, sent, delivered) in [
                (WHITE, BLACK, white_sent, to_black.is_some()),
                (BLACK, WHITE, black_sent, to_white.is_some()),
            ] {
                if sent {
                    let status = if delivered {
                        MessageStatus::Delivered
                    } else {
                        MessageStatus::Dropped
                    };
                    recorder.record(TraceEvent::Message {
                        round: rounds,
                        from,
                        to,
                        status,
                    });
                }
            }
        }
        messages_sent += counts.sent;
        messages_delivered += counts.delivered;

        if !white.halted() {
            white.advance(to_white);
        }
        if !black.halted() {
            black.advance(to_black);
        }
        if observing {
            for (node, decided, decision) in [
                (WHITE, decided_before.0, white.decision()),
                (BLACK, decided_before.1, black.decision()),
            ] {
                if let Some(value) = decision.filter(|_| !decided) {
                    recorder.record(TraceEvent::Decision {
                        round: rounds,
                        node,
                        value: value as u64,
                    });
                }
            }
        }
        recorder.record(TraceEvent::RoundEnd {
            round: rounds,
            counts,
            nanos: timer.elapsed_nanos(),
        });
        rounds += 1;
    }

    let white_decision = white.decision();
    let black_decision = black.decision();
    let verdict = audit(white.input(), black.input(), white_decision, black_decision);
    recorder.record(TraceEvent::RunEnd {
        rounds,
        totals: RoundCounts {
            sent: messages_sent,
            delivered: messages_delivered,
            dropped: messages_sent - messages_delivered,
            misaddressed: 0,
        },
        nanos: run_timer.elapsed_nanos(),
    });

    Outcome {
        white_decision,
        black_decision,
        rounds,
        messages_sent,
        messages_delivered,
        verdict,
    }
}

/// Audits the three consensus properties given inputs and decisions.
pub fn audit(
    white_input: bool,
    black_input: bool,
    white_decision: Option<bool>,
    black_decision: Option<bool>,
) -> Verdict {
    let (Some(w), Some(b)) = (white_decision, black_decision) else {
        return Verdict::Undecided;
    };
    if w != b {
        return Verdict::Disagreement { white: w, black: b };
    }
    if white_input == black_input && w != white_input {
        return Verdict::ValidityViolation {
            proposed: white_input,
            decided: w,
        };
    }
    Verdict::Consensus(w)
}

/// A deliberately broken protocol for failure-injection tests: it decides
/// its own input immediately, without communicating.
#[derive(Debug, Clone)]
pub struct StubbornProtocol {
    role: Role,
    init: bool,
    halted: bool,
}

impl StubbornProtocol {
    /// Builds a stubborn process.
    pub fn new(role: Role, init: bool) -> Self {
        StubbornProtocol {
            role,
            init,
            halted: false,
        }
    }
}

impl TwoProcessProtocol for StubbornProtocol {
    type Msg = ();

    fn role(&self) -> Role {
        self.role
    }

    fn input(&self) -> bool {
        self.init
    }

    fn outgoing(&self) -> Option<()> {
        None
    }

    fn advance(&mut self, _incoming: Option<()>) {
        self.halted = true;
    }

    fn decision(&self) -> Option<bool> {
        self.halted.then_some(self.init)
    }

    fn halted(&self) -> bool {
        self.halted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc(s: &str) -> Scenario {
        s.parse().unwrap()
    }

    #[test]
    fn stubborn_processes_disagree_on_mixed_inputs() {
        let out = run_two_process(
            &mut StubbornProtocol::new(Role::White, false),
            &mut StubbornProtocol::new(Role::Black, true),
            &sc("(-)"),
            8,
        );
        assert_eq!(
            out.verdict,
            Verdict::Disagreement {
                white: false,
                black: true
            }
        );
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn stubborn_processes_agree_on_equal_inputs() {
        let out = run_two_process(
            &mut StubbornProtocol::new(Role::White, true),
            &mut StubbornProtocol::new(Role::Black, true),
            &sc("(x)"),
            8,
        );
        assert_eq!(out.verdict, Verdict::Consensus(true));
    }

    #[test]
    fn audit_detects_validity_violation() {
        let v = audit(true, true, Some(false), Some(false));
        assert_eq!(
            v,
            Verdict::ValidityViolation {
                proposed: true,
                decided: false
            }
        );
    }

    #[test]
    fn audit_undecided_when_any_missing() {
        assert_eq!(audit(true, false, None, Some(true)), Verdict::Undecided);
        assert_eq!(audit(true, false, Some(true), None), Verdict::Undecided);
        assert_eq!(audit(true, false, None, None), Verdict::Undecided);
    }

    #[test]
    fn mixed_inputs_cannot_violate_validity() {
        assert_eq!(
            audit(true, false, Some(false), Some(false)),
            Verdict::Consensus(false)
        );
        assert_eq!(
            audit(true, false, Some(true), Some(true)),
            Verdict::Consensus(true)
        );
    }

    #[test]
    #[should_panic(expected = "first protocol must play White")]
    fn engine_rejects_swapped_roles() {
        let _ = run_two_process(
            &mut StubbornProtocol::new(Role::Black, true),
            &mut StubbornProtocol::new(Role::White, true),
            &sc("(-)"),
            1,
        );
    }

    #[test]
    fn expect_consensus_panics_on_disagreement() {
        let v = Verdict::Disagreement {
            white: true,
            black: false,
        };
        let res = std::panic::catch_unwind(|| v.expect_consensus());
        assert!(res.is_err());
    }

    #[test]
    fn round_budget_caps_execution() {
        // Stubborn halts after 1 round; a never-halting protocol would cap.
        #[derive(Debug)]
        struct Forever(Role);
        impl TwoProcessProtocol for Forever {
            type Msg = ();
            fn role(&self) -> Role {
                self.0
            }
            fn input(&self) -> bool {
                false
            }
            fn outgoing(&self) -> Option<()> {
                Some(())
            }
            fn advance(&mut self, _: Option<()>) {}
            fn decision(&self) -> Option<bool> {
                None
            }
            fn halted(&self) -> bool {
                false
            }
        }
        let out = run_two_process(
            &mut Forever(Role::White),
            &mut Forever(Role::Black),
            &sc("(-)"),
            17,
        );
        assert_eq!(out.rounds, 17);
        assert_eq!(out.verdict, Verdict::Undecided);
        assert_eq!(out.messages_sent, 34);
        assert_eq!(out.messages_delivered, 34);
    }

    #[test]
    fn delivery_respects_letters() {
        #[derive(Debug)]
        struct Counter {
            role: Role,
            got: usize,
            rounds: usize,
        }
        impl TwoProcessProtocol for Counter {
            type Msg = u8;
            fn role(&self) -> Role {
                self.role
            }
            fn input(&self) -> bool {
                false
            }
            fn outgoing(&self) -> Option<u8> {
                Some(7)
            }
            fn advance(&mut self, incoming: Option<u8>) {
                if incoming.is_some() {
                    self.got += 1;
                }
                self.rounds += 1;
            }
            fn decision(&self) -> Option<bool> {
                None
            }
            fn halted(&self) -> bool {
                self.rounds >= 4
            }
        }
        // Letters: w b - x then halted.
        let mut white = Counter {
            role: Role::White,
            got: 0,
            rounds: 0,
        };
        let mut black = Counter {
            role: Role::Black,
            got: 0,
            rounds: 0,
        };
        let out = run_two_process(&mut white, &mut black, &sc("wb-x(-)"), 10);
        assert_eq!(out.rounds, 4);
        // w: white hears black; b: black hears white; -: both; x: none.
        assert_eq!(out.messages_sent, 8);
        assert_eq!(out.messages_delivered, 4);
    }
}
