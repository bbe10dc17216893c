//! The in-process half of a traced serving run.
//!
//! Replays the workload's stream on two fresh in-process servers started
//! on the same log, so both states see identical cache contents. State A
//! times the request path stage by stage through the public calls the
//! daemon makes: client encode, frame decode, `methods::handle` as one
//! span, response encode, client decode. State B times the handler's
//! children — spec parse, cache lookup, checker, decision procedure,
//! graph code, verdict-log record — through the same public calls the
//! handler makes, and its verdicts must equal A's.

use crate::checker::{CheckerTally, Counted};
use crate::spans::Spans;
use crate::streams::{verdict_of, Op, Verdict};
use minobs_core::prelude::*;
use minobs_graphs::{edge_connectivity, generators};
use minobs_obs::MemoryRecorder;
use minobs_svc::methods;
use minobs_svc::server::{serve, Server, ServerState, SvcConfig};
use minobs_svc::spec::{parse_alphabet, ParsedScheme};
use minobs_svc::wire;
use minobs_synth::checker::{solvable_by_budgeted_with_recorder, Budget, CheckResult};
use serde_json::Value;
use std::path::Path;
use std::time::{Duration, Instant};

/// Most requests replayed per state, which bounds the span file of a
/// fast workload.
const MAX_REPLAYED: usize = 20_000;

/// What the replay measured besides its spans.
pub struct Replay {
    /// Requests replayed on each state.
    pub requests: u64,
    /// Checker work on state B.
    pub tally: CheckerTally,
    /// Requests whose B verdict differed from A's answer.
    pub wrong: u64,
}

fn start(log: &Path, warm: &[u8]) -> Result<Server, String> {
    std::fs::write(log, warm).map_err(|e| format!("write {}: {e}", log.display()))?;
    serve(SvcConfig {
        wal_path: Some(log.to_path_buf()),
        ..SvcConfig::default()
    })
    .map_err(|e| format!("in-process server: {e}"))
}

fn stop(server: Server) {
    server.shutdown();
    server.join();
}

/// Replays `order(0), order(1), …` (indices into `ops`, `None` ends the
/// stream) on states A and B, spending about `budget` in all; span
/// request ids are the replay positions.
pub fn replay(
    ops: &[Op],
    order: &dyn Fn(usize) -> Option<usize>,
    warm: &[u8],
    work: &Path,
    budget: Duration,
    spans: &mut Spans,
) -> Result<Replay, String> {
    let a = start(&work.join("state-a.wal"), warm)?;
    let b = start(&work.join("state-b.wal"), warm)?;
    let started = Instant::now();
    let mut answers = Vec::new();
    while let Some(op) = order(answers.len()) {
        // A gets half the budget; B replays the same requests after it.
        let spent = started.elapsed() >= budget / 2 || answers.len() >= MAX_REPLAYED;
        if spent && !answers.is_empty() {
            break;
        }
        answers.push(stage_request(
            a.state(),
            &ops[op],
            answers.len() as u64,
            spans,
        )?);
    }
    let mut replay = Replay {
        requests: answers.len() as u64,
        tally: CheckerTally::default(),
        wrong: 0,
    };
    for (i, answer) in answers.iter().enumerate() {
        let op = &ops[order(i).expect("replayed above")];
        let got = handler_children(b.state(), op, answer, i as u64, spans, &mut replay.tally)?;
        if got.is_none() || got != verdict_of(op.method, answer) {
            replay.wrong += 1;
            eprintln!(
                "perfbench: state B gave {got:?} for {} {:?}, A answered {answer:?}",
                op.method, op.params
            );
        }
    }
    stop(a);
    stop(b);
    Ok(replay)
}

/// One request through the request path on `state`, stage by stage.
fn stage_request(
    state: &ServerState,
    op: &Op,
    req: u64,
    spans: &mut Spans,
) -> Result<Value, String> {
    let id = spans.open("request", None, req);
    let root = Some(id);
    let mut frame = Vec::new();
    spans
        .time("client.encode", root, req, || {
            wire::write_frame(
                &mut frame,
                &wire::request(req, op.method, op.params.clone()),
            )
        })
        .map_err(|e| e.to_string())?;
    let request = spans.time("wire.decode", root, req, || {
        let (value, _) = wire::try_parse_frame(&frame)
            .map_err(|e| e.to_string())?
            .ok_or("incomplete frame")?;
        wire::parse_request(&value)
    })?;
    let (result, _) = spans.time("methods.handle", root, req, || {
        methods::handle(state, &request)
    });
    let result = result.map_err(|e| format!("{} {:?}: {}", op.method, op.params, e.message))?;
    let answer = result.clone();
    let mut reply = Vec::new();
    spans
        .time("wire.encode", root, req, || {
            wire::write_frame(&mut reply, &wire::ok_response(request.id, result))
        })
        .map_err(|e| e.to_string())?;
    spans
        .time("client.decode", root, req, || {
            wire::read_frame(&mut reply.as_slice())
        })
        .map_err(|e| e.to_string())?;
    spans.close(id);
    Ok(answer)
}

/// The handler's work for `op` on `state`, one public call per span.
/// Theorem verdicts are memoised with A's answer, so both caches hold the
/// same objects.
fn handler_children(
    state: &ServerState,
    op: &Op,
    answer: &Value,
    req: u64,
    spans: &mut Spans,
    tally: &mut CheckerTally,
) -> Result<Option<Verdict>, String> {
    let root = spans.open("handler", None, req);
    let parent = Some(root);
    let params = &op.params;
    let scheme_param = params.get("scheme").unwrap_or(&Value::Null);
    let verdict = match op.method {
        "net_solvable" => spans.time("graphs.net_solvable", parent, req, || {
            let desc = params.get("graph").and_then(Value::as_str)?;
            let f = params.get("f").and_then(Value::as_u64)?;
            let graph = generators::parse(desc).ok()?;
            Some(Verdict::Solvable(f < edge_connectivity(&graph) as u64))
        }),
        "solvable" => {
            let (scheme, key) = spans.time("spec.parse", parent, req, || {
                ParsedScheme::parse(scheme_param).map(|s| {
                    let key = format!("{}|theorem", s.canonical());
                    (s, key)
                })
            })?;
            match spans.time("cache.lookup", parent, req, || {
                state.cache().lookup_theorem(&key)
            }) {
                Some(cached) => verdict_of("solvable", &cached),
                None => {
                    let decided = spans.time("theorem.decide", parent, req, || scheme.decide())?;
                    spans.time("wal.record", parent, req, || {
                        state.record_theorem(&key, answer.clone())
                    });
                    Some(Verdict::Solvable(matches!(
                        decided,
                        Solvability::Solvable { .. }
                    )))
                }
            }
        }
        method => {
            let single = method == "check_horizon";
            let field = if single { "horizon" } else { "max_horizon" };
            let (scheme, alphabet, key) = spans.time("spec.parse", parent, req, || {
                let scheme = ParsedScheme::parse(scheme_param)?;
                let alphabet = parse_alphabet(params, &scheme)?;
                let key = scheme.cache_key(&alphabet);
                Ok::<_, String>((scheme, alphabet, key))
            })?;
            let top = params
                .get(field)
                .and_then(Value::as_u64)
                .ok_or("no horizon")? as usize;
            let limits = state.limits();
            let budget = Budget {
                max_states: limits.max_states,
                max_millis: limits.max_millis,
            };
            let mut verdict = if single {
                None
            } else {
                Some(Verdict::FirstHorizon(None))
            };
            for k in if single { top..=top } else { 0..=top } {
                let cached = spans.time("cache.lookup", parent, req, || {
                    state.cache().lookup_horizon(&key, k)
                });
                let solvable = match cached {
                    Some(answer) => answer.solvable(),
                    None => {
                        let counted = Counted::new(scheme.as_omission());
                        let mut recorder = MemoryRecorder::new();
                        let result = spans.time("checker.check", parent, req, || {
                            solvable_by_budgeted_with_recorder(
                                &counted,
                                k,
                                &alphabet,
                                budget,
                                &mut recorder,
                            )
                        });
                        tally.absorb(recorder.events(), &counted);
                        if matches!(result, CheckResult::BudgetExhausted { .. }) {
                            return Err(format!("checker budget exhausted on {:?}", op.params));
                        }
                        spans.time("wal.record", parent, req, || {
                            state.record_horizon(&key, k, result.is_solvable())
                        });
                        result.is_solvable()
                    }
                };
                if single {
                    verdict = Some(Verdict::Solvable(solvable));
                } else if solvable {
                    verdict = Some(Verdict::FirstHorizon(Some(k)));
                    break;
                }
            }
            verdict
        }
    };
    spans.close(root);
    Ok(verdict)
}
