//! Trace and bench-artifact validation, shared by the `trace_lint`
//! binary and by test suites that want to assert a generated stream is
//! lint-clean (flight-recorder dumps, daemon traces) without shelling
//! out.
//!
//! See the `trace_lint` binary's documentation for the full invariant
//! list; [`lint`] is the JSONL-trace checker and [`lint_bench`] the
//! `minobs/bench/v1` artifact checker.

use crate::{validate_bench_artifact, BENCH_SCHEMA};
use minobs_obs::{MessageStatus, Name, RoundCounts, SpanCtx, TraceEvent};
use serde_json::Value;
use std::collections::{HashMap, HashSet};

#[derive(Debug, Default)]
struct RunTally {
    message_dropped: usize,
    round_totals: RoundCounts,
    rounds_seen: usize,
}

/// Decodes one JSONL trace line into its event and its `node_id` stamp.
///
/// The line must be JSON that [`TraceEvent::from_json`] accepts, and a
/// `node_id`, when present, must be a non-empty string. Errors carry no
/// location: callers prefix the file and line they read it from.
pub fn decode_line(line: &str) -> Result<(TraceEvent, Option<String>), String> {
    let value: Value =
        serde_json::from_str(line).map_err(|err| format!("not valid JSON: {err}"))?;
    let event = TraceEvent::from_json(&value)?;
    let node = value
        .get("node_id")
        .map(|node| match node.as_str() {
            Some(node) if !node.is_empty() => Ok(node.to_string()),
            _ => Err("node_id must be a non-empty string"),
        })
        .transpose()?;
    Ok((event, node))
}

/// Validates a `minobs/trace/v1` JSONL stream; returns
/// `(lines_checked, runs_closed)` or the first violation.
///
/// Each line must pass [`decode_line`]: [`TraceEvent::from_json`] owns the
/// per-kind field shapes. What is checked here is what one decoded event
/// cannot say about itself: run brackets and message conservation, span
/// nesting and id uniqueness, request/response pairing, one `node_id`
/// per file, and the few value rules the field types leave open.
pub fn lint(text: &str) -> Result<(usize, usize), String> {
    let mut runs_closed = 0usize;
    let mut lines_checked = 0usize;
    let mut current: Option<RunTally> = None;
    // In-flight service requests: seq → method.
    let mut pending_svc: HashMap<u64, Name> = HashMap::new();
    // Open profiling spans, innermost last: (span_id, name).
    let mut span_stack: Vec<(u64, Name)> = Vec::new();
    let mut span_ids_seen: HashSet<u64> = HashSet::new();
    // First node_id seen: one trace file is one node's stream.
    let mut node_seen: Option<String> = None;

    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            return Err(format!("line {line_no}: blank line in JSONL stream"));
        }
        let (event, node) = decode_line(line).map_err(|err| format!("line {line_no}: {err}"))?;
        if let Some(node) = node {
            match &node_seen {
                Some(seen) if *seen != node => {
                    return Err(format!(
                        "line {line_no}: node_id {node:?} != {seen:?} seen earlier — one trace file is one node's stream"
                    ));
                }
                Some(_) => {}
                None => node_seen = Some(node),
            }
        }
        lines_checked += 1;

        match event {
            TraceEvent::RunStart { .. } => {
                if current.is_some() {
                    return Err(format!("line {line_no}: run_start inside an open run"));
                }
                // Each engine run constructs a fresh `SpanIds`, so span-id
                // uniqueness is scoped to the run bracket. Only reset the
                // scope when no span is open (a still-open outer span keeps
                // its id reserved).
                if span_stack.is_empty() {
                    span_ids_seen.clear();
                }
                current = Some(RunTally::default());
            }
            TraceEvent::Message { status, .. } => {
                let tally = current
                    .as_mut()
                    .ok_or_else(|| format!("line {line_no}: message outside a run"))?;
                if status == MessageStatus::Dropped {
                    tally.message_dropped += 1;
                }
            }
            TraceEvent::RoundEnd { counts, .. } => {
                let tally = current
                    .as_mut()
                    .ok_or_else(|| format!("line {line_no}: round_end outside a run"))?;
                let (sent, delivered, dropped) = (counts.sent, counts.delivered, counts.dropped);
                if sent != delivered + dropped {
                    return Err(format!(
                        "line {line_no}: round conservation broken: sent {sent} != delivered {delivered} + dropped {dropped}"
                    ));
                }
                tally.round_totals.absorb(counts);
                tally.rounds_seen += 1;
            }
            TraceEvent::RunEnd { rounds, totals, .. } => {
                let tally = current
                    .take()
                    .ok_or_else(|| format!("line {line_no}: run_end without run_start"))?;
                if rounds != tally.rounds_seen {
                    return Err(format!(
                        "line {line_no}: run_end reports {rounds} rounds, trace has {} round_end events",
                        tally.rounds_seen
                    ));
                }
                for (label, total, accumulated) in [
                    ("sent", totals.sent, tally.round_totals.sent),
                    ("delivered", totals.delivered, tally.round_totals.delivered),
                    ("dropped", totals.dropped, tally.round_totals.dropped),
                ] {
                    if total != accumulated {
                        return Err(format!(
                            "line {line_no}: run_end {label} {total} != per-round sum {accumulated}"
                        ));
                    }
                }
                if tally.message_dropped != totals.dropped {
                    return Err(format!(
                        "line {line_no}: {} dropped message events, run_end reports {}",
                        tally.message_dropped, totals.dropped
                    ));
                }
                runs_closed += 1;
            }
            // Emitted by the checker; the frontier at the stop point can
            // never exceed the cumulative states explored.
            TraceEvent::BudgetExhausted {
                frontier, states, ..
            } if frontier > states => {
                return Err(format!(
                    "line {line_no}: budget_exhausted frontier {frontier} > states explored {states}"
                ));
            }
            TraceEvent::SvcRequest { seq, .. } if pending_svc.contains_key(&seq) => {
                return Err(format!("line {line_no}: duplicate svc_request seq {seq}"));
            }
            TraceEvent::SvcRequest { seq, method } => {
                pending_svc.insert(seq, method);
            }
            TraceEvent::SvcResponse { seq, method, .. } => {
                let requested = pending_svc.remove(&seq).ok_or_else(|| {
                    format!("line {line_no}: svc_response seq {seq} without a matching svc_request")
                })?;
                if requested != method {
                    return Err(format!(
                        "line {line_no}: svc_response seq {seq} method {method:?} != request method {requested:?}"
                    ));
                }
            }
            TraceEvent::SpanStart {
                span_id,
                parent,
                name,
                ctx,
                ..
            } => {
                let SpanCtx {
                    trace_id,
                    ctx_parent,
                } = ctx.as_deref().copied().unwrap_or_default();
                if trace_id == Some(0) {
                    return Err(format!(
                        "line {line_no}: trace_id is zero — TraceContext::root never mints it"
                    ));
                }
                if ctx_parent.is_some() && trace_id.is_none() {
                    return Err(format!(
                        "line {line_no}: ctx_parent without trace_id — a remote parent only means something inside a trace"
                    ));
                }
                if !span_ids_seen.insert(span_id) {
                    return Err(format!(
                        "line {line_no}: span id {span_id} reused (ids must be unique within a run)"
                    ));
                }
                if let Some(parent) = parent {
                    match span_stack.last() {
                        Some((open_id, _)) if *open_id == parent => {}
                        Some((open_id, _)) => {
                            return Err(format!(
                                "line {line_no}: span {span_id} declares parent {parent} but the enclosing open span is {open_id}"
                            ));
                        }
                        None => {
                            return Err(format!(
                                "line {line_no}: span {span_id} declares parent {parent} but no span is open"
                            ));
                        }
                    }
                }
                span_stack.push((span_id, name));
            }
            TraceEvent::SpanEnd { span_id, name, .. } => {
                let (open_id, open_name) = span_stack.pop().ok_or_else(|| {
                    format!("line {line_no}: span_end {span_id} without an open span")
                })?;
                if open_id != span_id || open_name != name {
                    return Err(format!(
                        "line {line_no}: span_end {span_id} {name:?} does not close the innermost open span {open_id} {open_name:?}"
                    ));
                }
            }
            TraceEvent::GossipApply { op: "snapshot", .. } => {
                return Err(format!(
                    "line {line_no}: gossip_apply op \"snapshot\", expected horizon/theorem \
                     (snapshots never travel over gossip)"
                ));
            }
            TraceEvent::Health { status, .. } if !matches!(status.as_str(), "ok" | "degraded") => {
                return Err(format!(
                    "line {line_no}: health status {status:?}, expected ok/degraded"
                ));
            }
            TraceEvent::FlightDump { reason, .. } if reason.is_empty() => {
                return Err(format!(
                    "line {line_no}: flight_dump reason must be non-empty"
                ));
            }
            // Every other event is fully described by its decoded shape.
            _ => {}
        }
    }
    if current.is_some() {
        return Err("trace ends inside an open run (no final run_end)".to_string());
    }
    if let Some((span_id, name)) = span_stack.last() {
        return Err(format!(
            "{} span(s) never closed at end of file (innermost: {span_id} {name:?})",
            span_stack.len()
        ));
    }
    if !pending_svc.is_empty() {
        let mut seqs: Vec<u64> = pending_svc.keys().copied().collect();
        seqs.sort_unstable();
        return Err(format!(
            "{} svc_request(s) never answered (seqs {seqs:?}) — the daemon drains before exiting",
            seqs.len()
        ));
    }
    Ok((lines_checked, runs_closed))
}

/// Detects a `minobs/bench/v1` artifact: the whole file is one JSON
/// object carrying that schema tag. Returns its validation outcome, or
/// `None` when the file is something else (a JSONL trace).
pub fn lint_bench(text: &str) -> Option<Result<(), String>> {
    let value: Value = serde_json::from_str(text.trim()).ok()?;
    if value.get("schema").and_then(Value::as_str) != Some(BENCH_SCHEMA) {
        return None;
    }
    Some(validate_bench_artifact(&value))
}

#[cfg(test)]
mod tests {
    use super::{lint, lint_bench};

    fn line(s: &str) -> String {
        s.replace("SCHEMA", minobs_obs::SCHEMA)
    }

    fn bench_text(p99: &str, completed: &str) -> String {
        format!(
            r#"{{"schema":"{}","id":"t","kind":"checker","meta":{{"timestamp":"2026-08-07T00:00:00Z","rustc":"rustc","threads":1}},"sent":40,"completed":{completed},"achieved_qps":90.0,"latency_ns":{{"count":10,"p50":100,"p95":200,"p99":{p99},"max":5000}}}}"#,
            crate::BENCH_SCHEMA
        )
    }

    #[test]
    fn bench_artifacts_are_detected_and_validated() {
        // A valid artifact passes the bench path.
        assert_eq!(lint_bench(&bench_text("300", "40")), Some(Ok(())));
        // Non-monotone quantiles are a violation (p99 < p95).
        let err = lint_bench(&bench_text("150", "40")).unwrap().unwrap_err();
        assert!(err.contains("monotone"), "{err}");
        // More calls completed than were sent is a violation.
        let err = lint_bench(&bench_text("300", "41")).unwrap().unwrap_err();
        assert!(err.contains("exceeds sent"), "{err}");
        // A JSONL trace line is NOT a bench artifact: falls through.
        assert!(lint_bench(&line(
            r#"{"schema":"SCHEMA","event":"svc_request","round":0,"seq":0,"method":"stats"}"#
        ))
        .is_none());
        // A single object under some other schema also falls through.
        assert!(lint_bench(r#"{"schema":"minobs/other/v1"}"#).is_none());
    }

    #[test]
    fn accepts_a_conserving_run() {
        let text = [
            r#"{"schema":"SCHEMA","event":"run_start","round":0,"engine":"network","nodes":2,"threads":1}"#,
            r#"{"schema":"SCHEMA","event":"message","round":0,"from":0,"to":1,"status":"dropped"}"#,
            r#"{"schema":"SCHEMA","event":"message","round":0,"from":1,"to":0,"status":"delivered"}"#,
            r#"{"schema":"SCHEMA","event":"round_end","round":0,"sent":2,"delivered":1,"dropped":1,"misaddressed":0,"nanos":0}"#,
            r#"{"schema":"SCHEMA","event":"run_end","round":1,"sent":2,"delivered":1,"dropped":1,"misaddressed":0,"nanos":0}"#,
        ]
        .map(line)
        .join("\n");
        assert_eq!(lint(&text), Ok((5, 1)));
    }

    #[test]
    fn rejects_drop_sum_mismatch() {
        let text = [
            r#"{"schema":"SCHEMA","event":"run_start","round":0,"engine":"network","nodes":2,"threads":1}"#,
            r#"{"schema":"SCHEMA","event":"round_end","round":0,"sent":2,"delivered":1,"dropped":1,"misaddressed":0,"nanos":0}"#,
            r#"{"schema":"SCHEMA","event":"run_end","round":1,"sent":2,"delivered":1,"dropped":1,"misaddressed":0,"nanos":0}"#,
        ]
        .map(line)
        .join("\n");
        // round_end claims a drop but no dropped message event exists.
        let err = lint(&text).unwrap_err();
        assert!(err.contains("dropped message events"), "{err}");
    }

    #[test]
    fn rejects_broken_run_brackets() {
        let start = r#"{"schema":"SCHEMA","event":"run_start","round":0,"engine":"network","nodes":2,"threads":1}"#;
        let round = r#"{"schema":"SCHEMA","event":"round_end","round":0,"sent":0,"delivered":0,"dropped":0,"misaddressed":0,"nanos":0}"#;
        let end = r#"{"schema":"SCHEMA","event":"run_end","round":1,"sent":0,"delivered":0,"dropped":0,"misaddressed":0,"nanos":0}"#;
        let lint_lines = |lines: &[&str]| {
            lint(&lines.iter().map(|l| line(l)).collect::<Vec<_>>().join("\n")).unwrap_err()
        };

        let err = lint_lines(&[start, start]);
        assert!(err.contains("run_start inside an open run"), "{err}");
        let err = lint_lines(&[round]);
        assert!(err.contains("round_end outside a run"), "{err}");
        let err = lint_lines(&[end]);
        assert!(err.contains("run_end without run_start"), "{err}");
        // run_end claims one round; the trace closed none.
        let err = lint_lines(&[start, end]);
        assert!(err.contains("run_end reports 1 rounds"), "{err}");
    }

    #[test]
    fn rejects_unconserved_rounds_and_totals() {
        let unconserved = [
            r#"{"schema":"SCHEMA","event":"run_start","round":0,"engine":"network","nodes":2,"threads":1}"#,
            r#"{"schema":"SCHEMA","event":"round_end","round":0,"sent":3,"delivered":1,"dropped":1,"misaddressed":0,"nanos":0}"#,
        ]
        .map(line)
        .join("\n");
        let err = lint(&unconserved).unwrap_err();
        assert!(err.contains("round conservation broken"), "{err}");

        let inflated_total = [
            r#"{"schema":"SCHEMA","event":"run_start","round":0,"engine":"network","nodes":2,"threads":1}"#,
            r#"{"schema":"SCHEMA","event":"round_end","round":0,"sent":1,"delivered":1,"dropped":0,"misaddressed":0,"nanos":0}"#,
            r#"{"schema":"SCHEMA","event":"run_end","round":1,"sent":2,"delivered":1,"dropped":0,"misaddressed":0,"nanos":0}"#,
        ]
        .map(line)
        .join("\n");
        let err = lint(&inflated_total).unwrap_err();
        assert!(err.contains("run_end sent 2 != per-round sum 1"), "{err}");
    }

    #[test]
    fn rejects_bad_schema_and_bad_json() {
        assert!(lint(r#"{"schema":"other/v9","event":"x","round":0}"#)
            .unwrap_err()
            .contains("schema"));
        assert!(lint("not json").unwrap_err().contains("not valid JSON"));
    }

    #[test]
    fn validates_budget_exhausted() {
        let ok = [
            r#"{"schema":"SCHEMA","event":"run_start","round":0,"engine":"network","nodes":2,"threads":1}"#,
            r#"{"schema":"SCHEMA","event":"round_end","round":0,"sent":0,"delivered":0,"dropped":0,"misaddressed":0,"nanos":0}"#,
            r#"{"schema":"SCHEMA","event":"run_end","round":1,"sent":0,"delivered":0,"dropped":0,"misaddressed":0,"nanos":0}"#,
            r#"{"schema":"SCHEMA","event":"budget_exhausted","round":2,"frontier":9,"states":40}"#,
        ]
        .map(line)
        .join("\n");
        assert_eq!(lint(&ok), Ok((4, 1)));

        let bad_budget = line(
            r#"{"schema":"SCHEMA","event":"budget_exhausted","round":1,"frontier":50,"states":10}"#,
        );
        assert!(lint(&bad_budget).unwrap_err().contains("frontier"));
    }

    #[test]
    fn validates_svc_event_pairing() {
        let ok = [
            r#"{"schema":"SCHEMA","event":"svc_request","round":0,"seq":0,"method":"check_horizon"}"#,
            r#"{"schema":"SCHEMA","event":"svc_request","round":0,"seq":1,"method":"stats"}"#,
            r#"{"schema":"SCHEMA","event":"svc_response","round":0,"seq":1,"method":"stats","ok":true,"cache":"none","nanos":120}"#,
            r#"{"schema":"SCHEMA","event":"svc_response","round":0,"seq":0,"method":"check_horizon","ok":true,"cache":"subsumed","nanos":950}"#,
        ]
        .map(line)
        .join("\n");
        assert_eq!(lint(&ok), Ok((4, 0)));

        let unanswered =
            line(r#"{"schema":"SCHEMA","event":"svc_request","round":0,"seq":7,"method":"stats"}"#);
        assert!(lint(&unanswered).unwrap_err().contains("never answered"));

        let orphan = line(
            r#"{"schema":"SCHEMA","event":"svc_response","round":0,"seq":7,"method":"stats","ok":true,"cache":"none","nanos":1}"#,
        );
        assert!(lint(&orphan).unwrap_err().contains("matching svc_request"));

        let method_mismatch = [
            r#"{"schema":"SCHEMA","event":"svc_request","round":0,"seq":2,"method":"stats"}"#,
            r#"{"schema":"SCHEMA","event":"svc_response","round":0,"seq":2,"method":"solvable","ok":true,"cache":"hit","nanos":1}"#,
        ]
        .map(line)
        .join("\n");
        assert!(lint(&method_mismatch).unwrap_err().contains("method"));

        let bad_cache = [
            r#"{"schema":"SCHEMA","event":"svc_request","round":0,"seq":3,"method":"stats"}"#,
            r#"{"schema":"SCHEMA","event":"svc_response","round":0,"seq":3,"method":"stats","ok":true,"cache":"warm","nanos":1}"#,
        ]
        .map(line)
        .join("\n");
        assert!(lint(&bad_cache).unwrap_err().contains("cache"));

        let dup_seq = [
            r#"{"schema":"SCHEMA","event":"svc_request","round":0,"seq":4,"method":"stats"}"#,
            r#"{"schema":"SCHEMA","event":"svc_request","round":0,"seq":4,"method":"stats"}"#,
        ]
        .map(line)
        .join("\n");
        assert!(lint(&dup_seq).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn accepts_well_formed_nested_spans() {
        let text = [
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":0,"parent":null,"name":"outer"}"#,
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":1,"parent":0,"name":"inner"}"#,
            r#"{"schema":"SCHEMA","event":"span_end","round":0,"span_id":1,"name":"inner","nanos":50}"#,
            r#"{"schema":"SCHEMA","event":"span_end","round":0,"span_id":0,"name":"outer","nanos":120}"#,
        ]
        .map(line)
        .join("\n");
        assert_eq!(lint(&text), Ok((4, 0)));
    }

    #[test]
    fn span_ids_may_restart_across_runs() {
        // Each engine run constructs a fresh `SpanIds`, so consecutive
        // runs in one trace legitimately reuse id 0 — the uniqueness
        // scope is the run bracket, not the whole stream.
        let text = [
            r#"{"schema":"SCHEMA","event":"run_start","round":0,"engine":"network","nodes":2,"threads":1}"#,
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":0,"parent":null,"name":"net_send"}"#,
            r#"{"schema":"SCHEMA","event":"span_end","round":0,"span_id":0,"name":"net_send","nanos":10}"#,
            r#"{"schema":"SCHEMA","event":"round_end","round":0,"sent":0,"delivered":0,"dropped":0,"misaddressed":0,"nanos":1}"#,
            r#"{"schema":"SCHEMA","event":"run_end","round":1,"sent":0,"delivered":0,"dropped":0,"misaddressed":0,"nanos":2}"#,
            r#"{"schema":"SCHEMA","event":"run_start","round":0,"engine":"network","nodes":2,"threads":1}"#,
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":0,"parent":null,"name":"net_send"}"#,
            r#"{"schema":"SCHEMA","event":"span_end","round":0,"span_id":0,"name":"net_send","nanos":10}"#,
            r#"{"schema":"SCHEMA","event":"round_end","round":0,"sent":0,"delivered":0,"dropped":0,"misaddressed":0,"nanos":1}"#,
            r#"{"schema":"SCHEMA","event":"run_end","round":1,"sent":0,"delivered":0,"dropped":0,"misaddressed":0,"nanos":2}"#,
        ]
        .map(line)
        .join("\n");
        assert_eq!(lint(&text), Ok((10, 2)));
    }

    #[test]
    fn rejects_span_violations() {
        let reused_id = [
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":5,"parent":null,"name":"a"}"#,
            r#"{"schema":"SCHEMA","event":"span_end","round":0,"span_id":5,"name":"a","nanos":1}"#,
            r#"{"schema":"SCHEMA","event":"span_start","round":1,"span_id":5,"parent":null,"name":"a"}"#,
            r#"{"schema":"SCHEMA","event":"span_end","round":1,"span_id":5,"name":"a","nanos":1}"#,
        ]
        .map(line)
        .join("\n");
        assert!(lint(&reused_id).unwrap_err().contains("reused"));

        let crossed = [
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":0,"parent":null,"name":"a"}"#,
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":1,"parent":0,"name":"b"}"#,
            r#"{"schema":"SCHEMA","event":"span_end","round":0,"span_id":0,"name":"a","nanos":1}"#,
        ]
        .map(line)
        .join("\n");
        assert!(lint(&crossed).unwrap_err().contains("innermost"));

        let renamed = [
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":0,"parent":null,"name":"a"}"#,
            r#"{"schema":"SCHEMA","event":"span_end","round":0,"span_id":0,"name":"b","nanos":1}"#,
        ]
        .map(line)
        .join("\n");
        assert!(lint(&renamed).unwrap_err().contains("innermost"));

        let orphan_end = line(
            r#"{"schema":"SCHEMA","event":"span_end","round":0,"span_id":9,"name":"x","nanos":1}"#,
        );
        assert!(lint(&orphan_end)
            .unwrap_err()
            .contains("without an open span"));

        let bad_parent = [
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":0,"parent":null,"name":"a"}"#,
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":1,"parent":7,"name":"b"}"#,
        ]
        .map(line)
        .join("\n");
        assert!(lint(&bad_parent).unwrap_err().contains("parent"));

        let unclosed = line(
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":0,"parent":null,"name":"a"}"#,
        );
        assert!(lint(&unclosed).unwrap_err().contains("never closed"));
    }

    #[test]
    fn validates_wal_events() {
        let ok = [
            r#"{"schema":"SCHEMA","event":"wal_replay","round":0,"records":12,"bytes":900,"dropped_tail":true}"#,
            r#"{"schema":"SCHEMA","event":"wal_append","round":0,"op":"horizon","key":"classic:s1|gamma","bytes":80}"#,
            r#"{"schema":"SCHEMA","event":"wal_append","round":0,"op":"theorem","key":"classic:s1|theorem","bytes":120}"#,
            r#"{"schema":"SCHEMA","event":"wal_append","round":0,"op":"snapshot","key":"classic:s1|gamma","bytes":140}"#,
            r#"{"schema":"SCHEMA","event":"wal_degraded","round":0,"error":"no space left on device"}"#,
        ]
        .map(line)
        .join("\n");
        assert_eq!(lint(&ok), Ok((5, 0)));

        let bad_op = line(
            r#"{"schema":"SCHEMA","event":"wal_append","round":0,"op":"patch","key":"k","bytes":1}"#,
        );
        assert!(lint(&bad_op).unwrap_err().contains("op"));

        let no_tail_flag =
            line(r#"{"schema":"SCHEMA","event":"wal_replay","round":0,"records":1,"bytes":10}"#);
        assert!(lint(&no_tail_flag).unwrap_err().contains("dropped_tail"));

        let no_error = line(r#"{"schema":"SCHEMA","event":"wal_degraded","round":0}"#);
        assert!(lint(&no_error).unwrap_err().contains("error"));
    }

    #[test]
    fn validates_gossip_events() {
        let ok = [
            r#"{"schema":"SCHEMA","event":"gossip_round","round":0,"peer":"127.0.0.1:7071","sent":4,"received":2,"nanos":15000}"#,
            r#"{"schema":"SCHEMA","event":"gossip_apply","round":0,"peer":"127.0.0.1:7071","op":"horizon","key":"classic:s1|gamma","accepted":true}"#,
            r#"{"schema":"SCHEMA","event":"gossip_apply","round":0,"peer":"127.0.0.1:7071","op":"theorem","key":"classic:s1|theorem","accepted":false}"#,
            r#"{"schema":"SCHEMA","event":"peer_down","round":0,"peer":"127.0.0.1:7072","failures":3}"#,
        ]
        .map(line)
        .join("\n");
        assert_eq!(lint(&ok), Ok((4, 0)));

        let bad_op = line(
            r#"{"schema":"SCHEMA","event":"gossip_apply","round":0,"peer":"p","op":"snapshot","key":"k","accepted":true}"#,
        );
        assert!(lint(&bad_op).unwrap_err().contains("op"));

        let no_accepted = line(
            r#"{"schema":"SCHEMA","event":"gossip_apply","round":0,"peer":"p","op":"horizon","key":"k"}"#,
        );
        assert!(lint(&no_accepted).unwrap_err().contains("accepted"));

        let no_sent = line(
            r#"{"schema":"SCHEMA","event":"gossip_round","round":0,"peer":"p","received":0,"nanos":1}"#,
        );
        assert!(lint(&no_sent).unwrap_err().contains("sent"));

        let no_failures = line(r#"{"schema":"SCHEMA","event":"peer_down","round":0,"peer":"p"}"#);
        assert!(lint(&no_failures).unwrap_err().contains("failures"));
    }

    #[test]
    fn validates_distributed_trace_fields() {
        // A ctx-stamped root span plus a ctx-parented gossip root, all
        // on one node, with a health edge — the shape a daemon emits.
        let ok = [
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":0,"parent":null,"name":"rpc.check","trace_id":"00000000000000000000000000000abc","node_id":"n1"}"#,
            r#"{"schema":"SCHEMA","event":"span_end","round":0,"span_id":0,"name":"rpc.check","nanos":10,"node_id":"n1"}"#,
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":1048576,"parent":null,"name":"gossip.exchange","trace_id":"00000000000000000000000000000abc","ctx_parent":0,"node_id":"n1"}"#,
            r#"{"schema":"SCHEMA","event":"span_end","round":0,"span_id":1048576,"name":"gossip.exchange","nanos":5,"node_id":"n1"}"#,
            r#"{"schema":"SCHEMA","event":"health","round":0,"status":"ok","ready":true,"live":true,"node_id":"n1"}"#,
        ]
        .map(line)
        .join("\n");
        assert_eq!(lint(&ok), Ok((5, 0)));

        let short_trace = line(
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":0,"parent":null,"name":"a","trace_id":"abc"}"#,
        );
        assert!(lint(&short_trace).unwrap_err().contains("32 lowercase hex"));

        let upper_trace = line(
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":0,"parent":null,"name":"a","trace_id":"00000000000000000000000000000ABC"}"#,
        );
        assert!(lint(&upper_trace).unwrap_err().contains("32 lowercase hex"));

        let zero_trace = line(
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":0,"parent":null,"name":"a","trace_id":"00000000000000000000000000000000"}"#,
        );
        assert!(lint(&zero_trace).unwrap_err().contains("zero"));

        let bare_ctx_parent = line(
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":0,"parent":null,"name":"a","ctx_parent":7}"#,
        );
        assert!(lint(&bare_ctx_parent)
            .unwrap_err()
            .contains("ctx_parent without trace_id"));
    }

    #[test]
    fn validates_node_id_and_health_events() {
        let empty_node = line(
            r#"{"schema":"SCHEMA","event":"health","round":0,"status":"ok","ready":true,"live":true,"node_id":""}"#,
        );
        assert!(lint(&empty_node).unwrap_err().contains("non-empty"));

        let mixed_nodes = [
            r#"{"schema":"SCHEMA","event":"health","round":0,"status":"ok","ready":true,"live":true,"node_id":"n1"}"#,
            r#"{"schema":"SCHEMA","event":"health","round":0,"status":"ok","ready":true,"live":true,"node_id":"n2"}"#,
        ]
        .map(line)
        .join("\n");
        assert!(lint(&mixed_nodes)
            .unwrap_err()
            .contains("one trace file is one node's stream"));

        let bad_status = line(
            r#"{"schema":"SCHEMA","event":"health","round":0,"status":"meh","ready":true,"live":true}"#,
        );
        assert!(lint(&bad_status).unwrap_err().contains("status"));

        let no_ready =
            line(r#"{"schema":"SCHEMA","event":"health","round":0,"status":"ok","live":true}"#);
        assert!(lint(&no_ready).unwrap_err().contains("ready"));

        let no_live =
            line(r#"{"schema":"SCHEMA","event":"health","round":0,"status":"ok","ready":true}"#);
        assert!(lint(&no_live).unwrap_err().contains("live"));
    }

    #[test]
    fn validates_flight_dump_meta_lines() {
        // The header a flight-recorder dump leads with, followed by a
        // truncated-span close — the shape `FlightRecorder::dump` emits.
        let ok = [
            r#"{"schema":"SCHEMA","event":"flight_dump","round":0,"reason":"wal_degraded","events":3,"dropped":1,"truncated":1,"node_id":"n1"}"#,
            r#"{"schema":"SCHEMA","event":"span_start","round":0,"span_id":0,"parent":null,"name":"rpc.stats","node_id":"n1"}"#,
            r#"{"schema":"SCHEMA","event":"span_end","round":0,"span_id":0,"name":"rpc.stats","nanos":0,"truncated":true,"node_id":"n1"}"#,
        ]
        .map(line)
        .join("\n");
        assert_eq!(lint(&ok), Ok((3, 0)));

        let no_reason = line(
            r#"{"schema":"SCHEMA","event":"flight_dump","round":0,"events":3,"dropped":0,"truncated":0}"#,
        );
        assert!(lint(&no_reason).unwrap_err().contains("reason"));

        let empty_reason = line(
            r#"{"schema":"SCHEMA","event":"flight_dump","round":0,"reason":"","events":3,"dropped":0,"truncated":0}"#,
        );
        assert!(lint(&empty_reason).unwrap_err().contains("non-empty"));

        let no_counts =
            line(r#"{"schema":"SCHEMA","event":"flight_dump","round":0,"reason":"rpc"}"#);
        assert!(lint(&no_counts).unwrap_err().contains("events"));
    }

    #[test]
    fn rejects_fields_the_decoder_cannot_read() {
        let no_frontier =
            line(r#"{"schema":"SCHEMA","event":"checker_round","round":1,"views":30,"nanos":2}"#);
        assert!(lint(&no_frontier).unwrap_err().contains("frontier"));

        let bad_node =
            line(r#"{"schema":"SCHEMA","event":"decision","round":3,"node":"x","value":7}"#);
        assert!(lint(&bad_node).unwrap_err().contains("node"));

        let bad_solvable =
            line(r#"{"schema":"SCHEMA","event":"horizon","round":3,"solvable":"maybe","nanos":1}"#);
        assert!(lint(&bad_solvable).unwrap_err().contains("solvable"));

        let bad_status = [
            r#"{"schema":"SCHEMA","event":"run_start","round":0,"engine":"network","nodes":2,"threads":1}"#,
            r#"{"schema":"SCHEMA","event":"message","round":0,"from":0,"to":1,"status":"lost"}"#,
        ]
        .map(line)
        .join("\n");
        assert!(lint(&bad_status).unwrap_err().contains("status"));
    }

    #[test]
    fn rejects_unterminated_run() {
        let text = line(
            r#"{"schema":"SCHEMA","event":"run_start","round":0,"engine":"network","nodes":2,"threads":1}"#,
        );
        assert!(lint(&text).unwrap_err().contains("open run"));
    }
}
