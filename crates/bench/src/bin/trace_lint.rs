//! Validates a minobs JSONL trace file.
//!
//! Usage: `trace_lint <trace.jsonl>`. Checks that
//!
//! 1. every line decodes with `TraceEvent::from_json`, the one place
//!    the schema is written down: `schema` is the current version, the
//!    `event` kind is known, each of its fields is present with its type,
//!    the closed string fields (`engine`, `status`, `phase`, `cache`,
//!    `op`) take a value the workspace emits, `trace_id` is 32 lowercase
//!    hex digits, and `round` agrees with the variant. Extra keys
//!    (`node_id`, a flight dump's `truncated`) are ignored;
//! 2. within each run (`run_start` .. `run_end`), per-message `dropped`
//!    events and per-round `round_end.dropped` counts both sum to the
//!    `run_end` total — the trace-level face of the engines' message
//!    conservation invariant;
//! 3. the same holds for `sent` and `delivered`;
//! 4. service events pair up: every `svc_response` answers exactly one
//!    earlier `svc_request` with the same `seq` and `method`, and no
//!    request is left unanswered at the end of the trace (the daemon
//!    drains before exiting). Service events live outside runs — the
//!    daemon trace carries only them;
//! 5. profiling spans are well formed: every `span_start` is closed by a
//!    `span_end` with the same id and name, span ids are unique within
//!    their run (each engine run restarts its `SpanIds` at 0; runless
//!    daemon traces get one stream-wide scope), spans bracket properly
//!    (a `span_end` always closes the innermost open span, and a
//!    declared `parent` is exactly that enclosing span), and nothing is
//!    left open at end of file;
//! 6. the values a field's type leaves open are in range: a `trace_id`
//!    is nonzero, `ctx_parent` only appears alongside a `trace_id` (a
//!    remote parent is meaningless without the trace it belongs to), a
//!    line-level `node_id` is a non-empty string and consistent across
//!    the whole stream (one file is one node's trace), `health` carries
//!    a known status (`ok`/`degraded`), `gossip_apply` never carries a
//!    `snapshot`, a `flight_dump` reason is non-empty, a
//!    `trace_sampled` keep probability lies inside `[0, 1]`, and a
//!    `budget_exhausted` frontier never exceeds the states explored.
//!
//! When handed a file that parses as a single JSON object under the
//! `minobs/bench/v1` schema instead of a JSONL trace, it validates the
//! bench artifact (required fields present, quantiles monotone
//! `p50 ≤ p95 ≤ p99 ≤ max`, `completed ≤ sent`) via
//! `minobs_obs::validate_bench_artifact`.
//!
//! Exits non-zero with a description of the first violation. CI runs this
//! over the trace emitted by `exp_network` under `MINOBS_TRACE=1`, over
//! the daemon trace from the `svc` job, over flight-recorder dumps pulled
//! with `svc dump`, and over the committed `BENCH_checker.json`.
//!
//! The checks themselves live in [`minobs_bench::lint`] so test suites
//! can assert lint-cleanliness in-process.

use minobs_bench::lint::{lint, lint_bench};
use minobs_obs::BENCH_SCHEMA;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = minobs_bench::cli::handle_common_flags(
        "trace_lint",
        "validates a minobs JSONL trace file or a minobs/bench/v1 artifact",
        "trace_lint <trace.jsonl | bench.json>",
    );
    let Some(path) = args.first().cloned() else {
        eprintln!("usage: trace_lint <trace.jsonl | bench.json>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("trace_lint: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    if text.is_empty() {
        eprintln!("trace_lint: {path} is empty — was MINOBS_TRACE set?");
        return ExitCode::FAILURE;
    }
    if let Some(outcome) = lint_bench(&text) {
        return match outcome {
            Ok(()) => {
                println!("trace_lint: {path}: valid {BENCH_SCHEMA} artifact");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("trace_lint: {path}: {message}");
                ExitCode::FAILURE
            }
        };
    }
    match lint(&text) {
        Ok((lines, runs)) => {
            println!("trace_lint: {path}: {lines} lines, {runs} runs, all invariants hold");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("trace_lint: {path}: {message}");
            ExitCode::FAILURE
        }
    }
}
