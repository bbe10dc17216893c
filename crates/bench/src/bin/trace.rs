//! Offline analytics over minobs JSONL traces.
//!
//! ```text
//! trace profile <trace.jsonl> [--flamegraph OUT.folded]
//! trace summary <trace.jsonl>
//! trace diff <a.jsonl> <b.jsonl> [--threshold PCT]
//! trace stitch <a.jsonl> <b.jsonl> ... [--flamegraph OUT.folded] [--strict]
//! ```
//!
//! `profile` aggregates `span_start`/`span_end` pairs into per-name
//! self/total times, reports what fraction of the trace's wall-clock
//! (run and request durations) the root spans cover, and optionally
//! writes collapsed flamegraph lines (`a;b;c <self-nanos>`) for
//! `flamegraph.pl`-style renderers. It exits non-zero when the trace
//! has no spans at all, or when root spans cover less than 90% of the
//! wall-clock anchor, so CI can assert instrumented binaries stay
//! instrumented end to end. The gate applies to every stream: a
//! daemon trace keeps every request's span block.
//!
//! `summary` counts events by kind, rounds, and messages by status.
//!
//! `diff` compares two profiles per span name; with `--threshold PCT`
//! it exits non-zero when any span's total time regressed by more than
//! that percentage — or when a baseline span name is entirely absent
//! from the candidate (a silently vanished instrumentation point is a
//! worse regression than a slow one) — making it usable as a CI perf
//! gate.
//!
//! `stitch` merges trace files from several nodes by `trace_id` and
//! reconstructs each distributed request's cross-node span tree: a
//! client call parents the serving daemon's `rpc.*` span, which parents
//! the `gossip.exchange` that replicated its verdict, which parents the
//! receiving daemon's `rpc.gossip` span. Spans are keyed by
//! `(node_id, span_id)` — ids are only unique per node — and cross-node
//! edges come from the `ctx_parent` field stamped on ctx-carrying root
//! spans. Per trace it prints the tree and the critical path (the
//! heaviest root-to-leaf chain), and `--flamegraph` writes collapsed
//! `name@node` lines aggregated over every stitched trace. Orphan
//! `ctx_parent` references are linted; `--strict` turns them (or an
//! input with no traced spans) into a non-zero exit for CI.
//!
//! Every subcommand reads its input through
//! [`minobs_bench::lint::decode_line`], the decoder `trace_lint` uses:
//! each line must be a `minobs/trace/v1` event that
//! `TraceEvent::from_json` accepts, so a line without `schema`, with an
//! unknown kind, or with a value the workspace never emits is an error
//! naming the file, the line and the field — never silently skipped.
//! Keys the decoder does not know (`node_id`, a flight dump's synthesized
//! `truncated`) are ignored, apart from `node_id`, which labels spans.
//! `profile`, `diff` and `stitch` pair spans with one walker, `spans`.

use minobs_bench::lint::decode_line;
use minobs_obs::{SpanCtx, TraceEvent};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One decoded trace line: the event and its `node_id` stamp, if any.
type Line = (TraceEvent, Option<String>);

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  trace profile <trace.jsonl> [--flamegraph OUT.folded]\n  trace summary <trace.jsonl>\n  trace diff <a.jsonl> <b.jsonl> [--threshold PCT]\n  trace stitch <a.jsonl> <b.jsonl> ... [--flamegraph OUT.folded] [--strict]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = minobs_obs::cli::handle_common_flags(
        "trace",
        "span profiling, summaries, and regression diffs over JSONL traces",
        "trace profile daemon.trace.jsonl",
    );
    match args.first().map(String::as_str) {
        Some("profile") => profile_cmd(&args[1..]),
        Some("summary") => summary_cmd(&args[1..]),
        Some("diff") => diff_cmd(&args[1..]),
        Some("stitch") => stitch_cmd(&args[1..]),
        _ => usage(),
    }
}

fn read_events(path: &str) -> Result<Vec<Line>, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    text.lines()
        .enumerate()
        .map(|(idx, line)| {
            decode_line(line).map_err(|err| format!("{path} line {}: {err}", idx + 1))
        })
        .collect()
}

/// One closed span, with enough identity to resolve parents both locally
/// (`local_parent`, same node) and across nodes (`ctx_parent`, the remote
/// caller's span id carried in the rpc ctx).
#[derive(Debug, Clone)]
struct Span {
    /// The start line's `node_id`, else the stream's fallback label.
    node: String,
    span_id: u64,
    name: String,
    local_parent: Option<u64>,
    ctx_parent: Option<u64>,
    /// The span's own `trace_id`, else that of the enclosing open span,
    /// so helper spans nested under a stamped rpc root stay attached to
    /// the distributed trace.
    trace_id: Option<u128>,
    /// Duration, children included.
    nanos: u64,
    /// Duration minus the time spent in child spans.
    self_ns: u64,
    /// Collapsed stack, outermost first: `a;b;c`.
    path: String,
    /// Nothing was open above this span.
    root: bool,
}

/// Pairs one stream's `span_start`/`span_end` events into closed spans,
/// in end order. Lines without a `node_id` are labelled `fallback_node`.
fn spans(fallback_node: &str, events: &[Line]) -> Result<Vec<Span>, String> {
    struct Open {
        span: Span,
        nanos_in_children: u64,
    }
    let mut out = Vec::new();
    let mut stack: Vec<Open> = Vec::new();
    for (idx, (event, node)) in events.iter().enumerate() {
        let line_no = idx + 1;
        match event {
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
                let enclosing = stack.last().map(|open| &open.span);
                let span = Span {
                    node: node.as_deref().unwrap_or(fallback_node).to_string(),
                    span_id: *span_id,
                    name: name.to_string(),
                    local_parent: *parent,
                    ctx_parent,
                    trace_id: trace_id.or(enclosing.and_then(|span| span.trace_id)),
                    nanos: 0,
                    self_ns: 0,
                    path: match enclosing {
                        Some(span) => format!("{};{name}", span.path),
                        None => name.to_string(),
                    },
                    root: enclosing.is_none(),
                };
                stack.push(Open {
                    span,
                    nanos_in_children: 0,
                });
            }
            TraceEvent::SpanEnd { span_id, nanos, .. } => {
                let Open {
                    mut span,
                    nanos_in_children,
                } = stack
                    .pop()
                    .ok_or_else(|| format!("line {line_no}: span_end without span_start"))?;
                if span.span_id != *span_id {
                    return Err(format!(
                        "line {line_no}: span_end {span_id} crosses open span {} — run trace_lint",
                        span.span_id
                    ));
                }
                span.nanos = *nanos;
                span.self_ns = nanos.saturating_sub(nanos_in_children);
                if let Some(parent) = stack.last_mut() {
                    parent.nanos_in_children += nanos;
                }
                out.push(span);
            }
            _ => {}
        }
    }
    if let Some(open) = stack.last() {
        return Err(format!(
            "{} span(s) still open at end of trace (innermost: {} {:?}) — run trace_lint",
            stack.len(),
            open.span.span_id,
            open.span.name
        ));
    }
    Ok(out)
}

/// Per-span-name aggregate over one trace.
#[derive(Debug, Default, Clone)]
struct SpanStat {
    count: u64,
    /// Sum of span durations, children included.
    total_ns: u64,
    /// Sum of span durations minus time spent in child spans.
    self_ns: u64,
}

/// The profile of one trace: per-name stats, collapsed flamegraph paths
/// keyed by `a;b;c` with self-time values, and the wall-clock anchors.
#[derive(Debug, Default)]
struct Profile {
    by_name: BTreeMap<String, SpanStat>,
    folded: BTreeMap<String, u64>,
    /// Total duration of root spans (spans with nothing open above them).
    root_ns: u64,
    /// Wall-clock anchor: run durations plus request durations.
    wall_ns: u64,
    spans: u64,
}

fn profile(events: &[Line]) -> Result<Profile, String> {
    let mut out = Profile::default();
    for span in spans("", events)? {
        let stat = out.by_name.entry(span.name).or_default();
        stat.count += 1;
        stat.total_ns += span.nanos;
        stat.self_ns += span.self_ns;
        out.spans += 1;
        *out.folded.entry(span.path).or_default() += span.self_ns;
        if span.root {
            out.root_ns += span.nanos;
        }
    }
    for (event, _) in events {
        if let TraceEvent::RunEnd { nanos, .. } | TraceEvent::SvcResponse { nanos, .. } = event {
            out.wall_ns += nanos;
        }
    }
    Ok(out)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1_000_000.0
}

/// Root spans must cover at least this much of the wall-clock anchor for
/// a stream to pass `trace profile` — below it, instrumented request
/// paths ran without emitting their spans.
const MIN_ROOT_COVERAGE_PCT: f64 = 90.0;

/// Root-span coverage of the wall clock as a percentage, or `None` when
/// the trace has no timed run/request anchor to compare against.
fn root_coverage_pct(prof: &Profile) -> Option<f64> {
    (prof.wall_ns > 0).then(|| prof.root_ns as f64 / prof.wall_ns as f64 * 100.0)
}

fn profile_cmd(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut flamegraph = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--flamegraph" => match it.next() {
                Some(out) => flamegraph = Some(out.clone()),
                None => return usage(),
            },
            text if path.is_none() => path = Some(text.to_string()),
            _ => return usage(),
        }
    }
    let Some(path) = path else {
        return usage();
    };
    let prof = match read_events(&path).and_then(|events| profile(&events)) {
        Ok(prof) => prof,
        Err(err) => {
            eprintln!("trace profile: {err}");
            return ExitCode::FAILURE;
        }
    };
    if prof.spans == 0 {
        eprintln!(
            "trace profile: {path} has no spans — instrumented code paths never ran (or spans were stripped)"
        );
        return ExitCode::FAILURE;
    }

    println!("trace profile: {path} ({} spans)", prof.spans);
    println!(
        "  {:<24} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "total ms", "self ms", "total%"
    );
    let mut rows: Vec<(&String, &SpanStat)> = prof.by_name.iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1.total_ns));
    let span_total: u64 = prof.by_name.values().map(|s| s.self_ns).sum();
    for (name, stat) in rows {
        println!(
            "  {:<24} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            stat.count,
            ms(stat.total_ns),
            ms(stat.self_ns),
            stat.total_ns as f64 / prof.root_ns.max(1) as f64 * 100.0
        );
    }
    if let Some(coverage) = root_coverage_pct(&prof) {
        println!(
            "  wall-clock {:.3} ms, root spans cover {coverage:.1}%",
            ms(prof.wall_ns)
        );
        if coverage < MIN_ROOT_COVERAGE_PCT {
            eprintln!(
                "trace profile: {path}: root spans cover {coverage:.1}% of wall-clock, \
                 need >= {MIN_ROOT_COVERAGE_PCT}% — requests ran without emitting spans"
            );
            return ExitCode::FAILURE;
        }
    } else {
        println!(
            "  no wall-clock anchor (no timed run_end/svc_response); span self-time {:.3} ms",
            ms(span_total)
        );
    }

    if let Some(out) = flamegraph {
        let mut lines = String::new();
        for (path, self_ns) in &prof.folded {
            lines.push_str(&format!("{path} {self_ns}\n"));
        }
        if let Err(err) = std::fs::write(&out, lines) {
            eprintln!("trace profile: cannot write {out}: {err}");
            return ExitCode::FAILURE;
        }
        println!("  [collapsed flamegraph written to {out}]");
    }
    ExitCode::SUCCESS
}

fn summary_cmd(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let events = match read_events(path) {
        Ok(events) => events,
        Err(err) => {
            eprintln!("trace summary: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
    let mut message_status: BTreeMap<&str, u64> = BTreeMap::new();
    for (event, _) in &events {
        *kinds.entry(event.kind()).or_default() += 1;
        if let TraceEvent::Message { status, .. } = event {
            *message_status.entry(status.as_str()).or_default() += 1;
        }
    }
    println!("trace summary: {path} ({} events)", events.len());
    for (kind, count) in &kinds {
        println!("  {kind:<20} {count}");
    }
    if !message_status.is_empty() {
        println!("  messages by status:");
        for (status, count) in &message_status {
            println!("    {status:<18} {count}");
        }
    }
    ExitCode::SUCCESS
}

fn diff_cmd(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut threshold: Option<f64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(pct) if pct >= 0.0 => threshold = Some(pct),
                _ => return usage(),
            },
            text => paths.push(text.to_string()),
        }
    }
    let [a_path, b_path] = paths.as_slice() else {
        return usage();
    };
    let profiles: Result<Vec<Profile>, String> = [a_path, b_path]
        .iter()
        .map(|path| read_events(path).and_then(|events| profile(&events)))
        .collect();
    let [a, b] = match profiles {
        Ok(pair) => <[Profile; 2]>::try_from(pair).expect("two profiles"),
        Err(err) => {
            eprintln!("trace diff: {err}");
            return ExitCode::FAILURE;
        }
    };

    println!("trace diff: {a_path} → {b_path}");
    println!(
        "  {:<24} {:>12} {:>12} {:>9}",
        "span", "a total ms", "b total ms", "delta"
    );
    let mut regressed = Vec::new();
    let names: std::collections::BTreeSet<&String> =
        a.by_name.keys().chain(b.by_name.keys()).collect();
    for name in names {
        match (a.by_name.get(name), b.by_name.get(name)) {
            (Some(sa), Some(sb)) => {
                let delta =
                    (sb.total_ns as f64 - sa.total_ns as f64) / (sa.total_ns.max(1)) as f64 * 100.0;
                println!(
                    "  {:<24} {:>12.3} {:>12.3} {:>+8.1}%",
                    name,
                    ms(sa.total_ns),
                    ms(sb.total_ns),
                    delta
                );
                if threshold.map(|t| delta > t).unwrap_or(false) {
                    regressed.push((name.clone(), delta));
                }
            }
            (Some(sa), None) => {
                println!(
                    "  {:<24} {:>12.3} {:>12} {:>9}",
                    name,
                    ms(sa.total_ns),
                    "-",
                    "removed"
                );
                // A vanished instrumentation point is a regression in its
                // own right: under a gate it fails, flagged as infinite.
                if threshold.is_some() {
                    regressed.push((name.clone(), f64::INFINITY));
                }
            }
            (None, Some(sb)) => {
                println!(
                    "  {:<24} {:>12} {:>12.3} {:>9}",
                    name,
                    "-",
                    ms(sb.total_ns),
                    "new"
                );
            }
            (None, None) => unreachable!("name came from one of the profiles"),
        }
    }
    if !regressed.is_empty() {
        let threshold = threshold.unwrap_or(0.0);
        for (name, delta) in &regressed {
            if delta.is_infinite() {
                eprintln!(
                    "trace diff: {name} present in baseline but absent from candidate (threshold {threshold}%)"
                );
            } else {
                eprintln!("trace diff: {name} regressed {delta:+.1}% (threshold {threshold}%)");
            }
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[derive(Debug)]
struct StitchedTrace {
    trace_id: u128,
    spans: Vec<Span>,
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
    nodes: Vec<String>,
}

#[derive(Debug, Default)]
struct Stitched {
    traces: Vec<StitchedTrace>,
    untraced: usize,
    orphans: Vec<String>,
}

/// Merge per-node span streams into cross-node trace trees. `files` is
/// one entry per input stream: a fallback node label (used when lines
/// carry no `node_id`) and the stream's parsed events.
fn stitch(files: &[(String, Vec<Line>)]) -> Result<Stitched, String> {
    let mut by_trace: BTreeMap<u128, Vec<Span>> = BTreeMap::new();
    let mut out = Stitched::default();
    for (fallback_node, events) in files {
        for span in spans(fallback_node, events)? {
            match span.trace_id {
                Some(trace_id) => by_trace.entry(trace_id).or_default().push(span),
                None => out.untraced += 1,
            }
        }
    }
    for (trace_id, spans) in by_trace {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots = Vec::new();
        let mut nodes: Vec<String> = Vec::new();
        for span in &spans {
            if !nodes.contains(&span.node) {
                nodes.push(span.node.clone());
            }
        }
        for (idx, span) in spans.iter().enumerate() {
            let parent = if let Some(local) = span.local_parent {
                // Local edge: the parent lives in the same node's stream.
                let found = spans
                    .iter()
                    .position(|s| s.node == span.node && s.span_id == local);
                if found.is_none() {
                    out.orphans.push(format!(
                        "trace {trace_id:032x}: span {} ({}) on {} references local parent {local} (not found)",
                        span.span_id, span.name, span.node
                    ));
                }
                found
            } else if let Some(remote) = span.ctx_parent {
                // Cross-node edge. Span ids are unique per node only. An
                // `rpc.*` root's ctx_parent names the remote caller's
                // span, so only other nodes' spans qualify; any other
                // span (e.g. a gossip.exchange parented on its own rpc
                // root) prefers a same-node match. Then a unique match.
                let rpc_root = span.name.starts_with("rpc.");
                let candidates: Vec<usize> = spans
                    .iter()
                    .enumerate()
                    .filter(|(i, s)| {
                        *i != idx && s.span_id == remote && !(rpc_root && s.node == span.node)
                    })
                    .map(|(i, _)| i)
                    .collect();
                let same_node = candidates
                    .iter()
                    .copied()
                    .find(|&i| spans[i].node == span.node);
                let found = same_node.or_else(|| candidates.first().copied());
                match found {
                    None => out.orphans.push(format!(
                        "trace {trace_id:032x}: span {} ({}) on {} references ctx_parent {remote} (not found)",
                        span.span_id, span.name, span.node
                    )),
                    Some(_) if candidates.len() > 1 && same_node.is_none() => {
                        out.orphans.push(format!(
                            "trace {trace_id:032x}: span {} ({}) on {} has ambiguous ctx_parent {remote} ({} candidates)",
                            span.span_id, span.name, span.node, candidates.len()
                        ));
                    }
                    Some(_) => {}
                }
                found
            } else {
                None
            };
            match parent {
                Some(p) => children[p].push(idx),
                None => roots.push(idx),
            }
        }
        out.traces.push(StitchedTrace {
            trace_id,
            spans,
            children,
            roots,
            nodes,
        });
    }
    Ok(out)
}

impl StitchedTrace {
    /// The heaviest root-to-leaf chain: start from the root with the
    /// largest duration and always descend into the heaviest child.
    fn critical_path(&self) -> Vec<usize> {
        let mut path = Vec::new();
        let heaviest = |indices: &[usize]| -> Option<usize> {
            indices.iter().copied().max_by_key(|&i| self.spans[i].nanos)
        };
        let mut cursor = heaviest(&self.roots);
        while let Some(idx) = cursor {
            if path.contains(&idx) {
                break; // cycle guard: malformed parent refs must not hang us
            }
            path.push(idx);
            cursor = heaviest(&self.children[idx]);
        }
        path
    }

    /// Collapsed flamegraph lines (`name@node;...` → self nanos) for
    /// this trace's tree. Remote children overlap the parent's wall
    /// time just like local ones, so self time saturates at zero.
    fn folded_into(&self, folded: &mut BTreeMap<String, u64>) {
        fn walk(
            trace: &StitchedTrace,
            idx: usize,
            prefix: &str,
            folded: &mut BTreeMap<String, u64>,
        ) {
            let span = &trace.spans[idx];
            let path = if prefix.is_empty() {
                format!("{}@{}", span.name, span.node)
            } else {
                format!("{prefix};{}@{}", span.name, span.node)
            };
            let in_children: u64 = trace.children[idx]
                .iter()
                .map(|&c| trace.spans[c].nanos)
                .sum();
            *folded.entry(path.clone()).or_default() += span.nanos.saturating_sub(in_children);
            for &child in &trace.children[idx] {
                walk(trace, child, &path, folded);
            }
        }
        for &root in &self.roots {
            walk(self, root, "", folded);
        }
    }
}

fn print_tree(trace: &StitchedTrace, idx: usize, depth: usize) {
    let span = &trace.spans[idx];
    println!(
        "  {:indent$}{} [{}] {:.3} ms",
        "",
        span.name,
        span.node,
        ms(span.nanos),
        indent = depth * 2
    );
    for &child in &trace.children[idx] {
        print_tree(trace, child, depth + 1);
    }
}

fn stitch_cmd(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut flamegraph = None;
    let mut strict = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--flamegraph" => match it.next() {
                Some(out) => flamegraph = Some(out.to_string()),
                None => return usage(),
            },
            "--strict" => strict = true,
            text => paths.push(text.to_string()),
        }
    }
    if paths.is_empty() {
        return usage();
    }
    let mut files = Vec::new();
    for path in &paths {
        let events = match read_events(path) {
            Ok(events) => events,
            Err(err) => {
                eprintln!("trace stitch: {err}");
                return ExitCode::FAILURE;
            }
        };
        // Fall back to the file stem as the node label when the stream
        // predates node_id stamping.
        let stem = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path.as_str())
            .to_string();
        files.push((stem, events));
    }
    let stitched = match stitch(&files) {
        Ok(stitched) => stitched,
        Err(err) => {
            eprintln!("trace stitch: {err}");
            return ExitCode::FAILURE;
        }
    };

    let traced: usize = stitched.traces.iter().map(|t| t.spans.len()).sum();
    println!(
        "trace stitch: {} file(s), {} trace(s), {} traced span(s), {} untraced span(s) skipped",
        files.len(),
        stitched.traces.len(),
        traced,
        stitched.untraced
    );
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for trace in &stitched.traces {
        println!(
            "trace {:032x} — {} span(s) across {} node(s): {}",
            trace.trace_id,
            trace.spans.len(),
            trace.nodes.len(),
            trace.nodes.join(", ")
        );
        for &root in &trace.roots {
            print_tree(trace, root, 0);
        }
        let path = trace.critical_path();
        if !path.is_empty() {
            let hops: Vec<String> = path
                .iter()
                .map(|&i| {
                    let span = &trace.spans[i];
                    format!("{}@{} ({:.3} ms)", span.name, span.node, ms(span.nanos))
                })
                .collect();
            let crossed: std::collections::BTreeSet<&str> =
                path.iter().map(|&i| trace.spans[i].node.as_str()).collect();
            println!(
                "  critical path: {} — {} hop(s), {} node(s)",
                hops.join(" → "),
                path.len(),
                crossed.len()
            );
        }
        trace.folded_into(&mut folded);
    }
    for orphan in &stitched.orphans {
        eprintln!("trace stitch: warning: orphan parent reference: {orphan}");
    }
    if let Some(out) = flamegraph {
        let mut text = String::new();
        for (path, self_ns) in &folded {
            text.push_str(&format!("{path} {self_ns}\n"));
        }
        if let Err(err) = std::fs::write(&out, text) {
            eprintln!("trace stitch: write {out}: {err}");
            return ExitCode::FAILURE;
        }
        println!("wrote folded flamegraph: {out}");
    }
    if strict && (!stitched.orphans.is_empty() || traced == 0) {
        eprintln!(
            "trace stitch: strict: {} orphan(s), {} traced span(s)",
            stitched.orphans.len(),
            traced
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use minobs_obs::{FlightRecorder, SCHEMA};

    /// Stamps a fixture line with the current `schema`, as every emitter does.
    fn stamp(line: &str) -> String {
        line.replacen('{', &format!(r#"{{"schema":"{SCHEMA}","#), 1)
    }

    fn event(text: &str) -> Line {
        decode_line(&stamp(text)).unwrap()
    }

    #[test]
    fn profile_attributes_self_and_total_time() {
        let events = vec![
            event(r#"{"event":"span_start","round":0,"span_id":0,"parent":null,"name":"outer"}"#),
            event(r#"{"event":"span_start","round":0,"span_id":1,"parent":0,"name":"inner"}"#),
            event(r#"{"event":"span_end","round":0,"span_id":1,"name":"inner","nanos":300}"#),
            event(r#"{"event":"span_start","round":0,"span_id":2,"parent":0,"name":"inner"}"#),
            event(r#"{"event":"span_end","round":0,"span_id":2,"name":"inner","nanos":200}"#),
            event(r#"{"event":"span_end","round":0,"span_id":0,"name":"outer","nanos":1000}"#),
            event(
                r#"{"event":"run_end","round":3,"sent":0,"delivered":0,"dropped":0,"misaddressed":0,"nanos":1100}"#,
            ),
        ];
        let prof = profile(&events).unwrap();
        assert_eq!(prof.spans, 3);
        let outer = &prof.by_name["outer"];
        assert_eq!((outer.count, outer.total_ns, outer.self_ns), (1, 1000, 500));
        let inner = &prof.by_name["inner"];
        assert_eq!((inner.count, inner.total_ns, inner.self_ns), (2, 500, 500));
        // Only the outer span is a root; the wall anchor is the run_end.
        assert_eq!(prof.root_ns, 1000);
        assert_eq!(prof.wall_ns, 1100);
        assert_eq!(prof.folded["outer"], 500);
        assert_eq!(prof.folded["outer;inner"], 500);
    }

    #[test]
    fn profile_rejects_malformed_spans() {
        let crossed = vec![
            event(r#"{"event":"span_start","round":0,"span_id":0,"parent":null,"name":"a"}"#),
            event(r#"{"event":"span_start","round":0,"span_id":1,"parent":0,"name":"b"}"#),
            event(r#"{"event":"span_end","round":0,"span_id":0,"name":"a","nanos":1}"#),
        ];
        assert!(profile(&crossed).unwrap_err().contains("crosses"));

        let unclosed = vec![event(
            r#"{"event":"span_start","round":0,"span_id":0,"parent":null,"name":"a"}"#,
        )];
        assert!(profile(&unclosed).unwrap_err().contains("still open"));
    }

    #[test]
    fn root_coverage_is_rooted_at_the_wall_anchor() {
        let events = vec![
            event(
                r#"{"event":"span_start","round":0,"span_id":0,"parent":null,"name":"rpc.stats"}"#,
            ),
            event(r#"{"event":"span_end","round":0,"span_id":0,"name":"rpc.stats","nanos":100}"#),
            event(
                r#"{"event":"svc_response","round":0,"seq":0,"method":"stats","ok":true,"cache":"none","nanos":1000}"#,
            ),
        ];
        let prof = profile(&events).unwrap();
        assert_eq!(root_coverage_pct(&prof), Some(10.0));
        // No timed anchor → nothing to gate against.
        let prof = profile(&events[..2]).unwrap();
        assert_eq!(root_coverage_pct(&prof), None);
    }

    /// Writes `body` to a temp file, stamping each line with `schema`.
    fn write_temp(tag: &str, body: &str) -> std::path::PathBuf {
        let stamped: String = body.lines().map(|line| stamp(line) + "\n").collect();
        write_raw(tag, &stamped)
    }

    fn write_raw(tag: &str, body: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("minobs_trace_{tag}_{}.jsonl", std::process::id()));
        std::fs::write(&path, body).unwrap();
        path
    }

    fn exit_of(code: ExitCode) -> String {
        format!("{code:?}")
    }

    #[test]
    fn profile_gates_on_root_coverage() {
        let stream = |span_nanos: u64| {
            format!(
                "{}\n{}\n{}\n",
                r#"{"event":"span_start","round":0,"span_id":0,"parent":null,"name":"rpc.stats"}"#,
                format_args!(
                    r#"{{"event":"span_end","round":0,"span_id":0,"name":"rpc.stats","nanos":{span_nanos}}}"#
                ),
                r#"{"event":"svc_response","round":0,"seq":0,"method":"stats","ok":true,"cache":"none","nanos":1000}"#,
            )
        };
        // Root span covers 10% of the 1000 ns request: fails the gate.
        let low = write_temp("cov_low", &stream(100));
        assert_eq!(
            exit_of(profile_cmd(&[low.display().to_string()])),
            exit_of(ExitCode::FAILURE)
        );
        // 95% passes it.
        let high = write_temp("cov_high", &stream(950));
        assert_eq!(
            exit_of(profile_cmd(&[high.display().to_string()])),
            exit_of(ExitCode::SUCCESS)
        );
        // No flag waives the gate: an unknown argument is a usage error.
        assert_eq!(
            exit_of(profile_cmd(&[
                high.display().to_string(),
                "--sampled".to_string()
            ])),
            exit_of(ExitCode::FAILURE)
        );
        std::fs::remove_file(&low).ok();
        std::fs::remove_file(&high).ok();
    }

    #[test]
    fn diff_fails_under_threshold_when_a_baseline_span_vanishes() {
        let baseline = write_temp(
            "diff_base",
            concat!(
                r#"{"event":"span_start","round":0,"span_id":0,"parent":null,"name":"gone"}"#,
                "\n",
                r#"{"event":"span_end","round":0,"span_id":0,"name":"gone","nanos":100}"#,
                "\n",
            ),
        );
        let candidate = write_temp(
            "diff_cand",
            concat!(
                r#"{"event":"span_start","round":0,"span_id":0,"parent":null,"name":"other"}"#,
                "\n",
                r#"{"event":"span_end","round":0,"span_id":0,"name":"other","nanos":100}"#,
                "\n",
            ),
        );
        let gated = [
            baseline.display().to_string(),
            candidate.display().to_string(),
            "--threshold".to_string(),
            "10".to_string(),
        ];
        assert_eq!(exit_of(diff_cmd(&gated)), exit_of(ExitCode::FAILURE));
        // Without a gate the removal is reported but not fatal.
        let ungated = [
            baseline.display().to_string(),
            candidate.display().to_string(),
        ];
        assert_eq!(exit_of(diff_cmd(&ungated)), exit_of(ExitCode::SUCCESS));
        std::fs::remove_file(&baseline).ok();
        std::fs::remove_file(&candidate).ok();
    }

    #[test]
    fn svc_responses_anchor_the_wall_clock() {
        let events = vec![
            event(
                r#"{"event":"span_start","round":0,"span_id":0,"parent":null,"name":"rpc.stats"}"#,
            ),
            event(r#"{"event":"span_end","round":0,"span_id":0,"name":"rpc.stats","nanos":90}"#),
            event(
                r#"{"event":"svc_response","round":0,"seq":0,"method":"stats","ok":true,"cache":"none","nanos":100}"#,
            ),
        ];
        let prof = profile(&events).unwrap();
        assert_eq!(prof.wall_ns, 100);
        assert_eq!(prof.root_ns, 90);
    }

    /// Two-node fixture mirroring a real replicated request: the client
    /// trace T parents node a's rpc root, node a's gossip.exchange is
    /// ctx-parented on that root, and node b's rpc.gossip is
    /// ctx-parented on the exchange span.
    fn two_node_files() -> Vec<(String, Vec<Line>)> {
        let node_a = vec![
            event(
                r#"{"event":"span_start","round":0,"span_id":0,"parent":null,"name":"rpc.check_horizon","trace_id":"000000000000000000000000000000aa","node_id":"a"}"#,
            ),
            event(
                r#"{"event":"span_start","round":0,"span_id":1,"parent":0,"name":"check.eval","node_id":"a"}"#,
            ),
            event(
                r#"{"event":"span_end","round":0,"span_id":1,"name":"check.eval","nanos":400,"node_id":"a"}"#,
            ),
            event(
                r#"{"event":"span_end","round":0,"span_id":0,"name":"rpc.check_horizon","nanos":1000,"node_id":"a"}"#,
            ),
            event(
                r#"{"event":"span_start","round":0,"span_id":1048576,"parent":null,"name":"gossip.exchange","trace_id":"000000000000000000000000000000aa","ctx_parent":0,"node_id":"a"}"#,
            ),
            event(
                r#"{"event":"span_end","round":0,"span_id":1048576,"name":"gossip.exchange","nanos":800,"node_id":"a"}"#,
            ),
        ];
        let node_b = vec![
            event(
                r#"{"event":"span_start","round":0,"span_id":0,"parent":null,"name":"rpc.gossip","trace_id":"000000000000000000000000000000aa","ctx_parent":1048576,"node_id":"b"}"#,
            ),
            event(
                r#"{"event":"span_end","round":0,"span_id":0,"name":"rpc.gossip","nanos":300,"node_id":"b"}"#,
            ),
        ];
        vec![("a".to_string(), node_a), ("b".to_string(), node_b)]
    }

    #[test]
    fn stitch_reconstructs_cross_node_parent_chain() {
        let stitched = stitch(&two_node_files()).unwrap();
        assert_eq!(stitched.untraced, 0);
        assert!(stitched.orphans.is_empty(), "{:?}", stitched.orphans);
        assert_eq!(stitched.traces.len(), 1);
        let trace = &stitched.traces[0];
        assert_eq!(
            format!("{:032x}", trace.trace_id),
            "000000000000000000000000000000aa"
        );
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.nodes, vec!["a".to_string(), "b".to_string()]);

        // Single root: node a's rpc span; the rest chain off it.
        assert_eq!(trace.roots.len(), 1);
        let root = trace.roots[0];
        assert_eq!(trace.spans[root].name, "rpc.check_horizon");
        let find = |name: &str| trace.spans.iter().position(|s| s.name == name).unwrap();
        let (eval, exchange, gossip) = (
            find("check.eval"),
            find("gossip.exchange"),
            find("rpc.gossip"),
        );
        // rpc root parents both the nested helper span (local edge) and
        // the gossip.exchange (same-node ctx edge); the exchange parents
        // the remote rpc.gossip (cross-node ctx edge).
        let mut under_root = trace.children[root].clone();
        under_root.sort_unstable();
        let mut expected = vec![eval, exchange];
        expected.sort_unstable();
        assert_eq!(under_root, expected);
        assert_eq!(trace.children[exchange], vec![gossip]);

        // Critical path follows the heaviest chain across both nodes.
        let path = trace.critical_path();
        let names: Vec<&str> = path.iter().map(|&i| trace.spans[i].name.as_str()).collect();
        assert_eq!(
            names,
            vec!["rpc.check_horizon", "gossip.exchange", "rpc.gossip"]
        );
        let nodes: std::collections::BTreeSet<&str> =
            path.iter().map(|&i| trace.spans[i].node.as_str()).collect();
        assert_eq!(nodes.len(), 2);

        // Folded paths carry the node label and saturating self time.
        let mut folded = BTreeMap::new();
        trace.folded_into(&mut folded);
        // Remote child time (800) overlaps the root's 600 ns of local
        // self time, so the saturating subtraction bottoms out at zero.
        assert_eq!(folded["rpc.check_horizon@a"], 0);
        assert_eq!(folded["rpc.check_horizon@a;check.eval@a"], 400);
        assert_eq!(
            folded["rpc.check_horizon@a;gossip.exchange@a;rpc.gossip@b"],
            300
        );
    }

    /// Span ids repeat across nodes: node b's `rpc.gossip` 5242880 names
    /// node a's `gossip.exchange` 6291456 as its ctx_parent, while node b
    /// also holds an `rpc.gossip` 6291456 of its own.
    #[test]
    fn stitch_parents_rpc_roots_on_another_node() {
        let start = |node: &str, id: u64, name: &str, ctx_parent: Option<u64>| {
            let ctx = ctx_parent.map_or(String::new(), |p| format!(r#","ctx_parent":{p}"#));
            event(&format!(
                r#"{{"event":"span_start","round":0,"span_id":{id},"parent":null,"name":"{name}","trace_id":"000000000000000000000000000000bb"{ctx},"node_id":"{node}"}}"#
            ))
        };
        let end = |node: &str, id: u64, name: &str| {
            event(&format!(
                r#"{{"event":"span_end","round":0,"span_id":{id},"name":"{name}","nanos":100,"node_id":"{node}"}}"#
            ))
        };
        let node_a = vec![
            start("a", 5242880, "gossip.exchange", None),
            end("a", 5242880, "gossip.exchange"),
            start("a", 6291456, "gossip.exchange", None),
            end("a", 6291456, "gossip.exchange"),
        ];
        let node_b = vec![
            start("b", 6291456, "rpc.gossip", Some(5242880)),
            end("b", 6291456, "rpc.gossip"),
            start("b", 5242880, "rpc.gossip", Some(6291456)),
            end("b", 5242880, "rpc.gossip"),
        ];
        let stitched = stitch(&[("a".to_string(), node_a), ("b".to_string(), node_b)]).unwrap();
        assert!(stitched.orphans.is_empty(), "{:?}", stitched.orphans);
        let trace = &stitched.traces[0];
        let find = |node: &str, id: u64| {
            trace
                .spans
                .iter()
                .position(|s| s.node == node && s.span_id == id)
                .unwrap()
        };
        assert_eq!(trace.children[find("a", 6291456)], vec![find("b", 5242880)]);
        assert_eq!(trace.children[find("a", 5242880)], vec![find("b", 6291456)]);
        assert!(trace.children[find("b", 6291456)].is_empty());
        let mut roots = trace.roots.clone();
        roots.sort_unstable();
        let mut expected = vec![find("a", 5242880), find("a", 6291456)];
        expected.sort_unstable();
        assert_eq!(roots, expected);
    }

    #[test]
    fn stitch_lints_orphan_parent_refs() {
        let files = vec![(
            "b".to_string(),
            vec![
                event(
                    r#"{"event":"span_start","round":0,"span_id":0,"parent":null,"name":"rpc.gossip","trace_id":"000000000000000000000000000000aa","ctx_parent":999,"node_id":"b"}"#,
                ),
                event(
                    r#"{"event":"span_end","round":0,"span_id":0,"name":"rpc.gossip","nanos":300,"node_id":"b"}"#,
                ),
            ],
        )];
        let stitched = stitch(&files).unwrap();
        assert_eq!(stitched.orphans.len(), 1);
        assert!(stitched.orphans[0].contains("ctx_parent 999"));
        // The orphan still renders: it is promoted to a root.
        assert_eq!(stitched.traces[0].roots, vec![0]);
    }

    #[test]
    fn stitch_inherits_trace_from_enclosing_span_and_skips_untraced() {
        let files = vec![(
            "a".to_string(),
            vec![
                event(
                    r#"{"event":"span_start","round":0,"span_id":0,"parent":null,"name":"rpc.stats"}"#,
                ),
                event(
                    r#"{"event":"span_end","round":0,"span_id":0,"name":"rpc.stats","nanos":10}"#,
                ),
                event(
                    r#"{"event":"span_start","round":0,"span_id":5,"parent":null,"name":"rpc.check","trace_id":"000000000000000000000000000000bb"}"#,
                ),
                event(r#"{"event":"span_start","round":0,"span_id":6,"parent":5,"name":"inner"}"#),
                event(r#"{"event":"span_end","round":0,"span_id":6,"name":"inner","nanos":4}"#),
                event(r#"{"event":"span_end","round":0,"span_id":5,"name":"rpc.check","nanos":9}"#),
            ],
        )];
        let stitched = stitch(&files).unwrap();
        // The un-stamped rpc.stats span is not part of any trace.
        assert_eq!(stitched.untraced, 1);
        let trace = &stitched.traces[0];
        // inner inherited trace bb from its enclosing span and hangs off
        // the root via its local parent edge; node fell back to the
        // stream label because no line carried node_id.
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.nodes, vec!["a".to_string()]);
        assert_eq!(trace.roots.len(), 1);
        let root = trace.roots[0];
        assert_eq!(trace.spans[root].name, "rpc.check");
        assert_eq!(trace.children[root].len(), 1);
        assert_eq!(trace.spans[trace.children[root][0]].name, "inner");
    }

    #[test]
    fn every_subcommand_rejects_lines_the_decoder_rejects() {
        let spans = concat!(
            r#"{"event":"span_start","round":0,"span_id":0,"parent":null,"name":"a"}"#,
            "\n",
            r#"{"event":"span_end","round":0,"span_id":0,"name":"a","nanos":5}"#,
            "\n",
        );
        let foreign = write_raw(
            "foreign_schema",
            &format!(
                "{}{}\n",
                spans
                    .lines()
                    .map(|line| stamp(line) + "\n")
                    .collect::<String>(),
                r#"{"schema":"minobs/trace/v0","event":"span_start","round":0,"span_id":1,"parent":null,"name":"b"}"#
            ),
        );
        let short_id = write_temp(
            "short_trace_id",
            &spans.replacen(r#""name":"a"}"#, r#""name":"a","trace_id":"abc"}"#, 1),
        );
        for (path, line, field) in [
            (&foreign, "line 3", "schema"),
            (&short_id, "line 1", "trace_id"),
        ] {
            let shown = path.display().to_string();
            let err = read_events(&shown).unwrap_err();
            assert!(
                err.contains(&shown) && err.contains(line) && err.contains(field),
                "{err}"
            );
            assert_eq!(
                exit_of(profile_cmd(std::slice::from_ref(&shown))),
                exit_of(ExitCode::FAILURE)
            );
            assert_eq!(exit_of(stitch_cmd(&[shown])), exit_of(ExitCode::FAILURE));
        }
        std::fs::remove_file(&foreign).ok();
        std::fs::remove_file(&short_id).ok();
    }

    #[test]
    fn profile_and_stitch_read_a_real_flight_dump() {
        let start =
            |span_id, parent, name: &'static str, trace_id, ctx_parent| TraceEvent::SpanStart {
                round: 0,
                span_id,
                parent,
                name: name.into(),
                ctx: SpanCtx::boxed(trace_id, ctx_parent),
            };
        let end = |span_id, name: &'static str, nanos| TraceEvent::SpanEnd {
            round: 0,
            span_id,
            name: name.into(),
            nanos,
        };
        let flight = FlightRecorder::with_meta(64, Some("node-a".to_string()));
        flight.push_block(&[
            TraceEvent::SvcRequest {
                seq: 0,
                method: "check_horizon".into(),
            },
            start(0, None, "rpc.check_horizon", Some(0xaa), None),
            start(1, Some(0), "check.eval", None, None),
            end(1, "check.eval", 400),
            end(0, "rpc.check_horizon", 1000),
            TraceEvent::SvcResponse {
                seq: 0,
                method: "check_horizon".into(),
                ok: true,
                cache: "miss",
                nanos: 1000,
            },
        ]);
        // Still open at snapshot time: the dump closes it with a
        // synthesized `"truncated":true` end of zero duration.
        flight.push(start(1 << 20, None, "gossip.exchange", Some(0xaa), Some(0)));
        let dump = flight.dump("rpc");
        assert_eq!(dump.truncated, 1);
        assert!(dump.jsonl.contains(r#""truncated":true"#));
        let path = write_raw("flight_dump", &dump.jsonl);
        let shown = path.display().to_string();

        let events = read_events(&shown).unwrap();
        assert!(matches!(
            events[0].0,
            TraceEvent::FlightDump { truncated: 1, .. }
        ));
        assert!(events
            .iter()
            .all(|(_, node)| node.as_deref() == Some("node-a")));

        let prof = profile(&events).unwrap();
        assert_eq!(prof.spans, 3);
        assert_eq!(prof.by_name["gossip.exchange"].total_ns, 0);
        assert_eq!(prof.folded["rpc.check_horizon;check.eval"], 400);
        assert_eq!((prof.root_ns, prof.wall_ns), (1000, 1000));
        assert_eq!(
            exit_of(profile_cmd(std::slice::from_ref(&shown))),
            exit_of(ExitCode::SUCCESS)
        );

        // Spans are labelled by their node_id stamp, not the fallback.
        let stitched = stitch(&[("fallback".to_string(), events)]).unwrap();
        assert!(stitched.orphans.is_empty(), "{:?}", stitched.orphans);
        assert_eq!(stitched.traces.len(), 1);
        let trace = &stitched.traces[0];
        assert_eq!(trace.trace_id, 0xaa);
        assert_eq!(trace.nodes, vec!["node-a".to_string()]);
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.roots.len(), 1);
        let exchange = trace
            .spans
            .iter()
            .position(|s| s.name == "gossip.exchange")
            .unwrap();
        assert!(trace.children[trace.roots[0]].contains(&exchange));
        assert_eq!(
            exit_of(stitch_cmd(&[shown, "--strict".to_string()])),
            exit_of(ExitCode::SUCCESS)
        );
        std::fs::remove_file(&path).ok();
    }
}
