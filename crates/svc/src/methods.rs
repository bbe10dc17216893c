//! Method handlers, run on the connection thread that decoded the
//! request; the compute methods run under a checker permit (see
//! `server`).
//!
//! Every handler returns `(Result<Value, RpcError>, disposition)` where
//! the disposition is the verdict-cache outcome recorded on the
//! `svc_response` event: `"hit"`, `"miss"`, `"subsumed"`, or `"none"`
//! for methods the cache does not apply to.
//!
//! Budgets are clamped to the server's [`Limits`] on both axes, so a
//! hostile `check_horizon` cannot hold a checker permit past the configured
//! wall-clock cap no matter what the request asks for.

use crate::server::{Limits, ServerState};
use crate::spec::{parse_alphabet, ParsedScheme};
use crate::wire::Request;
use minobs_core::engine::run_two_process_with_recorder;
use minobs_core::prelude::*;
use minobs_graphs::{edge_connectivity, generators, min_degree, DirectedEdge, Graph};
use minobs_net::{DecisionRule, FloodConsensus};
use minobs_obs::{MemoryRecorder, NullRecorder};
use minobs_sim::network::run_network_with_recorder;
use minobs_sim::{NetVerdict, ScriptedAdversary};
use minobs_synth::cache::CacheAnswer;
use minobs_synth::checker::{Budget, Check, CheckResult, HorizonOutcome};
use serde_json::{Map, Value};

/// Largest horizon a request may ask the bounded checker for.
const MAX_HORIZON: usize = 64;
/// Round cap for `simulate` runs.
const MAX_SIM_ROUNDS: usize = 10_000;
/// Largest trace a `simulate` response will inline.
const MAX_TRACE_EVENTS: usize = 5_000;

/// A method-level error, serialized as the response's `error` object.
#[derive(Debug)]
pub struct RpcError {
    /// Stable machine-readable code.
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl RpcError {
    /// Builds an error.
    pub fn new(code: &'static str, message: impl Into<String>) -> RpcError {
        RpcError {
            code,
            message: message.into(),
        }
    }

    fn bad_params(message: impl Into<String>) -> RpcError {
        RpcError::new("bad_params", message)
    }
}

/// A method handler: the reply or error, and the cache disposition.
type Handler = fn(&ServerState, &Request) -> (Result<Value, RpcError>, &'static str);

/// One method the daemon serves, with the names its telemetry records.
pub(crate) struct Method {
    /// The method name a request carries. It is also the label of the
    /// `svc_request`/`svc_response` events and of the
    /// `svc.method.{name}.latency_ns` histogram.
    pub(crate) name: &'static str,
    /// The name of the request's root span.
    pub(crate) span: &'static str,
    /// Whether the handler runs under a checker permit. The control
    /// plane never waits for one.
    pub(crate) compute: bool,
    run: Handler,
}

impl Method {
    /// Runs this method's handler on `request`.
    pub(crate) fn run(
        &self,
        state: &ServerState,
        request: &Request,
    ) -> (Result<Value, RpcError>, &'static str) {
        (self.run)(state, request)
    }
}

/// Every method the daemon serves.
const METHODS: &[Method] = &[
    Method {
        name: "solvable",
        span: "rpc.solvable",
        compute: true,
        run: |state, request| solvable(state, &request.params),
    },
    Method {
        name: "check_horizon",
        span: "rpc.check_horizon",
        compute: true,
        run: |state, request| check_horizon(state, &request.params),
    },
    Method {
        name: "first_horizon",
        span: "rpc.first_horizon",
        compute: true,
        run: |state, request| first_horizon(state, &request.params),
    },
    Method {
        name: "net_solvable",
        span: "rpc.net_solvable",
        compute: true,
        run: |_, request| (net_solvable(&request.params), "none"),
    },
    Method {
        name: "simulate",
        span: "rpc.simulate",
        compute: true,
        run: |_, request| (simulate(&request.params), "none"),
    },
    Method {
        name: "stats",
        span: "rpc.stats",
        compute: false,
        run: |state, _| (Ok(stats(state)), "none"),
    },
    Method {
        name: "metrics",
        span: "rpc.metrics",
        compute: false,
        run: |state, _| {
            let text = state.registry().render_text();
            (Ok(obj(&[("text", Value::from(text))])), "none")
        },
    },
    Method {
        name: "gossip",
        span: "rpc.gossip",
        compute: false,
        run: |state, request| (crate::gossip::handle(state, &request.params), "none"),
    },
    Method {
        name: "health",
        span: "rpc.health",
        compute: false,
        run: |state, _| (Ok(health(state)), "none"),
    },
    Method {
        name: "dump_trace",
        span: "rpc.dump_trace",
        compute: false,
        run: |state, _| (Ok(dump_trace(state)), "none"),
    },
    Method {
        name: "shutdown",
        span: "rpc.shutdown",
        compute: false,
        run: |state, _| {
            state.begin_shutdown();
            (Ok(obj(&[("draining", Value::from(true))])), "none")
        },
    },
];

/// What a method the daemon does not serve records under: one label for
/// every such name, so the names a caller can make the daemon record are
/// a closed set. Only the error message echoes the name sent.
static UNKNOWN: Method = Method {
    name: "unknown",
    span: "rpc.unknown",
    compute: false,
    run: |_, request| {
        let message = format!("unknown method {:?}", request.method);
        (Err(RpcError::new("unknown_method", message)), "none")
    },
};

/// The table entry for method `name`, or the `unknown` entry.
pub(crate) fn lookup(name: &str) -> &'static Method {
    METHODS
        .iter()
        .find(|method| method.name == name)
        .unwrap_or(&UNKNOWN)
}

/// Dispatches one request to its handler.
pub fn handle(state: &ServerState, request: &Request) -> (Result<Value, RpcError>, &'static str) {
    lookup(&request.method).run(state, request)
}

fn obj(pairs: &[(&str, Value)]) -> Value {
    let mut map = Map::new();
    for (key, value) in pairs {
        map.insert((*key).to_string(), value.clone());
    }
    Value::Object(map)
}

fn parse_scheme(params: &Value) -> Result<ParsedScheme, RpcError> {
    ParsedScheme::parse(params.get("scheme").unwrap_or(&Value::Null)).map_err(RpcError::bad_params)
}

fn parse_horizon(params: &Value, field: &str) -> Result<usize, RpcError> {
    let k = params
        .get(field)
        .and_then(Value::as_u64)
        .ok_or_else(|| RpcError::bad_params(format!("missing integer {field:?}")))?;
    if k as usize > MAX_HORIZON {
        return Err(RpcError::bad_params(format!(
            "{field} capped at {MAX_HORIZON}"
        )));
    }
    Ok(k as usize)
}

/// The request budget clamped to the server caps on both axes. The
/// wall-clock cap is always finite, so every check has a deadline.
fn parse_budget(params: &Value, limits: Limits) -> Budget {
    let max_states = params
        .get("max_states")
        .and_then(Value::as_u64)
        .map(|n| n as usize)
        .unwrap_or(limits.max_states)
        .min(limits.max_states);
    let max_millis = params
        .get("max_millis")
        .and_then(Value::as_u64)
        .unwrap_or(limits.max_millis)
        .min(limits.max_millis);
    Budget {
        max_states,
        max_millis,
    }
}

/// `solvable`: Theorem III.8 on the named scheme, memoised per canonical
/// key.
fn solvable(state: &ServerState, params: &Value) -> (Result<Value, RpcError>, &'static str) {
    let scheme = match parse_scheme(params) {
        Ok(scheme) => scheme,
        Err(e) => return (Err(e), "none"),
    };
    let key = format!("{}|theorem", scheme.canonical());
    if let Some(cached) = state.cache().lookup_theorem(&key) {
        return (Ok(cached), "hit");
    }
    let verdict = match scheme.decide() {
        Ok(verdict) => verdict,
        Err(message) => return (Err(RpcError::new("unsupported", message)), "miss"),
    };
    let result = match verdict {
        Solvability::Solvable { witness, condition } => obj(&[
            ("solvable", Value::from(true)),
            ("witness", Value::from(witness.to_string())),
            ("condition", Value::from(format!("{condition:?}"))),
            ("scheme", Value::from(scheme.display_name())),
        ]),
        Solvability::Obstruction => obj(&[
            ("solvable", Value::from(false)),
            ("scheme", Value::from(scheme.display_name())),
        ]),
    };
    state.record_theorem(&key, result.clone());
    (Ok(result), "miss")
}

/// `check_horizon`: the bounded checker at one horizon, answered from the
/// monotone verdict cache whenever possible.
fn check_horizon(state: &ServerState, params: &Value) -> (Result<Value, RpcError>, &'static str) {
    let parsed = (|| {
        let scheme = parse_scheme(params)?;
        let k = parse_horizon(params, "horizon")?;
        let alphabet = parse_alphabet(params, &scheme).map_err(RpcError::bad_params)?;
        Ok((scheme, k, alphabet))
    })();
    let (scheme, k, alphabet) = match parsed {
        Ok(triple) => triple,
        Err(e) => return (Err(e), "none"),
    };
    let budget = parse_budget(params, state.limits());
    let key = scheme.cache_key(&alphabet);

    if let Some(answer) = state.cache().lookup_horizon(&key, k) {
        let (disposition, proven_at) = match answer {
            CacheAnswer::Exact { .. } => ("hit", k),
            CacheAnswer::Subsumed { proven_at, .. } => ("subsumed", proven_at),
        };
        let result = obj(&[
            ("solvable", Value::from(answer.solvable())),
            ("cached", Value::from(true)),
            ("proven_at", Value::from(proven_at as u64)),
        ]);
        return (Ok(result), disposition);
    }

    let outcome = Check {
        alphabet: &alphabet,
        budget,
    }
    .at(scheme.as_omission(), k, &mut NullRecorder);
    let result = match outcome {
        CheckResult::Solvable { views, components } => {
            state.record_horizon(&key, k, true);
            obj(&[
                ("solvable", Value::from(true)),
                ("cached", Value::from(false)),
                ("views", Value::from(views as u64)),
                ("components", Value::from(components as u64)),
            ])
        }
        CheckResult::Empty => {
            state.record_horizon(&key, k, true);
            obj(&[
                ("solvable", Value::from(true)),
                ("cached", Value::from(false)),
                ("empty", Value::from(true)),
            ])
        }
        CheckResult::Unsolvable { chain } => {
            state.record_horizon(&key, k, false);
            obj(&[
                ("solvable", Value::from(false)),
                ("cached", Value::from(false)),
                ("chain_len", Value::from(chain.len() as u64)),
            ])
        }
        CheckResult::BudgetExhausted {
            horizon_reached,
            frontier_size,
        } => obj(&[
            ("solvable", Value::Null),
            ("cached", Value::from(false)),
            (
                "budget_exhausted",
                obj(&[
                    ("horizon_reached", Value::from(horizon_reached as u64)),
                    ("frontier_size", Value::from(frontier_size as u64)),
                ]),
            ),
        ]),
    };
    (Ok(result), "miss")
}

/// `first_horizon`: the first solvable horizon in `0..=max_horizon`. The
/// key's cached boundaries answer what they can, and one
/// [`Check::first`] sweeps the gap between them, so the request's budget
/// caps the whole sweep. Only the boundaries the sweep moved are
/// recorded: at most two WAL `horizon` records per request.
///
/// The request counts as one cache lookup. Its disposition is `"miss"`
/// when the checker ran; otherwise `"hit"` when every horizon it
/// consulted was answered at the horizon its verdict was proven at, and
/// `"subsumed"` when one lay below the unsolvable boundary.
fn first_horizon(state: &ServerState, params: &Value) -> (Result<Value, RpcError>, &'static str) {
    let parsed = (|| {
        let scheme = parse_scheme(params)?;
        let max_k = parse_horizon(params, "max_horizon")?;
        let alphabet = parse_alphabet(params, &scheme).map_err(RpcError::bad_params)?;
        Ok((scheme, max_k, alphabet))
    })();
    let (scheme, max_k, alphabet) = match parsed {
        Ok(triple) => triple,
        Err(e) => return (Err(e), "none"),
    };
    let check = Check {
        alphabet: &alphabet,
        budget: parse_budget(params, state.limits()),
    };
    let key = scheme.cache_key(&alphabet);

    let known = state.cache().horizon_verdicts(&key);
    let mut verdicts = known;
    let mut ran_checker = false;
    let outcome = verdicts.first_solvable_within(max_k, |horizons| {
        ran_checker = true;
        check.first(scheme.as_omission(), horizons, &mut NullRecorder)
    });
    // A boundary only ever tightens, so a changed one is a new one.
    let moved = |now: Option<usize>, before| now.filter(|_| now != before);
    if let Some(k) = moved(verdicts.max_unsolvable(), known.max_unsolvable()) {
        state.record_horizon(&key, k, false);
    }
    if let Some(k) = moved(verdicts.min_solvable(), known.min_solvable()) {
        state.record_horizon(&key, k, true);
    }
    let disposition = if ran_checker {
        "miss"
    } else if known.max_unsolvable().is_some_and(|m| m > 0) {
        "subsumed"
    } else {
        "hit"
    };
    state.cache().count(disposition);

    let result = match outcome {
        HorizonOutcome::Solvable(k) => obj(&[
            ("outcome", Value::from("solvable")),
            ("horizon", Value::from(k as u64)),
        ]),
        HorizonOutcome::UnsolvableWithin(max_k) => obj(&[
            ("outcome", Value::from("unsolvable_within")),
            ("max_horizon", Value::from(max_k as u64)),
        ]),
        HorizonOutcome::BudgetExhausted {
            at_horizon,
            horizon_reached,
            frontier_size,
        } => obj(&[
            ("outcome", Value::from("budget_exhausted")),
            ("at_horizon", Value::from(at_horizon as u64)),
            ("horizon_reached", Value::from(horizon_reached as u64)),
            ("frontier_size", Value::from(frontier_size as u64)),
        ]),
    };
    (Ok(result), disposition)
}

/// `net_solvable`: Theorem V.1 — consensus on a graph is solvable
/// against `f` omissions per round iff `f < c(G)`.
fn net_solvable(params: &Value) -> Result<Value, RpcError> {
    let desc = params
        .get("graph")
        .and_then(Value::as_str)
        .ok_or_else(|| RpcError::bad_params("missing \"graph\" description string"))?;
    let f = params
        .get("f")
        .and_then(Value::as_u64)
        .ok_or_else(|| RpcError::bad_params("missing integer \"f\""))?;
    let graph = generators::parse(desc).map_err(RpcError::bad_params)?;
    let connectivity = edge_connectivity(&graph);
    Ok(obj(&[
        ("solvable", Value::from(f < connectivity as u64)),
        ("f", Value::from(f)),
        ("edge_connectivity", Value::from(connectivity as u64)),
        ("min_degree", Value::from(min_degree(&graph) as u64)),
        ("vertices", Value::from(graph.vertex_count() as u64)),
        ("edges", Value::from(graph.edge_count() as u64)),
    ]))
}

/// `simulate`: run `A_w` on two processes or flooding consensus on a
/// graph, under a scripted adversary, and return the audited outcome.
fn simulate(params: &Value) -> Result<Value, RpcError> {
    match params.get("target").and_then(Value::as_str) {
        None | Some("two_process") => simulate_two_process(params),
        Some("flooding") => simulate_flooding(params),
        Some(other) => Err(RpcError::bad_params(format!(
            "unknown simulate target {other:?} (two_process or flooding)"
        ))),
    }
}

fn parse_max_rounds(params: &Value, default: usize) -> Result<usize, RpcError> {
    let rounds = params
        .get("max_rounds")
        .and_then(Value::as_u64)
        .map(|n| n as usize)
        .unwrap_or(default);
    if rounds == 0 || rounds > MAX_SIM_ROUNDS {
        return Err(RpcError::bad_params(format!(
            "max_rounds must be in 1..={MAX_SIM_ROUNDS}"
        )));
    }
    Ok(rounds)
}

fn want_trace(params: &Value) -> bool {
    params
        .get("trace")
        .and_then(Value::as_bool)
        .unwrap_or(false)
}

fn trace_value(recorder: &MemoryRecorder) -> (Value, bool) {
    let events = recorder.events();
    let truncated = events.len() > MAX_TRACE_EVENTS;
    let json = events
        .iter()
        .take(MAX_TRACE_EVENTS)
        .map(|e| e.to_json())
        .collect::<Vec<Value>>();
    (Value::from(json), truncated)
}

fn simulate_two_process(params: &Value) -> Result<Value, RpcError> {
    let w_text = params
        .get("w")
        .and_then(Value::as_str)
        .ok_or_else(|| RpcError::bad_params("missing \"w\": the A_w parameter scenario"))?;
    let w: Scenario = w_text
        .parse()
        .map_err(|e| RpcError::bad_params(format!("bad scenario {w_text:?}: {e:?}")))?;
    if !w.is_gamma() {
        return Err(RpcError::bad_params(
            "A_w requires a parameter scenario in Γ^ω (letters -, w, b)",
        ));
    }
    let scenario: Scenario = match params.get("scenario").and_then(Value::as_str) {
        Some(text) => text
            .parse()
            .map_err(|e| RpcError::bad_params(format!("bad scenario {text:?}: {e:?}")))?,
        None => w.clone(),
    };
    let inputs: Vec<bool> = match params.get("inputs").and_then(Value::as_array) {
        Some(list) => list
            .iter()
            .map(|v| v.as_bool().ok_or("inputs must be booleans"))
            .collect::<Result<Vec<bool>, _>>()
            .map_err(RpcError::bad_params)?,
        None => vec![true, false],
    };
    if inputs.len() != 2 {
        return Err(RpcError::bad_params(
            "two_process needs exactly two inputs [white, black]",
        ));
    }
    let max_rounds = parse_max_rounds(params, 64)?;

    let mut white = AwProcess::new(Role::White, inputs[0], w.clone());
    let mut black = AwProcess::new(Role::Black, inputs[1], w);
    let mut recorder = MemoryRecorder::new();
    let outcome =
        run_two_process_with_recorder(&mut white, &mut black, &scenario, max_rounds, &mut recorder);

    let mut pairs = vec![
        ("verdict", two_process_verdict(&outcome.verdict)),
        ("white", opt_bool(outcome.white_decision)),
        ("black", opt_bool(outcome.black_decision)),
        ("rounds", Value::from(outcome.rounds as u64)),
        ("messages_sent", Value::from(outcome.messages_sent as u64)),
        (
            "messages_delivered",
            Value::from(outcome.messages_delivered as u64),
        ),
    ];
    if want_trace(params) {
        let (trace, truncated) = trace_value(&recorder);
        pairs.push(("trace", trace));
        pairs.push(("trace_truncated", Value::from(truncated)));
    }
    Ok(obj(&pairs))
}

fn opt_bool(b: Option<bool>) -> Value {
    b.map(Value::from).unwrap_or(Value::Null)
}

fn two_process_verdict(verdict: &Verdict) -> Value {
    match verdict {
        Verdict::Consensus(value) => obj(&[
            ("type", Value::from("consensus")),
            ("value", Value::from(*value)),
        ]),
        Verdict::Disagreement { white, black } => obj(&[
            ("type", Value::from("disagreement")),
            ("white", Value::from(*white)),
            ("black", Value::from(*black)),
        ]),
        Verdict::ValidityViolation { proposed, decided } => obj(&[
            ("type", Value::from("validity_violation")),
            ("proposed", Value::from(*proposed)),
            ("decided", Value::from(*decided)),
        ]),
        Verdict::Undecided => obj(&[("type", Value::from("undecided"))]),
    }
}

fn net_verdict(verdict: &NetVerdict) -> Value {
    match verdict {
        NetVerdict::Consensus(value) => obj(&[
            ("type", Value::from("consensus")),
            ("value", Value::from(*value)),
        ]),
        NetVerdict::Disagreement { values } => obj(&[
            ("type", Value::from("disagreement")),
            (
                "values",
                Value::from(vec![Value::from(values.0), Value::from(values.1)]),
            ),
        ]),
        NetVerdict::ValidityViolation { proposed, decided } => obj(&[
            ("type", Value::from("validity_violation")),
            ("proposed", Value::from(*proposed)),
            ("decided", Value::from(*decided)),
        ]),
        NetVerdict::Undecided { undecided } => obj(&[
            ("type", Value::from("undecided")),
            ("undecided", Value::from(*undecided as u64)),
        ]),
    }
}

fn simulate_flooding(params: &Value) -> Result<Value, RpcError> {
    let desc = params
        .get("graph")
        .and_then(Value::as_str)
        .ok_or_else(|| RpcError::bad_params("missing \"graph\" description string"))?;
    let graph = generators::parse(desc).map_err(RpcError::bad_params)?;
    let n = graph.vertex_count();
    let inputs: Vec<u64> = match params.get("inputs").and_then(Value::as_array) {
        Some(list) => list
            .iter()
            .map(|v| v.as_u64().ok_or("inputs must be unsigned integers"))
            .collect::<Result<Vec<u64>, _>>()
            .map_err(RpcError::bad_params)?,
        None => (0..n).map(|i| (i % 2) as u64).collect(),
    };
    if inputs.len() != n {
        return Err(RpcError::bad_params(format!(
            "need one input per node: got {}, graph has {n}",
            inputs.len()
        )));
    }
    let rule = match params.get("rule").and_then(Value::as_str) {
        None | Some("min_id") => DecisionRule::ValueOfMinId,
        Some("min_value") => DecisionRule::MinValue,
        Some(other) => {
            return Err(RpcError::bad_params(format!(
                "unknown rule {other:?} (min_id or min_value)"
            )))
        }
    };
    let script = parse_drop_script(params, &graph)?;
    let max_rounds = parse_max_rounds(params, n.max(2))?;

    let nodes = FloodConsensus::fleet(&graph, &inputs, rule);
    let mut adversary = ScriptedAdversary::once(script);
    let mut recorder = MemoryRecorder::new();
    let outcome =
        run_network_with_recorder(&graph, nodes, &mut adversary, max_rounds, &mut recorder);

    let decisions = outcome
        .decisions
        .iter()
        .map(|d| d.map(Value::from).unwrap_or(Value::Null))
        .collect::<Vec<Value>>();
    let stats = &outcome.stats;
    let mut pairs = vec![
        ("verdict", net_verdict(&outcome.verdict)),
        ("decisions", Value::from(decisions)),
        ("rounds", Value::from(stats.rounds as u64)),
        ("messages_sent", Value::from(stats.messages_sent as u64)),
        (
            "messages_delivered",
            Value::from(stats.messages_delivered as u64),
        ),
        (
            "messages_dropped",
            Value::from(stats.messages_dropped as u64),
        ),
        (
            "max_drops_per_round",
            Value::from(stats.max_drops_per_round as u64),
        ),
    ];
    if want_trace(params) {
        let (trace, truncated) = trace_value(&recorder);
        pairs.push(("trace", trace));
        pairs.push(("trace_truncated", Value::from(truncated)));
    }
    Ok(obj(&pairs))
}

/// Parses `drops`: an array of rounds, each an array of `[from, to]`
/// pairs or `{"from": .., "to": ..}` objects.
fn parse_drop_script(params: &Value, graph: &Graph) -> Result<Vec<Vec<DirectedEdge>>, RpcError> {
    let rounds = match params.get("drops").and_then(Value::as_array) {
        Some(rounds) => rounds,
        None => return Ok(Vec::new()),
    };
    let n = graph.vertex_count();
    let mut script = Vec::with_capacity(rounds.len());
    for round in rounds {
        let entries = round
            .as_array()
            .ok_or_else(|| RpcError::bad_params("each drops entry must be an array of edges"))?;
        let mut edges = Vec::with_capacity(entries.len());
        for entry in entries {
            let (from, to) = parse_edge(entry)?;
            if from >= n || to >= n {
                return Err(RpcError::bad_params(format!(
                    "drop edge {from}->{to} out of range for {n} nodes"
                )));
            }
            edges.push(DirectedEdge { from, to });
        }
        script.push(edges);
    }
    Ok(script)
}

fn parse_edge(entry: &Value) -> Result<(usize, usize), RpcError> {
    if let Some([from, to]) = entry.as_array() {
        if let (Some(from), Some(to)) = (from.as_u64(), to.as_u64()) {
            return Ok((from as usize, to as usize));
        }
    }
    if let (Some(from), Some(to)) = (
        entry.get("from").and_then(Value::as_u64),
        entry.get("to").and_then(Value::as_u64),
    ) {
        return Ok((from as usize, to as usize));
    }
    Err(RpcError::bad_params(
        "edges must be [from, to] pairs or {\"from\", \"to\"} objects",
    ))
}

/// `stats`: daemon uptime, pool size, queued depth, gossip peer health,
/// a full metrics snapshot (including the `svc.cache_*` counters), and
/// per-method latency quantiles.
fn stats(state: &ServerState) -> Value {
    // Published as a gauge so the backlog is visible in every snapshot.
    let queued = state.queued();
    state.registry().gauge("svc.queued").set(queued);
    obj(&[
        ("uptime_ms", Value::from(state.uptime_ms())),
        ("workers", Value::from(state.workers() as u64)),
        ("draining", Value::from(state.draining())),
        ("queued", Value::from(queued)),
        ("cache_entries", Value::from(state.cache().entries() as u64)),
        ("peers", state.peers_json()),
        ("latency", latency_summary(state)),
        ("metrics", state.registry().snapshot()),
    ])
}

/// `dump_trace`: snapshot the flight ring into well-formed
/// `minobs/trace/v1` JSONL. The dump is inlined in the response (one
/// string, headed by a `flight_dump` meta line), so `svc dump` needs no
/// filesystem access on the daemon's side.
fn dump_trace(state: &ServerState) -> Value {
    let snapshot = state.flight().dump("rpc");
    obj(&[
        ("node_id", Value::from(state.node_id())),
        ("events", Value::from(snapshot.events)),
        ("dropped", Value::from(snapshot.dropped)),
        ("truncated_spans", Value::from(snapshot.truncated)),
        ("jsonl", Value::from(snapshot.jsonl)),
    ])
}

/// `health`: the liveness/readiness probe plus SLO burn counters.
/// Evaluating publishes the `svc.ready` gauge and, on any verdict
/// change, an edge-triggered `health` trace event — so polling this
/// method is what keeps the health plane current.
fn health(state: &ServerState) -> Value {
    let report = state.evaluate_health();
    let requests = state.registry().counter("svc.requests").get();
    obj(&[
        ("status", Value::from(report.status)),
        ("ready", Value::from(report.ready)),
        ("live", Value::from(report.live)),
        ("node_id", Value::from(state.node_id())),
        (
            "checks",
            obj(&[
                (
                    "wal",
                    Value::from(if report.wal_degraded {
                        "degraded"
                    } else {
                        "ok"
                    }),
                ),
                (
                    "peers",
                    obj(&[
                        ("alive", Value::from(report.peers_alive as u64)),
                        ("down", Value::from(report.peers_down as u64)),
                    ]),
                ),
                (
                    "queue",
                    obj(&[
                        ("depth", Value::from(report.queued)),
                        ("cap", Value::from(state.max_connections() as u64)),
                    ]),
                ),
            ]),
        ),
        (
            "slo",
            obj(&[
                ("p99_target_ms", Value::from(state.slo_p99_ms())),
                ("violations", Value::from(state.slo_violations())),
                ("requests", Value::from(requests)),
            ]),
        ),
    ])
}

/// Per-method latency quantiles from the `svc.method.*.latency_ns`
/// histograms: `{method: {count, p50_ns, p95_ns, p99_ns}}` for every
/// method observed at least once.
fn latency_summary(state: &ServerState) -> Value {
    let mut methods = Map::new();
    for (name, histogram) in state.registry().histograms() {
        let method = match name
            .strip_prefix("svc.method.")
            .and_then(|rest| rest.strip_suffix(".latency_ns"))
        {
            Some(method) => method,
            None => continue,
        };
        let quantile = |q: f64| {
            histogram
                .quantile(q)
                .map(|v| Value::from(v.round() as u64))
                .unwrap_or(Value::Null)
        };
        let count = histogram.count();
        if count == 0 {
            continue;
        }
        let mut entry = vec![
            ("count", Value::from(count)),
            ("p50_ns", quantile(0.50)),
            ("p95_ns", quantile(0.95)),
            ("p99_ns", quantile(0.99)),
        ];
        // The most recent kept trace that landed in the slowest occupied
        // bucket: the jump-off point from a quantile to a concrete trace.
        if let Some((trace_id, _)) = histogram.slowest_exemplar() {
            entry.push(("exemplar_trace_id", Value::from(format!("{trace_id:032x}"))));
        }
        methods.insert(method.to_string(), obj(&entry));
    }
    Value::Object(methods)
}
