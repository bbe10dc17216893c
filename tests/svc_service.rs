//! End-to-end tests for the solvability-query service: wire round trips
//! over real sockets, concurrent-vs-serial verdict equivalence, graceful
//! shutdown under load and when idle, the control-plane lane and the
//! checker-permit cap, hostile nesting, huge frames, and (ignored by
//! default) the warm-cache speedup acceptance check.

use minobs_svc::client::SvcClient;
use minobs_svc::server::{serve, SvcConfig};
use minobs_svc::wire;
use serde_json::{Map, Value};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn start() -> (minobs_svc::server::Server, String) {
    let server = serve(SvcConfig::default()).expect("bind an ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn obj(pairs: &[(&str, Value)]) -> Value {
    let mut map = Map::new();
    for (key, value) in pairs {
        map.insert((*key).to_string(), value.clone());
    }
    Value::Object(map)
}

fn check_params(scheme: &str, horizon: u64) -> Value {
    obj(&[
        ("scheme", Value::from(scheme)),
        ("horizon", Value::from(horizon)),
    ])
}

/// A fresh `check_horizon` answer carries its certificate: the chain
/// length when unsolvable (2·3^k + 1 for Γω at horizon k), the view and
/// component counts when solvable, and `empty` for a scheme with no
/// prefix at all. None of them carries `proven_at`.
#[test]
fn fresh_check_horizon_answers_carry_their_certificates() {
    let (server, addr) = start();
    let mut client = SvcClient::connect(addr.as_str()).unwrap();
    let field = |answer: &Value, name: &str| answer.get(name).cloned();

    let r1 = client.call("check_horizon", check_params("r1", 3)).unwrap();
    assert_eq!(field(&r1, "solvable"), Some(Value::from(false)));
    assert_eq!(field(&r1, "cached"), Some(Value::from(false)));
    assert_eq!(field(&r1, "chain_len"), Some(Value::from(55u64)));

    let s1 = client.call("check_horizon", check_params("s1", 2)).unwrap();
    assert_eq!(field(&s1, "solvable"), Some(Value::from(true)));
    assert_eq!(field(&s1, "views"), Some(Value::from(36u64)));
    assert_eq!(field(&s1, "components"), Some(Value::from(8u64)));

    let empty_scheme = obj(&[
        ("name", Value::from("avoid_prefix")),
        ("prefix", Value::from("")),
    ]);
    let empty = client
        .call(
            "check_horizon",
            obj(&[("scheme", empty_scheme), ("horizon", Value::from(3u64))]),
        )
        .unwrap();
    assert_eq!(field(&empty, "solvable"), Some(Value::from(true)));
    assert_eq!(field(&empty, "empty"), Some(Value::from(true)));

    for answer in [&r1, &s1, &empty] {
        assert_eq!(field(answer, "proven_at"), None, "{answer:?}");
    }
    client.call("shutdown", Value::Null).unwrap();
    server.join();
}

/// The query mix both equivalence tests run: every method, schemes from
/// several families, horizons crossing each scheme's solvability
/// boundary so subsumption answers some of them.
fn workload() -> Vec<(&'static str, Value)> {
    let mut queries = Vec::new();
    for scheme in ["s0", "s1", "r1", "fair", "almost_fair", "regular_s1"] {
        for horizon in [0u64, 1, 2, 3] {
            queries.push(("check_horizon", check_params(scheme, horizon)));
        }
    }
    queries.push(("check_horizon", check_params("s2", 2)));
    for scheme in ["s1", "r1", "fair", "regular_c1"] {
        queries.push(("solvable", obj(&[("scheme", Value::from(scheme))])));
        queries.push((
            "first_horizon",
            obj(&[
                ("scheme", Value::from(scheme)),
                ("max_horizon", Value::from(4u64)),
            ]),
        ));
    }
    for (graph, f) in [("k4", 2u64), ("c5", 1), ("c5", 2), ("petersen", 2)] {
        queries.push((
            "net_solvable",
            obj(&[("graph", Value::from(graph)), ("f", Value::from(f))]),
        ));
    }
    queries.push((
        "simulate",
        obj(&[
            ("w", Value::from("(w)")),
            ("scenario", Value::from("(-)")),
            ("max_rounds", Value::from(48u64)),
        ]),
    ));
    queries
}

/// Projects a response onto the fields that must be identical no matter
/// how the query was scheduled or whether the cache answered it.
fn verdict_of(method: &str, result: &Value) -> String {
    match method {
        "check_horizon" => format!("{:?}", result.get("solvable")),
        "first_horizon" => format!(
            "{:?}@{:?}",
            result.get("outcome"),
            result.get("horizon").or(result.get("max_horizon"))
        ),
        "solvable" => format!(
            "{:?} witness {:?}",
            result.get("solvable"),
            result.get("witness")
        ),
        "net_solvable" => format!(
            "{:?} c {:?}",
            result.get("solvable"),
            result.get("edge_connectivity")
        ),
        "simulate" => format!("{:?}", result.get("verdict")),
        other => panic!("workload has no verdict projection for {other}"),
    }
}

#[test]
fn all_methods_answer_over_the_wire() {
    let (server, addr) = start();
    let mut client = SvcClient::connect(addr.as_str()).unwrap();

    let theorem = client
        .call("solvable", obj(&[("scheme", Value::from("s1"))]))
        .unwrap();
    assert_eq!(theorem.get("solvable").and_then(Value::as_bool), Some(true));
    assert!(theorem.get("witness").is_some(), "solvable carries witness");

    let check = client.call("check_horizon", check_params("r1", 3)).unwrap();
    assert_eq!(check.get("solvable").and_then(Value::as_bool), Some(false));
    // Same query again: answered by the cache.
    let check = client.call("check_horizon", check_params("r1", 3)).unwrap();
    assert_eq!(check.get("cached").and_then(Value::as_bool), Some(true));
    // Lower horizon: subsumed by the recorded verdict (unsolvable@3 ⇒ @2).
    let check = client.call("check_horizon", check_params("r1", 2)).unwrap();
    assert_eq!(check.get("solvable").and_then(Value::as_bool), Some(false));
    assert_eq!(check.get("cached").and_then(Value::as_bool), Some(true));

    let first = client
        .call(
            "first_horizon",
            obj(&[
                ("scheme", Value::from("s1")),
                ("max_horizon", Value::from(4u64)),
            ]),
        )
        .unwrap();
    assert_eq!(
        first.get("outcome").and_then(Value::as_str),
        Some("solvable")
    );

    let net = client
        .call(
            "net_solvable",
            obj(&[("graph", Value::from("k4")), ("f", Value::from(2u64))]),
        )
        .unwrap();
    assert_eq!(net.get("solvable").and_then(Value::as_bool), Some(true));
    assert_eq!(
        net.get("edge_connectivity").and_then(Value::as_u64),
        Some(3)
    );

    let sim = client
        .call(
            "simulate",
            obj(&[
                ("w", Value::from("(w)")),
                ("scenario", Value::from("(-)")),
                ("max_rounds", Value::from(48u64)),
                ("trace", Value::from(true)),
            ]),
        )
        .unwrap();
    assert!(sim.get("verdict").is_some());
    assert!(sim.get("trace").and_then(Value::as_array).is_some());

    let stats = client.call("stats", Value::Null).unwrap();
    let counters = stats
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("stats carries metric counters");
    for counter in [
        "svc.cache_hits",
        "svc.cache_misses",
        "svc.cache_subsumptions",
    ] {
        assert!(
            counters.get(counter).and_then(Value::as_u64).is_some(),
            "{counter} missing from stats: {stats:?}"
        );
    }
    // This connection produced one exact hit and one subsumption above.
    assert!(counters.get("svc.cache_hits").and_then(Value::as_u64) >= Some(1));
    assert!(
        counters
            .get("svc.cache_subsumptions")
            .and_then(Value::as_u64)
            >= Some(1)
    );

    // Unknown methods and bad params answer errors, not hangups.
    assert!(client.call("no_such_method", Value::Null).is_err());
    assert!(client.call("check_horizon", Value::Null).is_err());
    let after = client.call("stats", Value::Null).unwrap();
    assert!(after.get("uptime_ms").is_some());

    client.call("shutdown", Value::Null).unwrap();
    server.join();
}

#[test]
fn concurrent_verdicts_match_serial() {
    // Serial baseline on a fresh daemon.
    let (server, addr) = start();
    let mut client = SvcClient::connect(addr.as_str()).unwrap();
    let baseline: Vec<String> = workload()
        .iter()
        .map(|(method, params)| {
            let result = client
                .call(method, params.clone())
                .unwrap_or_else(|e| panic!("serial {method} failed: {e}"));
            verdict_of(method, &result)
        })
        .collect();
    client.call("shutdown", Value::Null).unwrap();
    server.join();

    // Four clients race the same workload (shuffled per thread by
    // striding) against one fresh daemon; every verdict must match the
    // serial baseline even though cache states differ per interleaving.
    let (server, addr) = start();
    let queries = workload();
    std::thread::scope(|scope| {
        for stride in 1..=4usize {
            let addr = addr.clone();
            let queries = &queries;
            let baseline = &baseline;
            scope.spawn(move || {
                let mut client = SvcClient::connect(addr.as_str()).unwrap();
                let n = queries.len();
                for i in 0..n {
                    let idx = (i * stride) % n;
                    let (method, params) = &queries[idx];
                    let result = client
                        .call(method, params.clone())
                        .unwrap_or_else(|e| panic!("concurrent {method} failed: {e}"));
                    assert_eq!(
                        verdict_of(method, &result),
                        baseline[idx],
                        "query #{idx} ({method}) diverged under concurrency"
                    );
                }
            });
        }
    });
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_under_load_loses_no_accepted_request() {
    let (server, addr) = start();
    let successes = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let addr = addr.clone();
            let successes = &successes;
            scope.spawn(move || {
                let mut client = match SvcClient::connect(addr.as_str()) {
                    Ok(client) => client,
                    Err(_) => return, // daemon already draining
                };
                for i in 0..400usize {
                    let params = check_params(if worker % 2 == 0 { "s1" } else { "r1" }, 2);
                    match client.call("check_horizon", params) {
                        Ok(_) => {
                            successes.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(minobs_svc::SvcError::Rpc { .. }) => {
                            // A method error is still an answered request.
                            successes.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(_) => {
                            // Connection closed: the drain refused this
                            // request before decoding it. That is the
                            // contract — it must never happen halfway
                            // (accepted but unanswered), which would
                            // surface as a recv hang, not an error.
                            let _ = i;
                            return;
                        }
                    }
                }
            });
        }
        // Let the load build, then drain from a separate connection.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut killer = SvcClient::connect(addr.as_str()).unwrap();
        let reply = killer.call("shutdown", Value::Null).unwrap();
        assert_eq!(reply.get("draining").and_then(Value::as_bool), Some(true));
    });

    // Drain must complete with every accepted request answered: the
    // request counter equals ok + err responses exactly.
    let state = std::sync::Arc::clone(server.state());
    server.join();
    let requests = state.registry().counter("svc.requests").get();
    let answered = state.registry().counter("svc.responses_ok").get()
        + state.registry().counter("svc.responses_err").get();
    assert_eq!(
        requests, answered,
        "accepted {requests} requests but answered {answered}"
    );
    assert!(
        successes.load(Ordering::SeqCst) > 0,
        "load threads got no responses at all"
    );
}

#[test]
fn telemetry_plane_exposes_spans_quantiles_and_exposition() {
    let trace_path = std::env::temp_dir().join(format!(
        "minobs_svc_telemetry_{}.trace.jsonl",
        std::process::id()
    ));
    let config = SvcConfig {
        trace_path: Some(trace_path.clone()),
        ..SvcConfig::default()
    };
    let server = serve(config).expect("bind an ephemeral port");
    let addr = server.local_addr().to_string();
    let mut client = SvcClient::connect(addr.as_str()).unwrap();

    for _ in 0..3 {
        client.call("check_horizon", check_params("s1", 2)).unwrap();
        client
            .call("solvable", obj(&[("scheme", Value::from("s1"))]))
            .unwrap();
    }

    // `stats` carries per-method latency quantiles for every method
    // exercised so far, all non-zero (span/latency nanos are >= 1).
    let stats = client.call("stats", Value::Null).unwrap();
    let latency = stats
        .get("latency")
        .and_then(Value::as_object)
        .expect("stats carries a latency summary");
    for method in ["check_horizon", "solvable"] {
        let summary = latency
            .get(method)
            .unwrap_or_else(|| panic!("latency summary missing {method}: {stats:?}"));
        assert_eq!(
            summary.get("count").and_then(Value::as_u64),
            Some(3),
            "{method} latency count"
        );
        for q in ["p50_ns", "p95_ns", "p99_ns"] {
            let v = summary.get(q).and_then(Value::as_u64).unwrap_or(0);
            assert!(v > 0, "{method} {q} must be non-zero, got {summary:?}");
        }
    }

    // `metrics` renders the Prometheus text exposition.
    let metrics = client.call("metrics", Value::Null).unwrap();
    let text = metrics
        .get("text")
        .and_then(Value::as_str)
        .expect("metrics returns a text field");
    assert!(text.contains("# TYPE svc_requests counter"), "{text}");
    assert!(
        text.contains("svc_method_check_horizon_latency_ns_bucket{le=\"+Inf\"}"),
        "per-method histogram missing from exposition:\n{text}"
    );

    client.call("shutdown", Value::Null).unwrap();
    server.join();

    // The daemon trace interleaves whole requests: each request's
    // rpc.* span pair lands as a self-balanced block before its
    // svc_response, so a single pass with a stack must close everything.
    let trace = std::fs::read_to_string(&trace_path).expect("daemon trace written");
    let mut open: Vec<(u64, String)> = Vec::new();
    let mut span_names = Vec::new();
    for line in trace.lines() {
        let event: Value = serde_json::from_str(line).expect("valid trace JSON");
        match event.get("event").and_then(Value::as_str) {
            Some("span_start") => {
                let id = event.get("span_id").and_then(Value::as_u64).unwrap();
                let name = event.get("name").and_then(Value::as_str).unwrap();
                open.push((id, name.to_string()));
                span_names.push(name.to_string());
            }
            Some("span_end") => {
                let id = event.get("span_id").and_then(Value::as_u64).unwrap();
                let name = event.get("name").and_then(Value::as_str).unwrap();
                let (open_id, open_name) = open.pop().expect("span_end without span_start");
                assert_eq!((open_id, open_name.as_str()), (id, name));
                assert!(event.get("nanos").and_then(Value::as_u64).unwrap() >= 1);
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unclosed spans in daemon trace: {open:?}");
    assert!(span_names.contains(&"rpc.check_horizon".to_string()));
    assert!(span_names.contains(&"rpc.solvable".to_string()));
    assert!(span_names.contains(&"rpc.stats".to_string()));
    let _ = std::fs::remove_file(&trace_path);
}

/// A graph description arrives off the network, so its first character
/// may be any character. A non-ASCII one is a bad description: the
/// daemon answers `bad_params`, its handler does not panic, and no
/// flight dump is written.
#[test]
fn non_ascii_graph_descriptions_are_bad_params_not_panics() {
    let base = std::env::temp_dir().join(format!("minobs_svc_non_ascii_{}", std::process::id()));
    let config = SvcConfig {
        flight_dir: Some(base.join("flight")),
        ..SvcConfig::default()
    };
    let server = serve(config).expect("bind an ephemeral port");
    let mut client = SvcClient::connect(server.local_addr().to_string().as_str()).unwrap();
    let requests = [
        (
            "net_solvable",
            obj(&[("graph", Value::from("ж5")), ("f", Value::from(1u64))]),
        ),
        (
            "net_solvable",
            obj(&[("graph", Value::from("éx")), ("f", Value::from(1u64))]),
        ),
        (
            "simulate",
            obj(&[
                ("target", Value::from("flooding")),
                ("graph", Value::from("ж5")),
            ]),
        ),
    ];
    for (method, params) in requests {
        match client.call(method, params.clone()) {
            Err(minobs_svc::SvcError::Rpc { code, message }) => {
                assert_eq!(code, "bad_params", "{method} {params:?}: {message}");
            }
            other => panic!("{method} {params:?} answered {other:?}"),
        }
    }
    assert_eq!(
        server.state().registry().counter("svc.flight_dumps").get(),
        0
    );
    client.call("shutdown", Value::Null).unwrap();
    server.join();
    let _ = std::fs::remove_dir_all(&base);
}

/// `stats` reports the `queued` gauge (accepted − answered). The stats
/// request itself is accepted but not yet answered while the handler
/// runs, so an otherwise idle daemon reports exactly 1.
#[test]
fn client_side_queued_is_visible() {
    let (server, addr) = start();
    let mut client = SvcClient::connect(addr.as_str()).unwrap();
    let stats = client.call("stats", Value::Null).unwrap();
    let queued = stats
        .get("queued")
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats carries a queued gauge: {stats:?}"));
    assert_eq!(
        queued, 1,
        "idle daemon: only the stats call itself in flight"
    );
    client.call("shutdown", Value::Null).unwrap();
    server.join();
}

#[test]
fn wal_degradation_auto_dumps_the_flight_ring() {
    let base = std::env::temp_dir().join(format!("minobs_svc_wal_dump_{}", std::process::id()));
    let flight_dir = base.join("flight");
    std::fs::create_dir_all(&base).unwrap();
    // A directory is unopenable as a WAL file: the daemon degrades at
    // startup instead of dying, and the degradation edge auto-dumps.
    let config = SvcConfig {
        wal_path: Some(base.clone()),
        flight_dir: Some(flight_dir.clone()),
        ..SvcConfig::default()
    };
    let server = serve(config).expect("WAL degradation keeps the daemon up");
    let state = std::sync::Arc::clone(server.state());
    server.shutdown();
    server.join();

    assert!(
        state.registry().gauge("svc.wal_degraded").get() != 0,
        "daemon should be running degraded"
    );
    assert_eq!(state.registry().counter("svc.flight_dumps").get(), 1);
    let dump_path = flight_dir.join("flight-000-wal_degraded.trace.jsonl");
    let dump = std::fs::read_to_string(&dump_path)
        .unwrap_or_else(|e| panic!("auto-dump missing at {}: {e}", dump_path.display()));
    minobs_bench::lint::lint(&dump).unwrap_or_else(|err| panic!("auto-dump not lint-clean: {err}"));
    let header: Value = serde_json::from_str(dump.lines().next().unwrap()).unwrap();
    assert_eq!(
        header.get("event").and_then(Value::as_str),
        Some("flight_dump")
    );
    assert_eq!(
        header.get("reason").and_then(Value::as_str),
        Some("wal_degraded")
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn dump_trace_rpc_is_lint_clean_and_kept_requests_surface_exemplars() {
    // Sampled daemon, but a slow-keep threshold of 0 ms keeps every
    // trace — the CI trigger shape.
    let config = SvcConfig {
        trace_sample: 0.01,
        trace_slow_ms: Some(0),
        ..SvcConfig::default()
    };
    let server = serve(config).expect("bind an ephemeral port");
    let addr = server.local_addr().to_string();
    let mut client = SvcClient::connect(addr.as_str()).unwrap();
    for _ in 0..3 {
        client.call("check_horizon", check_params("s1", 2)).unwrap();
    }

    // The flight ring replays as a well-formed bounded trace on demand.
    let dump = client.call("dump_trace", Value::Null).unwrap();
    let jsonl = dump
        .get("jsonl")
        .and_then(Value::as_str)
        .expect("dump_trace returns the dump inline");
    assert!(dump.get("node_id").and_then(Value::as_str).is_some());
    assert!(dump.get("events").and_then(Value::as_u64).unwrap_or(0) > 0);
    minobs_bench::lint::lint(jsonl)
        .unwrap_or_else(|err| panic!("dump_trace output not lint-clean: {err}"));
    let header: Value = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
    assert_eq!(header.get("reason").and_then(Value::as_str), Some("rpc"));
    assert_eq!(header.get("sampled").and_then(Value::as_bool), Some(true));

    // Kept requests pin their trace id to the latency buckets: the
    // OpenMetrics exposition carries an exemplar on a finite bucket...
    let metrics = client.call("metrics", Value::Null).unwrap();
    let text = metrics.get("text").and_then(Value::as_str).unwrap();
    assert!(
        text.contains("# {trace_id=\""),
        "no exemplar in exposition:\n{text}"
    );
    // ...and stats.latency names the slowest bucket's trace outright.
    let stats = client.call("stats", Value::Null).unwrap();
    let exemplar = stats
        .get("latency")
        .and_then(|l| l.get("check_horizon"))
        .and_then(|m| m.get("exemplar_trace_id"))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no exemplar_trace_id in stats: {stats:?}"));
    assert_eq!(exemplar.len(), 32, "trace id is 32 hex digits: {exemplar}");
    assert!(exemplar.bytes().all(|b| b.is_ascii_hexdigit()));

    client.call("shutdown", Value::Null).unwrap();
    server.join();
}

#[test]
fn tail_sampling_drops_unremarkable_span_blocks_but_keeps_pairing() {
    let trace_path = std::env::temp_dir().join(format!(
        "minobs_svc_sampled_{}.trace.jsonl",
        std::process::id()
    ));
    // Keep probability 0 with the default slow threshold: every fast,
    // successful request's span block is sampled out.
    let config = SvcConfig {
        trace_path: Some(trace_path.clone()),
        trace_sample: 0.0,
        ..SvcConfig::default()
    };
    let server = serve(config).expect("bind an ephemeral port");
    let addr = server.local_addr().to_string();
    let mut client = SvcClient::connect(addr.as_str()).unwrap();
    for _ in 0..5 {
        client.call("check_horizon", check_params("s1", 2)).unwrap();
    }
    client.call("shutdown", Value::Null).unwrap();
    server.join();

    let trace = std::fs::read_to_string(&trace_path).expect("daemon trace written");
    // The stream declares itself sampled, stays lint-clean (request/
    // response pairing is never sampled out), and dropped at least some
    // span blocks.
    minobs_bench::lint::lint(&trace)
        .unwrap_or_else(|err| panic!("sampled trace not lint-clean: {err}"));
    assert!(
        trace.lines().any(|line| {
            let v: Value = serde_json::from_str(line).unwrap();
            v.get("event").and_then(Value::as_str) == Some("trace_sampled")
        }),
        "sampled stream must carry its trace_sampled marker"
    );
    let count = |kind: &str| {
        trace
            .lines()
            .filter(|line| {
                let v: Value = serde_json::from_str(line).unwrap();
                v.get("event").and_then(Value::as_str) == Some(kind)
            })
            .count()
    };
    let requests = count("svc_request");
    assert_eq!(requests, 6, "5 checks + shutdown all paired");
    assert_eq!(count("svc_response"), requests);
    assert!(
        count("span_start") < requests,
        "sampling at 0.0 should drop unremarkable span blocks"
    );
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn idle_daemon_drains_promptly_with_no_connection_ever_made() {
    // The acceptor blocks in `accept`; the drain must wake it itself,
    // through loopback when the daemon is bound to the wildcard address.
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = serve(SvcConfig {
            addr: addr.to_string(),
            ..SvcConfig::default()
        })
        .expect("bind an ephemeral port");
        // Join on a helper thread, so a drain that never ends fails the
        // test instead of hanging it.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            server.join();
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(3)).is_ok(),
            "idle daemon on {addr} did not drain within 3 s"
        );
    }
}

#[test]
fn control_plane_answers_past_busy_checker_and_permits_cap_compute() {
    const BUDGET_MS: u64 = 1500;
    let server = serve(SvcConfig {
        workers: 1,
        ..SvcConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr().to_string();
    let state = std::sync::Arc::clone(server.state());
    let a_done = AtomicBool::new(false);
    let a_sent = Instant::now();

    std::thread::scope(|scope| {
        // Connection A: a check far too large to finish, bounded by its
        // wall-clock budget, holds the only checker permit.
        let a = scope.spawn(|| {
            let mut client = SvcClient::connect(addr.as_str()).unwrap();
            let mut params = check_params("fair", 40);
            if let Value::Object(map) = &mut params {
                map.insert("max_millis".to_string(), Value::from(BUDGET_MS));
            }
            let result = client.call("check_horizon", params).unwrap();
            a_done.store(true, Ordering::SeqCst);
            (result, a_sent.elapsed())
        });
        while state.registry().counter("svc.requests").get() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(100));

        // Connection B: the control plane never waits for a permit.
        let mut b = SvcClient::connect(addr.as_str()).unwrap();
        let b_sent = Instant::now();
        let health = b.call("health", Value::Null).unwrap();
        let stats = b.call("stats", Value::Null).unwrap();
        let b_elapsed = b_sent.elapsed();
        assert!(
            !a_done.load(Ordering::SeqCst),
            "health and stats waited for the checker ({b_elapsed:?})"
        );
        assert!(
            b_elapsed < Duration::from_millis(BUDGET_MS / 2),
            "{b_elapsed:?}"
        );
        assert_eq!(health.get("live").and_then(Value::as_bool), Some(true));
        assert_eq!(stats.get("workers").and_then(Value::as_u64), Some(1));

        // Connection C: a second compute request waits for A's permit.
        let mut c = SvcClient::connect(addr.as_str()).unwrap();
        assert!(
            !a_done.load(Ordering::SeqCst),
            "A finished before C was sent"
        );
        c.call("check_horizon", check_params("s1", 2)).unwrap();
        let c_answered = a_sent.elapsed();

        let (a_result, a_answered) = a.join().unwrap();
        assert!(
            a_result.get("budget_exhausted").is_some(),
            "A must stop on its budget: {a_result:?}"
        );
        // A frees its permit just before writing its reply, so C's
        // answer may beat A's to the client by a hair, never by more.
        assert!(
            c_answered + Duration::from_millis(50) >= a_answered,
            "C answered at {c_answered:?}, before A at {a_answered:?}"
        );
    });
    server.shutdown();
    server.join();
}

#[test]
fn deeply_nested_frame_is_a_bad_frame_not_a_crash() {
    let (server, addr) = start();
    // ~100 KB of `[`: far past the parser's nesting limit, far under
    // the frame cap.
    let body = "[".repeat(100_000);
    let mut stream = std::net::TcpStream::connect(addr.as_str()).unwrap();
    stream
        .write_all(&(body.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let reply = wire::read_frame(&mut stream)
        .unwrap()
        .expect("the daemon answers before hanging up");
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("bad_frame"),
        "{reply:?}"
    );

    let mut client = SvcClient::connect(addr.as_str()).unwrap();
    let health = client.call("health", Value::Null).unwrap();
    assert_eq!(health.get("ready").and_then(Value::as_bool), Some(true));
    client.call("shutdown", Value::Null).unwrap();
    server.join();
}

/// A frame holding one 1 MiB string and a frame holding a 100k-key
/// object are each answered within seconds, because decoding is linear
/// in the frame's size; afterwards the daemon is ready and still serves
/// a pinned query from its cache.
#[test]
fn huge_string_and_wide_object_frames_are_answered_promptly() {
    let (server, addr) = start();
    let mut client = SvcClient::connect(addr.as_str()).unwrap();
    client.call("check_horizon", check_params("s1", 2)).unwrap();

    let long = "x".repeat(1 << 20);
    let wide: Vec<String> = (0..100_000).map(|i| format!("\"k{i}\":{i}")).collect();
    let envelope = |id: u64, params: &str| {
        format!(
            "{{\"rpc\":\"{}\",\"id\":{id},\"method\":\"check_horizon\",\"params\":{params}}}",
            wire::RPC_VERSION
        )
    };
    let frames = [
        envelope(1, &format!("{{\"scheme\":\"{long}\",\"horizon\":2}}")),
        envelope(2, &format!("{{{}}}", wide.join(","))),
    ];
    let bound = Duration::from_secs(5);
    for (id, body) in (1u64..).zip(frames) {
        let mut stream = std::net::TcpStream::connect(addr.as_str()).unwrap();
        stream.set_read_timeout(Some(bound)).unwrap();
        let started = Instant::now();
        stream
            .write_all(&(body.len() as u32).to_be_bytes())
            .unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        let reply = wire::read_frame(&mut stream)
            .unwrap_or_else(|e| panic!("frame {id} unanswered after {:?}: {e}", started.elapsed()))
            .expect("the daemon answers before hanging up");
        let elapsed = started.elapsed();
        assert!(elapsed < bound, "frame {id} took {elapsed:?}");
        assert_eq!(
            reply.get("id").and_then(Value::as_u64),
            Some(id),
            "{reply:?}"
        );
    }

    let health = client.call("health", Value::Null).unwrap();
    assert_eq!(health.get("ready").and_then(Value::as_bool), Some(true));
    let pinned = client.call("check_horizon", check_params("s1", 2)).unwrap();
    assert_eq!(pinned.get("cached").and_then(Value::as_bool), Some(true));
    client.call("shutdown", Value::Null).unwrap();
    server.join();
}

/// Acceptance: repeated `check_horizon` on a warm cache is at least 10×
/// the cold throughput. Run explicitly (release mode recommended):
/// `cargo test --release --test svc_service -- --ignored`.
#[test]
#[ignore = "timing-sensitive acceptance check; run explicitly in release"]
fn warm_cache_is_ten_times_cold_throughput() {
    let (server, addr) = start();
    let mut client = SvcClient::connect(addr.as_str()).unwrap();
    // A horizon whose checker work dominates the cold round trip: s2@7
    // (unsolvable, a 17-link chain) costs milliseconds, where s2@4 costs
    // well under one and sits within 10× of a warm round trip.
    let params = check_params("s2", 7);

    let cold_start = Instant::now();
    let cold = client.call("check_horizon", params.clone()).unwrap();
    let cold_elapsed = cold_start.elapsed();
    assert_eq!(cold.get("cached").and_then(Value::as_bool), Some(false));

    const WARM_REPS: u32 = 50;
    let warm_start = Instant::now();
    for _ in 0..WARM_REPS {
        let warm = client.call("check_horizon", params.clone()).unwrap();
        assert_eq!(warm.get("cached").and_then(Value::as_bool), Some(true));
    }
    let warm_mean = warm_start.elapsed() / WARM_REPS;

    let speedup = cold_elapsed.as_secs_f64() / warm_mean.as_secs_f64().max(1e-9);
    client.call("shutdown", Value::Null).unwrap();
    server.join();
    assert!(
        speedup >= 10.0,
        "warm cache speedup only {speedup:.1}× (cold {cold_elapsed:?}, warm mean {warm_mean:?})"
    );
}

/// `first_horizon` runs one sweep and logs only the boundaries it found;
/// a repeated request is answered from them, as a subsumption when a
/// horizon below the unsolvable boundary is consulted and as a hit when
/// none is.
#[test]
fn first_horizon_logs_only_its_boundaries() {
    use minobs_obs::MetricsRegistry;
    use minobs_svc::methods::handle;
    use minobs_svc::wal::replay_bytes;
    use minobs_svc::wire::Request;
    use minobs_svc::VerdictCache;

    let dir = std::env::temp_dir().join(format!("minobs-first-horizon-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wal_path = dir.join("verdicts.wal");
    let _ = std::fs::remove_file(&wal_path);
    let server = serve(SvcConfig {
        wal_path: Some(wal_path.clone()),
        ..SvcConfig::default()
    })
    .expect("bind");
    let first_horizon = |scheme: &str| {
        let request = Request {
            id: 1,
            method: "first_horizon".to_string(),
            params: obj(&[
                ("scheme", Value::from(scheme)),
                ("max_horizon", Value::from(4u64)),
            ]),
            ctx: None,
        };
        let (result, disposition) = handle(server.state(), &request);
        (result.expect("first_horizon answers"), disposition)
    };

    let (cold, disposition) = first_horizon("s1");
    assert_eq!(
        cold.get("outcome").and_then(Value::as_str),
        Some("solvable")
    );
    assert_eq!(cold.get("horizon").and_then(Value::as_u64), Some(2));
    assert_eq!(disposition, "miss");
    let (warm, disposition) = first_horizon("s1");
    assert_eq!(warm, cold);
    // Horizon 0 lies below the unsolvable boundary at 1.
    assert_eq!(disposition, "subsumed");

    // S0 is solvable from horizon 1: its boundaries answer horizons 0
    // and 1 exactly.
    assert_eq!(first_horizon("s0").1, "miss");
    assert_eq!(first_horizon("s0").1, "hit");

    let mut client = SvcClient::connect(server.local_addr().to_string().as_str()).unwrap();
    client.call("shutdown", Value::Null).unwrap();
    server.join();
    // Two records per cold sweep, none per warm one; replayed, they
    // rebuild exactly the boundaries the sweeps found.
    let replayed = VerdictCache::new(&MetricsRegistry::new());
    let report = replay_bytes(
        &std::fs::read(&wal_path).expect("the log exists"),
        &replayed,
    );
    let _ = std::fs::remove_file(&wal_path);
    assert_eq!(report.records, 4);
    let bounds: Vec<(Option<usize>, Option<usize>)> = replayed
        .snapshot()
        .iter()
        .map(|(_, verdicts, _)| (verdicts.max_unsolvable(), verdicts.min_solvable()))
        .collect();
    assert_eq!(bounds, [(Some(0), Some(1)), (Some(1), Some(2))]);
}

/// Method names arrive off the network. The daemon records every method
/// it does not serve under one `unknown` label: were each name kept, a
/// few hundred long ones would pin megabytes of histograms for good and
/// grow `stats` and `metrics` past the frame limit.
#[test]
fn unknown_methods_share_one_label_and_leave_the_registry_bounded() {
    let (server, addr) = start();
    let mut client = SvcClient::connect(addr.as_str()).unwrap();
    for i in 0..300 {
        let method = format!("no_such_method_{i:03}_{}", "x".repeat(10_000));
        match client.call(&method, Value::Null) {
            Err(minobs_svc::SvcError::Rpc { code, message }) => {
                assert_eq!(code, "unknown_method");
                // The caller still hears the name it sent.
                assert!(message.contains(&method), "{}", &message[..80]);
            }
            other => panic!("unknown method answered {other:?}"),
        }
    }

    let snapshot = server.state().registry().snapshot();
    let methods: Vec<&str> = snapshot
        .get("histograms")
        .and_then(Value::as_object)
        .expect("the snapshot lists histograms")
        .iter()
        .map(|(name, _)| name.as_str())
        .filter(|name| name.starts_with("svc.method."))
        .collect();
    assert_eq!(methods, ["svc.method.unknown.latency_ns"]);

    let stats = client.call("stats", Value::Null).unwrap();
    assert!(stats
        .get("latency")
        .and_then(|l| l.get("unknown"))
        .is_some());
    let metrics = client.call("metrics", Value::Null).unwrap();
    let text = metrics.get("text").and_then(Value::as_str).unwrap();
    assert!(text.contains("svc_method_unknown_latency_ns_bucket"));
    assert!(!text.contains("no_such_method"));
    let dump = server.state().flight().dump("test").jsonl;
    assert!(dump.contains(r#""method":"unknown""#));
    assert!(dump.contains(r#""name":"rpc.unknown""#));
    assert!(!dump.contains("no_such_method"));

    client.call("shutdown", Value::Null).unwrap();
    server.join();
}

/// A reply too large for one frame is answered with a typed `internal`
/// error, and the telemetry counts the request as that error: the reply
/// is encoded before the outcome is recorded.
#[test]
fn oversized_reply_counts_as_an_error() {
    let (server, addr) = start();
    let state = server.state();
    // Seventeen 1 MiB counter names push `stats` past the 16 MiB limit.
    for i in 0..17 {
        state
            .registry()
            .counter(&format!("{i:02}{}", "n".repeat(1 << 20)));
    }
    let mut client = SvcClient::connect(addr.as_str()).unwrap();
    match client.call("stats", Value::Null) {
        Err(minobs_svc::SvcError::Rpc { code, message }) => {
            assert_eq!(code, "internal");
            assert!(
                message.contains("exceeds the 16777216-byte frame limit"),
                "{message}"
            );
        }
        other => panic!("an oversized stats reply answered {other:?}"),
    }

    let registry = state.registry();
    assert_eq!(registry.counter("svc.responses_ok").get(), 0);
    assert_eq!(registry.counter("svc.responses_err").get(), 1);
    let dump = state.flight().dump("test").jsonl;
    let response: Value = dump
        .lines()
        .map(|line| serde_json::from_str(line).unwrap())
        .find(|line| line.get("event").and_then(Value::as_str) == Some("svc_response"))
        .expect("the ring holds the response");
    assert_eq!(
        response.get("method").and_then(Value::as_str),
        Some("stats")
    );
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));

    client.call("shutdown", Value::Null).unwrap();
    server.join();
}
