//! Replicated-cluster integration tests: three in-process daemons
//! gossiping verdicts, with and without seeded link faults.
//!
//! The convergence property asserted throughout is the semilattice one
//! the gossip protocol is built on (see `docs/CLUSTER.md`): after every
//! link fault heals, all live nodes hold *identical* verdict maps, every
//! replicated bound is a tightening of what a node already knew (never a
//! rewrite), and a key proven on one node is a cache hit on every other.
//!
//! The pinned-seed partition sweep (`partition_sweep_across_seeds`) is
//! `#[ignore]`d like the other long-haul suites; the CI `cluster` job
//! runs it with `-- --ignored`.

use minobs_bench::lint::lint;
use minobs_chaos::link::{LinkFault, LinkFaultPlan};
use minobs_obs::TraceContext;
use minobs_svc::client::{RetryPolicy, SvcClient};
use minobs_svc::gossip::{LinkPolicy, LinkVerdict};
use minobs_svc::server::{serve, Server, SvcConfig};
use serde_json::{Map, Value};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const NODES: usize = 3;
/// Fast cadence so a dozen rounds (enough to pass any sampled partition
/// window) fit in well under a second.
const GOSSIP_INTERVAL: Duration = Duration::from_millis(15);
const CONVERGE_DEADLINE: Duration = Duration::from_secs(30);

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

/// Boots `NODES` daemons sequentially; node `i` gossips with every node
/// booted before it, which covers all pairs directly for three nodes.
/// `plan` (when any) is adapted into each initiator's [`LinkPolicy`]
/// with node indices resolved through the boot-order address map.
fn boot_cluster(plan: Option<LinkFaultPlan>) -> Vec<Server> {
    let mut servers: Vec<Server> = Vec::with_capacity(NODES);
    let mut addrs: Vec<String> = Vec::with_capacity(NODES);
    for index in 0..NODES {
        let link_policy = plan.clone().map(|plan| {
            let addr_index: HashMap<String, usize> = addrs.iter().cloned().zip(0..).collect();
            LinkPolicy::new(move |round, peer| {
                let to = *addr_index.get(peer).expect("peers come from the boot list");
                match plan.verdict(round, index, to) {
                    LinkFault::Deliver => LinkVerdict::Deliver,
                    LinkFault::Drop => LinkVerdict::Drop,
                    LinkFault::Delay(ms) => LinkVerdict::Delay(Duration::from_millis(ms)),
                }
            })
        });
        let server = serve(SvcConfig {
            peers: addrs.clone(),
            gossip_interval: GOSSIP_INTERVAL,
            link_policy,
            ..SvcConfig::default()
        })
        .expect("bind an ephemeral port");
        addrs.push(server.local_addr().to_string());
        servers.push(server);
    }
    servers
}

fn shutdown(servers: Vec<Server>) {
    for server in &servers {
        server.shutdown();
    }
    for server in servers {
        server.join();
    }
}

/// Distinct warm state per node: different schemes, horizons on both
/// sides of solvability, plus a theorem memo — so convergence has to
/// move every record type in every direction.
fn warm_nodes(servers: &[Server]) {
    let seeds: [(&str, usize, bool); NODES] = [
        ("cluster:a|alpha2", 3, true),
        ("cluster:b|alpha2", 2, false),
        ("cluster:c|alpha2", 1, true),
    ];
    for (server, (key, k, solvable)) in servers.iter().zip(seeds) {
        server.state().record_horizon(key, k, solvable);
    }
    servers[0]
        .state()
        .record_horizon("cluster:a|alpha2", 1, false);
    servers[1]
        .state()
        .record_theorem("cluster:b|theorem", Value::from("memo-b"));
}

type Snapshot = Vec<(String, minobs_synth::cache::HorizonVerdicts, Option<Value>)>;

fn snapshots(servers: &[Server]) -> Vec<Snapshot> {
    servers
        .iter()
        .map(|server| server.state().cache().snapshot())
        .collect()
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let started = Instant::now();
    while started.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    done()
}

/// Asserts that `after` only refines `before`: every key survives and
/// both bounds are at least as tight — a replicated record may tighten a
/// bound but never rewrite or loosen one.
fn assert_tightening_only(context: &str, before: &Snapshot, after: &Snapshot) {
    for (key, verdicts, theorem) in before {
        let found = after
            .iter()
            .find(|(k, _, _)| k == key)
            .unwrap_or_else(|| panic!("{context}: key {key:?} vanished"));
        if let Some(old) = verdicts.min_solvable() {
            let new = found
                .1
                .min_solvable()
                .unwrap_or_else(|| panic!("{context}: {key:?} lost its solvable bound"));
            assert!(new <= old, "{context}: {key:?} solvable bound loosened");
        }
        if let Some(old) = verdicts.max_unsolvable() {
            let new = found
                .1
                .max_unsolvable()
                .unwrap_or_else(|| panic!("{context}: {key:?} lost its unsolvable bound"));
            assert!(new >= old, "{context}: {key:?} unsolvable bound loosened");
        }
        if let Some(memo) = theorem {
            assert_eq!(
                found.2.as_ref(),
                Some(memo),
                "{context}: {key:?} theorem memo changed"
            );
        }
    }
}

/// One full convergence trial under the faults of `plan` (or none).
/// Panics with `context` on any violated property.
fn converge_trial(context: &str, plan: Option<LinkFaultPlan>) {
    let servers = boot_cluster(plan);
    warm_nodes(&servers);
    let before = snapshots(&servers);

    let converged = wait_until(CONVERGE_DEADLINE, || {
        let snaps = snapshots(&servers);
        snaps.iter().all(|snap| *snap == snaps[0])
    });
    let after = snapshots(&servers);
    assert!(
        converged,
        "{context}: nodes failed to converge within {CONVERGE_DEADLINE:?}: sizes {:?}",
        after.iter().map(Vec::len).collect::<Vec<_>>()
    );
    assert!(
        after[0].len() >= 4,
        "{context}: converged map is missing seeded records: {after:?}"
    );
    for (index, snap) in before.iter().enumerate() {
        assert_tightening_only(context, snap, &after[index]);
    }
    shutdown(servers);
}

#[test]
fn three_nodes_converge_and_serve_each_others_verdicts() {
    let servers = boot_cluster(None);
    let addrs: Vec<String> = servers
        .iter()
        .map(|server| server.local_addr().to_string())
        .collect();

    // Prove a key on node 0 through the real RPC surface; any node
    // answers any key, so no routing is involved.
    let mut client = SvcClient::connect(addrs[0].as_str()).unwrap();
    let fresh = client.call("check_horizon", check_params("r1", 3)).unwrap();
    assert_eq!(fresh.get("cached").and_then(Value::as_bool), Some(false));

    // Every node must come to serve it from cache.
    // Wait on the node's *snapshot*, not on a check_horizon probe: a probe
    // would prove the verdict locally on its first miss, and the eventual
    // cache hit would say nothing about replication. With the snapshot
    // gate, gossip is the only way the entry can have arrived.
    for (server, addr) in servers.iter().zip(&addrs) {
        let replicated = wait_until(CONVERGE_DEADLINE, || {
            !server.state().cache().snapshot().is_empty()
        });
        assert!(
            replicated,
            "node {addr} never received the verdict via gossip"
        );
        let mut client = SvcClient::connect(addr.as_str()).unwrap();
        let check = client.call("check_horizon", check_params("r1", 3)).unwrap();
        assert_eq!(
            check.get("cached").and_then(Value::as_bool),
            Some(true),
            "node {addr} should serve the replicated verdict from cache"
        );
        // Subsumption works on replicated bounds too (unsolvable@3 ⇒ @2).
        let mut client = SvcClient::connect(addr.as_str()).unwrap();
        let lower = client.call("check_horizon", check_params("r1", 2)).unwrap();
        assert_eq!(lower.get("solvable").and_then(Value::as_bool), Some(false));
        assert_eq!(lower.get("cached").and_then(Value::as_bool), Some(true));
    }

    // Peer tables surface in stats on every gossiping node.
    for (index, addr) in addrs.iter().enumerate().skip(1) {
        let mut client = SvcClient::connect(addr.as_str()).unwrap();
        let stats = client.call("stats", Value::Null).unwrap();
        let peers = stats.get("peers").expect("stats carries a peers section");
        assert_eq!(
            peers.get("count").and_then(Value::as_u64),
            Some(index as u64)
        );
        assert_eq!(
            peers.get("alive").and_then(Value::as_u64),
            Some(index as u64)
        );
    }

    shutdown(servers);
}

#[test]
fn single_node_stats_report_an_empty_peer_table() {
    let server = serve(SvcConfig::default()).unwrap();
    let mut client = SvcClient::connect(server.local_addr().to_string().as_str()).unwrap();
    let stats = client.call("stats", Value::Null).unwrap();
    let peers = stats
        .get("peers")
        .expect("peers present in single-node mode");
    assert_eq!(peers.get("count").and_then(Value::as_u64), Some(0));
    assert_eq!(peers.get("max_lag").and_then(Value::as_u64), Some(0));
    assert_eq!(
        peers
            .get("table")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(0)
    );
    server.shutdown();
    server.join();
}

/// End-to-end distributed tracing: one traced client request against a
/// gossiping node must leave a single trace_id threaded across at least
/// two nodes' trace files with a correct parent chain — the client's
/// root context parents the serving node's `rpc.check_horizon` span,
/// the replication `gossip.exchange` is ctx-parented on that rpc root,
/// and the receiving node's `rpc.gossip` span is ctx-parented on the
/// exchange. This is the fixture `trace stitch` reassembles.
#[test]
fn traced_request_threads_one_trace_id_across_nodes() {
    let run = std::process::id();
    let trace_paths: Vec<std::path::PathBuf> = (0..NODES)
        .map(|i| std::env::temp_dir().join(format!("minobs-e2e-trace-{run}-{i}.jsonl")))
        .collect();
    let mut servers: Vec<Server> = Vec::with_capacity(NODES);
    let mut addrs: Vec<String> = Vec::with_capacity(NODES);
    for (index, trace_path) in trace_paths.iter().enumerate() {
        let server = serve(SvcConfig {
            peers: addrs.clone(),
            gossip_interval: GOSSIP_INTERVAL,
            trace_path: Some(trace_path.clone()),
            node_id: Some(format!("node{index}")),
            ..SvcConfig::default()
        })
        .expect("bind an ephemeral port");
        addrs.push(server.local_addr().to_string());
        servers.push(server);
    }

    // Target the last node: it is the only one gossiping to both
    // others, so its miss is guaranteed to trigger a ctx-carrying
    // exchange. `SvcClient::call` mints the root trace context.
    let mut client = SvcClient::connect(addrs[NODES - 1].as_str()).unwrap();
    let fresh = client.call("check_horizon", check_params("r1", 3)).unwrap();
    assert_eq!(fresh.get("cached").and_then(Value::as_bool), Some(false));

    // Full replication implies the serving node completed exchanges
    // with every peer — including the one that carried the stashed ctx.
    let replicated = wait_until(CONVERGE_DEADLINE, || {
        servers
            .iter()
            .all(|server| !server.state().cache().snapshot().is_empty())
    });
    assert!(replicated, "verdict never replicated to every node");
    // Shutdown flushes every node's buffered trace sink.
    shutdown(servers);

    // (node_id, span event) for every span_start across all files.
    let mut spans: Vec<(String, Value)> = Vec::new();
    for path in &trace_paths {
        let text = std::fs::read_to_string(path).expect("trace file written");
        for line in text.lines() {
            let value: Value = serde_json::from_str(line).expect("valid JSONL");
            let node = value
                .get("node_id")
                .and_then(Value::as_str)
                .expect("every daemon line is node-stamped")
                .to_string();
            if value.get("event").and_then(Value::as_str) == Some("span_start") {
                spans.push((node, value));
            }
        }
        let _ = std::fs::remove_file(path);
    }
    let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64);
    let trace_of = |v: &Value| {
        v.get("trace_id")
            .and_then(Value::as_str)
            .map(str::to_string)
    };

    // The client's request root: rpc.check_horizon on the serving node,
    // stamped with the client's trace but with no remote parent (the
    // client is the trace root and writes no file).
    let (rpc_node, rpc) = spans
        .iter()
        .find(|(node, v)| {
            node == "node2" && v.get("name").and_then(Value::as_str) == Some("rpc.check_horizon")
        })
        .expect("serving node recorded the rpc span");
    let trace = trace_of(rpc).expect("rpc root carries the client's trace_id");
    assert!(rpc.get("ctx_parent").is_none());
    let rpc_span = field(rpc, "span_id").unwrap();

    // The replication exchange on the same node, parented on the rpc root.
    let (_, exchange) = spans
        .iter()
        .find(|(node, v)| {
            node == rpc_node
                && v.get("name").and_then(Value::as_str) == Some("gossip.exchange")
                && trace_of(v).as_deref() == Some(trace.as_str())
        })
        .expect("serving node recorded a ctx-carrying gossip exchange");
    assert_eq!(field(exchange, "ctx_parent"), Some(rpc_span));
    let exchange_span = field(exchange, "span_id").unwrap();

    // The receiving side: an rpc.gossip span on a *different* node,
    // same trace, parented on the exchange span.
    let (gossip_node, gossip) = spans
        .iter()
        .find(|(node, v)| {
            node != rpc_node
                && v.get("name").and_then(Value::as_str) == Some("rpc.gossip")
                && trace_of(v).as_deref() == Some(trace.as_str())
        })
        .expect("a peer recorded the ctx-carrying rpc.gossip span");
    assert_eq!(field(gossip, "ctx_parent"), Some(exchange_span));
    assert_ne!(gossip_node, rpc_node, "the trace must cross nodes");
}

/// The post-hoc incident path end to end: boot a three-node fleet,
/// issue one traced request, then pull every node's flight ring through
/// the `dump_trace` RPC. Each dump must be a lint-clean
/// `minobs/trace/v1` stream, the request's trace id must appear in at
/// least two nodes' dumps (the serving node's rpc root plus a peer's
/// ctx-carrying replication hop — the fixture `trace stitch`
/// reassembles), and the same id must surface as an exemplar in the
/// serving node's Prometheus exposition.
#[test]
fn fleet_dump_trace_reassembles_a_cross_node_trace() {
    let mut servers: Vec<Server> = Vec::with_capacity(NODES);
    let mut addrs: Vec<String> = Vec::with_capacity(NODES);
    for index in 0..NODES {
        let server = serve(SvcConfig {
            peers: addrs.clone(),
            gossip_interval: GOSSIP_INTERVAL,
            node_id: Some(format!("node{index}")),
            ..SvcConfig::default()
        })
        .expect("bind an ephemeral port");
        addrs.push(server.local_addr().to_string());
        servers.push(server);
    }

    // Mint the root context by hand so the test knows which trace id to
    // hunt for in the dumps, and target the last node: it gossips to
    // both peers, so its miss triggers ctx-carrying exchanges.
    let ctx = TraceContext::root();
    let hex = ctx.trace_id_hex();
    let mut client = SvcClient::connect(addrs[NODES - 1].as_str()).unwrap();
    let fresh = client
        .call_with(
            "check_horizon",
            check_params("r1", 3),
            &RetryPolicy {
                budget: 0,
                ..RetryPolicy::default()
            },
            &ctx,
        )
        .unwrap();
    assert_eq!(fresh.get("cached").and_then(Value::as_bool), Some(false));

    // Full replication implies the serving node completed the exchanges
    // that carried the stashed ctx to its peers.
    let replicated = wait_until(CONVERGE_DEADLINE, || {
        servers
            .iter()
            .all(|server| !server.state().cache().snapshot().is_empty())
    });
    assert!(replicated, "verdict never replicated to every node");

    // Pull every node's flight ring over the wire — the same surface
    // `svc dump --all` drives.
    let mut dumps: Vec<(String, String)> = Vec::new();
    for addr in &addrs {
        let mut client = SvcClient::connect(addr.as_str()).unwrap();
        let dump = client.call("dump_trace", Value::Null).unwrap();
        let node = dump
            .get("node_id")
            .and_then(Value::as_str)
            .expect("dump_trace reports its node identity")
            .to_string();
        let jsonl = dump
            .get("jsonl")
            .and_then(Value::as_str)
            .expect("dump_trace inlines the JSONL stream")
            .to_string();
        dumps.push((node, jsonl));
    }

    // Every per-node dump stands alone as a valid trace stream.
    for (node, jsonl) in &dumps {
        lint(jsonl).unwrap_or_else(|err| panic!("{node} dump fails trace_lint: {err}"));
    }

    // The kept request's id crosses node boundaries: the serving node
    // recorded the rpc root and at least one *other* node recorded the
    // replicated hop under the same trace.
    let carriers: Vec<&str> = dumps
        .iter()
        .filter(|(_, jsonl)| jsonl.contains(hex.as_str()))
        .map(|(node, _)| node.as_str())
        .collect();
    assert!(
        carriers.contains(&format!("node{}", NODES - 1).as_str()),
        "serving node's dump lost the kept request (carriers: {carriers:?})"
    );
    assert!(
        carriers.len() >= 2,
        "trace {hex} should appear in >= 2 nodes' dumps, found {carriers:?}"
    );

    // The same id is the request's exemplar in the serving node's
    // Prometheus exposition (per-method histogram, so later dump_trace
    // calls cannot displace it).
    let mut client = SvcClient::connect(addrs[NODES - 1].as_str()).unwrap();
    let metrics = client.call("metrics", Value::Null).unwrap();
    let text = metrics
        .get("text")
        .and_then(Value::as_str)
        .expect("metrics RPC inlines the exposition");
    assert!(
        text.contains(&format!("trace_id=\"{hex}\"")),
        "serving node's exposition lacks the request's exemplar"
    );

    shutdown(servers);
}

/// The tier-1 pinned-seed chaos check: one sampled partition plan,
/// convergence after heal, tightening-only replication.
#[test]
fn convergence_survives_a_pinned_seed_partition() {
    let plan = LinkFaultPlan::sample(0xC0FFEE, NODES);
    converge_trial("seed 0xC0FFEE", Some(plan));
}

/// The full sweep the CI `cluster` job runs: 32 pinned seeds, each a
/// different partition window, split, and noise schedule.
#[test]
#[ignore = "long-haul sweep; run explicitly with -- --ignored (CI cluster job)"]
fn partition_sweep_across_seeds() {
    for seed in 0..32u64 {
        let plan = LinkFaultPlan::sample(seed, NODES);
        converge_trial(&format!("sweep seed {seed} ({plan:?})"), Some(plan));
    }
}
