//! A cluster-aware client: consistent-hash routing with ring failover.
//!
//! A [`ClusterClient`] holds one lazily-dialed [`SvcClient`] per cluster
//! node and routes each call by the canonical cache key: the ring owner
//! gets the request first, and on a *transient* failure (transport error
//! or `busy`, after the per-node retry budget) the call fails over to the
//! next node walking the ring — any replica can answer any key, routing
//! is purely an affinity optimisation that keeps a key's cache hot on
//! one node. Definitive RPC errors are returned immediately; they would
//! fail identically everywhere.
//!
//! Membership changes go through [`ClusterClient::add_node`] /
//! [`ClusterClient::remove_node`]; consistent hashing bounds the fallout
//! to ~`1/N` of keys remapping (see [`crate::ring`]).

use crate::client::{RetryPolicy, SvcClient, SvcError};
use crate::ring::HashRing;
use minobs_obs::TraceContext;
use serde_json::Value;
use std::collections::HashMap;
use std::io;
use std::time::Duration;

/// A client routing over every node of a verdict-cache cluster.
pub struct ClusterClient {
    ring: HashRing,
    policy: RetryPolicy,
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
    clients: HashMap<String, SvcClient>,
}

impl ClusterClient {
    /// A client over `nodes` with the default retry policy and a 1s/5s
    /// connect/read timeout. Performs no I/O; connections are dialed on
    /// first use per node.
    pub fn new<S: AsRef<str>>(nodes: &[S]) -> ClusterClient {
        ClusterClient::with_policy(nodes, RetryPolicy::default())
    }

    /// A client with an explicit per-node retry policy. `budget: 0`
    /// fails over to the next ring node on the first transient error.
    pub fn with_policy<S: AsRef<str>>(nodes: &[S], policy: RetryPolicy) -> ClusterClient {
        ClusterClient {
            ring: HashRing::new(nodes),
            policy,
            connect_timeout: Some(Duration::from_secs(1)),
            read_timeout: Some(Duration::from_secs(5)),
            clients: HashMap::new(),
        }
    }

    /// Overrides the dial/read timeouts applied to every per-node
    /// connection (`None` blocks forever). Takes effect on the next dial.
    pub fn set_timeouts(&mut self, connect: Option<Duration>, read: Option<Duration>) {
        self.connect_timeout = connect;
        self.read_timeout = read;
        self.clients.clear();
    }

    /// The routing ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Adds a node to the ring (no-op if present).
    pub fn add_node(&mut self, node: &str) {
        self.ring.add(node);
    }

    /// Removes a node from the ring and drops its connection.
    pub fn remove_node(&mut self, node: &str) {
        self.ring.remove(node);
        self.clients.remove(node);
    }

    /// Calls `method` on the node owning `key`, failing over along the
    /// ring on transient errors. Returns the last transient error when
    /// every node fails, or the first definitive error encountered.
    ///
    /// One root [`TraceContext`] is minted per *logical* call: every
    /// retry on a node and every failover hop re-sends the same
    /// `trace_id`, so a request that bounced across the ring still
    /// stitches into one trace.
    pub fn call(&mut self, key: &str, method: &str, params: Value) -> Result<Value, SvcError> {
        let ctx = TraceContext::root();
        let route: Vec<String> = self
            .ring
            .route(key)
            .into_iter()
            .map(str::to_string)
            .collect();
        if route.is_empty() {
            return Err(SvcError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                "cluster has no nodes",
            )));
        }
        let mut last: Option<SvcError> = None;
        for node in route {
            if !self.clients.contains_key(&node) {
                match SvcClient::connect_with_timeout(node.as_str(), self.connect_timeout) {
                    Ok(mut client) => {
                        if let Err(e) = client.set_timeout(self.read_timeout) {
                            last = Some(e);
                            continue;
                        }
                        self.clients.insert(node.clone(), client);
                    }
                    Err(e) => {
                        last = Some(e);
                        continue;
                    }
                }
            }
            let client = self.clients.get_mut(&node).expect("just ensured");
            match client.call_with_retry_ctx(method, params.clone(), &self.policy, &ctx) {
                Ok(value) => return Ok(value),
                Err(e) if e.is_retryable() => {
                    // This node is unreachable or saturated; drop the
                    // connection and walk to the next ring node.
                    self.clients.remove(&node);
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("non-empty route records an error before falling through"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{err_response, ok_response, read_frame, write_frame};
    use std::net::TcpListener;
    use std::thread;

    /// A fake node that answers its first `count` requests with `busy`
    /// frames (id 0, like the real acceptor at its cap) and everything
    /// after properly, tagging results with `name`.
    fn busy_then_ok(listener: TcpListener, busy_count: usize, name: &'static str) {
        thread::spawn(move || {
            let mut served = 0usize;
            loop {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                if served < busy_count {
                    served += 1;
                    let mut writer = &stream;
                    let _ = write_frame(&mut writer, &err_response(0, "busy", "at capacity"));
                    continue;
                }
                let mut reader = &stream;
                while let Ok(Some(request)) = read_frame(&mut reader) {
                    let id = request.get("id").and_then(Value::as_u64).unwrap_or(0);
                    let mut writer = &stream;
                    if write_frame(&mut writer, &ok_response(id, Value::from(name))).is_err() {
                        break;
                    }
                }
            }
        });
    }

    /// Satellite: deterministic failover — the key's owning node answers
    /// `busy`, the client walks the ring and the next node serves.
    #[test]
    fn busy_owner_fails_over_to_the_next_ring_node() {
        let listener_a = TcpListener::bind("127.0.0.1:0").unwrap();
        let listener_b = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr_a = listener_a.local_addr().unwrap().to_string();
        let addr_b = listener_b.local_addr().unwrap().to_string();

        // Both nodes permanently busy-reject first, then serve; with a
        // zero retry budget the first transient error fails over.
        busy_then_ok(listener_a, usize::MAX, "a");
        busy_then_ok(listener_b, 0, "b");

        let policy = RetryPolicy {
            budget: 0,
            ..RetryPolicy::default()
        };
        let mut client = ClusterClient::with_policy(&[addr_a.clone(), addr_b.clone()], policy);

        // Pick a key that node a owns, so the test exercises failover
        // deterministically rather than by luck.
        let key = (0..)
            .map(|i| format!("scheme|{i}"))
            .find(|k| client.ring().owner(k) == Some(addr_a.as_str()))
            .unwrap();
        let value = client.call(&key, "stats", Value::Null).unwrap();
        assert_eq!(value, Value::from("b"), "the healthy node must answer");
    }

    /// Satellite: retry/failover keeps one `trace_id`. Node a reads the
    /// request (capturing its ctx) then hangs up — a transport error,
    /// so the client fails over — and node b captures the ctx of the
    /// hop that reaches it. Both hops must carry the same trace id.
    #[test]
    fn failover_hops_reuse_the_same_trace_id() {
        let listener_a = TcpListener::bind("127.0.0.1:0").unwrap();
        let listener_b = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr_a = listener_a.local_addr().unwrap().to_string();
        let addr_b = listener_b.local_addr().unwrap().to_string();
        let (tx, rx) = std::sync::mpsc::channel::<String>();

        let capture_ctx = |request: &Value| {
            request
                .get("ctx")
                .and_then(|ctx| ctx.get("trace_id"))
                .and_then(Value::as_str)
                .expect("every hop carries a ctx")
                .to_string()
        };
        let tx_a = tx.clone();
        thread::spawn(move || {
            // Read the frame, report its trace id, drop the connection
            // without answering: an Io error on the client side.
            let (stream, _) = listener_a.accept().unwrap();
            let mut reader = &stream;
            let request = read_frame(&mut reader).unwrap().unwrap();
            tx_a.send(capture_ctx(&request)).unwrap();
        });
        thread::spawn(move || {
            let (stream, _) = listener_b.accept().unwrap();
            let mut reader = &stream;
            let request = read_frame(&mut reader).unwrap().unwrap();
            tx.send(capture_ctx(&request)).unwrap();
            let id = request.get("id").and_then(Value::as_u64).unwrap();
            let mut writer = &stream;
            write_frame(&mut writer, &ok_response(id, Value::from("b"))).unwrap();
        });

        let policy = RetryPolicy {
            budget: 0,
            ..RetryPolicy::default()
        };
        let mut client = ClusterClient::with_policy(&[addr_a.clone(), addr_b], policy);
        let key = (0..)
            .map(|i| format!("scheme|{i}"))
            .find(|k| client.ring().owner(k) == Some(addr_a.as_str()))
            .unwrap();
        let value = client.call(&key, "stats", Value::Null).unwrap();
        assert_eq!(value, Value::from("b"));

        let first = rx.recv().unwrap();
        let second = rx.recv().unwrap();
        assert_eq!(first.len(), 32, "trace id is 32 hex digits");
        assert_eq!(
            first, second,
            "failover must re-send the same trace_id, not mint a new root"
        );
    }

    #[test]
    fn definitive_errors_do_not_fail_over() {
        let listener_a = TcpListener::bind("127.0.0.1:0").unwrap();
        let listener_b = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr_a = listener_a.local_addr().unwrap().to_string();
        let addr_b = listener_b.local_addr().unwrap().to_string();
        let owner_answers_bad_params = |listener: TcpListener| {
            thread::spawn(move || {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                let mut reader = &stream;
                if let Ok(Some(request)) = read_frame(&mut reader) {
                    let id = request.get("id").and_then(Value::as_u64).unwrap_or(0);
                    let mut writer = &stream;
                    let _ = write_frame(&mut writer, &err_response(id, "bad_params", "nope"));
                }
            })
        };
        owner_answers_bad_params(listener_a);
        owner_answers_bad_params(listener_b);

        let mut client = ClusterClient::new(&[addr_a, addr_b]);
        match client.call("any|key", "stats", Value::Null) {
            Err(SvcError::Rpc { code, .. }) => assert_eq!(code, "bad_params"),
            other => panic!("expected the rpc error straight back, got {other:?}"),
        }
    }

    #[test]
    fn empty_cluster_errors_without_dialing() {
        let mut client = ClusterClient::new(&Vec::<String>::new());
        match client.call("k", "stats", Value::Null) {
            Err(SvcError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::NotConnected),
            other => panic!("expected a not-connected error, got {other:?}"),
        }
    }

    #[test]
    fn membership_changes_drop_connections_and_remap() {
        let mut client = ClusterClient::new(&["a:1", "b:2", "c:3"]);
        assert_eq!(client.ring().len(), 3);
        client.remove_node("b:2");
        assert_eq!(client.ring().len(), 2);
        assert!(client
            .ring()
            .route("some|key")
            .iter()
            .all(|node| *node != "b:2"));
        client.add_node("b:2");
        assert_eq!(client.ring().len(), 3);
    }
}
