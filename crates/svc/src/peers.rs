//! Per-peer gossip health and traffic accounting.
//!
//! Each daemon keeps one [`PeerTable`] covering its configured peers. The
//! gossip loop records every exchange outcome; the `stats` RPC and `svc top`
//! render [`PeerTable::to_json`]. A peer is considered down after
//! [`DOWN_AFTER`] consecutive failed rounds and alive again on the first
//! success — [`PeerTable::record_failure`] reports the edge so the caller
//! can emit a single `peer_down` trace event per outage rather than one per
//! failed round.

use serde_json::{Map, Value};
use std::time::Instant;

/// Consecutive failures after which a peer is reported down.
pub const DOWN_AFTER: u64 = 3;

/// A point-in-time view of one peer's health.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerStats {
    pub addr: String,
    /// `false` once `DOWN_AFTER` consecutive exchanges have failed.
    pub alive: bool,
    pub consecutive_failures: u64,
    /// Completed gossip exchanges.
    pub exchanges: u64,
    /// Deltas accepted from this peer, cumulative.
    pub deltas_in: u64,
    /// Deltas shipped to this peer, cumulative.
    pub deltas_out: u64,
    /// Mismatched shards observed in the most recent exchange.
    pub lag: u64,
    /// Milliseconds since the last successful exchange, when any.
    pub last_exchange_ms: Option<u64>,
}

#[derive(Debug)]
struct PeerEntry {
    addr: String,
    consecutive_failures: u64,
    exchanges: u64,
    deltas_in: u64,
    deltas_out: u64,
    lag: u64,
    last_success: Option<Instant>,
}

/// Health and traffic counters for every configured peer.
#[derive(Debug)]
pub struct PeerTable {
    peers: Vec<PeerEntry>,
}

impl PeerTable {
    /// A table over the configured peer addresses (order preserved). Empty
    /// in single-node mode — every accessor stays well-defined.
    pub fn new<S: AsRef<str>>(addrs: &[S]) -> PeerTable {
        PeerTable {
            peers: addrs
                .iter()
                .map(|addr| PeerEntry {
                    addr: addr.as_ref().to_string(),
                    consecutive_failures: 0,
                    exchanges: 0,
                    deltas_in: 0,
                    deltas_out: 0,
                    lag: 0,
                    last_success: None,
                })
                .collect(),
        }
    }

    fn entry_mut(&mut self, addr: &str) -> Option<&mut PeerEntry> {
        self.peers.iter_mut().find(|p| p.addr == addr)
    }

    /// Records a completed exchange with `addr`.
    pub fn record_success(&mut self, addr: &str, deltas_out: u64, deltas_in: u64, lag: u64) {
        if let Some(peer) = self.entry_mut(addr) {
            peer.consecutive_failures = 0;
            peer.exchanges += 1;
            peer.deltas_out += deltas_out;
            peer.deltas_in += deltas_in;
            peer.lag = lag;
            peer.last_success = Some(Instant::now());
        }
    }

    /// Records a failed exchange with `addr`. Returns `Some(failures)` only
    /// on the round that crosses [`DOWN_AFTER`] — the edge where the caller
    /// should emit a `peer_down` event.
    pub fn record_failure(&mut self, addr: &str) -> Option<u64> {
        let peer = self.entry_mut(addr)?;
        peer.consecutive_failures += 1;
        if peer.consecutive_failures == DOWN_AFTER {
            Some(peer.consecutive_failures)
        } else {
            None
        }
    }

    /// Number of configured peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Peers currently considered alive. A peer that has never been reached
    /// but has not yet failed `DOWN_AFTER` times counts as alive (startup
    /// grace, before the first round reaches it).
    pub fn alive(&self) -> usize {
        self.peers
            .iter()
            .filter(|p| p.consecutive_failures < DOWN_AFTER)
            .count()
    }

    /// The worst most-recent-exchange lag across peers.
    pub fn max_lag(&self) -> u64 {
        self.peers.iter().map(|p| p.lag).max().unwrap_or(0)
    }

    /// Snapshot of every peer, configuration order.
    pub fn snapshot(&self) -> Vec<PeerStats> {
        self.peers
            .iter()
            .map(|p| PeerStats {
                addr: p.addr.clone(),
                alive: p.consecutive_failures < DOWN_AFTER,
                consecutive_failures: p.consecutive_failures,
                exchanges: p.exchanges,
                deltas_in: p.deltas_in,
                deltas_out: p.deltas_out,
                lag: p.lag,
                last_exchange_ms: p
                    .last_success
                    .map(|at| at.elapsed().as_millis().min(u64::MAX as u128) as u64),
            })
            .collect()
    }

    /// The `peers` section of the `stats` RPC: summary counters plus one
    /// row per peer. Single-node daemons return `count: 0` and an empty
    /// `table` rather than omitting the section.
    pub fn to_json(&self) -> Value {
        let mut map = Map::new();
        map.insert("count", Value::from(self.len() as u64));
        map.insert("alive", Value::from(self.alive() as u64));
        map.insert("max_lag", Value::from(self.max_lag()));
        let rows = self
            .snapshot()
            .into_iter()
            .map(|p| {
                let mut row = Map::new();
                row.insert("addr", Value::from(p.addr));
                row.insert("alive", Value::from(p.alive));
                row.insert("failures", Value::from(p.consecutive_failures));
                row.insert("exchanges", Value::from(p.exchanges));
                row.insert("deltas_in", Value::from(p.deltas_in));
                row.insert("deltas_out", Value::from(p.deltas_out));
                row.insert("lag", Value::from(p.lag));
                row.insert(
                    "last_exchange_ms",
                    p.last_exchange_ms.map(Value::from).unwrap_or(Value::Null),
                );
                Value::Object(row)
            })
            .collect();
        map.insert("table", Value::Array(rows));
        Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_serialises_without_erroring() {
        let table = PeerTable::new(&Vec::<String>::new());
        assert!(table.is_empty());
        assert_eq!(table.alive(), 0);
        assert_eq!(table.max_lag(), 0);
        let json = table.to_json();
        assert_eq!(json.get("count").and_then(Value::as_u64), Some(0));
        assert_eq!(
            json.get("table")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(0)
        );
    }

    #[test]
    fn down_edge_fires_once_and_success_resets() {
        let mut table = PeerTable::new(&["a:1", "b:2"]);
        assert_eq!(table.record_failure("a:1"), None);
        assert_eq!(table.record_failure("a:1"), None);
        assert_eq!(table.record_failure("a:1"), Some(DOWN_AFTER));
        // Further failures stay silent: one event per outage.
        assert_eq!(table.record_failure("a:1"), None);
        assert_eq!(table.alive(), 1);

        table.record_success("a:1", 5, 2, 3);
        assert_eq!(table.alive(), 2);
        let stats = table.snapshot();
        assert!(stats[0].alive);
        assert_eq!(stats[0].deltas_out, 5);
        assert_eq!(stats[0].deltas_in, 2);
        assert_eq!(stats[0].lag, 3);
        assert!(stats[0].last_exchange_ms.is_some());
        assert_eq!(table.max_lag(), 3);

        // The down edge can fire again for the next outage.
        for _ in 0..DOWN_AFTER - 1 {
            assert_eq!(table.record_failure("a:1"), None);
        }
        assert_eq!(table.record_failure("a:1"), Some(DOWN_AFTER));
    }

    #[test]
    fn unknown_addresses_are_ignored() {
        let mut table = PeerTable::new(&["a:1"]);
        assert_eq!(table.record_failure("nope:9"), None);
        table.record_success("nope:9", 1, 1, 1);
        assert_eq!(table.snapshot()[0].exchanges, 0);
    }
}
