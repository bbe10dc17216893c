//! `minobs-svc`: a concurrent solvability-query service.
//!
//! A long-running TCP daemon ([`server::serve`]) answers solvability
//! queries over a length-prefixed JSON protocol ([`wire`]): Theorem
//! III.8 verdicts (`solvable`), bounded-horizon checks (`check_horizon`,
//! `first_horizon`), network solvability via Theorem V.1
//! (`net_solvable`), scripted simulations of `A_w` and flooding
//! consensus (`simulate`), plus `stats` and `shutdown`.
//!
//! The centerpiece is a sharded verdict cache ([`cache::VerdictCache`])
//! keyed on canonical scheme serializations ([`spec::ParsedScheme`])
//! with **monotone horizon subsumption**: a `Solvable` verdict at
//! horizon `k` answers every query at `k' ≥ k`, an `Unsolvable` verdict
//! at `k` answers every `k' ≤ k` (see `minobs_synth::cache` for the
//! proof sketch). Cache hits, misses, and subsumptions are counted in
//! the daemon's metrics registry and surfaced by `stats`; every request
//! emits `svc_request`/`svc_response` trace events through the standard
//! recorder pipeline.
//!
//! Daemons can form a replicated cluster: a background [`gossip`] loop
//! exchanges per-shard digests with configured peers and ships missing
//! verdicts as [`wal::WalRecord`] deltas (convergent because bounds only
//! tighten), tracking peer health in [`peers`]. Since any node can
//! answer any key, clients need no routing: a [`SvcClient`] talks to
//! one node and [`SvcClient::call_with`] retries its transient errors.
//! WAL replay, gossip ingest and the method handlers all admit
//! verdicts through [`VerdictCache::admit`]. See `docs/CLUSTER.md`.
//!
//! See `docs/SERVICE.md` for the wire format and method reference.

pub mod cache;
pub mod client;
pub mod gossip;
pub mod loadgen;
pub mod methods;
pub mod peers;
pub mod server;
pub mod spec;
pub mod wal;
pub mod wire;

pub use cache::VerdictCache;
pub use client::{RetryPolicy, SvcClient, SvcError};
pub use server::{serve, Limits, Server, ServerState, SvcConfig};
pub use spec::ParsedScheme;
