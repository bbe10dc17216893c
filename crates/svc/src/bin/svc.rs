//! Client CLI for the solvability-query daemon.
//!
//! ```text
//! svc call <method> [params-json] [--addr HOST:PORT]
//! svc bench [--addr HOST:PORT] [--threads N] [--requests M]
//!           [--method NAME] [--params JSON]
//! svc bench --open-loop --freq N [--duration S] [--threads N]
//!           [--mix solvable=8,check_horizon=1] [--inflight-cap N]
//!           [--tick S] [--out PATH] [--id NAME]
//! svc bench --sweep lo:hi:steps [--duration S] [--p99-bound-ms X]
//!           [--expect-knee] [...open-loop flags]
//! svc top [--addr HOST:PORT] [--interval SECS] [--iterations N]
//!         [--no-clear] [--cluster]
//! svc metrics [--addr HOST:PORT] [--all]
//! svc dump [--addr HOST:PORT] [--all] [--out DIR]
//! ```
//!
//! The address defaults to `MINOBS_SVC_ADDR`. `bench` has two modes with
//! identical latency semantics (both pool observations into
//! `minobs_obs::Histogram`):
//!
//! * **closed-loop** (default): each thread issues its requests back to
//!   back, waiting for every response. Simple, but the driver slows down
//!   with the daemon, so queueing delay is hidden (coordinated
//!   omission). The very first request is reported separately as the
//!   cold-cache latency.
//! * **open-loop** (`--open-loop` / `--sweep`): requests are issued on a
//!   fixed virtual-deadline schedule that never waits for responses, and
//!   latency is measured from the send *deadline* — see
//!   `docs/BENCHMARKING.md`.
//!
//! Every bench run emits a `minobs/bench/v1` artifact (via
//! `minobs-bench`), and `--sweep` additionally locates the saturation
//! knee: the first frequency where achieved throughput falls below 90%
//! of offered, or p99 exceeds `--p99-bound-ms`.
//!
//! `top` polls `stats` and renders a live view: request rate, queued
//! backlog, cache hit ratio, and per-method latency percentiles. With
//! `--cluster` it discovers the fleet through the seed's `stats.peers`
//! table and renders one row per node plus a fleet-aggregate row
//! (latency quantiles merged bucket-by-bucket across nodes).
//!
//! `metrics` prints a daemon's Prometheus exposition; `--all` walks the
//! discovered fleet and prints every node's, separated by `# ---- node`
//! comment lines.
//!
//! `dump` fetches a daemon's flight-recorder snapshot (`dump_trace`) as
//! `minobs/trace/v1` JSONL; `--all` walks the discovered fleet and
//! `--out DIR` writes one `<node>.trace.jsonl` per node — ready for
//! `trace stitch` to reassemble a cross-node incident trace.

use minobs_obs::Histogram;
use minobs_svc::client::{RetryPolicy, SvcClient, SvcError};
use minobs_svc::loadgen::{
    find_knee, parse_mix, run_open_loop, KneeCriteria, MixEntry, OpenLoopConfig, OpenLoopSummary,
    SweepSpec, TrialPoint,
};
use serde_json::{Map, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  svc call <method> [params-json] [--addr HOST:PORT] [--timeout S] [--connect-timeout S] [--retries N]\n  svc bench [--addr HOST:PORT] [--threads N] [--requests M] [--method NAME] [--params JSON]\n  svc bench --open-loop --freq N [--duration S] [--threads N] [--mix m1=w1,m2=w2] [--inflight-cap N] [--tick S] [--out PATH] [--id NAME]\n  svc bench --sweep lo:hi:steps [--duration S] [--p99-bound-ms X] [--expect-knee] [open-loop flags]\n  svc top [--addr HOST:PORT] [--interval SECS] [--iterations N] [--no-clear] [--cluster]\n  svc metrics [--addr HOST:PORT] [--all]\n  svc dump [--addr HOST:PORT] [--all] [--out DIR]"
    );
    ExitCode::FAILURE
}

fn env_addr() -> Option<String> {
    std::env::var("MINOBS_SVC_ADDR")
        .ok()
        .filter(|a| !a.trim().is_empty())
        .map(|a| a.trim().to_string())
}

fn main() -> ExitCode {
    let args = minobs_bench::cli::handle_common_flags(
        "svc",
        "client and load generator for the solvability-query daemon",
        "svc call stats | svc bench --open-loop --freq 200 --duration 5",
    );
    match args.first().map(String::as_str) {
        Some("call") => call(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("top") => top(&args[1..]),
        Some("metrics") => metrics_cmd(&args[1..]),
        Some("dump") => dump_cmd(&args[1..]),
        _ => usage(),
    }
}

fn call(args: &[String]) -> ExitCode {
    let mut addr = env_addr();
    let mut method = None;
    let mut params = Value::Null;
    // Bounded by default: a hung or unreachable daemon fails the call
    // instead of hanging the shell. `--timeout 0` restores block-forever.
    let mut timeout_s = 30.0f64;
    let mut connect_timeout_s = 5.0f64;
    let mut retries = 0u32;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = Some(a.clone()),
                None => return usage(),
            },
            "--timeout" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(s) if s >= 0.0 && s.is_finite() => timeout_s = s,
                _ => return usage(),
            },
            "--connect-timeout" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(s) if s >= 0.0 && s.is_finite() => connect_timeout_s = s,
                _ => return usage(),
            },
            "--retries" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => retries = n,
                None => return usage(),
            },
            text if method.is_none() => method = Some(text.to_string()),
            text => match serde_json::from_str(text) {
                Ok(value) => params = value,
                Err(err) => {
                    eprintln!("svc call: params are not JSON: {err:?}");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    let Some(method) = method else {
        return usage();
    };
    let Some(addr) = addr else {
        eprintln!("svc call: no address (pass --addr or set MINOBS_SVC_ADDR)");
        return ExitCode::FAILURE;
    };
    let connect_timeout = (connect_timeout_s > 0.0).then(|| Duration::from_secs_f64(connect_timeout_s));
    let mut client = match SvcClient::connect_with_timeout(addr.as_str(), connect_timeout) {
        Ok(client) => client,
        Err(err) => {
            eprintln!("svc call: cannot connect to {addr}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let timeout = (timeout_s > 0.0).then(|| Duration::from_secs_f64(timeout_s));
    if let Err(err) = client.set_timeout(timeout) {
        eprintln!("svc call: cannot set timeout: {err}");
        return ExitCode::FAILURE;
    }
    let policy = RetryPolicy {
        budget: retries,
        ..RetryPolicy::default()
    };
    match client.call_with_retry(&method, params, &policy) {
        Ok(result) => {
            let text = serde_json::to_string_pretty(&result)
                .unwrap_or_else(|err| format!("<unprintable result: {err:?}>"));
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("svc call: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Default params for every method the bench mixes know how to call.
/// Pinned values so runs stay comparable across sessions.
fn default_params(method: &str) -> Option<Value> {
    let text = match method {
        "solvable" => r#"{"scheme":"s1"}"#,
        "check_horizon" => r#"{"scheme":"s1","horizon":6}"#,
        "first_horizon" => r#"{"scheme":"s1","max_horizon":4}"#,
        "net_solvable" => r#"{"graph":"petersen","f":2}"#,
        "stats" => "null",
        _ => return None,
    };
    serde_json::from_str(text).ok()
}

/// Turns a `--mix` spec into full entries, rejecting methods the bench
/// has no pinned params for.
fn build_mix(spec: &str) -> Result<Vec<MixEntry>, String> {
    parse_mix(spec)?
        .into_iter()
        .map(|(method, weight)| {
            let params = default_params(&method)
                .ok_or_else(|| format!("mix method {method:?} has no pinned bench params"))?;
            Ok(MixEntry {
                method,
                params,
                weight,
            })
        })
        .collect()
}

/// Serialises a latency histogram into the `minobs/bench/v1`
/// `latency_ns` block. Quantiles are clamped to the exact observed
/// maximum: bucket interpolation can overestimate inside the top
/// occupied bucket, and the schema requires `p99 <= max`.
fn latency_block(latency: &Histogram, max_ns: u64) -> Value {
    let q = |q: f64| {
        latency
            .quantile(q)
            .map(|v| v.min(max_ns as f64))
            .unwrap_or(0.0)
    };
    let mut block = Map::new();
    block.insert("count", Value::from(latency.count()));
    block.insert("p50", Value::from(q(0.50)));
    block.insert("p95", Value::from(q(0.95)));
    block.insert("p99", Value::from(q(0.99)));
    block.insert("max", Value::from(max_ns as f64));
    Value::Object(block)
}

fn print_latency(label: &str, latency: &Histogram, max_ns: u64) {
    let q = |q: f64| {
        latency
            .quantile(q)
            .map(|v| v.min(max_ns as f64) / 1_000.0)
            .unwrap_or(0.0)
    };
    println!(
        "  {label} latency µs: p50 {:.1} p95 {:.1} p99 {:.1} max {:.1}",
        q(0.50),
        q(0.95),
        q(0.99),
        max_ns as f64 / 1_000.0
    );
}

fn counter(stats: &Value, name: &str) -> u64 {
    stats
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// `(hits + subsumed) / lookups`, or `Null` before any cache traffic.
fn cache_hit_ratio(stats: &Value) -> Value {
    let hits = counter(stats, "svc.cache_hits");
    let misses = counter(stats, "svc.cache_misses");
    let subsumed = counter(stats, "svc.cache_subsumptions");
    let lookups = hits + misses + subsumed;
    if lookups == 0 {
        Value::Null
    } else {
        Value::from((hits + subsumed) as f64 / lookups as f64)
    }
}

fn fetch_stats(addr: &str) -> Option<Value> {
    SvcClient::connect_with_timeout(addr, Some(Duration::from_secs(5)))
        .and_then(|mut c| {
            c.set_timeout(Some(Duration::from_secs(30)))?;
            c.call("stats", Value::Null)
        })
        .map_err(|err| eprintln!("svc bench: stats snapshot failed: {err}"))
        .ok()
}

struct BenchOpts {
    addr: String,
    threads: usize,
    requests: usize,
    method: String,
    params_text: String,
    open_loop: bool,
    freq: Option<f64>,
    duration_s: f64,
    mix_spec: String,
    inflight_cap: usize,
    tick_s: f64,
    sweep: Option<SweepSpec>,
    p99_bound_ms: Option<f64>,
    expect_knee: bool,
    out: Option<PathBuf>,
    id: String,
}

fn bench(args: &[String]) -> ExitCode {
    let mut opts = BenchOpts {
        addr: String::new(),
        threads: 2,
        requests: 50,
        method: "check_horizon".to_string(),
        params_text: r#"{"scheme":"s1","horizon":6}"#.to_string(),
        open_loop: false,
        freq: None,
        duration_s: 5.0,
        mix_spec: "solvable=8,check_horizon=1,net_solvable=1".to_string(),
        inflight_cap: 64,
        tick_s: 1.0,
        sweep: None,
        p99_bound_ms: None,
        expect_knee: false,
        out: None,
        id: "bench_svc".to_string(),
    };
    let mut addr = env_addr();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = Some(a.clone()),
                None => return usage(),
            },
            "--threads" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => opts.threads = n,
                _ => return usage(),
            },
            "--requests" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => opts.requests = n,
                _ => return usage(),
            },
            "--method" => match it.next() {
                Some(m) => opts.method = m.clone(),
                None => return usage(),
            },
            "--params" => match it.next() {
                Some(p) => opts.params_text = p.clone(),
                None => return usage(),
            },
            "--open-loop" => opts.open_loop = true,
            "--freq" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(f) if f > 0.0 && f.is_finite() => opts.freq = Some(f),
                _ => return usage(),
            },
            "--duration" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(s) if s > 0.0 && s.is_finite() => opts.duration_s = s,
                _ => return usage(),
            },
            "--mix" => match it.next() {
                Some(m) => opts.mix_spec = m.clone(),
                None => return usage(),
            },
            "--inflight-cap" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => opts.inflight_cap = n,
                _ => return usage(),
            },
            "--tick" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(s) if s >= 0.0 => opts.tick_s = s,
                _ => return usage(),
            },
            "--sweep" => match it.next().map(|s| SweepSpec::parse(s)) {
                Some(Ok(spec)) => opts.sweep = Some(spec),
                Some(Err(err)) => {
                    eprintln!("svc bench: {err}");
                    return usage();
                }
                None => return usage(),
            },
            "--p99-bound-ms" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(b) if b > 0.0 => opts.p99_bound_ms = Some(b),
                _ => return usage(),
            },
            "--expect-knee" => opts.expect_knee = true,
            "--out" => match it.next() {
                Some(p) => opts.out = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--id" => match it.next() {
                Some(i) => opts.id = i.clone(),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(addr) = addr else {
        eprintln!("svc bench: no address (pass --addr or set MINOBS_SVC_ADDR)");
        return ExitCode::FAILURE;
    };
    opts.addr = addr;

    if opts.sweep.is_some() {
        bench_sweep(&opts)
    } else if opts.open_loop {
        bench_open_loop(&opts)
    } else {
        bench_closed_loop(&opts)
    }
}

/// Builds the open-loop config shared by single runs and sweep trials.
fn open_loop_config(opts: &BenchOpts, freq: f64) -> Result<OpenLoopConfig, String> {
    Ok(OpenLoopConfig {
        freq,
        duration: Duration::from_secs_f64(opts.duration_s),
        threads: opts.threads,
        mix: build_mix(&opts.mix_spec)?,
        inflight_cap: opts.inflight_cap,
        tick: (opts.tick_s > 0.0).then(|| Duration::from_secs_f64(opts.tick_s)),
    })
}

fn mix_value(mix: &[MixEntry]) -> Value {
    let mut map = Map::new();
    for entry in mix {
        map.insert(entry.method.clone(), Value::from(entry.weight));
    }
    Value::Object(map)
}

/// The per-run fields shared by open-loop artifacts and sweep trials.
fn summary_fields(map: &mut Map, summary: &OpenLoopSummary) {
    map.insert("offered_qps", Value::from(summary.offered_qps));
    map.insert("achieved_qps", Value::from(summary.achieved_qps));
    map.insert("sent", Value::from(summary.sent));
    map.insert("completed", Value::from(summary.completed));
    map.insert("errors", Value::from(summary.errors));
    map.insert("dropped_by_cap", Value::from(summary.dropped_by_cap));
    map.insert("busy", Value::from(summary.busy));
    map.insert("elapsed_s", Value::from(summary.elapsed_s));
    map.insert(
        "latency_ns",
        latency_block(&summary.latency, summary.max_latency_ns),
    );
}

fn print_summary(summary: &OpenLoopSummary) {
    println!(
        "  offered {:.1}/s → achieved {:.1}/s ({} sent, {} completed, {} errors, {} dropped_by_cap, {} busy) in {:.2}s",
        summary.offered_qps,
        summary.achieved_qps,
        summary.sent,
        summary.completed,
        summary.errors,
        summary.dropped_by_cap,
        summary.busy,
        summary.elapsed_s,
    );
    print_latency("deadline→response", &summary.latency, summary.max_latency_ns);
}

fn bench_open_loop(opts: &BenchOpts) -> ExitCode {
    let Some(freq) = opts.freq else {
        eprintln!("svc bench: --open-loop needs --freq");
        return usage();
    };
    let config = match open_loop_config(opts, freq) {
        Ok(config) => config,
        Err(err) => {
            eprintln!("svc bench: {err}");
            return usage();
        }
    };
    println!(
        "svc bench (open-loop): {:.1}/s for {:.1}s, {} threads, mix {}, cap {} against {}",
        freq, opts.duration_s, opts.threads, opts.mix_spec, opts.inflight_cap, opts.addr
    );
    let summary = match run_open_loop(&opts.addr, &config) {
        Ok(summary) => summary,
        Err(err) => {
            eprintln!("svc bench: {err}");
            return ExitCode::FAILURE;
        }
    };
    print_summary(&summary);

    let mut body = Map::new();
    body.insert("kind", Value::from("svc_open_loop"));
    body.insert("freq", Value::from(freq));
    body.insert("duration_s", Value::from(opts.duration_s));
    body.insert("threads", Value::from(opts.threads));
    body.insert("inflight_cap", Value::from(opts.inflight_cap));
    body.insert("mix", mix_value(&config.mix));
    summary_fields(&mut body, &summary);
    attach_daemon_view(&mut body, &opts.addr);
    if minobs_bench::write_bench_artifact(opts.out.as_deref(), &opts.id, body).is_none() {
        return ExitCode::FAILURE;
    }
    if summary.errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Adds the daemon's own post-run view: cache hit ratio, queued depth,
/// and the full `stats` snapshot (per-method histograms included).
fn attach_daemon_view(body: &mut Map, addr: &str) {
    if let Some(stats) = fetch_stats(addr) {
        body.insert("cache_hit_ratio", cache_hit_ratio(&stats));
        body.insert(
            "queued",
            stats
                .get("queued")
                .cloned()
                .unwrap_or(Value::Null),
        );
        body.insert("daemon_stats", stats);
    }
}

fn bench_sweep(opts: &BenchOpts) -> ExitCode {
    let spec = opts.sweep.expect("sweep spec checked by caller");
    if opts.freq.is_some() {
        eprintln!("svc bench: --sweep and --freq are mutually exclusive");
        return usage();
    }
    println!(
        "svc bench (sweep): {:.1}..{:.1}/s in {} steps, {:.1}s per trial, mix {} against {}",
        spec.lo, spec.hi, spec.steps, opts.duration_s, opts.mix_spec, opts.addr
    );
    let mut trials = Vec::with_capacity(spec.steps);
    let mut rows = Vec::with_capacity(spec.steps);
    for freq in spec.frequencies() {
        let config = match open_loop_config(opts, freq) {
            Ok(config) => config,
            Err(err) => {
                eprintln!("svc bench: {err}");
                return usage();
            }
        };
        let summary = match run_open_loop(&opts.addr, &config) {
            Ok(summary) => summary,
            Err(err) => {
                eprintln!("svc bench: trial at {freq:.1}/s failed: {err}");
                return ExitCode::FAILURE;
            }
        };
        let p99 = summary
            .latency
            .quantile(0.99)
            .map(|v| v.min(summary.max_latency_ns as f64));
        println!(
            "  freq {:>8.1}/s → achieved {:>8.1}/s  p99 {:>8.2} ms  dropped_by_cap {}",
            freq,
            summary.achieved_qps,
            p99.unwrap_or(0.0) / 1.0e6,
            summary.dropped_by_cap,
        );
        trials.push(TrialPoint {
            offered_qps: summary.offered_qps,
            achieved_qps: summary.achieved_qps,
            p99_ns: p99,
        });
        rows.push(summary);
    }

    let criteria = KneeCriteria {
        achieved_ratio: 0.9,
        p99_bound_ns: opts.p99_bound_ms.map(|ms| ms * 1.0e6),
    };
    let knee = find_knee(&trials, &criteria);
    match knee {
        Some(i) => println!(
            "  saturation knee at {:.1}/s (trial {}): achieved {:.1}/s, p99 {:.2} ms",
            trials[i].offered_qps,
            i,
            trials[i].achieved_qps,
            trials[i].p99_ns.unwrap_or(0.0) / 1.0e6,
        ),
        None => println!("  no saturation knee located in this range"),
    }

    let mut body = Map::new();
    body.insert("kind", Value::from("svc_open_loop_sweep"));
    body.insert("duration_s", Value::from(opts.duration_s));
    body.insert("threads", Value::from(opts.threads));
    body.insert("inflight_cap", Value::from(opts.inflight_cap));
    body.insert(
        "mix",
        match build_mix(&opts.mix_spec) {
            Ok(mix) => mix_value(&mix),
            Err(_) => Value::Null,
        },
    );
    // Root-level rates describe the top-of-sweep point; per-trial data
    // is under `sweep`.
    if let Some(last) = rows.last() {
        summary_fields(&mut body, last);
    }
    body.insert(
        "sweep",
        Value::Array(
            rows.iter()
                .map(|summary| {
                    let mut trial = Map::new();
                    trial.insert("freq", Value::from(summary.offered_qps));
                    summary_fields(&mut trial, summary);
                    Value::Object(trial)
                })
                .collect(),
        ),
    );
    body.insert(
        "knee",
        match knee {
            Some(i) => {
                let mut k = Map::new();
                k.insert("index", Value::from(i));
                k.insert("offered_qps", Value::from(trials[i].offered_qps));
                k.insert("achieved_qps", Value::from(trials[i].achieved_qps));
                k.insert(
                    "p99_ns",
                    trials[i].p99_ns.map(Value::from).unwrap_or(Value::Null),
                );
                Value::Object(k)
            }
            None => Value::Null,
        },
    );
    attach_daemon_view(&mut body, &opts.addr);
    if minobs_bench::write_bench_artifact(opts.out.as_deref(), &opts.id, body).is_none() {
        return ExitCode::FAILURE;
    }
    if opts.expect_knee && knee.is_none() {
        eprintln!("svc bench: --expect-knee, but the sweep never saturated");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

struct ThreadOutcome {
    latency: Histogram,
    max_ns: u64,
    errors: usize,
    busy: usize,
}

fn bench_closed_loop(opts: &BenchOpts) -> ExitCode {
    let addr = &opts.addr;
    let (threads, requests, method) = (opts.threads, opts.requests, &opts.method);
    let params: Value = match serde_json::from_str(&opts.params_text) {
        Ok(value) => value,
        Err(err) => {
            eprintln!("svc bench: params are not JSON: {err:?}");
            return ExitCode::FAILURE;
        }
    };

    // One cold probe first, on its own connection, so the cache-warming
    // request is measured separately from the closed-loop phase.
    let cold_ns = {
        let mut client = match SvcClient::connect(addr.as_str()) {
            Ok(client) => client,
            Err(err) => {
                eprintln!("svc bench: cannot connect to {addr}: {err}");
                return ExitCode::FAILURE;
            }
        };
        let start = Instant::now();
        if let Err(err) = client.call(method, params.clone()) {
            eprintln!("svc bench: cold request failed: {err}");
            return ExitCode::FAILURE;
        }
        start.elapsed().as_nanos() as u64
    };

    let started = Instant::now();
    let outcomes: Vec<ThreadOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let addr = addr.clone();
                let method = method.clone();
                let params = params.clone();
                scope.spawn(move || run_thread(&addr, &method, &params, requests))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();

    // Pool per-thread histograms — the same merge the open-loop driver
    // uses, so both modes report quantiles with identical semantics.
    let latency = Histogram::new(&Histogram::latency_bounds());
    let mut max_ns = 0u64;
    let mut errors = 0usize;
    let mut busy = 0usize;
    for outcome in &outcomes {
        if let Err(err) = latency.merge_from(&outcome.latency) {
            eprintln!("svc bench: histogram merge failed: {err}");
            return ExitCode::FAILURE;
        }
        max_ns = max_ns.max(outcome.max_ns);
        errors += outcome.errors;
        busy += outcome.busy;
    }
    let ok = latency.count();
    let throughput = ok as f64 / elapsed.as_secs_f64().max(1e-9);

    println!("svc bench: {threads} threads × {requests} requests of {method} against {addr}");
    println!(
        "  {ok} ok, {errors} err, {busy} busy in {:.3}s → {throughput:.1} req/s",
        elapsed.as_secs_f64()
    );
    if let Some(warm_mean) = latency.sum().checked_div(ok) {
        print_latency("warm", &latency, max_ns);
        println!(
            "  cold first request: {} µs ({:.1}× warm mean)",
            cold_ns / 1_000,
            cold_ns as f64 / warm_mean.max(1) as f64
        );
    }

    let mut body = Map::new();
    body.insert("kind", Value::from("svc_closed_loop"));
    body.insert("threads", Value::from(threads));
    body.insert("requests_per_thread", Value::from(requests));
    body.insert("method", Value::from(method.as_str()));
    body.insert("achieved_qps", Value::from(throughput));
    body.insert("sent", Value::from(ok + errors as u64));
    body.insert("completed", Value::from(ok));
    body.insert("errors", Value::from(errors));
    body.insert("busy", Value::from(busy));
    body.insert("elapsed_s", Value::from(elapsed.as_secs_f64()));
    body.insert("cold_first_request_ns", Value::from(cold_ns));
    body.insert("latency_ns", latency_block(&latency, max_ns));
    attach_daemon_view(&mut body, addr);
    minobs_bench::write_bench_artifact(opts.out.as_deref(), &opts.id, body);
    // The daemon's own view of the run, written next to the experiment
    // artifacts so bench reports carry the server-side histograms too.
    if let Some(stats) = fetch_stats(addr) {
        minobs_bench::write_metrics_snapshot("svc_bench", &stats);
    }

    if errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One polled frame of the `top` view, with the counters needed to turn
/// the next poll into rates.
struct TopSample {
    responses: u64,
    at: Instant,
}

fn top(args: &[String]) -> ExitCode {
    let mut addr = env_addr();
    let mut interval = 1.0f64;
    let mut iterations = 0usize; // 0 = poll until interrupted
    let mut clear = true;
    let mut cluster = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = Some(a.clone()),
                None => return usage(),
            },
            "--interval" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(s) if s > 0.0 => interval = s,
                _ => return usage(),
            },
            "--iterations" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => iterations = n,
                None => return usage(),
            },
            "--no-clear" => clear = false,
            "--cluster" => cluster = true,
            _ => return usage(),
        }
    }
    let Some(addr) = addr else {
        eprintln!("svc top: no address (pass --addr or set MINOBS_SVC_ADDR)");
        return ExitCode::FAILURE;
    };
    if cluster {
        return cluster_top(&addr, interval, iterations, clear);
    }
    let mut client = match SvcClient::connect(addr.as_str()) {
        Ok(client) => client,
        Err(err) => {
            eprintln!("svc top: cannot connect to {addr}: {err}");
            return ExitCode::FAILURE;
        }
    };

    let mut previous: Option<TopSample> = None;
    let mut frame = 0usize;
    loop {
        let stats = match client.call("stats", Value::Null) {
            Ok(stats) => stats,
            Err(err) => {
                eprintln!("svc top: stats failed: {err}");
                return ExitCode::FAILURE;
            }
        };
        if clear {
            // ANSI clear + home; `--no-clear` keeps frames append-only
            // for logs and non-terminals.
            print!("\x1b[2J\x1b[H");
        }
        previous = Some(render_top_frame(&addr, &stats, previous.as_ref()));

        frame += 1;
        if iterations != 0 && frame >= iterations {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

/// Prints one `top` frame from a `stats` response and returns the sample
/// used to compute the next frame's rates.
fn render_top_frame(addr: &str, stats: &Value, previous: Option<&TopSample>) -> TopSample {
    let now = Instant::now();
    let requests = counter(stats, "svc.requests");
    let responses_ok = counter(stats, "svc.responses_ok");
    let responses_err = counter(stats, "svc.responses_err");
    let responses = responses_ok + responses_err;
    let hits = counter(stats, "svc.cache_hits");
    let misses = counter(stats, "svc.cache_misses");
    let subsumed = counter(stats, "svc.cache_subsumptions");

    let qps = previous
        .map(|p| {
            let dt = now.duration_since(p.at).as_secs_f64().max(1e-9);
            (responses.saturating_sub(p.responses)) as f64 / dt
        })
        .unwrap_or(0.0);
    // The daemon reports its own backlog; fall back to the client-side
    // derivation for daemons predating the `queued` field.
    let queued = stats
        .get("queued")
        .and_then(Value::as_u64)
        .unwrap_or_else(|| requests.saturating_sub(responses));
    let lookups = hits + misses + subsumed;
    let hit_ratio = if lookups > 0 {
        (hits + subsumed) as f64 / lookups as f64 * 100.0
    } else {
        0.0
    };

    let uptime_ms = stats.get("uptime_ms").and_then(Value::as_u64).unwrap_or(0);
    let workers = stats.get("workers").and_then(Value::as_u64).unwrap_or(0);
    let draining = stats
        .get("draining")
        .and_then(Value::as_bool)
        .unwrap_or(false);

    println!(
        "minobs-svc {addr} — up {:.0}s, {workers} checker permits{}",
        uptime_ms as f64 / 1_000.0,
        if draining { ", DRAINING" } else { "" }
    );
    println!(
        "  {qps:.1} req/s | {requests} requests ({responses_ok} ok, {responses_err} err) | {queued} queued"
    );
    println!(
        "  cache: {hit_ratio:.1}% hit ({hits} hit, {subsumed} subsumed, {misses} miss)"
    );
    println!("  {:<16} {:>8} {:>10} {:>10} {:>10}", "method", "count", "p50 µs", "p95 µs", "p99 µs");
    let empty = serde_json::Map::new();
    let latency = stats
        .get("latency")
        .and_then(Value::as_object)
        .unwrap_or(&empty);
    for (method, summary) in latency.iter() {
        let field = |name: &str| {
            summary
                .get(name)
                .and_then(Value::as_u64)
                .map(|ns| format!("{:.1}", ns as f64 / 1_000.0))
                .unwrap_or_else(|| "-".to_string())
        };
        println!(
            "  {method:<16} {:>8} {:>10} {:>10} {:>10}",
            summary.get("count").and_then(Value::as_u64).unwrap_or(0),
            field("p50_ns"),
            field("p95_ns"),
            field("p99_ns"),
        );
    }
    if latency.is_empty() {
        println!("  (no timed requests yet)");
    }
    render_peers(stats);

    TopSample { responses, at: now }
}

/// Prints the gossip peer table from the `stats` `peers` section. A
/// single-node daemon (or one predating the field) prints nothing.
fn render_peers(stats: &Value) {
    let Some(peers) = stats.get("peers") else {
        return;
    };
    let count = peers.get("count").and_then(Value::as_u64).unwrap_or(0);
    if count == 0 {
        return;
    }
    let alive = peers.get("alive").and_then(Value::as_u64).unwrap_or(0);
    let max_lag = peers.get("max_lag").and_then(Value::as_u64).unwrap_or(0);
    println!("  peers: {alive}/{count} alive, max lag {max_lag} shards");
    println!(
        "  {:<22} {:>6} {:>10} {:>10} {:>10} {:>6} {:>10}",
        "peer", "state", "exchanges", "deltas in", "deltas out", "lag", "last ms"
    );
    let rows = peers
        .get("table")
        .and_then(Value::as_array)
        .unwrap_or_default();
    for row in rows {
        let field = |name: &str| row.get(name).and_then(Value::as_u64).unwrap_or(0);
        let last = row
            .get("last_exchange_ms")
            .and_then(Value::as_u64)
            .map(|ms| ms.to_string())
            .unwrap_or_else(|| "-".to_string());
        println!(
            "  {:<22} {:>6} {:>10} {:>10} {:>10} {:>6} {:>10}",
            row.get("addr").and_then(Value::as_str).unwrap_or("?"),
            if row.get("alive").and_then(Value::as_bool).unwrap_or(false) {
                "up"
            } else {
                "DOWN"
            },
            field("exchanges"),
            field("deltas_in"),
            field("deltas_out"),
            field("lag"),
            last,
        );
    }
}

/// One generic null-params RPC against `addr` on a fresh
/// bounded-timeout connection. Fleet polling dials per poll so one dead
/// node cannot wedge the frame.
fn fetch(addr: &str, method: &str) -> Result<Value, String> {
    let mut client = SvcClient::connect_with_timeout(addr, Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    client.call(method, Value::Null).map_err(|e| e.to_string())
}

/// The fleet one hop out from `seed`: the seed plus every address in its
/// `stats.peers` table, in table order. Each daemon reports only its
/// *configured* peers, so point the seed at a node that gossips with the
/// whole cluster (any node works in a full mesh).
fn discover_fleet(seed: &str, seed_stats: &Value) -> Vec<String> {
    let mut fleet = vec![seed.to_string()];
    let rows = seed_stats
        .get("peers")
        .and_then(|p| p.get("table"))
        .and_then(Value::as_array);
    for row in rows.into_iter().flatten() {
        if let Some(addr) = row.get("addr").and_then(Value::as_str) {
            if fleet.iter().all(|a| a != addr) {
                fleet.push(addr.to_string());
            }
        }
    }
    fleet
}

/// Folds a node's per-method `svc.method.*.latency_ns` snapshots into
/// one histogram, so a node (and, by merging again, the fleet) gets
/// overall latency quantiles with single-histogram semantics.
fn node_latency(stats: &Value) -> Option<Histogram> {
    let histograms = stats
        .get("metrics")?
        .get("histograms")?
        .as_object()?;
    let merged = Histogram::new(&Histogram::latency_bounds());
    let mut any = false;
    for (name, snap) in histograms.iter() {
        if !(name.starts_with("svc.method.") && name.ends_with(".latency_ns")) {
            continue;
        }
        if let Some(histogram) = Histogram::from_snapshot(snap) {
            if merged.merge_from(&histogram).is_ok() && histogram.count() > 0 {
                any = true;
            }
        }
    }
    any.then_some(merged)
}

fn gauge(stats: &Value, name: &str) -> u64 {
    stats
        .get("metrics")
        .and_then(|m| m.get("gauges"))
        .and_then(|g| g.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Per-node counters carried between cluster frames to turn totals into
/// rates.
struct ClusterSample {
    responses: std::collections::HashMap<String, u64>,
    at: Instant,
}

fn cluster_top(seed: &str, interval: f64, iterations: usize, clear: bool) -> ExitCode {
    let mut previous: Option<ClusterSample> = None;
    let mut frame = 0usize;
    loop {
        let seed_stats = match fetch(seed, "stats") {
            Ok(stats) => stats,
            Err(err) => {
                eprintln!("svc top: stats from seed {seed} failed: {err}");
                return ExitCode::FAILURE;
            }
        };
        let fleet = discover_fleet(seed, &seed_stats);
        if clear {
            print!("\x1b[2J\x1b[H");
        }
        previous = Some(render_cluster_frame(
            seed,
            &fleet,
            seed_stats,
            previous.as_ref(),
        ));
        frame += 1;
        if iterations != 0 && frame >= iterations {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(Duration::from_secs_f64(interval));
    }
}

/// Renders one cluster frame: a row per discovered node and a fleet
/// aggregate. Latency quantiles come from bucket-merged histograms, so
/// the fleet p50/p99 has the same semantics as one shared histogram.
fn render_cluster_frame(
    seed: &str,
    fleet: &[String],
    seed_stats: Value,
    previous: Option<&ClusterSample>,
) -> ClusterSample {
    let now = Instant::now();
    let mut sample = ClusterSample {
        responses: std::collections::HashMap::new(),
        at: now,
    };
    println!("minobs-svc cluster — {} nodes via {seed}", fleet.len());
    println!(
        "  {:<34} {:>9} {:>9} {:>9} {:>9} {:>6} {:>7} {:>4} {:>4} {:>5} {:>9}",
        "node", "health", "req/s", "p50 µs", "p99 µs", "hit%", "queued", "wal", "lag", "down", "slo_viol"
    );

    let fleet_latency = Histogram::new(&Histogram::latency_bounds());
    let mut up = 0usize;
    let mut fleet_qps = 0.0f64;
    let (mut fleet_hits, mut fleet_lookups) = (0u64, 0u64);
    let mut fleet_queued = 0u64;
    let mut fleet_wal_degraded = 0usize;
    let mut fleet_lag = 0u64;
    let mut fleet_down = 0u64;
    let mut fleet_viol = 0u64;

    for (index, addr) in fleet.iter().enumerate() {
        let stats = if index == 0 {
            Ok(seed_stats.clone())
        } else {
            fetch(addr, "stats")
        };
        let stats = match stats {
            Ok(stats) => stats,
            Err(err) => {
                println!("  {addr:<34} {:>9} (unreachable: {err})", "DOWN");
                continue;
            }
        };
        up += 1;
        let health = fetch(addr, "health").ok();
        let status = health
            .as_ref()
            .and_then(|h| h.get("status"))
            .and_then(Value::as_str)
            .unwrap_or("?");
        let node_id = health
            .as_ref()
            .and_then(|h| h.get("node_id"))
            .and_then(Value::as_str)
            .unwrap_or("");
        let label = if node_id.is_empty() || node_id == addr.as_str() {
            addr.clone()
        } else {
            format!("{addr} [{node_id}]")
        };

        let responses = counter(&stats, "svc.responses_ok") + counter(&stats, "svc.responses_err");
        sample.responses.insert(addr.clone(), responses);
        let qps = match previous.and_then(|p| p.responses.get(addr)) {
            Some(&before) => {
                let dt = previous
                    .map(|p| now.duration_since(p.at).as_secs_f64())
                    .unwrap_or(0.0)
                    .max(1e-9);
                responses.saturating_sub(before) as f64 / dt
            }
            None => {
                // First sight of this node: report the lifetime average.
                let uptime_s = stats
                    .get("uptime_ms")
                    .and_then(Value::as_u64)
                    .unwrap_or(0) as f64
                    / 1_000.0;
                responses as f64 / uptime_s.max(1e-9)
            }
        };
        fleet_qps += qps;

        let latency = node_latency(&stats);
        let quant = |q: f64| {
            latency
                .as_ref()
                .and_then(|h| h.quantile(q))
                .map(|ns| format!("{:.1}", ns / 1_000.0))
                .unwrap_or_else(|| "-".to_string())
        };
        if let Some(latency) = &latency {
            let _ = fleet_latency.merge_from(latency);
        }

        let hits = counter(&stats, "svc.cache_hits") + counter(&stats, "svc.cache_subsumptions");
        let lookups = hits + counter(&stats, "svc.cache_misses");
        fleet_hits += hits;
        fleet_lookups += lookups;
        let hit_pct = if lookups > 0 {
            format!("{:.1}", hits as f64 / lookups as f64 * 100.0)
        } else {
            "-".to_string()
        };

        let queued = stats.get("queued").and_then(Value::as_u64).unwrap_or(0);
        fleet_queued += queued;
        let wal_degraded = gauge(&stats, "svc.wal_degraded") != 0;
        fleet_wal_degraded += wal_degraded as usize;
        let lag = stats
            .get("peers")
            .and_then(|p| p.get("max_lag"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        fleet_lag = fleet_lag.max(lag);
        let peers_down = {
            let count = stats
                .get("peers")
                .and_then(|p| p.get("count"))
                .and_then(Value::as_u64)
                .unwrap_or(0);
            let alive = stats
                .get("peers")
                .and_then(|p| p.get("alive"))
                .and_then(Value::as_u64)
                .unwrap_or(0);
            count.saturating_sub(alive)
        };
        fleet_down += peers_down;
        let violations = counter(&stats, "svc.slo_p99_violations");
        fleet_viol += violations;

        println!(
            "  {label:<34} {status:>9} {qps:>9.1} {:>9} {:>9} {hit_pct:>6} {queued:>7} {:>4} {lag:>4} {peers_down:>5} {violations:>9}",
            quant(0.50),
            quant(0.99),
            if wal_degraded { "DEG" } else { "ok" },
        );
    }

    let fleet_quant = |q: f64| {
        fleet_latency
            .quantile(q)
            .map(|ns| format!("{:.1}", ns / 1_000.0))
            .unwrap_or_else(|| "-".to_string())
    };
    let fleet_hit = if fleet_lookups > 0 {
        format!("{:.1}", fleet_hits as f64 / fleet_lookups as f64 * 100.0)
    } else {
        "-".to_string()
    };
    println!(
        "  {:<34} {:>9} {fleet_qps:>9.1} {:>9} {:>9} {fleet_hit:>6} {fleet_queued:>7} {:>4} {fleet_lag:>4} {fleet_down:>5} {fleet_viol:>9}",
        format!("fleet ({up}/{} up)", fleet.len()),
        if up == fleet.len() { "ok" } else { "degraded" },
        fleet_quant(0.50),
        fleet_quant(0.99),
        if fleet_wal_degraded == 0 {
            "ok".to_string()
        } else {
            format!("{fleet_wal_degraded}DEG")
        },
    );
    sample
}

fn metrics_cmd(args: &[String]) -> ExitCode {
    let mut addr = env_addr();
    let mut all = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = Some(a.clone()),
                None => return usage(),
            },
            "--all" => all = true,
            _ => return usage(),
        }
    }
    let Some(addr) = addr else {
        eprintln!("svc metrics: no address (pass --addr or set MINOBS_SVC_ADDR)");
        return ExitCode::FAILURE;
    };
    let targets = if all {
        match fetch(&addr, "stats") {
            Ok(stats) => discover_fleet(&addr, &stats),
            Err(err) => {
                eprintln!("svc metrics: stats from {addr} failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        vec![addr.clone()]
    };
    let mut failures = 0usize;
    for node in &targets {
        let text = fetch(node, "metrics").and_then(|reply| {
            reply
                .get("text")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| String::from("daemon returned no exposition text"))
        });
        match text {
            Ok(text) => {
                if targets.len() > 1 {
                    println!("# ---- node {node} ----");
                }
                print!("{text}");
                if !text.ends_with('\n') {
                    println!();
                }
            }
            Err(err) => {
                eprintln!("svc metrics: {node}: {err}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A filesystem-safe file stem for a node identity (`host:port` and
/// friends): everything outside `[A-Za-z0-9._-]` becomes `-`.
fn node_file_stem(node_id: &str) -> String {
    let stem: String = node_id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect();
    if stem.is_empty() {
        "node".to_string()
    } else {
        stem
    }
}

fn dump_cmd(args: &[String]) -> ExitCode {
    let mut addr = env_addr();
    let mut all = false;
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = Some(a.clone()),
                None => return usage(),
            },
            "--all" => all = true,
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(addr) = addr else {
        eprintln!("svc dump: no address (pass --addr or set MINOBS_SVC_ADDR)");
        return ExitCode::FAILURE;
    };
    let targets = if all {
        match fetch(&addr, "stats") {
            Ok(stats) => discover_fleet(&addr, &stats),
            Err(err) => {
                eprintln!("svc dump: stats from {addr} failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        vec![addr.clone()]
    };
    if let Some(dir) = &out {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("svc dump: cannot create {}: {err}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let mut failures = 0usize;
    for node in &targets {
        let reply = match fetch(node, "dump_trace") {
            Ok(reply) => reply,
            Err(err) => {
                eprintln!("svc dump: {node}: {err}");
                failures += 1;
                continue;
            }
        };
        let jsonl = match reply.get("jsonl").and_then(Value::as_str) {
            Some(jsonl) => jsonl,
            None => {
                eprintln!("svc dump: {node}: daemon returned no jsonl");
                failures += 1;
                continue;
            }
        };
        let node_id = reply
            .get("node_id")
            .and_then(Value::as_str)
            .unwrap_or(node.as_str());
        let events = reply.get("events").and_then(Value::as_u64).unwrap_or(0);
        let truncated = reply
            .get("truncated_spans")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        match &out {
            Some(dir) => {
                let path = dir.join(format!("{}.trace.jsonl", node_file_stem(node_id)));
                if let Err(err) = std::fs::write(&path, jsonl.as_bytes()) {
                    eprintln!("svc dump: cannot write {}: {err}", path.display());
                    failures += 1;
                    continue;
                }
                eprintln!(
                    "svc dump: {node} [{node_id}] → {} ({events} events, {truncated} truncated spans)",
                    path.display()
                );
            }
            None => {
                if targets.len() > 1 {
                    println!("# ---- node {node} [{node_id}] ----");
                }
                print!("{jsonl}");
                if !jsonl.is_empty() && !jsonl.ends_with('\n') {
                    println!();
                }
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_thread(addr: &str, method: &str, params: &Value, requests: usize) -> ThreadOutcome {
    let mut outcome = ThreadOutcome {
        latency: Histogram::new(&Histogram::latency_bounds()),
        max_ns: 0,
        errors: 0,
        busy: 0,
    };
    let mut client = match SvcClient::connect_with_timeout(addr, Some(Duration::from_secs(5))) {
        Ok(client) => client,
        Err(err) => {
            eprintln!("svc bench: connect failed: {err}");
            outcome.errors = requests;
            return outcome;
        }
    };
    for _ in 0..requests {
        let start = Instant::now();
        match client.call(method, params.clone()) {
            Ok(_) => {
                let nanos = start.elapsed().as_nanos() as u64;
                outcome.latency.observe(nanos);
                outcome.max_ns = outcome.max_ns.max(nanos);
            }
            Err(SvcError::Busy(_)) => {
                // Back-pressure, not failure: the daemon's connection cap
                // also hangs up, so reconnect before continuing.
                outcome.busy += 1;
                let _ = client.reconnect();
            }
            Err(err) => {
                eprintln!("svc bench: request failed: {err}");
                outcome.errors += 1;
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_fixture() -> Value {
        serde_json::from_str(
            r#"{
              "queued": 1,
              "uptime_ms": 2000,
              "peers": {
                "count": 2, "alive": 1, "max_lag": 3,
                "table": [
                  {"addr": "127.0.0.1:7402", "alive": true},
                  {"addr": "127.0.0.1:7403", "alive": false},
                  {"addr": "127.0.0.1:7402", "alive": true}
                ]
              },
              "metrics": {
                "counters": {"svc.responses_ok": 10, "svc.responses_err": 2},
                "gauges": {"svc.wal_degraded": 1},
                "histograms": {
                  "svc.method.stats.latency_ns": null,
                  "svc.requests_other": null
                }
              }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn node_file_stem_is_filesystem_safe() {
        assert_eq!(node_file_stem("127.0.0.1:7401"), "127.0.0.1-7401");
        assert_eq!(node_file_stem("a/b\\c d"), "a-b-c-d");
        assert_eq!(node_file_stem(""), "node");
    }

    #[test]
    fn discover_fleet_is_seed_plus_deduped_peer_table() {
        let stats = stats_fixture();
        let fleet = discover_fleet("127.0.0.1:7401", &stats);
        assert_eq!(
            fleet,
            vec![
                "127.0.0.1:7401".to_string(),
                "127.0.0.1:7402".to_string(),
                "127.0.0.1:7403".to_string(),
            ],
            "seed first, peers deduped in table order"
        );
        // A single-node daemon (empty table) discovers just itself.
        let lone: Value = serde_json::from_str(
            r#"{"peers": {"count": 0, "alive": 0, "table": []}}"#,
        )
        .unwrap();
        assert_eq!(discover_fleet("a:1", &lone), vec!["a:1".to_string()]);
    }

    #[test]
    fn node_latency_merges_only_method_histograms() {
        // Build a stats value whose histograms section holds one real
        // method snapshot and one non-method snapshot.
        let method = Histogram::new(&Histogram::latency_bounds());
        method.observe(5_000);
        method.observe(50_000);
        let other = Histogram::new(&Histogram::latency_bounds());
        other.observe(1);

        let mut histograms = Map::new();
        let snapshot_of = |h: &Histogram| {
            let mut map = Map::new();
            map.insert("count", Value::from(h.count()));
            map.insert("sum", Value::from(h.sum()));
            map.insert("bounds", Value::from(h.bounds().to_vec()));
            map.insert("buckets", Value::from(h.bucket_counts()));
            Value::Object(map)
        };
        histograms.insert("svc.method.stats.latency_ns", snapshot_of(&method));
        histograms.insert("engine.round_latency_ns", snapshot_of(&other));
        let mut metrics = Map::new();
        metrics.insert("histograms", Value::Object(histograms));
        let mut stats = Map::new();
        stats.insert("metrics", Value::Object(metrics));

        let merged = node_latency(&Value::Object(stats)).expect("method histogram present");
        assert_eq!(merged.count(), 2, "only the rpc-method histogram merges");

        // No method histograms at all → None, so callers render "-".
        let empty: Value =
            serde_json::from_str(r#"{"metrics": {"histograms": {}}}"#).unwrap();
        assert!(node_latency(&empty).is_none());
    }
}
