//! `perfbench`: the repository's benchmark.
//!
//! One command runs one seeded workload, `hit` or `miss`, against a
//! spawned `minobs-svcd` over TCP, checks every verdict it receives, and
//! prints one JSON object as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! replay with `--trace 1`.
//!
//! ```text
//! perfbench --workload hit|miss --seed N --seconds S --trace 0|1
//!           --daemon PATH --work-dir DIR
//! ```
//!
//! Exit codes: 0 when every verdict was right, 1 when one was wrong or an
//! operation failed (the JSON line is still printed), 2 when the run is
//! invalid or could not be made (no JSON line). See `README.md`.

mod checker;
mod daemon;
mod layers;
mod load;
mod service;
mod spans;
mod stats;
mod streams;

use serde_json::{Map, Value};
use std::path::PathBuf;
use std::process::ExitCode;

/// Per-layer metrics: name, unit, which way is better. Every traced run
/// prints all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("loadgen.send_lag_us_p99", "us", "lower"),
    ("client.encode_us_p50", "us", "lower"),
    ("client.decode_us_p50", "us", "lower"),
    ("wire.decode_us_p50", "us", "lower"),
    ("wire.encode_us_p50", "us", "lower"),
    ("methods.handle_us_p50", "us", "lower"),
    ("methods.handle_us_p99", "us", "lower"),
    ("server.handler_us_p50", "us", "lower"),
    ("server.transport_us_p50", "us", "lower"),
    ("stages.coverage_frac", "frac", "higher"),
    ("spec.parse_us_p50", "us", "lower"),
    ("cache.hit_ratio", "frac", "higher"),
    ("cache.lookups", "count", "higher"),
    ("cache.lookup_us_p50", "us", "lower"),
    ("wal.appends_per_req", "count", "lower"),
    ("wal.bytes_per_req", "bytes", "lower"),
    ("wal.record_us_p50", "us", "lower"),
    ("wal.record_us_p99", "us", "lower"),
    ("wal.replay_ms", "ms", "lower"),
    ("wal.replay_records", "count", "higher"),
    ("checker.expand_self_ms", "ms", "lower"),
    ("checker.dedup_self_ms", "ms", "lower"),
    ("checker.decide_self_ms", "ms", "lower"),
    ("checker.states", "count", "lower"),
    ("checker.distinct_views", "count", "lower"),
    ("checker.dedup_ratio", "frac", "lower"),
    ("checker.peak_frontier", "count", "lower"),
    ("checker.horizons_run", "count", "lower"),
    ("checker.viability_calls", "count", "lower"),
    ("omega.viability_ms", "ms", "lower"),
    ("theorem.decide_us_p50", "us", "lower"),
    ("graphs.net_solvable_us_p50", "us", "lower"),
    ("obs.trace_overhead_frac", "frac", "lower"),
];

/// End-to-end metrics: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("p75_ms", "ms"),
    ("peak_qps", "1/s"),
    ("setup_s", "s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MiB"),
];

/// The command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    work_dir: PathBuf,
}

/// A finished run: operation counts and metric values by name.
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Map,
}

/// Sets metric `name` (units are attached when the result is printed).
pub fn put(metrics: &mut Map, name: &str, value: f64) {
    metrics.insert(name, Value::from(value));
}

/// Writes the traced run's spans beside the build, named by workload and
/// seed.
pub fn write_spans(args: &Args, spans: &spans::Spans) {
    let path = args
        .work_dir
        .join("spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match spans.write_jsonl(&path) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        daemon: PathBuf::new(),
        work_dir: PathBuf::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {:?} needs a value", pair[0]));
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--daemon" => args.daemon = PathBuf::from(value),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let report = match args.workload.as_str() {
            "hit" | "miss" => service::run(&args),
            other => Err(format!("unknown workload {other:?} (hit or miss)")),
        };
        report.map(|report| (args.trace, report))
    });
    let (trace, report) = match outcome {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, *unit))
            .collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut metrics = Map::new();
    for (name, unit) in names {
        let value = report
            .metrics
            .get(name)
            .cloned()
            .expect("every run sets every metric it prints");
        let mut entry = Map::new();
        entry.insert("value", value);
        entry.insert("unit", Value::from(unit));
        metrics.insert(name, Value::Object(entry));
    }
    let correct = report.failed == 0;
    let mut out = Map::new();
    out.insert("correct", Value::from(correct));
    out.insert("attempted", Value::from(report.attempted));
    out.insert("failed", Value::from(report.failed));
    out.insert("metrics", Value::Object(metrics));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(out)).expect("plain JSON")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
