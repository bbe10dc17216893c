//! # minobs-bench — experiment harness
//!
//! One binary per paper artifact (see DESIGN.md's experiment index), each
//! printing the regenerated rows and appending machine-readable JSON to
//! `$MINOBS_EXP_DIR/<id>.json` (default `target/experiments`). Criterion
//! benches measure the substrate itself (index calculus, engines,
//! connectivity, model checker) including the ablations DESIGN.md calls
//! out. Structured JSONL tracing for any experiment binary is switched on
//! with `MINOBS_TRACE` (see docs/OBSERVABILITY.md).

mod bench;
pub mod cli;
pub mod lint;

pub use bench::{validate_bench_artifact, BENCH_SCHEMA};

use minobs_obs::{trace_path_from_env, JsonlSink};
use serde_json::{Map, Value};
use std::fmt::Display;
use std::fs::{self, File};
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// The artifact directory: `$MINOBS_EXP_DIR`, or `target/experiments`.
pub fn experiment_dir() -> PathBuf {
    match std::env::var("MINOBS_EXP_DIR") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("target/experiments"),
    }
}

/// Opens the JSONL trace sink requested via `MINOBS_TRACE` for the
/// experiment binary `id`, defaulting to `<experiment_dir>/<id>.trace.jsonl`.
/// Returns the sink with the path it writes to, or `None` when tracing is
/// off. Failures to open the file are reported to stderr and treated as
/// tracing-off rather than aborting the experiment.
pub fn trace_sink_for(id: &str) -> Option<(JsonlSink<BufWriter<File>>, PathBuf)> {
    let default = experiment_dir().join(format!("{id}.trace.jsonl"));
    let path = trace_path_from_env(&default)?;
    match JsonlSink::create(&path) {
        Ok(sink) => Some((sink, path)),
        Err(err) => {
            eprintln!(
                "minobs-bench: cannot open trace file {}: {err}",
                path.display()
            );
            None
        }
    }
}

/// Writes a metrics snapshot next to the experiment's report, as
/// `<experiment_dir>/<id>.metrics.json`. Returns the path on success;
/// failures are reported to stderr and swallowed so a full disk never
/// sinks the run that produced the numbers.
pub fn write_metrics_snapshot(id: &str, snapshot: &Value) -> Option<PathBuf> {
    let path = write_json(
        None,
        &format!("{id}.metrics.json"),
        snapshot,
        "metrics snapshot",
    )?;
    println!("[metrics snapshot {}]", path.display());
    Some(path)
}

/// Pretty-prints `value` to `path`, or to `<experiment_dir>/<file>`
/// (creating the directory) when `path` is `None`. Returns the path
/// written; failures are reported to stderr, naming the artifact as
/// `what`.
fn write_json(path: Option<&Path>, file: &str, value: &Value, what: &str) -> Option<PathBuf> {
    let path = match path {
        Some(path) => path.to_path_buf(),
        None => {
            let dir = experiment_dir();
            if let Err(err) = fs::create_dir_all(&dir) {
                eprintln!(
                    "minobs-bench: cannot create artifact dir {}: {err}",
                    dir.display()
                );
                return None;
            }
            dir.join(file)
        }
    };
    let json = match serde_json::to_string_pretty(value) {
        Ok(json) => json,
        Err(err) => {
            eprintln!("minobs-bench: {what} serialisation failed: {err}");
            return None;
        }
    };
    if let Err(err) = fs::write(&path, json) {
        eprintln!(
            "minobs-bench: cannot write {what} {}: {err}",
            path.display()
        );
        return None;
    }
    Some(path)
}

/// A rendered experiment table plus its JSON sink.
pub struct Report {
    id: String,
    header: Vec<String>,
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
    trace: Option<PathBuf>,
}

impl Report {
    /// Starts a report for experiment `id` with column names.
    pub fn new(id: &str, header: &[&str]) -> Report {
        Report {
            id: id.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            widths: header.iter().map(|s| s.len()).collect(),
            rows: Vec::new(),
            trace: None,
        }
    }

    /// Records the JSONL trace file this experiment streamed to, so the
    /// artifact points at it.
    pub fn note_trace(&mut self, path: &Path) {
        self.trace = Some(path.to_path_buf());
    }

    /// Adds a row (already stringified).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        for (w, c) in self.widths.iter_mut().zip(&cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells);
    }

    /// Prints the table and writes the JSON artifact. Returns the JSON
    /// path when the write succeeded; failures are reported to stderr.
    pub fn finish(self) -> Option<PathBuf> {
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", line(&self.header, &self.widths));
        println!(
            "{}",
            "-".repeat(self.widths.iter().sum::<usize>() + 2 * self.widths.len())
        );
        for row in &self.rows {
            println!("{}", line(row, &self.widths));
        }

        let mut artifact = Map::new();
        artifact.insert("id", Value::from(self.id.as_str()));
        artifact.insert("meta", artifact_meta(self.trace.as_deref()));
        artifact.insert(
            "header",
            Value::from(self.header.iter().map(String::as_str).collect::<Vec<_>>()),
        );
        artifact.insert(
            "rows",
            Value::Array(
                self.rows
                    .iter()
                    .map(|row| Value::from(row.iter().map(String::as_str).collect::<Vec<_>>()))
                    .collect(),
            ),
        );

        let path = write_json(
            None,
            &format!("{}.json", self.id),
            &Value::Object(artifact),
            "artifact",
        )?;
        println!("\n[written {}]", path.display());
        Some(path)
    }
}

/// The provenance block embedded in every artifact: wall-clock timestamp,
/// toolchain version, host name, machine parallelism, stable node
/// identity (`MINOBS_NODE_ID`, default `"local"`), and (when tracing
/// was on) the JSONL trace the run produced.
pub fn artifact_meta(trace: Option<&Path>) -> Value {
    let mut meta = Map::new();
    let unix_secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    meta.insert("unix_secs", Value::from(unix_secs));
    meta.insert("timestamp", Value::from(iso8601_utc(unix_secs)));
    meta.insert("rustc", Value::from(rustc_version()));
    meta.insert("host", Value::from(host_name()));
    meta.insert(
        "threads",
        Value::from(
            std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
        ),
    );
    meta.insert(
        "trace",
        match trace {
            Some(path) => Value::from(path.display().to_string()),
            None => Value::Null,
        },
    );
    // Stable node identity, so multi-node artifacts group the same way
    // multi-node traces do (`MINOBS_NODE_ID`; `"local"` off-cluster).
    meta.insert(
        "node_id",
        Value::from(minobs_obs::node_id_from_env("local")),
    );
    Value::Object(meta)
}

fn host_name() -> String {
    std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.is_empty())
        .or_else(|| {
            Command::new("hostname")
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|h| !h.is_empty())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes a `minobs/bench/v1` artifact: stamps `schema`, `id`, and the
/// provenance `meta` block onto `body`, validates the result against
/// [`validate_bench_artifact`], and writes it to `out` (or
/// `<experiment_dir>/<id>.json` when `out` is `None`). Returns the path
/// on success; schema violations and i/o failures go to stderr.
pub fn write_bench_artifact(out: Option<&Path>, id: &str, body: Map) -> Option<PathBuf> {
    let mut artifact = Map::new();
    artifact.insert("schema", Value::from(BENCH_SCHEMA));
    artifact.insert("id", Value::from(id));
    artifact.insert("meta", artifact_meta(None));
    for (key, value) in body.iter() {
        if key != "schema" && key != "id" && key != "meta" {
            artifact.insert(key.clone(), value.clone());
        }
    }
    let artifact = Value::Object(artifact);
    if let Err(err) = validate_bench_artifact(&artifact) {
        eprintln!("minobs-bench: refusing to write invalid bench artifact: {err}");
        return None;
    }
    let path = write_json(out, &format!("{id}.json"), &artifact, "bench artifact")?;
    println!("[bench artifact {}]", path.display());
    Some(path)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `YYYY-MM-DDThh:mm:ssZ` from seconds since the Unix epoch (UTC).
fn iso8601_utc(unix_secs: u64) -> String {
    let days = unix_secs / 86_400;
    let secs_of_day = unix_secs % 86_400;
    // Civil-from-days (Howard Hinnant's algorithm), valid from 1970 on.
    let z = days as i64 + 719_468;
    let era = z / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        secs_of_day / 3_600,
        (secs_of_day / 60) % 60,
        secs_of_day % 60
    )
}

/// Formats a boolean as the check glyphs used across experiment tables.
pub fn mark(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_and_writes() {
        let mut r = Report::new("selftest", &["a", "bbb"]);
        r.row(&[&1, &"x"]);
        r.row(&[&22, &"yy"]);
        let path = r.finish().expect("artifact written");
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("selftest"));
        assert!(text.contains("yy"));
        let value: Value = serde_json::from_str(&text).unwrap();
        let meta = value.get("meta").expect("meta block");
        assert!(meta.get("unix_secs").and_then(Value::as_u64).is_some());
        assert!(meta.get("timestamp").and_then(Value::as_str).is_some());
        assert!(meta.get("rustc").and_then(Value::as_str).is_some());
        assert!(meta.get("threads").and_then(Value::as_u64).unwrap_or(0) >= 1);
        assert!(meta.get("trace").map(Value::is_null).unwrap_or(false));
    }

    #[test]
    fn noted_trace_lands_in_meta() {
        let mut r = Report::new("selftest_trace", &["a"]);
        r.note_trace(Path::new("target/experiments/selftest.trace.jsonl"));
        r.row(&[&1]);
        let path = r.finish().expect("artifact written");
        let value: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            value
                .get("meta")
                .and_then(|m| m.get("trace"))
                .and_then(Value::as_str),
            Some("target/experiments/selftest.trace.jsonl")
        );
    }

    #[test]
    fn metrics_snapshot_lands_next_to_the_report() {
        let mut counters = Map::new();
        counters.insert("x", Value::from(1u64));
        let mut root = Map::new();
        root.insert("counters", Value::Object(counters));
        let snapshot = Value::Object(root);
        let path = write_metrics_snapshot("selftest_metrics", &snapshot).expect("written");
        assert!(path.ends_with("selftest_metrics.metrics.json"));
        let read: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(read, snapshot);
    }

    #[test]
    fn bench_artifact_is_stamped_validated_and_refused_when_invalid() {
        let mut latency = Map::new();
        latency.insert("count", Value::from(5u64));
        latency.insert("p50", Value::from(1u64));
        latency.insert("p95", Value::from(2u64));
        latency.insert("p99", Value::from(3u64));
        latency.insert("max", Value::from(4u64));
        let mut body = Map::new();
        body.insert("kind", Value::from("checker"));
        body.insert("achieved_qps", Value::from(10.0));
        body.insert("latency_ns", Value::Object(latency));
        let path = write_bench_artifact(None, "selftest_bench", body).expect("written");
        let value: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        validate_bench_artifact(&value).unwrap();
        assert_eq!(
            value.get("schema").and_then(Value::as_str),
            Some(BENCH_SCHEMA)
        );
        let meta = value.get("meta").expect("meta block");
        assert!(meta.get("host").and_then(Value::as_str).is_some());
        assert!(meta.get("rustc").and_then(Value::as_str).is_some());

        // A body that violates the schema is refused, not written.
        let mut bad = Map::new();
        bad.insert("kind", Value::from("checker"));
        assert!(write_bench_artifact(None, "selftest_bench_bad", bad).is_none());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut r = Report::new("x", &["a", "b"]);
        r.row(&[&1]);
    }

    #[test]
    fn iso8601_matches_known_instants() {
        assert_eq!(iso8601_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso8601_utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(iso8601_utc(1_754_352_000), "2025-08-05T00:00:00Z");
    }
}
