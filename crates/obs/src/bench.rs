//! The `minobs/bench/v1` artifact schema: the checker's recorded
//! trajectory.
//!
//! `bench_checker` emits one JSON object under this schema, and
//! `run_experiments.sh` commits it as `BENCH_checker.json` at the repo
//! root. (The service's trajectory is the benchmark's own output,
//! `BENCH_hit.json` and `BENCH_miss.json`; see `docs/BENCHMARKING.md`.)
//!
//! Required fields:
//!
//! | field | type | meaning |
//! |-------|------|---------|
//! | `schema` | string | exactly [`BENCH_SCHEMA`] |
//! | `id` | string | artifact identity, e.g. `bench_checker` |
//! | `kind` | string | exactly `checker` |
//! | `meta` | object | provenance: `timestamp`, `rustc`, `threads` (host block from `minobs-bench`) |
//! | `achieved_qps` | number | completed calls per second of wall clock |
//! | `latency_ns` | object | `count`, `p50`, `p95`, `p99`, `max` — monotone `p50 ≤ p95 ≤ p99 ≤ max` |
//!
//! Optional counters `sent` and `completed` must satisfy
//! `completed ≤ sent` when both are present.
//!
//! `trace_lint` applies [`validate_bench_artifact`] whenever it is
//! handed a file that parses as a single JSON object under this schema.

use serde_json::Value;

/// Version tag carried by every bench artifact.
pub const BENCH_SCHEMA: &str = "minobs/bench/v1";

fn field<'a>(value: &'a Value, key: &str, context: &str) -> Result<&'a Value, String> {
    value
        .get(key)
        .ok_or_else(|| format!("{context}: missing field {key:?}"))
}

fn field_str<'a>(value: &'a Value, key: &str, context: &str) -> Result<&'a str, String> {
    field(value, key, context)?
        .as_str()
        .ok_or_else(|| format!("{context}: field {key:?} must be a string"))
}

fn field_num(value: &Value, key: &str, context: &str) -> Result<f64, String> {
    let number = field(value, key, context)?
        .as_f64()
        .ok_or_else(|| format!("{context}: field {key:?} must be a number"))?;
    if !number.is_finite() || number < 0.0 {
        return Err(format!(
            "{context}: field {key:?} must be finite and non-negative, got {number}"
        ));
    }
    Ok(number)
}

fn optional_num(value: &Value, key: &str, context: &str) -> Result<Option<f64>, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(_) => field_num(value, key, context).map(Some),
    }
}

/// Validates one `minobs/bench/v1` artifact, returning the first
/// violation as a human-readable message.
pub fn validate_bench_artifact(artifact: &Value) -> Result<(), String> {
    if artifact.as_object().is_none() {
        return Err("bench artifact must be a JSON object".to_string());
    }
    let schema = field_str(artifact, "schema", "artifact")?;
    if schema != BENCH_SCHEMA {
        return Err(format!(
            "artifact: schema {schema:?}, expected {BENCH_SCHEMA:?}"
        ));
    }
    let id = field_str(artifact, "id", "artifact")?;
    if id.is_empty() {
        return Err("artifact: \"id\" must be non-empty".to_string());
    }
    let kind = field_str(artifact, "kind", "artifact")?;
    if kind != "checker" {
        return Err(format!("artifact: kind {kind:?}, expected \"checker\""));
    }

    let meta = field(artifact, "meta", "artifact")?;
    if meta.as_object().is_none() {
        return Err("artifact: \"meta\" must be an object".to_string());
    }
    for key in ["timestamp", "rustc", "threads"] {
        if meta.get(key).is_none() {
            return Err(format!("artifact.meta: missing field {key:?}"));
        }
    }

    field_num(artifact, "achieved_qps", "artifact")?;
    let sent = optional_num(artifact, "sent", "artifact")?;
    let completed = optional_num(artifact, "completed", "artifact")?;
    if let (Some(sent), Some(completed)) = (sent, completed) {
        if completed > sent {
            return Err(format!(
                "artifact: completed {completed} exceeds sent {sent}"
            ));
        }
    }

    let latency = field(artifact, "latency_ns", "artifact")?;
    if latency.as_object().is_none() {
        return Err("artifact: \"latency_ns\" must be an object".to_string());
    }
    let context = "artifact.latency_ns";
    field_num(latency, "count", context)?;
    let p50 = field_num(latency, "p50", context)?;
    let p95 = field_num(latency, "p95", context)?;
    let p99 = field_num(latency, "p99", context)?;
    let max = field_num(latency, "max", context)?;
    if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
        return Err(format!(
            "{context}: quantiles not monotone: p50 {p50} ≤ p95 {p95} ≤ p99 {p99} ≤ max {max} must hold"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::{Map, Value};

    fn latency(p50: u64, p95: u64, p99: u64, max: u64) -> Value {
        let mut map = Map::new();
        map.insert("count", Value::from(100u64));
        map.insert("p50", Value::from(p50));
        map.insert("p95", Value::from(p95));
        map.insert("p99", Value::from(p99));
        map.insert("max", Value::from(max));
        Value::Object(map)
    }

    fn meta() -> Value {
        let mut map = Map::new();
        map.insert("timestamp", Value::from("2026-08-07T00:00:00Z"));
        map.insert("rustc", Value::from("rustc 1.95.0"));
        map.insert("threads", Value::from(4u64));
        Value::Object(map)
    }

    fn minimal() -> Map {
        let mut map = Map::new();
        map.insert("schema", Value::from(BENCH_SCHEMA));
        map.insert("id", Value::from("bench_checker"));
        map.insert("kind", Value::from("checker"));
        map.insert("meta", meta());
        map.insert("achieved_qps", Value::from(480.0));
        map.insert("sent", Value::from(40u64));
        map.insert("completed", Value::from(40u64));
        map.insert("latency_ns", latency(1_000, 5_000, 9_000, 20_000));
        map
    }

    #[test]
    fn accepts_a_minimal_checker_artifact() {
        validate_bench_artifact(&Value::Object(minimal())).unwrap();
    }

    #[test]
    fn rejects_kinds_other_than_checker() {
        let mut map = minimal();
        map.insert("kind", Value::from("svc_open_loop"));
        let err = validate_bench_artifact(&Value::Object(map)).unwrap_err();
        assert!(err.contains("kind"), "{err}");
    }

    #[test]
    fn rejects_wrong_schema_and_missing_fields() {
        let mut map = minimal();
        map.insert("schema", Value::from("minobs/bench/v0"));
        assert!(validate_bench_artifact(&Value::Object(map))
            .unwrap_err()
            .contains("schema"));

        let mut map = minimal();
        map.remove("latency_ns");
        assert!(validate_bench_artifact(&Value::Object(map))
            .unwrap_err()
            .contains("latency_ns"));

        let mut map = minimal();
        map.remove("meta");
        assert!(validate_bench_artifact(&Value::Object(map))
            .unwrap_err()
            .contains("meta"));
    }

    #[test]
    fn rejects_non_monotone_quantiles() {
        let mut map = minimal();
        map.insert("latency_ns", latency(9_000, 5_000, 10_000, 20_000));
        let err = validate_bench_artifact(&Value::Object(map)).unwrap_err();
        assert!(err.contains("monotone"), "{err}");
    }

    #[test]
    fn rejects_completed_above_sent() {
        let mut map = minimal();
        map.insert("completed", Value::from(9_999u64));
        let err = validate_bench_artifact(&Value::Object(map)).unwrap_err();
        assert!(err.contains("completed"), "{err}");
    }
}
