//! The `minobs/bench/v1` artifact schema: recorded perf trajectories.
//!
//! Every benchmark run — the `svc bench` open-loop driver, the
//! frequency sweep, and the `bench_checker` baseline — emits one
//! JSON object under this schema so the repo carries a comparable perf
//! trajectory (`BENCH_svc.json`, `BENCH_checker.json` at the repo root)
//! and CI can gate on regressions with `perf_gate`.
//!
//! Required fields:
//!
//! | field | type | meaning |
//! |-------|------|---------|
//! | `schema` | string | exactly [`BENCH_SCHEMA`] |
//! | `id` | string | artifact identity, e.g. `bench_svc` |
//! | `kind` | string | `svc_open_loop`, `svc_open_loop_sweep`, or `checker` today; any string validates (older artifacts say `svc_closed_loop`) |
//! | `meta` | object | provenance: `timestamp`, `rustc`, `threads` (host block from `minobs-bench`) |
//! | `achieved_qps` | number | completed requests per second of wall clock |
//! | `latency_ns` | object | `count`, `p50`, `p95`, `p99`, `max` — monotone `p50 ≤ p95 ≤ p99 ≤ max` |
//!
//! Optional fields with validated invariants:
//!
//! * `offered_qps` — required for the `svc_open_loop*` kinds; when
//!   present, `achieved_qps ≤ offered_qps` must hold (an open-loop
//!   driver can fall behind its schedule but never complete more work
//!   than it offered).
//! * `sent`, `completed`, `errors`, `dropped_by_cap` — counters;
//!   `completed ≤ sent` when both are present.
//! * `sweep` — an array of trial objects, each holding `offered_qps`,
//!   `achieved_qps`, and `latency_ns` under the same invariants.
//! * `knee` — `null` or an object with `offered_qps`: the first sweep
//!   point where the service saturated.
//!
//! `trace_lint` applies [`validate_bench_artifact`] whenever it is
//! handed a file that parses as a single JSON object under this schema.

use serde_json::Value;

/// Version tag carried by every bench artifact.
pub const BENCH_SCHEMA: &str = "minobs/bench/v1";

/// Relative headroom allowed on `achieved ≤ offered`: both sides are
/// computed from independent clock reads, so exact equality can wobble
/// by a rounding ulp without meaning the driver overshot its schedule.
const RATE_TOLERANCE: f64 = 1e-9;

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

/// Checks one latency summary block: `count`, `p50`, `p95`, `p99`, `max`
/// all present, numeric, and monotone `p50 ≤ p95 ≤ p99 ≤ max`.
fn validate_latency(value: &Value, context: &str) -> Result<(), String> {
    let latency = field(value, "latency_ns", context)?;
    if latency.as_object().is_none() {
        return Err(format!("{context}: \"latency_ns\" must be an object"));
    }
    let context = format!("{context}.latency_ns");
    field_num(latency, "count", &context)?;
    let p50 = field_num(latency, "p50", &context)?;
    let p95 = field_num(latency, "p95", &context)?;
    let p99 = field_num(latency, "p99", &context)?;
    let max = field_num(latency, "max", &context)?;
    if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
        return Err(format!(
            "{context}: quantiles not monotone: p50 {p50} ≤ p95 {p95} ≤ p99 {p99} ≤ max {max} must hold"
        ));
    }
    Ok(())
}

/// Checks the rate and counter invariants shared by the artifact root
/// and every sweep trial.
fn validate_rates(value: &Value, context: &str, offered_required: bool) -> Result<(), String> {
    let achieved = field_num(value, "achieved_qps", context)?;
    let offered = optional_num(value, "offered_qps", context)?;
    if offered_required && offered.is_none() {
        return Err(format!(
            "{context}: open-loop artifacts must record \"offered_qps\""
        ));
    }
    if let Some(offered) = offered {
        if achieved > offered * (1.0 + RATE_TOLERANCE) {
            return Err(format!(
                "{context}: achieved_qps {achieved} exceeds offered_qps {offered}"
            ));
        }
    }
    let sent = optional_num(value, "sent", context)?;
    let completed = optional_num(value, "completed", context)?;
    if let (Some(sent), Some(completed)) = (sent, completed) {
        if completed > sent {
            return Err(format!(
                "{context}: completed {completed} exceeds sent {sent}"
            ));
        }
    }
    Ok(())
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
    let open_loop = kind.starts_with("svc_open_loop");

    let meta = field(artifact, "meta", "artifact")?;
    if meta.as_object().is_none() {
        return Err("artifact: \"meta\" must be an object".to_string());
    }
    for key in ["timestamp", "rustc", "threads"] {
        if meta.get(key).is_none() {
            return Err(format!("artifact.meta: missing field {key:?}"));
        }
    }

    validate_rates(artifact, "artifact", open_loop)?;
    validate_latency(artifact, "artifact")?;

    match artifact.get("sweep") {
        None | Some(Value::Null) => {}
        Some(Value::Array(trials)) => {
            if trials.is_empty() {
                return Err("artifact: \"sweep\" must not be empty".to_string());
            }
            for (index, trial) in trials.iter().enumerate() {
                let context = format!("sweep[{index}]");
                if trial.as_object().is_none() {
                    return Err(format!("{context}: must be an object"));
                }
                validate_rates(trial, &context, true)?;
                validate_latency(trial, &context)?;
            }
        }
        Some(_) => return Err("artifact: \"sweep\" must be an array".to_string()),
    }

    match artifact.get("knee") {
        None | Some(Value::Null) => {}
        Some(knee) if knee.as_object().is_some() => {
            field_num(knee, "offered_qps", "knee")?;
        }
        Some(_) => return Err("artifact: \"knee\" must be null or an object".to_string()),
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
        map.insert("id", Value::from("bench_svc"));
        map.insert("kind", Value::from("svc_open_loop"));
        map.insert("meta", meta());
        map.insert("offered_qps", Value::from(500.0));
        map.insert("achieved_qps", Value::from(480.0));
        map.insert("sent", Value::from(2400u64));
        map.insert("completed", Value::from(2350u64));
        map.insert("latency_ns", latency(1_000, 5_000, 9_000, 20_000));
        map
    }

    #[test]
    fn accepts_a_minimal_open_loop_artifact() {
        validate_bench_artifact(&Value::Object(minimal())).unwrap();
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
    fn rejects_achieved_above_offered() {
        let mut map = minimal();
        map.insert("achieved_qps", Value::from(501.0));
        let err = validate_bench_artifact(&Value::Object(map)).unwrap_err();
        assert!(err.contains("exceeds offered"), "{err}");
    }

    #[test]
    fn open_loop_requires_offered_but_checker_does_not() {
        let mut map = minimal();
        map.remove("offered_qps");
        assert!(validate_bench_artifact(&Value::Object(map.clone()))
            .unwrap_err()
            .contains("offered_qps"));
        map.insert("kind", Value::from("checker"));
        validate_bench_artifact(&Value::Object(map)).unwrap();
    }

    #[test]
    fn rejects_completed_above_sent() {
        let mut map = minimal();
        map.insert("completed", Value::from(9_999u64));
        let err = validate_bench_artifact(&Value::Object(map)).unwrap_err();
        assert!(err.contains("completed"), "{err}");
    }

    #[test]
    fn validates_sweep_trials_and_knee() {
        let mut trial = Map::new();
        trial.insert("offered_qps", Value::from(100.0));
        trial.insert("achieved_qps", Value::from(100.0));
        trial.insert("latency_ns", latency(1, 2, 3, 4));
        let mut map = minimal();
        map.insert("kind", Value::from("svc_open_loop_sweep"));
        map.insert("sweep", Value::Array(vec![Value::Object(trial.clone())]));
        let mut knee = Map::new();
        knee.insert("offered_qps", Value::from(100.0));
        map.insert("knee", Value::Object(knee));
        validate_bench_artifact(&Value::Object(map.clone())).unwrap();

        // A saturated trial must still report achieved ≤ offered.
        trial.insert("achieved_qps", Value::from(150.0));
        map.insert("sweep", Value::Array(vec![Value::Object(trial)]));
        let err = validate_bench_artifact(&Value::Object(map)).unwrap_err();
        assert!(err.contains("sweep[0]"), "{err}");
    }

    #[test]
    fn knee_may_be_null() {
        let mut map = minimal();
        map.insert("knee", Value::Null);
        validate_bench_artifact(&Value::Object(map)).unwrap();
    }
}
