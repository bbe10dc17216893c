//! PERF-GATE — the CI regression gate over `minobs/bench/v1` artifacts.
//!
//! Compares a freshly measured bench artifact against the baseline
//! committed in-tree and fails (exit 1) when throughput dropped or p99
//! latency rose beyond the allowed thresholds, printing one line per
//! regression so the CI log names exactly what degraded:
//!
//! ```text
//! perf_gate <current.json> <baseline.json> \
//!           [--max-qps-drop PCT] [--max-p99-rise PCT]
//! ```
//!
//! Defaults: 15% throughput drop, 25% p99 rise (the bounds ISSUE'd for
//! the `perf` CI job). Both artifacts are schema-validated first, so a
//! malformed baseline fails loudly instead of vacuously passing. On
//! failure the CI job follows up with `trace profile` + `trace diff`
//! against the baseline's trace to name the culprit span — this binary
//! only decides *whether* to fail, the trace tools explain *why*.

use minobs_obs::validate_bench_artifact;
use serde_json::Value;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf_gate <current.json> <baseline.json> [--max-qps-drop PCT] [--max-p99-rise PCT]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = minobs_bench::cli::handle_common_flags(
        "perf_gate",
        "fail when a bench artifact regresses against a committed baseline",
        "perf_gate BENCH_current.json ci/perf/BENCH_baseline.json",
    );
    let mut paths = Vec::new();
    let mut max_qps_drop = 15.0f64;
    let mut max_p99_rise = 25.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-qps-drop" => match it.next().and_then(|s| s.parse().ok()) {
                Some(p) if p >= 0.0 => max_qps_drop = p,
                _ => return usage(),
            },
            "--max-p99-rise" => match it.next().and_then(|s| s.parse().ok()) {
                Some(p) if p >= 0.0 => max_p99_rise = p,
                _ => return usage(),
            },
            path if !path.starts_with("--") => paths.push(path.to_string()),
            _ => return usage(),
        }
    }
    let [current_path, baseline_path] = paths.as_slice() else {
        return usage();
    };

    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e:?}"))
    };
    let (current, baseline) = match (load(current_path), load(baseline_path)) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf_gate: {e}");
            return ExitCode::FAILURE;
        }
    };

    match compare(&current, &baseline, max_qps_drop, max_p99_rise) {
        Ok(regressions) if regressions.is_empty() => {
            println!("perf_gate: PASS ({current_path} vs {baseline_path})");
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            for line in &regressions {
                eprintln!("perf_gate: REGRESSION: {line}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perf_gate: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Validates both artifacts and returns the list of threshold
/// violations (empty when the gate passes).
fn compare(
    current: &Value,
    baseline: &Value,
    max_qps_drop: f64,
    max_p99_rise: f64,
) -> Result<Vec<String>, String> {
    validate_bench_artifact(current).map_err(|e| format!("current artifact invalid: {e}"))?;
    validate_bench_artifact(baseline).map_err(|e| format!("baseline artifact invalid: {e}"))?;

    let num = |artifact: &Value, which: &str, path: &[&str]| -> Result<f64, String> {
        let mut cursor = artifact;
        for key in path {
            cursor = cursor
                .get(key)
                .ok_or_else(|| format!("{which} artifact missing {}", path.join(".")))?;
        }
        cursor
            .as_f64()
            .ok_or_else(|| format!("{which} {} is not a number", path.join(".")))
    };

    let mut regressions = Vec::new();

    let base_qps = num(baseline, "baseline", &["achieved_qps"])?;
    let cur_qps = num(current, "current", &["achieved_qps"])?;
    if base_qps > 0.0 {
        let drop_pct = (base_qps - cur_qps) / base_qps * 100.0;
        if drop_pct > max_qps_drop {
            regressions.push(format!(
                "throughput dropped {drop_pct:.1}% ({base_qps:.1} → {cur_qps:.1} qps, allowed {max_qps_drop:.0}%)"
            ));
        }
    }

    let base_p99 = num(baseline, "baseline", &["latency_ns", "p99"])?;
    let cur_p99 = num(current, "current", &["latency_ns", "p99"])?;
    if base_p99 > 0.0 {
        let rise_pct = (cur_p99 - base_p99) / base_p99 * 100.0;
        if rise_pct > max_p99_rise {
            regressions.push(format!(
                "p99 latency rose {rise_pct:.1}% ({:.2} ms → {:.2} ms, allowed {max_p99_rise:.0}%)",
                base_p99 / 1.0e6,
                cur_p99 / 1.0e6,
            ));
        }
    }

    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Map;

    fn artifact(qps: f64, p99: f64) -> Value {
        let mut latency = Map::new();
        latency.insert("count", Value::from(100u64));
        latency.insert("p50", Value::from(p99 / 4.0));
        latency.insert("p95", Value::from(p99 / 2.0));
        latency.insert("p99", Value::from(p99));
        latency.insert("max", Value::from(p99 * 2.0));
        let mut meta = Map::new();
        meta.insert("timestamp", Value::from("2026-08-07T00:00:00Z"));
        meta.insert("rustc", Value::from("rustc"));
        meta.insert("threads", Value::from(1u64));
        let mut map = Map::new();
        map.insert("schema", Value::from(minobs_obs::BENCH_SCHEMA));
        map.insert("id", Value::from("gate_test"));
        map.insert("kind", Value::from("checker"));
        map.insert("meta", Value::Object(meta));
        map.insert("achieved_qps", Value::from(qps));
        map.insert("latency_ns", Value::Object(latency));
        Value::Object(map)
    }

    #[test]
    fn passes_within_thresholds() {
        let baseline = artifact(1000.0, 5.0e6);
        // 10% slower, 20% higher p99: inside 15%/25%.
        let current = artifact(900.0, 6.0e6);
        assert!(compare(&current, &baseline, 15.0, 25.0).unwrap().is_empty());
        // Improvements never trip the gate.
        let faster = artifact(2000.0, 1.0e6);
        assert!(compare(&faster, &baseline, 15.0, 25.0).unwrap().is_empty());
    }

    #[test]
    fn fails_and_names_a_throughput_drop_beyond_threshold() {
        let baseline = artifact(1000.0, 5.0e6);
        let current = artifact(800.0, 5.0e6); // 20% drop > 15%
        let regressions = compare(&current, &baseline, 15.0, 25.0).unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(
            regressions[0].contains("throughput dropped 20.0%"),
            "{regressions:?}"
        );
    }

    #[test]
    fn fails_and_names_a_p99_rise_beyond_threshold() {
        let baseline = artifact(1000.0, 5.0e6);
        let current = artifact(1000.0, 7.0e6); // 40% rise > 25%
        let regressions = compare(&current, &baseline, 15.0, 25.0).unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(
            regressions[0].contains("p99 latency rose 40.0%"),
            "{regressions:?}"
        );
    }

    #[test]
    fn reports_both_regressions_at_once() {
        let baseline = artifact(1000.0, 5.0e6);
        let current = artifact(500.0, 20.0e6);
        let regressions = compare(&current, &baseline, 15.0, 25.0).unwrap();
        assert_eq!(regressions.len(), 2);
    }

    #[test]
    fn invalid_artifacts_error_instead_of_passing() {
        let baseline = artifact(1000.0, 5.0e6);
        let mut broken = artifact(1000.0, 5.0e6);
        if let Value::Object(map) = &mut broken {
            map.remove("latency_ns");
        }
        let err = compare(&broken, &baseline, 15.0, 25.0).unwrap_err();
        assert!(err.contains("current artifact invalid"), "{err}");
        let err = compare(&baseline, &broken, 15.0, 25.0).unwrap_err();
        assert!(err.contains("baseline artifact invalid"), "{err}");
    }
}
