//! PERF-GATE — compares two recorded benchmark trajectories.
//!
//! ```text
//! perf_gate <parent.json> <change.json>
//! ```
//!
//! Each file is a recording `run_experiments.sh` writes from the
//! benchmark (`perfbench`) for one workload, `BENCH_hit.json` or
//! `BENCH_miss.json`: `{"workload", "seconds", "runs", "layers"}`, where
//! `runs` holds the result objects of several `--trace 0` runs and
//! `layers` the result object of one `--trace 1` run. Record both sides
//! on the same machine: a comparison across machines measures the
//! machines.
//!
//! For every end-to-end metric of `BENCHMARK.json` the gate takes both
//! sides' medians over `runs` and the parent's interquartile spread,
//! and reads the metric's bound and better direction from
//! `BENCHMARK.json`. It reports the metric as
//!
//! * `unresolved` when the parent's spread is wider than the bound (the
//!   runs cannot tell a regression of that size from noise);
//! * `worse` when the change's median is worse than the parent's by
//!   more than the bound;
//! * `better` when it is better by more than the parent's spread;
//! * `within` otherwise.
//!
//! It then lists the per-layer metrics of the two `layers` runs, largest
//! relative move first, so the stage that moved is named.
//!
//! Exit codes: 0 when no metric is `worse`, 1 when one is (each is
//! named), 2 when a recording cannot be read or is malformed.

use serde_json::Value;
use std::fmt;
use std::process::ExitCode;

/// The benchmark's declaration: metric names, bounds and directions.
const BENCHMARK: &str = include_str!("../../../../BENCHMARK.json");

/// What the gate concluded about one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One end-to-end metric, both sides summarised.
#[derive(Debug)]
struct EndToEnd {
    name: String,
    unit: String,
    bound: f64,
    parent: f64,
    parent_spread: f64,
    change: f64,
    verdict: Verdict,
}

/// One per-layer metric of the traced runs.
#[derive(Debug)]
struct Layer {
    name: String,
    unit: String,
    parent: f64,
    change: f64,
    /// `(change − parent) / |parent|`; infinite when only the parent is 0.
    moved: f64,
    /// Whether the move is in the metric's worse direction.
    worse: bool,
}

/// The comparison of two recordings of one workload.
#[derive(Debug)]
struct Comparison {
    workload: String,
    end_to_end: Vec<EndToEnd>,
    layers: Vec<Layer>,
}

impl Comparison {
    /// Names of the metrics that got worse than their bound.
    fn worse(&self) -> Vec<&str> {
        self.end_to_end
            .iter()
            .filter(|metric| metric.verdict == Verdict::Worse)
            .map(|metric| metric.name.as_str())
            .collect()
    }
}

fn main() -> ExitCode {
    let args = minobs_obs::cli::handle_common_flags(
        "perf_gate",
        "compare two recorded benchmark trajectories under BENCHMARK.json's bounds",
        "perf_gate parent/BENCH_hit.json BENCH_hit.json",
    );
    let [parent_path, change_path] = args.as_slice() else {
        eprintln!("usage: perf_gate <parent.json> <change.json>");
        return ExitCode::from(2);
    };
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e:?}"))
    };
    let benchmark: Value = serde_json::from_str(BENCHMARK).expect("BENCHMARK.json is JSON");
    let comparison = load(parent_path).and_then(|parent| {
        let change = load(change_path)?;
        compare(&benchmark, &parent, &change)
    });
    let comparison = match comparison {
        Ok(comparison) => comparison,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", render(&comparison));
    let worse = comparison.worse();
    if worse.is_empty() {
        println!("perf_gate: PASS ({parent_path} → {change_path})");
        ExitCode::SUCCESS
    } else {
        println!("perf_gate: WORSE: {}", worse.join(", "));
        ExitCode::FAILURE
    }
}

/// Reads `key` of `value` as a number.
fn number(value: &Value, key: &str, context: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(Value::as_f64)
        .filter(|n| n.is_finite())
        .ok_or_else(|| format!("{context}: {key:?} must be a finite number"))
}

/// Reads `key` of `value` as a string.
fn text<'a>(value: &'a Value, key: &str, context: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{context}: {key:?} must be a string"))
}

/// The value of metric `name` in one benchmark result object.
fn metric(result: &Value, name: &str, context: &str) -> Result<f64, String> {
    let entry = result
        .get("metrics")
        .and_then(|metrics| metrics.get(name))
        .ok_or_else(|| format!("{context}: no metric {name:?}"))?;
    number(entry, "value", &format!("{context}.{name}"))
}

/// The `q`-quantile of sorted `values`, interpolating linearly between
/// order statistics.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (low, high) = (at.floor() as usize, at.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (at - low as f64)
}

/// `(change − parent) / |parent|`, with `0/0` read as no move.
fn relative(parent: f64, change: f64) -> f64 {
    if change == parent {
        0.0
    } else if parent == 0.0 {
        f64::INFINITY.copysign(change)
    } else {
        (change - parent) / parent.abs()
    }
}

type Recording<'a> = (&'a str, f64, &'a [Value], &'a Value);

/// Checks a recording's shape and returns its workload, seconds, runs
/// and traced run.
fn runs<'a>(recording: &'a Value, side: &str) -> Result<Recording<'a>, String> {
    let workload = text(recording, "workload", side)?;
    let seconds = number(recording, "seconds", side)?;
    let runs = recording
        .get("runs")
        .and_then(Value::as_array)
        .filter(|runs| !runs.is_empty())
        .ok_or_else(|| format!("{side}: \"runs\" must be a non-empty array"))?;
    let layers = recording
        .get("layers")
        .filter(|layers| layers.as_object().is_some())
        .ok_or_else(|| format!("{side}: \"layers\" must be a result object"))?;
    Ok((workload, seconds, runs, layers))
}

/// Compares two recordings of one workload under `benchmark`'s metrics.
fn compare(benchmark: &Value, parent: &Value, change: &Value) -> Result<Comparison, String> {
    let (workload, seconds, parent_runs, parent_layers) = runs(parent, "parent")?;
    let (change_workload, change_seconds, change_runs, change_layers) = runs(change, "change")?;
    if (workload, seconds) != (change_workload, change_seconds) {
        return Err(format!(
            "the recordings differ: parent {workload} at {seconds} s, change {change_workload} at {change_seconds} s"
        ));
    }
    let declared = |key: &str| {
        benchmark
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: {key:?} must be an array"))
    };

    let mut end_to_end = Vec::new();
    for declaration in declared("end_to_end")? {
        let name = text(declaration, "name", "BENCHMARK.json end_to_end")?;
        let unit = text(declaration, "unit", name)?;
        let bound = number(declaration, "bound", name)?;
        let higher_is_better = text(declaration, "better", name)? == "higher";
        let sorted = |side: &str, runs: &[Value]| -> Result<Vec<f64>, String> {
            let mut values = runs
                .iter()
                .enumerate()
                .map(|(i, run)| metric(run, name, &format!("{side}.runs[{i}]")))
                .collect::<Result<Vec<f64>, String>>()?;
            values.sort_by(f64::total_cmp);
            Ok(values)
        };
        let parent_values = sorted("parent", parent_runs)?;
        let change_values = sorted("change", change_runs)?;
        let parent_median = quantile(&parent_values, 0.5);
        let change_median = quantile(&change_values, 0.5);
        let spread = quantile(&parent_values, 0.75) - quantile(&parent_values, 0.25);
        // Positive when the change is worse, in units of the parent median.
        let mut worse_by = relative(parent_median, change_median);
        if higher_is_better {
            worse_by = -worse_by;
        }
        let improvement = if higher_is_better {
            change_median - parent_median
        } else {
            parent_median - change_median
        };
        let verdict = if relative(parent_median, parent_median + spread) > bound {
            Verdict::Unresolved
        } else if worse_by > bound {
            Verdict::Worse
        } else if improvement > spread {
            Verdict::Better
        } else {
            Verdict::Within
        };
        end_to_end.push(EndToEnd {
            name: name.to_string(),
            unit: unit.to_string(),
            bound,
            parent: parent_median,
            parent_spread: spread,
            change: change_median,
            verdict,
        });
    }

    let mut layers = Vec::new();
    for declaration in declared("per_layer")? {
        let name = text(declaration, "name", "BENCHMARK.json per_layer")?;
        let unit = text(declaration, "unit", name)?;
        let higher_is_better = text(declaration, "better", name)? == "higher";
        let parent = metric(parent_layers, name, "parent.layers")?;
        let change = metric(change_layers, name, "change.layers")?;
        let moved = relative(parent, change);
        layers.push(Layer {
            name: name.to_string(),
            unit: unit.to_string(),
            parent,
            change,
            moved,
            worse: (moved > 0.0) != higher_is_better && moved != 0.0,
        });
    }
    layers.sort_by(|a, b| b.moved.abs().total_cmp(&a.moved.abs()));

    Ok(Comparison {
        workload: workload.to_string(),
        end_to_end,
        layers,
    })
}

/// The human-readable report: one line per end-to-end metric, then the
/// per-layer moves.
fn render(comparison: &Comparison) -> String {
    let mut out = format!(
        "perf_gate: {} (median of the runs; spread is the parent's interquartile range)\n",
        comparison.workload
    );
    for m in &comparison.end_to_end {
        out += &format!(
            "  {:<12} parent {:>10.4} (spread {:.4})  change {:>10.4} {:<4} {:>+8.1}%  bound {:>3.0}%  {}\n",
            m.name,
            m.parent,
            m.parent_spread,
            m.change,
            m.unit,
            relative(m.parent, m.change) * 100.0,
            m.bound * 100.0,
            m.verdict,
        );
    }
    out += "  per layer (traced runs), largest relative move first:\n";
    for layer in &comparison.layers {
        out += &format!(
            "    {:<28} {:>12.4} → {:>12.4} {:<5} {:>+9.1}%{}\n",
            layer.name,
            layer.parent,
            layer.change,
            layer.unit,
            layer.moved * 100.0,
            if layer.worse { "  worse" } else { "" },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Map;

    const DEFAULTS: &[(&str, f64)] = &[];

    fn benchmark() -> Value {
        serde_json::from_str(BENCHMARK).unwrap()
    }

    /// A result object holding `metrics`, every other declared metric of
    /// `kind` (`end_to_end` or `per_layer`) reading 1.
    fn result(kind: &str, metrics: &[(&str, f64)]) -> Value {
        let mut map = Map::new();
        let benchmark = benchmark();
        for declaration in benchmark.get(kind).and_then(Value::as_array).unwrap() {
            let name = declaration.get("name").and_then(Value::as_str).unwrap();
            let value = metrics
                .iter()
                .find(|(metric, _)| *metric == name)
                .map_or(1.0, |(_, value)| *value);
            let mut entry = Map::new();
            entry.insert("value", Value::from(value));
            entry.insert("unit", declaration.get("unit").unwrap().clone());
            map.insert(name, Value::Object(entry));
        }
        let mut out = Map::new();
        out.insert("correct", Value::from(true));
        out.insert("metrics", Value::Object(map));
        Value::Object(out)
    }

    /// A `hit` recording: one run per entry of `runs`, and a traced run.
    fn recording(runs: &[&[(&str, f64)]], layers: &[(&str, f64)]) -> Value {
        let mut map = Map::new();
        map.insert("workload", Value::from("hit"));
        map.insert("seconds", Value::from(50u64));
        map.insert(
            "runs",
            Value::Array(runs.iter().map(|run| result("end_to_end", run)).collect()),
        );
        map.insert("layers", result("per_layer", layers));
        Value::Object(map)
    }

    /// Five runs whose `name` reads `values`, other metrics 1.
    fn five(name: &'static str, values: [f64; 5]) -> Value {
        let runs: Vec<[(&str, f64); 1]> = values.iter().map(|v| [(name, *v)]).collect();
        let runs: Vec<&[(&str, f64)]> = runs.iter().map(|run| &run[..]).collect();
        recording(&runs, &[])
    }

    fn verdict(comparison: &Comparison, name: &str) -> Verdict {
        comparison
            .end_to_end
            .iter()
            .find(|metric| metric.name == name)
            .unwrap()
            .verdict
    }

    #[test]
    fn passes_within_thresholds() {
        // Identical recordings pass, every metric within its bound.
        let same = five("p50_ms", [0.10, 0.11, 0.12, 0.11, 0.10]);
        let comparison = compare(&benchmark(), &same, &same).unwrap();
        assert!(comparison.worse().is_empty());
        assert!(comparison
            .end_to_end
            .iter()
            .all(|metric| metric.verdict == Verdict::Within));
        assert!(comparison.layers.iter().all(|layer| layer.moved == 0.0));
        // A 10% slower median is inside the 25% bound.
        let slower = five("p50_ms", [0.11, 0.121, 0.132, 0.121, 0.11]);
        let comparison = compare(&benchmark(), &same, &slower).unwrap();
        assert_eq!(verdict(&comparison, "p50_ms"), Verdict::Within);
    }

    #[test]
    fn fails_and_names_a_p50_rise_beyond_its_bound() {
        let parent = five("p50_ms", [0.100, 0.101, 0.102, 0.101, 0.100]);
        let change = five("p50_ms", [0.200, 0.202, 0.204, 0.202, 0.200]);
        let comparison = compare(&benchmark(), &parent, &change).unwrap();
        assert_eq!(comparison.worse(), ["p50_ms"]);
        assert!(render(&comparison).contains("p50_ms"));
        // The reverse move is a gain larger than the parent's spread.
        let comparison = compare(&benchmark(), &change, &parent).unwrap();
        assert_eq!(verdict(&comparison, "p50_ms"), Verdict::Better);
    }

    #[test]
    fn fails_and_names_a_throughput_drop_beyond_threshold() {
        // Higher is better for peak_qps: halving it is worse.
        let parent = five("peak_qps", [9000.0, 9100.0, 9200.0, 9100.0, 9000.0]);
        let change = five("peak_qps", [4500.0, 4550.0, 4600.0, 4550.0, 4500.0]);
        let comparison = compare(&benchmark(), &parent, &change).unwrap();
        assert_eq!(comparison.worse(), ["peak_qps"]);
    }

    #[test]
    fn reports_both_regressions_at_once() {
        let parent = recording(&[&[("p50_ms", 0.1), ("peak_qps", 9000.0)][..]; 5], &[]);
        let change = recording(&[&[("p50_ms", 0.3), ("peak_qps", 3000.0)][..]; 5], &[]);
        let comparison = compare(&benchmark(), &parent, &change).unwrap();
        assert_eq!(comparison.worse(), ["p50_ms", "peak_qps"]);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_worse() {
        // p75_ms bimodal across the parent's runs: quartiles 0.16 and
        // 1.5 against a 0.2 median, far past the 25% bound.
        let parent = five("p75_ms", [0.15, 0.16, 0.20, 1.50, 1.90]);
        let change = five("p75_ms", [0.40, 0.41, 0.42, 0.43, 0.44]);
        let comparison = compare(&benchmark(), &parent, &change).unwrap();
        assert_eq!(verdict(&comparison, "p75_ms"), Verdict::Unresolved);
        assert!(comparison.worse().is_empty(), "unresolved exits 0");
    }

    #[test]
    fn the_layer_that_moved_most_is_listed_first() {
        let parent = recording(&[DEFAULTS; 5], &[("wire.encode_us_p50", 0.8)]);
        let change = recording(
            &[DEFAULTS; 5],
            &[("wire.encode_us_p50", 1.6), ("wire.decode_us_p50", 1.1)],
        );
        let comparison = compare(&benchmark(), &parent, &change).unwrap();
        let first = &comparison.layers[0];
        assert_eq!(first.name, "wire.encode_us_p50");
        assert_eq!(first.moved, 1.0);
        assert!(first.worse);
        assert_eq!(comparison.layers[1].name, "wire.decode_us_p50");
        // Per-layer moves are reported, not gated.
        assert!(comparison.worse().is_empty());
    }

    #[test]
    fn invalid_artifacts_error_instead_of_passing() {
        let good = recording(&[DEFAULTS; 5], &[]);
        let mut no_metric = good.clone();
        if let Value::Object(map) = &mut no_metric {
            let mut run = result("end_to_end", &[]);
            if let Value::Object(run_map) = &mut run {
                run_map.insert("metrics", Value::Object(Map::new()));
            }
            map.insert("runs", Value::Array(vec![run]));
        }
        let err = compare(&benchmark(), &good, &no_metric).unwrap_err();
        assert!(err.contains("change.runs[0]"), "{err}");
        for key in ["workload", "runs", "layers"] {
            let mut broken = good.clone();
            if let Value::Object(map) = &mut broken {
                map.remove(key);
            }
            let err = compare(&benchmark(), &broken, &good).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
        let mut other = good.clone();
        if let Value::Object(map) = &mut other {
            map.insert("workload", Value::from("miss"));
        }
        assert!(compare(&benchmark(), &good, &other).is_err());
    }
}
