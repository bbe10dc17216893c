//! Chaos harness CLI.
//!
//! ```text
//! chaos fuzz --graph <k2|c4|h3> [--seed N] [--runs N] [--over-budget] [--out DIR]
//! chaos replay <artifact.json>...
//! ```
//!
//! `fuzz` runs a seeded campaign. On violations it writes one shrunk
//! reproducer JSON (plus a `minobs/trace/v1` trace sibling) per
//! violating run into `--out` (default `target/chaos`). Exit code 0
//! means "expected outcome": no violations normally; in `--over-budget`
//! mode at least one violation, **all** of kind `budget_exceeded` — a
//! consensus-invariant violation (agreement, validity, termination,
//! conservation) is never an expected outcome and always exits
//! non-zero. The seed can also come from the `MINOBS_CHAOS_SEED`
//! environment variable (the flag wins).
//!
//! `replay` re-runs previously saved artifacts and exits non-zero if
//! any no longer reproduces its recorded violation.

use minobs_chaos::harness::replay_with_trace;
use minobs_chaos::{run_chaos, ChaosConfig, GraphSpec, Reproducer};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  chaos fuzz --graph <k2|c4|h3> [--seed N] [--runs N] [--over-budget] [--out DIR]\n  chaos replay <artifact.json>..."
    );
    ExitCode::FAILURE
}

fn env_seed() -> Option<u64> {
    std::env::var("MINOBS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
}

fn write_artifacts(rep: &Reproducer, dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join(rep.file_name());
    std::fs::write(&json_path, rep.to_json_string())?;
    let (_, events) = replay_with_trace(rep);
    let trace: String = events
        .iter()
        .map(|e| {
            let mut line = serde_json::to_string(&e.to_json()).expect("trace JSON never fails");
            line.push('\n');
            line
        })
        .collect();
    std::fs::write(json_path.with_extension("trace.jsonl"), trace)?;
    Ok(json_path)
}

fn fuzz(args: &[String]) -> ExitCode {
    let mut graph = None;
    let mut seed = env_seed().unwrap_or(1);
    let mut runs = 25usize;
    let mut over_budget = false;
    let mut out = PathBuf::from("target/chaos");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--graph" => match it.next().map(|s| GraphSpec::parse(s)) {
                Some(Some(g)) => graph = Some(g),
                _ => return usage(),
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => return usage(),
            },
            "--runs" => match it.next().and_then(|s| s.parse().ok()) {
                Some(r) => runs = r,
                None => return usage(),
            },
            "--over-budget" => over_budget = true,
            "--out" => match it.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(graph) = graph else {
        return usage();
    };

    let cfg = ChaosConfig {
        graph,
        seed,
        runs,
        over_budget,
    };
    let report = run_chaos(&cfg);
    println!(
        "chaos fuzz: graph {} seed {} — {}/{} runs violated",
        graph, seed, report.violating_runs, report.runs
    );
    for rep in &report.reproducers {
        match write_artifacts(rep, &out) {
            Ok(path) => println!("  {} → {}", rep.violation, path.display()),
            Err(err) => {
                eprintln!("chaos fuzz: cannot write artifact: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Invariant violations (anything but the budget contract breach the
    // over-budget mode exists to provoke) must always fail the run.
    let invariant_violations = report
        .reproducers
        .iter()
        .filter(|rep| rep.violation != "budget_exceeded")
        .count();
    let expected = if over_budget {
        report.violating_runs > 0 && invariant_violations == 0
    } else {
        report.violating_runs == 0
    };
    if expected {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "chaos fuzz: unexpected outcome (over_budget={over_budget}, violations={}, invariant violations={invariant_violations})",
            report.violating_runs
        );
        ExitCode::FAILURE
    }
}

fn replay_files(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        return usage();
    }
    let mut failures = 0usize;
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("chaos replay: cannot read {path}: {err}");
                failures += 1;
                continue;
            }
        };
        let rep = match Reproducer::from_json_str(&text) {
            Ok(rep) => rep,
            Err(err) => {
                eprintln!("chaos replay: {path}: {err}");
                failures += 1;
                continue;
            }
        };
        let (outcome, _) = replay_with_trace(&rep);
        if outcome.reproduced {
            println!("chaos replay: {path}: reproduced {}", rep.violation);
        } else {
            eprintln!(
                "chaos replay: {path}: expected {} — observed {:?}",
                rep.violation,
                outcome
                    .violations
                    .iter()
                    .map(|v| v.kind())
                    .collect::<Vec<_>>()
            );
            failures += 1;
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = minobs_obs::cli::handle_common_flags(
        "chaos",
        "seeded adversary fuzzing with counterexample shrinking",
        "chaos fuzz --graph <k2|c4|h3> [--seed N] [--runs N] [--over-budget] [--out DIR]\n  chaos replay <artifact.json>...",
    );
    match args.first().map(String::as_str) {
        Some("fuzz") => fuzz(&args[1..]),
        Some("replay") => replay_files(&args[1..]),
        _ => usage(),
    }
}
