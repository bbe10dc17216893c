//! Pinned reproducer regression suite.
//!
//! `tests/reproducers/` holds shrunk counterexamples the chaos harness
//! found under pinned seeds (see `docs/CHAOS.md`). Each artifact must
//! keep reproducing its recorded violation forever — if an engine or
//! adversary change breaks one, that is a behavioral regression, not a
//! stale fixture. The suite also re-derives one artifact from its seed
//! to pin the full find → shrink → serialize pipeline byte-for-byte.

use minobs_chaos::{replay, run_chaos, ChaosConfig, GraphSpec, Reproducer};
use std::path::PathBuf;

fn reproducer_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/reproducers")
}

fn load_all() -> Vec<(String, Reproducer)> {
    let mut artifacts: Vec<(String, Reproducer)> = std::fs::read_dir(reproducer_dir())
        .expect("tests/reproducers must exist")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable artifact");
            let rep =
                Reproducer::from_json_str(&text).unwrap_or_else(|err| panic!("{name}: {err}"));
            (name, rep)
        })
        .collect();
    artifacts.sort_by(|a, b| a.0.cmp(&b.0));
    artifacts
}

#[test]
fn every_pinned_reproducer_still_reproduces() {
    let artifacts = load_all();
    assert!(
        artifacts.len() >= 3,
        "expected at least one artifact per named graph"
    );
    for (name, rep) in &artifacts {
        let outcome = replay(rep);
        assert!(
            outcome.reproduced,
            "{name}: expected {} — observed {:?}",
            rep.violation, outcome.violations
        );
    }
}

#[test]
fn pinned_artifacts_cover_all_named_graphs() {
    let artifacts = load_all();
    for graph in GraphSpec::ALL {
        assert!(
            artifacts.iter().any(|(_, r)| r.graph == graph),
            "no pinned reproducer for {graph}"
        );
    }
}

#[test]
fn pinned_seed_rederives_the_artifact_byte_for_byte() {
    // The checked-in c4 artifact came from this exact campaign; the
    // whole pipeline (sampling, execution, shrinking, serialization)
    // must stay deterministic for `chaos replay` workflows to be
    // trustworthy.
    let report = run_chaos(&ChaosConfig {
        graph: GraphSpec::C4,
        seed: 7,
        runs: 1,
        over_budget: true,
    });
    assert_eq!(report.violating_runs, 1);
    let derived = report.reproducers[0].to_json_string();
    let pinned =
        std::fs::read_to_string(reproducer_dir().join("c4_seed7_run0_budget_exceeded.json"))
            .expect("pinned c4 artifact");
    assert_eq!(derived, pinned);
}
