//! Exit handling shared by the experiment binaries.
//!
//! Each `exp_*` binary ends by requiring its JSON artifact, so a failed
//! write fails the run:
//!
//! ```no_run
//! let report = minobs_bench::Report::new("exp_fig1", &["n"]);
//! minobs_bench::cli::require_artifact(report.finish());
//! ```

use std::path::PathBuf;

/// Unwraps an experiment artifact path, treating a failed write
/// ([`crate::Report::finish`] returning `None`) as fatal: the experiment
/// printed its table but the machine-readable artifact is missing, so
/// the run must not report success.
pub fn require_artifact(path: Option<PathBuf>) -> PathBuf {
    match path {
        Some(path) => path,
        None => {
            eprintln!("minobs-bench: experiment artifact was not written; failing the run");
            std::process::exit(1);
        }
    }
}
