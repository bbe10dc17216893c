//! Shared `--help`/`--version` handling for every workspace binary.
//!
//! One call at the top of `main` gives each binary uniform flag
//! behaviour without a CLI-parser dependency:
//!
//! ```no_run
//! let args = minobs_obs::cli::handle_common_flags(
//!     "exp_fig1",
//!     "regenerates Figure 1's index table",
//!     "exp_fig1",
//! );
//! ```

/// The workspace version, baked at compile time (every crate shares the
/// workspace version number).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Scans the command line for `--help`/`-h` and `--version`/`-V`; prints
/// the corresponding text and exits 0 when found. Otherwise returns the
/// remaining arguments (without the binary name) for the caller to parse.
pub fn handle_common_flags(name: &str, about: &str, usage: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for arg in &args {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{name} — {about}\n\nusage:\n  {usage}");
                println!("\noptions:\n  -h, --help     print this help\n  -V, --version  print the version");
                std::process::exit(0);
            }
            "--version" | "-V" => {
                println!("{name} {VERSION}");
                std::process::exit(0);
            }
            _ => {}
        }
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_is_the_workspace_version() {
        assert_eq!(VERSION, "0.1.0");
    }

    #[test]
    fn plain_args_pass_through() {
        // No -h/-V in the test harness's own args beyond the filter
        // position; handle_common_flags only exits on exact matches.
        let args = handle_common_flags("t", "about", "t");
        assert!(args.iter().all(|a| a != "--help" && a != "--version"));
    }
}
