//! The solvability-query daemon.
//!
//! Binds `MINOBS_SVC_ADDR` (default `127.0.0.1:0`), prints the bound
//! address, and serves until a `shutdown` request drains it. See
//! `docs/SERVICE.md` for the protocol and environment reference.

use minobs_svc::server::{serve, SvcConfig};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    minobs_obs::cli::handle_common_flags(
        "minobs-svcd",
        "solvability-query daemon (TCP, minobs/rpc/v1)",
        "MINOBS_SVC_ADDR=127.0.0.1:7171 MINOBS_SVC_WORKERS=4 minobs-svcd",
    );

    keep_freed_memory();
    let config = SvcConfig::from_env();
    let wal_configured = config.wal_path.is_some();
    let server = match serve(config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("minobs-svcd: cannot bind: {err}");
            return ExitCode::FAILURE;
        }
    };
    match server.state().wal_replay_report() {
        Some(report) if server.state().wal_active() => eprintln!(
            "minobs-svcd: wal replayed {} records ({} bytes{})",
            report.records,
            report.bytes,
            if report.dropped_tail {
                ", torn tail dropped"
            } else {
                ""
            },
        ),
        Some(_) | None if wal_configured => {
            eprintln!("minobs-svcd: wal unavailable, running memory-only (degraded)");
        }
        _ => {}
    }
    // Flush so harnesses polling stdout see the address immediately.
    println!("minobs-svcd listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    server.join();
    println!("minobs-svcd drained");
    ExitCode::SUCCESS
}

/// Makes glibc keep freed heap memory for reuse instead of returning it
/// to the kernel. Checker requests allocate and free frontiers of up to
/// several MiB; by default each free trims the heap top and each large
/// block is a fresh `mmap`, so every request faults its working set back
/// in. How much it faults also depends on whether its connection thread
/// reuses a warm malloc arena or opens a cold one (a thread spawned
/// before the previous connection's thread has exited opens a new one),
/// and on how far glibc's sliding mmap threshold has risen since start.
/// Fixed thresholds make that cost small and the same from run to run
/// (see "Concurrency and graceful shutdown" in `docs/SERVICE.md`).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    // From glibc's <malloc.h>.
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets allocator parameters, and runs here
    // before any other thread exists.
    unsafe {
        // 32 MiB is the largest mmap threshold glibc accepts on 64-bit.
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 256 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}
