//! A `minobs-svcd` child process, run with its default config, the WAL
//! on, and no trace file.

use minobs_svc::SvcClient;
use serde_json::Value;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to answer `ready` or to drain.
const PATIENCE: Duration = Duration::from_secs(30);

/// A running daemon; dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon's last line at exit finds a reader.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: String,
}

impl Daemon {
    /// Spawns `bin` on the verdict log at `wal` and waits for the line
    /// naming its address, which it prints once the log is replayed.
    pub fn start(bin: &Path, wal: &Path) -> Result<Daemon, String> {
        let mut command = Command::new(bin);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("MINOBS_") {
                command.env_remove(key);
            }
        }
        command
            .env("MINOBS_SVC_ADDR", "127.0.0.1:0")
            .env("MINOBS_SVC_WAL", wal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("minobs-svcd listening on "))
            .map(str::to_string);
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report an address (got {line:?})"))
            }
        }
    }

    /// Polls `health` until the daemon reports ready.
    pub fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + PATIENCE;
        loop {
            let health = self.call("health", Value::Null);
            if let Ok(h) = &health {
                if h.get("ready").and_then(Value::as_bool) == Some(true) {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err(format!("daemon at {} never ready: {health:?}", self.addr));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A client connection.
    pub fn client(&self) -> Result<SvcClient, String> {
        SvcClient::connect(self.addr.as_str()).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// One call on a fresh connection.
    pub fn call(&self, method: &str, params: Value) -> Result<Value, String> {
        self.client()?
            .call(method, params)
            .map_err(|e| format!("{method}: {e}"))
    }

    /// The process id, for the memory probe.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.call("shutdown", Value::Null)?;
        let deadline = Instant::now() + PATIENCE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("daemon did not drain".to_string()),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
