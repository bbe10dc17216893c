//! Streaming JSONL export of the trace event stream.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::event::TraceEvent;
use crate::recorder::Recorder;

/// A [`Recorder`] that writes one JSON object per line to any writer.
///
/// Lines follow the versioned schema described in
/// `docs/OBSERVABILITY.md`: every object carries `schema`, `event`, and
/// `round`. I/O errors are reported to stderr once and the sink goes
/// quiet rather than panicking mid-run.
pub struct JsonlSink<W: Write> {
    // `Option` only so `into_inner` can move the writer out past `Drop`.
    writer: Option<W>,
    lines: u64,
    failed: bool,
    /// When set, every emitted line gains a `node_id` field — the stable
    /// node identity `trace stitch` groups multi-node streams by.
    node_id: Option<String>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (or truncates) `path`, creating parent directories.
    pub fn create(path: &Path) -> io::Result<JsonlSink<BufWriter<File>>> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            writer: Some(writer),
            lines: 0,
            failed: false,
            node_id: None,
        }
    }

    /// Stamps `node_id` onto every subsequent line. Empty ids are
    /// ignored — an unstamped stream stays byte-identical to pre-cluster
    /// traces.
    pub fn set_node_id(&mut self, node_id: &str) {
        if !node_id.is_empty() {
            self.node_id = Some(node_id.to_string());
        }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the writer.
    pub fn into_inner(mut self) -> W {
        let mut writer = self.writer.take().expect("writer present until drop");
        let _ = writer.flush();
        writer
    }

    /// Flushes buffered lines.
    pub fn flush(&mut self) -> io::Result<()> {
        match self.writer.as_mut() {
            Some(writer) => writer.flush(),
            None => Ok(()),
        }
    }

    fn write_event(&mut self, event: &TraceEvent) {
        if self.failed {
            return;
        }
        let mut json = event.to_json();
        if let (Some(node_id), serde_json::Value::Object(map)) = (&self.node_id, &mut json) {
            map.insert("node_id", serde_json::Value::from(node_id.as_str()));
        }
        let line = match serde_json::to_string(&json) {
            Ok(line) => line,
            Err(err) => {
                eprintln!("minobs-obs: trace serialisation failed: {err}");
                self.failed = true;
                return;
            }
        };
        let writer = self.writer.as_mut().expect("writer present until drop");
        if let Err(err) = writeln!(writer, "{line}") {
            eprintln!("minobs-obs: trace write failed, disabling sink: {err}");
            self.failed = true;
            return;
        }
        self.lines += 1;
    }
}

impl<W: Write> Recorder for JsonlSink<W> {
    fn record(&mut self, event: TraceEvent) {
        self.write_event(&event);
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.as_mut() {
            let _ = writer.flush();
        }
    }
}

/// Resolves the trace path requested via the `MINOBS_TRACE` environment
/// variable, if any.
///
/// * unset, empty, or `0` → `None` (tracing off);
/// * `1`, `true`, `on` → `Some(default)`;
/// * anything else → `Some(that value as a path)`.
pub fn trace_path_from_env(default: &Path) -> Option<PathBuf> {
    resolve_trace_value(&std::env::var("MINOBS_TRACE").ok()?, default)
}

/// The pure spelling rules behind [`trace_path_from_env`].
pub fn resolve_trace_value(value: &str, default: &Path) -> Option<PathBuf> {
    match value {
        "" | "0" => None,
        "1" | "true" | "on" => Some(default.to_path_buf()),
        path => Some(PathBuf::from(path)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MessageStatus, RoundCounts};
    use serde_json::Value;

    #[test]
    fn writes_one_parseable_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(TraceEvent::RunStart {
            engine: "network",
            nodes: 4,
            threads: 1,
        });
        sink.record(TraceEvent::Message {
            round: 0,
            from: 1,
            to: 2,
            status: MessageStatus::Delivered,
        });
        sink.record(TraceEvent::RoundEnd {
            round: 0,
            counts: RoundCounts::default(),
            nanos: 0,
        });
        sink.record(TraceEvent::RunEnd {
            rounds: 1,
            totals: RoundCounts::default(),
            nanos: 0,
        });
        assert_eq!(sink.lines(), 4);
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in lines {
            let value: Value = serde_json::from_str(line).unwrap();
            assert!(value.get("schema").is_some());
            assert!(value.get("event").is_some());
            assert!(value.get("round").is_some());
        }
    }

    #[test]
    fn node_id_stamps_every_line_once_set() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(TraceEvent::Decision {
            round: 0,
            node: 0,
            value: 1,
        });
        sink.set_node_id("127.0.0.1:7400");
        sink.record(TraceEvent::Decision {
            round: 0,
            node: 1,
            value: 1,
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<Value> = text
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        assert_eq!(lines[0].get("node_id"), None, "pre-stamp lines unchanged");
        assert_eq!(
            lines[1].get("node_id").and_then(Value::as_str),
            Some("127.0.0.1:7400")
        );
    }

    #[test]
    fn create_writes_through_missing_directories() {
        let dir = std::env::temp_dir().join(format!(
            "minobs-obs-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("nested").join("trace.jsonl");
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.record(TraceEvent::Decision {
                round: 3,
                node: 1,
                value: 7,
            });
        }
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"decision\""));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn env_spelling_controls_the_path() {
        // Exercises the pure spelling rules; the process-global env var
        // itself is not touched (tests run in parallel).
        let default = Path::new("target/trace.jsonl");
        for (value, expected) in [
            ("0", None),
            ("", None),
            ("1", Some(default.to_path_buf())),
            ("true", Some(default.to_path_buf())),
            ("on", Some(default.to_path_buf())),
            ("custom.jsonl", Some(PathBuf::from("custom.jsonl"))),
        ] {
            assert_eq!(
                resolve_trace_value(value, default),
                expected,
                "value {value:?}"
            );
        }
    }
}
