//! Spans for the traced run.
//!
//! The benchmark records a span around each public call it makes into a
//! layer: name, start, end, parent and request id. Spans stay in memory
//! while the run measures and are written out as JSONL when it ends; self
//! time (a span's duration minus what its children cover) is computed
//! from them.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call.
pub struct Span {
    /// Layer call, e.g. `"methods.handle"`.
    pub name: &'static str,
    /// Nanoseconds since the store's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the store's epoch; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (or checker call) the span belongs to.
    pub req: u64,
}

impl Span {
    /// Wall-clock nanoseconds the span covers.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span store.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty store whose epoch is now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Ascending durations of the spans named `name` whose request passes
    /// `keep`.
    pub fn durations(&self, name: &str, keep: impl Fn(u64) -> bool) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && keep(s.req))
            .map(Span::nanos)
            .collect();
        out.sort_unstable();
        out
    }

    /// Distinct span names, in first-seen order.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for span in &self.spans {
            if !names.contains(&span.name) {
                names.push(span.name);
            }
        }
        names
    }

    /// Total self time of the spans named `name`: their durations minus
    /// the time their direct children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.nanos();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.nanos().saturating_sub(*c))
            .sum()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut spans = Spans::new();
        let root = spans.open("root", None, 0);
        spans.time("child", Some(root), 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.close(root);
        let total = spans.spans[root].nanos();
        let child = spans.spans[1].nanos();
        assert_eq!(spans.self_ns("root"), total - child);
        assert_eq!(spans.self_ns("child"), child);
        assert_eq!(spans.durations("child", |_| true).len(), 1);
    }
}
