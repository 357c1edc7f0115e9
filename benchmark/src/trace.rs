//! Spans recorded by the benchmark around each call into a layer.
//!
//! Nothing inside the program under test is instrumented: a span opens
//! before the benchmark calls a layer's public function and closes when
//! the call returns. Spans are kept in memory and written out once, when
//! the run ends. Every `begin`/`end` pair also returns the elapsed
//! seconds, traced or not, so the timed code path is the same in both
//! kinds of run and only the recording differs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Spans of one request (one block, one query) share this number.
    pub request: u64,
}

/// A span that has begun and not yet ended.
#[must_use]
pub struct Open {
    started: Instant,
    index: Option<usize>,
}

pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (threads of one run share
    /// it so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Self {
            recording: false,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        let started = Instant::now();
        let index = self.recording.then(|| {
            self.spans.push(Span {
                name,
                start_ns: started.duration_since(self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                request,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { started, index }
    }

    /// Closes the span and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(index) = open.index {
            self.spans[index].end_ns = now.duration_since(self.origin).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans close innermost first");
        }
        now.duration_since(open.started).as_secs_f64()
    }

    /// Times `f` under one span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name, request);
        let out = f();
        (out, self.end(open))
    }

    /// Appends another thread's spans (its parent links stay internal).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span: its duration minus the part of that interval
    /// its child spans cover.
    fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Writes the span file: every span with its self time, plus self time
    /// and call count summed by span name.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let self_ns = self.self_times();
        let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, (span, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += own;
            entry.1 += 1;
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{own}}}",
                if i == 0 { "" } else { "," },
                span.name,
                span.start_ns,
                span.end_ns,
                span.request,
            );
        }
        out.push_str("\n],\"self_ns_by_name\":{");
        for (i, (name, (ns, calls))) in by_name.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n\"{name}\":{{\"self_ns\":{ns},\"calls\":{calls}}}",
                if i == 0 { "" } else { "," }
            );
        }
        out.push_str("\n}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_untraced_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let (_, secs) = t.time("quiet", 0, || 1 + 1);
        assert!(secs >= 0.0);
        assert_eq!(t.span_count(), 0);

        t.set_recording(true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        let own = t.self_times();
        let outer_len = t.spans[0].end_ns - t.spans[0].start_ns;
        let inner_len = t.spans[1].end_ns - t.spans[1].start_ns;
        assert_eq!(own[0], outer_len - inner_len);
        assert_eq!(own[1], inner_len);
    }
}
