//! In-memory spans for the traced run.
//!
//! A span is opened around one call from the benchmark into a module's
//! public function. Spans nest (the benchmark is single-threaded between
//! calls, so children never overlap), stay in memory while the run lasts,
//! and are written out once at the end. A layer's self time is the sum of
//! its spans' durations minus the time their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::clock::thread_cpu_seconds;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Name: `<layer>.<call>`, e.g. `hilbert.rect` or `sim.fleet.run`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds from the tracer's origin to the call.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin to the return.
    pub end_ns: u64,
    /// CPU nanoseconds the recording thread used inside the span.
    pub cpu_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last, with the thread CPU clock at entry.
    open: Vec<(usize, f64)>,
}

/// How long a closed span took.
#[derive(Debug, Clone, Copy)]
pub struct Took {
    /// Wall nanoseconds.
    pub wall_ns: u64,
    /// CPU nanoseconds of the recording thread: the cost of a call that
    /// runs on that thread, without the time the host withheld the CPU.
    pub cpu_ns: u64,
}

/// The layer a span name belongs to: its first dotted component, or the
/// first two for `sim.*`.
pub fn layer_of(name: &str) -> &str {
    let cut = if name.starts_with("sim.") { 2 } else { 1 };
    match name.match_indices('.').nth(cut - 1) {
        Some((i, _)) => &name[..i],
        None => name,
    }
}

impl Tracer {
    /// An empty recorder for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|&(p, _)| p),
            start_ns: self.now_ns(),
            end_ns: 0,
            cpu_ns: 0,
        });
        self.open.push((id, thread_cpu_seconds()));
        id
    }

    /// Closes the innermost span, which must be `id`.
    pub fn end(&mut self, id: usize) -> Took {
        let end = self.now_ns();
        let cpu = thread_cpu_seconds();
        let (open, cpu_at_entry) = self.open.pop().expect("a span is open");
        assert_eq!(open, id, "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.cpu_ns = ((cpu - cpu_at_entry) * 1e9).max(0.0) as u64;
        Took {
            wall_ns: span.ns(),
            cpu_ns: span.cpu_ns,
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and how
    /// long the span took.
    pub fn run<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Took) {
        let id = self.begin(name);
        let r = f();
        (r, self.end(id))
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in nanoseconds.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *by_layer.entry(layer_of(s.name)).or_insert(0) += s.ns().saturating_sub(children);
        }
        by_layer
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"cpu_ns\": {}}}",
                s.name, self.workload, s.start_ns, s.end_ns, s.cpu_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_strip_the_call() {
        assert_eq!(layer_of("hilbert.rect"), "hilbert");
        assert_eq!(layer_of("sim.fleet.run"), "sim.fleet");
        assert_eq!(layer_of("bench"), "bench");
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("w");
        let outer = t.begin("sim.fleet.run");
        let inner = t.begin("core.drive");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_ns = t.end(inner).wall_ns;
        let outer_ns = t.end(outer).wall_ns;
        let by = t.self_ns_by_layer();
        assert_eq!(by["core"], inner_ns);
        assert_eq!(by["sim.fleet"], outer_ns - inner_ns);
        assert_eq!(t.spans()[inner].parent, Some(outer));
    }
}
