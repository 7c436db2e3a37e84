//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)` plus the units of work it
//! covered (packets, flows, calls). Spans are recorded by the benchmark
//! around its own calls into each crate's public functions, kept in
//! memory, and written out as JSON lines when the run ends. A span's
//! *self time* is its duration minus the time its child spans cover.
//!
//! A disabled recorder makes `enter`/`exit` no-ops, so the same phase
//! code serves the untraced end-to-end run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub units: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Aggregated self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub self_ns: u64,
    pub units: u64,
    pub count: u64,
}

impl SelfTime {
    /// Self time per unit of work, in nanoseconds.
    pub fn ns_per_unit(&self) -> f64 {
        self.self_ns as f64 / self.units.max(1) as f64
    }

    /// Self time per span, in nanoseconds.
    pub fn ns_per_span(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off between spans (the overhead probe
    /// alternates the two on one workload).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "cannot toggle tracing inside a span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name`, child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            units: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close `open`, crediting it with `units` of work.
    pub fn exit(&mut self, open: Open, units: u64) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.units = units;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, units: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open, units);
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time aggregated by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.self_ns += s.duration_ns().saturating_sub(children);
            e.units += s.units;
            e.count += 1;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"units\":{}}}",
                s.name, s.start_ns, s.end_ns, s.units
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner, 10);
        t.exit(outer, 1);
        let st = t.self_times();
        let outer_span = &t.spans()[0];
        let inner_span = &t.spans()[1];
        assert_eq!(inner_span.parent, Some(0));
        assert_eq!(
            st["outer"].self_ns,
            outer_span.duration_ns() - inner_span.duration_ns()
        );
        assert_eq!(st["inner"].units, 10);
        assert!(st["inner"].self_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let r = t.span("x", 5, || 7);
        assert_eq!(r, 7);
        assert!(t.spans().is_empty());
    }
}
