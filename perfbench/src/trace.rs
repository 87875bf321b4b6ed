//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own code, around the public
//! functions it calls; nothing inside the program is instrumented.  They
//! stay in memory and are written out once, when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The closed-loop iteration the span belongs to.
    pub op: u64,
}

/// A span recorder; a disabled one records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// Handle returned by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
            debug_assert_eq!(self.stack.last(), Some(&id), "spans must nest");
            self.stack.pop();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let result = f();
        self.end(open);
        result
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in milliseconds of the spans named `name` whose parent is
    /// named `parent` ("" for any parent); with `per_op`, summed over the
    /// spans of each iteration.
    pub fn durations_ms(&self, name: &str, parent: &str, per_op: bool) -> Vec<f64> {
        let mut sums: Vec<(u64, f64)> = Vec::new();
        for span in &self.spans {
            let parent_name = span.parent.map_or("", |p| self.spans[p].name);
            if span.name != name || (!parent.is_empty() && parent_name != parent) {
                continue;
            }
            let ms = (span.end_ns - span.start_ns) as f64 / 1e6;
            match sums.last_mut() {
                Some((op, sum)) if per_op && *op == span.op => *sum += ms,
                _ => sums.push((span.op, ms)),
            }
        }
        sums.into_iter().map(|(_, ms)| ms).collect()
    }

    /// Self time of every span: its duration minus the time its children
    /// cover (children are sequential on the one generator thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// Writes one JSON object per span (with its self time) to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"parent\": {}, \"op\": {}}}",
                span.name, span.start_ns, span.end_ns, own, parent, span.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_per_op_sums_group_by_iteration() {
        let mut tracer = Tracer::new(true);
        let span = |name, start_ns, end_ns, parent, op| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        };
        tracer.spans = vec![
            span("publish", 0, 100, None, 0),
            span("pump", 10, 40, Some(0), 0),
            span("pump", 50, 70, Some(0), 0),
            span("pump", 200, 260, None, 1),
        ];
        assert_eq!(tracer.self_ns(), vec![50, 30, 20, 60]);
        assert_eq!(
            tracer.durations_ms("pump", "publish", false),
            vec![30e-6, 20e-6]
        );
        assert_eq!(tracer.durations_ms("pump", "", true), vec![50e-6, 60e-6]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("pump", || 7), 7);
        assert_eq!(tracer.len(), 0);
    }
}
