//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (none are recorded inside the simulator) and written out as one JSON
//! file when the run ends, so recording costs a `Vec` push per span.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = u32;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

/// The spans of one workload run; they all share the run's id.
pub struct Tracer {
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span times count from now.
    pub fn new(run_id: u64) -> Self {
        Tracer {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes `id` now.
    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.ns(Instant::now());
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records a span already timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as JSON: `{"run_id": .., "spans": [[id, name,
    /// start_ns, end_ns, parent], ..]}` with `parent` null for a root.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"run_id\": {}, \"fields\": [\"id\", \"name\", \"start_ns\", \"end_ns\", \"parent\"], \"spans\": [",
            self.run_id
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{sep}\n[{id}, \"{}\", {}, {}, {parent}]",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}
