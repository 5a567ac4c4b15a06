//! The benchmark's own spans. Each span wraps one call into a public
//! function of a Lagoon layer; nothing is traced inside the program.
//! Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `vm.run` or `server.build`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request, module or timed operation the span belongs to.
    pub id: u64,
}

/// A span recorder; disabled recorders cost one branch per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index, or `None` when tracing is off.
    pub fn begin(&self, name: &'static str, parent: Option<usize>, id: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        Some(spans.len() - 1)
    }

    pub fn end(&self, span: Option<usize>) {
        if let Some(i) = span {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span list lock poisoned")[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.begin(name, parent, id);
        let out = f();
        self.end(s);
        out
    }

    /// Records a finished top-level span measured elsewhere.
    pub fn record(&self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .push(Span {
                name,
                start_ns: at(start),
                end_ns: at(end),
                parent: None,
                id,
            });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

/// Self time per span name, in ms: each span's duration minus the
/// durations of its direct children.
pub fn self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(children);
        *out.entry(s.name).or_default() += own as f64 / 1e6;
    }
    out
}

/// Total duration per span name, in ms.
pub fn total_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
                id: 0,
            },
            Span {
                name: "b",
                start_ns: 2_000_000,
                end_ns: 6_000_000,
                parent: Some(0),
                id: 0,
            },
        ];
        let own = self_ms(&spans);
        assert!((own["a"] - 6.0).abs() < 1e-9);
        assert!((own["b"] - 4.0).abs() < 1e-9);
        assert!((total_ms(&spans)["a"] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 1, || 5), 5);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let outer = t.begin("outer", None, 1);
        t.span("inner", outer, 1, || ());
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
    }
}
