//! Spans on the thread-local record, and the trace view.
//!
//! A span is a start/end pair on the record's monotonic clock with
//! parent nesting, a phase tag, an optional label and source [`Span`],
//! and key/value notes. The pipeline's phase timers ([`crate::time`])
//! open one per phase; the expander adds per-top-level-form child spans
//! carrying each form's source location; optimizer decisions, store
//! lookups and limit hits are zero-duration spans under whatever span is
//! open. Like every emission site, [`start`] and [`note`] are inert
//! (one thread-local read) until a [`Collector`](crate::Collector) is
//! installed.
//!
//! [`Collector::trace`](crate::Collector::trace) renders the completed
//! spans as a [`Trace`], which [`chrome_trace_json`] writes as Chrome
//! trace-event JSON (the `about:tracing` / Perfetto format).
//!
//! ```
//! use lagoon_diag::{trace, Collector};
//! use lagoon_syntax::Symbol;
//! let collector = Collector::install();
//! {
//!     let _outer = trace::start("expand", Some(Symbol::intern("main")));
//!     let _inner = trace::start("typecheck", Some(Symbol::intern("main")));
//!     trace::note("checked", 12usize);
//! }
//! lagoon_diag::uninstall();
//! let t = collector.trace();
//! assert_eq!(t.spans.len(), 2);
//! // children complete first; parents carry smaller start times
//! assert_eq!(t.spans[0].phase, "typecheck");
//! assert_eq!(t.spans[1].parent, None);
//! ```

use crate::{with_record, Key, Record, Val};
use lagoon_syntax::{Span, Symbol};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Opens a span nested under the innermost open span; the returned
/// guard closes it on drop. Inert (and free) when no recorder is
/// installed.
pub fn start(phase: &'static str, label: Option<Symbol>) -> SpanGuard {
    SpanGuard(with_record(|r| r.open(phase, label, None)))
}

/// Like [`start`], attaching `src` (synthetic spans — line 0 — are
/// treated as "no location" and skipped).
pub fn start_at(phase: &'static str, label: Option<Symbol>, src: Span) -> SpanGuard {
    let src = (!src.is_synthetic()).then_some(src);
    SpanGuard(with_record(|r| r.open(phase, label, src)))
}

/// Attaches a `key: value` note to the innermost open span (no-op when
/// nothing is open).
pub fn note(key: &'static str, value: impl Into<Val>) {
    with_record(|r| {
        if let Some(open) = r.open.last_mut() {
            open.notes.push((key, value.into()));
        }
    });
}

/// Drop guard returned by [`start`]; closes its span (and any spans
/// erroneously left open inside it) when dropped.
pub struct SpanGuard(Option<u64>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.0.take() else { return };
        with_record(|r| {
            // Close down to and including our own span. Guards drop in
            // LIFO order, so normally our span *is* the top; anything
            // above it leaked its guard and gets closed here too.
            if r.open.iter().any(|o| o.id == id) {
                while r.open.last().is_some_and(|o| o.id != id) {
                    r.close_top();
                }
                r.close_top();
            }
        });
    }
}

/// One completed span, rendered.
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Unique id within the record (allocation order).
    pub id: u64,
    /// The id of the span this one nested inside, if any.
    pub parent: Option<u64>,
    /// Phase tag (`"read"`, `"expand"`, `"form"`, `"store"`, …).
    pub phase: &'static str,
    /// Human label — usually the module or form being processed;
    /// `<phase>` for an unlabeled span.
    pub label: String,
    /// Start time in microseconds since the recorder was installed.
    pub start_us: u64,
    /// Duration in microseconds (end and start are truncated on the
    /// same clock, so a child's interval never escapes its parent's).
    pub dur_us: u64,
    /// Source location (`file:line:col`), when any.
    pub src: Option<String>,
    /// Key/value annotations, in arrival order.
    pub notes: Vec<(&'static str, String)>,
}

/// A finished trace: completed spans in completion order (children
/// before their parents), how many were dropped to the ring bound, and
/// the VM profile.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Completed spans, oldest completion first.
    pub spans: Vec<TraceSpan>,
    /// Spans evicted from the ring buffer (0 unless the trace overflowed).
    pub dropped: u64,
    /// VM profile samples as `(function, chunks)`, most sampled first
    /// (ties by name). Gensym suffixes are stripped, so alpha-renamed
    /// user functions aggregate under the name the user wrote.
    pub profile: Vec<(String, u64)>,
}

impl Record {
    pub(crate) fn trace(&self) -> Trace {
        let spans = self
            .done
            .iter()
            .map(|s| {
                let start_us = s.start_ns / 1000;
                let end_us = s.start_ns.saturating_add(s.dur_ns) / 1000;
                TraceSpan {
                    id: s.id,
                    parent: s.parent,
                    phase: s.phase,
                    label: s
                        .label
                        .map_or_else(|| format!("<{}>", s.phase), |l| Val::Sym(l).to_string()),
                    start_us,
                    dur_us: end_us - start_us,
                    src: s.src.map(|src| src.to_string()),
                    notes: s.notes.iter().map(|(k, v)| (*k, v.to_string())).collect(),
                }
            })
            .collect();
        let mut merged: HashMap<String, u64> = HashMap::new();
        for (key, chunks) in self.counts() {
            if let Key::Sample(function) = key {
                let name =
                    function.map_or_else(|| "<anonymous>".to_string(), |f| Val::Sym(f).to_string());
                *merged.entry(name).or_insert(0) += chunks;
            }
        }
        let mut profile: Vec<(String, u64)> = merged.into_iter().collect();
        profile.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Trace {
            spans,
            dropped: self.dropped,
            profile,
        }
    }
}

impl Trace {
    /// Appends this trace's spans as Chrome trace-event objects
    /// (`"ph":"X"` complete events, comma-separated, no surrounding
    /// brackets) for process `pid`, track `tid`.
    pub fn write_chrome_events(&self, pid: u32, tid: u32, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"id\":{}",
                crate::json_string(&s.label),
                crate::json_string(s.phase),
                s.start_us,
                s.dur_us,
                s.id
            );
            if let Some(parent) = s.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            if let Some(src) = &s.src {
                let _ = write!(out, ",\"src\":{}", crate::json_string(src));
            }
            for (key, value) in &s.notes {
                let _ = write!(
                    out,
                    ",{}:{}",
                    crate::json_string(key),
                    crate::json_string(value)
                );
            }
            out.push_str("}}");
        }
    }

    /// The profile as a JSON array of `{"fn","chunks"}` rows.
    pub fn profile_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (name, chunks)) in self.profile.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"fn\":{},\"chunks\":{chunks}}}",
                crate::json_string(name)
            );
        }
        out.push(']');
        out
    }
}

/// Renders one or more traces as a complete Chrome trace-event JSON
/// document (loadable in `about:tracing` or Perfetto). Each `(name,
/// trace)` pair becomes its own track (`tid`), labeled via a
/// `thread_name` metadata event; parallel build workers each get one.
/// `extra` key/value pairs (the value must already be valid JSON) are
/// embedded as additional top-level fields — trace viewers ignore
/// fields they do not know, so this is where profiles and A/B metadata
/// ride along.
pub fn chrome_trace_json(tracks: &[(String, Trace)], extra: &[(&str, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (tid, (name, _)) in tracks.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
            crate::json_string(name)
        );
    }
    for (tid, (_, trace)) in tracks.iter().enumerate() {
        if !trace.spans.is_empty() {
            if !first {
                out.push(',');
            }
            first = false;
            trace.write_chrome_events(1, tid as u32, &mut out);
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"");
    let dropped: u64 = tracks.iter().map(|(_, t)| t.dropped).sum();
    let _ = write!(out, ",\"droppedSpans\":{dropped}");
    for (key, value) in extra {
        let _ = write!(out, ",{}:{value}", crate::json_string(key));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{uninstall, Collector};

    fn m(name: &str) -> Option<Symbol> {
        Some(Symbol::intern(name))
    }

    #[test]
    fn inert_when_not_installed() {
        assert!(!crate::enabled());
        let guard = start("read", m("main"));
        note("k", "v");
        drop(guard);
        uninstall();
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let c = Collector::install();
        {
            let _a = start("expand", m("main"));
            {
                let _b = start("typecheck", m("main"));
                note("forms", 3usize);
            }
            let _c = start("optimize", m("main"));
        }
        uninstall();
        let t = c.trace();
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.dropped, 0);
        let find = |phase: &str| t.spans.iter().find(|s| s.phase == phase).expect(phase);
        let (expand, check, opt) = (find("expand"), find("typecheck"), find("optimize"));
        assert_eq!(check.parent, Some(expand.id));
        assert_eq!(opt.parent, Some(expand.id));
        assert_eq!(expand.parent, None);
        assert_eq!(check.notes, vec![("forms", "3".to_string())]);
        // interval containment: children stay inside the parent
        for child in [check, opt] {
            assert!(child.start_us >= expand.start_us);
            assert!(child.start_us + child.dur_us <= expand.start_us + expand.dur_us);
        }
    }

    #[test]
    fn ring_buffer_drops_oldest_spans_but_no_counts() {
        let c = Collector::install_with_capacity(2);
        for i in 0..5 {
            let _s = start("form", m(&format!("f{i}")));
            crate::count("forms", Symbol::intern("main"), 1);
        }
        uninstall();
        let t = c.trace();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.dropped, 3);
        assert_eq!(t.spans[0].label, "f3");
        assert_eq!(t.spans[1].label, "f4");
        assert_eq!(c.report().counters[0].value, 5);
    }

    #[test]
    fn uninstall_force_closes_open_spans() {
        let c = Collector::install();
        let guard = start("run", m("main"));
        std::mem::forget(guard);
        uninstall();
        let t = c.trace();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].phase, "run");
    }

    #[test]
    fn chrome_json_shape() {
        let c = Collector::install();
        {
            let _a = start_at(
                "read",
                m("mod \"x\""),
                Span {
                    source: Symbol::intern("x.lag"),
                    start: 0,
                    end: 1,
                    line: 3,
                    col: 1,
                },
            );
            let _form = start("form", None);
        }
        uninstall();
        let t = c.trace();
        assert_eq!(t.spans[0].label, "<form>");
        let json = chrome_trace_json(&[("main".to_string(), t)], &[("profile", "[]".to_string())]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("x.lag:3:1"));
        assert!(json.contains("\"mod \\\"x\\\"\""));
        assert!(json.contains("\"profile\":[]"));
        assert!(json.ends_with('}'));
    }
}
