//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is named after the layer whose public function it times
//! (`neighborhood`, `features`, `compiled`, ...) or after the benchmark
//! step that groups such calls (`probe.kernel`, `client.request`). Spans
//! are kept in memory while the workload runs and written out once at the
//! end, so recording costs two clock reads and a push per span. The
//! benchmark records per target, batch, pass or request, never per pair.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use serde::{Serialize, Value};

use crate::report::{map, Json};

/// One timed interval. `parent` indexes the enclosing span; spans of one
/// pass or request share `trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Span {
    /// Layer or step name.
    pub name: &'static str,
    /// Start, nanoseconds after the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one pass or request.
    pub trace: u64,
}

/// Span recorder. When disabled, every call is a no-op.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_trace: u64,
}

/// Handle to an open span; [`Tracer::end`] closes it.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_trace: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// How long each measurement phase of a `run_seconds` run lasts: a
    /// traced run measures half untraced and half traced, so that the two
    /// halves give the tracing overhead within one process.
    pub fn phase_seconds(&self, run_seconds: f64) -> f64 {
        if self.enabled {
            run_seconds / 2.0
        } else {
            run_seconds
        }
    }

    /// A fresh trace identifier.
    pub fn new_trace(&mut self) -> u64 {
        self.next_trace += 1;
        self.next_trace
    }

    /// Opens a span as a child of the innermost open span; a span opened
    /// with nothing open starts a new trace.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.open.last().copied();
        let trace = match parent {
            Some(p) => self.spans[p].trace,
            None => self.new_trace(),
        };
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trace,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&mut self, span: Open) {
        if let Some(idx) = span.0 {
            self.spans[idx].end_ns = self.ns(Instant::now());
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Records a span timed elsewhere (on another thread) and returns its
    /// index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        trace: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            trace,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(span.name).or_insert(0) += own;
        }
        out
    }

    /// Writes every span as JSON to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating the directory or writing the file.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = map(vec![
            ("workload", Value::Str(workload.to_owned())),
            ("spans", self.spans.to_value()),
        ]);
        std::fs::write(path, Json::compact(&file) + "\n")
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover. Overlapping children (spans recorded on
/// several threads) are merged first, so covered time is never counted
/// twice, and children are clipped to their parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (lo, hi) in kids {
                match cur {
                    Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
                    _ => {
                        if let Some((clo, chi)) = cur {
                            covered += chi - clo;
                        }
                        cur = Some((lo, hi));
                    }
                }
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span("root", 0, 100, None),
            // Two overlapping children cover [10, 50): 40, not 30 + 30.
            span("a", 10, 40, Some(0)),
            span("b", 20, 50, Some(0)),
            // A disjoint child covers [60, 70).
            span("c", 60, 70, Some(0)),
            // A child running past its parent counts only inside it.
            span("d", 95, 120, Some(0)),
            // A grandchild reduces its own parent, not the root.
            span("e", 12, 22, Some(1)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 40 - 10 - 5, 20, 30, 10, 25, 10]
        );
    }

    #[test]
    fn nested_spans_attribute_self_time_by_name() {
        let mut t = Tracer::new(true);
        let root = t.begin("root");
        let child = t.begin("leaf");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let spans = t.spans().to_vec();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].trace, spans[1].trace);
        let by_name = t.self_ns_by_name();
        assert!(by_name["leaf"] >= 2_000_000);
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(by_name["root"] + by_name["leaf"], total);
        let other = t.begin("root");
        t.end(other);
        assert_ne!(
            t.spans()[2].trace,
            spans[0].trace,
            "a new root starts a new trace"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        t.end(s);
        let now = Instant::now();
        assert_eq!(t.record("y", now, now, None, 1), None);
        assert!(t.spans().is_empty());
    }
}
