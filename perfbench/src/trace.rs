//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (the library itself is not instrumented). Each span
//! has a name, start, end, the span that caused it, and the request it
//! belongs to (scan index or query index). Spans stay in memory until the
//! run ends; [`Tracer::write_jsonl`] then writes them out.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of client threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent its
    /// own child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        // Relaxed: the id is a unique label and publishes no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span list poisoned by a panicking client thread")
            .push(Span {
                id,
                parent,
                name,
                request,
                start_ns,
                end_ns,
            });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking client thread")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when tracing, or directly when not.
pub fn traced<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    request: u64,
    parent: Option<u64>,
    f: impl FnOnce(Option<u64>) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, request, parent, |id| f(Some(id))),
        None => f(None),
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children (concurrent
/// work under one parent) count once; children are clipped to the
/// parent's interval.
pub fn self_times_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSummary {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanSummary {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanSummary> {
    let self_ns = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += self_ns.get(&s.id).copied().unwrap_or(0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let t = self_times_ns(&[span(1, None, 10, 40)]);
        assert_eq!(t[&1], 30);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 20),
            span(3, Some(1), 50, 80),
        ];
        let t = self_times_ns(&spans);
        assert_eq!(t[&1], 100 - 10 - 30);
        assert_eq!(t[&2], 10);
        assert_eq!(t[&3], 30);
    }

    #[test]
    fn nested_grandchildren_count_against_their_own_parent_only() {
        // 1 ⊃ 2 ⊃ 3: the grandchild is inside the child, so the root
        // loses only the child's interval.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 20, 70),
            span(3, Some(2), 30, 40),
        ];
        let t = self_times_ns(&spans);
        assert_eq!(t[&1], 50);
        assert_eq!(t[&2], 40);
        assert_eq!(t[&3], 10);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two concurrent children covering [10, 60) ∪ [40, 90) = 80 ns.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 60),
            span(3, Some(1), 40, 90),
            span(4, Some(1), 45, 50),
        ];
        let t = self_times_ns(&spans);
        assert_eq!(t[&1], 20);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        // A child that outlives its parent (handed-off work) only covers
        // the overlap.
        let spans = [span(1, None, 0, 100), span(2, Some(1), 80, 150)];
        let t = self_times_ns(&spans);
        assert_eq!(t[&1], 80);
        assert_eq!(t[&2], 70);
    }

    #[test]
    fn summary_aggregates_by_name() {
        let tracer = Tracer::default();
        tracer.span("outer", 7, None, |id| {
            tracer.span("inner", 7, Some(id), |_| ());
            tracer.span("inner", 7, Some(id), |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.request == 7));
        let summary = summarize(&spans);
        assert_eq!(summary["inner"].count, 2);
        assert_eq!(summary["outer"].count, 1);
        let inner_total = summary["inner"].total_ns;
        let outer = summary["outer"];
        assert_eq!(outer.self_ns, outer.total_ns - inner_total);
    }
}
