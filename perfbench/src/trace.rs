//! In-memory span recorder for the traced run.
//!
//! Spans are recorded in the benchmark's own code, around each call it
//! makes into a layer of the library (`core.insert`, `core.query`,
//! `sequential.jones`, `serve.protocol.encode`, ...). Every span carries
//! its name, start and end (nanoseconds since the tracer was created),
//! the span that caused it, and the identifier of the request it belongs
//! to. Spans stay in memory and are summarized once the run ends.
//!
//! When the tracer is off, [`Tracer::begin`] and [`Tracer::end`] only
//! test a flag, so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `core.query`.
    pub name: &'static str,
    /// Identifier shared by every span of one request.
    pub request: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of a span opened by [`Tracer::begin`] (`NONE` when the tracer
/// was off, so ending it is a no-op).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The handle of no span (a root has no parent).
    pub const NONE: SpanId = SpanId(None);
}

/// Per-name totals over every recorded span of one layer boundary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layer {
    /// Number of spans.
    pub calls: u64,
    /// Sum of self times, in nanoseconds (see [`self_times`]).
    pub self_ns: u64,
    /// Each span's duration in nanoseconds, in recording order.
    pub durations_ns: Vec<f64>,
}

/// Records spans while on; does nothing while off.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that starts on or off.
    pub fn new(on: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (spans already recorded are kept).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span of `name` for `request`, caused by `parent`.
    #[inline]
    pub fn begin(&mut self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent: parent.0,
            start_ns: now,
            end_ns: now,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`begin`](Self::begin).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            let now = self.now_ns();
            self.spans[i].end_ns = now;
        }
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        summarize(&self.spans)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once, and the
/// part of a child outside its parent does not count).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (lo, hi) = (s.start_ns, s.end_ns);
            let mut covered = 0u64;
            let mut reach = lo;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Totals per span name over `spans`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let layer = out.entry(s.name).or_default();
        layer.calls += 1;
        layer.self_ns += self_ns;
        layer.durations_ns.push(s.duration_ns() as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span("a", None, 10, 35)];
        assert_eq!(self_times(&spans), vec![25]);
    }

    #[test]
    fn children_are_subtracted_from_the_parent() {
        // Parent 0..100 with children 10..30 and 50..60: 70 ns of its own.
        let spans = [
            span("req", None, 0, 100),
            span("encode", Some(0), 10, 30),
            span("decode", Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children 10..40 and 30..50 cover 10..50 together: 40 ns.
        let spans = [
            span("req", None, 0, 100),
            span("a", Some(0), 30, 50),
            span("b", Some(0), 10, 40),
        ];
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn child_outside_the_parent_is_clipped() {
        // Only 80..100 of the child lies inside the parent.
        let spans = [span("req", None, 0, 100), span("late", Some(0), 80, 130)];
        assert_eq!(self_times(&spans)[0], 80);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span("req", None, 0, 100),
            span("mid", Some(0), 20, 80),
            span("leaf", Some(1), 30, 50),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 20]);
    }

    #[test]
    fn summary_groups_by_name() {
        let spans = [
            span("req", None, 0, 100),
            span("io", Some(0), 10, 30),
            span("req", None, 200, 250),
            span("io", Some(2), 210, 220),
        ];
        let layers = summarize(&spans);
        let req = &layers["req"];
        assert_eq!((req.calls, req.self_ns), (2, 120));
        assert_eq!(req.durations_ns, vec![100.0, 50.0]);
        let io = &layers["io"];
        assert_eq!((io.calls, io.self_ns), (2, 30));
        assert_eq!(io.durations_ns, vec![20.0, 10.0]);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0, SpanId::NONE);
        t.end(id);
        assert!(t.spans().is_empty());
        t.set_on(true);
        let id = t.begin("x", 0, SpanId::NONE);
        t.end(id);
        assert_eq!(t.spans().len(), 1);
        assert!(t.spans()[0].end_ns >= t.spans()[0].start_ns);
    }
}
