//! The benchmark's own span recorder.
//!
//! Spans are taken from outside the program: the benchmark opens one
//! around each call it makes into a layer's public function, so the
//! program itself carries no tracing. Spans stay in memory and are
//! written out once, when the run ends.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Root span of one measured operation.
pub const OP: &str = "op";
/// Root span of one set-up repetition.
pub const SETUP: &str = "setup";
/// Root span of a side call made next to an operation (outside its
/// wall) to time work the program does inside a call the benchmark
/// cannot split.
pub const PROBE: &str = "probe";

/// One closed interval on the benchmark's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Operation (or set-up repetition) the span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans when on; every call is a no-op when off, so the
/// untraced run pays nothing but the branch.
pub struct Tracer {
    on: bool,
    origin: Instant,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when the tracer is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer::with_origin(on, Instant::now())
    }

    /// A tracer whose clock starts at `origin`, so spans recorded on
    /// several threads can be merged with [`absorb`](Tracer::absorb).
    pub fn with_origin(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags the spans opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        self.begin_at(name, Instant::now())
    }

    /// [`begin`](Tracer::begin) with a start time already taken, such
    /// as when a request was due rather than when it was sent.
    pub fn begin_at(&mut self, name: &'static str, at: Instant) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            start_ns: self.ns(at),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&mut self, span: Open) {
        if let Some(id) = span.0 {
            let top = self.open.pop();
            assert_eq!(top, Some(id), "spans must close innermost first");
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// Appends the closed spans of `other`, which shares this tracer's
    /// origin.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{}\n",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once; a child reaching past its parent is clipped).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer self time in milliseconds, aggregated the way the
/// benchmark reports it: within each root span of kind `root` the self
/// times of every descendant with the same name are summed, and the
/// median over those roots is taken per name. A name that occurs under
/// no such root is absent.
pub fn layer_medians_ms(spans: &[Span], root: &str) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut per_root: BTreeMap<(&'static str, usize), u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let r = root_of(i);
        if r != i && spans[r].name == root {
            *per_root.entry((s.name, r)).or_default() += selfs[i];
        }
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in per_root {
        by_name.entry(name).or_default().push(ns as f64 / 1e6);
    }
    by_name
        .into_iter()
        .map(|(name, v)| (name, stats::median(&v).expect("non-empty by construction")))
        .collect()
}

/// Median over root spans named `root` of their self time in
/// milliseconds: the part of each operation's wall that no layer span
/// accounts for.
pub fn unattributed_ms(spans: &[Span], root: &str) -> Option<f64> {
    let selfs = self_times(spans);
    let v: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.parent.is_none() && s.name == root)
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    stats::median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            op: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(OP, 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps "a": the union 10..50 is covered, not 30 + 20.
            span("b", 30, 50, Some(0)),
            span("c", 60, 90, Some(0)),
            // Grandchild: covers part of "c", not of the root.
            span("d", 65, 75, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 20, 20, 10]);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![span(OP, 100, 200, None), span("a", 50, 150, Some(0))];
        assert_eq!(self_times(&spans), vec![50, 100]);
    }

    #[test]
    fn unattributed_is_the_median_root_self_time() {
        let spans = vec![
            span(OP, 0, 10_000_000, None),
            span("xml.parse", 0, 6_000_000, Some(0)),
            span(OP, 20_000_000, 30_000_000, None),
            span("xml.parse", 20_000_000, 22_000_000, Some(2)),
            span("index.build", 22_000_000, 29_000_000, Some(2)),
            // Another kind of root does not count.
            span(SETUP, 40_000_000, 90_000_000, None),
        ];
        // Operations leave 4 ms and 1 ms unattributed.
        assert_eq!(unattributed_ms(&spans, OP), Some(2.5));
        assert_eq!(unattributed_ms(&spans, PROBE), None);
    }

    #[test]
    fn layer_medians_sum_within_a_root_then_take_the_median() {
        let spans = vec![
            span(OP, 0, 100_000_000, None),
            span("score.model", 0, 1_000_000, Some(0)),
            span("score.model", 1_000_000, 4_000_000, Some(0)),
            span(OP, 200_000_000, 300_000_000, None),
            span("score.model", 200_000_000, 202_000_000, Some(3)),
            span(OP, 400_000_000, 500_000_000, None),
            span("score.model", 400_000_000, 410_000_000, Some(5)),
            span(SETUP, 600_000_000, 700_000_000, None),
            span("xml.parse", 600_000_000, 650_000_000, Some(7)),
        ];
        let op = layer_medians_ms(&spans, OP);
        // Per-op sums 4, 2 and 10 ms.
        assert_eq!(op.get("score.model"), Some(&4.0));
        assert_eq!(op.get("xml.parse"), None);
        let setup = layer_medians_ms(&spans, SETUP);
        assert_eq!(setup.get("xml.parse"), Some(&50.0));
    }

    #[test]
    fn tracer_nests_and_is_silent_when_off() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let root = t.begin(OP);
        t.time("a", || ());
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(t.to_json().contains("\"name\": \"a\""));

        let mut other = Tracer::with_origin(true, t.origin());
        let root = other.begin_at(OP, t.origin());
        other.time("b", || ());
        other.end(root);
        t.absorb(other);
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(t.spans()[2].start_ns, 0);

        let mut off = Tracer::new(false);
        let root = off.begin(OP);
        assert_eq!(off.time("a", || 3), 3);
        off.end(root);
        assert!(off.spans().is_empty());
    }
}
