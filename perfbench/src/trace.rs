//! In-memory spans recorded around the calls the benchmark makes into each
//! layer. Spans are kept in memory while the timed loop runs and written
//! out once at the end; self time per layer is derived from them.

use std::collections::BTreeMap;
use std::time::Instant;

use fingers_server::Json;

/// One timed call: `[start_ns, end_ns)` relative to the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `parallel.count`.
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 for set-up and probes).
    pub request: u64,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (0 while open).
    pub end_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled: false,
        }
    }
}

/// Self time aggregated over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub calls: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the time child spans cover, ns.
    pub self_ns: u64,
}

/// A span recorder. One per thread; merge with [`Tracer::absorb`].
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (share it across threads so
    /// merged spans line up).
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A tracer that records nothing: untraced runs pass it where a
    /// tracer is expected.
    pub fn off() -> Self {
        Self::default()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its handle.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id`.
    pub fn end(&mut self, id: usize) {
        if self.enabled {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Moves every span of `other` into this tracer, re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans as JSON rows `[name, start_ns, end_ns, parent, request]`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        Json::str(s.name),
                        Json::U64(s.start_ns),
                        Json::U64(s.end_ns),
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        Json::U64(s.request),
                    ])
                })
                .collect(),
        )
    }
}

/// Per-name self time: each span's duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let total = s.end_ns.saturating_sub(s.start_ns);
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(cursor), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let entry = out.entry(s.name).or_default();
        entry.calls += 1;
        entry.total_ns += total;
        entry.self_ns += total - covered.min(total);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            request: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("query", None, 0, 100),
            span("compile", Some(0), 10, 20),
            span("count", Some(0), 20, 90),
            // Grandchild: only subtracted from its own parent.
            span("verify", Some(2), 30, 40),
        ];
        let t = self_times(&spans);
        assert_eq!(t["query"].self_ns, 20);
        assert_eq!(t["query"].total_ns, 100);
        assert_eq!(t["compile"].self_ns, 10);
        assert_eq!(t["count"].self_ns, 60);
        assert_eq!(t["verify"].self_ns, 10);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two concurrent children (one per worker) overlapping 40..60.
        let spans = vec![
            span("request", None, 0, 100),
            span("worker", Some(0), 20, 60),
            span("worker", Some(0), 40, 80),
            span("late", Some(0), 90, 120),
        ];
        let t = self_times(&spans);
        // Covered: 20..80 and 90..100 (clipped) = 70.
        assert_eq!(t["request"].self_ns, 30);
        assert_eq!(t["worker"].calls, 2);
        assert_eq!(t["worker"].self_ns, 80);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", None, 0, || 4), 4);
        let id = t.begin("y", None, 0);
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.begin("a", None, 1);
        a.end(root);
        let mut b = Tracer::new(origin);
        let r = b.begin("b", None, 2);
        let c = b.begin("c", Some(r), 2);
        b.end(c);
        b.end(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].name, "c");
    }
}
