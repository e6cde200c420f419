//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every traced iteration opens one root span (`iteration`); each call
//! into a layer's public function inside it is a child span naming that
//! layer. Spans live in memory until the run ends. A layer's self time is
//! its spans' durations minus any time they are known to spend in another
//! layer (`contains_ns`, see [`Tracer::span_containing`]); the root's self
//! time is the part of the iteration no child span covers, reported as
//! `unattributed`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, or `iteration` for a root.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The root span (iteration index) this span ran under; `None` for a
    /// root.
    pub parent: Option<u32>,
    /// Iteration index for a root; worker index for a child.
    pub id: u32,
    /// Part of the interval known to run another layer's code.
    pub contains_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder; disabled tracers record nothing and read
/// no clocks.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    worker: u32,
    parent: Option<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, worker: u32, parent: Option<u32>) -> Tracer {
        Tracer { enabled, epoch, worker, parent, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_containing(layer, 0, f).0
    }

    /// Runs `f` inside a span named `layer` of which `contains_ns` are
    /// known to be spent in another layer's code that the benchmark
    /// cannot wrap from outside. Returns the span's duration (0 when
    /// disabled).
    pub fn span_containing<R>(
        &mut self,
        layer: &'static str,
        contains_ns: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        if !self.enabled {
            return (f(), 0);
        }
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let (parent, id) = (self.parent, self.worker);
        self.spans.push(Span { name: layer, start_ns, end_ns, parent, id, contains_ns });
        (out, end_ns - start_ns)
    }

    /// Records a root span for iteration `index` over `[start, end)`.
    pub fn root(&mut self, index: u32, start: Instant, end: Instant) {
        if self.enabled {
            let at = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name: "iteration",
                start_ns: at(start),
                end_ns: at(end),
                parent: None,
                id: index,
                contains_ns: 0,
            });
        }
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-layer totals over every traced iteration.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Self seconds per layer, `unattributed` included.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Summed span durations per layer.
    pub busy_s: BTreeMap<&'static str, f64>,
    /// Traced iterations.
    pub iterations: usize,
}

impl LayerTimes {
    pub fn from_spans(spans: &[Span]) -> LayerTimes {
        let mut times = LayerTimes::default();
        let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent.is_some()) {
            children.entry(s.parent.expect("filtered")).or_default().push(s);
            *times.busy_s.entry(s.name).or_default() += s.duration() as f64 / 1e9;
            *times.self_s.entry(s.name).or_default() +=
                s.duration().saturating_sub(s.contains_ns) as f64 / 1e9;
        }
        for root in spans.iter().filter(|s| s.parent.is_none()) {
            times.iterations += 1;
            let kids = children.get(&root.id).map_or(&[][..], Vec::as_slice);
            let uncovered = root.duration().saturating_sub(covered(root, kids));
            *times.self_s.entry("unattributed").or_default() += uncovered as f64 / 1e9;
        }
        times
    }

    /// `layer`'s share of all self time.
    pub fn share(&self, layer: &str) -> f64 {
        let total: f64 = self.self_s.values().sum();
        crate::measure::ratio(self.self_s.get(layer).copied().unwrap_or(0.0), total)
    }

    /// `layer`'s busy seconds per traced iteration.
    pub fn busy_per_iter(&self, layer: &str) -> f64 {
        crate::measure::ratio(
            self.busy_s.get(layer).copied().unwrap_or(0.0),
            self.iterations as f64,
        )
    }
}

/// Nanoseconds of `root` covered by the union of `kids`.
fn covered(root: &Span, kids: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|k| (k.start_ns.max(root.start_ns), k.end_ns.min(root.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The spans as JSON lines.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"id":{},"contains_ns":{}}}"#,
            s.name, s.start_ns, s.end_ns, parent, s.id, s.contains_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: u64, b: u64, parent: Option<u32>, contains: u64) -> Span {
        Span { name, start_ns: a, end_ns: b, parent, id: 0, contains_ns: contains }
    }

    #[test]
    fn self_time_subtracts_children_and_contained_work() {
        let spans = vec![
            span("iteration", 0, 100, None, 0),
            span("llc", 10, 40, Some(0), 0),
            span("llc", 30, 60, Some(0), 0),
            span("grgpu", 70, 90, Some(0), 15),
        ];
        let t = LayerTimes::from_spans(&spans);
        assert_eq!(t.iterations, 1);
        let get = |k| (t.self_s[k] * 1e9).round() as u64;
        assert_eq!(get("llc"), 60);
        assert_eq!(get("grgpu"), 5);
        // Covered: [10, 60) and [70, 90) = 70 ns of 100.
        assert_eq!(get("unattributed"), 30);
        assert!((t.share("llc") - 60.0 / 95.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0, Some(0));
        assert_eq!(t.span("llc", || 7), 7);
        t.root(0, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
