//! The benchmark's own span recorder: one span around each call into a
//! layer's public functions. Spans stay in memory during the run and are
//! written as JSON lines when it ends. Tracing inside the program is a
//! later change; until then these spans are the per-layer numbers.

use crate::json::Json;
use oms_obs::Stopwatch;
use std::io::{self, Write};

/// One timed interval. `parent` indexes the enclosing span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, in the unit `count_unit` names
    /// (bytes, nodes, deltas, events); 0 when nothing was counted.
    pub count: u64,
    pub count_unit: &'static str,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records properly nested spans against one clock.
pub struct Tracer {
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            clock: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        (self.clock.seconds() * 1e9) as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
            count: 0,
            count_unit: "",
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        self.exit_counted(id, 0, "");
    }

    /// Closes span `id` and records the work it did.
    pub fn exit_counted(&mut self, id: usize, count: u64, count_unit: &'static str) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.count = count;
        span.count_unit = count_unit;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The first span called `name`.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Seconds of the first span called `name`.
    pub fn seconds_of(&self, name: &str) -> Option<f64> {
        self.find(name).map(Span::seconds)
    }

    /// All spans called `name`, in start order.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Direct children of span `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// A span's duration minus the part its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let covered: u64 = self.children(id).map(|c| c.end_ns - c.start_ns).sum();
        (span.end_ns - span.start_ns) - covered
    }

    /// Appends every span as one JSON line to `out`.
    pub fn write_jsonl(
        &self,
        out: &mut impl Write,
        workload: &str,
        iteration: usize,
    ) -> io::Result<()> {
        for span in &self.spans {
            let line = Json::obj([
                ("workload", Json::str(workload)),
                ("iteration", Json::Num(iteration as f64)),
                ("id", Json::Num(span.id as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::str(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                ("self_ns", Json::Num(self.self_ns(span.id) as f64)),
                ("count", Json::Num(span.count as f64)),
                ("count_unit", Json::str(span.count_unit)),
            ]);
            writeln!(out, "{}", line.to_line())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tracer {
        let mut t = Tracer::new();
        let root = t.enter("job");
        let load = t.enter("graph.load");
        std::hint::black_box((0..20_000u64).sum::<u64>());
        t.exit_counted(load, 4096, "bytes");
        let part = t.enter("core.partition");
        let inner = t.enter("core.pass");
        t.exit(inner);
        t.exit(part);
        t.exit(root);
        let probe = t.enter("core.floor");
        t.exit(probe);
        t
    }

    #[test]
    fn children_lie_inside_their_parent() {
        let t = sample();
        for span in t.spans() {
            assert!(span.start_ns <= span.end_ns);
            if let Some(parent) = span.parent {
                let p = &t.spans()[parent];
                assert!(p.start_ns <= span.start_ns && span.end_ns <= p.end_ns);
            }
        }
        assert_eq!(t.find("core.floor").unwrap().parent, None);
        assert_eq!(t.find("core.pass").unwrap().parent, Some(2));
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let t = sample();
        let root = t.find("job").unwrap();
        let in_tree: u64 = (0..4).map(|id| t.self_ns(id)).sum();
        assert_eq!(in_tree, root.end_ns - root.start_ns);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let outer = t.enter("job");
        let _inner = t.enter("graph.load");
        t.exit(outer);
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let t = sample();
        let mut out = Vec::new();
        t.write_jsonl(&mut out, "w", 0).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), t.spans().len());
        let load = Json::parse(lines[1]).unwrap();
        assert_eq!(load.get("name").unwrap().as_str(), Some("graph.load"));
        assert_eq!(load.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(load.get("count").unwrap().as_f64(), Some(4096.0));
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
