//! In-memory spans recorded around the benchmark's calls into the
//! program's public functions.
//!
//! A span has a name, a start and end on one monotonic clock, the span
//! that caused it and the iteration it belongs to. Spans stay in memory
//! while the run measures and are written out as JSON lines when it
//! ends, so writing them costs nothing inside a timed region.

use std::io::{self, Write};
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub iteration: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>, iteration: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            iteration,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        iteration: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, iteration);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line, with its id and
    /// self time.
    pub fn write_jsonl(&self, mut out: impl Write) -> io::Result<()> {
        let self_ns = self_times(&self.spans);
        for (id, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":{},\"parent\":{parent},\"iteration\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                json_string(&s.name),
                s.iteration,
                s.start_ns,
                s.end_ns,
            )?;
        }
        out.flush()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Self time of every span: its duration minus the part of its own
/// interval that its direct children cover. Children that overlap one
/// another (work run in parallel) are counted once, and any part of a
/// child outside its parent's interval is ignored.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Sum of the self times of every span named `name`, per iteration.
pub fn self_time_by_iteration(spans: &[Span], self_ns: &[u64], name: &str) -> Vec<(u32, u64)> {
    let mut per: Vec<(u32, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_ns) {
        if s.name != name {
            continue;
        }
        match per.iter_mut().find(|(it, _)| *it == s.iteration) {
            Some((_, total)) => *total += own,
            None => per.push((s.iteration, *own)),
        }
    }
    per
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name: name.to_string(), start_ns, end_ns, parent, iteration: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root [0,100] > a [10,40] > a.1 [20,30]; root > b [50,70].
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.1", 20, 30, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two parallel children [10,60] and [40,80] cover [10,80].
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
        // A child contained in a sibling adds nothing.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 90, Some(0)),
            span("y", 20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("root", 10, 50, None),
            span("early", 0, 20, Some(0)),
            span("late", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn self_time_groups_by_iteration() {
        let mut spans = vec![
            span("root", 0, 100, None),
            span("w", 0, 10, Some(0)),
            span("w", 20, 25, Some(0)),
            span("w", 30, 40, None),
        ];
        spans[3].iteration = 1;
        let own = self_times(&spans);
        assert_eq!(self_time_by_iteration(&spans, &own, "w"), vec![(0, 15), (1, 10)]);
    }

    #[test]
    fn tracer_nests_and_writes_spans() {
        let mut t = Tracer::new();
        let root = t.begin("root", None, 3);
        let v = t.span("child \"q\"", Some(root), 3, || 7);
        t.end(root);
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).expect("trace written");
        let text = String::from_utf8(out).expect("utf-8");
        assert_eq!(text.lines().count(), 2);
        assert!(
            text.contains("\"name\":\"child \\\"q\\\"\",\"parent\":0,\"iteration\":3"),
            "{text}"
        );
    }
}
