//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the self-time arithmetic the per-layer metrics use.
//!
//! A span holds a name, start and end (nanoseconds since a shared
//! epoch), its parent span, the request it belongs to, and the thread
//! that recorded it. A disabled tracer records nothing, so the
//! untraced runs pay one branch per boundary.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub thread: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Where this (forked) tracer's top-level spans hang in the tracer
    /// that adopts it.
    root_parent: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            thread: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            root_parent: None,
        }
    }

    /// A tracer for another thread whose top-level spans are children
    /// of `parent` in this tracer; fold it back with [`Tracer::adopt`].
    pub fn fork(&self, thread: u32, parent: usize) -> Self {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
            root_parent: Some(parent),
        }
    }

    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns its id for [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, req: u64) -> usize {
        let now = if self.on { self.now() } else { 0 };
        self.enter_at(name, req, now)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let now = if self.on { self.now() } else { 0 };
        self.exit_at(id, now);
    }

    /// [`Tracer::enter`] with a start time taken elsewhere (an
    /// open-loop request starts at its due time).
    pub fn enter_at(&mut self, name: &'static str, req: u64, start: u64) -> usize {
        if !self.on {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            req,
            thread: self.thread,
        });
        self.stack.push(id);
        id
    }

    /// [`Tracer::exit`] with an end time taken elsewhere.
    pub fn exit_at(&mut self, id: usize, end: u64) {
        if !self.on {
            return;
        }
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        if let Some(span) = self.spans.get_mut(id) {
            span.end = end;
        }
    }

    /// Appends a forked tracer's spans: its top-level spans hang under
    /// the fork point, and its local parent ids shift past this
    /// tracer's spans.
    pub fn adopt(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut span in other.spans {
            span.parent = span.parent.map(|p| p + base).or(other.root_parent);
            self.spans.push(span);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"thread\":{}}}",
                s.name, s.start, s.end, s.req, s.thread
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals (clipped to its own), so children on
/// parallel threads are not double-counted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = s.parent.and_then(|p| children.get_mut(p)) {
            kids.push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per-name totals: (span count, total duration, total self time).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration();
        e.2 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` (another thread): counted once.
            span("b", 30, 60, Some(0)),
            span("leaf", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 22, 30, 8]);
        let totals = by_name(&spans);
        assert_eq!(totals["root"], (1, 100, 50));
    }

    #[test]
    fn forked_spans_hang_under_the_fork_point() {
        let mut main = Tracer::new(true, Instant::now());
        let root = main.enter("root", 0);
        let mut worker = main.fork(1, root);
        let w = worker.enter("worker", 0);
        let inner = worker.enter("inner", 0);
        worker.exit(inner);
        worker.exit(w);
        main.adopt(worker);
        main.exit(root);
        let spans = main.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].thread, 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.enter("x", 1);
        let inner = t.enter_at("y", 1, 0);
        t.exit_at(inner, 5);
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
