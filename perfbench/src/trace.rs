//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from this benchmark's own code, around its
//! calls into the library. Every span has a name, a start and end on one
//! clock, the span that caused it, and the `(session, round)` it belongs
//! to. A span may stand for a batch of work: `units` counts what it
//! covered (reports, series, frames, bytes), so per-unit costs come out
//! of the same record. With tracing off nothing is stored; the timing of
//! each call is still returned, so the untraced and traced runs share one
//! code path.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// The `(session, round)` a span belongs to; `NONE` for run-wide work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId {
    /// Session index within the workload.
    pub session: u32,
    /// Round number within the session (0 before the first round).
    pub round: u32,
}

impl SpanId {
    /// The id of work that belongs to no session.
    pub const NONE: SpanId = SpanId {
        session: u32::MAX,
        round: 0,
    };

    /// The id of round `round` of session `session`.
    pub fn new(session: usize, round: u32) -> Self {
        Self {
            session: session as u32,
            round,
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`registry.begin_round`, `client.answer.expand`, …).
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    /// Nanoseconds since the tracer's origin.
    pub end: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Session and round.
    pub id: SpanId,
    /// Work units the span covered.
    pub units: u64,
}

/// Span recorder for the main thread; worker threads record through a
/// [`Branch`] and are merged back with [`Tracer::merge`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// An open span handle returned by [`Tracer::open`].
#[derive(Debug)]
#[must_use = "close the span with Tracer::close"]
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between iterations.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "switch only between spans");
        self.on = on;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, id: SpanId) -> Open {
        let started = Instant::now();
        let index = self.on.then(|| {
            let index = self.spans.len();
            self.spans.push(Span {
                name,
                start: self.ns(started),
                end: 0,
                parent: self.stack.last().copied(),
                id,
                units: 0,
            });
            self.stack.push(index);
            index
        });
        Open { index, started }
    }

    /// Closes `open` (which must be the innermost open span), crediting it
    /// with `units` of work, and returns its duration.
    pub fn close(&mut self, open: Open, units: u64) -> Duration {
        let ended = Instant::now();
        if let Some(index) = open.index {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans close innermost first");
            let end = self.ns(ended);
            let span = &mut self.spans[index];
            span.end = end;
            span.units = units;
        }
        ended.duration_since(open.started)
    }

    /// Times `f` as one span with `units` of work.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: SpanId,
        units: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.open(name, id);
        let out = f();
        let took = self.close(open, units);
        (out, took)
    }

    /// Records a finished leaf span timed by the caller, nested in the
    /// innermost open span.
    pub fn record(
        &mut self,
        name: &'static str,
        id: SpanId,
        start: Instant,
        end: Instant,
        units: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                start: self.ns(start),
                end: self.ns(end),
                parent: self.stack.last().copied(),
                id,
                units,
            });
        }
    }

    /// A recorder for another thread whose spans are children of the
    /// innermost span open here.
    pub fn branch(&self) -> Branch {
        Branch {
            on: self.on,
            origin: self.origin,
            parent: self.stack.last().copied(),
            spans: Vec::new(),
        }
    }

    /// Adds a finished [`Branch`]'s spans.
    pub fn merge(&mut self, branch: Branch) {
        self.spans.extend(branch.spans);
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as CSV (`index,name,session,round,parent,start_ns,end_ns,units`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index,name,session,round,parent,start_ns,end_ns,units")?;
        for (i, s) in self.spans.iter().enumerate() {
            let session = if s.id.session == u32::MAX {
                String::new()
            } else {
                s.id.session.to_string()
            };
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{i},{},{session},{},{parent},{},{},{}",
                s.name, s.id.round, s.start, s.end, s.units
            )?;
        }
        out.flush()
    }
}

/// A span recorder owned by a worker thread.
#[derive(Debug)]
pub struct Branch {
    on: bool,
    origin: Instant,
    parent: Option<usize>,
    spans: Vec<Span>,
}

impl Branch {
    /// Times `f` as one leaf span.
    pub fn time<T>(&mut self, name: &'static str, id: SpanId, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        if self.on {
            let ended = Instant::now();
            self.spans.push(Span {
                name,
                start: started.duration_since(self.origin).as_nanos() as u64,
                end: ended.duration_since(self.origin).as_nanos() as u64,
                parent: self.parent,
                id,
                units: 1,
            });
        }
        out
    }
}

/// What the spans of one name add up to.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of span durations, seconds.
    pub busy_s: f64,
    /// Sum of self times (duration minus the part its children cover), seconds.
    pub self_s: f64,
    /// Sum of work units.
    pub units: u64,
}

impl Layer {
    /// Busy nanoseconds per unit of work (0 when no units).
    pub fn ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.busy_s * 1e9 / self.units as f64
        }
    }

    /// Busy microseconds per call (0 when never called).
    pub fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_s * 1e6 / self.calls as f64
        }
    }
}

/// Per-name totals, with self time derived from the span tree.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let duration = s.end.saturating_sub(s.start);
        let covered = covered_ns(
            s.start,
            s.end,
            children[i].iter().map(|&c| (spans[c].start, spans[c].end)),
        );
        let layer = out.entry(s.name).or_default();
        layer.calls += 1;
        layer.busy_s += duration as f64 * 1e-9;
        layer.self_s += duration.saturating_sub(covered) as f64 * 1e-9;
        layer.units += s.units;
    }
    out
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .map(|(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(
            covered_ns(0, 100, [(10, 30), (20, 40), (90, 120)].into_iter()),
            40
        );
        assert_eq!(covered_ns(0, 100, std::iter::empty()), 0);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", SpanId::NONE);
        let ((), _) = t.time("inner", SpanId::new(0, 1), 5, || ());
        t.close(outer, 0);
        assert_eq!(t.spans()[1].parent, Some(0));
        let l = layers(t.spans());
        assert_eq!(l["inner"].units, 5);
        assert!(l["outer"].self_s <= l["outer"].busy_s);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (v, _) = t.time("x", SpanId::NONE, 1, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
