//! In-memory span recording for the traced run.
//!
//! A span is one timed call at a layer boundary: its name, start and end
//! (nanoseconds since the tracer's epoch), the span that caused it, and
//! the id of the request or input it belongs to. Spans stay in memory
//! while the run measures and are written out once, when it ends.
//!
//! A span's *self time* is its duration minus the union of its
//! children's intervals (clipped to the span), so overlapping children —
//! two calls in flight at once — are not subtracted twice.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; [`close`](Self::close) sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.ns(Instant::now());
        self.push(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span whose bounds the caller measured.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start, end) = (self.ns(start), self.ns(end));
        self.push(name, parent, request, start, end)
    }

    /// Times `f` as a span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.record(name, parent, request, start, end);
        out
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`spans`](Self::spans).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, kids)| self_time((span.start_ns, span.end_ns), kids))
            .collect()
    }

    /// Self times (µs) of every span called `name`.
    pub fn self_us(&self, name: &str) -> Samples {
        let mut samples = Samples::new();
        for (span, ns) in self.spans.iter().zip(self.self_times()) {
            if span.name == name {
                samples.push(ns as f64 / 1e3);
            }
        }
        samples
    }

    /// Writes one tab-separated line per span:
    /// `id name start_ns end_ns self_ns parent request`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut out)?;
        out.flush()
    }

    fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id\tname\tstart_ns\tend_ns\tself_ns\tparent\trequest")?;
        for (id, (span, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{self_ns}\t{parent}\t{}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        Ok(())
    }
}

/// `span`'s duration minus the union of `children` clipped to it.
/// Sorts `children` in place.
pub fn self_time(span: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (start, end) = span;
    let duration = end.saturating_sub(start);
    children.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for &(s, e) in children.iter() {
        let (s, e) = (s.clamp(start, end), e.clamp(start, end));
        if s >= e {
            continue;
        }
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    duration - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_time((10, 50), &mut []), 40);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        assert_eq!(self_time((0, 100), &mut [(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn overlapping_children_count_once() {
        // [10, 40) ∪ [30, 60) ∪ [55, 70) = [10, 70): 60 covered.
        assert_eq!(self_time((0, 100), &mut [(30, 60), (10, 40), (55, 70)]), 40);
        // A child nested inside another child adds nothing.
        assert_eq!(self_time((0, 100), &mut [(20, 80), (30, 40)]), 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time((50, 100), &mut [(0, 60), (90, 200)]), 30);
        assert_eq!(self_time((50, 100), &mut [(0, 40)]), 50);
        assert_eq!(self_time((0, 10), &mut [(0, 10), (2, 5)]), 0);
    }

    #[test]
    fn tracer_computes_self_time_over_a_span_tree() {
        // root [0, 100) ← a [10, 50) ← a1 [20, 30)
        //              ← b [40, 90)   (overlaps a)
        let mut tracer = Tracer::new();
        let root = tracer.push("root", None, 7, 0, 100);
        let a = tracer.push("a", Some(root), 7, 10, 50);
        tracer.push("a1", Some(a), 7, 20, 30);
        tracer.push("b", Some(root), 7, 40, 90);
        assert_eq!(tracer.self_times(), vec![20, 30, 10, 50]);
        assert_eq!(tracer.self_us("b").sum(), 0.05);
        assert!(tracer.spans().iter().all(|s| s.request == 7));
    }

    #[test]
    fn spans_are_written_as_tsv() {
        let mut tracer = Tracer::new();
        let root = tracer.open("root", None, 1);
        tracer.time("leaf", Some(root), 1, || 2 + 2);
        tracer.close(root);
        let mut out = Vec::new();
        tracer.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].starts_with("1\tleaf\t"));
        assert!(lines[2].ends_with("\t0\t1"));
    }
}
