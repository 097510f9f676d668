//! In-memory spans recorded by the traced run around each call into a
//! layer, and the self times derived from them.
//!
//! A span has a name, a start and an end (ns since the run's origin),
//! the span that caused it, and a request id (the epoch or query
//! index). Root spans are requests. Child spans are either on the
//! request's path, or *side* measurements the traced run adds (an
//! in-process replay of the same frame, say): side time is subtracted
//! from the request's wall time, so it never counts as traced work.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use support::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub side: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span log. Threads of one run share an origin and are
/// joined with [`Tracer::absorb`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            side: false,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Run `f` inside a path span under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        self.record(name, parent, false, f)
    }

    /// Run `f` inside a side span under `parent`.
    pub fn time_side<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        self.record(name, parent, true, f)
    }

    fn record<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        side: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let request = self.spans[parent].request;
        let id = self.open(name, Some(parent), request);
        self.spans[id].side = side;
        let out = f();
        self.close(id);
        out
    }

    /// Forget everything recorded so far (used after warm-up).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Append another thread's spans, re-basing their parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of it that
    /// its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.duration_ns() - covered(kids))
            .collect()
    }

    /// Per span name: the self times of its path spans, plus the
    /// request-path totals that `trace.unattributed_frac` is taken
    /// from.
    pub fn summary(&self) -> TraceSummary {
        let selfs = self.self_times();
        let mut side_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), true) = (s.parent, s.side) {
                side_ns[p] += s.duration_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut root_path_ns = BTreeMap::<&'static str, Vec<u64>>::new();
        let (mut path_ns, mut unattributed_ns) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            by_name.entry(s.name).or_default().push(selfs[i]);
            if s.parent.is_none() {
                let path = s.duration_ns() - side_ns[i];
                root_path_ns.entry(s.name).or_default().push(path);
                path_ns += path;
                unattributed_ns += selfs[i];
            }
        }
        TraceSummary {
            by_name,
            root_path_ns,
            path_ns,
            unattributed_ns,
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::from(id)),
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("request", Json::from(s.request)),
                ("side", Json::from(s.side)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

pub struct TraceSummary {
    /// Self time (ns) of every span, grouped by span name.
    pub by_name: BTreeMap<&'static str, Vec<u64>>,
    /// Per root name: each request's wall time minus its side spans.
    pub root_path_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Sum of request wall time minus side spans.
    pub path_ns: u64,
    /// Sum of request time that no child span covers.
    pub unattributed_ns: u64,
}

impl TraceSummary {
    pub fn self_ns(&self, name: &str) -> &[u64] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered(&mut [(5, 10), (0, 3), (8, 12), (12, 12)]), 10);
        assert_eq!(covered(&mut []), 0);
    }
}
