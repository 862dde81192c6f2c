//! In-memory spans, recorded around calls into each layer.
//!
//! A span has a name (the layer-prefixed operation), start and end
//! (nanoseconds since the tracer's epoch), the id of the span that
//! caused it (0 for a root), and a request id: a tick on a connection
//! for `ingest-fed`, a slot for the resident replay, a call for
//! everything else. Spans stay in memory while the workload runs and
//! are written out as JSON lines when it ends. An untraced run records
//! nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-prefixed operation name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer epoch (0 while open).
    pub end_ns: u64,
    /// Id of the causing span; 0 for a root.
    pub parent: u32,
    /// Request the span belongs to.
    pub request: u64,
}

/// Span recorder; a no-op when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread sharing this one's epoch; fold it
    /// back with [`Tracer::merge`].
    pub fn child(&self) -> Self {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (0 when off).
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u64,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() as u32
    }

    /// Opens a span that ends at [`Tracer::close`]; children may name
    /// the returned id as their parent.
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let now = Instant::now();
        let id = self.span(name, now, now, parent, request);
        if id > 0 {
            self.spans[id as usize - 1].end_ns = 0;
        }
        id
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: u32) {
        if id > 0 {
            let end = self.ns(Instant::now());
            self.spans[id as usize - 1].end_ns = end;
        }
    }

    /// Appends another thread's spans, renumbering their parents.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent > 0 {
                s.parent += offset;
            }
            s
        }));
    }

    /// Total and self time per span name: `(count, total_ns, self_ns)`.
    /// Self time is the span's duration minus the part of it that its
    /// children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut covered = vec![Vec::<(u64, u64)>::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                covered[s.parent as usize - 1].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(covered.iter_mut()) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut busy = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    busy += b - a;
                    reach = b;
                }
            }
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total - busy.min(total);
        }
        out
    }

    /// Human-readable per-name summary lines.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        for (name, (count, total, own)) in self.summary() {
            let _ = writeln!(
                out,
                "span {name:<40} count {count:>8} total_ms {:>12.3} self_ms {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                file,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request
            )?;
        }
        file.flush()
    }
}

/// Measured cost of recording one span, in nanoseconds.
pub fn record_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let mut t = Tracer::new(true);
    let started = Instant::now();
    for i in 0..N {
        let now = Instant::now();
        t.span("calibrate", now, now, 0, u64::from(i));
    }
    started.elapsed().as_nanos() as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.span("x", now, now, 0, 0), 0);
        assert_eq!(t.open("y", 0, 0), 0);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.span("root", at(0), at(10), 0, 7);
        t.span("kid", at(1), at(4), root, 7);
        t.span("kid", at(3), at(6), root, 7); // overlaps the first
        let other = {
            let mut c = t.child();
            c.span("kid", at(8), at(9), 0, 7);
            c
        };
        t.merge(other);
        let s = t.summary();
        assert_eq!(s["root"], (1, 10_000_000, 5_000_000));
        assert_eq!(s["kid"].0, 3);
    }
}
