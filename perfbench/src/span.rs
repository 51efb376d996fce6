//! In-memory spans recorded by the benchmark around its calls into each
//! crate, with self-time accounting.
//!
//! A span has a name, a start and end (ns since the run's base
//! instant), the span that caused it, and the episode or request id it
//! belongs to. A disabled [`Tracer`] records nothing and reads no clock,
//! so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Call-site name, `layer.call`.
    pub name: &'static str,
    /// Start, ns since the tracer's base.
    pub start_ns: u64,
    /// End, ns since the tracer's base (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Episode, request or cell id the span belongs to.
    pub id: u64,
}

/// Handle of an open span; `None` when the tracer is off or full.
pub type SpanId = Option<usize>;

/// A bounded per-thread span buffer.
pub struct Tracer {
    on: bool,
    base: Instant,
    cap: usize,
    spans: Vec<Span>,
    dropped: u64,
}

/// Spans one tracer keeps before counting the rest as dropped.
pub const DEFAULT_CAP: usize = 1 << 18;

impl Tracer {
    /// A tracer timing against `base`; records only when `on`.
    pub fn new(on: bool, base: Instant) -> Self {
        Self::with_cap(on, base, DEFAULT_CAP)
    }

    /// As [`Tracer::new`], keeping at most `cap` spans.
    pub fn with_cap(on: bool, base: Instant, cap: usize) -> Self {
        Self {
            on,
            base,
            cap,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A disabled tracer.
    pub fn off() -> Self {
        Self::new(false, Instant::now())
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The shared time base.
    pub fn base(&self) -> Instant {
        self.base
    }

    /// ns since the base.
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        if !self.on {
            return None;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, span: SpanId) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Records an already measured interval.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    /// Moves another tracer's spans (recorded on another thread against
    /// the same base) into this one; its root spans become children of
    /// `attach_to`.
    pub fn absorb(&mut self, other: Tracer, attach_to: SpanId) {
        let offset = self.spans.len();
        self.dropped += other.dropped;
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + offset),
                None => attach_to,
            };
            self.spans.push(s);
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not kept because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes every span as tab-separated values.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tid")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

/// Per-name totals: calls, summed duration and summed self time (ns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own. Children may overlap when
/// they ran on different threads; the union counts shared time once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Folds spans into per-name totals, ordered by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns.saturating_sub(s.start_ns);
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): children [10,30) and [20,50) overlap (two
        // threads), [60,70) is disjoint, [90,120) sticks out and is
        // clipped to [90,100). The grandchild [12,18) is charged to its
        // own parent only.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            span("d", 90, 120, Some(0)),
            span("a.leaf", 12, 18, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - (40 + 10 + 10), 20 - 6, 30, 10, 30, 6]);
        let t = totals(&spans);
        assert_eq!(t["root"].self_ns, 40);
        assert_eq!(t["a"].total_ns, 20);
        assert_eq!(t["a.leaf"].count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_reparents() {
        let base = Instant::now();
        let mut off = Tracer::new(false, base);
        let s = off.begin("x", None, 1);
        off.end(s);
        assert!(s.is_none() && off.spans().is_empty());

        let mut main = Tracer::new(true, base);
        let root = main.record("root", None, 0, 0, 100);
        let mut worker = Tracer::new(true, base);
        let w = worker.record("w", None, 0, 10, 20);
        worker.record("w.leaf", w, 0, 11, 12);
        main.absorb(worker, root);
        assert_eq!(main.spans()[1].parent, Some(0));
        assert_eq!(main.spans()[2].parent, Some(1));

        let mut full = Tracer::with_cap(true, base, 1);
        full.record("a", None, 0, 0, 1);
        assert!(full.record("b", None, 0, 1, 2).is_none());
        assert_eq!(full.dropped(), 1);
    }
}
