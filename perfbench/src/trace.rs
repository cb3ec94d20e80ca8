//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into each
//! layer's public functions. Each span has a name, a start, an end and the
//! span that was open when it started (its parent). Totals, counts and self
//! times (duration minus the part covered by direct children) are computed
//! when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub total_s: f64,
    pub self_s: f64,
    pub count: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Records an already-measured interval as a span under the open span
    /// (for work timed where a closure cannot reach, e.g. a blocking
    /// iterator step).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let s = start.duration_since(self.origin).as_secs_f64();
        let e = end.duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: s,
            end: e,
        });
    }

    /// Per-name totals, self times and counts.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_time = vec![0.0_f64; self.spans.len()];
        for sp in &self.spans {
            if let Some(p) = sp.parent {
                child_time[p] += sp.end - sp.start;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let a = out.entry(sp.name).or_default();
            let dur = sp.end - sp.start;
            a.total_s += dur;
            a.self_s += (dur - child_time[i]).max(0.0);
            a.count += 1;
        }
        out
    }

    /// Summed duration of the spans that have no parent.
    pub fn top_level_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let agg = t.aggregate();
        let outer = agg["outer"];
        let inner = agg["inner"];
        assert!(outer.total_s >= inner.total_s);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        assert_eq!(inner.count, 1);
        assert!((t.top_level_s() - outer.total_s).abs() < 1e-12);
    }
}
