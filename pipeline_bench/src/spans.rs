//! In-memory spans recorded from the benchmark's own code around each
//! call into a layer, and the self-time arithmetic the per-layer metrics
//! are computed from.
//!
//! Spans nest by call order on the benchmark's (single) driving thread:
//! the open span when another starts is its parent. Every span carries
//! the id of the round ("run") it belongs to. Timestamps are that
//! thread's CPU time, the clock of the untraced timings they are
//! compared with. Nothing is written until the run ends ([`chrome_json`]).

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;

use crate::clock::thread_ns;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while switched on; a switched-off recorder costs one
/// `Cell` read per span.
pub struct Recorder {
    origin: u64,
    on: Cell<bool>,
    run: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
#[must_use = "a span closes when its guard drops"]
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: Option<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: thread_ns(),
            on: Cell::new(false),
            run: Cell::new(0),
            spans: RefCell::new(Vec::with_capacity(1 << 16)),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Tags the spans opened from now on with round `run`.
    pub fn set_run(&self, run: u32) {
        self.run.set(run);
    }

    fn now_ns(&self) -> u64 {
        thread_ns() - self.origin
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.on.get() {
            return Guard { rec: self, id: None };
        }
        let now = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let parent = self.open.borrow().last().copied();
        spans.push(Span { name, start_ns: now, end_ns: now, parent, run: self.run.get() });
        self.open.borrow_mut().push(id);
        Guard { rec: self, id: Some(id) }
    }

    /// Index the next recorded span will get.
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let now = self.rec.now_ns();
            self.rec.spans.borrow_mut()[id].end_ns = now;
            let top = self.rec.open.borrow_mut().pop();
            debug_assert_eq!(top, Some(id), "spans close in reverse opening order");
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals over the subtree rooted at span `root`: summed self
/// times and summed durations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub self_ns: u64,
    pub dur_ns: u64,
}

/// [`LayerTotals`] for every span name under `root` (root included).
/// Spans are recorded in opening order, so a subtree is contiguous from
/// `root` on and every member's parent precedes it.
pub fn layer_totals(
    spans: &[Span],
    self_ns: &[u64],
    root: usize,
) -> Vec<(&'static str, LayerTotals)> {
    let mut inside = vec![false; spans.len()];
    let mut out: Vec<(&'static str, LayerTotals)> = Vec::new();
    for i in root..spans.len() {
        inside[i] = i == root || spans[i].parent.is_some_and(|p| p >= root && inside[p]);
        if !inside[i] {
            continue;
        }
        let pos = match out.iter().position(|(n, _)| *n == spans[i].name) {
            Some(pos) => pos,
            None => {
                out.push((spans[i].name, LayerTotals::default()));
                out.len() - 1
            }
        };
        let t = &mut out[pos].1;
        t.self_ns += self_ns[i];
        t.dur_ns += spans[i].dur_ns();
    }
    out
}

/// Looks a name up in [`layer_totals`] output (zero when absent).
pub fn totals_of(totals: &[(&'static str, LayerTotals)], name: &str) -> LayerTotals {
    totals.iter().find(|(n, _)| *n == name).map(|(_, t)| t.clone()).unwrap_or_default()
}

/// Chrome trace-event JSON of the spans (`chrome://tracing` loads it):
/// one complete event per span, the round as the thread lane, and the
/// span and parent ids in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.run,
            s.run
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, run: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("extract", 0, 100, None),
            span("wavelet.extract", 10, 80, Some(0)),
            span("substrate.solve", 20, 30, Some(1)),
            span("substrate.solve", 40, 60, Some(1)),
            span("hier.threshold", 85, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 10, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 120, Some(0)), // clipped to the parent
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn layer_totals_reconcile_with_the_root_span() {
        let spans = vec![
            span("earlier", 0, 5, None),
            span("extract", 10, 110, None),
            span("wavelet.extract", 15, 85, Some(1)),
            span("substrate.solve", 20, 30, Some(2)),
            span("substrate.solve", 40, 60, Some(2)),
            span("hier.threshold", 90, 100, Some(1)),
            span("later", 120, 130, None),
        ];
        let st = self_times(&spans);
        let totals = layer_totals(&spans, &st, 1);
        let sum: u64 = totals.iter().map(|(_, t)| t.self_ns).sum();
        // self times of a subtree add back up to its root's duration
        assert_eq!(sum, spans[1].dur_ns());
        let solve = totals_of(&totals, "substrate.solve");
        assert_eq!(solve, LayerTotals { self_ns: 30, dur_ns: 30 });
        // the unaccounted remainder is the root's own self time
        assert_eq!(totals_of(&totals, "extract").self_ns, 100 - 70 - 10);
        assert_eq!(totals_of(&totals, "later"), LayerTotals::default());
        assert_eq!(totals_of(&totals, "earlier"), LayerTotals::default());
    }

    #[test]
    fn recorder_nests_by_call_order_and_tags_runs() {
        let rec = Recorder::new();
        {
            let _off = rec.span("ignored");
        }
        assert_eq!(rec.mark(), 0);
        rec.set_on(true);
        rec.set_run(7);
        {
            let _a = rec.span("a");
            {
                let _b = rec.span("b");
            }
            let _c = rec.span("c");
        }
        let spans = rec.spans();
        let parents: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.run)).collect();
        assert_eq!(parents, vec![("a", None, 7), ("b", Some(0), 7), ("c", Some(0), 7)]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }

    #[test]
    fn chrome_json_lists_every_span_with_its_parent() {
        let spans = vec![span("a", 0, 2000, None), span("b", 500, 1500, Some(0))];
        let json = chrome_json(&spans);
        assert!(json.contains("\"name\":\"a\",\"ph\":\"X\",\"ts\":0.000,\"dur\":2.000"));
        assert!(json.contains("\"args\":{\"id\":1,\"parent\":0,\"run\":0}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }
}
