//! The benchmark's own span recorder: one span around every call into
//! a layer's public function, kept in memory and written out as Chrome
//! trace events when the run ends.
//!
//! Span names are `<layer>.<function>`; the part before the first dot
//! is the layer (`core`, `forest`, `comm`, `query`, `pde`). The root
//! span of one repetition (a sweep, rep, cycle, batch or round) belongs
//! to the `bench` layer, so its self time is exactly the time no layer
//! accounts for.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index, in the same log, of the span that was open when this one
    /// started — the span that caused it.
    pub parent: Option<u32>,
    pub rank: u32,
    /// Repetition id shared by all spans of one rep.
    pub rep: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread (per-rank) span log. Switched off it records nothing and
/// `span` is a plain call, so the untraced run pays one branch per site.
pub struct SpanLog {
    on: bool,
    rank: u32,
    rep: u32,
    epoch: Instant,
    stack: Vec<u32>,
    spans: Vec<SpanRec>,
}

impl SpanLog {
    /// A log for `rank`; all ranks of one world share `epoch` so their
    /// tracks line up.
    pub fn new(on: bool, rank: usize, epoch: Instant) -> Self {
        SpanLog {
            on,
            rank: rank as u32,
            rep: 0,
            epoch,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A log that records nothing.
    pub fn off() -> Self {
        SpanLog::new(false, 0, Instant::now())
    }

    /// Set the repetition id stamped on the spans that follow.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(SpanRec {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            rank: self.rank,
            rep: self.rep,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans
    }
}

/// Concatenate per-rank logs into one list, rewriting parent indices.
pub fn merge(logs: Vec<Vec<SpanRec>>) -> Vec<SpanRec> {
    let mut out = Vec::with_capacity(logs.iter().map(Vec::len).sum());
    for log in logs {
        let base = out.len() as u32;
        out.extend(log.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p as usize] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time summed per layer, in seconds.
pub fn layer_self_seconds(spans: &[SpanRec]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(layer_of(s.name).to_string()).or_insert(0.0) += self_ns as f64 * 1e-9;
    }
    out
}

/// Share (in percent) of the root spans' time that no child span
/// covers: `Σ self(root) / Σ dur(root)`. Roots are the parentless spans
/// of the `bench` layer, one per repetition.
pub fn unattributed_pct(spans: &[SpanRec]) -> f64 {
    let (mut own, mut total) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        if s.parent.is_none() && layer_of(s.name) == "bench" {
            own += self_ns;
            total += s.dur_ns();
        }
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64 * 100.0
    }
}

/// Durations (seconds) of the spans called `name`, one value per rep:
/// summed over the rep's spans of that name on one rank, then the
/// slowest rank taken — the rank the others wait for.
pub fn per_rep_max_over_ranks(spans: &[SpanRec], name: &str) -> Vec<f64> {
    let mut by_rep_rank: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_rep_rank.entry((s.rep, s.rank)).or_insert(0) += s.dur_ns();
    }
    let mut by_rep: BTreeMap<u32, u64> = BTreeMap::new();
    for ((rep, _), ns) in by_rep_rank {
        let slot = by_rep.entry(rep).or_insert(0);
        *slot = (*slot).max(ns);
    }
    by_rep.into_values().map(|ns| ns as f64 * 1e-9).collect()
}

/// Rank imbalance of the spans called `name`: `(max − mean) / max` of
/// the per-rank total time, 0 when there is one rank or no time.
pub fn imbalance(spans: &[SpanRec], name: &str) -> f64 {
    let mut by_rank: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_rank.entry(s.rank).or_insert(0) += s.dur_ns();
    }
    let max = by_rank.values().copied().max().unwrap_or(0) as f64;
    if max == 0.0 {
        return 0.0;
    }
    let mean = by_rank.values().sum::<u64>() as f64 / by_rank.len() as f64;
    (max - mean) / max
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"X"`) event per span, one track per rank.
pub fn chrome_trace(workload: &str, spans: &[SpanRec]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(layer_of(s.name))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(0.0)),
                ("tid", Json::Num(s.rank as f64)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        ("rep", Json::Num(s.rep as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("otherData", Json::obj([("workload", Json::str(workload))])),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<u32>, rank: u32) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rank,
            rep: 0,
        }
    }

    /// rep [0,1000) ├ forest.balance [100,700) ├ comm.alltoallv [200,500)
    ///              └ forest.ghost   [700,960)
    fn synthetic() -> Vec<SpanRec> {
        vec![
            rec("bench.rep", 0, 1000, None, 0),
            rec("forest.balance", 100, 700, Some(0), 0),
            rec("comm.alltoallv", 200, 500, Some(1), 0),
            rec("forest.ghost", 700, 960, Some(0), 0),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = synthetic();
        assert_eq!(self_times(&spans), vec![140, 300, 300, 260]);
        let layers = layer_self_seconds(&spans);
        assert!((layers["forest"] - 560e-9).abs() < 1e-15);
        assert!((layers["comm"] - 300e-9).abs() < 1e-15);
        assert!((layers["bench"] - 140e-9).abs() < 1e-15);
        assert!((unattributed_pct(&spans) - 14.0).abs() < 1e-9);
    }

    #[test]
    fn child_overhanging_its_parent_is_clipped() {
        let spans = vec![
            rec("bench.rep", 100, 200, None, 0),
            rec("x.y", 150, 260, Some(0), 0),
        ];
        assert_eq!(self_times(&spans), vec![50, 110]);
    }

    #[test]
    fn recorder_nests_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(true, 0, epoch);
        a.set_rep(3);
        let v = a.span("rep", |l| l.span("forest.refine", |_| 7));
        assert_eq!(v, 7);
        let mut b = SpanLog::new(true, 1, epoch);
        b.span("rep", |l| l.span("forest.refine", |_| ()));
        let merged = merge(vec![a.into_spans(), b.into_spans()]);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[1].parent, Some(0));
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!((merged[1].rep, merged[3].rank), (3, 1));
        assert!(merged.iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = SpanLog::off();
        assert_eq!(off.span("rep", |_| 1), 1);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn per_rep_statistics_take_the_slowest_rank() {
        let mut spans = vec![
            rec("forest.balance", 0, 100, None, 0),
            rec("forest.balance", 0, 300, None, 1),
        ];
        spans.push(SpanRec {
            rep: 1,
            ..rec("forest.balance", 400, 600, None, 0)
        });
        let per_rep = per_rep_max_over_ranks(&spans, "forest.balance");
        assert_eq!(per_rep.len(), 2);
        assert!((per_rep[0] - 300e-9).abs() < 1e-15 && (per_rep[1] - 200e-9).abs() < 1e-15);
        // rank totals 300 and 300 → balanced
        assert_eq!(imbalance(&spans, "forest.balance"), 0.0);
        assert!((imbalance(&spans[..2], "forest.balance") - (300.0 - 200.0) / 300.0).abs() < 1e-12);
        assert_eq!(imbalance(&spans, "missing"), 0.0);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let doc = chrome_trace("amr_shell", &synthetic());
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[2].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[2].get("cat").unwrap().as_str(), Some("comm"));
        assert_eq!(events[2].get("dur").unwrap().as_f64(), Some(0.3));
        let parent = events[2].get("args").unwrap().get("parent").unwrap();
        assert_eq!(parent.as_f64(), Some(1.0));
        assert_eq!(Json::parse(&doc.to_compact()).unwrap(), doc);
    }
}
