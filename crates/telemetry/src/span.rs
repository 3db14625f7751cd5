//! Span events and the per-rank ring buffer they are recorded into.

use crate::metrics::MetricsSnapshot;

/// A completed span: name, start on the shared monotonic clock, duration,
/// and nesting depth at the time the span was opened (0 = top level).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub depth: u16,
}

/// Fixed-capacity ring of completed spans. When full, the **oldest** event
/// is overwritten (the tail of a run is usually the interesting part) and
/// `dropped` counts the overwrites.
#[derive(Clone, Debug)]
pub(crate) struct SpanRing {
    buf: Vec<SpanEvent>,
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl SpanRing {
    pub(crate) fn new(capacity: usize) -> Self {
        SpanRing {
            buf: Vec::new(),
            cap: capacity.max(1),
            head: 0,
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, ev: SpanEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events oldest-first (unwraps the ring).
    pub(crate) fn to_vec(&self) -> Vec<SpanEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// Everything one rank recorded: spans (completion order), a snapshot of its
/// metric registry, and recorder health counters. `Clone + Send + 'static`
/// so it can be returned from a rank closure or allgathered.
#[derive(Clone, Debug, Default)]
pub struct RankReport {
    pub rank: usize,
    pub spans: Vec<SpanEvent>,
    pub metrics: MetricsSnapshot,
    /// Spans overwritten because the ring filled up.
    pub dropped_spans: u64,
    /// Span exits that did not match the innermost open span (should be 0;
    /// RAII guards make a mismatch possible only via `mem::forget` or
    /// cross-scope guard shuffling).
    pub nesting_errors: u64,
}

impl RankReport {
    /// Total recorded duration of all spans with the given name.
    pub fn phase_total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Check the interval structure is properly nested: sorted by start,
    /// every span must either contain or be disjoint from the next ones at
    /// greater depth, matching the recorded depths.
    pub fn spans_well_nested(&self) -> bool {
        let mut sorted: Vec<&SpanEvent> = self.spans.iter().collect();
        sorted.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        let mut stack: Vec<&SpanEvent> = Vec::new();
        for ev in sorted {
            while let Some(top) = stack.last() {
                if ev.start_ns >= top.start_ns + top.dur_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                // Must end within the enclosing span and sit one level deeper
                // (or more, if siblings at intermediate depths were dropped).
                if ev.start_ns + ev.dur_ns > top.start_ns + top.dur_ns {
                    return false;
                }
                if ev.depth <= top.depth {
                    return false;
                }
            } else if ev.depth != 0 && self.dropped_spans == 0 {
                // Depth > 0 with no enclosing interval: the parent span is
                // still open (not yet recorded) — tolerated only while its
                // exit is pending, which cannot happen in a final report.
                return false;
            }
            stack.push(ev);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, start: u64, dur: u64, depth: u16) -> SpanEvent {
        SpanEvent {
            name,
            start_ns: start,
            dur_ns: dur,
            depth,
        }
    }

    #[test]
    fn ring_keeps_newest() {
        let mut r = SpanRing::new(3);
        for i in 0..5 {
            r.push(ev("x", i, 1, 0));
        }
        assert_eq!(r.dropped(), 2);
        let v = r.to_vec();
        assert_eq!(
            v.iter().map(|e| e.start_ns).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn well_nested_accepts_proper_tree() {
        let rep = RankReport {
            spans: vec![
                ev("inner", 10, 5, 1),
                ev("outer", 0, 100, 0),
                ev("inner2", 20, 5, 1),
                ev("leaf", 21, 2, 2),
                ev("next", 200, 10, 0),
            ],
            ..Default::default()
        };
        assert!(rep.spans_well_nested());
    }

    #[test]
    fn well_nested_rejects_overlap() {
        let rep = RankReport {
            spans: vec![ev("a", 0, 10, 0), ev("b", 5, 10, 1)],
            ..Default::default()
        };
        assert!(!rep.spans_well_nested());
    }

    #[test]
    fn phase_totals_sum_by_name() {
        let rep = RankReport {
            spans: vec![ev("p", 0, 5, 0), ev("q", 10, 7, 0), ev("p", 20, 5, 0)],
            ..Default::default()
        };
        assert_eq!(rep.phase_total_ns("p"), 10);
        assert_eq!(rep.phase_total_ns("q"), 7);
        assert_eq!(rep.phase_total_ns("zzz"), 0);
    }
}
