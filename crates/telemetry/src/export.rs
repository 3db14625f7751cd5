//! Exporters: Chrome trace-event JSON (Perfetto-loadable) and the
//! human-readable per-rank/per-phase summary table.

use crate::metrics::{AggregateRow, MetricEntry, MetricKind, MetricsSnapshot};
use crate::span::RankReport;
use std::fmt::Write as _;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render per-rank reports as Chrome trace-event JSON (the `traceEvents`
/// array format understood by Perfetto and `chrome://tracing`).
///
/// Schema: one process (`pid` 0, named "quadforest"), **one track per rank**
/// (`tid` = rank, named "rank N" via `thread_name` metadata), and one
/// complete event (`"ph": "X"`) per recorded span with microsecond `ts`/
/// `dur` (3 decimal places preserves the nanosecond clock). Events within a
/// track are emitted sorted by start time, so `ts` is monotonic per `tid`.
///
/// Each `(ts_ns, snapshot)` of `samples` — typically what
/// [`MetricSampler::finish`] returns — then adds one Chrome counter event
/// (`"ph":"C"`) per metric at its own timestamp. Counters and gauges
/// export their scalar; histograms export count, mean, and p50/p99/p999
/// quantiles, so latency SLOs are visible directly in Perfetto.
pub fn chrome_trace(reports: &[RankReport], samples: &[(u64, MetricsSnapshot)]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"quadforest\"}}",
    );
    for rep in reports {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"rank {rank}\"}}}}",
            rank = rep.rank
        );
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\"name\":\"thread_sort_index\",\
             \"args\":{{\"sort_index\":{rank}}}}}",
            rank = rep.rank
        );
        let mut spans = rep.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        for s in &spans {
            out.push_str(",\n{\"ph\":\"X\",\"pid\":0,\"tid\":");
            let _ = write!(out, "{}", rep.rank);
            out.push_str(",\"cat\":\"phase\",\"name\":\"");
            escape(s.name, &mut out);
            let _ = write!(
                out,
                "\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"depth\":{}}}}}",
                s.start_ns / 1000,
                s.start_ns % 1000,
                s.dur_ns / 1000,
                s.dur_ns % 1000,
                s.depth
            );
        }
    }
    for (ts, snap) in samples {
        for e in &snap.entries {
            counter_event(&mut out, e, *ts);
        }
    }
    out.push_str("\n]}\n");
    out
}

/// One Chrome `"ph":"C"` event for `e` at timestamp `ts` (ns).
fn counter_event(out: &mut String, e: &MetricEntry, ts: u64) {
    out.push_str(",\n{\"ph\":\"C\",\"pid\":0,\"name\":\"");
    escape(e.name, out);
    let _ = write!(out, "\",\"ts\":{}.{:03},\"args\":{{", ts / 1000, ts % 1000);
    match e.kind {
        MetricKind::Counter | MetricKind::Gauge => {
            let _ = write!(out, "\"value\":{}", e.scalar());
        }
        MetricKind::Histogram => {
            let count = e.scalar();
            let mean = e.sum().checked_div(count).unwrap_or(0);
            let _ = write!(out, "\"count\":{count},\"mean\":{mean}");
            for (q, label) in [(0.5, "p50"), (0.99, "p99"), (0.999, "p999")] {
                if let Some(v) = e.quantile(q) {
                    let _ = write!(out, ",\"{label}\":{v}");
                }
            }
        }
    }
    out.push_str("}}");
}

// ---------------------------------------------------------------------------
// Periodic metric samples
// ---------------------------------------------------------------------------

/// Background sampler of the [`crate::global`] registry: one thread takes
/// a timestamped snapshot when it starts, every period, and when it is
/// stopped, so Chrome counter tracks show *evolution* instead of one flat
/// value at the end of the run. [`MetricSampler::finish`] returns the
/// samples; dropping the sampler discards them. Either way the thread is
/// joined.
pub struct MetricSampler {
    /// Never sent on: dropping it wakes the thread for its last sample.
    stop: Option<mpsc::Sender<()>>,
    handle: Option<JoinHandle<Vec<(u64, MetricsSnapshot)>>>,
}

/// Start a [`MetricSampler`] with the given period.
pub fn sample_metrics_every(period: Duration) -> MetricSampler {
    let (stop, stopped) = mpsc::channel::<()>();
    let sample = || (crate::now_ns(), crate::global().snapshot());
    let handle = std::thread::Builder::new()
        .name("qf-sampler".into())
        .spawn(move || {
            let mut samples = vec![sample()];
            let mut running = true;
            while running {
                running = stopped.recv_timeout(period) == Err(mpsc::RecvTimeoutError::Timeout);
                samples.push(sample());
            }
            samples
        })
        .ok();
    MetricSampler {
        stop: Some(stop),
        handle,
    }
}

impl MetricSampler {
    /// Stop sampling and return the samples, oldest first: one from the
    /// start, one per elapsed period, and one taken now.
    pub fn finish(mut self) -> Vec<(u64, MetricsSnapshot)> {
        self.join()
    }

    fn join(&mut self) -> Vec<(u64, MetricsSnapshot)> {
        self.stop = None;
        // a sampler thread that panicked has already reported it
        self.handle
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for MetricSampler {
    fn drop(&mut self) {
        self.join();
    }
}

/// A phase's name and its `(calls, total ns)` per report.
type PhaseRow = (&'static str, Vec<(u64, u64)>);

/// One row per phase, ordered by the phase's earliest start over all
/// ranks.
fn phase_table(reports: &[RankReport]) -> Vec<PhaseRow> {
    let mut rows: Vec<(u64, PhaseRow)> = Vec::new();
    for (r, rep) in reports.iter().enumerate() {
        for s in &rep.spans {
            let i = match rows.iter().position(|(_, row)| row.0 == s.name) {
                Some(i) => i,
                None => {
                    rows.push((s.start_ns, (s.name, vec![(0, 0); reports.len()])));
                    rows.len() - 1
                }
            };
            let (first, (_, per_rank)) = &mut rows[i];
            *first = (*first).min(s.start_ns);
            per_rank[r].0 += 1;
            per_rank[r].1 += s.dur_ns;
        }
    }
    rows.sort_by_key(|&(first, _)| first);
    rows.into_iter().map(|(_, row)| row).collect()
}

/// Total recorded nanoseconds per phase, summed over every rank — the same
/// numbers the summary table prints, exposed for machine cross-checking
/// against the exported trace.
pub fn summary_totals(reports: &[RankReport]) -> Vec<(&'static str, u64)> {
    phase_table(reports)
        .into_iter()
        .map(|(name, per_rank)| (name, per_rank.iter().map(|&(_, ns)| ns).sum()))
        .collect()
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Human-readable per-rank/per-phase table: one row per span name, one
/// `calls`/`total ms` column pair per rank, plus an all-ranks total column.
pub fn summary_table(reports: &[RankReport]) -> String {
    let mut out = String::new();
    let mut header = format!("{:<16}", "phase");
    for rep in reports {
        header.push_str(&format!("  {:>14}", format!("rank {}", rep.rank)));
    }
    header.push_str(&format!("  {:>14}", "total ms"));
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{}", "-".repeat(header.len()));
    for (name, per_rank) in phase_table(reports) {
        let _ = write!(out, "{name:<16}");
        for &(calls, ns) in &per_rank {
            let _ = write!(out, "  {:>14}", format!("{calls}x {}", fmt_ms(ns)));
        }
        let total = per_rank.iter().map(|&(_, ns)| ns).sum();
        let _ = writeln!(out, "  {:>14}", fmt_ms(total));
    }
    let dropped: u64 = reports.iter().map(|r| r.dropped_spans).sum();
    let errors: u64 = reports.iter().map(|r| r.nesting_errors).sum();
    if dropped > 0 || errors > 0 {
        let _ = writeln!(out, "(dropped spans: {dropped}, nesting errors: {errors})");
    }
    out
}

/// Render aggregated cross-rank metrics ([`crate::aggregate`]) as a table.
/// Histogram rows carry p50/p99/p999 estimates from the merged HDR
/// buckets (≤1 % relative error) next to the mean.
pub fn metrics_table(rows: &[AggregateRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<32} {:>10} {:>14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "metric", "kind", "total", "min/rank", "max/rank", "mean obs", "p50", "p99", "p999"
    );
    let _ = writeln!(out, "{}", "-".repeat(137));
    for r in rows {
        let e = &r.merged;
        let mean = match e.kind {
            MetricKind::Histogram if e.scalar() > 0 => {
                format!("{:.1}", e.sum() as f64 / e.scalar() as f64)
            }
            _ => "-".into(),
        };
        let q = |q: f64| e.quantile(q).map_or_else(|| "-".into(), |v| v.to_string());
        let _ = writeln!(
            out,
            "{:<32} {:>10} {:>14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            r.name,
            r.kind.to_string(),
            r.total,
            r.min,
            r.max,
            mean,
            q(0.5),
            q(0.99),
            q(0.999)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{aggregate, Registry};
    use crate::span::SpanEvent;

    fn report(rank: usize, spans: Vec<SpanEvent>) -> RankReport {
        RankReport {
            rank,
            spans,
            ..Default::default()
        }
    }

    fn ev(name: &'static str, start: u64, dur: u64, depth: u16) -> SpanEvent {
        SpanEvent {
            name,
            start_ns: start,
            dur_ns: dur,
            depth,
        }
    }

    #[test]
    fn chrome_trace_has_one_track_per_rank() {
        let reports = vec![
            report(0, vec![ev("refine", 1000, 500, 0)]),
            report(
                1,
                vec![ev("refine", 1100, 400, 0), ev("balance", 2000, 1, 0)],
            ),
        ];
        let json = chrome_trace(&reports, &[]);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"rank 1\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":0.500"));
        // exactly one X event per span
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }

    #[test]
    fn chrome_trace_escapes_names() {
        let reports = vec![report(0, vec![ev("we\"ird\\name", 0, 1, 0)])];
        let json = chrome_trace(&reports, &[]);
        assert!(json.contains("we\\\"ird\\\\name"));
    }

    #[test]
    fn chrome_trace_sorted_by_start_per_track() {
        // recorded in exit order (inner first) — export must sort by start
        let reports = vec![report(
            0,
            vec![ev("inner", 500, 100, 1), ev("outer", 0, 1000, 0)],
        )];
        let json = chrome_trace(&reports, &[]);
        let outer_at = json.find("\"name\":\"outer\"").unwrap();
        let inner_at = json.find("\"name\":\"inner\"").unwrap();
        assert!(outer_at < inner_at);
    }

    #[test]
    fn summary_table_and_totals_agree() {
        let reports = vec![
            report(
                0,
                vec![
                    ev("refine", 0, 2_000_000, 0),
                    ev("balance", 5000, 1_000_000, 0),
                ],
            ),
            report(1, vec![ev("refine", 0, 4_000_000, 0)]),
        ];
        let totals = summary_totals(&reports);
        assert_eq!(totals, vec![("refine", 6_000_000), ("balance", 1_000_000)]);
        let table = summary_table(&reports);
        assert!(table.contains("refine"));
        assert!(table.contains("6.000")); // total ms column
        assert!(table.contains("1x 2.000"));
    }

    #[test]
    fn chrome_trace_emits_counter_events() {
        let reports = vec![report(0, vec![ev("serve", 1000, 2000, 0)])];
        let reg = Registry::default();
        reg.counter("query.served").add(42);
        reg.gauge("snapshot.generation").set(7);
        reg.histogram("query.point.latency_ns").record(900);
        reg.histogram("query.point.latency_ns").record(1100);
        let json = chrome_trace(&reports, &[(3_000, reg.snapshot())]);
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 3);
        assert!(json.contains("\"name\":\"query.served\",\"ts\":3.000,\"args\":{\"value\":42}"));
        assert!(
            json.contains("\"name\":\"snapshot.generation\",\"ts\":3.000,\"args\":{\"value\":7}")
        );
        assert!(json.contains("\"count\":2,\"mean\":1000"));
        // histogram counter events carry quantile estimates
        assert!(json.contains(",\"p50\":"), "{json}");
        assert!(json.contains(",\"p999\":"), "{json}");
        // still a valid trace: the span events come first, the array closes
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert!(json.ends_with("\n]}\n"));
    }

    #[test]
    fn periodic_samples_land_at_their_own_timestamps() {
        let reg = Registry::default();
        let c = reg.counter("export.sample.test");
        let mut samples = Vec::new();
        for ts in [1_000, 2_000, 3_000] {
            c.add(1);
            samples.push((ts, reg.snapshot()));
        }
        let json = chrome_trace(&[], &samples);
        let events: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"ph\":\"C\""))
            .map(|l| l.trim_end_matches(','))
            .collect();
        assert_eq!(
            events,
            [1, 2, 3].map(|v| format!(
                "{{\"ph\":\"C\",\"pid\":0,\"name\":\"export.sample.test\",\"ts\":{v}.000,\"args\":{{\"value\":{v}}}}}"
            ))
        );
    }

    #[test]
    fn sampler_samples_at_start_and_at_finish() {
        let c = crate::global().counter("export.sampler.test");
        c.add(1);
        let samples = sample_metrics_every(std::time::Duration::from_secs(60)).finish();
        // no period elapsed: the sample from the start and the one at finish
        assert_eq!(samples.len(), 2);
        assert!(samples[0].0 <= samples[1].0);
        for (_, snap) in &samples {
            assert!(snap
                .get("export.sampler.test", MetricKind::Counter)
                .is_some());
        }
    }

    #[test]
    fn metrics_table_renders_rows() {
        let reg = Registry::default();
        reg.counter("comm.msgs").add(7);
        reg.histogram("lat_ns").record(100);
        let rows = aggregate(&[reg.snapshot()]);
        let t = metrics_table(&rows);
        assert!(t.contains("comm.msgs"));
        assert!(t.contains("counter"));
        assert!(t.contains("lat_ns"));
        assert!(t.contains("100.0")); // mean of single observation
    }
}
