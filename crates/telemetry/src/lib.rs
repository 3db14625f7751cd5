//! # quadforest-telemetry
//!
//! Hand-rolled, dependency-free observability for the quadforest workspace:
//! phase **spans** with thread-local scoping and monotonic timestamps
//! recorded into per-rank ring buffers, typed **metrics** (counters, gauges,
//! fixed-bucket histograms) with lock-free atomic hot paths, and
//! **exporters** for a per-rank/per-phase summary table and Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! ## Model
//!
//! The simulated-MPI world runs one OS thread per rank, so "per rank" and
//! "per thread" coincide: a rank opts in with [`begin_rank`], which installs
//! a thread-local recorder (span stack + ring buffer + metric registry), and
//! collects everything it recorded with [`finish_rank`]. Cross-rank views
//! are built by shipping [`MetricsSnapshot`]/[`RankReport`] values through
//! the existing `Comm` collectives (`allgather`/`allreduce`) and merging
//! with [`aggregate`] — this crate deliberately sits *below* the comm layer
//! and never does communication itself. Every exporter reads metric values
//! through [`MetricEntry`], and takes periodic counter samples as an
//! argument ([`MetricSampler::finish`] returns them) rather than from a
//! global store.
//!
//! Process-global state (shared by all rank threads, e.g. the SIMD
//! dispatch-tier counters) lives in the [`global`] registry instead.
//!
//! ## Disabled-mode cost contract
//!
//! With no recorder installed anywhere ([`disabled`] returns `true`), a span
//! site costs one relaxed atomic load and a branch — `tests/disabled_cost.rs`
//! guards this at **< 2 ns per span site** in release builds — so
//! instrumentation stays compiled in and enabled by default.
//!
//! ```
//! use quadforest_telemetry as telemetry;
//!
//! telemetry::begin_rank(0);
//! {
//!     let _phase = telemetry::span("refine");
//!     telemetry::counter_add("leaves", 64);
//! }
//! let report = telemetry::finish_rank().unwrap();
//! assert_eq!(report.spans.len(), 1);
//! assert_eq!(report.spans[0].name, "refine");
//! ```

mod export;
pub mod flight;
mod metrics;
mod prom;
mod span;

pub use export::{
    chrome_trace, metrics_table, sample_metrics_every, summary_table, summary_totals, MetricSampler,
};
pub use metrics::{
    aggregate, bucket_bounds, bucket_index, bucket_midpoint, quantile_from_buckets, AggregateRow,
    Counter, Gauge, Histogram, MetricEntry, MetricKind, MetricsSnapshot, Registry,
    HISTOGRAM_BUCKETS,
};
pub use prom::{
    note_batch_latency, serve_metrics, set_slow_query_threshold_ns, slow_query_threshold_ns,
    MetricsServer,
};
pub use span::{RankReport, SpanEvent};

use span::SpanRing;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Default per-rank ring capacity (events). At ~32 bytes an event this is
/// ~2 MiB per rank worst case.
const DEFAULT_RING_CAPACITY: usize = 1 << 16;

// ---------------------------------------------------------------------------
// Monotonic clock
// ---------------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the first telemetry use in this process. Monotonic and
/// shared across threads, so per-rank tracks line up in one trace.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Global (process-wide) registry
// ---------------------------------------------------------------------------

/// The process-global metric registry, for state genuinely shared across
/// rank threads (e.g. `core::simd` dispatch counters). Handles resolved from
/// it are lock-free on the hot path.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

// ---------------------------------------------------------------------------
// Metric-name interning
// ---------------------------------------------------------------------------

/// Intern a metric name into a `&'static str`.
///
/// Every name in the telemetry API is `&'static str` (lock-free hot
/// path, no per-sample allocation). Snapshots arriving from *another
/// process* — the socket transport's cross-rank `aggregate_metrics` —
/// carry names as bytes, so decoding needs a static string back. The
/// name resolves through the [`flight::name_id`] table, which leaks a
/// novel name exactly once.
pub fn intern_name(name: &str) -> &'static str {
    flight::intern(name).1
}

// ---------------------------------------------------------------------------
// Thread-local rank recorder
// ---------------------------------------------------------------------------

struct Recorder {
    rank: usize,
    /// Open spans: (name, start_ns).
    stack: Vec<(&'static str, u64)>,
    ring: SpanRing,
    registry: Registry,
    nesting_errors: u64,
    /// Innermost span that was open when this thread first started
    /// panicking — survives the unwind (the span stack does not), so abort
    /// reports can name the phase a rank died in.
    failure_phase: Option<&'static str>,
}

impl Drop for Recorder {
    fn drop(&mut self) {
        // The ACTIVE count pairs with begin_rank's increment. Decrementing
        // here (not in finish_rank) means a rank that dies before calling
        // finish_rank still releases its slot when the thread-local is
        // destroyed — otherwise disabled() would stay false forever.
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Count of installed recorders across all threads. Zero ⇒ every span site
/// takes the single-load early-out, which is the disabled-cost contract.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// True if *any* thread currently records telemetry. (A span site on a
/// thread without its own recorder is still near-free: the thread-local
/// probe returns an inert guard.)
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// True when telemetry is fully off and span sites cost < 2 ns.
#[inline]
pub fn disabled() -> bool {
    !enabled()
}

/// Install a recorder for the calling thread with the default ring capacity.
/// The thread's spans and per-rank metrics are collected by [`finish_rank`].
pub fn begin_rank(rank: usize) {
    // Pin the clock epoch before any span records against it.
    let _ = epoch();
    // Flight events recorded by this thread now carry the rank.
    flight::set_thread_rank(rank as u32);
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        // Increment first; if this replaces an existing recorder, its
        // Drop rebalances the count.
        ACTIVE.fetch_add(1, Ordering::Relaxed);
        *r = Some(Recorder {
            rank,
            stack: Vec::with_capacity(16),
            ring: SpanRing::new(DEFAULT_RING_CAPACITY),
            registry: Registry::default(),
            nesting_errors: 0,
            failure_phase: None,
        });
    });
}

/// Uninstall the calling thread's recorder and return everything it
/// captured. `None` if [`begin_rank`] was never called on this thread.
pub fn finish_rank() -> Option<RankReport> {
    RECORDER.with(|r| {
        let rec = r.borrow_mut().take()?; // Recorder::drop rebalances ACTIVE
        Some(RankReport {
            rank: rec.rank,
            spans: rec.ring.to_vec(),
            metrics: rec.registry.snapshot(),
            dropped_spans: rec.ring.dropped(),
            nesting_errors: rec.nesting_errors,
        })
    })
}

/// Snapshot the calling rank's metric registry without uninstalling the
/// recorder (empty snapshot if none). This is what travels through
/// `allgather` for live cross-rank aggregation.
pub fn rank_snapshot() -> MetricsSnapshot {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .map(|rec| rec.registry.snapshot())
            .unwrap_or_default()
    })
}

/// Name of the innermost open span on this thread, if any.
pub fn current_span() -> Option<&'static str> {
    if disabled() {
        return None;
    }
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .and_then(|rec| rec.stack.last().map(|&(n, _)| n))
    })
}

/// The span this thread was inside when it started panicking, falling back
/// to the currently open span. Lets `catch_unwind`-style handlers name the
/// phase a rank died in even though the unwind already closed its spans.
pub fn failure_phase() -> Option<&'static str> {
    if disabled() {
        return None;
    }
    RECORDER
        .with(|r| r.borrow().as_ref().and_then(|rec| rec.failure_phase))
        .or_else(current_span)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII guard for an open span; records a [`SpanEvent`] on drop.
#[must_use = "a span is recorded when its guard drops"]
pub struct Span {
    armed: bool,
    name: &'static str,
    depth: usize,
}

/// Open a span. When telemetry is disabled this is one atomic load and a
/// branch (< 2 ns, guarded by `tests/disabled_cost.rs`); when enabled it pushes
/// onto the thread-local span stack and timestamps the entry.
#[inline]
pub fn span(name: &'static str) -> Span {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return Span {
            armed: false,
            name,
            depth: 0,
        };
    }
    span_enter(name)
}

#[cold]
fn span_enter(name: &'static str) -> Span {
    if flight::armed() {
        flight::event(
            flight::FlightKind::PhaseEnter,
            0,
            flight::name_id(name) as u64,
            0,
        );
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        match r.as_mut() {
            Some(rec) => {
                let depth = rec.stack.len();
                rec.stack.push((name, now_ns()));
                Span {
                    armed: true,
                    name,
                    depth,
                }
            }
            None => Span {
                armed: false,
                name,
                depth: 0,
            },
        }
    })
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            span_exit(self.name, self.depth);
        }
    }
}

#[cold]
fn span_exit(name: &'static str, depth: usize) {
    let end = now_ns();
    let panicking = std::thread::panicking();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else { return };
        if panicking && rec.failure_phase.is_none() {
            // First guard dropped by the unwind = the innermost open span.
            rec.failure_phase = Some(name);
        }
        match rec.stack.pop() {
            Some((top_name, start)) if top_name == name && rec.stack.len() == depth => {
                let dur_ns = end.saturating_sub(start);
                if flight::armed() {
                    flight::event(
                        flight::FlightKind::PhaseExit,
                        0,
                        flight::name_id(name) as u64,
                        dur_ns,
                    );
                }
                rec.ring.push(SpanEvent {
                    name,
                    start_ns: start,
                    dur_ns,
                    depth: depth.min(u16::MAX as usize) as u16,
                });
            }
            _ => {
                // Exit does not match the innermost open span (guard leaked
                // or dropped out of order). Repair to this guard's depth so
                // one bad site cannot corrupt the rest of the run.
                rec.nesting_errors += 1;
                rec.stack.truncate(depth);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Per-rank metric convenience (by-name, no handle caching needed)
// ---------------------------------------------------------------------------

fn with_recorder(f: impl FnOnce(&mut Recorder)) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Add to a per-rank counter. No-op when this thread has no recorder.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if enabled() {
        with_recorder(|rec| rec.registry.counter(name).add(delta));
    }
}

/// Set a per-rank gauge. No-op when this thread has no recorder.
#[inline]
pub fn gauge_set(name: &'static str, value: u64) {
    if enabled() {
        with_recorder(|rec| rec.registry.gauge(name).set(value));
    }
}

/// Record into a per-rank histogram. No-op when this thread has no recorder.
#[inline]
pub fn histogram_record(name: &'static str, value: u64) {
    if enabled() {
        with_recorder(|rec| rec.registry.histogram(name).record(value));
    }
}

/// RAII timer: records elapsed nanoseconds into a per-rank histogram on
/// drop. Inert (no clock read) when telemetry is disabled.
#[must_use = "a timer records when its guard drops"]
pub struct Timer {
    name: &'static str,
    start: Option<Instant>,
}

/// Start a [`Timer`] for `name` (histogram of nanoseconds).
#[inline]
pub fn timer(name: &'static str) -> Timer {
    let start = enabled().then(Instant::now);
    Timer { name, start }
}

impl Drop for Timer {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            histogram_record(self.name, start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The thread-local recorder makes these tests order-sensitive within a
    // thread; each test spawns its own thread to stay isolated.
    fn on_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::spawn(f).join().unwrap()
    }

    #[test]
    fn disabled_thread_records_nothing() {
        on_thread(|| {
            let _s = span("ignored");
            counter_add("ignored", 1);
            gauge_set("ignored", 1);
            histogram_record("ignored", 1);
            let _t = timer("ignored");
            assert!(finish_rank().is_none());
            assert_eq!(rank_snapshot(), MetricsSnapshot::default());
            assert_eq!(current_span(), None);
        });
    }

    #[test]
    fn spans_nest_and_record_in_exit_order() {
        let report = on_thread(|| {
            begin_rank(3);
            {
                let _outer = span("outer");
                assert_eq!(current_span(), Some("outer"));
                {
                    let _inner = span("inner");
                    assert_eq!(current_span(), Some("inner"));
                }
                assert_eq!(current_span(), Some("outer"));
            }
            finish_rank().unwrap()
        });
        assert_eq!(report.rank, 3);
        assert_eq!(report.nesting_errors, 0);
        let names: Vec<_> = report.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["inner", "outer"]);
        assert_eq!(report.spans[0].depth, 1);
        assert_eq!(report.spans[1].depth, 0);
        assert!(report.spans_well_nested());
        // inner is contained in outer on the monotonic clock
        let (inner, outer) = (&report.spans[0], &report.spans[1]);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn leaked_guard_counts_one_nesting_error_and_repairs() {
        let report = on_thread(|| {
            begin_rank(0);
            {
                let _outer = span("outer");
                std::mem::forget(span("leaked"));
            } // outer's exit sees "leaked" on top -> mismatch, repair
            {
                let _ok = span("after");
            }
            finish_rank().unwrap()
        });
        assert_eq!(report.nesting_errors, 1);
        let names: Vec<_> = report.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["after"]);
    }

    #[test]
    fn per_rank_metrics_and_timer() {
        let report = on_thread(|| {
            begin_rank(1);
            counter_add("c", 2);
            counter_add("c", 3);
            gauge_set("g", 9);
            {
                let _t = timer("t_ns");
            }
            finish_rank().unwrap()
        });
        assert_eq!(
            report
                .metrics
                .get("c", MetricKind::Counter)
                .unwrap()
                .scalar(),
            5
        );
        assert_eq!(
            report.metrics.get("g", MetricKind::Gauge).unwrap().scalar(),
            9
        );
        assert_eq!(
            report
                .metrics
                .get("t_ns", MetricKind::Histogram)
                .unwrap()
                .scalar(),
            1
        );
    }

    #[test]
    fn failure_phase_survives_unwind() {
        let phase = on_thread(|| {
            begin_rank(0);
            let caught = std::panic::catch_unwind(|| {
                let _outer = span("outer");
                let _inner = span("doomed");
                panic!("boom");
            });
            assert!(caught.is_err());
            let phase = failure_phase();
            let _ = finish_rank();
            phase
        });
        assert_eq!(phase, Some("doomed"));
    }

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("telemetry.test.shared");
        let before = c.get();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get() - before, 4000);
    }
}
