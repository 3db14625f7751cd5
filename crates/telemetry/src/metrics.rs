//! Typed metrics: counters, gauges, and fixed-bucket histograms.
//!
//! A [`Registry`] owns a set of named metric cells. Every cell is backed by
//! `AtomicU64` slots, so once a handle ([`Counter`], [`Gauge`], [`Histogram`])
//! has been resolved the hot path is a single lock-free read-modify-write —
//! the registry mutex is only taken at registration and snapshot time.
//!
//! Two registries exist in practice:
//!
//! * the **process-global** registry ([`crate::global`]) for state shared by
//!   all rank threads, e.g. the SIMD dispatch-tier counters in
//!   `quadforest-core` — here the atomics do real work;
//! * one **per-rank** registry inside each thread-local recorder
//!   ([`crate::begin_rank`]) — single-threaded by construction, but reusing
//!   the same cell type keeps snapshots uniform.
//!
//! Histograms use an HdrHistogram-style **log-linear** layout: values below
//! [`SUB_BUCKET_COUNT`] (128) are recorded exactly, one bucket per value;
//! larger values fall into exponential tiers of [`SUB_BUCKET_HALF`] (64)
//! linear sub-buckets each, so every bucket's width is at most `lo / 64` and
//! reporting the bucket midpoint bounds the relative error at
//! `1/128 ≈ 0.78 % < 1 %` — tight enough for p99/p999 SLOs across the full
//! `u64` range. Two extra slots accumulate the total count and total sum so
//! exporters can report means without extra bookkeeping.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Values below this are recorded exactly (one bucket per value).
pub(crate) const SUB_BUCKET_COUNT: u64 = 128;
/// Linear sub-buckets per exponential tier above the exact range.
pub(crate) const SUB_BUCKET_HALF: u64 = 64;
/// Exponential tiers needed to cover the remaining `u64` range: values with
/// bit length 8..=64 map to tiers 1..=57.
const TIERS: usize = 57;

/// Number of value buckets in a [`Histogram`]: 128 exact buckets plus
/// 57 tiers × 64 linear sub-buckets, covering all of `u64` with ≤1 %
/// relative error at the bucket midpoint.
pub const HISTOGRAM_BUCKETS: usize = SUB_BUCKET_COUNT as usize + TIERS * SUB_BUCKET_HALF as usize;
const SLOT_COUNT: usize = HISTOGRAM_BUCKETS;
const SLOT_SUM: usize = HISTOGRAM_BUCKETS + 1;

/// Which flavour of metric a cell stores.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MetricKind {
    /// Monotonically increasing sum of deltas.
    Counter,
    /// Last-written value.
    Gauge,
    /// Log-linear (HdrHistogram-style) bucket histogram plus running
    /// count/sum, ≤1 % relative error at the bucket midpoint.
    Histogram,
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        })
    }
}

/// Shared storage for one named metric. Counters and gauges use a single
/// slot; histograms use `HISTOGRAM_BUCKETS + 2` (buckets, count, sum).
pub(crate) struct Cell {
    name: &'static str,
    kind: MetricKind,
    slots: Box<[AtomicU64]>,
}

impl Cell {
    fn new(name: &'static str, kind: MetricKind) -> Self {
        let n = match kind {
            MetricKind::Counter | MetricKind::Gauge => 1,
            MetricKind::Histogram => HISTOGRAM_BUCKETS + 2,
        };
        let slots = (0..n).map(|_| AtomicU64::new(0)).collect();
        Cell { name, kind, slots }
    }
}

/// Bucket index for a histogram value in the log-linear layout: values
/// below 128 map to their own bucket; larger values keep their top 7
/// significant bits, so each tier holds 64 linear sub-buckets of width
/// `2^tier`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKET_COUNT {
        return v as usize;
    }
    // v ≥ 128, so bit length ≥ 8 and tier = bit_length - 7 ≥ 1.
    let tier = (63 - v.leading_zeros() as usize) - 6;
    // (v >> tier) is in [64, 128): the 64 linear sub-buckets of this tier.
    SUB_BUCKET_COUNT as usize
        + (tier - 1) * SUB_BUCKET_HALF as usize
        + ((v >> tier) - SUB_BUCKET_HALF) as usize
}

/// Inclusive-exclusive bounds `[lo, hi)` of bucket `i` (for display and
/// quantile estimation). The last bucket's upper bound saturates at
/// `u64::MAX`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB_BUCKET_COUNT as usize {
        return (i as u64, i as u64 + 1);
    }
    let off = i - SUB_BUCKET_COUNT as usize;
    let tier = (off / SUB_BUCKET_HALF as usize + 1) as u32;
    let m = (off % SUB_BUCKET_HALF as usize) as u64 + SUB_BUCKET_HALF;
    let lo = m << tier;
    let hi = (((m + 1) as u128) << tier).min(u64::MAX as u128) as u64;
    (lo, hi)
}

/// Representative value of bucket `i`: its midpoint. Exact for the 128
/// low buckets (width 1); within `1/128` relative error everywhere else.
pub fn bucket_midpoint(i: usize) -> u64 {
    let (lo, hi) = bucket_bounds(i);
    lo + (hi - lo) / 2
}

/// Estimate the `q`-quantile (`0.0..=1.0`) from a bucket-count slice laid
/// out per [`bucket_index`]. Returns `None` for an empty histogram. The
/// estimate is the midpoint of the bucket containing the rank-`⌈q·n⌉`
/// observation, so relative error is bounded by the bucket half-width:
/// ≤ `1/128` of the true value.
pub fn quantile_from_buckets(buckets: &[u64], q: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(bucket_midpoint(i));
        }
    }
    Some(bucket_midpoint(buckets.len() - 1))
}

/// Lock-free handle to a counter cell.
#[derive(Clone)]
pub struct Counter(Arc<Cell>);

impl Counter {
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.slots[0].fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.slots[0].load(Ordering::Relaxed)
    }
}

/// Lock-free handle to a gauge cell.
#[derive(Clone)]
pub struct Gauge(Arc<Cell>);

impl Gauge {
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.slots[0].store(value, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.slots[0].load(Ordering::Relaxed)
    }
}

/// Lock-free handle to a fixed-bucket histogram cell.
#[derive(Clone)]
pub struct Histogram(Arc<Cell>);

impl Histogram {
    #[inline]
    pub fn record(&self, value: u64) {
        let s = &self.0.slots;
        s[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        s[SLOT_COUNT].fetch_add(1, Ordering::Relaxed);
        s[SLOT_SUM].fetch_add(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.slots[SLOT_COUNT].load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.slots[SLOT_SUM].load(Ordering::Relaxed)
    }

    /// Estimated `q`-quantile of the recorded values (`None` if empty),
    /// within ≤1 % relative error.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let buckets: Vec<u64> = self.0.slots[..HISTOGRAM_BUCKETS]
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        quantile_from_buckets(&buckets, q)
    }
}

/// A named collection of metric cells. Registration and snapshotting take
/// the internal mutex; all recording goes through lock-free handles (or a
/// short-lived lock in the by-name convenience paths of the crate root).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    index: HashMap<(&'static str, MetricKind), usize>,
    cells: Vec<Arc<Cell>>,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn cell(&self, name: &'static str, kind: MetricKind) -> Arc<Cell> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(&i) = inner.index.get(&(name, kind)) {
            return Arc::clone(&inner.cells[i]);
        }
        let cell = Arc::new(Cell::new(name, kind));
        let i = inner.cells.len();
        inner.cells.push(Arc::clone(&cell));
        inner.index.insert((name, kind), i);
        cell
    }

    /// Register-or-get a counter handle.
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter(self.cell(name, MetricKind::Counter))
    }

    /// Register-or-get a gauge handle.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        Gauge(self.cell(name, MetricKind::Gauge))
    }

    /// Register-or-get a histogram handle.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        Histogram(self.cell(name, MetricKind::Histogram))
    }

    /// Copy out every cell's current values, in registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        let entries = inner
            .cells
            .iter()
            .map(|c| MetricEntry {
                name: c.name,
                kind: c.kind,
                values: c.slots.iter().map(|s| s.load(Ordering::Relaxed)).collect(),
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

/// Point-in-time copy of one registry's contents. `Clone + Send + 'static`,
/// so it can travel through `Comm::allgather` for cross-rank aggregation.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub entries: Vec<MetricEntry>,
}

/// One metric's values inside a [`MetricsSnapshot`]. Counters and gauges
/// carry a single value; histograms carry buckets plus count and sum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricEntry {
    pub name: &'static str,
    pub kind: MetricKind,
    pub values: Vec<u64>,
}

impl MetricEntry {
    /// Scalar value for counters/gauges; total count for histograms.
    pub fn scalar(&self) -> u64 {
        match self.kind {
            MetricKind::Counter | MetricKind::Gauge => self.values[0],
            MetricKind::Histogram => self.values[SLOT_COUNT],
        }
    }

    /// Estimated `q`-quantile for a histogram entry (`None` for other
    /// kinds or an empty histogram).
    pub(crate) fn quantile(&self, q: f64) -> Option<u64> {
        (self.kind == MetricKind::Histogram)
            .then(|| quantile_from_buckets(&self.values[..HISTOGRAM_BUCKETS], q))
            .flatten()
    }
}

impl MetricsSnapshot {
    pub fn get(&self, name: &str, kind: MetricKind) -> Option<&MetricEntry> {
        self.entries
            .iter()
            .find(|e| e.name == name && e.kind == kind)
    }
}

/// One metric aggregated across ranks (see [`aggregate`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggregateRow {
    pub name: &'static str,
    pub kind: MetricKind,
    /// Scalar value per rank (0 where a rank never touched the metric).
    /// For histograms this is the per-rank observation count.
    pub per_rank: Vec<u64>,
    /// Sum of `per_rank` — for counters this is the global total.
    pub total: u64,
    pub min: u64,
    pub max: u64,
    /// Element-wise summed buckets (histograms only, else empty).
    pub buckets: Vec<u64>,
    /// Summed histogram value total (histograms only, else 0).
    pub sum: u64,
}

impl AggregateRow {
    /// Mean recorded value of an aggregated histogram, if any observations.
    pub(crate) fn mean(&self) -> Option<f64> {
        (self.kind == MetricKind::Histogram && self.total > 0)
            .then(|| self.sum as f64 / self.total as f64)
    }

    /// Estimated `q`-quantile over the cross-rank merged buckets.
    pub(crate) fn quantile(&self, q: f64) -> Option<u64> {
        quantile_from_buckets(&self.buckets, q)
    }
}

/// Merge per-rank snapshots (index = rank, as returned by `allgather`) into
/// one row per metric. Counters and histogram counts sum across ranks;
/// min/max are taken over the per-rank scalars.
pub fn aggregate(snaps: &[MetricsSnapshot]) -> Vec<AggregateRow> {
    let mut order: Vec<(&'static str, MetricKind)> = Vec::new();
    let mut rows: HashMap<(&'static str, MetricKind), AggregateRow> = HashMap::new();
    for (rank, snap) in snaps.iter().enumerate() {
        for e in &snap.entries {
            let key = (e.name, e.kind);
            let row = rows.entry(key).or_insert_with(|| {
                order.push(key);
                AggregateRow {
                    name: e.name,
                    kind: e.kind,
                    per_rank: vec![0; snaps.len()],
                    total: 0,
                    min: 0,
                    max: 0,
                    buckets: match e.kind {
                        MetricKind::Histogram => vec![0; HISTOGRAM_BUCKETS],
                        _ => Vec::new(),
                    },
                    sum: 0,
                }
            });
            let scalar = e.scalar();
            row.per_rank[rank] = scalar;
            row.total += scalar;
            if e.kind == MetricKind::Histogram {
                for (b, v) in row.buckets.iter_mut().zip(&e.values[..HISTOGRAM_BUCKETS]) {
                    *b += v;
                }
                row.sum += e.values[SLOT_SUM];
            }
        }
    }
    order
        .into_iter()
        .map(|key| {
            let mut row = rows.remove(&key).unwrap();
            // min/max over ALL ranks: a rank that never registered the
            // metric counts as 0, exactly as its per_rank slot says
            row.min = row.per_rank.iter().copied().min().unwrap_or(0);
            row.max = row.per_rank.iter().copied().max().unwrap_or(0);
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("c");
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);

        let g = reg.gauge("g");
        g.set(10);
        g.set(7);
        assert_eq!(g.get(), 7);

        let h = reg.histogram("h");
        h.record(0);
        h.record(1);
        h.record(900);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 901);

        let snap = reg.snapshot();
        assert_eq!(snap.get("c", MetricKind::Counter).unwrap().scalar(), 4);
        assert_eq!(snap.get("g", MetricKind::Gauge).unwrap().scalar(), 7);
        let he = snap.get("h", MetricKind::Histogram).unwrap();
        assert_eq!(he.scalar(), 3);
        assert_eq!(he.values[bucket_index(0)], 1);
        assert_eq!(he.values[bucket_index(900)], 1);
    }

    #[test]
    fn handles_alias_one_cell() {
        let reg = Registry::new();
        let a = reg.counter("shared");
        let b = reg.counter("shared");
        a.add(2);
        b.add(5);
        assert_eq!(a.get(), 7);
        // Same name under a different kind is a distinct cell.
        reg.gauge("shared").set(1);
        assert_eq!(reg.counter("shared").get(), 7);
    }

    #[test]
    fn bucket_layout_is_log_linear() {
        // Exact range: one bucket per value.
        for v in 0..SUB_BUCKET_COUNT {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_midpoint(v as usize), v);
        }
        // First tier starts right after the exact range.
        assert_eq!(bucket_index(128), 128);
        assert_eq!(bucket_index(129), 128); // tier-1 buckets have width 2
        assert_eq!(bucket_index(130), 129);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Bounds and indices agree on every bucket, and buckets tile the
        // u64 range without gaps.
        let mut expect_lo = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expect_lo, "gap before bucket {i}");
            assert!(hi > lo);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi - 1), i);
            expect_lo = hi;
        }
        assert_eq!(expect_lo, u64::MAX);
    }

    #[test]
    fn quantile_error_is_within_one_percent() {
        // Midpoint reporting keeps relative error under 1/128 for any
        // value, across magnitudes.
        for &v in &[1u64, 100, 1_000, 123_456, 7_777_777, 1 << 40, u64::MAX / 3] {
            let mid = bucket_midpoint(bucket_index(v));
            let err = (mid as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 128.0, "v={v} mid={mid} err={err}");
        }
        let reg = Registry::new();
        let h = reg.histogram("q");
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.50).unwrap() as f64;
        let p999 = h.quantile(0.999).unwrap() as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 <= 0.01, "p50={p50}");
        assert!((p999 - 999_000.0).abs() / 999_000.0 <= 0.01, "p999={p999}");
        assert_eq!(h.quantile(0.0), h.quantile(0.001)); // rank clamps to 1
    }

    #[test]
    fn aggregate_sums_counters_across_ranks() {
        let mk = |v: u64| {
            let reg = Registry::new();
            reg.counter("x").add(v);
            reg.snapshot()
        };
        let rows = aggregate(&[mk(1), mk(10), mk(100)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].per_rank, vec![1, 10, 100]);
        assert_eq!(rows[0].total, 111);
        assert_eq!(rows[0].min, 1);
        assert_eq!(rows[0].max, 100);
    }

    #[test]
    fn aggregate_handles_ragged_registries() {
        let reg0 = Registry::new();
        reg0.counter("only0").add(4);
        let reg1 = Registry::new();
        reg1.histogram("lat").record(5);
        reg1.histogram("lat").record(9);
        let rows = aggregate(&[reg0.snapshot(), reg1.snapshot()]);
        let only0 = rows.iter().find(|r| r.name == "only0").unwrap();
        assert_eq!(only0.per_rank, vec![4, 0]);
        assert_eq!(only0.total, 4);
        let lat = rows.iter().find(|r| r.name == "lat").unwrap();
        assert_eq!(lat.per_rank, vec![0, 2]);
        assert_eq!(lat.sum, 14);
        assert_eq!(lat.mean(), Some(7.0));
        assert_eq!(lat.buckets.iter().sum::<u64>(), 2);
    }
}
