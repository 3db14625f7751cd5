//! Multithreaded query serving: batched requests on a shared job board,
//! Z-sharded across a pool of worker threads.
//!
//! The [`QueryExecutor`] owns N workers that block on a shared job
//! board (a mutex-guarded deque — held only for the dequeue itself,
//! never while serving). A submitted point batch is prepared once on
//! the submit path — probe keys extracted in one dispatched
//! [`point_keys_all`](quadforest_core::batch::point_keys_all) kernel
//! pass, indices classified into per-worker **Z-interval shards** of
//! the pinned snapshot — and enqueued as one job per shard, so workers
//! never contend on a funnel queue: each serves a disjoint slice of the
//! curve. Within a shard, the owning worker sorts its indices by
//! `(tree, Morton key)` and drains fixed-size chunks through the
//! gallop-resume cursor ([`ForestSnapshot::locate_run`] →
//! `zrange::locate_from`); idle workers steal chunks from other shards
//! through the same atomic cursor, so a skewed batch still finishes on
//! all cores.
//!
//! Results land in a shared, pre-sized slot buffer (each probe owns
//! exactly one slot — disjoint writes, no lock); a batch-wide atomic
//! countdown names one worker the *completer*, which fulfills the
//! [`Ticket`]'s completion latch — **one wakeup per batch**, not one
//! per query, replacing the per-request one-shot channels that
//! dominated small-query dispatch cost.
//!
//! Submission applies backpressure by bounded in-flight batches: when
//! `capacity` batches are unfinished, producers block instead of
//! growing an unbounded backlog — the overload surface is the
//! submitter's latency, never the server's memory. The single-query
//! entry points ([`submit_points`](QueryExecutor::submit_points),
//! [`submit_box`](QueryExecutor::submit_box)) are thin wrappers over
//! the batch path and return identical answers.
//!
//! Every stage of the serving path is profiled into global histograms
//! (`query.stage.{classify,sort,drain,steal,unpermute,latch_wait}_ns`,
//! `query.batch.e2e_ns`) plus per-worker `query.worker.{w}.*` counters
//! (batches, probes, steals, busy/steal/idle ns). The classify stage is
//! the batch's *serial fraction* — the submitter runs it alone — so
//! `Σ classify_ns / Σ e2e_ns` is the Amdahl bound on worker scaling.
//! Batch starts and completions also land in the
//! [`flight`](telemetry::flight) ring when armed, and completions feed
//! the slow-query log via [`telemetry::note_batch_latency`].

use crate::snapshot::BoxQuery;
use crate::{ForestSnapshot, LeafHit, SnapshotHandle};
use quadforest_connectivity::TreeId;
use quadforest_core::zrange;
use quadforest_telemetry as telemetry;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Default bound on in-flight (submitted, not yet answered) batches.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Probes served per atomic cursor claim: big enough to amortize the
/// claim and keep the gallop-resume cursor warm, small enough that
/// stealing rebalances a skewed batch.
const POINT_CHUNK: usize = 256;

/// Boxes served per atomic cursor claim (each box is already a
/// multi-range scan, so chunks are small).
const BOX_CHUNK: usize = 4;

// ---------------------------------------------------------------------
// completion latch

struct LatchState<T> {
    value: Option<T>,
    abandoned: bool,
}

/// One-shot completion latch: the batch completer fulfills it once, the
/// ticket holder takes the value. `abandoned` distinguishes "worker
/// died with the batch unfinished" from "not ready yet".
struct Latch<T> {
    state: Mutex<LatchState<T>>,
    cv: Condvar,
}

impl<T> Latch<T> {
    fn new() -> Arc<Self> {
        Arc::new(Latch {
            state: Mutex::new(LatchState {
                value: None,
                abandoned: false,
            }),
            cv: Condvar::new(),
        })
    }

    fn fulfill(&self, value: T) {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        s.value = Some(value);
        self.cv.notify_all();
    }

    /// Mark the latch dead if it was never fulfilled (batch dropped
    /// unfinished — a worker panicked mid-batch).
    fn abandon(&self) {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if s.value.is_none() {
            s.abandoned = true;
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> T {
        let t0 = telemetry::now_ns();
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(v) = s.value.take() {
                drop(s);
                telemetry::global()
                    .histogram("query.stage.latch_wait_ns")
                    .record(telemetry::now_ns().saturating_sub(t0));
                return v;
            }
            assert!(!s.abandoned, "query executor dropped the request");
            s = self.cv.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn try_take(&self) -> Option<T> {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .value
            .take()
    }
}

/// A pending query answer; redeem with [`Ticket::wait`].
#[must_use = "a ticket must be waited on to receive the query answer"]
pub struct Ticket<T> {
    source: TicketSource<T>,
}

enum TicketSource<T> {
    /// The latch holds the answer directly.
    Whole(Arc<Latch<T>>),
    /// The latch holds a one-element batch answer; take element 0
    /// (single-query compatibility wrappers over the batch path).
    First(Arc<Latch<Vec<T>>>),
}

impl<T> Ticket<T> {
    /// Block until the worker pool delivers the answer.
    ///
    /// # Panics
    /// If the executor was dropped (or a worker died) with the request
    /// still in flight.
    pub fn wait(self) -> T {
        match self.source {
            TicketSource::Whole(latch) => latch.wait(),
            TicketSource::First(latch) => latch.wait().into_iter().next().expect("one-query batch"),
        }
    }

    /// Non-blocking poll; `Some` exactly once, after the answer lands.
    pub fn try_wait(&self) -> Option<T> {
        match &self.source {
            TicketSource::Whole(latch) => latch.try_take(),
            TicketSource::First(latch) => latch
                .try_take()
                .map(|v| v.into_iter().next().expect("one-query batch")),
        }
    }
}

// ---------------------------------------------------------------------
// shared result slots

/// Pre-sized answer buffer shared by the workers of one batch. Each
/// probe index owns exactly one slot; workers write disjoint slots, and
/// the batch countdown (`fetch_sub` with `AcqRel`) makes every write
/// visible to the completer before it takes the buffer. Placeholder
/// values are drop-free (`None` / empty `Vec`), so raw `ptr::write`
/// over them leaks nothing.
struct SharedSlots<T> {
    buf: UnsafeCell<Vec<T>>,
}

unsafe impl<T: Send> Sync for SharedSlots<T> {}

impl<T> SharedSlots<T> {
    fn new(placeholders: Vec<T>) -> Self {
        SharedSlots {
            buf: UnsafeCell::new(placeholders),
        }
    }

    /// Write slot `i`.
    ///
    /// # Safety
    /// `i` is in bounds, no two writers share an index, and no write
    /// happens after the batch countdown reaches zero.
    unsafe fn write(&self, i: usize, value: T) {
        unsafe {
            let buf = &mut *self.buf.get();
            debug_assert!(i < buf.len());
            buf.as_mut_ptr().add(i).write(value);
        }
    }

    /// Take the finished buffer (completer only, after the countdown).
    fn take(&self) -> Vec<T> {
        unsafe { std::mem::take(&mut *self.buf.get()) }
    }
}

// ---------------------------------------------------------------------
// batches

/// One Z-interval shard of a point batch: the probe indices whose
/// `(tree, key)` fall in this slice of the snapshot's global leaf
/// order. `idxs` is sorted in place by the first worker to win
/// `sort_claim`; after `sorted` flips (release → acquire), the vector
/// is immutable and chunks are claimed through `cursor`.
struct Shard {
    idxs: UnsafeCell<Vec<u32>>,
    len: usize,
    sort_claim: AtomicBool,
    sorted: AtomicBool,
    cursor: AtomicUsize,
}

unsafe impl Sync for Shard {}

impl Shard {
    fn new(idxs: Vec<u32>) -> Self {
        let len = idxs.len();
        Shard {
            idxs: UnsafeCell::new(idxs),
            len,
            sort_claim: AtomicBool::new(false),
            sorted: AtomicBool::new(false),
            cursor: AtomicUsize::new(0),
        }
    }
}

/// RAII in-flight slot: reserved before a batch is enqueued, released
/// (with a submitter wakeup) when the batch is dropped — whether it
/// finished normally or died with a panicking worker.
struct FlightSlot {
    shared: Arc<Shared>,
}

impl Drop for FlightSlot {
    fn drop(&mut self) {
        let mut b = self.shared.board.lock().unwrap_or_else(|p| p.into_inner());
        b.in_flight -= 1;
        drop(b);
        self.shared.space_cv.notify_one();
    }
}

struct PointBatch {
    snap: Arc<ForestSnapshot>,
    points: Vec<(TreeId, [i32; 3])>,
    keys: Vec<u64>,
    shards: Vec<Shard>,
    slots: SharedSlots<Option<LeafHit>>,
    /// Valid probes not yet served; the worker that takes it to zero
    /// completes the batch.
    remaining: AtomicUsize,
    latch: Arc<Latch<Vec<Option<LeafHit>>>>,
    start_ns: u64,
    _slot: FlightSlot,
}

impl Drop for PointBatch {
    fn drop(&mut self) {
        self.latch.abandon();
    }
}

struct BoxBatch {
    snap: Arc<ForestSnapshot>,
    boxes: Vec<BoxQuery>,
    /// Box indices sorted by `(tree, Z-key of the clamped low corner)`
    /// so consecutive boxes touch nearby leaf slices.
    order: Vec<u32>,
    cursor: AtomicUsize,
    slots: SharedSlots<Vec<LeafHit>>,
    remaining: AtomicUsize,
    latch: Arc<Latch<Vec<Vec<LeafHit>>>>,
    start_ns: u64,
    _slot: FlightSlot,
}

impl Drop for BoxBatch {
    fn drop(&mut self) {
        self.latch.abandon();
    }
}

enum Work {
    Points {
        batch: Arc<PointBatch>,
        shard: usize,
    },
    Boxes {
        batch: Arc<BoxBatch>,
    },
}

// ---------------------------------------------------------------------
// job board

struct Board {
    queue: VecDeque<Work>,
    in_flight: usize,
    closed: bool,
}

struct Shared {
    board: Mutex<Board>,
    /// Workers wait here for jobs.
    work_cv: Condvar,
    /// Submitters wait here for an in-flight slot.
    space_cv: Condvar,
    capacity: usize,
}

/// A pool of worker threads serving point and box queries against the
/// latest snapshot published through a [`SnapshotHandle`] (loaded once
/// per batch, at submit).
///
/// Dropping the executor closes the board and joins every worker;
/// batches already queued are still answered.
pub struct QueryExecutor {
    handle: Arc<SnapshotHandle>,
    shared: Arc<Shared>,
    nworkers: usize,
    workers: Vec<JoinHandle<()>>,
}

impl QueryExecutor {
    /// Spawn `workers` threads serving from `handle`, with the default
    /// in-flight bound.
    pub fn new(handle: Arc<SnapshotHandle>, workers: usize) -> Self {
        Self::with_capacity(handle, workers, DEFAULT_QUEUE_CAPACITY)
    }

    /// [`QueryExecutor::new`] with an explicit in-flight bound
    /// (`capacity` ≥ 1): submitters block once `capacity` batches are
    /// submitted and unanswered.
    pub fn with_capacity(handle: Arc<SnapshotHandle>, workers: usize, capacity: usize) -> Self {
        assert!(workers >= 1, "executor needs at least one worker");
        let shared = Arc::new(Shared {
            board: Mutex::new(Board {
                queue: VecDeque::new(),
                in_flight: 0,
                closed: false,
            }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            capacity: capacity.max(1),
        });
        let joins = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("query-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn query worker")
            })
            .collect();
        QueryExecutor {
            handle,
            shared,
            nworkers: workers,
            workers: joins,
        }
    }

    /// Block until an in-flight slot frees up, then reserve it.
    fn reserve(&self) -> FlightSlot {
        let mut b = self.shared.board.lock().unwrap_or_else(|p| p.into_inner());
        while b.in_flight >= self.shared.capacity {
            b = self
                .shared
                .space_cv
                .wait(b)
                .unwrap_or_else(|p| p.into_inner());
        }
        b.in_flight += 1;
        FlightSlot {
            shared: Arc::clone(&self.shared),
        }
    }

    fn enqueue(&self, work: impl IntoIterator<Item = Work>) {
        let mut b = self.shared.board.lock().unwrap_or_else(|p| p.into_inner());
        b.queue.extend(work);
        drop(b);
        self.shared.work_cv.notify_all();
    }

    /// Enqueue a batched point-location request. Blocks while
    /// `capacity` batches are in flight (backpressure), then returns
    /// immediately with a [`Ticket`] for the answers (one
    /// `Option<LeafHit>` per point, in input order — identical to
    /// [`ForestSnapshot::locate_many`] on the snapshot current at
    /// submit).
    pub fn submit_points(&self, points: Vec<(TreeId, [i32; 3])>) -> Ticket<Vec<Option<LeafHit>>> {
        let t0 = telemetry::now_ns();
        let latch = Latch::new();
        let n = points.len();
        let snap = self.handle.load();
        let keys = if n == 0 {
            Vec::new()
        } else {
            snap.probe_keys(&points)
        };

        // Classify valid probes into per-worker Z-interval shards of
        // the snapshot's global (tree, key) leaf order. Tiny batches
        // stay on one shard: the split overhead outweighs parallelism
        // below a couple of chunks per worker.
        let mut valid = 0usize;
        for &k in &keys {
            valid += usize::from(k != crate::snapshot::INVALID_KEY);
        }
        if valid == 0 {
            latch.fulfill(vec![None; n]);
            return Ticket {
                source: TicketSource::Whole(latch),
            };
        }
        let bounds = if valid >= 2 * POINT_CHUNK && self.nworkers > 1 {
            snap.shard_bounds(self.nworkers)
        } else {
            Vec::new()
        };
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); bounds.len() + 1];
        for (i, &k) in keys.iter().enumerate() {
            if k == crate::snapshot::INVALID_KEY {
                continue;
            }
            let pos = (points[i].0, k);
            let s = bounds.partition_point(|m| *m <= pos);
            buckets[s].push(i as u32);
        }

        let g = telemetry::global();
        g.histogram("query.batch.size").record(n as u64);
        let max_len = buckets.iter().map(Vec::len).max().unwrap_or(0);
        // Imbalance ×1000: 1000 = perfectly even shards. A histogram,
        // not a gauge — a gauge only remembers the last batch, which
        // hid every skewed shard split behind the final balanced one.
        g.histogram("query.batch.shard_imbalance")
            .record((max_len * buckets.len() * 1000 / valid) as u64);
        // The submit path up to here — key extraction + shard
        // classification — is the serial fraction of a batch: one
        // producer thread does it while every worker waits. Its share
        // of e2e bounds parallel speedup (Amdahl).
        g.histogram("query.stage.classify_ns")
            .record(telemetry::now_ns().saturating_sub(t0));
        telemetry::flight::event(
            telemetry::flight::FlightKind::BatchStart,
            0,
            n as u64,
            valid as u64,
        );

        let slot = self.reserve();
        let batch = Arc::new(PointBatch {
            snap,
            points,
            keys,
            shards: buckets.into_iter().map(Shard::new).collect(),
            slots: SharedSlots::new(vec![None; n]),
            remaining: AtomicUsize::new(valid),
            latch: Arc::clone(&latch),
            start_ns: t0,
            _slot: slot,
        });
        self.enqueue(
            (0..batch.shards.len())
                .filter(|&s| batch.shards[s].len > 0)
                .map(|s| Work::Points {
                    batch: Arc::clone(&batch),
                    shard: s,
                }),
        );
        Ticket {
            source: TicketSource::Whole(latch),
        }
    }

    /// Enqueue a batch of box queries; one hit list per box, in input
    /// order — identical to [`ForestSnapshot::query_box`] per entry.
    pub fn submit_boxes(&self, boxes: Vec<BoxQuery>) -> Ticket<Vec<Vec<LeafHit>>> {
        let t0 = telemetry::now_ns();
        let latch = Latch::new();
        let n = boxes.len();
        if n == 0 {
            latch.fulfill(Vec::new());
            return Ticket {
                source: TicketSource::Whole(latch),
            };
        }
        let snap = self.handle.load();
        let root = 1i32 << snap.max_level() as u32;
        let sort_key = |b: &BoxQuery| {
            let c = |v: i32| v.clamp(0, root - 1);
            (
                b.tree,
                zrange::point_key([c(b.lo[0]), c(b.lo[1]), c(b.lo[2])], snap.dim()),
            )
        };
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| sort_key(&boxes[i as usize]));

        let g = telemetry::global();
        g.histogram("query.batch.size").record(n as u64);
        // Serial submit-side prep (the Z-order sort), same Amdahl
        // accounting as the point path's classification.
        g.histogram("query.stage.classify_ns")
            .record(telemetry::now_ns().saturating_sub(t0));
        telemetry::flight::event(
            telemetry::flight::FlightKind::BatchStart,
            0,
            n as u64,
            n as u64,
        );

        let slot = self.reserve();
        let batch = Arc::new(BoxBatch {
            snap,
            boxes,
            order,
            cursor: AtomicUsize::new(0),
            slots: SharedSlots::new(vec![Vec::new(); n]),
            remaining: AtomicUsize::new(n),
            latch: Arc::clone(&latch),
            start_ns: t0,
            _slot: slot,
        });
        let jobs = self.nworkers.min(n.div_ceil(BOX_CHUNK));
        self.enqueue((0..jobs).map(|_| Work::Boxes {
            batch: Arc::clone(&batch),
        }));
        Ticket {
            source: TicketSource::Whole(latch),
        }
    }

    /// Enqueue a box query over `tree` for the half-open box
    /// `[lo, hi)`; a thin wrapper over the batch path with the same
    /// queue semantics as [`submit_points`](QueryExecutor::submit_points).
    pub fn submit_box(&self, tree: TreeId, lo: [i32; 3], hi: [i32; 3]) -> Ticket<Vec<LeafHit>> {
        let ticket = self.submit_boxes(vec![BoxQuery { tree, lo, hi }]);
        let TicketSource::Whole(latch) = ticket.source else {
            unreachable!("submit_boxes returns a whole-batch ticket")
        };
        Ticket {
            source: TicketSource::First(latch),
        }
    }

    /// Submit a point batch and wait for the answers.
    pub fn locate_points(&self, points: Vec<(TreeId, [i32; 3])>) -> Vec<Option<LeafHit>> {
        self.submit_points(points).wait()
    }

    /// Submit a box batch and wait for the answers.
    pub fn query_boxes(&self, boxes: Vec<BoxQuery>) -> Vec<Vec<LeafHit>> {
        self.submit_boxes(boxes).wait()
    }

    /// Submit a box query and wait for the hits.
    pub fn query_box(&self, tree: TreeId, lo: [i32; 3], hi: [i32; 3]) -> Vec<LeafHit> {
        self.submit_box(tree, lo, hi).wait()
    }
}

impl Drop for QueryExecutor {
    fn drop(&mut self) {
        {
            let mut b = self.shared.board.lock().unwrap_or_else(|p| p.into_inner());
            b.closed = true;
        }
        // Workers drain the board before exiting, so queued batches are
        // still answered.
        self.shared.work_cv.notify_all();
        self.shared.space_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

// ---------------------------------------------------------------------
// workers

/// Per-worker metric handles, resolved once from the process-global
/// registry (worker threads have no per-rank recorder). Stage
/// histograms are shared across workers; the `query.worker.{w}.*`
/// counters are per worker, their names interned once per thread
/// (workers are few and live for the executor's lifetime).
struct WorkerMetrics {
    point_latency: telemetry::Histogram,
    box_latency: telemetry::Histogram,
    served: telemetry::Counter,
    age: telemetry::Gauge,
    e2e: telemetry::Histogram,
    sort_ns: telemetry::Histogram,
    drain_ns: telemetry::Histogram,
    steal_chunk_ns: telemetry::Histogram,
    unpermute_ns: telemetry::Histogram,
    batches: telemetry::Counter,
    probes: telemetry::Counter,
    steals: telemetry::Counter,
    busy_ns: telemetry::Counter,
    steal_ns: telemetry::Counter,
    idle_ns: telemetry::Counter,
}

impl WorkerMetrics {
    fn new(w: usize) -> Self {
        let g = telemetry::global();
        let per = |field: &str| -> telemetry::Counter {
            g.counter(Box::leak(
                format!("query.worker.{w}.{field}").into_boxed_str(),
            ))
        };
        WorkerMetrics {
            point_latency: g.histogram("query.point.latency_ns"),
            box_latency: g.histogram("query.box.latency_ns"),
            served: g.counter("query.served"),
            age: g.gauge("snapshot.age_ns"),
            e2e: g.histogram("query.batch.e2e_ns"),
            sort_ns: g.histogram("query.stage.sort_ns"),
            drain_ns: g.histogram("query.stage.drain_ns"),
            steal_chunk_ns: g.histogram("query.stage.steal_ns"),
            unpermute_ns: g.histogram("query.stage.unpermute_ns"),
            batches: per("batches"),
            probes: per("probes"),
            steals: per("steals"),
            busy_ns: per("busy_ns"),
            steal_ns: per("steal_ns"),
            idle_ns: per("idle_ns"),
        }
    }
}

fn worker_loop(shared: &Shared, w: usize) {
    let metrics = WorkerMetrics::new(w);
    loop {
        let idle0 = telemetry::now_ns();
        let work = {
            let mut b = shared.board.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(w) = b.queue.pop_front() {
                    break w;
                }
                if b.closed {
                    return;
                }
                b = shared.work_cv.wait(b).unwrap_or_else(|p| p.into_inner());
            }
        };
        let busy0 = telemetry::now_ns();
        metrics.idle_ns.add(busy0.saturating_sub(idle0));
        match work {
            Work::Points { batch, shard } => serve_points(&batch, shard, &metrics),
            Work::Boxes { batch } => serve_boxes(&batch, &metrics),
        }
        metrics
            .busy_ns
            .add(telemetry::now_ns().saturating_sub(busy0));
        metrics.batches.incr();
    }
}

/// Serve point shards, starting at `start` (the shard this job was
/// enqueued for) and then stealing chunks from every other shard of the
/// batch. Sorting a shard is claimed by CAS, so whichever worker
/// reaches an unsorted shard first — owner or thief — sorts it; a shard
/// someone else is busy sorting is skipped (its chunks surface on that
/// worker or a later steal pass).
fn serve_points(batch: &PointBatch, start: usize, metrics: &WorkerMetrics) {
    metrics.age.set(batch.snap.age_ns());
    let w = batch.shards.len();
    for off in 0..w {
        let s = &batch.shards[(start + off) % w];
        if s.len == 0 || s.cursor.load(Ordering::Relaxed) >= s.len {
            continue;
        }
        // `off > 0` means this shard belongs to another worker's job:
        // serving it is a steal, accounted separately so the profile
        // can tell rebalancing work from owned work.
        let stealing = off > 0;
        if !s.sorted.load(Ordering::Acquire) {
            if s.sort_claim
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Sole writer: claim won, `sorted` not yet released.
                let t0 = telemetry::now_ns();
                let idxs = unsafe { &mut *s.idxs.get() };
                idxs.sort_unstable_by_key(|&i| {
                    (batch.points[i as usize].0, batch.keys[i as usize])
                });
                s.sorted.store(true, Ordering::Release);
                metrics
                    .sort_ns
                    .record(telemetry::now_ns().saturating_sub(t0));
            } else if !s.sorted.load(Ordering::Acquire) {
                continue;
            }
        }
        // `sorted` acquired: the vector is immutable from here on.
        let idxs = unsafe { &*s.idxs.get() };
        loop {
            let lo = s.cursor.fetch_add(POINT_CHUNK, Ordering::Relaxed);
            if lo >= s.len {
                break;
            }
            let hi = (lo + POINT_CHUNK).min(s.len);
            let t0 = telemetry::now_ns();
            batch
                .snap
                .locate_run(&batch.points, &batch.keys, &idxs[lo..hi], |i, hit| unsafe {
                    batch.slots.write(i as usize, hit);
                });
            let chunk_ns = telemetry::now_ns().saturating_sub(t0);
            let served = hi - lo;
            metrics.probes.add(served as u64);
            if stealing {
                metrics.steals.incr();
                metrics.steal_ns.add(chunk_ns);
                metrics.steal_chunk_ns.record(chunk_ns);
            } else {
                metrics.drain_ns.record(chunk_ns);
            }
            if batch.remaining.fetch_sub(served, Ordering::AcqRel) == served {
                complete_points(batch, metrics);
            }
        }
    }
}

fn complete_points(batch: &PointBatch, metrics: &WorkerMetrics) {
    // "Un-permute" is where a permuted-results design would pay to
    // restore input order; here every probe wrote its own input slot,
    // so this stage is just taking the buffer — the histogram exists
    // to prove that it stays free.
    let t0 = telemetry::now_ns();
    let answers = batch.slots.take();
    let done = telemetry::now_ns();
    metrics.unpermute_ns.record(done.saturating_sub(t0));
    let e2e = done.saturating_sub(batch.start_ns);
    metrics.point_latency.record(e2e);
    metrics.e2e.record(e2e);
    metrics.served.add(batch.points.len() as u64);
    let n = batch.points.len() as u64;
    telemetry::flight::event(telemetry::flight::FlightKind::BatchDone, 0, n, e2e);
    telemetry::note_batch_latency("point", n, e2e);
    batch.latch.fulfill(answers);
}

fn serve_boxes(batch: &BoxBatch, metrics: &WorkerMetrics) {
    metrics.age.set(batch.snap.age_ns());
    let n = batch.order.len();
    loop {
        let lo = batch.cursor.fetch_add(BOX_CHUNK, Ordering::Relaxed);
        if lo >= n {
            break;
        }
        let hi = (lo + BOX_CHUNK).min(n);
        for &i in &batch.order[lo..hi] {
            let t0 = telemetry::now_ns();
            let q = batch.boxes[i as usize];
            let hits = batch.snap.query_box(q.tree, q.lo, q.hi);
            metrics
                .box_latency
                .record(telemetry::now_ns().saturating_sub(t0));
            metrics.served.incr();
            unsafe { batch.slots.write(i as usize, hits) };
        }
        let served = hi - lo;
        metrics.probes.add(served as u64);
        if batch.remaining.fetch_sub(served, Ordering::AcqRel) == served {
            let answers = batch.slots.take();
            let e2e = telemetry::now_ns().saturating_sub(batch.start_ns);
            metrics.box_latency.record(e2e);
            metrics.e2e.record(e2e);
            let n = batch.order.len() as u64;
            telemetry::flight::event(telemetry::flight::FlightKind::BatchDone, 0, n, e2e);
            telemetry::note_batch_latency("box", n, e2e);
            batch.latch.fulfill(answers);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::{MortonQuad, Quadrant};
    use quadforest_forest::Forest;

    fn uniform_snapshot(level: u8) -> ForestSnapshot {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, level);
            ForestSnapshot::build(&f, 0)
        })
        .pop()
        .unwrap()
    }

    #[test]
    fn executor_answers_match_direct_snapshot_queries() {
        let snap = uniform_snapshot(4);
        let handle = SnapshotHandle::new(snap.clone());
        let exec = QueryExecutor::new(handle, 4);
        let root = MortonQuad::<2>::len_at(0);
        let step = root / 16;
        let points: Vec<(TreeId, [i32; 3])> = (0..16)
            .flat_map(|i| (0..16).map(move |j| (0u32, [i * step, j * step, 0])))
            .collect();
        let got = exec.locate_points(points.clone());
        assert_eq!(got, snap.locate_batch(&points));
        assert!(got.iter().all(|h| h.is_some()));

        let (lo, hi) = ([0, 0, 0], [root / 2, root / 2, 0]);
        assert_eq!(exec.query_box(0, lo, hi), snap.query_box(0, lo, hi));
    }

    #[test]
    fn batched_apis_match_single_query_paths() {
        let snap = uniform_snapshot(3);
        let handle = SnapshotHandle::new(snap.clone());
        let exec = QueryExecutor::new(handle, 3);
        let root = MortonQuad::<2>::len_at(0);
        // Mixed batch: in-domain, duplicate, out-of-domain, bad tree.
        let points = vec![
            (0u32, [1, 1, 0]),
            (0u32, [1, 1, 0]),
            (0u32, [-3, 1, 0]),
            (9u32, [1, 1, 0]),
            (0u32, [root - 1, root - 1, 0]),
        ];
        assert_eq!(
            exec.locate_points(points.clone()),
            snap.locate_batch(&points)
        );

        let boxes = vec![
            BoxQuery {
                tree: 0,
                lo: [0, 0, 0],
                hi: [root / 2, root, 0],
            },
            BoxQuery {
                tree: 0,
                lo: [root / 4, root / 4, 0],
                hi: [root / 4, root / 4, 0], // empty box
            },
            BoxQuery {
                tree: 7,
                lo: [0, 0, 0],
                hi: [root, root, 0], // bad tree
            },
        ];
        let got = exec.query_boxes(boxes.clone());
        for (b, hits) in boxes.iter().zip(&got) {
            assert_eq!(*hits, snap.query_box(b.tree, b.lo, b.hi));
        }
    }

    #[test]
    fn bounded_queue_applies_backpressure_but_serves_everything() {
        let handle = SnapshotHandle::new(uniform_snapshot(3));
        // Single worker, tiny queue: submissions block until drained,
        // and every ticket is still answered.
        let exec = QueryExecutor::with_capacity(handle, 1, 1);
        let tickets: Vec<_> = (0..64)
            .map(|i| exec.submit_points(vec![(0u32, [i % 8, i / 8, 0])]))
            .collect();
        for t in tickets {
            let answers = t.wait();
            assert_eq!(answers.len(), 1);
            assert!(answers[0].is_some());
        }
    }

    #[test]
    fn in_flight_requests_survive_drop() {
        let handle = SnapshotHandle::new(uniform_snapshot(2));
        let exec = QueryExecutor::new(handle, 2);
        let t = exec.submit_points(vec![(0u32, [0, 0, 0])]);
        drop(exec); // joins workers; the queued request is still served
        assert!(t.wait()[0].is_some());
    }

    #[test]
    fn served_counter_advances() {
        let handle = SnapshotHandle::new(uniform_snapshot(2));
        let served = telemetry::global().counter("query.served");
        let before = served.get();
        let exec = QueryExecutor::new(handle, 2);
        exec.locate_points(vec![(0u32, [0, 0, 0]), (0u32, [1, 1, 0])]);
        exec.query_box(0, [0, 0, 0], [2, 2, 0]);
        assert!(served.get() >= before + 3);
    }

    #[test]
    fn large_sharded_batch_matches_reference() {
        let snap = uniform_snapshot(5);
        let handle = SnapshotHandle::new(snap.clone());
        let exec = QueryExecutor::new(handle, 4);
        let root = MortonQuad::<2>::len_at(0);
        // Big enough to trigger sharding (>= 2 * POINT_CHUNK valid
        // probes), with a hash scatter so every shard gets work.
        let points: Vec<(TreeId, [i32; 3])> = (0u64..2048)
            .map(|i| {
                let h = i.wrapping_mul(0x9e3779b97f4a7c15);
                (
                    0u32,
                    [(h as i32 & (root - 1)), ((h >> 20) as i32 & (root - 1)), 0],
                )
            })
            .collect();
        assert_eq!(
            exec.locate_points(points.clone()),
            snap.locate_batch(&points)
        );
    }
}
