//! Multithreaded query serving: a bounded channel of whole batches and
//! a pool of worker threads.
//!
//! The [`QueryExecutor`] owns N workers that share the receiving end of
//! one `std::sync::mpsc::sync_channel` of jobs, behind a mutex held only
//! while a worker waits in `recv`, never while it serves. A submitted
//! batch pins the snapshot current at submit and becomes **one** job;
//! the worker that receives it answers the whole batch with the
//! snapshot's own kernel — [`ForestSnapshot::locate_many`] for points
//! (one key-extract pass, then one bucket-windowed binary search per
//! point), [`ForestSnapshot::query_boxes`] for boxes (one
//! Z-order skip-scan of the sorted leaf keys per box) — and sends the
//! answers down the batch's own one-slot channel to its [`Ticket`]:
//! **one wakeup per batch**. Workers serve different batches in
//! parallel; a batch is never split, so there is no shared result
//! buffer, no work stealing and no atomic in this module.
//!
//! Submission applies backpressure: the job channel holds `capacity`
//! batches waiting for a worker, and producers block once it is full
//! instead of growing an unbounded backlog — the overload surface is
//! the submitter's latency, never the server's memory. A batch being
//! served holds its worker, so at most `capacity + workers` batches are
//! in flight. Every batch, empty or all-out-of-domain ones included, is
//! one job and is accounted.
//!
//! The worker records every metric of a batch *before* it sends the
//! answer, so a client that has its answer also sees its telemetry:
//! `query.batch.{size,e2e_ns}`, `query.{point,box}.latency_ns`
//! (submit → answer, one sample per batch), `query.stage.serve_ns` (the
//! kernel alone; `e2e − serve` is queueing and hand-off),
//! `query.served`, `snapshot.age_ns` and the per-worker
//! `query.worker.{w}.{batches,probes}` counters (the worker loop closes
//! `busy_ns` / `idle_ns` around the batch); the waiter adds
//! `query.stage.latch_wait_ns`. Batch starts and completions also land
//! in the [`flight`](telemetry::flight) ring when armed, and completions
//! feed the slow-query log via [`telemetry::note_batch_latency`].

use crate::snapshot::BoxQuery;
use crate::{ForestSnapshot, LeafHit, SnapshotHandle};
use quadforest_connectivity::TreeId;
use quadforest_telemetry as telemetry;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Default bound on batches waiting for a worker.
pub(crate) const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// A pending batch answer; redeem with [`Ticket::wait`].
#[must_use = "a ticket must be waited on to receive the query answer"]
pub struct Ticket<T> {
    answer: Receiver<T>,
}

impl<T> Ticket<T> {
    /// Block until a worker delivers the answer.
    ///
    /// # Panics
    /// If the batch was dropped unserved (its worker died).
    pub fn wait(self) -> T {
        let t0 = telemetry::now_ns();
        let answer = self.answer.recv();
        telemetry::global()
            .histogram("query.stage.latch_wait_ns")
            .record(telemetry::now_ns().saturating_sub(t0));
        answer.expect("query executor dropped the request")
    }
}

// ---------------------------------------------------------------------
// batches

/// One submitted batch of queries `Q` with answers `A`, pinned to the
/// snapshot that was current at submit. Dropping it unserved (its
/// worker panicked) drops `answer`, which fails the ticket's wait.
struct Batch<Q, A> {
    snap: Arc<ForestSnapshot>,
    queries: Vec<Q>,
    answer: SyncSender<Vec<A>>,
    start_ns: u64,
}

impl<Q, A> Batch<Q, A> {
    /// Answer the batch with `kernel`, record its metrics, then wake
    /// the ticket holder — in that order.
    fn serve(
        self,
        kind: &str,
        latency: &telemetry::Histogram,
        metrics: &WorkerMetrics,
        kernel: impl FnOnce(&ForestSnapshot, &[Q]) -> Vec<A>,
    ) {
        metrics.age.set(self.snap.age_ns());
        let n = self.queries.len() as u64;
        let t0 = telemetry::now_ns();
        let answers = kernel(&self.snap, &self.queries);
        let done = telemetry::now_ns();
        let e2e = done.saturating_sub(self.start_ns);
        metrics.serve_ns.record(done.saturating_sub(t0));
        metrics.size.record(n);
        metrics.e2e.record(e2e);
        latency.record(e2e);
        metrics.served.add(n);
        metrics.batches.incr();
        metrics.probes.add(n);
        telemetry::flight::event(telemetry::flight::FlightKind::BatchDone, 0, n, e2e);
        telemetry::note_batch_latency(kind, n, e2e);
        // Fails only when the ticket was dropped: nobody wants the answer.
        let _ = self.answer.send(answers);
    }
}

enum Job {
    Points(Batch<(TreeId, [i32; 3]), Option<LeafHit>>),
    Boxes(Batch<BoxQuery, Vec<LeafHit>>),
}

/// A pool of worker threads serving point and box batches against the
/// latest snapshot published through a [`SnapshotHandle`] (loaded once
/// per batch, at submit).
///
/// Dropping the executor closes the job channel and joins every worker;
/// batches already queued are still answered.
pub struct QueryExecutor {
    handle: Arc<SnapshotHandle>,
    /// `None` only inside `drop`, which closes the channel by taking it.
    jobs: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryExecutor {
    /// Spawn `workers` threads serving from `handle`, with the default
    /// queue bound.
    pub fn new(handle: Arc<SnapshotHandle>, workers: usize) -> Self {
        Self::with_capacity(handle, workers, DEFAULT_QUEUE_CAPACITY)
    }

    /// [`QueryExecutor::new`] with an explicit queue bound
    /// (`capacity` ≥ 1): submitters block once `capacity` batches are
    /// waiting for a worker. Batches being served are not counted, so
    /// up to `capacity + workers` batches are in flight.
    pub fn with_capacity(handle: Arc<SnapshotHandle>, workers: usize, capacity: usize) -> Self {
        assert!(workers >= 1, "executor needs at least one worker");
        let (jobs, queue) = mpsc::sync_channel(capacity.max(1));
        let queue = Arc::new(Mutex::new(queue));
        let workers = (0..workers)
            .map(|w| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("query-worker-{w}"))
                    .spawn(move || worker_loop(&queue, w))
                    .expect("spawn query worker")
            })
            .collect();
        QueryExecutor {
            handle,
            jobs: Some(jobs),
            workers,
        }
    }

    /// The one submit path: pin the current snapshot, then enqueue the
    /// batch as one job, blocking while the queue is full (backpressure).
    fn submit<Q, A>(&self, queries: Vec<Q>, job: fn(Batch<Q, A>) -> Job) -> Ticket<Vec<A>> {
        let start_ns = telemetry::now_ns();
        let snap = self.handle.load();
        let n = queries.len() as u64;
        telemetry::flight::event(telemetry::flight::FlightKind::BatchStart, 0, n, 0);
        let (answer, ticket) = mpsc::sync_channel(1);
        let batch = Batch {
            snap,
            queries,
            answer,
            start_ns,
        };
        let jobs = self.jobs.as_ref().expect("taken only by drop");
        // Fails only once every worker has died; the job is dropped with
        // the error, and its ticket fails instead of hanging.
        let _ = jobs.send(job(batch));
        Ticket { answer: ticket }
    }

    /// Enqueue a batched point-location request. Blocks while
    /// `capacity` batches wait for a worker (backpressure), then returns
    /// immediately with a [`Ticket`] for the answers (one
    /// `Option<LeafHit>` per point, in input order — identical to
    /// [`ForestSnapshot::locate_many`] on the snapshot current at
    /// submit).
    pub fn submit_points(&self, points: Vec<(TreeId, [i32; 3])>) -> Ticket<Vec<Option<LeafHit>>> {
        self.submit(points, Job::Points)
    }

    /// Enqueue a batch of box queries, with the same queue semantics as
    /// [`submit_points`](QueryExecutor::submit_points); one hit list
    /// per box, in input order — identical to
    /// [`ForestSnapshot::query_boxes`] on the snapshot current at
    /// submit.
    pub fn submit_boxes(&self, boxes: Vec<BoxQuery>) -> Ticket<Vec<Vec<LeafHit>>> {
        self.submit(boxes, Job::Boxes)
    }

    /// Submit a point batch and wait for the answers.
    pub fn locate_points(&self, points: Vec<(TreeId, [i32; 3])>) -> Vec<Option<LeafHit>> {
        self.submit_points(points).wait()
    }

    /// Submit a box batch and wait for the answers.
    pub fn query_boxes(&self, boxes: Vec<BoxQuery>) -> Vec<Vec<LeafHit>> {
        self.submit_boxes(boxes).wait()
    }
}

impl Drop for QueryExecutor {
    fn drop(&mut self) {
        // Closing the channel ends each worker's `recv` only once the
        // queue is empty, so queued batches are still answered.
        drop(self.jobs.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

// ---------------------------------------------------------------------
// workers

/// Per-worker metric handles, resolved once from the process-global
/// registry (worker threads have no per-rank recorder). Histograms are
/// shared across workers; the `query.worker.{w}.*` counters are per
/// worker, their names interned (each distinct name is allocated once
/// per process, however many executors are built).
struct WorkerMetrics {
    point_latency: telemetry::Histogram,
    box_latency: telemetry::Histogram,
    served: telemetry::Counter,
    age: telemetry::Gauge,
    size: telemetry::Histogram,
    e2e: telemetry::Histogram,
    serve_ns: telemetry::Histogram,
    batches: telemetry::Counter,
    probes: telemetry::Counter,
    busy_ns: telemetry::Counter,
    idle_ns: telemetry::Counter,
}

impl WorkerMetrics {
    fn new(w: usize) -> Self {
        let g = telemetry::global();
        let per = |field: &str| -> telemetry::Counter {
            g.counter(telemetry::intern_name(&format!("query.worker.{w}.{field}")))
        };
        WorkerMetrics {
            point_latency: g.histogram("query.point.latency_ns"),
            box_latency: g.histogram("query.box.latency_ns"),
            served: g.counter("query.served"),
            age: g.gauge("snapshot.age_ns"),
            size: g.histogram("query.batch.size"),
            e2e: g.histogram("query.batch.e2e_ns"),
            serve_ns: g.histogram("query.stage.serve_ns"),
            batches: per("batches"),
            probes: per("probes"),
            busy_ns: per("busy_ns"),
            idle_ns: per("idle_ns"),
        }
    }
}

fn worker_loop(queue: &Mutex<Receiver<Job>>, w: usize) {
    let m = WorkerMetrics::new(w);
    loop {
        let idle0 = telemetry::now_ns();
        // The guard is a temporary of this statement: the lock is held
        // while waiting for a job, never while serving it.
        let job = queue.lock().unwrap_or_else(|p| p.into_inner()).recv();
        // `Err` once the executor is dropped and the queue is drained.
        let Ok(job) = job else {
            return;
        };
        let busy0 = telemetry::now_ns();
        m.idle_ns.add(busy0.saturating_sub(idle0));
        match job {
            Job::Points(b) => b.serve("point", &m.point_latency, &m, ForestSnapshot::locate_many),
            Job::Boxes(b) => b.serve("box", &m.box_latency, &m, ForestSnapshot::query_boxes),
        }
        m.busy_ns.add(telemetry::now_ns().saturating_sub(busy0));
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
        assert_eq!(
            exec.query_boxes(vec![BoxQuery { tree: 0, lo, hi }]),
            vec![snap.query_box(0, lo, hi)]
        );
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
    fn batch_dropped_unserved_fails_its_ticket() {
        let (answer, ticket) = mpsc::sync_channel(1);
        let batch = Batch::<BoxQuery, Vec<LeafHit>> {
            snap: Arc::new(uniform_snapshot(1)),
            queries: Vec::new(),
            answer,
            start_ns: 0,
        };
        drop(batch); // what unwinding out of a panicking worker does
        let ticket = Ticket { answer: ticket };
        let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ticket.wait()));
        let payload = waited.expect_err("an abandoned ticket must not hang");
        let message = payload.downcast_ref::<String>().expect("an expect message");
        assert!(message.starts_with("query executor dropped the request"));
    }

    #[test]
    fn served_counter_advances() {
        let handle = SnapshotHandle::new(uniform_snapshot(2));
        let served = telemetry::global().counter("query.served");
        let before = served.get();
        let exec = QueryExecutor::new(handle, 2);
        exec.locate_points(vec![(0u32, [0, 0, 0]), (0u32, [1, 1, 0])]);
        let _ = exec.query_boxes(vec![BoxQuery {
            tree: 0,
            lo: [0, 0, 0],
            hi: [2, 2, 0],
        }]);
        assert!(served.get() >= before + 3);
    }

    #[test]
    fn large_batch_matches_reference() {
        let snap = uniform_snapshot(5);
        let handle = SnapshotHandle::new(snap.clone());
        let exec = QueryExecutor::new(handle, 4);
        let root = MortonQuad::<2>::len_at(0);
        // The big-batch oracle: a hash scatter over the whole curve, so
        // one batch spans every bucket window of the tree's table.
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
