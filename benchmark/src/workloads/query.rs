//! `query_serve` — reads beside writes.
//!
//! A closed loop: one client thread and a `QueryExecutor` with one
//! worker. The client alternates a 4096-point uniform-random
//! `locate_points` batch and a 16-box `query_boxes` batch (box side 1/16
//! of the root), each sent only when the previous answer is back, while a
//! publisher thread rebuilds a snapshot and `publish`es it every 100 ms,
//! alternating two 3D shell forests (≈0.36 M and ≈0.26 M leaves). The
//! **operation** is one point batch (submit → answer), an **item** one
//! query answered, point or box; rates are taken per pass through the
//! pool of batches, so the box path counts against the throughput.
//!
//! `query`, `core::zrange` and `core::batch::point_keys_all` do the work;
//! forest and comm are idle once set-up has built the two forests. The
//! seed places the two shells' midpoints and draws the points and boxes.

use super::amr::Shell;
use super::{done, peak_rss_mb, timed_setup, Outcome, Rng, RunCfg, Size};
use crate::spans::{self, SpanLog, SpanRec};
use crate::stats::{median, percentile};
use quadforest_comm as comm;
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{Morton3, Quadrant};
use quadforest_forest::Forest;
use quadforest_query::{BoxQuery, ForestSnapshot, LeafHit, QueryExecutor, SnapshotHandle};
use quadforest_telemetry as telemetry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Q = Morton3;
type Point = (u32, [i32; 3]);
const PUBLISH_PERIOD: Duration = Duration::from_millis(100);
/// Every how many batches of a kind the answer is cross-checked.
const CHECK_EVERY: usize = 64;

/// What the box answers of one batch must add up to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BoxDigest {
    hits: usize,
    key_sum: u64,
}

fn box_digest(answers: &[Vec<LeafHit>]) -> BoxDigest {
    BoxDigest {
        hits: answers.iter().map(Vec::len).sum(),
        key_sum: answers
            .iter()
            .flatten()
            .fold(0, |a, h| a.wrapping_add(h.key ^ h.level as u64)),
    }
}

/// Everything the serving loop reads, with the reference answers.
struct Inputs {
    forests: [Forest<Q>; 2],
    /// Snapshots of the two forests, for direct calls and as reference.
    snaps: [ForestSnapshot; 2],
    points: Vec<Vec<Point>>,
    boxes: Vec<Vec<BoxQuery>>,
    /// `ForestSnapshot::locate` of every pool point on each forest.
    expect_points: [Vec<Vec<Option<LeafHit>>>; 2],
    expect_boxes: [Vec<BoxDigest>; 2],
}

fn shell_forest(shell: Shell, size: &Size) -> Forest<Q> {
    let max_level = size.shell_max_level;
    comm::run(1, |comm| {
        let conn = Arc::new(Connectivity::unit(3));
        let mut f = Forest::<Q>::new_uniform(conn, &comm, size.shell_base_level);
        f.refine(&comm, true, |_, q| q.level() < max_level && shell.cuts(q));
        f
    })
    .pop()
    .expect("one rank")
}

fn setup(cfg: &RunCfg) -> Inputs {
    let size = &cfg.size;
    let forests = [
        shell_forest(Shell::from_seed(cfg.seed, 4, 0.35), size),
        shell_forest(Shell::from_seed(cfg.seed, 5, 0.30), size),
    ];
    let snaps = [
        ForestSnapshot::build(&forests[0], 0),
        ForestSnapshot::build(&forests[1], 0),
    ];
    let root = Q::len_at(0);
    let mut rng = Rng::new(cfg.seed, 6);
    let mut coord = |below: i32| rng.below(below as u64) as i32;
    let points: Vec<Vec<Point>> = (0..size.query_pool)
        .map(|_| {
            (0..size.query_points)
                .map(|_| (0, [coord(root), coord(root), coord(root)]))
                .collect()
        })
        .collect();
    let side = root / 16;
    let boxes: Vec<Vec<BoxQuery>> = (0..size.query_pool)
        .map(|_| {
            (0..size.query_boxes)
                .map(|_| {
                    let lo = [coord(root - side), coord(root - side), coord(root - side)];
                    BoxQuery {
                        tree: 0,
                        lo,
                        hi: lo.map(|c| c + side),
                    }
                })
                .collect()
        })
        .collect();
    let expect_points = [0, 1].map(|s| {
        points
            .iter()
            .map(|batch| batch.iter().map(|&(t, p)| snaps[s].locate(t, p)).collect())
            .collect()
    });
    let expect_boxes = [0, 1].map(|s| {
        boxes
            .iter()
            .map(|batch| {
                let answers: Vec<Vec<LeafHit>> = batch
                    .iter()
                    .map(|b| snaps[s].query_box(b.tree, b.lo, b.hi))
                    .collect();
                box_digest(&answers)
            })
            .collect()
    });
    Inputs {
        forests,
        snaps,
        points,
        boxes,
        expect_points,
        expect_boxes,
    }
}

/// What the publisher thread measured.
#[derive(Default)]
struct Published {
    build_s: Vec<f64>,
    publish_s: Vec<f64>,
    spans: Vec<SpanRec>,
    lib_spans: (usize, u64),
}

/// Rebuild and publish a snapshot every [`PUBLISH_PERIOD`], alternating
/// the two forests, until `stop` is set.
fn publisher(
    inp: &Inputs,
    handle: &SnapshotHandle,
    stop: &AtomicBool,
    trace: bool,
    epoch: Instant,
) -> Published {
    let mut p = Published::default();
    if trace {
        telemetry::begin_rank(1);
    }
    let mut log = SpanLog::new(trace, 1, epoch);
    let start = Instant::now();
    let mut generation = 1u64;
    while !stop.load(Ordering::Acquire) {
        log.set_rep(generation as u32);
        let forest = &inp.forests[generation as usize % 2];
        log.span("bench.publish", |log| {
            let t0 = Instant::now();
            let snap = log.span("query.snapshot_build", |_| {
                ForestSnapshot::build(forest, generation)
            });
            let t1 = Instant::now();
            log.span("query.publish", |_| handle.publish(snap));
            p.build_s.push((t1 - t0).as_secs_f64());
            p.publish_s.push(t1.elapsed().as_secs_f64());
        });
        generation += 1;
        // sleep to the next tick in short naps, so `stop` is seen soon
        let next = start + PUBLISH_PERIOD * (generation as u32 - 1);
        while Instant::now() < next && !stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(5).min(next - Instant::now().min(next)));
        }
    }
    p.lib_spans = telemetry::finish_rank()
        .filter(|_| trace)
        .map_or((0, 0), |r| (r.spans.len(), r.dropped_spans));
    p.spans = log.into_spans();
    p
}

/// What the client measured.
#[derive(Default)]
struct Served {
    point_s: Vec<f64>,
    box_s: Vec<f64>,
    points_found: usize,
    box_hits: usize,
    generations: u64,
    spans: Vec<SpanRec>,
    published: Published,
}

/// The closed loop, for `budget`. With `publish` off the snapshot never
/// changes: the bypass for publish-side changes.
fn serve(
    cfg: &RunCfg,
    inp: &Inputs,
    budget: Duration,
    publish: bool,
    trace: bool,
    out: &mut Outcome,
) -> Served {
    let size = &cfg.size;
    let handle = SnapshotHandle::new(inp.snaps[0].clone());
    let exec = QueryExecutor::new(Arc::clone(&handle), 1);
    let stop = AtomicBool::new(false);
    let epoch = Instant::now();
    let mut s = Served::default();
    let generation0 = handle.generation();
    std::thread::scope(|scope| {
        let publisher = publish.then(|| {
            let (handle, stop) = (&handle, &stop);
            scope.spawn(move || publisher(inp, handle, stop, trace, epoch))
        });
        let mut log = SpanLog::new(trace, 0, epoch);
        let t0 = Instant::now();
        let mut i = 0usize;
        while !done(t0, budget, i, size.min_ops) {
            let slot = i % size.query_pool;
            log.set_rep(i as u32);

            let batch = inp.points[slot].clone();
            let t = Instant::now();
            let hits = log.span("bench.batch", |log| {
                log.span("query.locate_points", |_| exec.locate_points(batch))
            });
            s.point_s.push(t.elapsed().as_secs_f64());
            s.points_found += hits.iter().flatten().count();
            // every answer must be exactly right for one of the two
            // published forests: stale by a generation is fine, torn is not
            let ok = !i.is_multiple_of(CHECK_EVERY)
                || inp.expect_points.iter().any(|expect| expect[slot] == hits);
            out.op(ok, || {
                format!("point batch {i}: answers match neither forest")
            });

            let batch = inp.boxes[slot].clone();
            let t = Instant::now();
            let answers = log.span("bench.batch", |log| {
                log.span("query.query_boxes", |_| exec.query_boxes(batch))
            });
            s.box_s.push(t.elapsed().as_secs_f64());
            s.box_hits += answers.iter().map(Vec::len).sum::<usize>();
            let ok = !i.is_multiple_of(CHECK_EVERY) || {
                let got = box_digest(&answers);
                inp.expect_boxes.iter().any(|expect| expect[slot] == got)
            };
            out.op(ok, || {
                format!("box batch {i}: answers match neither forest")
            });
            i += 1;
        }
        stop.store(true, Ordering::Release);
        s.spans = log.into_spans();
        if let Some(p) = publisher {
            s.published = p.join().expect("publisher thread");
        }
    });
    s.generations = handle.generation() - generation0;
    s
}

/// Median seconds of `run` over the pool's items.
fn time_over_pool<T>(pool: &[T], mut run: impl FnMut(&T)) -> f64 {
    let times: Vec<f64> = pool
        .iter()
        .map(|item| {
            let t = Instant::now();
            run(item);
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let size = &cfg.size;
    let (inp, setup_s) = timed_setup(size.setup_reps * 2, || setup(cfg));

    if !cfg.traced {
        let s = serve(cfg, &inp, cfg.budget(), true, false, &mut out);
        // one loop turn answers a point batch and a box batch. Boxes differ
        // in how many leaves they hit, so a rate is taken over one whole
        // pass through the pool: every sample is the same work.
        let queries = (size.query_points + size.query_boxes) as f64;
        let turns: Vec<f64> = s.point_s.iter().zip(&s.box_s).map(|(p, b)| p + b).collect();
        let per = |turns: &[f64]| turns.len() as f64 * queries / turns.iter().sum::<f64>();
        let mut rates: Vec<f64> = turns.chunks_exact(size.query_pool).map(per).collect();
        if rates.is_empty() {
            rates.push(per(&turns));
        }
        out.set_speed(&rates, &s.point_s);
        out.set("peak_rss_mb", peak_rss_mb());
        out.set("setup_s", setup_s);
        return out;
    }

    // traced run: a quarter of the budget each for the untraced loop, the
    // traced loop and the loop with the publisher off; then direct calls
    let quarter = cfg.budget().div_f64(4.0);
    let plain = serve(cfg, &inp, quarter, true, false, &mut out);
    telemetry::begin_rank(0);
    let traced = serve(cfg, &inp, quarter, true, true, &mut out);
    let report = telemetry::finish_rank().expect("recorder installed above");
    let quiet = serve(cfg, &inp, quarter, false, false, &mut out);

    let us = 1e6;
    out.set("query.locate_batch_us_p50", median(&traced.point_s) * us);
    out.set(
        "query.locate_batch_us_p99",
        percentile(&traced.point_s, 0.99) * us,
    );
    out.set("query.box_batch_us_p50", median(&traced.box_s) * us);
    let p = &traced.published;
    let both: Vec<f64> = p
        .build_s
        .iter()
        .zip(&p.publish_s)
        .map(|(a, b)| a + b)
        .collect();
    if !both.is_empty() {
        out.set("query.publish_ms_p50", median(&both) * 1e3);
        out.set("query.snapshot_build_ms_p50", median(&p.build_s) * 1e3);
        out.set("query.publish_us_p50", median(&p.publish_s) * us);
    }
    out.set(
        "query.locate_batch_us_p50_static",
        median(&quiet.point_s) * us,
    );
    let asked = traced.point_s.len() * size.query_points;
    out.set("query.hit_ratio", traced.points_found as f64 / asked as f64);
    out.set(
        "query.hits_per_box",
        traced.box_hits as f64 / (traced.box_s.len() * size.query_boxes) as f64,
    );
    out.set(
        "query.batches_served",
        (traced.point_s.len() + traced.box_s.len()) as f64,
    );
    out.set("query.generations_seen", traced.generations as f64);

    // direct calls into the snapshot, no executor and no publisher
    let snap = &inp.snaps[0];
    let direct = time_over_pool(&inp.points, |batch| {
        std::hint::black_box(snap.locate_many(batch));
    });
    out.set(
        "query.locate_many_ns_per_point",
        direct * 1e9 / size.query_points as f64,
    );
    let single = time_over_pool(&inp.points, |batch| {
        for &(t, p) in batch {
            std::hint::black_box(snap.locate(t, p));
        }
    });
    out.set(
        "query.locate_single_ns",
        single * 1e9 / size.query_points as f64,
    );
    let boxes = time_over_pool(&inp.boxes, |batch| {
        std::hint::black_box(snap.query_boxes(batch));
    });
    out.set(
        "query.query_boxes_us_per_box",
        boxes * us / size.query_boxes as f64,
    );
    out.set(
        "query.executor_overhead_us",
        (median(&quiet.point_s) - direct) * us,
    );

    // the batch-size sweep through the executor, snapshot static
    let handle = SnapshotHandle::new(snap.clone());
    let exec = QueryExecutor::new(handle, 1);
    let all: Vec<Point> = inp.points.iter().flatten().copied().collect();
    for (name, len) in [
        ("b64", 64.min(size.query_points)),
        ("b4096", size.query_points),
        ("b262144", size.query_big_batch.min(all.len())),
    ] {
        // at least five samples, also of the batch that is the whole pool
        let batches: Vec<&[Point]> = all
            .chunks_exact(len)
            .cycle()
            .take(64.min(5.max(all.len() / len)))
            .collect();
        let times: Vec<f64> = batches
            .iter()
            .map(|batch| {
                let input = batch.to_vec(); // the by-value API's copy is not timed
                let t = Instant::now();
                std::hint::black_box(exec.locate_points(input));
                t.elapsed().as_secs_f64()
            })
            .collect();
        let secs = median(&times);
        out.set(
            &format!("query.locate_ns_per_point.{name}"),
            secs * 1e9 / len as f64,
        );
    }

    out.set_tracing_overhead(&plain.point_s, &traced.point_s);
    out.set(
        "telemetry.spans_recorded",
        (report.spans.len() + traced.published.lib_spans.0) as f64,
    );
    out.set(
        "telemetry.spans_dropped",
        (report.dropped_spans + traced.published.lib_spans.1) as f64,
    );
    let mut traced = traced;
    let published = std::mem::take(&mut traced.published.spans);
    out.spans = spans::merge(vec![traced.spans, published]);
    out
}
