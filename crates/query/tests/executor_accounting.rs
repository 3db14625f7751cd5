//! Every batch is an ordinary job: it is counted, timed and bounded
//! whatever it contains, and each latency histogram holds one
//! population. This file is its own test binary with a single `#[test]`,
//! so deltas of the process-global registry are exact.

use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{MortonQuad, Quadrant};
use quadforest_forest::Forest;
use quadforest_query::{BoxQuery, ForestSnapshot, QueryExecutor, SnapshotHandle};
use quadforest_telemetry::{self as telemetry, MetricKind};
use std::sync::Arc;

#[test]
fn every_batch_is_accounted_once() {
    let snap = quadforest_comm::run(1, |comm| {
        let conn = Arc::new(Connectivity::unit(2));
        ForestSnapshot::build(&Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 3), 0)
    })
    .pop()
    .expect("one rank, one snapshot");
    let exec = QueryExecutor::new(SnapshotHandle::new(snap), 2);
    let g = telemetry::global();
    let served = g.counter("query.served");
    let count = |name: &str| {
        g.snapshot()
            .get(name, MetricKind::Histogram)
            .map_or(0, |e| e.scalar())
    };
    let e2e = || count("query.batch.e2e_ns");
    let box_latency = || count("query.box.latency_ns");
    // The submitter's wait for its answer: one sample per answered batch.
    let latch_wait = || count("query.stage.latch_wait_ns");

    // A client that sends only out-of-domain points is still served,
    // still counted, and still visible to the batch-latency histogram
    // (and so to the slow-query log and the in-flight bound).
    let (served0, e2e0, wait0) = (served.get(), e2e(), latch_wait());
    let outside: Vec<(u32, [i32; 3])> = (0..8).map(|i| (0u32, [-1 - i, 5, 0])).collect();
    assert_eq!(exec.locate_points(outside), vec![None; 8]);
    assert_eq!(served.get() - served0, 8);
    assert_eq!(e2e() - e2e0, 1);
    assert_eq!(latch_wait() - wait0, 1);

    // `query.box.latency_ns` is per batch, submit → answer, like
    // `query.point.latency_ns`: one 16-box batch is one sample.
    let root = MortonQuad::<2>::len_at(0);
    let boxes: Vec<BoxQuery> = (0..16)
        .map(|i| BoxQuery {
            tree: 0,
            lo: [i * (root / 32), 0, 0],
            hi: [i * (root / 32) + root / 4, root / 2, 0],
        })
        .collect();
    let (before, wait0) = (box_latency(), latch_wait());
    let hits = exec.query_boxes(boxes);
    assert!(hits.iter().all(|h| !h.is_empty()));
    assert_eq!(box_latency() - before, 1);
    assert_eq!(latch_wait() - wait0, 1);
}
