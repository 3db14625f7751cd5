//! The snapshot publication point: an `RwLock<Arc<ForestSnapshot>>`.
//!
//! The AMR loop (refine → balance → partition) publishes a fresh
//! [`ForestSnapshot`] each generation while reader threads keep serving
//! the previous one. [`SnapshotHandle::load`] clones the current `Arc`
//! under the read lock; [`SnapshotHandle::publish`] swaps it under the
//! write lock and drops the retired `Arc` after releasing it, so a
//! critical section is a pointer move or a refcount increment — never
//! a snapshot build, never a deallocation.
//!
//! The consistency model holds by construction: a reader gets some
//! recently published generation — possibly one generation stale if it
//! raced a publish — but always a complete, immutable snapshot that its
//! own `Arc` keeps alive; torn state is unrepresentable. A publisher
//! that does find a reader inside its few-nanosecond critical section
//! sleeps on the lock and is woken by that reader's unlock; it does not
//! poll behind every runnable thread (DESIGN.md "Publication" has the
//! measurement against the epoch-RCU this replaced).

use crate::ForestSnapshot;
use quadforest_telemetry as telemetry;
use std::sync::{Arc, RwLock};

/// The publication point for [`ForestSnapshot`]s.
///
/// Cheap to share (`Arc<SnapshotHandle>`); any number of reader threads
/// call [`load`](SnapshotHandle::load) concurrently with publishers
/// calling [`publish`](SnapshotHandle::publish).
pub struct SnapshotHandle {
    current: RwLock<Arc<ForestSnapshot>>,
    /// Cached global-registry gauge (query worker threads are not rank
    /// threads, so snapshot metrics live in the process-global registry).
    gen_gauge: telemetry::Gauge,
}

impl SnapshotHandle {
    /// Create a handle serving `initial` as the first generation.
    pub fn new(initial: ForestSnapshot) -> Arc<Self> {
        let gen_gauge = telemetry::global().gauge("snapshot.generation");
        gen_gauge.set(initial.generation());
        Arc::new(SnapshotHandle {
            current: RwLock::new(Arc::new(initial)),
            gen_gauge,
        })
    }

    /// The read path: one `Arc` clone under the read lock. A poisoned
    /// lock is read through — the guarded value is a single `Arc`, valid
    /// at every step of a swap.
    pub fn load(&self) -> Arc<ForestSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Generation of the currently served snapshot.
    pub fn generation(&self) -> u64 {
        self.load().generation()
    }

    /// Publish a new snapshot generation. Readers that raced the swap
    /// finish against the previous snapshot, which lives until its last
    /// reader drops it; every later [`load`](SnapshotHandle::load)
    /// observes the new one.
    pub fn publish(&self, snapshot: ForestSnapshot) {
        let generation = snapshot.generation();
        let fresh = Arc::new(snapshot);
        let retired = {
            let mut current = self.current.write().unwrap_or_else(|p| p.into_inner());
            // Inside the lock, so concurrent publishers leave the gauge
            // at the generation that is actually served.
            self.gen_gauge.set(generation);
            std::mem::replace(&mut *current, fresh)
        };
        drop(retired); // freed outside the lock
        telemetry::global().counter("snapshot.published").incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::MortonQuad;
    use quadforest_forest::Forest;
    use std::sync::atomic::AtomicBool;

    fn snapshot_of_level(level: u8, generation: u64) -> ForestSnapshot {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, level);
            ForestSnapshot::build(&f, generation)
        })
        .pop()
        .unwrap()
    }

    #[test]
    fn publish_and_load_round_trip() {
        let handle = SnapshotHandle::new(snapshot_of_level(1, 0));
        assert_eq!(handle.generation(), 0);
        assert_eq!(handle.load().local_count(), 4);
        handle.publish(snapshot_of_level(2, 1));
        assert_eq!(handle.generation(), 1);
        assert_eq!(handle.load().local_count(), 16);
    }

    #[test]
    fn concurrent_load_while_publishing_never_tears() {
        // Hammer the handle: 6 reader threads load continuously while
        // the main thread publishes 200 generations. Every loaded
        // snapshot must be internally consistent: generation g ⇒ the
        // leaf count recorded for g.
        let handle = SnapshotHandle::new(snapshot_of_level(1, 0));
        // generation g is published at level g % 5 + 1 (g = 0 at level 1),
        // so a consistent snapshot always has 4^level leaves
        let expected = |g: u64| 1usize << (2 * (g % 5 + 1));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..6)
            .map(|_| {
                let handle = Arc::clone(&handle);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen_generations = 0u64;
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = handle.load();
                        let g = snap.generation();
                        assert_eq!(
                            snap.local_count(),
                            expected(g),
                            "torn snapshot at generation {g}"
                        );
                        assert!(g >= last, "generation went backwards: {last} -> {g}");
                        if g != last {
                            seen_generations += 1;
                            last = g;
                        }
                    }
                    seen_generations
                })
            })
            .collect();
        // Each publish is timed alone (the snapshot is built before
        // the clock starts): with 6 spinning readers on few cpus the
        // mutator must not wait out a reader's time slice.
        let mut publish_ns: Vec<u64> = (1..200u64)
            .map(|g| {
                let snap = snapshot_of_level((g % 5 + 1) as u8, g);
                let t0 = std::time::Instant::now();
                handle.publish(snap);
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0, "readers must observe published generations");
        assert_eq!(handle.generation(), 199);
        publish_ns.sort_unstable();
        let median = publish_ns[publish_ns.len() / 2];
        assert!(median < 2_000_000, "median publish took {median} ns");
    }

    use std::sync::atomic::Ordering;
}
