//! # quadforest-query
//!
//! Concurrent spatial query engine over the forest: immutable
//! snapshots, Morton-range queries, multithreaded serving.
//!
//! The AMR loop mutates the forest; applications want to *ask* it
//! things — which leaf contains this point, which leaves intersect this
//! box — concurrently, from many threads,
//! while refinement keeps running. This crate separates the two worlds:
//!
//! * [`ForestSnapshot`] — an immutable flattening of one forest
//!   generation (per-tree sorted `morton_abs` key arrays + leaf payload
//!   offsets + partition markers), buildable from **any** quadrant
//!   representation via the batched SIMD-dispatched key kernels. All
//!   queries run against snapshots, never against the live forest.
//! * [`SnapshotHandle`] — the publication point, an
//!   `RwLock<Arc<ForestSnapshot>>`. The AMR loop publishes a fresh
//!   snapshot each generation; readers [`load`](SnapshotHandle::load)
//!   an `Arc` clone and may be at most one generation stale, never
//!   torn.
//! * query kernels — batched point location
//!   ([`ForestSnapshot::locate_many`]: one SIMD-dispatched key-extract
//!   pass, then per probe a binary search of the window a per-tree
//!   bucket table gives), batched box queries
//!   ([`ForestSnapshot::query_boxes`]: per box, one Z-order skip-scan of
//!   the sorted leaf keys, `quadforest_core::zrange::leaves_in_box`).
//! * [`QueryExecutor`] — a pool of worker threads behind one bounded
//!   `std` channel of whole batches: one worker answers one batch with
//!   the kernels above and sends it down the submitter's own channel
//!   (backpressure: submitters block while the queue is full).
//! * distributed routing — [`locate_global`] scatters non-local point
//!   queries to their owning ranks (decided by the snapshot's partition
//!   markers) over `Comm::exchange`.
//!
//! ```
//! use quadforest_comm as comm;
//! use quadforest_connectivity::Connectivity;
//! use quadforest_core::quadrant::{MortonQuad, Quadrant};
//! use quadforest_forest::Forest;
//! use quadforest_query::{ForestSnapshot, QueryExecutor, SnapshotHandle};
//! use std::sync::Arc;
//!
//! comm::run(1, |comm| {
//!     let conn = Arc::new(Connectivity::unit(2));
//!     let forest = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 3);
//!
//!     // Publish generation 0, serve from two workers.
//!     let handle = SnapshotHandle::new(ForestSnapshot::build(&forest, 0));
//!     let exec = QueryExecutor::new(Arc::clone(&handle), 2);
//!
//!     let mid = MortonQuad::<2>::len_at(0) / 2;
//!     let hits = exec.locate_points(vec![(0, [mid, mid, 0])]);
//!     assert_eq!(hits[0].unwrap().level, 3);
//! });
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod distributed;
mod executor;
mod handle;
mod snapshot;

pub use distributed::{locate_global, RoutedHit};
pub use executor::{QueryExecutor, Ticket};
pub use handle::SnapshotHandle;
pub use snapshot::{BoxQuery, ForestSnapshot, LeafHit};
