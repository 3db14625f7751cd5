//! # quadforest
//!
//! Forest-of-octrees adaptive mesh refinement with interchangeable
//! low-level quadrant representations — a from-scratch Rust reproduction
//! of *"Alternative Quadrant Representations with Morton Index and AVX2
//! Vectorization for AMR Algorithms within the p4est Software Library"*
//! (Kirilin & Burstedde, IPPS 2024).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] — the paper's contribution: the virtual [`Quadrant`](core::quadrant::Quadrant)
//!   interface and its three implementations (standard xyz+level, raw
//!   Morton `u64`, 128-bit SIMD/AVX2), with every low-level algorithm of
//!   Sections 2.1–2.3;
//! * [`connectivity`] — inter-tree topology and coordinate transforms;
//! * [`comm`] — the simulated-MPI communicator;
//! * [`forest`] — the distributed AMR workflow (create, refine, coarsen,
//!   2:1 balance, partition, ghost layers, iterate, search);
//! * [`telemetry`] — the zero-dependency observability layer: phase
//!   spans, per-rank metrics, and Chrome-trace/Perfetto export;
//! * [`query`] — the concurrent spatial query engine: immutable
//!   [`ForestSnapshot`](query::ForestSnapshot)s published through a
//!   [`SnapshotHandle`](query::SnapshotHandle), point/box
//!   queries via Morton interval decomposition, and a multithreaded
//!   [`QueryExecutor`](query::QueryExecutor);
//! * [`pde`] — the data-bearing application layer: fixed `N × N` cell
//!   patches per leaf ([`Patch`](pde::Patch)), conservative
//!   refine/coarsen mapping, and a patch-based donor-cell advection
//!   solver ([`AdvectionSim`](pde::AdvectionSim)) with halo exchange,
//!   payload migration, and checkpointed recovery;
//! * [`vtk`] — mesh output for ParaView/VisIt.
//!
//! The harness regenerating the paper's figures and tables is the
//! `repro` binary of `crates/bench`; it depends on this library, not the
//! other way round.
//!
//! ## Quickstart
//!
//! ```
//! use quadforest::prelude::*;
//! use std::sync::Arc;
//!
//! // 4 simulated MPI ranks over a unit cube, raw-Morton octants.
//! let leaf_counts = quadforest::comm::run(4, |comm| {
//!     let conn = Arc::new(Connectivity::unit(3));
//!     let mut forest = Forest::<Morton3>::new_uniform(conn, &comm, 2);
//!     forest.refine(&comm, true, |_, q| q.level() < 3 && q.morton_index() == 0);
//!     forest.balance(&comm, BalanceKind::Face);
//!     forest.partition(&comm);
//!     forest.local_count()
//! });
//! assert_eq!(leaf_counts.len(), 4);
//! ```

pub use quadforest_comm as comm;
pub use quadforest_connectivity as connectivity;
pub use quadforest_core as core;
pub use quadforest_forest as forest;
pub use quadforest_pde as pde;
pub use quadforest_query as query;
pub use quadforest_telemetry as telemetry;
pub use quadforest_vtk as vtk;

/// The commonly used names in one import.
pub mod prelude {
    pub use quadforest_comm::{
        run_with_recovery, Attempt, Comm, FaultPlan, RecoveryOptions, RecoveryPolicy,
    };
    pub use quadforest_connectivity::{Connectivity, TreeId};
    pub use quadforest_core::quadrant::Quadrant;
    pub use quadforest_core::quadrant::{Avx2d, Avx3d, Morton2, Morton3, Standard2, Standard3};
    pub use quadforest_forest::{
        iterate_faces, BalanceKind, FaceSide, Forest, GhostLayer, Interface, SearchAction,
    };
    pub use quadforest_pde::{gaussian_blob, AdaptThresholds, AdvectionSim};
    pub use quadforest_query::{ForestSnapshot, QueryExecutor, SnapshotHandle};
}
