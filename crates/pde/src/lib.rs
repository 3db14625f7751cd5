//! Patch-based PDE drivers over the data-bearing AMR forest.
//!
//! This crate is the application layer the payload machinery in
//! `quadforest-forest` exists for, in the ForestClaw direction: every
//! leaf of the adaptive forest carries a fixed `N × N` [`Patch`] of
//! cell-averaged values, and the solver composes the forest's
//! data-bearing primitives into a full simulation loop:
//!
//! * **adapt** — [`Forest::refine_mapped`] / `coarsen_mapped` /
//!   `balance_mapped` with the conservative [`PatchMapper`]
//!   (piecewise-constant injection down, exact 2×2 averaging up);
//! * **migrate** — [`Forest::partition_mapped`] ships each moving
//!   leaf's patch in the partition all-to-all;
//! * **halo** — [`GhostLayer::exchange_data`] carries [`PatchHalo`]
//!   edge strips so interface fluxes see remote neighbors: one round of
//!   values per step;
//! * **flux plan** — one [`iterate_faces`] pass per mesh change compiles
//!   every face pair it emits (one per fine face segment, the finest
//!   granularity a hanging face has) into one flat entry that names both
//!   sides by their slot in the step's strip array, with each segment's
//!   donor strip entry and target cells, sorted in one owner-independent
//!   order; a step is one dispatched kernel over the patches (edge strips
//!   and interiors), the halo, and one pass over the entries — it never
//!   walks the mesh, and every cell adds its fluxes in the same order at
//!   any rank count;
//! * **checkpoint** — `save_checkpoint_with_data` /
//!   `load_checkpoint_with_data` persist mesh and patches together,
//!   so a killed rank resumes bit-identically.
//!
//! [`AdvectionSim`] wires these into a donor-cell upwind advection
//! solver whose total mass is conserved to machine precision across
//! adaptation, migration, hanging faces, and rank boundaries, and whose
//! state is the same bits at every rank count.
//!
//! [`iterate_faces`]: quadforest_forest::iterate_faces
//! [`Forest::refine_mapped`]: quadforest_forest::Forest::refine_mapped
//! [`Forest::partition_mapped`]: quadforest_forest::Forest::partition_mapped
//! [`GhostLayer::exchange_data`]: quadforest_forest::GhostLayer::exchange_data

pub(crate) mod patch;
pub(crate) mod solver;

pub use patch::{Patch, PatchHalo, PatchMapper, PATCH_CELLS, PATCH_N, PATCH_WIRE_BYTES};
pub use solver::{gaussian_blob, AdaptReport, AdaptThresholds, AdvectionSim};
