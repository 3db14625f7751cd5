//! # quadforest-forest
//!
//! The distributed forest-of-octrees AMR workflow: the substrate the
//! paper's quadrant representations are measured inside. A [`Forest`] is
//! a disjoint union of leaves over a [`Connectivity`] of logically cubic
//! trees, partitioned between (simulated) MPI ranks in space-filling
//! curve order — exactly p4est's model: leaves only, ancestors built on
//! demand, self-sufficient quadrant data allowing random access.
//!
//! High-level algorithms are written **once**, generically over the
//! [`Quadrant`] trait, so any representation (standard, raw Morton,
//! AVX2/SIMD) drives the same code paths — the virtual interface at the
//! heart of the paper.
//!
//! Provided algorithms:
//!
//! * [`Forest::new_uniform`] — creation,
//! * [`Forest::refine`] / [`Forest::coarsen`] — callback-driven local
//!   adaptation,
//! * [`Forest::balance`] — parallel 2:1 balance,
//! * [`Forest::partition`] — equal-count SFC partition, shipping only
//!   the runs of leaves that change owner,
//! * [`Forest::ghost`] — ghost/halo layer construction; the layer
//!   records its mirrors, so [`GhostLayer::exchange_data`] is one round
//!   of values,
//! * [`iterate_faces`] — interface iteration, one pair of leaves per fine
//!   face segment under one emission rule, tolerant of non-2:1-balanced
//!   meshes (item 4 of the paper's follow-up list); every side names its
//!   leaf by index ([`LeafRef`]) — which slot a leaf occupies is resolved
//!   here and nowhere above,
//! * [`Forest::search`] — top-down local search / point location,
//! * [`Forest::save_checkpoint`] / [`Forest::load_checkpoint`] — save/load
//!   (the portable image is [`PortableForest`]).
//!
//! # Example
//!
//! ```
//! use quadforest_forest::{BalanceKind, Forest};
//! use quadforest_connectivity::Connectivity;
//! use quadforest_core::quadrant::{MortonQuad, Quadrant};
//! use std::sync::Arc;
//!
//! // two simulated MPI ranks over a periodic unit square
//! let counts = quadforest_comm::run(2, |comm| {
//!     let conn = Arc::new(Connectivity::periodic(2));
//!     let mut forest = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 2);
//!     forest.refine(&comm, true, |_tree, q| {
//!         q.level() < 4 && q.morton_index() == 0
//!     });
//!     forest.balance(&comm, BalanceKind::Face);
//!     forest.partition(&comm);
//!     forest.validate().unwrap();
//!     forest.local_count()
//! });
//! assert_eq!(counts.len(), 2);
//! assert!(counts.iter().sum::<usize>() > 16);
//! ```

#![warn(missing_docs)]

mod balance;
mod checkpoint;
mod data;
pub mod directions;
mod error;
mod ghost;
mod io;
mod iterate;
mod partition;
mod refine;
mod search;
mod validate;

pub use checkpoint::{CheckpointInfo, CheckpointManifest, ShardMeta};
pub use data::{DataMapper, LeafData};
pub use error::{InvariantError, IoError};
pub use io::PortableForest;
pub use quadforest_core::crc::crc32;

pub use balance::BalanceKind;
pub use ghost::{GhostLayer, GhostQuad};
pub use iterate::{iterate_faces, FaceSide, Interface, LeafRef};
pub use search::SearchAction;

use quadforest_comm::Comm;
use quadforest_connectivity::{Connectivity, TreeId};
use quadforest_core::quadrant::Quadrant;
use quadforest_telemetry as telemetry;
use std::sync::Arc;

/// A global space-filling-curve position: `(tree, index at maximum
/// level)`. Lexicographic order is the global leaf order.
pub(crate) type SfcPosition = (u32, u64);

/// Global mesh statistics returned by [`Forest::stats`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForestStats {
    /// Global leaf count `N`.
    pub global_count: u64,
    /// Smallest per-rank leaf count (load-balance indicator).
    pub min_local: u64,
    /// Largest per-rank leaf count.
    pub max_local: u64,
    /// Coarsest populated level.
    pub min_level: u8,
    /// Finest populated level.
    pub max_level: u8,
    /// Leaves per level, indices `0..=MAX_LEVEL`.
    pub level_histogram: Vec<u64>,
}

/// The closed range of maximum-level Morton indices covered by the
/// subtree of `q`: `I_ℓ << s ..= (I_ℓ << s) | (2^s − 1)` with
/// `s = d·(L − ℓ)` (Definition 2.1).
pub(crate) fn key_span<Q: Quadrant>(q: &Q) -> (u64, u64) {
    let first = q.morton_abs();
    let below = (1u64 << (Q::DIM * (Q::MAX_LEVEL - q.level()) as u32)) - 1;
    (first, first | below)
}

/// [`key_span`] of the level-`level` node with Morton index `i`, read
/// off the index alone.
pub(crate) fn index_span<Q: Quadrant>(i: u64, level: u8) -> (u64, u64) {
    let s = Q::DIM * (Q::MAX_LEVEL - level) as u32;
    (i << s, (i << s) | ((1u64 << s) - 1))
}

/// The index range of the leaves in `leaves` (sorted, disjoint) whose
/// subtree overlaps the key span `(first, last)`: a leaf overlaps iff its
/// own span intersects it, and because one of the two must contain the
/// other, that is two binary searches.
pub(crate) fn overlapping<Q: Quadrant>(
    leaves: &[Q],
    (first, last): (u64, u64),
) -> std::ops::Range<usize> {
    let lo = leaves.partition_point(|p| key_span(p).1 < first);
    let hi = leaves.partition_point(|p| p.morton_abs() <= last);
    lo..hi
}

/// The sentinel position one past the end of the forest.
fn end_position(num_trees: usize) -> SfcPosition {
    (num_trees as u32, 0)
}

/// Process-global switch for phase-boundary invariant guards.
static PHASE_GUARDS: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Enable or disable phase-boundary guards process-wide. When enabled,
/// every high-level phase (refine, coarsen, balance, partition, ghost)
/// runs [`Forest::validate`] on its result before returning; a
/// violation aborts the phase with a panic naming the phase and the
/// exact [`InvariantError`], which the comm layer converts into a typed
/// world abort. Off by default — the full-sweep validation is `O(N)`
/// per phase.
pub fn set_phase_guards(enabled: bool) {
    PHASE_GUARDS.store(enabled, std::sync::atomic::Ordering::Relaxed);
}

/// True when phase-boundary guards are enabled (see
/// [`set_phase_guards`]).
pub(crate) fn phase_guards_enabled() -> bool {
    PHASE_GUARDS.load(std::sync::atomic::Ordering::Relaxed)
}

/// A distributed (simulated-MPI) forest of quadtrees/octrees over a
/// shared [`Connectivity`], generic over the quadrant representation.
#[derive(Clone, Debug)]
pub struct Forest<Q: Quadrant> {
    conn: Arc<Connectivity>,
    rank: usize,
    size: usize,
    /// Per-tree sorted leaf arrays; length = number of trees. Only the
    /// SFC range owned by this rank is populated.
    trees: Vec<Vec<Q>>,
    /// Global number of leaves `N`.
    global_count: u64,
    /// Partition markers, length `size + 1`: `markers[r]` is the global
    /// SFC position where rank `r`'s range begins (p4est's
    /// `global_first_position`); `markers[size]` is the end sentinel.
    /// Empty ranks carry the same marker as their successor.
    markers: Vec<SfcPosition>,
}

impl<Q: Quadrant> Forest<Q> {
    // -- construction ----------------------------------------------------

    /// Create a forest holding the uniform refinement of every tree at
    /// `level`, partitioned equally in SFC order across the communicator.
    pub fn new_uniform(conn: Arc<Connectivity>, comm: &Comm, level: u8) -> Self {
        let _span = telemetry::span("new_uniform");
        assert_eq!(conn.dim(), Q::DIM, "connectivity dimension mismatch");
        assert!(level <= Q::MAX_LEVEL);
        let k = conn.num_trees() as u64;
        let per_tree = Q::uniform_count(level);
        let n = k * per_tree;
        let (rank, size) = (comm.rank(), comm.size());
        let lo = n * rank as u64 / size as u64;
        let hi = n * (rank as u64 + 1) / size as u64;
        let mut trees = vec![Vec::new(); conn.num_trees()];
        let mut g = lo;
        while g < hi {
            let t = (g / per_tree) as usize;
            let within = g % per_tree;
            let stop = ((t as u64 + 1) * per_tree).min(hi);
            let tree = &mut trees[t];
            tree.reserve((stop - g) as usize);
            let mut q = Q::from_morton(within, level);
            for i in within..(stop - t as u64 * per_tree) {
                tree.push(q);
                if i + 1 < per_tree && t as u64 * per_tree + i + 1 < stop {
                    q = q.successor();
                }
            }
            g = stop;
        }
        let shift = Q::DIM * (Q::MAX_LEVEL - level) as u32;
        let markers = (0..=size as u64)
            .map(|r| {
                let g = n * r / size as u64;
                if g >= n {
                    end_position(conn.num_trees())
                } else {
                    ((g / per_tree) as u32, (g % per_tree) << shift)
                }
            })
            .collect();
        let f = Self {
            conn,
            rank,
            size,
            trees,
            global_count: n,
            markers,
        };
        telemetry::gauge_set("forest.local_leaves", f.local_count() as u64);
        debug_assert_eq!(f.validate(), Ok(()));
        f
    }

    // -- interrogation ---------------------------------------------------

    /// The connectivity shared by all ranks.
    pub fn connectivity(&self) -> &Arc<Connectivity> {
        &self.conn
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Communicator size `P`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Global number of leaves `N`.
    pub fn global_count(&self) -> u64 {
        self.global_count
    }

    /// Number of leaves stored on this rank.
    pub fn local_count(&self) -> usize {
        self.trees.iter().map(Vec::len).sum()
    }

    /// The sorted leaves of `tree` on this rank.
    pub fn tree_leaves(&self, tree: TreeId) -> &[Q] {
        &self.trees[tree as usize]
    }

    /// Iterate `(tree, &leaf)` over all local leaves in global order.
    pub fn leaves(&self) -> impl Iterator<Item = (TreeId, &Q)> {
        self.trees
            .iter()
            .enumerate()
            .flat_map(|(t, v)| v.iter().map(move |q| (t as TreeId, q)))
    }

    /// The position in [`Forest::leaves`] order of each tree's first
    /// local leaf.
    pub(crate) fn tree_offsets(&self) -> Vec<usize> {
        let mut first = Vec::with_capacity(self.trees.len());
        let mut next = 0;
        for leaves in &self.trees {
            first.push(next);
            next += leaves.len();
        }
        first
    }

    /// The partition markers (`P + 1` global SFC positions).
    pub fn markers(&self) -> &[SfcPosition] {
        &self.markers
    }

    /// The global SFC position of a quadrant in `tree`.
    pub(crate) fn position_of(tree: TreeId, q: &Q) -> SfcPosition {
        (tree, q.morton_abs())
    }

    /// The rank owning the leaf at global SFC position `pos`.
    pub(crate) fn owner_of_position(&self, pos: SfcPosition) -> usize {
        // partition_point: first marker > pos, minus one.
        let r = self.markers.as_slice().partition_point(|m| *m <= pos);
        r.saturating_sub(1).min(self.size - 1)
    }

    /// All ranks whose range intersects the key span `(first, last)` of
    /// a subtree of `tree` (the owners of any present or future
    /// descendant of its root).
    pub(crate) fn owners_of_span(
        &self,
        tree: TreeId,
        (first, last): (u64, u64),
    ) -> std::ops::RangeInclusive<usize> {
        self.owner_of_position((tree, first))..=self.owner_of_position((tree, last))
    }

    /// True when the global SFC position lies in this rank's range.
    pub(crate) fn is_local_position(&self, pos: SfcPosition) -> bool {
        self.markers[self.rank] <= pos && pos < self.markers[self.rank + 1]
    }

    /// A position-independent checksum of the global leaf set, equal on
    /// every rank (used to verify partition invariance).
    pub fn checksum(&self, comm: &Comm) -> u64 {
        let (mut local, prime) = (0u64, 0x1000_0000_01b3u64);
        for (t, leaves) in self.trees.iter().enumerate() {
            // FNV-1a of `(tree, key, level)`: the tree's step once a tree
            let h = (0xcbf2_9ce4_8422_2325u64 ^ t as u64).wrapping_mul(prime);
            for q in leaves {
                let h = (h ^ q.morton_abs()).wrapping_mul(prime);
                local = local.wrapping_add((h ^ q.level() as u64).wrapping_mul(prime));
            }
        }
        comm.allreduce(local, |a, b| a.wrapping_add(*b))
    }

    /// Gather the whole forest's leaves on every rank (testing/IO helper;
    /// collective).
    pub fn gather_all(&self, comm: &Comm) -> Vec<(TreeId, Q)> {
        let local: Vec<(TreeId, Q)> = self.leaves().map(|(t, q)| (t, *q)).collect();
        let gathered = comm.allgather(local);
        gathered.into_iter().flatten().collect()
    }

    /// Per-level leaf counts on this rank only, indices `0..=MAX_LEVEL`
    /// (no communication).
    pub(crate) fn local_level_histogram(&self) -> Vec<u64> {
        let mut local = vec![0u64; Q::MAX_LEVEL as usize + 1];
        for (_, q) in self.leaves() {
            local[q.level() as usize] += 1;
        }
        local
    }

    /// Global mesh statistics (collective). A **single** allgather
    /// carries both the per-rank leaf counts and the per-rank level
    /// histograms; the stats and the global histogram are derived from
    /// that one exchange rather than issuing separate collectives.
    pub fn stats(&self, comm: &Comm) -> ForestStats {
        let _span = telemetry::span("stats");
        let gathered = comm.allgather((self.local_count() as u64, self.local_level_histogram()));
        let mut hist = vec![0u64; Q::MAX_LEVEL as usize + 1];
        for (_, h) in &gathered {
            for (dst, v) in hist.iter_mut().zip(h) {
                *dst += v;
            }
        }
        let min_level = hist.iter().position(|&c| c > 0).unwrap_or(0) as u8;
        let max_level = hist.iter().rposition(|&c| c > 0).unwrap_or(0) as u8;
        telemetry::gauge_set("forest.global_leaves", self.global_count);
        telemetry::gauge_set("forest.local_leaves", self.local_count() as u64);
        telemetry::gauge_set("forest.max_level", max_level as u64);
        ForestStats {
            global_count: self.global_count,
            min_local: gathered.iter().map(|(c, _)| *c).min().unwrap(),
            max_local: gathered.iter().map(|(c, _)| *c).max().unwrap(),
            min_level,
            max_level,
            level_histogram: hist,
        }
    }

    /// Recompute partition markers and the global count after a local
    /// change in leaf counts (collective).
    fn refresh_global(&mut self, comm: &Comm) {
        self.global_count = comm.allreduce_sum(self.local_count() as u64);
        // markers stay valid across refine/coarsen (the SFC ranges do not
        // move), but assert the first local leaf is still within range.
        debug_assert!(self
            .leaves()
            .next()
            .map(|(t, q)| self.is_local_position(Self::position_of(t, q)))
            .unwrap_or(true));
    }

    /// First local leaf's global position, or `None` when empty.
    fn first_local_position(&self) -> Option<SfcPosition> {
        self.leaves().next().map(|(t, q)| Self::position_of(t, q))
    }

    /// Run the phase-boundary guard, if enabled: validate the forest
    /// and abort the phase on invariant drift. Called at the end of
    /// every high-level phase.
    pub(crate) fn guard_phase(&self, phase: &'static str) {
        if !phase_guards_enabled() {
            return;
        }
        telemetry::counter_add("forest.guard.checks", 1);
        if let Err(e) = self.validate() {
            panic!("phase guard '{phase}' failed: {e}");
        }
    }

    /// Partition markers (`size + 1` entries) from each rank's first
    /// leaf position: an empty rank inherits the next non-empty rank's
    /// first position (p4est convention), the last marker is the end
    /// sentinel, and rank 0's range starts at the global origin.
    pub(crate) fn markers_from_firsts(
        num_trees: usize,
        firsts: &[Option<SfcPosition>],
        global_count: u64,
    ) -> Vec<SfcPosition> {
        let mut markers = vec![end_position(num_trees); firsts.len() + 1];
        let mut next = end_position(num_trees);
        for (marker, first) in markers.iter_mut().zip(firsts).rev() {
            if let Some(pos) = first {
                next = *pos;
            }
            *marker = next;
        }
        if global_count > 0 {
            markers[0] = (0, 0);
        }
        markers
    }

    /// Assemble a forest from parts (deserialization path); the caller
    /// validates afterwards.
    pub(crate) fn assemble(
        conn: Arc<Connectivity>,
        rank: usize,
        size: usize,
        trees: Vec<Vec<Q>>,
        global_count: u64,
        markers: Vec<SfcPosition>,
    ) -> Self {
        Self {
            conn,
            rank,
            size,
            trees,
            global_count,
            markers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadforest_core::quadrant::{MortonQuad, StandardQuad};

    type Q3 = StandardQuad<3>;
    type M3 = MortonQuad<3>;

    #[test]
    fn uniform_serial() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let f = Forest::<Q3>::new_uniform(conn, &comm, 2);
            assert_eq!(f.global_count(), 64);
            assert_eq!(f.local_count(), 64);
            assert_eq!(f.validate(), Ok(()));
            let leaves: Vec<_> = f.leaves().collect();
            for (i, (t, q)) in leaves.iter().enumerate() {
                assert_eq!(*t, 0);
                assert_eq!(q.morton_index(), i as u64);
            }
        });
    }

    #[test]
    fn uniform_distributed_counts() {
        for p in [2usize, 3, 5, 8] {
            let counts = quadforest_comm::run(p, |comm| {
                let conn = Arc::new(Connectivity::unit(3));
                let f = Forest::<M3>::new_uniform(conn, &comm, 2);
                assert_eq!(f.validate(), Ok(()));
                assert_eq!(f.global_count(), 64);
                f.local_count() as u64
            });
            assert_eq!(counts.iter().sum::<u64>(), 64);
            let max = counts.iter().max().unwrap();
            let min = counts.iter().min().unwrap();
            assert!(max - min <= 1, "equal partition expected, got {counts:?}");
        }
    }

    #[test]
    fn uniform_multitree() {
        quadforest_comm::run(3, |comm| {
            let conn = Arc::new(Connectivity::brick2d(3, 2, false, false));
            let f = Forest::<StandardQuad<2>>::new_uniform(conn, &comm, 1);
            assert_eq!(f.global_count(), 24);
            assert_eq!(f.validate(), Ok(()));
        });
    }

    #[test]
    fn owner_of_position_matches_markers() {
        quadforest_comm::run(4, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let f = Forest::<Q3>::new_uniform(conn, &comm, 3);
            for (t, q) in f.leaves() {
                let pos = Forest::<Q3>::position_of(t, q);
                assert_eq!(f.owner_of_position(pos), comm.rank());
                assert!(f.is_local_position(pos));
            }
        });
    }

    #[test]
    fn overlapping_range_finds_descendants() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let f = Forest::<Q3>::new_uniform(conn, &comm, 3);
            // the subtree of a level-1 quadrant holds 4^... = 2^(3*2) leaves
            let anc = Q3::from_morton(3, 1);
            let range = overlapping(f.tree_leaves(0), key_span(&anc));
            assert_eq!(range.len(), 64);
            for q in &f.tree_leaves(0)[range] {
                assert!(anc.is_ancestor_of(q));
            }
        });
    }

    #[test]
    fn checksum_is_rank_count_invariant() {
        let base = quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            Forest::<Q3>::new_uniform(conn, &comm, 3).checksum(&comm)
        })[0];
        for p in [2usize, 7] {
            let sums = quadforest_comm::run(p, |comm| {
                let conn = Arc::new(Connectivity::unit(3));
                Forest::<Q3>::new_uniform(conn, &comm, 3).checksum(&comm)
            });
            assert!(sums.iter().all(|s| *s == base));
        }
    }

    #[test]
    fn rank_death_during_construction_is_typed() {
        // a rank that dies inside the collective construction sequence
        // must yield a WorldError naming it, not hang the other ranks
        let err = quadforest_comm::try_run(4, |comm| {
            if comm.rank() == 3 {
                panic!("chaos: construction casualty");
            }
            let conn = Arc::new(Connectivity::unit(3));
            let f = Forest::<Q3>::new_uniform(conn, &comm, 2);
            Ok(f.checksum(&comm))
        })
        .unwrap_err();
        assert_eq!(err.origin, 3);
        assert!(err.origin_panicked());
        assert!(err.reason.contains("construction casualty"));
    }

    #[test]
    fn stats_issues_a_single_collective() {
        use quadforest_telemetry::MetricKind;
        quadforest_comm::run(3, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let mut f = Forest::<Q3>::new_uniform(conn, &comm, 2);
            f.refine(&comm, false, |_, q| q.morton_index() % 3 == 0);
            telemetry::begin_rank(comm.rank());
            let colls = |snap: &quadforest_telemetry::MetricsSnapshot| {
                snap.get("comm.collectives", MetricKind::Counter)
                    .map(|e| e.scalar())
                    .unwrap_or(0)
            };
            let before = colls(&telemetry::rank_snapshot());
            let s = f.stats(&comm);
            let after = colls(&telemetry::rank_snapshot());
            let _ = telemetry::finish_rank();
            assert_eq!(
                after - before,
                1,
                "stats must derive everything from one allgather"
            );
            // and the derived numbers must match the gathered leaves
            let mut hist = vec![0u64; Q3::MAX_LEVEL as usize + 1];
            for (_, q) in f.gather_all(&comm) {
                hist[q.level() as usize] += 1;
            }
            assert_eq!(s.level_histogram, hist);
            assert_eq!(s.global_count, f.global_count());
            let counts = comm.allgather(f.local_count() as u64);
            assert_eq!(s.min_local, *counts.iter().min().unwrap());
            assert_eq!(s.max_local, *counts.iter().max().unwrap());
            assert_eq!(s.max_level, 3);
        });
    }

    #[test]
    fn pipeline_phases_record_spans_on_every_rank() {
        let reports = quadforest_comm::run(2, |comm| {
            telemetry::begin_rank(comm.rank());
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 2);
            f.refine(&comm, true, |_, q| q.coords() == [0, 0, 0] && q.level() < 5);
            f.balance(&comm, BalanceKind::Face);
            f.partition(&comm);
            let _g = f.ghost(&comm, BalanceKind::Face);
            let _s = f.stats(&comm);
            telemetry::finish_rank().expect("recorder was installed")
        });
        for rep in &reports {
            assert!(rep.spans_well_nested(), "rank {}", rep.rank);
            assert_eq!(rep.nesting_errors, 0);
            for phase in [
                "new_uniform",
                "refine",
                "balance",
                "partition",
                "ghost",
                "stats",
            ] {
                assert!(
                    rep.spans.iter().any(|s| s.name == phase),
                    "rank {} missing span '{phase}'",
                    rep.rank
                );
            }
            // phase gauges and counters landed in the per-rank registry
            use quadforest_telemetry::MetricKind;
            assert!(rep
                .metrics
                .get("forest.refined", MetricKind::Counter)
                .is_some());
            assert!(rep
                .metrics
                .get("forest.ghost.size", MetricKind::Gauge)
                .is_some());
        }
    }

    #[test]
    fn empty_ranks_are_tolerated() {
        // more ranks than leaves
        quadforest_comm::run(16, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let f = Forest::<Q3>::new_uniform(conn, &comm, 1);
            assert_eq!(f.global_count(), 8);
            assert_eq!(f.validate(), Ok(()));
            assert_eq!(comm.allreduce_sum(f.local_count() as u64), 8);
        });
    }
}
