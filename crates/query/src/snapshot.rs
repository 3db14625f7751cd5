//! Immutable forest snapshots: the read-serving flattening of one
//! forest generation.
//!
//! A [`ForestSnapshot`] strips a [`Forest`] down to what queries need —
//! per-tree sorted `morton_abs` key arrays, leaf levels, leaf payload
//! offsets, and the partition markers — into one immutable, `Arc`-shared
//! value. Building it costs one pass over the local leaves (through the
//! runtime-dispatched batched [`Quadrant::sfc_keys`] kernel, so the
//! AVX2/BMI2 tiers accelerate the encode step); serving from it costs
//! binary searches over plain `u64` arrays with no reference back into
//! the mutable forest. Any of the quadrant representations flattens to
//! the identical snapshot, which is the paper's level-independent Morton
//! index doing its job: the quadrant *is* its sort key.

use quadforest_connectivity::TreeId;
use quadforest_core::quadrant::Quadrant;
use quadforest_core::zrange;
use quadforest_forest::Forest;
use quadforest_telemetry as telemetry;

/// A query answer naming one local leaf.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LeafHit {
    /// Tree the leaf belongs to.
    pub tree: TreeId,
    /// Index of the leaf within its tree's sorted leaf array.
    pub index: u32,
    /// Offset of the leaf in the rank-global leaf order — the payload
    /// handle: position `payload` of the snapshot generation's
    /// application data array (e.g. a `LeafData` store). `u64` so
    /// level-10-scale forests (2^30+ leaves per rank) cannot silently
    /// wrap the handle.
    pub payload: u64,
    /// The leaf's `morton_abs` key.
    pub key: u64,
    /// The leaf's refinement level.
    pub level: u8,
}

quadforest_core::wire!(struct LeafHit { tree, index, payload, key, level });

/// One axis-aligned box query: all leaves of `tree` intersecting the
/// half-open box `[lo, hi)` — the element type of the batched
/// [`ForestSnapshot::query_boxes`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BoxQuery {
    /// Tree to query.
    pub tree: TreeId,
    /// Inclusive lower corner (integer coordinates at the maximum
    /// refinement level; `lo[2]` ignored in 2D).
    pub lo: [i32; 3],
    /// Exclusive upper corner.
    pub hi: [i32; 3],
}

/// Probe-key sentinel marking an out-of-domain point in the batched
/// key lane (real `morton_abs` keys need at most 56 bits).
const INVALID_KEY: u64 = u64::MAX;

/// Bucket-table bits of a tree with `n` local leaves: `bit_length(n) − 5`,
/// so a bucket holds 16–32 leaves on average and the table costs at most
/// 0.25 B a leaf.
fn bucket_bits(n: usize) -> u32 {
    (usize::BITS - n.leading_zeros()).saturating_sub(5)
}

/// An immutable, rank-local flattening of one forest generation.
///
/// Snapshots are plain data: build one with [`ForestSnapshot::build`],
/// wrap it in an `Arc`, publish it through a
/// [`SnapshotHandle`](crate::SnapshotHandle), and serve point/box
/// queries from however many threads care to hold a clone — no locks,
/// no lifetimes into the forest.
#[derive(Clone, Debug)]
pub struct ForestSnapshot {
    generation: u64,
    dim: u32,
    max_level: u8,
    rank: usize,
    size: usize,
    /// Prefix offsets into `keys`/`levels`, length `num_trees + 1`;
    /// tree `t` owns `keys[tree_offsets[t]..tree_offsets[t+1]]`.
    tree_offsets: Vec<u32>,
    /// Per-tree sorted `morton_abs` keys, concatenated.
    keys: Vec<u64>,
    /// Leaf refinement levels, parallel to `keys`.
    levels: Vec<u8>,
    /// Per-tree bucket tables, concatenated: tree `t` owns
    /// `buckets[bucket_offsets[t]..bucket_offsets[t+1]]`, `2^k + 1`
    /// local leaf indices (`k` = [`bucket_bits`] of its leaf count).
    /// Entry `b` is the first leaf whose key is `≥ b << (dim·max_level − k)`.
    buckets: Vec<u32>,
    bucket_offsets: Vec<u32>,
    /// Partition markers (`P + 1` global SFC positions) for routing
    /// non-local queries to their owning rank.
    markers: Vec<(u32, u64)>,
    /// Telemetry timestamp of the build, for the snapshot-age gauge.
    created_ns: u64,
}

impl ForestSnapshot {
    /// Flatten the local leaves of `forest` into a snapshot stamped
    /// with `generation`. The generation is caller-assigned and must
    /// increase monotonically for the consistency model to mean
    /// anything (readers may see one-generation-stale data, never torn
    /// data).
    pub fn build<Q: Quadrant>(forest: &Forest<Q>, generation: u64) -> Self {
        let _span = telemetry::span("snapshot.build");
        let num_trees = forest.connectivity().num_trees();
        let mut keys = Vec::with_capacity(forest.local_count());
        let mut levels = Vec::with_capacity(forest.local_count());
        let (mut tree_offsets, mut buckets, mut bucket_offsets) = (vec![0u32], vec![], vec![0u32]);
        for t in 0..num_trees {
            // batched sort-key extraction: (morton_abs << 6) | level in
            // one dispatched SoA pass, then split the packing
            let sfc = Q::sfc_keys(forest.tree_leaves(t as TreeId));
            keys.extend(sfc.iter().map(|k| k >> 6));
            levels.extend(sfc.into_iter().map(|k| (k & 0x3F) as u8));
            // one forward pass over the keys fills the bucket table: the
            // last leaf of bucket `b` sets entry `b + 1` one past itself,
            // and after an empty bucket `b` entry `b + 1` repeats entry `b`
            let tk = &keys[tree_offsets[t] as usize..];
            let bits = bucket_bits(tk.len());
            let (shift, table) = (Q::DIM * Q::MAX_LEVEL as u32 - bits, buckets.len());
            buckets.resize(table + (1 << bits) + 1, 0);
            let tb = &mut buckets[table..];
            for (i, key) in tk.iter().enumerate() {
                tb[(key >> shift) as usize + 1] = i as u32 + 1;
            }
            let mut start = 0;
            for entry in tb {
                start = (*entry).max(start);
                *entry = start;
            }
            tree_offsets.push(keys.len() as u32);
            bucket_offsets.push(buckets.len() as u32);
        }
        ForestSnapshot {
            generation,
            dim: Q::DIM,
            max_level: Q::MAX_LEVEL,
            rank: forest.rank(),
            size: forest.size(),
            tree_offsets,
            keys,
            levels,
            buckets,
            bucket_offsets,
            markers: forest.markers().to_vec(),
            created_ns: telemetry::now_ns(),
        }
    }

    // -- interrogation ---------------------------------------------------

    /// The caller-assigned generation stamp.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The rank this snapshot was taken on.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of trees in the connectivity.
    pub(crate) fn num_trees(&self) -> usize {
        self.tree_offsets.len() - 1
    }

    /// Number of local leaves across all trees.
    pub fn local_count(&self) -> usize {
        self.keys.len()
    }

    /// Age of this snapshot in nanoseconds, on the telemetry clock.
    pub(crate) fn age_ns(&self) -> u64 {
        telemetry::now_ns().saturating_sub(self.created_ns)
    }

    /// The sorted `morton_abs` keys and levels of `tree`'s local leaves.
    pub fn tree_keys(&self, tree: TreeId) -> (&[u64], &[u8]) {
        let (a, b) = (
            self.tree_offsets[tree as usize] as usize,
            self.tree_offsets[tree as usize + 1] as usize,
        );
        (&self.keys[a..b], &self.levels[a..b])
    }

    fn hit(&self, tree: TreeId, index: usize) -> LeafHit {
        let off = self.tree_offsets[tree as usize] as usize;
        LeafHit {
            tree,
            index: index as u32,
            payload: (off + index) as u64,
            key: self.keys[off + index],
            level: self.levels[off + index],
        }
    }

    fn in_domain(&self, p: [i32; 3]) -> bool {
        let root = 1i32 << self.max_level as u32;
        (0..self.dim as usize).all(|a| p[a] >= 0 && p[a] < root)
    }

    // -- point location --------------------------------------------------

    /// The rank owning the leaf containing point `p` of `tree`
    /// (whether or not it is local), from the partition markers.
    /// `None` when the point lies outside the unit tree or the tree id
    /// is out of range.
    pub fn owner_of_point(&self, tree: TreeId, p: [i32; 3]) -> Option<usize> {
        if !self.in_domain(p) || tree as usize >= self.num_trees() {
            return None;
        }
        let pos = (tree, zrange::point_key(p, self.dim));
        let r = self.markers.partition_point(|m| *m <= pos);
        Some(r.saturating_sub(1).min(self.size - 1))
    }

    /// Locate the local leaf containing the integer point `p`
    /// (half-open convention) in `tree`. `None` when the point is
    /// outside the domain or owned by another rank.
    pub fn locate(&self, tree: TreeId, p: [i32; 3]) -> Option<LeafHit> {
        if !self.in_domain(p) || tree as usize >= self.num_trees() {
            return None;
        }
        let probe = zrange::point_key(p, self.dim);
        let (keys, levels) = self.tree_keys(tree);
        zrange::locate_in_keys(keys, levels, self.dim, self.max_level, probe)
            .map(|i| self.hit(tree, i))
    }

    /// Batched point location: one [`ForestSnapshot::locate`] per entry,
    /// amortizing the snapshot access across the batch. This is the
    /// per-element reference path — [`ForestSnapshot::locate_many`] is
    /// the bucket-windowed batch kernel that beats it.
    pub fn locate_batch(&self, points: &[(TreeId, [i32; 3])]) -> Vec<Option<LeafHit>> {
        points.iter().map(|(t, p)| self.locate(*t, *p)).collect()
    }

    /// Maximum-level probe keys for a point batch, in input order,
    /// through the batched (BMI2-dispatched) interleave kernel.
    /// Out-of-domain points (bad tree id or coordinates off the unit
    /// tree) get [`INVALID_KEY`]; their lanes are clamped so the kernel
    /// never sees a negative coordinate.
    fn probe_keys(&self, points: &[(TreeId, [i32; 3])]) -> Vec<u64> {
        let n = points.len();
        let (mut xs, mut ys, mut zs) = (vec![0i32; n], vec![0i32; n], vec![0i32; n]);
        let mut invalid = Vec::new();
        for (i, &(tree, p)) in points.iter().enumerate() {
            if self.in_domain(p) && (tree as usize) < self.num_trees() {
                xs[i] = p[0];
                ys[i] = p[1];
                zs[i] = if self.dim == 3 { p[2] } else { 0 };
            } else {
                invalid.push(i);
            }
        }
        let mut keys = vec![0u64; n];
        quadforest_core::batch::point_keys_all(&xs, &ys, &zs, self.dim, &mut keys);
        for i in invalid {
            keys[i] = INVALID_KEY;
        }
        keys
    }

    /// Batched point location in input order: one dispatched pass
    /// extracts the probe keys, then [`zrange::locate_by`] searches each
    /// probe's bucket window. Keys before the bucket are `≤` the probe,
    /// keys from the next bucket on are `>` it, and the window opens one
    /// leaf early: a coarse leaf starting before the bucket can contain
    /// the probe. Answers equal [`ForestSnapshot::locate_batch`]'s.
    pub fn locate_many(&self, points: &[(TreeId, [i32; 3])]) -> Vec<Option<LeafHit>> {
        let keys = self.probe_keys(points);
        let root_bits = self.dim * self.max_level as u32;
        let (mut cur, mut tk, mut tl, mut table, mut shift) =
            (TreeId::MAX, &[][..], &[][..], &[][..], 0);
        points
            .iter()
            .zip(keys)
            .map(|(&(tree, _), probe)| {
                if probe == INVALID_KEY {
                    return None;
                }
                if tree != cur {
                    (tk, tl) = self.tree_keys(tree);
                    table = &self.buckets[self.bucket_offsets[tree as usize] as usize..];
                    (cur, shift) = (tree, root_bits - bucket_bits(tk.len()));
                }
                let b = (probe >> shift) as usize;
                let (lo, hi) = (table[b].saturating_sub(1) as usize, table[b + 1] as usize);
                zrange::locate_in_keys(&tk[lo..hi], &tl[lo..hi], self.dim, self.max_level, probe)
                    .map(|j| self.hit(tree, lo + j))
            })
            .collect()
    }

    // -- box queries -----------------------------------------------------

    /// All local leaves of `tree` intersecting the half-open box
    /// `[lo, hi)`, in curve order: one `zrange::leaves_in_box`
    /// skip-scan of the tree's sorted key array.
    pub fn query_box(&self, tree: TreeId, lo: [i32; 3], hi: [i32; 3]) -> Vec<LeafHit> {
        let mut hits = Vec::new();
        if tree as usize >= self.num_trees() {
            return hits;
        }
        let (keys, levels) = self.tree_keys(tree);
        zrange::leaves_in_box(
            keys.len(),
            |i| keys[i],
            |i| levels[i],
            self.dim,
            self.max_level,
            lo,
            hi,
            |i| hits.push(self.hit(tree, i)),
        );
        hits
    }

    /// Batched box queries: one [`ForestSnapshot::query_box`] per entry.
    /// A box's scan seeks its own start, so there is no order to
    /// exploit across boxes.
    pub fn query_boxes(&self, boxes: &[BoxQuery]) -> Vec<Vec<LeafHit>> {
        boxes
            .iter()
            .map(|b| self.query_box(b.tree, b.lo, b.hi))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::{AvxQuad, MortonQuad, Quadrant, StandardQuad};
    use quadforest_forest::Forest;
    use std::sync::Arc;

    fn refined_forest<Q: Quadrant>(comm: &quadforest_comm::Comm) -> Forest<Q> {
        let conn = Arc::new(Connectivity::brick2d(2, 1, false, false));
        let mut f = Forest::<Q>::new_uniform(conn, comm, 2);
        f.refine(comm, true, |t, q| {
            q.level() < 4 && (q.morton_index() + t as u64) % 3 == 0
        });
        f
    }

    fn check_snapshot_matches_forest<Q: Quadrant>() {
        quadforest_comm::run(1, |comm| {
            let f = refined_forest::<Q>(&comm);
            let snap = ForestSnapshot::build(&f, 7);
            assert_eq!(snap.generation(), 7);
            assert_eq!(snap.local_count(), f.local_count());
            assert_eq!(snap.num_trees(), 2);
            // keys mirror the leaf arrays exactly
            for t in 0..2u32 {
                let (keys, levels) = snap.tree_keys(t);
                let leaves = f.tree_leaves(t);
                assert_eq!(keys.len(), leaves.len());
                for (i, q) in leaves.iter().enumerate() {
                    assert_eq!(keys[i], q.morton_abs());
                    assert_eq!(levels[i], q.level());
                }
            }
            // point location agrees with the forest path on a grid
            let root = Q::len_at(0);
            let step = root / 13;
            for t in 0..2u32 {
                for i in 0..13 {
                    for j in 0..13 {
                        let p = [i * step, j * step, 0];
                        let hit = snap.locate(t, p);
                        let brute = f.tree_leaves(t).iter().position(|q| q.contains_point(p));
                        assert_eq!(hit.map(|h| h.index as usize), brute, "tree {t} point {p:?}");
                        if let Some(h) = hit {
                            assert_eq!(h.tree, t);
                            let (keys, _) = snap.tree_keys(t);
                            assert_eq!(keys[h.index as usize], h.key);
                        }
                    }
                }
            }
            // payload offsets are the rank-global leaf order
            let all: Vec<u32> = (0..2u32)
                .flat_map(|t| {
                    let n = snap.tree_keys(t).0.len();
                    (0..n).map(move |i| (t, i))
                })
                .enumerate()
                .map(|(g, (t, i))| {
                    assert_eq!(snap.hit(t, i).payload as usize, g);
                    g as u32
                })
                .collect();
            assert_eq!(all.len(), snap.local_count());
        });
    }

    #[test]
    fn snapshot_matches_forest_all_representations() {
        check_snapshot_matches_forest::<StandardQuad<2>>();
        check_snapshot_matches_forest::<MortonQuad<2>>();
        check_snapshot_matches_forest::<AvxQuad<2>>();
    }

    /// Every table entry is its definition: the first local leaf whose
    /// key is `≥ b << (dim·max_level − k)`, on a forest with a deep strip
    /// beside coarse leaves, on both ranks of a partition (one of them
    /// with an empty tree).
    #[test]
    fn bucket_tables_are_their_definition() {
        let empty = quadforest_comm::run(2, |comm| {
            let mut f = refined_forest::<MortonQuad<2>>(&comm);
            f.refine(&comm, true, |t, q| {
                t == 0 && q.level() < 9 && q.coords()[1] == 0
            });
            f.partition(&comm);
            let snap = ForestSnapshot::build(&f, 0);
            for t in 0..2u32 {
                let (keys, _) = snap.tree_keys(t);
                let bits = bucket_bits(keys.len());
                let shift = 2 * MortonQuad::<2>::MAX_LEVEL as u32 - bits;
                let want: Vec<u32> = (0..=1u64 << bits)
                    .map(|b| keys.partition_point(|&k| k < b << shift) as u32)
                    .collect();
                let (a, z) = (
                    snap.bucket_offsets[t as usize],
                    snap.bucket_offsets[t as usize + 1],
                );
                assert_eq!(
                    snap.buckets[a as usize..z as usize],
                    want,
                    "rank {} tree {t}",
                    comm.rank()
                );
            }
            (0..2).filter(|&t| snap.tree_keys(t).0.is_empty()).count()
        });
        assert_eq!(
            empty.iter().sum::<usize>(),
            1,
            "one rank holds no leaf of one tree"
        );
    }

    #[test]
    fn box_query_matches_brute_force() {
        quadforest_comm::run(1, |comm| {
            let f = refined_forest::<MortonQuad<2>>(&comm);
            let snap = ForestSnapshot::build(&f, 0);
            let root = MortonQuad::<2>::len_at(0);
            let boxes = [
                ([0, 0, 0], [root, root, 0]),
                ([root / 4, root / 4, 0], [root / 2 + 3, root / 2 + 5, 0]),
                ([1, 3, 0], [root - 1, 7, 0]), // thin strip: budget path
                ([root / 2, root / 2, 0], [root / 2 + 1, root / 2 + 1, 0]),
            ];
            for (lo, hi) in boxes {
                for t in 0..2u32 {
                    let got: Vec<usize> = snap
                        .query_box(t, lo, hi)
                        .iter()
                        .map(|h| h.index as usize)
                        .collect();
                    let want: Vec<usize> = f
                        .tree_leaves(t)
                        .iter()
                        .enumerate()
                        .filter(|(_, q)| {
                            let c = q.coords();
                            let s = q.side();
                            c[0] < hi[0] && c[0] + s > lo[0] && c[1] < hi[1] && c[1] + s > lo[1]
                        })
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(got, want, "tree {t} box {lo:?}..{hi:?}");
                }
            }
        });
    }

    /// A leaf hit's encoding, pinned byte for byte.
    #[test]
    fn leaf_hit_encoding_is_pinned_byte_for_byte() {
        use quadforest_core::Wire;
        let hit = LeafHit {
            tree: 3,
            index: 0x0102,
            payload: 0x0A0B_0C0D,
            key: u64::MAX - 1,
            level: 7,
        };
        assert_eq!(
            hit.to_wire(),
            [
                3, 0, 0, 0, // tree
                2, 1, 0, 0, // index
                0x0D, 0x0C, 0x0B, 0x0A, 0, 0, 0, 0, // payload
                0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // key
                7,    // level
            ]
        );
    }

    #[test]
    fn owner_routing_covers_every_point() {
        quadforest_comm::run(4, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 3);
            let snap = ForestSnapshot::build(&f, 0);
            let root = MortonQuad::<2>::len_at(0);
            let step = root / 8;
            let mut local_hits = 0u64;
            for i in 0..8 {
                for j in 0..8 {
                    let p = [i * step, j * step, 0];
                    let owner = snap.owner_of_point(0, p).unwrap();
                    let hit = snap.locate(0, p);
                    // the marker route and the local arrays must agree
                    assert_eq!(owner == comm.rank(), hit.is_some(), "point {p:?}");
                    if hit.is_some() {
                        local_hits += 1;
                    }
                }
            }
            assert_eq!(comm.allreduce_sum(local_hits), 64);
            assert_eq!(snap.owner_of_point(0, [-1, 0, 0]), None);
            assert_eq!(snap.owner_of_point(9, [0, 0, 0]), None);
        });
    }
}
