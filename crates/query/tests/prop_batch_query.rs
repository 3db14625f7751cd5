//! Property: the batched query kernels are *element-for-element* the
//! single-query paths — [`ForestSnapshot::locate_many`] equals
//! [`ForestSnapshot::locate_batch`] and
//! [`ForestSnapshot::query_boxes`] equals per-entry
//! [`ForestSnapshot::query_box`] — for every quadrant representation,
//! on adaptively refined multi-tree forests, for batches containing
//! duplicates, out-of-domain points, invalid tree ids, and probes
//! scattered over every tree — and where `locate_many`'s bucket windows
//! have edges: a deep corner beside coarse leaves, probes on the domain
//! edges, every rank of partitioned forests, empty local trees. Plus a
//! hammer test: the executor under concurrent submitters returns
//! exactly the direct snapshot answers.

use proptest::prelude::*;
use quadforest_connectivity::{Connectivity, TreeId};
use quadforest_core::quadrant::{AvxQuad, MortonQuad, Quadrant, StandardQuad};
use quadforest_forest::Forest;
use quadforest_query::{BoxQuery, ForestSnapshot, QueryExecutor, SnapshotHandle};
use std::sync::Arc;

fn mix(seed: u64, t: u32, pos: u64, level: u8) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for w in [t as u64, pos, level as u64] {
        h ^= w;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
    }
    h
}

/// An adaptively refined 4-tree (2x2 brick) forest for 2D reps, or a
/// single-tree one for 3D (no 3D brick needed to cover multi-tree: the
/// 2D reps exercise it).
fn forest_for<Q: Quadrant>(comm: &quadforest_comm::Comm, seed: u64) -> Forest<Q> {
    let conn = Arc::new(if Q::DIM == 2 {
        Connectivity::brick2d(2, 2, false, false)
    } else {
        Connectivity::unit(3)
    });
    let mut f = Forest::<Q>::new_uniform(conn, comm, 1);
    f.refine(comm, true, |t, q| {
        q.level() < 4 && !mix(seed, t, q.morton_abs(), q.level()).is_multiple_of(3)
    });
    f
}

fn snapshot_for<Q: Quadrant>(seed: u64) -> ForestSnapshot {
    quadforest_comm::run(1, move |comm| {
        ForestSnapshot::build(&forest_for::<Q>(&comm, seed), 0)
    })
    .pop()
    .unwrap()
}

/// Point batch over (and past) the domain: raw lattice points scaled to
/// the root length, some duplicated, some negative, some past the root,
/// some on invalid trees.
fn check_locate_many<Q: Quadrant>(seed: u64, raw: Vec<(u32, [i32; 3])>) {
    let snap = snapshot_for::<Q>(seed);
    let root = Q::len_at(0);
    let mut points: Vec<(TreeId, [i32; 3])> = raw
        .iter()
        .map(|&(t, p)| {
            let s = |v: i32| (v as i64 * root as i64 / 64) as i32;
            (t, [s(p[0]), s(p[1]), if Q::DIM == 3 { s(p[2]) } else { 0 }])
        })
        .collect();
    // duplicates: echo the first half
    let half: Vec<_> = points[..points.len() / 2].to_vec();
    points.extend(half);
    assert_eq!(
        snap.locate_many(&points),
        snap.locate_batch(&points),
        "seed {seed}"
    );
}

fn check_query_boxes<Q: Quadrant>(seed: u64, raw: Vec<(u32, [i32; 3], [i32; 3])>) {
    let snap = snapshot_for::<Q>(seed);
    let root = Q::len_at(0);
    let boxes: Vec<BoxQuery> = raw
        .iter()
        .map(|&(t, lo, hi)| {
            let s = |v: i32| (v as i64 * root as i64 / 16) as i32;
            let z = |v: i32| if Q::DIM == 3 { s(v) } else { 0 };
            BoxQuery {
                tree: t,
                lo: [s(lo[0]), s(lo[1]), z(lo[2])],
                hi: [s(hi[0]), s(hi[1]), z(hi[2])],
            }
        })
        .collect();
    let got = snap.query_boxes(&boxes);
    for (k, b) in boxes.iter().enumerate() {
        assert_eq!(
            got[k],
            snap.query_box(b.tree, b.lo, b.hi),
            "seed {seed} box {k}: {b:?}"
        );
    }
}

/// A two-tree forest whose tree 0 has its origin corner (a quarter of
/// each axis) refined to level 8 in 2D / 6 in 3D — 4,096 leaves there,
/// so the tree's bucket table has ≥ 2^8 buckets — beside level-1 and
/// level-2 leaves that span many buckets each; tree 1 stays at level 1.
/// Partitioned over the communicator, so at P > 1 a rank's tables have
/// buckets before its first local leaf and after its last, and one
/// rank holds no leaf of tree 1.
fn deep_corner_forest<Q: Quadrant>(comm: &quadforest_comm::Comm) -> Forest<Q> {
    let conn = Arc::new(if Q::DIM == 2 {
        Connectivity::brick2d(2, 1, false, false)
    } else {
        Connectivity::brick3d(2, 1, 1, [false; 3])
    });
    let (deep, corner) = (if Q::DIM == 2 { 8 } else { 6 }, Q::len_at(2));
    let mut f = Forest::<Q>::new_uniform(conn, comm, 1);
    f.refine(comm, true, |t, q| {
        let c = q.coords();
        t == 0 && q.level() < deep && (0..Q::DIM as usize).all(|a| c[a] < corner)
    });
    f.partition(comm);
    f
}

/// Probes on both trees and on two tree ids past the end: every
/// combination of `{-1, 0, 1, mid, root − 2, root − 1, root}` per axis,
/// then `n` hashed points, half of them in the deep corner.
fn edge_and_hashed_points<Q: Quadrant>(seed: u64, n: u64) -> Vec<(TreeId, [i32; 3])> {
    let root = Q::len_at(0);
    let edges = [-1, 0, 1, root / 2, root - 2, root - 1, root];
    let zs: &[i32] = if Q::DIM == 3 { &edges } else { &[0] };
    let mut points = Vec::new();
    for t in 0..4 {
        for &x in &edges {
            for &y in &edges {
                points.extend(zs.iter().map(|&z| (t, [x, y, z])));
            }
        }
    }
    points.extend((0..n).map(|i| {
        let h = mix(seed, 0, i, 0);
        let span = if i % 2 == 0 { root } else { Q::len_at(2) };
        let c = |s: u32| (h >> s) as i32 & (span - 1);
        let z = if Q::DIM == 3 { c(42) } else { 0 };
        ((h >> 60) as TreeId % 3, [c(0), c(21), z])
    }));
    points
}

/// [`deep_corner_forest`] at `ranks` ranks: on every rank `locate_many`
/// equals `locate_batch`, and every in-domain probe has exactly one
/// owner. Returns whether some rank has an empty tree.
fn check_window_edges<Q: Quadrant>(seed: u64, ranks: usize) -> bool {
    let points = edge_and_hashed_points::<Q>(seed, 2048);
    let per_rank = quadforest_comm::run(ranks, |comm| {
        let snap = ForestSnapshot::build(&deep_corner_forest::<Q>(&comm), 0);
        let got = snap.locate_many(&points);
        assert_eq!(
            got,
            snap.locate_batch(&points),
            "{} seed {seed} P={ranks}",
            Q::NAME
        );
        let empty = (0..2).any(|t| snap.tree_keys(t).0.is_empty());
        (got.iter().map(Option::is_some).collect::<Vec<_>>(), empty)
    });
    let root = Q::len_at(0);
    for (i, (t, p)) in points.iter().enumerate() {
        let inside = *t < 2 && (0..Q::DIM as usize).all(|a| (0..root).contains(&p[a]));
        let owners = per_rank.iter().filter(|(hit, _)| hit[i]).count();
        assert_eq!(
            owners,
            inside as usize,
            "{} P={ranks} tree {t} {p:?}",
            Q::NAME
        );
    }
    per_rank.iter().any(|(_, empty)| *empty)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// locate_many == locate_batch on every representation, with
    /// duplicates, out-of-domain coordinates (±), and bad tree ids.
    #[test]
    fn locate_many_matches_single_path(
        seed in any::<u64>(),
        flat in proptest::collection::vec(
            (0u32..6, -8i32..72, -8i32..72, -8i32..72), 1..200),
    ) {
        let raw: Vec<(u32, [i32; 3])> =
            flat.into_iter().map(|(t, x, y, z)| (t, [x, y, z])).collect();
        check_locate_many::<MortonQuad<2>>(seed, raw.clone());
        check_locate_many::<StandardQuad<2>>(seed, raw.clone());
        check_locate_many::<AvxQuad<2>>(seed, raw.clone());
        check_locate_many::<MortonQuad<3>>(seed, raw);
    }

    /// query_boxes == per-entry query_box on every representation,
    /// including empty, inverted, and bad-tree boxes.
    #[test]
    fn query_boxes_matches_single_path(
        seed in any::<u64>(),
        flat in proptest::collection::vec(
            ((0u32..6, -2i32..18, -2i32..18, -2i32..18), (-2i32..18, -2i32..18, -2i32..18)),
            1..24),
    ) {
        let raw: Vec<(u32, [i32; 3], [i32; 3])> = flat
            .into_iter()
            .map(|((t, a, b, c), (d, e, f))| (t, [a, b, c], [d, e, f]))
            .collect();
        check_query_boxes::<MortonQuad<2>>(seed, raw.clone());
        check_query_boxes::<StandardQuad<2>>(seed, raw.clone());
        check_query_boxes::<AvxQuad<2>>(seed, raw.clone());
        check_query_boxes::<MortonQuad<3>>(seed, raw);
    }

    /// The same property where the bucket windows have edges to get
    /// wrong: a deep corner beside coarse leaves, probes on the domain
    /// edges, every rank of a partitioned forest at P ∈ {1, 2, 3}, and
    /// at P > 1 a rank with an empty tree.
    #[test]
    fn locate_many_matches_single_path_at_window_edges(seed in any::<u64>()) {
        for ranks in 1..=3 {
            prop_assert_eq!(check_window_edges::<MortonQuad<2>>(seed, ranks), ranks > 1);
            prop_assert_eq!(check_window_edges::<StandardQuad<2>>(seed, ranks), ranks > 1);
            prop_assert_eq!(check_window_edges::<AvxQuad<2>>(seed, ranks), ranks > 1);
            prop_assert_eq!(check_window_edges::<MortonQuad<3>>(seed, ranks), ranks > 1);
        }
    }
}

/// The multi-tree oracle: a large batch of probes scattered across
/// every tree of the brick (and one invalid tree id), answered
/// identically to the reference path.
#[test]
fn multi_tree_batch_matches_reference() {
    let snap = snapshot_for::<MortonQuad<2>>(7);
    let root = MortonQuad::<2>::len_at(0);
    let points: Vec<(TreeId, [i32; 3])> = (0u64..4096)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (
                (h >> 40) as u32 % 5, // tree 4 is invalid: brick has 4
                [h as i32 & (root - 1), (h >> 20) as i32 & (root - 1), 0],
            )
        })
        .collect();
    assert_eq!(snap.locate_many(&points), snap.locate_batch(&points));
}

/// The snapshot answers what the forest it was built from answers:
/// [`ForestSnapshot::locate_many`] names the leaf
/// [`Forest::find_leaf_containing`] returns, for every representation.
#[test]
fn locate_many_matches_forest_point_location() {
    fn case<Q: Quadrant>() {
        quadforest_comm::run(1, |comm| {
            let f = forest_for::<Q>(&comm, 5);
            let snap = ForestSnapshot::build(&f, 0);
            let trees = f.connectivity().num_trees() as u64;
            let root = Q::len_at(0);
            let points: Vec<(TreeId, [i32; 3])> = (0u64..2048)
                .map(|i| {
                    let h = mix(9, 0, i, 0);
                    let z = if Q::DIM == 3 {
                        (h >> 40) as i32 & (root - 1)
                    } else {
                        0
                    };
                    (
                        (i % trees) as TreeId,
                        [h as i32 & (root - 1), (h >> 20) as i32 & (root - 1), z],
                    )
                })
                .collect();
            for ((t, p), hit) in points.iter().zip(snap.locate_many(&points)) {
                let leaf = f
                    .find_leaf_containing(*t, *p)
                    .expect("point is in the domain");
                let hit = hit.unwrap_or_else(|| panic!("{}: no hit for {p:?}", Q::NAME));
                assert_eq!(hit.tree, *t);
                assert_eq!(
                    f.tree_leaves(*t)[hit.index as usize],
                    *leaf,
                    "{}: tree {t} {p:?}",
                    Q::NAME
                );
                assert_eq!((hit.key, hit.level), (leaf.morton_abs(), leaf.level()));
            }
        });
    }
    case::<StandardQuad<2>>();
    case::<StandardQuad<3>>();
    case::<MortonQuad<2>>();
    case::<MortonQuad<3>>();
    case::<AvxQuad<2>>();
    case::<AvxQuad<3>>();
}

/// Hammer the executor: several submitter threads firing point and box
/// batches of jittered sizes at a multi-worker pool; every ticket must
/// deliver exactly the direct snapshot answers.
#[test]
fn executor_hammer_concurrent_submitters() {
    let snap = snapshot_for::<MortonQuad<2>>(11);
    let handle = SnapshotHandle::new(snap.clone());
    // capacity 2 keeps backpressure in play while 4 submitters race
    let exec = QueryExecutor::with_capacity(handle, 4, 2);
    let root = MortonQuad::<2>::len_at(0);
    let snap = Arc::new(snap);
    std::thread::scope(|scope| {
        for t in 0u64..4 {
            let exec = &exec;
            let snap = Arc::clone(&snap);
            scope.spawn(move || {
                for round in 0u64..12 {
                    let n = 1 + ((t * 977 + round * 613) % 700) as usize;
                    let points: Vec<(TreeId, [i32; 3])> = (0..n as u64)
                        .map(|i| {
                            let h = mix(t, round as u32, i, 0);
                            (
                                (h >> 33) as u32 % 5,
                                [h as i32 & (root - 1), (h >> 16) as i32 & (root - 1), 0],
                            )
                        })
                        .collect();
                    let ticket = exec.submit_points(points.clone());
                    let boxes: Vec<BoxQuery> = (0..1 + (round % 3))
                        .map(|i| {
                            let h = mix(round, t as u32, i, 1);
                            let lo = [h as i32 & (root - 1), (h >> 16) as i32 & (root - 1), 0];
                            BoxQuery {
                                tree: (h >> 34) as u32 % 4,
                                lo,
                                hi: [lo[0] + root / 4, lo[1] + root / 4, 0],
                            }
                        })
                        .collect();
                    let box_answers = exec.query_boxes(boxes.clone());
                    assert_eq!(ticket.wait(), snap.locate_batch(&points));
                    for (b, hits) in boxes.iter().zip(&box_answers) {
                        assert_eq!(*hits, snap.query_box(b.tree, b.lo, b.hi));
                    }
                }
            });
        }
    });
}
