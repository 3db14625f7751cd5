//! Box answers on a 3D adaptive forest: `zrange::leaves_in_box` against
//! a brute-force leaf filter at P ∈ {1, 3} (at P = 3 the local key
//! array has gaps where other ranks' leaves sit), and one digest of 256
//! boxes of the `query_serve` shape pinned to the answers of the
//! range-cover path the skip-scan replaced.

use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{Morton3, Quadrant};
use quadforest_core::zrange;
use quadforest_forest::Forest;
use quadforest_query::{BoxQuery, ForestSnapshot};
use std::sync::Arc;

type Q = Morton3;

fn mix(a: u64, b: u64) -> u64 {
    let mut h = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for m in [0xFF51_AFD7_ED55_8CCDu64, 0xC4CE_B9FE_1A85_EC53] {
        h ^= h >> 33;
        h = h.wrapping_mul(m);
    }
    h ^ (h >> 33)
}

/// A fixed adaptive forest: levels 2..=6, each quadrant below level 6
/// refined with probability three quarters (84,372 leaves at P = 1).
fn forest(comm: &quadforest_comm::Comm) -> Forest<Q> {
    let conn = Arc::new(Connectivity::unit(3));
    let mut f = Forest::<Q>::new_uniform(conn, comm, 2);
    f.refine(comm, true, |_, q| {
        q.level() < 6 && mix(q.morton_abs(), q.level() as u64) % 4 != 0
    });
    f
}

/// `n` boxes of side `root / 16` at unaligned offsets, as `query_serve`
/// draws them.
fn workload_boxes(n: usize) -> Vec<BoxQuery> {
    let (root, side) = (Q::len_at(0), Q::len_at(0) / 16);
    let mut rng = 0x5EED_0B0Eu64;
    let mut coord = || {
        rng = mix(rng, 1);
        (rng % (root - side) as u64) as i32
    };
    (0..n)
        .map(|_| {
            let lo = [coord(), coord(), coord()];
            BoxQuery {
                tree: 0,
                lo,
                hi: lo.map(|c| c + side),
            }
        })
        .collect()
}

#[test]
fn leaves_in_box_is_the_brute_force_filter_at_p1_and_p3() {
    let root = Q::len_at(0);
    let mut boxes: Vec<([i32; 3], [i32; 3])> = workload_boxes(48)
        .into_iter()
        .map(|b| (b.lo, b.hi))
        .collect();
    for (i, b) in workload_boxes(8).into_iter().enumerate() {
        let c = b.lo[0];
        boxes.push((b.lo, b.lo.map(|x| x + 1))); // one cell
        let mut slab = ([0; 3], [root; 3]); // thin slab across axis i % 3
        (slab.0[i % 3], slab.1[i % 3]) = (c, c + 1 + i as i32 % 3);
        boxes.push(slab);
    }
    boxes.extend([
        ([5, 5, 5], [5, 90, 90]),                                 // empty
        ([90, 90, 90], [5, 5, 5]),                                // inverted
        ([-40, -40, -40], [-1, 9, 9]),                            // outside, below
        ([root, 0, 0], [root + 64, 64, 64]),                      // outside, above
        ([-9, root / 3, -1], [root / 5, root / 2, root + 1]),     // partly outside
        ([root - 7, -3, root / 2], [root + 9, 11, root / 2 + 2]), // partly outside
    ]);
    for p in [1, 3] {
        let boxes = boxes.clone();
        quadforest_comm::run(p, move |comm| {
            let f = forest(&comm);
            let leaves = f.tree_leaves(0);
            for &(lo, hi) in &boxes {
                let mut got = Vec::new();
                zrange::leaves_in_box(
                    leaves.len(),
                    |i| leaves[i].morton_abs(),
                    |i| leaves[i].level(),
                    3,
                    Q::MAX_LEVEL,
                    lo,
                    hi,
                    |i| got.push(i),
                );
                let want: Vec<usize> = (0..leaves.len())
                    .filter(|&i| {
                        let (c, s) = (leaves[i].coords(), leaves[i].side());
                        (0..3).all(|a| lo[a] < hi[a] && c[a] < hi[a] && c[a] + s > lo[a])
                    })
                    .collect();
                assert_eq!(got, want, "P {p} box {lo:?}..{hi:?}");
            }
        });
    }
}

#[test]
fn workload_box_answers_are_pinned() {
    let snap = quadforest_comm::run(1, |comm| ForestSnapshot::build(&forest(&comm), 0))
        .pop()
        .expect("one rank");
    let boxes = workload_boxes(256);
    let answers = snap.query_boxes(&boxes);
    for (b, got) in boxes.iter().zip(&answers) {
        assert_eq!(*got, snap.query_box(b.tree, b.lo, b.hi));
    }
    let hits: usize = answers.iter().map(Vec::len).sum();
    let key_sum = answers
        .iter()
        .flatten()
        .fold(0u64, |a, h| a.wrapping_add(h.key ^ h.level as u64));
    // captured from the range-cover path: the same forest, boxes and sum
    assert_eq!(
        (snap.local_count(), hits, key_sum),
        (84_372, 11_846, 6_013_715_832_360_734_013)
    );
}
