//! Z-order interval arithmetic: the Morton-range primitives behind the
//! spatial query engine.
//!
//! The payoff of the paper's raw-Morton representation is that a
//! quadrant *is* its sort key: a linearized forest is a sorted `u64`
//! array, so point location is one binary search and an axis-aligned box
//! query is one walk over that array that jumps what the box misses.
//! This module holds the representation-independent kernels:
//!
//! * [`point_key`] / `cell_coords` — coordinate ⇄ curve-position
//!   conversion at the maximum refinement level, routed through the
//!   runtime-dispatched BMI2/magic-number codecs of [`crate::morton`];
//! * [`locate_by`] — the single point-location implementation shared by
//!   `Forest::find_leaf_containing` and the query snapshot: binary
//!   search over any indexable view of a sorted leaf flattening;
//! * [`leaves_in_box`] — every leaf intersecting an axis-aligned box,
//!   by a skip-scan of the same view: visit a leaf, jump to the next
//!   in-box key past it (`next_in_box`, the BIGMIN of Tropf & Herzog),
//!   gallop to the leaf reaching that key, repeat. It visits the leaves
//!   it reports plus, where the view has gaps, the leaf after each gap,
//!   and builds nothing.
//!
//! All functions work on `morton_abs` keys: the level-independent curve
//! position `I · 2^{d(L-ℓ)}` of Section 2.1 of the paper, so one `u64`
//! compare orders quadrants of different levels.

use crate::morton;

/// The `morton_abs` key of the maximum-level cell at integer point `p`
/// (runtime-dispatched interleave: `pdep` on BMI2 hardware). `p[2]` is
/// ignored in 2D. Coordinates must lie in `[0, 2^L)`.
#[inline]
pub fn point_key(p: [i32; 3], dim: u32) -> u64 {
    debug_assert!(dim == 2 || dim == 3);
    if dim == 2 {
        morton::encode2_rt(p[0] as u32, p[1] as u32)
    } else {
        morton::encode3_rt(p[0] as u32, p[1] as u32, p[2] as u32)
    }
}

/// Inverse of [`point_key`]: the integer coordinates of a maximum-level
/// cell key (`z = 0` in 2D).
#[inline]
pub(crate) fn cell_coords(key: u64, dim: u32) -> [i32; 3] {
    debug_assert!(dim == 2 || dim == 3);
    if dim == 2 {
        let (x, y) = morton::decode2_rt(key);
        [x as i32, y as i32, 0]
    } else {
        let (x, y, z) = morton::decode3_rt(key);
        [x as i32, y as i32, z as i32]
    }
}

/// Number of maximum-level cells inside one quadrant at `level`.
#[inline]
fn subtree_cells(level: u8, dim: u32, max_level: u8) -> u64 {
    1u64 << (dim * (max_level - level) as u32)
}

/// The single point-location implementation: binary search over an
/// indexable view of a *sorted, disjoint* leaf flattening (`key_at(i)` =
/// `morton_abs`, `level_at(i)` = refinement level, both for `i < n`).
/// Returns the index of the leaf whose half-open domain contains the
/// maximum-level cell `probe`, if present in the view.
///
/// Both `Forest::find_leaf_containing` (borrowing leaves in place) and
/// `ForestSnapshot::locate` (borrowing flat key arrays) delegate here,
/// so there is exactly one lookup algorithm in the workspace.
#[inline]
pub fn locate_by(
    n: usize,
    key_at: impl Fn(usize) -> u64,
    level_at: impl Fn(usize) -> u8,
    dim: u32,
    max_level: u8,
    probe: u64,
) -> Option<usize> {
    // partition point: first index whose key exceeds the probe
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if key_at(mid) <= probe {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let i = lo.checked_sub(1)?;
    // the candidate contains the probe cell iff they share the
    // level-prefix of the candidate
    let shift = dim * (max_level - level_at(i)) as u32;
    (key_at(i) >> shift == probe >> shift).then_some(i)
}

/// [`locate_by`] with a resumable cursor — the gallop behind the seek
/// of [`leaves_in_box`], resumed from the last leaf after every jump.
///
/// `hint` must be a lower bound on the probe's partition point (the
/// first index whose key exceeds `probe`): every index below `hint`
/// holds a key `<= probe`. Returns the located leaf (as [`locate_by`])
/// *and* the probe's partition point, which is a valid `hint` for any
/// subsequent probe `>= probe` — leaves are disjoint and sorted, so
/// partition points are monotone in the probe. Instead of an
/// `O(log n)` binary search from scratch per probe, the cursor gallops
/// (doubling steps) from the previous hit and binary-searches only the
/// bracketed window: `O(log gap)` per probe, and cache-coherent left to
/// right as the probes ascend.
#[inline]
pub fn locate_from(
    n: usize,
    key_at: impl Fn(usize) -> u64,
    level_at: impl Fn(usize) -> u8,
    dim: u32,
    max_level: u8,
    probe: u64,
    hint: usize,
) -> (Option<usize>, usize) {
    let mut lo = hint.min(n);
    debug_assert!(lo == 0 || key_at(lo - 1) <= probe, "hint overshoots probe");
    if lo < n && key_at(lo) <= probe {
        // gallop right to bracket the partition point ...
        let mut last = lo;
        let mut step = 1usize;
        let mut hi = loop {
            let next = last + step;
            if next >= n {
                break n;
            }
            if key_at(next) <= probe {
                last = next;
                step <<= 1;
            } else {
                break next;
            }
        };
        // ... then binary search inside the bracket
        lo = last + 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if key_at(mid) <= probe {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
    }
    // else: every key below `lo` is <= probe (hint contract) and
    // key_at(lo) > probe, so `lo` already is the partition point.
    let found = lo.checked_sub(1).and_then(|i| {
        let shift = dim * (max_level - level_at(i)) as u32;
        (key_at(i) >> shift == probe >> shift).then_some(i)
    });
    (found, lo)
}

/// [`locate_by`] over flat arrays (the snapshot layout).
#[inline]
pub fn locate_in_keys(
    keys: &[u64],
    levels: &[u8],
    dim: u32,
    max_level: u8,
    probe: u64,
) -> Option<usize> {
    debug_assert_eq!(keys.len(), levels.len());
    locate_by(
        keys.len(),
        |i| keys[i],
        |i| levels[i],
        dim,
        max_level,
        probe,
    )
}

/// The interleaved bits of axis `a` in a key: bit `a + k·dim` for
/// every `k` (bits past the key width are zero in every key).
#[inline]
fn axis_mask(a: u32, dim: u32) -> u64 {
    let every = if dim == 2 {
        0x5555_5555_5555_5555u64
    } else {
        0x9249_2492_4924_9249u64
    };
    every << a
}

/// The smallest key `>= z` whose cell lies in the box spanned by the
/// cells `zmin` (lower corner) and `zmax` (upper corner), or `None`
/// past the box.
///
/// `z` itself when every axis passes the masked compare
/// `zmin & m <= z & m <= zmax & m` (interleaving keeps each axis' bits
/// in order). Otherwise BIGMIN (Tropf & Herzog 1981): one pass from the
/// most significant differing bit down, narrowing `[min, max]` to the
/// half-box on `z`'s side of each split. `load_1000` raises `min` to
/// the upper half of the split axis, `load_0111` lowers `max` to its
/// lower half; `bigmin` remembers the upper half's first key whenever
/// `z` takes the lower one.
pub fn next_in_box(z: u64, zmin: u64, zmax: u64, dim: u32) -> Option<u64> {
    if (0..dim).all(|a| {
        let m = axis_mask(a, dim);
        (zmin & m) <= (z & m) && (z & m) <= (zmax & m)
    }) {
        return Some(z);
    }
    let (mut min, mut max, mut bigmin) = (zmin, zmax, None);
    let top = (z ^ min) | (z ^ max);
    for p in (0..64 - top.leading_zeros()).rev() {
        let bit = 1u64 << p;
        // this axis' bits below `p`
        let below = axis_mask(p % dim, dim) & (bit - 1);
        let load_1000 = |v: u64| (v | bit) & !below;
        let load_0111 = |v: u64| (v & !bit) | below;
        match (z & bit != 0, min & bit != 0, max & bit != 0) {
            (false, false, true) => {
                bigmin = Some(load_1000(min));
                max = load_0111(max);
            }
            (false, true, true) => return Some(min),
            (true, false, false) => return bigmin,
            (true, false, true) => min = load_1000(min),
            // equal bits: same half of the split on every side;
            // min > max cannot occur on a well-formed box
            _ => {}
        }
    }
    // unreachable for a `z` outside the box: some bit sends it out
    bigmin
}

/// Every leaf of a sorted, disjoint leaf view (`key_at`/`level_at` as
/// in [`locate_by`]) that intersects the half-open box `[lo, hi)`
/// (integer coordinates at the maximum refinement level; `lo[2]`/`hi[2]`
/// ignored in 2D), passed to `emit` by ascending index — that is, in
/// curve order.
///
/// A Z-order skip-scan: the box is clamped to the unit tree and spans
/// the keys `zmin..=zmax` of its corner cells. The scan seeks the first
/// leaf reaching `zmin`; from each visited leaf it jumps to the next
/// in-box key past the leaf's subtree (`next_in_box`) and gallops to
/// the leaf reaching that key ([`locate_from`]). Every visited leaf
/// either holds an in-box cell or starts after a gap in the view
/// (leaves owned elsewhere), so the exact geometric test decides it.
/// The cost is the visited leaves plus one gallop per jump, whatever
/// the box's shape.
#[allow(clippy::too_many_arguments)]
pub fn leaves_in_box(
    n: usize,
    key_at: impl Fn(usize) -> u64,
    level_at: impl Fn(usize) -> u8,
    dim: u32,
    max_level: u8,
    lo: [i32; 3],
    hi: [i32; 3],
    mut emit: impl FnMut(usize),
) {
    debug_assert!(dim == 2 || dim == 3);
    let root = 1i32 << max_level as u32;
    let (mut clo, mut chi) = ([0i32; 3], [1i32; 3]);
    for a in 0..dim as usize {
        clo[a] = lo[a].max(0);
        chi[a] = hi[a].min(root);
        if clo[a] >= chi[a] {
            return;
        }
    }
    let (zmin, zmax) = (point_key(clo, dim), point_key(chi.map(|c| c - 1), dim));
    // the first leaf at or after `from` whose subtree reaches key `z`:
    // the leaf holding `z`, else the first leaf past it
    let seek = |z: u64, from: usize| {
        let (holder, past) = locate_from(n, &key_at, &level_at, dim, max_level, z, from);
        holder.unwrap_or(past)
    };
    let mut i = seek(zmin, 0);
    while i < n && key_at(i) <= zmax {
        let (key, level) = (key_at(i), level_at(i));
        if leaf_intersects_box(key, level, clo, chi, dim, max_level) {
            emit(i);
        }
        let end = key + (subtree_cells(level, dim, max_level) - 1);
        if end >= zmax {
            return;
        }
        match next_in_box(end + 1, zmin, zmax, dim) {
            Some(z) => i = seek(z, i + 1),
            None => return,
        }
    }
}

/// Exact geometric test: does the leaf `(key, level)` intersect the
/// half-open box `[lo, hi)`?
#[inline]
pub(crate) fn leaf_intersects_box(
    key: u64,
    level: u8,
    lo: [i32; 3],
    hi: [i32; 3],
    dim: u32,
    max_level: u8,
) -> bool {
    let c = cell_coords(key, dim);
    let side = 1i32 << (max_level - level) as u32;
    for a in 0..dim as usize {
        if c[a] >= hi[a] || c[a] + side <= lo[a] {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest key `>= z` whose decoded cell lies in `[lo, hi)`,
    /// for every `z` in `0..=2^{dim·L}`, by one backward sweep.
    fn scanned_next(lo: [i32; 3], hi: [i32; 3], dim: u32, max_level: u8) -> Vec<Option<u64>> {
        let cells = 1u64 << (dim * max_level as u32);
        let mut next = vec![None; cells as usize + 1];
        for z in (0..cells).rev() {
            let c = cell_coords(z, dim);
            let inside = (0..dim as usize).all(|a| lo[a] <= c[a] && c[a] < hi[a]);
            next[z as usize] = if inside {
                Some(z)
            } else {
                next[z as usize + 1]
            };
        }
        next
    }

    /// Every box of the tree at `max_level` (all `lo < hi` per axis),
    /// every key, and the key one past the tree.
    fn check_next_in_box_exhaustively(dim: u32, max_level: u8) {
        let root = 1i32 << max_level as u32;
        let spans: Vec<(i32, i32)> = (0..root)
            .flat_map(|a| (a + 1..=root).map(move |b| (a, b)))
            .collect();
        let z_spans = if dim == 3 {
            spans.clone()
        } else {
            vec![(0, 1)]
        };
        for &(x0, x1) in &spans {
            for &(y0, y1) in &spans {
                for &(z0, z1) in &z_spans {
                    let (lo, hi) = ([x0, y0, z0], [x1, y1, z1]);
                    let (zmin, zmax) = (point_key(lo, dim), point_key(hi.map(|c| c - 1), dim));
                    for (z, want) in scanned_next(lo, hi, dim, max_level).into_iter().enumerate() {
                        assert_eq!(
                            next_in_box(z as u64, zmin, zmax, dim),
                            want,
                            "z {z} box {lo:?}..{hi:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn next_in_box_is_the_scanned_next_key_2d() {
        check_next_in_box_exhaustively(2, 3);
    }

    #[test]
    fn next_in_box_is_the_scanned_next_key_3d() {
        check_next_in_box_exhaustively(3, 2);
    }

    #[test]
    fn full_domain_is_one_range() {
        // every key of the tree is in the box: the scan never jumps
        let zmax = (1u64 << 15) - 1;
        for z in 0..=zmax {
            assert_eq!(next_in_box(z, 0, zmax, 3), Some(z));
        }
        assert_eq!(next_in_box(zmax + 1, 0, zmax, 3), None);
    }

    /// A 2D adaptive leaf set with every seventh leaf dropped, so the
    /// view has gaps as a rank's local leaves do.
    fn gappy_leaves() -> Vec<crate::quadrant::MortonQuad<2>> {
        use crate::quadrant::{MortonQuad, Quadrant};
        let mut leaves = Vec::new();
        for i in 0..MortonQuad::<2>::uniform_count(3) {
            let q = MortonQuad::<2>::from_morton(i, 3);
            if i % 3 == 0 {
                leaves.extend(q.children());
            } else {
                leaves.push(q);
            }
        }
        leaves
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % 7 != 3)
            .map(|(_, q)| q)
            .collect()
    }

    /// [`leaves_in_box`] over `leaves`, and the same box by filtering.
    fn scan_and_filter(
        leaves: &[crate::quadrant::MortonQuad<2>],
        lo: [i32; 3],
        hi: [i32; 3],
    ) -> (Vec<usize>, Vec<usize>) {
        use crate::quadrant::Quadrant;
        let l = crate::quadrant::MortonQuad::<2>::MAX_LEVEL;
        let mut got = Vec::new();
        let (key_at, level_at) = (
            |i: usize| leaves[i].morton_abs(),
            |i: usize| leaves[i].level(),
        );
        leaves_in_box(leaves.len(), key_at, level_at, 2, l, lo, hi, |i| {
            got.push(i)
        });
        let want = (0..leaves.len())
            .filter(|_| (0..2).all(|a| lo[a] < hi[a]))
            .filter(|&i| leaf_intersects_box(key_at(i), level_at(i), lo, hi, 2, l))
            .collect();
        (got, want)
    }

    #[test]
    fn leaves_in_box_matches_filter() {
        use crate::quadrant::{MortonQuad, Quadrant};
        let leaves = gappy_leaves();
        let root = MortonQuad::<2>::len_at(0);
        let mut rng = 0x1234_5678_9abc_def0u64;
        for _ in 0..300 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = |s: u32| ((rng >> s) % (root as u64 + 1)) as i32;
            let (lo, hi) = ([r(3), r(13), 0], [r(23), r(33), 0]);
            let (got, want) = scan_and_filter(&leaves, lo, hi);
            assert_eq!(got, want, "box {lo:?}..{hi:?}");
        }
    }

    #[test]
    fn empty_and_outside_boxes() {
        use crate::quadrant::{MortonQuad, Quadrant};
        let leaves = gappy_leaves();
        let root = MortonQuad::<2>::len_at(0);
        for (lo, hi) in [
            ([4, 4, 0], [4, 9, 0]),           // empty
            ([9, 9, 0], [4, 4, 0]),           // inverted
            ([-9, -9, 0], [-1, -1, 0]),       // before the tree
            ([root, 0, 0], [root + 4, 4, 0]), // past the tree
        ] {
            assert_eq!(scan_and_filter(&leaves, lo, hi).0, Vec::<usize>::new());
        }
        // partly outside: the clamped box's leaves
        for (lo, hi) in [
            ([-9, -9, 0], [root / 3, root / 5, 0]),
            ([root / 2, -4, 0], [root + 9, root / 2 + 1, 0]),
        ] {
            let (got, want) = scan_and_filter(&leaves, lo, hi);
            assert!(!got.is_empty());
            assert_eq!(got, want, "box {lo:?}..{hi:?}");
        }
    }

    #[test]
    fn locate_by_agrees_with_scan() {
        use crate::quadrant::{MortonQuad, Quadrant};
        type Q = MortonQuad<2>;
        // an adaptively refined, linearized leaf set: refine every
        // quadrant of the level-2 mesh whose index is divisible by 3
        let mut leaves: Vec<Q> = Vec::new();
        for i in 0..Q::uniform_count(2) {
            let q = Q::from_morton(i, 2);
            if i % 3 == 0 {
                leaves.extend(q.children());
            } else {
                leaves.push(q);
            }
        }
        let keys: Vec<u64> = leaves.iter().map(|q| q.morton_abs()).collect();
        let levels: Vec<u8> = leaves.iter().map(|q| q.level()).collect();
        let root = Q::len_at(0);
        let step = (root / 37).max(1);
        let mut x = 0;
        while x < root {
            let mut y = 0;
            while y < root {
                let probe = point_key([x, y, 0], 2);
                let got = locate_in_keys(&keys, &levels, 2, Q::MAX_LEVEL, probe);
                let want = leaves.iter().position(|q| q.contains_point([x, y, 0]));
                assert_eq!(got, want, "point ({x},{y})");
                y += step;
            }
            x += step;
        }
        // a probe beyond every leaf still resolves (last leaf covers it
        // or not, by prefix); a probe before the first leaf is None
        assert_eq!(
            locate_in_keys(&keys[1..], &levels[1..], 2, Q::MAX_LEVEL, 0),
            None
        );
    }

    #[test]
    fn locate_from_agrees_with_locate_by_on_sorted_probes() {
        use crate::quadrant::{MortonQuad, Quadrant};
        type Q = MortonQuad<2>;
        let mut leaves: Vec<Q> = Vec::new();
        for i in 0..Q::uniform_count(3) {
            let q = Q::from_morton(i, 3);
            if i % 4 == 0 {
                for c in q.children() {
                    if c.morton_index() % 3 == 0 {
                        leaves.extend(c.children());
                    } else {
                        leaves.push(c);
                    }
                }
            } else {
                leaves.push(q);
            }
        }
        let keys: Vec<u64> = leaves.iter().map(|q| q.morton_abs()).collect();
        let levels: Vec<u8> = leaves.iter().map(|q| q.level()).collect();
        let n = keys.len();
        // a sorted probe stream with duplicates and gaps, walked with the
        // carried cursor, must agree probe-for-probe with cold searches
        let top = 1u64 << (2 * Q::MAX_LEVEL as u32);
        let mut probes: Vec<u64> = (0..500u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 12) % top)
            .collect();
        probes.push(0);
        probes.push(top - 1);
        probes.sort_unstable();
        let mut hint = 0usize;
        for &p in &probes {
            let cold = locate_by(n, |i| keys[i], |i| levels[i], 2, Q::MAX_LEVEL, p);
            let (hot, next) = locate_from(n, |i| keys[i], |i| levels[i], 2, Q::MAX_LEVEL, p, hint);
            assert_eq!(hot, cold, "probe {p:#x} hint {hint}");
            hint = next;
        }
    }

    #[test]
    fn leaf_intersects_box_agrees_with_coords() {
        use crate::quadrant::{MortonQuad, Quadrant};
        type Q = MortonQuad<2>;
        let q = Q::from_morton(9, 3);
        let key = q.morton_abs();
        let c = q.coords();
        let h = q.side();
        assert!(leaf_intersects_box(
            key,
            3,
            [c[0], c[1], 0],
            [c[0] + 1, c[1] + 1, 0],
            2,
            Q::MAX_LEVEL
        ));
        assert!(!leaf_intersects_box(
            key,
            3,
            [c[0] + h, c[1], 0],
            [c[0] + h + 4, c[1] + 4, 0],
            2,
            Q::MAX_LEVEL
        ));
    }
}
