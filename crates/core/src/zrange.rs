//! Z-order interval arithmetic: the Morton-range primitives behind the
//! spatial query engine.
//!
//! The payoff of the paper's raw-Morton representation is that a
//! quadrant *is* its sort key: a linearized forest is a sorted `u64`
//! array, so point location is one binary search and an axis-aligned box
//! query reduces to interval arithmetic over the Z curve. This module
//! holds the representation-independent kernels:
//!
//! * [`point_key`] / `cell_coords` — coordinate ⇄ curve-position
//!   conversion at the maximum refinement level, routed through the
//!   runtime-dispatched BMI2/magic-number codecs of [`crate::morton`];
//! * [`locate_by`] — the single point-location implementation shared by
//!   `Forest::find_leaf_containing` and the query snapshot: binary
//!   search over any indexable view of a sorted leaf flattening;
//! * [`box_cover`] — decompose an axis-aligned box into covering Z-order
//!   ranges by recursive descent over virtual quadrants (the
//!   `p4est_search` trick without materializing ancestors), with a
//!   range budget that degrades gracefully from an *exact* tiling to a
//!   slightly coarser superset cover for adversarially thin boxes;
//! * [`overlapping_from`] / [`leaf_intersects_box`] — map a key range
//!   back to the slice of leaves whose subtrees intersect it, and the
//!   exact geometric filter for cover ranges that are not tight.
//!
//! All functions work on `morton_abs` keys: the level-independent curve
//! position `I · 2^{d(L-ℓ)}` of Section 2.1 of the paper, so one `u64`
//! compare orders quadrants of different levels.

use crate::morton;

/// An inclusive range `[lo, hi]` of `morton_abs` keys at the maximum
/// refinement level.
pub type ZRange = (u64, u64);

/// Default budget for [`box_cover`]: enough that every practically
/// shaped box decomposes exactly, while adversarially thin boxes (whose
/// exact tiling is linear in their side length) fall back to a coarser
/// superset cover instead of exploding.
pub const DEFAULT_RANGE_BUDGET: usize = 256;

/// A box decomposed into Z-order ranges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoxCover {
    /// Sorted, disjoint, non-adjacent inclusive key ranges whose union
    /// contains every maximum-level cell inside the box.
    pub ranges: Vec<ZRange>,
    /// When `true`, the union is *exactly* the box: every key in every
    /// range lies inside the box. When `false` (range budget hit), the
    /// union is a superset and candidates must be filtered through
    /// [`leaf_intersects_box`].
    pub exact: bool,
}

impl BoxCover {
    /// An empty cover (empty box).
    pub fn empty() -> Self {
        BoxCover {
            ranges: Vec::new(),
            exact: true,
        }
    }
}

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

/// [`locate_by`] with a resumable cursor — the merge/gallop kernel
/// behind batched point location over *sorted* probe streams.
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
/// right when the batch is Morton-sorted.
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

/// The slice of leaves whose subtree key range intersects the inclusive
/// key range `[range.0, range.1]`, over the same indexable view as
/// [`locate_by`]. Because leaves are disjoint and sorted, the result is
/// contiguous. `from` is a resume lower bound on the result's start
/// (every leaf below `from` has a subtree end `< range.0`; `0` searches
/// everything). The start of a range's overlap slice is monotone in
/// `range.0`, so batched box serving over covers sorted by range start
/// passes the previous slice's start and skips re-searching the prefix
/// it already walked past.
#[inline]
pub fn overlapping_from(
    n: usize,
    key_at: impl Fn(usize) -> u64,
    level_at: impl Fn(usize) -> u8,
    dim: u32,
    max_level: u8,
    range: ZRange,
    from: usize,
) -> core::ops::Range<usize> {
    let (a, b) = range;
    // lo: first leaf whose subtree end reaches `a`
    let (mut lo, mut hi) = (from.min(n), n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let end = key_at(mid) + (subtree_cells(level_at(mid), dim, max_level) - 1);
        if end < a {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let start = lo;
    // hi: first leaf starting past `b`
    let (mut lo, mut hi) = (start, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if key_at(mid) <= b {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    start..lo
}

/// Exact geometric test: does the leaf `(key, level)` intersect the
/// half-open box `[lo, hi)`? Used to filter candidates produced by a
/// non-exact [`BoxCover`] and coarse leaves straddling range edges.
#[inline]
pub fn leaf_intersects_box(
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

/// Recursion state for [`box_cover`].
struct CoverBuilder {
    ranges: Vec<ZRange>,
    exact: bool,
    budget: usize,
    dim: u32,
    max_level: u8,
    lo: [i32; 3],
    hi: [i32; 3],
}

impl CoverBuilder {
    /// Append an inclusive range, merging with the previous one when
    /// adjacent or overlapping (children are visited in curve order, so
    /// ranges arrive sorted).
    fn push(&mut self, a: u64, b: u64) {
        if let Some(last) = self.ranges.last_mut() {
            debug_assert!(a > last.0);
            if a <= last.1.saturating_add(1) {
                last.1 = last.1.max(b);
                return;
            }
        }
        self.ranges.push((a, b));
    }

    /// Does the node `[c, c+side)` intersect the box?
    fn intersects(&self, c: [i32; 3], side: i32) -> bool {
        (0..self.dim as usize).all(|a| c[a] < self.hi[a] && c[a] + side > self.lo[a])
    }

    /// Is the node fully contained in the box?
    fn contained(&self, c: [i32; 3], side: i32) -> bool {
        (0..self.dim as usize).all(|a| c[a] >= self.lo[a] && c[a] + side <= self.hi[a])
    }

    fn descend(&mut self, c: [i32; 3], level: u8) {
        let side = 1i32 << (self.max_level - level) as u32;
        if !self.intersects(c, side) {
            return;
        }
        let base = point_key(c, self.dim);
        let cells = subtree_cells(level, self.dim, self.max_level);
        if self.contained(c, side) {
            self.push(base, base + (cells - 1));
            return;
        }
        // A partially overlapping node: either descend or — once the
        // budget is spent — emit the whole subtree as a (coarse) cover.
        // A max-level node that intersects is always contained, so the
        // recursion bottoms out above.
        debug_assert!(level < self.max_level);
        if self.ranges.len() >= self.budget {
            self.exact = false;
            self.push(base, base + (cells - 1));
            return;
        }
        let half = side >> 1;
        for child in 0..(1u32 << self.dim) {
            let cc = [
                c[0] + if child & 1 != 0 { half } else { 0 },
                c[1] + if child & 2 != 0 { half } else { 0 },
                c[2] + if child & 4 != 0 { half } else { 0 },
            ];
            self.descend(cc, level + 1);
        }
    }
}

/// Decompose the half-open axis-aligned box `[lo, hi)` (integer
/// coordinates at the maximum refinement level; `lo[2]`/`hi[2]` ignored
/// in 2D) into covering Z-order ranges by recursive descent from the
/// virtual root. The box is clamped to the unit tree `[0, 2^L)`.
///
/// With an unlimited budget the cover is the exact maximal tiling of
/// the box (every covered cell is inside the box). The number of exact
/// tiles is `O(perimeter)` in the worst case — a `1 × 2^k` strip at an
/// odd offset needs `2^k` unit tiles — so `budget` bounds the output:
/// once `budget` ranges exist, partially-overlapping subtrees are
/// emitted whole and [`BoxCover::exact`] turns `false`, telling the
/// caller to filter candidates through [`leaf_intersects_box`].
pub fn box_cover(lo: [i32; 3], hi: [i32; 3], dim: u32, max_level: u8, budget: usize) -> BoxCover {
    debug_assert!(dim == 2 || dim == 3);
    let root = 1i32 << max_level as u32;
    let mut clo = [0i32; 3];
    let mut chi = [0i32; 3];
    for a in 0..dim as usize {
        clo[a] = lo[a].max(0);
        chi[a] = hi[a].min(root);
        if clo[a] >= chi[a] {
            return BoxCover::empty();
        }
    }
    let mut b = CoverBuilder {
        ranges: Vec::new(),
        exact: true,
        budget: budget.max(1),
        dim,
        max_level,
        lo: clo,
        hi: chi,
    };
    b.descend([0, 0, 0], 0);
    BoxCover {
        ranges: b.ranges,
        exact: b.exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force key set of a clamped box at `max_level`.
    fn brute_cells(lo: [i32; 3], hi: [i32; 3], dim: u32, max_level: u8) -> Vec<u64> {
        let root = 1i32 << max_level as u32;
        let clamp = |a: usize| (lo[a].max(0), hi[a].min(root));
        let (x0, x1) = clamp(0);
        let (y0, y1) = clamp(1);
        let (z0, z1) = if dim == 3 { clamp(2) } else { (0, 1) };
        let mut keys = Vec::new();
        for z in z0..z1.max(z0) {
            for y in y0..y1.max(y0) {
                for x in x0..x1.max(x0) {
                    keys.push(point_key([x, y, z], dim));
                }
            }
        }
        keys.sort_unstable();
        keys
    }

    fn cover_cells(c: &BoxCover) -> Vec<u64> {
        let mut keys = Vec::new();
        for &(a, b) in &c.ranges {
            keys.extend(a..=b);
        }
        keys
    }

    #[test]
    fn exact_cover_matches_brute_force_2d() {
        let max_level = 5;
        let mut rng = 0x1234_5678_9abc_def0u64;
        for _ in 0..200 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = |s: u32| ((rng >> s) & 63) as i32 - 8;
            let (lo, hi) = ([r(3), r(13), 0], [r(23), r(33), 0]);
            let cover = box_cover(lo, hi, 2, max_level, usize::MAX);
            assert!(cover.exact);
            assert_eq!(
                cover_cells(&cover),
                brute_cells(lo, hi, 2, max_level),
                "box {lo:?}..{hi:?}"
            );
        }
    }

    #[test]
    fn exact_cover_matches_brute_force_3d() {
        let max_level = 4;
        let mut rng = 0xfeed_f00d_dead_beefu64;
        for _ in 0..100 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = |s: u32| ((rng >> s) & 31) as i32 - 4;
            let (lo, hi) = ([r(3), r(13), r(23)], [r(33), r(43), r(53)]);
            let cover = box_cover(lo, hi, 3, max_level, usize::MAX);
            assert!(cover.exact);
            assert_eq!(
                cover_cells(&cover),
                brute_cells(lo, hi, 3, max_level),
                "box {lo:?}..{hi:?}"
            );
        }
    }

    #[test]
    fn ranges_are_sorted_disjoint_nonadjacent() {
        let cover = box_cover([3, 5, 0], [29, 23, 0], 2, 6, usize::MAX);
        for w in cover.ranges.windows(2) {
            assert!(w[0].1 + 1 < w[1].0, "{:?} then {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn budgeted_cover_is_superset() {
        let max_level = 7;
        // a thin strip at odd offset: the exact tiling is one range per
        // row chunk, far more than the budget
        let (lo, hi) = ([1, 3, 0], [127, 5, 0]);
        let exact = box_cover(lo, hi, 2, max_level, usize::MAX);
        assert!(exact.exact);
        let coarse = box_cover(lo, hi, 2, max_level, 4);
        assert!(!coarse.exact);
        assert!(coarse.ranges.len() < exact.ranges.len());
        // superset: every exact cell appears in the coarse cover
        let coarse_cells: std::collections::HashSet<u64> =
            cover_cells(&coarse).into_iter().collect();
        for k in cover_cells(&exact) {
            assert!(coarse_cells.contains(&k));
        }
    }

    #[test]
    fn full_domain_is_one_range() {
        let cover = box_cover([0, 0, 0], [1 << 5, 1 << 5, 1 << 5], 3, 5, usize::MAX);
        assert_eq!(cover.ranges, vec![(0, (1u64 << 15) - 1)]);
        assert!(cover.exact);
    }

    #[test]
    fn empty_and_outside_boxes() {
        assert_eq!(box_cover([4, 4, 0], [4, 9, 0], 2, 5, 64), BoxCover::empty());
        assert_eq!(
            box_cover([-9, -9, 0], [-1, -1, 0], 2, 5, 64),
            BoxCover::empty()
        );
        let root = 1 << 5;
        assert_eq!(
            box_cover([root, 0, 0], [root + 4, 4, 0], 2, 5, 64),
            BoxCover::empty()
        );
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
    fn overlapping_from_matches_cold_search() {
        use crate::quadrant::{MortonQuad, Quadrant};
        type Q = MortonQuad<2>;
        let leaves: Vec<Q> = (0..Q::uniform_count(4))
            .map(|i| Q::from_morton(i, 4))
            .collect();
        let keys: Vec<u64> = leaves.iter().map(|q| q.morton_abs()).collect();
        let levels: Vec<u8> = leaves.iter().map(|q| q.level()).collect();
        let n = keys.len();
        let span = 1u64 << (2 * (Q::MAX_LEVEL - 4) as u32);
        // ranges sorted by start: each resume from the previous start
        let ranges = [(0u64, span), (span, 4 * span), (7 * span, 11 * span)];
        let mut from = 0usize;
        for r in ranges {
            let cold = overlapping_from(n, |i| keys[i], |i| levels[i], 2, Q::MAX_LEVEL, r, 0);
            let hot = overlapping_from(n, |i| keys[i], |i| levels[i], 2, Q::MAX_LEVEL, r, from);
            assert_eq!(hot, cold, "range {r:?}");
            from = hot.start;
        }
    }

    #[test]
    fn overlapping_from_matches_filter() {
        use crate::quadrant::{MortonQuad, Quadrant};
        type Q = MortonQuad<2>;
        let mut leaves: Vec<Q> = Vec::new();
        for i in 0..Q::uniform_count(3) {
            let q = Q::from_morton(i, 3);
            if i % 5 == 0 {
                leaves.extend(q.children());
            } else {
                leaves.push(q);
            }
        }
        let keys: Vec<u64> = leaves.iter().map(|q| q.morton_abs()).collect();
        let levels: Vec<u8> = leaves.iter().map(|q| q.level()).collect();
        let n = keys.len();
        let span = 1u64 << (2 * (Q::MAX_LEVEL - 3) as u32);
        for start in [0u64, span / 2, 3 * span, 17 * span] {
            let range = (start, start + 5 * span / 2);
            let got = overlapping_from(n, |i| keys[i], |i| levels[i], 2, Q::MAX_LEVEL, range, 0);
            for (i, (k, l)) in keys.iter().zip(&levels).enumerate() {
                let end = k + (subtree_cells(*l, 2, Q::MAX_LEVEL) - 1);
                let overlaps = *k <= range.1 && end >= range.0;
                assert_eq!(got.contains(&i), overlaps, "leaf {i} range {range:?}");
            }
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
