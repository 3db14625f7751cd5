//! Auto-vectorization reference kernels (the compiler baseline of the
//! paper's contribution 5).
//!
//! The paper compares its manually vectorized intrinsic algorithms
//! against what the optimizing compiler produces on its own from plain
//! scalar code at `-O3`. This module is that baseline: the same
//! per-quadrant operations written as straight-line loops over a
//! structure-of-arrays container — the friendliest possible shape for the
//! auto-vectorizer — with no intrinsics anywhere. The manually vectorized
//! counterparts live in [`crate::batch`] (256-bit SoA) and
//! [`crate::quadrant::AvxQuad`] (128-bit AoS).

use crate::quadrant::Quadrant;

/// Structure-of-arrays quadrant storage: one contiguous lane per
/// component. Used by both the auto-vectorized kernels here and the
/// manually vectorized kernels in [`crate::batch`], so the two compile
/// from identical memory layouts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuadSoA {
    /// x coordinates.
    pub x: Vec<i32>,
    /// y coordinates.
    pub y: Vec<i32>,
    /// z coordinates (all zero in 2D).
    pub z: Vec<i32>,
    /// refinement levels, widened to `i32` for uniform lane width.
    pub level: Vec<i32>,
}

impl QuadSoA {
    /// Gather a quadrant slice into SoA form.
    pub fn from_quads<Q: Quadrant>(quads: &[Q]) -> Self {
        let n = quads.len();
        let mut soa = Self::with_len(n);
        for (i, q) in quads.iter().enumerate() {
            let [x, y, z] = q.coords();
            soa.x[i] = x;
            soa.y[i] = y;
            soa.z[i] = z;
            soa.level[i] = q.level() as i32;
        }
        soa
    }

    /// Zero-filled SoA of length `n`.
    pub fn with_len(n: usize) -> Self {
        Self {
            x: vec![0; n],
            y: vec![0; n],
            z: vec![0; n],
            level: vec![0; n],
        }
    }

    /// Number of quadrants.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Scatter back into a quadrant vector.
    pub fn to_quads<Q: Quadrant>(&self) -> Vec<Q> {
        (0..self.len())
            .map(|i| Q::from_coords([self.x[i], self.y[i], self.z[i]], self.level[i] as u8))
            .collect()
    }

    /// Drop all quadrants, keeping the lane allocations for reuse.
    pub fn clear(&mut self) {
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.level.clear();
    }

    /// Reserve capacity for `additional` more quadrants in every lane.
    pub fn reserve(&mut self, additional: usize) {
        self.x.reserve(additional);
        self.y.reserve(additional);
        self.z.reserve(additional);
        self.level.reserve(additional);
    }

    /// Resize every lane to `n`, zero-filling new entries.
    pub fn resize(&mut self, n: usize) {
        self.x.resize(n, 0);
        self.y.resize(n, 0);
        self.z.resize(n, 0);
        self.level.resize(n, 0);
    }

    /// Append one quadrant given as raw lanes.
    #[inline]
    pub fn push(&mut self, coords: [i32; 3], level: i32) {
        self.x.push(coords[0]);
        self.y.push(coords[1]);
        self.z.push(coords[2]);
        self.level.push(level);
    }
}

/// The shared out-slice contract of `tree_boundaries_all`: each of the
/// three classification slices must hold at least one lane per quadrant.
/// Asserted identically by the scalar and the AVX2 path.
#[inline]
pub(crate) fn assert_boundary_lanes(n: usize, fx: &[i32], fy: &[i32], fz: &[i32]) {
    assert!(
        fx.len() >= n && fy.len() >= n && fz.len() >= n,
        "tree_boundaries_all: out slices must hold >= {n} lanes (got {}, {}, {})",
        fx.len(),
        fy.len(),
        fz.len()
    );
}

/// `child` over a whole SoA array: every quadrant gets its `c`-th child
/// (Algorithm 2 element-wise; per-element shift via the level lane).
pub fn child_all(soa: &QuadSoA, c: u32, max_level: u8, out: &mut QuadSoA) {
    let n = soa.len();
    assert!(out.len() >= n);
    let ml = max_level as i32;
    let (cx, cy, cz) = ((c & 1) as i32, ((c >> 1) & 1) as i32, ((c >> 2) & 1) as i32);
    for i in 0..n {
        let shift = 1i32 << (ml - (soa.level[i] + 1));
        out.x[i] = soa.x[i] | (cx * shift);
        out.y[i] = soa.y[i] | (cy * shift);
        out.z[i] = soa.z[i] | (cz * shift);
        out.level[i] = soa.level[i] + 1;
    }
}

/// `parent` over a whole SoA array (Algorithm's mask element-wise).
pub fn parent_all(soa: &QuadSoA, max_level: u8, out: &mut QuadSoA) {
    let n = soa.len();
    assert!(out.len() >= n);
    let ml = max_level as i32;
    for i in 0..n {
        let clear = !(1i32 << (ml - soa.level[i]));
        out.x[i] = soa.x[i] & clear;
        out.y[i] = soa.y[i] & clear;
        out.z[i] = soa.z[i] & clear;
        out.level[i] = soa.level[i] - 1;
    }
}

/// `sibling` over a whole SoA array (Algorithm 3 element-wise).
pub fn sibling_all(soa: &QuadSoA, s: u32, max_level: u8, out: &mut QuadSoA) {
    let n = soa.len();
    assert!(out.len() >= n);
    let ml = max_level as i32;
    let (sx, sy, sz) = ((s & 1) as i32, ((s >> 1) & 1) as i32, ((s >> 2) & 1) as i32);
    for i in 0..n {
        let h = 1i32 << (ml - soa.level[i]);
        out.x[i] = (soa.x[i] & !h) | (sx * h);
        out.y[i] = (soa.y[i] & !h) | (sy * h);
        out.z[i] = (soa.z[i] & !h) | (sz * h);
        out.level[i] = soa.level[i];
    }
}

/// `face_neighbor` over a whole SoA array for a fixed face `f`.
pub fn face_neighbor_all(soa: &QuadSoA, f: u32, max_level: u8, out: &mut QuadSoA) {
    let n = soa.len();
    assert!(out.len() >= n);
    let ml = max_level as i32;
    let sign = if f & 1 == 1 { 1 } else { -1 };
    let axis = f / 2;
    out.level.copy_from_slice(&soa.level);
    out.x.copy_from_slice(&soa.x);
    out.y.copy_from_slice(&soa.y);
    out.z.copy_from_slice(&soa.z);
    let lane = match axis {
        0 => &mut out.x,
        1 => &mut out.y,
        _ => &mut out.z,
    };
    for (l, &lv) in lane.iter_mut().zip(&soa.level).take(n) {
        let h = 1i32 << (ml - lv);
        *l += sign * h;
    }
}

/// Same-size neighbor anchor over a whole SoA array for a fixed unit
/// offset `{-1,0,1}^3`: `out = coords + offset * h` per axis, level
/// unchanged. Generalizes [`face_neighbor_all`] to the edge and corner
/// directions the high-level balance/ghost enumerations walk.
pub fn offset_neighbor_all(soa: &QuadSoA, offset: [i32; 3], max_level: u8, out: &mut QuadSoA) {
    let n = soa.len();
    assert!(out.len() >= n);
    let ml = max_level as i32;
    out.level.copy_from_slice(&soa.level);
    for (a, (src, dst)) in [
        (&soa.x, &mut out.x),
        (&soa.y, &mut out.y),
        (&soa.z, &mut out.z),
    ]
    .into_iter()
    .enumerate()
    {
        let d = offset[a];
        if d == 0 {
            dst.copy_from_slice(src);
        } else {
            for i in 0..n {
                dst[i] = src[i] + d * (1i32 << (ml - soa.level[i]));
            }
        }
    }
}

/// Pack each quadrant's space-filling-curve sort key — the Morton index
/// relative to the maximum level in the high bits, the refinement level
/// in the low 6 bits — into one `u64` per quadrant. Key order equals
/// `Quadrant::compare_sfc` order for the Morton-curve representations
/// (the coordinate interleave of unshifted anchors *is* the absolute
/// index), which is what turns comparator-based SFC sorts into
/// `sort_unstable_by_key` over plain integers.
pub fn sfc_keys_all(soa: &QuadSoA, dim: u32, out: &mut [u64]) {
    let n = soa.len();
    assert!(out.len() >= n, "sfc_keys_all: out must hold >= {n} keys");
    if dim == 2 {
        for (i, key) in out.iter_mut().enumerate().take(n) {
            let abs = crate::morton::encode2(soa.x[i] as u32, soa.y[i] as u32);
            *key = (abs << 6) | soa.level[i] as u64;
        }
    } else {
        for (i, key) in out.iter_mut().enumerate().take(n) {
            let abs = crate::morton::encode3(soa.x[i] as u32, soa.y[i] as u32, soa.z[i] as u32);
            *key = (abs << 6) | soa.level[i] as u64;
        }
    }
}

/// Maximum-level Morton probe keys for a batch of integer points — the
/// query-side twin of [`sfc_keys_all`]: no level pack, just the raw
/// coordinate interleave `morton_abs` per point. Coordinates must be
/// non-negative and below `2^L` (the caller validates and routes
/// out-of-domain points around the kernel).
pub(crate) fn point_keys_all(xs: &[i32], ys: &[i32], zs: &[i32], dim: u32, out: &mut [u64]) {
    let n = xs.len();
    assert!(
        ys.len() >= n && zs.len() >= n && out.len() >= n,
        "point_keys_all: lanes must hold >= {n} entries"
    );
    if dim == 2 {
        for i in 0..n {
            out[i] = crate::morton::encode2(xs[i] as u32, ys[i] as u32);
        }
    } else {
        for i in 0..n {
            out[i] = crate::morton::encode3(xs[i] as u32, ys[i] as u32, zs[i] as u32);
        }
    }
}

/// `tree_boundaries` over a whole SoA array; the three output slices
/// receive the per-axis classification of Algorithm 12.
pub fn tree_boundaries_all(soa: &QuadSoA, dim: u32, max_level: u8, out: [&mut [i32]; 3]) {
    let n = soa.len();
    let ml = max_level as i32;
    let root = 1i32 << ml;
    let [fx, fy, fz] = out;
    assert_boundary_lanes(n, fx, fy, fz);
    for i in 0..n {
        let l = soa.level[i];
        if l == 0 {
            fx[i] = -2;
            fy[i] = -2;
            fz[i] = if dim == 3 { -2 } else { -1 };
            continue;
        }
        let up = root - (1i32 << (ml - l));
        let t = |v: i32, lo: i32, hi: i32| {
            (if v == 0 { lo } else { 0 } | if v == up { hi } else { 0 }) - 1
        };
        fx[i] = t(soa.x[i], 1, 2);
        fy[i] = t(soa.y[i], 3, 4);
        fz[i] = if dim == 3 { t(soa.z[i], 5, 6) } else { -1 };
    }
}

/// The donor-cell step inside each 8×8 patch of a batch; see
/// [`crate::batch::donor_cell_8x8_all`] for the contract.
pub(crate) fn donor_cell_8x8_all<'a>(
    patches: impl Iterator<Item = (&'a mut [f64; 64], &'a mut [[f64; 8]; 4], f64)>,
    v: [f64; 2],
) {
    for (cells, strips, dt_hc) in patches {
        donor_cell_8x8(cells, strips, v, dt_hc);
    }
}

/// One patch of [`donor_cell_8x8_all`]: the strips, then every cell
/// `old + ((((0 + left) − right) + below) − above)`, where a term is
/// `c · donor` and a face on the patch's edge adds no term at all.
#[inline]
fn donor_cell_8x8(cells: &mut [f64; 64], strips: &mut [[f64; 8]; 4], v: [f64; 2], dt_hc: f64) {
    for (s, row) in cells.chunks_exact(8).enumerate() {
        strips[0][s] = row[0];
        strips[1][s] = row[7];
    }
    strips[2].copy_from_slice(&cells[..8]);
    strips[3].copy_from_slice(&cells[56..]);
    let [cx, cy] = v.map(|vi| vi * dt_hc);
    let old = *cells;
    // the flux through the +x / +y face of cell `c`
    let fx = |c: usize| cx * if v[0] >= 0.0 { old[c] } else { old[c + 1] };
    let fy = |c: usize| cy * if v[1] >= 0.0 { old[c] } else { old[c + 8] };
    for j in 0..8 {
        for i in 0..8 {
            let c = 8 * j + i;
            let mut d = 0.0;
            if i > 0 {
                d += fx(c - 1);
            }
            if i < 7 {
                d -= fx(c);
            }
            if j > 0 {
                d += fy(c - 8);
            }
            if j < 7 {
                d -= fy(c);
            }
            cells[c] = old[c] + d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrant::{Quadrant, StandardQuad};
    use crate::workload;

    fn sample() -> (Vec<StandardQuad<3>>, QuadSoA) {
        let quads = workload::complete_tree::<StandardQuad<3>>(3);
        let soa = QuadSoA::from_quads(&quads);
        (quads, soa)
    }

    #[test]
    fn soa_roundtrip() {
        let (quads, soa) = sample();
        assert_eq!(soa.to_quads::<StandardQuad<3>>(), quads);
    }

    #[test]
    fn refill_in_place_reuses_allocations() {
        let (quads, _) = sample();
        let mut soa = QuadSoA::default();
        // the gather `directions` runs once per block of leaves
        let refill = |soa: &mut QuadSoA, quads: &[StandardQuad<3>]| {
            soa.clear();
            soa.reserve(quads.len());
            for q in quads {
                soa.push(q.coords(), q.level() as i32);
            }
        };

        // first fill sizes the lanes; the round trip must be lossless
        refill(&mut soa, &quads);
        assert_eq!(soa.to_quads::<StandardQuad<3>>(), quads);

        // refill with a smaller slice: same contents, no reallocation
        let lane_cap = soa.x.capacity();
        let half = &quads[..quads.len() / 2];
        refill(&mut soa, half);
        assert_eq!(soa.to_quads::<StandardQuad<3>>(), half);
        assert_eq!(soa.x.capacity(), lane_cap, "refill must reuse lanes");

        // clear keeps capacity and empties all four lanes uniformly
        soa.clear();
        assert!(soa.is_empty());
        assert_eq!(soa.x.capacity(), lane_cap);
        assert_eq!(soa.level.len(), 0);
    }

    #[test]
    fn child_all_matches_scalar() {
        let (quads, soa) = sample();
        let mut out = QuadSoA::with_len(soa.len());
        for c in 0..8 {
            child_all(&soa, c, StandardQuad::<3>::MAX_LEVEL, &mut out);
            for (i, q) in quads.iter().enumerate() {
                if q.level() < 7 + 1 {
                    let expect = q.child(c);
                    assert_eq!(out.x[i], expect.coords()[0]);
                    assert_eq!(out.level[i], expect.level() as i32);
                }
            }
        }
    }

    #[test]
    fn parent_sibling_match_scalar() {
        let (quads, soa) = sample();
        let mut out = QuadSoA::with_len(soa.len());
        parent_all(&soa, StandardQuad::<3>::MAX_LEVEL, &mut out);
        for (i, q) in quads.iter().enumerate() {
            // the root's "parent" lane holds garbage (level -1); skip it
            if q.level() > 0 {
                let got = StandardQuad::<3>::from_coords(
                    [out.x[i], out.y[i], out.z[i]],
                    out.level[i] as u8,
                );
                assert_eq!(got, q.parent());
            }
        }
        for s in [0u32, 3, 7] {
            sibling_all(&soa, s, StandardQuad::<3>::MAX_LEVEL, &mut out);
            for (i, q) in quads.iter().enumerate() {
                if q.level() > 0 {
                    let got = StandardQuad::<3>::from_coords(
                        [out.x[i], out.y[i], out.z[i]],
                        out.level[i] as u8,
                    );
                    assert_eq!(got, q.sibling(s));
                }
            }
        }
    }

    #[test]
    fn face_neighbor_all_matches_scalar() {
        let (quads, soa) = sample();
        let mut out = QuadSoA::with_len(soa.len());
        for f in 0..6 {
            face_neighbor_all(&soa, f, StandardQuad::<3>::MAX_LEVEL, &mut out);
            for (i, q) in quads.iter().enumerate() {
                let expect = q.face_neighbor(f);
                assert_eq!(
                    [out.x[i], out.y[i], out.z[i]],
                    expect.coords(),
                    "face {f} index {i}"
                );
            }
        }
    }

    #[test]
    fn tree_boundaries_all_matches_scalar() {
        let (quads, soa) = sample();
        let n = soa.len();
        let (mut fx, mut fy, mut fz) = (vec![0; n], vec![0; n], vec![0; n]);
        tree_boundaries_all(
            &soa,
            3,
            StandardQuad::<3>::MAX_LEVEL,
            [&mut fx, &mut fy, &mut fz],
        );
        for (i, q) in quads.iter().enumerate() {
            assert_eq!([fx[i], fy[i], fz[i]], q.tree_boundaries(), "index {i}");
        }
    }
}
