//! Manually vectorized 256-bit SoA batch kernels (AVX2), the widening
//! direction the paper's Conclusion sketches ("the straightforward use of
//! a wider register capacity, for example 256-bit registers from AVX2").
//!
//! Each kernel processes eight quadrants per iteration from the shared
//! [`QuadSoA`] layout using explicit AVX2 intrinsics, including the
//! per-lane variable shifts (`vpsllvd`) that encode each quadrant's own
//! level-dependent length.
//!
//! # Runtime dispatch
//!
//! The AVX2 kernels are compiled unconditionally on x86_64 (marked
//! `#[target_feature(enable = "avx2")]`, so the compiler may use AVX2
//! instructions regardless of the build's baseline) and selected at
//! runtime: each public entry point asks [`crate::simd`] once per call
//! (`simd::dispatch`, which also counts the call on the tier that runs)
//! and branches directly to the `#[target_feature]` kernel or to the
//! scalar reference. A stock `cargo build --release` therefore runs the
//! vectorized kernels on any AVX2 machine — no `RUSTFLAGS` required —
//! while non-x86_64 targets and CPUs without AVX2 get the scalar
//! reference with identical results (the property tests in
//! `tests/prop_batch_dispatch.rs` hold the two paths equal on the same
//! binary). The key extractors [`sfc_keys_all`] and [`point_keys_all`]
//! branch the same way on BMI2.

pub use crate::scalar_ref::QuadSoA;

use crate::scalar_ref;
use crate::simd::{dispatch, Tier};

// Off x86_64 `dispatch` never confirms a feature (it counts the scalar
// call), so each SIMD branch below is empty there.

/// `child` over the SoA array, eight quadrants per step.
pub fn child_all(soa: &QuadSoA, c: u32, max_level: u8, out: &mut QuadSoA) {
    if dispatch(Tier::Avx2) {
        // SAFETY: `dispatch` confirmed AVX2 on the running CPU
        #[cfg(target_arch = "x86_64")]
        return unsafe { avx2::child_all(soa, c, max_level, out) };
    }
    scalar_ref::child_all(soa, c, max_level, out)
}

/// `parent` over the SoA array, eight quadrants per step.
pub fn parent_all(soa: &QuadSoA, max_level: u8, out: &mut QuadSoA) {
    if dispatch(Tier::Avx2) {
        // SAFETY: `dispatch` confirmed AVX2 on the running CPU
        #[cfg(target_arch = "x86_64")]
        return unsafe { avx2::parent_all(soa, max_level, out) };
    }
    scalar_ref::parent_all(soa, max_level, out)
}

/// `sibling` over the SoA array, eight quadrants per step.
pub fn sibling_all(soa: &QuadSoA, s: u32, max_level: u8, out: &mut QuadSoA) {
    if dispatch(Tier::Avx2) {
        // SAFETY: `dispatch` confirmed AVX2 on the running CPU
        #[cfg(target_arch = "x86_64")]
        return unsafe { avx2::sibling_all(soa, s, max_level, out) };
    }
    scalar_ref::sibling_all(soa, s, max_level, out)
}

/// `face_neighbor` over the SoA array for fixed face `f`, eight per step.
pub fn face_neighbor_all(soa: &QuadSoA, f: u32, max_level: u8, out: &mut QuadSoA) {
    if dispatch(Tier::Avx2) {
        // SAFETY: `dispatch` confirmed AVX2 on the running CPU
        #[cfg(target_arch = "x86_64")]
        return unsafe { avx2::face_neighbor_all(soa, f, max_level, out) };
    }
    scalar_ref::face_neighbor_all(soa, f, max_level, out)
}

/// Same-size neighbor anchors for a fixed unit offset `{-1,0,1}^3`
/// (the general direction the balance/ghost enumerations walk), eight
/// quadrants per step.
pub fn offset_neighbor_all(soa: &QuadSoA, offset: [i32; 3], max_level: u8, out: &mut QuadSoA) {
    if dispatch(Tier::Avx2) {
        // SAFETY: `dispatch` confirmed AVX2 on the running CPU
        #[cfg(target_arch = "x86_64")]
        return unsafe { avx2::offset_neighbor_all(soa, offset, max_level, out) };
    }
    scalar_ref::offset_neighbor_all(soa, offset, max_level, out)
}

/// `tree_boundaries` over the SoA array, eight quadrants per step.
/// All three out slices must hold at least `soa.len()` lanes (asserted
/// identically by every dispatch target).
pub fn tree_boundaries_all(soa: &QuadSoA, dim: u32, max_level: u8, out: [&mut [i32]; 3]) {
    if dispatch(Tier::Avx2) {
        // SAFETY: `dispatch` confirmed AVX2 on the running CPU
        #[cfg(target_arch = "x86_64")]
        return unsafe { avx2::tree_boundaries_all(soa, dim, max_level, out) };
    }
    scalar_ref::tree_boundaries_all(soa, dim, max_level, out)
}

/// Space-filling-curve sort keys `(morton_abs << 6) | level` over the
/// SoA array — the batch key extractor behind `linear::linearize`'s
/// `sort_unstable_by_key`. Dispatches to the BMI2 `pdep` interleave when
/// the CPU has it, independent of the AVX2 tier.
pub fn sfc_keys_all(soa: &QuadSoA, dim: u32, out: &mut [u64]) {
    if dispatch(Tier::Bmi2) {
        // SAFETY: `dispatch` confirmed BMI2 on the running CPU
        #[cfg(target_arch = "x86_64")]
        return unsafe { bmi2_keys::sfc_keys_all(soa, dim, out) };
    }
    scalar_ref::sfc_keys_all(soa, dim, out)
}

/// Maximum-level Morton probe keys for a batch of integer points — the
/// batched form of `zrange::point_key`, dispatched to the BMI2 `pdep`
/// interleave like [`sfc_keys_all`]. Coordinates must already be
/// validated non-negative and inside the unit tree.
pub fn point_keys_all(xs: &[i32], ys: &[i32], zs: &[i32], dim: u32, out: &mut [u64]) {
    if dispatch(Tier::Bmi2) {
        // SAFETY: `dispatch` confirmed BMI2 on the running CPU
        #[cfg(target_arch = "x86_64")]
        return unsafe { bmi2_keys::point_keys_all(xs, ys, zs, dim, out) };
    }
    scalar_ref::point_keys_all(xs, ys, zs, dim, out)
}

/// One donor-cell (first-order upwind) step inside each 8×8 cell patch
/// of a batch, for the constant velocity `v` — the advection solver's
/// interior update, the one kernel here that is not a quadrant kernel.
/// Each item is a patch's cells (index `8·j + i`, `i` along x), the four
/// edge strips to fill, and the patch's `dt / h_cell`. The strips get
/// the cells as they are before the step, indexed by face (0 = −x,
/// 1 = +x, 2 = −y, 3 = +y), then along the face. Then every cell becomes
/// `old + ((((0 + left) − right) + below) − above)`: the fluxes through
/// its faces, each `v_axis · dt/h_cell · donor` with the upwind cell as
/// donor, added in that order; a face on the patch's edge adds no term.
/// No tier fuses a multiply-add, so every tier gives the same bits.
///
/// One dispatch, and one count of it, per call, not per patch.
pub fn donor_cell_8x8_all<'a>(
    patches: impl IntoIterator<Item = (&'a mut [f64; 64], &'a mut [[f64; 8]; 4], f64)>,
    v: [f64; 2],
) {
    if dispatch(Tier::Avx2) {
        // SAFETY: `dispatch` confirmed AVX2 on the running CPU
        #[cfg(target_arch = "x86_64")]
        return unsafe { avx2::donor_cell_8x8_all(patches.into_iter(), v) };
    }
    scalar_ref::donor_cell_8x8_all(patches.into_iter(), v)
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::QuadSoA;
    use core::arch::x86_64::*;

    /// Load 8 lanes from `src[i..]`; caller guarantees `i + 8 <= len`
    /// (AVX2 availability is carried by the `target_feature` contract).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(src: &[i32], i: usize) -> __m256i {
        debug_assert!(i + 8 <= src.len());
        // SAFETY: bounds asserted above; loadu has no alignment demands.
        unsafe { _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i) }
    }

    /// Store 8 lanes to `dst[i..]`; caller guarantees `i + 8 <= len`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store(dst: &mut [i32], i: usize, v: __m256i) {
        debug_assert!(i + 8 <= dst.len());
        // SAFETY: bounds asserted above.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, v) }
    }

    #[target_feature(enable = "avx2")]
    pub(crate) fn child_all(soa: &QuadSoA, c: u32, max_level: u8, out: &mut QuadSoA) {
        let n = soa.len();
        assert!(out.len() >= n);
        let main = n - n % 8;
        let ml = max_level as i32;
        // SAFETY: all loads/stores bounds-checked.
        unsafe {
            let one = _mm256_set1_epi32(1);
            let mlv = _mm256_set1_epi32(ml - 1);
            for i in (0..main).step_by(8) {
                let l = load(&soa.level, i);
                // shift = 1 << (L - (l + 1)) per lane
                let counts = _mm256_sub_epi32(mlv, l);
                let shift = _mm256_sllv_epi32(one, counts);
                let pick = |bit: u32, lane: &[i32]| -> __m256i {
                    let v = load(lane, i);
                    if c & bit != 0 {
                        _mm256_or_si256(v, shift)
                    } else {
                        v
                    }
                };
                store(&mut out.x, i, pick(1, &soa.x));
                store(&mut out.y, i, pick(2, &soa.y));
                store(&mut out.z, i, pick(4, &soa.z));
                store(&mut out.level, i, _mm256_add_epi32(l, one));
            }
        }
        tail_child(soa, c, ml, out, main);
    }

    fn tail_child(soa: &QuadSoA, c: u32, ml: i32, out: &mut QuadSoA, from: usize) {
        for i in from..soa.len() {
            let shift = 1i32 << (ml - (soa.level[i] + 1));
            out.x[i] = soa.x[i] | if c & 1 != 0 { shift } else { 0 };
            out.y[i] = soa.y[i] | if c & 2 != 0 { shift } else { 0 };
            out.z[i] = soa.z[i] | if c & 4 != 0 { shift } else { 0 };
            out.level[i] = soa.level[i] + 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(crate) fn parent_all(soa: &QuadSoA, max_level: u8, out: &mut QuadSoA) {
        let n = soa.len();
        assert!(out.len() >= n);
        let main = n - n % 8;
        let ml = max_level as i32;
        // SAFETY: all loads/stores bounds-checked.
        unsafe {
            let one = _mm256_set1_epi32(1);
            let mlv = _mm256_set1_epi32(ml);
            let all = _mm256_set1_epi32(-1);
            for i in (0..main).step_by(8) {
                let l = load(&soa.level, i);
                let h = _mm256_sllv_epi32(one, _mm256_sub_epi32(mlv, l));
                let clear = _mm256_xor_si256(h, all); // !h
                store(&mut out.x, i, _mm256_and_si256(load(&soa.x, i), clear));
                store(&mut out.y, i, _mm256_and_si256(load(&soa.y, i), clear));
                store(&mut out.z, i, _mm256_and_si256(load(&soa.z, i), clear));
                store(&mut out.level, i, _mm256_sub_epi32(l, one));
            }
        }
        for i in main..n {
            let clear = !(1i32 << (ml - soa.level[i]));
            out.x[i] = soa.x[i] & clear;
            out.y[i] = soa.y[i] & clear;
            out.z[i] = soa.z[i] & clear;
            out.level[i] = soa.level[i] - 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(crate) fn sibling_all(soa: &QuadSoA, s: u32, max_level: u8, out: &mut QuadSoA) {
        let n = soa.len();
        assert!(out.len() >= n);
        let main = n - n % 8;
        let ml = max_level as i32;
        // SAFETY: all loads/stores bounds-checked.
        unsafe {
            let one = _mm256_set1_epi32(1);
            let mlv = _mm256_set1_epi32(ml);
            for i in (0..main).step_by(8) {
                let l = load(&soa.level, i);
                let h = _mm256_sllv_epi32(one, _mm256_sub_epi32(mlv, l));
                let pick = |bit: u32, lane: &[i32]| -> __m256i {
                    let v = _mm256_andnot_si256(h, load(lane, i));
                    if s & bit != 0 {
                        _mm256_or_si256(v, h)
                    } else {
                        v
                    }
                };
                store(&mut out.x, i, pick(1, &soa.x));
                store(&mut out.y, i, pick(2, &soa.y));
                store(&mut out.z, i, pick(4, &soa.z));
                store(&mut out.level, i, l);
            }
        }
        for i in main..n {
            let h = 1i32 << (ml - soa.level[i]);
            out.x[i] = (soa.x[i] & !h) | if s & 1 != 0 { h } else { 0 };
            out.y[i] = (soa.y[i] & !h) | if s & 2 != 0 { h } else { 0 };
            out.z[i] = (soa.z[i] & !h) | if s & 4 != 0 { h } else { 0 };
            out.level[i] = soa.level[i];
        }
    }

    #[target_feature(enable = "avx2")]
    pub(crate) fn face_neighbor_all(soa: &QuadSoA, f: u32, max_level: u8, out: &mut QuadSoA) {
        let n = soa.len();
        assert!(out.len() >= n);
        let sign = if f & 1 == 1 { 1 } else { -1 };
        let axis = f / 2;
        let mut offset = [0i32; 3];
        offset[axis as usize] = sign;
        // same AVX2 context — delegation keeps one code path
        offset_neighbor_all(soa, offset, max_level, out)
    }

    #[target_feature(enable = "avx2")]
    pub(crate) fn offset_neighbor_all(
        soa: &QuadSoA,
        offset: [i32; 3],
        max_level: u8,
        out: &mut QuadSoA,
    ) {
        let n = soa.len();
        assert!(out.len() >= n);
        let main = n - n % 8;
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
                continue;
            }
            // SAFETY: all loads/stores bounds-checked.
            unsafe {
                let one = _mm256_set1_epi32(1);
                let mlv = _mm256_set1_epi32(ml);
                for i in (0..main).step_by(8) {
                    let l = load(&soa.level, i);
                    let h = _mm256_sllv_epi32(one, _mm256_sub_epi32(mlv, l));
                    let step = if d == 1 {
                        h
                    } else {
                        _mm256_sub_epi32(_mm256_setzero_si256(), h)
                    };
                    store(dst, i, _mm256_add_epi32(load(src, i), step));
                }
            }
            for i in main..n {
                dst[i] = src[i] + d * (1i32 << (ml - soa.level[i]));
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(crate) fn tree_boundaries_all(
        soa: &QuadSoA,
        dim: u32,
        max_level: u8,
        out: [&mut [i32]; 3],
    ) {
        let n = soa.len();
        let ml = max_level as i32;
        let [fx, fy, fz] = out;
        crate::scalar_ref::assert_boundary_lanes(n, fx, fy, fz);
        let main = n - n % 8;
        // SAFETY: all loads/stores bounds-checked.
        unsafe {
            let one = _mm256_set1_epi32(1);
            let mlv = _mm256_set1_epi32(ml);
            let root = _mm256_set1_epi32(1 << ml);
            let zero = _mm256_setzero_si256();
            let minus2 = _mm256_set1_epi32(-2);
            for i in (0..main).step_by(8) {
                let l = load(&soa.level, i);
                let h = _mm256_sllv_epi32(one, _mm256_sub_epi32(mlv, l));
                let up = _mm256_sub_epi32(root, h);
                let is_root = _mm256_cmpeq_epi32(l, zero);
                let classify = |v: __m256i, lo: i32, hi: i32| -> __m256i {
                    let t0 = _mm256_and_si256(_mm256_cmpeq_epi32(v, zero), _mm256_set1_epi32(lo));
                    let tu = _mm256_and_si256(_mm256_cmpeq_epi32(v, up), _mm256_set1_epi32(hi));
                    let f = _mm256_sub_epi32(_mm256_or_si256(t0, tu), one);
                    // roots report ALL (-2) on every axis
                    _mm256_blendv_epi8(f, minus2, is_root)
                };
                store(fx, i, classify(load(&soa.x, i), 1, 2));
                store(fy, i, classify(load(&soa.y, i), 3, 4));
                if dim == 3 {
                    store(fz, i, classify(load(&soa.z, i), 5, 6));
                } else {
                    store(fz, i, _mm256_set1_epi32(-1));
                }
            }
        }
        for i in main..n {
            let l = soa.level[i];
            if l == 0 {
                fx[i] = -2;
                fy[i] = -2;
                fz[i] = if dim == 3 { -2 } else { -1 };
                continue;
            }
            let up = (1i32 << ml) - (1i32 << (ml - l));
            let t = |v: i32, lo: i32, hi: i32| {
                (if v == 0 { lo } else { 0 } | if v == up { hi } else { 0 }) - 1
            };
            fx[i] = t(soa.x[i], 1, 2);
            fy[i] = t(soa.y[i], 3, 4);
            fz[i] = if dim == 3 { t(soa.z[i], 5, 6) } else { -1 };
        }
    }

    /// The donor-cell step of [`super::donor_cell_8x8_all`], a row of
    /// eight cells as two vectors of four: the scalar reference's
    /// operations in its order, the terms of the faces on the patch's
    /// edge blended out rather than added as zero.
    #[target_feature(enable = "avx2")]
    pub(crate) fn donor_cell_8x8_all<'a>(
        patches: impl Iterator<Item = (&'a mut [f64; 64], &'a mut [[f64; 8]; 4], f64)>,
        v: [f64; 2],
    ) {
        for (cells, strips, dt_hc) in patches {
            donor_cell_8x8(cells, strips, v, dt_hc);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn donor_cell_8x8(cells: &mut [f64; 64], strips: &mut [[f64; 8]; 4], v: [f64; 2], dt_hc: f64) {
        for (s, row) in cells.chunks_exact(8).enumerate() {
            strips[0][s] = row[0];
            strips[1][s] = row[7];
        }
        strips[2].copy_from_slice(&cells[..8]);
        strips[3].copy_from_slice(&cells[56..]);
        let (x_up, y_up) = (v[0] >= 0.0, v[1] >= 0.0);
        let p = cells.as_mut_ptr();
        // SAFETY: every load and store addresses the four cells at
        // `8·j` or `8·j + 4`, `j < 8`, of the 64-cell patch `p` points
        // to, its only live pointer; loadu/storeu need no alignment.
        unsafe {
            let cx = _mm256_set1_pd(v[0] * dt_hc);
            let cy = _mm256_set1_pd(v[1] * dt_hc);
            let zero = _mm256_setzero_pd();
            let load = |j: usize| {
                [
                    _mm256_loadu_pd(p.add(8 * j)),
                    _mm256_loadu_pd(p.add(8 * j + 4)),
                ]
            };
            let mut row = load(0);
            // the fluxes through the +y faces of the row below
            let mut below = [zero; 2];
            for j in 0..8 {
                let next = if j < 7 { load(j + 1) } else { row };
                // lane i: the flux through cell i's +x face (lane 7: none)
                let donor = if x_up {
                    row
                } else {
                    // cells i + 1
                    let lo = _mm256_permute4x64_pd::<0b00_11_10_01>(row[0]);
                    let hi = _mm256_permute4x64_pd::<0b00_11_10_01>(row[1]);
                    [_mm256_blend_pd::<0b1000>(lo, hi), hi]
                };
                let fx = donor.map(|r| _mm256_mul_pd(cx, r));
                // lane i: the flux through cell i's −x face (lane 0: none)
                let lo = _mm256_permute4x64_pd::<0b10_01_00_11>(fx[0]);
                let hi = _mm256_permute4x64_pd::<0b10_01_00_11>(fx[1]);
                let left = [lo, _mm256_blend_pd::<0b0001>(hi, lo)];
                let d = [
                    _mm256_blend_pd::<0b0001>(_mm256_add_pd(zero, left[0]), zero),
                    _mm256_add_pd(zero, left[1]),
                ];
                let mut d = [
                    _mm256_sub_pd(d[0], fx[0]),
                    _mm256_blend_pd::<0b1000>(_mm256_sub_pd(d[1], fx[1]), d[1]),
                ];
                if j > 0 {
                    d = [_mm256_add_pd(d[0], below[0]), _mm256_add_pd(d[1], below[1])];
                }
                if j < 7 {
                    below = (if y_up { row } else { next }).map(|r| _mm256_mul_pd(cy, r));
                    d = [_mm256_sub_pd(d[0], below[0]), _mm256_sub_pd(d[1], below[1])];
                }
                _mm256_storeu_pd(p.add(8 * j), _mm256_add_pd(row[0], d[0]));
                _mm256_storeu_pd(p.add(8 * j + 4), _mm256_add_pd(row[1], d[1]));
                row = next;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod bmi2_keys {
    use super::QuadSoA;

    #[target_feature(enable = "bmi2")]
    pub(crate) fn sfc_keys_all(soa: &QuadSoA, dim: u32, out: &mut [u64]) {
        let n = soa.len();
        assert!(out.len() >= n, "sfc_keys_all: out must hold >= {n} keys");
        if dim == 2 {
            for (i, key) in out.iter_mut().enumerate().take(n) {
                let abs = crate::morton::bmi2::encode2(soa.x[i] as u32, soa.y[i] as u32);
                *key = (abs << 6) | soa.level[i] as u64;
            }
        } else {
            for (i, key) in out.iter_mut().enumerate().take(n) {
                let abs =
                    crate::morton::bmi2::encode3(soa.x[i] as u32, soa.y[i] as u32, soa.z[i] as u32);
                *key = (abs << 6) | soa.level[i] as u64;
            }
        }
    }

    #[target_feature(enable = "bmi2")]
    pub(crate) fn point_keys_all(xs: &[i32], ys: &[i32], zs: &[i32], dim: u32, out: &mut [u64]) {
        let n = xs.len();
        assert!(
            ys.len() >= n && zs.len() >= n && out.len() >= n,
            "point_keys_all: lanes must hold >= {n} entries"
        );
        if dim == 2 {
            for i in 0..n {
                out[i] = crate::morton::bmi2::encode2(xs[i] as u32, ys[i] as u32);
            }
        } else {
            for i in 0..n {
                out[i] = crate::morton::bmi2::encode3(xs[i] as u32, ys[i] as u32, zs[i] as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrant::{Quadrant, StandardQuad};
    use crate::scalar_ref;
    use crate::workload;

    const L: u8 = StandardQuad::<3>::MAX_LEVEL;

    fn soa() -> QuadSoA {
        // 2396745 is large for a unit test; level 4 gives 4681 elements
        // with a non-multiple-of-8 tail, which exercises the remainder
        // loops.
        QuadSoA::from_quads(&workload::complete_tree::<StandardQuad<3>>(4))
    }

    #[test]
    fn batch_child_matches_reference() {
        let s = soa();
        let mut a = QuadSoA::with_len(s.len());
        let mut b = QuadSoA::with_len(s.len());
        for c in 0..8 {
            child_all(&s, c, L, &mut a);
            scalar_ref::child_all(&s, c, L, &mut b);
            assert_eq!(a, b, "child {c}");
        }
    }

    #[test]
    fn batch_parent_matches_reference() {
        let s = soa();
        let mut a = QuadSoA::with_len(s.len());
        let mut b = QuadSoA::with_len(s.len());
        parent_all(&s, L, &mut a);
        scalar_ref::parent_all(&s, L, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn batch_sibling_matches_reference() {
        let s = soa();
        let mut a = QuadSoA::with_len(s.len());
        let mut b = QuadSoA::with_len(s.len());
        for sib in 0..8 {
            sibling_all(&s, sib, L, &mut a);
            scalar_ref::sibling_all(&s, sib, L, &mut b);
            assert_eq!(a, b, "sibling {sib}");
        }
    }

    #[test]
    fn batch_face_neighbor_matches_reference() {
        let s = soa();
        let mut a = QuadSoA::with_len(s.len());
        let mut b = QuadSoA::with_len(s.len());
        for f in 0..6 {
            face_neighbor_all(&s, f, L, &mut a);
            scalar_ref::face_neighbor_all(&s, f, L, &mut b);
            assert_eq!(a, b, "face {f}");
        }
    }

    #[test]
    fn batch_offset_neighbor_matches_reference() {
        let s = soa();
        let mut a = QuadSoA::with_len(s.len());
        let mut b = QuadSoA::with_len(s.len());
        for dz in -1..=1 {
            for dy in -1..=1 {
                for dx in -1..=1 {
                    let off = [dx, dy, dz];
                    offset_neighbor_all(&s, off, L, &mut a);
                    scalar_ref::offset_neighbor_all(&s, off, L, &mut b);
                    assert_eq!(a, b, "offset {off:?}");
                }
            }
        }
    }

    #[test]
    fn batch_tree_boundaries_matches_reference() {
        let s = soa();
        let n = s.len();
        let (mut ax, mut ay, mut az) = (vec![0; n], vec![0; n], vec![0; n]);
        let (mut bx, mut by, mut bz) = (vec![0; n], vec![0; n], vec![0; n]);
        tree_boundaries_all(&s, 3, L, [&mut ax, &mut ay, &mut az]);
        scalar_ref::tree_boundaries_all(&s, 3, L, [&mut bx, &mut by, &mut bz]);
        assert_eq!(ax, bx);
        assert_eq!(ay, by);
        assert_eq!(az, bz);
    }

    #[test]
    fn batch_tree_boundaries_2d() {
        let quads = workload::complete_tree::<StandardQuad<2>>(4);
        let s = QuadSoA::from_quads(&quads);
        let n = s.len();
        let l2 = StandardQuad::<2>::MAX_LEVEL;
        let (mut ax, mut ay, mut az) = (vec![0; n], vec![0; n], vec![0; n]);
        tree_boundaries_all(&s, 2, l2, [&mut ax, &mut ay, &mut az]);
        for (i, q) in quads.iter().enumerate() {
            assert_eq!([ax[i], ay[i], az[i]], q.tree_boundaries(), "index {i}");
        }
    }

    #[test]
    fn batch_sfc_keys_match_trait_keys() {
        let quads = workload::complete_tree::<StandardQuad<3>>(4);
        let s = QuadSoA::from_quads(&quads);
        let mut keys = vec![0u64; s.len()];
        sfc_keys_all(&s, 3, &mut keys);
        for (i, q) in quads.iter().enumerate() {
            assert_eq!(
                keys[i],
                (q.morton_abs() << 6) | q.level() as u64,
                "index {i}"
            );
        }
        let quads2 = workload::complete_tree::<StandardQuad<2>>(5);
        let s2 = QuadSoA::from_quads(&quads2);
        let mut keys2 = vec![0u64; s2.len()];
        sfc_keys_all(&s2, 2, &mut keys2);
        for (i, q) in quads2.iter().enumerate() {
            assert_eq!(keys2[i], (q.morton_abs() << 6) | q.level() as u64);
        }
    }

    #[test]
    fn batch_point_keys_match_zrange_point_key() {
        let pts: Vec<[i32; 3]> = (0..173)
            .map(|i: i32| [(i * 7) % 256, (i * 13) % 256, (i * 29) % 256])
            .collect();
        let xs: Vec<i32> = pts.iter().map(|p| p[0]).collect();
        let ys: Vec<i32> = pts.iter().map(|p| p[1]).collect();
        let zs: Vec<i32> = pts.iter().map(|p| p[2]).collect();
        for dim in [2u32, 3] {
            let mut keys = vec![0u64; pts.len()];
            point_keys_all(&xs, &ys, &zs, dim, &mut keys);
            for (i, p) in pts.iter().enumerate() {
                assert_eq!(
                    keys[i],
                    crate::zrange::point_key(*p, dim),
                    "dim {dim} pt {i}"
                );
            }
        }
    }

    #[test]
    fn dispatch_is_counted_on_the_active_tier() {
        let counts = || crate::simd::kernel_invocations().map(|(_, n)| n);
        // one count on tier `t` of [scalar, avx2, bmi2]
        let once = |t: usize| -> [u64; 3] { std::array::from_fn(|i| (i == t) as u64) };
        let avx2 = once(if crate::simd::has_avx2() { 1 } else { 0 });
        let bmi2 = once(if crate::simd::has_bmi2() { 2 } else { 0 });
        let check = |name: &str, want: [u64; 3], call: &mut dyn FnMut()| {
            // other test threads' dispatches only add to the counts, so
            // every call shows its own, and some call shows nothing else
            let exact = (0..100).any(|_| {
                let before = counts();
                call();
                let after = counts();
                let got: [u64; 3] = std::array::from_fn(|i| after[i] - before[i]);
                assert!((0..3).all(|i| got[i] >= want[i]), "{name}: not counted");
                got == want
            });
            assert!(exact, "{name}: counted more than once");
        };
        let s = soa();
        let n = s.len();
        let mut out = QuadSoA::with_len(n);
        let (mut fx, mut fy, mut fz) = (vec![0; n], vec![0; n], vec![0; n]);
        let mut keys = vec![0u64; n];
        let mut cells = patches(3);
        let mut strips = vec![[[0.0; 8]; 4]; 3];
        check("child_all", avx2, &mut || child_all(&s, 0, L, &mut out));
        check("parent_all", avx2, &mut || parent_all(&s, L, &mut out));
        check("sibling_all", avx2, &mut || sibling_all(&s, 1, L, &mut out));
        check("face_neighbor_all", avx2, &mut || {
            face_neighbor_all(&s, 1, L, &mut out)
        });
        check("offset_neighbor_all", avx2, &mut || {
            offset_neighbor_all(&s, [1, 0, -1], L, &mut out)
        });
        check("tree_boundaries_all", avx2, &mut || {
            tree_boundaries_all(&s, 3, L, [&mut fx, &mut fy, &mut fz])
        });
        check("sfc_keys_all", bmi2, &mut || sfc_keys_all(&s, 3, &mut keys));
        check("point_keys_all", bmi2, &mut || {
            point_keys_all(&s.x, &s.y, &s.z, 3, &mut keys)
        });
        check("donor_cell_8x8_all", avx2, &mut || {
            donor_cell_8x8_all(items(&mut cells, &mut strips), [1.0, 0.5])
        });
    }

    /// Random 8×8 patches, a quarter of their cells +0.0 and a quarter
    /// −0.0.
    fn patches(n: usize) -> Vec<[f64; 64]> {
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                std::array::from_fn(|_| {
                    h ^= h << 13;
                    h ^= h >> 7;
                    h ^= h << 17;
                    match h % 4 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
                    }
                })
            })
            .collect()
    }

    /// A batch's items: each patch with its strips and a `dt / h_cell`
    /// of 0.05–0.2.
    fn items<'a>(
        cells: &'a mut [[f64; 64]],
        strips: &'a mut [[[f64; 8]; 4]],
    ) -> impl Iterator<Item = (&'a mut [f64; 64], &'a mut [[f64; 8]; 4], f64)> {
        cells
            .iter_mut()
            .zip(strips)
            .enumerate()
            .map(|(i, (c, s))| (c, s, 0.05 * (1 + i % 4) as f64))
    }

    /// The cells and strips, as bits, after `kernel` stepped a copy of
    /// `src`.
    fn stepped(
        src: &[[f64; 64]],
        kernel: impl FnOnce(&mut [[f64; 64]], &mut [[[f64; 8]; 4]]),
    ) -> Vec<u64> {
        let mut cells = src.to_vec();
        let mut strips = vec![[[0.0; 8]; 4]; src.len()];
        kernel(&mut cells, &mut strips);
        let strips = strips.iter().flatten().flatten();
        cells
            .iter()
            .flatten()
            .chain(strips)
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn batch_donor_cell_matches_reference() {
        let src = patches(37);
        for v in [
            [1.0, 0.5],
            [-1.0, 0.5],
            [1.0, -0.5],
            [-1.0, -0.5],
            [0.0, -0.7],
            [0.3, -0.0],
        ] {
            let want = stepped(&src, |c, s| scalar_ref::donor_cell_8x8_all(items(c, s), v));
            let got = stepped(&src, |c, s| donor_cell_8x8_all(items(c, s), v));
            assert_eq!(got, want, "dispatched, v = {v:?}");
            // the intrinsics on any AVX2 CPU, the forced scalar tier too
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 was detected on this CPU just above
                let got = stepped(&src, |c, s| unsafe {
                    avx2::donor_cell_8x8_all(items(c, s), v)
                });
                assert_eq!(got, want, "AVX2, v = {v:?}");
            }
        }
    }
}
