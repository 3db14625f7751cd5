//! The 128-bit SIMD quadrant: `(x, y, z, level)` packed into one
//! `__m128i` register and manipulated with SSE2/SSE4.1/AVX2 intrinsics
//! (Section 2.3 of the paper, Algorithms 9–12).
//!
//! Lane layout (lane 0 is least significant, as produced by
//! `_mm_set_epi32(level, z, y, x)`), mirroring the paper's Figure 1 where
//! the register prints as `| level | z | y | x |`:
//!
//! ```text
//!   lane 3   lane 2   lane 1   lane 0
//!  | level |   z    |   y    |   x   |
//! ```
//!
//! Each lane is a signed 32-bit integer, so — unlike the raw Morton
//! layout — exterior (negative-coordinate) neighbors are representable
//! and the layout itself could refine to level 31 (the paper's
//! Conclusion); [`Quadrant::MAX_LEVEL`] stays the shared one.
//!
//! On x86_64 the implementation uses only SSE2 intrinsics — part of the
//! x86_64 baseline, so *every* build of this crate (no `RUSTFLAGS`
//! needed) runs the vector path; the one former SSE4.1 dependence
//! (`_mm_extract_epi32`/`_mm_insert_epi32`) is expressed with
//! shuffle/unpack equivalents. The 256-bit ablation variant dispatches
//! at runtime via [`crate::simd`]. On non-x86_64 targets the same type
//! is backed by a plain `[i32; 4]` with bit-identical semantics (every
//! algorithm is implemented twice and cross-checked by the test suite).

use super::common::shared_max_level;
use super::Quadrant;
use crate::morton;

/// 128-bit SIMD quadrant, `D ∈ {2, 3}`; 16 bytes.
#[derive(Copy, Clone)]
#[repr(transparent)]
pub struct AvxQuad<const D: usize> {
    v: imp::Reg,
}

impl<const D: usize> AvxQuad<D> {
    const _ASSERT_DIM: () = assert!(D == 2 || D == 3, "D must be 2 or 3");

    /// The four lanes as `[x, y, z, level]`.
    #[inline]
    pub(crate) fn lanes(self) -> [i32; 4] {
        imp::get(self.v)
    }

    #[inline]
    fn from_lanes(x: i32, y: i32, z: i32, level: i32) -> Self {
        Self {
            v: imp::new(x, y, z, level),
        }
    }
}

impl<const D: usize> PartialEq for AvxQuad<D> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        imp::eq(self.v, other.v)
    }
}

impl<const D: usize> Eq for AvxQuad<D> {}

impl<const D: usize> core::hash::Hash for AvxQuad<D> {
    #[inline]
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.lanes().hash(state);
    }
}

impl<const D: usize> core::fmt::Debug for AvxQuad<D> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let [x, y, z, l] = self.lanes();
        write!(f, "AvxQuad<{D}>(level={l}, xyz=({x},{y},{z}))")
    }
}

impl<const D: usize> Quadrant for AvxQuad<D> {
    const DIM: u32 = D as u32;
    const MAX_LEVEL: u8 = shared_max_level(D as u32);
    const NAME: &'static str = "avx";

    #[inline]
    fn root() -> Self {
        Self::from_lanes(0, 0, 0, 0)
    }

    #[inline]
    fn from_coords(coords: [i32; 3], level: u8) -> Self {
        debug_assert!(level <= Self::MAX_LEVEL);
        let z = if D == 3 { coords[2] } else { 0 };
        Self::from_lanes(coords[0], coords[1], z, level as i32)
    }

    /// Algorithm 11 (`AVX_Morton`): deinterleave two coordinates in the
    /// two 64-bit halves of one register, the third scalar.
    #[inline]
    fn from_morton(index: u64, level: u8) -> Self {
        debug_assert!(level <= Self::MAX_LEVEL);
        debug_assert!(level == 0 || index < 1u64 << (Self::DIM * level as u32));
        let up = (Self::MAX_LEVEL - level) as u32;
        Self {
            v: if D == 2 {
                imp::from_morton2(index, level, up)
            } else {
                imp::from_morton3(index, level, up)
            },
        }
    }

    #[inline]
    fn level(&self) -> u8 {
        imp::level(self.v) as u8
    }

    #[inline]
    fn coords(&self) -> [i32; 3] {
        let [x, y, z, _] = self.lanes();
        [x, y, z]
    }

    #[inline]
    fn morton_index(&self) -> u64 {
        let [x, y, z, l] = self.lanes();
        let down = (Self::MAX_LEVEL as i32 - l) as u32;
        if D == 2 {
            morton::encode2((x >> down) as u32, (y >> down) as u32)
        } else {
            morton::encode3((x >> down) as u32, (y >> down) as u32, (z >> down) as u32)
        }
    }

    /// Coordinate-interleave shortcut (see `StandardQuad::sfc_keys`):
    /// batch key extraction through the runtime-dispatched SoA kernel.
    fn sfc_keys(quads: &[Self]) -> Vec<u64> {
        let soa = crate::scalar_ref::QuadSoA::from_quads(quads);
        let mut keys = vec![0u64; quads.len()];
        crate::batch::sfc_keys_all(&soa, Self::DIM, &mut keys);
        keys
    }

    /// Algorithm 9 (`AVX_Child`): broadcast the child number, test its
    /// direction bits against `(1, 2, 4)` per lane, OR the half-length
    /// shift into the selected lanes, bump the level lane — 7 vector
    /// operations versus 10–13 scalar ones.
    #[inline]
    fn child(&self, c: u32) -> Self {
        let l = imp::level(self.v);
        debug_assert!((l as u8) < Self::MAX_LEVEL && c < Self::NUM_CHILDREN);
        let shift = 1i32 << (Self::MAX_LEVEL as i32 - (l + 1));
        Self {
            v: imp::child(self.v, c as i32, shift),
        }
    }

    /// Vectorized Algorithm 3: clear the level bit in every coordinate
    /// lane, then OR it back into the lanes selected by `s`.
    #[inline]
    fn sibling(&self, s: u32) -> Self {
        let l = imp::level(self.v);
        debug_assert!(l > 0 && s < Self::NUM_CHILDREN);
        let h = 1i32 << (Self::MAX_LEVEL as i32 - l);
        Self {
            v: imp::sibling(self.v, s as i32, h),
        }
    }

    /// Algorithm 10 (`AVX_Parent`): one masked AND over the coordinate
    /// lanes plus a level decrement.
    #[inline]
    fn parent(&self) -> Self {
        let l = imp::level(self.v);
        debug_assert!(l > 0);
        let h = 1i32 << (Self::MAX_LEVEL as i32 - l);
        Self {
            v: imp::parent(self.v, h),
        }
    }

    /// Vectorized face neighbor: add `±h` to the lane selected by the
    /// face's axis.
    #[inline]
    fn face_neighbor(&self, f: u32) -> Self {
        debug_assert!(f < Self::NUM_FACES);
        let l = imp::level(self.v);
        let h = 1i32 << (Self::MAX_LEVEL as i32 - l);
        let step = if f & 1 == 1 { h } else { -h };
        Self {
            v: imp::face_neighbor(self.v, (f / 2) as i32, step),
        }
    }

    /// Algorithm 12 (`AVX_Tree_Boundaries`): two vector compares against
    /// the zero and upper-corner registers, two masked selector loads,
    /// one OR, one subtract.
    #[inline]
    fn tree_boundaries(&self) -> [i32; 3] {
        let l = imp::level(self.v);
        if l == 0 {
            return if D == 2 { [-2, -2, -1] } else { [-2, -2, -2] };
        }
        let up = (1i32 << Self::MAX_LEVEL) - (1i32 << (Self::MAX_LEVEL as i32 - l));
        imp::tree_boundaries::<D>(self.v, l, up)
    }

    #[inline]
    fn successor(&self) -> Self {
        let next = self.morton_index() + 1;
        debug_assert!(self.level() == 0 || next < 1u64 << (Self::DIM * self.level() as u32));
        Self::from_morton(next, self.level())
    }
}

// ===========================================================================
// x86_64 SIMD implementation
// ===========================================================================
#[cfg(target_arch = "x86_64")]
mod imp {
    use core::arch::x86_64::*;

    pub(crate) type Reg = __m128i;

    /// Lane selector bits `(8, 4, 2, 1)`: lane 3 tests bit 3, which a
    /// child/sibling number `< 2^d ≤ 8` never sets, so the level lane is
    /// naturally excluded from coordinate updates.
    #[inline]
    fn dir_selector() -> __m128i {
        // SAFETY: sse2 is statically enabled.
        unsafe { _mm_set_epi32(8, 4, 2, 1) }
    }

    #[inline]
    pub(crate) fn new(x: i32, y: i32, z: i32, level: i32) -> Reg {
        // SAFETY: sse2 is statically enabled.
        unsafe { _mm_set_epi32(level, z, y, x) }
    }

    #[inline]
    pub(crate) fn get(v: Reg) -> [i32; 4] {
        let mut out = [0i32; 4];
        // SAFETY: out is 16 bytes; storeu has no alignment requirement.
        unsafe { _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, v) };
        out
    }

    #[inline]
    pub(crate) fn eq(a: Reg, b: Reg) -> bool {
        // SAFETY: sse2 is statically enabled.
        unsafe { _mm_movemask_epi8(_mm_cmpeq_epi32(a, b)) == 0xFFFF }
    }

    #[inline]
    pub(crate) fn level(v: Reg) -> i32 {
        // Broadcast lane 3 and read lane 0 — the SSE2 spelling of
        // SSE4.1's `_mm_extract_epi32(v, 3)`.
        // SAFETY: sse2 is the x86_64 baseline.
        unsafe { _mm_cvtsi128_si32(_mm_shuffle_epi32(v, 0b11_11_11_11)) }
    }

    /// Algorithm 9.
    #[inline]
    pub(crate) fn child(q: Reg, c: i32, shift: i32) -> Reg {
        // SAFETY: sse2 is the x86_64 baseline; all ops lane-local.
        unsafe {
            let sel = dir_selector();
            let cbits = _mm_and_si128(_mm_set1_epi32(c), sel);
            let mask = _mm_cmpeq_epi32(cbits, sel);
            let add = _mm_and_si128(mask, _mm_set1_epi32(shift));
            let r = _mm_or_si128(q, add);
            _mm_add_epi32(r, _mm_set_epi32(1, 0, 0, 0))
        }
    }

    /// Vectorized Algorithm 3.
    #[inline]
    pub(crate) fn sibling(q: Reg, s: i32, h: i32) -> Reg {
        // SAFETY: sse2 statically enabled.
        unsafe {
            let sel = dir_selector();
            let sbits = _mm_and_si128(_mm_set1_epi32(s), sel);
            let mask = _mm_cmpeq_epi32(sbits, sel);
            let setbits = _mm_and_si128(mask, _mm_set1_epi32(h));
            // clear the level-h bit in the three coordinate lanes only
            let clear = _mm_set_epi32(0, h, h, h);
            let r = _mm_andnot_si128(clear, q);
            _mm_or_si128(r, setbits)
        }
    }

    /// Algorithm 10.
    #[inline]
    pub(crate) fn parent(q: Reg, h: i32) -> Reg {
        // SAFETY: sse2 statically enabled.
        unsafe {
            let clear = _mm_set_epi32(0, h, h, h);
            let r = _mm_andnot_si128(clear, q);
            _mm_add_epi32(r, _mm_set_epi32(-1, 0, 0, 0))
        }
    }

    /// Add `step` to the single coordinate lane `axis`.
    #[inline]
    pub(crate) fn face_neighbor(q: Reg, axis: i32, step: i32) -> Reg {
        // SAFETY: sse2 statically enabled.
        unsafe {
            let lanes = _mm_set_epi32(3, 2, 1, 0);
            let mask = _mm_cmpeq_epi32(_mm_set1_epi32(axis), lanes);
            let add = _mm_and_si128(mask, _mm_set1_epi32(step));
            _mm_add_epi32(q, add)
        }
    }

    /// Algorithm 12. `l > 0`, `up = 2^L - 2^(L-l)`.
    #[inline]
    pub(crate) fn tree_boundaries<const D: usize>(q: Reg, l: i32, up: i32) -> [i32; 3] {
        // SAFETY: sse2 statically enabled.
        unsafe {
            let cmp0 = _mm_cmpeq_epi32(q, _mm_setzero_si128());
            // lane 3 compares level == level -> true, nullified by the
            // zero selector in that lane.
            let cmpup = _mm_cmpeq_epi32(q, _mm_set_epi32(l, up, up, up));
            let sel_lo = if D == 2 {
                _mm_set_epi32(0, 0, 3, 1)
            } else {
                _mm_set_epi32(0, 5, 3, 1)
            };
            let sel_up = if D == 2 {
                _mm_set_epi32(0, 0, 4, 2)
            } else {
                _mm_set_epi32(0, 6, 4, 2)
            };
            let t0 = _mm_and_si128(cmp0, sel_lo);
            let tu = _mm_and_si128(cmpup, sel_up);
            let r = _mm_sub_epi32(_mm_or_si128(t0, tu), _mm_set1_epi32(1));
            let out = get(r);
            [out[0], out[1], out[2]]
        }
    }

    const M3_A: i64 = 0x1249_2492_4924_9249u64 as i64;
    const M3_B: i64 = 0x10C3_0C30_C30C_30C3u64 as i64;
    const M3_C: i64 = 0x100F_00F0_0F00_F00Fu64 as i64;
    const M3_D: i64 = 0x001F_0000_FF00_00FFu64 as i64;
    const M3_E: i64 = 0x001F_0000_0000_FFFFu64 as i64;
    const M3_F: i64 = 0x0000_0000_001F_FFFFu64 as i64;

    /// Algorithm 11: deinterleave x and y simultaneously in the two
    /// 64-bit halves of one register (the paper's two-coordinates-per-
    /// register compromise; mixing in 256-bit registers was measured
    /// slower), z scalar, then shuffle into the `(x, y, z, level)` layout.
    #[inline]
    pub(crate) fn from_morton3(index: u64, level: u8, up: u32) -> Reg {
        // SAFETY: sse2 is the x86_64 baseline.
        unsafe {
            // low half: x bits of I; high half: y bits (I >> 1)
            let mut v = _mm_set_epi64x((index >> 1) as i64, index as i64);
            v = _mm_and_si128(v, _mm_set1_epi64x(M3_A));
            v = _mm_and_si128(_mm_or_si128(v, _mm_srli_epi64(v, 2)), _mm_set1_epi64x(M3_B));
            v = _mm_and_si128(_mm_or_si128(v, _mm_srli_epi64(v, 4)), _mm_set1_epi64x(M3_C));
            v = _mm_and_si128(_mm_or_si128(v, _mm_srli_epi64(v, 8)), _mm_set1_epi64x(M3_D));
            v = _mm_and_si128(
                _mm_or_si128(v, _mm_srli_epi64(v, 16)),
                _mm_set1_epi64x(M3_E),
            );
            v = _mm_and_si128(
                _mm_or_si128(v, _mm_srli_epi64(v, 32)),
                _mm_set1_epi64x(M3_F),
            );
            // align both coordinates to the maximum level at once
            v = _mm_sll_epi64(v, _mm_cvtsi64_si128(up as i64));
            let z = (crate::morton::compact3(index >> 2) << up) as i32;
            // dword0 = x, dword2 = y -> lanes (x, y, _, _); then splice
            // in (z, level) as the high 64 bits via unpacklo — the SSE2
            // spelling of two SSE4.1 `_mm_insert_epi32`s.
            let xy = _mm_shuffle_epi32(v, 0b11_11_10_00);
            _mm_unpacklo_epi64(xy, _mm_set_epi32(0, 0, level as i32, z))
        }
    }

    const M2_A: i64 = 0x5555_5555_5555_5555u64 as i64;
    const M2_B: i64 = 0x3333_3333_3333_3333u64 as i64;
    const M2_C: i64 = 0x0F0F_0F0F_0F0F_0F0Fu64 as i64;
    const M2_D: i64 = 0x00FF_00FF_00FF_00FFu64 as i64;
    const M2_E: i64 = 0x0000_FFFF_0000_FFFFu64 as i64;
    const M2_F: i64 = 0x0000_0000_FFFF_FFFFu64 as i64;

    /// 2D variant of Algorithm 11: both coordinates in one register.
    #[inline]
    pub(crate) fn from_morton2(index: u64, level: u8, up: u32) -> Reg {
        // SAFETY: sse2 is the x86_64 baseline.
        unsafe {
            let mut v = _mm_set_epi64x((index >> 1) as i64, index as i64);
            v = _mm_and_si128(v, _mm_set1_epi64x(M2_A));
            v = _mm_and_si128(_mm_or_si128(v, _mm_srli_epi64(v, 1)), _mm_set1_epi64x(M2_B));
            v = _mm_and_si128(_mm_or_si128(v, _mm_srli_epi64(v, 2)), _mm_set1_epi64x(M2_C));
            v = _mm_and_si128(_mm_or_si128(v, _mm_srli_epi64(v, 4)), _mm_set1_epi64x(M2_D));
            v = _mm_and_si128(_mm_or_si128(v, _mm_srli_epi64(v, 8)), _mm_set1_epi64x(M2_E));
            v = _mm_and_si128(
                _mm_or_si128(v, _mm_srli_epi64(v, 16)),
                _mm_set1_epi64x(M2_F),
            );
            v = _mm_sll_epi64(v, _mm_cvtsi64_si128(up as i64));
            let xy = _mm_shuffle_epi32(v, 0b11_11_10_00);
            // splice in (z = 0, level) as the high 64 bits (see
            // from_morton3).
            _mm_unpacklo_epi64(xy, _mm_set_epi32(0, 0, level as i32, 0))
        }
    }
}

// ===========================================================================
// Portable scalar fallback (bit-identical semantics)
// ===========================================================================
#[cfg(not(target_arch = "x86_64"))]
mod imp {
    use crate::morton;

    pub(crate) type Reg = [i32; 4];

    #[inline]
    pub(crate) fn new(x: i32, y: i32, z: i32, level: i32) -> Reg {
        [x, y, z, level]
    }

    #[inline]
    pub(crate) fn get(v: Reg) -> [i32; 4] {
        v
    }

    #[inline]
    pub(crate) fn eq(a: Reg, b: Reg) -> bool {
        a == b
    }

    #[inline]
    pub(crate) fn level(v: Reg) -> i32 {
        v[3]
    }

    #[inline]
    pub(crate) fn child(q: Reg, c: i32, shift: i32) -> Reg {
        let pick = |bit: i32, v: i32| if c & bit != 0 { v | shift } else { v };
        [pick(1, q[0]), pick(2, q[1]), pick(4, q[2]), q[3] + 1]
    }

    #[inline]
    pub(crate) fn sibling(q: Reg, s: i32, h: i32) -> Reg {
        let pick = |bit: i32, v: i32| if s & bit != 0 { (v & !h) | h } else { v & !h };
        [pick(1, q[0]), pick(2, q[1]), pick(4, q[2]), q[3]]
    }

    #[inline]
    pub(crate) fn parent(q: Reg, h: i32) -> Reg {
        [q[0] & !h, q[1] & !h, q[2] & !h, q[3] - 1]
    }

    #[inline]
    pub(crate) fn face_neighbor(q: Reg, axis: i32, step: i32) -> Reg {
        let mut r = q;
        r[axis as usize] += step;
        r
    }

    #[inline]
    pub(crate) fn tree_boundaries<const D: usize>(q: Reg, _l: i32, up: i32) -> [i32; 3] {
        let sel_lo: [i32; 3] = if D == 2 { [1, 3, 0] } else { [1, 3, 5] };
        let sel_up: [i32; 3] = if D == 2 { [2, 4, 0] } else { [2, 4, 6] };
        let mut out = [0i32; 3];
        for a in 0..3 {
            let t0 = if q[a] == 0 { sel_lo[a] } else { 0 };
            let tu = if q[a] == up { sel_up[a] } else { 0 };
            out[a] = (t0 | tu) - 1;
        }
        out
    }

    #[inline]
    pub(crate) fn from_morton3(index: u64, level: u8, up: u32) -> Reg {
        let (x, y, z) = morton::decode3(index);
        [
            (x << up) as i32,
            (y << up) as i32,
            (z << up) as i32,
            level as i32,
        ]
    }

    #[inline]
    pub(crate) fn from_morton2(index: u64, level: u8, up: u32) -> Reg {
        let (x, y) = morton::decode2(index);
        [(x << up) as i32, (y << up) as i32, 0, level as i32]
    }
}

/// Ablation variants of the SIMD algorithms, kept out of the production
/// path but timed by `repro --autovec` (ablation A3) to reproduce the
/// paper's register-width observations.
pub mod ablation {
    use super::AvxQuad;
    use crate::quadrant::Quadrant;

    /// Algorithm 11 implemented with a **mixed 128/256-bit** register
    /// strategy: all three coordinates deinterleaved simultaneously in
    /// the three 64-bit lanes of one `__m256i`, then narrowed back to
    /// the 128-bit quadrant. The paper reports this mixing to be slower
    /// than the two-coordinates-per-128-bit compromise ("mixing register
    /// lengths leads to a significant slowdown, even though the task
    /// appears to be parallelized better") — the ablation table checks
    /// that observation on this machine. Falls back to the production
    /// path when the running CPU lacks AVX2.
    pub fn from_morton3_mixed256(index: u64, level: u8) -> AvxQuad<3> {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::has_avx2() {
            // SAFETY: AVX2 confirmed on this CPU.
            return unsafe { mixed256_avx2(index, level) };
        }
        AvxQuad::from_morton(index, level)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn mixed256_avx2(index: u64, level: u8) -> AvxQuad<3> {
        use core::arch::x86_64::*;
        let up = (AvxQuad::<3>::MAX_LEVEL - level) as u32;
        const A: i64 = 0x1249_2492_4924_9249u64 as i64;
        const B: i64 = 0x10C3_0C30_C30C_30C3u64 as i64;
        const C: i64 = 0x100F_00F0_0F00_F00Fu64 as i64;
        const D: i64 = 0x001F_0000_FF00_00FFu64 as i64;
        const E: i64 = 0x001F_0000_0000_FFFFu64 as i64;
        const F: i64 = 0x0000_0000_001F_FFFFu64 as i64;
        // SAFETY: the only unsafe op left in AVX2 context is the
        // unaligned store into the 32-byte `lanes` buffer below.
        unsafe {
            let mut v =
                _mm256_set_epi64x(0, (index >> 2) as i64, (index >> 1) as i64, index as i64);
            v = _mm256_and_si256(v, _mm256_set1_epi64x(A));
            v = _mm256_and_si256(
                _mm256_or_si256(v, _mm256_srli_epi64(v, 2)),
                _mm256_set1_epi64x(B),
            );
            v = _mm256_and_si256(
                _mm256_or_si256(v, _mm256_srli_epi64(v, 4)),
                _mm256_set1_epi64x(C),
            );
            v = _mm256_and_si256(
                _mm256_or_si256(v, _mm256_srli_epi64(v, 8)),
                _mm256_set1_epi64x(D),
            );
            v = _mm256_and_si256(
                _mm256_or_si256(v, _mm256_srli_epi64(v, 16)),
                _mm256_set1_epi64x(E),
            );
            v = _mm256_and_si256(
                _mm256_or_si256(v, _mm256_srli_epi64(v, 32)),
                _mm256_set1_epi64x(F),
            );
            v = _mm256_sll_epi64(v, _mm_cvtsi64_si128(up as i64));
            // narrow the three 64-bit lanes into (x, y, z, level) i32s
            let mut lanes = [0i64; 4];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
            AvxQuad::from_coords([lanes[0] as i32, lanes[1] as i32, lanes[2] as i32], level)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        #[test]
        fn mixed256_agrees_with_production_path() {
            for level in [0u8, 1, 4, 7, 18] {
                let count: u64 = 1 << (3 * level.min(4) as u32);
                for i in (0..count).step_by(3).chain([count - 1]) {
                    assert_eq!(
                        from_morton3_mixed256(i, level),
                        AvxQuad::<3>::from_morton(i, level),
                        "level {level} index {i}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrant::{conformance, convert, StandardQuad};

    #[test]
    fn size_is_16_bytes() {
        assert_eq!(core::mem::size_of::<AvxQuad<3>>(), 16);
        assert_eq!(core::mem::size_of::<AvxQuad<2>>(), 16);
        assert!(core::mem::align_of::<AvxQuad<3>>() >= 4);
    }

    #[test]
    fn conformance_2d() {
        conformance::<AvxQuad<2>>();
    }

    #[test]
    fn conformance_3d() {
        conformance::<AvxQuad<3>>();
    }

    #[test]
    fn lane_layout_matches_figure_1() {
        let q = AvxQuad::<3>::from_coords([10 << 14, 11 << 14, 13 << 14], 4);
        let [x, y, z, l] = q.lanes();
        assert_eq!((x, y, z, l), (10 << 14, 11 << 14, 13 << 14, 4));
    }

    #[test]
    fn from_morton_simd_agrees_with_standard() {
        for level in [0u8, 1, 2, 5, 9, 18] {
            let count: u64 = 1 << (3 * level.min(4) as u32);
            for i in (0..count).step_by(5).chain([count - 1]) {
                let a = AvxQuad::<3>::from_morton(i, level);
                let s = StandardQuad::<3>::from_morton(i, level);
                assert_eq!(a.coords(), s.coords(), "3D level {level} index {i}");
                assert_eq!(a.level(), level);
            }
        }
        for level in [0u8, 1, 3, 14, 28] {
            let count: u64 = 1 << (2 * level.min(6) as u32);
            for i in (0..count).step_by(3).chain([count - 1]) {
                let a = AvxQuad::<2>::from_morton(i, level);
                let s = StandardQuad::<2>::from_morton(i, level);
                assert_eq!(a.coords(), s.coords(), "2D level {level} index {i}");
            }
        }
    }

    #[test]
    fn child_parent_sibling_fneigh_agree_with_standard() {
        for level in [1u8, 4, 9] {
            for i in [0u64, 1, 7, 100, 511] {
                let count = 1u64 << (3 * level as u32);
                let i = i % count;
                let a = AvxQuad::<3>::from_morton(i, level);
                let s = StandardQuad::<3>::from_morton(i, level);
                assert_eq!(convert::<_, StandardQuad<3>>(&a.parent()), s.parent());
                for k in 0..8 {
                    assert_eq!(convert::<_, StandardQuad<3>>(&a.child(k)), s.child(k));
                    assert_eq!(convert::<_, StandardQuad<3>>(&a.sibling(k)), s.sibling(k));
                }
                for f in 0..6 {
                    let an = a.face_neighbor(f);
                    let sn = s.face_neighbor(f);
                    assert_eq!(an.coords(), sn.coords());
                    assert_eq!(an.level(), sn.level());
                }
                assert_eq!(a.tree_boundaries(), s.tree_boundaries());
            }
        }
    }

    #[test]
    fn exterior_neighbors_representable() {
        let q = AvxQuad::<3>::root().child(0).child(0);
        let n = q.face_neighbor(2);
        assert_eq!(n.coords()[1], -(1 << 16));
        assert!(!n.is_inside_root());
    }

    #[test]
    fn boundary_classification_2d_has_no_z() {
        let q = AvxQuad::<2>::root().child(0);
        let tb = q.tree_boundaries();
        assert_eq!(tb[0], 0);
        assert_eq!(tb[1], 2);
        assert_eq!(tb[2], -1, "2D must never report a z boundary");
    }

    #[test]
    fn repr_max_level() {
        // The lanes could hold level 31; the interoperable maximum
        // stays at the shared root resolution.
        assert_eq!(AvxQuad::<3>::MAX_LEVEL, 18);
        assert_eq!(AvxQuad::<2>::MAX_LEVEL, 28);
    }
}
