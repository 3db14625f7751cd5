//! Morton (Z-order) curve codec.
//!
//! The Morton index of a quadrant is obtained by bitwise interleaving of its
//! coordinates: for 2D, `I = ... y1 x1 y0 x0`; for 3D, `I = ... z0 y0 x0`
//! with `x` occupying the least significant position of each group, matching
//! the bit layout in Section 2.2 of the paper
//! (`q = level | 00 | z1 y1 x1 ... z18 y18 x18` read from the most
//! significant coordinate bit down).
//!
//! Two interchangeable implementations are provided:
//!
//! * **magic** — branch-free shift/mask "magic number" spreading, the
//!   portable default,
//! * **bmi2** — `pdep`/`pext` hardware bit deposit/extract, compiled on
//!   every x86_64 build and selected at *runtime* by the
//!   [`encode2_rt`]-style codecs, each of which branches per call on
//!   [`crate::simd`]'s cached answer to "does this CPU have BMI2?".
//!
//! All functions are pure and `const`-friendly where the instruction set
//! allows. Property tests in this module verify that the two
//! implementations agree bit-for-bit over the full input domain shape.

/// Number of coordinate bits that fit a 64-bit Morton index in 2D.
pub(crate) const MORTON_BITS_2D: u32 = 28;
/// Number of coordinate bits that fit the low 56 bits of a raw Morton
/// quadrant word in 3D (`\lfloor 56/3 \rfloor`, as in the paper).
pub(crate) const MORTON_BITS_3D: u32 = 18;

/// The repeating 3D direction pattern `0b...001001001` over 54 bits:
/// a `1` at every x-coordinate bit position of a 3D Morton index.
pub(crate) const DIR_PATTERN_3D: u64 = {
    let mut p: u64 = 0;
    let mut i = 0;
    while i < MORTON_BITS_3D {
        p |= 1 << (3 * i);
        i += 1;
    }
    p
};

/// The repeating 2D direction pattern `0b...010101` over 56 bits:
/// a `1` at every x-coordinate bit position of a 2D Morton index.
pub(crate) const DIR_PATTERN_2D: u64 = {
    let mut p: u64 = 0;
    let mut i = 0;
    while i < MORTON_BITS_2D {
        p |= 1 << (2 * i);
        i += 1;
    }
    p
};

// ---------------------------------------------------------------------------
// Magic-number spread / compact
// ---------------------------------------------------------------------------

/// Spread the low 32 bits of `x` so that bit `i` of the input lands at bit
/// `2*i` of the output (2D dilation).
#[inline]
pub(crate) const fn spread2(x: u32) -> u64 {
    let mut x = x as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Inverse of [`spread2`]: gather every second bit (starting at bit 0)
/// into a contiguous low field.
#[inline]
pub(crate) const fn compact2(x: u64) -> u32 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x as u32
}

/// Spread the low 21 bits of `x` so that bit `i` of the input lands at bit
/// `3*i` of the output (3D dilation).
#[inline]
pub(crate) const fn spread3(x: u32) -> u64 {
    let mut x = (x as u64) & 0x1F_FFFF;
    x = (x | (x << 32)) & 0x001F_0000_0000_FFFF;
    x = (x | (x << 16)) & 0x001F_0000_FF00_00FF;
    x = (x | (x << 8)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x << 4)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x << 2)) & 0x1249_2492_4924_9249;
    x
}

/// Inverse of [`spread3`]: gather every third bit (starting at bit 0)
/// into a contiguous low field.
#[inline]
pub(crate) const fn compact3(x: u64) -> u32 {
    let mut x = x & 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x >> 4)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x >> 8)) & 0x001F_0000_FF00_00FF;
    x = (x | (x >> 16)) & 0x001F_0000_0000_FFFF;
    x = (x | (x >> 32)) & 0x0000_0000_001F_FFFF;
    x as u32
}

/// Interleave two coordinates into a 2D Morton index
/// (`x` in the even bit positions, `y` in the odd ones).
#[inline]
pub const fn encode2(x: u32, y: u32) -> u64 {
    spread2(x) | (spread2(y) << 1)
}

/// Deinterleave a 2D Morton index into `(x, y)`.
#[inline]
pub const fn decode2(m: u64) -> (u32, u32) {
    (compact2(m), compact2(m >> 1))
}

/// Interleave three coordinates into a 3D Morton index
/// (`x` in bit positions `3i`, `y` in `3i+1`, `z` in `3i+2`).
#[inline]
pub const fn encode3(x: u32, y: u32, z: u32) -> u64 {
    spread3(x) | (spread3(y) << 1) | (spread3(z) << 2)
}

/// Deinterleave a 3D Morton index into `(x, y, z)`.
#[inline]
pub const fn decode3(m: u64) -> (u32, u32, u32) {
    (compact3(m), compact3(m >> 1), compact3(m >> 2))
}

// ---------------------------------------------------------------------------
// BMI2 pdep/pext implementation (x86_64 only)
// ---------------------------------------------------------------------------

/// BMI2 `pdep`/`pext` codec. Compiled on every x86_64 build (each
/// function carries `#[target_feature(enable = "bmi2")]`, so the
/// compiler emits `pdep`/`pext` regardless of the build's baseline
/// features) and reached through runtime dispatch: callers must either
/// run inside another `bmi2`-enabled function or branch on
/// [`crate::simd::has_bmi2`] first, as the [`encode3_rt`]-style codecs
/// below do. The public [`encode2`]-style entry points keep using the
/// magic-number path so that `const` evaluation and cross-platform
/// results stay identical.
///
/// Calling any of these from a context without the `bmi2` target
/// feature is `unsafe`; the caller must have confirmed BMI2 on the
/// running CPU.
#[cfg(target_arch = "x86_64")]
pub(crate) mod bmi2 {
    use core::arch::x86_64::{_pdep_u64, _pext_u64};

    const MASK_X2: u64 = 0x5555_5555_5555_5555;
    const MASK_Y2: u64 = 0xAAAA_AAAA_AAAA_AAAA;
    const MASK_X3: u64 = 0x1249_2492_4924_9249;
    const MASK_Y3: u64 = MASK_X3 << 1;
    const MASK_Z3: u64 = MASK_X3 << 2;

    /// 2D interleave via two `pdep` instructions.
    #[inline]
    #[target_feature(enable = "bmi2")]
    pub(crate) fn encode2(x: u32, y: u32) -> u64 {
        _pdep_u64(x as u64, MASK_X2) | _pdep_u64(y as u64, MASK_Y2)
    }

    /// 2D deinterleave via two `pext` instructions.
    #[inline]
    #[target_feature(enable = "bmi2")]
    pub(crate) fn decode2(m: u64) -> (u32, u32) {
        (_pext_u64(m, MASK_X2) as u32, _pext_u64(m, MASK_Y2) as u32)
    }

    /// 3D interleave via three `pdep` instructions.
    #[inline]
    #[target_feature(enable = "bmi2")]
    pub(crate) fn encode3(x: u32, y: u32, z: u32) -> u64 {
        _pdep_u64(x as u64, MASK_X3) | _pdep_u64(y as u64, MASK_Y3) | _pdep_u64(z as u64, MASK_Z3)
    }

    /// 3D deinterleave via three `pext` instructions, the three 21-bit
    /// coordinates returned packed in one register: `x` from bit 0, `y`
    /// from bit 22, `z` from bit 43. A `(u32, u32, u32)` return goes
    /// through memory, and the caller's one 8-byte reload of the callee's
    /// 4-byte stores stalls store forwarding.
    #[inline]
    #[target_feature(enable = "bmi2")]
    pub(crate) fn decode3(m: u64) -> u64 {
        _pext_u64(m, MASK_X3) | (_pext_u64(m, MASK_Y3) << 22) | (_pext_u64(m, MASK_Z3) << 43)
    }
}

/// Runtime-dispatched 2D interleave: `pdep` when the CPU has BMI2,
/// the magic-number path otherwise. Per element, so not counted as a
/// dispatch.
#[inline]
pub fn encode2_rt(x: u32, y: u32) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::has_bmi2() {
        // SAFETY: BMI2 confirmed on the running CPU
        return unsafe { bmi2::encode2(x, y) };
    }
    encode2(x, y)
}

/// Runtime-dispatched 2D deinterleave (see [`encode2_rt`]).
#[inline]
pub fn decode2_rt(m: u64) -> (u32, u32) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::has_bmi2() {
        // SAFETY: BMI2 confirmed on the running CPU
        return unsafe { bmi2::decode2(m) };
    }
    decode2(m)
}

/// Runtime-dispatched 3D interleave (see [`encode2_rt`]).
#[inline]
pub fn encode3_rt(x: u32, y: u32, z: u32) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::has_bmi2() {
        // SAFETY: BMI2 confirmed on the running CPU
        return unsafe { bmi2::encode3(x, y, z) };
    }
    encode3(x, y, z)
}

/// Runtime-dispatched 3D deinterleave (see [`encode2_rt`]).
#[inline]
pub fn decode3_rt(m: u64) -> (u32, u32, u32) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::has_bmi2() {
        // SAFETY: BMI2 confirmed on the running CPU
        let p = unsafe { bmi2::decode3(m) };
        let lane = |from: u32| (p >> from) as u32 & 0x1F_FFFF;
        return (lane(0), lane(22), lane(43));
    }
    decode3(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread2_roundtrip_exhaustive_low() {
        for x in 0u32..=0xFFFF {
            assert_eq!(compact2(spread2(x)), x);
        }
    }

    #[test]
    fn spread3_roundtrip_edges() {
        for x in [0u32, 1, 2, 3, 0xFF, 0x100, 0x1FFFF, 0x3FFFF, 0x1F_FFFF] {
            assert_eq!(compact3(spread3(x)), x & 0x1F_FFFF);
        }
    }

    #[test]
    fn encode2_first_quadrants() {
        // The Z curve visits (0,0) (1,0) (0,1) (1,1) for the first 2x2 block.
        assert_eq!(encode2(0, 0), 0);
        assert_eq!(encode2(1, 0), 1);
        assert_eq!(encode2(0, 1), 2);
        assert_eq!(encode2(1, 1), 3);
        assert_eq!(encode2(2, 0), 4);
        assert_eq!(encode2(3, 3), 15);
    }

    #[test]
    fn encode3_first_octants() {
        assert_eq!(encode3(0, 0, 0), 0);
        assert_eq!(encode3(1, 0, 0), 1);
        assert_eq!(encode3(0, 1, 0), 2);
        assert_eq!(encode3(1, 1, 0), 3);
        assert_eq!(encode3(0, 0, 1), 4);
        assert_eq!(encode3(1, 1, 1), 7);
        assert_eq!(encode3(2, 0, 0), 8);
    }

    #[test]
    fn encode3_decode3_roundtrip_sampled() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = (state >> 10) as u32 & 0x3_FFFF;
            let y = (state >> 28) as u32 & 0x3_FFFF;
            let z = (state >> 46) as u32 & 0x3_FFFF;
            assert_eq!(decode3(encode3(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn encode2_decode2_roundtrip_sampled() {
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = (state >> 8) as u32 & 0x0FFF_FFFF;
            let y = (state >> 36) as u32 & 0x0FFF_FFFF;
            assert_eq!(decode2(encode2(x, y)), (x, y));
        }
    }

    #[test]
    fn morton_order_is_monotone_along_x_rows() {
        // Within a row at fixed small y, increasing x never decreases the code
        // within the same 2^k block; spot-check strict growth along x at y=0.
        let mut prev = 0;
        for x in 1u32..1000 {
            let code = encode2(x, 0);
            assert!(code > prev, "Morton code must grow along the x axis at y=0");
            prev = code;
        }
    }

    #[test]
    fn dir_patterns() {
        assert_eq!(DIR_PATTERN_3D & 0b111, 0b001);
        assert_eq!(DIR_PATTERN_3D.count_ones(), MORTON_BITS_3D);
        assert_eq!(DIR_PATTERN_2D.count_ones(), MORTON_BITS_2D);
        // The pattern must fit below the level byte of the raw representation.
        assert!(DIR_PATTERN_3D < (1 << 54));
        assert!(DIR_PATTERN_2D < (1 << 56));
        // Shifting by one and two positions yields the y and z patterns.
        assert_eq!((DIR_PATTERN_3D << 1).count_ones(), MORTON_BITS_3D);
        assert_eq!((DIR_PATTERN_3D << 2).count_ones(), MORTON_BITS_3D);
    }

    /// Differential check of the BMI2 path on the same binary: skipped
    /// (trivially passing through the magic-number path) only when the
    /// running CPU lacks BMI2 or the scalar tier is forced.
    #[test]
    fn bmi2_agrees_with_magic() {
        let mut state = 0xABCD_EF01_2345_6789u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = (state >> 10) as u32 & 0x3_FFFF;
            let y = (state >> 28) as u32 & 0x3_FFFF;
            let z = (state >> 46) as u32 & 0x3_FFFF;
            assert_eq!(encode3_rt(x, y, z), encode3(x, y, z));
            assert_eq!(decode3_rt(encode3(x, y, z)), (x, y, z));
            let x2 = (state >> 5) as u32 & 0x0FFF_FFFF;
            let y2 = (state >> 33) as u32 & 0x0FFF_FFFF;
            assert_eq!(encode2_rt(x2, y2), encode2(x2, y2));
            assert_eq!(decode2_rt(encode2(x2, y2)), (x2, y2));
        }
        #[cfg(target_arch = "x86_64")]
        if crate::simd::has_bmi2() {
            // SAFETY: BMI2 confirmed on this CPU.
            unsafe {
                assert_eq!(bmi2::encode3(1, 2, 3), encode3(1, 2, 3));
                assert_eq!(bmi2::encode2(5, 9), encode2(5, 9));
            }
        }
    }
}
