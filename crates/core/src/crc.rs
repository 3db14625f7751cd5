//! CRC-32 (ISO-HDLC / zlib polynomial), by carry-less-multiply folding
//! or slicing-by-16, dependency-free.
//!
//! Guards every checkpoint section and every socket/TCP transport frame
//! against bit rot, torn writes and truncated reads. CRC-32 detects all
//! single-bit flips and all burst errors up to 32 bits, which covers
//! the failure modes a local filesystem or a dying peer process can
//! inject (partial sector writes, bit rot, mid-frame EOF) — stronger
//! adversaries are out of scope for a crash-consistency layer.
//!
//! **Kernels.** Two, behind the one [`crate::simd`] decision. Where
//! the CPU has `pclmulqdq` and SSE4.1, [`crc32`] folds the 16-byte
//! multiple prefix of a buffer of ≥ 64 bytes by carry-less multiply
//! (Gopal et al., Intel 2009, with zlib's constants): four 128-bit
//! lanes advance 64 bytes a step, fold into one lane, which advances
//! 16 bytes a step, then 128 → 64 bits and a Barrett reduction to 32.
//! The rest — the < 16-byte tail, short buffers, non-x86 targets, the
//! forced-scalar tier — runs the portable slicing-by-16 kernel: table
//! `k` holds the CRC of a byte followed by `k` zero bytes, so the 16
//! bytes of a block are looked up independently and XOR-folded (16 KiB
//! of tables, built once). Both give the same value, so no stored
//! checksum moves. Like the BMI2 codecs, the call is not counted.
//! [`crc32_combine`] joins two CRCs without their bytes; the process
//! link mends a relayed packet's CRC with it.
//!
//! **Why a hardware tier.** A process-backend message is summed three
//! times per payload byte — the sender seals the frame, the router
//! checks the hop, the receiver checks end to end — so at the sliced
//! kernel's ≈ 1.6 GB/s the CRC cost ≈ 1.9 ms of CPU per MB per
//! direction, the largest per-byte stage on the message path (encode
//! and decode run at 3.3–3.9 GB/s and touch each byte once). On a
//! 2-vcpu Intel Xeon VM the fold runs at 9.8–21.5 GB/s and took the
//! `comm_exchange` benchmark's 1 MB alltoallv from 4.55 to 2.88 ms at
//! p10 (EXPERIMENTS.md). The x86 `crc32` instruction is no substitute:
//! it computes CRC-32C, another polynomial, which would change every
//! stored checksum.

/// Number of lookup tables: bytes folded per loop iteration.
const SLICES: usize = 16;

/// The polynomial, bit-reflected: x^k is bit 31 - k.
const POLY: u32 = 0xEDB8_8320;

/// Lazily built lookup tables for [`POLY`]: `t[0]` is the
/// byte-at-a-time table, `t[k][b]` the CRC of byte `b` followed by `k`
/// zero bytes.
fn tables() -> &'static [[u32; 256]; SLICES] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; SLICES]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; SLICES];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        for k in 1..SLICES {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC-32 of `data` (same parameters as zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    let (mut c, mut rest) = (0xFFFF_FFFFu32, data);
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 64 && crate::simd::has_clmul() {
        let (folded, tail) = data.split_at(data.len() & !15);
        // SAFETY: PCLMULQDQ and SSE4.1 confirmed on the running CPU
        c = unsafe { clmul::fold(c, folded) };
        rest = tail;
    }
    sliced(c, rest) ^ 0xFFFF_FFFF
}

/// CRC-32 of `a` followed by `b`, from `crc32(a)`, `crc32(b)` and
/// `b.len()`, in O(log len) products (zlib's `crc32_combine`): `crc_a`
/// carried across `len_b` bytes is a product with x^(8·len_b) modulo
/// the polynomial, found by squaring.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    // a · b modulo the polynomial, both bit-reflected
    let multiply = |a: u32, mut b: u32| {
        let mut p = 0;
        for k in 0..32 {
            p ^= b & 0u32.wrapping_sub(a >> (31 - k) & 1);
            b = (b >> 1) ^ (POLY & 0u32.wrapping_sub(b & 1));
        }
        p
    };
    let (mut shift, mut x8, mut n) = (1 << 31, 1 << 23, len_b); // x^0 and x^8
    while n != 0 {
        shift = if n & 1 == 1 {
            multiply(x8, shift)
        } else {
            shift
        };
        (x8, n) = (multiply(x8, x8), n >> 1);
    }
    multiply(shift, crc_a) ^ crc_b
}

/// The portable kernel: the running CRC state `c` advanced over `data`
/// by slicing-by-16, the < 16-byte remainder a byte at a time.
fn sliced(mut c: u32, data: &[u8]) -> u32 {
    let t = tables();
    let word = |b: &[u8], i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
    let mut blocks = data.chunks_exact(SLICES);
    for b in &mut blocks {
        // the running CRC only enters the first word: bytes further
        // into the block see it through the zero-extended tables
        let w = [word(b, 0) ^ c, word(b, 4), word(b, 8), word(b, 12)];
        c = 0;
        for (j, w) in w.iter().enumerate() {
            let hi = SLICES - 1 - 4 * j;
            c ^= t[hi][(w & 0xFF) as usize]
                ^ t[hi - 1][((w >> 8) & 0xFF) as usize]
                ^ t[hi - 2][((w >> 16) & 0xFF) as usize]
                ^ t[hi - 3][(w >> 24) as usize];
        }
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The carry-less-multiply folding kernel. Each fold constant k1–k5 is
/// `x^n mod P(x)` for the distance it folds, bit-reflected and shifted
/// left by one, so a 64 × 64 → 127-bit product lands aligned.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use core::arch::x86_64::*;

    /// k1, k2: fold each of four lanes 512 bits ahead.
    const K1K2: [i64; 2] = [0x1_5444_2bd4, 0x1_c6e4_1596];
    /// k3, k4: fold one lane 128 bits ahead.
    const K3K4: [i64; 2] = [0x1_7519_97d0, 0x0_ccaa_009e];
    /// k5: fold the last 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// P′ (the polynomial) and μ (its Barrett quotient).
    const POLY_MU: [i64; 2] = [0x1_db71_0641, 0x1_f701_1641];

    /// `x` folded ahead by the distance `k` encodes, XORed onto `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn ahead(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The running CRC state `crc` advanced over `data`.
    ///
    /// # Safety
    /// The running CPU has `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(crc: u32, data: &[u8]) -> u32 {
        // the loads below are raw-pointer reads, in bounds because of this
        assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        let set = |k: [i64; 2]| _mm_set_epi64x(k[1], k[0]);
        // SAFETY: `i + 16 <= data.len()` at every call; loadu has no
        // alignment demands
        let load = |i: usize| unsafe { _mm_loadu_si128(data.as_ptr().add(i).cast()) };
        let mut x = [load(0), load(16), load(32), load(48)];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let mut at = 64;
        let k = set(K1K2);
        while at + 64 <= data.len() {
            for (j, lane) in x.iter_mut().enumerate() {
                *lane = ahead(*lane, k, load(at + 16 * j));
            }
            at += 64;
        }
        let k = set(K3K4);
        let mut r = ahead(ahead(ahead(x[0], k, x[1]), k, x[2]), k, x[3]);
        while at < data.len() {
            r = ahead(r, k, load(at));
            at += 16;
        }
        // 128 → 64 bits, then 64 → 32 by Barrett reduction
        let low32 = _mm_setr_epi32(-1, 0, -1, 0);
        r = _mm_xor_si128(_mm_srli_si128::<8>(r), _mm_clmulepi64_si128::<0x10>(r, k));
        let k5 = _mm_set_epi64x(0, K5);
        let folded = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(r, low32), k5);
        r = _mm_xor_si128(_mm_srli_si128::<4>(r), folded);
        let pm = set(POLY_MU);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(r, low32), pm);
        let q = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), pm);
        _mm_extract_epi32::<1>(_mm_xor_si128(r, q)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Byte-at-a-time reference: the kernel this module shipped before
    /// slicing, kept as the oracle the sliced kernel is held equal to.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let t = &tables()[0];
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // reference values from zlib's crc32()
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn combined_crcs_are_the_crc_of_the_concatenation() {
        let data: Vec<u8> = (0..70_000u32).map(|i| (i * 31 + 7) as u8).collect();
        for split in [0, 1, 16, 63, 64, 1000, 65_536, 70_000] {
            let (a, b) = data.split_at(split);
            for b in [b, &b[..b.len().min(17)]] {
                let joined = [a, b].concat();
                let combined = crc32_combine(crc32(a), crc32(b), b.len());
                assert_eq!(combined, crc32(&joined), "{} + {} bytes", a.len(), b.len());
            }
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_crc() {
        // 269 bytes: 256 folded by the carry-less kernel, a 13-byte tail
        let mut data = b"quadforest checkpoint shard".repeat(10);
        data.truncate(269);
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }

    /// The fold on `data` as a whole CRC, when this CPU can run it — the
    /// forced-scalar tier too, whose `crc32` never reaches it.
    fn folded(data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: both features were detected on this CPU just above
            return Some(unsafe { clmul::fold(0xFFFF_FFFF, data) } ^ 0xFFFF_FFFF);
        }
        let _ = data; // read only on x86_64
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // 64..=320 takes the 64-byte loop 0–4 times, each time followed
        // by 0–3 single 16-byte folds
        #[test]
        fn fold_equals_bytewise_at_every_length(
            bytes in proptest::collection::vec(any::<u8>(), 320),
        ) {
            for len in (64..=bytes.len()).step_by(16) {
                if let Some(got) = folded(&bytes[..len]) {
                    prop_assert_eq!(got, crc32_bytewise(&bytes[..len]), "len {}", len);
                }
            }
        }

        // the fold's unaligned loads at every start offset of a 64-byte
        // window, and the portable kernel on the long buffers `crc32`
        // hands to the fold wherever the CPU has one
        #[test]
        fn fold_and_sliced_equal_bytewise_at_every_offset(
            bytes in proptest::collection::vec(any::<u8>(), 1024..4096),
        ) {
            for off in 0..64 {
                let from = &bytes[off..];
                let want = crc32_bytewise(from);
                prop_assert_eq!(sliced(0xFFFF_FFFF, from) ^ 0xFFFF_FFFF, want, "sliced, offset {}", off);
                let body = &from[..from.len() & !15];
                if let Some(got) = folded(body) {
                    prop_assert_eq!(got, crc32_bytewise(body), "fold, offset {}", off);
                }
            }
        }

        // every block-count / tail-length combination around the
        // 16-byte block: 0..=130 covers 0–8 whole blocks with every tail
        #[test]
        fn sliced_equals_bytewise_at_every_short_length(
            bytes in proptest::collection::vec(any::<u8>(), 130),
        ) {
            for len in 0..=bytes.len() {
                prop_assert_eq!(crc32(&bytes[..len]), crc32_bytewise(&bytes[..len]), "len {}", len);
            }
        }

        // long buffers, started at every offset of a 64-byte window (the
        // slice's address alignment must not matter) and cut at every
        // tail length of the same window
        #[test]
        fn sliced_equals_bytewise_on_long_buffers_at_every_offset(
            bytes in proptest::collection::vec(any::<u8>(), 1024..8192),
        ) {
            for off in 0..64 {
                let from = &bytes[off..];
                prop_assert_eq!(crc32(from), crc32_bytewise(from), "offset {}", off);
                let upto = &bytes[..bytes.len() - off];
                prop_assert_eq!(crc32(upto), crc32_bytewise(upto), "tail cut {}", off);
            }
        }
    }
}
