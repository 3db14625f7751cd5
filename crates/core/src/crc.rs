//! CRC-32 (ISO-HDLC / zlib polynomial), slicing-by-16, dependency-free.
//!
//! Guards every checkpoint section and every socket/TCP transport frame
//! against bit rot, torn writes and truncated reads. CRC-32 detects all
//! single-bit flips and all burst errors up to 32 bits, which covers
//! the failure modes a local filesystem or a dying peer process can
//! inject (partial sector writes, bit rot, mid-frame EOF) — stronger
//! adversaries are out of scope for a crash-consistency layer.
//!
//! **Kernel.** One portable kernel: the classic table-driven CRC
//! unrolled over 16-byte blocks ("slicing-by-16"). Table `k` holds the
//! CRC of a byte followed by `k` zero bytes, so the sixteen bytes of a
//! block are looked up independently and XOR-folded — the loop-carried
//! dependency is one XOR per block instead of one table lookup per
//! byte. The remainder (< 16 bytes) goes through the byte-at-a-time
//! step on table 0. The tables are 16 × 256 × 4 B = 16 KiB, built once
//! behind a `OnceLock`; they fit in L1 next to the data being summed.
//!
//! **Why no hardware tier.** The x86 `crc32` instruction (SSE4.2)
//! computes CRC-32C, a *different polynomial*; the frame format and
//! the checkpoint files already on disk are pinned to the zlib
//! polynomial, so using it would change every stored checksum. A
//! carry-less-multiply (PCLMULQDQ) folding kernel does compute this
//! polynomial, but it would be a second production path selected by
//! CPU feature — `unsafe` intrinsics, a dispatch tier and a test
//! matrix of its own — for a stage that, sliced, costs about 0.5 ms
//! per MB: the same order as the encode, decode and socket copies
//! beside it on the message path. One kernel, one result, on every
//! platform.

/// Number of lookup tables: bytes folded per loop iteration.
const SLICES: usize = 16;

/// Lazily built lookup tables for the reflected polynomial
/// `0xEDB88320`: `t[0]` is the byte-at-a-time table, `t[k][b]` the CRC
/// of byte `b` followed by `k` zero bytes.
fn tables() -> &'static [[u32; 256]; SLICES] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; SLICES]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; SLICES];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
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
    let t = tables();
    let word = |b: &[u8], i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
    let mut c = 0xFFFF_FFFFu32;
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
    c ^ 0xFFFF_FFFF
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
    fn every_single_bit_flip_changes_the_crc() {
        let data = b"quadforest checkpoint shard".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

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
