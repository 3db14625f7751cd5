//! Differential property tests for the runtime-dispatched batch kernels.
//!
//! Whatever tier `simd::features()` picked on this machine, every batch
//! kernel must be bit-identical to the scalar reference implementation
//! in `scalar_ref` — same binary, same inputs, random levels and both
//! dimensions. These are the tests that make the `#[target_feature]`
//! dispatch safe to extend: a new kernel that disagrees with the scalar
//! oracle on any lane fails here before it can disagree inside the
//! forest pipeline.

use proptest::collection::vec;
use proptest::prelude::*;
use quadforest_core::quadrant::{Quadrant, StandardQuad};
use quadforest_core::scalar_ref::{self, QuadSoA};
use quadforest_core::{batch, morton};

/// A random mixed-level quadrant batch: each element is a random Morton
/// index at a random level, so lanes differ in `h` and exercise the
/// per-lane variable shifts in the vector kernels.
fn soa_strategy<const D: usize>(max_level: u8) -> impl Strategy<Value = QuadSoA> {
    vec((1..=max_level, any::<u64>()), 0..200).prop_map(|items| {
        let quads: Vec<StandardQuad<D>> = items
            .into_iter()
            .map(|(level, raw)| {
                let index = raw % StandardQuad::<D>::uniform_count(level);
                StandardQuad::from_morton(index, level)
            })
            .collect();
        QuadSoA::from_quads(&quads)
    })
}

fn assert_soa_eq(a: &QuadSoA, b: &QuadSoA, what: &str) {
    assert_eq!(a.x, b.x, "{what}: x lanes diverge");
    assert_eq!(a.y, b.y, "{what}: y lanes diverge");
    assert_eq!(a.z, b.z, "{what}: z lanes diverge");
    assert_eq!(a.level, b.level, "{what}: level lanes diverge");
}

fn check_all_kernels<const D: usize>(soa: &QuadSoA, c: u32, f: u32, offset: [i32; 3]) {
    let dim = <StandardQuad<D> as Quadrant>::DIM;
    let max_level = <StandardQuad<D> as Quadrant>::MAX_LEVEL;
    let n = soa.len();
    let mut want = QuadSoA::with_len(n);
    let mut got = QuadSoA::with_len(n);

    scalar_ref::child_all(soa, c, max_level, &mut want);
    batch::child_all(soa, c, max_level, &mut got);
    assert_soa_eq(&want, &got, "child_all");

    scalar_ref::sibling_all(soa, c, max_level, &mut want);
    batch::sibling_all(soa, c, max_level, &mut got);
    assert_soa_eq(&want, &got, "sibling_all");

    scalar_ref::parent_all(soa, max_level, &mut want);
    batch::parent_all(soa, max_level, &mut got);
    assert_soa_eq(&want, &got, "parent_all");

    scalar_ref::face_neighbor_all(soa, f, max_level, &mut want);
    batch::face_neighbor_all(soa, f, max_level, &mut got);
    assert_soa_eq(&want, &got, "face_neighbor_all");

    scalar_ref::offset_neighbor_all(soa, offset, max_level, &mut want);
    batch::offset_neighbor_all(soa, offset, max_level, &mut got);
    assert_soa_eq(&want, &got, "offset_neighbor_all");

    let (mut wx, mut wy, mut wz) = (vec![0; n], vec![0; n], vec![0; n]);
    let (mut gx, mut gy, mut gz) = (vec![0; n], vec![0; n], vec![0; n]);
    scalar_ref::tree_boundaries_all(soa, dim, max_level, [&mut wx, &mut wy, &mut wz]);
    batch::tree_boundaries_all(soa, dim, max_level, [&mut gx, &mut gy, &mut gz]);
    assert_eq!(wx, gx, "tree_boundaries_all: x classification diverges");
    assert_eq!(wy, gy, "tree_boundaries_all: y classification diverges");
    assert_eq!(wz, gz, "tree_boundaries_all: z classification diverges");

    let mut want_keys = vec![0u64; n];
    let mut got_keys = vec![0u64; n];
    scalar_ref::sfc_keys_all(soa, dim, &mut want_keys);
    batch::sfc_keys_all(soa, dim, &mut got_keys);
    assert_eq!(want_keys, got_keys, "sfc_keys_all: keys diverge");
}

proptest! {
    /// 3D: every dispatched kernel equals the scalar oracle lane for lane.
    #[test]
    fn dispatched_kernels_match_scalar_3d(
        soa in soa_strategy::<3>(8),
        c in 0u32..8,
        f in 0u32..6,
        dx in -1i32..=1,
        dy in -1i32..=1,
        dz in -1i32..=1,
    ) {
        check_all_kernels::<3>(&soa, c, f, [dx, dy, dz]);
    }

    /// 2D: same property at the 2D level range (deeper trees, z = 0).
    #[test]
    fn dispatched_kernels_match_scalar_2d(
        soa in soa_strategy::<2>(12),
        c in 0u32..4,
        f in 0u32..4,
        dx in -1i32..=1,
        dy in -1i32..=1,
    ) {
        check_all_kernels::<2>(&soa, c, f, [dx, dy, 0]);
    }

    /// The runtime-dispatched Morton codecs agree with the portable
    /// magic-constant implementation on arbitrary inputs, the decoders
    /// also on every 64-bit word (bits no coordinate owns included).
    #[test]
    fn dispatched_morton_codecs_match_portable(x in any::<u32>(), y in any::<u32>(), z in any::<u32>(), m in any::<u64>()) {
        let (x2, y2) = (x, y);
        prop_assert_eq!(morton::encode2_rt(x2, y2), morton::encode2(x2, y2));
        let (x3, y3, z3) = (x & 0x1F_FFFF, y & 0x1F_FFFF, z & 0x1F_FFFF);
        prop_assert_eq!(morton::encode3_rt(x3, y3, z3), morton::encode3(x3, y3, z3));
        let m2 = morton::encode2(x2, y2);
        prop_assert_eq!(morton::decode2_rt(m2), morton::decode2(m2));
        let m3 = morton::encode3(x3, y3, z3);
        prop_assert_eq!(morton::decode3_rt(m3), morton::decode3(m3));
        prop_assert_eq!(morton::decode2_rt(m), morton::decode2(m));
        prop_assert_eq!(morton::decode3_rt(m), morton::decode3(m));
    }

    /// Batch keys match the per-quadrant trait keys, and sorting by them
    /// reproduces the comparator order.
    #[test]
    fn batch_keys_sort_like_compare_sfc(soa in soa_strategy::<3>(6)) {
        let quads: Vec<StandardQuad<3>> = soa.to_quads();
        let mut keys = vec![0u64; soa.len()];
        batch::sfc_keys_all(&soa, 3, &mut keys);
        for (k, q) in keys.iter().zip(&quads) {
            prop_assert_eq!(*k, q.sfc_key());
        }
        let mut by_key: Vec<(u64, StandardQuad<3>)> =
            keys.into_iter().zip(quads.clone()).collect();
        by_key.sort_by_key(|&(k, _)| k);
        let mut by_cmp = quads;
        by_cmp.sort_by(|a, b| a.compare_sfc(b));
        for ((_, a), b) in by_key.iter().zip(&by_cmp) {
            prop_assert_eq!(a, b);
        }
    }
}
