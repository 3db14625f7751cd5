//! Linear-octree sequence algorithms.
//!
//! A *linear octree* is a sorted, overlap-free sequence of quadrants —
//! the storage form of every tree in the forest (Section 2 of the paper:
//! "the quadrants form a disjoint union of all leaves ... in the order
//! of a space filling curve"). This module provides the classic
//! sequence-level algorithms of Sundar, Sampath & Biros (SIAM J. Sci.
//! Comput. 30, 2008) that p4est builds on:
//!
//! * [`is_linear`] — check sortedness and disjointness,
//! * [`linearize`] — sort and remove ancestors (keep finest).
//!
//! All functions are generic over the quadrant representation.

use crate::quadrant::Quadrant;

/// True when `quads` is sorted in SFC order and pairwise disjoint
/// (no element is an ancestor of another).
pub fn is_linear<Q: Quadrant>(quads: &[Q]) -> bool {
    quads
        .windows(2)
        .all(|w| w[0].compare_sfc(&w[1]).is_lt() && !w[0].is_ancestor_of(&w[1]))
}

/// Sort into SFC order and drop every quadrant that has a descendant in
/// the set (keep the finest, as p4est's `p4est_linearize` does), also
/// dropping duplicates.
///
/// Implementation: extract the `(morton_abs << 6) | level` key of every
/// quadrant once (batched through the runtime-dispatched SoA kernel for
/// coordinate representations) and `sort_unstable_by_key` on the keys —
/// integer key order is exactly `compare_sfc` order, and dedup plus the
/// ancestor sweep run on the keys alone without touching the quadrants
/// again.
pub fn linearize<Q: Quadrant>(mut quads: Vec<Q>) -> Vec<Q> {
    // In SFC order an ancestor immediately precedes its descendants, but
    // several nested ancestors may chain; sweep backwards keeping the
    // last (deepest-first-corner) of each nesting chain. Equal keys are
    // equal quadrants (the key packs the full curve position and level),
    // and `ka` is an ancestor-or-equal of `kb` exactly when its level is
    // <= and its absolute index matches `kb`'s on the ancestor's aligned
    // prefix — both checks run on the keys.
    let dim = Q::DIM;
    let max_level = Q::MAX_LEVEL as u64;
    let covered_by = |ka: u64, kb: u64| -> bool {
        let (la, lb) = (ka & 63, kb & 63);
        la <= lb && (ka >> 6) == (kb >> 6) & !((1u64 << (dim as u64 * (max_level - la))) - 1)
    };
    if Q::SFC_KEY_IS_IDENTITY {
        // Key extraction is a re-reading of the stored word: sorting the
        // quadrants directly moves half the bytes of the `(key, quad)`
        // pair sort below, and the sweep re-derives each key for the
        // price of a rotate. `sort_word` is the representation's
        // cheapest monotone self-reading (one `rol` for raw Morton, vs
        // the mask–shift–or trait packing), with the level in its low
        // `SORT_WORD_LEVEL_BITS` — the ancestor check adjusts its shifts
        // to that packing.
        let lb = Q::SORT_WORD_LEVEL_BITS;
        let covered_by_word = |wa: u64, wb: u64| -> bool {
            let (la, lbv) = (wa & ((1u64 << lb) - 1), wb & ((1u64 << lb) - 1));
            la <= lbv && (wa >> lb) == (wb >> lb) & !((1u64 << (dim as u64 * (max_level - la))) - 1)
        };
        quads.sort_unstable_by_key(Q::sort_word);
        let mut kept: Vec<Q> = Vec::with_capacity(quads.len());
        for q in quads.into_iter().rev() {
            if let Some(last) = kept.last() {
                if covered_by_word(q.sort_word(), last.sort_word()) {
                    continue; // drop the duplicate or coarser copy
                }
            }
            kept.push(q);
        }
        kept.reverse();
        return kept;
    }
    let keys = Q::sfc_keys(&quads);
    let mut order: Vec<(u64, Q)> = keys.into_iter().zip(quads).collect();
    order.sort_unstable_by_key(|&(k, _)| k);
    let mut kept: Vec<(u64, Q)> = Vec::with_capacity(order.len());
    for (k, q) in order.into_iter().rev() {
        if let Some((lk, _)) = kept.last() {
            if covered_by(k, *lk) {
                continue; // drop the duplicate or coarser copy
            }
        }
        kept.push((k, q));
    }
    kept.reverse();
    kept.into_iter().map(|(_, q)| q).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrant::{AvxQuad, MortonQuad, StandardQuad};

    type Q2 = StandardQuad<2>;

    #[test]
    fn linear_checks() {
        let a = Q2::from_morton(0, 2);
        let b = Q2::from_morton(1, 2);
        assert!(is_linear(&[a, b]));
        assert!(!is_linear(&[b, a]), "out of order");
        let anc = a.parent();
        assert!(!is_linear(&[anc, a]), "ancestor overlap");
        assert!(is_linear(&[a]));
    }

    #[test]
    fn linearize_removes_ancestors_keeps_finest() {
        let deep = Q2::root().child(1).child(2).child(3);
        let mid = Q2::root().child(1).child(2);
        let coarse = Q2::root().child(1);
        let other = Q2::root().child(3);
        let out = linearize(vec![coarse, other, deep, mid, deep]);
        assert_eq!(out, vec![deep, other]);
        assert!(is_linear(&out));
    }

    #[test]
    fn identity_sort_word_path_matches_keyed_path() {
        // the same scrambled multiset (duplicates, nested ancestor
        // chains) linearized through the raw-Morton identity path (sorts
        // rotated words) and the Standard keyed path must agree leaf for
        // leaf — and the sort words themselves must order like the keys
        let mut rng = 0x5DEE_CE66_D00D_F00Du64;
        let mut ms: Vec<MortonQuad<2>> = Vec::new();
        let mut ss: Vec<StandardQuad<2>> = Vec::new();
        for _ in 0..400 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let level = 1 + (rng >> 60) as u8 % 5;
            let idx = (rng >> 7) % (1u64 << (2 * level as u32));
            ms.push(MortonQuad::from_morton(idx, level));
            ss.push(StandardQuad::from_morton(idx, level));
            if rng % 5 == 0 {
                ms.push(*ms.last().unwrap()); // duplicate
                ss.push(*ss.last().unwrap());
                ms.push(ms.last().unwrap().parent()); // nested ancestor
                ss.push(ss.last().unwrap().parent());
            }
        }
        let lm = linearize(ms.clone());
        let ls = linearize(ss);
        assert_eq!(lm.len(), ls.len());
        for (m, s) in lm.iter().zip(&ls) {
            assert_eq!(m.morton_abs(), s.morton_abs());
            assert_eq!(m.level(), s.level());
        }
        // sort_word is monotone in compare_sfc and packs the level low
        for (a, b) in ms.iter().zip(ms.iter().skip(1)) {
            assert_eq!(
                a.sort_word().cmp(&b.sort_word()),
                a.compare_sfc(b),
                "{a:?} vs {b:?}"
            );
            let lbits = <MortonQuad<2> as Quadrant>::SORT_WORD_LEVEL_BITS;
            assert_eq!(a.sort_word() & ((1 << lbits) - 1), a.level() as u64);
            assert_eq!(a.sort_word() >> lbits, a.morton_abs());
        }
    }

    #[test]
    fn works_for_avx_representation() {
        let deep = AvxQuad::<3>::root().child(2).child(6);
        let other = AvxQuad::<3>::root().child(5);
        let out = linearize(vec![other, deep, deep.parent(), deep]);
        assert_eq!(out, vec![deep, other]);
        assert!(is_linear(&out));
        assert!(!is_linear(&[deep.parent(), deep]));
    }
}
