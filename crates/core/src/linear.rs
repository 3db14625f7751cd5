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
/// Implementation: the work runs on the `(morton_abs << 6) | level` keys
/// alone (batched through the runtime-dispatched SoA kernel for
/// coordinate representations), whose integer order is exactly
/// `compare_sfc` order: the keys are sorted, swept once, and each kept
/// one rebuilt over the consumed front of the input's buffer, so no
/// output is allocated. Equal keys are equal quadrants, so the rebuild is
/// exact; a `StandardQuad`'s payload comes back 0, the only value it has
/// outside this crate.
pub fn linearize<Q: Quadrant>(mut quads: Vec<Q>) -> Vec<Q> {
    // In sorted key order every key between an ancestor and one of its
    // descendants is itself a descendant-or-equal of that ancestor, so a
    // key covered by any later key is covered by the next one: keep a
    // key exactly when the next does not cover it (the finest of each
    // nesting chain, the last of each run of duplicates). `ka` is an
    // ancestor-or-equal of `kb` exactly when its level is <= and its
    // absolute index matches `kb`'s on the ancestor's aligned prefix.
    let dim = Q::DIM as u64;
    let max_level = Q::MAX_LEVEL as u64;
    let covered_by = |ka: u64, kb: u64| -> bool {
        let (la, lb) = (ka & 63, kb & 63);
        la <= lb && (ka >> 6) == (kb >> 6) & !((1u64 << (dim * (max_level - la))) - 1)
    };
    let mut keys = Q::sfc_keys(&quads);
    keys.sort_unstable();
    let mut kept = 0;
    for (i, &k) in keys.iter().enumerate() {
        if keys.get(i + 1).is_some_and(|&next| covered_by(k, next)) {
            continue;
        }
        let level = k & 63;
        quads[kept] = Q::from_morton((k >> 6) >> (dim * (max_level - level)), level as u8);
        kept += 1;
    }
    quads.truncate(kept);
    quads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrant::{AvxQuad, MortonQuad, StandardQuad};
    use crate::wire::Wire;

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

    /// `ms` converted to `Q`, linearized, as `(morton_abs, level)`.
    fn leaves<Q: Quadrant, const D: usize>(ms: &[MortonQuad<D>]) -> Vec<(u64, u8)> {
        let qs = ms.iter().map(|m| Q::from_coords(m.coords(), m.level()));
        let out = linearize(qs.collect());
        out.iter().map(|q| (q.morton_abs(), q.level())).collect()
    }

    /// The same scrambled multiset (duplicates, nested ancestor chains)
    /// in the three representations of dimension `D`, linearized: the
    /// outputs must be the same leaves in the same order.
    fn representations_agree<const D: usize>() {
        let mut rng = 0x5DEE_CE66_D00D_F00Du64 ^ D as u64;
        let mut ms: Vec<MortonQuad<D>> = Vec::new();
        for _ in 0..400 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let level = 1 + (rng >> 60) as u8 % 5;
            let idx = (rng >> 7) % (1u64 << (D as u32 * level as u32));
            ms.push(MortonQuad::from_morton(idx, level));
            if rng % 5 == 0 {
                ms.push(*ms.last().unwrap()); // duplicate
                ms.push(ms.last().unwrap().parent()); // nested ancestor
            }
        }
        let lm = leaves::<MortonQuad<D>, D>(&ms);
        let ls = leaves::<StandardQuad<D>, D>(&ms);
        let la = leaves::<AvxQuad<D>, D>(&ms);
        assert!(
            lm.len() > 100 && lm.len() < ms.len(),
            "{} of {}",
            lm.len(),
            ms.len()
        );
        assert_eq!(lm, ls);
        assert_eq!(lm, la);
    }

    #[test]
    fn the_three_representations_linearize_alike() {
        representations_agree::<2>();
        representations_agree::<3>();
    }

    /// The output is rebuilt in the input's buffer: no allocation, and
    /// the capacity never grows.
    fn hands_back_the_input_buffer<Q: Quadrant>() {
        let q = Q::root().child(1);
        let mut input = vec![q.child(3), q, q.child(3), Q::root().child(2), q.child(0)];
        input.reserve(11);
        let (ptr, cap) = (input.as_ptr(), input.capacity());
        let out = linearize(input);
        assert_eq!(out.len(), 3);
        assert_eq!(out.as_ptr(), ptr);
        assert!(out.capacity() <= cap);
    }

    #[test]
    fn linearize_reuses_the_input_allocation() {
        hands_back_the_input_buffer::<StandardQuad<3>>();
        hands_back_the_input_buffer::<MortonQuad<3>>();
        hands_back_the_input_buffer::<AvxQuad<3>>();
        hands_back_the_input_buffer::<Q2>();
    }

    #[test]
    fn standard_payloads_are_zero_so_the_rebuild_is_exact() {
        // linearize rebuilds each kept quadrant from its key, dropping
        // the payload: that is exact because every way to make a
        // `StandardQuad` outside this crate leaves the payload 0
        // (`with_payload` is crate-private and `successor` only copies)
        type S = StandardQuad<3>;
        let q = S::from_morton(0o1234, 4);
        let made = [
            S::root(),
            q,
            S::from_coords(q.coords(), q.level()),
            q.child(5),
            q.parent(),
            q.sibling(2),
            q.successor(),
            q.face_neighbor(1),
            q.ancestor(1),
            q.first_descendant(9),
            q.last_descendant(9),
            S::from_wire(&q.to_wire()).unwrap(),
        ];
        for m in made.iter().chain(&q.children()) {
            assert_eq!(m.payload(), 0, "{m:?}");
        }
        let out = linearize(made.to_vec());
        assert!(out.iter().all(|m| m.payload() == 0));
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
