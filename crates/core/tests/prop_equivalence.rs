//! Property-based cross-representation equivalence tests.
//!
//! The central correctness claim of the paper is that the three (plus one
//! future-work) quadrant representations are *mathematically equivalent*:
//! any sequence of low-level operations must produce logically identical
//! quadrants regardless of the underlying encoding. These properties
//! drive all representations through random operation sequences and
//! compare them step by step.

use proptest::prelude::*;
use quadforest_core::quadrant::{convert, AvxQuad, MortonQuad, Quadrant, StandardQuad};

/// A random navigation step applicable to any quadrant.
#[derive(Copy, Clone, Debug)]
enum Op {
    Child(u32),
    Sibling(u32),
    Parent,
    Successor,
    Predecessor,
    FaceNeighbor(u32),
    Ancestor(u8),
}

fn op_strategy(dim: u32) -> impl Strategy<Value = Op> {
    let children = 1u32 << dim;
    let faces = 2 * dim;
    prop_oneof![
        (0..children).prop_map(Op::Child),
        (0..children).prop_map(Op::Sibling),
        Just(Op::Parent),
        Just(Op::Successor),
        Just(Op::Predecessor),
        (0..faces).prop_map(Op::FaceNeighbor),
        (0u8..=18).prop_map(Op::Ancestor),
    ]
}

/// Apply `op` if its precondition holds for `q`; `None` means skip.
fn apply<Q: Quadrant>(q: &Q, op: Op) -> Option<Q> {
    match op {
        Op::Child(c) => q.try_child(c),
        Op::Sibling(s) => q.try_sibling(s),
        Op::Parent => q.try_parent(),
        Op::Successor => {
            let l = q.level();
            (l > 0 && q.morton_index() + 1 < Q::uniform_count(l)).then(|| q.successor())
        }
        Op::Predecessor => (q.level() > 0 && q.morton_index() > 0).then(|| q.predecessor()),
        Op::FaceNeighbor(f) => q.face_neighbor_inside(f),
        Op::Ancestor(l) => (l <= q.level()).then(|| q.ancestor(l)),
    }
}

/// Logical state of a quadrant, independent of representation.
fn logical<Q: Quadrant>(q: &Q) -> ([i32; 3], u8, u64) {
    (q.coords(), q.level(), q.morton_index())
}

macro_rules! equivalence_test {
    ($name:ident, $dim:literal, $a:ty, $b:ty) => {
        proptest! {
            #[test]
            fn $name(ops in proptest::collection::vec(op_strategy($dim), 1..120)) {
                let mut a = <$a>::root();
                let mut b = <$b>::root();
                for op in ops {
                    let na = apply(&a, op);
                    let nb = apply(&b, op);
                    prop_assert_eq!(na.is_some(), nb.is_some(),
                        "precondition disagreement on {:?} at {:?}", op, logical(&a));
                    if let (Some(na), Some(nb)) = (na, nb) {
                        prop_assert_eq!(logical(&na), logical(&nb),
                            "result disagreement on {:?}", op);
                        a = na;
                        b = nb;
                    }
                }
                // Derived queries agree at the final position.
                prop_assert_eq!(a.tree_boundaries(), b.tree_boundaries());
                prop_assert_eq!(a.morton_abs(), b.morton_abs());
                prop_assert_eq!(a.is_inside_root(), b.is_inside_root());
                if a.level() > 0 {
                    prop_assert_eq!(a.child_id(), b.child_id());
                }
                let ca: $b = convert(&a);
                prop_assert_eq!(logical(&ca), logical(&b));
            }
        }
    };
}

equivalence_test!(std_vs_morton_3d, 3, StandardQuad<3>, MortonQuad<3>);
equivalence_test!(std_vs_avx_3d, 3, StandardQuad<3>, AvxQuad<3>);
equivalence_test!(morton_vs_avx_3d, 3, MortonQuad<3>, AvxQuad<3>);
equivalence_test!(std_vs_morton_2d, 2, StandardQuad<2>, MortonQuad<2>);
equivalence_test!(std_vs_avx_2d, 2, StandardQuad<2>, AvxQuad<2>);

// ---------------------------------------------------------------------------
// Per-representation algebraic invariants
// ---------------------------------------------------------------------------

fn arb_quad<Q: Quadrant>() -> impl Strategy<Value = Q> {
    (0u8..=7).prop_flat_map(|level| {
        let count = Q::uniform_count(level);
        (0..count).prop_map(move |i| Q::from_morton(i, level))
    })
}

macro_rules! invariant_tests {
    ($mod_name:ident, $q:ty) => {
        mod $mod_name {
            use super::*;

            proptest! {
                #[test]
                fn parent_of_child_is_identity(q in arb_quad::<$q>(), c in 0u32..<$q>::NUM_CHILDREN) {
                    let child = q.child(c);
                    prop_assert_eq!(child.parent(), q);
                    prop_assert_eq!(child.child_id(), c);
                    prop_assert_eq!(child.level(), q.level() + 1);
                    prop_assert!(q.is_ancestor_of(&child));
                    prop_assert!(q.is_parent_of(&child));
                }

                #[test]
                fn child_morton_recurrence(q in arb_quad::<$q>(), c in 0u32..<$q>::NUM_CHILDREN) {
                    // Definition 2.1: I_{l+1} = 2^d I_l + c
                    let child = q.child(c);
                    prop_assert_eq!(
                        child.morton_index(),
                        (q.morton_index() << <$q>::DIM) + c as u64
                    );
                }

                #[test]
                fn sibling_morton_recurrence(q in arb_quad::<$q>(), s in 0u32..<$q>::NUM_CHILDREN) {
                    // Definition 2.3: I'_l = I_l - (I_l mod 2^d) + s
                    prop_assume!(q.level() > 0);
                    let sib = q.sibling(s);
                    let base = q.morton_index() & !((1u64 << <$q>::DIM) - 1);
                    prop_assert_eq!(sib.morton_index(), base + s as u64);
                    prop_assert_eq!(sib.level(), q.level());
                    prop_assert_eq!(sib.sibling(q.child_id()), q);
                }

                #[test]
                fn parent_morton_recurrence(q in arb_quad::<$q>()) {
                    // Definition 2.5: I_{l-1} = (I_l - (I_l mod 2^d)) / 2^d
                    prop_assume!(q.level() > 0);
                    let parent = q.parent();
                    prop_assert_eq!(parent.morton_index(), q.morton_index() >> <$q>::DIM);
                    prop_assert_eq!(parent.level(), q.level() - 1);
                }

                #[test]
                fn successor_predecessor_inverse(q in arb_quad::<$q>()) {
                    let l = q.level();
                    if l > 0 && q.morton_index() + 1 < <$q>::uniform_count(l) {
                        let s = q.successor();
                        prop_assert_eq!(s.morton_index(), q.morton_index() + 1);
                        prop_assert_eq!(s.predecessor(), q);
                        prop_assert!(q.compare_sfc(&s).is_lt());
                    }
                }

                #[test]
                fn face_neighbor_involution(q in arb_quad::<$q>(), f in 0u32..<$q>::NUM_FACES) {
                    if let Some(n) = q.face_neighbor_inside(f) {
                        prop_assert_eq!(n.level(), q.level());
                        let back = n.face_neighbor_inside(f ^ 1);
                        prop_assert_eq!(back, Some(q));
                        // neighbors share a face: exactly one coordinate
                        // differs, by the quadrant length
                        let qc = q.coords();
                        let nc = n.coords();
                        let diffs: Vec<_> = (0..3).filter(|&a| qc[a] != nc[a]).collect();
                        prop_assert_eq!(diffs.len(), 1);
                        prop_assert_eq!((qc[diffs[0]] - nc[diffs[0]]).abs(), q.side());
                    }
                }

                #[test]
                fn from_morton_roundtrip(q in arb_quad::<$q>()) {
                    let rebuilt = <$q>::from_morton(q.morton_index(), q.level());
                    prop_assert_eq!(rebuilt, q);
                }

                #[test]
                fn ancestor_chain_via_parents(q in arb_quad::<$q>()) {
                    let mut p = q;
                    for target in (0..q.level()).rev() {
                        p = p.parent();
                        prop_assert_eq!(q.ancestor(target), p);
                        prop_assert!(p.is_ancestor_of(&q));
                    }
                }

                #[test]
                fn descendants_bound_the_subtree(q in arb_quad::<$q>()) {
                    let max = <$q>::MAX_LEVEL;
                    let fd = q.first_descendant(max);
                    let ld = q.last_descendant(max);
                    prop_assert!(fd.compare_sfc(&ld).is_le());
                    prop_assert!(q.compare_sfc(&fd).is_le());
                    // every child lies within [fd, ld]
                    if q.level() < max {
                        for c in 0..<$q>::NUM_CHILDREN {
                            let ch = q.child(c);
                            prop_assert!(fd.compare_sfc(&ch.first_descendant(max)).is_le());
                            prop_assert!(ch.last_descendant(max).compare_sfc(&ld).is_le());
                        }
                    }
                }

                #[test]
                fn nca_is_deepest_common_ancestor(
                    a in arb_quad::<$q>(),
                    b in arb_quad::<$q>(),
                ) {
                    let nca = a.nearest_common_ancestor(&b);
                    prop_assert!(nca.overlaps(&a));
                    prop_assert!(nca.overlaps(&b));
                    // no child of the NCA contains both
                    if nca.level() < a.level().min(b.level()) {
                        for c in 0..<$q>::NUM_CHILDREN {
                            let ch = nca.child(c);
                            prop_assert!(
                                !(ch.overlaps(&a) && ch.overlaps(&b)),
                                "NCA not deepest: child {} also contains both", c
                            );
                        }
                    }
                    prop_assert_eq!(b.nearest_common_ancestor(&a), nca);
                }

                #[test]
                fn sfc_order_matches_abs_index(
                    a in arb_quad::<$q>(),
                    b in arb_quad::<$q>(),
                ) {
                    use core::cmp::Ordering;
                    let ord = a.compare_sfc(&b);
                    match a.morton_abs().cmp(&b.morton_abs()) {
                        Ordering::Less => prop_assert_eq!(ord, Ordering::Less),
                        Ordering::Greater => prop_assert_eq!(ord, Ordering::Greater),
                        Ordering::Equal => prop_assert_eq!(ord, a.level().cmp(&b.level())),
                    }
                }

                #[test]
                fn tree_boundaries_match_coordinates(q in arb_quad::<$q>()) {
                    let tb = q.tree_boundaries();
                    let c = q.coords();
                    let root = <$q>::len_at(0);
                    for axis in 0..<$q>::DIM as usize {
                        let expected = if q.level() == 0 {
                            -2
                        } else if c[axis] == 0 {
                            2 * axis as i32
                        } else if c[axis] + q.side() == root {
                            2 * axis as i32 + 1
                        } else {
                            -1
                        };
                        prop_assert_eq!(tb[axis], expected, "axis {}", axis);
                    }
                    if <$q>::DIM == 2 {
                        prop_assert_eq!(tb[2], -1);
                    }
                }

                #[test]
                fn family_detection(q in arb_quad::<$q>()) {
                    prop_assume!(q.level() < <$q>::MAX_LEVEL);
                    let family: Vec<_> = (0..<$q>::NUM_CHILDREN).map(|c| q.child(c)).collect();
                    prop_assert!(<$q>::is_family(&family));
                    let mut broken = family.clone();
                    broken.swap(0, 1);
                    prop_assert!(!<$q>::is_family(&broken), "out-of-order family accepted");
                    let mut short = family.clone();
                    short.pop();
                    prop_assert!(!<$q>::is_family(&short));
                }

                #[test]
                fn corner_neighbors_share_exactly_one_corner(q in arb_quad::<$q>()) {
                    for c in 0..<$q>::NUM_CHILDREN {
                        if let Some(n) = q.corner_neighbor_inside(c) {
                            prop_assert_eq!(n.level(), q.level());
                            let qc = q.coords();
                            let nc = n.coords();
                            for a in 0..<$q>::DIM as usize {
                                prop_assert_eq!((qc[a] - nc[a]).abs(), q.side());
                            }
                            prop_assert!(n.is_inside_root());
                        }
                    }
                }
            }
        }
    };
}

invariant_tests!(standard3, StandardQuad<3>);
invariant_tests!(morton3, MortonQuad<3>);
invariant_tests!(avx3, AvxQuad<3>);
invariant_tests!(standard2, StandardQuad<2>);
invariant_tests!(morton2, MortonQuad<2>);
invariant_tests!(avx2d, AvxQuad<2>);

// ---------------------------------------------------------------------------
// Morton codec properties
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn codec3_roundtrip(x in 0u32..1 << 18, y in 0u32..1 << 18, z in 0u32..1 << 18) {
        let m = quadforest_core::morton::encode3(x, y, z);
        prop_assert_eq!(quadforest_core::morton::decode3(m), (x, y, z));
    }

    #[test]
    fn codec2_roundtrip(x in 0u32..1 << 28, y in 0u32..1 << 28) {
        let m = quadforest_core::morton::encode2(x, y);
        prop_assert_eq!(quadforest_core::morton::decode2(m), (x, y));
    }

    #[test]
    fn codec3_is_monotone_in_each_axis(x in 0u32..(1 << 18) - 1, y in 0u32..1 << 18, z in 0u32..1 << 18) {
        // Increasing one coordinate strictly increases the Morton code.
        let a = quadforest_core::morton::encode3(x, y, z);
        let b = quadforest_core::morton::encode3(x + 1, y, z);
        prop_assert!(b > a);
    }

    #[test]
    fn codec3_interleaving_definition(x in 0u32..1 << 18, y in 0u32..1 << 18, z in 0u32..1 << 18) {
        // Bit i of x must land at bit 3i of the code, etc.
        let m = quadforest_core::morton::encode3(x, y, z);
        for bit in 0..18 {
            prop_assert_eq!((m >> (3 * bit)) & 1, ((x >> bit) & 1) as u64);
            prop_assert_eq!((m >> (3 * bit + 1)) & 1, ((y >> bit) & 1) as u64);
            prop_assert_eq!((m >> (3 * bit + 2)) & 1, ((z >> bit) & 1) as u64);
        }
    }
}
