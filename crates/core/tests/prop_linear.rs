//! Property-based tests for the linear-octree sequence algorithms.

use proptest::prelude::*;
use quadforest_core::linear::*;
use quadforest_core::quadrant::{MortonQuad, Quadrant, StandardQuad};

fn arb_quad<Q: Quadrant>(max_level: u8) -> impl Strategy<Value = Q> {
    (0u8..=max_level).prop_flat_map(|level| {
        let count = Q::uniform_count(level);
        (0..count).prop_map(move |i| Q::from_morton(i, level))
    })
}

macro_rules! linear_props {
    ($mod_name:ident, $q:ty) => {
        mod $mod_name {
            use super::*;

            proptest! {
                #[test]
                fn linearize_is_linear_and_idempotent(
                    quads in proptest::collection::vec(arb_quad::<$q>(6), 0..40),
                ) {
                    let lin = linearize(quads.clone());
                    prop_assert!(is_linear(&lin));
                    prop_assert_eq!(linearize(lin.clone()), lin.clone());
                    // every input is represented: either kept or covered
                    // by a kept descendant
                    for q in &quads {
                        prop_assert!(
                            lin.iter().any(|k| k == q || q.is_ancestor_of(k)),
                            "{:?} lost by linearize", q
                        );
                    }
                }

                #[test]
                fn complete_region_fills_exactly(
                    a in arb_quad::<$q>(6),
                    b in arb_quad::<$q>(6),
                ) {
                    prop_assume!(a.compare_sfc(&b).is_lt());
                    prop_assume!(!a.is_ancestor_of(&b) && !b.is_ancestor_of(&a));
                    let fill = complete_region(&a, &b);
                    // linear, disjoint from both ends, gap-free coverage
                    let mut seq = vec![a];
                    seq.extend(fill.iter().copied());
                    seq.push(b);
                    prop_assert!(is_linear(&seq));
                    let mut expected =
                        a.first_descendant(<$q>::MAX_LEVEL).morton_abs();
                    for q in &seq {
                        prop_assert_eq!(
                            q.first_descendant(<$q>::MAX_LEVEL).morton_abs(),
                            expected
                        );
                        expected = q.last_descendant(<$q>::MAX_LEVEL).morton_abs() + 1;
                    }
                    // agrees with the greedy arithmetic cover
                    let arith = cover_range::<$q>(
                        a.last_descendant(<$q>::MAX_LEVEL).morton_abs() + 1,
                        b.first_descendant(<$q>::MAX_LEVEL).morton_abs(),
                    );
                    prop_assert_eq!(fill, arith);
                }

                #[test]
                fn complete_octree_properties(
                    seeds in proptest::collection::vec(arb_quad::<$q>(5), 0..10),
                ) {
                    let tree = complete_octree(seeds.clone());
                    prop_assert!(is_linear(&tree));
                    prop_assert!(is_complete(&tree));
                    // the linearized seeds all survive as leaves
                    for s in linearize(seeds) {
                        prop_assert!(tree.contains(&s));
                    }
                }

                #[test]
                fn cover_range_is_minimal_and_exact(
                    bounds in (
                        0u64..1 << (<$q>::DIM * 4),
                        0u64..1 << (<$q>::DIM * 4),
                    ),
                ) {
                    let scale = <$q>::DIM * (<$q>::MAX_LEVEL as u32 - 4);
                    let (mut s, mut e) = bounds;
                    if s > e {
                        std::mem::swap(&mut s, &mut e);
                    }
                    let (s, e) = (s << scale, e << scale);
                    let cover = cover_range::<$q>(s, e);
                    // exact coverage
                    let mut expected = s;
                    for q in &cover {
                        prop_assert_eq!(
                            q.first_descendant(<$q>::MAX_LEVEL).morton_abs(),
                            expected
                        );
                        expected = q.last_descendant(<$q>::MAX_LEVEL).morton_abs() + 1;
                    }
                    prop_assert_eq!(expected, e.max(s));
                    // minimality: no two adjacent blocks merge into an
                    // aligned block also inside [s, e)
                    for w in cover.windows(2) {
                        if w[0].level() == w[1].level() && w[0].level() > 0 {
                            let p0 = w[0].parent();
                            if p0 == w[1].parent()
                                && w[0].child_id() == 0
                            {
                                // the full family would need 2^d members;
                                // having only found 2 adjacent, check the
                                // parent is not fully inside the range
                                let pf = p0.first_descendant(<$q>::MAX_LEVEL).morton_abs();
                                let pl = p0.last_descendant(<$q>::MAX_LEVEL).morton_abs();
                                prop_assert!(
                                    pf < s || pl >= e,
                                    "parent {:?} fits the range: not minimal", p0
                                );
                            }
                        }
                    }
                }
            }
        }
    };
}

linear_props!(standard2, StandardQuad<2>);
linear_props!(morton3, MortonQuad<3>);
