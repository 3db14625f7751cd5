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
            }
        }
    };
}

linear_props!(standard2, StandardQuad<2>);
linear_props!(morton3, MortonQuad<3>);
