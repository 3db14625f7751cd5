//! Property-based tests for the linear-octree sequence algorithms.

use proptest::prelude::*;
use quadforest_core::linear::*;
use quadforest_core::quadrant::{AvxQuad, MortonQuad, Quadrant, StandardQuad};

fn arb_quad<Q: Quadrant>(max_level: u8) -> impl Strategy<Value = Q> {
    (0u8..=max_level).prop_flat_map(|level| {
        let count = Q::uniform_count(level);
        (0..count).prop_map(move |i| Q::from_morton(i, level))
    })
}

/// Multisets rich in what linearize removes: each drawn quadrant comes
/// with up to two more copies of itself and one of its ancestors.
fn arb_clustered<Q: Quadrant>() -> impl Strategy<Value = Vec<Q>> {
    proptest::collection::vec((arb_quad::<Q>(6), 0u8..=6, 0u8..3), 0..30).prop_map(|draws| {
        let mut out = Vec::new();
        for (q, up, copies) in draws {
            out.extend(std::iter::repeat_n(q, 1 + copies as usize));
            out.push(q.ancestor(q.level().saturating_sub(up)));
        }
        out
    })
}

/// The definitional linearize: a comparator sort, then a backward sweep
/// that drops every quadrant equal to or an ancestor of the last kept.
fn oracle<Q: Quadrant>(mut quads: Vec<Q>) -> Vec<Q> {
    quads.sort_by(Q::compare_sfc);
    let mut kept: Vec<Q> = Vec::new();
    for q in quads.into_iter().rev() {
        if kept.last().is_some_and(|k| q == *k || q.is_ancestor_of(k)) {
            continue;
        }
        kept.push(q);
    }
    kept.reverse();
    kept
}

macro_rules! linear_props {
    ($mod_name:ident, $q:ty, $payload:expr) => {
        mod $mod_name {
            use super::*;

            /// `linearize` and the oracle agree element for element,
            /// payload included.
            fn agrees_with_the_oracle(quads: Vec<$q>) -> Result<(), TestCaseError> {
                let payload: fn(&$q) -> u64 = $payload;
                let (lin, want) = (linearize(quads.clone()), oracle(quads));
                prop_assert_eq!(&lin, &want);
                for (got, want) in lin.iter().zip(&want) {
                    prop_assert_eq!(payload(got), payload(want));
                }
                Ok(())
            }

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
                fn linearize_is_the_comparator_oracle(
                    quads in proptest::collection::vec(arb_quad::<$q>(6), 0..40),
                ) {
                    agrees_with_the_oracle(quads)?;
                }

                #[test]
                fn linearize_is_the_oracle_on_duplicates_and_chains(
                    quads in arb_clustered::<$q>(),
                ) {
                    agrees_with_the_oracle(quads)?;
                }
            }

            #[test]
            fn edge_cases_match_the_oracle() {
                // empty, one element, all duplicates, and a full
                // root-to-level-6 ancestor chain out of order
                let deepest = <$q>::from_morton(5, 3).first_descendant(6);
                let mut chain: Vec<$q> = (0..=6).map(|l| deepest.ancestor(l)).collect();
                chain.rotate_left(3);
                let cases = [vec![], vec![deepest], vec![deepest; 9], chain];
                for case in &cases {
                    agrees_with_the_oracle(case.clone()).unwrap();
                }
                let [empty, one, dups, chain] = cases;
                assert!(linearize(empty).is_empty());
                for case in [one, dups, chain] {
                    assert_eq!(linearize(case), vec![deepest]);
                }
            }
        }
    };
}

linear_props!(standard2, StandardQuad<2>, |q| q.payload());
linear_props!(standard3, StandardQuad<3>, |q| q.payload());
linear_props!(morton2, MortonQuad<2>, |_| 0);
linear_props!(morton3, MortonQuad<3>, |_| 0);
linear_props!(avx3, AvxQuad<3>, |_| 0);
