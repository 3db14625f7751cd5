//! Structural invariant checking for distributed forests.

use crate::{end_position, key_span, Forest, InvariantError, SfcPosition};
use quadforest_core::quadrant::Quadrant;

impl<Q: Quadrant> Forest<Q> {
    /// Verify the linear-octree invariants of the local partition:
    ///
    /// * markers are monotone and end at the sentinel,
    /// * every leaf is structurally valid and inside the unit tree,
    /// * leaves are sorted in SFC order, pairwise disjoint, and their
    ///   union tiles this rank's marker range exactly (no gaps, no
    ///   overlap, no spill) — checked in one sweep by walking expected
    ///   SFC positions.
    ///
    /// Violations surface as a typed [`InvariantError`] naming the
    /// exact broken invariant, so phase guards and restore paths can
    /// report *what* drifted, not just that something did.
    pub fn validate(&self) -> Result<(), InvariantError> {
        let k = self.trees.len();
        // marker monotonicity
        if self.markers.len() != self.size + 1 {
            return Err(InvariantError::MarkerLength {
                got: self.markers.len(),
                expected: self.size + 1,
            });
        }
        for (i, w) in self.markers.windows(2).enumerate() {
            if w[0] > w[1] {
                return Err(InvariantError::MarkersNotMonotone {
                    index: i,
                    marker: w[0],
                    next: w[1],
                });
            }
        }
        let last = *self.markers.last().expect("markers length checked above");
        if last != end_position(k) {
            return Err(InvariantError::BadEndSentinel {
                got: last,
                expected: end_position(k),
            });
        }

        // sweep: the local leaves must tile [markers[rank], markers[rank+1])
        let lo = self.markers[self.rank];
        let hi = self.markers[self.rank + 1];
        let mut expected: SfcPosition = lo;
        let per_tree = 1u64 << (Q::DIM * Q::MAX_LEVEL as u32);
        for (t, q) in self.leaves() {
            if !q.is_valid() {
                return Err(InvariantError::InvalidLeaf {
                    tree: t,
                    coords: q.coords(),
                    level: q.level(),
                });
            }
            let (first, last) = key_span(q);
            if (t, first) != expected {
                return Err(InvariantError::GapOrOverlap {
                    tree: t,
                    expected,
                    found: (t, first),
                });
            }
            // advance past this leaf
            expected = if last + 1 == per_tree {
                (t + 1, 0)
            } else {
                (t, last + 1)
            };
        }
        // the walk may legitimately end at a tree boundary that the next
        // rank's marker expresses as (t+1, 0)
        if expected != hi {
            return Err(InvariantError::IncompleteRange {
                walked_to: expected,
                range_end: hi,
            });
        }
        Ok(())
    }
}
