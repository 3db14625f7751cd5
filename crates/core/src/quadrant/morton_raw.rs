//! The raw-Morton quadrant: one `u64` holding the refinement level in the
//! high 8 bits and the level-independent Morton index in the low 56 bits
//! (Section 2.2 of the paper).
//!
//! Bit layout for 3D (`L = 18`):
//!
//! ```text
//!   63      56 55 54 53              0
//!  | level    | 0  0 | z1 y1 x1 ... z18 y18 x18 |
//! ```
//!
//! and for 2D (`L = 28`) the low 56 bits are fully used. All bits right of
//! the quadrant's own level are zero (Remark 2.8), which is what makes the
//! arithmetic shortcuts below sound:
//!
//! * construction from a level-relative index is a shift-and-or
//!   (Algorithm 4) — the reason for the large `Morton` speedup in Fig. 2,
//! * the successor is a single addition (Algorithm 5),
//! * child and parent are one mask plus one level increment
//!   (Algorithms 6, 7),
//! * the face neighbor uses the dilated-integer increment trick
//!   (Algorithm 8): saturate the other directions' bits, add one, and the
//!   carry ripples exactly through the target direction's bit positions.
//!
//! This representation carries no sign bits, so a "neighbor" across the
//! tree boundary wraps around periodically rather than leaving the unit
//! tree; use [`Quadrant::face_neighbor_inside`] where exterior results
//! must be rejected.

use super::common::shared_max_level;
use super::Quadrant;
use crate::morton::{self, DIR_PATTERN_2D, DIR_PATTERN_3D};

/// Raw-Morton quadrant, `D ∈ {2, 3}`; 8 bytes.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct MortonQuad<const D: usize> {
    word: u64,
}

/// Position of the level byte.
const LEVEL_SHIFT: u32 = 56;
/// Mask of the index bits.
const INDEX_MASK: u64 = (1u64 << LEVEL_SHIFT) - 1;

impl<const D: usize> MortonQuad<D> {
    const _ASSERT_DIM: () = assert!(D == 2 || D == 3, "D must be 2 or 3");

    /// The repeating one-bit-per-group direction pattern for the x axis.
    const DIR_PATTERN: u64 = if D == 2 {
        DIR_PATTERN_2D
    } else {
        DIR_PATTERN_3D
    };

    /// The level-independent index `I` (low 56 bits).
    #[inline]
    pub(crate) fn index_abs(self) -> u64 {
        self.word & INDEX_MASK
    }

    #[inline]
    fn dl(level: u8) -> u32 {
        D as u32 * (shared_max_level(D as u32) - level) as u32
    }
}

impl<const D: usize> core::fmt::Debug for MortonQuad<D> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let [x, y, z] = self.coords();
        write!(
            f,
            "MortonQuad<{D}>(level={}, I={:#x}, xyz=({x},{y},{z}))",
            self.level(),
            self.index_abs()
        )
    }
}

impl<const D: usize> Quadrant for MortonQuad<D> {
    const DIM: u32 = D as u32;
    const MAX_LEVEL: u8 = shared_max_level(D as u32);
    const NAME: &'static str = "morton";

    #[inline]
    fn root() -> Self {
        Self { word: 0 }
    }

    #[inline]
    fn from_coords(coords: [i32; 3], level: u8) -> Self {
        debug_assert!(level <= Self::MAX_LEVEL);
        debug_assert!(
            coords[0] >= 0 && coords[1] >= 0 && coords[2] >= 0,
            "raw Morton quadrants cannot leave the unit tree"
        );
        let idx = if D == 2 {
            morton::encode2(coords[0] as u32, coords[1] as u32)
        } else {
            morton::encode3(coords[0] as u32, coords[1] as u32, coords[2] as u32)
        };
        Self {
            word: ((level as u64) << LEVEL_SHIFT) | idx,
        }
    }

    /// Algorithm 4 (`Morton_Morton`): the transformation from the curve
    /// index is (up to one shift) the identity.
    #[inline]
    fn from_morton(index: u64, level: u8) -> Self {
        debug_assert!(level <= Self::MAX_LEVEL);
        debug_assert!(level == 0 || index < 1u64 << (Self::DIM * level as u32));
        Self {
            word: ((level as u64) << LEVEL_SHIFT) | (index << Self::dl(level)),
        }
    }

    /// The level is read with a single shift.
    #[inline]
    fn level(&self) -> u8 {
        (self.word >> LEVEL_SHIFT) as u8
    }

    #[inline]
    fn coords(&self) -> [i32; 3] {
        if D == 2 {
            let (x, y) = morton::decode2(self.index_abs());
            [x as i32, y as i32, 0]
        } else {
            let (x, y, z) = morton::decode3(self.index_abs());
            [x as i32, y as i32, z as i32]
        }
    }

    #[inline]
    fn morton_index(&self) -> u64 {
        self.index_abs() >> Self::dl(self.level())
    }

    /// Algorithm 6 (`Morton_Child`): deposit the child bits at the new
    /// level's group and bump the level byte.
    #[inline]
    fn child(&self, c: u32) -> Self {
        debug_assert!(self.level() < Self::MAX_LEVEL && c < Self::NUM_CHILDREN);
        let shift = (c as u64) << Self::dl(self.level() + 1);
        Self {
            word: (self.word | shift) + (1u64 << LEVEL_SHIFT),
        }
    }

    /// Sibling via Definition 2.3: replace this quadrant's own level
    /// group with `s`, keeping the level.
    #[inline]
    fn sibling(&self, s: u32) -> Self {
        debug_assert!(self.level() > 0 && s < Self::NUM_CHILDREN);
        let dl = Self::dl(self.level());
        let group = (Self::NUM_CHILDREN as u64 - 1) << dl;
        Self {
            word: (self.word & !group) | ((s as u64) << dl),
        }
    }

    /// Algorithm 7 (`Morton_Parent`): blank the level-`ℓ` group and
    /// decrement the level byte.
    #[inline]
    fn parent(&self) -> Self {
        debug_assert!(self.level() > 0);
        let group = (Self::NUM_CHILDREN as u64 - 1) << Self::dl(self.level());
        Self {
            word: (self.word & !group) - (1u64 << LEVEL_SHIFT),
        }
    }

    /// Algorithm 8 (`Morton_FNeigh`): dilated-integer increment. The
    /// direction mask holds a one at each of this axis' bit positions down
    /// to the quadrant's own level; saturating the complement and adding 1
    /// (or masking and subtracting 1) ripples the carry through exactly
    /// the axis' dilated digits.
    #[inline]
    fn face_neighbor(&self, f: u32) -> Self {
        debug_assert!(f < Self::NUM_FACES);
        let q = self.word;
        let mask_level = !((1u64 << Self::dl(self.level())) - 1);
        let mask_dir = (Self::DIR_PATTERN & mask_level) << (f / 2);
        let r = if f & 1 == 1 {
            (q | !mask_dir).wrapping_add(1)
        } else {
            (q & mask_dir).wrapping_sub(1)
        };
        Self {
            word: (r & mask_dir) | (q & !mask_dir),
        }
    }

    /// Tree-boundary classification on the dilated digits directly: the
    /// quadrant touches the lower face of axis `a` iff all of that axis'
    /// digits are zero, and the upper face iff all digits down to its own
    /// level are one (then its coordinate equals `2^L - h`).
    #[inline]
    fn tree_boundaries(&self) -> [i32; 3] {
        if self.level() == 0 {
            let mut out = [super::boundary::NONE; 3];
            out[..D].fill(super::boundary::ALL);
            return out;
        }
        let mask_level = !((1u64 << Self::dl(self.level())) - 1);
        let mut out = [super::boundary::NONE; 3];
        for axis in 0..D as u32 {
            let mask_dir = (Self::DIR_PATTERN & mask_level) << axis;
            let bits = self.word & mask_dir;
            if bits == 0 {
                out[axis as usize] = 2 * axis as i32;
            } else if bits == mask_dir {
                out[axis as usize] = 2 * axis as i32 + 1;
            }
        }
        out
    }

    /// Algorithm 5 (`Morton_Successor`): one addition.
    #[inline]
    fn successor(&self) -> Self {
        debug_assert!(
            self.level() == 0
                || self.morton_index() + 1 < 1u64 << (Self::DIM * self.level() as u32),
            "successor of the last quadrant on its level"
        );
        Self {
            word: self.word + (1u64 << Self::dl(self.level())),
        }
    }

    // -- specialized overrides: these are where the representation wins --

    /// The absolute index is stored directly; no interleaving needed.
    #[inline]
    fn morton_abs(&self) -> u64 {
        self.index_abs()
    }

    /// One shift and one mask.
    #[inline]
    fn child_id(&self) -> u32 {
        debug_assert!(self.level() > 0);
        ((self.word >> Self::dl(self.level())) & (Self::NUM_CHILDREN as u64 - 1)) as u32
    }

    /// Mask off every group below the target level and rewrite the level
    /// byte — no coordinate decoding.
    #[inline]
    fn ancestor(&self, level: u8) -> Self {
        debug_assert!(level <= self.level());
        let keep = !((1u64 << Self::dl(level)) - 1) & INDEX_MASK;
        Self {
            word: ((level as u64) << LEVEL_SHIFT) | (self.word & keep),
        }
    }

    /// Same index, deeper level byte.
    #[inline]
    fn first_descendant(&self, level: u8) -> Self {
        debug_assert!(level >= self.level() && level <= Self::MAX_LEVEL);
        Self {
            word: ((level as u64) << LEVEL_SHIFT) | self.index_abs(),
        }
    }

    /// Saturate every group between the two levels.
    #[inline]
    fn last_descendant(&self, level: u8) -> Self {
        debug_assert!(level >= self.level() && level <= Self::MAX_LEVEL);
        let fill_all = (1u64 << Self::dl(self.level())) - 1;
        let fill_below = (1u64 << Self::dl(level)) - 1;
        Self {
            word: ((level as u64) << LEVEL_SHIFT) | self.index_abs() | (fill_all & !fill_below),
        }
    }

    /// One rotate of each stored word — the curve index moves to the
    /// high bits, the level byte to the low 8 — then a plain integer
    /// comparison, instead of the trait default's two-key compare.
    #[inline]
    fn compare_sfc(&self, other: &Self) -> core::cmp::Ordering {
        self.word.rotate_left(8).cmp(&other.word.rotate_left(8))
    }

    /// Prefix test on the raw words: `self` is an ancestor iff it is
    /// coarser and the indices agree above `self`'s level.
    #[inline]
    fn is_ancestor_of(&self, other: &Self) -> bool {
        if self.level() >= other.level() {
            return false;
        }
        let keep = !((1u64 << Self::dl(self.level())) - 1);
        (other.index_abs() & keep) == self.index_abs()
    }

    /// Raw-Morton quadrants are inside the unit tree by construction.
    #[inline]
    fn is_inside_root(&self) -> bool {
        true
    }

    #[inline]
    fn is_valid(&self) -> bool {
        let l = self.level();
        l <= Self::MAX_LEVEL
            && (self.index_abs() & ((1u64 << Self::dl(l.min(Self::MAX_LEVEL))) - 1)) == 0
            && (D == 3 || self.index_abs() >> 56 == 0)
            && (D == 2 || self.index_abs() >> 54 == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrant::{boundary, conformance, convert, Quadrant, StandardQuad};
    use crate::scalar_ref::QuadSoA;

    #[test]
    fn size_is_8_bytes() {
        assert_eq!(core::mem::size_of::<MortonQuad<3>>(), 8);
        assert_eq!(core::mem::size_of::<MortonQuad<2>>(), 8);
    }

    #[test]
    fn conformance_2d() {
        conformance::<MortonQuad<2>>();
    }

    #[test]
    fn conformance_3d() {
        conformance::<MortonQuad<3>>();
    }

    #[test]
    fn word_layout() {
        let q = MortonQuad::<3>::from_morton(5, 2);
        assert_eq!(q.level(), 2);
        // index 5 at level 2 sits d(L-2) = 48 bits up
        assert_eq!(q.index_abs(), 5u64 << 48);
        assert_eq!(q.word >> LEVEL_SHIFT, 2);
    }

    #[test]
    fn successor_is_single_add() {
        let q = MortonQuad::<3>::from_morton(7, 3);
        let s = q.successor();
        assert_eq!(s.morton_index(), 8);
        assert_eq!(
            s.word,
            q.word + (1u64 << (3 * (18 - 3))),
            "Algorithm 5: successor must be one addition"
        );
    }

    #[test]
    fn face_neighbor_matches_standard() {
        // Cross-check the dilated-increment trick against coordinate
        // arithmetic for a grid of interior quadrants.
        for level in [1u8, 2, 3, 7] {
            let count = 1u64 << (3 * level as u32);
            for idx in (0..count).step_by((count / 64).max(1) as usize) {
                let m = MortonQuad::<3>::from_morton(idx, level);
                let s = StandardQuad::<3>::from_morton(idx, level);
                for f in 0..6 {
                    match (m.face_neighbor_inside(f), s.face_neighbor_inside(f)) {
                        (Some(mn), Some(sn)) => {
                            assert_eq!(convert::<_, StandardQuad<3>>(&mn), sn, "idx {idx} f {f}")
                        }
                        (None, None) => {}
                        (a, b) => panic!("inside-root disagreement idx {idx} f {f}: {a:?} {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn face_neighbor_wraps_periodically() {
        // Moving left from the lower-left corner wraps to the far side
        // (the representation has no sign bits). The checked variant
        // refuses.
        let q = MortonQuad::<2>::root().child(0);
        let wrapped = q.face_neighbor(0);
        assert_eq!(wrapped.coords()[0], (1 << 28) - (1 << 27));
        assert!(q.face_neighbor_inside(0).is_none());
    }

    #[test]
    fn tree_boundaries_dilated() {
        let root_child = MortonQuad::<3>::root().child(0);
        assert_eq!(root_child.tree_boundaries(), [0, 2, 4]);
        let up = MortonQuad::<3>::root().child(7).child(7);
        assert_eq!(up.tree_boundaries(), [1, 3, 5]);
        let mixed = MortonQuad::<3>::root().child(1).child(2);
        // x: child bits (1,0) -> x = 10b at level 2: neither 00 nor 11
        assert_eq!(mixed.tree_boundaries()[0], boundary::NONE);
        // y: bits (0,1) -> neither boundary
        assert_eq!(mixed.tree_boundaries()[1], boundary::NONE);
        // z: bits (0,0) -> lower boundary
        assert_eq!(mixed.tree_boundaries()[2], 4);
    }

    #[test]
    fn sfc_key_orders_ancestor_first() {
        let parent = MortonQuad::<3>::from_morton(3, 2);
        let child0 = parent.child(0);
        let child1 = parent.child(1);
        assert!(parent.sfc_key() < child0.sfc_key());
        assert!(child0.sfc_key() < child1.sfc_key());
        assert!(parent.compare_sfc(&child0).is_lt());
    }

    #[test]
    fn ancestor_and_descendants_specializations() {
        let q = MortonQuad::<3>::from_morton(0o1234567, 7);
        let a = q.ancestor(3);
        let s = convert::<_, StandardQuad<3>>(&q).ancestor(3);
        assert_eq!(convert::<_, StandardQuad<3>>(&a), s);
        assert_eq!(q.first_descendant(10).coords(), q.coords());
        let ld = q.last_descendant(10);
        let sld = convert::<_, StandardQuad<3>>(&q).last_descendant(10);
        assert_eq!(convert::<_, StandardQuad<3>>(&ld), sld);
    }

    #[test]
    fn is_ancestor_prefix_test() {
        let a = MortonQuad::<3>::from_morton(2, 1);
        let d = a.child(3).child(5);
        assert!(a.is_ancestor_of(&d));
        assert!(!d.is_ancestor_of(&a));
        assert!(!a.is_ancestor_of(&a));
        let other = MortonQuad::<3>::from_morton(3, 1);
        assert!(!other.is_ancestor_of(&d));
    }

    /// `q.sfc_key()` on a value is the key the batch kernel produces
    /// for `q`, not a by-value shadow with another packing.
    #[test]
    fn sfc_key_by_value_is_the_batch_key() {
        fn batch_keys<Q: Quadrant>(quads: &[Q]) -> Vec<u64> {
            let mut keys = vec![0; quads.len()];
            crate::batch::sfc_keys_all(&QuadSoA::from_quads(quads), Q::DIM, &mut keys);
            keys
        }
        let m2: Vec<_> = (0..16)
            .map(|i| MortonQuad::<2>::from_morton(i * 37, 5))
            .collect();
        let m3: Vec<_> = (0..16)
            .map(|i| MortonQuad::<3>::from_morton(i * 37, 5))
            .collect();
        // iterate by value: `(&q).sfc_key()` always reached the trait
        for (q, key) in m2.iter().copied().zip(batch_keys(&m2)) {
            assert_eq!(q.sfc_key(), key, "{q:?}");
        }
        for (q, key) in m3.iter().copied().zip(batch_keys(&m3)) {
            assert_eq!(q.sfc_key(), key, "{q:?}");
        }
    }
}
