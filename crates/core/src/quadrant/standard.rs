//! The classical p4est quadrant: explicit coordinates plus refinement
//! level (Section 2.1 of the paper), including the historic 8 bytes of
//! user payload so that the memory footprint — 24 bytes per octant —
//! matches the baseline measured in Section 3.2. The 2D type shares the
//! layout (`z` stays 0), so it is 24 bytes as well.

use super::common::*;
use super::Quadrant;
use crate::morton;

/// Explicit-coordinate quadrant, `D ∈ {2, 3}`.
///
/// Layout is `repr(C)`: `D` signed 32-bit coordinates, one level byte,
/// padding, and the payload word. Equality, hashing and ordering ignore
/// the payload — two quadrants are the same mesh primitive regardless of
/// attached user data, exactly as in p4est where the payload union is
/// skipped by `p4est_quadrant_is_equal`.
#[derive(Copy, Clone, Debug)]
#[repr(C)]
pub struct StandardQuad<const D: usize> {
    x: i32,
    y: i32,
    z: i32, // always 0 in 2D
    level: u8,
    pad: [u8; 3],
    payload: u64,
}

impl<const D: usize> StandardQuad<D> {
    const _ASSERT_DIM: () = assert!(D == 2 || D == 3, "D must be 2 or 3");

    /// Read the user payload.
    #[inline]
    pub fn payload(&self) -> u64 {
        self.payload
    }

    /// Attach user payload, preserving the mesh position.
    #[inline]
    pub(crate) fn with_payload(mut self, payload: u64) -> Self {
        self.payload = payload;
        self
    }

    #[inline]
    fn make(coords: [i32; 3], level: u8) -> Self {
        Self {
            x: coords[0],
            y: coords[1],
            z: if D == 3 { coords[2] } else { 0 },
            level,
            pad: [0; 3],
            payload: 0,
        }
    }
}

impl<const D: usize> PartialEq for StandardQuad<D> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.x == other.x && self.y == other.y && self.z == other.z && self.level == other.level
    }
}

impl<const D: usize> Eq for StandardQuad<D> {}

impl<const D: usize> core::hash::Hash for StandardQuad<D> {
    #[inline]
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.x.hash(state);
        self.y.hash(state);
        self.z.hash(state);
        self.level.hash(state);
    }
}

impl<const D: usize> Quadrant for StandardQuad<D> {
    const DIM: u32 = D as u32;
    const MAX_LEVEL: u8 = shared_max_level(D as u32);
    const NAME: &'static str = "standard";

    #[inline]
    fn root() -> Self {
        Self::make([0, 0, 0], 0)
    }

    #[inline]
    fn from_coords(coords: [i32; 3], level: u8) -> Self {
        debug_assert!(level <= Self::MAX_LEVEL);
        Self::make(coords, level)
    }

    /// Algorithm 1 (`Standard_Morton`): deinterleave the level-relative
    /// index into coordinates, then align to the maximum level.
    #[inline]
    fn from_morton(index: u64, level: u8) -> Self {
        debug_assert!(level <= Self::MAX_LEVEL);
        debug_assert!(level == 0 || index < 1u64 << (Self::DIM * level as u32));
        let up = (Self::MAX_LEVEL - level) as u32;
        if D == 2 {
            let (x, y) = morton::decode2(index);
            Self::make([(x << up) as i32, (y << up) as i32, 0], level)
        } else {
            let (x, y, z) = morton::decode3(index);
            Self::make(
                [(x << up) as i32, (y << up) as i32, (z << up) as i32],
                level,
            )
        }
    }

    #[inline]
    fn level(&self) -> u8 {
        self.level
    }

    #[inline]
    fn coords(&self) -> [i32; 3] {
        [self.x, self.y, self.z]
    }

    #[inline]
    fn morton_index(&self) -> u64 {
        let down = (Self::MAX_LEVEL - self.level) as u32;
        if D == 2 {
            morton::encode2((self.x >> down) as u32, (self.y >> down) as u32)
        } else {
            morton::encode3(
                (self.x >> down) as u32,
                (self.y >> down) as u32,
                (self.z >> down) as u32,
            )
        }
    }

    /// Coordinate-interleave shortcut: `encodeD` of the *absolute*
    /// coordinates equals `morton_abs` (bit spreading is linear in the
    /// bit positions), so key extraction routes through the
    /// runtime-dispatched SoA kernel — BMI2 `pdep` when available.
    fn sfc_keys(quads: &[Self]) -> Vec<u64> {
        let soa = crate::scalar_ref::QuadSoA::from_quads(quads);
        let mut keys = vec![0u64; quads.len()];
        crate::batch::sfc_keys_all(&soa, Self::DIM, &mut keys);
        keys
    }

    /// Algorithm 2 (`Standard_Child`).
    #[inline]
    fn child(&self, c: u32) -> Self {
        debug_assert!(self.level < Self::MAX_LEVEL && c < Self::NUM_CHILDREN);
        let coords = child_coords(self.coords(), self.level, Self::MAX_LEVEL, c);
        Self::make(coords, self.level + 1)
    }

    /// Algorithm 3 (`Standard_Sibling`).
    #[inline]
    fn sibling(&self, s: u32) -> Self {
        debug_assert!(self.level > 0 && s < Self::NUM_CHILDREN);
        let coords = sibling_coords(self.coords(), self.level, Self::MAX_LEVEL, s);
        Self::make(coords, self.level)
    }

    #[inline]
    fn parent(&self) -> Self {
        debug_assert!(self.level > 0);
        let coords = parent_coords(self.coords(), self.level, Self::MAX_LEVEL);
        Self::make(coords, self.level - 1)
    }

    #[inline]
    fn face_neighbor(&self, f: u32) -> Self {
        debug_assert!(f < Self::NUM_FACES);
        let coords = face_neighbor_coords(self.coords(), self.level, Self::MAX_LEVEL, f);
        Self::make(coords, self.level)
    }

    #[inline]
    fn tree_boundaries(&self) -> [i32; 3] {
        tree_boundaries_scalar(Self::DIM, self.coords(), self.level, Self::MAX_LEVEL)
    }

    #[inline]
    fn successor(&self) -> Self {
        let next = self.morton_index() + 1;
        debug_assert!(self.level == 0 || next < 1u64 << (Self::DIM * self.level as u32));
        Self::from_morton(next, self.level).with_payload(self.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrant::conformance;

    #[test]
    fn sizes_match_paper_baseline() {
        // Section 3.2: 24 bytes per 3D octant including 8 payload bytes.
        assert_eq!(core::mem::size_of::<StandardQuad<3>>(), 24);
    }

    #[test]
    fn conformance_2d() {
        conformance::<StandardQuad<2>>();
    }

    #[test]
    fn conformance_3d() {
        conformance::<StandardQuad<3>>();
    }

    #[test]
    fn payload_is_ignored_by_identity() {
        let a = StandardQuad::<3>::from_morton(42, 4);
        let b = a.with_payload(0xDEAD_BEEF);
        assert_eq!(a, b);
        assert_eq!(b.payload(), 0xDEAD_BEEF);
        assert_eq!(a.payload(), 0);
    }

    #[test]
    fn from_morton_aligns_to_max_level() {
        // Index 1 at level 1 is the upper-x half: x = 2^(L-1).
        let q = StandardQuad::<3>::from_morton(1, 1);
        assert_eq!(q.coords(), [1 << 17, 0, 0]);
        let q = StandardQuad::<2>::from_morton(2, 1);
        assert_eq!(q.coords(), [0, 1 << 27, 0]);
    }

    #[test]
    fn morton_roundtrip_deep() {
        for level in [0u8, 1, 5, 18] {
            let count = 1u64 << (3 * level.min(4) as u32);
            for i in (0..count).step_by(7).chain([count - 1]) {
                let q = StandardQuad::<3>::from_morton(i, level);
                assert_eq!(q.morton_index(), i);
                assert_eq!(q.level(), level);
            }
        }
    }

    #[test]
    fn face_neighbor_can_leave_root() {
        let q = StandardQuad::<3>::root().child(0);
        let n = q.face_neighbor(0);
        assert_eq!(n.coords()[0], -(1 << 17));
        assert!(!n.is_inside_root());
        assert!(q.face_neighbor_inside(0).is_none());
        assert!(q.face_neighbor_inside(1).is_some());
    }
}
