//! The virtual quadrant interface and its concrete representations.
//!
//! p4est classically hardcodes one quadrant layout (coordinates plus level).
//! Following the paper, the layout is abstracted behind the [`Quadrant`]
//! trait so that the high-level AMR algorithms (refinement, balance,
//! partition, ghost construction, iteration) are written once while the
//! per-quadrant "low-level" algorithms are specialized per representation:
//!
//! * [`StandardQuad`] — explicit coordinates and level (Section 2.1),
//! * [`MortonQuad`] — one `u64` holding level and raw Morton index
//!   (Section 2.2),
//! * [`AvxQuad`] — a 128-bit SIMD register holding `(x, y, z, level)`
//!   manipulated with SSE/AVX2 intrinsics (Section 2.3).
//!
//! All three order quadrants along the Morton (Z-order) curve; that is
//! part of the trait's contract, not an implementation detail (see
//! [`Quadrant`]).
//!
//! # Conventions
//!
//! Coordinates are integer multiples of the level-`L` unit where `L` is the
//! library-wide root resolution [`Quadrant::MAX_LEVEL`]: a quadrant at level
//! `ℓ` has side length `h = 2^(L-ℓ)` in integer space and coordinates in
//! `[0, 2^L)`. Faces are numbered `0..2d` with the face across the lower
//! `x` boundary first: `-x, +x, -y, +y, -z, +z` (the paper's Algorithm 8
//! uses the same convention: `sign = (i & 1) ? 1 : -1`, axis `= i / 2`).
//! Children and corners are numbered by their Morton position: bit `k` of
//! the index selects the upper half along axis `k`.

mod avx;
mod common;
mod morton_raw;
mod standard;

pub use avx::{ablation, AvxQuad};
pub use morton_raw::MortonQuad;
pub use standard::StandardQuad;

/// Convenience aliases for the two spatial dimensions.
pub type Standard2 = StandardQuad<2>;
/// 3D standard octant.
pub type Standard3 = StandardQuad<3>;
/// 2D raw-Morton quadrant.
pub type Morton2 = MortonQuad<2>;
/// 3D raw-Morton octant.
pub type Morton3 = MortonQuad<3>;
/// 2D SIMD quadrant.
pub type Avx2d = AvxQuad<2>;
/// 3D SIMD octant.
pub type Avx3d = AvxQuad<3>;

use core::fmt::Debug;
use core::hash::Hash;

/// Result of [`Quadrant::tree_boundaries`] for one axis, using the integer
/// convention of the paper's Algorithm 12.
pub mod boundary {
    /// The quadrant touches every boundary (it is the root).
    pub const ALL: i32 = -2;
    /// The quadrant touches no boundary along this axis.
    pub const NONE: i32 = -1;
}

/// A Morton-ordered quadrant: every low-level per-quadrant algorithm of
/// the AMR workflow, independent of the underlying bit layout.
///
/// Implementations must be plain-old-data (`Copy`), cheap to copy by
/// value, and ordered along the **Morton (Z-order) curve**:
/// [`Quadrant::morton_index`] is the bit interleaving of the coordinates,
/// child `c` of a quadrant is its geometric corner `c`, and
/// [`Quadrant::morton_abs`] / [`Quadrant::sfc_key`] are Z-order keys
/// ([`Quadrant::compare_sfc`] — ancestors sort before descendants sharing
/// the same first corner). The layers above rely on exactly this:
/// `zrange`, the forest's point and box search, `key_span`, the balance
/// closure, the query snapshot and `batch::sfc_keys_all` all compute
/// Z-order keys from coordinates without asking the representation. A
/// layout ordered along any other space-filling curve would satisfy the
/// signatures and be answered wrongly by those layers, so it is not a
/// `Quadrant`. All operations are `O(1)` in the refinement level except
/// where documented.
///
/// # Contract
///
/// Methods with level preconditions (`child` requires `ℓ < L`, `parent`
/// and `sibling` require `ℓ > 0`, …) check them with `debug_assert!` and
/// produce unspecified garbage when violated in release builds — exactly
/// the posture of the C original. Callers guard the level themselves;
/// [`Quadrant::face_neighbor_inside`] is the one checked variant, because
/// the raw-Morton layouts cannot represent an exterior neighbor at all.
pub trait Quadrant:
    Copy + Clone + Eq + PartialEq + Hash + Debug + Send + Sync + Sized + 'static + crate::wire::Wire
{
    /// Spatial dimension `d` (2 or 3).
    const DIM: u32;
    /// Library-wide root resolution `L`: coordinates live in `[0, 2^L)`.
    /// Shared by all representations of the same dimension so that they
    /// interconvert exactly (28 in 2D, 18 in 3D — the raw-Morton limits,
    /// the latter equal to original p4est's 3D maximum).
    const MAX_LEVEL: u8;
    /// Number of children / corners, `2^d`.
    const NUM_CHILDREN: u32 = 1 << Self::DIM;
    /// Number of faces, `2d`.
    const NUM_FACES: u32 = 2 * Self::DIM;
    /// Short human-readable name used in benchmark tables.
    const NAME: &'static str;
    // -- construction --------------------------------------------------

    /// The root quadrant: the full unit tree, level 0.
    fn root() -> Self;

    /// Build a quadrant from explicit coordinates and level. `coords[2]`
    /// is ignored in 2D. Coordinates must be multiples of `2^(L-level)`
    /// within `[0, 2^L)`.
    fn from_coords(coords: [i32; 3], level: u8) -> Self;

    /// The paper's `Morton` algorithm (Algorithms 1, 4 and 11): build the
    /// quadrant with index `index` relative to the level-`level` uniform
    /// mesh.
    fn from_morton(index: u64, level: u8) -> Self;

    // -- interrogation -------------------------------------------------

    /// Refinement level `ℓ ∈ [0, L]`.
    fn level(&self) -> u8;

    /// Explicit coordinates `(x, y, z)`; `z = 0` in 2D.
    fn coords(&self) -> [i32; 3];

    /// Level-relative Morton index `I_ℓ ∈ [0, 2^{dℓ})`: the coordinates'
    /// top `ℓ` bits interleaved, x lowest.
    fn morton_index(&self) -> u64;

    // -- the low-level algorithm set ------------------------------------

    /// The `c`-th child (Algorithms 2, 6 and 9). Requires `ℓ < L`.
    fn child(&self, c: u32) -> Self;

    /// The `s`-th sibling (Algorithm 3): the `s`-th child of this
    /// quadrant's parent. Requires `ℓ > 0`.
    fn sibling(&self, s: u32) -> Self;

    /// The parent (Algorithms 7 and 10). Requires `ℓ > 0`.
    fn parent(&self) -> Self;

    /// The same-level quadrant adjacent across face `f` (Algorithm 8).
    /// The result may lie outside the unit tree; whether that exterior
    /// position is representable is implementation-specific — call
    /// [`Quadrant::face_neighbor_inside`] when exterior neighbors must be
    /// rejected (the raw-Morton layouts wrap around instead of leaving
    /// the root domain, as they carry no sign bits).
    fn face_neighbor(&self, f: u32) -> Self;

    /// Which tree faces this quadrant touches (Algorithm 12): one entry
    /// per axis, [`boundary::ALL`] for the root, [`boundary::NONE`] when
    /// clear of the boundary along that axis, otherwise the touched face
    /// number. In 2D the third entry is [`boundary::NONE`].
    fn tree_boundaries(&self) -> [i32; 3];

    /// The next quadrant of the same level along the space-filling curve
    /// (Algorithm 5). Requires `I_ℓ + 1 < 2^{dℓ}`.
    fn successor(&self) -> Self;

    // -- derived operations (overridable for per-representation speed) --

    /// Integer side length `2^(L-ℓ)` of a quadrant at `level`.
    #[inline]
    fn len_at(level: u8) -> i32 {
        debug_assert!(level <= Self::MAX_LEVEL);
        1 << (Self::MAX_LEVEL - level)
    }

    /// This quadrant's integer side length.
    #[inline]
    fn side(&self) -> i32 {
        Self::len_at(self.level())
    }

    /// Morton index relative to the maximum level,
    /// `I = I_ℓ · 2^{d(L-ℓ)}`.
    #[inline]
    fn morton_abs(&self) -> u64 {
        self.morton_index() << (Self::DIM * (Self::MAX_LEVEL - self.level()) as u32)
    }

    /// Child index of this quadrant relative to its parent,
    /// `I_ℓ mod 2^d`. Requires `ℓ > 0`.
    #[inline]
    fn child_id(&self) -> u32 {
        debug_assert!(self.level() > 0);
        let l = self.level();
        let shift = Self::MAX_LEVEL - l;
        let [x, y, z] = self.coords();
        let mut id = ((x >> shift) & 1) as u32;
        id |= (((y >> shift) & 1) as u32) << 1;
        if Self::DIM == 3 {
            id |= (((z >> shift) & 1) as u32) << 2;
        }
        id
    }

    /// The ancestor at `level`. Requires `level <= ℓ`.
    #[inline]
    fn ancestor(&self, level: u8) -> Self {
        debug_assert!(level <= self.level());
        let mask = !(Self::len_at(level) - 1);
        let [x, y, z] = self.coords();
        Self::from_coords([x & mask, y & mask, z & mask], level)
    }

    /// First (SFC-lowest) descendant at `level`. Requires `level >= ℓ`.
    #[inline]
    fn first_descendant(&self, level: u8) -> Self {
        debug_assert!(level >= self.level() && level <= Self::MAX_LEVEL);
        Self::from_coords(self.coords(), level)
    }

    /// Last (SFC-highest) descendant at `level`. Requires `level >= ℓ`.
    #[inline]
    fn last_descendant(&self, level: u8) -> Self {
        debug_assert!(level >= self.level() && level <= Self::MAX_LEVEL);
        let add = self.side() - Self::len_at(level);
        let [x, y, z] = self.coords();
        let zz = if Self::DIM == 3 { z + add } else { 0 };
        Self::from_coords([x + add, y + add, zz], level)
    }

    /// Space-filling-curve comparison: primary key is the curve position,
    /// ties (identical first corner) order the coarser quadrant — the
    /// ancestor — first. This is p4est's `quadrant_compare`.
    #[inline]
    fn compare_sfc(&self, other: &Self) -> core::cmp::Ordering {
        self.morton_abs()
            .cmp(&other.morton_abs())
            .then_with(|| self.level().cmp(&other.level()))
    }

    /// Total-order sort key `(morton_abs << 6) | level`: integer
    /// comparison of keys is exactly [`compare_sfc`](Self::compare_sfc)
    /// (`morton_abs` needs at most 56 bits, the level at most 6, so the
    /// packing is lossless), and equal keys imply equal quadrants.
    /// `linear::linearize` sorts, sweeps and rebuilds from these keys
    /// alone, one path for every representation.
    #[inline]
    fn sfc_key(&self) -> u64 {
        (self.morton_abs() << 6) | self.level() as u64
    }

    /// Batch [`sfc_key`](Self::sfc_key) extraction. The default loops
    /// per quadrant; the coordinate-carrying representations override
    /// it with one runtime-dispatched pass over their coordinates, the
    /// interleave of [`crate::batch::sfc_keys_all`] without its SoA.
    fn sfc_keys(quads: &[Self]) -> Vec<u64> {
        quads.iter().map(Self::sfc_key).collect()
    }

    /// True when `self` is a strict ancestor of `other`.
    #[inline]
    fn is_ancestor_of(&self, other: &Self) -> bool {
        if self.level() >= other.level() {
            return false;
        }
        let mask = !(self.side() - 1);
        let [x, y, z] = self.coords();
        let [ox, oy, oz] = other.coords();
        x == (ox & mask) && y == (oy & mask) && (Self::DIM == 2 || z == (oz & mask))
    }

    /// True when `self` and `other` are distinct children of one parent.
    #[inline]
    fn is_sibling_of(&self, other: &Self) -> bool {
        if self.level() != other.level() || self.level() == 0 || self == other {
            return false;
        }
        self.parent() == other.parent()
    }

    /// True when the `2^d` quadrants form a complete family of siblings in
    /// child order (the precondition for coarsening).
    fn is_family(quads: &[Self]) -> bool {
        if quads.len() != Self::NUM_CHILDREN as usize {
            return false;
        }
        let l = quads[0].level();
        if l == 0 {
            return false;
        }
        let parent = quads[0].parent();
        quads
            .iter()
            .enumerate()
            .all(|(i, q)| q.level() == l && q.child_id() == i as u32 && q.parent() == parent)
    }

    /// True when the quadrant lies fully inside the unit tree.
    #[inline]
    fn is_inside_root(&self) -> bool {
        let root_len = Self::len_at(0);
        let [x, y, z] = self.coords();
        let side = self.side();
        let ok = |c: i32| c >= 0 && c + side <= root_len;
        ok(x) && ok(y) && (Self::DIM == 2 || ok(z))
    }

    /// Structural validity: level in range and coordinates aligned to the
    /// quadrant's own size inside the root domain.
    #[inline]
    fn is_valid(&self) -> bool {
        let l = self.level();
        if l > Self::MAX_LEVEL {
            return false;
        }
        let mask = Self::len_at(l) - 1;
        let [x, y, z] = self.coords();
        let aligned = (x & mask) == 0 && (y & mask) == 0 && (Self::DIM == 2 || (z & mask) == 0);
        aligned && self.is_inside_root()
    }

    /// Face neighbor constrained to the unit tree: `None` when the
    /// neighbor would fall outside. Safe for every representation,
    /// including the sign-free raw-Morton layouts.
    #[inline]
    fn face_neighbor_inside(&self, f: u32) -> Option<Self> {
        debug_assert!(f < Self::NUM_FACES);
        let axis = (f / 2) as usize;
        let c = self.coords()[axis];
        if f & 1 == 0 {
            // moving towards the lower boundary
            (c > 0).then(|| self.face_neighbor(f))
        } else {
            (c + self.side() < Self::len_at(0)).then(|| self.face_neighbor(f))
        }
    }

    /// True when the integer point lies inside the half-open domain of
    /// this quadrant.
    #[inline]
    fn contains_point(&self, p: [i32; 3]) -> bool {
        let [x, y, z] = self.coords();
        let h = self.side();
        let inside = |c: i32, v: i32| v >= c && v < c + h;
        inside(x, p[0]) && inside(y, p[1]) && (Self::DIM == 2 || inside(z, p[2]))
    }

    /// All `2^d` children in curve order.
    fn children(&self) -> Vec<Self> {
        debug_assert!(self.level() < Self::MAX_LEVEL);
        (0..Self::NUM_CHILDREN).map(|c| self.child(c)).collect()
    }

    /// Total number of quadrants in a uniform mesh of `level`.
    #[inline]
    fn uniform_count(level: u8) -> u64 {
        1u64 << (Self::DIM * level as u32)
    }
}

/// Convert a quadrant from one representation to another with the same
/// dimension and root resolution. The conversion is exact.
#[inline]
pub fn convert<A: Quadrant, B: Quadrant>(q: &A) -> B {
    debug_assert_eq!(A::DIM, B::DIM);
    debug_assert_eq!(A::MAX_LEVEL, B::MAX_LEVEL);
    B::from_coords(q.coords(), q.level())
}

// ---------------------------------------------------------------------------
// Wire encoding: every representation serializes through its normal
// form — level byte plus level-relative Morton index — so peers running
// different representations (or the same one on the far side of a
// process boundary) agree on the bytes. Decoding is strict: an invalid
// level or an index outside the level's range is a typed WireError,
// never a debug_assert trip inside `from_morton`.
// ---------------------------------------------------------------------------

macro_rules! impl_wire_via_morton_generic {
    ($($family:ident),* $(,)?) => {$(
        impl<const D: usize> crate::wire::Wire for $family<D> {
            fn encode(&self, out: &mut Vec<u8>) {
                out.push(self.level());
                out.extend_from_slice(&self.morton_index().to_le_bytes());
            }
            fn decode(
                r: &mut crate::wire::WireReader<'_>,
            ) -> Result<Self, crate::wire::WireError> {
                decode_morton_form::<Self>(r)
            }
        }
    )*};
}

impl_wire_via_morton_generic!(StandardQuad, MortonQuad, AvxQuad);

/// Shared strict decoder behind the per-representation [`crate::wire::Wire`]
/// impls: validates the level and index range before touching
/// `from_morton` (whose contract is `debug_assert`-only).
fn decode_morton_form<Q: Quadrant>(
    r: &mut crate::wire::WireReader<'_>,
) -> Result<Q, crate::wire::WireError> {
    use crate::wire::{Wire, WireError};
    let level = u8::decode(r)?;
    let index = u64::decode(r)?;
    if level > Q::MAX_LEVEL {
        return Err(WireError::Invalid(format!(
            "quadrant level {level} exceeds max {}",
            Q::MAX_LEVEL
        )));
    }
    // DIM * level <= 3*18 = 54 or 2*28 = 56 < 64, so the shift is safe
    let bound = 1u64 << (Q::DIM * level as u32);
    if index >= bound {
        return Err(WireError::Invalid(format!(
            "morton index {index} out of range for level {level} (bound {bound})"
        )));
    }
    Ok(Q::from_morton(index, level))
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use crate::wire::{Wire, WireError};

    fn roundtrip_repr<Q: Quadrant>() {
        for (idx, level) in [(0u64, 0u8), (0, 3), (5, 2), (123, 5), (1, 9)] {
            let q = Q::from_morton(idx, level);
            let bytes = q.to_wire();
            assert_eq!(bytes.len(), 9, "{}: level byte + u64 index", Q::NAME);
            assert_eq!(Q::from_wire(&bytes).unwrap(), q, "{}", Q::NAME);
        }
    }

    #[test]
    fn all_representations_roundtrip() {
        roundtrip_repr::<StandardQuad<2>>();
        roundtrip_repr::<StandardQuad<3>>();
        roundtrip_repr::<MortonQuad<2>>();
        roundtrip_repr::<MortonQuad<3>>();
        roundtrip_repr::<AvxQuad<2>>();
        roundtrip_repr::<AvxQuad<3>>();
    }

    #[test]
    fn representations_share_one_encoding() {
        let m = MortonQuad::<3>::from_morton(777, 6);
        let s: StandardQuad<3> = convert(&m);
        assert_eq!(m.to_wire(), s.to_wire());
    }

    #[test]
    fn hostile_level_and_index_are_typed_errors() {
        // level beyond MAX_LEVEL
        let mut bytes = vec![Morton3::MAX_LEVEL + 1];
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            Morton3::from_wire(&bytes),
            Err(WireError::Invalid(_))
        ));
        // index out of range for the level
        let mut bytes = vec![1u8];
        bytes.extend_from_slice(&8u64.to_le_bytes()); // level 1 holds 8 octants: 8 is out
        assert!(matches!(
            Morton3::from_wire(&bytes),
            Err(WireError::Invalid(_))
        ));
        // truncated
        assert!(matches!(
            Morton3::from_wire(&[3u8, 1, 2]),
            Err(WireError::Truncated { .. })
        ));
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    // Generic conformance suite run against every representation; each
    // concrete module calls into this with its own type.
    pub(crate) fn conformance<Q: Quadrant>() {
        let root = Q::root();
        assert_eq!(root.level(), 0);
        assert_eq!(root.coords(), [0, 0, 0]);
        assert_eq!(root.morton_index(), 0);
        assert!(root.is_valid());
        assert!(root.is_inside_root());
        assert_eq!(root.tree_boundaries()[0], boundary::ALL);

        // children enumerate the Morton order and invert via parent
        let kids = root.children();
        assert_eq!(kids.len(), Q::NUM_CHILDREN as usize);
        for c in 0..Q::NUM_CHILDREN {
            let ch = root.child(c);
            assert_eq!(kids[c as usize], ch);
            assert_eq!(ch.level(), 1);
            assert_eq!(ch.child_id(), c);
            assert_eq!(ch.parent(), root);
            assert_eq!(ch.morton_index(), c as u64);
            assert!(root.is_ancestor_of(&ch));
            assert!(!ch.is_ancestor_of(&root));
        }

        // descend to a deep quadrant and return
        let mut q = root;
        let mut path = Vec::new();
        for i in 0..Q::MAX_LEVEL {
            let c = (i as u32 * 2 + 1) % Q::NUM_CHILDREN;
            path.push(c);
            q = q.child(c);
        }
        assert_eq!(q.level(), Q::MAX_LEVEL);
        assert!(q.is_valid());
        for c in path.iter().rev() {
            assert_eq!(q.child_id(), *c);
            q = q.parent();
        }
        assert_eq!(q, root);

        // siblings form a family
        let base = root.child(0).child(Q::NUM_CHILDREN - 1);
        let family: Vec<Q> = (0..Q::NUM_CHILDREN).map(|s| base.sibling(s)).collect();
        assert!(Q::is_family(&family));
        assert_eq!(family[base.child_id() as usize], base);
        for (s, sib) in family.iter().enumerate() {
            assert_eq!(sib.level(), base.level());
            assert_eq!(sib.child_id(), s as u32);
            assert!(base.is_sibling_of(sib) || *sib == base);
        }

        // successor walks the uniform curve in index order
        let mut walker = Q::from_morton(0, 2);
        for i in 1..Q::uniform_count(2) {
            walker = walker.successor();
            assert_eq!(walker.morton_index(), i);
            assert_eq!(walker.level(), 2);
        }

        // from_morton against child recursion
        for idx in 0..Q::uniform_count(2) {
            let direct = Q::from_morton(idx, 2);
            let via_children = root
                .child((idx >> Q::DIM) as u32 & (Q::NUM_CHILDREN - 1))
                .child(idx as u32 & (Q::NUM_CHILDREN - 1));
            assert_eq!(direct, via_children, "index {idx}");
        }

        // face neighbors: involution and domain checks
        let inner = Q::from_morton(Q::uniform_count(3) / 2, 3);
        for f in 0..Q::NUM_FACES {
            if let Some(n) = inner.face_neighbor_inside(f) {
                assert_eq!(n.level(), inner.level());
                let back = n.face_neighbor_inside(f ^ 1).expect("neighbor must see us");
                assert_eq!(back, inner);
            }
        }

        // boundary classification of a corner child at level 2
        let corner_q = root.child(0).child(0);
        let tb = corner_q.tree_boundaries();
        assert_eq!(tb[0], 0);
        assert_eq!(tb[1], 2);
        if Q::DIM == 3 {
            assert_eq!(tb[2], 4);
        } else {
            assert_eq!(tb[2], boundary::NONE);
        }
        let upper_q = root.child(Q::NUM_CHILDREN - 1).child(Q::NUM_CHILDREN - 1);
        let tb = upper_q.tree_boundaries();
        assert_eq!(tb[0], 1);
        assert_eq!(tb[1], 3);
        if Q::DIM == 3 {
            assert_eq!(tb[2], 5);
        }
        // fully interior quadrant touches nothing
        let mid = Q::from_morton(Q::uniform_count(3) / 2, 3);
        if mid.tree_boundaries() == [boundary::NONE; 3] {
            // expected for the central quadrant in 3D with index 2^9/2;
            // in 2D the middle index may sit on an internal axis — accept
            // either but require self-consistency with coordinates:
        }
        let [x, y, _z] = mid.coords();
        let tb = mid.tree_boundaries();
        if x != 0 && x + mid.side() != Q::len_at(0) {
            assert_eq!(tb[0], boundary::NONE);
        }
        if y != 0 && y + mid.side() != Q::len_at(0) {
            assert_eq!(tb[1], boundary::NONE);
        }

        // descendants and ancestors
        let a = root.child(1);
        let fd = a.first_descendant(Q::MAX_LEVEL);
        let ld = a.last_descendant(Q::MAX_LEVEL);
        assert_eq!(fd.coords(), a.coords());
        assert!(a.is_ancestor_of(&fd));
        assert!(a.is_ancestor_of(&ld));
        assert_eq!(fd.ancestor(1), a);
        assert_eq!(ld.ancestor(1), a);
        assert!(fd.compare_sfc(&ld).is_lt());

        // SFC comparison: ancestor sorts before descendants, curve order
        // respects index order on one level
        assert!(root.compare_sfc(&root.child(0)).is_lt());
        let a = Q::from_morton(5, 2);
        let b = Q::from_morton(6, 2);
        assert!(a.compare_sfc(&b).is_lt());
        assert!(b.compare_sfc(&a).is_gt());
        assert!(a.compare_sfc(&a).is_eq());
    }

    #[test]
    fn convert_between_representations() {
        let s: Standard3 = Standard3::from_morton(12345, 5);
        let m: Morton3 = convert(&s);
        let a: Avx3d = convert(&m);
        let back: Standard3 = convert(&a);
        assert_eq!(back, s);
        assert_eq!(m.morton_index(), 12345);
        assert_eq!(a.level(), 5);
    }
}

#[cfg(test)]
pub(crate) use trait_tests::conformance;
