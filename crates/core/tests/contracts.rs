//! Contract (failure-injection) tests: the low-level API checks its
//! level preconditions with `debug_assert!`, mirroring the C original's
//! `P4EST_ASSERT` posture. These tests pin that contract in debug
//! builds; the checked `try_*` variants must reject the same inputs in
//! every build.

use quadforest_core::quadrant::{AvxQuad, MortonQuad, Quadrant, StandardQuad};

#[test]
fn checked_variants_reject_invalid_inputs() {
    fn run<Q: Quadrant>() {
        let root = Q::root();
        assert!(root.try_parent().is_none(), "root has no parent");
        assert!(root.try_sibling(0).is_none(), "root has no siblings");
        assert!(
            root.try_child(Q::NUM_CHILDREN).is_none(),
            "child index range"
        );
        let mut deepest = root;
        for _ in 0..Q::MAX_LEVEL {
            deepest = deepest.child(0);
        }
        assert!(
            deepest.try_child(0).is_none(),
            "no children below max level"
        );
        assert!(deepest.try_parent().is_some());
        // boundary neighbors
        assert!(root.face_neighbor_inside(0).is_none());
        assert!(root.corner_neighbor_inside(0).is_none());
        let corner = root.child(0);
        assert!(corner.face_neighbor_inside(0).is_none());
        assert!(corner.face_neighbor_inside(1).is_some());
        assert!(corner.corner_neighbor_inside(0).is_none());
        assert!(corner.corner_neighbor_inside(Q::NUM_CHILDREN - 1).is_some());
    }
    run::<StandardQuad<2>>();
    run::<StandardQuad<3>>();
    run::<MortonQuad<2>>();
    run::<MortonQuad<3>>();
    run::<AvxQuad<2>>();
    run::<AvxQuad<3>>();
}

#[test]
fn is_valid_rejects_malformed_quadrants() {
    // misaligned coordinates: a level-1 quadrant anchored off-grid
    let off = StandardQuad::<3>::from_coords([1, 0, 0], 1);
    assert!(!off.is_valid());
    // level out of range survives construction of the raw word but is
    // flagged (use a level > MAX_LEVEL through from_coords of a valid
    // alignment — level 19 > 18 in 3D)
    let aligned_but_deep = StandardQuad::<3>::from_coords([0, 0, 0], 0);
    assert!(aligned_but_deep.is_valid());
    // exterior quadrant
    let ext = StandardQuad::<3>::root().child(0).face_neighbor(0);
    assert!(!ext.is_valid());
    assert!(!ext.is_inside_root());
}

// Debug-build contract: violating a precondition trips a debug_assert.
// These only exist in debug builds, where `cargo test` runs by default.
#[cfg(debug_assertions)]
mod debug_contracts {
    use super::*;

    #[test]
    #[should_panic]
    fn parent_of_root_asserts() {
        let _ = MortonQuad::<3>::root().parent();
    }

    #[test]
    #[should_panic]
    fn child_beyond_max_level_asserts() {
        let mut q = MortonQuad::<3>::root();
        for _ in 0..=MortonQuad::<3>::MAX_LEVEL {
            q = q.child(0); // one step too deep
        }
    }

    #[test]
    #[should_panic]
    fn child_index_out_of_range_asserts() {
        let _ = StandardQuad::<2>::root().child(4);
    }

    #[test]
    #[should_panic]
    fn from_morton_index_too_large_asserts() {
        // level-1 mesh has 8 octants; index 8 is out of range
        let _ = MortonQuad::<3>::from_morton(8, 1);
    }

    #[test]
    #[should_panic]
    fn successor_of_last_asserts() {
        let last = MortonQuad::<3>::from_morton(7, 1);
        let _ = last.successor();
    }

    #[test]
    #[should_panic]
    fn raw_morton_rejects_exterior_coords() {
        // the sign-free representation cannot hold exterior positions
        let _ = MortonQuad::<2>::from_coords([-4, 0, 0], 2);
    }

    #[test]
    #[should_panic]
    fn edge_neighbor_in_2d_panics() {
        // edges exist only in 3D; this is a hard assert in any build
        let _ = StandardQuad::<2>::root().edge_neighbor(0);
    }
}
