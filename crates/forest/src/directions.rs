//! Neighbor-direction enumeration shared by balance, ghost construction
//! and iteration. Exterior positions are never materialized as quadrants
//! (the raw-Morton layouts carry no sign bits). A neighbor is found one
//! way: in key space, a level-`ℓ` index stepped by a dilated ±1 per axis
//! (`step_index`), the connectivity consulted only where the step leaves
//! the tree (`neighbor_index`, through [`neighbor_domain`]). Beyond that,
//! [`neighbor_domain`] resolves a domain in coordinates only for a ghost
//! contact across a tree face.

use crate::BalanceKind;
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::Quadrant;

/// Unit offsets `{-1,0,1}^d \ {0}` selecting same-size neighbor domains,
/// filtered by the relation kind. Face offsets have exactly one nonzero
/// component, edge offsets two, corner offsets `d`.
pub fn offsets(dim: u32, kind: BalanceKind) -> Vec<[i32; 3]> {
    let mut out = Vec::new();
    let range = |_d: usize| -1i32..=1;
    for dz in if dim == 3 { range(2) } else { 0..=0 } {
        for dy in range(1) {
            for dx in range(0) {
                let nz = (dx != 0) as u32 + (dy != 0) as u32 + (dz != 0) as u32;
                let keep = match kind {
                    BalanceKind::Face => nz == 1,
                    BalanceKind::Full => nz >= 1,
                };
                if keep {
                    out.push([dx, dy, dz]);
                }
            }
        }
    }
    out
}

/// An axis-aligned closed box in tree coordinates (possibly degenerate).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Box3 {
    /// Inclusive lower corner.
    pub lo: [i32; 3],
    /// Inclusive upper corner.
    pub hi: [i32; 3],
}

impl Box3 {
    /// Transform the box across a tree face, mapping both corners as
    /// points (`h = 0` reflection) and reordering.
    pub(crate) fn transformed(
        &self,
        tf: &quadforest_connectivity::FaceTransform,
        root: i32,
    ) -> Box3 {
        let a = tf.apply(self.lo, 0, root);
        let b = tf.apply(self.hi, 0, root);
        let mut lo = [0i32; 3];
        let mut hi = [0i32; 3];
        for i in 0..3 {
            lo[i] = a[i].min(b[i]);
            hi[i] = a[i].max(b[i]);
        }
        Box3 { lo, hi }
    }
}

/// A same-size neighbor domain of a quadrant, resolved against the
/// connectivity: in which tree it lives and where.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NeighborDomain {
    /// Tree holding the domain.
    pub tree: u32,
    /// Anchor of the domain (a valid quadrant anchor in that tree).
    pub coords: [i32; 3],
    /// Level (same as the originating quadrant).
    pub level: u8,
    /// Closed contact region between the originating quadrant and this
    /// domain, in the *domain's* tree frame.
    pub contact: Box3,
}

/// Compute the same-size neighbor domain of `q` in `tree` along `offset`,
/// resolving a single tree-face crossing through the connectivity.
///
/// Returns `None` when the domain lies outside the forest (physical
/// boundary) or when the offset crosses more than one tree face (edge /
/// corner tree connections are not modeled; see DESIGN.md).
pub fn neighbor_domain<Q: Quadrant>(
    conn: &Connectivity,
    tree: u32,
    q: &Q,
    offset: [i32; 3],
) -> Option<NeighborDomain> {
    let dim = Q::DIM;
    let h = q.side();
    let root = Q::len_at(0);
    let c = q.coords();
    let mut dom = [0i32; 3];
    for a in 0..3 {
        dom[a] = c[a] + offset[a] * h;
    }
    // contact box in the current frame
    let mut contact = Box3 {
        lo: [0; 3],
        hi: [0; 3],
    };
    for a in 0..3 {
        match offset[a] {
            0 => {
                contact.lo[a] = c[a];
                contact.hi[a] = c[a] + if (a as u32) < dim { h } else { 0 };
            }
            1 => {
                contact.lo[a] = c[a] + h;
                contact.hi[a] = c[a] + h;
            }
            _ => {
                contact.lo[a] = c[a];
                contact.hi[a] = c[a];
            }
        }
    }
    // which axes leave the root domain?
    let mut exit_face = None;
    let mut exits = 0;
    for (a, &d) in dom.iter().enumerate().take(dim as usize) {
        let f = if d < 0 {
            Some(2 * a as u32)
        } else if d + h > root {
            Some(2 * a as u32 + 1)
        } else {
            None
        };
        if let Some(f) = f {
            exits += 1;
            exit_face = Some(f);
        }
    }
    match exits {
        0 => Some(NeighborDomain {
            tree,
            coords: dom,
            level: q.level(),
            contact,
        }),
        1 => {
            let face = exit_face.unwrap();
            let connection = conn.neighbor(tree, face)?;
            let tf = &connection.transform;
            let out = tf.apply(dom, h, root);
            Some(NeighborDomain {
                tree: connection.tree,
                coords: out,
                level: q.level(),
                contact: contact.transformed(tf, root),
            })
        }
        _ => None,
    }
}

/// The same-size neighbor domain of the level-`level` node with Morton
/// index `i` in `tree` along `offset`, as `(tree, index)` — what
/// [`neighbor_domain`] of `Q::from_morton(i, level)` read back through
/// `from_coords` → `morton_index` gives, without leaving key space. Each
/// nonzero axis' digits step by a dilated ±1 (the paper's Algorithm 8,
/// `Morton_FNeigh`): the other axes' bits are set so a carry runs through
/// them, or masked off so a borrow does. Only digits that are all ones
/// (stepping up) or all zeros (stepping down) leave the tree, and only
/// then is the connectivity consulted, through that round trip.
pub(crate) fn neighbor_index<Q: Quadrant>(
    conn: &Connectivity,
    tree: u32,
    i: u64,
    level: u8,
    offset: [i32; 3],
) -> Option<(u32, u64)> {
    match step_index::<Q>(i, level, offset) {
        Some(out) => Some((tree, out)),
        None => neighbor_domain(conn, tree, &Q::from_morton(i, level), offset)
            .map(|dom| (dom.tree, Q::from_coords(dom.coords, level).morton_index())),
    }
}

/// [`neighbor_index`] inside the tree: `None` where the step leaves it.
pub(crate) fn step_index<Q: Quadrant>(i: u64, level: u8, offset: [i32; 3]) -> Option<u64> {
    let digits = (1u64 << (Q::DIM * level as u32)) - 1;
    let mut out = i;
    for (a, &o) in offset.iter().enumerate().take(Q::DIM as usize) {
        let m = axis_digits::<Q>(a, digits);
        let own = out & m;
        out = (out & !m)
            | match o {
                0 => continue,
                1 if own != m => ((own | !m) + 1) & m,
                -1 if own != 0 => (own - 1) & m,
                _ => return None,
            };
    }
    Some(out)
}

/// The digits of axis `a` among the whole digits `span` masks (an index's
/// `2^{dℓ} − 1`, a key span's `last − first`): what Algorithm 8 steps, and
/// all zero (all one) in a key on the span's lower (upper) face.
pub(crate) fn axis_digits<Q: Quadrant>(a: usize, span: u64) -> u64 {
    let x_digits = [0x5555_5555_5555_5555u64, 0x1249_2492_4924_9249][Q::DIM as usize - 2];
    (x_digits << a) & span
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use quadforest_core::quadrant::StandardQuad;

    /// The closed-box test of the `cfg(test)` oracles: a quadrant's
    /// closed domain, and whether two closed boxes meet.
    pub(crate) trait ClosedBox {
        fn of_quad<Q: Quadrant>(q: &Q) -> Box3;
        fn intersects(&self, other: &Box3, dim: u32) -> bool;
    }

    impl ClosedBox for Box3 {
        fn of_quad<Q: Quadrant>(q: &Q) -> Box3 {
            let (c, h) = (q.coords(), q.side());
            let hi = [c[0] + h, c[1] + h, if Q::DIM == 3 { c[2] + h } else { 0 }];
            Box3 { lo: c, hi }
        }

        fn intersects(&self, other: &Box3, dim: u32) -> bool {
            (0..dim as usize).all(|a| self.lo[a] <= other.hi[a] && self.hi[a] >= other.lo[a])
        }
    }

    type Q2 = StandardQuad<2>;
    type Q3 = StandardQuad<3>;

    #[test]
    fn offset_counts() {
        assert_eq!(offsets(2, BalanceKind::Face).len(), 4);
        assert_eq!(offsets(2, BalanceKind::Full).len(), 8);
        assert_eq!(offsets(3, BalanceKind::Face).len(), 6);
        assert_eq!(offsets(3, BalanceKind::Full).len(), 26);
    }

    #[test]
    fn box_intersections() {
        let a = Box3 {
            lo: [0, 0, 0],
            hi: [4, 4, 0],
        };
        let b = Box3 {
            lo: [4, 0, 0],
            hi: [8, 4, 0],
        };
        let c = Box3 {
            lo: [5, 5, 0],
            hi: [6, 6, 0],
        };
        assert!(a.intersects(&b, 2), "closed boxes touch at x = 4");
        assert!(!a.intersects(&c, 2));
    }

    #[test]
    fn interior_face_domain() {
        let conn = Connectivity::unit(2);
        let root = Q2::len_at(0);
        let h = Q2::len_at(2);
        let q = Q2::from_coords([h, h, 0], 2);
        let d = neighbor_domain(&conn, 0, &q, [1, 0, 0]).unwrap();
        assert_eq!(d.tree, 0);
        assert_eq!(d.coords, [2 * h, h, 0]);
        assert_eq!(d.contact.lo, [2 * h, h, 0]);
        assert_eq!(d.contact.hi, [2 * h, 2 * h, 0]);
        // boundary face
        let q0 = Q2::from_coords([0, 0, 0], 2);
        assert!(neighbor_domain(&conn, 0, &q0, [-1, 0, 0]).is_none());
        let _ = root;
    }

    #[test]
    fn corner_domain_within_tree() {
        let conn = Connectivity::unit(3);
        let h = Q3::len_at(1);
        let q = Q3::from_coords([h, h, h], 1);
        let d = neighbor_domain(&conn, 0, &q, [-1, -1, -1]).unwrap();
        assert_eq!(d.coords, [0, 0, 0]);
        // contact is the single shared corner point
        assert_eq!(d.contact.lo, [h, h, h]);
        assert_eq!(d.contact.hi, [h, h, h]);
    }

    #[test]
    fn face_crossing_resolves_through_connectivity() {
        let conn = Connectivity::brick2d(2, 1, false, false);
        let h = Q2::len_at(1);
        let root = Q2::len_at(0);
        let q = Q2::from_coords([root - h, 0, 0], 1);
        let d = neighbor_domain(&conn, 0, &q, [1, 0, 0]).unwrap();
        assert_eq!(d.tree, 1);
        assert_eq!(d.coords, [0, 0, 0]);
        assert_eq!(d.contact.lo, [0, 0, 0]);
        assert_eq!(d.contact.hi, [0, h, 0]);
    }

    #[test]
    fn corner_crossing_two_faces_is_skipped() {
        let conn = Connectivity::brick2d(2, 2, false, false);
        let h = Q2::len_at(1);
        let root = Q2::len_at(0);
        let q = Q2::from_coords([root - h, root - h, 0], 1);
        // exits through +x and +y simultaneously
        assert!(neighbor_domain(&conn, 0, &q, [1, 1, 0]).is_none());
        // but single-axis crossings resolve
        assert!(neighbor_domain(&conn, 0, &q, [1, 0, 0]).is_some());
        assert!(neighbor_domain(&conn, 0, &q, [0, 1, 0]).is_some());
    }

    /// [`neighbor_index`] against the coordinate round trip it replaces
    /// (`neighbor_domain` → `from_coords` → `morton_index`) over every
    /// tree of `conn`, both adjacencies, every node of levels `0..=top`
    /// — so the level-0 root and nodes on every tree face — and corner,
    /// face and interior nodes of the two finest levels.
    fn neighbor_index_is_the_round_trip<Q: Quadrant>(conn: &Connectivity, top: u8) {
        let coarse = (0..=top).flat_map(|l| (0..Q::uniform_count(l)).map(move |i| (i, l)));
        let fine = [Q::MAX_LEVEL, Q::MAX_LEVEL - 1].into_iter().flat_map(|l| {
            let n = Q::uniform_count(l);
            [0, 1, n / 2, n / 3, 2 * n / 3, n - 2, n - 1].map(|i| (i, l))
        });
        let nodes: Vec<(u64, u8)> = coarse.chain(fine).collect();
        for kind in [BalanceKind::Face, BalanceKind::Full] {
            for off in offsets(Q::DIM, kind) {
                for tree in 0..conn.num_trees() as u32 {
                    for &(i, level) in &nodes {
                        let q = Q::from_morton(i, level);
                        let want = neighbor_domain(conn, tree, &q, off)
                            .map(|d| (d.tree, Q::from_coords(d.coords, level).morton_index()));
                        assert_eq!(
                            neighbor_index::<Q>(conn, tree, i, level, off),
                            want,
                            "{} tree {tree} level {level} index {i} offset {off:?}",
                            Q::NAME
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn neighbor_index_matches_the_coordinate_round_trip() {
        use quadforest_core::quadrant::{AvxQuad, MortonQuad};
        for conn in [
            Connectivity::unit(2),
            Connectivity::periodic(2),
            Connectivity::brick2d(2, 2, false, true),
            Connectivity::two_trees_rotated_2d(),
        ] {
            neighbor_index_is_the_round_trip::<Q2>(&conn, 3);
            neighbor_index_is_the_round_trip::<MortonQuad<2>>(&conn, 3);
            neighbor_index_is_the_round_trip::<AvxQuad<2>>(&conn, 3);
        }
        for conn in [
            Connectivity::unit(3),
            Connectivity::periodic(3),
            Connectivity::brick3d(2, 1, 2, [false, true, false]),
            Connectivity::two_trees_rotated_3d(),
        ] {
            neighbor_index_is_the_round_trip::<Q3>(&conn, 2);
            neighbor_index_is_the_round_trip::<MortonQuad<3>>(&conn, 2);
            neighbor_index_is_the_round_trip::<AvxQuad<3>>(&conn, 2);
        }
    }

    #[test]
    fn periodic_corner_wraps_single_axis() {
        let conn = Connectivity::periodic(2);
        let h = Q2::len_at(1);
        let root = Q2::len_at(0);
        // corner offset exiting only through +x (y stays inside)
        let q = Q2::from_coords([root - h, 0, 0], 1);
        let d = neighbor_domain(&conn, 0, &q, [1, 1, 0]).unwrap();
        assert_eq!(d.tree, 0);
        assert_eq!(d.coords, [0, h, 0]);
    }
}
