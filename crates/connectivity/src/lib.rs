//! # quadforest-connectivity
//!
//! Inter-tree connectivity for forests of quadtrees/octrees — the
//! `p4est_connectivity` substrate. General geometries are meshed by
//! connecting multiple logically cubic trees into a forest; this crate
//! describes that macro-structure: which tree faces attach to which,
//! and how coordinates transform when a quadrant crosses between trees.
//!
//! Unlike p4est, which encodes a connection as `(neighbor, face,
//! orientation)` and decodes the coordinate mapping through permutation
//! tables at transform time, we store the affine coordinate map
//! explicitly per connection ([`FaceTransform`]: axis permutation, per
//! axis reflection, and a root-length translation). The two encodings
//! are equivalent; the explicit map keeps the transform code free of
//! table lookups and makes the inverse-roundtrip property directly
//! testable.

#![warn(missing_docs)]

mod transform;

pub use transform::FaceTransform;

/// Identifier of a tree within a connectivity.
pub type TreeId = u32;

/// One side of an inter-tree face connection.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaceConnection {
    /// The neighboring tree.
    pub tree: TreeId,
    /// The neighbor's face that attaches to ours.
    pub face: u32,
    /// Coordinate map from our tree frame into the neighbor's frame.
    pub transform: FaceTransform,
}

/// The macro-mesh: a graph of logically cubic trees glued along faces.
#[derive(Clone, Debug)]
pub struct Connectivity {
    dim: u32,
    /// `faces[tree][face]` is `Some` when that tree face attaches to
    /// another tree (possibly the same tree, for periodicity), `None` on
    /// a physical boundary.
    faces: Vec<Vec<Option<FaceConnection>>>,
}

impl Connectivity {
    /// Build from an explicit face table. Checks structural invariants
    /// (see [`Connectivity::validate`]) and panics on violation.
    pub(crate) fn new(dim: u32, faces: Vec<Vec<Option<FaceConnection>>>) -> Self {
        assert!(dim == 2 || dim == 3, "dimension must be 2 or 3");
        let c = Self { dim, faces };
        c.validate().expect("invalid connectivity");
        c
    }

    /// Spatial dimension of the trees.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of faces per tree, `2d`.
    pub(crate) fn faces_per_tree(&self) -> u32 {
        2 * self.dim
    }

    /// Number of trees `K`.
    pub fn num_trees(&self) -> usize {
        self.faces.len()
    }

    /// The connection across `face` of `tree`, or `None` at a physical
    /// boundary.
    pub fn neighbor(&self, tree: TreeId, face: u32) -> Option<&FaceConnection> {
        self.faces[tree as usize][face as usize].as_ref()
    }

    /// Verify structural invariants:
    /// * every tree lists exactly `2d` faces,
    /// * every connection's target exists,
    /// * connections are symmetric: if `A.f -> (B, g)`, then
    ///   `B.g -> (A, f)` and the two transforms are mutually inverse.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let nf = self.faces_per_tree() as usize;
        for (t, tree_faces) in self.faces.iter().enumerate() {
            if tree_faces.len() != nf {
                return Err(format!(
                    "tree {t}: {} faces, expected {nf}",
                    tree_faces.len()
                ));
            }
            for (f, conn) in tree_faces.iter().enumerate() {
                let Some(conn) = conn else { continue };
                if conn.tree as usize >= self.num_trees() {
                    return Err(format!(
                        "tree {t} face {f}: target {} out of range",
                        conn.tree
                    ));
                }
                if conn.face >= nf as u32 {
                    return Err(format!(
                        "tree {t} face {f}: target face {} out of range",
                        conn.face
                    ));
                }
                let Some(back) = &self.faces[conn.tree as usize][conn.face as usize] else {
                    return Err(format!(
                        "tree {t} face {f} -> tree {} face {} which is a boundary",
                        conn.tree, conn.face
                    ));
                };
                if back.tree != t as TreeId || back.face != f as u32 {
                    return Err(format!(
                        "asymmetric connection: {t}.{f} -> {}.{} but {}.{} -> {}.{}",
                        conn.tree, conn.face, conn.tree, conn.face, back.tree, back.face
                    ));
                }
                if !conn.transform.is_inverse_of(&back.transform, self.dim) {
                    return Err(format!(
                        "transforms across {t}.{f} <-> {}.{} are not mutually inverse",
                        conn.tree, conn.face
                    ));
                }
            }
        }
        Ok(())
    }

    // -- constructors ----------------------------------------------------

    /// One tree, all faces physical boundary: the unit square / cube.
    pub fn unit(dim: u32) -> Self {
        Self::brick(dim, [1; 3], [false; 3])
    }

    /// One tree with all opposite faces identified: the fully periodic
    /// unit domain (each face connects to its opposite on the same tree).
    pub fn periodic(dim: u32) -> Self {
        Self::brick(dim, [1; 3], [true; 3])
    }

    /// A `m × n` grid of trees in 2D, optionally periodic per axis —
    /// p4est's `brick` connectivity.
    pub fn brick2d(m: u32, n: u32, periodic_x: bool, periodic_y: bool) -> Self {
        Self::brick(2, [m, n, 1], [periodic_x, periodic_y, false])
    }

    /// A `m × n × p` grid of trees in 3D, optionally periodic per axis.
    pub fn brick3d(m: u32, n: u32, p: u32, periodic: [bool; 3]) -> Self {
        Self::brick(3, [m, n, p], periodic)
    }

    /// The `dims[0] × dims[1] × dims[2]` grid of trees behind every
    /// constructor above (`dims[2] = 1` in 2D), tree `(i, j, k)` numbered
    /// `(k·n + j)·m + i`. Face `f` steps along axis `f / 2`, upwards when
    /// `f` is odd; past the end of an axis it wraps around when that axis
    /// is periodic and is a physical boundary otherwise.
    fn brick(dim: u32, dims: [u32; 3], periodic: [bool; 3]) -> Self {
        assert!(dim == 2 || dim == 3, "dimension must be 2 or 3");
        assert!(dims.iter().all(|&d| d > 0));
        let [m, n, p] = dims;
        let mut faces = Vec::with_capacity((m * n * p) as usize);
        for pos in (0..p).flat_map(|k| (0..n).flat_map(move |j| (0..m).map(move |i| [i, j, k]))) {
            let face = |f: u32| {
                let (axis, up) = ((f / 2) as usize, f & 1 == 1);
                let d = dims[axis];
                if !periodic[axis] && pos[axis] == if up { d - 1 } else { 0 } {
                    return None;
                }
                let mut next = pos;
                next[axis] = (pos[axis] + if up { 1 } else { d - 1 }) % d;
                // crossing face f: translate by -1 root (upper exit) or +1 (lower)
                let mut translate = [0i32; 3];
                translate[axis] = if up { -1 } else { 1 };
                Some(FaceConnection {
                    tree: (next[2] * n + next[1]) * m + next[0],
                    face: f ^ 1,
                    transform: FaceTransform::axis_aligned(translate),
                })
            };
            faces.push((0..2 * dim).map(face).collect());
        }
        Self::new(dim, faces)
    }

    /// Two 2D trees glued along tree 0's `+x` face with a relative
    /// rotation: `orientation = 0` joins them coordinate-aligned,
    /// `orientation = 1` reverses the shared edge (tree 1 is "flipped"),
    /// exercising the non-trivial transform paths.
    pub fn two_trees_2d(orientation: u32) -> Self {
        assert!(orientation < 2);
        let fwd = if orientation == 0 {
            // aligned: crossing +x of tree 0 lands on -x of tree 1
            FaceTransform::axis_aligned([-1, 0, 0])
        } else {
            // reversed edge: y runs opposite in tree 1
            FaceTransform {
                perm: [0, 1, 2],
                flip: [false, true, false],
                translate: [-1, 0, 0],
            }
        };
        let bwd = fwd.inverse();
        let faces = vec![
            vec![
                None,
                Some(FaceConnection {
                    tree: 1,
                    face: 0,
                    transform: fwd,
                }),
                None,
                None,
            ],
            vec![
                Some(FaceConnection {
                    tree: 0,
                    face: 1,
                    transform: bwd,
                }),
                None,
                None,
                None,
            ],
        ];
        Self::new(2, faces)
    }

    /// Two 2D trees where tree 1 is rotated a quarter turn relative to
    /// tree 0: crossing tree 0's `+x` face enters tree 1 through its
    /// `-y` face. Exercises axis-permuting transforms.
    pub fn two_trees_rotated_2d() -> Self {
        // Across 0.+x into 1.-y:  x_B = y_A,  y_B = x_A - root.
        let fwd = FaceTransform {
            perm: [1, 0, 2],
            flip: [false, false, false],
            translate: [-1, 0, 0],
        };
        // Inverse: across 1.-y into 0.+x:  x_A = y_B + root, y_A = x_B.
        let bwd = fwd.inverse();
        let faces = vec![
            vec![
                None,
                Some(FaceConnection {
                    tree: 1,
                    face: 2,
                    transform: fwd,
                }),
                None,
                None,
            ],
            vec![
                None,
                None,
                Some(FaceConnection {
                    tree: 0,
                    face: 1,
                    transform: bwd,
                }),
                None,
            ],
        ];
        Self::new(2, faces)
    }

    /// Two 3D trees joined with a fully general (rotated **and**
    /// reflected) face identification: crossing tree 0's `+x` face
    /// enters tree 1 through its `-y` face with the transverse axes
    /// permuted and one of them reversed — the 3D analogue of p4est's
    /// non-trivial face orientations, exercising every component of
    /// [`FaceTransform`] at once.
    pub fn two_trees_rotated_3d() -> Self {
        // x_B = y_A,  y_B = x_A − root,  z_B = root − h − z_A.
        let fwd = FaceTransform {
            perm: [1, 0, 2],
            flip: [false, false, true],
            translate: [-1, 0, 0],
        };
        let bwd = fwd.inverse();
        let mut t0 = vec![None; 6];
        let mut t1 = vec![None; 6];
        t0[1] = Some(FaceConnection {
            tree: 1,
            face: 2,
            transform: fwd,
        });
        t1[2] = Some(FaceConnection {
            tree: 0,
            face: 1,
            transform: bwd,
        });
        Self::new(3, vec![t0, t1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadforest_core::quadrant::{Quadrant, StandardQuad};

    type Q2 = StandardQuad<2>;
    type Q3 = StandardQuad<3>;

    /// Step `q` out across `face` of `tree` and map the exterior
    /// neighbor into the adjacent tree's frame — the one-face crossing
    /// `forest::directions` performs.
    fn cross<Q: Quadrant>(c: &Connectivity, tree: TreeId, face: u32, q: Q) -> (TreeId, Q) {
        let conn = c.neighbor(tree, face).expect("an inter-tree face");
        let exterior = q.face_neighbor(face).coords();
        let out = conn.transform.apply(exterior, q.side(), Q::len_at(0));
        (conn.tree, Q::from_coords(out, q.level()))
    }

    /// Every constructor built on the brick grid, rendered with `{:?}`
    /// and pinned as (length, FNV-1a): no face table, tree numbering or
    /// transform may move.
    #[test]
    fn brick_constructions_are_pinned() {
        let (t, f) = (true, false);
        let built = [
            Connectivity::unit(2),
            Connectivity::unit(3),
            Connectivity::periodic(2),
            Connectivity::periodic(3),
            Connectivity::brick2d(3, 2, f, f),
            Connectivity::brick2d(3, 2, t, f),
            Connectivity::brick2d(1, 4, f, t),
            Connectivity::brick2d(2, 2, t, t),
            Connectivity::brick3d(2, 3, 2, [f; 3]),
            Connectivity::brick3d(2, 3, 2, [t, f, t]),
            Connectivity::brick3d(1, 1, 3, [f, t, t]),
        ];
        let text = format!("{built:?}");
        let fnv = (text.bytes()).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((text.len(), fnv), (26543, 0x5d8a_167b_ce78_00a5));
    }

    #[test]
    fn unit_has_no_neighbors() {
        let c = Connectivity::unit(3);
        assert_eq!(c.num_trees(), 1);
        for f in 0..6 {
            assert!(c.neighbor(0, f).is_none());
        }
    }

    #[test]
    fn periodic_connects_opposite_faces() {
        let c = Connectivity::periodic(3);
        for f in 0..6 {
            let conn = c.neighbor(0, f).unwrap();
            assert_eq!(conn.tree, 0);
            assert_eq!(conn.face, f ^ 1);
        }
        c.validate().unwrap();
    }

    #[test]
    fn periodic_transform_wraps() {
        let c = Connectivity::periodic(3);
        // quadrant at the far +x side, stepping out across +x
        let level = 3;
        let h = Q3::len_at(level);
        let root = Q3::len_at(0);
        let q = Q3::from_coords([root - h, 0, 0], level);
        let (nt, wrapped) = cross(&c, 0, 1, q); // x = root: outside
        assert_eq!(nt, 0);
        assert_eq!(wrapped.coords(), [0, 0, 0]);
        // and the other way
        let q0 = Q3::from_coords([0, 0, 0], level);
        let (_, wrapped) = cross(&c, 0, 0, q0);
        assert_eq!(wrapped.coords(), [root - h, 0, 0]);
    }

    #[test]
    fn brick2d_structure() {
        let c = Connectivity::brick2d(3, 2, false, false);
        assert_eq!(c.num_trees(), 6);
        // interior tree 1 = (1,0): neighbors left 0, right 2, up 4
        assert_eq!(c.neighbor(1, 0).unwrap().tree, 0);
        assert_eq!(c.neighbor(1, 1).unwrap().tree, 2);
        assert!(c.neighbor(1, 2).is_none());
        assert_eq!(c.neighbor(1, 3).unwrap().tree, 4);
        c.validate().unwrap();
    }

    #[test]
    fn brick2d_periodic_wraps_x() {
        let c = Connectivity::brick2d(3, 1, true, false);
        assert_eq!(c.neighbor(2, 1).unwrap().tree, 0);
        assert_eq!(c.neighbor(0, 0).unwrap().tree, 2);
        assert!(c.neighbor(0, 2).is_none());
    }

    #[test]
    fn brick3d_structure() {
        let c = Connectivity::brick3d(2, 2, 2, [false; 3]);
        assert_eq!(c.num_trees(), 8);
        // tree 0 = (0,0,0): +x->1, +y->2, +z->4
        assert_eq!(c.neighbor(0, 1).unwrap().tree, 1);
        assert_eq!(c.neighbor(0, 3).unwrap().tree, 2);
        assert_eq!(c.neighbor(0, 5).unwrap().tree, 4);
        c.validate().unwrap();
    }

    #[test]
    fn brick_transform_roundtrip() {
        let c = Connectivity::brick2d(2, 1, false, false);
        let level = 2;
        let h = Q2::len_at(level);
        let root = Q2::len_at(0);
        // quadrant on tree 0's +x edge
        let q = Q2::from_coords([root - h, h, 0], level);
        let (nt, moved) = cross(&c, 0, 1, q);
        assert_eq!(nt, 1);
        assert_eq!(moved.coords(), [0, h, 0]);
        // step back across tree 1's -x face
        let (bt, back) = cross(&c, 1, 0, moved);
        assert_eq!(bt, 0);
        assert_eq!(back, q);
    }

    #[test]
    fn flipped_two_trees_roundtrip() {
        let c = Connectivity::two_trees_2d(1);
        c.validate().unwrap();
        let level = 3;
        let h = Q2::len_at(level);
        let root = Q2::len_at(0);
        let q = Q2::from_coords([root - h, 2 * h, 0], level);
        let (nt, moved) = cross(&c, 0, 1, q);
        assert_eq!(nt, 1);
        // edge reversed: y' = root - h - y
        assert_eq!(moved.coords(), [0, root - h - 2 * h, 0]);
        let (bt, back) = cross(&c, 1, 0, moved);
        assert_eq!(bt, 0);
        assert_eq!(back, q);
    }

    #[test]
    fn rotated_two_trees_roundtrip() {
        let c = Connectivity::two_trees_rotated_2d();
        c.validate().unwrap();
        let level = 3;
        let h = Q2::len_at(level);
        let root = Q2::len_at(0);
        let q = Q2::from_coords([root - h, 3 * h, 0], level);
        let (nt, moved) = cross(&c, 0, 1, q);
        assert_eq!(nt, 1);
        // quarter turn: x_B = y_A, y_B = x_A - root = 0
        assert_eq!(moved.coords(), [3 * h, 0, 0]);
        let (bt, back) = cross(&c, 1, 2, moved);
        assert_eq!(bt, 0);
        assert_eq!(back, q);
    }

    #[test]
    fn rotated_3d_roundtrip_with_flip() {
        let c = Connectivity::two_trees_rotated_3d();
        c.validate().unwrap();
        let level = 3;
        let h = Q3::len_at(level);
        let root = Q3::len_at(0);
        let q = Q3::from_coords([root - h, 3 * h, 5 * h], level);
        let (nt, moved) = cross(&c, 0, 1, q);
        assert_eq!(nt, 1);
        // x_B = y_A, y_B = 0, z_B = root - h - z_A
        assert_eq!(moved.coords(), [3 * h, 0, root - h - 5 * h]);
        // and back through tree 1's -y face
        let (bt, back) = cross(&c, 1, 2, moved);
        assert_eq!(bt, 0);
        assert_eq!(back, q);
    }

    #[test]
    #[should_panic(expected = "invalid connectivity")]
    fn asymmetric_connection_rejected() {
        let faces = vec![
            vec![
                None,
                Some(FaceConnection {
                    tree: 1,
                    face: 0,
                    transform: FaceTransform::axis_aligned([-1, 0, 0]),
                }),
                None,
                None,
            ],
            // tree 1 does not point back
            vec![None, None, None, None],
        ];
        let _ = Connectivity::new(2, faces);
    }
}
