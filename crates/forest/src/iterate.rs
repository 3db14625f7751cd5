//! Interface (face) iteration.
//!
//! Visits every face of every local leaf once per rank. A face on the
//! physical boundary is emitted as itself; every other face is emitted
//! as *pairs*, one per fine face segment: two leaves whose faces overlap
//! in a patch of positive measure. A coarse leaf facing `k` finer leaves
//! takes part in `k` pairs. Remote sides are taken from a
//! [`GhostLayer`]; a face ghost layer is enough, since the emitting side
//! is local and sees the other side across its own face.
//!
//! Unlike classic p4est iteration, this implementation does **not**
//! require the mesh to be 2:1 balanced — the fine side of an interface
//! may be arbitrarily deep (item 4 of the paper's follow-up list: "a
//! mesh iteration algorithm that is functional in the presence of
//! non-2:1-balanced meshes").
//!
//! One emission rule (per rank, deterministic): the finer side of a pair
//! emits it when it is local, otherwise the local side does; an
//! equal-size pair of two local leaves is emitted by the leaf that comes
//! first on the curve. A rank therefore emits every pair with a local
//! side exactly once, and never a pair of two ghosts.
//!
//! The walk steps across a face in key space, as `balance` and `ghost`
//! do (`directions::step_index`); only a step out of the tree consults
//! the connectivity. A leaf overlapping the domain across touches the
//! face it shows back when its keys' digits of that axis say so.

use crate::directions::{axis_digits, neighbor_index, step_index};
use crate::{index_span, key_span, overlapping, Forest, GhostLayer};
use quadforest_core::quadrant::Quadrant;
use std::cmp::Ordering;

/// Which slot a leaf occupies on this rank. Only `forest` resolves a
/// leaf's identity to its slot; everything above indexes with this.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LeafRef {
    /// Position in [`Forest::leaves`] order — the index of the leaf's
    /// datum in a [`LeafData`](crate::LeafData).
    Local(usize),
    /// Position in [`GhostLayer::ghosts`] — the index of the leaf's
    /// datum in the result of [`GhostLayer::exchange_data`].
    Ghost(usize),
}

/// One side of an interface.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaceSide<Q: Quadrant> {
    /// Tree of this side's leaf.
    pub tree: u32,
    /// The leaf.
    pub quad: Q,
    /// The leaf's face through which the interface is seen.
    pub face: u32,
    /// The slot of `(tree, quad)` in the forest and ghost layer the
    /// walk was given: `forest.leaves().nth(i)` is `(tree, &quad)` for
    /// `Local(i)`, `ghost.ghosts[i]` holds `tree` and `quad` for
    /// `Ghost(i)`.
    pub leaf: LeafRef,
}

impl<Q: Quadrant> FaceSide<Q> {
    /// True when the leaf is a ghost (remote).
    pub fn is_ghost(&self) -> bool {
        matches!(self.leaf, LeafRef::Ghost(_))
    }
}

/// A face segment between two leaves, or a domain-boundary face.
#[derive(Copy, Clone, Debug)]
pub enum Interface<Q: Quadrant> {
    /// A face on the physical domain boundary.
    Boundary(FaceSide<Q>),
    /// One fine face segment: the side that emits it (always local)
    /// and the leaf across from it (local or ghost). Each side is seen
    /// through its own face.
    Interior(FaceSide<Q>, FaceSide<Q>),
}

/// Iterate all face interfaces involving local leaves, as pairs; see
/// the module documentation for the one emission rule.
pub fn iterate_faces<Q: Quadrant>(
    forest: &Forest<Q>,
    ghost: &GhostLayer<Q>,
    mut visit: impl FnMut(Interface<Q>),
) {
    let conn = forest.connectivity();
    let first = forest.tree_offsets();
    for (i, (t, q)) in forest.leaves().enumerate() {
        let (index, level) = (q.morton_index(), q.level());
        for f in 0..Q::NUM_FACES {
            let this = FaceSide {
                tree: t,
                quad: *q,
                face: f,
                leaf: LeafRef::Local(i),
            };
            let mut off = [0i32; 3];
            off[(f / 2) as usize] = if f & 1 == 1 { 1 } else { -1 };
            // the domain across `f` and the face it shows back
            let across = match step_index::<Q>(index, level, off) {
                Some(n) => Some((t, n, f ^ 1)),
                None => neighbor_index::<Q>(conn, t, index, level, off)
                    .zip(conn.neighbor(t, f))
                    .map(|((nt, n), c)| (nt, n, c.face)),
            };
            let Some((nt, n, face)) = across else {
                visit(Interface::Boundary(this));
                continue;
            };
            // a leaf overlapping the span (local leaves, then ghosts)
            // touches a lower `face` when its first key's axis digits are
            // all zero, an upper one when its last key's are all one
            let span = index_span::<Q>(n, level);
            let m = axis_digits::<Q>((face / 2) as usize, span.1 - span.0);
            let touches = |quad: &Q| match key_span(quad) {
                (first, _) if face & 1 == 0 => first & m == 0,
                (_, last) => last & m == m,
            };
            let leaves = forest.tree_leaves(nt);
            let local = overlapping(leaves, span)
                .map(|j| (leaves[j], LeafRef::Local(first[nt as usize] + j)));
            let remote = ghost
                .overlapping(nt, span)
                .map(|j| (ghost.ghosts[j].quad, LeafRef::Ghost(j)));
            for (quad, leaf) in local.chain(remote) {
                let other = FaceSide {
                    tree: nt,
                    quad,
                    face,
                    leaf,
                };
                let emits = match quad.level().cmp(&q.level()) {
                    Ordering::Less => true,
                    Ordering::Greater => other.is_ghost(),
                    Ordering::Equal => {
                        other.is_ghost() || (t, q.morton_abs()) < (nt, quad.morton_abs())
                    }
                };
                if emits && touches(&quad) {
                    visit(Interface::Interior(this, other));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directions::tests::ClosedBox;
    use crate::directions::{neighbor_domain, Box3};
    use crate::BalanceKind;
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::{AvxQuad, MortonQuad, StandardQuad};
    use std::sync::Arc;

    type Q2 = StandardQuad<2>;
    type Q3 = StandardQuad<3>;

    /// What the walk emitted before it emitted pairs: the primary side
    /// and every leaf touching it from the opposite side.
    #[derive(Clone, Debug)]
    enum Grouped<'a, Q: Quadrant> {
        Boundary(FaceSide<Q>),
        Interior(FaceSide<Q>, &'a [FaceSide<Q>]),
    }

    /// The grouped walk of commit d77528c, verbatim but for its name and
    /// `Grouped` for `Interface`: the oracle of the pair walk. Its rules:
    /// equal-size pairs from the curve-first side when both are local and
    /// from the local side otherwise; hanging groups from the coarse side
    /// when it is local, and when it is a ghost from the curve-first
    /// *local* leaf of the fine group, found by a second walk and a sort.
    /// Needs a full ghost layer for fine groups spanning ranks.
    fn iterate_grouped<Q: Quadrant>(
        forest: &Forest<Q>,
        ghost: &GhostLayer<Q>,
        mut visit: impl FnMut(Grouped<'_, Q>),
    ) {
        let conn = forest.connectivity();
        let first = forest.tree_offsets();
        // append every leaf of `tree` — local leaves, then ghosts — whose
        // subtree overlaps `probe` and whose closed box touches `contact`,
        // each seen through its face `face`
        let touching = |tree: u32, probe: &Q, contact: &Box3, face: u32, out: &mut Vec<_>| {
            let leaves = forest.tree_leaves(tree);
            let local = overlapping(leaves, key_span(probe))
                .map(|i| (leaves[i], LeafRef::Local(first[tree as usize] + i)));
            let remote = ghost
                .overlapping(tree, key_span(probe))
                .map(|i| (ghost.ghosts[i].quad, LeafRef::Ghost(i)));
            out.extend(
                local
                    .chain(remote)
                    .filter(|(quad, _)| Box3::of_quad(quad).intersects(contact, Q::DIM))
                    .map(|(quad, leaf)| FaceSide {
                        tree,
                        quad,
                        face,
                        leaf,
                    }),
            );
        };
        // the opposite side of the interface in hand, lent to `visit`
        let mut others: Vec<FaceSide<Q>> = Vec::new();
        for (i, (t, q)) in forest.leaves().enumerate() {
            for f in 0..Q::NUM_FACES {
                let my_side = FaceSide {
                    tree: t,
                    quad: *q,
                    face: f,
                    leaf: LeafRef::Local(i),
                };
                let mut off = [0i32; 3];
                off[(f / 2) as usize] = if f & 1 == 1 { 1 } else { -1 };
                let Some(dom) = neighbor_domain(conn, t, q, off) else {
                    visit(Grouped::Boundary(my_side));
                    continue;
                };
                let probe = Q::from_coords(dom.coords, dom.level);
                let back_face = opposite_face(Q::DIM, dom.coords, probe.side(), &dom.contact);

                others.clear();
                touching(dom.tree, &probe, &dom.contact, back_face, &mut others);
                if others.is_empty() {
                    // The opposite region is owned remotely but no ghost was
                    // supplied (e.g. iteration without a ghost layer): skip.
                    continue;
                }

                if others.len() == 1 && others[0].quad.level() == q.level() {
                    // conforming pair
                    let p = &others[0];
                    if p.is_ghost() || (t, q.morton_abs()) < (p.tree, p.quad.morton_abs()) {
                        visit(Grouped::Interior(my_side, &others));
                    }
                } else if others.len() == 1 && others[0].quad.level() < q.level() {
                    // q is on the fine side of a hanging interface
                    let p = others[0];
                    if !p.is_ghost() {
                        continue; // the coarse local side will emit it
                    }
                    // Coarse ghost: emit once from the SFC-first *local*
                    // member of the fine group — all leaves on q's side
                    // adjacent to p, local and ghost. They live inside the
                    // mirror of p on our side of the plane, which is exactly
                    // q's ancestor at p's level (the unique aligned box of
                    // p's size containing q and touching the plane), and
                    // touch the face patch of that ancestor.
                    let anc = q.ancestor(p.quad.level());
                    others.clear();
                    touching(t, &anc, &own_contact(&anc, f), f, &mut others);
                    others.sort_by_key(|s| (s.quad.morton_abs(), s.quad.level()));
                    let first_local = others
                        .iter()
                        .filter(|s| !s.is_ghost())
                        .map(|s| s.quad.morton_abs())
                        .min()
                        .expect("q itself is a local group member");
                    if first_local == q.morton_abs() {
                        visit(Grouped::Interior(p, &others));
                    }
                } else {
                    // q is the coarse side: others are the fine group
                    visit(Grouped::Interior(my_side, &others));
                }
            }
        }
    }

    /// The face of the neighbor-tree domain through which `q` is seen, given
    /// that `q` sees the domain through its own face `f`. For intra-tree
    /// interfaces this is simply the opposite face; across a tree connection
    /// it is the connected face of the neighbor tree composed with the
    /// transform's axis mapping — derived here geometrically by comparing
    /// contact-box position within the domain, for the oracle; the walk
    /// reads `f ^ 1` or the connection's face.
    fn opposite_face(dim: u32, dom_coords: [i32; 3], dom_h: i32, contact: &Box3) -> u32 {
        for (a, &dc) in dom_coords.iter().enumerate().take(dim as usize) {
            if contact.lo[a] == contact.hi[a] {
                // degenerate axis: the contact plane
                return if contact.lo[a] == dc {
                    2 * a as u32
                } else {
                    debug_assert_eq!(contact.lo[a], dc + dom_h);
                    2 * a as u32 + 1
                };
            }
        }
        unreachable!("face contact must be degenerate along exactly one axis")
    }

    /// The contact region in *our* tree frame: the face of `q` itself.
    fn own_contact<Q: Quadrant>(q: &Q, f: u32) -> Box3 {
        let c = q.coords();
        let h = q.side();
        let mut b = Box3 {
            lo: c,
            hi: [c[0] + h, c[1] + h, if Q::DIM == 3 { c[2] + h } else { 0 }],
        };
        let a = (f / 2) as usize;
        if f & 1 == 1 {
            b.lo[a] = c[a] + h;
        } else {
            b.hi[a] = c[a];
        }
        b
    }

    /// `(boundary, conforming pairs, hanging segments)`: a hanging
    /// segment is a pair of unequal levels.
    fn count_interfaces<Q: Quadrant>(f: &Forest<Q>, g: &GhostLayer<Q>) -> (usize, usize, usize) {
        let (mut boundary, mut conforming, mut hanging) = (0, 0, 0);
        iterate_faces(f, g, |iface| match iface {
            Interface::Boundary(_) => boundary += 1,
            Interface::Interior(a, b) => {
                if a.quad.level() == b.quad.level() {
                    conforming += 1;
                } else {
                    hanging += 1;
                }
            }
        });
        (boundary, conforming, hanging)
    }

    /// Every pair of unequal levels with a local coarse side, grouped
    /// by that side's face: the fine segments must tile the face (their
    /// face measures sum to the coarse one's). Meaningful where every
    /// fine leaf of such a face reaches the walk, e.g. at P = 1.
    fn assert_faces_tiled<Q: Quadrant>(pairs: &[(FaceSide<Q>, FaceSide<Q>)]) {
        let measure = |s: &FaceSide<Q>| (s.quad.side() as u64).pow(Q::DIM - 1);
        let mut faces: Vec<((u32, u64, u8, u32), u64, u64)> = Vec::new();
        for (a, b) in pairs {
            let (fine, coarse) = match a.quad.level().cmp(&b.quad.level()) {
                Ordering::Greater => (a, b),
                Ordering::Less => (b, a),
                Ordering::Equal => continue,
            };
            if coarse.is_ghost() {
                continue;
            }
            let key = (
                coarse.tree,
                coarse.quad.morton_abs(),
                coarse.quad.level(),
                coarse.face,
            );
            match faces.iter_mut().find(|(k, _, _)| *k == key) {
                Some(e) => e.2 += measure(fine),
                None => faces.push((key, measure(coarse), measure(fine))),
            }
        }
        for (key, whole, covered) in faces {
            assert_eq!(covered, whole, "coarse face {key:?} is not tiled");
        }
    }

    fn pairs<Q: Quadrant>(f: &Forest<Q>, g: &GhostLayer<Q>) -> Vec<(FaceSide<Q>, FaceSide<Q>)> {
        let mut out = Vec::new();
        iterate_faces(f, g, |iface| {
            if let Interface::Interior(a, b) = iface {
                out.push((a, b));
            }
        });
        out
    }

    #[test]
    fn uniform_2d_counts() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let f = Forest::<Q2>::new_uniform(conn, &comm, 2);
            let g = GhostLayer::default();
            let (b, c, h) = count_interfaces(&f, &g);
            // 4x4 grid: boundary faces 16, interior faces 2*4*3 = 24
            assert_eq!(b, 16);
            assert_eq!(c, 24);
            assert_eq!(h, 0);
        });
    }

    #[test]
    fn uniform_3d_counts() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let f = Forest::<Q3>::new_uniform(conn, &comm, 1);
            let g = GhostLayer::default();
            let (b, c, h) = count_interfaces(&f, &g);
            // 2x2x2: boundary 24, interior 12
            assert_eq!(b, 24);
            assert_eq!(c, 12);
            assert_eq!(h, 0);
        });
    }

    #[test]
    fn hanging_interface_emitted_once_with_all_fines() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            // refine only quadrant 0 -> its +x face against quadrant 1 and
            // its +y face against quadrant 2 are hanging, two fine
            // segments each
            f.refine(&comm, false, |_, q| q.morton_index() == 0);
            let g = GhostLayer::default();
            let hangs: Vec<_> = pairs(&f, &g)
                .into_iter()
                .filter(|(a, b)| a.quad.level() != b.quad.level())
                .collect();
            assert_eq!(hangs.len(), 4, "two hanging faces, two segments each");
            for (this, other) in &hangs {
                assert_eq!(this.quad.level(), 2, "the fine local side emits");
                assert_eq!(other.quad.level(), 1);
                assert!(!this.is_ghost() && !other.is_ghost());
            }
            let mut segments: Vec<_> = hangs
                .iter()
                .map(|(fine, coarse)| (coarse.quad.morton_abs(), fine.quad.morton_abs()))
                .collect();
            segments.sort();
            segments.dedup();
            assert_eq!(segments.len(), 4, "a segment was emitted twice");
            assert_faces_tiled(&hangs);
        });
    }

    #[test]
    fn non_balanced_mesh_iterates() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            // 3-level jump at the domain center: no balance call
            let center = [Q2::len_at(0) / 2, Q2::len_at(0) / 2, 0];
            f.refine(&comm, true, |_, q| {
                q.contains_point(center) && q.level() < 4
            });
            assert!(f.is_balanced_local(BalanceKind::Face).is_err());
            let all = pairs(&f, &GhostLayer::default());
            assert!(
                all.iter()
                    .any(|(a, b)| a.quad.level().abs_diff(b.quad.level()) >= 2),
                "expected a pair with level jump >= 2"
            );
            // all fine leaves on every coarse face must be present
            assert_faces_tiled(&all);
        });
    }

    #[test]
    fn every_interior_face_counted_exactly_once() {
        // No adjacent leaf pair may be emitted twice.
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 2);
            f.refine(&comm, false, |_, q| q.morton_index() % 3 == 0);
            let g = GhostLayer::default();
            let mut emitted: Vec<((u32, u64, u8), (u32, u64, u8))> = Vec::new();
            iterate_faces(&f, &g, |iface| {
                if let Interface::Interior(p, o) = iface {
                    let a = (p.tree, p.quad.morton_abs(), p.quad.level());
                    let b = (o.tree, o.quad.morton_abs(), o.quad.level());
                    let key = if a < b { (a, b) } else { (b, a) };
                    emitted.push(key);
                }
            });
            let n = emitted.len();
            emitted.sort();
            emitted.dedup();
            assert_eq!(emitted.len(), n, "an adjacent leaf pair was emitted twice");
        });
    }

    #[test]
    fn multitree_interfaces_cross_faces() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::brick2d(2, 1, false, false));
            let f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            let g = GhostLayer::default();
            let mut cross = 0;
            iterate_faces(&f, &g, |iface| {
                if let Interface::Interior(p, o) = iface {
                    if o.tree != p.tree {
                        cross += 1;
                    }
                }
            });
            // two leaves on each side of the shared tree face
            assert_eq!(cross, 2);
        });
    }

    #[test]
    fn distributed_interfaces_cover_rank_boundaries() {
        quadforest_comm::run(2, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 2);
            let g = f.ghost(&comm, BalanceKind::Face);
            let mut ghost_faces = 0;
            iterate_faces(&f, &g, |iface| {
                if let Interface::Interior(p, o) = iface {
                    if p.is_ghost() || o.is_ghost() {
                        ghost_faces += 1;
                    }
                }
            });
            assert!(
                ghost_faces > 0,
                "rank-boundary interfaces must appear via ghosts"
            );
        });
    }

    #[test]
    fn hanging_interface_across_rank_boundary() {
        // 2D unit square, uniform level 1 with the curve-last quadrant
        // refined: 3 coarse + 4 fine leaves. With P = 2 the coarse
        // leaves land on rank 0 and the fine family on rank 1, so the
        // two hanging faces (q1|fines and q2|fines) straddle the rank
        // boundary, two fine segments each. Each rank must emit each of
        // the four segments exactly once — rank 0 from the coarse side,
        // rank 1 from the fine side — from a face ghost layer.
        quadforest_comm::run(2, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            f.refine(&comm, false, |_, q| q.morton_index() == 3);
            f.partition(&comm);
            // verify the intended distribution: 7 leaves -> 3 + 4
            assert_eq!(f.global_count(), 7);
            let counts = comm.allgather(f.local_count());
            assert_eq!(counts, vec![3, 4]);
            let g = f.ghost(&comm, BalanceKind::Face);
            // (coarse, fine) of every hanging segment
            let mut seen: Vec<((u64, u8), (u64, u8))> = Vec::new();
            for (this, other) in pairs(&f, &g) {
                let (fine, coarse) = match this.quad.level().cmp(&other.quad.level()) {
                    Ordering::Greater => (this, other),
                    Ordering::Less => (other, this),
                    Ordering::Equal => continue,
                };
                assert!(!this.is_ghost(), "the emitting side is local");
                assert_eq!(fine.is_ghost(), comm.rank() == 0, "{this:?} | {other:?}");
                seen.push((
                    (coarse.quad.morton_abs(), coarse.quad.level()),
                    (fine.quad.morton_abs(), fine.quad.level()),
                ));
            }
            let n = seen.len();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), n, "duplicate emission on rank {}", comm.rank());
            assert_eq!(n, 4, "rank {} saw {seen:?}", comm.rank());
            let mut coarse: Vec<_> = seen.iter().map(|(c, _)| *c).collect();
            coarse.dedup();
            assert_eq!(coarse.len(), 2, "two coarse leaves, two segments each");
        });
    }

    #[test]
    fn boundary_faces_match_tree_boundaries() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let f = Forest::<Q2>::new_uniform(conn, &comm, 2);
            let g = GhostLayer::default();
            iterate_faces(&f, &g, |iface| {
                if let Interface::Boundary(side) = iface {
                    let tb = side.quad.tree_boundaries();
                    let axis = (side.face / 2) as usize;
                    assert_eq!(
                        tb[axis], side.face as i32,
                        "boundary emission must agree with Algorithm 12"
                    );
                }
            });
        });
    }

    /// FNV-1a over everything one rank's grouped walk emits, in order:
    /// per interface the primary and every opposite side as `(tree,
    /// morton_abs, level, face, is_ghost)` with the opposite-side count.
    fn sequence_hash<Q: Quadrant>(f: &Forest<Q>, g: &GhostLayer<Q>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        iterate_grouped(f, g, |iface| {
            let (p, others) = match iface {
                Grouped::Boundary(p) => (p, &[][..]),
                Grouped::Interior(p, others) => (p, others),
            };
            for s in std::iter::once(&p).chain(others) {
                for w in [
                    s.tree as u64,
                    s.quad.morton_abs(),
                    s.quad.level() as u64,
                    s.face as u64,
                    s.is_ghost() as u64,
                    others.len() as u64,
                ] {
                    h = (h ^ w).wrapping_mul(0x1000_0000_01b3);
                }
            }
        });
        h
    }

    /// The oracle is the grouped walk: the constants are `sequence_hash`
    /// at commit c9e9e8e (`is_ghost` a field, the opposite side a fresh
    /// `Vec`) on the meshes of `non_balanced_mesh_iterates`,
    /// `multitree_interfaces_cross_faces` and
    /// `hanging_interface_across_rank_boundary`.
    #[test]
    fn emitted_sequence_is_the_parent_commits() {
        let non_balanced = quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            let center = [Q2::len_at(0) / 2, Q2::len_at(0) / 2, 0];
            f.refine(&comm, true, |_, q| {
                q.contains_point(center) && q.level() < 4
            });
            sequence_hash(&f, &GhostLayer::default())
        });
        assert_eq!(non_balanced, [0xaae8_9467_1d13_1801]);
        let multitree = quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::brick2d(2, 1, false, false));
            let f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            sequence_hash(&f, &GhostLayer::default())
        });
        assert_eq!(multitree, [0x044c_b652_6860_0945]);
        let hanging = |p: usize| {
            quadforest_comm::run(p, |comm| {
                let conn = Arc::new(Connectivity::unit(2));
                let mut f = Forest::<Q2>::new_uniform(conn, &comm, 1);
                f.refine(&comm, false, |_, q| q.morton_index() == 3);
                f.partition(&comm);
                let g = f.ghost(&comm, BalanceKind::Face);
                sequence_hash(&f, &g)
            })
        };
        assert_eq!(hanging(2), [0xb6d9_d867_fd2c_f3d9, 0x2fc8_55f9_0f7f_df63]);
        assert_eq!(
            hanging(3),
            [
                0x52a7_398c_8602_555d,
                0xaf96_ba1a_76f3_7cbd,
                0x7863_16cf_c51d_3d3b
            ]
        );
    }

    /// Every emitted `LeafRef` indexes the very `(tree, quad)` its side
    /// carries, pairs whose other side is a coarser ghost included — the
    /// case the grouped walk needed a second walk for.
    #[test]
    fn leaf_refs_index_the_leaves_they_name() {
        let mut coarse_ghosts = 0;
        for p in [1usize, 2, 3, 5] {
            let counts = quadforest_comm::run(p, |comm| {
                let conn = Arc::new(Connectivity::brick2d(2, 1, true, false));
                let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 2);
                f.refine(&comm, true, |t, q| {
                    q.level() < 5 && (q.morton_abs() >> 7).wrapping_mul(t as u64 + 3) % 5 == 0
                });
                f.partition(&comm);
                let g = f.ghost(&comm, BalanceKind::Full);
                let leaves: Vec<_> = f.leaves().collect();
                let (mut local, mut remote, mut coarse_ghost) = (0, 0, 0);
                iterate_faces(&f, &g, |iface| {
                    let (p, o) = match iface {
                        Interface::Boundary(p) => (p, None),
                        Interface::Interior(p, o) => (p, Some(o)),
                    };
                    assert!(!p.is_ghost(), "the emitting side is local");
                    coarse_ghost +=
                        o.is_some_and(|o| o.is_ghost() && o.quad.level() < p.quad.level()) as usize;
                    for s in std::iter::once(&p).chain(&o) {
                        match s.leaf {
                            LeafRef::Local(i) => {
                                assert_eq!(leaves[i], (s.tree, &s.quad));
                                local += 1;
                            }
                            LeafRef::Ghost(i) => {
                                assert_eq!((g.ghosts[i].tree, g.ghosts[i].quad), (s.tree, s.quad));
                                remote += 1;
                            }
                        }
                    }
                });
                assert!(local > 0 || f.local_count() == 0);
                assert_eq!(remote > 0, !g.is_empty(), "P = {p}");
                coarse_ghost
            });
            coarse_ghosts += counts.iter().sum::<usize>();
        }
        assert!(coarse_ghosts > 0, "no pair with a coarser ghost");
    }

    /// One side as the sweep compares it, free of the layer's indices:
    /// `(tree, morton_abs, level, face, is_ghost)`.
    type Side = (u32, u64, u8, u32, bool);

    fn side<Q: Quadrant>(s: &FaceSide<Q>) -> Side {
        (
            s.tree,
            s.quad.morton_abs(),
            s.quad.level(),
            s.face,
            s.is_ghost(),
        )
    }

    fn unordered(a: Side, b: Side) -> (Side, Side) {
        if a < b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// The pair walk as a multiset of unordered pairs, sorted.
    fn pair_multiset<Q: Quadrant>(f: &Forest<Q>, g: &GhostLayer<Q>) -> Vec<(Side, Side)> {
        let mut out: Vec<_> = pairs(f, g)
            .iter()
            .map(|(a, b)| unordered(side(a), side(b)))
            .collect();
        out.sort_unstable();
        out
    }

    /// The grouped walk's groups flattened to pairs, minus ghost–ghost
    /// pairs, as a sorted multiset of unordered pairs.
    fn oracle_multiset<Q: Quadrant>(f: &Forest<Q>, g: &GhostLayer<Q>) -> Vec<(Side, Side)> {
        let mut out = Vec::new();
        iterate_grouped(f, g, |iface| {
            if let Grouped::Interior(p, others) = iface {
                for o in others {
                    if !(p.is_ghost() && o.is_ghost()) {
                        out.push(unordered(side(&p), side(o)));
                    }
                }
            }
        });
        out.sort_unstable();
        out
    }

    /// One sweep case: a seeded recursive refinement (steep level jumps,
    /// never balanced), partitioned on even seeds. The pair walk on a
    /// full ghost layer, and on a face ghost layer, equals the oracle on
    /// the full layer.
    fn pairs_are_the_groups_flattened<Q: Quadrant>(conn: &Connectivity, ranks: usize, seed: u64) {
        let max_level = if Q::DIM == 2 { 5 } else { 3 };
        let conn = Arc::new(conn.clone());
        quadforest_comm::run(ranks, move |comm| {
            let mut f = Forest::<Q>::new_uniform(conn.clone(), &comm, 1);
            f.refine(&comm, true, |t, q| {
                let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
                for w in [t as u64, q.morton_abs(), q.level() as u64] {
                    h = (h ^ w).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                    h ^= h >> 33;
                }
                q.level() < max_level && h % 3 == 0
            });
            if seed % 2 == 0 {
                f.partition(&comm);
            }
            let what = format!("{} P={ranks} seed {seed}", Q::NAME);
            let full = f.ghost(&comm, BalanceKind::Full);
            let want = oracle_multiset(&f, &full);
            assert!(!want.is_empty() || f.local_count() == 0, "{what}");
            assert_eq!(pair_multiset(&f, &full), want, "{what}: full layer");
            let face = f.ghost(&comm, BalanceKind::Face);
            assert_eq!(pair_multiset(&f, &face), want, "{what}: face layer");
        });
    }

    /// ROADMAP item 2's differential sweep: the 9 connectivities of
    /// `tests/balance_oracle.rs` × P ∈ {1, 2, 3, 4, 8}, representations
    /// in turn.
    #[test]
    fn pairs_are_the_grouped_walk_flattened() {
        let mut case = 0u64;
        let mut sweep = |conn: Connectivity| {
            for ranks in [1usize, 2, 3, 4, 8] {
                match (conn.dim(), case % 3) {
                    (2, 0) => pairs_are_the_groups_flattened::<Q2>(&conn, ranks, case),
                    (2, 1) => pairs_are_the_groups_flattened::<MortonQuad<2>>(&conn, ranks, case),
                    (2, _) => pairs_are_the_groups_flattened::<AvxQuad<2>>(&conn, ranks, case),
                    (_, 0) => pairs_are_the_groups_flattened::<Q3>(&conn, ranks, case),
                    (_, 1) => pairs_are_the_groups_flattened::<MortonQuad<3>>(&conn, ranks, case),
                    _ => pairs_are_the_groups_flattened::<AvxQuad<3>>(&conn, ranks, case),
                }
                case += 1;
            }
        };
        for conn in [
            Connectivity::unit(2),
            Connectivity::periodic(2),
            Connectivity::brick2d(3, 2, false, false),
            Connectivity::two_trees_2d(1),
            Connectivity::two_trees_rotated_2d(),
            Connectivity::unit(3),
            Connectivity::periodic(3),
            Connectivity::brick3d(2, 1, 2, [false; 3]),
            Connectivity::two_trees_rotated_3d(),
        ] {
            sweep(conn);
        }
    }
}
