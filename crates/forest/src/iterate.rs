//! Interface (face) iteration.
//!
//! Visits every face interface involving at least one local leaf exactly
//! once per rank: physical boundary faces, equal-size interior faces,
//! and hanging faces (one coarse leaf against a set of finer leaves).
//! Remote sides are taken from a [`GhostLayer`].
//!
//! Unlike classic p4est iteration, this implementation does **not**
//! require the mesh to be 2:1 balanced — the fine side of an interface
//! may be arbitrarily deep (item 4 of the paper's follow-up list: "a
//! mesh iteration algorithm that is functional in the presence of
//! non-2:1-balanced meshes").
//!
//! Emission rules (per rank, deterministic):
//! * boundary faces: emitted by the owning leaf;
//! * equal-size pairs: emitted by the side with the smaller global SFC
//!   position when both are local, and by the local side when the other
//!   is a ghost;
//! * hanging interfaces: emitted by the coarse side when it is local;
//!   when the coarse side is a ghost, by the SFC-first local leaf of the
//!   fine group.

use crate::directions::{neighbor_domain, Box3};
use crate::{Forest, GhostLayer};
use quadforest_core::quadrant::Quadrant;

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

/// An interface between leaves, or a domain-boundary face.
#[derive(Clone, Debug)]
pub enum Interface<'a, Q: Quadrant> {
    /// A face on the physical domain boundary.
    Boundary(FaceSide<Q>),
    /// An interior interface: the primary side and every leaf touching
    /// it from the opposite side (one for conforming faces, several
    /// when the opposite side is finer). The slice is lent from a
    /// buffer the walk reuses: copy what must outlive the visit.
    Interior(FaceSide<Q>, &'a [FaceSide<Q>]),
}

/// The face of the neighbor-tree domain through which `q` is seen, given
/// that `q` sees the domain through its own face `f`. For intra-tree
/// interfaces this is simply the opposite face; across a tree connection
/// it is the connected face of the neighbor tree composed with the
/// transform's axis mapping — derived here geometrically by comparing
/// contact-box position within the domain.
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

/// Iterate all face interfaces involving local leaves; see the module
/// documentation for the exactly-once emission rules.
///
/// For hanging interfaces whose fine group spans several remote ranks,
/// supply a **full** (corner-adjacent) ghost layer so the emitting rank
/// sees every group member — the same requirement p4est's iterate has.
pub fn iterate_faces<Q: Quadrant>(
    forest: &Forest<Q>,
    ghost: &GhostLayer<Q>,
    mut visit: impl FnMut(Interface<'_, Q>),
) {
    let conn = forest.connectivity();
    let first = forest.tree_offsets();
    // append every leaf of `tree` — local leaves, then ghosts — whose
    // subtree overlaps `probe` and whose closed box touches `contact`,
    // each seen through its face `face`
    let touching = |tree: u32, probe: &Q, contact: &Box3, face: u32, out: &mut Vec<_>| {
        let leaves = forest.tree_leaves(tree);
        let local = forest
            .overlapping_range(tree, probe)
            .map(|i| (leaves[i], LeafRef::Local(first[tree as usize] + i)));
        let remote = ghost
            .overlapping(tree, probe)
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
                visit(Interface::Boundary(my_side));
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
                    visit(Interface::Interior(my_side, &others));
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
                    visit(Interface::Interior(p, &others));
                }
            } else {
                // q is the coarse side: others are the fine group
                visit(Interface::Interior(my_side, &others));
            }
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BalanceKind;
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::{MortonQuad, StandardQuad};
    use std::sync::Arc;

    type Q2 = StandardQuad<2>;
    type Q3 = StandardQuad<3>;

    fn count_interfaces<Q: Quadrant>(f: &Forest<Q>, g: &GhostLayer<Q>) -> (usize, usize, usize) {
        let (mut boundary, mut conforming, mut hanging) = (0, 0, 0);
        iterate_faces(f, g, |iface| match iface {
            Interface::Boundary(_) => boundary += 1,
            Interface::Interior(_, others) => {
                if others.len() == 1 {
                    conforming += 1;
                } else {
                    hanging += 1;
                }
            }
        });
        (boundary, conforming, hanging)
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
            // refine only quadrant 0 -> its +x face against quadrant 1 is
            // hanging with two fine leaves
            f.refine(&comm, false, |_, q| q.morton_index() == 0);
            let g = GhostLayer::default();
            let mut hangs = Vec::new();
            iterate_faces(&f, &g, |iface| {
                if let Interface::Interior(primary, others) = iface {
                    if others.len() > 1 {
                        hangs.push((primary, others.to_vec()));
                    }
                }
            });
            // two hanging faces: +x and +y of the refined quadrant
            assert_eq!(hangs.len(), 2);
            for (primary, others) in hangs {
                assert_eq!(primary.quad.level(), 1, "coarse side is primary");
                assert_eq!(others.len(), 2);
                assert!(others.iter().all(|s| s.quad.level() == 2));
                assert!(others.iter().all(|s| !s.is_ghost()));
            }
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
            let g = GhostLayer::default();
            let mut seen_deep_hang = false;
            iterate_faces(&f, &g, |iface| {
                if let Interface::Interior(primary, others) = iface {
                    let dl = others
                        .iter()
                        .map(|s| s.quad.level())
                        .max()
                        .unwrap()
                        .saturating_sub(primary.quad.level());
                    if dl >= 2 {
                        seen_deep_hang = true;
                        // all fine leaves on the face must be present
                        assert!(others.len() >= 2);
                    }
                }
            });
            assert!(seen_deep_hang, "expected an interface with level jump >= 2");
        });
    }

    #[test]
    fn every_interior_face_counted_exactly_once() {
        // Sum over interfaces of (number of fine-side members) must equal
        // the count of (leaf, face) pairs that are interior and finest.
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 2);
            f.refine(&comm, false, |_, q| q.morton_index() % 3 == 0);
            let g = GhostLayer::default();
            let mut emitted: Vec<((u32, u64, u8), (u32, u64, u8))> = Vec::new();
            iterate_faces(&f, &g, |iface| {
                if let Interface::Interior(p, others) = iface {
                    for o in others {
                        let a = (p.tree, p.quad.morton_abs(), p.quad.level());
                        let b = (o.tree, o.quad.morton_abs(), o.quad.level());
                        let key = if a < b { (a, b) } else { (b, a) };
                        emitted.push(key);
                    }
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
                if let Interface::Interior(p, others) = iface {
                    if others.iter().any(|o| o.tree != p.tree) {
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
                if let Interface::Interior(p, others) = iface {
                    if p.is_ghost() || others.iter().any(|o| o.is_ghost()) {
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
        // two hanging interfaces (q1|fines and q2|fines) straddle the
        // rank boundary. Each rank must emit each interface it touches
        // exactly once, with the full fine group attached.
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
            // key hanging interfaces by their coarse side
            let mut seen: Vec<((u64, u8), usize)> = Vec::new();
            iterate_faces(&f, &g, |iface| {
                if let Interface::Interior(p, others) = iface {
                    if others.len() > 1 {
                        assert_eq!(others.len(), 2, "two fine leaves per face in 2D");
                        assert!(p.quad.level() < others[0].quad.level());
                        let key = (p.quad.morton_abs(), p.quad.level());
                        if let Some(e) = seen.iter_mut().find(|(k, _)| *k == key) {
                            e.1 += 1;
                        } else {
                            seen.push((key, 1));
                        }
                    }
                }
            });
            // both hanging interfaces touch both ranks; each rank emits
            // each exactly once
            assert_eq!(seen.len(), 2, "rank {} saw {seen:?}", comm.rank());
            assert!(
                seen.iter().all(|(_, n)| *n == 1),
                "duplicate emission on rank {}: {seen:?}",
                comm.rank()
            );
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

    /// FNV-1a over everything one rank's walk emits, in order: per
    /// interface the primary and every opposite side as `(tree,
    /// morton_abs, level, face, is_ghost)` with the opposite-side count.
    fn sequence_hash<Q: Quadrant>(f: &Forest<Q>, g: &GhostLayer<Q>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        iterate_faces(f, g, |iface| {
            let (p, others) = match iface {
                Interface::Boundary(p) => (p, &[][..]),
                Interface::Interior(p, others) => (p, others),
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

    /// The walk emits what it emitted before sides carried indices: the
    /// constants are `sequence_hash` at commit c9e9e8e (`is_ghost` a
    /// field, the opposite side a fresh `Vec`) on the meshes of
    /// `non_balanced_mesh_iterates`, `multitree_interfaces_cross_faces`
    /// and `hanging_interface_across_rank_boundary`.
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
    /// carries, ghost-coarse hanging interfaces included.
    #[test]
    fn leaf_refs_index_the_leaves_they_name() {
        let mut ghost_primaries = 0;
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
                let (mut local, mut remote, mut ghost_primary) = (0, 0, 0);
                iterate_faces(&f, &g, |iface| {
                    let (p, others) = match iface {
                        Interface::Boundary(p) => (p, &[][..]),
                        Interface::Interior(p, others) => (p, others),
                    };
                    ghost_primary += p.is_ghost() as usize;
                    for s in std::iter::once(&p).chain(others) {
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
                ghost_primary
            });
            ghost_primaries += counts.iter().sum::<usize>();
        }
        assert!(ghost_primaries > 0, "no coarse-ghost hanging interface");
    }
}
