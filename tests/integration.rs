//! Cross-crate integration tests: full AMR workflows spanning
//! quadforest-core, -connectivity, -comm, -forest and -vtk, exercised
//! under every quadrant representation and multiple simulated rank
//! counts.

use quadforest::prelude::*;
use std::sync::Arc;

/// The canonical pipeline fingerprint: create → refine → balance →
/// partition → ghost → iterate, reduced to a global checksum that
/// covers leaf positions, levels, ghost count and interface counts.
fn pipeline_fingerprint<Q: Quadrant>(ranks: usize, conn_builder: fn() -> Connectivity) -> u64 {
    let sums = quadforest::comm::run(ranks, move |comm| {
        let conn = Arc::new(conn_builder());
        let mut f = Forest::<Q>::new_uniform(conn, &comm, 2);
        let center = [Q::len_at(0) / 3, Q::len_at(0) / 2, Q::len_at(0) / 2];
        f.refine(&comm, true, |t, q| {
            t == 0 && q.level() < 5 && q.contains_point(center)
        });
        f.balance(&comm, BalanceKind::Face);
        f.partition(&comm);
        f.validate().unwrap();
        let ghost = f.ghost(&comm, BalanceKind::Face);
        // Rank-count-invariant interface fingerprint: each face pair is
        // emitted once on every rank owning one of its sides, regardless
        // of P (a straddling pair on both ranks, with the other rank's
        // side marked as a ghost — so summing only non-ghost sides makes
        // the global total invariant).
        let hash_side = |s: &FaceSide<Q>| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let c = s.quad.coords();
            for w in [
                s.tree as u64,
                c[0] as u64,
                c[1] as u64,
                c[2] as u64,
                s.quad.level() as u64,
                s.face as u64,
            ] {
                h ^= w;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h
        };
        let mut iface_local: u64 = 0;
        iterate_faces(&f, &ghost, |iface| match iface {
            Interface::Boundary(s) => iface_local = iface_local.wrapping_add(hash_side(&s)),
            Interface::Interior(p, o) => {
                for s in [&o, &p] {
                    if !s.is_ghost() {
                        iface_local = iface_local.wrapping_add(hash_side(s));
                    }
                }
            }
        });
        let iface_sum = comm.allreduce(iface_local, |a, b| a.wrapping_add(*b));
        f.checksum(&comm) ^ iface_sum
    });
    assert!(sums.iter().all(|s| *s == sums[0]));
    sums[0]
}

#[test]
fn pipeline_identical_across_representations_2d() {
    let conn = || Connectivity::unit(2);
    let a = pipeline_fingerprint::<Standard2>(2, conn);
    let b = pipeline_fingerprint::<Morton2>(2, conn);
    let c = pipeline_fingerprint::<Avx2d>(2, conn);
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn pipeline_identical_across_representations_3d() {
    let conn = || Connectivity::unit(3);
    let a = pipeline_fingerprint::<Standard3>(2, conn);
    let b = pipeline_fingerprint::<Morton3>(2, conn);
    let c = pipeline_fingerprint::<Avx3d>(2, conn);
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn pipeline_rank_count_invariant() {
    let conn = || Connectivity::brick2d(2, 1, false, false);
    let serial = pipeline_fingerprint::<Morton2>(1, conn);
    for p in [2, 3, 5, 8] {
        assert_eq!(
            pipeline_fingerprint::<Morton2>(p, conn),
            serial,
            "P = {p} must reproduce the serial mesh"
        );
    }
}

#[test]
fn pipeline_on_periodic_and_rotated_connectivities() {
    // the full pipeline must run and validate on non-trivial topologies
    let _ = pipeline_fingerprint::<Standard2>(2, || Connectivity::periodic(2));
    let _ = pipeline_fingerprint::<Standard2>(2, Connectivity::two_trees_rotated_2d);
    let _ = pipeline_fingerprint::<Standard2>(2, || Connectivity::two_trees_2d(1));
}

#[test]
fn periodic_topology_has_no_boundary_faces() {
    let counts = |builder: fn() -> Connectivity| {
        quadforest::comm::run(1, move |comm| {
            let conn = Arc::new(builder());
            let f = Forest::<Standard2>::new_uniform(conn, &comm, 3);
            let ghost = GhostLayer::default();
            let (mut boundary, mut interior) = (0u64, 0u64);
            iterate_faces(&f, &ghost, |iface| match iface {
                Interface::Boundary(_) => boundary += 1,
                Interface::Interior(_, _) => interior += 1,
            });
            (boundary, interior)
        })[0]
    };
    let (b_unit, i_unit) = counts(|| Connectivity::unit(2));
    let (b_per, i_per) = counts(|| Connectivity::periodic(2));
    assert_eq!(b_unit, 4 * 8, "8x8 grid: 32 boundary faces");
    assert_eq!(b_per, 0, "periodic domain has no boundary");
    // the wrapped faces turn into interior interfaces
    assert_eq!(i_per, i_unit + b_unit / 2);
}

#[test]
fn balance_across_rotated_tree_connection() {
    quadforest::comm::run(1, |comm| {
        let conn = Arc::new(Connectivity::two_trees_rotated_2d());
        let mut f = Forest::<Standard2>::new_uniform(conn, &comm, 1);
        // refine tree 0 against its +x face (which meets tree 1's -y
        // face rotated): the ripple must arrive in tree 1 near y = 0
        let root = Standard2::len_at(0);
        f.refine(&comm, true, |t, q| {
            t == 0 && q.level() < 6 && q.coords()[0] + q.side() == root && q.coords()[1] == 0
        });
        f.balance(&comm, BalanceKind::Face);
        f.is_balanced_local(BalanceKind::Face).unwrap();
        let max_in_1 = f
            .tree_leaves(1)
            .iter()
            .filter(|q| q.coords()[1] == 0)
            .map(|q| q.level())
            .max()
            .unwrap();
        assert!(
            max_in_1 >= 4,
            "balance must propagate through the rotated connection, got level {max_in_1}"
        );
    });
}

#[test]
fn ghost_and_iterate_agree_on_hanging_faces() {
    // Every hanging interface seen via ghosts on one rank must have its
    // counterpart leaves actually present in the other rank's forest.
    quadforest::comm::run(2, |comm| {
        let conn = Arc::new(Connectivity::unit(2));
        let mut f = Forest::<Morton2>::new_uniform(conn, &comm, 2);
        let center = [Morton2::len_at(0) / 2, Morton2::len_at(0) / 2, 0];
        f.refine(&comm, true, |_, q| {
            q.level() < 4 && q.contains_point(center)
        });
        f.balance(&comm, BalanceKind::Face);
        let ghost = f.ghost(&comm, BalanceKind::Face);
        // collect all leaves globally for cross-checking
        let all: Vec<(u32, [i32; 3], u8)> = comm
            .allgather(
                f.leaves()
                    .map(|(t, q)| (t, q.coords(), q.level()))
                    .collect::<Vec<_>>(),
            )
            .into_iter()
            .flatten()
            .collect();
        iterate_faces(&f, &ghost, |iface| {
            if let Interface::Interior(p, o) = iface {
                for side in [&o, &p] {
                    assert!(
                        all.contains(&(side.tree, side.quad.coords(), side.quad.level())),
                        "iterated side {side:?} is not a real leaf anywhere"
                    );
                }
            }
        });
    });
}

#[test]
fn vtk_output_from_distributed_forest() {
    quadforest::comm::run(3, |comm| {
        let conn = Arc::new(Connectivity::unit(2));
        let mut f = Forest::<Avx2d>::new_uniform(conn, &comm, 2);
        f.refine(&comm, false, |_, q| q.morton_index() % 4 == 0);
        let mut buf = Vec::new();
        quadforest::vtk::write_local(&f, &mut buf, &Default::default()).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains(&format!("CELL_DATA {}", f.local_count())));
        // leaves of all three ranks together tile the square exactly
        let area: u64 = comm.allreduce_sum(
            f.leaves()
                .map(|(_, q)| {
                    let h = q.side() as u64;
                    h * h
                })
                .sum::<u64>(),
        );
        let root = Avx2d::len_at(0) as u64;
        assert_eq!(area, root * root);
    });
}

#[test]
fn coarsen_refine_roundtrip_distributed() {
    quadforest::comm::run(4, |comm| {
        let conn = Arc::new(Connectivity::unit(3));
        let mut f = Forest::<Morton3>::new_uniform(conn, &comm, 2);
        let before = f.checksum(&comm);
        f.refine(&comm, false, |_, _| true);
        // partition so families land within single ranks, then coarsen
        f.partition(&comm);
        f.coarsen(&comm, false, |_, _| true);
        // after coarsening everything back, the mesh is the original
        assert_eq!(f.checksum(&comm), before);
        assert_eq!(f.validate(), Ok(()));
    });
}

#[test]
fn search_and_ghost_compose() {
    quadforest::comm::run(2, |comm| {
        let conn = Arc::new(Connectivity::unit(2));
        let mut f = Forest::<Standard2>::new_uniform(conn, &comm, 3);
        f.refine(&comm, false, |_, q| q.morton_index() % 7 == 0);
        // every local leaf must be findable by its own center point
        for (t, q) in f.leaves() {
            let c = q.coords();
            let h = q.side();
            let p = [c[0] + h / 2, c[1] + h / 2, 0];
            assert_eq!(f.find_leaf_containing(t, p), Some(q));
        }
        // count leaves via search and compare
        let mut counted = 0;
        f.search(|_, _, _, is_leaf| {
            if is_leaf {
                counted += 1;
            }
            SearchAction::Continue
        });
        assert_eq!(counted, f.local_count());
    });
}

#[test]
fn balance_across_rotated_flipped_3d_connection() {
    // The fully general 3D face identification (axis permutation plus a
    // reflection): refinement pressed against tree 0's +x face must
    // ripple into tree 1 through its -y face, landing at the *flipped*
    // z position.
    quadforest::comm::run(2, |comm| {
        let conn = Arc::new(Connectivity::two_trees_rotated_3d());
        let mut f = Forest::<Standard3>::new_uniform(conn, &comm, 1);
        let root = Standard3::len_at(0);
        // refine a column hugging (x = root, y = 0, z = 0) in tree 0
        f.refine(&comm, true, |t, q| {
            t == 0
                && q.level() < 5
                && q.coords()[0] + q.side() == root
                && q.coords()[1] == 0
                && q.coords()[2] == 0
        });
        f.balance(&comm, BalanceKind::Face);
        f.partition(&comm);
        f.validate().unwrap();
        // tree 1 must be refined near (x = 0, y = 0, z = root): the image
        // of the refined column under the transform (z flipped!)
        let all = f.gather_all(&comm);
        let deep_near_image = all
            .iter()
            .filter(|(t, q)| *t == 1 && q.coords()[1] == 0 && q.coords()[2] + q.side() == root)
            .map(|(_, q)| q.level())
            .max()
            .unwrap();
        assert!(
            deep_near_image >= 3,
            "ripple must arrive at the flipped image, got level {deep_near_image}"
        );
        // the un-flipped position must stay coarse
        let coarse_side = all
            .iter()
            .filter(|(t, q)| *t == 1 && q.coords()[1] == 0 && q.coords()[2] == 0)
            .map(|(_, q)| q.level())
            .max()
            .unwrap();
        assert!(
            coarse_side < deep_near_image,
            "refinement must concentrate at the flipped image ({coarse_side} vs {deep_near_image})"
        );
    });
}

#[test]
fn brick3d_periodic_full_pipeline() {
    // 3D, multiple trees, periodic in one axis: the most topologically
    // loaded configuration we model — the full pipeline.
    quadforest::comm::run(3, |comm| {
        let conn = Arc::new(Connectivity::brick3d(2, 1, 1, [true, false, false]));
        let mut f = Forest::<Morton3>::new_uniform(conn, &comm, 1);
        let center = [Morton3::len_at(0) / 2; 3];
        f.refine(&comm, true, |t, q| {
            t == 0 && q.level() < 3 && q.contains_point(center)
        });
        f.balance(&comm, BalanceKind::Face);
        f.partition(&comm);
        f.validate().unwrap();
        f.is_balanced_local(BalanceKind::Face).unwrap();
        let stats = f.stats(&comm);
        assert_eq!(stats.global_count, f.global_count());
        assert!(stats.max_level >= 3);
        assert!(stats.min_level <= 2);
        assert_eq!(
            stats.level_histogram.iter().sum::<u64>(),
            stats.global_count
        );
        // periodic wrap must connect tree 1's far +x side back to tree 0:
        // a leaf at tree 1's +x face has a neighbor domain in tree 0
        let root = Morton3::len_at(0);
        let far = f
            .tree_leaves(1)
            .iter()
            .find(|q| q.coords()[0] + q.side() == root)
            .copied();
        if let Some(q) = far {
            let dom =
                quadforest::forest::directions::neighbor_domain(f.connectivity(), 1, &q, [1, 0, 0])
                    .expect("periodic wrap must resolve");
            assert_eq!(dom.tree, 0);
            assert_eq!(dom.coords[0], 0);
        }
    });
}

#[test]
fn stats_report_shape() {
    quadforest::comm::run(2, |comm| {
        let conn = Arc::new(Connectivity::unit(2));
        let mut f = Forest::<Standard2>::new_uniform(conn, &comm, 2);
        f.refine(&comm, false, |_, q| q.morton_index() == 0);
        let s = f.stats(&comm);
        assert_eq!(s.global_count, 16 + 3);
        assert_eq!(s.min_level, 2);
        assert_eq!(s.max_level, 3);
        assert_eq!(s.level_histogram[2], 15);
        assert_eq!(s.level_histogram[3], 4);
        assert!(s.min_local <= s.max_local);
    });
}

#[test]
fn stress_many_ranks_small_forest() {
    // 64 ranks sharing 64 leaves: one each after partition.
    quadforest::comm::run(64, |comm| {
        let conn = Arc::new(Connectivity::unit(3));
        let mut f = Forest::<Morton3>::new_uniform(conn, &comm, 2);
        f.partition(&comm);
        assert_eq!(f.local_count(), 1);
        let ghost = f.ghost(&comm, BalanceKind::Face);
        // each rank's single octant has at least 3 face neighbors
        assert!(ghost.len() >= 3, "got {} ghosts", ghost.len());
        f.validate().unwrap();
    });
}
