//! `Forest::ghost` against a ghost oracle written on the public API.
//!
//! `ghost` builds its requests inside its boundary search: the search
//! steps to every neighbor domain in key space, and a boundary leaf
//! resolves a domain in coordinates only when another rank owns part of
//! it, for the contact box the owner filters with. These checks pin the
//! layer to the definition — a remote leaf is a ghost iff some local
//! leaf's scalar [`neighbor_domain`] overlaps it and touches the contact
//! — and the mirrors to the peers' ghosts: on seeded balanced forests at
//! P ∈ {1, 2, 4} (which also hold balance leaf-for-leaf across P), and on
//! the whole connectivity grid of `balance_oracle.rs` (cross-tree and
//! rotated requests included) at P ∈ {1, 2, 3, 4, 8}, face and full.

use proptest::prelude::*;
use quadforest_comm::Comm;
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{AvxQuad, MortonQuad, Quadrant, StandardQuad};
use quadforest_forest::directions::{neighbor_domain, offsets, Box3};
use quadforest_forest::{BalanceKind, Forest, GhostLayer};
use std::sync::Arc;

/// The closed-box test of the oracle: a quadrant's closed domain, and
/// whether two closed boxes meet.
trait ClosedBox {
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

/// Rank-independent refine selector (callbacks must not depend on the
/// rank, as in MPI practice).
fn mix(seed: u64, t: u32, q_pos: u64, level: u8) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for w in [t as u64, q_pos, level as u64] {
        h ^= w;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
    }
    h
}

/// Refine twice from a random seed, balance, partition. The shared
/// opening sequence of every property below.
fn build_forest<Q: Quadrant>(
    comm: &Comm,
    conn: Arc<Connectivity>,
    seed: u64,
    max_level: u8,
    kind: BalanceKind,
) -> Forest<Q> {
    let mut f = Forest::<Q>::new_uniform(conn, comm, 1);
    f.refine(comm, false, |t, q| {
        q.level() < max_level && mix(seed, t, q.morton_abs(), q.level()) % 3 == 0
    });
    f.refine(comm, false, |t, q| {
        q.level() < max_level && mix(seed ^ 0xABCD, t, q.morton_abs(), q.level()) % 4 == 0
    });
    f.balance(comm, kind);
    f.partition(comm);
    f
}

/// The global leaf set, independent of how it is split across ranks.
fn global_leaves(views: Vec<Vec<(u32, [i32; 3], u8)>>) -> Vec<(u32, [i32; 3], u8)> {
    let mut all: Vec<_> = views.into_iter().flatten().collect();
    all.sort();
    all
}

/// Per-quadrant ghost oracle: a remote leaf is a ghost iff some local
/// leaf's scalar neighbor domain overlaps it (same formulation as the
/// in-crate reference the ghost unit tests use, rebuilt here on the
/// public API only).
fn oracle_ghosts<Q: Quadrant>(
    f: &Forest<Q>,
    comm: &Comm,
    adjacency: BalanceKind,
) -> Vec<(u32, [i32; 3], u8)> {
    let all: Vec<(usize, u32, Q)> = comm
        .allgather(
            f.leaves()
                .map(|(t, q)| (comm.rank(), t, *q))
                .collect::<Vec<_>>(),
        )
        .into_iter()
        .flatten()
        .collect();
    let offs = offsets(Q::DIM, adjacency);
    let mut out = Vec::new();
    for (owner, gt, g) in &all {
        if *owner == comm.rank() {
            continue;
        }
        let gb = Box3::of_quad(g);
        let mut adjacent = false;
        'outer: for (t, q) in f.leaves() {
            for off in &offs {
                if let Some(dom) = neighbor_domain(f.connectivity(), t, q, *off) {
                    if dom.tree == *gt {
                        let probe = Q::from_coords(dom.coords, dom.level);
                        if (probe.is_ancestor_of(g) || g.is_ancestor_of(&probe) || probe == *g)
                            && gb.intersects(&dom.contact, Q::DIM)
                        {
                            adjacent = true;
                            break 'outer;
                        }
                    }
                }
            }
        }
        if adjacent {
            out.push((*gt, g.coords(), g.level()));
        }
    }
    out.sort();
    out.dedup();
    out
}

fn ghost_tuples<Q: Quadrant>(g: &GhostLayer<Q>) -> Vec<(u32, [i32; 3], u8)> {
    let mut v: Vec<_> = g
        .ghosts
        .iter()
        .map(|g| (g.tree, g.quad.coords(), g.quad.level()))
        .collect();
    v.sort();
    v
}

/// This rank's ghost layer of `kind` matches the per-quadrant oracle,
/// and its mirrors are its peers' ghosts (collective). Returns the
/// number of ghosts.
fn check_ghosts<Q: Quadrant>(f: &Forest<Q>, comm: &Comm, kind: BalanceKind, what: &str) -> usize {
    let ghost = f.ghost(comm, kind);
    assert_eq!(
        ghost_tuples(&ghost),
        oracle_ghosts(f, comm, kind),
        "{what} {kind:?}: ghost layer diverges from the per-quadrant oracle"
    );
    // mirror/ghost symmetry: what this rank mirrors to rank s is, in
    // order, exactly what s holds as ghosts owned by this rank
    let leaves: Vec<(u32, Q)> = f.leaves().map(|(t, q)| (t, *q)).collect();
    let mirrored = ghost
        .mirrors
        .iter()
        .map(|m| m.iter().map(|&i| leaves[i]).collect())
        .collect();
    for (owner, theirs) in comm.alltoallv::<(u32, Q)>(mirrored).iter().enumerate() {
        let mine: Vec<(u32, Q)> = ghost
            .ghosts
            .iter()
            .filter(|g| g.owner == owner)
            .map(|g| (g.tree, g.quad))
            .collect();
        assert_eq!(
            theirs, &mine,
            "{what} {kind:?}: mirrors of rank {owner} are not my ghosts"
        );
    }
    ghost.len()
}

/// Balanced leaf sets are identical at P = 1, 2 and 4, every rank's
/// ghost layer matches the per-quadrant oracle, and every rank's mirrors
/// are its peers' ghosts.
fn check_equivalence<Q: Quadrant>(conn: Connectivity, seed: u64, max_level: u8, kind: BalanceKind) {
    let conn = Arc::new(conn);
    let mut per_p = Vec::new();
    for p in [1usize, 2, 4] {
        let conn = Arc::clone(&conn);
        let views = quadforest_comm::run(p, move |comm| {
            let f = build_forest::<Q>(&comm, Arc::clone(&conn), seed, max_level, kind);
            f.validate().expect("balanced forest must validate");
            check_ghosts(&f, &comm, kind, &format!("P={p}"));
            f.leaves()
                .map(|(t, q)| (t, q.coords(), q.level()))
                .collect::<Vec<_>>()
        });
        per_p.push((p, global_leaves(views)));
    }
    let (_, base) = &per_p[0];
    for (p, leaves) in &per_p[1..] {
        assert_eq!(
            leaves, base,
            "P={p}: balanced forest is not leaf-for-leaf identical to P=1"
        );
    }
}

/// One grid case: a seeded recursive refinement (steep level jumps,
/// never balanced), partitioned on even seeds, checked at both
/// adjacencies.
fn check_grid_case<Q: Quadrant>(conn: &Connectivity, ranks: usize, seed: u64) {
    let max_level = if Q::DIM == 2 { 4 } else { 3 };
    let conn = Arc::new(conn.clone());
    quadforest_comm::run(ranks, move |comm| {
        let mut f = Forest::<Q>::new_uniform(Arc::clone(&conn), &comm, 1);
        f.refine(&comm, true, |t, q| {
            q.level() < max_level && mix(seed, t, q.morton_abs(), q.level()) % 3 == 0
        });
        if seed % 2 == 0 {
            f.partition(&comm);
        }
        let what = format!("{} P={ranks} seed {seed}", Q::NAME);
        for kind in [BalanceKind::Face, BalanceKind::Full] {
            let ghosts = check_ghosts(&f, &comm, kind, &what) as u64;
            assert_eq!(comm.allreduce_sum(ghosts) > 0, ranks > 1, "{what} {kind:?}");
        }
    });
}

/// The 9 connectivities of `balance_oracle.rs` × P ∈ {1, 2, 3, 4, 8} ×
/// face/full, representations in turn.
#[test]
fn ghost_layer_is_the_oracle_on_every_connectivity() {
    let mut case = 0u64;
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
        for ranks in [1usize, 2, 3, 4, 8] {
            match (conn.dim(), case % 3) {
                (2, 0) => check_grid_case::<StandardQuad<2>>(&conn, ranks, case),
                (2, 1) => check_grid_case::<MortonQuad<2>>(&conn, ranks, case),
                (2, _) => check_grid_case::<AvxQuad<2>>(&conn, ranks, case),
                (_, 0) => check_grid_case::<StandardQuad<3>>(&conn, ranks, case),
                (_, 1) => check_grid_case::<MortonQuad<3>>(&conn, ranks, case),
                _ => check_grid_case::<AvxQuad<3>>(&conn, ranks, case),
            }
            case += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn balance_and_ghost_equivalent_2d(seed in any::<u64>()) {
        check_equivalence::<MortonQuad<2>>(Connectivity::unit(2), seed, 5, BalanceKind::Face);
    }

    #[test]
    fn balance_and_ghost_equivalent_2d_full(seed in any::<u64>()) {
        check_equivalence::<StandardQuad<2>>(Connectivity::unit(2), seed, 4, BalanceKind::Full);
    }

    #[test]
    fn balance_and_ghost_equivalent_3d(seed in any::<u64>()) {
        check_equivalence::<StandardQuad<3>>(Connectivity::unit(3), seed, 3, BalanceKind::Face);
    }

    #[test]
    fn balance_and_ghost_equivalent_periodic(seed in any::<u64>()) {
        check_equivalence::<MortonQuad<2>>(Connectivity::periodic(2), seed, 4, BalanceKind::Face);
    }
}
