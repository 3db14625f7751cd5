//! `Forest::balance` against the definition of 2:1 balance.
//!
//! The oracle below is the ripple written out against the public API
//! only: gather every leaf everywhere, mark each leaf that is more than
//! one level coarser than a leaf whose neighbor domain it overlaps,
//! split the marked leaves once, repeat until nothing is marked. It
//! knows nothing of ranks, curve indices or interior nodes, so agreeing
//! with it leaf for leaf — for every rank count, adjacency, connectivity
//! and representation — is the evidence that the one-pass closure in
//! `balance.rs` computes the minimal balanced refinement.

use quadforest_comm::Comm;
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{AvxQuad, MortonQuad, Quadrant, StandardQuad};
use quadforest_forest::directions::{neighbor_domain, offsets};
use quadforest_forest::{BalanceKind, Forest};
use quadforest_telemetry::{self as telemetry, MetricKind};
use std::collections::HashSet;
use std::sync::Arc;

fn oracle_balance<Q: Quadrant>(f: &mut Forest<Q>, comm: &Comm, adjacency: BalanceKind) {
    loop {
        let all: HashSet<(u32, Q)> = f.gather_all(comm).into_iter().collect();
        let mut marked: HashSet<(u32, Q)> = HashSet::new();
        for (t, q) in &all {
            for off in offsets(Q::DIM, adjacency) {
                let Some(dom) = neighbor_domain(f.connectivity(), *t, q, off) else {
                    continue;
                };
                // a leaf overlapping the domain and more than one level
                // coarser than `q` is one of the domain's ancestors
                let probe = Q::from_coords(dom.coords, dom.level);
                for level in 0..q.level().saturating_sub(1) {
                    let coarse = (dom.tree, probe.ancestor(level));
                    if all.contains(&coarse) {
                        marked.insert(coarse);
                    }
                }
            }
        }
        if marked.is_empty() {
            return;
        }
        f.refine(comm, false, |t, q| marked.contains(&(t, *q)));
    }
}

/// Rank- and representation-independent refinement flag.
fn flagged<Q: Quadrant>(seed: u64, t: u32, q: &Q) -> bool {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    let [x, y, z] = q.coords();
    for w in [t as u64, x as u64, y as u64, z as u64, q.level() as u64] {
        h = (h ^ w).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
    }
    h % 3 == 0
}

/// One case: a seeded recursive refinement (steep level jumps), then
/// `balance` and the oracle on two copies of it.
fn check<Q: Quadrant>(
    conn: &Connectivity,
    ranks: usize,
    kind: BalanceKind,
    seed: u64,
    partitioned: bool,
) {
    let max_level = if Q::DIM == 2 { 6 } else { 3 };
    let conn = Arc::new(conn.clone());
    quadforest_comm::run(ranks, move |comm| {
        let mut f = Forest::<Q>::new_uniform(conn.clone(), &comm, 1);
        f.refine(&comm, true, |t, q| {
            q.level() < max_level && flagged(seed, t, q)
        });
        if partitioned {
            f.partition(&comm);
        }
        let mut expected = f.clone();
        oracle_balance(&mut expected, &comm, kind);

        let before = f.local_count();
        let split = f.balance(&comm, kind);
        let what = format!("{} P={ranks} {kind:?} seed {seed}", Q::NAME);
        assert_eq!(f.validate(), Ok(()), "{what}");
        assert_eq!(
            f.gather_all(&comm),
            expected.gather_all(&comm),
            "{what}: balance differs from the definitional ripple"
        );
        assert_eq!(
            split,
            (f.local_count() - before) / (Q::NUM_CHILDREN as usize - 1),
            "{what}: return value is not the number of local splits"
        );
    });
}

fn sweep<S: Quadrant, M: Quadrant, A: Quadrant>(conns: &[Connectivity]) {
    let mut case = 0u64;
    for conn in conns {
        for kind in [BalanceKind::Face, BalanceKind::Full] {
            for ranks in [1usize, 2, 3, 4, 8] {
                for seed in [case, case + 1000] {
                    let partitioned = case % 2 == 0;
                    match case % 3 {
                        0 => check::<S>(conn, ranks, kind, seed, partitioned),
                        1 => check::<M>(conn, ranks, kind, seed, partitioned),
                        _ => check::<A>(conn, ranks, kind, seed, partitioned),
                    }
                    case += 1;
                }
            }
        }
    }
}

#[test]
fn balance_is_the_definitional_ripple_2d() {
    sweep::<StandardQuad<2>, MortonQuad<2>, AvxQuad<2>>(&[
        Connectivity::unit(2),
        Connectivity::periodic(2),
        Connectivity::brick2d(3, 2, false, false),
        Connectivity::two_trees_2d(1),
        Connectivity::two_trees_rotated_2d(),
    ]);
}

#[test]
fn balance_is_the_definitional_ripple_3d() {
    sweep::<StandardQuad<3>, MortonQuad<3>, AvxQuad<3>>(&[
        Connectivity::unit(3),
        Connectivity::periodic(3),
        Connectivity::brick3d(2, 1, 2, [false; 3]),
        Connectivity::two_trees_rotated_3d(),
    ]);
}

/// The "no convergence loop" pin: however deep the ripple, `balance`
/// issues its one exchange and the global-count reduction, nothing else.
#[test]
fn deep_ripple_takes_two_collectives() {
    type Q = MortonQuad<2>;
    quadforest_comm::run(4, |comm| {
        let conn = Arc::new(Connectivity::unit(2));
        let mut f = Forest::<Q>::new_uniform(conn, &comm, 1);
        let center = [Q::len_at(0) / 2, Q::len_at(0) / 2, 0];
        f.refine(&comm, true, |_, q| {
            q.level() < 10 && q.contains_point(center)
        });
        telemetry::begin_rank(comm.rank());
        let collectives = || {
            telemetry::rank_snapshot()
                .get("comm.collectives", MetricKind::Counter)
                .map_or(0, |e| e.scalar())
        };
        let before = collectives();
        let split = f.balance(&comm, BalanceKind::Full);
        let issued = collectives() - before;
        let _ = telemetry::finish_rank();
        assert_eq!(issued, 2, "alltoallv + global count, whatever the depth");
        assert!(comm.allreduce_sum(split as u64) > 20, "a 9-level ripple");
    });
}
