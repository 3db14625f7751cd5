//! Property tests for the conservative patch mapper: the refine→coarsen
//! round trip must be the bit-exact identity, and arbitrary adapt
//! sequences must preserve every patch integral. Then the solver's
//! determinism: the same state bits at every rank count, across a
//! restore onto another rank count, and with or without the
//! settled-mesh shortcuts of `adapt` and `migrate`.

use proptest::prelude::*;
use quadforest_comm::Comm;
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{MortonQuad, Quadrant};
use quadforest_forest::{BalanceKind, DataMapper, Forest, LeafData};
use quadforest_pde::{
    gaussian_blob, AdaptThresholds, AdvectionSim, Patch, PatchMapper, PATCH_CELLS, PATCH_WIRE_BYTES,
};
use std::collections::HashMap;
use std::sync::Arc;

type Q = MortonQuad<2>;

fn patch_strategy() -> impl Strategy<Value = Patch> {
    // the vendored proptest generates integer ranges; scale to floats
    proptest::collection::vec(-1_000_000_000i64..1_000_000_000, PATCH_CELLS).prop_map(|v| {
        let mut p = Patch::zero();
        for (c, x) in p.cells.iter_mut().zip(v) {
            *c = x as f64 / 997.0;
        }
        p
    })
}

proptest! {
    /// Refining a patch into any complete family and coarsening back
    /// returns the original patch bit-for-bit: the averaging
    /// `((a+b)+(c+d))·0.25` of four equal values is exact.
    #[test]
    fn refine_then_coarsen_is_identity(value in patch_strategy(), cid in 0u32..4) {
        let parent = Q::root().child(cid);
        let kids: Vec<Patch> = (0..4)
            .map(|c| DataMapper::<Q, Patch>::refine(
                &PatchMapper, 0, &parent, &value, &parent.child(c), c))
            .collect();
        let back = DataMapper::<Q, Patch>::coarsen(&PatchMapper, 0, &parent, &kids);
        prop_assert_eq!(back, value);
    }

    /// Refine conserves the integral exactly in exact arithmetic; with
    /// floats the children's sums recombine to the parent sum within a
    /// few ulps.
    #[test]
    fn refine_splits_sum_exactly(value in patch_strategy()) {
        let parent = Q::root();
        let kid_sum: f64 = (0..4)
            .map(|c| DataMapper::<Q, Patch>::refine(
                &PatchMapper, 0, &parent, &value, &parent.child(c), c).sum())
            .sum();
        // children cover the parent at half the cell size: 4 children
        // x N^2 cells at 1/4 the area each = the parent integral
        let scale = value.sum().abs().max(1.0);
        prop_assert!((kid_sum / 4.0 - value.sum()).abs() <= 1e-12 * scale);
    }
}

/// A full mesh-level round trip: refine everything one level and
/// coarsen it back; every leaf's patch must come back bit-identical.
#[test]
fn mesh_refine_coarsen_round_trips_bitwise() {
    quadforest_comm::run(1, |comm| {
        let conn = Arc::new(Connectivity::unit(2));
        let mut f = Forest::<Q>::new_uniform(conn, &comm, 2);
        let mut data = LeafData::init(&f, |_, q| {
            let mut p = Patch::zero();
            for (i, c) in p.cells.iter_mut().enumerate() {
                *c = (q.morton_abs() as f64 + 1.0) * (i as f64 + 0.5) / 7.0;
            }
            p
        });
        let orig: Vec<Patch> = data.iter().copied().collect();
        f.refine_mapped(&comm, false, |_, _| true, &mut data, &PatchMapper);
        f.coarsen_mapped(&comm, false, |_, _| true, &mut data, &PatchMapper);
        assert_eq!(f.local_count(), orig.len());
        for (a, b) in data.iter().zip(orig.iter()) {
            assert_eq!(a, b, "patch must round-trip bit-identically");
        }
    });
}

/// Patch sums survive a mixed adapt sequence (selective refine, balance,
/// selective coarsen) to machine precision, in parallel.
#[test]
fn adapt_sequence_preserves_total_sum() {
    quadforest_comm::run(2, |comm| {
        let conn = Arc::new(Connectivity::unit(2));
        let mut f = Forest::<Q>::new_uniform(conn, &comm, 2);
        let mut data = LeafData::init(&f, |_, q| {
            Patch::constant(1.0 + (q.morton_abs() % 13) as f64)
        });
        // weighted total: patch sums scaled by leaf area are the mass
        let total = |f: &Forest<Q>, d: &LeafData<Patch>| -> f64 {
            let local: f64 = f
                .leaves()
                .zip(d.iter())
                .map(|((_, q), p)| {
                    let h = q.side() as f64 / Q::len_at(0) as f64;
                    p.mass(h)
                })
                .sum();
            comm.allreduce(local, |a, b| a + b)
        };
        let before = total(&f, &data);
        f.refine_mapped(
            &comm,
            true,
            |_, q| q.level() < 5 && q.morton_abs() % 7 == 0,
            &mut data,
            &PatchMapper,
        );
        f.balance_mapped(&comm, BalanceKind::Face, &mut data, &PatchMapper);
        f.coarsen_mapped(
            &comm,
            false,
            |_, fam| fam[0].level() > 2,
            &mut data,
            &PatchMapper,
        );
        data.check_aligned(&f, "test");
        let after = total(&f, &data);
        let drift = (after - before).abs() / before.abs();
        assert!(drift < 1e-13, "drift {drift:e}");
    });
}

fn blob_sim(comm: &Comm) -> AdvectionSim<Q> {
    AdvectionSim::<Q>::new(
        Arc::new(Connectivity::periodic(2)),
        comm,
        2,
        4,
        [1.0, 0.5],
        gaussian_blob,
    )
}

/// Step `sim` until it has taken `until` steps, adapting and migrating
/// after every fourth.
fn advance(comm: &Comm, sim: &mut AdvectionSim<Q>, until: u64) {
    while sim.steps_taken < until {
        let dt = sim.cfl_dt(comm, 0.45);
        sim.step(comm, dt);
        if sim.steps_taken.is_multiple_of(4) {
            sim.adapt(comm, AdaptThresholds::default());
            sim.migrate(comm);
        }
    }
}

/// The pinned digest of 12 steps of [`blob_sim`] under [`advance`]. The
/// flux plan adds every cell's interface contributions in one
/// owner-independent order, so the state is the same bits at every rank
/// count.
const DIGEST_12: u64 = 0x6e44_9e44_7fc3_22f6;

/// `state_digest` after 12 steps with adapt + migrate every fourth is one
/// constant at P = 1, 2 and 4.
#[test]
fn state_digest_is_partition_invariant() {
    for p in [1usize, 2, 4] {
        let digests = quadforest_comm::run(p, |comm| {
            let mut sim = blob_sim(&comm);
            advance(&comm, &mut sim, 12);
            sim.state_digest(&comm)
        });
        assert!(
            digests.iter().all(|d| *d == DIGEST_12),
            "P={p}: {digests:x?}"
        );
    }
}

/// The pinned digest of 12 steps of [`blob_sim`] turned round, velocity
/// `[-1.0, -0.5]`: every donor is then the upper side, the branch
/// [`DIGEST_12`] does not reach. Captured at the commit before the
/// vectorised step.
const DIGEST_12_REVERSED: u64 = 0x2c82_86b5_d209_590d;

/// `state_digest` after 12 reversed steps is one constant at P = 1 and 2.
#[test]
fn reversed_velocity_digest_is_partition_invariant() {
    for p in [1usize, 2] {
        let digests = quadforest_comm::run(p, |comm| {
            let mut sim = blob_sim(&comm);
            sim.velocity = [-1.0, -0.5];
            advance(&comm, &mut sim, 12);
            sim.state_digest(&comm)
        });
        assert!(
            digests.iter().all(|d| *d == DIGEST_12_REVERSED),
            "P={p}: {digests:x?}"
        );
    }
}

/// A checkpoint taken at P = 2 after 6 steps, restored at P = 1 and at
/// P = 4 and run 6 steps further, ends in the state of a straight P = 2
/// run.
#[test]
fn restore_onto_another_rank_count_continues_bit_identically() {
    let dir = std::env::temp_dir().join(format!("qf-pde-cross-p-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    quadforest_comm::run(2, |comm| {
        let mut sim = blob_sim(&comm);
        advance(&comm, &mut sim, 6);
        sim.checkpoint(&comm, &dir).unwrap();
    });
    for p in [1usize, 4] {
        let digests = quadforest_comm::run(p, |comm| {
            let conn = Arc::new(Connectivity::periodic(2));
            let mut sim = AdvectionSim::<Q>::restore(conn, &comm, &dir, [1.0, 0.5], 2, 4).unwrap();
            assert_eq!(sim.steps_taken, 6);
            advance(&comm, &mut sim, 12);
            sim.state_digest(&comm)
        });
        assert!(
            digests.iter().all(|d| *d == DIGEST_12),
            "P={p}: {digests:x?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `AdvectionSim::adapt` as the full path: every mapped op, then
/// `invalidate_topology`, whatever changed. Returns `(refined,
/// coarsened, mapped_bytes)`.
fn full_adapt(comm: &Comm, sim: &mut AdvectionSim<Q>, th: AdaptThresholds) -> (usize, usize, u64) {
    let max_abs = |p: &Patch| p.cells.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let magnitude: HashMap<(u32, u64, u8), f64> = sim
        .forest
        .leaves()
        .zip(sim.u.iter())
        .map(|((t, q), p)| ((t, q.morton_abs(), q.level()), max_abs(p)))
        .collect();
    let mag = |t: u32, q: &Q, unknown: f64| {
        magnitude
            .get(&(t, q.morton_abs(), q.level()))
            .copied()
            .unwrap_or(unknown)
    };
    let (base, max) = (sim.base_level, sim.max_level);
    let mut refined = sim.forest.refine_mapped(
        comm,
        false,
        |t, q| q.level() < max && mag(t, q, 0.0) > th.refine_above,
        &mut sim.u,
        &PatchMapper,
    );
    let coarsened = sim.forest.coarsen_mapped(
        comm,
        false,
        |t, fam| {
            fam[0].level() > base
                && fam
                    .iter()
                    .all(|q| mag(t, q, f64::INFINITY) < th.coarsen_below)
        },
        &mut sim.u,
        &PatchMapper,
    );
    refined += sim
        .forest
        .balance_mapped(comm, BalanceKind::Face, &mut sim.u, &PatchMapper);
    sim.invalidate_topology();
    (refined, coarsened, (sim.u.len() * PATCH_WIRE_BYTES) as u64)
}

/// The settled-mesh shortcuts change no result: `adapt` keeps the
/// compiled topology when no rank changed a leaf, and `migrate` skips a
/// partition that could move nothing. The oracle takes the full path
/// every cycle — [`full_adapt`], then `partition_mapped` and
/// `invalidate_topology`. Odd cycles adapt with the default thresholds
/// (on this mesh every such pass changes leaves), even ones with
/// thresholds no leaf crosses, so both kinds of cycle follow each kind.
#[test]
fn settled_mesh_shortcuts_match_the_full_adapt_path() {
    let frozen = AdaptThresholds {
        refine_above: f64::INFINITY,
        coarsen_below: 0.0,
    };
    let run = |oracle: bool| {
        quadforest_comm::run(2, move |comm| {
            let mut sim = blob_sim(&comm);
            let mut reports = Vec::new();
            while sim.steps_taken < 40 {
                let dt = sim.cfl_dt(&comm, 0.45);
                sim.step(&comm, dt);
                if !sim.steps_taken.is_multiple_of(4) {
                    continue;
                }
                let th = if reports.len() % 2 == 1 {
                    AdaptThresholds::default()
                } else {
                    frozen
                };
                if oracle {
                    reports.push(full_adapt(&comm, &mut sim, th));
                    sim.forest.partition_mapped(&comm, &mut sim.u);
                    sim.invalidate_topology();
                } else {
                    let r = sim.adapt(&comm, th);
                    reports.push((r.refined, r.coarsened, r.mapped_bytes));
                    sim.migrate(&comm);
                }
            }
            let changed: Vec<u64> = reports
                .iter()
                .map(|r| comm.allreduce_sum((r.0 + r.1) as u64))
                .collect();
            let digest = sim.state_digest(&comm);
            let checksum = sim.forest.checksum(&comm);
            (
                reports,
                changed,
                digest,
                checksum,
                sim.forest.markers().to_vec(),
            )
        })
    };
    let (fast, full) = (run(false), run(true));
    assert_eq!(fast, full);
    let changed = &fast[0].1;
    assert!(
        changed.iter().step_by(2).all(|&c| c == 0)
            && changed.iter().skip(1).step_by(2).all(|&c| c > 0),
        "cycles must alternate settled and changing: {changed:?}"
    );
}
