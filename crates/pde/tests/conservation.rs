//! Property tests for the conservative patch mapper: the refine→coarsen
//! round trip must be the bit-exact identity, and arbitrary adapt
//! sequences must preserve every patch integral.

use proptest::prelude::*;
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{MortonQuad, Quadrant};
use quadforest_forest::{BalanceKind, DataMapper, Forest, LeafData};
use quadforest_pde::{
    gaussian_blob, AdaptThresholds, AdvectionSim, Patch, PatchMapper, PATCH_CELLS,
};
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

/// The solver computes what it computed before interface sides carried
/// their leaf indices: `state_digest` after 12 steps with adapt + migrate
/// every fourth equals the constants taken at commit c9e9e8e (index maps
/// keyed by leaf identity, two-round halo exchange).
#[test]
fn state_digest_is_the_parent_commits() {
    for (p, pinned) in [
        (1usize, 0xd2b7_ea68_6b8e_8b9a_u64),
        (2, 0x73c0_33f0_bafc_e33e),
    ] {
        let digests = quadforest_comm::run(p, |comm| {
            let mut sim = AdvectionSim::<Q>::new(
                Arc::new(Connectivity::periodic(2)),
                &comm,
                2,
                4,
                [1.0, 0.5],
                gaussian_blob,
            );
            let dt = sim.cfl_dt(&comm, 0.45);
            for s in 0..12 {
                sim.step(&comm, dt);
                if s % 4 == 3 {
                    sim.adapt(&comm, AdaptThresholds::default());
                    sim.migrate(&comm);
                }
            }
            sim.state_digest(&comm)
        });
        assert!(digests.iter().all(|d| *d == pinned), "P={p}: {digests:x?}");
    }
}
