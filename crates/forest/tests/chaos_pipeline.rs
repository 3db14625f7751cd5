//! Chaos tests of the full forest pipeline: the refine → balance →
//! partition → ghost sequence must be bit-identical under injected
//! message delays and reordering (the freedom a real network has), and
//! a rank dying mid-pipeline must surface as a typed [`WorldError`]
//! instead of a hang.

use quadforest_comm::{run, run_with_faults, FaultPlan};
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{MortonQuad, Quadrant};
use quadforest_forest::{BalanceKind, Forest};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rank-independent refine selector (same idiom as the property tests:
/// callbacks must not depend on the rank, as in MPI practice).
fn mix(seed: u64, t: u32, q_pos: u64, level: u8) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for w in [t as u64, q_pos, level as u64] {
        h ^= w;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
    }
    h
}

/// Everything observable about one rank's slice of the pipeline result:
/// partition markers, the leaves themselves, the ghost layer, and the
/// collective checksum.
type RankView = (
    Vec<(u32, u64)>,
    Vec<(u32, [i32; 3], u8)>,
    Vec<(usize, u32, [i32; 3], u8)>,
    u64,
);

/// The full opening sequence of a typical AMR run, returning every
/// observable per-rank artifact for leaf-for-leaf comparison.
fn pipeline(comm: &quadforest_comm::Comm, seed: u64) -> RankView {
    // validate at every phase boundary so invariant drift is pinned to
    // the phase that introduced it, not discovered phases later
    let conn = Arc::new(Connectivity::unit(2));
    let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, comm, 1);
    f.validate().expect("invariants must hold after creation");
    f.refine(comm, false, |t, q| {
        q.level() < 5 && mix(seed, t, q.morton_abs(), q.level()) % 3 == 0
    });
    f.validate().expect("invariants must hold after refine 1");
    f.refine(comm, false, |t, q| {
        q.level() < 5 && mix(seed ^ 0xABCD, t, q.morton_abs(), q.level()) % 4 == 0
    });
    f.validate().expect("invariants must hold after refine 2");
    f.balance(comm, BalanceKind::Face);
    f.validate().expect("invariants must hold after balance");
    f.partition(comm);
    f.validate().expect("invariants must hold after partition");
    let ghost = f.ghost(comm, BalanceKind::Face);
    f.validate().expect("invariants must hold after ghost");
    (
        f.markers().to_vec(),
        f.leaves()
            .map(|(t, q)| (t, q.coords(), q.level()))
            .collect(),
        ghost
            .ghosts
            .iter()
            .map(|g| (g.owner, g.tree, g.quad.coords(), g.quad.level()))
            .collect(),
        f.checksum(comm),
    )
}

/// Acceptance criterion: fault-injected (delay + reorder) runs of the
/// refine → balance → partition → ghost pipeline produce byte-identical
/// partitions and ghost layers to fault-free runs for P ∈ {1, 2, 4, 7}.
#[test]
fn pipeline_is_identical_under_delay_and_reorder() {
    for p in [1usize, 2, 4, 7] {
        let baseline = run(p, |c| pipeline(&c, 0x5EED));
        for fault_seed in [11u64, 22, 33] {
            let plan = FaultPlan::new(fault_seed)
                .with_delays(0.15, Duration::from_micros(100))
                .with_reordering(0.2);
            let chaotic = run_with_faults(p, plan, |c| pipeline(&c, 0x5EED))
                .unwrap_or_else(|e| panic!("P={p} fault_seed={fault_seed}: {e}"));
            assert_eq!(
                baseline, chaotic,
                "P={p} fault_seed={fault_seed}: pipeline diverged under faults"
            );
        }
    }
}

/// The distributed pipeline result also matches the serial one under
/// faults: chaos must not reintroduce rank-count dependence.
#[test]
fn chaotic_pipeline_stays_rank_count_invariant() {
    let flatten = |views: Vec<RankView>| {
        let mut all: Vec<(u32, [i32; 3], u8)> = views
            .into_iter()
            .flat_map(|(_, leaves, _, _)| leaves)
            .collect();
        all.sort();
        all
    };
    let serial = flatten(run(1, |c| pipeline(&c, 0xFEED)));
    for p in [2usize, 4, 7] {
        let plan = FaultPlan::new(p as u64 * 101)
            .with_delays(0.2, Duration::from_micros(80))
            .with_reordering(0.2);
        let faulty = flatten(
            run_with_faults(p, plan, |c| pipeline(&c, 0xFEED))
                .unwrap_or_else(|e| panic!("P={p}: {e}")),
        );
        assert_eq!(serial, faulty, "P={p}: mesh depends on rank count");
    }
}

/// A rank dying in the middle of the pipeline (comm op 3 is the second
/// of balance's two collectives) yields a clean [`WorldError`]
/// naming the victim, well inside the 5 s acceptance bound.
#[test]
fn rank_death_mid_pipeline_is_a_clean_error() {
    for p in [2usize, 4] {
        let victim = p - 1;
        let start = Instant::now();
        let plan = FaultPlan::new(7).with_panic_at(victim, 3);
        let err = run_with_faults(p, plan, |c| pipeline(&c, 0xDEAD))
            .expect_err("the scheduled panic must fail the world");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "P={p}: abort did not propagate promptly"
        );
        assert_eq!(err.origin, victim, "P={p}: wrong origin");
        assert!(err.origin_panicked());
        assert!(err.reason.contains("scheduled panic"));
    }
}
