//! Property-based tests of the forest invariants under random workflows:
//! arbitrary sequences of refine / coarsen / balance / partition must
//! preserve the linear-octree invariants, the global count, and
//! rank-count-invariant results.

use proptest::prelude::*;
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{MortonQuad, Quadrant, StandardQuad};
use quadforest_forest::{BalanceKind, Forest};
use std::sync::Arc;

/// One step of a random adaptation workflow. The refine/coarsen
/// selectors are seeded hashes so the same step is reproducible on every
/// rank (callbacks must be rank-independent, as in MPI practice).
#[derive(Copy, Clone, Debug)]
enum Step {
    Refine(u64),
    Coarsen(u64),
    Balance,
    Partition,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<u64>().prop_map(Step::Refine),
        any::<u64>().prop_map(Step::Coarsen),
        Just(Step::Balance),
        Just(Step::Partition),
    ]
}

/// Steps without coarsening: refine, balance and partition are exactly
/// rank-count invariant; coarsening is not (a family straddling a rank
/// boundary must not merge — p4est behaves identically), so the strict
/// invariance property uses this restricted alphabet.
fn monotone_step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<u64>().prop_map(Step::Refine),
        Just(Step::Balance),
        Just(Step::Partition),
    ]
}

fn mix(seed: u64, t: u32, q_pos: u64, level: u8) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for w in [t as u64, q_pos, level as u64] {
        h ^= w;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
    }
    h
}

/// Run the workflow on `ranks` simulated ranks; return the global
/// sorted leaf set and final count.
fn run_workflow<Q: Quadrant>(
    steps: &[Step],
    ranks: usize,
    max_level: u8,
) -> (Vec<(u32, [i32; 3], u8)>, u64) {
    let steps = steps.to_vec();
    let results = quadforest_comm::run(ranks, move |comm| {
        let conn = Arc::new(Connectivity::unit(2));
        let mut f = Forest::<Q>::new_uniform(conn, &comm, 1);
        for step in &steps {
            match step {
                Step::Refine(seed) => {
                    let s = *seed;
                    f.refine(&comm, false, |t, q| {
                        q.level() < max_level && mix(s, t, q.morton_abs(), q.level()) % 3 == 0
                    });
                }
                Step::Coarsen(seed) => {
                    let s = *seed;
                    f.coarsen(&comm, false, |t, fam| {
                        mix(s, t, fam[0].morton_abs(), fam[0].level()) % 4 == 0
                    });
                }
                Step::Balance => {
                    f.balance(&comm, BalanceKind::Face);
                }
                Step::Partition => {
                    f.partition(&comm);
                }
            }
            f.validate().expect("invariants must hold after every step");
        }
        let leaves: Vec<(u32, [i32; 3], u8)> = f
            .leaves()
            .map(|(t, q)| (t, q.coords(), q.level()))
            .collect();
        (leaves, f.global_count())
    });
    let count = results[0].1;
    let mut all: Vec<_> = results.into_iter().flat_map(|(l, _)| l).collect();
    all.sort();
    (all, count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariants hold and the mesh is rank-count independent for
    /// monotone (non-coarsening) workflows.
    #[test]
    fn random_workflow_rank_invariant(
        steps in proptest::collection::vec(monotone_step_strategy(), 1..8),
    ) {
        let (serial, n1) = run_workflow::<MortonQuad<2>>(&steps, 1, 5);
        prop_assert_eq!(serial.len() as u64, n1);
        for ranks in [2usize, 4] {
            let (dist, nd) = run_workflow::<MortonQuad<2>>(&steps, ranks, 5);
            prop_assert_eq!(nd, n1, "global count differs at P = {}", ranks);
            prop_assert_eq!(&dist, &serial, "mesh differs at P = {}", ranks);
        }
    }

    /// Coarsening below the base level is impossible and counts stay
    /// consistent with the leaf volume: total volume is conserved.
    #[test]
    fn volume_is_conserved(
        steps in proptest::collection::vec(step_strategy(), 1..10),
    ) {
        let (leaves, _) = run_workflow::<StandardQuad<2>>(&steps, 2, 6);
        let root = StandardQuad::<2>::len_at(0) as u128;
        let total: u128 = leaves
            .iter()
            .map(|(_, _, l)| {
                let h = StandardQuad::<2>::len_at(*l) as u128;
                h * h
            })
            .sum();
        prop_assert_eq!(total, root * root, "leaves must tile the square");
    }

    /// After a final balance the 2:1 condition verifies globally (on the
    /// serial gather, where all neighbors are visible).
    #[test]
    fn final_balance_verifies(
        steps in proptest::collection::vec(step_strategy(), 1..6),
    ) {
        let mut steps = steps;
        steps.push(Step::Balance);
        let steps_for_run = steps.clone();
        quadforest_comm::run(1, move |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 1);
            for step in &steps_for_run {
                match step {
                    Step::Refine(seed) => {
                        let s = *seed;
                        f.refine(&comm, false, |t, q| {
                            q.level() < 5 && mix(s, t, q.morton_abs(), q.level()) % 3 == 0
                        });
                    }
                    Step::Coarsen(seed) => {
                        let s = *seed;
                        f.coarsen(&comm, false, |t, fam| {
                            mix(s, t, fam[0].morton_abs(), fam[0].level()) % 4 == 0
                        });
                    }
                    Step::Balance => {
                        f.balance(&comm, BalanceKind::Face);
                    }
                    Step::Partition => {
                        f.partition(&comm);
                    }
                }
            }
            f.is_balanced_local(BalanceKind::Face)
                .expect("final mesh must be 2:1");
        });
    }
}
