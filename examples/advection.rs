//! Data-bearing AMR end to end: patch-based advection with payload
//! migration, halo exchange, checkpointing, and chaos recovery.
//!
//! A Gaussian blob is transported across a periodic unit square. Every
//! leaf carries an 8×8 cell patch; the full loop runs each step:
//!
//! 1. **step** — donor-cell upwind fluxes, patch boundaries served by
//!    halo strips shipped through ghost exchange;
//! 2. **adapt** — refine where the solution is steep, coarsen behind,
//!    2:1 balance, with conservative payload remapping;
//! 3. **migrate** — repartition; every moving leaf ships its patch in
//!    the partition all-to-all;
//! 4. **checkpoint** — every few steps, mesh AND patches go to disk.
//!
//! The run executes under a fault plan that panics one rank mid-loop
//! and injects message delays/reordering; the recovery supervisor
//! restarts the world, restores the newest checkpoint bit-identically,
//! and replays the remaining steps. Total mass is asserted at machine
//! precision every step, across adaptation, migration, and recovery.
//!
//! Run: `cargo run --release --example advection`

use quadforest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

type Q = Morton2;

const RANKS: usize = 3;
const BASE_LEVEL: u8 = 3;
const MAX_LEVEL: u8 = 5;
const STEPS: u64 = 120;
const ADAPT_EVERY: u64 = 5;
const SAVE_EVERY: u64 = 20;
const VELOCITY: [f64; 2] = [1.0, 0.5];
const CFL: f64 = 0.45;

struct Frame {
    step: u64,
    leaves: u64,
    mass: f64,
    peak: f64,
    picture: String,
}

fn simulate(
    comm: &Comm,
    attempt: Attempt,
    dir: &std::path::Path,
) -> (f64, f64, Vec<Frame>, u64, u64) {
    let conn = Arc::new(Connectivity::periodic(2));
    let restored = if attempt.is_retry() {
        AdvectionSim::<Q>::restore(conn.clone(), comm, dir, VELOCITY, BASE_LEVEL, MAX_LEVEL).ok()
    } else {
        None
    };
    let resumed_at = restored.as_ref().map(|s| s.steps_taken);
    let mut sim = restored.unwrap_or_else(|| {
        AdvectionSim::<Q>::new(conn, comm, BASE_LEVEL, MAX_LEVEL, VELOCITY, gaussian_blob)
    });
    if comm.rank() == 0 {
        match resumed_at {
            Some(s) => eprintln!(
                "[attempt {}] restored checkpoint, resuming at step {s}",
                attempt.index
            ),
            None if attempt.is_retry() => {
                eprintln!(
                    "[attempt {}] no checkpoint yet, restarting from scratch",
                    attempt.index
                )
            }
            None => {}
        }
    }

    let mass0 = sim.total_mass(comm);
    let mut frames = Vec::new();
    let mut migrated_bytes = 0u64;
    while sim.steps_taken < STEPS {
        let dt = sim.cfl_dt(comm, CFL);
        sim.step(comm, dt);
        let s = sim.steps_taken;
        if s % ADAPT_EVERY == 0 {
            sim.adapt(comm, AdaptThresholds::default());
            migrated_bytes += comm.allreduce_sum(sim.migrate(comm));
        }
        if s % SAVE_EVERY == 0 {
            sim.checkpoint(comm, dir).expect("checkpoint save");
        }
        let mass = sim.total_mass(comm);
        let drift = (mass - mass0).abs() / mass0;
        assert!(
            drift < 1e-12,
            "mass must be conserved: step {s}, drift {drift:e}"
        );
        if s % 30 == 0 || s == STEPS {
            frames.push(Frame {
                step: s,
                leaves: sim.forest.global_count(),
                mass,
                peak: sim.max_value(comm),
                picture: sim.ascii_frame(comm, 48, 16),
            });
        }
    }
    let digest = sim.state_digest(comm);
    (mass0, sim.total_mass(comm), frames, digest, migrated_bytes)
}

fn main() {
    let dir = std::env::temp_dir().join(format!("qf-advection-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // chaos: rank 1 panics mid-run; all ranks see delayed + reordered
    // messages. Recovery restores the newest mesh+patch checkpoint.
    let opts = RecoveryOptions {
        policy: RecoveryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            ..RecoveryPolicy::default()
        },
        plans: vec![Some(
            FaultPlan::new(0xADC7)
                .with_delays(0.02, Duration::from_micros(300))
                .with_reordering(0.02)
                .with_panic_at(1, 600),
        )],
        ..RecoveryOptions::default()
    };
    let outcome = {
        let dir = dir.clone();
        run_with_recovery(RANKS, opts, move |comm, attempt| {
            Ok(simulate(&comm, attempt, &dir))
        })
        .expect("advection must recover from the injected fault")
    };
    let _ = std::fs::remove_dir_all(&dir);

    let (mass0, mass_end, frames, digest, migrated) = &outcome.values[0];
    println!("patch-based advection on dynamic AMR — periodic square, {RANKS} ranks");
    println!(
        "attempts: {} (one rank killed mid-run, recovered from checkpoint)",
        outcome.attempts
    );
    println!("state digest: {digest:016x} (identical on every rank)");
    for (r, (_, _, _, d, _)) in outcome.values.iter().enumerate() {
        assert_eq!(d, digest, "rank {r} disagrees on the final state");
    }
    println!("payload migrated during repartitioning: {migrated} bytes (global, final attempt)");
    println!();
    for f in frames {
        println!(
            "step {:3} | {:4} leaves | mass {:.12} | peak {:.3}",
            f.step, f.leaves, f.mass, f.peak
        );
        println!("{}", f.picture);
    }
    println!(
        "OK: mass drift {:.2e} over {STEPS} steps with adaptation, migration and recovery",
        (mass_end - mass0).abs() / mass0
    );
}
