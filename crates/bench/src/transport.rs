//! Backend-parameterized rank programs for the chaos and recovery
//! suites.
//!
//! The socket transport runs each rank in a child process, which cannot
//! inherit a test's closures — programs must be plain `fn` items looked
//! up by name in a [`ProgramRegistry`] that both the supervisor and the
//! spawned workers construct identically. This module is that shared
//! registry: the `repro` binary calls
//! [`maybe_run_socket_child`](quadforest_comm::maybe_run_socket_child)
//! with it first thing in `main`, so `repro` doubles as the worker
//! executable for every socket-backend run (tests locate it via
//! `env!("CARGO_BIN_EXE_repro")`, `repro --backend sockets` via
//! `std::env::current_exe()`).
//!
//! The same registry runs unchanged on the thread backend through
//! [`try_run_program`](quadforest_comm::try_run_program) — one
//! parameterized harness, two transports, identical digests.

use quadforest_comm::{Attempt, Comm, CommError, ProgramCtx, ProgramRegistry};
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{MortonQuad, Quadrant};
use quadforest_core::Wire;
use quadforest_forest::{BalanceKind, Forest};
use std::path::Path;
use std::sync::Arc;

/// Name of the fault-injected AMR pipeline program (the chaos suite).
pub const CHAOS_PIPELINE: &str = "chaos-pipeline";
/// Name of the checkpointed AMR program driven by the recovery
/// supervisor (the kill-point suite).
pub const RECOVERY_PIPELINE: &str = "recovery-pipeline";
/// Name of the data-bearing advection program (the solver-loop parity
/// test).
pub const PDE_ADVECTION: &str = "pde-advection";
/// Name of the program that keeps a healthy world talking for a given
/// time (the long-lived-world regression test).
pub const CHATTER: &str = "chatter";

/// The registry shared by supervisors, workers, and tests. Both sides
/// of a socket world MUST build it from this one function — a worker
/// with a different table would fail program lookup at startup.
pub fn registry() -> ProgramRegistry {
    ProgramRegistry::new()
        .register(CHAOS_PIPELINE, chaos_pipeline)
        .register(RECOVERY_PIPELINE, recovery_pipeline)
        .register(PDE_ADVECTION, pde_advection)
        .register(CHATTER, chatter)
        .register("out-of-range", out_of_range)
        .register("bulk-exchange", bulk_exchange)
        .register("exit-after-barrier", exit_after_barrier)
}

/// Collective digest of one pipeline run: `(forest checksum, global
/// ghost count)`. Identical on every rank.
pub type PipelineDigest = (u64, u64);

/// Everything needed to call two forests "leaf-identical": the marker
/// array, every local leaf as `(tree, anchor, level)`, the ghost-layer
/// size, and the collective checksum.
pub type RankView = (Vec<(u32, u64)>, Vec<(u32, [i32; 3], u8)>, u64, u64);

/// The refine→balance→partition→ghost pipeline under test — the exact
/// shape of `repro --chaos`, shared so the both-backend parity tests
/// and the CLI measure the same thing.
pub(crate) fn pipeline(comm: &Comm) -> PipelineDigest {
    let conn = Arc::new(Connectivity::unit(2));
    let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, comm, 2);
    f.refine(comm, true, |_, q| {
        let c = q.coords();
        q.level() < 6 && c[0] == 0 && c[1] == 0
    });
    f.balance(comm, BalanceKind::Face);
    f.partition(comm);
    let ghost = f.ghost(comm, BalanceKind::Face);
    f.validate().expect("invariants must hold under chaos");
    (f.checksum(comm), comm.allreduce_sum(ghost.len() as u64))
}

fn chaos_pipeline(comm: &Comm, _ctx: &ProgramCtx) -> Result<Vec<u8>, CommError> {
    Ok(pipeline(comm).to_wire())
}

/// One small allreduce every few milliseconds until rank 0's clock has
/// run for the `u64` milliseconds in the arguments. Returns the number
/// of rounds — the same on every rank, rank 0 decides when to stop.
fn chatter(comm: &Comm, ctx: &ProgramCtx) -> Result<Vec<u8>, CommError> {
    let millis = u64::from_wire(&ctx.args).map_err(|e| CommError::Frame {
        detail: format!("chatter args: {e}"),
    })?;
    let t0 = std::time::Instant::now();
    let mut rounds = 0u64;
    loop {
        let go_on = comm.rank() == 0 && t0.elapsed().as_millis() < millis as u128;
        if comm.try_allreduce_sum(go_on as u64)? == 0 {
            return Ok(rounds.to_wire());
        }
        rounds += 1;
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// Rank 0 names a rank the world does not have, in the operation the
/// argument byte picks (0 `send`, 1 `recv`, 2 `bcast`, 3 `gather`); the
/// others wait in a barrier. Registered as `out-of-range`.
fn out_of_range(comm: &Comm, ctx: &ProgramCtx) -> Result<Vec<u8>, CommError> {
    let p = comm.size();
    if comm.rank() == 0 {
        match ctx.args.first() {
            Some(0) => comm.try_send(p, 0, 0u8)?,
            Some(1) => drop(comm.try_recv::<u8>(p, 0)?),
            Some(2) => drop(comm.try_bcast(p, Some(0u8))?),
            _ => drop(comm.try_gather(p, 0u8)?),
        }
    }
    comm.try_barrier()?;
    Ok(Vec::new())
}

/// One barrier, then rank 1's process exits with status 7 without
/// reporting, while the others wait in a second barrier. Registered as
/// `exit-after-barrier`; only for process backends (on threads the exit
/// ends the caller's own process).
fn exit_after_barrier(comm: &Comm, _ctx: &ProgramCtx) -> Result<Vec<u8>, CommError> {
    comm.try_barrier()?;
    if comm.rank() == 1 {
        std::process::exit(7);
    }
    comm.try_barrier()?;
    Ok(Vec::new())
}

/// This process's minor page faults so far: field 10 of
/// `/proc/self/stat`, counted after the parenthesised command name.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    let fields = stat.rsplit_once(')').expect("stat has a command name").1;
    let minflt = fields.split_whitespace().nth(10 - 3).expect("field 10");
    minflt.parse().expect("a fault count")
}

/// `warmup` rounds, then `rounds` more, of one `alltoallv` of `patches`
/// [`Patch`](quadforest_pde::Patch) values to every other rank, each
/// received value checked. Returns the minor page faults this rank's
/// process took over the `rounds` and each of their `alltoallv` times
/// in seconds, as `(u64, Vec<f64>)`. Registered as `bulk-exchange`,
/// with the arguments `(warmup, rounds, patches)`.
fn bulk_exchange(comm: &Comm, ctx: &ProgramCtx) -> Result<Vec<u8>, CommError> {
    use quadforest_pde::Patch;
    let (warmup, rounds, patches) =
        <(u64, u64, u64)>::from_wire(&ctx.args).map_err(|e| CommError::Frame {
            detail: format!("bulk-exchange args: {e}"),
        })?;
    let mut times = Vec::with_capacity(rounds as usize);
    let mut round = |k: u64| -> Result<(), CommError> {
        let value = |src: usize, i: u64| (k + i + src as u64) as f64;
        let outgoing = (0..comm.size())
            .map(|dest| match dest == comm.rank() {
                true => Vec::new(),
                false => (0..patches)
                    .map(|i| Patch::constant(value(comm.rank(), i)))
                    .collect(),
            })
            .collect();
        comm.try_barrier()?; // time the exchange, not the peer's building
        let t = std::time::Instant::now();
        let incoming: Vec<Vec<Patch>> = comm.try_alltoallv(outgoing)?;
        times.push(t.elapsed().as_secs_f64());
        for (src, got) in incoming
            .iter()
            .enumerate()
            .filter(|&(src, _)| src != comm.rank())
        {
            let want = (0..patches).map(|i| Patch::constant(value(src, i)));
            if got.len() as u64 != patches || !got.iter().cloned().eq(want) {
                return Err(CommError::Frame {
                    detail: format!("bulk-exchange round {k}: wrong values from rank {src}"),
                });
            }
        }
        Ok(())
    };
    (0..warmup).try_for_each(&mut round)?;
    let before = minor_faults();
    (warmup..warmup + rounds).try_for_each(&mut round)?;
    let faults = minor_faults() - before;
    times.drain(..warmup as usize);
    Ok((faults, times).to_wire())
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

/// The checkpointed AMR program. First attempt: build, refine, save a
/// checkpoint, then run the expensive phases. Retry: restore from the
/// newest valid generation (falling back to a fresh start if no
/// checkpoint committed before the death) and replay from there.
pub(crate) fn recovery_program(comm: &Comm, attempt: Attempt, dir: &Path, seed: u64) -> RankView {
    let conn = Arc::new(Connectivity::unit(2));
    let restored = if attempt.is_retry() {
        Forest::<MortonQuad<2>>::load_checkpoint(conn.clone(), comm, dir).ok()
    } else {
        None
    };
    let mut f = match restored {
        Some((f, _generation)) => f,
        None => {
            let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, comm, 1);
            f.refine(comm, false, |t, q| {
                q.level() < 5 && mix(seed, t, q.morton_abs(), q.level()).is_multiple_of(3)
            });
            f.save_checkpoint(comm, dir).expect("checkpoint save");
            f
        }
    };
    f.refine(comm, false, |t, q| {
        q.level() < 5 && mix(seed ^ 0xABCD, t, q.morton_abs(), q.level()).is_multiple_of(4)
    });
    f.balance(comm, BalanceKind::Face);
    f.partition(comm);
    let ghost = f.ghost(comm, BalanceKind::Face);
    f.validate().expect("invariants must hold");
    (
        f.markers().to_vec(),
        f.leaves()
            .map(|(t, q)| (t, q.coords(), q.level()))
            .collect(),
        ghost.ghosts.len() as u64,
        f.checksum(comm),
    )
}

/// Wire-encode the `recovery-pipeline` arguments.
pub fn recovery_args(dir: &Path, seed: u64) -> Vec<u8> {
    (dir.display().to_string(), seed).to_wire()
}

fn recovery_pipeline(comm: &Comm, ctx: &ProgramCtx) -> Result<Vec<u8>, CommError> {
    let (dir, seed) = <(String, u64)>::from_wire(&ctx.args).map_err(|e| CommError::Frame {
        detail: format!("recovery-pipeline args: {e}"),
    })?;
    Ok(recovery_program(comm, ctx.attempt, Path::new(&dir), seed).to_wire())
}

/// One advection run's collective results: total cell updates performed,
/// payload bytes shipped by repartitioning, relative mass drift, and
/// the collective mesh+payload digest. Identical on every rank except
/// for nothing — all four entries are collective values.
pub type PdeView = (u64, u64, f64, u64);

/// The data-bearing advection loop: step the patch-based solver, adapt
/// and repartition (payload riding the partition all-to-all) on a fixed
/// cadence, and report collective work/migration/conservation numbers.
/// Shared by every transport backend so the parity test compares the
/// exact same computation with patches crossing threads, Unix sockets
/// and TCP.
pub(crate) fn advection_program(
    comm: &Comm,
    steps: u64,
    base_level: u8,
    max_level: u8,
    adapt_every: u64,
) -> PdeView {
    use quadforest_pde::{gaussian_blob, AdaptThresholds, AdvectionSim, PATCH_CELLS};
    let conn = Arc::new(Connectivity::periodic(2));
    let mut sim = AdvectionSim::<MortonQuad<2>>::new(
        conn,
        comm,
        base_level,
        max_level,
        [1.0, 0.5],
        gaussian_blob,
    );
    let mass0 = sim.total_mass(comm);
    let mut cells = 0u64;
    let mut migrated = 0u64;
    while sim.steps_taken < steps {
        let dt = sim.cfl_dt(comm, 0.45);
        sim.step(comm, dt);
        cells += sim.forest.global_count() * PATCH_CELLS as u64;
        if sim.steps_taken.is_multiple_of(adapt_every) {
            sim.adapt(comm, AdaptThresholds::default());
            migrated += comm.allreduce_sum(sim.migrate(comm));
        }
    }
    let drift = (sim.total_mass(comm) - mass0).abs() / mass0;
    (cells, migrated, drift, sim.state_digest(comm))
}

/// Wire-encode the `pde-advection` arguments.
pub fn pde_args(steps: u64, base_level: u8, max_level: u8, adapt_every: u64) -> Vec<u8> {
    (steps, base_level as u64, max_level as u64, adapt_every).to_wire()
}

fn pde_advection(comm: &Comm, ctx: &ProgramCtx) -> Result<Vec<u8>, CommError> {
    let (steps, base, max, adapt_every) =
        <(u64, u64, u64, u64)>::from_wire(&ctx.args).map_err(|e| CommError::Frame {
            detail: format!("pde-advection args: {e}"),
        })?;
    Ok(advection_program(comm, steps, base as u8, max as u8, adapt_every).to_wire())
}

/// Decode a program's per-rank result bytes as a [`PdeView`].
pub fn decode_pde(bytes: &[u8]) -> PdeView {
    PdeView::from_wire(bytes).expect("pde-advection result bytes")
}

/// Decode a program's per-rank result bytes as a [`PipelineDigest`].
pub fn decode_digest(bytes: &[u8]) -> PipelineDigest {
    PipelineDigest::from_wire(bytes).expect("chaos-pipeline result bytes")
}

/// Decode a program's per-rank result bytes as a [`RankView`].
pub fn decode_view(bytes: &[u8]) -> RankView {
    RankView::from_wire(bytes).expect("recovery-pipeline result bytes")
}
