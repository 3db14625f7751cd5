//! `advect_amr` — the solver loop (the shape of ForestClaw's table:
//! advance / ghost exchange / regrid).
//!
//! P=2 on the threads backend, `AdvectionSim<Morton2>` on the periodic
//! unit square, base level 6, finest level 9 (≈24 k leaves × 64 cells).
//! Set-up builds the simulation and adapts the mesh to the blob. One
//! **cycle** is 4 × (`cfl_dt` + `step`) then `adapt` + `migrate`; cycles
//! repeat until the budget is spent, then the state is checkpointed and
//! restored once. The **operation** is one `step`, an **item** one cell
//! update; rates are taken per cycle, so adapt and migrate count against
//! the throughput.
//!
//! `pde::step` does most of the work. The forest layer is used
//! *differently* than in `amr_shell`: through `balance_mapped` /
//! `partition_mapped` carrying a 512-byte patch per leaf, so a balance or
//! partition gain for mesh-only use that costs the payload path shows
//! here. The seed places the blob and turns the velocity (see `Problem`).

use super::{peak_rss_mb, slowest_rank, Outcome, Rng, RunCfg, Size, Stop};
use crate::spans::{self, SpanLog, SpanRec};
use crate::stats::median;
use quadforest_comm::{self as comm, Comm};
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::Morton2;
use quadforest_pde::{AdaptThresholds, AdvectionSim, PATCH_CELLS};
use quadforest_telemetry::{self as telemetry, MetricKind};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

type Q = Morton2;
const STEPS_PER_CYCLE: usize = 4;
const CFL: f64 = 0.45;
/// Relative mass drift above this fails the cycle.
const MASS_TOLERANCE: f64 = 1e-12;

/// The seed-derived problem: a Gaussian blob and a constant velocity.
#[derive(Clone, Copy, Debug)]
struct Problem {
    center: [f64; 2],
    velocity: [f64; 2],
}

impl Problem {
    /// A fixed blob and velocity, moved by the seed through a symmetry of
    /// the periodic square's base grid: one of the square's 8 symmetries
    /// (swap the axes, reflect each), then a shift by whole base cells.
    /// Every seed therefore gives the same mesh sizes and the same work,
    /// at another place, in another direction and partition.
    fn from_seed(seed: u64, size: &Size) -> Self {
        const CENTER: [f64; 2] = [0.3, 0.4];
        const VELOCITY: [f64; 2] = [1.0, 0.5];
        let mut rng = Rng::new(seed, 3);
        let swap = rng.below(2) as usize;
        let flips = rng.below(4);
        let cells = 1u64 << size.advect_base_level;
        let mut p = Problem {
            center: [0.0; 2],
            velocity: [0.0; 2],
        };
        for d in 0..2 {
            let from = d ^ swap;
            let shift = rng.below(cells) as f64 / cells as f64;
            let (c, v) = if flips >> d & 1 == 1 {
                (1.0 - CENTER[from], -VELOCITY[from])
            } else {
                (CENTER[from], VELOCITY[from])
            };
            p.center[d] = (c + shift).fract();
            p.velocity[d] = v;
        }
        p
    }

    fn build(&self, comm: &Comm, size: &Size) -> AdvectionSim<Q> {
        let [cx, cy] = self.center;
        let mut sim = AdvectionSim::<Q>::new(
            Arc::new(Connectivity::periodic(2)),
            comm,
            size.advect_base_level,
            size.advect_max_level,
            self.velocity,
            // distances on the torus, so a blob near an edge wraps
            move |x, y| {
                let wrap = |d: f64| d - d.round();
                (-(wrap(x - cx).powi(2) + wrap(y - cy).powi(2)) / 0.01).exp()
            },
        );
        // adapt the start mesh to the solver's own thresholds, so the
        // timed loop starts from the mesh it would settle on
        for _ in 0..2 {
            sim.adapt(comm, AdaptThresholds::default());
            sim.migrate(comm);
        }
        sim
    }
}

/// The state after the first `count_cycles` cycles, as collective
/// values (identical on every rank).
#[derive(Clone, Debug, Default, PartialEq)]
struct Counts {
    /// Exact and independent of the rank count: the mesh and the work.
    mesh_checksum: u64,
    leaves: u64,
    cells_updated: u64,
    refined: u64,
    coarsened: u64,
    /// Exact for one rank count: the solution's bits and the bytes moved.
    digest: u64,
    migrated_bytes: u64,
    /// The solution itself, compared across rank counts to 1e-12.
    mass: f64,
    max_value: f64,
    /// Wall time of those cycles on this rank.
    wall: f64,
}

impl Counts {
    /// Equal where two runs at the same rank count must be.
    fn same_run(&self, other: &Counts) -> bool {
        Counts {
            wall: self.wall,
            ..other.clone()
        } == *self
    }

    /// Equal where runs at different rank counts must be. The solution is
    /// compared to a relative 1e-12, not bit for bit: `step` adds a
    /// cell's face fluxes in an order that depends on which faces are
    /// rank-local, so P=1 and P=2 differ in the last bits.
    fn same_problem(&self, other: &Counts) -> bool {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
        (
            self.mesh_checksum,
            self.leaves,
            self.cells_updated,
            self.refined,
            self.coarsened,
        ) == (
            other.mesh_checksum,
            other.leaves,
            other.cells_updated,
            other.refined,
            other.coarsened,
        ) && close(self.mass, other.mass)
            && close(self.max_value, other.max_value)
    }
}

#[derive(Default)]
struct RankOut {
    setup_s: Vec<f64>,
    cycle_walls: Vec<f64>,
    step_s: Vec<f64>,
    /// Cell updates of each cycle, and their running total.
    cycle_cells: Vec<u64>,
    cells_updated: u64,
    /// Largest relative mass drift seen, and the cycles it failed in.
    mass_drift: f64,
    failures: Vec<String>,
    counts: Counts,
    /// (save s, load s, bytes on disk) of the checkpoint round trip.
    checkpoint: Option<(f64, f64, u64)>,
    spans: Vec<SpanRec>,
    /// From the library's telemetry (traced world only): seconds per
    /// cycle inside its `balance` and `partition` spans, halo bytes and
    /// messages per step on this rank, spans recorded and dropped.
    lib: Option<LibStats>,
}

#[derive(Clone, Copy, Default)]
struct LibStats {
    balance_s: f64,
    partition_s: f64,
    halo_bytes_per_step: f64,
    msgs_per_step: f64,
    spans: (usize, u64),
}

struct WorldCfg<'a> {
    p: usize,
    problem: Problem,
    size: &'a Size,
    stop: Stop,
    trace: bool,
    setup_reps: usize,
    /// Where to write the checkpoint, if this world makes one.
    checkpoint_dir: Option<&'a Path>,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

fn rank_program(comm: &Comm, w: &WorldCfg, epoch: Instant) -> RankOut {
    let mut o = RankOut::default();
    let size = w.size;

    // ---- set-up, several times; the last simulation is the one timed
    let mut sim = None;
    for _ in 0..w.setup_reps.max(1) {
        drop(sim.take());
        comm.barrier();
        let t0 = Instant::now();
        sim = Some(w.problem.build(comm, size));
        comm.barrier();
        o.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut sim = sim.expect("at least one set-up");
    let mass0 = sim.total_mass(comm);

    if w.trace {
        telemetry::begin_rank(comm.rank());
    }
    let counter = |name: &str| {
        telemetry::rank_snapshot()
            .get(name, MetricKind::Counter)
            .map_or(0, |e| e.scalar())
    };
    let mut step_msgs = 0u64;
    let mut log = SpanLog::new(w.trace, comm.rank(), epoch);
    let (mut refined, mut coarsened, mut migrated) = (0u64, 0u64, 0u64);
    let t_loop = Instant::now();
    loop {
        let cycle = o.cycle_walls.len();
        let cells_before = o.cells_updated;
        log.set_rep(cycle as u32);
        comm.barrier();
        let t0 = Instant::now();
        log.span("bench.cycle", |log| {
            let msgs0 = w.trace.then(|| counter("comm.msgs_sent"));
            for _ in 0..STEPS_PER_CYCLE {
                let dt = log.span("pde.cfl_dt", |_| sim.cfl_dt(comm, CFL));
                let t = Instant::now();
                log.span("pde.step", |_| sim.step(comm, dt));
                o.step_s.push(t.elapsed().as_secs_f64());
                o.cells_updated += sim.forest.global_count() * PATCH_CELLS as u64;
            }
            if let Some(m0) = msgs0 {
                step_msgs += counter("comm.msgs_sent") - m0;
            }
            let report = log.span("pde.adapt", |_| sim.adapt(comm, AdaptThresholds::default()));
            refined += report.refined as u64;
            coarsened += report.coarsened as u64;
            migrated += log.span("pde.migrate", |_| sim.migrate(comm));
        });
        o.cycle_walls.push(t0.elapsed().as_secs_f64());
        o.cycle_cells.push(o.cells_updated - cells_before);

        // ---- gates, outside the timed region
        let drift = (sim.total_mass(comm) - mass0).abs() / mass0;
        o.mass_drift = o.mass_drift.max(drift);
        if drift.is_nan() || drift >= MASS_TOLERANCE {
            o.failures
                .push(format!("cycle {cycle}: mass drift {drift:e}"));
        }
        if cycle + 1 == size.advect_count_cycles {
            o.counts = Counts {
                mesh_checksum: sim.forest.checksum(comm),
                leaves: sim.forest.global_count(),
                cells_updated: o.cells_updated,
                refined: comm.allreduce_sum(refined),
                coarsened: comm.allreduce_sum(coarsened),
                digest: sim.state_digest(comm),
                migrated_bytes: comm.allreduce_sum(migrated),
                mass: sim.total_mass(comm),
                max_value: sim.max_value(comm),
                wall: o.cycle_walls.iter().sum(),
            };
        }
        if w.stop.reached(comm, t_loop, o.cycle_walls.len()) {
            break;
        }
    }

    if let Some(report) = telemetry::finish_rank().filter(|_| w.trace) {
        let cycles = o.cycle_walls.len() as f64;
        let steps = o.step_s.len() as f64;
        let halo = report
            .metrics
            .get("pde.halo.bytes", MetricKind::Counter)
            .map_or(0, |e| e.scalar());
        o.lib = Some(LibStats {
            balance_s: report.phase_total_ns("balance") as f64 * 1e-9 / cycles,
            partition_s: report.phase_total_ns("partition") as f64 * 1e-9 / cycles,
            halo_bytes_per_step: halo as f64 / steps,
            msgs_per_step: step_msgs as f64 / steps,
            spans: (report.spans.len(), report.dropped_spans),
        });
    }

    // ---- one checkpoint and restore: the restored state must be the
    // saved one, bit for bit
    if let Some(dir) = w.checkpoint_dir {
        let before = sim.state_digest(comm);
        comm.barrier();
        let t0 = Instant::now();
        let saved = log.span("pde.checkpoint", |_| sim.checkpoint(comm, dir));
        comm.barrier();
        let save_s = t0.elapsed().as_secs_f64();
        let bytes = dir_bytes(dir);
        let t0 = Instant::now();
        let restored = log.span("pde.restore", |_| {
            AdvectionSim::<Q>::restore(
                Arc::new(Connectivity::periodic(2)),
                comm,
                dir,
                w.problem.velocity,
                size.advect_base_level,
                size.advect_max_level,
            )
        });
        comm.barrier();
        let load_s = t0.elapsed().as_secs_f64();
        match (saved, restored) {
            (Ok(_), Ok(back)) => {
                let after = back.state_digest(comm);
                if after != before || back.steps_taken != sim.steps_taken {
                    o.failures.push(format!(
                        "restore: digest {after:#x} step {}, saved {before:#x} step {}",
                        back.steps_taken, sim.steps_taken
                    ));
                }
            }
            (Err(e), _) | (_, Err(e)) => o.failures.push(format!("checkpoint: {e}")),
        }
        o.checkpoint = Some((save_s, load_s, bytes));
    }
    o.spans = log.into_spans();
    o
}

fn world(w: &WorldCfg) -> Vec<RankOut> {
    let epoch = Instant::now();
    comm::run(w.p, |comm| rank_program(&comm, w, epoch))
}

/// Count the world's cycles (and its checkpoint round trip) into `out`.
fn check_world(out: &mut Outcome, what: &str, ranks: &[RankOut]) {
    let cycles = ranks[0].cycle_walls.len() as u64 + ranks[0].checkpoint.is_some() as u64;
    out.attempted += cycles;
    // the gates compare collective values, so every rank fails alike:
    // count rank 0's
    for f in &ranks[0].failures {
        out.fail(|| format!("{what}: {f}"));
    }
    if ranks.iter().any(|r| !r.counts.same_run(&ranks[0].counts)) {
        out.fail(|| format!("{what}: ranks disagree on the collective counts"));
    }
}

fn scratch_dir(cfg: &RunCfg) -> PathBuf {
    cfg.out_dir
        .join(format!("tmp-advect-{}-{}", std::process::id(), cfg.seed))
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let size = &cfg.size;
    let problem = Problem::from_seed(cfg.seed, size);
    let dir = scratch_dir(cfg);
    std::fs::create_dir_all(&dir).expect("create the checkpoint directory");
    let base = WorldCfg {
        p: 2,
        problem,
        size,
        stop: Stop::Budget(cfg.budget(), size.min_ops.max(size.advect_count_cycles)),
        trace: false,
        // a set-up takes well under 0.1 s here: more of them, so that
        // their median is as steady as the costlier workloads'
        setup_reps: size.setup_reps * 3,
        checkpoint_dir: Some(&dir),
    };

    if !cfg.traced {
        let ranks = world(&base);
        check_world(&mut out, "P=2", &ranks);
        let rates: Vec<f64> = slowest_rank(&ranks, |r| &r.cycle_walls)
            .iter()
            .zip(&ranks[0].cycle_cells)
            .map(|(wall, &cells)| cells as f64 / wall)
            .collect();
        out.set_speed(&rates, &slowest_rank(&ranks, |r| &r.step_s));
        out.set("peak_rss_mb", peak_rss_mb());
        out.set("setup_s", median(&slowest_rank(&ranks, |r| &r.setup_s)));
        let _ = std::fs::remove_dir_all(&dir);
        return out;
    }

    // traced run: a third of the budget untraced, a third traced, then
    // the first `count_cycles` cycles again on one rank
    let third = cfg.budget().div_f64(3.0);
    let plain = world(&WorldCfg {
        stop: Stop::Budget(third, size.advect_count_cycles),
        setup_reps: 1,
        checkpoint_dir: None,
        ..base
    });
    check_world(&mut out, "P=2", &plain);
    let traced = world(&WorldCfg {
        stop: Stop::Budget(third, size.advect_count_cycles),
        trace: true,
        setup_reps: 1,
        ..base
    });
    check_world(&mut out, "P=2 traced", &traced);
    let p1 = world(&WorldCfg {
        p: 1,
        stop: Stop::Ops(size.advect_count_cycles),
        setup_reps: 1,
        checkpoint_dir: None,
        ..base
    });
    check_world(&mut out, "P=1", &p1);
    let _ = std::fs::remove_dir_all(&dir);

    // the same problem was solved at P=1 and at P=2, traced or not
    let want = &plain[0].counts;
    let (again, alone) = (&traced[0].counts, &p1[0].counts);
    out.op(want.same_run(again), || {
        format!("P=2 traced: {again:?} differs from P=2 {want:?}")
    });
    out.op(want.same_problem(alone), || {
        format!("P=1: {alone:?} differs from P=2 {want:?}")
    });
    out.set("pde.leaves_final", want.leaves as f64);
    out.set("pde.cells_updated", want.cells_updated as f64);
    out.set("pde.adapt_refined", want.refined as f64);
    out.set("pde.adapt_coarsened", want.coarsened as f64);
    out.set("pde.migrated_bytes", want.migrated_bytes as f64);
    out.set(
        "pde.mass_drift",
        traced.iter().map(|r| r.mass_drift).fold(0.0, f64::max),
    );
    let p2_wall = plain.iter().map(|r| r.counts.wall).fold(0.0, f64::max);
    out.set("pde.pipeline_p1_s", p1[0].counts.wall);
    out.set("pde.parallel_eff_p2", p1[0].counts.wall / (2.0 * p2_wall));

    let (save, load, bytes) = traced[0].checkpoint.expect("the traced world checkpoints");
    out.set("forest.checkpoint_save_s", save);
    out.set("forest.checkpoint_load_s", load);
    out.set("forest.checkpoint_bytes", bytes as f64);
    let lib: Vec<LibStats> = traced
        .iter()
        .map(|r| r.lib.expect("traced world"))
        .collect();
    let max = |f: fn(&LibStats) -> f64| lib.iter().map(f).fold(0.0, f64::max);
    let sum = |f: fn(&LibStats) -> f64| lib.iter().map(f).sum::<f64>();
    out.set("forest.balance_mapped_s", max(|l| l.balance_s));
    out.set("forest.partition_mapped_s", max(|l| l.partition_s));
    out.set("comm.halo_bytes_per_step", sum(|l| l.halo_bytes_per_step));
    out.set("comm.msgs_per_step", sum(|l| l.msgs_per_step));
    out.set("telemetry.spans_recorded", sum(|l| l.spans.0 as f64));
    out.set("telemetry.spans_dropped", sum(|l| l.spans.1 as f64));

    out.set_tracing_overhead(
        &slowest_rank(&plain, |r| &r.step_s),
        &slowest_rank(&traced, |r| &r.step_s),
    );

    let spans = spans::merge(traced.into_iter().map(|r| r.spans).collect());
    let per_cycle = |name: &str| median(&spans::per_rep_max_over_ranks(&spans, name));
    let (step, adapt, migrate, cfl) = (
        per_cycle("pde.step"),
        per_cycle("pde.adapt"),
        per_cycle("pde.migrate"),
        per_cycle("pde.cfl_dt"),
    );
    out.set("pde.step_s", step);
    out.set("pde.adapt_s", adapt);
    out.set("pde.migrate_s", migrate);
    out.set("pde.cfl_dt_s", cfl);
    out.set("pde.step_share", step / per_cycle("bench.cycle"));
    out.set("pde.step_imbalance", spans::imbalance(&spans, "pde.step"));
    out.spans = spans;
    out
}
