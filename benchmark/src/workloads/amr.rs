//! `amr_shell` — the mesh-adaptation pipeline at an honest size.
//!
//! P=2 on the threads backend, `Morton3`, unit cube. One **rep** (the
//! operation) is `new_uniform(4)` → recursive `refine` to level 8 where
//! an octant cuts a spherical shell (radius 0.35, off-centre midpoint
//! placed by the seed) → `balance(Face)` → `partition` → `ghost(Face)` → `checksum`;
//! every rep builds the same ≈0.4 M-leaf forest. An **item** is one leaf
//! of the final forest.
//!
//! `forest::balance` does nearly all the work. The threads backend moves
//! values without `Wire`, so comm and wire are nearly idle: nothing in
//! `comm.*` should move this workload's numbers.

use super::{peak_rss_mb, slowest_rank, timed_setup, Outcome, Rng, RunCfg, Size, Stop};
use crate::spans::{self, SpanLog, SpanRec};
use crate::stats::median;
use quadforest_comm::{self as comm, Comm};
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{Avx3d, Morton3, Quadrant, Standard3};
use quadforest_forest::{BalanceKind, Forest};
use quadforest_telemetry::{self as telemetry, MetricKind, MetricsSnapshot};
use std::sync::Arc;
use std::time::Instant;

/// A spherical shell in the unit cube (or, in 2D, a circle in the unit
/// square): the refinement target of `amr_shell` and `query_serve`.
#[derive(Clone, Copy, Debug)]
pub struct Shell {
    pub center: [f64; 3],
    pub radius: f64,
}

impl Shell {
    /// Radius `radius`, midpoint off the cube's centre by a fixed vector
    /// that the seed maps through one of the cube's 48 symmetries (an
    /// axis permutation and three reflections). The octree is symmetric
    /// under all of them, so every seed gives the same leaf counts — the
    /// same amount of work — in another Morton order, partition and
    /// ghost layer.
    pub fn from_seed(seed: u64, stream: u64, radius: f64) -> Self {
        const OFFSET: [f64; 3] = [0.031, -0.047, 0.013];
        const PERMUTATIONS: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let mut rng = Rng::new(seed, stream);
        let axes = PERMUTATIONS[rng.below(6) as usize];
        let flips = rng.below(8);
        Shell {
            center: [0, 1, 2].map(|d| {
                let sign = if flips >> d & 1 == 1 { -1.0 } else { 1.0 };
                0.5 + sign * OFFSET[axes[d]]
            }),
            radius,
        }
    }

    /// Does the surface pass through `q`'s cell?
    pub fn cuts<Q: Quadrant>(&self, q: &Q) -> bool {
        let root = Q::len_at(0) as f64;
        let (c, side) = (q.coords(), q.side() as f64 / root);
        let (mut near2, mut far2) = (0.0, 0.0);
        for (anchor, center) in c.iter().zip(self.center).take(Q::DIM as usize) {
            let lo = *anchor as f64 / root - center;
            let hi = lo + side;
            let near = if lo > 0.0 {
                lo
            } else if hi < 0.0 {
                -hi
            } else {
                0.0
            };
            let far = lo.abs().max(hi.abs());
            near2 += near * near;
            far2 += far * far;
        }
        let r2 = self.radius * self.radius;
        near2 <= r2 && r2 <= far2
    }
}

/// The library counters one rep moved, on one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RepCounters {
    pub msgs: u64,
    pub bytes: u64,
    pub collectives: u64,
    pub balance_rounds: u64,
    pub partition_sent: u64,
}

fn counters(snap: &MetricsSnapshot) -> RepCounters {
    let c = |name: &str| {
        snap.get(name, MetricKind::Counter)
            .map_or(0, |e| e.scalar())
    };
    RepCounters {
        msgs: c("comm.msgs_sent"),
        bytes: c("comm.bytes_sent"),
        collectives: c("comm.collectives"),
        balance_rounds: c("forest.balance.rounds"),
        partition_sent: c("forest.partition.sent"),
    }
}

/// What one rep produced, as one rank saw it.
#[derive(Clone, Debug, PartialEq)]
pub struct RepOut {
    /// This rank's wall time of the timed region.
    pub wall: f64,
    pub leaves_after_refine: u64,
    pub leaves_after_balance: u64,
    /// Ghost octants summed over ranks.
    pub ghost_count: u64,
    pub checksum: u64,
    /// `Forest::validate` on the finished forest.
    pub valid: Result<(), String>,
    /// Library counters moved by the rep (telemetry on only).
    pub counters: Option<RepCounters>,
}

/// One rep. The barrier and the counter snapshots are outside the timed
/// region and outside the root span; `validate` runs after both.
fn rep<Q: Quadrant>(comm: &Comm, shell: &Shell, size: &Size, log: &mut SpanLog) -> RepOut {
    let conn = Arc::new(Connectivity::unit(3));
    let max_level = size.shell_max_level;
    comm.barrier();
    let before = telemetry::enabled().then(telemetry::rank_snapshot);
    let t0 = Instant::now();
    let (forest, leaves_after_refine, ghost_local, checksum) = log.span("bench.rep", |log| {
        let mut f = log.span("forest.new_uniform", |_| {
            Forest::<Q>::new_uniform(conn, comm, size.shell_base_level)
        });
        log.span("forest.refine", |_| {
            f.refine(comm, true, |_, q| q.level() < max_level && shell.cuts(q))
        });
        let refined = f.global_count();
        log.span("forest.balance", |_| f.balance(comm, BalanceKind::Face));
        log.span("forest.partition", |_| f.partition(comm));
        let ghost = log.span("forest.ghost", |_| f.ghost(comm, BalanceKind::Face));
        let checksum = log.span("forest.checksum", |_| f.checksum(comm));
        (f, refined, ghost.len() as u64, checksum)
    });
    let wall = t0.elapsed().as_secs_f64();
    let counters = before.map(|b| {
        let (a, b) = (counters(&telemetry::rank_snapshot()), counters(&b));
        RepCounters {
            msgs: a.msgs - b.msgs,
            bytes: a.bytes - b.bytes,
            collectives: a.collectives - b.collectives,
            balance_rounds: a.balance_rounds - b.balance_rounds,
            partition_sent: a.partition_sent - b.partition_sent,
        }
    });
    RepOut {
        wall,
        leaves_after_refine,
        leaves_after_balance: forest.global_count(),
        ghost_count: comm.allreduce_sum(ghost_local),
        checksum,
        valid: forest.validate().map_err(|e| e.to_string()),
        counters,
    }
}

/// What one rank brings back from a world.
pub struct RankOut {
    pub reps: Vec<RepOut>,
    pub spans: Vec<SpanRec>,
    /// Spans the library itself recorded and dropped (telemetry on only).
    pub lib_spans: (usize, u64),
}

/// Run reps on `p` thread ranks. `trace` switches the benchmark's span
/// recorder on, `telemetry_on` the library's.
pub fn world<Q: Quadrant>(
    p: usize,
    shell: Shell,
    size: &Size,
    stop: Stop,
    trace: bool,
    telemetry_on: bool,
) -> Vec<RankOut> {
    let epoch = Instant::now();
    comm::run(p, |comm| {
        if telemetry_on {
            telemetry::begin_rank(comm.rank());
        }
        let mut log = SpanLog::new(trace, comm.rank(), epoch);
        let mut reps = Vec::new();
        let t0 = Instant::now();
        loop {
            log.set_rep(reps.len() as u32);
            reps.push(rep::<Q>(&comm, &shell, size, &mut log));
            if stop.reached(&comm, t0, reps.len()) {
                break;
            }
        }
        let lib_spans = telemetry::finish_rank()
            .filter(|_| telemetry_on)
            .map_or((0, 0), |r| (r.spans.len(), r.dropped_spans));
        RankOut {
            reps,
            spans: log.into_spans(),
            lib_spans,
        }
    })
}

/// Rep wall times: the slowest rank of each rep.
fn rep_walls(ranks: &[RankOut]) -> Vec<f64> {
    let walls: Vec<Vec<f64>> = ranks
        .iter()
        .map(|r| r.reps.iter().map(|rep| rep.wall).collect())
        .collect();
    slowest_rank(&walls, |w| w)
}

/// Count every rep of `ranks` into `out`, checked against `want`: the
/// forest (checksum, leaf count) must be the same in every world; the
/// ghost count depends on the rank count, so it is compared only when
/// the world has `want`'s size (`same_size`).
fn check_reps(out: &mut Outcome, what: &str, ranks: &[RankOut], want: &RepOut, same_size: bool) {
    for i in 0..ranks[0].reps.len() {
        let bad: Vec<String> = ranks
            .iter()
            .enumerate()
            .filter_map(|(r, rank)| {
                let got = &rank.reps[i];
                if let Err(e) = &got.valid {
                    return Some(format!("rank {r}: validate: {e}"));
                }
                let forest_ok = (got.checksum, got.leaves_after_balance)
                    == (want.checksum, want.leaves_after_balance);
                let ghosts_ok = !same_size || got.ghost_count == want.ghost_count;
                (!forest_ok || !ghosts_ok).then(|| {
                    format!(
                        "rank {r}: checksum {:#x} leaves {} ghosts {}, expected {:#x} {} {}",
                        got.checksum,
                        got.leaves_after_balance,
                        got.ghost_count,
                        want.checksum,
                        want.leaves_after_balance,
                        want.ghost_count
                    )
                })
            })
            .collect();
        out.op(bad.is_empty(), || {
            format!("{what} rep {i}: {}", bad.join("; "))
        });
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let size = &cfg.size;
    let shell = Shell::from_seed(cfg.seed, 2, 0.35);

    // set-up is a warm-up rep in a world of its own: it pages in the
    // allocator and gives the reference every later rep must reproduce
    let (warm, setup_s) = timed_setup(size.setup_reps, || {
        world::<Morton3>(2, shell, size, Stop::Ops(1), false, false)
    });
    let want = warm[0].reps[0].clone();
    check_reps(&mut out, "warm-up", &warm, &want, true);

    if !cfg.traced {
        let ranks = world::<Morton3>(
            2,
            shell,
            size,
            Stop::Budget(cfg.budget(), size.min_ops),
            false,
            false,
        );
        check_reps(&mut out, "P=2", &ranks, &want, true);
        let walls = rep_walls(&ranks);
        let leaves = want.leaves_after_balance as f64;
        let rates: Vec<f64> = walls.iter().map(|w| leaves / w).collect();
        out.set_speed(&rates, &walls);
        out.set("peak_rss_mb", peak_rss_mb());
        out.set("setup_s", setup_s);
        return out;
    }

    // traced run: a third of the budget untraced, a third traced, the
    // rest for the single reps at P=1, in the other two representations
    // and at P=4
    let third = cfg.budget().div_f64(3.0);
    let min = size.min_ops.min(3);
    let plain = world::<Morton3>(2, shell, size, Stop::Budget(third, min), false, false);
    check_reps(&mut out, "P=2", &plain, &want, true);
    let traced = world::<Morton3>(2, shell, size, Stop::Budget(third, min), true, true);
    check_reps(&mut out, "P=2 traced", &traced, &want, true);
    let p2 = median(&rep_walls(&plain));
    let traced_walls = rep_walls(&traced);

    let lib_spans = traced
        .iter()
        .fold((0, 0), |a, r| (a.0 + r.lib_spans.0, a.1 + r.lib_spans.1));
    let reps = traced[0].reps.len() as f64;
    let count = |f: fn(&RepCounters) -> u64| -> f64 {
        traced
            .iter()
            .flat_map(|r| r.reps.iter())
            .map(|rep| f(rep.counters.as_ref().expect("telemetry was on")))
            .sum::<u64>() as f64
            / reps
    };
    out.set("comm.msgs_per_rep", count(|c| c.msgs));
    out.set("comm.bytes_per_rep", count(|c| c.bytes));
    // every rank issues every collective; report one rank's count
    out.set("comm.collectives_per_rep", count(|c| c.collectives) / 2.0);
    out.set("forest.balance_rounds", count(|c| c.balance_rounds) / 2.0);
    out.set("forest.partition_moved", count(|c| c.partition_sent));
    out.set(
        "forest.leaves_after_refine",
        want.leaves_after_refine as f64,
    );
    out.set(
        "forest.leaves_after_balance",
        want.leaves_after_balance as f64,
    );
    out.set("forest.ghost_count", want.ghost_count as f64);

    let spans = spans::merge(traced.into_iter().map(|r| r.spans).collect());
    for phase in [
        "new_uniform",
        "refine",
        "balance",
        "partition",
        "ghost",
        "checksum",
    ] {
        let per_rep = spans::per_rep_max_over_ranks(&spans, &format!("forest.{phase}"));
        out.set(&format!("forest.{phase}_s"), median(&per_rep));
    }
    out.set(
        "forest.balance_imbalance",
        spans::imbalance(&spans, "forest.balance"),
    );
    out.set(
        "forest.ghost_imbalance",
        spans::imbalance(&spans, "forest.ghost"),
    );

    let p1 = world::<Morton3>(1, shell, size, Stop::Ops(1), false, false);
    check_reps(&mut out, "P=1", &p1, &want, false);
    let p1_wall = p1[0].reps[0].wall;
    out.set("forest.pipeline_p1_s", p1_wall);
    out.set("forest.parallel_eff_p2", p1_wall / (2.0 * p2));

    let balance_of = |ranks: Vec<RankOut>| {
        let spans = spans::merge(ranks.into_iter().map(|r| r.spans).collect());
        median(&spans::per_rep_max_over_ranks(&spans, "forest.balance"))
    };
    let standard = world::<Standard3>(2, shell, size, Stop::Ops(1), true, false);
    check_reps(&mut out, "Standard3", &standard, &want, true);
    out.set("forest.balance_standard_s", balance_of(standard));
    let avx = world::<Avx3d>(2, shell, size, Stop::Ops(1), true, false);
    check_reps(&mut out, "Avx3d", &avx, &want, true);
    out.set("forest.balance_avx_s", balance_of(avx));

    // four ranks oversubscribe two cpus: counts only, no wall clock. The
    // ghost layer grows with the rank count; the forest must not change.
    let p4 = world::<Morton3>(4, shell, size, Stop::Ops(1), false, true);
    check_reps(&mut out, "P=4", &p4, &want, false);
    let sum4 = |f: fn(&RepCounters) -> u64| -> f64 {
        p4.iter()
            .map(|r| f(r.reps[0].counters.as_ref().expect("telemetry was on")))
            .sum::<u64>() as f64
    };
    out.set("comm.msgs_per_rep_p4", sum4(|c| c.msgs));
    out.set("comm.bytes_per_rep_p4", sum4(|c| c.bytes));

    out.set_tracing_overhead(&rep_walls(&plain), &traced_walls);
    out.set("telemetry.spans_recorded", lib_spans.0 as f64);
    out.set("telemetry.spans_dropped", lib_spans.1 as f64);
    out.spans = spans;
    out
}
