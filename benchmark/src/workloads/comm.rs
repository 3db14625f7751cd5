//! `comm_exchange` — the message path under load.
//!
//! P=2, one process per rank on `Backend::Sockets`. One **round** is one
//! `try_alltoallv` of 2000 `Patch` values (1 MB) to the peer, then 64
//! `try_allreduce_sum`, then one `try_allgather`. The **operation** is
//! the `alltoallv`; an **item** is one payload byte the rank sends in the
//! round (rates are taken per whole round and read in MB/s).
//!
//! This is the only workload where `Wire` encode → CRC frame → syscall →
//! supervisor router → decode dominates: `comm` and `core::wire` do the
//! work and no forest or solver kernel runs. The payload values are a
//! closed form of (round, sender, index), so every received buffer is
//! checked without a second copy; the seed shifts the closed form.
//!
//! The rank program lives in this crate's own registry; the benchmark
//! binary is its own worker executable (see [`maybe_run_rank_process`]).

use super::{done, peak_rss_mb, slowest_rank, timed_setup, Outcome, RunCfg};
use crate::spans::{self, SpanLog, SpanRec};
use crate::stats::median;
use quadforest_comm::{
    self as comm, Attempt, Backend, Comm, CommError, ProgramCtx, ProgramRegistry, RunOptions,
    SocketOptions, TcpOptions,
};
use quadforest_core::Wire;
use quadforest_pde::{Patch, PATCH_CELLS, PATCH_WIRE_BYTES};
use quadforest_telemetry::{self as telemetry, MetricKind};
use std::time::{Duration, Instant};

const PROGRAM: &str = "bench-exchange";
/// Rounds over which the backends' digests are compared; every world
/// runs at least this many.
const DIGEST_ROUNDS: u64 = 16;

/// The benchmark's rank programs, by name. Supervisor and workers build
/// the same table.
pub fn registry() -> ProgramRegistry {
    ProgramRegistry::new().register(PROGRAM, exchange_program)
}

/// If this process was spawned as a rank of a sockets or TCP world, run
/// the rank program and exit; otherwise return `false`. Call first thing
/// in `main` of any executable named as [`RunCfg::worker`].
pub fn maybe_run_rank_process() -> bool {
    comm::maybe_run_socket_child(&registry())
}

/// What a rank is asked to do. Travels as the program's argument bytes.
#[derive(Clone, Copy, Debug)]
struct Plan {
    seed: u64,
    patches: u64,
    allreduces: u64,
    /// Run until this many milliseconds have passed (0: rounds only)…
    budget_ms: u64,
    /// …and at least this many rounds.
    min_rounds: u64,
    trace: bool,
}

type PlanWire = (u64, u64, u64, u64, u64, bool);

impl Plan {
    fn to_bytes(self) -> Vec<u8> {
        let wire: PlanWire = (
            self.seed,
            self.patches,
            self.allreduces,
            self.budget_ms,
            self.min_rounds,
            self.trace,
        );
        wire.to_wire()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, CommError> {
        let (seed, patches, allreduces, budget_ms, min_rounds, trace) = PlanWire::from_wire(bytes)
            .map_err(|e| CommError::Frame {
                detail: format!("{PROGRAM} arguments: {e}"),
            })?;
        Ok(Plan {
            seed,
            patches,
            allreduces,
            budget_ms,
            min_rounds,
            trace,
        })
    }
}

/// Library counters (traced runs only; zero otherwise). Messages, bytes
/// and collectives are counted over the first [`DIGEST_ROUNDS`] rounds,
/// so they repeat exactly; the link counters cover the whole world and
/// are read through `aggregate_metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct WorldCounters {
    /// Summed over ranks.
    msgs_sent: u64,
    bytes_sent: u64,
    /// Collectives one rank issued.
    collectives: u64,
    reconnects: u64,
    link_errors: u64,
    lib_spans: u64,
    lib_spans_dropped: u64,
}

type CountersWire = (u64, u64, u64, u64, u64, (u64, u64));
type SpanWire = (String, u64, u64, u64, u32);
type RankWire = (
    (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>),
    Vec<String>,
    (u64, f64),
    CountersWire,
    Vec<SpanWire>,
);

/// What one rank brings back.
#[derive(Debug, Default)]
struct RankOut {
    alltoallv_s: Vec<f64>,
    /// Median `allreduce_sum` of each round.
    allreduce_s: Vec<f64>,
    allgather_s: Vec<f64>,
    round_s: Vec<f64>,
    failures: Vec<String>,
    /// Wrapping sum of everything received in the first
    /// [`DIGEST_ROUNDS`] rounds: equal on every backend.
    digest: u64,
    peak_rss_mb: f64,
    counters: WorldCounters,
    spans: Vec<SpanRec>,
}

impl RankOut {
    fn to_bytes(&self) -> Vec<u8> {
        let c = &self.counters;
        let wire: RankWire = (
            (
                self.alltoallv_s.clone(),
                self.allreduce_s.clone(),
                self.allgather_s.clone(),
                self.round_s.clone(),
            ),
            self.failures.clone(),
            (self.digest, self.peak_rss_mb),
            (
                c.msgs_sent,
                c.bytes_sent,
                c.collectives,
                c.reconnects,
                c.link_errors,
                (c.lib_spans, c.lib_spans_dropped),
            ),
            self.spans
                .iter()
                .map(|s| {
                    let parent = s.parent.map_or(0, |p| p as u64 + 1);
                    (s.name.to_string(), s.start_ns, s.end_ns, parent, s.rep)
                })
                .collect(),
        );
        wire.to_wire()
    }

    fn from_bytes(rank: usize, bytes: &[u8]) -> Result<Self, String> {
        let (times, failures, (digest, peak_rss_mb), c, spans) =
            RankWire::from_wire(bytes).map_err(|e| format!("rank {rank} result: {e}"))?;
        Ok(RankOut {
            alltoallv_s: times.0,
            allreduce_s: times.1,
            allgather_s: times.2,
            round_s: times.3,
            failures,
            digest,
            peak_rss_mb,
            counters: WorldCounters {
                msgs_sent: c.0,
                bytes_sent: c.1,
                collectives: c.2,
                reconnects: c.3,
                link_errors: c.4,
                lib_spans: c.5 .0,
                lib_spans_dropped: c.5 .1,
            },
            spans: spans
                .into_iter()
                .map(|(name, start_ns, end_ns, parent, rep)| SpanRec {
                    name: telemetry::intern_name(&name),
                    start_ns,
                    end_ns,
                    parent: parent.checked_sub(1).map(|p| p as u32),
                    rank: rank as u32,
                    rep,
                })
                .collect(),
        })
    }
}

/// Cell value of patch `idx` sent by `src` in `round`: an integer, so
/// sums of it are exact in `f64`.
fn cell_value(seed: u64, round: u64, src: u64, idx: u64) -> f64 {
    ((seed % 1000) + round * 7 + src * 3 + idx) as f64
}

/// The rank program: rounds of alltoallv + allreduces + allgather.
fn exchange_program(comm: &Comm, ctx: &ProgramCtx) -> Result<Vec<u8>, CommError> {
    let plan = Plan::from_bytes(&ctx.args)?;
    let (rank, size) = (comm.rank() as u64, comm.size() as u64);
    let mut o = RankOut::default();
    if plan.trace {
        telemetry::begin_rank(comm.rank());
    }
    comm.try_barrier()?;
    let epoch = Instant::now();
    let mut log = SpanLog::new(plan.trace, comm.rank(), epoch);
    let budget = Duration::from_millis(plan.budget_ms);
    let min_rounds = plan.min_rounds.max(DIGEST_ROUNDS);

    // counter readings at the start of round 0 and of round
    // DIGEST_ROUNDS: the window over which the exact counts are taken
    let mut marks: Vec<[u64; 3]> = Vec::new();
    let read_counters = || {
        let snap = telemetry::rank_snapshot();
        ["comm.msgs_sent", "comm.bytes_sent", "comm.collectives"].map(|name| {
            snap.get(name, MetricKind::Counter)
                .map_or(0, |e| e.scalar())
        })
    };
    let mut round = 0u64;
    loop {
        if plan.trace && (round == 0 || round == DIGEST_ROUNDS) {
            marks.push(read_counters());
        }
        // rank 0 decides for everyone; with no budget the round count
        // alone decides and no message is needed
        let stop_now = done(epoch, budget, round as usize, min_rounds as usize);
        if plan.budget_ms == 0 {
            if stop_now {
                break;
            }
        } else if comm.try_allreduce_sum((rank == 0 && stop_now) as u64)? > 0 {
            break;
        }
        log.set_rep(round as u32);
        let outgoing: Vec<Vec<Patch>> = (0..size)
            .map(|dest| {
                let n = if dest == rank { 0 } else { plan.patches };
                (0..n)
                    .map(|idx| Patch::constant(cell_value(plan.seed, round, rank, idx)))
                    .collect()
            })
            .collect();
        // start the round together, so the alltoallv is not charged
        // with the peer's buffer building
        comm.try_barrier()?;
        let t_round = Instant::now();
        log.span("bench.round", |log| -> Result<(), CommError> {
            let t = Instant::now();
            let incoming = log.span("comm.alltoallv", |_| comm.try_alltoallv(outgoing))?;
            o.alltoallv_s.push(t.elapsed().as_secs_f64());

            log.span("bench.verify", |_| {
                for (src, patches) in incoming.iter().enumerate() {
                    let n = if src as u64 == rank { 0 } else { plan.patches };
                    let got: f64 = patches.iter().flat_map(|p| p.cells.iter()).sum();
                    // Σ_idx (base + idx) per cell, PATCH_CELLS cells per patch
                    let base = cell_value(plan.seed, round, src as u64, 0);
                    let want =
                        PATCH_CELLS as f64 * (n as f64 * base + (n * n.saturating_sub(1) / 2) as f64);
                    if patches.len() as u64 != n || got != want {
                        o.failures.push(format!(
                            "round {round}: {} patches from rank {src} sum to {got}, expected {n} summing to {want}",
                            patches.len()
                        ));
                    }
                    if round < DIGEST_ROUNDS {
                        o.digest = o.digest.wrapping_add(got.to_bits());
                    }
                }
            });

            let mut reduce_s = Vec::with_capacity(plan.allreduces as usize);
            for k in 0..plan.allreduces {
                let t = Instant::now();
                let got = log.span("comm.allreduce", |_| comm.try_allreduce_sum(round + k + rank))?;
                reduce_s.push(t.elapsed().as_secs_f64());
                let want = size * (round + k) + size * (size - 1) / 2;
                if got != want {
                    o.failures
                        .push(format!("round {round}: allreduce {k} gave {got}, expected {want}"));
                }
            }
            if !reduce_s.is_empty() {
                o.allreduce_s.push(median(&reduce_s));
            }

            let t = Instant::now();
            let got = log.span("comm.allgather", |_| comm.try_allgather((rank, round)))?;
            o.allgather_s.push(t.elapsed().as_secs_f64());
            let want: Vec<(u64, u64)> = (0..size).map(|r| (r, round)).collect();
            if got != want {
                o.failures.push(format!("round {round}: allgather gave {got:?}"));
            }
            Ok(())
        })?;
        o.round_s.push(t_round.elapsed().as_secs_f64());
        round += 1;
    }

    if plan.trace {
        let rows = comm.try_aggregate_metrics()?;
        let total = |name: &str| {
            rows.iter()
                .find(|r| r.name == name && r.kind == MetricKind::Counter)
                .map_or(0, |r| r.total)
        };
        let [msgs, bytes, collectives] = [0, 1, 2].map(|i| marks[1][i] - marks[0][i]);
        let report = telemetry::finish_rank().expect("recorder installed above");
        o.counters = WorldCounters {
            msgs_sent: comm.try_allreduce_sum(msgs)?,
            bytes_sent: comm.try_allreduce_sum(bytes)?,
            collectives,
            reconnects: total("transport.reconnects") + total("comm.tcp.child_reconnects"),
            link_errors: total("comm.tcp.link_errors") + total("comm.tcp.seq_gaps"),
            lib_spans: report.spans.len() as u64,
            lib_spans_dropped: report.dropped_spans,
        };
    }
    o.peak_rss_mb = peak_rss_mb();
    o.spans = log.into_spans();
    Ok(o.to_bytes())
}

/// Run one world of `p` ranks on `backend`; returns the ranks' results
/// and the wall time of the whole world (spawn, connect, run, teardown).
fn world(backend: &Backend, p: usize, plan: Plan) -> Result<(Vec<RankOut>, f64), String> {
    let t0 = Instant::now();
    let bytes = comm::try_run_program(
        backend,
        p,
        &RunOptions::default(),
        &registry(),
        PROGRAM,
        &plan.to_bytes(),
        Attempt::first(),
    )
    .map_err(|e| format!("{} world failed: {e}", backend.name()))?;
    let wall = t0.elapsed().as_secs_f64();
    let ranks = bytes
        .iter()
        .enumerate()
        .map(|(rank, b)| RankOut::from_bytes(rank, b))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((ranks, wall))
}

/// Count the world's rounds into `out`; a world that failed as a whole
/// counts as one failed operation.
fn check_world(
    out: &mut Outcome,
    what: &str,
    result: Result<(Vec<RankOut>, f64), String>,
) -> Option<(Vec<RankOut>, f64)> {
    match result {
        Err(e) => {
            out.op(false, || format!("{what}: {e}"));
            None
        }
        Ok((ranks, wall)) => {
            out.attempted += ranks[0].round_s.len() as u64;
            for (r, rank) in ranks.iter().enumerate() {
                for f in &rank.failures {
                    out.fail(|| format!("{what} rank {r}: {f}"));
                }
            }
            Some((ranks, wall))
        }
    }
}

/// One number for what the whole world received in the digest rounds.
fn world_digest(ranks: &[RankOut]) -> u64 {
    ranks.iter().fold(0, |a, r| a.wrapping_add(r.digest))
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let size = &cfg.size;
    let sockets = Backend::Sockets(SocketOptions::new(cfg.worker.clone()));
    let plan = Plan {
        seed: cfg.seed,
        patches: size.comm_patches as u64,
        allreduces: size.comm_allreduces as u64,
        budget_ms: 0,
        min_rounds: DIGEST_ROUNDS,
        trace: false,
    };
    let budgeted = |share: f64, trace: bool| Plan {
        budget_ms: (cfg.seconds * share * 1e3).max(1.0) as u64,
        min_rounds: size.min_ops as u64,
        trace,
        ..plan
    };
    // payload one rank sends per round: the alltoallv buffer, the
    // allreduce operands and its allgather entry
    let round_bytes = (size.comm_patches * PATCH_WIRE_BYTES + size.comm_allreduces * 8 + 16) as f64;

    // set-up is a whole world that runs the digest rounds: spawn the rank
    // processes, connect, warm the path, tear down
    let (warm, setup_s) = timed_setup(size.setup_reps, || world(&sockets, 2, plan));
    let Some((warm, warm_wall)) = check_world(&mut out, "warm-up", warm) else {
        return out;
    };
    let want_digest = world_digest(&warm);

    if !cfg.traced {
        if let Some((ranks, _)) = check_world(
            &mut out,
            "sockets",
            world(&sockets, 2, budgeted(1.0, false)),
        ) {
            out.op(world_digest(&ranks) == want_digest, || {
                "sockets: received payload differs from the warm-up world's".into()
            });
            let rates: Vec<f64> = slowest_rank(&ranks, |r| &r.round_s)
                .iter()
                .map(|round| round_bytes / round)
                .collect();
            out.set_speed(&rates, &slowest_rank(&ranks, |r| &r.alltoallv_s));
            let rss = ranks
                .iter()
                .map(|r| r.peak_rss_mb)
                .fold(peak_rss_mb(), f64::max);
            out.set("peak_rss_mb", rss);
            out.set("setup_s", setup_s);
        }
        return out;
    }

    // traced run: sockets untraced and traced for a third of the budget
    // each, then the digest rounds on TCP and on threads
    let plain = check_world(
        &mut out,
        "sockets",
        world(&sockets, 2, budgeted(1.0 / 3.0, false)),
    );
    let traced = check_world(
        &mut out,
        "sockets traced",
        world(&sockets, 2, budgeted(1.0 / 3.0, true)),
    );
    let tcp_backend = Backend::Tcp(TcpOptions::new(cfg.worker.clone()));
    let tcp = check_world(&mut out, "tcp", world(&tcp_backend, 2, plan));
    let threads = check_world(&mut out, "threads", world(&Backend::Threads, 2, plan));

    let stats = |ranks: &[RankOut]| {
        (
            median(&slowest_rank(ranks, |r| &r.alltoallv_s)) * 1e3,
            median(&slowest_rank(ranks, |r| &r.allreduce_s)) * 1e6,
            median(&slowest_rank(ranks, |r| &r.allgather_s)) * 1e6,
        )
    };
    for (name, world) in [("sockets", &traced), ("tcp", &tcp), ("threads", &threads)] {
        let Some((ranks, wall)) = world else { continue };
        out.op(world_digest(ranks) == want_digest, || {
            format!("{name}: received payload differs from the sockets world's")
        });
        let (a2a_ms, reduce_us, gather_us) = stats(ranks);
        out.set(&format!("comm.alltoallv_ms_p50.{name}"), a2a_ms);
        out.set(&format!("comm.allreduce_us_p50.{name}"), reduce_us);
        out.set(&format!("comm.allgather_us_p50.{name}"), gather_us);
        if name == "tcp" {
            // a whole world minus its rounds: spawn, connect, teardown
            let rounds: f64 = slowest_rank(ranks, |r| &r.round_s).iter().sum();
            out.set("comm.spawn_s.tcp", (wall - rounds).max(0.0));
        }
    }
    let warm_rounds: f64 = slowest_rank(&warm, |r| &r.round_s).iter().sum();
    out.set("comm.spawn_s.sockets", (warm_wall - warm_rounds).max(0.0));

    if let (Some((plain, _)), Some((traced, _))) = (&plain, &traced) {
        let c = traced[0].counters;
        out.set("comm.msgs_sent", c.msgs_sent as f64);
        out.set("comm.bytes_sent", c.bytes_sent as f64);
        out.set("comm.collectives", c.collectives as f64);
        let payload = DIGEST_ROUNDS as usize * 2 * size.comm_patches * PATCH_WIRE_BYTES;
        out.set(
            "comm.wire_overhead_ratio",
            c.bytes_sent as f64 / payload as f64,
        );
        out.set("comm.reconnects", c.reconnects as f64);
        out.set("comm.link_errors", c.link_errors as f64);
        out.set_tracing_overhead(
            &slowest_rank(plain, |r| &r.alltoallv_s),
            &slowest_rank(traced, |r| &r.alltoallv_s),
        );
        out.set(
            "telemetry.spans_recorded",
            traced.iter().map(|r| r.counters.lib_spans).sum::<u64>() as f64,
        );
        out.set(
            "telemetry.spans_dropped",
            traced
                .iter()
                .map(|r| r.counters.lib_spans_dropped)
                .sum::<u64>() as f64,
        );
    }

    // the stages of one alltoallv buffer, called directly
    let buffer: Vec<Patch> = (0..size.comm_patches as u64)
        .map(|idx| Patch::constant(cell_value(cfg.seed, 0, 0, idx)))
        .collect();
    let mb = (buffer.len() * PATCH_WIRE_BYTES) as f64 / 1e6;
    let time = |f: &mut dyn FnMut()| {
        let times: Vec<f64> = (0..20)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&times)
    };
    let mut bytes = Vec::new();
    out.set(
        "core.wire.patch_encode_mb_per_s",
        mb / time(&mut || bytes = std::hint::black_box(&buffer).to_wire()),
    );
    let mut round_trip_ok = true;
    out.set(
        "core.wire.patch_decode_mb_per_s",
        mb / time(&mut || {
            round_trip_ok &=
                Vec::<Patch>::from_wire(std::hint::black_box(&bytes)).is_ok_and(|v| v == buffer)
        }),
    );
    out.op(round_trip_ok, || {
        "Wire round trip of the patch buffer differs".into()
    });
    out.set(
        "core.crc32_mb_per_s",
        mb / time(&mut || {
            std::hint::black_box(quadforest_core::crc::crc32(std::hint::black_box(&bytes)));
        }),
    );

    if let Some((traced, _)) = traced {
        out.spans = spans::merge(traced.into_iter().map(|r| r.spans).collect());
    }
    out
}
