//! The five workloads and what they share: sizes, the seeded generator,
//! the outcome record and the set-up timer.

pub mod advect;
pub mod amr;
pub mod comm;
pub mod kernels;
pub mod query;

use crate::spans::SpanRec;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Input sizes. The benchmark always runs [`Size::full`]; the smoke
/// tests run the same code at [`Size::smoke`], about 1/16 of it.
#[derive(Clone, Debug)]
pub struct Size {
    /// `kernels_paper`: the complete tree of levels `0..=max`.
    pub kernels_max_level: u8,
    /// `kernels_paper`: octants handed to `linearize`.
    pub linearize_len: usize,
    /// `amr_shell`, `query_serve`: uniform start level and shell depth.
    pub shell_base_level: u8,
    pub shell_max_level: u8,
    /// `advect_amr`: uniform start level and finest level.
    pub advect_base_level: u8,
    pub advect_max_level: u8,
    /// `advect_amr`: cycles (4 steps + adapt + migrate) over which the
    /// exact counts and the P=1 comparison are taken.
    pub advect_count_cycles: usize,
    /// `query_serve`: points per batch, boxes per batch, distinct batches.
    pub query_points: usize,
    pub query_boxes: usize,
    pub query_pool: usize,
    /// `query_serve`: the largest batch of the batch-size sweep.
    pub query_big_batch: usize,
    /// `comm_exchange`: `Patch` values per peer per round, and
    /// `allreduce_sum` calls per round.
    pub comm_patches: usize,
    pub comm_allreduces: usize,
    /// Every timed loop runs at least this many operations, whatever
    /// `--seconds` says.
    pub min_ops: usize,
    /// Set-up is run this many times and its median reported.
    pub setup_reps: usize,
}

impl Size {
    pub fn full() -> Self {
        Size {
            kernels_max_level: 7,
            linearize_len: 1 << 20,
            shell_base_level: 4,
            shell_max_level: 8,
            advect_base_level: 6,
            advect_max_level: 9,
            advect_count_cycles: 10,
            query_points: 4096,
            query_boxes: 16,
            query_pool: 64,
            query_big_batch: 1 << 18,
            comm_patches: 2000,
            comm_allreduces: 64,
            min_ops: 5,
            setup_reps: 3,
        }
    }

    pub fn smoke() -> Self {
        Size {
            kernels_max_level: 5,
            linearize_len: 1 << 14,
            shell_base_level: 3,
            shell_max_level: 6,
            advect_base_level: 4,
            advect_max_level: 6,
            advect_count_cycles: 2,
            query_points: 256,
            query_boxes: 4,
            query_pool: 8,
            query_big_batch: 1 << 12,
            comm_patches: 125,
            comm_allreduces: 4,
            min_ops: 2,
            setup_reps: 2,
        }
    }
}

/// Everything one run of one workload is told.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    pub traced: bool,
    /// Executable that rank processes are spawned from; it must call
    /// [`comm::maybe_run_rank_process`] first thing in `main`.
    pub worker: PathBuf,
    /// Directory for trace files and scratch files.
    pub out_dir: PathBuf,
    pub size: Size,
}

impl RunCfg {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (sweeps, reps, cycles, batches, rounds) run.
    pub attempted: u64,
    /// Operations whose correctness check failed or that errored.
    pub failed: u64,
    /// The first few failure messages, for the human reading stderr.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// The benchmark's own spans (traced run only).
    pub spans: Vec<SpanRec>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// The two speed metrics from the run's samples: `rates` in items
    /// per second, one per composite operation; `latencies` in seconds,
    /// one per primary call. The end-to-end values are the fast decile of
    /// each (see `spec::END_TO_END` for why); the rest of the
    /// distributions goes out as `diag.*` lines for the human reader.
    pub fn set_speed(&mut self, rates: &[f64], latencies: &[f64]) {
        use crate::stats::percentile;
        self.set("throughput_p90", percentile(rates, 0.9) / 1e6);
        self.set("op_ms_p10", percentile(latencies, 0.1) * 1e3);
        for (name, q) in [("min", 0.0), ("p50", 0.5), ("p90", 0.9), ("max", 1.0)] {
            self.set(
                &format!("diag.op_ms_{name}"),
                percentile(latencies, q) * 1e3,
            );
            self.set(
                &format!("diag.throughput_{name}"),
                percentile(rates, q) / 1e6,
            );
        }
        self.set("diag.op_samples", latencies.len() as f64);
        self.set("diag.throughput_samples", rates.len() as f64);
    }

    /// `telemetry.enabled_overhead_pct`: the operation's latency with the
    /// benchmark's spans and the library's telemetry on, against the same
    /// loop with both off — at the fast decile, like the end-to-end
    /// latency, since the two loops run one after the other and the
    /// machine's state drifts between them.
    pub fn set_tracing_overhead(&mut self, plain: &[f64], traced: &[f64]) {
        use crate::stats::percentile;
        let ratio = percentile(traced, 0.1) / percentile(plain, 0.1);
        self.set("telemetry.enabled_overhead_pct", (ratio - 1.0) * 100.0);
    }

    /// Count one attempted operation; `ok == false` counts it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }
}

/// splitmix64: the generator every workload derives its inputs from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Run `setup` `reps` times; return the last result and the median
/// set-up time in seconds. Earlier results are dropped before the next
/// set-up starts, so peak memory is that of one set-up.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        crate::stats::median(&times),
    )
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `true` once `budget` has passed since `t0` and at least `min_ops`
/// operations ran.
pub fn done(t0: Instant, budget: Duration, ops: usize, min_ops: usize) -> bool {
    ops >= min_ops && t0.elapsed() >= budget
}

/// How long a world of thread ranks keeps repeating its operation.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// Exactly this many operations.
    Ops(usize),
    /// Until the budget is spent, but at least this many operations.
    Budget(Duration, usize),
}

impl Stop {
    /// Collective: should every rank stop after `ops` operations? Rank 0
    /// looks at its clock and decides for everyone, so the ranks leave
    /// the loop together.
    pub fn reached(self, comm: &quadforest_comm::Comm, t0: Instant, ops: usize) -> bool {
        let stop_now = match self {
            Stop::Ops(n) => ops >= n,
            Stop::Budget(budget, min) => done(t0, budget, ops, min),
        };
        comm.allreduce_sum((comm.rank() == 0 && stop_now) as u64) > 0
    }
}

/// Per-sample maximum over ranks of the series `f` picks from each
/// rank: the rank the others wait for. Ranks run the same loop, so the
/// series have one length; the shortest decides if they ever do not.
pub fn slowest_rank<R>(ranks: &[R], f: impl Fn(&R) -> &[f64]) -> Vec<f64> {
    let n = ranks.iter().map(|r| f(r).len()).min().unwrap_or(0);
    (0..n)
        .map(|i| ranks.iter().map(|r| f(r)[i]).fold(0.0, f64::max))
        .collect()
}

/// Run the named workload.
pub fn run(name: &str, cfg: &RunCfg) -> Option<Outcome> {
    Some(match name {
        "kernels_paper" => kernels::run(cfg),
        "amr_shell" => amr::run(cfg),
        "advect_amr" => advect::run(cfg),
        "query_serve" => query::run(cfg),
        "comm_exchange" => comm::run(cfg),
        _ => return None,
    })
}
