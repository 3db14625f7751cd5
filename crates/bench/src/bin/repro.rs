//! `repro` — regenerate the paper's evaluation tables on this machine.
//!
//! ```text
//! repro --all                 # figures 2-7 + memory + autovec + chaos
//! repro --fig 4               # one figure
//! repro --mem --level 8       # Section 3.2 memory experiment
//! repro --autovec             # contribution 5 + ablations A1-A3
//! repro --dim2                # the kernels on a 2D quadtree workload
//! repro --chaos               # fault-injected forest pipeline
//! repro --chaos --backend sockets   # every rank a real OS process
//! repro --floor               # the socket message path against its floor
//! repro --trace trace.json    # traced 4-rank pipeline (Chrome trace)
//! repro --iters 5 --ranks 1,4,64,512
//! ```
//!
//! Output is a set of markdown tables (paper-style), suitable for
//! pasting into EXPERIMENTS.md. Everything measured above the kernels —
//! batch kernels, linearize, the composed forest pipeline, query serving,
//! the solver loop, checkpoints — belongs to the one benchmark in
//! `benchmark/` (see `/BENCHMARK.json` for the metric names).

use quadforest_bench::*;
use quadforest_core::batch;
use quadforest_core::quadrant::{AvxQuad, MortonQuad, Quadrant, StandardQuad};
use quadforest_core::scalar_ref::{self, QuadSoA};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Counting allocator (the VTune substitute for Section 3.2)
// ---------------------------------------------------------------------------

struct Counting;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn peak_delta(base: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(base)
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Opts {
    figures: Vec<u32>,
    mem: bool,
    mem_level: u8,
    autovec: bool,
    dim2: bool,
    chaos: bool,
    floor: bool,
    trace: Option<String>,
    iters: usize,
    ranks: Vec<usize>,
    backend: quadforest_comm::Backend,
}

const USAGE: &str = "\
usage: repro [MODE]... [OPTION]...    (no mode: --all --dim2)
modes:
  --all            figures 2-7, --mem, --autovec and --chaos
  --fig N          one strong-scaling figure of the paper, N in 2..=7
  --mem            Section 3.2 memory experiment
  --autovec        Contribution 5: manual AVX2 vs auto-vectorization, ablations A1-A3
  --dim2           the kernels on a 2D quadtree workload
  --chaos          forest pipeline under seeded fault injection
  --floor          1 MB frames: direct and relayed socket pairs vs the sockets alltoallv
  --trace FILE     traced 4-rank pipeline; Chrome trace written to FILE
options:
  --level L        uniform octree level of --mem (default 8)
  --iters N        timed repetitions per point, N >= 1 (default 3)
  --ranks A,B,..   simulated rank counts, each >= 1 (default 1,2,4,..,512)
  --backend B      threads | sockets | tcp, the world --chaos runs on
  --help           print this message";

/// Every rejected command line ends here: one reason line, the usage
/// text, exit code 2.
fn usage_error(reason: &str) -> ! {
    eprintln!("repro: {reason}\n{USAGE}");
    std::process::exit(2);
}

fn parse_value<T: std::str::FromStr>(flag: &str, text: &str, what: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} {text}: expected {what}")))
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        figures: Vec::new(),
        mem: false,
        mem_level: 8,
        autovec: false,
        dim2: false,
        chaos: false,
        floor: false,
        trace: None,
        iters: 3,
        ranks: RANKS.to_vec(),
        backend: quadforest_comm::Backend::Threads,
    };
    // what `--all` selects; no mode at all means `--all --dim2`
    let select_all = |opts: &mut Opts| {
        opts.figures = vec![2, 3, 4, 5, 6, 7];
        opts.mem = true;
        opts.autovec = true;
        opts.chaos = true;
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--all" => select_all(&mut opts),
            "--fig" => {
                let fig = parse_value(&flag, &value(), "a figure number");
                if !(2..=7).contains(&fig) {
                    usage_error(&format!(
                        "--fig {fig}: no such figure (the paper has 2..=7)"
                    ));
                }
                opts.figures.push(fig);
            }
            "--mem" => opts.mem = true,
            "--autovec" => opts.autovec = true,
            "--dim2" => opts.dim2 = true,
            "--chaos" => opts.chaos = true,
            "--floor" => opts.floor = true,
            "--trace" => opts.trace = Some(value()),
            "--level" => opts.mem_level = parse_value(&flag, &value(), "an octree level"),
            "--iters" => {
                opts.iters = parse_value(&flag, &value(), "a repetition count");
                if opts.iters == 0 {
                    usage_error("--iters 0: at least one timed repetition is needed");
                }
            }
            "--ranks" => {
                opts.ranks = value()
                    .split(',')
                    .map(|s| parse_value(&flag, s, "rank counts like 1,8,64"))
                    .collect();
                if opts.ranks.contains(&0) {
                    usage_error("--ranks 0: a rank count must be at least 1");
                }
            }
            "--backend" => {
                let me = || std::env::current_exe().expect("current_exe names the rank worker");
                opts.backend = match value().as_str() {
                    "threads" => quadforest_comm::Backend::Threads,
                    "sockets" => {
                        quadforest_comm::Backend::Sockets(quadforest_comm::SocketOptions::new(me()))
                    }
                    "tcp" => quadforest_comm::Backend::Tcp(quadforest_comm::TcpOptions::new(me())),
                    other => usage_error(&format!(
                        "--backend {other}: expected threads, sockets or tcp"
                    )),
                };
            }
            "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    let no_mode = opts.figures.is_empty()
        && !(opts.mem || opts.autovec || opts.dim2 || opts.chaos || opts.floor)
        && opts.trace.is_none();
    if no_mode {
        select_all(&mut opts);
        opts.dim2 = true;
    }
    opts
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// Figures 2-7
// ---------------------------------------------------------------------------

/// Run one kernel for one representation over the rank sweep; returns
/// (per-P critical path, best single-rank time).
fn sweep<T: Clone, F: FnMut(&[T]) -> u64 + Copy>(
    data: &[T],
    ranks: &[usize],
    iters: usize,
    kernel: F,
) -> (Vec<Duration>, Duration) {
    // warmup
    let mut k = kernel;
    let _ = k(data);
    let series = ranks
        .iter()
        .map(|&p| {
            let mut best = Duration::MAX;
            for _ in 0..iters {
                let pt = strong_scale(data, p, kernel);
                best = best.min(pt.critical_path);
            }
            best
        })
        .collect::<Vec<_>>();
    // the single-rank reference for the speedup summary is the P = 1
    // sweep point when present (keeps table and summary consistent on a
    // noisy shared core), else a dedicated full-array measurement
    let single = match ranks.iter().position(|&p| p == 1) {
        Some(i) => series[i],
        None => time_best(data, iters, kernel),
    };
    (series, single)
}

struct FigureResult {
    name: &'static str,
    algorithms: &'static str,
    /// rows: (repr name, per-P series, single-rank best)
    rows: Vec<(&'static str, Vec<Duration>, Duration)>,
}

impl FigureResult {
    fn print(&self, ranks: &[usize]) {
        println!("\n## {} ({})", self.name, self.algorithms);
        print!("| P |");
        for (name, _, _) in &self.rows {
            print!(" {name} (ms) |");
        }
        println!();
        print!("|---|");
        for _ in &self.rows {
            print!("---|");
        }
        println!();
        for (i, p) in ranks.iter().enumerate() {
            print!("| {p} |");
            for (_, series, _) in &self.rows {
                print!(" {:.3} |", ms(series[i]));
            }
            println!();
        }
        let base = self.rows[0].2;
        print!("speedup vs {}:", self.rows[0].0);
        for (name, _, single) in self.rows.iter().skip(1) {
            print!(" {name} {:+.0}%", speedup_percent(base, *single));
        }
        println!();
    }
}

macro_rules! figure_quads {
    ($name:literal, $alg:literal, $kernel:ident, $filter:expr, $opts:expr) => {{
        let mut rows = Vec::new();
        {
            let data = $filter(paper_workload::<StandardQuad<3>>());
            let (s, b) = sweep(&data, &$opts.ranks, $opts.iters, |d| $kernel(d));
            rows.push(("standard", s, b));
        }
        {
            let data = $filter(paper_workload::<MortonQuad<3>>());
            let (s, b) = sweep(&data, &$opts.ranks, $opts.iters, |d| $kernel(d));
            rows.push(("morton", s, b));
        }
        {
            let data = $filter(paper_workload::<AvxQuad<3>>());
            let (s, b) = sweep(&data, &$opts.ranks, $opts.iters, |d| $kernel(d));
            rows.push(("avx", s, b));
        }
        FigureResult {
            name: $name,
            algorithms: $alg,
            rows,
        }
        .print(&$opts.ranks);
    }};
}

fn run_figure(fig: u32, opts: &Opts) {
    match fig {
        2 => {
            let inputs = paper_morton_inputs(3);
            let mut rows = Vec::new();
            let (s, b) = sweep(&inputs, &opts.ranks, opts.iters, |d| {
                kernel_morton::<StandardQuad<3>>(d)
            });
            rows.push(("standard", s, b));
            let (s, b) = sweep(&inputs, &opts.ranks, opts.iters, |d| {
                kernel_morton::<MortonQuad<3>>(d)
            });
            rows.push(("morton", s, b));
            let (s, b) = sweep(&inputs, &opts.ranks, opts.iters, |d| {
                kernel_morton::<AvxQuad<3>>(d)
            });
            rows.push(("avx", s, b));
            FigureResult {
                name: "Figure 2: Morton",
                algorithms: "Algorithms 1, 4, 11: construct quadrant from curve index",
                rows,
            }
            .print(&opts.ranks);
        }
        3 => figure_quads!(
            "Figure 3: Child",
            "Algorithms 2, 6, 9",
            kernel_child,
            |v| v,
            opts
        ),
        4 => figure_quads!(
            "Figure 4: FNeigh",
            "Algorithm 8",
            kernel_fneigh,
            |v| v,
            opts
        ),
        5 => figure_quads!(
            "Figure 5: Parent",
            "Algorithms 7, 10",
            kernel_parent,
            nonroot,
            opts
        ),
        6 => figure_quads!(
            "Figure 6: Sibling",
            "Algorithm 3",
            kernel_sibling,
            nonroot,
            opts
        ),
        7 => figure_quads!(
            "Figure 7: Tree_Boundaries",
            "Algorithm 12",
            kernel_boundaries,
            |v| v,
            opts
        ),
        other => unreachable!("parse_args admits figures 2..=7, got {other}"),
    }
}

// ---------------------------------------------------------------------------
// Section 3.2: memory
// ---------------------------------------------------------------------------

fn measure_mem<Q: Quadrant>(level: u8) -> (usize, usize) {
    reset_peak();
    let base = PEAK.load(Ordering::Relaxed);
    let v: Vec<Q> = workload::uniform_level::<Q>(level);
    let peak = peak_delta(base);
    let n = v.len();
    drop(v);
    (peak, n)
}

fn run_memory(level: u8) {
    println!("\n## Section 3.2: memory consumption (uniform octree, level {level})");
    println!("built by repeated calls to the Morton algorithm, as in the paper\n");
    println!("| representation | bytes/quad | total | ratio |");
    println!("|---|---|---|---|");
    let (std_peak, n) = measure_mem::<StandardQuad<3>>(level);
    let (avx_peak, _) = measure_mem::<AvxQuad<3>>(level);
    let (mor_peak, _) = measure_mem::<MortonQuad<3>>(level);
    let gib = |b: usize| b as f64 / (1024.0 * 1024.0 * 1024.0);
    for (name, peak, size) in [
        ("standard", std_peak, std::mem::size_of::<StandardQuad<3>>()),
        ("avx", avx_peak, std::mem::size_of::<AvxQuad<3>>()),
        ("morton", mor_peak, std::mem::size_of::<MortonQuad<3>>()),
    ] {
        println!(
            "| {name} | {size} | {:.3} GiB | {:.2} |",
            gib(peak),
            peak as f64 / mor_peak as f64
        );
    }
    println!("\nquadrants: {n}; paper reports 25.8 : 17.2 : 8.6 GB = 3 : 2 : 1 at level 10");
    assert_eq!(std::mem::size_of::<StandardQuad<3>>(), 24);
    assert_eq!(std::mem::size_of::<AvxQuad<3>>(), 16);
    assert_eq!(std::mem::size_of::<MortonQuad<3>>(), 8);
}

// ---------------------------------------------------------------------------
// Contribution 5: manual vs automatic vectorization
// ---------------------------------------------------------------------------

fn run_autovec(opts: &Opts) {
    const L: u8 = StandardQuad::<3>::MAX_LEVEL;
    let quads = nonroot(paper_workload::<StandardQuad<3>>());
    let soa = QuadSoA::from_quads(&quads);
    let mut out = QuadSoA::with_len(soa.len());
    let n = soa.len();
    println!("\n## Contribution 5: manual AVX2 vs compiler auto-vectorization");
    println!("SoA batch kernels over {n} octants (identical memory layout)\n");
    println!("| kernel | auto-vectorized (ms) | manual AVX2 256-bit (ms) | manual gain |");
    println!("|---|---|---|---|");

    let time = |f: &mut dyn FnMut()| {
        let mut best = Duration::MAX;
        for _ in 0..opts.iters.max(3) {
            let t = std::time::Instant::now();
            f();
            best = best.min(t.elapsed());
        }
        best
    };

    let rows: Vec<(&str, Duration, Duration)> = vec![
        (
            "child",
            time(&mut || scalar_ref::child_all(&soa, 5, L, &mut out)),
            time(&mut || batch::child_all(&soa, 5, L, &mut out)),
        ),
        (
            "parent",
            time(&mut || scalar_ref::parent_all(&soa, L, &mut out)),
            time(&mut || batch::parent_all(&soa, L, &mut out)),
        ),
        (
            "sibling",
            time(&mut || scalar_ref::sibling_all(&soa, 3, L, &mut out)),
            time(&mut || batch::sibling_all(&soa, 3, L, &mut out)),
        ),
        (
            "face_neighbor",
            time(&mut || scalar_ref::face_neighbor_all(&soa, 2, L, &mut out)),
            time(&mut || batch::face_neighbor_all(&soa, 2, L, &mut out)),
        ),
    ];
    for (name, auto, manual) in &rows {
        println!(
            "| {name} | {:.3} | {:.3} | {:+.0}% |",
            ms(*auto),
            ms(*manual),
            speedup_percent(*auto, *manual)
        );
    }
    {
        let (mut fx, mut fy, mut fz) = (vec![0; n], vec![0; n], vec![0; n]);
        let auto =
            time(&mut || scalar_ref::tree_boundaries_all(&soa, 3, L, [&mut fx, &mut fy, &mut fz]));
        let manual =
            time(&mut || batch::tree_boundaries_all(&soa, 3, L, [&mut fx, &mut fy, &mut fz]));
        println!(
            "| tree_boundaries | {:.3} | {:.3} | {:+.0}% |",
            ms(auto),
            ms(manual),
            speedup_percent(auto, manual)
        );
    }
    run_ablations(opts);
}

/// The design choices DESIGN.md §4 calls A1–A3, each as the alternative
/// against the production path over the same inputs.
fn run_ablations(opts: &Opts) {
    use quadforest_core::morton;
    use quadforest_core::quadrant::ablation;

    println!("\n## Ablations: the alternative against the production path");
    println!("(A1 runs `pdep`/`pext` only on a BMI2 tier; A3 is the paper's §2.3 claim)\n");
    println!("| ablation | alternative | (ms) | production | (ms) | production gain |");
    println!("|---|---|---|---|---|---|");
    let row = |name: &str, alt: (&str, Duration), prod: (&str, Duration)| {
        println!(
            "| {name} | {} | {:.3} | {} | {:.3} | {:+.0}% |",
            alt.0,
            ms(alt.1),
            prod.0,
            ms(prod.1),
            speedup_percent(alt.1, prod.1)
        );
    };

    // A1: 10^6 pseudo-random 18-bit coordinate triples
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let triples: Vec<(u32, u32, u32)> = (0..1_000_000)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let field = |shift: u32| (state >> shift) as u32 & 0x3_FFFF;
            (field(10), field(28), field(46))
        })
        .collect();
    let codes: Vec<u64> = triples
        .iter()
        .map(|&(x, y, z)| morton::encode3(x, y, z))
        .collect();
    let encode = |f: fn(u32, u32, u32) -> u64| {
        time_best(&triples, opts.iters, |d| {
            d.iter()
                .fold(0, |acc, &(x, y, z)| acc.wrapping_add(f(x, y, z)))
        })
    };
    let decode = |f: fn(u64) -> (u32, u32, u32)| {
        time_best(&codes, opts.iters, |d| {
            d.iter().fold(0, |acc, &m| {
                let (x, y, z) = f(m);
                acc.wrapping_add((x ^ y ^ z) as u64)
            })
        })
    };
    row(
        "A1 encode3",
        ("magic masks", encode(morton::encode3)),
        ("runtime tier (pdep)", encode(morton::encode3_rt)),
    );
    row(
        "A1 decode3",
        ("magic masks", decode(morton::decode3)),
        ("runtime tier (pext)", decode(morton::decode3_rt)),
    );

    // A2: SFC comparison of neighbouring workload octants
    let quads = paper_workload::<MortonQuad<3>>();
    let count_lt = |lt: fn(&MortonQuad<3>, &MortonQuad<3>) -> bool| {
        time_best(&quads, opts.iters, |d| {
            d.windows(2).filter(|w| lt(&w[0], &w[1])).count() as u64
        })
    };
    row(
        "A2 compare_sfc",
        (
            "decode and compare",
            count_lt(|a, b| (a.morton_abs(), a.level()) < (b.morton_abs(), b.level())),
        ),
        ("rotated key", count_lt(|a, b| a.compare_sfc(b).is_lt())),
    );

    // A3: the Fig. 2 kernel with all three coordinates in one 256-bit register
    let inputs = paper_morton_inputs(3);
    let mixed = time_best(&inputs, opts.iters, |d| {
        d.iter().fold(0, |acc, &(i, l)| {
            let q = ablation::from_morton3_mixed256(i, l);
            acc.wrapping_add(std::hint::black_box(&q).level() as u64)
        })
    });
    row(
        "A3 from_morton",
        ("mixed 256-bit", mixed),
        (
            "128-bit",
            time_best(&inputs, opts.iters, kernel_morton::<AvxQuad<3>>),
        ),
    );
}

// ---------------------------------------------------------------------------
// 2D extension table
// ---------------------------------------------------------------------------

fn run_dim2(opts: &Opts) {
    println!("\n## Extension: 2D kernels");
    println!("(no paper counterpart; the paper evaluates 3D only)\n");
    const L2: u8 = 9; // deeper than the 3D workload: 349,525 quadrants
    let n = workload::complete_tree_count(2, L2);
    println!("workload: {n} 2D quadrants (levels 0..={L2}), single rank\n");
    println!(
        "| kernel | standard | morton | avx | (ms, best of {}) |",
        opts.iters
    );
    println!("|---|---|---|---|---|");

    macro_rules! row {
        ($name:literal, $kernel:ident, $filter:expr) => {{
            let s = time_best(
                &$filter(workload::complete_tree::<StandardQuad<2>>(L2)),
                opts.iters,
                |d| $kernel(d),
            );
            let m = time_best(
                &$filter(workload::complete_tree::<MortonQuad<2>>(L2)),
                opts.iters,
                |d| $kernel(d),
            );
            let a = time_best(
                &$filter(workload::complete_tree::<AvxQuad<2>>(L2)),
                opts.iters,
                |d| $kernel(d),
            );
            println!(
                "| {} | {:.3} | {:.3} | {:.3} | |",
                $name,
                ms(s),
                ms(m),
                ms(a)
            );
        }};
    }

    {
        let inputs = workload::morton_inputs(2, L2);
        let s = time_best(&inputs, opts.iters, kernel_morton::<StandardQuad<2>>);
        let m = time_best(&inputs, opts.iters, kernel_morton::<MortonQuad<2>>);
        let a = time_best(&inputs, opts.iters, kernel_morton::<AvxQuad<2>>);
        println!(
            "| from_index | {:.3} | {:.3} | {:.3} | |",
            ms(s),
            ms(m),
            ms(a)
        );
    }
    row!("child", kernel_child, |v| v);
    row!("parent", kernel_parent, nonroot);
    row!("sibling", kernel_sibling, nonroot);
    row!("face_neighbor", kernel_fneigh, |v| v);
    row!("tree_boundaries", kernel_boundaries, |v| v);
}

// ---------------------------------------------------------------------------
// Chaos: the forest pipeline under deterministic fault injection
// ---------------------------------------------------------------------------

/// The deterministic fault seeds `--chaos` sweeps.
const CHAOS_SEEDS: [u64; 4] = [11, 22, 33, 44];

fn run_chaos(opts: &Opts) {
    use quadforest_bench::transport::{self, CHAOS_PIPELINE};
    use quadforest_comm::{try_run_program, Attempt, Backend, FaultPlan, RunOptions, WorldError};

    let backend = &opts.backend;
    let registry = transport::registry();
    println!(
        "\n## Chaos: refine→balance→partition→ghost under fault injection [{} backend]",
        backend.name()
    );
    println!("delivery delays + cross-stream reordering; a correct pipeline must be");
    println!("bit-identical to the fault-free run (seeded plans replay exactly)\n");

    let run_once = |p: usize,
                    faults: Option<FaultPlan>|
     -> Result<Vec<transport::PipelineDigest>, WorldError> {
        let run_opts = RunOptions {
            faults,
            ..RunOptions::default()
        };
        try_run_program(
            backend,
            p,
            &run_opts,
            &registry,
            CHAOS_PIPELINE,
            &[],
            Attempt { index: 0 },
        )
        .map(|vals| vals.iter().map(|b| transport::decode_digest(b)).collect())
    };

    println!("| P | fault seed | checksum | ghosts | matches fault-free | wall (ms) |");
    println!("|---|---|---|---|---|---|");
    let mut all_ok = true;
    for &p in &[1usize, 2, 4, 7] {
        let baseline = run_once(p, None).unwrap_or_else(|e| panic!("fault-free run failed: {e}"));
        for seed in CHAOS_SEEDS {
            let mut plan = FaultPlan::new(seed)
                .with_delays(0.2, Duration::from_micros(100))
                .with_reordering(0.25);
            // On TCP the chaos also attacks the wire itself: latency,
            // silent drops, bit corruption, and partial writes. The
            // session layer must retransmit/resync so the digest still
            // matches the fault-free run bit for bit.
            if matches!(backend, Backend::Tcp(_)) {
                plan = plan
                    .with_net_delays(0.05, Duration::from_micros(200))
                    .with_net_drops(0.02)
                    .with_net_corruption(0.02)
                    .with_net_partial_writes(0.1);
            }
            let t = std::time::Instant::now();
            let chaotic =
                run_once(p, Some(plan)).unwrap_or_else(|e| panic!("chaos run failed: {e}"));
            let wall = t.elapsed();
            let ok = chaotic == baseline;
            all_ok &= ok;
            println!(
                "| {p} | {seed} | {:#018x} | {} | {} | {:.3} |",
                chaotic[0].0,
                chaotic[0].1,
                if ok { "yes" } else { "NO" },
                ms(wall)
            );
        }
    }
    assert!(all_ok, "fault injection changed a pipeline result");

    // and a scheduled rank death: the world reports instead of hanging.
    // On the process-per-rank backends the death is a real SIGKILL of
    // the victim's process — detected and reported the same way.
    let plan = match backend {
        Backend::Threads => FaultPlan::new(1).with_panic_at(2, 9),
        Backend::Sockets(_) | Backend::Tcp(_) => FaultPlan::new(1).with_sigkill_at(2, 9),
    };
    match run_once(4, Some(plan)) {
        Ok(_) => println!("\nscheduled death did not fire (pipeline too short)"),
        Err(e) => println!(
            "\nscheduled rank death at P=4: origin rank {} — \"{}\" ({} collateral)",
            e.origin,
            e.reason,
            e.failures.len().saturating_sub(1)
        ),
    }
}

// ---------------------------------------------------------------------------
// --floor: the process message path against the socket floor
// ---------------------------------------------------------------------------

/// Timed rounds per `--floor` row, after as many untimed ones as warm-up
/// for the sockets world.
const FLOOR_ROUNDS: usize = 300;

/// Write one frame: a `u32` length, then the bytes.
fn floor_send(stream: &mut std::os::unix::net::UnixStream, frame: &[u8]) {
    use std::io::Write;
    stream
        .write_all(&(frame.len() as u32).to_le_bytes())
        .expect("write");
    stream.write_all(frame).expect("write");
}

/// Read one whole frame into `buf`, reusing its capacity.
fn floor_recv(stream: &mut std::os::unix::net::UnixStream, buf: &mut Vec<u8>) {
    use std::io::Read;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("read");
    buf.resize(u32::from_le_bytes(len) as usize, 0);
    stream.read_exact(buf).expect("read");
}

fn p50(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Where the time of one 1 MB message goes, as a floor each change can
/// restate the gap against: a frame there and back between two threads
/// over a `UnixStream` pair, the same through a relay that reads each
/// frame whole and writes it on from the reading thread (the
/// supervisor's shape), and the `Backend::Sockets` `alltoallv` of the
/// same payload between two rank processes (each rank sends and
/// receives 1 MB), with the minor page faults its slowest rank takes a
/// round.
fn run_floor() {
    use quadforest_comm::{try_run_program, Attempt, Backend, RunOptions, SocketOptions};
    use quadforest_core::Wire;
    use std::os::unix::net::UnixStream;
    const PATCHES: usize = 2000;
    let len = PATCHES * quadforest_pde::PATCH_WIRE_BYTES;
    println!("\n## The socket floor: {len}-byte messages, p50 of {FLOOR_ROUNDS} rounds\n");
    println!("| path | p50 (ms) | minor faults / round |");
    println!("|---|---|---|");

    // `a` sends a frame and waits for it to come back from `b`
    let there_and_back = |mut a: UnixStream, mut b: UnixStream| {
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut buf = Vec::new();
                for _ in 0..FLOOR_ROUNDS {
                    floor_recv(&mut b, &mut buf);
                    floor_send(&mut b, &buf);
                }
            });
            let (frame, mut back) = (vec![0xA5u8; len], Vec::new());
            let times = (0..FLOOR_ROUNDS).map(|_| {
                let t = std::time::Instant::now();
                floor_send(&mut a, &frame);
                floor_recv(&mut a, &mut back);
                ms(t.elapsed())
            });
            p50(times.collect())
        })
    };
    let pair = || UnixStream::pair().expect("socket pair");
    let (a, b) = pair();
    println!(
        "| UnixStream pair, direct, there and back | {:.3} | |",
        there_and_back(a, b)
    );
    let ((a, a_relay), (b, b_relay)) = (pair(), pair());
    let relayed = std::thread::scope(|s| {
        for (mut from, mut to) in [
            (
                a_relay.try_clone().expect("clone"),
                b_relay.try_clone().expect("clone"),
            ),
            (b_relay, a_relay),
        ] {
            s.spawn(move || {
                let mut buf = Vec::new();
                for _ in 0..FLOOR_ROUNDS {
                    floor_recv(&mut from, &mut buf);
                    floor_send(&mut to, &buf);
                }
            });
        }
        there_and_back(a, b)
    });
    println!("| UnixStream pair, relayed by the reading thread, there and back | {relayed:.3} | |");

    let me = std::env::current_exe().expect("current_exe names the rank worker");
    let ranks = try_run_program(
        &Backend::Sockets(SocketOptions::new(me)),
        2,
        &RunOptions::default(),
        &quadforest_bench::transport::registry(),
        "bulk-exchange",
        &(20u64, FLOOR_ROUNDS as u64, PATCHES as u64).to_wire(),
        Attempt::first(),
    )
    .unwrap_or_else(|e| panic!("sockets world failed: {e}"));
    let ranks: Vec<(u64, Vec<f64>)> = (ranks.iter())
        .map(|bytes| Wire::from_wire(bytes).expect("bulk-exchange result"))
        .collect();
    let slowest = (0..FLOOR_ROUNDS).map(|i| ranks.iter().map(|r| r.1[i]).fold(0.0, f64::max));
    let faults = ranks.iter().map(|r| r.0).max().unwrap_or(0) as f64 / FLOOR_ROUNDS as f64;
    println!(
        "| Backend::Sockets alltoallv, 2 rank processes | {:.3} | {faults:.1} |",
        p50(slowest.map(|s| s * 1e3).collect())
    );
}

// ---------------------------------------------------------------------------
// --trace: telemetry-instrumented pipeline with Chrome-trace export
// ---------------------------------------------------------------------------

/// Sum all `"dur"` values (µs with 3 decimals) out of a Chrome trace,
/// returned in nanoseconds — the machine-side half of the trace/table
/// agreement check.
fn sum_trace_dur_ns(json: &str) -> u64 {
    let mut total = 0f64;
    let mut rest = json;
    while let Some(i) = rest.find("\"dur\":") {
        rest = &rest[i + 6..];
        let end = rest.find(',').unwrap_or(rest.len());
        total += rest[..end].parse::<f64>().unwrap_or(0.0) * 1000.0;
    }
    total.round() as u64
}

/// Run the full refine→balance→partition→ghost pipeline at P = 4 with the
/// telemetry layer armed on every rank, write the Chrome trace to `path`,
/// and print the per-rank/per-phase summary and the cross-rank metrics
/// aggregate. The printed totals and the exported trace come from the same
/// span records; the run cross-checks them against each other.
fn run_trace(path: &str) {
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::MortonQuad;
    use quadforest_forest::{BalanceKind, Forest};
    use quadforest_telemetry as telemetry;
    use std::sync::Arc;

    const P: usize = 4;
    println!("\n## Telemetry: traced refine→balance→partition→ghost pipeline (P = {P})");
    // Background sampler: periodic snapshots of the global registry
    // become Chrome counter events at their own timestamps, so counter
    // tracks show evolution over the pipeline instead of one flat
    // end-of-run value. The pipeline is short, so sample aggressively.
    let sampler = telemetry::sample_metrics_every(std::time::Duration::from_micros(200));
    let results = quadforest_comm::run(P, |comm| {
        telemetry::begin_rank(comm.rank());
        let conn = Arc::new(Connectivity::unit(2));
        let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 2);
        f.refine(&comm, true, |_, q| {
            let c = q.coords();
            q.level() < 7 && c[0] == 0 && c[1] == 0
        });
        f.balance(&comm, BalanceKind::Face);
        f.partition(&comm);
        let g = f.ghost(&comm, BalanceKind::Face);
        let stats = f.stats(&comm);
        std::hint::black_box((g.len(), stats.global_count));
        let rows = comm.aggregate_metrics();
        let report = telemetry::finish_rank().expect("recorder was installed");
        (report, rows)
    });
    let (reports, rows): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    let json = telemetry::chrome_trace(&reports, &sampler.finish());
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path} (load in Perfetto or chrome://tracing)\n");
    print!("{}", telemetry::summary_table(&reports));
    println!();
    print!("{}", telemetry::metrics_table(&rows[0]));

    let table_ns: u64 = telemetry::summary_totals(&reports)
        .iter()
        .map(|(_, ns)| ns)
        .sum();
    let trace_ns = sum_trace_dur_ns(&json);
    let drift = (table_ns as f64 - trace_ns as f64).abs() / table_ns.max(1) as f64;
    println!(
        "\ntrace/table agreement: table {table_ns} ns vs trace {trace_ns} ns ({:.2}% drift)",
        drift * 100.0
    );
    assert!(
        drift <= 0.05,
        "summary table and exported trace disagree by more than 5%"
    );
}

fn main() {
    // If the supervisor of a socket-backend world spawned us as a rank
    // process, run the requested program and exit — before touching
    // argv or printing anything.
    quadforest_comm::maybe_run_socket_child(&quadforest_bench::transport::registry());
    let opts = parse_args();
    println!("# quadforest repro — paper evaluation on this machine");
    println!(
        "workload: {} 3D octants (levels 0..={}), ranks simulated {:?}, best of {} iters",
        workload::complete_tree_count(3, WORKLOAD_MAX_LEVEL),
        WORKLOAD_MAX_LEVEL,
        opts.ranks,
        opts.iters
    );
    println!(
        "kernel tier: {} (runtime-dispatched), nproc {}",
        quadforest_core::simd::active_features(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for fig in &opts.figures {
        run_figure(*fig, &opts);
    }
    if opts.mem {
        run_memory(opts.mem_level);
    }
    if opts.autovec {
        run_autovec(&opts);
    }
    if opts.dim2 {
        run_dim2(&opts);
    }
    if opts.chaos {
        run_chaos(&opts);
    }
    if opts.floor {
        run_floor();
    }
    if let Some(path) = &opts.trace {
        run_trace(path);
    }
}
