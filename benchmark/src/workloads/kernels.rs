//! `kernels_paper` — the paper's own claim (§3.1, Figures 2–7).
//!
//! One thread. The array is every 3D octant of levels `0..=7`
//! (2,396,745 of them). One **sweep** (the operation) runs the six
//! per-quadrant kernels in each of the three representations, the eight
//! dispatched SoA kernels of `core::batch`, and `linearize` of 2^20
//! seed-drawn octants in two representations. An **item** is one kernel
//! result (one octant through one kernel).
//!
//! Only `core` works here: forest, comm, query and pde are idle, so this
//! workload is the control for any change above `core`. The seed picks
//! the child/face/sibling rotation, the SoA kernel arguments and the
//! octants handed to `linearize`; the array itself is the paper's.

use super::{done, peak_rss_mb, timed_setup, Outcome, Rng, RunCfg};
use crate::spans::SpanLog;
use crate::stats::median;
use quadforest_core::batch::{self, QuadSoA};
use quadforest_core::linear::{is_linear, linearize};
use quadforest_core::quadrant::{Avx3d, Morton3, Quadrant, Standard3};
use quadforest_core::{simd, workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub const REPRS: [&str; 3] = ["standard", "morton", "avx"];
pub const KERNELS: [&str; 6] = [
    "from_morton",
    "child",
    "face_neighbor",
    "parent",
    "sibling",
    "tree_boundaries",
];
/// Span name of kernel `k` in representation `r`.
const KERNEL_SPANS: [[&str; 3]; 6] = [
    [
        "core.from_morton.standard",
        "core.from_morton.morton",
        "core.from_morton.avx",
    ],
    ["core.child.standard", "core.child.morton", "core.child.avx"],
    [
        "core.face_neighbor.standard",
        "core.face_neighbor.morton",
        "core.face_neighbor.avx",
    ],
    [
        "core.parent.standard",
        "core.parent.morton",
        "core.parent.avx",
    ],
    [
        "core.sibling.standard",
        "core.sibling.morton",
        "core.sibling.avx",
    ],
    [
        "core.tree_boundaries.standard",
        "core.tree_boundaries.morton",
        "core.tree_boundaries.avx",
    ],
];
pub const BATCH_OPS: [&str; 8] = [
    "child_all",
    "parent_all",
    "sibling_all",
    "face_neighbor_all",
    "offset_neighbor_all",
    "tree_boundaries_all",
    "sfc_keys_all",
    "point_keys_all",
];
const BATCH_SPANS: [&str; 8] = [
    "core.batch.child_all",
    "core.batch.parent_all",
    "core.batch.sibling_all",
    "core.batch.face_neighbor_all",
    "core.batch.offset_neighbor_all",
    "core.batch.tree_boundaries_all",
    "core.batch.sfc_keys_all",
    "core.batch.point_keys_all",
];
const LINEARIZE_SPANS: [&str; 2] = ["core.linearize.standard", "core.linearize.morton"];

// ---- the per-quadrant kernel loops. Each returns the wrapping sum of
// the results' levels: cheap in every representation, so the loop times
// the kernel and not the checksum, and equal across representations.

fn k_from_morton<Q: Quadrant>(inputs: &[(u64, u8)]) -> u64 {
    let mut acc = 0u64;
    for &(idx, level) in inputs {
        let q = Q::from_morton(idx, level);
        acc = acc.wrapping_add(black_box(&q).level() as u64);
    }
    acc
}

fn k_child<Q: Quadrant>(quads: &[Q], rot: u32) -> u64 {
    let mask = Q::NUM_CHILDREN - 1;
    let mut acc = 0u64;
    for (i, q) in quads.iter().enumerate() {
        let c = q.child((i as u32).wrapping_add(rot) & mask);
        acc = acc.wrapping_add(black_box(&c).level() as u64);
    }
    acc
}

fn k_face_neighbor<Q: Quadrant>(quads: &[Q], rot: u32) -> u64 {
    let mut acc = 0u64;
    for (i, q) in quads.iter().enumerate() {
        let n = q.face_neighbor((i as u32).wrapping_add(rot) % Q::NUM_FACES);
        acc = acc.wrapping_add(black_box(&n).level() as u64);
    }
    acc
}

fn k_parent<Q: Quadrant>(quads: &[Q]) -> u64 {
    let mut acc = 0u64;
    for q in quads {
        let p = q.parent();
        acc = acc.wrapping_add(black_box(&p).level() as u64);
    }
    acc
}

fn k_sibling<Q: Quadrant>(quads: &[Q], rot: u32) -> u64 {
    let mask = Q::NUM_CHILDREN - 1;
    let mut acc = 0u64;
    for (i, q) in quads.iter().enumerate() {
        let s = q.sibling((i as u32).wrapping_add(rot) & mask);
        acc = acc.wrapping_add(black_box(&s).level() as u64);
    }
    acc
}

fn k_tree_boundaries<Q: Quadrant>(quads: &[Q]) -> u64 {
    let mut acc = 0u64;
    for q in quads {
        let f = q.tree_boundaries();
        let f = black_box(&f);
        acc = acc.wrapping_add((f[0] + 2 * f[1] + 4 * f[2]) as u64);
    }
    acc
}

/// Full-fidelity digest of one quadrant (anchor and level), used by the
/// one-off verification pass, never inside a timed loop.
fn digest<Q: Quadrant>(q: &Q) -> u64 {
    let [x, y, z] = q.coords();
    (x as u32 as u64)
        ^ ((y as u32 as u64) << 21)
        ^ ((z as u32 as u64) << 42)
        ^ ((q.level() as u64) << 58)
}

/// The six kernels' full digests in one representation: equal across
/// representations iff the kernels compute the same octants.
fn verify_digests<Q: Quadrant>(inputs: &[(u64, u8)], quads: &[Q], rot: u32) -> [u64; 6] {
    let mask = Q::NUM_CHILDREN - 1;
    let at = |i: usize| (i as u32).wrapping_add(rot);
    let nonroot = &quads[1..];
    [
        wrapping_sum(inputs.iter().map(|&(i, l)| digest(&Q::from_morton(i, l)))),
        wrapping_sum(
            quads
                .iter()
                .enumerate()
                .map(|(i, q)| digest(&q.child(at(i) & mask))),
        ),
        // exterior neighbours are representation-specific (raw Morton
        // wraps around): only the ones inside the root are compared
        wrapping_sum(quads.iter().enumerate().map(|(i, q)| {
            q.face_neighbor_inside(at(i) % Q::NUM_FACES)
                .map_or(0, |n| digest(&n))
        })),
        wrapping_sum(nonroot.iter().map(|q| digest(&q.parent()))),
        wrapping_sum(
            nonroot
                .iter()
                .enumerate()
                .map(|(i, q)| digest(&q.sibling(at(i) & mask))),
        ),
        wrapping_sum(quads.iter().map(|q| {
            let f = q.tree_boundaries();
            (f[0] + 2 * f[1] + 4 * f[2]) as u64
        })),
    ]
}

fn wrapping_sum(values: impl Iterator<Item = u64>) -> u64 {
    values.fold(0, u64::wrapping_add)
}

/// Weights that tell the lanes (x, y, z, level) apart in a digest.
const LANE_WEIGHTS: [u64; 4] = [1, 3, 5, 7];

/// Digest of one element given by its lane values; summed over the
/// elements it equals [`lanes_digest`] of the lanes.
fn element_digest(values: &[i32]) -> u64 {
    wrapping_sum(
        values
            .iter()
            .zip(LANE_WEIGHTS)
            .map(|(&v, w)| (v as u32 as u64).wrapping_mul(w)),
    )
}

/// Digest of whole output lanes: the weighted wrapping sum of each.
fn lanes_digest(lanes: &[&[i32]]) -> u64 {
    wrapping_sum(
        lanes
            .iter()
            .zip(LANE_WEIGHTS)
            .map(|(lane, w)| wrapping_sum(lane.iter().map(|&v| v as u32 as u64)).wrapping_mul(w)),
    )
}

/// Arguments of the SoA kernels, drawn from the seed.
#[derive(Clone, Copy)]
struct BatchArgs {
    child: u32,
    sibling: u32,
    face: u32,
    offset: [i32; 3],
}

/// Everything a sweep reads, and the reference answers it checks.
struct Inputs {
    rot: u32,
    args: BatchArgs,
    morton_inputs: Vec<(u64, u8)>,
    standard: Vec<Standard3>,
    morton: Vec<Morton3>,
    avx: Vec<Avx3d>,
    /// The non-root octants in SoA form (parent/sibling need a parent).
    soa: QuadSoA,
    lin_standard: Vec<Standard3>,
    lin_morton: Vec<Morton3>,
    /// Expected SoA output digests (six lane kernels), key sums (two key
    /// kernels) and `linearize` output length.
    expect_soa: [u64; 6],
    expect_keys: [u64; 2],
    expect_linear_len: usize,
    /// Failures found by the one-off verification pass.
    verify_failures: Vec<String>,
}

fn setup(cfg: &RunCfg) -> Inputs {
    let level = cfg.size.kernels_max_level;
    let mut rng = Rng::new(cfg.seed, 1);
    let rot = rng.next_u64() as u32;
    let args = BatchArgs {
        child: rng.below(8) as u32,
        sibling: rng.below(8) as u32,
        face: rng.below(6) as u32,
        offset: loop {
            let o = [0; 3].map(|_| rng.below(3) as i32 - 1);
            if o != [0, 0, 0] {
                break o;
            }
        },
    };
    let morton_inputs = workload::morton_inputs(3, level);
    let standard = workload::complete_tree::<Standard3>(level);
    let morton = workload::complete_tree::<Morton3>(level);
    let avx = workload::complete_tree::<Avx3d>(level);
    let soa = QuadSoA::from_quads(&standard[1..]);

    let n = standard.len() as u64;
    let picks: Vec<usize> = (0..cfg.size.linearize_len)
        .map(|_| rng.below(n) as usize)
        .collect();
    let lin_standard: Vec<Standard3> = picks.iter().map(|&i| standard[i]).collect();
    let lin_morton: Vec<Morton3> = picks.iter().map(|&i| morton[i]).collect();

    // ---- one-off verification: the three representations compute the
    // same octants, and the SoA kernels agree with the per-quadrant ones
    let mut verify_failures = Vec::new();
    let ds = verify_digests(&morton_inputs, &standard, rot);
    let dm = verify_digests(&morton_inputs, &morton, rot);
    let da = verify_digests(&morton_inputs, &avx, rot);
    for (k, name) in KERNELS.iter().enumerate() {
        if ds[k] != dm[k] || ds[k] != da[k] {
            verify_failures.push(format!(
                "{name}: digests differ: standard {:#x} morton {:#x} avx {:#x}",
                ds[k], dm[k], da[k]
            ));
        }
    }
    let nonroot = &standard[1..];
    let lanes = |q: Standard3| {
        let [x, y, z] = q.coords();
        element_digest(&[x, y, z, q.level() as i32])
    };
    let o = args.offset;
    let expect_soa = [
        wrapping_sum(nonroot.iter().map(|q| lanes(q.child(args.child)))),
        wrapping_sum(nonroot.iter().map(|q| lanes(q.parent()))),
        wrapping_sum(nonroot.iter().map(|q| lanes(q.sibling(args.sibling)))),
        wrapping_sum(nonroot.iter().map(|q| lanes(q.face_neighbor(args.face)))),
        wrapping_sum(nonroot.iter().map(|q| {
            let ([x, y, z], s) = (q.coords(), q.side());
            element_digest(&[x + o[0] * s, y + o[1] * s, z + o[2] * s, q.level() as i32])
        })),
        wrapping_sum(nonroot.iter().map(|q| element_digest(&q.tree_boundaries()))),
    ];
    let expect_keys = [
        wrapping_sum(nonroot.iter().map(|q| q.sfc_key())),
        wrapping_sum(
            nonroot
                .iter()
                .map(|q| quadforest_core::zrange::point_key(q.coords(), 3)),
        ),
    ];
    let ls = linearize(lin_standard.clone());
    let lm = linearize(lin_morton.clone());
    if !is_linear(&ls) || !is_linear(&lm) {
        verify_failures.push("linearize output is not linear".into());
    }
    if ls.len() != lm.len()
        || wrapping_sum(ls.iter().map(|q| q.sfc_key()))
            != wrapping_sum(lm.iter().map(|q| q.sfc_key()))
    {
        verify_failures.push("linearize differs between standard and morton".into());
    }

    Inputs {
        rot,
        args,
        morton_inputs,
        standard,
        morton,
        avx,
        soa,
        lin_standard,
        lin_morton,
        expect_soa,
        expect_keys,
        expect_linear_len: ls.len(),
        verify_failures,
    }
}

/// Output buffers reused by every sweep.
struct Scratch {
    out: QuadSoA,
    fx: Vec<i32>,
    fy: Vec<i32>,
    fz: Vec<i32>,
    keys: Vec<u64>,
}

/// One timed section of a sweep.
struct Section {
    name: &'static str,
    seconds: f64,
    elems: usize,
}

/// Time `f` (inside a span when tracing) and record it as a section.
fn section<R>(
    log: &mut SpanLog,
    sections: &mut Vec<Section>,
    name: &'static str,
    elems: usize,
    f: impl FnOnce() -> R,
) -> R {
    log.span(name, |_| {
        let t0 = Instant::now();
        let out = f();
        sections.push(Section {
            name,
            seconds: t0.elapsed().as_secs_f64(),
            elems,
        });
        out
    })
}

/// One sweep: every kernel once. Returns the timed sections and the
/// failed checks.
fn sweep(inp: &Inputs, scratch: &mut Scratch, log: &mut SpanLog) -> (Vec<Section>, Vec<String>) {
    let mut sections = Vec::with_capacity(28);
    let mut failures = Vec::new();
    let rot = inp.rot;
    let (s, m, a) = (&inp.standard[..], &inp.morton[..], &inp.avx[..]);
    let n = s.len();

    // the six per-quadrant kernels × three representations
    macro_rules! trio {
        ($k:expr, $elems:expr, $fs:expr, $fm:expr, $fa:expr) => {{
            let sums = [
                section(log, &mut sections, KERNEL_SPANS[$k][0], $elems, $fs),
                section(log, &mut sections, KERNEL_SPANS[$k][1], $elems, $fm),
                section(log, &mut sections, KERNEL_SPANS[$k][2], $elems, $fa),
            ];
            if sums[0] != sums[1] || sums[0] != sums[2] {
                failures.push(format!("{}: checksums differ {sums:?}", KERNELS[$k]));
            }
        }};
    }
    let mi = &inp.morton_inputs[..];
    trio!(
        0,
        n,
        || k_from_morton::<Standard3>(mi),
        || k_from_morton::<Morton3>(mi),
        || k_from_morton::<Avx3d>(mi)
    );
    trio!(1, n, || k_child(s, rot), || k_child(m, rot), || k_child(
        a, rot
    ));
    trio!(
        2,
        n,
        || k_face_neighbor(s, rot),
        || k_face_neighbor(m, rot),
        || k_face_neighbor(a, rot)
    );
    trio!(3, n - 1, || k_parent(&s[1..]), || k_parent(&m[1..]), || {
        k_parent(&a[1..])
    });
    trio!(
        4,
        n - 1,
        || k_sibling(&s[1..], rot),
        || k_sibling(&m[1..], rot),
        || k_sibling(&a[1..], rot)
    );
    trio!(
        5,
        n,
        || k_tree_boundaries(s),
        || k_tree_boundaries(m),
        || k_tree_boundaries(a)
    );

    // the eight dispatched SoA kernels
    const L: u8 = Standard3::MAX_LEVEL;
    let soa = &inp.soa;
    let ns = soa.len();
    let args = inp.args;
    let Scratch {
        out,
        fx,
        fy,
        fz,
        keys,
    } = scratch;
    let mut soa_check = |i: usize, got: u64, want: u64| {
        if got != want {
            failures.push(format!(
                "batch::{}: digest {got:#x}, expected {want:#x}",
                BATCH_OPS[i]
            ));
        }
    };
    macro_rules! lanes_kernel {
        ($i:expr, $call:expr) => {{
            section(log, &mut sections, BATCH_SPANS[$i], ns, $call);
            let got = log.span("bench.verify", |_| {
                lanes_digest(&[&out.x[..ns], &out.y[..ns], &out.z[..ns], &out.level[..ns]])
            });
            soa_check($i, got, inp.expect_soa[$i]);
        }};
    }
    lanes_kernel!(0, || batch::child_all(soa, args.child, L, out));
    lanes_kernel!(1, || batch::parent_all(soa, L, out));
    lanes_kernel!(2, || batch::sibling_all(soa, args.sibling, L, out));
    lanes_kernel!(3, || batch::face_neighbor_all(soa, args.face, L, out));
    lanes_kernel!(4, || batch::offset_neighbor_all(soa, args.offset, L, out));
    section(log, &mut sections, BATCH_SPANS[5], ns, || {
        batch::tree_boundaries_all(soa, 3, L, [&mut fx[..], &mut fy[..], &mut fz[..]])
    });
    let got = log.span("bench.verify", |_| lanes_digest(&[fx, fy, fz]));
    soa_check(5, got, inp.expect_soa[5]);
    let key_sum = |keys: &[u64]| wrapping_sum(keys.iter().copied());
    section(log, &mut sections, BATCH_SPANS[6], ns, || {
        batch::sfc_keys_all(soa, 3, keys)
    });
    let got = log.span("bench.verify", |_| key_sum(keys));
    soa_check(6, got, inp.expect_keys[0]);
    section(log, &mut sections, BATCH_SPANS[7], ns, || {
        batch::point_keys_all(&soa.x, &soa.y, &soa.z, 3, keys)
    });
    let got = log.span("bench.verify", |_| key_sum(keys));
    soa_check(7, got, inp.expect_keys[1]);

    // keyed linearize; the input copy is the benchmark's, not the layer's
    let input = log.span("bench.clone_input", |_| inp.lin_standard.clone());
    let len = input.len();
    let ls = section(log, &mut sections, LINEARIZE_SPANS[0], len, || {
        linearize(input)
    });
    let input = log.span("bench.clone_input", |_| inp.lin_morton.clone());
    let lm = section(log, &mut sections, LINEARIZE_SPANS[1], len, || {
        linearize(input)
    });
    if ls.len() != inp.expect_linear_len || lm.len() != inp.expect_linear_len {
        failures.push(format!(
            "linearize kept {} / {} octants, expected {}",
            ls.len(),
            lm.len(),
            inp.expect_linear_len
        ));
    }
    log.span("bench.drop_output", |_| drop((ls, lm)));
    (sections, failures)
}

/// Run sweeps until the budget is spent; returns per-section samples of
/// ns per element, the per-sweep timed seconds, and items per sweep.
struct Measured {
    ns_per_elem: BTreeMap<&'static str, Vec<f64>>,
    sweep_seconds: Vec<f64>,
    items_per_sweep: usize,
}

fn measure(
    cfg: &RunCfg,
    inp: &Inputs,
    budget_share: f64,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Measured {
    let ns = inp.soa.len();
    let mut scratch = Scratch {
        out: QuadSoA::with_len(ns),
        fx: vec![0; ns],
        fy: vec![0; ns],
        fz: vec![0; ns],
        keys: vec![0; ns],
    };
    let mut m = Measured {
        ns_per_elem: BTreeMap::new(),
        sweep_seconds: Vec::new(),
        items_per_sweep: 0,
    };
    let budget = cfg.budget().mul_f64(budget_share);
    let t0 = Instant::now();
    let mut rep = 0u32;
    while !done(t0, budget, m.sweep_seconds.len(), cfg.size.min_ops) {
        log.set_rep(rep);
        rep += 1;
        let (sections, failures) = log.span("bench.sweep", |log| sweep(inp, &mut scratch, log));
        out.op(failures.is_empty(), || failures.join("; "));
        m.items_per_sweep = sections.iter().map(|s| s.elems).sum();
        m.sweep_seconds
            .push(sections.iter().map(|s| s.seconds).sum());
        for s in sections {
            m.ns_per_elem
                .entry(s.name)
                .or_default()
                .push(s.seconds * 1e9 / s.elems as f64);
        }
    }
    m
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let (inp, setup_s) = timed_setup(cfg.size.setup_reps, || setup(cfg));
    for f in &inp.verify_failures {
        out.op(false, || f.clone());
    }

    if !cfg.traced {
        let m = measure(cfg, &inp, 1.0, &mut SpanLog::off(), &mut out);
        let rates: Vec<f64> = m
            .sweep_seconds
            .iter()
            .map(|s| m.items_per_sweep as f64 / s)
            .collect();
        out.set_speed(&rates, &m.sweep_seconds);
        out.set("peak_rss_mb", peak_rss_mb());
        out.set("setup_s", setup_s);
        return out;
    }

    // traced run: half the budget untraced (the reference the overhead
    // is taken against), half traced with library telemetry on
    let calls0 = simd::kernel_invocations();
    let plain = measure(cfg, &inp, 0.5, &mut SpanLog::off(), &mut out);
    quadforest_telemetry::begin_rank(0);
    let mut log = SpanLog::new(true, 0, Instant::now());
    let traced = measure(cfg, &inp, 0.5, &mut log, &mut out);
    let report = quadforest_telemetry::finish_rank().expect("recorder installed above");
    let calls1 = simd::kernel_invocations();

    let med = |name: &str| traced.ns_per_elem.get(name).map_or(0.0, |v| median(v));
    for (k, kernel) in KERNELS.iter().enumerate() {
        for (r, repr) in REPRS.iter().enumerate() {
            out.set(&format!("core.{kernel}.{repr}_ns"), med(KERNEL_SPANS[k][r]));
        }
    }
    for (r, repr) in REPRS.iter().enumerate() {
        let sum: f64 = (0..6).map(|k| med(KERNEL_SPANS[k][r])).sum();
        out.set(&format!("core.kernel_ns.{repr}"), sum);
    }
    for (i, op) in BATCH_OPS.iter().enumerate() {
        out.set(&format!("core.batch.{op}_ns"), med(BATCH_SPANS[i]));
    }
    out.set(
        "core.batch_ns_soa",
        BATCH_SPANS.iter().map(|s| med(s)).sum(),
    );
    out.set("core.linearize.standard_ns", med(LINEARIZE_SPANS[0]));
    out.set("core.linearize.morton_ns", med(LINEARIZE_SPANS[1]));
    for ((tier, before), (_, after)) in calls0.iter().zip(calls1.iter()) {
        out.set(&format!("core.simd.{tier}_calls"), (after - before) as f64);
    }
    out.set(
        "core.bytes_per_octant.standard",
        std::mem::size_of::<Standard3>() as f64,
    );
    out.set(
        "core.bytes_per_octant.morton",
        std::mem::size_of::<Morton3>() as f64,
    );
    out.set(
        "core.bytes_per_octant.avx",
        std::mem::size_of::<Avx3d>() as f64,
    );

    out.set_tracing_overhead(&plain.sweep_seconds, &traced.sweep_seconds);
    out.set("telemetry.spans_recorded", report.spans.len() as f64);
    out.set("telemetry.spans_dropped", report.dropped_spans as f64);
    out.spans = log.into_spans();
    out
}
