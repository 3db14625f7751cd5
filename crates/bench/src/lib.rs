//! # quadforest-bench
//!
//! The benchmark harness that regenerates every figure and table of the
//! paper's evaluation section (see DESIGN.md §4 for the experiment
//! index).
//!
//! * Figures 2–7 — per-kernel strong scaling over the three quadrant
//!   representations (`Morton`, `Child`, `FNeigh`, `Parent`, `Sibling`,
//!   `Tree_Boundaries`), on the exact workload of Section 3.1: the
//!   2,396,745-octant complete tree of levels 0..=7.
//! * Section 3.2 — memory consumption of a uniform octree per
//!   representation (3 : 2 : 1 expected).
//! * Contribution 5 — manual AVX2 vectorization vs. the compiler's
//!   auto-vectorization, and the ablations A1–A3 of the design choices.
//!
//! The paper's MPI strong scaling is simulated: the workload array is cut
//! into `P` contiguous rank chunks, each chunk is timed separately on
//! this machine's core, and the reported runtime for `P` ranks is the
//! critical path `max` over chunks — see DESIGN.md §2 for why this
//! preserves the figures' shape. The `repro` binary sweeps `P` and prints
//! the paper-style tables; the ledger's per-kernel numbers come from the
//! `kernels_paper` workload of `benchmark/`, which times the same six
//! kernels on its own.

#![warn(missing_docs)]

use quadforest_core::quadrant::Quadrant;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub use quadforest_core::workload;

pub mod transport;

/// The paper's maximum refinement level for the synthetic workload.
pub const WORKLOAD_MAX_LEVEL: u8 = 7;

/// The rank counts swept by the strong-scaling figures.
pub const RANKS: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

// ---------------------------------------------------------------------------
// Kernels (one per figure)
// ---------------------------------------------------------------------------

/// Fig. 2 kernel: construct each quadrant from its level-relative Morton
/// index (Algorithms 1, 4 and 11). Returns a checksum so the optimizer
/// cannot discard the work (the paper stores to a local variable for the
/// same reason).
#[inline]
pub fn kernel_morton<Q: Quadrant>(inputs: &[(u64, u8)]) -> u64 {
    let mut acc = 0u64;
    for &(idx, level) in inputs {
        let q = Q::from_morton(idx, level);
        acc = acc.wrapping_add(black_box(&q).level() as u64);
    }
    acc
}

/// Fig. 3 kernel: the `i mod 2^d`-th child of every quadrant
/// (Algorithms 2, 6 and 9). Quadrants at the maximum workload level are
/// pre-filtered by the workload builder.
#[inline]
pub fn kernel_child<Q: Quadrant>(quads: &[Q]) -> u64 {
    let mask = Q::NUM_CHILDREN - 1;
    let mut acc = 0u64;
    for (i, q) in quads.iter().enumerate() {
        let c = q.child(i as u32 & mask);
        acc = acc.wrapping_add(black_box(&c).level() as u64);
    }
    acc
}

/// Fig. 4 kernel: the `i mod 2d`-th face neighbor (Algorithm 8).
#[inline]
pub fn kernel_fneigh<Q: Quadrant>(quads: &[Q]) -> u64 {
    let nf = Q::NUM_FACES;
    let mut acc = 0u64;
    for (i, q) in quads.iter().enumerate() {
        let n = q.face_neighbor(i as u32 % nf);
        acc = acc.wrapping_add(black_box(&n).level() as u64);
    }
    acc
}

/// Fig. 5 kernel: the parent (Algorithms 7 and 10). Roots are
/// pre-filtered by the workload builder.
#[inline]
pub fn kernel_parent<Q: Quadrant>(quads: &[Q]) -> u64 {
    let mut acc = 0u64;
    for q in quads {
        let p = q.parent();
        acc = acc.wrapping_add(black_box(&p).level() as u64);
    }
    acc
}

/// Fig. 6 kernel: the `i mod 2^d`-th sibling (Algorithm 3). Roots are
/// pre-filtered.
#[inline]
pub fn kernel_sibling<Q: Quadrant>(quads: &[Q]) -> u64 {
    let mask = Q::NUM_CHILDREN - 1;
    let mut acc = 0u64;
    for (i, q) in quads.iter().enumerate() {
        let s = q.sibling(i as u32 & mask);
        acc = acc.wrapping_add(black_box(&s).level() as u64);
    }
    acc
}

/// Fig. 7 kernel: tree-boundary classification (Algorithm 12).
#[inline]
pub fn kernel_boundaries<Q: Quadrant>(quads: &[Q]) -> u64 {
    let mut acc = 0u64;
    for q in quads {
        let f = q.tree_boundaries();
        acc = acc.wrapping_add(black_box(&f)[0] as u64 & 0xFF);
    }
    acc
}

// ---------------------------------------------------------------------------
// Workload builders
// ---------------------------------------------------------------------------

/// The full Section-3.1 array for a representation: all 2,396,745
/// octants of levels 0..=7 (in 3D).
pub fn paper_workload<Q: Quadrant>() -> Vec<Q> {
    workload::complete_tree::<Q>(WORKLOAD_MAX_LEVEL)
}

/// Workload without the root (inputs of `Parent` and `Sibling`).
pub fn nonroot<Q: Quadrant>(quads: Vec<Q>) -> Vec<Q> {
    quads.into_iter().filter(|q| q.level() > 0).collect()
}

/// The `(index, level)` input stream of the `Morton` kernel.
pub fn paper_morton_inputs(dim: u32) -> Vec<(u64, u8)> {
    workload::morton_inputs(dim, WORKLOAD_MAX_LEVEL)
}

// ---------------------------------------------------------------------------
// Strong-scaling harness
// ---------------------------------------------------------------------------

/// One measured point of a strong-scaling series.
#[derive(Copy, Clone, Debug)]
pub struct ScalePoint {
    /// Simulated rank count `P`.
    pub ranks: usize,
    /// Critical-path runtime: the slowest rank chunk.
    pub critical_path: Duration,
    /// Sum over all chunks (total CPU work).
    pub total_work: Duration,
}

/// Cut `data` into `ranks` contiguous chunks (the SFC partition of the
/// workload), time `kernel` on each chunk, and report the critical path
/// — the simulated strong-scaling measurement (DESIGN.md §2).
pub fn strong_scale<T, F>(data: &[T], ranks: usize, mut kernel: F) -> ScalePoint
where
    F: FnMut(&[T]) -> u64,
{
    let n = data.len();
    let mut worst = Duration::ZERO;
    let mut total = Duration::ZERO;
    let mut acc = 0u64;
    for r in 0..ranks {
        let lo = n * r / ranks;
        let hi = n * (r + 1) / ranks;
        let start = Instant::now();
        acc = acc.wrapping_add(kernel(&data[lo..hi]));
        let dt = start.elapsed();
        total += dt;
        worst = worst.max(dt);
    }
    black_box(acc);
    ScalePoint {
        ranks,
        critical_path: worst,
        total_work: total,
    }
}

/// Run `kernel` over the whole array `iters` times and return the best
/// (minimum) duration — the stable single-rank measurement used for the
/// speedup ratios.
pub fn time_best<T, F>(data: &[T], iters: usize, mut kernel: F) -> Duration
where
    F: FnMut(&[T]) -> u64,
{
    let mut best = Duration::MAX;
    let mut acc = 0u64;
    for _ in 0..iters {
        let start = Instant::now();
        acc = acc.wrapping_add(kernel(data));
        best = best.min(start.elapsed());
    }
    black_box(acc);
    best
}

/// Percentage speedup of `new` over `baseline` (positive = faster), the
/// number the paper quotes per figure.
pub fn speedup_percent(baseline: Duration, new: Duration) -> f64 {
    (baseline.as_secs_f64() / new.as_secs_f64() - 1.0) * 100.0
}

// ---------------------------------------------------------------------------
// Correctness cross-checks for the harness itself
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use quadforest_core::quadrant::{AvxQuad, MortonQuad, StandardQuad};

    #[test]
    fn workload_sizes() {
        assert_eq!(paper_workload::<StandardQuad<3>>().len(), 2_396_745);
        assert_eq!(paper_morton_inputs(3).len(), 2_396_745);
    }

    #[test]
    fn kernels_agree_across_representations() {
        // checksums must be identical for all representations: the
        // kernels compute the same logical results
        let s = paper_workload::<StandardQuad<3>>();
        let m = paper_workload::<MortonQuad<3>>();
        let a = paper_workload::<AvxQuad<3>>();
        let s = &s[..20_000];
        let m = &m[..20_000];
        let a = &a[..20_000];
        assert_eq!(kernel_child(s), kernel_child(m));
        assert_eq!(kernel_child(s), kernel_child(a));
        assert_eq!(kernel_boundaries(s), kernel_boundaries(m));
        assert_eq!(kernel_boundaries(s), kernel_boundaries(a));
        let sn: Vec<_> = nonroot(s.to_vec());
        let mn: Vec<_> = nonroot(m.to_vec());
        let an: Vec<_> = nonroot(a.to_vec());
        assert_eq!(kernel_parent(&sn), kernel_parent(&mn));
        assert_eq!(kernel_parent(&sn), kernel_parent(&an));
        assert_eq!(kernel_sibling(&sn), kernel_sibling(&mn));
        assert_eq!(kernel_sibling(&sn), kernel_sibling(&an));
        let inputs = &paper_morton_inputs(3)[..20_000];
        assert_eq!(
            kernel_morton::<StandardQuad<3>>(inputs),
            kernel_morton::<MortonQuad<3>>(inputs)
        );
        assert_eq!(
            kernel_morton::<StandardQuad<3>>(inputs),
            kernel_morton::<AvxQuad<3>>(inputs)
        );
    }

    #[test]
    fn strong_scale_covers_all_elements() {
        let data: Vec<u32> = (0..1000).collect();
        let mut seen = 0usize;
        let pt = strong_scale(&data, 7, |chunk| {
            seen += chunk.len();
            0
        });
        assert_eq!(seen, 1000);
        assert_eq!(pt.ranks, 7);
        assert!(pt.total_work >= pt.critical_path);
    }

    #[test]
    fn speedup_math() {
        let a = Duration::from_millis(177);
        let b = Duration::from_millis(100);
        assert!((speedup_percent(a, b) - 77.0).abs() < 1e-9);
        assert!(speedup_percent(b, b).abs() < 1e-9);
    }
}
