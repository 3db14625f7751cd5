//! Criterion benches for Figures 2–7: every low-level kernel over every
//! quadrant representation on the paper's 2,396,745-octant workload
//! (Section 3.1), plus the Fig. 8 (contribution 5) manual-vs-automatic
//! vectorization comparison.
//!
//! Run with `cargo bench -p quadforest-bench --bench figures`; filter a
//! single figure with e.g. `-- fig2`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use quadforest_bench::*;
use quadforest_core::batch;
use quadforest_core::quadrant::{AvxQuad, MortonQuad, Quadrant, StandardQuad};
use quadforest_core::scalar_ref::{self, QuadSoA};

type S3 = StandardQuad<3>;
type M3 = MortonQuad<3>;
type A3 = AvxQuad<3>;

fn bench_quad_kernel<Q: Quadrant>(
    c: &mut Criterion,
    group: &str,
    kernel: fn(&[Q]) -> u64,
    filter_roots: bool,
) {
    let mut data = paper_workload::<Q>();
    if filter_roots {
        data = nonroot(data);
    }
    let mut g = c.benchmark_group(group);
    g.sample_size(20);
    g.throughput(Throughput::Elements(data.len() as u64));
    g.bench_with_input(BenchmarkId::new(Q::NAME, data.len()), &data, |b, d| {
        b.iter(|| kernel(d))
    });
    g.finish();
}

fn fig2_morton(c: &mut Criterion) {
    let inputs = paper_morton_inputs(3);
    let mut g = c.benchmark_group("fig2_morton");
    g.sample_size(20);
    g.throughput(Throughput::Elements(inputs.len() as u64));
    g.bench_function(BenchmarkId::new("standard", inputs.len()), |b| {
        b.iter(|| kernel_morton::<S3>(&inputs))
    });
    g.bench_function(BenchmarkId::new("morton", inputs.len()), |b| {
        b.iter(|| kernel_morton::<M3>(&inputs))
    });
    g.bench_function(BenchmarkId::new("avx", inputs.len()), |b| {
        b.iter(|| kernel_morton::<A3>(&inputs))
    });
    g.finish();
}

fn fig3_child(c: &mut Criterion) {
    bench_quad_kernel::<S3>(c, "fig3_child", kernel_child, false);
    bench_quad_kernel::<M3>(c, "fig3_child", kernel_child, false);
    bench_quad_kernel::<A3>(c, "fig3_child", kernel_child, false);
}

fn fig4_fneigh(c: &mut Criterion) {
    bench_quad_kernel::<S3>(c, "fig4_fneigh", kernel_fneigh, false);
    bench_quad_kernel::<M3>(c, "fig4_fneigh", kernel_fneigh, false);
    bench_quad_kernel::<A3>(c, "fig4_fneigh", kernel_fneigh, false);
}

fn fig5_parent(c: &mut Criterion) {
    bench_quad_kernel::<S3>(c, "fig5_parent", kernel_parent, true);
    bench_quad_kernel::<M3>(c, "fig5_parent", kernel_parent, true);
    bench_quad_kernel::<A3>(c, "fig5_parent", kernel_parent, true);
}

fn fig6_sibling(c: &mut Criterion) {
    bench_quad_kernel::<S3>(c, "fig6_sibling", kernel_sibling, true);
    bench_quad_kernel::<M3>(c, "fig6_sibling", kernel_sibling, true);
    bench_quad_kernel::<A3>(c, "fig6_sibling", kernel_sibling, true);
}

fn fig7_boundaries(c: &mut Criterion) {
    bench_quad_kernel::<S3>(c, "fig7_boundaries", kernel_boundaries, false);
    bench_quad_kernel::<M3>(c, "fig7_boundaries", kernel_boundaries, false);
    bench_quad_kernel::<A3>(c, "fig7_boundaries", kernel_boundaries, false);
}

/// Contribution 5: explicit AVX2 vectorization against the compiler's
/// auto-vectorization of the same per-element logic, over the identical
/// SoA memory layout, plus the AoS 128-bit representation for reference.
fn fig8_autovec(c: &mut Criterion) {
    const L: u8 = S3::MAX_LEVEL;
    let quads = nonroot(paper_workload::<S3>());
    let soa = QuadSoA::from_quads(&quads);
    let mut out = QuadSoA::with_len(soa.len());
    let n = soa.len() as u64;

    let mut g = c.benchmark_group("fig8_autovec_parent");
    g.sample_size(20);
    g.throughput(Throughput::Elements(n));
    g.bench_function("scalar_autovec", |b| {
        b.iter(|| scalar_ref::parent_all(&soa, L, &mut out))
    });
    g.bench_function("manual_avx2_256", |b| {
        b.iter(|| batch::parent_all(&soa, L, &mut out))
    });
    g.finish();

    let mut g = c.benchmark_group("fig8_autovec_child");
    g.sample_size(20);
    g.throughput(Throughput::Elements(n));
    g.bench_function("scalar_autovec", |b| {
        b.iter(|| scalar_ref::child_all(&soa, 5, L, &mut out))
    });
    g.bench_function("manual_avx2_256", |b| {
        b.iter(|| batch::child_all(&soa, 5, L, &mut out))
    });
    g.finish();

    let mut g = c.benchmark_group("fig8_autovec_boundaries");
    g.sample_size(20);
    g.throughput(Throughput::Elements(n));
    let len = soa.len();
    let (mut fx, mut fy, mut fz) = (vec![0; len], vec![0; len], vec![0; len]);
    g.bench_function("scalar_autovec", |b| {
        b.iter(|| scalar_ref::tree_boundaries_all(&soa, 3, L, [&mut fx, &mut fy, &mut fz]))
    });
    g.bench_function("manual_avx2_256", |b| {
        b.iter(|| batch::tree_boundaries_all(&soa, 3, L, [&mut fx, &mut fy, &mut fz]))
    });
    g.finish();
}

criterion_group!(
    figures,
    fig2_morton,
    fig3_child,
    fig4_fneigh,
    fig5_parent,
    fig6_sibling,
    fig7_boundaries,
    fig8_autovec
);
criterion_main!(figures);
