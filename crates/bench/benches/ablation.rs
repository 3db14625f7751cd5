//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * **Morton codec**: magic-number shift/mask vs. hardware BMI2
//!   `pdep`/`pext` vs. byte lookup tables,
//! * **SFC comparison key**: the raw-Morton `rotate_left(8)` trick vs.
//!   the generic decode-and-compare path,
//! * **register-width mixing** (paper Section 2.3): the production
//!   two-coordinates-per-128-bit `AVX_Morton` vs. an all-three-in-256-bit
//!   variant — the paper reports the mixed version slower.
//!
//! Run with `cargo bench -p quadforest-bench --bench ablation`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use quadforest_bench::*;
use quadforest_core::morton;
use quadforest_core::quadrant::{ablation, AvxQuad, MortonQuad, Quadrant};
use std::hint::black_box;

fn codec_inputs() -> Vec<(u32, u32, u32)> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    (0..1_000_000)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (
                (state >> 10) as u32 & 0x3_FFFF,
                (state >> 28) as u32 & 0x3_FFFF,
                (state >> 46) as u32 & 0x3_FFFF,
            )
        })
        .collect()
}

fn codec_variants(c: &mut Criterion) {
    let inputs = codec_inputs();
    let mut g = c.benchmark_group("ablation_codec3_encode");
    g.sample_size(20);
    g.throughput(Throughput::Elements(inputs.len() as u64));
    g.bench_function("magic", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(x, y, z) in &inputs {
                acc = acc.wrapping_add(morton::encode3(x, y, z));
            }
            black_box(acc)
        })
    });
    if quadforest_core::simd::has_bmi2() {
        g.bench_function("bmi2_pdep", |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &(x, y, z) in &inputs {
                    acc = acc.wrapping_add(morton::encode3_rt(x, y, z));
                }
                black_box(acc)
            })
        });
    }
    g.bench_function("lut", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(x, y, z) in &inputs {
                acc = acc.wrapping_add(morton::lut::encode3(x, y, z));
            }
            black_box(acc)
        })
    });
    g.finish();

    let codes: Vec<u64> = codec_inputs()
        .iter()
        .map(|&(x, y, z)| morton::encode3(x, y, z))
        .collect();
    let mut g = c.benchmark_group("ablation_codec3_decode");
    g.sample_size(20);
    g.throughput(Throughput::Elements(codes.len() as u64));
    g.bench_function("magic", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &m in &codes {
                let (x, y, z) = morton::decode3(m);
                acc = acc.wrapping_add(x ^ y ^ z);
            }
            black_box(acc)
        })
    });
    if quadforest_core::simd::has_bmi2() {
        g.bench_function("bmi2_pext", |b| {
            b.iter(|| {
                let mut acc = 0u32;
                for &m in &codes {
                    let (x, y, z) = morton::decode3_rt(m);
                    acc = acc.wrapping_add(x ^ y ^ z);
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn sfc_compare_key(c: &mut Criterion) {
    let quads = paper_workload::<MortonQuad<3>>();
    let mut g = c.benchmark_group("ablation_sfc_compare");
    g.sample_size(20);
    g.throughput(Throughput::Elements(quads.len() as u64 - 1));
    g.bench_function("rotate_key", |b| {
        b.iter(|| {
            let mut lt = 0u64;
            for w in quads.windows(2) {
                // the specialized override: one rotation + compare
                if w[0].compare_sfc(&w[1]).is_lt() {
                    lt += 1;
                }
            }
            black_box(lt)
        })
    });
    g.bench_function("decode_compare", |b| {
        b.iter(|| {
            let mut lt = 0u64;
            for w in quads.windows(2) {
                // the generic path every representation gets by default
                let ord = w[0]
                    .morton_abs()
                    .cmp(&w[1].morton_abs())
                    .then_with(|| w[0].level().cmp(&w[1].level()));
                if ord.is_lt() {
                    lt += 1;
                }
            }
            black_box(lt)
        })
    });
    g.finish();
}

fn register_mixing(c: &mut Criterion) {
    let inputs = paper_morton_inputs(3);
    let mut g = c.benchmark_group("ablation_register_mixing");
    g.sample_size(20);
    g.throughput(Throughput::Elements(inputs.len() as u64));
    g.bench_function("avx_morton_128_production", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(i, l) in &inputs {
                let q = AvxQuad::<3>::from_morton(i, l);
                acc = acc.wrapping_add(black_box(&q).level() as u64);
            }
            acc
        })
    });
    g.bench_function("avx_morton_mixed_256", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(i, l) in &inputs {
                let q = ablation::from_morton3_mixed256(i, l);
                acc = acc.wrapping_add(black_box(&q).level() as u64);
            }
            acc
        })
    });
    g.finish();
}

/// Guard bench for the telemetry layer's disabled-cost contract: with no
/// recorder installed, a `telemetry::span` call site must cost under 2 ns
/// (one relaxed atomic load plus an inert guard). The guard is a hard
/// assertion, not just a reported number — instrumenting the forest hot
/// paths is only acceptable while this holds.
fn span_overhead(c: &mut Criterion) {
    use quadforest_telemetry as telemetry;
    assert!(
        telemetry::disabled(),
        "no recorder may be installed when the guard bench runs"
    );
    // Differential measurement: the same loop with and without the span
    // call site, so the loop/black_box scaffolding cancels out and only
    // the span's own cost (atomic load + branch + inert guard drop) is
    // attributed to the site.
    const N: u64 = 20_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = std::time::Instant::now();
        for i in 0..N {
            black_box(i);
        }
        let base = t.elapsed();
        let t = std::time::Instant::now();
        for i in 0..N {
            let s = telemetry::span("guard.disabled");
            black_box(&s);
            black_box(i);
        }
        let with_span = t.elapsed();
        best = best.min(with_span.saturating_sub(base).as_secs_f64() * 1e9 / N as f64);
    }
    println!("disabled span site: {best:.3} ns (contract: < 2 ns)");
    assert!(
        best < 2.0,
        "disabled span costs {best:.3} ns per site, breaking the 2 ns contract"
    );

    let mut g = c.benchmark_group("ablation_span_overhead");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1_000_000));
    g.bench_function("disabled", |b| {
        b.iter(|| {
            for _ in 0..1_000_000u64 {
                let s = telemetry::span("guard.disabled");
                black_box(&s);
            }
        })
    });
    g.finish();
}

/// Guard bench for the flight recorder's disabled-cost contract: with the
/// ring unarmed, a `flight::event` call site must cost under 10 ns (one
/// `OnceLock` load and an untaken branch — the argument evaluation is
/// what keeps it above the span guard's bound). Transports and the query
/// executor carry these sites unconditionally, so this is the price every
/// un-instrumented run pays.
fn flight_overhead(c: &mut Criterion) {
    use quadforest_telemetry::flight;
    assert!(
        !flight::armed(),
        "the recorder may not be armed when the guard bench runs"
    );
    // Same differential trick as `span_overhead`: identical loops with and
    // without the event site, best-of-5 so scheduler noise can only
    // inflate, never flatter, the measured site cost.
    const N: u64 = 20_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = std::time::Instant::now();
        for i in 0..N {
            black_box(i);
        }
        let base = t.elapsed();
        let t = std::time::Instant::now();
        for i in 0..N {
            flight::event(flight::FlightKind::Heartbeat, 0, black_box(i), 0);
            black_box(i);
        }
        let with_event = t.elapsed();
        best = best.min(with_event.saturating_sub(base).as_secs_f64() * 1e9 / N as f64);
    }
    println!("disabled flight event site: {best:.3} ns (contract: < 10 ns)");
    assert!(
        best < 10.0,
        "disabled flight event costs {best:.3} ns per site, breaking the 10 ns contract"
    );

    let mut g = c.benchmark_group("ablation_flight_overhead");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1_000_000));
    g.bench_function("disabled", |b| {
        b.iter(|| {
            for i in 0..1_000_000u64 {
                flight::event(flight::FlightKind::Heartbeat, 0, black_box(i), 0);
            }
        })
    });
    g.finish();
}

criterion_group!(
    ablation_suite,
    codec_variants,
    sfc_compare_key,
    register_mixing,
    span_overhead,
    flight_overhead
);
criterion_main!(ablation_suite);
