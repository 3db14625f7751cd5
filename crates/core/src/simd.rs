//! Runtime CPU feature detection and kernel-tier selection.
//!
//! Historically every SIMD path in this crate sat behind a compile-time
//! `#[cfg(target_feature = ...)]`, so a stock `cargo build --release`
//! (no `RUSTFLAGS`) silently shipped the scalar fallbacks — the paper's
//! headline AVX2 speedups never ran unless the user knew to pass
//! `-C target-feature=+avx2,+bmi2`. This module replaces that footgun
//! with `is_x86_feature_detected!`-based detection performed **once** per
//! process and cached in a [`OnceLock`]. It is the one place the tier is
//! decided: each dispatched entry point in [`crate::batch`] asks
//! `dispatch` once per call, the per-element Morton codecs in
//! [`crate::morton`] ask `has_bmi2` and [`crate::crc::crc32`] asks
//! `has_clmul` per buffer (the last two uncounted); each then branches
//! directly between an inner kernel compiled with
//! `#[target_feature(enable = ...)]` and the portable scalar reference.
//!
//! # Safety argument
//!
//! An `unsafe fn` annotated `#[target_feature(enable = "avx2")]` is
//! compiled with AVX2 instructions regardless of the build's baseline
//! target features; executing it on a CPU without AVX2 is undefined
//! behavior (illegal instruction at best). Soundness therefore rests on
//! a single invariant: *every* call site of such a function is reached
//! only through a dispatch check of `features()`, whose answer comes
//! from `is_x86_feature_detected!` on the running CPU. Every such call
//! sits inside the `if` whose condition is that check, so the `unsafe`
//! block's one obligation is the branch condition itself, visible on the
//! line above it.
//!
//! # Forcing the scalar tier
//!
//! Building with `RUSTFLAGS="--cfg quadforest_force_scalar"` makes
//! detection report no features, forcing every dispatch onto the scalar
//! reference path — CI uses this to keep the fallback tier tested on
//! hardware that would otherwise always pick SIMD.

use std::sync::OnceLock;

/// The set of instruction-set extensions detected on the running CPU
/// (restricted to the ones this crate dispatches on).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Features {
    /// 256-bit integer SIMD — the batch kernels in [`crate::batch`].
    pub avx2: bool,
    /// `pdep`/`pext` bit deposit/extract — the Morton codec in
    /// [`crate::morton::bmi2`].
    pub bmi2: bool,
    /// `pclmulqdq` carry-less multiply with SSE4.1 — the CRC-32 fold in
    /// [`crate::crc`].
    pub clmul: bool,
}

#[cfg(all(target_arch = "x86_64", not(quadforest_force_scalar)))]
fn detect() -> Features {
    Features {
        avx2: std::arch::is_x86_feature_detected!("avx2"),
        bmi2: std::arch::is_x86_feature_detected!("bmi2"),
        clmul: std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1"),
    }
}

#[cfg(not(all(target_arch = "x86_64", not(quadforest_force_scalar))))]
fn detect() -> Features {
    Features::default() // no features: the scalar tier
}

/// The detected feature set, computed once per process and cached.
#[inline]
pub(crate) fn features() -> Features {
    static FEATURES: OnceLock<Features> = OnceLock::new();
    *FEATURES.get_or_init(detect)
}

/// True when the AVX2 batch kernels are active.
#[inline]
pub(crate) fn has_avx2() -> bool {
    features().avx2
}

/// True when the BMI2 `pdep`/`pext` Morton codec is active.
#[inline]
pub(crate) fn has_bmi2() -> bool {
    features().bmi2
}

/// True when the carry-less-multiply CRC-32 fold is active.
#[inline]
pub(crate) fn has_clmul() -> bool {
    features().clmul
}

/// Human-readable summary of the active kernel tier, for benchmark
/// table headers and logs: `"avx2+bmi2"`, `"avx2"`, `"bmi2"` or
/// `"scalar"`.
pub fn active_features() -> &'static str {
    match (has_avx2(), has_bmi2()) {
        (true, true) => "avx2+bmi2",
        (true, false) => "avx2",
        (false, true) => "bmi2",
        (false, false) => "scalar",
    }
}

/// The kernel tier a batch dispatch actually resolved to, for invocation
/// accounting (detection says what the CPU *can* run; these counters prove
/// what *did* run).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Tier {
    /// Portable scalar reference kernels.
    Scalar,
    /// 256-bit AVX2 batch kernels.
    Avx2,
    /// BMI2 `pdep`/`pext` Morton codec.
    Bmi2,
}

impl Tier {
    /// The tier's bench/JSON label: `"scalar"`, `"avx2"`, or `"bmi2"`.
    fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
            Tier::Bmi2 => "bmi2",
        }
    }
}

struct TierCounters {
    scalar: quadforest_telemetry::Counter,
    avx2: quadforest_telemetry::Counter,
    bmi2: quadforest_telemetry::Counter,
}

fn tier_counters() -> &'static TierCounters {
    static COUNTERS: OnceLock<TierCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let g = quadforest_telemetry::global();
        TierCounters {
            scalar: g.counter("simd.dispatch.scalar"),
            avx2: g.counter("simd.dispatch.avx2"),
            bmi2: g.counter("simd.dispatch.bmi2"),
        }
    })
}

/// Whether `tier`'s kernels may run on this CPU, noting one dispatch on
/// the tier that will: `tier` when the CPU has it, [`Tier::Scalar`]
/// otherwise. Called by the entry points in [`crate::batch`] — once per
/// *batch* call, not per element, so the shared atomic stays out of
/// per-quadrant hot loops.
#[inline]
pub(crate) fn dispatch(tier: Tier) -> bool {
    let runs = match tier {
        Tier::Scalar => true,
        Tier::Avx2 => has_avx2(),
        Tier::Bmi2 => has_bmi2(),
    };
    note_dispatch(if runs { tier } else { Tier::Scalar });
    runs
}

/// Record one batch-kernel dispatch on `tier`.
#[inline]
fn note_dispatch(tier: Tier) {
    let c = tier_counters();
    match tier {
        Tier::Scalar => c.scalar.incr(),
        Tier::Avx2 => c.avx2.incr(),
        Tier::Bmi2 => c.bmi2.incr(),
    }
}

/// Dispatched batch-kernel invocation counts per tier since process start,
/// as `(tier name, count)` pairs — embedded in the bench JSON so "the
/// vector path ran" is machine-checkable, not inferred from detection.
pub fn kernel_invocations() -> [(&'static str, u64); 3] {
    let c = tier_counters();
    [
        (Tier::Scalar.name(), c.scalar.get()),
        (Tier::Avx2.name(), c.avx2.get()),
        (Tier::Bmi2.name(), c.bmi2.get()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_stable() {
        assert_eq!(features(), features());
        assert_eq!(has_avx2(), features().avx2);
        assert_eq!(has_bmi2(), features().bmi2);
        assert_eq!(has_clmul(), features().clmul);
    }

    #[test]
    fn active_features_summarizes_tier() {
        let s = active_features();
        assert_eq!(s.contains("avx2"), has_avx2());
        assert_eq!(s.contains("bmi2"), has_bmi2());
        if !has_avx2() && !has_bmi2() {
            assert_eq!(s, "scalar");
        }
    }

    #[cfg(quadforest_force_scalar)]
    #[test]
    fn forced_scalar_reports_no_features() {
        assert_eq!(features(), Features::default());
        assert_eq!(active_features(), "scalar");
    }

    #[test]
    fn dispatch_counters_accumulate_per_tier() {
        let before: std::collections::HashMap<_, _> = kernel_invocations().into_iter().collect();
        note_dispatch(Tier::Scalar);
        note_dispatch(Tier::Avx2);
        note_dispatch(Tier::Avx2);
        note_dispatch(Tier::Bmi2);
        let after: std::collections::HashMap<_, _> = kernel_invocations().into_iter().collect();
        // >= because batch tests running in parallel also bump these.
        assert!(after["scalar"] > before["scalar"]);
        assert!(after["avx2"] >= before["avx2"] + 2);
        assert!(after["bmi2"] > before["bmi2"]);
        assert_eq!(Tier::Avx2.name(), "avx2");
    }
}
