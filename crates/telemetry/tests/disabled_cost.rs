//! The disabled-cost contracts of the two always-compiled-in sites: with
//! no recorder installed a `telemetry::span` site costs under 2 ns, with
//! the flight ring unarmed a `flight::event` site under 10 ns. Hard
//! assertions — instrumenting the forest hot paths, the transports and the
//! query executor is only acceptable while they hold.
//!
//! Timing needs an optimized build: the debug run skips both tests, CI's
//! `cargo test --workspace --release` enforces them
//! (`cargo test --release -p quadforest-telemetry --test disabled_cost`).
//! Nothing in this binary installs a recorder or arms the ring.

use quadforest_telemetry::{self as telemetry, flight};
use std::hint::black_box;

const N: u64 = 20_000_000;

#[test]
#[cfg_attr(debug_assertions, ignore = "timing guard: needs --release")]
fn a_disabled_span_site_costs_under_2_ns() {
    assert!(
        telemetry::disabled(),
        "no recorder may be installed when the guard runs"
    );
    // Differential measurement: the same loop with and without the span
    // call site, so the loop/black_box scaffolding cancels out and only
    // the span's own cost (atomic load + branch + inert guard drop) is
    // attributed to the site.
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
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing guard: needs --release")]
fn an_unarmed_flight_event_site_costs_under_10_ns() {
    assert!(
        !flight::armed(),
        "the recorder may not be armed when the guard runs"
    );
    // Same differential trick: identical loops with and without the event
    // site (one `OnceLock` load and an untaken branch — the argument
    // evaluation is what keeps it above the span guard's bound), best-of-5
    // so scheduler noise can only inflate, never flatter, the site cost.
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
}
