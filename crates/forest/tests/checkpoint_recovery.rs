//! End-to-end chaos recovery: a rank dies mid-pipeline, the recovery
//! supervisor rebuilds the world, restores the last good checkpoint,
//! replays the remaining phases, and converges to a forest that is
//! leaf-identical to the fault-free run.
//!
//! The headline test does not hand-pick a single kill point: it scans
//! EVERY communication-operation index of the victim rank until the
//! scheduled panic falls off the end of the program, so recovery is
//! proven for deaths during save, refine, balance, partition, and
//! ghost alike — and asserts that the scan actually covered a
//! mid-balance death, the scenario named in the acceptance criteria.

use quadforest_comm::{
    run, run_with_recovery, Attempt, Comm, FaultPlan, RecoveryOptions, RecoveryPolicy,
};
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{MortonQuad, Quadrant};
use quadforest_forest::{BalanceKind, Forest, IoError};
use quadforest_telemetry as telemetry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A fresh scratch directory unique to this process + call site.
fn scratch_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "qf-ckpt-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Rank-independent refine selector (callbacks must not depend on the
/// rank, as in MPI practice).
fn mix(seed: u64, t: u32, q_pos: u64, level: u8) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for w in [t as u64, q_pos, level as u64] {
        h ^= w;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
    }
    h
}

type RankView = (
    Vec<(u32, u64)>,
    Vec<(u32, [i32; 3], u8)>,
    u64, // ghost layer size
    u64, // collective checksum
);

/// The checkpointed AMR program. First attempt: build, refine, save a
/// checkpoint, then run the expensive phases. Retry: restore from the
/// newest valid generation (falling back to a fresh start if no
/// checkpoint committed before the death) and replay from there.
fn program(comm: &Comm, attempt: Attempt, dir: &Path, seed: u64) -> RankView {
    let conn = Arc::new(Connectivity::unit(2));
    let restored = if attempt.is_retry() {
        Forest::<MortonQuad<2>>::load_checkpoint(conn.clone(), comm, dir).ok()
    } else {
        None
    };
    let mut f = match restored {
        Some((f, _generation)) => f,
        None => {
            let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, comm, 1);
            f.refine(comm, false, |t, q| {
                q.level() < 5 && mix(seed, t, q.morton_abs(), q.level()) % 3 == 0
            });
            f.save_checkpoint(comm, dir).expect("checkpoint save");
            f
        }
    };
    f.refine(comm, false, |t, q| {
        q.level() < 5 && mix(seed ^ 0xABCD, t, q.morton_abs(), q.level()) % 4 == 0
    });
    f.balance(comm, BalanceKind::Face);
    f.partition(comm);
    let ghost = f.ghost(comm, BalanceKind::Face);
    f.validate().expect("invariants must hold");
    (
        f.markers().to_vec(),
        f.leaves()
            .map(|(t, q)| (t, q.coords(), q.level()))
            .collect(),
        ghost.ghosts.len() as u64,
        f.checksum(comm),
    )
}

/// Kill the victim rank at every single comm-op index until the
/// scheduled panic falls past the end of the program; each death must
/// recover to the fault-free result. Returns the set of phases the
/// deaths landed in.
fn scan_kill_points(p: usize, victim: usize, seed: u64) -> Vec<String> {
    let baseline_dir = scratch_dir("baseline");
    let baseline = run(p, |c| {
        program(&c, Attempt { index: 0 }, &baseline_dir, seed)
    });
    let _ = std::fs::remove_dir_all(&baseline_dir);
    let mut phases_hit = Vec::new();
    let mut op = 0u64;
    loop {
        let dir = scratch_dir("scan");
        let opts = RecoveryOptions {
            policy: RecoveryPolicy {
                max_attempts: 2,
                base_delay: Duration::from_micros(200),
                ..RecoveryPolicy::default()
            },
            plans: vec![Some(FaultPlan::new(seed).with_panic_at(victim, op))],
            ..RecoveryOptions::default()
        };
        let outcome = run_with_recovery(p, opts, |comm, attempt| {
            // arm the per-rank recorder so the abort report names the
            // phase the victim died in
            telemetry::begin_rank(comm.rank());
            let view = program(&comm, attempt, &dir, seed);
            let _ = telemetry::finish_rank();
            Ok(view)
        })
        .unwrap_or_else(|e| panic!("P={p} kill at op {op} did not recover: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
        if outcome.attempts == 1 {
            // the panic index is past the victim's op count: the whole
            // program has been scanned
            assert!(op > 10, "suspiciously few ops scanned (op = {op})");
            break;
        }
        assert_eq!(outcome.failures.len(), 1);
        let failure = &outcome.failures[0];
        assert_eq!(failure.origin, victim, "P={p} op={op}");
        assert!(failure.origin_panicked(), "P={p} op={op}");
        if let Some(phase) = failure
            .reason
            .split("in phase '")
            .nth(1)
            .and_then(|s| s.split('\'').next())
        {
            phases_hit.push(phase.to_string());
        }
        assert_eq!(
            outcome.values, baseline,
            "P={p}: death at op {op} did not converge to the fault-free forest"
        );
        op += 1;
        assert!(op < 512, "kill-point scan did not terminate");
    }
    phases_hit
}

#[test]
fn every_kill_point_recovers_to_the_fault_free_forest_p2() {
    let phases = scan_kill_points(2, 1, 0x5EED);
    assert!(
        phases.iter().any(|p| p == "balance"),
        "scan never killed mid-balance: {phases:?}"
    );
}

#[test]
fn every_kill_point_recovers_to_the_fault_free_forest_p4() {
    let phases = scan_kill_points(4, 3, 0x5EED);
    assert!(
        phases.iter().any(|p| p == "balance"),
        "scan never killed mid-balance: {phases:?}"
    );
}

/// A corrupted (bit-flipped) shard in the newest generation is caught
/// by CRC verification and restore falls back to the previous
/// generation; with every generation corrupted, the load reports a
/// typed error instead of resurrecting garbage.
#[test]
fn corrupt_shard_falls_back_to_previous_generation() {
    let dir = scratch_dir("fallback");
    let saved = run(2, {
        let dir = dir.clone();
        move |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 2);
            f.refine(&comm, false, |t, q| {
                q.level() < 4 && mix(7, t, q.morton_abs(), q.level()) % 3 == 0
            });
            let gen1 = f.save_checkpoint(&comm, &dir).unwrap();
            let checksum1 = f.checksum(&comm);
            f.refine(&comm, false, |t, q| {
                q.level() < 4 && mix(8, t, q.morton_abs(), q.level()) % 4 == 0
            });
            f.balance(&comm, BalanceKind::Face);
            let gen2 = f.save_checkpoint(&comm, &dir).unwrap();
            (gen1, checksum1, gen2)
        }
    });
    let (gen1, checksum1, gen2) = saved[0];
    assert_eq!((gen1, gen2), (1, 2));

    // flip one bit in a shard of the newest generation
    let victim_file = dir.join("gen-00000002").join("shard-00001.qfs");
    let mut bytes = std::fs::read(&victim_file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim_file, &bytes).unwrap();

    let restored = run(2, {
        let dir = dir.clone();
        move |comm| {
            telemetry::begin_rank(comm.rank());
            let conn = Arc::new(Connectivity::unit(2));
            let (f, generation) =
                Forest::<MortonQuad<2>>::load_checkpoint(conn, &comm, &dir).unwrap();
            let checksum = f.checksum(&comm);
            let report = telemetry::finish_rank().unwrap();
            (generation, checksum, report)
        }
    });
    for (generation, checksum, report) in &restored {
        assert_eq!(*generation, gen1, "must fall back past the corrupt gen 2");
        assert_eq!(*checksum, checksum1, "gen 1 forest must come back intact");
        assert!(
            report.spans.iter().any(|s| s.name == "restore"),
            "rank {} missing 'restore' span",
            report.rank
        );
    }
    // rank 0 does the generation vetting and counts the fallback
    use quadforest_telemetry::MetricKind;
    let fallbacks = restored[0]
        .2
        .metrics
        .get("forest.checkpoint.fallbacks", MetricKind::Counter)
        .map(|e| e.scalar())
        .unwrap_or(0);
    assert!(fallbacks >= 1, "fallback must be counted on rank 0");

    // now truncate gen 1's manifest too: nothing valid remains
    let manifest1 = dir.join("gen-00000001").join("manifest.qfm");
    let mbytes = std::fs::read(&manifest1).unwrap();
    std::fs::write(&manifest1, &mbytes[..mbytes.len() / 2]).unwrap();
    let errors = run(2, {
        let dir = dir.clone();
        move |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            Forest::<MortonQuad<2>>::load_checkpoint(conn, &comm, &dir).err()
        }
    });
    for e in &errors {
        assert!(e.is_some(), "all-corrupt directory must fail the load");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An empty or missing checkpoint directory is a typed `NoCheckpoint`,
/// not a panic or a hang.
#[test]
fn missing_directory_is_a_typed_error() {
    let dir = scratch_dir("missing");
    let errors = run(2, {
        let dir = dir.clone();
        move |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            Forest::<MortonQuad<2>>::load_checkpoint(conn, &comm, &dir).unwrap_err()
        }
    });
    for e in &errors {
        assert!(
            matches!(e, IoError::NoCheckpoint { .. }),
            "expected NoCheckpoint, got {e:?}"
        );
    }
}

/// Checkpoint and restore record spans, byte and latency histograms,
/// and land in the Chrome trace export — the observability half of the
/// acceptance criteria.
#[test]
fn checkpoint_and_restore_are_instrumented() {
    let dir = scratch_dir("telemetry");
    let reports = run(2, {
        let dir = dir.clone();
        move |comm| {
            telemetry::begin_rank(comm.rank());
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<MortonQuad<2>>::new_uniform(conn.clone(), &comm, 2);
            f.refine(&comm, false, |t, q| {
                q.level() < 4 && mix(3, t, q.morton_abs(), q.level()) % 3 == 0
            });
            f.save_checkpoint(&comm, &dir).unwrap();
            let (g, _) = Forest::<MortonQuad<2>>::load_checkpoint(conn, &comm, &dir).unwrap();
            assert_eq!(g.checksum(&comm), f.checksum(&comm));
            telemetry::finish_rank().unwrap()
        }
    });
    use quadforest_telemetry::MetricKind;
    for rep in &reports {
        for span in ["checkpoint", "restore"] {
            assert!(
                rep.spans.iter().any(|s| s.name == span),
                "rank {} missing '{span}' span",
                rep.rank
            );
        }
        for (name, kind) in [
            ("forest.checkpoint.bytes", MetricKind::Histogram),
            ("forest.checkpoint.write_ns", MetricKind::Histogram),
            ("forest.restore.ns", MetricKind::Histogram),
            ("forest.checkpoint.saves", MetricKind::Counter),
            ("forest.checkpoint.restores", MetricKind::Counter),
        ] {
            assert!(
                rep.metrics.get(name, kind).is_some(),
                "rank {} missing metric {name}",
                rep.rank
            );
        }
    }
    let trace = telemetry::chrome_trace(&reports, &[]);
    assert!(trace.contains("\"checkpoint\""));
    assert!(trace.contains("\"restore\""));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery supervisor activity shows up in the process-global metrics
/// registry (it outlives every rank thread, so it cannot use the
/// per-rank recorders).
#[test]
fn recovery_attempts_are_counted_globally() {
    let dir = scratch_dir("counters");
    let before = telemetry::global()
        .snapshot()
        .get(
            "recovery.retries",
            quadforest_telemetry::MetricKind::Counter,
        )
        .map(|e| e.scalar())
        .unwrap_or(0);
    let opts = RecoveryOptions {
        policy: RecoveryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_micros(100),
            ..RecoveryPolicy::default()
        },
        plans: vec![Some(FaultPlan::new(9).with_panic_at(0, 4))],
        ..RecoveryOptions::default()
    };
    run_with_recovery(2, opts, |comm, attempt| {
        Ok(program(&comm, attempt, &dir, 0xFACE))
    })
    .unwrap();
    let after = telemetry::global()
        .snapshot()
        .get(
            "recovery.retries",
            quadforest_telemetry::MetricKind::Counter,
        )
        .map(|e| e.scalar())
        .unwrap_or(0);
    assert!(
        after > before,
        "retry must be counted in the global registry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Phase guards: with `set_phase_guards(true)` every pipeline phase
/// validates its result and counts the check.
#[test]
fn phase_guards_validate_every_phase() {
    quadforest_forest::set_phase_guards(true);
    let reports = run(2, |comm| {
        telemetry::begin_rank(comm.rank());
        let conn = Arc::new(Connectivity::unit(2));
        let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 1);
        f.refine(&comm, false, |t, q| {
            q.level() < 4 && mix(11, t, q.morton_abs(), q.level()) % 3 == 0
        });
        f.balance(&comm, BalanceKind::Face);
        f.partition(&comm);
        let _g = f.ghost(&comm, BalanceKind::Face);
        telemetry::finish_rank().unwrap()
    });
    quadforest_forest::set_phase_guards(false);
    use quadforest_telemetry::MetricKind;
    for rep in &reports {
        let checks = rep
            .metrics
            .get("forest.guard.checks", MetricKind::Counter)
            .map(|e| e.scalar())
            .unwrap_or(0);
        assert!(
            checks >= 4,
            "rank {}: expected guards on refine/balance/partition/ghost, saw {checks}",
            rep.rank
        );
    }
}
